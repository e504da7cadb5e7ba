"""Semantic exception hierarchy shared by all modules."""


class MiwError(Exception):
    """Base class for all library errors."""


class NonConvergence(MiwError):
    """Adaptive quadrature or an iterative solve exhausted its budget."""


class RouteMismatch(MiwError):
    """Two independent routes to the same quantity disagree."""


class OutOfRange(MiwError):
    """Monotone inversion target lies outside the supplied bracket."""


class MiwValidation(MiwError):
    """Input outside what the caller may ask for (CLI exit code 1)."""


class UnsupportedOrder(MiwValidation):
    """Hermite order outside the supported range (k > 30 or k < 0)."""


class KernelSingularity(MiwError):
    """Closed-form kernel evaluated at a zero of the baseline."""


class InvalidStart(MiwError):
    """Shooting iteration started from a nonpositive first point."""


class ParityUnsupported(MiwValidation):
    """Requested world count has the wrong parity for the family."""


class ResidualFailure(MiwError):
    """Mirrored configuration violates the recursion beyond tolerance."""


class NotDecreasing(MiwError):
    """Configuration points are not strictly decreasing."""


class BaselineZero(MiwError):
    """Baseline vanishes at a point where a positive value is required."""


class AsymmetricInput(MiwError):
    """Atoms fail the x_n = -x_{N+1-n} symmetry requirement."""


class AtomAtZero(MiwValidation):
    """An atom sits at zero (odd N), so reciprocal moments are undefined."""
