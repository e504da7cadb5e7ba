"""The library's exceptions: one class for each outcome a caller tells apart."""

__all__ = ["MiwError", "MiwValidation", "NonConvergence", "ResidualFailure"]


class MiwError(Exception):
    """Base class for all library errors: a numerical failure (CLI exit code 2)."""


class MiwValidation(MiwError):
    """Input outside what the caller may ask for (CLI exit code 1)."""


class NonConvergence(MiwError):
    """Adaptive quadrature or an iterative solve exhausted its budget."""


class ResidualFailure(MiwError):
    """Mirrored configuration violates the recursion beyond tolerance."""
