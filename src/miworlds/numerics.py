"""Foundational numerics.

Adaptive quadrature, bracketed root finding and scalar and array
monotone inversion.  Everything here is a pure function of its arguments
and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate, optimize

from .errors import NoBracket, NonConvergence, OutOfRange

__all__ = [
    "QuadratureSpec",
    "RootSpec",
    "DEFAULT_QUAD",
    "DEFAULT_ROOT",
    "integrate_adaptive",
    "find_root",
    "invert_monotone",
    "newton_bracketed",
]

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for adaptive quadrature.

    ``tail_cutoff`` is the half-width L used to truncate integrals against
    the Gaussian weight to [-L, L]; the default L = 12 leaves tail mass
    below 2e-33, far under ``abs_tol``.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 10_000
    tail_cutoff: float = 12.0

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if not self.tail_cutoff > 0:
            raise ValueError("tail_cutoff must be positive")


@dataclass(frozen=True)
class RootSpec:
    """Tolerances for bracketed root finding (x_tol is relative)."""

    x_tol: float = 1e-14
    f_tol: float = 1e-13
    max_iter: int = 200

    def __post_init__(self):
        if not (self.x_tol > 0 and self.f_tol > 0 and self.max_iter > 0):
            raise ValueError("all root tolerances must be positive")


DEFAULT_QUAD = QuadratureSpec()
DEFAULT_ROOT = RootSpec()


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Integrate ``f`` over [a, b] to within max(abs_tol, rel_tol*|I|).

    Backed by QUADPACK's globally adaptive Gauss-Kronrod scheme; results
    are deterministic for fixed inputs.  Raises :class:`NonConvergence`
    when the subdivision budget is exhausted before the tolerance is met.
    """
    if a == b:
        return 0.0
    out = integrate.quad(
        f,
        a,
        b,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    if len(out) > 3:
        value, abserr = out[0], out[1]
        # QUADPACK flags roundoff-limited panels even when the achieved
        # error is acceptable; only escalate genuine tolerance failures.
        if not (abserr <= max(spec.abs_tol, spec.rel_tol * abs(value)) * 10):
            raise NonConvergence(
                f"quadrature failed on [{a}, {b}]: {out[3]} (abserr={abserr:g})"
            )
        return value
    return out[0]


def find_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    spec: RootSpec = DEFAULT_ROOT,
) -> float:
    """Locate a root of ``f`` on a sign-changing bracket [lo, hi]."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise NoBracket(f"f({lo})={flo:g} and f({hi})={fhi:g} share a sign")
    return float(
        optimize.brentq(
            f,
            lo,
            hi,
            xtol=spec.x_tol,
            rtol=max(spec.x_tol, 4 * _EPS),
            maxiter=spec.max_iter,
        )
    )


def invert_monotone(
    F: Callable[[float], float],
    y: float,
    lo: float,
    hi: float,
    spec: RootSpec = DEFAULT_ROOT,
) -> float:
    """Solve F(x) = y for strictly increasing F on [lo, hi]."""
    Flo, Fhi = F(lo), F(hi)
    slack = spec.f_tol * max(1.0, abs(Flo), abs(Fhi))
    if y < Flo - slack or y > Fhi + slack:
        raise OutOfRange(f"target {y:g} outside [F(lo), F(hi)] = [{Flo:g}, {Fhi:g}]")
    if y <= Flo:
        return lo
    if y >= Fhi:
        return hi
    return find_root(lambda x: F(x) - y, lo, hi, spec)


def newton_bracketed(F, dF, y, lo, hi, spec: RootSpec = DEFAULT_ROOT) -> np.ndarray:
    """Solve F(x) = y elementwise for increasing, array-capable F.

    Roots lie in their brackets [lo, hi] (a target outside F's range there
    converges to the nearer end); Newton steps leaving the shrinking bracket
    become bisections.  An element is done after a step below ``x_tol``
    times the bracket's scale, or once |F(x) - y| <= ``f_tol`` * max(1, |y|),
    which ends it where F's rounding noise over a small F' exceeds x_tol.
    A done element is held, so that it does not depend on its neighbours.
    """
    y, lo, hi = (np.array(v, dtype=float) for v in np.broadcast_arrays(y, lo, hi))
    x_tol = spec.x_tol * np.maximum(np.abs(lo), np.abs(hi))
    f_tol = spec.f_tol * np.maximum(1.0, np.abs(y))
    x = 0.5 * (lo + hi)
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(spec.max_iter):
        r = F(x) - y
        fine = np.abs(r) <= f_tol
        lo = np.where(r < 0.0, x, lo)
        hi = np.where(r > 0.0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - r / dF(x)
        inside = (newton >= lo) & (newton <= hi)
        step = np.where(inside, newton, np.where(fine, x, 0.5 * (lo + hi)))
        stop = fine | (np.abs(step - x) <= x_tol) | (hi - lo <= x_tol)
        x = np.where(done, x, step)
        done |= stop
        if np.all(done):
            return x
    raise NonConvergence(f"bracketed Newton did not converge in {spec.max_iter} steps")
