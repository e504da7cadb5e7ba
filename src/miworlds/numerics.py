"""Foundational numerics.

Adaptive quadrature, one cumulative Gauss-Legendre pass for integrals
against the Gaussian weight up to a grid of lower limits (its panel layout
can be built once and integrated over for many integrands), and scalar and
array monotone inversion.  Everything here is a pure function of its
arguments and safe for concurrent use.  SciPy's quadrature and root finder
load on first use, so a process that never integrates or inverts a scalar
function does not import them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NonConvergence, OutOfRange

__all__ = [
    "QUAD_ABS_TOL",
    "QUAD_REL_TOL",
    "TAIL_CUTOFF",
    "integrate_adaptive",
    "invert_monotone",
    "newton_bracketed",
]

_EPS = np.finfo(float).eps

# Adaptive quadrature meets max(QUAD_ABS_TOL, QUAD_REL_TOL |I|) within
# _QUAD_MAX_SUBDIVISIONS panels.  Integrals against the Gaussian weight are
# truncated to [-TAIL_CUTOFF, TAIL_CUTOFF]; the tail mass beyond 12 is below
# 2e-33, far under QUAD_ABS_TOL.
QUAD_ABS_TOL = 1e-12
QUAD_REL_TOL = 1e-10
_QUAD_MAX_SUBDIVISIONS = 10_000
TAIL_CUTOFF = 12.0

# The cumulative pass integrates every panel with one 4-node Gauss-Legendre
# rule on [0, 1].  A panel is at most _PANEL wide, and at most
# _PANEL_DECAY / u where the weight e^{-u^2/2} falls faster; the rule's
# relative error, about w^8 |f^(8) / f| / 1.8e9, then stays near 1e-16.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(4)
_GL_T = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W
_PANEL = 0.05
_PANEL_DECAY = 0.15

# Root finding: relative x tolerance, F tolerance and step budget.
_ROOT_X_TOL = 1e-14
_ROOT_F_TOL = 1e-13
_ROOT_MAX_ITER = 200


def integrate_adaptive(f: Callable[[float], float], a: float, b: float) -> float:
    """Integrate ``f`` over [a, b] to within max(QUAD_ABS_TOL, QUAD_REL_TOL*|I|).

    Backed by QUADPACK's globally adaptive Gauss-Kronrod scheme; results
    are deterministic for fixed inputs.  Raises :class:`NonConvergence`
    when QUADPACK's error estimate exceeds ten times that tolerance.
    """
    if a == b:
        return 0.0
    from scipy import integrate

    value, abserr, *info = integrate.quad(f, a, b, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL,
                                          limit=_QUAD_MAX_SUBDIVISIONS, full_output=1)
    # ier = 0 already means abserr met the tolerance, and QUADPACK also flags
    # roundoff-limited panels whose error is acceptable: judge abserr alone.
    if not abserr <= 10 * max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(value)):
        raise NonConvergence(f"quadrature failed on [{a}, {b}]: {info[-1]} (abserr={abserr:g})")
    return value


def invert_monotone(F: Callable[[float], float], y: float, lo: float, hi: float) -> float:
    """Solve F(x) = y for strictly increasing F on [lo, hi]."""
    Flo, Fhi = F(lo), F(hi)
    slack = _ROOT_F_TOL * max(1.0, abs(Flo), abs(Fhi))
    if y < Flo - slack or y > Fhi + slack:
        raise OutOfRange(f"target {y:g} outside [F(lo), F(hi)] = [{Flo:g}, {Fhi:g}]")
    if y <= Flo:
        return lo
    if y >= Fhi:
        return hi
    from scipy import optimize

    # y lies strictly between F(lo) and F(hi), so the bracket changes sign
    return float(optimize.brentq(lambda x: F(x) - y, lo, hi, xtol=_ROOT_X_TOL,
                                 rtol=max(_ROOT_X_TOL, 4 * _EPS), maxiter=_ROOT_MAX_ITER))


def newton_bracketed(F, dF, y, lo, hi) -> np.ndarray:
    """Solve F(x) = y elementwise for increasing, array-capable F.

    Roots lie in their brackets [lo, hi] (a target outside F's range there
    converges to the nearer end); Newton steps leaving the shrinking bracket
    become bisections.  An element is done after a step below ``_ROOT_X_TOL``
    times the bracket's scale, or once |F(x) - y| <= ``_ROOT_F_TOL`` * max(1, |y|),
    which ends it where F's rounding noise over a small F' exceeds the x tolerance.
    Each element's steps depend on it alone, so F and dF are evaluated only
    on the elements not yet done; done ones are set aside in the result.
    """
    y, lo, hi = (np.array(v, dtype=float) for v in np.broadcast_arrays(y, lo, hi))
    x_tol = _ROOT_X_TOL * np.maximum(np.abs(lo), np.abs(hi))
    f_tol = _ROOT_F_TOL * np.maximum(1.0, np.abs(y))
    x = 0.5 * (lo + hi)
    out, where = np.empty(y.shape), np.arange(y.size).reshape(y.shape)
    for _ in range(_ROOT_MAX_ITER):
        r = F(x) - y
        fine = np.abs(r) <= f_tol
        np.copyto(lo, x, where=r < 0.0)  # lo and hi are this call's own arrays
        np.copyto(hi, x, where=r > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - r / dF(x)
        inside = (newton >= lo) & (newton <= hi)
        step = np.asarray(0.5 * (lo + hi))  # an array on 0-d input too
        np.copyto(step, x, where=fine)
        np.copyto(step, newton, where=inside)
        stop = fine | (np.abs(step - x) <= x_tol) | (hi - lo <= x_tol)
        x = step
        if np.any(stop):
            out.flat[where[stop]] = x[stop]
            if np.all(stop):
                return out
            keep = ~stop
            x, y, lo, hi, x_tol, f_tol, where = (
                v[keep] for v in (x, y, lo, hi, x_tol, f_tol, where)
            )
    raise NonConvergence(f"bracketed Newton did not converge in {_ROOT_MAX_ITER} steps")


def _upper_integral_grid(ts, f, kinks):
    """int_t^L u^2 f(u) e^{(t^2-u^2)/2} du, L = TAIL_CUTOFF, for every t >= 0 in ``ts``.

    One cumulative pass: panels run between the distinct t, the kinks of f
    and L.  Panel j on [a_j, a_{j+1}] gives J_j against the weight
    e^{-u^2/2}, and the integral from a_j is S_j = e^{a_j^2/2} sum_{k>=j} J_k,
    one reversed cumulative sum (e^{+-L^2/2} is far inside double range).
    ``ts`` may be unsorted and repeat points; points at or beyond L give 0.
    """
    return _tail_integrate(_tail_layout(ts, kinks), f)


def _tail_layout(ts, kinks):
    """The part of ``_upper_integral_grid`` that f does not enter: nodes u, panel
    widths, GL_W u^2 and e^{-u^2/2} at the nodes, e^{a^2/2} per panel, the result
    template, the points below L and the panel each of them starts at."""
    L = TAIL_CUTOFF
    ts = np.asarray(ts, dtype=float)
    inside = ts < L
    knots, knot_of = np.unique(np.concatenate(
        (ts[inside], [k for k in kinks if 0.0 < k < L], [L])
    ), return_inverse=True)
    gap = np.diff(knots)
    m = np.ceil(gap / np.minimum(_PANEL, _PANEL_DECAY / knots[1:])).astype(int)
    first = np.cumsum(m) - m  # the panel starting at each knot below L
    step = np.arange(m.sum()) - np.repeat(first, m)
    a = np.repeat(knots[:-1], m) + step * np.repeat(gap / m, m)
    w = np.append(a[1:], L) - a
    u = a + _GL_T[:, None] * w  # nodes run along axis 0
    out = np.where(ts >= L, 0.0, np.nan)  # NaN stays NaN
    return (u, w, _GL_W[:, None] * u * u, np.exp(-0.5 * u * u), np.exp(0.5 * a * a),
            out, inside, first[knot_of[:np.count_nonzero(inside)]])


def _tail_integrate(layout, f):
    """The pass of ``_upper_integral_grid`` for f over a ``_tail_layout``."""
    u, w, P, E, scale, template, inside, start = layout
    J = w * np.sum(P * f(u) * E, axis=0)
    out = template.copy()
    out[inside] = (np.cumsum(J[::-1])[::-1] * scale)[start]
    return out
