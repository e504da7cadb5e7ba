"""Foundational numerics.

Adaptive quadrature by QUADPACK's qk21 rule in plain Python, one cumulative Gauss-Legendre
pass for integrals against the Gaussian weight up to a grid of lower limits (its panel
layout can be built once and integrated over for many integrands), and scalar and array
monotone inversion.  Everything here is a pure function of its arguments and safe for
concurrent use.  SciPy's root finder loads on first use, so a process that never inverts
a scalar function does not import it.
"""

from __future__ import annotations

import heapq
import math
from operator import mul
from typing import Callable

import numpy as np

from .errors import MiwError, NonConvergence

__all__ = [
    "QUAD_ABS_TOL",
    "QUAD_REL_TOL",
    "TAIL_CUTOFF",
    "integrate_adaptive",
    "invert_monotone",
    "newton_bracketed",
]

_EPS = float(np.finfo(float).eps)

# Adaptive quadrature meets max(QUAD_ABS_TOL, QUAD_REL_TOL |I|) within
# _QUAD_MAX_SUBDIVISIONS panels.  Integrals against the Gaussian weight are
# truncated to [-TAIL_CUTOFF, TAIL_CUTOFF]; the tail mass beyond 12 is below
# 2e-33, far under QUAD_ABS_TOL.
QUAD_ABS_TOL = 1e-12
QUAD_REL_TOL = 1e-10
_QUAD_MAX_SUBDIVISIONS = 10_000
TAIL_CUTOFF = 12.0

# QUADPACK's qk21 on [-1, 1]: Kronrod nodes from 1 down (every 2nd a Gauss node), their
# weights then the centre's, the Gauss weights; then the same over all 21 nodes ascending.
_XK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
       0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
       0.2943928627014602, 0.14887433898163122)
_WK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
       0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
       0.14277593857706009, 0.14773910490133849, 0.1494455540029169)
_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
       0.29552422471475287)
_T21, _W21, _G21 = (*(-x for x in _XK), 0.0, *_XK[::-1]), _WK + _WK[9::-1], _WG + _WG[::-1]

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

    QUADPACK's qage: the panel of largest qk21 error is bisected until the errors sum
    below that tolerance, the worst panel cannot improve, or there are
    ``_QUAD_MAX_SUBDIVISIONS`` panels; ``f`` is called on Python floats.  Raises
    :class:`NonConvergence` on a non-finite value or an error over 10 times the tolerance.
    There is no qagse extrapolation, so an endpoint singularity costs many bisections
    (log x on [0, 1]: 1407 evaluations, QUADPACK 231): split it off before calling."""
    if a == b:
        return 0.0
    heap = [_kronrod21(f, a, b)]
    total, error = heap[0][3:]  # once non-finite, total + error stays so
    while (heap[0][0] and len(heap) < _QUAD_MAX_SUBDIVISIONS and math.isfinite(total + error)
           and error > max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(total))):
        _, lo, hi, value, err = heap[0]
        left, right = _kronrod21(f, lo, 0.5 * (lo + hi)), _kronrod21(f, 0.5 * (lo + hi), hi)
        heapq.heapreplace(heap, left)
        heapq.heappush(heap, right)
        total += left[3] + right[3] - value
        error += left[4] + right[4] - err
    if math.isfinite(total + error):
        total, error = math.fsum(p[3] for p in heap), math.fsum(p[4] for p in heap)
        if error <= 10 * max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(total)):
            return total
    raise NonConvergence(f"quadrature failed on [{a}, {b}]: error {error:g}, {len(heap)} panels")


def _kronrod21(f, a, b):
    """qk21 on [a, b] as the heap entry (key, a, b, value, error): key -error, or 0.0
    where the error is its roundoff floor 50 eps resabs, which bisection cannot lower."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fx = [f(c + h * t) for t in _T21]
    k, r = sum(map(mul, _W21, fx)), abs(h)
    asc = r * sum(map(mul, _W21, [abs(v - 0.5 * k) for v in fx]))
    err = abs(h * (k - sum(map(mul, _G21, fx[1::2]))))
    err = asc * min(1.0, (200 * err / asc) ** 1.5) if asc and err else err
    if err <= 60 * _EPS * (asc + r * abs(k)):  # resabs <= asc / r + |k|: the floor may bind
        floor = 50 * _EPS * r * sum(map(mul, _W21, map(abs, fx)))
        return (0.0 if err <= floor else -err), a, b, h * k, max(err, floor)
    return -err, a, b, h * k, err


def invert_monotone(F: Callable[[float], float], y: float, lo: float, hi: float) -> float:
    """Solve F(x) = y for strictly increasing F on [lo, hi]."""
    Flo, Fhi = F(lo), F(hi)
    slack = _ROOT_F_TOL * max(1.0, abs(Flo), abs(Fhi))
    if y < Flo - slack or y > Fhi + slack:
        raise MiwError(f"target {y:g} outside [F(lo), F(hi)] = [{Flo:g}, {Fhi:g}]")
    if y <= Flo:
        return lo
    if y >= Fhi:
        return hi
    from scipy import optimize

    # y lies strictly between F(lo) and F(hi), so the bracket changes sign
    return float(optimize.brentq(lambda x: F(x) - y, lo, hi, xtol=_ROOT_X_TOL,
                                 rtol=max(_ROOT_X_TOL, 4 * _EPS), maxiter=_ROOT_MAX_ITER))


def newton_bracketed(f, y, lo, hi) -> np.ndarray:
    """Solve F(x) = y elementwise for increasing, array-capable F, where
    ``f(x)`` returns the pair (F(x), F'(x)).

    Roots lie in their brackets [lo, hi] (a target outside F's range there
    converges to the nearer end); Newton steps leaving the shrinking bracket's
    interior become bisections.  An element is done after a step below ``_ROOT_X_TOL``
    times the bracket's scale, or once |F(x) - y| <= ``_ROOT_F_TOL`` * max(1, |y|),
    which ends it where F's rounding noise over a small F' exceeds the x tolerance.
    Each element's steps depend on it alone, so f is called once per step, on a
    1-D array of the elements not yet done; done ones are set aside in the result.
    The loop works in place on arrays of its own, never on f's argument or results.
    """
    y, lo, hi = np.broadcast_arrays(y, lo, hi)
    shape = y.shape
    if not y.size:  # no element would ever stop the loop
        return np.empty(shape)
    # rows y, lo, hi, x tolerance: one index takes every row
    rows = np.empty((4, *shape))
    rows[0], rows[1], rows[2] = y, lo, hi
    rows[3] = _ROOT_X_TOL * np.maximum(np.abs(rows[1]), np.abs(rows[2]))
    y, lo, hi, x_tol = rows = rows.reshape(4, -1)
    x, out, where = 0.5 * (lo + hi), np.empty(y.size), np.arange(y.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_ROOT_MAX_ITER):
            F, dF = f(x)
            r = F - y
            fine = np.abs(r) <= _ROOT_F_TOL * np.maximum(1.0, np.abs(y))
            np.copyto(lo, x, where=r < 0.0)
            np.copyto(hi, x, where=r > 0.0)
            newton = np.subtract(x, np.divide(r, dF, out=r), out=r)  # x - (F - y) / F'
            del F, dF  # the callback's arrays, freed before this step allocates more
            inside = (newton > lo) & (newton < hi)  # a step onto an end bisects, not cycles
            step = 0.5 * (lo + hi)
            np.copyto(step, x, where=fine)
            np.copyto(step, newton, where=inside)
            stop = fine | (np.abs(step - x) <= x_tol) | (hi - lo <= x_tol)
            x = step
            if stop.any():
                out[where] = x
                keep = (~stop).nonzero()[0]
                if not keep.size:
                    return out.reshape(shape)
                x, where, rows = x[keep], where[keep], rows.take(keep, axis=1)
                y, lo, hi, x_tol = rows
    raise NonConvergence(f"bracketed Newton did not converge in {_ROOT_MAX_ITER} steps")


def _tail_layout(ts, kinks):
    """The panels of int_t^L u^2 f(u) e^{(t^2-u^2)/2} du, L = TAIL_CUTOFF, for each t >= 0
    in ``ts`` (unsorted, repeats allowed; t >= L gives 0), and what f does not enter of them.

    Panels run between the distinct t, the kinks of f and L.  Panel j on [a_j, a_{j+1}]
    gives J_j against e^{-u^2/2}, and the integral from a_j is S_j = e^{a_j^2/2} sum_{k>=j}
    J_k, one reversed cumulative sum in ``_tail_integrate`` (e^{+-L^2/2} is far inside
    double range).  Returns nodes u, widths, GL_W u^2 and e^{-u^2/2} at the nodes,
    e^{a^2/2} per panel, the result template, the points below L and their panels."""
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
    """The integrals of a ``_tail_layout`` for f, one per point of its ``ts``."""
    u, w, P, E, scale, template, inside, start = layout
    J = w * np.sum(P * f(u) * E, axis=0)
    out = template.copy()
    out[inside] = (np.cumsum(J[::-1])[::-1] * scale)[start]
    return out
