"""Stein solutions for the two-sided Maxwell target and their bounds.

For a Lipschitz test function h with mean m under p_1(x) = x^2 phi(x),
the auxiliary solution is built branch-wise,

    g0(x) = e^{x^2/2} int_x^inf  u^2 (h(u) - m) e^{-u^2/2} du    (x > 0),
    g0(x) = e^{x^2/2} int_-inf^x u^2 (h(u) - m) e^{-u^2/2} du    (x <= 0),

and g = g0 / (x^2 + 2), chi = g' / x.  Differentiating the branches gives
g0'(x) = x g0(x) - sign(x) x^2 (h(x) - m); all derivative evaluators are
assembled from this identity, never from differentiating quadrature
output.  Note the branch-dependent sign: the ODE residual checks are
therefore stated in magnitude form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .numerics import TAIL_CUTOFF
from .zerobias import CouplingReport

__all__ = [
    "TestFunction",
    "make_test_function",
    "stein_solution",
    "supnorm_suite",
    "suite_csv_rows",
    "theorem_check",
    "identity_f_check",
    "fixed_suite",
]

# Sup-norm bound multipliers on the Lipschitz constant c.
BOUND_G = 3.0
BOUND_DG = 4.0
BOUND_CHI = 6.0
BOUND_DCHI = 7.0

# The cumulative pass integrates every panel with one 4-node Gauss-Legendre
# rule on [0, 1].  A panel is at most _PANEL wide, and at most
# _PANEL_DECAY / u where the weight e^{-u^2/2} falls faster; the rule's
# relative error, about w^8 |f^(8) / f| / 1.8e9, then stays near 1e-16.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(4)
_GL_T = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W
_PANEL = 0.05
_PANEL_DECAY = 0.15
# Panels whose exponents a^2/2 lie within one span share a shift, so no
# partial weight e^{+-(a^2/2 - shift)} leaves double range for any cutoff.
_SHIFT_SPAN = 64.0


@dataclass(frozen=True)
class TestFunction:
    """Lipschitz test function with certified constant and p_1 mean.

    ``h`` and ``dh`` must accept numpy arrays; ``kinks`` lists the points
    where dh jumps so integration panels can be split there.
    """

    name: str
    h: Callable
    dh: Callable
    c: float
    mean_under_p1: float
    kinks: tuple = ()

    def htilde(self, x):
        return self.h(x) - self.mean_under_p1


def make_test_function(
    name: str,
    h: Callable,
    dh: Callable,
    c: float,
    kinks: Sequence[float] = (),
) -> TestFunction:
    """Build a TestFunction, computing the mean under p_1 by the cumulative pass.

    The mean is int u^2 h(u) phi(u) du over [-TAIL_CUTOFF, TAIL_CUTOFF]: the
    pass at t = 0 on h for the upper half, and on h(-u) with mirrored kinks
    for the lower.
    """
    kinks = tuple(float(k) for k in kinks)
    zero = np.zeros(1)
    upper = _upper_integral_grid(zero, h, kinks, TAIL_CUTOFF)[0]
    lower = _upper_integral_grid(zero, lambda u: h(-u), [-k for k in kinks], TAIL_CUTOFF)[0]
    mean = float(upper + lower) / math.sqrt(2.0 * math.pi)
    return TestFunction(name=name, h=h, dh=dh, c=float(c), mean_under_p1=mean, kinks=kinks)


def _upper_integral_grid(ts, f, kinks, L):
    """int_t^L u^2 f(u) e^{(t^2-u^2)/2} du for every t >= 0 in ``ts``.

    One cumulative pass: panels run between the distinct t, the kinks of f
    and L.  Panel j on [a_j, a_{j+1}] gives J_j against the weight
    e^{(a_j^2-u^2)/2}, and the integral from a_j is the tail sum
    S_j = sum_{k>=j} J_k e^{(a_j^2-a_k^2)/2}, a reversed cumulative sum per
    block of shared shift.  ``ts`` may be unsorted and repeat points;
    points at or beyond L give 0.
    """
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
    # nodes run along axis 0; u^2 - a^2 = d (2a + d) with d = u - a
    d = _GL_T[:, None] * w
    u = a + d
    vals = u * u * f(u) * np.exp(-d * (a + 0.5 * d))
    J = w * np.sum(_GL_W[:, None] * vals, axis=0)
    c = 0.5 * a * a
    S = np.empty_like(J)
    starts = np.flatnonzero(np.diff(np.floor(c / _SHIFT_SPAN), prepend=-1.0))
    tail, c_tail = 0.0, 0.5 * L * L
    for lo, hi in zip(starts[::-1], np.append(starts[1:], J.size)[::-1]):
        r, cb = c[lo], c[lo:hi]
        part = np.cumsum((J[lo:hi] * np.exp(r - cb))[::-1])[::-1]
        S[lo:hi] = part * np.exp(cb - r) + tail * np.exp(cb - c_tail)
        tail, c_tail = S[lo], r
    out = np.where(ts >= L, 0.0, np.nan)  # NaN stays NaN
    out[inside] = S[first[knot_of[:np.count_nonzero(inside)]]]
    return out


def _g0(test: TestFunction, xs) -> np.ndarray:
    """g0 on a grid from one cumulative pass per branch."""
    xs = np.asarray(xs, dtype=float)
    ht, kinks = test.htilde, test.kinks
    out = np.empty_like(xs)
    pos = xs > 0.0
    out[pos] = _upper_integral_grid(xs[pos], ht, kinks, TAIL_CUTOFF)
    # lower branch via u -> -u: the same pass at |x| on the reflected integrand
    mirrored = [-k for k in kinks]
    out[~pos] = _upper_integral_grid(-xs[~pos], lambda u: ht(-u), mirrored, TAIL_CUTOFF)
    return out


def stein_solution(test: TestFunction, xs) -> dict:
    """g0, g = g0/(x^2+2), chi = g'/x and their derivatives on a grid.

    All six come from one g0 pass; every derivative follows from the branch
    identity g0' = x g0 - sign(x) x^2 (h - mean).
    """
    xs = np.asarray(xs, dtype=float)
    g0 = _g0(test, xs)
    s = np.sign(xs)
    ht = np.asarray(test.htilde(xs), dtype=float)
    dh = np.asarray(test.dh(xs), dtype=float)
    D = xs * xs + 2.0
    dg0 = xs * g0 - s * xs * xs * ht
    g = g0 / D
    dg = dg0 / D - 2.0 * xs * g0 / (D * D)
    # chi = g'/x in the 0/0-free arrangement, exact for every x
    chi = (1.0 - 2.0 / D) * g0 / D - np.abs(xs) * ht / D
    A = 1.0 / D - 2.0 / (D * D)
    dA = 2.0 * xs * (2.0 - xs * xs) / D ** 3
    dchi = (
        dA * g0
        + A * dg0
        - s * ht / D
        - np.abs(xs) * dh / D
        + 2.0 * xs * np.abs(xs) * ht / (D * D)
    )
    return {
        "x": xs, "g0": g0, "dg0": dg0, "g": g, "dg": dg,
        "chi": chi, "dchi": dchi,
    }


# The sup-norm grid: -8 to 8 in steps of 1e-3.
_SUP_GRID = -8.0 + 1e-3 * np.arange(16001)
# The identity grid: 0.05 to 6 in steps of 0.05 on each side, clear of the
# origin, where dividing by x^2 loses the identity.
_HALF = np.arange(0.05, 6.0 + 1e-12, 0.05)
_IDENTITY_GRID = np.concatenate((-_HALF[::-1], _HALF))


_SUITE_FIELDS = (
    "h_name", "c", "sup_g", "sup_dg", "sup_chi", "sup_dchi",
    "bound_3c", "bound_4c", "bound_6c", "bound_7c", "pass",
)


def supnorm_suite(test: TestFunction) -> dict:
    """Grid suprema of |g|, |g'|, |chi|, |chi'| against the c-multiples."""
    vals = stein_solution(test, _SUP_GRID)
    sups = [float(np.max(np.abs(vals[key]))) for key in ("g", "dg", "chi", "dchi")]
    bounds = [m * test.c for m in (BOUND_G, BOUND_DG, BOUND_CHI, BOUND_DCHI)]
    ok = all(s <= b for s, b in zip(sups, bounds))
    return dict(zip(_SUITE_FIELDS, (test.name, test.c, *sups, *bounds, ok)))


def suite_csv_rows(records: Sequence[dict]):
    """Header plus one tuple per supnorm record, in the published order."""
    return [_SUITE_FIELDS] + [tuple(rec[f] for f in _SUITE_FIELDS) for rec in records]


def theorem_check(cfg, report: CouplingReport, dw: float) -> dict:
    """Assemble the coupling-bound inequality dw <= rhs_bound."""
    lhs = float(dw)
    rhs = float(report.rhs_bound)
    return {
        "n_worlds": cfg.n_worlds,
        "lhs": lhs,
        "rhs": rhs,
        "holds": lhs <= rhs + 1e-12,
    }


def identity_f_check(test: TestFunction) -> float:
    """Max residual of the rewritten Stein identity with f = b tau g = g0.

    For b = x^2 and the Maxwell kernel tau_1, f collapses to g0 and the
    identity reads |f'(x) - x f(x)| = x^2 |h(x) - mean| (magnitude form,
    the sign flips across branches).  Returns the worst grid value of
    ||f' - x f| / x^2 - |h - mean||.
    """
    grid = _IDENTITY_GRID
    vals = stein_solution(test, grid)
    lhs = np.abs(vals["dg0"] - grid * vals["g0"]) / np.square(grid)
    rhs = np.abs(np.asarray(test.htilde(grid), dtype=float))
    return float(np.max(np.abs(lhs - rhs)))


def fixed_suite():
    """The certified test-function suite: odd/even mix, kinked and smooth."""
    ident = make_test_function(
        "identity",
        lambda x: np.asarray(x, dtype=float) + 0.0,
        lambda x: np.ones_like(np.asarray(x, dtype=float)),
        c=1.0,
    )
    sine = make_test_function("sine", np.sin, np.cos, c=1.0)
    clipped = make_test_function(
        "clipped_linear",
        lambda x: np.clip(x, -1.0, 1.0),
        lambda x: np.where(np.abs(np.asarray(x, dtype=float)) < 1.0, 1.0, 0.0),
        c=1.0,
        kinks=(-1.0, 1.0),
    )
    taper = make_test_function(
        "gauss_taper",
        lambda x: x * np.exp(-0.25 * np.square(x)),
        lambda x: (1.0 - 0.5 * np.square(x)) * np.exp(-0.25 * np.square(x)),
        c=1.0,
    )
    return (ident, sine, clipped, taper)
