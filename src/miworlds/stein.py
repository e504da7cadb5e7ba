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
from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import Callable, Sequence

import numpy as np

from .numerics import _tail_integrate, _tail_layout

__all__ = [
    "TestFunction",
    "stein_solution",
    "supnorm_suite",
    "suite_csv_rows",
    "theorem_check",
    "fixed_suite",
]

# Sup-norm bound multipliers on the Lipschitz constant c.
BOUND_G = 3.0
BOUND_DG = 4.0
BOUND_CHI = 6.0
BOUND_DCHI = 7.0


@dataclass(frozen=True)
class TestFunction:
    """Lipschitz test function with certified constant and its own p_1 mean.

    ``h`` and ``dh`` must accept numpy arrays; ``kinks`` lists the points
    where dh jumps so integration panels can be split there.  The mean
    int u^2 h(u) phi(u) du over the truncated line is the cumulative pass
    at t = 0 on both branches.
    """

    name: str
    h: Callable
    dh: Callable
    c: float
    kinks: tuple = ()
    mean_under_p1: float = field(init=False)

    def __post_init__(self):
        kinks = tuple(float(k) for k in self.kinks)
        zero = np.zeros(1)
        both = (_tail_integrate(_tail_layout(zero, kinks), self.h)
                + _tail_integrate(_tail_layout(zero, [-k for k in kinks]), lambda u: self.h(-u)))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "kinks", kinks)
        object.__setattr__(self, "mean_under_p1", float(both[0]) / math.sqrt(2.0 * math.pi))

    def htilde(self, x):
        return self.h(x) - self.mean_under_p1


def _layouts(xs: np.ndarray, kinks) -> tuple:
    """x > 0, the factors of x alone in ``_solution``, each branch's layout (lower mirrored)."""
    pos, s, D, ax = xs > 0.0, np.sign(xs), xs * xs + 2.0, np.abs(xs)
    factors = (s, D, D * D, s * xs * xs, 2.0 * xs, ax, 2.0 * xs * ax, 1.0 - 2.0 / D,
               1.0 / D - 2.0 / (D * D), 2.0 * xs * (2.0 - xs * xs) / D ** 3)
    return (pos, factors, _tail_layout(xs[pos], kinks),
            _tail_layout(-xs[~pos], [-k for k in kinks]))


def stein_solution(test: TestFunction, xs) -> dict:
    """g0, g = g0/(x^2+2), chi = g'/x and their derivatives on a grid.

    All six come from one g0 pass; every derivative follows from the branch
    identity g0' = x g0 - sign(x) x^2 (h - mean).
    """
    xs = np.asarray(xs, dtype=float)
    return _solution(test, xs, _layouts(xs, test.kinks))


def _solution(test: TestFunction, xs: np.ndarray, layouts) -> dict:
    """``stein_solution`` on float ``xs`` with their ``_layouts``: g0 from one
    cumulative pass per branch, the rest from g0 and h."""
    pos, (s, D, DD, sxx, tx, ax, txax, c1, A, dA), upper, lower = layouts
    g0 = np.empty_like(xs)
    g0[pos] = _tail_integrate(upper, test.htilde)
    g0[~pos] = _tail_integrate(lower, lambda u: test.htilde(-u))
    ht = np.asarray(test.htilde(xs), dtype=float)
    dh = np.asarray(test.dh(xs), dtype=float)
    dg0 = xs * g0 - sxx * ht
    g = g0 / D
    dg = dg0 / D - tx * g0 / DD
    # chi = g'/x in the 0/0-free arrangement, exact for every x
    chi = c1 * g0 / D - ax * ht / D
    dchi = dA * g0 + A * dg0 - s * ht / D - ax * dh / D + txax * ht / DD
    return {"g0": g0, "dg0": dg0, "g": g, "dg": dg, "chi": chi, "dchi": dchi}


# The sup-norm grid: -8 to 8 in steps of 1e-3.
_SUP_GRID = -8.0 + 1e-3 * np.arange(16001)


@lru_cache(maxsize=1)  # the fixed suite needs one entry; each holds 3.3 MiB
def _sup_layouts(kinks: tuple) -> tuple:
    """``_layouts`` of ``_SUP_GRID`` for kinks off it, read-only; the last one built is kept."""
    layouts = _layouts(_SUP_GRID, kinks)
    for arr in (layouts[0], *layouts[1], *layouts[2], *layouts[3]):
        arr.flags.writeable = False
    return layouts


_SUITE_FIELDS = (
    "h_name", "c", "sup_g", "sup_dg", "sup_chi", "sup_dchi",
    "bound_3c", "bound_4c", "bound_6c", "bound_7c", "pass",
)


def supnorm_suite(test: TestFunction) -> dict:
    """Grid suprema of |g|, |g'|, |chi|, |chi'| against the c-multiples."""
    off_grid = tuple(k for k in test.kinks if not np.any(_SUP_GRID == k))  # others add no knot
    vals = _solution(test, _SUP_GRID, _sup_layouts(off_grid))
    sups = [float(np.max(np.abs(vals[key]))) for key in ("g", "dg", "chi", "dchi")]
    bounds = [m * test.c for m in (BOUND_G, BOUND_DG, BOUND_CHI, BOUND_DCHI)]
    ok = all(s <= b for s, b in zip(sups, bounds))
    return dict(zip(_SUITE_FIELDS, (test.name, test.c, *sups, *bounds, ok)))


def suite_csv_rows(records: Sequence[dict]):
    """Header plus one tuple per supnorm record, in the published order."""
    return [_SUITE_FIELDS] + [tuple(rec[f] for f in _SUITE_FIELDS) for rec in records]


def theorem_check(cfg, report, dw: float) -> dict:
    """Assemble the coupling-bound inequality dw <= rhs_bound of a CouplingReport."""
    lhs, rhs = float(dw), float(report.rhs_bound)
    return {"n_worlds": cfg.n_worlds, "lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + 1e-12}


@cache  # the suite's functions and means are fixed, so built once per process
def fixed_suite():
    """The certified test-function suite: odd/even mix, kinked and smooth."""
    ident = TestFunction("identity", lambda x: np.asarray(x, dtype=float) + 0.0,
                         lambda x: np.ones_like(np.asarray(x, dtype=float)), c=1.0)
    sine = TestFunction("sine", np.sin, np.cos, c=1.0)
    clipped = TestFunction(
        "clipped_linear",
        lambda x: np.clip(x, -1.0, 1.0),
        lambda x: np.where(np.abs(np.asarray(x, dtype=float)) < 1.0, 1.0, 0.0),
        c=1.0,
        kinks=(-1.0, 1.0),
    )
    taper = TestFunction(
        "gauss_taper",
        lambda x: x * np.exp(-0.25 * np.square(x)),
        lambda x: (1.0 - 0.5 * np.square(x)) * np.exp(-0.25 * np.square(x)),
        c=1.0,
    )
    return (ident, sine, clipped, taper)
