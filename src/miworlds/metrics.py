"""Wasserstein and Kolmogorov distances plus the convergence-rate sweep.

In one dimension d_W is the area between CDFs, which also equals the
comonotone coupling cost E|W - W*|; both routes are kept and
cross-validated in the tests; against an eigenstate target the area is
taken in closed form.  The sweep solves the Maxwell recursion over a
doubling ladder of world counts and records every distance and coupling
term alongside the sqrt(log N / N) envelope ratio.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import MiwError, MiwValidation
from .numerics import QUAD_ABS_TOL, QUAD_REL_TOL, integrate_adaptive, newton_bracketed
from .solver import MAXWELL, _world_count, solve_configuration
from .targets import cdf_pk, cdf_pk_integral, pdf_pk
from .zerobias import _check_decreasing, coupling_expectations, gzb_density

__all__ = [
    "wasserstein1",
    "kolmogorov",
    "dk_dw_relation_check",
    "MAXWELL_MODE_SUP",
    "RateRow",
    "measure_configuration",
    "rate_sweep",
]

# sup of the two-sided Maxwell density x^2 phi(x), attained at |x| = sqrt(2)
MAXWELL_MODE_SUP = 2.0 * math.exp(-1.0) / math.sqrt(2.0 * math.pi)


def wasserstein1(
    F: Callable[[float], float],
    G: Callable[[float], float],
    support,
    jumps: Sequence[float] = (),
) -> float:
    """d_W = int_a^b |F - G| with quadrature panels split at F's jumps."""
    a, b = float(support[0]), float(support[1])
    cuts = sorted({a, b} | {float(j) for j in jumps if a < float(j) < b})
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        total += integrate_adaptive(lambda x: abs(F(x) - G(x)), lo, hi)
    return total


def kolmogorov(points: Sequence[float], G: Callable) -> float:
    """sup |F_emp - G| for the uniform law F_emp on strictly decreasing
    ``points``, attained at the atoms against a continuous G.

    ``G`` is called once, on the array of atoms in ascending order.
    """
    x = _check_decreasing(points)
    n = x.size
    g = np.asarray(G(x[::-1]), dtype=float)
    below = np.arange(n) / n
    return float(max(np.max(np.abs(below + 1.0 / n - g)), np.max(np.abs(below - g))))


def _dw_exact(points: Sequence[float], k: int) -> float:
    """Exact d_W between the uniform law on ``points`` and p_k: the area below 0, and above
    0 that of the negated atoms, as F_k(-x) = 1 - F_k(x); an exact mirror doubles the first."""
    x = np.asarray(points, dtype=float)
    below = _dw_below_zero(x, k)
    return 2.0 * below if np.array_equal(x, -x[::-1]) else below + _dw_below_zero(-x[::-1], k)


def _dw_below_zero(x: np.ndarray, k: int) -> float:
    """int_{-inf}^0 |F_emp - F_k| for the uniform law on the decreasing atoms ``x``: on
    the gap above the j-th smallest atom, up to 0 above the last one below 0, F_emp is
    j/N and F_k crosses that level once, at c.  The area is split at c and each side
    taken from the antiderivative A_k, small below 0.  The pieces telescope to
    A_k(0) - A_k(x_N), which one adaptive quadrature of F_k checks.
    """
    ends = np.append(x[x < 0.0][::-1], 0.0)
    lo, hi = ends[:-1], ends[1:]
    level = np.arange(1, ends.size) / x.size
    # F_k < 1/2 below 0, so level 1/2 crosses at its gap's top, where p_1(0) = 0 is flat
    c = newton_bracketed(lambda t: (cdf_pk(k, t), pdf_pk(k, t)), level,
                         np.where(level == 0.5, hi, lo), hi)
    Aa, Ac = np.split(cdf_pk_integral(k, np.concatenate((ends, c))), [ends.size])
    gaps = (level * (c - lo) - (Ac - Aa[:-1])) + ((Aa[1:] - Ac) - level * (hi - c))
    exact = float(Aa[-1] - Aa[0])
    quad = integrate_adaptive(lambda t: cdf_pk(k, t), float(ends[0]), 0.0)
    if abs(quad - exact) > 10.0 * max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(exact)):
        raise MiwError(f"int F_{k} over [{ends[0]}, 0.0]: quadrature {quad!r}, "
                       f"closed form {exact!r}")
    return float(Aa[0] + np.sum(gaps))


def dk_dw_relation_check(dk: float, dw: float, C: float = MAXWELL_MODE_SUP) -> bool:
    """d_K <= sqrt(2 C d_W) for targets with density bounded by C."""
    return dk <= math.sqrt(2.0 * C * dw) + 1e-12


@dataclass(frozen=True)
class RateRow:
    """One sweep entry: distances, coupling terms and the envelope ratio."""

    N: int
    dw: float
    dk: float
    x1: float
    e_abs: float
    e_wabs: float
    e_inv: float
    e_ratio: float
    rhs_bound: float
    ratio_dw: float


def measure_configuration(cfg) -> RateRow:
    """Distances and coupling terms for one solved Maxwell configuration."""
    if cfg.family != MAXWELL:  # the distances are to the Maxwell law p_1
        raise MiwValidation(f"rates measure a maxwell configuration, not a {cfg.family} one")
    report = coupling_expectations(gzb_density(cfg.baseline, cfg.points))
    dw = _dw_exact(cfg.points, 1)
    dk = kolmogorov(cfg.points, lambda x: cdf_pk(1, x))
    n = cfg.n_worlds  # at least 2: the solver and gzb_density reject fewer atoms
    envelope = math.sqrt(math.log(n) / n)
    return RateRow(N=n, dw=dw, dk=dk, x1=cfg.shoot_param, **asdict(report),
                   ratio_dw=dw / envelope)


def rate_sweep(n_list: Sequence[int]):
    """Solve each Maxwell N, measure it, and fit log(dw) against log(N).

    Returns (rows, fit) where fit is None for fewer than two rows and
    otherwise a dict with slope (log dw against log N), ratio_slope
    (log of dw over the sqrt(log N / N) envelope against log N),
    intercept and max_ratio.  The envelope is an upper bound only; the
    solved configurations are quantile-like and dw itself decays faster
    than the envelope, so the two slopes differ materially.
    """
    n_list = [_world_count(n) for n in n_list]  # the solver's rule, before any comparison
    if n_list != sorted(set(n_list)):
        raise MiwValidation("N list must be strictly ascending")
    rows = [measure_configuration(solve_configuration(MAXWELL, n)) for n in n_list]
    fit: Optional[dict] = None
    if len(rows) >= 2:
        logs_n = np.log([r.N for r in rows])
        logs_d = np.log([r.dw for r in rows])
        slope, intercept = np.polyfit(logs_n, logs_d, 1)
        ratios = [r.ratio_dw for r in rows]
        fit = {
            "slope": float(slope),
            "ratio_slope": float(np.polyfit(logs_n, np.log(ratios), 1)[0]),
            "intercept": float(intercept),
            "max_ratio": max(ratios),
        }
    return rows, fit
