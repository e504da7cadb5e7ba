"""Newton solver for the world-location recursions.

Every family runs the recursion B(x_{n+1}) = B(x_n) - 1 / S_n with
S_n = sum_{i<=n} x_i/b(x_i) and B' = b: the ground family has b = 1, the
Maxwell family b = x^2 (so x_{n+1}^3 = x_n^3 - 3/(1/x_1+...+1/x_n)) and
the general family its baseline's polynomial.  Scaling b leaves the
recursion unchanged.
The strictly decreasing zero-mean configuration is mirrored, so only its
positive half x_1 > ... > x_h, h = floor(N/2), is unknown.  It solves the
h equations up to the midpoint by Newton, starting from the target
quantiles, with a tridiagonal step; baselines with interior zeros fall
back to starts that fill each nodal cell by its target mass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import solve_banded

from .energy import potential_V
from .errors import InvalidStart, NonConvergence, ParityUnsupported, ResidualFailure
from .numerics import newton_bracketed
from .targets import (Baseline, _horner, _inverse_stein_poly, ground_baseline,
                      maxwell_square_baseline, normal_cdf, phi)

__all__ = [
    "GROUND",
    "MAXWELL",
    "GENERAL",
    "Configuration",
    "SolveStats",
    "shoot_sequence",
    "solve_configuration",
    "validate_properties",
    "recursion_residual",
    "configuration_to_json",
    "configuration_from_json",
]

GROUND = "ground"
MAXWELL = "maxwell"
GENERAL = "general"

_RESIDUAL_TOL = 1e-9
_ZERO_OF_B_TOL = 1e-8
_NEWTON_MAX_ITER = 100
_MIN_STEP = 2.0 ** -40
# max|G| within this many times B(x_1), its largest term, is rounding
_ROUNDING = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class SolveStats:
    """Newton counts of one solve, to explain a slow or failed one.

    ``residual_history`` is max|G| of the half-system at the start and after
    each accepted step; ``backtracks`` counts step halvings.  ``start`` is
    ``quantile``, ``nodal`` or ``nodal-shift``: the start that converged,
    or the last one tried.
    """

    iterations: int
    residual_history: tuple
    backtracks: int
    start: str
    starts_tried: int


@dataclass(frozen=True)
class Configuration:
    """Solved decreasing zero-mean world configuration."""

    family: str
    n_worlds: int
    points: tuple
    shoot_param: float
    residuals: dict
    stats: Optional[SolveStats] = field(default=None, compare=False)

    @property
    def variance_sum(self) -> float:
        return potential_V(self.points)


_BASELINES = {GROUND: ground_baseline, MAXWELL: maxwell_square_baseline}


def _baseline(family: str, baseline: Optional[Baseline]) -> Baseline:
    """The family's own baseline, or for the general family the given one: the one
    lookup that solve_configuration and validate_properties share."""
    if family != GENERAL:
        return _BASELINES[family]()
    if baseline is None:
        raise ValueError("general family requires a baseline")
    return baseline


def shoot_sequence(bl: Baseline, x1: float, max_len: int):
    """Iterate the recursion of baseline ``bl`` forward from x_1 = ``x1``.

    Returns the emitted prefix and the reason iteration stopped:
    ``completed``, ``nondecreasing``, ``singular_partial_sum``,
    ``nonfinite`` or ``baseline_zero``.
    """
    if not (x1 > 0):
        raise InvalidStart(f"shooting start must be positive, got {x1}")
    x = float(x1)
    xs, partial = [x], 0.0
    while len(xs) < max_len:
        if bl.near_zero_of_b(x, _ZERO_OF_B_TOL):
            return xs, "baseline_zero"
        partial += x / float(bl.b(x))
        if partial == 0.0 or not math.isfinite(partial):
            return xs, "singular_partial_sum"
        nxt = bl.Binv(float(bl.B(x)) - 1.0 / partial)
        if not -math.inf < nxt < x:
            return xs, "nondecreasing" if math.isfinite(nxt) else "nonfinite"
        xs.append(nxt)
        x = nxt
    return xs, "completed"


def _half_residual(x, bl: Baseline, tail):
    """G of the half-system at x, with b(x) and the partial sums S."""
    bx, Bx = bl.b(x), bl.B(x)
    S = np.cumsum(x / bx)
    return np.append(np.diff(Bx), -tail * Bx[-1]) + 1.0 / S, bx, S


def _newton(x, bl: Baseline, tail: float):
    """Newton on the half-system from x until max|G| stops falling.

    G_n = B(x_{n+1}) - B(x_n) + 1/S_n for n < h, and G_h = -tail B(x_h)
    + 1/S_h with tail 2 for even N (x_{h+1} = -x_h) and 1 for odd N
    (x_{h+1} = 0).  With y_n = sum_{i<=n} q'(x_i) d_i for q = x/b as
    auxiliary unknowns interleaved with the steps d_n, the Jacobian is
    tridiagonal.  A step is halved until the points stay strictly
    decreasing and positive with a finite G that, before convergence, has
    a smaller max|G|.  Converged means max|G| <= 1e-9, or at the rounding
    floor of G's terms where that is larger.  Returns the last point, the
    max|G| history, the number of halvings and whether it converged.
    """
    ab = np.zeros((3, 2 * x.size))
    ab[0, 1::2] = 1.0
    ab[2, 1:-1:2] = -1.0
    rhs = np.zeros(2 * x.size)
    with np.errstate(all="ignore"):
        G, bx, S = _half_residual(x, bl, tail)
    history, backtracks = [float(np.max(np.abs(G)))], 0

    def converged():
        return history[-1] <= max(_RESIDUAL_TOL, _ROUNDING * float(bl.B(x[0])))

    while math.isfinite(history[-1]) and len(history) <= _NEWTON_MAX_ITER:
        ab[1, 0::2] = (x * bl.db(x) - bx) / (bx * bx)
        ab[1, 1::2] = -1.0 / (S * S)
        ab[0, 2::2] = bx[1:]
        ab[2, 0::2] = -bx
        ab[2, -2] *= tail
        rhs[1::2] = -G
        try:
            step = solve_banded((1, 1), ab, rhs)[0::2]
        except (np.linalg.LinAlgError, ValueError):
            break
        # A converged iterate is not damped, and steps on only while that
        # halves max|G|: below that, its steps chase rounding.
        done = converged()
        t = 1.0
        while t >= _MIN_STEP:
            new = x + t * step
            if new[-1] > 0.0 and np.all(new[1:] < new[:-1]):
                with np.errstate(all="ignore"):
                    trial = _half_residual(new, bl, tail)
                worst = float(np.max(np.abs(trial[0])))
                if worst < history[-1] or done:
                    break
            t *= 0.5
            backtracks += 1
        if not (t >= _MIN_STEP and worst < history[-1] * (0.5 if done else 1.0)):
            break
        x, (G, bx, S) = new, trial
        history.append(worst)
    return x, history, backtracks, converged()


def _target_cdf(bl: Baseline):
    """CDF and density of the target b phi / m, m = E b(Z), exactly.

    b = m + Q' - xQ for the odd polynomial Q with Q' - xQ = b - m, so
    that (Q phi)' = (b - m) phi and F = Phi + Q phi / m.
    """
    c = bl.b_poly.coef
    Q = _inverse_stein_poly(c)
    m = c[0] - Q[1]
    Q = _horner(Q[: max(c.size - 1, 1)])
    return (lambda t: normal_cdf(t) + Q(t) * phi(t) / m,
            lambda t: bl.b(t) * phi(t) / m)


def _starts(bl: Baseline, n_worlds: int):
    """Yield (name, x_1 > ... > x_h) starts for Newton.

    First the target quantiles at (n - 1/2)/N.  For baselines with zeros
    z_1 < ... < z_m on the positive axis, then the nodal start: each nodal
    cell of b holds round(N P(cell)) worlds, the central one the rest, at
    the cell's conditional quantiles; then every start that moves one
    mirrored pair of its worlds to a neighbouring cell.  Points are placed
    on the negative axis, where F has no cancellation, and negated.
    """
    F, dF = _target_cdf(bl)
    h = n_worlds // 2
    u = (np.arange(1, h + 1) - 0.5) / n_worlds
    L = 2.0
    while F(-L) > u[0]:
        L *= 2.0
    yield "quantile", -newton_bracketed(F, dF, u, -L, 0.0)

    zeros = sorted(z for z in bl.zeros_of_b if z > 1e-12)
    if not zeros:
        return
    edges = np.array([-L] + [-z for z in reversed(zeros)] + [0.0])
    Fe = np.append(F(edges[:-1]), 0.5)
    mass = np.diff(Fe)
    base = np.rint(n_worlds * mass).astype(int)
    base[-1] = h - base[:-1].sum()
    move = np.eye(base.size, dtype=int)
    occupancies = [("nodal", base)] + [
        ("nodal-shift", base - move[j] + move[j + d])
        for j in range(base.size) for d in (-1, 1) if 0 <= j + d < base.size
    ]
    for name, counts in occupancies:
        if np.any(counts < 0):
            continue
        # for odd N the world at 0 takes half a slot on each side of the central cell
        slots = counts + np.append(np.zeros(counts.size - 1), 0.5 * (n_worlds % 2))
        cell = np.repeat(np.arange(counts.size), counts)
        rank = np.arange(h) - np.repeat(np.cumsum(counts) - counts, counts)
        target = Fe[cell] + (rank + 0.5) / slots[cell] * mass[cell]
        yield name, -newton_bracketed(F, dF, target, edges[cell], edges[cell + 1])


def recursion_residual(bl: Baseline, points: Sequence[float]) -> float:
    """Max defect |B(x_{n+1}) - B(x_n) + 1/S_n| of the recursion over the sequence."""
    x = np.asarray(points, dtype=float)
    if x.size < 2:
        return 0.0
    with np.errstate(all="ignore"):
        S = np.cumsum(x[:-1] / bl.b(x[:-1]))
        worst = float(np.max(np.abs(np.diff(bl.B(x)) + 1.0 / S)))
    return worst if math.isfinite(worst) else math.inf


def _is_positive_mirror(x: np.ndarray) -> bool:
    """x_{N+1-i} = -x_i exactly, with a positive finite first half."""
    half = x[: x.size // 2]
    return bool(half.size and np.all((half > 0.0) & (half < math.inf))
                and np.array_equal(x[::-1][: half.size], -half))


def _symmetry_defect(x: np.ndarray) -> float:
    return float(np.max(np.abs(x + x[::-1])))


def _variance_defect(family: str, points, n_worlds: int) -> Optional[float]:
    """|sum x^2 - 3(N-1)|: Maxwell configurations have variance 3(N-1)/N."""
    return abs(potential_V(points) - 3.0 * (n_worlds - 1)) if family == MAXWELL else None


def solve_configuration(
    family: str,
    n_worlds: int,
    baseline: Optional[Baseline] = None,
    residual_tol: float = _RESIDUAL_TOL,
) -> Configuration:
    """Solve for the strictly decreasing zero-mean configuration.

    Raises :class:`NonConvergence` when Newton converges from no start and
    :class:`ResidualFailure` when the mirrored configuration misses the
    recursion by more than ``residual_tol``; either carries the
    :class:`SolveStats` as ``exc.stats``.
    """
    if n_worlds < 2:
        raise ValueError("need at least two worlds")
    bl = _baseline(family, baseline)
    if bl.near_zero_of_b(0.0, 1e-12) and n_worlds % 2 == 1:
        raise ParityUnsupported(
            f"family {family!r} needs an even world count, got {n_worlds}"
        )

    def failure(exc):
        exc.stats = stats
        return exc

    tail = 2.0 if n_worlds % 2 == 0 else 1.0
    for tried, (start, x0) in enumerate(_starts(bl, n_worlds), start=1):
        first, history, backtracks, converged = _newton(x0, bl, tail)
        stats = SolveStats(len(history) - 1, tuple(history), backtracks, start, tried)
        if converged:
            break
    else:
        raise failure(NonConvergence(
            f"Newton converged from none of {tried} starts ({family}, N={n_worlds})"
        ))

    gap = np.abs(first[:, None] - np.array(bl.zeros_of_b))
    on_zero = np.any(gap < _ZERO_OF_B_TOL, axis=1)
    if on_zero.any():
        raise failure(ResidualFailure(
            f"world location {first[on_zero.argmax()]:g} lands on a zero of the baseline"
        ))
    x = np.concatenate((first, [0.0] * (n_worlds % 2), -first[::-1]))
    points = x.tolist()

    residual = recursion_residual(bl, x)
    if residual > residual_tol:
        raise failure(ResidualFailure(
            f"recursion defect {residual:.3e} exceeds {residual_tol:g} "
            f"({family}, N={n_worlds})"
        ))
    residuals = {
        "max_recursion_residual": residual,
        "mean_abs": abs(sum(points)) / n_worlds,
        "symmetry_defect": _symmetry_defect(x),
    }
    variance = _variance_defect(family, points, n_worlds)
    if variance is not None:
        residuals["variance_defect"] = variance
    return Configuration(
        family=family,
        n_worlds=n_worlds,
        points=tuple(points),
        shoot_param=points[0],
        residuals=residuals,
        stats=stats,
    )


def validate_properties(cfg: Configuration, baseline: Optional[Baseline] = None) -> dict:
    """Report the four structural defects plus growth diagnostics.

    ``baseline`` is needed, and read, for the general family only.
    """
    pts, n = cfg.points, cfg.n_worlds
    x = np.asarray(pts, dtype=float)
    return {
        "p1_zero_mean_defect": abs(sum(pts)),
        "p2_variance_defect": _variance_defect(cfg.family, pts, n),
        "p3_symmetry_defect": _symmetry_defect(x),
        "p4_decreasing_violation": bool(np.any(np.diff(x) > 0.0)),
        "recursion_residual": recursion_residual(_baseline(cfg.family, baseline), x),
        "x1_over_sqrt_log_n": pts[0] / math.sqrt(math.log(n)) if n >= 8 else None,
    }


def configuration_to_json(cfg: Configuration) -> str:
    """The configuration as ``json.dumps`` writes it.

    A positive mirror of floats, with 0.0 at the centre for odd N, formats
    its first half once: repr(-x) is "-" + repr(x) for x > 0.
    """
    pts, h = cfg.points, len(cfg.points) // 2
    head = {"family": cfg.family, "N": cfg.n_worlds}
    tail = {"shoot_param": cfg.shoot_param, "residuals": cfg.residuals}
    centre = list(map(repr, pts[h : len(pts) - h]))
    if ({*map(type, pts)} != {float} or centre not in ([], ["0.0"])
            or not _is_positive_mirror(np.array(pts))):
        return json.dumps({**head, "points": list(pts), **tail})
    half = list(map(repr, pts[:h]))
    points = ", ".join(half + centre) + ", -" + ", -".join(reversed(half))
    return json.dumps(head)[:-1] + f', "points": [{points}], ' + json.dumps(tail)[1:]


def configuration_from_json(text: str) -> Configuration:
    raw = json.loads(text)
    return Configuration(
        family=raw["family"],
        n_worlds=raw["N"],
        points=tuple(raw["points"]),
        shoot_param=raw["shoot_param"],
        residuals=raw["residuals"],
    )
