"""Shooting solver for the world-location recursions.

Three families are supported: the ground recursion
x_{n+1} = x_n - 1/(x_1+...+x_n), the Maxwell recursion
x_{n+1}^3 = x_n^3 - 3/(1/x_1+...+1/x_n), and the general-baseline
recursion B(x_{n+1}) = B(x_n) - 1/sum(x_i/b(x_i)).  The unique strictly
decreasing zero-mean configuration is found by refining x_1 until the
midpoint symmetry condition holds, then mirroring the first half.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BracketFailure,
    InvalidStart,
    ParityUnsupported,
    ResidualFailure,
)
from .targets import Baseline

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
_INF = math.inf
_EPS = sys.float_info.epsilon
_NEWTON_MAX_ITER = 200


@dataclass(frozen=True)
class SolveStats:
    """Deterministic counts of one solve, to explain a slow one.

    ``stop_reasons`` counts the stop reason of every shot, the final one
    included; ``bracket_width`` is the width of the last x_1 bracket (0
    when a shot hit the matching condition exactly).
    """

    shots: int
    scan_rounds: int
    refine_method: str
    refine_iterations: int
    stop_reasons: dict
    bracket_width: float


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
        return float(sum(x * x for x in self.points))


# Shooting kernels.  Each returns shoot(x1, max_len) -> (xs, reason) and
# runs the recursion of one family in a plain float loop.  They stop on the
# same conditions, checked in the same order: a zero of b, a zero or
# nonfinite partial sum, then a nonfinite or nondecreasing next point.


def _stop_reason(nxt: float) -> str:
    return "nondecreasing" if math.isfinite(nxt) else "nonfinite"


def _ground_kernel():
    def shoot(x, max_len):
        xs = [x]
        append = xs.append
        partial, inf = 0.0, _INF
        for _ in range(1, max_len):
            partial += x
            if partial == 0.0 or not -inf < partial < inf:
                return xs, "singular_partial_sum"
            nxt = x - 1.0 / partial
            if not -inf < nxt < x:
                return xs, _stop_reason(nxt)
            append(nxt)
            x = nxt
        return xs, "completed"

    return shoot


def _maxwell_kernel(cube_factor: float):
    # np.cbrt, not the cheaper math.cbrt: they differ by up to 3 ulp on
    # about half of all inputs, and numpy's is nearly always the nearer.
    cbrt = np.cbrt

    def shoot(x, max_len):
        xs = [x]
        append = xs.append
        partial, inf = 0.0, _INF
        for _ in range(1, max_len):
            if x == 0.0:
                return xs, "singular_partial_sum"
            partial += 1.0 / x
            if partial == 0.0 or not -inf < partial < inf:
                return xs, "singular_partial_sum"
            y = x ** 3 - cube_factor / partial
            nxt = float(cbrt(y)) if y else 0.0
            if not -inf < nxt < x:
                return xs, _stop_reason(nxt)
            append(nxt)
            x = nxt
        return xs, "completed"

    return shoot


def _horner(coef_high_first):
    """Scalar Horner evaluation, bit-for-bit numpy's polyval order."""
    lead, rest = coef_high_first[0], coef_high_first[1:]

    def value(t):
        v = lead
        for c in rest:
            v = v * t + c
        return v

    return value


def _newton_inverse(B_poly):
    """inverse(y, x, Bx, bx, w) -> t with B(t) = y, for B(x) = Bx, B'(x) = bx.

    Returns x when y >= Bx.  Otherwise the bracket [x - w, x] widens by
    doubling w (first the Newton step from x when w is None) until
    B(x - w) <= y.  Inside it, Newton steps on B - y from the end nearer the
    root; a step that leaves the bracket, or is longer than half the step
    before last, becomes a bisection.  With s the larger of |x| and
    |x - w|, a step shorter than 2 eps s is lengthened to it, so that a
    converged iterate also closes the far side of the bracket.  The
    iteration stops at a bracket width of 4 eps s and returns the end with
    the smaller |B - y|.
    """
    coef = B_poly.coef[::-1].tolist()
    lead, rest = coef[0], coef[1:]

    def B_and_slope(t):
        v, d = lead, 0.0
        for c in rest:
            d = d * t + v
            v = v * t + c
        return v, d

    def inverse(y, x, Bx, bx, w):
        if not y < Bx:
            return x
        hi, Bhi, dhi = x, Bx, bx
        if w is None:
            w = (Bx - y) / bx
        lo = x - w
        Blo, dlo = B_and_slope(lo)
        while Blo > y:
            hi, Bhi, dhi = lo, Blo, dlo
            w *= 2.0
            if w > 1e154:
                return math.nan
            lo = x - w
            Blo, dlo = B_and_slope(lo)
        if not Blo < y:
            return lo
        if Bhi - y < y - Blo:
            t, Bt, slope = hi, Bhi, dhi
        else:
            t, Bt, slope = lo, Blo, dlo
        f = Bt - y
        step = hi - lo
        half_tol = 2.0 * _EPS * max(abs(x), abs(lo))
        for _ in range(_NEWTON_MAX_ITER):
            if not hi - lo > 2.0 * half_tol:
                break
            before, step = step, (f / slope if slope > 0.0 else _INF)
            if abs(step) < half_tol:
                step = math.copysign(half_tol, f)
            nt = t - step
            if not lo < nt < hi or abs(step) > 0.5 * abs(before):
                step = 0.5 * (hi - lo)
                nt = lo + step
                if not lo < nt < hi:
                    break
            Bt, slope = B_and_slope(nt)
            t, f = nt, Bt - y
            if f > 0.0:
                hi, Bhi = t, Bt
            elif f < 0.0:
                lo, Blo = t, Bt
            else:
                return t
        return hi if Bhi - y < y - Blo else lo

    return inverse


def _general_kernel(baseline: Baseline):
    """B(x_{n+1}) = B(x_n) - 1/sum x_i/b(x_i), with B inverted in closed form
    where the baseline has one, and by Newton on its exact polynomial B
    otherwise (hermite-sq)."""
    if baseline.eval_Binv_array is None and baseline.b_poly is not None:
        b = _horner(baseline.b_poly.coef[::-1].tolist())
        B_poly = baseline.b_poly.integ()
        B = _horner(B_poly.coef[::-1].tolist())
        inverse = _newton_inverse(B_poly)
    else:
        b, B, Binv = baseline.eval_b, baseline.eval_B, baseline.Binv

        def inverse(y, x, Bx, bx, w):
            return Binv(y)

    zeros, tol = baseline.zeros_of_b, _ZERO_OF_B_TOL

    def shoot(x, max_len):
        xs = [x]
        append = xs.append
        partial, inf = 0.0, _INF
        w = None
        for _ in range(1, max_len):
            for z in zeros:
                if -tol < x - z < tol:
                    return xs, "baseline_zero"
            bx = float(b(x))
            partial += x / bx
            if partial == 0.0 or not -inf < partial < inf:
                return xs, "singular_partial_sum"
            Bx = B(x)
            # the previous step length is the first guess of this one
            nxt = float(inverse(Bx - 1.0 / partial, x, Bx, bx, w))
            if not -inf < nxt < x:
                return xs, _stop_reason(nxt)
            append(nxt)
            w = x - nxt
            x = nxt
        return xs, "completed"

    return shoot


def _kernel(family: str, baseline: Optional[Baseline], cube_factor: float):
    if family == GROUND:
        return _ground_kernel()
    if family == MAXWELL:
        return _maxwell_kernel(cube_factor)
    if baseline is None:
        raise ValueError("general family requires a baseline")
    return _general_kernel(baseline)


def shoot_sequence(
    family: str,
    baseline: Optional[Baseline],
    x1: float,
    max_len: int,
    cube_factor: float = 3.0,
):
    """Iterate the family recursion from x_1 = ``x1``.

    Returns the emitted prefix and the reason iteration stopped:
    ``completed``, ``nondecreasing``, ``singular_partial_sum``,
    ``nonfinite`` or ``baseline_zero``.
    """
    if not (x1 > 0):
        raise InvalidStart(f"shooting start must be positive, got {x1}")
    return _kernel(family, baseline, cube_factor)(float(x1), max_len)


def _matching_defect(family, baseline, x1, n_worlds, cube_factor, reasons=None):
    """Midpoint symmetry defect; -inf when the shot collapses early.

    ``reasons``, a Counter, tallies the shot's stop reason.
    """
    half = n_worlds // 2
    length = half + 1
    xs, reason = shoot_sequence(family, baseline, x1, length, cube_factor)
    if reasons is not None:
        reasons[reason] += 1
    if len(xs) < length:
        return -math.inf
    if n_worlds % 2 == 0:
        return xs[half] + xs[half - 1]
    return xs[half]


def _requires_even(family: str, baseline: Optional[Baseline]) -> bool:
    if family == MAXWELL:
        return True
    if family == GENERAL and baseline is not None:
        return baseline.near_zero_of_b(0.0, 1e-12)
    return False


def _refine(defect, a, fa, b, fb, illinois):
    """Shrink a sign-changing bracket of ``defect`` down to adjacent floats.

    Bisection, or with ``illinois`` the Illinois regula falsi: an end that
    stays put twice in a row has its defect halved.  Illinois still bisects
    while an end's defect is infinite (a collapsed shot), and after 64
    steps, which bounds the count where the defect is noisy.
    """
    steps = side = 0
    while steps < 200:
        c = 0.5 * (a + b)
        if illinois and steps < 64 and not (math.isinf(fa) or math.isinf(fb)):
            secant = b - fb * ((b - a) / (fb - fa))
            if a < secant < b:
                c = secant
        if not a < c < b:
            break
        fc = defect(c)
        steps += 1
        if fc == 0.0:
            return c, c, steps
        if (fc < 0) == (fa < 0):
            a, fa = c, fc
            if side == -1:
                fb *= 0.5
            side = -1
        else:
            b, fb = c, fc
            if side == 1:
                fa *= 0.5
            side = 1
    return a, b, steps


def recursion_residual(
    family: str,
    points: Sequence[float],
    baseline: Optional[Baseline] = None,
    cube_factor: float = 3.0,
) -> float:
    """Max defect of the defining recursion over the full sequence."""
    x = np.asarray(points, dtype=float)
    if x.size < 2:
        return 0.0
    head = x[:-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if family == GROUND:
            partial = np.cumsum(head)
            jump = x[1:] - head
        elif family == MAXWELL:
            partial = np.cumsum(1.0 / head)
            # Python's pow: numpy's vector power differs from it in the last
            # bit on about 3% of inputs, and is then the less accurate one.
            cubes = np.fromiter((v ** 3 for v in map(float, points)), float, x.size)
            jump = cubes[1:] - cubes[:-1]
        else:
            partial = np.cumsum(head / np.asarray(baseline.b(head), dtype=float))
            Bx = np.asarray(baseline.B(x), dtype=float)
            jump = Bx[1:] - Bx[:-1]
        if np.any(partial == 0.0):
            return math.inf
        drop = (cube_factor if family == MAXWELL else 1.0) / partial
        worst = float(np.max(np.abs(jump + drop)))
    return worst if math.isfinite(worst) else math.inf


def solve_configuration(
    family: str,
    n_worlds: int,
    baseline: Optional[Baseline] = None,
    cube_factor: float = 3.0,
    residual_tol: float = _RESIDUAL_TOL,
) -> Configuration:
    """Solve for the unique strictly decreasing zero-mean configuration."""
    if n_worlds < 2:
        raise ValueError("need at least two worlds")
    if _requires_even(family, baseline) and n_worlds % 2 == 1:
        raise ParityUnsupported(
            f"family {family!r} needs an even world count, got {n_worlds}"
        )
    reasons = Counter()
    rounds, method, steps, a, b = 0, "none", 0, 0.0, math.inf

    def defect(x1):
        return _matching_defect(family, baseline, x1, n_worlds, cube_factor, reasons)

    def stats():
        return SolveStats(
            shots=sum(reasons.values()),
            scan_rounds=rounds,
            refine_method=method,
            refine_iterations=steps,
            stop_reasons=dict(sorted(reasons.items())),
            bracket_width=b - a,
        )

    def failure(exc):
        # a failed solve keeps its counts; no bracket reads as infinite width
        exc.stats = stats()
        return exc

    scale = math.sqrt(math.log(n_worlds) + 1.0)
    lo, hi = 0.5 * scale, 2.0 * scale

    # Rightmost crossing: baselines with interior zeros admit spurious
    # squeezed solutions at smaller x1; the spread solution is the one whose
    # empirical law tracks the target density.  Probes are shot from the
    # right, so none left of that crossing is shot.
    bracket = None
    for rounds in range(1, 12):
        probes = np.geomspace(lo, hi, 33).tolist()
        fb = defect(probes[-1])
        for i in range(len(probes) - 2, -1, -1):
            if fb == 0.0:
                bracket = (probes[i + 1], fb, probes[i + 1], fb)
                break
            fa = defect(probes[i])
            if fa == 0.0:
                bracket = (probes[i], fa, probes[i], fa)
                break
            if (fa < 0) != (fb < 0):
                bracket = (probes[i], fa, probes[i + 1], fb)
                break
            fb = fa
        if bracket is not None:
            break
        lo /= 2.0
        hi *= 2.0
        if hi > 10.0 * scale * 2 ** 10:
            break
    if bracket is None:
        raise failure(BracketFailure(
            f"no sign change for x1 in (0, {hi:g}] ({family}, N={n_worlds})"
        ))

    a, fa, b, fb = bracket
    if a == b:
        x1 = a
    else:
        # Illinois needs a bracket with a single sign change.  Baselines
        # with zeros away from 0 put many in the scan bracket, where it
        # converges to a different valid configuration than bisection.
        single_root = family != GENERAL or all(z == 0.0 for z in baseline.zeros_of_b)
        method = "illinois" if single_root else "bisection"
        a, b, steps = _refine(defect, a, fa, b, fb, single_root)
        x1 = 0.5 * (a + b)

    half = n_worlds // 2
    xs, reason = shoot_sequence(family, baseline, x1, half + 1, cube_factor)
    reasons[reason] += 1
    if len(xs) < half + 1:
        raise failure(ResidualFailure(
            f"solved shot collapsed after {len(xs)} points ({reason})"
        ))
    first = xs[:half]
    if first[-1] <= 0.0:
        raise failure(ResidualFailure("positive half of the configuration crossed zero"))
    mirrored = [-v for v in reversed(first)]
    points = first + mirrored if n_worlds % 2 == 0 else first + [0.0] + mirrored

    if family == GENERAL:
        for x in points:
            if baseline.near_zero_of_b(x, _ZERO_OF_B_TOL):
                raise failure(ResidualFailure(
                    f"world location {x:g} lands on a zero of the baseline"
                ))

    residual = recursion_residual(family, points, baseline, cube_factor)
    if residual > residual_tol:
        raise failure(ResidualFailure(
            f"recursion defect {residual:.3e} exceeds {residual_tol:g} "
            f"({family}, N={n_worlds})"
        ))
    mean_abs = abs(sum(points)) / n_worlds
    symmetry = max(
        abs(points[n] + points[n_worlds - 1 - n]) for n in range(n_worlds)
    )
    residuals = {
        "max_recursion_residual": residual,
        "mean_abs": mean_abs,
        "symmetry_defect": symmetry,
    }
    if family == MAXWELL:
        residuals["variance_defect"] = abs(
            sum(x * x for x in points) - cube_factor * (n_worlds - 1)
        )
    return Configuration(
        family=family,
        n_worlds=n_worlds,
        points=tuple(points),
        shoot_param=x1,
        residuals=residuals,
        stats=stats(),
    )


def validate_properties(
    cfg: Configuration,
    baseline: Optional[Baseline] = None,
    cube_factor: float = 3.0,
) -> dict:
    """Report the four structural defects plus growth diagnostics."""
    pts = cfg.points
    n = cfg.n_worlds
    report = {
        "p1_zero_mean_defect": abs(sum(pts)),
        "p2_variance_defect": (
            abs(sum(x * x for x in pts) - 3.0 * (n - 1))
            if cfg.family == MAXWELL
            else None
        ),
        "p3_symmetry_defect": max(abs(pts[i] + pts[n - 1 - i]) for i in range(n)),
        "p4_decreasing_violation": max(
            (pts[i + 1] - pts[i] for i in range(n - 1)), default=-math.inf
        )
        > 0,
        "recursion_residual": recursion_residual(
            cfg.family, pts, baseline, cube_factor
        ),
        "x1_over_sqrt_log_n": (
            pts[0] / math.sqrt(math.log(n)) if n >= 8 else None
        ),
    }
    return report


def configuration_to_json(cfg: Configuration) -> str:
    payload = {
        "family": cfg.family,
        "N": cfg.n_worlds,
        "points": list(cfg.points),
        "shoot_param": cfg.shoot_param,
        "residuals": cfg.residuals,
    }
    return json.dumps(payload)


def configuration_from_json(text: str) -> Configuration:
    raw = json.loads(text)
    return Configuration(
        family=raw["family"],
        n_worlds=raw["N"],
        points=tuple(raw["points"]),
        shoot_param=raw["shoot_param"],
        residuals=raw["residuals"],
    )
