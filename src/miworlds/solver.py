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
import sys
from dataclasses import dataclass
from functools import cache, partial
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import get_lapack_funcs

from .energy import potential_V
from .errors import MiwError, MiwValidation, NonConvergence, ResidualFailure
from .numerics import newton_bracketed
from .targets import Baseline, _is_integer, ground_baseline, maxwell_square_baseline

__all__ = [
    "GROUND",
    "MAXWELL",
    "GENERAL",
    "Configuration",
    "shoot_sequence",
    "solve_configuration",
    "validate_properties",
    "recursion_residual",
    "configuration_json_pieces",
    "configuration_to_json",
    "configuration_from_json",
]

GROUND = "ground"
MAXWELL = "maxwell"
GENERAL = "general"

_RESIDUAL_TOL = 1e-9
_NEWTON_MAX_ITER = 100
_MIN_STEP = 2.0 ** -40
# points of the CDF table a degree <= 2 start reads: Newton then steps as from exact quantiles
_START_GRID = 4097
# points per piece of a mirrored configuration's JSON
_JSON_BLOCK = 4096
# 10^s, exact for s <= 22, and its high half by Veltkamp's split with 2^27 + 1
_SPLIT, _P10 = 134217729.0, 10.0 ** np.arange(23)
_P10_HI = _P10 * _SPLIT - (_P10 * _SPLIT - _P10)
# the doubles nearest 1e-4, ..., 1e16; those below 1 lie above the powers they round
_DECADES = np.concatenate((1.0 / _P10[4:0:-1], _P10[:17]))
# LAPACK's tridiagonal solver, as solve_banded((1, 1), ...) calls it, unchecked and in place
_GTSV = partial(get_lapack_funcs("gtsv", dtype=np.float64),
                overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1)


@dataclass(frozen=True, eq=False)
class Configuration:
    """Solved decreasing zero-mean world configuration, compared by identity; ``points``
    is kept as a read-only float64 copy, so a caller's array is never frozen."""

    family: str
    points: np.ndarray
    residuals: dict
    baseline: Optional[Baseline] = None  # not in JSON: a general one read back has none

    def __post_init__(self):
        if self.family != GENERAL or self.baseline is not None:
            object.__setattr__(self, "baseline", _baseline(self.family, self.baseline))
        x = np.array(self.points, dtype=float)
        if not x.size:
            raise MiwValidation("a configuration needs at least one point")
        x.flags.writeable = False
        object.__setattr__(self, "points", x)

    @property
    def n_worlds(self) -> int:
        return self.points.size

    @property
    def shoot_param(self) -> float:
        return float(self.points[0])


# the families and their own baselines: the general family has none
_BASELINES = {GROUND: ground_baseline, MAXWELL: maxwell_square_baseline, GENERAL: None}


def _world_count(n_worlds) -> int:
    if not _is_integer(n_worlds):
        raise MiwValidation(f"the world count must be an integer, got {n_worlds!r}")
    if n_worlds < 2:
        raise MiwValidation(f"need at least two worlds, got {n_worlds}")
    return n_worlds


def _baseline(family: str, baseline: Optional[Baseline] = None) -> Baseline:
    """The one map from a family to its baseline: ground and Maxwell return their own
    and refuse one of another polynomial; the general family needs one."""
    if not (isinstance(family, str) and family in _BASELINES):
        raise MiwValidation(f"family must be ground, maxwell or general, got {family!r}")
    if family == GENERAL:
        if baseline is None:
            raise MiwValidation("general family requires a baseline")
        return baseline
    own = _BASELINES[family]()
    if baseline is not None and baseline is not own and baseline.b_poly.trim() != own.b_poly:
        raise MiwValidation(f"the {family} family's baseline has coefficients "
                            f"{own.b_poly.coef.tolist()}, not {baseline.b_poly.coef.tolist()}")
    return own


def shoot_sequence(bl: Baseline, x1: float, max_len: int):
    """Iterate the recursion of baseline ``bl`` forward from x_1 = ``x1``.

    Returns the emitted prefix and the reason iteration stopped:
    ``completed``, ``nondecreasing``, ``singular_partial_sum``,
    ``nonfinite`` or ``baseline_zero``.
    """
    if not (x1 > 0):
        raise MiwError(f"shooting start must be positive, got {x1}")
    x = float(x1)
    xs, partial = [x], 0.0
    while len(xs) < max_len:
        if bl.near_zero_of_b(x):
            return xs, "baseline_zero"
        bx = float(bl.b(x))
        partial += x / bx if bx else math.inf  # b(x) underflowed: x/b is +inf
        if partial == 0.0 or not math.isfinite(partial):
            return xs, "singular_partial_sum"
        nxt = bl.Binv(float(bl.B(x)) - 1.0 / partial)
        if not -math.inf < nxt < x:
            return xs, "nondecreasing" if math.isfinite(nxt) else "nonfinite"
        xs.append(nxt)
        x = nxt
    return xs, "completed"


def _half_residual(x, bl: Baseline, tail, G, S, tmp):
    """G of the half-system at x into G, the partial sums into S; returns b(x)."""
    bx, Bx = bl.b(x), bl.B(x)
    np.cumsum(np.divide(x, bx, out=S), out=S)
    np.subtract(Bx[1:], Bx[:-1], out=G[:-1])
    G[-1] = -tail * Bx[-1]
    G += np.divide(1.0, S, out=tmp)
    return bx


def _newton(x, bl: Baseline, tail: float):
    """Newton on the half-system from x until max|G| stops falling.

    G_n = B(x_{n+1}) - B(x_n) + 1/S_n for n < h, and G_h = -tail B(x_h)
    + 1/S_h with tail 2 for even N (x_{h+1} = -x_h) and 1 for odd N
    (x_{h+1} = 0).  With y_n = sum_{i<=n} q'(x_i) d_i for q = x/b as
    auxiliary unknowns interleaved with the steps d_n, the Jacobian is
    tridiagonal.  A step is halved until the points stay strictly
    decreasing and positive with a finite G that, before convergence, has
    a smaller max|G|.  Converged means max|G| <= 1e-9, the bound that
    solve_configuration's recursion check applies to the full sequence.
    Returns the last point, the max|G| history, the number of halvings and
    whether it converged.  It runs in buffers of its own: x is not written.
    """
    ab, rhs = np.zeros((3, 2 * x.size)), np.zeros(2 * x.size)
    x, new, G, G_new, S, S_new, tmp = x.copy(), *(np.empty(x.size) for _ in range(6))
    with np.errstate(all="ignore"):
        bx = _half_residual(x, bl, tail, G, S, tmp)
        history, backtracks = [float(np.abs(G, out=tmp).max())], 0
        while math.isfinite(history[-1]) and len(history) <= _NEWTON_MAX_ITER:
            # _GTSV overwrites the band and rhs: every entry is rebuilt before each call
            ab[1, 0::2] = (x * bl.db(x) - bx) / (bx * bx)
            ab[1, 1::2] = -1.0 / (S * S)
            ab[0, 1::2], ab[0, 2::2] = 1.0, bx[1:]
            ab[2, 0::2], ab[2, 1:-1:2] = -bx, -1.0
            ab[2, -2] *= tail
            rhs[0::2], rhs[1::2] = 0.0, -G  # finite: the loop runs on a finite max|G|
            if not np.isfinite(ab).all():
                break
            *_, step, info = _GTSV(ab[2, :-1], ab[1], ab[0, 1:], rhs)
            if info != 0:  # a singular system, or an argument LAPACK refused
                break
            step = step[0::2]
            # A converged iterate is not damped, and steps on only while that
            # halves max|G|: below that, its steps chase rounding.
            done = history[-1] <= _RESIDUAL_TOL
            t = 1.0
            while t >= _MIN_STEP:
                np.add(x, np.multiply(step, t, out=new), out=new)
                if new[-1] > 0.0 and (new[1:] < new[:-1]).all():
                    bx_new = _half_residual(new, bl, tail, G_new, S_new, tmp)
                    worst = float(np.abs(G_new, out=tmp).max())
                    if worst < history[-1] or done:
                        break
                t *= 0.5
                backtracks += 1
            if not (t >= _MIN_STEP and worst < history[-1] * (0.5 if done else 1.0)):
                break
            x, new, G, G_new, S, S_new, bx = new, x, G_new, G, S_new, S, bx_new
            history.append(worst)
    return x, history, backtracks, history[-1] <= _RESIDUAL_TOL


def _starts(bl: Baseline, n_worlds: int):
    """Yield (name, x_1 > ... > x_h) starts for Newton.

    First the target quantiles at (n - 1/2)/N: for b of degree <= 2 interpolated in
    a table of the target CDF on [-L, 0], above that by bracketed Newton, as the
    recursion gate's rounding noise there moves with the start.  For baselines with
    zeros z_1 < ... < z_m on the positive axis, then the nodal start: each nodal
    cell of b holds round(N P(cell)) worlds, the central one the rest, at the cell's
    conditional quantiles; then every start that moves one mirrored pair of its
    worlds to a neighbouring cell.  Points are placed on the negative axis, where F
    has no cancellation, and negated.
    """
    h = n_worlds // 2
    u = (np.arange(1, h + 1) - 0.5) / n_worlds
    L = 2.0
    while bl.target_cdf_pdf(-L)[0] > u[0]:
        L *= 2.0
    # above degree 2 the forward-cumsum gate reads noise near 1e-9 (b = 3x^6, N = 100: 1.0e-10
    # from exact quantiles, 1.95e-9 from the table); drop the test once it is cancellation-free
    if bl.b_poly.degree() <= 2:
        grid = np.linspace(-L, 0.0, _START_GRID)
        yield "quantile", -np.interp(u, bl.target_cdf_pdf(grid)[0], grid)
    else:
        yield "quantile", -newton_bracketed(bl.target_cdf_pdf, u, -L, 0.0)

    zeros = sorted(z for z in bl.zeros_of_b if z > 1e-12)
    if not zeros:
        return
    edges = np.array([-L] + [-z for z in reversed(zeros)] + [0.0])
    Fe = np.append(bl.target_cdf_pdf(edges[:-1])[0], 0.5)
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
        yield name, -newton_bracketed(bl.target_cdf_pdf, target, edges[cell], edges[cell + 1])


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


def _defects(bl: Baseline, x: np.ndarray):
    """The recursion residual, |sum x| summed in np.cumsum order, the symmetry
    defect max|x_i + x_{N+1-i}| (inf where it is not finite) and, for b = c x^r,
    whose configurations have variance (r+1)(N-1)/N, |sum x^2 - (r+1)(N-1)|
    (None for a baseline of more than one term)."""
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, as Python's sum gives
        p1 = abs(float(np.cumsum(x)[-1]))
        symmetry = float(np.max(np.abs(x + x[::-1])))
        variance = (None if bl.exponent is None
                    else abs(potential_V(x) - (bl.exponent + 1) * (x.size - 1)))
    return (recursion_residual(bl, x), p1, symmetry if math.isfinite(symmetry) else math.inf,
            variance)


def solve_configuration(family: str, n_worlds: int,
                        baseline: Optional[Baseline] = None) -> Configuration:
    """Solve for the strictly decreasing zero-mean configuration.

    Raises :class:`MiwValidation` for a family or baseline it refuses, a world
    count that is not an integer of at least 2, or an odd N when b(0) = 0;
    :class:`NonConvergence` when Newton converges from no start, or a start's
    inversion of the target CDF fails; and :class:`ResidualFailure` when the
    mirrored configuration lands on a zero of b or misses the recursion by
    more than 1e-9.  Every message ends with ``(family, N=n)``; a failure
    after Newton ends also with a summary of the last run: its final max|G|,
    its iterations and the start it came from.  A failed start has no
    summary, as no Newton run belongs to it.
    """
    _world_count(n_worlds)
    bl = _baseline(family, baseline)
    if bl.b_poly.coef[0] == 0.0 and n_worlds % 2 == 1:
        raise MiwValidation(f"b(0) = 0 needs an even world count, got {n_worlds}")

    def failure(cls, message):
        last = f", the last of {tried}" if tried > 1 else ""
        return cls(f"{message} ({family}, N={n_worlds}); Newton reached max|G| "
                   f"{history[-1]:.3g} in {len(history) - 1} iterations from the {start} "
                   f"start{last}")

    tail = 2.0 if n_worlds % 2 == 0 else 1.0
    try:
        for tried, (start, x0) in enumerate(_starts(bl, n_worlds), start=1):
            first, history, _, converged = _newton(x0, bl, tail)
            if converged:
                break
    except NonConvergence as exc:  # a start's inversion of the target CDF, not a Newton run
        raise NonConvergence(f"{exc} ({family}, N={n_worlds})") from exc
    if not converged:
        raise failure(NonConvergence, f"Newton converged from none of {tried} starts")

    on_zero = bl.near_zero_of_b(first)
    if on_zero.any():
        raise failure(ResidualFailure, f"world location {first[on_zero.argmax()]:g} "
                      "lands on a zero of the baseline")
    x = np.concatenate((first, [0.0] * (n_worlds % 2), -first[::-1]))
    residual, p1, symmetry, variance = _defects(bl, x)
    if residual > _RESIDUAL_TOL:
        raise failure(ResidualFailure, f"recursion defect {residual:.3e} exceeds {_RESIDUAL_TOL:g}")
    residuals = {"max_recursion_residual": residual, "mean_abs": p1 / n_worlds,
                 "symmetry_defect": symmetry}
    if variance is not None:
        residuals["variance_defect"] = variance
    return Configuration(family=family, points=x, residuals=residuals, baseline=bl)


def validate_properties(cfg: Configuration) -> dict:
    """Report the four structural defects plus growth diagnostics against the
    configuration's baseline, which a general one read from JSON must be given."""
    x, n = cfg.points, cfg.n_worlds
    residual, p1, symmetry, variance = _defects(_baseline(cfg.family, cfg.baseline), x)
    return {
        "p1_zero_mean_defect": p1,
        "p2_variance_defect": variance,
        "p3_symmetry_defect": symmetry,
        "p4_decreasing_violation": not np.all(x[1:] < x[:-1]),
        "recursion_residual": residual,
        "x1_over_sqrt_log_n": cfg.shoot_param / math.sqrt(math.log(n)) if n >= 8 else None,
    }


@cache
def _digit_table() -> np.ndarray:
    """ASCII digits of 0..9999, four to a uint32, then again with trailing zeros NUL."""
    d = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10
    d = np.concatenate((d, np.where(np.cumprod(d[:, ::-1] == 0, 1)[:, ::-1], -48, d)))
    table = (d + 48).astype(np.uint8).view(np.uint32).ravel()
    table.flags.writeable = False  # one array for every caller
    return table


def _repr_bytes(v: float) -> bytes:
    return repr(v).encode()


def _positive_reprs(x: np.ndarray) -> list:
    """``repr(v).encode()`` for each positive finite float v of ``x``; fastest on runs
    of one decimal exponent k, as in a monotone block.

    v·10^(16-k) is hi + lo exactly (Dekker 1971); of the 17-, 16- and 15-digit
    integers nearest it, the shortest within half an ulp of v (times 10^(16-k))
    has repr's digits (Gay 1990).  repr itself writes each v outside
    [1e-4, 1e16), where it takes an exponent, each power of two, whose rounding
    interval is lopsided, and each tie or near tie.
    """
    k = np.searchsorted(_DECADES, x, "right") - 5  # 10^k <= v < 10^(k+1) on [1e-4, 1e16)
    with np.errstate(all="ignore"):
        frac, ex = np.frexp(x)
        p, ph, hi = _P10[16 - k], _P10_HI[16 - k], x * _P10[16 - k]
        xh = x * _SPLIT - (x * _SPLIT - x)
        lo = ((xh * ph - hi) + xh * (p - ph) + (x - xh) * ph) + (x - xh) * (p - ph)
        n17 = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
        delta, half_ulp = lo - np.rint(lo), np.ldexp(p, ex - 54)  # v·10^(16-k) = n17 + delta
        q16, q15 = n17 // 10, n17 // 100
        f16, f15 = n17 - 10 * q16 + delta, n17 - 100 * q15 + delta  # mod 10 and mod 100
        up16, up15 = f16 > 5, f15 > 50
        e16, e15 = np.abs(10 * up16 - f16), np.abs(100 * up15 - f15)
        m = np.where(e15 < half_ulp, 100 * (q15 + up15),
                     np.where(e16 < half_ulp, 10 * (q16 + up16), n17))
        near = np.minimum(np.abs(e15 - half_ulp), np.abs(e16 - half_ulp)) <= 1e-9 * half_ulp
    slow = ((k < -4) | (k > 15) | (frac == 0.5) | (np.abs(delta) > 0.5 - 1e-9)
            | (np.abs(f16 - 5) < 1e-9) | near)
    carry = m >= 10**17  # 10^17: the same digit one place up
    k, m = np.clip(k + carry, -4, 15), np.where(slow | carry, 10**16, m)
    # m's 17 digits in five groups of four, those after its last nonzero digit NUL
    g = np.empty((x.size, 5), np.int64)
    for j, w in enumerate((10**16, 10**12, 10**8, 10**4)):
        g[:, j] = m // w
        m -= w * g[:, j]
        g[:, j] += 10000 * (m == 0)
    g[:, 4] = m + 10000
    digits, out = _digit_table()[g].view(np.uint8)[:, 3:], np.zeros((x.size, 24), np.uint8)
    cuts = [0, *(np.flatnonzero(np.diff(k)) + 1).tolist(), x.size]
    for a, b in zip(cuts[:-1], cuts[1:]):
        e, o, d = int(k[a]), out[a:b], digits[a:b]
        if e >= 0:  # "| 48" restores the zeros up to the first digit after the point
            o[:, : e + 1], o[:, e + 1], o[:, e + 2 : 18] = d[:, : e + 1] | 48, 46, d[:, e + 1 :]
            o[:, e + 2] |= 48
        else:
            o[:, : 1 - e], o[:, 1], o[:, 1 - e : 18 - e] = 48, 46, d
    parts = out.view("S24").ravel().tolist()  # NUL padding dropped
    for i in np.flatnonzero(slow).tolist():
        parts[i] = _repr_bytes(float(x[i]))
    return parts


def configuration_json_pieces(cfg: Configuration):
    """The configuration as ``json.dumps`` writes it, in pieces to write in order.

    A positive mirror, with 0.0 at the centre for odd N, formats
    its first half once, in blocks of ``_JSON_BLOCK`` points, and writes its
    second half from the same strings: repr(-x) is "-" + repr(x) for x > 0.
    Any other configuration is one piece.
    """
    x, h = cfg.points, cfg.n_worlds // 2
    head = {"family": cfg.family, "N": cfg.n_worlds}
    tail = {"shoot_param": cfg.shoot_param, "residuals": cfg.residuals}
    centre = list(map(repr, x[h : x.size - h].tolist()))
    if centre not in ([], ["0.0"]) or not _is_positive_mirror(x):
        yield json.dumps({**head, "points": x.tolist(), **tail})
        return
    blocks, sep = [], json.dumps(head)[:-1] + ', "points": ['
    for i in range(0, h, _JSON_BLOCK):
        blocks.append(_positive_reprs(x[i : min(i + _JSON_BLOCK, h)]))
        yield sep + b", ".join(blocks[-1]).decode()
        sep = ", "
    sep = "".join(", " + c for c in centre) + ", -"
    for block in reversed(blocks):
        yield sep + b", -".join(reversed(block)).decode()
        sep = ", -"
    yield "], " + json.dumps(tail)[1:]


def configuration_to_json(cfg: Configuration) -> str:
    """The configuration as ``json.dumps`` writes it."""
    return "".join(configuration_json_pieces(cfg))


def _is_number(v) -> bool:
    """A JSON number that converts to a float: not a bool, nor an int past the float range."""
    return type(v) is float or type(v) is int and abs(v) <= sys.float_info.max


def configuration_from_json(text: str) -> Configuration:
    """Read a configuration as ``configuration_to_json`` writes it.

    Raises :class:`MiwValidation`, naming the field, for a document that is
    not one; non-finite points load, for ``validate_properties`` to report.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MiwValidation(f"the configuration is not JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise MiwValidation(f"a configuration is a JSON object, not a {type(raw).__name__}")
    for key in ("family", "N", "points", "shoot_param", "residuals"):
        if key not in raw:
            raise MiwValidation(f"the configuration has no {key!r}")
    pts, x1 = raw["points"], raw["shoot_param"]
    if not (isinstance(pts, list) and pts and all(map(_is_number, pts))):
        raise MiwValidation("'points' must be a non-empty list of numbers in the float range")
    if not isinstance(raw["residuals"], dict):
        raise MiwValidation("'residuals' must be an object")
    cfg = Configuration(family=raw["family"], points=pts, residuals=raw["residuals"])
    if type(raw["N"]) is not int or raw["N"] != cfg.n_worlds:
        raise MiwValidation(f"'N' is {raw['N']!r}, but there are {cfg.n_worlds} points")
    if not (_is_number(x1) and np.array_equal([float(x1)], cfg.points[:1], equal_nan=True)):
        raise MiwValidation(f"'shoot_param' is {x1!r}, not the first point {cfg.shoot_param!r}")
    return cfg
