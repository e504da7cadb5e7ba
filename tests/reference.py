"""Reference routes for the tests only.

The library computes these quantities in closed form or on a grid; most
functions here integrate the defining formulas directly by adaptive
quadrature, as an independent second route.  ``coupling_cells`` inverts
the density CDF at both edges of each coupling cell on its own, a second
route to the cells that ``coupling_expectations`` takes from one merge of
the two laws' level grids; ``coupling_two_sided`` integrates them cut at 0
and at the cell's atom.  ``coupling_unique_midpoints`` finds the same cells
by ``np.unique`` of the levels and searches at the cell midpoints, and
integrates two pieces per cell.  ``step_cdf`` is the CDF of the uniform
law on a set of atoms, for the quadrature route to d_W.  ``left_sum`` adds
floats one at a time from the left, the order the library's sums keep.
``csv_text`` builds a CSV table as one string from a list of dicts, a second
route to the command line's line-by-line CSV writer.  ``coupling_terms_mpmath``
takes the four coupling terms to 40 digits by mpmath, on a route that
shares neither the density nor its quantile cells with the library.
``newton_replay`` replays the solver's starts through its Newton iteration,
for the record of a solve and for points that its recursion gate refuses.
"""

import json
import math
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial

from miworlds import solver
from miworlds.numerics import TAIL_CUTOFF, integrate_adaptive
from miworlds.zerobias import LAMBDA_1, LAMBDA_2, LAMBDA_3, LAMBDA_4, CouplingReport


def step_cdf(atoms, left=False) -> Callable[[float], float]:
    """CDF of the uniform law on distinct ``atoms``: P(W <= x), or with
    ``left`` its left limit P(W < x)."""
    asc = np.sort(np.asarray(atoms, dtype=float))
    side = "left" if left else "right"
    return lambda x: float(np.searchsorted(asc, x, side=side)) / asc.size


def left_sum(values) -> float:
    """``values`` added one at a time from the left in float arithmetic."""
    total = 0.0
    for v in values:
        total += v
    return total


def csv_cell(v) -> str:
    """A JSON value as the CSV writer formats it: None empty, booleans in lower
    case, floats to 17 significant digits."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return format(v, ".17g") if isinstance(v, float) else str(v)


def csv_text(rows: list, comment=None) -> str:
    """``rows``, flat dicts, as CSV: the first one's keys, then each one's
    values; with ``comment = (label, values)`` a last line ``# label {json}``
    of the values to 17 digits."""
    table = [tuple(rows[0])] + [tuple(r.values()) for r in rows]
    text = "\n".join(",".join(csv_cell(v) for v in row) for row in table) + "\n"
    if comment is not None:
        label, values = comment
        text += f"# {label} " + json.dumps({k: format(v, ".17g") for k, v in values.items()}) + "\n"
    return text


def newton_replay(bl, n: int):
    """solver._starts replayed through solver._newton up to the first start that
    converges, without the recursion gate.  Returns the mirrored points, the
    start's name, how many starts were tried, the max|G| history and the number
    of step halvings."""
    for tried, (start, x0) in enumerate(solver._starts(bl, n), start=1):
        first, history, backtracks, converged = solver._newton(x0, bl, 2.0 if n % 2 == 0 else 1.0)
        if converged:
            break
    assert converged, f"Newton converged from none of {tried} starts"
    points = np.concatenate((first, [0.0] * (n % 2), -first[::-1]))
    return points, start, tried, tuple(history), backtracks


def inverse_stein_operator(h: Callable[[float], float], x: float) -> float:
    """Gaussian inverse Stein operator phi(x)^{-1} int_x^inf h(u) phi(u) du.

    Computed in the cancellation-friendly factored form
    int_x^L h(u) exp((x^2 - u^2)/2) du; accurate for moderate |x| (the
    intrinsic conditioning degrades like exp(x^2/2) far into the left tail).
    """
    if x >= TAIL_CUTOFF:
        return 0.0
    return integrate_adaptive(
        lambda u: h(u) * math.exp(0.5 * (x * x - u * u)), x, TAIL_CUTOFF
    )


def g0_scalar(x, htilde, kinks):
    """The Stein auxiliary solution g0 of ``miworlds.stein`` at one point,
    by adaptive quadrature between the kinks of the test function."""
    L = TAIL_CUTOFF
    if x > 0:
        cuts = sorted({x, L} | {k for k in kinks if x < k < L})
    else:
        cuts = sorted({-L, x} | {k for k in kinks if -L < k < x})
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        total += integrate_adaptive(
            lambda u: u * u * float(htilde(u)) * math.exp(0.5 * (x * x - u * u)), a, b
        )
    return total


def coupling_cells(density):
    """(a, c, x0, x1) of every coupling cell: its atom, its density
    coefficient and its ends, with each cell's two edges inverted on their
    own: B^{-1} on both edges of a cell, each snapped to its density
    interval's end where it meets a density breakpoint."""
    baseline = density.baseline
    asc_x, asc_c, star_lo, B_asc = density.x, density.c, density.cum, density.Bx
    n = asc_x.size
    atom_cum = np.arange(1, n + 1) / n
    star_cum = star_lo[1:]
    u = np.unique(np.concatenate(([0.0], atom_cum, star_cum)))
    u0, u1 = u[:-1], u[1:]
    um = 0.5 * (u0 + u1)
    a = asc_x[np.minimum(np.searchsorted(atom_cum, um, side="left"), n - 1)]
    i = np.minimum(np.searchsorted(star_cum, um, side="left"), n - 2)
    c, left, right = asc_c[i], asc_x[i], asc_x[i + 1]
    Bleft = B_asc[i]
    x0 = np.where(u0 > star_lo[i],
                  baseline.Binv_within(Bleft + (u0 - star_lo[i]) / c, left, right), left)
    x1 = np.where(u1 < star_cum[i],
                  baseline.Binv_within(Bleft + (u1 - star_lo[i]) / c, left, right), right)
    return a, c, x0, np.maximum(x1, x0)


def coupling_two_sided(density) -> CouplingReport:
    """``miworlds.zerobias.coupling_expectations`` on the cells of
    ``coupling_cells``, each cut at 0 and at its atom, by Polynomial
    arithmetic on the baseline."""
    bp = density.baseline.b_poly
    a, c, x0, x1 = coupling_cells(density)
    cuts = (x0, np.clip(np.minimum(a, 0.0), x0, x1), np.clip(np.maximum(a, 0.0), x0, x1), x1)
    b0 = float(bp.coef[0])
    prims = _primitives(bp)
    e1 = e3 = 0.0
    for p, q in zip(cuts[:-1], cuts[1:]):
        ib, ixb, ibx = (prim(q) - prim(p) for prim in prims)
        if b0 != 0.0:
            with np.errstate(divide="ignore", invalid="ignore"):
                ibx = ibx + b0 * np.log(np.abs(q) / np.abs(p))
        e1 = e1 + c * np.abs(a * ib - ixb)
        e3 = e3 + c * np.where(q > p, np.abs(ib / a - ibx), 0.0)
    return _report(a, e1, e3)


def coupling_unique_midpoints(density) -> CouplingReport:
    """``miworlds.zerobias.coupling_expectations`` with the cell levels from
    ``np.unique``, each cell's atom and gap by ``searchsorted`` on the cell
    midpoints, every upper edge by the full ``PiecewiseDensity.quantile``,
    and each cell cut at 0 into two pieces whose both ends evaluate the
    primitives, taken by Polynomial arithmetic on the baseline."""
    atoms = density.x
    n = atoms.size
    atom_cum = np.arange(1, n + 1) / n
    star_cum = density.cum[1:]
    u = np.unique(np.concatenate(([0.0], atom_cum, star_cum)))
    um = 0.5 * (u[:-1] + u[1:])
    a = atoms[np.minimum(np.searchsorted(atom_cum, um, side="left"), n - 1)]
    c = density.c[np.minimum(np.searchsorted(star_cum, um, side="left"), n - 2)]
    x1 = density.quantile(u[1:])
    x0 = np.append(atoms[0], x1[:-1])
    x1 = np.maximum(x1, x0)
    zero = np.clip(0.0, x0, x1)
    p, q = np.stack((x0, zero)), np.stack((zero, x1))
    ib, ixb, ibx = (prim(q) - prim(p) for prim in _primitives(density.baseline.b_poly))
    b0 = float(density.baseline.b_poly.coef[0])
    if b0 != 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            ibx = ibx + b0 * np.log(np.abs(q) / np.abs(p))
    e1 = np.sum(c * np.abs(a * ib - ixb), axis=0)
    e3 = np.sum(c * np.where(q > p, np.abs(ib / a - ibx), 0.0), axis=0)
    return _report(a, e1, e3)


def _primitives(bp):
    """The primitives of b, x b and (b - b(0))/x, zero at 0, of the Polynomial b."""
    x = Polynomial([0.0, 1.0])
    return bp.integ(), (bp * x).integ(), ((bp - float(bp.coef[0])) // x).integ()


def _report(a, e1, e3) -> CouplingReport:
    """The report of per-cell atoms ``a`` and terms ``e1`` = E|a - W*| and
    ``e3`` = E|1/a - 1/W*| over each cell."""
    abs_a = np.abs(a)
    e_abs = float(np.sum(e1))
    e_wabs = float(np.sum(abs_a * e1))
    e_inv = float(np.sum(e3))
    e_ratio = float(np.sum(e1 / abs_a))
    rhs = LAMBDA_1 * e_abs + LAMBDA_2 * e_wabs + LAMBDA_3 * e_inv + LAMBDA_4 * e_ratio
    return CouplingReport(e_abs=e_abs, e_wabs=e_wabs, e_inv=e_inv, e_ratio=e_ratio,
                          rhs_bound=rhs)


def coupling_terms_mpmath(points, b_coef, dps: int = 40) -> dict:
    """The terms of ``coupling_expectations`` to ``dps`` digits, by mpmath.

    The zero-bias density of the uniform law on the decreasing ``points`` is
    built from its definition: S_n b(x) / Z on the gap (x_{n+1}, x_n], with
    S_n = sum_{i<=n} x_i / b(x_i) and b the polynomial of ascending
    coefficients ``b_coef``.  Its CDF is the closed form cum + c (B(x) - B(y))
    on each gap, and its quantile at every level k/N is found by
    ``mp.findroot``.  On each cell of the merged grid of the two laws'
    levels, W is one atom a and W* runs over the cell's quantile range, so
    E|W - W*|, E|W| |W - W*|, E|1/W - 1/W*| and E|W - W*| / |W| are
    ``mp.quad`` integrals against the density, split at 0 and at a.  For
    b(0) = 0 each piece's integrand is then a polynomial, which the
    Gauss-Legendre rule integrates exactly.  Returns the four terms and
    rhs_bound = 6 e_abs + 7 e_wabs + 18 e_inv + 22 e_ratio, as mpf.
    """
    from mpmath import mp

    with mp.workdps(dps):
        coef = [mp.mpf(float(v)) for v in b_coef]

        def b(x):
            return mp.fsum(c * x ** k for k, c in enumerate(coef))

        def B(x):
            return mp.fsum(c * x ** (k + 1) / (k + 1) for k, c in enumerate(coef))

        desc = [mp.mpf(float(v)) for v in points]
        n = len(desc)
        S = [desc[0] / b(desc[0])]
        for v in desc[1:-1]:
            S.append(S[-1] + v / b(v))
        Z = mp.fsum(S[i] * (B(desc[i]) - B(desc[i + 1])) for i in range(n - 1))
        # ascending atoms y and gaps (y_j, y_{j+1}] with density c_j b(x)
        y, c = desc[::-1], [s / Z for s in S[::-1]]
        cum = [mp.zero]
        for j in range(n - 1):
            cum.append(cum[-1] + c[j] * (B(y[j + 1]) - B(y[j])))

        def gap(u):
            """The gap whose CDF range (cum_j, cum_{j+1}] holds the level u."""
            return max(j for j in range(n - 1) if cum[j] < u or j == 0)

        def quantile(u):
            j = gap(u)
            if u >= cum[j + 1]:
                return y[j + 1]
            if u <= cum[j]:
                return y[j]
            return mp.findroot(lambda x: cum[j] + c[j] * (B(x) - B(y[j])) - u,
                               (y[j], y[j + 1]), solver="bisect")

        levels = sorted(set([mp.mpf(k) / n for k in range(n + 1)] + cum[1:]))
        terms = dict.fromkeys(("e_abs", "e_wabs", "e_inv", "e_ratio"), mp.zero)
        x_lo = quantile(levels[0])
        for u0, u1 in zip(levels[:-1], levels[1:]):
            um = (u0 + u1) / 2
            a = y[int(mp.ceil(um * n)) - 1]
            j = gap(um)
            x_hi = quantile(u1)
            cuts = [x_lo] + sorted(t for t in {mp.zero, a} if x_lo < t < x_hi) + [x_hi]
            x_lo = x_hi
            if cuts[-1] <= cuts[0]:
                continue

            def expect(f):
                return mp.quad(lambda x: f(x) * c[j] * b(x), cuts, method="gauss-legendre")

            terms["e_abs"] += expect(lambda x: abs(a - x))
            terms["e_wabs"] += expect(lambda x: abs(a) * abs(a - x))
            terms["e_inv"] += expect(lambda x: abs(1 / a - 1 / x))
            terms["e_ratio"] += expect(lambda x: abs(a - x) / abs(a))
        terms["rhs_bound"] = (6 * terms["e_abs"] + 7 * terms["e_wabs"]
                              + 18 * terms["e_inv"] + 22 * terms["e_ratio"])
        return terms
