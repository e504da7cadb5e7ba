"""Generalized zero-bias densities and couplings.

The b-generalized-zero-bias density of the uniform law on symmetric atoms
x_1 > ... > x_N has shape c_n * b(x) on each gap (x_{n+1}, x_n] with
c_n proportional to sum_{i<=n} x_i / b(x_i).  The comonotone (quantile)
coupling of the empirical law W with W* ~ p* yields the four expectation
terms whose weighted sum bounds the Wasserstein distance to the target.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import MiwError, MiwValidation
from .numerics import _tail_integrate, _tail_layout
from .targets import Baseline, ground_baseline, pdf_pk, phi

__all__ = [
    "PiecewiseDensity",
    "CouplingReport",
    "gzb_density",
    "histogram_density",
    "coupling_expectations",
    "fixed_point_defect",
]

_SYMMETRY_TOL = 1e-8

# Theorem constants for the x^2-generalized zero-bias bound, per unit
# Lipschitz constant of the test function.
LAMBDA_1 = 6.0
LAMBDA_2 = 7.0
LAMBDA_3 = 18.0
LAMBDA_4 = 22.0


@dataclass(frozen=True, eq=False)
class PiecewiseDensity:
    """Density c[i] * b(x) on each gap (x[i], x[i+1]] of ascending breakpoints.

    ``cum[i]`` is the mass below ``x[i]`` (exactly 1 at the top) and ``Bx``
    is B(x); all four arrays are read-only.  Houses both the zero-bias
    density p* and the flat histogram density (ground baseline).  ``cdf``
    and ``quantile`` take a float or an array.
    """

    baseline: Baseline
    x: np.ndarray
    c: np.ndarray
    cum: np.ndarray
    Bx: np.ndarray

    @cached_property
    def _lists(self) -> tuple:
        # the scalar cdf bisects Python lists: no array set-up per call
        return tuple(v.tolist() for v in (self.x, self.c, self.cum, self.Bx))

    def cdf(self, x):
        if isinstance(x, (int, float)):
            xs, cs, cum, Bx = self._lists
            if x <= xs[0]:
                return 0.0
            if x >= xs[-1]:
                return 1.0
            i = bisect_left(xs, x) - 1
            # NaN bisects to -1; as min's first argument it stays NaN, as np.minimum keeps it
            return min(cum[i] + cs[i] * (float(self.baseline.B(x)) - Bx[i]), 1.0)
        x = np.asarray(x, dtype=float)
        xs, cs, cum, Bx = self.x, self.c, self.cum, self.Bx
        i = np.clip(np.searchsorted(xs, x, side="left") - 1, 0, cs.size - 1)
        # B at the span's ends, not past them, where np.where drops it and it may overflow
        Bgap = np.asarray(self.baseline.B(np.clip(x, xs[0], xs[-1])), dtype=float) - Bx[i]
        inner = np.minimum(1.0, cum[i] + cs[i] * Bgap)
        out = np.where(x <= xs[0], 0.0, np.where(x >= xs[-1], 1.0, inner))
        return out if out.ndim else float(out)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        if not np.all((u > 0.0) & (u <= 1.0)):
            raise MiwValidation("quantile argument must lie in (0, 1]")
        cum = self.cum
        i = np.clip(np.searchsorted(cum, u, side="left") - 1, 0, self.c.size - 1)
        inner = u < cum[i + 1]  # else u is the gap's top level: its upper breakpoint
        out = np.where(inner, self._within(np.where(inner, u, cum[i]), i), self.x[i + 1])
        return out if out.ndim else float(out)

    def _within(self, u, i):
        """The quantile at levels u inside the CDF range of gap i, by B^{-1}."""
        target = self.Bx[i] + (u - self.cum[i]) / self.c[i]
        return self.baseline.Binv_within(target, self.x[i], self.x[i + 1])


def _check_decreasing(points: Sequence[float], at_least: int = 1) -> np.ndarray:
    """The atoms as float64, checked to be strictly decreasing and ``at_least`` many:
    the one ordering check, which ``metrics`` and ``energy`` share."""
    x = np.asarray(points, dtype=float)
    if x.size < at_least:
        raise MiwValidation(f"{at_least} or more atoms needed, got {x.size}")
    # compare neighbours, not np.diff: a repeated infinity differs by nan;
    # a pair is rising unless it falls, so a NaN atom is rising too
    rising = np.flatnonzero(~(x[1:] < x[:-1]))
    if rising.size:
        raise MiwError(f"atoms not strictly decreasing at index {rising[0]}")
    return x


def gzb_density(baseline: Baseline, atoms: Sequence[float]) -> PiecewiseDensity:
    """Generalized zero-bias density of the uniform law on the atoms."""
    x = _check_decreasing(atoms, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        bvals, Bx = (np.asarray(f(x), dtype=float) for f in (baseline.b, baseline.B))
    bad = np.flatnonzero(~(np.isfinite(bvals) & np.isfinite(Bx)))
    if bad.size:
        raise MiwValidation(f"b or B is not finite at the atom {float(x[bad[0]])} (index {bad[0]})")
    worst = float(np.max(np.abs(x + x[::-1])))
    if worst > _SYMMETRY_TOL:
        raise MiwError(f"symmetry defect {worst:g} exceeds {_SYMMETRY_TOL:g}")
    if np.any(bvals <= 0.0):
        raise MiwError("baseline vanishes at an atom")
    raw = np.cumsum(x / bvals)[:-1]
    if np.array_equal(x, -x[::-1]):  # S_n = S_{N-n}: past the midpoint the sums cancel
        raw[x.size // 2 :] = raw[: (x.size - 1) // 2][::-1]
    if np.any(raw < 0.0):
        raise MiwError("partial sums x_i/b(x_i) must stay nonnegative")
    masses = raw * (Bx[:-1] - Bx[1:])
    total = float(np.sum(masses))
    return _density(baseline, x, raw / total, masses / total, Bx)


def histogram_density(atoms: Sequence[float]) -> PiecewiseDensity:
    """Flat density with mass 1/(N-1) on each gap between atoms."""
    x = _check_decreasing(atoms, 2)
    bl = ground_baseline()
    mass = np.full(x.size - 1, 1.0 / (x.size - 1))
    return _density(bl, x, mass / (x[:-1] - x[1:]), mass, bl.B(x))


def _density(baseline, x, coeffs, masses, Bx) -> PiecewiseDensity:
    """The density of decreasing breakpoints ``x`` with the coefficient and
    mass of the gap below each and ``Bx`` = B(x), in ascending order."""
    cum = np.concatenate(([0.0], np.cumsum(masses[::-1])))
    cum[-1] = 1.0
    arrays = (x[::-1].copy(), coeffs[::-1].copy(), cum, Bx[::-1].copy())
    for v in arrays:
        v.flags.writeable = False
    return PiecewiseDensity(baseline, *arrays)


@dataclass(frozen=True)
class CouplingReport:
    """Expectation terms of the coupling bound and the assembled RHS."""

    e_abs: float
    e_wabs: float
    e_inv: float
    e_ratio: float
    rhs_bound: float


def coupling_expectations(density: PiecewiseDensity) -> CouplingReport:
    """Exact expectation terms of the comonotone (quantile) coupling of W, uniform on the
    density's breakpoints, and W* ~ ``density``: the lower half's, doubled on an exact
    mirror, else added to the mirrored density's, which are the upper half's (b even, B odd)."""
    x, c = density.x, density.c
    if (x == 0.0).any():
        raise MiwValidation("reciprocal terms undefined for an atom at zero")
    mirror = np.array_equal(x, -x[::-1]) and np.array_equal(c, c[::-1])
    median = 0.0 if mirror else density.quantile(0.5)  # where the two halves meet
    lower = _lower_terms(density, median)
    upper = lower if mirror else _lower_terms(PiecewiseDensity(
        density.baseline, -x[::-1], c[::-1], 1.0 - density.cum[::-1], -density.Bx[::-1]), -median)
    e_abs, e_wabs, e_inv, e_ratio = (lower + upper).tolist()
    rhs = LAMBDA_1 * e_abs + LAMBDA_2 * e_wabs + LAMBDA_3 * e_inv + LAMBDA_4 * e_ratio
    return CouplingReport(e_abs, e_wabs, e_inv, e_ratio, rhs)


def _lower_terms(density: PiecewiseDensity, median: float) -> np.ndarray:
    """E|W - W*|, E|W| |W - W*|, E|1/W - 1/W*| and E|W - W*| / |W| over the levels (0, 1/2].

    Those are cut at both laws' levels, the atom levels j/N and the gap levels ``cum``,
    in one merged grid.  On each cell W is one atom a and W* runs over [x0, x1] inside
    one gap between neighbouring atoms, so a is never strictly inside the cell.  At a
    gap level x1 is that gap's breakpoint, at 1/2 the ``median``; B is inverted only at
    the other atom levels.  The cells are contiguous, and only the one across 0 is cut,
    so on each piece a - x and x keep their signs; the baseline integrates b, x b and
    b/x over all pieces at once, in closed form.
    """
    atoms = density.x
    n = atoms.size
    gaps = density.cum[1:][density.cum[1:] <= 0.5]
    # one stable merge: on a tie the gap level comes first and ends the
    # cell, and the atom level after it ends none
    levels = np.concatenate((gaps, np.arange(1, (n + 1) // 2) / n, [0.5]))
    order = levels.argsort(kind="stable")
    u, at_atom = levels[order], order >= gaps.size
    ends = (u > np.concatenate(([0.0], u[:-1]))).nonzero()[0]
    # the atom and gap levels below a cell's upper edge count its atom and gap
    ia = (at_atom.cumsum() - at_atom)[ends]
    ig = ends - ia
    a, c, x1 = atoms[ia], density.c[ig], atoms[ig + 1]
    inner = at_atom[ends]
    x1[inner] = density._within(u[ends[inner]], ig[inner])
    x1[-1] = median
    # the cell edges, x0 of each the x1 below it; a cell across 0 is cut there
    x = np.concatenate(([atoms[0]], x1))
    cut = ((x[:-1] < 0.0) & (x[1:] > 0.0)).nonzero()[0]
    x = np.insert(x, cut + 1, 0.0)
    cell = np.insert(np.arange(a.size), cut, cut)  # the cell of each piece
    ib, ixb, ibx = density.baseline.integrals(x)
    up = x[1:] > x[:-1]  # a cell whose x1 falls below its x0 is empty
    # a cut cell adds its two pieces, in order
    e1 = np.bincount(cell, np.where(up, c[cell] * np.abs(a[cell] * ib - ixb), 0.0))
    e3 = np.bincount(cell, np.where(up, c[cell] * np.abs(ib / a[cell] - ibx), 0.0))
    abs_a = np.abs(a)
    return np.array([e1.sum(), (abs_a * e1).sum(), e3.sum(), (e1 / abs_a).sum()])


def fixed_point_defect() -> float:
    """Sup-grid defect of the fixed-point identity p* = p for the target.

    For the two-sided Maxwell target (k = 1) this checks
    b(x) * int_x^inf t phi(t) dt = p_1(x) on x in {-4, -3.9, ..., 4}.  The
    integrand is odd, so the integral from x is the one from |x|, taken for
    the whole grid in one cumulative pass.
    """
    x = np.arange(-40, 41) / 10.0
    inner = _tail_integrate(_tail_layout(np.abs(x), ()), lambda u: 1.0 / u) * phi(x)
    return float(np.max(np.abs(x * x * inner - pdf_pk(1, x))))
