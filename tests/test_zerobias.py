import math
import warnings
from dataclasses import asdict
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miworlds.errors import MiwError, MiwValidation
from miworlds.metrics import kolmogorov, wasserstein1
from miworlds.numerics import integrate_adaptive
from miworlds.solver import GENERAL, GROUND, MAXWELL, solve_configuration
from miworlds.targets import (
    ground_baseline,
    hermite_square_baseline,
    maxwell_square_baseline,
    monomial_baseline,
)
from miworlds.zerobias import (
    CouplingReport,
    _density,
    coupling_expectations,
    fixed_point_defect,
    gzb_density,
    histogram_density,
)
from reference import (
    coupling_cells,
    coupling_terms_mpmath,
    coupling_two_sided,
    coupling_unique_midpoints,
    newton_replay,
    step_cdf,
)

BL = maxwell_square_baseline()


def test_gzb_single_interval_maxwell():
    d = gzb_density(BL, (1.0, -1.0))
    assert d.c.tolist() == pytest.approx([1.5], abs=1e-14)
    assert np.diff(d.cum).tolist() == pytest.approx([1.0], abs=1e-14)
    assert d.cdf(0.0) == pytest.approx(0.5, abs=1e-14)
    assert d.quantile(0.5) == pytest.approx(0.0, abs=1e-12)


def test_gzb_single_interval_ground():
    d = gzb_density(ground_baseline(), (1.0, -1.0))
    assert d.c.tolist() == pytest.approx([0.5], abs=1e-14)
    assert d.cdf(0.3) == pytest.approx(0.65, abs=1e-14)


def test_gzb_mass_per_interval(maxwell_configs):
    d = gzb_density(BL, maxwell_configs[22].points)
    assert max(abs(m - 1.0 / 21.0) for m in np.diff(d.cum)) <= 1e-10


def test_gzb_guards():
    with pytest.raises(MiwError, match=r"^symmetry defect 0\.5 exceeds 1e-08$"):
        gzb_density(BL, (1.0, -0.5))
    with pytest.raises(MiwError, match="^atoms not strictly decreasing at index 0$"):
        gzb_density(BL, (-1.0, 1.0))
    # +-1 are the zeros of He_2^2 / 2
    with pytest.raises(MiwError, match="^baseline vanishes at an atom$"):
        gzb_density(hermite_square_baseline(2), (1.0, -1.0))
    # symmetric within 1e-8 but not a mirror: -0.01 + 1e-9 outweighs 0.01 under the flat x^8
    with pytest.raises(MiwError, match="^partial sums x_i/b\\(x_i\\) must stay nonnegative$"):
        gzb_density(monomial_baseline(8).normalized(), (5.0, 0.01, -0.01 + 1e-9, -5.0))


def test_gzb_quantile_inverts_cdf(maxwell_configs):
    d = gzb_density(BL, maxwell_configs[8].points)
    for u in (0.05, 0.3, 0.5, 0.77, 0.999):
        x = d.quantile(u)
        assert d.cdf(x) == pytest.approx(u, abs=1e-10)


def test_gzb_csv_rows(maxwell_configs):
    d = gzb_density(BL, maxwell_configs[8].points)
    masses = np.diff(d.cum)
    assert d.x.size == 8 and d.c.size == masses.size == 7
    assert np.all(d.x[:-1] < d.x[1:]) and np.all(d.c > 0) and np.all(masses > 0)
    assert np.sum(masses) == pytest.approx(1.0, abs=1e-12)


def test_histogram_density_masses():
    h = histogram_density((1.0, 0.0, -1.0))
    assert np.diff(h.cum).tolist() == pytest.approx([0.5, 0.5], abs=1e-15)
    assert h.c.tolist() == pytest.approx([0.5, 0.5], abs=1e-15)
    assert h.cdf(0.5) == pytest.approx(0.75, abs=1e-14)


@pytest.mark.parametrize("atoms", [(), (1.0,), (0.0,)])
def test_histogram_density_needs_two_atoms(atoms):
    # one atom leaves no gap to spread the mass over: the histogram would
    # divide 1/(N-1) by zero, and the zero-bias density would be empty
    for build in (histogram_density, partial(gzb_density, ground_baseline())):
        with pytest.raises(MiwValidation, match=f"2 or more atoms needed, got {len(atoms)}"):
            build(atoms)


def test_coupling_identical_marginals_zero():
    # a symmetric two-atom empirical coupled to itself (degenerate
    # intervals) yields zero transport in every term
    atoms = (1.0, -1.0)
    d = gzb_density(BL, atoms)
    # shrink the density onto the atoms by comparing against itself via
    # the wasserstein oracle instead: e_abs equals d_W(emp, gzb)
    rep = coupling_expectations(d)
    dw = wasserstein1(step_cdf(atoms), d.cdf, (-1.5, 1.5), jumps=atoms)
    assert rep.e_abs == pytest.approx(dw, abs=1e-9)


def test_coupling_n2_closed_forms(maxwell_configs):
    cfg = maxwell_configs[2]
    a = cfg.points[0]
    rep = coupling_expectations(gzb_density(BL, cfg.points))
    assert rep.e_abs == pytest.approx(a / 4.0, abs=1e-12)
    assert rep.e_wabs == pytest.approx(a * a / 4.0, abs=1e-12)
    assert rep.e_ratio == pytest.approx(0.25, abs=1e-12)
    assert rep.rhs_bound == pytest.approx(
        6 * rep.e_abs + 7 * rep.e_wabs + 18 * rep.e_inv + 22 * rep.e_ratio, abs=1e-14
    )


@pytest.mark.parametrize("n", [8, 32, 128])
def test_coupling_b1_bound(n, maxwell_configs):
    cfg = maxwell_configs[n]
    rep = coupling_expectations(gzb_density(BL, cfg.points))
    assert rep.e_abs <= 2.0 * cfg.points[0] / (n - 1)


def test_coupling_guards():
    hist = histogram_density((1.0, 0.0, -1.0))
    with pytest.raises(MiwValidation, match="^reciprocal terms undefined for an atom at zero$"):
        coupling_expectations(hist)


def test_coupling_matches_wasserstein(maxwell_configs):
    cfg = maxwell_configs[22]
    d = gzb_density(BL, cfg.points)
    dw = wasserstein1(
        step_cdf(cfg.points), d.cdf, (cfg.points[-1] - 0.1, cfg.points[0] + 0.1), jumps=cfg.points
    )
    rep = coupling_expectations(d)
    assert rep.e_abs == pytest.approx(dw, abs=1e-9)


# (e_abs, e_wabs, e_inv, e_ratio, rhs_bound) from the earlier per-cell
# implementation, which integrated each coupling cell on its own
_PER_CELL = {
    64: (0.032447488201365046, 0.06301868533557026, 0.040137423163959095,
         0.02436302119469023, 1.894275809791631),
    4096: (0.0008128151553317746, 0.0020525183777315775, 0.0025555849720221057,
           0.0006310810774028538, 0.07912883277537236),
}


@pytest.mark.parametrize("n", sorted(_PER_CELL))
def test_coupling_matches_per_cell_values(n, maxwell_configs):
    pts = maxwell_configs[n].points
    rep = coupling_expectations(gzb_density(BL, pts))
    got = (rep.e_abs, rep.e_wabs, rep.e_inv, rep.e_ratio, rep.rhs_bound)
    assert got == pytest.approx(_PER_CELL[n], rel=1e-10)


@pytest.mark.parametrize("family, k, n", [
    ("maxwell", None, 2), ("maxwell", None, 8), ("maxwell", None, 64), ("maxwell", None, 4096),
    ("hermite-sq", 2, 82), ("hermite-sq", 3, 40), ("hermite-sq", 4, 100), ("monomial", 4, 100),
])
def test_coupling_equals_the_two_sided_inversion(family, k, n, maxwell_configs):
    # the cells are contiguous, so one density quantile per cell edge gives,
    # bit for bit, the cells that inverting both edges of each cell gave
    if family == "maxwell":
        bl, pts = BL, maxwell_configs[n].points
    else:
        bl = (hermite_square_baseline(k) if family == "hermite-sq"
              else monomial_baseline(k).normalized())
        # Newton's points without the gate: k=4 N=100 misses it by the residual's
        # cancellation, not by its points (test_hermite_k4_n100_residual_gate)
        pts = newton_replay(bl, n)[0]
    density = gzb_density(bl, pts)
    assert coupling_expectations(density) == coupling_two_sided(density)


@pytest.mark.parametrize("family, bl, n", [
    (MAXWELL, BL, 4), (MAXWELL, BL, 8), (MAXWELL, BL, 64),
    (GENERAL, monomial_baseline(4).normalized(), 20),
], ids=["maxwell-4", "maxwell-8", "maxwell-64", "monomial-4-20"])
def test_coupling_terms_match_the_mpmath_route(family, bl, n):
    # the certificate's four terms against 40-digit quadrature of their
    # definitions over quantiles found by root search, and rhs_bound from
    # them; the worst relative error measured is 2.2e-14 (e_abs, Maxwell N = 64)
    pytest.importorskip("mpmath")
    _assert_terms_match_mpmath(bl, solve_configuration(family, n, baseline=bl).points)


def _assert_terms_match_mpmath(bl, pts):
    """The four coupling terms and rhs_bound within 1e-12 of the mpmath route, each."""
    got = asdict(coupling_expectations(gzb_density(bl, pts)))
    ref = coupling_terms_mpmath(pts, bl.b_poly.coef)
    assert set(ref) == set(got)
    for key, value in ref.items():
        assert 0 < value < math.inf and abs(got[key] - value) <= 1e-12 * value, key


# symmetric atoms, none at 0, N = 2 (1 + len(gaps)) <= 12: the positive
# half rises from ``inner`` by the gaps
_RANDOM_ATOMS = (st.sampled_from([BL, monomial_baseline(4).normalized()]),
                 st.floats(0.2, 1.0), st.lists(st.floats(0.05, 1.0), max_size=5))


def _symmetric_atoms(inner, gaps):
    half = np.cumsum([inner, *gaps])[::-1]
    return np.concatenate((half, -half[::-1]))


@given(*_RANDOM_ATOMS)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_coupling_terms_match_the_mpmath_route_on_random_atoms(bl, inner, gaps):
    # Nearer 0 than 0.2 the x^4 quantile loses digits (the strict xfail
    # below).  The worst relative error measured over 400 random cases is
    # 2.3e-13 (e_inv, x^4).
    pytest.importorskip("mpmath")
    _assert_terms_match_mpmath(bl, _symmetric_atoms(inner, gaps))


def _assert_bit_identical(got: CouplingReport, want: CouplingReport):
    # float.hex tells -0.0 from 0.0, where == does not
    assert {k: v.hex() for k, v in asdict(got).items()} == {
        k: v.hex() for k, v in asdict(want).items()}


@pytest.mark.parametrize("family, k, n", [
    ("maxwell", None, 2), ("maxwell", None, 4), ("maxwell", None, 22), ("maxwell", None, 64),
    ("maxwell", None, 4096), ("hermite-sq", 2, 82), ("hermite-sq", 3, 40),
    ("hermite-sq", 4, 40), ("monomial", 4, 100), ("ground", None, 64),
])
def test_coupling_equals_the_unique_midpoint_route(family, k, n):
    # the merged level grid, the breakpoint at every gap level and one
    # evaluation of each primitive per cell edge give, bit for bit, the
    # report of np.unique, midpoint searches, the full quantile and two
    # pieces per cell; hermite-sq k=2 has b(0) > 0 and an infinite e_inv
    solve_family = {"maxwell": MAXWELL, "ground": GROUND}.get(family, GENERAL)
    bl = (BL if family == "maxwell" else ground_baseline() if family == "ground"
          else hermite_square_baseline(k) if family == "hermite-sq"
          else monomial_baseline(k).normalized())
    density = gzb_density(bl, solve_configuration(solve_family, n, baseline=bl).points)
    _assert_bit_identical(coupling_expectations(density), coupling_unique_midpoints(density))


@given(*_RANDOM_ATOMS)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_coupling_equals_the_unique_midpoint_route_on_random_atoms(bl, inner, gaps):
    # both level grids end at 1, and N = 2 has no other level: ties
    density = gzb_density(bl, _symmetric_atoms(inner, gaps))
    _assert_bit_identical(coupling_expectations(density), coupling_unique_midpoints(density))


@pytest.mark.parametrize("bl", [BL, ground_baseline(), hermite_square_baseline(2)],
                         ids=["maxwell", "ground", "hermite-sq-2"])
def test_coupling_equals_the_unique_midpoint_route_on_tied_levels(bl):
    # gap masses of 1/8 and 1/4 put every gap level but 1/2 on an atom level
    x = np.array([3.5, 2.5, 1.5, 0.5, -0.5, -1.5, -2.5, -3.5])
    masses = np.array([1, 1, 1, 2, 1, 1, 1]) / 8
    Bx = bl.B(x)
    density = _density(bl, x, masses / (Bx[:-1] - Bx[1:]), masses, Bx)
    assert np.array_equal(density.cum, [0, 1 / 8, 2 / 8, 3 / 8, 5 / 8, 6 / 8, 7 / 8, 1])
    _assert_bit_identical(coupling_expectations(density), coupling_unique_midpoints(density))


@pytest.mark.parametrize("bl, n", [(BL, 64), (hermite_square_baseline(2), 82)],
                         ids=["maxwell-64", "hermite-sq-2-82"])
def test_coupling_equals_the_unique_midpoint_route_on_a_jittery_inversion(bl, n):
    # an inversion that is not monotone leaves cells whose upper edge falls
    # below their lower one; both routes count them as empty.  The jitter is
    # a function of (u, i) alone, so both routes see the same edges.
    family = MAXWELL if bl is BL else GENERAL
    density = gzb_density(bl, solve_configuration(family, n, baseline=bl).points)
    within = density._within

    def jittery(u, i):
        return within(u, i) - (density.x[i + 1] - density.x[i]) * np.sin(3e3 * u) ** 2

    object.__setattr__(density, "_within", jittery)
    x1 = density.quantile(np.arange(1, n + 1) / n)
    assert np.any(x1[1:] < x1[:-1])
    _assert_bit_identical(coupling_expectations(density), coupling_unique_midpoints(density))


def test_general_quantile_of_no_levels_is_empty():
    # the general baseline inverts B by bracketed Newton, which must return
    # on an empty input as the Maxwell closed form does
    bl = hermite_square_baseline(2)
    d = gzb_density(bl, solve_configuration(GENERAL, 20, baseline=bl).points)
    x = d.quantile(np.array([]))
    assert isinstance(x, np.ndarray) and x.shape == (0,)


def test_quantile_at_every_gap_level_is_the_breakpoint():
    # the merged coupling takes a cell that ends at a gap level to end at
    # the gap's breakpoint, without inverting B there
    cases = [(BL, solve_configuration(MAXWELL, n).points) for n in (2, 22, 4096)]
    for k, n in ((2, 82), (3, 40), (4, 40)):
        bl = hermite_square_baseline(k)
        cases.append((bl, solve_configuration(GENERAL, n, baseline=bl).points))
    bl = monomial_baseline(4).normalized()
    cases.append((bl, solve_configuration(GENERAL, 100, baseline=bl).points))
    cases.append((BL, (2.1, 1.3, 0.7, 0.01, -0.01, -0.7, -1.3, -2.1)))
    for bl, pts in cases:
        for d in (gzb_density(bl, pts), histogram_density(pts)):
            assert d.quantile(d.cum[1:]).tobytes() == d.x[1:].tobytes()
            assert [d.quantile(float(u)) for u in d.cum[1:]] == d.x[1:].tolist()


def test_coupling_terms_near_a_flat_zero_of_b():
    # 0.01/b(0.01) = 3e6 under normalized x^4: partial sums of x/b(x) summed on past
    # the midpoint cancel against it, and the flat B = x^5/15 magnifies any offset of
    # the centre gap's CDF range from 1/2 in the quantiles and e_inv
    pytest.importorskip("mpmath")
    _assert_terms_match_mpmath(monomial_baseline(4).normalized(),
                               (2.1, 1.3, 0.7, 0.01, -0.01, -0.7, -1.3, -2.1))


@pytest.mark.parametrize("family, bl, n", [
    (MAXWELL, BL, 4096), (GROUND, ground_baseline(), 64),
    (GENERAL, hermite_square_baseline(2), 82), (GENERAL, hermite_square_baseline(3), 40),
    (GENERAL, monomial_baseline(4).normalized(), 100),
], ids=["maxwell-4096", "ground-64", "hermite-sq-2-82", "hermite-sq-3-40", "monomial-4-100"])
def test_no_atom_lies_strictly_inside_its_coupling_cell(family, bl, n, maxwell_configs):
    # each cell lies in one gap between neighbouring atoms, so
    # coupling_expectations cuts it at 0 only, never at its atom
    pts = (maxwell_configs[n] if family == MAXWELL
           else solve_configuration(family, n, baseline=bl)).points
    a, _, x0, x1 = coupling_cells(gzb_density(bl, pts))
    assert a.size >= n and np.all(x0 <= x1)
    assert not np.any((x0 < a) & (a < x1))


def test_coupling_infinite_reciprocal_term_when_b0_positive():
    # b(0) = 1/2 for He_2^2 / 2: W* has density ~ b(0) near 0, so
    # E|1/W - 1/W*| diverges logarithmically; the other terms stay finite
    pts = solve_configuration(GENERAL, 82, baseline=hermite_square_baseline(2)).points
    rep = coupling_expectations(gzb_density(hermite_square_baseline(2), pts))
    assert rep.e_inv == math.inf and rep.rhs_bound == math.inf
    assert all(math.isfinite(v) and v > 0 for v in (rep.e_abs, rep.e_wabs, rep.e_ratio))


def test_coupling_log_term_on_one_signed_atoms():
    # uniform histogram on [1, 3] against atoms 3, 2, 1: the quantile
    # coupling pairs W* = 1 + 2u with the atom a(u) = 1, 2, 3 on thirds of (0, 1)
    rep = coupling_expectations(histogram_density((3.0, 2.0, 1.0)))
    e_inv = e_abs = 0.0
    for j, a in enumerate((1.0, 2.0, 3.0)):
        lo, hi = j / 3.0, (j + 1) / 3.0
        e_inv += integrate_adaptive(lambda u: abs(1.0 / a - 1.0 / (1.0 + 2.0 * u)), lo, hi)
        e_abs += integrate_adaptive(lambda u: abs(a - 1.0 - 2.0 * u), lo, hi)
    assert rep.e_inv == pytest.approx(e_inv, rel=1e-12)
    assert rep.e_abs == pytest.approx(e_abs, rel=1e-12)


@pytest.mark.parametrize(
    "f,df",
    [
        (lambda x: x, lambda x: 1.0),
        (lambda x: x ** 3, lambda x: 3 * x * x),
        (math.sin, math.cos),
    ],
)
def test_definition_identity(f, df, maxwell_configs):
    # sigma^2 E[f'(W*)/b(W*)] = E[W f(W)/b(W)].  Taking f = B shows the
    # only compatible constant is sigma^2 = E[W B(W)/b(W)]; for the
    # empirical Maxwell configuration that is (N-1)/N, approaching the
    # continuous value 1.  (E[W^2/b(W)] equals it only in the limit.)
    cfg = maxwell_configs[22]
    n = cfg.n_worlds
    sigma2 = sum(x * float(BL.B(x)) / float(BL.b(x)) for x in cfg.points) / n
    assert sigma2 == pytest.approx((n - 1) / n, abs=1e-9)
    d = gzb_density(BL, cfg.points)
    lhs = 0.0
    from miworlds.numerics import integrate_adaptive

    for left, right, coeff in zip(d.x[:-1], d.x[1:], d.c):
        lhs += coeff * integrate_adaptive(lambda x: df(x), left, right)
    rhs = sum(x * f(x) / float(BL.b(x)) for x in cfg.points) / n
    assert abs(sigma2 * lhs - rhs) <= 1e-7


def test_rate_orders(sweep_rows):
    # the four Corollary-proof orders, as boundedness of the scaled terms
    e1 = [r.e_abs * r.N / math.sqrt(math.log(r.N)) for r in sweep_rows]
    e2 = [r.e_wabs * r.N / math.log(r.N) for r in sweep_rows]
    e3 = [r.e_inv * math.sqrt(r.N) for r in sweep_rows]
    e4 = [r.e_ratio * math.sqrt(r.N / math.log(r.N)) for r in sweep_rows]
    for seq in (e1, e2, e3, e4):
        assert all(np.isfinite(seq))
        assert max(seq) <= 3.0 * seq[0]


def test_fixed_point_defect():
    assert fixed_point_defect() <= 1e-10


def test_density_tables_match_the_per_call_formulas():
    bl = hermite_square_baseline(2)
    cfg = solve_configuration(GENERAL, 41, baseline=bl)
    for d in (histogram_density(cfg.points), gzb_density(bl, cfg.points)):
        asc_x, asc_c, asc_m = d.x, d.c, np.diff(d.cum)
        xs = np.concatenate((np.linspace(asc_x[0] - 0.5, asc_x[-1] + 0.5, 1001), asc_x))
        for x in map(float, xs):
            # the parent's per-call formulas: a fresh sum and two B calls
            i = int(np.searchsorted(asc_x, x, side="left")) - 1
            inside = 0 <= i < asc_c.size
            cdf = (min(1.0, float(np.sum(asc_m[:i])) + asc_c[i]
                       * (float(d.baseline.B(x)) - float(d.baseline.B(asc_x[i]))))
                   if inside and x < asc_x[-1] else float(x >= asc_x[-1]))
            assert d.cdf(x) == pytest.approx(cdf, abs=2e-15)
        assert np.array_equal(d.cdf(xs), [d.cdf(float(x)) for x in xs])
        us = np.concatenate((np.linspace(1e-6, 1.0, 501), np.cumsum(asc_m)[:-1]))
        q = d.quantile(us)
        assert np.max(np.abs(q - [d.quantile(float(u)) for u in us])) <= 1e-13
        assert np.max(np.abs(d.cdf(q) - us)) <= 1e-13
        # a 0-d array equals a float under ==, so the types are checked too
        for method in (d.cdf, d.quantile):
            row = method(np.array([0.3, 1.0]))
            assert type(row) is np.ndarray and row.shape == (2,)
            for x, want in ((0.3, row[0]), (np.float64(0.3), row[0]),
                            (np.asarray(0.3), row[0]), (1, row[1])):
                assert type(method(x)) is float and method(x) == want, (method, x)
    with pytest.raises(MiwValidation, match=r"^quantile argument must lie in \(0, 1\]$"):
        d.quantile(np.array([0.5, 0.0]))


def _cdf_densities(maxwell_configs):
    x = maxwell_configs[22].points
    return {"histogram": histogram_density(x), "maxwell-gzb": gzb_density(BL, x)}


_EXTREMES = [math.nan, math.inf, -math.inf, 1e308, -1e308]


@pytest.mark.parametrize("kind", ["histogram", "maxwell-gzb"])
def test_cdf_takes_every_input_type_to_the_same_bits(kind, maxwell_configs):
    # the float path bisects Python lists; a NaN there must stay NaN, as the
    # array path keeps it, and not be clamped to 1
    d = _cdf_densities(maxwell_configs)[kind]
    atoms = d.x
    span = np.random.default_rng(3).uniform(atoms[0], atoms[-1], 200)
    xs = np.concatenate((_EXTREMES, atoms, np.nextafter(atoms, -np.inf),
                         np.nextafter(atoms, np.inf), span))
    row = d.cdf(xs)
    for x, want in zip(xs.tolist(), row.tobytes().hex(" ", 8).split()):
        got = [d.cdf(x), d.cdf(np.float64(x)), d.cdf(np.array(x)), d.cdf(np.array([x]))[0]]
        assert [np.float64(v).tobytes().hex() for v in got] == [want] * 4, x


@pytest.mark.parametrize("kind", ["histogram", "maxwell-gzb"])
def test_cdf_evaluates_no_baseline_outside_its_span(kind, maxwell_configs):
    # B at +-inf or 1e308 warns (inf * 0, overflow); the array path clips to
    # the span first, which leaves every in-span value's bits as they were
    d = _cdf_densities(maxwell_configs)[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = d.cdf(np.array(_EXTREMES))
        inside = np.linspace(d.x[0], d.x[-1], 1001)
        got = d.cdf(inside)
    assert np.isnan(out[0]) and out[1:].tolist() == [1.0, 0.0, 1.0, 0.0]
    i = np.clip(np.searchsorted(d.x, inside, side="left") - 1, 0, d.c.size - 1)
    unclipped = np.minimum(1.0, d.cum[i] + d.c[i] * (d.baseline.B(inside) - d.Bx[i]))
    want = np.where(inside <= d.x[0], 0.0, np.where(inside >= d.x[-1], 1.0, unclipped))
    assert got.tobytes() == want.tobytes()


def test_density_arrays_are_read_only():
    atoms = np.array([2.0, 0.5, -0.5, -2.0])
    for d in (gzb_density(BL, atoms), histogram_density(atoms)):
        for v in (d.x, d.c, d.cum, d.Bx):
            assert not v.flags.writeable
            with pytest.raises(ValueError):
                v[0] = 7.0
        with pytest.raises(AttributeError):
            d.x = atoms
    # the breakpoints are a copy: the caller's array stays its own
    atoms[0] = 3.0
    assert d.x[-1] == 2.0 and atoms.flags.writeable


@pytest.mark.parametrize("k, n", [(2, 41), (3, 40), (4, 30)])
def test_scalar_and_array_quantiles_agree_near_zeros_of_b(k, n):
    # both paths invert B on the cell by Baseline.Binv_within; B is flat at
    # the zeros of b, where two different inverses part most
    bl = hermite_square_baseline(k)
    d = gzb_density(bl, solve_configuration(GENERAL, n, baseline=bl).points)
    xs = np.concatenate([z + np.linspace(-0.05, 0.05, 41) for z in bl.zeros_of_b])
    us = d.cdf(xs)
    assert np.array_equal(d.quantile(us), [d.quantile(float(u)) for u in us])


def _loop_says_decreasing(atoms):
    """The per-pair ordering check the array comparison replaced."""
    return all(atoms[i] > atoms[i + 1] for i in range(len(atoms) - 1))


@pytest.mark.parametrize("atoms", [
    (1.0, 0.0, -1.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0, 0.0), (2.0, 1.0, 1.5),
    (1.0, math.nan, -1.0), (math.nan, math.nan), (math.nan, 1.0, 2.0),
    (math.inf, math.inf), (math.inf, 0.0, -math.inf), (-math.inf, math.inf),
    (0.0, -0.0), (5e-324, 0.0), (0.0, 5e-324), (1.0,), (),
    (math.inf, math.inf, -math.inf, -math.inf),
])
def test_ordering_check_matches_the_per_pair_loop(atoms):
    # fewer atoms than a builder needs fail its count check before the ordering
    # one (tested on its own above); gzb also needs two to pass its symmetry check
    builders = [partial(kolmogorov, G=np.zeros_like)] if atoms else []
    if len(atoms) >= 2:
        builders += [histogram_density, partial(gzb_density, ground_baseline())]
    for build in builders:
        if _loop_says_decreasing(atoms):
            with np.errstate(all="ignore"):  # subnormal gaps, infinite atoms
                build(atoms)
        else:
            with pytest.raises(MiwError, match=r"^atoms not strictly decreasing at index \d+$"):
                build(atoms)


def test_histogram_coefficients_are_bit_identical_to_the_per_gap_loop():
    rng = np.random.default_rng(13)
    cfg = solve_configuration(GENERAL, 81, baseline=hermite_square_baseline(2))
    for atoms in (cfg.points, tuple(np.sort(rng.normal(size=500))[::-1].tolist()),
                  (1.0, 0.0, -1.0), (3, 2, -7)):
        mass = 1.0 / (len(atoms) - 1)
        loop = [mass / (float(atoms[i]) - float(atoms[i + 1])) for i in range(len(atoms) - 1)]
        h = histogram_density(atoms)
        assert h.c[::-1].tobytes() == np.array(loop).tobytes()
