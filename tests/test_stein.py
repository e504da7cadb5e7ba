import math

import numpy as np
import pytest

from miworlds import stein
from miworlds.numerics import TAIL_CUTOFF
from miworlds.stein import (
    _g0,
    _upper_integral_grid,
    fixed_suite,
    identity_f_check,
    make_test_function,
    stein_solution,
    suite_csv_rows,
    supnorm_suite,
    theorem_check,
)
from miworlds.zerobias import CouplingReport
from reference import g0_scalar

SUITE = fixed_suite()
IDENT = SUITE[0]
DEFAULT_GRID = -8.0 + 1e-3 * np.arange(16001)


def _square():
    return make_test_function(
        "square", lambda x: np.square(x), lambda x: 2.0 * np.asarray(x, float), c=16.0
    )


def test_means():
    const = make_test_function("const", lambda x: np.full_like(np.asarray(x, float), 2.5),
                               lambda x: np.zeros_like(np.asarray(x, float)), c=1.0)
    cases = [
        # E |X| = 4 / sqrt(2 pi), with the kink of |x| at 0
        (make_test_function("abs", np.abs, np.sign, c=1.0, kinks=(0.0,)),
         4.0 / math.sqrt(2.0 * math.pi)),
        (_square(), 3.0),
        (const, 2.5),
    ]
    for tf, mean in cases:
        assert tf.mean_under_p1 == pytest.approx(mean, abs=1e-12), tf.name
    # every suite function is odd, and the two halves of the pass mirror
    for tf in SUITE:
        assert tf.mean_under_p1 == 0.0, tf.name


def test_dh_bounded_by_c():
    xs = np.linspace(-8, 8, 2001)
    for tf in SUITE:
        assert np.max(np.abs(tf.dh(xs))) <= tf.c + 1e-12


def test_g0_closed_form_identity_h():
    # h(x) = x: g0 = sign(x)(x^2+2), g = sign(x)
    xs = np.array([0.2, 1.0, 3.5, -0.7, -5.0])
    vals = stein_solution(IDENT, xs)
    assert vals["g0"] == pytest.approx(np.sign(xs) * (xs * xs + 2.0), rel=1e-11)
    assert vals["g"] == pytest.approx(np.sign(xs), abs=1e-9)
    for key in ("dg", "chi", "dchi"):
        assert vals[key] == pytest.approx(np.zeros_like(xs), abs=1e-9)


def test_g_constant_h_is_zero():
    const = make_test_function("const", lambda x: np.full_like(np.asarray(x, float), 1.3),
                               lambda x: np.zeros_like(np.asarray(x, float)), c=1.0)
    g = stein_solution(const, [-2.0, 0.1, 4.0])["g"]
    assert np.all(np.abs(g) <= 1e-10)


def test_g0_square_vanishes_at_origin():
    assert _g0(_square(), [1e-9])[0] == pytest.approx(0.0, abs=1e-9)
    # brute-force quadrature oracle
    from miworlds.numerics import integrate_adaptive

    oracle = integrate_adaptive(
        lambda y: y * y * (y * y - 3.0) * math.exp(-0.5 * y * y), 0.0, 12.0
    )
    assert oracle == pytest.approx(0.0, abs=1e-10)


def test_vectorized_matches_scalar():
    for tf in SUITE + (_square(),):
        xs = np.array([-6.0, -1.0, -0.999, -1e-4, 0.0, 1e-4, 0.5, 1.0, 2.7, 7.5])
        grid = _g0(tf, xs)
        scalar = np.array([g0_scalar(float(v), tf.htilde, tf.kinks) for v in xs])
        assert np.max(np.abs(grid - scalar)) <= 1e-10 * np.maximum(
            1.0, np.max(np.abs(scalar))
        )


def test_g0_identity_closed_form_on_default_grid():
    # h(x) = x: g0 = sign(x)(x^2+2), with the x <= 0 branch at 0
    g0 = _g0(IDENT, DEFAULT_GRID)
    exact = np.where(DEFAULT_GRID > 0.0, 1.0, -1.0) * (DEFAULT_GRID ** 2 + 2.0)
    assert np.all(np.abs(g0 - exact) <= 1e-12 * np.maximum(1.0, np.abs(g0)))


@pytest.mark.parametrize("name", ["sine", "clipped_linear"])
def test_g0_matches_mpmath(name):
    mp = pytest.importorskip("mpmath")
    tf = {t.name: t for t in SUITE}[name]
    h = {"sine": mp.sin,
         "clipped_linear": lambda u: max(mp.mpf(-1), min(mp.mpf(1), u))}[name]
    xs = [-8.0, -1.0 - 1e-9, -1.0 + 1e-9, -1e-4, 0.0, 0.5, 1.0, 7.999]
    got = _g0(tf, np.array(xs))
    with mp.workdps(30):
        # same truncation at L and the same double mean as the library
        mean = mp.mpf(tf.mean_under_p1)
        L = mp.mpf(TAIL_CUTOFF)
        for x, value in zip(xs, got):
            x = mp.mpf(x)
            side = 1 if x > 0 else -1
            t = abs(x)
            cuts = [t] + [mp.mpf(1)] * (t < 1) + [L]
            ref = float(mp.quad(
                lambda u: u * u * (h(side * u) - mean) * mp.exp((x * x - u * u) / 2), cuts))
            assert abs(value - ref) <= 1e-12 * abs(ref)


def test_g0_grid_order_repeats_and_zero():
    sorted_grid = np.linspace(-8.0, 8.0, 801)
    zero = int(np.flatnonzero(sorted_grid == 0.0)[0])
    perm = np.random.default_rng(5).permutation(sorted_grid.size)
    shuffled = np.concatenate((sorted_grid[perm], sorted_grid[perm[:50]], [0.0, 0.0]))
    for tf in SUITE:
        ref = _g0(tf, sorted_grid)
        # the same distinct points give the same panels, so equal bits
        expect = np.concatenate((ref[perm], ref[perm[:50]], ref[[zero, zero]]))
        assert np.array_equal(_g0(tf, shuffled), expect)


def test_kink_one_ulp_off_a_grid_point_is_split():
    clipped = SUITE[2]
    kink = 1.0
    for t in (np.nextafter(kink, 0.0), np.nextafter(kink, 2.0)):
        seen = []

        def f(u):
            seen.append(u.copy())
            return clipped.htilde(u)

        # a kink at 1 and a grid point one ulp away: the one-ulp panel
        # between them exists, so the kink is a panel end
        value = _upper_integral_grid(np.array([t, 0.5, 3.0]), f, clipped.kinks, 12.0)
        nodes = np.concatenate(seen, axis=1)
        lo, hi = min(t, kink), max(t, kink)
        assert np.any(np.all((nodes >= lo) & (nodes <= hi), axis=0))
        ref = g0_scalar(float(t), clipped.htilde, clipped.kinks)
        assert value[0] == pytest.approx(ref, rel=1e-12)


def test_large_tail_cutoff_stays_finite(monkeypatch):
    grid = np.linspace(-41.0, 41.0, 1641)
    near = np.abs(grid) <= 8.0
    ref = {tf.name: _g0(tf, grid[near]) for tf in SUITE}
    monkeypatch.setattr(stein, "TAIL_CUTOFF", 40.0)
    for tf in SUITE:
        wide = _g0(tf, grid)
        assert np.all(np.isfinite(wide))
        r = ref[tf.name]
        assert np.all(np.abs(wide[near] - r) <= 1e-12 * np.maximum(1.0, np.abs(r)))
    exact = np.where(grid > 0.0, 1.0, -1.0) * (grid ** 2 + 2.0)
    inside = np.abs(grid) <= 30.0
    ident = _g0(IDENT, grid)
    assert np.all(np.abs(ident[inside] - exact[inside]) <= 1e-12 * np.abs(exact[inside]))


def test_g0_is_zero_at_and_beyond_the_cutoff():
    L = TAIL_CUTOFF
    xs = np.array([-13.0, -L, L, 13.0, np.inf, -np.inf])
    for tf in SUITE:
        assert np.all(_g0(tf, xs) == 0.0)
        assert np.isnan(_g0(tf, np.array([np.nan, 1.0]))[0])


def test_symmetry_parity():
    # odd h gives odd g; even h gives even g
    xs = np.array([0.3, 1.1, 2.6, 4.0])
    assert np.allclose(_g0(IDENT, xs), -_g0(IDENT, -xs), atol=1e-12)
    even = _square()
    assert np.allclose(_g0(even, xs), _g0(even, -xs), atol=1e-12)


@pytest.mark.parametrize("tf", SUITE, ids=lambda t: t.name)
def test_supnorm_bounds(tf):
    rec = supnorm_suite(tf)
    assert rec["pass"]
    assert rec["sup_g"] <= 3.0 * tf.c
    assert rec["sup_dg"] <= 4.0 * tf.c
    assert rec["sup_chi"] <= 6.0 * tf.c
    assert rec["sup_dchi"] <= 7.0 * tf.c


def test_supnorm_identity_value():
    rec = supnorm_suite(IDENT)
    assert rec["sup_g"] == pytest.approx(1.0, abs=1e-9)


def test_no_blowup_at_grid_edge():
    for tf in SUITE:
        vals8 = stein_solution(tf, np.array([-8.0, 8.0]))
        assert np.max(np.abs(vals8["g"])) <= 3.0 * tf.c
        assert np.max(np.abs(vals8["chi"])) <= 6.0 * tf.c


def test_useful_bound_eq32():
    xs = np.linspace(-8, 8, 1601)
    for tf in SUITE:
        ratio = np.abs(tf.htilde(xs)) / (xs * xs + 2.0)
        assert np.max(ratio) <= 2.0 * tf.c


@pytest.mark.parametrize("tf", SUITE, ids=lambda t: t.name)
def test_ode_residual_magnitude_form(tf):
    # |g0' - x g0| = x^2 |h - mean| away from the origin
    xs = np.concatenate((np.arange(-6.0, -1e-3, 0.05), np.arange(1e-3, 6.0, 0.05)))
    vals = stein_solution(tf, xs)
    lhs = np.abs(vals["dg0"] - xs * vals["g0"])
    rhs = xs * xs * np.abs(tf.htilde(xs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-8


@pytest.mark.parametrize("tf", SUITE, ids=lambda t: t.name)
def test_eq1_residual_magnitude_form(tf):
    # |tau_1 g' - x g| = |h - mean| with tau_1 = (x^2+2)/x^2
    xs = np.concatenate((np.arange(-6.0, -1e-3, 0.05), np.arange(1e-3, 6.0, 0.05)))
    vals = stein_solution(tf, xs)
    tau = (xs * xs + 2.0) / (xs * xs)
    lhs = np.abs(tau * vals["dg"] - xs * vals["g"])
    rhs = np.abs(np.asarray(tf.htilde(xs), dtype=float))
    assert np.max(np.abs(lhs - rhs)) <= 1e-8


@pytest.mark.parametrize("tf", SUITE, ids=lambda t: t.name)
def test_derivatives_match_finite_differences(tf):
    # identity-assembled g' vs centered differences of quadrature g
    step = 1e-5
    xs = np.array([x for x in np.concatenate((-np.arange(0.1, 6.0, 0.37),
                                               np.arange(0.1, 6.0, 0.37)))
                   if all(abs(abs(x) - abs(k)) > 1e-3 for k in tf.kinks)])
    g = lambda t: stein_solution(tf, t)["g"]
    fd = (g(xs + step) - g(xs - step)) / (2 * step)
    assert np.max(np.abs(stein_solution(tf, xs)["dg"] - fd)) <= 1e-5


@pytest.mark.parametrize("tf", SUITE, ids=lambda t: t.name)
def test_identity_f_check(tf):
    assert identity_f_check(tf) <= 1e-7


def test_identity_f_check_constant_h():
    const = make_test_function("const", lambda x: np.full_like(np.asarray(x, float), 1.0),
                               lambda x: np.zeros_like(np.asarray(x, float)), c=1.0)
    assert identity_f_check(const) <= 1e-12


def test_theorem_check_contract():
    class Cfg:
        n_worlds = 4

    rep = CouplingReport(e_abs=0.0, e_wabs=0.0, e_inv=0.0, e_ratio=0.0, rhs_bound=0.5)
    assert not theorem_check(Cfg(), rep, 1.0)["holds"]
    assert theorem_check(Cfg(), rep, 0.4)["holds"]


def test_suite_csv_rows():
    recs = [supnorm_suite(IDENT)]
    rows = suite_csv_rows(recs)
    assert rows[0][0] == "h_name"
    assert len(rows) == 2 and len(rows[1]) == len(rows[0])
