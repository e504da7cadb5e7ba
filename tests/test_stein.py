import dataclasses
import math

import numpy as np
import pytest

from miworlds.numerics import TAIL_CUTOFF, _tail_integrate, _tail_layout
from miworlds.stein import TestFunction as TF  # aliased so pytest does not collect it
from miworlds.stein import (
    _SUP_GRID,
    _layouts,
    _solution,
    _sup_layouts,
    fixed_suite,
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


def g0_of(tf, xs):
    """g0 through layouts built for these points."""
    xs = np.asarray(xs, dtype=float)
    with np.errstate(invalid="ignore"):  # g', chi and chi' at x = +-inf
        return _solution(tf, xs, _layouts(xs, tf.kinks))["g0"]


def _square():
    return TF(
        "square", lambda x: np.square(x), lambda x: 2.0 * np.asarray(x, float), c=16.0
    )


def test_means():
    const = TF("const", lambda x: np.full_like(np.asarray(x, float), 2.5),
               lambda x: np.zeros_like(np.asarray(x, float)), c=1.0)
    cases = [
        # E |X| = 4 / sqrt(2 pi), with the kink of |x| at 0
        (TF("abs", np.abs, np.sign, c=1.0, kinks=(0.0,)),
         4.0 / math.sqrt(2.0 * math.pi)),
        (_square(), 3.0),
        (const, 2.5),
    ]
    for tf, mean in cases:
        assert tf.mean_under_p1 == pytest.approx(mean, abs=1e-12), tf.name
    # every suite function is odd, and the two halves of the pass mirror
    for tf in SUITE:
        assert tf.mean_under_p1 == 0.0, tf.name


def test_a_test_function_computes_its_own_mean():
    # the mean is derived from h and kinks, never passed in; c and kinks are
    # normalised to a float and a tuple of floats
    tf = TF("abs", np.abs, np.sign, 1, [0])
    assert type(tf.c) is float and tf.kinks == (0.0,) and type(tf.kinks[0]) is float
    assert tf == TF("abs", np.abs, np.sign, 1.0, (0.0,))
    with pytest.raises(TypeError):
        TF("abs", np.abs, np.sign, 1.0, (0.0,), 0.0)
    shifted = dataclasses.replace(tf, h=lambda x: np.abs(x) + 2.0)
    assert shifted.mean_under_p1 == pytest.approx(tf.mean_under_p1 + 2.0, rel=1e-14)


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
    const = TF("const", lambda x: np.full_like(np.asarray(x, float), 1.3),
               lambda x: np.zeros_like(np.asarray(x, float)), c=1.0)
    g = stein_solution(const, [-2.0, 0.1, 4.0])["g"]
    assert np.all(np.abs(g) <= 1e-10)


def test_g0_square_vanishes_at_origin():
    assert g0_of(_square(), [1e-9])[0] == pytest.approx(0.0, abs=1e-9)
    # brute-force quadrature oracle
    from miworlds.numerics import integrate_adaptive

    oracle = integrate_adaptive(
        lambda y: y * y * (y * y - 3.0) * math.exp(-0.5 * y * y), 0.0, 12.0
    )
    assert oracle == pytest.approx(0.0, abs=1e-10)


def test_vectorized_matches_scalar():
    for tf in SUITE + (_square(),):
        xs = np.array([-6.0, -1.0, -0.999, -1e-4, 0.0, 1e-4, 0.5, 1.0, 2.7, 7.5])
        grid = g0_of(tf, xs)
        scalar = np.array([g0_scalar(float(v), tf.htilde, tf.kinks) for v in xs])
        assert np.max(np.abs(grid - scalar)) <= 1e-10 * np.maximum(
            1.0, np.max(np.abs(scalar))
        )


def test_g0_identity_closed_form_on_default_grid():
    # h(x) = x: g0 = sign(x)(x^2+2), with the x <= 0 branch at 0
    g0 = g0_of(IDENT, DEFAULT_GRID)
    exact = np.where(DEFAULT_GRID > 0.0, 1.0, -1.0) * (DEFAULT_GRID ** 2 + 2.0)
    assert np.all(np.abs(g0 - exact) <= 1e-12 * np.maximum(1.0, np.abs(g0)))


@pytest.mark.parametrize("name", ["sine", "clipped_linear"])
def test_g0_matches_mpmath(name):
    mp = pytest.importorskip("mpmath")
    tf = {t.name: t for t in SUITE}[name]
    h = {"sine": mp.sin,
         "clipped_linear": lambda u: max(mp.mpf(-1), min(mp.mpf(1), u))}[name]
    xs = [-8.0, -1.0 - 1e-9, -1.0 + 1e-9, -1e-4, 0.0, 0.5, 1.0, 7.999]
    got = g0_of(tf, np.array(xs))
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
        ref = g0_of(tf, sorted_grid)
        # the same distinct points give the same panels, so equal bits
        expect = np.concatenate((ref[perm], ref[perm[:50]], ref[[zero, zero]]))
        assert np.array_equal(g0_of(tf, shuffled), expect)


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
        value = _tail_integrate(_tail_layout(np.array([t, 0.5, 3.0]), clipped.kinks), f)
        nodes = np.concatenate(seen, axis=1)
        lo, hi = min(t, kink), max(t, kink)
        assert np.any(np.all((nodes >= lo) & (nodes <= hi), axis=0))
        ref = g0_scalar(float(t), clipped.htilde, clipped.kinks)
        assert value[0] == pytest.approx(ref, rel=1e-12)


def test_g0_is_zero_at_and_beyond_the_cutoff():
    L = TAIL_CUTOFF
    xs = np.array([-13.0, -L, L, 13.0, np.inf, -np.inf])
    for tf in SUITE:
        assert np.all(g0_of(tf, xs) == 0.0)
        assert np.isnan(g0_of(tf, np.array([np.nan, 1.0]))[0])


def test_symmetry_parity():
    # odd h gives odd g; even h gives even g
    xs = np.array([0.3, 1.1, 2.6, 4.0])
    assert np.allclose(g0_of(IDENT, xs), -g0_of(IDENT, -xs), atol=1e-12)
    even = _square()
    assert np.allclose(g0_of(even, xs), g0_of(even, -xs), atol=1e-12)


@pytest.mark.parametrize("tf", SUITE, ids=lambda t: t.name)
def test_supnorm_bounds(tf):
    rec = supnorm_suite(tf)
    assert rec["pass"]
    assert rec["sup_g"] <= 3.0 * tf.c
    assert rec["sup_dg"] <= 4.0 * tf.c
    assert rec["sup_chi"] <= 6.0 * tf.c
    assert rec["sup_dchi"] <= 7.0 * tf.c


SUP_KEYS = ("g", "dg", "chi", "dchi")
OFF_KINK = 1.2345678  # not a point of the sup-norm grid
CLIPPED_OFF_GRID = TF(
    "clipped_off_grid",
    lambda x: np.clip(x, -OFF_KINK, OFF_KINK),
    lambda x: np.where(np.abs(np.asarray(x, dtype=float)) < OFF_KINK, 1.0, 0.0),
    c=1.0,
    kinks=(-OFF_KINK, OFF_KINK),
)


@pytest.mark.parametrize("tf", SUITE + (CLIPPED_OFF_GRID,), ids=lambda t: t.name)
def test_supnorm_suite_matches_a_fresh_layout(tf):
    # the shared layouts give the bits of layouts built for this call, on
    # every call: each array, and the suprema the suite reports
    fresh = stein_solution(tf, _SUP_GRID)
    for _ in range(2):
        rec = supnorm_suite(tf)
        assert [rec[f"sup_{k}"] for k in SUP_KEYS] == [
            float(np.max(np.abs(fresh[k]))) for k in SUP_KEYS]
        off_grid = tuple(k for k in tf.kinks if k not in (-1.0, 1.0))
        shared = _solution(tf, _SUP_GRID, _sup_layouts(off_grid))
        assert all(np.array_equal(shared[k], fresh[k]) for k in fresh)


def test_an_off_grid_kink_gets_its_own_layout():
    # a layout without the kinks +-1.2345678 gives other bits, so the suite's
    # equality with a fresh layout above rests on the kinks entering its key
    assert OFF_KINK not in _SUP_GRID and -OFF_KINK not in _SUP_GRID
    fresh = stein_solution(CLIPPED_OFF_GRID, _SUP_GRID)
    kink_free = _solution(CLIPPED_OFF_GRID, _SUP_GRID, _sup_layouts(()))
    assert not np.array_equal(kink_free["g0"], fresh["g0"])
    rec = supnorm_suite(CLIPPED_OFF_GRID)
    assert [rec[f"sup_{k}"] for k in SUP_KEYS] != [
        float(np.max(np.abs(kink_free[k]))) for k in SUP_KEYS]


def test_sup_layouts_are_shared_and_read_only():
    assert fixed_suite() is fixed_suite()
    _sup_layouts.cache_clear()
    records = [supnorm_suite(tf) for tf in fixed_suite()]
    # the kinks +-1 of clipped_linear are grid points: one entry serves all four
    assert _sup_layouts.cache_info()[:2] == (3, 1)  # hits, misses
    assert [supnorm_suite(tf) for tf in fixed_suite()] == records
    pos, factors, upper, lower = _sup_layouts(())
    for arr in (pos, *factors, *upper, *lower):
        assert isinstance(arr, np.ndarray) and not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        upper[0][0, 0] = 1.0


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


def _centred_dg(tf, step=1e-5):
    """Grid points away from the kinks, g there and g' by centred differences of
    the quadrature g."""
    xs = np.array([x for x in np.concatenate((-np.arange(0.1, 6.0, 0.37),
                                               np.arange(0.1, 6.0, 0.37)))
                   if all(abs(abs(x) - abs(k)) > 1e-3 for k in tf.kinks)])
    g = lambda t: stein_solution(tf, t)["g"]
    return xs, g(xs), (g(xs + step) - g(xs - step)) / (2 * step)


@pytest.mark.parametrize("tf", SUITE, ids=lambda t: t.name)
def test_eq1_holds_for_finite_difference_derivative(tf):
    # |tau_1 g' - x g| = |h - mean| with tau_1 = (x^2+2)/x^2, g' not from the
    # identity that assembles dg; tau_1 scales the differences' error up near 0
    xs, g, fd = _centred_dg(tf)
    tau = (xs * xs + 2.0) / (xs * xs)
    lhs = np.abs(tau * fd - xs * g)
    rhs = np.abs(np.asarray(tf.htilde(xs), dtype=float))
    assert np.all(np.abs(lhs - rhs) <= 1e-8 * tau)


@pytest.mark.parametrize("tf", SUITE, ids=lambda t: t.name)
def test_derivatives_match_finite_differences(tf):
    # identity-assembled g' vs centered differences of quadrature g
    xs, _, fd = _centred_dg(tf)
    assert np.max(np.abs(stein_solution(tf, xs)["dg"] - fd)) <= 1e-5


def test_theorem_check_contract():
    class Cfg:
        n_worlds = 4

    rep = CouplingReport(e_abs=0.0, e_wabs=0.0, e_inv=0.0, e_ratio=0.0, rhs_bound=0.5)
    assert not theorem_check(Cfg(), rep, 1.0)["holds"]
    assert theorem_check(Cfg(), rep, 0.4)["holds"]


def test_suite_csv_rows():
    recs = [supnorm_suite(IDENT)]
    rows = suite_csv_rows(recs)
    assert rows[0] == ("h_name", "c", "sup_g", "sup_dg", "sup_chi", "sup_dchi",
                       "bound_3c", "bound_4c", "bound_6c", "bound_7c", "pass")
    assert tuple(recs[0]) == rows[0]
    assert len(rows) == 2 and len(rows[1]) == len(rows[0])
