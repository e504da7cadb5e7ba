import math
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from numpy.polynomial import hermite_e as herme

from miworlds.errors import MiwError, MiwValidation
from miworlds.numerics import integrate_adaptive, newton_bracketed
from miworlds.targets import (
    MAX_ORDER,
    SQRT_2PI,
    Baseline,
    KernelValue,
    _cdf_and_integral,
    _horner,
    _inverse_stein_poly,
    cdf_pk,
    cdf_pk_grid,
    cdf_pk_integral,
    ground_baseline,
    hermite_he,
    hermite_square_baseline,
    kernel_from_baseline,
    maxwell_square_baseline,
    monomial_baseline,
    normal_cdf,
    pdf_pk,
    phi,
    stein_kernel_tau,
    stein_kernel_times_pdf,
)
from reference import inverse_stein_operator


def test_hermite_values():
    assert hermite_he(0, 3.7) == 1.0
    assert hermite_he(2, 0.0) == -1.0
    assert hermite_he(3, 2.0) == 2.0


def test_hermite_order_guard():
    with pytest.raises(MiwValidation, match=r"^order 31 outside supported range 0\.\.30$"):
        hermite_he(31, 0.0)


@pytest.mark.parametrize("k", [True, 2.0])
def test_hermite_order_is_an_integer_not_a_bool(k):
    with pytest.raises(MiwValidation, match=rf"^order {k!r} outside supported range 0\.\.30$"):
        hermite_square_baseline(k)


@pytest.mark.parametrize("r", [2.0, True, 3, -2])
def test_monomial_exponent_is_an_even_nonnegative_integer(r):
    with pytest.raises(MiwValidation, match="^monomial exponent must be an even "
                                            "nonnegative integer$"):
        monomial_baseline(r)


def test_hermite_orthogonality():
    for j in range(6):
        for k in range(6):
            val = integrate_adaptive(
                lambda x: hermite_he(j, x) * hermite_he(k, x) * float(phi(x)),
                -12.0,
                12.0,
            )
            expect = math.factorial(k) if j == k else 0.0
            assert abs(val - expect) <= 1e-8


def test_hermite_square_coefficients_are_floats_of_the_integer_route():
    # He_k^2 / k! divided by float(k!): the bits of dividing by the integer k!,
    # which is past int64 from k = 21 on and then gave an object array
    xs = np.linspace(-3.0, 3.0, 7)
    for k in range(MAX_ORDER + 1):
        he = Polynomial(herme.herme2poly([0.0] * k + [1.0]))
        old = np.array((he * he / math.factorial(k)).coef, dtype=float)
        bp = hermite_square_baseline(k).b_poly
        assert bp.coef.dtype == np.float64 and bp.coef.tobytes() == old.tobytes()
        assert bp(xs).dtype == np.float64


def test_pdf_values():
    assert pdf_pk(0, 0.0) == pytest.approx(1.0 / SQRT_2PI, abs=1e-15)
    assert pdf_pk(1, 0.0) == 0.0
    assert pdf_pk(1, math.sqrt(2.0)) == pytest.approx(
        2.0 * math.exp(-1.0) / SQRT_2PI, abs=1e-15
    )
    # the commonly quoted 0.2936268 rounds e^{-1} to 0.368; the exact
    # mode is 0.29352532...
    assert pdf_pk(1, math.sqrt(2.0)) == pytest.approx(0.2936268, abs=2e-4)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_pdf_normalized_even_nonnegative(k):
    mass = integrate_adaptive(lambda x: float(pdf_pk(k, x)), -12.0, 12.0)
    assert abs(mass - 1.0) <= 1e-10
    xs = np.linspace(-5, 5, 101)
    assert np.all(pdf_pk(k, xs) >= 0.0)
    assert np.allclose(pdf_pk(k, xs), pdf_pk(k, -xs), atol=1e-15)


def test_cdf_values():
    assert cdf_pk(1, 0.0) == pytest.approx(0.5, abs=1e-14)
    assert cdf_pk(0, 1.96) == pytest.approx(normal_cdf(1.96), abs=1e-14)
    assert abs(normal_cdf(1.96) - 0.9750021) <= 5e-7


@pytest.mark.parametrize("x", [-2.0, -1.0, 0.5, 3.0])
def test_cdf_k1_closed_form_vs_quadrature(x):
    oracle = integrate_adaptive(lambda t: float(pdf_pk(1, t)), -12.0, x)
    assert abs(cdf_pk(1, x) - oracle) <= 1e-10


def test_cdf_k2_closed_form_oracle():
    # P_2(x) = Phi(x) - (x^3 + x) phi(x) / 2 by repeated parts
    for x in (-2.5, -0.3, 0.0, 1.1, 3.3):
        closed = normal_cdf(x) - (x ** 3 + x) * float(phi(x)) / 2.0
        assert abs(cdf_pk(2, x) - closed) <= 1e-10


@pytest.mark.parametrize("k", [1, 2])
def test_cdf_monotone_and_tails(k):
    xs = np.linspace(-12.0, 12.0, 97)
    vals = cdf_pk_grid(k, xs)
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[0] <= 1e-13
    assert vals[-1] >= 1.0 - 1e-10
    # grid pass agrees with the scalar route
    for x in (-3.0, 0.25, 2.0):
        assert abs(cdf_pk(k, x) - cdf_pk_grid(k, np.array([x]))[0]) <= 1e-11


def _he_coefficients(k):
    """Integer power-basis coefficients of He_k."""
    prev, cur = [1], [0, 1]
    for n in range(1, k):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= n * c
        prev, cur = cur, nxt
    return prev if k == 0 else cur


@pytest.mark.parametrize("k", [1, 2, 3, 5, 10, 30])
def test_cdf_and_integral_match_mpmath(k):
    # A route independent of the library's: He_k^2 expanded exactly in the
    # power basis, integrated against phi by I_n = -x^{n-1} phi + (n-1) I_{n-2}
    # at 60 digits, where the basis' cancellation costs nothing.
    mp = pytest.importorskip("mpmath")
    he = _he_coefficients(k)
    sq = [sum(he[i] * he[n - i] for i in range(max(0, n - k), min(n, k) + 1))
          for n in range(2 * k + 1)]
    xs = (-6.0, -1.3, 0.0, 0.7, 4.0)
    with mp.workdps(60):
        for x in xs:
            x_mp = mp.mpf(x)
            I = [mp.ncdf(x_mp), -mp.npdf(x_mp)]
            for n in range(2, 2 * k + 2):
                I.append(-x_mp ** (n - 1) * mp.npdf(x_mp) + (n - 1) * I[n - 2])
            F = mp.fsum(c * I[n] for n, c in enumerate(sq)) / mp.factorial(k)
            # int_{-inf}^x F = x F(x) - int_{-inf}^x t p(t) dt
            A = x_mp * F - mp.fsum(c * I[n + 1] for n, c in enumerate(sq)) / mp.factorial(k)
            assert abs(cdf_pk(k, x) - float(F)) <= 1e-13
            assert abs(cdf_pk_integral(k, x) - float(A)) <= 1e-13
    grid = np.asarray(xs)
    assert np.array_equal(cdf_pk_grid(k, grid), cdf_pk(k, grid))
    assert np.array_equal(cdf_pk_integral(k, grid), [cdf_pk_integral(k, x) for x in xs])


def test_cdf_integral_k1_closed_form():
    for x in (-2.0, 0.0, 1.5):
        expect = x * normal_cdf(x) + 2.0 * float(phi(x))
        assert cdf_pk_integral(1, x) == pytest.approx(expect, abs=1e-15)


def test_cdf_grid_rejects_descending():
    with pytest.raises(MiwValidation, match="^grid must be ascending$"):
        cdf_pk_grid(2, np.array([1.0, 0.0]))


def test_baseline_shapes():
    g = ground_baseline()
    m = maxwell_square_baseline()
    h2 = hermite_square_baseline(2)
    assert g.b(3.0) == 1.0 and g.B(3.0) == 3.0
    assert m.b(2.0) == 4.0 and m.B(2.0) == pytest.approx(8.0 / 3.0, abs=1e-15)
    # k=2 cumulative: x^5/10 - x^3/3 + x/2
    for x in (-1.5, 0.3, 2.0):
        assert float(h2.B(x)) == pytest.approx(
            x ** 5 / 10 - x ** 3 / 3 + x / 2, abs=1e-13
        )
    assert h2.zeros_of_b == pytest.approx((-1.0, 1.0), abs=1e-12)


_SHIPPED = [
    ground_baseline(),
    maxwell_square_baseline(),
    monomial_baseline(4),
    hermite_square_baseline(2),
    hermite_square_baseline(3),
    monomial_baseline(8),
    monomial_baseline(4).normalized(),
    monomial_baseline(8).normalized(),
    hermite_square_baseline(0),
    hermite_square_baseline(4),
]


@pytest.mark.parametrize("bl", _SHIPPED + [hermite_square_baseline(30)])
def test_baseline_evaluates_its_polynomial(bl):
    # b, b' and B are the polynomial, its derivative and its integral, bit
    # for bit on floats and arrays; a constant b keeps an array's shape
    xs = np.linspace(-3.0, 3.0, 31)
    for f, p in ((bl.b, bl.b_poly), (bl.db, bl.b_poly.deriv()), (bl.B, bl.b_poly.integ())):
        assert np.array_equal(f(xs), p(xs))
        assert all(f(float(x)) == p(float(x)) for x in xs)
        assert np.shape(f(np.zeros((2, 3)))) == (2, 3)


# float coefficients, as _horner takes them (k = 30's He_k^2 / k! has object ones)
_HORNER_POLYS = {name: Polynomial(np.array(p.coef, dtype=float)) for name, p in {
    "constant": Polynomial([2.5]),
    "hermite-sq-5 B": hermite_square_baseline(5).b_poly.integ(),
    "hermite-sq-30 b": hermite_square_baseline(30).b_poly,
    "x8 b'": monomial_baseline(8).normalized().b_poly.deriv(),
}.items()}


@pytest.mark.parametrize("p", _HORNER_POLYS.values(), ids=_HORNER_POLYS)
@pytest.mark.parametrize("n", [1, 7, 4096, 32768])
def test_horner_in_place_matches_polyval_bit_for_bit(p, n):
    # the in-place Horner performs polyval's IEEE operations in its order, and
    # leaves its argument alone
    x = np.random.default_rng(n).uniform(-6.0, 6.0, n)
    x[0] = -0.0
    before = x.copy()
    got = _horner(p.coef)(x)
    assert type(got) is np.ndarray and got.tobytes() == p(x).tobytes()
    assert x.tobytes() == before.tobytes()


@pytest.mark.parametrize("p", _HORNER_POLYS.values(), ids=_HORNER_POLYS)
def test_horner_keeps_the_scalar_types(p):
    # a float or an int gives a float, a numpy float or a 0-d array a numpy float
    f = _horner(p.coef)
    for x, kind in ((1.5, float), (-2, float), (np.float64(0.75), np.float64),
                    (np.array(-1.25), np.float64)):
        got = f(x)
        assert type(got) is kind
        assert np.float64(got).tobytes() == np.float64(p(float(x))).tobytes()


@pytest.mark.parametrize("bl", _SHIPPED + [hermite_square_baseline(30)])
def test_target_cdf_pdf_is_both_bit_for_bit(bl):
    xs = np.concatenate((np.linspace(-9.0, 9.0, 181), [0.0, -0.0]))
    # the density is b phi / m to the bit; test_solver checks the CDF against a polynomial Q
    p = bl.target_cdf_pdf(xs)[1]
    assert p.tobytes() == (bl.b(xs) * phi(xs) / bl.phi_integral).tobytes()


def test_exponent_is_the_single_terms_power():
    # r for b = c x^r, whatever the constructor or the scale; None for more terms
    ones = [ground_baseline(), hermite_square_baseline(0), maxwell_square_baseline(),
            hermite_square_baseline(1), monomial_baseline(4).normalized(), monomial_baseline(8)]
    assert [bl.exponent for bl in ones] == [0, 0, 2, 2, 4, 8]
    assert Baseline(Polynomial([0.0, 0.0, 3.0]), (0.0,)).exponent == 2
    assert hermite_square_baseline(2).exponent is None
    assert Baseline(Polynomial([1.0, 0.0, 1.0])).exponent is None


@pytest.mark.parametrize("build", [ground_baseline, maxwell_square_baseline])
def test_fixed_baselines_are_shared_and_read_only(build):
    bl = build()
    assert build() is bl
    with pytest.raises(ValueError, match="read-only"):
        bl.b_poly.coef[0] = 2.0
    with pytest.raises(FrozenInstanceError):
        bl.zeros_of_b = ()
    assert monomial_baseline(0) is ground_baseline()


def test_baselines_from_a_shared_one_are_new():
    m = maxwell_square_baseline()
    tripled = replace(m, b_poly=m.b_poly * 3.0)
    assert tripled is not m and tripled.b_poly.coef.tolist() == [0.0, 0.0, 3.0]
    assert not tripled.b_poly.coef.flags.writeable
    back = tripled.normalized()
    assert back is not tripled and back is not m and back.phi_integral == 1.0
    assert np.array_equal(back.b_poly.coef, m.b_poly.coef)
    assert m.normalized() is m and m.b_poly.coef.tolist() == [0.0, 0.0, 1.0]
    # the caller's coefficients are copied, so they stay writable
    c = np.array([1.0, 0.0, 1.0])
    bl = Baseline(Polynomial(c))
    c[0] = 5.0
    assert bl.b(0.0) == 1.0 and not bl.b_poly.coef.flags.writeable


def test_baseline_copies_the_callers_polynomial():
    p = Polynomial([1.0, 0.0, 1.0])
    bl = Baseline(p)
    p.coef[2] = 3.0  # the caller's own array is not frozen
    assert bl.b_poly is not p and not bl.b_poly.coef.flags.writeable
    assert bl.b_poly.coef.tolist() == [1.0, 0.0, 1.0] and bl.b(1.5) == 3.25


@pytest.mark.parametrize("mapped, maps", [
    (Polynomial([0.0, 0.0, 1.0], domain=[0, 2]), r"domain \[0\.0, 2\.0\] to window \[-1\.0, 1\.0\]"),
    (Polynomial([0.0, 0.0, 1.0], window=[0, 1]), r"domain \[-1\.0, 1\.0\] to window \[0\.0, 1\.0\]"),
], ids=["domain", "window"])
def test_baseline_refuses_a_mapped_polynomial(mapped, maps):
    # the coefficients are read in the power basis of x, which a mapped
    # polynomial is not: on domain [0, 2] its value at 1.5 is 0.25, not 2.25
    with pytest.raises(MiwValidation, match=f"^a baseline is in the power basis of x, "
                                            f"but its polynomial maps {maps}$"):
        Baseline(mapped)


@pytest.mark.parametrize("coef, message", [
    ([0.0, 1.0], r"^a baseline is even, but its coefficients of x, x\^3, \.\.\. are \[1\.0\]$"),
    ([1.0, 0.0, 1.0, -0.5], r"coefficients of x, x\^3, \.\.\. are \[0\.0, -0\.5\]$"),
    ([0.0], "^the zero polynomial is not a baseline$"),
    ([np.nan], r"^a baseline's coefficients must be finite, got \[nan\]$"),
    ([1.0, 0.0, np.inf], r"^a baseline's coefficients must be finite, got \[1\.0, 0\.0, inf\]$"),
], ids=["odd", "odd-top", "zero", "nan", "inf"])
def test_baseline_is_an_even_nonzero_polynomial_with_finite_coefficients(coef, message):
    # each is refused for its own fault, with no floating-point warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MiwValidation, match=message):
            Baseline(Polynomial(coef))


@pytest.mark.parametrize("coef", [[1.0, 0.0, -1.0], [-1.0, 0.0, 1.0], [-1.0]],
                         ids=["1-x^2", "x^2-1", "negative"])
def test_baseline_refuses_a_phi_integral_that_is_not_positive(coef):
    # b phi / m is no law for m = E b(Z) <= 0; 1 - x^2 and x^2 - 1 have m = 0, where
    # a solve once divided by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MiwValidation, match=r"^a baseline's phi-integral m = E b\(Z\) "
                                                r"must be positive, got -?[0-9.]+$"):
            Baseline(Polynomial(coef))


def test_every_shipped_baseline_has_a_positive_phi_integral():
    # ground, Maxwell, hermite-sq k = 0..30 and monomial r = 0, 2, ..., 300 all
    # build, normalized as the CLI takes them too
    shipped = [ground_baseline(), maxwell_square_baseline(),
               *(hermite_square_baseline(k) for k in range(31)),
               *(monomial_baseline(r) for r in range(0, 301, 2))]
    assert len(shipped) == 184
    for bl in shipped:
        assert bl.phi_integral > 0.0 and bl.normalized().phi_integral > 0.0


def test_baseline_inverse_beyond_the_float_range_is_a_typed_error():
    with pytest.raises(MiwError, match="^cumulative baseline inverse out of range$"):
        ground_baseline().Binv(1e300)


@pytest.mark.parametrize("build, arg, coef", [
    (hermite_square_baseline, 0, [1.0]),
    (hermite_square_baseline, 2, [0.5, 0.0, -1.0, 0.0, 0.5]),  # (x^2 - 1)^2 / 2
    (monomial_baseline, 4, [0.0, 0.0, 0.0, 0.0, 1.0]),
])
def test_family_builders_build_per_call(build, arg, coef):
    first, second = build(arg), build(arg)
    assert first is not second and first.b_poly.coef is not second.b_poly.coef
    assert first.b_poly.coef.tolist() == second.b_poly.coef.tolist() == coef


_INTEGRAL_CASES = {
    "ground": ground_baseline(),
    "maxwell": maxwell_square_baseline(),
    "hermite-sq-2": hermite_square_baseline(2),
    "hermite-sq-3": hermite_square_baseline(3),
    "hermite-sq-4": hermite_square_baseline(4),
    "monomial-4": monomial_baseline(4).normalized(),
}


@pytest.mark.parametrize("bl", _INTEGRAL_CASES.values(), ids=_INTEGRAL_CASES)
def test_integrals_are_the_polynomial_antiderivatives(bl):
    # int b, int x b and int b/x = int (b - b(0))/x + b(0) log|q/p| by
    # Polynomial arithmetic, bit for bit, and by quadrature to 1e-12; the
    # pieces [p, q] are the rows of a two-point array
    bp = bl.b_poly
    b0 = float(bp.coef[0])
    x = Polynomial([0.0, 1.0])
    prims = (bp.integ(), (bp * x).integ(), ((bp - b0) // x).integ())
    p = np.array([-2.5, -1.0, -0.3, 0.2, 0.5, 1.7])
    q = np.array([-1.0, -0.3, -0.1, 0.5, 1.7, 3.0])
    want = [prim(q) - prim(p) for prim in prims]
    want[2] = want[2] + b0 * np.log(np.abs(q) / np.abs(p))
    got = [v[:, 0] for v in bl.integrals(np.stack((p, q), axis=-1))]
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    # neighbouring pieces of one array of points share their common end
    chained = bl.integrals(np.array([-2.5, -1.0, -0.3, -0.1]))
    for g, w in zip(chained, got):
        assert np.array_equal(g, w[:3])
    for f, g in zip((bl.b, lambda t: t * bl.b(t), lambda t: bl.b(t) / t), got):
        quad = [integrate_adaptive(lambda t: float(f(t)), lo, hi) for lo, hi in zip(p, q)]
        assert np.allclose(g, quad, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("bl, below, above", [
    (ground_baseline(), -math.inf, math.inf),
    (hermite_square_baseline(4), -math.inf, math.inf),  # b(0) = 3/8
    (maxwell_square_baseline(), -0.5, 0.5),
    (hermite_square_baseline(3), -19 / 36, 19 / 36),  # b = (x^3 - 3x)^2 / 6
])
def test_integral_of_b_over_x_on_pieces_ending_at_zero(bl, below, above):
    # b/x is integrable at 0 exactly when b(0) = 0; no warning either way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ibx = bl.integrals(np.array([-1.0, 0.0, 1.0]))[2]
    assert ibx.tolist() == pytest.approx([below, above], rel=1e-15)


@pytest.mark.parametrize("bl", _SHIPPED)
def test_baseline_parity_and_inverse(bl):
    xs = np.linspace(-3.0, 3.0, 31)
    for x in xs:
        assert float(bl.b(x)) == pytest.approx(float(bl.b(-x)), abs=1e-10)
        assert float(bl.b(x)) >= -1e-14
        assert float(bl.B(x)) == pytest.approx(-float(bl.B(-x)), abs=1e-10)
    for x in (-2.0, -0.7, 0.0, 0.4, 1.9):
        if not bl.near_zero_of_b(x, 1e-3):
            assert bl.Binv(float(bl.B(x))) == pytest.approx(x, abs=1e-8)


def test_monomial_normalization():
    for r, moment in ((4, 3.0), (8, 105.0)):  # E[Z^r] = (r-1)!!
        bl = monomial_baseline(r)
        assert bl.phi_integral == pytest.approx(moment, abs=1e-10)
        nb = bl.normalized()
        assert np.array_equal(nb.b_poly.coef, bl.b_poly.coef / moment)
        assert nb.normalized() is nb
        mass = integrate_adaptive(lambda x: float(nb.b(x) * phi(x)), -12.0, 12.0)
        assert abs(mass - 1.0) <= 1e-10
        for x in (-2.0, -0.7, 0.4, 1.9):
            assert nb.Binv(float(nb.B(x))) == pytest.approx(x, rel=1e-14)


def test_monomial_moment_overflow_is_a_typed_error():
    # E[Z^300] = 299!! is the last even moment below the float maximum; beyond
    # it the back-substitution overflows quietly and the check names the exponent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(monomial_baseline(300).phi_integral)
        for r in (302, 400):
            with pytest.raises(MiwValidation, match=f"exponent {r}"):
                monomial_baseline(r).normalized()


@pytest.mark.parametrize("bl", [hermite_square_baseline(k) for k in range(9)]
                         + [monomial_baseline(r) for r in range(0, 13, 2)],
                         ids=[f"hermite_square-{k}" for k in range(9)]
                         + [f"monomial-{r}" for r in range(0, 13, 2)])
def test_phi_integral_matches_mpmath(bl):
    # E b(Z) over the same float coefficients by 40-digit quadrature; the
    # back-substitution's error stays within eps * sum |c_n| (n-1)!!
    mp = pytest.importorskip("mpmath")
    c = bl.b_poly.coef
    with mp.workdps(40):
        coef = [mp.mpf(float(v)) for v in c[::-1]]
        exact = mp.quad(lambda x: mp.polyval(coef, x) * mp.npdf(x), [-mp.inf, 0, mp.inf])
    scale = sum(abs(v) * math.prod(range(n - 1, 0, -2)) for n, v in enumerate(c) if n % 2 == 0)
    assert abs(bl.phi_integral - float(exact)) <= np.finfo(float).eps * scale


@pytest.mark.parametrize("bl", [ground_baseline(), maxwell_square_baseline()]
                         + [hermite_square_baseline(k) for k in (2, 3, 4)]
                         + [monomial_baseline(r) for r in (4, 8)],
                         ids=["ground", "maxwell_square"]
                         + [f"hermite_square-{k}" for k in (2, 3, 4)]
                         + [f"monomial-{r}" for r in (4, 8)])
def test_target_pdf_is_the_derivative_of_target_cdf(bl):
    xs = np.linspace(-5.0, 5.0, 201)
    h = 1e-5
    F = lambda t: bl.target_cdf_pdf(t)[0]
    slope = (F(xs + h) - F(xs - h)) / (2 * h)
    pdf = bl.target_cdf_pdf(xs)[1]
    # truncation h^2 |F'''| / 6 and rounding eps / h, both far below 1e-9 of the peak
    assert np.max(np.abs(slope - pdf)) <= 1e-9 * np.max(pdf)
    assert F(-12.0) < 1e-25 and abs(F(12.0) - 1.0) <= 1e-15


@pytest.mark.parametrize("bl", [ground_baseline(), maxwell_square_baseline(),
                                hermite_square_baseline(3), hermite_square_baseline(4)],
                         ids=["ground", "maxwell_square", "hermite_square-3",
                              "hermite_square-4"])
def test_near_zero_of_b_on_an_array_is_the_float_test(bl):
    z = np.array(bl.zeros_of_b)
    xs = np.concatenate((np.linspace(-3.0, 3.0, 61), z, z + 5e-9, z - 2e-8, z + 0.01))
    for tol in (1e-8, 1e-3, 0.05):
        on_zero = bl.near_zero_of_b(xs, tol)
        assert on_zero.shape == xs.shape
        per_x = [bool(bl.near_zero_of_b(x, tol)) for x in xs.tolist()]
        assert on_zero.tolist() == per_x
        assert per_x == [any(abs(x - v) < tol for v in bl.zeros_of_b) for x in xs.tolist()]


@pytest.mark.parametrize("bl", [ground_baseline(), maxwell_square_baseline(),
                                hermite_square_baseline(4), hermite_square_baseline(7)],
                         ids=["no-zero", "one-zero", "four-zeros", "seven-zeros"])
def test_near_zero_of_b_keeps_its_results_types_and_shapes(bl):
    # the zeros are held once, as a read-only array; the answers, their
    # types and their shapes are those of the per-call tuple conversion
    assert not bl._zeros.flags.writeable and bl._zeros.tolist() == list(bl.zeros_of_b)
    z = np.array(bl.zeros_of_b)
    grid = np.concatenate((np.linspace(-3.0, 3.0, 13), z, z + 5e-9, z - 2e-8))
    inputs = [0.0, 0.3, *z.tolist(), np.float64(0.3), np.asarray(0.0), np.asarray(0.7),
              grid, grid[: grid.size // 2 * 2].reshape(2, -1), grid[:0]]
    for x in inputs:
        for tol in (1e-8, 0.05):
            got = bl.near_zero_of_b(x, tol)
            want = np.any(np.abs(np.subtract.outer(x, bl.zeros_of_b)) < tol, axis=-1)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)


def test_cdf_pk_is_the_cdf_of_the_cdf_and_integral_pass():
    # F_k alone runs the same psi recurrence, so it keeps every bit, also
    # at the infinities and on Python floats, where it returns a float
    grid = np.concatenate(([-math.inf, -40.0], np.linspace(-9.0, 9.0, 181), [40.0, math.inf]))
    for k in range(MAX_ORDER + 1):
        with np.errstate(invalid="ignore"):
            F = _cdf_and_integral(k, grid)[0]
            assert cdf_pk(k, grid).tobytes() == F.tobytes()
            for x in (-math.inf, -2.5, 0.0, 1e-3, 3.75, math.inf):
                got = cdf_pk(k, x)
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(_cdf_and_integral(k, x)[0]).tobytes()


@pytest.mark.parametrize("k", [1, 2, 30])
def test_cdf_pk_and_its_integral_at_the_infinities(k):
    # F = 0 / 1 and A = 0 / inf at -inf / +inf (the recursion alone forms inf * 0
    # there), without a warning, and finite x keep their bits
    finite = np.linspace(-9.0, 9.0, 37)
    grid = np.concatenate(([-math.inf], finite, [math.inf, -math.inf]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (cdf_pk(k, -math.inf), cdf_pk(k, math.inf)) == (0.0, 1.0)
        assert (cdf_pk_integral(k, -math.inf), cdf_pk_integral(k, math.inf)) == (0.0, math.inf)
        assert all(type(v) is float for v in (cdf_pk(k, math.inf), cdf_pk_integral(k, -math.inf)))
        for f in (cdf_pk, cdf_pk_integral):
            got, alone = f(k, grid), f(k, finite)
            assert got[1:-2].tobytes() == alone.tobytes()
            assert [f(k, x) for x in finite] == alone.tolist()
        assert cdf_pk(k, grid)[[0, -2, -1]].tolist() == [0.0, 1.0, 0.0]
        assert cdf_pk_integral(k, grid)[[0, -2, -1]].tolist() == [0.0, math.inf, 0.0]


@pytest.mark.xfail(
    strict=True,
    reason="E[He_k(Z)^2]/k! is exactly 1, but phi_integral, m = c_0 - Q_1 by the "
    "back-substitution, reads 1 + 2.82e-4 at k=30 (1 - 2.2e-9 at k=20). Summing c_n (n-1)!! in exact fractions over "
    "the same float coefficients still reads 1 + 3.74e-5 at k=30 and 1 - 7.1e-9 "
    "at k=20: the error sits in the float power-basis coefficients of He_k^2/k!, "
    "not in the summation. Rounding each coefficient correctly from exact integers "
    "does not mend it: those coefficients equal today's up to k=17, phi_integral "
    "then reads 1 + 1.46e-9 at k=20 and 1 - 3.07e-4 at k=30, and the exact E b(Z) "
    "of the rounded coefficients is itself 1 - 3.37e-4 at k=30, so no float "
    "power-basis b reaches 1e-12 there.",
)
def test_hermite_square_phi_integral_is_one_at_k30():
    assert abs(hermite_square_baseline(30).phi_integral - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "bl",
    [maxwell_square_baseline(), monomial_baseline(4).normalized(),
     monomial_baseline(8).normalized()],
    ids=["maxwell", "x4-normalized", "x8-normalized"],
)
def test_closed_form_inverse_matches_newton(bl):
    # a one-term b inverts B in closed form; bracketed Newton on the same B
    # is the second route (away from 0, where B is too flat for its f_tol)
    x = np.concatenate((-np.geomspace(3.0, 0.5, 20), np.geomspace(0.5, 3.0, 20)))
    lo, hi = np.minimum(0.75 * x, 1.5 * x), np.maximum(0.75 * x, 1.5 * x)
    y = bl.B(x)
    closed = bl.Binv_within(y, lo, hi)
    assert np.all(np.abs(closed - newton_bracketed(lambda t: (bl.B(t), bl.b(t)), y, lo, hi))
                  <= 4 * np.spacing(np.abs(x)))


def test_tau_closed_forms():
    assert stein_kernel_tau(1, 1.0) == pytest.approx(3.0, abs=1e-14)
    assert stein_kernel_tau(2, 0.0) == pytest.approx(5.0, abs=1e-14)
    assert stein_kernel_tau(3, 2.0) == pytest.approx(29.5, abs=1e-12)
    with pytest.raises(MiwError, match=r"^tau_1 undefined at zero of He_1: x=0\.0$"):
        stein_kernel_tau(1, 0.0)
    with pytest.raises(MiwValidation,
                       match=r"^closed-form kernel available only for k in 1\.\.3, got 4$"):
        stein_kernel_tau(4, 1.0)


def test_inverse_stein_operator_closed_forms():
    for x in (-2.0, 0.0, 1.3):
        assert inverse_stein_operator(lambda u: 0.0, x) == pytest.approx(0.0, abs=1e-14)
        assert inverse_stein_operator(lambda u: u, x) == pytest.approx(1.0, abs=1e-10)
        assert inverse_stein_operator(lambda u: u * u - 1.0, x) == pytest.approx(
            x, abs=1e-10
        )


def test_kernel_from_baseline_examples():
    m = maxwell_square_baseline()
    assert kernel_from_baseline(m, 1.0).value == pytest.approx(3.0, abs=1e-9)
    g = ground_baseline()
    for x in (-1.0, 0.3, 2.5):
        assert kernel_from_baseline(g, x).value == pytest.approx(1.0, abs=1e-12)
    h2 = hermite_square_baseline(2)
    kv = kernel_from_baseline(h2, 2.0)
    assert kv.value == pytest.approx(29.0 / 9.0, abs=1e-8)
    assert not kv.singular


def test_kernel_convention_at_zero():
    kv = kernel_from_baseline(maxwell_square_baseline(), 0.0)
    assert kv.singular and kv.value == 1.0


def test_kernel_convention_at_an_undeclared_zero():
    # (x^2 - 1)^2 built without its zeros: b(1) = 0.0 itself marks the singularity
    bl = Baseline(Polynomial([1.0, 0.0, -2.0, 0.0, 1.0]))
    assert kernel_from_baseline(bl, 1.0) == (1.0, True)


def test_kernel_times_pdf_refuses_an_order_without_closed_form():
    with pytest.raises(MiwValidation,
                       match=r"^closed-form kernel available only for k in 1\.\.3, got 4$"):
        stein_kernel_times_pdf(4, 0.5)


_BASELINES = {
    1: maxwell_square_baseline(),
    2: hermite_square_baseline(2),
    3: hermite_square_baseline(3),
}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kernel_construction_matches_closed_form(k):
    bl = _BASELINES[k]
    xs = [x for x in np.linspace(-4.0, 4.0, 50) if not bl.near_zero_of_b(x, 0.05)]
    assert len(xs) >= 40
    for x in xs:
        kv = kernel_from_baseline(bl, float(x))
        assert abs(kv.value - stein_kernel_tau(k, float(x))) <= 1e-8


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize(
    "f,df", [(lambda x: x, lambda x: 1.0), (math.sin, math.cos)]
)
def test_integration_by_parts(k, f, df):
    lhs = integrate_adaptive(
        lambda x: float(stein_kernel_times_pdf(k, x)) * df(x), -12.0, 12.0
    )
    rhs = integrate_adaptive(lambda x: x * f(x) * float(pdf_pk(k, x)), -12.0, 12.0)
    assert abs(lhs - rhs) <= 1e-8


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_exact_kernel_matches_quadrature_and_closed_form(k):
    # the back-substituted polynomial against the quadrature route of the
    # Gaussian inverse Stein operator and, for k <= 3, the closed-form tau_k
    bl = maxwell_square_baseline() if k == 1 else hermite_square_baseline(k)
    nb = bl.normalized()
    xs = [x for x in np.linspace(-4.0, 4.0, 50) if not bl.near_zero_of_b(x, 0.05)]
    for x in map(float, xs):
        exact = kernel_from_baseline(bl, x).value
        quad = 1.0 + inverse_stein_operator(lambda u: float(nb.db(u)), x) / float(nb.b(x))
        assert abs(exact - quad) <= 1e-12 * max(1.0, abs(exact))
        if k <= 3:
            assert abs(exact - stein_kernel_tau(k, x)) <= 1e-12 * max(1.0, abs(exact))


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


_RNG_XS = np.random.default_rng(10).uniform(-9.0, 9.0, 400).tolist()


@pytest.mark.parametrize("k", range(MAX_ORDER + 1))
def test_hermite_float_path_is_bit_identical(k):
    # Python floats, ints, numpy float64 and 0-d arrays against the array route;
    # a 0-d array equals a float under ==, so the type is checked on its own
    xs = _RNG_XS + [0.0, -0.0, 1e-300, 1e200, math.inf, -math.inf, math.nan]
    scalars = (xs + list(range(-4, 5)) + [np.float64(x) for x in xs[:50]]
               + [np.asarray(x) for x in xs[:50]])
    with np.errstate(all="ignore"):  # inf - inf in the array route
        for x in scalars:
            he = hermite_he(k, x)
            assert type(he) is float
            row = hermite_he(k, np.array([x], dtype=float))
            assert type(row) is np.ndarray and row.shape == (1,)
            assert _bits(he) == _bits(row[0])


def test_hermite_array_result_is_a_new_array():
    arr = np.array([0.5, -1.5, 2.0])
    for k in (0, 1, 2):
        he = hermite_he(k, arr)
        assert type(he) is np.ndarray and he.shape == arr.shape
        assert not np.shares_memory(he, arr)
    assert type(hermite_he(2, [0.5, 1.0])) is np.ndarray


def test_phi_float_path_is_bit_identical():
    xs = np.concatenate((np.random.default_rng(11).uniform(-40.0, 40.0, 100_000),
                         [0.0, -0.0, 5e-324, 1e200, math.inf, -math.inf, math.nan]))
    with np.errstate(over="ignore"):
        assert _bits([phi(x) for x in xs.tolist()]) == _bits(phi(xs))
    assert _bits([phi(x) for x in xs[:100]]) == _bits(phi(xs[:100]))  # np.float64


# tau_k = N_k / He_k^2 with these closed-form numerators N_k
_TAU_NUMERATOR_COEFS = {
    1: [2.0, 0.0, 1.0],
    2: [5.0, 0.0, 2.0, 0.0, 1.0],
    3: [18.0, 0.0, 9.0, 0.0, 0.0, 0.0, 1.0],
}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tau_float_paths_are_bit_identical(k):
    # the numerators against Polynomial.__call__, He_k against its array route
    num = Polynomial(_TAU_NUMERATOR_COEFS[k])
    xs = np.array(_RNG_XS + [0.5, -2.0, 3])
    for x in xs.tolist():
        he = float(hermite_he(k, np.asarray(x)))
        assert _bits(stein_kernel_tau(k, x)) == _bits(float(num(x)) / (he * he))
        ref = num(x) * (np.exp(-0.5 * np.square(x)) / SQRT_2PI) / math.factorial(k)
        assert _bits(stein_kernel_times_pdf(k, x)) == _bits(ref)
    assert _bits(stein_kernel_times_pdf(k, xs)) == _bits(
        num(xs) * phi(xs) / math.factorial(k))


def _kernel_reference(bl, x):
    """kernel_from_baseline with P back-substituted and evaluated per call."""
    if bl.near_zero_of_b(x, tol=1e-12):
        return KernelValue(1.0, True)
    bx = float(bl.b(x))
    if bx == 0.0:
        return KernelValue(1.0, True)
    db = bl.b_poly.deriv().coef
    p = [0.0] * (db.size + 1)
    for n in range(db.size - 1, 0, -1):
        p[n - 1] = db[n] + (n + 1) * p[n + 1]
    return KernelValue(1.0 + float(Polynomial(p)(x)) / bx, False)


def _case(name, bl, order=None):
    return pytest.param(bl, id=f"{name}-{order}-{bl.phi_integral:.3g}")


@pytest.mark.parametrize("bl", [_case("maxwell_square", maxwell_square_baseline()),
                                _case("ground", ground_baseline())]
                         + [_case("hermite_square", hermite_square_baseline(k), k)
                            for k in range(1, 7)]
                         + [_case("monomial", monomial_baseline(r), r) for r in (2, 4, 6, 8)]
                         + [_case("monomial", monomial_baseline(r).normalized(), r)
                            for r in (2, 4, 6, 8)])
def test_kernel_from_baseline_is_bit_identical_to_per_call_P(bl):
    xs = np.concatenate((np.linspace(-5.0, 5.0, 201), _RNG_XS, bl.zeros_of_b)).tolist()
    for x in xs:
        kv, ref = kernel_from_baseline(bl, x), _kernel_reference(bl, x)
        assert kv.singular == ref.singular
        assert _bits(kv.value) == _bits(ref.value)


def test_inverse_stein_poly_is_both_back_substitutions():
    # R' - xR = f as the target CDF solved it for Q (f = b - m) and the
    # baseline for P (f = -b'), each by its own loop
    for bl in ([ground_baseline(), maxwell_square_baseline()]
               + [hermite_square_baseline(k) for k in range(1, 9)]
               + [monomial_baseline(r).normalized() for r in (2, 4, 6, 8)]):
        c = bl.b_poly.coef
        Q = np.zeros(c.size + 1)
        for n in range(c.size - 1, 0, -1):
            Q[n - 1] = (n + 1) * Q[n + 1] - c[n]
        assert _bits(_inverse_stein_poly(c)) == _bits(Q)
        db = bl.b_poly.deriv().coef
        p = [0.0] * (db.size + 1)
        for n in range(db.size - 1, 0, -1):
            p[n - 1] = db[n] + (n + 1) * p[n + 1]
        assert _bits(_inverse_stein_poly(-db)) == _bits(p)
