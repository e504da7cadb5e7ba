import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from miworlds.errors import KernelSingularity, UnsupportedOrder
from miworlds.numerics import integrate_adaptive, newton_bracketed
from miworlds.targets import (
    MAX_ORDER,
    SQRT_2PI,
    KernelValue,
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
    with pytest.raises(UnsupportedOrder):
        hermite_he(31, 0.0)


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
    with pytest.raises(ValueError):
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


@pytest.mark.xfail(
    strict=True,
    reason="E[He_k(Z)^2]/k! is exactly 1, but _poly_phi_integral reads 1 + 3.48e-5 "
    "at k=30 (1 - 7.5e-9 at k=20). Summing c_n (n-1)!! in exact fractions over "
    "the same float coefficients still reads 1 + 3.74e-5 at k=30 and 1 - 7.1e-9 "
    "at k=20: the error sits in the float power-basis coefficients of He_k^2/k!, "
    "not in the summation.",
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
    assert np.all(np.abs(closed - newton_bracketed(bl.B, bl.b, y, lo, hi))
                  <= 4 * np.spacing(np.abs(x)))


def test_tau_closed_forms():
    assert stein_kernel_tau(1, 1.0) == pytest.approx(3.0, abs=1e-14)
    assert stein_kernel_tau(2, 0.0) == pytest.approx(5.0, abs=1e-14)
    assert stein_kernel_tau(3, 2.0) == pytest.approx(29.5, abs=1e-12)
    with pytest.raises(KernelSingularity):
        stein_kernel_tau(1, 0.0)
    with pytest.raises(UnsupportedOrder):
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
    # Python floats, ints and numpy float64 against the 0-d array route
    xs = _RNG_XS + [0.0, -0.0, 1e-300, 1e200, math.inf, -math.inf, math.nan]
    with np.errstate(all="ignore"):  # inf - inf in the array route
        for x in xs + list(range(-4, 5)) + [np.float64(x) for x in xs[:50]]:
            he = hermite_he(k, x)
            assert type(he) is float
            assert _bits(he) == _bits(hermite_he(k, np.asarray(x, dtype=float)))


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


def _case(bl, order=None):
    return pytest.param(bl, id=f"{bl.family}-{order}-{bl.phi_integral:.3g}")


@pytest.mark.parametrize("bl", [_case(maxwell_square_baseline()), _case(ground_baseline())]
                         + [_case(hermite_square_baseline(k), k) for k in range(1, 7)]
                         + [_case(monomial_baseline(r), r) for r in (2, 4, 6, 8)]
                         + [_case(monomial_baseline(r).normalized(), r) for r in (2, 4, 6, 8)])
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
