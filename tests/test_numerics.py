import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miworlds import numerics
from miworlds.errors import MiwError, NonConvergence
from miworlds.numerics import (
    TAIL_CUTOFF,
    _tail_integrate,
    _tail_layout,
    integrate_adaptive,
    invert_monotone,
    newton_bracketed,
)
from miworlds.targets import cdf_pk, pdf_pk, phi, stein_kernel_times_pdf


def test_integrate_polynomial():
    assert abs(integrate_adaptive(lambda x: x * x, 0.0, 1.0) - 1.0 / 3.0) <= 1e-12


def test_integrate_gaussian_mass():
    phi = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    assert abs(integrate_adaptive(phi, -12.0, 12.0) - 1.0) <= 1e-12
    assert abs(integrate_adaptive(lambda x: x * x * phi(x), -12.0, 12.0) - 1.0) <= 1e-12


def test_upper_integral_grid_of_t_phi():
    # int_t^12 u phi(u) du = phi(t) - phi(12) in closed form
    t = np.arange(0, 41) / 10.0
    got = _tail_integrate(_tail_layout(t, ()), lambda u: 1.0 / u) * phi(t)
    assert np.all(np.abs(got - (phi(t) - phi(TAIL_CUTOFF))) <= 1e-15 * phi(t))


@pytest.mark.parametrize("t, rel", [
    *((t, 4 * np.finfo(float).eps) for t in (0.0, 1.0, 4.0, 8.0, 10.0, 11.0, 11.5)),
    (11.9, 1e-13), (11.99, 1e-13),
])
def test_upper_integral_grid_near_the_cutoff(t, rel):
    # the single reversed cumulative sum scales by e^{a^2/2} for a up to L
    # unshifted, which needs e^{L^2/2} to stay finite
    L = TAIL_CUTOFF
    assert 0.5 * L * L < math.log(np.finfo(float).max)
    # int_t^L u e^{(t^2-u^2)/2} du = 1 - e^{(t^2-L^2)/2}; (t-L)(t+L) keeps
    # the exponent to a few ulp where t^2 - L^2 cancels
    exact = -math.expm1(0.5 * (t - L) * (t + L))
    got = _tail_integrate(_tail_layout(np.array([t]), ()), lambda u: 1.0 / u)[0]
    assert abs(got - exact) <= rel * exact


def test_integrate_empty_interval():
    assert integrate_adaptive(lambda x: x, 2.0, 2.0) == 0.0


@given(
    st.lists(st.floats(-3, 3), min_size=2, max_size=4),
    st.lists(st.floats(-3, 3), min_size=2, max_size=4),
    st.floats(-2, 2),
    st.floats(-2, 2),
)
@settings(max_examples=40, deadline=None)
def test_integrate_linearity(c1, c2, a, b):
    p1 = np.polynomial.Polynomial(c1)
    p2 = np.polynomial.Polynomial(c2)
    lhs = integrate_adaptive(lambda x: a * p1(x) + b * p2(x), -1.0, 2.0)
    rhs = a * integrate_adaptive(lambda x: float(p1(x)), -1.0, 2.0) + b * integrate_adaptive(
        lambda x: float(p2(x)), -1.0, 2.0
    )
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_invert_monotone_sqrt2():
    assert abs(invert_monotone(lambda x: x * x, 2.0, 1.0, 2.0) - math.sqrt(2)) <= 1e-13


def test_invert_monotone_maxwell_symmetry():
    # the N=2 Maxwell shooting equation 2x^2 = 3
    r = invert_monotone(lambda x: 2 * x * x, 3.0, 1.0, 2.0)
    assert abs(r - math.sqrt(1.5)) <= 1e-13


def test_invert_monotone_exact_endpoints():
    # a target at F(lo) or F(hi) returns that end itself, not a brentq estimate
    assert invert_monotone(lambda x: x, -1.0, -1.0, 2.0) == -1.0
    assert invert_monotone(lambda x: x, 2.0, -1.0, 2.0) == 2.0
    assert invert_monotone(lambda x: x, 0.0, -1.0, 2.0) == pytest.approx(0.0, abs=1e-13)


def test_invert_monotone_cubic():
    x = invert_monotone(lambda t: t ** 3 / 3.0, 1.0 / 3.0, 0.0, 2.0)
    assert abs(x - 1.0) <= 1e-12


def test_invert_monotone_quintic_flat_point():
    # the k=2 cumulative baseline B(1) = 4/15, but B'(1) = 0 (cubic
    # tangency) so the root itself is conditioned like the cube root of
    # the residual tolerance; assert the post-condition on F, not on x
    F = lambda t: t ** 5 / 10.0 - t ** 3 / 3.0 + t / 2.0
    x = invert_monotone(F, 4.0 / 15.0, 0.0, 2.0)
    assert abs(F(x) - 4.0 / 15.0) <= 1e-13
    assert abs(x - 1.0) <= 1e-4


def test_invert_monotone_odd_zero():
    F = lambda t: t ** 5 / 10.0 - t ** 3 / 3.0 + t / 2.0
    assert invert_monotone(F, 0.0, -1.0, 1.0) == pytest.approx(0.0, abs=1e-13)


def test_invert_monotone_out_of_range():
    with pytest.raises(MiwError, match=r"^target 5 outside \[F\(lo\), F\(hi\)\] = \[0, 1\]$"):
        invert_monotone(lambda t: t, 5.0, 0.0, 1.0)


@given(st.lists(st.floats(0.05, 2.0), min_size=3, max_size=3), st.floats(-1.5, 1.5))
@settings(max_examples=40, deadline=None)
def test_invert_monotone_roundtrip(coeffs, x0):
    # random strictly increasing quintic: positive odd coefficients
    a, b, c = coeffs
    F = lambda t: a * t ** 5 + b * t ** 3 + c * t
    y = F(x0)
    x = invert_monotone(F, y, -2.0, 2.0)
    assert abs(x - x0) <= 1e-10 * max(1.0, abs(x0)) + 1e-10


def test_newton_bracketed_matches_scalar_inverse():
    # the k=2 cumulative baseline, including its flat point B'(1) = 0
    F = lambda t: t ** 5 / 10.0 - t ** 3 / 3.0 + t / 2.0
    dF = lambda t: (t * t - 1.0) ** 2 / 2.0
    lo = np.array([0.0, 0.5, 0.9, -2.0])
    hi = np.array([0.5, 1.5, 1.1, 2.0])
    y = np.array([0.1, 4.0 / 15.0, 0.267, 0.0])
    x = newton_bracketed(lambda t: (F(t), dF(t)), y, lo, hi)
    assert np.all(np.abs(F(x) - y) <= 1e-13)
    for xi, yi, l, h in zip(x, y, lo, hi):
        assert xi == pytest.approx(invert_monotone(F, yi, l, h), abs=1e-4)
    assert x[0] == pytest.approx(invert_monotone(F, 0.1, 0.0, 0.5), abs=1e-14)


def test_newton_bracketed_clamps_and_flat_roots():
    x = newton_bracketed(lambda t: (t ** 3, 3 * t * t), [5.0, -5.0, 0.0], [0.0, 0.0, -1.0],
                         [1.0, 1.0, 1.0])
    assert x[0] == pytest.approx(1.0, abs=1e-13)
    assert x[1] == pytest.approx(0.0, abs=1e-13)
    assert abs(x[2]) <= 1e-4 and abs(x[2] ** 3) <= 1e-13


def _newton_bracketed_every_element(F, dF, y, lo, hi):
    """Reference: the same steps, with F and dF on every element every time.
    Returns the roots and the number of elements not yet done at each step."""
    y, lo, hi = (np.array(v, dtype=float) for v in np.broadcast_arrays(y, lo, hi))
    x_tol = 1e-14 * np.maximum(np.abs(lo), np.abs(hi))
    f_tol = 1e-13 * np.maximum(1.0, np.abs(y))
    x = 0.5 * (lo + hi)
    done, active = np.zeros(x.shape, dtype=bool), []
    while True:
        active.append(int(np.count_nonzero(~done)))
        r = F(x) - y
        fine = np.abs(r) <= f_tol
        lo = np.where(r < 0.0, x, lo)
        hi = np.where(r > 0.0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - r / dF(x)
        inside = (newton >= lo) & (newton <= hi)
        step = np.where(inside, newton, np.where(fine, x, 0.5 * (lo + hi)))
        stop = fine | (np.abs(step - x) <= x_tol) | (hi - lo <= x_tol)
        x = np.where(done, x, step)
        done |= stop
        if np.all(done):
            return x, active


def _assert_same_bits(a, b):
    assert type(a) is type(b) and a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


_K2_B = (lambda t: t ** 5 / 10.0 - t ** 3 / 3.0 + t / 2.0, lambda t: (t * t - 1.0) ** 2 / 2.0)
_CUBE = (lambda t: t ** 3, lambda t: 3 * t * t)
# F = t^2 / 2 on t > 0, whose F' is the argument itself: the callback hands back
# the array it was given, which the loop must neither write into nor keep
_HALF_SQUARE = (lambda t: 0.5 * t * t, lambda t: t)
_IDENTITY = (lambda t: t, lambda t: 1.0 + 0.0 * t)  # F is the argument itself


def _bracket_cases(F, positive=False):
    rng = np.random.default_rng(3)
    lo = rng.uniform(0.1 if positive else -2.0, 1.0, 2000)
    hi = lo + rng.uniform(1e-6, 2.0, lo.size)
    y = F(rng.uniform(lo - 0.1, hi + 0.1))
    if positive:
        return [(y, lo, hi), (0.3, 0.5, 1.0), (np.array(0.02), 0.1, np.array(0.4)),
                (rng.uniform(0.0, 1.0, (7, 1)), 0.25, np.array([0.5, 1.5, 2.0])),
                (rng.uniform(0.0, 1.0, (3, 4)), rng.uniform(0.1, 0.5, (3, 4)), 2.0)]
    return [
        (y, lo, hi),  # random 1-D brackets, some targets outside them
        (0.3, 0.0, 1.0),  # 0-d scalar target
        (np.array(-0.2), np.array(-1.0), 0.5),  # 0-d array target and bracket end
        (rng.uniform(-1.0, 1.0, 5), -2.0, 2.0),  # 1-D targets, scalar brackets
        (rng.uniform(-1.0, 1.0, (7, 1)), -2.0, np.array([0.5, 1.5, 2.0])),  # broadcast 2-D
        (rng.uniform(-1.0, 1.0, (3, 4)), rng.uniform(-2.0, -1.0, (3, 4)), 2.0),  # 2-D brackets
        ([5.0, -5.0, 0.0], [0.0, 0.0, -1.0], [1.0, 1.0, 1.0]),  # clamped ends, flat root
    ]


@pytest.mark.parametrize("F, dF, positive", [(*_K2_B, False), (*_CUBE, False),
                                             (*_IDENTITY, False), (*_HALF_SQUARE, True)],
                         ids=["k2-B", "cube", "F-is-its-input", "F'-is-its-input"])
def test_newton_bracketed_active_elements_are_bit_identical(F, dF, positive):
    # each element steps on its own, so evaluating only the unfinished ones,
    # in place, changes no bit; the callback runs once per step, on a 1-D
    # array of exactly the elements the reference has not finished
    for case in _bracket_cases(F, positive):
        sizes = []

        def f(t):
            sizes.append(t.shape)
            before = t.copy()
            F_t, dF_t = F(t), dF(t)
            assert t.tobytes() == before.tobytes()
            return F_t, dF_t

        expected, active = _newton_bracketed_every_element(F, dF, *case)
        _assert_same_bits(newton_bracketed(f, *case), expected)
        assert sizes == [(n,) for n in active]
        assert all(a >= b for a, b in zip(active, active[1:]))


def test_newton_bracketed_returns_empty_input_at_once():
    # with no element to stop, the loop would run its whole budget and raise
    def f(t):
        raise AssertionError("called on an empty input")

    for y, lo, hi in ((np.empty(0), 0.0, 1.0), (np.empty((0, 3)), 0.0, np.ones(3))):
        x = newton_bracketed(f, y, lo, hi)
        assert x.shape == y.shape and x.dtype == np.float64


def test_newton_bracketed_budget(monkeypatch):
    monkeypatch.setattr(numerics, "_ROOT_MAX_ITER", 3)
    with pytest.raises(NonConvergence, match="in 3 steps"):
        newton_bracketed(lambda t: (t ** 3, 3 * t * t), 0.3, 0.0, 1.0)


@pytest.mark.xfail(
    strict=True,
    reason="newton_bracketed ends an element at an absolute |F - y| <= 1e-13 when "
    "|y| < 1, so where B is flat it stops short of the root: for normalized "
    "b = x^8/105, y = B(0.05) on [0.0375, 0.075] it returns 0.052165 (4.3% off "
    "the closed form's 0.05); for hermite-sq k=2 at x = 1.0001 on [0.75x, 1.5x] "
    "it is 1.5e-8 off, 2.6 times the width over which B(x) moves by 2 ulp.",
)
def test_newton_bracketed_reaches_flat_roots():
    from miworlds.targets import hermite_square_baseline, monomial_baseline

    for bl, x0 in ((monomial_baseline(8).normalized(), 0.05),
                   (hermite_square_baseline(2), 1.0001)):
        y = float(bl.B(x0))
        x = float(newton_bracketed(lambda t: (bl.B(t), bl.b(t)), y, 0.75 * x0, 1.5 * x0))
        # within 4 ulp of x0, or where B's own rounding (2 ulp of y) hides the root
        assert abs(x - x0) <= max(4 * math.ulp(x0), 2 * math.ulp(y) / float(bl.b(x0)))


def test_nonconvergence_message_has_interval():
    # an oscillating singularity that exhausts the subdivision budget
    with pytest.raises(NonConvergence, match=r"quadrature failed on \[0\.0, 1\.0\]: .*, 10000 panels"):
        integrate_adaptive(lambda x: math.sin(1.0 / x) if x else 0.0, 0.0, 1.0)


@pytest.mark.parametrize("f", [lambda x: math.nan, lambda x: 1.0 / x], ids=["nan", "inverse"])
def test_non_finite_integrands_fail_typed(f):
    # a NaN, or 1/x whose panels at 0 overflow, must not come back as nan or inf
    with pytest.raises(NonConvergence, match=r"quadrature failed on \[0\.0, 1\.0\]"):
        integrate_adaptive(f, 0.0, 1.0)


def test_kronrod_rule_constants():
    # the embedded nodes and weights are Gauss-Legendre's, and the 21-point
    # rule integrates x^j exactly for j <= 31 (3 * 10 + 1)
    x, w = np.polynomial.legendre.leggauss(10)
    assert np.array_equal(numerics._T21[1::2], x)
    assert np.max(np.abs(np.array(numerics._G21) - w)) <= 2e-16
    assert math.fsum(numerics._W21) == pytest.approx(2.0, abs=4e-16)
    t, wk = np.array(numerics._T21), np.array(numerics._W21)
    for j in range(32):
        exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
        assert abs(math.fsum(wk * t**j) - exact) <= 1e-15


def _quadpack(f, a, b):
    from scipy import integrate

    return integrate.quad(f, a, b, epsabs=1e-12, epsrel=1e-10, limit=10_000)[0]


def _quadpack_cases():
    cases = [pytest.param(lambda x: abs(float(cdf_pk(1, x)) - 0.3), -5.0, 5.0, id="kink")]
    for k in (2, 3):
        for name, f, df in (("x", lambda x: x, lambda x: 1.0), ("sin", math.sin, math.cos)):
            cases.append(pytest.param(lambda x, k=k, df=df: float(stein_kernel_times_pdf(k, x))
                                      * df(x), -12.0, 12.0, id=f"tau{k}-{name}"))
            cases.append(pytest.param(lambda x, k=k, f=f: x * f(x) * float(pdf_pk(k, x)),
                                      -12.0, 12.0, id=f"xpdf{k}-{name}"))
    return cases


@pytest.mark.parametrize("f, a, b", _quadpack_cases())
def test_integrate_matches_quadpack(f, a, b):
    # the kinked |F_1 - 0.3| and the kernel-identity integrands of k = 2, 3
    value, reference = integrate_adaptive(f, a, b), _quadpack(f, a, b)
    assert abs(value - reference) <= max(1e-12, 1e-10 * abs(reference))


@pytest.mark.parametrize("n", [64, 1024, 4096])
def test_dw_self_check_integral_matches_quadpack(n, maxwell_configs):
    # the integral metrics._dw_exact checks its closed form with
    pts = maxwell_configs[n].points
    f = lambda x: cdf_pk(1, x)
    value, reference = integrate_adaptive(f, pts[-1], pts[0]), _quadpack(f, pts[-1], pts[0])
    assert abs(value - reference) <= max(1e-12, 1e-10 * abs(reference))
