"""Baseline families, oscillator eigenstate densities and Stein kernels.

A baseline is the even nonnegative factor b of a density b(x)*phi(x); the
library carries its derivative, the cumulative B(x) = int_0^x b and a
monotone inverse of B.  Eigenstate densities p_k = He_k(x)^2 phi(x) / k!
come with exact CDFs, and the Stein kernels tau_k of p_k are exposed both
in closed form and through the Gaussian inverse Stein operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import hermite_e as herme

from .errors import BaselineZero, KernelSingularity, UnsupportedOrder
from .numerics import (
    DEFAULT_QUAD,
    DEFAULT_ROOT,
    QuadratureSpec,
    RootSpec,
    integrate_adaptive,
    invert_monotone,
    newton_bracketed,
    signed_cbrt,
)

__all__ = [
    "SQRT_2PI",
    "phi",
    "normal_cdf",
    "hermite_he",
    "Baseline",
    "ground_baseline",
    "maxwell_square_baseline",
    "monomial_baseline",
    "hermite_square_baseline",
    "pdf_pk",
    "cdf_pk",
    "cdf_pk_integral",
    "cdf_pk_grid",
    "TargetDensity",
    "target_density",
    "stein_kernel_tau",
    "stein_kernel_times_pdf",
    "inverse_stein_operator",
    "KernelValue",
    "kernel_from_baseline",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
MAX_ORDER = 30


def phi(x):
    """Standard normal density (scalar or array)."""
    return np.exp(-0.5 * np.square(x)) / SQRT_2PI


def normal_cdf(x):
    """Standard normal CDF (scalar or array)."""
    from scipy.special import ndtr  # already loaded by .numerics' scipy.integrate

    return ndtr(x) if np.ndim(x) else float(ndtr(x))


def _check_order(k: int) -> None:
    if not isinstance(k, (int, np.integer)) or k < 0 or k > MAX_ORDER:
        raise UnsupportedOrder(f"order {k} outside supported range 0..{MAX_ORDER}")


def hermite_he(k: int, x):
    """Probabilist's Hermite polynomial He_k by the three-term recurrence."""
    _check_order(k)
    prev = np.ones_like(np.asarray(x, dtype=float))
    if k == 0:
        return prev if np.ndim(x) else float(prev)
    cur = np.asarray(x, dtype=float).copy()
    for j in range(1, k):
        prev, cur = cur, x * cur - j * prev
    return cur if np.ndim(x) else float(cur)


def _he_poly(k: int) -> Polynomial:
    return Polynomial(herme.herme2poly([0.0] * k + [1.0]))


@dataclass(frozen=True)
class Baseline:
    """Even nonnegative baseline b with cumulative B and monotone inverse.

    ``b_poly`` is the power-basis representation when b is polynomial (all
    shipped families are); it enables exact piecewise integration further
    downstream.  ``phi_integral`` is int b(x) phi(x) dx over the real line.
    ``eval_Binv_array`` is an array-capable closed-form inverse of B, or
    None where B is inverted numerically.
    """

    family: str
    eval_b: Callable
    eval_db: Callable
    eval_B: Callable
    eval_Binv: Callable[[float], float]
    zeros_of_b: tuple
    b_poly: Optional[Polynomial] = None
    phi_integral: float = 1.0
    param: Optional[int] = None
    eval_Binv_array: Optional[Callable] = None

    def b(self, x):
        return self.eval_b(x)

    def db(self, x):
        return self.eval_db(x)

    def B(self, x):
        return self.eval_B(x)

    def Binv(self, y: float) -> float:
        return self.eval_Binv(y)

    def Binv_within(self, y, lo, hi) -> np.ndarray:
        """B^{-1}(y) elementwise for targets known to lie in B([lo, hi])."""
        if self.eval_Binv_array is not None:
            return np.clip(self.eval_Binv_array(y), lo, hi)
        return newton_bracketed(self.eval_B, self.eval_b, y, lo, hi)

    def near_zero_of_b(self, x: float, tol: float = 1e-8) -> bool:
        return any(abs(x - z) < tol for z in self.zeros_of_b)

    def normalized(self) -> "Baseline":
        """Rescale so that int b(x) phi(x) dx = 1."""
        s = self.phi_integral
        if abs(s - 1.0) <= 1e-12:
            return self
        inv = self.eval_Binv_array
        return Baseline(
            family=self.family,
            eval_b=lambda x: self.eval_b(x) / s,
            eval_db=lambda x: self.eval_db(x) / s,
            eval_B=lambda x: self.eval_B(x) / s,
            eval_Binv=lambda y: self.eval_Binv(y * s),
            zeros_of_b=self.zeros_of_b,
            b_poly=None if self.b_poly is None else self.b_poly / s,
            phi_integral=1.0,
            param=self.param,
            eval_Binv_array=None if inv is None else (lambda y: inv(y * s)),
        )


def _poly_phi_integral(p: Polynomial) -> float:
    """E p(Z) for standard normal Z: sum of c_n E[Z^n], E[Z^n] = (n-1)!! for even n."""
    return float(sum(c * math.prod(range(n - 1, 0, -2))
                     for n, c in enumerate(p.coef) if n % 2 == 0))


def ground_baseline() -> Baseline:
    return Baseline(
        family="ground",
        eval_b=lambda x: np.ones_like(np.asarray(x, dtype=float)) if np.ndim(x) else 1.0,
        eval_db=lambda x: np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0,
        eval_B=lambda x: x,
        eval_Binv=lambda y: y,
        zeros_of_b=(),
        b_poly=Polynomial([1.0]),
        phi_integral=1.0,
        eval_Binv_array=np.asarray,
    )


def maxwell_square_baseline() -> Baseline:
    return Baseline(
        family="maxwell_square",
        eval_b=lambda x: np.square(x) if np.ndim(x) else x * x,
        eval_db=lambda x: 2.0 * x,
        eval_B=lambda x: x ** 3 / 3.0,
        eval_Binv=lambda y: signed_cbrt(3.0 * y),
        zeros_of_b=(0.0,),
        b_poly=Polynomial([0.0, 0.0, 1.0]),
        phi_integral=1.0,
        eval_Binv_array=lambda y: np.cbrt(3.0 * y),
    )


def _odd_root(y: float, m: int) -> float:
    # Real m-th root for odd m, preserving sign.
    if y == 0.0:
        return 0.0
    return math.copysign(abs(y) ** (1.0 / m), y)


def monomial_baseline(r: int) -> Baseline:
    """b(x) = x^r for an even nonnegative integer r (unnormalized)."""
    if r < 0 or r % 2 != 0:
        raise ValueError("monomial exponent must be an even nonnegative integer")
    if r == 0:
        return ground_baseline()
    p = Polynomial([0.0] * r + [1.0])
    bl = Baseline(
        family="monomial",
        eval_b=lambda x: x ** r,
        eval_db=lambda x: r * x ** (r - 1),
        eval_B=lambda x: x ** (r + 1) / (r + 1),
        eval_Binv=lambda y: _odd_root((r + 1) * y, r + 1),
        zeros_of_b=(0.0,),
        b_poly=p,
        phi_integral=_poly_phi_integral(p),
        param=r,
        eval_Binv_array=lambda y: np.sign(y) * np.abs((r + 1) * y) ** (1.0 / (r + 1)),
    )
    return bl


def _bracketed_poly_inverse(B: Polynomial, spec: RootSpec = DEFAULT_ROOT):
    """Monotone inverse of an odd, strictly increasing polynomial."""

    def Binv(y: float) -> float:
        if y == 0.0:
            return 0.0
        hi = 1.0
        # B is unbounded, so the doubling always terminates.
        while B(hi) < abs(y):
            hi *= 2.0
            if hi > 1e154:
                raise OverflowError("cumulative baseline inverse out of range")
        x = invert_monotone(lambda t: float(B(t)), abs(y), 0.0, hi, spec)
        return math.copysign(x, y)

    return Binv


def hermite_square_baseline(k: int) -> Baseline:
    """b(x) = He_k(x)^2 / k! with an exact polynomial cumulative."""
    _check_order(k)
    he = _he_poly(k)
    b = he * he / math.factorial(k)
    db = b.deriv()
    B = b.integ()  # constant 0 -> B(0) = 0, odd and strictly increasing
    roots = tuple(sorted(float(z) for z in herme.hermeroots([0.0] * k + [1.0])))
    return Baseline(
        family="hermite_square",
        eval_b=lambda x: b(x),
        eval_db=lambda x: db(x),
        eval_B=lambda x: B(x),
        eval_Binv=_bracketed_poly_inverse(B),
        zeros_of_b=roots,
        b_poly=b,
        phi_integral=1.0,  # He_k orthonormality under phi with norm k!
        param=k,
    )


def pdf_pk(k: int, x):
    """Eigenstate density p_k(x) = He_k(x)^2 phi(x) / k!."""
    _check_order(k)
    he = hermite_he(k, x)
    return he * he * phi(x) / math.factorial(k)


def _cdf_and_integral(k: int, x):
    """(F_k(x), A_k(x)) for the CDF F_k of p_k and A_k(x) = int_{-inf}^x F_k.

    F_m = F_{m-1} - He_{m-1} He_m phi / m! telescopes up from F_0 = Phi.
    The terms are formed from psi_m = He_m sqrt(phi / m!), which stay O(1);
    expanding He_k^2 in the Hermite basis instead cancels terms of size
    ~2^k and loses 7e-5 at k = 30.  Integrating x p_m by parts gives
    A_m = (2m A_{m-1} - x F_m - p_m) / (2m - 1) from A_0 = x Phi + phi.
    """
    _check_order(k)
    x = np.asarray(x, dtype=float)
    F = normal_cdf(x)
    A = x * F + phi(x)
    psi_prev, psi = 0.0, np.exp(-0.25 * np.square(x)) / math.sqrt(SQRT_2PI)
    for m in range(1, k + 1):
        psi_prev, psi = psi, (x * psi - math.sqrt(m - 1) * psi_prev) / math.sqrt(m)
        F = F - psi_prev * psi / math.sqrt(m)
        A = (2 * m * A - x * F - psi * psi) / (2 * m - 1)
    return F, A


def cdf_pk(k: int, x):
    """CDF of p_k in closed form (scalar or array)."""
    F = _cdf_and_integral(k, x)[0]
    return F if np.ndim(x) else float(F)


def cdf_pk_integral(k: int, x):
    """int_{-inf}^x cdf_pk(k, t) dt in closed form (scalar or array)."""
    A = _cdf_and_integral(k, x)[1]
    return A if np.ndim(x) else float(A)


def cdf_pk_grid(k: int, xs) -> np.ndarray:
    """CDF of p_k on an ascending grid, as for dense Kolmogorov scans."""
    xs = np.asarray(xs, dtype=float)
    if np.any(np.diff(xs) < 0):
        raise ValueError("grid must be ascending")
    return cdf_pk(k, xs)


@dataclass(frozen=True)
class TargetDensity:
    """Eigenstate target with pdf, cdf and the supremum of the pdf."""

    k: int
    pdf: Callable
    cdf: Callable[[float], float]
    mode_sup: float


def _grid_supremum(f: Callable[[float], float], lo: float, hi: float) -> float:
    xs = np.linspace(lo, hi, 4001)
    vals = np.asarray(f(xs))
    i = int(np.argmax(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, xs.size - 1)]
    # golden-section refinement on the bracketing cell
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - gr * (b - a), a + gr * (b - a)
    for _ in range(80):
        if f(c) > f(d):
            b, d = d, c
            c = b - gr * (b - a)
        else:
            a, c = c, d
            d = a + gr * (b - a)
    xm = 0.5 * (a + b)
    return max(float(vals[i]), float(f(xm)))


def target_density(k: int, spec: QuadratureSpec = DEFAULT_QUAD) -> TargetDensity:
    _check_order(k)
    if k == 0:
        mode = 1.0 / SQRT_2PI
    elif k == 1:
        mode = 2.0 * math.exp(-1.0) / SQRT_2PI  # attained at |x| = sqrt(2)
    else:
        mode = _grid_supremum(lambda x: pdf_pk(k, x), -spec.tail_cutoff, spec.tail_cutoff)
    return TargetDensity(
        k=k,
        pdf=lambda x: pdf_pk(k, x),
        cdf=lambda x: cdf_pk(k, x),
        mode_sup=mode,
    )


_TAU_NUMERATORS = {
    1: Polynomial([2.0, 0.0, 1.0]),
    2: Polynomial([5.0, 0.0, 2.0, 0.0, 1.0]),
    3: Polynomial([18.0, 0.0, 9.0, 0.0, 0.0, 0.0, 1.0]),
}


def stein_kernel_tau(k: int, x: float) -> float:
    """Closed-form Stein kernel of p_k for k in {1, 2, 3}."""
    if k not in _TAU_NUMERATORS:
        raise UnsupportedOrder(f"closed-form kernel available only for k in 1..3, got {k}")
    he = hermite_he(k, x)
    if he == 0.0:
        raise KernelSingularity(f"tau_{k} undefined at zero of He_{k}: x={x}")
    return float(_TAU_NUMERATORS[k](x)) / (he * he)


def stein_kernel_times_pdf(k: int, x) -> float:
    """Singularity-free product tau_k(x) * p_k(x) (a polynomial times phi)."""
    if k not in _TAU_NUMERATORS:
        raise UnsupportedOrder(f"closed-form kernel available only for k in 1..3, got {k}")
    return _TAU_NUMERATORS[k](x) * phi(x) / math.factorial(k)


def inverse_stein_operator(
    h: Callable[[float], float],
    x: float,
    spec: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Gaussian inverse Stein operator phi(x)^{-1} int_x^inf h(u) phi(u) du.

    Computed in the cancellation-friendly factored form
    int_x^L h(u) exp((x^2 - u^2)/2) du; accurate for moderate |x| (the
    intrinsic conditioning degrades like exp(x^2/2) far into the left tail).
    """
    L = spec.tail_cutoff
    if x >= L:
        return 0.0
    return integrate_adaptive(
        lambda u: h(u) * math.exp(0.5 * (x * x - u * u)), x, L, spec
    )


class KernelValue(NamedTuple):
    value: float
    singular: bool


def kernel_from_baseline(bl: Baseline, x: float) -> KernelValue:
    """Stein kernel 1 + T^{-1}b'(x) / b(x) built from the baseline.

    b is an even polynomial, so b' is odd and T^{-1}b' =
    phi(x)^{-1} int_x^inf b' phi is exactly the polynomial P with
    P' - xP = -b', whose coefficients follow by back-substitution from the
    top degree.  The ratio P/b does not depend on how b is normalised.  At
    zeros of b the ratio is set to zero by convention and the result is
    flagged singular.
    """
    if bl.b_poly is None:
        raise ValueError("kernel construction needs a polynomial baseline")
    if bl.near_zero_of_b(x, tol=1e-12):
        return KernelValue(1.0, True)
    bx = float(bl.b_poly(x))
    if bx == 0.0:
        return KernelValue(1.0, True)
    # coefficient n of P' - xP is (n+1) p_{n+1} - p_{n-1} = -db_n
    db = bl.b_poly.deriv().coef
    p = [0.0] * (db.size + 1)
    for n in range(db.size - 1, 0, -1):
        p[n - 1] = db[n] + (n + 1) * p[n + 1]
    return KernelValue(1.0 + float(Polynomial(p)(x)) / bx, False)
