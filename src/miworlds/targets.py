"""Baseline families, oscillator eigenstate densities and Stein kernels.

A baseline is the even nonnegative polynomial factor b of a density
b(x)*phi(x); its derivative, the cumulative B(x) = int_0^x b and the
monotone inverse of B all derive from its coefficients.  Eigenstate
densities p_k = He_k(x)^2 phi(x) / k! come with exact CDFs, and the Stein
kernels tau_k of p_k are exposed in closed form and built exactly from a
baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import hermite_e as herme

from .errors import KernelSingularity, UnsupportedOrder
from .numerics import newton_bracketed

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
    "stein_kernel_tau",
    "stein_kernel_times_pdf",
    "KernelValue",
    "kernel_from_baseline",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
MAX_ORDER = 30


def phi(x):
    """Standard normal density (scalar or array)."""
    return np.exp(-0.5 * (x * x)) / SQRT_2PI


def normal_cdf(x):
    """Standard normal CDF (scalar or array)."""
    from scipy.special import ndtr  # loaded on first use, not when miworlds starts

    return ndtr(x) if np.ndim(x) else float(ndtr(x))


def _check_order(k: int) -> None:
    if not isinstance(k, (int, np.integer)) or k < 0 or k > MAX_ORDER:
        raise UnsupportedOrder(f"order {k} outside supported range 0..{MAX_ORDER}")


def hermite_he(k: int, x):
    """Probabilist's Hermite polynomial He_k by the three-term recurrence."""
    _check_order(k)
    if isinstance(x, (float, int)):  # the same recurrence in Python floats
        x = float(x)
        prev, cur = 1.0, x
        for j in range(1, k):
            prev, cur = cur, x * cur - j * prev
        return cur if k else prev
    prev = np.ones_like(np.asarray(x, dtype=float))
    if k == 0:
        return prev if np.ndim(x) else float(prev)
    cur = np.asarray(x, dtype=float).copy()
    for j in range(1, k):
        prev, cur = cur, x * cur - j * prev
    return cur if np.ndim(x) else float(cur)


def _he_poly(k: int) -> Polynomial:
    return Polynomial(herme.herme2poly([0.0] * k + [1.0]))


def _horner(coef) -> Callable:
    """Evaluator of sum_n coef[n] x^n on a float or an array.

    Horner's rule in polyval's order over float coefficients: it matches
    ``Polynomial.__call__`` bit for bit, at a tenth of its cost on a float.
    """
    top, *rest = (float(c) for c in coef[::-1])

    def value(x):
        if not isinstance(x, (float, int)):
            x = np.asarray(x, dtype=float)
        y = top + x * 0
        for c in rest:
            y = c + y * x
        return y

    return value


def _inverse_stein_poly(f) -> np.ndarray:
    """Coefficients of R with R' - xR = f (the Gaussian Stein operator) in degrees >= 1.

    Coefficient n of R' - xR is (n+1) R_{n+1} - R_{n-1}, so R follows by
    back-substitution from the top degree.  Degree 0 asks R_1 = f_0, which
    is left to the caller.
    """
    R = np.zeros(len(f) + 1)
    for n in range(len(f) - 1, 0, -1):
        R[n - 1] = (n + 1) * R[n + 1] - f[n]
    return R


@dataclass(frozen=True)
class Baseline:
    """Even nonnegative polynomial baseline b of a target density b(x) phi(x).

    ``b_poly`` is b in the power basis.  ``b``, ``db`` and ``B`` evaluate b,
    b' and the cumulative B(x) = int_0^x b, which is odd and strictly
    increasing, on a float or an array; they are built from ``b_poly`` once.
    B is inverted in closed form when b is one term c x^r, and by bracketed
    Newton otherwise.
    """

    family: str
    b_poly: Polynomial
    zeros_of_b: tuple = ()

    def __post_init__(self):
        put = object.__setattr__  # derived attributes of a frozen dataclass
        coef = [float(c) for c in self.b_poly.coef]
        put(self, "b", _horner(coef))
        db = self.b_poly.deriv().coef
        put(self, "db", _horner(db))
        put(self, "B", _horner(self.b_poly.integ().coef))
        put(self, "_P", _horner(_inverse_stein_poly(-db)))  # P' - xP = -b', for the kernel
        # b = c x^r: B = c x^(r+1) / (r+1) inverts as sign(y) |(r+1) y / c|^(1/(r+1))
        terms = [r for r, c in enumerate(coef) if c != 0.0]
        r = terms[0]
        put(self, "_root", ((r + 1) / coef[r], 1.0 / (r + 1)) if len(terms) == 1 else None)

    @property
    def phi_integral(self) -> float:
        """int b(x) phi(x) dx over the real line."""
        return _poly_phi_integral(self.b_poly)

    def Binv(self, y: float) -> float:
        """B^{-1}(y) on the real line: B is unbounded, so doubling brackets y."""
        hi = 1.0
        while self.B(hi) < abs(y):
            hi *= 2.0
            if hi > 1e154:
                raise OverflowError("cumulative baseline inverse out of range")
        return float(self.Binv_within(y, -hi, hi))

    def Binv_within(self, y, lo, hi) -> np.ndarray:
        """B^{-1}(y) elementwise for targets known to lie in B([lo, hi])."""
        if self._root is None:
            return newton_bracketed(self.B, self.b, y, lo, hi)
        scale, power = self._root
        return np.clip(np.sign(y) * np.abs(scale * y) ** power, lo, hi)

    def near_zero_of_b(self, x: float, tol: float = 1e-8) -> bool:
        return any(abs(x - z) < tol for z in self.zeros_of_b)

    def normalized(self) -> "Baseline":
        """Rescale so that int b(x) phi(x) dx = 1."""
        s = self.phi_integral
        if abs(s - 1.0) <= 1e-12:
            return self
        return replace(self, b_poly=self.b_poly / s)


def _poly_phi_integral(p: Polynomial) -> float:
    """E p(Z) for standard normal Z: sum of c_n E[Z^n], E[Z^n] = (n-1)!! for even n."""
    return float(sum(c * math.prod(range(n - 1, 0, -2))
                     for n, c in enumerate(p.coef) if n % 2 == 0))


def ground_baseline() -> Baseline:
    return Baseline(family="ground", b_poly=Polynomial([1.0]))


def maxwell_square_baseline() -> Baseline:
    return Baseline(family="maxwell_square", b_poly=Polynomial([0.0, 0.0, 1.0]), zeros_of_b=(0.0,))


def monomial_baseline(r: int) -> Baseline:
    """b(x) = x^r for an even nonnegative integer r (unnormalized)."""
    if r < 0 or r % 2 != 0:
        raise ValueError("monomial exponent must be an even nonnegative integer")
    if r == 0:
        return ground_baseline()
    return Baseline(family="monomial", b_poly=Polynomial([0.0] * r + [1.0]), zeros_of_b=(0.0,))


def hermite_square_baseline(k: int) -> Baseline:
    """b(x) = He_k(x)^2 / k!, of unit phi-integral by orthonormality."""
    _check_order(k)
    he = _he_poly(k)
    roots = tuple(sorted(float(z) for z in herme.hermeroots([0.0] * k + [1.0])))
    return Baseline(family="hermite_square", b_poly=he * he / math.factorial(k), zeros_of_b=roots)


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


_TAU_NUMERATORS = {
    1: _horner([2.0, 0.0, 1.0]),
    2: _horner([5.0, 0.0, 2.0, 0.0, 1.0]),
    3: _horner([18.0, 0.0, 9.0, 0.0, 0.0, 0.0, 1.0]),
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


class KernelValue(NamedTuple):
    value: float
    singular: bool


def kernel_from_baseline(bl: Baseline, x: float) -> KernelValue:
    """Stein kernel 1 + T^{-1}b'(x) / b(x) built from the baseline.

    b is an even polynomial, so b' is odd and T^{-1}b' =
    phi(x)^{-1} int_x^inf b' phi is exactly the polynomial P with
    P' - xP = -b', whose coefficients the baseline finds once by
    back-substitution from the top degree.  The ratio P/b does not depend
    on how b is normalised.  At zeros of b the ratio is set to zero by
    convention and the result is flagged singular.
    """
    if bl.near_zero_of_b(x, tol=1e-12):
        return KernelValue(1.0, True)
    bx = float(bl.b(x))
    if bx == 0.0:
        return KernelValue(1.0, True)
    return KernelValue(1.0 + float(bl._P(x)) / bx, False)
