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
from functools import cache
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import hermite_e as herme
from numpy.polynomial import polynomial as P

from .errors import MiwError, MiwValidation
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


def _is_integer(v) -> bool:
    """An int or a numpy integer, and not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_order(k: int) -> None:
    if not _is_integer(k) or k < 0 or k > MAX_ORDER:
        raise MiwValidation(f"order {k!r} outside supported range 0..{MAX_ORDER}")


def hermite_he(k: int, x):
    """Probabilist's Hermite polynomial He_k by the three-term recurrence."""
    _check_order(k)
    scalar = isinstance(x, (float, int)) or not np.ndim(x)  # a float for 0-d input
    x = float(x) if scalar else np.array(x, dtype=float)  # a copy: He_1 is not the input
    prev, cur = (1.0 if scalar else np.ones_like(x)), x
    for j in range(1, k):
        prev, cur = cur, x * cur - j * prev
    return cur if k else prev


def _horner(coef) -> Callable:
    """Evaluator of sum_n coef[n] x^n on a float or an array.

    Horner's rule in polyval's order over float coefficients: it matches
    ``Polynomial.__call__`` bit for bit, at a tenth of its cost on a float.
    """
    top, *rest = (float(c) for c in coef[::-1])

    def value(x):
        if not isinstance(x, (float, int)):
            x = np.asarray(x, dtype=float)
        y = x * 0  # a new array, evaluated in place, or a scalar on 0-d input
        y += top
        for c in rest:
            y *= x
            y += c
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


def _check_nonnegative(c: np.ndarray) -> None:
    """Refuse the even polynomial b of coefficients ``c`` where it is negative.

    b(x) = q(x^2), and with a positive top coefficient q is least on [0, inf)
    at 0 or at a positive root of q'; q is evaluated at 0 and at the real part,
    where positive, of every root of q', each against Horner's rounding bound
    2 d eps sum |q_i| y^i of degree d (Higham 2002, eq. 5.3).
    """
    q = np.trim_zeros(c[::2], "b")
    if q[-1] < 0.0:
        raise MiwValidation(f"a baseline must be nonnegative, but its top coefficient "
                            f"is {float(q[-1])!r}")
    if np.count_nonzero(q) == 1:  # c x^r with c > 0
        return
    y = np.concatenate(([0.0], np.maximum(P.polyroots(P.polyder(q)).real, 0.0)))
    v = P.polyval(y, q)
    slack = 2 * (q.size - 1) * np.finfo(float).eps * P.polyval(y, np.abs(q))
    if (v < -slack).any():
        i = np.argmin(v + slack)
        raise MiwValidation(f"a baseline must be nonnegative, but b({math.sqrt(y[i]):.6g}) "
                            f"= {v[i]:.6g}")


@dataclass(frozen=True)
class Baseline:
    """Even nonnegative polynomial baseline b of a target density b(x) phi(x);
    a b that is negative anywhere on the real line is refused.

    ``b_poly`` is b in the power basis.  ``b``, ``db`` and ``B`` evaluate b,
    b' and the cumulative B(x) = int_0^x b, which is odd and strictly
    increasing, on a float or an array; they are built from ``b_poly`` once,
    as is ``phi_integral`` = m = E b(Z), the normaliser of the target law
    b(x) phi(x) / m (``target_cdf_pdf``).
    ``exponent`` is r when b is one term c x^r, and None otherwise.  B is
    inverted in closed form on one term, and by bracketed Newton otherwise.
    ``integrals`` integrates b, x b and b/x between neighbouring points on
    one side of 0.
    ``b_poly`` is a copy of the given power-basis polynomial (domain and
    window [-1, 1]) with read-only coefficients, so a baseline can be shared.
    """

    b_poly: Polynomial
    zeros_of_b: tuple = ()

    def __post_init__(self):
        put = object.__setattr__  # derived attributes of a frozen dataclass
        p = self.b_poly
        if not (np.array_equal(p.domain, Polynomial.domain)
                and np.array_equal(p.window, Polynomial.window)):
            raise MiwValidation(f"a baseline is in the power basis of x, but its polynomial "
                                f"maps domain {p.domain.tolist()} to window {p.window.tolist()}")
        put(self, "b_poly", p.copy())  # a copy: the caller's coefficients stay writable
        # b = m + Q' - xQ for the odd polynomial Q with Q' - xQ = b - m, so
        # (Q phi)' = (b - m) phi and m = E b(Z) = c_0 - Q_1
        c = self.b_poly.coef
        c.flags.writeable = False
        if not np.isfinite(c).all():
            raise MiwValidation(f"a baseline's coefficients must be finite, got {c.tolist()}")
        if c[1::2].any():
            raise MiwValidation(f"a baseline is even, but its coefficients of x, x^3, ... "
                                f"are {c[1::2].tolist()}")
        if not c.any():
            raise MiwValidation("the zero polynomial is not a baseline")
        with np.errstate(over="ignore", invalid="ignore"):
            Q = _inverse_stein_poly(c)
            m = float(c[0] - Q[1])
        if not math.isfinite(m):  # first: (r-1)!! exceeds a float from r = 302 on
            top = self.b_poly.degree() // 2 * 2
            raise MiwValidation(f"E[Z^{top}] = {top - 1}!! overflows a float: "
                                f"exponent {top} is too large")
        if m <= 0.0:  # b phi / m is then no law; a b >= 0 other than 0 has m > 0
            raise MiwValidation(f"a baseline's phi-integral m = E b(Z) must be positive, got {m!r}")
        _check_nonnegative(c)
        put(self, "phi_integral", m)
        put(self, "_zeros", np.array(self.zeros_of_b, dtype=float))
        self._zeros.flags.writeable = False
        put(self, "_Q", _horner(Q[: max(c.size - 1, 1)]))
        coef = [float(v) for v in c]
        put(self, "b", _horner(coef))
        db = self.b_poly.deriv().coef
        put(self, "db", _horner(db))
        put(self, "B", _horner(self.b_poly.integ().coef))
        # the primitives of x b and (b - b(0))/x, zero at 0, for ``integrals``
        put(self, "_xb", _horner(np.concatenate(([0.0, 0.0], c / np.arange(2, c.size + 2)))))
        put(self, "_bx", _horner(np.concatenate(([0.0], c[1:] / np.arange(1, c.size)))))
        put(self, "_P", _horner(_inverse_stein_poly(-db)))  # P' - xP = -b', for the kernel
        # b = c x^r: B = c x^(r+1) / (r+1) inverts as sign(y) |(r+1) y / c|^(1/(r+1))
        terms = [r for r, c in enumerate(coef) if c != 0.0]
        r = terms[0] if len(terms) == 1 else None
        put(self, "exponent", r)
        put(self, "_root", None if r is None else ((r + 1) / coef[r], 1.0 / (r + 1)))

    def Binv(self, y: float) -> float:
        """B^{-1}(y) on the real line: B is unbounded, so doubling brackets y."""
        hi = 1.0
        while self.B(hi) < abs(y):
            hi *= 2.0
            if hi > 1e154:
                raise MiwError("cumulative baseline inverse out of range")
        return float(self.Binv_within(y, -hi, hi))

    def Binv_within(self, y, lo, hi) -> np.ndarray:
        """B^{-1}(y) elementwise for targets known to lie in B([lo, hi])."""
        if self._root is None:
            return newton_bracketed(lambda x: (self.B(x), self.b(x)), y, lo, hi)
        scale, power = self._root
        return np.clip(np.sign(y) * np.abs(scale * y) ** power, lo, hi)

    def integrals(self, x):
        """The integrals of b, x b and b/x over the pieces [x_i, x_{i+1}]
        between neighbouring points x (along the last axis), each on one
        side of 0.

        x b and (b - b(0))/x are polynomials, integrated term by term from
        the coefficients of b, and each primitive is evaluated once per
        point; b(0)/x adds b(0) log|x_{i+1}/x_i|, which is infinite on a
        piece with an end at 0 when b(0) > 0.
        """
        ib, ixb, ibx = (v[..., 1:] - v[..., :-1] for v in (self.B(x), self._xb(x), self._bx(x)))
        b0 = self.b_poly.coef[0]
        if b0 != 0.0:
            with np.errstate(divide="ignore", invalid="ignore"):
                ibx = ibx + b0 * np.log(np.abs(x[..., 1:]) / np.abs(x[..., :-1]))
        return ib, ixb, ibx

    def near_zero_of_b(self, x, tol: float = 1e-8):
        """Whether x (a float, or elementwise an array) lies within tol of a zero of b."""
        return (np.abs(np.subtract.outer(x, self._zeros)) < tol).any(axis=-1)

    def target_cdf_pdf(self, t):
        """(CDF Phi + Q phi / m, density b phi / m) of the target law b phi / m, exactly."""
        p, m = phi(t), self.phi_integral
        return normal_cdf(t) + self._Q(t) * p / m, self.b(t) * p / m

    def normalized(self) -> "Baseline":
        """Rescale so that int b(x) phi(x) dx = 1."""
        s = self.phi_integral
        if abs(s - 1.0) <= 1e-12:
            return self
        return replace(self, b_poly=self.b_poly / s)


@cache  # the fixed baselines are built once per process
def ground_baseline() -> Baseline:
    return Baseline(Polynomial([1.0]))


@cache
def maxwell_square_baseline() -> Baseline:
    return Baseline(Polynomial([0.0, 0.0, 1.0]), zeros_of_b=(0.0,))


def monomial_baseline(r: int) -> Baseline:
    """b(x) = x^r for an even nonnegative integer r (unnormalized)."""
    if not _is_integer(r) or r < 0 or r % 2 != 0:
        raise MiwValidation("monomial exponent must be an even nonnegative integer")
    if r == 0:
        return ground_baseline()
    return Baseline(Polynomial([0.0] * r + [1.0]), zeros_of_b=(0.0,))


def hermite_square_baseline(k: int) -> Baseline:
    """b(x) = He_k(x)^2 / k!, of unit phi-integral by orthonormality."""
    _check_order(k)
    unit = [0.0] * k + [1.0]
    he = Polynomial(herme.herme2poly(unit))
    roots = tuple(sorted(float(z) for z in herme.hermeroots(unit)))
    return Baseline(he * he / float(math.factorial(k)), zeros_of_b=roots)


def pdf_pk(k: int, x):
    """Eigenstate density p_k(x) = He_k(x)^2 phi(x) / k!."""
    _check_order(k)
    he = hermite_he(k, x)
    return he * he * phi(x) / math.factorial(k)


def _cdf_and_integral(k: int, x, integral: bool = True):
    """(F_k(x), A_k(x)) for the CDF F_k of p_k and A_k(x) = int_{-inf}^x F_k,
    or (F_k(x), None) without ``integral``.

    F_m = F_{m-1} - He_{m-1} He_m phi / m! telescopes up from F_0 = Phi.
    The terms are formed from psi_m = He_m sqrt(phi / m!), which stay O(1);
    expanding He_k^2 in the Hermite basis instead cancels terms of size
    ~2^k and loses 7e-5 at k = 30.  Integrating x p_m by parts gives
    A_m = (2m A_{m-1} - x F_m - p_m) / (2m - 1) from A_0 = x Phi + phi.
    """
    _check_order(k)
    x = np.asarray(x, dtype=float)
    # the recursion would form inf * 0 at x = +-inf, where F is 0 / 1 and A is 0 / inf;
    # math tests a 0-d x, as most calls pass one float, in a twentieth of np.isinf's time
    if math.isinf(x) if x.ndim == 0 else np.isinf(x).any():
        ends = np.isinf(x)
        F, A = _cdf_and_integral(k, np.where(ends, 0.0, x), integral)
        F = np.where(ends, x > 0, F)
        return F, A if A is None else np.where(ends, np.maximum(x, 0.0), A)
    F = normal_cdf(x)
    A = x * F + phi(x) if integral else None
    psi_prev, psi = 0.0, np.exp(-0.25 * np.square(x)) / math.sqrt(SQRT_2PI)
    for m in range(1, k + 1):
        psi_prev, psi = psi, (x * psi - math.sqrt(m - 1) * psi_prev) / math.sqrt(m)
        F = F - psi_prev * psi / math.sqrt(m)
        if integral:
            A = (2 * m * A - x * F - psi * psi) / (2 * m - 1)
    return F, A


def cdf_pk(k: int, x):
    """CDF of p_k in closed form (scalar or array)."""
    F = _cdf_and_integral(k, x, integral=False)[0]
    return F if np.ndim(x) else float(F)


def cdf_pk_integral(k: int, x):
    """int_{-inf}^x cdf_pk(k, t) dt in closed form (scalar or array)."""
    A = _cdf_and_integral(k, x)[1]
    return A if np.ndim(x) else float(A)


def cdf_pk_grid(k: int, xs) -> np.ndarray:
    """CDF of p_k on an ascending grid, as for dense Kolmogorov scans."""
    xs = np.asarray(xs, dtype=float)
    if np.any(np.diff(xs) < 0):
        raise MiwValidation("grid must be ascending")
    return cdf_pk(k, xs)


_TAU_NUMERATORS = {
    1: _horner([2.0, 0.0, 1.0]),
    2: _horner([5.0, 0.0, 2.0, 0.0, 1.0]),
    3: _horner([18.0, 0.0, 9.0, 0.0, 0.0, 0.0, 1.0]),
}


def stein_kernel_tau(k: int, x: float) -> float:
    """Closed-form Stein kernel of p_k for k in {1, 2, 3}."""
    if k not in _TAU_NUMERATORS:
        raise MiwValidation(f"closed-form kernel available only for k in 1..3, got {k}")
    he = hermite_he(k, x)
    if he == 0.0:
        raise MiwError(f"tau_{k} undefined at zero of He_{k}: x={x}")
    return float(_TAU_NUMERATORS[k](x)) / (he * he)


def stein_kernel_times_pdf(k: int, x) -> float:
    """Singularity-free product tau_k(x) * p_k(x) (a polynomial times phi)."""
    if k not in _TAU_NUMERATORS:
        raise MiwValidation(f"closed-form kernel available only for k in 1..3, got {k}")
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
    bx = float(bl.b(x))
    if bx == 0.0 or bl.near_zero_of_b(x, tol=1e-12):
        return KernelValue(1.0, True)
    return KernelValue(1.0 + float(bl._P(x)) / bx, False)
