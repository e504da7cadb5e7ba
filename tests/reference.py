"""Slow reference routes by adaptive quadrature, for the tests only.

The library computes these quantities in closed form or on a grid; the
functions here integrate the defining formulas directly, as an independent
second route.
"""

import math
from typing import Callable

from miworlds.numerics import TAIL_CUTOFF, integrate_adaptive


def inverse_stein_operator(h: Callable[[float], float], x: float) -> float:
    """Gaussian inverse Stein operator phi(x)^{-1} int_x^inf h(u) phi(u) du.

    Computed in the cancellation-friendly factored form
    int_x^L h(u) exp((x^2 - u^2)/2) du; accurate for moderate |x| (the
    intrinsic conditioning degrades like exp(x^2/2) far into the left tail).
    """
    if x >= TAIL_CUTOFF:
        return 0.0
    return integrate_adaptive(
        lambda u: h(u) * math.exp(0.5 * (x * x - u * u)), x, TAIL_CUTOFF
    )


def g0_scalar(x, htilde, kinks):
    """The Stein auxiliary solution g0 of ``miworlds.stein`` at one point,
    by adaptive quadrature between the kinks of the test function."""
    L = TAIL_CUTOFF
    if x > 0:
        cuts = sorted({x, L} | {k for k in kinks if x < k < L})
    else:
        cuts = sorted({-L, x} | {k for k in kinks if -L < k < x})
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        total += integrate_adaptive(
            lambda u: u * u * float(htilde(u)) * math.exp(0.5 * (x * x - u * u)), a, b
        )
    return total
