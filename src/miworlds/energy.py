"""Potential, interworld and total energies for static configurations.

The interworld potential is built from reciprocal gaps of the cumulative
baseline, with the boundary reciprocals (B at +-infinity) taken as exact
zeros.  For b = 1 and b = x^2 the product U*V obeys a Cauchy-Schwarz lower
bound that is attained at the solved minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Optional, Sequence

import numpy as np

from .errors import BaselineZero, NotDecreasing
from .targets import Baseline

__all__ = ["EnergyReport", "potential_V", "interworld_U", "certify_minimizer"]


@dataclass(frozen=True)
class EnergyReport:
    """Energy decomposition with the Cauchy-Schwarz certificate."""

    V: float
    U: float
    H: float
    cauchy_schwarz_gap: Optional[float]
    lower_bound: Optional[float]


def potential_V(points: Sequence[float]) -> float:
    """Parabolic-trap potential sum(x_n^2), summed left to right."""
    return float(sum(map(mul, points, points)))


def interworld_U(baseline: Baseline, points: Sequence[float]) -> float:
    """Interworld potential from reciprocal cumulative-baseline gaps."""
    x = np.asarray(points, dtype=float)
    rising = np.flatnonzero(x[1:] >= x[:-1])
    if rising.size:
        raise NotDecreasing(f"points not strictly decreasing at index {rising[0]}")
    b = baseline.b(x)
    if np.any(b <= 0.0):
        raise BaselineZero("baseline vanishes at a world location")
    # reciprocal of the gap below world n (B(x_{n+1}) - B(x_n)) less that of
    # the gap above it, each zero at the boundary since B(x_0) = +inf and
    # B(x_{N+1}) = -inf
    recip = 1.0 / np.diff(baseline.B(x))
    d = np.append(recip, 0.0) - np.insert(recip, 0, 0.0)
    return float(np.sum(d * d * b * b))


# b = x^2 in the power basis; its configurations also have sum x^2 = 3(N-1)
X_SQUARED = (0.0, 0.0, 1.0)

_BOUND_CONSTANTS = {
    # b's power-basis coefficients -> (product lower-bound coefficient on
    # (N-1)^2, H lower-bound coefficient on (N-1))
    (1.0,): (1.0, 2.0),
    X_SQUARED: (9.0, 6.0),
}


def certify_minimizer(baseline: Baseline, points: Sequence[float]) -> EnergyReport:
    """Energy report with the baseline's Cauchy-Schwarz product gap.

    The gap and lower bound are only asserted for b = 1 and b = x^2; other
    baselines report them as unavailable.
    """
    V = potential_V(points)
    U = interworld_U(baseline, points)
    H = V + U
    consts = _BOUND_CONSTANTS.get(tuple(baseline.b_poly.coef.tolist()))
    if consts is None:
        gap = None
        lower = None
    else:
        prod_coeff, h_coeff = consts
        n1 = len(points) - 1
        gap = U * V - prod_coeff * n1 * n1
        lower = h_coeff * n1
    return EnergyReport(V=V, U=U, H=H, cauchy_schwarz_gap=gap, lower_bound=lower)
