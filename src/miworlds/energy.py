"""Potential, interworld and total energies for static configurations.

The interworld potential is built from reciprocal gaps of the cumulative
baseline, with the boundary reciprocals (B at +-infinity) taken as exact
zeros.  At a solved configuration 1/(B(x_{n+1}) - B(x_n)) = -S_n, so
U = sum x^2 = V for every baseline.  For one term b = c x^r the product
U*V also obeys the Cauchy-Schwarz lower bound ((r+1)(N-1))^2, so that
H >= 2(r+1)(N-1), both attained at the solved minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import MiwError
from .targets import Baseline
from .zerobias import _check_decreasing

__all__ = ["EnergyReport", "potential_V", "interworld_U", "certify_minimizer"]


@dataclass(frozen=True)
class EnergyReport:
    """Energy decomposition with the U = V and Cauchy-Schwarz certificates."""

    V: float
    U: float
    H: float
    cauchy_schwarz_gap: Optional[float]
    lower_bound: Optional[float]
    uv_defect: float


def potential_V(points: Sequence[float]) -> float:
    """Parabolic-trap potential sum(x_n^2), summed left to right as np.cumsum adds."""
    x = np.asarray(points, dtype=float)
    with np.errstate(over="ignore"):  # overflow gives inf, as Python's float sum does
        return float(np.cumsum(x * x)[-1]) if x.size else 0.0


def interworld_U(baseline: Baseline, points: Sequence[float]) -> float:
    """Interworld potential from reciprocal cumulative-baseline gaps."""
    x = _check_decreasing(points, 0)
    b = baseline.b(x)
    if np.any(b <= 0.0):
        raise MiwError("baseline vanishes at a world location")
    # reciprocal of the gap below world n (B(x_{n+1}) - B(x_n)) less that of
    # the gap above it, each zero at the boundary since B(x_0) = +inf and
    # B(x_{N+1}) = -inf
    recip = 1.0 / np.diff(baseline.B(x))
    d = np.append(recip, 0.0) - np.insert(recip, 0, 0.0)
    return float(np.sum(d * d * b * b))


def certify_minimizer(baseline: Baseline, points: Sequence[float]) -> EnergyReport:
    """Energy report with |U - V| and the baseline's Cauchy-Schwarz product gap.

    The gap and lower bound are only asserted for one-term b = c x^r; other
    baselines report them as unavailable.
    """
    V = potential_V(points)
    U = interworld_U(baseline, points)
    r = baseline.exponent
    gap = lower = None
    if r is not None:
        bound = (r + 1) * (len(points) - 1)  # sqrt of U*V's bound, half of H's
        gap = U * V - bound * bound
        lower = 2.0 * bound
    return EnergyReport(V=V, U=U, H=V + U, cauchy_schwarz_gap=gap, lower_bound=lower,
                        uv_defect=abs(U - V))
