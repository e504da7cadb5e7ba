import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from miworlds.energy import certify_minimizer, interworld_U, potential_V
from miworlds.errors import MiwError
from miworlds.solver import GENERAL, GROUND, MAXWELL, solve_configuration, validate_properties
from miworlds.targets import (
    Baseline,
    ground_baseline,
    hermite_square_baseline,
    maxwell_square_baseline,
    monomial_baseline,
)
from reference import left_sum


def test_potential_values(maxwell_configs):
    assert potential_V(maxwell_configs[2].points) == pytest.approx(3.0, abs=1e-12)
    assert potential_V((1.0, 0.0, -1.0)) == 2.0
    assert potential_V(()) == 0.0


def test_potential_is_the_left_to_right_float_sum():
    # bit for bit, on arrays and on tuples, whatever the size and scale
    rng = np.random.default_rng(20161)
    for _ in range(200):
        x = rng.standard_normal(rng.integers(1, 3000)) * 10.0 ** rng.uniform(-4.0, 4.0)
        ref = left_sum(v * v for v in x.tolist())
        assert potential_V(x) == ref and potential_V(tuple(x.tolist())) == ref
    assert potential_V(np.array([])) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert potential_V((1.0, math.inf)) == math.inf
        assert potential_V((1e200, 1.0)) == math.inf
        assert math.isnan(potential_V((1.0, math.nan, math.inf)))


@pytest.mark.parametrize("family, n, baseline", [
    (MAXWELL, 4096, None), (GROUND, 65535, None),
    (GENERAL, 81, hermite_square_baseline(2)), (GENERAL, 1000, monomial_baseline(4).normalized()),
], ids=["maxwell-4096", "ground-65535", "hermite-sq-2-81", "monomial-4-1000"])
def test_potential_of_solved_points_is_the_left_to_right_sum(family, n, baseline):
    cfg = solve_configuration(family, n, baseline=baseline)
    assert potential_V(cfg.points) == left_sum(v * v for v in cfg.points.tolist())


def test_interworld_ground_hand_value():
    assert interworld_U(ground_baseline(), (0.5, -0.5)) == pytest.approx(2.0, abs=1e-14)


def test_interworld_maxwell_n2():
    # the spec's worked example quotes 27/8, but its own expression
    # 2*(3/(2*1.5^1.5))^2*1.5^2 evaluates to 3, consistent with the
    # H1 = 6(N-1) equality the same document asserts; 3 is the oracle
    bl = maxwell_square_baseline()
    a = math.sqrt(1.5)
    u = interworld_U(bl, (a, -a))
    gap = -2.0 * 1.5 ** 1.5 / 3.0
    hand = 2.0 * (1.0 / gap) ** 2 * 1.5 ** 2
    assert u == pytest.approx(hand, abs=1e-12)
    assert u == pytest.approx(3.0, abs=1e-12)


def _looped_U(baseline, points):
    """The interworld potential by a per-point float loop, as a second route."""
    b = [float(baseline.b(x)) for x in points]
    B = [float(baseline.B(x)) for x in points]
    n = len(points)
    below = [1.0 / (B[i + 1] - B[i]) for i in range(n - 1)] + [0.0]
    above = [0.0] + [1.0 / (B[i] - B[i - 1]) for i in range(1, n)]
    return sum(((below[i] - above[i]) * b[i]) ** 2 for i in range(n))


@pytest.mark.parametrize("n", [22, 4096])
def test_interworld_matches_per_point_loop(maxwell_configs, n):
    bl = maxwell_square_baseline()
    pts = maxwell_configs[n].points
    assert interworld_U(bl, pts) == pytest.approx(_looped_U(bl, pts), rel=1e-12)


def test_interworld_input_guards():
    bl = maxwell_square_baseline()
    with pytest.raises(MiwError, match="^atoms not strictly decreasing at index 0$"):
        interworld_U(bl, (0.5, 1.0))
    with pytest.raises(MiwError, match="^baseline vanishes at a world location$"):
        interworld_U(bl, (1.0, 0.0, -1.0))


def test_interworld_ordering_names_the_first_tie():
    # the atom ordering check of zerobias, which names the first bad index
    with pytest.raises(MiwError, match="^atoms not strictly decreasing at index 1$"):
        interworld_U(maxwell_square_baseline(), (2.0, 1.0, 1.0, -1.0))


def test_interworld_rejects_a_nan_atom():
    # a NaN compares false both ways, so its pair counts as rising
    with pytest.raises(MiwError, match="^atoms not strictly decreasing at index 0$"):
        interworld_U(maxwell_square_baseline(), (2.0, math.nan, -2.0))


def test_certify_n22(maxwell_configs):
    rep = certify_minimizer(maxwell_square_baseline(), maxwell_configs[22].points)
    assert abs(rep.V - 63.0) <= 1e-7
    assert abs(rep.H - 126.0) <= 1e-6 * 126.0
    assert abs(rep.U * rep.V - 9 * 21 ** 2) <= 1e-3
    assert abs(rep.cauchy_schwarz_gap) <= 1e-4
    assert rep.lower_bound == 126.0
    assert rep.H == rep.V + rep.U


def test_certify_n8(maxwell_configs):
    rep = certify_minimizer(maxwell_square_baseline(), maxwell_configs[8].points)
    assert rep.V == pytest.approx(21.0, abs=1e-7)
    assert rep.H == pytest.approx(42.0, abs=1e-5)
    assert abs(rep.cauchy_schwarz_gap) <= 1e-6


def test_perturbed_configuration_has_higher_energy(maxwell_configs):
    bl = maxwell_square_baseline()
    pts = list(maxwell_configs[8].points)
    pts[0] += 0.01
    pts[-1] -= 0.01  # keep the perturbation symmetric
    rep = certify_minimizer(bl, tuple(sorted(pts, reverse=True)))
    assert rep.H > 42.0 + 1e-5
    assert rep.uv_defect > 1e-3  # U = V only at the solution


def test_lower_bound_on_random_symmetric_configurations():
    for r in (2, 4):
        rng = np.random.default_rng(20260823)
        bl = monomial_baseline(r)
        for _ in range(100):
            n = int(rng.integers(2, 24)) * 2
            half = np.sort(rng.uniform(0.05, 3.0, size=n // 2))[::-1]
            scale = math.sqrt(rng.uniform(1.0, 10.0 * n) / (2.0 * np.sum(half ** 2)))
            half = half * scale
            pts = tuple(half) + tuple(-half[::-1])
            rep = certify_minimizer(bl, pts)
            assert rep.H >= 2.0 * (r + 1) * (n - 1) - 1e-8
            assert rep.cauchy_schwarz_gap >= -1e-8


@pytest.mark.parametrize("c", [1.0, 3.0])
@pytest.mark.parametrize("r", [0, 2, 4, 6])
def test_certificates_follow_the_exponent(r, c):
    # b = c x^r, the rescaled b = 3 x^2 included: sum x^2 = (r+1)(N-1),
    # U = V and U*V = ((r+1)(N-1))^2 at the solved configuration
    bl = Baseline(Polynomial([0.0] * r + [c]), (0.0,) if r else ())
    assert bl.exponent == r
    for n in (22, 100):
        cfg = solve_configuration(GENERAL, n, baseline=bl)
        rep = certify_minimizer(bl, cfg.points)
        bound = (r + 1) * (n - 1)
        assert cfg.residuals["variance_defect"] <= 1e-14 * bound
        assert validate_properties(cfg)["p2_variance_defect"] <= 1e-14 * bound
        assert abs(rep.cauchy_schwarz_gap) <= 1e-14 * bound * bound
        assert rep.lower_bound == 2.0 * bound
        assert rep.uv_defect <= 1e-14 * rep.V


def test_equality_proportionality(maxwell_configs):
    # 1/x_n = -3 [1/(x_{n+1}^3 - x_n^3) - 1/(x_n^3 - x_{n-1}^3)] interior
    pts = maxwell_configs[22].points
    cubes = [p ** 3 for p in pts]
    for n in range(1, len(pts) - 1):
        rhs = -3.0 * (
            1.0 / (cubes[n + 1] - cubes[n]) - 1.0 / (cubes[n] - cubes[n - 1])
        )
        assert abs(1.0 / pts[n] - rhs) <= 1e-7


def test_ground_scaling():
    g = ground_baseline()
    pts = (1.7, 0.4, -0.4, -1.7)
    u = interworld_U(g, pts)
    for c in (0.5, 2.0, 7.3):
        scaled = tuple(c * p for p in pts)
        assert interworld_U(g, scaled) == pytest.approx(u / c ** 2, rel=1e-12)


def test_other_baselines_report_no_bound():
    bl = hermite_square_baseline(2)
    assert bl.exponent is None
    cfg = solve_configuration("general", 8, baseline=bl)
    rep = certify_minimizer(bl, cfg.points)
    assert rep.cauchy_schwarz_gap is None and rep.lower_bound is None
    assert rep.H == rep.V + rep.U


@pytest.mark.parametrize("k, n", [(2, 82), (3, 40), (4, 40)])
def test_uv_defect_for_multi_term_baselines(k, n):
    # 1/(B(x_{n+1}) - B(x_n)) = -S_n at a solution, so U = sum x^2 = V for any b
    bl = hermite_square_baseline(k)
    rep = certify_minimizer(bl, solve_configuration(GENERAL, n, baseline=bl).points)
    assert rep.uv_defect == abs(rep.U - rep.V)
    assert rep.uv_defect <= 1e-13 * rep.V


@pytest.mark.parametrize("bl, family, ref", [
    (monomial_baseline(2).normalized(), MAXWELL, maxwell_square_baseline()),
    (hermite_square_baseline(1), MAXWELL, maxwell_square_baseline()),
    (hermite_square_baseline(0), GROUND, ground_baseline()),
], ids=["monomial-2", "hermite-sq-1", "hermite-sq-0"])
def test_bound_follows_the_polynomial_not_the_constructor(bl, family, ref):
    # b = x^2 and b = 1 built under other names: the same points and the same
    # report, Cauchy-Schwarz gap and lower bound included
    cfg = solve_configuration(GENERAL, 22, baseline=bl)
    assert cfg.points.tobytes() == solve_configuration(family, 22).points.tobytes()
    rep = certify_minimizer(bl, cfg.points)
    assert rep == certify_minimizer(ref, cfg.points)
    assert abs(rep.cauchy_schwarz_gap) <= 1e-4
    assert rep.lower_bound == (126.0 if family == MAXWELL else 42.0)


def test_report_serialization(maxwell_configs):
    rep = certify_minimizer(maxwell_square_baseline(), maxwell_configs[8].points)
    d = asdict(rep)
    assert set(d) == {"V", "U", "H", "cauchy_schwarz_gap", "lower_bound", "uv_defect"}
