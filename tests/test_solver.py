import json
import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from miworlds.errors import InvalidStart, ParityUnsupported, ResidualFailure
from miworlds.solver import (
    GENERAL,
    GROUND,
    MAXWELL,
    configuration_from_json,
    configuration_to_json,
    recursion_residual,
    shoot_sequence,
    solve_configuration,
    validate_properties,
)
from miworlds.targets import (
    hermite_square_baseline,
    maxwell_square_baseline,
    monomial_baseline,
)

SQRT_1_5 = math.sqrt(1.5)


def test_shoot_ground_hand_iteration():
    xs, reason = shoot_sequence(GROUND, None, 1.0, 3)
    assert reason == "completed"
    assert xs == pytest.approx([1.0, 0.0, -1.0], abs=1e-15)


def test_shoot_maxwell_n2():
    xs, reason = shoot_sequence(MAXWELL, None, SQRT_1_5, 2)
    assert reason == "completed"
    assert xs == pytest.approx([SQRT_1_5, -SQRT_1_5], abs=1e-14)


def test_shoot_general_matches_maxwell():
    bl = maxwell_square_baseline()
    xs, _ = shoot_sequence(GENERAL, bl, SQRT_1_5, 2)
    ys, _ = shoot_sequence(MAXWELL, None, SQRT_1_5, 2)
    assert xs == pytest.approx(ys, abs=1e-12)


def test_shoot_invalid_start():
    with pytest.raises(InvalidStart):
        shoot_sequence(GROUND, None, -1.0, 4)


def test_shoot_stop_reason_nondecreasing():
    # a tiny start collapses immediately for the ground recursion
    xs, reason = shoot_sequence(GROUND, None, 0.1, 10)
    assert reason in {"nondecreasing", "singular_partial_sum"}
    assert len(xs) < 10


def test_solve_maxwell_n2_closed_form(maxwell_configs):
    cfg = maxwell_configs[2]
    assert cfg.points == pytest.approx((SQRT_1_5, -SQRT_1_5), abs=1e-12)
    assert cfg.variance_sum == pytest.approx(3.0, abs=1e-12)


def test_solve_ground_n3():
    cfg = solve_configuration(GROUND, 3)
    assert cfg.points == pytest.approx((1.0, 0.0, -1.0), abs=1e-9)
    assert cfg.variance_sum == pytest.approx(2.0, abs=1e-9)


def test_solve_maxwell_n22(maxwell_configs):
    cfg = maxwell_configs[22]
    assert abs(cfg.variance_sum - 63.0) <= 1e-7
    assert cfg.points[10] >= math.sqrt(3.0 / 22.0)
    assert cfg.residuals["max_recursion_residual"] <= 1e-9


def test_maxwell_odd_parity_rejected():
    with pytest.raises(ParityUnsupported):
        solve_configuration(MAXWELL, 21)


def test_general_maxwell_square_odd_parity_rejected():
    with pytest.raises(ParityUnsupported):
        solve_configuration(GENERAL, 5, baseline=maxwell_square_baseline())


@pytest.mark.parametrize("n", [2, 8, 22])
def test_general_equals_maxwell(n, maxwell_configs):
    bl = maxwell_square_baseline()
    general = solve_configuration(GENERAL, n, baseline=bl)
    direct = maxwell_configs[n]
    assert general.points == pytest.approx(direct.points, abs=1e-10)


def test_hermite2_even_and_odd_n():
    bl = hermite_square_baseline(2)
    for n in (21, 41):
        cfg = solve_configuration(GENERAL, n, baseline=bl)
        assert cfg.residuals["max_recursion_residual"] <= 1e-9
        assert all(not bl.near_zero_of_b(x, 1e-8) for x in cfg.points)


def test_lemma1_properties(maxwell_configs):
    for n in (8, 64, 512):
        rep = validate_properties(maxwell_configs[n])
        assert rep["p1_zero_mean_defect"] <= 1e-9 * n
        assert rep["p2_variance_defect"] <= 1e-7 * n
        assert rep["p3_symmetry_defect"] <= 1e-9
        assert not rep["p4_decreasing_violation"]
        assert rep["recursion_residual"] <= 1e-9


def test_validate_reports_increasing_violation():
    from miworlds.solver import Configuration

    bad = Configuration(
        family=GROUND, n_worlds=2, points=(-1.0, 1.0), shoot_param=1.0, residuals={}
    )
    # bypass solve: hand-built increasing configuration
    rep = validate_properties(bad)
    assert rep["p4_decreasing_violation"]


def test_lemma2_growth(maxwell_configs):
    ratios = [
        maxwell_configs[n].points[0] / math.sqrt(math.log(n))
        for n in (8, 32, 128, 512)
    ]
    assert max(ratios) / min(ratios) < 3.0


def test_uniqueness_probe(maxwell_configs):
    from miworlds.solver import _matching_defect

    cfg = maxwell_configs[22]
    lo = _matching_defect(MAXWELL, None, cfg.shoot_param * (1 - 1e-3), 22, 3.0)
    hi = _matching_defect(MAXWELL, None, cfg.shoot_param * (1 + 1e-3), 22, 3.0)
    assert lo * hi < 0.0


def test_rescaled_recursion(maxwell_configs):
    # factor-1 recursion solution scaled by sqrt(3) solves the factor-3 one
    y = solve_configuration(MAXWELL, 16, cube_factor=1.0)
    x = maxwell_configs[16]
    scaled = tuple(math.sqrt(3.0) * v for v in y.points)
    assert scaled == pytest.approx(x.points, abs=1e-10)


def test_telescoping_variance_identity(maxwell_configs):
    cfg = maxwell_configs[64]
    pts = cfg.points
    total = 0.0
    partial = 0.0
    for n in range(len(pts) - 1):
        partial += 1.0 / pts[n]
        total += partial * (pts[n] ** 3 - pts[n + 1] ** 3) / 3.0
    assert total == pytest.approx(len(pts) - 1, abs=1e-8)


def test_smallest_positive_point(maxwell_configs):
    for n in (8, 22, 64, 256):
        cfg = maxwell_configs[n]
        assert cfg.points[n // 2 - 1] >= math.sqrt(3.0 / n)


def test_residual_tolerance_enforced():
    with pytest.raises(ResidualFailure):
        solve_configuration(MAXWELL, 8, residual_tol=1e-18)


def test_json_roundtrip(maxwell_configs):
    cfg = maxwell_configs[22]
    text = configuration_to_json(cfg)
    payload = json.loads(text)
    assert set(payload) == {"family", "N", "points", "shoot_param", "residuals"}
    back = configuration_from_json(text)
    assert back.stats is None and cfg.stats is not None
    assert back == cfg
    assert configuration_to_json(back) == text


def test_recursion_residual_on_exact_points():
    assert recursion_residual(GROUND, (1.0, 0.0, -1.0)) <= 1e-15


def _scalar_residual(family, points, baseline=None, cube_factor=3.0):
    """The recursion defect by a plain float loop, as a second route."""
    worst = partial = 0.0
    for x, nxt in zip(points[:-1], points[1:]):
        if family == MAXWELL:
            partial += 1.0 / x
            defect = nxt ** 3 - x ** 3 + cube_factor / partial
        elif family == GROUND:
            partial += x
            defect = nxt - x + 1.0 / partial
        else:
            partial += x / float(baseline.b(x))
            defect = float(baseline.B(nxt)) - float(baseline.B(x)) + 1.0 / partial
        worst = max(worst, abs(defect))
    return worst


def test_recursion_residual_matches_scalar_loop(maxwell_configs):
    # bit for bit: the residual is printed by `solve`
    for n in (8, 512, 4096):
        pts = maxwell_configs[n].points
        assert recursion_residual(MAXWELL, pts) == _scalar_residual(MAXWELL, pts)
    ground = solve_configuration(GROUND, 301)
    assert recursion_residual(GROUND, ground.points) == _scalar_residual(GROUND, ground.points)
    bl = hermite_square_baseline(2)
    cfg = solve_configuration(GENERAL, 41, baseline=bl)
    assert recursion_residual(GENERAL, cfg.points, bl) == pytest.approx(
        _scalar_residual(GENERAL, cfg.points, bl), rel=1e-12, abs=1e-15)


def test_recursion_residual_zero_partial_sum_is_infinite():
    assert recursion_residual(GROUND, (1.0, -1.0, 0.5)) == math.inf


def test_maxwell_65536_shoot_param_is_pinned():
    x1 = solve_configuration(MAXWELL, 65536).shoot_param
    assert abs(x1 - 4.971885212422725) <= math.ulp(4.971885212422725)


def test_maxwell_4096_refines_in_few_shots(maxwell_configs):
    stats = maxwell_configs[4096].stats
    assert stats.refine_method == "illinois"
    assert stats.refine_iterations <= 25
    assert stats.bracket_width <= 2 * math.ulp(maxwell_configs[4096].shoot_param)


def test_hermite_k2_n82_keeps_the_spread_solution():
    # the scan bracket holds many sign changes; Illinois there lands on
    # another valid configuration with x1 = 3.8445, bisection keeps this one
    cfg = solve_configuration(GENERAL, 82, baseline=hermite_square_baseline(2))
    assert cfg.stats.refine_method == "bisection"
    assert cfg.shoot_param == pytest.approx(3.827537630693132, abs=1e-11)


def test_monomial_r4_n1000_shoot_param_is_pinned():
    cfg = solve_configuration(GENERAL, 1000, baseline=monomial_baseline(4).normalized())
    assert cfg.stats.refine_method == "illinois"
    assert cfg.shoot_param == 4.4695408532206


@pytest.mark.parametrize("k", [2, 3, 4])
def test_newton_inverse_agrees_with_baseline_binv(k):
    from miworlds.solver import _newton_inverse

    bl = hermite_square_baseline(k)
    B = bl.b_poly.integ()
    inverse = _newton_inverse(B)
    abs_B = Polynomial(np.abs(B.coef))
    centres = sorted(set(bl.zeros_of_b) | {0.0})
    ts = np.concatenate([np.linspace(z - 0.05, z + 0.05, 101) for z in centres])
    for t in ts:
        y = float(B(t))
        x = float(t) + 0.25
        got = inverse(y, x, float(B(x)), float(bl.b(x)), None)
        B_got = float(B(got))
        ref = bl.Binv(y)
        # The point is found within the stopping width plus the rounding
        # of B's own terms over the slope b (B is flat at the zeros of b);
        # the brentq route adds its own 1e-14 tolerances.
        eps = np.finfo(float).eps
        noise = 4 * eps * float(abs_B(abs(got)))
        spread = min(2 * noise / float(bl.b(got)), 1e-4)
        width = 8 * eps * max(abs(x), abs(t))
        assert abs(B_got - y) <= noise + float(bl.b(got)) * width
        assert abs(got - t) <= spread + width
        assert abs(got - ref) <= spread + width + 2e-14 * (1 + abs(ref))


def test_newton_path_matches_closed_form_path():
    # b = x^2 both ways: hermite-sq k=1 inverts B by Newton, the Maxwell
    # square baseline by its closed-form cube root
    x1 = solve_configuration(GENERAL, 40, baseline=maxwell_square_baseline()).shoot_param
    xs, reason = shoot_sequence(GENERAL, hermite_square_baseline(1), x1, 21)
    ys, _ = shoot_sequence(GENERAL, maxwell_square_baseline(), x1, 21)
    assert reason == "completed"
    assert xs == pytest.approx(ys, rel=1e-12, abs=1e-12)


def test_solve_stats_count_every_shot():
    cfg = solve_configuration(GENERAL, 21, baseline=hermite_square_baseline(2))
    stats = cfg.stats
    assert stats.shots == sum(stats.stop_reasons.values())
    assert stats.shots >= stats.refine_iterations + 2
    assert stats.scan_rounds == 1
    assert stats.refine_method == "bisection"
    assert 0.0 <= stats.bracket_width <= 2 * math.ulp(cfg.shoot_param)


@pytest.mark.parametrize(
    "baseline, n, method",
    [(hermite_square_baseline(4), 200, "bisection"),
     (monomial_baseline(8).normalized(), 1000, "illinois")],
    ids=["hermite-sq-k4-n200", "monomial-r8-n1000"],
)
def test_failed_solve_keeps_its_stats(baseline, n, method):
    # the solves the CLI reports as numerical failures; the message is unchanged
    with pytest.raises(ResidualFailure,
                       match=rf"recursion defect \S+ exceeds 1e-09 \(general, N={n}\)") as info:
        solve_configuration(GENERAL, n, baseline=baseline)
    stats = info.value.stats
    assert stats.shots == sum(stats.stop_reasons.values())
    assert stats.shots >= stats.refine_iterations + 2
    assert stats.refine_method == method
    assert stats.scan_rounds == 1
    assert 0.0 < stats.bracket_width <= 1e-14
