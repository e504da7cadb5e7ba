import json
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from miworlds import solver
from miworlds.errors import InvalidStart, NonConvergence, ParityUnsupported, ResidualFailure
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
    SQRT_2PI,
    Baseline,
    cdf_pk,
    ground_baseline,
    hermite_square_baseline,
    maxwell_square_baseline,
    monomial_baseline,
    normal_cdf,
)

SQRT_1_5 = math.sqrt(1.5)


def test_shoot_ground_hand_iteration():
    xs, reason = shoot_sequence(ground_baseline(), 1.0, 3)
    assert reason == "completed"
    assert xs == pytest.approx([1.0, 0.0, -1.0], abs=1e-15)


def test_shoot_maxwell_n2():
    xs, reason = shoot_sequence(maxwell_square_baseline(), SQRT_1_5, 2)
    assert reason == "completed"
    assert xs == pytest.approx([SQRT_1_5, -SQRT_1_5], abs=1e-14)


def test_shoot_general_matches_maxwell():
    # scaling b leaves the recursion unchanged: b = 3x^2 shoots as b = x^2
    scaled = Baseline("scaled", Polynomial([0.0, 0.0, 3.0]), (0.0,))
    xs, _ = shoot_sequence(scaled, 1.7, 8)
    ys, _ = shoot_sequence(maxwell_square_baseline(), 1.7, 8)
    assert len(xs) == len(ys) >= 2
    assert xs == pytest.approx(ys, rel=1e-12)


def test_shoot_invalid_start():
    with pytest.raises(InvalidStart):
        shoot_sequence(ground_baseline(), -1.0, 4)


def test_shoot_stop_reason_nondecreasing():
    # a tiny start collapses immediately for the ground recursion
    xs, reason = shoot_sequence(ground_baseline(), 0.1, 10)
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


def test_validate_general_without_baseline_raises():
    # the same lookup as solve_configuration, and the same message
    cfg = solve_configuration(GENERAL, 21, baseline=hermite_square_baseline(2))
    with pytest.raises(ValueError, match="general family requires a baseline"):
        validate_properties(cfg)
    assert validate_properties(cfg, hermite_square_baseline(2))["recursion_residual"] <= 1e-9


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
    # shots from either side of the solved x_1 miss the midpoint condition
    # x_12 = -x_11 with opposite signs (a shot that collapses early misses low)
    def defect(x1):
        xs, _ = shoot_sequence(maxwell_square_baseline(), x1, 12)
        return xs[11] + xs[10] if len(xs) == 12 else -math.inf

    cfg = maxwell_configs[22]
    assert defect(cfg.shoot_param * (1 - 1e-3)) < 0.0 < defect(cfg.shoot_param * (1 + 1e-3))


def test_rescaled_recursion(maxwell_configs):
    # the Maxwell points divided by sqrt(3) solve the factor-1 recursion
    # x_{n+1}^3 = x_n^3 - 1/S_n, to the rounding of n partial sums
    for n in (16, 512):
        pts = [v / math.sqrt(3.0) for v in maxwell_configs[n].points]
        worst = partial = 0.0
        for x, nxt in zip(pts[:-1], pts[1:]):
            partial += 1.0 / x
            worst = max(worst, abs(nxt ** 3 - x ** 3 + 1.0 / partial))
        assert worst <= 4 * n * np.finfo(float).eps


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


def test_json_writes_what_json_dumps_writes(maxwell_configs):
    # a mirror formats its first half once; every byte stays json.dumps'
    mirrored = [maxwell_configs[n] for n in (2, 22, 4096)]
    mirrored.append(solve_configuration(GROUND, 1001))  # odd: 0.0 at the centre
    assert all(solver._is_positive_mirror(np.array(cfg.points)) for cfg in mirrored)
    payload = json.loads(configuration_to_json(maxwell_configs[22]))
    payload["points"][3] += 1e-3
    edited = configuration_from_json(json.dumps(payload))
    assert not solver._is_positive_mirror(np.array(edited.points))
    # mirrored by value, but json.dumps writes the ints as 2 and the floats as -2.0
    ints = configuration_from_json(json.dumps(dict(payload, N=4, points=[2, 1, -1.0, -2.0])))
    for cfg in mirrored + [edited, ints]:
        text = configuration_to_json(cfg)
        assert text == json.dumps({"family": cfg.family, "N": cfg.n_worlds,
                                   "points": list(cfg.points),
                                   "shoot_param": cfg.shoot_param, "residuals": cfg.residuals})
        assert configuration_from_json(text) == cfg


def test_recursion_residual_on_exact_points():
    assert recursion_residual(ground_baseline(), (1.0, 0.0, -1.0)) <= 1e-15


def _scalar_residual(bl, points):
    """The recursion defect by a plain float loop over b and B, as a second route."""
    worst = partial = 0.0
    for x, nxt in zip(points[:-1], points[1:]):
        partial += x / float(bl.b(x))
        worst = max(worst, abs(float(bl.B(nxt)) - float(bl.B(x)) + 1.0 / partial))
    return worst


def test_recursion_residual_matches_scalar_loop(maxwell_configs):
    # bit for bit: the residual is printed by `solve`
    maxwell = maxwell_square_baseline()
    cases = [(maxwell, maxwell_configs[n]) for n in (8, 512, 4096)]
    cases.append((maxwell, solve_configuration(MAXWELL, 65536)))
    cases.append((ground_baseline(), solve_configuration(GROUND, 301)))
    for bl, n in [(hermite_square_baseline(2), 41), (hermite_square_baseline(3), 40),
                  (monomial_baseline(4).normalized(), 1000)]:
        cases.append((bl, solve_configuration(GENERAL, n, baseline=bl)))
    for bl, cfg in cases:
        assert recursion_residual(bl, cfg.points) == _scalar_residual(bl, cfg.points)


def test_recursion_residual_zero_partial_sum_is_infinite():
    assert recursion_residual(ground_baseline(), (1.0, -1.0, 0.5)) == math.inf


def test_maxwell_65536_shoot_param_is_pinned():
    # reference: the x_1 whose 60-digit mpmath shot lands on -x_1 at the
    # midpoint (40 digits agree), taken exactly rather than as its nearest
    # double 4.971885212422727; the window is one ulp either side of it
    ref = Fraction("4.9718852124227267")
    x1 = solve_configuration(MAXWELL, 65536).shoot_param
    assert abs(Fraction(x1) - ref) <= Fraction(math.ulp(x1))


def test_maxwell_4096_refines_in_few_shots(maxwell_configs):
    # Newton from the target quantiles converges quadratically
    stats = maxwell_configs[4096].stats
    assert stats.start == "quantile" and stats.starts_tried == 1
    assert stats.iterations <= 6 and stats.backtracks == 0
    history = stats.residual_history
    assert all(b < a for a, b in zip(history, history[1:]))
    assert history[-1] <= 1e-13


def _mpmath_shot(r, n, x1):
    """Positive half of the b = x^r recursion shot at 40 digits, from the x_1
    that closes the midpoint condition, found by the secant method from
    ``x1``: a route that shares no code with the solver's Newton."""
    mp = pytest.importorskip("mpmath")
    h = n // 2
    with mp.workdps(40):
        root = mp.mpf(1) / (r + 1)

        def shoot(t):
            xs, partial = [t], 0
            while len(xs) <= h:
                partial += xs[-1] ** (1 - r)
                y = xs[-1] ** (r + 1) - (r + 1) / partial
                xs.append(mp.sign(y) * abs(y) ** root)
            return xs

        def defect(t):
            xs = shoot(t)
            return xs[h] + xs[h - 1] if n % 2 == 0 else xs[h]

        t = mp.findroot(defect, (mp.mpf(x1), mp.mpf(x1) * (1 + mp.mpf(10) ** -14)),
                        solver="secant")
        xs = shoot(t)
        assert all(a > b for a, b in zip(xs, xs[1:h]))
        return [float(v) for v in xs[:h]]


@pytest.mark.parametrize(
    "family, n, baseline, r",
    [(MAXWELL, 512, None, 2), (GROUND, 301, None, 0)],
    ids=["maxwell-512", "ground-301"],
)
def test_points_match_mpmath_shooting(family, n, baseline, r):
    cfg = solve_configuration(family, n, baseline=baseline)
    ref = _mpmath_shot(r, n, cfg.shoot_param)
    got = cfg.points[: n // 2]
    assert max(abs(a - b) / abs(b) for a, b in zip(got, ref)) <= 1e-13


def test_monomial_r4_n1000_shoot_param_is_pinned():
    # the reference is the 40-digit shot; the scaling of b does not change
    # the recursion, so b = x^4 stands for the normalized x^4 / 3
    cfg = solve_configuration(GENERAL, 1000, baseline=monomial_baseline(4).normalized())
    ref = _mpmath_shot(4, 1000, cfg.shoot_param)
    assert cfg.shoot_param == cfg.points[0]
    assert abs(cfg.shoot_param - ref[0]) <= 4 * math.ulp(ref[0])
    got = cfg.points[:500]
    assert max(abs(a - b) / abs(b) for a, b in zip(got, ref)) <= 1e-13


@pytest.mark.parametrize("k, n", [(2, 21), (2, 35), (2, 82), (3, 82), (4, 100)])
def test_nodal_cell_counts_track_the_target(k, n):
    # For k >= 2 the recursion has many symmetric solutions; the one that
    # tracks p_k puts about N P_k(cell) worlds in each nodal cell of He_k.
    # k=4 N=100 fails the 1e-9 residual gate by the evaluator's
    # cancellation (see test_hermite_k4_n100_residual_gate), not by its points.
    bl = hermite_square_baseline(k)
    cfg = solve_configuration(GENERAL, n, baseline=bl, residual_tol=1e-7)
    zeros = np.array(bl.zeros_of_b)
    counts = np.histogram(cfg.points, bins=np.concatenate(([-np.inf], zeros, [np.inf])))[0]
    expected = n * np.diff(np.concatenate(([0.0], cdf_pk(k, zeros), [1.0])))
    assert np.max(np.abs(counts - expected)) <= 2.0


def test_newton_path_matches_closed_form_path():
    # b = x^2 both ways: hermite-sq k=1 with its closed-form inverse of B
    # switched off inverts B by Newton, the Maxwell square baseline by the
    # closed form
    x1 = solve_configuration(GENERAL, 40, baseline=maxwell_square_baseline()).shoot_param
    newton = hermite_square_baseline(1)
    object.__setattr__(newton, "_root", None)
    xs, reason = shoot_sequence(newton, x1, 21)
    ys, _ = shoot_sequence(maxwell_square_baseline(), x1, 21)
    assert reason == "completed"
    assert xs == pytest.approx(ys, rel=1e-12, abs=1e-12)


def test_solve_stats_count_every_shot():
    cfg = solve_configuration(GENERAL, 21, baseline=hermite_square_baseline(2))
    stats = cfg.stats
    assert stats.iterations == len(stats.residual_history) - 1 >= 1
    assert all(b < a for a, b in zip(stats.residual_history, stats.residual_history[1:]))
    assert stats.residual_history[-1] <= 1e-12
    assert stats.start == "quantile" and stats.starts_tried == 1
    assert stats.backtracks >= 0


@pytest.mark.parametrize(
    "baseline, n",
    [(hermite_square_baseline(4), 200), (monomial_baseline(8).normalized(), 1000)],
    ids=["hermite-sq-k4-n200", "monomial-r8-n1000"],
)
def test_failed_solve_keeps_its_stats(baseline, n):
    # the solves the CLI reports as numerical failures; the message is
    # unchanged.  Newton converged on the half-system: the excess is the
    # forward-cumsum residual's cancellation past the midpoint.
    with pytest.raises(ResidualFailure,
                       match=rf"recursion defect \S+ exceeds 1e-09 \(general, N={n}\)") as info:
        solve_configuration(GENERAL, n, baseline=baseline)
    stats = info.value.stats
    assert stats.iterations == len(stats.residual_history) - 1 >= 1
    assert stats.residual_history[-1] <= 1e-11
    assert stats.start == "quantile"


@pytest.mark.xfail(
    strict=True,
    raises=ResidualFailure,
    reason="hermite-sq k=4 N=100 solves the half-system to max|G| = 1.7e-12 "
    "(exact residual of its points 1.6e-12, by 50-digit mpmath) but the "
    "forward-cumsum recursion_residual reads 1.9e-8 > 1e-9: past the "
    "midpoint its partial sums cancel. ROADMAP open item 1 (the suffix "
    "form) is the fix.",
)
def test_hermite_k4_n100_residual_gate():
    solve_configuration(GENERAL, 100, baseline=hermite_square_baseline(4))


def test_nonconvergence_keeps_its_stats(monkeypatch):
    # a failed Newton from every start raises a typed error with its counts
    monkeypatch.setattr(solver, "_NEWTON_MAX_ITER", 0)
    with pytest.raises(NonConvergence, match=r"from none of 4 starts \(general, N=12\)") as info:
        solve_configuration(GENERAL, 12, baseline=hermite_square_baseline(2))
    assert info.value.stats.starts_tried == 4
    assert info.value.stats.iterations == 0


def _target_cdf_reference(bl):
    """solver._target_cdf's F with Q a Polynomial and phi through np.square."""
    c = bl.b_poly.coef
    Q = np.zeros(c.size + 1)
    for n in range(c.size - 1, 0, -1):
        Q[n - 1] = (n + 1) * Q[n + 1] - c[n]
    m = c[0] - Q[1]
    Q = Polynomial(Q[: max(c.size - 1, 1)])
    return lambda t: normal_cdf(t) + Q(t) * (np.exp(-0.5 * np.square(t)) / SQRT_2PI) / m


@pytest.mark.parametrize("bl", [pytest.param(ground_baseline(), id="ground-None"),
                                pytest.param(maxwell_square_baseline(), id="maxwell_square-None")]
                         + [pytest.param(hermite_square_baseline(k), id=f"hermite_square-{k}")
                            for k in range(1, 7)]
                         + [pytest.param(monomial_baseline(r).normalized(), id=f"monomial-{r}")
                            for r in (4, 6, 8)])
def test_target_cdf_is_bit_identical_to_a_polynomial_Q(bl):
    F, ref = solver._target_cdf(bl)[0], _target_cdf_reference(bl)
    xs = np.concatenate((np.linspace(-9.0, 9.0, 361),
                         np.random.default_rng(12).uniform(-9.0, 9.0, 400)))
    assert F(xs).tobytes() == ref(xs).tobytes()
    assert np.array([F(x) for x in xs.tolist()]).tobytes() == ref(xs).tobytes()
