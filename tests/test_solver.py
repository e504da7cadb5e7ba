import dataclasses
import hashlib
import io
import json
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from scipy.linalg import solve_banded

from miworlds import numerics, solver
from miworlds.energy import potential_V
from miworlds.errors import MiwError, MiwValidation, NonConvergence, ResidualFailure
from miworlds.solver import (
    GENERAL,
    GROUND,
    MAXWELL,
    configuration_from_json,
    configuration_json_pieces,
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
from reference import left_sum

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
    scaled = Baseline(Polynomial([0.0, 0.0, 3.0]), (0.0,))
    xs, _ = shoot_sequence(scaled, 1.7, 8)
    ys, _ = shoot_sequence(maxwell_square_baseline(), 1.7, 8)
    assert len(xs) == len(ys) >= 2
    assert xs == pytest.approx(ys, rel=1e-12)


def test_shoot_invalid_start():
    with pytest.raises(MiwError, match=r"^shooting start must be positive, got -1\.0$"):
        shoot_sequence(ground_baseline(), -1.0, 4)


def test_shoot_stops_on_a_zero_of_b():
    # x_1 = 1 is a zero of He_2^2 / 2: x_1 / b(x_1) is never formed
    assert shoot_sequence(hermite_square_baseline(2), 1.0, 5) == ([1.0], "baseline_zero")


def test_shoot_stops_where_b_underflows():
    # b(0.5) = 0.5^300 / 299!! underflows to 0.0, so x/b is +inf: the partial sum is singular
    bl = monomial_baseline(300).normalized()
    assert float(bl.b(0.5)) == 0.0
    assert shoot_sequence(bl, 0.5, 5) == ([0.5], "singular_partial_sum")


def test_shoot_stop_reason_nondecreasing():
    # a tiny start collapses immediately for the ground recursion
    xs, reason = shoot_sequence(ground_baseline(), 0.1, 10)
    assert reason in {"nondecreasing", "singular_partial_sum"}
    assert len(xs) < 10


def test_solve_maxwell_n2_closed_form(maxwell_configs):
    cfg = maxwell_configs[2]
    assert cfg.points == pytest.approx((SQRT_1_5, -SQRT_1_5), abs=1e-12)
    assert potential_V(cfg.points) == pytest.approx(3.0, abs=1e-12)


def test_solve_ground_n3():
    cfg = solve_configuration(GROUND, 3)
    assert cfg.points == pytest.approx((1.0, 0.0, -1.0), abs=1e-9)
    assert potential_V(cfg.points) == pytest.approx(2.0, abs=1e-9)


def test_solve_maxwell_n22(maxwell_configs):
    cfg = maxwell_configs[22]
    assert abs(potential_V(cfg.points) - 63.0) <= 1e-7
    assert cfg.points[10] >= math.sqrt(3.0 / 22.0)
    assert cfg.residuals["max_recursion_residual"] <= 1e-9


def test_maxwell_odd_parity_rejected():
    with pytest.raises(MiwValidation, match=r"^b\(0\) = 0 needs an even world count, got 21$"):
        solve_configuration(MAXWELL, 21)


def test_general_maxwell_square_odd_parity_rejected():
    with pytest.raises(MiwValidation, match=r"^b\(0\) = 0 needs an even world count, got 5$"):
        solve_configuration(GENERAL, 5, baseline=maxwell_square_baseline())


def test_odd_parity_follows_the_polynomial_not_the_declared_zeros():
    # b = x^2 with no declared zero: b(0) = 0 is read from the constant coefficient
    bl = Baseline(Polynomial([0.0, 0.0, 1.0]))
    with pytest.raises(MiwValidation, match=r"^b\(0\) = 0 needs an even world count, got 5$"):
        solve_configuration(GENERAL, 5, baseline=bl)


def test_one_world_is_refused():
    with pytest.raises(MiwValidation, match="^need at least two worlds, got 1$"):
        solve_configuration(GROUND, 1)


def test_a_fixed_family_refuses_another_baseline(maxwell_configs):
    other = hermite_square_baseline(2)
    with pytest.raises(MiwValidation, match=r"^the maxwell family's baseline has coefficients "
                       r"\[0\.0, 0\.0, 1\.0\], not \[0\.5, 0\.0, -1\.0, 0\.0, 0\.5\]$"):
        solve_configuration(MAXWELL, 8, baseline=other)
    with pytest.raises(MiwValidation, match="^the maxwell family's baseline"):
        validate_properties(maxwell_configs[8], other)
    with pytest.raises(MiwValidation, match="^the ground family's baseline"):
        solve_configuration(GROUND, 8, baseline=maxwell_square_baseline())


@pytest.mark.parametrize("family, baseline", [
    (MAXWELL, maxwell_square_baseline()), (MAXWELL, monomial_baseline(2)),
    (MAXWELL, Baseline(Polynomial([0.0, 0.0, 1.0]))),
    (MAXWELL, Baseline(Polynomial([0.0, 0.0, 1.0, 0.0]), (0.0,))), (GROUND, ground_baseline()),
    (GROUND, Baseline(Polynomial([1.0]))),
], ids=["maxwell-own", "maxwell-monomial-2", "maxwell-undeclared-zero", "maxwell-trailing-zero",
        "ground-own", "ground-equal"])
def test_a_fixed_family_takes_its_own_polynomial(family, baseline):
    # the family's own baseline or an equal polynomial solves as no baseline does
    cfg = solve_configuration(family, 8, baseline=baseline)
    ref = solve_configuration(family, 8)
    assert cfg.points.tobytes() == ref.points.tobytes()
    assert validate_properties(cfg, baseline) == validate_properties(ref)


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


@pytest.mark.parametrize("bl", [monomial_baseline(2).normalized(), hermite_square_baseline(1)],
                         ids=["monomial-2", "hermite-sq-1"])
def test_variance_identity_follows_the_polynomial(bl, maxwell_configs):
    # b = x^2 under another constructor solves as the general family and
    # still reports the Maxwell variance defect, in solve and in verify
    cfg = solve_configuration(GENERAL, 22, baseline=bl)
    ref = maxwell_configs[22]
    assert cfg.residuals == ref.residuals
    assert cfg.residuals["variance_defect"] <= 1e-7 * 22
    assert validate_properties(cfg, bl) == validate_properties(ref)
    assert validate_properties(cfg, bl)["p2_variance_defect"] is not None
    other = solve_configuration(GENERAL, 22, baseline=hermite_square_baseline(2))
    assert "variance_defect" not in other.residuals
    assert validate_properties(other, hermite_square_baseline(2))["p2_variance_defect"] is None


@pytest.mark.parametrize("family, n, baseline", [
    (MAXWELL, 22, None), (GROUND, 21, None),
    (GENERAL, 100, monomial_baseline(4).normalized()), (GENERAL, 82, hermite_square_baseline(2)),
], ids=["maxwell-22", "ground-21", "monomial-4-100", "hermite-sq-2-82"])
def test_solve_and_validate_report_the_same_defects(family, n, baseline):
    # one routine computes both reports: every shared defect agrees bit for bit
    cfg = solve_configuration(family, n, baseline=baseline)
    rep, res = validate_properties(cfg, baseline), cfg.residuals
    assert res["max_recursion_residual"] == rep["recursion_residual"]
    assert res["mean_abs"] == rep["p1_zero_mean_defect"] / n
    assert res["symmetry_defect"] == rep["p3_symmetry_defect"]
    assert ("variance_defect" in res) == (rep["p2_variance_defect"] is not None)
    assert res.get("variance_defect") == rep["p2_variance_defect"]


def test_validate_general_without_baseline_raises():
    # the same lookup as solve_configuration, and the same message
    cfg = solve_configuration(GENERAL, 21, baseline=hermite_square_baseline(2))
    with pytest.raises(MiwValidation, match="general family requires a baseline"):
        validate_properties(cfg)
    assert validate_properties(cfg, hermite_square_baseline(2))["recursion_residual"] <= 1e-9


def test_validate_reports_increasing_violation():
    from miworlds.solver import Configuration

    bad = Configuration(family=GROUND, points=(-1.0, 1.0), residuals={})
    # bypass solve: hand-built increasing configuration
    rep = validate_properties(bad)
    assert rep["p4_decreasing_violation"]


@pytest.mark.parametrize("points, violated", [
    ((1.0, 1.0, -1.0, -1.0), True),
    ((math.inf, math.inf, -math.inf, -math.inf), True),
    ((1.5, 0.5, -0.5, -1.5), False),
], ids=["tie", "repeated-infinity", "strictly-decreasing"])
def test_validate_reports_ties_as_decreasing_violations(points, violated):
    from miworlds.solver import Configuration

    # a tie is not strictly decreasing, and inf - inf is nan, so neighbours
    # are compared directly rather than through their differences
    cfg = Configuration(family=GROUND, points=points, residuals={})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = validate_properties(cfg)
    assert rep["p4_decreasing_violation"] is violated


@pytest.mark.parametrize("family", [GROUND, MAXWELL])
def test_validate_rejects_a_configuration_without_points(family):
    from miworlds.solver import Configuration

    # the record refuses to be empty, so validation never sees one
    with pytest.raises(MiwValidation, match="at least one point"):
        Configuration(family=family, points=(), residuals={})
    cfg = Configuration(family=family, points=(1.0, -1.0), residuals={})
    with pytest.raises(MiwValidation, match="at least one point"):
        dataclasses.replace(cfg, points=np.empty(0))
    assert validate_properties(cfg)["p3_symmetry_defect"] == 0.0


@pytest.mark.parametrize("points, symmetry, violated", [
    ((math.inf, math.inf, -math.inf, -math.inf), math.inf, True),
    ((math.inf, 1.0, -1.0, -math.inf), math.inf, False),
    ((math.nan, 1.0, -1.0, -2.0), math.inf, True),
    ((1.5, 0.5, -0.5, -1.5), 0.0, False),
], ids=["repeated-infinity", "infinite-ends", "nan-first", "finite"])
def test_validate_reports_non_finite_points_without_warnings(points, symmetry, violated):
    from miworlds.solver import Configuration

    # inf - inf and a NaN point give an infinite symmetry defect, as the
    # recursion residual does, and a NaN never counts as decreasing
    cfg = Configuration(family=GROUND, points=points, residuals={})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = validate_properties(cfg)
    assert rep["p3_symmetry_defect"] == symmetry
    assert rep["p4_decreasing_violation"] is violated


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
    assert (back.family, back.residuals) == (cfg.family, cfg.residuals)
    assert back.points.tobytes() == cfg.points.tobytes()
    assert configuration_to_json(back) == text


def test_json_writes_what_json_dumps_writes(maxwell_configs):
    # a mirror formats its first half once, in blocks of 4096 points; every
    # byte stays json.dumps'
    block = solver._JSON_BLOCK
    mirrored = [maxwell_configs[n] for n in (2, 22, 4096)]
    mirrored += [solve_configuration(MAXWELL, n) for n in (2 * block + 2, 10002, 16 * block)]
    # odd: 0.0 at the centre, after one full block and after seven and a part
    mirrored += [solve_configuration(GROUND, n) for n in (1001, 2 * block + 1, 16 * block - 1)]
    # integer points load as floats, so these are a mirror too, written 2.0 and -2.0
    payload = json.loads(configuration_to_json(maxwell_configs[22]))
    mirrored.append(configuration_from_json(
        json.dumps(dict(payload, N=4, points=[2, 1, -1.0, -2.0], shoot_param=2))))
    assert all(solver._is_positive_mirror(cfg.points) for cfg in mirrored)
    payload["points"][3] += 1e-3
    edited = configuration_from_json(json.dumps(payload))
    assert not solver._is_positive_mirror(edited.points)
    for cfg in mirrored + [edited]:
        pieces = list(configuration_json_pieces(cfg))
        text = "".join(pieces)
        assert text == configuration_to_json(cfg) == json.dumps(
            {"family": cfg.family, "N": cfg.n_worlds, "points": cfg.points.tolist(),
             "shoot_param": cfg.shoot_param, "residuals": cfg.residuals})
        assert configuration_from_json(text).points.tobytes() == cfg.points.tobytes()
        # one piece per block of each half and one for the tail; one in all off the mirror path
        blocks = -(-(cfg.n_worlds // 2) // block)
        assert len(pieces) == (2 * blocks + 1 if cfg in mirrored else 1)


def test_mirrored_json_streams_its_blocks():
    # written piece by piece, the 1.26 MiB of a 2^16-world configuration's
    # JSON peaked at 3.7 MiB traced, the written text included; one string
    # built whole peaked at 6.1 MiB
    cfg = solve_configuration(MAXWELL, 65536)
    out = io.StringIO()
    tracemalloc.start()
    try:
        out.writelines(configuration_json_pieces(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.getvalue() == configuration_to_json(cfg)
    assert peak <= 4 * 2**20


def _assert_reprs(values):
    x = np.array(values, dtype=float)
    assert solver._positive_reprs(x) == [repr(v).encode() for v in x.tolist()]


@given(st.lists(st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_positive_reprs_are_repr(values):
    _assert_reprs(values)
    _assert_reprs(sorted(values, reverse=True))  # in runs of one decimal exponent


def _neighbours(values):
    x = np.array(values, dtype=float)
    return np.concatenate((x, np.nextafter(x, 0.0), np.nextafter(x, math.inf)))


def test_positive_reprs_at_the_edges():
    rng = np.random.default_rng(5)
    # 15- and 16-digit decimals over the fixed-notation range
    short = [float(f"{int(m)}e{e}") for digits in (15, 16)
             for m, e in zip(rng.integers(10 ** (digits - 1), 10**digits, 200),
                             rng.integers(-3 - digits, 17 - digits, 200))]
    cases = {
        "powers of two": [2.0**e for e in range(-20, 61)],
        "where repr takes an exponent": _neighbours([1e-4, 1e16]),
        "the last before 1e16": [9.999999999999999e15, 9999999999999998.0],
        "0.1 + 0.2": [0.30000000000000004, 0.1, 0.2, 0.3],
        "2^53 +- 1 scaled": [float(f"{m}e{e}") for m in (2**53 - 1, 2**53 + 1)
                             for e in range(-20, 1)],
        "15- and 16-digit decimals and their neighbours": _neighbours(short),
        "subnormals": [5e-324, 1e-310, np.nextafter(2.2250738585072014e-308, 0.0)],
    }
    for values in cases.values():
        _assert_reprs(values)
        _assert_reprs(sorted(values))


def test_positive_reprs_fall_back_to_repr_rarely(monkeypatch):
    calls = []
    monkeypatch.setattr(solver, "_repr_bytes", lambda v: calls.append(v) or repr(v).encode())
    # powers of two and points outside [1e-4, 1e16) are repr's own
    _assert_reprs([1e-5, 0.5, 3.0, 2.0**60, 1e16, 1e300])
    assert calls == [1e-5, 0.5, 2.0**60, 1e16, 1e300]
    for family, most in ((MAXWELL, 0), (GROUND, 3)):
        cfg = solve_configuration(family, 65536)
        calls.clear()
        assert configuration_to_json(cfg) == json.dumps(
            {"family": cfg.family, "N": cfg.n_worlds, "points": cfg.points.tolist(),
             "shoot_param": cfg.shoot_param, "residuals": cfg.residuals})
        assert len(calls) <= most


@pytest.mark.parametrize("family, n", [(MAXWELL, 22), (GROUND, 1001)], ids=["even", "odd"])
def test_configuration_array_is_the_read_only_points(family, n):
    cfg = solve_configuration(family, n)
    x = cfg.points
    assert x.dtype == np.float64 and not x.flags.writeable
    assert x.shape == (n,) and x[0] == cfg.shoot_param
    with pytest.raises(ValueError):
        x[0] = 0.0
    # the residuals' sums add left to right, as the points' float sum does
    assert cfg.residuals["mean_abs"] == abs(left_sum(x.tolist())) / n


@pytest.mark.parametrize("family, n, baseline", [
    (MAXWELL, 22, None), (MAXWELL, 4096, None), (GROUND, 3, None), (GROUND, 1001, None),
    (GENERAL, 100, monomial_baseline(4).normalized()), (GENERAL, 81, hermite_square_baseline(2)),
], ids=["maxwell-22", "maxwell-4096", "ground-3", "ground-1001", "monomial-4-100",
        "hermite-sq-2-81"])
def test_array_and_points_routes_agree(family, n, baseline):
    # a configuration read back from its JSON writes the same bytes and
    # validates to the same report as the solver's own
    cfg = solve_configuration(family, n, baseline=baseline)
    text = configuration_to_json(cfg)
    report = json.dumps(validate_properties(cfg, baseline=baseline))
    other = configuration_from_json(text)
    assert other.points.tobytes() == cfg.points.tobytes()
    assert configuration_to_json(other) == text
    assert json.dumps(validate_properties(other, baseline=baseline)) == report
    assert json.loads(report)["p1_zero_mean_defect"] == abs(left_sum(cfg.points.tolist()))


def test_int_points_load_and_validate_as_floats():
    raw = {"family": GROUND, "N": 3, "points": [1, 0, -1], "shoot_param": 1, "residuals": {}}
    ints = configuration_from_json(json.dumps(raw))
    floats = dataclasses.replace(ints, points=(1.0, 0.0, -1.0))
    assert validate_properties(ints) == validate_properties(floats)
    assert configuration_to_json(ints) == configuration_to_json(floats)
    assert '"points": [1.0, 0.0, -1.0]' in configuration_to_json(ints)


@pytest.mark.parametrize("family, n, baseline", [
    pytest.param(MAXWELL, 22, None, id="maxwell-22"),
    pytest.param(GROUND, 21, None, id="ground-21"),
    pytest.param(GENERAL, 81, hermite_square_baseline(2), id="hermite-sq-2-81"),
    pytest.param(GENERAL, 100, monomial_baseline(4).normalized(), id="monomial-4-100"),
])
def test_json_roundtrip_keeps_every_field(family, n, baseline):
    # a solved configuration holds what its JSON holds, and nothing more
    cfg = solve_configuration(family, n, baseline=baseline)
    back = configuration_from_json(configuration_to_json(cfg))
    for field in dataclasses.fields(cfg):
        want, got = getattr(cfg, field.name), getattr(back, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        else:
            assert got == want, field.name


def _assert_one_record(cfg, values):
    """cfg holds ``values`` once, as a read-only float64 array."""
    x = cfg.points
    assert isinstance(x, np.ndarray) and x.dtype == np.float64 and x.ndim == 1
    assert not x.flags.writeable
    assert x.tolist() == [float(v) for v in values]
    assert cfg.n_worlds == x.size and type(cfg.n_worlds) is int
    assert cfg.shoot_param == x[0] and type(cfg.shoot_param) is float
    assert [f.name for f in dataclasses.fields(cfg)] == ["family", "points", "residuals"]


def test_solved_and_loaded_configurations_hold_one_read_only_array():
    cfg = solve_configuration(GROUND, 1001)
    _assert_one_record(cfg, cfg.points.tolist())
    back = configuration_from_json(configuration_to_json(cfg))
    _assert_one_record(back, cfg.points.tolist())
    assert back is not cfg and back != cfg  # compared by identity


@pytest.mark.parametrize("make", [tuple, list, np.array], ids=["tuple", "list", "array"])
def test_hand_built_configuration_copies_its_points(make):
    values = [2, 1.0, -1.0, -2]
    given = make(values)
    cfg = solver.Configuration(family=GROUND, points=given, residuals={})
    _assert_one_record(cfg, values)
    if isinstance(given, np.ndarray):
        # a caller's array is copied, never frozen
        assert given.flags.writeable and not np.shares_memory(given, cfg.points)
        given[0] = 5.0
        assert cfg.points[0] == 2.0


def test_replace_normalises_the_points_again():
    cfg = solve_configuration(MAXWELL, 22)
    moved = dataclasses.replace(cfg, points=[3, 1.5, -1.5, -3])
    _assert_one_record(moved, [3.0, 1.5, -1.5, -3.0])
    assert moved.residuals is cfg.residuals
    assert cfg.n_worlds == 22


@pytest.mark.parametrize("family, n", [(MAXWELL, 4096), (GROUND, 1001)])
def test_list_of_points_dumps_as_their_floats(family, n):
    # json.dumps writes an np.float64 as the float it subclasses
    cfg = solve_configuration(family, n)
    assert json.dumps(list(cfg.points)) == json.dumps(cfg.points.tolist())


def test_configuration_rejects_an_unknown_family():
    with pytest.raises(MiwValidation, match="family must be ground, maxwell or general, "
                                            "got 'hermite-sq'"):
        solver.Configuration(family="hermite-sq", points=(1.0, -1.0), residuals={})


def test_solve_rejects_an_unknown_family():
    # the family table that Configuration reads, before any baseline lookup
    with pytest.raises(MiwValidation, match="^family must be ground, maxwell or general, "
                                            "got 'bogus'$"):
        solve_configuration("bogus", 8)


@pytest.mark.parametrize("n", [8.0, True, "8"])
def test_solve_rejects_a_world_count_that_is_not_an_integer(n):
    with pytest.raises(MiwValidation, match=f"^the world count must be an integer, got {n!r}$"):
        solve_configuration(MAXWELL, n)


def test_configuration_from_json_rejects_text_that_is_not_json():
    with pytest.raises(MiwValidation, match="^the configuration is not JSON: Expecting value"):
        configuration_from_json("not json")


_GOOD = {"family": GROUND, "N": 3, "points": [1.0, 0.0, -1.0], "shoot_param": 1.0,
         "residuals": {}}


@pytest.mark.parametrize("doc, message", [
    ([1.0, -1.0], "a configuration is a JSON object, not a list"),
    ("ground", "a configuration is a JSON object, not a str"),
], ids=["list", "string"])
def test_configuration_from_json_rejects_a_non_object(doc, message):
    with pytest.raises(MiwValidation, match=message):
        configuration_from_json(json.dumps(doc))


@pytest.mark.parametrize("key", sorted(_GOOD))
def test_configuration_from_json_names_a_missing_key(key):
    doc = {k: v for k, v in _GOOD.items() if k != key}
    with pytest.raises(MiwValidation, match=f"the configuration has no '{key}'"):
        configuration_from_json(json.dumps(doc))


@pytest.mark.parametrize("points", [
    [], [[1.0], [-1.0]], [1.0, "0", -1.0], [True, False, -1.0], {"0": 1.0}, 1.0, None,
    [10 ** 400, 0, -(10 ** 400)],
], ids=["empty", "nested", "string", "bool", "object", "number", "null", "past-float-range"])
def test_configuration_from_json_rejects_points_that_are_not_numbers(points):
    with pytest.raises(MiwValidation, match="'points' must be a non-empty list of numbers"):
        configuration_from_json(json.dumps(dict(_GOOD, points=points)))


@pytest.mark.parametrize("n", [5, 2, 3.0, "3", True])
def test_configuration_from_json_checks_n_against_the_points(n):
    with pytest.raises(MiwValidation, match=r"'N' is .*, but there are 3 points"):
        configuration_from_json(json.dumps(dict(_GOOD, N=n)))


@pytest.mark.parametrize("x1", [7.0, -1.0, "1.0", None, 10 ** 400])
def test_configuration_from_json_checks_shoot_param_against_the_first_point(x1):
    with pytest.raises(MiwValidation, match=r"'shoot_param' is .*, not the first point 1.0"):
        configuration_from_json(json.dumps(dict(_GOOD, shoot_param=x1)))


@pytest.mark.parametrize("residuals", [[], None, 0.0], ids=["list", "null", "number"])
def test_configuration_from_json_rejects_residuals_that_are_not_an_object(residuals):
    with pytest.raises(MiwValidation, match="'residuals' must be an object"):
        configuration_from_json(json.dumps(dict(_GOOD, residuals=residuals)))


@pytest.mark.parametrize("family", ["hermite-sq", "Ground", "", None])
def test_configuration_from_json_rejects_an_unknown_family(family):
    with pytest.raises(MiwValidation, match="family must be ground, maxwell or general"):
        configuration_from_json(json.dumps(dict(_GOOD, family=family)))


def test_configuration_from_json_loads_non_finite_points_for_validation():
    # json.dumps writes NaN and Infinity, and validate_properties reports them
    doc = dict(_GOOD, points=[math.nan, 0.0, -math.inf], shoot_param=math.nan)
    cfg = configuration_from_json(json.dumps(doc))
    assert math.isnan(cfg.shoot_param) and cfg.points[-1] == -math.inf
    rep = validate_properties(cfg)
    assert rep["p3_symmetry_defect"] == math.inf and rep["p4_decreasing_violation"]


def test_recursion_residual_on_exact_points():
    assert recursion_residual(ground_baseline(), (1.0, 0.0, -1.0)) <= 1e-15


def test_recursion_residual_of_one_point_is_zero():
    # one point has no step, so no defect
    assert recursion_residual(maxwell_square_baseline(), (1.0,)) == 0.0


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


def _replay_newton(cfg, baseline=None):
    """Newton's record of a solve: solver._starts replayed through solver._newton
    up to the first start that converges, whose mirrored points must be the
    solve's.  Returns the start's name, how many starts were tried, the max|G|
    history and the number of step halvings."""
    n = cfg.n_worlds
    bl = solver._baseline(cfg.family, baseline)
    for tried, (start, x0) in enumerate(solver._starts(bl, n), start=1):
        first, history, backtracks, converged = solver._newton(x0, bl, 2.0 if n % 2 == 0 else 1.0)
        if converged:
            break
    mirrored = np.concatenate((first, [0.0] * (n % 2), -first[::-1]))
    assert mirrored.tobytes() == cfg.points.tobytes()
    return start, tried, tuple(history), backtracks


def test_maxwell_4096_refines_in_few_shots(maxwell_configs):
    # Newton from the target quantiles converges quadratically
    start, tried, history, backtracks = _replay_newton(maxwell_configs[4096])
    assert start == "quantile" and tried == 1
    assert len(history) - 1 <= 6 and backtracks == 0
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
    bl = hermite_square_baseline(2)
    cfg = solve_configuration(GENERAL, 21, baseline=bl)
    start, tried, history, backtracks = _replay_newton(cfg, bl)
    assert len(history) - 1 >= 1
    assert all(b < a for a, b in zip(history, history[1:]))
    assert history[-1] <= 1e-12
    assert start == "quantile" and tried == 1
    assert backtracks >= 0


@pytest.mark.parametrize(
    "baseline, n",
    [(hermite_square_baseline(4), 200), (monomial_baseline(8).normalized(), 1000)],
    ids=["hermite-sq-k4-n200", "monomial-r8-n1000"],
)
def test_failed_solve_keeps_its_stats(baseline, n):
    # the solves the CLI reports as numerical failures; the message keeps
    # its text and ends with Newton's summary.  Newton converged on the half-system:
    # the excess is the forward-cumsum residual's cancellation past the midpoint.
    with pytest.raises(ResidualFailure,
                       match=rf"recursion defect \S+ exceeds 1e-09 \(general, N={n}\)") as info:
        solve_configuration(GENERAL, n, baseline=baseline)
    summary = re.search(rf"\(general, N={n}\); Newton reached max\|G\| (\S+) in (\d+) "
                        r"iterations from the quantile start$", str(info.value))
    assert summary, str(info.value)
    assert float(summary[1]) <= 1e-11 and int(summary[2]) >= 1


def test_failure_messages_report_newtons_progress():
    # converged half-system, failed full-sequence check
    with pytest.raises(ResidualFailure) as info:
        solve_configuration(GENERAL, 200, baseline=hermite_square_baseline(4))
    assert str(info.value) == (
        "recursion defect 3.086e-09 exceeds 1e-09 (general, N=200); "
        "Newton reached max|G| 3.64e-12 in 6 iterations from the quantile start")
    # at k = 12 Newton stalls above the 1e-9 bound from every start: at max|G|
    # 6.47e-06 from the quantile start, and at 3.9e-07 or more from the 12 after it
    with pytest.raises(NonConvergence) as info:
        solve_configuration(GENERAL, 16, baseline=hermite_square_baseline(12))
    assert str(info.value) == (
        "Newton converged from none of 13 starts (general, N=16); Newton reached "
        "max|G| 1.43e-06 in 16 iterations from the nodal-shift start, the last of 13")
    # every start failed: the message names the last of them
    with pytest.raises(NonConvergence) as info:
        solve_configuration(GENERAL, 16, baseline=hermite_square_baseline(20))
    assert re.fullmatch(
        r"Newton converged from none of 12 starts \(general, N=16\); Newton reached "
        r"max\|G\| \S+ in \d+ iterations from the nodal-shift start, the last of 12",
        str(info.value)), str(info.value)


@pytest.mark.xfail(
    strict=True,
    raises=ResidualFailure,
    reason="hermite-sq k=4 N=100 solves the half-system to max|G| = 1.7e-12 "
    "(exact residual of its points 1.6e-12, by 50-digit mpmath) but the "
    "forward-cumsum recursion_residual reads 1.9e-8 > 1e-9: past the "
    "midpoint its partial sums cancel. ROADMAP open item 2 (the suffix "
    "form) is the fix.",
)
def test_hermite_k4_n100_residual_gate():
    solve_configuration(GENERAL, 100, baseline=hermite_square_baseline(4))


@pytest.mark.xfail(
    strict=True,
    raises=ResidualFailure,
    reason="normalized monomial b = x^r at N=50 fails the 1e-9 recursion gate: the "
    "forward-cumsum defect reads 1.410e-08 at r=14 and 7.744e-08 at r=16 (CLI "
    "exit 2). The suffix sum of ROADMAP open item 2 reads 3.6e-12 and 3.6e-11 "
    "on the same points.",
)
def test_monomial_r14_r16_n50_residual_gate():
    for r in (14, 16):
        solve_configuration(GENERAL, 50, baseline=monomial_baseline(r).normalized())


def test_newton_floor_admits_no_failed_configuration():
    # Newton accepts only max|G| <= 1e-9, the bound of the full-sequence check
    with pytest.raises(NonConvergence):
        solve_configuration(GENERAL, 16, baseline=hermite_square_baseline(12))


@pytest.mark.parametrize("k", [16, 22])
def test_failed_start_names_the_family_and_n(k, monkeypatch):
    # inverting the target CDF for a start fails within a 3-step budget: the error
    # names the solve, and has no Newton summary, as no Newton run belongs to that start
    monkeypatch.setattr(numerics, "_ROOT_MAX_ITER", 3)
    with pytest.raises(NonConvergence, match="did not converge in 3 steps") as info:
        solve_configuration(GENERAL, 1000, baseline=hermite_square_baseline(k))
    assert str(info.value).endswith("(general, N=1000)")
    assert "Newton reached" not in str(info.value)


@pytest.mark.parametrize("k", [16, 22])
def test_every_start_inverts_the_target_cdf(k):
    # a Newton step that lands on a bracket end bisects, so no inversion cycles
    # between the ends, as every k = 16 and k = 22 start at N = 1000 once did
    starts = list(solver._starts(hermite_square_baseline(k), 1000))
    assert len(starts) == k + 2
    for name, x in starts:
        assert x.shape == (500,) and x[-1] > 0.0 and np.all(x[1:] < x[:-1]), name


def test_zero_of_b_failure_names_the_solve(monkeypatch):
    # a converged half-system with a world on the zero x = 1 of b = (x^2 - 1)^2 / 2
    on_zero = (np.array([2.0, 1.0]), [0.0], 0, True)
    monkeypatch.setattr(solver, "_newton", lambda x, bl, tail: on_zero)
    with pytest.raises(ResidualFailure) as info:
        solve_configuration(GENERAL, 4, baseline=hermite_square_baseline(2))
    assert str(info.value) == (
        "world location 1 lands on a zero of the baseline (general, N=4); "
        "Newton reached max|G| 0 in 0 iterations from the quantile start")


def _poly_exact(coef, x):
    return sum(Fraction(c) * x ** j for j, c in enumerate(coef))


@pytest.mark.parametrize("k, n", [(9, 6), (10, 4)])
def test_nodal_shift_start_solves_below_the_gate(k, n):
    # Newton stalls above 1e-9 from the quantile and nodal starts and solves
    # from the first nodal shift; the recursion defect in exact arithmetic on
    # the returned floats, with b and B from the baseline's float coefficients,
    # meets the gate
    bl = hermite_square_baseline(k)
    cfg = solve_configuration(GENERAL, n, baseline=bl)
    assert _replay_newton(cfg, bl)[0] == "nodal-shift"
    x = [Fraction(v) for v in cfg.points.tolist()]
    B = bl.b_poly.integ().coef
    S, worst = Fraction(0), Fraction(0)
    for a, c in zip(x, x[1:]):
        S += a / _poly_exact(bl.b_poly.coef, a)
        worst = max(worst, abs(_poly_exact(B, c) - _poly_exact(B, a) + 1 / S))
    assert worst <= Fraction(1, 10 ** 9)


def test_nonconvergence_keeps_its_stats(monkeypatch):
    # a failed Newton from every start raises a typed error with its counts:
    # no step taken, so the max|G| reported is the last start's own
    monkeypatch.setattr(solver, "_NEWTON_MAX_ITER", 0)
    bl = hermite_square_baseline(2)
    with pytest.raises(NonConvergence, match=r"from none of 4 starts \(general, N=12\)") as info:
        solve_configuration(GENERAL, 12, baseline=bl)
    *_, (start, x0) = solver._starts(bl, 12)
    history = solver._newton(x0, bl, 2.0)[1]
    assert str(info.value).endswith(f"; Newton reached max|G| {history[0]:.3g} in 0 iterations "
                                    f"from the {start} start, the last of 4")
    assert start == "nodal-shift"


def _record_gtsv(monkeypatch):
    """Route solver._GTSV through a recorder of (ab, rhs, solution, info) per call.

    _GTSV solves in place, so the system is copied before the call and the
    solution, which the solver's next system overwrites, after it.
    """
    calls, gtsv = [], solver._GTSV

    def record(dl, d, du, rhs):
        ab = np.zeros((3, d.size))
        ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
        system = (ab, rhs.copy())
        out = gtsv(dl, d, du, rhs)
        calls.append((*system, out[3].copy(), out[4]))
        return out

    monkeypatch.setattr(solver, "_GTSV", record)
    return calls


@pytest.mark.parametrize("family, n, baseline", [
    (MAXWELL, 2, None), (MAXWELL, 64, None), (MAXWELL, 4096, None),
    (GROUND, 3, None), (GROUND, 65, None), (GENERAL, 82, hermite_square_baseline(2)),
], ids=["maxwell-2", "maxwell-64", "maxwell-4096", "ground-3", "ground-65", "hermite-sq-2-82"])
def test_tridiagonal_steps_match_solve_banded(monkeypatch, family, n, baseline):
    # every Newton system, solved by LAPACK directly and through solve_banded
    calls = _record_gtsv(monkeypatch)
    solve_configuration(family, n, baseline=baseline)
    assert calls
    for ab, rhs, step, info in calls:
        assert info == 0
        assert np.array_equal(step, solve_banded((1, 1), ab, rhs))


def test_nonfinite_newton_system_stops_at_once(monkeypatch):
    # a start on the zero x = 1 of b = (x^2 - 1)^2 / 2 keeps G finite (1/S = 0
    # there) but makes b'/b NaN in the Jacobian, which solve_banded refuses;
    # that 0/0 is silenced as the residual's are, so warnings taken as errors
    # still reach the stop
    calls = _record_gtsv(monkeypatch)
    x0 = np.array([2.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, history, backtracks, converged = solver._newton(x0, hermite_square_baseline(2), 2.0)
    assert calls == [] and len(history) == 1 and math.isfinite(history[0])
    assert backtracks == 0 and not converged and np.array_equal(x, x0)


def test_singular_newton_system_stops_at_once(monkeypatch):
    # LAPACK's info != 0 (a zero pivot, or an argument it refused) ends Newton
    monkeypatch.setattr(solver, "_GTSV", lambda dl, d, du, rhs: (None, d, du, rhs, 1))
    x0 = next(solver._starts(maxwell_square_baseline(), 64))[1]
    x, history, backtracks, converged = solver._newton(x0, maxwell_square_baseline(), 2.0)
    assert len(history) == 1 and backtracks == 0 and not converged
    assert np.array_equal(x, x0)


@pytest.mark.parametrize("family, n, baseline", [(MAXWELL, 64, None), (GROUND, 65, None),
                                               (GENERAL, 82, hermite_square_baseline(2))])
def test_newton_leaves_its_start_alone(family, n, baseline):
    # Newton steps in buffers of its own: the start it was given keeps its bits,
    # and the point it returns is none of the caller's arrays
    bl = solver._baseline(family, baseline)
    x0 = next(solver._starts(bl, n))[1]
    before = x0.copy()
    x, history, backtracks, converged = solver._newton(x0, bl, 2.0 if n % 2 == 0 else 1.0)
    assert converged and len(history) > 1
    assert x0.tobytes() == before.tobytes() and not np.shares_memory(x, x0)


def _target_cdf_reference(bl):
    """The CDF of Baseline.target_cdf_pdf with Q a Polynomial and phi through np.square."""
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
    F, ref = (lambda t: bl.target_cdf_pdf(t)[0]), _target_cdf_reference(bl)
    xs = np.concatenate((np.linspace(-9.0, 9.0, 361),
                         np.random.default_rng(12).uniform(-9.0, 9.0, 400)))
    assert F(xs).tobytes() == ref(xs).tobytes()
    assert np.array([F(x) for x in xs.tolist()]).tobytes() == ref(xs).tobytes()


def _bracketed_quantile_start(bl, n):
    """The quantile start by bracketed Newton on [-L, 0], as _starts forms it above degree 2."""
    u = (np.arange(1, n // 2 + 1) - 0.5) / n
    L = 2.0
    while bl.target_cdf_pdf(-L)[0] > u[0]:
        L *= 2.0
    return -numerics.newton_bracketed(bl.target_cdf_pdf, u, -L, 0.0)


def _iterations_to_tolerance(history):
    return next(i for i, g in enumerate(history) if g <= solver._RESIDUAL_TOL)


_TABLE_SIZES = [*range(2, 65), 100, 256, 1000, 4096, 65536]


@pytest.mark.parametrize("family", [GROUND, MAXWELL])
def test_tabulated_start_solves_as_the_bracketed_one(family):
    # a degree <= 2 baseline starts from its tabulated target CDF: every solve
    # passes the recursion gate, lands within 8 ulp of the solve from the exact
    # quantiles and needs as many Newton steps to reach max|G| <= 1e-9
    bl = solver._baseline(family)
    for n in (n for n in _TABLE_SIZES if family == GROUND or n % 2 == 0):
        cfg = solve_configuration(family, n)
        start, tried, history, _ = _replay_newton(cfg)
        assert (start, tried) == ("quantile", 1), n
        tail = 2.0 if n % 2 == 0 else 1.0
        exact, exact_history, _, converged = solver._newton(_bracketed_quantile_start(bl, n),
                                                            bl, tail)
        assert converged, n
        half = cfg.points[: n // 2]
        assert np.all(np.abs(half - exact) <= 8 * np.spacing(exact)), n
        assert _iterations_to_tolerance(history) == _iterations_to_tolerance(exact_history), n


@pytest.mark.parametrize("bl", [hermite_square_baseline(2), monomial_baseline(4)],
                         ids=["hermite-sq-2", "monomial-4"])
@pytest.mark.parametrize("n", [8, 81, 1000])
def test_higher_degree_start_keeps_the_bracketed_inversion(bl, n):
    # above degree 2 the quantile start is the bracketed inversion, bit for bit
    start = next(solver._starts(bl, n))
    assert start[0] == "quantile"
    assert start[1].tobytes() == _bracketed_quantile_start(bl, n).tobytes()


# sha256 of the points, max|G| history and backtracks of solves.  The ground and
# Maxwell entries were recorded when baselines of degree <= 2 began their quantile
# start from a tabulated target CDF, which moved their points by at most 8 ulp;
# the hermite-sq and monomial entries keep the bits of the bracketed inversion.
# A change that moves points by design (a new start, a new stop rule) updates
# these as a declared output change.
_PINNED_SOLVES = [
    pytest.param(MAXWELL, 64, None,
      "e1e341c8b6f70dbce28ce78a9a511c20a531361528448a85b252108419f7fa53",
      (0.4360232480691777, 0.0111855995686172, 6.672894854453659e-06,
       2.1964652319184097e-12, 1.7763568394002505e-15), 0, id="maxwell-64"),
    pytest.param(MAXWELL, 4096, None,
      "827f2f9009f16eaeb7e12d2b431306b82ea216662a50196974bcbcb299560860",
      (0.5308552559281416, 0.005691879555886459, 5.353466807633822e-07,
       1.1102230246251565e-14), 0, id="maxwell-4096"),
    pytest.param(MAXWELL, 65536, None,
      "ee5a8b17c49ad59e76e8e6d7c8a77a24f5ad81f399356d5ed33aa5d37ba9b1a3",
      (0.5823279426274723, 0.004405189016008393, 2.0202371242561412e-07,
       1.6708856520608606e-14), 0, id="maxwell-65536"),
    pytest.param(GROUND, 64, None,
      "48869c1faf336624e375b4995bbedda2459ba627adb4ff6b8bf0ed22d74e2784",
      (0.01649098701039131, 3.363598569006143e-06, 2.6860180746268725e-12,
       1.3877787807814457e-16), 0, id="ground-64"),
    pytest.param(GROUND, 4096, None,
      "c84adfbceae6ee6ec8e677544ff0b1c9c687f0ddc841cf07576b9472b42228fa",
      (0.018579898376601345, 5.588868719763607e-06, 6.925016116099414e-13,
       3.608224830031759e-16), 0, id="ground-4096"),
    pytest.param(GROUND, 65536, None,
      "0f1c5f75b651ba9a71cc01e67c2ece59c5fb28f0597ca26d3fe82b31949cddc6",
      (0.017496187709147543, 3.6244390336781507e-06, 2.0242141296478167e-13,
       4.2652513465579744e-16), 0, id="ground-65536"),
    pytest.param(GENERAL, 81, hermite_square_baseline(2),
      "aeb72a22bed6806399b2abf943eec7b58f9cd197b7d8038163ecc06041ba9632",
      (4.771089580550843, 0.3104437047155635, 0.0014540991594529373, 3.142459092941863e-08,
       1.3322676295501878e-14), 0, id="hermite-sq-2-81"),
    pytest.param(GENERAL, 1000, monomial_baseline(4).normalized(),
      "c9984c17e0bf4ae21623265c945821858bdbb60b737eea4d721c513a3cf5c24f",
      (5.007419787957527, 0.17370260549448346, 0.00019106934223600547,
       2.1501023184100632e-10, 6.927791673660977e-14), 0, id="monomial-4-1000"),
]


@pytest.mark.parametrize("family, n, baseline, sha256, history, backtracks", _PINNED_SOLVES)
def test_solved_points_keep_their_bits(family, n, baseline, sha256, history, backtracks):
    cfg = solve_configuration(family, n, baseline=baseline)
    assert hashlib.sha256(cfg.points.tobytes()).hexdigest() == sha256
    assert _replay_newton(cfg, baseline)[2:] == (history, backtracks)


@pytest.mark.parametrize("baseline, n, error, message", [
    pytest.param(hermite_square_baseline(4), 200, ResidualFailure,
                 "recursion defect 3.086e-09 exceeds 1e-09 (general, N=200); Newton "
                 "reached max|G| 3.64e-12 in 6 iterations from the quantile start",
                 id="hermite-sq-4-200"),
    pytest.param(monomial_baseline(8).normalized(), 1000, ResidualFailure,
                 "recursion defect 1.408e-08 exceeds 1e-09 (general, N=1000); Newton "
                 "reached max|G| 1.99e-12 in 4 iterations from the quantile start",
                 id="monomial-8-1000"),
    pytest.param(hermite_square_baseline(16), 1000, NonConvergence,
                 "Newton converged from none of 18 starts (general, N=1000); Newton reached "
                 "max|G| 8.4 in 14 iterations from the nodal-shift start, the last of 18",
                 id="hermite-sq-16-1000"),
])
def test_failed_solves_keep_their_messages(baseline, n, error, message):
    # the two full-sequence gate failures, and k = 16, where Newton converges
    # from none of the starts
    with pytest.raises(error) as info:
        solve_configuration(GENERAL, n, baseline=baseline)
    assert str(info.value) == message
