import json
import math
import re
from dataclasses import astuple, fields

import numpy as np
import pytest

from miworlds import cli, metrics
from miworlds.errors import MiwError, MiwValidation
from miworlds.metrics import (
    MAXWELL_MODE_SUP,
    RateRow,
    dk_dw_relation_check,
    kolmogorov,
    measure_configuration,
    rate_sweep,
    wasserstein1,
)
from miworlds.solver import (
    GENERAL,
    GROUND,
    MAXWELL,
    configuration_from_json,
    configuration_to_json,
    solve_configuration,
)
from miworlds.targets import cdf_pk, hermite_square_baseline
from reference import dw_maxwell_mpmath, dw_telescoped, step_cdf


def test_wasserstein_identical():
    F = step_cdf((1.0, -1.0))
    assert wasserstein1(F, F, (-2, 2), jumps=(-1.0, 1.0)) == pytest.approx(0.0, abs=1e-12)


def test_wasserstein_point_masses():
    F = lambda x: 0.0 if x < 0 else 1.0
    G = lambda x: 0.0 if x < 1 else 1.0
    assert wasserstein1(F, G, (-1, 2), jumps=(0.0, 1.0)) == pytest.approx(1.0, abs=1e-10)


def test_wasserstein_two_atom_pairs():
    a, b = 0.7, 1.3
    Fa = step_cdf((a, -a))
    Fb = step_cdf((b, -b))
    d = wasserstein1(Fa, Fb, (-2, 2), jumps=(-b, -a, a, b))
    assert d == pytest.approx(b - a, abs=1e-10)


def test_kolmogorov_n2_enumeration(maxwell_configs):
    cfg = maxwell_configs[2]
    G = lambda x: cdf_pk(1, x)
    dk = kolmogorov(cfg.points, G)
    F, F_left = step_cdf(cfg.points), step_cdf(cfg.points, left=True)
    gaps = []
    for x in cfg.points:
        gaps += [abs(F(x) - G(x)), abs(F_left(x) - G(x))]
    assert dk == pytest.approx(max(gaps), abs=1e-14)


def _kolmogorov_on_a_tuple(points, G):
    """The parent route: atoms kept as a tuple of floats, reversed as a tuple
    and converted to the ascending array that G is called on."""
    atoms = tuple(float(a) for a in points)
    n = len(atoms)
    g = np.asarray(G(np.asarray(atoms[::-1], dtype=float)), dtype=float)
    below = np.arange(n) / n
    return float(max(np.max(np.abs(below + 1.0 / n - g)), np.max(np.abs(below - g))))


@pytest.mark.parametrize("n", [2, 22, 64, 4096])
def test_kolmogorov_on_points_equals_the_tuple_route(n, maxwell_configs):
    pts = maxwell_configs[n].points
    G = lambda x: cdf_pk(1, x)
    assert kolmogorov(pts, G) == _kolmogorov_on_a_tuple(pts, G)
    assert kolmogorov(np.asarray(pts), G) == _kolmogorov_on_a_tuple(pts, G)


def test_kolmogorov_rejects_unordered_atoms():
    with pytest.raises(MiwError, match="^atoms not strictly decreasing at index 0$"):
        kolmogorov((0.0, 1.0), lambda x: x)


def test_kolmogorov_without_atoms_is_a_typed_error():
    # rejected before G is called, not with a ZeroDivisionError or an empty max
    with pytest.raises(MiwValidation, match="1 or more atoms needed, got 0"):
        kolmogorov((), lambda x: x)
    assert kolmogorov((0.5,), lambda x: np.full_like(x, 0.5)) == 0.5


def test_kolmogorov_quantile_discretization():
    # atoms at the target's own (j - 1/2)/N quantiles keep d_K <= 1/N
    from miworlds.numerics import invert_monotone

    n = 16
    atoms = [
        invert_monotone(lambda x: cdf_pk(1, x), (j - 0.5) / n, -8.0, 8.0)
        for j in range(n, 0, -1)
    ]
    dk = kolmogorov(atoms, lambda x: cdf_pk(1, x))
    assert dk <= 1.0 / n + 1e-9


def test_kolmogorov_zero_against_matching_continuous_cdf():
    # the jump-probe formula is exact for continuous G; a G agreeing
    # with F at and just below the atoms yields distance 0
    atoms = (1.0, -1.0)
    G = lambda x: np.where(x < -1.0, 0.0, np.where(x < 1.0, 0.5, 1.0))
    assert kolmogorov(atoms, G) == 0.5  # G is a step too; probes see the gap
    cont = lambda x: np.clip((x + 1.0) / 2.0, 0.0, 1.0)
    assert kolmogorov(atoms, cont) == pytest.approx(0.5, abs=1e-12)


def test_exact_dw_matches_mpmath_reference(sweep_rows):
    # d_W(P_4096, Maxwell) to 17 digits of reference.dw_maxwell_mpmath(points, dps=40),
    # 5.893087756938825320248771e-4; the mirrored half reads 1.50e-11 off (relative),
    # the route over all atoms read 5.77e-11
    assert sweep_rows[-1].N == 4096
    assert sweep_rows[-1].dw == pytest.approx(5.8930877569388253e-4, rel=3e-11)


def test_exact_dw_matches_the_mpmath_route(maxwell_configs):
    # at N = 64 the mirrored half reads 1.18e-14 off the 40-digit route (relative),
    # and the route over all atoms read 2.06e-13
    mpmath = pytest.importorskip("mpmath")
    pts = maxwell_configs[64].points
    ref = dw_maxwell_mpmath(pts)
    assert abs(metrics._dw_exact(pts, 1) - ref) <= mpmath.mpf(1e-13) * ref


def _no_mirrors():
    maxwell = np.array(solve_configuration(MAXWELL, 64).points)
    maxwell[3] += 1e-3
    ground = np.array(solve_configuration(GROUND, 41).points)
    shifted = ground.copy()
    shifted[0] += 0.25
    return {"maxwell-64": maxwell, "ground-41-shifted": shifted, "positive": (3.0, 2.0, 0.5),
            "negative": (-0.5, -1.0, -2.5), "top-at-zero": (0.0, -1.0, -2.0), "one-atom": (0.7,),
            # exact mirrors, the second with an atom at 0
            "maxwell-8": solve_configuration(MAXWELL, 8).points, "ground-41": ground}


@pytest.mark.parametrize("kind", ["maxwell-64", "ground-41-shifted", "positive", "negative",
                                  "top-at-zero", "one-atom", "maxwell-8", "ground-41"])
@pytest.mark.parametrize("k", [1, 2])
def test_dw_of_any_configuration_matches_the_route_over_all_atoms(kind, k):
    # a configuration that is no exact mirror adds the area below 0 of its negated
    # atoms; the worst difference from the telescoped route is 2.8e-13 (maxwell-64,
    # whose own error there is about 2e-13), and from quadrature 4.4e-10
    pts = _no_mirrors()[kind]
    dw = metrics._dw_exact(pts, k)
    assert dw == pytest.approx(dw_telescoped(pts, k), rel=3e-12)
    quad = wasserstein1(step_cdf(pts), lambda x: cdf_pk(k, x), (-12.0, 12.0), jumps=pts)
    assert dw == pytest.approx(quad, rel=1e-9)


@pytest.mark.parametrize("v", [math.inf, 1e200], ids=["inf", "1e200"])
def test_measure_refuses_atoms_where_b_or_B_is_not_finite(v):
    # these once gave d_W 5e199 with every coupling term 0.0, or a failed quadrature
    doc = json.loads(configuration_to_json(solve_configuration(MAXWELL, 4)))
    doc["points"][0], doc["points"][-1] = v, -v
    doc["shoot_param"] = v
    cfg = configuration_from_json(json.dumps(doc))
    message = rf"^b or B is not finite at the atom {re.escape(str(v))} \(index 0\)$"
    with pytest.raises(MiwValidation, match=message):
        measure_configuration(cfg)


@pytest.mark.parametrize("n", [2, 22, 64])
def test_exact_dw_matches_quadrature_route(n, maxwell_configs):
    pts = maxwell_configs[n].points
    quad = wasserstein1(step_cdf(pts), lambda x: cdf_pk(1, x), (-12.0, 12.0), jumps=pts)
    assert measure_configuration(maxwell_configs[n]).dw == pytest.approx(quad, rel=1e-9)


def test_dw_self_check_catches_wrong_antiderivative(maxwell_configs, monkeypatch):
    exact = metrics.cdf_pk_integral
    monkeypatch.setattr(metrics, "cdf_pk_integral", lambda k, x: exact(k, x) * (1 + 1e-8))
    with pytest.raises(MiwError, match=r"^int F_1 over \[\S+, \S+\]: quadrature \S+, closed form \S+$"):
        measure_configuration(maxwell_configs[8])


@pytest.mark.parametrize("family, baseline, name", [
    (GROUND, None, "ground"),
    (GENERAL, hermite_square_baseline(2), "general"),
])
def test_measure_refuses_a_configuration_of_another_law(family, baseline, name):
    # its distances are to the Maxwell law p_1, which fits no other family
    cfg = solve_configuration(family, 22, baseline=baseline)
    with pytest.raises(MiwValidation,
                       match=f"^rates measure a maxwell configuration, not a {name} one$"):
        measure_configuration(cfg)


def test_dw_decays_as_sqrt_log_n_over_n(maxwell_configs):
    # the data follow the envelope's law, not only its bound: the fitted
    # slope of log(d_W N / sqrt(log N)) against log N over 2^10..2^16 is flat
    ns = np.array([2 ** j for j in range(10, 17)])
    cfgs = [maxwell_configs.get(n) or solve_configuration(MAXWELL, n) for n in ns.tolist()]
    dw = np.array([metrics._dw_exact(cfg.points, 1) for cfg in cfgs])
    slope = np.polyfit(np.log(ns), np.log(dw * ns / np.sqrt(np.log(ns))), 1)[0]
    assert -0.05 <= slope <= 0.05


def test_relation_check_contract():
    assert dk_dw_relation_check(0.0, 0.0)
    assert not dk_dw_relation_check(1.0, 1e-6, C=0.3)


def test_relation_on_solved_configs(sweep_rows):
    for r in sweep_rows:
        assert dk_dw_relation_check(r.dk, r.dw)
        # also with the constant as commonly quoted (slightly larger)
        assert dk_dw_relation_check(r.dk, r.dw, C=0.2936268)


def test_mode_constant():
    assert MAXWELL_MODE_SUP == pytest.approx(2 * math.exp(-1) / math.sqrt(2 * math.pi), abs=1e-16)


def test_row_invariants(sweep_rows):
    for r in sweep_rows:
        assert r.dw >= 0 and r.dk >= 0
        assert r.dk <= 1.0
        assert r.dw <= r.rhs_bound + 1e-12


def test_dw_nonincreasing_with_band(sweep_rows):
    for a, b in zip(sweep_rows[:-1], sweep_rows[1:]):
        assert b.dw <= a.dw * 1.05


def test_sweep_fit_and_columns(sweep_rows):
    rows, fit = rate_sweep([8, 16, 32])
    assert fit is not None and {"slope", "ratio_slope", "intercept", "max_ratio"} <= set(fit)
    assert np.isfinite(fit["max_ratio"])
    # single row: fit absent
    rows1, fit1 = rate_sweep([8])
    assert fit1 is None and len(rows1) == 1
    assert astuple(rows1[0])[0] == 8


def test_two_world_sweep_has_finite_ratios_and_fit():
    # the smallest sweep the solver accepts: the envelope sqrt(log N / N) is
    # positive from N = 2, so no row needs a NaN ratio
    rows, fit = rate_sweep([2, 4])
    assert [r.N for r in rows] == [2, 4]
    assert all(math.isfinite(r.ratio_dw) and r.ratio_dw > 0.0 for r in rows)
    assert all(math.isfinite(v) for v in fit.values())


@pytest.mark.parametrize("n_list, bad", [([8.5], 8.5), ([8, 16.0], 16.0), ([True, 8], True),
                                         (["8", 16], "8")])
def test_sweep_refuses_a_world_count_that_is_not_an_integer(n_list, bad):
    # the solver's rule, not the ascending check: int(8.5) once made [8.5] "not ascending",
    # and comparing "8" with 16 once raised a bare TypeError
    with pytest.raises(MiwValidation, match=f"^the world count must be an integer, got {bad!r}$"):
        rate_sweep(n_list)


def test_sweep_validation():
    with pytest.raises(MiwValidation, match="^N list must be strictly ascending$"):
        rate_sweep([32, 8])


def test_rate_csv_serialization(sweep_rows, capsys):
    # the rates CSV renders the asdict rows: the RateRow fields, then one
    # line per row whose 17-digit values read back exactly
    assert cli.main(["rates", "--n-list", "8", "16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split(",") == [f.name for f in fields(RateRow)]
    for line, row in zip(lines[1:3], sweep_rows[:2]):
        assert [float(v) for v in line.split(",")] == list(astuple(row))
    assert len(lines) == 4 and lines[3].startswith("# fit ")
