"""Tests of the benchmark's own oracles and tracer.

Run with ``PYTHONPATH=src python3 -m pytest benchmarks``.
"""

import math

import numpy as np
import pytest

import oracles
from oracles import CheckFailed
from tracer import Tracer, self_times

from miworlds import cli, numerics, solver


def _maxwell(n):
    return solver.solve_configuration(solver.MAXWELL, n).points


def test_maxwell_dw_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    points = sorted(_maxwell(32))

    def F(x):
        return mp.ncdf(x) - x * mp.npdf(x)

    total = mp.quad(F, [-mp.inf, points[0]]) + mp.quad(lambda x: 1 - F(x), [points[-1], mp.inf])
    for j, (lo, hi) in enumerate(zip(points[:-1], points[1:]), start=1):
        level = mp.mpf(j) / len(points)
        if F(lo) >= level:
            cut = lo
        elif F(hi) <= level:
            cut = hi
        else:
            cut = mp.findroot(lambda x: F(x) - level, (lo, hi), solver="anderson")
        total += mp.quad(lambda x: level - F(x), [lo, cut])
        total += mp.quad(lambda x: F(x) - level, [cut, hi])
    assert oracles.maxwell_dw(points) == pytest.approx(float(total), rel=1e-12)


def test_maxwell_dw_reference_value_at_4096():
    # 40-digit mpmath evaluation of d_W at N = 4096
    assert oracles.maxwell_dw(_maxwell(4096)) == pytest.approx(5.8930877569e-4, rel=2e-10)


def test_p2_cdf_closed_form_matches_quadrature():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for x in (-3.0, -1.0, -0.2, 0.0, 0.7, 2.5):
        exact = mp.quad(lambda t: (t * t - 1) ** 2 * mp.npdf(t) / 2, [-mp.inf, x])
        assert oracles.p2_cdf(np.float64(x)) == pytest.approx(float(exact), abs=1e-15)


def test_baseline_poly_hermite_squares():
    x = np.linspace(-3.0, 3.0, 7)
    b2 = oracles.baseline_poly("hermite-sq", k=2)
    b4 = oracles.baseline_poly("hermite-sq", k=4)
    np.testing.assert_allclose(b2(x), (x * x - 1.0) ** 2 / 2.0)
    np.testing.assert_allclose(b4(x), (x ** 4 - 6.0 * x * x + 3.0) ** 2 / 24.0)
    # b = x^4 normalized by E[X^4] = 3
    np.testing.assert_allclose(oracles.baseline_poly("monomial", r=4)(x), x ** 4 / 3.0)


def test_check_configuration_rejects_perturbed_points():
    points = list(_maxwell(64))
    b = oracles.baseline_poly("maxwell")
    assert oracles.check_configuration(points, 64, b) <= oracles.RESIDUAL_TOL
    points[5] += 1e-7
    points[-6] -= 1e-7
    with pytest.raises(CheckFailed, match="recursion defect"):
        oracles.check_configuration(points, 64, b)


def test_tracer_spans_nest_and_originals_return():
    original = numerics.integrate_adaptive
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.region("bench", "pass"):
            assert cli.main(["rates", "--n-list", "8", "16"]) == 0
    finally:
        tracer.uninstall()
    assert numerics.integrate_adaptive is original
    assert solver.solve_configuration.__module__ == "miworlds.solver"
    spans = tracer.spans
    names = {(s.layer, s.name, s.caller) for s in spans}
    assert ("numerics", "integrate_adaptive", "metrics") in names
    assert ("solver", "solve_configuration", "metrics") in names
    assert tracer.counts["targets.cdf_pk"] > 0
    assert not tracer.absent
    assert math.isclose(sum(self_times(spans)), spans[0].t1 - spans[0].t0, rel_tol=1e-9)


def test_tracer_reports_absent_names(monkeypatch):
    monkeypatch.delattr(solver, "recursion_residual")
    with Tracer() as tracer:
        pass
    assert tracer.absent == ["solver.recursion_residual"]
