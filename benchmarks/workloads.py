"""The operations each named workload runs, and how their world counts
follow from the workload seed.

An operation is either a ``miworlds`` CLI invocation (driven in-process
through ``miworlds.cli.main``) or, where no subcommand exists, a short
sequence of public library calls whose result the benchmark formats as
JSON.  Library calls go through module attributes at call time, so the
tracer's wrappers see them.

Seed 0 runs the reference sizes.  Any other seed shifts each reference
world count by an even offset in [-4, 4] (one draw per distinct size in a
workload), which keeps parity and therefore the family's constraints.  The
three operations that fail at the reference commit keep their sizes: each
failure is specific to its size (hermite-sq k=4 fails at N=200 and solves
at N=196, 198, 202 and 204), and a later fix must show up as fewer
failures, not as a different case list.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import oracles
from miworlds import numerics, solver, targets, zerobias

WORKLOADS = ("maxwell-sweep", "solve-ladder", "excited-theory")

# Grid size for the criterion-03 histogram d_K.  The acceptance test uses
# 40001 points (about 10 s per N); 4001 points give the same d_K values
# (0.0358, 0.0212, 0.0219) to four digits.
HIST_GRID = 4001


@dataclass(frozen=True)
class KnownFailure:
    """A failure present at the reference commit, matched on exit code and
    stderr; ``exc_class`` is confirmed from the spans of a traced run."""

    exit_code: int
    exc_class: str
    stderr_regex: str


@dataclass(frozen=True)
class Op:
    name: str
    check: Callable[["Op", str], dict]
    argv: Optional[tuple] = None
    call: Optional[Callable[[], str]] = None
    n: Optional[int] = None
    params: tuple = ()
    known_failure: Optional[KnownFailure] = None

    def param(self, key, default=None):
        return dict(self.params).get(key, default)


def _sizes(seed: int):
    """Map a reference world count to this seed's world count."""
    rng = np.random.default_rng(seed)
    chosen = {}

    def size(nominal: int) -> int:
        if nominal not in chosen:
            chosen[nominal] = nominal + (2 * int(rng.integers(-2, 3)) if seed else 0)
        return chosen[nominal]

    return size, chosen


def _cli(name, argv, check, n=None, known_failure=None, **params):
    return Op(
        name=name,
        check=check,
        argv=tuple(str(a) for a in argv),
        n=n,
        params=tuple(sorted(params.items())),
        known_failure=known_failure,
    )


def _hist_dk(bl2, n: int) -> str:
    """Criterion 03: histogram d_K to p_2 on a dense grid."""
    cfg = solver.solve_configuration(solver.GENERAL, n, baseline=bl2)
    hist = zerobias.histogram_density(cfg.points)
    xs = oracles.hist_grid(cfg.points, HIST_GRID)
    target = targets.cdf_pk_grid(2, xs)
    hist_vals = np.array([hist.cdf(float(x)) for x in xs])
    dk = float(np.max(np.abs(hist_vals - target)))
    return json.dumps({"k": 2, "N": n, "grid": int(xs.size), "dk": dk,
                       "points": list(cfg.points)}) + "\n"


def _kernel_identities(baselines) -> str:
    """Criterion 04: baseline-built kernels against the closed forms, and
    the integral identities E[tau f'] = E[X f] for f = x and sin."""
    kernel, identity = {}, {}
    for k, bl in baselines.items():
        xs = [x for x in np.linspace(-4.0, 4.0, 50) if not bl.near_zero_of_b(x, 0.05)]
        kernel[k] = max(
            abs(targets.kernel_from_baseline(bl, float(x)).value
                - targets.stein_kernel_tau(k, float(x)))
            for x in xs
        )
        worst = 0.0
        for f, df in ((lambda x: x, lambda x: 1.0), (math.sin, math.cos)):
            lhs = numerics.integrate_adaptive(
                lambda x: float(targets.stein_kernel_times_pdf(k, x)) * df(x), -12.0, 12.0
            )
            rhs = numerics.integrate_adaptive(
                lambda x: x * f(x) * float(targets.pdf_pk(k, x)), -12.0, 12.0
            )
            worst = max(worst, abs(lhs - rhs))
        identity[k] = worst
    return json.dumps({"kernel_defect": kernel, "identity_defect": identity}) + "\n"


def build(workload: str, seed: int):
    """Operations of one pass, and the reference size of each world count."""
    size, chosen = _sizes(seed)
    if workload == "maxwell-sweep":
        sweep = [size(n) for n in (64, 256, 1024, 4096)]
        ops = [
            _cli("rates maxwell", ["rates", "--n-list", *sweep], oracles.check_rates),
            _cli("energy maxwell", ["energy", "--n", size(4096)], oracles.check_energy,
                 n=size(4096), family="maxwell"),
            _cli("verify maxwell", ["verify", "--n", size(4096)], oracles.check_verify,
                 n=size(4096), family="maxwell"),
        ]
    elif workload == "solve-ladder":
        ops = [
            _cli("solve maxwell", ["solve", "--n", size(65536)], oracles.check_solve,
                 n=size(65536), family="maxwell"),
            _cli("solve ground", ["solve", "--family", "ground", "--n", size(65536)],
                 oracles.check_solve, n=size(65536), family="ground"),
            _cli("energy maxwell", ["energy", "--n", size(16384)], oracles.check_energy,
                 n=size(16384), family="maxwell"),
            _cli("verify maxwell", ["verify", "--n", size(16384)], oracles.check_verify,
                 n=size(16384), family="maxwell"),
            _cli("solve hermite-sq k=2", ["solve", "--family", "hermite-sq", "--k", 2,
                                          "--n", size(81)],
                 oracles.check_solve, n=size(81), family="hermite-sq", k=2),
            _cli("solve hermite-sq k=4", ["solve", "--family", "hermite-sq", "--k", 4,
                                          "--n", 200],
                 oracles.check_solve, n=200, family="hermite-sq", k=4,
                 known_failure=KnownFailure(
                     2, "ResidualFailure",
                     r"recursion defect \S+ exceeds 1e-09 \(general, N=200\)")),
            _cli("solve monomial r=4", ["solve", "--family", "monomial", "--r", 4,
                                        "--n", size(1000)],
                 oracles.check_solve, n=size(1000), family="monomial", r=4),
            _cli("solve monomial r=8", ["solve", "--family", "monomial", "--r", 8,
                                        "--n", 1000],
                 oracles.check_solve, n=1000, family="monomial", r=8,
                 known_failure=KnownFailure(
                     2, "ResidualFailure",
                     r"recursion defect \S+ exceeds 1e-09 \(general, N=1000\)")),
        ]
    elif workload == "excited-theory":
        bl2 = targets.hermite_square_baseline(2)
        kernel_baselines = {2: bl2, 3: targets.hermite_square_baseline(3)}
        ops = [
            Op(name=f"hist-dk hermite-sq k=2 N={size(n)}", check=oracles.check_hist_dk,
               call=lambda n=size(n): _hist_dk(bl2, n), n=size(n),
               params=(("grid", HIST_GRID),))
            for n in (21, 41, 81)
        ]
        ops += [
            _cli("stein-check", ["stein-check"], oracles.check_stein),
            _cli("fixed-point", ["fixed-point"], oracles.check_fixed_point),
            _cli("density hermite-sq k=2", ["density", "--family", "hermite-sq", "--k", 2,
                                            "--n", size(81)],
                 oracles.check_density, n=size(81), k=2),
            Op(name="kernel-identities k=2,3", check=oracles.check_kernels,
               call=lambda: _kernel_identities(kernel_baselines)),
            _cli("coupling hermite-sq k=2", ["coupling", "--family", "hermite-sq", "--k", 2,
                                             "--n", 82],
                 oracles.check_coupling, n=82, k=2,
                 known_failure=KnownFailure(
                     2, "NonConvergence", r"quadrature failed on \[\S+, -?0\.0\]")),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    nominal = {actual: ref for ref, actual in chosen.items()}
    return ops, nominal
