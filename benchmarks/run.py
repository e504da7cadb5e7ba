"""Run one miworlds benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload maxwell-sweep --seed 0 --seconds 30 --trace 0

One process and one thread, closed loop with one client: each
operation starts when the previous one returns.  A pass runs every
operation of the workload once; the run repeats passes for about
``--seconds`` and reports medians.  Outputs are checked against the oracles
in ``oracles.py`` after the timed passes, and every later pass must print
exactly what the first one printed.

With ``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json.  With ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics from the traced ones.  The last
line of standard output is the JSON result; a report with the run's
metadata, every operation's outcome and the spans of the last traced pass
goes to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from speed import SpeedProbe
from tracer import LAYERS, Tracer, first_error, outermost, self_times, tag_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 5

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = {paths!r}
import miworlds.cli, workloads
workloads.build({workload!r}, {seed!r})
print(repr(time.perf_counter() - t0))
"""

# (layer, name) of the spans timed per world count, and the stage label
STAGES = {
    ("solver", "solve_configuration"): "solve",
    ("zerobias", "gzb_density"): "gzb",
    ("zerobias", "coupling_expectations"): "coupling",
    ("metrics", "wasserstein1"): "dw",
    ("metrics", "kolmogorov"): "dk",
}
STAGE_SIZES = (64, 1024, 4096)
SOLVE_ONLY_SIZE = 65536


class Outcome(NamedTuple):
    code: Optional[int]
    stdout: str
    stderr: str
    error: Optional[str]
    wall: float


class Pass(NamedTuple):
    wall: float
    cpu: float
    outcomes: list
    op_spans: list
    factor: float


def _run_op(cli, op) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if op.argv is not None:
                code = cli.main(list(op.argv))
            else:
                out.write(op.call())
                code = 0
        except Exception:  # one broken operation must not stop the others
            error = traceback.format_exc()
    return Outcome(code, out.getvalue(), err.getvalue(), error, time.perf_counter() - t0)


def run_pass(cli, ops, tracer=None) -> Pass:
    """Run every operation once, sampling the machine's speed meanwhile.
    With a tracer, spans cover the pass (span 0) and each operation."""
    outcomes, op_spans = [], []
    with SpeedProbe() as probe:
        with tracer.region("bench", "pass") if tracer else nullcontext():
            for op in ops:
                with tracer.region("bench", op.name) if tracer else nullcontext() as region:
                    outcomes.append(_run_op(cli, op))
                op_spans.append(region.idx if tracer else None)
    return Pass(probe.wall, probe.cpu, outcomes, op_spans, probe.factor)


def classify(op, outcome: Outcome):
    """('ok' | 'known-failure' | 'failed', check values, detail)."""
    if outcome.code == 0:
        try:
            return "ok", op.check(op, outcome.stdout), ""
        except Exception as exc:  # a malformed output fails its check
            return "failed", {}, f"check: {type(exc).__name__}: {exc}"
    kf = op.known_failure
    if (kf is not None and outcome.code == kf.exit_code
            and re.search(kf.stderr_regex, outcome.stderr)):
        return "known-failure", {}, outcome.stderr.strip()
    return "failed", {}, (outcome.error or outcome.stderr).strip()


def setup_times(workload: str, seed: int) -> list:
    """Times for a fresh process to import the CLI and build the workload's
    operations.  They are not speed-scaled: imports read files and map
    libraries, and the kernel's speed did not track them (scaled set-up
    times drifted by +26% between two sets of ten runs, raw ones by -17%
    to +6%)."""
    code = SETUP_PROBE.format(paths=[str(SRC), str(HERE)], workload=workload, seed=seed)
    times = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.splitlines()[-1]))
    return times


def _git_sha() -> Optional[str]:
    """Commit of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> Optional[int]:
    """Thread count of numpy's bundled OpenBLAS, when it can be queried."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")) if libs.is_dir() else ():
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def metadata(args) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "load": "closed loop, 1 client, 1 thread, no worker pool",
    }


def layer_metrics(trace, nominal: dict) -> dict:
    """Per-layer numbers of one traced pass (times in s, counts in calls).
    Span 0 is the pass itself."""
    spans = trace.spans
    own = self_times(spans)
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS + ("bench",)}
    calls, incl, cpu = Counter(), Counter(), Counter()
    stage_t, stage_n = Counter(), Counter()
    for i, s in enumerate(spans):
        m[f"{s.layer}.self_s"] += own[i]
        calls[s.layer, s.name] += 1
        calls[s.layer, s.name, s.caller] += 1
        if outermost(spans, i):
            incl[s.layer, s.name] += s.t1 - s.t0
            incl[s.layer, s.name, s.caller] += s.t1 - s.t0
            cpu[s.layer, s.name] += s.c1 - s.c0
        stage = STAGES.get((s.layer, s.name))
        tag = tag_of(spans, i) if stage else None
        if tag and tag[0] == "maxwell" and tag[1] in nominal:
            ref = nominal[tag[1]]
            if ref in STAGE_SIZES or (ref == SOLVE_ONLY_SIZE and stage == "solve"):
                stage_t[ref, stage] += s.t1 - s.t0
                stage_n[ref, stage] += 1
    m.update({
        "traced_wall_s": spans[0].t1 - spans[0].t0,
        "metrics.dw_s": incl["metrics", "wasserstein1"],
        "metrics.dk_s": incl["metrics", "kolmogorov"],
        "targets.cdf_calls": trace.counts["targets.cdf_pk"],
        "targets.binv_calls": trace.counts["targets.Baseline.Binv"],
        "targets.cdf_grid_s": incl["targets", "cdf_pk_grid"],
        "zerobias.coupling_s": incl["zerobias", "coupling_expectations"],
        "zerobias.gzb_s": incl["zerobias", "gzb_density"],
        "zerobias.hist_cdf_s": incl["zerobias", "cdf"],
        "zerobias.fixed_point_s": incl["zerobias", "fixed_point_defect"],
        "solver.solve_s": incl["solver", "solve_configuration"],
        "solver.shots": calls["solver", "shoot_sequence"],
        "solver.steps": trace.counts["solver.steps"],
        "solver.residual_s": incl["solver", "recursion_residual"],
        "solver.json_s": incl["solver", "configuration_to_json"],
        "numerics.root_calls": calls["numerics", "invert_monotone"],
        "numerics.root_s": incl["numerics", "invert_monotone"],
        "stein.suite_s": incl["stein", "supnorm_suite"],
        "stein.suite_cpu_s": cpu["stein", "supnorm_suite"],
        "energy.certify_s": incl["energy", "certify_minimizer"],
    })
    for caller in ("metrics", "targets", "stein"):
        m[f"numerics.quad_calls.{caller}"] = calls["numerics", "integrate_adaptive", caller]
        m[f"numerics.quad_s.{caller}"] = incl["numerics", "integrate_adaptive", caller]
    for ref in STAGE_SIZES + (SOLVE_ONLY_SIZE,):
        for stage in STAGES.values():
            if ref in STAGE_SIZES or stage == "solve":
                n = stage_n[ref, stage]
                m[f"stage.n{ref}.{stage}_s"] = stage_t[ref, stage] / n if n else 0.0
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "miworlds" / "__init__.py").is_file():
        print(f"error: no miworlds package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import miworlds.cli as cli
    import workloads

    if Path(cli.__file__).resolve().parent != SRC / "miworlds":
        print(f"error: imported miworlds from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    ops, nominal = workloads.build(args.workload, args.seed)
    meta = metadata(args)
    setup = [] if args.trace else setup_times(args.workload, args.seed)

    untraced, traced, tracers, mismatches = [], [], [], []

    def same_as_first(pas: Pass) -> Pass:
        """Compare a later pass's outputs with the first pass's, then drop
        them so that memory does not grow with the number of passes."""
        for op, a, b in zip(ops, untraced[0].outcomes, pas.outcomes):
            if (a.code, a.stdout) != (b.code, b.stdout):
                mismatches.append(op.name)
        return pas._replace(outcomes=None)

    start = time.perf_counter()
    target = None
    while target is None or len(untraced) < target:
        pas = run_pass(cli, ops)
        untraced.append(same_as_first(pas) if untraced else pas)
        if args.trace:
            tracer = Tracer()
            with tracer:
                traced.append(same_as_first(run_pass(cli, ops, tracer)))
            tracers.append(tracer)
        if target is None:
            target = max(1, round(args.seconds / (time.perf_counter() - start)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # checks, outside the timed passes
    first = untraced[0].outcomes
    verdicts = [classify(op, out) for op, out in zip(ops, first)]
    failed = sum(v[0] == "failed" for v in verdicts) * len(untraced + traced)
    exc_classes = {}
    for tracer, pas in zip(tracers, traced):
        for op, verdict, idx in zip(ops, verdicts, pas.op_spans):
            if verdict[0] == "known-failure":
                cls = first_error(tracer.spans, idx)
                exc_classes[op.name] = cls
                if cls != op.known_failure.exc_class:
                    mismatches.append(f"{op.name}: raised {cls}")
    failed += len(mismatches)
    checks = Counter()
    for _, values, _ in verdicts:
        for key, v in values.items():
            checks[key] = max(checks[key], v)
    n_ok = sum(v[0] == "ok" for v in verdicts)

    if args.trace:
        per_pass = [layer_metrics(t, nominal) for t in tracers]
        # median_low reports a value one traced pass measured, so counts stay whole
        values = {k: statistics.median_low([m[k] for m in per_pass]) for k in per_pass[0]}
        values.update({
            "trace_overhead_s": (statistics.median([t.wall / t.factor for t in traced])
                                 - statistics.median([u.wall / u.factor for u in untraced])),
            "metrics.dw_rel_err": checks["dw_rel_err"],
            "solver.max_residual": checks["max_residual"],
            "cli.ops": len(ops),
            "cli.failed_ops": len(ops) - n_ok,
            "cli.out_bytes": sum(len(o.stdout.encode()) for o in first),
        })
        for m in per_pass:
            total = sum(v for k, v in m.items() if k.endswith(".self_s"))
            wall = m["traced_wall_s"]
            if abs(total - wall) > 1e-6 * max(wall, 1.0):
                mismatches.append(f"self times sum to {total}, traced wall is {wall}")
                failed += 1
    else:
        values = {
            "wall_s": statistics.median([u.wall / u.factor for u in untraced]),
            "cpu_s": statistics.median([u.cpu / u.factor for u in untraced]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "ok_ops": n_ok,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"# miworlds benchmark  workload={args.workload}  seed={args.seed}  "
          f"trace={args.trace}  passes={len(untraced)}+{len(traced)}")
    print("# meta " + json.dumps(meta))
    for op, verdict, out in zip(ops, verdicts, first):
        print(f"  {verdict[0]:<14} exit={out.code!s:<4} {out.wall:8.3f} s  {op.name}")
        if verdict[0] != "ok":
            cls = exc_classes.get(op.name) or (
                op.known_failure.exc_class + " (expected)" if op.known_failure else "?")
            print(f"      {cls}: {verdict[2]}")
    print(f"  failed_ops {len(ops) - n_ok} of ops {len(ops)}")
    if not args.trace:
        print(f"  unscaled wall_s {statistics.median([u.wall for u in untraced])!r}  "
              "speed factors " + " ".join(f"{u.factor:.3f}" for u in untraced))
    for name in mismatches:
        print(f"  MISMATCH {name}")
    if args.trace and tracers[-1].absent:
        print("  absent names: " + ", ".join(tracers[-1].absent))
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']!r:>24} {m['unit']}")

    RESULTS.mkdir(exist_ok=True)
    report = {
        "meta": meta,
        "ops": [{"name": op.name, "argv": op.argv, "outcome": v[0], "exit": o.code,
                 "detail": v[2], "exc_class": exc_classes.get(op.name),
                 "wall_s": o.wall}
                for op, v, o in zip(ops, verdicts, first)],
        "passes": {"untraced_wall_s": [u.wall for u in untraced],
                   "untraced_cpu_s": [u.cpu for u in untraced],
                   "speed_factor": [u.factor for u in untraced],
                   "traced_wall_s": [t.wall for t in traced],
                   "traced_speed_factor": [t.factor for t in traced],
                   "setup_s": setup},
        "mismatches": mismatches,
        "metrics": metrics,
    }
    if args.trace:
        last = tracers[-1]
        report["absent"] = last.absent
        report["counts"] = dict(last.counts)
        report["span_fields"] = list(last.spans[0]._fields)
        report["spans"] = [list(s) for s in last.spans]
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": len(ops) * len(untraced + traced),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
