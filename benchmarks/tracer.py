"""Outside-in tracer for the miworlds layers.

The tracer replaces public names with recording wrappers while it is
installed, and puts the originals back when it is removed.  A function is
wrapped under every name that binds it, in every ``miworlds`` module, so a
call is seen whichever caller makes it: ``miworlds.metrics.integrate_adaptive``
and ``miworlds.targets.integrate_adaptive`` record as calls into
``numerics`` made by ``metrics`` and by ``targets``.  Methods are wrapped on
their class.

Most names record a span (layer, name, caller, parent, wall and CPU start
and end, an optional tag, and the exception class if one escaped).  The
hot callbacks inside quadrature integrands and coupling cells only count
calls, so that the tracer does not swamp them; their time stays in the
enclosing span.  Spans stay in memory until the run writes them out.

A name that no longer exists is recorded in ``absent`` and skipped.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from typing import NamedTuple, Optional

LAYERS = ("cli", "solver", "targets", "numerics", "zerobias", "metrics", "energy", "stein")


def _size_tag(args, kwargs):
    return (args[0], args[1]) if len(args) >= 2 else None


def _cfg_tag(args, kwargs):
    cfg = args[0] if args else None
    return (cfg.family, cfg.n_worlds) if cfg is not None else None


# layer -> names that record a span; a tag function labels the span with
# (family, N) so that stage times can be reported per world count.
SPANS = {
    "cli": ("main",),
    "solver": ("solve_configuration", "shoot_sequence", "recursion_residual",
               "validate_properties", "configuration_to_json"),
    "targets": ("cdf_pk_grid", "hermite_square_baseline", "monomial_baseline",
                "kernel_from_baseline", "stein_kernel_tau"),
    "numerics": ("integrate_adaptive", "invert_monotone"),
    "zerobias": ("gzb_density", "histogram_density", "coupling_expectations",
                 "fixed_point_defect", "PiecewiseDensity.cdf"),
    "metrics": ("rate_sweep", "measure_configuration", "wasserstein1", "kolmogorov"),
    "energy": ("certify_minimizer",),
    "stein": ("fixed_suite", "supnorm_suite", "suite_csv_rows"),
}
COUNTERS = {"targets": ("cdf_pk", "Baseline.Binv")}
TAGS = {"solve_configuration": _size_tag, "measure_configuration": _cfg_tag}


class Span(NamedTuple):
    layer: str
    name: str
    caller: str
    parent: int
    t0: float
    t1: float
    c0: float
    c1: float
    tag: Optional[tuple]
    error: Optional[str]


class Tracer:
    """Records spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.absent: list = []
        self._stack = [-1]
        self._patches = []

    # recording ----------------------------------------------------------

    def region(self, layer: str, name: str):
        """Context manager recording a span for the benchmark's own code."""
        return _Region(self, layer, name)

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, layer, name, caller, parent, t0, c0, tag, error):
        t1, c1 = time.perf_counter(), time.process_time()
        self._stack.pop()
        self.spans[idx] = Span(layer, name, caller, parent, t0, t1, c0, c1, tag, error)

    def _span_wrapper(self, layer, name, caller, fn):
        tag_fn = TAGS.get(name)
        steps = name == "shoot_sequence"
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, parent = self._open()
            tag = tag_fn(args, kwargs) if tag_fn else None
            error = None
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                self._close(idx, layer, name, caller, parent, t0, c0, tag, error)
            if steps:
                counts["solver.steps"] += len(result[0]) - 1
            return result

        return wrapper

    def _count_wrapper(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # installation -------------------------------------------------------

    def install(self):
        modules = {m: importlib.import_module(f"miworlds.{m}") for m in LAYERS}
        for table, span in ((SPANS, True), (COUNTERS, False)):
            for layer, names in table.items():
                for name in names:
                    self._wrap(modules, layer, name, span)

    def _wrap(self, modules, layer, name, span):
        home = modules[layer]
        if "." in name:
            cls_name, attr = name.split(".")
            cls = getattr(home, cls_name, None)
            fn = None if cls is None else cls.__dict__.get(attr)
            if fn is None:
                self.absent.append(f"{layer}.{name}")
                return
            wrapped = (self._span_wrapper(layer, attr, layer, fn) if span
                       else self._count_wrapper(f"{layer}.{name}", fn))
            self._patch(cls, attr, fn, wrapped)
            return
        fn = getattr(home, name, None)
        if not callable(fn):
            self.absent.append(f"{layer}.{name}")
            return
        for caller, mod in modules.items():
            if getattr(mod, name, None) is fn:
                wrapped = (self._span_wrapper(layer, name, caller, fn) if span
                           else self._count_wrapper(f"{layer}.{name}", fn))
                self._patch(mod, name, fn, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


class _Region:
    def __init__(self, tracer, layer, name):
        self.tracer, self.layer, self.name = tracer, layer, name

    def __enter__(self):
        self.idx, self.parent = self.tracer._open()
        self.c0, self.t0 = time.process_time(), time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close(self.idx, self.layer, self.name, "bench", self.parent,
                           self.t0, self.c0, None, exc_type.__name__ if exc_type else None)
        return False


def self_times(spans):
    """Per-span self time: duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.t1 - s.t0
    return [s.t1 - s.t0 - c for s, c in zip(spans, child)]


def outermost(spans, idx):
    """True when no ancestor of span ``idx`` has the same layer and name."""
    s = spans[idx]
    p = s.parent
    while p >= 0:
        if spans[p].layer == s.layer and spans[p].name == s.name:
            return False
        p = spans[p].parent
    return True


def tag_of(spans, idx):
    """The span's own tag, else that of its nearest tagged ancestor."""
    while idx >= 0:
        if spans[idx].tag is not None:
            return spans[idx].tag
        idx = spans[idx].parent
    return None


def first_error(spans, root):
    """Exception class of the outermost span below ``root`` that raised."""
    for i, s in enumerate(spans):
        if s.error is None or i == root:
            continue
        p = s.parent
        while p >= 0 and p != root and spans[p].error is None:
            p = spans[p].parent
        if p == root:
            return s.error
    return None

