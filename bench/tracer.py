"""Spans around calls into the public functions of each rectenna module.

The wrappers live here, in the benchmark, not in the library.  ``install``
replaces a function in every ``rectenna`` module namespace that holds it
(``rectenna.cli.eval_filtered``, ``rectenna.rcfilter.fourier_coefficient``,
``rectenna.oracle.rectify`` and so on), because each module looks the name up
in its own globals.  A name that no longer exists is recorded as absent; a
call whose arguments no longer have the shape its sizer expects still runs,
counts 0 points and terms, and the name is recorded as unsized.

Spans stay in memory as ``(op, parent, name, t0, t1, points, terms)``; the
parent link gives self times (a span's duration minus its direct children's).
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = {
    "cli": ("main",),
    "design": ("sweep_cutoff", "optimize_capacitance", "time_trace", "sampled_ripple",
               "analytic_ripple"),
    "rcfilter": ("eval_filtered", "filtered_series", "dc_voltage", "ripple_peak", "max_ripple",
                 "amplification_factor"),
    "rectifier": ("fourier_coefficient", "build_series", "eval_series", "rectify", "multisine_a0"),
    "oracle": ("quad_coefficient", "quad_b_coefficient", "quad_multisine_a0", "sample_stats"),
    "waveforms": ("eval_sinewave", "eval_multisine_envelope", "eval_multisine"),
}

# the layers each workload is meant to exercise (self-check: nonzero calls)
EXERCISED = {
    "sweep": ("cli", "design", "rcfilter", "rectifier", "oracle"),
    "design": ("cli", "design", "rcfilter", "rectifier", "oracle"),
    "analytic_trace": ("cli", "design", "rcfilter", "rectifier"),
    "validate": ("cli", "rcfilter", "rectifier", "oracle"),
}


def _eval_filtered_size(args, kwargs):
    fs, t = args[0], args[1] if len(args) > 1 else kwargs["t"]
    points = int(np.size(t))
    return points, points * int(np.count_nonzero(fs.base.ak)), np.ndim(t) == 0


def _rectify_size(args, kwargs):
    return int(np.size(args[1] if len(args) > 1 else kwargs["v"])), 0, False


_SIZERS = {"rcfilter.eval_filtered": _eval_filtered_size, "rectifier.rectify": _rectify_size}


class Tracer:
    """Collects spans while installed; ``op`` tags the operation in flight."""

    def __init__(self):
        self.names = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
        self.spans: list = []
        self.scalar: set[int] = set()
        self.op = -1
        self.absent: list[str] = []
        self.unsized: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        name = self.names[name_id]
        sizer = _SIZERS.get(name)
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            points, terms, scalar = 0, 0, False
            if sizer:
                try:
                    points, terms, scalar = sizer(args, kwargs)
                except Exception:  # the library changed shape; time the call anyway
                    self.unsized.add(name)
            sid = len(spans)
            spans.append(None)
            if scalar:
                self.scalar.add(sid)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[sid] = (self.op, parent, name_id, t0, t1, points, terms)

        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "rectenna" or key.startswith("rectenna."))]
        self.absent = []
        for name_id, qualified in enumerate(self.names):
            layer, fn_name = qualified.split(".")
            try:
                home = importlib.import_module(f"rectenna.{layer}")
            except ImportError:
                self.absent.append(qualified)
                continue
            fn = getattr(home, fn_name, None)
            if not callable(fn):
                self.absent.append(qualified)
                continue
            wrapper = self._wrap(name_id, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.scalar.clear()

    def write(self, path) -> None:
        """Spans as gzipped CSV, times in microseconds from the first span."""
        base = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("op,span,parent,name,t0_us,t1_us,points,terms\n")
            for sid, (op, parent, name_id, t0, t1, points, terms) in enumerate(self.spans):
                fh.write(f"{op},{sid},{parent},{self.names[name_id]},"
                         f"{(t0 - base) * 1e6:.3f},{(t1 - base) * 1e6:.3f},{points},{terms}\n")


class Totals:
    """Per-name call counts, inclusive and self seconds, summed over passes."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.points = defaultdict(int)
        self.terms = defaultdict(int)
        self.scalar_calls = defaultdict(int)
        self.metric_evals_in_solves = 0
        self.oracle_integrand_points = 0

    def add(self, tracer: Tracer) -> None:
        spans, names = tracer.spans, tracer.names
        child_seconds = [0.0] * len(spans)
        for op, parent, name_id, t0, t1, points, terms in spans:
            if parent >= 0:
                child_seconds[parent] += t1 - t0
        ancestors_cache: dict[int, frozenset] = {}

        def ancestors(sid: int) -> frozenset:
            parent = spans[sid][1]
            if parent < 0:
                return frozenset()
            if parent not in ancestors_cache:
                ancestors_cache[parent] = ancestors(parent) | {names[spans[parent][2]]}
            return ancestors_cache[parent]

        for sid, (op, parent, name_id, t0, t1, points, terms) in enumerate(spans):
            name = names[name_id]
            self.calls[name] += 1
            self.seconds[name] += t1 - t0
            self.self_seconds[name] += t1 - t0 - child_seconds[sid]
            self.points[name] += points
            self.terms[name] += terms
            if sid in tracer.scalar:
                self.scalar_calls[name] += 1
            if name in ("design.sampled_ripple", "design.analytic_ripple") and \
                    "design.optimize_capacitance" in ancestors(sid):
                self.metric_evals_in_solves += 1
            if name == "rectifier.rectify" and any(a.startswith("oracle.") for a in ancestors(sid)):
                self.oracle_integrand_points += points

    def layer_calls(self, layer: str) -> int:
        return sum(n for name, n in self.calls.items() if name.startswith(layer + "."))

    def metrics(self, ops: int, bytes_out: int) -> dict[str, tuple[float, str]]:
        """Per-operation layer metrics, ``name -> (value, unit)``."""
        def ms(*names, own=False):
            table = self.self_seconds if own else self.seconds
            return 1e3 * sum(table[n] for n in names) / ops, "ms"

        def count(value):
            return value / ops, "count"

        design_fns = [f"design.{fn}" for fn in LAYERS["design"]]
        solves = self.calls["design.optimize_capacitance"]
        return {
            "rcfilter.eval_ms": ms("rcfilter.eval_filtered"),
            "rcfilter.eval_calls": count(self.calls["rcfilter.eval_filtered"]),
            "rcfilter.eval_points": count(self.points["rcfilter.eval_filtered"]),
            "rcfilter.harmonic_terms": count(self.terms["rcfilter.eval_filtered"]),
            "rcfilter.eval_scalar_calls": count(self.scalar_calls["rcfilter.eval_filtered"]),
            "rcfilter.filter_ms": ms("rcfilter.filtered_series"),
            "rcfilter.ripple_peak_ms": ms("rcfilter.ripple_peak"),
            "oracle.sample_stats_ms": ms("oracle.sample_stats", own=True),
            "design.metric_evals_per_solve": (
                self.metric_evals_in_solves / solves if solves else 0.0, "count"),
            "design.solve_ms": ms("design.optimize_capacitance"),
            "design.self_ms": ms(*design_fns, own=True),
            "design.sweep_ms": ms("design.sweep_cutoff"),
            "design.trace_ms": ms("design.time_trace"),
            "rectifier.coefficient_calls": count(self.calls["rectifier.fourier_coefficient"]),
            "rectifier.coefficient_ms": ms("rectifier.fourier_coefficient"),
            "rectifier.build_series_ms": ms("rectifier.build_series"),
            "rectifier.eval_series_ms": ms("rectifier.eval_series"),
            "oracle.quad_calls": count(self.calls["oracle.quad_coefficient"]
                                       + self.calls["oracle.quad_b_coefficient"]
                                       + self.calls["oracle.quad_multisine_a0"]),
            "oracle.quad_ms": ms("oracle.quad_coefficient", "oracle.quad_b_coefficient"),
            "oracle.quad_multisine_ms": ms("oracle.quad_multisine_a0"),
            "oracle.integrand_points": count(self.oracle_integrand_points),
            "cli.self_ms": ms("cli.main", own=True),
            "cli.bytes_out": (bytes_out / ops, "B"),
            "waveforms.calls": count(self.layer_calls("waveforms")),
        }
