"""In-memory spans recorded around calls into the minacc layers.

The traced run rebinds the names through which the benchmark and the
harness reach each layer, so every call into a layer opens a span.  Nothing
inside the package changes: the wrappers live here, record nothing while
outputs are checked, and are removed after each traced set-up and pass.
Spans carry a name, start, end, parent and run id; self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
import types

from minacc import axiscore, datagen, featmap, harness, sampling, svmref

LAYER_PREFIXES = ("datagen", "featmap.", "axiscore.", "sampling.", "svmref.", "harness.")

_ESTIMATORS = ("conservative_estimate", "pilot_estimate", "adaptive_estimate")
_NO_ATTRS = types.MappingProxyType({})


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "attrs")

    def __init__(self, name, start, parent, run):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.attrs = _NO_ATTRS   # counts, replaced (never mutated) by annotators

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder.  `run` labels the spans of one set-up or one pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self.recording = False   # between install() and uninstall(), outside paused()
        self._open: list[int] = []
        self._saved: list = []

    @contextlib.contextmanager
    def paused(self):
        """Layer calls made inside open no spans (used around output checks)."""
        recording, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = recording

    def open(self, name: str) -> Span:
        parent = self._open[-1] if self._open else -1
        span = Span(name, time.perf_counter(), parent, self.run)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def wrap(self, name, fn, annotate=None):
        """`fn` inside a span; `name` may be a function of the call's kwargs;
        `annotate(span, args, kwargs, result)` adds counts to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = self.open(name(kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

        return traced

    # -- rebinding ---------------------------------------------------------

    def install(self) -> None:
        """Rebind every layer entry point the workloads reach."""
        proxy_class = _traced_proxy_class(self, featmap.LazyProxyFeatures)
        pauli = self.wrap("featmap.pauli", featmap.pauli_feature_matrix, _count_expectations)
        scan = self.wrap("axiscore.scan", axiscore.r_min_deterministic, _count_scan)
        svm = self.wrap(lambda kw: f"svmref.{kw.get('kernel', svmref.KERNEL_LINEAR)}",
                        svmref.svm_train, _count_sweeps)
        bindings = [
            (featmap, "LazyProxyFeatures", proxy_class),
            (harness, "LazyProxyFeatures", proxy_class),
            (harness, "pauli_feature_matrix", pauli),
            (axiscore, "r_min_deterministic", scan),
            (harness, "r_min_deterministic", scan),
            (sampling, "axis_accuracy", self.wrap("axiscore.axis", sampling.axis_accuracy)),
            (harness, "svm_train", svm),
            (harness, "run_experiment", self.wrap("harness.run", harness.run_experiment, _count_errors)),
            (harness, "emit_report", self.wrap("harness.emit", harness.emit_report)),
        ]
        for name in ("generate", "standardize", "stratified_split"):
            fn = self.wrap("datagen", getattr(datagen, name))
            bindings += [(datagen, name, fn), (harness, name, fn)]
        for name in _ESTIMATORS:
            fn = self.wrap(f"sampling.{name.split('_')[0]}", getattr(sampling, name), _count_axes)
            bindings += [(sampling, name, fn), (harness, name, fn)]
        for module, attr, value in bindings:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        self.recording = True

    def uninstall(self) -> None:
        """Restores the rebound names.  Proxy sources built while installed
        keep their traced class but record nothing until the next install."""
        self.recording = False
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def dump(self, path) -> None:
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s.name], s.start, s.end, s.parent, s.run, dict(s.attrs)] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "columns": ["name", "start", "end", "parent", "run", "attrs"],
                       "spans": rows}, fh)


def _traced_proxy_class(tracer: Tracer, base):
    class TracedLazyProxyFeatures(base):
        """Times and counts every column built; `columns` is one span."""

        _in_batch = False

        def column(self, axis_index):
            if self._in_batch or not tracer.recording:
                return base.column(self, axis_index)
            span = tracer.open("featmap.proxy.column")
            try:
                return base.column(self, axis_index)
            finally:
                tracer.close(span)

        def columns(self, indices):
            if not tracer.recording:
                return base.columns(self, indices)
            span = tracer.open("featmap.proxy.columns")
            self._in_batch = True
            try:
                return base.columns(self, indices)
            finally:
                self._in_batch = False
                tracer.close(span)
                span.attrs = {"columns": len(indices)}

    return TracedLazyProxyFeatures


def _count_expectations(span, args, kwargs, result):
    dataset, circuit = args
    span.attrs = {"expectations": dataset.sample_count * 4 ** circuit.qubit_count}


def _count_scan(span, args, kwargs, result):
    n, d = len(args[1]), result[2].size
    span.attrs = {"axes": d, "bytes_in": n * d * 8}


def _count_axes(span, args, kwargs, result):
    span.attrs = {"axes": result.axes_evaluated}


def _count_sweeps(span, args, kwargs, result):
    span.attrs = {"sweeps": result.n_sweeps, "converged": int(result.converged)}


def _count_errors(span, args, kwargs, result):
    span.attrs = {"errors": len(result.errors)}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _self_seconds(spans: list[Span]) -> list[float]:
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.seconds
    return own


def layer_metrics(tracer: Tracer, call_span: str, traced_walls, untraced_walls, extra) -> dict:
    """Per-layer values for one set-up plus one pass: span totals are
    averaged over the traced set-ups and over the traced passes, then summed."""
    spans = tracer.spans
    own = _self_seconds(spans)
    setups = len({s.run for s in spans if s.run.startswith("setup")}) or 1
    weight = [1.0 / (setups if s.run.startswith("setup") else len(traced_walls)) for s in spans]

    def pick(*names):
        return [i for i, s in enumerate(spans) if s.name in names]

    def busy(picked):
        return sum(spans[i].seconds * weight[i] for i in picked)

    def self_s(picked):
        return sum(own[i] * weight[i] for i in picked)

    def count(picked, key=None):
        return sum((1 if key is None else spans[i].attrs.get(key, 0)) * weight[i] for i in picked)

    def ratio(a, b):
        return a / b if b else 0.0

    proxy = pick("featmap.proxy.column", "featmap.proxy.columns")
    columns = count(pick("featmap.proxy.column")) + count(pick("featmap.proxy.columns"), "columns")
    pauli, scan, axis = pick("featmap.pauli"), pick("axiscore.scan"), pick("axiscore.axis")
    methods = {m: pick(f"sampling.{m}") for m in ("conservative", "pilot", "adaptive")}
    estimates = sum(methods.values(), [])
    linear, rbf = pick("svmref.linear"), pick("svmref.rbf")
    run, emit = pick("harness.run"), pick("harness.emit")

    # The remainder of a pass is the time of its calls not covered by the
    # layer spans directly below them.
    remainders: dict[str, float] = {}
    for s in spans:
        if s.name == call_span:
            remainders[s.run] = remainders.get(s.run, 0.0) + s.seconds
        elif s.parent >= 0 and spans[s.parent].name == call_span and s.name.startswith(LAYER_PREFIXES):
            remainders[s.run] = remainders.get(s.run, 0.0) - s.seconds

    metrics = {
        "datagen.busy_s": (busy(pick("datagen")), "s"),
        "featmap.proxy.busy_s": (busy(proxy), "s"),
        "featmap.proxy.columns": (columns, "count"),
        "featmap.proxy.us_per_column": (ratio(busy(proxy), columns) * 1e6, "us"),
        "featmap.pauli.busy_s": (busy(pauli), "s"),
        "featmap.pauli.expectations": (count(pauli, "expectations"), "count"),
        "axiscore.scan.busy_s": (busy(scan), "s"),
        "axiscore.scan.axes_per_s": (ratio(count(scan, "axes"), busy(scan)), "1/s"),
        "axiscore.scan.bytes_in": (count(scan, "bytes_in"), "B"),
        "axiscore.axis.calls": (count(axis), "count"),
        "axiscore.axis.busy_s": (busy(axis), "s"),
        "sampling.busy_s": (busy(estimates), "s"),
        "sampling.self_s": (self_s(estimates), "s"),
        **{f"sampling.{m}.busy_s": (busy(picked), "s") for m, picked in methods.items()},
        "sampling.axes_evaluated": (count(estimates, "axes"), "count"),
        "svmref.linear.busy_s": (busy(linear), "s"),
        "svmref.rbf.busy_s": (busy(rbf), "s"),
        "svmref.sweeps": (count(linear + rbf, "sweeps"), "count"),
        "svmref.ms_per_sweep": (ratio(busy(linear + rbf), count(linear + rbf, "sweeps")) * 1e3, "ms"),
        "svmref.converged_ratio": (ratio(count(linear + rbf, "converged"), count(linear + rbf)), "ratio"),
        "svmref.unconverged": (count(linear + rbf) - count(linear + rbf, "converged"), "count"),
        "harness.busy_s": (busy(run + emit), "s"),
        "harness.self_s": (self_s(run + emit), "s"),
        "harness.emit_s": (busy(emit), "s"),
        "harness.errors": (count(run, "errors"), "count"),
        "trace.wall_s": (statistics.median(traced_walls), "s"),
        "trace.overhead_s": (statistics.median(traced_walls) - statistics.median(untraced_walls), "s"),
        "trace.remainder_s": (statistics.median(remainders.values()) if remainders else 0.0, "s"),
    }
    metrics.update(extra)
    return metrics
