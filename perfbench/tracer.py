"""Span tracer that measures cdgnn from outside, without editing `src/`.

While installed, every public function of the traced `cdgnn` modules (and
`RunRecord.save`) is replaced by a wrapper that records a span: name,
start, end, parent span and op id. `harness` and `cli` import names
directly (`from .models import build_ego_cache`), so installing rebinds
every attribute of every loaded `cdgnn.*` module that *is* a wrapped
function object; calls through `ad.<fn>` and call-time imports resolve
through the defining module, which is rebound too. `uninstall` puts every
original object back.

Spans stay in memory until `dump` writes them out. A span's self time is
its duration minus the durations of its direct children; self times are
summed per op into the layer metrics named by `layer_metric`.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter_ns

MODULES = ("synth", "graphs", "models", "disentangle", "autodiff",
           "harness", "gains", "cli")
METHODS = (("harness", "RunRecord", "save"),)

# Name of the span the tracer opens around each op, so that an op made of
# several top-level calls (a CLI pass) still forms one tree. Its self time
# is the benchmark's own glue and belongs to no layer.
OP_SPAN = "bench.op"

# Wrapped functions not listed here add their self time to the default of
# their module: harness.self_s, cli.self_s, autodiff.ops_s (the tape
# primitives) or "<module>.other_s".
LAYER_METRICS = {
    "synth.preset": "synth.preset_s",
    "synth.generate": "synth.preset_s",
    "synth.planted_shortcut": "synth.preset_s",
    "synth.relabel_to_heterophily": "synth.relabel_s",
    "graphs.ego_subgraph": "graphs.ego_subgraph_s",
    "graphs.save_graph": "graphs.io_s",
    "graphs.load_graph": "graphs.io_s",
    "graphs.graph_to_dict": "graphs.io_s",
    "graphs.graph_from_dict": "graphs.io_s",
    "models.build_ego_cache": "models.build_ego_cache_s",
    "models.batch_from_graphs": "models.batch_from_graphs_s",
    "models.batch_from_cache": "models.batch_from_cache_s",
    "models.gcn_forward": "models.gcn_forward_s",
    "disentangle.materialize_masks": "disentangle.materialize_masks_s",
    "disentangle.edge_score_logits": "disentangle.materialize_masks_s",
    "disentangle.split_and_embed": "disentangle.split_and_embed_s",
    "disentangle.hsic": "disentangle.hsic_s",
    "disentangle.hsic_value": "disentangle.hsic_s",
    "disentangle.median_bandwidth": "disentangle.hsic_s",
    "disentangle.counterfactual_loss": "disentangle.counterfactual_loss_s",
    "disentangle.gce_loss": "disentangle.loss_terms_s",
    "disentangle.cross_entropy": "disentangle.loss_terms_s",
    "disentangle.difficulty_weights": "disentangle.loss_terms_s",
    "disentangle.causal_loss": "disentangle.loss_terms_s",
    "disentangle.total_loss": "disentangle.loss_terms_s",
    "autodiff.masked_propagate": "autodiff.masked_propagate_s",
    "autodiff.gradients": "autodiff.backward_s",
    "autodiff.adam_step": "autodiff.adam_s",
    "harness.train_cdgnn": "harness.train_s",
    "harness.train_gcn_baseline": "harness.train_s",
    "harness.evaluate": "harness.evaluate_s",
    "harness.RunRecord.save": "harness.record_io_s",
    "harness.write_report_csv": "harness.record_io_s",
    "harness.save_sweep": "harness.record_io_s",
    "harness.save_model": "harness.record_io_s",
    "harness.load_model": "harness.record_io_s",
    "gains.theory_check_grid": "gains.theory_check_s",
    "gains.monte_carlo_one_layer": "gains.theory_check_s",
    "gains.one_layer_gain": "gains.theory_check_s",
    "gains.default_grid_cells": "gains.theory_check_s",
}
_MODULE_DEFAULT = {"harness": "harness.self_s", "cli": "cli.self_s",
                   "autodiff": "autodiff.ops_s"}
_NOT_PRIMITIVES = ("autodiff.gradients", "autodiff.adam_step")
# Every layer metric a span can add to, so that absent layers read 0.
LAYER_NAMES = frozenset(LAYER_METRICS.values()) | {
    _MODULE_DEFAULT.get(m, f"{m}.other_s") for m in MODULES}

# Exact counts taken from a wrapped call's result: name -> (counter, f).
# Each is reported per op under the counter's name.
COUNTERS = {
    "graphs.ego_subgraph": ("graphs.ego_subgraph_calls", lambda r: 1),
    "models.batch_from_cache": ("models.batch_rows",
                                lambda r: r.features.shape[0]),
    "models.batch_from_graphs": ("models.batch_rows",
                                 lambda r: r.features.shape[0]),
    "autodiff.masked_propagate": ("autodiff.masked_propagate_rows",
                                  lambda r: r.data.shape[0]),
    "autodiff.gradients": ("autodiff.batches", lambda r: 1),
    "harness.train_cdgnn": ("harness.epochs", lambda r: r.epochs_run),
    "harness.train_gcn_baseline": ("harness.epochs", lambda r: r.epochs_run),
}
# Counter of primitive calls whose output was recorded on a tape, i.e. the
# tape nodes a training batch builds; divided by autodiff.batches it is
# the autodiff.ops metric.
TAPED = "autodiff.taped_ops"


def layer_metric(name: str) -> str | None:
    """Layer metric that a span called `name` adds its self time to."""
    if name == OP_SPAN:
        return None
    if name in LAYER_METRICS:
        return LAYER_METRICS[name]
    module = name.split(".", 1)[0]
    return _MODULE_DEFAULT.get(module, f"{module}.other_s")


def _public_functions(module) -> list[tuple[str, object]]:
    out = []
    for attr in module.__all__:
        obj = getattr(module, attr)
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            out.append((attr, obj))
    return out


class Tracer:
    """Wraps cdgnn's public functions and keeps their spans in memory."""

    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN]
        # (name id, start ns, end ns, parent span index or -1, op id)
        self.spans: list = []
        self.counts: dict = defaultdict(Counter)
        self._stack: list[int] = []
        self._op = None
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, tuple[object, object]] = {}

    def _wrapper(self, name: str, fn):
        """The wrapper of `fn`, made once and reused by later installs."""
        cached = self._wrappers.get(name)
        if cached is None or cached[0] is not fn:
            cached = (fn, self._wrap(name, fn))
            self._wrappers[name] = cached
        return cached[1]

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        primitive = name.startswith("autodiff.") and name not in _NOT_PRIMITIVES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name_id, start, end,
                                stack[-1] if stack else -1, self._op)
            if counter is not None:
                counts[self._op][counter[0]] += counter[1](result)
            if primitive and getattr(result, "requires_grad", False):
                counts[self._op][TAPED] += 1
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Rebind every cdgnn.* attribute that is a wrapped function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        replace: dict[int, tuple[object, object]] = {}
        for short in MODULES:
            module = sys.modules[f"cdgnn.{short}"]
            for attr, fn in _public_functions(module):
                replace[id(fn)] = (fn, self._wrapper(f"{short}.{attr}", fn))
        for name, module in list(sys.modules.items()):
            if name != "cdgnn" and not name.startswith("cdgnn."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for short, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"cdgnn.{short}"], cls_name)
            fn = vars(cls)[method]
            self._patches.append((cls, method, fn))
            setattr(cls, method,
                    self._wrapper(f"{short}.{cls_name}.{method}", fn))

    def uninstall(self) -> None:
        """Put back every object `install` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def op(self, op_id):
        """Attribute the spans recorded inside to `op_id`, under one root."""
        if self._stack:
            raise RuntimeError("ops do not nest")
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._op = op_id
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (0, start, end, -1, op_id)
            self._op = None

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time in ns of every span, aligned with `spans`."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def op_wall(self, op_id) -> float:
        """Seconds between the start and end of an op's root span."""
        for name_id, start, end, parent, op in self.spans:
            if name_id == 0 and op == op_id:
                return (end - start) / 1e9
        raise KeyError(op_id)

    def layer_seconds(self) -> dict:
        """Per op: layer metric -> summed self seconds."""
        out: dict = defaultdict(lambda: defaultdict(float))
        for span, own in zip(self.spans, self.self_times()):
            metric = layer_metric(self.names[span[0]])
            if metric is not None:
                out[span[4]][metric] += own / 1e9
        return out

    def layer_values(self, traced_ops: list, untraced_seconds: list) -> dict:
        """Every per-layer metric: layer seconds spent in the "setup" op
        plus the median over `traced_ops`, the per-op counts, autodiff.ops
        and trace_overhead_s. Layers no span reached read 0."""
        seconds = self.layer_seconds()
        values = {name: seconds["setup"].get(name, 0.0) + statistics.median(
            seconds[i].get(name, 0.0) for i in traced_ops)
            for name in LAYER_NAMES}

        def count(key):
            return statistics.median(self.counts[i][key] for i in traced_ops)

        for key, _ in COUNTERS.values():
            values[key] = count(key)
        batches = values.pop("autodiff.batches")
        values["autodiff.ops"] = count(TAPED) / batches if batches else 0.0
        values["trace_overhead_s"] = (
            statistics.median(self.op_wall(i) for i in traced_ops)
            - statistics.median(untraced_seconds))
        return values

    def dump(self, path) -> None:
        """Write every span as a tab-separated row, earliest start first."""
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns\n")
            for index, (name_id, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{op}\t{index}\t{parent}\t{self.names[name_id]}\t"
                         f"{start}\t{end}\t{own[index]}\n")
