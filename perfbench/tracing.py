"""Outside-in tracing of aspectra's layers for the per-layer benchmark run.

The tracer wraps public functions of the package from the benchmark's side
and patches every name under which callers look them up: the modules use
`from .x import y`, so a function such as `correlation_matrix` is bound in
`cluster`, `aspects`, `triplot` and the package itself. Methods are patched
on their class. Spans (name, start, end, parent, operation id) stay in
memory until the run writes them out. A layer's self time is its span's
duration minus the durations of its direct children; the tracer's own
bookkeeping (input fingerprints, counters) runs inside spans named `_trace`, so
it is subtracted from the layer that called it and reported nowhere.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

TRACE = "_trace"
PACKAGE = "aspectra"


def tail(samples, beyond: int = 10):
    """Highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, sample count). The value is the sample with
    exactly `beyond` samples after it in sorted order, and the percentile is
    the whole-number share of samples at or below it. With too few samples
    for any such percentile the maximum is returned as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return ordered[-1], 100, n
    return ordered[n - beyond - 1], math.floor(100 * (n - beyond) / n), n


def self_times(spans) -> list:
    """Per span: its duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, covered)]


def fingerprint(table) -> bytes:
    """Bytes identifying a table's contents: its shape and a fixed random
    projection of every row. Equal tables give equal bytes; a changed, moved
    or permuted value changes them unless random weights cancel exactly. It
    costs one matrix-vector product instead of hashing every byte (400
    tables of 640 KB per global-wide operation)."""
    values = table.values
    weights = np.random.default_rng(values.shape[1]).standard_normal(values.shape[1])
    return repr(values.shape).encode() + (values @ weights).tobytes()


class Tracer:
    """In-memory span recorder plus counters keyed `<span name>.<quantity>`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index, operation id]
        self.counts = defaultdict(float)
        self.op = None
        self._stack = []
        self._seen = set()
        self._patches = []

    def begin_op(self, op_id) -> None:
        self.op = op_id
        self._seen = set()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def add(self, key: str, value=1) -> None:
        self.counts[key] += value

    def repeated(self, *parts) -> bool:
        """True when equal parts were already seen in this operation."""
        h = hashlib.blake2b(digest_size=16)
        for part in parts:
            h.update(part if isinstance(part, bytes) else repr(part).encode())
            h.update(b"\0")
        key = h.digest()
        if key in self._seen:
            return True
        self._seen.add(key)
        return False

    def wrap(self, name: str, fn, hook=None):
        """Return fn recording a span per call; hook(tracer, args, result, nested) after it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                nested = len(tracer.spans) - idx - 1
                h = tracer.open(TRACE)
                try:
                    hook(tracer, args, result, nested)
                finally:
                    tracer.close(h)
            return result

        return traced

    # --- patching ---------------------------------------------------------

    def install(self, targets) -> None:
        """Patch each (dotted path, hook) target into the package.

        A target the package lacks raises LookupError before anything is
        patched: its per-layer metrics would otherwise read 0, as if the
        work had gone away.
        """
        modules = [m for k, m in list(sys.modules.items())
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        found, missing = [], []
        for path, hook in targets:
            *owner_path, attr = path.split(".")
            owner = sys.modules.get(f"{PACKAGE}.{owner_path[0]}")
            for part in owner_path[1:]:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                missing.append(path)
            found.append((path, hook, owner, attr, original))
        if missing:
            raise LookupError(f"trace targets missing from {PACKAGE}: {', '.join(missing)}")
        for path, hook, owner, attr, original in found:
            name = path.removesuffix(".__init__").lstrip("_")
            wrapped = self.wrap(name, original, hook)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- aggregation ------------------------------------------------------

    def layer_metrics(self, names, ops: int) -> dict:
        """Per-operation values of `<span>.<quantity>` metrics over `ops` traced operations.

        `calls` counts spans, `self_ms` sums self time, a `*_share` is the
        ratio named in SHARES and anything else is a counter.
        """
        calls = defaultdict(int)
        busy = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            calls[span[0]] += 1
            busy[span[0]] += own
        out = {}
        for metric in names:
            span, quantity = metric.rsplit(".", 1)
            if quantity == "calls":
                value = calls[span] / ops
            elif quantity == "self_ms":
                value = 1000.0 * busy[span] / ops
            elif metric in SHARES:
                part, base = SHARES[metric]
                total = calls[span] if base == "calls" else self.counts[f"{span}.{base}"]
                value = self.counts[f"{span}.{part}"] / total if total else 0.0
            else:
                value = self.counts[metric] / ops
            out[metric] = value
        return out


# --- hooks: counters measured where the work happens ------------------------


def _lasso_cd(tracer, args, result, nested):
    max_sweeps = args[3] if len(args) > 3 else 100_000
    sweeps = int(result[1])
    tracer.add("kernels.lasso_cd.sweeps", sweeps)
    tracer.add("kernels.lasso_cd.nonconverged", int(sweeps >= max_sweeps))


def _knn_predict(tracer, args, result, nested):
    train, _, query = args[:3]
    pairs = query.shape[0] * train.shape[0]
    tracer.add("kernels.knn_predict.pairs", pairs)
    # each pair reads one training row of p float64 values
    tracer.add("kernels.knn_predict.bytes_computed", pairs * train.shape[1] * 8)


def _fit_lasso(tracer, args, result, nested):
    tracer.add("aspects.fit_lasso.bisect_steps", len(result.path) - 1)


def _correlation(tracer, args, result, nested):
    table = args[0]
    method = args[1] if len(args) > 1 else "spearman"
    if tracer.repeated("cor", table.column_names, fingerprint(table), method):
        tracer.add("cluster.correlation_matrix.dup_calls")


def _predict(tracer, args, result, nested):
    table = args[1]
    tracer.add("models.predict.rows", table.n)
    if tracer.repeated("rows", table.column_names, fingerprint(table)):
        tracer.add("models.predict.dup_rows", table.n)


def _subprocess_predict(tracer, args, result, nested):
    model, table = args[:2]
    tracer.add("models.SubprocessModel.predict.rows", table.n)
    proc = getattr(model, "_proc", None)
    if proc is not None and not tracer.repeated("child", proc.pid):
        tracer.add("models.SubprocessModel.child_starts")


def _mean_permuted_loss(tracer, args, result, nested):
    # a cached member set returns without scoring, so no nested spans
    if nested == 0:
        tracer.add("global_importance.ImportanceContext.mean_permuted_loss.hits")


def _file_bytes(tracer, args, result, nested):
    tracer.add("data.load_table.bytes", os.path.getsize(args[0]))


def _text_bytes(name):
    def hook(tracer, args, result, nested):
        tracer.add(f"{name}.bytes", len(result.encode()))
    return hook


# (dotted path patched in the package, hook); the span is named after the
# path without a leading underscore (metric names start with a letter), and
# a constructor after its class
TARGETS = (
    ("_kernels.lasso_cd", _lasso_cd),
    ("_kernels.knn_predict", _knn_predict),
    ("aspects.predict_aspects", None),
    ("aspects.build_design", None),
    ("aspects.delta_predictions", None),
    ("aspects.fit_ols", None),
    ("aspects.fit_lasso", _fit_lasso),
    ("aspects.AspectExplanation.to_json", _text_bytes("aspects.AspectExplanation.to_json")),
    ("cluster.correlation_matrix", _correlation),
    ("cluster.agglomerative", None),
    ("cluster.partition_after_merges", None),
    ("models.predict", _predict),
    ("models.SubprocessModel.predict", _subprocess_predict),
    ("global_importance.permute_group", None),
    ("global_importance.ImportanceContext.mean_permuted_loss", _mean_permuted_loss),
    ("data.load_table", _file_bytes),
    ("data.NumericTable.__init__", None),
    ("triplot.predict_triplot", None),
    ("triplot.model_triplot", None),
    ("render.render_aspects", _text_bytes("render.render_aspects")),
    ("cli.cli_main", None),
)

# share metric -> (numerator counter, base: "calls" or a counter)
SHARES = {
    "models.predict.dup_rows_share": ("dup_rows", "rows"),
    "cluster.correlation_matrix.dup_share": ("dup_calls", "calls"),
}

# the per-layer metrics, in BENCHMARK.json order, with their units
PER_LAYER = (
    ("kernels.lasso_cd.calls", "count"),
    ("kernels.lasso_cd.self_ms", "ms"),
    ("kernels.lasso_cd.sweeps", "count"),
    ("kernels.lasso_cd.nonconverged", "count"),
    ("kernels.knn_predict.calls", "count"),
    ("kernels.knn_predict.self_ms", "ms"),
    ("kernels.knn_predict.pairs", "count"),
    ("kernels.knn_predict.bytes_computed", "B"),
    ("aspects.predict_aspects.calls", "count"),
    ("aspects.predict_aspects.self_ms", "ms"),
    ("aspects.build_design.calls", "count"),
    ("aspects.build_design.self_ms", "ms"),
    ("aspects.delta_predictions.calls", "count"),
    ("aspects.delta_predictions.self_ms", "ms"),
    ("aspects.fit_ols.calls", "count"),
    ("aspects.fit_ols.self_ms", "ms"),
    ("aspects.fit_lasso.calls", "count"),
    ("aspects.fit_lasso.self_ms", "ms"),
    ("aspects.fit_lasso.bisect_steps", "count"),
    ("aspects.AspectExplanation.to_json.self_ms", "ms"),
    ("aspects.AspectExplanation.to_json.bytes", "B"),
    ("cluster.correlation_matrix.calls", "count"),
    ("cluster.correlation_matrix.self_ms", "ms"),
    ("cluster.correlation_matrix.dup_share", "ratio"),
    ("cluster.agglomerative.calls", "count"),
    ("cluster.agglomerative.self_ms", "ms"),
    ("cluster.partition_after_merges.calls", "count"),
    ("cluster.partition_after_merges.self_ms", "ms"),
    ("models.predict.calls", "count"),
    ("models.predict.rows", "count"),
    ("models.predict.self_ms", "ms"),
    ("models.predict.dup_rows_share", "ratio"),
    ("models.SubprocessModel.predict.calls", "count"),
    ("models.SubprocessModel.predict.rows", "count"),
    ("models.SubprocessModel.predict.self_ms", "ms"),
    ("models.SubprocessModel.child_starts", "count"),
    ("global_importance.permute_group.calls", "count"),
    ("global_importance.permute_group.self_ms", "ms"),
    ("global_importance.ImportanceContext.mean_permuted_loss.calls", "count"),
    ("global_importance.ImportanceContext.mean_permuted_loss.hits", "count"),
    ("data.load_table.self_ms", "ms"),
    ("data.load_table.bytes", "B"),
    ("data.NumericTable.calls", "count"),
    ("data.NumericTable.self_ms", "ms"),
    ("triplot.predict_triplot.self_ms", "ms"),
    ("triplot.model_triplot.self_ms", "ms"),
    ("render.render_aspects.self_ms", "ms"),
    ("render.render_aspects.bytes", "B"),
    ("cli.cli_main.calls", "count"),
    ("cli.cli_main.self_ms", "ms"),
)
