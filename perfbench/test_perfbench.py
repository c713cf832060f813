"""Tests of the benchmark's own machinery: tail rule, self time, wrapping, references."""

import json
from pathlib import Path

import numpy as np
import pytest

import aspectra
from aspectra import cluster, global_importance, models, triplot
from perfbench import reference, tracing
from perfbench.run import END_TO_END
from perfbench.workloads import WORKLOADS, Meter, MeteredModel

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "n, index, percentile",
    [(11, 0, 9), (20, 9, 50), (57, 46, 82), (100, 89, 90)],
)
def test_tail_has_ten_samples_beyond(n, index, percentile):
    samples = list(np.random.default_rng(n).permutation(n) * 1.5)
    value, pct, count = tracing.tail(samples)
    ordered = sorted(samples)
    assert value == ordered[index]
    assert sum(s > value for s in samples) == 10
    assert (pct, count) == (percentile, n)


def test_tail_with_too_few_samples_is_the_maximum():
    assert tracing.tail([3.0, 1.0, 2.0]) == (3.0, 100, 3)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.inner", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_nesting_and_layer_metrics():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 6.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    tracer.begin_op(0)
    outer = tracer.open("m.outer")
    inner = tracer.open("m.inner")
    tracer.close(inner)
    tracer.add("m.inner.rows", 7)
    again = tracer.open("m.inner")
    tracer.close(again)
    tracer.close(outer)
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    got = tracer.layer_metrics(["m.outer.self_ms", "m.inner.calls", "m.inner.self_ms",
                                "m.inner.rows"], ops=1)
    assert got == {"m.outer.self_ms": 3500.0, "m.inner.calls": 2,
                   "m.inner.self_ms": 2500.0, "m.inner.rows": 7}


def _problem():
    rng = np.random.default_rng(5)
    z = rng.standard_normal(200)
    X = np.column_stack([z + 0.3 * rng.standard_normal(200) for _ in range(3)]
                        + [rng.standard_normal(200) for _ in range(3)])
    table = aspectra.NumericTable([f"c{j}" for j in range(6)], X)
    y = X @ np.arange(1.0, 7.0) + 0.1 * rng.standard_normal(200)
    return table, y


def _outputs(model, table, y):
    local = triplot.TriplotConfig(mode="local", N=200, seed=3, limit=2)
    perm = global_importance.PermutationConfig("rmse", B=2, N=100, seed=4)
    glob = triplot.TriplotConfig(mode="global", permutation=perm)
    return (
        triplot.predict_triplot(model, table, table.row(7), local).to_json(),
        triplot.model_triplot(model, table, y, glob).to_json(),
    )


def test_wrapping_leaves_results_unchanged_and_is_undone():
    table, y = _problem()
    plain = models.fit_linear(table, y)
    before = _outputs(plain, table, y)
    original = cluster.correlation_matrix

    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    try:
        # patched wherever callers look the name up
        for module in (cluster, aspectra.aspects, triplot, aspectra):
            assert module.correlation_matrix is not original
        tracer.begin_op(0)
        traced = _outputs(MeteredModel(plain, Meter()), table, y)
    finally:
        tracer.uninstall()

    assert traced == before
    for module in (cluster, aspectra.aspects, triplot, aspectra):
        assert module.correlation_matrix is original
    assert models.SubprocessModel.predict.__qualname__ == "SubprocessModel.predict"
    names = {span[0] for span in tracer.spans}
    assert {"kernels.lasso_cd", "aspects.fit_lasso", "models.predict",
            "global_importance.permute_group", "data.NumericTable"} <= names
    metrics = tracer.layer_metrics(["cluster.correlation_matrix.dup_share",
                                    "models.predict.dup_rows_share"], ops=1)
    assert 0.0 < metrics["cluster.correlation_matrix.dup_share"] < 1.0
    assert 0.0 < metrics["models.predict.dup_rows_share"] < 1.0


def test_missing_target_fails_the_install_and_patches_nothing():
    original = cluster.correlation_matrix
    tracer = tracing.Tracer()
    targets = [("cluster.correlation_matrix", None), ("cluster.no_such_function", None)]
    with pytest.raises(LookupError, match="cluster.no_such_function"):
        tracer.install(targets)
    assert cluster.correlation_matrix is original


def test_fingerprint_tells_permuted_tables_apart():
    table, _ = _problem()
    copy = aspectra.NumericTable(table.column_names, table.values.copy())
    assert tracing.fingerprint(copy) == tracing.fingerprint(table)
    values = table.values.copy()
    values[:, 2] = values[::-1, 2]
    assert tracing.fingerprint(table.with_values(values)) != tracing.fingerprint(table)


def test_meter_counts_calls_and_rows():
    table, y = _problem()
    meter = Meter()
    model = MeteredModel(models.fit_linear(table, y), meter)
    models.predict(model, table)
    models.predict(model, table.take_rows([0, 1, 2]))
    assert (meter.calls, meter.rows) == (2, 203)
    assert meter.seconds > 0.0


def test_reference_check_tolerance_and_identity():
    doc = json.dumps({"leaves": [{"name": "c1", "importance": 0.5}, {"name": "c2",
                      "importance": -2.25}], "n": 3}, indent=2)
    ref = reference.record(doc)
    assert reference.check("json", doc, ref) == (True, True, "")
    nudged = doc.replace("-2.25", repr(-2.25 * (1 + 1e-12)))
    assert reference.check("json", nudged, ref)[:2] == (True, False)
    wrong = doc.replace("0.5", "0.5001")
    assert reference.check("json", wrong, ref)[0] is False
    renamed = doc.replace('"n": 3', '"n": 4')
    assert reference.check("json", renamed, ref)[0] is False
    svg = '<rect x="10.00" width="3.25"/><text>0.123</text>'
    assert reference.check("svg", svg.replace("0.123", "0.124"), reference.record(svg))[0]
    assert not reference.check("svg", svg.replace("10.00", "10.50"), reference.record(svg))[0]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    per_layer = list(tracing.PER_LAYER) + [("trace.op_ms_p50", "ms"), ("trace.overhead_ms", "ms")]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer
    for name in WORKLOADS:
        stored = reference.load(name)
        assert len(stored["sets"]) == stored["bank"]
        assert all(len(ops) == WORKLOADS[name].cycle for ops in stored["sets"].values())
