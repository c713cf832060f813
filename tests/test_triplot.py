import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectra import (
    ConstantModel,
    PermutationConfig,
    TriplotConfig,
    fit_knn,
    fit_linear,
    model_triplot,
    predict_aspects,
    predict_triplot,
)
from aspectra import SubprocessModel, aspects, global_importance
from aspectra.aspects import build_design, delta_predictions, fit_ols
from aspectra.cluster import partition_after_merges
from aspectra.data import NumericTable, RngStream, sampled_row_ids
from aspectra.errors import AspectraError, NonFiniteShift
from aspectra.global_importance import ImportanceContext
from aspectra.triplot import TriplotResult

from conftest import (
    CountingModel,
    RowwiseModel,
    child_cmd,
    make_six_variable,
    oracle_build_design,
    oracle_modified_keys,
    oracle_predict_triplot,
    oracle_tree_partitions,
    planned_calls_and_rows,
    planned_modified,
)


def global_cfg(**kw):
    perm = PermutationConfig(loss=kw.pop("loss", "rmse"), B=kw.pop("B", 2), seed=kw.pop("seed", 0))
    return TriplotConfig(mode="global", permutation=perm, **kw)


# ------------------------------------------------------------------ config


def test_config_validation():
    with pytest.raises(AspectraError):
        TriplotConfig(mode="both")
    with pytest.raises(AspectraError):
        TriplotConfig(mode="global")  # no permutation config
    with pytest.raises(AspectraError):
        TriplotConfig(mode="local")  # no N
    with pytest.raises(AspectraError):
        TriplotConfig(mode="local", N=100, linkage="ward")


@pytest.mark.parametrize("field, value", [
    ("N", 100.0), ("N", 100.5), ("N", True),
    ("seed", 1.5), ("seed", False), ("seed", None),
    ("limit", 1.5), ("limit", 1.0), ("limit", True), ("limit", "2"),
])
def test_config_rejects_a_field_that_is_not_an_integer(field, value):
    kw = {"N": 100, field: value}
    with pytest.raises(AspectraError, match=f"{field} must be an integer"):
        TriplotConfig(mode="local", **kw)


def test_config_takes_numpy_integers_as_int(six_table):
    table, _ = six_table
    model = ConstantModel(0.0)
    cfg = TriplotConfig(mode="local", N=np.int64(200), seed=np.uint8(4), limit=np.int32(2))
    assert all(type(v) is int for v in (cfg.N, cfg.seed, cfg.limit))
    res = predict_triplot(model, table, table.row(0), cfg)
    assert {k: res.to_json_doc()["metadata"][k] for k in ("N", "seed", "limit")} == \
        {"N": 200, "seed": 4, "limit": 2}


def test_mode_mismatch_rejected(six_table):
    table, y = six_table
    model = fit_linear(table, y)
    with pytest.raises(AspectraError):
        model_triplot(model, table, y, TriplotConfig(mode="local", N=10))
    with pytest.raises(AspectraError):
        predict_triplot(model, table, table.row(0), global_cfg())


# ------------------------------------------------------------------ global


def test_global_structure(six_table):
    table, y = six_table
    model = fit_linear(table, y)
    res = model_triplot(model, table, y, global_cfg())
    assert res.mode == "global"
    assert res.leaf_names == table.column_names
    assert res.leaf_importance.shape == (6,)
    assert res.node_importance.shape == (5,)
    assert res.tree.p == 6
    assert res.full_model_loss < res.baseline_loss


def test_global_root_equals_baseline_minus_full(six_table):
    table, y = six_table
    model = fit_linear(table, y)
    res = model_triplot(model, table, y, global_cfg(B=3, seed=4))
    assert res.node_importance[-1] == res.baseline_loss - res.full_model_loss


def test_global_nodes_match_direct_context(six_table):
    table, y = six_table
    model = fit_linear(table, y)
    perm = PermutationConfig(loss="rmse", B=2, seed=7)
    res = model_triplot(model, table, y, TriplotConfig(mode="global", permutation=perm))
    ctx = ImportanceContext(model, table, y, perm)
    for merge, imp in zip(res.tree.merges, res.node_importance):
        assert imp == ctx.mean_permuted_loss(merge.members) - ctx.full_model_loss
    for j, imp in enumerate(res.leaf_importance):
        assert imp == ctx.mean_permuted_loss((j,)) - ctx.full_model_loss


def test_global_constant_model_all_zero(six_table):
    table, y = six_table
    res = model_triplot(ConstantModel(0.0), table, y, global_cfg())
    assert np.all(res.leaf_importance == 0.0)
    assert np.all(res.node_importance == 0.0)


# ------------------------------------------------------------------- local


def test_local_structure(six_table):
    table, y = six_table
    model = fit_linear(table, y)
    cfg = TriplotConfig(mode="local", N=600, seed=1)
    res = predict_triplot(model, table, table.row(3), cfg)
    assert res.mode == "local"
    assert res.leaf_importance.shape == (6,)
    assert res.node_importance.shape == (5,)
    assert np.array_equal(res.x_star, table.row(3).values)
    assert res.full_model_loss is None


# a cap at or above a level's aspect count is the uncapped fit; limit=2 takes
# the lasso path at every level with more than two aspects and OLS below that


def test_local_leaves_match_singleton_predict_aspects(six_table):
    table, y = six_table
    model = fit_linear(table, y)
    for limit in (None, 2):
        cfg = TriplotConfig(mode="local", N=600, seed=2, limit=limit)
        res = predict_triplot(model, table, table.row(0), cfg)
        part0 = partition_after_merges(res.tree, 0, table.column_names)
        expl = predict_aspects(model, table, table.row(0), part0, N=600, seed=2, limit=limit)
        by_name = {a.name: a.contribution for a in expl.aspects}
        for name, imp in zip(res.leaf_names, res.leaf_importance):
            assert imp == by_name[name]


def test_local_node_is_new_cluster_at_its_level(six_table):
    table, y = six_table
    for model in (fit_linear(table, y), fit_knn(table, y, 5)):
        for limit in (None, 2):
            cfg = TriplotConfig(mode="local", N=600, seed=3, limit=limit)
            res = predict_triplot(model, table, table.row(1), cfg)
            for t, merge in enumerate(res.tree.merges):
                part = partition_after_merges(res.tree, t + 1, table.column_names)
                expl = predict_aspects(model, table, table.row(1), part, N=600, seed=3,
                                       limit=limit)
                row = next(a for a in expl.aspects
                           if tuple(table.column_index(n) for n in a.members) == merge.members)
                assert res.node_importance[t] == row.contribution


@pytest.mark.parametrize("limit", [None, 2])
@pytest.mark.parametrize("fit", [fit_linear, lambda t, y: fit_knn(t, y, 5)], ids=["linear", "knn"])
def test_local_model_calls(six_table, fit, limit):
    # each of the p levels scores the modified rows that no earlier level
    # drew, a call it skips when there are none, and the distinct rows of
    # the one A
    table, y = six_table
    model = CountingModel(fit(table, y))
    cfg = TriplotConfig(mode="local", N=300, seed=6, limit=limit)
    predict_triplot(model, table, table.row(5), cfg)
    planned = planned_calls_and_rows(table, table.row(5), oracle_tree_partitions(table, cfg)[1],
                                     300, 6)
    assert (model.calls, model.rows) == planned
    # the last level, m = 1, draws only x*, which the m = 2 level drew already
    row_ids = sampled_row_ids(table, 300, RngStream(6).child(aspects._K_ROWS))
    distinct = np.unique(row_ids).size
    assert distinct < 300
    assert model.calls == 2 * table.p - 1
    assert model.rows < table.p * 300 + table.p * distinct


# ------------------------------------------------------- local triplot oracle


@pytest.mark.parametrize("limit", [None, 0, 2, 6, 9])
@pytest.mark.parametrize("fit", [fit_linear, lambda t, y: fit_knn(t, y, 5)], ids=["linear", "knn"])
def test_local_triplot_matches_per_level_oracle(six_table, fit, limit):
    # N = 601 is not a multiple of 4, where a BLAS product may round a row by
    # its position in the batch
    table, y = six_table
    model = fit(table, y)
    for seed, row in ((5, 0), (8, 3)):
        cfg = TriplotConfig(mode="local", N=601, seed=seed, limit=limit)
        ours = predict_triplot(model, table, table.row(row), cfg)
        assert ours.to_json() == oracle_predict_triplot(model, table, table.row(row), cfg).to_json()


def _repeated_rows(table):
    """The table with every row three times, so that draws of different row
    ids share their values."""
    return table.take_rows(np.repeat(np.arange(table.n), 3))


@pytest.mark.parametrize("limit", [None, 2])
@pytest.mark.parametrize("kind", ["knn", "rowwise", "cmd"])
@pytest.mark.parametrize("shape", ["six", "repeated-rows"])
def test_planned_triplot_is_byte_identical_to_per_level_scoring(six_table, shape, kind, limit):
    # every triplot ends with its m = 2 and m = 1 levels, whose draws collapse
    # onto x* when they replace every column
    table, y = six_table
    if shape == "repeated-rows":
        table = _repeated_rows(table.take_rows(range(60)))
    cfg = TriplotConfig(mode="local", N=301, seed=7, limit=limit)
    if kind == "cmd":
        with SubprocessModel(child_cmd("sum")) as model:
            ours = predict_triplot(model, table, table.row(4), cfg)
            oracle = oracle_predict_triplot(model, table, table.row(4), cfg)
    else:
        model = fit_knn(table, y[:table.n], 5) if kind == "knn" else RowwiseModel()
        ours = predict_triplot(model, table, table.row(4), cfg)
        oracle = oracle_predict_triplot(model, table, table.row(4), cfg)
    assert ours.to_json() == oracle.to_json()


def _plan(table, x_star, cfg):
    tree, parts = oracle_tree_partitions(table, cfg)
    sampler = aspects._DesignSampler(table, x_star, cfg.N, RngStream(cfg.seed))
    return parts, list(sampler.designs(parts, tree))


def test_shared_sampler_designs_match_per_level_designs(six_table):
    table, _ = six_table
    x_star = table.row(4)
    cfg = TriplotConfig(mode="local", N=601, seed=9)
    parts, designs = _plan(table, x_star, cfg)
    fills = []
    for part, shared, A_prime in zip(parts, designs, planned_modified(designs)):
        for other in (build_design(table, x_star, part, 601, RngStream(9)),
                      oracle_build_design(table, x_star, part, 601, RngStream(9))):
            assert np.array_equal(shared.row_ids, other.row_ids)
            assert np.array_equal(shared.X_prime, other.X_prime)
            assert shared.X_prime.dtype == np.int8
            # W counted from the flags is X'^T X', bit for bit
            assert shared.W.tobytes() == other.W.tobytes()
            assert np.array_equal(shared.inverse, other.inverse)
            assert shared.distinct.values.tobytes() == other.distinct.values.tobytes()
        assert A_prime.tobytes() == other.modified.values.tobytes()
        for ours in (shared.distinct, shared.modified):
            assert ours.column_names == table.column_names
            assert ours.values.dtype == np.float64
            assert ours.values.flags.c_contiguous and not ours.values.flags.writeable
        assert shared.partition == part
        assert shared.distinct is designs[0].distinct and shared.inverse is designs[0].inverse
        assert shared.predictions is designs[0].predictions
        # the rows a level scores are the ones it draws first
        fills.append(shared.fills)
        drawn_before = np.concatenate(fills[:-1] or [np.empty(0, np.int64)])
        assert np.array_equal(np.unique(shared.slots), np.union1d(
            np.intersect1d(shared.slots, drawn_before), shared.fills))
        assert not np.isin(shared.fills, drawn_before).any()
        assert not shared.row_ids.flags.writeable and not shared.inverse.flags.writeable
        assert not shared.slots.flags.writeable
    # every slot is scored by exactly one design
    assert np.array_equal(np.sort(np.concatenate(fills)), np.arange(designs[0].predictions.shape[0]))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    p=st.integers(1, 5),
    extra=st.integers(0, 30),
    seed=st.integers(0, 2**16),
    linkage=st.sampled_from(["complete", "single", "average"]),
    data=st.data(),
)
def test_draws_share_a_slot_exactly_when_their_modified_rows_agree(n, p, extra, seed, linkage,
                                                                 data):
    # values from a small set, so that rows repeat and x* may equal a
    # sampled row in some columns; two last rows of 0 and 1 make every
    # column vary, as the correlation needs
    values = data.draw(st.lists(st.sampled_from([-1.5, 0.0, 0.25, 2.0]), min_size=n * p,
                                max_size=n * p))
    X = np.vstack([np.array(values).reshape(n, p), np.zeros(p), np.ones(p)])
    table = NumericTable(tuple(f"x{j}" for j in range(p)), X)
    x_star = table.row(data.draw(st.integers(0, table.n - 1)))
    cfg = TriplotConfig(mode="local", N=p + extra, seed=seed, linkage=linkage, cor_method="pearson")
    parts, designs = _plan(table, x_star, cfg)
    slots = np.concatenate([d.slots for d in designs])
    A_prime = np.concatenate(planned_modified(designs))
    keys = [key for part in parts
            for key in oracle_modified_keys(table, x_star, part, cfg.N, cfg.seed)]
    oracle = np.concatenate([oracle_build_design(table, x_star, part, cfg.N, RngStream(seed))
                             .modified.values for part in parts])
    # each draw's planned row is its own A' row, bit for bit
    assert A_prime.tobytes() == oracle.tobytes()
    # and draws share a slot exactly when their sampled row and replaced
    # columns agree, or both replace every column
    by_key = {}
    for key, slot in zip(keys, slots.tolist()):
        assert by_key.setdefault(key, slot) == slot
    assert len(by_key) == len(set(slots.tolist())) == designs[0].predictions.shape[0]


@pytest.mark.parametrize("sort_bits", [63, 0], ids=["packed", "argsort"])
def test_plan_is_the_same_with_either_sort(six_table, sort_bits, monkeypatch):
    # keys too wide to pack above the draw positions in an int64 take a
    # stable argsort instead
    table, _ = six_table
    cfg = TriplotConfig(mode="local", N=300, seed=2)
    reference = _plan(table, table.row(1), cfg)[1]
    monkeypatch.setattr(aspects, "_SORT_BITS", sort_bits)
    for ours, theirs in zip(_plan(table, table.row(1), cfg)[1], reference):
        assert np.array_equal(ours.slots, theirs.slots)
        assert np.array_equal(ours.fills, theirs.fills)
        assert ours.modified.values.tobytes() == theirs.modified.values.tobytes()


def test_plan_memory_is_linear_in_the_draws():
    # a wide table with N = p, where the plan's node-pair codes are as large
    # as they get against its p * N draws: the plan and the first design
    # hold a bounded number of bytes per draw, not one code per flag pair of
    # every level (about p^3 / 3)
    p = N = 240
    rng = np.random.default_rng(5)
    X = rng.standard_normal((60, 1)) + 0.5 * rng.standard_normal((60, p))
    table = NumericTable(tuple(f"x{j}" for j in range(p)), X)
    cfg = TriplotConfig(mode="local", N=N, seed=1, cor_method="pearson")
    tree, parts = oracle_tree_partitions(table, cfg)
    sampler = aspects._DesignSampler(table, table.row(0), N, RngStream(1))
    tracemalloc.start()
    try:
        design = next(sampler.designs(parts, tree))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert design.m == p
    assert peak < 160 * p * N


def test_designs_scored_out_of_plan_order_are_rejected(six_table):
    # a design's draws that an earlier design scores come out NaN until it
    # has, and the surrogate fit rejects them
    table, y = six_table
    _, designs = _plan(table, table.row(1), TriplotConfig(mode="local", N=300, seed=2))
    model = fit_knn(table, y, 5)
    early = delta_predictions(model, designs[3])
    assert np.isnan(early).any()
    with pytest.raises(NonFiniteShift):
        fit_ols(designs[3], early)
    for design in designs:
        assert np.isfinite(delta_predictions(model, design)).all()


@pytest.mark.parametrize("budget", [1, 2400, 6000, 1 << 19])
@pytest.mark.parametrize("B", [1, 2])
def test_global_model_calls(six_table, B, budget, monkeypatch):
    # the unpermuted table once, then p leaves and p - 1 merges (the root is
    # the baseline's full set), B repetitions each, stacked k tables per call
    monkeypatch.setattr(global_importance, "_BATCH_VALUES", budget)
    table, y = six_table
    model = CountingModel(fit_linear(table, y))
    model_triplot(model, table, y, global_cfg(B=B, seed=2))
    jobs = 1 + B * (2 * table.p - 1)
    k = max(1, budget // (table.n * table.p))
    assert (model.calls, model.rows) == (math.ceil(jobs / k), table.n * jobs)


def test_local_constant_model_all_zero(six_table):
    table, _ = six_table
    cfg = TriplotConfig(mode="local", N=300, seed=0)
    res = predict_triplot(ConstantModel(5.0), table, table.row(2), cfg)
    assert np.all(res.leaf_importance == 0.0)
    assert np.all(res.node_importance == 0.0)


def test_local_limit_plumbs_through(six_table):
    table, y = six_table
    model = fit_linear(table, y)
    cfg = TriplotConfig(mode="local", N=600, seed=4, limit=2)
    res = predict_triplot(model, table, table.row(0), cfg)
    assert np.count_nonzero(res.leaf_importance) <= 2


# ----------------------------------------------------------- serialization


@pytest.mark.parametrize("mode", ["global", "local"])
def test_json_roundtrip(six_table, mode):
    table, y = six_table
    model = fit_linear(table, y)
    if mode == "global":
        res = model_triplot(model, table, y, global_cfg(seed=5))
    else:
        res = predict_triplot(model, table, table.row(0),
                              TriplotConfig(mode="local", N=400, seed=5))
    doc = json.loads(res.to_json())
    back = TriplotResult.from_json_doc(doc)
    assert back.mode == res.mode
    assert back.leaf_names == res.leaf_names
    assert np.array_equal(back.leaf_importance, res.leaf_importance)
    assert np.array_equal(back.node_importance, res.node_importance)
    assert back.to_json() == res.to_json()  # serialization is a fixed point


def test_json_doc_with_non_finite_x_star_is_rejected(six_table):
    table, y = six_table
    res = predict_triplot(fit_linear(table, y), table, table.row(0),
                          TriplotConfig(mode="local", N=400, seed=5))
    doc = json.loads(res.to_json())
    doc["metadata"]["x_star"][2] = math.nan
    with pytest.raises(AspectraError, match="non-finite"):
        TriplotResult.from_json_doc(doc)


@pytest.mark.parametrize("corrupt", [
    lambda meta: meta.pop("x_star"),
    lambda meta: meta["x_star"].pop(),
], ids=["missing", "short"])
def test_json_doc_without_a_full_x_star_is_rejected(six_table, corrupt):
    table, y = six_table
    res = predict_triplot(fit_linear(table, y), table, table.row(0),
                          TriplotConfig(mode="local", N=400, seed=5))
    doc = json.loads(res.to_json())
    corrupt(doc["metadata"])
    with pytest.raises(AspectraError, match="x_star"):
        TriplotResult.from_json_doc(doc)


def test_json_doc_shape(six_table):
    table, y = six_table
    model = fit_linear(table, y)
    res = model_triplot(model, table, y, global_cfg())
    doc = res.to_json_doc()
    assert set(doc) == {"mode", "tree", "leaves", "nodes", "metadata"}
    assert len(doc["leaves"]) == 6 and len(doc["nodes"]) == 5
    assert doc["metadata"]["full_model_loss"] == res.full_model_loss
    heights = [node["height"] for node in doc["nodes"]]
    assert heights == sorted(heights)


def test_same_seed_identical_json(six_table):
    table, y = six_table
    model = fit_linear(table, y)
    a = model_triplot(model, table, y, global_cfg(seed=9)).to_json()
    b = model_triplot(model, table, y, global_cfg(seed=9)).to_json()
    assert a == b
    cfg = TriplotConfig(mode="local", N=500, seed=9)
    c = predict_triplot(model, table, table.row(0), cfg).to_json()
    d = predict_triplot(model, table, table.row(0), cfg).to_json()
    assert c == d
