import json
import math

import numpy as np
import pytest

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
from aspectra import aspects, global_importance
from aspectra.aspects import SampleDesign, build_design, delta_predictions, fit_lasso, fit_ols
from aspectra.cluster import (
    agglomerative,
    cor_distance,
    correlation_matrix,
    partition_after_merges,
)
from aspectra.data import NumericTable, RngStream, sampled_row_ids, validate_partition
from aspectra.errors import AspectraError, SchemaMismatch
from aspectra.global_importance import ImportanceContext
from aspectra.triplot import TriplotResult

from conftest import CountingModel, make_six_variable


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
    model = fit_linear(table, y)
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
    # each of the p levels scores its own A' and the distinct rows of the one A
    table, y = six_table
    model = CountingModel(fit(table, y))
    predict_triplot(model, table, table.row(5), TriplotConfig(mode="local", N=300, seed=6,
                                                             limit=limit))
    row_ids = sampled_row_ids(table, 300, RngStream(6).child(aspects._K_ROWS))
    distinct = np.unique(row_ids).size
    assert distinct < 300
    assert (model.calls, model.rows) == (2 * table.p, table.p * 300 + table.p * distinct)


# ------------------------------------------------------- local triplot oracle


def _oracle_build_design(table, x_star, partition, N, rng):
    """build_design as it was before designs shared one row sample: every
    call draws A again and builds A' with np.where."""
    validate_partition(partition, table.p)
    if x_star.p != table.p:
        raise SchemaMismatch(f"observation has {x_star.p} values, table has p={table.p}")
    m = partition.m
    if N < m:
        raise AspectraError(f"need N >= m sampled rows, got N={N}, m={m}")
    row_ids = sampled_row_ids(table, N, rng.child(aspects._K_ROWS))
    A = table.values[row_ids]
    kl = rng.child(aspects._K_FLAGS).generator().integers(0, m, size=(N, 2))
    X_prime = np.zeros((N, m), dtype=np.int8)
    X_prime[np.arange(N), kl[:, 0]] = 1
    X_prime[np.arange(N), kl[:, 1]] = 1
    aspect_of = np.empty(table.p, dtype=np.intp)  # column -> its aspect
    for j, members in enumerate(partition.member_sets):
        aspect_of[list(members)] = j
    A_prime = np.where(X_prime[:, aspect_of] == 1, x_star.values, A)
    ids, inverse = np.unique(row_ids, return_inverse=True)
    names = table.column_names
    return SampleDesign(
        row_ids=row_ids,
        X_prime=X_prime,
        distinct=NumericTable._from_validated(names, table.values[ids]),
        inverse=inverse,
        modified=NumericTable._from_validated(names, A_prime),
        partition=partition,
    )


def _oracle_predict_triplot(model, table, x_star, cfg):
    """The local triplot as p independent explanations: per tree level its
    own partition, sampled design and surrogate fit."""
    tree = agglomerative(cor_distance(correlation_matrix(table, cfg.cor_method)), cfg.linkage)

    def contributions_at(level):
        part = partition_after_merges(tree, level, table.column_names)
        design = _oracle_build_design(table, x_star, part, cfg.N, RngStream(cfg.seed))
        ym = delta_predictions(model, design)
        if cfg.limit is None:
            fit = fit_ols(design, ym)
        else:
            fit = fit_lasso(design, ym, min(cfg.limit, part.m))
        return dict(zip(part.member_sets, fit.gamma))

    leaf_level = contributions_at(0)
    node_imp = np.empty(len(tree.merges))
    for t, merge in enumerate(tree.merges):
        node_imp[t] = contributions_at(t + 1)[merge.members]
    return TriplotResult(
        mode="local",
        tree=tree,
        leaf_names=tuple(table.column_names),
        leaf_importance=np.array([leaf_level[(j,)] for j in range(table.p)]),
        node_importance=node_imp,
        x_star=x_star.values,
        metadata={"N": cfg.N, "seed": cfg.seed, "limit": cfg.limit,
                  "cor_method": cfg.cor_method, "linkage": cfg.linkage},
    )


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
        assert ours.to_json() == _oracle_predict_triplot(model, table, table.row(row), cfg).to_json()


def test_shared_sampler_designs_match_per_level_designs(six_table):
    table, _ = six_table
    x_star = table.row(4)
    tree = agglomerative(cor_distance(correlation_matrix(table, "spearman")), "complete")
    sampler = aspects._DesignSampler(table, x_star, 601, RngStream(9))
    for count in range(table.p):
        part = partition_after_merges(tree, count, table.column_names)
        shared = sampler.design(part)
        for other in (build_design(table, x_star, part, 601, RngStream(9)),
                      _oracle_build_design(table, x_star, part, 601, RngStream(9))):
            assert np.array_equal(shared.row_ids, other.row_ids)
            assert np.array_equal(shared.X_prime, other.X_prime)
            assert shared.X_prime.dtype == np.int8
            assert np.array_equal(shared.inverse, other.inverse)
            for ours, theirs in ((shared.distinct, other.distinct),
                                 (shared.modified, other.modified)):
                assert ours.values.tobytes() == theirs.values.tobytes()
                assert ours.column_names == theirs.column_names
                assert ours.values.dtype == np.float64
                assert ours.values.flags.c_contiguous and not ours.values.flags.writeable
        assert shared.partition == part
        assert shared.distinct is sampler.distinct and shared.inverse is sampler.inverse
        assert not shared.row_ids.flags.writeable and not shared.inverse.flags.writeable


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
