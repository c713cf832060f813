import json

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
from aspectra.cluster import partition_after_merges
from aspectra.errors import AspectraError
from aspectra.global_importance import ImportanceContext
from aspectra.models import ModelAdapter
from aspectra.triplot import TriplotResult

from conftest import make_six_variable


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
        assert imp == ctx.importance(merge.members)
    for j, imp in enumerate(res.leaf_importance):
        assert imp == ctx.importance((j,))


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


# the triplot caps each level at min(limit, m) aspects; limit=2 takes the
# lasso path at every level with more than two aspects and OLS below that


def test_local_leaves_match_singleton_predict_aspects(six_table):
    table, y = six_table
    model = fit_linear(table, y)
    for limit in (None, 2):
        cfg = TriplotConfig(mode="local", N=600, seed=2, limit=limit)
        res = predict_triplot(model, table, table.row(0), cfg)
        part0 = partition_after_merges(res.tree, 0, table.column_names)
        expl = predict_aspects(model, table, table.row(0), part0, N=600, seed=2,
                               limit=None if limit is None else min(limit, part0.m))
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
                                   limit=None if limit is None else min(limit, part.m))
            row = next(a for a in expl.aspects
                       if tuple(table.column_index(n) for n in a.members) == merge.members)
            assert res.node_importance[t] == row.contribution


class CountingModel(ModelAdapter):
    def __init__(self, model):
        self.model = model
        self.column_names = model.column_names
        self.calls = self.rows = 0

    def expected_p(self):
        return self.model.expected_p()

    def predict(self, table):
        self.calls += 1
        self.rows += table.n
        return self.model.predict(table)


@pytest.mark.parametrize("limit", [None, 2])
@pytest.mark.parametrize("fit", [fit_linear, lambda t, y: fit_knn(t, y, 5)], ids=["linear", "knn"])
def test_local_model_calls(six_table, fit, limit):
    # each of the p levels scores its own A and A'
    table, y = six_table
    model = CountingModel(fit(table, y))
    predict_triplot(model, table, table.row(5), TriplotConfig(mode="local", N=300, seed=6,
                                                             limit=limit))
    assert (model.calls, model.rows) == (2 * table.p, 2 * table.p * 300)


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
