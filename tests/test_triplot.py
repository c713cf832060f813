import dataclasses
import itertools
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
    correlation_matrix,
    fit_linear,
    group_variables,
    model_triplot,
    predict_aspects,
    predict_triplot,
)
from aspectra import AspectPartition, SubprocessModel, aspects, cluster, global_importance
from aspectra.aspects import _normal_equations, build_design, delta_predictions
from aspectra.cluster import MergeRecord, partition_after_merges
from aspectra.data import NumericTable, RngStream, sampled_row_ids
from aspectra.errors import AspectraError, NonFiniteShift, SingularDesign
from aspectra.global_importance import ImportanceContext
from aspectra.models import LinearModel
from aspectra.triplot import TriplotResult

from conftest import (
    CountingModel,
    RecordingModel,
    RowwiseModel,
    child_cmd,
    dense_normal_equations,
    make_six_variable,
    modified_rows,
    oracle_build_design,
    oracle_modified_keys,
    oracle_predict_triplot,
    oracle_tree_partitions,
    planned_calls_and_rows,
    planned_modified,
    singletons,
    slot_first_draws,
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
    # rejected when built, not when the triplot runs
    for mode in ("local", "global"):
        with pytest.raises(AspectraError, match="correlation method"):
            TriplotConfig(mode=mode, N=100, permutation=PermutationConfig("rmse"),
                          cor_method="kendall")
    # as PermutationConfig takes N, and before any model call
    for N in (0, -1):
        with pytest.raises(AspectraError, match="N must be >= 1"):
            TriplotConfig(mode="local", N=N)
    with pytest.raises(AspectraError, match="limit must be >= 0"):
        TriplotConfig(mode="local", N=100, limit=-1)
    assert TriplotConfig(mode="local", N=1, limit=0).limit == 0


def test_a_local_config_refuses_a_permutation_that_is_no_config():
    # a str was once stored as a local config's permutation
    for permutation in ("x", 1, {"loss": "rmse"}):
        with pytest.raises(AspectraError, match="permutation must be PermutationConfig"):
            TriplotConfig(mode="local", N=5, permutation=permutation)
    assert TriplotConfig(mode="local", N=5).permutation is None


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
        assert imp == ctx.mean_permuted_loss(merge.members) - ctx.mean_permuted_loss(())
    for j, imp in enumerate(res.leaf_importance):
        assert imp == ctx.mean_permuted_loss((j,)) - ctx.mean_permuted_loss(())


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
    # the plan's distinct modified rows of every level in one call, then
    # each of the p levels scores the distinct rows of the one A
    table, y = six_table
    model = CountingModel(fit(table, y))
    cfg = TriplotConfig(mode="local", N=300, seed=6, limit=limit)
    predict_triplot(model, table, table.row(5), cfg)
    planned = planned_calls_and_rows(table, table.row(5), oracle_tree_partitions(table, cfg)[1],
                                     300, 6)
    assert (model.calls, model.rows) == planned
    row_ids = sampled_row_ids(table, 300, RngStream(6).child(aspects._K_ROWS))
    distinct = np.unique(row_ids).size
    assert distinct < 300
    assert model.calls == table.p + 1
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
    """The partitions of every level, their designs and the plan's A' writer."""
    tree, parts = oracle_tree_partitions(table, cfg)
    return (parts, *aspects._designs(table, x_star, cfg.N, RngStream(cfg.seed), tree))


def test_shared_sampler_designs_match_per_level_designs(six_table):
    table, _ = six_table
    x_star = table.row(4)
    cfg = TriplotConfig(mode="local", N=601, seed=9)
    parts, designs, write = _plan(table, x_star, cfg)
    for part, shared, A_prime in zip(parts, designs, planned_modified(designs, write)):
        # W counted from the flags is X'^T X', bit for bit
        W, _ = _normal_equations(shared, np.zeros(601))
        for other in (build_design(table, x_star, part, 601, RngStream(9)),
                      oracle_build_design(table, x_star, part, 601, RngStream(9))):
            assert np.array_equal(shared.row_ids, other.row_ids)
            # the flags in the smallest type that holds every level's aspects
            assert shared.flags.dtype == np.uint8
            assert shared.flags.tobytes() == other.flags.astype(np.uint8).tobytes()
            assert W.tobytes() == dense_normal_equations(other, np.zeros(601))[0].tobytes()
            assert np.array_equal(shared.inverse, other.inverse)
            assert shared.distinct.values.tobytes() == other.distinct.values.tobytes()
        assert A_prime.tobytes() == other.modified.values.tobytes()
        assert shared.distinct.column_names == table.column_names
        assert shared.distinct.values.dtype == np.float64
        assert shared.distinct.values.flags.c_contiguous
        assert not shared.distinct.values.flags.writeable
        assert shared.partition == part
        assert shared.distinct is designs[0].distinct and shared.inverse is designs[0].inverse
        assert shared.predictions is designs[0].predictions
        assert not shared.row_ids.flags.writeable and not shared.inverse.flags.writeable
        assert not shared.slots.flags.writeable
    # the levels' draws use every slot of the plan
    slots = np.concatenate([d.slots for d in designs])
    assert np.array_equal(np.unique(slots), np.arange(designs[0].predictions.shape[0]))


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
    parts, designs, write = _plan(table, x_star, cfg)
    slots = np.concatenate([d.slots for d in designs])
    A_prime = np.concatenate(planned_modified(designs, write))
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


def test_first_draws_packs_positions_or_sorts_stably():
    # keys with many repeats fit in an int64 above the draw positions; the
    # same keys shifted by 2^60 do not, and take a stable argsort instead
    keys = np.random.default_rng(3).integers(0, 40, size=5000)
    first, inverse = np.unique(keys, return_index=True, return_inverse=True)[1:]
    for case in (keys.copy(), keys + (1 << 60)):
        slots, firsts = aspects._first_draws(case)
        assert np.array_equal(slots, inverse.reshape(-1))
        # each slot's first draw, in slot order
        assert np.array_equal(firsts, first)
        assert not slots.flags.writeable and not firsts.flags.writeable


@pytest.mark.parametrize("packed", [True, False], ids=["packed", "argsort"])
def test_plan_is_the_same_with_either_sort(six_table, packed, monkeypatch):
    # keys too wide to pack above the draw positions in an int64 take a
    # stable argsort instead; raising every key by the same offset keeps
    # their order and pushes them past the packing width
    table, _ = six_table
    cfg = TriplotConfig(mode="local", N=300, seed=2)
    first_draws = aspects._first_draws

    def forced(keys):
        shift = (keys.shape[0] - 1).bit_length()
        fits = (int(keys.max()) + 1).bit_length() + shift <= 63
        assert fits
        if not packed:
            keys += 1 << (63 - shift)
        return first_draws(keys)

    reference = _plan(table, table.row(1), cfg)[1:]
    monkeypatch.setattr(aspects, "_first_draws", forced)
    ours = _plan(table, table.row(1), cfg)[1:]
    for d, theirs in zip(ours[0], reference[0]):
        assert np.array_equal(d.slots, theirs.slots)
    assert modified_rows(*ours).tobytes() == modified_rows(*reference).tobytes()


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
    tree, _ = oracle_tree_partitions(table, cfg)
    tracemalloc.start()
    try:
        designs, _ = aspects._designs(table, table.row(0), N, RngStream(1), tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert designs[0].m == p
    assert peak < 160 * p * N


def test_designs_scored_out_of_plan_order_are_rejected(six_table):
    # a design's draws come out NaN until `_scored_designs` has scored its
    # plan, and the surrogate fit rejects them
    table, y = six_table
    cfg = TriplotConfig(mode="local", N=300, seed=2)
    parts, designs, _ = _plan(table, table.row(1), cfg)
    model = fit_knn(table, y, 5)
    early = delta_predictions(model, designs[3])
    assert np.isnan(early).all()
    with pytest.raises(NonFiniteShift):
        _normal_equations(designs[3], early)
    tree = oracle_tree_partitions(table, cfg)[0]
    for design in aspects._scored_designs(model, table, table.row(1), cfg.N, RngStream(cfg.seed),
                                          tree):
        assert np.isfinite(delta_predictions(model, design)).all()


def test_a_local_triplot_builds_no_checked_partition(six_table, monkeypatch):
    # the levels are the cuts of the tree, checked once when it was built and
    # named in one walk of it: no level is cut again or checked again
    calls = []
    check, cut = AspectPartition.__post_init__, cluster.partition_after_merges

    def spy_check(self):
        calls.append("AspectPartition.__post_init__")
        check(self)

    def spy_cut(*args):
        calls.append("partition_after_merges")
        return cut(*args)

    monkeypatch.setattr(AspectPartition, "__post_init__", spy_check)
    monkeypatch.setattr(cluster, "partition_after_merges", spy_cut)
    table, y = six_table
    cfg = TriplotConfig(mode="local", N=300, seed=1)
    result = predict_triplot(fit_linear(table, y), table, table.row(3), cfg)
    assert calls == []
    # the spies see the calls they watch for
    cluster.cut_tree(result.tree, 0.5, table.column_names)
    singletons(table.column_names)
    assert calls == ["partition_after_merges", "AspectPartition.__post_init__"]


def test_a_level_that_never_flags_an_aspect_names_it_as_its_cut_does():
    # column a_b and the group of columns a and b share a name, so at level 1
    # the column is a_b_2; six draws flag every column at level 0 but never
    # a_b_2 at level 1, the first level whose fit fails
    rng = np.random.default_rng(3)
    X = rng.standard_normal((80, 6))
    X[:, 1] = X[:, 0] + 0.1 * X[:, 1]
    table = NumericTable(("a", "b", "a_b", "c", "d", "e"), X)
    model = LinearModel(0.5, [1.0, -2.0, 0.5, 3.0, 1.0, 1.0])
    cfg = TriplotConfig(mode="local", N=6, seed=200)
    with pytest.raises(SingularDesign) as raised:
        predict_triplot(model, table, table.row(0), cfg)
    _, parts = oracle_tree_partitions(table, cfg)
    flagged = [set(build_design(table, table.row(0), part, cfg.N, RngStream(cfg.seed)).flags.flat)
               for part in parts[:2]]
    assert flagged[0] == set(range(6))
    never = [name for j, name in enumerate(parts[1].names) if j not in flagged[1]]
    assert never == ["a_b_2"]
    assert "(aspects never sampled: a_b_2)" in str(raised.value)


# ---------------------------------------------------- stacked A' scoring


def _stacked_triplot(model, table, x_star, cfg, budget, monkeypatch):
    monkeypatch.setattr(aspects, "_STACK_VALUES", budget)
    return predict_triplot(model, table, x_star, cfg)


@pytest.mark.parametrize("budget", [1, 6 * 40, 6 * 150, 6 * 400, 6 * 1500])
def test_stacked_calls_hold_the_budget_in_slot_order(six_table, budget, monkeypatch):
    # the A' calls come first and hold the plan's slots in order, as many
    # rows to a call as the budget allows and at least one; then one f(A)
    # call per level
    table, y = six_table
    cfg = TriplotConfig(mode="local", N=300, seed=6)
    x_star = table.row(5)
    model = RecordingModel(fit_knn(table, y, 5))
    ours = _stacked_triplot(model, table, x_star, cfg, budget, monkeypatch)
    parts, designs, write = _plan(table, x_star, cfg)
    stacked, f_of_A = model.tables[:-table.p], model.tables[-table.p:]
    assert all(v.tobytes() == designs[0].distinct.values.tobytes() for v in f_of_A)
    # every A' call fits the budget
    assert all(v.shape[0] <= max(1, budget // table.p) for v in stacked)
    # the calls concatenate to the K slot rows in order
    rows = modified_rows(designs, write)
    assert np.concatenate(stacked).tobytes() == rows.tobytes()
    # each slot's row is its first draw's row of the dense oracle's A'
    oracle = np.concatenate([oracle_build_design(table, x_star, part, cfg.N, RngStream(cfg.seed))
                             .modified.values for part in parts])
    assert rows.tobytes() == oracle[slot_first_draws(designs)].tobytes()
    assert (model.calls, model.rows) == planned_calls_and_rows(
        table, x_star, parts, cfg.N, cfg.seed, stack_values=budget)
    assert ours.to_json() == oracle_predict_triplot(fit_knn(table, y, 5), table, x_star,
                                                    cfg).to_json()


def _assert_levels_equal_predict_aspects(model, table, x_star, res, cfg):
    levels = [res.leaf_importance] + [[v] for v in res.node_importance]
    for t, gammas in enumerate(levels):
        part = partition_after_merges(res.tree, t, table.column_names)
        expl = predict_aspects(model, table, x_star, part, N=cfg.N, seed=cfg.seed, limit=cfg.limit)
        by_members = {tuple(table.column_index(n) for n in a.members): a.contribution
                      for a in expl.aspects}
        if t == 0:
            assert np.array_equal(gammas, [by_members[(j,)] for j in range(table.p)])
        else:
            assert gammas[0] == by_members[res.tree.merges[t - 1].members]


@pytest.mark.parametrize("limit", [None, 2])
@pytest.mark.parametrize("fit", [fit_linear, lambda t, y: fit_knn(t, y, 5)], ids=["linear", "knn"])
def test_stacked_levels_equal_predict_aspects_bit_for_bit(six_table, fit, limit, monkeypatch):
    # a budget of 800 rows splits the plan's slots over several calls, whose
    # bounds fall where the slot order puts them, not where a level's rows end
    table, y = six_table
    model = fit(table, y)
    cfg = TriplotConfig(mode="local", N=600, seed=3, limit=limit)
    res = _stacked_triplot(model, table, table.row(1), cfg, 6 * 800, monkeypatch)
    _assert_levels_equal_predict_aspects(model, table, table.row(1), res, cfg)


@pytest.mark.parametrize("limit", [None, 3])
def test_stacked_levels_equal_predict_aspects_at_the_full_budget(limit):
    # 24 columns in four correlated blocks and N = 1500 fill stacked calls
    # of up to _STACK_VALUES values, products that a BLAS running on more
    # than one thread may split; each level still equals predict_aspects
    rng = np.random.default_rng(8)
    X = np.repeat(rng.standard_normal((800, 4)), 6, axis=1) + 0.5 * rng.standard_normal((800, 24))
    table = NumericTable(tuple(f"x{j}" for j in range(24)), X)
    model = RecordingModel(fit_linear(table, X @ rng.standard_normal(24)))
    cfg = TriplotConfig(mode="local", N=1500, seed=3, limit=limit)
    res = predict_triplot(model, table, table.row(7), cfg)
    largest = max(v.size for v in model.tables)
    assert aspects._STACK_VALUES // 2 < largest <= aspects._STACK_VALUES
    _assert_levels_equal_predict_aspects(model.model, table, table.row(7), res, cfg)


def test_a_level_over_the_budget_is_split_across_calls(six_table, monkeypatch):
    # at 10 rows a call the A' rows of predict_aspects, one level, take
    # several calls, and so do those of every triplot level; the results
    # equal predict_aspects at the full budget bit for bit
    table, y = six_table
    part = singletons(table.column_names)
    for model in (fit_linear(table, y), fit_knn(table, y, 5)):
        full = predict_aspects(model, table, table.row(2), part, N=300, seed=4).to_json()
        cfg = TriplotConfig(mode="local", N=300, seed=4, limit=2)
        with monkeypatch.context() as patched:
            recorded = RecordingModel(model)
            split = _stacked_triplot(recorded, table, table.row(2), cfg, 6 * 10, patched)
            ours = predict_aspects(recorded, table, table.row(2), part, N=300, seed=4).to_json()
        assert ours == full
        _assert_levels_equal_predict_aspects(model, table, table.row(2), split, cfg)
        designs, write = aspects._designs(table, table.row(2), 300, RngStream(4), part)
        rows = modified_rows(designs, write)
        calls = -(-rows.shape[0] // 10)
        assert calls > 1
        # predict_aspects' A' calls, before its f(A) call
        tables = recorded.tables[-1 - calls:-1]
        assert all(v.shape[0] <= 10 for v in tables)
        assert np.concatenate(tables).tobytes() == rows.tobytes()


def test_non_finite_first_stacked_call_fails_before_any_level_is_fitted(six_table, monkeypatch):
    table, y = six_table

    class NanFirst(CountingModel):
        def predict(self, table):
            out = super().predict(table)
            return np.full(table.n, np.nan) if self.calls == 1 else out

    def fitted(*args):
        raise AssertionError("a level was fitted")

    monkeypatch.setattr(aspects, "_normal_equations", fitted)
    model = NanFirst(fit_linear(table, y))
    cfg = TriplotConfig(mode="local", N=300, seed=2)
    with pytest.raises(AspectraError, match="^model 'model' returned non-finite predictions$"):
        _stacked_triplot(model, table, table.row(0), cfg, 6 * 600, monkeypatch)
    assert model.calls == 1
    # the first call held the A' rows of more than one level
    designs = _plan(table, table.row(0), cfg)[1]
    levels = slot_first_draws(designs)[:model.rows] // cfg.N
    assert np.unique(levels).size > 1


@pytest.mark.parametrize("budget", [1, 2400, 6000, 1 << 19])
@pytest.mark.parametrize("B", [1, 2])
def test_global_model_calls(six_table, B, budget, monkeypatch):
    # the unpermuted table once, then p leaves and p - 2 merges, B
    # repetitions each, stacked k tables per call; the root, the baseline's
    # full set, is the unpermuted predictions reordered and costs no row
    monkeypatch.setattr(global_importance, "_BATCH_VALUES", budget)
    table, y = six_table
    model = CountingModel(fit_linear(table, y))
    model_triplot(model, table, y, global_cfg(B=B, seed=2))
    jobs = 1 + B * (2 * table.p - 2)
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


def test_a_tree_of_numpy_node_ids_serialises_as_the_int_tree(six_table):
    # numpy node ids and members once made to_json raise a bare TypeError
    table, y = six_table
    res = model_triplot(fit_linear(table, y), table, y, global_cfg(seed=5))
    merges = tuple(MergeRecord(np.int64(m.left), np.int64(m.right), np.float64(m.height),
                               tuple(np.int64(i) for i in m.members)) for m in res.tree.merges)
    tree = cluster.MergeTree(np.int64(table.p), merges)
    assert dataclasses.replace(res, tree=tree).to_json() == res.to_json()


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


# ------------------------------------------------- one clustering per table


def _counted(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records each call's arguments."""
    calls, original = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _explanations(model, y) -> list:
    """Functions from a table to one explanation's text, over both methods
    and two linkages; a change of method moves every height, so a tree
    taken under the wrong method shows in the text."""
    runs = []
    for method, linkage in itertools.product(("spearman", "pearson"), ("complete", "average")):
        local = TriplotConfig(mode="local", N=300, seed=4, cor_method=method, linkage=linkage)
        glob = global_cfg(cor_method=method, linkage=linkage)
        runs += [lambda t, cfg=local, row=row: predict_triplot(model, t, t.row(row), cfg).to_json()
                 for row in (0, 1)]
        runs.append(lambda t, cfg=glob: model_triplot(model, t, y, cfg).to_json())
    for method in ("spearman", "pearson"):
        runs.append(lambda t, m=method: predict_aspects(model, t, t.row(2), 0.6, N=300,
                                                        method=m).to_json())
        runs.append(lambda t, m=method: repr(group_variables(t, 0.3, m)))
    return runs


def test_one_table_ranks_correlates_and_clusters_once(monkeypatch):
    table, y = make_six_variable(n=120)
    model = fit_linear(table, y)
    ranks = _counted(monkeypatch, cluster, "_average_ranks")
    trees = _counted(monkeypatch, cluster, "agglomerative")
    local = TriplotConfig(mode="local", N=300, seed=4)
    for row in (0, 1):
        predict_triplot(model, table, table.row(row), local)
    model_triplot(model, table, y, global_cfg())
    predict_aspects(model, table, table.row(2), 0.6, N=300)
    group_variables(table, 0.3)
    spearman = correlation_matrix(table)
    assert len(ranks) == 1 and [args[1] for args in trees] == ["complete"]
    assert correlation_matrix(table, "spearman") is spearman
    # Pearson and average linkage each get their own entry, built once
    for _ in range(2):
        predict_triplot(model, table, table.row(0),
                        TriplotConfig(mode="local", N=300, seed=4, cor_method="pearson"))
        model_triplot(model, table, y, global_cfg(linkage="average"))
        group_variables(table, 0.3, "pearson")
    assert len(ranks) == 1 and [args[1] for args in trees] == ["complete", "complete", "average"]
    pearson = correlation_matrix(table, "pearson")
    assert pearson is correlation_matrix(table, "pearson") and not np.array_equal(pearson, spearman)
    # a table of its rows and a table of its values each start with an empty memo
    for other in (table.take_rows(range(table.n)), NumericTable(table.column_names, table.values)):
        assert correlation_matrix(other) is not spearman
    assert len(ranks) == 3


def test_every_explanation_equals_that_of_a_fresh_table():
    table, y = make_six_variable(n=120)
    runs = _explanations(fit_linear(table, y), y)
    shared = [run(table) for run in runs]
    assert [run(table) for run in runs] == shared  # each entry now taken from the memo
    assert [run(NumericTable(table.column_names, table.values)) for run in runs] == shared


def test_a_write_to_the_source_array_reaches_neither_the_table_nor_its_memo():
    table, y = make_six_variable(n=120)
    runs = _explanations(fit_linear(table, y), y)
    expected = [run(table) for run in runs]
    source = table.values.copy()
    view = NumericTable(table.column_names, source[:, :])  # a view keeps its base writable
    whole = NumericTable(table.column_names, source)
    assert source.flags.writeable
    C = correlation_matrix(view).copy()
    assert [run(view) for run in runs] == expected
    source[:, 0] = source[::-1, 1]
    source[0, 0] = 42.0
    assert view == table and whole == table
    assert np.array_equal(correlation_matrix(view), C)
    assert [run(view) for run in runs] == [run(whole) for run in runs] == expected


def test_the_correlation_matrix_refuses_writes():
    table, _ = make_six_variable(n=120)
    for method in ("spearman", "pearson"):
        C = correlation_matrix(table, method)
        with pytest.raises(ValueError, match="read-only"):
            C[0, 1] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            np.fill_diagonal(C, 0.0)
