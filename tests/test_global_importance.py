import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectra import (
    AspectPartition,
    ConstantModel,
    NumericTable,
    PermutationConfig,
    fit_linear,
    group_importance,
)
from aspectra.data import RngStream
from aspectra.errors import AspectraError, BadIndex, EmptyGroup, NonNumericCell
from aspectra.global_importance import ImportanceContext, permutation_stream, permute_group
from aspectra.models import LinearModel, loss, predict

from conftest import make_six_variable


def small_table(seed=0, n=80, p=4):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    y = X @ np.arange(1.0, p + 1) + 0.05 * rng.standard_normal(n)
    return NumericTable(tuple(f"x{i}" for i in range(p)), X), y


# ------------------------------------------------------------ permute_group


def test_permute_group_shares_one_permutation():
    t = NumericTable(("a", "b", "c"), np.arange(30.0).reshape(10, 3))
    out = permute_group(t, [0, 2], RngStream(1))
    # columns 0 and 2 moved together: their within-row difference is preserved
    assert set(out.values[:, 0].tolist()) == set(t.values[:, 0].tolist())
    assert np.array_equal(out.values[:, 2] - out.values[:, 0], np.full(10, 2.0))
    assert np.array_equal(out.values[:, 1], t.values[:, 1])  # untouched column


def test_permute_group_deterministic():
    t = NumericTable(("a",), np.arange(50.0).reshape(-1, 1))
    a = permute_group(t, [0], RngStream(7))
    b = permute_group(t, [0], RngStream(7))
    assert a == b


def test_permute_group_errors():
    t = NumericTable(("a",), np.zeros((3, 1)))
    with pytest.raises(EmptyGroup):
        permute_group(t, [], RngStream(0))
    with pytest.raises(BadIndex):
        permute_group(t, [1], RngStream(0))


def _oracle_permute_group(table, group, rng):
    """permute_group as it was before it gathered the group's columns first."""
    members = sorted(int(i) for i in group)
    if not members:
        raise EmptyGroup("<anonymous>")
    for i in members:
        if i < 0 or i >= table.p:
            raise BadIndex(i, table.p)
    perm = rng.generator().permutation(table.n)
    values = table.values.copy()
    values[:, members] = values[np.ix_(perm, members)]
    return table.with_values(values)


@st.composite
def _tables_and_groups(draw):
    n = draw(st.integers(1, 30))
    p = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        group = list(range(p))[::-1]  # every column, unsorted
    else:
        group = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=2 * p))
    # few distinct values, so tied and repeated entries occur
    values = np.random.default_rng(seed).integers(-3, 4, size=(n, p)) / 2.0
    table = NumericTable(tuple(f"c{j}" for j in range(p)), values)
    return table, group, RngStream(seed, 11)


@settings(max_examples=200, deadline=None)
@given(_tables_and_groups())
def test_permute_group_matches_oracle(case):
    table, group, rng = case
    before = table.values.copy()
    got = permute_group(table, group, rng)
    want = _oracle_permute_group(table, group, rng)
    assert np.array_equal(got.values, want.values)
    assert got.column_names == want.column_names == table.column_names
    assert got.values.flags.writeable is False
    assert np.array_equal(table.values, before)  # the input is left as it was


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_with_values_still_rejects_non_finite(bad):
    table, _ = small_table(n=5, p=3)
    values = table.values.copy()
    values[3, 1] = bad
    with pytest.raises(NonNumericCell):
        table.with_values(values)


def test_permutation_stream_keyed_by_member_set():
    # same set, different order or container -> same stream; rep changes it
    assert permutation_stream(3, [2, 0], 0) == permutation_stream(3, (0, 2), 0)
    assert permutation_stream(3, [0], 0) != permutation_stream(3, [1], 0)
    assert permutation_stream(3, [0], 0) != permutation_stream(3, [0], 1)


# ---------------------------------------------------------------- context


def test_full_set_importance_equals_baseline_exactly():
    table, y = small_table()
    model = fit_linear(table, y)
    ctx = ImportanceContext(model, table, y, PermutationConfig(loss="rmse", B=3, seed=5))
    full = ctx.mean_permuted_loss(range(table.p))
    assert full == ctx.baseline_loss  # bit-identical, not approx


def test_empty_member_set_is_full_model_loss():
    table, y = small_table()
    model = fit_linear(table, y)
    ctx = ImportanceContext(model, table, y, PermutationConfig(loss="rmse", seed=1))
    assert ctx.mean_permuted_loss(()) == ctx.full_model_loss
    assert ctx.importance(()) == 0.0


def test_mean_over_reps_matches_manual_loop():
    table, y = small_table(seed=2)
    model = fit_linear(table, y)
    cfg = PermutationConfig(loss="mae", B=4, seed=9)
    ctx = ImportanceContext(model, table, y, cfg)
    members = (1, 3)
    per_rep = []
    for b in range(4):
        stream = permutation_stream(9, members, b)
        permuted = permute_group(table, members, stream)
        per_rep.append(loss("mae", y, predict(model, permuted)))
    assert ctx.mean_permuted_loss(members) == float(np.mean(per_rep))


def test_subsample_restricts_rows():
    table, y = small_table(n=200)
    model = fit_linear(table, y)
    cfg = PermutationConfig(loss="rmse", N=50, seed=3)
    ctx = ImportanceContext(model, table, y, cfg)
    assert ctx.table.n == 50
    # N >= n keeps everything
    big = ImportanceContext(model, table, y, PermutationConfig(loss="rmse", N=500, seed=3))
    assert big.table.n == 200


def test_context_caches_by_member_set():
    table, y = small_table()
    model = fit_linear(table, y)
    ctx = ImportanceContext(model, table, y, PermutationConfig(loss="rmse", seed=0))
    assert ctx.mean_permuted_loss([0, 1]) is ctx.mean_permuted_loss((1, 0))


def test_config_validation():
    with pytest.raises(AspectraError):
        PermutationConfig(loss="rmse", B=0)
    with pytest.raises(AspectraError):
        PermutationConfig(loss="rmse", N=0)
    with pytest.raises(AspectraError):
        PermutationConfig(loss="huber")


# ----------------------------------------------------------- group results


def test_constant_model_importances_zero():
    table, y = small_table()
    part = AspectPartition.singletons(table.column_names)
    res = group_importance(ConstantModel(1.0), table, y, part,
                           PermutationConfig(loss="rmse", B=2, seed=0))
    for row in res.groups:
        assert row.importance == 0.0


def test_informative_group_beats_noise_group():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((300, 2))
    y = 3.0 * X[:, 0] + 0.01 * rng.standard_normal(300)
    table = NumericTable(("signal", "noise"), X)
    model = LinearModel(0.0, [3.0, 0.0])
    part = AspectPartition.singletons(table.column_names)
    res = group_importance(model, table, y, part, PermutationConfig(loss="rmse", B=5, seed=1))
    by_name = {row.name: row.importance for row in res.groups}
    assert by_name["signal"] > 10 * abs(by_name["noise"])
    assert by_name["noise"] == 0.0  # model ignores it: permuting changes nothing


def test_grouped_vs_singleton_rows():
    table, y = small_table()
    model = fit_linear(table, y)
    part = AspectPartition((("pair", (0, 1)), ("x2", (2,)), ("x3", (3,))))
    res = group_importance(model, table, y, part, PermutationConfig(loss="rmse", seed=2))
    assert [row.name for row in res.groups] == ["pair", "x2", "x3"]
    assert res.groups[0].members == (0, 1)  # indices; serializers map to names
    assert res.full_model_loss < res.baseline_loss


def test_result_serialization_roundtrip():
    table, y = small_table()
    model = fit_linear(table, y)
    part = AspectPartition.singletons(table.column_names)
    res = group_importance(model, table, y, part, PermutationConfig(loss="rmse", seed=0))

    tsv = res.to_tsv()
    lines = [l for l in tsv.splitlines() if not l.startswith("#")]
    assert lines[0].split("\t") == ["group", "members", "importance", "mean_permuted_loss"]
    assert len(lines) == 1 + table.p
    # repr round-trip: parsing a value back gives the same float
    first = lines[1].split("\t")
    assert float(first[2]) == res.groups[0].importance

    doc = json.loads(res.to_json())
    assert doc["full_model_loss"] == res.full_model_loss
    assert doc["groups"][0]["name"] == res.groups[0].name


def test_six_variable_block_importance(six_table):
    table, y = six_table
    model = fit_linear(table, y)
    part = AspectPartition((("ab", (0, 1)), ("cd", (2, 3)), ("e", (4,)), ("f", (5,))))
    res = group_importance(model, table, y, part, PermutationConfig(loss="rmse", B=3, seed=0))
    by_name = {row.name: row.importance for row in res.groups}
    # y = 2a + c - 0.5e: the (a,b) block dominates, f is pure noise
    assert by_name["ab"] > by_name["cd"] > by_name["e"] > 0
    assert abs(by_name["f"]) < 0.05 * res.full_model_loss
