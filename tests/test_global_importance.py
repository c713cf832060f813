import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectra import (
    AspectPartition,
    ConstantModel,
    NumericTable,
    PermutationConfig,
    fit_knn,
    fit_linear,
    group_importance,
)
from aspectra import global_importance
from aspectra.data import RngStream, _column_ids
from aspectra.errors import AspectraError, BadIndex, EmptyGroup, NonFiniteLoss, NonNumericCell
from aspectra.global_importance import ImportanceContext, _PermutationStreams, permute_group
from aspectra.models import KnnModel, LinearModel, ModelAdapter, loss, predict
from aspectra.triplot import TriplotConfig, model_triplot

from conftest import CountingModel, make_six_variable, permutation_stream, singletons


def small_table(seed=0, n=80, p=4):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    y = X @ np.arange(1.0, p + 1) + 0.05 * rng.standard_normal(n)
    return NumericTable(tuple(f"x{i}" for i in range(p)), X), y


# ------------------------------------------------------------ permute_group


def _permuted(table, group, rng):
    """The table with the group permuted, written into a copy of its values."""
    values = table.values.copy()
    permute_group(table, np.array(sorted(set(group)), dtype=np.intp), rng.generator(), values)
    return table.with_values(values)


def test_permute_group_shares_one_permutation():
    t = NumericTable(("a", "b", "c"), np.arange(30.0).reshape(10, 3))
    out = _permuted(t, [0, 2], RngStream(1))
    # columns 0 and 2 moved together: their within-row difference is preserved
    assert set(out.values[:, 0].tolist()) == set(t.values[:, 0].tolist())
    assert np.array_equal(out.values[:, 2] - out.values[:, 0], np.full(10, 2.0))
    assert np.array_equal(out.values[:, 1], t.values[:, 1])  # untouched column


def test_permute_group_deterministic():
    t = NumericTable(("a",), np.arange(50.0).reshape(-1, 1))
    a = _permuted(t, [0], RngStream(7))
    b = _permuted(t, [0], RngStream(7))
    assert a == b


def test_checked_members_errors():
    # the one column-index range rule, which a member set passes once, where
    # it enters; an empty set is the unpermuted table, not an error
    with pytest.raises(BadIndex):
        _column_ids([1], 1)
    with pytest.raises(BadIndex):
        _column_ids([0, -1], 3)
    assert _column_ids(frozenset({2, 0}), 3) == (0, 2)
    assert _column_ids([2, 0, 2], 3) == (0, 2)
    assert _column_ids([], 1) == ()


def _oracle_checked_members(group, p):
    """The per-member loop that the member-set check replaced."""
    members = sorted(int(i) for i in group)
    if not members:
        raise EmptyGroup("<anonymous>")
    for i in members:
        if i < 0 or i >= p:
            raise BadIndex(i, p)
    return np.array(members, dtype=np.intp)


@settings(max_examples=300, deadline=None)
@given(p=st.integers(1, 40),
       group=st.lists(st.one_of(st.integers(-3, 45), st.integers(-2**70, 2**70)), max_size=12),
       as_set=st.booleans())
def test_checked_members_raises_what_the_loop_raised(p, group, as_set):
    # the public query raises a BadIndex naming the same first bad index,
    # before any model call, or keys the set by the loop's sorted members;
    # an empty set is the unpermuted table
    group = tuple(set(group)) if as_set else group
    table = NumericTable(tuple(f"c{j}" for j in range(p)), np.arange(3.0 * p).reshape(3, p))
    model = CountingModel(ConstantModel(0.0))
    ctx = ImportanceContext(model, table, np.zeros(3), PermutationConfig("rmse"))
    try:
        want = _oracle_checked_members(group, p)
    except EmptyGroup:
        assert ctx.mean_permuted_losses([group]) == [0.0]
        return
    except BadIndex as e:
        with pytest.raises(BadIndex) as got:
            ctx.mean_permuted_losses([group])
        assert str(got.value) == str(e) and model.calls == 0
        return
    ctx.mean_permuted_losses([group])
    assert tuple(dict.fromkeys(want.tolist())) in ctx._cache  # its distinct members


def test_one_column_group_writes_what_the_fancy_index_writes():
    # a one-column group moves through a basic index; the scorer's slot is a
    # row block of its tiled buffer
    table, _ = small_table(n=30, p=5)
    for j in range(table.p):
        members = np.array([j], dtype=np.intp)
        got = np.tile(table.values, (3, 1))
        permute_group(table, members, RngStream(4, j).generator(), got[30:60])
        want = np.tile(table.values, (3, 1))
        perm = RngStream(4, j).generator().permutation(table.n)
        want[30:60, members] = table.values[:, members][perm]
        assert got.tobytes() == want.tobytes()
        assert not np.array_equal(got[30:60, j], table.values[:, j])


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
    got = table.values.copy()
    members = np.array(sorted(set(group)), dtype=np.intp)
    assert permute_group(table, members, rng.generator(), got) is None
    want = _oracle_permute_group(table, group, rng)
    assert np.array_equal(got, want.values)
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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_derived_stream_ids_equal_permutation_stream(data):
    p = data.draw(st.integers(1, 300))
    B = data.draw(st.integers(1, 4))
    seed = data.draw(st.one_of(st.integers(-2**70, 2**70), st.integers(0, 1000)))
    streams = _PermutationStreams(seed, p)
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            raw = list(range(p))[::-1]  # every column, unsorted
        else:
            # unsorted, with repeats; the scorer keys a set by its sorted distinct indices
            raw = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=40))
        set_id = streams.set_id(np.array(sorted(set(raw)), dtype=np.intp))
        for b in range(B):
            want = permutation_stream(seed, frozenset(raw), b)
            gen = streams.generator(set_id, b)
            key = gen.bit_generator.state["state"]["key"].tolist()
            assert key == [seed % 2**64, want.stream_id]
            assert np.array_equal(gen.permutation(9), want.generator().permutation(9))


def test_stream_ids_need_no_work_per_repetition():
    # one list of B mixed repetitions once hung --B 100000000000 before any
    # model call; each job now mixes its own
    streams = _PermutationStreams(7, 5)
    members = np.array(sorted({3, 1}), dtype=np.intp)
    set_id = streams.set_id(members)
    for b in (0, 1, 2**40, 2**62, 2**64 - 1):
        key = streams.generator(set_id, b).bit_generator.state["state"]["key"].tolist()
        assert key == [7, permutation_stream(7, (1, 3), b).stream_id]


# ---------------------------------------------------------------- context


def test_full_set_importance_equals_baseline_exactly():
    table, y = small_table()
    model = fit_linear(table, y)
    ctx = ImportanceContext(model, table, y, PermutationConfig(loss="rmse", B=3, seed=5))
    full = ctx.mean_permuted_loss(range(table.p))
    # the baseline, asked of a new context in another order: bit-identical, not approx
    baseline = ImportanceContext(model, table, y, ctx.cfg).mean_permuted_loss(range(table.p)[::-1])
    assert full == baseline


def test_mean_of_finite_losses_that_overflows_is_an_error():
    # each repetition's mae is 1.5e308, finite, but two of them sum past the range
    table = NumericTable(("a", "b"), np.random.default_rng(0).standard_normal((20, 2)))
    cfg = PermutationConfig(loss="mae", B=2, seed=0)
    with pytest.raises(NonFiniteLoss, match="the mae loss overflows"):
        group_importance(ConstantModel(-5e307), table, np.full(20, 1e308),
                         singletons(table.column_names), cfg)


def test_empty_member_set_is_full_model_loss():
    table, y = small_table()
    model = fit_linear(table, y)
    ctx = ImportanceContext(model, table, y, PermutationConfig(loss="rmse", seed=1))
    assert ctx.mean_permuted_loss(()) == loss("rmse", y, predict(model, table))


def test_mean_over_reps_matches_manual_loop():
    table, y = small_table(seed=2)
    model = fit_linear(table, y)
    cfg = PermutationConfig(loss="mae", B=4, seed=9)
    ctx = ImportanceContext(model, table, y, cfg)
    members = (1, 3)
    per_rep = []
    for b in range(4):
        stream = permutation_stream(9, members, b)
        permuted = _permuted(table, members, stream)
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


class RowByRowModel(ModelAdapter):
    """Scores each row alone in plain Python, so no row can see another."""

    label = "row-by-row"

    def __init__(self, p):
        self.weights = [math.sin(j + 1.0) for j in range(p)]

    def expected_p(self):
        return len(self.weights)

    def predict(self, table):
        return np.array([
            math.tanh(sum(w * v for w, v in zip(self.weights, row))) + row[0] ** 2
            for row in table.values.tolist()
        ])


def _oracle_mean_permuted_loss(ctx, members):
    """ImportanceContext.mean_permuted_loss as it was before batching: one
    permute_group and one predict per repetition, uncached; the empty set is
    the unpermuted table, scored alone."""
    key = frozenset(int(i) for i in members)
    if not key:
        return loss(ctx.cfg.loss, ctx.y, predict(ctx.model, ctx.table))
    per_rep = np.empty(ctx.cfg.B)
    for b in range(ctx.cfg.B):
        stream = permutation_stream(ctx.cfg.seed, key, b)
        permuted = _permuted(ctx.table, key, stream)
        per_rep[b] = loss(ctx.cfg.loss, ctx.y, predict(ctx.model, permuted))
    return float(np.mean(per_rep))


@st.composite
def _scoring_cases(draw):
    n = draw(st.integers(1, 30))
    p = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        values = rng.integers(-3, 4, size=(n, p)) / 2.0  # tied values
    else:
        values = rng.standard_normal((n, p))
    table = NumericTable(tuple(f"c{j}" for j in range(p)), values)
    y = rng.standard_normal(n)
    cfg = PermutationConfig(
        loss=draw(st.sampled_from(["rmse", "mae"])),
        B=draw(st.integers(1, 3)),
        N=draw(st.one_of(st.none(), st.integers(1, n + 2))),
        seed=draw(st.integers(0, 1000)),
    )
    sets = draw(st.lists(st.lists(st.integers(0, p - 1), max_size=2 * p), min_size=1,
                         max_size=6))
    if draw(st.booleans()):
        sets.append([])
    if draw(st.booleans()):
        sets.append(list(range(p))[::-1])
    if draw(st.booleans()):
        sets.append(sets[0][::-1] + sets[0])  # the same set again, reordered
    # from a budget below one table (k = 1) to several tables per call
    budget = draw(st.integers(1, 4 * n * p))
    # the unpermuted table scored by an earlier pass of the same context
    warm = draw(st.booleans())
    kind = draw(st.sampled_from(["knn", "constant", "row-by-row", "linear"]))
    if kind == "knn":
        train = rng.integers(-2, 3, size=(8, p)) / 2.0
        model = KnnModel(draw(st.integers(1, 8)), train, rng.standard_normal(8))
    elif kind == "constant":
        model = ConstantModel(0.25)
    elif kind == "row-by-row":
        model = RowByRowModel(p)
    else:
        model = LinearModel(0.5, rng.standard_normal(p))
    return table, y, cfg, sets, budget, warm, kind, model


@settings(max_examples=200, deadline=None)
@given(_scoring_cases())
def test_batched_scoring_matches_per_set_oracle(case):
    table, y, cfg, sets, budget, warm, kind, model = case
    before = table.values.copy()
    saved = global_importance._BATCH_VALUES
    global_importance._BATCH_VALUES = budget
    try:
        together = ImportanceContext(CountingModel(model), table, y, cfg)
        if warm:
            together.mean_permuted_loss(())
        batched = together.mean_permuted_losses(sets)
        one_at_a_time = ImportanceContext(CountingModel(model), table, y, cfg)
        for members in sets:
            one_at_a_time.mean_permuted_loss(members)
    finally:
        global_importance._BATCH_VALUES = saved
    assert np.array_equal(table.values, before)
    for ctx in (together, one_at_a_time):
        assert not any(ctx.model.writeable)
    # in the order asked, the same floats that each set's own query returns
    assert batched == [together.mean_permuted_loss(members) for members in sets]
    for members in [(), *sets]:
        want = _oracle_mean_permuted_loss(together, members)
        for ctx in (together, one_at_a_time):
            got = ctx.mean_permuted_loss(members)
            if members == ():
                assert got == together.mean_permuted_loss(())
            if kind == "linear":
                # BLAS may round a row differently inside a stacked table
                assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
            else:
                assert got == want


@pytest.mark.parametrize("kind", ["rmse", "mae"])
def test_many_repetitions_match_per_set_oracle(kind, monkeypatch):
    # B above 8 takes numpy's unrolled sum, in the per-set means as in rows
    monkeypatch.setattr(global_importance, "_BATCH_VALUES", 3 * 30 * 4)
    table, y = small_table(seed=5, n=30, p=4)
    ctx = ImportanceContext(RowByRowModel(4), table, y, PermutationConfig(kind, B=11, seed=2))
    sets = [(0,), (1, 2), (3, 0, 2), range(4)]
    ctx.mean_permuted_losses(sets)
    for members in [(), *sets]:
        assert ctx.mean_permuted_loss(members) == _oracle_mean_permuted_loss(ctx, members)


@pytest.mark.parametrize("kind", ["rmse", "mae"])
def test_all_columns_after_the_unpermuted_table_makes_no_model_call(kind):
    # the full set is the unpermuted predictions reordered, so a later pass
    # that asks for it alone has no job: no model call, no buffer
    table, y = small_table(seed=3, n=30, p=4)
    model = CountingModel(RowByRowModel(4))
    ctx = ImportanceContext(model, table, y, PermutationConfig(kind, B=11, seed=2))
    ctx.mean_permuted_loss(())
    assert (model.calls, model.rows) == (1, 30)
    baseline = ctx.mean_permuted_loss([3, 1, 0, 2])
    assert (model.calls, model.rows) == (1, 30)
    assert baseline == _oracle_mean_permuted_loss(ctx, range(4))


def _calls_and_rows(n, p, B, sets, budget):
    # the unpermuted table is one job, scored in the first call
    k = max(1, budget // (n * p))
    return math.ceil((1 + B * sets) / k), n * (1 + B * sets)


@pytest.mark.parametrize("budget", [1, 240, 1000, 1 << 19])
def test_group_importance_model_calls(budget, monkeypatch):
    # 3 groups, scored once each per repetition; the baseline's full set is
    # the unpermuted predictions reordered and costs no model row
    monkeypatch.setattr(global_importance, "_BATCH_VALUES", budget)
    table, y = small_table(n=60, p=4)
    model = CountingModel(fit_linear(table, y))
    part = AspectPartition((("pair", (0, 1)), ("x2", (2,)), ("x3", (3,))))
    group_importance(model, table, y, part, PermutationConfig(loss="rmse", B=3, seed=1))
    assert (model.calls, model.rows) == _calls_and_rows(60, 4, 3, 3, budget)



def test_scorer_memory_holds_no_python_object_per_job(monkeypatch):
    # 4 sets at B = 2500 are 7501 jobs in calls of 100 slots and 2500 losses
    # of all columns from the unpermuted predictions: each call's jobs are
    # found from its rows, so past the buffer only a loss per job is kept,
    # not a (set, repetition) tuple per job, about 115 bytes, nor a
    # reordered copy of the predictions per repetition
    monkeypatch.setattr(global_importance, "_BATCH_VALUES", 5 * 3 * 100)
    rng = np.random.default_rng(0)
    table = NumericTable(("a", "b", "c"), rng.standard_normal((5, 3)))
    y = rng.standard_normal(5)
    B = 2500
    ctx = ImportanceContext(LinearModel(0.0, [1.0, 2.0, 3.0]), table, y,
                            PermutationConfig(loss="rmse", B=B))
    tracemalloc.start()
    try:
        ctx.mean_permuted_losses([(0,), (1,), (2,), (0, 1, 2)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * (1 + 4 * B)


def test_checked_member_sets_are_not_checked_again(monkeypatch):
    # a validated partition's sets and a built tree's reach the scorer as
    # they are; only a caller's own sets pass the member check
    table, y = small_table(n=30, p=4)
    model = fit_linear(table, y)
    part = AspectPartition((("pair", (0, 1)), ("x2", (2,)), ("x3", (3,))))
    cfg = PermutationConfig(loss="rmse", B=2, seed=1)
    checked = []

    def spy(members):
        checked.append(members)
        return list(members)

    monkeypatch.setattr(global_importance, "_members", spy)
    group_importance(model, table, y, part, cfg)
    model_triplot(model, table, y, TriplotConfig(mode="global", permutation=cfg))
    assert checked == []
    ImportanceContext(model, table, y, cfg).mean_permuted_losses([(0,), [3, 1]])
    assert checked == [(0,), [3, 1]]


def test_bad_member_index_raises_before_any_model_call(monkeypatch):
    # one table per call, so a set checked only when its turn came would
    # let the sets before it reach the model
    monkeypatch.setattr(global_importance, "_BATCH_VALUES", 1)
    table, y = small_table(n=20, p=3)
    model = CountingModel(fit_linear(table, y))
    ctx = ImportanceContext(model, table, y, PermutationConfig(loss="rmse", B=2))
    assert model.calls == 0  # the unpermuted table waits for the first batch
    with pytest.raises(BadIndex):
        ctx.mean_permuted_losses([(0,), (1, 2), (0, 3)])
    with pytest.raises(BadIndex):
        ctx.mean_permuted_loss((-1,))
    assert model.calls == 0
    with pytest.raises(BadIndex):
        group_importance(model, table, y, AspectPartition((("g", (0, 1, 2, 3)),)),
                         PermutationConfig(loss="rmse"))
    assert model.calls == 0


@pytest.mark.parametrize("bad, message", [
    (np.nan, r"target y\[5\]"),
    (np.inf, r"target y\[5\]"),
    ("x", "targets must be real numbers"),  # once fitted as 1.5, or a bare ValueError
], ids=["nan", "inf", "str"])
def test_non_finite_target_raises_before_any_model_call(bad, message):
    table, y = small_table(n=20, p=3)
    model = CountingModel(fit_linear(table, y))
    y = y.tolist()
    y[5] = bad
    cfg = PermutationConfig(loss="rmse", B=2)
    with pytest.raises(AspectraError, match=message):
        ImportanceContext(model, table, y, cfg)
    with pytest.raises(AspectraError, match=message):
        group_importance(model, table, y, singletons(table.column_names), cfg)
    with pytest.raises(AspectraError, match=message):
        model_triplot(model, table, y, TriplotConfig(mode="global", permutation=cfg))
    for fit in (fit_linear, lambda t, y: fit_knn(t, y, 3)):
        with pytest.raises(AspectraError, match=message):
            fit(table, y)
    assert model.calls == 0


def test_config_validation():
    with pytest.raises(AspectraError):
        PermutationConfig(loss="rmse", B=0)
    with pytest.raises(AspectraError):
        PermutationConfig(loss="rmse", N=0)
    with pytest.raises(AspectraError):
        PermutationConfig(loss="huber")


@pytest.mark.parametrize("field, value", [
    ("B", 2.5), ("B", 2.0), ("B", True), ("B", None), ("B", "2"),
    ("N", 10.5), ("N", 10.0), ("N", False), ("N", np.float64(10)),
    ("seed", 1.5), ("seed", True), ("seed", None), ("seed", "3"),
])
def test_config_rejects_a_field_that_is_not_an_integer(field, value):
    with pytest.raises(AspectraError, match=f"{field} must be an integer"):
        PermutationConfig(loss="rmse", **{field: value})


@pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint16])
def test_config_takes_numpy_integers_as_int(integer):
    cfg = PermutationConfig(loss="rmse", B=integer(2), N=integer(30), seed=integer(3))
    assert (cfg.B, cfg.N, cfg.seed) == (2, 30, 3)
    assert all(type(v) is int for v in (cfg.B, cfg.N, cfg.seed))
    table, y = small_table(n=40, p=3)
    res = group_importance(ConstantModel(0.0), table, y,
                           singletons(table.column_names), cfg)
    assert json.loads(res.to_json())["metadata"] == {"loss": "rmse", "B": 2, "N": 30, "seed": 3}


# ----------------------------------------------------------- group results


def test_constant_model_importances_zero():
    table, y = small_table()
    part = singletons(table.column_names)
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
    part = singletons(table.column_names)
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
    part = singletons(table.column_names)
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
