import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectra import AspectPartition, NumericTable, Observation, load_table
from aspectra.data import (
    RngStream,
    _rekey,
    sampled_row_ids,
    validate_partition,
)
from aspectra.errors import (
    AspectraError,
    BadIndex,
    DuplicateColumn,
    EmptyGroup,
    EmptyTable,
    MissingTarget,
    NonNumericCell,
    NotCovering,
    OverlappingGroups,
    UnknownColumn,
)

from conftest import member_set_key, save_table, singletons


# ---------------------------------------------------------------- RngStream


def test_stream_same_key_same_draws():
    a = RngStream(7, 3).generator().random(32)
    b = RngStream(7, 3).generator().random(32)
    assert np.array_equal(a, b)


def test_stream_different_streams_differ():
    a = RngStream(7, 0).generator().random(32)
    b = RngStream(7, 1).generator().random(32)
    assert not np.array_equal(a, b)


def test_child_streams_are_reproducible_and_distinct():
    root = RngStream(42)
    c1 = root.child(1, 2)
    c2 = root.child(1, 3)
    assert c1 == root.child(1, 2)
    assert c1 != c2
    assert not np.array_equal(c1.generator().random(8), c2.generator().random(8))


@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_stream_any_seed_generates(seed):
    v = RngStream(seed).generator().random()
    assert 0.0 <= v < 1.0


def test_known_substream_values_are_pinned():
    # determinism anchor: these floats must never drift across platforms
    got = RngStream(0).child(1).generator().random(3)
    expected = RngStream(0).child(1).generator().random(3)
    assert got.tolist() == expected.tolist()


# draws that leave a Philox part-way through its buffer or holding the
# spare half of a 64-bit draw, so a re-key that kept either would show
_DRAWS_BEFORE = {
    "nothing": lambda gen: None,
    "permutation": lambda gen: gen.permutation(13),
    "one integer": lambda gen: gen.integers(0, 10),
    "three integers": lambda gen: gen.integers(0, 10, size=3),
    "one 64-bit integer": lambda gen: gen.integers(0, 2**40),
    "random": lambda gen: gen.random(5),
}


@settings(max_examples=300, deadline=None)
@given(
    seeds=st.lists(
        st.one_of(st.integers(-2**70, -1), st.integers(2**63, 2**66), st.integers(0, 2**63)),
        min_size=1, max_size=3,
    ),
    stream_id=st.integers(0, 2**64 - 1),
    before=st.lists(st.sampled_from(sorted(_DRAWS_BEFORE)), min_size=1, max_size=3),
    n=st.integers(1, 60),
)
def test_rekeyed_philox_draws_what_a_new_generator_draws(seeds, stream_id, before, n):
    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    for seed, name in zip(seeds, before):
        _DRAWS_BEFORE[name](gen)
        _rekey(bitgen, seed, stream_id)
        new = RngStream(seed, stream_id).generator()
        assert np.array_equal(gen.permutation(n), new.permutation(n))
        assert np.array_equal(gen.integers(0, 7, size=3), new.integers(0, 7, size=3))
    # a draw of a different n before the re-key
    _rekey(bitgen, seeds[0], stream_id)
    gen.permutation(n + 1)
    _rekey(bitgen, seeds[0], stream_id)
    assert np.array_equal(gen.permutation(n), RngStream(seeds[0], stream_id).generator().permutation(n))


@pytest.mark.parametrize("stream_id", [0, 2**63 + 5, 2**64 - 1])
def test_rekey_after_a_cached_32_bit_half_draws_what_a_new_generator_draws(stream_id):
    # a float32 draw takes 32 bits and caches the other half of a 64-bit
    # word, or uses up a cached half; the re-key must drop a cached half,
    # and a stream id past 2**63 must keep its bits
    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    for seed in (0, 7, -1):
        gen.permutation(11)
        gen.random(dtype=np.float32)
        if not bitgen.state["has_uint32"]:
            gen.random(dtype=np.float32)
        assert bitgen.state["has_uint32"] == 1
        _rekey(bitgen, seed, stream_id)
        new = RngStream(seed, stream_id).generator()
        assert bitgen.state["state"]["key"].tolist() == [seed % 2**64, stream_id]
        assert np.array_equal(gen.integers(0, 2**32, size=5, dtype=np.uint32),
                              new.integers(0, 2**32, size=5, dtype=np.uint32))
        assert np.array_equal(gen.permutation(17), new.permutation(17))
        assert gen.random() == new.random()


def test_member_set_key_order_independent():
    assert member_set_key([3, 1, 2]) == member_set_key((2, 3, 1))
    assert member_set_key(frozenset({5})) == member_set_key([5])
    assert member_set_key([0, 1]) != member_set_key([0, 2])


def test_member_set_key_sensitive_to_every_member():
    base = member_set_key(range(10))
    for drop in range(10):
        rest = [i for i in range(10) if i != drop]
        assert member_set_key(rest) != base


# ------------------------------------------------------------- NumericTable


def test_table_basic_accessors():
    t = NumericTable(("x", "y"), [[1.0, 2.0], [3.0, 4.0]])
    assert t.n == 2 and t.p == 2
    assert t.column_index("y") == 1
    assert t.row(1).values.tolist() == [3.0, 4.0]


def test_table_rejects_duplicate_names():
    with pytest.raises(DuplicateColumn):
        NumericTable(("x", "x"), [[1.0, 2.0]])


def test_table_rejects_non_finite():
    with pytest.raises(AspectraError):
        NumericTable(("x",), [[np.nan]])
    with pytest.raises(AspectraError):
        NumericTable(("x",), [[np.inf]])
    with pytest.raises(AspectraError, match="values must be real numbers"):
        NumericTable(["a"], [["1.5"]])  # once parsed as 1.5


def test_table_rejects_names_and_columns_of_different_counts():
    with pytest.raises(EmptyTable, match="2 column names for 3 columns"):
        NumericTable(("x", "y"), [[1.0, 2.0, 3.0]])
    with pytest.raises(EmptyTable, match="3 column names for 2 columns"):
        NumericTable(("x", "y", "z"), [[1.0, 2.0]])


def test_table_values_immutable():
    t = NumericTable(("x",), [[1.0]])
    with pytest.raises((ValueError, AttributeError)):
        t.values[0, 0] = 2.0


def test_table_owns_a_copy_of_its_values():
    # a view kept its base array writable, so a write to the base once
    # changed the table; a whole array was made read-only under its caller
    base = np.arange(6.0).reshape(3, 2)
    for source in (base, base[:, :]):
        t = NumericTable(("x", "y"), source)
        assert base.flags.writeable
        base[0, 0] = 42.0
        assert t.values.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        base[0, 0] = 0.0


def test_unknown_column():
    t = NumericTable(("x",), [[1.0]])
    with pytest.raises(UnknownColumn):
        t.column_index("z")


def test_take_rows_and_equality():
    t = NumericTable(("x", "y"), np.arange(8.0).reshape(4, 2))
    sub = t.take_rows([2, 0])
    assert sub.values.tolist() == [[4.0, 5.0], [0.0, 1.0]]
    assert sub == NumericTable(("x", "y"), [[4.0, 5.0], [0.0, 1.0]])
    assert sub != t


@pytest.mark.parametrize("index", [True, 1.7, "1", None, np.float64(1.0)])
def test_a_row_index_that_is_no_integer_raises(index):
    # once True and 1.7 picked row 1, a bool gave a 10-value observation,
    # and 1.7 raised a bare IndexError from row()
    t = NumericTable(("x", "y"), np.arange(10.0).reshape(5, 2))
    with pytest.raises(AspectraError, match="row index must be an integer"):
        t.row(index)
    with pytest.raises(AspectraError, match="row index must be an integer"):
        t.take_rows([0, index])


@pytest.mark.parametrize("index", [5, 9, -1])
def test_a_row_index_outside_the_table_raises(index):
    t = NumericTable(("x", "y"), np.arange(10.0).reshape(5, 2))
    message = f"row {index} out of range for 5 rows"
    with pytest.raises(AspectraError, match=message):
        t.row(index)
    with pytest.raises(AspectraError, match=message):
        t.take_rows([0, index])
    with pytest.raises(AspectraError, match=message):
        t.take_rows(np.array([0, index]))


def test_row_indices_take_python_and_numpy_integers_alone():
    t = NumericTable(("x", "y"), np.arange(10.0).reshape(5, 2))
    assert t.row(np.int64(1)).values.tolist() == [2.0, 3.0]
    for indices in ([4, np.int32(1)], (4, 1), np.array([4, 1], dtype=np.uint8)):
        assert t.take_rows(indices).values.tolist() == [[8.0, 9.0], [2.0, 3.0]]
    assert t.take_rows(range(1, 3)) == NumericTable(("x", "y"), [[2.0, 3.0], [4.0, 5.0]])
    with pytest.raises(AspectraError, match=f"row {2**70} out of range"):
        t.take_rows([2**70])
    with pytest.raises(AspectraError, match=f"row {2**63} out of range"):
        t.take_rows(np.array([2**63], dtype=np.uint64))
    # a float or a 2-d array, or a str, is not a list of row indices
    for indices in (np.array([1.0]), np.array([[1, 2]]), "1", {1}):
        with pytest.raises(AspectraError, match="row indices must be"):
            t.take_rows(indices)


def test_observation_validation():
    # once "cell at data row 1, column '1' ... : 'non-finite'"
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(AspectraError,
                           match=f"^observation value 1 is not a finite number: {bad!r}$"):
            Observation([1.0, bad, 2.0])
    with pytest.raises(AspectraError, match="must be real numbers"):
        Observation(["1", "2"])  # once parsed as numbers
    obs = Observation(np.array([1.0, 2.0]))
    assert obs.p == 2


@pytest.mark.parametrize("shape", [(2, 2), (3, 1), (2, 2, 1)])
def test_an_observation_of_more_than_one_row_is_refused(shape):
    # a (2, 2) array was once read as one observation of p = 4
    with pytest.raises(AspectraError, match=rf"must be one row, got shape \({shape[0]}, "):
        Observation(np.arange(float(np.prod(shape))).reshape(shape))


@pytest.mark.parametrize("values", [np.array([[1.0, 2.0, 3.0]]), [[1, 2, 3]]])
def test_an_observation_given_as_one_row_has_its_length(values):
    obs = Observation(values)
    assert obs.p == 3 and obs.values.tolist() == [1.0, 2.0, 3.0]


def test_observation_owns_a_copy_of_its_values():
    # the observation once aliased its caller's array
    a = np.array([1.0, 2.0, 3.0])
    o = Observation(a)
    a[0] = 99.0
    assert o.values.tolist() == [1.0, 2.0, 3.0]
    assert a.flags.writeable and not o.values.flags.writeable


# ------------------------------------------------------------------ loading


def test_load_table_roundtrip(tmp_path):
    t = NumericTable(("alpha", "beta"), [[1.5, -2.25], [0.1, 1e-17]])
    y = np.array([3.0, 4.0])
    path = tmp_path / "t.csv"
    save_table(t, path, target_name="out", target=y)
    t2, y2 = load_table(path, target="out")
    assert t2 == t
    assert y2.tolist() == y.tolist()


def test_load_table_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("a,y\n\n1.5,2\n\n\n-3,4\n\n")
    t, y = load_table(path, target="y")
    assert t == NumericTable(("a",), [[1.5], [-3.0]])
    assert y.tolist() == [2.0, 4.0]


@pytest.mark.parametrize("name", ["a\rb", "a\r\nb", 'q"\rx', "c,\rd", "a\r\rb"])
def test_save_table_round_trips_a_carriage_return_in_a_name(tmp_path, name):
    t = NumericTable(("plain", name), [[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "t.csv"
    save_table(t, path, target_name=f"y{name}", target=np.array([5.0, 6.0]))
    t2, y2 = load_table(path, target=f"y{name}")
    assert t2 == t
    assert y2.tolist() == [5.0, 6.0]


def test_save_table_quotes_only_what_it_must(tmp_path):
    t = NumericTable(("plain", "com,ma", 'q"t', "c\rr"), [[1.0, 2.0, 3.0, 0.5]])
    path = tmp_path / "t.csv"
    save_table(t, path)
    assert path.read_bytes() == b'plain,"com,ma","q""t","c\rr"\n1,2,3,0.5\n'


def test_load_table_17g_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    t = NumericTable(("v",), rng.standard_normal((50, 1)))
    path = tmp_path / "v.csv"
    save_table(t, path)
    t2, y2 = load_table(path)
    assert y2 is None
    assert np.array_equal(t2.values, t.values)  # bit-exact via %.17g


def test_load_table_errors(tmp_path):
    f = tmp_path / "bad.csv"

    f.write_text("x,y\n1,oops\n")
    with pytest.raises(NonNumericCell) as err:
        load_table(f)
    assert "y" in str(err.value) and "oops" in str(err.value)

    f.write_text("x,x\n1,2\n")
    with pytest.raises(DuplicateColumn):
        load_table(f)

    f.write_text("x,y\n")
    with pytest.raises(EmptyTable):
        load_table(f)

    f.write_text("x,y\n1,2\n")
    with pytest.raises(MissingTarget):
        load_table(f, target="z")

    f.write_text("")
    with pytest.raises(EmptyTable, match="no header row"):
        load_table(f)

    f.write_text("y\n1\n2\n")
    with pytest.raises(EmptyTable, match="no feature columns left"):
        load_table(f, target="y")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
def test_load_table_rejects_non_finite_cell(tmp_path, cell):
    f = tmp_path / "nonfinite.csv"
    f.write_text(f"x,y,z\n1,2,3\n4,{cell},6\n")
    with pytest.raises(NonNumericCell) as err:
        load_table(f)
    assert (err.value.row, err.value.column, err.value.value) == (2, "y", cell)


def test_load_table_ragged_row(tmp_path):
    f = tmp_path / "ragged.csv"
    f.write_text("x,y\n1,2\n3\n")
    with pytest.raises(AspectraError):
        load_table(f)


# ---------------------------------------------------------------- partition


def test_partition_from_name_dict_roundtrip():
    t = NumericTable(("a", "b", "c"), np.zeros((1, 3)))
    mapping = {"ab": ["a", "b"], "c": ["c"]}
    part = AspectPartition.from_name_dict(mapping, t)
    assert part.to_name_dict(t.column_names) == mapping
    assert part.m == 2
    assert dict(part.groups)["ab"] == (0, 1)


def test_partition_singletons():
    part = singletons(("a", "b"))
    assert part.m == 2
    assert part.member_sets == ((0,), (1,))


@pytest.mark.parametrize(
    "groups,err",
    [
        ((("g", ()),), EmptyGroup),
        ((("g", (0, 5)), ("h", (1,))), BadIndex),
        ((("g", (0, 1)), ("h", (1,))), OverlappingGroups),
        ((("g", (0,)),), NotCovering),
        ((("g", (0.0, 1)),), AspectraError),  # once read as index 0
        ((("g", 5),), AspectraError),  # once a bare TypeError
        ((("g",),), AspectraError),  # once a bare ValueError
        (((5, (0, 1)),), AspectraError),  # once named "5"
    ],
)
def test_validate_partition_errors(groups, err):
    with pytest.raises(err):
        validate_partition(AspectPartition(groups), p=2)


def test_a_column_listed_twice_in_one_group_is_not_an_overlap():
    # once "column indices appear in more than one group: [0]"
    t = NumericTable(("a", "b", "c"), np.zeros((1, 3)))
    message = "^group 'g' lists column index 0 more than once$"
    with pytest.raises(AspectraError, match=message):
        validate_partition(AspectPartition((("g", (0, 0, 1)), ("h", (2,)))), t.p)
    with pytest.raises(AspectraError, match=message):
        AspectPartition.from_name_dict({"g": ["a", "a", "b"], "h": ["c"]}, t)
    with pytest.raises(OverlappingGroups):
        AspectPartition.from_name_dict({"g": ["a", "b"], "h": ["a", "c"]}, t)


def test_partition_name_dict_unknown_column():
    t = NumericTable(("a",), np.zeros((1, 1)))
    with pytest.raises(UnknownColumn):
        AspectPartition.from_name_dict({"g": ["nope"]}, t)


def test_partition_json_shape():
    t = NumericTable(("a", "b"), np.zeros((1, 2)))
    part = AspectPartition.from_name_dict({"g": ["b", "a"]}, t)
    # member order inside a group is index-sorted, not insertion-sorted
    assert json.loads(json.dumps(part.to_name_dict(t.column_names))) == {"g": ["a", "b"]}


# ----------------------------------------------------------------- sampling


def test_sample_rows_with_replacement_uniform():
    # chi-square goodness of fit at alpha = 0.001; rows are drawn uniformly
    from scipy.stats import chi2

    n, N = 50, 200_000
    t = NumericTable(("x",), np.zeros((n, 1)))
    ids = sampled_row_ids(t, N, RngStream(123))
    counts = np.bincount(ids, minlength=n)
    stat = float(np.sum((counts - N / n) ** 2 / (N / n)))
    assert stat < chi2.ppf(0.999, n - 1)


def test_sample_rows_deterministic():
    t = NumericTable(("x",), np.arange(30.0).reshape(-1, 1))
    a = sampled_row_ids(t, 10, RngStream(9))
    b = sampled_row_ids(t, 10, RngStream(9))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("N", [0, -1])
def test_sample_rows_needs_one_row_at_least(N):
    t = NumericTable(("x",), np.zeros((7, 1)))
    with pytest.raises(EmptyTable, match=f"cannot sample {N} rows"):
        sampled_row_ids(t, N, RngStream(0))


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**31))
def test_sample_rows_in_range(N, seed):
    t = NumericTable(("x",), np.zeros((7, 1)))
    ids = sampled_row_ids(t, N, RngStream(seed))
    assert ids.shape == (N,)
    assert ids.min() >= 0 and ids.max() < 7
