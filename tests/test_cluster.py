import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import fcluster, linkage as scipy_linkage
from scipy.spatial.distance import squareform
from scipy.stats import pearsonr, rankdata, spearmanr

from aspectra import (
    AspectPartition,
    ConstantModel,
    NumericTable,
    correlation_matrix,
    group_variables,
    predict_aspects,
)
from aspectra.aspects import _hierarchy
from aspectra.cluster import (
    VALID_LINKAGES,
    MergeRecord,
    MergeTree,
    _average_ranks,
    _group_name,
    agglomerative,
    cor_distance,
    cut_tree,
    partition_after_merges,
)
from aspectra.errors import AspectraError, ZeroVarianceColumn


def _oracle_agglomerative(D: np.ndarray, linkage: str = "complete") -> MergeTree:
    """The dict-of-pairs merge loop agglomerative used before, kept as the
    reference for merge order, tie rule and bit-equal heights."""
    if linkage not in VALID_LINKAGES:
        raise AspectraError(f"linkage must be one of {VALID_LINKAGES}, got {linkage!r}")
    D = np.asarray(D, dtype=np.float64)
    p = D.shape[0]
    if D.shape != (p, p) or not np.allclose(D, D.T) or np.any(np.diag(D) != 0) or np.any(D < 0):
        raise AspectraError("distance matrix must be symmetric, nonnegative, zero-diagonal")
    if p == 1:
        return MergeTree(1, ())

    members = {i: (i,) for i in range(p)}
    dist = {}
    for i in range(p):
        for j in range(i + 1, p):
            dist[(i, j)] = D[i, j]
    active = list(range(p))
    merges = []
    for step in range(p - 1):
        best_pair = None
        best_d = np.inf
        for ai in range(len(active)):
            for bi in range(ai + 1, len(active)):
                a, b = active[ai], active[bi]
                dv = dist[(a, b)]
                if dv < best_d or (dv == best_d and (a, b) < best_pair):
                    best_d = dv
                    best_pair = (a, b)
        a, b = best_pair
        new_id = p + step
        new_members = tuple(sorted(members[a] + members[b]))
        merges.append(MergeRecord(a, b, float(best_d), new_members))
        active.remove(a)
        active.remove(b)
        for k in active:
            da = dist.pop((min(a, k), max(a, k)))
            db = dist.pop((min(b, k), max(b, k)))
            if linkage == "complete":
                dn = max(da, db)
            elif linkage == "single":
                dn = min(da, db)
            else:
                na, nb = len(members[a]), len(members[b])
                dn = (na * da + nb * db) / (na + nb)
            dist[(k, new_id)] = dn
        del dist[(a, b)]
        members[new_id] = new_members
        del members[a], members[b]
        active.append(new_id)
    return MergeTree(p, tuple(merges))


def random_table(seed, n=60, p=5):
    rng = np.random.default_rng(seed)
    return NumericTable(tuple(f"v{i}" for i in range(p)), rng.standard_normal((n, p)))


# -------------------------------------------------------------- correlation


@pytest.mark.parametrize("seed", range(5))
def test_pearson_matches_scipy(seed):
    t = random_table(seed)
    C = correlation_matrix(t, "pearson")
    for i in range(t.p):
        for j in range(i + 1, t.p):
            ref = pearsonr(t.values[:, i], t.values[:, j]).statistic
            assert C[i, j] == pytest.approx(ref, abs=1e-12)
    assert np.array_equal(C, C.T)
    assert np.all(np.diag(C) == 1.0)


@pytest.mark.parametrize("seed", range(5))
def test_spearman_matches_scipy(seed):
    t = random_table(seed)
    C = correlation_matrix(t, "spearman")
    ref = spearmanr(t.values).statistic
    assert np.allclose(C, ref, atol=1e-12)


def test_spearman_handles_ties():
    x = np.array([1.0, 1.0, 2.0, 3.0, 3.0, 4.0])
    y = np.array([2.0, 1.0, 1.0, 4.0, 3.0, 5.0])
    t = NumericTable(("x", "y"), np.column_stack([x, y]))
    C = correlation_matrix(t, "spearman")
    assert C[0, 1] == pytest.approx(spearmanr(x, y).statistic, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=2, max_value=30), p=st.integers(min_value=1, max_value=6),
       cells=st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=180, max_size=180))
def test_spearman_ranks_all_columns_like_one_column_at_a_time(n, p, cells):
    # grid values tie heavily; Spearman must equal Pearson on the stack of
    # per-column average ranks, bit for bit
    X = np.array(cells[: n * p]).reshape(n, p)
    assume(all(np.ptp(X, axis=0) > 0.0))
    names = tuple(f"x{j}" for j in range(p))
    ranks = np.column_stack([rankdata(X[:, j], method="average") for j in range(p)])
    C = correlation_matrix(NumericTable(names, X), "spearman")
    ref = correlation_matrix(NumericTable(names, ranks), "pearson")
    assert np.array_equal(C, ref)


def _assert_ranks_equal_rankdata(X):
    ours = _average_ranks(X)
    ref = rankdata(X, method="average", axis=0)
    assert ours.dtype == ref.dtype == np.float64
    assert ours.shape == ref.shape
    assert ours.tobytes() == ref.tobytes()
    # the transposed C layout that correlation_matrix's sums were fixed on
    assert ours.flags.f_contiguous


@pytest.mark.parametrize("X", [
    np.array([[0.5, -2.0, 7.0]]),  # n = 1
    np.full((6, 2), 3.0),  # fully tied columns
    np.column_stack([[0.0, -0.0, 1.0, -0.0, 0.0, -1.0], [-0.0, 0.0, 0.0, 2.0, -0.0, -0.0]]),
    np.column_stack([np.arange(9.0), np.arange(9.0)[::-1], np.repeat([1.0, 2.0, 3.0], 3)]),
    np.random.default_rng(0).standard_normal((50, 3)),  # no ties
], ids=["n1", "all-tied", "signed-zeros", "sorted-reversed-blocks", "continuous"])
def test_average_ranks_equals_rankdata(X):
    _assert_ranks_equal_rankdata(X)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=2000), p=st.integers(min_value=1, max_value=4),
       levels=st.integers(min_value=1, max_value=40), seed=st.integers(0, 2**32 - 1))
def test_average_ranks_equals_rankdata_on_quantised_columns(n, p, levels, seed):
    rng = np.random.default_rng(seed)
    X = np.round(rng.standard_normal((n, p)) * levels / 8) / levels
    X[X == 0.0] = np.where(rng.random(int(np.sum(X == 0.0))) < 0.5, -0.0, 0.0)
    _assert_ranks_equal_rankdata(X)


def test_zero_variance_column_rejected():
    t = NumericTable(("x", "y"), np.column_stack([np.ones(10), np.arange(10.0)]))
    with pytest.raises(ZeroVarianceColumn):
        correlation_matrix(t)


@pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-310])
def test_pearson_of_tiny_columns_equals_that_of_their_exact_rescaling(scale):
    # the squares of values this small underflow: the correlation drifted in
    # the 5th digit, or a column that varies was taken for a constant one
    rng = np.random.default_rng(4)
    X = rng.standard_normal((20, 3))
    X[:, 1] += X[:, 0]
    X *= scale
    names = ("a", "b", "c")
    C = correlation_matrix(NumericTable(names, X), "pearson")
    ref = correlation_matrix(NumericTable(names, X * 2.0**600), "pearson")
    assert np.allclose(C, ref, rtol=0.0, atol=1e-12)
    constant = np.column_stack([X[:, :2], np.full(20, scale)])
    with pytest.raises(ZeroVarianceColumn):
        correlation_matrix(NumericTable(names, constant), "pearson")


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=2, max_value=30), p=st.integers(min_value=1, max_value=5),
       seed=st.integers(0, 2**32 - 1),
       ks=st.lists(st.integers(-1000, 1000), min_size=5, max_size=5))
def test_pearson_is_bit_identical_under_power_of_two_column_scaling(n, p, seed, ks):
    # squares and cross products of columns scaled this far overflow or
    # underflow unscaled; a correlation must not see the scale at all
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p)) + rng.uniform(-3.0, 3.0, p)
    scaled = np.ldexp(X, ks[:p])
    assume(np.all(np.abs(scaled) >= np.finfo(np.float64).tiny) and np.all(np.isfinite(scaled)))
    names = tuple(f"x{j}" for j in range(p))
    C = correlation_matrix(NumericTable(names, X), "pearson")
    ref = correlation_matrix(NumericTable(names, scaled), "pearson")
    assert C.tobytes() == ref.tobytes()


@pytest.mark.parametrize("method", ["pearson", "spearman"])
@pytest.mark.parametrize("value", [0.1, 0.7, 1 / 3])
def test_constant_column_raises_whatever_its_mean_rounds_to(method, value):
    # the mean of n copies of these values is not the value itself, so a
    # constant column must be told by its values, not by its centred ones
    x = np.array([1.0, 2.0, 4.0])
    t = NumericTable(("x", "c", "d"), np.column_stack([x, np.full(3, value), np.full(3, 2.5)]))
    with pytest.raises(ZeroVarianceColumn) as caught:
        correlation_matrix(t, method)
    assert caught.value.name == "c"


def test_bad_method():
    with pytest.raises(AspectraError):
        correlation_matrix(random_table(0), "kendall")


def test_cor_distance_range():
    C = correlation_matrix(random_table(1))
    D = cor_distance(C)
    assert np.all(D >= 0.0) and np.all(D <= 1.0)
    assert np.all(np.diag(D) == 0.0)
    # anti-correlation counts as closeness: d = 1 - |r|
    t = NumericTable(("x", "y"), np.column_stack([np.arange(9.0), -np.arange(9.0)]))
    assert cor_distance(correlation_matrix(t, "pearson"))[0, 1] == pytest.approx(0.0)


# ------------------------------------------------------------ agglomerative


@pytest.mark.parametrize("method", ["complete", "single", "average"])
@pytest.mark.parametrize("seed", range(8))
def test_agglomerative_matches_scipy(method, seed):
    t = random_table(seed, p=7)
    D = cor_distance(correlation_matrix(t, "pearson"))
    tree = agglomerative(D, method)
    Z = scipy_linkage(squareform(D, checks=False), method=method)

    assert np.allclose(tree.heights, Z[:, 2], atol=1e-12)
    # same partition at every merge count
    for count in range(t.p):
        ours = partition_after_merges(tree, count, t.column_names)
        ref = fcluster(Z, t.p - count, criterion="maxclust")
        ours_sets = {frozenset(ms) for ms in ours.member_sets}
        ref_sets = {
            frozenset(np.flatnonzero(ref == c).tolist()) for c in np.unique(ref)
        }
        assert ours_sets == ref_sets


def test_agglomerative_input_validation():
    with pytest.raises(AspectraError):
        agglomerative(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(AspectraError):
        agglomerative(np.array([[0.5]]))  # nonzero diagonal
    with pytest.raises(AspectraError):
        agglomerative(np.zeros((2, 2)), "median")
    for bad in (np.inf, np.nan):
        with pytest.raises(AspectraError):
            agglomerative(np.array([[0.0, bad], [bad, 0.0]]))


@st.composite
def tie_heavy_distances(draw):
    """Symmetric zero-diagonal matrices over a five-value grid, so equal
    distances, and with them the tie rule, decide most merges."""
    p = draw(st.integers(min_value=1, max_value=40))
    grid = draw(st.lists(st.integers(0, 4), min_size=p * (p - 1) // 2,
                         max_size=p * (p - 1) // 2))
    D = np.zeros((p, p))
    i, j = np.triu_indices(p, 1)
    D[i, j] = D[j, i] = 0.25 * np.array(grid, dtype=np.float64)
    return D


@pytest.mark.parametrize("method", VALID_LINKAGES)
@settings(max_examples=60, deadline=None)
@given(D=tie_heavy_distances())
def test_agglomerative_matches_dict_loop_oracle(method, D):
    _assert_same_tree(agglomerative(D, method), _oracle_agglomerative(D, method))


def _assert_same_tree(ours, ref):
    """Same merges, node ids and members, and heights equal bit for bit."""
    assert ours.p == ref.p
    assert len(ours.merges) == len(ref.merges)
    for got, want in zip(ours.merges, ref.merges):
        assert (got.left, got.right, got.members) == (want.left, want.right, want.members)
        assert np.float64(got.height).tobytes() == np.float64(want.height).tobytes()


def _grid_distances(p, levels, seed):
    """A symmetric zero-diagonal matrix over `levels` values of a 0.25 grid."""
    grid = np.random.default_rng(seed).integers(0, levels, size=p * (p - 1) // 2)
    D = np.zeros((p, p))
    i, j = np.triu_indices(p, 1)
    D[i, j] = D[j, i] = 0.25 * grid
    return D


@pytest.mark.parametrize("method", VALID_LINKAGES)
@pytest.mark.parametrize("p, levels, seed", [(120, 3, 0), (97, 2, 1), (64, 5, 2)])
def test_agglomerative_matches_oracle_on_wide_tie_heavy_matrices(method, p, levels, seed):
    # most merges are ties between clusters whose node ids are in another
    # order than their slots, so the tie rule picks the pair
    D = _grid_distances(p, levels, seed)
    _assert_same_tree(agglomerative(D, method), _oracle_agglomerative(D, method))


@pytest.mark.parametrize("method", VALID_LINKAGES)
def test_agglomerative_reads_the_upper_triangle_of_a_nearly_symmetric_matrix(method):
    # the lower triangle is one ulp above the upper, which np.allclose
    # accepts; every tie of the upper triangle is then broken the other way
    # below it, so a tree built from both triangles would differ
    upper = _grid_distances(40, 3, 3)
    D = upper.copy()
    below = np.tril_indices(40, -1)
    D[below] = np.nextafter(upper[below], np.inf)
    assert not np.array_equal(D, D.T) and np.allclose(D, D.T)
    ref = _oracle_agglomerative(D, method)
    assert ref != _oracle_agglomerative(D.T, method)
    _assert_same_tree(agglomerative(D, method), ref)


def _wide_table_distances(blocks, seed):
    """Spearman distances of a table like perfbench's global-wide: per block
    a quantised latent q and q**3, whose ranks and so distances tie exactly,
    and eight noisy copies of the latent."""
    rng = np.random.default_rng(seed)
    cols = []
    for _ in range(blocks):
        z = rng.standard_normal(400)
        q = np.round(2 * z) / 2
        cols += [q, q**3]
        for rho in (0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6, 0.55):
            cols.append(np.sqrt(rho) * z + np.sqrt(1 - rho) * rng.standard_normal(400))
    table = NumericTable(tuple(f"x{j:03d}" for j in range(len(cols))), np.column_stack(cols))
    return cor_distance(correlation_matrix(table, "spearman"))


@pytest.mark.parametrize("method", VALID_LINKAGES)
@pytest.mark.parametrize("blocks, seed", [(8, 0), (6, 1)])
def test_agglomerative_matches_oracle_on_tied_spearman_distances(method, blocks, seed):
    D = _wide_table_distances(blocks, seed)
    for q in range(0, len(D), 10):  # q and q**3 are equally far from every other column
        others = np.r_[:q, q + 2:len(D)]
        assert np.array_equal(D[q, others], D[q + 1, others])
    _assert_same_tree(agglomerative(D, method), _oracle_agglomerative(D, method))


@pytest.mark.parametrize("method", VALID_LINKAGES)
def test_agglomerative_height_keeps_the_sign_of_the_chosen_zero(method):
    # (0, 1) merges first, into node 4, which holds slot 0; then node 4's
    # 0.0 to leaf 2 comes first in slot order, but the tie rule picks
    # (2, 3), whose distance is -0.0, and the height must carry its bits
    D = np.array([
        [0.0, 0.0, 0.0, 0.5],
        [0.0, 0.0, 0.0, 0.5],
        [0.0, 0.0, 0.0, -0.0],
        [0.5, 0.5, -0.0, 0.0],
    ])
    tree = agglomerative(D, method)
    assert (tree.merges[1].left, tree.merges[1].right) == (2, 3)
    assert np.signbit(tree.merges[1].height)
    _assert_same_tree(tree, _oracle_agglomerative(D, method))


def test_single_leaf_tree():
    tree = agglomerative(np.zeros((1, 1)))
    assert tree.p == 1 and tree.merges == ()
    assert tree.leaf_order() == [0]


def test_tie_break_is_lexicographic():
    # three equidistant points: first merge must pick nodes (0, 1)
    D = np.ones((3, 3)) - np.eye(3)
    tree = agglomerative(D)
    assert (tree.merges[0].left, tree.merges[0].right) == (0, 1)
    assert (tree.merges[1].left, tree.merges[1].right) == (2, 3)


def test_merge_node_ids_and_members():
    t = random_table(2, p=4)
    tree = agglomerative(cor_distance(correlation_matrix(t)))
    for step, merge in enumerate(tree.merges):
        assert merge.left < merge.right  # normalized order
        assert len(merge.members) >= 2
    assert set(tree.merges[-1].members) == set(range(4))


def test_heights_nondecreasing_enforced():
    with pytest.raises(AspectraError):
        MergeTree(2, (MergeRecord(0, 1, -0.5, (0, 1)),))
    bad = (
        MergeRecord(0, 1, 0.9, (0, 1)),
        MergeRecord(2, 3, 0.1, (0, 1, 2)),
    )
    with pytest.raises(AspectraError):
        MergeTree(3, bad)


_MALFORMED_TREES = {
    # merge 1 names node 4, the node it makes itself
    "node-not-made-yet": ((MergeRecord(0, 1, 0.1, (0, 1)), MergeRecord(2, 4, 0.2, (0, 1, 2))),
                          "merge 1 does not join"),
    "node-beyond-the-tree": ((MergeRecord(0, 1, 0.1, (0, 1)), MergeRecord(2, 7, 0.2, (0, 1, 2))),
                             "merge 1 does not join"),
    "node-merged-twice": ((MergeRecord(0, 1, 0.1, (0, 1)), MergeRecord(1, 2, 0.2, (1, 2))),
                          "merge 1 does not join"),
    "node-merged-with-itself": ((MergeRecord(0, 0, 0.1, (0,)), MergeRecord(1, 2, 0.2, (1, 2))),
                                "merge 0 does not join"),
    "wrong-members": ((MergeRecord(0, 1, 0.1, (0, 1)), MergeRecord(2, 3, 0.2, (0, 2))),
                      "merge 1 does not join"),
    "unsorted-members": ((MergeRecord(0, 1, 0.1, (1, 0)), MergeRecord(2, 3, 0.2, (0, 1, 2))),
                         "merge 0 does not join"),
    "too-few-merges": ((MergeRecord(0, 1, 0.1, (0, 1)),), "1 merges over 3 leaves"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_TREES))
def test_a_malformed_tree_is_refused_when_it_is_built(case):
    # such trees were once taken, and leaf_order, partition_after_merges
    # and render_triplot gave wrong answers from them or failed with a bare
    # KeyError or IndexError; now no such tree exists to reach them
    merges, message = _MALFORMED_TREES[case]
    with pytest.raises(AspectraError, match=message):
        MergeTree(3, merges)


@pytest.mark.parametrize("merge, message", [
    # a float or bool node id was once taken, and a cut of the tree held
    # the numpy integer member as given
    (MergeRecord(0.0, True, 0.1, (np.int64(0), 1)), "left must be an integer, got 0.0"),
    (MergeRecord(0, True, 0.1, (0, 1)), "right must be an integer, got True"),
    # these once raised a bare ValueError and AttributeError
    (MergeRecord(0, 1, 0.1, np.array([0, 1])), "members must be tuple, got ndarray"),
    ({"left": 0, "right": 1, "height": 0.1, "members": (0, 1)}, "merge must be MergeRecord"),
], ids=["float-left", "bool-right", "array-members", "dict-merge"])
def test_a_merge_of_the_wrong_kind_is_refused(merge, message):
    with pytest.raises(AspectraError, match=message):
        MergeTree(2, (merge,))


def test_a_tree_stores_numpy_node_ids_and_members_as_int():
    merges = (MergeRecord(np.int64(0), np.int64(1), np.float32(0.5), (np.int64(0), np.int64(1))),)
    (merge,) = MergeTree(np.int64(2), merges).merges
    assert merge == MergeRecord(0, 1, 0.5, (0, 1))
    assert [type(v) for v in (merge.left, merge.right, merge.height, *merge.members)] == \
        [int, int, float, int, int]


@pytest.mark.parametrize("p", [2.5, "2", True, None, -1])
def test_a_tree_whose_p_is_not_a_leaf_count_is_refused(p):
    # 2.5 once read "0 merges over 2.5 leaves, not p - 1"
    with pytest.raises(AspectraError, match=r"^p must be"):
        MergeTree(p, ())


@pytest.mark.parametrize("height", [math.nan, math.inf, -math.inf, "0.1", None])
def test_a_merge_height_that_is_not_a_finite_real_is_refused(height):
    # a NaN height once rendered a junction path reading "L nan 152.00"
    with pytest.raises(AspectraError, match=r"^height must be"):
        MergeTree(2, (MergeRecord(0, 1, height, (0, 1)),))


def test_trees_of_no_leaf_or_one_leaf_have_no_merges():
    assert MergeTree(0, ()).leaf_order() == []
    assert partition_after_merges(MergeTree(0, ()), 0, ()).m == 0
    assert MergeTree(1, ()).leaf_order() == [0]
    for p in (0, 1):
        with pytest.raises(AspectraError, match=f"1 merges over {p} leaves"):
            MergeTree(p, (MergeRecord(0, 1, 0.1, (0, 1)),))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=9))
def test_heights_nondecreasing_property(seed, p):
    t = random_table(seed, n=30, p=p)
    tree = agglomerative(cor_distance(correlation_matrix(t, "pearson")))
    h = tree.heights
    assert np.all(np.diff(h) >= 0)
    assert len(tree.merges) == p - 1


def test_leaf_order_is_a_permutation():
    t = random_table(4, p=6)
    tree = agglomerative(cor_distance(correlation_matrix(t)))
    order = tree.leaf_order()
    assert sorted(order) == list(range(6))
    # contiguity: every merge's members occupy a contiguous block
    pos = {leaf: k for k, leaf in enumerate(order)}
    for merge in tree.merges:
        ps = sorted(pos[i] for i in merge.members)
        assert ps == list(range(ps[0], ps[0] + len(ps)))


def test_leaf_order_on_a_deep_chain():
    # single linkage can chain every leaf onto one cluster; a recursive walk
    # would exceed the interpreter's recursion limit at this depth
    p = 1200
    merges = [MergeRecord(0, 1, 0.0, (0, 1))]
    for k in range(2, p):
        merges.append(MergeRecord(k, p + k - 2, 0.0, tuple(range(k + 1))))
    order = MergeTree(p, tuple(merges)).leaf_order()
    assert sorted(order) == list(range(p))
    assert order[:3] == [p - 1, p - 2, p - 3] and order[-2:] == [0, 1]


def test_tree_json_roundtrip():
    t = random_table(5, p=5)
    tree = agglomerative(cor_distance(correlation_matrix(t)))
    doc = json.loads(json.dumps(tree.to_json_doc()))
    back = MergeTree.from_json_doc(doc)
    assert back.p == tree.p
    assert [m.members for m in back.merges] == [m.members for m in tree.merges]
    # stored heights carry 12 significant digits
    for ours, theirs in zip(tree.heights, back.heights):
        assert theirs == pytest.approx(ours, rel=1e-11)


# ------------------------------------------------------- cuts and groupings


def test_partition_after_merges_counts():
    t = random_table(6, p=5)
    tree = agglomerative(cor_distance(correlation_matrix(t)))
    assert partition_after_merges(tree, 0, t.column_names).m == 5
    assert partition_after_merges(tree, 4, t.column_names).m == 1
    with pytest.raises(AspectraError):
        partition_after_merges(tree, 5, t.column_names)
    # True once applied one merge, and 1.5 raised a bare TypeError
    for count in (True, 1.5, "1"):
        with pytest.raises(AspectraError, match="merge count must be an integer"):
            partition_after_merges(tree, count, t.column_names)


def _oracle_partitions_along(tree: MergeTree, column_names):
    """The partition before the first merge and after each merge in turn,
    from one pass over the merges, named by a scan of the names taken so
    far: an independent reference for partition_after_merges."""
    clusters = {i: (i,) for i in range(tree.p)}
    for m in (None, *tree.merges):
        if m is not None:
            # each merge lists its whole cluster, so it covers both children,
            # whose keys are among its members
            for i in m.members:
                clusters.pop(i, None)
            clusters[m.members[0]] = m.members
        names = []
        ordered = sorted(clusters.values())
        for ms in ordered:
            base = name = _group_name(ms, column_names)
            k = 2
            while name in names:
                name, k = f"{base}_{k}", k + 1
            names.append(name)
        yield AspectPartition(tuple(zip(names, ordered)))


def _assert_cuts_match_the_oracle(tree: MergeTree, table: NumericTable):
    """partition_after_merges at every count, and the local triplot's levels
    with their node ids from `aspects._hierarchy`, equal the oracle's cuts;
    returns the cuts."""
    oracle = list(_oracle_partitions_along(tree, table.column_names))
    cuts = [partition_after_merges(tree, count, table.column_names) for count in range(tree.p)]
    assert cuts == oracle
    levels, nodes, _ = _hierarchy(tree, table)
    assert list(levels) == oracle
    node_of = {(j,): j for j in range(tree.p)}
    node_of.update((m.members, tree.p + t) for t, m in enumerate(tree.merges))
    assert ([tuple(level_nodes) for level_nodes in nodes]
            == [tuple(node_of[ms] for ms in part.member_sets) for part in oracle])
    return cuts


@pytest.mark.parametrize("method", ["complete", "single", "average"])
@pytest.mark.parametrize("seed", range(4))
def test_partitions_along_the_tree_match_each_cut(method, seed):
    # long names cut at 40 characters collide, so suffixes are assigned too
    t = random_table(seed, p=9)
    table = NumericTable(tuple("v" * 40 + str(j) for j in range(t.p)), t.values)
    tree = agglomerative(cor_distance(correlation_matrix(t, "pearson")), method)
    cuts = _assert_cuts_match_the_oracle(tree, table)
    assert any(name.endswith("_2") for part in cuts for name in part.names)


@pytest.mark.parametrize("method", ["complete", "single", "average"])
def test_cuts_name_groups_whose_joined_names_collide_like_the_oracle(method):
    # a_b with c, and a with b_c, both join to a_b_c, well short of the
    # 40-character cut
    rng = np.random.default_rng(3)
    u, v, noise = rng.standard_normal(80), rng.standard_normal(80), rng.standard_normal((2, 80))
    X = np.column_stack([u, u + 0.1 * noise[0], v, v + 0.1 * noise[1]])
    table = NumericTable(("a_b", "c", "a", "b_c"), X)
    tree = agglomerative(cor_distance(correlation_matrix(table, "pearson")), method)
    cuts = _assert_cuts_match_the_oracle(tree, table)
    assert cuts[2].groups == (("a_b_c", (0, 1)), ("a_b_c_2", (2, 3)))


def test_cut_tree_heights():
    t = random_table(7, p=5)
    tree = agglomerative(cor_distance(correlation_matrix(t)))
    h = tree.heights
    assert cut_tree(tree, -1e-9, t.column_names).m == 5
    assert cut_tree(tree, h[-1], t.column_names).m == 1
    # cutting exactly at a merge height includes that merge
    mid = h[1]
    part = cut_tree(tree, mid, t.column_names)
    assert part.m == 5 - int(np.sum(h <= mid))


def test_group_variables_within_group_guarantee():
    rng = np.random.default_rng(8)
    base = rng.standard_normal(200)
    cols = [base + 0.1 * rng.standard_normal(200) for _ in range(3)]
    cols += [rng.standard_normal(200) for _ in range(2)]
    t = NumericTable(tuple("abcde"), np.column_stack(cols))
    part = group_variables(t, cutoff=0.8, method="pearson")
    C = np.abs(correlation_matrix(t, "pearson"))
    for members in part.member_sets:
        for i in members:
            for j in members:
                assert C[i, j] >= 0.8
    assert set(part.member_sets[0]) == {0, 1, 2}


def test_group_variables_cutoff_extremes():
    t = random_table(9, p=4)
    assert group_variables(t, cutoff=1.0).m == 4  # nothing clears the bar
    assert group_variables(t, cutoff=0.0).m == 1  # everything merges
    with pytest.raises(AspectraError):
        group_variables(t, cutoff=1.5)


@pytest.mark.parametrize("cutoff", [True, False, "0.5", None, [0.5], math.nan, np.float64(math.nan)])
def test_a_cutoff_that_is_not_a_real_number_is_rejected(cutoff):
    # True once cut at 1.0, and a string or None raised a bare TypeError;
    # group_variables, predict_aspects and cut_tree's height share the check.
    # NaN once read "must be in [-inf, inf]" where no bound is set; the
    # cutoff's own bounds still name the range it is outside
    t = random_table(9, p=4)
    nan = isinstance(cutoff, float) and math.isnan(cutoff)
    with pytest.raises(AspectraError, match=r"cutoff must be in \[0, 1\], got non-finite nan$"
                       if nan else "cutoff must be a real number"):
        group_variables(t, cutoff)
    with pytest.raises(AspectraError, match="grouping must be a real number"):
        predict_aspects(ConstantModel(0.0), t, t.row(0), cutoff, N=50)
    tree = agglomerative(cor_distance(correlation_matrix(t)))
    with pytest.raises(AspectraError, match="height must be a real number"):
        cut_tree(tree, cutoff, t.column_names)


def test_a_numpy_float_cutoff_is_a_cutoff():
    t = random_table(9, p=4)
    assert group_variables(t, np.float32(0.5)) == group_variables(t, 0.5)
    ours = predict_aspects(ConstantModel(1.0), t, t.row(0), np.float32(0.5), N=50)
    assert ours.to_json() == predict_aspects(ConstantModel(1.0), t, t.row(0), 0.5, N=50).to_json()


def test_group_names_are_joined_and_unique():
    assert _group_name((0, 1), ("x", "y", "z")) == "x_y"
    long_names = tuple(f"column_number_{i:02d}" for i in range(4))
    assert len(_group_name((0, 1, 2, 3), long_names)) <= 40
