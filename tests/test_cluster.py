import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import fcluster, linkage as scipy_linkage
from scipy.spatial.distance import squareform
from scipy.stats import pearsonr, rankdata, spearmanr

from aspectra import AspectPartition, NumericTable, correlation_matrix, group_variables
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
    ours = agglomerative(D, method)
    ref = _oracle_agglomerative(D, method)
    assert ours.p == ref.p
    assert len(ours.merges) == len(ref.merges)
    for got, want in zip(ours.merges, ref.merges):
        assert (got.left, got.right, got.members) == (want.left, want.right, want.members)
        assert np.float64(got.height).tobytes() == np.float64(want.height).tobytes()


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


@pytest.mark.parametrize("method", ["complete", "single", "average"])
@pytest.mark.parametrize("seed", range(4))
def test_partitions_along_the_tree_match_each_cut(method, seed):
    # long names cut at 40 characters collide, so suffixes are assigned too
    t = random_table(seed, p=9)
    names = tuple("v" * 40 + str(j) for j in range(t.p))
    tree = agglomerative(cor_distance(correlation_matrix(t, "pearson")), method)
    cuts = [partition_after_merges(tree, count, names) for count in range(t.p)]
    assert cuts == list(_oracle_partitions_along(tree, names))
    assert any(name.endswith("_2") for part in cuts for name in part.names)


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


def test_group_names_are_joined_and_unique():
    assert _group_name((0, 1), ("x", "y", "z")) == "x_y"
    long_names = tuple(f"column_number_{i:02d}" for i in range(4))
    assert len(_group_name((0, 1, 2, 3), long_names)) <= 40
