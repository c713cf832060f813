"""Correlation matrices, correlation-distance clustering and variable grouping.

Distances are 1 - |r|, so complete linkage guarantees that every pair inside
a cluster cut at height h satisfies |r| >= 1 - h. Node ids follow the usual
convention: leaves 0..p-1, the t-th merge creates node p+t. One function cuts
a tree, partition_after_merges: cut_tree and every level of a local triplot
take their partitions from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AspectPartition, NumericTable, _finite_float, _typed
from .errors import AspectraError, ZeroVarianceColumn

VALID_LINKAGES = ("complete", "single", "average")


@dataclass(frozen=True)
class MergeRecord:
    left: int
    right: int
    height: float
    members: tuple  # sorted column indices of the merged cluster


@dataclass(frozen=True)
class MergeTree:
    """Agglomerative clustering result: p-1 merges in non-decreasing height order."""

    p: int
    merges: tuple  # tuple of MergeRecord

    def __post_init__(self):
        heights = [m.height for m in self.merges]
        if heights and heights[0] < 0.0:
            raise AspectraError(f"negative merge height: {heights[0]}")
        for a, b in zip(heights, heights[1:]):
            if b < a:
                raise AspectraError(f"merge heights decrease: {a} -> {b}")

    @property
    def heights(self) -> np.ndarray:
        return np.array([m.height for m in self.merges])

    def leaf_order(self):
        """Left-to-right leaf ordering for dendrogram layout."""
        children = {self.p + t: (m.left, m.right) for t, m in enumerate(self.merges)}
        merged_into = set()
        for m in self.merges:
            merged_into.add(m.left)
            merged_into.add(m.right)
        roots = [i for i in range(self.p + len(self.merges)) if i not in merged_into]
        # depth-first, left subtree first; an explicit stack, because single
        # linkage can make the tree a chain as deep as p
        order = []
        stack = roots[::-1]
        while stack:
            node = stack.pop()
            if node < self.p:
                order.append(node)
            else:
                left, right = children[node]
                stack.extend((right, left))
        return order

    def to_json_doc(self):
        return [
            {
                "left": m.left,
                "right": m.right,
                "height": _round12(m.height),
                "members": list(m.members),
            }
            for m in self.merges
        ]

    @staticmethod
    def from_json_doc(doc) -> "MergeTree":
        """Rebuild a tree from to_json_doc's output; a malformed one raises AspectraError."""
        try:
            merges = tuple(
                MergeRecord(
                    _typed(d["left"], int, "an integer cluster id"),
                    _typed(d["right"], int, "an integer cluster id"),
                    _finite_float(d["height"]),
                    tuple(_typed(i, int, "an integer member")
                          for i in _typed(d["members"], list, "a list of members")),
                )
                for d in doc
            )
        except (KeyError, TypeError, ValueError) as e:
            raise AspectraError(f"malformed merge tree: {type(e).__name__}: {e}") from None
        p = len(merges) + 1
        live = {i: (i,) for i in range(p)}  # cluster id -> members, for unmerged clusters
        for t, m in enumerate(merges):
            a, b = live.pop(m.left, None), live.pop(m.right, None)
            if a is None or b is None or m.members != tuple(sorted(a + b)):
                raise AspectraError(f"merge {t} does not join two clusters of the tree")
            live[p + t] = m.members
        return MergeTree(p, merges)


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _average_ranks(X: np.ndarray) -> np.ndarray:
    """Rank each column of an n x p array 1..n, ties sharing the mean of their ranks.

    Equal, bit for bit, to scipy.stats.rankdata(X, method="average", axis=0).
    The result is the transpose of a C-ordered p x n array, the layout recent
    scipy returns: correlation_matrix's column sums run in a layout-dependent
    order, and its results were fixed on that layout. A tie group over sorted
    positions a..e-1 gets (a + e + 1) / 2, exact in float64. The sort need not
    be stable, since every member of a tie group gets the same rank.
    """
    n, p = X.shape
    XT = np.ascontiguousarray(X.T)
    offsets = np.arange(0, p * n, n)[:, None]
    order = np.argsort(XT, axis=1) + offsets  # flat positions in XT, ascending per row
    s = XT.ravel()[order]
    starts = np.empty((p, n), dtype=bool)  # where a tie group begins
    starts[:, :1] = True
    np.not_equal(s[:, 1:], s[:, :-1], out=starts[:, 1:])
    bounds = np.append(np.flatnonzero(starts), p * n)  # no group spans two rows
    ranks = np.repeat((bounds[:-1] + bounds[1:] + 1) / 2, np.diff(bounds)).reshape(p, n)
    ranks -= offsets  # flat positions back to positions within the row, still exact
    out = np.empty((p, n))
    out.ravel()[order] = ranks
    return out.T


def correlation_matrix(table: NumericTable, method: str = "spearman") -> np.ndarray:
    """Sample correlation of all column pairs, as a p x p array.

    Spearman is Pearson on average ranks (ties get the mean rank).
    """
    if method not in ("pearson", "spearman"):
        raise AspectraError(f"correlation method must be pearson|spearman, got {method!r}")
    X = table.values
    if method == "spearman":
        X = _average_ranks(X)
    with np.errstate(over="ignore", invalid="ignore"):
        Xc = X - X.mean(axis=0)
        squares = np.einsum("ij,ij->j", Xc, Xc)
    # a sum of squares past the float64 range, or a non-constant column's
    # below 2^-970, where squares and products that underflow (each off by
    # up to 2^-1075) are no longer lost in its rounding; a correlation does
    # not change with a column's scale, so take it from columns scaled to
    # |x| <= 1, whose sums of squares are 0 or above 2^-110
    if not np.all(squares < np.inf) or np.any(Xc[:, squares < 2.0**-970]):
        scale = np.max(np.abs(X), axis=0)
        scaled = NumericTable(table.column_names, X / np.where(scale > 0.0, scale, 1.0))
        return correlation_matrix(scaled, "pearson")
    norms = np.sqrt(squares)
    for j, s in enumerate(norms):
        if s == 0.0:
            raise ZeroVarianceColumn(table.column_names[j])
    C = (Xc.T @ Xc) / np.outer(norms, norms)
    C = np.clip((C + C.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(C, 1.0)
    return C


def cor_distance(C: np.ndarray) -> np.ndarray:
    """Distance d(i,j) = 1 - |r(i,j)|; zero diagonal, entries in [0,1]."""
    D = 1.0 - np.abs(C)
    np.fill_diagonal(D, 0.0)
    return D


def agglomerative(D: np.ndarray, linkage: str = "complete") -> MergeTree:
    """Agglomerative clustering of a symmetric distance matrix.

    At each step the pair of clusters at minimal linkage distance merges, with
    ties broken by the lexicographically smallest (left id, right id). Cluster
    distances update by the Lance-Williams rules for the chosen linkage.
    """
    if linkage not in VALID_LINKAGES:
        raise AspectraError(f"linkage must be one of {VALID_LINKAGES}, got {linkage!r}")
    D = np.asarray(D, dtype=np.float64)
    p = D.shape[0]
    if D.shape != (p, p) or not np.all(np.isfinite(D)):
        raise AspectraError("distance matrix must be square with finite entries")
    if not np.allclose(D, D.T) or np.any(np.diag(D) != 0) or np.any(D < 0):
        raise AspectraError("distance matrix must be symmetric, nonnegative, zero-diagonal")
    if p <= 1:
        return MergeTree(p, ())

    # one row and column per node id; inf marks the diagonal and every node
    # that is retired or not yet created, so argmin only sees live pairs
    n = 2 * p - 1
    M = np.full((n, n), np.inf)
    i, j = np.triu_indices(p, 1)
    M[i, j] = M[j, i] = D[i, j]
    merges = []
    for new_id in range(p, n):
        # the first row-major minimum of a symmetric matrix is the
        # lexicographically smallest (left, right) pair among the ties
        a, b = divmod(int(np.argmin(M)), n)
        ma = merges[a - p].members if a >= p else (a,)
        mb = merges[b - p].members if b >= p else (b,)
        merges.append(MergeRecord(a, b, float(M[a, b]), tuple(sorted(ma + mb))))
        if linkage == "complete":
            row = np.maximum(M[a], M[b])
        elif linkage == "single":
            row = np.minimum(M[a], M[b])
        else:
            row = (len(ma) * M[a] + len(mb) * M[b]) / (len(ma) + len(mb))
        M[new_id] = M[:, new_id] = row
        M[[a, b]] = M[:, [a, b]] = np.inf
    return MergeTree(p, tuple(merges))


def _group_name(members, column_names) -> str:
    name = "_".join(column_names[i] for i in members)
    return name[:40]


def _named_partition(clusters, column_names) -> AspectPartition:
    """A partition of the clusters (sorted member tuples) in order of their
    smallest member, named after their members; a repeated name gets a
    suffix _2, _3, ..."""
    ordered = sorted(clusters, key=lambda ms: ms[0])
    names, taken = [], set()
    for ms in ordered:
        name = _group_name(ms, column_names)
        k = 2
        base = name
        while name in taken:
            name = f"{base}_{k}"
            k += 1
        names.append(name)
        taken.add(name)
    return AspectPartition(tuple(zip(names, ordered)))


def partition_after_merges(tree: MergeTree, count: int, column_names) -> AspectPartition:
    """Partition induced by applying the first `count` merges of the tree."""
    if not 0 <= count <= len(tree.merges):
        raise AspectraError(
            f"merge count must be in [0, {len(tree.merges)}], got {count}"
        )
    # each merge lists its whole cluster, so labelling every member with the
    # cluster's smallest index applies the merge
    label = list(range(tree.p))
    for m in tree.merges[:count]:
        for i in m.members:
            label[i] = m.members[0]
    clusters = {}
    for i in range(tree.p):
        clusters.setdefault(label[i], []).append(i)
    return _named_partition(map(tuple, clusters.values()), column_names)


def cut_tree(tree: MergeTree, h: float, column_names) -> AspectPartition:
    """Clusters formed by all merges with height <= h."""
    count = int(np.searchsorted(tree.heights, h, side="right"))
    return partition_after_merges(tree, count, column_names)


def group_variables(table: NumericTable, cutoff: float, method: str = "spearman") -> AspectPartition:
    """Group columns so every within-group pair satisfies |r| >= cutoff.

    Complete-linkage clustering of the 1 - |r| distances, cut at 1 - cutoff;
    complete linkage makes the within-group bound exact.
    """
    return _group_variables(table, cutoff, method)[0]


def _group_variables(table: NumericTable, cutoff: float, method: str):
    """group_variables, also returning the correlation matrix it clustered."""
    if not 0.0 <= cutoff <= 1.0:
        raise AspectraError(f"cutoff must be in [0, 1], got {cutoff}")
    C = correlation_matrix(table, method)
    tree = agglomerative(cor_distance(C), "complete")
    return cut_tree(tree, 1.0 - cutoff, table.column_names), C
