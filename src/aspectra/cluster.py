"""Correlation matrices, correlation-distance clustering and variable grouping.

Distances are 1 - |r|, so complete linkage guarantees that every pair inside
a cluster cut at height h satisfies |r| >= 1 - h. Node ids follow the usual
convention: leaves 0..p-1, the t-th merge creates node p+t. A tree is checked
when it is built, and one walk of it (`_cuts`) gives every cut: cut_tree names
one through partition_after_merges, and a local triplot all through `_levels`.

The hierarchy belongs to the data: a table's correlation matrix is computed
once per method, and its tree (`_tree`) once per (method, linkage), on first
request, and both are kept on the table, their one carrier. Every triplot,
cutoff-based grouping and aspect summary of one table so shares them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .data import (_FINITE, AspectPartition, NumericTable, _choice, _instance, _integer, _malformed,
                   _real)
from .errors import AspectraError, ZeroVarianceColumn

VALID_LINKAGES = ("complete", "single", "average")
CORRELATION_METHODS = ("pearson", "spearman")


@dataclass(frozen=True, slots=True)
class MergeRecord:
    left: int
    right: int
    height: float
    members: tuple  # sorted column indices of the merged cluster


@dataclass(frozen=True)
class MergeTree:
    """Agglomerative clustering result: p-1 merges in non-decreasing height order.

    Checked when it is built, else AspectraError: p an integer >= 0, finite
    heights from 0 up, and p - 1 MergeRecords (none for p <= 1), each joining
    two integer node ids not merged yet into the sorted union of their
    members, a tuple.
    Node ids are stored as int, heights as float and members as the ints of
    the union."""

    p: int
    merges: tuple  # tuple of MergeRecord

    def __post_init__(self):
        p = _integer("p", self.p, 0)
        given = [_instance("merge", m, MergeRecord) for m in self.merges]
        heights = [_real("height", m.height, *_FINITE) for m in given]
        if heights and heights[0] < 0.0:
            raise AspectraError(f"negative merge height: {heights[0]}")
        for a, b in zip(heights, heights[1:]):
            if b < a:
                raise AspectraError(f"merge heights decrease: {a} -> {b}")
        if len(given) != max(p - 1, 0):
            raise AspectraError(f"{len(given)} merges over {p} leaves, not p - 1")
        live = {i: (i,) for i in range(p)}  # node id -> members, for unmerged nodes
        merges = []
        for t, (m, height) in enumerate(zip(given, heights)):
            left, right = _integer("left", m.left), _integer("right", m.right)
            members = _instance("members", m.members, tuple)
            a, b = live.pop(left, None), live.pop(right, None)
            if a is None or b is None or members != tuple(sorted(a + b)):
                raise AspectraError(f"merge {t} does not join two clusters of the tree")
            live[p + t] = tuple(sorted(a + b))
            merges.append(MergeRecord(left, right, height, live[p + t]))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "merges", tuple(merges))

    @property
    def heights(self) -> np.ndarray:
        return np.array([m.height for m in self.merges])

    def leaf_order(self):
        """Left-to-right leaf ordering for dendrogram layout, each merge's left node first."""
        order = {j: [j] for j in range(self.p)}  # each unmerged node's leaves
        for t, m in enumerate(self.merges):
            order[self.p + t] = order.pop(m.left) + order.pop(m.right)
        return [leaf for leaves in order.values() for leaf in leaves]

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
        """Rebuild a tree from to_json_doc's output, a list of merge dicts; a
        malformed one, or a field not of its kind, raises AspectraError."""
        try:
            merges = [_instance("merge", d, dict) for d in _instance("tree", doc, list)]
            return MergeTree(len(merges) + 1, tuple(
                MergeRecord(d["left"], d["right"], d["height"],
                            tuple(_instance("members", d["members"], list)))
                for d in merges
            ))
        except (KeyError, AspectraError) as e:
            raise _malformed("merge tree", e) from None


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

    The matrix is the table's own: it is computed on the first request for
    each method, kept on the table, returned to every later request and
    read-only.

    Spearman is Pearson on average ranks (ties get the mean rank). A column
    whose values are all equal raises ZeroVarianceColumn, the first such
    column by index. Each column is then scaled by the power of two that
    brings its largest |x| into [1/2, 1). That is exact and commutes with
    every rounding of the mean, the products and the square root, so the
    result keeps the bits of the unscaled computation wherever that neither
    overflows nor underflows, and is the same at every scale.
    """
    _choice("correlation method", method, CORRELATION_METHODS)
    memo = _instance("table", table, NumericTable)._memo
    if method in memo:
        return memo[method]
    X = table.values
    if method == "spearman":
        X = _average_ranks(X)
    lo, hi = X.min(axis=0), X.max(axis=0)
    constant = np.flatnonzero(lo == hi)
    if constant.size:
        raise ZeroVarianceColumn(table.column_names[constant[0]])
    Xc = np.ldexp(X, -np.frexp(np.maximum(hi, -lo))[1])
    Xc -= Xc.mean(axis=0)
    norms = np.sqrt(np.einsum("ij,ij->j", Xc, Xc))
    C = (Xc.T @ Xc) / np.outer(norms, norms)
    C = np.clip((C + C.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(C, 1.0)
    C.setflags(write=False)
    memo[method] = C
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

    The distances live in a p x p matrix of slots, built from D's upper
    triangle, with the node id each slot holds beside it. A merged cluster
    takes the lower of its two slots and the other slot is retired: its row
    and column become inf, as is the diagonal, so argmin only sees live
    pairs. Slot order is not node-id order, so the first minimum decides the
    merge only when it and its mirror are the only entries equal to it;
    otherwise every (left, right) node pair at that distance is compared.
    """
    _choice("linkage", linkage, VALID_LINKAGES)
    D = np.asarray(D, dtype=np.float64)
    p = D.shape[0]
    if D.shape != (p, p) or not np.all(np.isfinite(D)):
        raise AspectraError("distance matrix must be square with finite entries")
    if not np.allclose(D, D.T) or np.any(np.diag(D) != 0) or np.any(D < 0):
        raise AspectraError("distance matrix must be symmetric, nonnegative, zero-diagonal")
    if p <= 1:
        return MergeTree(p, ())

    M = np.full((p, p), np.inf)
    i, j = np.triu_indices(p, 1)
    M[i, j] = M[j, i] = D[i, j]
    flat = M.ravel()
    node = list(range(p))  # the node id each slot holds
    members = [(s,) for s in range(p)]
    merges = []
    for new_id in range(p, 2 * p - 1):
        k = int(np.argmin(flat))
        r, c = divmod(k, p)
        v = flat[k]
        # the rows and columns of r and c are rewritten below, so masking the
        # first minimum and its mirror leaves a minimum of v only on a tie
        flat[k] = flat[c * p + r] = np.inf
        if flat.min() == v:
            flat[k] = flat[c * p + r] = v
            rs, cs = np.divmod(np.flatnonzero(flat == v), p)
            ids = np.array(node)
            lefts, rights = ids[rs], ids[cs]
            pair = lefts < rights
            best = np.flatnonzero(pair)[np.argmin(lefts[pair] * (2 * p) + rights[pair])]
            r, c = int(rs[best]), int(cs[best])
            v = flat[r * p + c]  # 0.0 and -0.0 tie, so read the pair's own bits
        if node[r] > node[c]:
            r, c = c, r
        ma, mb = members[r], members[c]
        merged = tuple(sorted(ma + mb))
        merges.append(MergeRecord(node[r], node[c], float(v), merged))
        if linkage == "complete":
            row = np.maximum(M[r], M[c])
        elif linkage == "single":
            row = np.minimum(M[r], M[c])
        else:
            row = (len(ma) * M[r] + len(mb) * M[c]) / (len(ma) + len(mb))
        s, t = min(r, c), max(r, c)
        row[s] = row[t] = np.inf
        M[s] = M[:, s] = row
        M[t] = M[:, t] = np.inf
        node[s] = new_id
        members[s] = merged
    return MergeTree(p, tuple(merges))


def _tree(table: NumericTable, method: str, linkage: str, C: np.ndarray) -> MergeTree:
    """The table's `linkage` tree of its `method` correlation distances, C
    being `correlation_matrix(table, method)`; built on the first request for
    each (method, linkage) and kept on the table."""
    key = (method, linkage)
    if key not in table._memo:
        table._memo[key] = agglomerative(cor_distance(C), linkage)
    return table._memo[key]


def _group_name(members, column_names) -> str:
    return "_".join(column_names[i] for i in members)[:40]


def _node_members(tree: MergeTree) -> list:
    """The members of every node, by node id: the leaves, then the merges."""
    return [(j,) for j in range(tree.p)] + [m.members for m in tree.merges]


def _cuts(tree: MergeTree):
    """The node ids of each cut, after 0, 1, ..., p - 1 merges, by smallest member:
    a merge's node takes its first child's place, and the other's is removed."""
    cut = list(range(tree.p))
    yield tuple(cut)
    for t, m in enumerate(tree.merges):
        first, other = sorted((cut.index(m.left), cut.index(m.right)))
        cut[first] = tree.p + t
        del cut[other]
        yield tuple(cut)


def _named_cut(cut, members, names) -> AspectPartition:
    """The partition of a cut's nodes: node n covers members[n] and is named
    names[n], a name repeated in the cut with a suffix _2, _3, ... A cut of a
    checked tree is a partition, so it is not checked again."""
    groups, taken = [], set()
    for n in cut:
        name = base = names[n]
        k = 2
        while name in taken:
            name = f"{base}_{k}"
            k += 1
        groups.append((name, members[n]))
        taken.add(name)
    return AspectPartition._from_validated(tuple(groups))


def _levels(tree: MergeTree, column_names) -> list:
    """Each cut's node ids and partition, from one walk; each node is named once."""
    members = _node_members(tree)
    names = [_group_name(ms, column_names) for ms in members]
    return [(cut, _named_cut(cut, members, names)) for cut in _cuts(tree)]


def partition_after_merges(tree: MergeTree, count: int, column_names) -> AspectPartition:
    """Partition induced by applying the first `count` merges of the tree."""
    count = _integer("merge count", count)
    if not 0 <= count <= len(tree.merges):
        raise AspectraError(f"merge count must be in [0, {len(tree.merges)}], got {count}")
    members = _node_members(tree)
    cut = next(itertools.islice(_cuts(tree), count, None))
    return _named_cut(cut, members, {n: _group_name(members[n], column_names) for n in cut})


def cut_tree(tree: MergeTree, h: float, column_names) -> AspectPartition:
    """Clusters formed by all merges with height <= h."""
    count = int(np.searchsorted(tree.heights, _real("height", h), side="right"))
    return partition_after_merges(tree, count, column_names)


def group_variables(table: NumericTable, cutoff: float, method: str = "spearman") -> AspectPartition:
    """Group columns so every within-group pair satisfies |r| >= cutoff.

    Complete-linkage clustering of the 1 - |r| distances, cut at 1 - cutoff;
    complete linkage makes the within-group bound exact. A table that is no
    NumericTable, a cutoff that is not a real number in [0, 1] (a bool is
    not one) or a method outside CORRELATION_METHODS raises AspectraError.
    """
    cutoff = _real("cutoff", cutoff, 0.0, 1.0)
    C = correlation_matrix(table, method)
    return cut_tree(_tree(table, method, "complete", C), 1.0 - cutoff, table.column_names)
