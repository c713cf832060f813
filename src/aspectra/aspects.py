"""Local aspect importance: binary replacement designs and surrogate fits.

The explainer samples N rows, flags one or two aspects per sampled row, and
overwrites the flagged aspects' columns with the explained observation's
values. The difference between modified and unmodified predictions is then
regressed on the binary flag matrix; the coefficients are the aspect
contributions. An L1-limited variant caps how many aspects stay nonzero, at
the knot of the exact lasso path where the cap first breaks.

The sampled rows do not depend on the grouping: the generator `_designs`
draws them once, and each partition it plans draws only its flags. A local
triplot takes every tree level's design from one `_designs` run, and
`build_design` is its first design for one partition. Each distinct row is
scored once: f(A) on A's distinct rows, and f(A') once per distinct (sampled
row, replaced columns) pair, by the first partition that draws it, because
`_designs` keys the modified rows of all its partitions before it yields
the first design. A local triplot over p columns so makes at most 2p calls,
one fewer for each level that draws no new pair, and scores the distinct
pairs of all its levels plus A's distinct rows at every level. Scoring f(A)
once for all levels waits for the benchmark's tracer test, which relies on
that repeat.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .cluster import MergeTree, _group_variables, correlation_matrix
from .data import (
    AspectPartition,
    NumericTable,
    Observation,
    RngStream,
    _check_tsv_names,
    _finite_float,
    _json_text,
    _rekey,
    _tsv_number,
    _typed,
    sampled_row_ids,
    validate_partition,
)
from .errors import (
    AspectraError,
    LassoNotConverged,
    NonFiniteShift,
    SchemaMismatch,
    SingularDesign,
)
from .models import ModelAdapter, predict

_K_ROWS = 0xA001
_K_FLAGS = 0xF1A6

LASSO_MAX_SWEEPS = 100_000
LASSO_TOL = 1e-10
_TIE = 1e-9  # relative: path events this close happen at one knot
_MAX_TIED = 12  # columns tied at one knot; the active set search is 2^tied


@dataclass(frozen=True)
class SampleDesign:
    """Sampled rows A, binary flag matrix, and the modified rows A' to score.

    Every row of the flag matrix has one or two entries set: the two aspect
    indices are drawn with replacement, so they may coincide (probability
    1/m). Draw i's modified row A'[i] equals the explained observation at
    column j when column j's aspect is flagged in row i, otherwise A[i, j].

    The model scores two read-only tables under the explained table's column
    names. `distinct` holds each distinct sampled row once, in ascending row
    id, and `inverse` maps A onto it: A[i] = distinct[inverse[i]], so f(A)
    is f(distinct)[inverse]. Designs from one `_designs` run share
    `row_ids`, `distinct` and `inverse`, all read-only.

    A' is scored once per distinct modified row: two draws share a row when
    they replace the same columns of the same sampled row, or when they
    replace every column, which makes the row the observation itself. The
    designs that one `_designs` run plans share
    `predictions`, one slot per distinct modified row of them all, NaN until
    scored. `modified` holds the rows this design draws first, in draw
    order, and their predictions go to predictions[fills]; f(A'[i]) is
    predictions[slots[i]]. So the designs of one plan are scored in order.

    `W` is X'^T X', read-only: the count of draws flagging each aspect
    (diagonal) and each pair of aspects, which `_designs` counts from the
    flags instead of multiplying the N x m flag matrix by itself.
    """

    row_ids: np.ndarray
    X_prime: np.ndarray  # N x m, int8
    distinct: NumericTable
    inverse: np.ndarray
    modified: NumericTable
    partition: AspectPartition
    slots: np.ndarray  # N, each draw's slot in `predictions`
    fills: np.ndarray  # modified.n, the slots that `modified` scores
    predictions: np.ndarray  # shared by the designs of one plan
    W: np.ndarray  # m x m, float

    @property
    def N(self) -> int:
        return self.X_prime.shape[0]

    @property
    def m(self) -> int:
        return self.X_prime.shape[1]


@dataclass(frozen=True)
class SurrogateFit:
    """Least-squares surrogate of the prediction shifts on the flag matrix.

    W = X'^T X' counts how often single aspects (diagonal) and aspect pairs
    (off-diagonal) were flagged together; Z = X'^T Y accumulates the shift
    per aspect. gamma solves W gamma = Z; there is no intercept term. X and
    y are the flag matrix as floats and the shifts, kept for the residual.
    """

    gamma: np.ndarray
    W: np.ndarray
    Z: np.ndarray
    X: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    lam: float | None = None
    # (lambda, nonzero count) at each knot of the exact lasso path walked,
    # the last at `lam`; gamma is one coordinate descent solve there
    path: tuple = ()

    @property
    def residual_norm(self) -> float:
        """||X gamma - y||, computed when read; inf when the squares of large
        shifts pass the float64 range."""
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(self.X @ self.gamma - self.y))


@dataclass(frozen=True)
class AspectRow:
    name: str
    members: tuple  # column names
    contribution: float
    min_abs_cor: float
    sign_consistent: bool


@dataclass(frozen=True)
class AspectExplanation:
    """Per-aspect contributions, ordered by |contribution| descending."""

    aspects: tuple
    N: int
    seed: int
    lam: float | None = None

    def to_tsv(self) -> str:
        _check_tsv_names((a.name, a.members) for a in self.aspects)
        num = _tsv_number
        lines = [f"# N\t{self.N}", f"# seed\t{self.seed}", f"# lambda\t{num(self.lam)}"]
        lines.append("aspect\tmembers\tcontribution\tmin_abs_cor\tsign_consistent")
        for a in self.aspects:
            lines.append(
                f"{a.name}\t{','.join(a.members)}\t{num(a.contribution)}"
                f"\t{num(a.min_abs_cor)}\t{a.sign_consistent}"
            )
        return "\n".join(lines) + "\n"

    def to_json_doc(self) -> dict:
        return {
            "aspects": [
                {
                    "name": a.name,
                    "members": list(a.members),
                    "contribution": a.contribution,
                    "min_abs_cor": a.min_abs_cor,
                    "sign_consistent": a.sign_consistent,
                }
                for a in self.aspects
            ],
            "metadata": {"N": self.N, "seed": self.seed, "lambda": self.lam},
        }

    def to_json(self) -> str:
        return _json_text(self.to_json_doc())

    @staticmethod
    def from_json_doc(doc: dict) -> "AspectExplanation":
        """Rebuild an explanation from to_json_doc's output; a malformed
        document raises AspectraError; metadata keys other than N, seed and
        lambda are ignored."""
        try:
            meta = dict(doc.get("metadata", {}))
            N = _typed(meta.get("N", 0), int, "an integer N")
            seed = _typed(meta.get("seed", 0), int, "an integer seed")
            lam = meta.get("lambda", None)
            rows = tuple(
                AspectRow(
                    name=_typed(a["name"], str, "a string name"),
                    members=tuple(
                        _typed(c, str, "a string member")
                        for c in _typed(a["members"], list, "a list of members")
                    ),
                    contribution=_finite_float(a["contribution"]),
                    min_abs_cor=_finite_float(a["min_abs_cor"]),
                    sign_consistent=_typed(a["sign_consistent"], bool, "true or false"),
                )
                for a in doc["aspects"]
            )
            lam = None if lam is None else _finite_float(lam)
        except (KeyError, TypeError, ValueError) as e:
            raise AspectraError(f"malformed aspect document: {type(e).__name__}: {e}") from None
        return AspectExplanation(aspects=rows, N=N, seed=seed, lam=lam)


def _designs(table: NumericTable, x_star: Observation, N: int, rng: RngStream, partitions,
             tree: MergeTree | None = None):
    """Yield a design per partition over one sample A, their modified rows planned together.

    The rows come from the stream `rng.child(_K_ROWS)` and each partition's
    flags from `rng.child(_K_FLAGS)`, restarted per partition, so every
    partition sees the same rows A and the flags that `build_design` draws
    for it with the same rng. The designs share `row_ids`, `distinct` and
    `inverse`.

    A modified row is keyed by the columns it replaces and its sampled row.
    `_hierarchy` codes the columns from the two flagged aspects as nodes of
    `tree`: two siblings replace their parent's columns, and the root, every
    column, has the largest code and makes the row x* whatever the sampled
    row. Each key is scored by the first design that draws it (see
    `_first_draws`).

    Without a tree there must be one partition, which is validated; the
    cuts of a tree are partitions by construction. Every partition's flags
    are drawn before the first design is yielded, and each design's rows
    are built when it is asked for, so that they are still in cache when it
    is scored.
    """
    if x_star.p != table.p:
        raise SchemaMismatch(f"observation has {x_star.p} values, table has p={table.p}")
    row_ids = sampled_row_ids(table, N, rng.child(_K_ROWS))
    row_ids.setflags(write=False)
    ids, inverse = np.unique(row_ids, return_inverse=True)
    inverse.setflags(write=False)
    # rows of the validated table need no checking again
    distinct = NumericTable._from_validated(table.column_names, table.values[ids])
    if tree is None:
        validate_partition(partitions[0], table.p)
    nodes, codes = _hierarchy(partitions, table.p, tree)
    M, n_rows = codes.shape[0], distinct.n
    codes = codes.reshape(-1)

    stream = rng.child(_K_FLAGS)
    gen = stream.generator()
    keys = np.empty((len(partitions), N), dtype=np.int64)
    flags = np.empty((len(partitions), N, 2),
                     dtype=np.min_scalar_type(max(part.m for part in partitions)))
    for part, node, kl, key in zip(partitions, nodes, flags, keys):
        if N < part.m:
            raise AspectraError(f"need N >= m sampled rows, got N={N}, m={part.m}")
        _rekey(gen.bit_generator, stream.seed, stream.stream_id)
        drawn = gen.integers(0, part.m, size=(N, 2))
        kl[...] = drawn
        pair = node.take(drawn[:, 0]) * M
        pair += node.take(drawn[:, 1])
        codes.take(pair, out=key)
    keys *= n_rows
    keys += inverse
    # a draw that replaces every column is x*: its key drops its sampled row
    np.minimum(keys, (M * M - 1) * n_rows, out=keys)
    slots, drawn_first, n_slots = _first_draws(keys.reshape(-1))
    del keys
    predictions = np.full(n_slots, np.nan)

    for k, (part, kl) in enumerate(zip(partitions, flags)):
        m, own = part.m, slots[k * N:(k + 1) * N]
        new = np.flatnonzero(drawn_first[k * N:(k + 1) * N])
        X_prime = np.zeros((N, m), dtype=np.int8)
        flat, at = X_prime.reshape(-1), np.arange(N) * m
        flat[at + kl[:, 0]] = 1
        flat[at + kl[:, 1]] = 1
        aspect_of = [0] * table.p  # column -> its aspect
        for j, members in enumerate(part.member_sets):
            for i in members:
                aspect_of[i] = j
        # A' takes each cell of a new draw from x* where its aspect is
        # flagged and from the draw's sampled row elsewhere: copied values,
        # so exact and already validated
        flagged = X_prime.take(new, axis=0).take(aspect_of, axis=1).view(bool)
        rows = np.where(flagged, x_star.values, table.values.take(row_ids.take(new), axis=0))
        cell = kl[:, 0].astype(np.intp) * m
        cell += kl[:, 1]
        pairs = np.bincount(cell, minlength=m * m).reshape(m, m)
        W = (pairs + pairs.T).astype(np.float64)
        W[np.diag_indices(m)] = pairs.sum(axis=0) + pairs.sum(axis=1) - pairs.diagonal()
        W.setflags(write=False)
        yield SampleDesign(
            row_ids=row_ids,
            X_prime=X_prime,
            distinct=distinct,
            inverse=inverse,
            modified=NumericTable._from_validated(table.column_names, rows),
            partition=part,
            slots=own,
            fills=own.take(new),
            predictions=predictions,
            W=W,
        )


def _first_draws(keys: np.ndarray):
    """Each draw's slot, the same for equal keys, whether it is the first
    draw of its key, and the slot count. `keys` are nonnegative and are
    overwritten.

    Slots are numbered in key order. When a key and the draw's position fit
    in an int64 together, the position goes in the low bits and one sort
    orders both; otherwise a stable argsort orders the keys.
    """
    draws = keys.shape[0]
    shift = (draws - 1).bit_length()
    if (int(keys.max()) + 1).bit_length() + shift <= 63:
        keys <<= shift
        keys += np.arange(draws)
        keys.sort()
        order = keys & ((1 << shift) - 1)
        keys >>= shift
    else:
        order = np.argsort(keys, kind="stable")
        keys = keys.take(order)
    # the first of each run of equal keys is the key's first draw
    first = np.empty(draws, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    drawn_first = np.empty(draws, dtype=bool)
    drawn_first[order] = first
    first[0] = False  # so that the runs count from 0
    runs = np.cumsum(first, out=keys)  # the sorted keys are not needed again
    slots = np.empty(draws, dtype=np.int32 if draws < 1 << 31 else np.int64)
    slots[order] = runs
    slots.setflags(write=False)
    return slots, drawn_first, int(runs[-1]) + 1


def _hierarchy(partitions, p: int, tree: MergeTree | None):
    """Node ids of each partition's aspects, and the code of every node pair.

    Node ids are the tree's (see `cluster`), so the root, every column, is
    the last of the M nodes. The code of nodes a and b names the columns
    they cover together: min(a, b) * M + max(a, b), or c * (M + 1), the code
    of c with itself, when a and b are the two children of c; the root's
    code, (M - 1) * (M + 1), is the largest. Without a tree, the one
    partition's m aspects are nodes 0..m-1 under a root m, siblings when
    m = 2; a single aspect is the root itself. The M x M codes are no larger
    than the first partition's W times 4.
    """
    if tree is None:
        (part,) = partitions
        m = part.m
        nodes, M = [np.arange(m)], m + 1 if m > 1 else 1
        families = [(0, 1, 2)] if m == 2 else []
    else:
        # a node of the tree is fixed by its first column and its size
        node_of = {(j, 1): j for j in range(p)}
        node_of.update(((merge.members[0], len(merge.members)), p + t)
                       for t, merge in enumerate(tree.merges))
        nodes = [np.array([node_of[ms[0], len(ms)] for _, ms in part.groups])
                 for part in partitions]
        M = 2 * p - 1
        families = [(merge.left, merge.right, p + t) for t, merge in enumerate(tree.merges)]
    codes = np.arange(M * M).reshape(M, M)
    codes = np.minimum(codes, codes.T)
    if families:
        left, right, parent = np.array(families).T
        codes[left, right] = codes[right, left] = parent * (M + 1)
    return nodes, codes


def build_design(
    table: NumericTable,
    x_star: Observation,
    partition: AspectPartition,
    N: int,
    rng: RngStream,
) -> SampleDesign:
    """Sample N source rows and flag one or two aspects per row for replacement.

    The row stream is derived independently of the partition, so designs
    built from the same rng share the same sampled rows A across different
    groupings; only the flags and replacements differ. This is the first
    design `_designs` plans for the one partition; a local triplot plans
    every tree level at once.
    """
    return next(_designs(table, x_star, N, rng, [partition]))


def delta_predictions(model: ModelAdapter, design: SampleDesign) -> np.ndarray:
    """The prediction shifts f(A') - f(A), from at most two adapter calls.

    The first call scores `design.modified`, the modified rows that this
    design is the first of its plan to draw; it is skipped when there are
    none, and every other draw takes the prediction an earlier design of
    the plan scored. The second call scores each distinct row of A once,
    `design.distinct`, and `design.inverse` expands its predictions to A's N
    rows. Under the row-independence contract of `ModelAdapter` that equals
    scoring all N rows of A' and of A. A shift that overflows comes out
    infinite, and one whose row no design scored yet comes out NaN, for
    `_design_matrices` to reject.
    """
    if design.modified.n:
        design.predictions[design.fills] = predict(model, design.modified)
    with np.errstate(over="ignore"):
        return design.predictions.take(design.slots) - predict(model, design.distinct)[design.inverse]


def _design_matrices(design: SampleDesign, ym: np.ndarray):
    X = design.X_prime.astype(np.float64)
    y = np.asarray(ym, dtype=np.float64).reshape(-1)
    if y.shape[0] != design.N:
        raise AspectraError(f"expected {design.N} prediction shifts, got {y.shape[0]}")
    W = design.W
    # every row flags an aspect, so a shift that overflowed, or was taken
    # from a design not yet scored, makes Z non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        Z = X.T @ y
    if not np.isfinite(Z).all():
        raise NonFiniteShift()
    return X, y, W, Z


def _check_nonsingular(W: np.ndarray, partition: AspectPartition) -> None:
    never = [partition.names[j] for j in range(W.shape[0]) if W[j, j] == 0.0]
    if never:
        raise SingularDesign(f"aspects never sampled: {', '.join(never)}")
    if np.linalg.matrix_rank(W) < W.shape[0]:
        raise SingularDesign("aspect flag columns are collinear")


def fit_ols(design: SampleDesign, ym: np.ndarray) -> SurrogateFit:
    """Closed-form surrogate coefficients from the normal equations."""
    X, y, W, Z = _design_matrices(design, ym)
    _check_nonsingular(W, design.partition)
    gamma = np.linalg.solve(W, Z)
    return SurrogateFit(gamma=gamma, W=W, Z=Z, X=X, y=y)


def _sign(v: float) -> float:
    return 1.0 if v > 0.0 else -1.0 if v < 0.0 else 0.0


def _lasso_path(W: np.ndarray, Z: np.ndarray):
    """Walk the exact lasso path on (W, Z) downwards, in t = N * lambda.

    Yields (t_low, P) per segment, from t = max|Z| down to 0: on
    (t_low, t_high], t_high the previous t_low, the coefficients in the
    index array P are nonzero and all others are 0. With signs s_P the
    segment has w_P(t) = W_PP^-1 (Z_P - t s_P), and the correlations
    c(t) = Z - W_.P w_P(t) are linear in t too. The segment ends at the
    largest t below its top where an inactive |c_j| reaches t (a join) or an
    active w_k reaches 0 (a drop): one m_P x m_P solve per segment (Osborne,
    Presnell & Turlach 2000; Efron et al. 2004, the lasso variant of LARS).
    Events within a relative _TIE of each other happen at one knot, and
    _knot_active_set picks the active set below it.

    The solve and the two products over W_P run in numpy; the event search
    runs on Python floats, whose element-wise IEEE arithmetic is numpy's, so
    the knots are the same either way.

    A column of zeros never joins. An inactive column collinear with the
    active set has c_j = t * const along the segment; if |const| < 1 it never
    joins. If |const| = 1 the lasso solution is not unique there, and which
    coefficients coordinate descent leaves nonzero depends on rounding, so
    that raises SingularDesign.
    """
    m = Z.shape[0]
    diag = W.diagonal().tolist()
    z = Z.tolist()
    # row j: a slot for column j's sign, Z_j and W_j., the segment solve's
    # right-hand side once the slot is filled
    rhs_rows = np.column_stack((np.zeros(m), Z, W))
    t = max(abs(v) for v in z)
    tied = joining = [j for j in range(m) if abs(z[j]) >= t * (1.0 - _TIE)]
    kept = []
    signs = [0.0] * m  # on the active set and the columns tied at a knot
    for j in tied:
        signs[j] = _sign(z[j])
    seen = set()
    while True:
        P, sol = _knot_active_set(W, rhs_rows, kept, tied, joining, signs)
        P_list = P.tolist()
        s_P = [signs[j] for j in P_list]
        signs = [0.0] * m
        for j, s in zip(P_list, s_P):
            signs[j] = s
        pattern = tuple(signs)
        if pattern in seen:  # exact arithmetic never revisits a sign pattern
            raise SingularDesign("the lasso path revisits an active set")
        seen.add(pattern)
        W_P = W[P]
        beta, a_W = (sol[:, :2].T @ W_P).tolist()
        projected = np.einsum("ij,ij->j", W_P, sol[:, 2:]).tolist()
        b, a = sol[:, 0].tolist(), sol[:, 1].tolist()  # w_P(t) = a - t b
        alpha = [zj - aj for zj, aj in zip(z, a_W)]  # c(t) = alpha + t beta
        free = [j for j in range(m) if signs[j] == 0.0 and diag[j] > 0.0]
        # roots within _TIE below t belong to the knot just resolved
        below = t * (1.0 - _TIE)
        join = [0.0] * m  # per column, its largest root below t, or 0
        for j in free:
            collinear = diag[j] - projected[j] <= _TIE * diag[j]
            # |c_j| = t all along the segment: w_j = 0 is a solution, the only
            # one unless the column is collinear with the active set
            rides = abs(alpha[j]) <= _TIE * t and abs(beta[j]) >= 1.0 - _TIE
            if rides and collinear:
                raise SingularDesign("aspect flag columns are collinear")
            if collinear or rides:
                continue
            for edge in (1.0, -1.0):  # c_j = +t, c_j = -t
                if beta[j] != edge:
                    root = alpha[j] / (edge - beta[j])
                    if 0.0 < root < below and root > join[j]:
                        join[j] = root
        drop = [0.0] * len(P_list)
        for k, (ak, bk) in enumerate(zip(a, b)):
            if bk != 0.0:
                root = ak / bk
                if 0.0 < root < below:
                    drop[k] = root
        t = max(max(join), max(drop))
        yield t, P
        if t == 0.0:
            return
        # tied at the new knot: the columns whose root is here, and every
        # other free column with |c_j| = t (a rider)
        at_knot = t * (1.0 - _TIE)
        boundary = []
        for j in free:
            c = alpha[j] + t * beta[j]
            if abs(c) >= at_knot:
                signs[j] = _sign(c)
                boundary.append(j)
        kept = [j for j, root in zip(P_list, drop) if root < at_knot]
        tied = [j for j, root in zip(P_list, drop) if root >= at_knot] + boundary
        joining = [j for j in range(m) if join[j] >= at_knot]


def _knot_active_set(W, rhs_rows, kept, tied, joining, signs):
    """The active set just below a knot, and its segment solve.

    `kept` stay active; each `tied` column sits on the boundary (|c_j| = t, or
    an active w_j = 0) with sign signs[j]. Going down, the coefficients move
    by b = W_PP^-1 s_P on the new active set P = kept + joined. A tied column
    belongs to P when it moves away from 0 in its own sign (s_j b_j > 0); one
    left out must have its correlation fall at least as fast as t
    (s_j W_jP b >= 1). Exactly one subset satisfies both when W_PP is
    positive definite. A single join or drop, the usual case, is tried
    first: `joining` is the column whose root made the knot, if any. Then
    the subsets of `tied` are searched, smallest first, so that of two
    copied columns the first joins.

    The solve's right-hand side is rows P of `rhs_rows` with column 0 set to
    s_P, so sol holds b, then a = W_PP^-1 Z_P, then W_PP^-1 W_P.
    """
    if len(tied) > _MAX_TIED:
        raise SingularDesign(f"{len(tied)} aspects tie at one point of the lasso path")
    subsets = itertools.chain(
        [joining] if len(joining) <= 1 else [],
        (c for n in range(len(tied) + 1) for c in itertools.combinations(tied, n)),
    )
    for subset in subsets:
        P_list = kept + list(subset)
        if not P_list:  # leaves every tied |c_j| = t above t
            continue
        P = np.array(P_list, dtype=np.intp)
        rhs = rhs_rows[P]
        rhs[:, 0] = [signs[j] for j in P_list]
        try:
            sol = np.linalg.solve(W[P[:, None], P], rhs)
        except np.linalg.LinAlgError:
            raise SingularDesign("aspect flag columns are collinear") from None
        b = sol[:, 0]
        if not all(signs[j] * bj > 0.0 for j, bj in zip(subset, b[len(kept):].tolist())):
            continue
        out = [j for j in tied if j not in subset]
        if not out or all(
            signs[j] * v >= 1.0 - _TIE
            for j, v in zip(out, (W[np.array(out)[:, None], P] @ b).tolist())
        ):
            return P, sol
    raise SingularDesign("no active set continues the lasso path")


def fit_lasso(design: SampleDesign, ym: np.ndarray, limit: int) -> SurrogateFit:
    """Smallest-lambda L1 fit keeping at most `limit` nonzero contributions.

    Lasso on the raw binary design (no standardization, no intercept);
    limit = m takes the plain least-squares path. Otherwise the exact lasso
    path on W = X'^T X' and Z = X'^T Y is walked down from
    lambda_max = max_j |Z[j]| / N, where every coefficient is 0, and stops at
    the first segment with more than `limit` nonzero coefficients (the lasso
    variant of LARS). The knot on top of it is the returned lambda, the
    smallest at which the cap holds for every larger lambda too: lambda_max
    if limit = 0 or the cap breaks at the top, 0 if it holds along the whole
    path. One coordinate descent solve over the active set above the knot
    gives gamma; if it spends all LASSO_MAX_SWEEPS sweeps, LassoNotConverged
    is raised.
    """
    m = design.m
    if not 0 <= limit <= m:
        raise AspectraError(f"limit must be in [0, {m}], got {limit}")
    if limit >= m:
        fit = fit_ols(design, ym)
        nnz = int(np.count_nonzero(fit.gamma))
        return SurrogateFit(
            gamma=fit.gamma, W=fit.W, Z=fit.Z, X=fit.X, y=fit.y, lam=0.0, path=((0.0, nnz),),
        )
    X, y, W, Z = _design_matrices(design, ym)
    t = float(np.max(np.abs(Z)))  # the knot reached, in t = N * lambda
    trace = [(t / design.N, 0)]
    gamma = np.zeros(m)
    # Z = 0 has no path to walk, and limit = 0 holds only at the top
    if limit > 0 and t > 0.0:
        kept = None  # the active set above t
        for t_low, P in _lasso_path(W, Z):
            if P.shape[0] > limit:
                break
            t, kept = t_low, np.sort(P)
            trace.append((t / design.N, P.shape[0]))
        if kept is not None:
            sub, sweeps = _kernels.lasso_cd(
                W[np.ix_(kept, kept)], Z[kept], t, LASSO_MAX_SWEEPS, LASSO_TOL
            )
            if sweeps >= LASSO_MAX_SWEEPS:
                raise LassoNotConverged(t / design.N, sweeps)
            gamma[kept] = sub
    return SurrogateFit(gamma=gamma, W=W, Z=Z, X=X, y=y, lam=trace[-1][0], path=tuple(trace))


def _fit_surrogate(model: ModelAdapter, design: SampleDesign, limit: int | None) -> SurrogateFit:
    """Score a design and fit the surrogate.

    gamma is aligned to `design.partition.member_sets`; limit=None fits by
    OLS. A limit at or above the aspect count is the uncapped fit, so a
    coarse partition takes min(limit, m).
    """
    ym = delta_predictions(model, design)
    if limit is None:
        return fit_ols(design, ym)
    return fit_lasso(design, ym, min(limit, design.m))


def _aspect_rows(partition: AspectPartition, gamma, table: NumericTable, method: str, C):
    """Rows ordered by |contribution|; C is the table's correlation matrix
    under `method`, or None to compute it only if some aspect needs it."""
    if C is None and any(len(ms) > 1 for ms in partition.member_sets):
        C = correlation_matrix(table, method)
    rows = []
    for g, (name, members) in enumerate(partition.groups):
        if len(members) == 1:
            min_abs, consistent = 1.0, True
        else:
            idx = list(members)
            sub = C[np.ix_(idx, idx)]
            off = sub[~np.eye(len(idx), dtype=bool)]
            min_abs = float(np.min(np.abs(off)))
            consistent = bool(np.all(off >= 0.0) or np.all(off <= 0.0))
        rows.append(
            AspectRow(
                name=name,
                members=tuple(table.column_names[i] for i in members),
                contribution=float(gamma[g]),
                min_abs_cor=min_abs,
                sign_consistent=consistent,
            )
        )
    rows.sort(key=lambda r: -abs(r.contribution))
    return tuple(rows)


def predict_aspects(
    model: ModelAdapter,
    table: NumericTable,
    x_star: Observation,
    grouping,
    N: int = 2000,
    seed: int = 0,
    limit: int | None = None,
    method: str = "spearman",
) -> AspectExplanation:
    """Explain one prediction as contributions of variable groups.

    `grouping` is either an AspectPartition or a correlation cutoff in
    [0, 1]; a cutoff delegates the grouping to group_variables. With `limit`
    set, at most that many aspects keep a nonzero contribution; a limit at or
    above the number of aspects the grouping gives fits without a cap, as
    limit = m does. A negative limit raises AspectraError.
    """
    if isinstance(grouping, AspectPartition):
        partition, C = grouping, None
    else:
        partition, C = _group_variables(table, float(grouping), method)
    design = build_design(table, x_star, partition, N, RngStream(seed))
    fit = _fit_surrogate(model, design, limit)
    return AspectExplanation(
        aspects=_aspect_rows(partition, fit.gamma, table, method, C),
        N=N,
        seed=seed,
        lam=fit.lam,
    )
