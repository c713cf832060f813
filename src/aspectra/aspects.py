"""Local aspect importance: binary replacement designs and surrogate fits.

The explainer samples N rows, flags one or two aspects per sampled row, and
overwrites the flagged aspects' columns with the explained observation's
values. A design holds each draw's two flags, not the N x m binary design
X' they define. The difference between modified and unmodified predictions
is regressed on X' through its normal equations alone: `_normal_equations`
forms W = X'^T X' and Z = X'^T Y, the solvers' only inputs. The
coefficients are the aspect contributions. An L1-limited variant caps how
many aspects stay nonzero, at the knot of the exact lasso path where the
cap first breaks.

The sampled rows do not depend on the grouping: `_designs` draws them
once, and each level it plans draws only its flags. A local triplot hands
its tree to one `_designs` run, which takes every level from one walk of
it, and `build_design` is its design for one partition. Each distinct row
is scored once: f(A) on A's distinct rows, and f(A') once per slot of the
plan, a distinct (sampled row, replaced columns) pair of any level.
`_scored_designs` scores the K slots in slot order, one row each, in calls
of _STACK_VALUES // p rows (at least one; see `models._stacked_predictions`),
before it returns any design. A local triplot over p columns so makes its
A' calls, then p calls for f(A), one per level. Scoring f(A) once for all
levels waits for the benchmark's tracer test, which relies on that repeat.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .cluster import CORRELATION_METHODS, MergeTree, _levels, correlation_matrix, group_variables
from .data import (
    AspectPartition,
    NumericTable,
    Observation,
    RngStream,
    _FINITE,
    _check_tsv_names,
    _choice,
    _instance,
    _integer,
    _real,
    _json_text,
    _malformed,
    _names,
    _rekey,
    _tsv_number,
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
from .models import ModelAdapter, _stacked_predictions, predict

_K_ROWS = 0xA001
_K_FLAGS = 0xF1A6

LASSO_MAX_SWEEPS = 100_000
LASSO_TOL = 1e-10
_TIE = 1e-9  # relative: path events this close happen at one knot
_MAX_TIED = 12  # columns tied at one knot; the active set search is 2^tied

# at most this many values (rows x columns) of A' rows per model call, or
# one row when a row alone is more. Below it `LinearModel` rounds no row by
# its position with OpenBLAS 0.3.31 on one thread or two, so a triplot level
# equals `predict_aspects` bit for bit; with two threads some products round
# rows by position from about 4.6e5 values. More threads are untested.
_STACK_VALUES = 1 << 17


@dataclass(frozen=True)
class SampleDesign:
    """Sampled rows A, each draw's aspect flags, and where its A' row is scored.

    Draw i flags aspects flags[i, 0] and flags[i, 1], drawn with replacement
    (they coincide with probability 1/m), so row i of the binary design X'
    has one or two entries set; `_normal_equations` reads X' off the flags.
    Draw i's modified row A'[i] equals the explained observation x* at
    column j when column j's aspect is flagged in draw i, otherwise A[i, j].

    The model scores read-only tables under the explained table's column
    names. `distinct` holds each distinct sampled row once, in ascending row
    id, and `inverse` maps A onto it: A[i] = distinct[inverse[i]], so f(A)
    is f(distinct)[inverse]. Designs from one `_designs` run share
    `row_ids`, `distinct` and `inverse`, all read-only.

    A' is scored once per distinct modified row: two draws share a row when
    they replace the same columns of the same sampled row, or when they
    replace every column, which makes the row the observation itself. The
    designs that one `_designs` run plans share `predictions`, one slot per
    distinct modified row of them all, NaN until `_scored_designs` scores
    it. f(A'[i]) is predictions[slots[i]]. A design holds no A' rows; the
    plan's writer builds them (see `_designs`).
    """

    row_ids: np.ndarray
    flags: np.ndarray  # N x 2, read-only: the two aspects each draw flags
    distinct: NumericTable
    inverse: np.ndarray
    partition: AspectPartition  # the design's level: one cut of a tree, or the one partition
    slots: np.ndarray  # N, each draw's slot in `predictions`
    predictions: np.ndarray  # shared by the designs of one plan

    @property
    def N(self) -> int:
        return self.flags.shape[0]

    @property
    def m(self) -> int:
        return self.partition.m


@dataclass(frozen=True)
class SurrogateFit:
    """Surrogate of the prediction shifts on the binary design X'.

    W = X'^T X' counts how often single aspects (diagonal) and aspect pairs
    (off-diagonal) were flagged together; Z = X'^T Y accumulates the shift
    per aspect. The fit reads nothing else: gamma solves W gamma = Z, or the
    capped lasso on them; there is no intercept term.
    """

    gamma: np.ndarray
    W: np.ndarray
    Z: np.ndarray
    lam: float | None = None
    # (lambda, nonzero count) at each knot of the exact lasso path walked,
    # the last at `lam`; gamma is one coordinate descent solve there
    path: tuple = ()


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
        """Rebuild an explanation from to_json_doc's output; a document that is
        not a dict, a missing field, or a field not of its kind (see the
        checks below) raises AspectraError. Other metadata keys are ignored."""
        try:
            meta = _instance("metadata", _instance("document", doc, dict).get("metadata", {}), dict)
            lam = meta.get("lambda", None)
            aspects = [_instance("aspect", a, dict)
                       for a in _instance("aspects", doc["aspects"], list)]
            return AspectExplanation(
                aspects=tuple(
                    AspectRow(
                        name=_instance("aspect name", a["name"], str),
                        members=tuple(_names("aspect members", a["members"])),
                        contribution=_real("contribution", a["contribution"], *_FINITE),
                        min_abs_cor=_real("min_abs_cor", a["min_abs_cor"], *_FINITE),
                        sign_consistent=_instance("sign_consistent", a["sign_consistent"], bool),
                    )
                    for a in aspects
                ),
                N=_integer("N", meta.get("N", 0)),
                seed=_integer("seed", meta.get("seed", 0)),
                lam=None if lam is None else _real("lambda", lam, *_FINITE),
            )
        except (KeyError, AspectraError) as e:
            raise _malformed("aspect document", e) from None


def _designs(table: NumericTable, x_star: Observation, N: int, rng: RngStream, grouping):
    """A design per level over one sample A, and the writer of their planned A' rows.

    The levels are the p cuts of the table's MergeTree `grouping`, or the one
    AspectPartition it is (see `_hierarchy`). The rows come from the stream
    `rng.child(_K_ROWS)` and each level's flags from `rng.child(_K_FLAGS)`,
    restarted per level, so every level sees the same rows A and the flags
    that `build_design` draws for it with the same rng. The designs share
    `row_ids`, `distinct` and `inverse`.

    A modified row is keyed by the columns it replaces and its sampled row.
    `_hierarchy` codes the columns from the two flagged aspects as tree
    nodes: two siblings replace their parent's columns, and the root, every
    column, has the largest code and makes the row x* whatever the sampled
    row. Each key is one slot of `predictions` (see `_first_draws`).

    `write(start, out)` writes the A' rows of slots start, start + 1, ...
    into `out`, a C-contiguous float64 array of as many rows and p columns:
    each slot's row is its first draw's. A cell takes x*'s value where its
    column's aspect is one of the draw's two flags at the draw's level, and
    the draw's sampled row elsewhere: copied values, so exact and already
    validated. The plan keeps only each slot's first draw; a call's levels,
    sampled rows and flags are looked up as it writes.
    """
    if x_star.p != table.p:
        raise SchemaMismatch(f"observation has {x_star.p} values, table has p={table.p}")
    partitions, nodes, codes = _hierarchy(grouping, table)
    if 8 * N * max(2, len(partitions)) > np.iinfo(np.intp).max:  # row ids, draws, keys
        raise AspectraError(f"N={N} sampled rows need arrays past numpy's size limit")
    row_ids = sampled_row_ids(table, N, rng.child(_K_ROWS))
    row_ids.setflags(write=False)
    ids, inverse = np.unique(row_ids, return_inverse=True)
    inverse.setflags(write=False)
    # rows of the validated table need no checking again
    distinct = NumericTable._from_validated(table.column_names, table.values[ids])
    M, n_rows = codes.shape[0], distinct.n
    codes = codes.reshape(-1)

    stream = rng.child(_K_FLAGS)
    gen = stream.generator()
    keys = np.empty((len(partitions), N), dtype=np.int64)
    flag_type = np.min_scalar_type(max(part.m for part in partitions))
    flags = np.empty((len(partitions), N, 2), dtype=flag_type)
    aspect_of = np.empty((len(partitions), table.p), dtype=flag_type)  # per level: column -> aspect
    # no view of `keys` outlives the loop, so that `del keys` frees it
    for k, (part, node, kl) in enumerate(zip(partitions, nodes, flags)):
        if N < part.m:
            raise AspectraError(f"need N >= m sampled rows, got N={N}, m={part.m}")
        for j, members in enumerate(part.member_sets):
            aspect_of[k, members] = j
        _rekey(gen.bit_generator, stream.seed, stream.stream_id)
        drawn = gen.integers(0, part.m, size=(N, 2))
        kl[...] = drawn
        pair = np.take(node, drawn[:, 0]) * M
        pair += np.take(node, drawn[:, 1])
        codes.take(pair, out=keys[k])
    flags.setflags(write=False)
    keys *= n_rows
    keys += inverse
    # a draw that replaces every column is x*: its key drops its sampled row
    np.minimum(keys, (M * M - 1) * n_rows, out=keys)
    slots, firsts = _first_draws(keys.reshape(-1))
    del keys
    predictions = np.full(firsts.shape[0], np.nan)

    def write(start: int, out: np.ndarray) -> None:
        level, draw = np.divmod(firsts[start:start + out.shape[0]], N)
        drawn, columns = flags[level, draw], aspect_of.take(level, axis=0)
        flagged = (drawn[:, :1] == columns) | (drawn[:, 1:] == columns)
        # indices in range: "clip" only spares `take` a buffered copy of out
        distinct.values.take(inverse.take(draw), axis=0, out=out, mode="clip")
        # putmask repeats x* over out's cells, p to a row, so a flagged cell
        # takes x*'s value at its column
        np.putmask(out, flagged, x_star.values)

    designs = [
        SampleDesign(
            row_ids=row_ids,
            flags=kl,
            distinct=distinct,
            inverse=inverse,
            partition=part,
            slots=slots[k * N:(k + 1) * N],
            predictions=predictions,
        )
        for k, (part, kl) in enumerate(zip(partitions, flags))
    ]
    return designs, write


def _scored_designs(model: ModelAdapter, table: NumericTable, x_star: Observation, N: int,
                    rng: RngStream, grouping):
    """`_designs`' designs, once the model has scored every slot of their plan.

    `models._stacked_predictions` scores the slots in slot order, one row
    each, _STACK_VALUES // p of them (at least one) to a call, and each
    call's predictions fill their slots of the shared, then read-only,
    `predictions` before any design is returned.
    """
    designs, write = _designs(table, x_star, N, rng, grouping)
    predictions = designs[0].predictions
    n_slots = predictions.shape[0]
    buffer = np.empty((min(max(1, _STACK_VALUES // table.p), n_slots), table.p))
    for start, scored in _stacked_predictions(model, table.column_names, buffer, n_slots, write):
        predictions[start:start + scored.shape[0]] = scored
    predictions.setflags(write=False)
    return designs


def _first_draws(keys: np.ndarray):
    """Each draw's slot, the same for equal keys, and each slot's first
    draw, in slot order. `keys` are nonnegative and are overwritten.

    Slots are numbered in key order. When a key and the draw's position fit
    in an int64 together, the position goes in the low bits and one sort
    orders both; otherwise a stable argsort orders the keys. Either way the
    first of each run of equal keys is the key's first draw.
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
    first = np.empty(draws, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    firsts = order[first]
    firsts.setflags(write=False)
    first[0] = False  # so that the runs count from 0
    runs = np.cumsum(first, out=keys)  # the sorted keys are not needed again
    slots = np.empty(draws, dtype=np.int32 if draws < 1 << 31 else np.int64)
    slots[order] = runs
    slots.setflags(write=False)
    return slots, firsts


def _hierarchy(grouping, table: NumericTable):
    """Each level's partition, its aspects' node ids, and the code of every node pair.

    A MergeTree's levels are its cuts (`cluster._levels`) under its node ids,
    so the root, every column, is the last of the M nodes. An AspectPartition
    is validated and is the one level: its m aspects are nodes 0..m-1 under a
    root m, siblings when m = 2; a single aspect is the root itself. Nodes a
    and b have the code min(a, b) * M + max(a, b), naming the columns they
    cover, or c * (M + 1) as the two children of c. The root's code,
    (M - 1) * (M + 1), is the largest, below 4 m^2 for the first level's m.
    """
    if isinstance(grouping, MergeTree):
        nodes, partitions = zip(*_levels(grouping, table.column_names))
        M = 2 * grouping.p - 1
        families = [(m.left, m.right, grouping.p + t) for t, m in enumerate(grouping.merges)]
    else:
        validate_partition(grouping, table.p)
        m, partitions = grouping.m, [grouping]
        nodes, M = [np.arange(m)], m + 1 if m > 1 else 1
        families = [(0, 1, 2)] if m == 2 else []
    codes = np.arange(M * M).reshape(M, M)
    codes = np.minimum(codes, codes.T)
    if families:
        left, right, parent = np.array(families).T
        codes[left, right] = codes[right, left] = parent * (M + 1)
    return partitions, nodes, codes


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
    every tree level at once. Its A' rows are not scored:
    `delta_predictions` on it comes out NaN, and only the designs that
    `_scored_designs` returns carry f(A'). Nothing in the package calls it.
    """
    return _designs(table, x_star, N, rng, partition)[0][0]


def delta_predictions(model: ModelAdapter, design: SampleDesign) -> np.ndarray:
    """The prediction shifts f(A') - f(A), from one adapter call for f(A).

    f(A') is read from `design.predictions`, which `_scored_designs` fills
    before it returns the design. The call scores each distinct row of A
    once, `design.distinct`, and `design.inverse` expands its predictions to
    A's N rows. Under the row-independence contract of `ModelAdapter` that
    equals scoring all N rows of A' and of A. A shift that overflows comes
    out infinite, and one whose row is not scored yet comes out NaN, for
    `_normal_equations` to reject.
    """
    with np.errstate(over="ignore"):
        return design.predictions.take(design.slots) - predict(model, design.distinct)[design.inverse]


def _normal_equations(design: SampleDesign, ym: np.ndarray):
    """W = X'^T X' and Z = X'^T Y from the design's flags and the shifts Y.

    W counts the draws flagging each aspect (diagonal) and each aspect pair
    by one bincount; a draw whose flags coincide counts once. Z multiplies
    Y by X' built as floats, so that BLAS sums it as it always has.
    """
    N, m = design.N, design.m
    y = np.asarray(ym, dtype=np.float64).reshape(-1)
    if y.shape[0] != N:
        raise AspectraError(f"expected {N} prediction shifts, got {y.shape[0]}")
    first, second = design.flags[:, 0], design.flags[:, 1]
    cell = first.astype(np.intp) * m + second
    pairs = np.bincount(cell, minlength=m * m).reshape(m, m)
    W = (pairs + pairs.T).astype(np.float64)
    W[np.diag_indices(m)] = pairs.sum(axis=0) + pairs.sum(axis=1) - pairs.diagonal()
    X = np.zeros((N, m))
    flat, at = X.reshape(-1), np.arange(0, N * m, m)
    flat[at + first] = 1.0
    flat[at + second] = 1.0
    # every row flags an aspect, so a shift that overflowed, or was taken
    # from a design not yet scored, makes Z non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        Z = X.T @ y
    if not np.isfinite(Z).all():
        raise NonFiniteShift()
    return W, Z


def _check_nonsingular(W: np.ndarray, partition: AspectPartition) -> None:
    never = [partition.names[j] for j in range(W.shape[0]) if W[j, j] == 0.0]
    if never:
        raise SingularDesign(f"aspects never sampled: {', '.join(never)}")
    if np.linalg.matrix_rank(W) < W.shape[0]:
        raise SingularDesign("aspect flag columns are collinear")


def fit_ols(W, Z, partition: AspectPartition) -> SurrogateFit:
    """Closed-form coefficients solving W gamma = Z; `partition` names unflagged aspects."""
    _check_nonsingular(W, partition)
    return SurrogateFit(gamma=np.linalg.solve(W, Z), W=W, Z=Z)


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


def fit_lasso(W, Z, N: int, partition: AspectPartition, limit: int) -> SurrogateFit:
    """Smallest-lambda L1 fit keeping at most `limit` nonzero contributions.

    Lasso on the raw binary design of N draws (no standardization, no
    intercept), given by W = X'^T X' and Z = X'^T Y alone (see
    `_normal_equations`). `limit` must be an integer >= 0; a limit of m or
    more caps nothing and takes the plain least-squares path.
    Otherwise the exact lasso path on (W, Z) is walked down from
    lambda_max = max_j |Z[j]| / N, where every coefficient is 0, and stops at
    the first segment with more than `limit` nonzero coefficients (the lasso
    variant of LARS). The knot on top of it is the returned lambda, the
    smallest at which the cap holds for every larger lambda too: lambda_max
    if limit = 0 or the cap breaks at the top, 0 if it holds along the whole
    path. One coordinate descent solve over the active set above the knot
    gives gamma; if it spends all LASSO_MAX_SWEEPS sweeps, LassoNotConverged
    is raised.
    """
    m, limit = partition.m, _integer("limit", limit, 0)
    if limit >= m:
        gamma = fit_ols(W, Z, partition).gamma
        return SurrogateFit(gamma=gamma, W=W, Z=Z, lam=0.0,
                            path=((0.0, int(np.count_nonzero(gamma))),))
    t = float(np.max(np.abs(Z)))  # the knot reached, in t = N * lambda
    trace = [(t / N, 0)]
    gamma = np.zeros(m)
    # Z = 0 has no path to walk, and limit = 0 holds only at the top
    if limit > 0 and t > 0.0:
        kept = None  # the active set above t
        for t_low, P in _lasso_path(W, Z):
            if P.shape[0] > limit:
                break
            t, kept = t_low, np.sort(P)
            trace.append((t / N, P.shape[0]))
        if kept is not None:
            sub, sweeps = _kernels.lasso_cd(
                W[np.ix_(kept, kept)], Z[kept], t, LASSO_MAX_SWEEPS, LASSO_TOL
            )
            if sweeps >= LASSO_MAX_SWEEPS:
                raise LassoNotConverged(t / N, sweeps)
            gamma[kept] = sub
    return SurrogateFit(gamma=gamma, W=W, Z=Z, lam=trace[-1][0], path=tuple(trace))


def _fit_surrogate(model: ModelAdapter, design: SampleDesign, limit: int | None) -> SurrogateFit:
    """Score a design and fit the surrogate on its normal equations.

    gamma is aligned to `design.partition.member_sets`; limit=None fits by
    OLS, and a limit at or above the aspect count is the uncapped fit.
    """
    W, Z = _normal_equations(design, delta_predictions(model, design))
    if limit is None:
        return fit_ols(W, Z, design.partition)
    return fit_lasso(W, Z, design.N, design.partition, limit)


def _aspect_rows(partition: AspectPartition, gamma, table: NumericTable, C):
    """Rows ordered by |contribution|; C is the table's correlation matrix,
    read only for an aspect of two or more columns (None if there is none)."""
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
    [0, 1], which group_variables turns into a partition. With `limit` set,
    at most that many aspects keep a nonzero contribution; a limit at or
    above the number of aspects the grouping gives fits without a cap, as
    limit = m does. The partition is checked, and the table's `method`
    correlation matrix read if an aspect has two or more columns, before any
    model call. So an N, seed or limit that is not an integer (a numpy
    integer is stored as int), an N below 1, a negative limit, a cutoff
    outside [0, 1], a `method` outside `cluster.CORRELATION_METHODS`, a
    partition not covering the table, a constant column in such an aspect or
    an argument of another type raises AspectraError before any model call.
    """
    _instance("table", table, NumericTable)
    _instance("x_star", x_star, Observation)
    N, seed = _integer("N", N, 1), _integer("seed", seed)
    if limit is not None:
        limit = _integer("limit", limit, 0)
    _choice("correlation method", method, CORRELATION_METHODS)
    partition = (grouping if isinstance(grouping, AspectPartition)
                 else group_variables(table, _real("grouping", grouping), method))
    validate_partition(partition, table.p)
    multi = any(len(ms) > 1 for ms in partition.member_sets)
    C = correlation_matrix(table, method) if multi else None
    (design,) = _scored_designs(model, table, x_star, N, RngStream(seed), partition)
    fit = _fit_surrogate(model, design, limit)
    return AspectExplanation(
        aspects=_aspect_rows(partition, fit.gamma, table, C),
        N=N,
        seed=seed,
        lam=fit.lam,
    )
