"""Local aspect importance: binary replacement designs and surrogate fits.

The explainer samples N rows, flags one or two aspects per sampled row, and
overwrites the flagged aspects' columns with the explained observation's
values. The difference between modified and unmodified predictions is then
regressed on the binary flag matrix; the coefficients are the aspect
contributions. An L1-limited variant caps how many aspects stay nonzero by
searching for the smallest regularization strength that honours the cap.
"""

from __future__ import annotations

import bisect
import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .cluster import _group_variables, correlation_matrix
from .data import (
    AspectPartition,
    NumericTable,
    Observation,
    RngStream,
    _check_tsv_names,
    _finite_float,
    sampled_row_ids,
    validate_partition,
)
from .errors import AspectraError, LassoNotConverged, SchemaMismatch, SingularDesign
from .models import ModelAdapter, predict

_K_ROWS = 0xA001
_K_FLAGS = 0xF1A6

LASSO_MAX_SWEEPS = 100_000
LASSO_TOL = 1e-10
BISECT_REL_TOL = 1e-6
_TIE = 1e-9  # relative: path events this close happen at one knot
_MAX_TIED = 12  # columns tied at one knot; the active set search is 2^tied


@dataclass(frozen=True)
class SampleDesign:
    """Sampled rows A, binary flag matrix, and the modified rows A'.

    Every row of the flag matrix has one or two entries set: the two aspect
    indices are drawn with replacement, so they may coincide (probability
    1/m). A'[i, j] equals the explained observation at j when column j's
    aspect is flagged in row i, otherwise A[i, j].

    `original` holds A and `modified` holds A', both N x p read-only tables
    under the explained table's column names; they are the two tables the
    model scores.
    """

    row_ids: np.ndarray
    X_prime: np.ndarray  # N x m, int8
    original: NumericTable
    modified: NumericTable
    partition: AspectPartition

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
    per aspect. gamma solves W gamma = Z; there is no intercept term.
    """

    gamma: np.ndarray
    W: np.ndarray
    Z: np.ndarray
    residual_norm: float
    lam: float | None = None
    # (lambda, nonzero count) per bisection step, the count read off the exact
    # lasso path; gamma is one coordinate descent solve at `lam`
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
        lines = [f"# N\t{self.N}", f"# seed\t{self.seed}", f"# lambda\t{self.lam!r}"]
        lines.append("aspect\tmembers\tcontribution\tmin_abs_cor\tsign_consistent")
        for a in self.aspects:
            lines.append(
                f"{a.name}\t{','.join(a.members)}\t{a.contribution!r}"
                f"\t{a.min_abs_cor!r}\t{a.sign_consistent}"
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
        return json.dumps(self.to_json_doc(), indent=2)

    @staticmethod
    def from_json_doc(doc: dict) -> "AspectExplanation":
        """Rebuild an explanation from to_json_doc's output; a malformed
        document raises AspectraError; metadata keys other than N, seed and
        lambda are ignored."""
        try:
            meta = dict(doc.get("metadata", {}))
            N = meta.get("N", 0)
            seed = meta.get("seed", 0)
            lam = meta.get("lambda", None)
            rows = tuple(
                AspectRow(
                    name=str(a["name"]),
                    members=tuple(str(c) for c in a["members"]),
                    contribution=_finite_float(a["contribution"]),
                    min_abs_cor=_finite_float(a["min_abs_cor"]),
                    sign_consistent=bool(a["sign_consistent"]),
                )
                for a in doc["aspects"]
            )
            lam = None if lam is None else _finite_float(lam)
        except (KeyError, TypeError, ValueError) as e:
            raise AspectraError(f"malformed aspect document: {type(e).__name__}: {e}") from None
        return AspectExplanation(aspects=rows, N=N, seed=seed, lam=lam)


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
    groupings; only the flags and replacements differ.
    """
    validate_partition(partition, table.p)
    if x_star.p != table.p:
        raise SchemaMismatch(f"observation has {x_star.p} values, table has p={table.p}")
    m = partition.m
    if N < m:
        raise AspectraError(f"need N >= m sampled rows, got N={N}, m={m}")
    row_ids = sampled_row_ids(table, N, rng.child(_K_ROWS))
    A = table.values[row_ids]
    kl = rng.child(_K_FLAGS).generator().integers(0, m, size=(N, 2))
    X_prime = np.zeros((N, m), dtype=np.int8)
    X_prime[np.arange(N), kl[:, 0]] = 1
    X_prime[np.arange(N), kl[:, 1]] = 1
    aspect_of = np.empty(table.p, dtype=np.intp)  # column -> its aspect
    for j, members in enumerate(partition.member_sets):
        aspect_of[list(members)] = j
    A_prime = np.where(X_prime[:, aspect_of] == 1, x_star.values, A)
    # A holds rows of the validated table and A' mixes them with the
    # validated observation, so neither needs checking again
    names = table.column_names
    return SampleDesign(
        row_ids=row_ids,
        X_prime=X_prime,
        original=NumericTable._from_validated(names, A),
        modified=NumericTable._from_validated(names, A_prime),
        partition=partition,
    )


def delta_predictions(model: ModelAdapter, design: SampleDesign) -> np.ndarray:
    """The prediction shifts f(A') - f(A), exactly two adapter calls."""
    return predict(model, design.modified) - predict(model, design.original)


def _design_matrices(design: SampleDesign, ym: np.ndarray):
    X = design.X_prime.astype(np.float64)
    y = np.asarray(ym, dtype=np.float64).reshape(-1)
    if y.shape[0] != design.N:
        raise AspectraError(f"expected {design.N} prediction shifts, got {y.shape[0]}")
    W = X.T @ X
    Z = X.T @ y
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
    residual = float(np.linalg.norm(X @ gamma - y))
    return SurrogateFit(gamma=gamma, W=W, Z=Z, residual_norm=residual)


def _lasso_path(W: np.ndarray, Z: np.ndarray):
    """Walk the exact lasso path on (W, Z) downwards, in t = N * lambda.

    Yields (t_low, P) per segment, from t = max|Z| down to 0: on
    (t_low, t_high], t_high the previous t_low, the coefficients in the
    index array P are nonzero and all others are 0. With signs s_P the
    segment has w_P(t) = W_PP^-1 (Z_P - t s_P), and the correlations
    c(t) = Z - W_.P w_P(t) are linear in t too. The segment ends at the largest t below its top
    where an inactive |c_j| reaches t (a join) or an active w_k reaches 0 (a
    drop): one m_P x m_P solve per segment (Osborne, Presnell & Turlach 2000;
    Efron et al. 2004, the lasso variant of LARS). Events within a relative
    _TIE of each other happen at one knot, and _knot_active_set picks the
    active set below it.

    A column of zeros never joins. An inactive column collinear with the
    active set has c_j = t * const along the segment; if |const| < 1 it never
    joins. If |const| = 1 the lasso solution is not unique there, and which
    coefficients coordinate descent leaves nonzero depends on rounding, so
    that raises SingularDesign.
    """
    diag = W.diagonal()
    sampled = diag > 0.0
    ZW = np.column_stack((Z, W))
    plus_minus = np.array([[1.0], [-1.0]])  # join rows: c = +t, c = -t
    t = float(np.max(np.abs(Z)))
    kept = np.array([], dtype=np.intp)
    tied = joining = np.flatnonzero(np.abs(Z) >= t * (1.0 - _TIE))
    signs = np.zeros(Z.shape[0])  # on the active set and the columns tied at a knot
    signs[tied] = np.sign(Z[tied])
    seen = set()
    while True:
        P, sol = _knot_active_set(W, ZW, kept, tied, joining, signs)
        s_P = signs[P]
        signs[:] = 0.0
        signs[P] = s_P
        if signs.tobytes() in seen:  # exact arithmetic never revisits a sign pattern
            raise SingularDesign("the lasso path revisits an active set")
        seen.add(signs.tobytes())
        b, a = sol[:, 0], sol[:, 1]  # w_P(t) = a - t b
        W_P = W[P]
        beta, a_W = sol[:, :2].T @ W_P
        alpha = Z - a_W  # c(t) = alpha + t beta
        free = (signs == 0.0) & sampled
        collinear = free & (diag - np.einsum("ij,ij->j", W_P, sol[:, 2:]) <= _TIE * diag)
        # |c_j| = t all along the segment: w_j = 0 is a solution, the only one
        # unless the column is collinear with the active set
        rides = free & (np.abs(alpha) <= _TIE * t) & (np.abs(beta) >= 1.0 - _TIE)
        if np.any(rides & collinear):
            raise SingularDesign("aspect flag columns are collinear")
        with np.errstate(divide="ignore", invalid="ignore"):
            join = alpha / (plus_minus - beta)
            drop = a / b
        # roots within _TIE below t belong to the knot just resolved
        below = t * (1.0 - _TIE)
        join = np.where((join > 0.0) & (join < below) & (free & ~(collinear | rides)), join, 0.0)
        drop = np.where((drop > 0.0) & (drop < below), drop, 0.0)
        t = max(float(join.max(initial=0.0)), float(drop.max(initial=0.0)))
        yield t, P
        if t == 0.0:
            return
        # tied at the new knot: the columns whose root is here, and every
        # other free column with |c_j| = t (a rider)
        at_knot = t * (1.0 - _TIE)
        c = alpha + t * beta
        boundary = np.flatnonzero(free & (np.abs(c) >= at_knot))
        signs[boundary] = np.sign(c[boundary])
        drops = drop >= at_knot
        kept = P[~drops]
        tied = np.concatenate((P[drops], boundary))
        joining = np.flatnonzero(join.max(axis=0) >= at_knot)


def _knot_active_set(W, ZW, kept, tied, joining, signs):
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
    """
    if tied.shape[0] > _MAX_TIED:
        raise SingularDesign(f"{tied.shape[0]} aspects tie at one point of the lasso path")
    subsets = itertools.chain(
        [joining.tolist()] if joining.shape[0] <= 1 else [],
        (c for n in range(tied.shape[0] + 1) for c in itertools.combinations(tied.tolist(), n)),
    )
    for subset in subsets:
        joined = np.array(subset, dtype=np.intp)
        out = np.array([j for j in tied.tolist() if j not in subset], dtype=np.intp)
        P = np.concatenate((kept, joined))
        if P.size == 0:  # leaves every tied |c_j| = t above t
            continue
        try:
            sol = np.linalg.solve(W[P[:, None], P], np.column_stack((signs[P], ZW[P])))
        except np.linalg.LinAlgError:
            raise SingularDesign("aspect flag columns are collinear") from None
        b = sol[:, 0]
        if np.all(signs[joined] * b[kept.shape[0]:] > 0.0) and np.all(
            signs[out] * (W[out[:, None], P] @ b) >= 1.0 - _TIE
        ):
            return P, sol
    raise SingularDesign("no active set continues the lasso path")


def fit_lasso(design: SampleDesign, ym: np.ndarray, limit: int) -> SurrogateFit:
    """Smallest-lambda L1 fit keeping at most `limit` nonzero contributions.

    Lasso on the raw binary design (no standardization, no intercept);
    lambda found by bisection on [0, lambda_max] where
    lambda_max = max_j |Z[j]| / N zeroes every coefficient. limit = m takes
    the plain least-squares path.

    Each bisection step reads its nonzero count off the exact lasso path on
    W = X'^T X' and Z = X'^T Y, which is walked only as far down as the
    lowest step asks. The bracket arithmetic is that of a bisection that
    solves at every step, so lambda and `path` are the same. One coordinate
    descent solve at the returned lambda gives gamma, with the coefficients
    the path has at 0 kept at 0; if it spends all LASSO_MAX_SWEEPS sweeps,
    LassoNotConverged is raised.
    """
    m = design.m
    if not 0 <= limit <= m:
        raise AspectraError(f"limit must be in [0, {m}], got {limit}")
    if limit >= m:
        fit = fit_ols(design, ym)
        nnz = int(np.count_nonzero(fit.gamma))
        return SurrogateFit(
            gamma=fit.gamma, W=fit.W, Z=fit.Z, residual_norm=fit.residual_norm,
            lam=0.0, path=((0.0, nnz),),
        )
    X, y, W, Z = _design_matrices(design, ym)
    lam_max = float(np.max(np.abs(Z)) / design.N)
    segments = _lasso_path(W, Z)
    # negated segment bottoms, ascending for bisect, and their active sets
    neg_knots, actives = [], []

    def active_set(t):
        while not neg_knots or -neg_knots[-1] >= t:  # the last segment ends at 0 < t
            t_low, P = next(segments)
            neg_knots.append(-t_low)
            actives.append(P)
        # the first segment whose bottom lies below t
        return actives[bisect.bisect_right(neg_knots, -t)]

    lo = 0.0
    hi = lam_max
    trace = [(lam_max, 0)]
    # stop once the bracket is tiny relative to the answer, so that shrinking
    # the returned lambda by even 0.1% drops below the true crossing point;
    # the absolute floor ends the search when the crossing is at 0
    # limit = 0 is met at lam_max, and lam_max = 0 leaves no bracket: both
    # skip the loop and return gamma = 0
    floor = 1e-12 * lam_max
    while limit > 0 and hi - lo > floor and hi - lo > BISECT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        nnz = active_set(design.N * mid).shape[0]
        trace.append((mid, nnz))
        if nnz <= limit:
            hi = mid
        else:
            lo = mid
    if hi == lam_max:
        gamma = np.zeros(m)
    else:
        gamma, sweeps = _kernels.lasso_cd(W, Z, design.N * hi, LASSO_MAX_SWEEPS, LASSO_TOL)
        if sweeps >= LASSO_MAX_SWEEPS:
            raise LassoNotConverged(hi, sweeps)
        # within about LASSO_TOL of a knot the solve can leave a rounding-level
        # coefficient where the path has 0; the cap counts the path's
        inactive = np.ones(m, dtype=bool)
        inactive[active_set(design.N * hi)] = False
        gamma[inactive] = 0.0
    residual = float(np.linalg.norm(X @ gamma - y))
    return SurrogateFit(
        gamma=gamma, W=W, Z=Z, residual_norm=residual, lam=hi, path=tuple(trace)
    )


def _fit_surrogate(
    model: ModelAdapter,
    table: NumericTable,
    x_star: Observation,
    partition: AspectPartition,
    N: int,
    seed: int,
    limit: int | None,
) -> SurrogateFit:
    """Sample a design for `partition`, score it and fit the surrogate.

    gamma is aligned to `partition.member_sets`; limit=None fits by OLS. A
    limit at or above the aspect count is the uncapped fit, so a coarse
    partition takes min(limit, m).
    """
    design = build_design(table, x_star, partition, N, RngStream(seed))
    ym = delta_predictions(model, design)
    if limit is None:
        return fit_ols(design, ym)
    return fit_lasso(design, ym, min(limit, partition.m))


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
    fit = _fit_surrogate(model, table, x_star, partition, N, seed, limit)
    return AspectExplanation(
        aspects=_aspect_rows(partition, fit.gamma, table, method, C),
        N=N,
        seed=seed,
        lam=fit.lam,
    )
