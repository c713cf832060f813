"""Local aspect importance: binary replacement designs and surrogate fits.

The explainer samples N rows, flags one or two aspects per sampled row, and
overwrites the flagged aspects' columns with the explained observation's
values. The difference between modified and unmodified predictions is then
regressed on the binary flag matrix; the coefficients are the aspect
contributions. An L1-limited variant caps how many aspects stay nonzero by
searching for the smallest regularization strength that honours the cap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .cluster import _group_variables, correlation_matrix
from .data import (
    AspectPartition,
    NumericTable,
    Observation,
    RngStream,
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


@dataclass(frozen=True)
class SampleDesign:
    """Sampled rows A, binary flag matrix, and the modified rows A'.

    Every row of the flag matrix has one or two entries set: the two aspect
    indices are drawn with replacement, so they may coincide (probability
    1/m). A'[i, j] equals the explained observation at j when column j's
    aspect is flagged in row i, otherwise A[i, j].
    """

    row_ids: np.ndarray
    X_prime: np.ndarray  # N x m, int8
    A: np.ndarray  # N x p
    A_prime: np.ndarray  # N x p
    partition: AspectPartition
    column_names: tuple

    @property
    def N(self) -> int:
        return self.X_prime.shape[0]

    @property
    def m(self) -> int:
        return self.X_prime.shape[1]

    def table_original(self) -> NumericTable:
        return NumericTable(self.column_names, self.A)

    def table_modified(self) -> NumericTable:
        return NumericTable(self.column_names, self.A_prime)


@dataclass(frozen=True)
class DeltaPredictions:
    """Prediction shift caused by the replacements: f(A') - f(A)."""

    values: np.ndarray


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
    path: tuple = ()  # (lambda, nonzero count) pairs visited by the search


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
    metadata: dict = field(default_factory=dict)

    def to_tsv(self) -> str:
        lines = [f"# N\t{self.N}", f"# seed\t{self.seed}", f"# lambda\t{self.lam!r}"]
        for k, v in self.metadata.items():
            lines.append(f"# {k}\t{v}")
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
            "metadata": {"N": self.N, "seed": self.seed, "lambda": self.lam, **self.metadata},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_doc(), indent=2)

    @staticmethod
    def from_json_doc(doc: dict) -> "AspectExplanation":
        meta = dict(doc.get("metadata", {}))
        N = meta.pop("N", 0)
        seed = meta.pop("seed", 0)
        lam = meta.pop("lambda", None)
        rows = tuple(
            AspectRow(
                name=a["name"],
                members=tuple(a["members"]),
                contribution=float(a["contribution"]),
                min_abs_cor=float(a["min_abs_cor"]),
                sign_consistent=bool(a["sign_consistent"]),
            )
            for a in doc["aspects"]
        )
        return AspectExplanation(aspects=rows, N=N, seed=seed, lam=lam, metadata=meta)


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
    return SampleDesign(
        row_ids=row_ids,
        X_prime=X_prime,
        A=A,
        A_prime=A_prime,
        partition=partition,
        column_names=tuple(table.column_names),
    )


def delta_predictions(model: ModelAdapter, design: SampleDesign) -> DeltaPredictions:
    """f(A') - f(A), exactly two adapter calls."""
    modified = predict(model, design.table_modified())
    original = predict(model, design.table_original())
    return DeltaPredictions(modified - original)


def _design_matrices(design: SampleDesign, ym: DeltaPredictions):
    X = design.X_prime.astype(np.float64)
    y = np.asarray(ym.values, dtype=np.float64).reshape(-1)
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


def fit_ols(design: SampleDesign, ym: DeltaPredictions) -> SurrogateFit:
    """Closed-form surrogate coefficients from the normal equations."""
    X, y, W, Z = _design_matrices(design, ym)
    _check_nonsingular(W, design.partition)
    gamma = np.linalg.solve(W, Z)
    residual = float(np.linalg.norm(X @ gamma - y))
    return SurrogateFit(gamma=gamma, W=W, Z=Z, residual_norm=residual)


def fit_lasso(design: SampleDesign, ym: DeltaPredictions, limit: int) -> SurrogateFit:
    """Smallest-lambda L1 fit keeping at most `limit` nonzero contributions.

    Coordinate descent on the raw binary design (no standardization, no
    intercept); lambda found by bisection on [0, lambda_max] where
    lambda_max = max_j |Z[j]| / N zeroes every coefficient. limit = m takes
    the plain least-squares path.

    Every bisection step solves in covariance form on W = X'^T X' and
    Z = X'^T Y, built once: a sweep costs O(m^2) and no step touches the
    N x m design. A solve that spends all LASSO_MAX_SWEEPS sweeps raises
    LassoNotConverged.
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
    if lam_max == 0.0:
        gamma = np.zeros(m)
        return SurrogateFit(
            gamma=gamma, W=W, Z=Z, residual_norm=float(np.linalg.norm(y)),
            lam=0.0, path=((0.0, 0),),
        )
    if limit == 0:
        gamma = np.zeros(m)
        return SurrogateFit(
            gamma=gamma, W=W, Z=Z, residual_norm=float(np.linalg.norm(y)),
            lam=lam_max, path=((lam_max, 0),),
        )
    lo = 0.0
    hi = lam_max
    gamma_hi = np.zeros(m)
    trace = [(lam_max, 0)]
    # stop once the bracket is tiny relative to the answer, so that shrinking
    # the returned lambda by even 0.1% drops below the true crossing point;
    # the absolute floor ends the search when the crossing is at 0
    floor = 1e-12 * lam_max
    while hi - lo > floor and hi - lo > BISECT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        w, sweeps = _kernels.lasso_cd(W, Z, design.N * mid, LASSO_MAX_SWEEPS, LASSO_TOL)
        if sweeps >= LASSO_MAX_SWEEPS:
            raise LassoNotConverged(mid, sweeps)
        nnz = int(np.count_nonzero(w))
        trace.append((mid, nnz))
        if nnz <= limit:
            hi = mid
            gamma_hi = w
        else:
            lo = mid
    residual = float(np.linalg.norm(X @ gamma_hi - y))
    return SurrogateFit(
        gamma=gamma_hi, W=W, Z=Z, residual_norm=residual, lam=hi, path=tuple(trace)
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

    gamma is aligned to `partition.member_sets`; limit=None fits by OLS.
    """
    design = build_design(table, x_star, partition, N, RngStream(seed))
    ym = delta_predictions(model, design)
    if limit is None:
        return fit_ols(design, ym)
    return fit_lasso(design, ym, limit)


def _aspect_rows(partition: AspectPartition, gamma, table: NumericTable, method: str, C):
    """Rows ordered by |contribution|; C is the table's CorrelationMatrix
    under `method`, or None to compute it only if some aspect needs it."""
    if C is None and any(len(ms) > 1 for ms in partition.member_sets):
        C = correlation_matrix(table, method)
    rows = []
    for g, (name, members) in enumerate(partition.groups):
        if len(members) == 1:
            min_abs, consistent = 1.0, True
        else:
            idx = list(members)
            sub = C.values[np.ix_(idx, idx)]
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
    set, at most that many aspects keep a nonzero contribution.
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
