import csv
import io
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import pytest

import aspectra
from aspectra import AspectPartition, NumericTable
from aspectra import aspects
from aspectra.aspects import AspectExplanation, fit_lasso, fit_ols
from aspectra.cluster import agglomerative, cor_distance, correlation_matrix, partition_after_merges
from aspectra.data import _MEMBER_KEY_START, RngStream, _mix64, sampled_row_ids, validate_partition
from aspectra.errors import AspectraError, SchemaMismatch
from aspectra.global_importance import _K_PERM
from aspectra.models import ModelAdapter, predict
from aspectra.triplot import TriplotResult

CHILD = os.path.join(os.path.dirname(__file__), "child_model.py")


def child_cmd(mode: str):
    return [sys.executable, CHILD, mode]


def package_env():
    """os.environ with this aspectra's source root first on PYTHONPATH, for a
    fresh interpreter that must import the package under test."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(aspectra.__file__)))
    rest = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, rest] if rest else [src]))


def singletons(column_names) -> AspectPartition:
    """One aspect per column, named after it."""
    return AspectPartition(tuple((name, (j,)) for j, name in enumerate(column_names)))


def save_table(table: NumericTable, path, target_name: str | None = None, target=None) -> None:
    """Write the table in the same dialect load_table reads.

    Floats are written with 17 significant digits so load(save(t)) round
    trips every float64 exactly.
    """
    header = list(table.column_names)
    if target_name is not None:
        header.append(target_name)
    # QUOTE_MINIMAL quotes a field holding a character of the terminator;
    # with "\r" among them it also quotes a name holding a bare CR, which
    # load_table would otherwise read as a line break
    head = io.StringIO()
    csv.writer(head, lineterminator="\r\n").writerow(header)
    buf = io.StringIO()
    buf.write(head.getvalue()[:-2] + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    for i in range(table.n):
        rec = [f"{v:.17g}" for v in table.values[i]]
        if target_name is not None:
            rec.append(f"{target[i]:.17g}")
        writer.writerow(rec)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def member_set_key(members) -> int:
    """Order-independent 64-bit fingerprint of a set of column indices.

    The oracle for the member-set key that `_PermutationStreams` folds
    column by column.
    """
    h = _MEMBER_KEY_START
    for i in sorted(int(j) for j in members):
        h = _mix64(h ^ _mix64(i))
    return h


def permutation_stream(seed: int, members, rep: int) -> RngStream:
    """The sub-stream of repetition `rep` of permuting `members`: the oracle
    for the stream ids that `_PermutationStreams` derives in parts."""
    return RngStream(seed).child(_K_PERM, member_set_key(members), rep)


class CountingModel(ModelAdapter):
    """Delegates to a model; counts calls and rows and notes whether each
    table it was given could be written to."""

    def __init__(self, model):
        self.model = model
        self.column_names = model.column_names
        self.calls = self.rows = 0
        self.writeable = []

    def expected_p(self):
        return self.model.expected_p()

    def predict(self, table):
        self.calls += 1
        self.rows += table.n
        self.writeable.append(table.values.flags.writeable)
        return self.model.predict(table)


class RecordingModel(CountingModel):
    """Counts like CountingModel, and keeps every table it is given as well
    as a copy of its values, which a reused buffer may overwrite later."""

    def __init__(self, model):
        super().__init__(model)
        self.given, self.tables = [], []

    def predict(self, table):
        self.given.append(table)
        self.tables.append(table.values.copy())
        return super().predict(table)


class RowwiseModel(ModelAdapter):
    """Scores each row on its own, in Python floats."""

    def predict(self, table):
        return np.array([sum(math.sin(j + v) * v for j, v in enumerate(row))
                         for row in table.values.tolist()])


# ------------------------------------------------- per-level scoring oracle


def x_prime(flags, m: int) -> np.ndarray:
    """The N x m binary design X' that a design's N x 2 flags define: row i
    is 1 in columns flags[i, 0] and flags[i, 1], one column when they
    coincide. The dense oracle for what `aspects._normal_equations` reads
    off the flags."""
    X = np.zeros((flags.shape[0], m), dtype=np.int8)
    X[np.arange(flags.shape[0]), flags[:, 0]] = 1
    X[np.arange(flags.shape[0]), flags[:, 1]] = 1
    return X


def dense_normal_equations(design, ym):
    """W = X'^T X' and Z = X'^T Y on the dense X' as floats: the products
    that the surrogate was once solved from, and the bits that
    `aspects._normal_equations` must give."""
    X = x_prime(design.flags, design.m).astype(np.float64)
    return X.T @ X, X.T @ np.asarray(ym, dtype=np.float64)


@dataclass(frozen=True)
class OracleDesign:
    """A design as it was before designs shared one row sample or planned
    their modified rows: all N rows of A', and A as its distinct rows."""

    row_ids: np.ndarray
    flags: np.ndarray
    distinct: NumericTable
    inverse: np.ndarray
    modified: NumericTable  # all N rows of A'
    partition: AspectPartition

    @property
    def N(self) -> int:
        return self.flags.shape[0]

    @property
    def m(self) -> int:
        return self.partition.m


def oracle_build_design(table, x_star, partition, N, rng):
    """build_design as it was before designs shared one row sample or planned
    their modified rows: every call draws A again and builds all N rows of A'
    with np.where on the dense X'."""
    validate_partition(partition, table.p)
    if x_star.p != table.p:
        raise SchemaMismatch(f"observation has {x_star.p} values, table has p={table.p}")
    m = partition.m
    if N < m:
        raise AspectraError(f"need N >= m sampled rows, got N={N}, m={m}")
    row_ids = sampled_row_ids(table, N, rng.child(aspects._K_ROWS))
    A = table.values[row_ids]
    kl = rng.child(aspects._K_FLAGS).generator().integers(0, m, size=(N, 2))
    X_prime = x_prime(kl, m)
    aspect_of = np.empty(table.p, dtype=np.intp)  # column -> its aspect
    for j, members in enumerate(partition.member_sets):
        aspect_of[list(members)] = j
    A_prime = np.where(X_prime[:, aspect_of] == 1, x_star.values, A)
    ids, inverse = np.unique(row_ids, return_inverse=True)
    names = table.column_names
    return OracleDesign(
        row_ids=row_ids,
        flags=kl,
        distinct=NumericTable._from_validated(names, table.values[ids]),
        inverse=inverse,
        modified=NumericTable._from_validated(names, A_prime),
        partition=partition,
    )


def modified_rows(designs, write) -> np.ndarray:
    """A plan's K distinct rows of A', in slot order, as
    `aspects._scored_designs` writes them for the model; `designs, write`
    is what `aspects._designs` returns."""
    rows = np.empty((designs[0].predictions.shape[0], designs[0].distinct.p))
    write(0, rows)
    return rows


def planned_modified(designs, write):
    """Each design's N rows of A', gathered from the rows of its plan's slots."""
    rows = modified_rows(designs, write)
    return [rows[d.slots] for d in designs]


def slot_first_draws(designs) -> np.ndarray:
    """Each slot's first draw, in slot order, as a position in the plan's
    draws: level k's draw i is draw k * N + i."""
    return np.unique(np.concatenate([d.slots for d in designs]), return_index=True)[1]


def oracle_fit(model, design, limit):
    """The surrogate fit, solved from the dense X' oracle's W and Z, on the
    shifts of all N rows of A' against each distinct sampled row's."""
    with np.errstate(over="ignore"):
        ym = predict(model, design.modified) - predict(model, design.distinct)[design.inverse]
    W, Z = dense_normal_equations(design, ym)
    if limit is None:
        return fit_ols(W, Z, design.partition)
    return fit_lasso(W, Z, design.N, design.partition, limit)


def oracle_tree_partitions(table, cfg):
    """The local triplot's tree and the partition at each of its p levels."""
    tree = agglomerative(cor_distance(correlation_matrix(table, cfg.cor_method)), cfg.linkage)
    return tree, [partition_after_merges(tree, t, table.column_names) for t in range(table.p)]


def oracle_predict_triplot(model, table, x_star, cfg):
    """The local triplot as p independent explanations: per tree level its
    own partition, sampled design and surrogate fit, scoring all N rows of
    A' and each distinct sampled row."""
    tree, parts = oracle_tree_partitions(table, cfg)
    levels = []
    for part in parts:
        design = oracle_build_design(table, x_star, part, cfg.N, RngStream(cfg.seed))
        levels.append(dict(zip(part.member_sets, oracle_fit(model, design, cfg.limit).gamma)))
    return TriplotResult(
        mode="local",
        tree=tree,
        leaf_names=tuple(table.column_names),
        leaf_importance=np.array([levels[0][(j,)] for j in range(table.p)]),
        node_importance=np.array([levels[t + 1][m.members] for t, m in enumerate(tree.merges)]),
        x_star=x_star.values,
        metadata={"N": cfg.N, "seed": cfg.seed, "limit": cfg.limit,
                  "cor_method": cfg.cor_method, "linkage": cfg.linkage},
    )


def oracle_predict_aspects(model, table, x_star, partition, N, seed, limit=None):
    """predict_aspects for a given partition, scoring all N rows of A'."""
    design = oracle_build_design(table, x_star, partition, N, RngStream(seed))
    fit = oracle_fit(model, design, limit)
    C = correlation_matrix(table) if any(len(ms) > 1 for ms in partition.member_sets) else None
    rows = aspects._aspect_rows(partition, fit.gamma, table, C)
    return AspectExplanation(aspects=rows, N=N, seed=seed, lam=fit.lam)


def oracle_modified_keys(table, x_star, partition, N, seed):
    """Per draw, what fixes its modified row: the sampled row id and the set
    of columns replaced, or the full column set alone, since a row with every
    column replaced is x* itself."""
    design = oracle_build_design(table, x_star, partition, N, RngStream(seed))
    X_prime = x_prime(design.flags, design.m)
    keys = []
    for i in range(N):
        cols = frozenset(c for j in np.flatnonzero(X_prime[i])
                         for c in partition.member_sets[j])
        keys.append(cols if len(cols) == table.p else (int(design.row_ids[i]), cols))
    return keys


def planned_calls_and_rows(table, x_star, partitions, N, seed, stack_values=None):
    """Model calls and rows when one plan scores the partitions.

    The plan scores its K distinct modified rows, the distinct (sampled row,
    replaced columns) pairs of all partitions, in calls of
    max(1, budget // p) rows for p columns, where the budget is
    `stack_values` values (aspects._STACK_VALUES when None). Then each of
    the L partitions scores A's d distinct rows in a call of its own:
    L + ceil(K / max(1, budget // p)) calls and K + L * d rows.
    """
    budget = aspects._STACK_VALUES if stack_values is None else stack_values
    distinct = np.unique(sampled_row_ids(table, N, RngStream(seed).child(aspects._K_ROWS))).size
    K = len({key for part in partitions
             for key in oracle_modified_keys(table, x_star, part, N, seed)})
    per_call = max(1, budget // table.p)
    return len(partitions) + -(-K // per_call), K + len(partitions) * distinct


def make_six_variable(n: int = 400, seed: int = 11):
    """Two tight blocks (a,b) and (c,d), plus independent e, f.

    y leans on a, c and e so both grouped and ungrouped importances are
    nontrivial. Returned y includes mild noise to keep losses positive.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    b = a + 0.05 * rng.standard_normal(n)
    c = rng.standard_normal(n)
    d = c + 0.25 * rng.standard_normal(n)
    e = rng.standard_normal(n)
    f = rng.standard_normal(n)
    X = np.column_stack([a, b, c, d, e, f])
    y = 2.0 * a + 1.0 * c - 0.5 * e + 0.1 * rng.standard_normal(n)
    return NumericTable(("a", "b", "c", "d", "e", "f"), X), y


@pytest.fixture
def six_table():
    return make_six_variable()


@pytest.fixture
def six_csv(tmp_path):
    table, y = make_six_variable()
    path = tmp_path / "six.csv"
    save_table(table, path, target_name="y", target=y)
    return str(path)


@pytest.fixture
def duplicate_csv(tmp_path):
    """Three columns where q is a copy of p; forces grouping at cutoff 0.99."""
    rng = np.random.default_rng(3)
    p = rng.standard_normal(120)
    r = rng.standard_normal(120)
    table = NumericTable(("p", "q", "r"), np.column_stack([p, p.copy(), r]))
    path = tmp_path / "dup.csv"
    save_table(table, path)
    return str(path)


@pytest.fixture(autouse=True)
def _no_model_env(monkeypatch):
    monkeypatch.delenv("ASPECTRA_MODEL_CMD", raising=False)
