import csv
import io
import math
import os
import sys

import numpy as np
import pytest

import aspectra
from aspectra import AspectPartition, NumericTable
from aspectra import aspects
from aspectra.aspects import AspectExplanation, SampleDesign, delta_predictions, fit_lasso, fit_ols
from aspectra.cluster import agglomerative, cor_distance, correlation_matrix, partition_after_merges
from aspectra.data import _MEMBER_KEY_START, RngStream, _mix64, sampled_row_ids, validate_partition
from aspectra.errors import AspectraError, SchemaMismatch
from aspectra.global_importance import _K_PERM
from aspectra.models import ModelAdapter
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


class RowwiseModel(ModelAdapter):
    """Scores each row on its own, in Python floats."""

    def predict(self, table):
        return np.array([sum(math.sin(j + v) * v for j, v in enumerate(row))
                         for row in table.values.tolist()])


# ------------------------------------------------- per-level scoring oracle


def oracle_build_design(table, x_star, partition, N, rng):
    """build_design as it was before designs shared one row sample or planned
    their modified rows: every call draws A again, builds all N rows of A'
    with np.where, and gives every draw a slot of its own, so that
    delta_predictions scores all N rows of A'."""
    validate_partition(partition, table.p)
    if x_star.p != table.p:
        raise SchemaMismatch(f"observation has {x_star.p} values, table has p={table.p}")
    m = partition.m
    if N < m:
        raise AspectraError(f"need N >= m sampled rows, got N={N}, m={m}")
    row_ids = sampled_row_ids(table, N, rng.child(aspects._K_ROWS))
    A = table.values[row_ids]
    kl = rng.child(aspects._K_FLAGS).generator().integers(0, m, size=(N, 2))
    X_prime = np.zeros((N, m), dtype=np.int8)
    X_prime[np.arange(N), kl[:, 0]] = 1
    X_prime[np.arange(N), kl[:, 1]] = 1
    aspect_of = np.empty(table.p, dtype=np.intp)  # column -> its aspect
    for j, members in enumerate(partition.member_sets):
        aspect_of[list(members)] = j
    A_prime = np.where(X_prime[:, aspect_of] == 1, x_star.values, A)
    ids, inverse = np.unique(row_ids, return_inverse=True)
    names = table.column_names
    return SampleDesign(
        row_ids=row_ids,
        X_prime=X_prime,
        distinct=NumericTable._from_validated(names, table.values[ids]),
        inverse=inverse,
        modified=NumericTable._from_validated(names, A_prime),
        partition=partition,
        slots=np.arange(N),
        fills=np.arange(N),
        predictions=np.full(N, np.nan),
        W=X_prime.T.astype(np.float64) @ X_prime.astype(np.float64),
    )


def planned_modified(designs):
    """Each design's N rows of A', gathered from the rows that the designs of
    one plan score."""
    scored = np.empty((designs[0].predictions.shape[0], designs[0].modified.p))
    for d in designs:
        scored[d.fills] = d.modified.values
    return [scored[d.slots] for d in designs]


def oracle_fit(model, design, limit):
    ym = delta_predictions(model, design)
    if limit is None:
        return fit_ols(design, ym)
    return fit_lasso(design, ym, min(limit, design.m))


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
    rows = aspects._aspect_rows(partition, fit.gamma, table, "spearman", None)
    return AspectExplanation(aspects=rows, N=N, seed=seed, lam=fit.lam)


def oracle_modified_keys(table, x_star, partition, N, seed):
    """Per draw, what fixes its modified row: the sampled row id and the set
    of columns replaced, or the full column set alone, since a row with every
    column replaced is x* itself."""
    design = oracle_build_design(table, x_star, partition, N, RngStream(seed))
    keys = []
    for i in range(N):
        cols = frozenset(c for j in np.flatnonzero(design.X_prime[i])
                         for c in partition.member_sets[j])
        keys.append(cols if len(cols) == table.p else (int(design.row_ids[i]), cols))
    return keys


def planned_calls_and_rows(table, x_star, partitions, N, seed):
    """Model calls and rows when one plan scores the partitions in order:
    per partition, its modified rows that no earlier partition drew (a call
    skipped when there are none), then A's distinct rows."""
    distinct = np.unique(sampled_row_ids(table, N, RngStream(seed).child(aspects._K_ROWS))).size
    seen, calls, rows = set(), 0, 0
    for part in partitions:
        new = set(oracle_modified_keys(table, x_star, part, N, seed)) - seen
        seen |= new
        calls += 1 + bool(new)
        rows += len(new) + distinct
    return calls, rows


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
