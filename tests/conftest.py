import csv
import io
import os
import sys

import numpy as np
import pytest

import aspectra
from aspectra import AspectPartition, NumericTable
from aspectra.data import _MEMBER_KEY_START, RngStream, _mix64
from aspectra.global_importance import _K_PERM
from aspectra.models import ModelAdapter

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
