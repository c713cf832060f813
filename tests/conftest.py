import os
import sys

import numpy as np
import pytest

import aspectra
from aspectra import NumericTable
from aspectra.data import save_table
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
