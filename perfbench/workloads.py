"""The four benchmark workloads: inputs made from a seed, one operation, its output.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns. A workload cycles through `cycle` distinct
operations on one generated input set; every operation has a stored
reference output (see reference.py), so the inputs come from a bank of
BANK input sets and `--seed n` selects set n mod BANK. The program only
ever sees the generated tables, rows and seeds.

The benchmark calls the package through module attributes
(`triplot.predict_triplot`, not a name imported once), so the traced run's
patches are seen.
"""

from __future__ import annotations

import os
import shlex
import shutil
import sys
import time
import zlib
from pathlib import Path

import numpy as np

from aspectra import cli, data, global_importance, models, triplot

BANK = 8
CHILD = Path(__file__).resolve().parent / "child_model.py"


class Meter:
    """Model calls, rows scored and seconds inside the model's predict."""

    def __init__(self):
        self.calls = 0
        self.rows = 0
        self.seconds = 0.0


class MeteredModel:
    """Forwards the model contract and meters every predict call.

    This thin wrapper stays on in every run, traced or not, so that
    `explainer_ms` (operation time outside predict) is always measured.
    """

    def __init__(self, model, meter: Meter):
        self.model = model
        self.meter = meter
        self.label = model.label
        self.column_names = model.column_names

    def expected_p(self):
        return self.model.expected_p()

    def predict(self, table):
        start = time.perf_counter()
        try:
            return self.model.predict(table)
        finally:
            self.meter.seconds += time.perf_counter() - start
            self.meter.calls += 1
            self.meter.rows += table.n


def _rng(name: str, bank: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(name.encode()), bank])


def _names(p: int):
    return [f"x{j:03d}" for j in range(p)]


def _block_columns(rng, n, sizes, rhos, singles):
    """Correlated blocks (shared latent, within-block correlation rho) plus independent columns."""
    cols = []
    for b, size in enumerate(sizes):
        z = rng.standard_normal(n)
        rho = rhos[b % len(rhos)]
        cols += [np.sqrt(rho) * z + np.sqrt(1 - rho) * rng.standard_normal(n) for _ in range(size)]
    cols += [rng.standard_normal(n) for _ in range(singles)]
    return np.column_stack(cols)


def _coefficients(p: int):
    """Fixed model coefficients, the same for every input set, so that work per
    operation depends on the sampled data and not on a drawn model."""
    return np.array([((j % 7) - 3) / 2 for j in range(p)])


class Workload:
    name = ""
    cycle = 1

    def __init__(self, seed: int, workdir: Path):
        self.bank = seed % BANK
        self.workdir = workdir
        self.meter = Meter()

    def setup(self) -> None:
        """Generate the inputs and fit the model; timed as part of set-up."""
        raise NotImplementedError

    def run(self, k: int):
        """Operation k of the cycle; returns the program's result."""
        raise NotImplementedError

    def texts(self, result):
        """The result's output documents as (kind, text) pairs."""
        return (("json", result.to_json()),)

    def close(self) -> None:
        pass

    def _op_inputs(self, rng, n):
        self.rows = rng.choice(n, size=self.cycle, replace=False)
        self.seeds = rng.integers(0, 2**31, size=self.cycle)


class LocalTriplot(Workload):
    """Explainer-bound: ~470 lasso solves per local triplot, cheap linear model."""

    name = "local-triplot"
    cycle = 8

    def setup(self):
        rng = _rng(self.name, self.bank)
        n, X = 800, _block_columns(rng, 800, [4, 4, 4, 4], [0.9, 0.8, 0.7, 0.6], 8)
        y = X @ _coefficients(X.shape[1]) + 0.3 * rng.standard_normal(n)
        self.table = data.NumericTable(_names(X.shape[1]), X)
        self.model = MeteredModel(models.fit_linear(self.table, y), self.meter)
        self._op_inputs(rng, n)

    def run(self, k):
        cfg = triplot.TriplotConfig(mode="local", N=1500, seed=int(self.seeds[k]), limit=3)
        return triplot.predict_triplot(self.model, self.table, self.table.row(int(self.rows[k])), cfg)


class GlobalKnn(Workload):
    """Model-bound: permutation importance over a kNN model, no lasso at all."""

    name = "global-knn"
    cycle = 4

    def setup(self):
        rng = _rng(self.name, self.bank)
        n, X = 500, _block_columns(rng, 500, [3, 3, 3], [0.85, 0.7, 0.5], 3)
        y = (X[:, 0] + np.sin(2 * X[:, 3]) + X[:, 6] * X[:, 7] + 0.5 * X[:, 9]
             + 0.3 * rng.standard_normal(n))
        self.table = data.NumericTable(_names(X.shape[1]), X)
        self.y = y
        self.model = MeteredModel(models.fit_knn(self.table, y, 10), self.meter)
        self._op_inputs(rng, n)

    def run(self, k):
        perm = global_importance.PermutationConfig("rmse", B=2, N=250, seed=int(self.seeds[k]))
        cfg = triplot.TriplotConfig(mode="global", permutation=perm)
        return triplot.model_triplot(self.model, self.table, self.y, cfg)


class GlobalWide(Workload):
    """Wide table: clustering at p=200 and 399 member sets through a cheap model.

    Two columns per block are a quantised latent q and q**3: their ranks are
    identical, so Spearman distances tie exactly and the merge tie rule runs.
    """

    name = "global-wide"
    cycle = 2

    def setup(self):
        rng = _rng(self.name, self.bank)
        n, cols = 400, []
        for b in range(20):
            z = rng.standard_normal(n)
            q = np.round(2 * z) / 2
            cols += [q, q**3]
            for rho in (0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6, 0.55):
                cols.append(np.sqrt(rho) * z + np.sqrt(1 - rho) * rng.standard_normal(n))
        X = np.column_stack(cols)
        y = X @ _coefficients(X.shape[1]) + 0.3 * rng.standard_normal(n)
        self.table = data.NumericTable(_names(X.shape[1]), X)
        self.y = y
        self.model = MeteredModel(models.fit_linear(self.table, y), self.meter)
        self._op_inputs(rng, n)

    def run(self, k):
        perm = global_importance.PermutationConfig("rmse", B=1, seed=int(self.seeds[k]))
        cfg = triplot.TriplotConfig(mode="global", permutation=perm)
        return triplot.model_triplot(self.model, self.table, self.y, cfg)


class ExternalCli(Workload):
    """In-process CLI: CSV parsing, a child model over the line protocol, rendering.

    `cli.SubprocessModel` is replaced by a factory that meters each model
    and remembers it, so every child is closed and waited for at the end of
    the operation that started it.
    """

    name = "external-cli"
    cycle = 8

    def setup(self):
        rng = _rng(self.name, self.bank)
        n, X = 1000, _block_columns(rng, 1000, [3, 3, 3, 3], [0.9, 0.8, 0.75, 0.7], 8)
        self.dir = self.workdir / f"{self.name}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.csv = self.dir / "data.csv"
        lines = [",".join(_names(X.shape[1]))]
        lines += [",".join(f"{v:.17g}" for v in row) for row in X]
        self.csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.model_spec = "cmd:" + shlex.join([sys.executable, str(CHILD)])
        self._children = []
        cli.SubprocessModel = self._spawn
        self._op_inputs(rng, n)

    def _spawn(self, command, label=None):
        model = models.SubprocessModel(command, label)
        self._children.append(model)
        return MeteredModel(model, self.meter)

    def run(self, k):
        out_json, out_svg = self.dir / "out.json", self.dir / "out.svg"
        argv = [
            "predict-aspects", "--data", str(self.csv), "--model", self.model_spec,
            "--row", str(int(self.rows[k])), "--cutoff", "0.6", "--N", "1000",
            "--limit", "3", "--seed", str(int(self.seeds[k])),
            "--format", "json", "--out", str(out_json),
        ]
        try:
            code = cli.cli_main(argv)
        finally:
            while self._children:
                self._children.pop().close()
        if code != 0:
            raise RuntimeError(f"predict-aspects exited with {code}")
        code = cli.cli_main(["render", "--in", str(out_json), "--out", str(out_svg)])
        if code != 0:
            raise RuntimeError(f"render exited with {code}")
        return out_json.read_text(encoding="utf-8"), out_svg.read_text(encoding="utf-8")

    def texts(self, result):
        return (("json", result[0]), ("svg", result[1]))

    def close(self):
        cli.SubprocessModel = models.SubprocessModel
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (LocalTriplot, GlobalKnn, GlobalWide, ExternalCli)}
