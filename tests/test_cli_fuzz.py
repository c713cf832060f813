"""A bounded fuzz harness for the command line's output contract.

Each example writes a small CSV, a `--groups` file and an `--obs` file, and
runs every subcommand on them in-process through `cli_main`, with the
`linear` or a `knn:K` model. The CSVs hold normal, constant, copied,
quantised, huge (near 1e300), maximal (1.7e308 U(-1, 1)), tiny (near
1e-200, whose squares underflow) and subnormal (near 1e-310) columns, p down
to 1 and n down to 2; the groups and observation files are sometimes wrong.
Every run must end in one of two ways, and `group-vars` in the second
whenever a feature column is constant:

- exit 0 with a document that parses as strict JSON or TSV, holds only
  finite numbers and, for a triplot or an aspect document, renders as SVG;
- exit 1 with exactly one `error:` line on stderr, no traceback and
  nothing on stdout.

No run may warn, not even where the models' own arithmetic overflows (the
k-NN distances and target means, the linear product). The example count is
small, so tier-1 stays fast; an input that breaks the contract becomes a
fixed case in tests/test_cli.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aspectra.cli import cli_main

_COLUMN_KINDS = ("normal", "constant", "copy", "quantised", "huge", "max", "tiny", "subnormal")
_TARGET_KINDS = ("linear", "constant", "huge", "max", "tiny", "subnormal")


def _column(kind, rng, n, columns):
    if kind == "constant":
        return np.full(n, rng.standard_normal())
    if kind == "copy" and columns:
        return columns[rng.integers(len(columns))].copy()
    if kind == "quantised":  # exact ties in the ranks
        return np.round(2 * rng.standard_normal(n)) / 2
    if kind == "huge":
        return 1e300 * rng.standard_normal(n)
    if kind == "max":
        return 1.7e308 * rng.uniform(-1.0, 1.0, n)
    if kind == "tiny":
        return 1e-200 * rng.standard_normal(n)
    if kind == "subnormal":
        return 1e-310 * rng.standard_normal(n)
    return rng.standard_normal(n)


def _csv(names, rows):
    return ",".join(names) + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


@st.composite
def _inputs(draw):
    """The data, groups and observation files' text, each run's options, and
    whether a feature column is constant."""
    n = draw(st.integers(2, 12))
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(p):
        columns.append(_column(draw(st.sampled_from(_COLUMN_KINDS)), rng, n, columns))
    X = np.column_stack(columns)
    target = draw(st.sampled_from(_TARGET_KINDS))
    if target == "linear":
        # an infinite or NaN target (two huge columns' products of opposite
        # signs) is the loader's to reject
        with np.errstate(over="ignore", invalid="ignore"):
            y = X @ rng.standard_normal(p) + 0.1 * rng.standard_normal(n)
    else:
        y = _column(target, rng, n, [])
    names = [f"c{j}" for j in range(p)]
    data = _csv(names + ["y"], np.column_stack([X, y]).tolist())

    # a partition of the columns, which may leave one out, name one that
    # does not exist or put one in two groups
    labels = draw(st.lists(st.integers(0, p - 1), min_size=p, max_size=p))
    groups = {}
    for name, label in zip(names, labels):
        groups.setdefault(f"g{label}", []).append(name)
    spoil = draw(st.sampled_from(("none", "none", "drop", "unknown", "twice")))
    first = next(iter(groups))
    if spoil == "drop":
        groups[first].pop()
    elif spoil == "unknown":
        groups[first].append("nope")
    elif spoil == "twice":
        groups["again"] = [names[0]]

    # the observation: the right columns in another order, one missing, or two rows
    order = draw(st.permutations(names))
    obs_kind = draw(st.sampled_from(("one", "one", "missing", "two")))
    obs_names = list(order[1:]) if obs_kind == "missing" and p > 1 else list(order)
    obs_rows = X[: 2 if obs_kind == "two" else 1, [names.index(c) for c in obs_names]]
    obs = _csv(obs_names, obs_rows.tolist())

    opts = {
        "model": draw(st.sampled_from(["linear", *(f"knn:{k}" for k in (1, 2, 3, n, n + 1))])),
        "cutoff": draw(st.sampled_from(["0", "0.3", "0.6", "0.95", "1"])),
        "method": draw(st.sampled_from(["pearson", "spearman"])),
        "grouping": draw(st.sampled_from(["--groups", "--cutoff"])),
        "observation": draw(st.sampled_from(["--row", "--obs"])),
        "row": str(draw(st.integers(0, n))),  # n is out of range
        "B": str(draw(st.integers(1, 3))),
        "global_N": draw(st.sampled_from([[], ["--N", "1"], ["--N", str(n)], ["--N", "2"]])),
        "local_N": str(draw(st.sampled_from([1, 4, 12, 40]))),
        "seed": str(draw(st.integers(0, 3))),
        "limit": draw(st.sampled_from([[], ["--limit", "0"], ["--limit", "1"],
                                       ["--limit", str(p + 1)]])),
        "loss": draw(st.sampled_from(["rmse", "mae"])),
        "format": draw(st.sampled_from(["tsv", "json"])),
        "linkage": draw(st.sampled_from(["complete", "single", "average"])),
    }
    constant = bool(np.any(X.max(axis=0) == X.min(axis=0)))
    return data, json.dumps(groups), obs, opts, constant


def _run(argv, out=None):
    """cli_main(argv) with its exit contract checked; the document, or None on exit 1."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(argv)
    run = " ".join(argv)
    assert not caught, f"{run} warned {[str(w.message) for w in caught]}"
    if code == 1:
        lines = stderr.getvalue().split("\n")
        assert len(lines) == 2 and lines[0].startswith("error: ") and lines[1] == "", (
            f"{run} wrote {lines}")
        assert stdout.getvalue() == "", run
        assert out is None or not out.exists(), run
        return None
    assert (code, stderr.getvalue()) == (0, ""), run
    return stdout.getvalue() if out is None else out.read_text(encoding="utf-8")


def _reject_constant(token):
    raise AssertionError(f"non-standard JSON token {token}")


def _finite_numbers(doc):
    if isinstance(doc, dict):
        for value in doc.values():
            _finite_numbers(value)
    elif isinstance(doc, list):
        for value in doc:
            _finite_numbers(value)
    elif isinstance(doc, float):
        assert math.isfinite(doc), doc


def _check_json(text):
    assert text.endswith("\n")
    _finite_numbers(json.loads(text, parse_constant=_reject_constant))


def _check_tsv(text):
    assert text.endswith("\n")
    lines = text[:-1].split("\n")
    body = [line.split("\t") for line in lines if not line.startswith("# ")]
    assert len({len(fields) for fields in body}) == 1, lines
    for line in lines:
        for field in line.split("\t"):
            try:
                value = float(field)
            except ValueError:
                continue
            assert math.isfinite(value), line


def _check_renders(doc_path, svg_path):
    assert _run(["render", "--in", str(doc_path), "--out", str(svg_path)], svg_path) is not None
    assert ET.fromstring(svg_path.read_text(encoding="utf-8")).tag.endswith("svg")


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_inputs())
def test_every_subcommand_exits_0_with_a_finite_document_or_1_with_one_error(case):
    data_text, groups_text, obs_text, o, constant = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data, groups, obs = tmp / "data.csv", tmp / "groups.json", tmp / "obs.csv"
        data.write_text(data_text, encoding="utf-8")
        groups.write_text(groups_text, encoding="utf-8")
        obs.write_text(obs_text, encoding="utf-8")
        common = ["--data", str(data), "--target", "y", "--model", o["model"]]
        grouping = (["--groups", str(groups)] if o["grouping"] == "--groups"
                    else ["--cutoff", o["cutoff"], "--method", o["method"]])
        observation = ["--row", o["row"]] if o["observation"] == "--row" else ["--obs", str(obs)]
        check = _check_json if o["format"] == "json" else _check_tsv

        doc = _run(["group-vars", "--data", str(data), "--target", "y",
                    "--cutoff", o["cutoff"], "--method", o["method"]])
        # a constant column has no correlation, whatever its mean rounds to
        assert doc is None or not constant
        if doc is not None:
            _check_json(doc)

        doc = _run(["global-importance", *common, *grouping, "--B", o["B"], *o["global_N"],
                    "--seed", o["seed"], "--loss", o["loss"], "--format", o["format"]])
        if doc is not None:
            check(doc)

        aspects = tmp / "aspects.out"
        doc = _run(["predict-aspects", *common, *observation, *grouping, "--N", o["local_N"],
                    "--seed", o["seed"], *o["limit"], "--format", o["format"],
                    "--out", str(aspects)], aspects)
        if doc is not None:
            check(doc)
            if o["format"] == "json":
                _check_renders(aspects, tmp / "aspects.svg")

        tree = ["--cor-method", o["method"], "--linkage", o["linkage"], "--seed", o["seed"]]
        for mode, extra in (
            ("global", ["--B", o["B"], *o["global_N"], "--loss", o["loss"]]),
            ("local", [*observation, "--N", o["local_N"], *o["limit"]]),
        ):
            out = tmp / f"{mode}.json"
            doc = _run(["triplot", "--mode", mode, *common, *tree, *extra, "--out", str(out)], out)
            if doc is not None:
                _check_json(doc)
                _check_renders(out, tmp / f"{mode}.svg")
