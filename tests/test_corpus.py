"""Stored CLI outputs: every subcommand's documents must stay the same.

tests/corpus/ holds the input files and records.json, one record per output
in perfbench/reference.py's form (a digest of the bytes, a digest of the text
with its floats blanked, and the floats). The cases cover what the benchmark
does not: every subcommand in TSV and JSON, render of both document kinds,
single and average linkage, Pearson, mae, limit 0, 1 and m, --groups and
--cutoff grouping, and a table whose names collide once cut to 40
characters.

Each output is compared byte for byte. Where the bytes differ, the reference
module's tolerance rule decides, so last-bit drift passes, such as a BLAS
product that rounds differently under an older numpy. TSV takes the JSON
rule, relative to the document's largest float. The test prints how many
outputs were byte-identical.

Regenerate the records only for an intended change of results, and say so
in CHANGES.md:

    PYTHONPATH=src python tests/test_corpus.py --write

The input files are written only when they are missing.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from aspectra.cli import cli_main

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus"
RECORDS = CORPUS / "records.json"

_spec = importlib.util.spec_from_file_location(
    "_corpus_reference", HERE.parent / "perfbench" / "reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

SIX = ["--data", "{data}/six.csv", "--target", "y"]
LONG = ["--data", "{data}/long.csv", "--target", "y"]
TIES = ["--data", "{data}/ties.csv", "--target", "y"]
GROUPS = ["--groups", "{data}/groups.json"]
OBS = ["--obs", "{data}/obs.csv"]
OUT = ["--out", "{out}"]

# (output name, argv); an argv without --out writes its output to stdout.
# {data} is the corpus directory, {out} this case's output file and
# {outdir} the directory of the outputs before it
CASES = [
    ("group-vars-six.json", ["group-vars", *SIX, "--cutoff", "0.6"]),
    ("group-vars-six-pearson.json", ["group-vars", *SIX, "--cutoff", "0.6", "--method", "pearson"]),
    ("group-vars-long.json", ["group-vars", *LONG, "--cutoff", "0.3"]),
    ("global-six-cutoff.tsv", ["global-importance", *SIX, "--model", "linear", "--cutoff", "0.6",
                               "--B", "2", "--seed", "3"]),
    ("global-six-knn-groups-mae.json", ["global-importance", *SIX, "--model", "knn:5", *GROUPS,
                                        "--loss", "mae", "--N", "100", "--format", "json", *OUT]),
    ("global-long-pearson.json", ["global-importance", *LONG, "--model", "linear", "--cutoff", "0.3",
                                  "--method", "pearson", "--format", "json", *OUT]),
    ("global-long.tsv", ["global-importance", *LONG, "--model", "linear", "--cutoff", "0.3", *OUT]),
    ("aspects-six-row.tsv", ["predict-aspects", *SIX, "--model", "linear", "--row", "3",
                             "--cutoff", "0.6", "--N", "300"]),
    ("aspects-six-obs-groups-limit1.json", ["predict-aspects", *SIX, "--model", "linear", *OBS,
                                            *GROUPS, "--N", "300", "--limit", "1",
                                            "--format", "json", *OUT]),
    ("aspects-six-knn-limit0.json", ["predict-aspects", *SIX, "--model", "knn:5", "--row", "0",
                                     "--cutoff", "0.6", "--N", "300", "--seed", "4", "--limit", "0",
                                     "--format", "json", *OUT]),
    ("aspects-long-limit-m.tsv", ["predict-aspects", *LONG, "--model", "linear", "--row", "5",
                                  "--cutoff", "0.3", "--method", "pearson", "--N", "300",
                                  "--limit", "4", *OUT]),
    ("aspects-long-limit-m.json", ["predict-aspects", *LONG, "--model", "linear", "--row", "5",
                                   "--cutoff", "0.3", "--method", "pearson", "--N", "300",
                                   "--limit", "4", "--format", "json", *OUT]),
    ("triplot-global-six.json", ["triplot", "--mode", "global", *SIX, "--model", "linear",
                                 "--B", "2", "--seed", "1", *OUT]),
    ("triplot-global-six-knn-single-pearson-mae.json", [
        "triplot", "--mode", "global", *SIX, "--model", "knn:5", "--linkage", "single",
        "--cor-method", "pearson", "--loss", "mae", "--N", "100", *OUT]),
    ("triplot-global-long-average.json", ["triplot", "--mode", "global", *LONG, "--model", "linear",
                                          "--linkage", "average", *OUT]),
    ("triplot-local-six.json", ["triplot", "--mode", "local", *SIX, "--model", "linear",
                                "--row", "2", "--N", "300", "--seed", "5", *OUT]),
    ("triplot-local-six-knn-single-pearson-limit1.json", [
        "triplot", "--mode", "local", *SIX, "--model", "knn:5", "--row", "7", "--N", "300",
        "--linkage", "single", "--cor-method", "pearson", "--limit", "1", *OUT]),
    ("triplot-local-six-obs-average-limit0.json", [
        "triplot", "--mode", "local", *SIX, "--model", "linear", *OBS, "--N", "300",
        "--linkage", "average", "--limit", "0", *OUT]),
    ("triplot-local-long-average-limit-p.json", [
        "triplot", "--mode", "local", *LONG, "--model", "linear", "--row", "1", "--N", "300",
        "--linkage", "average", "--limit", "6", *OUT]),
    ("triplot-local-ties.json", ["triplot", "--mode", "local", *TIES, "--model", "linear",
                                 "--row", "0", "--N", "300", *OUT]),
    ("render-triplot-global-six.svg", ["render", "--in", "{outdir}/triplot-global-six.json", *OUT]),
    ("render-triplot-local-six.svg", ["render", "--in", "{outdir}/triplot-local-six.json", *OUT]),
    ("render-triplot-local-long.svg", [
        "render", "--in", "{outdir}/triplot-local-long-average-limit-p.json", *OUT]),
    ("render-aspects-six.svg", ["render", "--in", "{outdir}/aspects-six-obs-groups-limit1.json", *OUT]),
    ("render-aspects-long.svg", ["render", "--in", "{outdir}/aspects-long-limit-m.json", *OUT]),
]


def _write_csv(path: Path, names, columns) -> None:
    # 17 significant digits, so that load_table reads back every double exactly
    lines = [",".join(names)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in np.column_stack(columns)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_inputs(directory: Path) -> None:
    """The input files, drawn from fixed seeds."""
    rng = np.random.default_rng(20)
    n = 150
    a, c, e, f = (rng.standard_normal(n) for _ in range(4))
    b = a + 0.05 * rng.standard_normal(n)
    d = c + 0.25 * rng.standard_normal(n)
    y = 2.0 * a + 1.0 * c - 0.5 * e + 0.1 * rng.standard_normal(n)
    six = ["a", "b", "c", "d", "e", "f"]
    _write_csv(directory / "six.csv", six + ["y"], [a, b, c, d, e, f, y])
    _write_csv(directory / "obs.csv", six, [[v] for v in (0.5, 0.4, -1.0, -0.8, 2.0, 0.1)])
    (directory / "groups.json").write_text(
        json.dumps({"ab": ["a", "b"], "cd": ["c", "d"], "rest": ["e", "f"]}) + "\n", encoding="utf-8")

    # six names that all read "v" * 40 once cut to 40 characters
    g = rng.standard_normal((n, 3))
    X = np.column_stack([g[:, 0], g[:, 0] + 0.6 * rng.standard_normal(n),
                         g[:, 1], g[:, 1] + 0.8 * rng.standard_normal(n),
                         g[:, 2], rng.standard_normal(n)])
    long_names = ["v" * 40 + str(j) for j in range(6)]
    _write_csv(directory / "long.csv", long_names + ["y"],
               [*X.T, X @ [1.0, -0.5, 0.8, 0.3, -1.2, 0.2] + 0.1 * rng.standard_normal(n)])

    # q and q**3 rank identically, so their Spearman correlation is exactly 1
    q = np.round(2 * rng.standard_normal(80)) / 2
    w = np.round(rng.standard_normal(80))
    T = np.column_stack([q, q**3, w, w + 0.3 * rng.standard_normal(80)])
    _write_csv(directory / "ties.csv", ["q", "q3", "w", "v", "y"], [*T.T, T @ [1.0, 0.2, -1.0, 0.5]])


def run_corpus(outdir: Path) -> dict:
    """Every case's output text by name; a case that exits non-zero raises."""
    outputs = {}
    for name, argv in CASES:
        out = outdir / name
        args = [a.format(data=CORPUS, out=out, outdir=outdir) for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(args)
        if code != 0:
            raise AssertionError(f"{name}: exit {code}: {stderr.getvalue()}")
        outputs[name] = out.read_text(encoding="utf-8") if "--out" in argv else stdout.getvalue()
    return outputs


def test_cli_outputs_match_the_stored_corpus(tmp_path):
    records = json.loads(RECORDS.read_text(encoding="utf-8"))
    outputs = run_corpus(tmp_path)
    assert sorted(outputs) == sorted(records), "the cases and the stored records differ"
    identical, failures = 0, []
    for name, text in outputs.items():
        kind = "svg" if name.endswith(".svg") else "json"
        ok, same, why = reference.check(kind, text, records[name])
        identical += same
        if not ok:
            failures.append(f"{name}: {why}")
    print(f"corpus: {identical} of {len(records)} outputs byte-identical")
    assert not failures, "\n".join(failures)


def test_corpus_long_names_collide():
    names = (CORPUS / "long.csv").read_text(encoding="utf-8").splitlines()[0].split(",")
    assert len({name[:40] for name in names[:-1]}) == 1 < len(names) - 1


def _write_records() -> None:
    CORPUS.mkdir(exist_ok=True)
    if not (CORPUS / "six.csv").exists():
        _write_inputs(CORPUS)
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_corpus(Path(tmp))
    RECORDS.write_text(
        json.dumps({name: reference.record(text) for name, text in outputs.items()}, indent=1)
        + "\n", encoding="utf-8")
    print(f"wrote {len(outputs)} records to {RECORDS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_corpus.py --write")
    _write_records()
