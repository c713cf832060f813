import json
import math
import shlex
import subprocess
import sys
import time
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from aspectra import NumericTable, cli, correlation_matrix, models
from aspectra.aspects import AspectExplanation, AspectRow
from aspectra.global_importance import GlobalImportance
from aspectra.cli import cli_main

from conftest import CHILD, make_six_variable, package_env, save_table


def run(argv, capsys):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------- group-vars


def test_group_vars_prints_partition(six_csv, capsys):
    code, out, _ = run(["group-vars", "--data", six_csv, "--target", "y",
                        "--cutoff", "0.6"], capsys)
    assert code == 0
    groups = json.loads(out)
    assert sorted(groups["a_b"]) == ["a", "b"]
    assert all(isinstance(v, list) for v in groups.values())


def test_group_vars_duplicate_columns(duplicate_csv, capsys):
    code, out, _ = run(["group-vars", "--data", duplicate_csv, "--cutoff", "0.99"], capsys)
    assert code == 0
    assert len(json.loads(out)) == 2  # (p, q) forced together, r alone


def test_group_vars_pearson_flag(six_csv, capsys):
    code, out, _ = run(["group-vars", "--data", six_csv, "--target", "y",
                        "--cutoff", "0.6", "--method", "pearson"], capsys)
    assert code == 0
    json.loads(out)


# ------------------------------------------------------- global-importance


def test_global_importance_tsv(six_csv, capsys):
    code, out, _ = run([
        "global-importance", "--data", six_csv, "--target", "y",
        "--model", "linear", "--cutoff", "0.6", "--B", "2", "--seed", "3",
    ], capsys)
    assert code == 0
    assert "full_model_loss" in out and "baseline_loss" in out
    body = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert body[0].startswith("group\t")


def test_global_importance_json_and_groups_file(six_csv, tmp_path, capsys):
    gfile = tmp_path / "groups.json"
    gfile.write_text(json.dumps({"ab": ["a", "b"], "rest": ["c", "d", "e", "f"]}))
    code, out, _ = run([
        "global-importance", "--data", six_csv, "--target", "y",
        "--model", "linear", "--groups", str(gfile), "--format", "json",
    ], capsys)
    assert code == 0
    doc = json.loads(out)
    assert [g["name"] for g in doc["groups"]] == ["ab", "rest"]


def test_global_importance_knn_model(six_csv, capsys):
    code, out, _ = run([
        "global-importance", "--data", six_csv, "--target", "y",
        "--model", "knn:5", "--cutoff", "0.6", "--loss", "mae",
    ], capsys)
    assert code == 0
    assert "mae" in out


def test_global_importance_subprocess_model(six_csv, capsys):
    cmd = f"{shlex.quote(sys.executable)} {shlex.quote(CHILD)} sum"
    code, out, _ = run([
        "global-importance", "--data", six_csv, "--target", "y",
        "--model", f"cmd:{cmd}", "--cutoff", "0.6",
    ], capsys)
    assert code == 0


def test_model_env_fallback(six_csv, capsys, monkeypatch):
    monkeypatch.setenv("ASPECTRA_MODEL_CMD",
                       f"{shlex.quote(sys.executable)} {shlex.quote(CHILD)} constant")
    code, out, _ = run([
        "predict-aspects", "--data", six_csv, "--target", "y",
        "--row", "0", "--cutoff", "0.6", "--N", "200",
    ], capsys)
    assert code == 0
    # constant external model: every contribution is zero
    body = [l.split("\t") for l in out.splitlines() if l and not l.startswith(("#", "aspect"))]
    assert all(float(cols[2]) == 0.0 for cols in body)


def test_no_model_no_env_is_computation_error(six_csv, capsys):
    code, _, err = run([
        "global-importance", "--data", six_csv, "--target", "y",
        "--cutoff", "0.6",
    ], capsys)
    assert code == 1
    assert "ASPECTRA_MODEL_CMD" in err


@pytest.mark.parametrize("spec", ["cmd:", "cmd:   ", "cmd:'x", 'cmd:python3 "a', "cmd:x \\"])
def test_unusable_model_command_is_exit_1(spec, six_csv, capsys):
    # an empty argv, or one shlex cannot split, is a computation error
    code, out, err = run([
        "global-importance", "--data", six_csv, "--target", "y",
        "--model", spec, "--cutoff", "0.6",
    ], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_unsplittable_model_env_is_exit_1(six_csv, capsys, monkeypatch):
    monkeypatch.setenv("ASPECTRA_MODEL_CMD", "'x")
    code, _, err = run([
        "global-importance", "--data", six_csv, "--target", "y", "--cutoff", "0.6",
    ], capsys)
    assert code == 1
    assert "No closing quotation" in err


@pytest.fixture
def children(monkeypatch):
    """Every child process started by a cmd: model that the CLI builds."""
    started = []

    class Recording(models.SubprocessModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self._proc)

    monkeypatch.setattr(cli, "SubprocessModel", Recording)
    return started


def child_spec(mode):
    return f"cmd:{shlex.quote(sys.executable)} {shlex.quote(CHILD)} {mode}"


@pytest.mark.parametrize("argv, exit_code", [
    (["global-importance", "--cutoff", "0.6"], 0),
    (["predict-aspects", "--row", "0", "--cutoff", "0.6", "--N", "200"], 0),
    (["triplot", "--mode", "global"], 0),
    (["triplot", "--mode", "local", "--row", "0", "--N", "200"], 0),
    # fails after the child has answered: the cap is negative
    (["predict-aspects", "--row", "0", "--cutoff", "0.6", "--N", "200", "--limit", "-1"], 1),
])
def test_cli_closes_the_model_it_builds(argv, exit_code, six_csv, children, capsys):
    code, _, err = run(argv[:1] + ["--data", six_csv, "--target", "y",
                                   "--model", child_spec("sum")] + argv[1:], capsys)
    assert code == exit_code, err
    assert len(children) == 1
    assert children[0].returncode is not None  # exited and reaped
    assert children[0].stdout.closed


def test_model_that_outlives_its_input_is_exit_1(six_csv, children, capsys, monkeypatch):
    monkeypatch.setattr(models, "_CLOSE_TIMEOUT_S", 0.5)
    code, out, err = run([
        "predict-aspects", "--data", six_csv, "--target", "y", "--model", child_spec("linger"),
        "--row", "0", "--cutoff", "0.6", "--N", "200",
    ], capsys)
    assert code == 1
    assert out == ""
    assert "killed" in err
    assert children[0].returncode is not None


def test_a_close_failure_does_not_hide_the_error_already_raised(tmp_path, children, capsys):
    # the load fails first; the lingering child is killed at once and
    # reaped, without waiting out the close timeout, and the missing file is
    # the error reported
    assert models._CLOSE_TIMEOUT_S >= 2
    start = time.perf_counter()
    code, out, err = run([
        "predict-aspects", "--data", str(tmp_path / "missing.csv"),
        "--model", child_spec("linger"), "--row", "0", "--cutoff", "0.6",
    ], capsys)
    assert time.perf_counter() - start < 2
    assert (code, out) == (1, "")
    assert "No such file" in err and "killed" not in err
    assert len(children) == 1
    assert children[0].returncode is not None
    assert children[0].stdout.closed


_MODEL_COMMANDS = {
    "global-importance": ["global-importance", "--cutoff", "0.6"],
    "predict-aspects": ["predict-aspects", "--row", "0", "--cutoff", "0.6", "--N", "200"],
    "triplot": ["triplot", "--mode", "global"],
}


def _bad_data(kind, tmp_path):
    if kind == "missing":
        return str(tmp_path / "missing.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,y\n1,2,3\n4,oops,6\n")
    return str(bad)


@pytest.mark.parametrize("kind", ["missing", "non-numeric"])
@pytest.mark.parametrize("command", sorted(_MODEL_COMMANDS))
def test_unloadable_data_with_a_child_model_is_exit_1(command, kind, tmp_path, children, capsys):
    # the child starts before the CSV is read; the load error is the one a
    # fitted model, built after the load, reports, and the child is reaped
    argv = _MODEL_COMMANDS[command]
    data = ["--data", _bad_data(kind, tmp_path), "--target", "y"]
    code, out, err = run(argv[:1] + data + ["--model", child_spec("sum")] + argv[1:], capsys)
    assert (code, out) == (1, "")
    assert len(children) == 1
    assert children[0].returncode is not None
    assert children[0].stdout.closed
    fitted = run(argv[:1] + data + ["--model", "linear"] + argv[1:], capsys)
    assert fitted == (1, "", err)
    assert ("No such file" if kind == "missing" else "'oops'") in err


@pytest.mark.parametrize("spec, message", [
    (None, "ASPECTRA_MODEL_CMD is unset"),
    ("cmd:'x", "cannot split model command"),
    ("cmd:", "empty argv"),
    ("cmd:/no/such/binary", "cannot start"),
])
def test_a_bad_child_spec_is_reported_before_unloadable_data(spec, message, tmp_path,
                                                             capsys, monkeypatch):
    # a child model is built before the CSV is read, so its error comes first
    monkeypatch.delenv("ASPECTRA_MODEL_CMD", raising=False)
    model = [] if spec is None else ["--model", spec]
    code, out, err = run(["predict-aspects", "--data", str(tmp_path / "missing.csv"),
                          *model, "--row", "0", "--cutoff", "0.6"], capsys)
    assert (code, out) == (1, "")
    assert message in err


# --------------------------------------------------------- predict-aspects


def test_predict_aspects_row(six_csv, capsys):
    code, out, _ = run([
        "predict-aspects", "--data", six_csv, "--target", "y", "--model", "linear",
        "--row", "2", "--cutoff", "0.6", "--N", "500", "--seed", "1",
    ], capsys)
    assert code == 0
    assert out.splitlines()[-1].count("\t") == 4


def test_predict_aspects_obs_file(six_csv, tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    obs.write_text("a,b,c,d,e,f\n0.1,0.2,0.3,0.4,0.5,0.6\n")
    code, out, _ = run([
        "predict-aspects", "--data", six_csv, "--target", "y", "--model", "linear",
        "--obs", str(obs), "--cutoff", "0.6", "--N", "500", "--format", "json",
    ], capsys)
    assert code == 0
    doc = json.loads(out)
    assert {a["name"] for a in doc["aspects"]} >= {"a_b"}


def test_predict_aspects_limit(six_csv, capsys):
    code, out, _ = run([
        "predict-aspects", "--data", six_csv, "--target", "y", "--model", "linear",
        "--row", "0", "--cutoff", "0.6", "--N", "800", "--limit", "1",
        "--format", "json",
    ], capsys)
    assert code == 0
    doc = json.loads(out)
    nonzero = [a for a in doc["aspects"] if a["contribution"] != 0.0]
    assert len(nonzero) <= 1


def test_predict_aspects_limit_above_aspect_count(six_csv, capsys):
    # cutoff 0.6 gives four aspects: a_b, c_d, e and f
    argv = ["predict-aspects", "--data", six_csv, "--target", "y", "--model", "linear",
            "--row", "0", "--cutoff", "0.6", "--N", "800", "--format", "json", "--limit"]
    code, at_m, err = run(argv + ["4"], capsys)
    assert code == 0, err
    assert len(json.loads(at_m)["aspects"]) == 4
    assert run(argv + ["99"], capsys) == (0, at_m, "")


def _six_csv_as(path, names, target_first=False, bom=False):
    """The six-variable data under other column names, each header field
    quoted, so that a name may hold a comma, tab or line break."""
    table, y = make_six_variable()
    names, values = (*names, "y"), np.column_stack((table.values, y))
    if target_first:
        names, values = names[-1:] + names[:-1], np.roll(values, 1, axis=1)
    lines = [",".join(f'"{name}"' for name in names)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in values]
    path.write_text(("\ufeff" if bom else "") + "\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name", ["a\tb", "a\rb", "a\nb", "a,b"])
@pytest.mark.parametrize("command", [
    ["global-importance", "--model", "linear", "--cutoff", "0.6"],
    ["predict-aspects", "--model", "linear", "--row", "0", "--cutoff", "0.6", "--N", "200"],
], ids=["global-importance", "predict-aspects"])
def test_tsv_rejects_names_it_cannot_hold(command, name, tmp_path, capsys):
    # a tab or line break would split a field or a row, and a comma in a
    # column name would read as one more member
    csv = _six_csv_as(tmp_path / "renamed.csv", (name, "b", "c", "d", "e", "f"))
    argv = command[:1] + ["--data", csv, "--target", "y"] + command[1:]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "TSV" in err
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert any(name in row["members"] for row in doc.get("groups") or doc["aspects"])


def test_byte_order_mark_data_file_reads_as_without(tmp_path, capsys):
    # the mark must not become part of the first column's name, the target here
    argv = ["group-vars", "--target", "y", "--cutoff", "0.6", "--data"]
    names = ("a", "b", "c", "d", "e", "f")
    plain = run(argv + [_six_csv_as(tmp_path / "plain.csv", names, target_first=True)], capsys)
    assert plain[0] == 0
    bom = _six_csv_as(tmp_path / "bom.csv", names, target_first=True, bom=True)
    assert run(argv + [bom], capsys) == plain


def test_byte_order_mark_json_files_read_as_without(six_csv, tmp_path, capsys):
    groups = json.dumps({"ab": ["a", "b"], "rest": ["c", "d", "e", "f"]})
    outputs = []
    for encoding in ("utf-8", "utf-8-sig"):  # utf-8-sig writes the mark
        gfile, doc, svg = (tmp_path / f"{encoding}.{ext}" for ext in ("groups", "json", "svg"))
        gfile.write_text(groups, encoding=encoding)
        code, out, err = run([
            "predict-aspects", "--data", six_csv, "--target", "y", "--model", "linear",
            "--row", "0", "--groups", str(gfile), "--N", "200", "--format", "json",
        ], capsys)
        assert code == 0, err
        doc.write_text(out, encoding=encoding)
        code, _, err = run(["render", "--in", str(doc), "--out", str(svg)], capsys)
        assert code == 0, err
        outputs.append((out, svg.read_text(encoding="utf-8")))
    assert outputs[0] == outputs[1]


def test_predict_aspects_row_out_of_range(six_csv, capsys):
    code, _, err = run([
        "predict-aspects", "--data", six_csv, "--target", "y", "--model", "linear",
        "--row", "100000", "--cutoff", "0.6",
    ], capsys)
    assert code == 1
    assert "row" in err


def test_predict_aspects_obs_schema_mismatch(six_csv, tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    obs.write_text("wrong,names\n1.0,2.0\n")
    code, _, err = run([
        "predict-aspects", "--data", six_csv, "--target", "y", "--model", "linear",
        "--obs", str(obs), "--cutoff", "0.6",
    ], capsys)
    assert code == 1


# ------------------------------------------------------------------ triplot


def test_triplot_global_to_file(six_csv, tmp_path, capsys):
    out_file = tmp_path / "result.json"
    code, _, _ = run([
        "triplot", "--mode", "global", "--data", six_csv, "--target", "y",
        "--model", "linear", "--B", "2", "--seed", "0", "--out", str(out_file),
    ], capsys)
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["mode"] == "global"
    assert len(doc["leaves"]) == 6 and len(doc["nodes"]) == 5


def test_triplot_local_stdout(six_csv, capsys):
    code, out, _ = run([
        "triplot", "--mode", "local", "--data", six_csv, "--target", "y",
        "--model", "linear", "--row", "1", "--N", "400", "--seed", "2",
    ], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "local"
    assert "x_star" in doc["metadata"]


def test_triplot_local_needs_observation(six_csv, capsys):
    code, _, err = run([
        "triplot", "--mode", "local", "--data", six_csv, "--target", "y",
        "--model", "linear",
    ], capsys)
    assert code == 1
    assert "--row" in err or "--obs" in err


# ------------------------------------------------------------------ render


def test_render_triplot_document(six_csv, tmp_path, capsys):
    result = tmp_path / "r.json"
    svg_file = tmp_path / "r.svg"
    assert run([
        "triplot", "--mode", "global", "--data", six_csv, "--target", "y",
        "--model", "linear", "--out", str(result),
    ], capsys)[0] == 0
    code, _, _ = run(["render", "--in", str(result), "--out", str(svg_file)], capsys)
    assert code == 0
    svg = svg_file.read_text()
    ET.fromstring(svg)
    assert svg.count('class="bar"') == 6
    assert svg.count('class="junction"') == 5


def test_render_aspects_document(six_csv, tmp_path, capsys):
    result = tmp_path / "a.json"
    svg_file = tmp_path / "a.svg"
    assert run([
        "predict-aspects", "--data", six_csv, "--target", "y", "--model", "linear",
        "--row", "0", "--cutoff", "0.6", "--N", "400", "--format", "json",
        "--out", str(result),
    ], capsys)[0] == 0
    code, _, _ = run(["render", "--in", str(result), "--out", str(svg_file)], capsys)
    assert code == 0
    ET.fromstring(svg_file.read_text())


def test_render_unknown_document(tmp_path, capsys):
    bad = tmp_path / "x.json"
    for text in ('{"hello": 1}', '["tree", "leaves"]'):
        bad.write_text(text)
        code, _, err = run(["render", "--in", str(bad), "--out", str(tmp_path / "x.svg")],
                           capsys)
        assert code == 1
        assert "unrecognized" in err


_MALFORMED = {
    "leaf-without-name": ("triplot", lambda d: d["leaves"][0].pop("name")),
    "tree-not-a-list": ("triplot", lambda d: d.update(tree=5)),
    "aspect-without-members": ("aspects", lambda d: d["aspects"][0].pop("members")),
    "fewer-nodes-than-merges": ("triplot", lambda d: d["nodes"].pop()),
    "more-leaves-than-the-tree": ("triplot", lambda d: d["leaves"].append(d["leaves"][0])),
    "merge-of-an-unknown-cluster": ("triplot", lambda d: d["tree"][0].update(left=99)),
    "global-without-losses": ("triplot", lambda d: d["metadata"].pop("baseline_loss")),
    "local-without-x-star": ("local", lambda d: d["metadata"].pop("x_star")),
    "local-with-short-x-star": ("local", lambda d: d["metadata"]["x_star"].pop()),
    "non-numeric-contribution": ("aspects", lambda d: d["aspects"][0].update(contribution="x")),
    "nan-leaf-importance": ("triplot", lambda d: d["leaves"][0].update(importance=math.nan)),
    "inf-node-importance": ("triplot", lambda d: d["nodes"][0].update(importance=math.inf)),
    "nan-merge-height": ("triplot", lambda d: d["tree"][0].update(height=math.nan)),
    "inf-baseline-loss": ("triplot", lambda d: d["metadata"].update(baseline_loss=-math.inf)),
    "nan-model-loss": ("triplot", lambda d: d["metadata"].update(full_model_loss=math.nan)),
    "nan-contribution": ("aspects", lambda d: d["aspects"][0].update(contribution=math.nan)),
    "inf-min-abs-cor": ("aspects", lambda d: d["aspects"][0].update(min_abs_cor=math.inf)),
    "nan-lambda": ("aspects", lambda d: d["metadata"].update({"lambda": math.nan})),
    "string-n": ("aspects", lambda d: d["metadata"].update(N="lots")),
    "list-seed": ("aspects", lambda d: d["metadata"].update(seed=[1, 2])),
    "string-members": ("aspects", lambda d: d["aspects"][0].update(members="abc")),
    "numeric-member": ("aspects", lambda d: d["aspects"][0].update(members=[1])),
    "numeric-aspect-name": ("aspects", lambda d: d["aspects"][0].update(name=7)),
    "string-sign-consistent": ("aspects", lambda d: d["aspects"][0].update(sign_consistent="no")),
    "numeric-string-contribution": ("aspects", lambda d: d["aspects"][0].update(contribution="1.5")),
    "boolean-min-abs-cor": ("aspects", lambda d: d["aspects"][0].update(min_abs_cor=True)),
    "integer-past-float-range": ("aspects", lambda d: d["aspects"][0].update(contribution=10**400)),
    "fractional-merge-id": ("triplot", lambda d: d["tree"][0].update(left=d["tree"][0]["left"] + 0.5)),
    "string-merge-id": ("triplot", lambda d: d["tree"][0].update(right=str(d["tree"][0]["right"]))),
    "string-merge-members": ("triplot", lambda d: d["tree"][0].update(
        members=[str(i) for i in d["tree"][0]["members"]])),
    "numeric-leaf-name": ("triplot", lambda d: d["leaves"][0].update(name=3)),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_render_malformed_document_is_exit_1(case, six_csv, tmp_path, capsys):
    kind, corrupt = _MALFORMED[case]
    doc_file = tmp_path / "doc.json"
    if kind == "triplot":
        argv = ["triplot", "--mode", "global"]
    elif kind == "local":
        argv = ["triplot", "--mode", "local", "--row", "0", "--N", "200"]
    else:
        argv = ["predict-aspects", "--row", "0", "--cutoff", "0.6", "--N", "200",
                "--format", "json"]
    assert run(argv[:1] + ["--data", six_csv, "--target", "y", "--model", "linear",
                           "--out", str(doc_file)] + argv[1:], capsys)[0] == 0
    doc = json.loads(doc_file.read_text())
    corrupt(doc)
    doc_file.write_text(json.dumps(doc))
    code, _, err = run(["render", "--in", str(doc_file), "--out", str(tmp_path / "x.svg")],
                       capsys)
    assert code == 1
    assert err.startswith("error: ")


# -------------------------------------------------------------- exit codes


def test_usage_error_is_exit_2(capsys):
    assert run(["group-vars"], capsys)[0] == 2  # missing required flags
    assert run(["no-such-command"], capsys)[0] == 2
    assert run([], capsys)[0] == 2


def test_computation_error_is_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,oops\n")
    code, _, err = run(["group-vars", "--data", str(bad), "--cutoff", "0.5"], capsys)
    assert code == 1
    assert "error:" in err


@pytest.fixture
def huge_target_csv(tmp_path):
    # a target near 1e300: the RMSE's squared errors pass the float64 range
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 3))
    path = str(tmp_path / "huge.csv")
    save_table(NumericTable(("a", "b", "c"), X), path, target_name="y",
               target=1e300 * (X @ [1.0, -2.0, 0.5]))
    return path


@pytest.mark.parametrize("argv", [
    ["global-importance", "--cutoff", "0.5", "--format", "json"],
    ["global-importance", "--cutoff", "0.5"],
    ["triplot", "--mode", "global"],
], ids=["global-importance-json", "global-importance-tsv", "triplot-global"])
def test_overflowing_loss_is_exit_1(argv, huge_target_csv, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, err = run(argv[:1] + ["--data", huge_target_csv, "--target", "y",
                                        "--model", "linear", "--out", str(out)] + argv[1:],
                            capsys)
    assert (code, stdout) == (1, "")
    assert err.startswith("error: the rmse loss overflows") and err.count("\n") == 1
    assert not out.exists()


def test_json_documents_hold_no_non_finite_number(six_csv, tmp_path, monkeypatch, capsys):
    # whatever computed it, NaN never reaches a document: writing one is an error
    nan_lambda = AspectExplanation(aspects=(), N=200, seed=0, lam=math.nan)
    monkeypatch.setattr(cli, "predict_aspects", lambda *args, **kwargs: nan_lambda)
    out = tmp_path / "pa.json"
    code, stdout, err = run(["predict-aspects", "--data", six_csv, "--target", "y",
                             "--model", "linear", "--row", "0", "--cutoff", "0.6",
                             "--format", "json", "--out", str(out)], capsys)
    assert (code, stdout) == (1, "")
    assert err.startswith("error: cannot write a non-finite number") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("subcommand", ["predict-aspects", "global-importance"])
def test_tsv_documents_hold_no_non_finite_number(subcommand, value, six_csv, tmp_path,
                                                 monkeypatch, capsys):
    # TSV has the same backstop as JSON: a non-finite number is an error
    if subcommand == "predict-aspects":
        row = AspectRow(name="a", members=("a",), contribution=value, min_abs_cor=1.0,
                        sign_consistent=True)
        result = AspectExplanation(aspects=(row,), N=200, seed=0, lam=None)
        monkeypatch.setattr(cli, "predict_aspects", lambda *args, **kwargs: result)
        extra = ["--row", "0"]
    else:
        result = GlobalImportance(groups=(), full_model_loss=1.0, baseline_loss=value,
                                  column_names=("a",))
        monkeypatch.setattr(cli, "group_importance", lambda *args, **kwargs: result)
        extra = []
    out = tmp_path / "out.tsv"
    code, stdout, err = run([subcommand, "--data", six_csv, "--target", "y", "--model", "linear",
                             "--cutoff", "0.6", *extra, "--out", str(out)], capsys)
    assert (code, stdout) == (1, "")
    assert err == f"error: cannot write a non-finite number to a TSV document: {value!r}\n"
    assert not out.exists()


@pytest.fixture
def overflowing_shift_csv(tmp_path):
    # a target near 1e307: the linear model's prediction shifts are finite,
    # but their sums Z = X'^T Y pass the float64 range
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 3))
    path = str(tmp_path / "huge.csv")
    save_table(NumericTable(("a", "b", "c"), X), path, target_name="y",
               target=1e307 * (X @ [1.0, -2.0, 0.5]))
    return path


@pytest.mark.parametrize("argv", [
    ["predict-aspects", "--cutoff", "0.5", "--format", "tsv"],
    ["predict-aspects", "--cutoff", "0.5", "--format", "json"],
    ["triplot", "--mode", "local"],
], ids=["predict-aspects-tsv", "predict-aspects-json", "triplot-local"])
def test_overflowing_prediction_shift_is_exit_1(argv, overflowing_shift_csv, tmp_path, capsys):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no overflow warning on the way
        code, stdout, err = run(argv[:1] + ["--data", overflowing_shift_csv, "--target", "y",
                                            "--model", "linear", "--row", "0",
                                            "--out", str(out)] + argv[1:], capsys)
    assert (code, stdout) == (1, "")
    assert err.startswith("error: the prediction shifts") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["predict-aspects", "--cutoff", "0.5", "--format", "tsv"],
    ["predict-aspects", "--cutoff", "0.5", "--format", "json", "--limit", "1"],
    ["triplot", "--mode", "local"],
], ids=["predict-aspects-tsv", "predict-aspects-json-limit", "triplot-local"])
def test_large_prediction_shifts_explain_without_a_warning(argv, tmp_path, capsys):
    # a target near 1e200: the shifts and their sums are finite, but their
    # squares in the surrogate's residual norm are not
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 3))
    data, out = str(tmp_path / "large.csv"), tmp_path / "out"
    save_table(NumericTable(("a", "b", "c"), X), data, target_name="y",
               target=1e200 * (X @ [1.0, -2.0, 0.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(argv[:1] + ["--data", data, "--target", "y", "--model", "linear",
                                       "--row", "0", "--out", str(out)] + argv[1:], capsys)
    assert (code, err) == (0, "")
    text = out.read_text()
    assert "nan" not in text.lower() and "inf" not in text.lower()


@pytest.mark.parametrize("argv", [
    ["group-vars", "--cutoff", "0.5", "--method", "pearson"],
    ["triplot", "--mode", "global", "--model", "knn:3", "--cor-method", "pearson"],
], ids=["group-vars", "triplot-global"])
def test_columns_near_1e300_correlate_as_their_scaled_copies(argv, tmp_path, capsys):
    # the Pearson sums of squares of a column near 1e300 pass the float64
    # range; they gave NaN correlations with an overflow warning, and then
    # an error or a tree of NaN heights (found by tests/test_cli_fuzz.py)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 3))
    X[:, 1] = X[:, 0] + 0.3 * rng.standard_normal(30)
    docs = []
    for scale in (1.0, 1e300):
        data = str(tmp_path / f"scaled-{scale:g}.csv")
        save_table(NumericTable(("a", "b", "c"), X * [scale, scale, 1.0]), data,
                   target_name="y", target=X @ [1.0, -0.5, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(argv[:1] + ["--data", data, "--target", "y"] + argv[1:], capsys)
        assert (code, err) == (0, "")
        docs.append(json.loads(out))
    if argv[0] == "group-vars":
        assert docs[0] == docs[1] == {"a_b": ["a", "b"], "c": ["c"]}
    else:
        small, huge = (doc["tree"] for doc in docs)
        assert [m["members"] for m in huge] == [m["members"] for m in small]
        assert [m["height"] for m in huge] == pytest.approx([m["height"] for m in small],
                                                           abs=1e-12)


_ASPECTS = ["predict-aspects", "--data", "{data}", "--row", "0", "--cutoff", "0.6"]


@pytest.mark.parametrize("argv, message", [
    ([*_ASPECTS, "--model", "linear"], "--model linear needs --target to fit"),
    ([*_ASPECTS, "--target", "y", "--model", "knn:x"], "bad knn spec 'knn:x', expected knn:K"),
    ([*_ASPECTS, "--target", "y", "--model", "forest"], "unknown model spec 'forest'"),
    (["predict-aspects", "--data", "{data}", "--target", "y", "--model", "linear",
      "--obs", "{obs}", "--cutoff", "0.6"], "--obs file must have exactly 1 data row, got 2"),
    (["triplot", "--mode", "global", "--data", "{data}", "--model", child_spec("sum")],
     "global triplot needs --target"),
], ids=["linear-without-target", "bad-knn-spec", "unknown-model", "two-row-obs",
        "global-cmd-without-target"])
def test_bad_model_or_observation_is_exit_1(argv, message, six_csv, tmp_path, children, capsys):
    obs = tmp_path / "obs.csv"
    obs.write_text("a,b,c,d,e,f\n" + "0.1,0.2,0.3,0.4,0.5,0.6\n" * 2)
    code, out, err = run([arg.format(data=six_csv, obs=obs) for arg in argv], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err
    assert all(proc.returncode is not None for proc in children)  # the child was stopped


def _unreadable_file_cases(csv, tmp):
    missing = str(tmp / "missing")
    broken = tmp / "broken.json"
    broken.write_text('{"ab": ["a", "b"')
    latin = tmp / "latin.bin"
    latin.write_bytes(b"x,y\n\xff\xfe,1\n")  # not UTF-8
    listed = tmp / "list.json"
    listed.write_text("[1, 2]")  # not an object
    scalar = tmp / "scalar.json"
    scalar.write_text('{"g": 5, "h": ["b", "c"]}')  # a group that is not names
    model = ["--target", "y", "--model", "linear"]
    local = ["predict-aspects", "--data", csv, *model, "--row", "0"]
    return {
        "missing-data": ["group-vars", "--data", missing, "--cutoff", "0.5"],
        "non-utf8-data": ["group-vars", "--data", str(latin), "--cutoff", "0.5"],
        "missing-groups": ["global-importance", "--data", csv, *model, "--groups", missing],
        "malformed-groups": ["global-importance", "--data", csv, *model, "--groups", str(broken)],
        "non-utf8-groups": ["global-importance", "--data", csv, *model, "--groups", str(latin)],
        "list-groups": ["global-importance", "--data", csv, *model, "--groups", str(listed)],
        "scalar-group": ["global-importance", "--data", csv, *model, "--groups", str(scalar)],
        "local-list-groups": [*local, "--groups", str(listed)],
        "local-scalar-group": [*local, "--groups", str(scalar)],
        "missing-obs": ["predict-aspects", "--data", csv, *model, "--obs", missing,
                        "--cutoff", "0.6"],
        "missing-in": ["render", "--in", missing, "--out", str(tmp / "x.svg")],
        "malformed-in": ["render", "--in", str(broken), "--out", str(tmp / "x.svg")],
    }


@pytest.mark.parametrize("case", ["missing-data", "non-utf8-data", "missing-groups",
                                  "malformed-groups", "non-utf8-groups", "list-groups",
                                  "scalar-group", "local-list-groups", "local-scalar-group",
                                  "missing-obs",
                                  "missing-in", "malformed-in"])
def test_unreadable_input_file_is_exit_1(case, six_csv, tmp_path, capsys):
    code, out, err = run(_unreadable_file_cases(six_csv, tmp_path)[case], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_help_is_exit_0(capsys):
    assert run(["--help"], capsys)[0] == 0
    assert run(["triplot", "--help"], capsys)[0] == 0


# ------------------------------------------------------------- determinism


def test_cli_determinism_same_seed(six_csv, capsys):
    argv = [
        "predict-aspects", "--data", six_csv, "--target", "y", "--model", "linear",
        "--row", "0", "--cutoff", "0.6", "--N", "500", "--seed", "42",
    ]
    out1 = run(argv, capsys)[1]
    out2 = run(argv, capsys)[1]
    assert out1 == out2


def test_installed_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "aspectra.cli", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "group-vars" in proc.stdout


NO_SCIPY_RUN = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from aspectra.cli import cli_main
for argv in json.loads(sys.argv[1]):
    code = cli_main(argv)
    if code:
        sys.exit(code)
"""


def test_cli_runs_without_scipy(tmp_path, capsys):
    # q and q**3 rank identically, so their Spearman correlation is exactly 1
    rng = np.random.default_rng(5)
    q = np.round(2 * rng.standard_normal(80)) / 2
    w = np.round(rng.standard_normal(80))
    X = np.column_stack([q, q**3, w, w + 0.3 * rng.standard_normal(80)])
    table = NumericTable(("q", "q3", "w", "v"), X)
    assert correlation_matrix(table)[0, 1] == 1.0
    data = str(tmp_path / "ties.csv")
    save_table(table, data, target_name="y", target=X @ [1.0, 0.2, -1.0, 0.5])

    def commands(out_dir):
        doc, svg = str(out_dir / "local.json"), str(out_dir / "local.svg")
        return [
            ["group-vars", "--data", data, "--target", "y", "--cutoff", "0.5"],
            ["triplot", "--mode", "local", "--data", data, "--target", "y", "--model", "linear",
             "--row", "3", "--N", "300", "--seed", "2", "--out", doc],
            ["render", "--in", doc, "--out", svg],
        ]

    here, there = tmp_path / "in-process", tmp_path / "no-scipy"
    here.mkdir()
    there.mkdir()
    ran = [run(argv, capsys) for argv in commands(here)]
    assert [code for code, _, _ in ran] == [0, 0, 0]
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, json.dumps(commands(there))],
                          capture_output=True, text=True, env=package_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "".join(out for _, out, _ in ran)
    for name in ("local.json", "local.svg"):
        assert (there / name).read_bytes() == (here / name).read_bytes()
