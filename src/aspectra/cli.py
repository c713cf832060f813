"""Command-line surface: group-vars, global-importance, predict-aspects, triplot, render.

Exit codes: 0 success, 1 computation error (message on stderr), 2 usage error.
The ASPECTRA_MODEL_CMD environment variable supplies the external model
command when --model is absent.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shlex
import sys

from .aspects import AspectExplanation, predict_aspects
from .cluster import CORRELATION_METHODS, VALID_LINKAGES, group_variables
from .data import AspectPartition, Observation, _instance, _json_text, load_table
from .errors import AspectraError, SchemaMismatch
from .global_importance import PermutationConfig, group_importance
from .models import LOSS_KINDS, SubprocessModel, fit_knn, fit_linear
from .render import render_aspects, render_triplot
from .triplot import TriplotConfig, TriplotResult, model_triplot, predict_triplot


def _child_model(model_spec):
    """The SubprocessModel that a cmd: spec, or no spec, names; None for linear and knn:K."""
    if model_spec is None:
        cmd = os.environ.get("ASPECTRA_MODEL_CMD", "").strip()
        if not cmd:
            raise AspectraError("no --model given and ASPECTRA_MODEL_CMD is unset")
    elif model_spec.startswith("cmd:"):
        cmd = model_spec[4:]
    else:
        return None
    try:
        argv = shlex.split(cmd)
    except ValueError as e:  # an unclosed quote or a trailing backslash
        raise AspectraError(f"cannot split model command {cmd!r}: {e}") from None
    return SubprocessModel(argv)


def _fitted_model(model_spec, table, y):
    if model_spec == "linear":
        if y is None:
            raise AspectraError("--model linear needs --target to fit")
        return fit_linear(table, y)
    if model_spec.startswith("knn:"):
        if y is None:
            raise AspectraError("--model knn:K needs --target to fit")
        try:
            k = int(model_spec[4:])
        except ValueError:
            raise AspectraError(f"bad knn spec {model_spec!r}, expected knn:K") from None
        return fit_knn(table, y, k)
    raise AspectraError(f"unknown model spec {model_spec!r}; use linear, knn:K or cmd:...")


@contextlib.contextmanager
def _table_and_model(args):
    """The --data table, its target and the --model, left through its `with` protocol if it has one.

    A child model is built first, so that its process starts, or fails to
    start, before the CSV loads; linear and knn:K are fitted to the loaded
    table. On success the child is closed; on an error it is killed at once,
    and the error is the one reported.
    """
    model = _child_model(args.model)
    with model if hasattr(model, "__exit__") else contextlib.nullcontext():
        table, y = load_table(args.data, target=args.target)
        if model is None:
            model = _fitted_model(args.model, table, y)
        yield table, y, model


def _parse_grouping(args, table):
    if args.groups is not None:
        with open(args.groups, "r", encoding="utf-8-sig") as fh:
            mapping = json.load(fh)
        return AspectPartition.from_name_dict(mapping, table)
    return group_variables(table, args.cutoff, args.method)


def _parse_observation(args, table):
    if args.row is not None:
        return table.row(args.row)
    obs_table, _ = load_table(args.obs)
    if obs_table.n != 1:
        raise AspectraError(f"--obs file must have exactly 1 data row, got {obs_table.n}")
    try:
        order = [obs_table.column_index(name) for name in table.column_names]
    except AspectraError:
        raise SchemaMismatch(
            f"observation columns {obs_table.column_names} do not cover {table.column_names}"
        ) from None
    return Observation(obs_table.values[0, order])


def _emit(text, out_path):
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_group_vars(args) -> int:
    table, _ = load_table(args.data, target=args.target)
    partition = group_variables(table, args.cutoff, args.method)
    _emit(_json_text(partition.to_name_dict(table.column_names)) + "\n", None)
    return 0


def _cmd_global_importance(args) -> int:
    with _table_and_model(args) as (table, y, model):
        partition = _parse_grouping(args, table)
        cfg = PermutationConfig(loss=args.loss, B=args.B, N=args.N, seed=args.seed)
        result = group_importance(model, table, y, partition, cfg)
    _emit(result.to_json() + "\n" if args.format == "json" else result.to_tsv(), args.out)
    return 0


def _cmd_predict_aspects(args) -> int:
    with _table_and_model(args) as (table, y, model):
        x_star = _parse_observation(args, table)
        expl = predict_aspects(
            model, table, x_star, _parse_grouping(args, table),
            N=args.N, seed=args.seed, limit=args.limit, method=args.method,
        )
    _emit(expl.to_json() + "\n" if args.format == "json" else expl.to_tsv(), args.out)
    return 0


def _cmd_triplot(args) -> int:
    with _table_and_model(args) as (table, y, model):
        if args.mode == "global":
            if y is None:
                raise AspectraError("global triplot needs --target")
            cfg = TriplotConfig(
                mode="global",
                cor_method=args.cor_method,
                linkage=args.linkage,
                permutation=PermutationConfig(loss=args.loss, B=args.B, N=args.N, seed=args.seed),
            )
            result = model_triplot(model, table, y, cfg)
        else:
            if args.row is None and args.obs is None:
                raise AspectraError("local triplot needs --row or --obs")
            x_star = _parse_observation(args, table)
            cfg = TriplotConfig(
                mode="local",
                cor_method=args.cor_method,
                linkage=args.linkage,
                N=args.N if args.N is not None else 2000,
                seed=args.seed,
                limit=args.limit,
            )
            result = predict_triplot(model, table, x_star, cfg)
    _emit(result.to_json() + "\n", args.out)
    return 0


def _cmd_render(args) -> int:
    with open(args.infile, "r", encoding="utf-8-sig") as fh:
        doc = json.load(fh)
    if "tree" in _instance("unrecognized result document", doc, dict) and "leaves" in doc:
        svg = render_triplot(TriplotResult.from_json_doc(doc))
    elif "aspects" in doc:
        svg = render_aspects(AspectExplanation.from_json_doc(doc))
    else:
        raise AspectraError("unrecognized result document: expected triplot or aspect JSON")
    _emit(svg, args.out)
    return 0


def _add_model_data_flags(sub, target_required):
    sub.add_argument("--data", required=True, help="CSV file with a header row")
    sub.add_argument("--target", required=target_required, default=None,
                     help="target column name, split out of the features")
    sub.add_argument("--model", default=None,
                     help="linear | knn:K | cmd:COMMAND (default: ASPECTRA_MODEL_CMD)")


def _add_grouping_flags(sub):
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument("--groups", default=None,
                     help="JSON file mapping group name to column names")
    grp.add_argument("--cutoff", type=float, default=None,
                     help="correlation cutoff for automatic grouping")
    sub.add_argument("--method", choices=CORRELATION_METHODS, default="spearman",
                     help="correlation method for --cutoff grouping")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aspectra",
        description="importance of correlated variable groups, globally and per prediction",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gv = subs.add_parser("group-vars", help="group columns by pairwise correlation")
    gv.add_argument("--data", required=True)
    gv.add_argument("--target", default=None)
    gv.add_argument("--cutoff", type=float, required=True)
    gv.add_argument("--method", choices=CORRELATION_METHODS, default="spearman")
    gv.set_defaults(func=_cmd_group_vars)

    gi = subs.add_parser("global-importance", help="block-permutation group importance")
    _add_model_data_flags(gi, target_required=True)
    _add_grouping_flags(gi)
    gi.add_argument("--B", type=int, default=1, help="permutation repetitions")
    gi.add_argument("--N", type=int, default=None, help="row subsample size")
    gi.add_argument("--seed", type=int, default=0)
    gi.add_argument("--loss", choices=LOSS_KINDS, default="rmse")
    gi.add_argument("--format", choices=("tsv", "json"), default="tsv")
    gi.add_argument("--out", default=None)
    gi.set_defaults(func=_cmd_global_importance)

    pa = subs.add_parser("predict-aspects", help="aspect contributions to one prediction")
    _add_model_data_flags(pa, target_required=False)
    obs = pa.add_mutually_exclusive_group(required=True)
    obs.add_argument("--row", type=int, default=None, help="0-based row to explain")
    obs.add_argument("--obs", default=None, help="CSV file with the observation to explain")
    _add_grouping_flags(pa)
    pa.add_argument("--N", type=int, default=2000, help="sampled rows in the design")
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--limit", type=int, default=None, help="max aspects with nonzero contribution")
    pa.add_argument("--format", choices=("tsv", "json"), default="tsv")
    pa.add_argument("--out", default=None)
    pa.set_defaults(func=_cmd_predict_aspects)

    tp = subs.add_parser("triplot", help="leaf, node and tree importances as one JSON document")
    tp.add_argument("--mode", choices=("global", "local"), required=True)
    _add_model_data_flags(tp, target_required=False)
    obs = tp.add_mutually_exclusive_group()
    obs.add_argument("--row", type=int, default=None)
    obs.add_argument("--obs", default=None)
    tp.add_argument("--B", type=int, default=1)
    tp.add_argument("--N", type=int, default=None)
    tp.add_argument("--seed", type=int, default=0)
    tp.add_argument("--loss", choices=LOSS_KINDS, default="rmse")
    tp.add_argument("--limit", type=int, default=None)
    tp.add_argument("--cor-method", choices=CORRELATION_METHODS, default="spearman")
    tp.add_argument("--linkage", choices=VALID_LINKAGES, default="complete")
    tp.add_argument("--out", default=None)
    tp.set_defaults(func=_cmd_triplot)

    rd = subs.add_parser("render", help="render a result JSON document to SVG")
    rd.add_argument("--in", dest="infile", required=True)
    rd.add_argument("--out", required=True)
    rd.set_defaults(func=_cmd_render)

    return parser


def cli_main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        return args.func(args)
    except (AspectraError, OSError, json.JSONDecodeError, UnicodeDecodeError) as e:
        # an unreadable, malformed or non-UTF-8 input file is a computation error too
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        # the backstop for a request too large for this machine, such as
        # --N or --B near 1e9: numpy names the allocation it could not make
        print(f"error: out of memory: {str(e) or 'an allocation failed'}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
