"""The package root's exports and the README's Python quick start."""

import copy
import functools
import json
import pickle
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aspectra
from aspectra import (AspectraError, AspectPartition, ConstantModel, Observation,
                      PermutationConfig, TriplotConfig, correlation_matrix, fit_knn, fit_linear,
                      group_importance, group_variables, model_triplot, predict_aspects,
                      predict_triplot)
from aspectra.global_importance import ImportanceContext
from aspectra.models import KnnModel, LinearModel

from conftest import CountingModel, make_six_variable, package_env, singletons

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = {
    "NumericTable", "Observation", "AspectPartition", "load_table",
    "fit_linear", "fit_knn", "ConstantModel", "SubprocessModel",
    "correlation_matrix", "group_variables", "group_importance",
    "PermutationConfig", "predict_aspects", "TriplotConfig", "model_triplot",
    "predict_triplot", "render_triplot", "render_aspects",
    "AspectraError", "SchemaMismatch", "SingularDesign", "SubprocessFailure",
}


def test_root_exports_exactly_the_public_names():
    assert sorted(aspectra.__all__) == sorted(PUBLIC)
    assert len(aspectra.__all__) == len(PUBLIC)
    for name in PUBLIC:
        assert getattr(aspectra, name).__module__.startswith("aspectra.")


def test_readme_lists_the_public_names():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Public API"):]
    section = section[:section.index("\n## ", 1)]
    assert set(re.findall(r"`(\w+)`", section)) >= PUBLIC


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    start = text.index("## Python quick start")
    block = re.search(r"```python\n(.*?)```", text[start:], re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "full_model_loss" in out and "contribution" in out


# scipy.stats took about 1.3 s of a 1.45 s import on a 2-core x86_64 machine,
# and xml.sax.saxutils pulled in urllib.request with http, ssl and email;
# every CLI run paid for both
SLOW_IMPORTS = ("scipy", "urllib", "http", "ssl", "email")
NEW_MODULES = """
import json, sys
before = set(sys.modules)
import aspectra, aspectra.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_loads_no_scipy_or_network_modules():
    # only modules the import itself adds count: a site .pth file may load
    # pathlib, and with it urllib.parse, before any user code runs
    done = subprocess.run([sys.executable, "-c", NEW_MODULES], capture_output=True,
                          text=True, env=package_env(), timeout=120, check=True)
    added = json.loads(done.stdout)
    assert "aspectra.cli" in added
    assert [m for m in added if m.split(".")[0] in SLOW_IMPORTS] == []


# ------------------------------------------------------ the argument contract

SIX_CSV = str(Path(__file__).resolve().parent / "corpus" / "six.csv")
ERRORS = {"AspectraError", "SchemaMismatch", "SingularDesign", "SubprocessFailure"}
# one value of each kind that an argument below refuses, unless its case says so
BAD = {"bool": True, "float": 2.5, "str": "2", "None": None,
       "numpy float": np.float64(2.5), "object": object()}
ONE_VALUE = {"bool", "float", "numpy float"}  # a scalar is a one-value vector
# one element of each kind that a list argument refuses, unless its case says so
BAD_ELEMENTS = {**BAD, "int": 5, "list": ["a"]}
# a partition's group that is no (name, members) pair
NOT_PAIRS = {"one": ("g",), "three": ("g", (0,), (1,)), "str": "g0", "dict": {"g": (0,)}}


@functools.cache
def _contract():
    """A call-counting model; each root callable's name with valid arguments
    and the bad kinds that an argument takes after all; the integer fields;
    and each callable with a list argument, its valid arguments, the path to
    an element (the list, and in a group its name, members or one member)
    and the element kinds it takes."""
    table, y = make_six_variable(n=60)
    model = CountingModel(LinearModel(0.0, [1.0] * 6))
    x_star, part = table.row(0), singletons(table.column_names)
    perm = PermutationConfig("rmse")
    local = TriplotConfig(mode="local", N=50)
    cases = [
        ("NumericTable", dict(column_names=table.column_names, values=table.values), {}),
        ("Observation", dict(values=x_star.values), {"values": ONE_VALUE}),
        ("AspectPartition", dict(groups=part.groups), {}),
        ("load_table", dict(path=SIX_CSV, target="y"), {"path": {"str"}, "target": {"None"}}),
        ("fit_linear", dict(table=table, y=y), {}),
        ("fit_knn", dict(table=table, y=y, k=3), {}),
        ("ConstantModel", dict(value=1.0), {"value": {"float", "numpy float"}}),
        ("SubprocessModel", dict(command=[sys.executable]), {}),
        ("correlation_matrix", dict(table=table, method="spearman"), {}),
        ("group_variables", dict(table=table, cutoff=0.5, method="spearman"), {}),
        ("group_importance", dict(model=model, table=table, y=y, groups=part, cfg=perm), {}),
        ("PermutationConfig", dict(loss="rmse", B=1, N=None, seed=0), {"N": {"None"}}),
        ("predict_aspects", dict(model=model, table=table, x_star=x_star, grouping=0.5, N=50,
                                 seed=0, limit=None, method="spearman"), {"limit": {"None"}}),
        ("TriplotConfig", dict(mode="global", cor_method="spearman", linkage="complete",
                               permutation=perm, N=None, seed=0, limit=None),
         {"N": {"None"}, "limit": {"None"}}),
        ("model_triplot", dict(model=model, table=table, y=y,
                               cfg=TriplotConfig(mode="global", permutation=perm)), {}),
        ("predict_triplot", dict(model=model, table=table, x_star=x_star, cfg=local), {}),
        ("render_triplot", dict(result=predict_triplot(ConstantModel(1.0), table, x_star, local)), {}),
        ("render_aspects", dict(expl=predict_aspects(ConstantModel(1.0), table, x_star, part, N=50)),
         {}),
    ]
    # two aspects, so that every N drawn flags both
    halves = aspectra.AspectPartition((("abc", (0, 1, 2)), ("def", (3, 4, 5))))
    explain = dict(model=ConstantModel(1.0), table=table, x_star=x_star, grouping=halves)
    # integer fields: (root callable, valid arguments, field, lowest, highest)
    integers = [
        ("PermutationConfig", dict(loss="rmse"), "B", 1, None),
        ("PermutationConfig", dict(loss="rmse"), "N", 1, None),
        ("PermutationConfig", dict(loss="rmse"), "seed", None, None),
        ("TriplotConfig", dict(mode="local", N=50), "N", 1, None),
        ("TriplotConfig", dict(mode="local", N=50), "seed", None, None),
        ("TriplotConfig", dict(mode="local", N=50), "limit", 0, None),
        ("fit_knn", dict(table=table, y=y), "k", 1, table.n),
        ("predict_aspects", dict(explain, N=50), "seed", None, None),
        ("predict_aspects", explain, "N", 20, 60),
    ]
    names = list(table.column_names)
    groups = dict(groups=[list(group) for group in part.groups])
    lists = [
        (aspectra.NumericTable, dict(column_names=names, values=table.values), ("column_names",),
         {"str"}),
        (ConstantModel, dict(value=1.0, column_names=names), ("column_names",), {"str"}),
        (LinearModel, dict(intercept=0.0, coefficients=[1.0] * 6, column_names=names),
         ("column_names",), {"str"}),
        (KnnModel, dict(k=3, train_values=table.values, train_targets=y, column_names=names),
         ("column_names",), {"str"}),
        (aspectra.SubprocessModel, dict(command=[sys.executable, "-c", "pass"]), ("command",),
         {"str"}),
        (aspectra.AspectPartition, groups, ("groups",), set()),
        (aspectra.AspectPartition, groups, ("groups", "name"), {"str"}),
        (aspectra.AspectPartition, groups, ("groups", "members"), {"list"}),
        (aspectra.AspectPartition, groups, ("groups", "members", "index"), {"int"}),
    ]
    return model, cases, integers, lists


@st.composite
def _integers(draw, low, high):
    """A numpy integer in [low, high] that its dtype holds, or, with no
    bounds (a seed), a Python int past int64 too."""
    if low is None and draw(st.booleans()):
        return draw(st.integers(2**63, 2**70) | st.integers(-2**70, -2**63 - 1))
    info = np.iinfo(draw(st.sampled_from([np.int8, np.int32, np.int64, np.uint8, np.uint64])))
    lo = info.min if low is None else max(low, info.min)
    hi = info.max if high is None else min(high, info.max)
    return info.dtype.type(draw(st.integers(lo, hi)))


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_every_root_callable_refuses_each_bad_kind_before_any_model_call(data):
    model, cases, integers, lists = _contract()
    assert {name for name, _, _ in cases} == set(aspectra.__all__) - ERRORS
    name, kwargs, takes = data.draw(st.sampled_from(cases))
    arg = data.draw(st.sampled_from(sorted(kwargs)))
    kind = data.draw(st.sampled_from(sorted(set(BAD) - takes.get(arg, set()))))
    with pytest.raises(AspectraError):
        getattr(aspectra, name)(**{**kwargs, arg: BAD[kind]})
    assert model.calls == 0
    # an integer field stores a numpy integer as an int; a seed past int64
    # stays valid, and its stream folds it mod 2**64
    name, kwargs, field, low, high = data.draw(st.sampled_from(integers))
    value = data.draw(_integers(low, high))
    stored = getattr(getattr(aspectra, name)(**{**kwargs, field: value}), field)
    assert type(stored) is int and stored == value
    # one element of a list argument of a kind it refuses; no child starts
    build, kwargs, path, takes = data.draw(st.sampled_from(lists))
    values = [list(v) if isinstance(v, list) else v for v in kwargs[path[0]]]
    i = data.draw(st.integers(0, len(values) - 1))
    kinds = {**BAD_ELEMENTS, **NOT_PAIRS} if path == ("groups",) else BAD_ELEMENTS
    bad = kinds[data.draw(st.sampled_from(sorted(set(kinds) - takes)))]
    if len(path) == 1:
        values[i] = bad
    elif path[1] == "name":
        values[i][0] = bad
    else:
        values[i][1] = bad if path[2:] == () else (bad,)
    with mock.patch("subprocess.Popen", side_effect=AssertionError("a child started")):
        with pytest.raises(AspectraError):
            build(**{**kwargs, path[0]: values})
    assert model.calls == 0


# member sets that once scored column 1 ((1.7,), (True,), ("1",)) or raised
# a bare TypeError ((None,), 5) or ValueError ("ab"), and sets whose kind or
# index is bad otherwise
BAD_MEMBER_SETS = [(1.7,), (True,), ("1",), (None,), 5, "ab", {1}, np.array([1]), (0, 6),
                   (-1,), (0, 2**70)]


@pytest.mark.parametrize("bad", BAD_MEMBER_SETS, ids=repr)
def test_importance_context_refuses_a_bad_member_set_before_any_model_call(bad):
    table, y = make_six_variable(n=60)
    model = CountingModel(LinearModel(0.0, [1.0] * 6))
    ctx = ImportanceContext(model, table, y, PermutationConfig("rmse"))
    for member_sets in ([bad], [(0,), bad], (bad, (2, 3))):
        with pytest.raises(AspectraError):
            ctx.mean_permuted_losses(member_sets)
    with pytest.raises(AspectraError):
        ctx.mean_permuted_loss(bad)
    assert model.calls == 0


def test_importance_context_checks_its_arguments_and_takes_numpy_integers():
    table, y = make_six_variable(n=60)
    model = CountingModel(LinearModel(0.0, [1.0] * 6))
    cfg = PermutationConfig("rmse")
    for args in ((model, "table", y, cfg), (model, table, y, None), (model, table, y, "rmse")):
        with pytest.raises(AspectraError):
            ImportanceContext(*args)
    ctx = ImportanceContext(model, table, y, cfg)
    for member_sets in (5, "ab", iter([(1,)])):  # not a list or tuple of member sets
        with pytest.raises(AspectraError, match="member sets must be"):
            ctx.mean_permuted_losses(member_sets)
    assert model.calls == 0
    numpy_ints = ctx.mean_permuted_losses([(np.int64(1),), [np.uint8(2), 1]])
    assert numpy_ints == ctx.mean_permuted_losses([(1,), range(1, 3)])


def test_every_public_value_type_survives_a_pickle_round_trip():
    # a table once raised "NumericTable is immutable" when unpickled or
    # deep-copied, so it could not reach a worker process
    table, y = make_six_variable(n=60)
    correlation_matrix(table)  # a filled memo is not carried
    local = TriplotConfig(mode="local", N=100, seed=1)
    glob = TriplotConfig(mode="global", permutation=PermutationConfig("rmse", B=2, seed=1))
    model = fit_linear(table, y)
    results = [predict_aspects(model, table, table.row(0), 0.5, N=100),
               group_importance(model, table, y, group_variables(table, 0.5),
                                PermutationConfig("rmse", B=2, seed=1)),
               predict_triplot(model, table, table.row(0), local),
               model_triplot(model, table, y, glob)]
    for move in (lambda value: pickle.loads(pickle.dumps(value)), copy.deepcopy, copy.copy):
        back = move(table)
        assert back == table and back._memo == {} and not back.values.flags.writeable
        obs = move(table.row(3))
        assert isinstance(obs, Observation) and obs.values.tolist() == table.values[3].tolist()
        for value in (group_variables(table, 0.5), AspectPartition((("all", range(6)),)),
                      results[-1].tree, local, glob):
            assert move(value) == value
        for m in (model, fit_knn(table, y, 3), ConstantModel(2.0)):
            assert np.array_equal(move(m).predict(table), m.predict(table))
        for result in results:
            assert move(result).to_json() == result.to_json()
