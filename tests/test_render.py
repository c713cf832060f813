import re
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest

from aspectra import (
    AspectPartition,
    NumericTable,
    PermutationConfig,
    TriplotConfig,
    fit_linear,
    model_triplot,
    predict_aspects,
    predict_triplot,
    render_aspects,
    render_triplot,
)
from aspectra.errors import AspectraError
from aspectra.models import LinearModel
from aspectra.render import RenderSpec, _escape

from conftest import make_six_variable


def count_class(svg: str, cls: str) -> int:
    return svg.count(f'class="{cls}"')


@pytest.fixture(scope="module")
def global_result():
    table, y = make_six_variable()
    model = fit_linear(table, y)
    perm = PermutationConfig(loss="rmse", B=2, seed=0)
    return model_triplot(model, table, y, TriplotConfig(mode="global", permutation=perm))


@pytest.fixture(scope="module")
def local_result():
    table, y = make_six_variable()
    model = fit_linear(table, y)
    return predict_triplot(model, table, table.row(0),
                           TriplotConfig(mode="local", N=500, seed=0))


def test_triplot_svg_is_well_formed_xml(global_result):
    svg = render_triplot(global_result)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


@pytest.mark.parametrize("which", ["global", "local"])
def test_triplot_structure_counts(which, global_result, local_result):
    result = global_result if which == "global" else local_result
    svg = render_triplot(result)
    p = result.p
    assert count_class(svg, "bar") == p
    assert count_class(svg, "node-label") == p - 1
    assert count_class(svg, "junction") == p - 1
    assert count_class(svg, "trajectory") == p
    assert count_class(svg, "zero-line") == 1


def test_triplot_global_footer_has_losses(global_result):
    svg = render_triplot(global_result)
    assert "full model loss" in svg and "baseline loss" in svg


def test_triplot_local_has_no_loss_footer(local_result):
    svg = render_triplot(local_result)
    assert "full model loss" not in svg


def test_triplot_deterministic(global_result):
    assert render_triplot(global_result) == render_triplot(global_result)


def test_triplot_axis_in_correlation_units(global_result):
    svg = render_triplot(global_result)
    # axis end labels: correlation 1.00 at height 0 down to 1 - h_max
    assert ">1.00<" in svg
    assert "correlation" in svg


def test_triplot_custom_dimensions(global_result):
    svg = render_triplot(global_result, RenderSpec(width=640, height=320))
    assert 'width="640"' in svg and 'height="320"' in svg
    ET.fromstring(svg)


def test_renderspec_validation():
    with pytest.raises(AspectraError):
        RenderSpec(width=0)


def test_aspects_svg_structure():
    rng = np.random.default_rng(0)
    t = NumericTable(tuple("abcd"), rng.uniform(0, 1, (300, 4)))
    model = LinearModel(0.0, [3.0, -2.0, 1.0, 0.5])
    expl = predict_aspects(model, t, t.row(0), AspectPartition.singletons(t.column_names),
                           N=1000, seed=1)
    svg = render_aspects(expl)
    ET.fromstring(svg)
    assert count_class(svg, "bar") == 4
    assert count_class(svg, "zero-line") == 1
    # rows render in stored order: largest magnitude first
    labels = re.findall(r'class="row-label"[^>]*>([^<]+)</text>', svg)
    assert labels[0] == expl.aspects[0].name


def test_aspects_limit_caps_visible_bars():
    rng = np.random.default_rng(1)
    t = NumericTable(tuple(f"v{i}" for i in range(9)), rng.uniform(0, 1, (400, 9)))
    model = LinearModel(0.0, [5, 4, 3, 2, 1, 0.5, 0.2, 0.1, 0.05])
    expl = predict_aspects(model, t, t.row(2), AspectPartition.singletons(t.column_names),
                           N=5000, seed=2, limit=4)
    svg = render_aspects(expl)
    widths = [float(w) for w in re.findall(r'class="bar"[^>]*width="([0-9.]+)"', svg)]
    assert len(widths) == 9
    assert sum(1 for w in widths if w > 0.0) <= 4


def test_aspects_pair_annotation():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(300)
    t = NumericTable(("a", "b"), np.column_stack([a, a + 0.01 * rng.standard_normal(300)]))
    model = LinearModel(0.0, [1.0, 1.0])
    expl = predict_aspects(model, t, t.row(0), 0.9, N=800, seed=0)
    svg = render_aspects(expl)
    assert "|r|&gt;=" in svg  # xml-escaped in the document


def test_aspects_lambda_in_title():
    rng = np.random.default_rng(3)
    t = NumericTable(tuple("abc"), rng.uniform(0, 1, (200, 3)))
    model = LinearModel(0.0, [1.0, 2.0, 3.0])
    part = AspectPartition.singletons(t.column_names)
    with_limit = render_aspects(predict_aspects(model, t, t.row(0), part, N=500, seed=0, limit=1))
    without = render_aspects(predict_aspects(model, t, t.row(0), part, N=500, seed=0))
    assert "lambda=" in with_limit
    assert "lambda=" not in without


@pytest.mark.parametrize("name", [
    "plain", "a&b", "x<y>z", "&lt;", "&amp;&", "<<&>>", "'quoted'", '"double"', "a&\"b'<c>",
])
def test_escape_equals_saxutils(name):
    assert _escape(name) == escape(name)
