"""Deterministic SVG rendering of triplots and aspect bar charts.

Pure functions of the result: fixed float formatting, no timestamps, so
identical inputs give byte-identical documents. Structural elements carry
stable class names (bar, node-label, junction, trajectory, zero-line) that
tests and downstream tooling can count.
"""

from __future__ import annotations

import numpy as np

from .aspects import AspectExplanation
from .triplot import TriplotResult


_WIDTH = 1200
_HEIGHT = 500
_MARGIN = 42
_FONT_SIZE = 11
_PANEL_GAP = 10
_BAR_COLOR = "#4477aa"
_STROKE_COLOR = "#333333"


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _svg_open() -> list:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]


def _escape(s: str) -> str:
    """XML-escape text content as xml.sax.saxutils.escape does, `&` first.

    Kept local because importing xml.sax.saxutils loads urllib and its
    http, ssl and email dependencies.
    """
    return s.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _text(x, y, s, cls, anchor="start", dy=0.0):
    return (
        f'<text class="{cls}" x="{_fmt(x)}" y="{_fmt(y + dy)}" text-anchor="{anchor}" '
        f'font-family="monospace" font-size="{_FONT_SIZE}">{_escape(s)}</text>'
    )


def _value_scale(values, lo_px, hi_px):
    """Map values to pixels with zero always inside the range."""
    vmin = min(0.0, float(np.min(values))) if len(values) else 0.0
    vmax = max(0.0, float(np.max(values))) if len(values) else 1.0
    if vmax == vmin:
        vmax = vmin + 1.0
    span = vmax - vmin

    def to_px(v):
        return lo_px + (v - vmin) / span * (hi_px - lo_px)

    return to_px


def render_triplot(result: TriplotResult) -> str:
    """Three aligned panels: leaf bars, group-importance trajectories, dendrogram."""
    p = result.p
    tree = result.tree
    out = _svg_open()
    out.append(_text(_MARGIN, _MARGIN - 18, f"{result.mode} importance triplot", "title"))

    panel_w = (_WIDTH - 2 * _MARGIN - 2 * _PANEL_GAP) / 3.0
    top = _MARGIN + 14
    bottom = _HEIGHT - _MARGIN - 18
    leaf_order = tree.leaf_order()
    row_h = (bottom - top) / p
    row_y = {}
    for pos, leaf in enumerate(leaf_order):
        row_y[leaf] = top + (pos + 0.5) * row_h

    x_left = _MARGIN
    x_mid = x_left + panel_w + _PANEL_GAP
    x_right = x_mid + panel_w + _PANEL_GAP

    # left panel: one diverging bar per variable
    out.append(_text(x_left, top - 4, "variable importance", "panel-title"))
    name_w = min(140.0, panel_w * 0.4)
    bar_lo = x_left + name_w
    bar_hi = x_left + panel_w
    to_px = _value_scale(result.leaf_importance, bar_lo, bar_hi)
    zero_x = to_px(0.0)
    out.append(
        f'<line class="zero-line" x1="{_fmt(zero_x)}" y1="{_fmt(top)}" '
        f'x2="{_fmt(zero_x)}" y2="{_fmt(bottom)}" stroke="{_STROKE_COLOR}" '
        f'stroke-dasharray="3,3" stroke-width="1"/>'
    )
    bar_h = max(4.0, row_h * 0.55)
    for j in range(p):
        y = row_y[j]
        v = float(result.leaf_importance[j])
        x_v = to_px(v)
        x0, x1 = min(zero_x, x_v), max(zero_x, x_v)
        out.append(
            f'<rect class="bar" x="{_fmt(x0)}" y="{_fmt(y - bar_h / 2)}" '
            f'width="{_fmt(x1 - x0)}" height="{_fmt(bar_h)}" fill="{_BAR_COLOR}"/>'
        )
        out.append(_text(x_left, y, result.leaf_names[j][:18], "row-label", dy=3.0))
        out.append(_text(x1 + 3, y, f"{v:.3f}", "bar-label", dy=3.0))

    # middle panel: stepped trajectory per variable, labels at merge nodes
    out.append(_text(x_mid, top - 4, "group importance across merges", "panel-title"))
    steps = max(p - 1, 1)
    step_x = [x_mid + 8 + t / steps * (panel_w - 30) for t in range(p)]
    y_cur = {j: row_y[j] for j in range(p)}
    points = {j: [(step_x[0], row_y[j])] for j in range(p)}
    for t, merge in enumerate(tree.merges):
        y_new = float(np.mean([row_y[i] for i in merge.members]))
        x_t = step_x[t + 1]
        for j in range(p):
            points[j].append((x_t, y_cur[j]))
            if j in merge.members:
                points[j].append((x_t, y_new))
                y_cur[j] = y_new
        out.append(_text(x_t + 2, y_new - 4,
                         f"{float(result.node_importance[t]):.3f}", "node-label"))
    for j in range(p):
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points[j])
        out.append(
            f'<polyline class="trajectory" points="{pts}" fill="none" '
            f'stroke="{_BAR_COLOR}" stroke-width="1.5"/>'
        )

    # right panel: dendrogram, axis shown as correlation = 1 - height
    out.append(_text(x_right, top - 4, "correlation structure", "panel-title"))
    h_max = max(1.0, float(np.max(tree.heights)) if len(tree.merges) else 1.0)

    def hx(h):
        return x_right + h / h_max * (panel_w - 40)

    cluster_y = {i: row_y[i] for i in range(p)}
    cluster_h = {i: 0.0 for i in range(p)}
    for t, merge in enumerate(tree.merges):
        a, b = merge.left, merge.right
        ya, yb = cluster_y[a], cluster_y[b]
        xa, xb = hx(cluster_h[a]), hx(cluster_h[b])
        xm = hx(merge.height)
        out.append(
            f'<path class="junction" d="M {_fmt(xa)} {_fmt(ya)} L {_fmt(xm)} {_fmt(ya)} '
            f'L {_fmt(xm)} {_fmt(yb)} L {_fmt(xb)} {_fmt(yb)}" fill="none" '
            f'stroke="{_STROKE_COLOR}" stroke-width="1"/>'
        )
        node_id = p + t
        cluster_y[node_id] = 0.5 * (ya + yb)
        cluster_h[node_id] = merge.height
    axis_y = bottom + 12
    out.append(
        f'<line class="axis" x1="{_fmt(hx(0.0))}" y1="{_fmt(axis_y)}" '
        f'x2="{_fmt(hx(h_max))}" y2="{_fmt(axis_y)}" stroke="{_STROKE_COLOR}" stroke-width="1"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        h = frac * h_max
        out.append(_text(hx(h), axis_y + _FONT_SIZE,
                         f"{1.0 - h:.2f}", "axis-label", anchor="middle"))
    out.append(_text(x_right + panel_w - 40, axis_y + 2 * _FONT_SIZE + 2,
                     "correlation", "axis-title", anchor="end"))

    if result.mode == "global":
        out.append(_text(
            _MARGIN, _HEIGHT - _MARGIN + 26,
            f"full model loss {result.full_model_loss:.3f}  "
            f"baseline loss {result.baseline_loss:.3f}",
            "footer",
        ))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_aspects(expl: AspectExplanation) -> str:
    """Diverging bar chart of aspect contributions, largest magnitude on top."""
    rows = expl.aspects
    out = _svg_open()
    title = f"aspect contributions (N={expl.N}, seed={expl.seed}"
    if expl.lam is not None:
        title += f", lambda={expl.lam:.6g}"
    title += ")"
    out.append(_text(_MARGIN, _MARGIN - 18, title, "title"))

    top = _MARGIN + 10
    bottom = _HEIGHT - _MARGIN
    n_rows = max(len(rows), 1)
    row_h = (bottom - top) / n_rows
    name_w = 180.0
    bar_lo = _MARGIN + name_w
    bar_hi = _WIDTH - _MARGIN - 70
    contribs = np.array([r.contribution for r in rows]) if rows else np.zeros(1)
    to_px = _value_scale(contribs, bar_lo, bar_hi)
    zero_x = to_px(0.0)
    out.append(
        f'<line class="zero-line" x1="{_fmt(zero_x)}" y1="{_fmt(top)}" '
        f'x2="{_fmt(zero_x)}" y2="{_fmt(bottom)}" stroke="{_STROKE_COLOR}" stroke-width="1"/>'
    )
    bar_h = max(4.0, row_h * 0.6)
    for i, row in enumerate(rows):
        y = top + (i + 0.5) * row_h
        x_v = to_px(row.contribution)
        x0, x1 = min(zero_x, x_v), max(zero_x, x_v)
        out.append(
            f'<rect class="bar" x="{_fmt(x0)}" y="{_fmt(y - bar_h / 2)}" '
            f'width="{_fmt(x1 - x0)}" height="{_fmt(bar_h)}" fill="{_BAR_COLOR}"/>'
        )
        label = row.name[:24]
        if len(row.members) > 1:
            label += f" (|r|>={row.min_abs_cor:.2f})"
        out.append(_text(_MARGIN, y, label, "row-label", dy=3.0))
        out.append(_text(max(x1, zero_x) + 4, y, f"{row.contribution:.3f}", "bar-label", dy=3.0))
    out.append("</svg>")
    return "\n".join(out) + "\n"
