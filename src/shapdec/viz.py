"""Deterministic SVG figures, drawn from plain arrays: decomposition force
plots and line charts.

No timestamps, no randomness, no external fonts: identical arrays give
byte-identical documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RenderError

POSITIVE_COLOR = "#d1394f"  # red family
NEGATIVE_COLOR = "#2d6fc4"  # blue family

_PALETTE = ["#2d6fc4", "#d1394f", "#2e9e57", "#8c56b8", "#c87f1e", "#4d4d4d"]
_DASHES = ["none", "6,3", "2,2", "8,3,2,3", "4,4", "1,3"]
_FORCE_WIDTH, _FORCE_HEIGHT = 760, 190
_CHART_WIDTH, _CHART_HEIGHT = 700, 420
_BAND_COLOR = "#9ab8dd"


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(round(t, 10) + 0.0)
        t += step
    return ticks


def _line(x1, y1, x2, y2, stroke="#777") -> str:
    return (
        f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
        f'stroke="{stroke}" stroke-width="1"/>'
    )


def _escape(text: str) -> str:
    """``text`` as XML character data. Unlike ``html.escape`` it loads no
    module: importing ``html`` costs the CLI's start about 0.5 MB."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _text(x, y, body, anchor="middle", fill="#444", size=10) -> str:
    """A sans-serif label, its body XML-escaped; ``anchor=None`` leaves
    SVG's default (start)."""
    anchor_attr = "" if anchor is None else f' text-anchor="{anchor}"'
    return (
        f'<text x="{x:.1f}" y="{y:.1f}" font-family="sans-serif" '
        f'font-size="{size}"{anchor_attr} fill="{fill}">{_escape(body)}</text>'
    )


def _hatch_defs() -> str:
    return (
        '<defs><pattern id="hatchpos" width="5" height="5" '
        'patternTransform="rotate(45)" patternUnits="userSpaceOnUse">'
        f'<rect width="5" height="5" fill="{POSITIVE_COLOR}" fill-opacity="0.35"/>'
        f'<line x1="0" y1="0" x2="0" y2="5" stroke="{POSITIVE_COLOR}" stroke-width="2"/>'
        "</pattern>"
        '<pattern id="hatchneg" width="5" height="5" '
        'patternTransform="rotate(45)" patternUnits="userSpaceOnUse">'
        f'<rect width="5" height="5" fill="{NEGATIVE_COLOR}" fill-opacity="0.35"/>'
        f'<line x1="0" y1="0" x2="0" y2="5" stroke="{NEGATIVE_COLOR}" stroke-width="2"/>'
        "</pattern></defs>"
    )


def render_force_plot(base, names, shown, phi_int, phi_dep, secondary_axis=None) -> str:
    """Horizontal force plot of one explained row. Feature j, labelled
    ``names[j] = shown[j]``, is a solid segment for its interventional part
    ``phi_int[j]`` and a hatched one for its dependent part ``phi_dep[j]``;
    the arrow tip lands at base + sum(phi).

    ``secondary_axis`` optionally maps the value scale to a second tick
    row, e.g. log odds to probability: (label, transform, inverse).
    """
    if len(names) == 0:
        raise RenderError("force plot needs at least one feature")
    shown, phi_int, phi_dep = (np.asarray(v, dtype=float) for v in (shown, phi_int, phi_dep))
    if not (shown.shape == phi_int.shape == phi_dep.shape == (len(names),)):
        raise RenderError("force plot needs one value, phi_int and phi_dep per name")
    if not np.all(np.isfinite(np.r_[base, shown, phi_int, phi_dep])):
        raise RenderError("force plot contains non-finite values")
    phi = phi_int + phi_dep
    tip = base + sum(phi.tolist())

    # positive features push right from the base, largest first; negatives
    # then pull back
    order = sorted(range(len(names)), key=lambda j: (phi[j] < 0, -abs(phi[j])))
    segments = []  # (feature, part_value, hatched, start, end)
    pos = base
    for j in order:
        for part, hatched in ((phi_int[j], False), (phi_dep[j], True)):
            if part == 0.0:
                continue
            segments.append((j, part, hatched, pos, pos + part))
            pos += part
    if segments and abs(pos - tip) > 1e-9 * max(1.0, abs(tip)):
        raise RenderError("segment chain does not close at the tip")

    ends = [base, tip] + [v for s in segments for v in s[3:]]
    lo, hi = min(ends), max(ends)
    pad = 0.08 * (hi - lo if hi > lo else 1.0)
    lo, hi = lo - pad, hi + pad
    left, right = 40.0, _FORCE_WIDTH - 40.0

    def sx(v: float) -> float:
        return left + (v - lo) / (hi - lo) * (right - left)

    bar_y, bar_h = 78.0, 30.0
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_FORCE_WIDTH}" '
        f'height="{_FORCE_HEIGHT}" viewBox="0 0 {_FORCE_WIDTH} {_FORCE_HEIGHT}">',
        _hatch_defs(),
        f'<rect width="{_FORCE_WIDTH}" height="{_FORCE_HEIGHT}" fill="white"/>',
    ]

    # value axis
    axis_y = bar_y + bar_h + 22
    out.append(_line(left, axis_y, right, axis_y))
    for t in _nice_ticks(lo, hi):
        x = sx(t)
        out.append(_line(x, axis_y, x, axis_y + 4))
        out.append(_text(x, axis_y + 16, _fmt(t)))

    if secondary_axis is not None:
        label, transform, inverse = secondary_axis
        top_y = bar_y - 18
        out.append(_line(left, top_y, right, top_y))
        for p in _nice_ticks(transform(lo), transform(hi), target=5):
            v = inverse(p)
            if not lo <= v <= hi:
                continue
            x = sx(v)
            out.append(_line(x, top_y - 4, x, top_y))
            out.append(_text(x, top_y - 7, _fmt(p)))
        out.append(_text(left, top_y - 20, label, anchor=None))

    for _, part, hatched, start, end in segments:
        x0, x1 = sorted((sx(start), sx(end)))
        positive = part >= 0
        if hatched:
            fill = 'url(#hatchpos)' if positive else 'url(#hatchneg)'
        else:
            fill = POSITIVE_COLOR if positive else NEGATIVE_COLOR
        out.append(
            f'<rect x="{x0:.2f}" y="{bar_y:.1f}" width="{max(x1 - x0, 0.5):.2f}" '
            f'height="{bar_h:.1f}" fill="{fill}" stroke="white" stroke-width="0.6"/>'
        )
    # one label per drawn feature, under the middle of its segments
    for k, j in enumerate(dict.fromkeys(s[0] for s in segments)):
        own = [s for s in segments if s[0] == j]
        mid = sx((min(s[3] for s in own) + max(s[4] for s in own)) / 2)
        y = bar_y + bar_h + 40 + 12 * (k % 2)
        out.append(_text(mid, y, f"{names[j]} = {shown[j]:g}", fill="#333"))

    # base marker and tip arrow
    bx = sx(base)
    out.append(
        f'<line x1="{bx:.2f}" y1="{bar_y - 12:.1f}" x2="{bx:.2f}" '
        f'y2="{bar_y + bar_h + 6:.1f}" stroke="#555" stroke-width="1" '
        'stroke-dasharray="3,2"/>'
    )
    out.append(
        f'<text x="{bx:.2f}" y="{bar_y - 16:.1f}" font-family="sans-serif" '
        f'font-size="10" text-anchor="middle" fill="#555">base {base:.3g}</text>'
    )
    tx = sx(tip)
    out.append(
        f'<path d="M {tx:.2f} {bar_y - 2:.1f} l -5 -8 l 10 0 z" fill="#111"/>'
    )
    out.append(
        f'<text x="{tx:.2f}" y="{bar_y - 14:.1f}" font-family="sans-serif" '
        f'font-size="10" text-anchor="middle" fill="#111">f(x) = {tip:.3g}</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class Series:
    label: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise RenderError("series x and y must be equal-length vectors")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise RenderError("series contains non-finite values")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def render_line_chart(
    series: list,
    x_label: str = "",
    y_label: str = "",
    overlays: list | None = None,
    band: tuple | None = None,
) -> str:
    """Line chart with legend; overlays render at reduced opacity and the
    optional ``band = (x, lower, upper)``, a mean +/- spread region, as a
    translucent polygon behind the mean lines."""
    if not series:
        raise RenderError("need at least one series")
    overlays = overlays or []
    all_series = list(series) + list(overlays)
    xs = np.concatenate([s.x for s in all_series])
    ys = np.concatenate([s.y for s in all_series])
    if band is not None:
        bx, lower, upper = (np.asarray(v, dtype=float) for v in band)
        ys = np.concatenate([ys, lower, upper])
    xlo, xhi = float(xs.min()), float(xs.max())
    ylo, yhi = float(ys.min()), float(ys.max())
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi = ylo + 1.0
    ypad = 0.06 * (yhi - ylo)
    ylo, yhi = ylo - ypad, yhi + ypad
    left, right, top, bottom = 62.0, _CHART_WIDTH - 18.0, 18.0, _CHART_HEIGHT - 46.0

    def sx(v):
        return left + (v - xlo) / (xhi - xlo) * (right - left)

    def sy(v):
        return bottom - (v - ylo) / (yhi - ylo) * (bottom - top)

    def points(px, py) -> str:
        return " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(px, py))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CHART_WIDTH}" height="{_CHART_HEIGHT}" '
        f'viewBox="0 0 {_CHART_WIDTH} {_CHART_HEIGHT}">',
        f'<rect width="{_CHART_WIDTH}" height="{_CHART_HEIGHT}" fill="white"/>',
    ]
    for t in _nice_ticks(ylo, yhi):
        y = sy(t)
        out.append(_line(left, y, right, y, stroke="#eee"))
        out.append(_text(left - 6, y + 3, _fmt(t), anchor="end"))
    for t in _nice_ticks(xlo, xhi):
        x = sx(t)
        out.append(_line(x, bottom, x, bottom + 4))
        out.append(_text(x, bottom + 16, _fmt(t)))
    out.append(_line(left, top, left, bottom))
    out.append(_line(left, bottom, right, bottom))
    if x_label:
        out.append(_text((left + right) / 2, _CHART_HEIGHT - 8, x_label, fill="#222", size=11))
    if y_label:
        out.append(
            f'<text x="14" y="{(top + bottom) / 2:.1f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle" fill="#222" '
            f'transform="rotate(-90 14 {(top + bottom) / 2:.1f})">{_escape(y_label)}</text>'
        )

    if band is not None:
        out.append(
            f'<polygon points="{points(bx, upper)} {points(bx[::-1], lower[::-1])}" '
            f'fill="{_BAND_COLOR}" fill-opacity="0.35" stroke="none"/>'
        )
    for k, s in enumerate(overlays):
        color = _PALETTE[k % len(_PALETTE)]
        out.append(
            f'<polyline points="{points(s.x, s.y)}" fill="none" stroke="{color}" '
            'stroke-width="1" stroke-opacity="0.3"/>'
        )
    for k, s in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        dash = _DASHES[k % len(_DASHES)]
        dash_attr = "" if dash == "none" else f' stroke-dasharray="{dash}"'
        out.append(
            f'<polyline points="{points(s.x, s.y)}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"{dash_attr}/>'
        )
        ly = top + 14 + 14 * k
        out.append(
            f'<line x1="{right - 150:.1f}" y1="{ly:.1f}" x2="{right - 120:.1f}" '
            f'y2="{ly:.1f}" stroke="{color}" stroke-width="1.8"{dash_attr}/>'
        )
        out.append(_text(right - 114, ly + 3, s.label, anchor=None, fill="#222"))
    out.append("</svg>")
    return "\n".join(out) + "\n"
