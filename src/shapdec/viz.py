"""Deterministic SVG figures: decomposition force plots and line charts.

No timestamps, no randomness, no external fonts: identical specs give
byte-identical documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class ForceFeature:
    name: str
    shown_value: float
    phi_int: float
    phi_dep: float

    @property
    def phi(self) -> float:
        return self.phi_int + self.phi_dep


@dataclass(frozen=True)
class ForcePlotSpec:
    """Layout input for a decomposition force plot.

    ``secondary_axis`` optionally maps the value scale to a second tick
    row, e.g. log odds to probability: (label, transform, inverse).
    """

    base: float
    features: tuple
    secondary_axis: tuple | None = None

    def __post_init__(self):
        feats = tuple(self.features)
        if not feats:
            raise RenderError("force plot needs at least one feature")
        vals = [self.base] + [f.phi_int for f in feats] + [f.phi_dep for f in feats]
        vals += [f.shown_value for f in feats]
        if not np.all(np.isfinite(vals)):
            raise RenderError("force plot spec contains non-finite values")
        object.__setattr__(self, "features", feats)


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


def render_force_plot(spec: ForcePlotSpec) -> str:
    """Horizontal force plot: solid segments are interventional parts,
    hatched segments dependent parts; the arrow tip lands at
    base + sum(phi)."""
    feats = spec.features
    tip = spec.base + sum(f.phi for f in feats)
    positives = sorted((f for f in feats if f.phi >= 0), key=lambda f: -abs(f.phi))
    negatives = sorted((f for f in feats if f.phi < 0), key=lambda f: -abs(f.phi))

    # positive features push right from the base, negatives then pull back
    segments = []  # (feature, part_value, hatched, start, end)
    pos = spec.base
    for f in positives + negatives:
        for part, hatched in ((f.phi_int, False), (f.phi_dep, True)):
            if part == 0.0:
                continue
            segments.append((f, part, hatched, pos, pos + part))
            pos += part
    if segments and abs(pos - tip) > 1e-9 * max(1.0, abs(tip)):
        raise RenderError("segment chain does not close at the tip")

    lo = min([spec.base, tip] + [min(s[3], s[4]) for s in segments] or [spec.base])
    hi = max([spec.base, tip] + [max(s[3], s[4]) for s in segments] or [spec.base])
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
    out.append(
        f'<line x1="{left:.1f}" y1="{axis_y:.1f}" x2="{right:.1f}" y2="{axis_y:.1f}" '
        'stroke="#777" stroke-width="1"/>'
    )
    for t in _nice_ticks(lo, hi):
        x = sx(t)
        out.append(
            f'<line x1="{x:.1f}" y1="{axis_y:.1f}" x2="{x:.1f}" y2="{axis_y + 4:.1f}" '
            'stroke="#777" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.1f}" y="{axis_y + 16:.1f}" font-family="sans-serif" '
            f'font-size="10" text-anchor="middle" fill="#444">{_fmt(t)}</text>'
        )

    if spec.secondary_axis is not None:
        label, transform, inverse = spec.secondary_axis
        top_y = bar_y - 18
        out.append(
            f'<line x1="{left:.1f}" y1="{top_y:.1f}" x2="{right:.1f}" y2="{top_y:.1f}" '
            'stroke="#777" stroke-width="1"/>'
        )
        for p in _nice_ticks(transform(lo), transform(hi), target=5):
            v = inverse(p)
            if not lo <= v <= hi:
                continue
            x = sx(v)
            out.append(
                f'<line x1="{x:.1f}" y1="{top_y - 4:.1f}" x2="{x:.1f}" y2="{top_y:.1f}" '
                'stroke="#777" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{x:.1f}" y="{top_y - 7:.1f}" font-family="sans-serif" '
                f'font-size="10" text-anchor="middle" fill="#444">{_fmt(p)}</text>'
            )
        out.append(
            f'<text x="{left:.1f}" y="{top_y - 20:.1f}" font-family="sans-serif" '
            f'font-size="10" fill="#444">{label}</text>'
        )

    label_rows = []
    for f, part, hatched, start, end in segments:
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
    seen = set()
    for f, *_ in segments:
        if f.name in seen:
            continue
        seen.add(f.name)
        mid = sx(
            (min(s[3] for s in segments if s[0] is f)
             + max(s[4] for s in segments if s[0] is f)) / 2
        )
        label_rows.append((mid, f))
    for k, (mid, f) in enumerate(label_rows):
        y = bar_y + bar_h + 40 + 12 * (k % 2)
        out.append(
            f'<text x="{mid:.1f}" y="{y:.1f}" font-family="sans-serif" font-size="10" '
            f'text-anchor="middle" fill="#333">{f.name} = {f.shown_value:g}</text>'
        )

    # base marker and tip arrow
    bx = sx(spec.base)
    out.append(
        f'<line x1="{bx:.2f}" y1="{bar_y - 12:.1f}" x2="{bx:.2f}" '
        f'y2="{bar_y + bar_h + 6:.1f}" stroke="#555" stroke-width="1" '
        'stroke-dasharray="3,2"/>'
    )
    out.append(
        f'<text x="{bx:.2f}" y="{bar_y - 16:.1f}" font-family="sans-serif" '
        f'font-size="10" text-anchor="middle" fill="#555">base {spec.base:.3g}</text>'
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


def force_plot(base, names, shown, phi_int, phi_dep, secondary_axis=None) -> str:
    """The force plot of one explained row: feature j is labelled
    ``names[j] = shown[j]`` and split into ``phi_int[j]`` and ``phi_dep[j]``."""
    features = tuple(map(ForceFeature, names, shown, phi_int, phi_dep))
    return render_force_plot(ForcePlotSpec(base, features, secondary_axis))


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


@dataclass(frozen=True)
class Band:
    """Shaded mean +/- spread region drawn behind its series."""

    x: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def render_line_chart(
    series: list,
    x_label: str = "",
    y_label: str = "",
    overlays: list | None = None,
    band: Band | None = None,
) -> str:
    """Line chart with legend; overlays render at reduced opacity and the
    optional band as a translucent polygon behind the mean lines."""
    if not series:
        raise RenderError("need at least one series")
    overlays = overlays or []
    all_series = list(series) + list(overlays)
    xs = np.concatenate([s.x for s in all_series])
    ys = np.concatenate([s.y for s in all_series])
    if band is not None:
        ys = np.concatenate([ys, np.asarray(band.lower), np.asarray(band.upper)])
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

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CHART_WIDTH}" height="{_CHART_HEIGHT}" '
        f'viewBox="0 0 {_CHART_WIDTH} {_CHART_HEIGHT}">',
        f'<rect width="{_CHART_WIDTH}" height="{_CHART_HEIGHT}" fill="white"/>',
    ]
    for t in _nice_ticks(ylo, yhi):
        y = sy(t)
        out.append(
            f'<line x1="{left:.1f}" y1="{y:.1f}" x2="{right:.1f}" y2="{y:.1f}" '
            'stroke="#eee" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{left - 6:.1f}" y="{y + 3:.1f}" font-family="sans-serif" '
            f'font-size="10" text-anchor="end" fill="#444">{_fmt(t)}</text>'
        )
    for t in _nice_ticks(xlo, xhi):
        x = sx(t)
        out.append(
            f'<line x1="{x:.1f}" y1="{bottom:.1f}" x2="{x:.1f}" y2="{bottom + 4:.1f}" '
            'stroke="#777" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.1f}" y="{bottom + 16:.1f}" font-family="sans-serif" '
            f'font-size="10" text-anchor="middle" fill="#444">{_fmt(t)}</text>'
        )
    out.append(
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}" y2="{bottom:.1f}" '
        'stroke="#777" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{left:.1f}" y1="{bottom:.1f}" x2="{right:.1f}" y2="{bottom:.1f}" '
        'stroke="#777" stroke-width="1"/>'
    )
    if x_label:
        out.append(
            f'<text x="{(left + right) / 2:.1f}" y="{_CHART_HEIGHT - 8:.1f}" '
            f'font-family="sans-serif" font-size="11" text-anchor="middle" '
            f'fill="#222">{x_label}</text>'
        )
    if y_label:
        out.append(
            f'<text x="14" y="{(top + bottom) / 2:.1f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle" fill="#222" '
            f'transform="rotate(-90 14 {(top + bottom) / 2:.1f})">{y_label}</text>'
        )

    if band is not None:
        bx = np.asarray(band.x, dtype=float)
        pts_up = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(bx, band.upper))
        pts_dn = " ".join(
            f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(bx[::-1], np.asarray(band.lower)[::-1])
        )
        out.append(
            f'<polygon points="{pts_up} {pts_dn}" fill="{_BAND_COLOR}" '
            'fill-opacity="0.35" stroke="none"/>'
        )
    for k, s in enumerate(overlays):
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(s.x, s.y))
        color = _PALETTE[k % len(_PALETTE)]
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1" stroke-opacity="0.3"/>'
        )
    for k, s in enumerate(series):
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(s.x, s.y))
        color = _PALETTE[k % len(_PALETTE)]
        dash = _DASHES[k % len(_DASHES)]
        dash_attr = "" if dash == "none" else f' stroke-dasharray="{dash}"'
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"{dash_attr}/>'
        )
        ly = top + 14 + 14 * k
        out.append(
            f'<line x1="{right - 150:.1f}" y1="{ly:.1f}" x2="{right - 120:.1f}" '
            f'y2="{ly:.1f}" stroke="{color}" stroke-width="1.8"{dash_attr}/>'
        )
        out.append(
            f'<text x="{right - 114:.1f}" y="{ly + 3:.1f}" font-family="sans-serif" '
            f'font-size="10" fill="#222">{s.label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
