import hashlib
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from shapdec.errors import RenderError
from shapdec.viz import Series, render_force_plot, render_line_chart

# base, names, shown values, phi_int, phi_dep
_ROW = (0.5, ["T", "RH", "Ws"], [31.2, 70.0, 12.0], [0.8, -0.4, 0.05], [0.1, -0.2, 0.0])


def _logistic(v):
    return 1.0 / (1.0 + math.exp(-v))


def _logit(p):
    p = min(max(p, 1e-9), 1 - 1e-9)
    return math.log(p / (1.0 - p))


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_force_plot_is_valid_xml():
    svg = render_force_plot(*_ROW)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


def test_force_plot_is_deterministic():
    assert render_force_plot(*_ROW) == render_force_plot(*_ROW)


def test_force_plot_mentions_features_and_values():
    svg = render_force_plot(*_ROW)
    for label in ("T = 31.2", "RH = 70", "Ws = 12"):
        assert label in svg


def test_force_plot_has_hatched_dependent_segments():
    svg = render_force_plot(*_ROW)
    assert "url(#hatch" in svg


def test_force_plot_secondary_axis():
    svg = render_force_plot(0.0, ["a"], [1.0], [1.0], [0.0], ("probability", _logistic, _logit))
    assert "probability" in svg


def test_force_plot_bytes_are_pinned():
    # negative parts, a zero phi_dep and the probability axis; recorded
    # before the renderer took arrays instead of per-feature records
    svg = render_force_plot(
        -0.3, ["T", "RH", "Ws", "rain"], [31.2, 70.0, 12.0, 0.0],
        np.array([0.8, -0.4, 0.05, -0.6]), np.array([0.1, -0.2, 0.0, 0.25]),
        ("probability", _logistic, _logit),
    )
    assert _sha256(svg) == "6f58f389f2a65d33c01ecbb68438189f562a118c7c741268c9838ea964d554fc"


def test_force_plot_rejects_empty_features():
    with pytest.raises(RenderError, match="at least one feature"):
        render_force_plot(0.0, [], [], [], [])


@pytest.mark.parametrize("slot", [0, 2, 3, 4], ids=["base", "shown", "phi_int", "phi_dep"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_force_plot_rejects_non_finite_values(slot, bad):
    row = list(_ROW)
    if slot == 0:
        row[0] = bad
    else:
        row[slot] = row[slot][:1] + [bad] + row[slot][2:]
    with pytest.raises(RenderError, match="non-finite"):
        render_force_plot(*row)


@pytest.mark.parametrize("slot", [1, 2, 3, 4], ids=["names", "shown", "phi_int", "phi_dep"])
def test_force_plot_rejects_a_short_input(slot):
    # arrays of unequal length used to be truncated to the shortest
    row = list(_ROW)
    row[slot] = row[slot][:-1]
    with pytest.raises(RenderError, match="per name"):
        render_force_plot(*row)


def _series():
    x = np.arange(6.0)
    return [
        Series("rising", x, x * 0.5),
        Series("falling", x, 3.0 - x),
    ]


def test_line_chart_is_valid_xml():
    svg = render_line_chart(_series(), x_label="k", y_label="change")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert "rising" in svg and "falling" in svg
    assert "k" in svg and "change" in svg


def test_line_chart_is_deterministic():
    a = render_line_chart(_series(), x_label="x", y_label="y")
    b = render_line_chart(_series(), x_label="x", y_label="y")
    assert a == b


def test_line_chart_band_and_overlays():
    x = np.arange(4.0)
    overlays = [Series("o", x, x * 0.1)]
    svg = render_line_chart(
        [Series("mean", x, x)],
        x_label="x",
        y_label="y",
        band=(x, x - 1.0, x + 1.0),
        overlays=overlays,
    )
    assert "polygon" in svg
    assert 'opacity="0.3"' in svg


def test_line_chart_bytes_are_pinned():
    # overlays and a band; recorded before the band became a plain tuple
    x = np.arange(5.0)
    mean = 0.5 * x
    chart = render_line_chart(
        [Series("mean", x, mean), Series("other", x, 2.0 - x)],
        x_label="features imputed",
        y_label="change",
        overlays=[Series("o", x, mean + 0.3 * (-1) ** k * x) for k in range(3)],
        band=(x, mean - 0.4, mean + 0.4),
    )
    assert _sha256(chart) == "998797c18c23e2b0885469f7ca09ba9c5b01de197025cf653f81fecfbc553460"


def test_series_length_mismatch():
    with pytest.raises(RenderError):
        Series("bad", np.arange(3.0), np.arange(4.0))
