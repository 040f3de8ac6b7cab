import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from shapdec.errors import RenderError
from shapdec.viz import (
    Band,
    ForceFeature,
    ForcePlotSpec,
    Series,
    force_plot,
    render_force_plot,
    render_line_chart,
)


def _spec():
    return ForcePlotSpec(
        base=0.5,
        features=(
            ForceFeature("T", 31.2, 0.8, 0.1),
            ForceFeature("RH", 70.0, -0.4, -0.2),
            ForceFeature("Ws", 12.0, 0.05, 0.0),
        ),
    )


def test_force_plot_is_valid_xml():
    svg = render_force_plot(_spec())
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


def test_force_plot_is_deterministic():
    assert render_force_plot(_spec()) == render_force_plot(_spec())


def test_force_plot_mentions_features_and_values():
    svg = render_force_plot(_spec())
    for label in ("T = 31.2", "RH = 70", "Ws = 12"):
        assert label in svg


def test_force_plot_has_hatched_dependent_segments():
    svg = render_force_plot(_spec())
    assert "url(#hatch" in svg


def test_force_plot_secondary_axis():
    spec = ForcePlotSpec(
        base=0.0,
        features=(ForceFeature("a", 1.0, 1.0, 0.0),),
        secondary_axis=(
            "probability",
            lambda lo: 1.0 / (1.0 + math.exp(-lo)),
            lambda p: math.log(p / (1.0 - p)),
        ),
    )
    svg = render_force_plot(spec)
    assert "probability" in svg


def test_force_plot_of_arrays_is_the_spec_of_its_features():
    spec = _spec()
    columns = [[getattr(f, k) for f in spec.features]
               for k in ("name", "shown_value", "phi_int", "phi_dep")]
    assert force_plot(spec.base, *columns) == render_force_plot(spec)
    axis = ("p", math.tanh, math.atanh)
    svg = force_plot(spec.base, *(np.array(c) for c in columns), secondary_axis=axis)
    assert svg == render_force_plot(ForcePlotSpec(spec.base, spec.features, axis))


def test_force_plot_rejects_empty_features():
    with pytest.raises(RenderError):
        ForcePlotSpec(base=0.0, features=())


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
    band = Band(x, x - 1.0, x + 1.0)
    overlays = [Series("o", x, x * 0.1)]
    svg = render_line_chart(
        [Series("mean", x, x)],
        x_label="x",
        y_label="y",
        band=band,
        overlays=overlays,
    )
    assert "polygon" in svg
    assert 'opacity="0.3"' in svg


def test_series_length_mismatch():
    with pytest.raises(RenderError):
        Series("bad", np.arange(3.0), np.arange(4.0))
