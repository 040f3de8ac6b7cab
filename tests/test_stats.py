import re

import numpy as np
import pytest
from scipy import stats as sps

from shapdec.core import RngStream
from shapdec.errors import IngestionError
from shapdec.stats import _ranks, partial_correlation_graph, spearman, to_dot


def test_spearman_matches_scipy():
    gen = RngStream(1).generator()
    x = gen.normal(size=200)
    y = x**3 + gen.normal(0, 0.5, 200)
    ours = spearman(x, y)
    ref = sps.spearmanr(x, y).statistic
    assert ours == pytest.approx(ref, abs=1e-12)


def test_spearman_handles_ties():
    x = np.array([1.0, 1.0, 2.0, 3.0, 3.0, 4.0])
    y = np.array([2.0, 1.0, 3.0, 5.0, 4.0, 6.0])
    assert spearman(x, y) == pytest.approx(sps.spearmanr(x, y).statistic, abs=1e-12)


@pytest.mark.parametrize(
    "values",
    [
        [1.0, 1.0, 2.0, 3.0, 3.0, 4.0, 3.0],
        [0.0, -0.0, 1.0, -0.0, -1.0, 0.0],
        [np.inf, -np.inf, 1.0, np.inf, 0.0, -np.inf, -np.inf],
        [2.5],
        RngStream(6).generator().integers(0, 40, 10_000).astype(float),
    ],
    ids=["ties", "signed-zeros", "infinities", "single", "heavy-ties"],
)
def test_mid_ranks_equal_scipy_rankdata(values):
    ours = _ranks(values)
    assert ours.dtype == np.float64
    assert np.array_equal(ours, sps.rankdata(values))


def test_spearman_names_the_input_holding_nan():
    y = np.arange(10.0)
    y[3] = np.nan
    with pytest.raises(IngestionError, match="'y'"):
        spearman(np.arange(10), y)
    with pytest.raises(IngestionError, match="'x'"):
        spearman(y, np.arange(10))


def test_spearman_ranks_infinities():
    x = np.array([-np.inf, 1.0, 2.0, np.inf, 5.0])
    assert spearman(x, np.arange(5.0)) == pytest.approx(sps.spearmanr(x, np.arange(5.0)).statistic)


def test_partial_correlation_names_the_column_holding_nan():
    cols = RngStream(7).generator().normal(size=(20, 3))
    cols[5, 1] = np.nan
    with pytest.raises(IngestionError, match="'b'") as err:
        partial_correlation_graph(cols, ["a", "b", "c"])
    assert "'a'" not in str(err.value) and "'c'" not in str(err.value)


def test_spearman_monotone_is_one():
    x = np.arange(10.0)
    assert spearman(x, np.exp(x)) == pytest.approx(1.0)
    assert spearman(x, -np.exp(x)) == pytest.approx(-1.0)


def test_spearman_rejects_constant_input():
    with pytest.raises(IngestionError):
        spearman(np.ones(10), np.arange(10.0))


def test_spearman_needs_enough_points():
    with pytest.raises(IngestionError):
        spearman(np.array([1.0, 2.0]), np.array([1.0, 2.0]))


def test_partial_correlation_chain_structure():
    # x -> y -> z: controlling for y should kill the x-z association
    gen = RngStream(2).generator()
    x = gen.normal(size=5000)
    y = x + 0.5 * gen.normal(size=5000)
    z = y + 0.5 * gen.normal(size=5000)
    graph = partial_correlation_graph(np.column_stack([x, y, z]), ["x", "y", "z"])
    assert abs(graph[0, 2]) < 0.05  # x, z
    assert graph[0, 1] > 0.5  # x, y
    assert graph[1, 2] > 0.5  # y, z


def test_partial_correlation_needs_rows():
    with pytest.raises(IngestionError):
        partial_correlation_graph(np.zeros((3, 3)), ["a", "b", "c"])


def test_partial_correlation_duplicate_column_recovers_via_jitter():
    # an exactly singular rank correlation is rescued by the jitter loop
    gen = RngStream(3).generator()
    x = gen.normal(size=100)
    graph = partial_correlation_graph(np.column_stack([x, x]), ["a", "b"])
    assert np.all(np.isfinite(graph))
    assert graph[0, 1] == pytest.approx(1.0, abs=1e-3)


def test_to_dot_layout():
    gen = RngStream(4).generator()
    x = gen.normal(size=1000)
    y = 0.9 * x + 0.3 * gen.normal(size=1000)
    z = gen.normal(size=1000)
    names = ["x", "y", "z"]
    graph = partial_correlation_graph(np.column_stack([x, y, z]), names)
    dot = to_dot(names, graph)  # edges with |rho| >= 0.05
    assert dot.startswith("graph")
    assert '"x" -- "y"' in dot
    # weakly-associated pair stays out of the drawing
    assert '"x" -- "z"' not in dot
    assert "penwidth" in dot


def test_to_dot_edge_colors_follow_sign():
    gen = RngStream(5).generator()
    x = gen.normal(size=1000)
    y = -0.9 * x + 0.3 * gen.normal(size=1000)
    names = ["x", "y", "z"]
    graph = partial_correlation_graph(np.column_stack([x, y, gen.normal(size=1000)]), names)
    dot = to_dot(names, graph)
    edge = [line for line in dot.splitlines() if '"x" -- "y"' in line][0]
    assert "blue" in edge


def test_to_dot_escapes_quotes_and_backslashes_in_names():
    names = ['q"t', "a\\b", "R&D"]
    dot = to_dot(names, np.array([[1.0, 0.5, -0.5], [0.5, 1.0, 0.0], [-0.5, 0.0, 1.0]]))
    # DOT's quoted strings: any character but a quote, or a backslash pair
    quoted = re.findall(r'"((?:[^"\\]|\\.)*)"', dot)
    unescaped = [re.sub(r"\\(.)", r"\1", q) for q in quoted]
    assert unescaped[:3] == names  # the node lines
    assert unescaped[3:] == ['q"t', "a\\b", "0.50", 'q"t', "R&D", "-0.50"]  # two edges
