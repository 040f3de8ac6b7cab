import numpy as np
import pytest
from hypothesis import given, strategies as st

from shapdec.core import (
    Decomposition,
    FeatureMatrix,
    RngStream,
    missing_columns,
)
from shapdec.errors import IngestionError


def test_rng_stream_is_reproducible():
    a = RngStream(42, 7).generator().standard_normal(16)
    b = RngStream(42, 7).generator().standard_normal(16)
    assert np.array_equal(a, b)


def test_rng_substreams_differ():
    root = RngStream(0)
    draws = [root.substream(k).generator().standard_normal(8) for k in range(50)]
    flat = np.array(draws)
    # no two substreams should produce the same block
    assert len({tuple(row) for row in flat}) == 50


def test_rng_substream_is_stable_across_calls():
    root = RngStream(123)
    assert root.substream(9) == root.substream(9)
    assert root.substream(9) != root.substream(10)


@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=2**31))
def test_rng_substream_keys_never_collide_with_parent(seed, key):
    root = RngStream(seed)
    child = root.substream(key)
    assert (child.seed, child.index) != (root.seed, root.index)


_STREAMS = [
    (0, 5),
    (42, 2**63 - 1),
    (3, 2**63 + 7),
    (7, 2**64 - 3),
    (2**63 + 1, 9),
    (2**64 - 1, 2**64 - 2),
]


def _fresh_philox(seed, index):
    """A Philox generator keyed with exactly (seed, index)."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draws(gen):
    return (
        gen.permutation(13),
        gen.standard_normal(7),
        gen.integers(0, 9, size=5, dtype=np.int32),  # buffered 32-bit draws
        gen.choice(4, size=6, p=[0.1, 0.2, 0.3, 0.4]),
    )


@pytest.mark.parametrize("seed, index", _STREAMS)
def test_rekeyed_generator_draws_like_a_fresh_one(seed, index):
    # each call of generator() keys a new Philox with exactly (seed, index)
    stream = RngStream(seed, index)
    for a, b, c in zip(_draws(_fresh_philox(seed, index)), _draws(stream.generator()),
                       _draws(stream.generator())):
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)


def test_philox_key_is_exactly_seed_and_index():
    gen = RngStream(1, 2**63 + 1).generator()
    assert gen.bit_generator.state["state"]["key"].tolist() == [1, 2**63 + 1]
    other = RngStream(7, 2**64 - 3).generator()
    assert other.bit_generator.state["state"]["key"].tolist() == [7, 2**64 - 3]


def test_feature_matrix_validates_shapes():
    with pytest.raises(IngestionError):
        FeatureMatrix(("a", "b"), np.zeros((3, 3)))
    with pytest.raises(IngestionError):
        FeatureMatrix(("a", "a"), np.zeros((3, 2)))
    with pytest.raises(IngestionError):
        FeatureMatrix(("a", "b"), np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_feature_matrix_is_immutable():
    fm = FeatureMatrix(("a", "b"), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        fm.values[0, 0] = 1.0


def test_coalition_roundtrip():
    mask = 0b0101  # features 0 and 2 known, of M=4
    missing = missing_columns(mask, 4)
    assert missing.dtype == np.intp
    assert missing.tolist() == [1, 3]
    assert missing_columns(mask ^ 0b1111, 4).tolist() == [0, 2]
    assert sum(1 << int(i) for i in missing) == mask ^ 0b1111
    assert missing_columns(0, 3).tolist() == [0, 1, 2]
    assert missing_columns(0b111, 3).tolist() == []


@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda m: st.tuples(st.just(m), st.sets(st.integers(0, m - 1)))
    )
)
def test_coalition_complement_partitions(case):
    m, idx = case
    mask = sum(1 << i for i in idx)
    known = missing_columns(mask ^ ((1 << m) - 1), m)
    assert known.tolist() == sorted(idx)
    assert sorted(known.tolist() + missing_columns(mask, m).tolist()) == list(range(m))


def test_decomposition_serialization():
    dec = Decomposition(
        base=0.5,
        phi=np.array([0.4, 0.1]),
        phi_int=np.array([0.4, 0.0]),
        phi_dep=np.array([0.0, 0.1]),
        meta={"seed": 0},
    )
    doc = dec.to_json_dict(["x1", "x2"])
    assert doc["base"] == 0.5
    assert doc["features"][0] == {
        "name": "x1",
        "phi": 0.4,
        "phi_int": 0.4,
        "phi_dep": 0.0,
    }
    assert doc["meta"] == {"seed": 0}


def test_decomposition_rejects_inconsistent_split():
    with pytest.raises(IngestionError):
        Decomposition(
            base=0.0,
            phi=np.array([1.0]),
            phi_int=np.array([0.2]),
            phi_dep=np.array([0.3]),
        )
