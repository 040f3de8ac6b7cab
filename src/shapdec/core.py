"""Domain types, the coalition mask and the seeded RNG contract.

A coalition of known features is an int bitmask: bit i set means feature
i is known. Everything here is immutable after construction. All
randomness flows through :class:`RngStream`, which derives independent
substreams from (seed, index) pairs, so a work item's draws (a coalition
of the table, or an explained row of the walk) depend only on the seed
and its own key, not on what was drawn before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import IngestionError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_PHILOX_ZEROS = (0, 0, 0, 0)  # counter and buffer of a freshly keyed Philox


def splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream identified by (seed, stream index).

    Identical (seed, index) pairs give identical draw sequences on every
    platform (counter-based Philox); distinct indices give statistically
    independent streams.
    """

    seed: int
    index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)
        object.__setattr__(self, "index", int(self.index) & _MASK64)

    def substream(self, key: int) -> "RngStream":
        """Derive an independent child stream for work item ``key``."""
        key = int(key) & _MASK64
        return RngStream(self.seed, splitmix64(self.index ^ splitmix64(key)))

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=_philox_key(self.seed, self.index)))

    def rekey(self, gen: np.random.Generator) -> None:
        """Reset a Philox-backed ``gen`` to the start of this stream: it then
        draws exactly what ``self.generator()`` would, without a new build."""
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _PHILOX_ZEROS, "key": _philox_key(self.seed, self.index)},
            "buffer": _PHILOX_ZEROS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }


def _philox_key(seed: int, index: int) -> np.ndarray:
    """The Philox key of stream (seed, index): both values exactly, as uint64."""
    return np.array([seed, index], dtype=np.uint64)


def missing_columns(mask: int, m: int) -> np.ndarray:
    """The features of 0..m-1 outside coalition ``mask`` (ascending, np.intp)."""
    return np.flatnonzero((mask >> np.arange(m) & 1) == 0)


def as_vector(x) -> np.ndarray:
    """Coerce an array-like to a 1-D float vector."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise IngestionError(f"expected a 1-D sample, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class FeatureMatrix:
    """Background dataset: n rows by M named numeric features."""

    names: tuple
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        names = tuple(str(n) for n in self.names)
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise IngestionError("feature matrix must be 2-D")
        n, m = values.shape
        if m != len(names):
            raise IngestionError(f"{len(names)} names but {m} columns")
        if len(set(names)) != len(names):
            raise IngestionError("feature names must be unique")
        if n < 2 or m < 1:
            raise IngestionError(f"need n >= 2 rows and M >= 1 columns, got {n}x{m}")
        if not np.all(np.isfinite(values)):
            raise IngestionError("feature matrix contains non-finite entries")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", values)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Decomposition:
    """Per-feature attribution triples: phi = phi_int + phi_dep (exact)."""

    base: float
    phi: np.ndarray
    phi_int: np.ndarray
    phi_dep: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        phi_int = np.asarray(self.phi_int, dtype=float)
        phi_dep = np.asarray(self.phi_dep, dtype=float)
        for arr in (phi, phi_int, phi_dep):
            if not np.all(np.isfinite(arr)):
                raise IngestionError("decomposition entries must be finite")
            arr.setflags(write=False)
        if phi.shape != phi_int.shape or phi.shape != phi_dep.shape:
            raise IngestionError("phi, phi_int, phi_dep must have equal length")
        scale = 1.0 + np.max(np.abs(phi), initial=0.0)
        if np.max(np.abs(phi_int + phi_dep - phi), initial=0.0) > 1e-9 * scale:
            raise IngestionError("phi_int + phi_dep must reproduce phi")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "phi_int", phi_int)
        object.__setattr__(self, "phi_dep", phi_dep)

    def to_json_dict(self, names: Sequence[str]) -> dict:
        return {
            "base": float(self.base),
            "features": [
                {
                    "name": names[i],
                    "phi": float(self.phi[i]),
                    "phi_int": float(self.phi_int[i]),
                    "phi_dep": float(self.phi_dep[i]),
                }
                for i in range(len(self.phi))
            ],
            "meta": dict(self.meta),
        }

