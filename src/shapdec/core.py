"""Domain types, coalition machinery and the seeded RNG contract.

Everything here is immutable after construction and safe to share across
threads. All randomness flows through :class:`RngStream`, which derives
independent substreams from (seed, index) pairs so that parallel and
sequential evaluation produce bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import IngestionError, SizeError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_PHILOX_ZEROS = (0, 0, 0, 0)  # counter and buffer of a freshly keyed Philox

MAX_EXACT_FEATURES = 20


def _splitmix64(z: int) -> int:
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
        return RngStream(self.seed, _splitmix64(self.index ^ _splitmix64(key)))

    def _philox_key(self) -> np.ndarray:
        # The key Philox(key=[seed, index]) derives from the list. When exactly
        # one of the two is >= 2**63, np.asarray gives float64: the key keeps
        # only 53 bits of each, and a value within 1024 of 2**64 casts out of
        # range (to 0). Kept as is, because it is the seed -> draw mapping.
        return np.asarray([self.seed, self.index]).astype(np.uint64)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self._philox_key()))

    def rekey(self, gen: np.random.Generator) -> None:
        """Reset a Philox-backed ``gen`` to the start of this stream: it then
        draws exactly what ``self.generator()`` would, without a new build."""
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _PHILOX_ZEROS, "key": self._philox_key()},
            "buffer": _PHILOX_ZEROS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }


def as_generator(rng) -> np.random.Generator:
    """Accept either an RngStream or an already-built Generator."""
    return rng.generator() if isinstance(rng, RngStream) else rng


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
class Coalition:
    """A subset of feature indices, stored as a bitmask."""

    mask: int
    n_features: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.n_features):
            raise SizeError(f"mask {self.mask} out of range for M={self.n_features}")

    @classmethod
    def from_indices(cls, indices: Iterable[int], n_features: int) -> "Coalition":
        mask = 0
        for i in indices:
            if not 0 <= i < n_features:
                raise SizeError(f"feature index {i} out of range for M={n_features}")
            mask |= 1 << i
        return cls(mask, n_features)

    @classmethod
    def empty(cls, n_features: int) -> "Coalition":
        return cls(0, n_features)

    @classmethod
    def full(cls, n_features: int) -> "Coalition":
        return cls((1 << n_features) - 1, n_features)

    @property
    def members(self) -> tuple:
        return tuple(i for i in range(self.n_features) if self.mask >> i & 1)

    @property
    def complement_members(self) -> tuple:
        return tuple(i for i in range(self.n_features) if not self.mask >> i & 1)

    def complement(self) -> "Coalition":
        return Coalition(self.mask ^ ((1 << self.n_features) - 1), self.n_features)

    def contains(self, i: int) -> bool:
        return bool(self.mask >> i & 1)

    def add(self, i: int) -> "Coalition":
        if not 0 <= i < self.n_features:
            raise SizeError(f"feature index {i} out of range")
        return Coalition(self.mask | (1 << i), self.n_features)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def is_empty(self) -> bool:
        return self.mask == 0

    def is_full(self) -> bool:
        return self.mask == (1 << self.n_features) - 1


@dataclass(frozen=True)
class AttributionVector:
    """Base value plus one attribution per feature."""

    base: float
    phi: np.ndarray
    warning: str | None = None

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        if not (np.isfinite(self.base) and np.all(np.isfinite(phi))):
            raise IngestionError("attributions must be finite")
        phi = phi.copy()
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)


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

    def to_json_dict(self, names: Sequence[str] | None = None) -> dict:
        m = len(self.phi)
        names = list(names) if names is not None else [f"x{i}" for i in range(m)]
        return {
            "base": float(self.base),
            "features": [
                {
                    "name": names[i],
                    "phi": float(self.phi[i]),
                    "phi_int": float(self.phi_int[i]),
                    "phi_dep": float(self.phi_dep[i]),
                }
                for i in range(m)
            ],
            "meta": dict(self.meta),
        }


def enumerate_coalitions(n_features: int) -> list[Coalition]:
    """All 2^M coalitions, ordered by (cardinality, numeric mask)."""
    if not 1 <= n_features <= MAX_EXACT_FEATURES:
        raise SizeError(f"exact enumeration supports 1 <= M <= {MAX_EXACT_FEATURES}")
    masks = sorted(range(1 << n_features), key=lambda m: (m.bit_count(), m))
    return [Coalition(m, n_features) for m in masks]

