"""Fitted conditional samplers: p(X_missing | X_known = x_known).

Four samplers share one interface: multivariate Gaussian, Gaussian copula
over empirical marginals, an exact discrete joint (used by the oracles),
and a marginal whole-row sampler used by the interventional value
function. A sampler's fitted model is immutable; it caches only work that
repeats for one coalition or one explained row, so a draw depends on
nothing but its inputs and its explicit RngStream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky
from scipy.special import ndtr, ndtri

from .core import Coalition, FeatureMatrix, RngStream, as_generator, as_vector
from .errors import (
    ConditioningError,
    DegenerateMarginalError,
    IngestionError,
    SingularityError,
)

_JITTER_ATTEMPTS = 10


def _jittered_cholesky(a: np.ndarray, scale: float, what: str) -> np.ndarray:
    """Lower Cholesky factor of ``a``, adding eps*I (doubling) if needed."""
    if a.size == 0:
        return a.reshape(0, 0)
    eps = 1e-9 * scale if scale > 0 else 1e-12
    try:
        return cholesky(a, lower=True)
    except np.linalg.LinAlgError:
        pass
    for _ in range(_JITTER_ATTEMPTS):
        try:
            return cholesky(a + eps * np.eye(a.shape[0]), lower=True)
        except np.linalg.LinAlgError:
            eps *= 2.0
    raise SingularityError(f"{what} stayed non-positive-definite after jitter")


@dataclass(frozen=True)
class GaussianModel:
    """Mean vector and symmetric covariance matrix of the fitted Gaussian."""

    mean: np.ndarray
    cov: np.ndarray
    constant_features: tuple = ()

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (len(mean), len(mean)):
            raise IngestionError("covariance shape does not match mean")
        cov = 0.5 * (cov + cov.T)
        for arr in (mean, cov):
            arr.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_features(self) -> int:
        return len(self.mean)


def fit_gaussian(data: FeatureMatrix) -> GaussianModel:
    """Column means and sample covariance (divisor n-1), symmetrized."""
    x = data.values
    mean = x.mean(axis=0)
    cov = np.cov(x, rowvar=False, ddof=1).reshape(data.n_features, data.n_features)
    variances = np.diag(cov)
    constant = tuple(data.names[i] for i in range(data.n_features) if variances[i] == 0.0)
    return GaussianModel(mean, cov, constant_features=constant)


def _partition_solve(model: GaussianModel, known: tuple, missing: tuple):
    """Return (gain, cond_cov) with gain = Sigma_mS Sigma_SS^-1."""
    cov = model.cov
    s_idx = np.array(known, dtype=np.intp)
    m_idx = np.array(missing, dtype=np.intp)
    c_ss = cov[np.ix_(s_idx, s_idx)]
    c_ms = cov[np.ix_(m_idx, s_idx)]
    c_mm = cov[np.ix_(m_idx, m_idx)]
    scale = np.trace(cov) / model.n_features
    eps = 1e-9 * scale if scale > 0 else 1e-12
    last_err = None
    for attempt in range(_JITTER_ATTEMPTS + 1):
        a = c_ss if attempt == 0 else c_ss + eps * np.eye(len(s_idx))
        if attempt > 1:
            eps *= 2.0
        try:
            factor = cho_factor(a, lower=True)
            gain = cho_solve(factor, c_ms.T).T
            break
        except np.linalg.LinAlgError as err:
            last_err = err
    else:
        raise SingularityError(
            f"covariance block for known features {known} is singular: {last_err}"
        )
    cond_cov = c_mm - gain @ c_ms.T
    cond_cov = 0.5 * (cond_cov + cond_cov.T)
    return gain, cond_cov


class GaussianSampler:
    """Conditional sampler backed by a fitted multivariate Gaussian.

    Conditioning solves are cached per coalition mask: the gain matrix and
    the Cholesky factor of the conditional covariance depend on S only.
    """

    kind = "gaussian"

    def __init__(self, model: GaussianModel):
        self.model = model
        self._cache: dict[int, tuple] = {}

    @property
    def n_features(self) -> int:
        return self.model.n_features

    def describe(self) -> str:
        return f"gaussian(M={self.n_features})"

    def _solved(self, known: Coalition):
        entry = self._cache.get(known.mask)
        if entry is None:
            missing = known.complement_members
            if known.is_empty():
                m_idx = np.array(missing, dtype=np.intp)
                gain = np.empty((len(missing), 0))
                cond_cov = self.model.cov[np.ix_(m_idx, m_idx)]
            else:
                gain, cond_cov = _partition_solve(self.model, known.members, missing)
            scale = np.trace(self.model.cov) / self.n_features
            chol = _jittered_cholesky(cond_cov, scale, "conditional covariance")
            entry = (missing, gain, chol)
            self._cache[known.mask] = entry
        return entry

    def conditional_mean(self, known: Coalition, x, count: int = 10_000) -> np.ndarray:
        """Exact conditional mean of the missing features (closed form)."""
        del count  # exact here; the budget only matters for sampled estimators
        x = as_vector(x)
        missing, gain, _ = self._solved(known)
        m_idx = np.array(missing, dtype=np.intp)
        if known.is_empty():
            return self.model.mean[m_idx].copy()
        s_idx = np.array(known.members, dtype=np.intp)
        return self.model.mean[m_idx] + gain @ (x[s_idx] - self.model.mean[s_idx])

    def sample_conditional(self, known: Coalition, x, count: int, rng: RngStream) -> np.ndarray:
        """``count`` draws of the missing block, columns ordered like
        ``known.complement_members``."""
        mean = self.conditional_mean(known, x)
        _, _, chol = self._solved(known)
        gen = as_generator(rng)
        z = gen.standard_normal((count, len(mean)))
        return mean + z @ chol.T

    def to_json_dict(self) -> dict:
        return {
            "kind": "gaussian",
            "mean": self.model.mean.tolist(),
            "cov": self.model.cov.tolist(),
        }


class _EmpiricalMarginal:
    """Empirical CDF on unique order statistics with linear interpolation.

    Mid-rank probabilities keep the forward and inverse transforms exact
    inverses at the observed points; inverse draws clamp to the data range.
    """

    def __init__(self, values: np.ndarray, name: str = ""):
        values = np.asarray(values, dtype=float)
        uniq, counts = np.unique(values, return_counts=True)
        if len(uniq) < 2:
            raise DegenerateMarginalError(f"marginal {name!r} has no spread")
        n = len(values)
        cum = np.cumsum(counts)
        self.values = uniq
        self.cdf = (cum - 0.5 * counts) / n

    def to_uniform(self, x: np.ndarray) -> np.ndarray:
        return np.interp(x, self.values, self.cdf)

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        return np.interp(u, self.cdf, self.values)


@dataclass(frozen=True)
class CopulaModel:
    """Gaussian copula: empirical marginals coupled by a latent correlation."""

    marginals: tuple
    latent_corr: np.ndarray = field(repr=False)

    @property
    def n_features(self) -> int:
        return len(self.marginals)


def fit_copula(data: FeatureMatrix) -> CopulaModel:
    """Fit empirical marginals and the correlation of the Gaussian scores."""
    marginals = tuple(
        _EmpiricalMarginal(data.values[:, j], data.names[j])
        for j in range(data.n_features)
    )
    scores = np.column_stack(
        [ndtri(marginals[j].to_uniform(data.values[:, j])) for j in range(data.n_features)]
    )
    corr = np.corrcoef(scores, rowvar=False).reshape(data.n_features, data.n_features)
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    return CopulaModel(marginals, corr)


class CopulaSampler:
    """Conditions in Gaussian-score space, then back-transforms each
    coordinate through the interpolated inverse empirical CDF."""

    kind = "copula"

    def __init__(self, model: CopulaModel):
        self.model = model
        self._latent = GaussianSampler(
            GaussianModel(np.zeros(model.n_features), model.latent_corr)
        )
        self._scores = (None, None)  # (bytes of x, scores of x) for the last x

    @property
    def n_features(self) -> int:
        return self.model.n_features

    def describe(self) -> str:
        return f"copula(M={self.n_features})"

    def _to_scores(self, x: np.ndarray) -> np.ndarray:
        """Gaussian scores of x, computed once per explained row."""
        key = x.tobytes()
        cached, z = self._scores
        if cached != key:
            u = np.array(
                [self.model.marginals[j].to_uniform(x[j]) for j in range(self.n_features)]
            )
            z = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
            z.setflags(write=False)
            self._scores = (key, z)
        return z

    def sample_conditional(self, known: Coalition, x, count: int, rng: RngStream) -> np.ndarray:
        x = as_vector(x)
        z = self._to_scores(x)
        draws = self._latent.sample_conditional(known, z, count, rng)
        missing = known.complement_members
        out = np.empty_like(draws)
        for col, j in enumerate(missing):
            out[:, col] = self.model.marginals[j].from_uniform(ndtr(draws[:, col]))
        return out

    def conditional_mean(self, known: Coalition, x, count: int = 10_000) -> np.ndarray:
        """Monte Carlo mean over ``count`` conditional draws (fixed stream)."""
        draws = self.sample_conditional(known, x, count, RngStream(0, known.mask))
        return draws.mean(axis=0)

    def to_json_dict(self) -> dict:
        return {
            "kind": "copula",
            "marginals": [
                {"values": m.values.tolist(), "cdf": m.cdf.tolist()}
                for m in self.model.marginals
            ],
            "latent_corr": self.model.latent_corr.tolist(),
        }


@dataclass(frozen=True)
class DiscreteJoint:
    """Exact finite joint distribution over distinct support rows."""

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if support.ndim != 2 or len(support) != len(probs):
            raise IngestionError("support and probs must have matching length")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
            raise IngestionError("probs must be nonnegative and sum to 1")
        if len(np.unique(support, axis=0)) != len(support):
            raise IngestionError("support rows must be distinct")
        support.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    @property
    def n_features(self) -> int:
        return self.support.shape[1]

    def restrict(self, known: Coalition, x) -> tuple[np.ndarray, np.ndarray]:
        """Support rows matching x_S exactly, with renormalized probs."""
        x = as_vector(x)
        if known.is_empty():
            return self.support, self.probs
        s_idx = np.array(known.members, dtype=np.intp)
        match = np.all(self.support[:, s_idx] == x[s_idx], axis=1)
        total = self.probs[match].sum()
        if total <= 0.0:
            raise ConditioningError(
                f"no support row matches features {known.members} = {x[s_idx].tolist()}"
            )
        return self.support[match], self.probs[match] / total


class DiscreteSampler:
    """Categorical draws from the renormalized conditional pmf."""

    kind = "discrete"

    def __init__(self, joint: DiscreteJoint):
        self.joint = joint
        # (bytes of x, {mask: (pmf, missing-column block)}) for the last x
        self._restricted = (None, {})

    @property
    def n_features(self) -> int:
        return self.joint.n_features

    def describe(self) -> str:
        return f"discrete(support={len(self.joint.probs)})"

    def _restrict(self, known: Coalition, x: np.ndarray) -> tuple:
        """The conditional pmf given x_S and its rows' missing columns,
        built once per (x, S)."""
        key = x.tobytes()
        cached, by_mask = self._restricted
        if cached != key:
            by_mask = {}
            self._restricted = (key, by_mask)
        entry = by_mask.get(known.mask)
        if entry is None:
            rows, probs = self.joint.restrict(known, x)
            m_idx = np.array(known.complement_members, dtype=np.intp)
            entry = by_mask[known.mask] = (probs / probs.sum(), rows[:, m_idx])
        return entry

    def sample_conditional(self, known: Coalition, x, count: int, rng: RngStream) -> np.ndarray:
        pmf, block = self._restrict(known, as_vector(x))
        return block[as_generator(rng).choice(len(pmf), size=count, p=pmf)]

    def conditional_mean(self, known: Coalition, x, count: int = 10_000) -> np.ndarray:
        # Exact pmf arithmetic; the draw budget is irrelevant for a finite joint.
        del count
        rows, probs = self.joint.restrict(known, x)
        m_idx = np.array(known.complement_members, dtype=np.intp)
        return probs @ rows[:, m_idx]

    def to_json_dict(self) -> dict:
        return {
            "kind": "discrete",
            "support": self.joint.support.tolist(),
            "probs": self.joint.probs.tolist(),
        }


class MarginalSampler:
    """Draws whole background rows, preserving dependencies within them.

    Conditioning values are ignored on purpose: this realizes the
    interventional expectation, which severs links between the known and
    missing blocks but keeps the joint structure of the missing block.
    """

    kind = "marginal"

    def __init__(self, data: FeatureMatrix):
        self.data = data

    @property
    def n_features(self) -> int:
        return self.data.n_features

    def describe(self) -> str:
        return f"marginal(n={self.data.n_rows})"

    def sample_conditional(self, known: Coalition, x, count: int, rng: RngStream) -> np.ndarray:
        idx = as_generator(rng).integers(0, self.data.n_rows, size=count)
        rows = self.data.values[idx]
        m_idx = np.array(known.complement_members, dtype=np.intp)
        return rows[:, m_idx]

    def conditional_mean(self, known: Coalition, x, count: int = 10_000) -> np.ndarray:
        m_idx = np.array(known.complement_members, dtype=np.intp)
        return self.data.values[:, m_idx].mean(axis=0)

    def to_json_dict(self) -> dict:
        return {
            "kind": "marginal",
            "names": list(self.data.names),
            "rows": self.data.values.tolist(),
        }


def sampler_from_json(doc: dict):
    """Rebuild a sampler from its JSON document."""
    kind = doc.get("kind")
    if kind == "gaussian":
        return GaussianSampler(GaussianModel(np.array(doc["mean"]), np.array(doc["cov"])))
    if kind == "copula":
        marginals = []
        for m in doc["marginals"]:
            obj = _EmpiricalMarginal.__new__(_EmpiricalMarginal)
            obj.values = np.asarray(m["values"], dtype=float)
            obj.cdf = np.asarray(m["cdf"], dtype=float)
            marginals.append(obj)
        return CopulaSampler(CopulaModel(tuple(marginals), np.array(doc["latent_corr"])))
    if kind == "discrete":
        return DiscreteSampler(DiscreteJoint(np.array(doc["support"]), np.array(doc["probs"])))
    if kind == "marginal":
        return MarginalSampler(FeatureMatrix(tuple(doc["names"]), np.array(doc["rows"])))
    raise IngestionError(f"unknown sampler kind {kind!r}")
