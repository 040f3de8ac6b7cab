"""Fitted conditional samplers: p(X_missing | X_known = x_known).

Four samplers (multivariate Gaussian, Gaussian copula over empirical
marginals, an exact discrete joint used by the oracles, and a marginal
whole-row sampler that plays the interventional game) give rows of X
with x's own bytes on the known columns, per coalition mask (``_draw``)
and per antithetic pair of the walk. For the walk, ``_prefix_draws(orders,
x, draws)`` does the explained row's work once, for the orderings
``orders`` (pairs x 2 x M: each permutation and its reverse), and returns
``draw(q, gen, out)``: one call per pair writes prefix j of ordering o to
out[o, j] (2 x M x draws x M), all but the reverse's empty coalition,
which the caller shares from the first ordering. ``out`` is a view of the
caller's pair block, which holds the reverse first so that the pair is
one contiguous model batch; out[0] is still the first ordering, and each
out[o] is contiguous. A fitted model is immutable; a sampler caches only
work that repeats for one coalition or one explained row, so a draw
depends only on its inputs and generator.

The Gaussian conditions a coalition with one Cholesky factor of the
covariance permuted to known-then-missing order: ``L = [[L_ss, 0], [L_ms,
L_mm]]`` gives the gain ``Sigma_ms Sigma_ss^-1 = L_ms L_ss^-1`` and the
conditional covariance ``L_mm L_mm^T``. The walk conditions every prefix
of an ordering with one factor of the covariance in that order (the chain
rule), all of a row's orderings factored in one stacked Cholesky, and an
ordering's prefixes share one normal vector per draw: each prefix's
conditional mean is one more row of its factor, so a pair is one matmul
of its normals by its prefixes' factors; the marginal
sampler's prefixes share one block of background rows, and the discrete
sampler matches every prefix in one pass over the support. It needs numpy
alone; scipy is imported only by the copula's normal transforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import FeatureMatrix, as_vector, missing_columns
from .errors import (
    ConditioningError,
    DegenerateMarginalError,
    IngestionError,
    SingularityError,
)

_JITTER_ATTEMPTS = 10
# Coalition masks a GaussianSampler keeps solved; it forgets them all when
# one more is solved. Every mask of M <= 11 features fits, so only
# ``conditional_mean`` at larger M (the housing study's conditional-mean
# imputation, up to 3 M new masks per town) can reach it.
_CACHED_MASKS = 2048


def _jittered_cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the covariance ``a``; if ``a`` is not
    positive definite, of ``a + eps*I`` with eps 1e-9 times the mean
    variance, doubled up to ten times."""
    scale = np.trace(a) / len(a)
    eps = 1e-9 * scale if scale > 0 else 1e-12
    for attempt in range(_JITTER_ATTEMPTS + 1):
        try:
            return np.linalg.cholesky(a if attempt == 0 else a + eps * np.eye(len(a)))
        except np.linalg.LinAlgError:
            if attempt > 0:
                eps *= 2.0
    raise SingularityError("covariance stayed non-positive-definite after jitter")


@dataclass(frozen=True)
class GaussianModel:
    """Mean vector and symmetric covariance matrix of the fitted Gaussian."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (len(mean), len(mean)):
            raise IngestionError("covariance shape does not match mean")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise IngestionError("Gaussian mean and covariance must be finite")
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
    cov = np.cov(x, rowvar=False, ddof=1).reshape(data.n_features, data.n_features)
    return GaussianModel(x.mean(axis=0), cov)


def _prefix_masks(perm: np.ndarray) -> np.ndarray:
    """The masks of the prefixes perm[:j], j from 0 to M-1."""
    return np.concatenate(([0], np.cumsum(1 << perm[:-1])))


def _is_known(masks, m: int) -> np.ndarray:
    """known[..., c]: whether feature c is in the coalition(s) ``masks``."""
    return (np.asarray(masks)[..., None] >> np.arange(m) & 1).astype(bool)


def _chain_walk(model: GaussianModel, orders: np.ndarray, cond, fill, draws: int):
    """The walk kernel of ``model`` on ``cond``: every prefix of every
    ordering of ``orders`` (pairs x 2 x M) from one factor of the
    covariance in that order (the chain rule; Aas, Jullum & Loland, AI
    2021). All 2 x pairs orderings are factored in one stacked Cholesky;
    if that fails, each one goes through the jitter alone.

    With ``L L^T = Sigma[perm, perm]`` and ``w = L^-1 (cond - mu)[perm]``,
    draw r of prefix j is ``mu + L [w_<j, z_r,>=j]`` in perm order, an
    exact draw given the first j features of perm at ``cond``. In feature
    order that is ``[z_r, 1] @ F_j``, where the factor F_j holds ``gain =
    L^T`` (its columns in feature order) with rows k < j zeroed, then the
    prefix's conditional mean ``base_j = mu + sum_{k<j} w_k gain_k`` as
    its last row, ``fill`` on the known columns. Those columns of gain
    are zeros of L's upper triangle, so they come out as ``fill``'s bytes
    but for a zero's sign, which is written back.

    Returns ``draw(q, gen, out)``: it draws ``z = gen.standard_normal((2,
    draws, M))``, whose column c drives position c of ordering o for every
    prefix of it, and writes prefix j of ordering o to out[o, j] (2 x M x
    draws x M, each out[o] contiguous) in one matmul of ``[z, 1]`` by the
    pair's factors, built in a reused block.
    """
    pairs, _, m = orders.shape
    perms = orders.reshape(-1, m)
    cov = model.cov[perms[:, :, None], perms[:, None, :]]
    try:
        lower = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        lower = np.array([_jittered_cholesky(a) for a in cov])
    w = np.linalg.solve(lower, (cond - model.mean)[perms][..., None])
    rank = np.argsort(perms)  # rank[n, c]: the position of feature c in ordering n
    gain = np.take_along_axis(lower.transpose(0, 2, 1), rank[:, None, :], 2)
    # base[n, j] = mu + sum_{k<j} w_k gain_k, one running sum over k
    base = np.empty_like(gain)
    base[:, 0] = model.mean
    np.multiply(w[:, :-1], gain[:, :-1], out=base[:, 1:])
    np.cumsum(base, axis=1, out=base)
    base = np.where(rank[:, None, :] < np.arange(m)[:, None], fill, base)  # a masked copyto is slower
    gain, base = gain.reshape(pairs, 2, m, m), base.reshape(pairs, 2, m, m)
    rank = rank.reshape(pairs, 2, m)
    zeros = np.flatnonzero(fill == 0)  # the matmul may turn -0.0 into 0.0
    # drawn[j, k]: prefix j draws position k
    drawn = np.arange(m)[:, None, None] <= np.arange(m)[:, None]
    z1 = np.ones((2, 1, draws, m + 1))  # reused by every pair: [z, 1]
    factors = np.zeros((2, m, m + 1, m))  # F_j of both orderings; rows k < j stay zero

    def draw(q: int, gen, out: np.ndarray) -> None:
        z1[..., :m] = gen.standard_normal((2, 1, draws, m))
        np.copyto(factors[:, :, :m], gain[q][:, None], where=drawn)
        factors[:, :, m] = base[q]
        np.matmul(z1, factors, out=out)
        for c in zeros:
            for o in range(2):
                out[o, rank[q, o, c] + 1:, :, c] = fill[c]

    return draw


class GaussianSampler:
    """Conditional sampler backed by a fitted multivariate Gaussian.

    Each coalition mask is solved once and cached: one Cholesky factor of
    the covariance in known-then-missing order yields the gain matrix and,
    as its missing-by-missing block, the factor of the conditional
    covariance. The cache is emptied once it holds _CACHED_MASKS masks, so
    ``conditional_mean`` at larger M, asked for new masks with every row,
    does not grow it without bound; a mask solved again gives the same
    bits.
    The walk's prefixes come from one factor per ordering instead
    (``_chain_walk``), and touch no per-mask cache.
    """

    def __init__(self, model: GaussianModel):
        self.model = model
        self._cache: dict[int, tuple] = {}

    @property
    def n_features(self) -> int:
        return self.model.n_features

    def describe(self) -> str:
        return f"gaussian(M={self.n_features})"

    def _solved(self, mask: int):
        """(columns known-then-missing, number known, gain, conditional
        factor) for ``mask``."""
        entry = self._cache.get(mask)
        if entry is None:
            if len(self._cache) >= _CACHED_MASKS:
                self._cache.clear()
            m = self.n_features
            known = missing_columns(mask ^ ((1 << m) - 1), m)
            missing = missing_columns(mask, m)
            order = np.concatenate([known, missing])
            lower = _jittered_cholesky(self.model.cov[np.ix_(order, order)])
            k = len(known)
            # Sigma_ms Sigma_ss^-1 = L_ms L_ss^-1; the conditional covariance
            # is L_mm L_mm^T. The copies let the full factor go, in the
            # layouts that make gain @ v and z @ chol.T fastest.
            gain = np.ascontiguousarray(np.linalg.solve(lower[:k, :k].T, lower[k:, :k].T).T)
            entry = (order, k, gain, np.asfortranarray(lower[k:, k:]))
            self._cache[mask] = entry
        return entry

    def _draw(self, mask: int, x: np.ndarray, count: int, gen) -> np.ndarray:
        order, k, _, chol = self._solved(mask)
        rows = np.tile(x, (count, 1))
        z = gen.standard_normal((count, len(chol)))
        rows[:, order[k:]] = self.conditional_mean(mask, x) + z @ chol.T
        return rows

    def _prefix_draws(self, orders: np.ndarray, x: np.ndarray, draws: int):
        return _chain_walk(self.model, orders, x, x, draws)

    def conditional_mean(self, mask: int, x) -> np.ndarray:
        """Exact conditional mean of the missing features of ``mask``
        (closed form), ordered by ascending feature index."""
        order, k, gain, _ = self._solved(mask)
        known, missing = order[:k], order[k:]
        return self.model.mean[missing] + gain @ (as_vector(x)[known] - self.model.mean[known])


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
    """Fit empirical marginals and the correlation of the Gaussian scores.
    scipy.special is imported here, and in the sampler's transforms, so
    the other samplers never load scipy."""
    from scipy.special import ndtri

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
        from scipy.special import ndtri

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

    def _from_scores(self, j: int, z: np.ndarray) -> np.ndarray:
        """Feature j's values at latent scores z (elementwise)."""
        from scipy.special import ndtr

        return self.model.marginals[j].from_uniform(ndtr(z))

    def _draw(self, mask: int, x: np.ndarray, count: int, gen) -> np.ndarray:
        """A latent draw given the scores of x, each drawn column back
        through its marginal, and x on the known columns."""
        rows = self._latent._draw(mask, self._to_scores(x), count, gen)
        for j in range(self.n_features):
            rows[:, j] = x[j] if mask >> j & 1 else self._from_scores(j, rows[:, j])
        return rows

    def _prefix_draws(self, orders: np.ndarray, x: np.ndarray, draws: int):
        """The Gaussian walk kernel on the latent scores of x, then each
        feature back through its marginal over every prefix that drew it."""
        chain = _chain_walk(self._latent.model, orders, self._to_scores(x), x, draws)
        # drawn[q, o, j, c]: feature c is not among the first j of ordering o
        drawn = np.argsort(orders)[..., None, :] >= np.arange(self.n_features)[:, None]
        drawn[:, 1, 0] = False  # the reverse's empty coalition is the caller's

        def draw(q: int, gen, out: np.ndarray) -> None:
            chain(q, gen, out)
            for j in range(self.n_features):
                on = drawn[q, :, :, j]
                out[on, :, j] = self._from_scores(j, out[on, :, j])

        return draw


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
        if not np.all(np.isfinite(support)):
            raise IngestionError("support must be finite")
        # written so that a NaN fails it
        if not (np.all(probs >= 0) and abs(probs.sum() - 1.0) <= 1e-12):
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

    def restrict(self, mask: int, x) -> tuple[np.ndarray, np.ndarray]:
        """Support rows matching x on the known features of ``mask`` exactly,
        with renormalized probs."""
        x = as_vector(x)
        if mask == 0:
            return self.support, self.probs
        known = _is_known(mask, self.n_features)
        return self._renormalized(np.all(self.support[:, known] == x[known], axis=1), mask, x)

    def _renormalized(self, match, mask: int, x: np.ndarray) -> tuple:
        """The support rows selected by ``match``, which match x on ``mask``,
        and their probs renormalized; ConditioningError if they have no mass."""
        total = self.probs[match].sum()
        if total <= 0.0:
            s_idx = missing_columns(mask ^ ((1 << self.n_features) - 1), self.n_features)
            raise ConditioningError(
                f"no support row matches features {tuple(s_idx.tolist())} = {x[s_idx].tolist()}"
            )
        return self.support[match], self.probs[match] / total


def _picks(probs: np.ndarray, count: int, gen) -> np.ndarray:
    """``gen.choice(len(probs), count, p=probs / probs.sum())`` without its
    checks of p, which ``DiscreteJoint._renormalized`` already meets: the
    same picks, and gen left in the same state."""
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(gen.random(count), side="right")


class DiscreteSampler:
    """Categorical draws from the renormalized conditional pmf."""

    def __init__(self, joint: DiscreteJoint):
        self.joint = joint

    @property
    def n_features(self) -> int:
        return self.joint.n_features

    def describe(self) -> str:
        return f"discrete(support={len(self.joint.probs)})"

    def _draw(self, mask: int, x: np.ndarray, count: int, gen) -> np.ndarray:
        rows, probs = self.joint.restrict(mask, x)
        out = rows[_picks(probs, count, gen)]
        np.copyto(out, x, where=_is_known(mask, len(x)))  # x's bytes: -0.0 == 0.0 matched
        return out

    def _prefix_draws(self, orders: np.ndarray, x: np.ndarray, draws: int):
        """Per ordering, every prefix from one pass over the support: the
        rows matching x on perm[:j + 1] are the rows matching it on perm[:j]
        whose perm[j] does too. Prefix j draws as ``_draw`` would on its
        mask; the reverse's empty coalition is the caller's."""
        support = self.joint.support

        def draw(q: int, gen, out: np.ndarray) -> None:
            for o, perm in enumerate(orders[q]):
                rows, probs = self.joint.restrict(0, x)
                match = np.arange(len(probs))  # the support rows matching x on perm[:j]
                for j, mask in enumerate(_prefix_masks(perm).tolist()):
                    if j:
                        match = match[support[match, perm[j - 1]] == x[perm[j - 1]]]
                        rows, probs = self.joint._renormalized(match, mask, x)
                    if o == 0 or j:
                        np.take(rows, _picks(probs, draws, gen), 0, out[o, j])
                        out[o, j][:, perm[:j]] = x[perm[:j]]

        return draw


class MarginalSampler:
    """Draws whole background rows, preserving dependencies within them.

    Conditioning values are ignored on purpose: this realizes the
    interventional expectation, which severs links between the known and
    missing blocks but keeps the joint structure of the missing block.
    """

    def __init__(self, data: FeatureMatrix):
        self.data = data

    @property
    def n_features(self) -> int:
        return self.data.n_features

    def describe(self) -> str:
        return f"marginal(n={self.data.n_rows})"

    def _draw(self, mask: int, x: np.ndarray, count: int, gen) -> np.ndarray:
        rows = self.data.values[gen.integers(0, self.data.n_rows, size=count)]
        np.copyto(rows, x, where=_is_known(mask, len(x)))
        return rows

    def _prefix_draws(self, orders: np.ndarray, x: np.ndarray, draws: int):
        """One block of ``draws`` background rows per ordering; each prefix
        sets its known columns to x on it. Every prefix is still an exact
        draw from the marginal, and prefix j + 1 is prefix j with perm[j]
        set to x, so v[S + i] - t[S, i] is a paired difference."""
        prefix, position = np.tril_indices(len(x), -1)  # prefix j knows positions k < j
        known = orders[..., position]
        ordering = np.arange(2)[:, None]

        def draw(q: int, gen, out: np.ndarray) -> None:
            out[...] = self.data.values[gen.integers(0, self.data.n_rows, size=(2, 1, draws))]
            out[ordering, prefix, :, known[q]] = x[known[q], None]

        return draw
