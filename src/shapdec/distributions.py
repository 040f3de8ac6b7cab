"""Fitted conditional samplers: p(X_missing | X_known = x_known).

Four samplers (multivariate Gaussian, Gaussian copula over empirical
marginals, an exact discrete joint used by the oracles, and a marginal
whole-row sampler that plays the interventional game) give rows of X
with x's own bytes on the known columns, per coalition mask (``_draw``)
and per chunk of antithetic pairs of the walk. For the walk,
``_prefix_draws(orders, x, draws, chunk)`` does the explained row's work
once, for the orderings ``orders`` (pairs x 2 x M: each permutation and
its reverse), and returns ``draw(lo, gen, out)``: one call writes the v
rows of pairs lo to lo + len(out) - 1 to out (at most ``chunk`` pairs x
2M - 1 x draws x M). A pair's 2M - 1 blocks are the first ordering's M
prefixes, then the reverse's prefixes 1 to M - 1; the reverse's empty
coalition is the first's. Each call draws from ``gen`` in (pair,
ordering, draw, position) order, so how the pairs are split into chunks
changes no drawn row. A fitted model is immutable; a sampler caches only
work that repeats for one coalition or one explained row, so a draw
depends only on its inputs and generator.

The Gaussian conditions a coalition with one Cholesky factor of the
covariance permuted to known-then-missing order: ``L = [[L_ss, 0], [L_ms,
L_mm]]`` gives the gain ``Sigma_ms Sigma_ss^-1 = L_ms L_ss^-1`` and the
conditional covariance ``L_mm L_mm^T``. The walk conditions every prefix
of an ordering with one factor of the covariance in that order (the chain
rule), all of a row's orderings factored in one stacked Cholesky, and an
ordering's prefixes share one normal vector per draw: each prefix's
conditional mean is one more row of its factor, so a chunk of pairs is
two matmuls of its normals by its prefixes' factors, the first
orderings' and the reverses'; the marginal
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


def _walk_known(orders: np.ndarray) -> np.ndarray:
    """known[q, r, c]: whether feature c is known in v row block r of pair
    q of ``orders`` (pairs x 2 x M): the first ordering's prefixes 0 to
    M - 1, then the reverse's 1 to M - 1."""
    m = orders.shape[-1]
    known = np.argsort(orders)[..., None, :] < np.arange(m)[:, None]  # [q, o, j, c]
    return np.concatenate([known[:, 0], known[:, 1, 1:]], axis=1)


def _forward_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """w with ``lower[n] @ w[n] = b[n]`` for stacked lower triangular
    factors (n x M x M) and right sides (n x M): forward substitution, one
    position at a time over all n."""
    w = np.empty_like(b)
    for k in range(b.shape[1]):
        w[:, k] = (b[:, k] - np.einsum("nl,nl->n", lower[:, k, :k], w[:, :k])) / lower[:, k, k]
    return w


def _chain_walk(model: GaussianModel, orders: np.ndarray, cond, fill, draws: int, chunk: int):
    """The walk kernel of ``model`` on ``cond``: every prefix of every
    ordering of ``orders`` (pairs x 2 x M) from one factor of the
    covariance in that order (the chain rule; Aas, Jullum & Loland, AI
    2021). All 2 x pairs orderings are factored in one stacked Cholesky;
    if that fails, each one goes through the jitter alone. ``w`` is solved
    for every ordering at once by forward substitution on the factors
    (``_forward_solve``), jittered or not.

    With ``L L^T = Sigma[perm, perm]`` and ``w = L^-1 (cond - mu)[perm]``,
    draw r of prefix j is ``mu + L [w_<j, z_r,>=j]`` in perm order, an
    exact draw given the first j features of perm at ``cond``. In feature
    order that is ``[z_r, 1] @ F_j``, where the factor F_j holds ``gain =
    L^T`` (its columns in feature order) with rows k < j zeroed, then the
    prefix's conditional mean ``base_j = mu + sum_{k<j} w_k gain_k`` as
    its last row, ``fill`` on the known columns. Those columns of gain
    are zeros of L's upper triangle, so they come out as ``fill``'s bytes
    but for a zero's sign, which is written back.

    Returns ``draw(lo, gen, out)`` for up to ``chunk`` pairs: it draws ``z
    = gen.standard_normal((pairs, 2, draws, M))``, whose column c drives
    position c of ordering o for every prefix of it, and writes the v rows
    (the module's layout) in two matmuls of ``[z, 1]`` by the factors, one
    for the first orderings and one for the reverses. ``[z, 1]`` and the
    factors, their conditional means last, are built in buffers reused by
    every chunk: buffers of this size, allocated anew for each chunk, would
    go through the allocator's mmap and trim path.
    """
    pairs, _, m = orders.shape
    perms = orders.reshape(-1, m)
    cov = model.cov[perms[:, :, None], perms[:, None, :]]
    try:
        lower = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        lower = np.array([_jittered_cholesky(a) for a in cov])
    w = _forward_solve(lower, (cond - model.mean)[perms]).reshape(pairs, 2, m, 1)
    gain = np.empty((2 * pairs, m, m))
    gain[np.arange(2 * pairs)[:, None], :, perms] = lower  # gain[n][:, perm] = L^T
    gain = gain.reshape(pairs, 2, m, m)
    rank = np.argsort(perms)  # rank[n, c]: the position of feature c in ordering n
    # known[q, o, j, c]: prefix j of ordering o of pair q knows feature c
    known = (rank[:, None, :] < np.arange(m)[:, None]).reshape(pairs, 2, m, m)
    zeros = np.any(fill == 0)  # the matmul may turn -0.0 into 0.0 on a known column
    drawn = (np.arange(m)[:, None] <= np.arange(m))[..., None]  # [j, k]: prefix j draws position k
    z1 = np.ones((chunk, 2, 1, draws, m + 1))  # [z, 1]
    factors = np.zeros((chunk, 2, m, m + 1, m))  # F_j; rows k < j stay zero

    def draw(lo: int, gen, out: np.ndarray) -> None:
        p = len(out)
        hi = lo + p
        z1[:p, ..., :m] = gen.standard_normal((p, 2, 1, draws, m))
        f = factors[:p]
        np.copyto(f[..., :m, :], gain[lo:hi, :, None], where=drawn)
        # base[q, o, j] = mu + sum_{k<j} w_k gain_k, one running sum over k
        base = f[..., m, :]
        base[:, :, 0] = model.mean
        np.multiply(w[lo:hi, :, :-1], gain[lo:hi, :, :-1], out=base[:, :, 1:])
        np.cumsum(base, axis=2, out=base)
        np.copyto(base, fill, where=known[lo:hi])
        np.matmul(z1[:p, 0], f[:, 0], out=out[:, :m])
        np.matmul(z1[:p, 1], f[:, 1, 1:], out=out[:, m:])
        if zeros:
            np.copyto(out[:, :m], fill, where=known[lo:hi, 0, :, None])
            np.copyto(out[:, m:], fill, where=known[lo:hi, 1, 1:, None])

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

    def _prefix_draws(self, orders: np.ndarray, x: np.ndarray, draws: int, chunk: int):
        return _chain_walk(self.model, orders, x, x, draws, chunk)

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

    def _prefix_draws(self, orders: np.ndarray, x: np.ndarray, draws: int, chunk: int):
        """The Gaussian walk kernel on the latent scores of x, then each
        feature back through its marginal over every prefix that drew it."""
        chain = _chain_walk(self._latent.model, orders, self._to_scores(x), x, draws, chunk)
        drawn = ~_walk_known(orders)  # [q, r, c]: v row block r of pair q draws feature c

        def draw(lo: int, gen, out: np.ndarray) -> None:
            chain(lo, gen, out)
            on = drawn[lo:lo + len(out)]
            for j in range(self.n_features):
                out[on[..., j], :, j] = self._from_scores(j, out[on[..., j], :, j])

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

    def _prefix_draws(self, orders: np.ndarray, x: np.ndarray, draws: int, chunk: int):
        """Per ordering, every prefix from one pass over the support: the
        rows matching x on perm[:j + 1] are the rows matching it on perm[:j]
        whose perm[j] does too. Prefix j draws as ``_draw`` would on its
        mask; the reverse's empty coalition is the first's."""
        support = self.joint.support
        m = len(x)

        def draw(lo: int, gen, out: np.ndarray) -> None:
            for pair, blocks in zip(orders[lo:lo + len(out)], out):
                for o, perm in enumerate(pair):
                    rows, probs = self.joint.restrict(0, x)
                    match = np.arange(len(probs))  # the support rows matching x on perm[:j]
                    for j, mask in enumerate(_prefix_masks(perm).tolist()):
                        if j:
                            match = match[support[match, perm[j - 1]] == x[perm[j - 1]]]
                            rows, probs = self.joint._renormalized(match, mask, x)
                        if o == 0 or j:
                            block = blocks[j + o * (m - 1)]
                            np.take(rows, _picks(probs, draws, gen), 0, block)
                            block[:, perm[:j]] = x[perm[:j]]

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

    def _prefix_draws(self, orders: np.ndarray, x: np.ndarray, draws: int, chunk: int):
        """One block of ``draws`` background rows per ordering; each prefix
        sets its known columns to x on it. Every prefix is still an exact
        draw from the marginal, and prefix j + 1 is prefix j with perm[j]
        set to x, so v[S + i] - t[S, i] is a paired difference."""
        m = len(x)
        known = _walk_known(orders)[:, :, None, :]

        def draw(lo: int, gen, out: np.ndarray) -> None:
            p = len(out)
            rows = self.data.values[gen.integers(0, self.data.n_rows, size=(p, 2, 1, draws))]
            out[:, :m] = rows[:, 0]
            out[:, m:] = rows[:, 1]
            np.copyto(out, x, where=known[lo:lo + p])

        return draw
