"""Shapley machinery: the shared-draw estimator of the split, the exact
enumeration oracle, and Shapley residuals.

The split rests on two tables: v[S] = E[f | x_S] and t[S, i] = E[f with
X_i := x_i | x_S]. ``decompose`` estimates both from shared draws: every
coalition's rows, paired with their copies along random orderings, while
2^M is small, and antithetic permutations beyond, within one budget of
model rows; ``exact_decomposition`` fills them exactly. Under a
``MarginalSampler`` the game is the interventional one, so ``decompose``'s
phi is interventional SHAP. Either way the explained row is the unit of
randomness: all its draws come from one generator, keyed by the seed
alone. A coalition's rows come from one ``_draw`` and go to the model as
one batch; a chunk of antithetic pairs' rows, for every prefix of both
orderings of each pair, come from one call of the kernel that
``_prefix_draws`` builds once per explained row and go as one batch. All
are feature-space rows with x on the known columns, as
``DiscreteJoint.restrict`` gives the oracle. Each loop
is a generator of (payload, rows) model batches and a consumer of their
outputs, joined by ``predict_batches``: through an external model the next
batch is drawn while the child works on the last. A plan rewrites rows it
has yielded only after ``predict_batches`` has read them in full.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .core import Decomposition, RngStream, as_vector, missing_columns
from .distributions import DiscreteJoint
from .errors import IngestionError, OracleError, SizeError
from .models import predict_batches

ENUMERATION_LIMIT = 2048  # enumerate all coalitions while 2^M is at most this
# Model rows the walk draws and sends in one chunk of antithetic pairs:
# 2 pairs at M=13 and 50 draws, in a block of about 0.5 MB that every chunk
# of the row reuses. A chunk's Gaussian factor stack holds no more floats:
# at 5 draws a chunk is 14 pairs, not 20. At 50 draws, 8-pair chunks were
# slower than 2-4-pair ones.
_CHUNK_ROWS = 5120


def _coalitions_without(m: int) -> list:
    """Per feature i: the masks S not containing i (ascending) and their
    Shapley weights |S|! (M-1-|S|)! / M!, the share of orderings in which
    exactly S precedes i."""
    fact = math.factorial
    size_weight = np.array([fact(s) * fact(m - 1 - s) / fact(m) for s in range(m)])
    masks = np.arange(1 << m)
    sizes = np.array([mask.bit_count() for mask in range(1 << m)])
    out = []
    for i in range(m):
        without = masks[(masks >> i & 1) == 0]
        out.append((without, size_weight[sizes[without]]))
    return out


def _cycled(c: int, n: int) -> np.ndarray:
    """The weights of c picks that cycle through n rows, on the first
    min(c, n) of them: with q, r = divmod(c, n), q + 1 picks of c on the
    first r rows and q on the rest."""
    q, r = divmod(c, n)
    return np.where(np.arange(min(c, n)) < r, q + 1, q) / c


def _expectation_table(model, x, rows_of, uses=None) -> tuple:
    """v[S] = E[f | x_S] over all 2^M coalitions and, for each i outside
    S, the paired means t[S, i] = E[f with X_i := x_i | x_S] and u[S, i] =
    E[f | x_S] over the same rows. ``rows_of(mask, x)`` gives rows with
    x_S known and their weights (summing to 1). A pair takes all of S's
    rows or, where ``uses`` is given, the mean over uses[S, i] picks that
    cycle through them (none where that is 0).
    One model batch per coalition holds the rows, then their copies
    with X_i := x_i. Where S + i is the full set a copy is x itself, so
    that pair is f(x) - v[S]: t[S, i] = f(x) and u[S, i] = v[S] need no
    rows. Returns (v, t, u, model rows)."""
    m = len(x)
    full = (1 << m) - 1

    def plans():
        for mask in range(full + 1):
            rows, weights = rows_of(mask, x)
            cols = missing_columns(mask, m)
            if len(cols) == 1:
                cols = cols[:0]  # S + i is the full set
            if uses is None:
                pairs = [(i, weights) for i in cols]
            else:
                # c picks cycle through the rows: each row is sent once, weighted by its picks
                pairs = [(i, _cycled(c, len(rows))) for i, c in zip(cols, uses[mask, cols]) if c]
            copies = []
            for i, w in pairs:
                copies.append(rows[:len(w)].copy())
                copies[-1][:, i] = x[i]
            yield (mask, weights, pairs), np.concatenate([rows, *copies])

    v = np.empty(full + 1)
    t = np.zeros((full + 1, m))
    u = np.zeros((full + 1, m))
    model_rows = 0
    for (mask, weights, pairs), pred in predict_batches(model, plans()):
        v[mask] = pred[:len(weights)] @ weights
        lo = len(weights)
        for i, w in pairs:
            u[mask, i] = pred[:len(w)] @ w
            t[mask, i] = pred[lo:lo + len(w)] @ w
            lo += len(w)
        model_rows += len(pred)
    for i in range(m):
        t[full ^ 1 << i, i] = v[full]
        u[full ^ 1 << i, i] = v[full ^ 1 << i]
    return v, t, u, model_rows


def _conditional_draws(sampler, k1: int, gen: np.random.Generator):
    """``rows_of`` for a sampled table: coalition S draws K1 rows once, from
    ``gen``, which the table asks in ascending mask order; the full
    coalition is x itself."""
    weights = np.full(k1, 1.0 / k1)

    def rows_of(mask, x):
        if mask == (1 << len(x)) - 1:
            return x[None, :], np.ones(1)
        return sampler._draw(mask, x, k1, gen), weights

    return rows_of


def _prefix_counts(m: int, orderings: int, gen: np.random.Generator) -> np.ndarray:
    """counts[S, i]: in how many of the random orderings, drawn from
    ``gen``, S is exactly the set of features before i. S then occurs with
    its Shapley weight."""
    keys = gen.random((orderings, m))
    before = keys[:, None, :] < keys[:, :, None]  # [r, i, j]: j precedes i
    masks = (before * (1 << np.arange(m))).sum(axis=2)
    return np.bincount((masks * m + np.arange(m)).ravel(), minlength=m << m).reshape(1 << m, m)


def _split(v: np.ndarray, t: np.ndarray, u: np.ndarray, pair_weight=None) -> tuple:
    """The Shapley value of v and its split. phi_int[i] weighs the paired
    differences t[S, i] - u[S, i] over the coalitions S without i, by
    pair_weight[S, i] or, if that is not given, by the Shapley weights;
    phi_dep is the rest of phi. Returns (phi, phi_int, phi_dep)."""
    m = t.shape[1]
    phi = np.zeros(m)
    phi_int = np.zeros(m)
    for i, (without, w) in enumerate(_coalitions_without(m)):
        phi[i] = w @ (v[without | 1 << i] - v[without])
        pw = w if pair_weight is None else pair_weight[without, i]
        phi_int[i] = pw @ (t[without, i] - u[without, i])
    return phi, phi_int, phi - phi_int


def _permutation_walk(model, sampler, x, draws: int, pairs: int, gen: np.random.Generator) -> tuple:
    """Antithetic permutation estimate of the split (Mitchell et al., JMLR
    2022): each pair is a random permutation and its reverse.

    Along a permutation, prefix S_j draws ``draws`` rows once; they give
    v[S_j] and, with the next feature i set to x_i, t[S_j, i]. Feature i
    gains t[S_j, i] - v[S_j] in phi_int and v[S_j + i] - t[S_j, i] in
    phi_dep, so its phi telescopes to f(x) - v[empty] per permutation and
    efficiency is exact. The Gaussian and the copula condition every prefix
    of an ordering with one factor, and its prefixes share one normal
    vector per draw, so v[S_j + i] - t[S_j, i] is a paired difference.
    The two permutations of a pair share the empty coalition's rows. Only
    the first feature of a permutation uses them, and no feature is first
    in both, so each feature's estimate keeps its variance.

    The row has one generator, ``gen``. It draws every permutation in
    one call, as the stable argsort of pairs x M uniforms, and the sampler
    does the row's work once (the Gaussian factors all 2 x pairs orderings
    in one stacked Cholesky). Then the pairs are walked in chunks of at
    most _CHUNK_ROWS model rows, drawn in pair order into one block reused
    by every chunk. A pair's rows are the t rows of the first ordering's
    first M - 1 prefixes (the last prefix's t rows are x itself), the v
    rows of its M prefixes and of the reverse's prefixes 1 to M - 1 (its
    empty coalition is the first's), then the reverse's t rows. Each
    ordering's t rows, copies of its v rows, sit next to them, so the
    bridge's encoder, which turns each distinct value in a window of rows
    into text once, finds them in one window. x is the first model batch,
    then each chunk is one batch. The prefix means go into one table,
    summed in permutation order at the end.
    Returns (base, phi_int, phi_dep, model rows).
    """
    m = len(x)
    # a pair's row blocks: the first ordering's M - 1 of t rows, both
    # orderings' v rows (the first's M, the reverse's M - 1), the reverse's
    # M - 1 of t rows
    width = 4 * m - 3
    t_lanes = np.r_[:m - 1, 3 * m - 2:width]
    # the sampler's factor stack, 2 x chunk orderings of M x (M + 1), holds
    # no more floats than the block
    chunk = max(1, min(pairs, _CHUNK_ROWS // (draws * width), _CHUNK_ROWS // (2 * m * (m + 1))))
    perm = np.argsort(gen.random((pairs, m)), axis=1, kind="stable")
    orders = np.stack([perm, perm[:, ::-1]], axis=1)
    paired = np.concatenate([orders[:, 0, :-1], orders[:, 1, :-1]], axis=1)  # per t block, its i
    x_paired = x[paired, None]
    t_pair = np.arange(chunk)[:, None]

    def plans():
        """x, then one batch per chunk, a view of one block reused by every
        chunk: predict_batches reads a batch in full before it pulls the
        next."""
        yield None, x[None, :]
        draw = sampler._prefix_draws(orders, x, draws, chunk)
        block = np.empty((chunk, width, draws, m))
        for lo in range(0, pairs, chunk):
            hi = min(lo + chunk, pairs)
            rows = block[:hi - lo]
            v = rows[:, m - 1:3 * m - 2]
            draw(lo, gen, v)
            rows[:, :m - 1] = v[:, :m - 1]
            rows[:, 3 * m - 2] = v[:, 0]
            rows[:, 3 * m - 1:] = v[:, m:2 * m - 2]
            rows[t_pair[:hi - lo], t_lanes, :, paired[lo:hi]] = x_paired[lo:hi]
            yield (lo, hi), rows.reshape(-1, m)

    n = 2 * pairs
    means = np.empty((pairs, width))  # per pair, the mean of each row block
    evaluated = predict_batches(model, plans())
    fx = next(evaluated)[1][0]
    for (lo, hi), pred in evaluated:
        np.add.reduce(pred.reshape(hi - lo, width, draws), axis=2, out=means[lo:hi])
    means /= draws  # the bits of mean
    # per ordering: v of its prefixes and of the full set, then t of its prefixes
    table = np.empty((pairs, 2, 2 * m + 1))
    lanes = np.r_[:m, m + 1:2 * m]  # the table columns of an ordering's row blocks
    # per ordering, the row blocks of a pair that fill its lanes
    blocks = np.array([np.r_[m - 1:2 * m - 1, :m - 1], np.r_[m - 1, 2 * m - 1:width]])
    table[..., lanes] = means[:, blocks]
    table[..., m] = table[..., -1] = fx  # v[full] and t[S_M-1, last]
    table = table.reshape(n, 2 * m + 1)
    v, t = table[:, :m + 1], table[:, m + 1:]
    rank = np.argsort(orders.reshape(n, m))  # each feature's position, to add in feature order
    parts = np.column_stack([
        v[:, 0],
        np.take_along_axis(t - v[:, :-1], rank, 1),
        np.take_along_axis(v[:, 1:] - t, rank, 1),
    ])
    # over axis 0 of a 2-D table the sum runs in row order, from 0.0
    total = np.add.reduce(parts, axis=0, initial=0.0) / n
    return total[0], total[1:m + 1], total[m + 1:], 1 + pairs * draws * width


WALK_COALITIONS = 500  # beyond enumeration, the walk's budget is that of a table this size


def _row_budget(m: int, k1: int, k2: int) -> int:
    """Model rows a decomposition may send: one for f(x), K1 for each
    coalition below the full set (all 2^M - 1 while they are enumerated,
    WALK_COALITIONS beyond) and 2 K2 (M - 1) paired rows. The table sends
    this many, less repeats where a coalition gets over K1 picks. That is
    no more than Kernel SHAP at K1 draws per coalition (at least about 510
    distinct coalitions of 1,024 sampled at M >= 12) and a one-draw
    permutation estimate of phi_int at K2 (2 M K2 rows) send side by
    side."""
    coalitions = (1 << m) - 1 if (1 << m) <= ENUMERATION_LIMIT else WALK_COALITIONS
    return 1 + k1 * coalitions + 2 * k2 * (m - 1)


def _explained_row(model, source, x, kind: str = "sampler") -> tuple:
    """x as a 1-D float vector, and M: x must hold one finite value per
    feature of ``source`` (a sampler or a joint, named by ``kind``), and
    the model must take M features. The fitted distributions hold finite
    parameters, so every row built from x is finite k x M float64."""
    x = as_vector(x)
    m = source.n_features
    if len(x) != m:
        raise IngestionError(f"sample has {len(x)} values, {kind} has {m} features")
    if not np.all(np.isfinite(x)):
        raise IngestionError("sample contains non-finite values")
    if model.n_features != m:
        raise IngestionError(f"model has {model.n_features} features, {kind} has {m}")
    return x, m


def decompose(model, sampler, x, k1: int, k2: int, seed: int) -> Decomposition:
    """Sampled split of the conditional SHAP values, with phi_int and
    phi_dep estimated from shared draws; either way phi = phi_int +
    phi_dep sums to f(x) - base, and the model sees at most
    ``_row_budget(M, K1, K2)`` rows.

    While 2^M <= ENUMERATION_LIMIT (M <= 11; estimator "table") every
    coalition draws K1 rows, and phi is the exact Shapley sum of their
    means, as in enumerated Kernel SHAP. 2 K2 random orderings pick, for
    each feature i, the coalitions S before it; each pick pairs one of S's
    rows with its copy with X_i := x_i, and phi_int averages those paired
    differences. Beyond that (estimator "walk"), antithetic pairs of
    permutations are walked with K1 // 4 draws per prefix, as many pairs
    as the row budget holds; the model sees f(x)'s row, then one batch per
    chunk of pairs (_CHUNK_ROWS rows at most, or one pair where a pair is
    more). Both draw from one generator, on substream 2 of the seed: the
    table its orderings, then each coalition's rows in ascending mask
    order; the walk its permutations, then each chunk's rows.

    Under a MarginalSampler v[S] is the interventional game, so phi is
    interventional SHAP (Lundberg & Lee, NeurIPS 2017) and phi_dep is 0 in
    expectation.
    """
    for name, k in (("draw budget K1", k1), ("permutation budget K2", k2)):
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise SizeError(f"{name} must be an integer, got {k!r}")
        if k < 1:
            raise SizeError(f"{name} must be >= 1")
    x, m = _explained_row(model, sampler, x)
    gen = RngStream(seed).substream(2).generator()  # every draw of the row
    if (1 << m) <= ENUMERATION_LIMIT:
        if k2 < k1:
            warnings.warn(
                f"K2={k2} below K1={k1}; phi_int pairs one draw per feature in each "
                "of 2*K2 random orderings and usually needs the bigger budget",
                stacklevel=2,
            )
        orderings = 2 * k2
        uses = _prefix_counts(m, orderings, gen)
        rows_of = _conditional_draws(sampler, k1, gen)
        v, t, u, model_rows = _expectation_table(model, x, rows_of, uses)
        base = v[0]
        phi, phi_int, phi_dep = _split(v, t, u, uses / orderings)
        work = {"estimator": "table", "draws": int(k1), "permutations": orderings}
    else:
        draws = max(1, k1 // 4)
        pairs = max(1, (_row_budget(m, k1, k2) - 1) // (draws * (4 * m - 3)))
        base, phi_int, phi_dep, model_rows = _permutation_walk(model, sampler, x, draws, pairs, gen)
        phi = phi_int + phi_dep
        work = {"estimator": "walk", "draws": draws, "permutations": 2 * pairs}
    meta = {
        "k1": int(k1),
        "k2": int(k2),
        "seed": int(seed),
        "sampler": sampler.describe(),
        "model": model.describe(),
        **work,
        "model_rows": int(model_rows),
    }
    return Decomposition(base, phi, phi_int, phi_dep, meta)


MAX_ORACLE_FEATURES = 8


def exact_decomposition(model, joint: DiscreteJoint, x) -> Decomposition:
    """Exact split by summation over the joint pmf and all 2^M coalitions.

    For each coalition S the table holds v[S] = E[f(X) | x_S] and, for each
    feature i outside S, t[S, i] = E[f(X) with X_i := x_i | x_S]. The
    interventional part of i is the Shapley-weighted sum of t[S, i] - v[S],
    the dependent part that of v[S + i] - t[S, i]; together they give the
    conditional Shapley value to machine precision.
    """
    if joint.n_features > MAX_ORACLE_FEATURES:
        raise OracleError(
            f"exact oracle supports M <= {MAX_ORACLE_FEATURES}, got {joint.n_features}"
        )
    x, m = _explained_row(model, joint, x, "joint")
    v, t, u, _ = _expectation_table(model, x, joint.restrict)
    phi, phi_int, phi_dep = _split(v, t, u)
    return Decomposition(
        v[0],
        phi,
        phi_int,
        phi_dep,
        meta={"engine": "exact", "model": model.describe(), "coalitions": 1 << m},
    )


def shapley_residuals(v) -> list:
    """Single-coalition contributions v(S + i) - v(S) minus the Shapley
    value (Kumar et al., NeurIPS 2021), for a game given as its table of
    2^M values indexed by coalition mask. Returns M vectors: vector i holds
    the residuals r_{i,S} over the coalitions S without i, in ascending
    mask order. At M=2 it is [S=empty, S={other}], so its Euclidean norm
    carries a sqrt(2) factor."""
    v = np.asarray(v, dtype=float)
    m = v.size.bit_length() - 1
    if v.ndim != 1 or m < 1 or v.size != 1 << m:
        raise SizeError(f"a game table needs 2^M values with M >= 1, got shape {v.shape}")
    residuals = []
    for i, (without, w) in enumerate(_coalitions_without(m)):
        contributions = v[without | 1 << i] - v[without]
        residuals.append(contributions - w @ contributions)
    return residuals
