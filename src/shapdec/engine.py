"""Shapley machinery: the shared-draw estimator of the split, the exact
enumeration oracle, and Shapley residuals.

The split rests on two tables: v[S] = E[f | x_S] and t[S, i] = E[f with
X_i := x_i | x_S]. ``decompose`` estimates both from shared draws: every
coalition's rows, paired with their copies along random orderings, while
2^M is small, and antithetic permutations beyond, within one budget of
model rows; ``exact_decomposition`` fills them exactly. Under a
``MarginalSampler`` the game is the interventional one, so ``decompose``'s
phi is interventional SHAP. The sampled loops re-key one Philox
generator to each work item's substream. A coalition's rows come from
one ``_draw`` and go to the model as one batch; an antithetic pair's, for
every prefix of both its orderings, come from one call of the kernel that
``_prefix_draws`` builds once per explained row and go as one batch, the
reverse ordering's rows first. All are feature-space rows with x on the
known columns, as ``DiscreteJoint.restrict`` gives the oracle. Each loop
is a generator of (payload, rows) model batches and a consumer of their
outputs, joined by ``predict_batches``: through an external model the next
batch is drawn while the child works on the last. A plan rewrites rows it
has yielded only after ``predict_batches`` has read them in full.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Decomposition, RngStream, as_vector, missing_columns
from .distributions import DiscreteJoint
from .errors import IngestionError, OracleError, SizeError
from .models import predict_batches

ENUMERATION_LIMIT = 2048  # enumerate all coalitions while 2^M stays below this


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


def _expectation_table(model, x, rows_of, uses=None) -> tuple:
    """v[S] = E[f | x_S] over all 2^M coalitions and, for each i outside
    S, the paired means t[S, i] = E[f with X_i := x_i | x_S] and u[S, i] =
    E[f | x_S] over the same rows. ``rows_of(mask, x)`` gives rows with
    x_S known and their weights (summing to 1). A pair takes all of S's
    rows or, where ``uses`` is given, the mean over uses[S, i] picks that
    cycle through them (none where that is 0).
    One model batch per coalition holds the rows, then their copies
    with X_i := x_i; where S + i is the full set a copy is x itself, so
    t[S, i] = f(x) needs no rows. Returns (v, t, u, model rows)."""
    m = len(x)
    full = (1 << m) - 1

    def plans():
        for mask in range(full + 1):
            rows, weights = rows_of(mask, x)
            cols = missing_columns(mask, m)
            if uses is None:
                pairs = [(i, weights) for i in cols]
            else:
                # c picks cycle through the rows: each row is sent once, weighted by its picks
                pairs = [(i, np.bincount(np.arange(c) % len(rows)) / c)
                         for i, c in zip(cols, uses[mask, cols]) if c]
            copies = []
            for i, w in pairs:
                if mask | 1 << i != full:
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
            if mask | 1 << i != full:
                t[mask, i] = pred[lo:lo + len(w)] @ w
                lo += len(w)
        model_rows += len(pred)
    for i in range(m):
        t[full ^ 1 << i, i] = v[full]
    return v, t, u, model_rows


def _conditional_draws(sampler, k1: int, rng: RngStream):
    """``rows_of`` for a sampled table: coalition S draws K1 rows once, from
    substream S of ``rng``; the full coalition is x itself."""
    gen = rng.generator()  # one build, re-keyed to each coalition's substream
    weights = np.full(k1, 1.0 / k1)

    def rows_of(mask, x):
        if mask == (1 << len(x)) - 1:
            return x[None, :], np.ones(1)
        rng.substream(mask).rekey(gen)
        return sampler._draw(mask, x, k1, gen), weights

    return rows_of


def _prefix_counts(m: int, orderings: int, rng: RngStream) -> np.ndarray:
    """counts[S, i]: in how many of the random orderings S is exactly the
    set of features before i. S then occurs with its Shapley weight."""
    keys = rng.generator().random((orderings, m))
    before = keys[:, None, :] < keys[:, :, None]  # [r, i, j]: j precedes i
    masks = (before * (1 << np.arange(m))).sum(axis=2)
    counts = np.zeros((1 << m, m), dtype=np.intp)
    np.add.at(counts, (masks, np.arange(m)), 1)
    return counts


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


def _permutation_walk(model, sampler, x, draws: int, pairs: int, rng: RngStream) -> tuple:
    """Antithetic permutation estimate of the split (Mitchell et al., JMLR
    2022): each pair is a permutation from substream q and its reverse.

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

    The row is walked in two passes. The first re-keys the generator to
    each pair's substream q, draws its permutation, saves the generator
    state just past it, and lets the sampler do the row's work once (the
    Gaussian factors all 2 x pairs orderings in one stacked Cholesky). The
    second restores pair q's state and draws both orderings into one
    block, the reverse first: per ordering the v rows of its M prefixes,
    then the t rows of the first M - 1 (the last prefix's t rows are x
    itself). x is the first model batch, then each pair's rows are one
    batch, a view of the block that starts after the reverse's empty
    coalition rows, which it shares with the first. The prefix means go
    into one table, summed in permutation order at the end.
    Returns (base, phi_int, phi_dep, model rows).
    """
    m = len(x)
    n_v, n_t = draws * m, draws * (m - 1)

    def plans():
        """x, then one batch per pair. One block, reused by every pair,
        holds both orderings' rows: predict_batches reads a batch in full
        before it pulls the next."""
        yield None, x[None, :]
        gen = rng.generator()  # one build, re-keyed to each pair's substream
        orders, states = [], []  # per pair: its orderings, and gen just past them
        for q in range(pairs):
            rng.substream(q).rekey(gen)
            order = gen.permutation(m)
            orders.append((order, order[::-1]))
            states.append(gen.bit_generator.state)
        orders = np.array(orders)
        draw_pair = sampler._prefix_draws(orders, x, draws)
        block = np.empty((2, 2 * m - 1, draws, m))  # the reverse's rows, then the first's
        v_rows, t_rows = block[::-1, :m], block[::-1, m:]  # [o]: ordering o of the pair
        batch = block.reshape(-1, m)[draws:]  # all but the reverse's empty coalition
        ordering = np.arange(2)[:, None]
        for q, pair in enumerate(orders):
            gen.bit_generator.state = states[q]
            draw_pair(q, gen, v_rows)
            v_rows[1, 0] = v_rows[0, 0]
            for o in range(2):  # one ordering's t and v rows share no bytes: no temporary
                t_rows[o] = v_rows[o, :-1]
            t_rows[ordering, np.arange(m - 1), :, pair[:, :-1]] = x[pair[:, :-1], None]
            yield pair, batch

    n = 2 * pairs
    # per ordering: v of its prefixes and of the full set, then t of its prefixes
    table = np.empty((n, 2 * m + 1))
    perms = np.empty((n, m), dtype=np.intp)
    lanes = np.r_[:m, m + 1:2 * m]  # the table columns of an ordering's block rows
    evaluated = predict_batches(model, plans())
    table[:, m] = table[:, -1] = next(evaluated)[1][0]  # f(x): v[full] and t[S_M-1, last]
    for q, (pair, pred) in enumerate(evaluated):
        perms[2 * q:2 * q + 2] = pair
        means = np.add.reduce(pred.reshape(-1, draws), axis=1) / draws  # the bits of mean
        table[2 * q + 1, lanes[1:]] = means[:2 * m - 2]  # the reverse's v[empty] is filled below
        table[2 * q, lanes] = means[2 * m - 2:]
    table[1::2, 0] = table[::2, 0]
    v, t = table[:, :m + 1], table[:, m + 1:]
    rank = np.argsort(perms)  # each feature's position, to add in feature order
    parts = np.column_stack([
        v[:, 0],
        np.take_along_axis(t - v[:, :-1], rank, 1),
        np.take_along_axis(v[:, 1:] - t, rank, 1),
    ])
    # over axis 0 of a 2-D table the sum runs in row order, from 0.0
    total = np.add.reduce(parts, axis=0, initial=0.0) / n
    return total[0], total[1:m + 1], total[m + 1:], 1 + pairs * (2 * (n_v + n_t) - draws)


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
    pair.

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
    root = RngStream(seed)
    if (1 << m) <= ENUMERATION_LIMIT:
        if k2 < k1:
            warnings.warn(
                f"K2={k2} below K1={k1}; phi_int pairs one draw per feature in each "
                "of 2*K2 random orderings and usually needs the bigger budget",
                stacklevel=2,
            )
        orderings = 2 * k2
        uses = _prefix_counts(m, orderings, root.substream(2))
        rows_of = _conditional_draws(sampler, k1, root.substream(1))
        v, t, u, model_rows = _expectation_table(model, x, rows_of, uses)
        base = v[0]
        phi, phi_int, phi_dep = _split(v, t, u, uses / orderings)
        work = {"estimator": "table", "draws": int(k1), "permutations": orderings}
    else:
        draws = max(1, k1 // 4)
        pairs = max(1, (_row_budget(m, k1, k2) - 1) // (draws * (4 * m - 3)))
        base, phi_int, phi_dep, model_rows = _permutation_walk(
            model, sampler, x, draws, pairs, root.substream(2)
        )
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


@dataclass(frozen=True)
class ResidualTable:
    """Shapley residuals r_{i,S} = phi_{i,S} - phi_i for every coalition
    S not containing i: per feature, the Shapley weights of those
    coalitions (ascending mask) and the residuals in the same order."""

    n_features: int
    phi: np.ndarray
    weights: tuple
    residuals: tuple

    def norm(self, i: int) -> float:
        """Euclidean norm over the coalition-indexed residual vector.

        At M=2 the vector is [S=empty, S={other}], which carries the
        sqrt(2) factor.
        """
        return float(np.sqrt(self.residuals[i] @ self.residuals[i]))


def shapley_residuals(v) -> ResidualTable:
    """Single-coalition contributions v(S + i) - v(S) minus the Shapley
    value (Kumar et al., NeurIPS 2021), for a game given as its table of
    2^M values indexed by coalition mask."""
    v = np.asarray(v, dtype=float)
    m = v.size.bit_length() - 1
    if v.ndim != 1 or m < 1 or v.size != 1 << m:
        raise SizeError(f"a game table needs 2^M values with M >= 1, got shape {v.shape}")
    phi = np.zeros(m)
    weights, residuals = [], []
    for i, (without, w) in enumerate(_coalitions_without(m)):
        contributions = v[without | 1 << i] - v[without]
        phi[i] = w @ contributions
        weights.append(w)
        residuals.append(contributions - phi[i])
    return ResidualTable(m, phi, tuple(weights), tuple(residuals))
