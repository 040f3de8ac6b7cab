"""Shapley machinery: value functions, Kernel SHAP, the shared-draw
estimator of the split, exact enumeration oracles, and Shapley residuals.

The split rests on two tables: v[S] = E[f | x_S] and t[S, i] = E[f with
X_i := x_i | x_S]. ``decompose`` estimates both from shared draws: every
coalition's rows, paired with their copies along random orderings, while
2^M is small, and antithetic permutations beyond, within one budget of
model rows; ``exact_decomposition`` fills them exactly. Kernel SHAP and the
exact oracles evaluate each coalition once. The sampled loops re-key one
Philox generator to each work item's substream and draw from the
sampler's per-mask plan (``_draw``), mapping whole row blocks to feature
space at once (``_finish``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    AttributionVector,
    Coalition,
    Decomposition,
    RngStream,
    as_vector,
    enumerate_coalitions,
)
from .distributions import DiscreteJoint, DiscreteSampler, MarginalSampler
from .errors import OracleError, SizeError
from .models import predict_batch

ENUMERATION_LIMIT = 2048  # enumerate all coalitions while 2^M stays below this
DEFAULT_SAMPLED_COALITIONS = 1024
MAX_ENUMERATION_FEATURES = 12
_COALITION_DRAW_KEY = 1 << 40  # reserved substream key, above any mask


class ValueFunction:
    """Monte Carlo estimate of v(S) = "expected output given S known".

    The missing block is drawn from the sampler: a conditional sampler
    gives the conditional game, a MarginalSampler (whole background rows)
    the interventional one. Deterministic given (inputs, seed, stream).
    """

    def __init__(self, model, sampler, k1: int):
        if k1 < 1:
            raise SizeError("draw budget K1 must be >= 1")
        self.model = model
        self.sampler = sampler
        self.k1 = int(k1)

    @property
    def n_features(self) -> int:
        return self.sampler.n_features

    def evaluate(self, x, coalition: Coalition, rng: RngStream) -> float:
        x = as_vector(x)
        if coalition.is_full():
            return float(predict_batch(self.model, x[None, :])[0])
        draws = self.sampler.sample_conditional(coalition, x, self.k1, rng)
        rows = np.tile(x, (self.k1, 1))
        rows[:, np.array(coalition.complement_members, dtype=np.intp)] = draws
        return float(predict_batch(self.model, rows).mean())


def interventional_value_function(model, data, k1: int) -> ValueFunction:
    sampler = data if isinstance(data, MarginalSampler) else MarginalSampler(data)
    return ValueFunction(model, sampler, k1)


class ExactValueFunction:
    """Wraps a closed-form v(S); ignores the stream entirely."""

    def __init__(self, fn, n_features: int):
        self._fn = fn
        self.n_features = n_features

    def evaluate(self, x, coalition: Coalition, rng: RngStream | None = None) -> float:
        del x, rng
        return float(self._fn(coalition))


def exact_discrete_value_function(model, joint: DiscreteJoint, x) -> ExactValueFunction:
    """Exact conditional value function by summation over the joint pmf."""
    x = as_vector(x)

    def v(coalition: Coalition) -> float:
        rows, probs = joint.restrict(coalition, x)
        return float(probs @ predict_batch(model, rows))

    return ExactValueFunction(v, joint.n_features)


def _value_table(vf, x, rng: RngStream, masks) -> dict:
    """v(S) for each distinct mask, in first-seen order. A mask's value
    depends only on its substream, so one evaluation serves every repeat;
    one generator is re-keyed to each mask's substream."""
    m = vf.n_features
    gen = rng.generator()
    table = {}
    for mask in masks:
        if mask not in table:
            rng.substream(mask).rekey(gen)
            table[mask] = vf.evaluate(x, Coalition(mask, m), gen)
    return table


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


def shapley_kernel_weight(n_features: int, size: int) -> float:
    """Kernel SHAP regression weight for a coalition of the given size."""
    m = n_features
    if not 0 < size < m:
        raise SizeError("weight defined only for proper nonempty coalitions")
    return (m - 1) / (math.comb(m, size) * size * (m - size))


def _coalition_masks(m: int, rng: RngStream, n_sampled: int):
    """Interior coalition masks and their regression weights."""
    if (1 << m) <= ENUMERATION_LIMIT:
        masks = [c.mask for c in enumerate_coalitions(m) if 0 < c.mask.bit_count() < m]
        weights = np.array([shapley_kernel_weight(m, mk.bit_count()) for mk in masks])
        return masks, weights
    gen = rng.substream(_COALITION_DRAW_KEY).generator()
    sizes = np.arange(1, m)
    p = (m - 1) / (sizes * (m - sizes))
    p = p / p.sum()
    drawn_sizes = gen.choice(sizes, size=n_sampled, p=p)
    masks = []
    for s in drawn_sizes:
        idx = gen.choice(m, size=int(s), replace=False)
        masks.append(sum(1 << int(i) for i in idx))
    # drawn proportional to the kernel weight, so the regression weight is flat
    return masks, np.ones(len(masks))


def kernel_shap(
    vf,
    x,
    rng: RngStream,
    n_sampled: int = DEFAULT_SAMPLED_COALITIONS,
) -> AttributionVector:
    """Weighted least-squares Shapley estimate with exact anchoring.

    g(empty) = v(empty) and g(full) = v(full) are enforced exactly, so the
    attributions always sum to v(full) - v(empty). Coalitions are fully
    enumerated while 2^M <= 2048, sampled proportional to the kernel
    weight beyond that; each distinct coalition is evaluated once.
    """
    x = as_vector(x)
    m = vf.n_features
    if m < 1:
        raise SizeError("need at least one feature")
    v0, v1 = _value_table(vf, x, rng, (0, (1 << m) - 1)).values()
    delta = v1 - v0
    if m == 1:
        return AttributionVector(v0, np.array([delta]))

    masks, weights = _coalition_masks(m, rng, n_sampled)
    table = _value_table(vf, x, rng, masks)
    vals = np.array([table[mk] for mk in masks])
    z = (np.array(masks)[:, None] >> np.arange(m) & 1).astype(float)

    # eliminate the last feature through the sum constraint
    zr = z[:, :-1] - z[:, -1:]
    yr = (vals - v0) - z[:, -1] * delta
    sw = np.sqrt(weights)
    a = zr * sw[:, None]
    b = yr * sw
    sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    warning = None
    if rank < m - 1:
        gram = a.T @ a + 1e-10 * np.eye(m - 1)
        sol = np.linalg.solve(gram, a.T @ b)
        warning = "singular-regression-ridge-fallback"
    phi = np.append(sol, delta - sol.sum())
    return AttributionVector(v0, phi, warning=warning)


def _expectation_table(model, x, rows_of, uses=None) -> tuple:
    """v[S] = E[f | x_S] over all 2^M coalitions and, for each i outside
    S, the paired means t[S, i] = E[f with X_i := x_i | x_S] and u[S, i] =
    E[f | x_S] over the same rows. ``rows_of(mask)`` gives rows with x_S
    known, their weights (summing to 1) and the missing columns of S. A
    pair takes all of S's rows or, where ``uses`` is given, the mean over
    uses[S, i] picks that cycle through them (none where that is 0).
    One model batch per coalition holds the rows, then their copies
    with X_i := x_i; where S + i is the full set a copy is x itself, so
    t[S, i] = f(x) needs no rows. Returns (v, t, u, model rows)."""
    m = len(x)
    full = (1 << m) - 1
    v = np.empty(full + 1)
    t = np.zeros((full + 1, m))
    u = np.zeros((full + 1, m))
    model_rows = 0
    for mask in range(full + 1):
        rows, weights, cols = rows_of(mask)
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
        pred = predict_batch(model, np.concatenate([rows, *copies]))
        v[mask] = pred[:len(rows)] @ weights
        lo = len(rows)
        for i, w in pairs:
            u[mask, i] = pred[:len(w)] @ w
            if mask | 1 << i != full:
                t[mask, i] = pred[lo:lo + len(w)] @ w
                lo += len(w)
        model_rows += len(pred)
    for i in range(m):
        t[full ^ 1 << i, i] = v[full]
    return v, t, u, model_rows


def _conditional_draws(sampler, x, k1: int, rng: RngStream):
    """``rows_of`` for a sampled table: coalition S draws K1 rows once, from
    substream S (the stream ``kernel_shap`` evaluates S on); the full
    coalition is x itself."""
    full = (1 << len(x)) - 1
    gen = rng.generator()  # one build, re-keyed to each coalition's substream
    weights = np.full(k1, 1.0 / k1)

    def rows_of(mask):
        if mask == full:
            return x[None, :], np.ones(1), np.empty(0, dtype=np.intp)
        rng.substream(mask).rekey(gen)
        cols, draw = sampler._draw(mask, x, k1, gen)
        rows = np.tile(x, (k1, 1))
        rows[:, cols] = draw
        sampler._finish(rows, np.full(k1, mask))
        return rows, weights, cols

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
    efficiency is exact. One model batch per permutation holds the v rows,
    then the t rows; the last prefix's t rows are x itself and are skipped.
    The two permutations of a pair share the empty coalition's rows. Only
    the first feature of a permutation uses them, and no feature is first
    in both, so each feature's estimate keeps its variance. Returns (base,
    phi_int, phi_dep, model rows).
    """
    m = len(x)
    n_v, n_t = draws * m, draws * (m - 1)
    fx = predict_batch(model, x[None, :])[0]
    base = 0.0
    phi_int = np.zeros(m)
    phi_dep = np.zeros(m)
    gen = rng.generator()  # one build, re-keyed to each pair's substream
    for q in range(pairs):
        rng.substream(q).rekey(gen)
        order = gen.permutation(m)
        empty = None  # the pair's rows of the empty coalition and their mean
        for perm in (order, order[::-1]):
            lo = 0 if empty is None else draws  # the rows this permutation draws
            rows = np.tile(x, (n_v + n_t, 1))
            mask, masks = 0, []
            for j, i in enumerate(perm.tolist()):
                if j or empty is None:
                    cols, draw = sampler._draw(mask, x, draws, gen)
                    rows[j * draws:(j + 1) * draws, cols] = draw
                masks.append(mask)
                mask |= 1 << i
            sampler._finish(rows[lo:n_v], np.repeat(masks, draws)[lo:])
            if empty is not None:
                rows[:draws] = empty[0]
            paired = rows[n_v:].reshape(m - 1, draws, m)  # a view: the t rows
            paired[:] = rows[:n_t].reshape(m - 1, draws, m)
            paired[np.arange(m - 1), :, perm[:-1]] = x[perm[:-1], None]
            means = predict_batch(model, rows[lo:]).reshape(-1, draws).mean(axis=1)
            if empty is None:
                empty = (rows[:draws], means[0])
            else:
                means = np.insert(means, 0, empty[1])
            v = np.append(means[:m], fx)
            t = np.append(means[m:], fx)
            phi_int[perm] += t - v[:-1]
            phi_dep[perm] += v[1:] - t
            base += v[0]
    n = 2 * pairs
    return base / n, phi_int / n, phi_dep / n, 1 + pairs * (2 * (n_v + n_t) - draws)


WALK_COALITIONS = 500  # beyond enumeration, the walk's budget is that of a table this size


def _row_budget(m: int, k1: int, k2: int) -> int:
    """Model rows a decomposition may send: one for f(x), K1 for each
    coalition below the full set (all 2^M - 1 while they are enumerated,
    WALK_COALITIONS beyond) and 2 K2 (M - 1) paired rows. The table sends
    this many, less repeats where a coalition gets over K1 picks. Kernel
    SHAP at K1 evaluates at least about 510 distinct coalitions at M >= 12,
    and a one-draw permutation estimate of phi_int at K2 sends 2 M K2
    rows, so the two side by side send more."""
    coalitions = (1 << m) - 1 if (1 << m) <= ENUMERATION_LIMIT else WALK_COALITIONS
    return 1 + k1 * coalitions + 2 * k2 * (m - 1)


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
    as the row budget holds.
    """
    if k1 < 1:
        raise SizeError("draw budget K1 must be >= 1")
    if k2 < 1:
        raise SizeError("permutation budget K2 must be >= 1")
    x = as_vector(x)
    m = sampler.n_features
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
        rows_of = _conditional_draws(sampler, x, k1, root.substream(1))
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
    x = as_vector(x)
    m = joint.n_features
    if m > MAX_ORACLE_FEATURES:
        raise OracleError(f"exact oracle supports M <= {MAX_ORACLE_FEATURES}, got {m}")
    if len(x) != m:
        raise OracleError("sample length does not match the joint")

    def support_rows(mask):
        known = Coalition(mask, m)
        rows, probs = joint.restrict(known, x)
        return rows, probs, np.array(known.complement_members, dtype=np.intp)

    v, t, u, _ = _expectation_table(model, x, support_rows)
    phi, phi_int, phi_dep = _split(v, t, u)
    return Decomposition(
        v[0],
        phi,
        phi_int,
        phi_dep,
        meta={"engine": "exact", "model": model.describe(), "permutations": math.factorial(m)},
    )


def _contributions(vf, x, rng: RngStream | None) -> tuple:
    """v over all 2^M coalitions, and per feature i the masks S without i,
    their Shapley weights and the contributions v(S + i) - v(S)."""
    x = as_vector(x)
    m = vf.n_features
    if m > MAX_ENUMERATION_FEATURES:
        raise SizeError(f"coalition enumeration supports M <= {MAX_ENUMERATION_FEATURES}")
    table = _value_table(vf, x, rng or RngStream(0), range(1 << m))
    v = np.array([table[mask] for mask in range(1 << m)])
    return v, [
        (without, w, v[without | 1 << i] - v[without])
        for i, (without, w) in enumerate(_coalitions_without(m))
    ]


def shapley_from_value_function(vf, x, rng: RngStream | None = None) -> AttributionVector:
    """Shapley values by full coalition enumeration of v (oracle path)."""
    v, per_feature = _contributions(vf, x, rng)
    return AttributionVector(v[0], np.array([w @ c for _, w, c in per_feature]))


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

    def permutation_weighted_average(self, i: int) -> float:
        return float(self.weights[i] @ self.residuals[i])


def shapley_residuals(vf, x, rng: RngStream | None = None) -> ResidualTable:
    """Single-coalition contributions minus the Shapley value, exactly
    enumerated over all coalitions (M <= 12)."""
    _, per_feature = _contributions(vf, x, rng)
    phi = np.array([w @ c for _, w, c in per_feature])
    return ResidualTable(
        len(phi),
        phi,
        tuple(w for _, w, _ in per_feature),
        tuple(c - p for (_, _, c), p in zip(per_feature, phi)),
    )


@dataclass(frozen=True)
class AdditiveComponent:
    """One additive term of a model; ``fn`` maps full rows to outputs but
    may only read the listed feature columns."""

    features: tuple
    fn: object

    def predict(self, rows) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(rows, dtype=float)), dtype=float)


class AdditiveModel:
    """Sum of declared components, usable anywhere a model is."""

    def __init__(self, components, n_features: int):
        self.components = tuple(components)
        self.n_features = n_features

    def predict(self, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        total = np.zeros(len(rows))
        for comp in self.components:
            total += comp.predict(rows)
        return total

    def describe(self) -> str:
        return f"additive({len(self.components)} components)"

    def restricted_to(self, i: int) -> "AdditiveModel":
        keep = tuple(c for c in self.components if i in c.features)
        return AdditiveModel(keep, self.n_features)


def additive_split_check(model: AdditiveModel, joint, x) -> dict:
    """Verify that each feature's interventional part only depends on the
    components containing it (exact oracle on a discrete joint)."""
    if isinstance(joint, DiscreteSampler):
        joint = joint.joint
    if not isinstance(joint, DiscreteJoint):
        raise OracleError("additive split check is an oracle-only feature "
                          "and needs a discrete joint")
    x = as_vector(x)
    full = exact_decomposition(model, joint, x)
    m = model.n_features
    deltas = np.zeros(m)
    for i in range(m):
        restricted = exact_decomposition(model.restricted_to(i), joint, x)
        deltas[i] = full.phi_int[i] - restricted.phi_int[i]
    return {"deltas": deltas, "max_abs_delta": float(np.max(np.abs(deltas)))}
