"""Shapley machinery: value functions, Kernel SHAP, the interventional-part
sampler, exact enumeration oracles, and Shapley residuals.

The sampled pipeline follows a strict split: conditional SHAP values come
from a weighted regression over coalitions, interventional parts from
permutation sampling with one conditional draw per (feature, permutation),
and dependent parts are always the difference of the two. Kernel SHAP and
the exact oracles read a table of coalition values keyed by bitmask, so
each coalition is evaluated once.
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
    depends only on its substream, so one evaluation serves every repeat."""
    m = vf.n_features
    table = {}
    for mask in masks:
        if mask not in table:
            table[mask] = vf.evaluate(x, Coalition(mask, m), rng.substream(mask))
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


def interventional_parts(
    model,
    sampler,
    x,
    k2: int,
    rng: RngStream,
) -> np.ndarray:
    """Permutation-sampling estimate of the interventional SHAP parts.

    For each feature i and each of K2 sampled permutations, a single
    conditional draw of the missing block supplies both sides of the
    paired difference; the explained value overwrites coordinate i in the
    first term only. Substream (i, k) drives permutation and draw k for
    feature i, so the estimate does not depend on evaluation order.
    """
    x = as_vector(x)
    m = sampler.n_features
    if k2 < 1:
        raise SizeError("permutation budget K2 must be >= 1")
    phi_int = np.zeros(m)
    gen = rng.generator()  # one build, re-keyed to substream (i, k) for each draw
    for i in range(m):
        stream_i = rng.substream(i)
        rows0 = np.empty((k2, m))
        rows1 = np.empty((k2, m))
        for k in range(k2):
            stream_i.substream(k).rekey(gen)
            order = gen.permutation(m)
            mask = 0
            for j in order:
                if j == i:
                    break
                mask |= 1 << int(j)
            known = Coalition(mask, m)
            draw = sampler.sample_conditional(known, x, 1, gen)[0]
            row = x.copy()
            row[np.array(known.complement_members, dtype=np.intp)] = draw
            rows0[k] = row
            rows1[k] = row
            rows1[k, i] = x[i]
        diffs = predict_batch(model, rows1) - predict_batch(model, rows0)
        phi_int[i] = diffs.mean()
    return phi_int


def decompose(model, sampler, x, k1: int, k2: int, seed: int) -> Decomposition:
    """Full sampled pipeline: conditional SHAP values via Kernel SHAP,
    interventional parts via permutation sampling, dependent parts by
    subtraction."""
    if k2 < k1:
        warnings.warn(
            f"K2={k2} below K1={k1}; the permutation estimator is less "
            "sample-efficient and usually needs the bigger budget",
            stacklevel=2,
        )
    x = as_vector(x)
    root = RngStream(seed)
    vf = ValueFunction(model, sampler, k1)
    attribution = kernel_shap(vf, x, root.substream(1))
    phi_int = interventional_parts(model, sampler, x, k2, root.substream(2))
    phi = attribution.phi
    meta = {
        "k1": int(k1),
        "k2": int(k2),
        "seed": int(seed),
        "sampler": sampler.describe(),
        "model": model.describe(),
    }
    if attribution.warning:
        meta["warning"] = attribution.warning
    return Decomposition(attribution.base, phi, phi_int, phi - phi_int, meta)


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

    v = np.zeros(1 << m)
    t = np.zeros((1 << m, m))
    for mask in range(1 << m):
        rows, probs = joint.restrict(Coalition(mask, m), x)
        missing = [i for i in range(m) if not mask >> i & 1]
        # one batch: the restricted rows, then a copy per missing i with x_i set
        block = np.tile(rows, (1 + len(missing), 1))
        for k, i in enumerate(missing, start=1):
            block[k * len(rows):(k + 1) * len(rows), i] = x[i]
        expect = predict_batch(model, block).reshape(1 + len(missing), len(rows)) @ probs
        v[mask] = expect[0]
        t[mask, missing] = expect[1:]

    phi_int = np.zeros(m)
    phi_dep = np.zeros(m)
    for i, (without, w) in enumerate(_coalitions_without(m)):
        phi_int[i] = w @ (t[without, i] - v[without])
        phi_dep[i] = w @ (v[without | 1 << i] - t[without, i])
    return Decomposition(
        v[0],
        phi_int + phi_dep,
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
