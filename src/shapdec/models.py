"""Black-box predictors: batch row-to-output functions.

In-repo models are a linear regressor, a CART random forest (regression
or binary probability), and an exact lookup table. Anything else plugs in
through a line-delimited JSON bridge over a child process's stdin/stdout.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass, field

import numpy as np

from .core import FeatureMatrix, RngStream
from .errors import BridgeError, IngestionError, ModelOutputError, SizeError

LOG_ODDS_EPS = 1e-6


def _check_rows(rows, n_features: int | None = None) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.ndim != 2:
        raise IngestionError(f"prediction input must be 2-D, got shape {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise IngestionError("prediction input contains non-finite values")
    if n_features is not None and rows.shape[1] != n_features:
        raise IngestionError(f"expected {n_features} columns, got {rows.shape[1]}")
    return rows


@dataclass(frozen=True)
class LinearModel:
    coefficients: np.ndarray
    intercept: float = 0.0

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float)
        if not (np.all(np.isfinite(coef)) and np.isfinite(self.intercept)):
            raise IngestionError("linear model parameters must be finite")
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)

    @property
    def n_features(self) -> int:
        return len(self.coefficients)

    def predict(self, rows) -> np.ndarray:
        rows = _check_rows(rows, self.n_features)
        return rows @ self.coefficients + self.intercept

    def describe(self) -> str:
        return f"linear(M={self.n_features})"

    def to_json_dict(self) -> dict:
        return {
            "kind": "linear",
            "coefficients": self.coefficients.tolist(),
            "intercept": float(self.intercept),
        }


class _FlatTree:
    """One regression tree flattened to parallel node arrays.

    ``feature[k] == -1`` marks node k as a leaf with output ``value[k]``.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.value = np.asarray(value, dtype=float)

    def to_json_dict(self) -> dict:
        def build(k: int):
            if self.feature[k] < 0:
                return {"value": float(self.value[k])}
            return {
                "split": int(self.feature[k]),
                "threshold": float(self.threshold[k]),
                "left": build(int(self.left[k])),
                "right": build(int(self.right[k])),
            }

        return build(0)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "_FlatTree":
        feature, threshold, left, right, value = [], [], [], [], []

        def add(node: dict) -> int:
            k = len(feature)
            feature.append(-1)
            threshold.append(0.0)
            left.append(0)
            right.append(0)
            value.append(0.0)
            if "value" in node:
                value[k] = float(node["value"])
            else:
                feature[k] = int(node["split"])
                threshold[k] = float(node["threshold"])
                left[k] = add(node["left"])
                right[k] = add(node["right"])
            return k

        add(doc)
        return cls(feature, threshold, left, right, value)


# Tree x row cells per walk block: a float64 temporary of one step is 64 kB.
# Blocks four times as large were no faster on the fire benchmark and raised
# its peak RSS by about 1 MB.
_WALK_CELLS = 1 << 13


class _StackedWalk:
    """Every tree of a forest in one int32-indexed node array.

    Tree t's root is node ``roots[t]``; ``kids[2k]`` is node k's right
    child and ``kids[2k + 1]`` its left one, so a step moves to
    ``kids[2k + (x <= threshold)]``. A leaf's children are the leaf itself,
    so after ``depth`` steps (the deepest leaf's depth) every tree and row
    has reached its leaf.
    """

    def __init__(self, trees, n_features: int):
        offsets = np.cumsum([0] + [len(t.feature) for t in trees[:-1]])
        feature = np.concatenate([t.feature for t in trees]).astype(np.int32)
        if np.any(feature >= n_features):
            raise IngestionError(f"a tree splits on a feature beyond M={n_features}")
        leaf = feature < 0
        kids = np.empty((len(feature), 2), dtype=np.int32)
        kids[:, 0] = np.concatenate([t.right + o for t, o in zip(trees, offsets)])
        kids[:, 1] = np.concatenate([t.left + o for t, o in zip(trees, offsets)])
        kids[leaf] = np.nonzero(leaf)[0][:, None]
        feature[leaf] = 0
        self.roots = offsets.astype(np.int32)
        self.feature = feature
        self.threshold = np.concatenate([t.threshold for t in trees])
        self.value = np.concatenate([t.value for t in trees])
        self.kids = kids.ravel()
        self.depth = 0
        frontier = self.roots
        while True:
            frontier = frontier[~leaf[frontier]]
            if len(frontier) == 0:
                break
            frontier = kids[frontier].ravel()
            self.depth += 1

    def leaf_sum(self, rows: np.ndarray) -> np.ndarray:
        """Per row, the sum of its leaf values added tree by tree in tree
        order, the same bits as a running total over per-tree walks."""
        b, m = rows.shape
        flat = rows.ravel()
        starts = np.arange(0, b * m, m)
        idx = np.repeat(self.roots[:, None], b, axis=1)
        for _ in range(self.depth):
            go_left = flat.take(self.feature.take(idx) + starts) <= self.threshold.take(idx)
            idx = self.kids.take(2 * idx + go_left)
        running = np.zeros((len(self.roots) + 1, b))
        self.value.take(idx, out=running[1:])
        return np.add.accumulate(running, axis=0, out=running)[-1]


@dataclass(frozen=True)
class ForestModel:
    """Bagged CART trees; regression averages leaf values, binary
    probability averages leaf class-1 proportions."""

    trees: tuple
    task: str
    n_features: int

    def __post_init__(self):
        if self.task not in ("regression", "binary-probability"):
            raise IngestionError(f"unknown forest task {self.task!r}")
        if not self.trees:
            raise IngestionError("a forest needs at least one tree")
        object.__setattr__(self, "_walk", _StackedWalk(self.trees, self.n_features))

    def predict(self, rows) -> np.ndarray:
        rows = _check_rows(rows, self.n_features)
        block = max(1, _WALK_CELLS // len(self.trees))
        total = np.empty(len(rows))
        for start in range(0, len(rows), block):
            total[start:start + block] = self._walk.leaf_sum(rows[start:start + block])
        return total / len(self.trees)

    def describe(self) -> str:
        return f"forest({self.task},trees={len(self.trees)})"

    def to_json_dict(self) -> dict:
        return {
            "kind": "forest",
            "task": self.task,
            "n_features": self.n_features,
            "trees": [t.to_json_dict() for t in self.trees],
        }


@dataclass(frozen=True)
class TabulatedModel:
    """Exact mapping from input vectors to outputs (oracle/toy models)."""

    support: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float)
        outputs = np.asarray(self.outputs, dtype=float)
        if support.ndim != 2 or len(support) != len(outputs):
            raise IngestionError("support and outputs must have matching length")
        support.setflags(write=False)
        outputs.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "outputs", outputs)
        table = {tuple(row): float(y) for row, y in zip(support, outputs)}
        object.__setattr__(self, "_table", table)

    @property
    def n_features(self) -> int:
        return self.support.shape[1]

    def predict(self, rows) -> np.ndarray:
        rows = _check_rows(rows, self.n_features)
        try:
            return np.array([self._table[tuple(r)] for r in rows])
        except KeyError as err:
            raise IngestionError(f"input {err.args[0]} outside tabulated support") from None

    def describe(self) -> str:
        return f"tabulated(support={len(self.outputs)})"

    def to_json_dict(self) -> dict:
        return {
            "kind": "tabulated",
            "support": self.support.tolist(),
            "outputs": self.outputs.tolist(),
        }


class ExternalModel:
    """Bridge to a child process speaking line-delimited JSON.

    Handshake: {"op":"hello","version":1,"n_features":M} -> {"ok":true}.
    Prediction: {"op":"predict","inputs":[[...],...]} -> {"outputs":[...]}.
    Requests are serialized per process instance; a reply carrying
    {"error": ...} (or a dead process) raises BridgeError with captured
    diagnostics.
    """

    PROTOCOL_VERSION = 1

    def __init__(self, cmd: list, n_features: int):
        self.cmd = list(cmd)
        self.n_features = int(n_features)
        self._proc = None

    def describe(self) -> str:
        return f"external({' '.join(self.cmd)})"

    def _ensure_started(self):
        if self._proc is not None and self._proc.poll() is None:
            return
        try:
            self._proc = subprocess.Popen(
                self.cmd,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        except OSError as err:
            raise BridgeError(f"failed to launch {self.cmd}: {err}") from err
        reply = self._roundtrip(
            {"op": "hello", "version": self.PROTOCOL_VERSION, "n_features": self.n_features}
        )
        if reply.get("ok") is not True:
            # _stderr() also stops and reaps the child
            raise BridgeError(f"handshake rejected: {reply}; stderr: {self._stderr()}")

    def _roundtrip(self, request: dict) -> dict:
        proc = self._proc
        try:
            proc.stdin.write(json.dumps(request) + "\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
        except (BrokenPipeError, OSError) as err:
            raise BridgeError(f"bridge I/O failed: {err}; stderr: {self._stderr()}") from err
        if not line:
            raise BridgeError(f"bridge closed its output; stderr: {self._stderr()}")
        try:
            reply = json.loads(line)
        except json.JSONDecodeError as err:
            raise BridgeError(f"malformed bridge reply {line!r}: {err}") from err
        if "error" in reply:
            raise BridgeError(f"bridge reported: {reply['error']}")
        return reply

    def _stderr(self) -> str:
        if self._proc is None:
            return ""
        self._proc.kill()
        _, err = self._proc.communicate()
        self._proc = None
        return (err or "").strip()

    def predict(self, rows) -> np.ndarray:
        rows = _check_rows(rows, self.n_features)
        self._ensure_started()
        reply = self._roundtrip({"op": "predict", "inputs": rows.tolist()})
        outputs = np.asarray(reply.get("outputs", []), dtype=float)
        if outputs.shape != (len(rows),):
            raise BridgeError(f"expected {len(rows)} outputs, got shape {outputs.shape}")
        return outputs

    def close(self):
        """End the child's input and give it 5 s to finish its work and
        exit; terminate it only if it is still running after that."""
        if self._proc is None:
            return
        proc, self._proc = self._proc, None
        try:
            proc.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            proc.terminate()
            proc.communicate(timeout=5)

    def to_json_dict(self) -> dict:
        return {"kind": "external", "cmd": self.cmd, "n_features": self.n_features}


class CallableModel:
    """Adapts a plain rows->outputs function to the model interface."""

    def __init__(self, fn, n_features: int, name: str = "callable"):
        self.fn = fn
        self.n_features = int(n_features)
        self.name = name

    def predict(self, rows) -> np.ndarray:
        rows = _check_rows(rows, self.n_features)
        return np.asarray(self.fn(rows), dtype=float)

    def describe(self) -> str:
        return self.name


class LogOddsModel:
    """Wraps a binary-probability model so predictions are log odds."""

    def __init__(self, model):
        self.model = model
        self.n_features = model.n_features

    def predict(self, rows) -> np.ndarray:
        return log_odds(self.model, rows)

    def describe(self) -> str:
        return f"log_odds({self.model.describe()})"


def predict_batch(model, rows) -> np.ndarray:
    """Evaluate the model on a k x M batch; deterministic, pure. The one
    check of model outputs: they must be k finite values."""
    rows = _check_rows(rows, getattr(model, "n_features", None))
    outputs = np.asarray(model.predict(rows), dtype=float)
    if outputs.shape != (len(rows),):
        raise ModelOutputError(f"model returned shape {outputs.shape} for {len(rows)} rows")
    if not np.all(np.isfinite(outputs)):
        raise ModelOutputError("model returned non-finite outputs")
    return outputs


def log_odds(model, rows) -> np.ndarray:
    """ln(p / (1-p)) with p clamped into [eps, 1-eps], eps = 1e-6."""
    p = np.clip(predict_batch(model, rows), LOG_ODDS_EPS, 1.0 - LOG_ODDS_EPS)
    return np.log(p / (1.0 - p))


def fit_ols(data: FeatureMatrix, target) -> LinearModel:
    """Least squares via lstsq, with a tiny ridge fallback if rank-deficient."""
    y = np.asarray(target, dtype=float)
    x = data.values
    n, m = x.shape
    if n <= m:
        raise SizeError(f"need more rows than features for OLS, got n={n}, M={m}")
    design = np.column_stack([np.ones(n), x])
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < m + 1:
        gram = design.T @ design + 1e-8 * np.eye(m + 1)
        beta = np.linalg.solve(gram, design.T @ y)
    return LinearModel(beta[1:], float(beta[0]))


_FOREST_DEFAULTS = {
    "trees": 200,
    "max_depth": 8,
    "min_leaf": 5,
    "features_per_split": None,  # ceil(sqrt(M)) when None
    "bootstrap": True,
}


def _best_split(x, y, feat_candidates, min_leaf):
    """Best (feature, threshold) by impurity reduction, or None."""
    best = None
    best_score = -np.inf
    n = len(y)
    sum_all = y.sum()
    for j in feat_candidates:
        order = np.argsort(x[:, j], kind="stable")
        xs = x[order, j]
        ys = y[order]
        csum = np.cumsum(ys)
        # candidate split after position k keeps k+1 rows on the left
        ks = np.arange(min_leaf - 1, n - min_leaf)
        if len(ks) == 0:
            continue
        valid = xs[ks] < xs[ks + 1]
        ks = ks[valid]
        if len(ks) == 0:
            continue
        nl = ks + 1.0
        nr = n - nl
        sl = csum[ks]
        sr = sum_all - sl
        # variance reduction == Gini gain up to scale for 0/1 targets
        score = sl * sl / nl + sr * sr / nr
        k_best = np.argmax(score)
        if score[k_best] > best_score + 1e-15:
            best_score = score[k_best]
            k = ks[k_best]
            best = (j, 0.5 * (xs[k] + xs[k + 1]))
    return best


def _grow_tree(x, y, params, gen):
    feature, threshold, left, right, value = [], [], [], [], []
    m = x.shape[1]
    fps = params["features_per_split"] or int(np.ceil(np.sqrt(m)))

    def leaf_value(ys):
        return float(ys.mean())

    def build(idx, depth) -> int:
        k = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(0)
        right.append(0)
        value.append(0.0)
        ys = y[idx]
        if (
            depth >= params["max_depth"]
            or len(idx) < 2 * params["min_leaf"]
            or np.all(ys == ys[0])
        ):
            value[k] = leaf_value(ys)
            return k
        cand = gen.choice(m, size=min(fps, m), replace=False)
        split = _best_split(x[idx], ys, sorted(cand), params["min_leaf"])
        if split is None:
            value[k] = leaf_value(ys)
            return k
        j, thr = split
        go_left = x[idx, j] <= thr
        feature[k] = j
        threshold[k] = thr
        left[k] = build(idx[go_left], depth + 1)
        right[k] = build(idx[~go_left], depth + 1)
        return k

    build(np.arange(len(y)), 0)
    return _FlatTree(feature, threshold, left, right, value)


def fit_forest(
    data: FeatureMatrix,
    target,
    params: dict | None = None,
    rng: RngStream = RngStream(0),
    task: str = "regression",
) -> ForestModel:
    """Bagged CART forest, deterministic given the stream.

    Regression splits maximize variance reduction; for 0/1 targets the
    same criterion equals the Gini gain, and leaves hold class-1
    proportions.
    """
    p = dict(_FOREST_DEFAULTS)
    p.update(params or {})
    y = np.asarray(target, dtype=float)
    x = data.values
    if task == "binary-probability" and not np.all(np.isin(y, (0.0, 1.0))):
        raise IngestionError("binary-probability forest needs a 0/1 target")
    if len(y) < 2 * p["min_leaf"]:
        raise SizeError(f"need at least {2 * p['min_leaf']} rows, got {len(y)}")
    trees = []
    for t in range(p["trees"]):
        gen = rng.substream(t).generator()
        if p["bootstrap"]:
            idx = gen.integers(0, len(y), size=len(y))
        else:
            idx = np.arange(len(y))
        trees.append(_grow_tree(x[idx], y[idx], p, gen))
    return ForestModel(tuple(trees), task, data.n_features)


def model_from_json(doc: dict):
    """Rebuild a model from its JSON document."""
    kind = doc.get("kind")
    if kind == "linear":
        return LinearModel(np.array(doc["coefficients"]), float(doc["intercept"]))
    if kind == "forest":
        trees = tuple(_FlatTree.from_json_dict(t) for t in doc["trees"])
        return ForestModel(trees, doc["task"], int(doc["n_features"]))
    if kind == "tabulated":
        return TabulatedModel(np.array(doc["support"]), np.array(doc["outputs"]))
    if kind == "external":
        return ExternalModel(doc["cmd"], int(doc["n_features"]))
    raise IngestionError(f"unknown model kind {kind!r}")


def toy_risk_model() -> TabulatedModel:
    """Two binary features; the output copies the first feature."""
    support = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    return TabulatedModel(support, support[:, 0])
