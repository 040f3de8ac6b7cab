import json
import os
import sys

import numpy as np
import pytest

from shapdec.core import FeatureMatrix, RngStream
from shapdec.distributions import GaussianModel, GaussianSampler
from shapdec.engine import decompose
from shapdec.errors import BridgeError, IngestionError, ModelOutputError, SizeError
from shapdec.models import (
    _WALK_CELLS,
    CallableModel,
    ExternalModel,
    ForestModel,
    LinearModel,
    LogOddsModel,
    TabulatedModel,
    fit_forest,
    fit_ols,
    log_odds,
    model_from_json,
    predict_batch,
    toy_risk_model,
)


def test_linear_model_predict():
    model = LinearModel(np.array([2.0, -1.0]), 3.0)
    out = model.predict([[1.0, 1.0], [0.0, 4.0]])
    assert np.allclose(out, [4.0, -1.0])
    assert model.n_features == 2


def test_linear_model_json_roundtrip():
    model = LinearModel(np.array([0.5, 0.25]), -1.0)
    clone = model_from_json(model.to_json_dict())
    rows = np.random.default_rng(0).normal(size=(10, 2))
    assert np.allclose(model.predict(rows), clone.predict(rows))


def test_fit_ols_recovers_coefficients():
    gen = RngStream(1).generator()
    x = gen.normal(size=(500, 3))
    y = x @ np.array([1.5, -2.0, 0.3]) + 4.0 + gen.normal(0, 0.01, 500)
    data = FeatureMatrix(("a", "b", "c"), x)
    model = fit_ols(data, y)
    assert np.allclose(model.coefficients, [1.5, -2.0, 0.3], atol=0.01)
    assert abs(model.intercept - 4.0) < 0.01


def test_fit_ols_needs_more_rows_than_features():
    data = FeatureMatrix(("a", "b"), np.eye(2))
    with pytest.raises(SizeError):
        fit_ols(data, np.zeros(2))


def test_forest_fits_a_step_function():
    gen = RngStream(2).generator()
    x = gen.uniform(-1, 1, size=(400, 2))
    y = np.where(x[:, 0] > 0.0, 2.0, -2.0)
    data = FeatureMatrix(("a", "b"), x)
    model = fit_forest(data, y, {"trees": 50, "max_depth": 4}, RngStream(0, 7))
    pred = model.predict([[0.5, 0.0], [-0.5, 0.0]])
    assert pred[0] > 1.0 and pred[1] < -1.0


def test_forest_is_deterministic_in_the_seed():
    gen = RngStream(3).generator()
    x = gen.normal(size=(200, 3))
    y = x[:, 0] - x[:, 2]
    data = FeatureMatrix(("a", "b", "c"), x)
    m1 = fit_forest(data, y, {"trees": 20}, RngStream(9, 1))
    m2 = fit_forest(data, y, {"trees": 20}, RngStream(9, 1))
    grid = gen.normal(size=(50, 3))
    assert np.array_equal(m1.predict(grid), m2.predict(grid))


def test_forest_json_roundtrip():
    gen = RngStream(4).generator()
    x = gen.normal(size=(150, 2))
    y = (x[:, 0] + x[:, 1] > 0).astype(float)
    data = FeatureMatrix(("a", "b"), x)
    model = fit_forest(
        data, y, {"trees": 10, "max_depth": 3}, RngStream(0, 2), task="binary-probability"
    )
    clone = model_from_json(json.loads(json.dumps(model.to_json_dict())))
    grid = gen.normal(size=(40, 2))
    assert np.allclose(model.predict(grid), clone.predict(grid))


def test_binary_forest_outputs_probabilities():
    gen = RngStream(5).generator()
    x = gen.normal(size=(300, 2))
    y = (x[:, 0] > 0).astype(float)
    data = FeatureMatrix(("a", "b"), x)
    model = fit_forest(data, y, {"trees": 30}, RngStream(1, 1), task="binary-probability")
    p = model.predict(gen.normal(size=(100, 2)))
    assert np.all((p >= 0.0) & (p <= 1.0))


def test_tabulated_model_exact_lookup():
    model = toy_risk_model()
    assert np.allclose(model.predict([[1.0, 0.0], [0.0, 1.0]]), [1.0, 0.0])
    with pytest.raises(IngestionError):
        model.predict([[0.5, 0.5]])


def test_tabulated_model_json_roundtrip():
    model = toy_risk_model()
    clone = model_from_json(model.to_json_dict())
    rows = [[0.0, 0.0], [1.0, 1.0]]
    assert np.allclose(model.predict(rows), clone.predict(rows))


def test_log_odds_clamps_extreme_probabilities():
    model = LinearModel(np.array([0.0]), 0.0)  # constant p = 0
    lo = log_odds(model, [[0.0]])
    assert np.isfinite(lo[0])
    assert lo[0] == pytest.approx(np.log(1e-6 / (1 - 1e-6)))


def test_log_odds_model_wraps_prediction():
    prob = LinearModel(np.array([0.0]), 0.8)
    wrapped = LogOddsModel(prob)
    assert wrapped.predict([[0.0]])[0] == pytest.approx(np.log(0.8 / 0.2))


def test_predict_batch_shapes():
    model = LinearModel(np.array([1.0, 1.0]), 0.0)
    out = predict_batch(model, np.zeros((5, 2)))
    assert out.shape == (5,)
    with pytest.raises(IngestionError):
        predict_batch(model, np.zeros((5, 3)))


def _bridge_script(tmp_path, body):
    path = tmp_path / "bridge.py"
    path.write_text(body)
    return [sys.executable, str(path)]


_ECHO_SUM = """\
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    if req["op"] == "hello":
        print(json.dumps({"ok": True}), flush=True)
    elif req["op"] == "predict":
        outs = [sum(row) for row in req["inputs"]]
        print(json.dumps({"outputs": outs}), flush=True)
"""


def test_external_model_roundtrip(tmp_path):
    model = ExternalModel(_bridge_script(tmp_path, _ECHO_SUM), 3)
    try:
        out = model.predict([[1.0, 2.0, 3.0], [0.0, 0.0, -1.0]])
        assert np.allclose(out, [6.0, -1.0])
    finally:
        model.close()


def test_external_model_bad_handshake(tmp_path):
    pid_file = tmp_path / "pid"
    script = _bridge_script(
        tmp_path,
        "import os, pathlib, sys\n"
        f"pathlib.Path({str(pid_file)!r}).write_text(str(os.getpid()))\n"
        "print('{\"ok\": false}'); sys.stdout.flush()\n"
        "sys.stdin.read()\n",
    )
    model = ExternalModel(script, 2)
    with pytest.raises(BridgeError, match="handshake rejected"):
        model.predict([[0.0, 0.0]])
    # the child was stopped and reaped before the error was raised
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def test_external_model_crash_reports_stderr(tmp_path):
    script = _bridge_script(tmp_path, "import sys; sys.exit('bridge exploded')\n")
    model = ExternalModel(script, 2)
    with pytest.raises(BridgeError, match="bridge exploded"):
        model.predict([[0.0, 0.0]])


def test_model_from_json_unknown_kind():
    with pytest.raises(IngestionError):
        model_from_json({"kind": "oracle-of-delphi"})


def _per_tree_average(forest, rows):
    """Walk each tree on its own and average the leaf values in tree order."""
    rows = np.asarray(rows, dtype=float).reshape(-1, forest.n_features)
    total = np.zeros(len(rows))
    for tree in forest.trees:
        leaves = []
        for row in rows:
            k = 0
            while tree.feature[k] >= 0:
                go_left = row[tree.feature[k]] <= tree.threshold[k]
                k = tree.left[k] if go_left else tree.right[k]
            leaves.append(tree.value[k])
        total += np.array(leaves)
    return total / len(forest.trees)


def _forest_with_a_single_leaf_tree():
    gen = RngStream(6).generator()
    x = gen.normal(size=(300, 3))
    y = x[:, 0] * x[:, 1] + x[:, 2]
    fitted = fit_forest(
        FeatureMatrix(("a", "b", "c"), x), y, {"trees": 12, "max_depth": 5}, RngStream(3, 1)
    )
    doc = fitted.to_json_dict()
    doc["trees"].insert(5, {"value": -0.375})
    return model_from_json(doc)


def test_stacked_forest_equals_per_tree_walk():
    forest = _forest_with_a_single_leaf_tree()
    block = _WALK_CELLS // len(forest.trees)
    rows = RngStream(7).generator().normal(size=(2 * block + 7, 3))
    clone = model_from_json(json.loads(json.dumps(forest.to_json_dict())))
    for batch in (rows, rows[:1], rows[:0], rows[:block]):
        expected = _per_tree_average(forest, batch)
        assert np.array_equal(forest.predict(batch), expected)
        assert np.array_equal(clone.predict(batch), expected)


def test_stacked_forest_of_single_leaves_and_a_stump():
    doc = {
        "kind": "forest",
        "task": "regression",
        "n_features": 2,
        "trees": [
            {"value": 0.1},
            {"split": 1, "threshold": 0.5, "left": {"value": -1.0}, "right": {"value": 2.0}},
            {"value": -0.0},
        ],
    }
    forest = model_from_json(doc)
    rows = np.array([[0.0, 0.5], [0.0, 0.6], [9.0, -3.0]])
    assert np.array_equal(forest.predict(rows), _per_tree_average(forest, rows))
    leaves_only = model_from_json(dict(doc, trees=[{"value": -0.0}]))
    # a running total that starts at 0.0 turns a -0.0 leaf into +0.0
    assert np.signbit(leaves_only.predict(rows)).sum() == 0


def test_forest_rejects_bad_tree_sets():
    stump = {"split": 2, "threshold": 0.0, "left": {"value": 0.0}, "right": {"value": 1.0}}
    with pytest.raises(IngestionError):
        model_from_json({"kind": "forest", "task": "regression", "n_features": 2, "trees": [stump]})
    with pytest.raises(IngestionError):
        ForestModel((), "regression", 2)


@pytest.mark.parametrize(
    "fn",
    [
        lambda rows: 1.0,
        lambda rows: rows[:, :1],
        lambda rows: np.append(rows[:, 0], 0.0),
        lambda rows: np.where(rows[:, 0] > 0, np.nan, 1.0),
        lambda rows: np.full(len(rows), np.inf),
    ],
    ids=["scalar", "column", "one-too-many", "nan", "inf"],
)
def test_predict_batch_rejects_bad_outputs(fn):
    model = CallableModel(fn, 2)
    rows = np.array([[1.0, 0.0], [-1.0, 2.0], [3.0, 1.0]])
    with pytest.raises(ModelOutputError) as err:
        predict_batch(model, rows)
    assert not isinstance(err.value, IngestionError)  # a computation failure


def test_decompose_stops_at_a_nan_model_output():
    sampler = GaussianSampler(GaussianModel(np.zeros(2), np.eye(2)))
    model = CallableModel(lambda rows: np.where(rows[:, 0] > 1.0, np.nan, rows[:, 1]), 2)
    with pytest.raises(ModelOutputError):
        decompose(model, sampler, np.array([0.0, 1.0]), 20, 20, 0)
