import fcntl
import hashlib
import json
import os
import sys
import time
import tracemalloc

import numpy as np
import pytest

from shapdec.core import FeatureMatrix, RngStream
from shapdec.distributions import GaussianModel, GaussianSampler
from shapdec.engine import decompose
from shapdec.experiments import _STUDY_FOREST
from shapdec.errors import BridgeError, IngestionError, ModelOutputError, SizeError
import shapdec.cart
import shapdec.models
from shapdec.models import (
    _ENCODE_ROWS,
    _REQUEST_PIPE_BYTES,
    _REQUEST_ROWS,
    _STDERR_TAIL,
    _BLOCK_CELLS,
    _TABLE_BYTES,
    _request_lines,
    CallableModel,
    ExternalModel,
    LinearModel,
    LogOddsModel,
    fit_forest,
    fit_ols,
    model_from_json,
    predict_batches,
)
from shapdec.synthetic import synthetic_fire, synthetic_housing


def test_linear_model_predict():
    model = LinearModel(np.array([2.0, -1.0]), 3.0)
    out = model.predict([[1.0, 1.0], [0.0, 4.0]])
    assert np.allclose(out, [4.0, -1.0])
    assert model.n_features == 2


def _zero_coefficient_model():
    return LinearModel([1.0, 0.0, -2.0], 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("column", [0, 1, 2], ids=["coef-1", "coef-0", "coef-minus-2"])
def test_linear_model_rejects_a_non_finite_row_in_any_column(bad, column):
    # the outputs reveal a bad entry under a nonzero coefficient; the zero
    # coefficient's column is checked directly, since its entries may never
    # enter the product
    rows = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 4.0]])
    rows[1, column] = bad
    model = _zero_coefficient_model()
    for call in (model.predict, lambda r: list(predict_batches(model, [(None, r)]))):
        with pytest.raises(IngestionError, match="^prediction input contains non-finite values$"):
            call(rows)
    with pytest.raises(IngestionError, match="^prediction input contains non-finite values$"):
        model.predict(rows[1])  # one row as a vector


def test_linear_model_checks_shapes_as_before():
    model = _zero_coefficient_model()
    assert model.predict([1.0, 2.0, 3.0]).tolist() == [-4.5]  # a vector is one row
    assert model.predict(np.empty((0, 3))).shape == (0,)
    for rows, message in [
        ([1.0, 2.0], "expected 3 columns, got 2"),
        (np.ones((2, 4)), "expected 3 columns, got 4"),
        (np.ones((2, 2)), "expected 3 columns, got 2"),
        (np.ones((1, 2, 3)), r"must be 2-D, got shape \(1, 2, 3\)"),
        # a wrong width with a non-finite entry fails on the entry first
        ([[np.nan, 1.0, 2.0, 3.0]], "contains non-finite values"),
    ]:
        with pytest.raises(IngestionError, match=message):
            model.predict(rows)


def test_linear_model_overflow_on_finite_rows_is_an_output_error():
    model = _zero_coefficient_model()
    rows = np.array([[1e308, 1e308, -1e308], [-1e308, 1e308, 1e308]])
    with np.errstate(over="ignore"):
        assert model.predict(rows).tolist() == [np.inf, -np.inf]
        with pytest.raises(ModelOutputError, match="non-finite outputs"):
            list(predict_batches(model, [(None, rows)]))


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


@pytest.mark.parametrize("key", ["max_dept", "features_per_split", "bootstrap"])
def test_fit_forest_rejects_unknown_parameters(key):
    data = FeatureMatrix(("a", "b"), RngStream(3).generator().normal(size=(40, 2)))
    with pytest.raises(IngestionError, match=f"unknown forest parameters \\['{key}'\\]"):
        fit_forest(data, data.values[:, 0], {"trees": 2, key: 3}, RngStream(0))



@pytest.mark.parametrize("min_leaf", [0, -2])
def test_fit_forest_rejects_min_leaf_below_one(min_leaf):
    # min_leaf 0 used to index past the end of the split search
    data = FeatureMatrix(("a", "b"), RngStream(3).generator().normal(size=(40, 2)))
    with pytest.raises(IngestionError, match=f"min_leaf must be at least 1, got {min_leaf}"):
        fit_forest(data, data.values[:, 0], {"trees": 2, "min_leaf": min_leaf}, RngStream(0))

@pytest.mark.parametrize("max_depth", [-1, -3])
def test_fit_forest_rejects_max_depth_below_zero(max_depth):
    # max_depth -3 used to grow constant trees
    data = FeatureMatrix(("a", "b"), RngStream(3).generator().normal(size=(40, 2)))
    with pytest.raises(IngestionError, match=f"max_depth must be at least 0, got {max_depth}"):
        fit_forest(data, data.values[:, 0], {"trees": 2, "max_depth": max_depth}, RngStream(0))


@pytest.mark.parametrize("key, value", [
    ("trees", 2.0),  # escaped as a TypeError
    ("min_leaf", 2.5),  # escaped as an IndexError
    ("max_depth", 2.5),  # was accepted
    ("trees", True),  # fitted one tree
    ("min_leaf", True),  # fitted with min_leaf 1
    ("max_depth", "3"),  # escaped as a TypeError
])
def test_fit_forest_takes_integer_parameters_only(key, value):
    data = FeatureMatrix(("a", "b"), RngStream(3).generator().normal(size=(40, 2)))
    with pytest.raises(IngestionError, match=f"forest parameter {key} must be an integer"):
        fit_forest(data, data.values[:, 0], {"trees": 2, key: value}, RngStream(0))


@pytest.mark.parametrize("trees", [0, -1])
def test_fit_forest_rejects_trees_below_one(trees):
    data = FeatureMatrix(("a", "b"), RngStream(3).generator().normal(size=(40, 2)))
    with pytest.raises(IngestionError, match=f"trees must be at least 1, got {trees}"):
        fit_forest(data, data.values[:, 0], {"trees": trees}, RngStream(0))


@pytest.mark.parametrize("rows", [39, 41])
def test_fit_forest_needs_one_target_per_row(rows):
    # a longer target used to fail on an index, a shorter one to fit on
    # the first rows of the data
    data = FeatureMatrix(("a", "b"), RngStream(3).generator().normal(size=(40, 2)))
    with pytest.raises(IngestionError, match="one target per row"):
        fit_forest(data, np.zeros(rows), {"trees": 2}, RngStream(0))


def test_fit_forest_takes_numpy_integers():
    data = FeatureMatrix(("a", "b"), RngStream(3).generator().normal(size=(40, 2)))
    params = {"trees": 3, "max_depth": 2, "min_leaf": 4}
    numpy_params = {key: np.int64(value) for key, value in params.items()}
    a = fit_forest(data, data.values[:, 0], params, RngStream(0))
    b = fit_forest(data, data.values[:, 0], numpy_params, RngStream(0))
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


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


def _pinned_fit(case):
    """fit_forest's arguments for one pinned forest: the two study forests,
    the CLI's default forest on the housing data, and edge cases of the
    grower (deep trees of single-row leaves, tied values, a pure root, no
    split allowed, and just enough rows for one split)."""
    housing, price = synthetic_housing()
    if case == "fire-study":
        fire, labels = synthetic_fire()
        return fire, labels, _STUDY_FOREST, RngStream(0, 99), "binary-probability"
    small = FeatureMatrix(housing.names, housing.values[:10])
    rounded = FeatureMatrix(housing.names, housing.values.round(1))
    return {
        "housing-study": (housing, price, _STUDY_FOREST, RngStream(0, 77)),
        "cli-default": (housing, price, {}, RngStream(0, 77)),
        "min-leaf-1-depth-14": (
            housing, price, {"trees": 8, "max_depth": 14, "min_leaf": 1}, RngStream(3, 77)
        ),
        "ties": (rounded, price.round(1), {"trees": 20, "min_leaf": 2}, RngStream(4, 77)),
        "constant-target": (housing, np.full(len(price), 2.5), {"trees": 5}, RngStream(5, 77)),
        "max-depth-0": (housing, price, {"trees": 5, "max_depth": 0}, RngStream(6, 77)),
        "n-twice-min-leaf": (small, price[:10], {"trees": 30}, RngStream(7, 77)),
    }[case] + ("regression",)


# sha256 of json.dumps(forest.to_json_dict()), recorded from the recursive
# one-node-at-a-time grower that the lockstep grower replaced
_PINNED_FORESTS = {
    "fire-study": "af7094633a08419c68559876fa6c4856ca2e71e9de1d35eacc3894024ab7ef37",
    "housing-study": "75e2a30eab9dc0d81ba88aba9e363ece044eb6216fd3c5179a7a92870921f017",
    "cli-default": "60972f47efab214f0c30883783f694e10cb54ac8de019a9ea1c954588703a140",
    "min-leaf-1-depth-14": "a4b9df385b256c775b365fb08978ee055f34b5b93cb257fc83263a7e9570e661",
    "ties": "d7752e9c3a25713a1f0fe5434c8b13fcb011115a1a29d2dd4d606cca0afeb23f",
    "constant-target": "c9f31d3d9e11b6e8b84162931f3003331489c08bb16934fceebfe902129f2db1",
    "max-depth-0": "cbfe5cb5cd4392f804f9a7c8fa77b43e0a15a0e377b6884ea5ced64dc52c85fe",
    "n-twice-min-leaf": "18f2544494d07a85c174fe8f180de056d6b23975fa200e7f3b78ca4ba6310bb0",
}


def test_default_forest_fit_traced_peak_stays_under_8_mib():
    # the CLI's default 200 depth-8 trees on the housing data. The search
    # runs in batches of at most _SPLIT_CELLS cells and no tree's bootstrap
    # sample is copied; copying every one would take 10.5 MB
    housing, price = synthetic_housing()
    fit_forest(housing, price, {"trees": 2}, RngStream(0, 77))  # lazy imports are not counted
    tracemalloc.start()
    try:
        forest = fit_forest(housing, price, {}, RngStream(0, 77))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(forest.roots) == 200
    assert peak <= 8 << 20


def _pinned_digest(case):
    data, y, params, rng, task = _pinned_fit(case)
    forest = fit_forest(data, y, params, rng, task=task)
    return hashlib.sha256(json.dumps(forest.to_json_dict()).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(_PINNED_FORESTS))
def test_fitted_forests_are_pinned(case):
    assert _pinned_digest(case) == _PINNED_FORESTS[case]


@pytest.mark.parametrize("case", ["fire-study", "cli-default-10-trees"])
def test_a_read_forest_is_the_fitted_forest_bit_for_bit(case):
    # the fire study's forest is scored from its tables; 10 of the CLI's
    # default trees on the housing data are walked
    if case == "fire-study":
        data, y, params, rng, task = _pinned_fit(case)
    else:
        data, y = synthetic_housing()
        params, rng, task = {"trees": 10}, RngStream(0, 77), "regression"
    forest = fit_forest(data, y, params, rng, task=task)
    assert (forest._tables is None) == (case != "fire-study")
    clone = model_from_json(json.loads(json.dumps(forest.to_json_dict())))
    for name in ("roots", "feature", "threshold", "value", "kids"):
        fitted, read = getattr(forest, name), getattr(clone, name)
        assert fitted.dtype == read.dtype and fitted.tobytes() == read.tobytes(), name
    assert clone.depth == forest.depth
    rows = RngStream(9).generator().normal(size=(500, data.n_features))
    rows = rows * data.values.std(axis=0) + data.values.mean(axis=0)
    assert forest.predict(rows).tobytes() == clone.predict(rows).tobytes()


@pytest.mark.parametrize("cells", [1, 100])
@pytest.mark.parametrize("case", ["ties", "n-twice-min-leaf"])
def test_fitted_forests_do_not_depend_on_the_batch_cap(case, cells, monkeypatch):
    # one node a batch and one (node, feature) row a search block, or a few
    monkeypatch.setattr(shapdec.cart, "_SPLIT_CELLS", cells)
    assert _pinned_digest(case) == _PINNED_FORESTS[case]


def test_log_odds_clamps_extreme_probabilities():
    model = LogOddsModel(LinearModel(np.array([0.0]), 0.0))  # constant p = 0
    lo = model.predict([[0.0]])
    assert np.isfinite(lo[0])
    assert lo[0] == pytest.approx(np.log(1e-6 / (1 - 1e-6)))


def test_log_odds_model_wraps_prediction():
    prob = LinearModel(np.array([0.0]), 0.8)
    wrapped = LogOddsModel(prob)
    assert wrapped.predict([[0.0]])[0] == pytest.approx(np.log(0.8 / 0.2))


def test_predict_batches_shapes():
    model = LinearModel(np.array([1.0, 1.0]), 0.0)
    [(payload, out)] = predict_batches(model, [("tag", np.zeros((5, 2)))])
    assert payload == "tag"
    assert out.shape == (5,)
    with pytest.raises(IngestionError):
        list(predict_batches(model, [(None, np.zeros((5, 3)))]))


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


def _answering_once(tmp_path, reply):
    """A bridge that writes its pid file, answers ``reply`` to the
    handshake and then reads its input to the end."""
    return _bridge_script(
        tmp_path,
        "import os, pathlib, sys\n"
        f"pathlib.Path({str(tmp_path / 'pid')!r}).write_text(str(os.getpid()))\n"
        f"print({reply!r}); sys.stdout.flush()\n"
        "sys.stdin.read()\n",
    )


def test_external_model_bad_handshake(tmp_path):
    model = ExternalModel(_answering_once(tmp_path, '{"ok": false}'), 2)
    with pytest.raises(BridgeError, match="handshake rejected"):
        model.predict([[0.0, 0.0]])
    # the child was stopped and reaped before the error was raised
    with pytest.raises(ProcessLookupError):
        os.kill(int((tmp_path / "pid").read_text()), 0)


def test_external_model_reply_that_is_not_an_object(tmp_path):
    model = ExternalModel(_answering_once(tmp_path, "[1]"), 2)
    with pytest.raises(BridgeError, match="not a JSON object"):
        model.predict([[0.0, 0.0]])
    with pytest.raises(ProcessLookupError):
        os.kill(int((tmp_path / "pid").read_text()), 0)


def test_external_model_crash_reports_stderr(tmp_path):
    script = _bridge_script(tmp_path, "import sys; sys.exit('bridge exploded')\n")
    model = ExternalModel(script, 2)
    with pytest.raises(BridgeError, match="bridge exploded"):
        model.predict([[0.0, 0.0]])


# Echoes a non-linear function of each row, appends each predict line's
# row count to RECORD, and answers its line number ERROR_AT with an error.
_RECORDING = """\
import json, os, pathlib, sys
pathlib.Path({pidfile!r}).write_text(str(os.getpid()))
record = open({record!r}, "a")
lines = 0
for line in sys.stdin:
    req = json.loads(line)
    if req["op"] == "hello":
        print(json.dumps({{"ok": True}}), flush=True)
        continue
    lines += 1
    record.write(f"{{len(req['inputs'])}} {{', ' in line}}\\n")
    record.flush()
    if lines == {error_at}:
        print(json.dumps({{"error": "line two is cursed"}}), flush=True)
        continue
    outs = [r[0] * 1e3 + r[1] / 7.0 for r in req["inputs"]]
    print(json.dumps({{"outputs": outs, "pad": "x" * {pad}}}), flush=True)
"""


def _recording_bridge(tmp_path, error_at=0, pad=0):
    body = _RECORDING.format(
        pidfile=str(tmp_path / "pid"), record=str(tmp_path / "record"), error_at=error_at, pad=pad
    )
    return ExternalModel(_bridge_script(tmp_path, body), 2)


def _recorded_lines(tmp_path):
    lines = (tmp_path / "record").read_text().split("\n")[:-1]
    (tmp_path / "record").write_text("")  # the bridge appends to it
    assert all(line.endswith(" False") for line in lines)  # compact separators
    return [int(line.split()[0]) for line in lines]


def test_external_model_pipelined_batches_match_one_request_per_row(tmp_path):
    assert _REQUEST_ROWS == 256  # the line size the README documents
    rows = RngStream(8).generator().normal(size=(1250, 2))
    model = _recording_bridge(tmp_path)
    try:
        one_by_one = np.concatenate([model.predict(row[None]) for row in rows])
        assert _recorded_lines(tmp_path) == [1] * len(rows)
        for n in (1, 255, 256, 257, 1250):
            assert np.array_equal(model.predict(rows[:n]), one_by_one[:n])
            starts = range(0, n, _REQUEST_ROWS)
            assert _recorded_lines(tmp_path) == [min(_REQUEST_ROWS, n - s) for s in starts]
    finally:
        model.close()
    assert np.array_equal(one_by_one, rows[:, 0] * 1e3 + rows[:, 1] / 7.0)


def test_external_model_replies_past_the_pipe_buffer(tmp_path, monkeypatch):
    monkeypatch.setattr(shapdec.models, "BRIDGE_REPLY_TIMEOUT_S", 10.0)
    rows = RngStream(9).generator().normal(size=(1250, 2))
    model = _recording_bridge(tmp_path, pad=200_000)
    try:
        out = model.predict(rows)
    finally:
        model.close()
    assert np.array_equal(out, rows[:, 0] * 1e3 + rows[:, 1] / 7.0)
    assert _recorded_lines(tmp_path) == [256, 256, 256, 256, 226]


def test_external_model_error_reply_to_a_later_line_stops_the_child(tmp_path):
    model = _recording_bridge(tmp_path, error_at=2)
    try:
        with pytest.raises(BridgeError, match="bridge reported: line two is cursed"):
            model.predict(np.zeros((3 * _REQUEST_ROWS, 2)))
    finally:
        model.close()
    with pytest.raises(ProcessLookupError):
        os.kill(int((tmp_path / "pid").read_text()), 0)


def test_external_model_child_exiting_mid_batch_reports_stderr(tmp_path):
    script = _bridge_script(
        tmp_path,
        "import sys\n"
        "sys.stdin.readline()\n"
        "print('{\"ok\": true}', flush=True)\n"
        "sys.stdin.readline()\n"
        "sys.exit('gave up after one line')\n",
    )
    model = ExternalModel(script, 2)
    try:
        with pytest.raises(BridgeError, match="gave up after one line"):
            model.predict(np.zeros((1250, 2)))
    finally:
        model.close()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_external_model_checks_rows_before_it_sends_them(tmp_path, bad):
    rows = np.ones((300, 2))
    rows[280, 1] = bad
    model = _recording_bridge(tmp_path)
    try:
        model.predict(rows[:5])
        assert _recorded_lines(tmp_path) == [5]
        with pytest.raises(IngestionError, match="non-finite"):
            model.predict(rows)
        with pytest.raises(IngestionError, match="non-finite"):
            list(predict_batches(model, [(None, rows)]))
        with pytest.raises(IngestionError, match="expected 2 columns, got 3"):
            list(predict_batches(model, [(None, np.ones((4, 3)))]))
        # no line of a bad batch was sent, and the child still serves
        assert np.array_equal(model.predict(rows[:7]), _recorded(rows[:7]))
        assert _recorded_lines(tmp_path) == [7]
    finally:
        model.close()


def _pid_gone(tmp_path):
    with pytest.raises(ProcessLookupError):
        os.kill(int((tmp_path / "pid").read_text()), 0)


def _recorded(rows):
    return rows[:, 0] * 1e3 + rows[:, 1] / 7.0


def test_external_model_streams_batches_through_one_exchange(tmp_path):
    rows = RngStream(10).generator().normal(size=(700, 2))
    buffer = np.empty((400, 2))

    def batches():
        # one buffer, overwritten after each yield: a batch is read in full
        # before the next is pulled
        for q, part in enumerate((rows[:300], rows[300:300], rows[300:305], rows[305:])):
            buffer[:len(part)] = part
            yield q, buffer[:len(part)]
            buffer[:] = np.nan

    model = _recording_bridge(tmp_path)
    try:
        payloads, outputs = zip(*predict_batches(model, batches()))
        # no line spans two batches, and a 0-row batch sends none
        assert _recorded_lines(tmp_path) == [256, 44, 5, 256, 139]
        assert payloads == (0, 1, 2, 3)
        assert [len(out) for out in outputs] == [300, 0, 5, 395]
        assert outputs[1].shape == (0,)
        assert np.array_equal(np.concatenate(outputs), _recorded(rows))
        in_process = list(predict_batches(CallableModel(_recorded, 2), batches()))
        assert tuple(q for q, _ in in_process) == payloads
        for (_, a), b in zip(in_process, outputs, strict=True):
            assert np.array_equal(a, b)
    finally:
        model.close()


def test_request_lines_equal_json_dumps():
    values = [-0.0, 0.0, 5e-324, 1e16, 2.0**53, 1 / 3, 1 / 3, -0.0, 0.1, -1e300, 2.5, 0.0]
    rows = np.array(values * 50).reshape(-1, 4)  # 150 rows: repeated values and rows
    rows[7] = RngStream(11).generator().normal(size=4)
    long = np.tile(rows, (27, 1))  # 4,050 rows: three encoding windows and a tail
    long[::97] = RngStream(12).generator().normal(size=(len(long[::97]), 4))
    assert len(long) // _ENCODE_ROWS == 3 and len(long) % _ENCODE_ROWS
    for batch in (rows, rows[:1], rows.T.copy().T, np.tile(rows, (2, 1)), long):
        want = [
            json.dumps({"op": "predict", "inputs": batch[s:s + _REQUEST_ROWS].tolist()},
                       separators=(",", ":")).encode() + b"\n"
            for s in range(0, len(batch), _REQUEST_ROWS)
        ]
        assert list(_request_lines(batch)) == want
    head = b'{"op":"predict","inputs":[[-0.0,0.0,5e-324,1e+16],[9007199254740992.0,0.3333333333333333,'
    assert next(_request_lines(rows)).startswith(head)


def test_request_lines_encode_a_window_as_its_first_line_is_pulled(monkeypatch):
    # a walk's pair batch is encoded a window at a time, so the lines and
    # encoding temporaries of a whole batch are never held at once
    encoded = []
    window_lines = shapdec.models._window_lines
    monkeypatch.setattr(
        shapdec.models, "_window_lines", lambda rows: encoded.append(len(rows)) or window_lines(rows)
    )
    rows = RngStream(13).generator().normal(size=(2 * _ENCODE_ROWS + 7, 3))
    lines = _request_lines(rows)
    assert encoded == []
    pulled = [next(lines) for _ in range(_ENCODE_ROWS // _REQUEST_ROWS)]
    assert encoded == [_ENCODE_ROWS]
    pulled.append(next(lines))
    assert encoded == [_ENCODE_ROWS] * 2
    pulled.extend(lines)
    assert encoded == [_ENCODE_ROWS] * 2 + [7]
    assert len(pulled) == -(-len(rows) // _REQUEST_ROWS)


@pytest.mark.parametrize("stop", ["consumer", "non-finite output", "producer"])
def test_external_model_stream_stopped_early_stops_the_child(tmp_path, stop):
    rows = RngStream(12).generator().normal(size=(600, 2))
    model = _recording_bridge(tmp_path)

    def batches():
        # more batches than the stream can answer before it stops: a stop at
        # batch 1 always leaves a line of a later batch in flight, however
        # many reply lines one read brings in
        for q in range(64):
            if stop == "producer" and q == 1:
                raise RuntimeError("sampler failed")
            batch = rows.copy()
            if stop == "non-finite output" and q == 1:
                batch[100, 0] = 1e306  # the bridge answers 1e309: Infinity
            yield q, batch

    try:
        with pytest.raises((RuntimeError, ModelOutputError)):
            for _ in predict_batches(model, batches()):
                if stop == "consumer":
                    raise RuntimeError("consumer failed")
        # lines of a later batch were in flight: the child was stopped and reaped
        _pid_gone(tmp_path)
        assert np.array_equal(model.predict(rows), _recorded(rows))
    finally:
        model.close()


def test_external_model_reply_timeout_counts_only_waiting_on_the_child(tmp_path, monkeypatch):
    monkeypatch.setattr(shapdec.models, "BRIDGE_REPLY_TIMEOUT_S", 0.3)
    rows = RngStream(13).generator().normal(size=(600, 2))

    def slow_batches():
        for part in (rows[:200], rows[200:400], rows[400:]):
            time.sleep(0.4)
            yield None, part

    model = _recording_bridge(tmp_path)
    try:
        model.predict(rows[:1])  # the child is up before the clock matters
        outputs = []
        for _, out in predict_batches(model, slow_batches()):
            time.sleep(0.4)
            outputs.append(out)
    finally:
        model.close()
    assert np.array_equal(np.concatenate(outputs), _recorded(rows))


@pytest.mark.parametrize(
    "outputs",
    ["[true, \"1.5\", true]", "[1.0, null, 2.0]", "[[1.0], 2.0, 3.0]", "[1.0, false, 3.0]",
     "\"1.0\"", "[1.0, 1" + "0" * 400 + ", 3.0]"],
    ids=["bool-string", "null", "list", "false", "string", "int-beyond-float64"],
)
def test_external_model_rejects_outputs_that_are_not_numbers(tmp_path, outputs):
    script = _bridge_script(
        tmp_path,
        "import os, pathlib, sys\n"
        f"pathlib.Path({str(tmp_path / 'pid')!r}).write_text(str(os.getpid()))\n"
        "print('{\"ok\": true}', flush=True)\n"
        "sys.stdin.readline()\n"
        "for line in sys.stdin:\n"
        f"    print('{{\"outputs\": {outputs}}}', flush=True)\n",
    )
    model = ExternalModel(script, 2)
    try:
        with pytest.raises(BridgeError, match="not all float64 numbers") as err:
            model.predict(np.ones((3, 2)))
    finally:
        model.close()
    assert repr(f'{{"outputs": {outputs}}}'.encode()[:200]) in str(err.value)
    _pid_gone(tmp_path)


_CHATTY = """\
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    sys.stderr.write("chatter " * 2500 + "\\n")
    sys.stderr.flush()
    if req["op"] == "hello":
        print(json.dumps({"ok": True}), flush=True)
    elif req["inputs"][0][0] < 0:
        sys.exit("last words")
    else:
        print(json.dumps({"outputs": [sum(r) for r in req["inputs"]]}), flush=True)
"""


def test_external_model_drains_a_chatty_stderr(tmp_path, monkeypatch):
    monkeypatch.setattr(shapdec.models, "BRIDGE_REPLY_TIMEOUT_S", 3.0)
    model = ExternalModel(_bridge_script(tmp_path, _CHATTY), 2)
    rows = np.ones((10, 2))
    try:
        start = time.monotonic()
        for _ in range(10):
            assert np.array_equal(model.predict(rows), np.full(10, 2.0))
        assert time.monotonic() - start < 5.0
        with pytest.raises(BridgeError) as err:
            model.predict(-rows)
    finally:
        model.close()
    message = str(err.value)
    assert message.endswith("last words")
    assert len(message.partition("stderr: ")[2]) <= _STDERR_TAIL


# Answers the handshake, then sleeps before it reads its first predict line.
_SLOW_START = """\
import json, sys, time
sys.stdin.readline()
print(json.dumps({"ok": True}), flush=True)
time.sleep(0.5)
for line in sys.stdin:
    outs = [r[0] * 1e3 + r[1] / 7.0 for r in json.loads(line)["inputs"]]
    print(json.dumps({"outputs": outs}), flush=True)
"""


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="no pipe capacity to set")
def test_external_model_queues_a_batch_of_lines_ahead_of_the_child(tmp_path):
    rows = RngStream(14).generator().normal(size=(24 * _REQUEST_ROWS, 13))
    pulled = []  # request-line bytes of each batch the stream has pulled

    def batches():
        for s in range(0, len(rows), _REQUEST_ROWS):
            batch = rows[s:s + _REQUEST_ROWS]
            pulled.append(sum(map(len, _request_lines(batch))))
            yield s, batch

    model = ExternalModel(_bridge_script(tmp_path, _SLOW_START), 13)
    try:
        model._ensure_started()
        assert fcntl.fcntl(model._proc.stdin.fileno(), fcntl.F_GETPIPE_SZ) >= 1 << 20
        stream = predict_batches(model, batches())
        outputs = [next(stream)[1]]
        # while the child slept, the pipe took far more than one line
        assert sum(pulled) >= 512 * 1024
        outputs.extend(out for _, out in stream)
    finally:
        model.close()
    assert np.array_equal(np.concatenate(outputs), _recorded(rows))


@pytest.mark.parametrize("setting", ["refused", "missing"])
def test_external_model_keeps_the_default_pipe_where_its_size_cannot_be_set(
    tmp_path, monkeypatch, setting
):
    if setting == "missing":
        monkeypatch.delattr(fcntl, "F_SETPIPE_SZ", raising=False)
    else:
        real = fcntl.fcntl

        def refusing(fd, cmd, arg=0):
            if cmd == getattr(fcntl, "F_SETPIPE_SZ", None):
                raise PermissionError("pipe size refused")
            return real(fd, cmd, arg)

        monkeypatch.setattr(fcntl, "fcntl", refusing)
    rows = RngStream(15).generator().normal(size=(1250, 2))
    model = _recording_bridge(tmp_path)
    try:
        out = model.predict(rows)
        if hasattr(fcntl, "F_GETPIPE_SZ"):
            size = fcntl.fcntl(model._proc.stdin.fileno(), fcntl.F_GETPIPE_SZ)
            assert size < _REQUEST_PIPE_BYTES
    finally:
        model.close()
    [(_, in_process)] = predict_batches(CallableModel(_recorded, 2), [(None, rows)])
    assert np.array_equal(out, in_process)
    assert _recorded_lines(tmp_path) == [256, 256, 256, 256, 226]


def test_model_from_json_unknown_kind():
    with pytest.raises(IngestionError):
        model_from_json({"kind": "oracle-of-delphi"})


def _per_tree_average(doc, rows):
    """Walk each tree of a forest's JSON document on its own and average
    the leaf values in tree order."""
    rows = np.asarray(rows, dtype=float).reshape(-1, doc["n_features"])
    total = np.zeros(len(rows))
    for tree in doc["trees"]:
        leaves = []
        for row in rows:
            node = tree
            while "value" not in node:
                go_left = row[node["split"]] <= node["threshold"]
                node = node["left"] if go_left else node["right"]
            leaves.append(node["value"])
        total += np.array(leaves)
    return total / len(doc["trees"])


def _forest_with_a_single_leaf_tree():
    gen = RngStream(6).generator()
    x = gen.normal(size=(300, 3))
    y = x[:, 0] * x[:, 1] + x[:, 2]
    fitted = fit_forest(
        FeatureMatrix(("a", "b", "c"), x), y, {"trees": 12, "max_depth": 5}, RngStream(3, 1)
    )
    doc = fitted.to_json_dict()
    doc["trees"].insert(5, {"value": -0.375})
    return doc


def _sized_tree(gen, leaves, features):
    """A tree with ``leaves`` leaves, halved at each split, splitting on
    ``features`` at multiples of 1/4 in [-2, 2]; one leaf in five is -0.0."""
    if leaves == 1:
        return {"value": -0.0 if gen.random() < 0.2 else float(gen.normal())}
    half = leaves // 2
    return {
        "split": int(gen.choice(features)),
        "threshold": int(gen.integers(-8, 9)) / 4,
        "left": _sized_tree(gen, half, features),
        "right": _sized_tree(gen, leaves - half, features),
    }


def _sized_forest(seed, leaves, n_features=4, features=(0, 1, 3)):
    """Trees of the given leaf counts; feature 2 is split on by none."""
    gen = RngStream(seed).generator()
    trees = [_sized_tree(gen, n, features) for n in leaves]
    return {"kind": "forest", "task": "regression", "n_features": n_features, "trees": trees}


def _trees_over_the_table_cap(n_features=4):
    """The fewest 64-leaf trees whose uint64 tables exceed _TABLE_BYTES."""
    trees = 1
    while (63 * trees + n_features) * trees * 8 <= _TABLE_BYTES:
        trees += 1
    return trees


def test_stacked_forest_equals_per_tree_walk():
    over = _trees_over_the_table_cap()
    zeros = {"split": 3, "threshold": 0.0, "left": {"value": -0.0}, "right": {"value": -0.0}}
    cases = [  # (forest document, whether it is scored from tables)
        (_forest_with_a_single_leaf_tree(), True),
        (_sized_forest(1, [64, 1, 17, 64, 2, 3]), True),
        (_sized_forest(2, [64, 65, 1, 9]), False),
        (_sized_forest(3, [64] * (over - 1)), True),
        (_sized_forest(4, [64] * over), False),
        (_sized_forest(5, [2, 1, 32, 33]), True),
        (dict(_sized_forest(6, []), trees=[zeros]), True),  # sums to +0.0
    ]
    for doc, tables in cases:
        forest = model_from_json(doc)
        assert (forest._tables is not None) == tables
        clone = model_from_json(json.loads(json.dumps(forest.to_json_dict())))
        assert clone.to_json_dict() == doc
        m = doc["n_features"]
        block = _BLOCK_CELLS // len(doc["trees"])
        gen = RngStream(7).generator()
        rows = gen.normal(size=(2 * block + 7, m))
        # multiples of 1/4: every threshold of the _sized_tree forests, met exactly
        ties = gen.integers(-10, 11, size=(block + 3, m)) / 4
        for batch in (rows, rows[:1], rows[:0], rows[:block], ties):
            expected = _per_tree_average(doc, batch).tobytes()
            assert forest.predict(batch).tobytes() == expected
            assert clone.predict(batch).tobytes() == expected


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
    assert np.array_equal(forest.predict(rows), _per_tree_average(doc, rows))
    leaves_only = model_from_json(dict(doc, trees=[{"value": -0.0}]))
    # a running total that starts at 0.0 turns a -0.0 leaf into +0.0
    assert np.signbit(leaves_only.predict(rows)).sum() == 0


@pytest.mark.parametrize("field", ["threshold", "value"])
@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity"])
def test_forest_rejects_non_finite_parameters(field, number):
    # json.loads reads NaN and Infinity; a NaN threshold would send every row right
    stump = {"split": 0, "threshold": 0.5, "left": {"value": 1.0}, "right": {"value": 2.0}}
    text = json.dumps({"kind": "forest", "task": "regression", "n_features": 1, "trees": [stump]})
    text = text.replace("0.5" if field == "threshold" else "2.0", number)
    with pytest.raises(IngestionError, match="finite"):
        model_from_json(json.loads(text))


def test_forest_rejects_bad_tree_sets():
    stump = {"split": 2, "threshold": 0.0, "left": {"value": 0.0}, "right": {"value": 1.0}}
    for split in (2, -1, 2**32):
        doc = {"kind": "forest", "task": "regression", "n_features": 2,
               "trees": [dict(stump, split=split)]}
        with pytest.raises(IngestionError):
            model_from_json(doc)
    with pytest.raises(IngestionError):
        model_from_json({"kind": "forest", "task": "regression", "n_features": 2, "trees": []})


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
    rows = np.array([[1.0, 0.0], [-1.0, 2.0], [3.0, 1.0]])
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return fn(rows)

    for model in (CallableModel(counted, 2), LogOddsModel(CallableModel(counted, 2))):
        calls.clear()
        with pytest.raises(ModelOutputError) as err:
            list(predict_batches(model, [(None, rows)]))
        assert not isinstance(err.value, IngestionError)  # a computation failure
        # the model ran once, and its outputs failed at the one boundary
        assert calls == [3]
        assert err.traceback[-1].name in ("predict_batches", "in_process")


def test_decompose_stops_at_a_nan_model_output():
    sampler = GaussianSampler(GaussianModel(np.zeros(2), np.eye(2)))
    model = CallableModel(lambda rows: np.where(rows[:, 0] > 1.0, np.nan, rows[:, 1]), 2)
    with pytest.raises(ModelOutputError):
        decompose(model, sampler, np.array([0.0, 1.0]), 20, 20, 0)


def test_model_from_json_rejects_a_tree_nested_past_the_recursion_limit():
    tree = {"value": 0.0}
    for _ in range(sys.getrecursionlimit() + 10):
        tree = {"split": 0, "threshold": 0.0, "left": tree, "right": {"value": 1.0}}
    doc = {"kind": "forest", "task": "regression", "n_features": 1, "trees": [tree]}
    with pytest.raises(IngestionError, match="malformed forest model document"):
        model_from_json(doc)
