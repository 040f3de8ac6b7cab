import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from shapdec.cli import main, read_csv
from shapdec.core import RngStream
from shapdec.errors import BridgeError, IngestionError
from shapdec.models import model_from_json


def _write_csv(path, header, rows):
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture
def housing_csv(tmp_path):
    gen = RngStream(0).generator()
    cov = np.array([[1.0, 0.6, 0.0], [0.6, 1.0, 0.2], [0.0, 0.2, 1.0]])
    x = gen.multivariate_normal(np.zeros(3), cov, size=120)
    y = x @ np.array([1.0, -2.0, 0.5]) + gen.normal(0, 0.1, 120)
    path = tmp_path / "data.csv"
    _write_csv(
        path, ["a", "b", "c", "price"], np.column_stack([x, y]).round(6).tolist()
    )
    return path


def test_read_csv_roundtrip(tmp_path):
    path = tmp_path / "small.csv"
    _write_csv(path, ["x", "y"], [[1.0, 2.0], [3.0, 4.0]])
    data, target = read_csv(path, "y")
    assert data.names == ("x",)
    assert np.allclose(target, [2.0, 4.0])


def test_read_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,oops\n")
    with pytest.raises(IngestionError):
        read_csv(path)
    with pytest.raises(IngestionError):
        read_csv(tmp_path / "missing.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(IngestionError):
        read_csv(empty)


def test_usage_error_exit_code():
    assert main(["explain"]) == 1
    assert main(["no-such-command"]) == 1


def test_ingestion_error_exit_code(tmp_path):
    missing = tmp_path / "nope.csv"
    code = main(
        ["explain", "--data", str(missing), "--fit", "linear", "--target", "y"]
    )
    assert code == 2


def test_computation_error_exit_code(tmp_path):
    # two identical rows leave OLS with fewer rows than features
    path = tmp_path / "tiny.csv"
    _write_csv(path, ["a", "b", "y"], [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    code = main(
        ["explain", "--data", str(path), "--fit", "linear", "--target", "y"]
    )
    assert code == 3


def test_explain_end_to_end(tmp_path, housing_csv):
    out = tmp_path / "out"
    code = main(
        [
            "explain",
            "--data",
            str(housing_csv),
            "--fit",
            "linear",
            "--target",
            "price",
            "--row",
            "3",
            "--k1",
            "200",
            "--k2",
            "300",
            "--seed",
            "1",
            "--out",
            str(out),
            "--plot",
        ]
    )
    assert code == 0
    doc = json.loads((out / "decomposition.json").read_text())
    assert [f["name"] for f in doc["features"]] == ["a", "b", "c"]
    for f in doc["features"]:
        assert f["phi"] == pytest.approx(f["phi_int"] + f["phi_dep"], abs=1e-9)
    assert (out / "force.svg").read_text().startswith("<svg")


def test_fit_model_then_explain(tmp_path, housing_csv):
    model_path = tmp_path / "model.json"
    assert (
        main(
            [
                "fit-model",
                "linear",
                "--data",
                str(housing_csv),
                "--target",
                "price",
                "--out",
                str(model_path),
            ]
        )
        == 0
    )
    doc = json.loads(model_path.read_text())
    assert doc["kind"] == "linear"
    out = tmp_path / "out"
    code = main(
        [
            "explain",
            "--data",
            str(housing_csv),
            "--target",
            "price",
            "--model",
            str(model_path),
            "--sample",
            "1,0,-1,0",
            "--k1",
            "50",
            "--k2",
            "50",
            "--out",
            str(out),
        ]
    )
    # inline sample has 4 values but the model has 3 features + target column
    assert code == 2


def test_experiment_toy(tmp_path):
    out = tmp_path / "toy"
    code = main(
        ["experiment", "toy", "--k1", "300", "--k2", "300", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads((out / "results.json").read_text())
    assert doc["exact"]["base"] == pytest.approx(0.5)


def _run_twice(argv):
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(
            {
                p.name: p.read_bytes()
                for p in sorted(argv_out(argv).iterdir())
                if p.suffix in (".json", ".svg", ".dot")
            }
        )
    return outputs


def argv_out(argv):
    from pathlib import Path

    return Path(argv[argv.index("--out") + 1])


def test_outputs_byte_identical_across_thread_counts(tmp_path):
    out = tmp_path / "toy"
    argv = ["experiment", "toy", "--k1", "200", "--k2", "200", "--out", str(out)]
    first, second = _run_twice(argv)
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], name


def test_cli_import_does_not_load_scipy_stats():
    code = "import sys, shapdec.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


# A stand-in model process: answers the handshake and predicts the row sum
# (plus SHIFT outputs too many, or NaN for every row if NAN), then writes
# MARKER once its input ends.
_FAKE_BRIDGE = """\
import json, pathlib, sys
SHIFT = {shift}
NAN = {nan}
for line in sys.stdin:
    req = json.loads(line)
    if req["op"] == "hello":
        print(json.dumps({{"ok": True}}), flush=True)
    else:
        outs = [float("nan") if NAN else sum(row) for row in req["inputs"]]
        print(json.dumps({{"outputs": outs + [0.0] * SHIFT}}), flush=True)
pathlib.Path({marker!r}).write_text("end of input")
"""


def _bridge_model_json(tmp_path, shift=0, nan=False):
    marker = tmp_path / "bridge-finished"
    script = tmp_path / "bridge.py"
    script.write_text(_FAKE_BRIDGE.format(shift=shift, nan=nan, marker=str(marker)))
    model = tmp_path / "bridge.json"
    model.write_text(
        json.dumps({"kind": "external", "cmd": [sys.executable, str(script)], "n_features": 3})
    )
    return model, marker


def _explain_with(model_path, tmp_path):
    data = tmp_path / "features.csv"
    rows = RngStream(1).generator().normal(size=(40, 3)).round(6).tolist()
    _write_csv(data, ["a", "b", "c"], rows)
    out = tmp_path / "out"
    return main(
        [
            "explain",
            "--data", str(data),
            "--model", str(model_path),
            "--row", "0",
            "--k1", "20",
            "--k2", "20",
            "--out", str(out),
        ]
    )


def test_external_model_wrong_output_count(tmp_path):
    model_path, _ = _bridge_model_json(tmp_path, shift=1)
    model = model_from_json(json.loads(model_path.read_text()))
    try:
        with pytest.raises(BridgeError, match="outputs"):
            model.predict([[1.0, 2.0, 3.0]])
    finally:
        model.close()
    assert _explain_with(model_path, tmp_path) == 3


def test_explain_closes_the_external_model(tmp_path):
    model_path, marker = _bridge_model_json(tmp_path)
    assert _explain_with(model_path, tmp_path) == 0
    # the child saw end of input and finished before main returned
    assert marker.read_text() == "end of input"


def test_explain_nan_model_output_is_computation_error(tmp_path, capsys):
    model_path, _ = _bridge_model_json(tmp_path, nan=True)
    assert _explain_with(model_path, tmp_path) == 3
    assert "non-finite" in capsys.readouterr().err
