import csv
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import shapdec.cli
import shapdec.experiments
import shapdec.models
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


@pytest.mark.parametrize("command", [
    ["explain", "--data", "data.csv"],
    ["fit-model", "forest", "--data", "data.csv", "--target", "price"],
])
def test_forest_flags_default_to_the_forest_defaults(command):
    args = shapdec.cli.build_parser().parse_args(command)
    defaults = shapdec.models._FOREST_DEFAULTS
    assert {name: getattr(args, name) for name in defaults} == defaults


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
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b,c\n1,2,3\n4,5\n")
    with pytest.raises(IngestionError, match=r"ragged\.csv:3: 2 values, header has 3"):
        read_csv(ragged)
    code = main(["explain", "--data", str(ragged), "--fit", "linear", "--target", "c"])
    assert code == 2
    header_only = tmp_path / "header.csv"
    header_only.write_text("a,b\n")
    with pytest.raises(IngestionError, match=r"header\.csv: no data rows"):
        read_csv(header_only)
    valid = tmp_path / "valid.csv"
    valid.write_text("a,b\n1,2\n3,4\n")
    with pytest.raises(IngestionError, match=r"valid\.csv: no column named 'z'"):
        read_csv(valid, "z")


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


def test_explain_with_an_indefinite_covariance_exits_3(tmp_path, monkeypatch):
    # a fitted covariance is never indefinite, so the fit is replaced; at
    # M=12 the walk's first factor fails the jitter
    m = 12
    cov = np.eye(m)
    cov[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]  # eigenvalues +-1
    monkeypatch.setattr(
        shapdec.cli, "fit_gaussian", lambda data: shapdec.GaussianModel(np.zeros(m), cov)
    )
    path = tmp_path / "wide.csv"
    rows = RngStream(3).generator().normal(size=(40, m + 1))
    _write_csv(path, [f"f{j}" for j in range(m)] + ["y"], rows.tolist())
    out = tmp_path / "out"
    argv = ["explain", "--data", str(path), "--fit", "linear", "--target", "y"]
    assert main([*argv, "--k1", "40", "--k2", "60", "--out", str(out)]) == 3
    assert not (out / "decomposition.json").exists()


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
    # the inline sample has 4 values; the model and the CSV's features are 3
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


_LOADED_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_does_not_load_scipy_stats():
    code = f"import sys, shapdec.cli; print({_LOADED_SCIPY})"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("sampler", ["gaussian", "copula"])
def test_explain_loads_scipy_only_for_the_copula(tmp_path, housing_csv, sampler):
    argv = [
        "explain", "--data", str(housing_csv), "--fit", "linear", "--target", "price",
        "--sampler", sampler, "--k1", "20", "--k2", "20", "--out", str(tmp_path / "out"),
        "--plot",
    ]
    code = f"import sys; from shapdec.cli import main; print(main({argv!r}), {_LOADED_SCIPY})"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    exit_code, loaded = done.stdout.split(" ", 1)
    assert exit_code == "0"
    if sampler == "gaussian":
        assert loaded.strip() == "[]"
    else:
        assert "scipy.special" in loaded


def _loaded_scipy(code):
    done = subprocess.run(
        [sys.executable, "-c", f"{code}; print({_LOADED_SCIPY})"],
        capture_output=True, text=True, check=True,
    )
    return done.stdout.strip().splitlines()[-1]


def test_housing_generator_loads_no_scipy():
    code = "import sys, shapdec.synthetic as s; s.synthetic_housing()"
    assert _loaded_scipy(code) == "[]"


@pytest.mark.parametrize(
    "flags",
    [
        ["toy", "--k1", "50", "--k2", "50"],
        ["correlation", "--alphas", "0,0.5", "--k1", "50", "--k2", "50"],
        ["housing", "--synthetic", "--towns", "2", "--k1", "10", "--k2", "10"],
        ["fire", "--synthetic", "--k1", "10", "--k2", "10"],
    ],
    ids=["toy", "correlation", "housing", "fire"],
)
def test_experiment_loads_scipy_special_only_for_fire(tmp_path, flags):
    argv = ["experiment", *flags, "--out", str(tmp_path / "out")]
    code = f"import sys; from shapdec.cli import main; assert main({argv!r}) == 0"
    loaded = _loaded_scipy(code)
    if flags[0] == "fire":
        assert "'scipy.special'" in loaded
        assert "scipy.stats" not in loaded
    else:
        assert loaded == "[]"


def _no_decomposition(monkeypatch):
    """Make any decomposition by a study fail the test."""

    def fail(*args):
        raise AssertionError("the study started")

    monkeypatch.setattr(shapdec.experiments, "decompose", fail)


@pytest.mark.parametrize("index", [250, 999, -1])
def test_fire_sample_index_out_of_range_exits_2_before_the_study(
    tmp_path, capsys, monkeypatch, index
):
    _no_decomposition(monkeypatch)
    argv = ["experiment", "fire", "--synthetic", "--sample-index", str(index),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"sample index {index} outside 0..249" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("towns", [0, -3])
def test_housing_towns_below_one_exits_2_naming_the_flag(tmp_path, capsys, monkeypatch, towns):
    _no_decomposition(monkeypatch)
    argv = ["experiment", "housing", "--synthetic", "--towns", str(towns),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"--towns must be at least 1, got {towns}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--alphas", "0,abc"], "bad --alphas value"),
        (["--a12", "nan"], "a12 must be finite, got nan"),
        (["--alphas", "0,1.5"], "alpha 1.5 outside (-0.99, 0.99)"),
    ],
    ids=["alphas-not-a-number", "a12-nan", "second-alpha-out-of-range"],
)
def test_correlation_flags_exit_2_before_any_draw(tmp_path, capsys, monkeypatch, flags, message):
    # "0,abc" used to die with a ValueError, a12 nan to exit 3 after
    # drawing, and "0,1.5" to run alpha 0 before it rejected 1.5
    _no_decomposition(monkeypatch)
    argv = ["experiment", "correlation", *flags, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["linear", "forest"])
def test_explain_fit_reads_its_csv_once(tmp_path, housing_csv, monkeypatch, kind):
    calls = []
    read = shapdec.cli.read_csv
    monkeypatch.setattr(shapdec.cli, "read_csv", lambda *args: calls.append(args) or read(*args))
    argv = ["explain", "--data", str(housing_csv), "--fit", kind, "--target", "price",
            "--trees", "3", "--k1", "20", "--k2", "20", "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert calls == [(str(housing_csv), "price")]


def test_explain_fit_forest_is_the_fit_model_forest(tmp_path, housing_csv):
    # one fit path: the forest explain --fit grows is the one fit-model saves
    forest = ["--trees", "4", "--max-depth", "3", "--min-leaf", "7", "--seed", "5"]
    fit = ["--data", str(housing_csv), "--target", "price", *forest]
    assert main(["fit-model", "forest", *fit, "--out", str(tmp_path / "forest.json")]) == 0
    with housing_csv.open(newline="") as handle:
        rows = list(csv.reader(handle))
    _write_csv(tmp_path / "x.csv", rows[0][:3], [row[:3] for row in rows[1:]])
    budget = ["--k1", "20", "--k2", "20"]
    for name, source in (
        ("fitted", ["--fit", "forest", *fit]),
        ("loaded", ["--data", str(tmp_path / "x.csv"), "--model", str(tmp_path / "forest.json"),
                    *forest]),
    ):
        assert main(["explain", *source, *budget, "--out", str(tmp_path / name)]) == 0
    fitted, loaded = ((tmp_path / name / "decomposition.json").read_bytes()
                      for name in ("fitted", "loaded"))
    assert fitted == loaded


def test_explain_short_sample_is_ingestion_error(tmp_path, housing_csv, capsys):
    argv = [
        "explain", "--data", str(housing_csv), "--fit", "linear", "--target", "price",
        "--sample", "1,0", "--out", str(tmp_path / "out"),
    ]
    assert main(argv) == 2
    assert "sample has 2 values" in capsys.readouterr().err


# A stand-in model process: writes its pid to PIDFILE, answers the
# handshake and predicts the row sum (plus SHIFT outputs too many, or NaN
# for every row if NAN) after sleeping SLEEP seconds, then writes MARKER
# once its input ends.
_FAKE_BRIDGE = """\
import json, os, pathlib, sys, time
SHIFT = {shift}
NAN = {nan}
SLEEP = {sleep}
pathlib.Path({pidfile!r}).write_text(str(os.getpid()))
for line in sys.stdin:
    req = json.loads(line)
    if req["op"] == "hello":
        print(json.dumps({{"ok": True}}), flush=True)
    else:
        time.sleep(SLEEP)
        outs = [float("nan") if NAN else sum(row) for row in req["inputs"]]
        print(json.dumps({{"outputs": outs + [0.0] * SHIFT}}), flush=True)
pathlib.Path({marker!r}).write_text("end of input")
"""


def _bridge_model_json(tmp_path, shift=0, nan=False, sleep=0):
    marker = tmp_path / "bridge-finished"
    script = tmp_path / "bridge.py"
    script.write_text(
        _FAKE_BRIDGE.format(
            shift=shift,
            nan=nan,
            sleep=sleep,
            pidfile=str(tmp_path / "bridge-pid"),
            marker=str(marker),
        )
    )
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


def test_explain_model_sampler_mismatch_is_ingestion_error(tmp_path, capsys):
    model_path, _ = _bridge_model_json(tmp_path)  # a 3-feature bridge
    data = tmp_path / "two.csv"
    _write_csv(data, ["a", "b"], RngStream(2).generator().normal(size=(30, 2)).tolist())
    code = main(["explain", "--data", str(data), "--model", str(model_path), "--out",
                 str(tmp_path / "out")])
    assert code == 2
    assert "model has 3 features, sampler has 2" in capsys.readouterr().err
    assert not (tmp_path / "bridge-pid").exists()  # the bridge was never started


@pytest.mark.parametrize("field", ["threshold", "value"])
def test_explain_with_a_nan_forest_parameter_exits_2(tmp_path, capsys, field):
    # a NaN leaf used to load and fail at the model's outputs (exit 3); a
    # NaN threshold used to send every row right
    stump = {"split": 1, "threshold": 0.25, "left": {"value": 1.0}, "right": {"value": 2.0}}
    text = json.dumps({"kind": "forest", "task": "regression", "n_features": 3, "trees": [stump]})
    model_path = tmp_path / "forest.json"
    model_path.write_text(text.replace("0.25" if field == "threshold" else "2.0", "NaN"))
    assert _explain_with(model_path, tmp_path) == 2
    assert "finite" in capsys.readouterr().err


def test_explain_closes_the_external_model(tmp_path):
    model_path, marker = _bridge_model_json(tmp_path)
    assert _explain_with(model_path, tmp_path) == 0
    # the child saw end of input and finished before main returned
    assert marker.read_text() == "end of input"


def test_explain_nan_model_output_is_computation_error(tmp_path, capsys):
    model_path, _ = _bridge_model_json(tmp_path, nan=True)
    assert _explain_with(model_path, tmp_path) == 3
    assert "non-finite" in capsys.readouterr().err


def test_explain_silent_bridge_is_stopped_and_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(shapdec.models, "BRIDGE_REPLY_TIMEOUT_S", 0.5)
    model_path, marker = _bridge_model_json(tmp_path, sleep=60)
    assert _explain_with(model_path, tmp_path) == 3
    assert "no reply within 0.5 s" in capsys.readouterr().err
    # the child was killed part-way and reaped: its pid is gone
    pid = int((tmp_path / "bridge-pid").read_text())
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
    assert not marker.exists()


@pytest.mark.parametrize("kind", ["gaussian", "copula", "marginal", "discrete"])
def test_explain_plot_under_each_sampler(tmp_path, housing_csv, kind):
    sampler = shapdec.cli._build_sampler(kind, read_csv(housing_csv, "price")[0])
    assert type(sampler).__name__ == f"{kind.capitalize()}Sampler"
    out = tmp_path / "out"
    argv = ["explain", "--data", str(housing_csv), "--fit", "linear", "--target", "price",
            "--sampler", kind, "--row", "2", "--k1", "40", "--k2", "40", "--out", str(out),
            "--plot"]
    assert main(argv) == 0
    doc = json.loads((out / "decomposition.json").read_text())
    assert [f["name"] for f in doc["features"]] == ["a", "b", "c"]
    for f in doc["features"]:
        assert f["phi"] == pytest.approx(f["phi_int"] + f["phi_dep"], abs=1e-9)
    svg = (out / "force.svg").read_text()
    assert svg.startswith("<svg") and "a = " in svg and "c = " in svg


def test_explain_model_with_target_drops_the_target_column(tmp_path, housing_csv):
    # the saved OLS has 3 features; the CSV still holds its price column
    model_path = tmp_path / "model.json"
    fit = ["--data", str(housing_csv), "--target", "price"]
    assert main(["fit-model", "linear", *fit, "--out", str(model_path)]) == 0
    budget = ["--row", "4", "--k1", "30", "--k2", "30", "--plot"]
    for name, source in (("fitted", ["--fit", "linear"]), ("loaded", ["--model", str(model_path)])):
        assert main(["explain", *fit, *source, *budget, "--out", str(tmp_path / name)]) == 0
    for doc in ("decomposition.json", "force.svg"):
        fitted, loaded = ((tmp_path / name / doc).read_bytes() for name in ("fitted", "loaded"))
        assert fitted == loaded, doc


def _directory_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def _write_study_csv(path, data, target, target_name):
    with path.open("w") as handle:
        handle.write(",".join([*data.names, target_name]) + "\n")
        for row, y in zip(data.values, target):
            handle.write(",".join(repr(float(v)) for v in [*row, y]) + "\n")


def test_experiment_housing_synthetic_is_the_bundled_study(tmp_path):
    from shapdec.synthetic import synthetic_housing

    argv = ["experiment", "housing", "--synthetic", "--towns", "2", "--k1", "8", "--k2", "8",
            "--seed", "3", "--out", str(tmp_path / "cli")]
    assert main(argv) == 0
    data, target = synthetic_housing(seed=3)
    shapdec.experiments.run_imputation_study(
        data, target, "linear", 2, 8, 8, 3, tmp_path / "direct"
    )
    assert _directory_bytes(tmp_path / "cli") == _directory_bytes(tmp_path / "direct")


@pytest.mark.parametrize("study", ["housing", "fire"])
def test_experiment_from_csv_is_the_study_on_its_rows(tmp_path, study):
    from shapdec.synthetic import synthetic_fire, synthetic_housing

    if study == "housing":
        data, target = synthetic_housing(n=30, seed=1)
        flags = ["--towns", "40"]  # capped at the 30 rows

        def direct(out):
            shapdec.experiments.run_imputation_study(data, target, "linear", 30, 8, 8, 2, out)
    else:
        data, target = synthetic_fire(n=30, seed=1)
        flags = ["--sample-index", "4"]

        def direct(out):
            shapdec.experiments.run_fire_study(data, target, 8, 8, 2, 4, out)
    path = tmp_path / "study.csv"
    _write_study_csv(path, data, target, "y")
    argv = ["experiment", study, "--data", str(path), "--target", "y", *flags,
            "--k1", "8", "--k2", "8", "--seed", "2", "--out", str(tmp_path / "cli")]
    assert main(argv) == 0
    direct(tmp_path / "direct")
    assert _directory_bytes(tmp_path / "cli") == _directory_bytes(tmp_path / "direct")


@pytest.mark.parametrize("study", ["housing", "fire"])
@pytest.mark.parametrize("given", [[], ["--data", "d.csv"], ["--target", "y"]],
                         ids=["neither", "data-only", "target-only"])
def test_study_without_its_data_exits_2(tmp_path, capsys, monkeypatch, study, given):
    _no_decomposition(monkeypatch)
    argv = ["experiment", study, *given, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"{study} needs --data and --target (or --synthetic)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_explain_model_and_fit_together_is_a_usage_error(tmp_path, housing_csv, capsys):
    # --fit used to be ignored next to --model: exit 0, meta.model "linear(M=3)"
    model_path = tmp_path / "model.json"
    fit = ["--data", str(housing_csv), "--target", "price"]
    assert main(["fit-model", "linear", *fit, "--out", str(model_path)]) == 0
    argv = ["explain", *fit, "--model", str(model_path), "--fit", "forest", "--trees", "2",
            "--k1", "20", "--k2", "20", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("row", ["7", "0"])
def test_explain_sample_and_row_together_is_a_usage_error(tmp_path, housing_csv, capsys, row):
    # --row used to be ignored next to --sample
    argv = ["explain", "--data", str(housing_csv), "--target", "price", "--fit", "linear",
            "--sample", "0.1,0.2,0.3", "--row", row, "--k1", "20", "--k2", "20",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_explain_without_model_or_fit_exits_2(tmp_path, housing_csv, capsys):
    argv = ["explain", "--data", str(housing_csv), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "need either --model or --fit" in capsys.readouterr().err


@pytest.mark.parametrize("study", ["housing", "fire"])
@pytest.mark.parametrize("given", [["--data", "no-such.csv"], ["--target", "nope"],
                                   ["--data", "no-such.csv", "--target", "nope"]],
                         ids=["data", "target", "both"])
def test_synthetic_study_with_data_or_target_exits_2(tmp_path, capsys, monkeypatch, study, given):
    # both flags used to be ignored: the bundled generator ran and exit was 0
    _no_decomposition(monkeypatch)
    argv = ["experiment", study, "--synthetic", *given, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"{study} --synthetic takes no --data or --target" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fit-model", "explain"])
def test_forest_min_leaf_below_one_exits_2(tmp_path, housing_csv, capsys, command):
    # min_leaf 0 used to die in the split search with an IndexError
    fit = ["--data", str(housing_csv), "--target", "price", "--trees", "2", "--min-leaf", "0"]
    if command == "fit-model":
        argv = ["fit-model", "forest", *fit, "--out", str(tmp_path / "forest.json")]
    else:
        argv = ["explain", "--fit", "forest", *fit, "--k1", "20", "--k2", "20",
                "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "--min-leaf must be at least 1, got 0" in capsys.readouterr().err


def _doc(**fields):
    return json.dumps(fields)


_LEFTLESS = {"split": 0, "threshold": 0.0, "right": {"value": 1.0}}


def _SPLIT_AT(feature):
    return {"split": feature, "threshold": 0.0, "left": {"value": 0.0}, "right": {"value": 1.0}}


_DEEP = 100_000  # tree levels, past the recursion limit
_DEEP_FOREST = (
    '{"kind": "forest", "task": "regression", "n_features": 3, "trees": ['
    + '{"split": 0, "threshold": 0.0, "right": {"value": 1.0}, "left": ' * _DEEP
    + '{"value": 0.0}' + "}" * _DEEP + "]}"
)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "a model document must be a JSON object"),
        (_doc(kind="linear", intercept=0.0), "linear model document has no 'coefficients'"),
        (_doc(kind="linear", coefficients="abc", intercept=0.0), "malformed linear model"),
        (_doc(kind="linear", coefficients=5, intercept=0.0), "coefficients must be a vector"),
        (_doc(kind="forest", task="regression", n_features=3),
         "forest model document has no 'trees'"),
        (_doc(kind="forest", task="regression", n_features=3, trees=[_LEFTLESS]),
         "forest model document has no 'left'"),
        (_DEEP_FOREST, "bad model JSON"),
        (_doc(kind="external", n_features=3), "external model document has no 'cmd'"),
        (_doc(kind="external", cmd=5, n_features=3), "cmd must be a non-empty list of strings"),
        (_doc(kind="external", cmd="python3", n_features=3), "cmd must be a non-empty list"),
        (_doc(kind="external", cmd=[], n_features=3), "cmd must be a non-empty list"),
        (_doc(kind="tabulated", support=[[0.0, 0.0], [1.0, 1.0]], outputs=[0.0, 1.0]),
         "unknown model kind 'tabulated'"),
        (_doc(kind="forest", task="regression", n_features=3.9, trees=[{"value": 1.0}]),
         "field 'n_features' must be an integer >= 1, got 3.9"),
        (_doc(kind="forest", task="regression", n_features=3, trees=[_SPLIT_AT(1.7)]),
         "field 'split' must be an integer >= 0, got 1.7"),
        (_doc(kind="forest", task="regression", n_features=3, trees=[_SPLIT_AT(True)]),
         "field 'split' must be an integer >= 0, got True"),
        (_doc(kind="external", cmd=["python3"], n_features=-2),
         "field 'n_features' must be an integer >= 1, got -2"),
        (_doc(kind="external", cmd=["python3"], n_features=True),
         "field 'n_features' must be an integer >= 1, got True"),
        (_doc(kind="external", cmd=["python3"], n_features="3"),
         "field 'n_features' must be an integer >= 1, got '3'"),
        (_doc(kind="linear", coefficients=[True, False], intercept=0.0),
         "field 'coefficients'[0] must be a JSON number, got True"),
        (_doc(kind="linear", coefficients=["1", "2.5"], intercept=0.0),
         "field 'coefficients'[0] must be a JSON number, got '1'"),
        (_doc(kind="linear", coefficients=[1.0, 2.5, 3.0], intercept="1e0"),
         "field 'intercept' must be a JSON number, got '1e0'"),
        (_doc(kind="linear", coefficients=[1.0, 2.5, 3.0], intercept=True),
         "field 'intercept' must be a JSON number, got True"),
        ('{"kind": "linear", "coefficients": [1.0, 2.5, 3.0], "intercept": 1' + "0" * 400 + "}",
         "malformed linear model document: int too large to convert to float"),
        (_doc(kind="forest", task="regression", n_features=3,
              trees=[dict(_SPLIT_AT(0), threshold=True)]),
         "field 'threshold' must be a JSON number, got True"),
        (_doc(kind="forest", task="regression", n_features=3,
              trees=[dict(_SPLIT_AT(0), threshold="0.5")]),
         "field 'threshold' must be a JSON number, got '0.5'"),
        (_doc(kind="forest", task="regression", n_features=3, trees=[{"value": True}]),
         "field 'value' must be a JSON number, got True"),
        (_doc(kind="forest", task="regression", n_features=3, trees=[{"value": "0.5"}]),
         "field 'value' must be a JSON number, got '0.5'"),
    ],
    ids=["not-an-object", "no-coefficients", "string-coefficients", "scalar-coefficients",
         "no-trees", "no-left", "nested-too-deep", "no-cmd", "number-cmd", "string-cmd",
         "empty-cmd", "tabulated", "float-n-features", "float-split", "bool-split",
         "negative-n-features", "bool-n-features", "string-n-features", "bool-coefficients",
         "string-coefficient-entries", "string-intercept", "bool-intercept", "huge-intercept",
         "bool-threshold", "string-threshold", "bool-value", "string-value"],
)
def test_malformed_model_document_exits_2_with_one_error_line(tmp_path, capsys, text, message):
    # each used to exit 1 with a traceback (KeyError, ValueError, TypeError,
    # AttributeError, RecursionError), or to launch a string's first letter
    model_path = tmp_path / "model.json"
    model_path.write_text(text)
    assert _explain_with(model_path, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


_CSV = ["--data", "data.csv", "--target", "price"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["explain", *_CSV, "--fit", "linear", "--k1", "0"], "--k1 must be at least 1, got 0"),
        (["explain", *_CSV, "--fit", "linear", "--k2", "0"], "--k2 must be at least 1, got 0"),
        (["explain", *_CSV, "--fit", "forest", "--max-depth", "-3"],
         "--max-depth must be at least 0, got -3"),
        (["explain", *_CSV, "--fit", "forest", "--trees", "0"], "--trees must be at least 1, got 0"),
        (["experiment", "housing", *_CSV, "--k1", "0"], "--k1 must be at least 1, got 0"),
        (["experiment", "toy", "--k2", "-5"], "--k2 must be at least 1, got -5"),
        (["fit-model", "forest", *_CSV, "--max-depth", "-3"],
         "--max-depth must be at least 0, got -3"),
    ],
    ids=["explain-k1", "explain-k2", "explain-max-depth", "explain-trees", "experiment-k1",
         "experiment-k2", "fit-model-max-depth"],
)
def test_budget_and_forest_flags_below_their_floor_exit_2_before_any_read(
        tmp_path, capsys, monkeypatch, argv, message):
    # --k1 0 used to exit 3 after the read and the fit; --max-depth -3 to exit 0
    def read(*args):
        raise AssertionError("the data were read")

    monkeypatch.setattr(shapdec.cli, "read_csv", read)
    _no_decomposition(monkeypatch)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["explain", "experiment", "fit-model"])
def test_unwritable_out_exits_1_with_one_error_line(tmp_path, housing_csv, capsys, monkeypatch,
                                                   command):
    # each used to exit 1 with a traceback; explain and experiment only
    # after their work
    taken = tmp_path / "taken"
    taken.write_text("")
    fit = ["--data", str(housing_csv), "--target", "price"]
    _no_decomposition(monkeypatch)
    if command == "explain":
        def read(*args):
            raise AssertionError("the data were read")

        monkeypatch.setattr(shapdec.cli, "read_csv", read)
        argv = ["explain", *fit, "--fit", "linear", "--out", str(taken)]
    elif command == "experiment":
        argv = ["experiment", "toy", "--out", str(taken)]
    else:
        argv = ["fit-model", "linear", *fit, "--out", str(tmp_path)]  # a directory
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write: ") and err.count("\n") == 1
    assert taken.read_text() == ""


def test_feature_names_are_escaped_in_the_force_plot(tmp_path):
    # R&D and b<c used to make force.svg ill-formed XML
    data = tmp_path / "odd.csv"
    gen = RngStream(6).generator()
    x = gen.normal(size=(60, 3))
    _write_csv(data, ["R&D", "b<c", 'q"t', "y"],
               np.column_stack([x, x @ [1.0, -1.0, 0.5]]).round(6).tolist())
    out = tmp_path / "out"
    argv = ["explain", "--data", str(data), "--target", "y", "--fit", "linear",
            "--k1", "20", "--k2", "20", "--out", str(out), "--plot"]
    assert main(argv) == 0
    svg = ET.parse(out / "force.svg")
    labels = [e.text for e in svg.iter("{http://www.w3.org/2000/svg}text")]
    for name in ("R&D", "b<c", 'q"t'):
        assert any(label.startswith(f"{name} = ") for label in labels)
