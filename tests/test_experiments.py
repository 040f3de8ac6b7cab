import json
import math

import numpy as np
import pytest

from shapdec import experiments
from shapdec.core import RngStream
from shapdec.engine import shapley_residuals
from shapdec.errors import IngestionError
from shapdec.experiments import (
    exact_interaction_value_function,
    interaction_model,
    run_correlation_study,
    run_fire_study,
    run_imputation_study,
    run_toy,
    toy_joint,
    write_json,
)
from shapdec.synthetic import (
    FIRE_NAMES,
    HOUSING_NAMES,
    housing_covariance,
    synthetic_fire,
    synthetic_housing,
)


def test_write_json_is_canonical(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"b": 1, "a": [1.5, 2]})
    text = path.read_text()
    assert text == '{\n  "a": [\n    1.5,\n    2\n  ],\n  "b": 1\n}\n'


def test_toy_joint_marginals():
    joint = toy_joint()
    # fair marginals, agreement probability 0.7
    assert joint.probs.sum() == pytest.approx(1.0)
    agree = joint.probs[[0, 3]].sum()
    assert agree == pytest.approx(0.7)


def test_run_toy_exact_block(tmp_path):
    result = run_toy(k1=500, k2=500, seed=0, out_dir=tmp_path)
    exact = result["exact"]
    assert exact["base"] == pytest.approx(0.5, abs=1e-12)
    phis = [f["phi"] for f in exact["features"]]
    assert phis == pytest.approx([0.4, 0.1], abs=1e-12)
    assert (tmp_path / "results.json").exists()
    assert (tmp_path / "force.svg").exists()
    # written file reloads to the same dict
    assert json.loads((tmp_path / "results.json").read_text()) == result


def test_interaction_model_values():
    model = interaction_model(2.0)
    out = model.predict([[1.0, 1.0], [1.0, 0.0]])
    assert np.allclose(out, [4.0, 1.0])


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75])
def test_exact_interaction_value_function_closed_forms(alpha):
    a12 = 2.0
    x = np.array([1.0, 1.0])
    table = shapley_residuals(exact_interaction_value_function(a12, alpha, x))
    analytic = math.sqrt(2.0) * abs(0.5 * a12 - (1.0 + 0.5 * a12) * alpha)
    assert table.norm(0) == pytest.approx(analytic, abs=1e-9)
    assert table.norm(1) == pytest.approx(analytic, abs=1e-9)


def test_run_correlation_study_rows(tmp_path):
    result = run_correlation_study(
        a12=2.0, alphas=(0.0, 0.5), k1=2000, k2=3000, seed=0, out_dir=tmp_path
    )
    rows = result["rows"]
    assert [r["alpha"] for r in rows] == [0.0, 0.5]
    for r in rows:
        assert r["estimated_phi_dep"] == pytest.approx(r["analytic_phi_dep"], abs=0.1)
        assert r["estimated_residual_norm"] == pytest.approx(
            r["analytic_residual_norm"], abs=1e-9
        )
    assert (tmp_path / "correlation.svg").exists()


def test_run_correlation_study_rejects_extreme_alpha():
    with pytest.raises(IngestionError):
        run_correlation_study(alphas=(0.999,), k1=10, k2=10)


def test_housing_generator_shapes():
    data, target = synthetic_housing(n=100, seed=3)
    assert data.names == HOUSING_NAMES
    assert data.values.shape == (100, 13)
    assert target.shape == (100,)
    cov = housing_covariance()
    assert np.allclose(cov, cov.T)
    assert np.all(np.linalg.eigvalsh(cov) > 0)


def test_housing_generator_is_correlated():
    data, _ = synthetic_housing(n=2000, seed=1)
    corr = np.corrcoef(data.values, rowvar=False)
    off = corr[~np.eye(13, dtype=bool)]
    assert np.max(np.abs(off)) > 0.5


def test_fire_generator_shapes_and_labels():
    data, labels = synthetic_fire(n=80, seed=2)
    assert data.names == FIRE_NAMES
    assert set(np.unique(labels)) <= {0.0, 1.0}
    assert 0 < labels.mean() < 1


def _scipy_fire(n, seed):
    """The independent fire generator rebuilt on scipy.stats.rankdata."""
    from scipy.special import ndtr, ndtri
    from scipy.stats import rankdata

    def scores(z):
        return np.column_stack([ndtri((rankdata(col) - 0.5) / n) for col in z.T])

    gen = RngStream(seed, 3).generator()
    z = gen.standard_normal((n, 4))
    for _ in range(4):
        s = scores(z)
        vals, vecs = np.linalg.eigh(np.corrcoef(s, rowvar=False))
        z = s @ (vecs * (1.0 / np.sqrt(vals))) @ vecs.T
    z = scores(z)
    t, rh, ws = 32.0 + 4.0 * z[:, 0], 62.0 + 10.0 * z[:, 1], 15.0 + 3.0 * z[:, 2]
    rain = 0.8 * -np.log1p(-np.clip(ndtr(z[:, 3]), 0.0, 1.0 - 1e-12))
    logit = 0.45 * (t - 32.0) - 0.12 * (rh - 62.0) + 0.25 * (ws - 15.0) - 1.8 * rain + 0.4
    labels = (gen.uniform(size=n) < 1.0 / (1.0 + np.exp(-logit))).astype(float)
    return np.column_stack([t, rh, ws, rain]), labels


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fire_generator_matches_a_scipy_rank_rebuild(seed):
    data, labels = synthetic_fire(seed=seed)
    values, ref_labels = _scipy_fire(250, seed)
    assert np.array_equal(data.values, values)
    assert np.array_equal(labels, ref_labels)


def test_run_imputation_study_small(tmp_path):
    data, target = synthetic_housing(n=60, seed=0)
    result = run_imputation_study(
        data, target, "linear", towns=4, k1=40, k2=60, seed=0, out_dir=tmp_path
    )
    curves = result["curves"]
    assert len(curves) == 6
    for key, values in curves.items():
        assert len(values) == 14
        assert values[0] == 0.0
    # all features imputed with marginal means: selection order cannot matter
    finals = {
        key: values[-1] for key, values in curves.items() if key.endswith("marginal-mean")
    }
    spread = max(finals.values()) - min(finals.values())
    assert spread < 1e-9
    for name in (
        "imputation_marginal-mean.svg",
        "imputation_conditional-mean.svg",
        "difference_marginal-mean.svg",
        "difference_conditional-mean.svg",
        "imputation_marginal-mean_std.svg",
    ):
        assert (tmp_path / name).exists()


def test_run_imputation_study_town_cap():
    data, target = synthetic_housing(n=10, seed=0)
    for towns in (11, 0):
        with pytest.raises(IngestionError, match=f"towns={towns} outside 1..10"):
            run_imputation_study(data, target, "linear", towns=towns, k1=10, k2=10)


def test_run_fire_study_smoke(tmp_path):
    data, labels = synthetic_fire(n=40, seed=0)
    result = run_fire_study(
        data,
        labels,
        k1=30,
        k2=40,
        seed=0,
        sample_index=1,
        out_dir=tmp_path,
    )
    assert result["names"] == list(FIRE_NAMES)
    assert len(result["spearman_phi_int"]) == 4
    for name in ("force_decomposition.svg", "force_classic.svg", "graph.dot", "results.json"):
        assert (tmp_path / name).exists()
    dot = (tmp_path / "graph.dot").read_text()
    assert '"f"' in dot


def test_run_fire_study_rejects_nonbinary_labels():
    data, labels = synthetic_fire(n=30, seed=0)
    with pytest.raises(IngestionError):
        run_fire_study(data, labels + 0.5, k1=10, k2=10)


def test_experiments_reproducible():
    data, target = synthetic_housing(n=50, seed=0)
    a = run_imputation_study(data, target, "linear", towns=3, k1=20, k2=30, seed=5)
    b = run_imputation_study(data, target, "linear", towns=3, k1=20, k2=30, seed=5)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_imputation_study_draws_depend_on_its_seed(monkeypatch):
    # with towns = n both seeds explain the same rows; their draws must differ
    data, target = synthetic_housing(n=16, seed=0)
    seeds = {}
    real = experiments.decompose

    def recorder(model, sampler, *args):
        seeds.setdefault(type(sampler).__name__, []).append(args[-1])
        return real(model, sampler, *args)

    monkeypatch.setattr(experiments, "decompose", recorder)
    per_study = []
    for study_seed in (0, 1):
        seeds.clear()
        run_imputation_study(data, target, "linear", towns=16, k1=8, k2=8, seed=study_seed)
        per_study.append({kind: set(drawn) for kind, drawn in seeds.items()})
    assert per_study[0].keys() == {"GaussianSampler", "MarginalSampler"}
    for kind, drawn in per_study[0].items():
        assert len(drawn) == 16
        assert not drawn & per_study[1][kind], kind
    # both rankings of a town walk the same permutations
    assert per_study[0]["GaussianSampler"] == per_study[0]["MarginalSampler"]


def test_run_imputation_study_forest(tmp_path):
    data, target = synthetic_housing(n=40, seed=2)
    result = run_imputation_study(
        data, target, "forest", towns=2, k1=8, k2=8, seed=1, out_dir=tmp_path
    )
    assert result["model"].startswith("forest")
    for key, values in result["curves"].items():
        assert len(values) == 14 and values[0] == 0.0
    finals = [v[-1] for k, v in result["curves"].items() if k.endswith("marginal-mean")]
    assert max(finals) - min(finals) < 1e-9
    assert json.loads((tmp_path / "results.json").read_text()) == result


def test_run_imputation_study_rejects_an_unknown_model_kind():
    data, target = synthetic_housing(n=10, seed=0)
    with pytest.raises(IngestionError, match="unknown model kind 'tree'"):
        run_imputation_study(data, target, "tree", towns=2, k1=8, k2=8)
