"""Acceptance gate: one test per release criterion.

Each test pins the tolerance it must meet and asserts its runtime
budget. Slow ones live at the bottom.
"""

import json
import math
import time

import numpy as np
import pytest

from shapdec.cli import main
from shapdec.core import FeatureMatrix, RngStream
from shapdec.distributions import (
    DiscreteJoint,
    DiscreteSampler,
    GaussianModel,
    GaussianSampler,
    MarginalSampler,
    fit_gaussian,
)
from shapdec.engine import (
    decompose,
    exact_decomposition,
    shapley_residuals,
)
from shapdec.experiments import (
    run_correlation_study,
    run_fire_study,
    run_imputation_study,
    toy_joint,
    toy_risk_model,
)
from shapdec.models import CallableModel, LinearModel, fit_ols
from shapdec.synthetic import synthetic_fire, synthetic_housing

TOY_X = np.array([1.0, 1.0])
TOY_BASE = 0.5
TOY_PHI = np.array([0.4, 0.1])
TOY_PHI_INT = np.array([0.4, 0.0])
TOY_PHI_DEP = np.array([0.0, 0.1])


class _Stopwatch:
    def __init__(self, budget_seconds):
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.budget, (
                f"runtime budget exceeded: {elapsed:.1f}s >= {self.budget}s"
            )


def _random_binary_joint(m, gen):
    support = np.array(
        [[(mask >> i) & 1 for i in range(m)] for mask in range(1 << m)], dtype=float
    )
    return DiscreteJoint(support, gen.dirichlet(np.ones(len(support))))


def test_a01_toy_exact_oracle():
    """Hand-enumerable two-binary-feature problem, exact to 1e-12."""
    with _Stopwatch(1.0):
        dec = exact_decomposition(toy_risk_model(), toy_joint(), TOY_X)
    assert abs(dec.base - TOY_BASE) < 1e-12
    assert np.max(np.abs(dec.phi - TOY_PHI)) < 1e-12
    assert np.max(np.abs(dec.phi_int - TOY_PHI_INT)) < 1e-12
    assert np.max(np.abs(dec.phi_dep - TOY_PHI_DEP)) < 1e-12


def test_a02_sampled_pipeline_matches_oracle():
    """Seed-averaged sampled decomposition within +/-0.02 of the oracle."""
    sampler = DiscreteSampler(toy_joint())
    model = toy_risk_model()
    k = 10_000
    with _Stopwatch(10.0):
        decs = [decompose(model, sampler, TOY_X, k, k, seed) for seed in range(5)]
    base = np.mean([d.base for d in decs])
    phi = np.mean([d.phi for d in decs], axis=0)
    phi_int = np.mean([d.phi_int for d in decs], axis=0)
    phi_dep = np.mean([d.phi_dep for d in decs], axis=0)
    assert abs(base - TOY_BASE) < 0.02
    assert np.max(np.abs(phi - TOY_PHI)) < 0.02
    assert np.max(np.abs(phi_int - TOY_PHI_INT)) < 0.02
    assert np.max(np.abs(phi_dep - TOY_PHI_DEP)) < 0.02


def test_a03_interaction_closed_forms():
    """Dependent parts track 1.5*alpha and residual norms sqrt(2)|1-2a|."""
    with _Stopwatch(60.0):
        result = run_correlation_study(
            a12=2.0, alphas=(0.0, 0.25, 0.5, 0.75), k1=20_000, k2=40_000, seed=0
        )
    for row in result["rows"]:
        alpha = row["alpha"]
        assert row["analytic_phi_dep"] == pytest.approx(1.5 * alpha, abs=1e-12)
        assert abs(row["estimated_phi_dep"] - 1.5 * alpha) < 0.05
        analytic_norm = math.sqrt(2.0) * abs(1.0 - 2.0 * alpha)
        assert abs(row["estimated_residual_norm"] - analytic_norm) < 1e-9
    norms = {row["alpha"]: row["estimated_residual_norm"] for row in result["rows"]}
    assert norms[0.5] < 1e-9  # the zero crossing


def test_a04_residual_weighted_average_vanishes():
    """Permutation-weighted residual averages are identically zero."""
    gen = RngStream(404).generator()
    with _Stopwatch(10.0):
        for _ in range(20):
            joint = _random_binary_joint(3, gen)
            w = gen.normal(size=3)
            b = gen.normal()
            model = CallableModel(
                lambda rows, w=w, b=b: rows @ w + b * rows[:, 0] * rows[:, 1], 3
            )
            x = joint.support[int(gen.integers(len(joint.support)))]
            v = []
            for mask in range(8):
                rows, probs = joint.restrict(mask, x)
                v.append(probs @ model.predict(rows))
            for i, r in enumerate(shapley_residuals(v)):
                # the Shapley weight of each S without i, ascending
                sizes = [mask.bit_count() for mask in range(8) if not mask >> i & 1]
                w = [math.factorial(s) * math.factorial(2 - s) / 6 for s in sizes]
                assert abs(np.dot(w, r)) < 1e-12


def test_a05_dummy_feature_gets_zero_interventional_part():
    """Ignored features receive no interventional attribution."""
    gen = RngStream(505).generator()
    with _Stopwatch(60.0):
        for trial in range(10):
            # correlated 3-feature Gaussian; the model ignores feature j
            a = gen.normal(size=(3, 3))
            cov = a @ a.T + np.eye(3)
            mu = gen.normal(size=3)
            j = int(gen.integers(3))
            keep = [i for i in range(3) if i != j]
            w = gen.normal(size=2)
            model = CallableModel(lambda rows, w=w, keep=keep: rows[:, keep] @ w, 3)
            x = gen.multivariate_normal(mu, cov)
            sampler = GaussianSampler(GaussianModel(mu, cov))
            # each paired difference compares a row with its copy, and the
            # two differ only in a column the model ignores
            phi_int = decompose(model, sampler, x, 2_000, 2_000, trial).phi_int
            assert abs(phi_int[j]) <= 1e-12

        # exact oracle variant on a discrete joint
        for trial in range(5):
            joint = _random_binary_joint(3, gen)
            j = int(gen.integers(3))
            keep = [i for i in range(3) if i != j]
            w = gen.normal(size=2)
            model = CallableModel(lambda rows, w=w, keep=keep: rows[:, keep] @ w, 3)
            x = joint.support[int(gen.integers(len(joint.support)))]
            dec = exact_decomposition(model, joint, x)
            assert abs(dec.phi_int[j]) < 1e-12


def _additive_split_deltas(components, m, joint, x) -> np.ndarray:
    """Per feature i, phi_int[i] of the sum of ``components`` minus that of
    the sum of the components that read i, both exact. A component is a
    (features, fn) pair whose fn reads only those feature columns."""

    def summed(parts):
        return CallableModel(lambda rows: sum((fn(rows) for _, fn in parts), np.zeros(len(rows))), m)

    full = exact_decomposition(summed(components), joint, x).phi_int
    return np.array([
        full[i] - exact_decomposition(summed([c for c in components if i in c[0]]), joint, x).phi_int[i]
        for i in range(m)
    ])


def test_a06_additive_models_split_cleanly():
    """A feature's interventional part only sees components containing it."""
    gen = RngStream(606).generator()
    with _Stopwatch(10.0):
        for _ in range(10):
            joint = _random_binary_joint(4, gen)
            w = gen.normal(size=6)
            components = [
                ((0,), lambda r, w=w: w[0] * r[:, 0]),
                ((1, 2), lambda r, w=w: w[1] * r[:, 1] * r[:, 2]),
                ((2, 3), lambda r, w=w: w[2] * r[:, 2] + w[3] * r[:, 3] * r[:, 2]),
                ((3,), lambda r, w=w: w[4] * r[:, 3] + w[5]),
            ]
            x = joint.support[int(gen.integers(len(joint.support)))]
            deltas = _additive_split_deltas(components, 4, joint, x)
            assert np.max(np.abs(deltas)) <= 1e-12


def test_additive_split_check_flags_nothing_on_additive_models():
    joint = _random_binary_joint(3, RngStream(21).generator())
    components = [((0,), lambda rows: 2.0 * rows[:, 0]), ((1, 2), lambda rows: rows[:, 1] * rows[:, 2])]
    deltas = _additive_split_deltas(components, 3, joint, np.array([1.0, 0.0, 1.0]))
    assert np.max(np.abs(deltas)) <= 1e-12


def test_a07_linear_interventional_closed_form():
    """Interventional SHAP of a linear model is a_i (x_i - mean_i)."""
    gen = RngStream(707).generator()
    coef = np.array([1.2, -0.7, 2.0, 0.9])
    with _Stopwatch(30.0):
        a = gen.normal(size=(4, 4))
        cov = a @ a.T + np.eye(4)
        rows = gen.multivariate_normal(np.zeros(4), cov, size=4000)
        data = FeatureMatrix(("a", "b", "c", "d"), rows)
        model = LinearModel(coef, 3.0)
        mean = rows.mean(axis=0)
        sd = rows.std(axis=0)
        x = mean + 1.5 * sd  # keep every psi_i well away from zero
        psi = decompose(model, MarginalSampler(data), x, 40_000, 40_000, 7).phi
        expected = coef * (x - mean)
        rel = np.abs(psi - expected) / np.abs(expected)
        assert np.max(rel) < 0.02


def test_a08_independent_sampler_collapses_the_split():
    """Without dependencies phi_dep vanishes and phi_int matches psi."""
    gen = RngStream(808).generator()
    with _Stopwatch(30.0):
        rows = gen.normal(size=(2000, 3))  # unit-scale independent features
        data = FeatureMatrix(("a", "b", "c"), rows)
        model = CallableModel(
            lambda r: r[:, 0] - 0.5 * r[:, 1] + 0.25 * r[:, 0] * r[:, 2], 3
        )
        x = np.array([1.0, -1.0, 0.5])
        dec = decompose(model, MarginalSampler(data), x, 20_000, 20_000, 0)
        assert np.max(np.abs(dec.phi_dep)) <= 0.03
        psi = decompose(model, MarginalSampler(data), x, 20_000, 20_000, 11).phi
        assert np.max(np.abs(dec.phi_int - psi)) <= 0.03


def _exact_linear_gaussian(model, gauss, x):
    """Closed-form split of a linear model under a fitted Gaussian.

    E[f(X) | x_S] = f(E[X | x_S]) for a linear f, so everything follows
    from one conditional mean per coalition mask, solved with plain
    ``np.linalg.solve``, for all rows of ``x`` at once. Returns v (one row
    of v[S] = f(E[X | x_S]) per mask), and phi_int and phi (rows x M).
    """
    coef, mu, cov = model.coefficients, gauss.mean, gauss.cov
    n, m = x.shape
    masks = np.arange(1 << m)
    sizes = np.array([bin(mask).count("1") for mask in masks])
    weight = np.array(
        [math.factorial(s) * math.factorial(m - s - 1) for s in range(m)]
    ) / math.factorial(m)
    v = np.empty((1 << m, n))
    phi_int = np.zeros((n, m))
    for mask in masks:
        known = [i for i in range(m) if mask >> i & 1]
        missing = [i for i in range(m) if not mask >> i & 1]
        e = np.tile(mu, (n, 1))
        if known:
            gain = np.linalg.solve(
                cov[np.ix_(known, known)], (x[:, known] - mu[known]).T
            )
            e[:, missing] += (cov[np.ix_(missing, known)] @ gain).T
            e[:, known] = x[:, known]
        v[mask] = e @ coef + model.intercept
        if missing:
            # S precedes each missing i with Shapley weight w(|S|); the paired
            # difference of a linear model is coef_i (x_i - E[X_i | x_S])
            phi_int[:, missing] += (
                weight[len(known)] * coef[missing] * (x[:, missing] - e[:, missing])
            )
    phi = np.zeros((n, m))
    for i in range(m):
        without = masks[(masks >> i) & 1 == 0]
        phi[:, i] = weight[sizes[without]] @ (v[without | 1 << i] - v[without])
    return v, phi_int, phi


def _exact_imputation_curves(data, target, towns, seed):
    """Closed-form curves of ``run_imputation_study`` for its linear model.

    Under the fitted Gaussian, both imputations and all three attributions
    follow from ``_exact_linear_gaussian``. Returns the six mean curves,
    keyed like the study.
    """
    model = fit_ols(data, target)
    gauss = fit_gaussian(data)
    coef, mu = model.coefficients, gauss.mean
    m = data.n_features
    gen = RngStream(seed).substream(0).generator()  # the study's towns
    x = data.values[np.sort(gen.choice(data.n_rows, size=towns, replace=False))]
    v, phi_int, phi_cond = _exact_linear_gaussian(model, gauss, x)
    attributions = {
        "interventional-shap": coef * (x - mu),  # v(S) = f(x_S, column means)
        "interventional-part": phi_int,
        "conditional-shap": phi_cond,
    }
    full = (1 << m) - 1
    zero = np.zeros((towns, 1))
    curves = {}
    for sel, phi in attributions.items():
        order = np.argsort(phi, axis=1, kind="stable")  # most negative first
        removed = np.cumsum(1 << order, axis=1)  # mask imputed after k steps
        marginal = np.cumsum(np.take_along_axis(coef * (mu - x), order, axis=1), axis=1)
        conditional = v[full ^ removed, np.arange(towns)[:, None]] - v[full][:, None]
        curves[f"{sel}|marginal-mean"] = np.hstack([zero, marginal]).mean(axis=0)
        curves[f"{sel}|conditional-mean"] = np.hstack([zero, conditional]).mean(axis=0)
    return curves


A13_ROWS = (3, 77, 150, 268, 431)  # synthetic-housing rows explained by a13
# RMSE over the five rows at k1=200, k2=400; each bound is about twice the
# largest seen over seeds 0-4 (0.165, 0.045 and 0.162)
A13_RMSE_MAX = {"phi": 0.33, "phi_int": 0.09, "phi_dep": 0.31}


def test_a13_housing_split_matches_closed_form():
    """At M=13 the permutation walk's split is within its measured error of
    the closed form, and efficiency is exact."""
    data, target = synthetic_housing(n=506, seed=0)
    model = fit_ols(data, target)
    gauss = fit_gaussian(data)
    x = data.values[list(A13_ROWS)]
    fx = model.predict(x)
    with _Stopwatch(60.0):
        _, phi_int, phi = _exact_linear_gaussian(model, gauss, x)
        exact = {"phi": phi, "phi_int": phi_int, "phi_dep": phi - phi_int}
        sampler = GaussianSampler(gauss)
        for seed in range(3):
            decs = [
                decompose(model, sampler, row, 200, 400, 1000 * seed + j)
                for j, row in enumerate(x)
            ]
            for dec, f in zip(decs, fx):
                assert dec.meta["estimator"] == "walk"
                assert abs(dec.base + dec.phi.sum() - f) <= 1e-9
            for part, bound in A13_RMSE_MAX.items():
                est = np.array([getattr(dec, part) for dec in decs])
                rmse = float(np.sqrt(np.mean((est - exact[part]) ** 2)))
                assert rmse <= bound, (part, seed, rmse)


# interior-k means of the exact curves at towns=200, seed=0
A09_EXACT_INTERIOR_MEANS = {
    "interventional-shap|marginal-mean": 4.096,
    "interventional-part|marginal-mean": 3.305,
    "conditional-shap|marginal-mean": 2.429,
    "interventional-shap|conditional-mean": 2.155,
    "interventional-part|conditional-mean": 2.932,
    "conditional-shap|conditional-mean": 3.403,
}


@pytest.mark.slow
def test_a09_imputation_study_ordering():
    """Feature-removal benchmark on the bundled housing generator.

    Each selection imputes the features with the most negative
    attribution first. For the study's linear model under the fitted
    Gaussian both imputations have a closed form, and each plays the game
    of one flavor of SHAP:

    - marginal-mean imputation of a removed set R gives f(x_U, mean_R),
      the additive interventional game, so interventional-SHAP selection
      is optimal: interventional-SHAP >= interventional-part >=
      conditional-SHAP at every interior k;
    - conditional-mean imputation gives f(E[X | x_U]) = v(U), the
      conditional value function of the kept set U, whose Shapley value
      is conditional SHAP. That game is not additive, so no ranking is
      optimal at every k, but the interior-k means mirror the first case:
      conditional-SHAP >= interventional-part >= interventional-SHAP.
      The interventional part leads only at k <= 3: at k = 1 the change
      from imputing feature i, f(E[X | x_-i]) - f(x), is minus M times
      the last-position term of i's interventional part.

    Exact interior-k means (``_exact_imputation_curves``, seed 0):

        selection             marginal-mean   conditional-mean
        conditional-SHAP          2.429            3.403
        interventional-part       3.305            2.932
        interventional-SHAP       4.096            2.155

    The sampled curves differ from these only through the sampled
    rankings. Each interior-k mean must lie within ``agree`` of its exact
    value; ``agree`` is almost four times the largest deviation seen over
    seeds 0-4 (0.052) and below half the smallest exact gap between
    selections under one imputation (0.470), so a faulty estimator or
    swapped curves fail.
    """
    data, target = synthetic_housing(n=506, seed=0)
    with _Stopwatch(600.0):
        result = run_imputation_study(
            data, target, "linear", towns=200, k1=200, k2=400, seed=0
        )
    m = data.n_features
    ks = slice(1, m)  # interior k only: k=0 is trivially 0, k=M is selection-free
    curves = {
        key: np.asarray(values) for key, values in result["curves"].items()
    }
    slack = 1e-3
    agree = 0.2  # seeds 0-4 deviate by at most 0.052 (conditional-SHAP)

    exact = _exact_imputation_curves(data, target, towns=200, seed=0)
    for key, pinned in A09_EXACT_INTERIOR_MEANS.items():
        exact_mean = exact[key][ks].mean()
        assert exact_mean == pytest.approx(pinned, abs=1e-3), key
        assert abs(curves[key][ks].mean() - exact_mean) < agree, key

    i_shap = curves["interventional-shap|marginal-mean"]
    i_part = curves["interventional-part|marginal-mean"]
    c_shap = curves["conditional-shap|marginal-mean"]
    assert np.min(i_shap[ks] - i_part[ks]) >= -slack
    assert np.min(i_part[ks] - c_shap[ks]) >= -slack

    i_shap = curves["interventional-shap|conditional-mean"]
    i_part = curves["interventional-part|conditional-mean"]
    c_shap = curves["conditional-shap|conditional-mean"]
    assert i_part[ks].mean() >= i_shap[ks].mean() - slack
    assert c_shap[ks].mean() >= i_part[ks].mean() - slack


@pytest.mark.slow
def test_a10_fire_study_on_synthetic_data():
    """Bundled fire data is independent: the dependent parts decorrelate,
    and reruns are bit-for-bit identical. With independent features each
    spearman(x_j, phi_dep_j) is noise with an SD of about 1/sqrt(n - 1):
    0.063 at 250 rows, which the 0.1 bound could not tell from a fault, and
    0.032 at the 1,000 rows used here."""
    data, labels = synthetic_fire(n=1000, seed=0)
    with _Stopwatch(600.0):
        first = run_fire_study(data, labels, k1=100, k2=200, seed=0)
        second = run_fire_study(data, labels, k1=100, k2=200, seed=0)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    for rho in first["spearman_phi_dep"]:
        assert abs(rho) <= 0.1


def test_a11_kernel_regression_is_exact_on_an_additive_game():
    """At M=12 interventional SHAP comes from the permutation walk under
    the marginal sampler. Against a single background row z every v(S) =
    f(x_S, z_-S) of a linear model is additive, so every permutation must
    return coef * (x - z), and the dependent part must vanish."""
    gen = RngStream(1111).generator()
    m = 12
    names = tuple(f"f{j}" for j in range(m))
    with _Stopwatch(10.0):
        for trial in range(5):
            coef = gen.normal(size=m)
            z = gen.normal(size=m)
            x = gen.normal(size=m)
            model = LinearModel(coef, gen.normal())
            sampler = MarginalSampler(FeatureMatrix(names, np.vstack([z, z])))
            dec = decompose(model, sampler, x, 3, 3, trial)
            assert dec.meta["estimator"] == "walk"
            assert dec.base == pytest.approx(model.predict([z])[0], abs=1e-9)
            assert np.max(np.abs(dec.phi - coef * (x - z))) < 1e-9
            assert np.max(np.abs(dec.phi_dep)) < 1e-9


@pytest.mark.slow
def test_a12_cli_outputs_are_byte_deterministic(tmp_path):
    """Identical flags give identical bytes on every run."""
    import csv as _csv

    gen = RngStream(12).generator()
    x = gen.multivariate_normal(
        np.zeros(3), [[1.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 1.0]], size=150
    )
    y = x @ np.array([1.0, -1.0, 0.5])
    csv_path = tmp_path / "data.csv"
    with csv_path.open("w", newline="") as handle:
        writer = _csv.writer(handle)
        writer.writerow(["a", "b", "c", "y"])
        writer.writerows(np.column_stack([x, y]).round(6).tolist())

    jobs = [
        [
            "explain",
            "--data", str(csv_path),
            "--fit", "linear",
            "--target", "y",
            "--row", "2",
            "--k1", "300",
            "--k2", "400",
            "--plot",
        ],
        ["experiment", "toy", "--k1", "400", "--k2", "400"],
        ["experiment", "correlation", "--alphas", "0,0.5", "--k1", "400", "--k2", "400"],
    ]
    with _Stopwatch(300.0):
        for job_id, argv in enumerate(jobs):
            snapshots = []
            for run_id in range(3):
                out = tmp_path / f"job{job_id}_run{run_id}"
                assert main(argv + ["--out", str(out)]) == 0
                snapshots.append(
                    {p.name: p.read_bytes() for p in sorted(out.iterdir())}
                )
            for later in snapshots[1:]:
                assert later.keys() == snapshots[0].keys()
                for name, blob in snapshots[0].items():
                    assert later[name] == blob, name
