"""Scripted studies: toy oracle check, correlation sweep, imputation
benchmark, and the fire-dataset combined explanation.

Each run returns a plain-dict result and, when an output directory is
given, writes results.json plus SVG/DOT figures. Runs are bit-for-bit
reproducible from (inputs, seed, budgets).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .core import FeatureMatrix, RngStream, as_vector
from .distributions import (
    CopulaSampler,
    DiscreteJoint,
    DiscreteSampler,
    GaussianModel,
    GaussianSampler,
    MarginalSampler,
    fit_copula,
    fit_gaussian,
)
from .engine import decompose, exact_decomposition, shapley_residuals
from .errors import IngestionError
from .models import (
    CallableModel,
    LinearModel,
    LogOddsModel,
    fit_forest,
    fit_ols,
)
from .stats import partial_correlation_graph, spearman, to_dot
from .viz import Series, render_force_plot, render_line_chart

SELECTIONS = ("interventional-shap", "interventional-part", "conditional-shap")
IMPUTATIONS = ("marginal-mean", "conditional-mean")
# the forest the housing (model_kind="forest") and fire studies grow
_STUDY_FOREST = {"trees": 100, "max_depth": 6}


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _output_dir(out_dir) -> Path | None:
    """``out_dir`` created, as a Path, or None. A study makes it after its
    input checks and before its first draw, so a bad path fails fast."""
    if out_dir is None:
        return None
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _row_seed(seed: int, i: int) -> int:
    """The draw seed of row i of a study run with ``seed``."""
    return (seed * 1_000_003 + i) % (1 << 63)


def toy_joint() -> DiscreteJoint:
    """Two fair binary features agreeing with probability 0.7."""
    support = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    return DiscreteJoint(support, np.array([0.35, 0.15, 0.15, 0.35]))


def toy_risk_model() -> LinearModel:
    """The toy problem's model: its output copies the first feature."""
    return LinearModel(np.array([1.0, 0.0]))


def run_toy(k1: int = 10_000, k2: int = 10_000, seed: int = 0, out_dir=None) -> dict:
    """Explain x=(1,1) of the two-binary-feature toy problem with both the
    exact oracle and the sampled pipeline."""
    out_dir = _output_dir(out_dir)
    joint = toy_joint()
    model = toy_risk_model()
    x = np.array([1.0, 1.0])
    names = ["X1", "X2"]
    exact = exact_decomposition(model, joint, x)
    sampled = decompose(model, DiscreteSampler(joint), x, k1, k2, seed)
    result = {
        "exact": exact.to_json_dict(names),
        "sampled": sampled.to_json_dict(names),
    }
    if out_dir is not None:
        write_json(out_dir / "results.json", result)
        svg = render_force_plot(exact.base, names, x, exact.phi_int, exact.phi_dep)
        (out_dir / "force.svg").write_text(svg)
    return result


def interaction_model(a12: float) -> CallableModel:
    return CallableModel(
        lambda rows: rows[:, 0] + rows[:, 1] + a12 * rows[:, 0] * rows[:, 1],
        2,
        name=f"interaction(a12={a12:g})",
    )


def exact_interaction_value_function(a12: float, alpha: float, x) -> np.ndarray:
    """Closed-form conditional value function of the interaction model
    under the standard bivariate Gaussian with correlation alpha, as its
    table v[S] over the masks S = 0 (empty), 1 ({x1}), 2 ({x2}), 3 (full)."""
    x0, x1 = as_vector(x)
    return np.array([
        a12 * alpha,
        x0 + alpha * x0 + a12 * x0 * alpha * x0,
        x1 + alpha * x1 + a12 * x1 * alpha * x1,
        x0 + x1 + a12 * x0 * x1,
    ])


def run_correlation_study(
    a12: float = 2.0,
    alphas=(0.0, 0.25, 0.5, 0.75),
    k1: int = 20_000,
    k2: int = 40_000,
    seed: int = 0,
    out_dir=None,
) -> dict:
    """Estimated vs analytic dependency attributions as the correlation
    between the two Gaussian features sweeps over ``alphas``."""
    if not math.isfinite(a12):
        raise IngestionError(f"a12 must be finite, got {a12}")
    for alpha in alphas:
        if not -0.99 < alpha < 0.99:
            raise IngestionError(f"alpha {alpha} outside (-0.99, 0.99)")
    out_dir = _output_dir(out_dir)
    x = np.array([1.0, 1.0])
    model = interaction_model(a12)
    rows = []
    for j, alpha in enumerate(alphas):
        sampler = GaussianSampler(
            GaussianModel(np.zeros(2), np.array([[1.0, alpha], [alpha, 1.0]]))
        )
        dec = decompose(model, sampler, x, k1, k2, seed + j)
        r = shapley_residuals(exact_interaction_value_function(a12, alpha, x))[0]
        rows.append({
            "alpha": float(alpha),
            "estimated_phi_dep": float(dec.phi_dep.mean()),
            "analytic_phi_dep": 0.5 * (1.0 + a12) * alpha,
            "estimated_residual_norm": float(np.sqrt(r @ r)),
            "analytic_residual_norm": math.sqrt(2.0)
            * abs(0.5 * a12 - (1.0 + 0.5 * a12) * alpha),
        })
    result = {"a12": float(a12), "rows": rows}
    if out_dir is not None:
        write_json(out_dir / "results.json", result)

        def column(key):
            return [r[key] for r in rows]

        al = column("alpha")
        chart = render_line_chart(
            [
                Series("dependent part (estimated)", al, column("estimated_phi_dep")),
                Series("dependent part (analytic)", al, column("analytic_phi_dep")),
                Series("residual norm (exact)", al, column("estimated_residual_norm")),
                Series("residual norm (analytic)", al, column("analytic_residual_norm")),
            ],
            x_label="correlation",
            y_label="dependency attribution",
        )
        (out_dir / "correlation.svg").write_text(chart)
    return result


def _select_order(attribution: np.ndarray) -> np.ndarray:
    # ascending by value, ties broken by feature index
    return np.argsort(attribution, kind="stable")


def run_imputation_study(
    data: FeatureMatrix,
    target,
    model_kind: str = "linear",
    towns: int = 200,
    k1: int = 200,
    k2: int = 400,
    seed: int = 0,
    out_dir=None,
) -> dict:
    """Rank features by each attribution flavor, impute the most negative
    ones, and track the model-output change, averaged over random rows.
    Interventional SHAP is ``decompose``'s phi under a MarginalSampler, on
    the town's seed, so both rankings walk the same permutations."""
    if not 1 <= towns <= data.n_rows:
        raise IngestionError(f"towns={towns} outside 1..{data.n_rows}")
    out_dir = _output_dir(out_dir)
    y = np.asarray(target, dtype=float)
    if model_kind == "linear":
        model = fit_ols(data, y)
    elif model_kind == "forest":
        model = fit_forest(data, y, _STUDY_FOREST, RngStream(seed, 77))
    else:
        raise IngestionError(f"unknown model kind {model_kind!r}")
    gauss = GaussianSampler(fit_gaussian(data))
    marginal = MarginalSampler(data)
    col_means = data.values.mean(axis=0)
    m = data.n_features
    gen = RngStream(seed).substream(0).generator()
    town_idx = np.sort(gen.choice(data.n_rows, size=towns, replace=False))

    changes = {
        (sel, imp): np.zeros((towns, m + 1)) for sel in SELECTIONS for imp in IMPUTATIONS
    }
    for t, row_i in enumerate(town_idx):
        x = data.values[row_i]
        town_seed = _row_seed(seed, t)
        # conditional SHAP and the interventional part from the same draws
        dec = decompose(model, gauss, x, k1, k2, town_seed)
        attributions = {
            "interventional-shap": decompose(model, marginal, x, k1, k2, town_seed).phi,
            "conditional-shap": dec.phi,
            "interventional-part": dec.phi_int,
        }
        rows = []
        slots = []
        for sel in SELECTIONS:
            order = _select_order(attributions[sel])
            for imp in IMPUTATIONS:
                for k in range(1, m + 1):
                    imputed = np.array(order[:k])
                    x_imp = x.copy()
                    if imp == "marginal-mean":
                        x_imp[imputed] = col_means[imputed]
                    else:
                        untouched = ((1 << m) - 1) ^ sum(1 << int(j) for j in imputed)
                        # the conditional mean lists the imputed block by ascending index
                        x_imp[np.sort(imputed)] = gauss.conditional_mean(untouched, x)
                    rows.append(x_imp)
                    slots.append((sel, imp, k))
        rows.append(x)
        outputs = model.predict(np.array(rows))
        fx = outputs[-1]
        for out_val, (sel, imp, k) in zip(outputs[:-1], slots):
            changes[(sel, imp)][t, k] = out_val - fx

    # curve k is the mean change after k imputations; each starts at zero
    curves = {f"{sel}|{imp}": arr.mean(axis=0).tolist() for (sel, imp), arr in changes.items()}
    ks = np.arange(m + 1, dtype=float)
    diff_traces = {}
    for imp in IMPUTATIONS:
        base = changes[("conditional-shap", imp)]
        for sel in ("interventional-shap", "interventional-part"):
            d = changes[(sel, imp)] - base
            diff_traces[f"{sel}|{imp}"] = {
                "mean": d.mean(axis=0).tolist(),
                "towns": d[:10].tolist(),
            }
    result = {
        "model": model.describe(),
        "towns": int(towns),
        "curves": curves,
        "differences_vs_conditional": diff_traces,
        "meta": {"k1": int(k1), "k2": int(k2), "seed": int(seed)},
    }
    if out_dir is not None:
        write_json(out_dir / "results.json", result)
        for imp in IMPUTATIONS:
            chart = render_line_chart(
                [Series(sel, ks, curves[f"{sel}|{imp}"]) for sel in SELECTIONS],
                x_label="features imputed",
                y_label="mean output change",
            )
            (out_dir / f"imputation_{imp}.svg").write_text(chart)
            overlays = []
            mean_series = []
            for sel in ("interventional-shap", "interventional-part"):
                d = diff_traces[f"{sel}|{imp}"]
                mean_series.append(Series(f"{sel} - conditional", ks, d["mean"]))
                overlays.extend(Series(sel, ks, town) for town in d["towns"])
            (out_dir / f"difference_{imp}.svg").write_text(
                render_line_chart(
                    mean_series,
                    x_label="features imputed",
                    y_label="per-town output change difference",
                    overlays=overlays,
                )
            )
        # mean +/- one standard deviation, marginal-mean variant
        sel = "interventional-shap"
        arr = changes[(sel, "marginal-mean")]
        mean, std = arr.mean(axis=0), arr.std(axis=0)
        (out_dir / "imputation_marginal-mean_std.svg").write_text(
            render_line_chart(
                [Series(sel, ks, mean)],
                x_label="features imputed",
                y_label="mean output change",
                band=(ks, mean - std, mean + std),
            )
        )
    return result


def _probability_axis():
    def to_prob(log_odds):
        return 1.0 / (1.0 + math.exp(-log_odds))

    def from_prob(p):
        p = min(max(p, 1e-9), 1 - 1e-9)
        return math.log(p / (1.0 - p))

    return ("probability", to_prob, from_prob)


def run_fire_study(
    data: FeatureMatrix,
    labels,
    k1: int = 200,
    k2: int = 400,
    seed: int = 0,
    sample_index: int = 0,
    out_dir=None,
) -> dict:
    """Binary forest on the fire features, explained on the log-odds scale
    with a Gaussian copula sampler; emits force plots, the feature/SHAP
    correlation table, and the partial-correlation graph."""
    if not 0 <= sample_index < data.n_rows:
        raise IngestionError(f"sample index {sample_index} outside 0..{data.n_rows - 1}")
    labels = np.asarray(labels, dtype=float)
    if not np.all(np.isin(labels, (0.0, 1.0))):
        raise IngestionError("fire label must be binary 0/1")
    out_dir = _output_dir(out_dir)
    forest = fit_forest(
        data, labels, _STUDY_FOREST, RngStream(seed, 99), task="binary-probability"
    )
    model = LogOddsModel(forest)
    sampler = CopulaSampler(fit_copula(data))
    m = data.n_features
    n = data.n_rows
    phi_int = np.zeros((n, m))
    phi_dep = np.zeros((n, m))
    bases = np.zeros(n)
    for i in range(n):
        dec = decompose(model, sampler, data.values[i], k1, k2, _row_seed(seed, i))
        phi_int[i] = dec.phi_int
        phi_dep[i] = dec.phi_dep
        bases[i] = dec.base
    corr_int = [spearman(data.values[:, j], phi_int[:, j]) for j in range(m)]
    corr_dep = [spearman(data.values[:, j], phi_dep[:, j]) for j in range(m)]
    log_out = model.predict(data.values)
    graph_names = list(data.names) + ["f"]
    graph = partial_correlation_graph(np.column_stack([data.values, log_out]), graph_names)
    result = {
        "names": list(data.names),
        "spearman_phi_int": [float(c) for c in corr_int],
        "spearman_phi_dep": [float(c) for c in corr_dep],
        "base_mean": float(bases.mean()),
        "phi_int": phi_int.tolist(),
        "phi_dep": phi_dep.tolist(),
        "meta": {"k1": int(k1), "k2": int(k2), "seed": int(seed), "sample_index": int(sample_index)},
    }
    if out_dir is not None:
        write_json(out_dir / "results.json", result)
        i, x, axis = sample_index, data.values[sample_index], _probability_axis()
        (out_dir / "force_decomposition.svg").write_text(
            render_force_plot(bases[i], data.names, x, phi_int[i], phi_dep[i], axis)
        )
        # interventional SHAP: the split's game under the marginal sampler
        classic = decompose(model, MarginalSampler(data), x, k1, k2, _row_seed(seed, i))
        (out_dir / "force_classic.svg").write_text(
            render_force_plot(classic.base, data.names, x, classic.phi, np.zeros(m), axis)
        )
        (out_dir / "graph.dot").write_text(to_dot(graph_names, graph))
    return result
