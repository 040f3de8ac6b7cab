import ast
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

import shapdec

from shapdec.core import FeatureMatrix, RngStream
from shapdec.distributions import (
    CopulaSampler,
    DiscreteJoint,
    DiscreteSampler,
    GaussianModel,
    GaussianSampler,
    MarginalSampler,
    _jittered_cholesky,
    fit_copula,
    fit_gaussian,
)
from shapdec.engine import (
    _CHUNK_ROWS,
    decompose,
    exact_decomposition,
    shapley_residuals,
    _row_budget,
)
from shapdec.errors import IngestionError, OracleError, SizeError
from shapdec.experiments import toy_risk_model
from shapdec.models import CallableModel, LinearModel, fit_forest, fit_ols
from shapdec.synthetic import synthetic_housing


def _toy_joint():
    support = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    return DiscreteJoint(support, np.array([0.35, 0.15, 0.15, 0.35]))


def _random_joint(m, gen):
    support = np.array(
        [[(mask >> i) & 1 for i in range(m)] for mask in range(1 << m)], dtype=float
    )
    probs = gen.dirichlet(np.ones(len(support)))
    return DiscreteJoint(support, probs)


def test_value_function_full_coalition_is_model_output():
    # the table anchors v(full) = f(x): the attributions sum to it exactly
    model = LinearModel(np.array([1.0, -2.0]), 0.5)
    sampler = GaussianSampler(GaussianModel(np.zeros(2), np.eye(2)))
    result = decompose(model, sampler, np.array([3.0, 1.0]), 16, 16, 0)
    assert result.base + result.phi.sum() == pytest.approx(1.5, abs=1e-12)


def test_value_function_empty_coalition_is_base_rate():
    model = LinearModel(np.array([1.0]), 0.0)
    sampler = GaussianSampler(GaussianModel(np.array([5.0]), np.eye(1)))
    v0 = decompose(model, sampler, np.array([0.0]), 50_000, 50_000, 1).base
    assert v0 == pytest.approx(5.0, abs=0.05)


def test_kernel_shap_matches_linear_closed_form():
    # with independent features the conditional and interventional games
    # agree, and phi is coef * (x - mean)
    coef = np.array([1.0, -2.0, 0.5, 3.0])
    model = LinearModel(coef, 1.0)
    mean = np.array([0.5, -1.0, 2.0, 0.0])
    sampler = GaussianSampler(GaussianModel(mean, np.eye(4)))
    x = np.array([1.0, 1.0, 1.0, 1.0])
    result = decompose(model, sampler, x, 4000, 4000, 3)
    assert np.allclose(result.phi, coef * (x - mean), atol=0.1)
    assert result.base + result.phi.sum() == pytest.approx(model.predict([x])[0])


def test_exact_decomposition_toy_values():
    dec = exact_decomposition(toy_risk_model(), _toy_joint(), np.array([1.0, 1.0]))
    assert dec.base == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(dec.phi, [0.4, 0.1], atol=1e-12)
    assert np.allclose(dec.phi_int, [0.4, 0.0], atol=1e-12)
    assert np.allclose(dec.phi_dep, [0.0, 0.1], atol=1e-12)


@pytest.mark.parametrize("m", [2, 3])
def test_exact_decomposition_meta_counts_coalitions(m):
    joint = _random_joint(m, RngStream(23).generator())
    model = CallableModel(lambda rows: rows.sum(axis=1), m)
    meta = exact_decomposition(model, joint, joint.support[0]).meta
    assert meta == {"engine": "exact", "model": model.describe(), "coalitions": 2**m}


def test_exact_decomposition_feature_cap():
    m = 9
    support = np.zeros((2, m))
    support[1] = 1.0
    joint = DiscreteJoint(support, np.array([0.5, 0.5]))
    model = CallableModel(lambda rows: rows[:, 0], m)
    with pytest.raises(OracleError):
        exact_decomposition(model, joint, np.zeros(m))


def test_decompose_local_accuracy():
    model = LinearModel(np.array([2.0, -1.0]), 0.0)
    sampler = GaussianSampler(
        GaussianModel(np.zeros(2), np.array([[1.0, 0.5], [0.5, 1.0]]))
    )
    x = np.array([1.0, -1.0])
    dec = decompose(model, sampler, x, 2000, 2000, 0)
    # the Shapley sums of the coalition table give f(x) - base exactly
    assert dec.base + dec.phi.sum() == pytest.approx(model.predict([x])[0], abs=1e-9)
    assert np.allclose(dec.phi, dec.phi_int + dec.phi_dep, atol=1e-12)


def _few_features_case(kind, m):
    """A sampler of ``kind`` over M correlated features, and a row x of its
    data: the discrete joint holds the rows rounded into -1, 0 and 1."""
    gen = RngStream(6).generator()
    ar = 0.6 ** np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    rows = gen.multivariate_normal(np.zeros(m), ar, 300)
    data = FeatureMatrix(tuple(f"f{j}" for j in range(m)), rows)
    if kind == "gaussian":
        return GaussianSampler(fit_gaussian(data)), rows[4]
    if kind == "copula":
        return CopulaSampler(fit_copula(data)), rows[4]
    if kind == "marginal":
        return MarginalSampler(data), rows[4]
    levels = np.round(rows).clip(-1.0, 1.0)
    support, counts = np.unique(levels, axis=0, return_counts=True)
    return DiscreteSampler(DiscreteJoint(support, counts / counts.sum())), levels[4]


@pytest.mark.parametrize("kind", ["gaussian", "copula", "marginal", "discrete"])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("k1, k2", [(20, 20), (200, 400)])
def test_decompose_with_one_or_two_features(kind, m, k1, k2):
    sampler, x = _few_features_case(kind, m)
    model = CallableModel(lambda r: np.sin(r[:, 0]) + r[:, -1] ** 2 + r.sum(axis=1), m)
    dec = decompose(model, sampler, x, k1, k2, 0)
    assert dec.meta["estimator"] == "table"
    assert abs(dec.base + dec.phi.sum() - model.predict(x[None, :])[0]) <= 1e-12
    assert np.allclose(dec.phi, dec.phi_int + dec.phi_dep, rtol=0, atol=1e-12)
    if m == 1:
        # with one feature the dependent part is 0; here 2 K2 picks cycle
        # through the empty coalition's K1 rows a whole number of times, so
        # u[empty, 0] is v[empty] and phi_dep is 0 exactly
        assert dec.phi_dep.tolist() == [0.0]
        assert dec.phi_int[0] == dec.phi[0] != 0.0


def test_decompose_warns_on_small_k2():
    model = LinearModel(np.array([1.0]), 0.0)
    sampler = GaussianSampler(GaussianModel(np.zeros(1), np.eye(1)))
    with pytest.warns(UserWarning, match="K2"):
        decompose(model, sampler, np.array([0.0]), 100, 10, 0)


class _NoDraws:
    """A sampler that fails any draw."""

    n_features = 13

    def _draw(self, *args):
        raise AssertionError("drew")

    _prefix_draws = _draw

    def describe(self):
        return "none"


@pytest.mark.parametrize(
    "k1, k2",
    [(200.5, 400), (200, 400.0), (True, 400), (200, np.bool_(True)), (np.float64(200), 400)],
    ids=["float-k1", "float-k2", "bool-k1", "numpy-bool-k2", "numpy-float-k1"],
)
def test_decompose_rejects_a_budget_that_is_not_an_integer(k1, k2):
    model = _PlainModel(13)
    with pytest.raises(SizeError, match="must be an integer"):
        decompose(model, _NoDraws(), np.zeros(13), k1, k2, 0)
    assert model.calls == 0


@pytest.mark.parametrize("m", [4, 13], ids=["table", "walk"])
def test_decompose_takes_numpy_integer_budgets(m):
    model = LinearModel(np.linspace(-1.0, 1.0, m))
    sampler = GaussianSampler(GaussianModel(np.zeros(m), 0.5 * np.eye(m) + 0.5))
    x = np.linspace(0.5, 1.5, m)
    plain = decompose(model, sampler, x, 40, 60, 3)
    numpy = decompose(model, sampler, x, np.int64(40), np.int32(60), 3)
    assert numpy.meta == plain.meta
    for part in ("base", "phi", "phi_int", "phi_dep"):
        assert np.asarray(getattr(numpy, part)).tobytes() == np.asarray(getattr(plain, part)).tobytes()


def test_interventional_parts_deterministic():
    model = LinearModel(np.array([1.0, 2.0, 3.0]), 0.0)
    sampler = GaussianSampler(
        GaussianModel(np.zeros(3), np.eye(3) + 0.3 * (np.ones((3, 3)) - np.eye(3)))
    )
    x = np.array([1.0, 0.0, -1.0])
    a = decompose(model, sampler, x, 200, 200, 4)
    b = decompose(model, sampler, x, 200, 200, 4)
    assert a.base == b.base
    assert np.array_equal(a.phi_int, b.phi_int)
    assert np.array_equal(a.phi_dep, b.phi_dep)
    assert a.meta == b.meta


def _fresh_rows(sampler, mask, x, count, gen):
    """``count`` rows with x known on coalition ``mask`` and the rest
    drawn from ``gen``: the sampler's ``_draw``."""
    return sampler._draw(mask, x, count, gen)


def _split_with_fresh_generators(model, sampler, x, k1, k2, seed):
    """The coalition-table split from first principles. Coalition S draws
    K1 rows with ``_fresh_rows`` on a newly built generator for
    substream S of substream 1, and phi is the Shapley-weighted sum of the
    differences of their means. 2 K2 orderings come from uniform keys on
    substream 2; in each, feature i takes the next row of the coalition
    before it (cycling after K1), and phi_int averages f(row with X_i :=
    x_i) - f(row). phi_dep is the rest of phi."""
    m = len(x)
    full = (1 << m) - 1
    root = RngStream(seed)
    rows = {full: x[None, :]}
    for mask in range(full):
        gen = root.substream(1).substream(mask).generator()
        rows[mask] = _fresh_rows(sampler, mask, x, k1, gen)
    v = {mask: model.predict(block).mean() for mask, block in rows.items()}
    phi = np.zeros(m)
    for i in range(m):
        for mask in range(full + 1):
            if not mask >> i & 1:
                s = mask.bit_count()
                w = math.factorial(s) * math.factorial(m - 1 - s) / math.factorial(m)
                phi[i] += w * (v[mask | 1 << i] - v[mask])
    phi_int = np.zeros(m)
    taken = {}
    for keys in root.substream(2).generator().random((2 * k2, m)):
        for i in range(m):
            mask = sum(1 << j for j in range(m) if keys[j] < keys[i])
            n = taken.get((mask, i), 0)
            taken[mask, i] = n + 1
            row = rows[mask][n % k1]
            paired = row.copy()
            paired[i] = x[i]
            phi_int[i] += model.predict(paired[None, :])[0] - model.predict(row[None, :])[0]
    phi_int /= 2 * k2
    return v[0], phi, phi_int, phi - phi_int


def _gaussian_case():
    cov = np.eye(4) + 0.4 * (np.ones((4, 4)) - np.eye(4))
    x1, x2 = np.array([0.5, 2.0, -1.0, 4.0]), np.array([-1.0, 0.0, 3.0, 1.5])
    return GaussianSampler, GaussianModel(np.arange(4.0), cov), x1, x2


def _copula_case():
    gen = RngStream(14).generator()
    cov = np.eye(4) + 0.5 * (np.ones((4, 4)) - np.eye(4))
    rows = np.exp(gen.multivariate_normal(np.zeros(4), cov, 300))
    fitted = fit_copula(FeatureMatrix(("a", "b", "c", "d"), rows))
    return CopulaSampler, fitted, rows[0], rows[1]


def _discrete_case():
    grid = ([0.0, 1.0, 2.0], [0.0, 1.0], [0.0, 1.0], [0.0, 3.0])
    support = np.array(list(itertools.product(*grid)))
    probs = RngStream(15).generator().uniform(0.1, 1.0, len(support))
    joint = DiscreteJoint(support, probs / probs.sum())
    return DiscreteSampler, joint, support[5], support[18]


def _marginal_case():
    rows = RngStream(16).generator().normal(size=(60, 4))
    return MarginalSampler, FeatureMatrix(("a", "b", "c", "d"), rows), rows[2], rows[7]


_CASES = [_gaussian_case, _copula_case, _discrete_case, _marginal_case]
_CASE_IDS = ["gaussian", "copula", "discrete", "marginal"]


@pytest.mark.parametrize("case", _CASES, ids=_CASE_IDS)
def test_interventional_parts_equal_fresh_generator_draws(case):
    make, fitted, x1, x2 = case()
    model = LinearModel(np.array([1.0, -2.0, 0.5, 3.0]), 0.25)
    seed = 2**63 + 5
    shared = make(fitted)  # its per-(x, mask) caches must not leak across rows
    # at K1 = 5 the 2 * K2 = 60 orderings give the empty coalition more
    # picks than it has rows, so the picks cycle through them
    for x, k1 in itertools.product((x1, x2, x1), (30, 5)):
        dec = decompose(model, shared, x, k1, 30, seed)
        fresh = decompose(model, make(fitted), x, k1, 30, seed)
        assert dec.base == fresh.base
        for part in ("phi", "phi_int", "phi_dep"):
            assert np.array_equal(getattr(dec, part), getattr(fresh, part)), part
        base, phi, phi_int, phi_dep = _split_with_fresh_generators(
            model, make(fitted), x, k1, 30, seed
        )
        assert dec.base == pytest.approx(base, rel=1e-12, abs=1e-12)
        assert np.allclose(dec.phi, phi, rtol=0, atol=1e-12)
        assert np.allclose(dec.phi_int, phi_int, rtol=0, atol=1e-12)
        assert np.allclose(dec.phi_dep, phi_dep, rtol=0, atol=1e-12)
        if k1 == 5:
            assert dec.meta["model_rows"] < _row_budget(4, k1, 30)


def _walk_case(kind):
    m = 12
    cov = 0.6 ** np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    if kind == "gaussian":
        return GaussianSampler, GaussianModel(np.zeros(m), cov)
    rows = np.exp(RngStream(18).generator().multivariate_normal(np.zeros(m), cov, 300))
    return CopulaSampler, fit_copula(FeatureMatrix(tuple(f"f{j}" for j in range(m)), rows))


def _latent_gaussian(fitted, x):
    """(mean, covariance, values of x, back-transform of feature j) of the
    Gaussian the walk conditions: the fitted one on x itself, or the
    copula's latent one on the normal scores of x."""
    if isinstance(fitted, GaussianModel):
        return fitted.mean, fitted.cov, x, lambda j, y: y
    u = [marginal.to_uniform(value) for marginal, value in zip(fitted.marginals, x)]
    scores = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    return (
        np.zeros(len(x)),
        fitted.latent_corr,
        scores,
        lambda j, y: fitted.marginals[j].from_uniform(ndtr(y)),
    )


def _walked_permutations(rng, pairs, m):
    """The walk's permutations: the stable argsort of pairs x M uniforms,
    the first draws of the row's one generator on ``rng``. Returns that
    generator, just past them, and the permutations."""
    gen = rng.generator()
    return gen, np.argsort(gen.random((pairs, m)), axis=1, kind="stable")


def _forward_substituted(lower, b):
    """w with lower @ w = b for one lower triangular factor, a position at
    a time: w_k = (b_k - sum_{l<k} L_kl w_l) / L_kk."""
    w = np.empty(len(b))
    for k in range(len(b)):
        w[k] = (b[k] - np.einsum("l,l->", lower[k, :k], w[:k])) / lower[k, k]
    return w


def _walk_with_fresh_generators(model, fitted, x, draws, pairs, rng):
    """The permutation walk from first principles. One generator for the
    row draws every permutation first, then walks pair by pair each
    permutation and its reverse. Each walk factors the covariance in its
    order, L L^T (through the jitter where it must), solves
    w = L^-1 (x - mu) in that order by forward substitution and draws one
    normal block z (draws x M). Draw r of prefix j sets the features after the prefix to mu + L
    [w_<j, z_r,>=j] (back-transformed for the copula) and keeps x on the
    prefix. The reverse reuses the empty coalition's rows, and v and t of
    a prefix are plain means over its rows."""
    m = len(x)
    mean, cov, cond, back = _latent_gaussian(fitted, x)
    base, phi_int, phi_dep = 0.0, np.zeros(m), np.zeros(m)
    gen, perms = _walked_permutations(rng, pairs, m)
    for order in perms.tolist():
        empty = None
        for perm in (order, order[::-1]):
            lower = _jittered_cholesky(cov[np.ix_(perm, perm)])
            w = _forward_substituted(lower, cond[perm] - mean[perm])
            z = gen.standard_normal((draws, m))
            v, t = [], []
            for j, i in enumerate(perm):
                if j == 0 and empty is not None:
                    rows = empty
                else:
                    u = np.column_stack([np.tile(w[:j], (draws, 1)), z[:, j:]])
                    drawn = mean[perm] + u @ lower.T
                    rows = np.tile(x, (draws, 1))
                    for c in range(j, m):
                        rows[:, perm[c]] = back(perm[c], drawn[:, c])
                    if j == 0:
                        empty = rows
                paired = rows.copy()
                paired[:, i] = x[i]
                v.append(model.predict(rows).mean())
                t.append(model.predict(paired).mean())
            v.append(model.predict(x[None, :])[0])
            for j, i in enumerate(perm):
                phi_int[i] += t[j] - v[j]
                phi_dep[i] += v[j + 1] - t[j]
            base += v[0]
    n = 2 * pairs
    return base / n, phi_int / n, phi_dep / n


@pytest.mark.parametrize("kind", ["gaussian", "copula"])
def test_permutation_walk_shared_sampler_equals_fresh_samplers(kind):
    make, fitted = _walk_case(kind)
    m = fitted.n_features
    model = CallableModel(lambda r: np.sin(r[:, 0]) + r[:, 1] * r[:, -1] + r[:, 2:].sum(axis=1), m)
    x1, x2 = np.linspace(0.2, 2.0, m), np.linspace(1.5, -0.5, m)
    shared = make(fitted)
    for x in (x1, x2, x1):
        dec = decompose(model, shared, x, 12, 40, 2**64 - 7)
        fresh = decompose(model, make(fitted), x, 12, 40, 2**64 - 7)
        assert dec.meta["estimator"] == "walk"
        assert dec.base == fresh.base
        for part in ("phi", "phi_int", "phi_dep"):
            assert np.array_equal(getattr(dec, part), getattr(fresh, part)), part
        assert dec.base + dec.phi.sum() == pytest.approx(model.predict(x[None, :])[0], abs=1e-9)
        # 12 // 4 = 3 draws per prefix; the budget 1 + 12 * 500 + 2 * 40 * 11
        # holds 6880 // (3 * 45) = 50 pairs
        assert (dec.meta["draws"], dec.meta["permutations"]) == (3, 100)
        base, phi_int, phi_dep = _walk_with_fresh_generators(
            model, fitted, x, 3, 50, RngStream(2**64 - 7).substream(2)
        )
        assert dec.base == pytest.approx(base, rel=1e-12, abs=1e-12)
        assert np.allclose(dec.phi_int, phi_int, rtol=0, atol=1e-12)
        assert np.allclose(dec.phi_dep, phi_dep, rtol=0, atol=1e-12)


def test_walk_through_the_jitter_equals_fresh_samplers():
    # the last feature is the first's twin up to noise of 2e-8: some of the
    # walk's orderings need the jitter, so their stacked factor fails and
    # each ordering is factored alone
    m, seed = 12, 5
    gen = RngStream(2).generator()
    ar = 0.5 ** np.abs(np.subtract.outer(np.arange(m - 1), np.arange(m - 1)))
    base = gen.multivariate_normal(np.zeros(m - 1), ar, 300)
    rows = np.column_stack([base, base[:, 0] + 2e-8 * gen.normal(size=300)])
    fitted = fit_gaussian(FeatureMatrix(tuple(f"f{j}" for j in range(m)), rows))
    model, x = LinearModel(np.linspace(-1.0, 1.0, m)), rows[3]
    dec = decompose(model, GaussianSampler(fitted), x, 12, 40, seed)
    assert (dec.meta["draws"], dec.meta["permutations"]) == (3, 100)
    walked = RngStream(seed).substream(2)
    plainly = set()
    for perm in _walked_permutations(walked, 50, m)[1]:
        for order in (perm, perm[::-1]):
            try:
                np.linalg.cholesky(fitted.cov[np.ix_(order, order)])
                plainly.add(True)
            except np.linalg.LinAlgError:
                plainly.add(False)
    assert plainly == {True, False}
    base, phi_int, phi_dep = _walk_with_fresh_generators(model, fitted, x, 3, 50, walked)
    assert dec.base == pytest.approx(base, rel=1e-12, abs=1e-12)
    assert np.allclose(dec.phi_int, phi_int, rtol=0, atol=1e-12)
    assert np.allclose(dec.phi_dep, phi_dep, rtol=0, atol=1e-12)


def test_walk_traced_peak_stays_under_one_mib():
    # one housing row at M=13, K1=200, K2=400: 44 pairs of 50 draws. The
    # pair block (260 kB), the normal block and the stacked factors are
    # allocated once per row; a block that grew with the pairs would not fit
    data, y = synthetic_housing()
    sampler, model = GaussianSampler(fit_gaussian(data)), fit_ols(data, y)
    decompose(model, sampler, data.values[0], 200, 400, 0)  # lazy set-up is not counted
    tracemalloc.start()
    try:
        dec = decompose(model, sampler, data.values[1], 200, 400, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (dec.meta["estimator"], dec.meta["permutations"]) == ("walk", 88)
    assert peak <= 1 << 20


def test_walk_traced_peak_at_five_draws_stays_under_one_and_a_half_mib():
    # one housing row at M=13, K1=20, K2=400: 80 pairs of 5 draws. A chunk
    # of 20 pairs, as many as the row block holds, stacked 40 x 13 x 14
    # factors and read 1.75 MiB; capped at the block's floats it is 14 pairs
    data, y = synthetic_housing()
    sampler, model = GaussianSampler(fit_gaussian(data)), fit_ols(data, y)
    decompose(model, sampler, data.values[0], 20, 400, 0)  # lazy set-up is not counted
    tracemalloc.start()
    try:
        dec = decompose(model, sampler, data.values[1], 20, 400, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (dec.meta["estimator"], dec.meta["draws"], dec.meta["permutations"]) == ("walk", 5, 160)
    assert peak <= 3 << 19


@pytest.mark.parametrize("kind", ["gaussian", "copula"])
def test_walk_solves_no_coalition_mask(kind, monkeypatch):
    # the walk conditions each permutation once; only the per-mask draws
    # of the table solve coalitions
    solved = []
    solve = GaussianSampler._solved
    monkeypatch.setattr(
        GaussianSampler, "_solved", lambda self, mask: solved.append(mask) or solve(self, mask)
    )
    make, fitted = _walk_case(kind)
    m = fitted.n_features
    model, x = LinearModel(np.linspace(-1.0, 1.0, m)), np.linspace(0.2, 2.0, m)
    assert decompose(model, make(fitted), x, 40, 60, 3).meta["estimator"] == "walk"
    assert solved == []
    for mask in (1, 6, 4095):  # the patch sees the per-mask draws
        make(fitted)._draw(mask, x, 1, RngStream(3).generator())
    assert set(solved) == {1, 6, 4095}


@pytest.mark.parametrize("case", _CASES, ids=_CASE_IDS)
def test_table_phi_equals_enumerated_kernel_shap(case):
    # at M <= 11 the table's phi is the exact Shapley sum over its coalition
    # rows, which the enumerated kernel regression reproduces
    make, fitted, x, _ = case()
    model = LinearModel(np.array([1.0, -2.0, 0.5, 3.0]), 0.25)
    dec = decompose(model, make(fitted), x, 50, 50, 31)
    base, phi = _kernel_shap_with_fresh_generators(model, make(fitted), x, 50, 31)
    assert dec.base == pytest.approx(base, rel=0, abs=1e-12)
    assert np.max(np.abs(dec.phi - phi)) <= 1e-12


def test_decompose_records_its_work():
    small = GaussianSampler(GaussianModel(np.zeros(4), np.eye(4)))
    table = decompose(LinearModel(np.ones(4), 0.0), small, np.ones(4), 10, 10, 0).meta
    # K1 rows for each of the 15 coalitions below the full set, and one
    # paired row for each feature but the last in each of 2 * K2 = 20
    # orderings (the last one's copy is x itself); f(x) is one row
    assert table["estimator"] == "table"
    assert (table["draws"], table["permutations"]) == (10, 20)
    assert table["model_rows"] == 1 + 10 * 15 + 20 * 3 == _row_budget(4, 10, 10)
    big = GaussianSampler(GaussianModel(np.zeros(12), np.eye(12)))
    walk = decompose(LinearModel(np.ones(12), 0.0), big, np.ones(12), 40, 100, 0).meta
    # 40 // 4 = 10 draws per prefix. Each pair of permutations sends 12 v
    # blocks and 11 t blocks twice, less the empty coalition's v block that
    # the reverse shares: 45 blocks, so the budget 1 + 40 * 500 + 2 * 100 *
    # 11 = 22201 rows holds 22200 // 450 = 49 pairs
    assert walk["estimator"] == "walk"
    assert (walk["draws"], walk["permutations"]) == (10, 98)
    assert walk["model_rows"] == 1 + 49 * 450 <= _row_budget(12, 40, 100)


def _walked_sampler(kind):
    """(sampler, x) of a walk: a synthetic-housing row at M=13 under the
    Gaussian, copula or marginal sampler, or a support row at M=12 under a
    discrete joint."""
    data, _ = synthetic_housing()
    if kind == "discrete":
        gen = RngStream(12).generator()
        support = np.unique(gen.integers(0, 2, size=(1500, 12)).astype(float), axis=0)
        probs = gen.uniform(0.1, 1.0, len(support))
        return DiscreteSampler(DiscreteJoint(support, probs / probs.sum())), support[7]
    make = {
        "gaussian": lambda: GaussianSampler(fit_gaussian(data)),
        "copula": lambda: CopulaSampler(fit_copula(data)),
        "marginal": lambda: MarginalSampler(data),
    }[kind]
    return make(), data.values[3]


def _walk_batch_sizes(kind):
    """The sizes of the batches a walk of ``kind`` at 10 draws sends, its
    pair count, and the rows of one pair."""
    sampler, x = _walked_sampler(kind)
    m = len(x)
    sizes = []
    model = CallableModel(lambda rows: sizes.append(len(rows)) or rows.sum(axis=1), m)
    meta = decompose(model, sampler, x, 40, 60, 9).meta
    assert (meta["estimator"], meta["draws"]) == ("walk", 10)
    assert sum(sizes) == meta["model_rows"]
    # a pair sends the v and t rows of both its orderings, less the
    # reverse's empty coalition rows, which it shares with the first
    return sizes, meta["permutations"] // 2, (4 * m - 3) * meta["draws"]


@pytest.mark.parametrize("kind", ["gaussian", "copula", "marginal", "discrete"])
def test_walk_sends_x_then_one_batch_per_pair(kind, monkeypatch):
    # a pair of more rows than a chunk holds goes alone
    monkeypatch.setattr(shapdec.engine, "_CHUNK_ROWS", 1)
    sizes, pairs, pair = _walk_batch_sizes(kind)
    assert sizes == [1] + [pair] * pairs


@pytest.mark.parametrize("kind", ["gaussian", "copula", "marginal", "discrete"])
def test_walk_sends_x_then_one_batch_per_chunk(kind):
    # f(x), then chunks of _CHUNK_ROWS // pair pairs, the last one the rest;
    # at 10 draws the factor stack's cap, _CHUNK_ROWS // (2 M (M + 1)), is larger
    sizes, pairs, pair = _walk_batch_sizes(kind)
    chunk = _CHUNK_ROWS // pair
    assert 1 < chunk < pairs
    assert sizes == [1] + [min(chunk, pairs - lo) * pair for lo in range(0, pairs, chunk)]


def _walk_rows(kind, model_of, cap, monkeypatch):
    """decompose on a walked row of ``kind`` with chunks of at most ``cap``
    rows: its outputs, and the bytes of every row sent to the model."""
    sampler, x = _walked_sampler(kind)
    sent = []
    model = model_of(len(x), sent)
    monkeypatch.setattr(shapdec.engine, "_CHUNK_ROWS", cap)
    dec = decompose(model, sampler, x, 40, 60, 9)
    assert dec.meta["estimator"] == "walk"
    return dec, b"".join(sent)


def _sum_of_rows(m, sent):
    return CallableModel(lambda rows: sent.append(rows.tobytes()) or rows.sum(axis=1), m)


def _forest_of_rows(m, sent):
    data, y = synthetic_housing()
    forest = fit_forest(
        FeatureMatrix(data.names[:m], data.values[:, :m]), y, {"trees": 5, "max_depth": 4}
    )
    return CallableModel(lambda rows: sent.append(rows.tobytes()) or forest.predict(rows), m)


@pytest.mark.parametrize("model_of", [_sum_of_rows, _forest_of_rows], ids=["callable", "forest"])
@pytest.mark.parametrize("kind", ["gaussian", "copula", "marginal", "discrete"])
def test_walk_rows_and_outputs_do_not_depend_on_the_chunk_size(kind, model_of, monkeypatch):
    # one pair per chunk (a cap below one pair's rows) against all pairs in
    # one chunk: the same rows reach the model, and a model that predicts
    # each row on its own gives the same bits. A LinearModel is not used:
    # OpenBLAS's rows @ coef can round a row differently with the length of
    # its batch, so its outputs may differ in the last bit between chunk sizes
    one, rows_one = _walk_rows(kind, model_of, 1, monkeypatch)
    every, rows_every = _walk_rows(kind, model_of, 10**9, monkeypatch)
    assert len(rows_one) == one.meta["model_rows"] * len(one.phi) * 8
    assert rows_one == rows_every
    assert one.base == every.base
    for part in ("phi", "phi_int", "phi_dep"):
        assert getattr(one, part).tobytes() == getattr(every, part).tobytes(), part


def test_walk_keys_one_generator_per_row_and_never_rekeys(monkeypatch):
    # the walk builds one generator on substream 2 of the seed's stream and
    # draws every pair from it; no substream is keyed per pair
    data, y = synthetic_housing()
    sampler, model = GaussianSampler(fit_gaussian(data)), fit_ols(data, y)
    x, seed = data.values[2], 5
    keyed, built, rekeyed = [], [], []
    substream, generator = RngStream.substream, RngStream.generator
    monkeypatch.setattr(
        RngStream, "substream", lambda self, key: keyed.append((self, key)) or substream(self, key)
    )
    monkeypatch.setattr(RngStream, "generator", lambda self: built.append(self) or generator(self))
    monkeypatch.setattr(RngStream, "rekey", lambda self, gen: rekeyed.append(self))
    dec = decompose(model, sampler, x, 200, 400, seed)
    assert (dec.meta["estimator"], dec.meta["permutations"]) == ("walk", 88)
    assert keyed == [(RngStream(seed), 2)]
    assert built == [RngStream(seed).substream(2)]
    assert rekeyed == []


DEFAULT_SAMPLED_COALITIONS = 1024
_COALITION_DRAW_KEY = 1 << 40  # reserved substream key, above any mask


def _coalition_masks(m: int, rng: RngStream) -> list:
    """DEFAULT_SAMPLED_COALITIONS interior masks, drawn proportional to
    the Kernel SHAP weight: a size s with probability proportional to
    (M - 1) / (s (M - s)), then s distinct features uniformly."""
    gen = rng.substream(_COALITION_DRAW_KEY).generator()
    sizes = np.arange(1, m)
    p = (m - 1) / (sizes * (m - sizes))
    p = p / p.sum()
    masks = []
    for s in gen.choice(sizes, size=DEFAULT_SAMPLED_COALITIONS, p=p):
        idx = gen.choice(m, size=int(s), replace=False)
        masks.append(sum(1 << int(i) for i in idx))
    return masks


def _kernel_shap_and_permutation_rows(m, k1, k2, seed):
    """Model rows that Kernel SHAP at K1 and a one-draw permutation
    estimate of phi_int at K2 send side by side: K1 for the empty
    coalition and for each distinct interior one (all 2^M - 2 while M <=
    11, the distinct sampled ones beyond), one for f(x), and two per
    feature and permutation."""
    if m <= 11:
        interior = (1 << m) - 2
    else:
        interior = len(set(_coalition_masks(m, RngStream(seed).substream(1))))
    return 1 + k1 * (1 + interior) + 2 * m * k2


@pytest.mark.parametrize("m", [1, 2, 4, 8, 11, 12, 13, 16])
def test_row_budget_stays_below_kernel_shap_and_permutations(m):
    budgets = [(1, 1), (200, 400), (1000, 4000), (4000, 10), (10, 4000), (3, 100000)]
    for seed in range(20):
        for k1, k2 in budgets:
            assert _row_budget(m, k1, k2) <= _kernel_shap_and_permutation_rows(m, k1, k2, seed)


def test_walk_at_the_explain_defaults_stays_within_budget():
    m = 13
    cov = 0.5 ** np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    sampler = GaussianSampler(GaussianModel(np.zeros(m), cov))
    model = LinearModel(np.linspace(-1.0, 1.0, m), 0.0)
    meta = decompose(model, sampler, np.linspace(1.0, -1.0, m), 1000, 4000, 3).meta
    assert meta["estimator"] == "walk"
    assert meta["model_rows"] <= _row_budget(m, 1000, 4000)
    assert meta["model_rows"] <= _kernel_shap_and_permutation_rows(m, 1000, 4000, 3)


def _kernel_shap_with_fresh_generators(model, sampler, x, k1, seed):
    """Enumerated Kernel SHAP as a loop over value-function calls.
    Coalition S draws K1 rows with ``_fresh_rows`` on a newly built
    generator for substream S of substream 1, and v(S) is their plain
    mean. Every interior coalition enters the regression with its kernel
    weight (M - 1) / (C(M, |S|) |S| (M - |S|)). The fit keeps g(empty) =
    v(empty) and sum(phi) = f(x) - v(empty) through a Lagrange multiplier.
    Returns (base, phi)."""
    m = len(x)
    full = (1 << m) - 1
    rng = RngStream(seed).substream(1)

    def v(mask):
        if mask == full:
            return model.predict(x[None, :])[0]
        rows = _fresh_rows(sampler, mask, x, k1, rng.substream(mask).generator())
        return model.predict(rows).mean()

    masks = list(range(1, full))
    sizes = np.array([mask.bit_count() for mask in masks])
    weights = (m - 1) / (np.array([math.comb(m, s) for s in sizes]) * sizes * (m - sizes))
    v0 = v(0)
    z = np.array([[mask >> i & 1 for i in range(m)] for mask in masks], dtype=float)
    y = np.array([v(mask) for mask in masks]) - v0
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = z.T @ (weights[:, None] * z)
    kkt[:m, m] = kkt[m, :m] = 1.0
    rhs = np.append(z.T @ (weights * y), v(full) - v0)
    return v0, np.linalg.solve(kkt, rhs)[:m]


def _sampler_case(kind, m):
    cov = 0.6 ** np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    if kind == "gaussian":
        return GaussianSampler(GaussianModel(np.zeros(m), cov))
    rows = RngStream(19).generator().multivariate_normal(np.zeros(m), cov, 300)
    data = FeatureMatrix(tuple(f"f{j}" for j in range(m)), np.exp(rows))
    return CopulaSampler(fit_copula(data)) if kind == "copula" else MarginalSampler(data)


@pytest.mark.parametrize("m", [4], ids=["enumerated"])
def test_kernel_shap_equals_fresh_generator_draws(m):
    model = LinearModel(np.linspace(-1.0, 2.0, m), 0.5)
    x = np.exp(np.linspace(1.0, -1.0, m))
    for kind in ("gaussian", "copula", "marginal"):
        result = decompose(model, _sampler_case(kind, m), x, 8, 8, 2**63 + 9)
        base, phi = _kernel_shap_with_fresh_generators(
            model, _sampler_case(kind, m), x, 8, 2**63 + 9
        )
        assert result.base == pytest.approx(base, rel=0, abs=1e-12), kind
        assert np.max(np.abs(result.phi - phi)) <= 1e-12, kind


def test_interventional_parts_independent_case_is_psi():
    coef = np.array([1.0, -3.0])
    model = LinearModel(coef, 0.0)
    mean = np.array([1.0, 1.0])
    sampler = GaussianSampler(GaussianModel(mean, np.eye(2)))
    x = np.array([2.0, 0.0])
    phi_int = decompose(model, sampler, x, 5000, 5000, 5).phi_int
    assert np.allclose(phi_int, coef * (x - mean), atol=0.1)


def test_interventional_value_function_uses_background_rows():
    data = FeatureMatrix(("a", "b"), np.array([[0.0, 1.0], [0.0, 3.0]]))
    model = LinearModel(np.array([1.0, 1.0]), 0.0)
    result = decompose(model, MarginalSampler(data), np.array([5.0, 0.0]), 64, 64, 0)
    # v(empty) averages a + b over background rows: a = 0, b drawn from {1, 3}
    assert 1.0 <= result.base <= 3.0
    assert result.base + result.phi.sum() == pytest.approx(5.0, abs=1e-12)


def test_shapley_residuals_inessential_game_is_zero():
    # additive v: contributions are coalition-independent, residuals vanish
    x = np.array([2.0, -1.0])
    v = [sum(x[i] for i in range(2) if mask >> i & 1) for mask in range(4)]
    table = shapley_residuals(v)
    for i in range(2):
        assert table.norm(i) == pytest.approx(0.0, abs=1e-12)


def test_shapley_residuals_m2_norm_convention():
    # v({1}) differs from v({1}|{2}) by 2d: residuals are +/- d, norm d*sqrt(2)
    vals = [0.0, 1.0, 0.5, 2.5]
    table = shapley_residuals(vals)
    d0 = (vals[3] - vals[2]) - (vals[1] - vals[0])  # 2 * residual gap
    assert table.norm(0) == pytest.approx(abs(d0) / 2 * math.sqrt(2))
    assert table.weights[0] @ table.residuals[0] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize(
    "v", [[], [1.0], [1.0, 2.0, 3.0], np.zeros(6), np.zeros((2, 2)), 3.0],
    ids=["empty", "one", "three", "six", "matrix", "scalar"],
)
def test_shapley_residuals_rejects_tables_of_bad_length(v):
    with pytest.raises(SizeError):
        shapley_residuals(v)


def test_public_engine_api_is_pinned():
    """The package exports from core, distributions, engine and models
    only what the CLI, the studies and the README use."""
    init = Path(shapdec.__file__).read_text()
    exported = {}
    for node in ast.walk(ast.parse(init)):
        if isinstance(node, ast.ImportFrom):
            exported.setdefault(node.module, set()).update(a.name for a in node.names)
    assert exported == {
        "core": {"Decomposition", "FeatureMatrix", "RngStream"},
        "distributions": {
            "CopulaSampler",
            "DiscreteJoint",
            "DiscreteSampler",
            "GaussianModel",
            "GaussianSampler",
            "MarginalSampler",
            "fit_copula",
            "fit_gaussian",
        },
        "engine": {
            "decompose",
            "exact_decomposition",
            "shapley_residuals",
        },
        "models": {
            "ExternalModel",
            "ForestModel",
            "LinearModel",
            "LogOddsModel",
            "fit_forest",
            "fit_ols",
            "model_from_json",
        },
    }
    for gone in (
        "Coalition",
        "sampler_from_json",
        "log_odds",
        "predict_batch",
        "kernel_shap",
        "AttributionVector",
        "TabulatedModel",
    ):
        assert not hasattr(shapdec, gone)


def test_readme_quick_start_runs():
    """The README's Python example runs, and its interventional parts are
    those of the closed form under the fitted Gaussian: the model reads
    only x1, so x2's part is 0, and x1's is b1 (x1 - mean of E[X1 | x_S])
    over S = {} and S = {x2}."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    namespace = {}
    exec(readme.split("```python\n", 1)[1].split("```", 1)[0], namespace)
    dec, model, x = namespace["dec"], namespace["model"], np.array([1.0, 1.0])
    fitted = shapdec.fit_gaussian(namespace["data"])
    mean, cov = fitted.mean, fitted.cov
    given_x2 = mean[0] + cov[0, 1] / cov[1, 1] * (x[1] - mean[1])
    exact = model.coefficients[0] * (x[0] - (mean[0] + given_x2) / 2)
    assert abs(dec.phi_int[1]) < 1e-9
    assert abs(dec.phi_int[0] - exact) < 0.05


@pytest.mark.parametrize("fn", [decompose], ids=["decompose"])
@pytest.mark.parametrize("length", [1, 3])
def test_sample_length_must_match_the_sampler(fn, length):
    model = LinearModel(np.array([1.0, -1.0]), 0.0)
    sampler = GaussianSampler(GaussianModel(np.zeros(2), np.eye(2)))
    with pytest.raises(IngestionError, match="sample has .* sampler has 2 features"):
        fn(model, sampler, np.ones(length), 8, 8, 0)


@pytest.mark.parametrize("length", [1, 3])
def test_exact_sample_length_must_match_the_joint(length):
    with pytest.raises(IngestionError, match="sample has .* joint has 2 features"):
        exact_decomposition(toy_risk_model(), _toy_joint(), np.ones(length))


class _PlainModel:
    """A model of no shapdec class: what it is sent is checked here, by
    the test, and nowhere else on the way."""

    def __init__(self, n_features):
        self.n_features = n_features
        self.calls = 0

    def predict(self, rows):
        self.calls += 1
        assert isinstance(rows, np.ndarray) and rows.dtype == np.float64
        assert rows.ndim == 2 and rows.shape[1] == self.n_features
        assert np.all(np.isfinite(rows))
        return rows @ np.arange(1.0, self.n_features + 1)

    def describe(self):
        return "plain"


def _explain_with(fn, model, x):
    if fn == "exact_decomposition":
        return exact_decomposition(model, _toy_joint(), x)
    sampler = GaussianSampler(GaussianModel(np.zeros(2), np.array([[1.0, 0.5], [0.5, 1.0]])))
    return decompose(model, sampler, x, 8, 8, 0)


_ENTRY_FAULTS = {
    "model-M": (3, [0.0, 1.0], r"model has 3 features, (sampler|joint) has 2"),
    "nan-x": (2, [np.nan, 1.0], "sample contains non-finite values"),
    "inf-x": (2, [0.0, np.inf], "sample contains non-finite values"),
}


@pytest.mark.parametrize("fault", list(_ENTRY_FAULTS))
@pytest.mark.parametrize("fn", ["decompose", "exact_decomposition"])
def test_a_bad_row_or_model_fails_before_any_model_call(fn, fault):
    n_features, x, message = _ENTRY_FAULTS[fault]
    model = _PlainModel(n_features)
    with pytest.raises(IngestionError, match=message):
        _explain_with(fn, model, np.array(x))
    assert model.calls == 0
    good = _PlainModel(2)
    _explain_with(fn, good, np.array([0.0, 1.0]))
    assert good.calls > 0


def test_efficiency_of_exact_decomposition_random_problems():
    gen = RngStream(22).generator()
    for trial in range(5):
        joint = _random_joint(3, gen)
        w = gen.normal(size=3)
        model = CallableModel(lambda rows, w=w: rows @ w, 3)
        x = joint.support[int(gen.integers(len(joint.support)))]
        dec = exact_decomposition(model, joint, x)
        fx = model.predict([x])[0]
        assert dec.base + dec.phi.sum() == pytest.approx(fx, abs=1e-12)


def test_marginal_sampler_gives_interventional_semantics():
    # with an independence sampler, decompose collapses to phi_dep ~ 0
    data_rows = RngStream(30).generator().normal(size=(400, 2))
    data = FeatureMatrix(("a", "b"), data_rows)
    model = LinearModel(np.array([1.0, 1.0]), 0.0)
    dec = decompose(model, MarginalSampler(data), np.array([1.0, 1.0]), 2000, 2000, 1)
    assert np.max(np.abs(dec.phi_dep)) < 0.1


def _decomposition_by_orderings(model, joint, x):
    """Reference split: the average over all M! feature orderings of the
    paired conditional-expectation differences, one ordering at a time."""
    m = joint.n_features

    def expect(mask, override=None):
        rows, probs = joint.restrict(mask, x)
        if override is not None:
            rows = rows.copy()
            rows[:, override] = x[override]
        return float(probs @ model.predict(rows))

    phi_int = np.zeros(m)
    phi_dep = np.zeros(m)
    orders = list(itertools.permutations(range(m)))
    for order in orders:
        mask = 0
        for i in order:
            t0, t1, t2 = expect(mask), expect(mask, i), expect(mask | 1 << i)
            phi_int[i] += t1 - t0
            phi_dep[i] += t2 - t1
            mask |= 1 << i
    return expect(0), phi_int / len(orders), phi_dep / len(orders)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_exact_decomposition_matches_average_over_orderings(m):
    gen = RngStream(40 + m).generator()
    joint = _random_joint(m, gen)
    w = gen.normal(size=m)
    c = gen.normal()
    model = CallableModel(
        lambda rows, w=w, c=c: rows @ w + c * rows[:, 0] * rows[:, 1] * rows[:, -1], m
    )
    x = joint.support[int(gen.integers(len(joint.support)))]
    dec = exact_decomposition(model, joint, x)
    base, phi_int, phi_dep = _decomposition_by_orderings(model, joint, x)
    assert dec.base == pytest.approx(base, abs=1e-12)
    assert np.max(np.abs(dec.phi - (phi_int + phi_dep))) < 1e-12
    assert np.max(np.abs(dec.phi_int - phi_int)) < 1e-12
    assert np.max(np.abs(dec.phi_dep - phi_dep)) < 1e-12
