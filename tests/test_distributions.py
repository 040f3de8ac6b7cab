import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from shapdec.core import Coalition, FeatureMatrix, RngStream
from shapdec.distributions import (
    CopulaSampler,
    DiscreteJoint,
    DiscreteSampler,
    GaussianModel,
    GaussianSampler,
    MarginalSampler,
    fit_copula,
    fit_gaussian,
    sampler_from_json,
)
from shapdec.errors import ConditioningError, DegenerateMarginalError, IngestionError


def _toy_gaussian():
    mu = np.array([1.0, -2.0, 0.5])
    cov = np.array(
        [
            [2.0, 0.8, -0.4],
            [0.8, 1.5, 0.3],
            [-0.4, 0.3, 1.0],
        ]
    )
    return GaussianModel(mu, cov)


def _hand_solve(model, known, x):
    """Conditional mean and covariance of the missing block, solved with
    plain numpy: mu_m + Sigma_ms Sigma_ss^-1 (x_s - mu_s) and
    Sigma_mm - Sigma_ms Sigma_ss^-1 Sigma_sm."""
    s = list(known.members)
    m = list(known.complement_members)
    gain = np.linalg.solve(model.cov[np.ix_(s, s)], model.cov[np.ix_(s, m)]).T
    mean = model.mean[m] + gain @ (x[s] - model.mean[s])
    cov = model.cov[np.ix_(m, m)] - gain @ model.cov[np.ix_(s, m)]
    return mean, cov


def test_condition_gaussian_matches_hand_solve():
    model = _toy_gaussian()
    sampler = GaussianSampler(model)
    x = np.array([2.0, 0.0, 0.0])
    known = Coalition.from_indices([0], 3)
    expected_mean, expected_cov = _hand_solve(model, known, x)
    # known block is feature 0: the gain is Sigma_m0 / Sigma_00
    gain = model.cov[1:, 0] / model.cov[0, 0]
    assert np.allclose(expected_mean, model.mean[1:] + gain * (x[0] - model.mean[0]))
    assert np.allclose(sampler.conditional_mean(known, x), expected_mean, atol=1e-12)
    draws = sampler.sample_conditional(known, x, 200_000, RngStream(3))
    assert np.allclose(np.cov(draws.T), expected_cov, atol=0.05)


def test_condition_gaussian_empty_coalition_is_marginal():
    model = _toy_gaussian()
    sampler = GaussianSampler(model)
    known = Coalition.empty(3)
    assert np.allclose(sampler.conditional_mean(known, np.zeros(3)), model.mean)
    draws = sampler.sample_conditional(known, np.zeros(3), 200_000, RngStream(4))
    assert np.allclose(np.cov(draws.T), model.cov, atol=0.05)


def test_conditional_moments_by_monte_carlo():
    model = _toy_gaussian()
    sampler = GaussianSampler(model)
    known = Coalition.from_indices([1], 3)
    x = np.array([0.0, -1.0, 0.0])
    draws = sampler.sample_conditional(known, x, 200_000, RngStream(5))
    cond_mean, cond_cov = _hand_solve(model, known, x)
    assert draws.shape == (200_000, 2)
    assert np.allclose(draws.mean(axis=0), cond_mean, atol=0.02)
    assert np.allclose(np.cov(draws.T), cond_cov, atol=0.05)
    assert np.allclose(sampler.conditional_mean(known, x), cond_mean, atol=1e-12)


def test_fit_gaussian_recovers_moments():
    gen = RngStream(11).generator()
    rows = gen.multivariate_normal([0.0, 3.0], [[1.0, 0.6], [0.6, 2.0]], size=50_000)
    model = fit_gaussian(FeatureMatrix(("a", "b"), rows))
    assert np.allclose(model.mean, [0.0, 3.0], atol=0.05)
    assert np.allclose(model.cov, [[1.0, 0.6], [0.6, 2.0]], atol=0.1)


def test_gaussian_sampler_full_coalition_returns_x():
    sampler = GaussianSampler(_toy_gaussian())
    x = np.array([1.0, 2.0, 3.0])
    draws = sampler.sample_conditional(Coalition.full(3), x, 4, RngStream(0))
    assert draws.shape == (4, 0)


def test_copula_marginals_roundtrip_on_observed_points():
    gen = RngStream(2).generator()
    rows = np.column_stack(
        [gen.exponential(2.0, 500), gen.normal(5.0, 2.0, 500)]
    )
    model = fit_copula(FeatureMatrix(("e", "n"), rows))
    for j, marg in enumerate(model.marginals):
        u = marg.to_uniform(rows[:, j])
        back = marg.from_uniform(u)
        assert np.allclose(back, rows[:, j], atol=1e-9)


def test_copula_latent_correlation_tracks_rank_correlation():
    gen = RngStream(3).generator()
    z = gen.multivariate_normal([0, 0], [[1.0, 0.8], [0.8, 1.0]], size=4000)
    # monotone marginal transforms leave the copula untouched
    rows = np.column_stack([np.exp(z[:, 0]), z[:, 1] ** 3])
    model = fit_copula(FeatureMatrix(("a", "b"), rows))
    assert abs(model.latent_corr[0, 1] - 0.8) < 0.05


def test_copula_conditional_sampling_respects_support():
    gen = RngStream(4).generator()
    rows = np.column_stack([gen.uniform(0, 1, 300), gen.uniform(10, 20, 300)])
    sampler = CopulaSampler(fit_copula(FeatureMatrix(("u", "v"), rows)))
    draws = sampler.sample_conditional(
        Coalition.from_indices([0], 2), np.array([0.5, 0.0]), 500, RngStream(9)
    )
    assert draws.shape == (500, 1)
    assert draws.min() >= 10.0 - 1e-9
    assert draws.max() <= 20.0 + 1e-9


def test_copula_rejects_constant_column():
    rows = np.column_stack([np.ones(50), np.arange(50.0)])
    with pytest.raises(DegenerateMarginalError):
        fit_copula(FeatureMatrix(("c", "x"), rows))


def _xor_joint():
    support = np.array(
        [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
    )
    return DiscreteJoint(support, np.array([0.35, 0.15, 0.15, 0.35]))


def test_discrete_joint_restrict_renormalizes():
    joint = _xor_joint()
    rows, probs = joint.restrict(Coalition.from_indices([0], 2), np.array([1.0, 0.0]))
    assert np.allclose(probs.sum(), 1.0)
    assert np.allclose(probs, [0.3, 0.7])
    assert np.allclose(rows[:, 0], 1.0)


def test_discrete_joint_restrict_off_support_errors():
    joint = _xor_joint()
    with pytest.raises(ConditioningError):
        joint.restrict(Coalition.from_indices([0], 2), np.array([2.0, 0.0]))


def test_discrete_joint_probability_validation():
    support = np.array([[0.0], [1.0]])
    with pytest.raises(IngestionError):
        DiscreteJoint(support, np.array([0.6, 0.5]))


def test_discrete_sampler_conditional_mean_is_exact():
    joint = _xor_joint()
    sampler = DiscreteSampler(joint)
    mean = sampler.conditional_mean(
        Coalition.from_indices([0], 2), np.array([1.0, 0.0])
    )
    # P(X2=1 | X1=1) = 0.7
    assert np.allclose(mean, [0.7], atol=1e-12)


def test_discrete_sampler_frequencies_converge():
    sampler = DiscreteSampler(_xor_joint())
    draws = sampler.sample_conditional(
        Coalition.from_indices([0], 2), np.array([1.0, 0.0]), 50_000, RngStream(6)
    )
    assert abs(draws.mean() - 0.7) < 0.01


def _copula_draws_from_scratch(model, known, x, count, rng):
    """The copula's draw recomputed from scratch: scores of x, a latent
    Gaussian draw, then each missing column back through its marginal."""
    u = np.array([model.marginals[j].to_uniform(x[j]) for j in range(len(x))])
    z = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    latent = GaussianSampler(GaussianModel(np.zeros(len(x)), model.latent_corr))
    draws = latent.sample_conditional(known, z, count, rng)
    out = np.empty_like(draws)
    for c, j in enumerate(known.complement_members):
        out[:, c] = model.marginals[j].from_uniform(ndtr(draws[:, c]))
    return out


def _discrete_draws_from_scratch(joint, known, x, count, rng):
    rows, probs = joint.restrict(known, x)
    idx = rng.generator().choice(len(rows), size=count, p=probs / probs.sum())
    return rows[np.ix_(idx, np.array(known.complement_members, dtype=np.intp))]


def _copula_case():
    gen = RngStream(13).generator()
    cov = [[1.0, 0.6, 0.2], [0.6, 1.0, -0.3], [0.2, -0.3, 1.0]]
    rows = np.exp(gen.multivariate_normal(np.zeros(3), cov, 400))
    model = fit_copula(FeatureMatrix(("a", "b", "c"), rows))
    return CopulaSampler, model, (rows[0], rows[1]), _copula_draws_from_scratch


def _discrete_case():
    gen = RngStream(12).generator()
    support = np.array(np.meshgrid([0.0, 1.0, 2.0], [0.0, 1.0], [0.0, 1.0, 2.0]))
    support = support.reshape(3, -1).T
    probs = gen.uniform(0.1, 1.0, len(support))
    joint = DiscreteJoint(support, probs / probs.sum())
    xs = (np.array([2.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))
    return DiscreteSampler, joint, xs, _discrete_draws_from_scratch


@pytest.mark.parametrize("case", [_copula_case, _discrete_case], ids=["copula", "discrete"])
def test_shared_sampler_draws_match_a_fresh_one_as_rows_alternate(case):
    make, fitted, (x1, x2), old = case()
    shared = make(fitted)
    for turn, x in enumerate((x1, x2, x1)):
        for mask in range(8):
            known = Coalition(mask, 3)
            rng = RngStream(turn, mask)
            draws = shared.sample_conditional(known, x, 25, rng)
            assert np.array_equal(draws, make(fitted).sample_conditional(known, x, 25, rng))
            assert np.array_equal(draws, old(fitted, known, x, 25, rng))


def test_marginal_sampler_ignores_conditioning():
    data = FeatureMatrix(("a", "b"), np.array([[0.0, 10.0], [1.0, 20.0]]))
    sampler = MarginalSampler(data)
    draws = sampler.sample_conditional(
        Coalition.from_indices([0], 2), np.array([555.0, 0.0]), 2000, RngStream(8)
    )
    assert set(np.unique(draws)) <= {10.0, 20.0}
    mean = sampler.conditional_mean(Coalition.from_indices([0], 2), np.zeros(2))
    assert np.allclose(mean, [15.0])


@pytest.mark.parametrize("kind", ["gaussian", "copula", "discrete", "marginal"])
def test_sampler_json_roundtrip(kind):
    gen = RngStream(13).generator()
    rows = np.round(gen.normal(size=(60, 2)), 3)
    data = FeatureMatrix(("a", "b"), rows)
    if kind == "gaussian":
        sampler = GaussianSampler(fit_gaussian(data))
    elif kind == "copula":
        sampler = CopulaSampler(fit_copula(data))
    elif kind == "discrete":
        uniq, counts = np.unique(rows, axis=0, return_counts=True)
        sampler = DiscreteSampler(DiscreteJoint(uniq, counts / counts.sum()))
    else:
        sampler = MarginalSampler(data)
    clone = sampler_from_json(sampler.to_json_dict())
    known = Coalition.from_indices([1], 2)
    x = rows[0]
    a = sampler.sample_conditional(known, x, 32, RngStream(77))
    b = clone.sample_conditional(known, x, 32, RngStream(77))
    assert np.allclose(a, b)


def test_sampler_from_json_unknown_kind():
    with pytest.raises(IngestionError):
        sampler_from_json({"kind": "wishful"})
