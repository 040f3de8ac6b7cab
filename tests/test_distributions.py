import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from shapdec.core import FeatureMatrix, RngStream
from shapdec.distributions import (
    CopulaSampler,
    DiscreteJoint,
    DiscreteSampler,
    GaussianModel,
    GaussianSampler,
    MarginalSampler,
    _CACHED_MASKS,
    _forward_solve,
    _jittered_cholesky,
    _picks,
    fit_copula,
    fit_gaussian,
)
from shapdec.engine import decompose
from shapdec.errors import (
    ConditioningError,
    DegenerateMarginalError,
    IngestionError,
    SingularityError,
)
from shapdec.models import LinearModel
from shapdec.synthetic import synthetic_housing


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


def _split_mask(mask, m):
    """(known, missing) feature indices of coalition ``mask``, ascending."""
    known = [i for i in range(m) if mask >> i & 1]
    return known, [i for i in range(m) if not mask >> i & 1]


def _sample(sampler, mask, x, count, rng):
    """``count`` draws of the missing block of ``mask`` in feature space,
    columns ascending: the missing columns of the sampler's ``_draw`` on a
    newly built generator."""
    x = np.asarray(x, dtype=float)
    rows = sampler._draw(mask, x, count, rng.generator())
    return rows[:, _split_mask(mask, len(x))[1]]


def _hand_solve(model, mask, x):
    """Conditional mean and covariance of the missing block, solved with
    plain numpy: mu_m + Sigma_ms Sigma_ss^-1 (x_s - mu_s) and
    Sigma_mm - Sigma_ms Sigma_ss^-1 Sigma_sm."""
    s, m = _split_mask(mask, len(x))
    gain = np.linalg.solve(model.cov[np.ix_(s, s)], model.cov[np.ix_(s, m)]).T
    mean = model.mean[m] + gain @ (x[s] - model.mean[s])
    cov = model.cov[np.ix_(m, m)] - gain @ model.cov[np.ix_(s, m)]
    return mean, cov


def test_condition_gaussian_matches_hand_solve():
    model = _toy_gaussian()
    sampler = GaussianSampler(model)
    x = np.array([2.0, 0.0, 0.0])
    known = 0b001
    expected_mean, expected_cov = _hand_solve(model, known, x)
    # known block is feature 0: the gain is Sigma_m0 / Sigma_00
    gain = model.cov[1:, 0] / model.cov[0, 0]
    assert np.allclose(expected_mean, model.mean[1:] + gain * (x[0] - model.mean[0]))
    assert np.allclose(sampler.conditional_mean(known, x), expected_mean, atol=1e-12)
    draws = _sample(sampler, known, x, 200_000, RngStream(3))
    assert np.allclose(np.cov(draws.T), expected_cov, atol=0.05)


def test_condition_gaussian_empty_coalition_is_marginal():
    model = _toy_gaussian()
    sampler = GaussianSampler(model)
    known = 0
    assert np.allclose(sampler.conditional_mean(known, np.zeros(3)), model.mean)
    draws = _sample(sampler, known, np.zeros(3), 200_000, RngStream(4))
    assert np.allclose(np.cov(draws.T), model.cov, atol=0.05)


def test_conditional_moments_by_monte_carlo():
    model = _toy_gaussian()
    sampler = GaussianSampler(model)
    known = 0b010
    x = np.array([0.0, -1.0, 0.0])
    draws = _sample(sampler, known, x, 200_000, RngStream(5))
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
    draws = _sample(sampler, 0b111, x, 4, RngStream(0))
    assert draws.shape == (4, 0)


def _rank_deficient_rows(kind):
    """Three columns whose sample covariance is singular: ``a, b`` and a
    copy of ``a``, or ``a, b`` and a constant."""
    gen = RngStream(0).generator()
    base = gen.multivariate_normal([0.0, 1.0], [[1.0, 0.5], [0.5, 2.0]], 200)
    third = base[:, 0] if kind == "twin" else np.full(200, 4.0)
    return np.column_stack([base, third])


@pytest.mark.parametrize("kind", ["twin", "constant"])
def test_rank_deficient_covariance_decomposes_through_the_jitter(kind):
    rows = _rank_deficient_rows(kind)
    model = fit_gaussian(FeatureMatrix(("a", "b", "c"), rows))
    # the plain factor fails, so every coalition goes through the jitter
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(model.cov)
    dec = decompose(LinearModel([1.0, -2.0, 0.5]), GaussianSampler(model), rows[3], 50, 50, 0)
    for arr in (dec.phi, dec.phi_int, dec.phi_dep):
        assert np.all(np.isfinite(arr))
    assert np.allclose(dec.phi, dec.phi_int + dec.phi_dep, rtol=0, atol=1e-12)


def test_twin_conditional_mean_given_its_twin_is_its_value():
    rows = _rank_deficient_rows("twin")
    sampler = GaussianSampler(fit_gaussian(FeatureMatrix(("a", "b", "c"), rows)))
    for x in rows[:5]:
        # know a: the missing block is (b, c), and c is a's copy
        assert abs(sampler.conditional_mean(0b001, x)[1] - x[0]) < 1e-6
        # know c: the missing block is (a, b)
        assert abs(sampler.conditional_mean(0b100, x)[0] - x[2]) < 1e-6


def test_indefinite_covariance_raises_singularity_error():
    model = GaussianModel(np.zeros(2), [[0.0, 1.0], [1.0, 0.0]])  # eigenvalues +-1
    sampler = GaussianSampler(model)
    for mask in range(4):
        with pytest.raises(SingularityError):
            sampler.conditional_mean(mask, np.zeros(2))


def test_jitter_tries_ten_doublings_from_1e_9_times_the_mean_variance():
    # eps is about 1e-9; the tenth jitter, 2^9 eps = 5.12e-7, is the first
    # to exceed 3e-7
    a = np.diag([2.0, -3e-7])
    lower = _jittered_cholesky(a)
    jitter = 2**9 * 1e-9 * np.trace(a) / 2
    assert np.allclose(lower @ lower.T, a + jitter * np.eye(2), rtol=0, atol=1e-15)
    with pytest.raises(SingularityError):
        _jittered_cholesky(np.diag([2.0, -6e-7]))


def _prefix_masks(perm):
    """Masks of the prefixes perm[:0], ..., perm[:M-1]."""
    masks, mask = [], 0
    for i in perm:
        masks.append(mask)
        mask |= 1 << int(i)
    return masks


def _walked(sampler, perm, x, draws, gen):
    """One walk-kernel call for the pair (perm, its reverse): the first
    ordering's prefixes 0 to M - 1 and the reverse's 1 to M - 1, each
    draws x M. The reverse's empty coalition is the first's."""
    m = len(x)
    out = np.empty((1, 2 * m - 1, draws, m))
    orders = np.array([[perm, perm[::-1]]])
    sampler._prefix_draws(orders, x, draws, 1)(0, gen, out)
    return out[0, :m], out[0, m:]


def test_walk_prefix_draws_follow_each_prefixes_conditional_law():
    # M=13: every prefix of a permutation and of its reverse from 20k draws
    # that share one normal block per ordering, against the per-coalition solve
    m, n = 13, 20_000
    gen = RngStream(21).generator()
    a = gen.normal(size=(m, m))
    cov = a @ a.T / m + 0.2 * np.eye(m)
    sampler = GaussianSampler(GaussianModel(np.linspace(-1.0, 2.0, m), cov))
    x, perm = gen.normal(size=m), gen.permutation(m)
    first, reverse = _walked(sampler, perm, x, n, gen)
    masks = _prefix_masks(perm) + _prefix_masks(perm[::-1])[1:]
    for block, mask in zip([*first, *reverse], masks):
        known, missing = _split_mask(mask, m)
        assert np.array_equal(block[:, known], np.tile(x[known], (n, 1)))
        _, _, _, chol = sampler._solved(mask)
        cond_cov = chol @ chol.T
        var = np.diag(cond_cov)
        drawn = block[:, missing]
        error = drawn.mean(axis=0) - sampler.conditional_mean(mask, x)
        assert np.all(np.abs(error) <= 5 * np.sqrt(var / n))
        # the standard error of a sample covariance is sqrt((s_ii s_jj + s_ij^2) / n)
        bound = 6 * np.sqrt((np.outer(var, var) + cond_cov**2) / n)
        assert np.all(np.abs(np.atleast_2d(np.cov(drawn, rowvar=False)) - cond_cov) <= bound)


class _ZeroNormals:
    """A generator stand-in whose normal draws are all 0: the walk's rows
    are then the conditional means."""

    def standard_normal(self, shape):
        return np.zeros(shape)


def test_walk_conditions_a_twin_covariance_through_the_jitter():
    m = 12
    gen = RngStream(2).generator()
    ar = 0.5 ** np.abs(np.subtract.outer(np.arange(m - 1), np.arange(m - 1)))
    base = gen.multivariate_normal(np.zeros(m - 1), ar, 300)
    rows = np.column_stack([base, base[:, 0]])  # the last feature is the first's twin
    model = fit_gaussian(FeatureMatrix(tuple(f"f{j}" for j in range(m)), rows))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(model.cov)
    sampler = GaussianSampler(model)
    x = rows[3]
    dec = decompose(LinearModel(np.linspace(-1.0, 1.0, m)), sampler, x, 40, 60, 0)
    assert dec.meta["estimator"] == "walk"
    for arr in (dec.phi, dec.phi_int, dec.phi_dep):
        assert np.all(np.isfinite(arr))
    assert np.allclose(dec.phi, dec.phi_int + dec.phi_dep, rtol=0, atol=1e-12)
    for _ in range(20):
        perm = gen.permutation(m)
        centre = _walked(sampler, perm, x, 1, _ZeroNormals())[0]
        drawn = _walked(sampler, perm, x, 50, gen)[0]
        for j, mask in enumerate(_prefix_masks(perm)):
            for known, twin in ((0, m - 1), (m - 1, 0)):
                if mask >> known & 1 and not mask >> twin & 1:
                    assert abs(centre[j, 0, twin] - x[known]) < 1e-6
                    # the jitter, about 1e-9 times the mean variance, leaves
                    # the twin a conditional spread of about 5e-5
                    assert np.all(np.abs(drawn[j, :, twin] - x[known]) < 1e-3)


def _near_twin_gaussian(m):
    """A Gaussian fitted to rows whose last feature is the first's twin up
    to noise of 2e-8: its permuted covariances are nearly singular, and
    some of them need the jitter to be factored, some not."""
    gen = RngStream(2).generator()
    ar = 0.5 ** np.abs(np.subtract.outer(np.arange(m - 1), np.arange(m - 1)))
    base = gen.multivariate_normal(np.zeros(m - 1), ar, 300)
    rows = np.column_stack([base, base[:, 0] + 2e-8 * gen.normal(size=300)])
    return fit_gaussian(FeatureMatrix(tuple(f"f{j}" for j in range(m)), rows)), rows


def _forward_substituted(lower, b):
    """w with lower @ w = b for one lower triangular factor, a position at
    a time: w_k = (b_k - sum_{l<k} L_kl w_l) / L_kk, the sum as the walk's
    kernel takes it."""
    w = np.empty(len(b))
    for k in range(len(b)):
        w[k] = (b[k] - np.einsum("l,l->", lower[k, :k], w[:k])) / lower[k, k]
    return w


def _chain_reference(model, perm, x, z):
    """Every prefix of one ordering from its own ``_jittered_cholesky``
    factor L, as the walk folds it: gain is L^T with its columns in
    feature order, w = L^-1 (x - mu)[perm] by forward substitution, and
    draw r of prefix j is [z_r, 1] times gain with rows k < j zeroed over
    the running mean mu + sum_{k<j} w_k gain_k, with x on the prefix."""
    m = len(x)
    lower = _jittered_cholesky(model.cov[np.ix_(perm, perm)])
    w = _forward_substituted(lower, x[perm] - model.mean[perm])
    gain = np.empty((m, m))
    gain[:, perm] = lower.T
    z1 = np.column_stack([z, np.ones(len(z))])
    out, mean = np.empty((m, len(z), m)), model.mean
    for j in range(m):
        factor = np.zeros((m + 1, m))
        factor[j:m] = gain[j:]
        factor[m] = mean
        factor[m, perm[:j]] = x[perm[:j]]
        out[j] = z1 @ factor
        out[j][:, perm[:j]] = x[perm[:j]]
        mean = mean + w[j] * gain[j]
    return out


def _chain_unfolded(model, perm, x, z):
    """The same prefixes as ``mu + L [w_<j, z_r,>=j]`` in perm order, the
    mean added after the product."""
    m = len(x)
    lower = _jittered_cholesky(model.cov[np.ix_(perm, perm)])
    w = _forward_substituted(lower, x[perm] - model.mean[perm])
    out = np.empty((m, len(z), m))
    for j in range(m):
        u = z.copy()
        u[:, :j] = w[:j]
        out[j][:, perm] = u @ lower.T + model.mean[perm]
        out[j][:, perm[:j]] = x[perm[:j]]
    return out


def test_forward_solve_equals_the_lu_solve_on_housing_orderings():
    data, _ = synthetic_housing(seed=0)
    model = fit_gaussian(data)
    m = data.n_features
    gen = RngStream(5).generator()
    perms = np.array([gen.permutation(m) for _ in range(80)])
    lower = np.linalg.cholesky(model.cov[perms[:, :, None], perms[:, None, :]])
    b = (data.values[gen.integers(0, data.n_rows, 80)] - model.mean)
    b = np.take_along_axis(b, perms, axis=1)
    w = _forward_solve(lower, b)
    np.testing.assert_allclose(w, np.linalg.solve(lower, b[..., None])[..., 0], rtol=1e-12)


def test_forward_solve_is_backward_stable_on_jittered_factors():
    # on the near-twin covariance w is ill-conditioned, so it is checked by
    # its componentwise residual, the bound of a backward-stable triangular
    # solve, taken in long double
    m = 12
    model, rows = _near_twin_gaussian(m)
    perms = np.array([RngStream(s).generator().permutation(m) for s in range(40)])
    lower = np.array([_jittered_cholesky(model.cov[np.ix_(p, p)]) for p in perms])
    b = (rows[3] - model.mean)[perms]
    w = _forward_solve(lower, b)
    lo, wo, bo = (a.astype(np.longdouble) for a in (lower, w, b))
    residual = np.abs(np.einsum("nkl,nl->nk", lo, wo) - bo)
    bound = m * np.finfo(float).eps * (np.einsum("nkl,nl->nk", np.abs(lo), np.abs(wo)) + np.abs(bo))
    assert np.all(residual <= bound)


def test_walk_factors_each_ordering_alone_when_the_stacked_factor_fails():
    # the stacked Cholesky of all orderings fails when one of them needs
    # the jitter; each ordering is then factored as _jittered_cholesky
    # factors it alone, jittered or not
    m, draws = 12, 20
    model, rows = _near_twin_gaussian(m)
    x = rows[3]
    perms = [RngStream(s).generator().permutation(m) for s in range(40)]
    orders = np.array([(perm, perm[::-1]) for perm in perms])

    def factors_plainly(perm):
        try:
            np.linalg.cholesky(model.cov[np.ix_(perm, perm)])
        except np.linalg.LinAlgError:
            return False
        return True

    plainly = {factors_plainly(perm) for perm in orders.reshape(-1, m)}
    assert plainly == {True, False}
    draw = GaussianSampler(model)._prefix_draws(orders, x, draws, 1)
    out = np.empty((1, 2 * m - 1, draws, m))
    for q, pair in enumerate(orders):
        draw(q, RngStream(q).generator(), out)
        z = RngStream(q).generator().standard_normal((2, draws, m))
        for o, perm in enumerate(pair):
            walked = out[0, :m] if o == 0 else out[0, m:]
            expected = _chain_reference(model, perm, x, z[o])
            assert walked.tobytes() == expected[o:].tobytes(), (q, o)
            # folding the mean into the factor moves only rounding: 1e-12 of
            # the ordering's largest value, as a draw near 0 is a difference
            # of terms that size
            unfolded = _chain_unfolded(model, perm, x, z[o])[o:]
            scale = np.abs(unfolded).max()
            np.testing.assert_allclose(walked, unfolded, rtol=1e-12, atol=1e-12 * scale)


def _signed_zero_walk_case(kind, m):
    """A sampler of ``kind`` over M features and a row x it can condition
    on, holding -0.0 on features 1 and 7 and 0.0 on 4 and 10 (and on the
    last, the constant feature of "constant-gaussian")."""
    rows = RngStream(8).generator().integers(-2, 3, size=(300, m)).astype(float)
    rows[0, [1, 4, 7, 10]] = 0.0
    if kind == "constant-gaussian":
        rows[:, -1] = 0.0  # every ordering's covariance needs the jitter
    x = rows[0].copy()
    x[[1, 7]] = -0.0
    data = FeatureMatrix(tuple(f"f{j}" for j in range(m)), rows)
    if kind.endswith("gaussian"):
        return GaussianSampler(fit_gaussian(data)), x
    if kind == "copula":
        return CopulaSampler(fit_copula(data)), x
    if kind == "marginal":
        return MarginalSampler(data), x
    support, counts = np.unique(rows, axis=0, return_counts=True)
    return DiscreteSampler(DiscreteJoint(support, counts / counts.sum())), x


@pytest.mark.parametrize(
    "kind", ["gaussian", "constant-gaussian", "copula", "discrete", "marginal"]
)
def test_walk_known_columns_are_xs_bytes(kind):
    # every known column of every prefix of both orderings holds x's own
    # bytes, down to the sign of a zero
    m, draws = 12, 6
    sampler, x = _signed_zero_walk_case(kind, m)
    assert np.signbit(x[[1, 7]]).all() and not np.signbit(x[[4, 10]]).any()
    if kind == "constant-gaussian":
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(sampler.model.cov)
    perms = [RngStream(s, 3).generator().permutation(m) for s in range(30)]
    orders = np.array([(perm, perm[::-1]) for perm in perms])
    draw = sampler._prefix_draws(orders, x, draws, 8)
    gen = RngStream(4).generator()
    out = np.empty((8, 2 * m - 1, draws, m))
    for lo in range(0, len(orders), 8):
        chunk = out[:len(orders[lo:lo + 8])]
        draw(lo, gen, chunk)
        for pair, blocks in zip(orders[lo:lo + 8], chunk):
            for o, perm in enumerate(pair):
                for j in range(1, m):
                    known = perm[:j]
                    rows = blocks[j + o * (m - 1)][:, known]
                    assert rows.tobytes() == np.tile(x[known], (draws, 1)).tobytes()


def test_walk_with_an_indefinite_covariance_raises_singularity_error():
    m = 12
    cov = np.eye(m)
    cov[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]  # eigenvalues +-1
    sampler = GaussianSampler(GaussianModel(np.zeros(m), cov))
    with pytest.raises(SingularityError):
        decompose(LinearModel(np.ones(m)), sampler, np.zeros(m), 40, 60, 0)


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
    draws = _sample(sampler, 0b01, np.array([0.5, 0.0]), 500, RngStream(9))
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
    rows, probs = joint.restrict(0b01, np.array([1.0, 0.0]))
    assert np.allclose(probs.sum(), 1.0)
    assert np.allclose(probs, [0.3, 0.7])
    assert np.allclose(rows[:, 0], 1.0)


def test_discrete_joint_restrict_off_support_errors():
    joint = _xor_joint()
    with pytest.raises(ConditioningError):
        joint.restrict(0b01, np.array([2.0, 0.0]))


def test_discrete_joint_probability_validation():
    support = np.array([[0.0], [1.0]])
    for probs in ([0.6, 0.5], [np.nan, 1.0], [np.nan, np.nan], [np.inf, 0.0]):
        with pytest.raises(IngestionError, match="probs must be nonnegative and sum to 1"):
            DiscreteJoint(support, np.array(probs))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(IngestionError, match="support must be finite"):
            DiscreteJoint(np.array([[0.0], [bad]]), np.array([0.5, 0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("part", ["mean", "cov"])
def test_gaussian_model_rejects_non_finite_parameters(part, bad):
    mean, cov = np.zeros(2), np.eye(2)
    if part == "mean":
        mean[1] = bad
    else:
        cov[0, 1] = cov[1, 0] = bad
    with pytest.raises(IngestionError, match="must be finite"):
        GaussianModel(mean, cov)


def test_discrete_sampler_conditional_mean_is_exact():
    sampler = DiscreteSampler(_xor_joint())
    x = np.array([1.0, 0.0])
    rows, probs = sampler.joint.restrict(0b01, x)
    pmf = probs / probs.sum()  # the pmf _draw picks rows by
    # P(X2=1 | X1=1) = 0.7
    assert _split_mask(0b01, 2)[1] == [1]
    assert np.allclose(pmf @ rows[:, [1]], [0.7], atol=1e-12)
    drawn = sampler._draw(0b01, x, 1000, RngStream(6).generator())
    assert {tuple(row) for row in drawn} <= {tuple(row) for row in rows}


def test_picks_are_generator_choice_picks():
    # the inverse-CDF picks are choice's with p, zeros in p included, and
    # leave the generator where choice leaves it
    gen = RngStream(30).generator()
    for case in range(200):
        n, size = int(gen.integers(1, 60)), int(gen.integers(0, 90))
        weights = gen.uniform(0.0, 1.0, n) * (gen.random(n) < 0.8)
        weights[int(gen.integers(n))] = 1.0
        probs = weights / weights.sum()
        ours, numpys = RngStream(case).generator(), RngStream(case).generator()
        picks = _picks(probs, size, ours)
        assert np.array_equal(picks, numpys.choice(n, size=size, p=probs / probs.sum()))
        assert repr(ours.bit_generator.state) == repr(numpys.bit_generator.state)


def test_discrete_sampler_frequencies_converge():
    sampler = DiscreteSampler(_xor_joint())
    draws = _sample(sampler, 0b01, np.array([1.0, 0.0]), 50_000, RngStream(6))
    assert abs(draws.mean() - 0.7) < 0.01


def _copula_draws_from_scratch(model, mask, x, count, rng):
    """The copula's draw recomputed from scratch: scores of x, a latent
    Gaussian draw, then each missing column back through its marginal."""
    u = np.array([model.marginals[j].to_uniform(x[j]) for j in range(len(x))])
    z = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    latent = GaussianSampler(GaussianModel(np.zeros(len(x)), model.latent_corr))
    draws = _sample(latent, mask, z, count, rng)
    out = np.empty_like(draws)
    for c, j in enumerate(_split_mask(mask, len(x))[1]):
        out[:, c] = model.marginals[j].from_uniform(ndtr(draws[:, c]))
    return out


def _discrete_draws_from_scratch(joint, mask, x, count, rng):
    rows, probs = joint.restrict(mask, x)
    idx = rng.generator().choice(len(rows), size=count, p=probs / probs.sum())
    return rows[np.ix_(idx, np.array(_split_mask(mask, len(x))[1], dtype=np.intp))]


def _gaussian_draws_from_scratch(model, mask, x, count, rng):
    """The Gaussian draw recomputed from scratch: one Cholesky factor of
    the covariance in known-then-missing order, the gain from it by one
    solve, then the conditional mean plus a correlated normal draw."""
    s, m = (np.array(idx, dtype=np.intp) for idx in _split_mask(mask, len(x)))
    order = np.concatenate([s, m])
    lower = np.linalg.cholesky(model.cov[np.ix_(order, order)])
    k = len(s)
    gain = np.linalg.solve(lower[:k, :k].T, lower[k:, :k].T).T
    mean = model.mean[m] + gain @ (x[s] - model.mean[s])
    return mean + rng.generator().standard_normal((count, len(m))) @ lower[k:, k:].T


def _gaussian_case():
    xs = (np.array([2.0, 0.0, 0.0]), np.array([-1.0, 0.5, 3.0]))
    return GaussianSampler, _toy_gaussian(), xs, _gaussian_draws_from_scratch


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


@pytest.mark.parametrize(
    "case", [_gaussian_case, _copula_case, _discrete_case], ids=["gaussian", "copula", "discrete"]
)
def test_shared_sampler_draws_match_a_fresh_one_as_rows_alternate(case):
    make, fitted, (x1, x2), old = case()
    shared = make(fitted)
    for turn, x in enumerate((x1, x2, x1)):
        for mask in range(8):
            rng = RngStream(turn, mask)
            draws = _sample(shared, mask, x, 25, rng)
            assert np.array_equal(draws, _sample(make(fitted), mask, x, 25, rng))
            assert np.array_equal(draws, old(fitted, mask, x, 25, rng))


def _marginal_case():
    rows = RngStream(14).generator().normal(size=(50, 3))
    return MarginalSampler, FeatureMatrix(("a", "b", "c"), rows), (rows[0], rows[1]), None


@pytest.mark.parametrize(
    "case",
    [_gaussian_case, _copula_case, _discrete_case, _marginal_case],
    ids=["gaussian", "copula", "discrete", "marginal"],
)
def test_draw_gives_feature_space_rows_with_x_own_bytes_on_known_columns(case):
    # x holds -0.0 where the discrete support holds 0.0: DiscreteJoint.restrict
    # matches them with ==, so the support row's 0.0 must not leak through
    make, fitted, (x, _), _ = case()
    x = x.copy()
    x[0] = -0.0
    sampler = make(fitted)
    for mask in range(8):
        rows = sampler._draw(mask, x, 40, RngStream(mask).generator())
        known = _split_mask(mask, 3)[0]
        assert rows.shape == (40, 3)
        assert np.all(np.isfinite(rows))
        assert rows[:, known].tobytes() == np.tile(x[known], (40, 1)).tobytes(), mask


def _grid_joint(m, gen):
    """Distinct rows of a grid over {0, 1, 2}^m with random probs."""
    support = np.unique(gen.integers(0, 3, size=(300, m)).astype(float), axis=0)
    probs = gen.uniform(0.1, 1.0, len(support))
    return DiscreteJoint(support, probs / probs.sum())


@pytest.mark.parametrize("first", [True, False], ids=["first", "reverse"])
def test_discrete_walk_equals_per_prefix_draws_on_one_generator(first):
    # one pass over the support gives every prefix the rows, pmf and picks
    # that _draw on its mask gives, in prefix order on one generator: the
    # permutation's prefixes, then its reverse's from the first on
    m, draws = 6, 30
    gen = RngStream(15).generator()
    joint = _grid_joint(m, gen)
    sampler = DiscreteSampler(joint)
    for _ in range(5):
        x = joint.support[int(gen.integers(len(joint.support)))].copy()
        x[x == 0.0] = -0.0
        perm = gen.permutation(m)
        walk_gen, one = RngStream(4).generator(), RngStream(4).generator()
        walk = _walked(sampler, perm, x, draws, walk_gen)[0 if first else 1]
        masks = _prefix_masks(perm) + _prefix_masks(perm[::-1])[1:]
        expected = [sampler._draw(mask, x, draws, one) for mask in masks]
        expected = np.concatenate(expected[:m] if first else expected[m:])
        assert walk.tobytes() == expected.reshape(walk.shape).tobytes()
        assert walk_gen.random() == one.random()


def test_discrete_walk_prefix_off_the_support_raises_conditioning_error():
    # the grid holds every x with x_0 in {0, 1, 2}: prefix {2} matches,
    # prefix {2, 0} does not, and the error names it as restrict does
    make, joint, _, _ = _discrete_case()
    x, perm = np.array([5.0, 1.0, 0.0]), np.array([2, 0, 1])
    with pytest.raises(ConditioningError) as restricted:
        joint.restrict(0b101, x)
    with pytest.raises(ConditioningError) as walked:
        _walked(make(joint), perm, x, 10, RngStream(0).generator())
    assert str(walked.value) == str(restricted.value) == (
        "no support row matches features (0, 2) = [5.0, 0.0]"
    )


def test_marginal_sampler_ignores_conditioning():
    data = FeatureMatrix(("a", "b"), np.array([[0.0, 10.0], [1.0, 20.0]]))
    sampler = MarginalSampler(data)
    draws = _sample(sampler, 0b01, np.array([555.0, 0.0]), 2000, RngStream(8))
    assert set(np.unique(draws)) <= {10.0, 20.0}


@pytest.mark.parametrize("first", [True, False], ids=["first", "reverse"])
def test_marginal_walk_prefixes_share_one_block_of_background_rows(first):
    # one permutation's prefixes set x on one block of whole background
    # rows, so prefix j + 1 is prefix j with perm[j] set to x. The first
    # prefix's rows name their background rows.
    m, draws = 6, 30
    background = RngStream(9).generator().normal(size=(40, m))
    sampler = MarginalSampler(FeatureMatrix(tuple("abcdef"), background))
    x, perm = np.linspace(5.0, 10.0, m), np.array([3, 0, 5, 1, 4, 2])
    masks = _prefix_masks(perm if first else perm[::-1])[0 if first else 1:]
    blocks = _walked(sampler, perm, x, draws, RngStream(4).generator())[0 if first else 1]
    _, missing = _split_mask(masks[0], m)
    source = [
        int(np.flatnonzero(np.all(background[:, missing] == row, axis=1))[0])
        for row in blocks[0][:, missing]
    ]
    for block, mask in zip(blocks, masks):
        known, _ = _split_mask(mask, m)
        expected = background[source].copy()
        expected[:, known] = x[known]
        assert np.array_equal(block, expected), mask


def test_gaussian_sampler_cache_is_bounded_and_outputs_unchanged():
    # the housing study's conditional-mean imputation asks for new masks
    # with every town; at M=13 the shared sampler's cache is emptied at
    # _CACHED_MASKS and gives the same bits as a fresh sampler every time
    m = 13
    gen = RngStream(21).generator()
    a = gen.normal(size=(m, m))
    fitted = GaussianModel(gen.normal(size=m), a @ a.T / m + np.eye(m))
    shared = GaussianSampler(fitted)
    sizes = []
    for x, masks in zip(gen.normal(size=(8, m)), gen.permutation(1 << m).reshape(8, -1)):
        for mask in masks[:400].tolist():
            mean = shared.conditional_mean(mask, x)
            sizes.append(len(shared._cache))
            assert mean.tobytes() == GaussianSampler(fitted).conditional_mean(mask, x).tobytes()
    assert max(sizes) <= _CACHED_MASKS
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))  # it was emptied
