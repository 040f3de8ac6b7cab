import itertools
import math

import numpy as np
import pytest

from shapdec.core import Coalition, FeatureMatrix, RngStream
from shapdec.distributions import (
    DiscreteJoint,
    DiscreteSampler,
    GaussianModel,
    GaussianSampler,
    MarginalSampler,
)
from shapdec.engine import (
    AdditiveComponent,
    AdditiveModel,
    ExactValueFunction,
    ValueFunction,
    additive_split_check,
    decompose,
    exact_decomposition,
    exact_discrete_value_function,
    interventional_parts,
    interventional_value_function,
    kernel_shap,
    shapley_from_value_function,
    shapley_kernel_weight,
    shapley_residuals,
)
from shapdec.errors import OracleError, SizeError
from shapdec.models import CallableModel, LinearModel, toy_risk_model


def _toy_joint():
    support = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    return DiscreteJoint(support, np.array([0.35, 0.15, 0.15, 0.35]))


def _random_joint(m, gen):
    support = np.array(
        [[(mask >> i) & 1 for i in range(m)] for mask in range(1 << m)], dtype=float
    )
    probs = gen.dirichlet(np.ones(len(support)))
    return DiscreteJoint(support, probs)


def test_kernel_weight_values():
    # M=4, |S|=1: 3 / (C(4,1)*1*3) = 1/4
    assert shapley_kernel_weight(4, 1) == pytest.approx(0.25)
    assert shapley_kernel_weight(4, 2) == pytest.approx(3 / (6 * 2 * 2))
    with pytest.raises(SizeError):
        shapley_kernel_weight(4, 0)
    with pytest.raises(SizeError):
        shapley_kernel_weight(4, 4)


def test_value_function_full_coalition_is_model_output():
    model = LinearModel(np.array([1.0, -2.0]), 0.5)
    sampler = GaussianSampler(GaussianModel(np.zeros(2), np.eye(2)))
    vf = ValueFunction(model, sampler, 16)
    x = np.array([3.0, 1.0])
    assert vf.evaluate(x, Coalition.full(2), RngStream(0)) == pytest.approx(1.5)


def test_value_function_empty_coalition_is_base_rate():
    model = LinearModel(np.array([1.0]), 0.0)
    sampler = GaussianSampler(GaussianModel(np.array([5.0]), np.eye(1)))
    vf = ValueFunction(model, sampler, 50_000)
    v0 = vf.evaluate(np.array([0.0]), Coalition.empty(1), RngStream(1))
    assert v0 == pytest.approx(5.0, abs=0.05)


def test_kernel_shap_matches_linear_closed_form():
    coef = np.array([1.0, -2.0, 0.5, 3.0])
    model = LinearModel(coef, 1.0)
    mean = np.array([0.5, -1.0, 2.0, 0.0])
    sampler = GaussianSampler(GaussianModel(mean, np.eye(4)))
    x = np.array([1.0, 1.0, 1.0, 1.0])
    vf = ValueFunction(model, sampler, 4000)
    result = kernel_shap(vf, x, RngStream(3))
    assert np.allclose(result.phi, coef * (x - mean), atol=0.1)
    assert result.base + result.phi.sum() == pytest.approx(model.predict([x])[0])


def test_kernel_shap_exact_value_function_is_exact():
    # kernel regression on an exact v reproduces enumeration exactly
    gen = RngStream(17).generator()
    joint = _random_joint(3, gen)
    model = CallableModel(
        lambda rows: rows[:, 0] + 2.0 * rows[:, 1] * rows[:, 2], 3, name="t"
    )
    x = np.array([1.0, 1.0, 0.0])
    vf = exact_discrete_value_function(model, joint, x)
    ks = kernel_shap(vf, x, RngStream(0))
    ref = shapley_from_value_function(vf, x)
    assert np.allclose(ks.phi, ref.phi, atol=1e-9)
    assert ks.base == pytest.approx(ref.base, abs=1e-12)


def test_exact_decomposition_toy_values():
    dec = exact_decomposition(toy_risk_model(), _toy_joint(), np.array([1.0, 1.0]))
    assert dec.base == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(dec.phi, [0.4, 0.1], atol=1e-12)
    assert np.allclose(dec.phi_int, [0.4, 0.0], atol=1e-12)
    assert np.allclose(dec.phi_dep, [0.0, 0.1], atol=1e-12)


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
    # kernel SHAP anchors g(full), so phi sums to f(x) - base exactly
    assert dec.base + dec.phi.sum() == pytest.approx(model.predict([x])[0], abs=1e-9)
    assert np.allclose(dec.phi, dec.phi_int + dec.phi_dep, atol=1e-12)


def test_decompose_warns_on_small_k2():
    model = LinearModel(np.array([1.0]), 0.0)
    sampler = GaussianSampler(GaussianModel(np.zeros(1), np.eye(1)))
    with pytest.warns(UserWarning, match="K2"):
        decompose(model, sampler, np.array([0.0]), 100, 10, 0)


def test_interventional_parts_deterministic():
    model = LinearModel(np.array([1.0, 2.0, 3.0]), 0.0)
    sampler = GaussianSampler(
        GaussianModel(np.zeros(3), np.eye(3) + 0.3 * (np.ones((3, 3)) - np.eye(3)))
    )
    x = np.array([1.0, 0.0, -1.0])
    a = interventional_parts(model, sampler, x, 200, RngStream(4))
    b = interventional_parts(model, sampler, x, 200, RngStream(4))
    assert np.array_equal(a, b)


def _parts_with_fresh_generators(model, sampler, x, k2, rng):
    """interventional_parts with a newly built generator for every (i, k)."""
    m = len(x)
    phi_int = np.zeros(m)
    for i in range(m):
        rows = np.tile(x, (k2, 1))
        for k in range(k2):
            gen = rng.substream(i).substream(k).generator()
            order = list(gen.permutation(m))
            known = Coalition.from_indices(order[: order.index(i)], m)
            draw = sampler.sample_conditional(known, x, 1, gen)[0]
            rows[k, list(known.complement_members)] = draw
        with_x_i = rows.copy()
        with_x_i[:, i] = x[i]
        phi_int[i] = (model.predict(with_x_i) - model.predict(rows)).mean()
    return phi_int


def test_interventional_parts_equal_fresh_generator_draws():
    cov = np.eye(4) + 0.4 * (np.ones((4, 4)) - np.eye(4))
    sampler = GaussianSampler(GaussianModel(np.arange(4.0), cov))
    model = LinearModel(np.array([1.0, -2.0, 0.5, 3.0]), 0.25)
    x = np.array([0.5, 2.0, -1.0, 4.0])
    rng = RngStream(2**63 + 5, 3)
    expected = _parts_with_fresh_generators(model, sampler, x, 30, rng)
    assert np.array_equal(interventional_parts(model, sampler, x, 30, rng), expected)


def test_interventional_parts_independent_case_is_psi():
    coef = np.array([1.0, -3.0])
    model = LinearModel(coef, 0.0)
    mean = np.array([1.0, 1.0])
    sampler = GaussianSampler(GaussianModel(mean, np.eye(2)))
    x = np.array([2.0, 0.0])
    phi_int = interventional_parts(model, sampler, x, 5000, RngStream(5))
    assert np.allclose(phi_int, coef * (x - mean), atol=0.1)


def test_interventional_value_function_uses_background_rows():
    data = FeatureMatrix(("a", "b"), np.array([[0.0, 1.0], [0.0, 3.0]]))
    model = LinearModel(np.array([1.0, 1.0]), 0.0)
    vf = interventional_value_function(model, data, 64)
    v = vf.evaluate(np.array([5.0, 0.0]), Coalition.from_indices([0], 2), RngStream(0))
    # x_a fixed at 5, X_b drawn from {1, 3}
    assert 6.0 <= v <= 8.0


def test_shapley_residuals_inessential_game_is_zero():
    # additive v: contributions are coalition-independent, residuals vanish
    x = np.array([2.0, -1.0])

    def v(c):
        return sum(x[i] for i in c.members)

    table = shapley_residuals(ExactValueFunction(v, 2), x)
    for i in range(2):
        assert table.norm(i) == pytest.approx(0.0, abs=1e-12)


def test_shapley_residuals_m2_norm_convention():
    # v({1}) differs from v({1}|{2}) by 2d: residuals are +/- d, norm d*sqrt(2)
    vals = {0: 0.0, 1: 1.0, 2: 0.5, 3: 2.5}

    def v(c):
        return vals[c.mask]

    table = shapley_residuals(ExactValueFunction(v, 2), np.zeros(2))
    d0 = (vals[3] - vals[2]) - (vals[1] - vals[0])  # 2 * residual gap
    assert table.norm(0) == pytest.approx(abs(d0) / 2 * math.sqrt(2))
    assert table.permutation_weighted_average(0) == pytest.approx(0.0, abs=1e-15)


def test_additive_split_check_flags_nothing_on_additive_models():
    gen = RngStream(21).generator()
    joint = _random_joint(3, gen)
    model = AdditiveModel(
        [
            AdditiveComponent((0,), lambda rows: 2.0 * rows[:, 0]),
            AdditiveComponent((1, 2), lambda rows: rows[:, 1] * rows[:, 2]),
        ],
        3,
    )
    report = additive_split_check(model, joint, np.array([1.0, 0.0, 1.0]))
    assert report["max_abs_delta"] <= 1e-12


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
        rows, probs = joint.restrict(Coalition(mask, m), x)
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
