"""Pins the seed -> draw mapping: `decompose` outputs for one small row per
sampler kind, to rtol=1e-12.

A change of the mapping (how a seed becomes substreams, generator keys and
draws) moves these values by about 1e-2; last-bit BLAS drift stays far
below 1e-12. A change that alters the mapping on purpose updates the
values here and says so in CHANGES.md.
"""

import numpy as np
import pytest

from shapdec.core import FeatureMatrix, RngStream
from shapdec.distributions import (
    CopulaSampler,
    DiscreteJoint,
    DiscreteSampler,
    GaussianModel,
    GaussianSampler,
    MarginalSampler,
    fit_copula,
)
from shapdec.engine import decompose
from shapdec.models import CallableModel, LinearModel


def _gaussian():
    cov = np.eye(3) + 0.5 * (np.ones((3, 3)) - np.eye(3))
    sampler = GaussianSampler(GaussianModel(np.array([1.0, 0.0, -1.0]), cov))
    model = LinearModel(np.array([1.0, -2.0, 0.5]), 0.25)
    return model, sampler, np.array([2.0, 1.0, 0.5]), 7


def _gaussian_sampled_coalitions():
    # M=12 > 11: Kernel SHAP samples its coalitions
    m = 12
    cov = 0.7 ** np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    sampler = GaussianSampler(GaussianModel(np.zeros(m), cov))
    model = LinearModel(np.linspace(-1.0, 1.0, m), 0.0)
    return model, sampler, np.linspace(1.0, -0.5, m), 2**63 + 11


def _copula():
    gen = RngStream(5).generator()
    cov = [[1.0, 0.6, 0.2], [0.6, 1.0, -0.3], [0.2, -0.3, 1.0]]
    rows = np.exp(gen.multivariate_normal(np.zeros(3), cov, 200))
    sampler = CopulaSampler(fit_copula(FeatureMatrix(("a", "b", "c"), rows)))
    model = CallableModel(lambda r: r[:, 0] * r[:, 1] - np.log(r[:, 2]), 3)
    return model, sampler, rows[3], 2**64 - 2**20


def _discrete():
    support = np.array(np.meshgrid([0.0, 1.0, 2.0], [0.0, 1.0], [0.0, 1.0])).reshape(3, -1).T
    probs = np.arange(1.0, len(support) + 1)
    sampler = DiscreteSampler(DiscreteJoint(support, probs / probs.sum()))
    model = CallableModel(lambda r: r[:, 0] + r[:, 1] * r[:, 2], 3)
    return model, sampler, np.array([2.0, 1.0, 0.0]), 3


def _marginal():
    rows = RngStream(6).generator().normal(size=(50, 3))
    sampler = MarginalSampler(FeatureMatrix(("a", "b", "c"), rows))
    model = CallableModel(lambda r: np.tanh(r[:, 0]) + r[:, 1] * r[:, 2], 3)
    return model, sampler, rows[0], 19


# case -> (base, phi, phi_int), recorded with the mapping as it stands
PINNED = {
    "gaussian": (
        0.3075470514558133,
        [0.4839622682066223, -0.6952159105847977, 0.4037065909223621],
        [0.6442328522152282, -0.9878581337188628, 0.7063000784760958],
    ),
    "gaussian_sampled_coalitions": (
        -0.03668308937440297,
        [
            -0.8813643902092217, -0.5516965612842636, -0.3178870374382225,
            -0.13028335982249373, -0.12123496179537283, -0.16668117580784883,
            -0.05175223364137491, 0.005612595832922297, -0.1276578005303524,
            -0.2893937147431814, -0.21262277342718278, -0.6638100432135494,
        ],
        [
            -0.44740499905846914, -0.4062839663150601, -0.15280512841711946,
            -0.06866602568887419, 0.01584315735515606, -0.02734667375264075,
            -0.004766822465505512, -0.0073883676122200375, -0.022453994334716672,
            -0.08586520176539984, -0.11434532158432556, -0.36138533964155894,
        ],
    ),
    "copula": (
        3.7608846280690913,
        [-2.5025633431545207, -0.24719195044728545, 0.2778941796593051],
        [-3.0960048602752823, 0.3708082784695658, 0.212015181610798],
    ),
    "discrete": (
        1.6,
        [0.8125000000000001, 0.06250000000000004, -0.4750000000000002],
        [0.8833333333333333, 0.1, -0.4666666666666667],
    ),
    "marginal": (
        0.3826265349756719,
        [-0.6349125023542488, -0.07860940374933408, -0.04042821284136311],
        [-0.45246961452856665, 0.16672507767721528, 0.11770580217618505],
    ),
}


@pytest.mark.parametrize(
    "case",
    [_gaussian, _gaussian_sampled_coalitions, _copula, _discrete, _marginal],
    ids=lambda case: case.__name__.lstrip("_"),
)
def test_decompose_outputs_are_pinned(case):
    model, sampler, x, seed = case()
    dec = decompose(model, sampler, x, 40, 60, seed)
    base, phi, phi_int = PINNED[case.__name__.lstrip("_")]
    assert dec.base == pytest.approx(base, rel=1e-12, abs=0)
    assert np.allclose(dec.phi, phi, rtol=1e-12, atol=0)
    assert np.allclose(dec.phi_int, phi_int, rtol=1e-12, atol=0)
