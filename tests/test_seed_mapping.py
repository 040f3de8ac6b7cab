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
    # M=12 > 11: decompose walks antithetic permutations
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
        0.30754705145581324,
        [0.4458971428182879, -0.6367987434172329, 0.38335454914313166],
        [0.7200107627432241, -1.0276094895612056, 0.529459866321292],
    ),
    "gaussian_sampled_coalitions": (
        0.030165025352311164,
        [
            -0.9179921334939043, -0.7066142940062313, -0.4506554084832869,
            -0.2105108087270722, -0.14922103742822973, 0.013842818905551313,
            0.0895469574112355, -0.09601914172688593, -0.1516557369445174,
            -0.27207820341284195, -0.17597413369985004, -0.5482884492008234,
        ],
        [
            -0.5883298320273844, -0.3108694354263998, -0.13749791764414462,
            -0.09891325227826504, -0.02266812827850633, -0.008592026912091344,
            0.00858757947196239, 0.012465352702107723, -0.022767797969025963,
            -0.08150746745233375, -0.1270388027523168, -0.41798289421165713,
        ],
    ),
    "copula": (
        1.832184907531105,
        [-1.8556146506862163, 0.4422571907278016, 0.8701960665539002],
        [-2.133880564962359, -0.05895190120671201, 0.16319356614690686],
    ),
    "discrete": (
        1.6000000000000003,
        [0.8791666666666665, 0.054166666666666474, -0.5333333333333334],
        [0.7999999999999999, 0.11666666666666646, -0.5000000000000001],
    ),
    "marginal": (
        0.38262653497567206,
        [-0.7143346990493662, -0.15985025899371966, 0.1202348390981396],
        [-0.5460528881442327, -0.06702252816072214, 0.0030470611201404685],
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
