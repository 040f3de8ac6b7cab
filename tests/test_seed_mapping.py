"""Pins the seed -> draw mapping: `decompose` outputs for one small row per
sampler kind on the table (M=3), and for every sampler kind on the
permutation walk (M=12), to rtol=1e-12.

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


def _copula_sampled_coalitions():
    # M=12 > 11: the walk conditions the latent Gaussian, then back-transforms
    m = 12
    cov = 0.6 ** np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    rows = np.exp(RngStream(8).generator().multivariate_normal(np.zeros(m), cov, 300))
    sampler = CopulaSampler(fit_copula(FeatureMatrix(tuple(f"f{j}" for j in range(m)), rows)))
    model = CallableModel(lambda r: r[:, 0] * r[:, 1] - np.log(r[:, 2]) + r[:, 3:].sum(axis=1), m)
    return model, sampler, rows[3], 2**62 + 3


def _discrete():
    support = np.array(np.meshgrid([0.0, 1.0, 2.0], [0.0, 1.0], [0.0, 1.0])).reshape(3, -1).T
    probs = np.arange(1.0, len(support) + 1)
    sampler = DiscreteSampler(DiscreteJoint(support, probs / probs.sum()))
    model = CallableModel(lambda r: r[:, 0] + r[:, 1] * r[:, 2], 3)
    return model, sampler, np.array([2.0, 1.0, 0.0]), 3


def _discrete_sampled_coalitions():
    # M=12 > 11: the walk matches every prefix in one pass over the support
    m = 12
    gen = RngStream(12).generator()
    support = np.unique(gen.integers(0, 2, size=(1500, m)).astype(float), axis=0)
    probs = gen.uniform(0.1, 1.0, len(support))
    sampler = DiscreteSampler(DiscreteJoint(support, probs / probs.sum()))
    model = CallableModel(lambda r: r[:, 0] * r[:, 1] - r[:, 2] + r[:, 3:].sum(axis=1), m)
    return model, sampler, support[7], 2**61 + 17


def _marginal():
    rows = RngStream(6).generator().normal(size=(50, 3))
    sampler = MarginalSampler(FeatureMatrix(("a", "b", "c"), rows))
    model = CallableModel(lambda r: np.tanh(r[:, 0]) + r[:, 1] * r[:, 2], 3)
    return model, sampler, rows[0], 19


def _marginal_sampled_coalitions():
    # M=12 > 11: the walk's prefixes share one block of background rows
    m = 12
    rows = RngStream(10).generator().normal(size=(80, m))
    sampler = MarginalSampler(FeatureMatrix(tuple(f"f{j}" for j in range(m)), rows))
    model = CallableModel(lambda r: np.tanh(r[:, 0]) + r[:, 1] * r[:, 2] + r[:, 3:].sum(axis=1), m)
    return model, sampler, rows[5], 2**63 + 29


# case -> (base, phi, phi_int), recorded with the mapping as it stands
PINNED = {
    "gaussian": (
        0.30754705145581324,
        [0.4458971428182879, -0.6367987434172329, 0.38335454914313166],
        [0.7200107627432241, -1.0276094895612056, 0.529459866321292],
    ),
    "gaussian_sampled_coalitions": (
        -0.05404297505091114,
        [
            -0.8183830146565907, -0.6700740883834042, -0.4137527357643448,
            -0.2948547915739742, -0.07229841003208316, -0.043957380108359846,
            -0.005698453913390219, -0.032419845724755536, -0.08826759015558894,
            -0.17777228927732003, -0.3734972151737238, -0.5004357556400985,
        ],
        [
            -0.5793631048496536, -0.2853760525604127, -0.13673661081350932,
            -0.1095688260162902, -0.04225989461207717, -0.005541513007312801,
            0.007173639964213898, -0.0031388357058497055, -0.03196237238946275,
            -0.04720270750919177, -0.1600374766748847, -0.31561706030698533,
        ],
    ),
    "copula": (
        1.832184907531105,
        [-1.8556146506862163, 0.4422571907278016, 0.8701960665539002],
        [-2.133880564962359, -0.05895190120671201, 0.16319356614690686],
    ),
    "copula_sampled_coalitions": (
        20.984362244776218,
        [
            -2.1557434718775292, -2.351884169845935, -1.7348113902428166,
            0.3830200432268234, 2.077876814679039, -1.0817283734181422,
            -0.07507746177646607, -1.7947866556618586, -3.5877445953696134,
            0.32547533081928315, 5.998754254188041, 3.837809691101124,
        ],
        [
            -1.8173653644398724, -2.009123958773647, 0.14982369043323404,
            0.11503877487367536, 0.7682789218808649, -0.7256251268777906,
            -0.19279020773641523, -0.46677272636798023, -1.4611815152532754,
            0.12112101993472359, 2.9379422260838637, 2.4631234285754795,
        ],
    ),
    "discrete": (
        1.6000000000000003,
        [0.8791666666666665, 0.054166666666666474, -0.5333333333333334],
        [0.7999999999999999, 0.11666666666666646, -0.5000000000000001],
    ),
    "discrete_sampled_coalitions": (
        4.2851063829787215,
        [
            -0.06595744680851061, -0.04255319148936168, 0.3797872340425531,
            -0.39255319148936174, -0.5159574468085109, -0.6585106382978725,
            -0.5936170212765961, 0.448936170212766, 0.328723404255319,
            -0.30106382978723417, -0.40531914893617027, 0.5329787234042552,
        ],
        [
            -0.12765957446808507, -0.09468085106382976, 0.403191489361702,
            -0.3553191489361703, -0.4925531914893619, -0.5638297872340428,
            -0.47659574468085136, 0.49042553191489363, 0.33510638297872325,
            -0.3882978723404256, -0.3510638297872341, 0.4882978723404254,
        ],
    ),
    "marginal": (
        0.38262653497567206,
        [-0.7143346990493662, -0.15985025899371966, 0.1202348390981396],
        [-0.5460528881442327, -0.06702252816072214, 0.0030470611201404685],
    ),
    "marginal_sampled_coalitions": (
        -0.0447974210934623,
        [
            0.8036160699124854, -0.1308896997419003, 0.3120072140721408,
            1.166329927301941, 0.9136412242056621, 0.3421618308408433,
            -0.6125781471850159, -1.134413302355337, -1.4689077849057217,
            -1.6479719000411213, 0.21977801944024625, 0.4661167529404698,
        ],
        [
            0.8248490253163598, -0.15322279414960466, 0.2438021866014942,
            1.1258810571327886, 0.9285701020918103, 0.3512296916237686,
            -0.6447068921721076, -1.1694969611503891, -1.4603099859392732,
            -1.6524953624078513, 0.21977801944024625, 0.46776891461234105,
        ],
    ),
}


@pytest.mark.parametrize(
    "case",
    [
        _gaussian,
        _gaussian_sampled_coalitions,
        _copula,
        _copula_sampled_coalitions,
        _discrete,
        _discrete_sampled_coalitions,
        _marginal,
        _marginal_sampled_coalitions,
    ],
    ids=lambda case: case.__name__.lstrip("_"),
)
def test_decompose_outputs_are_pinned(case):
    model, sampler, x, seed = case()
    dec = decompose(model, sampler, x, 40, 60, seed)
    base, phi, phi_int = PINNED[case.__name__.lstrip("_")]
    assert dec.base == pytest.approx(base, rel=1e-12, abs=0)
    assert np.allclose(dec.phi, phi, rtol=1e-12, atol=0)
    assert np.allclose(dec.phi_int, phi_int, rtol=1e-12, atol=0)
