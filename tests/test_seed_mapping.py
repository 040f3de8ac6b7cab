"""Pins the seed -> draw mapping: `decompose` outputs for one small row per
sampler kind on the table (M=3), and for every sampler kind on the
permutation walk (M=12), to rtol=1e-12.

A change of the mapping (how a seed becomes substreams, generator keys and
draws) moves these values by about 1e-2; last-bit BLAS drift stays far
below 1e-12. A change that alters the mapping on purpose updates the
values here and says so in CHANGES.md. Running this file prints PINNED as
the code computes it: ``PYTHONPATH=src python tests/test_seed_mapping.py``.
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
        [0.7127383576383953, -0.9935375322889002, 0.5336329912867559],
    ),
    "gaussian_sampled_coalitions": (
        0.015354101073146859,
        [
            -1.0195593163577834, -0.76641194490353, -0.3793750571370197,
            -0.21424926661370516, -0.2224495929400406, -0.03290892387705021,
            0.04475700510545595, 0.042623129000372864, -0.03663972697964893,
            -0.22293510662555588, -0.2806877492971126, -0.4729720959020743,
        ],
        [
            -0.6323570766749771, -0.3231248698758085, -0.12708145554756992,
            -0.08187713125647741, -0.04515812499949091, -0.008827682783222587,
            0.006682817975865916, 0.011239862535234384, -0.017322395781340538,
            -0.056093950427938084, -0.13167077991757695, -0.3576998513338623,
        ],
    ),
    "copula": (
        1.832184907531105,
        [-1.8556146506862163, 0.4422571907278016, 0.8701960665539002],
        [-2.1191675638228142, -0.048280757538640515, 0.1703656021173944],
    ),
    "copula_sampled_coalitions": (
        18.973427900616922,
        [
            -2.260666783936447, -2.570717187999017, -0.642562750245982,
            0.5460469315761879, 2.4849982873180623, -1.9987929149715944,
            -0.2568839006457211, -1.8303237791714044, -3.1501368940111583,
            0.6636495604190629, 6.605234433410925, 4.26224935823833,
        ],
        [
            -1.9180879597983707, -2.2723823663436873, 0.09480251735848164,
            0.09741538701097303, 0.9314757621995619, -0.9106061593187184,
            -0.25899147866324795, -0.49164362616812135, -1.368571518157865,
            0.06549419831428192, 3.059825574427329, 2.2939584889975593,
        ],
    ),
    "discrete": (
        1.6000000000000003,
        [0.8791666666666665, 0.054166666666666474, -0.5333333333333334],
        [0.815, 0.11666666666666646, -0.49500000000000005],
    ),
    "discrete_sampled_coalitions": (
        4.319148936170212,
        [
            -0.13191489361702127, -0.15531914893617016, 0.4776595744680849,
            -0.3425531914893618, -0.4382978723404256, -0.6478723404255318,
            -0.6265957446808512, 0.5074468085106385, 0.4617021276595745,
            -0.620212765957447, -0.3074468085106382, 0.5042553191489362,
        ],
        [
            -0.11595744680851064, -0.11914893617021274, 0.41063829787234013,
            -0.3606382978723406, -0.5148936170212767, -0.5553191489361701,
            -0.4872340425531915, 0.4797872340425534, 0.4021276595744681,
            -0.4159574468085108, -0.31595744680851057, 0.522340425531915,
        ],
    ),
    "marginal": (
        0.38262653497567206,
        [-0.7143346990493662, -0.15985025899371966, 0.1202348390981396],
        [-0.5492351533482379, -0.055120201855433794, 0.013424688492536361],
    ),
    "marginal_sampled_coalitions": (
        0.028839324766676683,
        [
            0.7746625285135652, -0.07364992683061974, 0.2303654372595861,
            1.2051035471999119, 0.8849744471114447, 0.3358189524739447,
            -0.6715596859408693, -1.1624293287174539, -1.4019967355021898,
            -1.6071087354906708, 0.17521005818307817, 0.4658629003648251,
        ],
        [
            0.7894485608345899, -0.07364992683061974, 0.27692617417847154,
            1.1554408680146329, 0.8448215099374661, 0.28878811485298883,
            -0.6528760802077627, -1.1183827285820898, -1.3868595889164719,
            -1.6037297266585009, 0.21770023436603958, 0.4430851481570645,
        ],
    ),
}


_CASES = [
    _gaussian,
    _gaussian_sampled_coalitions,
    _copula,
    _copula_sampled_coalitions,
    _discrete,
    _discrete_sampled_coalitions,
    _marginal,
    _marginal_sampled_coalitions,
]


def _decomposed(case):
    model, sampler, x, seed = case()
    return decompose(model, sampler, x, 40, 60, seed)


@pytest.mark.parametrize("case", _CASES, ids=lambda case: case.__name__.lstrip("_"))
def test_decompose_outputs_are_pinned(case):
    dec = _decomposed(case)
    base, phi, phi_int = PINNED[case.__name__.lstrip("_")]
    assert dec.base == pytest.approx(base, rel=1e-12, abs=0)
    assert np.allclose(dec.phi, phi, rtol=1e-12, atol=0)
    assert np.allclose(dec.phi_int, phi_int, rtol=1e-12, atol=0)


def _literal(values) -> str:
    """A list of floats as PINNED writes it: inline up to three, else three
    to a line."""
    if len(values) <= 3:
        return "[" + ", ".join(map(repr, values)) + "]"
    lines = (", ".join(map(repr, values[k:k + 3])) for k in range(0, len(values), 3))
    return "[\n" + "".join(f"            {line},\n" for line in lines) + "        ]"


if __name__ == "__main__":
    print("PINNED = {")
    for case in _CASES:
        dec = _decomposed(case)
        print(f'    "{case.__name__.lstrip("_")}": (')
        print(f"        {float(dec.base)!r},")
        print(f"        {_literal(dec.phi.tolist())},")
        print(f"        {_literal(dec.phi_int.tolist())},")
        print("    ),")
    print("}")
