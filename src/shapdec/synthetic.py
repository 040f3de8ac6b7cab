"""Bundled synthetic dataset generators.

The real housing and forest-fire datasets are not redistributed here;
these generators mimic their shapes (a 13-feature correlated Gaussian
table with a linear-ish price, and a 4-feature weather table with a
binary fire label) so every experiment runs out of the box.
"""

from __future__ import annotations

import numpy as np

from .core import FeatureMatrix, RngStream
from .stats import _ranks

HOUSING_NAMES = (
    "CRIM", "ZN", "INDUS", "CHAS", "NOX", "RM", "AGE",
    "DIS", "RAD", "TAX", "PTRATIO", "B", "LSTAT",
)

FIRE_NAMES = ("T", "RH", "Ws", "Rain")

# fixed price coefficients; mixed signs so "most negative attribution"
# rankings are nontrivial
_HOUSING_COEF = np.array(
    [-0.9, 0.3, -0.4, 0.5, -1.1, 1.4, -0.3, 0.7, -0.5, -0.8, -1.0, 0.4, -1.3]
)
_HOUSING_INTERCEPT = 22.5


def housing_covariance() -> np.ndarray:
    """Three-factor covariance with heavy cross-correlations."""
    gen = RngStream(714025, 1).generator()
    loadings = gen.normal(0.0, 0.9, size=(13, 3))
    diag = gen.uniform(0.25, 0.6, size=13)
    return loadings @ loadings.T + np.diag(diag)


def synthetic_housing(n: int = 506, seed: int = 0):
    """Correlated Gaussian features plus a noisy linear price.

    Returns (FeatureMatrix, target vector).
    """
    gen = RngStream(seed, 2).generator()
    cov = housing_covariance()
    chol = np.linalg.cholesky(cov)
    x = gen.standard_normal((n, 13)) @ chol.T
    y = x @ _HOUSING_COEF + _HOUSING_INTERCEPT + gen.normal(0.0, 0.5, size=n)
    return FeatureMatrix(HOUSING_NAMES, x), y


def _rank_scores(z: np.ndarray) -> np.ndarray:
    """Mid-rank Gaussian scores of every column. scipy.special is
    imported here, and in ``synthetic_fire``, so housing data needs no
    scipy."""
    from scipy.special import ndtri

    n = len(z)
    return np.column_stack(
        [ndtri((_ranks(z[:, j]) - 0.5) / n) for j in range(z.shape[1])]
    )


def _decorrelate_ranks(z: np.ndarray) -> np.ndarray:
    """Push the rank-score correlation of the columns toward identity.

    A finite sample of independent columns still shows O(1/sqrt(n))
    spurious rank correlation; four symmetric whitening sweeps on the
    Gaussian scores remove it, so the features really are independent
    in-sample.
    """
    for _ in range(4):
        s = _rank_scores(z)
        c = np.corrcoef(s, rowvar=False)
        vals, vecs = np.linalg.eigh(c)
        z = s @ (vecs * (1.0 / np.sqrt(vals))) @ vecs.T
    return _rank_scores(z)


def synthetic_fire(n: int = 250, seed: int = 0):
    """Weather-style features with a Bernoulli fire label.

    The four features (temperature, humidity, wind speed, rain) are
    independent in-sample: the degenerate configuration used to check
    that dependent parts collapse.
    """
    from scipy.special import ndtr

    gen = RngStream(seed, 3).generator()
    z = _decorrelate_ranks(gen.standard_normal((n, 4)))
    t = 32.0 + 4.0 * z[:, 0]
    rh = 62.0 + 10.0 * z[:, 1]
    ws = 15.0 + 3.0 * z[:, 2]
    # exponential marginal via the probability transform (rank-preserving)
    rain = 0.8 * -np.log1p(-np.clip(ndtr(z[:, 3]), 0.0, 1.0 - 1e-12))
    logit = 0.45 * (t - 32.0) - 0.12 * (rh - 62.0) + 0.25 * (ws - 15.0) - 1.8 * rain + 0.4
    p = 1.0 / (1.0 + np.exp(-logit))
    labels = (gen.uniform(size=n) < p).astype(float)
    features = FeatureMatrix(FIRE_NAMES, np.column_stack([t, rh, ws, rain]))
    return features, labels
