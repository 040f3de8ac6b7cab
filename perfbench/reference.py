"""Exact conditional SHAP values and interventional parts for a linear model
under a multivariate Gaussian, computed with plain numpy.

For f(x) = b + beta . x and X ~ N(mu, Sigma):

    v(S)       = f(E[X | x_S])
    phi_i      = sum_{S not containing i} w(|S|) (v(S + i) - v(S))
    phi_int_i  = sum_{S not containing i} w(|S|) beta_i (x_i - E[X_i | x_S])

with w(s) = s! (M - s - 1)! / M!. Every conditional mean comes from one
``np.linalg.solve`` per coalition mask; nothing here calls the package
under test.
"""

from __future__ import annotations

import math

import numpy as np


class ReferenceCheckError(RuntimeError):
    """The reference failed one of its own checks."""


def gaussian_moments(values: np.ndarray):
    """Column means and the sample covariance (divisor n - 1)."""
    values = np.asarray(values, dtype=float)
    return values.mean(axis=0), np.cov(values, rowvar=False, ddof=1)


def exact_linear_gaussian(beta, intercept, mean, cov, rows):
    """Return (base, phi, phi_int, phi_dep) for every row of ``rows``.

    ``base`` is v(empty) = f(mu); the arrays are (rows, M).
    """
    beta = np.asarray(beta, dtype=float)
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    x = np.atleast_2d(np.asarray(rows, dtype=float))
    r, m = x.shape
    weights = [math.factorial(s) * math.factorial(m - s - 1) / math.factorial(m) for s in range(m)]
    full = (1 << m) - 1
    v = np.empty((1 << m, r))
    phi_int = np.zeros((r, m))
    everything = np.arange(m)
    for mask in range(1 << m):
        known = everything[[(mask >> i) & 1 == 1 for i in range(m)]]
        missing = everything[[(mask >> i) & 1 == 0 for i in range(m)]]
        if len(known) == 0:
            cond = np.broadcast_to(mean, (r, m))
        elif len(missing) == 0:
            cond = x
        else:
            solved = np.linalg.solve(cov[np.ix_(known, known)], (x[:, known] - mean[known]).T)
            cond = x.copy()
            cond[:, missing] = mean[missing] + (cov[np.ix_(missing, known)] @ solved).T
        v[mask] = intercept + cond @ beta
        if len(missing):
            w = weights[len(known)]
            phi_int[:, missing] += w * beta[missing] * (x[:, missing] - cond[:, missing])
    phi = np.zeros((r, m))
    for i in range(m):
        bit = 1 << i
        without = np.array([s for s in range(1 << m) if not s & bit])
        w = np.array([weights[bin(s).count("1")] for s in without])
        phi[:, i] = w @ (v[without | bit] - v[without])
    base = v[0]
    gap = np.max(np.abs(phi.sum(axis=1) - (v[full] - base)), initial=0.0)
    if gap > 1e-10 * (1.0 + np.max(np.abs(v))):
        raise ReferenceCheckError(f"exact reference breaks efficiency by {gap:.3g}")
    return base, phi, phi_int, phi - phi_int


def self_check() -> float:
    """Check the reference on cases with known answers; return the largest
    disagreement seen. Raises ReferenceCheckError on a failure.

    Under a diagonal covariance the dependent part must vanish and phi must
    equal beta_i (x_i - mu_i); under a correlated covariance, with an
    explicit permutation average at M=4, phi and phi_int must match it.
    """
    gen = np.random.default_rng(20230618)
    m = 6
    beta = gen.normal(size=m)
    mean = gen.normal(size=m)
    x = gen.normal(size=(3, m))
    diag = np.diag(gen.uniform(0.5, 2.0, size=m))
    base, phi, phi_int, phi_dep = exact_linear_gaussian(beta, 0.3, mean, diag, x)
    if np.max(np.abs(phi_dep)) > 1e-12 or np.max(np.abs(phi - beta * (x - mean))) > 1e-12:
        raise ReferenceCheckError("diagonal covariance must give phi_dep = 0")

    import itertools

    m = 4
    a = gen.normal(size=(m, m))
    cov = a @ a.T + 0.5 * np.eye(m)
    beta, mean, x = gen.normal(size=m), gen.normal(size=m), gen.normal(size=(2, m))
    _, phi, phi_int, _ = exact_linear_gaussian(beta, -1.0, mean, cov, x)

    def cond_mean(known, row):
        known = list(known)
        out = mean.copy()
        if known:
            miss = [j for j in range(m) if j not in known]
            out[known] = row[known]
            sol = np.linalg.solve(cov[np.ix_(known, known)], row[known] - mean[known])
            out[miss] = mean[miss] + cov[np.ix_(miss, known)] @ sol
        return out

    want, want_int = np.zeros_like(phi), np.zeros_like(phi)
    orders = list(itertools.permutations(range(m)))
    for k, row in enumerate(x):
        for order in orders:
            for pos, i in enumerate(order):
                before = cond_mean(order[:pos], row)
                after = cond_mean(order[: pos + 1], row)
                want[k, i] += beta @ (after - before) / len(orders)
                want_int[k, i] += beta[i] * (row[i] - before[i]) / len(orders)
    gap = max(np.max(np.abs(phi - want)), np.max(np.abs(phi_int - want_int)))
    if gap > 1e-12:
        raise ReferenceCheckError(f"reference disagrees with the permutation average by {gap:.3g}")
    return float(gap)
