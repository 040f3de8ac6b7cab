"""Rank statistics on plain arrays: Spearman correlation, and the
partial-correlation matrix with its DOT drawing."""

from __future__ import annotations

import numpy as np

from .distributions import _jittered_cholesky
from .errors import IngestionError

_DOT_THRESHOLD = 0.05  # to_dot draws no edge with |rho| below this


def _ranks(v) -> np.ndarray:
    """Mid-ranks of a NaN-free vector: 1-based positions in sorted order,
    with tied values sharing the mean of their positions. Mid-ranks are
    whole numbers or halves, so they equal scipy's ``rankdata``
    (method "average") exactly; numpy alone computes them."""
    v = np.asarray(v, dtype=float)
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    first = np.r_[True, ordered[1:] != ordered[:-1]]
    starts = np.flatnonzero(first)
    ends = np.r_[starts[1:], len(v)]
    ranks = np.empty(len(v))
    ranks[order] = (0.5 * (starts + ends + 1))[np.cumsum(first) - 1]
    return ranks


def _reject_nan(columns: np.ndarray, names) -> None:
    """Ranks are undefined next to a NaN: name every column holding one."""
    bad = [repr(name) for name, col in zip(names, columns.T) if np.isnan(col).any()]
    if bad:
        raise IngestionError(f"NaN in {', '.join(bad)}; ranks are undefined")


def spearman(x, y) -> float:
    """Pearson correlation of mid-ranks (ties get average ranks)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y) or len(x) < 3:
        raise IngestionError("need two equal-length vectors with >= 3 entries")
    _reject_nan(np.column_stack([x, y]), ("x", "y"))
    rx = _ranks(x)
    ry = _ranks(y)
    if np.ptp(rx) == 0 or np.ptp(ry) == 0:
        raise IngestionError("rank variance is zero; correlation undefined")
    return float(np.corrcoef(rx, ry)[0, 1])


def partial_correlation_graph(columns, names) -> np.ndarray:
    """Partial rank correlations via the precision matrix of rank data: the
    p x p matrix of the graph on ``names``, with ones on its diagonal.

    Every column is rank-transformed and standardized; the precision P of
    the resulting correlation matrix, L^-T L^-1 from its Cholesky factor L
    (jittered as the samplers' when needed), gives
    rho_{ij.rest} = -P_ij / sqrt(P_ii P_jj).
    """
    cols = np.asarray(columns, dtype=float)
    if cols.ndim != 2 or cols.shape[1] != len(names):
        raise IngestionError("columns must be an n x p matrix matching names")
    n, p = cols.shape
    if n < p + 2:
        raise IngestionError(f"need at least p+2={p + 2} rows, got {n}")
    _reject_nan(cols, names)
    ranks = np.column_stack([_ranks(cols[:, j]) for j in range(p)])
    if np.any(np.ptp(ranks, axis=0) == 0):
        raise IngestionError("a column has zero rank variance")
    ranks = (ranks - ranks.mean(axis=0)) / ranks.std(axis=0)
    corr = np.corrcoef(ranks, rowvar=False)
    inv_lower = np.linalg.inv(_jittered_cholesky(corr))
    precision = inv_lower.T @ inv_lower
    d = np.sqrt(np.diag(precision))
    partial = -precision / np.outer(d, d)
    partial = np.clip(0.5 * (partial + partial.T), -1.0, 1.0)
    np.fill_diagonal(partial, 1.0)
    return partial


def to_dot(names, matrix) -> str:
    """Render the partial-correlation ``matrix`` on ``names`` as a DOT
    graph: labels carry the rounded correlation, pen width scales linearly
    with |rho|, red for positive and blue for negative edges. Names are
    quoted, with their backslashes and quotes escaped."""
    names = [n.replace("\\", "\\\\").replace('"', '\\"') for n in names]
    lines = ["graph partial_correlations {", "  layout=neato;"]
    for name in names:
        lines.append(f'  "{name}";')
    p = len(names)
    for i in range(p):
        for j in range(i + 1, p):
            rho = float(matrix[i, j])
            if abs(rho) < _DOT_THRESHOLD:
                continue
            color = "red" if rho > 0 else "blue"
            width = max(0.1, 2.0 * abs(rho))
            lines.append(
                f'  "{names[i]}" -- "{names[j]}" '
                f'[label="{rho:.2f}", color={color}, penwidth={width:.2f}];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
