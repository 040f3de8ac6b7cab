"""CART trees for ``models.fit_forest``, grown in lockstep: the trees of
a forest take their next node together, and the splits of those nodes are
searched as one batch of padded rows.

Only ``fit_forest`` imports this module, when it is called, so a command
that fits no forest does not compile it.
"""

from __future__ import annotations

from array import array
from collections import deque

import numpy as np

# Rows of one batch of the forest fit, and padded node x candidate-feature
# x row cells of one block of its split search: a float64 temporary is
# 64 kB. A larger node goes alone.
_SPLIT_CELLS = 1 << 13


def _ranges(starts, lengths) -> np.ndarray:
    """The concatenation of arange(s, s + l) over ``starts`` and ``lengths``."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)


def _split_search(x, ids, ys, starts, sizes, sums, cands, min_leaf):
    """Per node, the best (feature, threshold) by impurity reduction, or
    feature -1 for none. Node i holds the data rows ``ids[starts[i]:][:sizes[i]]``,
    whose targets, ``ys`` at the same places, sum to ``sums[i]``; it tries
    the sorted features ``cands[i]``.

    Each (node, feature) is one row of a block of at most _SPLIT_CELLS
    cells, as wide as its largest node and padded with x = +inf and y = 0.
    The padding sorts last, so a stable argsort and a cumsum along the row
    give the bits of the node's own. A split after sorted position k keeps
    k + 1 rows on the left, at least min_leaf on each side, between two
    distinct values; its score is the variance reduction, which for 0/1
    targets equals the Gini gain up to scale. The first best position wins,
    then the first feature whose best beats the best so far by 1e-15."""
    n_nodes, fps = cands.shape
    by_size = np.argsort(-sizes, kind="stable")  # rows of like width share a block
    node = np.repeat(by_size, fps)
    feature, width = cands[by_size].ravel(), sizes[node]
    score, threshold = np.empty(len(node)), np.empty(len(node))
    lo = 0
    while lo < len(node):
        w = int(width[lo])
        hi = min(len(node), lo + max(1, _SPLIT_CELLS // w))
        n, k, at = width[lo:hi], np.arange(w - 1), np.arange(hi - lo)
        src, dest = _ranges(starts[node[lo:hi]], n), _ranges(at * w, n)
        xb, yb = np.full((hi - lo, w), np.inf), np.zeros((hi - lo, w))
        xb.flat[dest] = x[ids[src], np.repeat(feature[lo:hi], n)]
        yb.flat[dest] = ys[src]
        order = np.argsort(xb, axis=1, kind="stable")
        xs = np.take_along_axis(xb, order, 1)
        sl = np.cumsum(np.take_along_axis(yb, order, 1), axis=1)[:, :-1]
        sr = sums[node[lo:hi], None] - sl
        nl, n = k + 1.0, n[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):  # n - nl <= 0 in the padding
            s = sl * sl / nl + sr * sr / (n - nl)
        s[(k < min_leaf - 1) | (k >= n - min_leaf) | (xs[:, :-1] >= xs[:, 1:])] = -np.inf
        best = s.argmax(axis=1)
        score[lo:hi] = s[at, best]
        threshold[lo:hi] = 0.5 * (xs[at, best] + xs[at, best + 1])
        lo = hi
    score, threshold = score.reshape(n_nodes, fps), threshold.reshape(n_nodes, fps)
    top, pick = np.full(n_nodes, -np.inf), np.full(n_nodes, -1)
    for c in range(fps):
        better = score[:, c] > top + 1e-15
        top[better], pick[better] = score[better, c], c
    column, cut = np.empty(n_nodes, dtype=np.intp), np.empty(n_nodes)
    column[by_size] = np.where(pick >= 0, cands[by_size, pick], -1)
    cut[by_size] = threshold[np.arange(n_nodes), pick]
    return column, cut


def _partition(rows, x, ids, lo, starts, sizes, column, cut) -> np.ndarray:
    """Reorder each split node's range ``rows[lo[i]:][:sizes[i]]``, which
    ``ids`` holds from ``starts[i]``, stably: its rows with x <= cut on its
    column, then the rest. Returns how many went left per node."""
    within = _ranges(starts, sizes)
    # x is finite, so > is the negation of <=
    right = x[ids[within], np.repeat(column, sizes)] > np.repeat(cut, sizes)
    order = np.argsort(np.repeat(2 * np.arange(len(sizes)), sizes) + right, kind="stable")
    rows[_ranges(lo, sizes)] = ids[within[order]]
    return sizes - np.add.reduceat(right, np.cumsum(sizes) - sizes, dtype=np.intp)


def grow_forest(x, y, gens, max_depth: int, min_leaf: int):
    """One CART tree per generator, each on a bootstrap sample of the rows
    and trying ceil(sqrt(M)) features per split, grown in lockstep: each
    round takes the next node, in pre-order, of every unfinished tree, in
    batches of at most _SPLIT_CELLS rows, and searches the splits of a
    batch in one ``_split_search``.

    Each generator draws as it would for one tree grown recursively: the
    bootstrap first, then one feature choice per node that is not too
    deep, too small or pure, in pre-order. A node is a range of the
    bootstrap rows, in the order the bootstrap drew them, and a split
    partitions it stably. Each node's target sum is taken on its own. So
    the forest is the recursive grower's, bit for bit.

    Returns the six node arrays ``models.ForestModel`` is built from: each
    tree's root, then per node its feature, threshold, value, left and
    right child, the nodes numbered in pre-order tree after tree."""
    n, m = x.shape
    fps = int(np.ceil(np.sqrt(m)))
    rows = np.concatenate([gen.integers(0, n, size=n) for gen in gens])
    # per tree, its nodes still to grow as (first, end, depth, the node whose
    # right child it is or -1), the next one last
    stacks = [[(t * n, (t + 1) * n, 0, -1)] for t in range(len(gens))]
    grown = np.zeros(len(gens), dtype=np.intp)  # nodes so far per tree
    # per node grown: its tree, its number there, its split column (-1 for
    # a leaf), threshold, mean target and the node whose right child it is
    made = array("d")
    queue = deque(range(len(gens)))  # the unfinished trees, the next to grow first
    while queue:
        batch, cells = [], 0
        while queue:
            first, end, _, _ = stacks[queue[0]][-1]
            if batch and cells + end - first > _SPLIT_CELLS:
                break
            batch.append(queue.popleft())
            cells += end - first
        popped = np.array([stacks[t].pop() for t in batch])
        size = popped[:, 1] - popped[:, 0]
        may = (popped[:, 2] < max_depth) & (size >= 2 * min_leaf)
        # the nodes that may split first, so that their targets are one prefix
        ahead = np.argsort(~may, kind="stable")
        tree, size, (lo, hi, depth, parent) = np.array(batch)[ahead], size[ahead], popped[ahead].T
        local = grown[tree]
        grown[tree] += 1
        ids = rows[_ranges(lo, size)]
        ys = y[ids]
        starts = np.cumsum(size) - size
        # each node's sum on its own, as pairwise summation depends on the
        # length; sum / size is then the bits of ys.mean()
        sums = np.array([
            np.add.reduce(ys[a:a + b]) for a, b in zip(starts.tolist(), size.tolist())
        ])
        column, cut = np.full(len(tree), -1), np.zeros(len(tree))
        n_may = int(may.sum())
        if n_may:
            prefix, at = ys[:starts[n_may - 1] + size[n_may - 1]], starts[:n_may]
            impure = np.minimum.reduceat(prefix, at) != np.maximum.reduceat(prefix, at)
            tried = np.flatnonzero(impure)
            if len(tried):
                choices = [gens[t].choice(m, size=fps, replace=False) for t in tree[tried].tolist()]
                column[tried], cut[tried] = _split_search(
                    x, ids, ys, starts[tried], size[tried], sums[tried], np.sort(choices, axis=1),
                    min_leaf,
                )
        made.frombytes(np.column_stack((tree, local, column, cut, sums / size, parent)).tobytes())
        split = np.flatnonzero(column >= 0)
        if len(split):
            mid = lo[split] + _partition(
                rows, x, ids, lo[split], starts[split], size[split], column[split], cut[split]
            )
            for t, a, b, c, d, k in zip(*(v.tolist() for v in (
                tree[split], lo[split], mid, hi[split], depth[split] + 1, local[split]
            ))):
                stacks[t] += [(b, c, d, k), (a, b, d, -1)]
        queue.extend(t for t in batch if stacks[t])
    return _pre_order(np.frombuffer(made).reshape(-1, 6), grown)


def _pre_order(made: np.ndarray, grown: np.ndarray):
    """The forest of ``grow_forest``'s records, numbered in pre-order tree
    after tree: node k of tree t is node offset[t] + k."""
    offset = np.cumsum(grown) - grown
    tree, local, column, cut, value, parent = made.T
    at = offset[tree.astype(np.intp)] + local.astype(np.intp)
    right = np.arange(len(at))  # a leaf is its own child
    child = parent >= 0
    right[offset[tree[child].astype(np.intp)] + parent[child].astype(np.intp)] = at[child]
    place = np.empty_like(at)
    place[at] = np.arange(len(at))  # the record of each node
    split = column[place] >= 0
    return (
        offset,
        np.where(split, column[place], 0),
        np.where(split, cut[place], 0.0),
        np.where(split, 0.0, value[place]),
        np.arange(len(at)) + split,  # a split's left child is the next node
        right,
    )
