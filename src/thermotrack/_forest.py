"""CART regression trees on pixel thresholds, grown together level by level.

``thermoreg`` grows every decision tree here: a cross-validation forest of
one tree per (fold, ``min_samples_leaf``), and the one tree of a public fit.
A forest is a list of ``Level`` arrays; ``route`` sends queries down it.
This module alone knows the saved tree format: ``tree_dict`` writes one tree
in it and ``tree_levels`` checks and reads one back into ``Level`` arrays,
so a loaded tree predicts through ``route`` as cross-validation does.
``is_finite``, the rule for every number a saved model holds, lives here
because the reader needs it and ``thermoreg`` imports this module.
"""

from __future__ import annotations

import numbers
import sys
from typing import NamedTuple

import numpy as np


# Cells of one padded block of the split search: the rows of nodes searched
# together times the widest of them. Caps each block matrix at 256 KB; at
# n = 5 000 this was faster than larger blocks, and n = 200 fits in one.
_SPLIT_BLOCK_CELLS = 1 << 15


def is_finite(value) -> bool:
    """A real number in the float range: NaN, infinities, bools and ints too
    large for a float fail (the comparisons are exact for an int)."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and -sys.float_info.max <= value <= sys.float_info.max
    )


class Level(NamedTuple):
    """One depth of a grown forest, one entry per node.

    ``value`` is the node's mean temperature. ``threshold`` is its split
    threshold, or +inf at a leaf (its split flag). ``child`` is the index of
    its left child on the next level; the right child follows it, and a
    leaf's one child is itself carried down. A query at node i therefore
    moves to ``child[i] + (q > threshold[i])``.
    """

    value: np.ndarray
    threshold: np.ndarray
    child: np.ndarray


def grow_forest(
    ps: np.ndarray,
    ts: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    min_leaf: np.ndarray,
    max_depth: np.ndarray,
) -> list[Level]:
    """Binary regression trees on pixel thresholds, grown together level by level.

    Tree i is grown from the samples ``ps[starts[i]:starts[i] + sizes[i]]``
    (pixels sorted ascending, ``ts`` riding along) with its own
    ``min_leaf[i]`` and ``max_depth[i]``. Candidate thresholds are midpoints
    between consecutive distinct pixels that leave at least ``min_leaf``
    samples on each side; the one of least summed squared error is taken,
    ties to the lowest. A node stays a leaf at ``max_depth``, on constant
    temperatures or with no candidate. Every node holds its mean temperature.

    A split depends only on its node's samples and leaf size (CART; Breiman
    et al., 1984), so all nodes of one level, across all trees, are searched
    at once, and the tree cut at depth d is the tree grown to depth d. The
    result is one ``Level`` per depth, roots first in tree order, up to the
    first level where nothing splits. It equals growing each node alone
    from 1-D prefix sums and ``ts.mean()`` bit for bit: see
    ``_best_cuts_block`` and ``_segment_means``.
    """
    means: dict[tuple[int, int], float] = {}
    tree = np.arange(starts.size)
    value = _segment_means(ts, starts, sizes, means)
    growing = np.ones(starts.size, dtype=bool)
    levels: list[Level] = []
    while True:
        depth, leaf = len(levels), min_leaf[tree]
        rows = np.flatnonzero(growing & (max_depth[tree] > depth) & (sizes >= 2 * leaf))
        cut = np.full(starts.size, -1)
        cut[rows] = _best_cuts(ps, ts, starts[rows], sizes[rows], leaf[rows])
        split = cut >= 0
        threshold = np.full(starts.size, np.inf)
        threshold[split] = (ps[cut[split]] + ps[cut[split] + 1]) / 2.0
        width = 1 + split  # children on the next level
        child = np.cumsum(width) - width
        levels.append(Level(value, threshold, child))
        if not split.any():
            return levels
        parent = np.repeat(np.arange(starts.size), width)
        left, right = child[split], child[split] + 1
        left_sizes = cut[split] + 1 - starts[split]
        starts, sizes, tree, value = starts[parent], sizes[parent], tree[parent], value[parent]
        starts[right] = cut[split] + 1
        sizes[left] = left_sizes
        sizes[right] -= left_sizes
        growing = np.zeros(starts.size, dtype=bool)
        growing[left] = growing[right] = True
        value[growing] = _segment_means(ts, starts[growing], sizes[growing], means)


def _segment_means(
    ts: np.ndarray, starts: np.ndarray, sizes: np.ndarray, means: dict[tuple[int, int], float]
) -> np.ndarray:
    """``float(ts[s:s + m].mean())`` for each segment, each distinct one once.

    numpy's mean is ``np.add.reduce`` (a pairwise sum) over the segment, then
    one division; no sum over a padded row adds in that order.
    """
    out = np.empty(starts.size)
    for i, (s, m) in enumerate(zip(starts.tolist(), sizes.tolist())):
        mean = means.get((s, m))
        if mean is None:
            mean = means[s, m] = float(np.add.reduce(ts[s : s + m])) / m
        out[i] = mean
    return out


def _best_cuts(
    ps: np.ndarray, ts: np.ndarray, starts: np.ndarray, sizes: np.ndarray, min_leaf: np.ndarray
) -> np.ndarray:
    """Index in ``ps`` of the last left sample of each node's best split, or -1.

    Nodes go through ``_best_cuts_block`` widest first, in blocks of at most
    ``_SPLIT_BLOCK_CELLS`` padded cells (one node per block if it is wider).
    """
    cut = np.empty(starts.size, dtype=np.intp)
    order = np.argsort(-sizes, kind="stable")
    done = 0
    while done < order.size:
        rows = order[done : done + max(1, _SPLIT_BLOCK_CELLS // int(sizes[order[done]]))]
        cut[rows] = _best_cuts_block(ps, ts, starts[rows], sizes[rows], min_leaf[rows])
        done += rows.size
    return cut


def _best_cuts_block(
    ps: np.ndarray, ts: np.ndarray, starts: np.ndarray, sizes: np.ndarray, min_leaf: np.ndarray
) -> np.ndarray:
    """``_best_cuts`` for nodes of at least ``2 * min_leaf`` samples, one row each.

    Trees of different leaf sizes on one sample set share nodes (every root,
    and more while their splits agree). A node's split cost at each boundary
    does not depend on the leaf size, so it is computed once per distinct
    (start, size) segment; each row applies only its own leaf-size mask.
    """
    segment = starts * (ps.size + 1) + sizes  # one integer per (start, size)
    _, first, row_segment = np.unique(segment, return_index=True, return_inverse=True)
    seg_starts, seg_sizes = starts[first], sizes[first]
    # Each row is its segment's samples, padded to the widest segment by
    # repeating its last sample, which adds no boundary and keeps a constant
    # row constant. np.cumsum(axis=1) adds each row in order, so a row's
    # running sums equal its segment's own 1-D np.cumsum, and none past its
    # end is used. A difference of one shared prefix sum would round otherwise.
    width = int(seg_sizes.max())
    at = np.minimum(seg_starts[:, None] + np.arange(width), (seg_starts + seg_sizes - 1)[:, None])
    p, t = ps[at], ts[at]
    n_left = np.arange(1.0, width)  # boundary j splits after sample j
    n_right = seg_sizes[:, None] - n_left
    boundary = (p[:, :-1] != p[:, 1:]) & ~(t == t[:, :1]).all(axis=1, keepdims=True)
    s1 = np.cumsum(t, axis=1)
    s2 = np.cumsum(np.multiply(t, t, out=t), axis=1)
    # SSE = sum(t^2) - (sum t)^2 / n on each side; divide only at boundaries.
    # The block is the forest's peak memory, so the arithmetic is in place;
    # np.square is what ``x ** 2`` computes.
    del at, p, t
    rows = np.arange(seg_sizes.size)
    s1_all, s2_all = s1[rows, seg_sizes - 1][:, None], s2[rows, seg_sizes - 1][:, None]
    s1, s2 = s1[:, :-1], s2[:, :-1]
    left = np.square(s1)
    left /= n_left
    np.subtract(s2, left, out=left)
    right = np.square(s1_all - s1)
    np.divide(right, n_right, out=right, where=boundary)
    np.subtract(s2_all - s2, right, out=right)
    del s1, s2
    seg_cost = np.add(left, right, out=left)
    del right
    valid = boundary[row_segment]
    valid &= n_left >= min_leaf[:, None]
    valid &= (sizes[:, None] - n_left) >= min_leaf[:, None]
    cost = np.where(valid, seg_cost[row_segment], np.inf)
    # argmin takes the first of equal costs: ties go to the lowest threshold.
    return np.where(valid.any(axis=1), starts + cost.argmin(axis=1), -1)


def route(levels: list[Level], roots: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row d holds each query's prediction from its tree cut at depth d.

    Query i starts at root ``roots[i]``; one pass gives every depth up to
    the last level, which stands for every deeper one too.
    """
    out = np.empty((len(levels), q.size))
    node = roots
    for depth, level in enumerate(levels):
        out[depth] = level.value[node]
        node = level.child[node] + (q > level.threshold[node])
    return out


def tree_dict(levels: list[Level], node: int, depth: int) -> dict:
    """Root ``node`` of ``levels`` cut at ``depth``, in the saved shape:
    split nodes carry no value."""
    level = levels[0]
    if depth == 0 or level.threshold[node] == np.inf:
        return {"kind": "leaf", "value": float(level.value[node])}
    left = int(level.child[node])
    return {
        "kind": "split",
        "threshold": float(level.threshold[node]),
        "left": tree_dict(levels[1:], left, depth - 1),
        "right": tree_dict(levels[1:], left + 1, depth - 1),
    }


def tree_levels(tree) -> list[Level]:
    """A saved tree, in ``tree_dict``'s shape, as the ``Level`` arrays of a
    one-tree forest, read level by level.

    A leaf has threshold +inf and is carried down to the next level as its
    own child, as ``grow_forest`` carries it, so the last level holds only
    leaves and ``route``'s last row is the tree's prediction. A split node
    saves no value and gets NaN. Raises ValueError naming the first
    unusable node in level order.
    """
    nodes, levels = [tree], []
    while True:
        value, threshold, below = [], [], []
        child = np.empty(len(nodes), dtype=np.intp)
        for i, node in enumerate(nodes):
            if not isinstance(node, dict):
                raise ValueError(f"tree nodes must be objects, got {type(node).__name__}")
            child[i] = len(below)
            if node.get("kind") == "leaf":
                if not is_finite(node.get("value")):
                    raise ValueError(f"tree leaf value must be a finite number, got {node.get('value')!r}")
                value.append(node["value"])
                threshold.append(np.inf)
                below.append(node)
            elif node.get("kind") != "split":
                raise ValueError(f"tree node kind must be leaf or split, got {node.get('kind')!r}")
            elif not is_finite(node.get("threshold")):
                raise ValueError(
                    f"tree split threshold must be a finite number, got {node.get('threshold')!r}"
                )
            else:
                value.append(np.nan)
                threshold.append(node["threshold"])
                below += [node.get("left"), node.get("right")]
        levels.append(Level(np.array(value, dtype=np.float64), np.array(threshold, dtype=np.float64), child))
        if len(below) == len(nodes):  # only leaves: nothing split
            return levels
        nodes = below
