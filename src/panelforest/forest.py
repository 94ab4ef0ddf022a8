"""Regression random forest: bagged CART trees with random feature subsets.

Splits are exact: each node takes the best threshold over the midpoints of
its sorted distinct values (MSE criterion).  All trees of a forest grow
together, breadth-first.  The bootstrap samples become weighted entries,
one per distinct (tree, row) pair, and every feature keeps one order of the
active entries sorted by (node, x).  At each depth, running sums over those
orders score every candidate split of every node at once, a segmented
maximum picks each node's best, and a stable partition by child id carries
the orders to the next depth, so no feature is sorted by value twice.  The
sums run on the target centred at its median and scaled to integers: they
are exact, so the level of the target does not enter them, and equal
partitions tie exactly (the lowest threshold, then the lowest feature,
wins).

Tree i draws its bootstrap sample, then one set of candidate features per
level, from its own counter-derived stream (cfg.seed, i), so the fitted
forest is a pure function of (X, y, config).

A forest stores all its trees in one node table, tree after tree, with the
offset of each tree's root; child links are tree-local.  A tree is a forest
of one: `Forest.trees` gives each tree as a one-tree `Forest`, so one
function, `_leaves`, routes (tree, row) pairs for predict and OOB scoring of
a forest or of one tree.  A shuffle of one column keeps a pair in its leaf
while the new value stays in the leaf's `_stay_intervals` interval, and
reroutes it from the leaf's first split on the column otherwise; MDI works
on whole node columns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._common import is_integer
from ._rng import stream

__all__ = [
    "ForestConfig",
    "Forest",
    "fit_forest",
    "predict",
    "oob_predictions",
    "oob_score",
    "OobScore",
    "r2_score",
    "mdi_importance",
    "forest_metrics",
    "ForestMetrics",
]


@dataclass(frozen=True)
class ForestConfig:
    """Forest hyperparameters.

    mtry=None means ceil(p / 3), the regression convention.  Every
    bootstrap sample draws n rows with replacement.
    """

    n_trees: int = 500
    mtry: int | None = None
    min_leaf: int = 5
    max_depth: int | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("n_trees", "min_leaf", "mtry", "max_depth"):
            value = getattr(self, name)
            if not (is_integer(value) or value is None and name in ("mtry", "max_depth")):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        if self.mtry is not None and self.mtry < 1:
            raise ValueError("mtry must be >= 1 when set")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 when set")

    def resolve_mtry(self, p: int) -> int:
        m = self.mtry if self.mtry is not None else math.ceil(p / 3)
        if not (1 <= m <= p):
            raise ValueError(f"mtry must be in [1, {p}], got {m}")
        return m


# `_grow_forests` grows trees in runs of at most about this many bootstrap
# draws: it bounds the working memory to a few MiB and changes no tree
_ENTRIES_PER_GROUP = 8192
_LEVELS_PER_PASS = 3  # `_leaves` drops the finished pairs every this many levels

# node-table columns in Forest field order
_NODE_COLUMNS = ("feature", "threshold", "left", "value", "n_samples", "sse_decrease")


def _leaves(forest: Forest, node: np.ndarray, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Table index of the leaf each (tree, row) pair reaches, starting at
    node[i] and descending on X[rows[i]].  A leaf routes to itself (its NaN
    threshold fails `x <= thr` and its right link points back), so a level
    is one gather-compare-step of every unfinished pair; finished ones are
    dropped every _LEVELS_PER_PASS."""
    inner = forest.feature >= 0
    offset = np.repeat(forest.roots, np.diff(forest.roots, append=forest.n_nodes))
    right = np.where(inner, forest.left + 1 + offset, np.arange(forest.n_nodes))
    column = np.maximum(forest.feature, 0) * len(X)
    x = X.T.ravel()  # x[f * n + r] = X[r, f]
    leaf = node.copy()
    todo = np.flatnonzero(inner[leaf]).astype(np.int32)
    at, row = leaf[todo], rows[todo].astype(np.int32)
    while todo.size:
        for _ in range(_LEVELS_PER_PASS):
            go_left = x[column[at] + row] <= forest.threshold[at]
            at = right[at]
            at -= go_left
        leaf[todo] = at
        live = inner[at]
        todo, at, row = todo[live], at[live], row[live]
    return leaf


@dataclass(frozen=True)
class Forest:
    """Fitted ensemble: one CART node table in which tree i starts at
    roots[i], plus per-tree bootstrap bookkeeping for OOB scoring.

    feature[i] == -1 marks a leaf; the children of inner node i are left[i]
    and left[i] + 1, counted from the root of its tree; value[i] is the
    node's training-target mean (the prediction for leaves), n_samples[i]
    the bootstrap-multiset size, sse_decrease[i] the split's SSE reduction.
    The row count is the width of in_bag_counts.  It has no file form;
    `fit_forest` on the same inputs rebuilds it bit for bit."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    sse_decrease: np.ndarray
    roots: np.ndarray  # (n_trees,) table offset of each tree's root
    in_bag_counts: np.ndarray  # (n_trees, n_rows) bootstrap multiplicities
    feature_names: tuple[str, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def trees(self) -> tuple[Forest, ...]:
        """Each tree as a forest of one, on views of the node table (no copies)."""
        parts = [np.split(getattr(self, name), self.roots[1:]) for name in _NODE_COLUMNS]
        return tuple(Forest(*columns, np.zeros(1, np.intp), in_bag[None], self.feature_names)
                     for *columns, in_bag in zip(*parts, self.in_bag_counts))


def _best_splits(sel: np.ndarray, feat: np.ndarray, cand: np.ndarray, node: np.ndarray,
                 counts: np.ndarray, x_flat: np.ndarray, w_e: np.ndarray,
                 wyq_e: np.ndarray, W: np.ndarray, min_leaf: int) -> tuple[np.ndarray, ...]:
    """Best split of every node of a level.

    Row r of `sel` lists the entries of every node sorted by the value of
    that node's r-th candidate feature, cand[r, node] (ascending over r);
    `feat` is cand spread over the positions, and `node` the node of each
    position.  Returns per node the gain (-inf when no split is valid), the
    feature, the threshold and the node's sum of w*yq.  The SSE of a split
    is the node's sum of squares minus its gain, so the best split has the
    largest gain; on a tie the first in a segment (the lowest threshold),
    then the first row (the lowest feature), wins.
    """
    m, n_act = sel.shape
    K = len(counts)
    starts = np.cumsum(counts) - counts
    xs = x_flat[feat * len(w_e) + sel]
    # left sums of a split after each position; differences of the running
    # sums at segment ends are node sums, equal in every row
    L0 = np.cumsum(w_e[sel], axis=1)
    L0 -= np.repeat(np.cumsum(W) - W, counts)
    L1 = np.cumsum(wyq_e[sel], axis=1)
    ends = L1[:, starts + counts - 1]
    before = np.concatenate((np.zeros((m, 1), np.uint64), ends[:, :-1]), axis=1)
    total = (ends[0] - before[0]).view(np.int64)
    L1 -= np.repeat(before, counts, axis=1)
    L1 = L1.view(np.int64)
    ok = np.zeros((m, n_act), dtype=bool)
    np.less(xs[:, :-1], xs[:, 1:], out=ok[:, :-1])
    ok &= L0 >= min_leaf
    R0 = np.repeat(W, counts) - L0
    ok &= R0 >= min_leaf
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = np.square(L1, dtype=np.float64)
        gain /= L0
        L1 -= np.repeat(total, counts)  # minus the right sums
        right = np.square(L1, dtype=np.float64)
        right /= R0
        gain += right
    gain[~ok] = -np.inf
    best = np.maximum.reduceat(gain, starts, axis=1)
    row = np.argmax(best, axis=0)
    best = best[row, np.arange(K)]
    at = np.repeat(row, counts) * n_act + np.arange(n_act)
    hits = np.flatnonzero((gain.ravel()[at] == np.repeat(best, counts))
                          & np.repeat(best > -np.inf, counts))
    hit_node = node[hits]
    head = np.ones(len(hits), dtype=bool)
    head[1:] = hit_node[1:] != hit_node[:-1]
    pos, sn = at[hits[head]], hit_node[head]
    a, b = xs.ravel()[pos], xs.ravel()[pos + 1]
    mid = 0.5 * (a + b)
    thr = np.zeros(K)
    thr[sn] = np.where((a <= mid) & (mid < b), mid, a)  # mid can round onto b
    return best, cand[row, np.arange(K)], thr, total


def _grow(X: np.ndarray, y: np.ndarray, in_bag: np.ndarray, mtry: int,
          min_leaf: int, max_depth: int | None,
          rngs: list[np.random.Generator]) -> tuple[list[np.ndarray], np.ndarray]:
    """Grow every tree of a forest level by level: the node-table columns
    (tree after tree, breadth-first within a tree) and each tree's root."""
    n_trees, n = in_bag.shape
    p = X.shape[1]
    # entries: the distinct (tree, row) pairs of the bootstrap samples,
    # weighted by their multiplicity
    tree_e, row_e = np.nonzero(in_bag)
    n_e = len(row_e)
    w_e = in_bag[tree_e, row_e]
    centre = float(np.median(y))
    yc = y - centre
    wy_e = w_e * yc[row_e]
    # The split search sums yc scaled by 2**scale and rounded to integers,
    # with the scale set so that one bootstrap sample's sums stay below
    # 2**62: equal partitions then get bit-equal scores whatever the feature
    # or the order of the sums.  Running sums over all trees may wrap around
    # in uint64; their differences, one node's sums, are exact.
    max_abs = float(np.abs(yc).max())
    n_boot = float(in_bag[0].sum())  # the same for every tree
    scale = 62 - math.frexp(max_abs)[1] - math.frexp(n_boot)[1] if max_abs > 0 else 0
    yq_e = np.rint(np.ldexp(yc[row_e], scale)).astype(np.int64)
    wyq_e = (w_e * yq_e).view(np.uint64)
    x_flat = X.T[:, row_e].ravel()  # x_flat[f * n_e + e] = X[row of e, f]
    entry = np.full((n_trees, n), -1, dtype=np.intp)
    entry[tree_e, row_e] = np.arange(n_e)
    # order[f] lists the entries by (node, x_f): each node is one segment
    order = np.empty((p, n_e), dtype=np.intp)
    for f, by_value in enumerate(np.argsort(X, axis=0, kind="stable").T):
        column = entry[:, by_value].ravel()
        order[f] = column[column >= 0]
    del entry
    node_e = tree_e.copy()  # node of each entry at the current level, -1 when done

    # nodes of the current level: table id, tree, weight and sum of w*yc
    gid, node_tree = np.arange(n_trees), np.arange(n_trees)
    W = np.bincount(tree_e, weights=w_e, minlength=n_trees).astype(np.intp)
    S = np.bincount(tree_e, weights=wy_e, minlength=n_trees)
    created = [(node_tree, W, S)]
    splits = []
    n_nodes, depth = n_trees, 0
    rows = np.arange(p)[:, None]
    while len(gid):
        K, n_act = len(gid), order.shape[1]
        first = order[0]
        node = node_e[first]  # node of each segment position
        counts = np.bincount(node, minlength=K)
        starts = np.cumsum(counts) - counts
        yv = yq_e[first]
        live = (W >= 2 * min_leaf) & (np.minimum.reduceat(yv, starts)
                                      < np.maximum.reduceat(yv, starts))
        # candidate features: per node, the mtry smallest of p uniform keys
        # drawn from its tree's stream, in ascending feature order
        per_tree = np.bincount(node_tree, minlength=n_trees)
        keys = np.concatenate([rngs[t].random((c, p)) for t, c in enumerate(per_tree) if c])
        cand = np.sort(np.argpartition(keys, mtry - 1, axis=1)[:, :mtry], axis=1).T
        feat = np.repeat(cand, counts, axis=1)
        sel = order.ravel()[feat * n_act + np.arange(n_act)]
        best, f_node, thr_node, total = _best_splits(sel, feat, cand, node, counts, x_flat,
                                                     w_e, wyq_e, W, min_leaf)
        split = live & (best > -np.inf)
        sn = np.flatnonzero(split)
        f, thr = f_node[sn], thr_node[sn]
        parent = np.square(total[sn], dtype=np.float64) / W[sn]
        sse_dec = np.ldexp(np.maximum(best[sn] - parent, 0.0), -2 * scale)
        n_split = len(sn)
        children = n_nodes + np.arange(2 * n_split)
        splits.append((gid[sn], f, thr, children[::2], sse_dec))
        # route the entries of split nodes to child 2s (x <= thr, as in
        # `_leaves`) or 2s + 1 of the s-th split node
        rank = np.zeros(K, dtype=np.intp)
        rank[sn] = np.arange(n_split)
        moving = np.repeat(split, counts)
        e, nd = first[moving], node[moving]
        child = 2 * rank[nd] + (x_flat[f_node[nd] * n_e + e] > thr_node[nd])
        W = np.bincount(child, weights=w_e[e], minlength=2 * n_split).astype(np.intp)
        S = np.bincount(child, weights=wy_e[e], minlength=2 * n_split)
        node_tree = np.repeat(node_tree[sn], 2)
        created.append((node_tree, W, S))
        n_nodes += 2 * n_split
        depth += 1
        grows = W >= 2 * min_leaf
        if max_depth is not None and depth >= max_depth:
            grows[:] = False
        node_e[first] = -1
        keep = grows[child]
        node_e[e[keep]] = (np.cumsum(grows) - 1)[child[keep]]
        # stable partition of every feature's order by the new node id
        key = (node_e[order] + 1).astype(np.min_scalar_type(int(grows.sum())))
        perm = np.argsort(key, axis=1, kind="stable")
        perm += rows * n_act
        order = order.ravel()[perm[:, n_act - int(keep.sum()):]]
        gid, node_tree, W, S = children[grows], node_tree[grows], W[grows], S[grows]

    tree, n_samples, sums = (np.concatenate(c) for c in zip(*created))
    n_nodes = len(tree)
    feature = np.full(n_nodes, -1, dtype=np.intp)
    threshold = np.full(n_nodes, np.nan)
    left = np.full(n_nodes, -1, dtype=np.intp)
    sse_decrease = np.zeros(n_nodes)
    at, f, thr, lft, dec = (np.concatenate(c) for c in zip(*splits))
    feature[at], threshold[at], left[at], sse_decrease[at] = f, thr, lft, dec
    # pack tree after tree; child links become tree-local
    pack = np.argsort(tree, kind="stable")
    slot = np.empty(n_nodes, dtype=np.intp)
    slot[pack] = np.arange(n_nodes)
    roots = np.searchsorted(tree[pack], np.arange(n_trees))
    inner = feature >= 0
    left[inner] = slot[left[inner]] - roots[tree[inner]]
    columns = (feature, threshold, left, centre + sums / n_samples, n_samples, sse_decrease)
    return [c[pack] for c in columns], roots


def fit_forest(X: np.ndarray, y: np.ndarray, cfg: ForestConfig,
               feature_names: Sequence[str] | None = None) -> Forest:
    """Fit a regression forest on a finite matrix (no missing values).

    Tree i draws its bootstrap sample, then its candidate features level by
    level, from the stream (cfg.seed, i), and its splits depend on its own
    sample only; identical inputs therefore give bit-identical forests, and
    the first k trees do not depend on how many follow.  A constant target
    yields single-leaf trees, which is valid (downstream R-squared is an
    undefined marker).
    """
    X, y, names = _check_design(X, y, cfg, feature_names)
    return _grow_forests(X, y, [cfg.seed], cfg.n_trees, cfg, names)


def _check_design(X, y, cfg: ForestConfig,
                  names: Sequence[str] | None) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """X and y as float arrays and the feature names, once the design is
    checked for what a forest of `cfg` needs."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    n, p = X.shape
    y = _check_target(X, y)
    if np.isnan(X).any() or np.isnan(y).any():
        raise ValueError("X and y must not contain missing values")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("X and y must not contain infinite values")
    if n < 2 * cfg.min_leaf:
        raise ValueError(f"need at least {2 * cfg.min_leaf} rows, got {n}")
    cfg.resolve_mtry(p)
    names = _feature_names(X, names)
    if len(names) != p:
        raise ValueError("feature_names length must match X columns")
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise ValueError(f"duplicate feature names: {duplicates}")
    return X, y, names


def _check_target(X: np.ndarray, y) -> np.ndarray:
    """y as a float array, once it has one entry per row of X."""
    y = np.asarray(y, dtype=np.float64)
    if len(y) != len(X):
        raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
    return y


def _grow_forests(X: np.ndarray, y: np.ndarray, seeds: Sequence[int], n_trees: int,
                  cfg: ForestConfig, names: tuple[str, ...]) -> Forest:
    """One Forest of len(seeds) forests of n_trees trees, forest after
    forest: forest b grows on copy b of the data X stacks (y is one copy's
    target), its tree i drawing from the stream (seeds[b], i).  Trees grow
    in runs of at most about _ENTRIES_PER_GROUP bootstrap draws, each on
    the copies it uses, and no tree depends on the runs."""
    n = len(y)
    rngs = [stream(seed, i) for seed in seeds for i in range(n_trees)]
    in_bag = np.stack([np.bincount(rng.integers(0, n, size=n), minlength=n) for rng in rngs])
    mtry, step = cfg.resolve_mtry(X.shape[1]), max(1, _ENTRIES_PER_GROUP // n)
    groups = []
    for i in range(0, len(rngs), step):
        copy = np.arange(i, min(i + step, len(rngs))) // n_trees
        first, copies = copy[0], copy[-1] - copy[0] + 1
        # each tree's draws lie in its own copy: a block-diagonal in-bag matrix
        wide = np.zeros((len(copy), copies, n), dtype=in_bag.dtype)
        wide[np.arange(len(copy)), copy - first] = in_bag[i:i + step]
        groups.append(_grow(X[first * n:(first + copies) * n], np.tile(y, copies),
                            wide.reshape(len(copy), copies * n), mtry, cfg.min_leaf,
                            cfg.max_depth, rngs[i:i + step]))
    columns, roots = zip(*groups)
    offsets = np.cumsum([0] + [len(c[0]) for c in columns[:-1]])
    roots = np.concatenate([r + o for r, o in zip(roots, offsets)])
    return Forest(*map(np.concatenate, zip(*columns)), roots, in_bag, names)


def _feature_names(X: np.ndarray, names: Sequence[str] | None) -> tuple[str, ...]:
    return tuple(names) if names is not None else tuple(f"x{i}" for i in range(np.shape(X)[1]))


def _pairs(forest: Forest, X: np.ndarray, oob: bool,
           copies: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and leaf of each (tree, row) pair that scores X (with `oob`, the
    out-of-bag ones), tree-major so that sums add as a tree-by-tree loop, and
    each row's pair count.  X may stack `copies` data sets, each scored only
    by its own run of len(forest.roots) // copies trees (forests grown together)."""
    n = len(X) // copies
    if oob and n != forest.in_bag_counts.shape[1]:
        raise ValueError("OOB scoring requires the training rows")
    scores = forest.in_bag_counts == 0 if oob else np.ones((len(forest.roots), n), bool)
    tree, rows = np.divmod(np.flatnonzero(scores), n)
    rows += tree // (len(forest.roots) // copies) * n
    return rows, _leaves(forest, forest.roots[tree], X, rows), np.bincount(rows, minlength=len(X))


def _stay_intervals(forest: Forest, col: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per node: the shallowest node above it that splits on column `col`
    (-1 when none does), and the interval (lo, hi] of `col` values that its
    ancestors' splits on `col` send to it.  A change of `col` alone keeps a
    pair in its leaf while the new value stays in the leaf's interval, and
    moves it only below that first split otherwise."""
    level = forest.roots
    first = np.full(forest.n_nodes, -1, dtype=np.intp)
    lo, hi = np.full(forest.n_nodes, -np.inf), np.full(forest.n_nodes, np.inf)
    offset = np.repeat(level, np.diff(level, append=forest.n_nodes))
    while level.size:
        parent = level[forest.feature[level] >= 0]
        on, thr = forest.feature[parent] == col, forest.threshold[parent]
        kids = forest.left[parent] + offset[parent]
        first[kids] = first[kids + 1] = np.where(on & (first[parent] < 0), parent,
                                                 first[parent])
        lo[kids], hi[kids + 1] = lo[parent], hi[parent]
        hi[kids] = np.where(on, np.minimum(hi[parent], thr), hi[parent])  # x <= thr
        lo[kids + 1] = np.where(on, np.maximum(lo[parent], thr), lo[parent])
        level = np.concatenate((kids, kids + 1))
    return first, lo, hi


def _check_columns(forest: Forest, X: np.ndarray) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(forest.feature_names):
        raise ValueError(f"X must have {len(forest.feature_names)} columns")
    return X


def predict(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Arithmetic mean of per-tree predictions."""
    X = _check_columns(forest, X)
    rows, leaf, counts = _pairs(forest, X, oob=False)
    return np.bincount(rows, weights=forest.value[leaf], minlength=len(X)) / counts


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """1 - RSS/TSS; NaN when TSS is zero (constant target).  A constant is
    found by comparing values: the mean of equal floats need not equal them,
    so the computed TSS of a constant is often not zero."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if len(y_true) != len(y_pred):
        raise ValueError("length mismatch")
    if len(y_true) < 2:
        raise ValueError("need at least 2 observations")
    if y_true.min() == y_true.max():
        return math.nan
    tss = float(np.sum((y_true - np.mean(y_true)) ** 2))
    rss = float(np.sum((y_true - y_pred) ** 2))
    return 1.0 - rss / tss


@dataclass(frozen=True)
class OobScore:
    oob_r2: float
    oob_mse: float
    coverage_fraction: float


def oob_predictions(forest: Forest, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row mean prediction over trees where the row was out-of-bag.

    Returns (predictions, covered mask); uncovered rows are NaN."""
    X = _check_columns(forest, X)
    rows, leaf, counts = _pairs(forest, X, oob=True)
    with np.errstate(invalid="ignore"):  # 0 / 0 is NaN
        return np.bincount(rows, weights=forest.value[leaf], minlength=len(X)) / counts, counts > 0


def oob_score(forest: Forest, X: np.ndarray, y: np.ndarray) -> OobScore:
    """Out-of-bag R-squared and MSE over covered rows."""
    y = _check_target(X, y)
    preds, covered = oob_predictions(forest, X)
    if not covered.any():
        raise ValueError("no row is out-of-bag for any tree; increase n_trees")
    frac = float(covered.mean())
    mse = float(np.mean((y[covered] - preds[covered]) ** 2))
    return OobScore(r2_score(y[covered], preds[covered]), mse, frac)


def mdi_importance(forest: Forest) -> dict[str, float]:
    """Mean decrease in impurity per feature, normalized to sum to 1.

    A forest whose trees never split returns the all-zero vector (with a
    warning as the degenerate-case marker).
    """
    internal = forest.feature >= 0
    totals = np.zeros(len(forest.feature_names))
    np.add.at(totals, forest.feature[internal],
              forest.sse_decrease[internal] / forest.in_bag_counts.shape[1])  # per bootstrap draw
    totals /= len(forest.roots)
    norm = totals.sum()
    if norm <= 0.0:
        warnings.warn("forest has no splits; MDI importance is identically zero",
                      stacklevel=2)
        return {name: 0.0 for name in forest.feature_names}
    return {name: float(v / norm) for name, v in zip(forest.feature_names, totals)}


@dataclass(frozen=True)
class ForestMetrics:
    r2: float
    adj_r2: float
    mse: float
    pseudo_f: float
    n_obs: int
    k: int


def forest_metrics(forest: Forest, X: np.ndarray, y: np.ndarray) -> ForestMetrics:
    """R-squared, adjusted R-squared, MSE and the R-squared-based pseudo-F.

    The pseudo-F is (R2/k) / ((1-R2)/(n-k-1)), k the forest's feature count;
    it is reported for comparability with linear fits, not as a calibrated
    test.  Undefined quantities (n <= k+1, zero TSS, perfect fit) are NaN.
    """
    y = _check_target(X, y)
    k = len(forest.feature_names)
    n = len(y)
    preds = predict(forest, X)
    r2 = r2_score(y, preds)
    mse = float(np.mean((y - preds) ** 2))
    if math.isnan(r2) or n <= k + 1:
        return ForestMetrics(r2, math.nan, mse, math.nan, n, k)
    adj = 1.0 - (1.0 - r2) * (n - 1) / (n - k - 1)
    pseudo_f = (r2 / k) / ((1.0 - r2) / (n - k - 1)) if r2 < 1.0 else math.inf
    return ForestMetrics(r2, adj, mse, pseudo_f, n, k)
