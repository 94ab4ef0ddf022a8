"""Regression random forest: bagged CART trees with random feature subsets.

Trees are grown with an exact split search (best threshold over midpoints
of sorted unique values, MSE criterion), which is affordable at the panel
sizes this package targets (a few hundred rows).  Each tree draws its
bootstrap sample and split features from its own counter-derived stream,
so the fitted forest is a pure function of (X, y, config) regardless of
how tree construction is scheduled.

A forest stores all its trees in one node table, tree after tree, with the
offset of each tree's root; child links are tree-local.  One function,
`_leaves`, routes (tree, row) pairs for predict, OOB scoring and
`Tree.predict`; MDI and save/load work on whole node columns.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from ._rng import stream

__all__ = [
    "ForestConfig",
    "Tree",
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
    "save_forest",
    "load_forest",
]


@dataclass(frozen=True)
class ForestConfig:
    """Forest hyperparameters.

    mtry=None means ceil(p / 3), the regression convention.  Bootstrap
    samples are drawn with replacement at `bootstrap_fraction` of n.
    """

    n_trees: int = 500
    mtry: int | None = None
    min_leaf: int = 5
    max_depth: int | None = None
    bootstrap_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        if not (0 < self.bootstrap_fraction <= 1.0):
            raise ValueError("bootstrap_fraction must be in (0, 1]")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 when set")

    def resolve_mtry(self, p: int) -> int:
        m = self.mtry if self.mtry is not None else math.ceil(p / 3)
        if not (1 <= m <= p):
            raise ValueError(f"mtry must be in [1, {p}], got {m}")
        return m


@dataclass(frozen=True)
class Tree:
    """Array-encoded CART node table: one tree, or a forest's trees in turn.

    feature[i] == -1 marks a leaf; left[i]/right[i] index the children
    from the root of node i's tree; value[i] is the node's training-target
    mean (the prediction for leaves), n_samples[i] the bootstrap-multiset
    size, sse_decrease[i] the split's reduction in total squared error.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    sse_decrease: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf value of every row of X in the tree rooted at node 0."""
        n = len(X)
        return self.value[_leaves(self, 0, np.zeros(n, dtype=np.intp), X, np.arange(n))]


# node-table columns in Tree field order
_NODE_DTYPES = {"feature": np.intp, "threshold": np.float64, "left": np.intp,
                "right": np.intp, "value": np.float64, "n_samples": np.intp,
                "sse_decrease": np.float64}


def _node_table(columns: dict[str, list]) -> Tree:
    return Tree(**{k: np.asarray(columns[k], dtype=t) for k, t in _NODE_DTYPES.items()})


def _leaves(nodes: Tree, offset: np.ndarray | int, node: np.ndarray, X: np.ndarray,
            rows: np.ndarray) -> np.ndarray:
    """Table index of the leaf each (tree, row) pair reaches, starting at
    node[i] and descending on X[rows[i]]; offset[j] is the root of node j's
    tree (0 for a lone tree), which makes child links table indices."""
    left, right = nodes.left + offset, nodes.right + offset
    node = node.copy()
    todo = np.flatnonzero(nodes.feature[node] >= 0)
    at = node[todo]
    while todo.size:
        go_left = X[rows[todo], nodes.feature[at]] <= nodes.threshold[at]
        at = np.where(go_left, left[at], right[at])
        node[todo] = at
        inner = nodes.feature[at] >= 0
        todo, at = todo[inner], at[inner]
    return node


@dataclass(frozen=True)
class Forest:
    """Fitted ensemble: one node table in which tree i starts at roots[i],
    plus per-tree bootstrap bookkeeping for OOB scoring."""

    nodes: Tree
    roots: np.ndarray  # (n_trees,) table offset of each tree's root
    in_bag_counts: np.ndarray  # (n_trees, n_rows) bootstrap multiplicities
    feature_names: tuple[str, ...]
    config: ForestConfig
    n_rows: int

    @property
    def trees(self) -> tuple[Tree, ...]:
        """Per-tree views of the node table (no copies)."""
        parts = [np.split(getattr(self.nodes, name), self.roots[1:]) for name in _NODE_DTYPES]
        return tuple(Tree(*columns) for columns in zip(*parts))


def _grow_tree(X: np.ndarray, y: np.ndarray, sample_idx: np.ndarray,
               cfg: ForestConfig, rng: np.random.Generator,
               table: dict[str, list]) -> None:
    """Grow one tree onto the node lists in `table`, children counted from its root."""
    p = X.shape[1]
    mtry = cfg.resolve_mtry(p)
    min_leaf = cfg.min_leaf

    feature, threshold, left, right, value, n_samples, sse_dec = table.values()
    root = len(feature)

    def new_node(idx: np.ndarray) -> int:
        slot = len(feature)
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        value.append(float(np.mean(y[idx])))
        n_samples.append(len(idx))
        sse_dec.append(0.0)
        return slot

    stack = [(new_node(sample_idx), sample_idx, 0)]
    while stack:
        slot, idx, depth = stack.pop()
        n = len(idx)
        if n < 2 * min_leaf or (cfg.max_depth is not None and depth >= cfg.max_depth):
            continue
        yn = y[idx]
        total1 = float(yn.sum())
        total2 = float((yn**2).sum())
        parent_sse = total2 - total1 * total1 / n
        if parent_sse <= 0.0:
            continue  # pure node

        candidates = np.sort(rng.choice(p, size=mtry, replace=False))
        best = None  # (sse, feature, threshold, split_order, split_pos)
        for f in candidates:
            xf = X[idx, f]
            order = np.argsort(xf, kind="stable")
            xs = xf[order]
            ys = yn[order]
            # split after position i keeps i+1 samples on the left
            c1 = np.cumsum(ys)
            c2 = np.cumsum(ys**2)
            pos = np.arange(1, n)
            valid = (xs[:-1] < xs[1:]) & (pos >= min_leaf) & (n - pos >= min_leaf)
            if not valid.any():
                continue
            nl = pos.astype(np.float64)
            sse_l = c2[:-1] - c1[:-1] ** 2 / nl
            sse_r = (total2 - c2[:-1]) - (total1 - c1[:-1]) ** 2 / (n - nl)
            total = np.where(valid, sse_l + sse_r, np.inf)
            k = int(np.argmin(total))  # first minimum -> lowest threshold
            if not np.isfinite(total[k]):
                continue
            if best is None or total[k] < best[0]:
                thr = 0.5 * (xs[k] + xs[k + 1])
                best = (float(total[k]), int(f), float(thr), order, k)

        if best is None:
            continue
        sse, f, thr, order, k = best
        left_idx = idx[order[: k + 1]]
        right_idx = idx[order[k + 1:]]
        feature[slot] = f
        threshold[slot] = thr
        sse_dec[slot] = max(parent_sse - sse, 0.0)
        l_slot = new_node(left_idx)
        r_slot = new_node(right_idx)
        left[slot], right[slot] = l_slot - root, r_slot - root
        stack.append((r_slot, right_idx, depth + 1))
        stack.append((l_slot, left_idx, depth + 1))


def fit_forest(X: np.ndarray, y: np.ndarray, cfg: ForestConfig,
               feature_names: Sequence[str] | None = None) -> Forest:
    """Fit a regression forest on a clean (no missing values) matrix.

    Each tree i is grown on a bootstrap sample drawn from the stream
    (cfg.seed, i); identical inputs therefore give bit-identical forests.
    A constant target yields single-leaf trees, which is valid (downstream
    R-squared is an undefined marker).
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    n, p = X.shape
    if len(y) != n:
        raise ValueError(f"X has {n} rows but y has {len(y)}")
    if np.isnan(X).any() or np.isnan(y).any():
        raise ValueError("X and y must not contain missing values")
    if n < 2 * cfg.min_leaf:
        raise ValueError(f"need at least {2 * cfg.min_leaf} rows, got {n}")
    cfg.resolve_mtry(p)
    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(p))
    elif len(feature_names) != p:
        raise ValueError("feature_names length must match X columns")

    n_boot = max(1, round(cfg.bootstrap_fraction * n))
    table = {name: [] for name in _NODE_DTYPES}
    roots = np.zeros(cfg.n_trees, dtype=np.intp)
    in_bag = np.zeros((cfg.n_trees, n), dtype=np.intp)
    for i in range(cfg.n_trees):
        rng = stream(cfg.seed, i)
        sample_idx = rng.integers(0, n, size=n_boot)
        in_bag[i] = np.bincount(sample_idx, minlength=n)
        roots[i] = len(table["feature"])
        _grow_tree(X, y, np.sort(sample_idx), cfg, rng, table)
    return Forest(_node_table(table), roots, in_bag, tuple(feature_names), cfg, n)


def _row_sums(forest: Forest, X: np.ndarray, tree: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per-row sum of the (tree[i], rows[i]) pairs' leaf values, added in
    pair order: tree-major pairs sum exactly as a tree-by-tree loop."""
    offset = np.repeat(forest.roots, np.diff(forest.roots, append=forest.nodes.n_nodes))
    leaf = _leaves(forest.nodes, offset, forest.roots[tree], X, rows)
    return np.bincount(rows, weights=forest.nodes.value[leaf], minlength=len(X))


def _check_columns(forest: Forest, X: np.ndarray) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(forest.feature_names):
        raise ValueError(f"X must have {len(forest.feature_names)} columns")
    return X


def predict(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Arithmetic mean of per-tree predictions."""
    X = _check_columns(forest, X)
    n_trees = len(forest.roots)
    tree, rows = np.indices((n_trees, len(X))).reshape(2, -1)
    return _row_sums(forest, X, tree, rows) / n_trees


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """1 - RSS/TSS; NaN when TSS is zero (constant target)."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if len(y_true) != len(y_pred):
        raise ValueError("length mismatch")
    if len(y_true) < 2:
        raise ValueError("need at least 2 observations")
    tss = float(np.sum((y_true - np.mean(y_true)) ** 2))
    if tss == 0.0:
        return math.nan
    rss = float(np.sum((y_true - y_pred) ** 2))
    return 1.0 - rss / tss


@dataclass(frozen=True)
class OobScore:
    oob_r2: float
    oob_mse: float
    coverage_fraction: float


def oob_predictions(forest: Forest, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row mean prediction over trees where the row was out-of-bag.

    Returns (predictions, covered mask); uncovered rows are NaN.
    """
    X = _check_columns(forest, X)
    if len(X) != forest.n_rows:
        raise ValueError("OOB scoring requires the training rows")
    tree, rows = np.nonzero(forest.in_bag_counts == 0)
    totals = _row_sums(forest, X, tree, rows)
    counts = np.bincount(rows, minlength=len(X))
    covered = counts > 0
    preds = np.full(len(X), np.nan)
    preds[covered] = totals[covered] / counts[covered]
    return preds, covered


def oob_score(forest: Forest, X: np.ndarray, y: np.ndarray) -> OobScore:
    """Out-of-bag R-squared and MSE over covered rows."""
    y = np.asarray(y, dtype=np.float64)
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
    nodes = forest.nodes
    n_boot = np.repeat(forest.in_bag_counts.sum(axis=1),
                       np.diff(forest.roots, append=nodes.n_nodes))
    internal = nodes.feature >= 0
    totals = np.zeros(len(forest.feature_names))
    np.add.at(totals, nodes.feature[internal],
              nodes.sse_decrease[internal] / n_boot[internal])
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


def forest_metrics(forest: Forest, X: np.ndarray, y: np.ndarray,
                   k: int | None = None) -> ForestMetrics:
    """R-squared, adjusted R-squared, MSE and the R-squared-based pseudo-F.

    The pseudo-F is (R2/k) / ((1-R2)/(n-k-1)) with k feature count; it is
    reported for comparability with linear fits, not as a calibrated test.
    Undefined quantities (n <= k+1, zero TSS, perfect fit) are NaN.
    """
    y = np.asarray(y, dtype=np.float64)
    k = k if k is not None else len(forest.feature_names)
    n = len(y)
    preds = predict(forest, X)
    r2 = r2_score(y, preds)
    mse = float(np.mean((y - preds) ** 2))
    if math.isnan(r2) or n <= k + 1:
        return ForestMetrics(r2, math.nan, mse, math.nan, n, k)
    adj = 1.0 - (1.0 - r2) * (n - 1) / (n - k - 1)
    pseudo_f = (r2 / k) / ((1.0 - r2) / (n - k - 1)) if r2 < 1.0 else math.inf
    return ForestMetrics(r2, adj, mse, pseudo_f, n, k)


FOREST_FORMAT_VERSION = 1


def save_forest(forest: Forest, path) -> None:
    """Serialize a fitted forest for reproducibility audits.

    Structured-text format: a JSON document with a versioned header
    (config incl. seed, feature names) followed by per-tree node arrays
    and the in-bag multiplicities.
    """
    nodes = forest.nodes
    columns = {name: getattr(nodes, name) for name in _NODE_DTYPES}
    # JSON has no NaN: leaf thresholds are written as null
    columns["threshold"] = np.where(np.isnan(nodes.threshold), None, nodes.threshold)
    per_tree = [[part.tolist() for part in np.split(column, forest.roots[1:])]
                for column in columns.values()]
    doc = {
        "format_version": FOREST_FORMAT_VERSION,
        "config": asdict(forest.config),
        "feature_names": list(forest.feature_names),
        "n_rows": forest.n_rows,
        "in_bag_counts": forest.in_bag_counts.tolist(),
        "trees": [dict(zip(columns, parts)) for parts in zip(*per_tree)],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def load_forest(path) -> Forest:
    """Load a forest written by :func:`save_forest`."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if version != FOREST_FORMAT_VERSION:
        raise ValueError(f"unsupported forest format version {version!r}")
    trees = doc["trees"]
    # a float column turns the null leaf thresholds back into NaN
    nodes = _node_table({name: [v for t in trees for v in t[name]] for name in _NODE_DTYPES})
    roots = np.cumsum([0] + [len(t["feature"]) for t in trees[:-1]], dtype=np.intp)
    return Forest(nodes, roots, np.asarray(doc["in_bag_counts"], dtype=np.intp),
                  tuple(doc["feature_names"]), ForestConfig(**doc["config"]),
                  int(doc["n_rows"]))
