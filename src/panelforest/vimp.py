"""Variable-importance inference for regression forests.

Two layers:

* :func:`permutation_importance` -- shuffle-and-rescore importance, with
  repeats; a shuffle reroutes only the pairs below the column's first split.
* :func:`rfvimptest` / :func:`rfvimptest_all` -- significance testing of a
  variable's permutation importance.  The observed importance is compared
  against importances recomputed on data where that column was permuted
  (forest refit per permutation); sequential stopping rules (sprt, sapt,
  pval, certain, complete) cut the permutation budget while controlling
  error rates.  The permutation p-value always uses the add-one estimator
  (d + 1) / (m + 1), so it is strictly positive.

Every random draw comes from a stream keyed by (seed, variable, role,
index), so results are identical for any worker count or evaluation order.
Errors propagate: a test that fails raises its own exception to the caller.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy import special

from ._common import star_code
from ._rng import derive_seed, stream
from .forest import (Forest, ForestConfig, _check_columns, _feature_names, _first_splits,
                     _leaves, _pairs, fit_forest, r2_score)

__all__ = [
    "PermImportanceResult",
    "SeqTestConfig",
    "SeqTestDecision",
    "permutation_importance",
    "rfvimptest",
    "rfvimptest_all",
    "run_sequential",
    "significance_codes",
]

METHODS = ("sprt", "sapt", "pval", "certain", "complete")


@dataclass(frozen=True)
class PermImportanceResult:
    """Per-variable mean/std of (baseline score - permuted score)."""

    means: dict[str, float]
    stds: dict[str, float]
    n_repeats: int
    metric: str
    baseline_score: float

    def ranking(self) -> list[str]:
        """Variable names sorted by mean importance, descending."""
        return sorted(self.means, key=lambda n: self.means[n], reverse=True)


def _scorer(forest: Forest, X: np.ndarray, y: np.ndarray,
            eval_set: str) -> tuple[float, Callable[[int, Iterable], np.ndarray]]:
    """R-squared on (X, y), and a function giving it minus the score with
    column `col` shuffled, once per stream.  A shuffle reroutes only pairs
    below a split on `col`; sums keep `predict`'s and `oob_predictions`' order."""
    rows, base = _pairs(forest, X, eval_set == "oob")
    counts = np.bincount(rows, minlength=len(X))
    seen = np.flatnonzero(counts)

    def score(leaf: np.ndarray) -> float:
        totals = np.bincount(rows, weights=forest.nodes.value[leaf], minlength=len(X))
        return r2_score(y[seen], totals[seen] / counts[seen])

    baseline, first = score(base), _first_splits(forest)

    def drops(col: int, streams: Iterable) -> np.ndarray:
        start = np.where(first[base, col] >= 0, first[base, col], base)  # else keep the leaf
        return np.array([baseline - score(_leaves(forest.nodes, forest.roots, start,
                                                  _null_permutation(X, col, rng), rows))
                         for rng in streams])

    return baseline, drops


def permutation_importance(forest: Forest, X: np.ndarray, y: np.ndarray,
                           n_repeats: int = 10, seed: int = 0,
                           eval_set: str = "train") -> PermImportanceResult:
    """Shuffle each feature column and measure the drop in R-squared.

    eval_set selects where performance is measured: "train" (default)
    scores on (X, y) directly; "oob" scores every row using only trees
    for which it was out-of-bag (X must then be the training rows).
    A feature the forest never splits on scores exactly 0 in every repeat.
    """
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    if eval_set not in ("train", "oob"):
        raise ValueError(f"unknown eval_set {eval_set!r}")
    X = _check_columns(forest.nodes, X)
    y = np.asarray(y, dtype=np.float64)
    baseline, shuffle_drops = _scorer(forest, X, y, eval_set)
    names = forest.feature_names
    drops = np.array([shuffle_drops(j, (stream(seed, name, "shuffle", r)
                                        for r in range(n_repeats)))
                      for j, name in enumerate(names)])
    means = {name: float(np.mean(drops[j])) for j, name in enumerate(names)}
    stds = {name: float(np.std(drops[j])) for j, name in enumerate(names)}
    return PermImportanceResult(means, stds, n_repeats, f"r2_{eval_set}", baseline)


@dataclass(frozen=True)
class SeqTestConfig:
    """Sequential-test settings.

    p1 < alpha < p0 bracket the significance level: sprt decides between
    exceedance probabilities p1 (significant) and p0 (not significant)
    with error rates alpha/beta.  ntree is the size of each refitted null
    forest and nperm the number of shuffle repeats averaged into every
    importance evaluation.  sapt_bounds overrides the symmetric sapt
    boundaries (lower, upper); the default is
    (ln(beta/(1-alpha)), -ln(beta/(1-alpha))).
    """

    method: str = "sprt"
    mmax: int = 500
    p0: float = 0.06
    p1: float = 0.04
    alpha: float = 0.05
    beta: float = 0.2
    gamma: float = 0.05
    ntree: int = 100
    nperm: int = 1
    eval_set: str = "train"
    mmax_fallback: bool = True
    sapt_bounds: tuple[float, float] | None = None

    def __post_init__(self):
        problems = []
        if self.method not in METHODS:
            problems.append(f"method must be one of {METHODS}, got {self.method!r}")
        if not (0 < self.p1 < self.alpha < self.p0 < 1):
            problems.append(f"need 0 < p1 < alpha < p0 < 1, got p1={self.p1}, "
                            f"alpha={self.alpha}, p0={self.p0}")
        if not (0 < self.alpha < 1 and 0 < self.beta < 1):
            problems.append("alpha and beta must be in (0, 1)")
        if not (0 < self.gamma < 1):
            problems.append("gamma must be in (0, 1)")
        if self.mmax < 1:
            problems.append(f"mmax must be >= 1, got {self.mmax}")
        elif self.mmax < 10:
            warnings.warn(f"mmax={self.mmax} is below the supported minimum of 10; "
                          "p-value estimates will be very coarse", stacklevel=3)
        if self.ntree < 1 or self.nperm < 1:
            problems.append("ntree and nperm must be >= 1")
        if self.eval_set not in ("train", "oob"):
            problems.append(f"eval_set must be 'train' or 'oob', got {self.eval_set!r}")
        bounds = self.sapt_bounds
        if bounds is not None and not (isinstance(bounds, tuple) and len(bounds) == 2
                                       and all(isinstance(b, (int, float)) for b in bounds)
                                       and bounds[0] < 0 < bounds[1]):
            problems.append("sapt_bounds must be a pair (lower, upper) with "
                            f"lower < 0 < upper, got {bounds!r}")
        if problems:
            raise ValueError("; ".join(problems))
        if self.method in ("sprt", "sapt"):
            # every step a non-exceedance is the shortest walk to the upper bound
            _, step_non, _, upper = _llr_walk(self)
            shortest = math.ceil(upper / step_non)
            if shortest > self.mmax:
                warnings.warn(f"{self.method} needs at least {shortest} permutations to "
                              f"reach 'significant' but mmax={self.mmax}; the tests "
                              "of important variables end at mmax", stacklevel=3)
        elif self.method in ("certain", "complete") and self.alpha * (self.mmax + 1) < 1:
            warnings.warn(f"{self.method} cannot reach 'significant' with mmax={self.mmax}: "
                          "its p-value is at least 1/(mmax + 1) > alpha", stacklevel=3)


def _llr_walk(cfg: SeqTestConfig) -> tuple[float, float, float, float]:
    """sprt/sapt log-likelihood-ratio steps (exceedance, non-exceedance)
    and boundaries (lower, upper)."""
    lower = math.log(cfg.beta / (1 - cfg.alpha))
    if cfg.method == "sprt":
        upper = math.log((1 - cfg.beta) / cfg.alpha)
    else:
        lower, upper = cfg.sapt_bounds or (lower, -lower)
    return math.log(cfg.p1 / cfg.p0), math.log((1 - cfg.p1) / (1 - cfg.p0)), lower, upper


@dataclass(frozen=True)
class SeqTestDecision:
    """Outcome of one variable's sequential importance test."""

    variable: str
    decision: str  # significant | not_significant | undecided
    p_estimate: float
    m: int  # permutations consumed
    d: int  # exceedances observed
    stopping_reason: str
    observed_vimp: float


def run_sequential(cfg: SeqTestConfig,
                   exceedance_fn: Callable[[int], bool]) -> tuple[str, float, int, int, str]:
    """Drive cfg.method over an exceedance stream.

    exceedance_fn(j) must report, for permutation j (1-based), whether the
    permuted importance reached the observed one.  It is called for
    j = 1, 2, ... until the method stops.  Returns
    (decision, p_estimate, m, d, stopping_reason).
    """
    mmax, alpha = cfg.mmax, cfg.alpha

    def p_est(d: int, m: int) -> float:
        return (d + 1) / (m + 1)

    if cfg.method in ("sprt", "sapt"):
        step_exc, step_non, lower, upper = _llr_walk(cfg)

    certain_threshold = math.floor(alpha * (mmax + 1))

    d = 0
    llr = 0.0
    for m in range(1, mmax + 1):
        exceeded = bool(exceedance_fn(m))
        d += exceeded

        if cfg.method == "certain":
            if d >= certain_threshold:
                return "not_significant", p_est(d, m), m, d, "forced_decision"
            if d + (mmax - m) < certain_threshold:
                return "significant", p_est(d, m), m, d, "forced_decision"
        elif cfg.method in ("sprt", "sapt"):
            llr += step_exc if exceeded else step_non
            if llr >= upper:
                return "significant", p_est(d, m), m, d, f"{cfg.method}_boundary"
            if llr <= lower:
                return "not_significant", p_est(d, m), m, d, f"{cfg.method}_boundary"
        elif cfg.method == "pval":
            # Clopper-Pearson interval for the exceedance probability
            lo = 0.0 if d == 0 else float(special.betaincinv(d, m - d + 1, cfg.gamma / 2))
            hi = 1.0 if d == m else float(special.betaincinv(d + 1, m - d, 1 - cfg.gamma / 2))
            if lo > alpha:
                return "not_significant", p_est(d, m), m, d, "ci_boundary"
            if hi < alpha:
                return "significant", p_est(d, m), m, d, "ci_boundary"

    p = p_est(d, mmax)
    if cfg.method in ("complete", "certain"):
        # certain: the forced bounds above are exhaustive for d >= threshold,
        # so reaching mmax means the complete decision is significant
        reason = "complete"
    elif cfg.mmax_fallback:
        reason = "mmax_fallback"
    else:
        return "undecided", p, mmax, d, "mmax_undecided"
    return "significant" if p <= alpha else "not_significant", p, mmax, d, reason


def _variable_vimp(X: np.ndarray, y: np.ndarray, col: int,
                   cfg: SeqTestConfig, fcfg: ForestConfig, seed: int, *path) -> float:
    """Importance of one column: forest fit plus nperm shuffle repeats."""
    forest = fit_forest(X, y, replace(fcfg, n_trees=cfg.ntree,
                                      seed=derive_seed(seed, *path, "fit")))
    _, shuffle_drops = _scorer(forest, X, y, cfg.eval_set)
    return float(np.mean(shuffle_drops(col, (stream(seed, *path, "vimp", r)
                                             for r in range(cfg.nperm)))))


def _null_permutation(X: np.ndarray, col: int, rng: np.random.Generator) -> np.ndarray:
    """Copy of X with column `col` shuffled."""
    Xp = X.copy()
    Xp[:, col] = Xp[rng.permutation(len(X)), col]
    return Xp


def rfvimptest(X: np.ndarray, y: np.ndarray, variable: str, cfg: SeqTestConfig,
               seed: int = 0, feature_names: Sequence[str] | None = None,
               forest_config: ForestConfig | None = None) -> SeqTestDecision:
    """Sequential permutation test of one variable's importance.

    The observed importance comes from a forest fit to the original data.
    For each permutation j the variable's column is shuffled, a fresh
    forest is fit to the shuffled data, and the variable's importance is
    recomputed the same way; an exceedance is a permuted importance >= the
    observed one.
    cfg.method decides when to stop.  Every forest of the test takes mtry,
    min_leaf and max_depth from forest_config; its size is cfg.ntree and
    its seed derives from `seed`, so forest_config's n_trees and seed are
    not used.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    names = _feature_names(X, feature_names)
    if variable not in names:
        raise KeyError(f"variable {variable!r} not among features {list(names)}")
    col = names.index(variable)
    fcfg = forest_config or ForestConfig()

    observed = _variable_vimp(X, y, col, cfg, fcfg, seed, variable, "observed")

    def exceedance(j: int) -> bool:
        X_null = _null_permutation(X, col, stream(seed, variable, "perm", j))
        vimp_j = _variable_vimp(X_null, y, col, cfg, fcfg, seed, variable, "perm", j)
        return vimp_j >= observed

    decision, p, m, d, reason = run_sequential(cfg, exceedance)
    return SeqTestDecision(variable, decision, p, m, d, reason, observed)


def rfvimptest_all(X: np.ndarray, y: np.ndarray, variables: Sequence[str],
                   cfg: SeqTestConfig, master_seed: int = 0, workers: int = 1,
                   feature_names: Sequence[str] | None = None,
                   forest_config: ForestConfig | None = None) -> dict[str, SeqTestDecision]:
    """:func:`rfvimptest` mapped over `variables`, optionally in parallel;
    the decisions come back in the order of `variables`.

    Each variable's streams are derived from (master_seed, variable name),
    so the decision map is identical for any `workers` count and any
    scheduling order.  Unknown variables raise one KeyError before any
    forest is grown; a test that fails raises its own exception.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    names = _feature_names(X, feature_names)
    unknown = [v for v in variables if v not in names]
    if unknown:
        raise KeyError(f"variables {unknown} not among features {list(names)}")
    test = partial(rfvimptest, np.ascontiguousarray(X, dtype=np.float64),
                   np.asarray(y, dtype=np.float64), cfg=cfg, seed=master_seed,
                   feature_names=names, forest_config=forest_config)
    if workers == 1 or len(variables) <= 1:
        return dict(zip(variables, map(test, variables)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return dict(zip(variables, pool.map(test, variables)))


def significance_codes(decisions: Mapping[str, SeqTestDecision | float]) -> dict[str, str]:
    """Star string per variable from its p_estimate (or a bare p-value)."""
    out = {}
    for name, dec in decisions.items():
        p = dec.p_estimate if isinstance(dec, SeqTestDecision) else float(dec)
        out[name] = star_code(p)
    return out
