"""Variable-importance inference for regression forests.

Two layers:

* :func:`permutation_importance` -- shuffle-and-rescore importance, with
  repeats; a shuffle keeps the leaf of every pair whose new value stays in
  the interval its leaf's splits on the column allow, and reroutes the
  others from the leaf's first split on the column.
* :func:`rfvimptest` / :func:`rfvimptest_all` / :func:`rfvimptest_many` --
  significance testing of a variable's permutation importance.  The
  observed importance is compared against importances recomputed on data
  where that column was permuted (forest refit per permutation); sequential
  stopping rules (sprt, sapt, pval, certain, complete) cut the permutation
  budget while controlling error rates.  The permutation p-value always
  uses the add-one estimator (d + 1) / (m + 1), so it is strictly positive.

Each design is checked once, before any forest.  A test's forests, the
observed one on the data as given and then one null forest per
permutation, grow in blocks on stacked copies of the data through
`fit_forest`'s grower, one run of bootstrap draws per block, and are
scored in one routing pass; the next block grows only when the test's
stopping rule asks for a permutation past the importances held.  Every
test of a call runs whole, as one task, on one process pool.

Every random draw comes from a stream keyed by (seed, variable, role,
index), so results are identical for any worker count, block size or
evaluation order.  Errors propagate: a test that fails raises its own
exception to the caller.
"""

from __future__ import annotations

import math
import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ._common import star_code
from ._dist import betainc
from ._rng import derive_seed, stream
from .forest import (_ENTRIES_PER_GROUP, Forest, ForestConfig, _check_columns, _check_design,
                     _check_target, _feature_names, _grow_forests, _leaves, _pairs, r2_score,
                     _stay_intervals)

__all__ = [
    "PermImportanceResult",
    "SeqTestConfig",
    "SeqTestDecision",
    "permutation_importance",
    "rfvimptest",
    "rfvimptest_all",
    "rfvimptest_many",
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
        """Variable names sorted by mean importance, descending; NaN
        importances (a constant target) come last, in their given order."""
        return sorted(self.means, key=lambda n: (math.isnan(self.means[n]), -self.means[n]))


def _scorer(forest: Forest, X: np.ndarray, y: np.ndarray, eval_set: str,
            copies: int = 1) -> tuple[np.ndarray, Callable[[int, Iterable], np.ndarray]]:
    """R-squared on (X, y) per data set, and a function giving it minus the
    score with column `col` shuffled, as a (copies, shuffles) array.

    X may stack `copies` data sets, each scored by its own forest: a run of
    len(forest.roots) // copies trees (see `_pairs`); y holds the target of
    one set.  Each shuffle gives one generator per set.  A pair whose
    shuffled value stays in its leaf's interval (lo, hi] keeps its leaf,
    since every split on `col` above the leaf sends it the same way; the
    others are rerouted from the leaf's first split on `col`.  Every
    forest's sums keep `predict`'s and `oob_predictions`' order."""
    rows, base = _pairs(forest, X, eval_set == "oob", copies)
    counts = np.bincount(rows, minlength=len(X)).reshape(copies, -1)
    seen = [np.flatnonzero(c) for c in counts]

    def score(leaf: np.ndarray) -> np.ndarray:
        totals = np.bincount(rows, weights=forest.nodes.value[leaf], minlength=len(X))
        return np.array([r2_score(y[s], t[s] / c[s])
                         for s, t, c in zip(seen, totals.reshape(copies, -1), counts)])

    baseline = score(base)

    def drops(col: int, shuffles: Iterable[Sequence[np.random.Generator]]) -> np.ndarray:
        first, lo, hi = (a[base] for a in _stay_intervals(forest, col))
        first = np.where(first >= 0, first, base)  # no split on col above: keep the leaf
        out = []
        for rngs in shuffles:
            Xp = _null_permutation(X, col, rngs)
            v = Xp[rows, col]
            start = np.where((lo < v) & (v <= hi), base, first)
            out.append(baseline - score(_leaves(forest.nodes, forest.roots, start, Xp, rows)))
        return np.column_stack(out)

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
    y = _check_target(X, y)
    baseline, shuffle_drops = _scorer(forest, X, y, eval_set)
    names = forest.feature_names
    drops = np.array([shuffle_drops(j, ([stream(seed, name, "shuffle", r)]
                                        for r in range(n_repeats)))[0]
                      for j, name in enumerate(names)])
    means = {name: float(np.mean(drops[j])) for j, name in enumerate(names)}
    stds = {name: float(np.std(drops[j])) for j, name in enumerate(names)}
    return PermImportanceResult(means, stds, n_repeats, f"r2_{eval_set}", float(baseline[0]))


@dataclass(frozen=True)
class SeqTestConfig:
    """Sequential-test settings.

    p1 < alpha < p0 bracket the significance level: sprt decides between
    exceedance probabilities p1 (significant) and p0 (not significant)
    with error rates alpha/beta.  ntree is the size of each refitted null
    forest and nperm the number of shuffle repeats averaged into every
    importance evaluation.  sapt_bounds overrides the symmetric sapt
    boundaries (lower, upper), with method sapt only; the default is
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
        elif bounds is not None and self.method != "sapt":
            problems.append(f"sapt_bounds applies only to method 'sapt', not {self.method!r}")
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
            below, above = _interval_tails(d, m, alpha)
            if below < cfg.gamma / 2:
                return "not_significant", p_est(d, m), m, d, "ci_boundary"
            if above < cfg.gamma / 2:
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


def _interval_tails(d: int, m: int, alpha: float) -> tuple[float, float]:
    """The `pval` rule's two beta tails at d exceedances in m permutations.
    The Clopper-Pearson interval (lo, hi) of level 1 - gamma for the
    exceedance probability has lo = I^-1_{gamma/2}(d, m - d + 1) and
    hi = I^-1_{1 - gamma/2}(d + 1, m - d), so lo > alpha iff the first tail,
    I_alpha(d, m - d + 1), is below gamma / 2, and hi < alpha iff the second,
    I_{1 - alpha}(m - d, d + 1), is.  A tail is 1 where its bound is 0 or 1."""
    below = betainc(d, m - d + 1, alpha, 1.0 - alpha) if d > 0 else 1.0
    above = betainc(m - d, d + 1, 1.0 - alpha, alpha) if d < m else 1.0
    return below, above


def _null_permutation(X: np.ndarray, col: int,
                      rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Copy of X, which stacks len(rngs) data sets, with column `col` of
    set b shuffled by rngs[b]."""
    n = len(X) // len(rngs)
    Xp = X.copy()
    Xp[:, col] = X[np.concatenate([b * n + rng.permutation(n) for b, rng in enumerate(rngs)]),
                   col]
    return Xp


@dataclass(frozen=True)
class _Test:
    """One variable's sequential test: everything a worker needs to run it
    to its decision, one block of its forests at a time."""

    X: np.ndarray
    y: np.ndarray
    col: int
    variable: str
    cfg: SeqTestConfig
    fcfg: ForestConfig
    seed: int

    def block(self, have: int) -> tuple[int, int]:
        """Forests have, ..., stop - 1 of the next block.  Forest 0 is the
        observed one and forest j the null forest of permutation j; a block
        holds as many forests as fit in one run of `_grow_forests`'
        bootstrap draws, and none past mmax."""
        size = max(1, (_ENTRIES_PER_GROUP // len(self.X)) // self.cfg.ntree)
        return have, min(have + size, self.cfg.mmax + 1)


def _tests(X, y, names: Sequence[str] | None, variables: Sequence[str], cfg: SeqTestConfig,
           seed: int, forest_config: ForestConfig | None) -> list[_Test]:
    """One test per variable of the design (X, y) with feature `names`;
    the design and the variables are checked here, before any forest."""
    fcfg = forest_config or ForestConfig()
    X, y, names = _check_design(X, y, fcfg, names)
    unknown = [v for v in variables if v not in names]
    if unknown:
        raise KeyError(f"variables {unknown} not among features {list(names)}")
    return [_Test(X, y, names.index(v), v, cfg, fcfg, seed) for v in variables]


def _block_vimps(test: _Test, start: int, stop: int) -> list[float]:
    """Importances of forests start, ..., stop - 1 of a test (see
    `_Test.block`), grown together on stacked copies of the data and
    scored in one routing pass."""
    paths = [(test.variable, "perm", j) if j else (test.variable, "observed")
             for j in range(start, stop)]
    Xs = np.concatenate([test.X if path[-1] == "observed" else
                         _null_permutation(test.X, test.col, [stream(test.seed, *path)])
                         for path in paths])
    forest = _grow_forests(Xs, test.y, [derive_seed(test.seed, *path, "fit") for path in paths],
                           test.cfg.ntree, test.fcfg, _feature_names(test.X, None))
    _, shuffle_drops = _scorer(forest, Xs, test.y, test.cfg.eval_set, len(paths))
    shuffles = ([stream(test.seed, *path, "vimp", r) for path in paths]
                for r in range(test.cfg.nperm))
    return [float(np.mean(drops)) for drops in shuffle_drops(test.col, shuffles)]


def _decide(test: _Test) -> SeqTestDecision:
    """Run one test to its decision.  The stopping rule asks for
    permutation j = 1, 2, ...; the test's next block of forests grows only
    when j is past the importances already held, so fewer than one block
    of forests goes unused.  An exceedance is a permuted importance not
    less than the observed one, so a NaN importance (as on a constant
    target) counts as one."""
    vimps: list[float] = []  # observed, permutation 1, 2, ...

    def exceeds(j: int) -> bool:
        while j >= len(vimps):
            vimps.extend(_block_vimps(test, *test.block(len(vimps))))
        return not (vimps[j] < vimps[0])

    return SeqTestDecision(test.variable, *run_sequential(test.cfg, exceeds), vimps[0])


def _run_tests(designs: Sequence[Sequence[_Test]],
               workers: int) -> list[dict[str, SeqTestDecision]]:
    """Decide every test of every design, each whole in one task: inline
    for one worker, else on one fork-started pool of min(workers, tests)
    processes; one decision map per design.  A decision depends only on
    its test's own streams, not on the worker count, the block size or the
    order in which tests finish."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    tests = [test for design in designs for test in design]
    if workers == 1 or len(tests) <= 1:
        decisions = list(map(_decide, tests))
    else:
        # fork: the workers start with the package imported, where spawn
        # would import numpy and panelforest again in each of them
        pool = ProcessPoolExecutor(min(workers, len(tests)),
                                   mp_context=multiprocessing.get_context("fork"))
        try:
            decisions = list(pool.map(_decide, tests))
        finally:
            pool.shutdown(cancel_futures=True)
    found = iter(decisions)
    return [{test.variable: next(found) for test in design} for design in designs]


def rfvimptest(X: np.ndarray, y: np.ndarray, variable: str, cfg: SeqTestConfig,
               seed: int = 0, feature_names: Sequence[str] | None = None,
               forest_config: ForestConfig | None = None) -> SeqTestDecision:
    """Sequential permutation test of one variable's importance.

    The observed importance comes from a forest fit to the original data.
    For each permutation j the variable's column is shuffled, a fresh
    forest is fit to the shuffled data, and the variable's importance is
    recomputed the same way; an exceedance is a permuted importance not
    less than the observed one, so a NaN importance counts as one.  The
    null forests are grown a block at a time, and a block only once the
    stopping rule asks for its first permutation, so fewer than one block
    of them past the stopping point is grown and unused; the result does
    not depend on the block size.
    cfg.method decides when to stop.  Every forest of the test takes mtry,
    min_leaf and max_depth from forest_config; its size is cfg.ntree and
    its seed derives from `seed`, so forest_config's n_trees and seed are
    not used.
    """
    return _run_tests([_tests(X, y, feature_names, [variable], cfg, seed, forest_config)],
                      1)[0][variable]


def rfvimptest_all(X: np.ndarray, y: np.ndarray, variables: Sequence[str],
                   cfg: SeqTestConfig, master_seed: int = 0, workers: int = 1,
                   feature_names: Sequence[str] | None = None,
                   forest_config: ForestConfig | None = None) -> dict[str, SeqTestDecision]:
    """:func:`rfvimptest` for each of `variables`, all on one pool of
    `workers` processes; the decisions come back in the order of `variables`.

    Each variable's streams are derived from (master_seed, variable name),
    so the decision map is identical for any `workers` count and any
    scheduling order.  A design `fit_forest` would reject raises its
    ValueError, and unknown variables one KeyError, before any forest is
    grown or any pool started; a test that fails raises its own exception.
    """
    return _run_tests([_tests(X, y, feature_names, variables, cfg, master_seed,
                              forest_config)], workers)[0]


def rfvimptest_many(designs: Sequence[tuple[np.ndarray, np.ndarray, Sequence[str], int]],
                    cfg: SeqTestConfig, workers: int = 1,
                    forest_config: ForestConfig | None = None
                    ) -> list[dict[str, SeqTestDecision]]:
    """:func:`rfvimptest_all` of every feature of each design (X, y,
    feature names, master seed), with every test of every design on one
    pool; one decision map per design, in the order of `designs`."""
    return _run_tests([_tests(X, y, names, names, cfg, seed, forest_config)
                       for X, y, names, seed in designs], workers)


def significance_codes(decisions: Mapping[str, SeqTestDecision | float]) -> dict[str, str]:
    """Star string per variable from its p_estimate (or a bare p-value)."""
    out = {}
    for name, dec in decisions.items():
        p = dec.p_estimate if isinstance(dec, SeqTestDecision) else float(dec)
        out[name] = star_code(p)
    return out
