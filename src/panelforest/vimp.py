"""Variable-importance inference for regression forests.

Two layers:

* :func:`permutation_importance` -- the classic shuffle-and-rescore score
  (baseline minus permuted performance), with repeats.
* :func:`rfvimptest` / :func:`rfvimptest_all` -- significance testing of a
  variable's permutation importance.  The observed importance is compared
  against importances recomputed on data where that column was permuted
  (forest refit per permutation); sequential stopping rules (sprt, sapt,
  pval, certain, complete) cut the permutation budget while controlling
  error rates.  The permutation p-value always uses the add-one estimator
  (d + 1) / (m + 1), so it is strictly positive.

Every random draw comes from a stream keyed by (seed, variable, role,
index), so results are identical for any worker count or evaluation order.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import stats as sps

from ._common import star_code
from ._rng import derive_seed, stream
from .forest import Forest, ForestConfig, fit_forest, oob_predictions, predict, r2_score

__all__ = [
    "PermImportanceResult",
    "SeqTestConfig",
    "SeqTestDecision",
    "VimpTestError",
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


def _score(forest: Forest, X: np.ndarray, y: np.ndarray, eval_set: str) -> float:
    if eval_set == "oob":
        preds, covered = oob_predictions(forest, X)
        return r2_score(y[covered], preds[covered])
    return r2_score(y, predict(forest, X))


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
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.shape[1] != len(forest.feature_names):
        raise ValueError(f"X must have {len(forest.feature_names)} columns")
    y = np.asarray(y, dtype=np.float64)
    baseline = _score(forest, X, y, eval_set)
    names = forest.feature_names
    used = np.isin(np.arange(len(names)), forest.nodes.feature)
    drops = np.zeros((len(names), n_repeats))
    for j, name in enumerate(names):
        if not used[j]:
            continue  # predictions cannot depend on this column: drop 0
        for r in range(n_repeats):
            Xp = _null_permutation(X, j, stream(seed, name, "shuffle", r), None)
            drops[j, r] = baseline - _score(forest, Xp, y, eval_set)
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
    permute_within_groups: bool = False
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
        if problems:
            raise ValueError("; ".join(problems))


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

    if cfg.method == "sprt":
        step_exc = math.log(cfg.p1 / cfg.p0)
        step_non = math.log((1 - cfg.p1) / (1 - cfg.p0))
        upper = math.log((1 - cfg.beta) / cfg.alpha)
        lower = math.log(cfg.beta / (1 - cfg.alpha))
        boundary_reason = "sprt_boundary"
    elif cfg.method == "sapt":
        step_exc = math.log(cfg.p1 / cfg.p0)
        step_non = math.log((1 - cfg.p1) / (1 - cfg.p0))
        lower, upper = cfg.sapt_bounds or (math.log(cfg.beta / (1 - cfg.alpha)),
                                           -math.log(cfg.beta / (1 - cfg.alpha)))
        boundary_reason = "sapt_boundary"

    certain_threshold = math.floor(alpha * (mmax + 1))

    d = 0
    llr = 0.0
    for m in range(1, mmax + 1):
        exceeded = bool(exceedance_fn(m))
        d += exceeded

        if cfg.method == "complete":
            continue
        if cfg.method == "certain":
            if d >= certain_threshold:
                return "not_significant", p_est(d, m), m, d, "forced_decision"
            if d + (mmax - m) < certain_threshold:
                return "significant", p_est(d, m), m, d, "forced_decision"
            continue
        if cfg.method in ("sprt", "sapt"):
            llr += step_exc if exceeded else step_non
            if llr >= upper:
                return "significant", p_est(d, m), m, d, boundary_reason
            if llr <= lower:
                return "not_significant", p_est(d, m), m, d, boundary_reason
            continue
        # pval: Clopper-Pearson interval for the exceedance probability
        lo = 0.0 if d == 0 else float(sps.beta.ppf(cfg.gamma / 2, d, m - d + 1))
        hi = 1.0 if d == m else float(sps.beta.ppf(1 - cfg.gamma / 2, d + 1, m - d))
        if lo > alpha:
            return "not_significant", p_est(d, m), m, d, "ci_boundary"
        if hi < alpha:
            return "significant", p_est(d, m), m, d, "ci_boundary"

    p = p_est(d, mmax)
    if cfg.method == "complete":
        decision = "significant" if p <= alpha else "not_significant"
        return decision, p, mmax, d, "complete"
    if cfg.method == "certain":
        # the forced bounds above are exhaustive for d >= threshold, so
        # reaching mmax means the complete decision is significant
        decision = "significant" if p <= alpha else "not_significant"
        return decision, p, mmax, d, "complete"
    if cfg.mmax_fallback:
        decision = "significant" if p <= alpha else "not_significant"
        return decision, p, mmax, d, "mmax_fallback"
    return "undecided", p, mmax, d, "mmax_undecided"


def _variable_vimp(X: np.ndarray, y: np.ndarray, col: int,
                   cfg: SeqTestConfig, fcfg: ForestConfig, seed: int, *path) -> float:
    """Importance of one column: forest fit plus nperm shuffle repeats."""
    forest = fit_forest(X, y, replace(fcfg, n_trees=cfg.ntree,
                                      seed=derive_seed(seed, *path, "fit")))
    baseline = _score(forest, X, y, cfg.eval_set)
    drops = []
    for r in range(cfg.nperm):
        Xp = _null_permutation(X, col, stream(seed, *path, "vimp", r), None)
        drops.append(baseline - _score(forest, Xp, y, cfg.eval_set))
    return float(np.mean(drops))


def _null_permutation(X: np.ndarray, col: int, rng: np.random.Generator,
                      groups: np.ndarray | None) -> np.ndarray:
    """Copy of X with column `col` shuffled, globally or within `groups`."""
    Xp = X.copy()
    if groups is None:
        Xp[:, col] = Xp[rng.permutation(len(X)), col]
        return Xp
    for g in np.unique(groups):
        rows = np.where(groups == g)[0]
        Xp[rows, col] = Xp[rows[rng.permutation(len(rows))], col]
    return Xp


def rfvimptest(X: np.ndarray, y: np.ndarray, variable: str, cfg: SeqTestConfig,
               seed: int = 0, feature_names: Sequence[str] | None = None,
               forest_config: ForestConfig | None = None,
               groups: np.ndarray | None = None) -> SeqTestDecision:
    """Sequential permutation test of one variable's importance.

    The observed importance comes from a forest fit to the original data.
    For each permutation j the variable's column is shuffled (globally, or
    within `groups` when cfg.permute_within_groups), a fresh forest is fit
    to the shuffled data, and the variable's importance is recomputed the
    same way; an exceedance is a permuted importance >= the observed one.
    cfg.method decides when to stop.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    names = tuple(feature_names) if feature_names is not None \
        else tuple(f"x{i}" for i in range(X.shape[1]))
    if variable not in names:
        raise KeyError(f"variable {variable!r} not among features {list(names)}")
    if cfg.permute_within_groups and groups is None:
        raise ValueError("permute_within_groups requires groups")
    groups = None if not cfg.permute_within_groups else np.asarray(groups)
    col = names.index(variable)
    fcfg = forest_config or ForestConfig()

    observed = _variable_vimp(X, y, col, cfg, fcfg, seed, variable, "observed")

    def exceedance(j: int) -> bool:
        X_null = _null_permutation(X, col, stream(seed, variable, "perm", j), groups)
        vimp_j = _variable_vimp(X_null, y, col, cfg, fcfg, seed, variable, "perm", j)
        return vimp_j >= observed

    decision, p, m, d, reason = run_sequential(cfg, exceedance)
    return SeqTestDecision(variable, decision, p, m, d, reason, observed)


class VimpTestError(RuntimeError):
    """One or more per-variable tests failed; carries the partial results."""

    def __init__(self, failures: dict[str, str], partial: dict[str, SeqTestDecision]):
        self.failures = failures
        self.partial = partial
        detail = "; ".join(f"{name}: {msg}" for name, msg in failures.items())
        super().__init__(f"rfvimptest failed for {len(failures)} variable(s): {detail}")


def _rfvimptest_task(args):
    X, y, variable, cfg, seed, names, fcfg, groups = args
    try:
        return variable, rfvimptest(X, y, variable, cfg, seed, names, fcfg, groups), None
    except Exception as exc:  # noqa: BLE001 - reported per variable
        return variable, None, f"{type(exc).__name__}: {exc}"


def rfvimptest_all(X: np.ndarray, y: np.ndarray, variables: Sequence[str],
                   cfg: SeqTestConfig, master_seed: int = 0, workers: int = 1,
                   feature_names: Sequence[str] | None = None,
                   forest_config: ForestConfig | None = None,
                   groups: np.ndarray | None = None) -> dict[str, SeqTestDecision]:
    """Run :func:`rfvimptest` for several variables, optionally in parallel.

    Each variable's streams are derived from (master_seed, variable name),
    so the decision map is identical for any `workers` count and any
    scheduling order.  Per-variable failures do not abort the others; they
    are collected and raised together as :class:`VimpTestError` (with the
    successful decisions attached).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    names = tuple(feature_names) if feature_names is not None \
        else tuple(f"x{i}" for i in range(np.asarray(X).shape[1]))
    tasks = [(np.ascontiguousarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64),
              v, cfg, master_seed, names, forest_config, groups) for v in variables]
    results: dict[str, SeqTestDecision] = {}
    failures: dict[str, str] = {}
    if workers == 1 or len(tasks) <= 1:
        outcomes = map(_rfvimptest_task, tasks)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_rfvimptest_task, tasks))
    for variable, decision, error in outcomes:
        if error is not None:
            failures[variable] = error
        else:
            results[variable] = decision
    ordered = {v: results[v] for v in variables if v in results}
    if failures:
        raise VimpTestError(failures, ordered)
    return ordered


def significance_codes(decisions: Mapping[str, SeqTestDecision | float]) -> dict[str, str]:
    """Star string per variable from its p_estimate (or a bare p-value)."""
    out = {}
    for name, dec in decisions.items():
        p = dec.p_estimate if isinstance(dec, SeqTestDecision) else float(dec)
        out[name] = star_code(p)
    return out
