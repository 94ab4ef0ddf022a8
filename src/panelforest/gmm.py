"""One-step System GMM for dynamic panels, with diagnostics.

The estimator stacks first-differenced equations (instrumented by lagged
levels, lags >= 2) on top of level equations (instrumented by lag-1 first
differences), weighting with the standard one-step H matrix: tridiagonal
(2 on the diagonal, -1 on the first off-diagonal) for the differenced
block, identity for the level block.  Instruments are collapsed (one
column per lag distance) to curb proliferation when the entity and period
counts are similar.

Diagnostics are computed inside the fit and stored on it, as xtabond2
reports them: Sargan over-identification test under the one-step weight,
Arellano-Bond AR(1)/AR(2) tests on the differenced residuals, and a
chi-square Wald test of joint significance.

Z'HZ and the normal matrix must pass `linear.full_rank_qr`, scaled by powers
of two on both sides; the inverses are taken of the unscaled matrices.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from ._common import is_integer, segment_ids, segment_starts
from ._dist import chi2_upper, normal_tail
from .dataset import PanelDataset
from .linear import TIME_DUMMY_PREFIX, WaldResult, full_rank_qr, wald_joint

__all__ = [
    "GmmSpec",
    "GmmFit",
    "SarganResult",
    "ArResult",
    "fit_system_gmm",
    "wald_joint",
]


@dataclass(frozen=True)
class GmmSpec:
    """Dynamic model: dependent on its own first lag plus regressors.

    instrument_lags gives the level-lag range used to instrument the
    differenced equations, either one (min, max) pair for every
    instrumented variable or a per-variable mapping whose keys are the
    dependent or regressors, an omitted one taking (2, 4); min must be >= 2.
    Instruments are collapsed: one column per (variable, lag distance).
    """

    dependent: str
    regressors: tuple[str, ...]
    instrument_lags: tuple[int, int] | Mapping[str, tuple[int, int]] = (2, 4)
    include_time_dummies: bool = False

    def __post_init__(self):
        object.__setattr__(self, "regressors", tuple(self.regressors))
        if self.dependent in self.regressors:
            raise ValueError(f"dependent {self.dependent!r} also appears as a regressor")
        if not isinstance(self.include_time_dummies, bool):
            raise ValueError("include_time_dummies must be a bool, "
                             f"got {self.include_time_dummies!r}")
        lags, problems = self.instrument_lags, []
        if isinstance(lags, Mapping):
            instrumented = [self.dependent, *self.regressors]
            if unknown := [var for var in lags if var not in instrumented]:
                problems.append(f"instrument_lags names {unknown}, which are not instrumented; "
                                f"its keys must be among {instrumented}")
            pairs = [(f"instrument_lags for {var!r}", pair) for var, pair in lags.items()]
        else:
            pairs = [("instrument_lags", lags)]
        for where, pair in pairs:
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and all(map(is_integer, pair))):
                problems.append(f"{where} must be a (min, max) pair of integers, got {pair!r}")
            elif pair[0] < 2:
                problems.append(f"{where}: min_lag must be >= 2, got {pair[0]}; levels dated "
                                "t-1 are not valid for the differenced equation")
            elif pair[1] < pair[0]:
                problems.append(f"{where}: max_lag {pair[1]} < min_lag {pair[0]}")
        if problems:
            raise ValueError("; ".join(problems))

    def lags_for(self, var: str) -> tuple[int, int]:
        if isinstance(self.instrument_lags, Mapping):
            return tuple(self.instrument_lags.get(var, (2, 4)))
        return tuple(self.instrument_lags)

    @property
    def lagdep_name(self) -> str:
        return f"{self.dependent}(t-1)"


@dataclass(frozen=True)
class SarganResult:
    statistic: float
    df: int
    p: float

    @property
    def applicable(self) -> bool:
        return self.df >= 1


@dataclass(frozen=True)
class ArResult:
    z: float
    p: float

    @property
    def applicable(self) -> bool:
        return not math.isnan(self.z)


@dataclass(frozen=True)
class GmmFit:
    """One-step System GMM estimate with instrument accounting.

    The Sargan, AR(1)/AR(2) and Wald results are computed in the fit, whose
    workspace is not kept; z_matrix holds the stacked instruments (diff
    block, then level block).  lagdep_stable is False when |rho| >= 1.
    """

    spec: GmmSpec
    coef_names: tuple[str, ...]
    coefficients: dict[str, float]
    covariance: np.ndarray
    instrument_count: int
    parameter_count: int
    instrument_names: tuple[str, ...]
    n_obs_diff: int
    n_obs_level: int
    n_entities: int
    sargan: SarganResult
    ar_tests: dict[int, ArResult]
    wald: WaldResult
    lagdep_stable: bool
    fingerprint: str
    z_matrix: np.ndarray


def fit_system_gmm(spec: GmmSpec, ds: PanelDataset) -> GmmFit:
    """Estimate the dynamic model by one-step System GMM."""
    fit = _fit_gmm(spec, ds, include_level=True)
    if fit.instrument_count >= fit.n_entities:
        warnings.warn(f"instrument proliferation: {fit.instrument_count} instruments with "
                      f"only {fit.n_entities} entities", stacklevel=2)
    return fit


def _fit_gmm(spec: GmmSpec, ds: PanelDataset, include_level: bool = True) -> GmmFit:
    # difference-only mode (include_level=False) is internal, used by the
    # test suite where the one-step weight is exactly efficient
    ds.require_columns([spec.dependent, *spec.regressors])
    dep, regs = spec.dependent, spec.regressors
    inst_vars = [dep, *regs]
    max_lag = max([2, *(spec.lags_for(v)[1] for v in inst_vars)])
    lag_idx = [ds.lag_rows(k) for k in range(max_lag + 1)]

    def at(name, k):
        """Column `name` at (e, t - k) for every row (e, t); NaN where absent."""
        return np.where(lag_idx[k] >= 0, ds.column(name)[lag_idx[k]], np.nan)

    def observed(names, k):
        ok = np.ones(ds.n_rows, dtype=bool)
        for name in names:
            ok &= ~np.isnan(at(name, k))
        return ok

    # a level row needs y(t), y(t-1) and x(t); a diff row also y(t-2), x(t-1)
    dep_two = observed([dep], 0) & observed([dep], 1)
    dep_three = dep_two & observed([dep], 2)
    regs_now = observed(regs, 0)
    d_idx = np.flatnonzero(dep_three & regs_now & observed(regs, 1))
    l_idx = np.flatnonzero(dep_two & regs_now) if include_level else d_idx[:0]
    if not d_idx.size:
        starts = segment_starts(ds.entity)
        usable = {ds.entity[a]: int(dep_three[a:b].sum())
                  for a, b in zip(starts[:-1], starts[1:])}
        raise ValueError("no entity contributes 3 consecutive usable periods; "
                         f"per-entity usable differenced periods: {usable}")

    n_d, n_l = len(d_idx), len(l_idx)
    d_year, l_year = ds.year[d_idx], ds.year[l_idx]
    years_used = sorted(set(d_year.tolist()) | set(l_year.tolist()))
    dummy_years = years_used[1:] if spec.include_time_dummies else []

    param_names = [spec.lagdep_name, *regs]
    param_names += [f"{TIME_DUMMY_PREFIX}{t}" for t in dummy_years]
    # columns shared by design and instruments: year dummies, differenced in
    # the diff block, and the constant of the level block
    shared = [np.concatenate([(d_year == s) - (d_year - 1 == s) * 1.0, (l_year == s) * 1.0])
              for s in dummy_years]
    shared_names = [f"iv:{TIME_DUMMY_PREFIX}{s}" for s in dummy_years]
    if include_level:
        param_names.append("const")
        shared.append(np.concatenate([np.zeros(n_d), np.ones(n_l)]))
        shared_names.append("iv:const")
    k = len(param_names)

    # stacked outcome and design: diff block first, then level block
    def stacked(name, lag):
        return np.concatenate([(at(name, lag) - at(name, lag + 1))[d_idx],
                               at(name, lag)[l_idx]])

    y_stack = stacked(dep, 0)
    x_stack = np.column_stack([stacked(dep, 1), *(stacked(r, 0) for r in regs), *shared])

    z_cols, z_names = _build_instruments(spec, at, d_idx, l_idx, inst_vars, include_level)
    z = np.column_stack(z_cols + shared)
    z_names = z_names + shared_names
    nonzero = np.any(z != 0.0, axis=0)
    z = z[:, nonzero]
    z_names = tuple(name for name, keep in zip(z_names, nonzero) if keep)
    n_inst = z.shape[1]
    if n_inst < k:
        raise ValueError(f"under-identified: {n_inst} instruments for {k} parameters "
                         f"(instruments: {list(z_names)})")

    # cluster of every stacked row: its entity, numbered 0, 1, ... over the
    # entities that have rows, so an entity's diff and level rows share one
    _, group, sizes = np.unique(segment_ids(ds.entity)[np.concatenate([d_idx, l_idx])],
                                return_inverse=True, return_counts=True)
    n_entities = len(sizes)
    # each entity's stacked rows: its diff rows, then its level rows
    entity_rows = np.split(np.argsort(group, kind="stable"), np.cumsum(sizes)[:-1])

    year_all = np.concatenate([d_year, l_year])

    # one-step weight: W = (sum_i Z_i' H_i Z_i)^-1, where H_i is 2 on the
    # diagonal and -1 between calendar-adjacent diff rows, identity on the
    # level rows
    s_zhz = np.zeros((n_inst, n_inst))
    for rows in entity_rows:
        diff = rows < n_d
        t = year_all[rows]
        adjacent = (np.abs(t[:, None] - t[None, :]) == 1) & diff[:, None] & diff[None, :]
        h = np.diag(np.where(diff, 2.0, 1.0)) - adjacent
        zi = z[rows]
        s_zhz += zi.T @ h @ zi

    _require_full_rank(s_zhz, z_names, "moment matrix Z'HZ")
    w_mat = np.linalg.inv(s_zhz)
    zx = z.T @ x_stack
    zy = z.T @ y_stack
    a_mat = zx.T @ w_mat @ zx
    _require_full_rank(a_mat, param_names, "GMM normal matrix")
    a_inv = np.linalg.inv(a_mat)
    theta = a_inv @ (zx.T @ (w_mat @ zy))

    u = y_stack - x_stack @ theta
    # clustered one-step sandwich: row g of scores is entity g's Z_g'u_g
    scores = np.column_stack([np.bincount(group, weights=col * u) for col in z.T])
    omega = scores.T @ scores
    cov = a_inv @ (zx.T @ w_mat @ omega @ w_mat @ zx) @ a_inv

    u_diff = u[:n_d]  # u[n_d:] is the level block, empty in difference-only mode
    sigma2 = (float(u_diff @ u_diff) / 2.0 + float(u[n_d:] @ u[n_d:])) / (n_d + n_l)

    # Sargan: u'Z W Z'u / sigma2 ~ chi2(n_inst - k); NaN marker when just identified
    df = n_inst - k
    sargan = SarganResult(math.nan, 0, math.nan)
    if df >= 1:
        g = z.T @ u
        stat = float(g @ w_mat @ g) / sigma2
        # an ill-conditioned Z'HZ can leave W indefinite and stat < 0: p = 1
        sargan = SarganResult(stat, df, chi2_upper(stat, df))

    # diff position of each dataset row; the extra last slot maps a missing lag (-1) to -1
    diff_pos = np.full(ds.n_rows + 1, -1)
    diff_pos[d_idx] = np.arange(n_d)
    ar = {m: _ar_test(u_diff, diff_pos[lag_idx[m][d_idx]], group[:n_d], scores,
                      x_stack[:n_d], a_inv, zx, w_mat, cov)
          for m in (1, 2)}

    coefficients = {name: float(b) for name, b in zip(param_names, theta)}
    fit = GmmFit(
        spec=spec,
        coef_names=tuple(param_names),
        coefficients=coefficients,
        covariance=cov,
        instrument_count=n_inst,
        parameter_count=k,
        instrument_names=z_names,
        n_obs_diff=n_d,
        n_obs_level=n_l,
        n_entities=n_entities,
        sargan=sargan,
        ar_tests=ar,
        wald=WaldResult(math.nan, 0, math.nan),
        lagdep_stable=abs(coefficients[spec.lagdep_name]) < 1.0,
        fingerprint=ds.fingerprint(),
        z_matrix=z,
    )
    return replace(fit, wald=wald_joint(fit, [n for n in param_names if n != "const"]))


def _build_instruments(spec, at, d_idx, l_idx, inst_vars, include_level):
    """Lagged-level columns for the diff block and lagged-difference columns
    for the level block, over the stacked rows.

    Missing history becomes a zero cell, which keeps the corresponding
    moment condition trivially valid.
    """
    zeros_d, zeros_l = np.zeros(len(d_idx)), np.zeros(len(l_idx))
    cols, names = [], []

    def add(name, diff_part, level_part):
        cols.append(np.concatenate([diff_part, level_part]))
        names.append(name)

    for v in inst_vars:
        lo, hi = spec.lags_for(v)
        for lag in range(lo, hi + 1):
            level = at(v, lag)[d_idx]
            add(f"diff:{v}(t-{lag})", np.where(np.isnan(level), 0.0, level), zeros_l)
    if include_level:
        for v in inst_vars:
            a, b = at(v, 1)[l_idx], at(v, 2)[l_idx]
            add(f"level:D.{v}(t-1)", zeros_d, np.where(np.isnan(a) | np.isnan(b), 0.0, a - b))
    return cols, names


def _require_full_rank(mat: np.ndarray, names: Sequence[str], what: str) -> None:
    """Rank decision on a symmetric `mat`, free of the units of the data: rows
    scaled by the powers of two nearest 1/sqrt(diag), columns by full_rank_qr."""
    full_rank_qr(np.ldexp(mat, -(np.frexp(np.diag(mat))[1] // 2)[:, None]), names, what)


def _ar_test(w, lagged, diff_group, scores, design_diff, a_inv, zx, w_mat, cov) -> ArResult:
    """Arellano-Bond test: standardized covariance of the differenced
    residuals w with their order-m partners at positions `lagged` (-1: none),
    accounting for estimation error in the coefficients (diff_group: the
    entity of each diff row; scores: row g holds entity g's Z_g'u_g).  Two-sided
    normal p; NaN marker when no pairs overlap."""
    if not (lagged >= 0).any():
        return ArResult(math.nan, math.nan)
    w_lag = np.where(lagged >= 0, w[lagged], 0.0)

    q = float(w_lag @ w)
    # a_g: entity g's sum of w_lag * w
    a = np.bincount(diff_group, weights=w_lag * w, minlength=len(scores))
    term1 = float(a @ a)
    m_vec = scores.T @ a

    c = design_diff.T @ w_lag
    term2 = -2.0 * float(c @ a_inv @ (zx.T @ (w_mat @ m_vec)))
    term3 = float(c @ cov @ c)
    var = term1 + term2 + term3
    if var <= 0.0:
        var = term1 + term3  # cross-term overshoot; fall back to the outer terms
    if var <= 0.0:
        return ArResult(math.nan, math.nan)
    z_stat = q / math.sqrt(var)
    return ArResult(z_stat, 2.0 * normal_tail(z_stat))
