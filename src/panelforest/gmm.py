"""One-step System GMM for dynamic panels, with diagnostics.

The estimator stacks first-differenced equations (instrumented by lagged
levels, lags >= 2) on top of level equations (instrumented by lag-1 first
differences), weighting with the standard one-step H matrix: tridiagonal
(2 on the diagonal, -1 on the first off-diagonal) for the differenced
block, identity for the level block.  Instruments are collapsed by default
(one column per lag distance) to curb proliferation when the entity and
period counts are similar.

Diagnostics: Sargan over-identification test under the one-step weight,
Arellano-Bond AR(1)/AR(2) tests on the differenced residuals, and a
chi-square Wald test of joint significance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy import linalg as sla
from scipy import stats as sps

from ._common import segment_starts
from .dataset import PanelDataset
from .linear import TIME_DUMMY_PREFIX, WaldResult, wald_joint

__all__ = [
    "GmmSpec",
    "GmmFit",
    "SarganResult",
    "ArResult",
    "fit_system_gmm",
    "sargan_test",
    "ar_test",
    "wald_joint",
]


@dataclass(frozen=True)
class GmmSpec:
    """Dynamic model: dependent on its own first lag plus regressors.

    instrument_lags gives the level-lag range used to instrument the
    differenced equations, either one (min, max) pair for every
    instrumented variable or a per-variable mapping; min must be >= 2.
    collapse=False expands instruments per period (GMM-style) instead of
    one column per lag distance.
    """

    dependent: str
    regressors: tuple[str, ...]
    lag_dependent: int = 1
    instrument_lags: tuple[int, int] | Mapping[str, tuple[int, int]] = (2, 4)
    include_time_dummies: bool = False
    collapse: bool = True

    def __post_init__(self):
        object.__setattr__(self, "regressors", tuple(self.regressors))
        if self.lag_dependent != 1:
            raise ValueError("only first-order dependent lags are supported")
        if self.dependent in self.regressors:
            raise ValueError(f"dependent {self.dependent!r} also appears as a regressor")
        for var, (lo, hi) in self._lag_items():
            if lo < 2:
                raise ValueError(f"instrument min_lag must be >= 2 (got {lo} for {var!r}); "
                                 "levels dated t-1 are not valid for the differenced equation")
            if hi < lo:
                raise ValueError(f"instrument max_lag < min_lag for {var!r}")

    def _lag_items(self):
        if isinstance(self.instrument_lags, Mapping):
            return list(self.instrument_lags.items())
        return [("*", tuple(self.instrument_lags))]

    def lags_for(self, var: str) -> tuple[int, int]:
        if isinstance(self.instrument_lags, Mapping):
            lo, hi = self.instrument_lags.get(var, (2, 4))
        else:
            lo, hi = self.instrument_lags
        return int(lo), int(hi)

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

    Diff-block context (design rows, instruments, weights, per-entity
    scores Z_g'u_g, diff-row bounds) lets the AR tests and Sargan statistic
    be recomputed from the fit alone.  lagdep_stable is False when |rho| >= 1.
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
    residuals_diff: np.ndarray
    residuals_level: np.ndarray
    diff_entity: np.ndarray
    diff_year: np.ndarray
    level_entity: np.ndarray
    level_year: np.ndarray
    sargan: SarganResult
    ar_tests: dict[int, ArResult]
    wald: WaldResult
    lagdep_stable: bool
    fingerprint: str
    # estimation context
    design_diff: np.ndarray
    z_matrix: np.ndarray
    zx: np.ndarray
    weight: np.ndarray
    a_inv: np.ndarray
    sigma2: float
    entity_scores: np.ndarray
    entity_diff_rows: np.ndarray

    @property
    def beta(self) -> np.ndarray:
        return np.array([self.coefficients[n] for n in self.coef_names])


def fit_system_gmm(spec: GmmSpec, ds: PanelDataset) -> GmmFit:
    """Estimate the dynamic model by one-step System GMM."""
    return _fit_gmm(spec, ds, include_level=True)


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

    z_cols, z_names = _build_instruments(spec, at, d_idx, l_idx, d_year, l_year,
                                         inst_vars, include_level)
    z = np.column_stack(z_cols + shared)
    z_names = z_names + shared_names
    nonzero = np.any(z != 0.0, axis=0)
    z = z[:, nonzero]
    z_names = tuple(name for name, keep in zip(z_names, nonzero) if keep)
    n_inst = z.shape[1]
    if n_inst < k:
        raise ValueError(f"under-identified: {n_inst} instruments for {k} parameters "
                         f"(instruments: {list(z_names)})")

    diff_entity, level_entity = ds.entity[d_idx], ds.entity[l_idx]
    bounds = _entity_bounds(diff_entity, level_entity)
    entity_rows = [np.concatenate([np.arange(a, b), np.arange(c, d)])
                   for a, b, c, d in bounds]
    n_entities = len(entity_rows)
    if n_inst >= n_entities:
        warnings.warn(f"instrument proliferation: {n_inst} instruments with only "
                      f"{n_entities} entities", stacklevel=2)

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

    w_mat = _safe_inverse(s_zhz, z_names, "moment matrix Z'HZ")
    zx = z.T @ x_stack
    zy = z.T @ y_stack
    a_mat = zx.T @ w_mat @ zx
    a_inv = _safe_inverse(a_mat, param_names, "GMM normal matrix")
    theta = a_inv @ (zx.T @ (w_mat @ zy))

    u = y_stack - x_stack @ theta
    # clustered one-step sandwich
    scores = np.array([z[rows].T @ u[rows] for rows in entity_rows])
    omega = np.zeros((n_inst, n_inst))
    for s_i in scores:
        omega += np.outer(s_i, s_i)
    cov = a_inv @ (zx.T @ w_mat @ omega @ w_mat @ zx) @ a_inv

    u_diff, u_level = u[:n_d], u[n_d:]
    if include_level:
        sigma2 = (float(u_diff @ u_diff) / 2.0 + float(u_level @ u_level)) / (n_d + n_l)
    else:
        sigma2 = float(u_diff @ u_diff) / (2.0 * n_d)

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
        residuals_diff=u_diff,
        residuals_level=u_level,
        diff_entity=diff_entity,
        diff_year=d_year,
        level_entity=level_entity,
        level_year=l_year,
        sargan=SarganResult(math.nan, 0, math.nan),
        ar_tests={},
        wald=WaldResult(math.nan, 0, math.nan),
        lagdep_stable=abs(coefficients[spec.lagdep_name]) < 1.0,
        fingerprint=ds.fingerprint(),
        design_diff=x_stack[:n_d],
        z_matrix=z,
        zx=zx,
        weight=w_mat,
        a_inv=a_inv,
        sigma2=sigma2,
        entity_scores=scores,
        entity_diff_rows=bounds[:, :2],
    )
    sargan = sargan_test(fit)
    ar = {1: ar_test(fit, 1), 2: ar_test(fit, 2)}
    joint = [n for n in param_names if n != "const"]
    wald = wald_joint(fit, joint)
    object.__setattr__(fit, "sargan", sargan)
    object.__setattr__(fit, "ar_tests", ar)
    object.__setattr__(fit, "wald", wald)
    return fit


def _build_instruments(spec, at, d_idx, l_idx, d_year, l_year, inst_vars, include_level):
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
        history = {}
        for lag in range(lo, hi + 1):
            level = at(v, lag)[d_idx]
            history[lag] = np.where(np.isnan(level), 0.0, level)
        if spec.collapse:
            for lag, col in history.items():
                add(f"diff:{v}(t-{lag})", col, zeros_l)
        else:
            for t0 in np.unique(d_year).tolist():
                for lag, col in history.items():
                    add(f"diff:{v}(t-{lag})@{t0}", np.where(d_year == t0, col, 0.0), zeros_l)
    if include_level:
        for v in inst_vars:
            a, b = at(v, 1)[l_idx], at(v, 2)[l_idx]
            change = np.where(np.isnan(a) | np.isnan(b), 0.0, a - b)
            if spec.collapse:
                add(f"level:D.{v}(t-1)", zeros_d, change)
            else:
                for t0 in np.unique(l_year).tolist():
                    add(f"level:D.{v}(t-1)@{t0}", zeros_d, np.where(l_year == t0, change, 0.0))
    return cols, names


def _entity_bounds(diff_entity: np.ndarray, level_entity: np.ndarray) -> np.ndarray:
    """Stacked-row bounds (diff start, diff end, level start, level end) of
    each entity, in code order: its rows of the sorted diff block, then its
    rows of the sorted level block."""
    heads = [block[segment_starts(block)[:-1]] for block in (diff_entity, level_entity)]
    codes = np.unique(np.concatenate(heads))
    n_d = len(diff_entity)
    d0, d1 = (np.searchsorted(diff_entity, codes, side=s) for s in ("left", "right"))
    l0, l1 = (n_d + np.searchsorted(level_entity, codes, side=s) for s in ("left", "right"))
    return np.column_stack([d0, d1, l0, l1])


def _safe_inverse(mat: np.ndarray, names: Sequence[str], what: str) -> np.ndarray:
    """Invert, or raise naming the columns that make `mat` singular."""
    try:
        cond = np.linalg.cond(mat)
    except np.linalg.LinAlgError:
        cond = math.inf
    if not math.isfinite(cond) or cond > 1e12:
        _, r, perm = sla.qr(mat, mode="economic", pivoting=True)
        r = np.abs(np.diag(r))
        tol = (r[0] if r.size else 0.0) * len(names) * 1e-12
        rank = int((r > tol).sum())
        bad = sorted(str(names[i]) for i in perm[rank:])
        raise ValueError(f"singular {what}; deficient columns: {bad}")
    return np.linalg.inv(mat)


def sargan_test(fit: GmmFit) -> SarganResult:
    """Over-identification test under the one-step weight.

    S = u'Z (Z'HZ)^-1 Z'u / sigma2 ~ chi-square(instruments - parameters).
    A just-identified model gets the inapplicable marker (df=0, NaN).
    """
    df = fit.instrument_count - fit.parameter_count
    if df < 1:
        return SarganResult(math.nan, 0, math.nan)
    u = np.concatenate([fit.residuals_diff, fit.residuals_level])
    g = fit.z_matrix.T @ u
    stat = float(g @ fit.weight @ g) / fit.sigma2
    return SarganResult(stat, df, float(sps.chi2.sf(stat, df)))


def ar_test(fit: GmmFit, order: int) -> ArResult:
    """Arellano-Bond test for order-m serial correlation in Du.

    Standardized covariance of the differenced residuals with their
    calendar lag-m values, accounting for estimation error in the
    coefficients; two-sided normal p.  NaN marker when no residual pairs
    overlap at distance `order`.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    w = fit.residuals_diff
    lagged = PanelDataset(fit.diff_entity, fit.diff_year, {}).lag_rows(order)
    if not (lagged >= 0).any():
        return ArResult(math.nan, math.nan)
    w_lag = np.where(lagged >= 0, w[lagged], 0.0)

    q = float(w_lag @ w)
    term1 = 0.0
    m_vec = np.zeros(fit.instrument_count)
    for (a, b), s_i in zip(fit.entity_diff_rows, fit.entity_scores):
        a_i = float(w_lag[a:b] @ w[a:b])
        term1 += a_i * a_i
        m_vec += s_i * a_i

    c = fit.design_diff.T @ w_lag
    term2 = -2.0 * float(c @ fit.a_inv @ (fit.zx.T @ (fit.weight @ m_vec)))
    term3 = float(c @ fit.covariance @ c)
    var = term1 + term2 + term3
    if var <= 0.0:
        var = term1 + term3  # cross-term overshoot; fall back to the outer terms
    if var <= 0.0:
        return ArResult(math.nan, math.nan)
    z_stat = q / math.sqrt(var)
    return ArResult(z_stat, 2.0 * float(sps.norm.sf(abs(z_stat))))
