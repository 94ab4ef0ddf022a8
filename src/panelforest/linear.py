"""Static panel regressions: pooled OLS, fixed effects, random effects.

Fixed effects use the within (entity-demeaning) transformation, which is
numerically equal to entity-dummy LSDV for the slopes; random effects use
Swamy-Arora feasible GLS.  Listwise deletion over the model's variables
defines the estimation sample.  Covariances start classical and can be
swapped for the entity-clustered (Arellano) sandwich.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy import linalg as sla
from scipy import stats as sps

from ._common import segment_ids, segment_starts, star_code
from .dataset import PanelDataset

__all__ = [
    "ModelSpec",
    "LinearFit",
    "FitMetrics",
    "TTest",
    "WaldResult",
    "HausmanResult",
    "fit",
    "robust_covariance",
    "t_tests",
    "wald_joint",
    "hausman",
    "fit_metrics",
]

TIME_DUMMY_PREFIX = "year_"


@dataclass(frozen=True)
class ModelSpec:
    """What to regress on what, and which effects structure to use."""

    dependent: str
    regressors: tuple[str, ...]
    controls: tuple[str, ...] = ()
    include_time_dummies: bool = False
    effects: str = "fixed"  # {"pooled", "fixed", "random"}

    def __post_init__(self):
        object.__setattr__(self, "regressors", tuple(self.regressors))
        object.__setattr__(self, "controls", tuple(self.controls))
        if self.effects not in {"pooled", "fixed", "random"}:
            raise ValueError(f"unknown effects {self.effects!r}")
        slopes = self.regressors + self.controls
        if self.dependent in slopes:
            raise ValueError(f"dependent {self.dependent!r} also appears as a regressor")
        if len(set(slopes)) != len(slopes):
            dupes = sorted({n for n in slopes if slopes.count(n) > 1})
            raise ValueError(f"duplicate regressor names: {dupes}")

    @property
    def slopes(self) -> tuple[str, ...]:
        return self.regressors + self.controls


@dataclass(frozen=True)
class FitMetrics:
    r_squared: float
    adj_r_squared: float
    f_statistic: float
    f_pvalue: float


@dataclass(frozen=True)
class LinearFit:
    """Fitted panel regression.

    `covariance` rows/columns follow `coef_names`; `cov_method` is
    "classical" or "arellano_cluster".  Residuals are keyed by row via
    (row_entity, row_year).  The transformed design matrix is retained so
    cluster-robust covariances and specification tests can be computed
    without refitting.
    """

    spec: ModelSpec
    coef_names: tuple[str, ...]
    coefficients: dict[str, float]
    covariance: np.ndarray
    cov_method: str
    n_obs: int
    n_entities: int
    df_residual: int
    residuals: np.ndarray
    row_entity: np.ndarray
    row_year: np.ndarray
    metrics: FitMetrics
    design: np.ndarray
    fingerprint: str

    @property
    def beta(self) -> np.ndarray:
        return np.array([self.coefficients[n] for n in self.coef_names])

    def se(self, name: str) -> float:
        i = self.coef_names.index(name)
        return math.sqrt(max(self.covariance[i, i], 0.0))


def _check_rank(X: np.ndarray, names: Sequence[str]) -> None:
    if X.shape[0] < X.shape[1]:
        raise ValueError(f"{X.shape[0]} observations cannot identify {X.shape[1]} parameters")
    _, r_diag, perm = sla.qr(X, mode="economic", pivoting=True)[0:3]
    r = np.abs(np.diag(r_diag))
    tol = r[0] * max(X.shape) * np.finfo(float).eps if r.size and r[0] > 0 else 0.0
    rank = int((r > tol).sum())
    if rank < X.shape[1]:
        bad = sorted(names[i] for i in perm[rank:])
        raise ValueError(f"design matrix is rank deficient; collinear columns: {bad}")


def _ols(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    return beta, y - X @ beta


def _build_design(spec: ModelSpec, ds: PanelDataset) -> tuple:
    names = [spec.dependent, *spec.slopes]
    mask = ds.complete_rows(names)
    n = int(mask.sum())
    if n == 0:
        raise ValueError("no complete observations after listwise deletion")
    y = ds.column(spec.dependent)[mask]
    cols = [ds.column(v)[mask] for v in spec.slopes]
    col_names = list(spec.slopes)
    entity = ds.entity[mask]
    year = ds.year[mask]
    if spec.include_time_dummies:
        years = np.unique(year)
        for t in years[1:]:  # first year is the omitted base
            cols.append((year == t).astype(np.float64))
            col_names.append(f"{TIME_DUMMY_PREFIX}{int(t)}")
    if not cols:
        raise ValueError("model has no regressors")
    return y, np.column_stack(cols), col_names, entity, year


def _entity_means(values: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Per-row entity mean of `values` (1-d or 2-d); `inverse` numbers the
    entity of each row."""
    if values.ndim == 2:
        return np.column_stack([_entity_means(column, inverse) for column in values.T])
    counts = np.bincount(inverse).astype(np.float64)
    return (np.bincount(inverse, weights=values) / counts)[inverse]


def fit(spec: ModelSpec, ds: PanelDataset) -> LinearFit:
    """Estimate `spec` on `ds`.

    effects="fixed" demeans within entities (slopes equal entity-dummy
    LSDV); effects="random" is Swamy-Arora feasible GLS; effects="pooled"
    is OLS with an intercept.  Raises on rank deficiency (naming the
    collinear columns) and on too few observations (with counts).
    """
    ds.require_columns([spec.dependent, *spec.slopes])
    y, X, col_names, entity, year = _build_design(spec, ds)
    n = len(y)
    groups = segment_ids(entity)  # fit rows keep the dataset's sorted order
    n_entities = int(groups[-1]) + 1

    if spec.effects == "fixed":
        y_t = y - _entity_means(y, groups)
        X_t = X - _entity_means(X, groups)
        names_t = list(col_names)
        df_resid = n - n_entities - len(names_t)
    elif spec.effects == "pooled":
        X_t = np.column_stack([np.ones(n), X])
        names_t = ["const", *col_names]
        y_t = y
        df_resid = n - len(names_t)
    else:
        y_t, X_t, names_t = _random_effects_transform(y, X, col_names, groups)
        df_resid = n - len(names_t)

    if df_resid <= 0:
        raise ValueError(
            f"insufficient observations: n={n}, entities={n_entities}, "
            f"parameters={len(names_t)} leave df_residual={df_resid}")
    _check_rank(X_t, names_t)

    beta, resid = _ols(X_t, y_t)
    sigma2 = float(resid @ resid) / df_resid
    xtx_inv = np.linalg.inv(X_t.T @ X_t)
    cov = sigma2 * xtx_inv

    k_slopes = len(names_t) - (1 if "const" in names_t else 0)
    rss = float(resid @ resid)
    tss = float(np.sum((y_t - np.mean(y_t)) ** 2))
    metrics = _metrics_from(rss, tss, n, k_slopes)

    return LinearFit(
        spec=spec,
        coef_names=tuple(names_t),
        coefficients={name: float(b) for name, b in zip(names_t, beta)},
        covariance=cov,
        cov_method="classical",
        n_obs=n,
        n_entities=n_entities,
        df_residual=df_resid,
        residuals=resid,
        row_entity=entity,
        row_year=year,
        metrics=metrics,
        design=X_t,
        fingerprint=ds.fingerprint(),
    )


def _random_effects_transform(y, X, col_names, inverse):
    """Swamy-Arora quasi-demeaning; returns transformed (y, X, names).
    `inverse` numbers the entity of each row."""
    t_i = np.bincount(inverse).astype(np.float64)
    n, big_n = len(y), len(t_i)

    # within step for the idiosyncratic variance
    y_w = y - _entity_means(y, inverse)
    x_w = X - _entity_means(X, inverse)
    k = X.shape[1]
    df_within = n - big_n - k
    if df_within <= 0:
        raise ValueError(f"too few observations for random effects: n={n}, "
                         f"entities={big_n}, slopes={k}")
    _, resid_w = _ols(x_w, y_w)
    sigma2_e = float(resid_w @ resid_w) / df_within

    # between step for the entity-effect variance
    y_bar = np.bincount(inverse, weights=y) / t_i
    x_bar = np.column_stack([np.ones(big_n)] +
                            [np.bincount(inverse, weights=X[:, j]) / t_i for j in range(k)])
    beta_b, *_ = np.linalg.lstsq(x_bar, y_bar, rcond=None)
    resid_b = y_bar - x_bar @ beta_b
    rank_b = np.linalg.matrix_rank(x_bar)
    df_between = big_n - rank_b
    if df_between <= 0:
        raise ValueError(f"too few entities ({big_n}) for the between step")
    sigma2_b = float(resid_b @ resid_b) / df_between
    sigma2_eta = max(0.0, sigma2_b - sigma2_e * float(np.mean(1.0 / t_i)))

    theta = 1.0 - np.sqrt(sigma2_e / (sigma2_e + t_i * sigma2_eta))
    theta_row = theta[inverse]
    y_t = y - theta_row * _entity_means(y, inverse)
    x_t = X - theta_row[:, None] * _entity_means(X, inverse)
    const = 1.0 - theta_row
    return y_t, np.column_stack([const, x_t]), ["const", *col_names]


def _metrics_from(rss: float, tss: float, n: int, k: int) -> FitMetrics:
    if tss <= 0.0:
        return FitMetrics(math.nan, math.nan, math.nan, math.nan)
    r2 = 1.0 - rss / tss
    if k < 1 or n - k - 1 <= 0:
        return FitMetrics(r2, math.nan, math.nan, math.nan)
    adj = 1.0 - (1.0 - r2) * (n - 1) / (n - k - 1)
    if r2 >= 1.0:
        return FitMetrics(r2, adj, math.inf, 0.0)
    f = (r2 / k) / ((1.0 - r2) / (n - k - 1))
    return FitMetrics(r2, adj, f, float(sps.f.sf(f, k, n - k - 1)))


def fit_metrics(fit_: LinearFit) -> FitMetrics:
    """Fit quality computed at estimation time (returned as-is)."""
    return fit_.metrics


def robust_covariance(fit_: LinearFit, ds: PanelDataset | None = None,
                      small_sample: bool = True) -> LinearFit:
    """Replace the covariance with the entity-clustered sandwich.

    (X'X)^-1 (sum_i X_i' u_i u_i' X_i) (X'X)^-1, clustered on entities,
    scaled by G/(G-1) * (n-1)/(n-k) when small_sample is set.  With all
    singleton clusters and small_sample=False this is exactly the HC0
    heteroskedasticity-robust covariance.  `ds`, when given, must be the
    dataset the fit came from.
    """
    if ds is not None and ds.fingerprint() != fit_.fingerprint:
        raise ValueError("dataset does not match the one this fit was estimated on")
    if fit_.n_entities < 2:
        raise ValueError("clustering is undefined with a single entity")
    X, resid = fit_.design, fit_.residuals
    n, k = X.shape
    xtx_inv = np.linalg.inv(X.T @ X)
    meat = np.zeros((k, k))
    # fit rows keep the dataset's (entity, year) order: clusters are contiguous
    starts = segment_starts(fit_.row_entity)
    for a, b in zip(starts[:-1], starts[1:]):
        xu = X[a:b].T @ resid[a:b]
        meat += np.outer(xu, xu)
    cov = xtx_inv @ meat @ xtx_inv
    if small_sample:
        g = fit_.n_entities
        cov = cov * (g / (g - 1)) * ((n - 1) / (n - k))
    return replace(fit_, covariance=cov, cov_method="arellano_cluster")


@dataclass(frozen=True)
class TTest:
    estimate: float
    se: float
    t: float
    p: float
    stars: str


def t_tests(fit_: LinearFit) -> dict[str, TTest]:
    """Per-coefficient t-tests against zero, two-sided, df = df_residual.

    A zero standard error yields NaN t/p markers rather than an error.
    """
    out = {}
    for i, name in enumerate(fit_.coef_names):
        est = fit_.coefficients[name]
        var = fit_.covariance[i, i]
        se = math.sqrt(var) if var > 0 else 0.0
        if se == 0.0:
            out[name] = TTest(est, 0.0, math.nan, math.nan, "")
            continue
        t = est / se
        p = 2.0 * float(sps.t.sf(abs(t), fit_.df_residual))
        out[name] = TTest(est, se, t, p, star_code(p))
    return out


@dataclass(frozen=True)
class WaldResult:
    statistic: float
    df: int
    p: float


def wald_joint(fit_, subset: Sequence[str]) -> WaldResult:
    """Chi-square Wald test that all coefficients in `subset` are zero.

    Takes any fit with `coef_names`, `coefficients` and `covariance`: a
    linear fit or a System GMM fit.
    """
    subset = list(subset)
    missing = [s for s in subset if s not in fit_.coef_names]
    if missing:
        raise KeyError(f"coefficients not in fit: {missing}")
    idx = [fit_.coef_names.index(s) for s in subset]
    b = np.array([fit_.coefficients[s] for s in subset])
    v = fit_.covariance[np.ix_(idx, idx)]
    try:
        w = float(b @ np.linalg.solve(v, b))
    except np.linalg.LinAlgError:
        raise ValueError(f"singular covariance block for subset {subset}") from None
    if not math.isfinite(w):
        raise ValueError(f"singular covariance block for subset {subset}")
    return WaldResult(w, len(subset), float(sps.chi2.sf(w, len(subset))))


@dataclass(frozen=True)
class HausmanResult:
    statistic: float
    df: int
    p: float
    preferred: str
    nonpsd: bool


def hausman(fe: LinearFit, re: LinearFit) -> HausmanResult:
    """Fixed-vs-random specification test over the common slopes.

    H = (b_FE - b_RE)' (V_FE - V_RE)^+ (b_FE - b_RE), chi-square with one
    df per common slope; `preferred` is "fixed" when p < 0.05.  A
    non-positive-semidefinite variance difference is handled with the
    pseudo-inverse and flagged via nonpsd.
    """
    if fe.spec.effects != "fixed" or re.spec.effects != "random":
        raise ValueError("hausman expects (fixed fit, random fit)")
    if fe.spec.slopes != re.spec.slopes:
        raise ValueError("fits do not share a model specification")
    common = [n for n in fe.coef_names
              if n in re.coef_names and n != "const"
              and not n.startswith(TIME_DUMMY_PREFIX)]
    if not common:
        raise ValueError("no common time-varying slopes to compare")
    i_fe = [fe.coef_names.index(n) for n in common]
    i_re = [re.coef_names.index(n) for n in common]
    diff = fe.beta[i_fe] - re.beta[i_re]
    v = fe.covariance[np.ix_(i_fe, i_fe)] - re.covariance[np.ix_(i_re, i_re)]
    eig = np.linalg.eigvalsh(v)
    scale = max(1.0, float(np.abs(eig).max()))
    nonpsd = bool(eig.min() < -1e-10 * scale)
    h = max(0.0, float(diff @ np.linalg.pinv(v) @ diff))
    df = len(common)
    return HausmanResult(h, df, float(sps.chi2.sf(h, df)),
                         "fixed" if sps.chi2.sf(h, df) < 0.05 else "random", nonpsd)
