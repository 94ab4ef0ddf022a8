"""Static panel regressions: pooled OLS, fixed effects, random effects.

Fixed effects use the within (entity-demeaning) transformation, which is
numerically equal to entity-dummy LSDV for the slopes; random effects use
Swamy-Arora feasible GLS.  Listwise deletion over the model's variables
defines the estimation sample.  Covariances start classical and can be
swapped for the entity-clustered (Arellano) sandwich.

Every rank decision and solve goes through `full_rank_qr`: one pivoted QR
with the columns scaled exactly by powers of two and one rank tolerance, so
a change of units by 2^k changes no t, p or Hausman statistic.  The scales
come from the design before the within or quasi-demeaning transform, so a
column the transform wipes out is found however its rounding noise looks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ._common import segment_ids, segment_starts, star_code
from ._dist import chi2_upper, f_upper, t_two_sided
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
        if not isinstance(self.include_time_dummies, bool):
            raise ValueError(f"include_time_dummies must be a bool, "
                             f"got {self.include_time_dummies!r}")
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
    "classical" or "arellano_cluster".  row_entity is the entity of each
    residual row.  The transformed design matrix is retained so
    cluster-robust covariances and specification tests can be computed
    without refitting; design_scale holds the power-of-two column scales
    of the untransformed design that its rank decision uses.
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
    metrics: FitMetrics
    design: np.ndarray
    design_scale: np.ndarray
    fingerprint: str

    @property
    def beta(self) -> np.ndarray:
        return np.array([self.coefficients[n] for n in self.coef_names])

    def se(self, name: str) -> float:
        i = self.coef_names.index(name)
        return math.sqrt(max(self.covariance[i, i], 0.0))


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
    if spec.include_time_dummies:
        year = ds.year[mask]
        years = np.unique(year)
        for t in years[1:]:  # first year is the omitted base
            cols.append((year == t).astype(np.float64))
            col_names.append(f"{TIME_DUMMY_PREFIX}{int(t)}")
    if not cols:
        raise ValueError("model has no regressors")
    return y, np.column_stack(cols), col_names, entity


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
    y, X, col_names, entity = _build_design(spec, ds)
    n = len(y)
    groups = segment_ids(entity)  # fit rows keep the dataset's sorted order
    n_entities = int(groups[-1]) + 1

    # scales of the constant and the slopes before any transform
    scale = _unit_scales(np.r_[math.sqrt(n), np.linalg.norm(X, axis=0)])
    if spec.effects == "fixed":
        y_t = y - _entity_means(y, groups)
        X_t = X - _entity_means(X, groups)
        names_t = list(col_names)
        scale = scale[1:]
    elif spec.effects == "pooled":
        X_t = np.column_stack([np.ones(n), X])
        names_t = ["const", *col_names]
        y_t = y
    else:
        y_t, X_t, names_t = _random_effects_transform(y, X, col_names, groups, scale)
    # the within transformation uses one degree of freedom per entity
    df_resid = n - len(names_t) - (n_entities if spec.effects == "fixed" else 0)
    if df_resid <= 0:
        raise ValueError(
            f"insufficient observations: n={n}, entities={n_entities}, "
            f"parameters={len(names_t)} leave df_residual={df_resid}")
    q, t = full_rank_qr(X_t, names_t, scale=scale)
    qy = q.T @ y_t
    resid = y_t - q @ qy
    rss = float(resid @ resid)
    cov = rss / df_resid * (t @ t.T)

    k_slopes = len(names_t) - (1 if "const" in names_t else 0)
    tss = float(np.sum((y_t - np.mean(y_t)) ** 2))
    metrics = _metrics_from(rss, tss, n, k_slopes)

    return LinearFit(
        spec=spec,
        coef_names=tuple(names_t),
        coefficients={name: float(b) for name, b in zip(names_t, t @ qy)},
        covariance=cov,
        cov_method="classical",
        n_obs=n,
        n_entities=n_entities,
        df_residual=df_resid,
        residuals=resid,
        row_entity=entity,
        metrics=metrics,
        design=X_t,
        design_scale=scale,
        fingerprint=ds.fingerprint(),
    )


def _random_effects_transform(y, X, col_names, inverse, scale):
    """Swamy-Arora quasi-demeaning; returns transformed (y, X, names).
    `inverse` numbers the entity of each row; `scale` holds the column
    scales of the untransformed (const, X)."""
    t_i = np.bincount(inverse).astype(np.float64)
    big_n = len(t_i)
    sigma2_e = _within_variance(y, X, inverse)

    # between step for the entity-effect variance
    y_bar = np.bincount(inverse, weights=y) / t_i
    x_bar = np.column_stack([np.ones(big_n)] +
                            [np.bincount(inverse, weights=column) / t_i for column in X.T])
    q_b = _pivoted_qr(x_bar, scale)[0]  # rank deficient with time dummies on a balanced panel
    resid_b = y_bar - q_b @ (q_b.T @ y_bar)
    df_between = big_n - q_b.shape[1]
    if df_between <= 0:
        raise ValueError(f"too few entities ({big_n}) for the between step")
    sigma2_b = float(resid_b @ resid_b) / df_between
    sigma2_eta = max(0.0, sigma2_b - sigma2_e * float(np.mean(1.0 / t_i)))

    theta = 1.0 - np.sqrt(sigma2_e / (sigma2_e + t_i * sigma2_eta))
    theta_row = theta[inverse]
    y_t = y - theta_row * y_bar[inverse]
    x_t = X - theta_row[:, None] * x_bar[inverse, 1:]
    const = 1.0 - theta_row
    return y_t, np.column_stack([const, x_t]), ["const", *col_names]


def _within_variance(y, X, inverse):
    """Idiosyncratic variance from the within regression.  Its degrees of
    freedom count the slopes the within transform leaves identified, so a
    time-invariant regressor drops out of it as from the FE fit."""
    n, big_n = len(y), int(inverse[-1]) + 1
    y_w = y - _entity_means(y, inverse)
    scale = _unit_scales(np.linalg.norm(X, axis=0))  # of X before demeaning
    q_w = _pivoted_qr(X - _entity_means(X, inverse), scale)[0]
    df_within = n - big_n - q_w.shape[1]
    if df_within <= 0:
        raise ValueError(f"too few observations for random effects: n={n}, "
                         f"entities={big_n}, slopes={q_w.shape[1]}")
    resid_w = y_w - q_w @ (q_w.T @ y_w)
    return float(resid_w @ resid_w) / df_within


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
    # r2 < 0 gives f < 0, below the F support: p = 1
    return FitMetrics(r2, adj, f, f_upper(f, k, n - k - 1))


def robust_covariance(fit_: LinearFit, small_sample: bool = True) -> LinearFit:
    """Replace the covariance with the entity-clustered sandwich.

    (X'X)^-1 (sum_i X_i' u_i u_i' X_i) (X'X)^-1, clustered on entities,
    scaled by G/(G-1) * (n-1)/(n-k) when small_sample is set.  With all
    singleton clusters and small_sample=False this is exactly the HC0
    heteroskedasticity-robust covariance.  It reads only the fit: its
    design, residuals and entity of each row.
    """
    if fit_.n_entities < 2:
        raise ValueError("clustering is undefined with a single entity")
    # with X t = q, the sandwich is t (sum_i q_i' u_i u_i' q_i) t'
    q, t = full_rank_qr(fit_.design, fit_.coef_names, scale=fit_.design_scale)
    n, k = q.shape
    # fit rows keep the dataset's (entity, year) order: clusters are contiguous
    qu = np.add.reduceat(q * fit_.residuals[:, None], segment_starts(fit_.row_entity)[:-1])
    cov = t @ (qu.T @ qu) @ t.T
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
        p = t_two_sided(t, fit_.df_residual)
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
    linear fit or a System GMM fit.  The block is solved standardized by
    its standard errors, as in `hausman`, so the units of the coefficients
    do not steer the solve.
    """
    subset = list(subset)
    missing = [s for s in subset if s not in fit_.coef_names]
    if missing:
        raise KeyError(f"coefficients not in fit: {missing}")
    idx = [fit_.coef_names.index(s) for s in subset]
    se = np.sqrt(np.abs(np.diag(fit_.covariance)[idx]))
    se[se == 0.0] = 1.0
    b = np.array([fit_.coefficients[s] for s in subset]) / se
    v = fit_.covariance[np.ix_(idx, idx)] / np.outer(se, se)
    try:
        w = float(b @ np.linalg.solve(v, b))
    except np.linalg.LinAlgError:
        raise ValueError(f"singular covariance block for subset {subset}") from None
    if not math.isfinite(w):
        raise ValueError(f"singular covariance block for subset {subset}")
    # an indefinite covariance block can give w < 0: p = 1
    return WaldResult(w, len(subset), chi2_upper(w, len(subset)))


# Every column is divided by a power of two (exact) that brings the norm of
# its untransformed version into [1/2, 1); a column whose pivoted |R_jj| is
# then at most RANK_RTOL is collinear with the columns pivoted before it, or
# was wiped out by the transform.
RANK_RTOL = 1e-12


def _unit_scales(norms) -> np.ndarray:
    """The reciprocals of the powers of two just above `norms`."""
    return np.ldexp(1.0, -np.frexp(norms)[1])


def _pivoted_qr(a: np.ndarray, scale: np.ndarray) -> tuple:
    """Pivoted QR of `a * scale`: (q, r) cut to the numerical rank, and the
    pivot order.

    Pivots as LAPACK's xGEQP3 does: step j takes the column of largest
    remaining norm, the first in the current order on a tie, and swaps it
    with column j.  The tall part is one unpivoted QR, a * scale = q1 r1;
    Householder QR with column pivoting (Businger & Golub 1965) then factors
    the small r1.  Columns equal in `a * scale` are made equal in r1, as they
    are in exact arithmetic, and the pivoted steps put every column through
    the same elementwise operations and sums, so equal columns tie."""
    w = a * scale
    q1, r1 = np.linalg.qr(w)
    first: dict = {}  # each column's first bit-for-bit equal column
    w = r1[:, [first.setdefault(col.tobytes(), j) for j, col in enumerate(w.T.copy())]]
    m, k = w.shape
    perm = np.arange(k)
    reflectors = []
    for j in range(m):
        rest = w[j:, j:]
        p = j + int(np.argmax((rest * rest).sum(axis=0)))
        w[:, [j, p]] = w[:, [p, j]]
        perm[[j, p]] = perm[[p, j]]
        v, tau = w[j:, j].copy(), 0.0  # tau = 0: nothing below the diagonal, H = I
        if v[1:].any():
            alpha = v[0]
            beta = -math.copysign(math.sqrt(v @ v), alpha)
            v[0] = alpha - beta
            v /= v[0]
            tau = (beta - alpha) / beta
            trail = w[j:, j + 1:]
            trail -= v[:, None] * (tau * (v[:, None] * trail).sum(axis=0))
            w[j, j], w[j + 1:, j] = beta, 0.0
        reflectors.append((v, tau))
    rank = int(np.count_nonzero(np.abs(np.diag(w)) > RANK_RTOL))
    q = np.eye(m, rank)
    for j in reversed(range(rank)):
        v, tau = reflectors[j]
        q[j:] -= np.outer(tau * v, v @ q[j:])
    return q1 @ q, np.triu(w[:rank]), perm


def full_rank_qr(a: np.ndarray, names: Sequence[str], what: str = "design matrix",
                 scale: np.ndarray | None = None) -> tuple:
    """Orthonormal basis q of the columns of `a` and the matrix t with
    a @ t = q: least squares gives beta = t @ q'y and (a'a)^-1 = t @ t'.
    `scale` holds the column scales, by default those of `a` itself; when
    `a` is a transformed design, pass the scales of the untransformed one.
    Rescaling a column by a power of two rescales its row of t exactly.
    Raises naming the collinear columns unless `a` has full column rank."""
    if scale is None:
        scale = _unit_scales(np.linalg.norm(a, axis=0))
    q, r, perm = _pivoted_qr(a, scale)
    if len(r) < a.shape[1]:
        bad = sorted(str(names[i]) for i in perm[len(r):])
        raise ValueError(f"{what} is rank deficient; collinear columns: {bad}")
    t = np.empty_like(r)
    t[perm] = np.linalg.inv(r)
    return q, t * scale[:, None]


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
    # standardized by the FE standard errors, so that eigvalsh and pinv see
    # the same matrix whatever the units of the slopes
    se = np.sqrt(np.diag(fe.covariance)[i_fe])
    se[se == 0.0] = 1.0
    diff = (fe.beta[i_fe] - re.beta[i_re]) / se
    v = ((fe.covariance[np.ix_(i_fe, i_fe)] - re.covariance[np.ix_(i_re, i_re)])
         / np.outer(se, se))
    eig = np.linalg.eigvalsh(v)
    scale = max(1.0, float(np.abs(eig).max()))
    nonpsd = bool(eig.min() < -1e-10 * scale)
    h = max(0.0, float(diff @ np.linalg.pinv(v) @ diff))
    df = len(common)
    p = chi2_upper(h, df)
    return HausmanResult(h, df, p, "fixed" if p < 0.05 else "random", nonpsd)
