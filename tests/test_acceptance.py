"""Acceptance criteria, one test per criterion.

Each test prints one `[ACCEPTANCE] ...` line (run pytest with -s to see
them all) and asserts both the statistical criterion at its stated
tolerance and the stated runtime bound.
"""

import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from panelforest.dataset import add_lags, correlation_matrix, describe, from_records, load_csv
from panelforest.forest import ForestConfig, fit_forest, oob_score, r2_score
from panelforest.gmm import GmmSpec, fit_system_gmm
from panelforest.linear import ModelSpec, fit, t_tests, wald_joint
from panelforest.vimp import SeqTestConfig, permutation_importance, rfvimptest, rfvimptest_all, run_sequential
from panelforest._rng import derive_seed

from conftest import dynamic_panel


@contextmanager
def criterion(number, description, time_limit):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"[ACCEPTANCE] {number}. {description}: {status} ({elapsed:.1f}s)")
        if status == "PASS":
            assert elapsed < time_limit, f"criterion {number} exceeded {time_limit}s"


def test_criterion_01_oob_mathematics():
    with criterion(1, "OOB unique in-bag fraction matches 1-(1-1/n)^n", 10):
        n = 400
        rng = np.random.default_rng(1)
        X = rng.normal(size=(n, 3))
        y = rng.normal(size=n)
        forest = fit_forest(X, y, ForestConfig(n_trees=200, seed=101))
        fracs = [(c > 0).mean() for c in forest.in_bag_counts]
        expected = 1.0 - (1.0 - 1.0 / n) ** n  # 0.632580...
        assert abs(float(np.mean(fracs)) - expected) <= 0.02


def test_criterion_02_r2_oracle_equivalence():
    with criterion(2, "r2_score equals direct 1-RSS/TSS on 1000 vectors", 1):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(5, 60))
            y = rng.normal(size=n) * rng.uniform(0.1, 10)
            p = rng.normal(size=n) * rng.uniform(0.1, 10)
            rss = math.fsum((a - b) ** 2 for a, b in zip(y, p))
            mean = math.fsum(y) / n
            tss = math.fsum((a - mean) ** 2 for a in y)
            assert abs(r2_score(y, p) - (1.0 - rss / tss)) < 1e-12


def test_criterion_03_rf_beats_linear_on_nonlinear_dgp():
    with criterion(3, "RF OOB R2 beats fixed-effects R2 by >= 0.2 on y=x1*x2", 120):
        wins = 0
        n_seeds = 50
        for seed in range(n_seeds):
            rng = np.random.default_rng(3000 + seed)
            n_ent, n_per = 40, 10
            x1 = rng.normal(size=400)
            x2 = rng.normal(size=400)
            y = x1 * x2 + 0.1 * rng.normal(size=400)
            ents = [f"E{i:02d}" for i in range(n_ent) for _ in range(n_per)]
            yrs = [2000 + t for _ in range(n_ent) for t in range(n_per)]
            ds = from_records(ents, yrs, {"y": y, "x1": x1, "x2": x2})
            linear = fit(ModelSpec("y", ("x1", "x2"), effects="fixed"), ds)
            forest = fit_forest(np.column_stack([x1, x2]), y,
                                ForestConfig(n_trees=120, seed=seed))
            gap = oob_score(forest, np.column_stack([x1, x2]), y).oob_r2 \
                - linear.metrics.r_squared
            wins += gap >= 0.2
        assert wins >= 0.95 * n_seeds


def test_criterion_04_lagged_dependent_dominance():
    with criterion(4, "permutation importance ranks lagged dependent first", 180):
        wins = 0
        n_seeds = 50
        for seed in range(n_seeds):
            rng = np.random.default_rng(4000 + seed)
            ents, yrs, ys, xs = [], [], [], []
            for i in range(40):
                y_prev = rng.normal()
                for t in range(10):
                    x = rng.normal()
                    y_now = 0.9 * y_prev + 0.05 * x + 0.1 * rng.normal()
                    ents.append(f"E{i:02d}")
                    yrs.append(2000 + t)
                    ys.append(y_now)
                    xs.append(x)
                    y_prev = y_now
            ds = add_lags(from_records(ents, yrs, {"y": ys, "x": xs}), ["y"], 1)
            mask = ds.complete_rows(["y", "y(t-1)", "x"])
            X = np.column_stack([ds.column("y(t-1)")[mask], ds.column("x")[mask]])
            target = ds.column("y")[mask]
            forest = fit_forest(X, target, ForestConfig(n_trees=100, seed=seed),
                                ["y(t-1)", "x"])
            imp = permutation_importance(forest, X, target, n_repeats=5, seed=seed)
            wins += imp.ranking()[0] == "y(t-1)"
        assert wins >= 0.95 * n_seeds


SEQ_METHODS = ("sprt", "sapt", "pval", "certain")


def _null_case(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, 2))
    y = X[:, 1] + 0.5 * rng.normal(size=60)  # x0 independent of y
    return X, y


def test_criterion_05_sequential_test_size():
    bound = 0.05 + 3 * math.sqrt(0.05 * 0.95 / 200)
    with criterion(5, f"null significance rate <= {bound:.4f} for each method", 600):
        fast = ForestConfig(n_trees=10, min_leaf=5)
        for method in SEQ_METHODS:
            cfg = SeqTestConfig(method=method, mmax=100, ntree=10, nperm=1)
            significant = 0
            for rep in range(200):
                X, y = _null_case(derive_seed(900, method, rep))
                dec = rfvimptest(X, y, "x0", cfg, seed=derive_seed(901, method, rep),
                                 forest_config=fast)
                significant += dec.decision == "significant"
            assert significant / 200 <= bound, (method, significant)


def test_criterion_06_sequential_test_savings():
    with criterion(6, "sprt mean permutations < 0.5*Mmax under the null", 600):
        cfg = SeqTestConfig(method="sprt", mmax=100, ntree=10, nperm=1)
        fast = ForestConfig(n_trees=10, min_leaf=5)
        used = []
        for rep in range(100):
            X, y = _null_case(derive_seed(600, rep))
            dec = rfvimptest(X, y, "x0", cfg, seed=derive_seed(601, rep),
                             forest_config=fast)
            used.append(dec.m)
        assert float(np.mean(used)) < 0.5 * cfg.mmax


def test_criterion_07_sprt_closed_form():
    with criterion(7, "exceedance-free sprt stops significant at exactly 132", 1):
        cfg = SeqTestConfig(method="sprt", mmax=500, p0=0.06, p1=0.04,
                            alpha=0.05, beta=0.2)
        decision, p, m, d, reason = run_sequential(cfg, lambda j: False)
        assert decision == "significant"
        assert m == 132  # ln(16)/ln(0.96/0.94) = 131.7
        assert d == 0
        assert reason == "sprt_boundary"


def test_criterion_08_parallel_determinism():
    with criterion(8, "rfvimptest_all identical for workers in {1,4,8}", 120):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 3))
        y = X[:, 0] + 0.5 * rng.normal(size=60)
        cfg = SeqTestConfig(method="sprt", mmax=20, ntree=8, nperm=1)
        fast = ForestConfig(n_trees=8, min_leaf=5)
        blobs = []
        for workers in (1, 4, 8):
            decisions = rfvimptest_all(X, y, ["x0", "x1", "x2"], cfg,
                                       master_seed=88, workers=workers,
                                       forest_config=fast)
            blobs.append(json.dumps({k: vars(v) for k, v in decisions.items()},
                                    sort_keys=True).encode())
        assert blobs[0] == blobs[1] == blobs[2]


def test_criterion_09_gmm_recovery_and_ar_pattern():
    with criterion(9, "System GMM recovers (rho, beta); AR(1)/AR(2) pattern", 300):
        spec = GmmSpec("y", ("x",))
        joint = ar1 = ar2 = 0
        n_seeds = 200
        for seed in range(n_seeds):
            gfit = fit_system_gmm(spec, dynamic_panel(seed))
            se_rho = math.sqrt(gfit.covariance[0, 0])
            se_beta = math.sqrt(gfit.covariance[1, 1])
            ok = (abs(gfit.coefficients["y(t-1)"] - 0.5) <= 3 * se_rho
                  and abs(gfit.coefficients["x"] - 0.3) <= 3 * se_beta)
            joint += ok
            ar1 += gfit.ar_tests[1].p < 0.05
            ar2 += gfit.ar_tests[2].p < 0.05
        assert joint >= 0.95 * n_seeds, joint
        assert ar1 >= 0.80 * n_seeds, ar1
        assert ar2 <= 0.10 * n_seeds, ar2


def test_criterion_10_estimator_identities():
    with criterion(10, "within==demeaned OLS; Wald==t^2; Sargan df exact", 5):
        # within estimator vs plain demeaned least squares
        rng = np.random.default_rng(10)
        ents = [f"E{i:02d}" for i in range(30) for _ in range(8)]
        yrs = [2000 + t for _ in range(30) for t in range(8)]
        x1 = rng.normal(size=240)
        x2 = rng.normal(size=240)
        effs = np.repeat(rng.normal(size=30), 8)
        y = 0.7 * x1 - 0.4 * x2 + effs + 0.3 * rng.normal(size=240)
        ds = from_records(ents, yrs, {"y": y, "x1": x1, "x2": x2})
        lfit = fit(ModelSpec("y", ("x1", "x2"), effects="fixed"), ds)
        codes, inv = np.unique(ds.entity, return_inverse=True)
        counts = np.bincount(inv).astype(float)
        def demean(v):
            return v - (np.bincount(inv, weights=v) / counts)[inv]
        beta = np.linalg.lstsq(np.column_stack([demean(ds.column("x1")),
                                                demean(ds.column("x2"))]),
                               demean(ds.column("y")), rcond=None)[0]
        assert abs(lfit.coefficients["x1"] - beta[0]) <= 1e-9
        assert abs(lfit.coefficients["x2"] - beta[1]) <= 1e-9

        # singleton Wald equals squared t
        t_stat = t_tests(lfit)["x1"].t
        assert abs(wald_joint(lfit, ["x1"]).statistic - t_stat**2) <= 1e-9

        # Sargan df = instruments - parameters, exactly
        gfit = fit_system_gmm(GmmSpec("y", ("x",)), dynamic_panel(0, n_ent=60))
        assert gfit.sargan.df == gfit.instrument_count - gfit.parameter_count
        assert gfit.instrument_count == gfit.z_matrix.shape[1]


OSF_ENV = "PANELFOREST_OSF_CSV"


@pytest.mark.skipif(OSF_ENV not in os.environ or not os.path.exists(os.environ.get(OSF_ENV, "")),
                    reason=f"optional data path: set {OSF_ENV} to the study CSV")
def test_criterion_11_optional_data_path():
    with criterion(11, "describe/correlation reproduce published values", 60):
        ds = load_csv(os.environ[OSF_ENV])
        assert len(ds.entities) == 32
        assert ds.years[0] == 2000 and ds.years[-1] == 2022
        stats = describe(ds)["GFCF_Ratio"]
        assert round(stats.mean, 4) == 0.2180
        assert round(stats.median, 4) == 0.2164
        assert round(stats.std_dev, 4) == 0.0511
        corr = correlation_matrix(ds, ["TAX", "Gini_Index"])
        assert round(corr[("TAX", "Gini_Index")], 4) == -0.5218
