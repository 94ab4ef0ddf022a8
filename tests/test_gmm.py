import math

import numpy as np
import pytest
from scipy import stats as sps

from panelforest.dataset import from_records
from panelforest.gmm import GmmSpec, _fit_gmm, fit_system_gmm, wald_joint

from conftest import dynamic_panel

SPEC = GmmSpec("y", ("x",))


def exact_panel(seed=0, n_ent=30, n_per=8, rho=0.5, beta=0.3):
    """Zero-noise, zero-effect dynamic panel: y follows the DGP exactly."""
    rng = np.random.default_rng(seed)
    ents, yrs, ys, xs = [], [], [], []
    for i in range(n_ent):
        x = rng.normal()
        y = 0.0
        for t in range(n_per):
            x = 0.5 * x + rng.normal()
            y = rho * y + beta * x
            ents.append(f"E{i:02d}")
            yrs.append(2000 + t)
            ys.append(y)
            xs.append(x)
    return from_records(ents, yrs, {"y": ys, "x": xs})


class TestSpecValidation:
    def test_min_lag_below_two_rejected(self):
        with pytest.raises(ValueError, match="min_lag"):
            GmmSpec("y", ("x",), instrument_lags=(1, 3))

    def test_max_before_min_rejected(self):
        with pytest.raises(ValueError, match="max_lag"):
            GmmSpec("y", ("x",), instrument_lags=(3, 2))

    def test_per_variable_lags(self):
        spec = GmmSpec("y", ("x",), instrument_lags={"y": (2, 3), "x": (2, 2)})
        assert spec.lags_for("y") == (2, 3)
        assert spec.lags_for("x") == (2, 2)

    @pytest.mark.parametrize("lags", [(2.7, 3), {"x": (2, 3.9)}, (2, True)])
    def test_non_integer_lags_rejected(self, lags):
        with pytest.raises(ValueError, match="pair of integers"):
            GmmSpec("y", ("x",), instrument_lags=lags)

    def test_numpy_integer_lags_accepted(self):
        # as ForestConfig, SeqTestConfig and every seed accept them
        lags = (np.int64(2), np.int64(3))
        assert GmmSpec("y", ("x",), instrument_lags=lags).lags_for("x") == (2, 3)
        spec = GmmSpec("y", ("x",), instrument_lags={"y": (2, 2), "x": (np.int32(2), 2)})
        plain = GmmSpec("y", ("x",), instrument_lags={"y": (2, 2), "x": (2, 2)})
        assert fit_system_gmm(spec, exact_panel()).coefficients \
            == fit_system_gmm(plain, exact_panel()).coefficients

    def test_lag_variable_named(self):
        with pytest.raises(ValueError, match="'x'.*pair of integers"):
            GmmSpec("y", ("x",), instrument_lags={"y": (2, 3), "x": (2, 3.9)})

    def test_lag_key_not_instrumented_rejected(self):
        with pytest.raises(ValueError, match=r"\['z'\], which are not instrumented; "
                                             r"its keys must be among \['y', 'x'\]"):
            GmmSpec("y", ("x",), instrument_lags={"y": (2, 3), "z": (2, 2)})
        assert GmmSpec("y", ("x",), instrument_lags={"y": (2, 3)}).lags_for("x") == (2, 4)

    def test_every_bad_pair_listed(self):
        with pytest.raises(ValueError) as err:
            GmmSpec("y", ("x",), instrument_lags={"y": (1, 3), "x": (3, 2)})
        assert str(err.value) == (
            "instrument_lags for 'y': min_lag must be >= 2, got 1; levels dated t-1 are not "
            "valid for the differenced equation; instrument_lags for 'x': max_lag 2 < min_lag 3")

    def test_single_lag_rejected(self):
        with pytest.raises(ValueError, match="pair of integers"):
            GmmSpec("y", ("x",), instrument_lags=(2,))

    @pytest.mark.parametrize("switch", ["include_time_dummies"])
    def test_switches_must_be_bool(self, switch):
        with pytest.raises(ValueError, match=f"{switch} must be a bool"):
            GmmSpec("y", ("x",), **{switch: "no"})


class TestFit:
    def test_zero_noise_exact_recovery(self):
        # deep y lags are exact combinations of shallower instruments when
        # the DGP is noiseless (y(t-2) = rho*y(t-3) + beta*x(t-2)), so the
        # recovery check uses a lag set without that exact dependence
        spec = GmmSpec("y", ("x",), instrument_lags={"y": (2, 2), "x": (2, 2)})
        fit = fit_system_gmm(spec, exact_panel())
        assert fit.coefficients["y(t-1)"] == pytest.approx(0.5, abs=1e-6)
        assert fit.coefficients["x"] == pytest.approx(0.3, abs=1e-6)
        assert fit.coefficients["const"] == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("scale", [1.0, 2.0**30, 2.0**-30], ids=["1", "2^30", "2^-30"])
    def test_collinear_instruments_named(self, scale):
        # the same noiseless panel under the default lag range must fail
        # loudly, listing the dependent instrument columns, in any units of x
        ds = exact_panel()
        with pytest.raises(ValueError, match="diff:y") as err:
            fit_system_gmm(SPEC, ds.with_column("x", ds.column("x") * scale))
        assert "collinear columns: ['diff:y(t-2)', 'diff:y(t-3)']" in str(err.value)

    def test_recovery_within_3se(self):
        fit = fit_system_gmm(SPEC, dynamic_panel(0))
        se_rho = math.sqrt(fit.covariance[0, 0])
        se_beta = math.sqrt(fit.covariance[1, 1])
        assert abs(fit.coefficients["y(t-1)"] - 0.5) <= 3 * se_rho
        assert abs(fit.coefficients["x"] - 0.3) <= 3 * se_beta
        assert fit.lagdep_stable

    def test_zero_rho_dgp(self):
        hits = 0
        for seed in range(20):
            fit = fit_system_gmm(SPEC, dynamic_panel(seed, rho=0.0, n_ent=150))
            se = math.sqrt(fit.covariance[0, 0])
            hits += abs(fit.coefficients["y(t-1)"]) <= 3 * se
        assert hits >= 19  # >= 95%

    def test_instrument_accounting(self):
        fit = fit_system_gmm(SPEC, dynamic_panel(1))
        assert fit.instrument_count == fit.z_matrix.shape[1]
        assert fit.instrument_count == len(fit.instrument_names)
        assert fit.sargan.df == fit.instrument_count - fit.parameter_count
        # collapsed: 3 lags x 2 vars + 2 level diffs + const = 9
        assert fit.instrument_count == 9
        assert fit.parameter_count == 3

    def test_scaling_regressor_invariance(self):
        ds = dynamic_panel(3, n_ent=100)
        scaled = ds.with_column("x", ds.column("x") * 10.0)
        a = fit_system_gmm(SPEC, ds)
        b = fit_system_gmm(SPEC, scaled)
        assert b.coefficients["x"] == pytest.approx(a.coefficients["x"] / 10.0, rel=1e-8)
        za = a.coefficients["x"] / math.sqrt(a.covariance[1, 1])
        zb = b.coefficients["x"] / math.sqrt(b.covariance[1, 1])
        assert zb == pytest.approx(za, rel=1e-8)
        assert b.sargan.statistic == pytest.approx(a.sargan.statistic, rel=1e-8)
        assert b.ar_tests[1].z == pytest.approx(a.ar_tests[1].z, rel=1e-8)
        assert b.ar_tests[2].z == pytest.approx(a.ar_tests[2].z, rel=1e-8)

    def test_entity_order_invariance(self):
        ds = dynamic_panel(4, n_ent=50)
        rng = np.random.default_rng(0)
        perm = rng.permutation(ds.n_rows)
        shuffled = from_records(ds.entity[perm].tolist(), ds.year[perm].tolist(),
                                {"y": ds.column("y")[perm], "x": ds.column("x")[perm]})
        a = fit_system_gmm(SPEC, ds)
        b = fit_system_gmm(SPEC, shuffled)
        for name in a.coef_names:
            assert a.coefficients[name] == pytest.approx(b.coefficients[name], abs=1e-12)

    def test_too_few_periods_reports_accounting(self):
        ds = from_records(["A", "A", "B", "B"], [2000, 2001, 2000, 2001],
                          {"y": [1.0, 2.0, 3.0, 4.0], "x": [0.1, 0.2, 0.3, 0.4]})
        with pytest.raises(ValueError, match="per-entity"):
            fit_system_gmm(SPEC, ds)

    def test_instrument_proliferation_warning(self):
        ds = dynamic_panel(5, n_ent=8)
        with pytest.warns(UserWarning, match="proliferation"):
            fit_system_gmm(SPEC, ds)

    def test_proliferation_warning_points_at_the_caller(self):
        with pytest.warns(UserWarning, match="proliferation") as record:
            fit_system_gmm(SPEC, dynamic_panel(5, n_ent=8))
        assert record[0].filename == __file__

    def test_unstable_flagged(self):
        import dataclasses
        fit = fit_system_gmm(SPEC, dynamic_panel(6, n_ent=60))
        forced = dataclasses.replace(fit, coefficients={**fit.coefficients,
                                                        "y(t-1)": 1.02})
        assert not dataclasses.replace(
            forced, lagdep_stable=abs(forced.coefficients["y(t-1)"]) < 1).lagdep_stable


def gappy_panel(seed=0, n_ent=10):
    """2000-2007 panel; E00 lacks the year 2003, E01's x is missing in 2004."""
    rng = np.random.default_rng(seed)
    ents, yrs, ys, xs = [], [], [], []
    for i in range(n_ent):
        y = rng.normal()
        for t in range(2000, 2008):
            x = rng.normal()
            y = 0.5 * y + 0.3 * x + rng.normal()
            if i == 0 and t == 2003:
                continue
            ents.append(f"E{i:02d}")
            yrs.append(t)
            ys.append(y)
            xs.append(math.nan if i == 1 and t == 2004 else x)
    return from_records(ents, yrs, {"y": ys, "x": xs})


def level_only_entity_added(ds):
    """`ds` plus entity A over 2000-2001: one level row and no diff row."""
    return from_records(["A", "A", *ds.entity.tolist()], [2000, 2001, *ds.year.tolist()],
                        {"y": [0.4, -0.2, *ds.column("y")], "x": [1.1, 0.3, *ds.column("x")]})


def hand_stacking(ds):
    """SPEC's stacked rows, built cell by cell: get(e, t, j) reads y (j=0) or
    x (j=1), None where absent; the diff and level rows as (entity, year);
    and the instrument matrix over the diff rows, then the level rows."""
    cell = {(e, int(t)): (y, x) for e, t, y, x in
            zip(ds.entity, ds.year, ds.column("y"), ds.column("x"))}

    def get(e, t, j):
        v = cell.get((e, t), (math.nan, math.nan))[j]
        return None if math.isnan(v) else v

    diff_rows, level_rows = [], []
    for e, t in sorted(cell):
        if None in (get(e, t, 0), get(e, t - 1, 0), get(e, t, 1)):
            continue
        level_rows.append((e, t))
        if None not in (get(e, t - 2, 0), get(e, t - 1, 1)):
            diff_rows.append((e, t))

    def lag_or_zero(e, t, j):
        v = get(e, t, j)
        return 0.0 if v is None else v

    def change_or_zero(e, t, j):
        a, b = get(e, t - 1, j), get(e, t - 2, j)
        return 0.0 if a is None or b is None else a - b

    z = []
    for e, t in diff_rows:
        z.append([lag_or_zero(e, t - lag, j) for j in (0, 1) for lag in (2, 3, 4)]
                 + [0.0, 0.0, 0.0])
    for e, t in level_rows:
        z.append([0.0] * 6 + [change_or_zero(e, t, 0), change_or_zero(e, t, 1), 1.0])
    return get, diff_rows, level_rows, np.array(z)


class TestGapsAndMissingCells:
    def test_rows_and_instruments_match_hand_stacking(self):
        ds = gappy_panel()
        fit = fit_system_gmm(SPEC, ds)
        _, diff_rows, level_rows, oracle = hand_stacking(ds)
        # E00: 5 level / 3 diff rows; E01: 6 / 4; eight full entities: 7 / 6
        assert (len(diff_rows), len(level_rows)) == (55, 67)
        assert (fit.n_obs_diff, fit.n_obs_level) == (55, 67)
        assert fit.instrument_names == (
            "diff:y(t-2)", "diff:y(t-3)", "diff:y(t-4)",
            "diff:x(t-2)", "diff:x(t-3)", "diff:x(t-4)",
            "level:D.y(t-1)", "level:D.x(t-1)", "iv:const")
        np.testing.assert_array_equal(fit.z_matrix, oracle)

    def test_sandwich_and_ar_tests_match_hand_formulas(self):
        # one-step System GMM with an entity-clustered sandwich and the
        # Arellano-Bond AR(m) statistic, entity by entity (Arellano & Bond
        # 1991; Roodman 2009).  Entity A sorts first and has a level row but
        # no diff row, so a cluster index that skips it in the diff block
        # pairs every other entity's diff rows with a neighbour's level rows.
        ds = level_only_entity_added(gappy_panel())
        fit = fit_system_gmm(SPEC, ds)
        get, diff_rows, level_rows, z = hand_stacking(ds)
        rows, n_d = diff_rows + level_rows, len(diff_rows)
        assert ("A", 2001) in level_rows and not any(e == "A" for e, _ in diff_rows)

        def y(e, t):
            return get(e, t, 0)

        def x(e, t):
            return get(e, t, 1)

        design = np.array([[y(e, t - 1) - y(e, t - 2), x(e, t) - x(e, t - 1), 0.0]
                           for e, t in diff_rows]
                          + [[y(e, t - 1), x(e, t), 1.0] for e, t in level_rows])
        outcome = np.array([y(e, t) - y(e, t - 1) for e, t in diff_rows]
                           + [y(e, t) for e, t in level_rows])
        members = {}
        for i, (e, _) in enumerate(rows):
            members.setdefault(e, []).append(i)
        assert fit.n_entities == len(members) == 11

        zhz = np.zeros((z.shape[1], z.shape[1]))
        for idx in members.values():
            h = np.eye(len(idx))
            for a, i in enumerate(idx):
                for b, j in enumerate(idx):
                    if i < n_d and j < n_d:
                        gap = abs(rows[i][1] - rows[j][1])
                        h[a, b] = 2.0 if gap == 0 else -1.0 if gap == 1 else 0.0
            zhz += z[idx].T @ h @ z[idx]
        w = np.linalg.inv(zhz)
        zx, zy = z.T @ design, z.T @ outcome
        a_inv = np.linalg.inv(zx.T @ w @ zx)
        theta = a_inv @ zx.T @ w @ zy
        u = outcome - design @ theta
        score = {e: z[idx].T @ u[idx] for e, idx in members.items()}
        omega = sum(np.outer(s, s) for s in score.values())
        cov = a_inv @ zx.T @ w @ omega @ w @ zx @ a_inv
        np.testing.assert_allclose(list(fit.coefficients.values()), theta, rtol=1e-9)
        np.testing.assert_allclose(fit.covariance, cov, rtol=1e-9)

        g = z.T @ u
        sigma2 = (u[:n_d] @ u[:n_d] / 2 + u[n_d:] @ u[n_d:]) / len(rows)
        assert fit.sargan.statistic == pytest.approx(g @ w @ g / sigma2, rel=1e-9)

        resid = dict(zip(diff_rows, u[:n_d]))
        for m in (1, 2):
            pairs = [(e, t) for e, t in diff_rows if (e, t - m) in resid]
            q = sum(resid[e, t] * resid[e, t - m] for e, t in pairs)
            a = {e: sum(resid[f, t] * resid[f, t - m] for f, t in pairs if f == e)
                 for e in members}
            c = design[:n_d].T @ np.array([resid.get((e, t - m), 0.0) for e, t in diff_rows])
            m_vec = sum(a[e] * score[e] for e in members)
            var = (sum(v * v for v in a.values()) - 2 * c @ a_inv @ zx.T @ w @ m_vec
                   + c @ cov @ c)
            assert var > 0
            assert fit.ar_tests[m].z == pytest.approx(q / math.sqrt(var), rel=1e-9)


class TestSargan:
    def test_uniform_under_valid_instruments(self):
        # difference-only internal mode: with iid errors the one-step
        # weight is efficient and p-values are asymptotically uniform
        ps = []
        for seed in range(80):
            fit = _fit_gmm(SPEC, dynamic_panel(seed, n_ent=200, n_per=10),
                           include_level=False)
            ps.append(fit.sargan.p)
        ks = sps.kstest(ps, "uniform")
        assert ks.pvalue > 0.01

    def test_invalid_instrument_rejected(self):
        # MA(1) errors make lag-2 levels correlated with the differenced
        # error, invalidating the instruments
        rejections = 0
        for seed in range(40):
            ds = dynamic_panel(seed, n_ent=80, n_per=8, ma_err=0.7)
            fit = _fit_gmm(SPEC, ds, include_level=False)
            rejections += fit.sargan.p < 0.05
        assert rejections >= 20  # >= 50%

    def test_just_identified_marker(self):
        spec = GmmSpec("y", ("x",), instrument_lags=(2, 2))
        fit = _fit_gmm(spec, dynamic_panel(7, n_ent=60), include_level=False)
        assert fit.instrument_count == fit.parameter_count
        assert fit.sargan.df == 0
        assert math.isnan(fit.sargan.statistic)
        assert not fit.sargan.applicable


class TestArTests:
    def test_expected_pattern_on_valid_dgp(self):
        fit = fit_system_gmm(SPEC, dynamic_panel(9))
        assert fit.ar_tests[1].p < 0.05       # differencing induces MA(1)
        assert fit.ar_tests[1].z < 0          # negative first-order correlation
        assert fit.ar_tests[2].p > 0.05       # no second-order correlation

    def test_iid_level_errors_reject_ar1(self):
        hits = 0
        for seed in range(20):
            fit = fit_system_gmm(SPEC, dynamic_panel(seed, n_ent=100))
            hits += fit.ar_tests[1].p < 0.05
        assert hits >= 16  # >= 80%

    def test_insufficient_overlap_marker(self):
        # T=3 gives one differenced row per entity: no lag-1 residual pairs
        rng = np.random.default_rng(10)
        ents, yrs, ys, xs = [], [], [], []
        for i in range(20):
            y = rng.normal()
            for t in range(3):
                x = rng.normal()
                y = 0.5 * y + 0.3 * x + rng.normal()
                ents.append(f"E{i:02d}")
                yrs.append(2000 + t)
                ys.append(y)
                xs.append(x)
        ds = from_records(ents, yrs, {"y": ys, "x": xs})
        fit = fit_system_gmm(SPEC, ds)
        assert not fit.ar_tests[1].applicable
        assert math.isnan(fit.ar_tests[1].z)


class TestWald:
    def test_singleton_equals_z_squared(self):
        fit = fit_system_gmm(SPEC, dynamic_panel(12, n_ent=60))
        z = fit.coefficients["x"] / math.sqrt(fit.covariance[1, 1])
        w = wald_joint(fit, ["x"])
        assert w.statistic == pytest.approx(z**2, abs=1e-9)

    def test_size_under_null(self):
        rejections = 0
        n_mc = 500
        for seed in range(n_mc):
            ds = dynamic_panel(seed, n_ent=200, n_per=8, rho=0.0, beta=0.0)
            fit = fit_system_gmm(SPEC, ds)
            rejections += wald_joint(fit, ["y(t-1)", "x"]).p < 0.05
        assert 0.02 <= rejections / n_mc <= 0.08

    def test_strong_signal(self):
        hits = 0
        for seed in range(30):
            fit = fit_system_gmm(SPEC, dynamic_panel(seed))
            hits += wald_joint(fit, ["y(t-1)", "x"]).p < 0.01
        assert hits >= 30  # rho=0.5, beta=0.3 at N=200 is overwhelming

    def test_stored_wald_covers_all_but_const(self):
        fit = fit_system_gmm(SPEC, dynamic_panel(13, n_ent=60))
        manual = wald_joint(fit, ["y(t-1)", "x"])
        assert fit.wald.statistic == pytest.approx(manual.statistic, rel=1e-12)


class TestTimeDummies:
    def test_dummies_enter_both_blocks(self):
        spec = GmmSpec("y", ("x",), include_time_dummies=True)
        fit = fit_system_gmm(spec, dynamic_panel(14, n_ent=80, n_per=6))
        dummy_names = [n for n in fit.coef_names if n.startswith("year_")]
        assert dummy_names
        iv_names = [n for n in fit.instrument_names if n.startswith("iv:year_")]
        assert len(iv_names) == len(dummy_names)
