import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelforest import forest as forest_mod
from panelforest import vimp
from panelforest._rng import derive_seed, stream
from panelforest.forest import (_NODE_COLUMNS, ForestConfig, fit_forest, oob_predictions,
                                oob_score, predict, r2_score)
from panelforest.vimp import (
    SeqTestConfig,
    permutation_importance,
    rfvimptest,
    rfvimptest_all,
    rfvimptest_many,
    run_sequential,
    significance_codes,
)

FAST_FOREST = ForestConfig(n_trees=10, min_leaf=5)


def signal_data(seed, n=60):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = X[:, 1] + 0.5 * rng.normal(size=n)  # x0 is pure noise
    return X, y


class TestPermutationImportance:
    def test_unused_feature_zero_in_every_repeat(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([rng.normal(size=60), np.zeros(60)])
        y = X[:, 0] + 0.1 * rng.normal(size=60)
        f = fit_forest(X, y, ForestConfig(n_trees=10, seed=1))
        imp = permutation_importance(f, X, y, n_repeats=5, seed=2)
        assert imp.means["x1"] == 0.0
        assert imp.stds["x1"] == 0.0

    def test_signal_beats_noise_every_seed(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(80, 2))
            y = X[:, 0].copy()
            f = fit_forest(X, y, ForestConfig(n_trees=25, seed=seed))
            imp = permutation_importance(f, X, y, n_repeats=3, seed=seed)
            hits += imp.means["x0"] > imp.means["x1"]
        assert hits == 100

    def test_deterministic_given_seed(self):
        X, y = signal_data(3)
        f = fit_forest(X, y, ForestConfig(n_trees=10, seed=4))
        a = permutation_importance(f, X, y, n_repeats=1, seed=7)
        b = permutation_importance(f, X, y, n_repeats=1, seed=7)
        assert a == b

    def test_oob_mode(self):
        X, y = signal_data(5, n=100)
        f = fit_forest(X, y, ForestConfig(n_trees=40, seed=6))
        imp = permutation_importance(f, X, y, n_repeats=3, seed=8, eval_set="oob")
        assert imp.metric == "r2_oob"
        assert imp.means["x1"] > imp.means["x0"]

    def test_validation(self):
        X, y = signal_data(9)
        f = fit_forest(X, y, ForestConfig(n_trees=5, seed=1))
        with pytest.raises(ValueError):
            permutation_importance(f, X, y, eval_set="test")
        with pytest.raises(ValueError):
            permutation_importance(f, X[:, :1], y)

    @pytest.mark.parametrize("n_repeats", [2.5, True, 0])
    def test_non_integer_repeats_rejected(self, n_repeats):
        # none is a number of repeats the report footer can print
        X, y = signal_data(9)
        f = fit_forest(X, y, ForestConfig(n_trees=5, seed=1))
        with pytest.raises(ValueError) as info:
            permutation_importance(f, X, y, n_repeats=n_repeats)
        assert str(info.value) == f"n_repeats must be an integer >= 1, got {n_repeats!r}"
        assert permutation_importance(f, X, y, n_repeats=np.int64(1)).n_repeats == 1

    @pytest.mark.parametrize("extra", [7, -7])
    def test_target_of_another_length_rejected(self, extra):
        X, y = signal_data(9)
        f = fit_forest(X, y, ForestConfig(n_trees=5, seed=1))
        y = np.resize(y, len(y) + extra)
        for eval_set in ("train", "oob"):
            with pytest.raises(ValueError, match=f"X has 60 rows but y has {60 + extra}"):
                permutation_importance(f, X, y, eval_set=eval_set)
        with pytest.raises(ValueError, match=f"X has 60 rows but y has {60 + extra}"):
            oob_score(f, X, y)

    def test_oob_needs_the_training_rows(self):
        X, y = signal_data(9)
        f = fit_forest(X, y, ForestConfig(n_trees=5, seed=1))
        with pytest.raises(ValueError, match="OOB scoring requires the training rows"):
            permutation_importance(f, X[:40], y[:40], eval_set="oob")


def bits(*values):
    """The IEEE bytes of the values: equal only when every bit is."""
    return np.array(values, dtype=np.float64).tobytes()


def oracle_importance(forest, X, y, n_repeats, seed, eval_set):
    """Means, stds and baseline of permutation importance computed the
    direct way: shuffle a copy of X, then score it through the whole forest."""
    def score(Xs):
        if eval_set == "oob":
            preds, covered = oob_predictions(forest, Xs)
            return r2_score(y[covered], preds[covered])
        return r2_score(y, predict(forest, Xs))

    baseline = score(X)
    means, stds = {}, {}
    for j, name in enumerate(forest.feature_names):
        drops = []
        for r in range(n_repeats):
            Xs = X.copy()
            Xs[:, j] = X[stream(seed, name, "shuffle", r).permutation(len(X)), j]
            drops.append(baseline - score(Xs))
        means[name], stds[name] = float(np.mean(drops)), float(np.std(drops))
    return means, stds, baseline


class TestScoringOracle:
    """Rerouting only the pairs below the shuffled column's first split gives
    the direct scores bit for bit (NaN where R-squared is undefined, as on a
    constant target)."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), eval_set=st.sampled_from(["train", "oob"]),
           ties=st.booleans(), constant_y=st.booleans(), adjacent=st.booleans())
    def test_equals_shuffle_and_predict(self, seed, eval_set, ties, constant_y, adjacent):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(12, 80)), int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        if ties:
            X = np.round(X, 1)
        if adjacent:  # two adjacent floats: a split's threshold is the lower one, so
            # shuffled values land on both ends of a leaf's interval (lo, hi]
            a = np.nextafter(1.0, 2.0)
            X = np.column_stack([X, np.where(X[:, 0] > 0, np.nextafter(a, 2.0), a)])
        X = np.column_stack([X, np.full(n, 0.5)])  # a feature no tree splits on
        y = np.full(n, 2.0) if constant_y else np.sin(2 * X[:, 0]) + rng.normal(size=n)
        cfg = ForestConfig(n_trees=int(rng.integers(1, 12)), mtry=int(rng.integers(1, p + 2)),
                           min_leaf=int(rng.integers(1, 6)),
                           max_depth=[None, 1, 3][int(rng.integers(3))], seed=seed)
        f = fit_forest(X, y, cfg)
        n_repeats, shuffle_seed = int(rng.integers(1, 4)), int(rng.integers(1000))
        try:
            means, stds, baseline = oracle_importance(f, X, y, n_repeats, shuffle_seed, eval_set)
        except ValueError as err:  # too few out-of-bag rows to score
            with pytest.raises(ValueError) as got:
                permutation_importance(f, X, y, n_repeats, shuffle_seed, eval_set)
            assert str(got.value) == str(err)
            return
        imp = permutation_importance(f, X, y, n_repeats, shuffle_seed, eval_set)
        assert bits(*imp.means.values()) == bits(*means.values())
        assert bits(*imp.stds.values()) == bits(*stds.values())
        assert bits(imp.baseline_score) == bits(baseline)
        assert imp.means[f.feature_names[-1]] == 0.0 or constant_y


class TestBlockGrowth:
    """A block of a test's forests, from the observed one (forest 0) on,
    grown together on stacked copies of the data, equals the forests' own
    `fit_forest` fits bit for bit, node table and importance (NaN included,
    as on a constant target), also where a run of trees spans forests."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), eval_set=st.sampled_from(["train", "oob"]),
           ties=st.booleans(), constant_y=st.booleans())
    def test_block_equals_separate_fits(self, seed, eval_set, ties, constant_y):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(10, 70)), int(rng.integers(1, 5))
        X = rng.normal(size=(n, p))
        if ties:
            X = np.round(X, 1)
        y = np.full(n, 2.0) if constant_y else np.sin(2 * X[:, 0]) + rng.normal(size=n)
        fcfg = ForestConfig(mtry=int(rng.integers(1, p + 1)), min_leaf=int(rng.integers(1, 6)),
                            max_depth=[None, 1, 3][int(rng.integers(3))])
        cfg = SeqTestConfig(method="complete", mmax=30, ntree=int(rng.integers(1, 8)),
                            nperm=int(rng.integers(1, 4)), eval_set=eval_set)
        col, test_seed = int(rng.integers(p)), int(rng.integers(1000))
        variable = f"x{col}"
        test = vimp._Test(X, y, col, variable, cfg, fcfg, test_seed)
        start, k, ntree = int(rng.integers(0, 10)), int(rng.integers(2, 9)), cfg.ntree
        # runs of more than one forest's trees, ending anywhere in a forest
        runs = mock.patch.object(forest_mod, "_ENTRIES_PER_GROUP",
                                 int(rng.integers(ntree + 1, k * ntree + 1)) * n
                                 + int(rng.integers(n)))

        paths = [(variable, "perm", j) if j else (variable, "observed")
                 for j in range(start, start + k)]
        data, own = [], []
        for path in paths:
            X_j = X.copy()
            if path[-1] != "observed":
                X_j[:, col] = X[stream(test_seed, *path).permutation(n), col]
            data.append(X_j)
            own.append(fit_forest(X_j, y, replace(fcfg, n_trees=ntree,
                                                  seed=derive_seed(test_seed, *path, "fit"))))
        with runs:
            forest = forest_mod._grow_forests(
                np.concatenate(data), y, [derive_seed(test_seed, *path, "fit") for path in paths],
                ntree, fcfg, own[0].feature_names)
        ends = np.append(forest.roots, forest.n_nodes)
        for b, fit in enumerate(own):
            lo, hi = ends[b * ntree], ends[(b + 1) * ntree]
            for name in _NODE_COLUMNS:
                assert getattr(forest, name)[lo:hi].tobytes() \
                    == getattr(fit, name).tobytes(), name
            assert np.array_equal(forest.roots[b * ntree:(b + 1) * ntree] - lo, fit.roots)
            assert np.array_equal(forest.in_bag_counts[b * ntree:(b + 1) * ntree],
                                  fit.in_bag_counts)

        try:
            expected = []
            for fit, X_j, path in zip(own, data, paths):
                _, shuffle_drops = vimp._scorer(fit, X_j, y, eval_set)
                shuffles = ([stream(test_seed, *path, "vimp", r)] for r in range(cfg.nperm))
                expected.append(float(np.mean(shuffle_drops(col, shuffles)[0])))
        except ValueError as err:  # too few out-of-bag rows to score
            with runs, pytest.raises(ValueError) as got:
                vimp._block_vimps(test, start, start + k)
            assert str(got.value) == str(err)
            return
        with runs:
            assert bits(*vimp._block_vimps(test, start, start + k)) == bits(*expected)


class TestStoppingRules:
    """Closed-form boundary behavior on stubbed exceedance streams."""

    def test_sprt_zero_exceedances_stops_at_132(self):
        # ln(16)/ln(0.96/0.94) = 131.69 -> first crossing at m=132
        cfg = SeqTestConfig(method="sprt", mmax=500)
        decision, p, m, d, reason = run_sequential(cfg, lambda j: False)
        assert (decision, m, d, reason) == ("significant", 132, 0, "sprt_boundary")
        assert p == pytest.approx(1 / 133)

    def test_sapt_zero_exceedances_stops_at_75(self):
        # -ln(0.2/0.95)/ln(0.96/0.94) = 74.009 -> first crossing at m=75
        cfg = SeqTestConfig(method="sapt", mmax=500)
        decision, _, m, _, reason = run_sequential(cfg, lambda j: False)
        assert (decision, m, reason) == ("significant", 75, "sapt_boundary")

    def test_pval_zero_exceedances_stops_at_72(self):
        # Clopper-Pearson upper for d=0 falls below 0.05 once
        # m > ln(0.025)/ln(0.95) = 71.92
        cfg = SeqTestConfig(method="pval", mmax=500)
        decision, _, m, _, reason = run_sequential(cfg, lambda j: False)
        assert (decision, m, reason) == ("significant", 72, "ci_boundary")

    def test_certain_not_significant_at_threshold(self):
        # floor(0.05 * 501) = 25: d=25 forces (d+1)/501 > 0.05
        cfg = SeqTestConfig(method="certain", mmax=500)
        decision, p, m, d, reason = run_sequential(cfg, lambda j: True)
        assert (decision, m, d, reason) == ("not_significant", 25, 25,
                                            "forced_decision")
        assert p == 1.0

    def test_certain_significant_when_forced(self):
        # exceedances stop after 3: once remaining budget cannot reach 25,
        # significance is forced
        cfg = SeqTestConfig(method="certain", mmax=500)
        decision, _, m, d, reason = run_sequential(cfg, lambda j: j <= 3)
        assert decision == "significant"
        assert d == 3
        assert m == 500 - (25 - 3 - 1)  # first m with d + (mmax - m) < 25
        assert reason == "forced_decision"

    def test_complete_runs_all_and_applies_alpha(self):
        cfg = SeqTestConfig(method="complete", mmax=499)
        decision, p, m, d, reason = run_sequential(cfg, lambda j: j <= 10)
        assert (m, d, reason) == (499, 10, "complete")
        assert p == pytest.approx(11 / 500)
        assert decision == "significant"  # 0.022 <= 0.05

    def test_sprt_mmax_fallback(self):
        cfg = SeqTestConfig(method="sprt", mmax=20)
        # one exceedance at j=10 keeps the ratio inside both boundaries:
        # llr stays within (9*0.0211 - 0.4055, 9*0.0211) for all 20 draws
        decision, p, m, d, reason = run_sequential(cfg, lambda j: j == 10)
        assert (m, d, reason) == (20, 1, "mmax_fallback")
        assert p == pytest.approx(2 / 21)
        assert decision == "not_significant"  # 0.095 > 0.05

    def test_undecided_when_fallback_disabled(self):
        cfg = SeqTestConfig(method="sprt", mmax=20, mmax_fallback=False)
        decision, _, _, _, reason = run_sequential(cfg, lambda j: j == 10)
        assert (decision, reason) == ("undecided", "mmax_undecided")

    def test_sapt_custom_bounds(self):
        cfg = SeqTestConfig(method="sapt", mmax=500, sapt_bounds=(-0.5, 0.5))
        _, _, m_narrow, _, _ = run_sequential(cfg, lambda j: False)
        cfg2 = SeqTestConfig(method="sapt", mmax=500)
        _, _, m_default, _, _ = run_sequential(cfg2, lambda j: False)
        assert m_narrow < m_default

    def test_p_estimate_strictly_positive(self):
        for method in ("sprt", "sapt", "pval", "certain", "complete"):
            cfg = SeqTestConfig(method=method, mmax=50)
            for pattern in (lambda j: False, lambda j: True, lambda j: j % 3 == 0):
                _, p, m, d, _ = run_sequential(cfg, pattern)
                assert 0.0 < p <= 1.0
                assert d <= m <= 50

    def test_agreement_with_complete_oracle(self):
        # battery over null and strong-signal exceedance processes: each
        # sequential method matches the full-budget decision >= 90%
        cfg_by_method = {m: SeqTestConfig(method=m, mmax=100)
                         for m in ("sprt", "sapt", "pval", "certain")}
        agree = {m: 0 for m in cfg_by_method}
        n_cases = 200
        for case in range(n_cases):
            rng = stream(42, "agreement", case)
            p_true = 0.5 if case % 2 == 0 else 0.02
            flags = rng.random(100) < p_true
            d_full = int(flags.sum())
            oracle = "significant" if (d_full + 1) / 101 <= 0.05 else "not_significant"
            for method, cfg in cfg_by_method.items():
                decision, *_ = run_sequential(cfg, lambda j: bool(flags[j - 1]))
                agree[method] += decision == oracle
        for method, count in agree.items():
            assert count >= 0.9 * n_cases, (method, count)

    def test_early_stopping_payoff_under_null(self):
        # mean permutations consumed < 0.5 * mmax for every method
        for method in ("sprt", "sapt", "pval", "certain"):
            cfg = SeqTestConfig(method=method, mmax=100)
            used = []
            for rep in range(100):
                rng = stream(7, method, rep)
                flags = rng.random(100) < 0.5
                _, _, m, _, _ = run_sequential(cfg, lambda j: bool(flags[j - 1]))
                used.append(m)
            assert np.mean(used) < 50, method

    def test_config_validation(self):
        with pytest.raises(ValueError, match="method"):
            SeqTestConfig(method="bogus")
        with pytest.raises(ValueError, match="p1 < alpha < p0"):
            SeqTestConfig(p0=0.04, p1=0.06)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # constructing a config only validates it
            coarse = SeqTestConfig(mmax=5, ntree=5)
        X, y = signal_data(10)
        with pytest.warns(UserWarning, match="below the supported minimum"):
            rfvimptest(X, y, "x0", coarse, seed=1, forest_config=FAST_FOREST)
        with pytest.raises(ValueError, match="sapt_bounds applies only to method 'sapt'"):
            SeqTestConfig(method="sprt", mmax=200, sapt_bounds=(-0.1, 0.1))

    @pytest.mark.parametrize("field, value, problem", [
        ("mmax", 15.5, "mmax must be an integer >= 1, got 15.5"),
        ("mmax", True, "mmax must be an integer >= 1, got True"),
        ("ntree", 2.5, "ntree must be an integer >= 1, got 2.5"),
        ("nperm", 1.5, "nperm must be an integer >= 1, got 1.5"),
        ("mmax", 0, "mmax must be an integer >= 1, got 0"),
        ("ntree", 0, "ntree must be an integer >= 1, got 0"),
        ("nperm", 0, "nperm must be an integer >= 1, got 0")])
    def test_non_integer_count_rejected(self, field, value, problem):
        # caught at construction, not once a test runs inside a pool worker;
        # mmax=True is not one permutation
        with pytest.raises(ValueError) as info:
            SeqTestConfig(**{"mmax": 40, field: value})
        assert str(info.value) == problem
        assert getattr(SeqTestConfig(**{"mmax": 40, field: np.int64(1)}), field) == 1

    @pytest.mark.parametrize("field, value", [
        ("p1", "x"), ("gamma", None), ("alpha", True), ("beta", [0.2])])
    def test_non_number_probability_rejected(self, field, value):
        # not a TypeError from a comparison, and a switch is not a number
        with pytest.raises(ValueError) as info:
            SeqTestConfig(**{"mmax": 40, field: value})
        assert str(info.value) == ("p0, p1, alpha, beta and gamma must be numbers, "
                                   f"got {field}={value!r}")

    def test_numpy_numbers_accepted(self):
        cfg = SeqTestConfig(p0=np.float64(0.06), p1=np.float32(0.04), gamma=np.float64(0.05))
        assert cfg.p0 == 0.06 and cfg.p1 < cfg.alpha
        SeqTestConfig(method="sapt", mmax=200, sapt_bounds=(np.float64(-1.0), np.int64(2)))

    def test_mmax_fallback_must_be_bool(self):
        # "no" is truthy: it must not switch the fallback on
        with pytest.raises(ValueError, match="mmax_fallback must be a bool, got 'no'"):
            SeqTestConfig(mmax_fallback="no")

    @pytest.mark.parametrize("bounds", [(-1.0, True), (None, 1.0), (-1.0, "1")])
    def test_non_number_sapt_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="sapt_bounds must be a pair"):
            SeqTestConfig(method="sapt", mmax=200, sapt_bounds=bounds)

    def test_fractional_seed_rejected(self):
        # a fractional seed must not reuse its integer part's streams
        for seed in (2.5, True):
            with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed}"):
                derive_seed(seed, "a")
        assert derive_seed(np.int64(2), "a") == derive_seed(2, "a")

    @pytest.mark.parametrize("method, shortest", [("sprt", 132), ("sapt", 75)])
    def test_unreachable_significance_warns(self, method, shortest):
        # the demo settings: mmax=40 with the default p0, p1, alpha, beta
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # constructing a config only validates it
            cfg = SeqTestConfig(method=method, mmax=40, ntree=5)
        X, y = signal_data(11)
        with pytest.warns(UserWarning, match=f"needs at least {shortest} permutations"):
            rfvimptest_all(X, y, ["x0"], cfg, master_seed=2, forest_config=FAST_FOREST)

    @pytest.mark.parametrize("method", ["certain", "complete"])
    def test_p_value_floor_above_alpha_warns(self, method):
        # 1/(mmax + 1) > alpha = 0.05 until mmax = 19
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # constructing a config only validates it
            floor_above, floor_at = (SeqTestConfig(method=method, mmax=mmax, ntree=5)
                                     for mmax in (15, 19))
        X, y = signal_data(12)
        with pytest.warns(UserWarning, match=f"{method} cannot reach 'significant' with mmax=15"):
            rfvimptest_all(X, y, ["x0"], floor_above, master_seed=3, forest_config=FAST_FOREST)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rfvimptest_all(X, y, ["x0"], floor_at, master_seed=3, forest_config=FAST_FOREST)

    def test_reachable_significance_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SeqTestConfig(method="sprt", mmax=200)
            SeqTestConfig(method="sapt", mmax=200)


class TestRfvimptest:
    def test_null_variable_not_significant_and_fast(self):
        X, y = signal_data(11)
        cfg = SeqTestConfig(method="sprt", mmax=100, ntree=10, nperm=1)
        dec = rfvimptest(X, y, "x0", cfg, seed=3, forest_config=FAST_FOREST)
        assert dec.decision == "not_significant"
        assert dec.m < 50

    def test_signal_variable_significant(self):
        X, y = signal_data(12)
        cfg = SeqTestConfig(method="certain", mmax=60, ntree=15, nperm=1)
        dec = rfvimptest(X, y, "x1", cfg, seed=4, forest_config=FAST_FOREST)
        assert dec.decision == "significant"
        assert dec.observed_vimp > 0

    def test_deterministic(self):
        X, y = signal_data(13)
        cfg = SeqTestConfig(method="pval", mmax=30, ntree=8, nperm=2)
        a = rfvimptest(X, y, "x0", cfg, seed=5, forest_config=FAST_FOREST)
        b = rfvimptest(X, y, "x0", cfg, seed=5, forest_config=FAST_FOREST)
        assert a == b

    def test_permutation_streams_order_free(self):
        # permutation j's shuffle depends only on (seed, variable, j)
        n = 40
        draws_fwd = [stream(9, "x0", "perm", j).permutation(n) for j in (1, 2, 3)]
        draws_rev = [stream(9, "x0", "perm", j).permutation(n) for j in (3, 2, 1)]
        for a, b in zip(draws_fwd, reversed(draws_rev)):
            np.testing.assert_array_equal(a, b)

    def test_mmax_one_complete_well_defined(self):
        X, y = signal_data(14)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # constructing a config only validates it
            cfg = SeqTestConfig(method="complete", mmax=1, ntree=5, nperm=1)
        with pytest.warns(UserWarning):
            dec = rfvimptest(X, y, "x0", cfg, seed=6, forest_config=FAST_FOREST)
        assert dec.p_estimate in (0.5, 1.0)

    def test_unknown_variable(self):
        X, y = signal_data(16)
        cfg = SeqTestConfig(method="complete", mmax=10, ntree=5)
        with pytest.raises(KeyError, match="x9"):
            rfvimptest(X, y, "x9", cfg, seed=8)


class InjectedError(Exception):
    """Raised inside one variable's test; defined at module level so a pool
    worker can send it back."""


class TestRfvimptestAll:
    def test_worker_counts_give_identical_decisions(self):
        X, y = signal_data(17)
        cfg = SeqTestConfig(method="sprt", mmax=20, ntree=8, nperm=1)
        maps = {}
        for workers in (1, 2):
            maps[workers] = rfvimptest_all(X, y, ["x0", "x1"], cfg, master_seed=11,
                                           workers=workers,
                                           forest_config=FAST_FOREST)
        assert maps[1] == maps[2]
        # byte-level identity of the serialized decision maps
        blobs = {w: json.dumps({k: vars(v) for k, v in m.items()}, sort_keys=True)
                 for w, m in maps.items()}
        assert blobs[1] == blobs[2]

    def test_pval_rule_loads_no_scipy_in_any_process(self, tmp_path):
        # a fresh interpreter in which importing scipy fails, in the parent and
        # in every forked worker: the pval rule runs all the same, and gives
        # the same decisions with 2 workers and with 1
        X, y = signal_data(17)
        np.save(tmp_path / "X.npy", X)
        np.save(tmp_path / "y.npy", y)
        code = textwrap.dedent("""
            import json, sys
            sys.modules["scipy"] = None  # from here on, importing scipy raises
            try:
                import scipy.special
            except ImportError:
                print(json.dumps("blocked"))
            import numpy as np
            from panelforest.forest import ForestConfig
            from panelforest.vimp import SeqTestConfig, rfvimptest_all
            X, y = np.load(sys.argv[1]), np.load(sys.argv[2])
            cfg = SeqTestConfig(method="pval", mmax=20, ntree=8, nperm=1)
            for workers in (2, 1):
                decisions = rfvimptest_all(X, y, ["x0", "x1"], cfg, master_seed=11,
                                           workers=workers,
                                           forest_config=ForestConfig(n_trees=10, min_leaf=5))
                print(json.dumps({k: vars(v) for k, v in decisions.items()}, sort_keys=True))
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "X.npy"),
                              str(tmp_path / "y.npy")], env=env, capture_output=True,
                             text=True, check=True).stdout
        blocked, two, one = map(json.loads, out.splitlines())
        assert blocked == "blocked"
        assert two == one
        assert "ci_boundary" in {d["stopping_reason"] for d in one.values()}

    def test_unknown_variable_rejected_before_any_forest(self, monkeypatch):
        def no_forest(*args, **kwargs):
            raise AssertionError("a forest was fit")

        monkeypatch.setattr(vimp, "_grow_forests", no_forest)  # every forest of a test
        X, y = signal_data(18)
        cfg = SeqTestConfig(method="sprt", mmax=15, ntree=5, nperm=1)
        with pytest.raises(KeyError, match="ghost"):
            rfvimptest_all(X, y, ["x0", "ghost"], cfg, master_seed=12,
                           feature_names=["x0", "x1"], forest_config=FAST_FOREST)

    def test_repeated_variable_rejected_before_any_forest(self, monkeypatch):
        def no_forest(*args, **kwargs):
            raise AssertionError("a forest was fit")

        monkeypatch.setattr(vimp, "_grow_forests", no_forest)  # every forest of a test
        X, y = signal_data(18)
        cfg = SeqTestConfig(method="sprt", mmax=15, ntree=5, nperm=1)
        with pytest.raises(ValueError, match=r"\['x0'\] are listed more than once"):
            rfvimptest_all(X, y, ["x0", "x0", "x1"], cfg, master_seed=12,
                           feature_names=["x0", "x1"], forest_config=FAST_FOREST)

    @pytest.mark.parametrize("workers", [2.0, 1.5, "2", True, 0])
    def test_non_integer_workers_rejected_before_any_forest(self, workers, monkeypatch):
        # not a TypeError from inside the pool, and a switch is not a count
        def no_forest(*args, **kwargs):
            raise AssertionError("a forest was fit")

        monkeypatch.setattr(vimp, "_grow_forests", no_forest)
        X, y = signal_data(18)
        cfg = SeqTestConfig(method="sprt", mmax=15, ntree=5, nperm=1)
        with pytest.raises(ValueError) as info:
            rfvimptest_all(X, y, ["x0", "x1"], cfg, master_seed=12, workers=workers,
                           forest_config=FAST_FOREST)
        assert str(info.value) == f"workers must be an integer >= 1, got {workers!r}"
        assert "_stops" not in vars(cfg)  # nor any stopping table

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_in_one_test_reaches_the_caller(self, workers, monkeypatch):
        grow_forests = vimp._grow_forests
        x1_observed = derive_seed(12, "x1", "observed", "fit")  # in x1's first block

        def failing(X, y, seeds, *args):
            if x1_observed in seeds:
                raise InjectedError("x1 failed")
            return grow_forests(X, y, seeds, *args)

        monkeypatch.setattr(vimp, "_grow_forests", failing)
        X, y = signal_data(18)
        cfg = SeqTestConfig(method="complete", mmax=10, ntree=5, nperm=1)
        with pytest.raises(InjectedError, match="x1 failed"):
            rfvimptest_all(X, y, ["x0", "x1"], cfg, master_seed=12, workers=workers,
                           forest_config=FAST_FOREST)

    def test_decisions_free_of_workers_and_block_size(self, monkeypatch):
        X, y = signal_data(22, n=80)
        cfg = SeqTestConfig(method="sprt", mmax=25, ntree=6, nperm=2)
        runs = {}
        # blocks of 17 null forests (the derived size), of 3, and of 1
        for entries in (vimp._ENTRIES_PER_GROUP, 3 * 80 * 6, 1):
            monkeypatch.setattr(vimp, "_ENTRIES_PER_GROUP", entries)
            for workers in (1, 2):
                runs[entries, workers] = rfvimptest_all(X, y, ["x0", "x1"], cfg,
                                                        master_seed=16, workers=workers,
                                                        forest_config=FAST_FOREST)
        first = runs[vimp._ENTRIES_PER_GROUP, 1]
        assert [key for key, run in runs.items() if run != first] == []

    def test_blocks_grow_only_as_the_rule_asks(self, monkeypatch):
        calls = {}
        block_vimps = vimp._block_vimps

        def recording(test, start, stop):
            calls[test.variable].append((start, stop))
            return block_vimps(test, start, stop)

        monkeypatch.setattr(vimp, "_block_vimps", recording)
        X, y = three_columns(25, n=80)
        sprt = SeqTestConfig(method="sprt", mmax=25, ntree=6, nperm=1)
        complete = SeqTestConfig(method="complete", mmax=12, ntree=6, nperm=1)
        # blocks of 3 forests, then of 1
        for size, entries in ((3, 3 * 80 * 6), (1, 1)):
            monkeypatch.setattr(vimp, "_ENTRIES_PER_GROUP", entries)
            calls.update(x0=[], x1=[], x2=[])
            decisions = [*rfvimptest_all(X, y, ["x0", "x1"], sprt, master_seed=19,
                                         forest_config=FAST_FOREST).values(),
                         rfvimptest(X, y, "x2", complete, seed=19,
                                    forest_config=FAST_FOREST)]
            assert all(dec.m < sprt.mmax for dec in decisions[:2])  # sprt stops early
            for dec in decisions:
                blocks = calls[dec.variable]
                assert [start for start, _ in blocks] == [0] + [stop for _, stop in blocks[:-1]]
                assert all(stop - start == size for start, stop in blocks[:-1])
                assert blocks[-1][0] <= dec.m < blocks[-1][1]
                if size == 1:
                    assert blocks[-1][1] == dec.m + 1  # forests 0, ..., m

    def test_pool_sized_by_the_tests(self, monkeypatch):
        sizes = []

        class Recording(ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(vimp, "ProcessPoolExecutor", Recording)
        X, y = signal_data(23)
        cfg = SeqTestConfig(method="complete", mmax=10, ntree=5, nperm=1)
        rfvimptest_all(X, y, ["x0", "x1"], cfg, master_seed=17, workers=8,
                       forest_config=FAST_FOREST)
        assert sizes == [2]

    def test_no_worker_outlives_a_failed_run(self, monkeypatch):
        def failing(*args):
            raise InjectedError("a forest failed")

        monkeypatch.setattr(vimp, "_grow_forests", failing)
        X, y = signal_data(24)
        cfg = SeqTestConfig(method="complete", mmax=10, ntree=5, nperm=1)
        with pytest.raises(InjectedError):
            rfvimptest_all(X, y, ["x0", "x1"], cfg, master_seed=18, workers=2,
                           forest_config=FAST_FOREST)
        assert multiprocessing.active_children() == []

    def test_result_order_follows_input(self):
        X, y = signal_data(19)
        cfg = SeqTestConfig(method="complete", mmax=10, ntree=5, nperm=1)
        out = rfvimptest_all(X, y, ["x1", "x0"], cfg, master_seed=13,
                             forest_config=FAST_FOREST)
        assert list(out) == ["x1", "x0"]

    @pytest.mark.skipif((os.cpu_count() or 1) < 4,
                        reason="timing criterion presumes a 4-core host")
    def test_parallel_speedup_on_mmax_bound_runs(self):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(120, 4))
        y = X @ np.array([1.0, 0.8, 0.6, 0.4]) + 0.1 * rng.normal(size=120)
        cfg = SeqTestConfig(method="complete", mmax=60, ntree=15, nperm=1)
        names = ["x0", "x1", "x2", "x3"]
        t0 = time.perf_counter()
        serial = rfvimptest_all(X, y, names, cfg, master_seed=14, workers=1)
        t_serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel = rfvimptest_all(X, y, names, cfg, master_seed=14, workers=4)
        t_parallel = time.perf_counter() - t0
        assert serial == parallel
        assert t_parallel < 0.6 * t_serial


def three_columns(seed, n=60):
    """Signal in column 2 only, which two feature names leave untested."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    return X, X[:, 2] + 0.5 * rng.normal(size=n)


class TestDesignChecks:
    """Every entry point checks each design as `fit_forest` does, before
    any pool starts or any forest grows."""

    CFG = SeqTestConfig(method="complete", mmax=10, ntree=5, nperm=1)

    @staticmethod
    def run(entry, X, y, names, workers=1):
        if entry == "rfvimptest":
            return rfvimptest(X, y, names[0], TestDesignChecks.CFG, seed=1,
                              feature_names=names, forest_config=FAST_FOREST)
        if entry == "rfvimptest_all":
            return rfvimptest_all(X, y, names, TestDesignChecks.CFG, master_seed=1,
                                  workers=workers, feature_names=names,
                                  forest_config=FAST_FOREST)
        good_X, good_y = signal_data(26)  # checked too, and nothing runs for it
        return rfvimptest_many([(good_X, good_y, ["x0", "x1"], 2), (X, y, names, 1)],
                               TestDesignChecks.CFG, workers=workers,
                               forest_config=FAST_FOREST)

    @pytest.mark.parametrize("entry", ["rfvimptest", "rfvimptest_all", "rfvimptest_many"])
    @pytest.mark.parametrize("names, problem", [
        (["x0", "x1"], "feature_names length must match X columns"),
        (["x0", "x1", "x2", "x3"], "feature_names length must match X columns"),
        (["a", "b", "a"], r"duplicate feature names: \['a'\]"),  # would merge two tests
    ], ids=["too-few", "too-many", "duplicate"])
    def test_names_checked(self, entry, names, problem):
        X, y = three_columns(27)
        with pytest.raises(ValueError, match=problem):
            self.run(entry, X, y, names)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("entry", ["rfvimptest_all", "rfvimptest_many"])
    @pytest.mark.parametrize("bad, problem", [
        ("nan", "must not contain missing values"),
        ("inf", "must not contain infinite values"),
        ("short_y", "X has 60 rows but y has 59"),
        ("few_rows", "need at least 10 rows, got 9"),
    ])
    def test_bad_design_fails_before_any_pool_or_forest(self, bad, problem, entry, workers,
                                                        monkeypatch):
        sizes = []

        class Recording(ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        def no_forest(*args):
            raise AssertionError("a forest was grown")

        monkeypatch.setattr(vimp, "ProcessPoolExecutor", Recording)
        monkeypatch.setattr(vimp, "_grow_forests", no_forest)
        X, y = signal_data(29)
        if bad == "nan":
            X[3, 1] = np.nan
        elif bad == "inf":
            y[5] = -np.inf
        elif bad == "short_y":
            y = y[:-1]
        else:
            X, y = X[:9], y[:9]
        with pytest.raises(ValueError, match=problem):
            self.run(entry, X, y, ["x0", "x1"], workers)
        assert sizes == []


class TestConstantTarget:
    """On a constant target every importance is NaN (R-squared is 0/0),
    which must count as an exceedance, not as evidence of importance."""

    @pytest.mark.parametrize("method", vimp.METHODS)
    def test_nan_importance_never_significant(self, method):
        X, y = signal_data(30, n=80)
        y[:] = 1.5
        cfg = SeqTestConfig(method=method, mmax=30, ntree=5, nperm=1)
        out = rfvimptest_all(X, y, ["x0", "x1"], cfg, master_seed=31,
                             forest_config=FAST_FOREST)
        for dec in out.values():
            assert np.isnan(dec.observed_vimp)
            assert (dec.decision, dec.d) == ("not_significant", dec.m)


class TestSignificanceCodes:
    def test_thresholds(self):
        codes = significance_codes({"a": 0.004, "b": 0.05, "c": 0.051,
                                    "d": 0.10, "e": 0.5})
        assert codes == {"a": "***", "b": "**", "c": "*", "d": "*", "e": ""}

    def test_accepts_decisions(self):
        X, y = signal_data(21)
        cfg = SeqTestConfig(method="complete", mmax=10, ntree=5, nperm=1)
        out = rfvimptest_all(X, y, ["x1"], cfg, master_seed=15,
                             forest_config=FAST_FOREST)
        codes = significance_codes(out)
        assert set(codes) == {"x1"}
        assert codes["x1"] in ("", "*", "**", "***")
