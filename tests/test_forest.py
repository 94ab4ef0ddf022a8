import json
import math
from pathlib import Path

import numpy as np
import pytest

from panelforest.forest import (
    Forest,
    ForestConfig,
    fit_forest,
    forest_metrics,
    load_forest,
    mdi_importance,
    oob_predictions,
    oob_score,
    predict,
    r2_score,
    save_forest,
)


def forests_equal(a: Forest, b: Forest) -> bool:
    if len(a.trees) != len(b.trees):
        return False
    for ta, tb in zip(a.trees, b.trees):
        for fa, fb in [(ta.feature, tb.feature), (ta.left, tb.left),
                       (ta.right, tb.right), (ta.value, tb.value),
                       (ta.n_samples, tb.n_samples)]:
            if not np.array_equal(fa, fb):
                return False
        if not np.array_equal(ta.threshold, tb.threshold, equal_nan=True):
            return False
    return np.array_equal(a.in_bag_counts, b.in_bag_counts)


def brute_force_best_split(x, y, min_leaf):
    """Exhaustive single-feature split oracle: scan every midpoint."""
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    best = (math.inf, None)
    n = len(xs)
    for i in range(n - 1):
        if xs[i] == xs[i + 1]:
            continue
        if i + 1 < min_leaf or n - i - 1 < min_leaf:
            continue
        left, right = ys[: i + 1], ys[i + 1:]
        sse = (np.sum((left - left.mean()) ** 2)
               + np.sum((right - right.mean()) ** 2))
        if sse < best[0]:
            best = (sse, 0.5 * (xs[i] + xs[i + 1]))
    return best


class TestFitForest:
    def test_constant_target(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 2))
        y = np.full(30, 7.0)
        f = fit_forest(X, y, ForestConfig(n_trees=10, seed=1))
        assert np.array_equal(predict(f, X), np.full(30, 7.0))
        assert all(t.n_nodes == 1 for t in f.trees)
        assert math.isnan(r2_score(y, predict(f, X)))

    def test_step_function_nearly_perfect(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(64, 1))
        y = np.where(X[:, 0] > 0.3, 2.0, -1.0)
        f = fit_forest(X, y, ForestConfig(n_trees=50, min_leaf=1, seed=2))
        assert r2_score(y, predict(f, X)) >= 0.99

    def test_root_split_matches_exhaustive_oracle(self):
        # with mtry=p and a depth-1 tree, the root split must equal the
        # brute-force best split of the bootstrap sample
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 1))
        y = X[:, 0] ** 2 + 0.1 * rng.normal(size=40)
        cfg = ForestConfig(n_trees=3, mtry=1, min_leaf=5, max_depth=1, seed=9)
        f = fit_forest(X, y, cfg)
        for i, tree in enumerate(f.trees):
            boot = np.repeat(np.arange(40), f.in_bag_counts[i])
            _, thr = brute_force_best_split(X[boot, 0], y[boot], 5)
            assert tree.feature[0] == 0
            assert tree.threshold[0] == pytest.approx(thr, abs=0)

    def test_determinism_same_seed(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(80, 3))
        y = X[:, 0] + rng.normal(size=80)
        cfg = ForestConfig(n_trees=20, seed=11)
        assert forests_equal(fit_forest(X, y, cfg), fit_forest(X, y, cfg))

    def test_different_seed_differs(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(80, 3))
        y = X[:, 0] + rng.normal(size=80)
        a = fit_forest(X, y, ForestConfig(n_trees=20, seed=11))
        b = fit_forest(X, y, ForestConfig(n_trees=20, seed=12))
        assert not forests_equal(a, b)

    def test_missing_values_rejected(self):
        X = np.array([[1.0, np.nan], [2.0, 3.0]] * 5)
        with pytest.raises(ValueError, match="missing"):
            fit_forest(X, np.ones(10), ForestConfig(n_trees=2, min_leaf=1))

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="at least"):
            fit_forest(np.ones((4, 1)), np.ones(4), ForestConfig(n_trees=1, min_leaf=5))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ForestConfig(n_trees=0)
        with pytest.raises(ValueError):
            ForestConfig(min_leaf=0)
        with pytest.raises(ValueError):
            fit_forest(np.ones((20, 2)), np.ones(20), ForestConfig(mtry=3))

    def test_leaf_sample_counts_sum_to_bootstrap_size(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 2))
        y = rng.normal(size=60)
        f = fit_forest(X, y, ForestConfig(n_trees=10, seed=3))
        for tree in f.trees:
            leaves = tree.feature < 0
            assert tree.n_samples[leaves].sum() == 60
            assert tree.n_samples[0] == 60

    def test_monotone_feature_rescale_keeps_predictions(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(70, 2))
        y = X[:, 0] * X[:, 1] + 0.2 * rng.normal(size=70)
        cfg = ForestConfig(n_trees=15, seed=8)
        f1 = fit_forest(X, y, cfg)
        X2 = X.copy()
        X2[:, 0] = 2.0 * X2[:, 0] + 1.0  # strictly increasing rescale
        f2 = fit_forest(X2, y, cfg)
        for ta, tb in zip(f1.trees, f2.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.value, tb.value)
        grid = rng.normal(size=(25, 2))
        grid2 = grid.copy()
        grid2[:, 0] = 2.0 * grid2[:, 0] + 1.0
        np.testing.assert_allclose(predict(f1, grid), predict(f2, grid2), rtol=0, atol=0)

    def test_predictions_bounded_by_training_target(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(50, 2))
            y = rng.normal(size=50) * 3
            f = fit_forest(X, y, ForestConfig(n_trees=10, seed=seed))
            far = rng.normal(size=(100, 2)) * 10
            p = predict(f, far)
            assert p.min() >= y.min() and p.max() <= y.max()


class TestPredict:
    def test_single_tree_equals_leaf_value(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]] * 3)
        y = np.array([0.0, 1.0, 2.0, 3.0] * 3)
        f = fit_forest(X, y, ForestConfig(n_trees=1, min_leaf=1, seed=0))
        tree = f.trees[0]
        np.testing.assert_array_equal(predict(f, X), tree.predict(X))

    def test_mean_of_two_trees(self):
        # constant-target forests predict their target exactly, so a
        # hand-built mean check: average of per-tree predictions
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        f = fit_forest(X, y, ForestConfig(n_trees=2, seed=4))
        expected = (f.trees[0].predict(X) + f.trees[1].predict(X)) / 2.0
        np.testing.assert_allclose(predict(f, X), expected, atol=1e-15)

    def test_equals_per_tree_enumeration(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 3))
        y = X[:, 1] + rng.normal(size=50)
        f = fit_forest(X, y, ForestConfig(n_trees=12, seed=5))
        pts = rng.normal(size=(40, 3))
        manual = np.mean([t.predict(pts) for t in f.trees], axis=0)
        np.testing.assert_allclose(predict(f, pts), manual, atol=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 2))
        f = fit_forest(X, rng.normal(size=30), ForestConfig(n_trees=2, seed=1))
        with pytest.raises(ValueError):
            predict(f, rng.normal(size=(5, 3)))


class TestOob:
    def test_unique_inbag_fraction_matches_expectation(self):
        # closed form: E[unique fraction] = 1 - (1 - 1/n)^n
        n = 400
        rng = np.random.default_rng(7)
        X = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        f = fit_forest(X, y, ForestConfig(n_trees=200, seed=13))
        fracs = [(counts > 0).mean() for counts in f.in_bag_counts]
        expected = 1.0 - (1.0 - 1.0 / n) ** n
        assert abs(np.mean(fracs) - expected) <= 0.02

    def test_inbag_rows_excluded_for_single_tree(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        f = fit_forest(X, y, ForestConfig(n_trees=1, seed=2))
        preds, covered = oob_predictions(f, X)
        inbag = f.in_bag_counts[0] > 0
        assert not covered[inbag].any()
        assert covered[~inbag].all()
        assert np.isnan(preds[inbag]).all()

    def test_oob_not_above_training_r2(self):
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(100, 3))
            y = X[:, 0] + rng.normal(size=100)
            f = fit_forest(X, y, ForestConfig(n_trees=30, seed=seed))
            wins += oob_score(f, X, y).oob_r2 <= r2_score(y, predict(f, X))
        assert wins >= 95

    def test_coverage_error_when_impossible(self):
        rng = np.random.default_rng(9)
        n = 12
        X = rng.normal(size=(n, 1))
        y = rng.normal(size=n)
        f = fit_forest(X, y, ForestConfig(n_trees=1, min_leaf=1, seed=40))
        if (f.in_bag_counts[0] > 0).all():  # bootstrap happened to hit all rows
            with pytest.raises(ValueError, match="out-of-bag"):
                oob_score(f, X, y)
        else:
            assert oob_score(f, X, y).coverage_fraction < 1.0


class TestR2Score:
    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, y) == 1.0

    def test_mean_prediction_scores_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, np.full(3, 2.0)) == 0.0

    def test_hand_computed(self):
        # RSS = 1, TSS = 2 -> 0.5
        assert r2_score(np.array([1.0, 2.0, 3.0]),
                        np.array([1.0, 2.0, 2.0])) == pytest.approx(0.5, abs=1e-15)

    def test_zero_tss_marker(self):
        assert math.isnan(r2_score(np.array([2.0, 2.0]), np.array([1.0, 3.0])))

    def test_matches_independent_formula(self):
        # acceptance-grade oracle on a few vectors (full battery in acceptance)
        rng = np.random.default_rng(10)
        for _ in range(50):
            y = rng.normal(size=20)
            p = rng.normal(size=20)
            rss = math.fsum((a - b) ** 2 for a, b in zip(y, p))
            mean = math.fsum(y) / len(y)
            tss = math.fsum((a - mean) ** 2 for a in y)
            assert abs(r2_score(y, p) - (1 - rss / tss)) < 1e-12


class TestMdiImportance:
    def test_unused_feature_scores_zero(self):
        rng = np.random.default_rng(11)
        X = np.column_stack([rng.normal(size=60), np.zeros(60)])  # x1 constant
        y = X[:, 0] + 0.1 * rng.normal(size=60)
        f = fit_forest(X, y, ForestConfig(n_trees=10, seed=3))
        scores = mdi_importance(f)
        assert scores["x1"] == 0.0

    def test_scores_sum_to_one(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(80, 4))
        y = X @ np.array([1.0, 0.5, 0.0, -2.0]) + rng.normal(size=80)
        f = fit_forest(X, y, ForestConfig(n_trees=20, seed=6))
        assert sum(mdi_importance(f).values()) == pytest.approx(1.0, abs=1e-9)

    def test_signal_feature_dominates(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(100, 2))
            y = np.sin(2 * X[:, 0]) + 0.05 * rng.normal(size=100)
            f = fit_forest(X, y, ForestConfig(n_trees=30, mtry=2, seed=seed))
            hits += mdi_importance(f)["x0"] > 0.9
        assert hits >= 95

    def test_all_leaf_forest_zero_vector_with_marker(self):
        X = np.ones((20, 2))  # nothing to split on
        y = np.arange(20.0)
        f = fit_forest(X, y, ForestConfig(n_trees=5, seed=1))
        with pytest.warns(UserWarning, match="no splits"):
            scores = mdi_importance(f)
        assert set(scores.values()) == {0.0}


class TestForestMetrics:
    @staticmethod
    def pseudo_f(r2, n, k):
        return (r2 / k) / ((1 - r2) / (n - k - 1))

    def test_pseudo_f_closed_form_point(self):
        assert self.pseudo_f(0.5, 102, 1) == pytest.approx(100.0, abs=1e-12)

    def test_perfect_fit_zero_mse(self):
        X = np.array([[0.0], [1.0]] * 10)
        y = np.array([0.0, 1.0] * 10)
        f = fit_forest(X, y, ForestConfig(n_trees=5, min_leaf=1, seed=2))
        m = forest_metrics(f, X, y)
        assert m.r2 == 1.0 and m.mse == 0.0

    def test_consistent_with_formula(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(50, 2))
        y = X[:, 0] + rng.normal(size=50)
        f = fit_forest(X, y, ForestConfig(n_trees=10, seed=7))
        m = forest_metrics(f, X, y)
        assert m.pseudo_f == pytest.approx(self.pseudo_f(m.r2, 50, 2), rel=1e-12)
        assert m.adj_r2 == pytest.approx(1 - (1 - m.r2) * 49 / (50 - 3), rel=1e-12)
        assert m.adj_r2 <= m.r2 <= 1.0

    def test_degenerate_n_markers(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(10, 2))
        y = X[:, 0] + 0.1 * rng.normal(size=10)
        f = fit_forest(X, y, ForestConfig(n_trees=3, min_leaf=1, seed=4))
        m = forest_metrics(f, X, y, k=9)
        assert math.isnan(m.adj_r2) and math.isnan(m.pseudo_f)


class TestSerialization:
    def test_round_trip_preserves_everything(self, tmp_path):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(60, 3))
        y = X[:, 0] + 0.2 * rng.normal(size=60)
        f = fit_forest(X, y, ForestConfig(n_trees=8, seed=21), ["a", "b", "c"])
        path = tmp_path / "forest.json"
        save_forest(f, path)
        g = load_forest(path)
        assert g.feature_names == f.feature_names
        assert g.config == f.config
        np.testing.assert_array_equal(g.in_bag_counts, f.in_bag_counts)
        pts = rng.normal(size=(20, 3))
        np.testing.assert_array_equal(predict(g, pts), predict(f, pts))
        assert oob_score(g, X, y) == oob_score(f, X, y)
        assert mdi_importance(g) == mdi_importance(f)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "forest.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError, match="version"):
            load_forest(path)


GOLDEN = Path(__file__).parent / "golden"


class TestTreeOrderSums:
    """Forest outputs add per-tree predictions in tree order, bit for bit:
    another summation order changes last digits and the artifact hash."""

    @staticmethod
    def fitted(seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(90, 3))
        y = X[:, 0] * X[:, 1] + np.sin(3 * X[:, 2]) + rng.normal(size=90)
        cfg = ForestConfig(n_trees=17, min_leaf=2, seed=seed)
        return fit_forest(X, y, cfg), X, rng.normal(size=(33, 3)) * 2

    def test_predict_equals_tree_order_sum(self):
        for seed in range(5):
            f, X, pts = self.fitted(seed)
            for rows in (X, pts):
                total = np.zeros(len(rows))
                for tree in f.trees:
                    total += tree.predict(rows)
                assert np.array_equal(predict(f, rows), total / len(f.trees))

    def test_oob_equals_tree_order_sum(self):
        for seed in range(5):
            f, X, _ = self.fitted(seed)
            totals, counts = np.zeros(len(X)), np.zeros(len(X), dtype=int)
            for tree, in_bag in zip(f.trees, f.in_bag_counts):
                oob = in_bag == 0
                totals[oob] += tree.predict(X)[oob]
                counts[oob] += 1
            covered = counts > 0
            expected = np.full(len(X), np.nan)
            expected[covered] = totals[covered] / counts[covered]
            preds, got_covered = oob_predictions(f, X)
            assert np.array_equal(got_covered, covered)
            assert np.array_equal(preds, expected, equal_nan=True)


class TestGoldenForestFile:
    """forest_v1.json is a format-1 file written when each tree was stored
    as its own arrays; forest_v1_expected.json holds what it predicted then."""

    def test_loads_and_predicts_exactly(self):
        f = load_forest(GOLDEN / "forest_v1.json")
        expected = json.loads((GOLDEN / "forest_v1_expected.json").read_text())
        X, grid = np.array(expected["X"]), np.array(expected["grid"])
        assert np.array_equal(predict(f, grid), expected["predict_grid"])
        assert np.array_equal(predict(f, X), expected["predict_train"])
        oob, _ = oob_predictions(f, X)
        assert np.array_equal(oob, np.array(expected["oob"], dtype=float), equal_nan=True)
        assert mdi_importance(f) == expected["mdi"]

    def test_save_writes_the_same_document(self, tmp_path):
        save_forest(load_forest(GOLDEN / "forest_v1.json"), tmp_path / "again.json")
        old, new = (json.loads(path.read_text())
                    for path in (GOLDEN / "forest_v1.json", tmp_path / "again.json"))
        for doc in (old, new):  # target range keys: optional, ignored on load
            doc.pop("y_min", None)
            doc.pop("y_max", None)
        assert new == old
