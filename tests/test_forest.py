import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelforest.forest import (
    Forest,
    ForestConfig,
    Tree,
    _leaves,
    fit_forest,
    forest_metrics,
    mdi_importance,
    oob_predictions,
    oob_score,
    predict,
    r2_score,
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

    def test_duplicate_feature_names_rejected(self):
        # two columns named "a" would merge into one importance entry
        X = np.arange(24.0).reshape(12, 2)
        with pytest.raises(ValueError, match=r"duplicate feature names: \['a'\]"):
            fit_forest(X, X[:, 1], ForestConfig(n_trees=2, min_leaf=1), ["a", "a"])

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

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ties=st.booleans())
    def test_increasing_map_keeps_partitions(self, seed, ties):
        # Thresholds move with the map, and so may an out-of-bag row that
        # falls between two adjacent bootstrap values, so only the node
        # columns that follow from the training partitions are compared.
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(10, 60)), int(rng.integers(1, 5))
        X = rng.normal(size=(n, p))
        if ties:
            X = np.round(X, 1)
        y = np.sin(X).sum(axis=1) + rng.normal(size=n)
        j = int(rng.integers(p))
        distinct = np.unique(X[:, j])
        scale = 2.0 ** int(rng.integers(-20, 20))
        mapped = scale * (rng.normal() * n + np.cumsum(rng.uniform(0.1, 10.0, len(distinct))))
        X2 = X.copy()
        X2[:, j] = mapped[np.searchsorted(distinct, X[:, j])]
        cfg = ForestConfig(n_trees=5, mtry=int(rng.integers(1, p + 1)),
                           min_leaf=int(rng.integers(1, 6)), seed=seed)
        a, b = fit_forest(X, y, cfg).nodes, fit_forest(X2, y, cfg).nodes
        for name in ("feature", "left", "right", "value", "n_samples", "sse_decrease"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

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

    def test_constant_whose_mean_rounds_off_it(self):
        # the computed mean of 220 copies of log(0.2) is not log(0.2), so
        # the computed TSS is not 0; the target is still constant
        rng = np.random.default_rng(3)
        X = rng.normal(size=(220, 2))
        y = np.full(220, math.log(0.2))
        assert np.mean(y) != y[0]
        f = fit_forest(X, y, ForestConfig(n_trees=10, seed=1))
        assert math.isnan(forest_metrics(f, X, y).r2)
        assert math.isnan(oob_score(f, X, y).oob_r2)

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
        X = rng.normal(size=(3, 2))  # n = 3 <= k + 1
        y = X[:, 0] + 0.1 * rng.normal(size=3)
        f = fit_forest(X, y, ForestConfig(n_trees=3, min_leaf=1, seed=4))
        m = forest_metrics(f, X, y)
        assert math.isnan(m.adj_r2) and math.isnan(m.pseudo_f)


GOLDEN = Path(__file__).parent / "golden"


def golden_forest() -> Forest:
    """The Forest of forest_v1.json: its trees' node columns joined into one
    table, null (leaf) thresholds as NaN.  The file's config, target range
    and bootstrap fraction do not enter the forest."""
    doc = json.loads((GOLDEN / "forest_v1.json").read_text())
    trees = doc["trees"]
    columns = {name: np.array([v for t in trees for v in t[name]]) for name in trees[0]}
    columns["threshold"] = columns["threshold"].astype(float)  # None -> NaN
    roots = np.cumsum([0] + [len(t["feature"]) for t in trees[:-1]])
    names = tuple(doc["feature_names"])
    return Forest(Tree(**columns, n_features=len(names)), roots,
                  np.array(doc["in_bag_counts"]), names, doc["n_rows"])


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
    """forest_v1.json holds a forest written when each tree was stored as
    its own arrays; forest_v1_expected.json holds what it predicted then."""

    def test_loads_and_predicts_exactly(self):
        f = golden_forest()
        expected = json.loads((GOLDEN / "forest_v1_expected.json").read_text())
        X, grid = np.array(expected["X"]), np.array(expected["grid"])
        assert np.array_equal(predict(f, grid), expected["predict_grid"])
        assert np.array_equal(predict(f, X), expected["predict_train"])
        oob, _ = oob_predictions(f, X)
        assert np.array_equal(oob, np.array(expected["oob"], dtype=float), equal_nan=True)
        assert mdi_importance(f) == expected["mdi"]


class TestOobColumns:
    @staticmethod
    def forest_and_wide_x():
        rng = np.random.default_rng(10)
        X = rng.normal(size=(30, 3))
        f = fit_forest(X, X[:, 0] + rng.normal(size=30), ForestConfig(n_trees=5, seed=1))
        return f, np.column_stack([X, X[:, 0]])

    @pytest.mark.parametrize("width", [2, 4])
    def test_wrong_column_count_rejected(self, width):
        f, X4 = self.forest_and_wide_x()
        with pytest.raises(ValueError, match="3 columns"):
            oob_predictions(f, X4[:, :width])

    @pytest.mark.parametrize("width", [1, 4])
    def test_tree_view_checks_column_count(self, width):
        f, X4 = self.forest_and_wide_x()
        with pytest.raises(ValueError, match="3 columns"):
            f.trees[0].predict(X4[:, :width])


def node_multisets(forest, X, t):
    """(node index, bootstrap rows reaching it) of every internal node of tree t."""
    tree = forest.trees[t]
    stack = [(0, np.repeat(np.arange(len(X)), forest.in_bag_counts[t]))]
    while stack:
        i, rows = stack.pop()
        if tree.feature[i] < 0:
            continue
        yield i, rows
        go_left = X[rows, tree.feature[i]] <= tree.threshold[i]
        stack += [(tree.left[i], rows[go_left]), (tree.right[i], rows[~go_left])]


class TestExactNodeSplits:
    """With mtry = p every internal node holds the exhaustive best split of
    its bootstrap multiset; on a tie the lowest feature wins."""

    @staticmethod
    def designs():
        rng = np.random.default_rng(21)
        for k in range(6):
            X = rng.normal(size=(40, 3))
            if k % 3 == 1:
                X[:, 2] = np.exp(X[:, 0])  # same partitions as feature 0: exact ties
            if k % 3 == 2:
                X[:, 1] = np.round(X[:, 0])  # a coarser copy of feature 0
            y = np.sin(X[:, 0]) + X[:, 1] * X[:, 2] + 0.3 * rng.normal(size=40)
            yield k, X, y
            yield k + 6, X, 1e6 + 1e-3 * y  # level far above the spread

    @pytest.mark.parametrize("min_leaf", [1, 3])
    def test_every_node_is_the_best_split(self, min_leaf):
        checked = 0
        for seed, X, y in self.designs():
            f = fit_forest(X, y, ForestConfig(n_trees=3, mtry=3, min_leaf=min_leaf, seed=seed))
            for t, tree in enumerate(f.trees):
                for i, rows in node_multisets(f, X, t):
                    per_feature = [brute_force_best_split(X[rows, j], y[rows], min_leaf)
                                   for j in range(3)]
                    best = min(sse for sse, _ in per_feature)
                    tol = 1e-9 * max(best, np.var(y[rows]) * len(rows), 1e-300)
                    winner = next(j for j, (sse, _) in enumerate(per_feature)
                                  if sse <= best + tol)
                    assert tree.feature[i] == winner
                    assert tree.threshold[i] == per_feature[winner][1]
                    checked += 1
        assert checked > 300


class TestPrefixProperty:
    def test_first_trees_do_not_depend_on_forest_size(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(70, 4))
        y = X[:, 0] + np.sin(2 * X[:, 1]) + 0.3 * rng.normal(size=70)
        big = fit_forest(X, y, ForestConfig(n_trees=12, min_leaf=2, seed=5))
        for k in (1, 5):
            small = fit_forest(X, y, ForestConfig(n_trees=k, min_leaf=2, seed=5))
            assert np.array_equal(small.in_bag_counts, big.in_bag_counts[:k])
            for ta, tb in zip(small.trees, big.trees[:k]):
                for name in ("feature", "left", "right", "value", "n_samples",
                             "sse_decrease"):
                    assert np.array_equal(getattr(ta, name), getattr(tb, name))
                assert np.array_equal(ta.threshold, tb.threshold, equal_nan=True)


class TestTargetShiftAndScale:
    """Trees depend on the target only through its deviations: an integer
    shift or a scaling by a signed power of two leaves every split as it was,
    and predictions move with the target."""

    @given(seed=st.integers(0, 2**32 - 1), shift=st.integers(-10**9, 10**9),
           power=st.integers(-30, 30), sign=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_shift_and_scale(self, seed, shift, power, sign):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 3))
        y = rng.integers(-20, 21, size=40).astype(float)
        cfg = ForestConfig(n_trees=4, min_leaf=2, seed=seed % 1000)
        base = fit_forest(X, y, cfg)
        shifted = fit_forest(X, y + shift, cfg)
        scale = sign * 2.0**power
        scaled = fit_forest(X, scale * y, cfg)
        for other in (shifted, scaled):
            for name in ("feature", "left", "n_samples"):
                assert np.array_equal(getattr(base.nodes, name), getattr(other.nodes, name))
            assert np.array_equal(base.nodes.threshold, other.nodes.threshold, equal_nan=True)
        grid = rng.normal(size=(25, 3))
        np.testing.assert_allclose(predict(shifted, grid), predict(base, grid) + shift,
                                   rtol=0, atol=1e-15 * 64 * (abs(shift) + 20))
        assert np.array_equal(predict(scaled, grid), scale * predict(base, grid))

    @pytest.mark.parametrize("level", [1e8, 1e9])
    def test_level_of_the_target_does_not_cost_fit(self, level):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(300, 2))
        y = X[:, 0] + 0.2 * rng.normal(size=300)
        cfg = ForestConfig(n_trees=20, seed=4)
        r2_at_zero = r2_score(y, predict(fit_forest(X, y, cfg), X))
        r2_at_level = r2_score(y + level, predict(fit_forest(X, y + level, cfg), X))
        assert r2_at_zero > 0.9
        assert abs(r2_at_level - r2_at_zero) < 0.01


class TestThresholdBetweenAdjacentFloats:
    def test_threshold_stays_below_the_right_value(self):
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        assert 0.5 * (a + b) == b  # the midpoint rounds onto the right value
        X = np.array([[a]] * 6 + [[b]] * 6)
        y = np.array([0.0] * 6 + [1.0] * 6)
        f = fit_forest(X, y, ForestConfig(n_trees=1, min_leaf=1, seed=3))
        assert f.in_bag_counts[0, :6].any() and f.in_bag_counts[0, 6:].any()
        tree = f.trees[0]
        assert tree.feature[0] == 0 and a <= tree.threshold[0] < b
        assert np.array_equal(predict(f, X), y)


class TestNonFiniteInput:
    @pytest.mark.parametrize("where", ["X", "y"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_values_rejected(self, where, value):
        rng = np.random.default_rng(24)
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        if where == "X":
            X[3, 1] = value
        else:
            y[3] = value
        with pytest.raises(ValueError, match="infinite"):
            fit_forest(X, y, ForestConfig(n_trees=2, seed=1))


def walk(nodes, roots, start, x):
    """Leaf that one row x reaches from node `start`, one node at a time."""
    root = roots[np.searchsorted(roots, start, side="right") - 1]
    at = start
    while nodes.feature[at] >= 0:
        go_left = x[nodes.feature[at]] <= nodes.threshold[at]  # False for NaN
        at = root + (nodes.left[at] if go_left else nodes.right[at])
    return at


def check_node_layout(f: Forest):
    """The layout `_leaves` steps through: a leaf links to -1 on both sides;
    an inner node's right child is its left child + 1, both inside its own
    tree and after it."""
    nodes = f.nodes
    ends = np.append(f.roots[1:], nodes.n_nodes)
    for root, end in zip(f.roots, ends):
        feature = nodes.feature[root:end]
        left, right = nodes.left[root:end], nodes.right[root:end]
        inner = feature >= 0
        assert np.all(left[~inner] == -1) and np.all(right[~inner] == -1)
        assert np.array_equal(right[inner], left[inner] + 1)
        assert np.all(left[inner] > np.flatnonzero(inner))
        assert np.all(right[inner] < end - root)


class TestNodeLayout:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_grown_forest(self, seed):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(10, 60)), int(rng.integers(1, 4))
        X = np.round(rng.normal(size=(n, p)), 1)
        cfg = ForestConfig(n_trees=int(rng.integers(1, 6)), min_leaf=int(rng.integers(1, 4)),
                           max_depth=[None, 2][seed % 2], seed=seed)
        check_node_layout(fit_forest(X, X[:, 0] + rng.normal(size=n), cfg))

    def test_golden_forest(self):
        check_node_layout(golden_forest())


class TestLeaves:
    """The vectorised router against a scalar walk of each (start, row) pair."""

    @staticmethod
    def check(nodes, roots, start, X, rows):
        got = _leaves(nodes, roots, start, X, rows)
        expected = [walk(nodes, roots, s, X[r]) for s, r in zip(start, rows)]
        assert np.array_equal(got, expected)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_scalar_walk_from_any_node(self, seed):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(10, 60)), int(rng.integers(1, 4))
        X = np.round(rng.normal(size=(n, p)), 1)
        cfg = ForestConfig(n_trees=int(rng.integers(1, 6)), min_leaf=int(rng.integers(1, 4)),
                           max_depth=[None, 2][seed % 2], seed=seed)
        f = fit_forest(X, X[:, 0] + rng.normal(size=n), cfg)
        # query cells: training values, the thresholds themselves, NaN, +-inf
        cells = np.concatenate([X.ravel(), f.nodes.threshold[f.nodes.feature >= 0],
                                [np.nan, np.inf, -np.inf]])
        Q = rng.choice(cells, size=(int(rng.integers(1, 40)), p))
        pairs = int(rng.integers(1, 200))
        start = rng.integers(0, f.nodes.n_nodes, size=pairs)  # leaves and inner nodes
        self.check(f.nodes, f.roots, start, Q, rng.integers(0, len(Q), size=pairs))

    def test_threshold_goes_left_nan_and_inf_go_right(self):
        X = np.arange(10.0)[:, None]
        f = fit_forest(X, (X[:, 0] > 4.5).astype(float),
                       ForestConfig(n_trees=1, min_leaf=1, max_depth=1, seed=0))
        nodes = f.nodes
        thr = nodes.threshold[0]
        Q = np.array([[thr], [np.nextafter(thr, np.inf)], [np.nan], [np.inf], [-np.inf]])
        got = _leaves(nodes, f.roots, np.zeros(5, dtype=np.intp), Q, np.arange(5))
        left, right = nodes.left[0], nodes.right[0]
        assert got.tolist() == [left, right, right, right, left]
        self.check(nodes, f.roots, np.zeros(5, dtype=np.intp), Q, np.arange(5))

    def test_lone_leaf_trees_keep_their_root(self):
        X = np.random.default_rng(1).normal(size=(12, 2))
        f = fit_forest(X, np.full(12, 3.0), ForestConfig(n_trees=4, seed=2))
        assert f.nodes.n_nodes == 4
        tree, rows = np.indices((4, 12)).reshape(2, -1)
        Q = X.copy()
        Q[0, 0] = np.nan
        assert np.array_equal(_leaves(f.nodes, f.roots, f.roots[tree], Q, rows), f.roots[tree])

    def test_golden_forest(self):
        f = golden_forest()
        grid = np.array(json.loads((GOLDEN / "forest_v1_expected.json").read_text())["grid"])
        grid[::3, 0] = np.nan
        grid[1::4, -1] = np.inf
        tree, rows = np.indices((len(f.roots), len(grid))).reshape(2, -1)
        self.check(f.nodes, f.roots, f.roots[tree], grid, rows)
