import csv
import math
import re
from pathlib import Path

import numpy as np
import pytest

from panelforest.forest import ForestConfig, fit_forest, forest_metrics
from panelforest.gmm import GmmSpec, fit_system_gmm
from panelforest.linear import ModelSpec, fit, robust_covariance
from panelforest.report import (
    ModelBlock,
    VariableCell,
    emit_importance_figure,
    emit_tables,
    from_forest,
    from_gmm,
    from_linear,
    write_manifest,
    write_model_table,
)
from panelforest.vimp import PermImportanceResult, SeqTestDecision, permutation_importance

from conftest import dynamic_panel, fe_panel

GOLDEN = Path(__file__).parent / "golden"


def linear_block(seed=0, group="g7", fingerprint=None):
    f = robust_covariance(fit(ModelSpec("y", ("x1", "x2"), effects="fixed"),
                              fe_panel(seed, n_ent=20, n_per=8)))
    return from_linear(f, group, fingerprint=fingerprint)


def forest_block(seed=0, group="g7", fingerprint=None, decisions=None):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(80, 2))
    y = X[:, 0] + 0.2 * rng.normal(size=80)
    forest = fit_forest(X, y, ForestConfig(n_trees=20, seed=seed), ["x1", "x2"])
    imp = permutation_importance(forest, X, y, n_repeats=4, seed=seed)
    return from_forest(forest_metrics(forest, X, y), imp, group, "static",
                       decisions=decisions, fingerprint=fingerprint or "")


def written(out_dir):
    return sorted(p.name for p in (out_dir / "tables").iterdir())


def header(path):
    with open(path, newline="") as fh:
        return next(csv.reader(fh))


class TestBuildReport:
    """Which tables emit_tables writes for a list of blocks."""

    def test_single_linear_fit_leaves_rf_absent(self, tmp_path):
        emit_tables([linear_block()], tmp_path)
        assert written(tmp_path) == ["table_static_linear.csv",
                                     "table_static_linear_full.csv"]

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        a = linear_block(0)
        b = linear_block(1)  # different data -> different fingerprint
        assert a.fingerprint != b.fingerprint
        with pytest.raises(ValueError, match="fingerprint"):
            emit_tables([a, b], tmp_path)

    def test_override_fingerprint_alignment(self, tmp_path):
        a = linear_block(0, fingerprint="shared")
        b = linear_block(1, group="brics", fingerprint="shared")
        emit_tables([a, b], tmp_path)
        assert header(tmp_path / "tables" / "table_static_linear.csv") == \
            ["variable", "g7", "brics"]

    def test_repeated_group_rejected(self, tmp_path):
        # the display table has one column per group: a second g7 block
        # would replace the first one's column while _full kept both
        a = linear_block(0, fingerprint="shared")
        b = linear_block(1, fingerprint="shared")
        problem = "table_static_linear.csv has more than one block for group 'g7'"
        with pytest.raises(ValueError, match=re.escape(problem)):
            emit_tables([a, b], tmp_path)
        with pytest.raises(ValueError, match=re.escape(problem.replace("static_linear", "x"))):
            write_model_table(tmp_path / "table_x.csv", [a, linear_block(2, group="brics"), b])
        assert not (tmp_path / "tables").exists()

    def test_full_battery_block_count(self, tmp_path):
        # 4 groups x 2 settings x 3 models = 24 metric blocks
        groups = ("g7", "brics", "eu15", "oecd")
        blocks = []
        for group in groups:
            for setting in ("static", "dynamic"):
                for model in ("linear", "gmm", "rf"):
                    blocks.append(ModelBlock(group, setting, model,
                                             (VariableCell("x", 1.0, 0.1, 0.03),),
                                             {"r2": 0.5}, {}, "fp"))
        assert len(blocks) == 24
        emit_tables(blocks, tmp_path)
        tables = ("table_static_linear.csv", "table_dynamic_gmm.csv",
                  "rf_importance_static.csv", "rf_importance_dynamic.csv")
        assert written(tmp_path) == sorted(
            t for name in tables for t in (name, name.replace(".csv", "_full.csv")))
        for name in tables:
            assert header(tmp_path / "tables" / name) == ["variable", *groups]

    def test_validation(self):
        with pytest.raises(ValueError, match="setting"):
            ModelBlock("g", "sideways", "linear", (), {}, {})
        with pytest.raises(ValueError, match="model"):
            ModelBlock("g", "static", "ols", (), {}, {})


class TestEmitTables:
    def test_golden_static_linear(self, tmp_path):
        """Byte-for-byte comparison against the reviewed golden file."""
        block = linear_block(0, fingerprint="fp")
        emit_tables([block], tmp_path)
        produced = (tmp_path / "tables" / "table_static_linear.csv").read_bytes()
        expected = (GOLDEN / "table_static_linear.csv").read_bytes()
        assert produced == expected

    def test_four_decimal_rendering(self, tmp_path):
        block = ModelBlock("g7", "static", "linear",
                           (VariableCell("gdp", 0.011234, 0.00456, 0.004),),
                           {"r2": 0.45849}, {}, "fp")
        emit_tables([block], tmp_path)
        text = (tmp_path / "tables" / "table_static_linear.csv").read_text()
        assert "0.0112***" in text
        assert "(0.0046)" in text
        assert "0.4585" in text

    def test_round_trip_to_printed_precision(self, tmp_path):
        block = linear_block(2, fingerprint="fp")
        emit_tables([block], tmp_path)
        with open(tmp_path / "tables" / "table_static_linear.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        by_name = {cell.name: cell for cell in block.cells}
        header = rows[0]
        assert header == ["variable", "g7"]
        i = 1
        while i < len(rows) and rows[i][0] in by_name:
            name = rows[i][0]
            printed = float(re.sub(r"\*+$", "", rows[i][1]))
            assert abs(printed - by_name[name].value) <= 5e-5
            disp = float(rows[i + 1][1].strip("()"))
            assert abs(disp - by_name[name].dispersion) <= 5e-5
            i += 2

    def test_full_precision_companion(self, tmp_path):
        block = linear_block(3, fingerprint="fp")
        emit_tables([block], tmp_path)
        with open(tmp_path / "tables" / "table_static_linear_full.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["group", "setting", "model", "variable", "value",
                           "dispersion", "p"]
        by_name = {cell.name: cell for cell in block.cells}
        for row in rows[1:]:
            assert float(row[4]) == by_name[row[3]].value  # repr round-trips

    def test_gmm_footer_rows(self, tmp_path):
        fit_ = fit_system_gmm(GmmSpec("y", ("x",)), dynamic_panel(0, n_ent=60))
        block = from_gmm(fit_, "all", fingerprint="fp")
        emit_tables([block], tmp_path)
        text = (tmp_path / "tables" / "table_dynamic_gmm.csv").read_text()
        for token in ("sargan", "ar1_z", "ar2_z", "wald", "instruments"):
            assert token in text


SIG = SeqTestDecision("v", "significant", 0.01, 10, 0, "x", 1.0)


def decisions_for(scores, ps):
    return {name: SeqTestDecision(name, "significant" if p <= 0.05 else
                                  "not_significant", p, 10, 1, "complete",
                                  scores.means[name])
            for name, p in ps.items()}


class TestImportanceFigure:
    SCORES = PermImportanceResult({"a": 0.5, "b": 0.2, "c": 0.9},
                                  {"a": 0.1, "b": 0.05, "c": 0.2}, 10, "mse", 1.0)

    def test_one_bar_per_variable_sorted(self, tmp_path):
        ps = {"a": 0.2, "b": 0.01, "c": 0.03}
        path = emit_importance_figure(decisions_for(self.SCORES, ps), self.SCORES,
                                      tmp_path / "fig.svg")
        text = path.read_text()
        assert text.count('class="bar"') == 3
        # labels appear in descending-score order: c, a, b
        assert text.index(">c</text>") < text.index(">a</text>") < text.index(">b</text>")

    def test_gray_partition_exact_at_005(self, tmp_path):
        ps = {"a": 0.05, "b": 0.050001, "c": 0.5}
        path = emit_importance_figure(decisions_for(self.SCORES, ps), self.SCORES,
                                      tmp_path / "fig.svg")
        text = path.read_text()
        gray = text.count('fill="#b0b0b0"')
        colored = text.count('fill="#4878a8"')
        assert gray == 2 and colored == 1  # p=0.05 is NOT gray

    def test_all_gray_when_nothing_significant(self, tmp_path):
        ps = {"a": 0.9, "b": 0.8, "c": 0.51}
        path = emit_importance_figure(decisions_for(self.SCORES, ps), self.SCORES,
                                      tmp_path / "fig.svg")
        assert path.read_text().count('fill="#4878a8"') == 0

    def test_deterministic_output(self, tmp_path):
        ps = {"a": 0.2, "b": 0.01, "c": 0.03}
        p1 = emit_importance_figure(decisions_for(self.SCORES, ps), self.SCORES,
                                    tmp_path / "one.svg")
        p2 = emit_importance_figure(decisions_for(self.SCORES, ps), self.SCORES,
                                    tmp_path / "two.svg")
        assert p1.read_bytes() == p2.read_bytes()

    def test_nan_importance_last_without_bar(self, tmp_path):
        # a constant target gives NaN importances: drawn the same whatever
        # the variable order, as "n/a" with no bar or whisker
        means, stds = {"a": math.nan, "b": 0.2}, {"a": math.nan, "b": 0.05}
        ps = {"a": 1.0, "b": 0.01}
        svgs = []
        for order in (("a", "b"), ("b", "a")):
            imp = PermImportanceResult({n: means[n] for n in order}, {n: stds[n] for n in order},
                                       10, "r2", math.nan)
            assert imp.ranking() == ["b", "a"]
            decisions = decisions_for(imp, {n: ps[n] for n in order})
            svgs.append(emit_importance_figure(decisions, imp, tmp_path / "fig.svg").read_bytes())
        assert svgs[0] == svgs[1]
        text = svgs[0].decode()
        assert "nan" not in text
        assert text.count('class="bar"') == 1 and text.count('stroke-width="1.5"') == 1
        assert ">n/a</text>" in text

    def test_empty_input_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no variables"):
            emit_importance_figure({}, PermImportanceResult({}, {}, 10, "mse", 1.0),
                                   tmp_path / "fig.svg")

    def test_coverage_mismatch_rejected(self, tmp_path):
        ps = {"a": 0.2, "b": 0.01}
        with pytest.raises(ValueError, match="different variables"):
            emit_importance_figure(decisions_for(self.SCORES, ps)
                                   | {"zz": SIG}, self.SCORES, tmp_path / "f.svg")

    def test_accepts_importance_result(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 2))
        y = X[:, 0] + 0.1 * rng.normal(size=60)
        forest = fit_forest(X, y, ForestConfig(n_trees=10, seed=5), ["x0", "x1"])
        imp = permutation_importance(forest, X, y, n_repeats=3, seed=5)
        decisions = decisions_for(imp, {"x0": 0.01, "x1": 0.5})
        path = emit_importance_figure(decisions, imp, tmp_path / "fig.svg")
        assert path.read_text().count('class="bar"') == 2


class TestManifest:
    def test_content_hash_covers_artifacts(self, tmp_path):
        (tmp_path / "tables").mkdir()
        (tmp_path / "tables" / "a.csv").write_text("x\n")
        m1 = write_manifest(tmp_path, {"k": 1}, seed=7, fingerprint="fp")
        import json
        h1 = json.loads(m1.read_text())["content_hash"]
        # same content -> same hash; manifest itself is excluded
        m2 = write_manifest(tmp_path, {"k": 1}, seed=7, fingerprint="fp")
        assert json.loads(m2.read_text())["content_hash"] == h1
        (tmp_path / "tables" / "a.csv").write_text("y\n")
        m3 = write_manifest(tmp_path, {"k": 1}, seed=7, fingerprint="fp")
        assert json.loads(m3.read_text())["content_hash"] != h1


class TestSignedInfinity:
    def test_negative_infinite_metric_keeps_sign(self, tmp_path):
        block = ModelBlock("g7", "static", "linear",
                           (VariableCell("gdp", 0.5, 0.1, 0.2),),
                           {"r2": float("-inf"), "f_stat": float("inf")}, {}, "fp")
        emit_tables([block], tmp_path)
        with open(tmp_path / "tables" / "table_static_linear.csv", newline="") as fh:
            rows = {row[0]: row[1:] for row in csv.reader(fh)}
        assert rows["r2"] == ["-inf"]
        assert rows["f_stat"] == ["inf"]
