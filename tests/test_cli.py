import csv
import json
import re
import warnings
from pathlib import Path

import pytest

from panelforest import vimp
from panelforest._common import fmt4
from panelforest.cli import SECTIONS, ConfigError, RunConfig, Runner, load_config, main
from panelforest.demo import demo_config, make_demo_panel

TOY_CSV = """Code,Year,GDP,Invest
USA,2000,1.0,0.20
USA,2001,2.0,0.22
USA,2002,1.5,0.21
CAN,2000,0.5,0.18
CAN,2001,0.7,0.19
CAN,2002,0.9,0.20
"""


def fast_demo_config(seed, out):
    """Demo config trimmed for test speed."""
    cfg = demo_config(seed=seed, out=str(out))
    cfg["forest"] = {"n_trees": 20, "min_leaf": 5}
    cfg["importance_repeats"] = 2
    cfg["seq_test"] = {"method": "certain", "mmax": 15, "ntree": 8, "nperm": 1}
    cfg["groups"] = {"north": cfg["groups"]["north"][:6]}
    return cfg


class TestConfigValidation:
    def test_seed_mandatory_and_input_required(self):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_mapping({})
        msg = str(err.value)
        assert "seed is mandatory" in msg
        assert "input" in msg  # every violation listed, not just the first

    def test_empty_group_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            RunConfig.from_mapping({"seed": 1, "demo": True, "groups": {"g": []}})

    def test_invalid_outlier_rule(self):
        with pytest.raises(ConfigError, match="outlier"):
            RunConfig.from_mapping({"seed": 1, "demo": True,
                                    "preprocessing": {"outlier_rule": {"kind": "mad"}}})

    def test_unknown_column_exits_nonzero(self, tmp_path, capsys):
        (tmp_path / "d.csv").write_text(TOY_CSV)
        cfg = {"seed": 1, "input": str(tmp_path / "d.csv"), "out": str(tmp_path / "o"),
               "preprocessing": {"log_vars": ["NotAColumn"]}}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        rc = main(["describe", "-c", str(tmp_path / "c.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "NotAColumn" in err

    def test_unknown_group_member_listed(self, tmp_path, capsys):
        (tmp_path / "d.csv").write_text(TOY_CSV)
        cfg = {"seed": 1, "input": str(tmp_path / "d.csv"), "out": str(tmp_path / "o"),
               "groups": {"g": ["USA", "MARS"]}}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        rc = main(["describe", "-c", str(tmp_path / "c.json")])
        assert rc == 2
        assert "MARS" in capsys.readouterr().err

    def test_config_file_not_found(self, capsys):
        rc = main(["describe", "-c", "/nonexistent/config.json"])
        assert rc == 2

    def test_header_without_rows_writes_nothing(self, tmp_path, capsys):
        # one error line and no tables, not a traceback after two of them
        (tmp_path / "d.csv").write_text("Code,Year,x\n")
        rc = main(["describe", "--input", str(tmp_path / "d.csv"), "--seed", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {tmp_path / 'd.csv'}: no data rows\n"
        assert not (tmp_path / "o").exists()

    def test_duplicate_rows_integrity_error(self, tmp_path, capsys):
        bad = TOY_CSV + "USA,2000,9.9,0.99\n"
        (tmp_path / "d.csv").write_text(bad)
        rc = main(["describe", "--input", str(tmp_path / "d.csv"), "--seed", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "duplicate" in capsys.readouterr().err


class TestOverrides:
    def test_flags_beat_file(self, tmp_path):
        cfg = {"seed": 1, "demo": True, "out": str(tmp_path / "a"), "workers": 1}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        parsed = load_config(build_args(["describe", "-c", str(path),
                                         "--seed", "2", "--out", str(tmp_path / "b")]))
        assert parsed.seed == 2
        assert parsed.out == str(tmp_path / "b")

    def test_workers_flag_beats_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1, "demo": True, "workers": 1}))
        assert load_config(build_args(["describe", "-c", str(path)])).workers == 1
        parsed = load_config(build_args(["describe", "-c", str(path), "--workers", "2"]))
        assert parsed.workers == 2

    def test_input_flag_disables_demo(self, tmp_path):
        (tmp_path / "d.csv").write_text(TOY_CSV)
        cfg = {"seed": 1, "demo": True}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        parsed = load_config(build_args(["describe", "-c", str(path),
                                         "--input", str(tmp_path / "d.csv")]))
        assert parsed.input == str(tmp_path / "d.csv")
        assert not parsed.demo


def build_args(argv):
    from panelforest.cli import build_parser
    return build_parser().parse_args(argv)


class TestDescribe:
    def test_toy_csv_table(self, tmp_path):
        (tmp_path / "d.csv").write_text(TOY_CSV)
        rc = main(["describe", "--input", str(tmp_path / "d.csv"), "--seed", "5",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        stats = (tmp_path / "out" / "tables" / "descriptive_stats.csv").read_text()
        lines = stats.strip().splitlines()
        assert lines[0].startswith("variable,mean,median,min,max,std_dev")
        assert any(line.startswith("GDP,") for line in lines)
        corr = (tmp_path / "out" / "tables" / "correlation_matrix.csv").read_text()
        assert corr.splitlines()[0] == "variable,GDP,Invest"

    def test_warning_printed_on_one_line(self, tmp_path, capsys):
        cfg = fast_demo_config(1, tmp_path / "out")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loading a config only validates it
            RunConfig.from_mapping(cfg)
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["importance", "-c", str(tmp_path / "c.json")]) == 0
        err = capsys.readouterr().err
        assert "warning: certain cannot reach 'significant' with mmax=15" in err
        assert ".py:" not in err


class TestReachWarning:
    """A sequential test's reach is warned where tests start: by importance,
    once per config, and by no stage that runs none."""

    @staticmethod
    def demo(tmp_path):
        # the demo's seq_test (sprt at mmax=40) on smaller forests
        cfg = demo_config(seed=1, out=str(tmp_path / "run"))
        cfg["forest"]["n_trees"] = 20
        cfg["importance_repeats"] = 2
        cfg["seq_test"]["ntree"] = 5
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        return ["-c", str(tmp_path / "c.json")]

    def test_stages_without_tests_silent(self, tmp_path, capsys):
        args = self.demo(tmp_path)
        for subcommand in ("describe", "fit-linear", "fit-gmm", "fit-rf", "compare"):
            assert main([subcommand, *args]) == 0
            assert "warning:" not in capsys.readouterr().err, subcommand

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_importance_warns_once_for_its_four_designs(self, workers, tmp_path, capsys):
        assert main(["importance", *self.demo(tmp_path), "--workers", workers]) == 0
        out, err = capsys.readouterr()
        assert out.count("importance[") == 4
        warned = [line for line in err.splitlines() if line.startswith("warning:")]
        assert len(warned) == 1 and warned[0].startswith("warning: sprt needs at least 132")


class TestDemoPanel:
    def test_demo_panel_deterministic(self):
        a = make_demo_panel(3)
        b = make_demo_panel(3)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != make_demo_panel(4).fingerprint()

    def test_demo_panel_unbalanced(self):
        ds = make_demo_panel(0)
        spans = {}
        for e, y in zip(ds.entity, ds.year):
            spans.setdefault(e, []).append(y)
        lengths = {len(v) for v in spans.values()}
        assert len(lengths) > 1


class TestPipeline:
    def test_all_demo_reproducible(self, tmp_path):
        cfg = fast_demo_config(11, tmp_path / "run1")
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert main(["all", "-c", str(p)]) == 0
        cfg2 = dict(cfg, out=str(tmp_path / "run2"))
        p2 = tmp_path / "c2.json"
        p2.write_text(json.dumps(cfg2))
        assert main(["all", "-c", str(p2)]) == 0

        m1 = json.loads((tmp_path / "run1" / "provenance.json").read_text())
        m2 = json.loads((tmp_path / "run2" / "provenance.json").read_text())
        assert m1["content_hash"] == m2["content_hash"]
        assert m1["seed"] == 11

        run1 = tmp_path / "run1"
        run2 = tmp_path / "run2"
        files1 = sorted(q.relative_to(run1) for q in run1.rglob("*") if q.is_file())
        files2 = sorted(q.relative_to(run2) for q in run2.rglob("*") if q.is_file())
        assert files1 == files2
        for rel in files1:
            if rel.name == "provenance.json":
                continue
            assert (run1 / rel).read_bytes() == (run2 / rel).read_bytes(), rel

    def test_all_demo_free_of_workers_and_block_size(self, tmp_path, monkeypatch, capsys):
        hashes = {}
        # blocks of 9 null forests (the derived size) and of 1
        for entries in (vimp._ENTRIES_PER_GROUP, 1):
            monkeypatch.setattr(vimp, "_ENTRIES_PER_GROUP", entries)
            for workers in (1, 2):
                out = tmp_path / f"run-{entries}-{workers}"
                Runner(RunConfig.from_mapping(
                    dict(fast_demo_config(11, out), workers=workers))).run("all")
                provenance = json.loads((out / "provenance.json").read_text())
                hashes[entries, workers] = provenance["content_hash"]
        assert len(set(hashes.values())) == 1, hashes

    def test_decision_table_reads_fit_rf_importance(self, tmp_path, capsys):
        runner = Runner(RunConfig.from_mapping(fast_demo_config(17, tmp_path / "run")))
        runner.run("importance")
        for (group, setting), res in runner.rf_results.items():
            imp, decisions = res["importance"], runner.decisions[group, setting]
            path = tmp_path / "run" / "tables" / f"importance_decisions_{group}_{setting}.csv"
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            assert [r["variable"] for r in rows] == list(decisions)
            for r in rows:
                name = r["variable"]
                assert (r["importance"], r["std"], r["observed_vimp"]) == (
                    fmt4(imp.means[name]), fmt4(imp.stds[name]),
                    fmt4(decisions[name].observed_vimp))

    def test_all_demo_artifact_layout(self, tmp_path):
        cfg = fast_demo_config(12, tmp_path / "run")
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert main(["all", "-c", str(p)]) == 0
        out = tmp_path / "run"
        for rel in ("tables/table_static_linear.csv", "tables/table_dynamic_gmm.csv",
                    "tables/rf_importance_static.csv", "tables/rf_importance_dynamic.csv",
                    "tables/model_comparison.csv", "tables/hausman.csv",
                    "tables/descriptive_stats.csv", "removal_log.csv",
                    "figures/importance_north_static.svg",
                    "figures/importance_north_dynamic.svg",
                    "provenance.json"):
            assert (out / rel).exists(), rel
        gmm_table = (out / "tables" / "table_dynamic_gmm.csv").read_text()
        assert "LN_Investment_Ratio(t-1)" in gmm_table
        rf = (out / "tables" / "rf_importance_dynamic.csv").read_text()
        assert "LN_Investment_Ratio(t-1)" in rf

    def test_single_steps_run(self, tmp_path):
        cfg = fast_demo_config(13, tmp_path / "run")
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        for sub in ("describe", "fit-linear", "fit-gmm"):
            assert main([sub, "-c", str(p)]) == 0
        assert (tmp_path / "run" / "tables" / "table_static_linear.csv").exists()
        assert (tmp_path / "run" / "tables" / "table_static_linear_random.csv").exists()
        assert (tmp_path / "run" / "tables" / "hausman.csv").exists()
        # fit-gmm must not clobber the linear table
        text = (tmp_path / "run" / "tables" / "table_static_linear.csv").read_text()
        assert "Growth(t-1)" in text


RF_TABLES = {"tables/rf_importance_static.csv", "tables/rf_importance_static_full.csv",
             "tables/rf_importance_dynamic.csv", "tables/rf_importance_dynamic_full.csv"}
LINEAR_TABLES = {"tables/hausman.csv", "tables/table_static_linear.csv",
                 "tables/table_static_linear_full.csv",
                 "tables/table_static_linear_random.csv"}
GMM_TABLES = {"tables/table_dynamic_gmm.csv", "tables/table_dynamic_gmm_full.csv"}
DESCRIBE_TABLES = {"tables/descriptive_stats.csv", "tables/correlation_matrix.csv"}
IMPORTANCE_FILES = {f"{kind}_north_{setting}.{ext}"
                    for setting in ("static", "dynamic")
                    for kind, ext in (("tables/importance_decisions", "csv"),
                                      ("figures/importance", "svg"))}
ARTIFACTS = {
    "describe": DESCRIBE_TABLES,
    "fit-linear": {"removal_log.csv", *LINEAR_TABLES},
    "fit-gmm": {"removal_log.csv", *GMM_TABLES},
    "fit-rf": {"removal_log.csv", *RF_TABLES},
    "importance": {"removal_log.csv", *RF_TABLES, *IMPORTANCE_FILES},
    "compare": {"removal_log.csv", *LINEAR_TABLES, *GMM_TABLES, *RF_TABLES,
                "tables/model_comparison.csv"},
    "all": {"removal_log.csv", *DESCRIBE_TABLES, *LINEAR_TABLES, *GMM_TABLES,
            *RF_TABLES, *IMPORTANCE_FILES, "tables/model_comparison.csv",
            "provenance.json"},
}


def artifact_tree(out):
    return {str(q.relative_to(out)): q.read_bytes() for q in out.rglob("*") if q.is_file()}


class TestArtifacts:
    @pytest.mark.parametrize("sub", sorted(ARTIFACTS))
    def test_subcommand_file_set(self, sub, tmp_path):
        cfg = fast_demo_config(14, tmp_path / "run")
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main([sub, "-c", str(tmp_path / "c.json")]) == 0
        assert set(artifact_tree(tmp_path / "run")) == ARTIFACTS[sub]

    def test_one_runner_matches_separate_runs(self, tmp_path, capsys):
        steps = ("describe", "fit-linear", "fit-gmm")
        runner = Runner(RunConfig.from_mapping(fast_demo_config(15, tmp_path / "one")))
        for sub in steps:
            runner.run(sub)
        one = capsys.readouterr().out
        for sub in steps:
            Runner(RunConfig.from_mapping(fast_demo_config(15, tmp_path / "many"))).run(sub)
        assert capsys.readouterr().out == one
        tree = artifact_tree(tmp_path / "one")
        assert set(tree) == ARTIFACTS["fit-linear"] | ARTIFACTS["fit-gmm"] | DESCRIBE_TABLES
        assert tree == artifact_tree(tmp_path / "many")


# a config path set to a malformed value, and the problem that names it
MALFORMED = [
    ("forest", [["n_trees", 5]], "forest must be a JSON object"),
    ("seq_test", [1], "seq_test must be a JSON object"),
    ("preprocessing", [], "preprocessing must be a JSON object"),
    ("models", [], "models must be a JSON object"),
    ("preprocessing.outlier_rule", "iqr",
     "preprocessing.outlier_rule must be a JSON object"),
    ("importance_repeats", "x", "importance_repeats must be an integer"),
    ("importance_repeats", 0, "importance_repeats must be >= 1"),
    ("seq_test.mmax", 15.5, "seq_test.mmax must be an integer"),
    ("preprocessing.log_vars", "Growth",
     "preprocessing.log_vars must be a list of names"),
    ("sead", 7, "unknown key 'sead'"),
    ("preprocessing.lags", [2], "unknown key 'preprocessing.lags'"),
    ("models.gmm", {}, "unknown key 'models.gmm'"),
    ("models.static.regresors", [], "unknown key 'models.static.regresors'"),
    ("models.static.time_dummies", "false",
     "models.static.time_dummies must be true or false"),
    ("models.static.effects", "pooled", "models.static.effects must be fixed or random"),
    ("seq_test.sapt_bounds", [-1.0, 1.0, 2.0],
     "sapt_bounds must be a pair (lower, upper) with lower < 0 < upper"),
    ("seq_test.sapt_bounds", ["-1", 1], "sapt_bounds must be a pair"),
    ("models.dynamic.instrument_lags", [2.7, 3],
     "models.dynamic: instrument_lags must be a (min, max) pair of integers, got [2.7, 3]"),
    ("models.dynamic.instrument_lags", [2],
     "models.dynamic: instrument_lags must be a (min, max) pair of integers, got [2]"),
    ("models.dynamic.instrument_lags", {"Growth(t-1)": [2, "3"]},
     "models.dynamic: instrument_lags for 'Growth(t-1)' must be a (min, max) pair of "
     "integers, got [2, '3']"),
    ("models.dynamic.instrument_lags", {"Growth(t-1)": [2, 2], "Growht(t-1)": [2, 3]},
     "models.dynamic: instrument_lags names ['Growht(t-1)'], which are not instrumented"),
    ("workers", 0, "workers must be >= 1"),
    ("workers", "four", "workers must be an integer"),
]


# every key whose default's type the config check enforces, set to values
# of the wrong type for it, and the one problem each must give
WRONG_VALUES = {int: [2.5, True, "3", None], bool: [1, "yes", None],
                float: ["x", True, None, [0.5]], list: ["x", [1], None, {"a": "b"}]}
KIND = {int: "an integer", bool: "true or false", float: "a number", list: "a list of names"}
WRONG_TYPED = [(path, value, f"{path} must be {KIND[type(default)]}, got {value!r}")
               for block, defaults in SECTIONS.items() for key, default in defaults.items()
               for path in [f"{block}.{key}".lstrip(".")]
               for value in WRONG_VALUES.get(type(default), [])]


class TestConfigAtLoad:
    """Config errors surface before any data is read, as exit code 2."""

    @pytest.mark.parametrize("section, value, token", [
        ("forest", {"ntrees": 10}, "ntrees"),
        ("seq_test", {"n_tree": 5}, "n_tree"),
        ("seq_test", {"p1": 0.5}, "p1"),
        ("seq_test", {"eval_set": "test"}, "eval_set"),
        ("seq_test", {"permute_within_groups": True}, "permute_within_groups"),
        ("seq_test", {"sapt_bounds": [-0.1, 0.1]}, "sapt_bounds applies only to method 'sapt'"),
    ])
    def test_rejected(self, section, value, token, tmp_path, capsys):
        cfg = {"seed": 1, "input": str(tmp_path / "missing.csv"),
               "out": str(tmp_path / "o"), section: value}
        with pytest.raises(ConfigError, match=token):
            RunConfig.from_mapping(cfg)
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["importance", "-c", str(tmp_path / "c.json")]) == 2
        assert token in capsys.readouterr().err

    def test_forest_settings_checked_before_any_data(self, tmp_path, capsys):
        cfg = {"seed": 1, "input": str(tmp_path / "missing.csv"),
               "out": str(tmp_path / "o"), "forest": {"n_trees": 0}}
        with pytest.raises(ConfigError, match="n_trees"):
            RunConfig.from_mapping(cfg)
        cfg = fast_demo_config(16, tmp_path / "run")
        cfg["forest"] = {"n_trees": 0}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["compare", "-c", str(tmp_path / "c.json")]) == 2
        assert "n_trees must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()  # no table written before the error

    @pytest.mark.parametrize("model", ["static", "dynamic"])
    def test_model_without_dependent_named(self, model, tmp_path, capsys):
        cfg = fast_demo_config(16, tmp_path / "run")
        del cfg["models"][model]["dependent"]
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["fit-linear", "-c", str(tmp_path / "c.json")]) == 2
        assert f"models.{model}.dependent" in capsys.readouterr().err

    def test_fit_rf_needs_static_model(self, tmp_path, capsys):
        cfg = fast_demo_config(16, tmp_path / "run")
        del cfg["models"]["static"]
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["fit-rf", "-c", str(tmp_path / "c.json")]) == 2
        assert "models.static" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["no-static", "no-dynamic", "no-lagged-dependent",
                                      "lagged-dependent-as-static-slope"])
    def test_stage_needs_checked_before_any_write(self, case, tmp_path, capsys):
        cfg = fast_demo_config(3, tmp_path / "run")
        if case == "no-lagged-dependent":  # the dynamic forest's first feature
            cfg["preprocessing"]["lag_vars"].remove("LN_Investment_Ratio")
            problem = "dynamic RF needs 'LN_Investment_Ratio(t-1)'"
        elif case == "lagged-dependent-as-static-slope":  # held twice by the dynamic forest
            cfg["models"]["static"]["regressors"].append("LN_Investment_Ratio(t-1)")
            problem = "dynamic RF adds 'LN_Investment_Ratio(t-1)' itself"
        else:
            model = case.removeprefix("no-")
            del cfg["models"][model]
            problem = f"models.{model} is required for this step"
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["all", "-c", str(tmp_path / "c.json")]) == 2
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_mtry_above_static_features_checked_before_any_write(self, tmp_path, capsys):
        cfg = fast_demo_config(3, tmp_path / "run")
        cfg["forest"]["mtry"] = 9  # the static forest has 4 features, the dynamic 5
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["compare", "-c", str(tmp_path / "c.json")]) == 2
        assert "forest.mtry must be in [1, 4]" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_every_model_and_forest_problem_in_one_error(self, tmp_path, capsys):
        cfg = fast_demo_config(3, tmp_path / "run")
        cfg["models"]["static"]["regressors"].append("Nope")
        cfg["forest"]["mtry"] = 9
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["compare", "-c", str(tmp_path / "c.json")]) == 2
        problems = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("  - ")]
        assert len(problems) == 2
        assert "models.static.regressors names unknown column 'Nope'" in problems[0]
        assert "forest.mtry must be in [1, 5]" in problems[1]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("path, value, problem", MALFORMED,
                             ids=[f"{path}={value!r}" for path, value, _ in MALFORMED])
    def test_malformed_named_before_any_data(self, path, value, problem, tmp_path, capsys):
        cfg = fast_demo_config(16, tmp_path / "run")
        del cfg["demo"]
        cfg["input"] = str(tmp_path / "missing.csv")  # reading it would exit 1
        *parents, key = path.split(".")
        block = cfg
        for name in parents:
            block = block[name]
        block[key] = value
        with pytest.raises(ConfigError, match=re.escape(problem)):
            RunConfig.from_mapping(cfg)
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["all", "-c", str(tmp_path / "c.json")]) == 2
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("path, value, problem", [
        ("models.dynamic.regressors", "Growth(t-1)",
         "models.dynamic.regressors must be a list of names, got 'Growth(t-1)'"),
        ("models.static.regressors", "Growth(t-1)",
         "models.static.regressors must be a list of names, got 'Growth(t-1)'"),
        ("models.static.controls", [1],
         "models.static.controls must be a list of names, got [1]"),
        ("groups.north", "N00", "groups.north must be a list of names, got 'N00'"),
    ], ids=["dynamic.regressors", "static.regressors", "static.controls", "group"])
    def test_rejected_name_list_is_the_only_problem(self, path, value, problem, tmp_path):
        # a rejected list stands for no names at all: it must not also draw
        # "not instrumented" for a per-variable lag of a listed regressor, or
        # "group is empty"
        cfg = fast_demo_config(16, tmp_path / "run")
        cfg["models"]["dynamic"]["instrument_lags"] = {"Growth(t-1)": [2, 2]}
        RunConfig.from_mapping(cfg)  # valid before the change below
        *parents, key = path.split(".")
        block = cfg
        for name in parents:
            block = block[name]
        block[key] = value
        with pytest.raises(ConfigError) as info:
            RunConfig.from_mapping(cfg)
        assert info.value.problems == [problem]

    @pytest.mark.parametrize("sub", ["fit-linear", "all"])
    def test_unknown_model_column_named_before_any_write(self, sub, tmp_path, capsys):
        cfg = fast_demo_config(16, tmp_path / "run")
        cfg["models"]["static"]["regressors"] = ["Growth(t-1)", "Nope"]
        cfg["models"]["dynamic"]["dependent"] = "Gone"
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main([sub, "-c", str(tmp_path / "c.json")]) == 2
        err = capsys.readouterr().err
        assert "models.static.regressors names unknown column 'Nope'" in err
        assert "models.dynamic.dependent names unknown column 'Gone'" in err
        assert not (tmp_path / "run").exists()

    def test_unknown_effects_reported_once(self, tmp_path, capsys):
        cfg = fast_demo_config(16, tmp_path / "run")
        cfg["models"]["static"]["effects"] = "bogus"
        with pytest.raises(ConfigError) as info:
            RunConfig.from_mapping(cfg)
        assert info.value.problems == [
            "models.static.effects must be fixed or random, got 'bogus'"]
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["fit-linear", "-c", str(tmp_path / "c.json")]) == 2
        problem_lines = [line for line in capsys.readouterr().err.splitlines()
                         if line.startswith("  - ")]
        assert len(problem_lines) == 1 and "'bogus'" in problem_lines[0]

    @pytest.mark.parametrize("mmax", [0, 2.5, 15.5])
    def test_rejected_count_reported_once_without_warning(self, mmax, tmp_path, capsys):
        # no SeqTestConfig is built from a rejected count, so it neither
        # repeats the problem nor warns about the value
        cfg = fast_demo_config(16, tmp_path / "run")
        cfg["seq_test"]["mmax"] = mmax
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["importance", "-c", str(tmp_path / "c.json")]) == 2
        err = capsys.readouterr().err.splitlines()
        problems = [line for line in err if line.startswith("  - ")]
        assert len(problems) == 1 and "seq_test.mmax must be" in problems[0]
        assert not [line for line in err if line.startswith("warning:")]

    def test_reach_warning_only_for_an_accepted_config(self, tmp_path, capsys):
        # sprt cannot reach 'significant' within mmax=15: worth a warning
        # for a config that runs, noise next to one that is rejected
        cfg = fast_demo_config(1, tmp_path / "run")
        cfg["seq_test"]["method"] = "sprt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loading a config only validates it
            RunConfig.from_mapping(cfg)
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["importance", "-c", str(tmp_path / "c.json")]) == 0
        assert capsys.readouterr().err.count("warning: sprt needs at least") == 1
        cfg["sead"] = 1
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["importance", "-c", str(tmp_path / "c.json")]) == 2
        err = capsys.readouterr().err
        assert "unknown key 'sead'" in err
        assert "warning:" not in err

    def test_seq_test_problem_listed_beside_unknown_key(self):
        cfg = demo_config(seed=1)
        cfg["sead"] = 1
        cfg["seq_test"]["p1"] = 0.5
        with pytest.raises(ConfigError) as info:
            RunConfig.from_mapping(cfg)
        assert len(info.value.problems) == 2
        assert info.value.problems[0].startswith("unknown key 'sead'")
        assert info.value.problems[1].startswith("seq_test: need 0 < p1 < alpha < p0 < 1")

    def test_missing_lag_variable_listed_with_unknown_columns(self, tmp_path, capsys):
        cfg = fast_demo_config(16, tmp_path / "run")
        cfg["preprocessing"]["lag_vars"].append("Nope")
        cfg["models"]["static"]["regressors"].append("Foo")
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert main(["fit-linear", "-c", str(tmp_path / "c.json")]) == 2
        problems = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("  - ")]
        assert len(problems) == 2
        assert "lag variable 'Nope' not found after transforms" in problems[0]
        assert "models.static.regressors names unknown column 'Foo'" in problems[1]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("path, value, problem", WRONG_TYPED,
                             ids=[f"{path}={value!r}" for path, value, _ in WRONG_TYPED])
    def test_wrong_type_is_one_problem_naming_its_key(self, path, value, problem):
        # the block with the rejected key builds nothing, so nothing reports
        # the key a second time or without its name, and no value is coerced
        cfg = demo_config(seed=1)
        *parents, key = path.split(".")
        block = cfg
        for name in parents:
            block = block[name]
        block[key] = value
        with pytest.raises(ConfigError) as info:
            RunConfig.from_mapping(cfg)
        assert info.value.problems == [problem]

    def test_documented_configs_parse(self):
        from panelforest.cli import SECTIONS

        RunConfig.from_mapping(demo_config())
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = RunConfig.from_mapping(json.loads(example))
        assert cfg.static is not None and cfg.dynamic is not None
        undocumented = [f"{block}.{key}" for block, keys in SECTIONS.items()
                        for key in keys if f"`{key}`" not in readme]
        assert not undocumented
