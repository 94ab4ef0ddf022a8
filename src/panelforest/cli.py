"""Config-driven command line: describe -> fit-linear -> fit-gmm -> fit-rf
-> importance -> compare (or `all`).

Configuration is one JSON file; `--seed`, `--workers`, `--out`, `--input`
and `--demo` override its top-level keys (flag wins over file, file wins
over defaults).  A seed is mandatory: there is no wall-clock fallback.
The PANELFOREST_WORKERS environment variable supplies the default worker
count.  Progress goes to stdout; artifacts land under the output
directory only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import dataset as dsm
from . import demo as demo_mod
from . import gmm as gmm_mod
from . import linear as lin
from . import report as rpt
from . import vimp as vimp_mod
from ._common import fmt4, write_csv
from ._rng import derive_seed
from .forest import ForestConfig, fit_forest, forest_metrics, oob_score
from .vimp import SeqTestConfig, permutation_importance, rfvimptest_all

__all__ = ["main", "RunConfig", "ConfigError"]

# the stages each subcommand runs, in order; stage s is Runner.step_<s>
STAGES = {
    "describe": ("describe",),
    "fit-linear": ("fit_linear",),
    "fit-gmm": ("fit_gmm",),
    "fit-rf": ("fit_rf",),
    "importance": ("fit_rf", "importance"),
    "compare": ("fit_linear", "fit_gmm", "fit_rf", "compare"),
    "all": ("describe", "fit_linear", "fit_gmm", "fit_rf", "importance", "compare"),
}
# the forest keys a config may set; the seed is derived per forest
FOREST_KEYS = ("n_trees", "mtry", "min_leaf", "max_depth")
SEQ_TEST_KEYS = tuple(f.name for f in fields(SeqTestConfig))


class ConfigError(ValueError):
    """Invalid run configuration; message lists every violation."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" +
                         "\n".join(f"  - {p}" for p in self.problems))


@dataclass
class RunConfig:
    seed: int
    out: str
    input: str | None = None
    demo: bool = False
    workers: int = 1
    groups: dict[str, list[str]] = field(default_factory=dict)
    log_vars: list[str] = field(default_factory=list)
    outlier_rule: dict = field(default_factory=lambda: {"kind": "none"})
    outlier_vars: list[str] = field(default_factory=list)
    lag_vars: list[str] = field(default_factory=list)
    lag_order: int = 1
    static: dict = field(default_factory=dict)
    dynamic: dict = field(default_factory=dict)
    forest: dict = field(default_factory=dict)
    seq_test: dict = field(default_factory=dict)
    importance_repeats: int = 10

    @classmethod
    def from_mapping(cls, raw: dict) -> "RunConfig":
        problems = []
        if raw.get("seed") is None:
            problems.append("seed is mandatory (reproducibility first; no clock default)")
        if not raw.get("demo") and not raw.get("input"):
            problems.append("either input (CSV path) or demo must be set")
        if raw.get("demo") and raw.get("input"):
            problems.append("input and demo are mutually exclusive")
        pre = raw.get("preprocessing", {})
        models = raw.get("models", {})
        for name, grp in (raw.get("groups") or {}).items():
            if not grp:
                problems.append(f"group {name!r} is empty")
        workers = raw.get("workers", _default_workers())
        try:
            workers = int(workers)
            if workers < 1:
                problems.append("workers must be >= 1")
        except (TypeError, ValueError):
            problems.append(f"workers must be an integer, got {workers!r}")
        lag_order = pre.get("lag_order", 1)
        if not isinstance(lag_order, int) or lag_order < 1:
            problems.append(f"preprocessing.lag_order must be a positive int, got {lag_order!r}")
        rule = pre.get("outlier_rule", {"kind": "none"})
        if rule.get("kind", "none") not in ("none", "iqr", "zscore"):
            problems.append(f"unknown outlier rule kind {rule.get('kind')!r}")
        for name in ("static", "dynamic"):
            if models.get(name) and "dependent" not in models[name]:
                problems.append(f"models.{name}.dependent is required")
        for section, known in (("forest", FOREST_KEYS), ("seq_test", SEQ_TEST_KEYS)):
            unknown = sorted(set(raw.get(section, {})) - set(known))
            if unknown:
                problems.append(f"unknown {section} keys {unknown}; known: {list(known)}")
        try:
            _forest_config(raw.get("forest", {}), seed=0)
        except (TypeError, ValueError) as exc:
            problems.append(f"forest: {exc}")
        seq_test = {k: v for k, v in raw.get("seq_test", {}).items() if k in SEQ_TEST_KEYS}
        try:
            if _seq_test_config(seq_test).permute_within_groups:
                problems.append("seq_test.permute_within_groups needs groups, "
                                "which the command line cannot pass")
        except (TypeError, ValueError) as exc:
            problems.append(f"seq_test: {exc}")
        if problems:
            raise ConfigError(problems)
        return cls(
            seed=int(raw["seed"]),
            out=str(raw.get("out", "panelforest-out")),
            input=raw.get("input"),
            demo=bool(raw.get("demo", False)),
            workers=workers,
            groups={k: list(v) for k, v in (raw.get("groups") or {}).items()},
            log_vars=list(pre.get("log_vars", [])),
            outlier_rule=dict(rule),
            outlier_vars=list(pre.get("outlier_vars", [])),
            lag_vars=list(pre.get("lag_vars", [])),
            lag_order=lag_order,
            static=dict(models.get("static", {})),
            dynamic=dict(models.get("dynamic", {})),
            forest=dict(raw.get("forest", {})),
            seq_test=dict(raw.get("seq_test", {})),
            importance_repeats=int(raw.get("importance_repeats", 10)),
        )

    def echo(self) -> dict:
        """Plain dict for the provenance manifest."""
        return {
            "input": self.input, "demo": self.demo, "seed": self.seed,
            "workers": self.workers, "groups": self.groups,
            "preprocessing": {"log_vars": self.log_vars,
                              "outlier_rule": self.outlier_rule,
                              "outlier_vars": self.outlier_vars,
                              "lag_vars": self.lag_vars,
                              "lag_order": self.lag_order},
            "models": {"static": self.static, "dynamic": self.dynamic},
            "forest": self.forest, "seq_test": self.seq_test,
            "importance_repeats": self.importance_repeats,
        }


def _default_workers() -> int:
    try:
        return max(1, int(os.environ.get("PANELFOREST_WORKERS", "1")))
    except ValueError:
        return 1


class Runner:
    """Loads data once and runs the stages of each subcommand; stages leave
    their results on the Runner for the stages after them."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.out = Path(cfg.out)
        self._removal_log = None
        self.linear_blocks: list[rpt.ModelBlock] = []
        self.gmm_blocks: list[rpt.ModelBlock] = []
        self.rf_results: dict = {}
        self.decisions: dict = {}

    # -- data ----------------------------------------------------------

    @cached_property
    def raw(self) -> dsm.PanelDataset:
        if self.cfg.demo:
            ds = demo_mod.make_demo_panel(self.cfg.seed)
        else:
            ds = dsm.load_csv(self.cfg.input)
        self._validate_against_data(ds)
        return ds

    def _validate_against_data(self, ds: dsm.PanelDataset) -> None:
        problems = []
        known = set(ds.entities)
        for name, members in self.cfg.groups.items():
            unknown = [m for m in members if m not in known]
            if unknown:
                problems.append(f"group {name!r} references unknown entities {unknown}")
        have = set(ds.columns)
        for var in self.cfg.log_vars + self.cfg.outlier_vars:
            if var not in have:
                problems.append(f"preprocessing references unknown column {var!r}")
        if problems:
            raise ConfigError(problems)

    @cached_property
    def prepared(self) -> dsm.PanelDataset:
        """Outlier-filtered, log-transformed, lagged dataset."""
        ds = self.raw
        rule = dsm.OutlierRule(self.cfg.outlier_rule.get("kind", "none"),
                               float(self.cfg.outlier_rule.get("k", 1.5)))
        vars_ = self.cfg.outlier_vars or [n for n in ds.columns]
        ds, self._removal_log = dsm.remove_outliers(ds, vars_, rule)
        if self.cfg.log_vars:
            ds = dsm.log_transform(ds, self.cfg.log_vars)
        lag_vars = [v for v in self.cfg.lag_vars if v in ds.columns]
        missing = [v for v in self.cfg.lag_vars if v not in ds.columns]
        if missing:
            raise ConfigError([f"lag variable {v!r} not found after transforms"
                               for v in missing])
        if lag_vars:
            ds = dsm.add_lags(ds, lag_vars, self.cfg.lag_order)
        return ds

    @cached_property
    def fingerprint(self) -> str:
        """Fingerprint of the prepared dataset, shared by every report block."""
        return self.prepared.fingerprint()

    @property
    def groups(self) -> dict[str, list[str]]:
        if self.cfg.groups:
            return self.cfg.groups
        return {"all": self.prepared.entities}

    def group_data(self, members: list[str]) -> dsm.PanelDataset:
        mask = np.isin(self.prepared.entity.astype(str), members)
        return self.prepared.select_rows(mask)

    # -- model specs ----------------------------------------------------

    def static_spec(self) -> lin.ModelSpec:
        s = self.cfg.static
        if not s:
            raise ConfigError(["models.static is required for this step"])
        return lin.ModelSpec(
            dependent=s["dependent"],
            regressors=tuple(s.get("regressors", [])),
            controls=tuple(s.get("controls", [])),
            include_time_dummies=bool(s.get("time_dummies", False)),
            effects=s.get("effects", "fixed"),
        )

    def dynamic_spec(self) -> gmm_mod.GmmSpec:
        d = self.cfg.dynamic
        if not d:
            raise ConfigError(["models.dynamic is required for this step"])
        lags = d.get("instrument_lags", [2, 4])
        if isinstance(lags, dict):
            lags = {k: tuple(v) for k, v in lags.items()}
        else:
            lags = tuple(lags)
        return gmm_mod.GmmSpec(
            dependent=d["dependent"],
            regressors=tuple(d.get("regressors", [])),
            instrument_lags=lags,
            include_time_dummies=bool(d.get("time_dummies", False)),
        )

    def forest_config(self, *path) -> ForestConfig:
        return _forest_config(self.cfg.forest, derive_seed(self.cfg.seed, "forest", *path))

    def rf_design(self, ds: dsm.PanelDataset, setting: str):
        """Feature matrix for the forest: static spec regressors/controls,
        plus the lagged dependent in the dynamic setting."""
        spec = self.static_spec()
        dep = spec.dependent
        features = list(spec.slopes)
        if setting == "dynamic":
            lagdep = f"{dep}(t-{self.cfg.lag_order})"
            if lagdep not in ds.columns:
                raise ConfigError([f"dynamic RF needs {lagdep!r}; add {dep!r} to "
                                   "preprocessing.lag_vars"])
            features = [lagdep] + features
        mask = ds.complete_rows([dep, *features])
        X = np.column_stack([ds.column(f)[mask] for f in features])
        y = ds.column(dep)[mask]
        return X, y, features, mask

    # -- stages ----------------------------------------------------------

    def step_describe(self) -> None:
        ds = self.raw
        stats = dsm.describe(ds)
        tables = self.out / "tables"
        write_csv(tables / "descriptive_stats.csv",
                  ["variable", "mean", "median", "min", "max",
                   "std_dev", "skewness", "kurtosis", "count"],
                  ([row[0]] + [fmt4(v) for v in row[1:-1]] + [row[-1]]
                   for row in stats.rows()))
        corr = dsm.correlation_matrix(ds, list(ds.columns))
        write_csv(tables / "correlation_matrix.csv", ["variable", *corr.names],
                  ([name] + [fmt4(v) for v in corr.matrix[i]]
                   for i, name in enumerate(corr.names)))
        print(f"describe: {ds.n_rows} rows, {len(ds.entities)} entities, "
              f"years {ds.years[0]}-{ds.years[-1]}")

    def step_fit_linear(self) -> None:
        self.linear_blocks = []
        spec = self.static_spec()
        hausman_rows, alt_blocks = [], []
        for gname, members in self.groups.items():
            sub = self.group_data(members)
            fe = lin.fit(replace(spec, effects="fixed"), sub)
            re = lin.fit(replace(spec, effects="random"), sub)
            # Hausman compares the classical covariances
            haus = lin.hausman(fe, re)
            fe, re = lin.robust_covariance(fe), lin.robust_covariance(re)
            main, alt = (re, fe) if spec.effects == "random" else (fe, re)
            self.linear_blocks.append(
                rpt.from_linear(main, gname, "static", fingerprint=self.fingerprint))
            alt_blocks.append(rpt.from_linear(alt, gname, "static",
                                              fingerprint=self.fingerprint))
            hausman_rows.append([gname, fmt4(haus.statistic), haus.df, fmt4(haus.p),
                                 haus.preferred, haus.nonpsd])
            print(f"fit-linear[{gname}]: n={main.n_obs} R2={main.metrics.r_squared:.4f}")
        tables = self.out / "tables"
        write_csv(tables / "hausman.csv",
                  ["group", "statistic", "df", "p", "preferred", "nonpsd"], hausman_rows)
        rpt.emit_tables(rpt.build_report(self.linear_blocks), self.out,
                        only=[("static", "linear")])
        # the estimator not chosen as main still gets reported
        alt = "random" if spec.effects != "random" else "fixed"
        rpt.write_model_table(tables / f"table_static_linear_{alt}.csv", alt_blocks)

    def step_fit_gmm(self) -> None:
        self.gmm_blocks = []
        spec = self.dynamic_spec()
        for gname, members in self.groups.items():
            fit = gmm_mod.fit_system_gmm(spec, self.group_data(members))
            self.gmm_blocks.append(rpt.from_gmm(fit, gname, fingerprint=self.fingerprint))
            print(f"fit-gmm[{gname}]: n_diff={fit.n_obs_diff} n_level={fit.n_obs_level} "
                  f"instruments={fit.instrument_count} sargan_p={fmt4(fit.sargan.p)}")
        rpt.emit_tables(rpt.build_report(self.gmm_blocks), self.out,
                        only=[("dynamic", "gmm")])

    def step_fit_rf(self) -> None:
        """Fit forests per (group, setting) with everything the importance
        and compare stages need; decisions on earlier forests are dropped."""
        self.rf_results, self.decisions = {}, {}
        for setting in ("static", "dynamic"):
            for gname, members in self.groups.items():
                X, y, features, _ = self.rf_design(self.group_data(members), setting)
                forest = fit_forest(X, y, self.forest_config(gname, setting), features)
                metrics = forest_metrics(forest, X, y)
                oob = oob_score(forest, X, y)
                imp = permutation_importance(
                    forest, X, y, n_repeats=self.cfg.importance_repeats,
                    seed=derive_seed(self.cfg.seed, "vimp", gname, setting))
                self.rf_results[(gname, setting)] = {
                    "X": X, "y": y, "features": features,
                    "metrics": metrics, "importance": imp,
                }
                print(f"fit-rf[{gname}/{setting}]: n={metrics.n_obs} "
                      f"R2={metrics.r2:.4f} OOB_R2={oob.oob_r2:.4f}")

    def rf_blocks(self) -> list[rpt.ModelBlock]:
        return [rpt.from_forest(res["metrics"], res["importance"], gname, setting,
                                decisions=self.decisions.get((gname, setting)),
                                fingerprint=self.fingerprint)
                for (gname, setting), res in self.rf_results.items()]

    def step_importance(self) -> None:
        self.decisions = {}
        cfg = _seq_test_config(self.cfg.seq_test)
        for (gname, setting), res in self.rf_results.items():
            features = res["features"]
            decisions = rfvimptest_all(
                res["X"], res["y"], features, cfg,
                master_seed=derive_seed(self.cfg.seed, "seqtest", gname, setting),
                workers=self.cfg.workers, feature_names=features,
                forest_config=self.forest_config(gname, setting))
            self.decisions[(gname, setting)] = decisions
            stars = vimp_mod.significance_codes(decisions)
            imp = res["importance"]
            write_csv(self.out / "tables" / f"importance_decisions_{gname}_{setting}.csv",
                      ["variable", "importance", "std", "p_estimate",
                       "decision", "m_used", "stopping_reason", "stars"],
                      ([name, fmt4(dec.observed_vimp), fmt4(imp.stds.get(name)),
                        fmt4(dec.p_estimate), dec.decision, dec.m, dec.stopping_reason,
                        stars[name]] for name, dec in decisions.items()))
            rpt.emit_importance_figure(
                decisions, imp, self.out / "figures" / f"importance_{gname}_{setting}.svg")
            n_sig = sum(d.decision == "significant" for d in decisions.values())
            print(f"importance[{gname}/{setting}]: {n_sig}/{len(decisions)} significant")

    def step_compare(self) -> None:
        report = rpt.build_report(self.linear_blocks + self.gmm_blocks + self.rf_blocks())
        write_csv(self.out / "tables" / "model_comparison.csv",
                  ["group", "setting", "model", "r2", "adj_r2", "mse", "f_stat", "n_obs"],
                  ([b.group, b.setting, b.model,
                    fmt4(b.metrics.get("r2")), fmt4(b.metrics.get("adj_r2")),
                    fmt4(b.metrics.get("mse")), fmt4(b.metrics.get("f_stat")),
                    b.metrics.get("n_obs", "")] for b in report.blocks))
        print(f"compare: {len(report.blocks)} model blocks")

    def run(self, subcommand: str) -> None:
        stages = STAGES[subcommand]
        if stages != ("describe",):  # every other stage reads the prepared panel,
            self.prepared  # whose outlier filter fills the removal log
            dsm.write_removal_log(self._removal_log, self.out / "removal_log.csv")
        for stage in stages:
            getattr(self, f"step_{stage}")()
        if "fit_rf" in stages:
            # written once, after importance (if it ran) added its p-values
            rpt.emit_tables(rpt.build_report([], self.rf_blocks()), self.out,
                            only=[("static", "rf"), ("dynamic", "rf")])
        if subcommand == "all":
            rpt.write_manifest(self.out, self.cfg.echo(), self.cfg.seed, self.fingerprint)
            print(f"all: artifacts under {self.out}")


def _forest_config(raw: dict, seed: int) -> ForestConfig:
    return ForestConfig(n_trees=int(raw.get("n_trees", 150)), mtry=raw.get("mtry"),
                        min_leaf=int(raw.get("min_leaf", 5)),
                        max_depth=raw.get("max_depth"), seed=seed)


def _seq_test_config(raw: dict) -> SeqTestConfig:
    return SeqTestConfig(**{k: (tuple(v) if k == "sapt_bounds" and v else v)
                            for k, v in raw.items()})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panelforest",
        description="Panel regressions, System GMM and random-forest importance "
                    "analysis from one config file.")
    parser.add_argument("subcommand", choices=STAGES)
    parser.add_argument("-c", "--config", help="JSON config file")
    parser.add_argument("--demo", action="store_true",
                        help="run on the bundled synthetic panel")
    parser.add_argument("--input", help="input CSV (overrides config)")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--workers", type=int,
                        help="parallel workers (overrides config and "
                             "PANELFOREST_WORKERS)")
    parser.add_argument("--out", help="output directory (overrides config)")
    return parser


def load_config(args: argparse.Namespace) -> RunConfig:
    raw: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError([f"config file not found: {path}"])
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config is not valid JSON: {exc}"]) from None
    if args.demo and not raw:
        raw = demo_mod.demo_config(seed=args.seed if args.seed is not None else 0)
    # flag overrides beat file values
    if args.demo:
        raw["demo"] = True
        raw.pop("input", None)
    if args.input is not None:
        raw["input"] = args.input
        raw["demo"] = False
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.workers is not None:
        raw["workers"] = args.workers
    if args.out is not None:
        raw["out"] = args.out
    return RunConfig.from_mapping(raw)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        Runner(cfg).run(args.subcommand)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
