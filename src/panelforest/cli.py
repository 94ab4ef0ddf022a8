"""Config-driven command line: describe -> fit-linear -> fit-gmm -> fit-rf
-> importance -> compare (or `all`).

Configuration is one JSON file; `--seed`, `--workers`, `--out`, `--input`
and `--demo` override its top-level keys (flag wins over file, file wins
over defaults).  A seed is mandatory: there is no wall-clock fallback.
Progress goes to stdout, and errors and warnings to stderr, one line each;
artifacts land under the output directory only.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
import warnings
from dataclasses import astuple, dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import dataset as dsm
from . import demo as demo_mod
from . import gmm as gmm_mod
from . import linear as lin
from . import report as rpt
from . import vimp as vimp_mod
from ._common import count_problem, fmt4, is_number, write_csv
from ._rng import derive_seed
from .forest import ForestConfig, fit_forest, forest_metrics, oob_score
from .vimp import SeqTestConfig, permutation_importance, rfvimptest_many

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
# every key a config block may set, with its default; "" is the top level,
# and a dotted name is a block inside another
SECTIONS = {
    "": {"input": None, "demo": False, "seed": None, "workers": 1,
         "out": "panelforest-out", "groups": {}, "preprocessing": {}, "models": {},
         "forest": {}, "seq_test": {}, "importance_repeats": 10},
    "preprocessing": {"log_vars": [], "outlier_rule": {"kind": "none"},
                      "outlier_vars": [], "lag_vars": [], "lag_order": 1},
    "preprocessing.outlier_rule": {"kind": "none", "k": 1.5},
    "models": {"static": {}, "dynamic": {}},
    "models.static": {"dependent": None, "regressors": [], "controls": [],
                      "effects": "fixed", "time_dummies": False},
    "models.dynamic": {"dependent": None, "regressors": [], "instrument_lags": (2, 4),
                       "time_dummies": False},
    "forest": {"n_trees": 150, "mtry": None, "min_leaf": 5, "max_depth": None},
    "seq_test": {f.name: f.default for f in fields(SeqTestConfig)},
}


class ConfigError(ValueError):
    """Invalid run configuration; message lists every violation."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" +
                         "\n".join(f"  - {p}" for p in self.problems))


@dataclass(frozen=True)
class RunConfig:
    """A checked run configuration: the typed settings the stages read,
    built once by :meth:`from_mapping`."""

    seed: int
    out: str
    input: str | None
    demo: bool
    workers: int
    groups: dict[str, list[str]]
    log_vars: list[str]
    outlier_rule: dsm.OutlierRule
    outlier_vars: list[str]
    lag_vars: list[str]
    lag_order: int
    static: lin.ModelSpec | None
    dynamic: gmm_mod.GmmSpec | None
    forest: ForestConfig  # seed 0: step_fit_rf seeds each forest
    seq_test: SeqTestConfig
    importance_repeats: int
    echo: dict  # the settings as given, for the provenance manifest

    @classmethod
    def from_mapping(cls, raw: dict) -> "RunConfig":
        """Check `raw` against SECTIONS and build every setting the stages
        read; one ConfigError lists every problem found."""
        problems: list[str] = []
        blocks = _blocks(raw, problems)
        top, pre = blocks[""], blocks["preprocessing"]
        if top["seed"] is None:
            problems.append("seed is mandatory (reproducibility first; no clock default)")
        elif problem := count_problem(top["seed"], "seed", 0):
            problems.append(problem)
        if top["demo"] is False and not top["input"]:  # a rejected demo is reported alone
            problems.append("either input (CSV path) or demo must be set")
        if top["demo"] is True and top["input"]:
            problems.append("input and demo are mutually exclusive")
        if not isinstance(top["input"] or "", str):
            problems.append(f"input must be a CSV path, got {top['input']!r}")
        groups = top["groups"]
        if not isinstance(groups, dict):
            problems.append(f"groups must be a JSON object, got {groups!r}")
            groups = {}
        groups = {name: _names(members, f"groups.{name}", problems)
                  for name, members in groups.items()}
        problems += [f"group {name!r} is empty" for name, m in groups.items() if m == []]
        rule = blocks["preprocessing.outlier_rule"]
        outlier_rule = _build(problems, "preprocessing.outlier_rule",
                              lambda: dsm.OutlierRule(rule["kind"], float(rule["k"])))
        effects = blocks["models.static"]["effects"]
        if effects not in ("fixed", "random"):  # the two estimators fit-linear runs
            problems.append(f"models.static.effects must be fixed or random, got {effects!r}")
        specs = {}
        for name, make in (("static", _static_spec), ("dynamic", _dynamic_spec)):
            given, block = blocks["models"][name], blocks[f"models.{name}"]
            if given and block["dependent"] is None:  # an empty block is an absent one
                problems.append(f"models.{name}.dependent is required")
            elif given:
                specs[name] = _build(problems, f"models.{name}", lambda: make(block))
        for key in ("mtry", "max_depth"):  # null, the default, means no limit
            value = blocks["forest"][key]
            if value is not None and (problem := count_problem(value, f"forest.{key}", 1)):
                problems.append(problem)
        seq = blocks["seq_test"]
        if isinstance(seq["sapt_bounds"], list):  # a JSON pair
            seq = {**seq, "sapt_bounds": tuple(seq["sapt_bounds"])}
        seq_test = _build(problems, "seq_test", lambda: SeqTestConfig(**seq))
        if problems:
            raise ConfigError(problems)
        echo = copy.deepcopy({**top, "groups": groups, "preprocessing": pre,
                              "models": blocks["models"]})
        del echo["out"]  # where artifacts go is not part of what they hold
        return cls(seed=top["seed"], out=str(top["out"]), input=top["input"],
                   demo=top["demo"], workers=top["workers"], groups=groups,
                   **{key: list(pre[key]) for key in ("log_vars", "outlier_vars", "lag_vars")},
                   outlier_rule=outlier_rule, lag_order=pre["lag_order"],
                   static=specs.get("static"), dynamic=specs.get("dynamic"),
                   forest=ForestConfig(**blocks["forest"]), seq_test=seq_test,
                   importance_repeats=top["importance_repeats"], echo=echo)


def _blocks(raw, problems: list[str]) -> dict[str, dict]:
    """Each SECTIONS block of `raw`, defaults filled in.  A non-object block,
    an unknown key, or a value not of its default's type is a problem: a
    count (int default) is an integer of at least 1, a switch (bool) a JSON
    boolean, a number (float) a JSON number, and a name list (list) a list
    of strings."""
    blocks: dict[str, dict] = {}
    for path, defaults in SECTIONS.items():
        parent, _, name = path.rpartition(".")
        block = blocks[parent][name] if path else raw
        if not isinstance(block, dict):
            problems.append(f"{path or 'the config'} must be a JSON object, got {block!r}")
            block = {}
        prefix = f"{path}." if path else ""
        problems += [f"unknown key '{prefix}{key}'; {path or 'top-level'} keys are "
                     f"{', '.join(defaults)}" for key in block if key not in defaults]
        blocks[path] = {key: block.get(key, default) for key, default in defaults.items()}
        for key, default in defaults.items():  # a default passes its own check
            where, value, kind = prefix + key, blocks[path][key], type(default)
            if kind is int and (problem := count_problem(value, where, 1)):
                problems.append(problem)
            elif kind is bool and not isinstance(value, bool):
                problems.append(f"{where} must be true or false, got {value!r}")
            elif kind is float and not is_number(value):
                problems.append(f"{where} must be a number, got {value!r}")
            elif kind is list:
                _names(value, where, problems)
    return blocks


def _names(value, where: str, problems: list[str]) -> list[str] | None:
    """`value` as a list of names, or None with the problem recorded."""
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return list(value)
    problems.append(f"{where} must be a list of names, got {value!r}")
    return None


def _build(problems: list[str], where: str, make):
    """make(), or None with its error recorded as a problem of `where`; a block
    with a rejected key builds nothing, which would report that key again."""
    if any(p.startswith(f"{where}.") for p in problems):
        return None
    try:
        return make()
    except (TypeError, ValueError) as exc:
        problems.append(f"{where}: {exc}")
        return None


def _static_spec(s: dict) -> lin.ModelSpec:
    return lin.ModelSpec(s["dependent"], s["regressors"], controls=s["controls"],
                         include_time_dummies=s["time_dummies"], effects=s["effects"])


def _dynamic_spec(d: dict) -> gmm_mod.GmmSpec:
    return gmm_mod.GmmSpec(d["dependent"], d["regressors"], instrument_lags=d["instrument_lags"],
                           include_time_dummies=d["time_dummies"])


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
            return demo_mod.make_demo_panel(self.cfg.seed)
        return dsm.load_csv(self.cfg.input)

    @cached_property
    def prepared(self) -> dsm.PanelDataset:
        """Outlier-filtered, log-transformed, lagged dataset; `_check` names missing lag_vars."""
        ds, self._removal_log = dsm.remove_outliers(
            self.raw, self.cfg.outlier_vars or list(self.raw.columns), self.cfg.outlier_rule)
        ds = dsm.log_transform(ds, self.cfg.log_vars)
        lag_vars = [v for v in self.cfg.lag_vars if v in ds.columns]
        if lag_vars:
            ds = dsm.add_lags(ds, lag_vars, self.cfg.lag_order)
        return ds

    @cached_property
    def fingerprint(self) -> str:
        """Fingerprint of the prepared dataset, shared by every report block."""
        return self.prepared.fingerprint()

    @cached_property
    def panels(self) -> dict[str, dsm.PanelDataset]:
        """The prepared rows of each group (one group "all" when none is
        configured), selected once for every stage."""
        ds = self.prepared
        entity = ds.entity.astype(str)
        return {name: ds.select_rows(np.isin(entity, members))
                for name, members in (self.cfg.groups or {"all": ds.entities}).items()}

    @property
    def lagdep(self) -> str:
        """The lagged dependent the dynamic forest adds to the static features."""
        return f"{self.cfg.static.dependent}(t-{self.cfg.lag_order})"

    def _check(self, stages: tuple[str, ...]) -> None:
        """Each stage finds the entities, columns and models it reads, checked
        before any artifact is written: one ConfigError lists every problem
        of the raw data or, when there is none, of the prepared data."""
        cfg, ds = self.cfg, self.raw
        known = set(ds.entities)
        problems = [f"group {name!r} references unknown entities {unknown}"
                    for name, members in cfg.groups.items()
                    if (unknown := [m for m in members if m not in known])]
        problems += [f"preprocessing references unknown column {var!r}"
                     for var in cfg.log_vars + cfg.outlier_vars if var not in ds.columns]
        if not problems and stages != ("describe",):  # the rest read the prepared panel
            ds, static, dynamic = self.prepared, cfg.static, cfg.dynamic
            problems += [f"lag variable {v!r} not found after transforms"
                         for v in cfg.lag_vars if v not in ds.columns]
            named = []
            if static is not None:
                named += [("static.dependent", [static.dependent]),
                          ("static.regressors", static.regressors),
                          ("static.controls", static.controls)]
            if dynamic is not None:
                named += [("dynamic.dependent", [dynamic.dependent]),
                          ("dynamic.regressors", dynamic.regressors)]
            problems += [f"models.{key} names unknown column {name!r}; the prepared data has "
                         f"{', '.join(ds.columns)}"
                         for key, names in named for name in names if name not in ds.columns]
            if static is None and {"fit_linear", "fit_rf"} & set(stages):
                problems.append("models.static is required for this step")
            if dynamic is None and "fit_gmm" in stages:
                problems.append("models.dynamic is required for this step")
            if static is not None and "fit_rf" in stages:
                if self.lagdep not in ds.columns:
                    problems.append(f"dynamic RF needs {self.lagdep!r}; add "
                                    f"{static.dependent!r} to preprocessing.lag_vars")
                if self.lagdep in static.slopes:  # the dynamic forest would hold it twice
                    problems.append(f"dynamic RF adds {self.lagdep!r} itself; "
                                    "drop it from models.static")
                try:
                    cfg.forest.resolve_mtry(len(static.slopes))
                except ValueError as err:
                    problems.append(f"forest.{err}")
        if problems:
            raise ConfigError(problems)

    def rf_design(self, ds: dsm.PanelDataset, setting: str):
        """Feature matrix for the forest: static spec regressors/controls,
        plus the lagged dependent in the dynamic setting."""
        dep = self.cfg.static.dependent
        features = list(self.cfg.static.slopes)
        if setting == "dynamic":
            features = [self.lagdep] + features
        mask = ds.complete_rows([dep, *features])
        X = np.column_stack([ds.column(f)[mask] for f in features])
        y = ds.column(dep)[mask]
        return X, y, features

    # -- stages ----------------------------------------------------------

    def step_describe(self) -> None:
        ds = self.raw
        stats = dsm.describe(ds)
        tables = self.out / "tables"
        write_csv(tables / "descriptive_stats.csv",
                  ["variable", "mean", "median", "min", "max",
                   "std_dev", "skewness", "kurtosis", "count"],
                  ([name] + [fmt4(v) for v in astuple(s)[:-1]] + [s.count]
                   for name, s in stats.items()))
        corr = dsm.correlation_matrix(ds, list(ds.columns))
        write_csv(tables / "correlation_matrix.csv", ["variable", *corr.names],
                  ([name] + [fmt4(v) for v in corr.matrix[i]]
                   for i, name in enumerate(corr.names)))
        print(f"describe: {ds.n_rows} rows, {len(ds.entities)} entities, "
              f"years {ds.years[0]}-{ds.years[-1]}")

    def step_fit_linear(self) -> None:
        self.linear_blocks = []
        spec = self.cfg.static
        hausman_rows, alt_blocks = [], []
        for gname, sub in self.panels.items():
            fe = lin.fit(replace(spec, effects="fixed"), sub)
            re = lin.fit(replace(spec, effects="random"), sub)
            # Hausman compares the classical covariances
            haus = lin.hausman(fe, re)
            fe, re = lin.robust_covariance(fe), lin.robust_covariance(re)
            main, alt = (re, fe) if spec.effects == "random" else (fe, re)
            self.linear_blocks.append(rpt.from_linear(main, gname, fingerprint=self.fingerprint))
            alt_blocks.append(rpt.from_linear(alt, gname, fingerprint=self.fingerprint))
            hausman_rows.append([gname, fmt4(haus.statistic), haus.df, fmt4(haus.p),
                                 haus.preferred, haus.nonpsd])
            print(f"fit-linear[{gname}]: n={main.n_obs} R2={main.metrics.r_squared:.4f}")
        tables = self.out / "tables"
        write_csv(tables / "hausman.csv",
                  ["group", "statistic", "df", "p", "preferred", "nonpsd"], hausman_rows)
        rpt.emit_tables(self.linear_blocks, self.out)
        # the estimator not chosen as main still gets reported
        alt = "random" if spec.effects != "random" else "fixed"
        rpt.write_model_table(tables / f"table_static_linear_{alt}.csv", alt_blocks)

    def step_fit_gmm(self) -> None:
        self.gmm_blocks = []
        for gname, sub in self.panels.items():
            fit = gmm_mod.fit_system_gmm(self.cfg.dynamic, sub)
            self.gmm_blocks.append(rpt.from_gmm(fit, gname, fingerprint=self.fingerprint))
            print(f"fit-gmm[{gname}]: n_diff={fit.n_obs_diff} n_level={fit.n_obs_level} "
                  f"instruments={fit.instrument_count} sargan_p={fmt4(fit.sargan.p)}")
        rpt.emit_tables(self.gmm_blocks, self.out)

    def step_fit_rf(self) -> None:
        """Fit forests per (group, setting) with everything the importance
        and compare stages need; decisions on earlier forests are dropped."""
        self.rf_results, self.decisions = {}, {}
        for setting in ("static", "dynamic"):
            for gname, sub in self.panels.items():
                X, y, features = self.rf_design(sub, setting)
                fcfg = replace(self.cfg.forest,
                               seed=derive_seed(self.cfg.seed, "forest", gname, setting))
                forest = fit_forest(X, y, fcfg, features)
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
        """Every sequential test of every (group, setting) on one pool."""
        designs = [(res["X"], res["y"], res["features"],
                    derive_seed(self.cfg.seed, "seqtest", gname, setting))
                   for (gname, setting), res in self.rf_results.items()]
        self.decisions = dict(zip(self.rf_results, rfvimptest_many(
            designs, self.cfg.seq_test, workers=self.cfg.workers,
            forest_config=self.cfg.forest)))
        for (gname, setting), decisions in self.decisions.items():
            stars = vimp_mod.significance_codes(decisions)
            imp = self.rf_results[(gname, setting)]["importance"]
            # importance and std are fit-rf's, as in the figure; observed_vimp
            # is the statistic of the test, from its own ntree-tree forest
            write_csv(self.out / "tables" / f"importance_decisions_{gname}_{setting}.csv",
                      ["variable", "importance", "std", "observed_vimp", "p_estimate",
                       "decision", "m_used", "stopping_reason", "stars"],
                      ([name, fmt4(imp.means[name]), fmt4(imp.stds[name]),
                        fmt4(dec.observed_vimp), fmt4(dec.p_estimate), dec.decision, dec.m,
                        dec.stopping_reason, stars[name]] for name, dec in decisions.items()))
            rpt.emit_importance_figure(
                decisions, imp, self.out / "figures" / f"importance_{gname}_{setting}.svg")
            n_sig = sum(d.decision == "significant" for d in decisions.values())
            print(f"importance[{gname}/{setting}]: {n_sig}/{len(decisions)} significant")

    def step_compare(self) -> None:
        blocks = self.linear_blocks + self.gmm_blocks + self.rf_blocks()
        write_csv(self.out / "tables" / "model_comparison.csv",
                  ["group", "setting", "model", "r2", "adj_r2", "mse", "f_stat", "n_obs"],
                  ([b.group, b.setting, b.model,
                    fmt4(b.metrics.get("r2")), fmt4(b.metrics.get("adj_r2")),
                    fmt4(b.metrics.get("mse")), fmt4(b.metrics.get("f_stat")),
                    b.metrics.get("n_obs", "")] for b in blocks))
        print(f"compare: {len(blocks)} model blocks")

    def run(self, subcommand: str) -> None:
        stages = STAGES[subcommand]
        self._check(stages)
        if stages != ("describe",):  # the prepared panel's outlier filter filled the log
            dsm.write_removal_log(self._removal_log, self.out / "removal_log.csv")
        for stage in stages:
            getattr(self, f"step_{stage}")()
        if "fit_rf" in stages:
            # written once, after importance (if it ran) added its p-values
            rpt.emit_tables(self.rf_blocks(), self.out)
        if subcommand == "all":
            rpt.write_manifest(self.out, self.cfg.echo, self.cfg.seed, self.fingerprint)
            print(f"all: artifacts under {self.out}")


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
    parser.add_argument("--workers", type=int, help="parallel workers (overrides config)")
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
        if not isinstance(raw, dict):
            raise ConfigError([f"{path} must hold a JSON object"])
    if args.demo and not raw:
        raw = demo_mod.demo_config(seed=args.seed if args.seed is not None else 0)
    # flag overrides beat file values
    if args.demo:
        raw.update(demo=True, input=None)
    if args.input is not None:
        raw.update(input=args.input, demo=False)
    flags = {"seed": args.seed, "workers": args.workers, "out": args.out}
    raw.update({key: value for key, value in flags.items() if value is not None})
    return RunConfig.from_mapping(raw)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():  # restores the caller's warning display
        warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
        try:
            Runner(load_config(args)).run(args.subcommand)
        except (ValueError, KeyError, OSError) as exc:  # a ConfigError is a ValueError
            print(f"error: {exc}", file=sys.stderr)
            return 2 if isinstance(exc, ConfigError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
