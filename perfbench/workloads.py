"""Workload inputs and output checks for the panelforest benchmark.

Each workload is a CLI invocation through ``panelforest.cli.Runner`` plus the
files it reads, all made from the benchmark seed.  The generators here do not
import panelforest: the program under test receives only the generated CSV
and config, so a change to the program cannot change its own inputs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

VARIABLES = ("Investment_Ratio", "Growth", "Jobless_Rate", "Tax_Share", "Inflation")
LAGDEP = "LN_Investment_Ratio(t-1)"

# Preprocessing and model blocks of the bundled demo configuration.
PREPROCESSING = {
    "log_vars": ["Investment_Ratio", "Jobless_Rate", "Tax_Share"],
    "outlier_rule": {"kind": "iqr", "k": 3.0},
    "outlier_vars": ["Growth", "Inflation"],
    "lag_vars": ["LN_Investment_Ratio", "Growth", "LN_Jobless_Rate",
                 "LN_Tax_Share", "Inflation"],
    "lag_order": 1,
}
REGRESSORS = ["Growth(t-1)", "LN_Jobless_Rate(t-1)", "LN_Tax_Share(t-1)",
              "Inflation(t-1)"]
MODELS = {
    "static": {"dependent": "LN_Investment_Ratio", "regressors": REGRESSORS,
               "controls": [], "effects": "fixed", "time_dummies": False},
    "dynamic": {"dependent": "LN_Investment_Ratio", "regressors": REGRESSORS,
                "instrument_lags": [2, 2], "time_dummies": False},
}

# demo_all: the demo forest and sequential-test blocks, scaled so that one
# `all` run takes seconds instead of ~50 s.  mmax=19 is the smallest budget
# at which the add-one p-value (d+1)/(m+1) can reach alpha=0.05, so signal
# variables still end in mmax_fallback exactly as with mmax=40.
DEMO_FOREST = {"n_trees": 40, "min_leaf": 5}
DEMO_SEQ_TEST = {"method": "sprt", "mmax": 19, "ntree": 5, "nperm": 1}
DEMO_WORKERS = 2

RF_ENTITIES = 100
RF_FOREST = {"n_trees": 40, "min_leaf": 5}
# The south group's dynamic OOB R2 is 0.74-0.85 (mean 0.79, sd 0.03) over 15
# draws with 40 trees, so a bound of 0.7 would fail a correct program on about
# one draw in a thousand.  The static OOB R2, without the lagged dependent, is
# 0.17-0.45: a forest that misses the lagged dependent still fails 0.6.
RF_MIN_OOB_R2 = 0.6
ECON_ENTITIES = 1000

DEMO_GROUPS = {"north": [f"N{i:02d}" for i in range(12)],
               "south": [f"S{i:02d}" for i in range(12)]}
DEMO_ARTIFACTS = [
    "provenance.json", "removal_log.csv",
    *(f"tables/{t}.csv" for t in (
        "descriptive_stats", "correlation_matrix", "hausman", "model_comparison",
        "table_static_linear", "table_static_linear_full", "table_dynamic_gmm",
        "table_dynamic_gmm_full", "rf_importance_static", "rf_importance_static_full",
        "rf_importance_dynamic", "rf_importance_dynamic_full")),
    *(f"tables/importance_decisions_{g}_{s}.csv" for g in DEMO_GROUPS
      for s in ("static", "dynamic")),
    *(f"figures/importance_{g}_{s}.svg" for g in DEMO_GROUPS
      for s in ("static", "dynamic")),
]

# demo_all content_hash for the inputs of the default (7) and held-out (11)
# benchmark seeds; reported, never gated on, since a deliberate, documented
# redraw of random numbers may change it
DEMO_REFERENCE_HASH = {
    7: "961097f71908d81c472a690da44ed79c2fa6c309ea8799da62bd67581ab4a7f9",
    1007: "5784f5111853868a642b4f8168e7a63895e7a87825a5588c2e4bd6f45b8b1d81",
    2007: "b86f5235293effc182f47f952e3925c190da7147f165000eb001684474d95098",
    11: "d0ccdce2301698ef71e636be9d099d78a851102bf2fa9fd0032da6b6025ac62e",
    1011: "25593261d679a436390c45b5861b99706944c0cd396df5dc445febdabe815501",
    2011: "70c16328bac176890b6cda796ed609c2a6cb60eefc741c455255ad686f706c1b",
}

DECISIONS = {"significant", "not_significant", "undecided"}
STOP_REASONS = {"sprt_boundary", "sapt_boundary", "ci_boundary", "forced_decision",
                "complete", "mmax_fallback", "mmax_undecided"}

INPUTS_PER_RUN = 3


def input_seeds(seed: int) -> list[int]:
    """Program seeds of one benchmark run.  A run cycles over several inputs
    so that its medians describe the workload rather than one draw: on
    demo_all the sequential tests stop early on some draws and not others,
    which moves the work by about ten percent from seed to seed."""
    return [seed + 1000 * j for j in range(INPUTS_PER_RUN)]


def entity_codes(n_entities: int) -> tuple[list[str], list[str]]:
    half = n_entities // 2
    return ([f"N{i:03d}" for i in range(half)],
            [f"S{i:03d}" for i in range(n_entities - half)])


def scaled_demo_panel(seed: int, n_entities: int, n_years: int = 20,
                      start_year: int = 2000) -> list[tuple]:
    """The demo data-generating process for `n_entities` entities.

    Same dynamics as the bundled demo panel (investment inertia driven by
    lagged growth, jobless rate and tax share, entity effects, a north and a
    south half with different growth sensitivity, a few late starters and
    early stoppers), vectorized over entities.  Rows are
    (code, year, *VARIABLES), sorted by entity and year.
    """
    north, south = entity_codes(n_entities)
    codes = north + south
    n = len(codes)
    rng = np.random.default_rng([seed, n_entities, n_years])
    southern = np.arange(n) >= len(north)
    idx = np.arange(n)
    eta = rng.normal(size=n) * 0.06
    growth_beta = np.where(southern, 0.016, 0.009)
    growth_sd = np.where(southern, 2.2, 1.4)
    first = start_year + np.where(idx % 7 == 0, 3, 0)
    last = start_year + n_years - np.where(idx % 9 == 0, 2, 0)
    ln7, ln20, ln21 = math.log(7.0), math.log(20.0), math.log(0.21)

    growth = rng.normal(2.5, 1.5, n)
    ln_jobless = rng.normal(ln7, 0.3, n)
    ln_tax = rng.normal(ln20, 0.2, n)
    inflation = rng.normal(2.5, 1.0, n)
    ln_inv = ln21 + eta
    per_entity: list[list[tuple]] = [[] for _ in range(n)]
    for year in range(start_year - 8, start_year + n_years):
        shock = rng.normal(size=(5, n))
        growth = 0.3 * growth + 0.7 * 2.5 + shock[0] * growth_sd
        ln_jobless = 0.85 * ln_jobless + 0.15 * ln7 + shock[1] * 0.08
        ln_tax = 0.95 * ln_tax + 0.05 * ln20 + shock[2] * 0.02
        inflation = 0.5 * inflation + 0.5 * 2.5 + shock[3] * 1.2
        ln_inv = (ln21 * 0.25 + 0.75 * ln_inv + growth_beta * growth
                  - 0.05 * (ln_jobless - ln7) - 0.10 * (ln_tax - ln20)
                  - 0.002 * inflation + 0.25 * eta + shock[4] * 0.025)
        keep = (year >= first) & (year < last)
        values = (np.exp(ln_inv), growth, np.exp(ln_jobless), np.exp(ln_tax), inflation)
        for e in np.flatnonzero(keep):
            per_entity[e].append((codes[e], year) + tuple(float(v[e]) for v in values))
    return [row for rows in per_entity for row in rows]


def write_panel_csv(path: Path, rows: list[tuple]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["Code", "Year", *VARIABLES])
        for code, year, *vals in rows:
            w.writerow([code, year, *(repr(v) for v in vals)])


def base_config(seed: int, groups: dict) -> dict:
    return {"seed": seed, "groups": groups, "preprocessing": PREPROCESSING,
            "models": MODELS, "importance_repeats": 10,
            "seq_test": DEMO_SEQ_TEST}


# -- output checks -------------------------------------------------------


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def full_table(path: Path) -> dict[tuple[str, str], tuple[float, float, float]]:
    """(group, variable) -> (value, dispersion, p) from a *_full.csv table;
    an empty cell reads as NaN."""
    return {(r["group"], r["variable"]): tuple(float(r[k] or "nan")
                                               for k in ("value", "dispersion", "p"))
            for r in read_csv(path)}


def check_demo_all(out: Path, log: str, seed: int) -> list[str]:
    problems = [f"missing artifact {a}" for a in DEMO_ARTIFACTS if not (out / a).is_file()]
    if problems:
        return problems
    mmax = DEMO_SEQ_TEST["mmax"]
    for g in DEMO_GROUPS:
        for s in ("static", "dynamic"):
            name = f"importance_decisions_{g}_{s}.csv"
            rows = read_csv(out / "tables" / name)
            if len(rows) != len(REGRESSORS) + (s == "dynamic"):
                problems.append(f"{name}: {len(rows)} decision rows")
            for r in rows:
                try:
                    m = int(r["m_used"])
                    p = float(r["p_estimate"])
                except (KeyError, ValueError):
                    problems.append(f"{name}: unparseable row {r}")
                    continue
                if not (1 <= m <= mmax) or not (0 < p <= 1) \
                        or r["decision"] not in DECISIONS \
                        or r["stopping_reason"] not in STOP_REASONS:
                    problems.append(f"{name}: invalid row {r}")
            lagdep = [r for r in rows if r["variable"] == LAGDEP]
            if s == "dynamic" and (not lagdep or lagdep[0]["decision"] != "significant"):
                problems.append(f"{name}: lagged dependent not significant")
    return problems


def check_rf_fit_rank(out: Path, log: str, seed: int) -> list[str]:
    problems = []
    for g in ("north", "south"):
        tag = f"fit-rf[{g}/dynamic]:"
        line = next((ln for ln in log.splitlines() if ln.startswith(tag)), None)
        try:
            oob = float(line.rsplit("OOB_R2=", 1)[1])
        except (AttributeError, IndexError, ValueError):
            problems.append(f"no OOB R2 line for {g}/dynamic")
            continue
        if not oob >= RF_MIN_OOB_R2:
            problems.append(f"{g}/dynamic OOB R2 {oob:.4f} < {RF_MIN_OOB_R2}")
    table = out / "tables" / "rf_importance_dynamic_full.csv"
    if not table.is_file():
        return problems + ["missing rf_importance_dynamic_full.csv"]
    imp = full_table(table)
    for g in ("north", "south"):
        ranked = sorted((v[0], var) for (grp, var), v in imp.items() if grp == g)
        if len(ranked) != len(REGRESSORS) + 1 or ranked[-1][1] != LAGDEP:
            problems.append(f"{g}: lagged dependent does not rank first ({ranked[-1:]})")
    return problems


REFERENCE_FILE = Path(__file__).with_name("reference_estimates.json")
# relative tolerance against the stored estimates: reordered float sums may
# move the last digits, nothing more
REFERENCE_RTOL = 1e-7


def econ_estimates(out: Path) -> dict[str, dict]:
    return {name: {f"{g}|{v}": list(vals) for (g, v), vals in
                   full_table(out / "tables" / f"{name}_full.csv").items()}
            for name in ("table_static_linear", "table_dynamic_gmm")}


def check_panel_econometrics(out: Path, log: str, seed: int) -> list[str]:
    needed = ["tables/descriptive_stats.csv", "tables/correlation_matrix.csv",
              "tables/hausman.csv", "tables/table_static_linear_full.csv",
              "tables/table_dynamic_gmm_full.csv"]
    problems = [f"missing artifact {a}" for a in needed if not (out / a).is_file()]
    if problems:
        return problems
    est = econ_estimates(out)
    lin, gmm = est["table_static_linear"], est["table_dynamic_gmm"]
    for g in ("north", "south"):
        if len([k for k in lin if k.startswith(g + "|")]) != len(REGRESSORS):
            problems.append(f"{g}: linear table lacks regressors")
        if len([k for k in gmm if k.startswith(g + "|")]) != len(REGRESSORS) + 2:
            problems.append(f"{g}: GMM table lacks regressors")
        # the generating process has a positive growth effect; FE finds it
        # with p < 1e-100 on every draw seen
        value, _, p = lin.get(f"{g}|Growth(t-1)", (math.nan,) * 3)
        if not (value > 0 and p < 0.01):
            problems.append(f"{g}: FE growth effect {value} (p={p}) not positive/significant")
    # The GMM inertia is not gated on a range: the model omits the generating
    # process's contemporaneous growth, so the one-step estimate in the south
    # group spreads from about 0.3 (p = 0.15) to 1.02 across draws.  Its values
    # are checked exactly on the reference input instead (`reference_seed`).
    for name, table in est.items():
        for key, (value, dispersion, p) in table.items():
            if not (math.isfinite(value) and dispersion > 0 and 0 <= p <= 1):
                problems.append(f"{name} {key}: invalid estimate {(value, dispersion, p)}")
    reference = json.loads(REFERENCE_FILE.read_text()).get(str(seed))
    if reference is not None:
        for name, table in reference.items():
            for key, ref in table.items():
                got = est[name].get(key)
                if got is None or not np.allclose(got, ref, rtol=REFERENCE_RTOL, atol=0):
                    problems.append(f"{name} {key}: {got} differs from reference {ref}")
    return problems


# -- workload table ------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[str, ...]  # subcommands run in order on one Runner
    check: Callable[[Path, str, int], list[str]]
    n_entities: int | None = None  # generated CSV size; None runs --demo
    # program seed of an input whose outputs are stored with the benchmark;
    # every run checks one untimed iteration on it before measuring
    reference_seed: int | None = None

    def prepare(self, work: Path, seed: int) -> list[str]:
        """Write this workload's inputs under `work`; return the CLI
        arguments that follow the subcommand."""
        work.mkdir(parents=True, exist_ok=True)
        if self.n_entities is None:
            cfg = base_config(seed, DEMO_GROUPS)
            cfg.update(demo=True, forest=DEMO_FOREST)
            extra = ["--demo", "--workers", str(DEMO_WORKERS)]
        else:
            rows = scaled_demo_panel(seed, self.n_entities)
            north, south = entity_codes(self.n_entities)
            write_panel_csv(work / "panel.csv", rows)
            cfg = base_config(seed, {"north": north, "south": south})
            cfg.update(input=str(work / "panel.csv"), forest=RF_FOREST)
            extra = ["--workers", "1"]
        (work / "config.json").write_text(json.dumps(cfg, indent=1))
        return ["-c", str(work / "config.json"), "--seed", str(seed), *extra]


WORKLOADS = {w.name: w for w in (
    Workload("demo_all", ("all",), check_demo_all),
    Workload("rf_fit_rank", ("fit-rf",), check_rf_fit_rank, RF_ENTITIES),
    Workload("panel_econometrics", ("describe", "fit-linear", "fit-gmm"),
             check_panel_econometrics, ECON_ENTITIES, reference_seed=7),
)}
