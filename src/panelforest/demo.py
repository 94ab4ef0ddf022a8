"""Bundled synthetic panel so every command runs without external data.

The generated panel mimics the shape of cross-country investment data:
an investment ratio with strong inertia driven by lagged growth, labor
market and tax conditions, entity effects, and two entity groups with
different sensitivities.  A few entities get shortened year spans so the
panel is honestly unbalanced.
"""

from __future__ import annotations

import numpy as np

from ._rng import stream
from .dataset import PanelDataset, from_records

__all__ = ["make_demo_panel", "DEMO_GROUPS", "demo_config"]

DEMO_GROUPS = {
    "north": [f"N{i:02d}" for i in range(12)],
    "south": [f"S{i:02d}" for i in range(12)],
}
START_YEAR, N_YEARS = 2000, 20


def make_demo_panel(seed: int = 0) -> PanelDataset:
    """Synthetic unbalanced panel with columns
    Investment_Ratio, Growth, Jobless_Rate, Tax_Share, Inflation."""
    rng = stream(seed, "demo-panel")
    entities, years = [], []
    cols: dict[str, list[float]] = {name: [] for name in
                                    ("Investment_Ratio", "Growth", "Jobless_Rate",
                                     "Tax_Share", "Inflation")}
    all_codes = DEMO_GROUPS["north"] + DEMO_GROUPS["south"]
    for idx, code in enumerate(all_codes):
        southern = code.startswith("S")
        eta = rng.normal() * 0.06
        growth_beta = 0.016 if southern else 0.009
        # start a few entities late / stop early: unbalanced coverage
        first = START_YEAR + (3 if idx % 7 == 0 else 0)
        last = START_YEAR + N_YEARS - (2 if idx % 9 == 0 else 0)

        growth = rng.normal(2.5, 1.5)
        ln_jobless = rng.normal(np.log(7.0), 0.3)
        ln_tax = rng.normal(np.log(20.0), 0.2)
        inflation = rng.normal(2.5, 1.0)
        ln_inv = np.log(0.21) + eta
        for year in range(START_YEAR - 8, last):  # burn-in before first
            growth = 0.3 * growth + 0.7 * 2.5 + rng.normal() * (2.2 if southern else 1.4)
            ln_jobless = 0.85 * ln_jobless + 0.15 * np.log(7.0) + rng.normal() * 0.08
            ln_tax = 0.95 * ln_tax + 0.05 * np.log(20.0) + rng.normal() * 0.02
            inflation = 0.5 * inflation + 0.5 * 2.5 + rng.normal() * 1.2
            ln_inv = (np.log(0.21) * 0.25 + 0.75 * ln_inv
                      + growth_beta * growth - 0.05 * (ln_jobless - np.log(7.0))
                      - 0.10 * (ln_tax - np.log(20.0)) - 0.002 * inflation
                      + 0.25 * eta + rng.normal() * 0.025)
            if year < first:
                continue
            entities.append(code)
            years.append(year)
            cols["Investment_Ratio"].append(float(np.exp(ln_inv)))
            cols["Growth"].append(float(growth))
            cols["Jobless_Rate"].append(float(np.exp(ln_jobless)))
            cols["Tax_Share"].append(float(np.exp(ln_tax)))
            cols["Inflation"].append(float(inflation))
    return from_records(entities, years, cols)


def demo_config(seed: int = 0, out: str = "panelforest-demo") -> dict:
    """Ready-to-run configuration matching :func:`make_demo_panel`."""
    return {
        "demo": True,
        "seed": seed,
        "out": out,
        "groups": {name: list(codes) for name, codes in DEMO_GROUPS.items()},
        "preprocessing": {
            "log_vars": ["Investment_Ratio", "Jobless_Rate", "Tax_Share"],
            "outlier_rule": {"kind": "iqr", "k": 3.0},
            "outlier_vars": ["Growth", "Inflation"],
            "lag_vars": ["LN_Investment_Ratio", "Growth", "LN_Jobless_Rate",
                         "LN_Tax_Share", "Inflation"],
            "lag_order": 1,
        },
        "models": {
            "static": {
                "dependent": "LN_Investment_Ratio",
                "regressors": ["Growth(t-1)", "LN_Jobless_Rate(t-1)",
                               "LN_Tax_Share(t-1)", "Inflation(t-1)"],
                "controls": [],
                "effects": "fixed",
                "time_dummies": False,
            },
            "dynamic": {
                "dependent": "LN_Investment_Ratio",
                "regressors": ["Growth(t-1)", "LN_Jobless_Rate(t-1)",
                               "LN_Tax_Share(t-1)", "Inflation(t-1)"],
                "instrument_lags": [2, 2],
                "time_dummies": False,
            },
        },
        "forest": {"n_trees": 150, "min_leaf": 5},
        "importance_repeats": 10,
        "seq_test": {"method": "sprt", "mmax": 40, "ntree": 25, "nperm": 1},
    }
