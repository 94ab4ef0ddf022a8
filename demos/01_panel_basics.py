"""
Panel construction and preparation
==================================

Build an entity-by-year panel, derive lags and logs, filter outliers, and
summarize the columns. Run as a plain script:

    python demos/01_panel_basics.py
"""

import numpy as np

from panelforest import (
    OutlierRule,
    add_lags,
    correlation_matrix,
    describe,
    log_transform,
    remove_outliers,
)
from panelforest.demo import make_demo_panel

# %%
# The bundled generator gives an unbalanced panel of 24 synthetic
# economies observed over up to 20 years.

panel = make_demo_panel(seed=0)
print(f"{panel.n_rows} rows, {len(panel.entities)} entities, "
      f"years {panel.years[0]}-{panel.years[-1]}")
print("columns:", sorted(panel.columns))

# %%
# Descriptive statistics are computed over non-missing cells only.
# Kurtosis is the excess (Fisher) convention: 0 for a normal distribution.

stats = describe(panel)
print(f"\n{'variable':<18}{'mean':>9}{'median':>9}{'std':>8}{'skew':>8}{'kurt':>8}")
for name, s in stats.items():
    print(f"{name:<18}{s.mean:>9.4f}{s.median:>9.4f}{s.std_dev:>8.4f}"
          f"{s.skewness:>8.4f}{s.kurtosis:>8.4f}")

# %%
# Pairwise Pearson correlations on pairwise-complete observations.

corr = correlation_matrix(panel, ["Growth", "Jobless_Rate", "Tax_Share", "Inflation"])
print("\ncorrelations:")
for i, a in enumerate(corr.names):
    row = "  ".join(f"{corr.matrix[i, j]:+.3f}" for j in range(i + 1))
    print(f"{a:<14}{row}")

# %%
# Outlier filtering is observation-wise. The default is Tukey's 1.5*IQR
# fence per variable; zscore(k) and "none" are also available.

filtered, removals = remove_outliers(panel, ["Growth", "Inflation"],
                                     OutlierRule("iqr", 1.5))
print(f"\noutliers: dropped {len(removals)} observations")
for rec in removals[:3]:
    print(f"  {rec.entity} {rec.year} {rec.variable}={rec.value:.3f} "
          f"outside [{rec.lower:.3f}, {rec.upper:.3f}]")

# %%
# Logs require strictly positive inputs; lags are keyed by calendar year,
# so gap years lag to missing instead of silently borrowing an older row,
# and values never cross entity boundaries.

prepared = log_transform(filtered, ["Investment_Ratio", "Jobless_Rate", "Tax_Share"])
prepared = add_lags(prepared, ["LN_Investment_Ratio", "Growth"], k=1)
lag = prepared.column("Growth(t-1)")
print(f"\nafter transforms: {sorted(prepared.columns)}")
print(f"lag coverage: {np.isfinite(lag).sum()}/{prepared.n_rows} rows "
      "(first year per entity has no lag)")
