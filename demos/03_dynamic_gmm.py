"""
Dynamic panels: one-step System GMM
===================================

When the dependent variable is persistent, the within estimator is biased
at short T. System GMM stacks differenced equations (instrumented by
lagged levels) with level equations (instrumented by lagged differences)
and handles the lagged dependent variable directly.

    python demos/03_dynamic_gmm.py
"""

import math

from panelforest import GmmSpec, fit_system_gmm
from panelforest.gmm import wald_joint
from panelforest.dataset import log_transform
from panelforest.demo import make_demo_panel

# %%
# The dependent's first lag enters automatically; regressors are the
# contemporaneous columns you pass. Instruments are collapsed
# lagged levels (lags 2..4) to keep the instrument count below the
# entity count.

panel = log_transform(make_demo_panel(seed=2), ["Investment_Ratio", "Tax_Share"])
spec = GmmSpec(
    dependent="LN_Investment_Ratio",
    regressors=("Growth", "LN_Tax_Share"),
    instrument_lags=(2, 3),
)
gfit = fit_system_gmm(spec, panel)

print(f"n_diff={gfit.n_obs_diff}, n_level={gfit.n_obs_level}, "
      f"entities={gfit.n_entities}")
print(f"instruments={gfit.instrument_count} for {gfit.parameter_count} parameters")
print(f"\n{'variable':<26}{'coef':>10}{'se':>9}")
for i, name in enumerate(gfit.coef_names):
    se = math.sqrt(gfit.covariance[i, i])
    print(f"{name:<26}{gfit.coefficients[name]:>10.4f}{se:>9.4f}")
if not gfit.lagdep_stable:
    print("warning: |lagged-dependent coefficient| >= 1 (unstable dynamics)")

# %%
# Instrument validity: the Sargan test must NOT reject (instruments
# uncorrelated with the error), and the differenced residuals should show
# first-order but no second-order serial correlation.

print(f"\nSargan: S={gfit.sargan.statistic:.3f}, df={gfit.sargan.df}, "
      f"p={gfit.sargan.p:.4f}")
for order in (1, 2):
    ar = gfit.ar_tests[order]
    verdict = "reject" if ar.p < 0.05 else "no rejection"
    print(f"AR({order}): z={ar.z:+.4f}, p={ar.p:.4f}  ({verdict})")

# %%
# Joint significance of everything except the level intercept.

joint = wald_joint(gfit, [n for n in gfit.coef_names if n != "const"])
print(f"\nWald joint: W={joint.statistic:.2f}, df={joint.df}, p={joint.p:.2e}")
