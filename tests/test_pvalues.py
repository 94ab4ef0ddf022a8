"""The package takes its p-values from scipy.special ufuncs; each must equal
the scipy.stats function it stands for, bit for bit, at the edges too."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special, stats
from test_cli import fast_demo_config

from panelforest import linear

STATS = np.concatenate([np.random.default_rng(0).gamma(2.0, 5.0, 500),
                        [0.0, np.nan, np.inf, -np.inf, 1e-300, 1e6]])
DFS = [1, 2, 3, 5, 10, 57, 1000, 1e6]


@pytest.mark.parametrize("df", DFS)
def test_chi2_tail(df):  # wald_joint, hausman, the GMM Sargan test
    x = np.maximum(STATS, 0.0)
    np.testing.assert_array_equal(special.chdtrc(df, x), stats.chi2.sf(x, df))


@pytest.mark.parametrize("df", DFS)
def test_t_tail(df):  # t_tests
    np.testing.assert_array_equal(special.stdtr(df, -abs(STATS)),
                                  stats.t.sf(abs(STATS), df))


@pytest.mark.parametrize("dfd", [1, 2, 7, 300, 1e6])
@pytest.mark.parametrize("dfn", [1, 3, 57, 1e6])
def test_f_tail(dfn, dfd):  # _metrics_from
    x = np.maximum(STATS, 0.0)
    np.testing.assert_array_equal(special.fdtrc(dfn, dfd, x), stats.f.sf(x, dfn, dfd))


def test_normal_tail():  # the GMM AR tests
    z = np.concatenate([np.random.default_rng(1).normal(0.0, 5.0, 500),
                        [0.0, np.nan, np.inf, -np.inf, 1e-300, -1e6]])
    np.testing.assert_array_equal(special.ndtr(-abs(z)), stats.norm.sf(abs(z)))


def test_below_support_clamped_to_zero():
    # scipy.stats puts all mass above 0 (p = 1); the bare ufuncs give NaN
    x = np.array([-1e-300, -1.0, -np.inf])
    np.testing.assert_array_equal(special.chdtrc(3, np.maximum(x, 0.0)), stats.chi2.sf(x, 3))
    np.testing.assert_array_equal(special.fdtrc(3, 7, np.maximum(x, 0.0)),
                                  stats.f.sf(x, 3, 7))


@pytest.mark.parametrize("gamma", [0.01, 0.05, 0.2])
def test_clopper_pearson_quantiles(gamma):  # run_sequential, method "pval"
    for m in range(1, 201):
        d = np.arange(1, m + 1)  # lower bound, d >= 1
        np.testing.assert_array_equal(special.betaincinv(d, m - d + 1, gamma / 2),
                                      stats.beta.ppf(gamma / 2, d, m - d + 1))
        d = np.arange(0, m)  # upper bound, d < m
        np.testing.assert_array_equal(special.betaincinv(d + 1, m - d, 1 - gamma / 2),
                                      stats.beta.ppf(1 - gamma / 2, d + 1, m - d))


def test_negative_f_statistic_has_p_one():
    metrics = linear._metrics_from(rss=2.0, tss=1.0, n=20, k=2)  # r2 = -1
    assert metrics.f_statistic < 0.0
    assert metrics.f_pvalue == stats.f.sf(metrics.f_statistic, 2, 17) == 1.0


def test_negative_wald_statistic_has_p_one():
    fit = SimpleNamespace(coef_names=("a",), coefficients={"a": 1.0},
                          covariance=np.array([[-1.0]]))
    result = linear.wald_joint(fit, ["a"])
    assert result.statistic == -1.0
    assert result.p == stats.chi2.sf(-1.0, 1) == 1.0


# scipy is imported by the functions that call it: importing the package or
# running fit-rf loads none of it; fit-linear does, which shows the check sees it
@pytest.mark.parametrize("subcommand, loaded", [(None, False), ("fit-rf", False),
                                                ("fit-linear", True)])
def test_cli_leaves_scipy_out_until_a_stage_calls_it(subcommand, loaded, tmp_path):
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(fast_demo_config(3, tmp_path / "run")))
    code = ("import sys, panelforest.cli\n"
            "if len(sys.argv) > 1:\n"
            "    assert panelforest.cli.main(sys.argv[1:]) == 0\n"
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    argv = [subcommand, "-c", str(config)] if subcommand else []
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == str(loaded)
