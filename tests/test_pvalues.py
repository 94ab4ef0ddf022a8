"""The package computes its p-values itself, in `panelforest._dist`.  Each tail
must match the scipy.stats function it stands for to a relative error of
1e-10 wherever that is at least 1e-290, and give the same 0, 1 or NaN at the
edges of its argument and below the support."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special, stats
from test_cli import fast_demo_config

from panelforest import _dist, linear, vimp

STATS = np.concatenate([np.random.default_rng(0).gamma(2.0, 5.0, 500),
                        [1e-300, 1e6]])
EDGES = np.array([0.0, np.nan, np.inf, -np.inf])  # exact 0, 1 or NaN
BELOW_SUPPORT = np.array([-1e-300, -1.0])
DFS = [1, 2, 3, 5, 10, 57, 1000, 1000000]
RTOL = 1e-10
ORACLE_FLOOR = 1e-290


def assert_tail(fn, want_fn, x, edges=EDGES, floor=ORACLE_FLOOR):
    got = np.array([fn(v) for v in x])
    want = want_fn(x)
    ok = want >= floor
    np.testing.assert_allclose(got[ok], want[ok], rtol=RTOL, atol=0)
    assert np.all(got[~ok] < floor)
    np.testing.assert_array_equal([fn(v) for v in edges], want_fn(edges))


@pytest.mark.parametrize("df", DFS)
def test_chi2_tail(df):  # wald_joint, hausman, the GMM Sargan test
    assert_tail(lambda x: _dist.chi2_upper(x, df), lambda x: stats.chi2.sf(x, df), STATS,
                edges=np.concatenate([EDGES, BELOW_SUPPORT]))


@pytest.mark.parametrize("df", DFS)
def test_t_tail(df):  # t_tests
    assert_tail(lambda t: _dist.t_two_sided(t, df), lambda t: 2.0 * stats.t.sf(abs(t), df),
                np.concatenate([STATS, -STATS]))


# scipy.stats.f.sf itself goes wrong deep in the tail at (57, 1e6): 6e-7 off
# at 1.9e-268 and 0 at 1.2e-274, where 50-digit mpmath agrees with _dist to
# 1e-13; below 1e-250 the F tail is checked against mpmath instead
F_FLOOR = 1e-250


@pytest.mark.parametrize("dfd", [1, 2, 7, 300, 1e6])
@pytest.mark.parametrize("dfn", [1, 3, 57, 1e6])
def test_f_tail(dfn, dfd):  # _metrics_from
    assert_tail(lambda f: _dist.f_upper(f, dfn, dfd), lambda f: stats.f.sf(f, dfn, dfd),
                STATS, edges=np.concatenate([EDGES, BELOW_SUPPORT]), floor=F_FLOOR)


def test_f_tail_deep():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    dfn, dfd = 57, 1e6
    checked = 0
    for f in STATS[(stats.f.sf(STATS, dfn, dfd) < F_FLOOR) & (STATS < 30.0)]:
        x = mpmath.mpf(dfd) / (dfd + dfn * mpmath.mpf(f))
        want = float(mpmath.betainc(dfd / 2, dfn / 2, 0, x, regularized=True))
        if want >= ORACLE_FLOOR:
            assert _dist.f_upper(f, dfn, dfd) == pytest.approx(want, rel=RTOL, abs=0)
            checked += 1
    assert checked >= 3


def test_normal_tail():  # the GMM AR tests
    z = np.concatenate([np.random.default_rng(1).normal(0.0, 5.0, 500), [1e-300, -1e6]])
    assert_tail(_dist.normal_tail, lambda z: stats.norm.sf(abs(z)), z)


@pytest.mark.parametrize("a, b", [(0.5, 0.5), (1.0, 3.0), (2.5, 40.0), (300.0, 7.0),
                                  (5e5, 0.5), (5e5, 28.5)])
def test_betainc(a, b):
    x = np.linspace(0.0, 1.0, 101)
    got = np.array([_dist.betainc(a, b, v, 1.0 - v) for v in x])
    np.testing.assert_allclose(got, special.betainc(a, b, x), rtol=1e-9, atol=1e-300)
    mirror = np.array([_dist.betainc(b, a, 1.0 - v, v) for v in x])
    np.testing.assert_allclose(got + mirror, 1.0, rtol=0, atol=1e-15)


def test_chi2_df_must_be_a_positive_integer():
    for df in (0, 2.5, -1):
        with pytest.raises(ValueError, match="positive integer"):
            _dist.chi2_upper(1.0, df)


def interval_decisions(m, alpha, gamma):
    """The pval rule's decisions at d = 0..m exceedances, from scipy's
    Clopper-Pearson bounds: +1 significant, -1 not significant, 0 neither."""
    d = np.arange(m + 1)
    lo = np.where(d == 0, 0.0, special.betaincinv(np.maximum(d, 1), m - d + 1, gamma / 2))
    hi = np.where(d == m, 1.0, special.betaincinv(d + 1, np.maximum(m - d, 1), 1 - gamma / 2))
    return np.where(lo > alpha, -1, np.where(hi < alpha, 1, 0))


@pytest.mark.parametrize("alpha, mmax", [(0.05, 500), (0.01, 200), (0.1, 200)])
def test_pval_rule_takes_the_betaincinv_decision(alpha, mmax):  # run_sequential
    for gamma in (0.01, 0.05, 0.2):
        cfg = vimp.SeqTestConfig(method="pval", mmax=mmax, alpha=alpha, p1=alpha / 2,
                                 p0=2 * alpha, gamma=gamma)
        _, lo, hi = cfg._stops
        for m in range(1, mmax + 1):
            d = np.arange(m + 1)
            got = np.where(d <= lo[m], 1, np.where(d >= hi[m], -1, 0))
            np.testing.assert_array_equal(got, interval_decisions(m, alpha, gamma),
                                          err_msg=f"m={m}, gamma={gamma}")


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


# no stage imports scipy: `all` runs without loading any of it, and importing
# scipy.special in the same check shows that the check sees it
@pytest.mark.parametrize("subcommand, extra_import, loaded",
                         [("all", "", False), (None, "import scipy.special", True)],
                         ids=["all", "positive-control"])
def test_cli_loads_no_scipy(subcommand, extra_import, loaded, tmp_path):
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(fast_demo_config(3, tmp_path / "run")))
    code = ("import sys, panelforest.cli\n"
            f"{extra_import}\n"
            "if len(sys.argv) > 1:\n"
            "    assert panelforest.cli.main(sys.argv[1:]) == 0\n"
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    argv = [subcommand, "-c", str(config)] if subcommand else []
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == str(loaded)
    if subcommand:
        assert (tmp_path / "run" / "provenance.json").is_file()


def test_tails_agree_with_math_at_closed_forms():
    # chi2 with 2 df is exp(-x/2); t with 1 df is Cauchy; F(2, 2) is 1/(1 + f)
    for x in (1e-3, 0.7, 3.0, 40.0, 1400.0):
        assert _dist.chi2_upper(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-15)
        assert _dist.t_two_sided(x, 1) == pytest.approx(1 - 2 * math.atan(x) / math.pi,
                                                        rel=1e-12)
        assert _dist.f_upper(x, 2, 2) == pytest.approx(1 / (1 + x), rel=1e-14)
