"""Units carry no information: scaling a regressor or the dependent by a
power of two, which is exact in floating point, scales the coefficients it
touches and leaves every test statistic where it was."""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from panelforest.cli import RunConfig, Runner
from panelforest.demo import demo_config
from panelforest.gmm import fit_system_gmm
from panelforest.linear import fit, hausman, robust_covariance, t_tests

RTOL = 1e-7
CONFIG = RunConfig.from_mapping(demo_config(seed=7))
STATIC, DYNAMIC = CONFIG.static, CONFIG.dynamic
COLUMNS = (STATIC.dependent, *STATIC.regressors)


@lru_cache(maxsize=None)
def panels():
    return Runner(CONFIG).panels


def statistics(ds):
    """Coefficients and test statistics of every estimator on `ds`."""
    out = {}
    fits = {effects: fit(replace(STATIC, effects=effects), ds)
            for effects in ("fixed", "random", "pooled")}
    out["hausman"] = hausman(fits["fixed"], fits["random"]).statistic
    for effects, f in fits.items():
        out[f"{effects}.coef"] = f.coefficients
        for cov in ("classical", "cluster"):
            tests = t_tests(f if cov == "classical" else robust_covariance(f))
            out[f"{effects}.{cov}.t"] = {name: tt.t for name, tt in tests.items()}
            out[f"{effects}.{cov}.p"] = {name: tt.p for name, tt in tests.items()}
    g = fit_system_gmm(DYNAMIC, ds)
    out["gmm.coef"] = g.coefficients
    out["gmm.z"] = {name: g.coefficients[name] / np.sqrt(g.covariance[i, i])
                    for i, name in enumerate(g.coef_names)}
    out["gmm.tests"] = [g.sargan.statistic, g.ar_tests[1].z, g.ar_tests[2].z,
                        g.wald.statistic]
    return out


@lru_cache(maxsize=None)
def unscaled(group):
    return statistics(panels()[group])


def expected_coefficients(coefs, column, factor):
    """`coefs` after `column` is multiplied by `factor`."""
    if column != STATIC.dependent:
        return {name: b / factor if name == column else b for name, b in coefs.items()}
    # every coefficient carries the units of the dependent but its own lag's
    return {name: b if name == DYNAMIC.lagdep_name else b * factor
            for name, b in coefs.items()}


def assert_close(got, want):
    if isinstance(want, dict):
        assert list(got) == list(want)
        got, want = list(got.values()), list(want.values())
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0)


@given(group=st.sampled_from(["north", "south"]), column=st.sampled_from(COLUMNS),
       k=st.integers(-40, 40))
@example(group="north", column="Growth(t-1)", k=10)
@example(group="south", column="Growth(t-1)", k=20)
@example(group="north", column="Growth(t-1)", k=40)
@settings(max_examples=30, deadline=None)
def test_power_of_two_units_change_no_statistic(group, column, k):
    ds = panels()[group]
    factor = 2.0 ** k
    scaled = statistics(ds.with_column(column, ds.column(column) * factor))
    base = unscaled(group)
    for key, want in base.items():
        if key.endswith(".coef"):
            want = expected_coefficients(want, column, factor)
        assert_close(scaled[key], want)


@pytest.mark.parametrize("column", COLUMNS)
@pytest.mark.parametrize("group", ["north", "south"])
def test_power_of_two_units_leave_static_statistics_bit_equal(group, column):
    # the static fits solve through an equilibrated QR, so rescaling by 2^k
    # moves no bit; GMM keeps the RTOL bound above
    ds = panels()[group]
    base = {key: want for key, want in unscaled(group).items() if not key.startswith("gmm.")}
    for k in (-40, -13, -1, 3, 17, 40):
        factor = 2.0 ** k
        scaled = statistics(ds.with_column(column, ds.column(column) * factor))
        for key, want in base.items():
            if key.endswith(".coef"):
                want = expected_coefficients(want, column, factor)
            got = scaled[key]
            if isinstance(want, dict):
                assert list(got) == list(want)
                got, want = list(got.values()), list(want.values())
            np.testing.assert_array_equal(got, want, err_msg=f"{key} at 2^{k}")


def test_growth_in_millionths_fits():
    ds = Runner(replace(CONFIG, groups={})).panels["all"]
    column = "Growth(t-1)"
    scaled = ds.with_column(column, ds.column(column) * 1e-6)
    a, b = statistics(ds), statistics(scaled)
    for key in ("fixed.coef", "random.coef", "pooled.coef", "gmm.coef"):
        np.testing.assert_allclose(b[key][column] * 1e-6, a[key][column], rtol=1e-6)
    for key in ("fixed.cluster.t", "random.cluster.t", "pooled.cluster.t", "gmm.z"):
        np.testing.assert_allclose(b[key][column], a[key][column], rtol=1e-6)
