"""Each stopping rule is a table of integer boundaries on the (m, d) lattice.

`run_sequential` stops 'significant' once d <= lo[m] and 'not significant'
once d >= hi[m], with lo and hi built once per config. These tests check
it against the rule it replaced, which summed sprt's and sapt's
log-likelihood ratio along the path and evaluated each rule at every step,
kept here verbatim as `reference_run_sequential`: on every path of the
small grid below, and on Bernoulli paths at larger mmax. They also check
the table's own invariants, and that a config builds it once, only when a
test runs, and before a pool receives the config; and that the reach
warning, which walks the table, warns where the three formulas it replaced
did.
"""

import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelforest import vimp
from panelforest.vimp import METHODS, SeqTestConfig, _interval_tails, _llr_walk, run_sequential


def reference_run_sequential(cfg, exceedance_fn):
    """The rule as each step evaluated it before the table."""
    mmax, alpha = cfg.mmax, cfg.alpha

    def p_est(d: int, m: int) -> float:
        return (d + 1) / (m + 1)

    if cfg.method in ("sprt", "sapt"):
        step_exc, step_non, lower, upper = _llr_walk(cfg)

    certain_threshold = math.floor(alpha * (mmax + 1))

    d = 0
    llr = 0.0
    for m in range(1, mmax + 1):
        exceeded = bool(exceedance_fn(m))
        d += exceeded

        if cfg.method == "certain":
            if d >= certain_threshold:
                return "not_significant", p_est(d, m), m, d, "forced_decision"
            if d + (mmax - m) < certain_threshold:
                return "significant", p_est(d, m), m, d, "forced_decision"
        elif cfg.method in ("sprt", "sapt"):
            llr += step_exc if exceeded else step_non
            if llr >= upper:
                return "significant", p_est(d, m), m, d, f"{cfg.method}_boundary"
            if llr <= lower:
                return "not_significant", p_est(d, m), m, d, f"{cfg.method}_boundary"
        elif cfg.method == "pval":
            below, above = _interval_tails(d, m, alpha)
            if below < cfg.gamma / 2:
                return "not_significant", p_est(d, m), m, d, "ci_boundary"
            if above < cfg.gamma / 2:
                return "significant", p_est(d, m), m, d, "ci_boundary"

    p = p_est(d, mmax)
    if cfg.method in ("complete", "certain"):
        # certain: the forced bounds above are exhaustive for d >= threshold,
        # so reaching mmax means the complete decision is significant
        reason = "complete"
    elif cfg.mmax_fallback:
        reason = "mmax_fallback"
    else:
        return "undecided", p, mmax, d, "mmax_undecided"
    return "significant" if p <= alpha else "not_significant", p, mmax, d, reason


# (alpha, p1, p0): the defaults, and three levels with p1 < alpha < p0
LEVELS = [(0.01, 0.005, 0.02), (0.05, 0.04, 0.06), (0.1, 0.05, 0.55), (0.3, 0.15, 0.65)]
# every method, with sapt's custom bounds and a wider gamma as variants
VARIANTS = [(method, {}) for method in METHODS] + [("sapt", {"sapt_bounds": (-0.5, 0.5)}),
                                                   ("pval", {"gamma": 0.2})]


@functools.lru_cache(maxsize=None)
def config(method, mmax, fallback=True, level=(0.05, 0.04, 0.06), variant=()):
    alpha, p1, p0 = level
    return SeqTestConfig(method=method, mmax=mmax, alpha=alpha, p1=p1, p0=p0,
                         mmax_fallback=fallback, **dict(variant))


def grid(mmax):
    return [config(method, mmax, fallback, level, tuple(kw.items()))
            for method, kw in VARIANTS for fallback in (True, False) for level in LEVELS]


MMAXES = [*range(1, 9), 10]


@pytest.mark.parametrize("mmax", MMAXES)
def test_same_result_as_the_reference_on_every_path(mmax):
    paths = list(itertools.product((False, True), repeat=mmax))
    for cfg in grid(mmax):
        for path in paths:
            got = run_sequential(cfg, lambda j: path[j - 1])
            assert got == reference_run_sequential(cfg, lambda j: path[j - 1]), (cfg, path)


@settings(max_examples=150, deadline=None)
@given(variant=st.sampled_from(VARIANTS), mmax=st.sampled_from([19, 40, 100, 500]),
       fallback=st.booleans(), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_same_result_as_the_reference_on_bernoulli_paths(variant, mmax, fallback, p, seed):
    method, kw = variant
    cfg = config(method, mmax, fallback, variant=tuple(kw.items()))
    flags = np.random.default_rng(seed).random(mmax) < p
    got = run_sequential(cfg, lambda j: bool(flags[j - 1]))
    assert got == reference_run_sequential(cfg, lambda j: bool(flags[j - 1]))


@pytest.mark.parametrize("mmax", MMAXES)
def test_table_invariants(mmax):
    for cfg in grid(mmax):
        _, lo, hi = cfg._stops
        assert len(lo) == len(hi) == mmax + 1
        for m in range(1, mmax + 1):
            assert -1 <= lo[m] < hi[m] <= m + 1, (cfg, m)
            assert lo[m] >= lo[m - 1] and hi[m] >= hi[m - 1], (cfg, m)
        if cfg.method == "certain":
            t = math.floor(cfg.alpha * (mmax + 1))
            for m in range(1, mmax + 1):
                for d in range(m + 1):
                    stops = d <= lo[m] or d >= hi[m]
                    assert stops == (d >= t or d + (mmax - m) < t), (cfg, m, d)
        if cfg.method == "complete":
            assert all(lo[m] == -1 and hi[m] == m + 1 for m in range(1, mmax + 1))


def test_pval_builds_its_table_once(monkeypatch):
    calls = []

    def counted(d, m, alpha):
        calls.append((d, m))
        return _interval_tails(d, m, alpha)

    monkeypatch.setattr(vimp, "_interval_tails", counted)
    cfg = SeqTestConfig(method="pval", mmax=500)
    for _ in range(50):
        assert run_sequential(cfg, lambda j: False)[2] == 72
    assert 0 < len(calls) <= 3 * cfg.mmax


def small_design():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 2))
    return X, X[:, 1] + 0.5 * rng.normal(size=40)


def test_pval_unreachable_significance_warns():
    # d = 0 first stops 'significant' at m = 72 at the default alpha and gamma
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # constructing a config only validates it
        unreachable, reachable = (SeqTestConfig(method="pval", mmax=mmax, ntree=4)
                                  for mmax in (71, 72))
    X, y = small_design()
    forest_config = vimp.ForestConfig(min_leaf=5)
    with pytest.warns(UserWarning, match=r"pval cannot reach 'significant' before mmax=71; "
                                         "the tests of important variables end at mmax"):
        vimp.rfvimptest(X, y, "x0", unreachable, forest_config=forest_config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vimp.rfvimptest(X, y, "x0", reachable, forest_config=forest_config)


def reference_unreachable(cfg):
    """The three formulas that decided, as each config was built, whether
    its rule could stop a test 'significant' within mmax."""
    if cfg.method in ("sprt", "sapt"):
        _, step_non, _, upper = _llr_walk(cfg)
        return math.ceil(upper / step_non) > cfg.mmax
    if cfg.method in ("certain", "complete"):
        return cfg.alpha * (cfg.mmax + 1) < 1
    return not vimp._stop_tests(cfg)[1](cfg.mmax, 0)


def test_reach_warned_where_the_reference_formulas_warn():
    levels = [(0.05, 0.04, 0.06), (0.1, 0.05, 0.55)]
    variants = VARIANTS + [("sapt", {"sapt_bounds": (-3.0, 1.0)})]
    checked = set()
    for mmax in [*range(10, 101), 200, 500]:
        for method, kw in variants:
            for fallback, level in itertools.product((True, False), levels):
                cfg = config(method, mmax, fallback, level, tuple(kw.items()))
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    vimp._warn_reach(cfg)
                unreachable = reference_unreachable(cfg)
                assert len(caught) == unreachable, (cfg, [str(w.message) for w in caught])
                checked.add(unreachable)
    assert checked == {True, False}


@pytest.mark.parametrize("method", METHODS)
def test_a_config_builds_its_table_only_when_a_test_runs(method):
    cfg = SeqTestConfig(method=method)
    assert "_stops" not in vars(cfg)
    run_sequential(cfg, lambda j: True)
    assert "_stops" in vars(cfg)


def test_a_pool_receives_the_table_with_the_config():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 2))
    y = X[:, 1] + 0.5 * rng.normal(size=40)
    cfg = SeqTestConfig(method="sapt", mmax=100, ntree=4)
    vimp.rfvimptest_all(X, y, ["x0", "x1"], cfg, workers=2,
                        forest_config=vimp.ForestConfig(min_leaf=5))
    assert "_stops" in vars(cfg)
