"""Every count and seed is checked by one rule, with one message: an
integer (a numpy integer too, but not a bool) of at least its minimum,
else ``<name> must be an integer >= <minimum>, got <value>``."""

import numpy as np
import pytest

from panelforest._rng import seed_sequence
from panelforest.cli import ConfigError, RunConfig
from panelforest.dataset import add_lags
from panelforest.demo import demo_config
from panelforest.forest import ForestConfig, fit_forest
from panelforest.vimp import SeqTestConfig, _run_tests, permutation_importance

from conftest import toy_panel

X = np.arange(40.0).reshape(20, 2)
FOREST = fit_forest(X, X[:, 0], ForestConfig(n_trees=2, min_leaf=2))


def run_config(path, value):
    cfg = demo_config(seed=1)
    *parents, key = path.split(".")
    block = cfg
    for name in parents:
        block = block[name]
    block[key] = value
    return RunConfig.from_mapping(cfg)


# call site: (name in the message, minimum, a call that checks its argument
# as that count)
SITES = {
    "seed_sequence": ("seed", 0, seed_sequence),
    "lag_rows": ("lag order k", 0, lambda k: toy_panel().lag_rows(k)),
    "add_lags": ("lag order k", 1, lambda k: add_lags(toy_panel(), ["x"], k)),
    **{f"ForestConfig.{name}": (name, 1, lambda v, name=name: ForestConfig(**{name: v}))
       for name in ("n_trees", "min_leaf", "mtry", "max_depth")},
    "permutation_importance": ("n_repeats", 1, lambda n: permutation_importance(
        FOREST, X, X[:, 0], n_repeats=n)),
    **{f"SeqTestConfig.{name}": (name, 1, lambda v, name=name: SeqTestConfig(
        **{"mmax": 40, name: v})) for name in ("mmax", "ntree", "nperm")},
    "_run_tests": ("workers", 1, lambda workers: _run_tests([], workers)),
    **{f"RunConfig.{path}": (path, minimum, lambda v, path=path: run_config(path, v))
       for path, minimum in (("seed", 0), ("forest.mtry", 1), ("forest.max_depth", 1))},
}
BAD = {"True": lambda minimum: True, "2.5": lambda minimum: 2.5,
       "'3'": lambda minimum: "3", "minimum-1": lambda minimum: minimum - 1}


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("bad", BAD)
def test_count_rejected_with_one_message(site, bad):
    name, minimum, check = SITES[site]
    value = BAD[bad](minimum)
    with pytest.raises(ValueError) as info:
        check(value)
    problems = info.value.problems if isinstance(info.value, ConfigError) else [str(info.value)]
    assert problems == [f"{name} must be an integer >= {minimum}, got {value!r}"]


@pytest.mark.parametrize("site", SITES)
def test_numpy_integer_minimum_accepted(site):
    _, minimum, check = SITES[site]
    check(np.int64(minimum))
