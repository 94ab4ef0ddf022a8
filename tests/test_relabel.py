"""Entity labels carry no information: renaming the entities, which reorders
the rows once the dataset is rebuilt, leaves every estimator unchanged."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from panelforest.dataset import from_records
from panelforest.gmm import GmmSpec, fit_system_gmm
from panelforest.linear import ModelSpec, fit, robust_covariance

from conftest import dynamic_panel

N_ENT = 30
RTOL = 1e-9


def gappy_dynamic_panel(seed):
    """30 entities over 8 years with about 10% of the rows dropped, so the
    calendar lags have gaps."""
    ds = dynamic_panel(seed, n_ent=N_ENT, n_per=8)
    return ds.select_rows(np.random.default_rng(seed).random(ds.n_rows) > 0.1)


def relabel(ds, codes):
    """`ds` with its i-th entity (in sorted order) renamed R<codes[i]>."""
    new = dict(zip(sorted(set(ds.entity.tolist())), (f"R{c:03d}" for c in codes)))
    return from_records([new[e] for e in ds.entity.tolist()], ds.year.tolist(),
                        {name: ds.column(name) for name in ds.columns})


def assert_close(a, b):
    if isinstance(a, dict):
        a, b = list(a.values()), [b[name] for name in a]
    np.testing.assert_allclose(b, a, rtol=RTOL, atol=0)


@given(seed=st.integers(0, 2**16), codes=st.permutations(range(N_ENT)))
@settings(max_examples=25, deadline=None)
def test_relabelling_entities_changes_no_estimate(seed, codes):
    ds = gappy_dynamic_panel(seed)
    renamed = relabel(ds, codes)
    assert not np.array_equal(renamed.column("y"), ds.column("y")) or codes == sorted(codes)

    spec = GmmSpec("y", ("x",))
    a, b = fit_system_gmm(spec, ds), fit_system_gmm(spec, renamed)
    assert_close(a.coefficients, b.coefficients)
    assert_close(a.covariance, b.covariance)
    assert_close(a.sargan.statistic, b.sargan.statistic)
    assert_close(a.ar_tests[1].z, b.ar_tests[1].z)
    assert_close(a.ar_tests[2].z, b.ar_tests[2].z)
    assert_close(a.wald.statistic, b.wald.statistic)

    for effects in ("fixed", "random", "pooled"):
        linear_spec = ModelSpec("y", ("x",), effects=effects)
        fa = robust_covariance(fit(linear_spec, ds))
        fb = robust_covariance(fit(linear_spec, renamed))
        assert_close(fa.coefficients, fb.coefficients)
        assert_close(fa.covariance, fb.covariance)
