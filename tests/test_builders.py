"""The shared panel builders give the same panels, bit for bit, as the
scalar per-entity loops they replaced: each fingerprint below (its first 16
hex digits) was recorded from those loops."""

import pytest

from conftest import dynamic_panel, fe_panel

PINNED = [
    (fe_panel, {}, "f06bcfff0b7facd8", "522cd8a8e2992c50"),
    (fe_panel, {"ar_err": 0.6}, "a6673bd87aad5df6", "7a2e7d30111e17a2"),
    (fe_panel, {"ar_x": 0.8}, "0659530d54ad7866", "f577273d0f6c18fc"),
    (fe_panel, {"corr_effects": 0.7}, "dc03bbc95dbda675", "47ad3cc0e354c3b3"),
    (fe_panel, {"ar_err": 0.99, "ar_x": -0.995, "corr_effects": -0.3, "sigma": 2.5,
                "betas": (1.5, 0.25)}, "064509cff10dccab", "02bba82566ee0e9d"),
    (fe_panel, {"n_ent": 1, "n_per": 1}, "b0bbdaea54dc423f", "74bd68fc3385168e"),
    (fe_panel, {"n_ent": 7, "n_per": 2}, "72b6e7bd77d1cf3b", "4062782398adad83"),
    (dynamic_panel, {}, "508d0e90998fa80a", "3378c0de5b3c58a6"),
    (dynamic_panel, {"n_ent": 40}, "8c74ac2746b0f0a3", "71e711e18f5babae"),
    (dynamic_panel, {"n_ent": 40, "ma_err": 0.5}, "4b93db62f1f96ef5", "e3c00f97f261fa88"),
    (dynamic_panel, {"n_ent": 40, "rho": 0.0}, "f7b41084d16e88ea", "41e4cfdd5993b7a4"),
    (dynamic_panel, {"n_ent": 40, "rho": 1.0}, "b4e58cd92b29f72b", "58507ce700e8ee27"),
    (dynamic_panel, {"n_ent": 30, "rho": 0.9, "beta": -0.7, "s_eta": 0.3, "s_eps": 2.0},
     "a0abf7ff0f55b91d", "e15ccacfba9ed7eb"),
    (dynamic_panel, {"n_ent": 25, "n_per": 2, "burn_in": 0},
     "ab35a2462e3e6db0", "ed334d011ac6f856"),
    (dynamic_panel, {"n_ent": 1, "n_per": 1, "burn_in": 3},
     "7054e59a5e5c228d", "a3a7bc58cb744c97"),
    (dynamic_panel, {"n_ent": 20, "n_per": 4, "ma_err": -0.8, "rho": 0.2},
     "f74021916dccac89", "c1aa1471b2f49a9b"),
]


@pytest.mark.parametrize("builder, params, at_7, at_123", PINNED,
                         ids=[f"{b.__name__}{p}" for b, p, *_ in PINNED])
def test_builder_panels_are_pinned(builder, params, at_7, at_123):
    assert builder(7, **params).fingerprint()[:16] == at_7
    assert builder(123, **params).fingerprint()[:16] == at_123
