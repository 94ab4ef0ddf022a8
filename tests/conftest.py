"""Shared synthetic-panel builders for the test suite."""

import numpy as np
import pytest

from panelforest.dataset import PanelDataset, from_records


def fe_panel(seed, n_ent=50, n_per=10, betas=(0.5, -1.0), sigma=0.1,
             corr_effects=0.0, ar_err=0.0, ar_x=0.0):
    """Panel with entity effects: y = b1*x1 + b2*x2 + eff_i + e_it.

    Entity i takes row i of one block of draws: eff, e_0, x_0, then
    (x1, x2, e) per year; the recursion runs over all entities at once."""
    draws = np.random.default_rng(seed).normal(size=(n_ent, 3 + 3 * n_per))
    eff, e, x1 = draws[:, 0], draws[:, 1] * sigma, draws[:, 2]
    sx, se = np.sqrt(max(1 - ar_x**2, 0.01)), np.sqrt(max(1 - ar_err**2, 0.01))
    x1s, x2s, ys = [], [], []
    for t in range(n_per):
        x1 = ar_x * x1 + sx * draws[:, 3 + 3 * t] + corr_effects * eff
        x2 = draws[:, 4 + 3 * t]
        e = ar_err * e + se * draws[:, 5 + 3 * t] * sigma
        x1s.append(x1)
        x2s.append(x2)
        ys.append(betas[0] * x1 + betas[1] * x2 + eff + e)
    return _entity_years(n_ent, n_per, {"y": ys, "x1": x1s, "x2": x2s})


def dynamic_panel(seed, n_ent=200, n_per=10, rho=0.5, beta=0.3, s_eta=1.0,
                  s_eps=1.0, ma_err=0.0, burn_in=30):
    """Dynamic panel y_it = rho*y_{i,t-1} + beta*x_it + eta_i + eps_it.

    Burn-in from near the stationary mean keeps the level-equation moment
    conditions valid (mean stationarity).  Entity i takes row i of one
    block of draws: eta, x_0, nu_0, then (x, nu) per step.
    """
    draws = np.random.default_rng(seed).normal(size=(n_ent, 3 + 2 * (burn_in + n_per)))
    eta, x, nu_prev = draws[:, 0] * s_eta, draws[:, 1], draws[:, 2]
    y = (beta * x + eta) / (1 - rho) if rho < 1 else np.zeros(n_ent)
    ys, xs = [], []
    for k in range(burn_in + n_per):
        x = 0.5 * x + draws[:, 3 + 2 * k] + 0.3 * eta
        nu = draws[:, 4 + 2 * k]
        eps = (nu + ma_err * nu_prev) * s_eps
        nu_prev = nu
        y = rho * y + beta * x + eta + eps
        if k >= burn_in:
            ys.append(y)
            xs.append(x)
    return _entity_years(n_ent, n_per, {"y": ys, "x": xs})


def _entity_years(n_ent, n_per, columns):
    """Panel of entities E000.. over years 2000.., from per-year columns."""
    ents = np.repeat([f"E{i:03d}" for i in range(n_ent)], n_per)
    years = np.tile(2000 + np.arange(n_per), n_ent)
    return from_records(ents, years, {name: np.reshape(np.transpose(c), -1)
                                      for name, c in columns.items()})


def toy_panel() -> PanelDataset:
    """Three entities, short unbalanced spans, one gap year."""
    rows = [
        ("A", 2000, 1.0, 10.0), ("A", 2001, 2.0, 11.0), ("A", 2002, 3.0, 9.0),
        ("B", 2000, 5.0, 8.0), ("B", 2002, 6.0, 7.5),  # 2001 missing: gap
        ("C", 2001, 4.0, 12.0),
    ]
    return from_records([r[0] for r in rows], [r[1] for r in rows],
                        {"x": [r[2] for r in rows], "z": [r[3] for r in rows]})


@pytest.fixture
def tmp_csv(tmp_path):
    def write(text, name="data.csv"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return p
    return write
