"""README's invariances, checked on what a user gets: the artifact tree of
`all` on the seed-7 demo panel written to CSV, with a fast config (40
trees, sprt with mmax 19 and ntree 5).

* The CSV's rows in any order give a byte-identical tree.
* Growth, which is not log-transformed, times 2^k leaves the forest,
  decision, Hausman and correlation tables and the figures byte-identical,
  removes the same rows, scales the static Growth(t-1) value and
  dispersion by exactly 2^-k with every other static number bit-equal, and
  moves the System GMM table by at most GMM_RTOL.

The base tree's content_hash is pinned, so a change that redraws a forest
or moves a low digit anywhere in the tree fails here, not only in a manual
demo run.
"""

import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelforest.cli import main
from panelforest.demo import demo_config, make_demo_panel

PANEL = make_demo_panel(7)
VARIABLES = list(PANEL.columns)
ROWS = [(str(e), int(y), *(float(PANEL.columns[v][i]) for v in VARIABLES))
        for i, (e, y) in enumerate(zip(PANEL.entity, PANEL.year))]
SCALED = "Growth"
# System GMM is not exact under 2^k: its largest relative move over k in
# {-20, 10, 30} was 2.4e-9 (the value column at k = -20)
GMM_RTOL = 1e-8
# the base run's provenance.json content_hash, measured with numpy 2.4.6
BASE_CONTENT_HASH = "8489b87f42d3849efadff544ac53ade7588f897bd7e8cc21d3f53d2c8699dc9b"


def run_all(root, order=None, k=0):
    """The artifact tree, {path: bytes}, of `all` on ROWS (in `order`, with
    SCALED times 2**k).  Input and output paths are relative to `root`, so
    provenance.json does not depend on where a case runs."""
    root.mkdir(parents=True)
    cfg = demo_config(seed=7)
    cfg.update(demo=False, input="panel.csv", out="out",
               forest={"n_trees": 40, "min_leaf": 5},
               seq_test={"method": "sprt", "mmax": 19, "ntree": 5, "nperm": 1})
    (root / "config.json").write_text(json.dumps(cfg))
    at = 2 + VARIABLES.index(SCALED)
    with open(root / "panel.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Code", "Year", *VARIABLES])
        for i in range(len(ROWS)) if order is None else order:
            row = list(ROWS[i])
            row[at] *= 2.0**k
            writer.writerow(row[:2] + ["" if math.isnan(v) else repr(v) for v in row[2:]])
    with contextlib.chdir(root):
        assert main(["all", "-c", "config.json"]) == 0
    out = root / "out"
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file()}


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("base") / "run")


def table(tree, name):
    """Rows of a CSV artifact keyed by (group, variable)."""
    rows = csv.DictReader(io.StringIO(tree[name].decode()))
    return {(r["group"], r["variable"]): r for r in rows}


def test_base_content_hash_is_pinned(base):
    got = json.loads(base["provenance.json"])["content_hash"]
    assert got == BASE_CONTENT_HASH, (
        f"content_hash {got} != pinned {BASE_CONTENT_HASH}, with numpy {np.__version__} "
        "(the pin was measured with numpy 2.4.6, and a numpy upgrade may redraw the "
        "forests). A behaviour-preserving change keeps the hash; a deliberate redraw or "
        "change of the numerics updates this pin in its own PR and records the new hash "
        "in CHANGES.md")


@settings(max_examples=3, deadline=None)
@given(order=st.permutations(range(len(ROWS))))
def test_row_order_leaves_every_artifact_unchanged(base, tmp_path_factory, order):
    assert run_all(tmp_path_factory.mktemp("order") / "run", order=order) == base


@pytest.mark.parametrize("k", [-20, 10, 30])
def test_units_of_a_regressor(base, tmp_path, k):
    scaled = run_all(tmp_path / "run", k=k)
    assert scaled.keys() == base.keys()
    same = [name for name in base if name.startswith(("figures/", "tables/rf_importance",
                                                      "tables/importance_decisions"))]
    same += ["tables/hausman.csv", "tables/correlation_matrix.csv"]
    assert len(same) == 14
    for name in same:
        assert scaled[name] == base[name], name

    def removed(tree):
        return [line.split(",")[:3] for line in tree["removal_log.csv"].decode().splitlines()]

    assert len(removed(base)) > 1 and removed(scaled) == removed(base)

    lagged = f"{SCALED}(t-1)"
    static = table(base, "tables/table_static_linear_full.csv")
    static_scaled = table(scaled, "tables/table_static_linear_full.csv")
    assert static_scaled.keys() == static.keys()
    for key, row in static.items():
        for col in ("value", "dispersion", "p"):
            factor = 2.0**-k if key[1] == lagged and col != "p" else 1.0
            assert float(static_scaled[key][col]) == float(row[col]) * factor, (key, col)

    gmm = table(base, "tables/table_dynamic_gmm_full.csv")
    gmm_scaled = table(scaled, "tables/table_dynamic_gmm_full.csv")
    assert gmm_scaled.keys() == gmm.keys()
    for key, row in gmm.items():
        for col in ("value", "dispersion", "p"):
            factor = 2.0**-k if key[1] == lagged and col != "p" else 1.0
            np.testing.assert_allclose(float(gmm_scaled[key][col]), float(row[col]) * factor,
                                       rtol=GMM_RTOL, atol=0, err_msg=f"{key} {col}")
