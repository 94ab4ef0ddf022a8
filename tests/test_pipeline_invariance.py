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
demo run.  So are two grown forests and the first draws of the streams
that grow and permute them, which name the layer a redraw comes from, and
the content_hash of a run in a child process under another hash seed and
OpenBLAS thread count.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelforest._rng import derive_seed, stream
from panelforest.cli import main
from panelforest.demo import demo_config, make_demo_panel
from panelforest.forest import _NODE_COLUMNS, ForestConfig, fit_forest

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


def write_inputs(root, order=None, k=0):
    """config.json and panel.csv under `root` for `all` on ROWS (in `order`,
    with SCALED times 2**k).  Input and output paths are relative to
    `root`, so provenance.json does not depend on where a case runs."""
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


def run_all(root, order=None, k=0):
    """The artifact tree, {path: bytes}, of `all` on `write_inputs`' files."""
    root.mkdir(parents=True)
    write_inputs(root, order, k)
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


def pin_message(what, got, pinned):
    return (f"{what} {got} != pinned {pinned}, with numpy {np.__version__} "
            "(the pin was measured with numpy 2.4.6, and a numpy upgrade may redraw the "
            "forests). A behaviour-preserving change keeps every pin; a deliberate redraw or "
            "change of the numerics updates the pins in its own PR and records the new values "
            "in CHANGES.md")


def test_base_content_hash_is_pinned(base):
    got = json.loads(base["provenance.json"])["content_hash"]
    assert got == BASE_CONTENT_HASH, pin_message("content_hash", got, BASE_CONTENT_HASH)


@pytest.mark.parametrize("hash_seed, blas_threads", [("0", "1"), ("1", "2")])
def test_child_environment_leaves_the_content_hash(tmp_path, hash_seed, blas_threads):
    write_inputs(tmp_path)
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "OPENBLAS_NUM_THREADS": blas_threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys\nfrom panelforest.cli import main\nsys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, "all", "-c", "config.json"], cwd=tmp_path,
                   env=env, capture_output=True, text=True, check=True)
    got = json.loads((tmp_path / "out" / "provenance.json").read_text())["content_hash"]
    assert got == BASE_CONTENT_HASH, pin_message("content_hash", got, BASE_CONTENT_HASH)


@pytest.mark.parametrize("seed, n, p, options, pinned", [
    (3, 60, 3, {"n_trees": 20, "min_leaf": 5},
     "f9e807468b17cff3d49c945acc533df6168e9d64c0cb1004adeab37b6dc3e271"),
    (11, 200, 5, {"n_trees": 15, "mtry": 2, "min_leaf": 3, "max_depth": 6},
     "5c8d6384885cd885f1eb43e624099bf443f5993164aa5fe4dbba4406b6befb2c"),
], ids=["seed3-unlimited", "seed11-mtry2-depth6"])
def test_grown_forest_is_pinned(seed, n, p, options, pinned):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = X[:, 0] - 0.5 * X[:, 1] ** 2 + rng.normal(size=n)
    forest = fit_forest(X, y, ForestConfig(seed=seed, **options))
    h = hashlib.sha256()
    for name in (*_NODE_COLUMNS, "in_bag_counts"):
        column = getattr(forest, name)
        h.update(name.encode() + column.dtype.str.encode() + column.tobytes())
    assert h.hexdigest() == pinned, pin_message("forest digest", h.hexdigest(), pinned)


@pytest.mark.parametrize("seed, tree, bootstrap, keys", [
    (7, 0, [66, 173, 44, 11, 177], [0.8688251433502354, 0.7293396668762463]),
    (7, 39, [53, 1, 93, 183, 83], [0.44313488869580364, 0.9992588141367048]),
    (2**40, 3, [89, 16, 69, 114, 126], [0.8440944861355679, 0.5961533704821022]),
])
def test_tree_stream_is_pinned(seed, tree, bootstrap, keys):
    # the draws `_grow_forests` makes from tree i's stream: its bootstrap
    # rows (n = 218, the demo's group size), then its candidate keys
    rng = stream(seed, tree)
    got = (rng.integers(0, 218, size=5).tolist(), rng.random(2).tolist())
    assert got == (bootstrap, keys), pin_message(f"stream({seed}, {tree})", got,
                                                 (bootstrap, keys))


@pytest.mark.parametrize("path, permutation, shuffle, fit_seed", [
    (("x0", "perm", 1), [5, 3, 6, 0, 4, 2, 1, 7], [3, 6, 0, 7, 4, 5, 2, 1],
     2806213789569992216),
    (("Growth(t-1)", "perm", 40), [3, 4, 5, 2, 7, 6, 1, 0], [0, 6, 1, 3, 5, 7, 4, 2],
     8756207128120233764),
])
def test_permutation_streams_are_pinned(path, permutation, shuffle, fit_seed):
    # a sequential test's null data set, its importance shuffle and its
    # forest seed, as `vimp._block_vimps` derives them under master seed 12
    got = (stream(12, *path).permutation(8).tolist(),
           stream(12, *path, "vimp", 0).permutation(8).tolist(),
           derive_seed(12, *path, "fit"))
    pinned = (permutation, shuffle, fit_seed)
    assert got == pinned, pin_message(f"streams of {path}", got, pinned)


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
