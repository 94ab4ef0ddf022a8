"""Per-layer metrics from the spans of one traced iteration.

Times are sums of inclusive span durations over every process of the run
(pool workers included), so a layer that runs in two workers at once can
sum to more than the wall time.  Self time, a span's duration minus what
its same-process children cover, is summarised per span name by
`self_times`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

CLI_STEPS = ("describe", "fit_linear", "fit_gmm", "fit_rf", "importance", "compare")
COUNTS = ("dataset.rows", "linear.fit_calls", "gmm.fit_calls", "gmm.rows",
          "forest.fit_calls", "forest.trees", "forest.nodes", "forest.predict_calls",
          "forest.tree_rows", "vimp.tests", "vimp.permutations", "vimp.forests",
          "vimp.wasted_forests", "vimp.perm_importance_calls",
          "report.emit_tables_calls", "rng.stream_calls")
# unit of every per-layer metric the benchmark reports with --trace 1
UNITS = {
    **{f"cli.{step}_s": "s" for step in CLI_STEPS},
    **{name: "count" for name in COUNTS},
    **{name: "s" for name in (
        "dataset.load_s", "dataset.prepare_s", "dataset.add_lags_s", "linear.fit_s",
        "linear.robust_covariance_s", "linear.hausman_s", "gmm.fit_s", "forest.fit_s",
        "forest.predict_s", "forest.oob_s", "vimp.rfvimptest_all_s", "vimp.worker_busy_s",
        "vimp.perm_importance_s", "report.emit_tables_s", "report.manifest_s",
        "rng.stream_s", "trace.overhead_s")},
    "gmm.us_per_row": "us", "forest.ms_per_tree": "ms", "forest.ns_per_tree_row": "ns",
    "vimp.mmax_stop_share": "ratio", "vimp.worker_idle_share": "ratio",
    "report.artifact_bytes": "bytes",
}


def read_spans(trace_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        spans += [json.loads(line) for line in path.read_text().splitlines()]
    return spans


def _dur(span: dict) -> float:
    return (span["t1"] - span["t0"]) / 1e9


def self_times(spans: list[dict]) -> dict[str, dict]:
    """name -> {calls, total_s, self_s}, sorted by self time."""
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] == s["pid"]:
            child_time[s["parent"]] += _dur(s)
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s in spans:
        row = out[s["name"]]
        row["calls"] += 1
        row["total_s"] += _dur(s)
        row["self_s"] += _dur(s) - child_time[s["id"]]
    return dict(sorted(out.items(), key=lambda kv: -kv[1]["self_s"]))


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    by_id = {s["id"]: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def total(*names):
        return sum(_dur(s) for n in names for s in by_name[n])

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def count(name, key):
        return sum(s.get("counts", {}).get(key, 0) for s in by_name[name])

    def under(span, ancestor):
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == ancestor:
                return True
            parent = by_id.get(parent["parent"])
        return False

    m = {f"cli.{step}_s": total(f"cli.step_{step}") for step in CLI_STEPS}

    loads = by_name["dataset.load_csv"] + by_name["demo.make_demo_panel"]
    m["dataset.load_s"] = sum(_dur(s) for s in loads)
    m["dataset.prepare_s"] = total("dataset.remove_outliers", "dataset.log_transform",
                                   "dataset.add_lags")
    m["dataset.add_lags_s"] = total("dataset.add_lags")
    m["dataset.rows"] = loads[0]["counts"]["rows"] if loads else 0

    m["linear.fit_s"] = total("linear.fit")
    m["linear.fit_calls"] = calls("linear.fit")
    m["linear.robust_covariance_s"] = total("linear.robust_covariance")
    m["linear.hausman_s"] = total("linear.hausman")

    m["gmm.fit_s"] = total("gmm.fit_system_gmm")
    m["gmm.fit_calls"] = calls("gmm.fit_system_gmm")
    m["gmm.rows"] = count("gmm.fit_system_gmm", "rows")
    m["gmm.us_per_row"] = 1e6 * m["gmm.fit_s"] / m["gmm.rows"] if m["gmm.rows"] else 0.0

    m["forest.fit_s"] = total("forest.fit_forest")
    m["forest.fit_calls"] = calls("forest.fit_forest")
    m["forest.trees"] = count("forest.fit_forest", "trees")
    m["forest.nodes"] = count("forest.fit_forest", "nodes")
    m["forest.ms_per_tree"] = 1e3 * m["forest.fit_s"] / m["forest.trees"] \
        if m["forest.trees"] else 0.0
    m["forest.predict_s"] = total("forest.predict")
    m["forest.predict_calls"] = calls("forest.predict")
    m["forest.oob_s"] = total("forest.oob_predictions")
    m["forest.tree_rows"] = count("forest.predict", "tree_rows") + \
        count("forest.oob_predictions", "tree_rows")
    m["forest.ns_per_tree_row"] = 1e9 * (m["forest.predict_s"] + m["forest.oob_s"]) \
        / m["forest.tree_rows"] if m["forest.tree_rows"] else 0.0

    tests = by_name["vimp.rfvimptest"]
    m["vimp.rfvimptest_all_s"] = total("vimp.rfvimptest_all")
    m["vimp.tests"] = len(tests)
    m["vimp.permutations"] = count("vimp.rfvimptest", "m")
    m["vimp.forests"] = sum(under(s, "vimp.rfvimptest") for s in by_name["forest.fit_forest"])
    m["vimp.wasted_forests"] = m["vimp.forests"] - (m["vimp.permutations"] + len(tests))
    m["vimp.mmax_stop_share"] = count("vimp.rfvimptest", "mmax_stop") / len(tests) \
        if tests else 0.0
    m["vimp.worker_busy_s"] = total("vimp.rfvimptest")
    capacity = sum(s["counts"]["workers"] * _dur(s) for s in by_name["vimp.rfvimptest_all"])
    m["vimp.worker_idle_share"] = 1.0 - m["vimp.worker_busy_s"] / capacity if capacity else 0.0
    m["vimp.perm_importance_s"] = total("vimp.permutation_importance")
    m["vimp.perm_importance_calls"] = calls("vimp.permutation_importance")

    m["report.emit_tables_s"] = total("report.emit_tables")
    m["report.emit_tables_calls"] = calls("report.emit_tables")
    m["report.manifest_s"] = total("report.write_manifest")

    m["rng.stream_calls"] = calls("rng.stream")
    m["rng.stream_s"] = total("rng.stream")
    return m
