"""The span names the benchmark's per-layer metrics read must name functions
its tracer wraps: a renamed function would otherwise leave its metric at 0
without any error.  A traced run must also work end to end, since the
tracer's counters read fields of the program's results."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from panelforest.cli import Runner

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _assigned(tree, name):
    return next(node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets))


def read_span_names():
    """The string arguments of total/calls/count (count's first only) and of
    by_name[...] in layers.py, the keys of tracer.COUNTERS, and
    cli.step_<s> for each of layers.CLI_STEPS."""
    layers = ast.parse((PERFBENCH / "layers.py").read_text())
    names = set()
    for node in ast.walk(layers):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("total", "calls", "count"):
            args = node.args[:1] if node.func.id == "count" else node.args
            names |= {a.value for a in args if isinstance(a, ast.Constant)}
        elif isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) \
                and node.value.id == "by_name" and isinstance(node.slice, ast.Constant):
            names.add(node.slice.value)
    tracer = ast.parse((PERFBENCH / "tracer.py").read_text())
    names |= {key.value for key in _assigned(tracer, "COUNTERS").keys}
    names |= {f"cli.step_{s}" for s in ast.literal_eval(_assigned(layers, "CLI_STEPS"))}
    return names


def resolves(name):
    """Whether the tracer wraps a function under `name`: a public function
    defined in panelforest.<module> (rng is _rng), or a Runner step."""
    module, _, attr = name.partition(".")
    if module == "cli" and attr.startswith("step_"):
        return inspect.isfunction(getattr(Runner, attr, None))
    mod = importlib.import_module(f"panelforest.{'_rng' if module == 'rng' else module}")
    fn = getattr(mod, attr, None)
    return not attr.startswith("_") and inspect.isfunction(fn) \
        and fn.__module__ == mod.__name__


def test_every_traced_name_resolves():
    names = read_span_names()
    assert "report.emit_tables" in names and "cli.step_compare" in names
    assert [n for n in sorted(names) if not resolves(n)] == []


TRACED_RUN = """
import json, sys
from pathlib import Path
import layers, tracer, workloads
from panelforest import cli

tmp = Path(sys.argv[1])
cfg = workloads.base_config(7, workloads.DEMO_GROUPS)
cfg.update(demo=True, forest={"n_trees": 20, "min_leaf": 5},
           seq_test={"method": "sprt", "mmax": 19, "ntree": 5, "nperm": 1})
(tmp / "config.json").write_text(json.dumps(cfg))
trace = tracer.install(tmp / "trace")
code = cli.main(["all", "-c", str(tmp / "config.json"), "--workers", "2",
                 "--out", str(tmp / "out")])
trace.flush()
print(json.dumps({"code": code, **layers.layer_metrics(layers.read_spans(tmp / "trace"))}))
"""


def test_traced_run_reads_its_counts(tmp_path):
    """`all --demo` under the benchmark's tracer, with its pool of two
    workers: every counter the tracer reads off a result must still exist."""
    src = Path(__file__).parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(PERFBENCH)]))
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    m = json.loads(proc.stdout.splitlines()[-1])
    assert m["code"] == 0
    assert m["forest.trees"] == 80 and m["dataset.rows"] == 462 and m["linear.fit_calls"] == 4
    assert m["forest.nodes"] > 0 and m["forest.tree_rows"] > 0 and m["gmm.rows"] > 0
