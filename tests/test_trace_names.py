"""The span names the benchmark's per-layer metrics read must name functions
its tracer wraps: a renamed function would otherwise leave its metric at 0
without any error."""

import ast
import importlib
import inspect
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
