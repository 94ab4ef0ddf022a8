"""Span tracer installed around panelforest from outside the package.

`install(out_dir)` replaces the public functions of the traced modules, and
the `Runner.step_*` methods, with wrappers that record one span per call:
id, parent id, name, process id, start and end (CLOCK_MONOTONIC, shared by
all processes of the host) and, for a few functions, counts read from the
arguments and the result.  A function is replaced in every module namespace
that binds it, so `vimp`'s and `cli`'s imported copies of `fit_forest` and
`predict` are traced too.

Spans stay in memory.  Pool workers forked after `install` inherit the
wrappers; each writes its spans to its own ``spans-<pid>.jsonl`` whenever its
outermost span ends, because pool workers leave through ``os._exit`` without
running exit hooks.  The traced process calls `Tracer.flush` when it is done.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

TRACED_MODULES = ("cli", "dataset", "demo", "linear", "gmm", "forest", "vimp",
                  "report", "_rng")


def _rows(bound, result):
    return {"rows": result.n_rows}


def _fit_forest(bound, result):
    return {"trees": len(result.trees), "nodes": sum(t.n_nodes for t in result.trees)}


def _predict(bound, result):
    forest, X = bound["forest"], bound["X"]
    return {"tree_rows": len(forest.trees) * len(X)}


def _oob_predictions(bound, result):
    return {"tree_rows": int((bound["forest"].in_bag_counts == 0).sum())}


def _gmm(bound, result):
    return {"rows": result.n_obs_diff + result.n_obs_level}


def _rfvimptest(bound, result):
    return {"m": result.m, "mmax_stop": int(result.stopping_reason == "mmax_fallback")}


def _rfvimptest_all(bound, result):
    return {"workers": bound["workers"]}


COUNTERS = {
    "dataset.load_csv": _rows,
    "demo.make_demo_panel": _rows,
    "forest.fit_forest": _fit_forest,
    "forest.predict": _predict,
    "forest.oob_predictions": _oob_predictions,
    "gmm.fit_system_gmm": _gmm,
    "vimp.rfvimptest": _rfvimptest,
    "vimp.rfvimptest_all": _rfvimptest_all,
}


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.next_id = 0
        self.flush_depth = None  # set in forked workers
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # the inherited stack ends in the span that started the pool, which
        # becomes the parent of the worker's outermost spans
        self.pid = os.getpid()
        self.spans = []
        self.next_id = 0
        self.flush_depth = len(self.stack)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = f"{self.pid}.{self.next_id}"
            self.next_id += 1
            span = {"id": sid, "parent": self.stack[-1] if self.stack else None,
                    "name": name, "pid": self.pid}
            self.stack.append(sid)
            span["t0"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter_ns()
                self.stack.pop()
                self.spans.append(span)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = counter(bound.arguments, result)
            if self.flush_depth is not None and len(self.stack) == self.flush_depth:
                self.flush()
            return result

        return traced

    def flush(self) -> None:
        if self.spans:
            with open(self.out_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
                fh.writelines(json.dumps(s) + "\n" for s in self.spans)
            self.spans = []


def install(out_dir: Path) -> Tracer:
    """Wrap the public functions of the traced modules in every
    panelforest namespace that binds them, and the Runner steps."""
    tracer = Tracer(out_dir)
    wrapped = {}  # id(original) -> wrapper
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"panelforest.{short}")
        for attr, fn in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(fn) \
                    and fn.__module__ == mod.__name__:
                wrapped[id(fn)] = tracer.wrap(f"{short.lstrip('_')}.{attr}", fn)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "panelforest" or name.startswith("panelforest.")):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])
    runner = sys.modules["panelforest.cli"].Runner
    for attr, value in list(vars(runner).items()):
        if attr.startswith("step_") and inspect.isfunction(value):
            setattr(runner, attr, tracer.wrap(f"cli.{attr}", value))
    return tracer
