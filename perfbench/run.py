"""panelforest benchmark: one workload, run repeatedly for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Every iteration is a fresh process (`child.py`) that drives the CLI's
`Runner`, so each one pays interpreter start, imports and set-up as a user
does.  Iterations run one after another, never concurrently.  Every
iteration's outputs are checked, and its whole artifact tree must be
byte-identical to the first iteration's.

--trace 0 reports the end-to-end metrics, medians over the iterations:
wall_s (spawn to exit), setup_s (spawn until the prepared panel is built),
cpu_s (user+system of the process and its pool workers) and peak_rss_mb
(largest resident set of any of them).  --trace 1 alternates untraced and
traced iterations and reports the per-layer metrics of `layers.py`, medians
over the traced iterations, plus trace.overhead_s and report.artifact_bytes.
The last line of stdout is the JSON result; notes go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ITERATION_TIMEOUT_S = 60
# no iteration starts once it would end past this many seconds after the
# run began, so a run exits well within 180 s even on a much slower program
HARD_LIMIT_S = 120
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def host_info() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_iteration(wl: workloads.Workload, seed: int, argv: list[str], run_dir: Path,
                  index: int | str, src: Path, trace: bool, timeout: float) -> dict:
    """Run one iteration; return its measurements, artifact digest and the
    problems found in its outputs."""
    it_dir = run_dir / f"it{index}"
    out = it_dir / "out"
    it_dir.mkdir()
    spec = {"argv": [*argv, "--out", str(out)], "steps": list(wl.steps),
            "marks": str(it_dir / "marks.json"),
            "trace_dir": str(it_dir / "trace") if trace else None, "src": str(src)}
    (it_dir / "spec.json").write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PANELFOREST_WORKERS", None)
    with open(it_dir / "stdout.log", "wb") as stdout:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"),
                                 str(it_dir / "spec.json")],
                                stdout=stdout, stderr=subprocess.STDOUT, env=env,
                                cwd=it_dir, start_new_session=True)
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - t0
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:  # a pool worker that outlived its parent
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    text = (it_dir / "stdout.log").read_text(errors="replace")
    result = {"trace": trace, "problems": []}
    if proc.returncode != 0:
        result["problems"].append(f"exit code {proc.returncode}: {text[-2000:]}")
        return result
    result.update(
        wall_s=wall,
        setup_s=json.loads((it_dir / "marks.json").read_text())["setup_end"] - t0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        digest=tree_digest(out),
        artifact_bytes=sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
    )
    try:
        result["problems"] += wl.check(out, text, seed)
        if (out / "provenance.json").is_file():
            result["content_hash"] = json.loads(
                (out / "provenance.json").read_text())["content_hash"]
    except (OSError, ValueError, KeyError) as exc:
        result["problems"].append(f"unreadable output: {type(exc).__name__}: {exc}")
    if trace:
        spans = layers.read_spans(it_dir / "trace")
        result["layers"] = layers.layer_metrics(spans)
        result["self_times"] = layers.self_times(spans)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    src = root / "src"
    if not (src / "panelforest" / "cli.py").is_file():
        log(f"no panelforest sources under {src}; run from the root of a checkout")
        return 2
    begin = time.monotonic()
    wl = workloads.WORKLOADS[args.workload]
    host = host_info()
    log(f"host: {json.dumps(host)}")
    if wl.name == "demo_all" and host["nproc"] < workloads.DEMO_WORKERS:
        log(f"WARNING: {host['nproc']} usable cores for {workloads.DEMO_WORKERS} workers; "
            "wall times are not comparable with a 2-core host")

    run_dir = root / ".bench_build" / "perfbench-work" / \
        f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        seeds = workloads.input_seeds(args.seed)
        argvs = [wl.prepare(run_dir / f"input{j}", s) for j, s in enumerate(seeds)]
        checks = []
        if wl.reference_seed is not None:
            # untimed: the outputs stored for the reference input must be
            # reproduced; this also warms byte-code and file cache
            argv = wl.prepare(run_dir / "reference", wl.reference_seed)
            it = run_iteration(wl, wl.reference_seed, argv, run_dir, "ref", src, False,
                               ITERATION_TIMEOUT_S)
            checks.append(it)
            log(f"reference iteration seed {wl.reference_seed}: "
                f"{len(it['problems'])} problems")
        iterations = []
        start = time.monotonic()
        # untraced: every input once and one repeat, to check determinism
        min_iterations = 4 if args.trace else len(seeds) + 1
        while True:
            elapsed = time.monotonic() - start
            done = [it["wall_s"] for it in iterations if "wall_s" in it]
            per_iteration = statistics.median(done) if done else 0.0
            since_begin = time.monotonic() - begin
            if since_begin + per_iteration > HARD_LIMIT_S or (
                    len(iterations) >= min_iterations
                    and elapsed + per_iteration > args.seconds):
                break
            i = len(iterations)
            # a traced run pairs each traced iteration with an untraced one
            # on the same input, and their artifact trees must match
            traced = bool(args.trace) and i % 2 == 1
            j = (i // 2 if args.trace else i) % len(seeds)
            timeout = min(ITERATION_TIMEOUT_S, HARD_LIMIT_S + 30 - since_begin)
            it = run_iteration(wl, seeds[j], argvs[j], run_dir, i, src, traced, timeout)
            it["input"] = j
            same_input = [o["digest"] for o in iterations if o["input"] == j and "digest" in o]
            if "digest" in it and same_input and it["digest"] != same_input[0]:
                it["problems"].append(f"artifact tree differs from the first run "
                                      f"on seed {seeds[j]}")
            iterations.append(it)
            log(f"iteration {i} seed {seeds[j]}{' traced' if traced else ''}: " +
                " ".join(f"{k}={it[k]:.3f}" for k in ("wall_s", "setup_s", "cpu_s")
                         if k in it))
        return report(wl, args, seeds, checks, iterations, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def report(wl, args, seeds: list[int], checks: list[dict], iterations: list[dict],
           run_dir: Path) -> int:
    """Print the result line.  `checks` are untimed iterations whose outputs
    count in `attempted` and `failed` but not in the metrics."""
    failed = [it for it in checks + iterations if it["problems"]]
    for it in checks:
        for problem in it["problems"]:
            log(f"reference iteration: {problem}")
    for i, it in enumerate(iterations):
        for problem in it["problems"]:
            log(f"iteration {i}{' (traced)' if it['trace'] else ''}: {problem}")
    # an iteration whose outputs fail a check still has valid timings
    measured = [it for it in iterations if "wall_s" in it]
    plain = [it for it in measured if not it["trace"]]
    traced = [it for it in measured if it["trace"]]
    if not plain or (args.trace and not traced):
        log("no iteration ran to completion")
        return 1
    for j, seed in enumerate(seeds):
        hashes = {it["content_hash"] for it in measured
                  if it["input"] == j and "content_hash" in it}
        if hashes:
            reference = workloads.DEMO_REFERENCE_HASH.get(seed)
            log(f"seed {seed}: content_hash {' '.join(sorted(hashes))}; equals the recorded "
                f"hash: {hashes == {reference} if reference else 'none recorded'}")

    def med(key, its):
        return statistics.median(it[key] for it in its)

    if args.trace:
        metrics = {name: statistics.median(it["layers"][name] for it in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = med("wall_s", traced) - med("wall_s", plain)
        metrics["report.artifact_bytes"] = med("artifact_bytes", traced)
        summary = {"workload": wl.name, "seed": args.seed, "layers": metrics,
                   "self_times": traced[-1]["self_times"]}
        summary_path = run_dir.parent / f"last_trace_{wl.name}.json"
        summary_path.write_text(json.dumps(summary, indent=1))
        log(f"trace summary: {summary_path}")
        units = layers.UNITS
    else:
        metrics = {k: med(k, plain) for k in E2E_UNITS}
        units = E2E_UNITS
        for k in metrics:
            values = sorted(it[k] for it in plain)
            log(f"{k}: n={len(values)} min={values[0]:.4f} median={metrics[k]:.4f} "
                f"max={values[-1]:.4f}")
    print(json.dumps({
        "correct": not failed, "attempted": len(checks) + len(iterations),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
