"""One benchmark iteration in a fresh process: build the CLI's `Runner`, build
its prepared panel, record the set-up mark, then run the workload's steps.

    python3 child.py SPEC.json

SPEC holds `argv` (CLI arguments after the subcommand), `steps`
(subcommands run in order on one Runner), `marks` (where to write the
CLOCK_MONOTONIC time at which set-up ended), `trace_dir` (null for an
untraced run) and `src`, the checkout's source directory, which must come
first on PYTHONPATH.
"""

import json
import os
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    from panelforest import cli

    src = spec["src"]
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"panelforest imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    tracer = None
    if spec["trace_dir"]:
        import tracer as tracer_mod
        tracer = tracer_mod.install(Path(spec["trace_dir"]))
    args = cli.build_parser().parse_args([spec["steps"][0], *spec["argv"]])
    runner = cli.Runner(cli.load_config(args))
    runner.prepared  # load or generate, outlier filter, logs, lags
    Path(spec["marks"]).write_text(json.dumps({"setup_end": time.monotonic()}))
    for step in spec["steps"]:
        runner.run(step)
    if tracer is not None:
        tracer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
