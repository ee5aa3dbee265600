"""One workload pass in a fresh interpreter.

The pass imports ``epiwarn`` from the checkout's ``src``, writes the seeded
inputs into the current directory, runs the workload's commands in-process
through ``epiwarn.cli.main``, checks what they wrote, and saves a JSON
result for ``run.py``. ``setup_s`` runs from the moment ``run.py`` started
this interpreter to the first timed command. Exit code 3 means the program
could not be imported or the inputs could not be written: ``run.py`` stops
without a result.

    python3 session.py --src SRC --workload NAME --seed N --scale full|mini
        --spawned-at MONOTONIC --result FILE [--trace] [--setup-only]
        [--inject-failure]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads

# a command that must fail: the detector names a series the panel lacks
FAILING_COMMAND = workloads.Command(
    ("detect", "--config", workloads.CONFIG, "--subset", "no-such-series",
     "--lam", "0.3", "--h", "12", "--out", f"{workloads.OUT_DIR}/failing"),
    f"{workloads.OUT_DIR}/failing",
    "detect-mewma",
)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=["full", "mini"], default="full")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inject-failure", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    try:
        import epiwarn.cli as cli
        import epiwarn.panel as panel
    except ImportError as exc:
        print(f"cannot import epiwarn from {args.src}: {exc}", file=sys.stderr)
        return 3
    shape = workloads.shape(args.workload, args.scale)
    pass_dir = Path.cwd()
    try:
        workloads.write_inputs(shape, args.seed, pass_dir, panel)
    except Exception as exc:  # nothing can be measured without inputs
        print(f"cannot write the workload inputs: {exc!r}", file=sys.stderr)
        return 3
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(_run_commands(cli, shape, pass_dir, args))
    Path(args.result).write_text(json.dumps(result))
    return 0


def _run_commands(cli, shape: workloads.Shape, pass_dir: Path, args) -> dict:
    commands = list(shape.commands)
    if args.inject_failure:
        commands.append(FAILING_COMMAND)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(run_id=f"{args.workload}-{args.seed}-{pass_dir.name}")
        tracing.install(tracer)

    ran = []
    timeliness = None
    for command in commands:
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer is None:
                code = cli.main(list(command.argv))
            else:
                code = tracer.call(tracing.ROOT_SPAN, cli.main, list(command.argv))
        wall_s = time.perf_counter() - start
        error = ""
        if code != 0:
            error = f"exit code {code}: {stderr.getvalue().strip()}"
        else:
            try:
                value = workloads.check(command, pass_dir)
            except workloads.CheckError as exc:
                error = str(exc)
            else:
                if command is shape.commands[0]:
                    timeliness = value
        ran.append({"command": " ".join(command.argv), "wall_s": wall_s, "error": error})

    result = {
        "commands": ran,
        "wall_s": sum(c["wall_s"] for c in ran),
        "timeliness": timeliness,
        "digest": workloads.tree_digest(pass_dir / workloads.OUT_DIR),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        (pass_dir / "spans.json").write_text(json.dumps(tracer.records()))
    return result


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


if __name__ == "__main__":
    sys.exit(main())
