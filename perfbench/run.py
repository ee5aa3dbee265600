"""epiwarn benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs workload passes one at a time, each in a fresh interpreter
(``session.py``), until the next pass would end after ``--seconds``; at
least two passes run, so every run checks that two passes of one seed write
byte-identical outputs. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine and run context. With ``--trace 0`` the metrics are the
end-to-end ones. With ``--trace 1`` one untraced pass is followed by at
least two traced passes, and the metrics are per-layer self times and exact
work counts; the counts of every traced pass must agree.

Passes write into a temporary directory under ``.perfbench_tmp`` in the
checkout, removed when the run ends. Exit code 0 means correct outputs,
1 a failed output check, 2 that nothing could be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"

MIN_PASSES = 2
MIN_SETUPS = 5
RUN_LIMIT_S = 150.0  # a run never starts a pass that could end after this
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class NoMeasurement(Exception):
    """A pass could not run at all; the run prints no result."""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "mini"], default="full",
                        help="mini: tiny shapes for the benchmark's self-test")
    parser.add_argument("--inject-failure", action="store_true",
                        help="add a command that must fail to every pass")
    args = parser.parse_args()
    # on SIGTERM, unwind so subprocess.run kills and reaps the running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "epiwarn" / "__init__.py").is_file():
        print(f"no epiwarn sources under {SRC}", file=sys.stderr)
        return 2

    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    try:
        runner = Runner(args, tmp)
        report = runner.run()
    except NoMeasurement as exc:
        print(f"benchmark stopped: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(TMP_ROOT.iterdir()):
            TMP_ROOT.rmdir()

    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"context": report["context"]}, sort_keys=True))
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


class Runner:
    def __init__(self, args, tmp: Path):
        self.args = args
        self.tmp = tmp
        self.shape = workloads.shape(args.workload, args.scale)
        self.start = time.monotonic()
        self.deadline = self.start + args.seconds
        self.passes: list[dict] = []  # results of passes that ran commands
        self.setups: list[float] = []
        self.durations: list[float] = []

    def spawn(self, *, trace: bool = False, setup_only: bool = False) -> dict:
        """Run one pass in a fresh interpreter and return its result."""
        pass_dir = self.tmp / f"pass{len(self.setups):03d}"
        pass_dir.mkdir()
        result_file = pass_dir / "result.json"
        argv = [sys.executable, str(HERE / "session.py"), "--src", str(SRC),
                "--workload", self.args.workload, "--seed", str(self.args.seed),
                "--scale", self.args.scale, "--result", str(result_file)]
        if trace:
            argv.append("--trace")
        if setup_only:
            argv.append("--setup-only")
        if self.args.inject_failure:
            argv.append("--inject-failure")
        env = dict(os.environ, TMPDIR=str(self.tmp))
        timeout = max(1.0, self.start + 170.0 - time.monotonic())
        spawned = time.monotonic()
        try:
            proc = subprocess.run(argv + ["--spawned-at", repr(spawned)], cwd=pass_dir,
                                  env=env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise NoMeasurement(f"a pass ran past {timeout:.0f} s") from None
        if proc.returncode != 0 or not result_file.is_file():
            raise NoMeasurement(
                f"pass exited with code {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        result = json.loads(result_file.read_text())
        self.setups.append(result["setup_s"])
        if not setup_only:
            self.durations.append(time.monotonic() - spawned)
            self.passes.append(result)
        return result

    def room_for_another_pass(self) -> bool:
        expected_end = time.monotonic() + statistics.median(self.durations)
        return expected_end <= self.deadline and expected_end <= self.start + RUN_LIMIT_S

    def run(self) -> dict:
        problems: list[str] = []
        if self.args.trace:
            untraced = self.spawn()
            traced = [self.spawn(trace=True)]
            while len(traced) < MIN_PASSES or self.room_for_another_pass():
                traced.append(self.spawn(trace=True))
            metrics = self.layer_metrics(untraced, traced, problems)
        else:
            while len(self.passes) < MIN_PASSES or self.room_for_another_pass():
                self.spawn()
            while len(self.setups) < MIN_SETUPS:
                self.spawn(setup_only=True)
            metrics = self.end_to_end_metrics()
        attempted, failed = self.check_passes(problems)
        return {
            "problems": problems,
            "context": self.context(),
            "result": {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            },
        }

    def check_passes(self, problems: list[str]) -> tuple[int, int]:
        """Count commands and failures; every pass of one seed must agree."""
        attempted = failed = 0
        for i, p in enumerate(self.passes):
            for c in p["commands"]:
                attempted += 1
                if c["error"]:
                    failed += 1
                    problems.append(f"pass {i}: {c['command']}: {c['error']}")
        first = self.passes[0]
        for i, p in enumerate(self.passes[1:], start=1):
            if p["digest"] != first["digest"]:
                problems.append(f"pass {i} wrote different outputs than pass 0")
            if p["timeliness"] != first["timeliness"]:
                problems.append(f"pass {i} timeliness {p['timeliness']} != {first['timeliness']}")
        if first["timeliness"] is None:
            problems.append("no timeliness: the headline command failed")
        return attempted, failed

    def end_to_end_metrics(self) -> dict:
        attempted = sum(len(p["commands"]) for p in self.passes)
        succeeded = sum(not c["error"] for p in self.passes for c in p["commands"])
        values = {
            "wall_s": (statistics.median(p["wall_s"] for p in self.passes), "s"),
            "setup_s": (statistics.median(self.setups), "s"),
            "peak_rss_mb": (max(p["peak_rss_mb"] for p in self.passes), "MB"),
            "ok_rate": (succeeded / attempted, "ratio"),
            "timeliness": (self.passes[0]["timeliness"] or 0.0, "ratio"),
        }
        return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}

    def layer_metrics(self, untraced: dict, traced: list[dict], problems: list[str]) -> dict:
        """Mean per-layer self times over traced passes; counts must repeat exactly."""
        summaries = [p["trace"] for p in traced]
        counts = summaries[0]["counts"]
        for i, s in enumerate(summaries[1:], start=1):
            differing = sorted(k for k in counts if s["counts"][k] != counts[k])
            if differing:
                problems.append(
                    "work counts differ between traced passes 0 and "
                    f"{i}: " + ", ".join(f"{k} {counts[k]} != {s['counts'][k]}"
                                         for k in differing)
                )
        n = len(summaries)
        self_s = {layer: sum(s["self_s"][layer] for s in summaries) / n
                  for layer in summaries[0]["self_s"]}
        traced_wall = sum(p["wall_s"] for p in traced) / n
        solves = summaries[0]["solves"]
        fits = counts["calibrate.fits"]
        values = {f"{layer}_s": (v, "s") for layer, v in self_s.items()}
        values.update({name: (v, "count") for name, v in counts.items()})
        values.update({
            "calibrate.sim_bytes": (8 * counts["calibrate.simulated_values"], "B-computed"),
            "calibrate.evals_per_solve": (
                counts["calibrate.threshold_evals"] / solves if solves else 0.0, "evals/solve"),
            "calibrate.sims_per_fit": (
                counts["calibrate.simulate_calls"] / fits if fits else 0.0, "sims/fit"),
            "pipeline.cv_eval_s": (sum(s["cv_eval_s"] for s in summaries) / n, "s"),
            "trace.wall_s": (traced_wall, "s"),
            "trace.uncovered_s": (traced_wall - sum(self_s.values()), "s"),
            "trace.overhead_s": (traced_wall - untraced["wall_s"], "s"),
        })
        return {name: {"value": v, "unit": u} for name, (v, u) in sorted(values.items())}

    def context(self) -> dict:
        try:
            affinity = len(os.sched_getaffinity(0))
        except AttributeError:
            affinity = None
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "scale": self.args.scale,
            "shape": self.shape.describe(),
            "passes": len(self.passes),
            "wall_s_samples": [round(p["wall_s"], 4) for p in self.passes],
            "setup_s_samples": [round(s, 4) for s in self.setups],
            "run_s": round(time.monotonic() - self.start, 3),
            "nproc": os.cpu_count(),
            "affinity_cpus": affinity,
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "platform": platform.platform(),
            "versions": self.passes[0]["versions"],
            "git_commit": _git_commit(),
        }


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return "unknown (git not found)"
    return proc.stdout.strip() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
