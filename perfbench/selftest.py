"""Self-test of the benchmark at minimal sizes.

    python3 perfbench/selftest.py

Runs every workload with and without tracing on tiny shapes, and checks
that each run prints exactly the metrics BENCHMARK.json names, each with its
unit, and leaves no temporary files behind. A run with a command that must
fail checks that the failure is counted in ``failed`` and ``ok_rate``.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int, *extra: str) -> tuple[int, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--scale", "mini", *extra]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload} trace {trace}: no output; stderr: {proc.stderr}")
    if (ROOT / ".perfbench_tmp").exists():
        raise AssertionError(f"{workload} trace {trace}: temporary files left behind")
    return proc.returncode, json.loads(lines[-1])


def check_metrics(label: str, result: dict, expected: list[dict]) -> None:
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    units = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        missing = sorted(set(units) - set(got))
        extra = sorted(set(got) - set(units))
        wrong = sorted(n for n in set(units) & set(got) if units[n] != got[n])
        raise AssertionError(f"{label}: missing {missing}, unexpected {extra}, "
                             f"wrong units {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{label}: {name} is not a number")


def main() -> int:
    for w in SPEC["workloads"]:
        name = w["name"]
        for trace, expected in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            label = f"{name} trace {trace}"
            code, result = run(name, trace)
            if code != 0 or not result["correct"] or result["failed"]:
                raise AssertionError(f"{label}: exit {code}, result {result}")
            check_metrics(label, result, expected)
            if trace:
                sims = result["metrics"]["calibrate.simulate_calls"]["value"]
                if (sims == 0) != (name == "monitor-d150"):
                    raise AssertionError(f"{label}: {sims} simulations")
            print(f"ok  {label}: {result['attempted']} commands")

    code, result = run("monitor-d150", 0, "--inject-failure")
    passes = result["attempted"] // 4  # three workload commands plus the failing one
    if code != 1 or result["correct"] or result["failed"] != passes:
        raise AssertionError(f"failing command not counted: exit {code}, result {result}")
    ok_rate = result["metrics"]["ok_rate"]["value"]
    if ok_rate != 1.0 - result["failed"] / result["attempted"]:
        raise AssertionError(f"ok_rate {ok_rate} does not count the failed commands")
    print(f"ok  injected failure: {result['failed']} of {result['attempted']} commands failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
