"""Workload shapes, their CLI commands, and the checks on what the commands write.

A workload pass generates a synthetic panel from the workload seed, writes
it with a config file into the pass directory, and runs the workload's
``epiwarn`` commands with paths relative to that directory, so two passes
of one seed write byte-identical output trees.

Greedy selection stops early when a step does not improve the score, so the
number of subsets it scores depends on the data. Every selecting workload
caps ``k_max`` at 1 or 2: the greedy steps up to the cap are then always
scored, and each seed does the same amount of work. The caps and sizes keep
a pass short enough that a run holds three or more passes.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

CONFIG = "exp.cfg"
PANEL_DIR = "panel"
OUT_DIR = "out"


class CheckError(Exception):
    """A command's outputs are missing, unparsable or wrong."""


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    out: str  # output directory, relative to the pass directory
    check: str  # name of the check applied to ``out``


@dataclass(frozen=True)
class Shape:
    """A panel size, config keys, and commands; the first command's check
    reports the workload's headline timeliness."""

    seasons: int
    predictors: int
    config: tuple[tuple[str, str], ...]  # config keys besides manifest and seed
    commands: tuple[Command, ...]

    def describe(self) -> dict:
        return {
            "seasons": self.seasons,
            "weeks": self.seasons * 52,
            "candidates": self.predictors,
            "config": dict(self.config),
            "commands": [" ".join(c.argv) for c in self.commands],
        }


def _cmd(argv: list[str], out: str, check: str) -> Command:
    return Command(tuple(argv) + ("--out", f"{OUT_DIR}/{out}"), f"{OUT_DIR}/{out}", check)


# every selecting workload: one replicate, the first two greedy steps
_SELECTION = {"replicates": "1", "k_max": "2"}
_MINI_CALIBRATION = {"sims": "40", "lambda_grid": "0.3,0.6"}


def _select(seasons: int, predictors: int, **config: str) -> Shape:
    argv = ["select", "--config", CONFIG, "--workers", "1"]
    return Shape(seasons, predictors, tuple({**_SELECTION, **config}.items()),
                 (_cmd(argv, "select", "select"),))


def _sweep(seasons: int, predictors: int, values: str, **config: str) -> Shape:
    argv = ["sweep", "--config", CONFIG, "--axis", "atfs", "--values", values]
    return Shape(seasons, predictors, tuple({**_SELECTION, **config}.items()),
                 (_cmd(argv, "sweep", "sweep"),))


def _monitor(seasons: int, predictors: int, subset_size: int) -> Shape:
    width = len(str(predictors))
    subset = ",".join(f"pred{i:0{width}d}" for i in range(1, subset_size + 1))
    return Shape(
        seasons,
        predictors,
        (),
        (
            _cmd(["detect", "--config", CONFIG, "--subset", subset, "--lam", "0.3",
                  "--h", "12"], "detect-mewma", "detect-mewma"),
            _cmd(["detect", "--config", CONFIG, "--baseline", "week:34"],
                 "detect-week", "detect-week"),
            _cmd(["evaluate", "--config", CONFIG, "--models", "week-trigger,rise-trigger"],
                 "evaluate", "evaluate"),
        ),
    )


WORKLOADS = {
    # the paper's operating point: sims 1000, 9 lambdas, 6 folds; 5 subsets
    "select-d5": {
        "full": _select(6, 5, k_max="1"),
        "mini": _select(4, 3, **_MINI_CALIBRATION),
    },
    # breadth: 30 + 29 subsets, each projected from full-D shared scan states
    "select-d30": {
        "full": _select(6, 30, sims="200", lambda_grid="0.2,0.8"),
        "mini": _select(4, 6, **_MINI_CALIBRATION),
    },
    # three ATFS targets, each a full select-then-evaluate pipeline run
    "sweep-atfs": {
        "full": _sweep(6, 5, "10,20,50", sims="300", lambda_grid="0.2,0.8"),
        "mini": _sweep(4, 3, "10,20", **_MINI_CALIBRATION),
    },
    # weekly operational use of a fitted detector: no calibration at all
    "monitor-d150": {
        "full": _monitor(20, 150, 10),
        "mini": _monitor(4, 12, 3),
    },
}


def shape(workload: str, scale: str) -> Shape:
    return WORKLOADS[workload][scale]


def write_inputs(shape: Shape, seed: int, pass_dir: Path, panel_module) -> None:
    """Generate the seeded panel and the config file under ``pass_dir``."""
    spec = panel_module.SyntheticPanelSpec(
        seasons=shape.seasons, predictor_count=shape.predictors, rng_seed=seed
    )
    panel_module.write_panel(panel_module.generate_synthetic(spec), pass_dir / PANEL_DIR)
    lines = [f"manifest = {PANEL_DIR}/panel.manifest", f"seed = {seed}"]
    lines += [f"{key} = {value}" for key, value in shape.config]
    (pass_dir / CONFIG).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _rows(path: Path, header: list[str]) -> list[dict]:
    if not path.is_file():
        raise CheckError(f"missing output {path.name}")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != header:
            raise CheckError(f"{path.name}: header {reader.fieldnames}, expected {header}")
        rows = list(reader)
    if not rows:
        raise CheckError(f"{path.name}: no rows")
    return rows


def _unit_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckError(f"{where}: not a number: {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise CheckError(f"{where}: {value} outside [0, 1]")
    return value


def _check_select(out: Path) -> float:
    """Mean over replicates of the final greedy step's CV score."""
    rows = _rows(out / "selection_trace.csv", ["replicate", "step", "chosen", "score"])
    final: dict[str, float] = {}
    for row in rows:
        if not row["chosen"].startswith("pred"):
            raise CheckError(f"selection_trace.csv: unknown predictor {row['chosen']!r}")
        final[row["replicate"]] = _unit_float(row["score"], "selection_trace.csv score")
    _rows(out / "selection_aggregate.csv", ["predictor", "median_rank", "frequency"])
    for r in final:
        path = out / "checkpoints" / f"replicate_{int(r):03d}.json"
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckError(f"checkpoint {path.name}: {exc}") from None
        if "fingerprint" not in payload:
            raise CheckError(f"checkpoint {path.name} has no fingerprint")
    return sum(final.values()) / len(final)


def _check_sweep(out: Path) -> float:
    """Mean performance over the sweep's grid points."""
    header = ["axis", "value", "epsilon", "window", "phi",
              "selected", "performance", "precision", "recall", "error"]
    rows = _rows(out / "sweep.csv", header)
    for row in rows:
        if row["error"]:
            raise CheckError(f"sweep.csv value {row['value']}: {row['error']}")
    return sum(_unit_float(r["performance"], "sweep.csv performance") for r in rows) / len(rows)


def _check_detect(out: Path, label: str) -> float:
    """The detector's timeliness from summary.csv."""
    _rows(out / f"{label}_trace.csv", ["week", "E", "alarm", "cluster_onset"])
    _rows(out / "events.csv", _header(out / "events.csv"))
    _rows(out / "event_report.csv", _header(out / "event_report.csv"))
    rows = _rows(out / "summary.csv", ["performance", "precision", "recall"])
    return _unit_float(rows[0]["performance"], "summary.csv performance")


def _header(path: Path) -> list[str]:
    if not path.is_file():
        raise CheckError(f"missing output {path.name}")
    with open(path, newline="") as fh:
        return next(csv.reader(fh), [])


def _check_evaluate(out: Path) -> float:
    header = ["model", "parameter", "performance", "precision", "recall",
              "mean_lead_weeks", "events_detected", "false_onsets"]
    rows = _rows(out / "model_comparison.csv", header)
    if [r["model"] for r in rows] != ["week-trigger", "rise-trigger"]:
        raise CheckError("model_comparison.csv does not list the requested models")
    for r in rows:
        _unit_float(r["performance"], "model_comparison.csv performance")
        _rows(out / f"{r['model']}_events.csv", _header(out / f"{r['model']}_events.csv"))
    return float(rows[0]["performance"])


CHECKS = {
    "select": _check_select,
    "sweep": _check_sweep,
    "detect-mewma": lambda out: _check_detect(out, "mewma"),
    "detect-week": lambda out: _check_detect(out, "week-trigger"),
    "evaluate": _check_evaluate,
}

def check(command: Command, pass_dir: Path) -> float:
    """Check a command's outputs; return the timeliness they report."""
    return CHECKS[command.check](pass_dir / command.out)


def tree_digest(root: Path) -> str:
    """SHA-256 over every file under ``root``: relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()
