"""Experiment configuration: flat key-value files with the standard defaults.

Defaults mirror the reference operating point: event threshold 1.25 with a
3-week minimum duration, a 16-week detection window led by 8 weeks, target
ATFS of 20 weeks estimated from 1000 simulations, a 0.1..0.9 lambda grid,
up to 8 predictors, and 40 selection replicates.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .calibrate import DEFAULT_ATFS, DEFAULT_LAMBDA_GRID, DEFAULT_SIMS
from .panel import ParseError, read_kv_file

FOLD_PRESETS = {"select-6fold": 1, "compare-3fold": 2}
OUTPUT_ROOT_ENV = "EPIWARN_OUTPUT_ROOT"


@dataclass(frozen=True)
class ExperimentConfig:
    manifest: Path
    epsilon: float = 1.25
    min_duration: int = 3
    window: int = 16
    lead: int = 8
    atfs: float = DEFAULT_ATFS
    sims: int = DEFAULT_SIMS
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    k_max: int = 8
    replicates: int = 40
    fold_preset: str = "select-6fold"
    seed: int = 0
    reporting_threshold: float = 2.0
    min_improvement: float = 0.0
    out: Path | None = None

    def __post_init__(self):
        if self.fold_preset not in FOLD_PRESETS:
            raise ValueError(
                f"fold_preset must be one of {sorted(FOLD_PRESETS)}, got {self.fold_preset!r}"
            )
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for key in sorted(_FLOAT_KEYS):
            if math.isnan(getattr(self, key)):
                raise ValueError(f"{key} must be a number, got nan")
        for key in ("min_duration", "window", "sims", "k_max", "replicates"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if not 0 <= self.lead <= self.window:
            raise ValueError(f"lead must be in [0, window={self.window}], got {self.lead}")
        if not 1.0 < self.atfs < math.inf:  # ATFS 1 needs h = 0, where every week alarms
            raise ValueError(f"atfs must be finite and > 1 week, got {self.atfs}")
        object.__setattr__(self, "manifest", Path(self.manifest))
        object.__setattr__(self, "lambda_grid", tuple(float(l) for l in self.lambda_grid))
        if not self.lambda_grid or not all(0.0 < l < 1.0 for l in self.lambda_grid):
            raise ValueError(f"lambda_grid must be nonempty, in (0, 1), got {self.lambda_grid}")
        if len(set(self.lambda_grid)) < len(self.lambda_grid):
            raise ValueError(f"lambda_grid values must be distinct, got {self.lambda_grid}")
        if self.out is not None:
            object.__setattr__(self, "out", Path(self.out))

    @property
    def held_out(self) -> int:
        return FOLD_PRESETS[self.fold_preset]

    @property
    def lead_threshold(self) -> float | None:
        """Reporting threshold for lead tables, or None (no lead tables) when it
        is below the event threshold: events then start above it, so there is
        no crossing for an alarm to lead."""
        return self.reporting_threshold if self.reporting_threshold >= self.epsilon else None

    def resolved_text(self) -> str:
        """All keys with defaults materialized, one ``key = value`` line each."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "lambda_grid":
                value = ",".join(repr(v) for v in value)
            elif f.name == "out":
                value = "" if value is None else value
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        """Digest of the result-determining inputs: parameters plus panel bytes."""
        digest = hashlib.sha256()
        for f in fields(self):
            if f.name in ("out", "manifest"):
                continue
            digest.update(f"{f.name}={getattr(self, f.name)!r};".encode())
        for path in _panel_files(self.manifest):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        return digest.hexdigest()

    def output_dir(self, command: str, override=None) -> Path:
        """Resolve the output directory: CLI override, config key, then the
        environment root (or ./epiwarn_out) plus the command name."""
        if override is not None:
            return Path(override)
        if self.out is not None:
            return self.out
        root = Path(os.environ.get(OUTPUT_ROOT_ENV, "epiwarn_out"))
        return root / command


def _panel_files(manifest: Path) -> list[Path]:
    from .panel import read_manifest

    gold, candidates = read_manifest(manifest)
    return [manifest, gold, *candidates]


_INT_KEYS = {"min_duration", "window", "lead", "sims", "k_max", "replicates", "seed"}
_FLOAT_KEYS = {"epsilon", "atfs", "reporting_threshold", "min_improvement"}
_PARSERS = {
    **dict.fromkeys(_INT_KEYS, int),
    **dict.fromkeys(_FLOAT_KEYS, float),
    "lambda_grid": lambda raw: tuple(float(v) for v in raw.split(",") if v.strip()),
    "fold_preset": str,
}


def load_config(path) -> ExperimentConfig:
    """Read a flat key-value config file; unknown keys are errors.

    Relative ``manifest`` and ``out`` paths resolve against the config file's
    directory. An empty ``out`` is unset, as ``resolved_text`` writes it, so a
    resolved config loads back to the config that wrote it.
    """
    path = Path(path)
    base = path.parent
    values: dict = {}
    for key, raw in read_kv_file(path):
        if key in values:
            raise ParseError(f"{path}: repeated key {key!r}")
        if key in ("manifest", "out"):
            values[key] = base / raw if raw else None
        elif key in _PARSERS:
            try:
                values[key] = _PARSERS[key](raw)
            except ValueError:
                raise ParseError(f"{path}: bad value {raw!r} for {key!r}") from None
        else:
            raise ParseError(f"{path}: unknown config key {key!r}")
    if values.get("manifest") is None:
        raise ParseError(f"{path}: config is missing the 'manifest' key")
    return ExperimentConfig(**values)
