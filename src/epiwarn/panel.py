"""Weekly time-series panels: CSV ingestion, alignment, synthetic generation.

A panel bundles one gold-standard series with an ordered set of candidate
predictor series on a shared weekly axis. Ingestion is strict: files must be
gap-free weekly exports and no imputation is performed.
"""

from __future__ import annotations

import csv
import functools
import math
import re
from dataclasses import dataclass
from datetime import date
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

_WEEK_RE = re.compile(r"^(\d{4})-W(\d{2})$")


class PanelError(Exception):
    """Base class for panel ingestion problems."""


class ParseError(PanelError):
    """Malformed CSV content (bad row, bad week label, bad number)."""


class AlignmentError(PanelError):
    """Input series do not share a usable common week range."""


class DuplicateWeekError(PanelError):
    """The same week appears twice within one series file."""


class MissingDataError(PanelError):
    """A week is absent or a value is missing; no imputation is attempted."""


def week_to_index(label: str) -> int:
    """Map an ISO year-week label (``YYYY-Www``) to a dense global week index.

    The index is the count of whole weeks since the ISO epoch Monday, so
    consecutive calendar weeks map to consecutive integers across year
    boundaries (including 53-week ISO years).
    """
    m = _WEEK_RE.match(label.strip())
    if not m:
        raise ParseError(f"bad week label {label!r}, expected YYYY-Www")
    year, week = int(m.group(1)), int(m.group(2))
    try:
        monday = date.fromisocalendar(year, week, 1)
    except ValueError as exc:
        raise ParseError(f"bad week label {label!r}: {exc}") from None
    return monday.toordinal() // 7


def index_to_week(index: int) -> str:
    """Inverse of :func:`week_to_index`."""
    year, week, _ = date.fromordinal(index * 7 + 1).isocalendar()
    return f"{year:04d}-W{week:02d}"


@functools.lru_cache(maxsize=32)
def week_labels(first: int, length: int) -> tuple[str, ...]:
    """Labels of ``length`` consecutive weeks from week index ``first``.

    Memoized: every series of a panel, and every file written from it,
    shares one tuple.
    """
    return tuple(index_to_week(first + i) for i in range(length))


@dataclass(frozen=True)
class WeekAxis:
    """A run of consecutive calendar weeks, identified by the first week."""

    start: str
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError(f"axis length must be >= 1, got {self.length}")
        week_to_index(self.start)  # validate the label eagerly

    @cached_property
    def start_index(self) -> int:
        return week_to_index(self.start)

    def label(self, i: int) -> str:
        if not 0 <= i < self.length:
            raise IndexError(f"week position {i} outside axis of length {self.length}")
        return self.labels()[i]

    def labels(self) -> tuple[str, ...]:
        return week_labels(self.start_index, self.length)

    @cached_property
    def iso_weeks(self) -> np.ndarray:
        """ISO week-of-year number (1..53) of every axis position (read-only)."""
        weeks = np.array([int(label[-2:]) for label in self.labels()])
        weeks.flags.writeable = False
        return weeks


@dataclass(frozen=True, eq=False)
class Series:
    """One named weekly series; values align with the owning panel's axis."""

    name: str
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise ValueError(f"series {self.name!r}: values must be 1-D")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"series {self.name!r}: non-finite values")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class AlignedPanel:
    """Gold-standard series plus candidate predictors on one weekly axis.

    The gold name may also appear among the candidates, but only for the gold
    series itself (a detector may use it as its own predictor); candidate
    names must be unique.
    """

    axis: WeekAxis
    gold: Series
    candidates: tuple[Series, ...]

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))
        for s in (self.gold, *self.candidates):
            if len(s) != self.axis.length:
                raise ValueError(
                    f"series {s.name!r} has {len(s)} values but axis length is "
                    f"{self.axis.length}"
                )
        names = [s.name for s in self.candidates]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValueError(f"duplicate series name: {sorted(dupes)[0]!r}")
        for s in self.candidates:
            if s.name == self.gold.name and not np.array_equal(s.values, self.gold.values):
                raise ValueError(f"candidate {s.name!r} has the gold series' name "
                                 "but other values")

    @property
    def n_weeks(self) -> int:
        return self.axis.length

    def candidate_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.candidates)

    def candidate(self, name: str) -> Series:
        for s in self.candidates:
            if s.name == name:
                return s
        raise KeyError(f"no candidate series named {name!r}")

    def candidate_matrix(self, names) -> np.ndarray:
        """Stack the named candidates' values into an (n_weeks, d) observation matrix."""
        return np.column_stack([self.candidate(n).values for n in names])

    def with_gold_candidate(self) -> "AlignedPanel":
        """Return a panel whose candidates include the gold series itself."""
        if self.gold.name in self.candidate_names():
            return self
        return AlignedPanel(self.axis, self.gold, self.candidates + (self.gold,))


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _read_series_csv(path: Path) -> tuple[int, np.ndarray]:
    """Read one series file; return (first week index, values).

    Enforces the file contract: header ``week,value``, ISO week labels,
    decimal values, no duplicate weeks and no gaps. A plain file of
    consecutive weeks in order is parsed in one pass over its bytes; every
    other file, valid or not, is read row by row, and that reader builds
    every error.
    """
    parsed = _read_in_order(path)
    return parsed if parsed is not None else _read_series_rows(path)


_LF_TO_COMMA = bytes.maketrans(b"\n", b",")


def _read_in_order(path: Path) -> tuple[int, np.ndarray] | None:
    """One pass over the bytes of a plain in-order series file.

    The file is taken when it is ASCII with no quote, its lines end all in
    LF or all in CRLF (the last line may have no end), it has the
    ``week,value`` header, and each row is the canonical ``YYYY-Www`` label
    of the next ISO week, a comma at column 8 and a finite float. Returns
    None for any other file, so that ``_read_series_rows`` decides it. What
    is accepted here reads the same there: ASCII decodes alike in every
    ASCII-compatible encoding, and ``float`` of bytes accepts only ASCII and
    strips only ASCII whitespace, which ``str.strip`` strips too.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    head = data.find(b"\n")
    if head < 0 or not data.isascii() or b'"' in data:
        return None
    if [c.strip().lower() for c in data[:head].split(b",")] != [b"week", b"value"]:
        return None
    raw = np.frombuffer(data, np.uint8)
    ends, crs = np.flatnonzero(raw == ord("\n")), np.flatnonzero(raw == ord("\r"))
    commas = np.flatnonzero(raw == ord(","))[1:]  # past the header's one comma
    n = len(commas)  # rows, when each holds one comma at column 8
    if (not n or len(ends) != n + data.endswith(b"\n")
            or len(crs) and not np.array_equal(crs, ends - 1)
            or not np.array_equal(commas, ends[:n] + 9)):
        return None
    limit = csv.field_size_limit()
    if len(data) > limit and np.diff(ends, prepend=-1, append=len(data)).max() > limit:
        return None  # a line that may hold a field too long for the csv module
    del raw
    parts = data.translate(_LF_TO_COMMA, b"\r").split(b",")
    del data  # the file's bytes, freed before the values are parsed
    try:
        first = week_to_index(parts[2].decode())
        if tuple(parts[2 : 2 * n + 2 : 2]) != _label_bytes(first, n):
            return None
        values = np.fromiter(map(float, parts[3 : 2 * n + 2 : 2]), float, n)
    except (ParseError, ValueError):  # a bad label or value, or weeks past year 9999
        return None
    if not np.isfinite(values).all():
        return None
    return first, values


@functools.lru_cache(maxsize=32)
def _label_bytes(first: int, length: int) -> tuple[bytes, ...]:
    """The ASCII bytes of each of ``length`` week labels from index ``first``."""
    return tuple(label.encode() for label in week_labels(first, length))


def _read_series_rows(path: Path) -> tuple[int, np.ndarray]:
    """Row-by-row reader behind ``_read_series_csv``: accepts rows in any
    order, blank lines and quoted fields, and builds every error."""
    rows: list[tuple[int, float]] = []
    with open(path, newline="") as fh:
        reader = _records(path, fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header] != ["week", "value"]:
            raise ParseError(f"{path}: line 1: expected header 'week,value'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ParseError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            week_label, value_text = row[0].strip(), row[1].strip()
            try:
                idx = week_to_index(week_label)
            except ParseError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
            if not value_text:
                raise MissingDataError(f"{path}: line {lineno}: missing value for week {week_label}")
            try:
                value = float(value_text)
            except ValueError:
                raise ParseError(
                    f"{path}: line {lineno}: bad value {value_text!r}"
                ) from None
            if not math.isfinite(value):
                raise MissingDataError(f"{path}: line {lineno}: non-finite value for week {week_label}")
            rows.append((idx, value))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    rows.sort(key=lambda r: r[0])
    indices = [r[0] for r in rows]
    for prev, cur in zip(indices, indices[1:]):
        if cur == prev:
            raise DuplicateWeekError(f"{path}: duplicate week {index_to_week(cur)}")
        if cur != prev + 1:
            raise MissingDataError(f"{path}: missing week {index_to_week(prev + 1)}")
    return indices[0], np.array([r[1] for r in rows], dtype=float)


def _records(path: Path, fh) -> Iterator[list[str]]:
    """The csv records of the open file ``fh``; one the csv module rejects (a
    field over ``csv.field_size_limit()``, or a NUL byte before Python 3.11)
    raises ``ParseError`` naming the path and line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None


def load_panel(gold_file, candidate_files) -> AlignedPanel:
    """Load a panel from per-series CSV files, trimmed to the common week range.

    The file stem is the series name; series order follows the input order.
    Raises AlignmentError when the common overlap is shorter than 3 weeks.
    """
    paths = [Path(gold_file)] + [Path(p) for p in candidate_files]
    loaded = []
    for p in paths:
        first, values = _read_series_csv(p)
        loaded.append((p.stem, first, values))

    lo = max(first for _, first, _ in loaded)
    hi = min(first + len(values) - 1 for _, first, values in loaded)
    if hi - lo + 1 < 3:
        ranges = ", ".join(
            f"{name}: {index_to_week(first)}..{index_to_week(first + len(v) - 1)}"
            for name, first, v in loaded
        )
        raise AlignmentError(f"common overlap shorter than 3 weeks ({ranges})")

    axis = WeekAxis(start=index_to_week(lo), length=hi - lo + 1)
    trimmed = [
        Series(name=name, values=values[lo - first : hi - first + 1])
        for name, first, values in loaded
    ]
    return AlignedPanel(axis=axis, gold=trimmed[0], candidates=tuple(trimmed[1:]))


# ---------------------------------------------------------------------------
# Flat key-value files (panel manifests; also reused for experiment configs)
# ---------------------------------------------------------------------------

def read_kv_file(path) -> list[tuple[str, str]]:
    """Parse a flat ``key = value`` text file, preserving key order and repeats."""
    pairs: list[tuple[str, str]] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"{path}: line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            pairs.append((key.strip(), value.strip()))
    return pairs


def read_manifest(path) -> tuple[Path, list[Path]]:
    """Read a panel manifest: one ``gold`` path and ordered ``candidate`` paths.

    Relative paths are resolved against the manifest's directory.
    """
    path = Path(path)
    base = path.parent
    gold = None
    candidates: list[Path] = []
    for key, value in read_kv_file(path):
        if key == "gold":
            if gold is not None:
                raise ParseError(f"{path}: repeated 'gold' entry")
            gold = base / value
        elif key == "candidate":
            candidates.append(base / value)
        else:
            raise ParseError(f"{path}: unknown manifest key {key!r}")
    if gold is None:
        raise ParseError(f"{path}: manifest is missing the 'gold' entry")
    if not candidates:
        raise ParseError(f"{path}: manifest lists no candidate series")
    return gold, candidates


def load_panel_from_manifest(path) -> AlignedPanel:
    gold, candidates = read_manifest(path)
    return load_panel(gold, candidates)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write an output table, ``header`` then ``rows``, in the default ``csv``
    dialect (CRLF line ends); callers format floats with ``repr`` to round-trip."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_series_csv(series: Series, axis: WeekAxis, path) -> None:
    """Write one series under the CSV contract (``repr`` floats round-trip)."""
    write_csv(path, ["week", "value"],
              zip(axis.labels(), map(repr, series.values.tolist()), strict=True))


def write_panel(panel: AlignedPanel, out_dir) -> Path:
    """Write a panel as per-series CSVs plus a manifest; return the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_series_csv(panel.gold, panel.axis, out / f"{panel.gold.name}.csv")
    lines = [f"gold = {panel.gold.name}.csv"]
    for s in panel.candidates:
        write_series_csv(s, panel.axis, out / f"{s.name}.csv")
        lines.append(f"candidate = {s.name}.csv")
    manifest = out / "panel.manifest"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


# ---------------------------------------------------------------------------
# Synthetic panels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticPanelSpec:
    """Recipe for a seasonal bump-train panel used in self-contained tests.

    Each season carries one smooth raised-cosine pulse from ``baseline_level``
    up to ``baseline_level + peak_height`` and back, with the peak week
    jittered per season. Predictors copy the gold signal shifted
    ``predictor_lead`` weeks earlier, plus independent bounded noise,
    truncated below at zero. With ``noise_scale == 0`` the gold series
    crosses any threshold strictly inside (baseline, baseline + peak)
    exactly once upward per season.
    """

    seasons: int = 6
    weeks_per_season: int = 52
    baseline_level: float = 0.8
    peak_height: float = 4.0
    peak_week_jitter: int = 2
    noise_scale: float = 0.05
    predictor_count: int = 5
    predictor_lead: int = 3
    rng_seed: int = 7
    start_week: str = "2010-W01"

    def __post_init__(self):
        if self.seasons < 1:
            raise ValueError("seasons must be >= 1")
        if self.predictor_count < 1:
            raise ValueError("predictor_count must be >= 1")
        if self.peak_height <= 0:
            raise ValueError("peak_height must be > 0")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be >= 0")
        if self.predictor_lead < 0:
            raise ValueError("predictor_lead must be >= 0")
        if self.weeks_per_season < 8:
            raise ValueError("weeks_per_season must be >= 8")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        try:
            week_to_index(self.start_week)
        except ParseError as exc:
            raise ValueError(f"start_week: {exc}") from None
        half_width = self.pulse_half_width
        max_jitter = self.weeks_per_season // 2 - half_width - 1
        if not 0 <= self.peak_week_jitter <= max_jitter:
            raise ValueError(
                f"peak_week_jitter must be in [0, {max_jitter}] for "
                f"{self.weeks_per_season}-week seasons"
            )

    @property
    def pulse_half_width(self) -> int:
        return max(2, self.weeks_per_season // 4)


def generate_synthetic(spec: SyntheticPanelSpec) -> AlignedPanel:
    """Generate a deterministic seasonal panel from ``spec``.

    The RNG stream is consumed in a fixed order (jitters, gold noise, then
    per-predictor noise) so identical seeds give bit-identical panels.
    """
    W = spec.weeks_per_season
    H = spec.pulse_half_width
    n = spec.seasons * W
    # extend past the panel so leading predictors can look ahead of the last week
    ext = n + spec.predictor_lead
    n_seasons_ext = -(-ext // W)

    rng = np.random.default_rng(spec.rng_seed)
    jitters = rng.integers(-spec.peak_week_jitter, spec.peak_week_jitter + 1, size=n_seasons_ext)

    t = np.arange(ext, dtype=float)
    signal = np.full(ext, spec.baseline_level, dtype=float)
    for s in range(n_seasons_ext):
        center = s * W + W // 2 + int(jitters[s])
        z = (t - center) / H
        mask = np.abs(z) <= 1.0
        signal[mask] += spec.peak_height * 0.5 * (1.0 + np.cos(np.pi * z[mask]))

    gold_ext = signal + rng.uniform(-1.0, 1.0, size=ext) * spec.noise_scale
    gold = Series(name="gold", values=gold_ext[:n].copy())

    candidates = []
    width = len(str(spec.predictor_count))
    for p in range(spec.predictor_count):
        noise = rng.uniform(-1.0, 1.0, size=n) * spec.noise_scale
        values = np.maximum(gold_ext[spec.predictor_lead : spec.predictor_lead + n] + noise, 0.0)
        candidates.append(Series(name=f"pred{p + 1:0{width}d}", values=values))

    axis = WeekAxis(start=spec.start_week, length=n)
    return AlignedPanel(axis=axis, gold=gold, candidates=tuple(candidates))
