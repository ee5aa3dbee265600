"""Outbreak events from the gold standard, and detection windows for scoring.

An event is a maximal run of gold-standard weeks at or above the event
threshold lasting at least the minimum duration. Each event gets one
detection window anchored ``lead`` weeks before its start; alarms are scored
by how early they land inside that window.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .panel import Series, WeekAxis, write_csv

log = logging.getLogger(__name__)

# week classification labels produced by DetectionWindowSet.classify()
BASELINE = 0
IN_WINDOW = 1
EVENT_AFTER_WINDOW = 2


class WindowOverlapError(ValueError):
    """Adjacent detection windows collide; the window length is too large."""


@dataclass(frozen=True)
class EventSet:
    """Disjoint (start, end) week-index pairs at or above the threshold."""

    threshold: float
    min_duration: int
    events: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "events", tuple((int(s), int(e)) for s, e in self.events))
        prev_end = -2
        for s, e in self.events:
            if e < s:
                raise ValueError(f"event ({s}, {e}) ends before it starts")
            if s <= prev_end:
                raise ValueError("events overlap or are unsorted")
            prev_end = e

    def __len__(self) -> int:
        return len(self.events)

    def event_mask(self, n_weeks: int) -> np.ndarray:
        """Boolean mask, True for weeks inside any event interval."""
        mask = np.zeros(n_weeks, dtype=bool)
        for s, e in self.events:
            mask[s : e + 1] = True
        return mask

    def baseline_mask(self, n_weeks: int) -> np.ndarray:
        """Weeks usable for null estimation: everything outside event intervals."""
        return ~self.event_mask(n_weeks)

    def select(self, indices) -> "EventSet":
        return EventSet(self.threshold, self.min_duration,
                        tuple(self.events[i] for i in indices))


def detect_events(gold: Series, threshold: float, min_duration: int = 3) -> EventSet:
    """Find maximal runs of ``gold >= threshold`` lasting >= ``min_duration`` weeks.

    A threshold outside the observed range of the gold series yields an empty
    event set with a logged warning rather than an error.
    """
    if min_duration < 1:
        raise ValueError("min_duration must be >= 1")
    values = gold.values
    if threshold < values.min() or threshold > values.max():
        log.warning(
            "event threshold %g outside observed gold range [%g, %g]; no events",
            threshold, values.min(), values.max(),
        )
        return EventSet(threshold, min_duration, ())

    above = values >= threshold
    padded = np.concatenate(([False], above, [False])).astype(int)
    starts = np.flatnonzero(np.diff(padded) == 1)
    ends = np.flatnonzero(np.diff(padded) == -1) - 1
    runs = [(int(s), int(e)) for s, e in zip(starts, ends) if e - s + 1 >= min_duration]
    return EventSet(threshold, min_duration, tuple(runs))


@dataclass(frozen=True)
class DetectionWindowSet:
    """One scoring window per event, nominally starting ``lead`` weeks early.

    ``flags[k]`` records departures from the nominal placement for window k:
    ``clipped_start``/``clipped_end`` at panel boundaries. ``events`` keeps
    the matching event spans so scoring can classify late alarms.
    """

    window_length: int
    lead: int
    windows: tuple[tuple[int, int], ...]
    flags: tuple[tuple[str, ...], ...]
    events: tuple[tuple[int, int], ...]
    n_weeks: int

    def __len__(self) -> int:
        return len(self.windows)

    def select(self, indices) -> "DetectionWindowSet":
        """Restrict to a subset of events (e.g. one cross-validation fold)."""
        idx = list(indices)
        return DetectionWindowSet(
            window_length=self.window_length,
            lead=self.lead,
            windows=tuple(self.windows[i] for i in idx),
            flags=tuple(self.flags[i] for i in idx),
            events=tuple(self.events[i] for i in idx),
            n_weeks=self.n_weeks,
        )

    def classify(self) -> np.ndarray:
        """Label every week: IN_WINDOW, EVENT_AFTER_WINDOW, or BASELINE.

        Window membership wins over event membership, so each week gets
        exactly one label.
        """
        labels = np.full(self.n_weeks, BASELINE, dtype=int)
        for (es, ee), (ws, we) in zip(self.events, self.windows):
            after = np.arange(max(we + 1, es), ee + 1)
            labels[after] = EVENT_AFTER_WINDOW
        for ws, we in self.windows:
            labels[ws : we + 1] = IN_WINDOW
        return labels


def build_windows(events: EventSet, window_length: int, lead: int | None,
                  gold: Series) -> DetectionWindowSet:
    """Construct detection windows of ``window_length`` weeks, one per event.

    The window starts ``lead`` weeks before the event start (None: half the
    window, so alarms at the window start are a half-window early). Windows
    running past the ends of the ``gold`` series' axis are clipped and flagged.
    """
    if window_length < 1:
        raise ValueError("window_length must be >= 1")
    if lead is None:
        lead = window_length // 2
    if lead < 0 or lead > window_length:
        raise ValueError("lead must be in [0, window_length]")

    n = len(gold)
    windows: list[tuple[int, int]] = []
    flags: list[tuple[str, ...]] = []
    prev_event_end = -1
    for k, (es, ee) in enumerate(events.events):
        wflags: list[str] = []
        ws = es - lead
        we = ws + window_length - 1
        if ws < 0:
            ws = 0
            wflags.append("clipped_start")
        if we > n - 1:
            we = n - 1
            wflags.append("clipped_end")
        if windows:
            if ws <= windows[-1][1]:
                raise WindowOverlapError(
                    f"window for event {k} (starting week {ws}) overlaps the previous "
                    f"window ending week {windows[-1][1]}; use a smaller window length"
                )
            if ws <= prev_event_end:
                raise WindowOverlapError(
                    f"window for event {k} (starting week {ws}) reaches into the previous "
                    f"event ending week {prev_event_end}; use a smaller window length"
                )
        windows.append((ws, we))
        flags.append(tuple(wflags))
        prev_event_end = ee

    return DetectionWindowSet(
        window_length=window_length,
        lead=lead,
        windows=tuple(windows),
        flags=tuple(flags),
        events=events.events,
        n_weeks=n,
    )


def write_events_csv(windows: DetectionWindowSet, axis: WeekAxis, path) -> None:
    """Serialize events with their windows, weeks as ISO labels."""
    write_csv(path, ["event_index", "start_week", "end_week", "window_start", "window_end"], (
        [k, axis.label(es), axis.label(ee), axis.label(ws), axis.label(we)]
        for k, ((es, ee), (ws, we)) in enumerate(zip(windows.events, windows.windows))
    ))
