"""Scoring of alarm traces against events: timeliness, precision, recall.

The headline score averages, over events, how early the first in-window
cluster onset lands: 1 at the window start, 0.5 at the event start for the
default half-window lead, 0 when the window passes with no onset. Precision
and recall count cluster onsets, never raw alarm weeks. A cluster onset is
an alarm week after a quiet week, and ``mewma.onset_mask`` is that rule for
every detector: the scan, whose weeks alarm where E > h
(``mewma.alarm_mask``), and the calendar and rise triggers.

Timeliness is scored in batches: ``timeliness`` takes an (n_weeks, C) mask
of cluster onsets, one column per detector, finds every window's first
in-window onset for all columns at once, and sums each column's terms in
window order with Python's ``sum``. ``performance``, ``first_onsets`` and
``score`` read one trace as its one-column case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .events import BASELINE, EVENT_AFTER_WINDOW, IN_WINDOW, DetectionWindowSet, EventSet
from .mewma import AlarmTrace
from .panel import Series, write_csv


def onset_columns(weeks: Sequence[np.ndarray], n_weeks: int) -> np.ndarray:
    """The (n_weeks, C) onset mask of C detectors' cluster onset weeks (each
    trace's ``cluster_onsets``), one column each."""
    onsets = np.zeros((n_weeks, len(weeks)), dtype=bool)
    for column, onset_weeks in zip(onsets.T, weeks):
        column[onset_weeks] = True
    return onsets


def _first_onsets(onsets: np.ndarray, windows: DetectionWindowSet) -> np.ndarray:
    """Each window's first onset inside it for every column of an (n_weeks, C)
    onset mask, as (n_windows, C) weeks, -1 where it has none; the windows
    lie inside the mask's weeks, as ``build_windows`` places them. Column
    c's onset at week t is c n_weeks + t in one ascending array, so one
    binary search finds every window's first onset at or after its start."""
    n, width = onsets.shape
    flat = np.flatnonzero(onsets.T)
    base = np.arange(0, n * width, n)
    starts, ends = np.array(windows.windows, dtype=int).reshape(-1, 2, 1).transpose(1, 0, 2)
    firsts = np.append(flat, n * width)[np.searchsorted(flat, base + starts)] - base
    return np.where(firsts <= ends, firsts, -1)


def first_onsets(trace: AlarmTrace, windows: DetectionWindowSet) -> list[int | None]:
    """Each window's first cluster onset inside it, or None when it has none."""
    firsts = _first_onsets(onset_columns([trace.cluster_onsets], windows.n_weeks), windows)
    return [None if week < 0 else week for week in firsts[:, 0].tolist()]


def _delta_t(firsts: np.ndarray, windows: DetectionWindowSet) -> np.ndarray:
    """Lag from each window start to its first onset (``_first_onsets``'s
    weeks, -1 for none), as floats; T_w when it has none."""
    starts = np.array(windows.windows, dtype=int).reshape(-1, 2)[:, :1]
    return np.where(firsts < 0, float(windows.window_length), firsts - starts)


def _timeliness(delta_t: np.ndarray, t_w: int) -> list[float]:
    """Each column's mean of 1 - dT / T_w over its (n_windows, C) lags, the
    terms summed in window order by Python's ``sum``."""
    if not len(delta_t):
        raise ValueError("cannot score against an empty window set")
    return [sum(terms) / len(terms) for terms in (1.0 - delta_t / t_w).T.tolist()]


def timeliness(onsets: np.ndarray, windows: DetectionWindowSet) -> list[float]:
    """Each column's ``performance`` for an (n_weeks, C) cluster-onset mask
    (``mewma.onset_mask``, ``onset_columns``): all columns scored at once."""
    return _timeliness(_delta_t(_first_onsets(onsets, windows), windows), windows.window_length)


def performance(trace: AlarmTrace, windows: DetectionWindowSet) -> float:
    """Mean timeliness over events: (1/N) sum(1 - dT_n / T_w).

    dT_n is the lag from window start to the first cluster onset inside
    window n, with dT_n = T_w when no onset falls inside the window. The
    one-column ``timeliness``.
    """
    [score] = timeliness(onset_columns([trace.cluster_onsets], windows.n_weeks), windows)
    return score


@dataclass(frozen=True)
class EvaluationReport:
    """Timeliness plus onset classification for one trace against one window set."""

    performance: float
    delta_t: tuple[float, ...]
    onsets: tuple[int | None, ...]
    precision: float
    recall: float
    missed_events: tuple[int, ...]
    true_onset_count: int
    false_onset_count: int
    late_onset_count: int
    precision_undefined: bool

    @classmethod
    def from_onsets(
        cls, onsets, windows: DetectionWindowSet, true_n: int, false_n: int, late_n: int
    ) -> "EvaluationReport":
        """The report for each window's first in-window onset (None when it has
        none) and the counts of true, false and late onsets.

        Late onsets are left out of precision. With no true or false onset at
        all, precision is reported as 1 with ``precision_undefined`` set, so
        sweeps never divide by zero.
        """
        firsts = np.array([-1 if onset is None else onset for onset in onsets], dtype=int)
        delta_t = _delta_t(firsts.reshape(-1, 1), windows)
        missed = tuple(k for k, onset in enumerate(onsets) if onset is None)
        classified = true_n + false_n
        return cls(
            performance=_timeliness(delta_t, windows.window_length)[0],
            delta_t=tuple(delta_t[:, 0].tolist()),
            onsets=tuple(onsets),
            precision=true_n / classified if classified else 1.0,
            recall=(len(windows) - len(missed)) / len(windows),
            missed_events=missed,
            true_onset_count=true_n,
            false_onset_count=false_n,
            late_onset_count=late_n,
            precision_undefined=classified == 0,
        )


def score(trace: AlarmTrace, windows: DetectionWindowSet) -> EvaluationReport:
    """Full evaluation of a trace against a window set.

    Onsets inside any window are true; onsets inside an event but after its
    window are late and left out of precision; everything else is false
    (``DetectionWindowSet.classify``).
    """
    counts = np.bincount(windows.classify()[trace.cluster_onsets], minlength=3).tolist()
    return EvaluationReport.from_onsets(
        first_onsets(trace, windows), windows,
        counts[IN_WINDOW], counts[BASELINE], counts[EVENT_AFTER_WINDOW],
    )


@dataclass(frozen=True)
class LeadReport:
    """Per-event advance warning relative to a reporting threshold."""

    leads: tuple[float | None, ...]
    crossed: tuple[bool, ...]

    @property
    def missed_events(self) -> tuple[int, ...]:
        """Events that reached the reporting threshold with no in-window onset."""
        return tuple(
            k for k, (lead, crossed) in enumerate(zip(self.leads, self.crossed))
            if crossed and lead is None
        )

    @property
    def mean_lead(self) -> float | None:
        defined = [l for l in self.leads if l is not None]
        return sum(defined) / len(defined) if defined else None


def lead_vs_threshold(
    trace: AlarmTrace,
    gold: Series,
    reporting_threshold: float,
    events: EventSet,
    windows: DetectionWindowSet,
) -> LeadReport:
    """Weeks between each event's first in-window onset and the gold series
    reaching the reporting threshold inside that event.

    Events that never reach the reporting threshold are excluded (lead None,
    ``crossed`` False); events with no in-window onset are listed as missed.
    """
    if reporting_threshold < events.threshold:
        raise ValueError(
            f"reporting threshold {reporting_threshold} below event threshold "
            f"{events.threshold}"
        )
    leads: list[float | None] = []
    crossed: list[bool] = []
    for (es, ee), onset in zip(events.events, first_onsets(trace, windows)):
        hits = np.flatnonzero(gold.values[es : ee + 1] >= reporting_threshold)
        crossed.append(bool(hits.size))
        leads.append(None if onset is None or not hits.size else float(es + int(hits[0]) - onset))
    return LeadReport(leads=tuple(leads), crossed=tuple(crossed))


def write_event_report_csv(report: EvaluationReport, leads: LeadReport | None, path) -> None:
    """Write one row per event: first in-window onset, delta t, lead and detected flag."""
    write_csv(path, ["event", "onset_week", "delta_t", "lead_weeks", "detected"], (
        [k, "" if onset is None else onset, repr(dt),
         "" if leads is None or leads.leads[k] is None else repr(leads.leads[k]),
         0 if onset is None else 1]
        for k, (onset, dt) in enumerate(zip(report.onsets, report.delta_t))
    ))


def write_summary_csv(report: EvaluationReport, path) -> None:
    """Write the report's performance, precision and recall as one row."""
    write_csv(path, ["performance", "precision", "recall"],
              [[repr(report.performance), repr(report.precision), repr(report.recall)]])
