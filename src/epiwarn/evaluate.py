"""Scoring of alarm traces against events: timeliness, precision, recall.

The headline score averages, over events, how early the first in-window
cluster onset lands: 1 at the window start, 0.5 at the event start for the
default half-window lead, 0 when the window passes with no onset. Precision
and recall count cluster onsets, never raw alarm weeks.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .events import DetectionWindowSet, EventSet
from .mewma import AlarmTrace
from .panel import Series


def performance(trace: AlarmTrace, windows: DetectionWindowSet) -> float:
    """Mean timeliness over events: (1/N) sum(1 - dT_n / T_w).

    dT_n is the lag from window start to the first cluster onset inside
    window n, with dT_n = T_w when no onset falls inside the window.
    """
    if len(windows) == 0:
        raise ValueError("cannot score against an empty window set")
    onsets = trace.cluster_onsets
    t_w = windows.window_length
    total = 0.0
    for ws, we in windows.windows:
        inside = onsets[(onsets >= ws) & (onsets <= we)]
        dt = float(inside[0] - ws) if inside.size else float(t_w)
        total += 1.0 - dt / t_w
    return total / len(windows)


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


def score(
    trace: AlarmTrace,
    windows: DetectionWindowSet,
    *,
    onset_mask: np.ndarray | None = None,
) -> EvaluationReport:
    """Full evaluation of a trace against a window set.

    Onsets inside any window are true; onsets inside an event but after its
    window are "late-true" and dropped from the precision ratio entirely;
    everything else is false. With no onsets at all, precision is reported
    as 1 with the ``precision_undefined`` flag set so sweeps never divide by
    zero. ``onset_mask`` restricts which weeks' onsets are considered (e.g.
    held-out weeks only).
    """
    if len(windows) == 0:
        raise ValueError("cannot score against an empty window set")
    onsets = trace.cluster_onsets
    if onset_mask is not None:
        onsets = onsets[np.asarray(onset_mask, dtype=bool)[onsets]]

    t_w = windows.window_length
    delta_t: list[float] = []
    first_onsets: list[int | None] = []
    missed: list[int] = []
    for k, (ws, we) in enumerate(windows.windows):
        inside = onsets[(onsets >= ws) & (onsets <= we)]
        if inside.size:
            first_onsets.append(int(inside[0]))
            delta_t.append(float(inside[0] - ws))
        else:
            first_onsets.append(None)
            delta_t.append(float(t_w))
            missed.append(k)

    true_count = false_count = late_count = 0
    for w in onsets:
        in_window = any(ws <= w <= we for ws, we in windows.windows)
        if in_window:
            true_count += 1
            continue
        late = any(
            es <= w <= ee and w > we
            for (es, ee), (ws, we) in zip(windows.events, windows.windows)
        )
        if late:
            late_count += 1
        else:
            false_count += 1

    classified = true_count + false_count
    precision_undefined = classified == 0
    precision = 1.0 if precision_undefined else true_count / classified
    recall = (len(windows) - len(missed)) / len(windows)
    perf = sum(1.0 - dt / t_w for dt in delta_t) / len(windows)
    return EvaluationReport(
        performance=perf,
        delta_t=tuple(delta_t),
        onsets=tuple(first_onsets),
        precision=precision,
        recall=recall,
        missed_events=tuple(missed),
        true_onset_count=true_count,
        false_onset_count=false_count,
        late_onset_count=late_count,
        precision_undefined=precision_undefined,
    )


@dataclass(frozen=True)
class LeadReport:
    """Per-event advance warning relative to a reporting threshold."""

    leads: tuple[float | None, ...]
    crossed: tuple[bool, ...]
    missed_events: tuple[int, ...]

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
    onsets = trace.cluster_onsets
    leads: list[float | None] = []
    crossed: list[bool] = []
    missed: list[int] = []
    values = gold.values
    for k, ((es, ee), (ws, we)) in enumerate(zip(events.events, windows.windows)):
        hits = np.flatnonzero(values[es : ee + 1] >= reporting_threshold)
        if hits.size == 0:
            leads.append(None)
            crossed.append(False)
            continue
        crossed.append(True)
        cross_week = es + int(hits[0])
        inside = onsets[(onsets >= ws) & (onsets <= we)]
        if inside.size == 0:
            leads.append(None)
            missed.append(k)
            continue
        leads.append(float(cross_week - int(inside[0])))
    return LeadReport(leads=tuple(leads), crossed=tuple(crossed), missed_events=tuple(missed))


def write_event_report_csv(report: EvaluationReport, leads: LeadReport | None, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["event", "onset_week", "delta_t", "lead_weeks", "detected"])
        for k, (onset, dt) in enumerate(zip(report.onsets, report.delta_t)):
            lead = leads.leads[k] if leads is not None else None
            writer.writerow([
                k,
                "" if onset is None else onset,
                repr(dt),
                "" if lead is None else repr(lead),
                0 if onset is None else 1,
            ])


def write_summary_csv(report: EvaluationReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["performance", "precision", "recall"])
        writer.writerow([repr(report.performance), repr(report.precision), repr(report.recall)])
