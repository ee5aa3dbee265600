"""Simple comparison detectors: calendar-week trigger and consecutive-rise trigger.

The third comparison model (the gold series as its own sole MEWMA predictor)
is just the scan module with a one-series subset, so it has no code here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from . import evaluate
from .events import DetectionWindowSet, EventSet
from .mewma import AlarmTrace
from .panel import AlignedPanel
from .selection import FoldPlan


class AxisTooShortError(ValueError):
    """The panel's week axis spans less than the one year a week trigger needs."""


@dataclass(frozen=True)
class WeekTriggerConfig:
    """Alarm in the same ISO week of every year."""

    trigger_week: int
    grid: ClassVar[range] = range(1, 54)  # the weeks `evaluate` fits over

    def __post_init__(self):
        if not 1 <= self.trigger_week <= 53:
            raise ValueError(f"trigger_week must be in [1, 53], got {self.trigger_week}")

    param = property(lambda self: self.trigger_week)  # the grid-fit parameter

    def alarms(self, panel: AlignedPanel) -> AlarmTrace:
        return week_trigger(panel, self)


@dataclass(frozen=True)
class RiseTriggerConfig:
    """Alarm once the gold series has strictly risen for n consecutive weeks."""

    n_consecutive: int
    grid: ClassVar[range] = range(2, 21)  # the run lengths `evaluate` fits over

    def __post_init__(self):
        if self.n_consecutive < 2:
            raise ValueError(f"n_consecutive must be >= 2, got {self.n_consecutive}")

    param = property(lambda self: self.n_consecutive)  # the grid-fit parameter

    def alarms(self, panel: AlignedPanel) -> AlarmTrace:
        return rise_trigger(panel, self)


TRIGGERS = {"week": WeekTriggerConfig, "rise": RiseTriggerConfig}  # --baseline KIND:N


def week_trigger(panel: AlignedPanel, config: WeekTriggerConfig) -> AlarmTrace:
    """One alarm per year at the configured ISO week.

    The statistic trace is the 0/1 alarm indicator; isolated yearly alarms
    are their own cluster onsets.
    """
    n = panel.n_weeks
    if n < 52:
        raise AxisTooShortError("week trigger needs an axis spanning at least one year")
    alarm = panel.axis.iso_weeks == config.trigger_week
    return AlarmTrace.from_alarms(alarm.astype(float), alarm)


def rise_trigger(panel: AlignedPanel, config: RiseTriggerConfig) -> AlarmTrace:
    """Alarm at week t when the last n steps into t were all strict rises.

    Plateaus and dips reset the run count.
    """
    values = panel.gold.values
    n = config.n_consecutive
    rising = np.diff(values) > 0  # rising[i]: step from week i to i+1
    run = 0
    alarm = np.zeros(len(values), dtype=bool)
    for i, up in enumerate(rising):
        run = run + 1 if up else 0
        if run >= n:
            alarm[i + 1] = True
    return AlarmTrace.from_alarms(alarm.astype(float), alarm)


def baseline_trace(panel: AlignedPanel, kind: str, param: int) -> AlarmTrace:
    """Alarm trace of the trigger ``kind`` (a ``TRIGGERS`` key) with parameter ``param``."""
    if kind not in TRIGGERS:
        raise ValueError(f"unknown baseline kind {kind!r}")
    return TRIGGERS[kind](param).alarms(panel)


def fit_baseline(
    panel: AlignedPanel,
    events: EventSet,
    windows: DetectionWindowSet,
    grid: Sequence[int],
    kind: str,
    folds: FoldPlan,
):
    """Grid-fit a baseline's parameter by mean out-of-sample timeliness.

    For each grid value the detector is scored on every fold's held-out
    events and the fold scores averaged; the argmax wins, ties to the
    smaller parameter. Each fold scores every grid value's onsets in one
    ``evaluate.timeliness`` call. Returns the winning config.
    """
    if not grid:
        raise ValueError("parameter grid must be nonempty")
    params = sorted(set(int(p) for p in grid))
    onsets = evaluate.onset_columns(
        [baseline_trace(panel, kind, p).cluster_onsets for p in params], windows.n_weeks)
    fold_scores = [evaluate.timeliness(onsets, windows.select(fold.test_seasons))
                   for fold in folds.folds]
    best_param = None
    best_score = -np.inf
    for param, scores in zip(params, zip(*fold_scores)):
        score = float(np.mean(scores))
        if score > best_score:
            best_score = score
            best_param = param
    return TRIGGERS[kind](best_param)
