"""Greedy forward feature selection under season-wise cross-validation.

Seasons are anchored to events (one event per season, boundaries midway
between consecutive events). Each fold holds out whole seasons; the null
model and the (lambda, h) pair are fit on training weeks only, and the
held-out events are scored out of sample. Replicate runs differ only in
their Monte-Carlo calibration seeds and are aggregated by median rank.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import calibrate, evaluate
from .events import DetectionWindowSet, EventSet
from .mewma import (AlarmTrace, SharedScanTable, alarm_mask, estimate_null, onset_mask,
                    precompute_shared_states)
from .panel import AlignedPanel, write_csv


class TooFewEventsError(ValueError):
    """Too few events to split the seasons into folds: fewer than two, or no
    more than a fold holds out, so that it keeps no season to train on."""


@dataclass(frozen=True)
class Fold:
    """Season indices used for training and testing in one fold."""

    train_seasons: tuple[int, ...]
    test_seasons: tuple[int, ...]


@dataclass(frozen=True)
class FoldPlan:
    """Event-anchored season spans plus the train/test split per fold."""

    seasons: tuple[tuple[int, int], ...]
    folds: tuple[Fold, ...]

    @property
    def n_folds(self) -> int:
        return len(self.folds)

    def season_mask(self, season_ids: Sequence[int], n_weeks: int) -> np.ndarray:
        mask = np.zeros(n_weeks, dtype=bool)
        for sid in season_ids:
            lo, hi = self.seasons[sid]
            mask[lo : hi + 1] = True
        return mask

    def train_mask(self, fold: int, n_weeks: int) -> np.ndarray:
        return self.season_mask(self.folds[fold].train_seasons, n_weeks)

    def test_mask(self, fold: int, n_weeks: int) -> np.ndarray:
        return self.season_mask(self.folds[fold].test_seasons, n_weeks)


def make_folds(events: EventSet, held_out: int, n_weeks: int) -> FoldPlan:
    """Partition the axis into one season per event and group seasons into folds.

    Season boundaries sit midway between consecutive events. With
    ``held_out`` seasons per fold, folds take consecutive seasons in order;
    the last fold absorbs any remainder. Training seasons are the complement
    of the held-out seasons. Raises ``TooFewEventsError`` where the events
    cannot leave a training season.
    """
    K = len(events)
    if K < 2:
        raise TooFewEventsError(
            f"found {K} event(s) at epsilon {events.threshold} with min_duration "
            f"{events.min_duration}; cross-validation needs at least 2"
        )
    if held_out < 1:
        raise ValueError(f"held-out count must be >= 1, got {held_out}")
    if held_out >= K:
        raise TooFewEventsError(
            f"held-out count must be in [1, {K - 1}] for {K} events, got {held_out}"
        )
    cuts = [0]
    for (s0, e0), (s1, _) in zip(events.events, events.events[1:]):
        cuts.append((e0 + s1 + 1) // 2)
    cuts.append(n_weeks)
    seasons = tuple((cuts[k], cuts[k + 1] - 1) for k in range(K))

    n_folds = -(-K // held_out)
    folds = []
    for f in range(n_folds):
        test = tuple(k for k in range(K) if min(k // held_out, n_folds - 1) == f)
        train = tuple(k for k in range(K) if k not in test)
        folds.append(Fold(train_seasons=train, test_seasons=test))
    return FoldPlan(seasons=seasons, folds=tuple(folds))


@dataclass(frozen=True, eq=False)
class FoldContext:
    """Everything one fold needs to score subsets: its masks, its windows, and the
    shared scan states of its training null (``table.null``) over the lambda
    grid (``table.lambdas``), which calibrate every subset the fold fits."""

    fold: int
    train_mask: np.ndarray
    test_mask: np.ndarray
    train_windows: DetectionWindowSet
    test_windows: DetectionWindowSet
    table: SharedScanTable
    baseline_weeks: np.ndarray


def prepare_fold_contexts(
    panel: AlignedPanel,
    events: EventSet,
    windows: DetectionWindowSet,
    folds: FoldPlan,
    lambda_grid: Sequence[float],
    *,
    candidates: Sequence[str] | None = None,
) -> list[FoldContext]:
    """Estimate per-fold training nulls and precompute shared scan states."""
    names = tuple(candidates) if candidates is not None else panel.candidate_names()
    n = panel.n_weeks
    contexts = []
    for f in range(folds.n_folds):
        train = folds.train_mask(f, n)
        test = folds.test_mask(f, n)
        null = estimate_null(panel, events, names, week_mask=train)
        table = precompute_shared_states(panel, null, lambda_grid)
        base = events.baseline_mask(n) & train
        contexts.append(
            FoldContext(
                fold=f,
                train_mask=train,
                test_mask=test,
                train_windows=windows.select(folds.folds[f].train_seasons),
                test_windows=windows.select(folds.folds[f].test_seasons),
                table=table,
                baseline_weeks=np.flatnonzero(base),
            )
        )
    return contexts


@dataclass(frozen=True, eq=False)
class FoldFit:
    """One fold's calibrated detector: the subset, its chosen (lambda, h), and
    its timeliness on the fold's held-out windows."""

    context: FoldContext
    subset: tuple[str, ...]
    point: calibrate.ConstraintCurvePoint
    held_out: float

    def scan(self) -> AlarmTrace:
        """The detector's scan over the whole panel."""
        return self.context.table.scan(self.point.lam, self.subset, self.point.h)


@dataclass
class AuditLog:
    """The fold fits a run made, in order (``FoldFit``): each one's context
    holds the masks and baseline weeks its fold used."""

    entries: list[FoldFit] = field(default_factory=list)


def fit_folds(
    prefix: Sequence[str],
    candidates: Sequence[str],
    contexts: Sequence[FoldContext],
    phi: float,
    *,
    sims: int,
    seed,
    audit: AuditLog | None = None,
) -> list[list[FoldFit]]:
    """Calibrate every subset prefix + (c,) on each fold's training weeks.

    Returns each candidate's fold fits, in fold order. Fold f picks (lambda,
    h) for every candidate on its table alone (``FoldContext.table``: the
    training null and the lambda grid), scored over its training windows,
    under the ATFS target ``phi``, seeding every lambda's calibration with
    ``(*seed, f)``, where an integer seed counts as ``(seed,)``: one loop
    calibrates all candidates at all lambdas from one draw of null normals
    (``calibrate.optimize_step``), and each fold draws its own. Each
    candidate's ``calibrate.StepFit`` gives its chosen point and that
    point's scan statistic over the whole panel; the fold's statistics are
    stacked, alarmed at their thresholds and scored on its held-out windows
    together, in one ``evaluate.timeliness`` call, and not kept, so a step
    holds the scans of one fold at a time. The fits themselves are appended
    to ``audit``'s entries if given, candidate by candidate.
    """
    prefix, candidates = tuple(prefix), tuple(candidates)
    fits: list[list[FoldFit]] = [[] for _ in candidates]
    for ctx in contexts:
        step = calibrate.optimize_step(
            ctx.table, ctx.train_windows, prefix, candidates, phi,
            sims=sims, seed=(*calibrate._seed(seed), ctx.fold),
        )
        E = np.column_stack([fit.E for fit in step])
        alarms = alarm_mask(E, [fit.point.h for fit in step])
        held_out = evaluate.timeliness(onset_mask(alarms), ctx.test_windows)
        for cand, fit, score, cand_fits in zip(candidates, step, held_out, fits):
            cand_fits.append(FoldFit(ctx, prefix + (cand,), fit.point, score))
    if audit is not None:
        audit.entries.extend(fit for cand_fits in fits for fit in cand_fits)
    return fits


def score_subset(
    subset: Sequence[str],
    contexts: Sequence[FoldContext],
    phi: float,
    *,
    sims: int,
    seed,
    audit: AuditLog | None = None,
) -> float:
    """Mean out-of-sample timeliness of a predictor subset across the folds of
    ``contexts``.

    Per fold: the null model and the (lambda, h) pair come from training
    weeks only, on the fold's table and lambda grid; the chosen detector's
    trace is then scored on the held-out events' windows, and the fold's fit
    joins ``audit`` (``fit_folds`` for the one extension ``subset[:-1] +
    subset[-1:]``).
    """
    subset = tuple(subset)
    if not subset:
        raise ValueError("predictor subset must be nonempty")
    fits = fit_folds(subset[:-1], subset[-1:], contexts, phi, sims=sims, seed=seed,
                     audit=audit)[0]
    return float(np.mean([fit.held_out for fit in fits]))


@dataclass(frozen=True)
class SelectionStep:
    """One greedy step: the chosen predictor and every candidate's score."""

    chosen: str
    score: float
    candidate_scores: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class SelectionTrace:
    steps: tuple[SelectionStep, ...]
    stop_reason: str  # "reached-k" | "performance-leveled-off"

    def selected(self) -> tuple[str, ...]:
        return tuple(s.chosen for s in self.steps)


def forward_select(
    contexts: Sequence[FoldContext],
    k_max: int,
    phi: float,
    *,
    sims: int,
    seed,
    min_improvement: float = 0.0,
) -> SelectionTrace:
    """Greedy forward selection: repeatedly add the candidate that most
    improves the cross-validated score over the folds of ``contexts``.

    The candidate pool is the predictors of the contexts' training nulls
    (``table.null.predictor_names``), in that order; a caller narrows it by
    building the contexts over fewer candidates. The first step always
    picks the best singleton; afterwards selection stops at ``k_max``
    predictors or when the best marginal improvement is <=
    ``min_improvement``. Ties go to the earlier candidate. Each step fits
    all remaining candidates at once (``fit_folds``), so per fold the step's
    null normals are drawn once, for every lambda, and every candidate
    applies its own Cholesky factor to them. A candidate scores the mean of
    its folds' held-out timeliness.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    chosen: list[str] = []
    steps: list[SelectionStep] = []
    remaining = list(contexts[0].table.null.predictor_names)
    current_score: float | None = None
    stop_reason = "reached-k"
    while remaining and len(chosen) < k_max:
        fits = fit_folds(chosen, remaining, contexts, phi, sims=sims, seed=seed)
        scored = [
            (cand, float(np.mean([fit.held_out for fit in cand_fits])))
            for cand, cand_fits in zip(remaining, fits)
        ]
        best_cand, best_score = max(scored, key=lambda cs: cs[1])
        if current_score is not None and best_score - current_score <= min_improvement:
            stop_reason = "performance-leveled-off"
            break
        steps.append(
            SelectionStep(chosen=best_cand, score=best_score, candidate_scores=tuple(scored))
        )
        chosen.append(best_cand)
        remaining.remove(best_cand)
        current_score = best_score
    return SelectionTrace(steps=tuple(steps), stop_reason=stop_reason)


@dataclass(frozen=True)
class ReplicateAggregate:
    """Median-rank ordering of predictors across replicate selection runs."""

    traces: tuple[SelectionTrace, ...]
    ranking: tuple[tuple[str, float, int], ...]  # (name, median rank, times selected)

    def selected(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.ranking)


def aggregate_replicates(traces: Sequence[SelectionTrace], k_max: int) -> ReplicateAggregate:
    """Order predictors by the median of their selection ranks over replicates.

    A predictor's rank in a replicate is its (1-based) selection position, or
    k_max + 1 when it was not selected there. Ties break by selection
    frequency (more is better), then name. Predictors never selected in any
    replicate are omitted.
    """
    if not traces:
        raise ValueError("need at least one selection trace")
    names = sorted({s.chosen for t in traces for s in t.steps})
    absent_rank = k_max + 1
    ranking = []
    for name in names:
        ranks = []
        freq = 0
        for t in traces:
            sel = t.selected()
            if name in sel:
                ranks.append(sel.index(name) + 1)
                freq += 1
            else:
                ranks.append(absent_rank)
        ranking.append((name, float(statistics.median(ranks)), freq))
    ranking.sort(key=lambda r: (r[1], -r[2], r[0]))
    return ReplicateAggregate(traces=tuple(traces), ranking=tuple(ranking))


def audit_leakage(folds: FoldPlan, n_weeks: int, audit: AuditLog) -> list[str]:
    """Check the recorded fits for held-out-week leakage.

    Returns a list of violation descriptions (empty means clean). Each fit's
    fold context is read: the null estimation's baseline weeks must not
    touch held-out weeks, the training mask must exclude every
    held-out-season week, and the two masks must agree with the fold plan
    recomputed from scratch.
    """
    problems = []
    for ctx in (fit.context for fit in audit.entries):
        f = ctx.fold
        expected_test = folds.test_mask(f, n_weeks)
        expected_train = folds.train_mask(f, n_weeks)
        if not np.array_equal(ctx.test_mask, expected_test):
            problems.append(f"fold {f}: recorded test mask differs from fold plan")
        if not np.array_equal(ctx.train_mask, expected_train):
            problems.append(f"fold {f}: recorded train mask differs from fold plan")
        held_out = np.flatnonzero(expected_test)
        overlap = np.intersect1d(ctx.baseline_weeks, held_out)
        if overlap.size:
            problems.append(
                f"fold {f}: null estimation used held-out weeks {overlap[:5].tolist()}"
            )
        if np.any(ctx.train_mask & expected_test):
            problems.append(f"fold {f}: training mask includes held-out weeks")
    return problems


def write_traces_csv(traces: Sequence[SelectionTrace], path) -> None:
    """Write one row per replicate and greedy step: the chosen predictor and its score."""
    write_csv(path, ["replicate", "step", "chosen", "score"], (
        [r, i, step.chosen, repr(step.score)]
        for r, trace in enumerate(traces)
        for i, step in enumerate(trace.steps, start=1)
    ))


def write_aggregate_csv(aggregate: ReplicateAggregate, path) -> None:
    """Write the median-rank ranking, one row per predictor."""
    write_csv(path, ["predictor", "median_rank", "frequency"], (
        [name, repr(median_rank), freq] for name, median_rank, freq in aggregate.ranking
    ))
