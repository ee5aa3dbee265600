"""End-to-end orchestration: select predictors, then evaluate detectors out of sample.

The two-stage protocol selects predictor combinations under one fold plan
(by default one season held out per fold) and compares finished models under
a coarser plan (two seasons held out), both made by ``Experiment``. Out-of-sample
results are pooled over folds so every event is scored exactly once, by the fold
that held it out. The sweep harness reruns the whole protocol along one config axis.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import calibrate, evaluate
from .baselines import TRIGGERS, fit_baseline
from .config import ExperimentConfig
from .events import DetectionWindowSet, EventSet, build_windows, detect_events
from .mewma import AlarmTrace
from .panel import AlignedPanel
from .selection import (
    AuditLog,
    Fold,
    FoldPlan,
    SelectionStep,
    SelectionTrace,
    aggregate_replicates,
    fit_folds,
    forward_select,
    make_folds,
    prepare_fold_contexts,
)

MODELS = ("optimized", *(f"{kind}-trigger" for kind in TRIGGERS), "univariate-gold")
SWEEP_AXES = ("epsilon", "window", "atfs", "train")
SWEEP_FIELDS = ("axis", "value", "epsilon", "window", "phi",
                "selected", "performance", "precision", "recall", "error")


@dataclass(frozen=True)
class ModelEvaluation:
    """Pooled out-of-sample evaluation of one detector across folds."""

    name: str
    parameter: str
    report: evaluate.EvaluationReport
    leads: evaluate.LeadReport | None
    fold_params: tuple = ()


@dataclass(frozen=True)
class PipelineResult:
    """Replicate selection traces and the pooled evaluation of the chosen subset."""

    subset: tuple[str, ...]
    traces: tuple[SelectionTrace, ...]
    model: ModelEvaluation


def _restrict_trace(trace: AlarmTrace, mask: np.ndarray) -> AlarmTrace:
    """The trace with only the alarms and onsets in weeks where ``mask`` holds."""
    return AlarmTrace(
        E=trace.E,
        alarm_weeks=trace.alarm_weeks[mask[trace.alarm_weeks]],
        cluster_onsets=trace.cluster_onsets[mask[trace.cluster_onsets]],
        S=trace.S,
    )


def pooled_cv_report(
    panel: AlignedPanel,
    events: EventSet,
    windows: DetectionWindowSet,
    folds: FoldPlan,
    traces_per_fold: Sequence[AlarmTrace],
    reporting_threshold: float | None = None,
) -> tuple[evaluate.EvaluationReport, evaluate.LeadReport | None]:
    """Pool per-fold out-of-sample scores into one report.

    Each fold's trace is evaluated only on that fold's held-out weeks and
    events; timeliness entries are keyed back to global event order, onset
    classifications and leads are summed across folds. Events no fold holds
    out (possible with custom train/gap plans) are not scored at all.
    """
    n = panel.n_weeks
    # per-event results keyed by global event index
    first_onsets: dict[int, int | None] = {}
    leads: dict[int, float | None] = {}
    crossed: dict[int, bool] = {}
    true_n = false_n = late_n = 0
    for f, trace in enumerate(traces_per_fold):
        test_ids = folds.folds[f].test_seasons
        held_out = _restrict_trace(trace, folds.test_mask(f, n))
        test_windows = windows.select(test_ids)
        rep = evaluate.score(held_out, test_windows)
        true_n += rep.true_onset_count
        false_n += rep.false_onset_count
        late_n += rep.late_onset_count
        first_onsets.update(zip(test_ids, rep.onsets))
        if reporting_threshold is not None:
            lead_rep = evaluate.lead_vs_threshold(
                held_out, panel.gold, reporting_threshold, events.select(test_ids), test_windows
            )
            leads.update(zip(test_ids, lead_rep.leads))
            crossed.update(zip(test_ids, lead_rep.crossed))

    # all per-event fields index into `tested` in global event order
    tested = sorted(first_onsets)
    report = evaluate.EvaluationReport.from_onsets(
        [first_onsets[k] for k in tested], windows.select(tested), true_n, false_n, late_n
    )
    lead_report = None
    if reporting_threshold is not None:
        lead_report = evaluate.LeadReport(
            leads=tuple(leads[k] for k in tested), crossed=tuple(crossed[k] for k in tested)
        )
    return report, lead_report


def evaluate_mewma_cv(
    panel: AlignedPanel,
    subset: Sequence[str],
    events: EventSet,
    windows: DetectionWindowSet,
    folds: FoldPlan,
    phi: float,
    *,
    sims: int = calibrate.DEFAULT_SIMS,
    lambda_grid: Sequence[float] = calibrate.DEFAULT_LAMBDA_GRID,
    seed=0,
    reporting_threshold: float | None = None,
    contexts=None,
    name: str = "mewma",
    audit: AuditLog | None = None,
) -> ModelEvaluation:
    """Calibrate a fixed subset per fold on training weeks, score held-out events."""
    subset = tuple(subset)
    if contexts is None:
        contexts = prepare_fold_contexts(
            panel, events, windows, folds, lambda_grid, candidates=subset
        )
    fits = fit_folds(
        panel, subset[:-1], subset[-1:], contexts, phi, lambda_grid,
        sims=sims, seed=seed, audit=audit,
    )[0]
    report, leads = pooled_cv_report(
        panel, events, windows, folds, [fit.scan() for fit in fits], reporting_threshold
    )
    return ModelEvaluation(
        name=name,
        parameter="+".join(subset),
        report=report,
        leads=leads,
        fold_params=tuple((fit.context.fold, fit.point.lam, fit.point.h) for fit in fits),
    )


def evaluate_baseline_cv(
    panel: AlignedPanel,
    kind: str,
    grid: Sequence[int],
    events: EventSet,
    windows: DetectionWindowSet,
    folds: FoldPlan,
    reporting_threshold: float | None = None,
) -> ModelEvaluation:
    """Grid-fit a trigger baseline and report its pooled out-of-sample scores."""
    config = fit_baseline(panel, events, windows, grid, kind, folds)
    traces = [config.alarms(panel)] * folds.n_folds
    report, leads = pooled_cv_report(panel, events, windows, folds, traces, reporting_threshold)
    return ModelEvaluation(f"{kind}-trigger", str(config.param), report, leads)


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def _single_threaded_blas():
    """Set each BLAS thread count the user left unset to 1 for the processes
    started inside, so N workers use N cores; restore the environment after."""
    unset = [name for name in BLAS_THREAD_VARIABLES if name not in os.environ]
    os.environ.update(dict.fromkeys(unset, "1"))
    try:
        yield
    finally:
        for name in unset:
            os.environ.pop(name, None)


def _read_checkpoint(path: Path, fingerprint: str) -> SelectionTrace | None:
    """A replicate's checkpointed trace, or None when it must be re-run: the
    file is missing, unreadable or truncated, or another config wrote it."""
    try:
        payload = json.loads(path.read_text())
        if not isinstance(payload, dict) or payload.get("fingerprint") != fingerprint:
            return None
        steps = tuple(
            SelectionStep(
                chosen=s["chosen"],
                score=s["score"],
                candidate_scores=tuple((n, v) for n, v in s["candidate_scores"]),
            )
            for s in payload["steps"]
        )
        return SelectionTrace(steps=steps, stop_reason=payload["stop_reason"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _run_replicate(
    panel: AlignedPanel, config: ExperimentConfig, folds: FoldPlan, seed
) -> SelectionTrace:
    """One replicate: a forward selection over every panel candidate. It is
    also the worker entry point, so it takes only picklable arguments."""
    return forward_select(
        panel,
        panel.candidate_names(),
        config.k_max,
        config.atfs,
        folds,
        seed=seed,
        epsilon=config.epsilon,
        window=config.window,
        min_duration=config.min_duration,
        lead=config.lead,
        sims=config.sims,
        lambda_grid=config.lambda_grid,
        min_improvement=config.min_improvement,
    )


def run_selection(
    panel: AlignedPanel,
    config: ExperimentConfig,
    folds: FoldPlan,
    *,
    workers: int = 1,
    checkpoints: Path | None = None,
) -> tuple[SelectionTrace, ...]:
    """Run ``config.replicates`` forward selections; replicate r seeds with
    ``config.seed + r``. Returns the traces in replicate order.

    With ``workers`` > 1 and more than one replicate to run, the replicates
    run in up to ``workers`` spawned processes, each given the panel and fold
    plan and limited to one BLAS thread unless the user set a count. With a
    ``checkpoints`` directory, a replicate checkpointed there under the same
    config fingerprint is read instead of run, and every replicate that
    finishes is checkpointed at once, atomically.

    Failures: a run without checkpoints keeps nothing, so it re-raises its
    first failure unchanged. A checkpointing run finishes and checkpoints the
    other replicates, then raises one ``RuntimeError`` naming each failed
    replicate; a rerun resumes from the checkpoints.
    """
    traces: dict[int, SelectionTrace] = {}
    if checkpoints is not None:
        checkpoints.mkdir(exist_ok=True)
        fingerprint = config.fingerprint()
        for r in range(config.replicates):
            trace = _read_checkpoint(checkpoints / f"replicate_{r:03d}.json", fingerprint)
            if trace is not None:
                traces[r] = trace
    seeds = {r: config.seed + r for r in range(config.replicates) if r not in traces}
    failures: dict[int, Exception] = {}

    def _store(r: int, run) -> None:
        """Keep a finished replicate (checkpointed at once) or apply the failure rule."""
        try:
            traces[r] = run()
        except Exception as exc:
            if checkpoints is None:
                raise
            failures[r] = exc
            return
        if checkpoints is not None:
            payload = {"fingerprint": fingerprint, "replicate": r, **asdict(traces[r])}
            path = checkpoints / f"replicate_{r:03d}.json"
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_text(json.dumps(payload, sort_keys=True))
            os.replace(tmp, path)

    workers = min(workers, len(seeds))
    if workers <= 1:
        for r, seed in seeds.items():
            _store(r, functools.partial(_run_replicate, panel, config, folds, seed))
    else:
        spawn = multiprocessing.get_context("spawn")
        with _single_threaded_blas(), ProcessPoolExecutor(workers, mp_context=spawn) as pool:
            futures = {pool.submit(_run_replicate, panel, config, folds, seed): r
                       for r, seed in seeds.items()}
            for fut in as_completed(futures):
                _store(futures[fut], fut.result)
    if failures:
        raise RuntimeError("; ".join(
            f"replicate {r} failed: {type(exc).__name__}: {exc}"
            for r, exc in sorted(failures.items())
        ))
    return tuple(traces[r] for r in range(config.replicates))


def train_spec_folds(
    events: EventSet, n_weeks: int, train_seasons: int, gap: int
) -> tuple[FoldPlan, FoldPlan]:
    """Fold plans for a training-length/gap experiment.

    The evaluation plan has a single fold: train on ``train_seasons``
    consecutive seasons ending ``gap`` seasons before the last season, test
    on the last season (gap seasons belong to neither). The selection plan
    cross-validates within the training seasons only, holding out one of
    them per fold, so the test season never influences which predictors win.
    """
    base = make_folds(events, 1, n_weeks)
    K = len(events)
    if train_seasons < 2 or gap < 0:
        raise ValueError("train length must be >= 2 and gap >= 0")
    if train_seasons + gap + 1 > K:
        raise ValueError(
            f"need {train_seasons + gap + 1} seasons for train={train_seasons}, "
            f"gap={gap}; have {K}"
        )
    train = tuple(range(K - 1 - gap - train_seasons, K - 1 - gap))
    eval_plan = FoldPlan(
        seasons=base.seasons, folds=(Fold(train, (K - 1,)),), held_out=1
    )
    select_plan = FoldPlan(
        seasons=base.seasons,
        folds=tuple(
            Fold(tuple(s for s in train if s != held), (held,)) for held in train
        ),
        held_out=1,
    )
    return select_plan, eval_plan


class Experiment:
    """A config's events, detection windows and fold plans on one panel.

    Selection holds out ``config.held_out`` seasons per fold, comparison two
    if there are more than two events, else one; a ``train_spec`` = (training
    seasons, gap) gives both from ``train_spec_folds``. Each plan is made on
    first use: a run that selects nothing never needs the selection plan.
    """

    def __init__(self, panel: AlignedPanel, config: ExperimentConfig,
                 train_spec: tuple[int, int] | None = None):
        self.panel, self.config = panel, config
        self.events = detect_events(panel.gold, config.epsilon, config.min_duration)
        self.windows = build_windows(self.events, config.window, config.lead, panel.gold)
        if train_spec is not None:  # set here, the plans shadow the cached properties
            plans = train_spec_folds(self.events, panel.n_weeks, *train_spec)
            self.select_folds, self.compare_folds = plans

    @functools.cached_property
    def select_folds(self) -> FoldPlan:
        return make_folds(self.events, self.config.held_out, self.panel.n_weeks)

    @functools.cached_property
    def compare_folds(self) -> FoldPlan:
        return make_folds(self.events, 2 if len(self.events) > 2 else 1, self.panel.n_weeks)

    def evaluate_subset(self, panel: AlignedPanel, subset: Sequence[str],
                        name: str) -> ModelEvaluation:
        """``subset`` of ``panel``'s candidates, calibrated on each compare
        fold's training weeks at the config's values, as model ``name``."""
        c = self.config
        model = evaluate_mewma_cv(
            panel, subset, self.events, self.windows, self.compare_folds, c.atfs,
            sims=c.sims, lambda_grid=c.lambda_grid, seed=c.seed,
            reporting_threshold=c.lead_threshold,
        )
        # named here: the perfbench tracer's wrapper cannot forward a `name` keyword
        return replace(model, name=name)

    def select_and_evaluate(self) -> PipelineResult:
        """``select_and_evaluate`` on this experiment's panel, config and plans."""
        traces = run_selection(self.panel, self.config, self.select_folds)
        subset = aggregate_replicates(traces, self.config.k_max).selected()[: self.config.k_max]
        if not subset:
            raise ValueError("selection chose no predictors")
        model = self.evaluate_subset(self.panel, subset, "optimized")
        return PipelineResult(subset=subset, traces=traces, model=model)


def select_and_evaluate(panel: AlignedPanel, config: ExperimentConfig, *,
                        train_spec: tuple[int, int] | None = None) -> PipelineResult:
    """Full pipeline for one config: ``config.replicates`` selections in process,
    without checkpoints (``run_selection``), under the ``Experiment``'s selection
    plan; the aggregated subset is then scored under its compare plan."""
    return Experiment(panel, config, train_spec).select_and_evaluate()


def evaluate_models(panel: AlignedPanel, config: ExperimentConfig,
                    models: Sequence[str]) -> list[ModelEvaluation]:
    """``models`` (``MODELS`` names) scored under one compare plan: ``optimized``
    is ``select_and_evaluate``'s model, ``univariate-gold`` the gold series alone."""
    experiment = Experiment(panel, config)
    folds = experiment.compare_folds  # every model is scored under it: fail before any work
    results = []
    for model in models:
        if model == "optimized":
            results.append(experiment.select_and_evaluate().model)
        elif model == "univariate-gold":
            gold = panel.with_gold_candidate()
            results.append(experiment.evaluate_subset(gold, (gold.gold.name,), model))
        else:
            kind = model.removesuffix("-trigger")
            results.append(evaluate_baseline_cv(
                panel, kind, TRIGGERS[kind].grid, experiment.events, experiment.windows, folds,
                config.lead_threshold,
            ))
    return results


def sweep(
    panel: AlignedPanel, config: ExperimentConfig, axis: str, values: Sequence
) -> list[dict]:
    """Run the select-and-evaluate pipeline once per value along one axis.

    ``axis`` is ``epsilon`` (event threshold), ``window`` (detection window
    length), ``atfs`` (false-signal budget) or ``train`` (training length in
    seasons, or (length, gap-to-test) pairs); every other parameter keeps its
    ``config`` value. Returns one row (dict) per value; per-point failures are
    recorded in the row's ``error`` field and the sweep continues.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    rows: list[dict] = []
    for value in values:
        changes, train_spec = {}, None
        if axis == "train":
            train_spec = value if isinstance(value, tuple) else (int(value), 0)
        else:
            changes = {axis: int(value) if axis == "window" else float(value)}
        shown = {"epsilon": config.epsilon, "window": config.window, "atfs": config.atfs,
                 **changes}
        row = dict.fromkeys(SWEEP_FIELDS, "")
        row.update(axis=axis, value=repr(value), epsilon=shown["epsilon"],
                   window=shown["window"], phi=shown["atfs"])
        try:
            # an invalid grid value fails its own row, not the sweep
            point = replace(config, **changes)
            result = select_and_evaluate(panel, point, train_spec=train_spec)
            report = result.model.report
            row.update(selected="|".join(result.subset), performance=repr(report.performance),
                       precision=repr(report.precision), recall=repr(report.recall))
        except Exception as exc:  # per-point failures must not kill the sweep
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def write_sweep_csv(rows: Sequence[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
