"""Command-line orchestration for panel experiments.

Subcommands: ``synth`` (emit a synthetic panel), ``detect`` (run one
detector), ``select`` (replicated forward selection with per-replicate
checkpoints), ``evaluate`` (model comparison), ``sweep`` (parameter grids).
Exit codes: 0 success, 1 runtime failure, 2 usage/validation problem.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path

from . import baselines, calibrate, evaluate, pipeline
from .config import ExperimentConfig, load_config
from .events import build_windows, detect_events, write_events_csv
from .mewma import (DetectorConfig, estimate_null, precompute_shared_states, run_scan,
                    write_trace_csv)
from .panel import (
    ParseError,
    SyntheticPanelSpec,
    generate_synthetic,
    load_panel_from_manifest,
    write_panel,
)
from .selection import SelectionStep, SelectionTrace, aggregate_replicates, make_folds
from .selection import TooFewEventsError, write_aggregate_csv, write_traces_csv


class UsageError(Exception):
    """Bad user input that argparse cannot catch itself."""


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (UsageError, TooFewEventsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epiwarn",
        description="Multivariate EWMA early-warning experiments on weekly panels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic seasonal panel")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seasons", type=int, default=6)
    p.add_argument("--weeks-per-season", type=int, default=52)
    p.add_argument("--baseline", type=float, default=0.8)
    p.add_argument("--peak", type=float, default=4.0)
    p.add_argument("--jitter", type=int, default=2)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--predictors", type=int, default=5)
    p.add_argument("--lead", type=int, default=3)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--start", default="2010-W01")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("detect", help="run one detector and write its trace")
    p.add_argument("--config", required=True)
    p.add_argument("--subset", help="comma-separated candidate names for a MEWMA run")
    p.add_argument("--baseline", dest="baseline_spec",
                   help="baseline detector, e.g. week:34 or rise:4")
    p.add_argument("--lam", type=float, help="explicit smoothing parameter")
    p.add_argument("--h", type=float, help="explicit alarm threshold")
    p.add_argument("--out")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("select", help="replicated forward feature selection")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("evaluate", help="compare optimized and baseline models")
    p.add_argument("--config", required=True)
    p.add_argument("--models",
                   default="optimized,week-trigger,rise-trigger,univariate-gold")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="grid experiments along one axis")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", required=True, choices=pipeline.SWEEP_AXES)
    p.add_argument("--values", required=True,
                   help="comma-separated grid, train axis takes LENGTH:GAP pairs")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    return parser


def _load_config(path) -> ExperimentConfig:
    """Load the experiment config; a bad key or value is a usage error."""
    try:
        return load_config(path)
    except (ValueError, ParseError) as exc:
        raise UsageError(str(exc)) from None


def _prepare_out(config: ExperimentConfig, command: str, override) -> Path:
    out = config.output_dir(command, override)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_resolved.txt").write_text(config.resolved_text())
    return out


def cmd_synth(args) -> int:
    spec = SyntheticPanelSpec(
        seasons=args.seasons,
        weeks_per_season=args.weeks_per_season,
        baseline_level=args.baseline,
        peak_height=args.peak,
        peak_week_jitter=args.jitter,
        noise_scale=args.noise,
        predictor_count=args.predictors,
        predictor_lead=args.lead,
        rng_seed=args.seed,
        start_week=args.start,
    )
    manifest = write_panel(generate_synthetic(spec), args.out)
    print(manifest)
    return 0


def _parse_baseline_spec(text: str):
    kind, _, param = text.partition(":")
    if kind not in ("week", "rise") or not param:
        raise UsageError(f"bad baseline spec {text!r}; expected week:N or rise:N")
    try:
        value = int(param)
    except ValueError:
        raise UsageError(f"bad baseline parameter {param!r}; expected an integer") from None
    return kind, value


def cmd_detect(args) -> int:
    config = _load_config(args.config)
    panel = load_panel_from_manifest(config.manifest)
    if bool(args.subset) == bool(args.baseline_spec):
        raise UsageError("pass exactly one of --subset or --baseline")

    events = detect_events(panel.gold, config.epsilon, config.min_duration)
    windows = build_windows(events, config.window, config.lead, panel.gold)
    curve = None  # the calibration curve, when (lambda, h) is calibrated here
    if args.baseline_spec:
        kind, param = _parse_baseline_spec(args.baseline_spec)
        try:
            trace = baselines.baseline_trace(panel, kind, param)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        label = f"{kind}-trigger"
    else:
        subset = tuple(s.strip() for s in args.subset.split(",") if s.strip())
        scan_panel = panel.with_gold_candidate()
        known = scan_panel.candidate_names()
        if not subset or len(set(subset)) < len(subset):
            raise UsageError("--subset needs one or more distinct candidate names")
        for name in subset:
            if name not in known:
                raise UsageError(f"unknown candidate series {name!r}")
        if (args.lam is None) != (args.h is None):
            raise UsageError("pass --lam and --h together, or neither")
        if args.lam is not None:
            try:
                detector = DetectorConfig(subset, args.lam, args.h)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
        null = estimate_null(scan_panel, events, subset)
        if args.lam is not None:
            trace = run_scan(scan_panel, null, detector)
        else:
            table = precompute_shared_states(scan_panel, null, config.lambda_grid)
            curve = []
            point = calibrate.optimize_params(
                scan_panel, events, windows, subset, config.atfs,
                config.lambda_grid, sims=config.sims, seed=config.seed,
                table=table, curve=curve,
            )
            trace = table.scan(point.lam, subset, point.h)
        label = "mewma"

    out = _prepare_out(config, "detect", args.out)
    if curve is not None:
        calibrate.write_calibration_csv(curve, out / "calibration.csv")
    write_trace_csv(trace, panel.axis, out / f"{label}_trace.csv")
    write_events_csv(windows, panel.axis, out / "events.csv")
    if len(events):
        report = evaluate.score(trace, windows)
        leads = None
        if config.lead_threshold is not None:
            leads = evaluate.lead_vs_threshold(
                trace, panel.gold, config.lead_threshold, events, windows
            )
        evaluate.write_event_report_csv(report, leads, out / "event_report.csv")
        evaluate.write_summary_csv(report, out / "summary.csv")
    print(out)
    return 0


def _trace_to_json(trace: SelectionTrace) -> dict:
    return {
        "stop_reason": trace.stop_reason,
        "steps": [
            {
                "chosen": s.chosen,
                "score": s.score,
                "candidate_scores": [[n, v] for n, v in s.candidate_scores],
            }
            for s in trace.steps
        ],
    }


def _trace_from_json(payload: dict) -> SelectionTrace:
    steps = tuple(
        SelectionStep(
            chosen=s["chosen"],
            score=s["score"],
            candidate_scores=tuple((n, v) for n, v in s["candidate_scores"]),
        )
        for s in payload["steps"]
    )
    return SelectionTrace(steps=steps, stop_reason=payload["stop_reason"])


def _selection_plan(config: ExperimentConfig) -> tuple:
    """The config's panel and its selection fold plan."""
    panel = load_panel_from_manifest(config.manifest)
    events = detect_events(panel.gold, config.epsilon, config.min_duration)
    return panel, make_folds(events, config.held_out, panel.n_weeks)


def _run_replicate(config: ExperimentConfig, seed: int) -> SelectionTrace:
    """Worker entry point: takes only the picklable config and reloads the panel."""
    panel, folds = _selection_plan(config)
    return pipeline.run_selection(panel, config, folds, (seed,))[0]


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
        return _trace_from_json(payload)
    except (OSError, ValueError, KeyError, TypeError):
        return None


def cmd_select(args) -> int:
    config = _load_config(args.config)
    panel, folds = _selection_plan(config)  # too few events fail here, before any output
    out = _prepare_out(config, "select", args.out)
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    fingerprint = config.fingerprint()

    traces: dict[int, SelectionTrace] = {}
    pending: list[int] = []
    for r in range(config.replicates):
        trace = _read_checkpoint(ckpt_dir / f"replicate_{r:03d}.json", fingerprint)
        if trace is None:
            pending.append(r)
        else:
            traces[r] = trace

    failures: dict[int, Exception] = {}

    def _store(r: int, run) -> None:
        """Checkpoint a replicate as soon as it finishes; record its failure."""
        try:
            traces[r] = run()
        except Exception as exc:
            failures[r] = exc
            return
        payload = {"fingerprint": fingerprint, "replicate": r, **_trace_to_json(traces[r])}
        path = ckpt_dir / f"replicate_{r:03d}.json"
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)

    workers = max(1, min(args.workers, len(pending) or 1))
    if workers == 1 or len(pending) <= 1:
        for r in pending:
            _store(r, lambda: pipeline.run_selection(panel, config, folds, (config.seed + r,))[0])
    else:
        spawn = multiprocessing.get_context("spawn")
        with _single_threaded_blas(), ProcessPoolExecutor(workers, mp_context=spawn) as pool:
            futures = {pool.submit(_run_replicate, config, config.seed + r): r for r in pending}
            for fut in as_completed(futures):
                _store(futures[fut], fut.result)
    if failures:
        raise RuntimeError("; ".join(
            f"replicate {r} failed: {type(exc).__name__}: {exc}"
            for r, exc in sorted(failures.items())
        ))

    ordered = [traces[r] for r in range(config.replicates)]
    aggregate = aggregate_replicates(ordered, config.k_max)
    write_traces_csv(ordered, out / "selection_trace.csv")
    write_aggregate_csv(aggregate, out / "selection_aggregate.csv")
    print(out)
    return 0


def cmd_evaluate(args) -> int:
    config = _load_config(args.config)
    panel = load_panel_from_manifest(config.manifest)
    model_names = [m.strip() for m in args.models.split(",") if m.strip()]
    known = {"optimized", "week-trigger", "rise-trigger", "univariate-gold"}
    for m in model_names:
        if m not in known:
            raise UsageError(f"unknown model {m!r}; choose from {sorted(known)}")

    events = detect_events(panel.gold, config.epsilon, config.min_duration)
    compare_folds = make_folds(events, 2 if len(events) > 2 else 1, panel.n_weeks)
    windows = build_windows(events, config.window, config.lead, panel.gold)

    results = []
    for m in model_names:
        if m == "optimized":
            results.append(pipeline.select_and_evaluate(panel, config).model)
        elif m == "univariate-gold":
            gpanel = panel.with_gold_candidate()
            model = pipeline.evaluate_mewma_cv(
                gpanel, (gpanel.gold.name,), events, windows, compare_folds,
                config.atfs, sims=config.sims, lambda_grid=config.lambda_grid,
                seed=config.seed, reporting_threshold=config.lead_threshold,
            )
            # named here: the perfbench tracer's wrapper cannot forward a `name` keyword
            results.append(dataclasses.replace(model, name="univariate-gold"))
        elif m == "week-trigger":
            results.append(
                pipeline.evaluate_baseline_cv(
                    panel, "week", range(1, 54), events, windows, compare_folds,
                    config.lead_threshold,
                )
            )
        else:
            results.append(
                pipeline.evaluate_baseline_cv(
                    panel, "rise", range(2, 21), events, windows, compare_folds,
                    config.lead_threshold,
                )
            )

    out = _prepare_out(config, "evaluate", args.out)
    with open(out / "model_comparison.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "model", "parameter", "performance", "precision", "recall",
            "mean_lead_weeks", "events_detected", "false_onsets",
        ])
        for r in results:
            mean_lead = r.leads.mean_lead if r.leads is not None else None
            writer.writerow([
                r.name,
                r.parameter,
                repr(r.report.performance),
                repr(r.report.precision),
                repr(r.report.recall),
                "" if mean_lead is None else repr(mean_lead),
                len(r.report.delta_t) - len(r.report.missed_events),
                r.report.false_onset_count,
            ])
    for r in results:
        evaluate.write_event_report_csv(r.report, r.leads, out / f"{r.name}_events.csv")
    print(out)
    return 0


def _parse_sweep_values(axis: str, text: str) -> tuple:
    """The ``--values`` grid: integers for ``window``, LENGTH[:GAP] integer
    pairs for ``train``, numbers otherwise; a bad item is a usage error."""
    values = []
    for item in text.split(","):
        try:
            if axis == "train":
                length, _, gap = item.partition(":")
                values.append((int(length), int(gap) if gap else 0))
            elif axis == "window":
                values.append(int(item))
            else:
                values.append(float(item))
        except ValueError:
            raise UsageError(f"bad --values item {item!r} for axis {axis}") from None
    return tuple(values)


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    panel = load_panel_from_manifest(config.manifest)
    values = _parse_sweep_values(args.axis, args.values)
    rows = pipeline.sweep(panel, config, args.axis, values)
    out = _prepare_out(config, "sweep", args.out)
    pipeline.write_sweep_csv(rows, out / "sweep.csv")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
