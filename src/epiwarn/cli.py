"""Command-line interface for panel experiments.

Subcommands: ``synth`` (emit a synthetic panel), ``detect`` (run one
detector), ``select`` (replicated forward selection with per-replicate
checkpoints), ``evaluate`` (model comparison), ``sweep`` (parameter grids).
Every experiment rule (events, windows, fold plans, models) lives in
``pipeline``; a command parses and validates its input, sets up the
experiment, and only then writes its output directory. Exit codes: 0
success, 1 runtime failure, 2 usage/validation problem (too few events, too
few baseline weeks for the candidates, overlapping detection windows and a
week trigger on less than a year of weeks included).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import baselines, calibrate, evaluate, pipeline
from .config import ExperimentConfig, load_config
from .events import WindowOverlapError, write_events_csv
from .mewma import (DetectorConfig, TooFewBaselineWeeksError, estimate_null, run_scan,
                    write_trace_csv)
from .panel import (ParseError, SyntheticPanelSpec, generate_synthetic,
                    load_panel_from_manifest, write_panel)
from .selection import TooFewEventsError, aggregate_replicates
from .selection import write_aggregate_csv, write_traces_csv


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
    except (UsageError, TooFewEventsError, TooFewBaselineWeeksError, WindowOverlapError,
            baselines.AxisTooShortError) as exc:
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
    p.add_argument("--models", default=",".join(pipeline.MODELS))
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
    try:
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
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    manifest = write_panel(generate_synthetic(spec), args.out)
    print(manifest)
    return 0


def _parse_baseline_spec(text: str):
    kind, _, param = text.partition(":")
    if kind not in baselines.TRIGGERS or not param:
        expected = " or ".join(f"{k}:N" for k in baselines.TRIGGERS)
        raise UsageError(f"bad baseline spec {text!r}; expected {expected}")
    try:
        value = int(param)
    except ValueError:
        raise UsageError(f"bad baseline parameter {param!r}; expected an integer") from None
    return kind, value


def cmd_detect(args) -> int:
    config = _load_config(args.config)
    if bool(args.subset) == bool(args.baseline_spec):
        raise UsageError("pass exactly one of --subset or --baseline")
    if args.baseline_spec:
        if args.lam is not None or args.h is not None:
            raise UsageError("--lam and --h apply only to --subset")
        kind, param = _parse_baseline_spec(args.baseline_spec)
    else:
        subset = tuple(s.strip() for s in args.subset.split(",") if s.strip())
        if not subset or len(set(subset)) < len(subset):
            raise UsageError("--subset needs one or more distinct candidate names")
        if (args.lam is None) != (args.h is None):
            raise UsageError("pass --lam and --h together, or neither")
        if args.lam is not None:
            try:
                detector = DetectorConfig(subset, args.lam, args.h)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
    panel = load_panel_from_manifest(config.manifest)

    experiment = pipeline.Experiment(panel, config)
    events, windows = experiment.events, experiment.windows
    curve = None  # the calibration curve, when (lambda, h) is calibrated here
    if args.baseline_spec:
        try:
            trace = baselines.baseline_trace(panel, kind, param)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        label = f"{kind}-trigger"
    else:
        scan_panel = panel.with_gold_candidate()
        known = scan_panel.candidate_names()
        for name in subset:
            if name not in known:
                raise UsageError(f"unknown candidate series {name!r}")
        if args.lam is None:
            if not len(events):
                raise UsageError(
                    f"found 0 event(s) at epsilon {events.threshold} with min_duration "
                    f"{events.min_duration}; calibration needs events, or pass --lam and --h"
                )
            curve = []
            point = calibrate.optimize_params(
                scan_panel, events, windows, subset, config.atfs, config.lambda_grid,
                sims=config.sims, seed=config.seed, curve=curve,
            )
            # the config's grid is in (0, 1), and a calibrated h is > 0
            detector = DetectorConfig(subset, point.lam, point.h)
        trace = run_scan(scan_panel, estimate_null(scan_panel, events, subset), detector)
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


def cmd_select(args) -> int:
    config = _load_config(args.config)
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    panel = load_panel_from_manifest(config.manifest)
    experiment = pipeline.Experiment(panel, config)
    experiment.select_folds  # bad events, windows or fold plans fail before any output
    out = _prepare_out(config, "select", args.out)
    traces = pipeline.run_selection(
        experiment, workers=args.workers, checkpoints=out / "checkpoints"
    )
    aggregate = aggregate_replicates(traces, config.k_max)
    write_traces_csv(traces, out / "selection_trace.csv")
    write_aggregate_csv(aggregate, out / "selection_aggregate.csv")
    print(out)
    return 0


def cmd_evaluate(args) -> int:
    config = _load_config(args.config)
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    for m in models:
        if m not in pipeline.MODELS:
            raise UsageError(f"unknown model {m!r}; choose from {sorted(pipeline.MODELS)}")
    if not models or len(set(models)) < len(models):
        raise UsageError(f"--models must name one or more models, each once: {args.models!r}")
    panel = load_panel_from_manifest(config.manifest)
    results = pipeline.evaluate_models(panel, config, models)
    out = _prepare_out(config, "evaluate", args.out)
    pipeline.write_model_comparison_csv(results, out / "model_comparison.csv")
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
    values = _parse_sweep_values(args.axis, args.values)
    panel = load_panel_from_manifest(config.manifest)
    rows = pipeline.sweep(panel, config, args.axis, values)
    out = _prepare_out(config, "sweep", args.out)
    pipeline.write_sweep_csv(rows, out / "sweep.csv")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
