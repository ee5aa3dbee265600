"""Layer spans recorded from outside the program.

``install`` wraps the public functions of each ``epiwarn`` layer and puts
the wrapper under every module-level name that still refers to the original
function, so a caller that imported the function by name is traced too.
Methods are wrapped on their class. Spans stay in memory; ``summary`` turns
them into per-layer self times and counts when the pass ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, attribute, span name, layer). A layer's self time sums the self
# time of its spans; a span's self time is its duration minus its children's.
TRACED = (
    ("epiwarn.panel", "load_panel_from_manifest", "panel.load_panel_from_manifest", "panel.load"),
    ("epiwarn.events", "detect_events", "events.detect_events", "events.detect"),
    ("epiwarn.events", "build_windows", "events.build_windows", "events.detect"),
    ("epiwarn.mewma", "estimate_null", "mewma.estimate_null", "mewma.estimate_null"),
    ("epiwarn.mewma", "precompute_shared_states", "mewma.precompute_shared_states",
     "mewma.precompute"),
    ("epiwarn.mewma", "SharedScanTable.scan", "mewma.SharedScanTable.scan", "mewma.table_scan"),
    ("epiwarn.mewma", "run_scan", "mewma.run_scan", "mewma.run_scan"),
    ("epiwarn.calibrate", "simulate_statistic_paths", "calibrate.simulate_statistic_paths",
     "calibrate.simulate"),
    ("epiwarn.calibrate", "solve_threshold", "calibrate.solve_threshold", "calibrate.solve_self"),
    ("epiwarn.calibrate", "optimize_params", "calibrate.optimize_params",
     "calibrate.optimize_self"),
    ("epiwarn.selection", "prepare_fold_contexts", "selection.prepare_fold_contexts",
     "selection.contexts"),
    ("epiwarn.selection", "make_folds", "selection.make_folds", "selection.self"),
    ("epiwarn.selection", "forward_select", "selection.forward_select", "selection.self"),
    ("epiwarn.selection", "score_subset", "selection.score_subset", "selection.self"),
    ("epiwarn.selection", "aggregate_replicates", "selection.aggregate_replicates",
     "selection.self"),
    ("epiwarn.baselines", "fit_baseline", "baselines.fit_baseline", "baselines.fit"),
    ("epiwarn.baselines", "week_trigger", "baselines.week_trigger", "baselines.fit"),
    ("epiwarn.baselines", "rise_trigger", "baselines.rise_trigger", "baselines.fit"),
    ("epiwarn.evaluate", "performance", "evaluate.performance", "evaluate.performance"),
    ("epiwarn.evaluate", "score", "evaluate.score", "evaluate.score"),
    ("epiwarn.evaluate", "lead_vs_threshold", "evaluate.lead_vs_threshold", "evaluate.lead"),
    ("epiwarn.pipeline", "run_selection", "pipeline.run_selection", "pipeline.self"),
    ("epiwarn.pipeline", "select_and_evaluate", "pipeline.select_and_evaluate", "pipeline.self"),
    ("epiwarn.pipeline", "evaluate_mewma_cv", "pipeline.evaluate_mewma_cv", "pipeline.self"),
    ("epiwarn.pipeline", "evaluate_baseline_cv", "pipeline.evaluate_baseline_cv",
     "pipeline.self"),
    ("epiwarn.pipeline", "pooled_cv_report", "pipeline.pooled_cv_report",
     "pipeline.pooled_report"),
    ("epiwarn.config", "ExperimentConfig.fingerprint", "config.ExperimentConfig.fingerprint",
     "config.fingerprint"),
)
ROOT_SPAN = "cli.main"
LAYERS = {name: layer for _, _, name, layer in TRACED} | {ROOT_SPAN: "cli.self"}

# exact work counts: metric -> span whose calls it counts
CALL_COUNTS = {
    "panel.load_calls": "panel.load_panel_from_manifest",
    "mewma.estimate_null_calls": "mewma.estimate_null",
    "mewma.table_scan_calls": "mewma.SharedScanTable.scan",
    "calibrate.simulate_calls": "calibrate.simulate_statistic_paths",
    "calibrate.fits": "calibrate.optimize_params",
    "selection.subsets_scored": "selection.score_subset",
    "evaluate.performance_calls": "evaluate.performance",
}
# exact work counts kept by the wrappers themselves
EXTRA_COUNTS = ("calibrate.threshold_evals", "calibrate.simulated_values",
                "calibrate.dropped_lambdas")


class Tracer:
    """Spans of one pass: [name, start, end, parent index], in start order."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def records(self) -> list[dict]:
        return [
            {"run": self.run_id, "name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
        ]

    def summary(self) -> dict:
        """Per-layer self times, inclusive stage times and exact work counts."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: Counter = Counter({layer: 0.0 for layer in LAYERS.values()})
        calls: Counter = Counter()
        cv_eval = 0.0
        for (name, start, end, _), children in zip(self.spans, child_time):
            self_s[LAYERS[name]] += (end - start) - children
            calls[name] += 1
            if name == "pipeline.evaluate_mewma_cv":
                cv_eval += end - start
        counts = {metric: calls[span] for metric, span in CALL_COUNTS.items()}
        counts.update({metric: self.counts[metric] for metric in EXTRA_COUNTS})
        return {
            "self_s": dict(self_s),
            "cv_eval_s": cv_eval,
            "root_s": sum(e - s for _, s, e, p in self.spans if p < 0),
            "counts": counts,
            "solves": calls["calibrate.solve_threshold"],
        }


def install(tracer: Tracer) -> None:
    """Wrap every function in ``TRACED`` wherever an epiwarn module names it."""
    import epiwarn.calibrate as calibrate

    hooks = {
        "calibrate.simulate_statistic_paths": _count_simulated(
            tracer, calibrate.simulate_statistic_paths),
        "calibrate.solve_threshold": _count_dropped(
            tracer, calibrate.solve_threshold, calibrate.CalibrationError),
    }
    modules = [m for n, m in sys.modules.items() if n == "epiwarn" or n.startswith("epiwarn.")]
    for module_name, attribute, name, _ in TRACED:
        owner = sys.modules[module_name]
        if "." in attribute:
            cls_name, method = attribute.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, tracer.wrap(name, hooks.get(name, getattr(cls, method))))
            continue
        original = getattr(owner, attribute)
        traced = tracer.wrap(name, hooks.get(name, original))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)

    # threshold evaluations are counted, not spanned: there are thousands
    original_atfs = calibrate.atfs_from_paths

    def atfs_from_paths(*args, **kwargs):
        tracer.counts["calibrate.threshold_evals"] += 1
        return original_atfs(*args, **kwargs)

    calibrate.atfs_from_paths = atfs_from_paths


def _count_simulated(tracer: Tracer, simulate):
    @functools.wraps(simulate)
    def counted(null, lam, sims, length, seed):
        tracer.counts["calibrate.simulated_values"] += sims * length * null.dim
        return simulate(null, lam, sims, length, seed)

    return counted


def _count_dropped(tracer: Tracer, solve, calibration_error: type):
    """Count solves that optimize_params drops: a CalibrationError or h <= 0."""

    @functools.wraps(solve)
    def counted(*args, **kwargs):
        try:
            h = solve(*args, **kwargs)
        except calibration_error:
            tracer.counts["calibrate.dropped_lambdas"] += 1
            raise
        if h <= 0.0:
            tracer.counts["calibrate.dropped_lambdas"] += 1
        return h

    return counted
