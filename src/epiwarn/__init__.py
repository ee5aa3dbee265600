"""Multivariate EWMA early-warning detectors for weekly time-series panels."""

from .panel import (
    AlignedPanel,
    Series,
    SyntheticPanelSpec,
    WeekAxis,
    generate_synthetic,
    load_panel,
    load_panel_from_manifest,
    write_panel,
)
from .events import DetectionWindowSet, EventSet, build_windows, detect_events
from .mewma import (
    AlarmTrace,
    DetectorConfig,
    NullModel,
    SharedScanTable,
    estimate_null,
    precompute_shared_states,
    run_scan,
)
from .calibrate import (
    AtfsEstimate,
    ConstraintCurvePoint,
    optimize_params,
    simulate_atfs,
    solve_threshold,
)
from .selection import (
    FoldPlan,
    ReplicateAggregate,
    SelectionTrace,
    aggregate_replicates,
    forward_select,
    make_folds,
    score_subset,
)
from .baselines import RiseTriggerConfig, WeekTriggerConfig, fit_baseline, rise_trigger, week_trigger
from .evaluate import EvaluationReport, LeadReport, lead_vs_threshold, score
from .pipeline import (
    ModelEvaluation,
    PipelineResult,
    evaluate_baseline_cv,
    evaluate_mewma_cv,
    select_and_evaluate,
    sweep,
)
from .config import ExperimentConfig, load_config

__version__ = "0.1.0"
