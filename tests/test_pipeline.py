from dataclasses import replace

import numpy as np
import pytest

from epiwarn.config import ExperimentConfig
from epiwarn.events import build_windows, detect_events
from epiwarn.mewma import AlarmTrace, estimate_null
from epiwarn.panel import AlignedPanel, Series, SyntheticPanelSpec, generate_synthetic
from epiwarn.pipeline import (
    Experiment,
    evaluate_baseline_cv,
    evaluate_mewma_cv,
    pooled_cv_report,
    run_selection,
    select_and_evaluate,
    sweep,
    train_spec_folds,
    write_sweep_csv,
)
from epiwarn.selection import AuditLog, make_folds, prepare_fold_contexts, score_subset


def two_predictor_panel(seasons=6, seed=21, weeks=40):
    base = generate_synthetic(
        SyntheticPanelSpec(
            seasons=seasons, weeks_per_season=weeks, peak_week_jitter=1,
            noise_scale=0.05, predictor_count=1, predictor_lead=3, rng_seed=seed,
        )
    )
    rng = np.random.default_rng(seed + 479)
    return AlignedPanel(
        base.axis,
        base.gold,
        (
            Series(name="lead3", values=base.candidates[0].values),
            Series(name="noise1", values=0.8 + 0.1 * rng.standard_normal(base.n_weeks)),
        ),
    )


def small_config(**overrides):
    """Default config with a cheap calibration; the panel is passed in directly."""
    return ExperimentConfig(
        **{"manifest": "unused.manifest", "sims": 60, "lambda_grid": (0.3, 0.6),
           "k_max": 2, "replicates": 2, **overrides}
    )


def test_pooled_report_scores_each_event_once():
    panel = two_predictor_panel()
    events = detect_events(panel.gold, 1.25, 3)
    windows = build_windows(events, 16, 8, panel.gold)
    folds = make_folds(events, 2, panel.n_weeks)
    # one onset exactly at each window start: every fold contributes its events
    onsets = np.array([ws for ws, _ in windows.windows])
    trace = AlarmTrace(E=np.zeros(panel.n_weeks), alarm_weeks=onsets, cluster_onsets=onsets)
    report, leads = pooled_cv_report(
        panel, events, windows, folds, [trace] * folds.n_folds, reporting_threshold=2.0
    )
    assert report.performance == 1.0
    assert report.recall == 1.0
    assert report.precision == 1.0
    assert len(report.delta_t) == len(events)
    assert leads is not None and all(l is not None for l in leads.leads)


def test_pooled_report_restricts_onsets_to_test_weeks():
    panel = two_predictor_panel()
    events = detect_events(panel.gold, 1.25, 3)
    windows = build_windows(events, 16, 8, panel.gold)
    folds = make_folds(events, 1, panel.n_weeks)
    onsets = np.array([ws for ws, _ in windows.windows])
    trace = AlarmTrace(E=np.zeros(panel.n_weeks), alarm_weeks=onsets, cluster_onsets=onsets)
    # hand fold 0's trace to every fold: only fold-local onsets may count,
    # so folds whose test windows see no onset miss their events
    empty = AlarmTrace(E=np.zeros(panel.n_weeks), alarm_weeks=np.array([], int),
                       cluster_onsets=np.array([], int))
    traces = [trace] + [empty] * (folds.n_folds - 1)
    report, _ = pooled_cv_report(panel, events, windows, folds, traces)
    assert report.onsets[0] is not None
    assert all(o is None for o in report.onsets[1:])
    assert report.recall == 1.0 / len(events)


def test_train_spec_folds_protect_test_season():
    panel = two_predictor_panel(seasons=8)
    events = detect_events(panel.gold, 1.25, 3)
    select_plan, eval_plan = train_spec_folds(events, panel.n_weeks, 4, 1)
    K = len(events)
    assert eval_plan.folds[0].test_seasons == (K - 1,)
    assert eval_plan.folds[0].train_seasons == tuple(range(K - 5 - 1, K - 1 - 1))
    for fold in select_plan.folds:
        assert K - 1 not in fold.test_seasons
        assert K - 1 not in fold.train_seasons
        assert set(fold.test_seasons) | set(fold.train_seasons) == set(
            eval_plan.folds[0].train_seasons
        )


def test_train_spec_folds_rejects_short_panels():
    panel = two_predictor_panel(seasons=4)
    events = detect_events(panel.gold, 1.25, 3)
    with pytest.raises(ValueError, match="seasons"):
        train_spec_folds(events, panel.n_weeks, 4, 0)


def test_select_and_evaluate_picks_leading_predictor():
    panel = two_predictor_panel()
    result = select_and_evaluate(panel, small_config())
    assert result.subset[0] == "lead3"
    assert result.model.name == "optimized"
    assert result.model.report.performance > 0.5
    assert len(result.traces) == 2


def test_training_length_sweep_is_stationary():
    # stationary dynamics: mean out-of-sample score is flat in the training
    # length up to replicate noise (band = seed spread, floored at the
    # one-week onset quantum 1/T_w)
    panel = two_predictor_panel(seasons=10)
    perf = {}
    spread = []
    for L in (4, 8):
        runs = [
            select_and_evaluate(panel, small_config(seed=seed), train_spec=(L, 0))
            .model.report.performance
            for seed in (0, 1)
        ]
        perf[L] = float(np.mean(runs))
        spread.append(max(runs) - min(runs))
    band = max(max(spread), 1.0 / 16.0)
    assert abs(perf[4] - perf[8]) <= band


def test_gap_between_train_and_test_supported():
    panel = two_predictor_panel(seasons=8)
    r0 = select_and_evaluate(panel, small_config(), train_spec=(4, 0))
    r2 = select_and_evaluate(panel, small_config(), train_spec=(4, 2))
    assert r0.subset and r2.subset
    assert 0.0 <= r0.model.report.performance <= 1.0
    assert 0.0 <= r2.model.report.performance <= 1.0


def test_sweep_records_per_point_failures_and_continues():
    panel = two_predictor_panel()
    rows = sweep(panel, small_config(replicates=1), "epsilon", (99.0, 1.25))
    assert len(rows) == 2
    assert rows[0]["error"] != "" and rows[0]["performance"] == ""
    assert rows[1]["error"] == "" and rows[1]["selected"] != ""


def test_sweep_invalid_grid_value_fails_its_row():
    # a window shorter than the lead is rejected by the config, row by row
    panel = two_predictor_panel()
    rows = sweep(panel, small_config(replicates=1), "window", (4, 16))
    assert [r["window"] for r in rows] == [4, 16]
    assert rows[0]["error"].startswith("ValueError: lead must be in [0, window=4]")
    assert rows[1]["error"] == "" and rows[1]["selected"] != ""


def test_sweep_phi_axis_rows_have_own_selections(tmp_path):
    panel = two_predictor_panel()
    rows = sweep(panel, small_config(replicates=1), "atfs", (5.0, 20.0))
    assert [r["phi"] for r in rows] == [5.0, 20.0]
    assert all(r["error"] == "" for r in rows)
    out = tmp_path / "sweep.csv"
    write_sweep_csv(rows, out)
    assert out.read_text().splitlines()[0].startswith("axis,value")


def test_evaluate_mewma_cv_reports_fold_params():
    panel = two_predictor_panel()
    events = detect_events(panel.gold, 1.25, 3)
    windows = build_windows(events, 16, 8, panel.gold)
    folds = make_folds(events, 2, panel.n_weeks)
    model = evaluate_mewma_cv(
        panel, ("lead3",), events, windows, folds, 20.0,
        sims=60, lambda_grid=(0.3, 0.6), seed=0, reporting_threshold=2.0,
    )
    assert len(model.fold_params) == folds.n_folds
    for _, lam, h in model.fold_params:
        assert lam in (0.3, 0.6) and h > 0
    assert model.leads is not None
    assert model.report.recall == 1.0


def test_evaluate_mewma_cv_estimates_only_its_own_subset():
    # 150 candidates need 151 baseline weeks per fold for a full-panel null;
    # the evaluated subset needs 2
    panel = generate_synthetic(SyntheticPanelSpec(seasons=6, predictor_count=150))
    events = detect_events(panel.gold, 1.25, 3)
    windows = build_windows(events, 16, 8, panel.gold)
    folds = make_folds(events, 2, panel.n_weeks)
    model = evaluate_mewma_cv(
        panel, ("pred001", "pred002"), events, windows, folds, 20.0,
        sims=40, lambda_grid=(0.3,), seed=0,
    )
    assert len(model.fold_params) == folds.n_folds


def test_evaluate_mewma_cv_ignores_the_ridge_of_other_candidates():
    # "copy" duplicates lead3, so the full panel's covariance is singular and
    # gets a ridge; the evaluated subset's fold nulls are its own estimates
    panel = two_predictor_panel()
    copy = Series(name="copy", values=panel.candidates[0].values)
    ridged = AlignedPanel(panel.axis, panel.gold, panel.candidates + (copy,))
    events = detect_events(panel.gold, 1.25, 3)
    windows = build_windows(events, 16, 8, panel.gold)
    folds = make_folds(events, 2, panel.n_weeks)
    assert estimate_null(ridged, events).ridge_applied
    plain, with_copy = (
        evaluate_mewma_cv(
            p, ("lead3", "noise1"), events, windows, folds, 20.0,
            sims=60, lambda_grid=(0.3, 0.6), seed=0, reporting_threshold=2.0,
        )
        for p in (panel, ridged)
    )
    assert with_copy.fold_params == plain.fold_params
    assert with_copy.report == plain.report
    assert with_copy.leads == plain.leads


def test_evaluate_baseline_cv_week_and_rise():
    panel = two_predictor_panel()
    events = detect_events(panel.gold, 1.25, 3)
    windows = build_windows(events, 16, 8, panel.gold)
    folds = make_folds(events, 2, panel.n_weeks)
    week = evaluate_baseline_cv(panel, "week", range(1, 54), events, windows, folds, 2.0)
    rise = evaluate_baseline_cv(panel, "rise", range(2, 21), events, windows, folds, 2.0)
    assert 1 <= int(week.parameter) <= 53
    assert 2 <= int(rise.parameter) <= 20
    for model in (week, rise):
        assert 0.0 <= model.report.performance <= 1.0
        assert 0.0 <= model.report.precision <= 1.0


def alternating_timing_panel(lead=3):
    """Six seasons whose outbreak timing swings +/-10 weeks season to season:
    wider than the detection window, so no fixed calendar week can stay
    timely, while signal-following detectors are unaffected."""
    from epiwarn.panel import WeekAxis

    W, H, seasons = 52, 13, 6
    n = seasons * W
    ext = n + lead
    t = np.arange(ext, dtype=float)
    gold = np.full(ext, 0.8)
    for s in range(seasons + 1):
        center = s * W + 26 + (10 if s % 2 else -10)
        z = (t - center) / H
        m = np.abs(z) <= 1
        gold[m] += 2.0 * (1 + np.cos(np.pi * z[m]))
    return AlignedPanel(
        WeekAxis("2010-W01", n),
        Series(name="gold", values=gold[:n].copy()),
        (Series(name="lead3", values=gold[lead : lead + n].copy()),),
    )


def test_optimized_model_earliest_among_four_models():
    from epiwarn.selection import aggregate_replicates

    panel = alternating_timing_panel()
    events = detect_events(panel.gold, 1.25, 3)
    assert len(events) == 6
    windows = build_windows(events, 16, 8, panel.gold)
    compare = make_folds(events, 2, panel.n_weeks)
    grid = (0.3, 0.6)
    config = small_config(sims=80, lambda_grid=grid, k_max=1)
    traces = run_selection(Experiment(panel, replace(config, replicates=1)))
    subset = aggregate_replicates(traces, 1).selected()[:1]
    optimized = evaluate_mewma_cv(
        panel, subset, events, windows, compare, 20.0,
        sims=80, lambda_grid=grid, seed=0, name="optimized",
    )
    gold_panel = panel.with_gold_candidate()
    univariate = evaluate_mewma_cv(
        gold_panel, (gold_panel.gold.name,), events, windows, compare, 20.0,
        sims=80, lambda_grid=grid, seed=0, name="univariate-gold",
    )
    week = evaluate_baseline_cv(panel, "week", range(1, 54), events, windows, compare)
    rise = evaluate_baseline_cv(panel, "rise", range(2, 21), events, windows, compare)

    mean_dt = {m.name: float(np.mean(m.report.delta_t))
               for m in (optimized, univariate, week, rise)}
    assert min(mean_dt, key=mean_dt.get) == "optimized"
    assert optimized.report.performance > max(
        m.report.performance for m in (univariate, week, rise)
    )


def test_spawned_replicates_take_the_given_panel_and_folds():
    # an in-memory panel (its config's manifest does not exist) and a
    # training-length selection plan, which no config key describes
    config = small_config()
    experiment = Experiment(two_predictor_panel(), config, (3, 1))
    serial = run_selection(experiment, workers=1)
    assert len(serial) == config.replicates
    assert run_selection(experiment, workers=2) == serial


def test_replicates_derive_no_events_or_windows_of_their_own(monkeypatch):
    import epiwarn.events
    import epiwarn.pipeline

    def derived(*args, **kwargs):
        raise AssertionError("a replicate derived its own events or windows")

    # the experiment derives them once, before any replicate runs
    config = small_config()
    experiment = Experiment(two_predictor_panel(), config)
    for module in (epiwarn.events, epiwarn.pipeline):
        monkeypatch.setattr(module, "detect_events", derived)
        monkeypatch.setattr(module, "build_windows", derived)
    assert len(run_selection(experiment)) == config.replicates


def test_sweep_singleton_row_equals_direct_pipeline_run():
    panel = two_predictor_panel()
    config = small_config(replicates=1)
    row = sweep(panel, config, "epsilon", (1.25,))[0]
    direct = select_and_evaluate(panel, config)
    assert row["error"] == ""
    assert row["selected"] == "|".join(direct.subset)
    assert row["performance"] == repr(direct.model.report.performance)
    assert row["precision"] == repr(direct.model.report.precision)
    assert row["recall"] == repr(direct.model.report.recall)


def test_score_subset_and_evaluate_mewma_cv_fit_folds_alike():
    panel = two_predictor_panel()
    events = detect_events(panel.gold, 1.25, 3)
    windows = build_windows(events, 16, 8, panel.gold)
    folds = make_folds(events, 2, panel.n_weeks)
    grid = (0.3, 0.6)
    contexts = prepare_fold_contexts(panel, events, windows, folds, grid)
    subset = ("lead3", "noise1")
    scored, evaluated = AuditLog(), AuditLog()
    score_subset(subset, contexts, 20.0, sims=60, seed=4, audit=scored)
    model = evaluate_mewma_cv(
        panel, subset, events, windows, folds, 20.0,
        sims=60, lambda_grid=grid, seed=4, audit=evaluated,
    )

    def fold_fits(audit):
        return [(fit.context.fold, fit.point.lam, fit.point.h) for fit in audit.entries]

    assert len(model.fold_params) == folds.n_folds
    assert fold_fits(scored) == fold_fits(evaluated) == list(model.fold_params)
