from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epiwarn.calibrate import optimize_step
from epiwarn.events import EventSet, build_windows, detect_events
from epiwarn.evaluate import performance
from epiwarn.mewma import AlarmTrace
from epiwarn.panel import AlignedPanel, Series, SyntheticPanelSpec, generate_synthetic
from epiwarn.selection import (
    AuditLog,
    SelectionStep,
    SelectionTrace,
    aggregate_replicates,
    audit_leakage,
    forward_select,
    make_folds,
    prepare_fold_contexts,
    score_subset,
)

PHI = 20.0
GRID = (0.3, 0.6)
SIMS = 80


def mixed_panel(n_noise=2, seasons=6, seed=5, noise_scale=0.0, lead=3):
    """Synthetic panel: one predictor leading gold by `lead`, plus pure noise."""
    base = generate_synthetic(
        SyntheticPanelSpec(
            seasons=seasons, weeks_per_season=40, peak_week_jitter=0,
            noise_scale=noise_scale, predictor_count=1, predictor_lead=lead,
            rng_seed=seed,
        )
    )
    rng = np.random.default_rng(seed + 1000)
    noise = tuple(
        Series(name=f"noise{i + 1}", values=0.8 + 0.1 * rng.standard_normal(base.n_weeks))
        for i in range(n_noise)
    )
    lead_series = Series(name="lead3", values=base.candidates[0].values)
    return AlignedPanel(base.axis, base.gold, (lead_series,) + noise)


def fold_contexts(panel, held_out=1, **kwargs):
    """Fold contexts over the lambda grid ``GRID`` from the default events
    (epsilon 1.25, 3 weeks) and 16-week windows led by 8 weeks."""
    events = detect_events(panel.gold, 1.25, 3)
    windows = build_windows(events, 16, 8, panel.gold)
    folds = make_folds(events, held_out, panel.n_weeks)
    return prepare_fold_contexts(panel, events, windows, folds, GRID, **kwargs)


def test_make_folds_six_events_one_held_out():
    events = EventSet(1.0, 3, tuple((40 * k + 10, 40 * k + 20) for k in range(6)))
    plan = make_folds(events, 1, 240)
    assert plan.n_folds == 6
    for f, fold in enumerate(plan.folds):
        assert fold.test_seasons == (f,)
        assert len(fold.train_seasons) == 5
    # seasons partition the axis
    covered = np.zeros(240, dtype=bool)
    for lo, hi in plan.seasons:
        assert not covered[lo : hi + 1].any()
        covered[lo : hi + 1] = True
    assert covered.all()


def test_make_folds_three_fold_preset():
    events = EventSet(1.0, 3, tuple((40 * k + 10, 40 * k + 20) for k in range(6)))
    plan = make_folds(events, 2, 240)
    assert plan.n_folds == 3
    assert plan.folds[0].test_seasons == (0, 1)
    assert plan.folds[2].test_seasons == (4, 5)


def test_make_folds_remainder_goes_to_last_fold():
    events = EventSet(1.0, 3, tuple((40 * k + 10, 40 * k + 20) for k in range(5)))
    plan = make_folds(events, 2, 200)
    assert plan.n_folds == 3
    assert plan.folds[2].test_seasons == (4,)


@settings(max_examples=80, deadline=None)
@given(
    layout=st.lists(st.tuples(st.integers(0, 12), st.integers(1, 8)), min_size=2, max_size=10),
    tail=st.integers(0, 12),
    data=st.data(),
)
def test_fold_masks_partition_the_weeks(layout, tail, data):
    # layout: (weeks before the event, event length) per event
    events, week = [], 0
    for gap, duration in layout:
        events.append((week + gap, week + gap + duration - 1))
        week += gap + duration
    n_weeks = week + tail
    held_out = data.draw(st.integers(1, len(events) - 1))
    plan = make_folds(EventSet(1.0, 1, tuple(events)), held_out, n_weeks)
    tested = np.zeros(n_weeks, dtype=int)
    for f in range(plan.n_folds):
        test = plan.test_mask(f, n_weeks)
        tested += test
        assert np.array_equal(plan.train_mask(f, n_weeks), ~test)
    assert (tested == 1).all()


def test_make_folds_rejects_degenerate_split():
    events = EventSet(1.0, 3, ((10, 20), (50, 60)))
    with pytest.raises(ValueError):
        make_folds(events, 2, 100)


def test_each_event_lives_in_its_season():
    panel = mixed_panel()
    events = detect_events(panel.gold, 1.25, 3)
    plan = make_folds(events, 1, panel.n_weeks)
    for k, (es, ee) in enumerate(events.events):
        lo, hi = plan.seasons[k]
        assert lo <= es <= ee <= hi


def test_score_subset_lead_predictor_beats_half_on_every_fold():
    panel = mixed_panel()
    events = detect_events(panel.gold, 1.25, 3)
    folds = make_folds(events, 1, panel.n_weeks)
    audit = AuditLog()
    mean_score = score_subset(
        ("lead3",), fold_contexts(panel), PHI, sims=SIMS, seed=0, audit=audit,
    )
    assert mean_score > 0.5
    fold_scores = [fit.held_out for fit in audit.entries]
    assert len(fold_scores) == folds.n_folds
    assert all(s > 0.5 for s in fold_scores)


def test_score_subset_never_alarming_candidate_scores_zero():
    # constant candidate: zero deviation on real data, no alarms, dT = T_w
    panel = mixed_panel()
    flat = Series(name="flat", values=np.full(panel.n_weeks, 5.0))
    panel = AlignedPanel(panel.axis, panel.gold, panel.candidates + (flat,))
    score = score_subset(("flat",), fold_contexts(panel), PHI, sims=SIMS, seed=0)
    assert score == 0.0


def test_pure_noise_score_indistinguishable_from_shuffled_alarms():
    panel = mixed_panel()
    events = detect_events(panel.gold, 1.25, 3)
    windows = build_windows(events, 16, 8, panel.gold)
    folds = make_folds(events, 1, panel.n_weeks)
    contexts = prepare_fold_contexts(panel, events, windows, folds, GRID)

    rng = np.random.default_rng(0)
    observed = []
    permuted = []
    for ctx in contexts:
        point = optimize_step(
            ctx.table, ctx.train_windows, (), ("noise1",), PHI, sims=SIMS, seed=(0, ctx.fold)
        )[0].point
        trace = ctx.table.scan(point.lam, ("noise1",), point.h)
        observed.append(performance(trace, ctx.test_windows))
        onset_count = len(trace.cluster_onsets)
        for _ in range(200):
            fake = np.unique(rng.integers(0, panel.n_weeks, size=onset_count))
            fake_trace = AlarmTrace(E=np.zeros(panel.n_weeks), alarm_weeks=fake,
                                    cluster_onsets=fake)
            permuted.append(performance(fake_trace, ctx.test_windows))
    obs = float(np.mean(observed))
    lo, hi = np.quantile(permuted, [0.025, 0.975])
    assert lo <= obs <= hi


def test_forward_select_single_candidate_forced_choice():
    panel = mixed_panel(n_noise=0)
    trace = forward_select(fold_contexts(panel), 3, PHI, sims=SIMS, seed=0)
    assert len(trace.steps) == 1
    assert trace.steps[0].chosen == "lead3"


def test_forward_select_prefers_leading_predictor_over_noise():
    panel = mixed_panel(n_noise=2)
    trace = forward_select(fold_contexts(panel), 2, PHI, sims=SIMS, seed=0)
    assert trace.steps[0].chosen == "lead3"


def test_greedy_first_pick_equals_exhaustive_best_singleton():
    panel = mixed_panel(n_noise=3, seed=17, noise_scale=0.05)
    contexts = fold_contexts(panel)
    trace = forward_select(contexts, 2, PHI, sims=SIMS, seed=3)
    singles = {
        name: score_subset((name,), contexts, PHI, sims=SIMS, seed=3)
        for name in panel.candidate_names()
    }
    best = max(panel.candidate_names(), key=lambda n: singles[n])
    assert trace.steps[0].chosen == best
    assert trace.steps[0].score == singles[best]


def test_forward_select_deterministic_per_seed():
    panel = mixed_panel(noise_scale=0.05)
    a = forward_select(fold_contexts(panel), 3, PHI, sims=SIMS, seed=4)
    b = forward_select(fold_contexts(panel), 3, PHI, sims=SIMS, seed=4)
    assert a == b


def test_trace_scores_nondecreasing_and_stop_reason():
    panel = mixed_panel(n_noise=2, noise_scale=0.05)
    trace = forward_select(fold_contexts(panel), 3, PHI, sims=SIMS, seed=0)
    scores = [s.score for s in trace.steps]
    assert all(a < b for a, b in zip(scores, scores[1:]))
    assert trace.stop_reason in ("reached-k", "performance-leveled-off")
    if trace.stop_reason == "reached-k" and len(trace.steps) < 3:
        pytest.fail("short trace must be explained by leveling off")


def _trace(*names, scores=None):
    scores = scores or [1.0] * len(names)
    return SelectionTrace(
        steps=tuple(
            SelectionStep(chosen=n, score=s, candidate_scores=((n, s),))
            for n, s in zip(names, scores)
        ),
        stop_reason="reached-k",
    )


def test_aggregate_unanimous_traces():
    traces = [_trace("a", "b", "c") for _ in range(5)]
    agg = aggregate_replicates(traces, k_max=3)
    assert agg.selected() == ("a", "b", "c")
    assert [r[1] for r in agg.ranking] == [1.0, 2.0, 3.0]


def test_aggregate_median_rank_arithmetic():
    traces = [_trace("a", "b"), _trace("a", "b"), _trace("b", "c", "a")]
    agg = aggregate_replicates(traces, k_max=3)
    ranks = dict((name, med) for name, med, _ in agg.ranking)
    # a: ranks 1,1,3 -> median 1
    assert ranks["a"] == 1.0


def test_aggregate_absent_predictor_ranked_last():
    # selected in 10 of 40 replicates at position 1, absent otherwise, k=8
    traces = [_trace("rare", "common") if r < 10 else _trace("common") for r in range(40)]
    agg = aggregate_replicates(traces, k_max=8)
    ranks = dict((name, med) for name, med, _ in agg.ranking)
    # rare: 10 ranks of 1 and 30 ranks of 9 -> median 9
    assert ranks["rare"] == 9.0
    assert agg.selected()[-1] == "rare"


def test_aggregate_brute_force_oracle():
    rng = np.random.default_rng(12)
    pool = ["a", "b", "c", "d", "e"]
    traces = []
    for _ in range(15):
        k = int(rng.integers(1, 5))
        picks = list(rng.choice(pool, size=k, replace=False))
        traces.append(_trace(*picks))
    k_max = 4
    agg = aggregate_replicates(traces, k_max=k_max)
    for name, med, freq in agg.ranking:
        ranks = []
        count = 0
        for t in traces:
            sel = t.selected()
            if name in sel:
                ranks.append(sel.index(name) + 1)
                count += 1
            else:
                ranks.append(k_max + 1)
        assert med == float(np.median(ranks))
        assert freq == count


def test_leakage_audit_clean_across_presets():
    panel = mixed_panel(noise_scale=0.05)
    events = detect_events(panel.gold, 1.25, 3)
    for held_out in (1, 2):
        folds = make_folds(events, held_out, panel.n_weeks)
        audit = AuditLog()
        score_subset(
            ("lead3", "noise1"), fold_contexts(panel, held_out), PHI,
            sims=SIMS, seed=0, audit=audit,
        )
        assert audit.entries
        problems = audit_leakage(folds, panel.n_weeks, audit)
        assert problems == []


def test_leakage_audit_flags_contaminated_entry():
    panel = mixed_panel()
    events = detect_events(panel.gold, 1.25, 3)
    folds = make_folds(events, 1, panel.n_weeks)
    audit = AuditLog()
    score_subset(("lead3",), fold_contexts(panel), PHI, sims=SIMS, seed=0, audit=audit)
    fit = audit.entries[0]
    held_out = np.flatnonzero(folds.test_mask(fit.context.fold, panel.n_weeks))
    leaked = np.append(fit.context.baseline_weeks, held_out[0])
    audit.entries[0] = replace(fit, context=replace(fit.context, baseline_weeks=leaked))
    problems = audit_leakage(folds, panel.n_weeks, audit)
    assert any("held-out weeks" in p for p in problems)


def test_audit_records_the_fold_fits_themselves():
    panel = mixed_panel(noise_scale=0.05)
    contexts = fold_contexts(panel)
    audit = AuditLog()
    score = score_subset(("lead3", "noise1"), contexts, PHI, sims=SIMS, seed=0, audit=audit)
    assert len(audit.entries) == len(contexts)
    for fit, ctx in zip(audit.entries, contexts):
        assert fit.context is ctx
        assert fit.subset == ("lead3", "noise1")
    assert float(np.mean([fit.held_out for fit in audit.entries])) == score


def test_step_scores_equal_per_subset_scores(synth_panel):
    contexts = fold_contexts(synth_panel)
    kwargs = dict(sims=SIMS, seed=2)
    trace = forward_select(contexts, 2, PHI, min_improvement=-np.inf, **kwargs)
    assert len(trace.steps) == 2
    chosen: list[str] = []
    for step in trace.steps:
        assert len(step.candidate_scores) == len(synth_panel.candidate_names()) - len(chosen)
        for cand, score in step.candidate_scores:
            assert score == score_subset(chosen + [cand], contexts, PHI, **kwargs)
        chosen.append(step.chosen)


def test_selection_reads_its_pool_from_the_contexts():
    # contexts over a reordered strict subset of the panel's candidates
    panel = mixed_panel(n_noise=2)
    pool = ("noise2", "lead3")
    contexts = fold_contexts(panel, candidates=pool)
    trace = forward_select(contexts, 2, PHI, sims=SIMS, seed=1, min_improvement=-np.inf)
    assert len(trace.steps) == 2
    remaining = list(pool)
    for step in trace.steps:
        assert [cand for cand, _ in step.candidate_scores] == remaining
        remaining.remove(step.chosen)
    assert trace.steps[0].candidate_scores == tuple(
        (cand, score_subset((cand,), contexts, PHI, sims=SIMS, seed=1)) for cand in pool
    )
