"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 9 needs a real national ILINet export (weekly CSV under the
panel file contract) supplied via the EPIWARN_ILINET_CSV environment
variable and is skipped otherwise.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from epiwarn.baselines import RiseTriggerConfig, WeekTriggerConfig, fit_baseline, rise_trigger, week_trigger
from epiwarn.calibrate import simulate_atfs, solve_threshold
from epiwarn.cli import main as cli_main
from epiwarn.events import DetectionWindowSet, build_windows, detect_events
from epiwarn.evaluate import lead_vs_threshold, performance
from epiwarn.mewma import (
    AlarmTrace,
    DetectorConfig,
    NullModel,
    estimate_null,
    precompute_shared_states,
    run_scan,
)
from epiwarn.panel import AlignedPanel, Series, SyntheticPanelSpec, generate_synthetic, load_panel
from epiwarn.pipeline import evaluate_mewma_cv
from epiwarn.selection import (
    AuditLog,
    aggregate_replicates,
    audit_leakage,
    forward_select,
    make_folds,
    prepare_fold_contexts,
    score_subset,
)

from conftest import make_panel


def _report(n, detail=""):
    print(f"\n[acceptance] criterion {n}: PASS {detail}".rstrip())


# -------------------------------------------------------------------------
# 1. MEWMA oracle equivalence
# -------------------------------------------------------------------------

def reference_scan(X, mu, sigma, lam):
    """The scan recursion written straight from its defining equations,
    loop by loop, with an explicit matrix inverse."""
    n, d = X.shape
    S = np.zeros((n, d))
    E = np.zeros(n)
    inv = np.linalg.inv((lam / (2.0 - lam)) * sigma)
    s_prev = np.zeros(d)
    for t in range(n):
        raw = lam * (X[t] - mu) + (1.0 - lam) * s_prev
        s = np.array([max(0.0, float(v)) for v in raw])
        S[t] = s
        E[t] = float(s @ inv @ s)
        s_prev = s
    return S, E


def test_criterion_1_mewma_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(20):
        n, d = 200, 3
        mu = rng.normal(size=d)
        A = rng.normal(size=(d, d))
        sigma = A @ A.T + 0.5 * np.eye(d)
        X = rng.multivariate_normal(mu, sigma, size=n)
        panel = make_panel(np.zeros(n), [X[:, j] for j in range(d)])
        null = NullModel(panel.candidate_names(), mu, sigma, n)
        lam = float(rng.uniform(0.1, 0.9))
        h = float(rng.uniform(1.0, 12.0))
        trace = run_scan(panel, null, DetectorConfig(panel.candidate_names(), lam, h))
        S_ref, E_ref = reference_scan(X, mu, sigma, lam)
        assert np.max(np.abs(trace.S - S_ref) / np.maximum(np.abs(S_ref), 1.0)) <= 1e-10
        assert np.max(np.abs(trace.E - E_ref) / np.maximum(np.abs(E_ref), 1.0)) <= 1e-10
        assert np.array_equal(trace.alarm_weeks, np.flatnonzero(E_ref > h))

        # subset projection equals the direct path exactly
        table = precompute_shared_states(panel, null, [lam])
        for subset in [(panel.candidate_names()[0],), panel.candidate_names()[:2]]:
            via = table.scan(lam, subset, h)
            direct = run_scan(panel, null.subset(subset), DetectorConfig(subset, lam, h))
            assert np.array_equal(via.S, direct.S)
            assert np.array_equal(via.E, direct.E)
            assert np.array_equal(via.alarm_weeks, direct.alarm_weeks)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s (limit 10s)"
    _report(1, f"(oracle equivalence on 20 random panels, {elapsed:.1f}s)")


# -------------------------------------------------------------------------
# 2. Calibration contract
# -------------------------------------------------------------------------

def test_criterion_2_calibration_contract():
    start = time.perf_counter()
    null = NullModel(("x",), np.array([0.0]), np.array([[1.0]]), 1000)
    resims = {}
    for lam in (0.1, 0.5, 0.9):
        h = solve_threshold(null, lam, 20.0, seed=0)
        est = simulate_atfs(null, lam, h, sims=5000, length=200, seed=31415)
        resims[lam] = est.atfs
        assert abs(est.atfs - 20.0) <= 1.0, f"lam={lam}: re-simulated ATFS {est.atfs}"
        h10 = solve_threshold(null, lam, 10.0, seed=0)
        h40 = solve_threshold(null, lam, 40.0, seed=0)
        assert h10 < h < h40, f"lam={lam}: h not monotone in target"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 2 took {elapsed:.1f}s (limit 120s)"
    detail = ", ".join(f"lam={l}: {v:.2f}" for l, v in resims.items())
    _report(2, f"(re-simulated ATFS {detail}; {elapsed:.1f}s)")


# -------------------------------------------------------------------------
# 3. Timeliness arithmetic
# -------------------------------------------------------------------------

def test_criterion_3_timeliness_arithmetic():
    t_w = 16
    starts = (30, 100)
    windows = DetectionWindowSet(
        window_length=t_w,
        lead=8,
        windows=tuple((s, s + t_w - 1) for s in starts),
        flags=((), ()),
        events=tuple((s + 8, s + 20) for s in starts),
        n_weeks=200,
    )

    def trace(onsets):
        o = np.asarray(sorted(onsets), dtype=int)
        return AlarmTrace(E=np.zeros(200), alarm_weeks=o, cluster_onsets=o)

    cases = [
        ([30, 100], 1.0),                       # ceiling
        ([], 0.0),                              # floor
        ([30, 108], 0.75),                      # mean of {1, 0.5}
        ([38, 108], 0.5),
        ([45, 115], 1.0 / 16.0),
        ([30], 0.5),
        ([108], 0.25),
        ([31, 101], 15.0 / 16.0),
        ([34, 112], 0.5),
        ([29, 100], 0.5),                       # onset before its window is not timely
    ]
    for onsets, expected in cases:
        got = performance(trace(onsets), windows)
        assert got == pytest.approx(expected, abs=0.0), f"{onsets}: {got} != {expected}"
    _report(3, f"({len(cases)} hand-computed traces, exact)")


# -------------------------------------------------------------------------
# 4. Greedy versus exhaustive selection
# -------------------------------------------------------------------------

def _trial_panel(seed):
    rng = np.random.default_rng(seed)
    base = generate_synthetic(
        SyntheticPanelSpec(
            seasons=4, weeks_per_season=30, baseline_level=0.8, peak_height=4.0,
            peak_week_jitter=1, noise_scale=0.05, predictor_count=1,
            predictor_lead=int(rng.integers(1, 4)), rng_seed=seed,
        )
    )
    n = base.n_weeks
    lagged = np.concatenate([np.full(2, base.gold.values[0]), base.gold.values[:-2]])
    candidates = (
        Series(name="a_lead", values=base.candidates[0].values),
        Series(name="b_gold", values=base.gold.values + 0.05 * rng.standard_normal(n)),
        Series(name="c_lag", values=lagged + 0.05 * rng.standard_normal(n)),
        Series(name="d_noise", values=0.8 + 0.1 * rng.standard_normal(n)),
        Series(name="e_noise", values=0.8 + 0.2 * np.abs(rng.standard_normal(n))),
    )
    return AlignedPanel(base.axis, base.gold, candidates)


def test_criterion_4_greedy_vs_exhaustive():
    from itertools import combinations

    trials = 100
    phi, grid, sims, t_w = 10.0, (0.4,), 30, 16
    first_pick_hits = 0
    pair_top3_hits = 0
    pair_failures = []
    for trial in range(trials):
        panel = _trial_panel(3000 + trial)
        events = detect_events(panel.gold, 1.25, 3)
        folds = make_folds(events, 2, panel.n_weeks)
        windows = build_windows(events, t_w, 8, panel.gold)
        contexts = prepare_fold_contexts(panel, events, windows, folds, grid)
        names = panel.candidate_names()
        kwargs = dict(sims=sims, seed=trial)

        singles = {n: score_subset((n,), contexts, phi, **kwargs) for n in names}
        pairs = {
            frozenset(p): score_subset(p, contexts, phi, **kwargs)
            for p in combinations(names, 2)
        }
        # min_improvement=-inf forces the full 2-subset even when the second
        # predictor does not help, since the criterion compares greedy pairs
        trace = forward_select(contexts, 2, phi, min_improvement=-np.inf, **kwargs)
        best_single = max(names, key=lambda n: singles[n])
        if trace.steps[0].chosen == best_single:
            first_pick_hits += 1

        assert len(trace.steps) == 2
        greedy_pair = frozenset(s.chosen for s in trace.steps[:2])
        ranked = sorted(pairs, key=lambda p: -pairs[p])
        rank = ranked.index(greedy_pair) + 1
        if rank <= 3:
            pair_top3_hits += 1
        else:
            pair_failures.append((trial, rank, sorted(greedy_pair)))

    assert first_pick_hits == trials, f"first pick matched in {first_pick_hits}/{trials}"
    assert pair_top3_hits >= 95, (
        f"greedy pair in exhaustive top-3 only {pair_top3_hits}/{trials}; "
        f"failures: {pair_failures}"
    )
    detail = f"(first pick {first_pick_hits}/100, pair top-3 {pair_top3_hits}/100"
    if pair_failures:
        detail += f"; documented failures: {pair_failures}"
    _report(4, detail + ")")


# -------------------------------------------------------------------------
# 5. Leakage guard
# -------------------------------------------------------------------------

def test_criterion_5_leakage_guard(synth_panel):
    events = detect_events(synth_panel.gold, 1.25, 3)
    windows = build_windows(events, 16, 8, synth_panel.gold)
    checked = 0
    for held_out in (1, 2):  # select-6fold and compare-3fold presets
        folds = make_folds(events, held_out, synth_panel.n_weeks)
        contexts = prepare_fold_contexts(synth_panel, events, windows, folds, (0.3, 0.6))
        audit = AuditLog()
        score_subset(
            synth_panel.candidate_names()[:2], contexts, 20.0, sims=60, seed=0, audit=audit,
        )
        evaluate_mewma_cv(
            synth_panel, synth_panel.candidate_names()[:1], events, windows, folds,
            20.0, sims=60, lambda_grid=(0.3, 0.6), seed=0, audit=audit,
        )
        assert len(audit.entries) == 2 * folds.n_folds
        problems = audit_leakage(folds, synth_panel.n_weeks, audit)
        assert problems == [], problems
        checked += len(audit.entries)
    _report(5, f"({checked} fold fits audited across both presets, zero leaks)")


# -------------------------------------------------------------------------
# 6. Synthetic end-to-end
# -------------------------------------------------------------------------

def test_criterion_6_synthetic_end_to_end():
    start = time.perf_counter()
    base = generate_synthetic(
        SyntheticPanelSpec(
            seasons=6, weeks_per_season=52, peak_week_jitter=2, noise_scale=0.05,
            predictor_count=1, predictor_lead=3, rng_seed=42,
        )
    )
    rng = np.random.default_rng(1042)
    panel = AlignedPanel(
        base.axis,
        base.gold,
        (
            Series(name="lead3", values=base.candidates[0].values),
            Series(name="noise1", values=0.8 + 0.1 * rng.standard_normal(base.n_weeks)),
            Series(name="noise2", values=0.8 + 0.1 * rng.standard_normal(base.n_weeks)),
        ),
    )
    events = detect_events(panel.gold, 1.25, 3)
    assert len(events) == 6
    windows = build_windows(events, 16, 8, panel.gold)
    folds = make_folds(events, 1, panel.n_weeks)
    grid = (0.2, 0.5, 0.8)
    contexts = prepare_fold_contexts(panel, events, windows, folds, grid)

    traces = [forward_select(contexts, 3, 20.0, sims=200, seed=r) for r in range(5)]
    subset = aggregate_replicates(traces, 3).selected()[:3]
    assert subset, "selection chose nothing"

    selected = evaluate_mewma_cv(
        panel, subset, events, windows, folds, 20.0,
        sims=200, lambda_grid=grid, seed=0, name="selected",
    )
    gold_panel = panel.with_gold_candidate()
    univariate = evaluate_mewma_cv(
        gold_panel, (gold_panel.gold.name,), events, windows, folds, 20.0,
        sims=200, lambda_grid=grid, seed=0, name="univariate-gold",
    )

    early = sum(
        1
        for (es, _), onset in zip(events.events, selected.report.onsets)
        if onset is not None and onset < es
    )
    assert early >= 5, f"selected model early in only {early}/6 folds"

    both = [
        (s, u)
        for s, u in zip(selected.report.onsets, univariate.report.onsets)
        if s is not None and u is not None
    ]
    assert both, "no events detected by both models"
    mean_sel = float(np.mean([s for s, _ in both]))
    mean_uni = float(np.mean([u for _, u in both]))
    assert mean_sel < mean_uni, (
        f"selected onsets (mean {mean_sel:.2f}) do not precede "
        f"univariate-gold (mean {mean_uni:.2f})"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"criterion 6 took {elapsed:.0f}s (limit 600s)"
    _report(
        6,
        f"(selected {'+'.join(subset)}; early in {early}/6 folds; "
        f"mean onset {mean_sel:.1f} vs univariate {mean_uni:.1f}; {elapsed:.0f}s)",
    )


# -------------------------------------------------------------------------
# 7. Baseline behavior
# -------------------------------------------------------------------------

def test_criterion_7_baseline_behavior():
    # 2011-2013 are 52-week ISO years: exactly one alarm per year
    panel = make_panel(np.ones(156), [np.ones(156)], start="2011-W01")
    trace = week_trigger(panel, WeekTriggerConfig(34))
    assert trace.alarm_weeks.size == 3

    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(1000):
        values = rng.normal(size=40)
        n = int(rng.integers(2, 7))
        got = rise_trigger(make_panel(values, [np.ones(40)]), RiseTriggerConfig(n))
        expected = [
            t
            for t in range(n, 40)
            if all(values[t - i + 1] > values[t - i] for i in range(1, n + 1))
        ]
        assert got.alarm_weeks.tolist() == expected
        checked += 1
    _report(7, f"(week trigger 3/3 years; rise trigger matched oracle on {checked} series)")


# -------------------------------------------------------------------------
# 8. Full-run determinism
# -------------------------------------------------------------------------

def test_criterion_8_select_byte_identical(tmp_path):
    assert cli_main([
        "synth", "--out", str(tmp_path / "panel"), "--seasons", "6",
        "--weeks-per-season", "40", "--predictors", "3", "--noise", "0.05",
        "--seed", "5",
    ]) == 0
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "manifest = panel/panel.manifest\nepsilon = 1.25\nwindow = 16\nlead = 8\n"
        "atfs = 20\nsims = 60\nlambda_grid = 0.3,0.6\nk_max = 2\nreplicates = 2\n"
        "fold_preset = select-6fold\nseed = 3\n"
    )
    trees = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        assert cli_main([
            "select", "--config", str(cfg), "--out", str(out), "--workers", "1",
        ]) == 0
        trees.append({
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
        })
    assert trees[0].keys() == trees[1].keys()
    assert trees[0] == trees[1]
    _report(8, f"({len(trees[0])} files byte-identical across two runs)")


# -------------------------------------------------------------------------
# 9. Data-conditional checks on a real ILINet export
# -------------------------------------------------------------------------

ILINET_ENV = "EPIWARN_ILINET_CSV"


@pytest.mark.skipif(
    ILINET_ENV not in os.environ,
    reason=f"set {ILINET_ENV} to a 2010-2016 national ILINet weekly CSV to run",
)
def test_criterion_9_real_ilinet_checks():
    path = Path(os.environ[ILINET_ENV])
    panel = load_panel(path, [path])
    events = detect_events(panel.gold, 1.25, 3)
    assert len(events) == 6, f"expected 6 events at 1.25%, found {len(events)}"

    windows = build_windows(events, 16, 8, panel.gold)
    folds = make_folds(events, 2, panel.n_weeks)
    week_cfg = fit_baseline(panel, events, windows, range(1, 54), "week", folds)
    assert week_cfg.trigger_week == 34
    rise_cfg = fit_baseline(panel, events, windows, range(2, 21), "rise", folds)
    assert rise_cfg.n_consecutive == 4

    gold_panel = panel.with_gold_candidate()
    events_null = detect_events(gold_panel.gold, 1.25, 3)
    null = estimate_null(gold_panel, events_null, (gold_panel.gold.name,))
    from epiwarn.calibrate import optimize_params

    point = optimize_params(
        gold_panel, events_null, windows, (gold_panel.gold.name,), 20.0, sims=1000, seed=0
    )
    trace = run_scan(
        gold_panel, null, DetectorConfig((gold_panel.gold.name,), point.lam, point.h)
    )
    leads = lead_vs_threshold(trace, gold_panel.gold, 2.0, events_null, windows)
    assert leads.mean_lead is not None
    assert abs(leads.mean_lead - 11.7) <= 2.0
    _report(9, f"(6 events, week 34, n=4, mean lead {leads.mean_lead:.1f})")
