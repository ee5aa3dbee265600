import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epiwarn.events import DetectionWindowSet, build_windows, detect_events
from epiwarn import evaluate, mewma
from epiwarn.evaluate import lead_vs_threshold, performance, score
from epiwarn.mewma import AlarmTrace
from epiwarn.panel import Series
from epiwarn.pipeline import _restrict_trace


def trace_with_onsets(onsets, n=200):
    onsets = np.asarray(sorted(onsets), dtype=int)
    return AlarmTrace(E=np.zeros(n), alarm_weeks=onsets, cluster_onsets=onsets)


def windows_at(starts, t_w=16, event_len=10, n=200):
    windows = tuple((s, s + t_w - 1) for s in starts)
    lead = t_w // 2
    events = tuple((s + lead, s + lead + event_len - 1) for s in starts)
    return DetectionWindowSet(
        window_length=t_w,
        lead=lead,
        windows=windows,
        flags=tuple(() for _ in starts),
        events=events,
        n_weeks=n,
    )


def test_performance_ceiling():
    w = windows_at([30, 100])
    assert performance(trace_with_onsets([30, 100]), w) == 1.0


def test_performance_floor_no_onsets():
    w = windows_at([30, 100])
    assert performance(trace_with_onsets([]), w) == 0.0


def test_performance_mean_of_one_and_half():
    # dT = {0, 8} with T_w = 16: (1 + 0.5) / 2 = 0.75
    w = windows_at([30, 100])
    assert performance(trace_with_onsets([30, 108]), w) == 0.75


def test_performance_hand_computed_battery():
    # ten constructed traces, expected values by hand from (1/N) sum(1 - dT/T_w)
    w = windows_at([30, 100])  # windows [30,45], [100,115]
    cases = [
        ([30, 100], 1.0),
        ([], 0.0),
        ([30, 108], 0.75),
        ([45, 115], 1.0 - 15.0 / 16.0),
        ([38, 108], 0.5),
        ([30], (1.0 + 0.0) / 2),
        ([108], (0.0 + 0.5) / 2),
        ([31, 101], 1.0 - 1.0 / 16.0),
        ([29, 100], (0.0 + 1.0) / 2),  # week 29 precedes its window
        ([34, 112], (0.75 + 0.25) / 2),
    ]
    for onsets, expected in cases:
        assert performance(trace_with_onsets(onsets), w) == pytest.approx(expected, abs=1e-15)


def test_performance_uses_first_in_window_onset():
    w = windows_at([30])
    assert performance(trace_with_onsets([33, 40]), w) == 1.0 - 3.0 / 16.0


def test_performance_bounds_random_traces():
    rng = np.random.default_rng(0)
    w = windows_at([30, 100])
    for _ in range(50):
        onsets = np.unique(rng.integers(0, 200, size=rng.integers(0, 20)))
        p = performance(trace_with_onsets(onsets), w)
        assert 0.0 <= p <= 1.0
        in_any = any(ws <= o <= we for o in onsets for ws, we in w.windows)
        assert (p == 0.0) == (not in_any)


def test_score_classifies_onsets():
    # windows [30,45] and [100,115]; events [38,47] and [108,117]
    w = windows_at([30, 100])
    # one true (32), one late-true (46, inside event 0 after window end),
    # one false (70)
    report = score(trace_with_onsets([32, 46, 70]), w)
    assert report.true_onset_count == 1
    assert report.late_onset_count == 1
    assert report.false_onset_count == 1
    assert report.precision == 0.5
    assert report.recall == 0.5
    assert report.missed_events == (1,)
    assert not report.precision_undefined


def test_score_empty_trace_convention():
    w = windows_at([30, 100])
    report = score(trace_with_onsets([]), w)
    assert report.performance == 0.0
    assert report.recall == 0.0
    assert report.precision == 1.0
    assert report.precision_undefined


def test_recall_one_iff_every_event_has_onset():
    w = windows_at([30, 100])
    assert score(trace_with_onsets([31, 101]), w).recall == 1.0
    assert score(trace_with_onsets([31]), w).recall == 0.5


def test_onset_mask_restricts_scoring():
    w = windows_at([30, 100])
    mask = np.zeros(200, dtype=bool)
    mask[90:130] = True
    report = score(_restrict_trace(trace_with_onsets([32, 101]), mask), w)
    assert report.onsets == (None, 101)
    assert report.true_onset_count == 1


def _reference_score(onsets, windows):
    """Scoring spelled out loop by loop: first onset per window, then one
    membership test per onset against every window and event."""
    t_w = windows.window_length
    delta_t, firsts, missed = [], [], []
    for k, (ws, we) in enumerate(windows.windows):
        inside = [w for w in onsets if ws <= w <= we]
        firsts.append(inside[0] if inside else None)
        delta_t.append(float(inside[0] - ws) if inside else float(t_w))
        if not inside:
            missed.append(k)
    true_count = false_count = late_count = 0
    for w in onsets:
        if any(ws <= w <= we for ws, we in windows.windows):
            true_count += 1
        elif any(es <= w <= ee and w > we
                 for (es, ee), (ws, we) in zip(windows.events, windows.windows)):
            late_count += 1
        else:
            false_count += 1
    classified = true_count + false_count
    return {
        "performance": sum(1.0 - dt / t_w for dt in delta_t) / len(windows),
        "delta_t": tuple(delta_t),
        "onsets": tuple(firsts),
        "precision": 1.0 if classified == 0 else true_count / classified,
        "recall": (len(windows) - len(missed)) / len(windows),
        "missed_events": tuple(missed),
        "true_onset_count": true_count,
        "false_onset_count": false_count,
        "late_onset_count": late_count,
        "precision_undefined": classified == 0,
    }


@st.composite
def scored_layouts(draw):
    """A gold series with 1-5 events, its detection windows (clipped at either
    panel edge, events possibly running past their window), and sorted onsets."""
    t_w = draw(st.integers(1, 12))
    lead = draw(st.integers(0, t_w))
    values = [1.0] * draw(st.integers(0, 12))
    for _ in range(draw(st.integers(1, 5))):
        values += [2.0] * draw(st.integers(1, 16)) + [1.0] * draw(st.integers(t_w, t_w + 8))
    values += [2.0] * draw(st.integers(0, 16))
    gold = Series(name="gold", values=np.array(values))
    windows = build_windows(detect_events(gold, 1.5, 1), t_w, lead, gold)
    onsets = draw(st.sets(st.integers(0, len(values) - 1), max_size=20))
    return trace_with_onsets(onsets, n=len(values)), windows


@settings(max_examples=300, deadline=None)
@given(layout=scored_layouts())
def test_score_matches_loop_reference(layout):
    trace, windows = layout
    report = score(trace, windows)
    assert vars(report) == _reference_score(trace.cluster_onsets.tolist(), windows)
    assert performance(trace, windows) == report.performance


@st.composite
def alarm_batches(draw):
    """Detection windows, the first clipped at the panel start and the last at
    its end, and a batch of statistic columns holding NaN, with one threshold
    per column. Column 0 alarms in week 0, in the last week and in a run that
    crosses the last window's start; the last column never alarms."""
    t_w = draw(st.integers(3, 12))
    lead = draw(st.integers(1, t_w - 2))
    values = [2.0] * draw(st.integers(1, 6))  # an event in week 0
    for _ in range(draw(st.integers(0, 10))):
        values += [1.0] * draw(st.integers(t_w, t_w + 8)) + [2.0] * draw(st.integers(1, 16))
    values += [1.0] * draw(st.integers(t_w, t_w + 8)) + [2.0]  # an event in the last week
    gold = Series(name="gold", values=np.array(values))
    windows = build_windows(detect_events(gold, 1.5, 1), t_w, lead, gold)
    n, width = len(values), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    E = rng.choice([0.0, 1.0, 2.0, 3.0, np.nan], size=(n, width))
    h = rng.choice([0.5, 1.5, 2.5], size=width)
    h[-1] = 3.5
    start = windows.windows[-1][0]
    E[[0, n - 1], 0] = 9.0
    E[start - 1 : start + 2, 0] = 9.0
    return E, h, windows


def reference_cluster_onsets(alarm_weeks) -> np.ndarray:
    """Reference: the first week of each maximal run of consecutive alarm
    weeks, read off the sorted alarm weeks themselves."""
    aw = np.asarray(alarm_weeks, dtype=int)
    if aw.size == 0:
        return aw
    keep = np.ones(aw.size, dtype=bool)
    keep[1:] = np.diff(aw) > 1
    return aw[keep]


@settings(max_examples=200, deadline=None)
@given(batch=alarm_batches())
def test_batched_timeliness_equals_each_columns_performance(batch):
    E, h, windows = batch
    assert windows.flags[0] == ("clipped_start",) and "clipped_end" in windows.flags[-1]
    alarms = mewma.alarm_mask(E, h)
    onsets = mewma.onset_mask(alarms)
    scores = evaluate.timeliness(onsets, windows)
    assert len(scores) == E.shape[1]
    for column, threshold, alarm_column, onset_column, batched in zip(
            E.T, h, alarms.T, onsets.T, scores):
        # week by week, with Python's comparison, under which NaN never alarms
        weeks = [t for t, value in enumerate(column.tolist()) if value > threshold]
        trace = AlarmTrace.from_alarms(column, mewma.alarm_mask(column, threshold))
        assert trace.alarm_weeks.tolist() == np.flatnonzero(alarm_column).tolist() == weeks
        assert (trace.cluster_onsets.tolist() == np.flatnonzero(onset_column).tolist()
                == reference_cluster_onsets(weeks).tolist())
        assert trace.E is column and trace.S is None
        assert batched == performance(trace, windows)
        assert batched == _reference_score(trace.cluster_onsets.tolist(), windows)["performance"]
    assert scores[-1] == 0.0


def _gold_with_crossings(event_start=60, gap=3, n=200):
    values = np.ones(n)
    values[event_start : event_start + 12] = 1.5  # above event threshold 1.25
    values[event_start + gap : event_start + 12] = 2.5  # above reporting 2.0
    return Series(name="gold", values=values)


def test_lead_vs_threshold_three_week_gap():
    gold = _gold_with_crossings(event_start=60, gap=3)
    events = detect_events(gold, 1.25, 3)
    assert events.events == ((60, 71),)
    windows = build_windows(events, 16, 8, gold)
    report = lead_vs_threshold(trace_with_onsets([60]), gold, 2.0, events, windows)
    assert report.leads == (3.0,)


def test_lead_vs_threshold_onset_at_crossing():
    gold = _gold_with_crossings(event_start=60, gap=0)
    events = detect_events(gold, 1.25, 3)
    windows = build_windows(events, 16, 8, gold)
    report = lead_vs_threshold(trace_with_onsets([60]), gold, 2.0, events, windows)
    assert report.leads == (0.0,)


def test_lead_five_weeks_before_crossing():
    gold = _gold_with_crossings(event_start=60, gap=5)
    events = detect_events(gold, 1.25, 3)
    windows = build_windows(events, 16, 8, gold)
    report = lead_vs_threshold(trace_with_onsets([60]), gold, 2.0, events, windows)
    assert report.leads == (5.0,)
    assert report.mean_lead == 5.0


def test_lead_event_never_reaching_threshold_excluded():
    values = np.ones(200)
    values[60:72] = 1.5  # never reaches 2.0
    gold = Series(name="gold", values=values)
    events = detect_events(gold, 1.25, 3)
    windows = build_windows(events, 16, 8, gold)
    report = lead_vs_threshold(trace_with_onsets([60]), gold, 2.0, events, windows)
    assert report.leads == (None,)
    assert report.crossed == (False,)


def test_lead_missed_event_marked():
    gold = _gold_with_crossings()
    events = detect_events(gold, 1.25, 3)
    windows = build_windows(events, 16, 8, gold)
    report = lead_vs_threshold(trace_with_onsets([]), gold, 2.0, events, windows)
    assert report.leads == (None,)
    assert report.missed_events == (0,)


def test_lead_invariant_to_alarms_after_crossing():
    gold = _gold_with_crossings(event_start=60, gap=3)
    events = detect_events(gold, 1.25, 3)
    windows = build_windows(events, 16, 8, gold)
    a = lead_vs_threshold(trace_with_onsets([58]), gold, 2.0, events, windows)
    b = lead_vs_threshold(trace_with_onsets([58, 66, 90]), gold, 2.0, events, windows)
    assert a.leads == b.leads


def test_lead_requires_reporting_at_or_above_event_threshold():
    gold = _gold_with_crossings()
    events = detect_events(gold, 1.25, 3)
    windows = build_windows(events, 16, 8, gold)
    with pytest.raises(ValueError, match="below event threshold"):
        lead_vs_threshold(trace_with_onsets([]), gold, 1.0, events, windows)
