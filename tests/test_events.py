import numpy as np
import pytest

from epiwarn.events import (
    BASELINE,
    EVENT_AFTER_WINDOW,
    IN_WINDOW,
    EventSet,
    WindowOverlapError,
    build_windows,
    detect_events,
    write_events_csv,
)
from epiwarn.panel import Series, WeekAxis


def _series(values):
    return Series(name="gold", values=np.asarray(values, dtype=float))


def test_single_run_detected():
    events = detect_events(_series([1.0, 1.3, 1.4, 1.3, 1.0]), 1.25, 3)
    assert events.events == ((1, 3),)


def test_short_runs_filtered():
    events = detect_events(_series([1.3, 1.3, 1.0, 1.3, 1.3]), 1.25, 3)
    assert events.events == ()


def test_threshold_outside_range_warns_empty(caplog):
    with caplog.at_level("WARNING"):
        events = detect_events(_series([1.0, 2.0, 1.0]), 5.0, 3)
    assert events.events == ()
    assert "outside observed gold range" in caplog.text
    with caplog.at_level("WARNING"):
        low = detect_events(_series([1.0, 2.0, 1.0]), 0.5, 3)
    assert low.events == ()


def test_inclusive_threshold_comparison():
    # weeks exactly at the threshold count as in-event
    events = detect_events(_series([1.0, 1.25, 1.25, 1.25, 1.0]), 1.25, 3)
    assert events.events == ((1, 3),)


def test_detection_invariant_under_padding():
    core = [1.0, 1.5, 1.6, 1.7, 1.0]
    base = detect_events(_series(core), 1.25, 3)
    padded = detect_events(_series([0.9, 0.9] + core + [0.9]), 1.25, 3)
    assert padded.events == tuple((s + 2, e + 2) for s, e in base.events)


def test_every_event_week_at_or_above_threshold():
    rng = np.random.default_rng(42)
    for _ in range(25):
        values = rng.uniform(0.5, 3.0, size=120)
        events = detect_events(_series(values), 1.25, 2)
        for s, e in events.events:
            assert np.all(values[s : e + 1] >= 1.25)
            if s > 0:
                assert values[s - 1] < 1.25
            if e < len(values) - 1:
                assert values[e + 1] < 1.25


def test_windows_nominal_placement():
    gold = _series(np.concatenate([np.ones(40), np.full(10, 2.0), np.ones(30)]))
    events = detect_events(gold, 1.25, 3)
    assert events.events == ((40, 49),)
    windows = build_windows(events, 16, 8, gold)
    assert windows.windows == ((32, 47),)
    assert windows.flags == ((),)


def test_window_clipped_at_panel_start():
    gold = _series(np.concatenate([np.ones(3), np.full(8, 2.0), np.ones(40)]))
    events = detect_events(gold, 1.25, 3)
    assert events.events == ((3, 10),)
    windows = build_windows(events, 16, 8, gold)
    assert windows.windows[0][0] == 0
    assert "clipped_start" in windows.flags[0]


def test_overlapping_windows_rejected():
    values = np.ones(60)
    values[10:16] = 2.0
    values[20:26] = 2.0
    gold = _series(values)
    events = detect_events(gold, 1.25, 3)
    assert len(events) == 2
    with pytest.raises(WindowOverlapError, match="smaller window"):
        build_windows(events, 16, 8, gold)


def test_default_lead_is_half_window():
    gold = _series(np.concatenate([np.ones(40), np.full(10, 2.0), np.ones(30)]))
    events = detect_events(gold, 1.25, 3)
    windows = build_windows(events, 16, None, gold)
    assert windows.lead == 8
    assert windows.windows == ((32, 47),)


def test_classification_partitions_weeks():
    values = np.ones(120)
    values[40:70] = 2.0  # long event outrunning its window
    gold = _series(values)
    events = detect_events(gold, 1.25, 3)
    windows = build_windows(events, 16, 8, gold)
    labels = windows.classify()
    for t in range(120):
        in_window = any(ws <= t <= we for ws, we in windows.windows)
        in_event_after = any(
            es <= t <= ee and t > we
            for (es, ee), (ws, we) in zip(windows.events, windows.windows)
        ) and not in_window
        expected = IN_WINDOW if in_window else EVENT_AFTER_WINDOW if in_event_after else BASELINE
        assert labels[t] == expected
    assert set(np.unique(labels)) == {BASELINE, IN_WINDOW, EVENT_AFTER_WINDOW}


def test_event_set_validation():
    with pytest.raises(ValueError):
        EventSet(1.0, 3, ((5, 3),))
    with pytest.raises(ValueError):
        EventSet(1.0, 3, ((0, 5), (4, 9)))


def test_events_csv_serialization(tmp_path):
    gold = _series(np.concatenate([np.ones(40), np.full(10, 2.0), np.ones(30)]))
    events = detect_events(gold, 1.25, 3)
    windows = build_windows(events, 16, 8, gold)
    axis = WeekAxis(start="2010-W01", length=80)
    out = tmp_path / "events.csv"
    write_events_csv(windows, axis, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "event_index,start_week,end_week,window_start,window_end"
    assert lines[1].split(",") == ["0", "2010-W41", "2010-W50", "2010-W33", "2010-W48"]


def test_baseline_mask_excludes_event_weeks_only():
    gold = _series(np.concatenate([np.ones(10), np.full(5, 2.0), np.ones(10)]))
    events = detect_events(gold, 1.25, 3)
    mask = events.baseline_mask(25)
    expected = np.array([not (10 <= t <= 14) for t in range(25)])
    assert np.array_equal(mask, expected)
