import numpy as np
import pytest

from epiwarn.baselines import (
    RiseTriggerConfig,
    WeekTriggerConfig,
    fit_baseline,
    rise_trigger,
    week_trigger,
)
from epiwarn.events import build_windows, detect_events
from epiwarn.panel import SyntheticPanelSpec, generate_synthetic
from epiwarn.selection import make_folds

from conftest import make_panel


def _full_year_panel(years=3, start="2011-W01"):
    # 2011-2013 are 52-week ISO years
    n = years * 52
    return make_panel(np.ones(n), [np.ones(n)], start=start)


def test_week_trigger_one_alarm_per_year():
    panel = _full_year_panel(3)
    trace = week_trigger(panel, WeekTriggerConfig(34))
    assert trace.alarm_weeks.size == 3
    assert np.array_equal(trace.alarm_weeks, trace.cluster_onsets)
    assert [int(panel.axis.iso_weeks[w]) for w in trace.alarm_weeks] == [34, 34, 34]


def test_week_trigger_range_check():
    with pytest.raises(ValueError, match="trigger_week"):
        WeekTriggerConfig(54)
    with pytest.raises(ValueError, match="trigger_week"):
        WeekTriggerConfig(0)


def test_week_trigger_needs_a_year():
    panel = make_panel(np.ones(20), [np.ones(20)])
    with pytest.raises(ValueError, match="at least one year"):
        week_trigger(panel, WeekTriggerConfig(10))


def test_rise_trigger_strict_rise():
    panel = make_panel([1.0, 2.0, 3.0, 4.0, 5.0], [np.ones(5)])
    trace = rise_trigger(panel, RiseTriggerConfig(4))
    assert trace.alarm_weeks.tolist() == [4]


def test_rise_trigger_nonincreasing_never_alarms():
    panel = make_panel([5.0, 4.0, 4.0, 3.0, 2.0, 2.0], [np.ones(6)])
    trace = rise_trigger(panel, RiseTriggerConfig(2))
    assert trace.alarm_weeks.size == 0


def test_rise_trigger_plateau_resets_run():
    panel = make_panel([1, 2, 3, 3, 4, 5, 6, 7], [np.ones(8)])
    trace = rise_trigger(panel, RiseTriggerConfig(4))
    assert trace.alarm_weeks.tolist() == [7]


def test_rise_trigger_invariant_under_constant_shift():
    rng = np.random.default_rng(1)
    values = rng.normal(size=80)
    a = rise_trigger(make_panel(values, [np.ones(80)]), RiseTriggerConfig(3))
    b = rise_trigger(make_panel(values + 10.0, [np.ones(80)]), RiseTriggerConfig(3))
    assert np.array_equal(a.alarm_weeks, b.alarm_weeks)


def test_rise_trigger_equivariant_under_prepended_weeks():
    rng = np.random.default_rng(2)
    values = rng.normal(size=60) + 5.0
    prefix = np.array([5.0, 4.9])  # below trend, not rising into the series
    a = rise_trigger(make_panel(values, [np.ones(60)]), RiseTriggerConfig(3))
    b = rise_trigger(make_panel(np.concatenate([prefix, values]), [np.ones(62)]),
                     RiseTriggerConfig(3))
    shifted = set((a.alarm_weeks + 2).tolist())
    assert shifted <= set(b.alarm_weeks.tolist())


def rise_oracle(values, n):
    """Brute force: check the n steps into each week one by one."""
    alarms = []
    for t in range(len(values)):
        if t < n:
            continue
        if all(values[t - i + 1] > values[t - i] for i in range(1, n + 1)):
            alarms.append(t)
    return alarms


def test_rise_trigger_matches_bruteforce_oracle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        values = rng.normal(size=60)
        n = int(rng.integers(2, 8))
        panel = make_panel(values, [np.ones(60)])
        trace = rise_trigger(panel, RiseTriggerConfig(n))
        assert trace.alarm_weeks.tolist() == rise_oracle(values, n)


def test_fit_baseline_recovers_constructed_trigger_week():
    # noiseless seasonal panel: every event starts the same in-season week,
    # so the best trigger week is the window-start week
    spec = SyntheticPanelSpec(
        seasons=6, weeks_per_season=52, peak_week_jitter=0, noise_scale=0.0,
        predictor_count=1, predictor_lead=0, rng_seed=1, start_week="2010-W01",
    )
    panel = generate_synthetic(spec)
    events = detect_events(panel.gold, 1.25, 3)
    assert len(events) == 6
    starts = {s % 52 for s, _ in events.events}
    assert len(starts) == 1
    event_start_offset = starts.pop()
    windows = build_windows(events, 16, 8, panel.gold)
    folds = make_folds(events, 2, panel.n_weeks)
    config = fit_baseline(panel, events, windows, range(1, 54), "week", folds)
    # iso week of the window start: in-season offset + 1, minus the 8-week lead
    assert config.trigger_week == event_start_offset - 8 + 1


def test_fit_baseline_rise_on_synthetic():
    spec = SyntheticPanelSpec(
        seasons=6, weeks_per_season=52, peak_week_jitter=0, noise_scale=0.0,
        predictor_count=1, predictor_lead=0, rng_seed=1,
    )
    panel = generate_synthetic(spec)
    events = detect_events(panel.gold, 1.25, 3)
    windows = build_windows(events, 16, 8, panel.gold)
    folds = make_folds(events, 2, panel.n_weeks)
    config = fit_baseline(panel, events, windows, range(2, 21), "rise", folds)
    # a noiseless pulse rises monotonically from its support start; the
    # smallest n alarms earliest and wins
    assert config.n_consecutive == 2


def test_fit_baseline_rejects_empty_grid():
    panel = _full_year_panel()
    events = detect_events(panel.gold, 0.5, 1)
    with pytest.raises(ValueError, match="nonempty"):
        fit_baseline(panel, events, None, [], "week", None)


def test_fitted_trigger_beats_other_grid_weeks():
    import numpy as np
    from epiwarn.evaluate import performance

    spec = SyntheticPanelSpec(
        seasons=6, weeks_per_season=52, peak_week_jitter=0, noise_scale=0.0,
        predictor_count=1, predictor_lead=0, rng_seed=1, start_week="2010-W01",
    )
    panel = generate_synthetic(spec)
    events = detect_events(panel.gold, 1.25, 3)
    windows = build_windows(events, 16, 8, panel.gold)
    folds = make_folds(events, 2, panel.n_weeks)
    fitted = fit_baseline(panel, events, windows, range(1, 54), "week", folds)

    def cv_score(week):
        trace = week_trigger(panel, WeekTriggerConfig(week))
        return float(np.mean([
            performance(trace, windows.select(folds.folds[f].test_seasons))
            for f in range(folds.n_folds)
        ]))

    best = cv_score(fitted.trigger_week)
    rng = np.random.default_rng(0)
    others = [int(w) for w in rng.choice(53, size=10, replace=False) + 1
              if w != fitted.trigger_week]
    assert all(best >= cv_score(w) for w in others)
    assert best > np.mean([cv_score(w) for w in others])
