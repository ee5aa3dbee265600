import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from epiwarn import calibrate, mewma
from epiwarn.calibrate import (
    CalibrationError,
    DEFAULT_LAMBDA_GRID,
    atfs_from_paths,
    optimize_params,
    simulate_atfs,
    simulate_statistic_paths,
    solve_threshold,
)
from epiwarn.events import build_windows, detect_events
from epiwarn.mewma import NullModel, condition_covariance

from conftest import make_panel


def unit_null(d=1, seed=None):
    if d == 1:
        return NullModel(("x",), np.array([0.0]), np.array([[1.0]]), 100)
    rng = np.random.default_rng(seed or 0)
    A = rng.normal(size=(d, d))
    names = tuple(f"x{i}" for i in range(d))
    return NullModel(names, rng.normal(size=d), A @ A.T + np.eye(d), 100)


def test_default_lambda_grid():
    assert DEFAULT_LAMBDA_GRID == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def test_h_zero_alarm_every_week():
    est = simulate_atfs(unit_null(), 0.3, 0.0, sims=50, length=100, seed=1)
    assert est.atfs == 1.0


def test_huge_threshold_returns_inf_sentinel():
    est = simulate_atfs(unit_null(), 0.3, 1e9, sims=1000, length=200, seed=1)
    assert est.atfs == np.inf


def test_simulation_deterministic_for_seed():
    a = simulate_atfs(unit_null(), 0.4, 2.5, sims=200, length=150, seed=42)
    b = simulate_atfs(unit_null(), 0.4, 2.5, sims=200, length=150, seed=42)
    assert a.atfs == b.atfs
    assert solve_threshold(unit_null(), 0.4, 20.0, seed=9) == solve_threshold(
        unit_null(), 0.4, 20.0, seed=9
    )


def test_atfs_estimator_monotone_in_h():
    E = simulate_statistic_paths(unit_null(), 0.2, 500, 200, 3)
    values = [atfs_from_paths(E, h) for h in np.linspace(0.1, 12.0, 40)]
    finite = [v for v in values if np.isfinite(v)]
    assert all(a <= b for a, b in zip(finite, finite[1:]))


def test_self_consistency_different_seed_within_ten_percent():
    # solve at one seed, re-simulate at another: estimates agree within 10%
    null = unit_null()
    h = solve_threshold(null, 0.3, 20.0, seed=0)
    est = simulate_atfs(null, 0.3, h, sims=1000, length=200, seed=555)
    assert abs(est.atfs - 20.0) <= 2.0


def test_solve_phi_one_returns_boundary():
    assert solve_threshold(unit_null(), 0.3, 1.0, seed=0) == 0.0


def test_solved_threshold_monotone_in_target():
    null = unit_null()
    for lam in (0.1, 0.5, 0.9):
        h10 = solve_threshold(null, lam, 10.0, seed=0)
        h20 = solve_threshold(null, lam, 20.0, seed=0)
        h40 = solve_threshold(null, lam, 40.0, seed=0)
        assert h10 < h20 < h40


def test_solve_contract_under_own_seed():
    null = unit_null()
    for lam in (0.1, 0.5, 0.9):
        h = solve_threshold(null, lam, 20.0, seed=0)
        final = simulate_atfs(null, lam, h, sims=1000, length=200, seed=0)
        assert abs(final.atfs - 20.0) <= 0.5


def test_oracle_resimulation_band():
    # solve for phi=20 at lam=0.1, replay the threshold against a 5000-path
    # simulation sharing the solve's seed
    null = unit_null()
    h = solve_threshold(null, 0.1, 20.0, seed=0)
    est = simulate_atfs(null, 0.1, h, sims=5000, length=200, seed=0)
    assert 19.5 <= est.atfs <= 20.5


def test_short_paths_cannot_express_the_target():
    # 10 path-weeks cannot express ATFS 50: every achievable ATFS is 10 / count or inf
    with pytest.raises(CalibrationError, match="within 0.5 of 50.0"):
        solve_threshold(unit_null(), 0.5, 50.0, sims=5, length=2, seed=0)


def test_default_resimulation_length_matches_the_solve():
    # a target-3 solve runs on 50-week paths, so a default re-simulation under
    # the solve's seed reproduces the solve's achieved ATFS
    null = unit_null(2, seed=4)
    h = solve_threshold(null, 0.3, 3.0, sims=100, seed=4)
    est = simulate_atfs(null, 0.3, h, sims=100, seed=4, target=3.0)
    assert est.sequence_length == 50
    assert est.atfs == calibrate._solve(null, 0.3, 3.0, 100, 50, 4)[1]
    assert abs(est.atfs - 3.0) <= calibrate.ATFS_TOL


def brute_force_solve(values, phi):
    """Reference: try the gap above every distinct value and 0, keep the alarm
    count whose ATFS is nearest phi (the fewer alarms on a tie); returns the
    count and its gap, or None when no count is within 0.5."""
    n = values.size
    best = None
    for t in np.unique(np.append(values[values > 0.0], 0.0)):
        count = int((values > t).sum())
        if count and (best is None or abs(n / count - phi) <= abs(n / best[0] - phi)):
            best = (count, t, values[values > t].min())
    if best is None or abs(n / best[0] - phi) > 0.5:
        return None
    return best


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.just(0.0),
            st.sampled_from([0.25, 0.5, 1.0, 2.5]),
            st.integers(1, 10**6).map(lambda k: k / 1000),
        ),
        min_size=1,
        max_size=200,
    ),
    sims=st.integers(1, 2),
    phi=st.floats(1.0, 60.0),
)
@example(values=[float(k) for k in range(1, 13)], sims=1, phi=3.5)  # ATFS 4 and 3 tie
# phi divides N, so the order statistics at N - N/phi - 1 and N - N/phi differ:
# ties at both of them, and top's duplicate just below it
@example(values=[0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0], sims=1, phi=2.0)
@example(values=[1.0, 2.0, 3.0, 3.0, 4.0, 5.0], sims=1, phi=2.0)
@example(values=[1.0, 2.0, 3.0, 3.0, 4.0, 5.0], sims=2, phi=2.0)
def test_exact_solve_matches_brute_force(values, sims, phi):
    E = np.array(values * sims).reshape(sims, -1)
    try:
        h, atfs = calibrate._solve_paths(E, phi)
    except CalibrationError:
        assert brute_force_solve(E.ravel(), phi) is None
        return
    if phi <= 1.0:
        assert (h, atfs) == (0.0, 1.0)
        return
    expected = brute_force_solve(E.ravel(), phi)
    assert expected is not None
    count, lower, upper = expected
    assert int((E > h).sum()) == count
    assert 0.0 <= lower < h < upper
    assert atfs_from_paths(E, h) == atfs == E.size / count
    assert abs(atfs - phi) <= 0.5


def test_invalid_target_rejected():
    with pytest.raises(CalibrationError):
        solve_threshold(unit_null(), 0.5, 0.5, seed=0)


def _pulse_panel(lead=3):
    # 4 seasons, one clean pulse each; candidate anticipates gold by `lead`
    from epiwarn.panel import SyntheticPanelSpec, generate_synthetic

    return generate_synthetic(
        SyntheticPanelSpec(
            seasons=4, weeks_per_season=40, peak_week_jitter=0, noise_scale=0.0,
            predictor_count=1, predictor_lead=lead, rng_seed=3,
        )
    )


def test_optimize_params_singleton_grid():
    panel = _pulse_panel()
    events = detect_events(panel.gold, 1.25, 3)
    windows = build_windows(events, 16, 8, panel.gold)
    point = optimize_params(
        panel, events, windows, panel.candidate_names(), 20.0, [0.4], sims=200, seed=0
    )
    assert point.lam == 0.4
    assert point.h > 0
    assert abs(point.atfs - 20.0) <= 0.5


def test_optimize_step_needs_a_shared_null_for_several_candidates():
    from epiwarn.panel import SyntheticPanelSpec, generate_synthetic

    panel = generate_synthetic(SyntheticPanelSpec(seasons=4, predictor_count=3, rng_seed=3))
    events = detect_events(panel.gold, 1.25, 3)
    windows = build_windows(events, 16, 8, panel.gold)
    prefix, *candidates = panel.candidate_names()
    with pytest.raises(ValueError, match="shared table"):
        calibrate.optimize_step(panel, events, windows, [prefix], candidates, 20.0, [0.4],
                                sims=50)


def test_optimize_step_traces_are_the_chosen_points_scans():
    from epiwarn.mewma import estimate_null, precompute_shared_states
    from epiwarn.panel import SyntheticPanelSpec, generate_synthetic

    panel = generate_synthetic(SyntheticPanelSpec(seasons=4, predictor_count=3, rng_seed=3))
    events = detect_events(panel.gold, 1.25, 3)
    windows = build_windows(events, 16, 8, panel.gold)
    grid = (0.3, 0.6)
    table = precompute_shared_states(
        panel, estimate_null(panel, events, panel.candidate_names()), grid
    )
    prefix, *candidates = panel.candidate_names()
    traces = []
    points = calibrate.optimize_step(panel, events, windows, [prefix], candidates, 20.0, grid,
                                     sims=50, table=table, traces=traces)
    assert len(traces) == len(candidates)
    for cand, point, trace in zip(candidates, points, traces):
        rescan = table.scan(point.lam, (prefix, cand), point.h)
        assert np.array_equal(trace.E, rescan.E)
        assert np.array_equal(trace.cluster_onsets, rescan.cluster_onsets)


def test_optimize_params_noiseless_lead_scores_above_half():
    panel = _pulse_panel(lead=3)
    events = detect_events(panel.gold, 1.25, 3)
    windows = build_windows(events, 16, 8, panel.gold)
    point = optimize_params(
        panel, events, windows, panel.candidate_names(), 20.0,
        lambda_grid=(0.2, 0.5, 0.8), sims=200, seed=0,
    )
    assert point.performance > 0.5


def test_optimize_params_tie_breaks_to_smaller_lambda():
    # flat candidate: no alarms ever on the real panel, every lambda scores 0
    n = 120
    gold = np.ones(n)
    gold[30:40] = 2.0
    gold[90:100] = 2.0
    rng = np.random.default_rng(0)
    flat = np.full(n, 5.0) + 0.0 * rng.normal(size=n)
    panel = make_panel(gold, [flat])
    events = detect_events(panel.gold, 1.5, 3)
    windows = build_windows(events, 10, 5, panel.gold)
    point = optimize_params(
        panel, events, windows, ("c1",), 10.0, (0.3, 0.6), sims=100, seed=1
    )
    assert point.performance == 0.0
    assert point.lam == 0.3


def test_optimize_params_requires_events():
    panel = _pulse_panel()
    events = detect_events(panel.gold, 99.0, 3)
    windows = build_windows(detect_events(panel.gold, 1.25, 3), 16, 8, panel.gold)
    with pytest.raises(ValueError, match="without events"):
        optimize_params(panel, events, windows, panel.candidate_names(), 20.0, [0.4])


def test_pooled_estimator_matches_long_run_time_average():
    # many short windows vs one 200k-week scan: same time-average spacing up
    # to the start-up transient (the state warms up from zero in each window)
    null = unit_null()
    for lam in (0.2, 0.6):
        short = simulate_statistic_paths(null, lam, 2000, 200, 7)
        long_run = simulate_statistic_paths(null, lam, 1, 200_000, 8)
        for h in (2.0, 3.0):
            pooled = atfs_from_paths(short, h)
            reference = atfs_from_paths(long_run, h)
            assert abs(pooled - reference) / reference < 0.04


def per_step_paths(null, lam, sims, length, seed):
    """Reference: the statistic formed week by week, one solve per step."""
    d = null.dim
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(null.sigma)
    deviations = rng.standard_normal((sims, length, d)) @ L.T
    Ls = np.linalg.cholesky(null.smoothed_cov(lam))
    E = np.empty((sims, length))
    s = np.zeros((sims, d))
    for t in range(length):
        s = np.maximum(0.0, lam * deviations[:, t, :] + (1.0 - lam) * s)
        z = np.linalg.solve(Ls, s.T)
        E[:, t] = np.einsum("ij,ij->j", z, z)
    return E


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 8),
    sims=st.integers(1, 60),
    length=st.integers(1, 60),
    lam=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
def test_paths_match_per_step_reference(d, sims, length, lam, seed):
    null = unit_null(d, seed=seed % 1000 + 1)
    E = simulate_statistic_paths(null, lam, sims, length, seed)
    reference = per_step_paths(null, lam, sims, length, seed)
    assert E.shape == (sims, length)
    np.testing.assert_allclose(E, reference, rtol=1e-12, atol=0.0)


def scaled_null(variance):
    return NullModel(("y",), np.array([3.0]), np.array([[variance]]), 50)


@settings(max_examples=25, deadline=None)
@given(
    variance=st.floats(1e-6, 1e6),
    lam=st.sampled_from(DEFAULT_LAMBDA_GRID),
    seed=st.integers(0, 1000),
)
def test_one_dimensional_threshold_ignores_variance(variance, lam, seed):
    kwargs = dict(sims=40, length=100, seed=(seed, 2))
    h = solve_threshold(scaled_null(variance), lam, 10.0, **kwargs)
    assert h == solve_threshold(unit_null(), lam, 10.0, **kwargs)
    # the shared solve stands in for a solve on the null's own paths
    own, _ = calibrate._solve_paths(
        simulate_statistic_paths(scaled_null(variance), lam, 40, 100, (seed, 2)), 10.0)
    assert h == pytest.approx(own, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(lam=st.sampled_from(DEFAULT_LAMBDA_GRID), phi=st.floats(2.0, 30.0),
       seed=st.integers(0, 1000))
def test_cached_solve_equals_cold_solve(lam, phi, seed):
    length = calibrate._checked_length(phi)
    calibrate._solve(unit_null(), lam, phi, 30, length, [seed, 1])
    cached = calibrate._solve(unit_null(), lam, phi, 30, length, (seed, 1))
    calibrate._solve_unit_null.cache_clear()
    cold = calibrate._solve(unit_null(), lam, phi, 30, length, (seed, 1))
    assert cached == cold


@settings(max_examples=20, deadline=None)
@given(lam=st.sampled_from(DEFAULT_LAMBDA_GRID), phi=st.floats(2.0, 30.0),
       sims=st.integers(1, 60), seed=st.integers(0, 1000))
def test_unit_null_solve_equals_the_simulated_reference(lam, phi, sims, seed):
    length = calibrate._checked_length(phi)
    calibrate._solve_unit_null.cache_clear()
    try:
        solved = calibrate._solve_unit_null(lam, phi, sims, length, (seed, 1))
    except CalibrationError:
        solved = None
    paths = simulate_statistic_paths(calibrate._UNIT_NULL, lam, sims, length, (seed, 1))
    try:
        reference = calibrate._solve_paths(paths, phi)
    except CalibrationError:
        reference = None
    assert solved == reference


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(0.05, 0.95), h1=st.floats(0.0, 30.0), h2=st.floats(0.0, 30.0),
       d=st.integers(1, 3))
def test_atfs_monotone_in_threshold(lam, h1, h2, d):
    E = simulate_statistic_paths(unit_null(d), lam, 30, 80, 4)
    lo, hi = sorted((h1, h2))
    assert atfs_from_paths(E, lo) <= atfs_from_paths(E, hi)


def test_one_dimensional_nulls_share_one_simulation(monkeypatch):
    calls = []
    simulate = calibrate.simulate_statistic_paths

    def counted(null, lam, sims, length, seed):
        calls.append(null.dim)
        return simulate(null, lam, sims, length, seed)

    monkeypatch.setattr(calibrate, "simulate_statistic_paths", counted)
    calibrate._solve_unit_null.cache_clear()
    for variance in (0.01, 1.0, 37.0):
        solve_threshold(scaled_null(variance), 0.3, 20.0, sims=50, seed=(0, 1, 2))
    solve_threshold(scaled_null(2.0), 0.3, 20.0, sims=50, seed=[0, 1, 2])
    assert calls == [1]
    # a new seed, a new lambda and every multivariate null simulate again
    solve_threshold(scaled_null(2.0), 0.3, 20.0, sims=50, seed=(0, 1, 3))
    solve_threshold(scaled_null(2.0), 0.6, 20.0, sims=50, seed=(0, 1, 2))
    for _ in range(2):
        solve_threshold(unit_null(2), 0.3, 20.0, sims=50, seed=(0, 1, 2))
    assert calls == [1, 1, 1, 2, 2]


def test_failed_solve_is_not_memoized():
    calibrate._solve_unit_null.cache_clear()
    for _ in range(2):
        with pytest.raises(CalibrationError):
            solve_threshold(unit_null(), 0.5, 50.0, sims=5, length=2, seed=0)
    assert calibrate._solve_unit_null.cache_info().currsize == 0


def test_generator_seed_is_not_memoized():
    rng = np.random.default_rng(5)
    first = solve_threshold(unit_null(), 0.4, 20.0, sims=50, seed=rng)
    second = solve_threshold(unit_null(), 0.4, 20.0, sims=50, seed=rng)
    assert first != second


def step_null(d, seed, ridged):
    """A d-predictor null; ``ridged`` makes its sample covariance singular,
    so that conditioning inflates it with a ridge."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(max(d, 2) if ridged else 3 * d, d)) * rng.uniform(0.1, 10.0, size=d)
    sigma, ridge_applied, delta = condition_covariance(np.atleast_2d(np.cov(X, rowvar=False)))
    names = tuple(f"x{i}" for i in range(d))
    return NullModel(names, X.mean(axis=0), sigma, 100, ridge_applied, delta)


@settings(max_examples=60, deadline=None)
@given(
    prefix_size=st.integers(0, 3),
    n_candidates=st.integers(1, 12),
    sims=st.integers(1, 30),
    length=st.integers(1, 40),
    lam=st.floats(0.05, 0.95),
    ridged=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_paths_match_per_subset_simulation(prefix_size, n_candidates, sims, length,
                                                lam, ridged, seed):
    d = prefix_size + n_candidates
    null = step_null(d, seed, ridged)
    assert null.ridge_applied or not ridged or d == 1
    prefix, candidates = null.predictor_names[:prefix_size], null.predictor_names[prefix_size:]
    if prefix:
        paths = list(calibrate.step_statistic_paths(
            null, prefix, candidates, lam, sims, length, seed))
    else:  # the first step's nulls are all the unit null
        unit = simulate_statistic_paths(calibrate._UNIT_NULL, lam, sims, length, seed)
        paths = [unit] * n_candidates
    assert len(paths) == n_candidates
    for cand, E in zip(candidates, paths):
        reference = simulate_statistic_paths(
            null.subset(prefix + (cand,)), lam, sims, length, seed)
        # a scaled 1-d null rounds its near-zero values differently from the
        # unit null, so those compare on the statistic's own scale
        atol = 0.0 if prefix else 1e-12 * reference.max()
        np.testing.assert_allclose(E, reference, rtol=1e-12, atol=atol)


@settings(max_examples=30, deadline=None)
@given(
    prefix_size=st.integers(0, 3),
    n_candidates=st.integers(1, 12),
    lam=st.sampled_from(DEFAULT_LAMBDA_GRID),
    phi=st.floats(2.0, 30.0),
    ridged=st.booleans(),
    seed=st.integers(0, 1000),
)
def test_step_thresholds_match_per_subset_solve(prefix_size, n_candidates, lam, phi,
                                                ridged, seed):
    null = step_null(prefix_size + n_candidates, seed, ridged)
    prefix, candidates = null.predictor_names[:prefix_size], null.predictor_names[prefix_size:]
    step_seed = (seed, 1, 0)
    solves = calibrate._step_solves(null, prefix, candidates, lam, phi, 40, step_seed)
    assert len(solves) == n_candidates
    length = calibrate._checked_length(phi)
    for cand, solved in zip(candidates, solves):
        try:
            h, atfs = calibrate._solve(null.subset(prefix + (cand,)), lam, phi, 40, length,
                                       step_seed)
        except CalibrationError as exc:
            assert type(solved) is type(exc)
            continue
        assert solved[0] == pytest.approx(h, rel=1e-12, abs=0.0)
        assert solved[1] == atfs


def test_non_positive_definite_extension_fails_loudly():
    # x2's variance is below the 4.0 its covariances with x0 and x1 imply, so
    # its Cholesky pivot is negative
    sigma = np.array([[2.0, 0.5, 2.5], [0.5, 1.0, 1.5], [2.5, 1.5, 3.9]])
    null = NullModel(("x0", "x1", "x2"), np.zeros(3), sigma, 100)
    paths = calibrate.step_statistic_paths(null, ("x0", "x1"), ("x2",), 0.3, 10, 10, 0)
    with pytest.raises(np.linalg.LinAlgError):
        next(paths)


def step_peak(n_candidates, sims):
    null = unit_null(n_candidates + 1, seed=3)
    prefix, candidates = null.predictor_names[:1], null.predictor_names[1:]
    tracemalloc.start()
    try:
        calibrate._step_solves(null, prefix, candidates, 0.4, 10.0, sims, (1, 2))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_step_peak_memory_is_one_block_plus_the_draws():
    sims, k = 100, 2
    n = sims * calibrate._checked_length(10.0)
    peaks = {c: step_peak(c, sims) for c in (30, 60)}
    # the draws, the prefix's terms and partial sum, one block of new
    # columns, one candidate's deviations (k columns) and small objects
    assert peaks[30] <= 8 * (n * k + (k - 1) * n + n + calibrate.STEP_BLOCK_VALUES + n * k) \
        + 128 * 1024
    # a block left live beside the next would add about a megabyte; twice the
    # candidates add only their factors and solves
    assert abs(peaks[60] - peaks[30]) <= 30 * 1024


def test_one_subset_peak_memory_is_the_draws_and_one_product():
    sims, length = 1000, 200
    n = sims * length
    # a first, small call leaves out what loading and caching take once
    simulate_statistic_paths(calibrate._UNIT_NULL, 0.3, 2, 2, (1, 2))
    tracemalloc.start()
    try:
        simulate_statistic_paths(calibrate._UNIT_NULL, 0.3, sims, length, (1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the draws and their product, in which the states and E are formed
    assert peak <= 16 * n + 128 * 1024


def test_step_blocks_hold_matching_candidates_in_order():
    null = unit_null(8, seed=5)
    subs = [null.subset(("x0", c)) for c in null.predictor_names[1:]]
    factors = [(np.linalg.cholesky(s.sigma), np.linalg.cholesky(s.smoothed_cov(0.3)))
               for s in subs]

    def members(blocks):
        return [indices for _, indices in blocks]

    # three candidates' new columns fit in a block; the seventh is a block of its own
    with mock.patch.object(calibrate, "STEP_BLOCK_VALUES", 3 * 50 + 49):
        blocks = calibrate._step_blocks(factors, 50)
        assert members(blocks) == [[0, 1, 2], [3, 4, 5], [6]]
        assert len({rows for rows, _ in blocks}) == 1
        # a candidate whose leading factor rows differ ends one run and starts another
        factors[1] = (factors[1][0] * 2.0, factors[1][1])
        blocks = calibrate._step_blocks(factors, 50)
    assert members(blocks) == [[0], [1], [2, 3, 4], [5, 6]]
    rows = [rows for rows, _ in blocks]
    assert rows[0] == rows[2] == rows[3] != rows[1]
    # paths longer than a block leave every candidate on its own
    blocks = calibrate._step_blocks(factors, calibrate.STEP_BLOCK_VALUES + 1)
    assert members(blocks) == [[i] for i in range(7)]


def per_subset_paths(null, lam, sims, length, seed):
    """One subset's paths written out on their own: draw, apply the Cholesky
    factor, then the scan's own recursion and quadratic form."""
    L = np.linalg.cholesky(null.sigma)
    deviations = np.random.default_rng(seed).standard_normal((sims, length, null.dim)) @ L.T
    return mewma._quad_form(mewma._ewma_states(deviations, lam), null.smoothed_cov(lam))


def collinear_null(d, seed):
    """A d-predictor null whose later predictors are exact combinations of the
    earlier ones, so that its sample covariance is rank-deficient and
    conditioning inflates it with a ridge."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(3 * d, d))
    for j in range(d // 2, d):
        X[:, j] = X[:, j - d // 2] * rng.uniform(0.5, 2.0) + X[:, 0]
    sigma, ridge_applied, delta = condition_covariance(np.atleast_2d(np.cov(X, rowvar=False)))
    names = tuple(f"x{i}" for i in range(d))
    return NullModel(names, X.mean(axis=0), sigma, 100, ridge_applied, delta)


@settings(max_examples=60, deadline=None)
@given(
    prefix_size=st.integers(0, 7),
    n_candidates=st.integers(1, 9),
    sims=st.integers(1, 12),
    length=st.integers(1, 30),
    lam=st.floats(0.05, 0.95),
    kind=st.sampled_from(["full-rank", "ridged", "collinear"]),
    per_block=st.sampled_from([None, 1, 2, 3]),
    unmatched=st.sets(st.integers(0, 8), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
# one-predictor subsets, and runs that split and rejoin
@example(prefix_size=0, n_candidates=3, sims=2, length=5, lam=0.3, kind="collinear",
         per_block=1, unmatched={1}, seed=0)
@example(prefix_size=2, n_candidates=7, sims=3, length=4, lam=0.6, kind="full-rank",
         per_block=2, unmatched={1, 2, 4}, seed=1)
def test_step_paths_equal_per_subset_simulation_bit_for_bit(
        prefix_size, n_candidates, sims, length, lam, kind, per_block, unmatched, seed):
    d = prefix_size + n_candidates
    if kind == "collinear":
        null = collinear_null(d, seed)
        assert null.ridge_applied or d == 1
    else:
        null = step_null(d, seed, kind == "ridged")
    prefix, candidates = null.predictor_names[:prefix_size], null.predictor_names[prefix_size:]
    # per_block candidates' new columns fit in a block (None: the default size),
    # so that blocks split the candidates and a last block may hold only one
    values = calibrate.STEP_BLOCK_VALUES if per_block is None else per_block * sims * length
    plan = calibrate._step_blocks

    def unmatched_plan(factors, n):
        # as if the unmatched candidates' factors differed in their leading
        # rows, so that runs split and rejoin
        factors = [(-L, smoothed) if i in unmatched else (L, smoothed)
                   for i, (L, smoothed) in enumerate(factors)]
        return plan(factors, n)

    with mock.patch.object(calibrate, "STEP_BLOCK_VALUES", values), \
            mock.patch.object(calibrate, "_step_blocks", unmatched_plan):
        paths = list(calibrate.step_statistic_paths(
            null, prefix, candidates, lam, sims, length, seed))
    assert len(paths) == n_candidates
    for cand, E in zip(candidates, paths):
        sub = null.subset(prefix + (cand,))
        reference = per_subset_paths(sub, lam, sims, length, seed)
        assert np.array_equal(E, reference)
        assert np.array_equal(simulate_statistic_paths(sub, lam, sims, length, seed), reference)
