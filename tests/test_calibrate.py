import gc
import math
import tracemalloc
import weakref
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
    [[(_, atfs)]] = calibrate._step_solves(null, ("x0",), ("x1",), (0.3,), 3.0, 100, 50, (4,))
    assert est.atfs == atfs
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
    phi=st.floats(1.0, 60.0, exclude_min=True),
)
@example(values=[float(k) for k in range(1, 13)], sims=1, phi=3.5)  # ATFS 4 and 3 tie
# phi divides N, so the order statistics at N - N/phi - 1 and N - N/phi differ:
# ties at both of them, and top's duplicate just below it
@example(values=[0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0], sims=1, phi=2.0)
@example(values=[1.0, 2.0, 3.0, 3.0, 4.0, 5.0], sims=1, phi=2.0)
@example(values=[1.0, 2.0, 3.0, 3.0, 4.0, 5.0], sims=2, phi=2.0)
# phi does not divide N, and the largest value below top's position equals
# top: the values before the top slice are read again for the tie
@example(values=[0.5] * 5 + [2.0, 2.0, 5.0, 6.0, 7.0], sims=1, phi=3.2)
# every value below top is 0.0, and t = 0 is the nearer floor
@example(values=[0.0] * 7 + [1.0, 2.0, 3.0], sims=1, phi=3.5)
# two adjacent doubles, whose midpoint rounds to the upper one: h is the lower
@example(values=[1.0000000000000002, 1.0000000000000004], sims=1, phi=2.0)
def test_exact_solve_matches_brute_force(values, sims, phi):
    E = np.array(values * sims).reshape(sims, -1)
    try:
        h, atfs = calibrate._solve_paths(E, phi)
    except CalibrationError:
        assert brute_force_solve(E.ravel(), phi) is None
        return
    expected = brute_force_solve(E.ravel(), phi)
    assert expected is not None
    count, lower, upper = expected
    assert int((E > h).sum()) == count
    assert 0.0 <= lower < h < upper or (h == lower and np.nextafter(lower, np.inf) == upper)
    assert atfs_from_paths(E, h) == atfs == E.size / count
    assert abs(atfs - phi) <= 0.5


def test_invalid_target_rejected():
    # every target must satisfy 1 < ATFS < inf, as the config's atfs must
    for phi in (0.5, 1.0, math.inf, math.nan):
        with pytest.raises(CalibrationError, match="finite and > 1 week"):
            solve_threshold(unit_null(), 0.5, phi, seed=0)


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
    fits = calibrate.optimize_step(table, windows, [prefix], candidates, 20.0, sims=50, seed=0)
    assert len(fits) == len(candidates)
    for cand, fit in zip(candidates, fits):
        rescan = table.scan(fit.point.lam, (prefix, cand), fit.point.h)
        assert np.array_equal(fit.E, rescan.E)
        onsets = mewma.onset_mask(fit.E > fit.point.h)
        assert np.array_equal(np.flatnonzero(onsets), rescan.cluster_onsets)
        assert fit.point in fit.curve
        assert [p.lam for p in fit.curve] == list(table.lambdas)


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
    Ls = np.linalg.cholesky((lam / (2.0 - lam)) * null.sigma)
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
@example(d=2, sims=21, length=20, lam=0.5, seed=191)
def test_paths_match_per_step_reference(d, sims, length, lam, seed):
    # A near-zero E is a state the recursion and L z cancel down to, so its
    # absolute error is set by the path set's scale, not its own: at the
    # pinned example E = 2.9e-8 at path 20, week 0 differs by 2e-12 relative,
    # and exact arithmetic puts the program within 1.5e-13 of it
    # (test_paths_at_the_pinned_example_match_exact_arithmetic)
    null = unit_null(d, seed=seed % 1000 + 1)
    E = simulate_statistic_paths(null, lam, sims, length, seed)
    reference = per_step_paths(null, lam, sims, length, seed)
    assert E.shape == (sims, length)
    np.testing.assert_allclose(E, reference, rtol=1e-12, atol=1e-15 * reference.max())


def exact_step_paths(null, lam, sims, length, seed):
    """The statistic paths in exact rational arithmetic on the program's own
    draws and factors: deviations L z with L = ``null.factor``, the EWMA
    recursion, and the squared terms of a forward solve with
    ``smoothed_factor(L, lam)``, every float input taken as its exact value."""
    from fractions import Fraction

    d = null.dim
    L = null.factor(null.predictor_names)
    factor = [[Fraction(v) for v in row] for row in L.tolist()]
    smoothed = [[Fraction(v) for v in row] for row in mewma.smoothed_factor(L, lam).tolist()]
    z = calibrate._normals(seed, (sims, length, d))
    lam = Fraction(lam)
    E = [[None] * length for _ in range(sims)]
    for p in range(sims):
        state = [Fraction(0)] * d
        for t in range(length):
            draws = [Fraction(v) for v in z[:, t, p].tolist()]
            x = [sum(factor[r][j] * draws[j] for j in range(r + 1)) for r in range(d)]
            state = [max(Fraction(0), lam * x[r] + (1 - lam) * state[r]) for r in range(d)]
            terms = []
            for r in range(d):
                partial = sum(smoothed[r][j] * terms[j] for j in range(r))
                terms.append((state[r] - partial) / smoothed[r][r])
            E[p][t] = sum(term * term for term in terms)
    return E


def test_paths_at_the_pinned_example_match_exact_arithmetic():
    from fractions import Fraction

    d, sims, length, lam, seed = 2, 21, 20, 0.5, 191
    null = unit_null(d, seed=seed % 1000 + 1)
    E = simulate_statistic_paths(null, lam, sims, length, seed)
    exact = exact_step_paths(null, lam, sims, length, seed)
    errors = []
    for row, exact_row in zip(E.tolist(), exact):
        for value, truth in zip(row, exact_row):
            if truth == 0:
                assert value == 0.0
            else:
                errors.append(float(abs(Fraction(value) - truth) / truth))
    # measured: 1.51e-13 relative at most, at the cell of E = 2.9e-8 where
    # the LAPACK reference differs by 2e-12; 1.5e-16 at the median cell
    assert max(errors) <= 2e-13


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

    def solve(seed):
        return calibrate._step_solves(unit_null(), (), ("x",), (lam,), phi, 30, length, seed)

    solve(calibrate._seed([seed, 1]))
    cached = solve((seed, 1))
    calibrate._solve_unit_null.cache_clear()
    cold = solve((seed, 1))
    assert cached == cold


def solved_or_message(solve, *args):
    try:
        return solve(*args)
    except CalibrationError as exc:
        return str(exc)


@settings(max_examples=20, deadline=None)
@given(lambdas=st.lists(st.sampled_from(DEFAULT_LAMBDA_GRID), min_size=1, max_size=3,
                        unique=True),
       phi=st.floats(2.0, 30.0), sims=st.integers(1, 60), seed=st.integers(0, 1000))
def test_unit_null_solve_equals_the_simulated_reference(lambdas, phi, sims, seed):
    length = calibrate._checked_length(phi)
    calibrate._solve_unit_null.cache_clear()
    references = [
        solved_or_message(calibrate._solve_paths, simulate_statistic_paths(
            calibrate._UNIT_NULL, lam, sims, length, (seed, 1)), phi)
        for lam in lambdas
    ]
    solved = solved_or_message(calibrate._solve_unit_null, tuple(lambdas), phi, sims, length,
                               (seed, 1))
    if isinstance(solved, str):  # every lambda failed, with the same message
        assert references == [solved] * len(lambdas)
    else:
        assert [str(s) if isinstance(s, CalibrationError) else s for s in solved] == references


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(0.05, 0.95), h1=st.floats(0.0, 30.0), h2=st.floats(0.0, 30.0),
       d=st.integers(1, 3))
def test_atfs_monotone_in_threshold(lam, h1, h2, d):
    E = simulate_statistic_paths(unit_null(d), lam, 30, 80, 4)
    lo, hi = sorted((h1, h2))
    assert atfs_from_paths(E, lo) <= atfs_from_paths(E, hi)


def test_one_dimensional_nulls_share_one_simulation(monkeypatch):
    calls = []
    step_paths = calibrate.step_statistic_paths

    def counted(null, *args):
        calls.append(null.dim)
        return step_paths(null, *args)

    monkeypatch.setattr(calibrate, "step_statistic_paths", counted)
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


def test_generator_seed_is_rejected():
    # a calibration seed is an integer or a sequence of integers at every entry point
    from epiwarn.selection import forward_select, make_folds, prepare_fold_contexts

    rng = np.random.default_rng(5)
    panel, events, windows, *_ = _step_setup(0)
    folds = make_folds(events, 1, panel.n_weeks)
    contexts = prepare_fold_contexts(panel, events, windows, folds, [0.4])
    calls = [
        lambda: solve_threshold(unit_null(), 0.4, 20.0, sims=50, seed=rng),
        lambda: simulate_atfs(unit_null(2), 0.4, 5.0, sims=50, seed=rng),
        lambda: simulate_statistic_paths(unit_null(), 0.4, 50, 20, rng),
        lambda: optimize_params(panel, events, windows, ("pred1",), 20.0, [0.4], sims=50,
                                seed=rng),
        lambda: forward_select(contexts, 1, 20.0, sims=50, seed=rng),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="interpreted as an integer"):
            call()


def step_null(d, seed, ridged):
    """A d-predictor null; ``ridged`` makes its sample covariance singular,
    so that conditioning inflates it with a ridge."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(max(d, 2) if ridged else 3 * d, d)) * rng.uniform(0.1, 10.0, size=d)
    sigma, ridge_applied, delta = condition_covariance(np.atleast_2d(np.cov(X, rowvar=False)))
    names = tuple(f"x{i}" for i in range(d))
    return NullModel(names, X.mean(axis=0), sigma, 100, ridge_applied, delta)


def step_paths(null, prefix, candidates, lambdas, sims, length, seed):
    """``step_statistic_paths`` as a list per lambda of each candidate's
    paths, after checking that each is yielded once."""
    paths = [[None] * len(candidates) for _ in lambdas]
    for i, c, E in calibrate.step_statistic_paths(
            null, prefix, candidates, lambdas, sims, length, seed):
        assert paths[i][c] is None
        paths[i][c] = E
    assert all(E is not None for row in paths for E in row)
    return paths


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
        [paths] = step_paths(null, prefix, candidates, [lam], sims, length, seed)
    else:  # the first step's nulls are all the unit null
        unit = simulate_statistic_paths(calibrate._UNIT_NULL, lam, sims, length, seed)
        paths = [unit] * n_candidates
    assert len(paths) == n_candidates
    for cand, E in zip(candidates, paths):
        reference = per_subset_paths(null.subset(prefix + (cand,)), lam, sims, length, seed)
        # a scaled 1-d null rounds its near-zero values differently from the
        # unit null, so those compare on the statistic's own scale
        if prefix:
            assert np.array_equal(E, reference)
        else:
            np.testing.assert_allclose(E, reference, rtol=1e-12, atol=1e-12 * reference.max())


@settings(max_examples=30, deadline=None)
@given(
    prefix_size=st.integers(0, 3),
    n_candidates=st.integers(1, 12),
    lambdas=st.lists(st.sampled_from(DEFAULT_LAMBDA_GRID), min_size=1, max_size=4,
                     unique=True),
    phi=st.floats(2.0, 30.0),
    ridged=st.booleans(),
    seed=st.integers(0, 1000),
)
def test_step_thresholds_match_per_subset_solve(prefix_size, n_candidates, lambdas, phi,
                                                ridged, seed):
    null = step_null(prefix_size + n_candidates, seed, ridged)
    prefix, candidates = null.predictor_names[:prefix_size], null.predictor_names[prefix_size:]
    step_seed = (seed, 1, 0)
    calibrate._solve_unit_null.cache_clear()
    solves = calibrate._step_solves(null, prefix, candidates, lambdas, phi, 40, None,
                                    step_seed)
    assert [len(row) for row in solves] == [n_candidates] * len(lambdas)
    length = calibrate._checked_length(phi)
    for lam, row in zip(lambdas, solves):
        for cand, solved in zip(candidates, row):
            paths = per_subset_paths(null.subset(prefix + (cand,)), lam, 40, length, step_seed)
            try:
                h, atfs = calibrate._solve_paths(paths, phi)
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
    paths = calibrate.step_statistic_paths(null, ("x0", "x1"), ("x2",), [0.3, 0.6], 10, 10, 0)
    with pytest.raises(np.linalg.LinAlgError):
        next(paths)


def step_peak(n_candidates, sims, lambdas=(0.4,)):
    null = unit_null(n_candidates + 1, seed=3)
    prefix, candidates = null.predictor_names[:1], null.predictor_names[1:]
    tracemalloc.start()
    try:
        calibrate._step_solves(null, prefix, candidates, lambdas, 10.0, sims, None, (1, 2))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_step_peak_memory_is_one_block_plus_the_draws():
    sims, k = 100, 2
    n = sims * calibrate._checked_length(10.0)
    # a one-lambda chunk whose bank holds 10 candidates' new columns
    with mock.patch.object(calibrate, "STEP_BLOCK_VALUES", (k + 10) * n):
        peaks = {c: step_peak(c, sims) for c in (4, 8, 30, 60)}
    # the draws (k columns), the new column's buffer and its spare, the
    # prefix's terms and partial sum, the bank, one E, and small objects
    assert peaks[30] <= 8 * (n * k + n + n + (k - 1) * n + n + 10 * n + n) + 128 * 1024
    # until the bank is full, each candidate adds its new column
    assert abs(peaks[8] - peaks[4] - 8 * 4 * n) <= 30 * 1024
    # a full bank is reused: an E or bank left live beside the next would
    # add n values; twice the candidates add only their factors and solves
    assert abs(peaks[60] - peaks[30]) <= 30 * 1024
    # three lambdas in a chunk hold three lambdas' terms, partial sums and
    # new columns, here one candidate's each
    lambdas = (0.2, 0.4, 0.6)
    with mock.patch.object(calibrate, "STEP_BLOCK_VALUES", 3 * (k + 1) * n):
        peak = step_peak(30, sims, lambdas)
    assert peak <= 8 * (n * k + n + n + 3 * (k + 1) * n + n) + 128 * 1024


def test_step_peak_memory_pins_the_budget():
    sims, k = 400, 2
    n = sims * calibrate._checked_length(10.0)
    peaks = {c: step_peak(c, sims) for c in (30, 60)}
    # 30 candidates fill a bank: the chunk's terms, partial sum and bank are
    # within one column of the budget, beside the draws (k columns), the new
    # column's buffer and its spare, and one E
    assert calibrate.STEP_BLOCK_VALUES // n - k < 30
    block = peaks[30] - 8 * (n * k + n)
    assert 8 * (calibrate.STEP_BLOCK_VALUES - n) <= block
    assert block <= 8 * (calibrate.STEP_BLOCK_VALUES + n + n) + 128 * 1024
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


def test_lone_candidate_paths_are_contiguous_and_solved_in_place():
    null = unit_null(3, seed=2)
    [(_, _, E)] = calibrate.step_statistic_paths(
        null, ("x0", "x1"), ("x2",), [0.4], 1000, 200, (1, 2))
    # a week-major stack's row, transposed
    assert E.T.flags.c_contiguous
    tracemalloc.start()
    try:
        calibrate._solve_paths(E, 20.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two boolean alarm masks over the top ceil(N / 20) values, not over all
    # N; partitioning a strided E would copy it (8 bytes a value)
    assert peak <= 2 * math.ceil(E.size / 20) + 64 * 1024


def _step_setup(prefix_size):
    from epiwarn.mewma import estimate_null, precompute_shared_states
    from epiwarn.panel import SyntheticPanelSpec, generate_synthetic

    panel = generate_synthetic(SyntheticPanelSpec(seasons=4, predictor_count=3, rng_seed=3))
    events = detect_events(panel.gold, 1.25, 3)
    windows = build_windows(events, 16, 8, panel.gold)
    names = panel.candidate_names()
    table = precompute_shared_states(
        panel, estimate_null(panel, events, names), DEFAULT_LAMBDA_GRID
    )
    return panel, events, windows, table, names[:prefix_size], names[prefix_size:]


def counted_draws(monkeypatch) -> list:
    """Patch the normal draws to record a (shape, weak reference) per draw."""
    draws = []
    default_rng = np.random.default_rng

    class Counted:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, shape):
            z = self.rng.standard_normal(shape)
            draws.append((shape, weakref.ref(z)))
            return z

    monkeypatch.setattr(np.random, "default_rng", Counted)
    return draws


@pytest.mark.parametrize("prefix_size", [0, 1])
def test_optimize_step_draws_once_for_every_lambda_and_keeps_nothing(monkeypatch, prefix_size):
    panel, events, windows, table, prefix, candidates = _step_setup(prefix_size)
    calibrate._solve_unit_null.cache_clear()
    draws = counted_draws(monkeypatch)
    fits = calibrate.optimize_step(table, windows, prefix, candidates, 20.0, sims=50,
                                   seed=(4, 2))
    assert all(len(fit.curve) == len(DEFAULT_LAMBDA_GRID) for fit in fits)
    assert [shape for shape, _ in draws] == [(50, 200, prefix_size + 1)]
    gc.collect()
    assert all(ref() is None for _, ref in draws)


def test_normals_are_one_stream_per_seed():
    shape = (4, 5, 2)
    z = calibrate._normals((3, 1), shape)
    assert np.array_equal(calibrate._normals([3, 1], shape), z)
    assert not np.array_equal(calibrate._normals((3, 2), shape), z)
    assert np.array_equal(calibrate._normals(3, shape), calibrate._normals((3,), shape))
    # drawn a block of paths at a time, the week-major copy of one draw
    for shape in ((4, 5, 2), (300, 500, 2), (1, 40000, 1)):
        one_draw = np.random.default_rng((3, 1)).standard_normal(shape)
        assert np.array_equal(calibrate._normals((3, 1), shape), one_draw.transpose(2, 1, 0))


def test_shared_draws_are_dropped_when_the_step_raises(monkeypatch):
    panel, events, windows, table, prefix, candidates = _step_setup(1)
    draws = []  # a weak reference to the week-major draws the step holds
    normals = calibrate._normals

    def recorded(seed, shape):
        z = normals(seed, shape)
        draws.append(weakref.ref(z))
        return z

    monkeypatch.setattr(calibrate, "_normals", recorded)
    # chunks of one lambda, so that the draws, which go after the step's
    # last column, outlive the first solve (one chunk of the whole grid would
    # form every column, and drop them, before it)
    monkeypatch.setattr(calibrate, "STEP_BLOCK_VALUES", 50 * 200)

    def interrupted(E, phi):
        assert [ref() is not None for ref in draws] == [True]
        raise KeyboardInterrupt

    monkeypatch.setattr(calibrate, "_solve_paths", interrupted)
    with pytest.raises(KeyboardInterrupt):
        calibrate.optimize_step(table, windows, prefix, candidates, 20.0, sims=50,
                                seed=(4, 2))
    gc.collect()
    assert [ref() for ref in draws] == [None]


@pytest.mark.parametrize("subset", [("pred1",), ("pred1", "pred3"), ("pred1", "pred2", "pred3")])
def test_every_curve_point_is_solved_with_the_steps_own_seed(subset):
    from epiwarn.mewma import estimate_null

    panel, events, windows, *_ = _step_setup(0)
    calibrate._solve_unit_null.cache_clear()
    curve = []
    optimize_params(panel, events, windows, subset, 20.0, sims=60, seed=(7, 1), curve=curve)
    assert [p.lam for p in curve] == list(DEFAULT_LAMBDA_GRID)
    null = estimate_null(panel, events, subset)
    for point in curve:
        # no lambda index in the seed: every lambda solves on the same draw
        assert point.h == solve_threshold(null, point.lam, 20.0, sims=60, seed=(7, 1))


def test_step_chunks_cut_the_grid_and_banks_cut_the_candidates():
    null = unit_null(8, seed=5)
    prefix, candidates = ("x0",), null.predictor_names[1:]
    lambdas, sims, length, k = [0.1, 0.2, 0.3, 0.4, 0.5], 5, 10, 2
    n = sims * length
    smooth, recursions = mewma._smooth, []

    def recorded(weeks, keep):
        recursions.append(weeks.shape)
        return smooth(weeks, keep)

    # budget -> (lambdas per chunk, candidates per bank). A chunk holds the
    # most lambdas whose terms, partial sums and one new column, (k + 1) * n
    # values a lambda, fit; a bank the most candidates whose new columns at
    # the chunk's lambdas fit beside them. Each holds at least one.
    cases = {
        (k + 1) * n - 1: (1, 1),
        (k + 3) * n: (1, 3),  # banks of 3, 3 and a ragged 1
        3 * (k + 1) * n - 1: (2, 2),  # chunks of 2, 2 and 1 lambdas
        5 * (k + 1) * n: (5, 1),
        5 * (k + 7) * n: (5, 7),  # one bank of the whole step
    }
    for values, (size, width) in cases.items():
        recursions.clear()
        with mock.patch.object(calibrate, "STEP_BLOCK_VALUES", values), \
                mock.patch.object(mewma, "_smooth", recorded):
            order = [(i, c) for i, c, _ in calibrate.step_statistic_paths(
                null, prefix, candidates, lambdas, sims, length, 0)]
        chunks = [range(a, min(a + size, 5)) for a in range(0, 5, size)]
        banks = [range(b, min(b + width, 7)) for b in range(0, 7, width)]
        # chunk by chunk and bank by bank; in a bank, lambda by lambda
        assert order == [(i, c) for chunk in chunks for bank in banks
                         for i in chunk for c in bank]
        # the candidates share the prefix's factor rows: one set of prefix
        # terms (length, lambdas, k - 1, sims) per chunk; each bank is one
        # recursion over week rows of every lambda's columns
        assert recursions == [r for chunk in chunks for r in
                              [(length, len(chunk), k - 1, sims)] +
                              [(length, len(chunk) * len(bank) * sims) for bank in banks]]


def per_subset_paths(null, lam, sims, length, seed):
    """One subset's paths written out on their own: draw, apply the null's
    Cholesky factor one row at a time, each product and sum in order, then
    the scan's own recursion and quadratic form with that factor scaled."""
    L = null.factor(null.predictor_names)
    z = np.random.default_rng(seed).standard_normal((sims, length, null.dim))
    deviations = np.empty_like(z)
    for j in range(null.dim):
        deviations[..., j] = z[..., 0] * L[j, 0]
        for i in range(1, j + 1):
            deviations[..., j] += z[..., i] * L[j, i]
    return mewma._quad_form(mewma._ewma_states(deviations, lam), mewma.smoothed_factor(L, lam))


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
    lambdas=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4),
    kind=st.sampled_from(["full-rank", "ridged", "collinear"]),
    per_chunk=st.sampled_from([1, 2, None]),
    per_bank=st.sampled_from([1, 2, None]),
    seed=st.integers(0, 2**32 - 1),
)
# one-predictor subsets, one-sim draws, banks of one and of two candidates,
# and a ragged last bank
@example(prefix_size=0, n_candidates=3, sims=2, length=5, lambdas=[0.3], kind="collinear",
         per_chunk=1, per_bank=1, seed=0)
@example(prefix_size=2, n_candidates=7, sims=3, length=4, lambdas=[0.6, 0.2, 0.9],
         kind="full-rank", per_chunk=2, per_bank=2, seed=1)
@example(prefix_size=3, n_candidates=2, sims=1, length=6, lambdas=[0.4, 0.7],
         kind="ridged", per_chunk=None, per_bank=None, seed=2)
@example(prefix_size=1, n_candidates=5, sims=4, length=7, lambdas=[0.5, 0.1],
         kind="full-rank", per_chunk=1, per_bank=2, seed=3)
@example(prefix_size=1, n_candidates=9, sims=2, length=3, lambdas=[0.8, 0.3, 0.5],
         kind="collinear", per_chunk=None, per_bank=2, seed=4)
def test_step_paths_equal_per_subset_simulation_bit_for_bit(
        prefix_size, n_candidates, sims, length, lambdas, kind, per_chunk, per_bank, seed):
    d = prefix_size + n_candidates
    if kind == "collinear":
        null = collinear_null(d, seed)
        assert null.ridge_applied or d == 1
    else:
        null = step_null(d, seed, kind == "ridged")
    prefix, candidates = null.predictor_names[:prefix_size], null.predictor_names[prefix_size:]
    # the budget of chunks of per_chunk lambdas and banks of per_bank
    # candidates (None: all of them), so that chunks split the grid, a last
    # chunk may hold only one lambda, and a last bank fewer candidates than
    # the others; where a chunk of that budget fits more lambdas, its banks
    # are narrower
    k = prefix_size + 1
    per_chunk = len(lambdas) if per_chunk is None else per_chunk
    per_bank = n_candidates if per_bank is None else per_bank
    values = per_chunk * (k + per_bank) * sims * length
    with mock.patch.object(calibrate, "STEP_BLOCK_VALUES", values):
        # every path is held before any is compared, so that one whose memory
        # a later bank reused would differ
        yielded = list(calibrate.step_statistic_paths(
            null, prefix, candidates, lambdas, sims, length, seed))
        for cand in candidates:
            sub = null.subset(prefix + (cand,))
            grid = list(simulate_statistic_paths(sub, lambdas, sims, length, seed))
            for lam, E in zip(lambdas, grid, strict=True):
                assert np.array_equal(E, per_subset_paths(sub, lam, sims, length, seed))
    assert sorted((i, c) for i, c, _ in yielded) == [
        (i, c) for i in range(len(lambdas)) for c in range(n_candidates)]
    for i, c, E in yielded:
        sub = null.subset(prefix + (candidates[c],))
        reference = per_subset_paths(sub, lambdas[i], sims, length, seed)
        assert np.array_equal(E, reference)
        assert np.array_equal(simulate_statistic_paths(sub, lambdas[i], sims, length, seed),
                              reference)


def test_thresholds_count_exactly_across_a_one_ulp_gap():
    # two adjacent doubles, whose midpoint rounds to the upper one, where
    # nothing lies above it: the solve takes the lower one, which alarms at
    # the upper one alone, ATFS 2 exactly
    a, b = 1.0000000000000002, 1.0000000000000004
    assert np.nextafter(a, np.inf) == b and 0.5 * (a + b) == b
    E = np.array([[a, b]])
    assert atfs_from_paths(E, b) == math.inf
    assert atfs_from_paths(E, a) == 2.0
    assert calibrate._solve_paths(E.copy(), 2.0) == (a, 2.0)
    assert np.array_equal(mewma.alarm_mask(E, a), [[False, True]])


def whole_product_paths(null, lam, sims, length, seed):
    """Reference: the same normals times the whole Cholesky factor in one
    product, as before each new column was its own product, then the scan's
    own recursion and quadratic form."""
    L = np.linalg.cholesky(null.sigma)
    deviations = np.random.default_rng(seed).standard_normal((sims, length, null.dim)) @ L.T
    smoothed = np.linalg.cholesky((lam / (2.0 - lam)) * null.sigma)
    return mewma._quad_form(mewma._ewma_states(deviations, lam), smoothed)


@settings(max_examples=40, deadline=None)
@given(
    prefix_size=st.integers(0, 4),
    n_candidates=st.integers(1, 6),
    length=st.integers(1, 40),
    lambdas=st.lists(st.sampled_from(DEFAULT_LAMBDA_GRID), min_size=1, max_size=3, unique=True),
    kind=st.sampled_from(["unit", "ridged", "collinear"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_step_scan_columns_are_each_subsets_scan_byte_for_byte(
        prefix_size, n_candidates, length, lambdas, kind, seed, data):
    d = prefix_size + n_candidates
    if kind == "unit":
        null = unit_null(d, seed=seed % 1000 + 1)
    elif kind == "ridged":
        null = step_null(d, seed, ridged=True)
    else:
        null = collinear_null(d, seed)
    names = null.predictor_names
    prefix, candidates = names[:prefix_size], names[prefix_size:]
    deviations = np.random.default_rng(seed).standard_normal((length, d)) * np.sqrt(
        np.diag(null.sigma))
    table = mewma.SharedScanTable(null, tuple(lambdas), {
        lam: mewma._ewma_states(deviations.copy(), lam) for lam in lambdas})
    # the whole candidate set, a shuffle of it, and a subset of the shuffle:
    # a column depends neither on its batch-mates nor on their order
    shuffled = data.draw(st.permutations(candidates))
    part = data.draw(st.lists(st.sampled_from(shuffled), min_size=1, unique=True))
    for lam in lambdas:
        for batch in (candidates, tuple(shuffled), tuple(part)):
            E = table.step_scan(lam, prefix, batch)
            assert E.shape == (length, len(batch))
            for cand, column in zip(batch, E.T):
                subset = prefix + (cand,)
                # the one-candidate case, and the whole quadratic form
                # substituted in one pass with the subset's own factor
                assert column.tobytes() == table.scan(lam, subset, 1.0).E.tobytes()
                S = table.states[lam][:, [names.index(n) for n in subset]]
                whole = mewma._quad_form(S, mewma.smoothed_factor(null.factor(subset), lam))
                assert column.tobytes() == whole.tobytes()


def near_singular_null(d, seed):
    """A d-predictor null whose predictors are each the last plus a small
    independent part: every leading block is badly conditioned (up to about
    2e11) but within ``MAX_CONDITION``, so conditioning adds no ridge."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(3 * d, d))
    for j in range(1, d):
        X[:, j] = X[:, j - 1] + 3e-5 * X[:, j]
    sigma, ridge_applied, delta = condition_covariance(np.cov(X, rowvar=False))
    names = tuple(f"x{i}" for i in range(d))
    return NullModel(names, X.mean(axis=0), sigma, 100, ridge_applied, delta)


@pytest.mark.parametrize("phi", [10.0, 20.0, 50.0])
def test_step_thresholds_are_equivalent_to_the_whole_product(phi):
    # every step k = 1..8 of four fixed 8-predictor nulls (full-rank, ridged,
    # collinear, and unridged near MAX_CONDITION) against thresholds solved
    # on paths formed with the whole product: each h within 1e-5 relative,
    # at the same achieved ATFS
    near_singular = near_singular_null(8, 4)
    assert not near_singular.ridge_applied
    assert 1e11 < np.linalg.cond(near_singular.sigma) <= mewma.MAX_CONDITION
    sims, lambdas, seed = 60, (0.1, 0.5, 0.9), (11, 3)
    length = calibrate._checked_length(phi)
    calibrate._solve_unit_null.cache_clear()
    for null in (unit_null(8, seed=5), step_null(8, 3, True), collinear_null(8, 7),
                 near_singular):
        names = null.predictor_names
        for k in range(1, 9):
            prefix, candidates = names[: k - 1], names[k - 1 :]
            solves = calibrate._step_solves(null, prefix, candidates, lambdas, phi, sims, None,
                                            seed)
            for lam, row in zip(lambdas, solves):
                for cand, (h, atfs) in zip(candidates, row):
                    E = whole_product_paths(null.subset(prefix + (cand,)), lam, sims, length,
                                            seed)
                    h_whole, atfs_whole = calibrate._solve_paths(E, phi)
                    assert h == pytest.approx(h_whole, rel=1e-5, abs=0.0)
                    assert atfs == atfs_whole


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["random", "full-rank", "ridged", "collinear", "near-singular"]),
    d=st.integers(2, 8),
    order=st.randoms(use_true_random=False),
    seed=st.integers(0, 2**32 - 1),
)
def test_factor_rows_extend_their_prefix_and_agree_with_lapack(kind, d, order, seed):
    null = {"random": lambda: unit_null(d, seed),
            "full-rank": lambda: step_null(d, seed, False),
            "ridged": lambda: step_null(d, seed, True),
            "collinear": lambda: collinear_null(d, seed),
            "near-singular": lambda: near_singular_null(d, seed)}[kind]()
    assert null.ridge_applied == (kind in ("ridged", "collinear"))
    names = list(null.predictor_names)
    order.shuffle(names)
    names = tuple(names)
    L = null.factor(names)
    assert not L.flags.writeable
    for k in range(1, d + 1):
        # the first k rows are the factor of the first k names, bit for bit,
        # from the memo and formed afresh from that block alone
        assert np.array_equal(L[:k, :k], null.factor(names[:k]))
        assert np.array_equal(L[:k, :k], null.subset(names[:k]).factor(names[:k]))
        assert not L[:k, k:].any()
    sigma = null.subset(names).sigma
    sd = np.sqrt(np.diag(sigma))
    # against LAPACK's factor, measured over 300 seeds of every kind at
    # d = 2..8: each entry within 0.68 cond(R) eps times its row's norm
    # sqrt(sigma_ii), R the correlation matrix; L L' within 2.0 eps of
    # sigma, relative to sd_i sd_j
    bound = np.linalg.cond(sigma / np.outer(sd, sd)) * np.finfo(float).eps
    assert np.all(np.abs(L - np.linalg.cholesky(sigma)) <= bound * sd[:, None])
    assert np.all(np.abs(L @ L.T - sigma) <= 4 * np.finfo(float).eps * np.outer(sd, sd))


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 6),
    data=st.data(),
    shrink=st.floats(0.0, 0.999),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_pivot_that_is_not_positive_raises_before_any_path(d, data, shrink, seed):
    # predictor j's variance is shrink times the part its covariances with
    # the earlier predictors account for, so its pivot is zero or below
    null = unit_null(d, seed)
    j = data.draw(st.integers(0, d - 1))
    sigma = null.sigma.copy()
    sigma[j, j] = shrink * np.sum(null.factor(null.predictor_names)[j, :j] ** 2)
    bad = NullModel(null.predictor_names, null.mu, sigma, 100)
    names = bad.predictor_names
    with pytest.raises(np.linalg.LinAlgError):
        bad.factor(names[: j + 1])
    # the failing candidate is the step's last: no other candidate's paths
    # are yielded first
    paths = calibrate.step_statistic_paths(bad, names[:j], names[j + 1 :] + names[j : j + 1],
                                           [0.3, 0.6], 4, 5, seed)
    with pytest.raises(np.linalg.LinAlgError):
        next(paths)


def test_a_step_forms_each_subset_factor_once_and_calls_no_lapack_cholesky(monkeypatch):
    from epiwarn.mewma import estimate_null, precompute_shared_states
    from epiwarn.panel import SyntheticPanelSpec, generate_synthetic

    panel = generate_synthetic(SyntheticPanelSpec(seasons=4, predictor_count=5, rng_seed=3))
    events = detect_events(panel.gold, 1.25, 3)
    windows = build_windows(events, 16, 8, panel.gold)
    lambdas = (0.2, 0.5, 0.8)
    table = precompute_shared_states(panel, estimate_null(panel, events), lambdas)
    calibrate._UNIT_NULL.factor(("unit",))  # formed before counting starts
    formed, batches = [], []
    extend_factor, step_scan = mewma.extend_factor, mewma.SharedScanTable.step_scan

    def counted_rows(head, row):
        formed.append(row.tobytes())
        return extend_factor(head, row)

    def counted_step_scan(self, lam, prefix, candidates):
        batches.append((lam, tuple(prefix), tuple(candidates)))
        return step_scan(self, lam, prefix, candidates)

    def one_by_one(*args, **kwargs):
        raise AssertionError("a step scanned a subset on its own")

    def lapack(*args, **kwargs):
        raise AssertionError("np.linalg.cholesky called")

    monkeypatch.setattr(mewma, "extend_factor", counted_rows)
    monkeypatch.setattr(mewma.SharedScanTable, "step_scan", counted_step_scan)
    monkeypatch.setattr(mewma.SharedScanTable, "scan", one_by_one)
    monkeypatch.setattr(np.linalg, "cholesky", lapack)
    names = table.null.predictor_names
    # the first step's singletons, whose nulls are the unit null, and the
    # second step's extensions of names[0]
    subsets = [(c,) for c in names] + [names[:1] + (c,) for c in names[1:]]
    prefixes = ((), names[:1])
    for prefix in prefixes:
        calibrate.optimize_step(table, windows, prefix, names[len(prefix) :], 10.0, sims=60,
                                seed=0)
    # one batched scan per (step, lambda) holds every candidate, and each
    # subset's factor is formed once, by the step or its first batch
    assert batches == [(lam, prefix, names[len(prefix) :])
                       for prefix in prefixes for lam in lambdas]
    index = {n: i for i, n in enumerate(names)}
    rows = [table.null.sigma[index[s[-1]], [index[n] for n in s]].tobytes() for s in subsets]
    assert sorted(formed) == sorted(rows)


def test_null_paths_and_the_panel_scan_are_float64():
    null = unit_null(3, seed=2)
    for E in simulate_statistic_paths(null, (0.3, 0.6), 5, 7, 1):
        assert E.dtype == np.float64
    [(_, _, E)] = calibrate.step_statistic_paths(null, ("x0",), ("x1",), [0.4], 5, 7, 1)
    assert E.dtype == np.float64
    *_, table, prefix, candidates = _step_setup(1)
    trace = table.scan(0.4, prefix + candidates[:1], 5.0)
    assert trace.E.dtype == np.float64
    assert table.states[0.4].dtype == np.float64
