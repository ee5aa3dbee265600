import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epiwarn.events import EventSet, detect_events
from epiwarn.mewma import (
    AlarmTrace,
    DetectorConfig,
    EstimationError,
    NullModel,
    alarm_mask,
    condition_covariance,
    estimate_null,
    onset_mask,
    precompute_shared_states,
    run_scan,
    smoothed_factor,
    write_trace_csv,
)
from epiwarn.panel import WeekAxis

from conftest import make_panel


def naive_scan(X, mu, sigma, lam):
    """Independent oracle: the scan recursion written verbatim, loop by loop,
    with an explicit matrix inverse for the quadratic form."""
    n, d = X.shape
    S = np.zeros((n, d))
    E = np.zeros(n)
    sigma_s_inv = np.linalg.inv((lam / (2.0 - lam)) * sigma)
    s_prev = np.zeros(d)
    for t in range(n):
        raw = lam * (X[t] - mu) + (1.0 - lam) * s_prev
        s = np.array([max(0.0, v) for v in raw])
        S[t] = s
        E[t] = float(s @ sigma_s_inv @ s)
        s_prev = s
    return S, E


def _null(names, mu, sigma, n_base=50):
    return NullModel(
        predictor_names=tuple(names),
        mu=np.asarray(mu, dtype=float),
        sigma=np.asarray(sigma, dtype=float),
        baseline_week_count=n_base,
    )


def test_univariate_hand_example():
    # lam=0.5, mu=0, sigma=1, X_1=1: S_1=0.5, smoothed cov 1/3, E_1=0.75
    panel = make_panel([0.0, 0.0], [[0.0, 1.0]])
    null = _null(["c1"], [0.0], [[1.0]])
    trace = run_scan(panel, null, DetectorConfig(("c1",), 0.5, 10.0))
    assert trace.S[1, 0] == pytest.approx(0.5, abs=1e-15)
    assert smoothed_factor(null.factor(("c1",)), 0.5)[0, 0] ** 2 == pytest.approx(
        1.0 / 3.0, abs=1e-15)
    assert trace.E[1] == pytest.approx(0.75, abs=1e-12)


def test_in_control_fixed_point():
    mu = np.array([1.5, -2.0])
    X = np.tile(mu, (30, 1))
    panel = make_panel(np.zeros(30), [X[:, 0], X[:, 1]])
    null = _null(["c1", "c2"], mu, np.eye(2))
    trace = run_scan(panel, null, DetectorConfig(("c1", "c2"), 0.3, 1e-9))
    assert np.all(trace.S == 0.0)
    assert np.all(trace.E == 0.0)
    assert trace.alarm_weeks.size == 0


def test_alarm_clustering_rule():
    E = np.array([0.0, 5.0, 6.0, 0.0, 7.0, np.nan])
    alarms = alarm_mask(E, 4.0)
    assert np.flatnonzero(alarms).tolist() == [1, 2, 4]
    assert np.flatnonzero(onset_mask(alarms)).tolist() == [1, 4]
    trace = AlarmTrace.from_alarms(E, alarms)
    assert trace.alarm_weeks.tolist() == [1, 2, 4]
    assert trace.cluster_onsets.tolist() == [1, 4]


def test_estimate_null_two_point_sample():
    # baseline weeks carry candidate values [2, 4]: mean 3, unbiased var 2
    panel = make_panel([1.0, 2.0, 2.0, 2.0, 1.0], [[2.0, 9.0, 9.0, 9.0, 4.0]])
    events = detect_events(panel.gold, 1.5, 3)
    assert events.events == ((1, 3),)
    null = estimate_null(panel, events, ["c1"])
    assert null.mu[0] == pytest.approx(3.0)
    assert null.sigma[0, 0] == pytest.approx(2.0)
    assert null.baseline_week_count == 2
    assert not null.ridge_applied


def test_estimate_null_requires_enough_baseline():
    panel = make_panel([1.0, 2.0, 2.0, 2.0, 1.0], [[2.0, 9.0, 9.0, 9.0, 4.0]])
    events = detect_events(panel.gold, 1.5, 3)
    with pytest.raises(EstimationError, match="baseline weeks"):
        estimate_null(panel, events, ["c1", "c1"])


def test_duplicated_predictor_triggers_ridge():
    rng = np.random.default_rng(0)
    x = rng.normal(size=40)
    panel = make_panel(np.zeros(40), [x, x.copy()], names=["a", "b"])
    events = EventSet(5.0, 3, ())
    null = estimate_null(panel, events, ["a", "b"])
    assert null.ridge_applied
    assert null.ridge_delta > 0
    # the inflated matrix must admit a Cholesky factorization
    np.linalg.cholesky(null.sigma)
    raw = np.cov(np.column_stack([x, x]), rowvar=False, ddof=1)
    assert null.sigma[0, 0] > raw[0, 0]


def test_baseline_mask_against_bruteforce(noiseless_panel):
    events = detect_events(noiseless_panel.gold, 1.25, 3)
    assert len(events) == 6
    mask = events.baseline_mask(noiseless_panel.n_weeks)
    oracle = np.array(
        [not any(s <= t <= e for s, e in events.events) for t in range(noiseless_panel.n_weeks)]
    )
    assert np.array_equal(mask, oracle)
    null = estimate_null(noiseless_panel, events)
    assert null.baseline_week_count == int(oracle.sum())


def test_scan_matches_naive_oracle_random_panels():
    rng = np.random.default_rng(1234)
    # the last shape is a 20-season panel's scan of 10 predictors
    for n, d in [(200, 3)] * 8 + [(1040, 10)]:
        mu = rng.normal(size=d)
        A = rng.normal(size=(d, d))
        sigma = A @ A.T + 0.5 * np.eye(d)
        X = rng.multivariate_normal(mu, sigma, size=n)
        panel = make_panel(np.zeros(n), [X[:, j] for j in range(d)])
        null = _null(panel.candidate_names(), mu, sigma)
        lam = float(rng.uniform(0.1, 0.9))
        h = float(rng.uniform(1.0, 10.0))
        trace = run_scan(panel, null, DetectorConfig(panel.candidate_names(), lam, h))
        S_ref, E_ref = naive_scan(X, mu, sigma, lam)
        assert np.allclose(trace.S, S_ref, rtol=1e-10, atol=1e-12)
        denom = np.maximum(np.abs(E_ref), 1.0)
        assert np.max(np.abs(trace.E - E_ref) / denom) < 1e-10
        assert np.array_equal(trace.alarm_weeks, np.flatnonzero(E_ref > h))


def test_nonnegativity_and_monotone_alarms():
    rng = np.random.default_rng(7)
    n, d = 150, 4
    X = rng.normal(size=(n, d))
    panel = make_panel(np.zeros(n), [X[:, j] for j in range(d)])
    null = _null(panel.candidate_names(), np.zeros(d), np.eye(d))
    trace = run_scan(panel, null, DetectorConfig(panel.candidate_names(), 0.4, 2.0))
    assert np.all(trace.S >= 0.0)
    assert np.all(trace.E >= 0.0)
    previous = None
    for h in [0.5, 1.0, 2.0, 4.0, 8.0]:
        t = run_scan(panel, null, DetectorConfig(panel.candidate_names(), 0.4, h))
        weeks = set(t.alarm_weeks.tolist())
        if previous is not None:
            assert weeks <= previous
        previous = weeks


def test_quadratic_form_solve_matches_explicit_inverse():
    rng = np.random.default_rng(21)
    from epiwarn.mewma import _quad_form

    for _ in range(20):
        d = int(rng.integers(1, 6))
        A = rng.normal(size=(d, d))
        sigma_s = A @ A.T + np.eye(d)
        S = np.abs(rng.normal(size=(40, d)))
        E = _quad_form(S, np.linalg.cholesky(sigma_s))
        inv = np.linalg.inv(sigma_s)
        E_ref = np.einsum("ti,ij,tj->t", S, inv, S)
        denom = np.maximum(np.abs(E_ref), 1e-30)
        assert np.max(np.abs(E - E_ref) / denom) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 6),
    n=st.integers(1, 80),
    offset=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_quadratic_form_does_not_depend_on_memory_placement(d, n, offset, seed):
    from epiwarn.mewma import _quad_form

    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d, d))
    L = np.linalg.cholesky(A @ A.T + np.eye(d))
    S = np.abs(rng.normal(size=(n, d)))
    placements = (
        np.empty(offset + n * d)[offset:].reshape(n, d),  # `offset` elements into a buffer
        np.empty((n, d), order="F"),  # column-major
        np.empty((2 * n, d))[::2],  # every other row of a larger array
    )
    E = _quad_form(S.copy(), L)
    for placed in placements:
        placed[...] = S
        assert np.array_equal(_quad_form(placed, L), E)


def test_quadratic_form_does_not_depend_on_row_split():
    from epiwarn.mewma import _quad_form

    rng = np.random.default_rng(12)
    A = rng.normal(size=(4, 4))
    L = np.linalg.cholesky(A @ A.T + np.eye(4))
    S = np.abs(rng.normal(size=(3000, 4)))
    pieces = [_quad_form(S[a : a + 7], L) for a in range(0, len(S), 7)]
    assert np.array_equal(_quad_form(S, L), np.concatenate(pieces))


def test_subset_projection_is_exact(synth_panel):
    rng = np.random.default_rng(99)
    big = synth_panel
    events = detect_events(big.gold, 1.25, 3)
    full_null = estimate_null(big, events)
    table = precompute_shared_states(big, full_null, [0.2, 0.5, 0.8])
    names = big.candidate_names()
    for _ in range(10):
        k = int(rng.integers(1, len(names) + 1))
        subset = tuple(rng.choice(names, size=k, replace=False))
        lam = float(rng.choice([0.2, 0.5, 0.8]))
        h = float(rng.uniform(1.0, 30.0))
        via_table = table.scan(lam, subset, h)
        direct = run_scan(big, full_null.subset(subset), DetectorConfig(subset, lam, h))
        assert np.array_equal(via_table.S, direct.S)
        assert np.array_equal(via_table.E, direct.E)
        assert np.array_equal(via_table.alarm_weeks, direct.alarm_weeks)
        assert np.array_equal(via_table.cluster_onsets, direct.cluster_onsets)


def test_identity_projection_equals_direct(synth_panel):
    events = detect_events(synth_panel.gold, 1.25, 3)
    full_null = estimate_null(synth_panel, events)
    table = precompute_shared_states(synth_panel, full_null, [0.3])
    names = synth_panel.candidate_names()
    via_table = table.scan(0.3, names, 5.0)
    direct = run_scan(synth_panel, full_null, DetectorConfig(names, 0.3, 5.0))
    assert np.array_equal(via_table.E, direct.E)


def test_shared_table_shape():
    # 9 lambdas over 240 candidates and 350 weeks: 9 state matrices of
    # 240 x 350 values each
    rng = np.random.default_rng(5)
    n, d = 350, 240
    X = rng.normal(size=(n, d))
    panel = make_panel(np.zeros(n), [X[:, j] for j in range(d)])
    null = _null(panel.candidate_names(), np.zeros(d), np.eye(d), n_base=n)
    grid = [round(0.1 * k, 1) for k in range(1, 10)]
    table = precompute_shared_states(panel, null, grid)
    assert len(table.states) == 9
    for lam in grid:
        assert table.states[lam].shape == (n, d)
    assert sum(s.size for s in table.states.values()) == 9 * 240 * 350


def textbook_states(X, lam):
    """The one-sided EWMA of (..., n, d) deviations written out week by week
    for one float lambda: s = max(0, lam * x + (1 - lam) * s) from s = 0."""
    S, s = np.empty_like(X), np.zeros(X.shape[:-2] + X.shape[-1:])
    for t in range(X.shape[-2]):
        s = np.maximum(0.0, lam * X[..., t, :] + (1 - lam) * s)
        S[..., t, :] = s
    return S


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 4),
    k=st.integers(2, 4),
    n=st.integers(1, 30),
    width=st.integers(1, 8),
    lambdas=st.lists(st.floats(0.01, 0.99), min_size=4, max_size=4),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ewma_states_equal_the_textbook_recursion_bit_for_bit(m, k, n, width, lambdas,
                                                              zero_share, seed):
    from epiwarn.mewma import _ewma_states

    rng = np.random.default_rng(seed)

    def deviations(shape):
        # negative deviations, and exact zeros of either sign
        X = rng.normal(size=shape) * rng.uniform(0.1, 10.0)
        zeros = rng.random(shape) < zero_share
        X[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
        return X

    def check(X, lam, expected):
        D = X.copy()
        assert _ewma_states(D, lam) is D
        assert D.tobytes() == expected.tobytes()  # bit for bit: 0.0 is not -0.0

    def check_rows(X, lam, lams):
        check(X, lam, np.stack([textbook_states(x, float(l)) for x, l in zip(X, lams)]))

    lams = np.array(lambdas[:m])
    # a float lambda
    X = deviations((n, width))
    check(X, lambdas[0], textbook_states(X, lambdas[0]))
    # one lambda per leading row, shaped (m, 1)
    check_rows(deviations((m, n, width)), lams[:, None], lams)
    # a prefix-terms stack (m, k - 1, length, sims) with (m, 1, 1) lambdas
    check_rows(deviations((m, k - 1, n, width)), lams[:, None, None], lams)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 6),
    n=st.integers(2, 60),
    grid=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=9, unique=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_precompute_equals_one_recursion_per_lambda(d, n, grid, seed):
    from epiwarn.mewma import _ewma_states

    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    panel = make_panel(np.zeros(n), [X[:, j] for j in range(d)])
    null = _null(panel.candidate_names(), rng.normal(size=d), np.eye(d), n_base=n)
    table = precompute_shared_states(panel, null, grid)
    assert table.lambdas == tuple(grid)
    for lam in grid:
        assert np.array_equal(table.states[lam], _ewma_states(X - null.mu, lam))


def test_precompute_peak_memory_is_the_stack_plus_one_copy():
    rng = np.random.default_rng(8)
    n, d = 312, 30
    panel = make_panel(np.zeros(n), [rng.normal(size=n) for _ in range(d)])
    null = _null(panel.candidate_names(), np.zeros(d), np.eye(d), n_base=n)
    grid = [round(0.1 * k, 1) for k in range(1, 10)]
    tracemalloc.start()
    try:
        precompute_shared_states(panel, null, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (9, n, d) stack, one (n, d) copy of the panel and small objects
    # (numpy's 64 KiB ufunc buffer among them); a second stack would add
    # about 660 KiB
    assert peak <= 8 * (len(grid) * n * d + n * d) + 128 * 1024


def test_projection_close_to_fresh_subset_null(synth_panel):
    # a from-scratch subset estimate agrees with the projected full null up
    # to BLAS summation noise
    events = detect_events(synth_panel.gold, 1.25, 3)
    full_null = estimate_null(synth_panel, events)
    subset = synth_panel.candidate_names()[:2]
    fresh = estimate_null(synth_panel, events, subset)
    projected = full_null.subset(subset)
    assert np.allclose(fresh.mu, projected.mu, rtol=1e-12)
    assert np.allclose(fresh.sigma, projected.sigma, rtol=1e-9)


def test_dimension_mismatch_rejected():
    panel = make_panel(np.zeros(10), [np.ones(10)])
    null = _null(["c1", "other"], [0.0, 0.0], np.eye(2))
    with pytest.raises(ValueError, match="config asks"):
        run_scan(panel, null, DetectorConfig(("c1",), 0.5, 1.0))
    null1 = _null(["missing"], [0.0], [[1.0]])
    with pytest.raises(ValueError, match="no candidate series"):
        run_scan(panel, null1, DetectorConfig(("missing",), 0.5, 1.0))


def test_condition_covariance_leaves_good_matrices_alone():
    sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
    out, ridged, delta = condition_covariance(sigma)
    assert not ridged and delta == 0.0
    assert np.array_equal(out, sigma)


def test_a_one_predictor_covariance_straight_from_np_cov_is_a_1x1_matrix():
    x = np.random.default_rng(4).normal(size=(12, 1))
    sample = np.cov(x, rowvar=False)
    assert sample.shape == ()
    out, ridged, delta = condition_covariance(sample)
    assert not ridged and delta == 0.0
    assert out.shape == (1, 1) and out[0, 0] == sample
    # a constant predictor's zero variance gets the ridge, as in a larger block
    out, ridged, delta = condition_covariance(np.cov(np.full((12, 1), 3.0), rowvar=False))
    assert ridged and out.shape == (1, 1) and out[0, 0] == delta


def test_a_constant_predictor_gets_the_ridge_as_its_variance():
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(2, 40))
    panel = make_panel(np.zeros(40), [x, np.full(40, 7.0), 1e3 * y], names=["a", "flat", "b"])
    null = estimate_null(panel, EventSet(5.0, 3, ()))
    assert null.ridge_applied
    assert np.all(np.isfinite(null.sigma))
    assert np.all(np.linalg.eigvalsh(null.sigma) > 0.0)
    # it has no correlation row and is scaled by 1: the ridge alone sets its
    # variance, and every other variance grows by the same fraction
    assert null.sigma[1, 1] == null.ridge_delta
    assert not null.sigma[1, [0, 2]].any()
    raw = np.cov(np.column_stack([x, 1e3 * y]), rowvar=False)
    np.testing.assert_allclose(np.diag(null.sigma)[[0, 2]],
                               np.diag(raw) * (1.0 + null.ridge_delta), rtol=1e-14)


@settings(max_examples=40, deadline=None)
@given(exponents=st.lists(st.integers(-40, 40), min_size=3, max_size=3),
       collinear=st.booleans())
def test_conditioning_does_not_depend_on_units(exponents, collinear):
    # usability and the ridge are judged on the correlation matrix, so
    # power-of-two units scale the conditioned matrix exactly
    X = np.random.default_rng(5).normal(size=(20, 3))
    if collinear:
        X[:, 2] = X[:, 0] + X[:, 1]
    sigma = np.cov(X, rowvar=False)
    D = 2.0 ** np.array(exponents)
    out, ridged, delta = condition_covariance(sigma)
    scaled, scaled_ridged, scaled_delta = condition_covariance(D[:, None] * sigma * D)
    assert ridged == collinear
    assert (scaled_ridged, scaled_delta) == (ridged, delta)
    assert np.array_equal(scaled, D[:, None] * out * D)


def test_trace_csv_format(tmp_path):
    axis = WeekAxis(start="2010-W01", length=5)
    trace = AlarmTrace(
        E=np.array([0.0, 5.0, 6.0, 0.0, 7.0]),
        alarm_weeks=np.array([1, 2, 4]),
        cluster_onsets=np.array([1, 4]),
    )
    write_trace_csv(trace, axis, tmp_path / "t.csv")
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "week,E,alarm,cluster_onset"
    assert lines[2] == "2010-W02,5.0,1,1"
    assert lines[3] == "2010-W03,6.0,1,0"
