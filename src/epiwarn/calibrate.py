"""Alarm-threshold calibration against a false-signal budget.

The average time between false signals (ATFS) of a detector is estimated by
Monte Carlo: draw i.i.d. multivariate-normal sequences from the null model,
scan them, and average the spacing between successive alarm weeks. For a
fixed smoothing parameter the threshold meeting a target ATFS is found with
a bracketed secant solve over a single set of simulated statistic paths
(common random numbers), exploiting that ATFS is monotone in the threshold.

Each path's one-sided state is recursed week by week, and the quadratic form
is then taken once over all (path, week) states. A one-predictor statistic
does not depend on the null's variance, so all 1-d nulls share one memoized
solve against the unit null per (lambda, target, simulation size, seed).

A greedy selection step scores every extension prefix + (c,) of the chosen
prefix, and all of them draw the same standard normals for one (lambda,
seed). The normals are therefore drawn once per step
(``step_statistic_paths``), and each candidate applies its own Cholesky
factor, the prefix's factor plus one row, to them; only one candidate's
paths are live at a time. The paths equal the per-subset simulation's, so
the thresholds do too.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy.linalg import solve_triangular

from . import evaluate
from .events import DetectionWindowSet, EventSet
from .mewma import DetectorConfig, NullModel, SharedScanTable, estimate_null, run_scan
from .panel import AlignedPanel

DEFAULT_LAMBDA_GRID: tuple[float, ...] = tuple(round(0.1 * k, 1) for k in range(1, 10))
DEFAULT_ATFS = 20.0
DEFAULT_SIMS = 1000
DEFAULT_MAX_ITER = 100


class CalibrationError(RuntimeError):
    """Threshold calibration failed."""


class ThresholdSolveError(CalibrationError):
    """Secant solve did not converge; carries the last bracket."""

    def __init__(self, message: str, bracket: tuple[float, float]):
        super().__init__(message)
        self.bracket = bracket


@dataclass(frozen=True)
class AtfsEstimate:
    """One simulated ATFS measurement for a (lambda, h) pair."""

    lam: float
    h: float
    atfs: float
    simulation_count: int
    sequence_length: int
    rng_seed: object
    target: float | None = None

    def __post_init__(self):
        if not self.atfs > 0.0:
            raise ValueError("estimated ATFS must be positive")
        if self.simulation_count < 1:
            raise ValueError("simulation count must be >= 1")


@dataclass(frozen=True)
class ConstraintCurvePoint:
    """A (lambda, h) pair on the target-ATFS curve with its in-sample score."""

    lam: float
    h: float
    performance: float
    atfs: float


def simulate_statistic_paths(
    null: NullModel, lam: float, sims: int, length: int, seed
) -> np.ndarray:
    """Simulate (sims, length) test-statistic paths under the null model.

    Draws are i.i.d. multivariate normal with the null mean and covariance;
    since the scan only sees deviations from the mean, centered draws are
    used directly. Deterministic for a fixed seed.
    """
    _check_path_shape(lam, sims, length)
    L = np.linalg.cholesky(null.sigma)
    deviations = np.random.default_rng(seed).standard_normal((sims, length, null.dim)) @ L.T
    return _statistic_paths(null, lam, deviations)


def step_statistic_paths(
    null: NullModel,
    prefix: Sequence[str],
    candidates: Sequence[str],
    lam: float,
    sims: int,
    length: int,
    seed,
) -> Iterator[np.ndarray]:
    """Yield the (sims, length) null statistic paths of each subset prefix + (c,).

    For each candidate c, in order, the paths equal
    ``simulate_statistic_paths(null.subset(prefix + (c,)), lam, sims, length,
    seed)``: every extension of one prefix draws the same standard normals,
    so they are drawn once, and each candidate applies its own Cholesky
    factor (the prefix's factor plus one row) to them. A subset whose
    covariance is not positive definite raises ``LinAlgError``.
    """
    prefix = tuple(prefix)
    _check_path_shape(lam, sims, length)
    z = np.random.default_rng(seed).standard_normal((sims, length, len(prefix) + 1))
    for cand in candidates:
        sub = null.subset(prefix + (cand,))
        yield _statistic_paths(sub, lam, z @ np.linalg.cholesky(sub.sigma).T)


def _check_path_shape(lam: float, sims: int, length: int) -> None:
    if sims < 1 or length < 1:
        raise ValueError("sims and length must be >= 1")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must be in (0, 1), got {lam}")


def _statistic_paths(null: NullModel, lam: float, deviations: np.ndarray) -> np.ndarray:
    """The (sims, length) statistic paths of (sims, length, d) centered draws,
    which are overwritten with their one-sided state."""
    sims, length, d = deviations.shape
    # the recursion overwrites each step's draws with its state; the quadratic
    # form is then one in-place triangular solve over every (path, week). E is
    # allocated before the loop so that it takes the block freed by the raw
    # draws: allocated after, it finds that block fragmented by the loop's
    # temporaries, and peak resident memory grows by one path set
    E = np.empty((sims, length))
    s = np.zeros((sims, d))
    for t in range(length):
        s = np.maximum(0.0, lam * deviations[:, t, :] + (1.0 - lam) * s)
        deviations[:, t, :] = s
    Ls = np.linalg.cholesky(null.smoothed_cov(lam))
    z = solve_triangular(
        Ls, deviations.reshape(-1, d).T, lower=True, check_finite=False, overwrite_b=True
    )
    np.einsum("ij,ij->j", z, z, out=E.reshape(-1))
    return E


def atfs_from_paths(E: np.ndarray, h: float, cluster_spacing: bool = False) -> float:
    """Time-average spacing between alarms: observed scan weeks per alarm.

    Equals the long-run mean alarm-to-alarm gap (1 / alarm rate) and is
    exactly nondecreasing in h, which pairwise gap averages are not once
    finite windows censor the long inter-cluster gaps. Thresholds h <= 0
    alarm every week by convention (ATFS = 1 exactly); with no alarms at
    all the sentinel +inf is returned. ``cluster_spacing`` divides by
    cluster onsets instead of raw alarm weeks.
    """
    if h <= 0.0:
        return 1.0
    alarms = E > h
    if cluster_spacing:
        onsets = alarms.copy()
        onsets[:, 1:] &= ~alarms[:, :-1]
        count = int(onsets.sum())
    else:
        count = int(alarms.sum())
    if count == 0:
        return math.inf
    return E.size / count


def simulate_atfs(
    null: NullModel,
    lam: float,
    h: float,
    sims: int = DEFAULT_SIMS,
    length: int | None = None,
    seed=0,
    *,
    target: float | None = None,
    cluster_spacing: bool = False,
) -> AtfsEstimate:
    """Estimate ATFS for a (lambda, h) pair by fresh simulation."""
    if length is None:
        length = int(10 * (target if target is not None else DEFAULT_ATFS))
    E = simulate_statistic_paths(null, lam, sims, length, seed)
    atfs = atfs_from_paths(E, h, cluster_spacing)
    return AtfsEstimate(
        lam=lam,
        h=h,
        atfs=atfs,
        simulation_count=sims,
        sequence_length=length,
        rng_seed=seed,
        target=target,
    )


def solve_threshold(
    null: NullModel,
    lam: float,
    phi: float,
    tol: float = 0.5,
    max_iter: int = DEFAULT_MAX_ITER,
    *,
    sims: int = DEFAULT_SIMS,
    length: int | None = None,
    seed=0,
    cluster_spacing: bool = False,
    history: list | None = None,
) -> float:
    """Find h with |simulated ATFS(h) - phi| <= tol at smoothing ``lam``.

    One set of statistic paths is simulated up front and reused for every
    threshold evaluation (common random numbers), so the secant objective is
    deterministic and monotone. ``history`` (if given) collects the
    (h, atfs) evaluations in order. Targets phi <= 1 return the boundary
    solution h = 0, where every week alarms.

    A one-predictor statistic s^2 / var(s) does not depend on the null's
    variance, so every 1-d null is calibrated against the unit null, and that
    solve is memoized on its other arguments: the singletons of a selection
    step share one simulation per (lambda, seed).
    """
    length = _checked_length(phi, length)
    args = (lam, phi, tol, max_iter, sims, length)
    key = _seed_key(seed)
    if null.dim == 1 and key is not None:
        h, evals = _solve_unit_null(*args, key, cluster_spacing)
    else:
        h, evals = _solve(null, *args, seed, cluster_spacing)
    if history is not None:
        history.extend(evals)
    return h


def _checked_length(phi: float, length: int | None = None) -> int:
    """Path length for target ``phi``: ``length``, or 10 * phi weeks (at least 50)."""
    if phi < 1.0:
        raise CalibrationError(f"target ATFS must be >= 1 week, got {phi}")
    return max(int(10 * phi), 50) if length is None else length


_UNIT_NULL = NullModel(("unit",), np.zeros(1), np.ones((1, 1)), 0)


@functools.lru_cache(maxsize=1024)
def _solve_unit_null(lam, phi, tol, max_iter, sims, length, seed, cluster_spacing):
    return _solve(_UNIT_NULL, lam, phi, tol, max_iter, sims, length, seed, cluster_spacing)


def _seed_key(seed):
    """An integer seed or seed sequence as a hashable key; None for a seed that
    carries state of its own (a Generator or SeedSequence), which is not memoized."""
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    if isinstance(seed, (tuple, list)) and all(isinstance(s, (int, np.integer)) for s in seed):
        return tuple(int(s) for s in seed)
    return None


def _solve(
    null: NullModel, lam, phi, tol, max_iter, sims, length, seed, cluster_spacing
) -> tuple[float, tuple[tuple[float, float], ...]]:
    """Secant solve of ``solve_threshold``: h and the (h, atfs) evaluations."""
    E = simulate_statistic_paths(null, lam, sims, length, seed)
    return _solve_paths(E, lam, phi, tol, max_iter, cluster_spacing)


def _solve_paths(
    E: np.ndarray, lam, phi, tol, max_iter, cluster_spacing
) -> tuple[float, tuple[tuple[float, float], ...]]:
    """Secant solve on given statistic paths: h and the (h, atfs) evaluations."""
    evals: list[tuple[float, float]] = []

    def f(h: float) -> float:
        atfs = atfs_from_paths(E, h, cluster_spacing)
        evals.append((h, atfs))
        return atfs - phi

    if phi <= 1.0:
        f(0.0)
        return 0.0, tuple(evals)

    # bracket the root; h=0 sits below any phi > 1, the first guess comes from
    # the pooled statistic quantile matching the target alarm rate
    h_lo, f_lo = 0.0, 1.0 - phi
    h_hi = float(np.quantile(E, 1.0 - 1.0 / phi))
    f_hi = f(h_hi)
    expansions = 0
    while f_hi < 0.0:
        h_lo, f_lo = h_hi, f_hi
        h_hi = 2.0 * h_hi + 1.0
        f_hi = f(h_hi)
        expansions += 1
        if expansions > 200:
            raise ThresholdSolveError(
                f"could not bracket ATFS target {phi} at lam={lam}", (h_lo, h_hi)
            )
    if abs(f_hi) <= tol:
        return h_hi, tuple(evals)

    # safeguarded secant within [h_lo, h_hi]; bisection when the secant step
    # is unusable (infinite objective or step outside the bracket)
    h_prev, f_prev = h_lo, f_lo
    h_cur, f_cur = h_hi, f_hi
    for _ in range(max_iter):
        if math.isfinite(f_cur) and math.isfinite(f_prev) and f_cur != f_prev:
            h_next = h_cur - f_cur * (h_cur - h_prev) / (f_cur - f_prev)
        else:
            h_next = 0.5 * (h_lo + h_hi)
        if not h_lo < h_next < h_hi:
            h_next = 0.5 * (h_lo + h_hi)
        f_next = f(h_next)
        if abs(f_next) <= tol:
            return h_next, tuple(evals)
        if f_next < 0.0:
            h_lo, f_lo = h_next, f_next
        else:
            h_hi, f_hi = h_next, f_next
        h_prev, f_prev = h_cur, f_cur
        h_cur, f_cur = h_next, f_next
    raise ThresholdSolveError(
        f"no h with |ATFS - {phi}| <= {tol} within {max_iter} iterations at lam={lam}",
        (h_lo, h_hi),
    )


def optimize_params(
    panel: AlignedPanel,
    events: EventSet,
    windows: DetectionWindowSet,
    subset: Sequence[str],
    phi: float = DEFAULT_ATFS,
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    *,
    sims: int = DEFAULT_SIMS,
    seed=0,
    tol: float = 0.5,
    table: SharedScanTable | None = None,
    null: NullModel | None = None,
    curve: list | None = None,
) -> ConstraintCurvePoint:
    """Pick the (lambda, h) pair on the target-ATFS curve with the best in-sample score.

    For each lambda in the grid the threshold is solved at the target ATFS,
    the scan is run in-sample, and the mean-timeliness score over ``windows``
    is computed; the argmax is returned, ties broken by smaller lambda then
    smaller h. ``table``/``null`` let callers reuse precomputed shared states
    and a training null model; ``curve`` (if given) collects every solved
    grid point, not just the winner. This is ``optimize_step`` for the one
    extension ``subset[:-1] + subset[-1:]``.
    """
    subset = tuple(subset)
    if not subset:
        raise ValueError("predictor subset must be nonempty")
    curves = None if curve is None else [curve]
    return optimize_step(
        panel, events, windows, subset[:-1], subset[-1:], phi, lambda_grid,
        sims=sims, seed=seed, tol=tol, table=table, null=null, curves=curves,
    )[0]


def optimize_step(
    panel: AlignedPanel,
    events: EventSet,
    windows: DetectionWindowSet,
    prefix: Sequence[str],
    candidates: Sequence[str],
    phi: float = DEFAULT_ATFS,
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    *,
    sims: int = DEFAULT_SIMS,
    seed=0,
    tol: float = 0.5,
    table: SharedScanTable | None = None,
    null: NullModel | None = None,
    curves: Sequence[list] | None = None,
) -> list[ConstraintCurvePoint]:
    """``optimize_params`` for every subset prefix + (c,): one point per candidate.

    Lambda k calibrates every candidate with seed ``(*seed, k)``. With a
    nonempty prefix all of them are solved on paths from one draw of normals
    (``step_statistic_paths``); with an empty prefix they are 1-d nulls and
    share one solve against the unit null. The null defaults to the table's;
    a single candidate may leave both out, and its subset's null is then
    estimated from ``events``. ``curves`` (if given) holds one list per
    candidate that collects its solved grid points. Raises
    ``CalibrationError`` when a candidate fails at every lambda.
    """
    prefix, candidates = tuple(prefix), tuple(candidates)
    if not candidates:
        raise ValueError("need at least one candidate")
    if len(events) == 0:
        raise ValueError("cannot optimize parameters without events")
    names = prefix + candidates
    if null is None and table is None and len(candidates) > 1:
        # one null per subset would differ from one estimated over all of them
        raise ValueError("several candidates need a shared table or null model")
    if null is None:
        null = table.null if table is not None else estimate_null(panel, events, names)
    elif set(names) - set(null.predictor_names):
        raise ValueError("null model does not cover the requested subset")

    best: list[ConstraintCurvePoint | None] = [None] * len(candidates)
    failures: list[list[str]] = [[] for _ in candidates]
    for k, lam in enumerate(lambda_grid):
        lam = float(lam)
        solves = _step_solves(
            null, prefix, candidates, lam, phi, tol, sims, (*_seed_tuple(seed), k)
        )
        for i, (cand, solved) in enumerate(zip(candidates, solves)):
            if isinstance(solved, CalibrationError):
                failures[i].append(f"lam={lam}: {solved}")
                continue
            h, atfs = solved
            if h <= 0.0:
                failures[i].append(f"lam={lam}: boundary threshold h=0 is not a usable detector")
                continue
            subset = prefix + (cand,)
            if table is not None:
                trace = table.scan(lam, subset, h)
            else:
                trace = run_scan(panel, null.subset(subset), DetectorConfig(subset, lam, h))
            perf = evaluate.performance(trace, windows)
            point = ConstraintCurvePoint(lam=lam, h=h, performance=perf, atfs=atfs)
            if curves is not None:
                curves[i].append(point)
            if best[i] is None or (-point.performance, point.lam, point.h) < (
                -best[i].performance,
                best[i].lam,
                best[i].h,
            ):
                best[i] = point
    for point, failed in zip(best, failures):
        if point is None:
            raise CalibrationError(
                "threshold solving failed for every lambda: " + "; ".join(failed)
            )
    return best


def _step_solves(null, prefix, candidates, lam, phi, tol, sims, seed) -> list:
    """Each candidate's (h, achieved ATFS) at ``lam``, or the CalibrationError
    its solve raised. Only one candidate's paths are live at a time."""
    try:
        if not prefix:
            # every 1-d null shares the memoized unit-null solve
            evals: list[tuple[float, float]] = []
            h = solve_threshold(
                null.subset(candidates[:1]), lam, phi, tol=tol, sims=sims, seed=seed,
                history=evals,
            )
            return [(h, evals[-1][1])] * len(candidates)
        length = _checked_length(phi)
    except CalibrationError as exc:
        return [exc] * len(candidates)
    solves: list = []
    for E in step_statistic_paths(null, prefix, candidates, lam, sims, length, seed):
        try:
            h, evals = _solve_paths(E, lam, phi, tol, DEFAULT_MAX_ITER, False)
        except CalibrationError as exc:
            solves.append(exc)
        else:
            solves.append((h, evals[-1][1]))
        del E  # the next candidate's paths take its place
    return solves


def _seed_tuple(seed) -> tuple:
    if isinstance(seed, (tuple, list)):
        return tuple(seed)
    return (seed,)


def write_calibration_csv(points: Sequence[ConstraintCurvePoint], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "h", "atfs_est", "performance"])
        for p in points:
            writer.writerow([repr(p.lam), repr(p.h), repr(p.atfs), repr(p.performance)])
