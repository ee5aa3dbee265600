"""Alarm-threshold calibration against a false-signal budget.

The average time between false signals (ATFS) of a detector is estimated by
Monte Carlo: draw i.i.d. multivariate-normal sequences from the null model,
scan them, and average the spacing between successive alarm weeks. For a
fixed smoothing parameter one set of statistic paths is simulated, and on it
ATFS(h) = N / #{E > h} for N path-weeks, so the threshold meeting a target
ATFS is solved exactly from an order statistic of the pooled values.

Every null path set comes from one kernel, ``step_statistic_paths``. A
greedy selection step scores every extension prefix + (c,) of the chosen
prefix, and all of them draw the same standard normals for one (lambda,
seed), so the normals are drawn once per step and each candidate applies
its own Cholesky factor, the prefix's factor plus one row, to them. The
recursion is elementwise and the quadratic form sums its terms in
coordinate order, so the prefix's states and partial sum are formed once
per run of candidates whose factors share their leading rows, the
candidates' new columns are recursed together a block at a time, and each
candidate's statistic is the partial sum plus its own squared term. One
subset's paths (``simulate_statistic_paths``) are the one-candidate step
of its last predictor; only one block is live at a time. The paths equal
those of the scan's own recursion and quadratic form bit for bit.

A one-predictor statistic does not depend on the null's variance, so all
1-d nulls share one memoized solve against the unit null per (lambda,
target, simulation size, seed).
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import evaluate, mewma
from .events import DetectionWindowSet, EventSet
from .mewma import AlarmTrace, NullModel, SharedScanTable, estimate_null, precompute_shared_states
from .panel import AlignedPanel

DEFAULT_LAMBDA_GRID: tuple[float, ...] = tuple(round(0.1 * k, 1) for k in range(1, 10))
DEFAULT_ATFS = 20.0
DEFAULT_SIMS = 1000
ATFS_TOL = 0.5  # largest accepted |achieved - target ATFS| of a solved threshold, in weeks


class CalibrationError(RuntimeError):
    """Threshold calibration failed."""


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
    used directly. Deterministic for a fixed seed. This is the one-candidate
    step ``names[:-1] + names[-1:]`` of ``step_statistic_paths``, so for
    d > 1 the paths are a strided view into the draws' product.
    """
    names = null.predictor_names
    return next(step_statistic_paths(null, names[:-1], names[-1:], lam, sims, length, seed))


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

    Every extension of one prefix draws the same standard normals, so they
    are drawn once, and each candidate applies its own Cholesky factor (the
    prefix's factor plus one row) to them. The candidates are cut into
    blocks (``_step_blocks``): runs of candidates whose factors of sigma and
    of the smoothed covariance share their leading rows bit for bit, so that
    their prefix states and terms do too. Those are recursed and substituted
    once per run, from its first candidate's product, and each block's new
    columns are recursed together; each candidate's E is the prefix's
    partial sum plus its own squared term (``mewma._extend``). A subset whose
    covariance is not positive definite raises ``LinAlgError`` before any
    paths are yielded.
    """
    prefix = tuple(prefix)
    _check_path_shape(lam, sims, length)
    factors = [
        (np.linalg.cholesky(sub.sigma), np.linalg.cholesky(sub.smoothed_cov(lam)))
        for sub in (null.subset(prefix + (cand,)) for cand in candidates)
    ]
    z = np.random.default_rng(seed).standard_normal((sims, length, len(prefix) + 1))
    lead = None
    for rows, members in _step_blocks(factors, sims * length):
        states = head = None  # the previous block goes before the next one is made
        L, smoothed = factors[members[0]]
        if rows != lead or len(members) == 1:
            head = z @ L.T
        if rows != lead:  # a new run: the old run's terms go before its own are made
            lead = rows
            terms = e = None
            terms, e = _prefix_terms(head, smoothed, lam)
        if len(members) == 1:
            # a lone candidate's block is its own product's last column
            states = mewma._ewma_states(head[..., -1:], lam).reshape(1, -1)
        else:
            head = None
            states = _block_states(z, [factors[m][0] for m in members], lam)
        for row, m in enumerate(members):
            yield mewma._extend(states[row], factors[m][1][-1], terms, e).reshape(sims, length)


STEP_BLOCK_VALUES = 2**17  # most float64 states in one block of a step's new columns


def _step_blocks(factors, n: int) -> list:
    """The step's blocks in candidate order, each as (leading rows, candidate
    indices): consecutive candidates whose factors' leading rows are the same
    bytes, at most ``max(1, STEP_BLOCK_VALUES // n)`` of them for paths of
    ``n`` path-weeks. The factors share their leading blocks and their size,
    so they match wherever the Cholesky routine's operation order depends on
    the size alone; the check keeps the paths exact where it does not.
    """
    size = max(1, STEP_BLOCK_VALUES // n)
    blocks: list = []
    for i, pair in enumerate(factors):
        rows = tuple(f[:-1].tobytes() for f in pair)
        if blocks and blocks[-1][0] == rows and len(blocks[-1][1]) < size:
            blocks[-1][1].append(i)
        else:
            blocks.append((rows, [i]))
    return blocks


def _prefix_terms(deviations: np.ndarray, smoothed: np.ndarray, lam: float):
    """The substituted terms (k - 1, sims * length) of the prefix columns of
    a candidate's deviations (sims, length, k), whose smoothed covariance has
    the factor ``smoothed``, and their partial sum. An empty prefix has no
    terms, and its partial sum is 0.0, which adds exactly."""
    k = deviations.shape[-1]
    if k == 1:
        return (), 0.0
    terms = np.moveaxis(deviations[..., :-1], -1, 0).copy()
    mewma._ewma_states(terms[..., None], lam)
    terms = terms.reshape(k - 1, -1)
    e = np.zeros(terms.shape[1])
    mewma._substitute(terms, smoothed[:-1, :-1], e, keep=True)
    return terms, e


def _block_states(z: np.ndarray, factors, lam: float) -> np.ndarray:
    """The (candidates, sims * length) states of several candidates' new
    columns: the last column of each one's deviations ``z @ L.T``, recursed
    together."""
    block = np.empty((len(factors),) + z.shape[:-1])
    for column, L in zip(block, factors):
        column[...] = (z @ L.T)[..., -1]
    mewma._ewma_states(block[..., None], lam)
    return block.reshape(len(factors), -1)


def _check_path_shape(lam: float, sims: int, length: int) -> None:
    if sims < 1 or length < 1:
        raise ValueError("sims and length must be >= 1")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must be in (0, 1), got {lam}")


def atfs_from_paths(E: np.ndarray, h: float) -> float:
    """Time-average spacing between alarms: observed scan weeks per alarm.

    Equals the long-run mean alarm-to-alarm gap (1 / alarm rate) and is
    exactly nondecreasing in h, which pairwise gap averages are not once
    finite windows censor the long inter-cluster gaps. Thresholds h <= 0
    alarm every week by convention (ATFS = 1 exactly); with no alarms at
    all the sentinel +inf is returned.
    """
    if h <= 0.0:
        return 1.0
    count = int(np.count_nonzero(E > h))
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
) -> AtfsEstimate:
    """Estimate ATFS for a (lambda, h) pair by fresh simulation.

    The default path length is the one ``solve_threshold`` uses for
    ``target`` (or the default target).
    """
    length = _checked_length(DEFAULT_ATFS if target is None else target, length)
    E = simulate_statistic_paths(null, lam, sims, length, seed)
    return AtfsEstimate(
        lam=lam,
        h=h,
        atfs=atfs_from_paths(E, h),
        simulation_count=sims,
        sequence_length=length,
        rng_seed=seed,
        target=target,
    )


def solve_threshold(
    null: NullModel,
    lam: float,
    phi: float,
    *,
    sims: int = DEFAULT_SIMS,
    length: int | None = None,
    seed=0,
) -> float:
    """The threshold h whose simulated ATFS at smoothing ``lam`` is nearest ``phi``.

    One set of statistic paths is simulated, and on it ATFS(h) is the number
    of path-weeks over the number of them above h, so h is read off an order
    statistic of the pooled values (``_solve_paths``). Targets phi <= 1
    return the boundary solution h = 0, where every week alarms. Raises
    ``CalibrationError`` when no h > 0 comes within ``ATFS_TOL`` of phi.

    A one-predictor statistic s^2 / var(s) does not depend on the null's
    variance, so every 1-d null is calibrated against the unit null, and that
    solve is memoized on its other arguments: the singletons of a selection
    step share one simulation per (lambda, seed).
    """
    return _solve(null, lam, phi, sims, _checked_length(phi, length), seed)[0]


def _checked_length(phi: float, length: int | None = None) -> int:
    """Path length for target ``phi``: ``length``, or 10 * phi weeks (at least 50)."""
    if phi < 1.0:
        raise CalibrationError(f"target ATFS must be >= 1 week, got {phi}")
    return max(int(10 * phi), 50) if length is None else length


_UNIT_NULL = NullModel(("unit",), np.zeros(1), np.ones((1, 1)), 0)


def _solve(null: NullModel, lam, phi, sims, length, seed) -> tuple[float, float]:
    """``solve_threshold``'s h and achieved ATFS."""
    key = _seed_key(seed)
    if null.dim == 1 and key is not None:
        return _solve_unit_null(lam, phi, sims, length, key)
    return _solve_paths(simulate_statistic_paths(null, lam, sims, length, seed), phi)


@functools.lru_cache(maxsize=1024)
def _solve_unit_null(lam, phi, sims, length, seed):
    return _solve_paths(simulate_statistic_paths(_UNIT_NULL, lam, sims, length, seed), phi)


def _seed_key(seed):
    """An integer seed or seed sequence as a hashable key; None for a seed that
    carries state of its own (a Generator or SeedSequence), which is not memoized."""
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    if isinstance(seed, (tuple, list)) and all(isinstance(s, (int, np.integer)) for s in seed):
        return tuple(int(s) for s in seed)
    return None


def _solve_paths(E: np.ndarray, phi: float) -> tuple[float, float]:
    """The threshold on given statistic paths and its achieved ATFS; consumes
    ``E``, whose values it reorders in place.

    With N path-weeks, ATFS(h) = N / #{E > h}, and the alarm counts some
    h > 0 achieves are #{E > t} for t = 0 or a pooled value t > 0. Of those,
    the largest at most N / phi and the smallest at least N / phi are the
    only ones that can be nearest phi, and the one whose ATFS is nearer
    wins (the fewer alarms on a tie). h is the midpoint of the gap between
    its smallest alarming value and t.
    """
    if phi <= 1.0:
        return 0.0, atfs_from_paths(E, 0.0)
    values = E.reshape(-1)
    n = values.size
    # ascending positions of the (floor(n/phi) + 1)-th and ceil(n/phi)-th
    # largest values; below is above - 1 where phi divides n, else above.
    # One partition places the value at above, and the one at below is the
    # largest of those before it. Only counts, maxima and minima are taken,
    # so the values are partitioned in place
    below, above = n - math.floor(n / phi) - 1, n - math.ceil(n / phi)
    values.partition(above)
    top = values[above]
    floors = {max(float(values[:above].max() if below < above else top), 0.0)}
    if top > 0.0:
        # alarm at every value >= top: t is the largest value below it, or 0
        floors.add(float(np.max(values[:above], where=values[:above] < top, initial=0.0)))
    options = []
    for t in floors:
        alarms = values > t
        count = int(np.count_nonzero(alarms))
        if count:
            midpoint = 0.5 * (t + float(values[alarms].min()))
            options.append((abs(n / count - phi), count, midpoint))
    if options:
        h = min(options)[2]
        atfs = atfs_from_paths(E, h)
        if h > 0.0 and abs(atfs - phi) <= ATFS_TOL:
            return h, atfs
    raise CalibrationError(
        f"no threshold h > 0 gives ATFS within {ATFS_TOL} of {phi} on {n} simulated path-weeks"
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
    table: SharedScanTable | None = None,
    curve: list | None = None,
) -> ConstraintCurvePoint:
    """Pick the (lambda, h) pair on the target-ATFS curve with the best in-sample score.

    For each lambda in the grid the threshold is solved at the target ATFS,
    the scan is run in-sample, and the mean-timeliness score over ``windows``
    is computed; the argmax is returned, ties broken by smaller lambda then
    smaller h. ``table`` lets callers reuse precomputed shared states and
    their training null model; ``curve`` (if given) collects every solved
    grid point, not just the winner. This is ``optimize_step`` for the one
    extension ``subset[:-1] + subset[-1:]``.
    """
    subset = tuple(subset)
    if not subset:
        raise ValueError("predictor subset must be nonempty")
    curves = None if curve is None else [curve]
    return optimize_step(
        panel, events, windows, subset[:-1], subset[-1:], phi, lambda_grid,
        sims=sims, seed=seed, table=table, curves=curves,
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
    table: SharedScanTable | None = None,
    curves: Sequence[list] | None = None,
    traces: list | None = None,
) -> list[ConstraintCurvePoint]:
    """``optimize_params`` for every subset prefix + (c,): one point per candidate.

    Lambda k calibrates every candidate with seed ``(*seed, k)``. With a
    nonempty prefix all of them are solved on paths from one draw of normals
    (``step_statistic_paths``); with an empty prefix they are 1-d nulls and
    share one solve against the unit null. The null and every scan come from
    ``table``; a single candidate may leave it out, and a table is then built
    from its subset's null, estimated from ``events``. ``curves`` (if given)
    holds one list per candidate that collects its solved grid points, and
    ``traces`` (if given) receives each candidate's scan at its chosen point.
    Raises ``CalibrationError`` when a candidate fails at every lambda.
    """
    prefix, candidates = tuple(prefix), tuple(candidates)
    if not candidates:
        raise ValueError("need at least one candidate")
    if len(events) == 0:
        raise ValueError("cannot optimize parameters without events")
    if table is None:
        if len(candidates) > 1:
            # one null per subset would differ from one estimated over all of them
            raise ValueError("several candidates need a shared table")
        null = estimate_null(panel, events, prefix + candidates)
        table = precompute_shared_states(panel, null, lambda_grid)

    best: list[ConstraintCurvePoint | None] = [None] * len(candidates)
    best_traces: list[AlarmTrace | None] = [None] * len(candidates)
    failures: list[list[str]] = [[] for _ in candidates]
    for k, lam in enumerate(lambda_grid):
        lam = float(lam)
        solves = _step_solves(
            table.null, prefix, candidates, lam, phi, sims, (*_seed_tuple(seed), k)
        )
        for i, (cand, solved) in enumerate(zip(candidates, solves)):
            if isinstance(solved, CalibrationError):
                failures[i].append(f"lam={lam}: {solved}")
                continue
            h, atfs = solved
            if h <= 0.0:
                failures[i].append(f"lam={lam}: boundary threshold h=0 is not a usable detector")
                continue
            trace = table.scan(lam, prefix + (cand,), h)
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
                best_traces[i] = trace
    for point, failed in zip(best, failures):
        if point is None:
            raise CalibrationError(
                "threshold solving failed for every lambda: " + "; ".join(failed)
            )
    if traces is not None:
        traces.extend(best_traces)
    return best


def _step_solves(null, prefix, candidates, lam, phi, sims, seed) -> list:
    """Each candidate's (h, achieved ATFS) at ``lam``, or the CalibrationError
    its solve raised. Besides the step's draws and prefix terms, one block
    of new columns (a lone candidate's: its own product) is live at a time,
    and each candidate's E is formed in it."""
    try:
        length = _checked_length(phi)
        if not prefix:
            # every 1-d null shares the memoized unit-null solve
            solved = _solve(null.subset(candidates[:1]), lam, phi, sims, length, seed)
            return [solved] * len(candidates)
    except CalibrationError as exc:
        return [exc] * len(candidates)
    solves: list = []
    for E in step_statistic_paths(null, prefix, candidates, lam, sims, length, seed):
        try:
            solves.append(_solve_paths(E, phi))
        except CalibrationError as exc:
            solves.append(exc)
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
