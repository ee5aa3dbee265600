"""Alarm-threshold calibration against a false-signal budget.

The average time between false signals (ATFS) of a detector is estimated by
Monte Carlo: draw i.i.d. multivariate-normal sequences from the null model,
scan them, and average the spacing between successive alarm weeks. For a
fixed smoothing parameter one set of statistic paths is simulated, and on it
ATFS(h) = N / #{E > h} for N path-weeks, so the threshold meeting a target
ATFS is solved exactly from an order statistic of the pooled values.

Every null path set comes from one loop, ``step_statistic_paths``. A
greedy selection step scores every extension prefix + (c,) of the chosen
prefix at every lambda of the grid with one seed, so the standard normals
are drawn once per step: common random numbers. Each lambda's threshold
keeps its distribution, and the argmax over lambda compares thresholds
solved on the same paths. Each subset's Cholesky factor L is its prefix's
plus one row (``NullModel.factor``), and each lambda's is
sqrt(lam / (2 - lam)) L (``mewma.smoothed_factor``). The recursion is
elementwise and the quadratic form sums its terms in coordinate order, so
the loop forms the prefix's terms and partial sums once per chunk of
lambdas, recurses a bank of candidates' new columns at all the chunk's
lambdas in one pass over contiguous week rows, and forms each statistic as
the partial sum plus its own squared term. One budget,
``STEP_BLOCK_VALUES``, bounds a chunk and its bank. The draws are held
week-major, one (length, sims) block per coordinate, and each candidate
forms only its new column, ``L[-1] @ z``, elementwise (``_combine``). The
paths are those of the scan's own recursion and quadratic form on those
deviations, bit for bit; one subset's (``simulate_statistic_paths``) are
the one-candidate step of its last predictor. The step's in-sample scans
are batched the same way: each lambda scans every candidate from the
fold's table at once (``SharedScanTable.step_scan``) and scores them in
one ``evaluate.timeliness`` call (``optimize_step``).

A calibration seed is an integer s, drawn as (s,), or a sequence of them.
A one-predictor statistic does not depend on the null's variance, so all
1-d nulls share one memoized solve against the unit null per (lambda
grid, target, simulation size, seed).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import evaluate, mewma
from .events import DetectionWindowSet, EventSet
from .mewma import NullModel, SharedScanTable, estimate_null, precompute_shared_states
from .panel import AlignedPanel, write_csv

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


@dataclass(frozen=True)
class StepFit:
    """One candidate's calibration in a greedy step: the chosen grid
    ``point``, its scan statistic ``E`` there over the table's weeks, and
    every solved grid point (``curve``, in grid order)."""

    point: ConstraintCurvePoint
    E: np.ndarray
    curve: tuple[ConstraintCurvePoint, ...]


def simulate_statistic_paths(
    null: NullModel, lam: float | Sequence[float], sims: int, length: int, seed
) -> np.ndarray | Iterator[np.ndarray]:
    """Simulate (sims, length) test-statistic paths under the null model.

    Draws are i.i.d. multivariate normal with the null mean and covariance;
    since the scan only sees deviations from the mean, centered draws are
    used directly. Deterministic for a fixed seed. This is the one-candidate
    step ``names[:-1] + names[-1:]`` of ``step_statistic_paths``: for one
    smoothing parameter ``lam`` its paths, and for a sequence of them an
    iterator over each one's paths in turn, all from one draw.
    """
    names = null.predictor_names
    paths = map(operator.itemgetter(2), step_statistic_paths(
        null, names[:-1], names[-1:], np.atleast_1d(lam), sims, length, seed))
    return paths if np.ndim(lam) else next(paths)


# most float64 values (4 MiB) of one lambda chunk's prefix terms, partial
# sums and bank of candidates' new columns; a chunk holds at least one
# lambda, a bank at least one candidate
STEP_BLOCK_VALUES = 2**19


def step_statistic_paths(
    null: NullModel,
    prefix: Sequence[str],
    candidates: Sequence[str],
    lambdas: Sequence[float],
    sims: int,
    length: int,
    seed,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (lambda index, candidate index, paths) for the (sims, length)
    null statistic paths of every subset prefix + (c,) at every lambda.

    The standard normals are drawn once for every extension and lambda
    (``_normals``), held week-major as (k, length, sims), and each candidate
    applies its own factor L, ``null.factor(prefix + (c,))``, whose leading
    rows are the prefix's; each lambda's quadratic form uses
    sqrt(lam / (2 - lam)) L (``mewma.smoothed_factor``). The lambdas are
    cut into chunks of the most whose prefix terms, partial sums and one new
    column fit ``STEP_BLOCK_VALUES`` values, and the candidates into banks
    of the most whose new columns at a chunk's lambdas fit beside them. The
    prefix terms and partial sums are formed once per chunk from the prefix
    columns ``L[:-1] @ z``; each candidate forms its new column
    ``L[-1] @ z`` (``_combine``) once per chunk and writes it times each
    lambda into one week-major stack, whose week rows hold each lambda's
    columns side by side, so one ``mewma._smooth`` call recurses a bank
    over contiguous rows. Each E is the prefix's partial sum plus the
    candidate's own squared term (``mewma._extend``), formed into a fresh
    contiguous (length, sims) array and yielded transposed, so no yielded
    array shares memory with a buffer the step reuses. The draws and the
    column buffer go once the last column is written; a lone candidate,
    such as the unit null of every first step, forms all its columns once
    and lets its draws go before the stack is made. A subset whose
    covariance is not positive definite raises ``LinAlgError`` before any
    paths are yielded.
    """
    prefix, lambdas = tuple(prefix), [float(lam) for lam in lambdas]
    for lam in lambdas:
        _check_path_shape(lam, sims, length)
    factors = [null.factor(prefix + (cand,)) for cand in candidates]
    head = factors[0][:-1, :-1]  # the prefix's factor, every candidate's leading rows
    k, n = len(prefix) + 1, sims * length
    size = max(1, min(len(lambdas), STEP_BLOCK_VALUES // ((k + 1) * n)))
    width = max(1, min(len(candidates), STEP_BLOCK_VALUES // (size * n) - k))
    z = _normals(seed, (sims, length, k))
    spare = np.empty((length, sims)) if k > 1 else None  # each product before it is added
    lone = len(candidates) == 1
    if lone:  # every column once, and the draws go before the stack is made
        deviations = _deviations(factors[0], z, spare, out=np.empty_like(z))
        z = spare = None
        column = deviations[-1]
    else:
        column = np.empty((length, sims))
    stack = np.empty((length, size * width * sims))
    for a in range(0, len(lambdas), size):
        chunk_lambdas = lambdas[a : a + size]
        m, last = len(chunk_lambdas), a + size >= len(lambdas)
        terms = e = None  # the last chunk's go before this chunk's are made
        terms = np.empty((m, k - 1, length, sims))
        if lone:
            terms[:] = deviations[:-1]
        else:  # in place, so no other (k - 1)-column array is live beside them
            _deviations(head, z, spare, out=terms[0])
            terms[1:] = terms[0]
        terms, e = _prefix_terms(terms, head, chunk_lambdas)
        for start in range(0, len(candidates), width):
            members = range(start, min(start + width, len(candidates)))
            rows = stack[:, : m * len(members) * sims]
            paths = rows.reshape(length, m, len(members), sims)
            for b, c in enumerate(members):
                if not lone:
                    _combine(factors[c][-1], z, column, spare)
                for i, lam in enumerate(chunk_lambdas):
                    np.multiply(column, lam, out=paths[:, i, b])  # scaled as it is copied
                if last and c == len(candidates) - 1:
                    z = column = spare = deviations = None  # every column is written
            mewma._smooth(rows, np.repeat(np.subtract(1.0, chunk_lambdas), len(members) * sims))
            for i, lam in enumerate(chunk_lambdas):
                for b, c in enumerate(members):
                    E = mewma._extend(paths[:, i, b], mewma.smoothed_factor(factors[c][-1], lam),
                                      terms[i], e[i], out=np.empty((length, sims)))
                    yield a + i, c, E.T
                    E = None  # before the next E is made


def _combine(row: np.ndarray, z: np.ndarray, out: np.ndarray, spare) -> None:
    """out = row[0] z[0] + row[1] z[1] + ..., each product and sum rounded in
    that order, ``spare`` holding each product before it is added.
    Elementwise, so the bits do not depend on where the arrays sit in memory,
    as a BLAS matrix-vector product's do."""
    np.multiply(z[0], row[0], out=out)
    for j in range(1, len(row)):
        out += np.multiply(z[j], row[j], out=spare)


def _deviations(L: np.ndarray, z: np.ndarray, spare, out: np.ndarray) -> np.ndarray:
    """The columns L @ z of the week-major draws z, written into ``out``
    (len(L), length, sims) and returned, for leading rows L of a lower
    triangular factor: each row's leading entries summed by ``_combine``."""
    for j, row in enumerate(L):
        _combine(row[: j + 1], z, out[j], spare)
    return out


def _prefix_terms(terms: np.ndarray, head: np.ndarray, lambdas):
    """The prefix columns (m, k - 1, length, sims), one copy for each of the
    m ``lambdas``, substituted in place into their terms with each lambda's
    smoothed factor of the prefix's factor ``head``, and their partial sums
    (m, length, sims); an empty prefix has none (``None``)."""
    m, k = len(lambdas), terms.shape[1] + 1
    if k == 1:
        return [()] * m, [None] * m
    mewma._ewma_states(terms, np.array(lambdas)[:, None, None])
    e = np.zeros((m,) + terms.shape[2:])
    for t, lam, partial in zip(terms, lambdas, e):
        mewma._substitute(t.reshape(k - 1, -1), mewma.smoothed_factor(head, lam),
                          partial.reshape(-1))
    return terms, e


# most values of one block of draws that ``_normals`` copies week-major
NORMALS_BLOCK_VALUES = 2**15


def _normals(seed, shape: tuple) -> np.ndarray:
    """Standard normals of ``shape`` (sims, length, k) from ``seed``, held
    week-major: returned as (k, length, sims). They are drawn a block of
    paths at a time, which continues one stream exactly as a single draw
    would, so no second copy of the whole draw is made."""
    sims, length, k = shape
    rng = np.random.default_rng(_seed(seed))
    z = np.empty((k, length, sims))
    step = max(1, NORMALS_BLOCK_VALUES // (length * k))
    for s in range(0, sims, step):
        z[..., s : s + step] = rng.standard_normal((min(step, sims - s), length, k)).T
    return z


def _check_path_shape(lam: float, sims: int, length: int) -> None:
    if sims < 1 or length < 1:
        raise ValueError("sims and length must be >= 1")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must be in (0, 1), got {lam}")


def atfs_from_paths(E: np.ndarray, h: float) -> float:
    """Time-average spacing between alarms: observed scan weeks per alarm.

    Equals the long-run mean alarm-to-alarm gap (1 / alarm rate) and is
    exactly nondecreasing in h, which pairwise gap averages are not once
    finite windows censor the long inter-cluster gaps. Path-weeks alarm by
    the scan's rule, E > h (``mewma.alarm_mask``); with no alarms at all the
    sentinel +inf is returned.
    """
    count = int(np.count_nonzero(mewma.alarm_mask(E, h)))
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
    statistic of the pooled values (``_solve_paths``). Raises
    ``CalibrationError`` for a target outside 1 < phi < inf
    (``_checked_length``) and when no h > 0 comes within ``ATFS_TOL`` of phi.

    This is the one-candidate greedy step of the null's last predictor at the
    one lambda ``lam`` (``_step_solves``), so a 1-d null is solved against
    the memoized unit null, as a first step's singletons are.
    """
    names = null.predictor_names
    [[solved]] = _step_solves(null, names[:-1], names[-1:], (lam,), phi, sims, length,
                              _seed(seed))
    if isinstance(solved, CalibrationError):
        raise solved
    return solved[0]


def _checked_length(phi: float, length: int | None = None) -> int:
    """Path length for target ``phi``: ``length``, or 10 * phi weeks (at least
    50). The target must be finite and above 1 week, as the config's ``atfs``
    must: at ATFS 1 every week alarms, and no threshold h > 0 reaches it."""
    if not 1.0 < phi < math.inf:
        raise CalibrationError(f"target ATFS must be finite and > 1 week, got {phi}")
    return max(int(10 * phi), 50) if length is None else length


_UNIT_NULL = NullModel(("unit",), np.zeros(1), np.ones((1, 1)), 0)


@functools.lru_cache(maxsize=1024)
def _solve_unit_null(lambdas: tuple, phi, sims, length, seed) -> tuple:
    """Each lambda's (h, achieved ATFS) against the unit null, or the
    CalibrationError its solve raised, all from one draw. Where every solve
    fails their error is raised instead, so a failed solve is not memoized."""
    solves = []
    for E in simulate_statistic_paths(_UNIT_NULL, lambdas, sims, length, seed):
        solves.append(_attempt(_solve_paths, E, phi))
        del E  # the next lambda's paths take its place
    if all(isinstance(solved, CalibrationError) for solved in solves):
        raise solves[0]
    return tuple(solves)


def _attempt(solve, *args):
    """``solve(*args)``, or the CalibrationError it raised, without its
    traceback, which would hold the paths."""
    try:
        return solve(*args)
    except CalibrationError as exc:
        return exc.with_traceback(None)


def _seed(seed) -> tuple[int, ...]:
    """A calibration seed, an integer or a sequence of integers, as a tuple of
    ints; any other seed (a Generator, SeedSequence, array or float) raises
    ``TypeError``. numpy seeds an integer s and the tuple (s,) alike."""
    if isinstance(seed, (tuple, list)):
        return tuple(map(operator.index, seed))
    return (operator.index(seed),)


def _solve_paths(E: np.ndarray, phi: float) -> tuple[float, float]:
    """The threshold on given statistic paths and its achieved ATFS; consumes
    ``E``, whose values it reorders in place.

    With N path-weeks, ATFS(h) = N / #{E > h}, and the alarm counts some
    h > 0 achieves are #{E > t} for t = 0 or a pooled value t > 0. Of those,
    the largest at most N / phi and the smallest at least N / phi are the
    only ones that can be nearest phi, and the one whose ATFS is nearer
    wins (the fewer alarms on a tie). h is the midpoint of the gap between
    its smallest alarming value and t, or t itself where that midpoint
    rounds up to the alarming value (two adjacent doubles).

    One partition places the top ceil(N / phi) values last, and one max
    finds the largest value before them, ``low``. Every value before the top
    slice is at most ``low``, so every count, minimum and the ATFS recheck
    at a threshold t >= low reads the top slice alone; the values before it
    are read again only where ``low`` ties with the slice's least value.
    """
    values = E.ravel(order="K")
    n = values.size
    # ascending positions of the (floor(n/phi) + 1)-th and ceil(n/phi)-th
    # largest values; below is above - 1 where phi divides n, else above.
    # One partition places the value at above, and the one at below is the
    # largest of those before it. Only counts, maxima and minima are taken,
    # so the values are partitioned in place
    below, above = n - math.floor(n / phi) - 1, n - math.ceil(n / phi)
    values.partition(above)
    rest, top_slice = values[:above], values[above:]
    top = float(top_slice[0])
    low = float(rest.max()) if above else -math.inf

    def alarms(t: float) -> tuple[int, np.ndarray]:
        """#{values > t} and the top slice's mask of them; where t < low,
        low ties top, and the values before the slice above t equal top"""
        mask = top_slice > t
        count = int(np.count_nonzero(mask))
        if t < low:
            count += int(np.count_nonzero(rest > t))
        return count, mask

    floors = {max(low if below < above else top, 0.0)}
    if top > 0.0:
        # alarm at every value >= top: t is the largest value below it, or 0
        floors.add(max(low, 0.0) if low < top else
                   float(np.max(rest, where=rest < top, initial=0.0)))
    options = []
    for t in floors:
        count, mask = alarms(t)
        if count:
            least = float(np.min(top_slice, where=mask, initial=math.inf))
            midpoint = 0.5 * (t + least)
            options.append((abs(n / count - phi), count, midpoint if midpoint < least else t))
    if options:
        h = min(options)[2]
        count = alarms(h)[0] if h > 0.0 else 0
        if count and abs(n / count - phi) <= ATFS_TOL:
            return h, n / count
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
    curve: list | None = None,
) -> ConstraintCurvePoint:
    """Pick the (lambda, h) pair on the target-ATFS curve with the best in-sample score.

    For each lambda in the grid the threshold is solved at the target ATFS,
    the scan is run in-sample, and the mean-timeliness score over ``windows``
    is computed; the argmax is returned, ties broken by smaller lambda then
    smaller h. The subset's null is estimated from ``events`` and its scan
    states precomputed over the grid; ``curve`` (if given) is extended with
    every solved grid point, not just the winner. This is ``optimize_step``
    on that table for the one extension ``subset[:-1] + subset[-1:]``.
    """
    subset = tuple(subset)
    if not subset:
        raise ValueError("predictor subset must be nonempty")
    if len(events) == 0:
        raise ValueError("cannot optimize parameters without events")
    table = precompute_shared_states(panel, estimate_null(panel, events, subset), lambda_grid)
    [fit] = optimize_step(table, windows, subset[:-1], subset[-1:], phi, sims=sims, seed=seed)
    if curve is not None:
        curve.extend(fit.curve)
    return fit.point


def optimize_step(
    table: SharedScanTable,
    windows: DetectionWindowSet,
    prefix: Sequence[str],
    candidates: Sequence[str],
    phi: float,
    *,
    sims: int,
    seed,
) -> list[StepFit]:
    """``optimize_params`` for every subset prefix + (c,) on ``table``: one
    ``StepFit`` per candidate.

    The table is the whole calibration input: its ``null`` is every
    subset's null, and its ``lambdas`` are the grid. Every lambda
    calibrates every candidate with ``seed`` (``_seed``), and one call
    (``_step_solves``) solves them all from one draw of normals, held only
    while it runs. With a nonempty prefix every candidate is solved on its
    own paths (``step_statistic_paths``); with an empty prefix they are 1-d
    nulls and share one solve per lambda against the unit null. Each lambda
    scans all its candidates with a usable threshold in one batch from the
    table (``SharedScanTable.step_scan``) and scores their alarms over
    ``windows`` in one call (``evaluate.timeliness``). Each fit holds the
    candidate's chosen point, a copy of that point's batch column, and its
    solved grid points; no other scan is kept. Raises ``CalibrationError``
    when a candidate fails at every lambda.
    """
    prefix, candidates = tuple(prefix), tuple(candidates)
    if not candidates:
        raise ValueError("need at least one candidate")

    best: list[tuple | None] = [None] * len(candidates)  # (rank key, point, E)
    curves: list[list[ConstraintCurvePoint]] = [[] for _ in candidates]
    failures: list[list[str]] = [[] for _ in candidates]
    lambdas, seed = table.lambdas, _seed(seed)
    solves = _step_solves(table.null, prefix, candidates, lambdas, phi, sims, None, seed)
    for lam, lam_solves in zip(lambdas, solves):
        usable = []
        for i, solved in enumerate(lam_solves):
            if isinstance(solved, CalibrationError):
                failures[i].append(f"lam={lam}: {solved}")
            else:
                usable.append(i)
        if not usable:
            continue
        E = table.step_scan(lam, prefix, [candidates[i] for i in usable])
        alarms = mewma.alarm_mask(E, [lam_solves[i][0] for i in usable])
        scores = evaluate.timeliness(mewma.onset_mask(alarms), windows)
        for i, column, perf in zip(usable, E.T, scores):
            h, atfs = lam_solves[i]
            point = ConstraintCurvePoint(lam=lam, h=h, performance=perf, atfs=atfs)
            curves[i].append(point)
            key = (-perf, lam, h)  # best score, then smaller lambda, then smaller h
            if best[i] is None or key < best[i][0]:
                best[i] = key, point, column.copy()
    for chosen, failed in zip(best, failures):
        if chosen is None:
            raise CalibrationError(
                "threshold solving failed for every lambda: " + "; ".join(failed)
            )
    return [StepFit(point, E, tuple(curve)) for (_, point, E), curve in zip(best, curves)]


def _step_solves(null, prefix, candidates, lambdas, phi, sims, length, seed) -> list:
    """Each lambda's list of each candidate's (h, achieved ATFS), or the
    CalibrationError its solve raised, all from one draw of (sims, length)
    paths (``length`` None: ``_checked_length(phi)``). Each candidate's E is
    solved where ``step_statistic_paths`` formed it; with an empty prefix
    every candidate is a 1-d null, whose statistic does not depend on its
    variance, so all share the memoized unit-null solve."""
    try:
        length = _checked_length(phi, length)
        if not prefix:
            unit = _solve_unit_null(tuple(lambdas), phi, sims, length, seed)
            return [[solved] * len(candidates) for solved in unit]
    except CalibrationError as exc:
        return [[exc] * len(candidates) for _ in lambdas]
    solves = [[None] * len(candidates) for _ in lambdas]
    for i, c, E in step_statistic_paths(null, prefix, candidates, lambdas, sims, length, seed):
        solves[i][c] = _attempt(_solve_paths, E, phi)
        del E  # the next paths take its place
    return solves


def write_calibration_csv(points: Sequence[ConstraintCurvePoint], path) -> None:
    """Write one row per solved grid point: lambda, h, achieved ATFS and score."""
    write_csv(path, ["lambda", "h", "atfs_est", "performance"], (
        [repr(p.lam), repr(p.h), repr(p.atfs), repr(p.performance)] for p in points
    ))
