"""Reset-free multivariate EWMA scan over candidate predictors.

The detector smooths standardized deviations of the candidate vector from a
baseline mean with a one-sided (elementwise max-with-zero) EWMA, then alarms
when the quadratic form of the smoothed state against the asymptotic EWMA
covariance exceeds a threshold. Because the recursion is elementwise, the
smoothed state of any predictor subset is the coordinate projection of the
full-dimension state, which lets one stored full scan serve every subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .events import EventSet
from .panel import AlignedPanel, WeekAxis, write_csv


class EstimationError(ValueError):
    """Null-model estimation failed (too few baseline weeks, hopeless Sigma)."""


class TooFewBaselineWeeksError(EstimationError):
    """Fewer than d + 1 baseline weeks for a d-predictor null: a validation
    problem of the panel and config, not a runtime failure."""


def require_baseline_weeks(n_base: int, d: int, where: str = "") -> None:
    """Raise ``TooFewBaselineWeeksError`` unless there are at least d + 1
    baseline weeks, the minimum for a full-rank unbiased covariance."""
    if n_base < d + 1:
        raise TooFewBaselineWeeksError(
            f"need at least {d + 1} baseline weeks for {d} predictors, have {n_base}{where}"
        )


@dataclass(frozen=True, eq=False)
class NullModel:
    """Baseline mean vector and covariance matrix of the predictor subset.

    ``sigma`` is stored post-conditioning: symmetric positive definite, with
    ``ridge_applied``/``ridge_delta`` recording whether ridge inflation was
    needed to get there and by what fraction of each predictor's variance.
    """

    predictor_names: tuple[str, ...]
    mu: np.ndarray
    sigma: np.ndarray
    baseline_week_count: int
    ridge_applied: bool = False
    ridge_delta: float = 0.0
    _factors: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "predictor_names", tuple(self.predictor_names))
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        d = len(self.predictor_names)
        if mu.shape != (d,) or sigma.shape != (d, d):
            raise ValueError("mu/sigma dimensions do not match predictor names")
        if not np.allclose(sigma, sigma.T):
            raise ValueError("sigma must be symmetric")

    @property
    def dim(self) -> int:
        return len(self.predictor_names)

    def factor(self, names: Sequence[str]) -> np.ndarray:
        """The read-only Cholesky factor of the covariance block of ``names``,
        memoized per tuple: the factor of ``names[:-1]`` plus one row
        (``extend_factor``), so its leading rows are the prefix's, bit for bit."""
        names = tuple(names)
        if names not in self._factors:
            head = self.factor(names[:-1]) if len(names) > 1 else np.zeros((0, 0))
            idx = [self.predictor_names.index(n) for n in names]
            self._factors[names] = extend_factor(head, self.sigma[idx[-1], idx])
        return self._factors[names]

    def subset(self, names: Sequence[str]) -> "NullModel":
        """Project onto a predictor subset (principal submatrix stays SPD)."""
        idx = [self.predictor_names.index(n) for n in names]
        return NullModel(names, self.mu[idx], self.sigma[np.ix_(idx, idx)],
                         self.baseline_week_count, self.ridge_applied, self.ridge_delta)


def extend_factor(head: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The read-only Cholesky factor of an SPD block whose leading block has
    the factor ``head`` and whose last row is ``row``: head plus the row
    l = inv(head) row[:-1], by forward substitution (``_substitute``), and
    sqrt(row[-1] - l.l). A pivot that is not positive raises ``LinAlgError``."""
    k = len(head)
    L = np.zeros((k + 1, k + 1))
    L[:k, :k] = head
    terms, square = row[:k, None].copy(), np.zeros(1)
    _substitute(terms, head, square)
    pivot = row[k] - square[0]
    if not pivot > 0.0:
        raise np.linalg.LinAlgError(f"covariance is not positive definite at row {k}")
    L[k, :k], L[k, k] = terms[:, 0], math.sqrt(pivot)
    L.flags.writeable = False
    return L


def smoothed_factor(L: np.ndarray, lam: float) -> np.ndarray:
    """The factor of the smoothed state's covariance lam / (2 - lam) sigma
    (or rows of it), for sigma's factor L: sqrt(lam / (2 - lam)) L."""
    return math.sqrt(lam / (2.0 - lam)) * L


@dataclass(frozen=True)
class DetectorConfig:
    """Predictor subset plus smoothing parameter and alarm threshold."""

    predictor_names: tuple[str, ...]
    lam: float
    h: float

    def __post_init__(self):
        object.__setattr__(self, "predictor_names", tuple(self.predictor_names))
        if not self.predictor_names:
            raise ValueError("predictor subset must be nonempty")
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lam must be in (0, 1), got {self.lam}")
        if not self.h > 0.0:
            raise ValueError(f"h must be > 0, got {self.h}")


def alarm_mask(E: np.ndarray, h) -> np.ndarray:
    """The alarm rule: the mask E > h, for one threshold ``h`` or one per
    column of an (n_weeks, C) E. A NaN statistic never alarms."""
    with np.errstate(invalid="ignore"):
        return np.greater(E, h)


def onset_mask(alarms: np.ndarray) -> np.ndarray:
    """The onset rule: the cluster onsets of an (n_weeks,) or (n_weeks, C)
    alarm mask, column by column, the alarm weeks whose previous week has
    no alarm."""
    onsets = alarms.copy()
    onsets[1:] &= ~alarms[:-1]
    return onsets


@dataclass(frozen=True, eq=False)
class AlarmTrace:
    """Per-week test statistic with alarm weeks and clustered alarm onsets."""

    E: np.ndarray
    alarm_weeks: np.ndarray
    cluster_onsets: np.ndarray
    S: np.ndarray | None = None

    @classmethod
    def from_alarms(cls, E: np.ndarray, alarms: np.ndarray, S=None) -> "AlarmTrace":
        """The trace of statistic ``E`` whose (n_weeks,) alarm mask is
        ``alarms``: its alarm weeks and their onsets (``onset_mask``)."""
        return cls(E=E, alarm_weeks=np.flatnonzero(alarms),
                   cluster_onsets=np.flatnonzero(onset_mask(alarms)), S=S)


MAX_CONDITION = 1e12  # largest condition number of a usable correlation matrix
RIDGE_START = 1e-8  # first ridge, as a fraction of each predictor's variance


def condition_covariance(sigma: np.ndarray) -> tuple[np.ndarray, bool, float]:
    """Make a sample covariance usable in an SPD solve, whatever the
    predictors' units: (matrix, ridged, delta). Usability, a Cholesky
    factorization and a condition number at most ``MAX_CONDITION``, is judged
    on the correlation matrix R = inv(D) sigma inv(D), D the standard
    deviations (1 for a constant predictor). A one-predictor sigma may be
    0-d, as ``np.cov`` returns it, and is read as 1 x 1. A usable sigma is
    returned as it is; otherwise delta doubles from ``RIDGE_START`` until
    R + delta I is usable, and D (R + delta I) D is returned."""
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    sym = 0.5 * (sigma + sigma.T)
    sd = np.sqrt(np.diag(sym))
    sd[sd == 0.0] = 1.0
    R = sym / np.outer(sd, sd)

    def usable(m: np.ndarray) -> bool:
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            return False
        return np.linalg.cond(m) <= MAX_CONDITION

    if usable(R):
        return sym, False, 0.0
    d = RIDGE_START
    eye = np.eye(len(R))
    while d < 1e8:
        candidate = R + d * eye
        if usable(candidate):
            return sd[:, None] * candidate * sd, True, d
        d *= 2.0
    raise EstimationError("covariance matrix cannot be conditioned to SPD")


def estimate_null(
    panel: AlignedPanel,
    events: EventSet,
    subset: Sequence[str] | None = None,
    week_mask: np.ndarray | None = None,
) -> NullModel:
    """Sample mean and covariance of the subset over non-event weeks.

    ``week_mask`` further restricts the usable weeks (e.g. to a training
    fold). Requires at least d + 1 baseline weeks for d predictors
    (``require_baseline_weeks``).
    """
    names = tuple(subset) if subset is not None else panel.candidate_names()
    if not names:
        raise ValueError("predictor subset must be nonempty")
    base = events.baseline_mask(panel.n_weeks)
    if week_mask is not None:
        base = base & np.asarray(week_mask, dtype=bool)
    n_base = int(base.sum())
    require_baseline_weeks(n_base, len(names))
    X = panel.candidate_matrix(names)[base]
    mu = X.mean(axis=0)
    sigma = np.atleast_2d(np.cov(X, rowvar=False, ddof=1))
    sigma, ridged, delta = condition_covariance(sigma)
    return NullModel(
        predictor_names=names,
        mu=mu,
        sigma=sigma,
        baseline_week_count=n_base,
        ridge_applied=ridged,
        ridge_delta=delta,
    )


def _ewma_states(D: np.ndarray, lam) -> np.ndarray:
    """Overwrite (..., n, d) deviations from the null mean with their one-sided
    EWMA states along axis -2, starting from zero; returns ``D``. ``lam`` is a
    float or an array that broadcasts against one week's (..., d) slice, such
    as one lambda per leading row, shaped (n_lambda, 1).

    The recursion runs in place: one pass scales every deviation by lambda,
    then ``_smooth`` runs the weeks. Each state takes the same IEEE
    operations as max(0, lam * x + (1 - lam) * s), so the same bits."""
    D *= np.expand_dims(lam, -2) if np.ndim(lam) else lam
    _smooth(np.moveaxis(D, -2, 0), np.subtract(1.0, lam))
    return D


def _smooth(weeks: np.ndarray, keep) -> None:
    """Overwrite week-major lambda-scaled deviations (n, ...) with their
    one-sided EWMA states, starting from zero: week t adds ``keep``, that is
    1 - lambda, times week t - 1's state and clips at zero, in place, with
    preallocated buffers. ``keep`` is a float or an array that broadcasts
    against one week's row. Each week is three ufunc calls, whose scalars go
    in as 0-d arrays: a Python float takes numpy's slower scalar path."""
    keep, zero = np.asarray(keep, dtype=float), np.zeros(())
    carry = state = np.zeros(weeks.shape[1:])  # the state before week 0
    for row in weeks:
        np.multiply(keep, state, out=carry)
        row += carry
        np.maximum(zero, row, out=row)
        state = row


def _quad_form(S: np.ndarray, L: np.ndarray) -> np.ndarray:
    """E = S' inv(L L') S per (..., d) state, for a lower-triangular factor
    L, S unchanged: forward substitution (``_substitute``) on one
    column-major copy of the states. Elementwise operations only, so E does
    not depend on where S sits, and each state's E is the same whichever
    other states it is formed with; its first k terms are L's first k rows'.
    The whole subset in one pass: ``SharedScanTable.step_scan`` forms the
    same E, bit for bit, as a prefix's terms plus one ``_extend``."""
    E = np.zeros(S.shape[:-1])
    _substitute(S.reshape(-1, len(L)).T.copy(), L, E.reshape(-1))
    return E


def _substitute(Z: np.ndarray, L: np.ndarray, e: np.ndarray) -> None:
    """Forward-substitute column-major states Z (d, m) in place with the lower
    triangular factor L, so Z ends holding the terms, and add each term's
    square to e in column order.

    Term j is (Z_j - L_j0 t_0 - L_j1 t_1 - ...) / L_jj, subtracted in order,
    so the first k terms and their partial sum depend only on L's first k
    rows; ``_extend`` adds one more term in the same order."""
    for j in range(len(L)):
        Z[j] /= L[j, j]
        Z[j + 1 :] -= L[j + 1 :, j, None] * Z[j]
        e += np.square(Z[j])


def _extend(z: np.ndarray, row: np.ndarray, terms, e: np.ndarray | None,
            out: np.ndarray) -> np.ndarray:
    """E of states extended by one coordinate: ``e`` plus the squared last term,
    written into ``out``, which must not overlap ``z``, and returned.

    ``terms`` (k - 1, ...) and ``e`` are ``_substitute``'s terms and
    partial sum for the first k - 1 coordinates (for k = 1 no terms and
    ``None``: the squared term alone, as adding 0.0 changes no bits), ``z``
    (...) the new coordinate's states and ``row`` the last row of the k x k
    factor. Bit for bit what ``_substitute`` does to its last row, so the
    result equals ``_quad_form`` of the k states. Everything broadcasts, so
    ``row`` may also hold one factor row per column of ``z``, as (k, C)
    against (n, C) states, (k - 1, n, 1) terms and (n, 1) sums: each column
    is then its own subset's E, whichever other columns it is formed with.
    The first term's product is formed in ``out``, so a two-coordinate E
    makes no temporary."""
    if len(terms):
        np.subtract(z, np.multiply(row[0], terms[0], out=out), out=out)
        for j in range(1, len(terms)):
            out -= row[j] * terms[j]
        z = out
    np.divide(z, row[-1], out=out)
    np.square(out, out=out)
    return out if e is None else np.add(e, out, out=out)


def run_scan(
    panel: AlignedPanel,
    null: NullModel,
    config: DetectorConfig,
) -> AlarmTrace:
    """Run the scan over the panel; alarms are weeks with E > h, never reset.
    It is the ``SharedScanTable`` scan of a one-lambda table of the subset."""
    if null.predictor_names != config.predictor_names:
        raise ValueError(
            f"null model covers {null.predictor_names}, config asks for "
            f"{config.predictor_names}"
        )
    missing = [n for n in config.predictor_names if n not in panel.candidate_names()]
    if missing:
        raise ValueError(f"panel has no candidate series {missing[0]!r}")
    table = precompute_shared_states(panel, null, (config.lam,))
    return table.scan(config.lam, config.predictor_names, config.h)


@dataclass(frozen=True, eq=False)
class SharedScanTable:
    """Stored full-dimension smoothed states, one trajectory per lambda.

    Any subset's scan is recovered exactly by projecting the stored state
    onto the subset coordinates and forming the quadratic form with the
    subset's factor, which the null forms once (``NullModel.factor``) and
    each lambda scales (``smoothed_factor``); no per-subset rescans are
    needed. ``step_scan`` forms every scan statistic: a greedy step's
    candidates at one lambda together, and ``scan`` (``run_scan``'s
    included) as its one-candidate case.
    """

    null: NullModel
    lambdas: tuple[float, ...]
    states: Mapping[float, np.ndarray]

    def step_scan(self, lam: float, prefix: Sequence[str],
                  candidates: Sequence[str]) -> np.ndarray:
        """The scan statistic E at ``lam`` of every subset prefix + (c,), one
        column per candidate: (n_weeks, len(candidates)).

        The prefix's terms and partial sum are formed once (``_substitute``
        with the smoothed factor of ``null.factor(prefix)``, the leading rows
        of every candidate's factor), and one ``_extend`` adds every
        candidate's last term, its factor row broadcast over its column.
        Elementwise operations in ``_quad_form``'s order, so each column is
        its subset's E bit for bit, whichever candidates share the batch."""
        if lam not in self.states:
            raise KeyError(f"lambda {lam} not in shared table grid {self.lambdas}")
        prefix, states, index = tuple(prefix), self.states[lam], self.null.predictor_names.index
        terms, e = (), None
        if prefix:
            terms, e = states[:, [index(n) for n in prefix]].T.copy(), np.zeros(len(states))
            _substitute(terms, smoothed_factor(self.null.factor(prefix), lam), e)
            terms, e = terms[:, :, None], e[:, None]
        rows = np.array([self.null.factor(prefix + (c,))[-1] for c in candidates])
        return _extend(states[:, [index(c) for c in candidates]], smoothed_factor(rows.T, lam),
                       terms, e, out=np.empty((len(states), len(candidates))))

    def scan(self, lam: float, subset: Sequence[str], h: float) -> AlarmTrace:
        """``subset``'s scan at ``lam``, alarming by ``alarm_mask``: the
        one-candidate ``step_scan`` of its last predictor; ``S`` is a copy
        of its states."""
        subset = tuple(subset)
        [E] = self.step_scan(lam, subset[:-1], subset[-1:]).T
        idx = [self.null.predictor_names.index(n) for n in subset]
        return AlarmTrace.from_alarms(E, alarm_mask(E, h), S=self.states[lam][:, idx])


def precompute_shared_states(
    panel: AlignedPanel,
    full_null: NullModel,
    lambda_grid: Sequence[float],
) -> SharedScanTable:
    """Scan the full candidate set for every lambda and store the states.

    One recursion runs over a week-major (n_weeks, n_lambda * D) stack, each
    lambda's D columns written as lambda times ``X - mu`` in one pass; each
    lambda's states are an (n_weeks, D) view into it and equal its own
    ``_ewma_states`` run bit for bit, as the operations are elementwise."""
    lambdas = tuple(float(lam) for lam in lambda_grid)
    X = panel.candidate_matrix(full_null.predictor_names)
    X -= full_null.mu
    n, d = X.shape
    stack = np.empty((n, len(lambdas), d))
    for lam, block in zip(lambdas, np.moveaxis(stack, 1, 0)):
        np.multiply(X, lam, out=block)
    _smooth(stack.reshape(n, -1), np.repeat(np.subtract(1.0, lambdas), d))
    return SharedScanTable(null=full_null, lambdas=lambdas,
                           states=dict(zip(lambdas, np.moveaxis(stack, 1, 0))))


def write_trace_csv(trace: AlarmTrace, axis: WeekAxis, path) -> None:
    """Serialize a trace: week, statistic, alarm and cluster-onset indicators."""
    alarm = np.zeros(axis.length, dtype=int)
    alarm[trace.alarm_weeks] = 1
    onset = np.zeros(axis.length, dtype=int)
    onset[trace.cluster_onsets] = 1
    write_csv(path, ["week", "E", "alarm", "cluster_onset"], zip(
        axis.labels(), map(repr, trace.E.tolist()), alarm.tolist(), onset.tolist(), strict=True
    ))
