"""Reset-free multivariate EWMA scan over candidate predictors.

The detector smooths standardized deviations of the candidate vector from a
baseline mean with a one-sided (elementwise max-with-zero) EWMA, then alarms
when the quadratic form of the smoothed state against the asymptotic EWMA
covariance exceeds a threshold. Because the recursion is elementwise, the
smoothed state of any predictor subset is the coordinate projection of the
full-dimension state, which lets one stored full scan serve every subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import csv
import numpy as np

from .events import EventSet
from .panel import AlignedPanel, WeekAxis


class EstimationError(ValueError):
    """Null-model estimation failed (too few baseline weeks, hopeless Sigma)."""


@dataclass(frozen=True, eq=False)
class NullModel:
    """Baseline mean vector and covariance matrix of the predictor subset.

    ``sigma`` is stored post-conditioning: symmetric positive definite, with
    ``ridge_applied``/``ridge_delta`` recording whether (and how much) ridge
    inflation was needed to get there.
    """

    predictor_names: tuple[str, ...]
    mu: np.ndarray
    sigma: np.ndarray
    baseline_week_count: int
    ridge_applied: bool = False
    ridge_delta: float = 0.0

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

    def smoothed_cov(self, lam: float) -> np.ndarray:
        """Asymptotic covariance of the smoothed state: lam/(2-lam) * sigma."""
        return (lam / (2.0 - lam)) * self.sigma

    def subset(self, names: Sequence[str]) -> "NullModel":
        """Project onto a predictor subset (principal submatrix stays SPD).

        A principal submatrix of a checked symmetric matrix is symmetric, so
        the projection is built without ``__post_init__``'s checks.
        """
        idx = [self.predictor_names.index(n) for n in names]
        sub = object.__new__(NullModel)
        vars(sub).update(
            vars(self),
            predictor_names=tuple(names),
            mu=self.mu[idx],
            sigma=self.sigma[np.ix_(idx, idx)],
        )
        return sub


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


@dataclass(frozen=True, eq=False)
class AlarmTrace:
    """Per-week test statistic with alarm weeks and clustered alarm onsets."""

    E: np.ndarray
    alarm_weeks: np.ndarray
    cluster_onsets: np.ndarray
    S: np.ndarray | None = None


def cluster_onsets(alarm_weeks) -> np.ndarray:
    """First week of each maximal run of consecutive alarm weeks."""
    aw = np.asarray(alarm_weeks, dtype=int)
    if aw.size == 0:
        return aw
    keep = np.ones(aw.size, dtype=bool)
    keep[1:] = np.diff(aw) > 1
    return aw[keep]


MAX_CONDITION = 1e12  # largest condition number a conditioned covariance may have
RIDGE_START = 1e-8  # first ridge, as a fraction of the mean variance


def condition_covariance(sigma: np.ndarray) -> tuple[np.ndarray, bool, float]:
    """Make a sample covariance usable in an SPD solve.

    Singular or badly conditioned matrices get ridge inflation
    delta * mean(diag) on the diagonal, doubling delta until the Cholesky
    factorization succeeds and the condition number is acceptable.
    """
    sigma = np.asarray(sigma, dtype=float)
    sym = 0.5 * (sigma + sigma.T)

    def usable(m: np.ndarray) -> bool:
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            return False
        return np.linalg.cond(m) <= MAX_CONDITION

    if usable(sym):
        return sym, False, 0.0
    scale = float(np.mean(np.diag(sym)))
    if scale <= 0.0:
        scale = 1.0
    d = RIDGE_START
    eye = np.eye(sym.shape[0])
    while d < 1e8:
        candidate = sym + (d * scale) * eye
        if usable(candidate):
            return candidate, True, d * scale
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
    fold). Requires at least d + 1 baseline weeks for d predictors, the
    minimum for a full-rank unbiased covariance.
    """
    names = tuple(subset) if subset is not None else panel.candidate_names()
    if not names:
        raise ValueError("predictor subset must be nonempty")
    base = events.baseline_mask(panel.n_weeks)
    if week_mask is not None:
        base = base & np.asarray(week_mask, dtype=bool)
    n_base = int(base.sum())
    d = len(names)
    if n_base < d + 1:
        raise EstimationError(
            f"need at least {d + 1} baseline weeks for {d} predictors, have {n_base}"
        )
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
    as one lambda per leading row, shaped (n_lambda, 1)."""
    s = np.zeros(D.shape[:-2] + D.shape[-1:])
    for t in range(D.shape[-2]):
        s = np.maximum(0.0, lam * D[..., t, :] + (1.0 - lam) * s)
        D[..., t, :] = s
    return D


def _quad_form(S: np.ndarray, smoothed_cov: np.ndarray) -> np.ndarray:
    """E = S' inv(smoothed_cov) S per (..., d) state, S unchanged: forward
    substitution (``_substitute``) on column-major copies of blocks of 2**12
    to 2**17 values, a quarter of S (few calls, columns in cache, small beside
    S). Elementwise operations only, so E depends neither on where S sits nor
    on the block size; its first k terms are the leading k x k block's."""
    L = np.linalg.cholesky(smoothed_cov)
    rows = S.reshape(-1, len(L))
    E = np.empty(S.shape[:-1])
    step = max(1, min(max(rows.size // 4, 2**12), 2**17) // len(L))
    for a in range(0, len(rows), step):
        e = E.reshape(-1)[a : a + step]
        e.fill(0.0)
        _substitute(rows[a : a + step].T.copy(), L, e)
    return E


def _substitute(Z: np.ndarray, L: np.ndarray, e: np.ndarray, keep: bool = False) -> None:
    """Forward-substitute column-major states Z (d, m) in place with the lower
    triangular factor L, and add each term's square to e in column order.

    Term j is (Z_j - L_j0 t_0 - L_j1 t_1 - ...) / L_jj, subtracted in order,
    so the first k terms and their partial sum depend only on L's first k
    rows; ``_extend`` adds one more term in the same order. With ``keep`` Z
    ends holding the terms, otherwise their squares."""
    for j in range(len(L)):
        Z[j] /= L[j, j]
        Z[j + 1 :] -= L[j + 1 :, j, None] * Z[j]
        e += np.square(Z[j], out=None if keep else Z[j])


def _extend(z: np.ndarray, row: np.ndarray, terms: np.ndarray, e: np.ndarray) -> np.ndarray:
    """E of states extended by one coordinate: ``e`` plus the squared last term,
    written over ``z`` and returned.

    ``terms`` (k - 1, m) and ``e`` are ``_substitute(keep=True)``'s terms and
    partial sum for the first k - 1 coordinates (no terms and 0.0 for k = 1),
    ``z`` (m,) the new coordinate's states and ``row`` the last row of the
    k x k factor. Bit for bit what ``_substitute`` does to its last row, so
    the result equals ``_quad_form`` of the k states."""
    for j, terms_j in enumerate(terms):
        z -= row[j] * terms_j
    z /= row[-1]
    return np.add(e, np.square(z, out=z), out=z)


def run_scan(
    panel: AlignedPanel,
    null: NullModel,
    config: DetectorConfig,
) -> AlarmTrace:
    """Run the scan over the panel; alarms are weeks with E > h, never reset."""
    if null.predictor_names != config.predictor_names:
        raise ValueError(
            f"null model covers {null.predictor_names}, config asks for "
            f"{config.predictor_names}"
        )
    missing = [n for n in config.predictor_names if n not in panel.candidate_names()]
    if missing:
        raise ValueError(f"panel has no candidate series {missing[0]!r}")

    S = _ewma_states(panel.candidate_matrix(config.predictor_names) - null.mu, config.lam)
    E = _quad_form(S, null.smoothed_cov(config.lam))
    return _trace_from_statistic(E, config.h, S)


def _trace_from_statistic(E: np.ndarray, h: float, S: np.ndarray | None = None) -> AlarmTrace:
    with np.errstate(invalid="ignore"):
        alarms = np.flatnonzero(E > h)
    return AlarmTrace(E=E, alarm_weeks=alarms, cluster_onsets=cluster_onsets(alarms), S=S)


@dataclass(frozen=True, eq=False)
class SharedScanTable:
    """Stored full-dimension smoothed states, one trajectory per lambda.

    Any subset's scan is recovered exactly by projecting the stored state
    onto the subset coordinates and forming the quadratic form with the
    subset's covariance block; no per-subset rescans are needed.
    """

    null: NullModel
    lambdas: tuple[float, ...]
    states: Mapping[float, np.ndarray]

    def scan(self, lam: float, subset: Sequence[str], h: float) -> AlarmTrace:
        if lam not in self.states:
            raise KeyError(f"lambda {lam} not in shared table grid {self.lambdas}")
        idx = [self.null.predictor_names.index(n) for n in subset]
        S = self.states[lam][:, idx]
        sub = self.null.subset(subset)
        E = _quad_form(S, sub.smoothed_cov(lam))
        return _trace_from_statistic(E, h, S)


def precompute_shared_states(
    panel: AlignedPanel,
    full_null: NullModel,
    lambda_grid: Sequence[float],
) -> SharedScanTable:
    """Scan the full candidate set for every lambda and store the states.

    One recursion runs over an (n_lambda, n_weeks, D) stack of ``X - mu``,
    one lambda per leading row; each lambda's states are a view into it and
    equal its own ``_ewma_states`` run bit for bit, as the operations are
    elementwise."""
    lambdas = tuple(float(lam) for lam in lambda_grid)
    X = panel.candidate_matrix(full_null.predictor_names)
    stack = np.subtract(X, full_null.mu, out=np.empty((len(lambdas),) + X.shape))
    _ewma_states(stack, np.array(lambdas)[:, None])
    return SharedScanTable(null=full_null, lambdas=lambdas, states=dict(zip(lambdas, stack)))


def write_trace_csv(trace: AlarmTrace, axis: WeekAxis, path) -> None:
    """Serialize a trace: week, statistic, alarm and cluster-onset indicators."""
    alarm = np.zeros(axis.length, dtype=int)
    alarm[trace.alarm_weeks] = 1
    onset = np.zeros(axis.length, dtype=int)
    onset[trace.cluster_onsets] = 1
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["week", "E", "alarm", "cluster_onset"])
        writer.writerows(zip(
            axis.labels(), map(repr, trace.E.tolist()), alarm.tolist(), onset.tolist(), strict=True
        ))
