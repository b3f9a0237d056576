"""Orbit records, discrete Wronskians, and window-based basis detection.

A family of scalar observables is a basis for the map when one fixed
coefficient vector annihilates the observable values along every orbit.
On a finite orbit this becomes a null-space question for the window
matrix M[r][s] = (observable s at orbit point start+r): a one-dimensional
null space whose vector varies only with the initial point turns the
coefficient ratios into integrals of the map.

An observable produces a whole column: observe(orbit, bases) takes an int
array of base points and returns one value per base.  Its `reach` is the
number of successor states a value reads: 0 for state and constant
observables, 1 for bilinear ones, ell for an order-ell discrete Wronskian,
so the value at base b needs orbit points b .. b + reach.  A window matrix
is its observables' columns stacked side by side, so state functions,
bilinear functions of consecutive points and Wronskians that look several
steps ahead mix freely in one matrix.

Null-space detection uses a full singular-value decomposition with the
relative threshold NULL_SIGMA_FACTOR and reports the spectral gap as a
quality score; candidate vectors must also annihilate the window matrix
to ANNIHILATION_FACTOR times its norm, otherwise they are not counted.
Ratio extraction builds the columns once over the whole orbit and takes
the decompositions of all its sliding windows in one stacked call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .quadfield import QuadraticVectorField, SingularStepError, delta, kahan_step
from .systems import central_gradient

NULL_SIGMA_FACTOR = 1e-9
ANNIHILATION_FACTOR = 1e-10
PIVOT_FLOOR = 1e-6

@dataclass(frozen=True)
class OrbitRecord:
    """A Kahan orbit: states (k+1, n) plus one entry per attempted step.

    When the iteration dies at a pole, the failed attempt still records
    its (near-zero) denominator and a raised flag, but no new state and a
    NaN residual; the arrays are then one longer than states[1:].
    """

    states: np.ndarray
    eps: float
    deltas: np.ndarray
    residuals: np.ndarray
    pole_flags: np.ndarray

    def __post_init__(self) -> None:
        states = np.array(self.states, dtype=float)
        if states.ndim != 2 or states.shape[0] < 1:
            raise ValueError("states must be a (points, dim) matrix")
        deltas = np.array(self.deltas, dtype=float)
        residuals = np.array(self.residuals, dtype=float)
        flags = np.array(self.pole_flags, dtype=bool)
        attempts = deltas.shape[0]
        if residuals.shape != (attempts,) or flags.shape != (attempts,):
            raise ValueError("deltas, residuals, pole_flags must share one attempt count")
        if attempts not in (states.shape[0] - 1, states.shape[0]):
            raise ValueError(f"{attempts} attempts inconsistent with {states.shape[0]} states")
        for arr in (states, deltas, residuals, flags):
            arr.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "eps", float(self.eps))
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "residuals", residuals)
        object.__setattr__(self, "pole_flags", flags)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def steps(self) -> int:
        """Completed steps, excluding a final pole attempt."""
        return self.states.shape[0] - 1

    @property
    def hit_pole(self) -> bool:
        return bool(self.pole_flags.any())


def iterate_orbit(
    field: QuadraticVectorField, x0: np.ndarray, eps: float, steps: int
) -> OrbitRecord:
    """Apply the Kahan map repeatedly, stopping early if a step denominator
    vanishes after the first step (a pole at step 0 is re-raised)."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x = np.asarray(x0, dtype=float)
    if x.shape != (field.dim,):
        raise ValueError(f"x0 must have shape ({field.dim},), got {x.shape}")
    states = [x.copy()]
    deltas: list[float] = []
    residuals: list[float] = []
    flags: list[bool] = []
    for k in range(steps):
        try:
            result = kahan_step(field, states[-1], eps)
        except SingularStepError:
            if k == 0:
                raise
            deltas.append(delta(field, states[-1], eps))
            residuals.append(np.nan)
            flags.append(True)
            break
        states.append(result.next)
        deltas.append(result.delta)
        residuals.append(result.residual)
        flags.append(False)
    return OrbitRecord(
        states=np.array(states),
        eps=eps,
        deltas=np.array(deltas),
        residuals=np.array(residuals),
        pole_flags=np.array(flags, dtype=bool),
    )


@dataclass(frozen=True)
class Observable:
    """A column of values along an orbit.

    column(states, bases) returns one value per base, in the shape of the
    int array bases; the value at base b reads states b .. b + reach, which
    calling the observable checks.
    """

    column: Callable[[np.ndarray, np.ndarray], np.ndarray]
    reach: int

    def __call__(self, orbit: OrbitRecord, bases: np.ndarray) -> np.ndarray:
        bases = np.asarray(bases)
        points = orbit.states.shape[0]
        if bases.size and (bases.min() < 0 or bases.max() + self.reach >= points):
            raise IndexError(
                f"bases {bases.min()}..{bases.max()} with reach {self.reach} "
                f"exceed orbit of {points} points"
            )
        return self.column(orbit.states, bases)


def wronskian_observable(ell: int, pair: tuple) -> Observable:
    """x_i at base+ell times x_j at base, minus x_i at base times x_j at base+ell."""
    if ell < 1:
        raise ValueError("order must be >= 1")
    i, j = pair

    def column(states: np.ndarray, bases: np.ndarray) -> np.ndarray:
        dim = states.shape[1]
        if not (0 <= i < dim and 0 <= j < dim):
            raise IndexError(f"pair {pair} outside dimension {dim}")
        return states[bases + ell, i] * states[bases, j] - states[bases, i] * states[bases + ell, j]

    return Observable(column, reach=ell)


def discrete_wronskian(orbit: OrbitRecord, ell: int, pair: tuple, base: int) -> float:
    """The order-ell Wronskian of the pair at one base."""
    return float(wronskian_observable(ell, pair)(orbit, np.array([base]))[0])


def state_observable(fn: Callable[[np.ndarray], float]) -> Observable:
    """Wrap a plain function of the state."""

    def column(states: np.ndarray, bases: np.ndarray) -> np.ndarray:
        return np.vectorize(lambda b: float(fn(states[b])), otypes=[float])(bases)

    return Observable(column, reach=0)


def bilinear_observable(fn: Callable[[np.ndarray, np.ndarray], float]) -> Observable:
    """Wrap a function of a state and its successor on the orbit."""

    def column(states: np.ndarray, bases: np.ndarray) -> np.ndarray:
        return np.vectorize(lambda b: float(fn(states[b], states[b + 1])), otypes=[float])(bases)

    return Observable(column, reach=1)


def constant_observable(value: float = 1.0) -> Observable:
    return Observable(lambda states, bases: np.full(bases.shape, float(value)), reach=0)


def conjugate_pairs(dim: int) -> tuple:
    """Pairs (i, i + dim/2): each first-block component against its partner."""
    if dim < 2 or dim % 2:
        raise ValueError(f"dimension must be even, got {dim}")
    half = dim // 2
    return tuple((i, i + half) for i in range(half))


@dataclass(frozen=True)
class WronskianBasisSpec:
    order: int
    pairs: tuple

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be >= 1")
        pairs = tuple(tuple(p) for p in self.pairs)
        if not pairs:
            raise ValueError("at least one pair is required")
        for p in pairs:
            if len(p) != 2 or p[0] == p[1] or min(p) < 0:
                raise ValueError(f"invalid pair {p}")
        object.__setattr__(self, "pairs", pairs)

    def observables(self) -> list:
        return [wronskian_observable(self.order, p) for p in self.pairs]


def default_window(m: int) -> int:
    """Window height giving comfortable oversampling for m observables."""
    return max(2 * m + 4, m + 2)


@dataclass(frozen=True)
class HKNullSpaceReport:
    singular_values: np.ndarray
    null_dim: int
    coeff_vectors: np.ndarray
    window: tuple
    gap_ratio: float

    def to_json_dict(self) -> dict:
        gap = self.gap_ratio if np.isfinite(self.gap_ratio) else None
        return {
            "singular_values": [float(s) for s in self.singular_values],
            "null_dim": int(self.null_dim),
            "gap_ratio": gap,
            "coeff_vectors": [[float(c) for c in v] for v in self.coeff_vectors],
            "window": [int(self.window[0]), int(self.window[1])],
        }


def _window_matrix(
    orbit: OrbitRecord, observables: Sequence[Observable], window: int, start: int
) -> np.ndarray:
    """Rows start .. start + window - 1: one column per observable."""
    bases = np.arange(start, start + window)
    try:
        return np.column_stack([observe(orbit, bases) for observe in observables])
    except IndexError as exc:
        raise ValueError(
            f"orbit too short for window of {window} rows starting at {start}"
        ) from exc


def _check_window(m: int, window: int) -> None:
    if window < m + 2:
        raise ValueError(f"window must be at least {m + 2} for {m} observables")


def _null_vectors(rows: np.ndarray, sv: np.ndarray, vt: np.ndarray) -> tuple:
    """Accepted null vectors of one window matrix and its spectral gap.

    Trailing singular directions count toward the null space only while
    sigma < NULL_SIGMA_FACTOR * sigma_max and the normalized vector
    annihilates the matrix to ANNIHILATION_FACTOR * sigma_max.  Vectors
    are scaled so their largest-magnitude entry is +1.
    """
    m = rows.shape[1]
    sigma_max = sv[0]
    accepted: list[np.ndarray] = []
    for idx in range(m - 1, -1, -1):
        if sigma_max > 0 and sv[idx] >= NULL_SIGMA_FACTOR * sigma_max:
            break
        v = vt[idx]
        v = v / v[np.argmax(np.abs(v))]
        if sigma_max > 0 and np.max(np.abs(rows @ v)) > ANNIHILATION_FACTOR * sigma_max:
            break
        accepted.append(v)
    null_dim = len(accepted)
    if null_dim == 0:
        return np.empty((0, m)), 0.0  # gap 0.0: sentinel, no spectral split to report
    if null_dim == m or sv[m - null_dim] == 0:
        gap = np.inf
    else:
        gap = sv[m - null_dim - 1] / sv[m - null_dim]
    return np.array(accepted[::-1]), float(gap)


def hk_nullspace(
    orbit: OrbitRecord,
    observables: Sequence[Observable],
    window: int,
    start: int = 0,
) -> HKNullSpaceReport:
    """Singular spectrum and annihilating vectors (see _null_vectors) of the
    window matrix of `window` rows from orbit point `start`."""
    _check_window(len(observables), window)
    rows = _window_matrix(orbit, observables, window, start)
    if not np.isfinite(rows).all():
        raise ValueError("observable produced a non-finite value inside the window")
    _, sv, vt = np.linalg.svd(rows, full_matrices=False)
    vectors, gap = _null_vectors(rows, sv, vt)
    return HKNullSpaceReport(
        singular_values=sv,
        null_dim=len(vectors),
        coeff_vectors=vectors,
        window=(start, window),
        gap_ratio=gap,
    )


@dataclass(frozen=True)
class RatioSequences:
    """Per-observable coefficient ratio sequences over sliding windows."""

    ratios: tuple
    non_constant: tuple
    tolerance: float


def extract_integral_ratios(
    report: HKNullSpaceReport,
    orbit: OrbitRecord,
    observables: Sequence[Observable],
    pivot: int,
    tol: float = 1e-9,
) -> RatioSequences:
    """Recompute the null vector on every window the orbit affords and
    divide by the pivot coefficient; constant sequences are integrals.

    Windows slide by one point from the report's start and stop before the
    first one that runs past the orbit or holds a non-finite value.
    """
    if report.null_dim != 1:
        raise ValueError(f"requires null_dim 1, report has {report.null_dim}")
    m = len(observables)
    if not 0 <= pivot < m:
        raise ValueError(f"pivot {pivot} outside {m} observables")
    start, window = report.window
    _check_window(m, window)
    stop = orbit.states.shape[0] - max(observe.reach for observe in observables)
    rows = _window_matrix(orbit, observables, max(stop - start, 0), start)
    finite = np.isfinite(rows).all(axis=1)
    usable = rows.shape[0] if finite.all() else int(np.argmin(finite))
    count = max(usable - window + 1, 0)
    windows = rows[np.arange(count)[:, None] + np.arange(window)]
    _, sv, vt = np.linalg.svd(windows, full_matrices=False)
    table = np.empty((count, m))
    for k in range(count):
        vectors, _ = _null_vectors(windows[k], sv[k], vt[k])
        if len(vectors) != 1:
            raise RuntimeError(
                f"null space dimension {len(vectors)} != 1 at window start {start + k}"
            )
        v = vectors[0]
        if abs(v[pivot]) < PIVOT_FLOOR * np.max(np.abs(v)):
            raise ValueError(f"pivot coefficient degenerate at window start {start + k}")
        table[k] = v / v[pivot]
    ratios = tuple(table.T.copy())
    flags = []
    for seq in ratios:
        center = float(np.median(seq))
        flags.append(bool(np.max(np.abs(seq - center)) > tol * (1 + abs(center))))
    return RatioSequences(ratios=ratios, non_constant=tuple(flags), tolerance=tol)


def functional_rank(
    integrals: Sequence[Callable[[np.ndarray], float]],
    x: np.ndarray,
    threshold: float = 1e-7,
) -> int:
    """Numerical rank of the finite-difference gradients at x.

    Each gradient row is scaled to unit length first (zero rows stay zero),
    so one steep integral cannot push the others under the threshold.
    """
    x = np.asarray(x, dtype=float)
    grads = np.array([central_gradient(fn, x) for fn in integrals])
    norms = np.linalg.norm(grads, axis=1, keepdims=True)
    grads = np.divide(grads, norms, out=np.zeros_like(grads), where=norms > 0)
    sv = np.linalg.svd(grads, compute_uv=False)
    if sv[0] == 0:
        return 0
    return int(np.sum(sv > threshold * sv[0]))


def wronskian_ratio_integral(
    field: QuadraticVectorField,
    eps: float,
    order: int,
    num: int,
    den: int,
    pairs: tuple = None,
    window: int = None,
):
    """Integral of the map read off a discrete-Wronskian null vector.

    Returns a function of the initial state: it runs a short orbit, finds
    the one-dimensional null space of the order-`order` Wronskian window
    matrix, and returns entry `num` over entry `den`.
    """
    if pairs is None:
        pairs = conjugate_pairs(field.dim)
    observables = WronskianBasisSpec(order, pairs).observables()
    m = len(observables)
    height = window if window is not None else default_window(m)
    steps = height - 1 + order

    def integral(x: np.ndarray) -> float:
        orbit = iterate_orbit(field, x, eps, steps)
        report = hk_nullspace(orbit, observables, height)
        if report.null_dim != 1:
            raise RuntimeError(
                f"order-{order} Wronskian window has null dimension {report.null_dim}"
            )
        v = report.coeff_vectors[0]
        if abs(v[den]) < PIVOT_FLOOR * np.max(np.abs(v)):
            raise ValueError(f"denominator entry {den} degenerate in null vector")
        return float(v[num] / v[den])

    return integral
