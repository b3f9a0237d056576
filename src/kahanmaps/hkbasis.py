"""Discrete Wronskians and window-based basis detection on Kahan orbits.

A family of scalar observables is a basis for the map when one fixed
coefficient vector annihilates the observable values along every orbit.
On a finite orbit this becomes a null-space question for the window
matrix M[r][s] = (observable s at orbit point r): a one-dimensional
null space whose vector varies only with the initial point turns the
coefficient ratios into integrals of the map.

An orbit is the array of its points, states[points, n], as iterate_orbit
returns it.  An observable produces a whole column: observe(states, bases)
takes an int array of base points and returns one value per base.  Its
`reach` is the number of successor states a value reads: 0 for state and
constant observables, 1 for bilinear ones, ell for an order-ell discrete
Wronskian, so the value at base b needs orbit points b .. b + reach.  A
window matrix is its observables' columns stacked side by side, so state
functions, bilinear functions of consecutive points and Wronskians that
look several steps ahead mix freely in one matrix.

Null-space detection uses a full singular-value decomposition with the
relative threshold NULL_SIGMA_FACTOR and reports the spectral gap as a
quality score; candidate vectors must also annihilate the window matrix
to ANNIHILATION_FACTOR times its norm, otherwise they are not counted.
Every caller decides its windows with _decide, one stacked decomposition
and its decision: hk_nullspace a stack of one and ratio extraction every
sliding window of the orbit, both built by _windows, and a WronskianRatio
integral every order's first window of each orbit in a stack of initial
states stepped as one batch.  functional_rank takes the gradients of the
ratios that share an orbit from that one orbit of x and its tangents
dx_k/dx_0, carried by the Kahan map's closed-form Jacobian, so each
derivative is exact to rounding and no perturbed state is stepped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .quadfield import QuadraticVectorField, kahan_orbit, map_jacobian
from .systems import central_gradient

__all__ = [
    "HKNullSpaceReport",
    "Observable",
    "RatioSequences",
    "WronskianBasisSpec",
    "WronskianRatio",
    "bilinear_observable",
    "conjugate_pairs",
    "constant_observable",
    "default_window",
    "extract_integral_ratios",
    "functional_rank",
    "hk_nullspace",
    "iterate_orbit",
    "state_observable",
    "wronskian_observable",
    "wronskian_ratio_integral",
]

NULL_SIGMA_FACTOR = 1e-9
# functional_rank counts the singular values above this times the largest.
# Measured on tangent rows at criterion 07's points (seed 110, 30 each):
# sigma_4/sigma_1 <= 3.8e-10 on the exactly rank-3 sets I0,J0,J1,J2 and
# I0,J0,J3,J4, >= 1.3e-7 on J1..J4 and >= 6e-5 on the other rank-4 sets.
# hk_detect's J1..J4 probes (seeds 1-20, 400 points) spread from 2.7e-9 to
# 1.5e-2 without a gap; the 11 below this value read rank 3 because their
# rows are nearly dependent, not because of noise.
RANK_THRESHOLD = 1e-7
ANNIHILATION_FACTOR = 1e-10
PIVOT_FLOOR = 1e-6
# a ratio sequence is constant while every entry stays within this times
# 1 + |its median| of the median
RATIO_TOL = 1e-9

def iterate_orbit(
    field: QuadraticVectorField, x0: np.ndarray, eps: float, steps: int
) -> np.ndarray:
    """The points of the Kahan orbit of one state up to its first pole, a
    read-only array [k + 1, n]: kahan_orbit on a stack of one, which
    takes no denominator the pole decision does not need, so k is
    `steps` unless a pole cuts the orbit short. A pole at step 0 raises
    SingularStepError."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x = np.asarray(x0, dtype=float)
    if x.shape != (field.dim,):
        raise ValueError(f"x0 must have shape ({field.dim},), got {x.shape}")
    orbit = kahan_orbit(field, x[None], eps, steps, delta=False)
    if orbit.pole[0, 0]:
        raise orbit.pole_error((0, 0))
    states = np.concatenate([x[None], orbit.next[: int(orbit.ends()[0]), 0]])
    states.setflags(write=False)
    return states


@dataclass(frozen=True)
class Observable:
    """A column of values along an orbit.

    column(states, bases) returns one value per base, in the shape of the
    int array bases; the value at base b reads states b .. b + reach, which
    calling the observable checks.
    """

    column: Callable[[np.ndarray, np.ndarray], np.ndarray]
    reach: int

    def __call__(self, states: np.ndarray, bases: np.ndarray) -> np.ndarray:
        bases = np.asarray(bases)
        points = states.shape[0]
        if bases.size and (bases.min() < 0 or bases.max() + self.reach >= points):
            raise IndexError(
                f"bases {bases.min()}..{bases.max()} with reach {self.reach} "
                f"exceed orbit of {points} points"
            )
        return self.column(states, bases)


def wronskian_observable(ell: int, pair: tuple) -> Observable:
    """x_i at base+ell times x_j at base, minus x_i at base times x_j at base+ell."""
    if ell < 1:
        raise ValueError("order must be >= 1")
    i, j = pair

    def column(states: np.ndarray, bases: np.ndarray) -> np.ndarray:
        # states may be one orbit (points, n) or a stack of orbits (B, points, n)
        dim = states.shape[-1]
        if not (0 <= i < dim and 0 <= j < dim):
            raise IndexError(f"pair {pair} outside dimension {dim}")
        return _wronskian(states, states, bases + ell, bases, i, j)

    return Observable(column, reach=ell)


def _wronskian(a: np.ndarray, b: np.ndarray, up, base, i, j) -> np.ndarray:
    """a_i(up) b_j(base) - a_i(base) b_j(up), the Wronskian column formula
    on point indices up = base + ell; with a = b = the orbit it is the
    column, and w(dX, X) + w(X, dX) its derivative along tangents dX."""
    return a[..., up, i] * b[..., base, j] - a[..., base, i] * b[..., up, j]


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
    return 2 * m + 4


@dataclass(frozen=True)
class HKNullSpaceReport:
    """The null space of the window of `window` rows from orbit point 0."""

    singular_values: np.ndarray
    null_dim: int
    coeff_vectors: np.ndarray
    window: int
    gap_ratio: float

    def to_json_dict(self) -> dict:
        gap = self.gap_ratio if np.isfinite(self.gap_ratio) else None
        return {
            "singular_values": [float(s) for s in self.singular_values],
            "null_dim": int(self.null_dim),
            "gap_ratio": gap,
            "coeff_vectors": [[float(c) for c in v] for v in self.coeff_vectors],
            "window": [0, int(self.window)],  # [first orbit point, rows]
        }


def _windows(
    states: np.ndarray, observables: Sequence[Observable], window: int, starts: np.ndarray
) -> np.ndarray:
    """Window matrices [..., window, m] of the orbits states[..., points, n],
    one per base in the int array starts: row r of the window at base b
    holds every observable at base b + r.

    The window height is checked against m, then every window against the
    orbit and every observable's reach; an observable that still rejects
    its bases (a Wronskian pair outside the state dimension) raises
    ValueError with its own message.
    """
    _check_window(len(observables), window)
    starts = np.asarray(starts)
    reach = max((observe.reach for observe in observables), default=0)
    outside = (starts < 0) | (starts + window - 1 + reach >= states.shape[-2])
    if outside.any():
        start = starts[outside][0]
        raise ValueError(f"orbit too short for window of {window} rows starting at {start}")
    bases = starts[..., None] + np.arange(window)
    try:
        return np.stack([observe.column(states, bases) for observe in observables], -1)
    except IndexError as exc:
        raise ValueError(str(exc)) from exc


def _check_window(m: int, window: int) -> None:
    if window < m + 2:
        raise ValueError(f"window must be at least {m + 2} for {m} observables")


def _null_vectors(rows: np.ndarray, sv: np.ndarray, vt: np.ndarray) -> tuple:
    """Null spaces of a stack of window matrices rows[W, r, m], given their
    singular values sv[W, m] and right singular vectors vt[W, m, m].

    Returns every direction scaled so its largest-magnitude entry is +1,
    vectors[W, m, m], and null_dim[W]: window w's accepted null vectors are
    vectors[w, m - null_dim[w]:].  A trailing singular direction counts
    toward the null space only while it and every direction after it have
    sigma < NULL_SIGMA_FACTOR * sigma_max and a normalized vector that
    annihilates the matrix to ANNIHILATION_FACTOR * sigma_max; when
    sigma_max is 0 every direction counts.
    """
    pivots = np.take_along_axis(vt, np.argmax(np.abs(vt), axis=-1)[..., None], axis=-1)
    vectors = vt / pivots
    # one matrix-vector product per direction, the same bits as rows @ v
    residual = np.max(np.abs(rows[:, None] @ vectors[..., None]), axis=(-2, -1))
    sigma_max = sv[:, :1]
    accepted = (sigma_max <= 0) | (
        (sv < NULL_SIGMA_FACTOR * sigma_max) & ~(residual > ANNIHILATION_FACTOR * sigma_max)
    )
    null_dim = np.logical_and.accumulate(accepted[:, ::-1], axis=-1).sum(axis=-1)
    return vectors, null_dim


def _decide(windows: np.ndarray) -> tuple:
    """The thin SVD u, sv[W, m], vt of a stack of window matrices
    windows[W, r, m] and their null spaces, (u, sv, vt, vectors, null_dim)
    with the last two as _null_vectors returns them."""
    u, sv, vt = np.linalg.svd(windows, full_matrices=False)
    return (u, sv, vt, *_null_vectors(windows, sv, vt))


def hk_nullspace(states: np.ndarray, observables: Sequence[Observable], window: int) -> HKNullSpaceReport:
    """Singular spectrum and annihilating vectors (see _null_vectors) of the
    window matrix of `window` rows from orbit point 0; pass states[start:]
    for a window from a later point."""
    rows = _windows(states, observables, window, np.array([0]))
    if not np.isfinite(rows).all():
        raise ValueError("observable produced a non-finite value inside the window")
    _, sv, _, vectors, null_dim = _decide(rows)
    m, sv, null_dim = rows.shape[-1], sv[0], int(null_dim[0])
    if null_dim == 0:
        gap = 0.0  # sentinel: no spectral split to report
    elif null_dim == m or sv[m - null_dim] == 0:
        gap = np.inf
    else:
        gap = float(sv[m - null_dim - 1] / sv[m - null_dim])
    return HKNullSpaceReport(
        singular_values=sv,
        null_dim=null_dim,
        coeff_vectors=vectors[0, m - null_dim :],
        window=window,
        gap_ratio=gap,
    )


@dataclass(frozen=True)
class RatioSequences:
    """Per-observable coefficient ratio sequences over sliding windows."""

    ratios: tuple
    non_constant: tuple


def extract_integral_ratios(
    report: HKNullSpaceReport,
    states: np.ndarray,
    observables: Sequence[Observable],
    pivot: int,
) -> RatioSequences:
    """Recompute the null vector on every window the orbit affords and
    divide by the pivot coefficient; constant sequences (to RATIO_TOL) are
    integrals.

    Windows slide by one point from orbit point 0 and stop before the
    first one that runs past the orbit or holds a non-finite value. When
    not even the first window fits the orbit, or it holds a non-finite
    value, that is a ValueError naming the cause.
    """
    if report.null_dim != 1:
        raise ValueError(f"requires null_dim 1, report has {report.null_dim}")
    m = len(observables)
    if not 0 <= pivot < m:
        raise ValueError(f"pivot {pivot} outside {m} observables")
    window = report.window
    # every start whose window fits, or 0 for _windows to reject
    last = states.shape[0] - window - max(observe.reach for observe in observables)
    windows = _windows(states, observables, window, np.arange(max(last, 0) + 1))
    finite = np.isfinite(windows).all(axis=(1, 2))
    count = len(finite) if finite.all() else int(np.argmin(finite))
    if count == 0:
        raise ValueError("observable produced a non-finite value inside the window")
    vectors, null_dim = _decide(windows[:count])[3:]
    v = vectors[:, -1]  # the null vector wherever null_dim is 1
    wrong_dim = null_dim != 1
    failed = wrong_dim | (np.abs(v[:, pivot]) < PIVOT_FLOOR * np.max(np.abs(v), axis=1))
    if failed.any():
        k = int(np.argmax(failed))
        if wrong_dim[k]:
            raise RuntimeError(f"null space dimension {null_dim[k]} != 1 at window start {k}")
        raise ValueError(f"pivot coefficient degenerate at window start {k}")
    table = v / v[:, pivot, None]
    center = np.median(table, axis=0)
    non_constant = np.max(np.abs(table - center), axis=0) > RATIO_TOL * (1 + np.abs(center))
    return RatioSequences(tuple(table.T.copy()), tuple(non_constant.tolist()))


def functional_rank(integrals: Sequence[Callable[[np.ndarray], float]], x: np.ndarray) -> int:
    """Numerical rank of the integrals' gradients at x (see _unit_gradients)."""
    sv = np.linalg.svd(_unit_gradients(integrals, x), compute_uv=False)
    if sv[0] == 0:
        return 0
    return int(np.sum(sv > RANK_THRESHOLD * sv[0]))


def _unit_gradients(integrals: Sequence[Callable], x: np.ndarray) -> np.ndarray:
    """Gradient rows of the integrals at x, each scaled to unit length
    (zero rows stay zero), so one steep integral cannot push the others
    under the rank threshold.

    Wronskian ratios that share an orbit take theirs from one tangent orbit
    of x (_ratio_values), exact to rounding, and fail where WronskianRatio
    fails at x; any other integral takes central_gradient.  x is checked
    first: one state, of every ratio's dimension, finite.  A non-finite
    value or gradient entry is an error, not a zero row.
    """
    if not integrals:
        raise ValueError("at least one integral is required")
    x = np.asarray(x, dtype=float)
    groups: dict = {}
    for index, fn in enumerate(integrals):
        if isinstance(fn, WronskianRatio):
            groups.setdefault((fn.field, fn.eps, fn.pairs, fn.window), []).append(index)
    if x.ndim != 1 or not x.size:
        raise ValueError(f"x must be one state of shape (n,), got shape {x.shape}")
    for field, *_ in groups:
        if x.shape != (field.dim,):
            raise ValueError(f"x must have shape ({field.dim},), got shape {x.shape}")
    if not np.isfinite(x).all():
        k = int(np.argmin(np.isfinite(x)))
        raise ValueError(f"x has a non-finite entry x[{k}] = {x[k]}")
    shared = {}
    for members in groups.values():
        rows = _ratio_values([integrals[i] for i in members], x[None], gradients=True)
        shared.update(zip(members, rows))
    grads = np.empty((len(integrals), x.shape[0]))
    for index, fn in enumerate(integrals):
        grad = shared[index] if index in shared else central_gradient(fn, x)
        if isinstance(grad, Exception):
            raise grad
        grads[index] = grad
        if not np.isfinite(grads[index]).all():
            raise ValueError(f"integral {index} has a non-finite value or gradient at x")
    norms = np.linalg.norm(grads, axis=1, keepdims=True)
    return np.divide(grads, norms, out=np.zeros_like(grads), where=norms > 0)


@dataclass(frozen=True, eq=False)
class WronskianRatio:
    """Integral of the map read off a discrete-Wronskian null vector.

    From each initial state it runs a short orbit, finds the one-dimensional
    null space of the order-`order` Wronskian window matrix of `window`
    rows over `pairs`, and returns entry `num` over entry `den`.  values()
    does so for a stack of states at once; calling it on one state is the
    stack of one.
    """

    field: QuadraticVectorField
    eps: float
    order: int
    num: int
    den: int
    pairs: tuple
    window: int

    def __post_init__(self) -> None:
        pairs = WronskianBasisSpec(self.order, self.pairs).pairs
        if max(max(pair) for pair in pairs) >= self.field.dim:
            raise ValueError(f"pairs {pairs} reach past dimension {self.field.dim}")
        m = len(pairs)
        _check_window(m, self.window)
        for name in ("num", "den"):
            index = getattr(self, name)
            if not 0 <= index < m:
                raise ValueError(f"{name} must lie in 0..{m - 1} for {m} pairs, got {index}")
        if self.num == self.den:
            raise ValueError(f"num and den are both {self.num}: the ratio is the constant 1")
        object.__setattr__(self, "pairs", pairs)

    def values(self, states: np.ndarray) -> np.ndarray:
        """The ratio at every row of states[B, n]."""
        (values,) = _ratio_values([self], states)
        if isinstance(values, Exception):
            raise values
        return values

    def __call__(self, x: np.ndarray) -> float:
        return float(self.values(np.asarray(x, dtype=float)[None])[0])


def _ratio_values(ratios: Sequence[WronskianRatio], states: np.ndarray, gradients: bool = False) -> list:
    """Values of ratios sharing field, eps, pairs and window at every row of
    states[B, n], or with `gradients` their gradients [B, n]: one stacked
    orbit to the longest order's length, every order's window from the
    Wronskian column formula, and one stacked SVD.

    A gradient comes from tangents, not differences: one stacked
    map_jacobian over the orbit's steps, their prefix products
    T_k = dx_k/dx_0 by doubling, and each window's derivative dW by the
    product rule. The SVD's other directions give the null vector's
    derivative dv = -V_r S_r^-1 U_r^T (dW v), and the quotient rule the
    ratio's.

    Each entry is the ratio's B values or gradients or, if a row fails, the
    error that ratio raises at its first failing row: a pole at step 0, an
    orbit cut short of the window by a later pole (named by its step, as
    hk-scan names it), a non-finite window, a null dimension other than 1,
    or a degenerate denominator.
    """
    first = ratios[0]
    field, eps, pairs, window = first.field, first.eps, first.pairs, first.window
    x = np.asarray(states, dtype=float)
    if x.ndim != 2 or x.shape[1] != field.dim:
        raise ValueError(f"states must have shape (B, {field.dim}), got {x.shape}")
    orders = sorted({r.order for r in ratios})
    steps = window - 1 + orders[-1]
    stepped = kahan_orbit(field, x, eps, steps, delta=False)
    # orbit[b]: the points of row b, nan past a pole
    orbit = np.concatenate([x[None], stepped.next]).swapaxes(0, 1)
    points = stepped.ends() + 1  # points each row reached before a pole
    # row r of order ell's window reads points r and r + ell: [B, orders, window, m]
    base = np.arange(window)[:, None]
    up, base = base + np.array(orders)[:, None, None], base[None]
    i, j = np.array(pairs).T
    rows = _wronskian(orbit, orbit, up, base, i, j)
    fits = points[:, None] >= window + np.array(orders)
    usable = fits & np.isfinite(rows).all(axis=(-2, -1))
    u, sv, vt, vectors, null_dim = _decide(rows[usable])
    v = np.ones(usable.shape + (len(pairs),))
    v[usable] = vectors[:, -1]  # the null vector wherever null_dim is 1
    dims = np.zeros(usable.shape, dtype=int)  # 0 on rows that have no window
    dims[usable] = null_dim
    if gradients:
        # past a pole the tangents are nan; a row that reads them fails
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            jac = map_jacobian(field, orbit[:, :-1], eps, orbit[:, 1:])
            shift = 1
            while shift < steps:
                jac[:, shift:] = jac[:, shift:] @ jac[:, :-shift]
                shift *= 2
            eye = np.broadcast_to(np.eye(field.dim), (len(x), 1, field.dim, field.dim))
            # tangents[d, b, k]: d(point k of row b)/d(x_d)
            tangents = np.concatenate([eye, jac], axis=1).transpose(3, 0, 1, 2)
            d_rows = _wronskian(tangents, orbit, up, base, i, j) + _wronskian(orbit, tangents, up, base, i, j)
            d_null = u[..., :-1].mT @ (d_rows[:, usable] @ vectors[:, -1, :, None]) / sv[:, :-1, None]
            dv = np.zeros(v.shape + (field.dim,))
            dv[usable] = -(vt[:, :-1].mT @ d_null)[..., 0].transpose(1, 2, 0)

    def ratio_values(ratio: WronskianRatio):
        o = orders.index(ratio.order)
        vo = v[:, o]
        degenerate = np.abs(vo[:, ratio.den]) < PIVOT_FLOOR * np.max(np.abs(vo), axis=1)
        failed = (dims[:, o] != 1) | degenerate
        if not failed.any():
            value = vo[:, ratio.num] / vo[:, ratio.den]
            if not gradients:
                return value
            return (dv[:, o, ratio.num] - value[:, None] * dv[:, o, ratio.den]) / vo[:, ratio.den, None]
        b = int(np.argmax(failed))
        if stepped.pole[0, b]:
            return stepped.pole_error((0, b))
        if not fits[b, o]:
            needed = window - 1 + ratio.order
            return ValueError(f"orbit hits a pole at step {points[b]} of the {needed} the window needs")
        if not usable[b, o]:
            return ValueError("observable produced a non-finite value inside the window")
        if dims[b, o] != 1:
            return RuntimeError(f"order-{ratio.order} Wronskian window has null dimension {dims[b, o]}")
        return ValueError(f"denominator entry {ratio.den} degenerate in null vector")

    return [ratio_values(ratio) for ratio in ratios]


def wronskian_ratio_integral(
    field: QuadraticVectorField,
    eps: float,
    order: int,
    num: int,
    den: int,
    pairs: tuple = None,
    window: int = None,
) -> WronskianRatio:
    """The WronskianRatio of entry `num` over entry `den`, over the conjugate
    pairs and the default window height unless given."""
    if pairs is None:
        pairs = conjugate_pairs(field.dim)
    if window is None:
        window = default_window(len(pairs))
    return WronskianRatio(field, eps, order, num, den, pairs, window)
