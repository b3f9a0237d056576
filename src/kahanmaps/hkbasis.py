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
sliding window of the orbit, both built by _windows, and hk-scan and a
WronskianRatio integral every order's first window of one orbit, built by
the Wronskian column formula (_order_index).
_windows evaluates each observable once a base point and gathers the
windows from those per-point columns in one indexing.  _decide takes the
singular values and right vectors from the SVD of each window's m x m R
factor, so no Q or U is formed.  functional_rank takes the
gradients of the ratios that share an orbit from that one orbit of x and
its tangents dx_k/dx_0, carried by the Kahan map's closed-form Jacobian,
so each derivative is exact to rounding and no perturbed state is stepped;
the null vector's derivative is -W^+ (dW v), with W^+ from sigma and V.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .quadfield import QuadraticVectorField, _Frozen, _is_index, _real, _reals, _states, kahan_orbit, map_jacobian
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
# report grades a declared order's null space sound when its gap_ratio is
# at least this. Non-integrable controls read gaps <= 3.7e3, the seed-2504
# rank probe's near-pole windows 4.5e8-6.3e8, and every order 1-8 of the
# five 6-dim kinds >= 7e13 at eps 0.05 and 0.4 (ROADMAP items 5 and 12).
GAP_RATIO_FLOOR = 1e6
# functional_rank counts the singular values above this times the largest.
# Measured on tangent rows at criterion 07's points (seed 110, 30 each):
# sigma_4/sigma_1 <= 3.8e-10 on the exactly rank-3 sets I0,J0,J1,J2 and
# I0,J0,J3,J4, >= 1.3e-7 on J1..J4 and >= 6e-5 on the other rank-4 sets.
# hk_detect's J1..J4 probes (seeds 1-20, 400 points) spread from 2.7e-9 to
# 1.5e-2 without a gap; the 11 below this value read rank 3 because their
# rows are nearly dependent, not because of noise.
RANK_THRESHOLD = 1e-7
# _unit_gradients zeroes a gradient row below this times max(1, |I(x)|), so
# a constant integral adds no rank. Measured as that ratio: the constant
# order-3 ratio v1/v0 of kirchhoff and lagrange at eps 0.05 reads <= 3.0e-8
# (800 draws, seeds 1-40); hk_detect's J1..J4 rows read >= 0.015 (seeds
# 1-20, 400 points) and criterion 07's rows >= 0.11.
GRADIENT_FLOOR = 1e-5
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
    if not _is_index(steps) or steps < 1:
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    x = _states(field, x0, eps, one=True, name="x0")
    orbit = kahan_orbit(field, x, eps, steps, delta=False)
    if orbit.pole[0, 0]:
        raise orbit.pole_error((0, 0))
    states = np.concatenate([x, orbit.next[: int(orbit.ends()[0]), 0]])
    states.setflags(write=False)
    return states


class Observable(_Frozen, eq=True):
    """A column of values along an orbit.

    column(states, bases) returns one value per base, in the shape of the
    int array bases; the value at base b reads states b .. b + reach, which
    calling the observable checks.
    """

    def __init__(self, column: Callable[[np.ndarray, np.ndarray], np.ndarray], reach: int) -> None:
        self._init(locals())

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
    if not _is_index(ell) or ell < 1:
        raise ValueError(f"order must be an integer >= 1, got {ell!r}")
    i, j = pair

    def column(states: np.ndarray, bases: np.ndarray) -> np.ndarray:
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


class WronskianBasisSpec(_Frozen, eq=True):
    def __init__(self, order: int, pairs: tuple) -> None:
        if not _is_index(order) or order < 1:
            raise ValueError(f"order must be an integer >= 1, got {order!r}")
        pairs = tuple(tuple(p) for p in pairs)
        if not pairs:
            raise ValueError("at least one pair is required")
        for p in pairs:
            if len(p) != 2 or not all(map(_is_index, p)) or p[0] == p[1] or min(p) < 0:
                raise ValueError(f"invalid pair {p}: pairs must hold two distinct integers >= 0")
        self._init(locals())

    def observables(self) -> list:
        return [wronskian_observable(self.order, p) for p in self.pairs]


def default_window(m: int) -> int:
    """Window height giving comfortable oversampling for m observables."""
    return 2 * m + 4


class HKNullSpaceReport(_Frozen, eq=True):
    """The null space of the window of `window` rows from orbit point 0."""

    def __init__(
        self, singular_values: np.ndarray, null_dim: int, coeff_vectors: np.ndarray, window: int, gap_ratio: float
    ) -> None:
        self._init(locals())

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
    """Window matrices [starts, window, m] of the orbit states[points, n],
    one per base in the int array starts: row r of the window at base b
    holds every observable at base b + r.

    Each observable is evaluated once a base point, over the bases 0 ..
    max(starts) + window - 1, and one gather of those per-point columns
    copies every window into one contiguous array, so a cell has the
    arithmetic of its base alone.

    The window height is checked against m, states against one orbit, then
    every window against the orbit and every observable's reach; an
    observable that still rejects its bases (a Wronskian pair outside the
    state dimension) raises ValueError with its own message.
    """
    _check_window(len(observables), window)
    if np.ndim(states) != 2:
        raise ValueError(f"states must be one orbit of shape (points, n), got shape {np.shape(states)}")
    starts = np.asarray(starts)
    reach = max((observe.reach for observe in observables), default=0)
    outside = (starts < 0) | (starts + window - 1 + reach >= states.shape[0])
    if outside.any():
        start = starts[outside][0]
        raise ValueError(f"orbit too short for window of {window} rows starting at {start}")
    bases = np.arange(starts.max(initial=0) + window)
    try:
        columns = np.stack([observe.column(states, bases) for observe in observables], -1)
    except IndexError as exc:
        raise ValueError(str(exc)) from exc
    return np.take(columns, starts[:, None] + np.arange(window), axis=0)


def _check_window(m: int, window: int) -> None:
    if not m:
        raise ValueError("observables must hold at least one observable")
    if not _is_index(window):
        raise ValueError(f"window must be an integer, got {window!r}")
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
    sigma_max is 0 every direction counts.  Residuals are taken only for
    the directions from `first` on, as many trailing ones as the most that
    pass the sigma test in any window: no window's trailing run of passing
    directions is longer.
    """
    pivots = np.take_along_axis(vt, np.argmax(np.abs(vt), axis=-1)[..., None], axis=-1)
    vectors = vt / pivots
    sigma_max = sv[:, :1]
    accepted = sv < NULL_SIGMA_FACTOR * sigma_max
    first = vt.shape[-1] - int(accepted.sum(axis=-1).max(initial=0))
    # one matrix-vector product per direction, the same bits as rows @ v
    residual = np.max(np.abs(rows[:, None] @ vectors[:, first:, :, None]), axis=(-2, -1))
    accepted[:, first:] &= ~(residual > ANNIHILATION_FACTOR * sigma_max)
    accepted |= sigma_max <= 0
    null_dim = np.logical_and.accumulate(accepted[:, ::-1], axis=-1).sum(axis=-1)
    return vectors, null_dim


def _decide(windows: np.ndarray) -> tuple:
    """The singular values sv[W, m] and right singular vectors vt[W, m, m]
    of a stack of window matrices windows[W, r, m] and their null spaces,
    (sv, vt, vectors, null_dim) with the last two as _null_vectors returns
    them: sigma and V of each window's m x m R factor (Chan's R-SVD), so
    neither Q nor U is formed."""
    _, sv, vt = np.linalg.svd(np.linalg.qr(windows, mode="r"))
    return (sv, vt, *_null_vectors(windows, sv, vt))


def _null_derivative(windows: np.ndarray, sv: np.ndarray, vt: np.ndarray, y: np.ndarray) -> np.ndarray:
    """-W^+ y for windows[W, r, m] whose null space is their last singular
    direction, from _decide's sv and vt, with y[..., W, r, k]: U_r = W V_r
    S_r^-1 on the other directions, so W^+ y = V_r S_r^-2 V_r^T W^T y."""
    v_r, s_r = vt[:, :-1], sv[:, :-1, None]
    return -(v_r.mT @ ((v_r @ (windows.mT @ y)) / s_r / s_r))


def hk_nullspace(states: np.ndarray, observables: Sequence[Observable], window: int) -> HKNullSpaceReport:
    """Singular spectrum and annihilating vectors (see _null_vectors) of the
    window matrix of `window` rows from orbit point 0; pass states[start:]
    for a window from a later point."""
    (report,) = _reports(_windows(states, observables, window, np.array([0])), window)
    return report


def _reports(windows: np.ndarray, window: int) -> list:
    """The HKNullSpaceReport of each of the stacked windows[W, window, m],
    decided in one _decide call. The gap of a null space of dimension d is
    the last singular value above it over the first inside it, inf when d
    is m or that value is 0, and 0.0, a sentinel, when d is 0: no spectral
    split to report."""
    if not np.isfinite(windows).all():
        raise ValueError("observable produced a non-finite value inside the window")
    sv, _, vectors, null_dim = _decide(windows)
    m, reports = windows.shape[-1], []
    for s, v, d in zip(sv, vectors, null_dim.tolist()):
        gap = 0.0 if d == 0 else np.inf if d == m or s[m - d] == 0 else float(s[m - d - 1] / s[m - d])
        reports.append(HKNullSpaceReport(s, d, v[m - d :], window, gap))
    return reports


def _order_index(orders: Sequence[int], pairs: tuple, window: int) -> tuple:
    """The point and coordinate indices (up, base, i, j) of _wronskian that
    give every order's window of `window` rows from orbit point 0 over
    `pairs`, [orders, window, m]: row r of order ell's window reads points r
    and r + ell."""
    base = np.arange(window)[:, None]
    i, j = np.array(pairs).T
    return base + np.array(orders)[:, None, None], base[None], i, j


def _order_reports(orbit: np.ndarray, orders: Sequence[int], pairs: tuple, window: int) -> list:
    """hk-scan's reports: hk_nullspace of the order-ell Wronskian window over
    `pairs` of the orbit, for every ell in orders, decided in one stack."""
    return _reports(_wronskian(orbit, orbit, *_order_index(orders, pairs, window)), window)


class RatioSequences(_Frozen, eq=True):
    """Per-observable coefficient ratio sequences over sliding windows."""

    def __init__(self, ratios: tuple, non_constant: tuple) -> None:
        self._init(locals())


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
    _check_window(m, report.window)
    if not _is_index(pivot) or not 0 <= pivot < m:
        raise ValueError(f"pivot must be an integer in 0..{m - 1} for {m} observables, got {pivot!r}")
    window = report.window
    # every start whose window fits, or 0 for _windows to reject
    last = states.shape[0] - window - max(observe.reach for observe in observables)
    windows = _windows(states, observables, window, np.arange(max(last, 0) + 1))
    finite = np.isfinite(windows).all(axis=(1, 2))
    count = len(finite) if finite.all() else int(np.argmin(finite))
    if count == 0:
        raise ValueError("observable produced a non-finite value inside the window")
    vectors, null_dim = _decide(windows[:count])[2:]
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
    """Gradient rows of the integrals at x, each scaled to unit length, so
    one steep integral cannot push the others under the rank threshold. A
    row below GRADIENT_FLOOR * max(1, |I(x)|) is rounding noise, a constant
    integral's, and stays zero.

    Wronskian ratios that share an orbit take theirs from one tangent orbit
    of x (_ratio_values), exact to rounding, and fail where WronskianRatio
    fails at x; any other integral takes central_gradient.  x is checked
    first: one state, of every ratio's dimension, finite.  A non-finite
    value or gradient entry is an error, not a zero row.
    """
    if not integrals:
        raise ValueError("at least one integral is required")
    groups: dict = {}
    for index, fn in enumerate(integrals):
        if isinstance(fn, WronskianRatio):
            groups.setdefault((fn.field, fn.eps, fn.pairs, fn.window), []).append(index)
    x = _check_state(x, [field.dim for field, *_ in groups])
    shared = {}
    for members in groups.values():
        rows = _ratio_values([integrals[i] for i in members], x, gradients=True)
        shared.update(zip(members, rows))
    grads = np.empty((len(integrals), x.shape[0]))
    values = np.empty((len(integrals), 1))
    for index, fn in enumerate(integrals):
        found = shared[index] if index in shared else (fn(x), central_gradient(fn, x))
        if isinstance(found, Exception):
            raise found
        values[index], grads[index] = found
        if not (np.isfinite(values[index]).all() and np.isfinite(grads[index]).all()):
            raise ValueError(f"integral {index} has a non-finite value or gradient at x")
    norms = np.linalg.norm(grads, axis=1, keepdims=True)
    live = norms >= GRADIENT_FLOOR * np.maximum(1.0, np.abs(values))
    return np.divide(grads, norms, out=np.zeros_like(grads), where=live)


def _check_state(x: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """x as one finite state of shape (dim,) for every dim in dims, or of
    any length when dims is empty, by quadfield's array rule."""
    for dim in set(dims) or {None}:
        x = _reals(x, "x", (dim,))
    return x


class WronskianRatio(_Frozen):
    """Integral of the map read off a discrete-Wronskian null vector.

    From one state it runs a short orbit, finds the one-dimensional null
    space of the order-`order` Wronskian window matrix of `window` rows
    over `pairs`, and returns entry `num` over entry `den`.  pairs default
    to the conjugate pairs and window to default_window(len(pairs)).
    """

    def __init__(
        self,
        field: QuadraticVectorField,
        eps: float,
        order: int,
        num: int,
        den: int,
        pairs: tuple = None,
        window: int = None,
    ) -> None:
        _real(eps, "eps")
        pairs = WronskianBasisSpec(order, conjugate_pairs(field.dim) if pairs is None else pairs).pairs
        if max(max(pair) for pair in pairs) >= field.dim:
            raise ValueError(f"pairs {pairs} reach past dimension {field.dim}")
        m = len(pairs)
        window = default_window(m) if window is None else window
        _check_window(m, window)
        for name, index in (("num", num), ("den", den)):
            if not _is_index(index):
                raise ValueError(f"{name} must be an integer, got {index!r}")
            if not 0 <= index < m:
                raise ValueError(f"{name} must lie in 0..{m - 1} for {m} pairs, got {index}")
        if num == den:
            raise ValueError(f"num and den are both {num}: the ratio is the constant 1")
        self._init(locals())

    def __call__(self, x: np.ndarray) -> float:
        (value,) = _ratio_values([self], _check_state(x, [self.field.dim]))
        if isinstance(value, Exception):
            raise value
        return float(value)


def _ratio_values(ratios: Sequence[WronskianRatio], x: np.ndarray, gradients: bool = False) -> list:
    """Values of ratios sharing field, eps, pairs and window at the one
    state x[n], or with `gradients` their gradients [n]: one orbit of x to
    the longest order's length, every order's window from the Wronskian
    column formula, and one stacked SVD of those windows.

    A gradient comes from tangents, not differences: one stacked
    map_jacobian over the orbit's steps, their prefix products
    T_k = dx_k/dx_0 by doubling, and each window's derivative dW by the
    product rule. The null vector's derivative is dv = -W^+ (dW v)
    (_null_derivative), and the quotient rule gives the ratio's.

    Each entry is the ratio's value, with `gradients` the pair of its value
    and gradient, or the error the ratio raises at x: a pole at step 0, an
    orbit cut short of the window by a later pole (named by its step, as
    hk-scan names it), a non-finite window, a null dimension other than 1,
    or a degenerate denominator, the first that applies.
    """
    first = ratios[0]
    field, eps, pairs, window = first.field, first.eps, first.pairs, first.window
    orders = sorted({r.order for r in ratios})
    steps = window - 1 + orders[-1]
    stepped = kahan_orbit(field, x[None], eps, steps, delta=False)
    orbit = np.concatenate([x[None], stepped.next[:, 0]])  # nan past a pole
    points = int(stepped.ends()[0]) + 1  # points reached before a pole
    index = _order_index(orders, pairs, window)
    rows = _wronskian(orbit, orbit, *index)
    fits = points >= window + np.array(orders)
    usable = fits & np.isfinite(rows).all(axis=(-2, -1))
    windows = rows[usable]
    sv, vt, vectors, null_dim = _decide(windows)
    v = np.ones((len(orders), len(pairs)))
    v[usable] = vectors[:, -1]  # the null vector wherever null_dim is 1
    dims = np.zeros(len(orders), dtype=int)  # 0 on orders that have no window
    dims[usable] = null_dim
    if gradients:
        # past a pole the tangents are nan; a window that reads them fails
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            jac = map_jacobian(field, orbit[:-1], eps, orbit[1:])
            shift = 1
            while shift < steps:
                jac[shift:] = jac[shift:] @ jac[:-shift]
                shift *= 2
            # tangents[d, k]: d(point k)/d(x_d)
            tangents = np.concatenate([np.eye(field.dim)[None], jac]).transpose(2, 0, 1)
            d_rows = _wronskian(tangents, orbit, *index) + _wronskian(orbit, tangents, *index)
            d_null = _null_derivative(windows, sv, vt, d_rows[:, usable] @ vectors[:, -1, :, None])
            dv = np.zeros(v.shape + (field.dim,))
            dv[usable] = d_null[..., 0].transpose(1, 2, 0)

    def ratio_values(ratio: WronskianRatio):
        o = orders.index(ratio.order)
        vo = v[o]
        if dims[o] == 1 and not np.abs(vo[ratio.den]) < PIVOT_FLOOR * np.max(np.abs(vo)):
            value = vo[ratio.num] / vo[ratio.den]
            if not gradients:
                return value
            return value, (dv[o, ratio.num] - value * dv[o, ratio.den]) / vo[ratio.den]
        if stepped.pole[0, 0]:
            return stepped.pole_error((0, 0))
        if not fits[o]:
            needed = window - 1 + ratio.order
            return ValueError(f"orbit hits a pole at step {points} of the {needed} the window needs")
        if not usable[o]:
            return ValueError("observable produced a non-finite value inside the window")
        if dims[o] != 1:
            return RuntimeError(f"order-{ratio.order} Wronskian window has null dimension {dims[o]}")
        return ValueError(f"denominator entry {ratio.den} degenerate in null vector")

    return [ratio_values(ratio) for ratio in ratios]


# the name the benchmark and the acceptance tests build ratios by
wronskian_ratio_integral = WronskianRatio
