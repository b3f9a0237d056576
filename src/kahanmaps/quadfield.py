"""Quadratic vector fields and their Kahan discretization.

A quadratic vector field on R^n is

    xdot_i = sum_jk quad[i,j,k] x_j x_k + sum_j lin[i,j] x_j + const[i]

with ``quad`` symmetric in its last two axes.  The Kahan map replaces the
time derivative by a symmetric difference across one step of size 2*eps and
every quadratic monomial by its polarization in (x, x~):

    (x~ - x) / (2*eps) = Q(x, x~) + B (x + x~) / 2 + c

This is linear in x~, so the update solves a single n x n system with matrix
I - eps*f'(x), where f' is the Jacobian of the continuous field.  The map is
birational; it has a pole wherever det(I - eps*f'(x)) vanishes.

The step is written once, in kahan_orbit, for a stack of states x[B, n].
It solves for the increment, (I - eps*f'(x)) (x~ - x) = 2*eps*f(x).  The
matrix and the right-hand side are both linear in the augmented point
a = [x, 1]: f'(x) = 2 Q x + B, and f'(x) x = 2 Q(x) + B x for symmetric
quad, so

    2*eps*f(x) = eps*(f'(x) + B) x + 2*eps*c = [eps*(f'(x) + B) | 2*eps*c] a.

The field keeps the coefficients of both in one read-only step_tensor.  An
orbit folds eps * step_tensor, its first n*n columns negated and I added
row-major to its constant row, and a step is four numpy calls and nothing
else: a times it, a row holding I - eps*f'(x) and the n x (n + 1) matrix
[eps*(f'(x) + B) | 2*eps*c]; that matrix times a, the right-hand side;
the solve, into the next point's row; and the add that completes it.
(The 1 on the diagonal is summed inside the product, which moves no bit
where f'(x) has a zero diagonal, as on the five e(3) kinds.)  The views
and buffers are built once an orbit, and again when a pole drops a row.
On 6 x 6 matrices each call's 1-3 us of dispatch is most of the step's
cost.  On a stack the products are np.vecmat and np.matvec, not matmul:
matmul hands a stack to BLAS gemm, which rounds a row differently from
the same row alone, while vecmat and matvec hand each row to BLAS dgemv.
A lone row steps on its 1-D views with ndarray.dot, np.dot's kernel
without its Python dispatcher, which calls the same dgemv at about a
third of the dispatch cost (0.6 us a call against 1.7 us at n = 6).  So
a row has the same bits alone or in a stack of any size.  The step
tensor is the package's one source of f'(x): jacobian reads it from the
same tensor, unscaled, for map_jacobian and verify's measure check.

Its loop carries only what the next point depends on.  The defining
equation above defines the map; the increment form solves it.  A state
whose |det(I - eps*f'(x))| falls below the threshold 1e-13 (1 + nu)^n,
nu = |eps*f'(x)|_inf, sits on a pole: its row stops there, that entry
keeps its denominator and threshold, and every later entry of the row is
nan.  nu is bounded without forming eps*f'(x): eps*f'(x) = sum_k a_k
eps*J_k over the n + 1 slices J_k of the step tensor's first n*n
columns, so nu <= |a| @ c with c[k] = |eps*J_k|_inf.  An orbit reads c
from eps * step_tensor once, raised by a stated rounding margin (see
_norm_bounds) so that the bound nu' = |a| @ c is at least the nu the
step's own matrix M = I - eps*f'(x) gives as computed.  The rows step
DECIDE_STEPS steps at a time; then one product |points| @ c bounds nu at
every stepped point of the block, and one call decides the block's
poles in n-th roots, where nothing overflows, in three steps:

- with delta=False (below) a point takes its det only if its bound fails
  the clearance 1 - nu' >= (1 + nu') (1e-13 POLE_MARGIN)^(1/n), and is
  off a pole otherwise: every eigenvalue of M lies within |I - M|_inf <=
  nu' of 1, so |det M| >= (1 - nu')^n, above the threshold at nu', and
  cond_inf(M) <= (1 + nu')/(1 - nu') <= 1e13^(1/n), at most 3.2e6 from
  n = 2 (a 1 x 1 det is exact), keeps the computed det's rounding far
  inside POLE_MARGIN.  With delta=True every point takes its det;
- a point whose n-th root of |det| clears the root of its threshold at
  its bound is off a pole, since the threshold only grows with nu;
- only the points left open form eps*f'(x), as I minus their matrices,
  for the exact norm, and are poles where |det| < 1e-13 (1 + nu)^n.

Every stepped point passes through that call once; a row's steps past
its first pole in the block, at most DECIDE_STEPS - 1, are dropped.  The
products, the solve and det give each row the same bits in a stack of
any size, and the bounds only skip decisions the exact norm would make
the same way, so the block's denominators, decisions and thresholds are
those of the steps one at a time with exact norms.  On 1000-step orbits
of 200 unit-ball states per catalog kind, no point is left to the exact
norm at eps 0.05 or 0.4, and a delta=False orbit takes no det at eps
0.05 and 15-74% of them at eps 0.4.  Every step is a KahanBatch:
kahan_step is entry (0, 0) of the one-step orbit of one state, raising
SingularStepError at a pole, and delta its denominator, bit for bit as
in a stack.  Its caller says whether a pole at an orbit's first step is
an error.

Each input has one rule, and a ValueError names the field that breaks
it: a step size or system parameter is one finite int or float, not a
bool (_real); a coefficient array or checked state is an array of finite
ints or floats of its shape, kept as a read-only float copy (_reals).
_states checks a stepped x by the same rule without finiteness, as
orbits carry nan past a pole.  An integer argument is an int, not 1e3,
which the CLI takes for 1000 as JSON has one number type (_is_index).

The callers that never read the denominators, verify's conservation
orbits, backward reversibility steps and every draw but the measure
check's, and hkbasis's iterate_orbit and Wronskian ratio orbits, pass
kahan_orbit delta=False.  Then every point the clearance decides keeps a
nan denominator and is not a pole, and the points, poles and thresholds
are those of the full orbit.

Measured against the exact rational step from the same floats
(tests/exact_clebsch.py), on 200 states in the unit ball per catalog kind,
the median one-step forward error is 0.30-0.34 ulp of |x~|_inf at eps 0.05
and 0.35-0.62 ulp at eps 0.4.  Solving for x~ directly, from
(I - eps*f'(x)) x~ = (I + eps*B) x + 2*eps*c, gives 0.58-0.78 ulp at eps
0.05 on the same states, about twice as far off, hence the increment.

Each step calls LAPACK's solve kernel directly, the gufunc that
numpy.linalg.solve dispatches to, without its wrapper, which changes
nothing on the float64 square stacks the step builds.  kahan_orbit runs
under one error state per call: a determinant past the float range is
recorded as +-inf without a warning, and a row stepped past its pole,
which may be singular, solves to nan or inf instead of raising.  A state
that is already nan decides no pole and carries nan.  map_jacobian solves
with the same kernel's many-column form under the same error state, so
a singular row of its stack is nan.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "SingularStepError",
    "QuadraticVectorField",
    "KahanBatch",
    "delta",
    "kahan_step",
    "kahan_orbit",
    "jacobian",
    "map_jacobian",
]

# Pole detection: |det(I - eps*f'(x))| below this times a conditioning factor
# counts as singular rather than merely small.
SINGULAR_DET_FACTOR = 1e-13
# The n-th root rounds a few ulps from the power; a row that clears the
# root test by this relative margin is off a pole.
POLE_MARGIN = 1.0 + 1e-6
# Steps an orbit takes between pole decisions; a row stepped past its pole
# wastes at most DECIDE_STEPS - 1 steps. A lone 1000-step kirchhoff orbit
# costs about 5-10 us a step at blocks of 16, 64 and 256 steps, 10-16 us at 4
# and 25-40 us at 1 (process CPU time a step, median of 15 orbits, over five
# runs on a 2-core x86-64 VM under shared load).
DECIDE_STEPS = 64


class SingularStepError(RuntimeError):
    """Raised when the step matrix I - eps*f'(x) is numerically singular."""


class _Frozen:
    """Base of the package's value classes, plain classes rather than
    dataclasses, which exec-compile their methods at every import. Its
    fields are the parameters of __init__, which sets them once, by _init
    or object.__setattr__; then assigning or deleting an attribute raises
    AttributeError. repr shows the fields; a subclass declared with eq=True
    compares and hashes by their values, any other by identity."""

    def __init_subclass__(cls, eq: bool = False) -> None:
        if eq:
            cls.__eq__, cls.__hash__ = _Frozen._eq, _Frozen._hash

    def _init(self, values: dict, check: Callable = None) -> None:
        """Set every field from __init__'s locals(), through check(value,
        name) when given."""
        for name in self._fields():
            object.__setattr__(self, name, values[name] if check is None else check(values[name], name))

    def _fields(self) -> tuple:
        code = type(self).__init__.__code__
        return code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields())

    def _eq(self, other) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def _hash(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field '{name}'")


class QuadraticVectorField(_Frozen):
    """Coefficient arrays of a quadratic vector field on R^n.

    quad: (n, n, n), symmetric in the last two axes
    lin: (n, n)
    const: (n,)

    Each must be an array of finite reals of its shape (_reals), and quad
    symmetric; they are kept as read-only float copies. Construction also
    builds step_tensor, (n + 1, n*n + n*(n + 1)), read-only: for a = [x, 1],
    a @ step_tensor holds f'(x) = 2 Q x + B row-major, then the n x (n + 1)
    matrix [f'(x) + B | 2c] row-major, whose product with a is 2 f(x).
    """

    def __init__(self, quad: np.ndarray, lin: np.ndarray, const: np.ndarray) -> None:
        const = _reals(const, "const", (None,))
        n = const.shape[0]
        quad = _reals(quad, "quad", (n, n, n))
        lin = _reals(lin, "lin", (n, n))
        if not np.array_equal(quad, quad.swapaxes(1, 2)):
            raise ValueError("quad must be symmetric in its last two axes")
        # row k < n holds the coefficients of x_k and row n the constant
        # terms: 2 Q[:, :, k] and B for f'(x), then 2 Q[:, :, k] and 2 B
        # beside a last column of 0 and 2c for [f'(x) + B | 2c]
        jac = np.concatenate([2.0 * quad.transpose(2, 0, 1), lin[None]])
        rhs = np.zeros((n + 1, n, n + 1))
        rhs[:, :, :n] = jac
        rhs[n, :, :n] += lin
        rhs[n, :, n] = 2.0 * const
        step_tensor = np.concatenate([jac.reshape(n + 1, -1), rhs.reshape(n + 1, -1)], axis=1)
        step_tensor.setflags(write=False)
        self._init(locals())
        object.__setattr__(self, "step_tensor", step_tensor)

    @property
    def dim(self) -> int:
        return self.const.shape[0]


@lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _poles(det: np.ndarray, norms: np.ndarray, n: int) -> tuple:
    """The rows of a stack whose |det| falls below the threshold
    SINGULAR_DET_FACTOR (1 + norm)^n, the power n tracking how |det| grows
    with the matrix norm, and those thresholds, as lists: libm's pow as
    np.float_power, inf where the power overflows."""
    with np.errstate(over="ignore"):
        thresholds = SINGULAR_DET_FACTOR * np.float_power(norms + 1.0, float(n))
    pole = np.abs(det) < thresholds
    return pole.nonzero()[0].tolist(), thresholds[pole].tolist()


def _norm_bounds(scaled: np.ndarray, n: int) -> np.ndarray:
    """c[n + 1], with |a| @ c at least the computed |I - M|_inf of every
    point a = [x, 1] and its step matrix M, from scaled = eps *
    step_tensor: c[k] is the norm |.|_inf of slice k of its first n*n
    columns, the coefficient of a[k] in eps*f'(x), so the triangle
    inequality bounds the exact norm by |a| @ c. The product, the 1 the
    diagonal recovers, I minus the product and the row sums round the
    computed norm up by at most (2n + 2) u relative and (n + 2) u absolute
    to first order, u the unit roundoff, and the bound's own sums round it
    down by at most (2n + 2) u relative. So each c[k] is raised by 4 (n + 2)
    machine epsilons, 8 (n + 2) u, relative, and c[n], whose a[n] is 1, by
    2 (n + 2) machine epsilons absolute: at least twice what the rounding
    needs, underflow included while |a| @ c stays in range."""
    c = np.abs(scaled[:, : n * n]).reshape(n + 1, n, n).sum(-1).max(-1)
    unit = np.finfo(float).eps
    c *= 1.0 + 4 * (n + 2) * unit
    c[n] += 2 * (n + 2) * unit
    return c


def _exact_norms(mats: np.ndarray) -> np.ndarray:
    """|eps*f'(x)|_inf of a stack of step matrices mats[P, n, n], from I
    minus them, one row sum each; mats, the caller's own copy, is
    overwritten by the absolute values of eps*f'(x)."""
    jacs = np.subtract(_eye(mats.shape[-1]), mats, out=mats)
    return np.abs(jacs, out=jacs).sum(-1).max(-1)


def _denominators(points: np.ndarray, mats: np.ndarray, bounds: np.ndarray, delta: bool) -> tuple:
    """The pole decision's inputs for a block's stepped points[block, B,
    n + 1], from the step matrices mats[block, B, n, n] the loop built them
    from and bounds[block, B] on their |eps*f'(x)|_inf, each flat in
    step-major order: the denominators det(I - eps*f'(x)), the rows whose
    decision the bounds leave open, ascending, and the exact norms of
    those rows. With delta every row takes its det; without it only the
    rows whose bound fails the clearance (see the module docstring) do,
    and the others keep a nan det. A row that took its det is open unless
    its n-th root of |det| clears the root of its threshold at its bound;
    a nan det or bound leaves it open. Every stepped point passes through
    here once, in the block it is stepped in. The points are not read:
    they name the rows for the tests' wrappers of this call."""
    n = mats.shape[-1]
    mats, bounds = mats.reshape(-1, n, n), bounds.reshape(-1)
    # the n-th roots of the thresholds at the bounds, raised by POLE_MARGIN
    clear = (bounds + 1.0) * (SINGULAR_DET_FACTOR * POLE_MARGIN) ** (1.0 / n)
    if delta:
        det, taken = np.linalg.det(mats), slice(None)
    else:
        det, taken = np.full(bounds.shape, np.nan), np.flatnonzero(~(1.0 - bounds >= clear))
        if not len(taken):
            return det, taken, bounds[taken]
        det[taken] = np.linalg.det(mats[taken])
    root = np.abs(det[taken])
    root **= 1.0 / n
    rows = np.flatnonzero(~(root >= clear[taken]))
    rows = rows if delta else taken[rows]
    return det, rows, _exact_norms(mats[rows])


def delta(field: QuadraticVectorField, x: np.ndarray, eps: float) -> float:
    """det(I - eps*f'(x)), the denominator polynomial of the Kahan map: the
    denominator of the step from x, on a pole or off it."""
    return kahan_orbit(field, _states(field, x, eps, one=True), eps, 1).delta.item(0)


def _is_real(value) -> bool:
    """A Python or numpy int or float, not a bool, that float() takes
    without overflow and that is finite: on JSON values, a strict JSON
    number."""
    number = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


def _real(value, name: str) -> float:
    """value as a float; a ValueError names `name` unless _is_real(value)."""
    if not _is_real(value):
        raise ValueError(f"{name} must be one finite real number, got {value!r}")
    return float(value)


def _reals(value, name: str, shape: tuple = None, finite: bool = True) -> np.ndarray:
    """value as a read-only float copy. A ValueError names `name` unless it
    is an array of ints or floats (not bools, strings or objects; a list
    or tuple that numpy would promote is scanned for bools), of `shape`
    when one is given, and, with `finite`, names its first non-finite
    entry. In `shape` None is an axis of any length >= 1, and a leading ...
    any number of leading axes."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nested list
        arr = None
    if (
        arr is None
        or arr.dtype.kind not in "iuf"
        or isinstance(value, (list, tuple))
        and any(isinstance(v, (bool, np.bool_)) for v in np.array(value, dtype=object).flat)
    ):
        raise ValueError(f"{name} must be an array of real numbers, got {value!r}")
    if shape is not None:
        lead = shape[:1] == (...,)
        want = shape[lead:]
        got = arr.shape[arr.ndim - len(want) :] if lead else arr.shape
        if len(got) != len(want) or not all(g == w or w is None and g > 0 for g, w in zip(got, want)):
            text = str(shape).replace("None", "n").replace("Ellipsis", "...")
            raise ValueError(f"{name} must have shape {text}, got shape {arr.shape}")
    arr = arr.astype(float)
    if finite and not np.isfinite(arr).all():
        index = np.unravel_index(np.argmin(np.isfinite(arr)), arr.shape)
        raise ValueError(f"{name} has a non-finite entry {name}[{', '.join(map(str, index))}] = {arr[index]}")
    arr.setflags(write=False)
    return arr


def _states(field: QuadraticVectorField, x, eps, one: bool = False, name: str = "x") -> np.ndarray:
    """x as a read-only float stack of states [B, n] for a step of size
    eps, or, with one, a state of shape (n,) as the stack of one. A
    ValueError names eps unless it is one finite real number, and `name`
    unless x is an array of real numbers (_reals) of the shape asked for,
    with its shape as passed; x may hold nan."""
    _real(eps, "eps")
    n = field.dim
    x = _reals(x, name, (n,) if one else None, finite=False)
    if one:
        return x[None]
    if x.ndim != 2 or x.shape[1] != n:
        raise ValueError(f"{name} must be a stack of states of shape (B, {n}), got shape {x.shape}")
    return x


def _is_index(value) -> bool:
    """An int or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class KahanBatch(NamedTuple):
    """Kahan steps from a stack of states x[B, n]: the next states and the
    denominators det(I - eps*f'(x)), one row per state, with the mask of
    the rows that sit on a pole (their next state is nan) and, at those
    rows alone, the threshold their |det| fell below. An orbit from
    kahan_orbit puts a step axis first, [steps, B, ...]; one step of one
    state, from kahan_step, has no axis."""

    next: np.ndarray
    delta: np.ndarray
    pole: np.ndarray
    threshold: np.ndarray

    def pole_error(self, i) -> SingularStepError:
        """The SingularStepError kahan_step raises at pole entry i (a row, or
        a (step, row) pair), not raised."""
        return SingularStepError(
            f"|det(I - eps*f'(x))| = {abs(self.delta[i]):.3e} below threshold {self.threshold[i]:.3e}"
        )

    def ends(self) -> np.ndarray:
        """Per row of an orbit: the entry of its first pole, or the number
        of entries when it meets none."""
        return (~np.logical_or.accumulate(self.pole, axis=0)).sum(axis=0)


def kahan_orbit(
    field: QuadraticVectorField,
    x: np.ndarray,
    eps: float,
    steps: int,
    first: KahanBatch = None,
    delta: bool = True,
) -> KahanBatch:
    """The orbits of the rows of x[B, n]: a KahanBatch of `steps` entries,
    step axis first, whose entry k is the step from point k (point 0 is x,
    point k + 1 is next[k]). first, when given, holds the steps from x,
    which are then not taken again. A row stops at its first pole (see the
    module docstring). With delta=False the denominators are taken only
    where the pole decision needs them, at the points whose norm bound
    fails the clearance, and are nan elsewhere; the points, poles and
    thresholds are unchanged (see the module docstring).

    The rows still off a pole step DECIDE_STEPS at a time: each step takes
    one product of [x, 1] with eps * field.step_tensor, folded so that it
    gives I - eps*f'(x) and the matrix whose product with [x, 1] is
    2*eps*f(x), and solves (I - eps*f'(x)) (x~ - x) = 2*eps*f(x) by LU with
    partial pivoting, and nothing else. Then |[x, 1]| @ c, c the norms of
    the tensor's slices with a rounding margin, read once an orbit, bounds
    |eps*f'(x)|_inf at every stepped point of the block, and the block's
    poles are decided from the bounds, the matrices' dets and, where those
    leave it open, exact norms. A row's steps past its first pole are
    dropped.

    x must have shape (B, field.dim), eps be one finite real number and
    steps an integer >= 0; a ValueError names any other.
    """
    x = _states(field, x, eps)
    if not _is_index(steps) or steps < 0:
        raise ValueError(f"steps must be an integer >= 0, got {steps!r}")
    count, n = x.shape
    orbit = KahanBatch(
        np.full((steps, count, n), np.nan),
        np.full((steps, count), np.nan),
        np.zeros((steps, count), dtype=bool),
        np.full((steps, count), np.nan),
    )
    # the rows off a pole (all until one is met), their points, and the buffers' row count
    live, point, k, live_count = slice(None), x, 0, 0
    if first is not None and steps:
        orbit.next[0], orbit.delta[0], orbit.pole[0] = first[:3]
        orbit.threshold[0, first.pole] = first.threshold[first.pole]
        if first.pole.any():
            live = np.flatnonzero(~first.pole)
        point, k = first.next[live], 1
    # a denominator past the float range is data, det returns it as +-inf,
    # and a row stepped past its pole may be singular: its solve gives nan
    # or inf, which the block's pole decision drops
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # folded so that a @ tensor starts with I - eps*f'(x), after the
        # bounds on |eps*f'(x)|_inf are read from its slices
        tensor, eye, solve1 = eps * field.step_tensor, _eye(n), _umath_linalg.solve1
        norm_bounds = _norm_bounds(tensor, n)
        tensor[:, : n * n] *= -1.0
        tensor[n, : n * n] += eye.reshape(-1)
        while k < steps and len(point):
            block = min(DECIDE_STEPS, steps - k)
            if len(point) != live_count:
                # points [x, 1], products and right-hand side for as long as the
                # live rows hold; the solve writes into the next point's row
                live_count = len(point)
                points = np.ones((block + 1, live_count, n + 1))
                xs = points[..., :n]
                products = np.empty((block, live_count, tensor.shape[1]))
                mats = products[..., : n * n].reshape(block, live_count, n, n)
                rhs_mats = products[..., n * n :].reshape(block, live_count, n, n + 1)
                rhs = np.empty((live_count, n))
                views = points, xs, xs[1:], products, mats, rhs_mats
                vecmat, matvec = np.vecmat, np.matvec
                if live_count == 1:
                    # one row steps its 1-D views with ndarray.dot: the dgemv vecmat
                    # and matvec call, at a third of their cost (no Python dispatcher)
                    views, rhs = [view[:, 0] for view in views], rhs[0]
                    vecmat = matvec = np.ndarray.dot
                step_views = list(zip(*views))
            xs[0] = point
            for a, x, x_next, product, mat, rhs_mat in step_views[:block]:
                vecmat(a, tensor, product)
                matvec(rhs_mat, a, rhs)
                solve1(mat, rhs, x_next)
                np.add(x, x_next, x_next)
            bounds = np.abs(points[:block]) @ norm_bounds
            det, open_rows, norms = _denominators(points[:block], mats[:block], bounds, delta)
            poles, thresholds = _poles(det[open_rows], norms, n) if len(open_rows) else ((), ())
            orbit.next[k : k + block, live] = xs[1 : block + 1]
            orbit.delta[k : k + block, live] = det.reshape(block, -1)
            point = xs[block]
            if poles:
                # each row's first pole in the block, in step-major order
                ended = {}
                for i, threshold in zip(open_rows[poles].tolist(), thresholds):
                    ended.setdefault(i % len(point), (k + i // len(point), threshold))
                rows = np.arange(count)[live]
                for r, (at, threshold) in ended.items():
                    orbit.next[at : k + block, rows[r]] = np.nan
                    orbit.delta[at + 1 : k + block, rows[r]] = np.nan
                    orbit.pole[at, rows[r]] = True
                    orbit.threshold[at, rows[r]] = threshold
                live = np.delete(rows, list(ended))
                point = np.delete(point, list(ended), 0)
            k += block
    return orbit


def kahan_step(field: QuadraticVectorField, x: np.ndarray, eps: float) -> KahanBatch:
    """Advance one state x by one Kahan step of size 2*eps: entry (0, 0) of
    the one-step orbit of x, its next state and delta. Raises
    SingularStepError at a pole of the map."""
    orbit = kahan_orbit(field, _states(field, x, eps, one=True), eps, 1)
    if orbit.pole[0, 0]:
        raise orbit.pole_error((0, 0))
    return KahanBatch(*(column[0, 0] for column in orbit))


def map_jacobian(field: QuadraticVectorField, x: np.ndarray, eps: float, x_next: np.ndarray) -> np.ndarray:
    """Jacobian of the Kahan map at x, (I - eps*f'(x))^{-1} (I + eps*f'(x~)),
    given its successor x~ of the same shape [..., n]. It solves with the
    gufunc numpy.linalg.solve dispatches to, under the step's error state:
    a row whose I - eps*f'(x) is singular is nan instead of raising, and
    every other row has numpy.linalg.solve's bits. hkbasis's tangent
    orbits call it; its det, det(I + eps*f'(x~)) / det(I - eps*f'(x)), is
    what verify's measure check takes in that closed form instead."""
    _real(eps, "eps")
    x = _reals(x, "x", (..., field.dim), finite=False)
    jac = jacobian(field, np.stack([x, _reals(x_next, "x_next", x.shape, finite=False)]))
    eye = _eye(field.dim)
    mat, rhs = eye - eps * jac[0], eye + eps * jac[1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _umath_linalg.solve(mat, rhs, signature="dd->d")


def jacobian(field: QuadraticVectorField, x: np.ndarray) -> np.ndarray:
    """f'(x) = 2 Q x + B, the Jacobian of the field, at one state or a
    stack x[..., n]: the first n*n columns of [x, 1] @ step_tensor,
    row-major. np.vecmat gives each row the same bits in a stack of any
    size. x may hold nan, as the successor of a pole does."""
    n = field.dim
    x = _reals(x, "x", (..., n), finite=False)
    a = np.concatenate([x, np.ones((*x.shape[:-1], 1))], axis=-1)
    return np.vecmat(a, field.step_tensor[:, : n * n]).reshape(*x.shape, n)
