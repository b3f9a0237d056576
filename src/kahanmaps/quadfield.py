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

The field keeps the coefficients of both in one read-only step_tensor, and
a step is five numpy calls and nothing else: the product a @ (eps *
step_tensor), a row holding eps*f'(x) and the n x (n + 1) matrix
[eps*(f'(x) + B) | 2*eps*c]; I - eps*f'(x) subtracted from it; that
matrix times a, the right-hand side; the solve, into the next point's
row; and the add that completes it there.  Each block of steps builds
its row views once, and every call writes into the block's buffers.  On
6 x 6 matrices each call's 1-3 us of dispatch is most of the step's
cost.  On a stack the products are np.vecmat and np.matvec, not matmul:
matmul hands a stack to BLAS gemm, which rounds a row differently from
the same row alone, while vecmat and matvec hand each row to BLAS dgemv.
A lone row steps on its 1-D views with ndarray.dot, np.dot's kernel
without its Python dispatcher, which calls the same dgemv at about a
third of the dispatch cost (0.6 us a call against 1.7 us at n = 6).  So
a row has the same bits alone or in a stack of any size.  The step
tensor is the package's one source of f'(x): map_jacobian reads it from
the same tensor, unscaled.

Its loop carries only what the next point depends on; nothing is
evaluated after it.  The defining equation above is the definition of
the map, and the increment form is how it is solved.  A state whose
|det(I - eps*f'(x))| falls below a scale-aware threshold sits on a pole:
its row stops there, that entry keeps its denominator and threshold, and
every later entry of the row is nan.  The rows step DECIDE_STEPS steps at
a time into the block's buffers of points, products and matrices; then
one call reads the block's stepped points, their eps*f'(x) and their
matrices: one det of the matrices gives the denominators and the
eps*f'(x), taken in place, give the norms.  Every stepped point passes
through that call once.  One pass then decides the poles; a row's steps
past its first pole in the block, at most DECIDE_STEPS - 1, are dropped.
The products, the solve and det give each row the same bits in a stack
of any size, so the block's denominators and decisions are those of the
steps one at a time.  Every step is a KahanBatch: kahan_step_batch is the
one-step orbit of a stack without its step axis, and kahan_step entry
(0, 0) of the one-step orbit of one state, which raises SingularStepError
at a pole; a state gets the same numbers from all three, bit for bit.
delta is the denominator of that one-step orbit.  Whether a pole at the
first step of an orbit is an error is for the caller to say.

The callers that never read the denominators, verify's conservation
orbits and backward reversibility steps and hkbasis's iterate_orbit and
Wronskian ratio orbits, pass kahan_orbit delta=False.  Then the det is
taken only at the points whose nu = |eps*f'(x)|_inf is above 1/2 or not
finite; every other point keeps a nan denominator and is not a pole.
That decision is the full one: every eigenvalue of eps*f'(x) lies within
nu of 0, so for nu <= 1/2 every eigenvalue of I - eps*f'(x) lies within
1/2 of 1 and |det| >= 2^-n; the matrix's condition number is at most 3,
so the computed det is too.
The threshold is 1e-13 (1 + nu)^n <= 1e-13 1.5^n, 1.2e-12 at n = 6, which
2^-n clears while 3^n < 1e13, by 10 decades at n = 6; a larger n takes
every det.

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

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "SingularStepError",
    "QuadraticVectorField",
    "KahanBatch",
    "delta",
    "kahan_step",
    "kahan_step_batch",
    "kahan_orbit",
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
# costs about 8-11 us a step at any block from 16 to 256 steps, 16-20 us at
# 4 and 43-53 us at 1 (process CPU time, median of 7, over three runs on a
# 2-core x86-64 VM under shared load).
DECIDE_STEPS = 64


class SingularStepError(RuntimeError):
    """Raised when the step matrix I - eps*f'(x) is numerically singular."""


@dataclass(frozen=True, eq=False)
class QuadraticVectorField:
    """Coefficient arrays of a quadratic vector field on R^n.

    quad: (n, n, n), symmetric in the last two axes
    lin: (n, n)
    const: (n,)

    All entries must be finite; symmetry and shapes are validated on
    construction and the arrays are frozen read-only. Construction also
    builds step_tensor, (n + 1, n*n + n*(n + 1)), read-only: for a = [x, 1],
    a @ step_tensor holds f'(x) = 2 Q x + B row-major, then the n x (n + 1)
    matrix [f'(x) + B | 2c] row-major, whose product with a is 2 f(x).
    """

    quad: np.ndarray
    lin: np.ndarray
    const: np.ndarray
    step_tensor: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        const = np.array(self.const, dtype=float)
        if const.ndim != 1:
            raise ValueError("const must be a one-dimensional array")
        n = const.shape[0]
        quad = np.array(self.quad, dtype=float)
        lin = np.array(self.lin, dtype=float)
        if quad.shape != (n, n, n):
            raise ValueError(f"quad must have shape {(n, n, n)}, got {quad.shape}")
        if lin.shape != (n, n):
            raise ValueError(f"lin must have shape {(n, n)}, got {lin.shape}")
        for name, arr in (("quad", quad), ("lin", lin), ("const", const)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")
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
        for name, arr in (("quad", quad), ("lin", lin), ("const", const), ("step_tensor", step_tensor)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
    with the matrix norm, and those thresholds, as lists. One array
    comparison, in n-th roots so that nothing overflows, clears every row
    whose |det| passes its threshold by the relative margin POLE_MARGIN;
    only the rows it leaves take their thresholds, from libm's pow as
    np.float_power, inf where the power overflows."""
    root = np.abs(det)
    root **= 1.0 / n
    bound = norms + 1.0
    bound *= (SINGULAR_DET_FACTOR * POLE_MARGIN) ** (1.0 / n)
    near = np.less(root, bound).nonzero()[0]
    if not len(near):
        return [], []
    with np.errstate(over="ignore"):
        thresholds = SINGULAR_DET_FACTOR * np.float_power(norms[near] + 1.0, float(n))
    pole = np.abs(det[near]) < thresholds
    return near[pole].tolist(), thresholds[pole].tolist()


def _denominators(points: np.ndarray, jacs: np.ndarray, mats: np.ndarray, every_det: bool) -> tuple:
    """The denominators det(I - eps*f'(x)) and norms |eps*f'(x)|_inf of a
    block's stepped points[block, B, n + 1], read from the eps*f'(x),
    jacs[block, B, n, n], and the step matrices mats[block, B, n, n] the
    loop built, each flat in step-major order; jacs, which nothing else
    reads, is overwritten by its absolute values. With every_det False, the
    det is taken only where the norm is above 1/2 or not finite and is nan
    elsewhere. Every stepped point passes through here once, in the block
    it is stepped in. The points are not read here: they name the rows for
    a wrapper of this call, as the test suite's pole placement and step
    counts are."""
    n = mats.shape[-1]
    norms = np.abs(jacs, out=jacs).sum(-1).max(-1).reshape(-1)
    mats = mats.reshape(-1, n, n)
    if every_det:
        return np.linalg.det(mats), norms
    det = np.full(norms.shape, np.nan)
    near = ~(norms <= 0.5)
    if near.any():
        det[near] = np.linalg.det(mats[near])
    return det, norms


def delta(field: QuadraticVectorField, x: np.ndarray, eps: float) -> float:
    """det(I - eps*f'(x)), the denominator polynomial of the Kahan map: the
    denominator of the step from x, on a pole or off it."""
    return kahan_orbit(field, np.asarray(x, dtype=float)[None], eps, 1).delta.item(0)


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
    where the pole decision needs them, at the points whose
    |eps*f'(x)|_inf is above 1/2 or not finite, and are nan elsewhere; the
    points, poles and thresholds are unchanged (see the module docstring).

    The rows still off a pole step DECIDE_STEPS at a time: each step takes
    one product of [x, 1] with eps * field.step_tensor, which gives
    eps*f'(x) and the matrix whose product with [x, 1] is 2*eps*f(x), and
    solves (I - eps*f'(x)) (x~ - x) = 2*eps*f(x) by LU with partial
    pivoting, and nothing else. Then the matrices and eps*f'(x) the block
    built give the denominators and norms, and one pole decision reads
    them all; a row's steps past its first pole are dropped.
    """
    x = np.asarray(x, dtype=float)
    count, n = x.shape
    orbit = KahanBatch(
        np.full((steps, count, n), np.nan),
        np.full((steps, count), np.nan),
        np.zeros((steps, count), dtype=bool),
        np.full((steps, count), np.nan),
    )
    # the rows off a pole (all of them until one is met) and their points
    live, point, k = slice(None), x, 0
    # below |eps*f'(x)|_inf = 1/2, |det| >= 2^-n clears the threshold while 3^n < 1e13
    every_det = delta or 3.0**n * SINGULAR_DET_FACTOR >= 1.0
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
        eps_tensor, eye, solve1 = eps * field.step_tensor, _eye(n), _umath_linalg.solve1
        while k < steps and len(point):
            block, live_count = min(DECIDE_STEPS, steps - k), len(point)
            # the block's augmented points [x, 1], step products and matrices,
            # and scratch for a step's right-hand side; its increment is
            # solved into the next point's row, which the add then completes
            points = np.ones((block + 1, live_count, n + 1))
            xs = points[..., :n]
            xs[0] = point
            products = np.empty((block, live_count, eps_tensor.shape[1]))
            mats = np.empty((block, live_count, n, n))
            jacs = products[..., : n * n].reshape(block, live_count, n, n)
            rhs_mats = products[..., n * n :].reshape(block, live_count, n, n + 1)
            rhs = np.empty((live_count, n))
            views = points, xs, xs[1:], products, jacs, mats, rhs_mats
            if live_count == 1:
                # one row steps on its 1-D views with ndarray.dot, the BLAS
                # dgemv that vecmat and matvec call row by row, at a third of
                # their cost; unlike np.dot it calls no Python dispatcher
                views, rhs = [view[:, 0] for view in views], rhs[0]
                vecmat = matvec = np.ndarray.dot
            else:
                vecmat, matvec = np.vecmat, np.matvec
            for a, x, x_next, product, jac, mat, rhs_mat in zip(*views):
                vecmat(a, eps_tensor, product)
                np.subtract(eye, jac, mat)
                matvec(rhs_mat, a, rhs)
                solve1(mat, rhs, x_next)
                np.add(x, x_next, x_next)
            det, norms = _denominators(points[:-1], jacs, mats, every_det)
            poles, thresholds = _poles(det, norms, n)
            orbit.next[k : k + block, live] = xs[1:]
            orbit.delta[k : k + block, live] = det.reshape(block, -1)
            point = xs[-1]
            if poles:
                # each row's first pole in the block, in step-major order
                ended = {}
                for i, threshold in zip(poles, thresholds):
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


def kahan_step_batch(field: QuadraticVectorField, x: np.ndarray, eps: float) -> KahanBatch:
    """Advance every row of x[B, n] by one Kahan step of size 2*eps (time
    step 2*eps of the flow): the one-step orbit of x, without its step
    axis. A row on a pole is flagged in the mask, never raised, and the
    other rows step as usual."""
    return KahanBatch(*(column[0] for column in kahan_orbit(field, x, eps, 1)))


def kahan_step(field: QuadraticVectorField, x: np.ndarray, eps: float) -> KahanBatch:
    """Advance one state x by one Kahan step of size 2*eps: entry (0, 0) of
    the one-step orbit of x, its next state and delta. Raises
    SingularStepError at a pole of the map."""
    orbit = kahan_orbit(field, np.asarray(x, dtype=float)[None], eps, 1)
    if orbit.pole[0, 0]:
        raise orbit.pole_error((0, 0))
    return KahanBatch(*(column[0, 0] for column in orbit))


def map_jacobian(field: QuadraticVectorField, x: np.ndarray, eps: float, x_next: np.ndarray) -> np.ndarray:
    """Jacobian of the Kahan map at x, (I - eps*f'(x))^{-1} (I + eps*f'(x~)),
    given its successor x~; both may be stacks [..., n]. It solves with the
    gufunc numpy.linalg.solve dispatches to, under the step's error state:
    a row whose I - eps*f'(x) is singular is nan instead of raising, and
    every other row has numpy.linalg.solve's bits."""
    n = field.dim
    # f'(x) is the first n*n columns of [x, 1] @ step_tensor, row-major
    points = np.stack(np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(x_next, dtype=float)))
    a = np.concatenate([points, np.ones((*points.shape[:-1], 1))], axis=-1)
    jac = np.vecmat(a, field.step_tensor[:, : n * n]).reshape(*a.shape[:-1], n, n)
    eye = _eye(n)
    mat, rhs = eye - eps * jac[0], eye + eps * jac[1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _umath_linalg.solve(mat, rhs, signature="dd->d")
