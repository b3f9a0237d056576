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
Its loop carries only what the next point depends on: the step matrix, its
determinant and the pole decision, then the solve.  A state whose
|det(I - eps*f'(x))| falls below a scale-aware threshold sits on a pole:
its row stops there, that entry keeps its denominator and threshold, and
every later entry of the row is nan.  The residuals, which no later step
reads, are taken once per orbit, after the loop.  kahan_step_batch is the
one-step orbit of a stack and kahan_step the one-step orbit of one state,
which raises SingularStepError at a pole; a state gets the same numbers
from all three, bit for bit.  Whether a pole at the first step of an orbit
is an error is for the caller to say.

The determinant and the solve call LAPACK's det and solve kernels directly:
the gufuncs that numpy.linalg's det and solve dispatch to, the solve under
the error state numpy.linalg sets for it.  On the float64 square stacks the
step builds, numpy.linalg's wrapper (array conversion, shape checks, type
promotion, a no-op cast) changes nothing, so the bits are the same, and its
per-call cost, half or more of each call, is saved.  Likewise the field,
its polarization and its Jacobian call numpy's einsum kernel, c_einsum,
which np.einsum returns from without optimization, and add the other terms
in place on its fresh output, in the order the plain expression rounds
them.  A lone step takes about 21 us (best of 15 interleaved 1000-step
orbits, 2-core x86-64 VM).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy._core.multiarray import c_einsum
from numpy.linalg import LinAlgError, _umath_linalg

__all__ = [
    "SingularStepError",
    "QuadraticVectorField",
    "KahanStepResult",
    "KahanBatch",
    "evaluate_field",
    "polarize_eval",
    "jacobian_field",
    "delta",
    "kahan_step",
    "kahan_step_batch",
    "kahan_orbit",
    "map_jacobian",
]

# Pole detection: |det(I - eps*f'(x))| below this times a conditioning factor
# counts as singular rather than merely small.
SINGULAR_DET_FACTOR = 1e-13


class SingularStepError(RuntimeError):
    """Raised when the step matrix I - eps*f'(x) is numerically singular."""


@dataclass(frozen=True, eq=False)
class QuadraticVectorField:
    """Coefficient arrays of a quadratic vector field on R^n.

    quad: (n, n, n), symmetric in the last two axes
    lin: (n, n)
    const: (n,)

    All entries must be finite; symmetry and shapes are validated on
    construction and the arrays are frozen read-only.
    """

    quad: np.ndarray
    lin: np.ndarray
    const: np.ndarray

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
        for arr in (quad, lin, const):
            arr.setflags(write=False)
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "const", const)

    @property
    def dim(self) -> int:
        return self.const.shape[0]


class KahanStepResult(NamedTuple):
    """One Kahan step: the new state, det(I - eps*f'(x)), and the max-norm
    defect of the polarized defining equation at (x, x~)."""

    next: np.ndarray
    delta: float
    residual: float


def evaluate_field(field: QuadraticVectorField, x: np.ndarray) -> np.ndarray:
    """f(x) = Q(x) + B x + c, for one state or a stack x[..., n]."""
    x = np.asarray(x, dtype=float)
    out = c_einsum("ijk,...j,...k->...i", field.quad, x, x)
    # B x as a column product: for a stack this rounds as the one-state B @ x
    # does, which x @ B.T and einsum do not
    out += (field.lin @ x[..., None])[..., 0]
    out += field.const
    return out


def polarize_eval(field: QuadraticVectorField, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Symmetric bilinear extension Q(x, y) + B (x + y)/2 + c, for one pair
    of states or stacks x[..., n], y[..., n].

    Q(x, y) = (Q(x+y) - Q(x) - Q(y)) / 2; with a symmetric coefficient
    tensor this is the plain bilinear contraction, which is what is
    evaluated (no cancellation).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = c_einsum("ijk,...j,...k->...i", field.quad, x, y)
    linear = field.lin @ (x + y)[..., None]
    linear *= 0.5
    out += linear[..., 0]
    out += field.const
    return out


def jacobian_field(field: QuadraticVectorField, x: np.ndarray) -> np.ndarray:
    """Jacobian of the continuous field: f'(x)[i,j] = 2 sum_k quad[i,j,k] x_k + lin[i,j],
    for one state or a stack x[..., n]."""
    x = np.asarray(x, dtype=float)
    out = c_einsum("ijk,...k->...ij", field.quad, x)
    out *= 2.0
    out += field.lin
    return out


@lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _det(mat: np.ndarray) -> np.ndarray:
    """numpy.linalg's det of a float64 stack mat[..., n, n], without its wrapper."""
    return _umath_linalg.det(mat, signature="d->d")


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


# the error state numpy.linalg.solve runs its gufunc under
_solve_errstate = np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore")


@_solve_errstate
def _solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """numpy.linalg's solve of float64 stacks mat[..., n, n], rhs[..., n, k],
    without its wrapper; a singular matrix raises LinAlgError as it does."""
    return _umath_linalg.solve(mat, rhs, signature="dd->d")


@_solve_errstate
def _solve1(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """_solve for vector right-hand sides rhs[..., n]: the gufunc
    numpy.linalg.solve takes for a 1-D rhs, for any stack."""
    return _umath_linalg.solve1(mat, rhs, signature="dd->d")


def _step_matrix(field: QuadraticVectorField, x: np.ndarray, eps: float):
    """I - eps*f'(x), its determinant and the inf-norm of eps*f'(x), for
    one state or a stack x[..., n]."""
    scaled = jacobian_field(field, x)
    scaled *= eps
    mat = _eye(field.dim) - scaled
    # the ufunc reductions .sum and .max dispatch to, without their wrappers
    norms = np.maximum.reduce(np.add.reduce(np.abs(scaled), axis=-1), axis=-1)
    return mat, _det(mat), norms


def _pole_threshold(norm: float, n: int) -> float:
    # Scale-aware singularity threshold; the power n tracks how the
    # determinant magnitude grows with the matrix norm. It is a scalar
    # power per state, because the array power rounds differently.
    try:
        return SINGULAR_DET_FACTOR * (1.0 + norm) ** n
    except OverflowError:
        return math.inf


def _pole_error(det: float, threshold: float) -> SingularStepError:
    return SingularStepError(f"|det(I - eps*f'(x))| = {abs(det):.3e} below threshold {threshold:.3e}")


def delta(field: QuadraticVectorField, x: np.ndarray, eps: float) -> float:
    """det(I - eps*f'(x)), the denominator polynomial of the Kahan map."""
    return float(_det(_eye(field.dim) - eps * jacobian_field(field, x)))


class KahanBatch(NamedTuple):
    """Kahan steps from a stack of states x[B, n]: the next states, the
    denominators det(I - eps*f'(x)) and the residuals, one row per state,
    with the mask of the rows that sit on a pole (their next state and
    residual are nan) and, at those rows alone, the threshold their |det|
    fell below. An orbit from kahan_orbit puts a step axis first,
    [steps, B, ...]."""

    next: np.ndarray
    delta: np.ndarray
    residual: np.ndarray
    pole: np.ndarray
    threshold: np.ndarray

    def row(self, i):
        """Entry i (a row, or a (step, row) pair) as a KahanStepResult or, on
        a pole, the SingularStepError kahan_step raises there (not raised)."""
        if self.pole[i]:
            return _pole_error(self.delta[i], self.threshold[i])
        return KahanStepResult(self.next[i], float(self.delta[i]), float(self.residual[i]))

    def ends(self) -> np.ndarray:
        """Per row of an orbit: the entry of its first pole, or the number
        of entries when it meets none."""
        return (~np.logical_or.accumulate(self.pole, axis=0)).sum(axis=0)


def kahan_orbit(
    field: QuadraticVectorField, x: np.ndarray, eps: float, steps: int, first: KahanBatch = None
) -> KahanBatch:
    """The orbits of the rows of x[B, n]: a KahanBatch of `steps` entries,
    step axis first, whose entry k is the step from point k (point 0 is x,
    point k + 1 is next[k]). first, when given, holds the steps from x,
    which are then not taken again. A row stops at its first pole (see the
    module docstring).

    Each step solves (I - eps*f'(x)) (x~ - x) = 2*eps*f(x) by LU with
    partial pivoting for the rows still off a pole. The loop carries the
    denominator and the pole decision; the residuals of every entry are
    taken in one stacked evaluation after it.
    """
    x = np.asarray(x, dtype=float)
    count, n = x.shape
    # points[k] is point k of every row; next is its view from point 1 on
    points = np.full((steps + 1, count, n), np.nan)
    points[0] = x
    orbit = KahanBatch(
        points[1:],
        np.full((steps, count), np.nan),
        np.full((steps, count), np.nan),
        np.zeros((steps, count), dtype=bool),
        np.full((steps, count), np.nan),
    )
    # the rows off a pole (all of them until one is met) and their points
    live, point, start = slice(None), x, 0
    two_eps = 2.0 * eps
    if first is not None and steps:
        orbit.next[0], orbit.delta[0], orbit.residual[0], orbit.pole[0] = first[:4]
        orbit.threshold[0, first.pole] = first.threshold[first.pole]
        if first.pole.any():
            live = np.flatnonzero(~first.pole)
        point, start = first.next[live], 1
    for k in range(start, steps):
        if not len(point):
            break
        mat, det, norms = _step_matrix(field, point, eps)
        threshold = [_pole_threshold(v, n) for v in norms.tolist()]
        poles = [i for i, (d, t) in enumerate(zip(det.tolist(), threshold)) if abs(d) < t]
        orbit.delta[k, live] = det
        if poles:
            rows = np.arange(count)[live]
            orbit.pole[k, rows[poles]] = True
            orbit.threshold[k, rows[poles]] = [threshold[i] for i in poles]
            # solve the regular rows only: one singular matrix fails a stacked solve
            live, point, mat = np.delete(rows, poles), np.delete(point, poles, 0), np.delete(mat, poles, 0)
        rhs = evaluate_field(field, point)
        rhs *= two_eps
        step = _solve1(mat, rhs)
        point = orbit.next[k, live] = point + step
    if steps > start:
        # the max-norm defect of the polarized defining equation; pole
        # entries and those after them are nan in next, so in residual
        before, after = points[start:-1], points[start + 1 :]
        defect = after - before
        defect -= two_eps * polarize_eval(field, before, after)
        orbit.residual[start:] = np.abs(defect).max(axis=-1)
    return orbit


def kahan_step_batch(field: QuadraticVectorField, x: np.ndarray, eps: float) -> KahanBatch:
    """Advance every row of x[B, n] by one Kahan step of size 2*eps (time
    step 2*eps of the flow): the one-step orbit of x, without its step
    axis. A row on a pole is flagged in the mask, never raised, and the
    other rows step as usual."""
    return KahanBatch(*(column[0] for column in kahan_orbit(field, x, eps, 1)))


def kahan_step(field: QuadraticVectorField, x: np.ndarray, eps: float) -> KahanStepResult:
    """Advance one state x by one Kahan step of size 2*eps: the lone
    one-step orbit of x. Raises SingularStepError at a pole of the map."""
    step = kahan_orbit(field, np.asarray(x, dtype=float)[None], eps, 1).row((0, 0))
    if isinstance(step, SingularStepError):
        raise step
    return step


def map_jacobian(field: QuadraticVectorField, x: np.ndarray, eps: float, x_next=None) -> np.ndarray:
    """Jacobian of the Kahan map, (I - eps*f'(x))^{-1} (I + eps*f'(x~)).

    x and its successor x~ may be stacks [..., n]; x~ is stepped from x (one
    state) when not given.
    """
    x = np.asarray(x, dtype=float)
    if x_next is None:
        x_next = kahan_step(field, x, eps).next
    eye = _eye(field.dim)
    return _solve(
        eye - eps * jacobian_field(field, x),
        eye + eps * jacobian_field(field, x_next),
    )
