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

The step is written once, for one state or a stack x[..., n], with stacked
contractions, determinants and solves.  kahan_step_batch steps a stack
x[B, n]; every row's numbers are those kahan_step gives for that state
alone, bit for bit.  A row whose |det(I - eps*f'(x))| falls below a
scale-aware threshold sits on a pole: the batch flags it in a per-row mask,
leaves its next state nan and steps the other rows, where kahan_step raises
SingularStepError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

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
    # B x as a column product: for a stack this rounds as the one-state B @ x
    # does, which x @ B.T and einsum do not
    return (
        np.einsum("ijk,...j,...k->...i", field.quad, x, x)
        + (field.lin @ x[..., None])[..., 0]
        + field.const
    )


def polarize_eval(field: QuadraticVectorField, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Symmetric bilinear extension Q(x, y) + B (x + y)/2 + c, for one pair
    of states or stacks x[..., n], y[..., n].

    Q(x, y) = (Q(x+y) - Q(x) - Q(y)) / 2; with a symmetric coefficient
    tensor this is the plain bilinear contraction, which is what is
    evaluated (no cancellation).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (
        np.einsum("ijk,...j,...k->...i", field.quad, x, y)
        + 0.5 * (field.lin @ (x + y)[..., None])[..., 0]
        + field.const
    )


def jacobian_field(field: QuadraticVectorField, x: np.ndarray) -> np.ndarray:
    """Jacobian of the continuous field: f'(x)[i,j] = 2 sum_k quad[i,j,k] x_k + lin[i,j],
    for one state or a stack x[..., n]."""
    x = np.asarray(x, dtype=float)
    return 2.0 * np.einsum("ijk,...k->...ij", field.quad, x) + field.lin


@lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _step_matrix(field: QuadraticVectorField, x: np.ndarray, eps: float):
    """I - eps*f'(x), its determinant and the inf-norm of eps*f'(x), for
    one state or a stack x[..., n]."""
    scaled = eps * jacobian_field(field, x)
    mat = _eye(field.dim) - scaled
    return mat, np.linalg.det(mat), np.abs(scaled).sum(axis=-1).max(axis=-1)


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


def _regular_steps(field: QuadraticVectorField, x: np.ndarray, mat: np.ndarray, eps: float):
    """Next states and residuals for one state or a stack off the poles."""
    x_next = x + np.linalg.solve(mat, 2.0 * eps * evaluate_field(field, x)[..., None])[..., 0]
    defect = x_next - x - 2.0 * eps * polarize_eval(field, x, x_next)
    return x_next, np.abs(defect).max(axis=-1)


def delta(field: QuadraticVectorField, x: np.ndarray, eps: float) -> float:
    """det(I - eps*f'(x)), the denominator polynomial of the Kahan map."""
    return float(np.linalg.det(_eye(field.dim) - eps * jacobian_field(field, x)))


class KahanBatch(NamedTuple):
    """Kahan steps from a stack of states x[B, n]: the next states, the
    denominators det(I - eps*f'(x)) and the residuals, one row per state,
    with the mask of the rows that sit on a pole (their next state and
    residual are nan) and the threshold each row's |det| was held against."""

    next: np.ndarray
    delta: np.ndarray
    residual: np.ndarray
    pole: np.ndarray
    threshold: np.ndarray

    def row(self, i: int):
        """Row i as a KahanStepResult or, on a pole, the SingularStepError
        that kahan_step raises there (returned, not raised)."""
        if self.pole[i]:
            return _pole_error(self.delta[i], self.threshold[i])
        return KahanStepResult(self.next[i], float(self.delta[i]), float(self.residual[i]))


def kahan_step_batch(field: QuadraticVectorField, x: np.ndarray, eps: float) -> KahanBatch:
    """Advance every row of x[B, n] by one Kahan step of size 2*eps (time
    step 2*eps of the flow).

    Each row solves (I - eps*f'(x)) (x~ - x) = 2*eps*f(x) by LU with partial
    pivoting and reports the defect of the polarized defining equation. A
    row's numbers are those kahan_step gives for that state alone. A row
    whose |det| is below a scale-aware threshold sits on a pole of the map:
    it is flagged in the mask, never raised, and the other rows step as
    usual.
    """
    x = np.asarray(x, dtype=float)
    mat, det, norms = _step_matrix(field, x, eps)
    threshold = np.array([_pole_threshold(v, field.dim) for v in norms.tolist()])
    pole = np.abs(det) < threshold
    if pole.any():
        # solve the regular rows only: one singular matrix fails a stacked solve
        live = ~pole
        x_next = np.full_like(x, np.nan)
        residual = np.full(x.shape[0], np.nan)
        x_next[live], residual[live] = _regular_steps(field, x[live], mat[live], eps)
    else:
        x_next, residual = _regular_steps(field, x, mat, eps)
    return KahanBatch(x_next, det, residual, pole, threshold)


def kahan_step(field: QuadraticVectorField, x: np.ndarray, eps: float) -> KahanStepResult:
    """Advance x by one Kahan step of size 2*eps: the step of
    kahan_step_batch on one state, taken without the stack axis, whose
    array bookkeeping costs a single step more than the step saves. Raises
    SingularStepError at a pole of the map."""
    x = np.asarray(x, dtype=float)
    mat, det, norm = _step_matrix(field, x, eps)
    det, threshold = float(det), _pole_threshold(float(norm), field.dim)
    if abs(det) < threshold:
        raise _pole_error(det, threshold)
    x_next, residual = _regular_steps(field, x, mat, eps)
    return KahanStepResult(x_next, det, float(residual))


def map_jacobian(field: QuadraticVectorField, x: np.ndarray, eps: float, x_next=None) -> np.ndarray:
    """Jacobian of the Kahan map, (I - eps*f'(x))^{-1} (I + eps*f'(x~)).

    x and its successor x~ may be stacks [..., n]; x~ is stepped from x (one
    state) when not given.
    """
    x = np.asarray(x, dtype=float)
    if x_next is None:
        x_next = kahan_step(field, x, eps).next
    eye = _eye(field.dim)
    return np.linalg.solve(
        eye - eps * jacobian_field(field, x),
        eye + eps * jacobian_field(field, x_next),
    )
