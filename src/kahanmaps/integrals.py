"""Evaluation of the conserved quantities and preserved densities of the
catalog Kahan maps.

The formulas are entries of the catalog table (systems.KINDS): state-only
quantities at a point x, and bilinear quantities on the consecutive orbit
pair (x, x~), where x~ is one forward Kahan step. Every formula takes a
stack of states x[B, n] with their successors and returns one value per
row, with the rows where it is undefined marked instead of raised. A
KahanPair holds such a stack, takes its steps at most once (or is handed
the steps an orbit already holds), and evaluates every named quantity on
all rows in one call, as Rows; the designated coefficients times
Delta(x; eps) = det(I - eps f'(x)) are the preserved densities. KahanPair
is the one evaluation path. The one-state functions evaluate_named,
eval_I0, eval_density and denominator_witnesses are the stack of one: they
return row 0's value and raise that row's error.

The bilinear family is obtained from the state-only family by the polarization
substitution x_i x_j -> (x_i x~_j + x~_i x_j)/2, x_i -> (x_i + x~_i)/2
followed by eps^2 -> -eps^2 (the tests check this on I0 -> J0 and F -> Fhat).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np

from kahanmaps.quadfield import KahanBatch, _states, kahan_orbit
from kahanmaps.systems import (
    KINDS,
    DenominatorZeroError,
    SystemDescriptor,
    _div,
)

__all__ = [
    "DenominatorZeroError",
    "KahanPair",
    "Rows",
    "eval_I0",
    "eval_density",
    "evaluate_named",
    "denominator_witnesses",
]


class Rows(NamedTuple):
    """A quantity on every row of a stack.

    value: one value (or one vector) per row; a failing row's is unspecified
    failures: (rows mask, error) pairs in the order the one-state evaluation
      raises them; row i fails with error(i) of the first mask holding it
    """

    value: np.ndarray
    failures: tuple = ()

    @property
    def fail(self) -> np.ndarray:
        """The rows where the one-state evaluation raises."""
        out = np.zeros(self.value.shape[0], dtype=bool)
        for rows, _ in self.failures:
            out |= rows
        return out

    def item(self, i: int):
        """Row i's value (a float, or an array for a vector quantity); raises
        the error the one-state evaluation raises there."""
        for rows, error in self.failures:
            if rows[i]:
                raise error(i)
        value = self.value[i]
        return float(value) if np.ndim(value) == 0 else value


class KahanPair:
    """States x[B, n] and their Kahan successors x~, on which the named
    quantities of the system are evaluated: each quantity is one call over
    every row and returns Rows. Any other shape of x, an eps that is not
    one finite real number, or a step without one row per state is a
    ValueError that names it.

    The forward steps are taken at most once: pass them as step (a
    KahanBatch) when the caller already holds them, otherwise the first
    quantity that needs x~ takes them. A row on a pole fails in every
    quantity that needs x~. Vectors that several names share are computed
    once per pair.
    """

    def __init__(self, desc: SystemDescriptor, x, eps: float, step: KahanBatch = None):
        self.desc = desc
        self.params = desc.params
        self.x = _states(desc.field, x, eps)
        if step is not None and len(step.next) != len(self.x):
            raise ValueError(f"step must have as many rows as x, {len(self.x)}, got {len(step.next)}")
        self.eps = eps
        self._step = step
        self._parts: dict = {}
        self._failures: list = []
        self._scope = None

    @property
    def step(self) -> KahanBatch:
        """The forward steps, taken on first use."""
        if self._step is None:
            self._step = KahanBatch(*(column[0] for column in kahan_orbit(self.desc.field, self.x, self.eps, 1)))
        return self._step

    def _successors(self) -> KahanBatch:
        """The forward steps, marking the rows whose step is a pole."""
        batch = self.step
        self.fail(batch.pole, batch.pole_error)
        return batch

    @property
    def y(self) -> np.ndarray:
        """The successors x~[B, n]; marks the rows whose step is a pole."""
        return self._successors().next

    def fail(self, rows: np.ndarray, error: Callable) -> None:
        """Mark rows where the one-state formula raises error(i), after the
        failures already marked."""
        if self._scope is not None:
            rows = rows & self._scope
        if rows.any():
            self._failures.append((rows, error))

    @contextmanager
    def only(self, rows: np.ndarray):
        """Failures marked inside count on rows alone: the one-state formula
        evaluates this branch only there."""
        scope = self._scope
        self._scope = rows if scope is None else scope & rows
        try:
            yield
        finally:
            self._scope = scope

    def part(self, fn: Callable):
        """fn(self), computed once per pair; its failures are marked on
        every use. A raised exception is not kept."""
        if fn not in self._parts:
            outer, scope = self._failures, self._scope
            self._failures, self._scope = [], None
            try:
                self._parts[fn] = (fn(self), self._failures)
            finally:
                self._failures, self._scope = outer, scope
        value, failures = self._parts[fn]
        for rows, error in failures:
            self.fail(rows, error)
        return value

    def _rows(self, compute: Callable) -> Rows:
        """compute() and the failures it marks."""
        self._failures = []
        value = compute()
        return Rows(value, tuple(self._failures))

    def value(self, name: str) -> Rows:
        """A declared integral name, a coordinate name "m1".."p3", a ratio
        name like "c1/c0", or a density column "density_<name>"."""
        return self._rows(lambda: self._value(name))

    def _value(self, name: str) -> np.ndarray:
        if "/" in name:
            num, den = name.split("/", 1)
            return _div(self, self._value(num), self._value(den), name)
        if name.startswith("density_"):
            return self._density(name[len("density_"):])
        formula = KINDS[self.desc.kind].quantities.get(name)
        if formula is None:
            if any(name in spec.quantities for spec in KINDS.values()):
                raise ValueError(f"'{name}' is not defined for {self.desc.kind}")
            raise ValueError(f"unknown quantity name '{name}' for {self.desc.kind}")
        return formula(self)

    def _density(self, which: str) -> np.ndarray:
        if which not in self.desc.density_names:
            raise ValueError(
                f"'{which}' is not a declared density of {self.desc.kind}; have {self.desc.density_names}"
            )
        value = self._value(which)
        # a Delta past the float range is +-inf, and 0 * inf a nan value
        with np.errstate(invalid="ignore"):
            return value * self._successors().delta

    def coefficients(self, kind: str = "small_c") -> Rows:
        """Coefficient vectors of the system's null-space relations, one row
        per state.

        kind="small_c": state-only coefficients; Clebsch family returns
        (c1, c2, c3, c0), Kirchhoff (c1, c3), Lagrange (r, s).
        kind="big_C": bilinear coefficients on (x, x~); Clebsch family
        (C1, C2, C3, C0), Kirchhoff (C1, C3), Lagrange (R, S).
        """
        if kind not in ("small_c", "big_C"):
            raise ValueError(f"kind must be 'small_c' or 'big_C', got '{kind}'")
        names = KINDS[self.desc.kind].coefficients[kind == "big_C"]
        if not names:
            raise ValueError(f"coefficient vectors are not defined for {self.desc.kind}")
        return self._rows(lambda: np.stack([self._value(name) for name in names], axis=-1))

    def witnesses(self) -> tuple:
        """Magnitudes of every denominator the system's quantities divide by
        (see denominator_witnesses): Rows of one column per witness, and the
        mask of the entries each row has."""
        spec = KINDS.get(self.desc.kind)
        (values, has), failures = self._rows(
            lambda: spec.witnesses(self) if spec else (np.empty((self.x.shape[0], 0)), None)
        )
        if has is None:
            has = np.ones(values.shape, dtype=bool)
        return Rows(values, failures), has


def _one(desc: SystemDescriptor, x, eps: float) -> KahanPair:
    """The pair of one state x, as a stack of one."""
    return KahanPair(desc, _states(desc.field, x, eps, one=True), eps)


def evaluate_named(desc: SystemDescriptor, name: str, x, eps: float) -> float:
    """Evaluate one named quantity at one state x (see KahanPair.value);
    bilinear names take one forward step."""
    return _one(desc, x, eps).value(name).item(0)


def eval_density(desc: SystemDescriptor, x, eps: float, which: str) -> float:
    """Preserved density numerator at one state x: the named bilinear
    coefficient on (x, x~) times Delta(x; eps) (see KahanPair.value)."""
    return _one(desc, x, eps).value(f"density_{which}").item(0)


def eval_I0(desc: SystemDescriptor, x, eps: float) -> float:
    """The state-only conserved quantity of the map (coefficient ratio) at
    one state x."""
    return _one(desc, x, eps).value("I0").item(0)


def denominator_witnesses(desc: SystemDescriptor, x, eps: float) -> list:
    """Magnitudes of every denominator the system's quantities divide by at
    one state x.

    Used by the random-state rejection rule (draws must keep all of these
    finite and at or above 1e-6). Kinds outside the catalog have none.
    Raises SingularStepError when the map has a pole at x and a witness
    reads the step from x, as every catalog kind's do (a Lagrange state
    with |m3| below its floor aside); it does not redraw, as
    verify._draw_states does.
    """
    rows, has = _one(desc, x, eps).witnesses()
    return [float(v) for v in rows.item(0)[has[0]]]
