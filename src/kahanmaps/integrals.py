"""Evaluation of the conserved quantities and preserved densities of the
catalog Kahan maps.

The formulas are entries of the catalog table (systems.KINDS): state-only
quantities at a single point x, and bilinear quantities on the consecutive
orbit pair (x, x~), where x~ is one forward Kahan step. A KahanPair holds
x, takes that step at most once (or is handed the step an orbit already
holds), and evaluates every named quantity on it; the designated
coefficients times Delta(x; eps) = det(I - eps f'(x)) are the preserved
densities. KahanPair and evaluate_named are the one evaluation path; the
eval_* functions and denominator_witnesses are one-line views of it.

The bilinear family is obtained from the state-only family by the polarization
substitution x_i x_j -> (x_i x~_j + x~_i x_j)/2, x_i -> (x_i + x~_i)/2
followed by eps^2 -> -eps^2 (the tests check this on I0 -> J0 and F -> Fhat).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from kahanmaps.quadfield import KahanStepResult, SingularStepError, kahan_step
from kahanmaps.systems import (
    KINDS,
    DenominatorZeroError,
    SystemDescriptor,
    _div,
)

__all__ = [
    "DenominatorZeroError",
    "KahanPair",
    "eval_I0",
    "eval_J0",
    "eval_coeffs",
    "eval_density",
    "evaluate_named",
    "denominator_witnesses",
]


class KahanPair:
    """A state x and its Kahan successor x~, on which the named quantities of
    the system are evaluated.

    The forward step is taken at most once: pass it as step when the caller
    already holds it (a KahanStepResult, or the SingularStepError of a pole,
    as KahanBatch.row gives them), otherwise the first quantity that needs x~
    takes it. A pole there is kept and raised again by every quantity that
    needs x~. Vectors that several names share are computed once per pair.
    """

    def __init__(self, desc: SystemDescriptor, x, eps: float, step=None):
        self.desc = desc
        self.params = desc.params
        self.x = np.asarray(x, dtype=float)
        self.eps = eps
        self._step = step
        self._parts: dict = {}

    @property
    def step(self) -> KahanStepResult:
        """The forward step from x; raises SingularStepError at a pole."""
        if self._step is None:
            try:
                self._step = kahan_step(self.desc.field, self.x, self.eps)
            except SingularStepError as exc:
                self._step = exc
        if isinstance(self._step, SingularStepError):
            raise self._step
        return self._step

    @property
    def y(self) -> np.ndarray:
        return self.step.next

    def part(self, fn: Callable):
        """fn(self), computed once per pair; a failure is raised, not kept."""
        if fn not in self._parts:
            self._parts[fn] = fn(self)
        return self._parts[fn]

    def value(self, name: str) -> float:
        """A declared integral name, a coordinate name "m1".."p3", a ratio
        name like "c1/c0", or a density column "density_<name>"."""
        if "/" in name:
            num, den = name.split("/", 1)
            return _div(self.value(num), self.value(den), name)
        if name.startswith("density_"):
            return self.density(name[len("density_"):])
        formula = KINDS[self.desc.kind].quantities.get(name)
        if formula is None:
            if any(name in spec.quantities for spec in KINDS.values()):
                raise ValueError(f"'{name}' is not defined for {self.desc.kind}")
            raise ValueError(f"unknown quantity name '{name}' for {self.desc.kind}")
        return formula(self)

    def density(self, which: str) -> float:
        """Preserved density numerator: the named bilinear coefficient on
        (x, x~) times Delta(x; eps).

        The defining property, checked by the verification suites, is
        density(x~)/density(x) = det dPhi(x) along orbits.
        """
        if which not in self.desc.density_names:
            raise ValueError(
                f"'{which}' is not a declared density of {self.desc.kind}; have {self.desc.density_names}"
            )
        return self.value(which) * self.step.delta

    def coefficients(self, kind: str = "small_c") -> np.ndarray:
        """Coefficient vector of the system's null-space relations.

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
        return np.array([self.value(name) for name in names])

    def witnesses(self) -> list:
        """Magnitudes of every denominator the system's quantities divide by
        at x (see denominator_witnesses)."""
        spec = KINDS.get(self.desc.kind)
        return spec.witnesses(self) if spec else []


def evaluate_named(desc: SystemDescriptor, name: str, x, eps: float) -> float:
    """Evaluate one named quantity at x (see KahanPair.value); bilinear names
    take one forward step."""
    return KahanPair(desc, x, eps).value(name)


def eval_density(desc: SystemDescriptor, x, eps: float, which: str) -> float:
    """Preserved density numerator at x (see KahanPair.density)."""
    return KahanPair(desc, x, eps).density(which)


def eval_I0(desc: SystemDescriptor, x, eps: float) -> float:
    """The state-only conserved quantity of the map (coefficient ratio)."""
    return evaluate_named(desc, "I0", x, eps)


def eval_J0(desc: SystemDescriptor, x, eps: float) -> float:
    """Bilinear conserved quantity on the pair (x, x~), x~ one forward step."""
    return evaluate_named(desc, "J0", x, eps)


def eval_coeffs(desc: SystemDescriptor, x, eps: float, kind: str = "small_c") -> np.ndarray:
    """Coefficient vector at x (see KahanPair.coefficients)."""
    return KahanPair(desc, x, eps).coefficients(kind)


def denominator_witnesses(desc: SystemDescriptor, x, eps: float) -> list:
    """Magnitudes of every denominator the system's quantities divide by at x.

    Used by the random-state rejection rule (draws must keep all of these
    finite and at or above 1e-6). Kinds outside the catalog have none.
    """
    return KahanPair(desc, x, eps).witnesses()
