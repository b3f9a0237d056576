"""Evaluation of the conserved quantities and preserved densities of the
catalog Kahan maps.

The formulas are entries of the catalog table (systems.KINDS): state-only
quantities at a single point x, and bilinear quantities on the consecutive
orbit pair (x, x~), where x~ is one forward Kahan step. A KahanPair holds
x, takes that step at most once (or is handed the step an orbit already
holds), and evaluates every named quantity on it; the designated
coefficients times Delta(x; eps) = det(I - eps f'(x)) are the preserved
densities.

The bilinear family is obtained from the state-only family by the polarization
substitution x_i x_j -> (x_i x~_j + x~_i x_j)/2, x_i -> (x_i + x~_i)/2
followed by eps^2 -> -eps^2; polarize_integral implements exactly that for
user-supplied quadratic-fractional expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from kahanmaps.quadfield import KahanStepResult, SingularStepError, kahan_step
from kahanmaps.systems import (
    KINDS,
    DenominatorZeroError,
    FirstClebschParams,
    SystemDescriptor,
    _div,
    build_system,
)

__all__ = [
    "DenominatorZeroError",
    "IntegralSuiteResult",
    "KahanPair",
    "MeasureHypothesisReport",
    "QuadraticEpsPolynomial",
    "eval_g",
    "eval_G",
    "eval_I0",
    "eval_J0",
    "eval_coeffs",
    "eval_K",
    "eval_density",
    "eval_planar_F",
    "eval_suite",
    "evaluate_named",
    "polarize_integral",
    "measure_hypothesis_check",
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


def eval_g(desc: SystemDescriptor, x) -> np.ndarray:
    """Clebsch family: the state-only quadratic triple (g1, g2, g3)."""
    pair = KahanPair(desc, x, 0.0)
    return np.array([pair.value(name) for name in ("g1", "g2", "g3")])


def eval_G(desc: SystemDescriptor, x, x_next) -> np.ndarray:
    """Clebsch family: the bilinear triple (G1, G2, G3) on (x, x_next)."""
    # only the successor state is given; G needs neither eps nor Delta
    given = KahanStepResult(next=np.asarray(x_next, dtype=float), delta=math.nan, residual=math.nan)
    pair = KahanPair(desc, x, 0.0, given)
    return np.array([pair.value(name) for name in ("G1", "G2", "G3")])


def eval_coeffs(desc: SystemDescriptor, x, eps: float, kind: str = "small_c") -> np.ndarray:
    """Coefficient vector at x (see KahanPair.coefficients)."""
    return KahanPair(desc, x, eps).coefficients(kind)


@lru_cache(maxsize=32)
def _first_clebsch_system(omega: tuple) -> SystemDescriptor:
    return build_system("first_clebsch", FirstClebschParams(omega=omega))


def eval_K(x, eps: float, omega) -> float:
    """First special case only: K = sum_i (C_i/C_0) m_i p_i / c_0, a conserved
    quantity built from both coefficient families."""
    desc = _first_clebsch_system(tuple(float(w) for w in omega))
    return evaluate_named(desc, "K", x, eps)


@lru_cache(maxsize=32)
def _planar_system(params) -> SystemDescriptor:
    # PlanarFamilyParams hashes by identity, so this builds once per params object
    return build_system("planar_family", params)


def eval_planar_F(params, x, eps: float, variant: str = "F") -> float:
    """Planar family conserved quantities F (state-only) and Fhat (bilinear,
    one forward step). Accepts PlanarFamilyParams or the built descriptor."""
    if variant not in ("F", "Fhat"):
        raise ValueError(f"variant must be 'F' or 'Fhat', got '{variant}'")
    desc = params if isinstance(params, SystemDescriptor) else _planar_system(params)
    return evaluate_named(desc, variant, x, eps)


@dataclass(frozen=True)
class IntegralSuiteResult:
    """All named quantities of a system at one state, in declared order."""

    names: tuple
    values: tuple

    def as_dict(self) -> dict:
        return dict(zip(self.names, self.values))


def eval_suite(desc: SystemDescriptor, x, eps: float, include_densities: bool = True) -> IntegralSuiteResult:
    names = list(desc.integral_names)
    if include_densities:
        names += [f"density_{d}" for d in desc.density_names]
    pair = KahanPair(desc, x, eps)
    values = tuple(pair.value(name) for name in names)
    return IntegralSuiteResult(names=tuple(names), values=values)


def denominator_witnesses(desc: SystemDescriptor, x, eps: float) -> list:
    """Magnitudes of every denominator the system's quantities divide by at x.

    Used by the random-state rejection rule (draws must keep all of these
    finite and at or above 1e-6). Kinds outside the catalog have none.
    """
    return KahanPair(desc, x, eps).witnesses()


class MeasureHypothesisReport(NamedTuple):
    """Result of the two checkable hypotheses for a density certificate:
    the bilinear expression is symmetric in its two states, and its value on
    (x, Phi(x, eps)) times Delta(x; eps) is an even function of eps."""

    symmetry_violation: float
    parity_violation: float
    tolerance: float
    passed: bool


def measure_hypothesis_check(
    desc: SystemDescriptor,
    phat: Callable,
    x,
    eps: float,
    rng: Optional[np.random.Generator] = None,
    pairs: int = 8,
) -> MeasureHypothesisReport:
    """Check the hypotheses under which a bilinear expression phat(x, y, eps)
    certifies an invariant measure for the map.

    (i) symmetry: phat(u, v, eps) = phat(v, u, eps) on random pairs;
    (ii) parity: phat(x, Phi(x, eps), eps) * Delta(x; eps) is even in eps.
    Both to 1e-11 relative.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    x = np.asarray(x, dtype=float)
    n = desc.dim
    sym = 0.0
    for _ in range(pairs):
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        a = phat(u, v, eps)
        b = phat(v, u, eps)
        sym = max(sym, abs(a - b) / (abs(a) + abs(b) + 1.0))
    fwd = kahan_step(desc.field, x, eps)
    bwd = kahan_step(desc.field, x, -eps)
    plus = phat(x, fwd.next, eps) * fwd.delta
    minus = phat(x, bwd.next, eps) * bwd.delta
    parity = abs(plus - minus) / (abs(plus) + abs(minus) + 1.0)
    tol = 1e-11
    return MeasureHypothesisReport(
        symmetry_violation=sym,
        parity_violation=parity,
        tolerance=tol,
        passed=(sym <= tol and parity <= tol),
    )


@dataclass(frozen=True, eq=False)
class QuadraticEpsPolynomial:
    """A polynomial of degree <= 2 in x whose coefficients are polynomials in
    eps^2, P(x; eps^2). Slot [.., k] multiplies (eps^2)^k.

    quad: (n, n, d) symmetric in the first two axes
    lin: (n, d)
    const: (d,)
    """

    quad: np.ndarray
    lin: np.ndarray
    const: np.ndarray

    def __post_init__(self) -> None:
        quad = np.array(self.quad, dtype=float)
        lin = np.array(self.lin, dtype=float)
        const = np.array(self.const, dtype=float)
        if const.ndim != 1 or const.shape[0] < 1:
            raise ValueError("const must hold at least the (eps^2)^0 slot")
        d = const.shape[0]
        n = lin.shape[0] if lin.ndim == 2 else -1
        if lin.shape != (n, d) or n < 1:
            raise ValueError(f"lin must have shape (n, {d})")
        if quad.shape != (n, n, d):
            raise ValueError(f"quad must have shape {(n, n, d)}, got {quad.shape}")
        if not np.array_equal(quad, quad.swapaxes(0, 1)):
            raise ValueError("quad must be symmetric in its first two axes")
        for name, arr in (("quad", quad), ("lin", lin), ("const", const)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "const", const)

    @property
    def dim(self) -> int:
        return self.lin.shape[0]

    def _powers(self, s: float) -> np.ndarray:
        return s ** np.arange(self.const.shape[0])

    def value(self, x, eps: float) -> float:
        x = np.asarray(x, dtype=float)
        pw = self._powers(eps * eps)
        return float(
            np.einsum("ijk,i,j,k->", self.quad, x, x, pw)
            + np.einsum("ik,i,k->", self.lin, x, pw)
            + np.dot(self.const, pw)
        )


def polarize_integral(P: QuadraticEpsPolynomial, x, x_next, eps: float) -> float:
    """Polarization substitution on a quadratic expression:
    x_i x_j -> (x_i x~_j + x~_i x_j)/2, x_i -> (x_i + x~_i)/2, constants kept,
    then eps^2 -> -eps^2. Applied to the numerator and denominator of a
    quadratic-fractional conserved quantity it yields the bilinear one.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(x_next, dtype=float)
    pw = P._powers(-eps * eps)
    # symmetric quad makes the mixed substitution equal to x . quad_k . y
    return float(
        np.einsum("ijk,i,j,k->", P.quad, x, y, pw)
        + np.einsum("ik,i,k->", P.lin, 0.5 * (x + y), pw)
        + np.dot(P.const, pw)
    )
