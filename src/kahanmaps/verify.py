"""Seeded property suites over the system catalog.

Each check draws reproducible random trials, records the worst relative
violation together with the input that produced it, and grades the result
against a pinned tolerance.  Violations are measured relative to a per-trial
scale of 1 plus the magnitudes of the operands, so systems of very different
size share one tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .integrals import (
    DenominatorZeroError,
    KahanPair,
    denominator_witnesses,
    eval_coeffs,
    eval_density,
)
from .quadfield import SingularStepError, kahan_step, map_jacobian
from .systems import FirstClebschParams, SystemDescriptor, build_system

__all__ = [
    "CONSERVATION_TOL",
    "DENOMINATOR_FLOOR",
    "IDENTITY_TOL",
    "MAX_DRAWS",
    "MEASURE_TOL",
    "REVERSIBILITY_TOL",
    "PropertyReport",
    "check_conservation",
    "check_identities_clebsch1",
    "check_measure",
    "check_reversibility",
    "draw_initial_state",
    "reports_to_json",
    "run_suites",
    "suites_passed",
]

REVERSIBILITY_TOL = 1e-10
CONSERVATION_TOL = 1e-8
MEASURE_TOL = 1e-10
IDENTITY_TOL = 1e-12

# states whose integral denominators sit closer to zero than this are redrawn,
# at most MAX_DRAWS times
DENOMINATOR_FLOOR = 1e-6
MAX_DRAWS = 1000


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one seeded property suite."""

    name: str
    trials: int
    max_violation: float
    tolerance: float
    passed: bool
    worst_case_input: np.ndarray
    seed: int
    skipped: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "worst_case_input", np.asarray(self.worst_case_input, dtype=float)
        )
        if self.passed != (self.max_violation <= self.tolerance):
            raise ValueError("passed must mirror max_violation <= tolerance")

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "max_violation": float(self.max_violation),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
            "worst_case_input": [float(v) for v in self.worst_case_input],
            "seed": self.seed,
            "skipped": self.skipped,
        }


def _report(
    name: str,
    trials: int,
    max_violation: float,
    tolerance: float,
    worst: np.ndarray,
    seed: int,
    skipped: int,
) -> PropertyReport:
    return PropertyReport(
        name=name,
        trials=trials,
        max_violation=float(max_violation),
        tolerance=float(tolerance),
        passed=bool(max_violation <= tolerance),
        worst_case_input=worst,
        seed=seed,
        skipped=skipped,
    )


def draw_initial_state(
    rng: np.random.Generator, desc: SystemDescriptor, eps: float, radius: float = 1.0
) -> np.ndarray:
    """Random state in a ball, redrawn until every denominator witness is
    finite and clears the floor.

    Raises ValueError after MAX_DRAWS draws, naming the witness that bound:
    the lowest one seen, a non-finite one first.
    """
    binding = (math.inf, None, math.nan)  # (rank, index, value) of the lowest witness
    for _ in range(MAX_DRAWS):
        v = rng.standard_normal(desc.dim)
        norm = float(np.linalg.norm(v))
        if norm < 1e-12:
            continue
        x = v * (radius * rng.uniform(0.3, 1.0) / norm)
        wits = denominator_witnesses(desc, x, eps)
        if not wits:
            return x
        low = min((w if math.isfinite(w) else -math.inf, i, w) for i, w in enumerate(wits))
        if low[0] >= DENOMINATOR_FLOOR:
            return x
        binding = min(binding, low)
    raise ValueError(
        f"no {desc.kind} state with every denominator witness finite and >= "
        f"{DENOMINATOR_FLOOR:g} in {MAX_DRAWS} draws; binding witness: "
        f"denominator_witnesses[{binding[1]}] = {binding[2]:.3e}"
    )


def _worst_trial(
    name: str, desc: SystemDescriptor, trials: int, eps: float, seed: int, tolerance: float, trial
) -> PropertyReport:
    """Grade trial(x) over seeded draws: it returns the violations of one
    trial, or none to skip it; a pole or a zero denominator skips it too."""
    rng = np.random.default_rng(seed)
    worst_violation = 0.0
    worst_x = np.zeros(desc.dim)
    skipped = 0
    for _ in range(trials):
        x = draw_initial_state(rng, desc, eps)
        try:
            violations = trial(x)
        except (SingularStepError, DenominatorZeroError):
            violations = ()
        if not violations:
            skipped += 1
        for violation in violations:
            if violation > worst_violation:
                worst_violation, worst_x = violation, x
    return _report(name, trials, worst_violation, tolerance, worst_x, seed, skipped)


def check_reversibility(
    desc: SystemDescriptor, trials: int, eps: float, seed: int = 42
) -> PropertyReport:
    """Worst relative defect of stepping forward at eps then back at -eps."""

    def trial(x):
        forward = kahan_step(desc.field, x, eps).next
        back = kahan_step(desc.field, forward, -eps).next
        return [float(np.max(np.abs(back - x))) / (1.0 + float(np.max(np.abs(x))))]

    return _worst_trial(f"{desc.kind}.reversibility", desc, trials, eps, seed, REVERSIBILITY_TOL, trial)


def check_conservation(
    desc: SystemDescriptor,
    integral_name: str,
    steps: int,
    eps: float,
    seed: int = 42,
    tolerance: float = CONSERVATION_TOL,
) -> PropertyReport:
    """Worst relative drift of one named quantity along a seeded orbit.

    States where the quantity's denominator vanishes are skipped and counted;
    a pole ends the orbit early with the remaining steps counted as skipped.
    """
    rng = np.random.default_rng(seed)
    x0 = draw_initial_state(rng, desc, eps)
    pair = KahanPair(desc, x0, eps)
    baseline = pair.value(integral_name)
    scale = 1.0 + abs(baseline)
    worst_violation = 0.0
    worst_x = x0
    skipped = 0
    for k in range(steps):
        try:
            x = pair.step.next
        except SingularStepError:
            skipped += steps - k
            break
        # one step per orbit point: a bilinear quantity's successor is the
        # next point's state
        pair = KahanPair(desc, x, eps)
        try:
            value = pair.value(integral_name)
        except (DenominatorZeroError, SingularStepError):
            skipped += 1
            continue
        violation = abs(value - baseline) / scale
        if violation > worst_violation:
            worst_violation, worst_x = violation, x
    return _report(
        f"{desc.kind}.conserved.{integral_name}",
        steps,
        worst_violation,
        tolerance,
        worst_x,
        seed,
        skipped,
    )


def check_measure(
    desc: SystemDescriptor, density_name: str, trials: int, eps: float, seed: int = 42
) -> PropertyReport:
    """Worst relative defect of density(x~)/density(x) against det dPhi(x)."""

    def trial(x):
        here = KahanPair(desc, x, eps)
        x_next = here.step.next
        den = here.density(density_name)
        num = eval_density(desc, x_next, eps, density_name)
        if abs(den) < 1e-8 * (1.0 + abs(num)):
            # density crosses zero at x; the ratio is meaningless there
            return []
        det = float(np.linalg.det(map_jacobian(desc.field, x, eps)))
        ratio = num / den
        return [abs(ratio - det) / (1.0 + abs(ratio) + abs(det))]

    return _worst_trial(f"{desc.kind}.measure.{density_name}", desc, trials, eps, seed, MEASURE_TOL, trial)


def check_identities_clebsch1(
    omega, trials: int, eps: float, seed: int = 42
) -> PropertyReport:
    """Worst defect of the four one-step coefficient identities.

    With c evaluated at x, c~ at x~ and C on the pair, each of
    sum c_i m~_i p_i, sum c_i m_i p~_i equals sum C_i m_i p_i, and each of
    sum c~_i m_i p~_i, sum c~_i m~_i p_i equals sum C_i m~_i p~_i.
    """
    desc = build_system("first_clebsch", FirstClebschParams(omega=tuple(omega)))

    def trial(x):
        here = KahanPair(desc, x, eps)
        x_next = here.step.next
        c = here.coefficients("small_c")[:3]
        c_next = eval_coeffs(desc, x_next, eps, "small_c")[:3]
        big = here.coefficients("big_C")[:3]
        m, p = x[:3], x[3:]
        m_next, p_next = x_next[:3], x_next[3:]
        rhs_here = float(np.dot(big, m * p))
        rhs_next = float(np.dot(big, m_next * p_next))
        return [
            abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))
            for lhs, rhs in (
                (float(np.dot(c, m_next * p)), rhs_here),
                (float(np.dot(c, m * p_next)), rhs_here),
                (float(np.dot(c_next, m * p_next)), rhs_next),
                (float(np.dot(c_next, m_next * p)), rhs_next),
            )
        ]

    return _worst_trial("first_clebsch.identities", desc, trials, eps, seed, IDENTITY_TOL, trial)


def run_suites(
    descriptors,
    eps: float = 0.05,
    trials: int = 500,
    steps: int = 1000,
    seed: int = 42,
) -> list:
    """Full battery over the given systems, with per-check derived seeds.

    Returns one PropertyReport per check: reversibility, conservation of every
    declared conserved quantity, the measure property of every declared
    density, and the one-step identities on the first special case.
    """
    reports = []
    offset = 0
    for desc in descriptors:
        reports.append(check_reversibility(desc, trials, eps, seed=seed + offset))
        offset += 1
        for name in desc.conserved_names:
            reports.append(
                check_conservation(desc, name, steps, eps, seed=seed + offset)
            )
            offset += 1
        for density in desc.density_names:
            reports.append(
                check_measure(desc, density, trials, eps, seed=seed + offset)
            )
            offset += 1
        if desc.kind == "first_clebsch":
            reports.append(
                check_identities_clebsch1(
                    desc.params.omega, trials, eps, seed=seed + offset
                )
            )
            offset += 1
    return reports


def suites_passed(reports) -> bool:
    return all(r.passed for r in reports)


def reports_to_json(reports) -> str:
    """Reports as a JSON array, stable byte-for-byte for a fixed seed."""
    return json.dumps([r.to_json_dict() for r in reports], indent=2)
