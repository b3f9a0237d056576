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

from .integrals import DenominatorZeroError, KahanPair, eval_coeffs
from .quadfield import SingularStepError, kahan_step_batch, map_jacobian
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


def _lowest_witness(pair: KahanPair) -> tuple:
    """(rank, index, value) of the lowest denominator witness at a proposal,
    a non-finite one ranked lowest."""
    wits = pair.witnesses()
    if not wits:
        return (math.inf, None, math.nan)
    return min((w if math.isfinite(w) else -math.inf, i, w) for i, w in enumerate(wits))


def _draw_states(
    rng: np.random.Generator, desc: SystemDescriptor, eps: float, count: int, radius: float = 1.0
) -> list:
    """count random states in a ball, each in a KahanPair holding its forward
    step: the states that count sequential draw_initial_state calls return.

    The stream is consumed as one-at-a-time draws consume it, and proposals
    are accepted in stream order, but each round's proposals step as one
    batch. A round proposes only as many states as are still missing, so it
    never draws more than the last acceptance needs.
    """
    pairs = []
    draws = 0  # since the last accepted state
    binding = (math.inf, None, math.nan)  # (rank, index, value) of the lowest witness
    while len(pairs) < count:
        proposals = []
        for _ in range(count - len(pairs)):
            v = rng.standard_normal(desc.dim)
            norm = float(np.linalg.norm(v))
            proposals.append(None if norm < 1e-12 else v * (radius * rng.uniform(0.3, 1.0) / norm))
        xs = np.array([x for x in proposals if x is not None]).reshape(-1, desc.dim)
        batch = kahan_step_batch(desc.field, xs, eps)
        row = 0
        for x in proposals:
            draws += 1
            if x is not None:
                if batch.pole[row]:
                    # a pole ranks below every witness, as index -1 with its det
                    low = (-math.inf, -1, batch.delta[row])
                else:
                    pair = KahanPair(desc, xs[row], eps, batch.row(row))
                    low = _lowest_witness(pair)
                row += 1
                if low[0] >= DENOMINATOR_FLOOR:
                    pairs.append(pair)
                    draws, binding = 0, (math.inf, None, math.nan)
                    continue
                binding = min(binding, low)
            if draws == MAX_DRAWS:
                index, value = binding[1:]
                raise ValueError(
                    f"no {desc.kind} state off the poles of the map with every denominator "
                    f"witness finite and >= {DENOMINATOR_FLOOR:g} in {MAX_DRAWS} draws; binding "
                    + (
                        f"pole: det(I - eps*f'(x)) = {value:.3e}"
                        if index == -1
                        else f"witness: denominator_witnesses[{index}] = {value:.3e}"
                    )
                )
    return pairs


def draw_initial_state(
    rng: np.random.Generator, desc: SystemDescriptor, eps: float, radius: float = 1.0
) -> np.ndarray:
    """Random state in a ball, redrawn until the map has no pole there and
    every denominator witness is finite and clears the floor.

    Raises ValueError after MAX_DRAWS draws, naming what bound: the lowest
    witness seen, a pole first and a non-finite witness next.
    """
    return _draw_states(rng, desc, eps, 1, radius)[0].x


def _skip_on_pole(trial, *rows) -> list:
    """trial(*row) for every row; a pole or a zero denominator skips the row
    (no violations)."""
    out = []
    for args in zip(*rows):
        try:
            out.append(trial(*args))
        except (SingularStepError, DenominatorZeroError):
            out.append(())
    return out


def _worst_trial(
    name: str, desc: SystemDescriptor, trials: int, eps: float, seed: int, tolerance: float, trial
) -> PropertyReport:
    """Grade seeded draws: trial(pairs) gets every drawn state in a KahanPair
    holding its forward step and returns one sequence of violations per
    state, empty to skip it."""
    pairs = _draw_states(np.random.default_rng(seed), desc, eps, trials)
    worst_violation = 0.0
    worst_x = np.zeros(desc.dim)
    skipped = 0
    for pair, violations in zip(pairs, trial(pairs) if pairs else ()):
        if not violations:
            skipped += 1
        for violation in violations:
            if violation > worst_violation:
                worst_violation, worst_x = violation, pair.x
    return _report(name, trials, worst_violation, tolerance, worst_x, seed, skipped)


def check_reversibility(
    desc: SystemDescriptor, trials: int, eps: float, seed: int = 42
) -> PropertyReport:
    """Worst relative defect of stepping forward at eps then back at -eps."""

    def trial(pairs):
        back = kahan_step_batch(desc.field, np.array([p.y for p in pairs]), -eps)

        def defect(pair, x_back, pole):
            if pole:
                return ()
            x = pair.x
            return [float(np.max(np.abs(x_back - x))) / (1.0 + float(np.max(np.abs(x))))]

        return [defect(*row) for row in zip(pairs, back.next, back.pole)]

    return _worst_trial(f"{desc.kind}.reversibility", desc, trials, eps, seed, REVERSIBILITY_TOL, trial)


def _conservation(
    desc: SystemDescriptor, names, seeds, steps: int, eps: float, tolerance: float
) -> list:
    """One report per named quantity: its worst relative drift along an
    orbit from a state drawn with its own seed. The orbits step as one
    stack; a pole ends only the orbit that meets it."""
    pairs = [_draw_states(np.random.default_rng(seed), desc, eps, 1)[0] for seed in seeds]
    baselines = [pair.value(name) for pair, name in zip(pairs, names)]
    worst = [0.0] * len(names)
    worst_x = [pair.x for pair in pairs]
    skipped = [0] * len(names)
    running = range(len(names))
    for k in range(steps):
        # one step per orbit point: a bilinear quantity's successor is the
        # next point's state
        moving = []
        for r in running:
            try:
                moving.append((r, pairs[r].step.next))
            except SingularStepError:
                skipped[r] += steps - k
        if not moving:
            break
        running = [r for r, _ in moving]
        batch = kahan_step_batch(desc.field, np.array([x for _, x in moving]), eps)
        for j, (r, x) in enumerate(moving):
            pairs[r] = KahanPair(desc, x, eps, batch.row(j))
            try:
                value = pairs[r].value(names[r])
            except (DenominatorZeroError, SingularStepError):
                skipped[r] += 1
                continue
            violation = abs(value - baselines[r]) / (1.0 + abs(baselines[r]))
            if violation > worst[r]:
                worst[r], worst_x[r] = violation, x
    return [
        _report(f"{desc.kind}.conserved.{names[r]}", steps, worst[r], tolerance, worst_x[r], seeds[r], skipped[r])
        for r in range(len(names))
    ]


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
    return _conservation(desc, [integral_name], [seed], steps, eps, tolerance)[0]


def check_measure(
    desc: SystemDescriptor, density_name: str, trials: int, eps: float, seed: int = 42
) -> PropertyReport:
    """Worst relative defect of density(x~)/density(x) against det dPhi(x)."""

    def trial(pairs):
        xs = np.array([p.x for p in pairs])
        ys = np.array([p.y for p in pairs])
        onward = kahan_step_batch(desc.field, ys, eps)
        dets = np.linalg.det(map_jacobian(desc.field, xs, eps, ys))

        def defect(here, i):
            den = here.density(density_name)
            num = KahanPair(desc, ys[i], eps, onward.row(i)).density(density_name)
            if abs(den) < 1e-8 * (1.0 + abs(num)):
                # density crosses zero at x; the ratio is meaningless there
                return []
            det = float(dets[i])
            ratio = num / den
            return [abs(ratio - det) / (1.0 + abs(ratio) + abs(det))]

        return _skip_on_pole(defect, pairs, range(len(pairs)))

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

    def defect(here):
        x, x_next = here.x, here.y
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

    return _worst_trial(
        "first_clebsch.identities", desc, trials, eps, seed, IDENTITY_TOL, lambda pairs: _skip_on_pole(defect, pairs)
    )


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
        names = desc.conserved_names
        seeds = [seed + offset + i for i in range(len(names))]
        reports += _conservation(desc, names, seeds, steps, eps, CONSERVATION_TOL)
        offset += len(names)
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
