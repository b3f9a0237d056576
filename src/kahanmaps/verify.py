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

from .integrals import KahanPair
from .quadfield import KahanBatch, kahan_orbit, kahan_step_batch, map_jacobian
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


def _lowest_witnesses(pair: KahanPair) -> tuple:
    """Per row of a stacked pair: the rank, index and value of the lowest
    denominator witness, a non-finite one ranked lowest."""
    rows, has = pair.witnesses()
    values = rows.value
    count = values.shape[0]
    if not values.shape[1]:  # a kind outside the catalog: nothing bars a draw
        return np.full(count, np.inf), np.zeros(count, dtype=int), np.full(count, np.nan)
    ranks = np.where(has, np.where(np.isfinite(values), values, -np.inf), np.inf)
    index = np.argmin(ranks, axis=1)  # the first of equal ranks, as min() over (rank, index) takes
    pick = np.arange(count)
    return ranks[pick, index], index, values[pick, index]


def _draw_states(
    rng: np.random.Generator, desc: SystemDescriptor, eps: float, count: int, radius: float = 1.0
) -> KahanPair:
    """count random states in a ball, as one stacked KahanPair holding their
    forward steps: the states that count sequential draw_initial_state calls
    return.

    The stream is consumed as one-at-a-time draws consume it, and proposals
    are accepted in stream order, but each round's proposals step as one
    batch and have their witnesses taken in one call. A round proposes only
    as many states as are still missing, so it never draws more than the
    last acceptance needs.
    """
    accepted = []  # per round: its steps and the rows it accepted
    total = 0
    draws = 0  # since the last accepted state
    binding = (math.inf, None, math.nan)  # (rank, index, value) of the lowest witness
    # a huge eps can overflow the step or a witness; such a draw is rejected
    # as non-finite, so numpy's warnings would only repeat that
    with np.errstate(over="ignore", invalid="ignore"):
        while total < count:
            proposals = []
            for _ in range(count - total):
                v = rng.standard_normal(desc.dim)
                norm = math.sqrt(v.dot(v))  # numpy.linalg.norm's formula for a float vector
                proposals.append(None if norm < 1e-12 else v * (radius * rng.uniform(0.3, 1.0) / norm))
            xs = np.array([x for x in proposals if x is not None]).reshape(-1, desc.dim)
            batch = kahan_step_batch(desc.field, xs, eps)
            ranks, indices, values = _lowest_witnesses(KahanPair(desc, xs, eps, batch))
            taken = []
            row = -1
            for x in proposals:
                draws += 1
                if x is not None:
                    row += 1
                    if batch.pole[row]:
                        # a pole ranks below every witness, as index -1 with its det
                        low = (-math.inf, -1, batch.delta[row])
                    else:
                        low = (float(ranks[row]), int(indices[row]), float(values[row]))
                    if low[0] >= DENOMINATOR_FLOOR:
                        taken.append(row)
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
            accepted.append((xs[taken], KahanBatch(*(field[taken] for field in batch))))
            total += len(taken)
    if not accepted:
        return KahanPair(desc, np.empty((0, desc.dim)), eps)
    xs, batches = zip(*accepted)
    return KahanPair(desc, np.concatenate(xs), eps, KahanBatch(*map(np.concatenate, zip(*batches))))


def draw_initial_state(
    rng: np.random.Generator, desc: SystemDescriptor, eps: float, radius: float = 1.0
) -> np.ndarray:
    """Random state in a ball, redrawn until the map has no pole there and
    every denominator witness is finite and clears the floor.

    Raises ValueError after MAX_DRAWS draws, naming what bound: the lowest
    witness seen, a pole first and a non-finite witness next.
    """
    return _draw_states(rng, desc, eps, 1, radius).x[0]


def _first_worst(violations: np.ndarray, skip: np.ndarray) -> tuple:
    """The largest violation above 0 over the rows not skipped, and its row:
    the first in row order (then column order) to reach it, as a running
    strict maximum finds it; nan never counts. (0.0, None) when none."""
    v = violations.reshape(skip.shape[0], -1)
    v = np.where(skip[:, None] | np.isnan(v), -np.inf, v)
    if not v.size:
        return 0.0, None
    flat = int(np.argmax(v))
    worst = float(v.flat[flat])
    return (worst, flat // v.shape[1]) if worst > 0.0 else (0.0, None)


def _worst_trial(
    name: str, desc: SystemDescriptor, trials: int, eps: float, seed: int, tolerance: float, trial
) -> PropertyReport:
    """Grade seeded draws: trial(pair) gets every drawn state in one stacked
    KahanPair holding their forward steps and returns the violations, one
    row per state, and the mask of the states it skips."""
    pair = _draw_states(np.random.default_rng(seed), desc, eps, trials)
    if pair.x.shape[0]:
        violations, skip = trial(pair)
    else:
        violations, skip = np.empty((0, 1)), np.zeros(0, dtype=bool)
    worst, row = _first_worst(violations, skip)
    worst_x = np.zeros(desc.dim) if row is None else pair.x[row]
    return _report(name, trials, worst, tolerance, worst_x, seed, int(skip.sum()))


def check_reversibility(
    desc: SystemDescriptor, trials: int, eps: float, seed: int = 42
) -> PropertyReport:
    """Worst relative defect of stepping forward at eps then back at -eps."""

    def trial(pair):
        x = pair.x
        back = kahan_step_batch(desc.field, pair.step.next, -eps)
        defect = np.abs(back.next - x).max(axis=-1) / (1.0 + np.abs(x).max(axis=-1))
        return defect, back.pole

    return _worst_trial(f"{desc.kind}.reversibility", desc, trials, eps, seed, REVERSIBILITY_TOL, trial)


def _conservation(
    desc: SystemDescriptor, names, seeds, steps: int, eps: float, tolerance: float
) -> list:
    """One report per named quantity: its worst relative drift along an
    orbit from a state drawn with its own seed.

    The orbits only step, as one stack, and a pole ends only the orbit that
    meets it. Each quantity is then evaluated on its whole orbit in one
    call, every point with the step the orbit holds from it."""
    drawn = [_draw_states(np.random.default_rng(seed), desc, eps, 1) for seed in seeds]
    baselines = [pair.value(name).item(0) for pair, name in zip(drawn, names)]
    # orbit[k]: the steps from point k of every orbit; point 0 is the draw,
    # point k + 1 is orbit.next[k]
    orbit = kahan_orbit(
        desc.field,
        np.concatenate([pair.x for pair in drawn]),
        eps,
        steps + 1,
        KahanBatch(*map(np.concatenate, zip(*(pair.step for pair in drawn)))),
    )
    # an orbit that meets a pole in the step from point k has points 1..k
    ends = np.minimum(orbit.ends(), steps)
    reports = []
    for r, (name, baseline, end) in enumerate(zip(names, baselines, ends)):
        on_orbit = KahanBatch(*(np.ascontiguousarray(field[1 : end + 1, r]) for field in orbit))
        values = KahanPair(desc, np.ascontiguousarray(orbit.next[:end, r]), eps, on_orbit).value(name)
        fail = values.fail
        violation = np.abs(values.value - baseline) / (1.0 + abs(baseline))
        worst, row = _first_worst(violation, fail)
        worst_x = drawn[r].x[0] if row is None else orbit.next[row, r]
        # a pole counts every step from it to the end as skipped
        skipped = int(fail.sum()) + steps - int(end)
        reports.append(
            _report(f"{desc.kind}.conserved.{name}", steps, worst, tolerance, worst_x, seeds[r], skipped)
        )
    return reports


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

    def trial(pair):
        xs, ys = pair.x, pair.step.next
        here = pair.density(density_name)
        onward = KahanPair(desc, ys, eps, kahan_step_batch(desc.field, ys, eps)).density(density_name)
        dets = np.linalg.det(map_jacobian(desc.field, xs, eps, ys))
        den, num = here.value, onward.value
        # a pole or a zero denominator skips the state, and so does a density
        # crossing zero at x, where the ratio is meaningless
        skip = here.fail | onward.fail
        skip[~skip] = np.abs(den[~skip]) < 1e-8 * (1.0 + np.abs(num[~skip]))
        ratio = np.divide(num, den, out=np.full_like(den, np.nan), where=~skip)
        return np.abs(ratio - dets) / (1.0 + np.abs(ratio) + np.abs(dets)), skip

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

    def trial(pair):
        x, x_next = pair.x, pair.step.next
        here = pair.coefficients("small_c")
        onward = KahanPair(desc, x_next, eps).coefficients("small_c")
        big = pair.coefficients("big_C")
        c, c_next, C = here.value[:, :3], onward.value[:, :3], big.value[:, :3]
        m, p = x[:, :3], x[:, 3:]
        m_next, p_next = x_next[:, :3], x_next[:, 3:]
        rhs_here = np.vecdot(C, m * p)
        rhs_next = np.vecdot(C, m_next * p_next)
        sides = (
            (np.vecdot(c, m_next * p), rhs_here),
            (np.vecdot(c, m * p_next), rhs_here),
            (np.vecdot(c_next, m * p_next), rhs_next),
            (np.vecdot(c_next, m_next * p), rhs_next),
        )
        violations = [np.abs(lhs - rhs) / (1.0 + np.abs(lhs) + np.abs(rhs)) for lhs, rhs in sides]
        return np.stack(violations, axis=-1), here.fail | onward.fail | big.fail

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
