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
import numpy as np

from .integrals import KahanPair
from .quadfield import KahanBatch, _Frozen, jacobian, kahan_orbit
from .systems import SystemDescriptor

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


def _json_float(value: float):
    value = float(value)
    return value if math.isfinite(value) else None


class PropertyReport(_Frozen, eq=True):
    """Outcome of one seeded property suite; description says in words what
    was checked, for the report, and stays out of the JSON."""

    def __init__(
        self,
        name: str,
        description: str,
        trials: int,
        max_violation: float,
        tolerance: float,
        worst_case_input: np.ndarray,
        seed: int,
        skipped: int = 0,
    ) -> None:
        worst_case_input = np.asarray(worst_case_input, dtype=float)
        self._init(locals())

    @property
    def passed(self) -> bool:
        # a check that skipped every trial checked nothing
        return self.max_violation <= self.tolerance and self.skipped < self.trials

    def to_json_dict(self) -> dict:
        """The report as JSON values, a non-finite float as null so that the
        file stays strict JSON."""
        return {
            "name": self.name,
            "trials": self.trials,
            "max_violation": _json_float(self.max_violation),
            "tolerance": _json_float(self.tolerance),
            "passed": bool(self.passed),
            "worst_case_input": [_json_float(v) for v in self.worst_case_input.tolist()],
            "seed": self.seed,
            "skipped": self.skipped,
        }


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


_NO_BINDING = (math.inf, None, math.nan)


def _no_state_error(desc: SystemDescriptor, binding: tuple) -> ValueError:
    """The error of a draw that met MAX_DRAWS rejections in a row, naming
    the lowest (rank, index, value) among them."""
    index, value = binding[1:]
    return ValueError(
        f"no {desc.kind} state off the poles of the map with every denominator "
        f"witness finite and >= {DENOMINATOR_FLOOR:g} in {MAX_DRAWS} draws; binding "
        + (
            f"pole: det(I - eps*f'(x)) = {value:.3e}"
            if index == -1
            else f"witness: denominator_witnesses[{index}] = {value:.3e}"
        )
    )


def _draw_states(rngs, desc: SystemDescriptor, eps: float, count: int, delta: bool = True) -> KahanPair:
    """count random states in the unit ball from each generator of rngs, as
    one stacked KahanPair holding their forward steps: the states of rngs[0]
    first, then those of rngs[1], and so on. With delta=False the steps
    are kahan_orbit's with delta=False, which take a denominator only where
    the pole decision needs one, a pole's included, so the states, the
    rejections and their messages are unchanged; only check_measure reads
    the others.

    A state is drawn as draw_initial_state draws it. Each round, every
    generator still missing states draws one block of proposals, as many as
    it is missing: rng.standard_normal((k, dim)), then rng.uniform(0.3, 1.0,
    k) for their radii, and a proposal v becomes v * radius / |v|. A round
    of one proposal thus consumes the stream as a draw of one state always
    has, except that a proposal with |v| < 1e-12, which is rejected, now
    consumes its radius too. All of a round's proposals step as one batch
    and have their witnesses taken in one call. Each generator accepts its
    proposals in stream order and counts its own draws since its last
    acceptance, so its states do not depend on the other generators.
    """
    dim = desc.dim
    missing = [count] * len(rngs)
    # per generator: draws since its last acceptance, and the (rank, index,
    # value) of the lowest witness among them
    runs = [(0, _NO_BINDING)] * len(rngs)
    rounds = []  # per round: its states, their steps, which are accepted, whose they are
    # a huge eps can overflow the step or a witness; such a draw is rejected
    # as non-finite, so numpy's warnings would only repeat that, as they would
    # for the nan row of a rejected proposal v = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while any(missing):
            live = [g for g, k in enumerate(missing) if k]
            sizes = [missing[g] for g in live]
            vs = np.concatenate([rngs[g].standard_normal((k, dim)) for g, k in zip(live, sizes)])
            radii = np.concatenate([rngs[g].uniform(0.3, 1.0, k) for g, k in zip(live, sizes)])
            norms = np.sqrt(np.vecdot(vs, vs))
            kept = norms >= 1e-12  # a shorter v gives no direction: it is rejected
            xs = vs * (radii / norms)[:, None]
            batch = KahanBatch(*(column[0] for column in kahan_orbit(desc.field, xs, eps, 1, delta=delta)))
            ranks, indices, values = _lowest_witnesses(KahanPair(desc, xs, eps, batch))
            ok = kept & ~batch.pole & (ranks >= DENOMINATOR_FLOOR)
            rounds.append((xs, batch, ok, live, sizes))
            start = 0
            for g, k in zip(live, sizes):
                block = ok[start : start + k]
                draws, binding = runs[g]
                last = -1  # the generator's last rejected proposal in the block
                for p in np.flatnonzero(~block).tolist():
                    if p > last + 1:  # the proposals between were accepted
                        draws, binding = 0, _NO_BINDING
                    last, row = p, start + p
                    draws += 1
                    if kept[row]:
                        # a pole ranks below every witness, as index -1 with its det
                        low = (
                            (-math.inf, -1, float(batch.delta[row]))
                            if batch.pole[row]
                            else (float(ranks[row]), int(indices[row]), float(values[row]))
                        )
                        binding = min(binding, low)
                    if draws == MAX_DRAWS:
                        raise _no_state_error(desc, binding)
                runs[g] = (draws, binding) if last == k - 1 else (0, _NO_BINDING)
                missing[g] -= int(np.count_nonzero(block))
                start += k
    if not rounds:
        return KahanPair(desc, np.empty((0, dim)), eps)
    xs, batches, ok, live, sizes = zip(*rounds)
    steps = KahanBatch(*map(np.concatenate, zip(*batches)))
    taken = np.flatnonzero(np.concatenate(ok))
    # the accepted states of each generator in turn, in its stream order
    owner = np.repeat(np.concatenate(live), np.concatenate(sizes))
    taken = taken[np.argsort(owner[taken], kind="stable")]
    return KahanPair(desc, np.concatenate(xs)[taken], eps, KahanBatch(*(field[taken] for field in steps)))


def draw_initial_state(rng: np.random.Generator, desc: SystemDescriptor, eps: float) -> np.ndarray:
    """Random state in the unit ball, redrawn until the map has no pole
    there and every denominator witness is finite and clears the floor.

    Each redraw is a round of one proposal: rng.standard_normal(dim) and
    rng.uniform(0.3, 1.0) for its radius, so the generator is consumed as it
    always was, except by a proposal with |v| < 1e-12 (probability ~1e-70),
    which now consumes a radius too. Raises ValueError after MAX_DRAWS
    draws, naming what bound: the lowest witness seen, a pole first and a
    non-finite witness next.
    """
    return _draw_states([rng], desc, eps, 1, delta=False).x[0]


def _first_worst(violations: np.ndarray, skip: np.ndarray) -> tuple:
    """The largest violation above 0 over the rows not skipped, its row and
    the number of rows skipped. A row with a nan violation is skipped too,
    not passed over. The row is the first in row order (then column order)
    to reach the largest violation, as a running strict maximum finds it;
    (0.0, None, skipped) when none is above 0, as for no rows at all."""
    if not violations.size:
        return 0.0, None, int(skip.sum())
    v = violations.reshape(skip.shape[0], -1)
    skip = skip | np.isnan(v).any(axis=1)
    skipped = int(skip.sum())
    v = np.where(skip[:, None], -np.inf, v)
    flat = int(np.argmax(v))
    worst = float(v.flat[flat])
    return (worst, flat // v.shape[1], skipped) if worst > 0.0 else (0.0, None, skipped)


def _worst_trial(
    name: str,
    description: str,
    desc: SystemDescriptor,
    trials: int,
    eps: float,
    seed: int,
    tolerance: float,
    trial,
    delta: bool = False,
) -> PropertyReport:
    """Grade seeded draws: trial(pair) gets every drawn state in one stacked
    KahanPair holding their forward steps, with their denominators if
    delta, and returns the violations, one row per state, and the mask of
    the states it skips."""
    pair = _draw_states([np.random.default_rng(seed)], desc, eps, trials, delta)
    if pair.x.shape[0]:
        violations, skip = trial(pair)
    else:
        violations, skip = np.empty((0, 1)), np.zeros(0, dtype=bool)
    worst, row, skipped = _first_worst(violations, skip)
    worst_x = np.zeros(desc.dim) if row is None else pair.x[row]
    return PropertyReport(name, description, trials, worst, tolerance, worst_x, seed, skipped)


def check_reversibility(
    desc: SystemDescriptor, trials: int, eps: float, seed: int = 42
) -> PropertyReport:
    """Worst relative defect of stepping forward at eps then back at -eps."""

    def trial(pair):
        x = pair.x
        # no check reads the backward step's denominator
        back = kahan_orbit(desc.field, pair.step.next, -eps, 1, delta=False)
        defect = np.abs(back.next[0] - x).max(axis=-1) / (1.0 + np.abs(x).max(axis=-1))
        return defect, back.pole[0]

    description = "reversibility: backward step at -eps undoes the forward step"
    return _worst_trial(f"{desc.kind}.reversibility", description, desc, trials, eps, seed, REVERSIBILITY_TOL, trial)


def _conservation(desc: SystemDescriptor, names, seeds, steps: int, eps: float) -> list:
    """One report per named quantity: its worst relative drift along an
    orbit from a state drawn with its own seed.

    The states of all seeds are drawn together, one proposal per seed and
    round, each from its own seed's stream. The orbits only step, as one
    stack, and a pole ends only the orbit that meets it. No conserved
    quantity reads the denominator, so the draws and the orbits take it
    only where the pole decision needs it. Each quantity is then evaluated
    on its whole orbit, the drawn state included, in one call, every point
    with the step the orbit holds from it."""
    drawn = _draw_states([np.random.default_rng(seed) for seed in seeds], desc, eps, 1, delta=False)
    # orbit[k]: the steps from point k of every orbit; point 0 is the draw,
    # point k + 1 is orbit.next[k]
    orbit = kahan_orbit(desc.field, drawn.x, eps, steps + 1, drawn.step, delta=False)
    # an orbit that meets a pole in the step from point k has points 1..k
    ends = np.minimum(orbit.ends(), steps)
    reports = []
    for r, (name, end) in enumerate(zip(names, ends)):
        points = np.concatenate([drawn.x[r : r + 1], orbit.next[:end, r]])
        on_orbit = KahanBatch(*(np.ascontiguousarray(field[: end + 1, r]) for field in orbit))
        values = KahanPair(desc, points, eps, on_orbit).value(name)
        baseline = values.item(0)
        violation = np.abs(values.value[1:] - baseline) / (1.0 + abs(baseline))
        worst, row, skipped = _first_worst(violation, values.fail[1:])
        worst_x = points[0 if row is None else row + 1]
        # a pole counts every step from it to the end as skipped
        skipped += steps - int(end)
        reports.append(
            PropertyReport(
                f"{desc.kind}.conserved.{name}",
                f"conservation of {name} over {steps} steps",
                steps, worst, CONSERVATION_TOL, worst_x, seeds[r], skipped,
            )
        )
    return reports


def check_conservation(
    desc: SystemDescriptor,
    integral_name: str,
    steps: int,
    eps: float,
    seed: int = 42,
) -> PropertyReport:
    """Worst relative drift of one named quantity along a seeded orbit.

    States where the quantity's denominator vanishes are skipped and counted;
    a pole ends the orbit early with the remaining steps counted as skipped.
    """
    return _conservation(desc, [integral_name], [seed], steps, eps)[0]


def check_measure(
    desc: SystemDescriptor, density_name: str, trials: int, eps: float, seed: int = 42
) -> PropertyReport:
    """Worst relative defect of density(x~)/density(x) against det dPhi(x).

    det dPhi(x) is taken in closed form, det(I + eps*f'(x~)) / det(I -
    eps*f'(x)) (Celledoni, McLachlan, Owren and Quispel 2013): one det a
    trial over the denominator the draw's step holds, with no solve. Where
    I - eps*f'(x) is ill conditioned this keeps the rounding of two dets,
    which a solve for dPhi itself does not: at eps 0.4 a general_clebsch
    draw with condition ~3e3 reads 1.2e-14 off the exact ratio in closed
    form and 6.5e-10 off through the solve."""

    def trial(pair):
        ys = pair.step.next
        column = f"density_{density_name}"
        here = pair.value(column)
        onward = KahanPair(desc, ys, eps).value(column)
        den, num = here.value, onward.value
        # a pole or a zero denominator skips the state, and so does a density
        # crossing zero at x, where the ratio is meaningless
        skip = here.fail | onward.fail
        skip[~skip] = np.abs(den[~skip]) < 1e-8 * (1.0 + np.abs(num[~skip]))
        # at a huge eps a density out of the float range gives inf/inf, and
        # so may det dPhi: a nan violation, which counts the state as skipped
        with np.errstate(over="ignore", invalid="ignore"):
            # det dPhi(x) = det(I + eps*f'(x~)) / det(I - eps*f'(x)), whose
            # denominator the draw's step holds
            dets = np.linalg.det(np.eye(desc.dim) + eps * jacobian(desc.field, ys)) / pair.step.delta
            ratio = np.divide(num, den, out=np.full_like(den, np.nan), where=~skip)
            return np.abs(ratio - dets) / (1.0 + np.abs(ratio) + np.abs(dets)), skip

    name = f"{desc.kind}.measure.{density_name}"
    description = f"invariant density {density_name}: one-step ratio matches the map Jacobian determinant"
    return _worst_trial(name, description, desc, trials, eps, seed, MEASURE_TOL, trial, delta=True)


def check_identities_clebsch1(
    desc: SystemDescriptor, trials: int, eps: float, seed: int = 42
) -> PropertyReport:
    """Worst defect of the four one-step coefficient identities of a
    first_clebsch system; a system of another kind is a ValueError.

    With c evaluated at x, c~ at x~ and C on the pair, each of
    sum c_i m~_i p_i, sum c_i m_i p~_i equals sum C_i m_i p_i, and each of
    sum c~_i m_i p~_i, sum c~_i m~_i p_i equals sum C_i m~_i p~_i.
    """
    if desc.kind != "first_clebsch":
        raise ValueError(f"the one-step identities are those of first_clebsch, not {desc.kind}")

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

    description = "one-step bilinear coefficient identities"
    return _worst_trial("first_clebsch.identities", description, desc, trials, eps, seed, IDENTITY_TOL, trial)


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
        reports += _conservation(desc, names, seeds, steps, eps)
        offset += len(names)
        for density in desc.density_names:
            reports.append(
                check_measure(desc, density, trials, eps, seed=seed + offset)
            )
            offset += 1
        if desc.kind == "first_clebsch":
            reports.append(check_identities_clebsch1(desc, trials, eps, seed=seed + offset))
            offset += 1
    return reports


def suites_passed(reports) -> bool:
    return all(r.passed for r in reports)


def reports_to_json(reports) -> str:
    """Reports as a JSON array, stable byte-for-byte for a fixed seed."""
    return json.dumps([r.to_json_dict() for r in reports], indent=2)
