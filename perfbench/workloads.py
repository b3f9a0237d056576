"""The benchmark workloads and the checks on their outputs.

Each workload drives the public API (``kahanmaps.cli.parse_config`` and
``run_command``, plus the ``kahanmaps.hkbasis`` functions) over the catalog
configs in ``configs/``; those are the six parameter sets of the test
suite's ``make_params``.  The seed goes into every config's ``seed`` and
into the benchmark's own draws, so one seed fixes every input.

A pass runs the whole workload once as a sequence of operations.  An
operation is one call a user would wait for (one command on one system, one
extraction, one rank probe); it is timed alone and its output checked
afterwards, outside the timed interval.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import numpy as np

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")
CATALOG = (
    "general_clebsch",
    "first_clebsch",
    "second_clebsch",
    "kirchhoff",
    "lagrange",
    "planar_family",
)
SIX_DIM = CATALOG[:5]

# The property suites' conservation tolerance, pinned here so that the
# check does not move with the code it checks.
CONSERVATION_TOL = 1e-8
# Spectral gap a declared Wronskian order must show (the acceptance criterion).
GAP_MIN = 1e6
# Extraction runs at the CLI default step over a 1000-step orbit.
EXTRACT_EPS = 0.05
EXTRACT_STEPS = 1000
EXTRACT_ORDERS = (1, 2)
# Rank probes as in the functional-independence criterion: eps 0.4,
# window 16, Wronskian ratios J1..J4 at seeded points of the shell
# 0.4 <= |x| <= 1 whose denominators clear 1e-6.
RANK_EPS = 0.4
RANK_WINDOW = 16
RANK_POINTS = 20
RANK_QUADRUPLE = ((3, 0), (3, 1), (4, 0), (4, 1))  # (order, numerator), denominator entry 2
SHELL_DRAWS = 1000

# The reference kernel: a Kahan-like step (Jacobian contraction, det, 6 x 6
# solve) on frozen random data, independent of the package under test.  It
# runs between operations and between set-ups, so each of those times can be
# read against the machine's speed at that moment.
_REF = np.random.default_rng(12345)
REF_QUAD = _REF.standard_normal((6, 6, 6))
REF_QUAD = 0.5 * (REF_QUAD + REF_QUAD.swapaxes(1, 2))
REF_LIN = _REF.standard_normal((6, 6))
REF_X = 0.3 * _REF.standard_normal(6)
REF_STEPS = 1000
# Median reference kernel time when the benchmark was defined; converts
# reference units back to seconds where a metric must be in seconds.
REF_NOMINAL_S = 0.03


def reference_seconds() -> float:
    t0 = perf_counter()
    for _ in range(REF_STEPS):
        jac = 2.0 * np.einsum("ijk,k->ij", REF_QUAD, REF_X) + REF_LIN
        mat = np.eye(6) - 0.05 * jac
        np.linalg.det(mat)
        np.linalg.solve(mat, jac @ REF_X)
    return perf_counter() - t0


def ref_units(seconds: list, refs: list) -> list:
    """Each time over the mean of the reference times taken just before and
    just after it; refs has one more entry than seconds."""
    return [t / (0.5 * (a + b)) for t, a, b in zip(seconds, refs, refs[1:])]


@dataclass
class Op:
    op_id: int
    label: str
    phase: str
    kind: str
    seconds: float
    ref_s: float  # reference kernel time just before the operation
    error: Optional[str]


@dataclass
class PassResult:
    """What one pass did: its operations, output digests and work counts."""

    ops: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    ref_end: float = 0.0  # reference kernel time after the last operation

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def ref_units(self) -> list:
        return ref_units([op.seconds for op in self.ops], [op.ref_s for op in self.ops] + [self.ref_end])


class Workload:
    """Parses the catalog configs and builds each system (the timed set-up).

    nominal_pass_s is the median time of one pass with its reference
    samples, measured when the workload was defined (2-core x86-64, one BLAS
    thread); it converts a run's seconds into a fixed pass count.
    """

    name: str
    nominal_pass_s: float
    kinds = CATALOG

    def __init__(self, api, seed: int, out_root: str) -> None:
        self.api = api
        self.seed = seed
        self.out_root = out_root
        self.configs = {
            kind: api.cli.parse_config(
                os.path.join(CONFIG_DIR, f"{kind}.json"), {"seed": seed}
            )
            for kind in self.kinds
        }
        self.systems = {
            kind: api.systems.build_system(cfg.kind, cfg.params)
            for kind, cfg in self.configs.items()
        }
        self._next_op = 0

    def make_inputs(self) -> None:
        """Draw the benchmark's own seeded inputs (not part of set-up time)."""

    def run_pass(self, tracer=None) -> PassResult:
        result = PassResult()
        self._operations(result, tracer)
        result.ref_end = reference_seconds()
        return result

    def _operations(self, result: PassResult, tracer) -> None:
        raise NotImplementedError

    def _op(self, result: PassResult, label, phase, kind, call: Callable, check: Callable, tracer):
        """Time call() as one operation, then check its value untimed.

        check returns an error message or None.  Any exception from the
        program fails the operation and the pass goes on.
        """
        op_id = self._next_op
        self._next_op += 1
        ref_s = reference_seconds()
        scope = tracer.operation(op_id) if tracer is not None else contextlib.nullcontext()
        value, error = None, None
        with scope:
            t0 = perf_counter()
            try:
                value = call()
            except Exception as exc:  # the boundary that records a failed operation
                error = f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - t0
        if error is None:
            error = check(value)
        result.ops.append(Op(op_id, label, phase, kind, seconds, ref_s, error))
        return value

    def _command(self, result: PassResult, command: str, kind: str, tracer, check):
        out = os.path.join(self.out_root, kind)
        return self._op(
            result,
            f"{command} {kind}",
            command,
            kind,
            lambda: self.api.cli.run_command(self.configs[kind], command, out),
            lambda rc: check(rc, out),
            tracer,
        )


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _record_file(result: PassResult, kind: str, path: str) -> None:
    result.digests[f"{kind}/{os.path.basename(path)}"] = _sha256(path)
    result.add("bytes_written", os.path.getsize(path))


def check_orbit_csv(path: str, desc, steps: int) -> Optional[str]:
    """Exactly `steps` finite rows; declared conserved columns drift <= tol."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if rows.shape[0] != steps:
        return f"{rows.shape[0]} rows, expected {steps}"
    if not np.isfinite(rows).all():
        return "non-finite value in orbit.csv"
    col = {name: rows[:, i] for i, name in enumerate(header)}
    col["m3"] = col.get("x3")
    for name in desc.conserved_names:
        if "/" in name:
            num, den = name.split("/")
            values = col[num] / col[den]
        else:
            values = col[name]
        drift = float(np.max(np.abs(values - values[0]))) / (1.0 + abs(values[0]))
        if drift > CONSERVATION_TOL:
            return f"{name} drifts {drift:.3e} > {CONSERVATION_TOL:.0e}"
    return None


class SimulateCatalog(Workload):
    name = "simulate_catalog"
    nominal_pass_s = 7.4

    def _operations(self, result: PassResult, tracer) -> None:
        for kind in self.kinds:
            steps = self.configs[kind].steps

            def check(rc, out, kind=kind, steps=steps):
                if rc != 0:
                    return f"exit status {rc}"
                path = os.path.join(out, "orbit.csv")
                _record_file(result, kind, path)
                return check_orbit_csv(path, self.systems[kind], steps)

            self._command(result, "simulate", kind, tracer, check)
            result.add("orbit_rows", steps)


class VerifyCatalog(Workload):
    name = "verify_catalog"
    nominal_pass_s = 12.2

    def _operations(self, result: PassResult, tracer) -> None:
        for kind in self.kinds:

            def check(rc, out, kind=kind):
                path = os.path.join(out, "verify.json")
                _record_file(result, kind, path)
                with open(path, encoding="utf-8") as fh:
                    reports = json.load(fh)
                trials = sum(r["trials"] for r in reports)
                skipped = sum(r["skipped"] for r in reports)
                result.add("trials", trials)
                result.add("skipped", skipped)
                result.add("checks", trials - skipped)
                return None if rc == 0 else f"exit status {rc}"

            self._command(result, "verify", kind, tracer, check)


class HkDetect(Workload):
    name = "hk_detect"
    kinds = SIX_DIM
    nominal_pass_s = 4.8

    def make_inputs(self) -> None:
        hk = self.api.hkbasis
        gen = self.systems["general_clebsch"]
        self.rank_integrals = [
            hk.wronskian_ratio_integral(gen.field, RANK_EPS, order, num, 2, window=RANK_WINDOW)
            for order, num in RANK_QUADRUPLE
        ]
        rng = np.random.default_rng(self.seed)
        self.rank_points = [self._shell_point(rng, gen) for _ in range(RANK_POINTS)]

    def _shell_point(self, rng, desc) -> np.ndarray:
        witnesses = self.api.integrals.denominator_witnesses
        for _ in range(SHELL_DRAWS):
            v = rng.standard_normal(desc.dim)
            x = v * (rng.uniform(0.4, 1.0) / float(np.linalg.norm(v)))
            if min(witnesses(desc, x, RANK_EPS)) >= 1e-6:
                return x
        raise RuntimeError(f"no shell point cleared the denominators in {SHELL_DRAWS} draws")

    def _operations(self, result: PassResult, tracer) -> None:
        hk = self.api.hkbasis
        for kind in self.kinds:
            declared = self.systems[kind].wronskian_orders

            def check_scan(rc, out, kind=kind, declared=declared):
                path = os.path.join(out, "hkscan.json")
                _record_file(result, kind, path)
                with open(path, encoding="utf-8") as fh:
                    orders = json.load(fh)["orders"]
                result.add("nullspace_windows", len(orders))
                for entry in orders:
                    gap = entry["gap_ratio"]  # null for an infinite gap
                    if entry["order"] in declared and (
                        entry["null_dim"] != 1 or (gap is not None and gap < GAP_MIN)
                    ):
                        return f"order {entry['order']}: null_dim {entry['null_dim']}, gap {gap}"
                return None if rc == 0 else f"exit status {rc}"

            self._command(result, "hk-scan", kind, tracer, check_scan)

        for kind in self.kinds:

            def extract(desc=self.systems[kind]):
                rng = np.random.default_rng(self.seed)
                x0 = self.api.verify.draw_initial_state(rng, desc, EXTRACT_EPS)
                orbit = hk.iterate_orbit(desc.field, x0, EXTRACT_EPS, EXTRACT_STEPS)
                pairs = hk.conjugate_pairs(desc.dim)
                window = hk.default_window(len(pairs))
                out = []
                for order in EXTRACT_ORDERS:
                    obs = hk.WronskianBasisSpec(order, pairs).observables()
                    report = hk.hk_nullspace(orbit, obs, window)
                    out.append(hk.extract_integral_ratios(report, orbit, obs, pivot=len(pairs) - 1))
                return out

            def check_extract(sequences):
                result.add("nullspace_windows", sum(1 + len(seq.ratios[0]) for seq in sequences))
                bad = [o for o, seq in zip(EXTRACT_ORDERS, sequences) if any(seq.non_constant)]
                return f"non-constant ratio sequence at orders {bad}" if bad else None

            self._op(result, f"extract {kind}", "extract", kind, extract, check_extract, tracer)

        def check_rank(rank):
            result.add("rank_probes", 1)
            result.add("rank4", int(rank == 4))
            return None

        for i, x in enumerate(self.rank_points):
            self._op(
                result,
                f"rank probe {i}",
                "rank",
                "general_clebsch",
                lambda x=x: hk.functional_rank(self.rank_integrals, x),
                check_rank,
                tracer,
            )


WORKLOADS = {w.name: w for w in (SimulateCatalog, VerifyCatalog, HkDetect)}
