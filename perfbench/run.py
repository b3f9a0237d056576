"""Benchmark of the kahanmaps package: one workload per run, in one process.

    python3 perfbench/run.py --workload simulate_catalog --seed 1 --seconds 32 --trace 0

Run from the repository root (the package is read from ``src/``).  Workloads
are ``simulate_catalog``, ``verify_catalog`` and ``hk_detect`` (see
``workloads.py`` and ``README.md``).

With ``--trace 0`` the run sets up nine times (median reported as
``setup_s``), then repeats whole passes of the workload for about
``--seconds`` seconds and reports the end-to-end metrics.  The pass count is
``--seconds`` over the workload's nominal pass time (at least two), not a
clock deadline, so every run of a workload takes the same number of samples
and a faster program simply finishes sooner.  With ``--trace 1`` it runs an
untraced pass, two traced passes and another untraced pass, and reports
per-layer calls, self times and counters from the second traced pass; the
deterministic ones must agree between the two traced passes.

Every operation's output is checked; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details (every operation, output digests, environment) go to
``.perfbench_out/<workload>/seed<n>/``.
"""

import os
import sys

# One BLAS thread, set before numpy loads: the package's matrices are 6 x 6
# and extra OpenBLAS threads only add contention on a small machine.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
from tracer import LAYERS, SVD_SPAN, SpanTable, Tracer, installed  # noqa: E402
from workloads import CATALOG, REF_NOMINAL_S, WORKLOADS, ref_units, reference_seconds  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 9
MIN_PASSES = 2
TRACED_PASSES = 2
TAIL_BEYOND = 10
DETERMINISTIC_UNITS = ("count", "ratio", "B")

RATES = (
    # (rate, work count, phases whose operation time does that work)
    ("orbit_rows_per_s", "orbit_rows", ("simulate",)),
    ("checks_per_s", "checks", ("verify",)),
    ("nullspace_windows_per_s", "nullspace_windows", ("hk-scan", "extract")),
    ("rank_probes_per_s", "rank_probes", ("rank",)),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


def fresh_api():
    """Import the package from scratch (numpy stays loaded)."""
    for name in [m for m in sys.modules if m == "kahanmaps" or m.startswith("kahanmaps.")]:
        del sys.modules[name]
    api = {layer: importlib.import_module(f"kahanmaps.{layer}") for layer in LAYERS}
    return SimpleNamespace(package=sys.modules["kahanmaps"], **api)


def set_up(workload_cls, seed: int, out_dir: str):
    """Import, parse every config and build every system, SETUP_REPEATS
    times, with a reference kernel run before, between and after."""
    times, refs = [], [reference_seconds()]
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload = workload_cls(fresh_api(), seed, out_dir)
        times.append(perf_counter() - t0)
        refs.append(reference_seconds())
    workload.make_inputs()
    return workload, times, refs


def pass_seconds(result) -> float:
    return sum(op.seconds for op in result.ops)


def timed_passes(workload, seconds: float) -> list:
    count = max(MIN_PASSES, round(seconds / workload.nominal_pass_s))
    return [workload.run_pass() for _ in range(count)]


def tail(samples: list) -> tuple:
    """Highest percentile with TAIL_BEYOND samples above it: (value, percentile)."""
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(passes, setup_times, setup_refs) -> tuple:
    """The gated metrics, the raw seconds behind them, and notes to print.

    Times are gated in reference units: each time over the reference kernel
    time measured around it.  The machine's speed drifts by a quarter over
    minutes, and the ratio follows the program's own cost through that drift
    far better than seconds do.  setup_s must be in seconds, so its ratio is
    converted back at the speed recorded when the benchmark was defined.
    """
    op_s = [op.seconds for p in passes for op in p.ops]
    tail_s, pct = tail(op_s)
    tail_ref, _ = tail([x for p in passes for x in p.ref_units()])
    setup_ref = statistics.median(ref_units(setup_times, setup_refs))
    metrics = {
        "setup_s": (setup_ref * REF_NOMINAL_S, "s"),
        "wall_ref": (statistics.median(sum(p.ref_units()) for p in passes), "ref"),
        "wall_tail_ref": (tail_ref, "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {
        "setup_raw_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(pass_seconds(p) for p in passes), "s"),
        "wall_tail_s": (tail_s, "s"),
        "ref_s": (statistics.median(op.ref_s for p in passes for op in p.ops), "s"),
    }
    beyond = f"p{pct:.0f} of {len(op_s)} operation times, {TAIL_BEYOND} beyond"
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups, at {REF_NOMINAL_S} s per reference",
        "wall_ref": f"median of {len(passes)} passes",
        "wall_tail_ref": beyond,
        "setup_raw_s": f"median of {len(setup_times)} set-ups",
        "wall_s": f"median of {len(passes)} passes",
        "wall_tail_s": beyond,
        "ref_s": "median reference kernel time",
    }
    return metrics, raw, notes


def rates(passes) -> dict:
    """The workload's own rates: work done over the time of the operations doing it."""
    out = {}
    for name, key, phases in RATES:
        done = sum(p.counts.get(key, 0) for p in passes)
        busy = sum(op.seconds for p in passes for op in p.ops if op.phase in phases)
        if done:
            out[name] = (done / busy, "1/s")
    return out


def per_layer(table, result, workload) -> dict:
    m = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            m[f"{layer}.{fn}.calls"] = (table.count(f"{layer}.{fn}"), "count")
            m[f"{layer}.{fn}.self_s"] = (table.self_time(f"{layer}.{fn}"), "s")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    steps = table.count("quadfield.kahan_step")
    m["quadfield.kahan_step.us_per_call"] = (
        1e6 * table.total_time("quadfield.kahan_step") / steps if steps else 0.0,
        "us",
    )
    sim_ops = {op.kind: op.op_id for op in result.ops if op.phase == "simulate"}
    row_steps = {kind: table.count_in_op("quadfield.kahan_step", op) for kind, op in sim_ops.items()}
    rows = {kind: workload.configs[kind].steps for kind in sim_ops}
    m["integrals.kahan_steps_per_row"] = ratio(sum(row_steps.values()), sum(rows.values()))
    for kind in CATALOG:
        m[f"integrals.kahan_steps_per_row.{kind}"] = ratio(row_steps.get(kind, 0), rows.get(kind, 0))
    m["verify.draw_attempts_per_state"] = ratio(
        table.count_under("integrals.denominator_witnesses", "verify.draw_initial_state"),
        table.count("verify.draw_initial_state"),
    )
    m["verify.skipped_ratio"] = ratio(result.counts.get("skipped", 0), result.counts.get("trials", 0))
    m["hkbasis.svd.calls"] = (table.count(SVD_SPAN), "count")
    m["hkbasis.svd_s"] = (table.total_time(SVD_SPAN), "s")
    # the SVD is a traced child of hk_nullspace, so this self time excludes it
    m["hkbasis.window_build_s"] = (table.self_time("hkbasis.hk_nullspace"), "s")
    m["hkbasis.svd_per_extract"] = ratio(
        table.count_under(SVD_SPAN, "hkbasis.extract_integral_ratios"),
        table.count("hkbasis.extract_integral_ratios"),
    )
    m["hkbasis.orbits_per_rank_probe"] = ratio(
        table.count_under("hkbasis.iterate_orbit", "hkbasis.functional_rank"),
        table.count("hkbasis.functional_rank"),
    )
    m["hkbasis.rank4_probes"] = (result.counts.get("rank4", 0), "count")
    m["cli.bytes_written"] = (result.counts.get("bytes_written", 0), "B")
    return m


def traced_run(workload):
    """Untraced, TRACED_PASSES traced, untraced again: the untraced passes on
    both sides keep a steady drift in machine speed out of the overhead."""
    before = workload.run_pass()
    tracer = Tracer()
    traced, bounds = [], []
    with installed(tracer, workload.api):
        for _ in range(TRACED_PASSES):
            lo = len(tracer)
            traced.append(workload.run_pass(tracer))
            bounds.append((lo, len(tracer)))
    after = workload.run_pass()
    layers = [per_layer(SpanTable(tracer, lo, hi), r, workload) for (lo, hi), r in zip(bounds, traced)]
    overhead = statistics.median(pass_seconds(p) for p in traced) - statistics.median(
        pass_seconds(p) for p in (before, after)
    )
    layers[-1]["trace.overhead_s"] = (overhead, "s")
    return [before, *traced, after], layers, tracer


def self_check(passes, layers) -> list:
    """Deterministic values must repeat exactly across passes at one seed."""
    problems = []
    first = passes[0]
    for i, p in enumerate(passes[1:], start=2):
        if p.digests != first.digests:
            problems.append(f"pass {i}: output digests differ from pass 1")
        if p.counts != first.counts:
            problems.append(f"pass {i}: work counts {p.counts} differ from pass 1 {first.counts}")
    if layers:
        for name, (value, unit) in layers[0].items():
            if unit in DETERMINISTIC_UNITS and layers[-1][name][0] != value:
                problems.append(f"{name}: {value} in the first traced pass, {layers[-1][name][0]} in the last")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kahanmaps", "__init__.py")):
        print(f"error: the kahanmaps package is missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    env = environment()
    out_dir = os.path.join(OUT, args.workload, f"seed{args.seed}")
    workload, setup_times, setup_refs = set_up(WORKLOADS[args.workload], args.seed, out_dir)
    if args.trace:
        passes, layers, tracer = traced_run(workload)
        metrics, notes = layers[-1], {}
        shown = dict(metrics)
    else:
        passes, layers, tracer = timed_passes(workload, args.seconds), [], None
        metrics, raw, notes = end_to_end(passes, setup_times, setup_refs)
        shown = {**metrics, **raw, **rates(passes)}
    ops = [op for p in passes for op in p.ops]
    failures = [op for op in ops if op.error is not None]
    problems = self_check(passes, layers)
    shown["fail_ratio"] = (len(failures) / len(ops), "ratio")

    print(
        f"{args.workload} seed {args.seed}: python {env['python']}, numpy {env['numpy']}, "
        f"{env['blas']}, nproc {env['nproc']}, load {env['loadavg_1m']:.2f}"
    )
    print(f"  {len(passes)} passes, {len(ops)} operations, {len(failures)} failed")
    for name, (value, unit) in shown.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<48} {value:>14.6g} {unit}{note}")
    for key, digest in sorted(passes[0].digests.items()):
        print(f"  sha256 {key:<34} {digest}")
    for op in failures:
        print(f"  FAILED {op.label}: {op.error}")
    for problem in problems:
        print(f"  SELF-CHECK {problem}")

    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"trace{args.trace}")
    if tracer is not None:
        tracer.save(stem + "-spans.npz")
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": env,
        "setup_s": setup_times,
        "setup_ref_s": setup_refs,
        "pass_s": [pass_seconds(p) for p in passes],
        "operations": [
            {"label": op.label, "seconds": op.seconds, "ref_s": op.ref_s, "error": op.error} for op in ops
        ],
        "counts": passes[0].counts,
        "digests": passes[0].digests,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        "self_check": problems,
    }
    with open(stem + "-result.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    summary = {
        "correct": not failures and not problems,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
