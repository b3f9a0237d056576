"""Command-line front end: orbit simulation, property verification, and
Wronskian null-space scans, driven by a JSON config or flags.

Outputs are plain files (orbit.csv, verify.json, hkscan.json, report.txt)
written with fixed formatting so identical config and seed reproduce them
byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hkbasis import (
    WronskianBasisSpec,
    conjugate_pairs,
    default_window,
    hk_nullspace,
    iterate_orbit,
)
from .integrals import KahanPair
from .quadfield import KahanBatch, SingularStepError, kahan_orbit
from .systems import build_system, is_json_number, params_from_dict, params_to_dict
from .verify import draw_initial_state, reports_to_json, run_suites, suites_passed

__all__ = [
    "ExperimentConfig",
    "config_to_json_dict",
    "main",
    "parse_config",
    "run_command",
]

DEFAULT_EPS = 0.05
DEFAULT_STEPS = 1000
DEFAULT_SEED = 42
DEFAULT_TRIALS = 500

# Upper bound on steps x dim and on trials x dim, a memory budget. The
# largest allocation of steps is verify's conservation stack: (steps + 1) x
# names x dim float64 points plus, per step and name, the delta and
# threshold columns and the pole mask (17 bytes). first_clebsch has the
# most names, 9: at dim 6 that is 9 x (6 x 8 + 17) = 585 bytes per step.
# Measured as verify's peak RSS growth at dim 6, a unit of steps x dim
# costs 200 bytes (first_clebsch, 25 000 to 100 000 steps) and a unit of
# trials x dim 360 bytes (general_clebsch, 2 000 to 60 000 trials), so
# 2**21 units, 349 525 steps or trials at dim 6, peak near 0.8 GB. That
# figure holds near dim 6 only: a step of a dim-n state holds about 4 n^2
# doubles, so the cost per unit grows with n (ROADMAP item 8).
MAX_RUN_POINTS = 2**21

# config keys that are not system parameters when params are given flat
RESERVED_KEYS = frozenset(
    {"system", "params", "x0", "eps", "steps", "seed", "orders", "trials"}
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One validated experiment: a catalog system plus run settings."""

    kind: str
    params: object
    x0: Optional[np.ndarray]
    eps: float
    steps: int
    seed: int
    orders: Optional[tuple]
    trials: int


def _is_integer(value) -> bool:
    """A JSON integer, or a number with an integral value (1e3): one that
    int() takes without truncating."""
    return is_json_number(value) and (isinstance(value, int) or value.is_integer())


def _integer(doc: dict, key: str, default: int, low: int, dim: Optional[int] = None) -> int:
    """The integer doc[key], at least low; with dim, at most
    MAX_RUN_POINTS // dim."""
    value = doc.get(key, default)
    if not _is_integer(value):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{key} must be >= {low}, got {value!r}")
    if dim is not None and value > MAX_RUN_POINTS // dim:
        raise ValueError(
            f"{key} must be <= {MAX_RUN_POINTS // dim} for a {dim}-dimensional system "
            f"({key} x dim <= {MAX_RUN_POINTS}), got {value!r}"
        )
    return int(value)


def parse_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Read a JSON config and/or flag overrides into a validated config.

    Defaults: eps=0.05, steps=1000, seed=42, trials=500.  System parameters
    may sit under a "params" key or flat at top level, not both.
    """
    doc: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
    if overrides:
        doc = {**doc, **{k: v for k, v in overrides.items() if v is not None}}
    if "system" not in doc:
        raise ValueError("config missing required field 'system'")
    kind = doc["system"]
    raw = {k: v for k, v in doc.items() if k not in RESERVED_KEYS}
    if "params" in doc:
        if raw:
            raise ValueError(
                f"system parameters given both nested and flat: {sorted(raw)}"
            )
        if not isinstance(doc["params"], dict):
            raise ValueError("'params' must be a JSON object")
        raw = doc["params"]
    ell = raw.get("ell") if kind == "planar_family" else None
    # Building a planar field of dimension n = len(ell) peaks at about 7 n^3
    # doubles: quad, its copies and the step tensor (tracemalloc: 3.5, 27.7
    # and 93.1 MB at n = 40, 80 and 120). Counting each double as one unit
    # of MAX_RUN_POINTS, as a unit of steps x dim is one float64
    # coordinate, 7 n^3 <= 2**21 gives n <= 66, a 16 MB peak.
    limit = int((MAX_RUN_POINTS / 7) ** (1 / 3))
    if isinstance(ell, list) and len(ell) > limit:
        raise ValueError(
            f"ell must have at most {limit} entries (7 x len(ell)^3 <= {MAX_RUN_POINTS}), got {len(ell)}"
        )
    params = params_from_dict(kind, raw)
    desc = build_system(kind, params)

    x0 = None
    if doc.get("x0") is not None:
        listed = doc["x0"]
        if not isinstance(listed, list) or not all(is_json_number(v) for v in listed):
            raise ValueError(f"x0 must be a list of finite numbers, got {listed!r}")
        x0 = np.array(listed, dtype=float)
        if x0.shape != (desc.dim,):
            raise ValueError(
                f"x0 must have {desc.dim} components for {kind}, got shape {x0.shape}"
            )

    eps = doc.get("eps", DEFAULT_EPS)
    if not is_json_number(eps):
        raise ValueError(f"eps must be a finite number, got {eps!r}")
    eps = float(eps)
    steps = _integer(doc, "steps", DEFAULT_STEPS, 0, desc.dim)
    seed = _integer(doc, "seed", DEFAULT_SEED, 0)
    trials = _integer(doc, "trials", DEFAULT_TRIALS, 1, desc.dim)
    orders = None
    if doc.get("orders") is not None:
        listed = doc["orders"]
        if not isinstance(listed, list) or not listed or not all(_is_integer(o) and o >= 1 for o in listed):
            raise ValueError(f"orders must be a non-empty list of integers >= 1, got {listed!r}")
        orders = tuple(int(o) for o in listed)
        if len(set(orders)) != len(orders):
            raise ValueError(f"orders must not repeat an order, got {listed!r}")
        # hk-scan steps one orbit window - 1 + max(orders) steps long, its
        # window set by the dim // 2 conjugate coordinate pairs; that orbit
        # is bounded as steps are
        window = default_window(desc.dim // 2)
        limit = MAX_RUN_POINTS // desc.dim - (window - 1)
        if max(orders) > limit:
            raise ValueError(
                f"orders must be <= {limit} for a {desc.dim}-dimensional system "
                f"((window - 1 + order) x dim <= {MAX_RUN_POINTS}, window {window}), got {max(orders)}"
            )
    return ExperimentConfig(
        kind=kind,
        params=params,
        x0=x0,
        eps=eps,
        steps=steps,
        seed=seed,
        orders=orders,
        trials=trials,
    )


def config_to_json_dict(cfg: ExperimentConfig) -> dict:
    """Canonical JSON form; parsing it again reproduces the same config."""
    return {
        "system": cfg.kind,
        "params": params_to_dict(cfg.params),
        "x0": None if cfg.x0 is None else [float(v) for v in cfg.x0],
        "eps": cfg.eps,
        "steps": cfg.steps,
        "seed": cfg.seed,
        "orders": None if cfg.orders is None else list(cfg.orders),
        "trials": cfg.trials,
    }


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write(out_dir: str, name: str, lines: list) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _resolve_x0(cfg: ExperimentConfig, desc) -> np.ndarray:
    if cfg.x0 is not None:
        return np.asarray(cfg.x0, dtype=float)
    rng = np.random.default_rng(cfg.seed)
    return draw_initial_state(rng, desc, cfg.eps)


def _first_step_pole(exc: SingularStepError) -> ValueError:
    return ValueError(f"orbit hits a pole at the first step: {exc}")


def _simulate(cfg: ExperimentConfig, desc, out_dir: str) -> int:
    # row k shows point k, and its bilinear columns pair it with point k + 1,
    # so the orbit takes one step past the last row
    steps = cfg.steps + 1 if cfg.steps else 0
    orbit = kahan_orbit(desc.field, _resolve_x0(cfg, desc)[None], cfg.eps, steps)
    if steps and orbit.pole[0, 0]:
        raise _first_step_pole(orbit.pole_error((0, 0)))
    end = int(orbit.ends()[0])
    rows = min(end, cfg.steps)
    columns = list(desc.integral_names) + [f"density_{d}" for d in desc.density_names]
    # a pole in the step from the last row's point blanks its pair columns
    pair = KahanPair(desc, orbit.next[:rows, 0], cfg.eps, KahanBatch(*(f[1 : rows + 1, 0] for f in orbit)))
    table = np.empty((rows, len(columns)))
    for j, name in enumerate(columns):
        values = pair.value(name)
        table[:, j] = np.where(values.fail, np.nan, values.value)
    cells = np.column_stack([orbit.next[:rows, 0], orbit.delta[:rows, 0], table])
    header = ["step"] + [f"x{i + 1}" for i in range(desc.dim)] + ["delta"] + columns
    # %.17g writes the bytes of _fmt, nan, inf and -0 included
    row_format = "%d," + ",".join(["%.17g"] * cells.shape[1])
    lines = [",".join(header)] + [row_format % (k, *row) for k, row in enumerate(cells.tolist(), 1)]
    _write(out_dir, "orbit.csv", lines)
    if end < cfg.steps:
        print(f"orbit truncated: pole at step {end + 1} of {cfg.steps}", file=sys.stderr)
    return 0


def _verify_reports(cfg: ExperimentConfig, desc) -> list:
    return run_suites(
        [desc], eps=cfg.eps, trials=cfg.trials, steps=cfg.steps, seed=cfg.seed
    )


def _verify(cfg: ExperimentConfig, desc, out_dir: str) -> int:
    reports = _verify_reports(cfg, desc)
    _write(out_dir, "verify.json", [reports_to_json(reports)])
    return 0 if suites_passed(reports) else 1


def _scan_orders(cfg: ExperimentConfig, desc):
    if not desc.wronskian_orders:
        raise ValueError(
            f"hk-scan needs conjugate coordinate pairs; '{cfg.kind}' has none"
        )
    orders = cfg.orders if cfg.orders is not None else (1, 2, 3, 4)
    pairs = conjugate_pairs(desc.dim)
    window = default_window(len(pairs))
    x0 = _resolve_x0(cfg, desc)
    # one orbit long enough for the highest order; each window reads a prefix
    steps = window - 1 + max(orders)
    try:
        orbit = iterate_orbit(desc.field, x0, cfg.eps, steps)
    except SingularStepError as exc:
        raise _first_step_pole(exc) from exc
    if len(orbit) <= steps:
        raise ValueError(f"orbit hits a pole at step {len(orbit)} of the {steps} the scan needs")
    results = []
    for order in orders:
        observables = WronskianBasisSpec(order=order, pairs=pairs).observables()
        results.append((order, hk_nullspace(orbit, observables, window)))
    return x0, window, results


def _hk_scan(cfg: ExperimentConfig, desc, out_dir: str) -> int:
    x0, window, results = _scan_orders(cfg, desc)
    doc = {
        "system": cfg.kind,
        "eps": cfg.eps,
        "seed": cfg.seed,
        "x0": [float(v) for v in x0],
        "window": window,
        "orders": [
            {"order": order, **report.to_json_dict()} for order, report in results
        ],
    }
    _write(out_dir, "hkscan.json", [json.dumps(doc, indent=2)])
    return 0


def _report(cfg: ExperimentConfig, desc, out_dir: str) -> int:
    reports = _verify_reports(cfg, desc)
    lines = [
        "kahan map property report",
        f"system: {cfg.kind}",
        f"eps: {_fmt(cfg.eps)}  steps: {cfg.steps}  trials: {cfg.trials}  seed: {cfg.seed}",
        "",
    ]
    for rep in reports:
        tag = "PASS" if rep.passed else "FAIL"
        lines.append(
            f"[{tag}] {rep.description}"
            f"  (worst {rep.max_violation:.3e}, tolerance {rep.tolerance:.0e},"
            f" skipped {rep.skipped})"
        )
    all_passed = suites_passed(reports)
    if desc.wronskian_orders:
        lines.append("")
        _, _, results = _scan_orders(cfg, desc)
        for order, hk in results:
            expected = order in desc.wronskian_orders
            ok = hk.null_dim == 1 and hk.gap_ratio >= 1e6
            if expected:
                tag = "PASS" if ok else "FAIL"
                all_passed = all_passed and ok
            else:
                tag = "INFO"
            gap = "inf" if not np.isfinite(hk.gap_ratio) else f"{hk.gap_ratio:.3e}"
            lines.append(
                f"[{tag}] order-{order} Wronskian null space"
                f"  (dimension {hk.null_dim}, spectral gap {gap})"
            )
    lines.append("")
    lines.append(f"overall: {'PASS' if all_passed else 'FAIL'}")
    _write(out_dir, "report.txt", lines)
    return 0 if all_passed else 1


_COMMANDS = {
    "simulate": _simulate,
    "verify": _verify,
    "hk-scan": _hk_scan,
    "report": _report,
}


def run_command(cfg: ExperimentConfig, command: str, out_dir: str = ".") -> int:
    """Run one command against a validated config; returns the exit status."""
    if command not in _COMMANDS:
        raise ValueError(f"unknown command '{command}'")
    os.makedirs(out_dir, exist_ok=True)
    return _COMMANDS[command](cfg, build_system(cfg.kind, cfg.params), out_dir)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kahanmaps",
        description=(
            "Simulate and verify the birational maps obtained by polarizing "
            "quadratic vector fields"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in (
        ("simulate", "write an orbit with per-step integral columns to orbit.csv"),
        ("verify", "run the property suites and write verify.json"),
        ("hk-scan", "write Wronskian null-space reports to hkscan.json"),
        ("report", "write a human-readable pass/fail summary to report.txt"),
    ):
        cmd = sub.add_parser(command, help=text)
        cmd.add_argument("--config", help="JSON config file")
        cmd.add_argument("--system", help="system kind (overrides config)")
        cmd.add_argument("--eps", type=float, help="step parameter")
        cmd.add_argument("--steps", type=int, help="orbit length")
        cmd.add_argument("--seed", type=int, help="seed for random draws")
        cmd.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        "system": args.system,
        "eps": args.eps,
        "steps": args.steps,
        "seed": args.seed,
    }
    try:
        cfg = parse_config(args.config, overrides)
        return run_command(cfg, args.command, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
