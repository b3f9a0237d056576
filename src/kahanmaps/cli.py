"""Command-line front end: orbit simulation, property verification, and
Wronskian null-space scans, driven by a JSON config or flags.

Outputs are plain files (orbit.csv, verify.json, hkscan.json, report.txt)
written with fixed formatting so identical config and seed reproduce them
byte for byte. orbit.csv's cells are the bytes of '%.17g', formatted in
numpy 256 rows at a time from exact 17-digit decimals (_cell_bytes).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from .hkbasis import GAP_RATIO_FLOOR, _order_reports, conjugate_pairs, default_window, iterate_orbit
from .integrals import KahanPair
from .quadfield import KahanBatch, SingularStepError, _Frozen, _is_real, kahan_orbit
from .systems import build_system, params_from_dict, params_to_dict
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


class ExperimentConfig(_Frozen, eq=True):
    """One validated experiment: a catalog system plus run settings."""

    def __init__(
        self,
        kind: str,
        params: object,
        x0: Optional[np.ndarray],
        eps: float,
        steps: int,
        seed: int,
        orders: Optional[tuple],
        trials: int,
    ) -> None:
        self._init(locals())


def _is_integer(value) -> bool:
    """A JSON integer, or a number with an integral value (1e3): one that
    int() takes without truncating (JSON has one number type)."""
    return _is_real(value) and (isinstance(value, int) or value.is_integer())


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
        if not isinstance(listed, list) or not all(_is_real(v) for v in listed):
            raise ValueError(f"x0 must be a list of finite numbers, got {listed!r}")
        x0 = np.array(listed, dtype=float)
        if x0.shape != (desc.dim,):
            raise ValueError(
                f"x0 must have {desc.dim} components for {kind}, got shape {x0.shape}"
            )

    eps = doc.get("eps", DEFAULT_EPS)
    if not _is_real(eps):
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


# orbit.csv's writer formats a value as '%.17g' would, in a cell of four
# little-endian 64-bit words: the sign, a "0.000" prefix and the first digit
# in word 0, digits 2-17 and the point in words 1-3, then an exponent suffix
# and the separator in word 3. Bytes left zero are dropped on output. Rows
# go 256 at a time, so the buffers stay near 1.7 MB whatever the orbit's
# length.
TABLE_BLOCK_ROWS = 256
_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles


def _split(a):
    t = 134217729.0 * a  # 2**27 + 1: hi keeps the upper 26 bits of a
    hi = t - (t - a)
    return hi, a - hi


def _low(j: int) -> int:
    """The bytes of a word below byte j, j clipped to 0..8."""
    return (1 << 8 * min(max(j, 0), 8)) - 1


def _word(text: bytes) -> int:
    return int.from_bytes(text, "little")


def _words(rows: list) -> np.ndarray:
    """int64 words holding the bits of Python ints below 2**64."""
    return np.array(rows, np.uint64).view(np.int64)


_POW_HI, _POW_LO = _split(_POW10)
# by the first digit's decimal exponent e, -6..15, at e + 6: the prefix
# after the sign byte, the suffix after the digits, and the digit before
# the point (-1: the prefix holds it)
_PREFIX = _words([0, 0] + [_word(b"\0" + b"0." + b"0" * z) for z in range(3, -1, -1)] + [0] * 16)
_SUFFIX = _words([_word(b"\0e-06"), _word(b"\0e-05")] + [0] * 20)
_POINT = np.array([0, 0, -1, -1, -1, -1] + list(range(16)))
# by kept digits L: the "0" to add to the digit values of words 1 and 2
_ZEROS = _word(b"0" * 8)
_KEEP = _words([[_low(n - 1) & _ZEROS, _low(n - 9) & _ZEROS] for n in range(18)]).T.copy()
# at p + 1 for a point after digit p, counted from 0, and at 0 for no point
# (p = 16): in words 1 and 2, the bytes that stay and the bytes that take
# the digits shifted up by one; the byte between them takes the point
_INSERT = _words([[_low(p), _low(8) ^ _low(p + 1), _low(p - 8), _low(8) ^ _low(p - 7)] for p in (16, *range(16))]).T.copy()
_POINTS = _word(b"." * 8)


def _two_product(a: np.ndarray, k: np.ndarray):
    """a * 10**k as hi + lo exactly (Dekker's TwoProduct, 1971)."""
    hi = a * _POW10[k]
    ah, al = _split(a)
    bh, bl = _POW_HI[k], _POW_LO[k]
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _digit_bytes(m: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each m < 10**8, first digit in the lowest byte:
    halves in 32-bit lanes, then pairs and digits in 16- and 8-bit lanes, as
    x * 5243 >> 19 and x * 103 >> 10 are x // 100 and x // 10 there."""
    a = m // 10**4
    x = a | (m - a * 10**4) << 32
    q = (x * 5243 >> 19) & 0x7F_0000007F
    y = q | (x - q * 100) << 16
    t = (y * 103 >> 10) & 0x000F_000F_000F_000F
    return t | (y - t * 10) << 8


def _cell_bytes(v: np.ndarray) -> np.ndarray:
    """'%.17g' % v for each value of v, as [len(v), 32] bytes, those unused zero.

    A nonzero |v| in [1e-6, 1e16) takes the 17 digits of |v| * 10**k, k in
    1..22 so that 10**k is exact: hi + lo from TwoProduct is that product
    exactly, and comparing it, not its rounding, with 1e16 and 1e17 fixes
    k. hi is then an even integer above 2**53, so hi + rint(lo) rounds half
    to even as '%.17g' does. Other values, and a product that rounds up to
    1e17, take '%.17g' itself.
    """
    a = np.abs(v)
    near = (a >= 1e-7) & (a < 1e17)
    a = np.where(near, a, 1.0)
    k = np.clip(16 - np.floor(np.log10(a)).astype(np.intp), 1, 22)
    hi, lo = _two_product(a, k)
    k += (hi < 1e16) | ((hi == 1e16) & (lo < 0))  # log10 may miss by one
    k -= (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    np.clip(k, 1, 22, out=k)
    hi, lo = _two_product(a, k)
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    fast = near & ((hi > 1e16) | ((hi == 1e16) & (lo >= 0))) & (n < 10**17)
    first = n // 10**16
    rest = n - first * 10**16
    upper = rest // 10**8
    w1, w2 = _digit_bytes(upper), _digit_bytes(rest - upper * 10**8)
    row = 22 - k  # the first digit's decimal exponent + 6
    # digits through the last nonzero one; each digit byte is below 10
    last = np.where(w2 > 0, w2, w1)
    significant = 1 + 8 * (w2 > 0) + (np.frexp(last.astype(float))[1] + 7) // 8
    point = _POINT[row]
    kept = np.maximum(significant, point + 1)
    keep1, keep2 = _KEEP.take(kept, axis=1)
    w1 += keep1
    w2 += keep2
    keep1, shift1, keep2, shift2 = _INSERT.take(np.where(kept > point + 1, point + 1, 0), axis=1)
    cells = np.empty((len(v), 4), "<i8")
    cells[:, 0] = _PREFIX[row] | (first + 48) << 56 | (v < 0) * 45
    cells[:, 1] = (w1 & keep1) | (w1 << 8 & shift1) | (~(keep1 | shift1) & _POINTS)
    cells[:, 2] = (w2 & keep2) | ((w2 << 8 | w1 >> 56) & shift2) | (~(keep2 | shift2) & _POINTS)
    cells[:, 3] = (w2 & ~keep2) >> 56 | _SUFFIX[row]
    chars = cells.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        chars[slow] = 0
        chars[slow, :24] = np.array(["%.17g" % x for x in v[slow].tolist()], "S24").view(np.uint8).reshape(-1, 24)
    return chars


def _write_table(fh, header: list, cells: np.ndarray) -> None:
    """Write to binary file fh a CSV of the header and one line per row of
    cells, every value as '%.17g' writes it (an integral value below 1e16
    as '%d' does)."""
    fh.write((",".join(header) + "\n").encode())
    for start in range(0, len(cells), TABLE_BLOCK_ROWS):
        block = cells[start : start + TABLE_BLOCK_ROWS]
        chars = _cell_bytes(block.ravel()).reshape(block.shape + (32,))
        chars[..., -1] = ord(",")
        chars[:, -1, -1] = ord("\n")
        fh.write(chars.tobytes().translate(None, b"\0"))


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
    cells = np.column_stack([np.arange(1.0, rows + 1), orbit.next[:rows, 0], orbit.delta[:rows, 0], table])
    header = ["step"] + [f"x{i + 1}" for i in range(desc.dim)] + ["delta"] + columns
    with open(os.path.join(out_dir, "orbit.csv"), "wb") as fh:
        _write_table(fh, header, cells)
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
        raise ValueError(f"hk-scan: the catalog declares no Wronskian orders for '{cfg.kind}'")
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
    return x0, window, list(zip(orders, _order_reports(orbit, orders, pairs, window)))


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
            ok = hk.null_dim == 1 and hk.gap_ratio >= GAP_RATIO_FLOOR
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
