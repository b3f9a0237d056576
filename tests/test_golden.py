"""Golden outputs: simulate, verify, hk-scan and report at seed 1 must write
the same bytes as the recorded digests in golden_seed1.json.

The catalog configs there are the benchmark's; for a fixed config and seed,
orbit.csv, verify.json, hkscan.json and report.txt (verify and hk-scan
together) stay byte-identical across refactors unless a change says why
they move (and then records the new digests).

The "probe_eps" section pins hk-scan and report the same way at eps 0.4,
the rank probes' step size, so the window decisions keep their bytes at a
second step size.

The "rank_probes" section pins the bits of hk_detect's functional-rank
probes: the Wronskian ratios J1..J4 of general_clebsch at the 20 seed-1
shell points, drawn as the benchmark draws them. It holds the sha256 of
their unit-gradient rows, all 20 probes' rows in draw order, and the 20
ranks.

The "edges" section pins simulate at step sizes where the orbit meets a pole
or its denominator leaves the float range: each run's exit status, stderr and
the digest of its orbit.csv (null when none is written).
"""

import hashlib
import json
import os

import numpy as np
import pytest

from kahanmaps.cli import main, parse_config, run_command
from kahanmaps.hkbasis import _unit_gradients, functional_rank, wronskian_ratio_integral
from kahanmaps.integrals import denominator_witnesses
from kahanmaps.systems import build_system

with open(os.path.join(os.path.dirname(__file__), "golden_seed1.json"), encoding="utf-8") as fh:
    GOLDEN = json.load(fh)
OUTPUT = {
    "simulate": "orbit.csv",
    "verify": "verify.json",
    "hk-scan": "hkscan.json",
    "report": "report.txt",
}


@pytest.mark.parametrize("command", list(OUTPUT))
def test_outputs_match_recorded_digests(command, tmp_path):
    digests = {}
    for kind in GOLDEN["digests"][command]:
        cfg = parse_config(overrides={**GOLDEN["configs"][kind], "seed": GOLDEN["seed"]})
        out = tmp_path / kind
        run_command(cfg, command, str(out))
        digests[kind] = hashlib.sha256((out / OUTPUT[command]).read_bytes()).hexdigest()
    assert digests == GOLDEN["digests"][command]


@pytest.mark.parametrize("command", list(GOLDEN["probe_eps"]["digests"]))
def test_probe_eps_outputs_match_recorded_digests(command, tmp_path):
    recorded = GOLDEN["probe_eps"]["digests"][command]
    digests = {}
    for kind in recorded:
        overrides = {**GOLDEN["configs"][kind], "seed": GOLDEN["seed"], "eps": GOLDEN["probe_eps"]["eps"]}
        out = tmp_path / kind
        run_command(parse_config(overrides=overrides), command, str(out))
        digests[kind] = hashlib.sha256((out / OUTPUT[command]).read_bytes()).hexdigest()
    assert digests == recorded


def shell_points(desc, seed, count, eps):
    """count draws of the shell 0.4 <= |x| <= 1 whose denominator witnesses
    all clear 1e-6, in the benchmark's rank-probe order."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        v = rng.standard_normal(desc.dim)
        x = v * (rng.uniform(0.4, 1.0) / float(np.linalg.norm(v)))
        if min(denominator_witnesses(desc, x, eps)) >= 1e-6:
            points.append(x)
    return points


def test_rank_probes_match_recorded_rows():
    probes = GOLDEN["rank_probes"]
    cfg = parse_config(overrides={**GOLDEN["configs"]["general_clebsch"], "seed": GOLDEN["seed"]})
    desc = build_system(cfg.kind, cfg.params)
    eps = probes["eps"]
    ratios = [
        wronskian_ratio_integral(desc.field, eps, order, num, probes["den"], window=probes["window"])
        for order, num in probes["orders_numerators"]
    ]
    points = shell_points(desc, GOLDEN["seed"], probes["points"], eps)
    rows = np.stack([_unit_gradients(ratios, x) for x in points])
    assert hashlib.sha256(rows.tobytes()).hexdigest() == probes["sha256"]
    assert [functional_rank(ratios, x) for x in points] == probes["ranks"]


def edge_run(kind, eps, out, capsys):
    """simulate on the catalog config of kind at seed 1 and the edges'
    step count: its exit status, stderr and orbit.csv digest."""
    out.mkdir()
    path = out / "config.json"
    path.write_text(json.dumps(GOLDEN["configs"][kind]), encoding="utf-8")
    argv = ["simulate", "--config", str(path), "--seed", str(GOLDEN["seed"])]
    argv += ["--steps", str(GOLDEN["edges"]["steps"]), "--eps", eps, "--out", str(out)]
    capsys.readouterr()
    code = main(argv)
    csv = out / "orbit.csv"
    digest = hashlib.sha256(csv.read_bytes()).hexdigest() if csv.exists() else None
    return {"exit": code, "stderr": capsys.readouterr().err, "sha256": digest}


@pytest.mark.parametrize("eps", ["1e10", "1e150"])
def test_edge_outputs_match_recorded_digests(eps, tmp_path, capsys):
    runs = {kind: edge_run(kind, eps, tmp_path / kind, capsys) for kind in GOLDEN["configs"]}
    assert runs == GOLDEN["edges"]["runs"][eps]
