"""Golden outputs: simulate, verify, hk-scan and report at seed 1 must write
the same bytes as the recorded digests in golden_seed1.json.

The catalog configs there are the benchmark's; for a fixed config and seed,
orbit.csv, verify.json, hkscan.json and report.txt (verify and hk-scan
together) stay byte-identical across refactors unless a change says why
they move (and then records the new digests).
"""

import hashlib
import json
import os

import pytest

from kahanmaps.cli import parse_config, run_command

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
