"""The README's library sketch runs, and its catalog table lists the
package's kinds and keys, against the package as it is."""

import re
from pathlib import Path

import numpy as np

from kahanmaps.systems import KINDS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs_as_documented():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    names = {}
    exec(compile(blocks[0], str(README), "exec"), names)
    # the claims its comments make
    assert names["report"].null_dim == 1
    assert names["orbit"].shape == (11, 6) and not names["orbit"].flags.writeable
    assert np.array_equal(names["orbits"].ends(), [10, 10])


def test_catalog_table_matches_kinds():
    # one row per kind; the keys before "optional" are its required JSON
    # keys and the rest its optional ones, in the order its params class
    # declares them
    section = README.read_text(encoding="utf-8").split("## The catalog")[1].split("\n\n")[1]
    rows = {}
    for line in section.splitlines()[2:]:
        kind, _, keys = (cell.strip() for cell in line.strip("|").split("|"))
        required, _, optional = keys.partition("optional")
        rows[kind.strip("`")] = (
            tuple(re.findall(r"`(\w+)`", required)),
            tuple(re.findall(r"`(\w+)`", optional)),
        )
    expected = {}
    for kind, spec in KINDS.items():
        required = tuple(key for key, needed in spec.keys.items() if needed)
        expected[kind] = (required, tuple(key for key in spec.keys if key not in required))
    assert rows == expected
