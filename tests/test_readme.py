"""The README's library sketch runs against the package as it is."""

import re
from pathlib import Path

import numpy as np

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
