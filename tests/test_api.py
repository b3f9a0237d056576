"""The public names the benchmark and the package's modules export resolve.

perfbench/tracer.py wraps every LAYERS function by getattr on its module,
and perfbench/workloads.py calls the package through its api object, so a
name pruned from the package without updating the benchmark would break
it; this catches it in the test suite instead.
"""

import importlib
import importlib.util
import os
import re

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
TRACER_PATH = os.path.join(PERFBENCH, "tracer.py")
WORKLOADS_PATH = os.path.join(PERFBENCH, "workloads.py")
MODULES = ("cli", "integrals", "quadfield", "systems", "verify")  # those with __all__


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_layers_resolve():
    layers = load_tracer().LAYERS
    for layer, names in layers.items():
        module = importlib.import_module(f"kahanmaps.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"kahanmaps.{layer}.{name}"


def test_workload_names_resolve():
    # every api.<layer>.<name> and hk.<name> (hk is api.hkbasis) the
    # workloads read, found in the file's text rather than by importing it
    with open(WORKLOADS_PATH, encoding="utf-8") as fh:
        text = fh.read()
    assert set(re.findall(r"\bhk = (.+)", text)) == {"self.api.hkbasis"}
    used = set(re.findall(r"\bapi\.(\w+)\.(\w+)", text))
    used |= {("hkbasis", name) for name in re.findall(r"\bhk\.(\w+)", text)}
    assert ("integrals", "denominator_witnesses") in used and ("hkbasis", "functional_rank") in used
    missing = [
        f"kahanmaps.{layer}.{name}"
        for layer, name in sorted(used)
        if not hasattr(importlib.import_module(f"kahanmaps.{layer}"), name)
    ]
    assert not missing


@pytest.mark.parametrize("layer", MODULES)
def test_all_names_resolve(layer):
    module = importlib.import_module(f"kahanmaps.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
