"""The public names the benchmark and the package's modules export resolve.

perfbench/tracer.py wraps every LAYERS function by getattr on its module,
so a name pruned from the package without updating LAYERS would break the
benchmark; this catches it in the test suite instead.
"""

import importlib
import importlib.util
import os

import pytest

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
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


@pytest.mark.parametrize("layer", MODULES)
def test_all_names_resolve(layer):
    module = importlib.import_module(f"kahanmaps.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
