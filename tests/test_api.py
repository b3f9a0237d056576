"""The public names the benchmark and the package's modules export resolve,
and each has a caller.

perfbench/tracer.py wraps every LAYERS function by getattr on its module,
and perfbench/workloads.py calls the package through its api object, so a
name pruned from the package without updating the benchmark would break
it; this catches it in the test suite instead.  The other way round, a
name the package exports but neither the package, the benchmark nor the
README sketch uses serves only the tests, and leaves the package.
Last, the package reaches numpy's private modules in two places only.
"""

import ast
import functools
import glob
import importlib
import importlib.util
import os
import re

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
TRACER_PATH = os.path.join(PERFBENCH, "tracer.py")
WORKLOADS_PATH = os.path.join(PERFBENCH, "workloads.py")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "kahanmaps")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
MODULES = ("cli", "hkbasis", "integrals", "quadfield", "systems", "verify")
# exported with no caller yet: the run manifest is to record the parsed
# config through it; no command uses the plain-function observables, but
# they state the paper's non-Wronskian HK bases (see the README)
UNCALLED = {
    ("cli", "config_to_json_dict"),
    ("hkbasis", "bilinear_observable"),
    ("hkbasis", "constant_observable"),
    ("hkbasis", "state_observable"),
}


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


def loaded_names(node):
    """The names read anywhere under node."""
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}


@functools.lru_cache(maxsize=None)
def callers():
    """Read once a session: per package module, the names each top-level
    statement reads, beside the name of the def or class it is (None for
    any other statement); the benchmark's sources; and the names the
    README sketch reads."""
    reads = {}
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        reads[os.path.splitext(os.path.basename(path))[0]] = [
            (top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None, loaded_names(top))
            for top in tree.body
        ]
    bench = ""
    for path in glob.glob(os.path.join(PERFBENCH, "*.py")):
        with open(path, encoding="utf-8") as fh:
            bench += fh.read()
    with open(README, encoding="utf-8") as fh:
        (sketch,) = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)
    return reads, bench, loaded_names(ast.parse(sketch))


@pytest.mark.parametrize("layer", MODULES)
def test_every_export_has_a_caller(layer):
    # a caller is a read of the name in the package (its own definition
    # aside), a word in the benchmark's sources, or a read in the README sketch
    module = importlib.import_module(f"kahanmaps.{layer}")
    reads, bench, sketch = callers()
    uncalled = []
    for name in module.__all__:
        read = any(
            name in names
            for other, tops in reads.items()
            for top, names in tops
            if not (other == layer and top == name)
        )
        if not (read or re.search(rf"\b{name}\b", bench) or name in sketch):
            uncalled.append(name)
    assert sorted(uncalled) == sorted(name for other, name in UNCALLED if other == layer)


def numpy_names(tree):
    """The numpy objects a module imports and those it reads, as dotted
    names under numpy. A read is a name or a whole attribute chain rooted
    at a name bound by an import from numpy."""
    bound, imported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    bound[alias.asname or "numpy"] = alias.name if alias.asname else "numpy"
                    imported.add(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                imported.add(f"{node.module}.{alias.name}")
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    read = set()
    for node in ast.walk(tree):
        if id(node) in inner or not isinstance(node, (ast.Name, ast.Attribute)):
            continue
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in bound:
            read.add(".".join([bound[node.id], *reversed(parts)]))
    return imported, read


def test_private_numpy_surface():
    # the numpy<3 cap in pyproject.toml covers these private names: the
    # LAPACK solve gufunc of every orbit step and the one map_jacobian
    # solves its stacks with. Reaching another is a decision, made by
    # editing this test
    def private(name):
        return any(part.startswith("_") and not part.endswith("__") for part in name.split("."))

    imported, read = set(), set()
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path, encoding="utf-8") as fh:
            names = numpy_names(ast.parse(fh.read()))
        imported |= names[0]
        read |= names[1]
    assert {name for name in imported if private(name)} == {"numpy.linalg._umath_linalg"}
    assert {name for name in read if private(name)} == {
        "numpy.linalg._umath_linalg.solve",
        "numpy.linalg._umath_linalg.solve1",
    }
    # and the scan sees the public ones
    assert "numpy.linalg.det" in read and "numpy" in imported
