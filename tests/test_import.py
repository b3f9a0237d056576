"""Importing the package generates no code: during `import kahanmaps.cli`
the only code that exec runs is the body of each module imported. A
dataclass exec-compiles its generated methods (__init__, __repr__,
__eq__, __setattr__ and the like) at every import, which cost about a
quarter of the package's import time; the package's classes are plain."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# numpy, argparse and json are preloaded, so only what the package itself
# imports is counted
SCRIPT = """
import argparse, builtins, json, sys
import numpy

before, names, real_exec = set(sys.modules), [], builtins.exec


def counting_exec(code, *args, **kwargs):
    names.append(getattr(code, "co_name", "a string"))
    return real_exec(code, *args, **kwargs)


builtins.exec = counting_exec
import kahanmaps.cli

builtins.exec = real_exec
print(json.dumps({"exec": names, "modules": sorted(set(sys.modules) - before)}))
"""


def test_import_runs_only_module_bodies():
    env = {**os.environ, "PYTHONPATH": os.path.abspath(SRC)}
    run = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True)
    found = json.loads(run.stdout)
    # each module imported, the package's and those it pulls in, runs its
    # body once, and nothing else is exec'd
    assert found["exec"] == ["<module>"] * len(found["modules"]), found
