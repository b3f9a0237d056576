"""Span tracing of the kahanmaps modules, installed from outside the package.

The package's modules import one another's functions by name (``kahan_step``
is bound in quadfield, integrals, verify, hkbasis, cli and the package
root), so a traced function is replaced in every module that holds it, and
restored afterwards.  ``numpy.linalg.svd`` is traced only as hkbasis calls
it: hkbasis gets its own copy of the numpy namespace whose ``linalg.svd`` is
wrapped.

A span is (name, start, end, parent span, operation id).  Spans live in
flat arrays in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import types
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# The public functions traced per layer; a layer is a package module.
LAYERS = {
    "quadfield": ("kahan_step", "map_jacobian", "delta"),
    "integrals": ("evaluate_named", "eval_density", "denominator_witnesses"),
    "verify": (
        "check_reversibility",
        "check_conservation",
        "check_measure",
        "check_identities_clebsch1",
        "draw_initial_state",
    ),
    "hkbasis": ("iterate_orbit", "hk_nullspace", "extract_integral_ratios", "functional_rank"),
    "systems": ("central_gradient", "build_system"),
    "cli": ("run_command",),
}
SVD_SPAN = "hkbasis.svd"
OP_SPAN = "op"


class Tracer:
    """Records nested spans of wrapped calls in flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._op = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def wrap(self, name: str, fn):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, t0, perf_counter())

        return traced

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation; its id tags every child."""
        self._op = op_id
        idx = self._open(self.name_id(OP_SPAN))
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, perf_counter())
            self._op = -1

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict:
        hi = len(self) if hi is None else hi
        return {
            "name": np.frombuffer(self.name, dtype=np.int32)[lo:hi].copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32)[lo:hi] - lo,
            "op": np.frombuffer(self.op, dtype=np.int32)[lo:hi].copy(),
            "start": np.frombuffer(self.start, dtype=np.float64)[lo:hi].copy(),
            "end": np.frombuffer(self.end, dtype=np.float64)[lo:hi].copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


@contextmanager
def installed(tracer: Tracer, api):
    """Wrap every LAYERS function in every package module that binds it."""
    modules = [api.package] + [getattr(api, layer) for layer in LAYERS]
    restore = []
    for layer, fns in LAYERS.items():
        home = getattr(api, layer)
        for fn_name in fns:
            original = getattr(home, fn_name)
            wrapped = tracer.wrap(f"{layer}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        restore.append((mod, attr, original))
    hk = api.hkbasis
    real_np = hk.np
    np_view = types.ModuleType(real_np.__name__)
    np_view.__dict__.update(real_np.__dict__)
    np_view.linalg = types.ModuleType(real_np.linalg.__name__)
    np_view.linalg.__dict__.update(real_np.linalg.__dict__)
    np_view.linalg.svd = tracer.wrap(SVD_SPAN, real_np.linalg.svd)
    hk.np = np_view
    restore.append((hk, "np", real_np))
    try:
        yield tracer
    finally:
        for mod, attr, original in reversed(restore):
            setattr(mod, attr, original)


def _has_ancestor(spans: dict, idx: np.ndarray, nid: int) -> np.ndarray:
    """For each span in idx: is some ancestor named nid?"""
    parent = spans["parent"]
    found = np.zeros(idx.shape[0], dtype=bool)
    p = parent[idx]
    while (p >= 0).any():
        live = p >= 0
        found[live] |= spans["name"][p[live]] == nid
        p = np.where(live, parent[np.maximum(p, 0)], -1)
    return found


class SpanTable:
    """Per-name calls, inclusive and self time over one slice of spans."""

    def __init__(self, tracer: Tracer, lo: int, hi: int) -> None:
        self.tracer = tracer
        self.spans = tracer.arrays(lo, hi)
        names, parent = self.spans["name"], self.spans["parent"]
        dur = self.spans["end"] - self.spans["start"]
        child = np.bincount(
            parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.shape[0]
        )
        width = len(tracer.names)
        self.calls = np.bincount(names, minlength=width)
        self.total_s = np.bincount(names, weights=dur, minlength=width)
        self.self_s = np.bincount(names, weights=dur - child, minlength=width)

    def _nid(self, name: str) -> int:
        return self.tracer._ids.get(name, -1)

    def count(self, name: str) -> int:
        nid = self._nid(name)
        return int(self.calls[nid]) if nid >= 0 else 0

    def self_time(self, name: str) -> float:
        nid = self._nid(name)
        return float(self.self_s[nid]) if nid >= 0 else 0.0

    def total_time(self, name: str) -> float:
        nid = self._nid(name)
        return float(self.total_s[nid]) if nid >= 0 else 0.0

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called name with some ancestor called ancestor."""
        nid, aid = self._nid(name), self._nid(ancestor)
        if nid < 0 or aid < 0:
            return 0
        idx = np.flatnonzero(self.spans["name"] == nid)
        return int(_has_ancestor(self.spans, idx, aid).sum())

    def count_in_op(self, name: str, op_id: int) -> int:
        nid = self._nid(name)
        if nid < 0:
            return 0
        return int(((self.spans["name"] == nid) & (self.spans["op"] == op_id)).sum())
