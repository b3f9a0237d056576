"""Shared catalog instances and small helpers for the test suite."""

import math

import numpy as np

from continuous import spectral_params
from kahanmaps import quadfield
from kahanmaps.integrals import denominator_witnesses
from kahanmaps.systems import (
    ClebschParams,
    FirstClebschParams,
    KirchhoffParams,
    LagrangeParams,
    PlanarFamilyParams,
    SecondClebschParams,
    build_system,
)

OMEGA = (1.0, 2.0, 3.0)


def planar_extra(n=3):
    # one deliberately non-trivial third component; the planar claims must
    # not depend on it
    extra_quad = np.zeros((n - 2, n, n))
    extra_quad[0, 0, 0] = 0.3
    extra_quad[0, 0, 1] = extra_quad[0, 1, 0] = -0.2
    extra_lin = np.zeros((n - 2, n))
    extra_lin[0] = (0.1, 0.0, -0.4)  # damped third component, keeps long orbits bounded
    extra_const = np.full(n - 2, 0.25)
    return extra_quad, extra_lin, extra_const


def make_params(kind):
    if kind == "general_clebsch":
        return spectral_params(0.7, 1.3, (0.3, 1.1, 2.4))
    if kind == "first_clebsch":
        return FirstClebschParams(omega=OMEGA)
    if kind == "second_clebsch":
        return SecondClebschParams(omega=OMEGA)
    if kind == "kirchhoff":
        return KirchhoffParams(a1=1.0, a3=2.0, b1=1.0, b3=3.0)
    if kind == "lagrange":
        return LagrangeParams(alpha=2.0, gamma=1.0)
    if kind == "planar_family":
        eq, el, ec = planar_extra()
        return PlanarFamilyParams(
            qform=(1.0, 0.5, 2.0),  # definite, bounded level sets for long orbits
            ell=(1.0, -1.0, 0.3),
            ell0=0.2,
            extra_quad=eq,
            extra_lin=el,
            extra_const=ec,
        )
    raise ValueError(kind)


def make_system(kind):
    return build_system(kind, make_params(kind))


def unit_ball(rng, n):
    v = rng.standard_normal(n)
    return v * rng.uniform(0.05, 1.0) / np.linalg.norm(v)


def safe_state(rng, desc, eps=0.05):
    # redraw until every integral denominator is finite and safely away from
    # zero; give up after 1000 draws, naming the lowest witness seen
    binding = (math.inf, None, math.nan)
    for _ in range(1000):
        x = unit_ball(rng, desc.dim)
        ranked = [
            (w if math.isfinite(w) else -math.inf, i, w)
            for i, w in enumerate(denominator_witnesses(desc, x, eps))
        ]
        if ranked and min(ranked)[0] >= 1e-6:
            return x
        binding = min([binding] + ranked)
    raise ValueError(
        f"no {desc.kind} state with every denominator witness finite and >= 1e-6 "
        "in 1000 draws; binding witness: "
        f"denominator_witnesses[{binding[1]}] = {binding[2]:.3e}"
    )


def place_pole(monkeypatch, x):
    """Make the Kahan step from every point equal to x a pole, whatever the
    field and step size: the step matrix reads an infinite norm at such a
    row, so the pole threshold is inf there, and kahan_orbit and every
    caller of it, the one-state oracle in scalar_table included, see the
    pole from the same code."""
    target = np.array(x, dtype=float)
    step_matrix = quadfield._step_matrix

    def placed(field, point, eps):
        mat, det, norm = step_matrix(field, point, eps)
        return mat, det, np.where((point == target).all(axis=-1), math.inf, norm)

    monkeypatch.setattr(quadfield, "_step_matrix", placed)


SIX_DIM_KINDS = ("general_clebsch", "first_clebsch", "second_clebsch", "kirchhoff", "lagrange")
ALL_KINDS = SIX_DIM_KINDS + ("planar_family",)
