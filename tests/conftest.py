"""Shared catalog instances and small helpers for the test suite."""

import math

import numpy as np
from numpy.polynomial import Polynomial

from continuous import spectral_params
from kahanmaps import quadfield
from kahanmaps.integrals import denominator_witnesses
from kahanmaps.quadfield import delta
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
    field and step size: when a block of kahan_orbit's stepped points comes
    to its pole decision, every such point is left open with the norm of
    its eps*f'(x) set to inf, and its det is taken there, so its norm and
    pole threshold are inf while its det keeps its value, and kahan_orbit
    and every caller of it, the one-state oracle in scalar_table included,
    see the pole from the same code."""
    target = np.array(x, dtype=float)
    denominators = quadfield._denominators

    def placed(points, mats, *args):
        det, rows, norms = denominators(points, mats, *args)
        at = (points[..., :-1] == target).all(axis=-1).reshape(-1)
        if not at.any():
            return det, rows, norms
        det[at] = np.linalg.det(mats.reshape(-1, *mats.shape[-2:])[at])
        every = np.full(det.shape, np.nan)
        every[rows] = norms
        every[at] = math.inf
        rows = np.union1d(rows, np.flatnonzero(at))
        return det, rows, every[rows]

    monkeypatch.setattr(quadfield, "_denominators", placed)


def count_stepped(monkeypatch):
    """The number of points each of kahan_orbit's pole decisions reads, one
    entry per block, from now on: every stepped point is read once."""
    counts = []
    denominators = quadfield._denominators

    def counted(points, *args):
        counts.append(points[..., 0].size)
        return denominators(points, *args)

    monkeypatch.setattr(quadfield, "_denominators", counted)
    return counts


def einsum_polarize(field, x, y):
    """The polarized field Q(x, y) + B (x + y)/2 + c of pairs of states or
    stacks x[..., n], y[..., n], as a frozen np.einsum expression that
    shares no kernel with the package."""
    return (
        np.einsum("ijk,...j,...k->...i", field.quad, x, y)
        + 0.5 * (field.lin @ (x + y)[..., None])[..., 0]
        + field.const
    )


def step_defect(field, x, x_next, eps):
    """Max-norm defect of the polarized defining equation
    x~ - x = 2 eps (Q(x, x~) + B (x + x~)/2 + c), per pair of states or
    stacks x[..., n], x~[..., n]; nan where x~ is."""
    x, x_next = np.asarray(x, dtype=float), np.asarray(x_next, dtype=float)
    return np.abs(x_next - x - 2.0 * eps * einsum_polarize(field, x, x_next)).max(axis=-1)


def pole_eps(field, x, span=30.0):
    """A real root of eps -> det(I - eps*f'(x)), a polynomial of degree n in
    eps, found from n + 1 samples and polished by Newton steps on delta
    itself; None when it has none in [-span, span]."""
    samples = np.linspace(-span, span, field.dim + 1)
    poly = Polynomial.fit(samples, [delta(field, x, e) for e in samples], field.dim)
    roots = [r.real for r in poly.roots() if abs(r.imag) <= 1e-9 * abs(r) and 0 < abs(r.real) <= span]
    if not roots:
        return None
    root, slope = min(roots, key=abs), poly.deriv()
    for _ in range(8):
        root -= delta(field, x, root) / slope(root)
    return root


SIX_DIM_KINDS = ("general_clebsch", "first_clebsch", "second_clebsch", "kirchhoff", "lagrange")
ALL_KINDS = SIX_DIM_KINDS + ("planar_family",)
