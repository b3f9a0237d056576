"""The one-state formula table, frozen as it stood before the formulas
took stacks: the per-row reference the stacked table is checked against.

Every formula here takes a one-state pair and returns a float or raises;
ScalarPair is the one-state KahanPair that evaluated them. Nothing in the
package imports this module.
"""

from typing import Callable

import numpy as np

from kahanmaps.quadfield import KahanBatch, SingularStepError, kahan_step
from kahanmaps.systems import LAGRANGE_M3_FLOOR, DenominatorZeroError

_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _div(num: float, den: float, what: str) -> float:
    if den == 0.0:
        raise DenominatorZeroError(f"zero denominator in {what}")
    return num / den


def _entries(part, names) -> dict:
    """One named formula per component of a vector-valued part."""
    return {name: (lambda q, i=i: float(q.part(part)[i])) for i, name in enumerate(names)}


def _ratio(part, num: int, den: int, what: str):
    return lambda q: _div(q.part(part)[num], q.part(part)[den], what)


_COORDINATES = {
    name: (lambda q, i=i: float(q.x[i]))
    for i, name in enumerate(("m1", "m2", "m3", "p1", "p2", "p3"))
}


def _g(q) -> np.ndarray:
    """State-only quadratic triple g_i = p_i^2 + (beta a_i / (a_j a_k)) m_i^2.

    For the first special case (beta = 0) this is just p_i^2.
    """
    a, _, _, beta = q.params.family
    x = q.x
    return np.array(
        [x[3 + i] ** 2 + (beta * a[i] / (a[j] * a[k])) * x[i] ** 2 for i, j, k in _CYCLIC]
    )


def _G(q) -> np.ndarray:
    """Bilinear counterpart G_i = p_i p~_i + (beta a_i / (a_j a_k)) m_i m~_i."""
    x, y = q.x, q.y
    a, _, _, beta = q.params.family
    return np.array(
        [
            x[3 + i] * y[3 + i] + (beta * a[i] / (a[j] * a[k])) * x[i] * y[i]
            for i, j, k in _CYCLIC
        ]
    )


def _coeff_vec(A, a, b, eps2: float, g) -> np.ndarray:
    """(c1, c2, c3, c0) of the Clebsch family; the bilinear variant is the
    same formula at -eps^2 with g replaced by G."""
    c = [
        A[i]
        + eps2 * (A[k] * a[i] * (b[i] - b[j]) * g[j] + A[j] * a[i] * (b[i] - b[k]) * g[k])
        for i, j, k in _CYCLIC
    ]
    c0 = sum(A[i] * a[j] * a[k] * g[i] for i, j, k in _CYCLIC)
    return np.array([c[0], c[1], c[2], c0])


def _c(q) -> np.ndarray:
    a, b, A, _ = q.params.family
    return _coeff_vec(A, a, b, q.eps * q.eps, q.part(_g))


def _C(q) -> np.ndarray:
    a, b, A, _ = q.params.family
    return _coeff_vec(A, a, b, -q.eps * q.eps, q.part(_G))


def _spectral_den(triple, sign: float):
    """Denominator of I0 (g, +1) or J0 (G, -1) for beta != 0:
    1 + sign eps^2 (a1 a2 a3 / beta) sum g."""

    def den(q) -> float:
        a, _, _, beta = q.params.family
        return 1.0 + sign * q.eps * q.eps * (a[0] * a[1] * a[2] / beta) * float(np.sum(q.part(triple)))

    return den


def _first_den(triple, sign: float):
    """Denominator of I0 (g, -1) or J0 (G, +1) for the first special case:
    1 + sign eps^2 omega.g."""

    def den(q) -> float:
        return 1.0 + sign * q.eps * q.eps * float(np.dot(q.params.omega, q.part(triple)))

    return den


_SPECTRAL_DENS = (_spectral_den(_g, 1.0), _spectral_den(_G, -1.0))
_FIRST_DENS = (_first_den(_g, -1.0), _first_den(_G, 1.0))


def _first_K(q) -> float:
    """K = sum_i (C_i/C_0) m_i p_i / c_0, a conserved quantity of the first
    special case built from both coefficient families."""
    C1, C2, C3, C0 = q.part(_C)
    x = q.x
    c0 = float(np.sum(x[3:] ** 2))
    if C0 == 0.0 or c0 == 0.0:
        raise DenominatorZeroError("zero denominator in K")
    m, p = x[:3], x[3:]
    return float(sum(Ci * m[i] * p[i] for i, Ci in enumerate((C1, C2, C3))) / (C0 * c0))


def _clebsch_quantities(den, den_hat) -> dict:
    return {
        **_COORDINATES,
        **_entries(_g, ("g1", "g2", "g3")),
        **_entries(_G, ("G1", "G2", "G3")),
        **_entries(_c, ("c1", "c2", "c3", "c0")),
        **_entries(_C, ("C1", "C2", "C3", "C0")),
        "I0": lambda q: _div(float(q.part(_c)[3]), den(q), "I0"),
        "J0": lambda q: _div(float(q.part(_C)[3]), den_hat(q), "J0"),
    }


def _clebsch_witnesses(den, den_hat):
    def witnesses(q) -> list:
        x = q.x
        return [
            abs(den(q)),
            float(np.sum(x[3:] ** 2)),  # c0, the K denominator
            abs(den_hat(q)),
            abs(float(np.sum(x[3:] * q.y[3:]))),  # C0 scale for K
        ]

    return witnesses


def _kirchhoff_small(q) -> tuple:
    pr, x, eps2 = q.params, q.x, q.eps * q.eps
    m, p = x[:3], x[3:]
    c1 = 1.0 + eps2 * pr.a3 * (pr.a1 - pr.a3) * m[2] ** 2 + eps2 * pr.a1 * (pr.b1 - pr.b3) * p[2] ** 2
    c3 = (
        2.0 * pr.a3 / pr.a1
        - 1.0
        + eps2 * pr.a1 * (pr.a3 - pr.a1) * (m[0] ** 2 + m[1] ** 2)
        + eps2 * pr.a3 * (pr.b3 - pr.b1) * (p[0] ** 2 + p[1] ** 2)
    )
    return c1, c3


def _kirchhoff_big(q) -> tuple:
    x, y = q.x, q.y
    pr, eps2 = q.params, q.eps * q.eps
    m, p = x[:3], x[3:]
    mt, pt = y[:3], y[3:]
    # the m3 term is state-only: m3 is preserved exactly by the map
    C1 = 1.0 - eps2 * pr.a3 * (pr.a1 - pr.a3) * m[2] ** 2 - eps2 * pr.a1 * (pr.b1 - pr.b3) * p[2] * pt[2]
    C3 = (
        2.0 * pr.a3 / pr.a1
        - 1.0
        - eps2 * pr.a1 * (pr.a3 - pr.a1) * (m[0] * mt[0] + m[1] * mt[1])
        - eps2 * pr.a3 * (pr.b3 - pr.b1) * (p[0] * pt[0] + p[1] * pt[1])
    )
    return C1, C3


def _lagrange_small(q) -> tuple:
    pr, x, eps2 = q.params, q.x, q.eps * q.eps
    m, p = x[:3], x[3:]
    if abs(m[2]) < LAGRANGE_M3_FLOOR:
        raise DenominatorZeroError("Lagrange state-only coefficients divide by m3")
    r = (
        2.0 * pr.alpha
        - 1.0
        + eps2 * (pr.alpha - 1.0) * (m[0] ** 2 + m[1] ** 2)
        + (eps2 * pr.gamma / m[2]) * (m[0] * p[0] + m[1] * p[1])
    )
    s = 1.0 + eps2 * pr.alpha * (1.0 - pr.alpha) * m[2] ** 2 - eps2 * pr.gamma * p[2]
    return r, s


def _lagrange_big(q) -> tuple:
    x, y = q.x, q.y
    pr, eps2 = q.params, q.eps * q.eps
    m, p = x[:3], x[3:]
    mt, pt = y[:3], y[3:]
    if abs(m[2]) < LAGRANGE_M3_FLOOR:
        raise DenominatorZeroError("Lagrange bilinear coefficients divide by m3")
    R = (
        2.0 * pr.alpha
        - 1.0
        - eps2 * (pr.alpha - 1.0) * (m[0] * mt[0] + m[1] * mt[1])
        - (eps2 * pr.gamma / (2.0 * m[2]))
        * (mt[0] * p[0] + m[0] * pt[0] + mt[1] * p[1] + m[1] * pt[1])
    )
    S = 1.0 - eps2 * pr.alpha * (1.0 - pr.alpha) * m[2] ** 2 + 0.5 * eps2 * pr.gamma * (p[2] + pt[2])
    return R, S


def _lagrange_witnesses(q) -> list:
    out = [abs(q.x[2])]
    if abs(q.x[2]) >= LAGRANGE_M3_FLOOR:
        out += [abs(q.part(_lagrange_small)[1]), abs(q.part(_lagrange_big)[1])]
    return out


def _planar_small(q) -> tuple:
    """Numerator and denominator of F."""
    pr, x, eps = q.params, q.x, q.eps
    qa, qb, qc = pr.qform
    num = qa * x[0] ** 2 + 2.0 * qb * x[0] * x[1] + qc * x[1] ** 2
    ell = float(pr.ell @ x) + pr.ell0
    return num, 1.0 + eps * eps * (qa * qc - qb * qb) * ell * ell


def _planar_big(q) -> tuple:
    """Numerator and denominator of Fhat."""
    x, y = q.x, q.y
    pr, eps = q.params, q.eps
    qa, qb, qc = pr.qform
    num = qa * x[0] * y[0] + qb * (x[0] * y[1] + y[0] * x[1]) + qc * x[1] * y[1]
    ell_x = float(pr.ell @ x) + pr.ell0
    ell_y = float(pr.ell @ y) + pr.ell0
    return num, 1.0 - eps * eps * (qa * qc - qb * qb) * ell_x * ell_y


_CLEBSCH_COEFFICIENTS = (("c1", "c2", "c3", "c0"), ("C1", "C2", "C3", "C0"))
_SPECTRAL = {
    "quantities": _clebsch_quantities(*_SPECTRAL_DENS),
    "coefficients": _CLEBSCH_COEFFICIENTS,
    "witnesses": _clebsch_witnesses(*_SPECTRAL_DENS),
}

TABLE = {
    "general_clebsch": _SPECTRAL,
    "second_clebsch": _SPECTRAL,
    "first_clebsch": {
        "quantities": {
            **_clebsch_quantities(*_FIRST_DENS),
            "K": _first_K,
            "J0_den": _FIRST_DENS[1],
        },
        "coefficients": _CLEBSCH_COEFFICIENTS,
        "witnesses": _clebsch_witnesses(*_FIRST_DENS),
    },
    "kirchhoff": {
        "quantities": {
            **_COORDINATES,
            **_entries(_kirchhoff_small, ("c1", "c3")),
            **_entries(_kirchhoff_big, ("C1", "C3")),
            "I0": _ratio(_kirchhoff_small, 1, 0, "I0"),
            "J0": _ratio(_kirchhoff_big, 1, 0, "J0"),
        },
        "coefficients": (("c1", "c3"), ("C1", "C3")),
        "witnesses": lambda q: [
            abs(q.part(_kirchhoff_small)[0]),
            abs(q.part(_kirchhoff_big)[0]),
            abs(q.x[2]),
        ],
    },
    "lagrange": {
        "quantities": {
            **_COORDINATES,
            **_entries(_lagrange_small, ("r", "s")),
            **_entries(_lagrange_big, ("R", "S")),
            "I0": _ratio(_lagrange_small, 0, 1, "I0"),
            "J0": _ratio(_lagrange_big, 0, 1, "J0"),
        },
        "coefficients": (("r", "s"), ("R", "S")),
        "witnesses": _lagrange_witnesses,
    },
    "planar_family": {
        "quantities": {
            "F": _ratio(_planar_small, 0, 1, "F"),
            "Fhat": _ratio(_planar_big, 0, 1, "Fhat"),
        },
        "coefficients": ((), ()),
        "witnesses": lambda q: [abs(q.part(_planar_small)[1]), abs(q.part(_planar_big)[1])],
    },
}


class ScalarPair:
    """A state x and its Kahan successor x~ (the one-state KahanPair)."""

    def __init__(self, desc, x, eps: float, step=None):
        self.desc = desc
        self.params = desc.params
        self.x = np.asarray(x, dtype=float)
        self.eps = eps
        self._step = step
        self._parts: dict = {}

    @property
    def step(self) -> KahanBatch:
        if self._step is None:
            try:
                self._step = kahan_step(self.desc.field, self.x, self.eps)
            except SingularStepError as exc:
                self._step = exc
        if isinstance(self._step, SingularStepError):
            raise self._step
        return self._step

    @property
    def y(self) -> np.ndarray:
        return self.step.next

    def part(self, fn: Callable):
        if fn not in self._parts:
            self._parts[fn] = fn(self)
        return self._parts[fn]

    def value(self, name: str) -> float:
        if "/" in name:
            num, den = name.split("/", 1)
            return _div(self.value(num), self.value(den), name)
        if name.startswith("density_"):
            return self.density(name[len("density_"):])
        return TABLE[self.desc.kind]["quantities"][name](self)

    def density(self, which: str) -> float:
        return self.value(which) * self.step.delta

    def coefficients(self, kind: str = "small_c") -> np.ndarray:
        names = TABLE[self.desc.kind]["coefficients"][kind == "big_C"]
        return np.array([self.value(name) for name in names])

    def witnesses(self) -> list:
        return TABLE[self.desc.kind]["witnesses"](self)
