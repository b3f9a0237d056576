"""Catalog of quadratic systems whose Kahan maps have extra structure.

Six entries: the general Clebsch flow on e(3)* (parameters a, b subject to a
compatibility condition), its first and second special cases (parametrized by
omega), the Kirchhoff case (a1 = a2, b1 = b2), the Lagrange top (the one
entry with a linear part), and a planar family with an affine multiplier
where only the first two components are constrained.

Each kind is one entry of KINDS: its parameter class, whose constructor
fields are its JSON keys, the field builder, the declared quantity names,
and the formulas of its map-level quantities, which come in two families:

* state-only quantities (lowercase names: c1..c0, g_i, r, s, F) evaluated at
  a point x;
* bilinear quantities (uppercase: C1..C0, G_i, R, S, Fhat) evaluated on a
  consecutive orbit pair (x, x~), where x~ is one forward Kahan step.

For each system the ratio of the designated coefficient pair is a conserved
quantity of the map (I0 from the state-only family, J0 from the bilinear
family), and the designated coefficients times Delta(x; eps) =
det(I - eps f'(x)) are preserved densities; integrals evaluates them.

State ordering for the 6-dim systems is x = (m1, m2, m3, p1, p2, p3).
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field as dc_field, fields, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from kahanmaps.quadfield import QuadraticVectorField

__all__ = [
    "KINDS",
    "SYSTEM_KINDS",
    "DenominatorZeroError",
    "ClebschParams",
    "FirstClebschParams",
    "SecondClebschParams",
    "KirchhoffParams",
    "LagrangeParams",
    "PlanarFamilyParams",
    "SystemDescriptor",
    "SystemKind",
    "clebsch_condition_residual",
    "build_system",
    "params_from_dict",
    "params_to_dict",
    "central_gradient",
]

# The Lagrange top's quantities divide by m3; below this the point counts as
# a pole of the expression, not a small value.
LAGRANGE_M3_FLOOR = 1e-12

_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def is_json_number(value) -> bool:
    """A finite number as strict JSON holds one: not NaN or Infinity, which
    Python's reader takes, not true/false, which Python counts as int, and
    not an integer past the float range, which float() cannot take."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _real(value, name: str) -> float:
    if np.ndim(value) != 0:
        raise ValueError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _vec3(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def clebsch_condition_residual(a, b) -> float:
    """Cyclic-sum compatibility residual (b_i - b_j)/a_k over (i,j,k) cyclic.

    Vanishes exactly when (a, b) admits the two-parameter spectral
    decomposition a_i = alpha + beta*omega_i, b_i = alpha*omega_i -
    beta*omega_j*omega_k.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(sum((b[i] - b[j]) / a[k] for i, j, k in _CYCLIC))


def _condition_scale(a, b) -> float:
    return 1.0 + float(sum(abs((b[i] - b[j]) / a[k]) for i, j, k in _CYCLIC))


def _wcoef_from_a(a: np.ndarray) -> np.ndarray:
    out = np.array([1 / a[j] + 1 / a[k] - 1 / a[i] for i, j, k in _CYCLIC])
    out.setflags(write=False)
    return out


def _beta_from_ratios(a: np.ndarray, b: np.ndarray) -> tuple[float, bool]:
    """beta with 1/beta = (b_i - b_j) / (a_k (a_i - a_j)), read off the ratio
    with the largest denominator. Returns (beta, degenerate)."""
    nums = np.array([b[i] - b[j] for i, j, k in _CYCLIC])
    dens = np.array([a[k] * (a[i] - a[j]) for i, j, k in _CYCLIC])
    scale_den = np.max(np.abs(a)) ** 2 + 1.0
    scale_num = np.max(np.abs(b)) + 1.0
    pick = int(np.argmax(np.abs(dens)))
    if abs(dens[pick]) <= 1e-14 * scale_den:
        # a is constant: the first special case (beta = 0) if b varies,
        # otherwise no information at all.
        if np.max(np.abs(nums)) <= 1e-14 * scale_num:
            return math.nan, True
        return 0.0, False
    if nums[pick] == 0.0:
        raise ValueError("parameters admit no finite spectral decomposition (b_i - b_j = 0 while a_k(a_i - a_j) != 0)")
    beta = float(dens[pick] / nums[pick])
    # remaining well-conditioned ratios must agree
    for k in range(3):
        if k != pick and abs(dens[k]) > 1e-9 * scale_den:
            if abs(beta * nums[k] - dens[k]) > 1e-8 * (abs(dens[k]) + scale_den * 1e-9):
                raise ValueError("spectral ratios disagree; compatibility condition violated")
    return beta, False


@dataclass(frozen=True, eq=False)
class ClebschParams:
    """General Clebsch parameters (a, b) with the derived data beta and the
    Wronskian weights wcoef, A_i = 1/a_j + 1/a_k - 1/a_i.

    The compatibility condition is validated on construction; beta and wcoef
    are computed when not supplied. degenerate marks inputs with both a and b
    constant, where beta carries no information.
    """

    a: np.ndarray
    b: np.ndarray
    beta: Optional[float] = None
    wcoef: Optional[np.ndarray] = None
    degenerate: bool = dc_field(default=False, init=False)

    def __post_init__(self) -> None:
        a = _vec3(self.a, "a")
        b = _vec3(self.b, "b")
        if np.any(a == 0.0):
            raise ValueError("all entries of a must be nonzero")
        residual = clebsch_condition_residual(a, b)
        if abs(residual) > 1e-12 * _condition_scale(a, b):
            raise ValueError(
                f"compatibility condition violated: cyclic-sum residual {residual:.3e}"
            )
        beta, degenerate = _beta_from_ratios(a, b)
        supplied = None if self.beta is None else _real(self.beta, "beta")
        if supplied is not None and not degenerate:
            if abs(supplied - beta) > 1e-9 * (1.0 + abs(beta)):
                raise ValueError(
                    f"supplied beta {self.beta} disagrees with ratio value {beta}"
                )
            beta = supplied
        wcoef = _wcoef_from_a(a)
        if self.wcoef is not None:
            supplied = _vec3(self.wcoef, "wcoef")
            if not np.allclose(supplied, wcoef, rtol=1e-9, atol=1e-12):
                raise ValueError("supplied wcoef disagrees with 1/a_j + 1/a_k - 1/a_i")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "wcoef", wcoef)
        object.__setattr__(self, "degenerate", degenerate)

    @cached_property
    def family(self) -> tuple:
        """(a, b, A, beta): field coefficients, Wronskian weights, beta."""
        return self.a, self.b, self.wcoef, self.beta


@dataclass(frozen=True, eq=False)
class FirstClebschParams:
    """First special case: unit m-coefficients, omega on the p-quadratics."""

    omega: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega", _vec3(self.omega, "omega"))

    @cached_property
    def family(self) -> tuple:
        return np.ones(3), self.omega, np.ones(3), 0.0


@dataclass(frozen=True, eq=False)
class SecondClebschParams:
    """Second special case: a_i = omega_i, b_i = -omega_j*omega_k."""

    omega: np.ndarray

    def __post_init__(self) -> None:
        omega = _vec3(self.omega, "omega")
        if np.any(omega == 0.0):
            raise ValueError("omega entries must be nonzero (they become the a-coefficients)")
        object.__setattr__(self, "omega", omega)

    @cached_property
    def family(self) -> tuple:
        om = self.omega
        b = np.array([-om[j] * om[k] for _, j, k in _CYCLIC])
        return om, b, _wcoef_from_a(om), 1.0


@dataclass(frozen=True)
class KirchhoffParams:
    """Axially symmetric case a1 = a2, b1 = b2 of the Clebsch family."""

    a1: float
    a3: float
    b1: float
    b3: float

    def __post_init__(self) -> None:
        for name in ("a1", "a3", "b1", "b3"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if self.a1 == 0.0:
            raise ValueError("a1 must be nonzero")


@dataclass(frozen=True)
class LagrangeParams:
    """Symmetric heavy top: anisotropy alpha on m3, gravity coupling gamma."""

    alpha: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("alpha", "gamma"):
            object.__setattr__(self, name, _real(getattr(self, name), name))


@dataclass(frozen=True, eq=False)
class PlanarFamilyParams:
    """Planar quadratic form H = (a x1^2 + 2 b x1 x2 + c x2^2)/2 rotated by an
    affine multiplier ell(x) = ell . x + ell0 on all of R^n; components 3..n
    of the field are arbitrary quadratic (they do not affect the first two).
    """

    qform: tuple
    ell: np.ndarray
    ell0: float = 0.0
    extra_quad: Optional[np.ndarray] = None
    extra_lin: Optional[np.ndarray] = None
    extra_const: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        qform = tuple(_vec3(self.qform, "qform (a, b, c)").tolist())
        ell = np.array(self.ell, dtype=float)
        if ell.ndim != 1 or ell.shape[0] < 2:
            raise ValueError("ell must be a coefficient vector of length >= 2")
        n = ell.shape[0]
        extra_quad = (
            np.zeros((n - 2, n, n)) if self.extra_quad is None else np.array(self.extra_quad, dtype=float)
        )
        extra_lin = (
            np.zeros((n - 2, n)) if self.extra_lin is None else np.array(self.extra_lin, dtype=float)
        )
        extra_const = (
            np.zeros(n - 2) if self.extra_const is None else np.array(self.extra_const, dtype=float)
        )
        if extra_quad.shape != (n - 2, n, n):
            raise ValueError(f"extra_quad must have shape {(n - 2, n, n)}")
        if not np.array_equal(extra_quad, extra_quad.swapaxes(1, 2)):
            raise ValueError("extra_quad must be symmetric in its last two axes")
        if extra_lin.shape != (n - 2, n):
            raise ValueError(f"extra_lin must have shape {(n - 2, n)}")
        if extra_const.shape != (n - 2,):
            raise ValueError(f"extra_const must have shape {(n - 2,)}")
        for arr in (ell, extra_quad, extra_lin, extra_const):
            if not np.isfinite(arr).all():
                raise ValueError("planar family coefficients must be finite")
            arr.setflags(write=False)
        object.__setattr__(self, "qform", qform)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "ell0", _real(self.ell0, "ell0"))
        object.__setattr__(self, "extra_quad", extra_quad)
        object.__setattr__(self, "extra_lin", extra_lin)
        object.__setattr__(self, "extra_const", extra_const)

    @property
    def dim(self) -> int:
        return self.ell.shape[0]


@dataclass(frozen=True, eq=False)
class SystemDescriptor:
    """A catalog system: its kind, parameters, quadratic field, and the names
    of the map-level quantities attached to it.

    integral_names: columns emitted per orbit row, in order
    density_names: quantities whose coefficient times Delta is a preserved
      density numerator
    conserved_names: quantities checked for drift along orbits (may contain
      ratio names like "c1/c0" and the plain coordinate "m3")
    wronskian_orders: discrete Wronskian orders with an asserted
      one-dimensional null space
    """

    kind: str
    params: object
    field: QuadraticVectorField
    integral_names: tuple
    density_names: tuple
    conserved_names: tuple
    wronskian_orders: tuple

    @property
    def dim(self) -> int:
        return self.field.dim


def _sym_put(quad: np.ndarray, i: int, j: int, k: int, coef: float) -> None:
    quad[i, j, k] += coef / 2.0
    quad[i, k, j] += coef / 2.0


def _clebsch_field(a, b) -> QuadraticVectorField:
    quad = np.zeros((6, 6, 6))
    for i, j, k in _CYCLIC:
        # mdot_i = (a_k - a_j) m_j m_k + (b_k - b_j) p_j p_k
        _sym_put(quad, i, j, k, a[k] - a[j])
        _sym_put(quad, i, 3 + j, 3 + k, b[k] - b[j])
        # pdot_i = a_k m_k p_j - a_j m_j p_k
        _sym_put(quad, 3 + i, k, 3 + j, a[k])
        _sym_put(quad, 3 + i, j, 3 + k, -a[j])
    return QuadraticVectorField(quad=quad, lin=np.zeros((6, 6)), const=np.zeros(6))


def _lagrange_field(alpha: float, gamma: float) -> QuadraticVectorField:
    quad = np.zeros((6, 6, 6))
    _sym_put(quad, 0, 1, 2, alpha - 1.0)   # mdot1 = (alpha-1) m2 m3 + gamma p2
    _sym_put(quad, 1, 0, 2, 1.0 - alpha)   # mdot2 = (1-alpha) m1 m3 - gamma p1
    _sym_put(quad, 3, 4, 2, alpha)         # pdot1 = alpha p2 m3 - p3 m2
    _sym_put(quad, 3, 5, 1, -1.0)
    _sym_put(quad, 4, 5, 0, 1.0)           # pdot2 = p3 m1 - alpha p1 m3
    _sym_put(quad, 4, 3, 2, -alpha)
    _sym_put(quad, 5, 3, 1, 1.0)           # pdot3 = p1 m2 - p2 m1
    _sym_put(quad, 5, 4, 0, -1.0)
    lin = np.zeros((6, 6))
    lin[0, 4] = gamma
    lin[1, 3] = -gamma
    return QuadraticVectorField(quad=quad, lin=lin, const=np.zeros(6))


def _planar_field(params: PlanarFamilyParams) -> QuadraticVectorField:
    n = params.dim
    qa, qb, qc = params.qform
    quad = np.zeros((n, n, n))
    lin = np.zeros((n, n))
    const = np.zeros(n)
    rot = (np.array([qb, qc]), np.array([-qa, -qb]))  # (b x1 + c x2), -(a x1 + b x2)
    for row, w2 in enumerate(rot):
        w = np.zeros(n)
        w[:2] = w2
        quad[row] = 0.5 * (np.outer(params.ell, w) + np.outer(w, params.ell))
        lin[row] = params.ell0 * w
    quad[2:] = params.extra_quad
    lin[2:] = params.extra_lin
    const[2:] = params.extra_const
    return QuadraticVectorField(quad=quad, lin=lin, const=const)


def _family_field(params) -> QuadraticVectorField:
    return _clebsch_field(*params.family[:2])


def _general_clebsch_field(params: ClebschParams) -> QuadraticVectorField:
    if params.degenerate or params.beta == 0.0:
        raise ValueError(
            "general_clebsch requires beta != 0; constant-a parameters belong to first_clebsch"
        )
    return _clebsch_field(params.a, params.b)


# Map-level quantity formulas. Each takes a pair q (integrals.KahanPair)
# holding a stack of states and returns one value per row (a vector part one
# row per state): q.params, the states q.x[B, n], q.eps, their successors
# q.y[B, n] (one forward Kahan step each, taken at most once per pair) and
# q.part(fn), fn(q) computed once per pair. Where the one-state formula
# raises, a formula marks the rows with q.fail(rows, error) in the order the
# one-state formula raises, and guards its arithmetic there with a mask;
# reading q.y marks the rows whose step is a pole. The scalar view of a
# quantity is the stack of one, so each formula exists once.
#
# The arithmetic is chosen so that every row rounds as the recorded outputs
# do. A coordinate squared is np.float_power(v, 2.0), libm's pow, which is
# what v ** 2 of a numpy scalar calls; np.square and v * v differ from it in
# about 8 values in 10 000. A sum of squares of a block (x[:, 3:] ** 2) is
# np.square. Dot products of 3-vectors are np.vecdot, which rounds as np.dot
# does; X @ w does not.


class DenominatorZeroError(RuntimeError):
    """A conserved-quantity denominator vanished at the evaluation point."""


def _sq(v: np.ndarray) -> np.ndarray:
    return np.float_power(v, 2.0)


def _nan_like(den: np.ndarray) -> np.ndarray:
    return np.full(np.shape(den), np.nan)


def _div(q, num: np.ndarray, den: np.ndarray, what: str) -> np.ndarray:
    """num / den on every row; a row whose den is exactly zero fails."""
    zero = den == 0.0
    q.fail(zero, lambda i: DenominatorZeroError(f"zero denominator in {what}"))
    return np.divide(num, den, out=_nan_like(den), where=~zero)


def _entries(part, names) -> dict:
    """One named formula per component of a vector-valued part."""
    return {name: (lambda q, i=i: q.part(part)[:, i]) for i, name in enumerate(names)}


def _ratio(part, num: int, den: int, what: str):
    return lambda q: _div(q, q.part(part)[:, num], q.part(part)[:, den], what)


_COORDINATES = {
    name: (lambda q, i=i: q.x[:, i])
    for i, name in enumerate(("m1", "m2", "m3", "p1", "p2", "p3"))
}


def _g(q) -> np.ndarray:
    """State-only quadratic triple g_i = p_i^2 + (beta a_i / (a_j a_k)) m_i^2.

    For the first special case (beta = 0) this is just p_i^2.
    """
    a, _, _, beta = q.params.family
    x = q.x
    return np.stack(
        [_sq(x[:, 3 + i]) + (beta * a[i] / (a[j] * a[k])) * _sq(x[:, i]) for i, j, k in _CYCLIC],
        axis=-1,
    )


def _G(q) -> np.ndarray:
    """Bilinear counterpart G_i = p_i p~_i + (beta a_i / (a_j a_k)) m_i m~_i."""
    x, y = q.x, q.y
    a, _, _, beta = q.params.family
    return np.stack(
        [
            x[:, 3 + i] * y[:, 3 + i] + (beta * a[i] / (a[j] * a[k])) * x[:, i] * y[:, i]
            for i, j, k in _CYCLIC
        ],
        axis=-1,
    )


def _coeff_vec(A, a, b, eps2: float, g: np.ndarray) -> np.ndarray:
    """(c1, c2, c3, c0) of the Clebsch family; the bilinear variant is the
    same formula at -eps^2 with g replaced by G."""
    # at a huge eps, eps^2 times the product leaves the float range: the
    # coefficient is then +-inf, data like a Delta past it
    with np.errstate(over="ignore"):
        c = [
            A[i]
            + eps2 * (A[k] * a[i] * (b[i] - b[j]) * g[:, j] + A[j] * a[i] * (b[i] - b[k]) * g[:, k])
            for i, j, k in _CYCLIC
        ]
    c0 = sum(A[i] * a[j] * a[k] * g[:, i] for i, j, k in _CYCLIC)
    return np.stack([c[0], c[1], c[2], c0], axis=-1)


def _c(q) -> np.ndarray:
    a, b, A, _ = q.params.family
    return _coeff_vec(A, a, b, q.eps * q.eps, q.part(_g))


def _C(q) -> np.ndarray:
    a, b, A, _ = q.params.family
    return _coeff_vec(A, a, b, -q.eps * q.eps, q.part(_G))


def _spectral_den(triple, sign: float):
    """Denominator of I0 (g, +1) or J0 (G, -1) for beta != 0:
    1 + sign eps^2 (a1 a2 a3 / beta) sum g."""

    def den(q) -> np.ndarray:
        a, _, _, beta = q.params.family
        return 1.0 + sign * q.eps * q.eps * (a[0] * a[1] * a[2] / beta) * np.sum(q.part(triple), axis=-1)

    return den


def _first_den(triple, sign: float):
    """Denominator of I0 (g, -1) or J0 (G, +1) for the first special case:
    1 + sign eps^2 omega.g."""

    def den(q) -> np.ndarray:
        return 1.0 + sign * q.eps * q.eps * np.vecdot(q.params.omega, q.part(triple))

    return den


_SPECTRAL_DENS = (_spectral_den(_g, 1.0), _spectral_den(_G, -1.0))
_FIRST_DENS = (_first_den(_g, -1.0), _first_den(_G, 1.0))


def _first_K(q) -> np.ndarray:
    """K = sum_i (C_i/C_0) m_i p_i / c_0, a conserved quantity of the first
    special case built from both coefficient families."""
    C, x = q.part(_C), q.x
    num = sum(C[:, i] * x[:, i] * x[:, 3 + i] for i in range(3))
    return _div(q, num, C[:, 3] * np.sum(x[:, 3:] ** 2, axis=-1), "K")


def _clebsch_quantities(den, den_hat) -> dict:
    return {
        **_COORDINATES,
        **_entries(_g, ("g1", "g2", "g3")),
        **_entries(_G, ("G1", "G2", "G3")),
        **_entries(_c, ("c1", "c2", "c3", "c0")),
        **_entries(_C, ("C1", "C2", "C3", "C0")),
        "I0": lambda q: _div(q, q.part(_c)[:, 3], den(q), "I0"),
        "J0": lambda q: _div(q, q.part(_C)[:, 3], den_hat(q), "J0"),
    }


def _clebsch_witnesses(den, den_hat):
    def witnesses(q) -> tuple:
        x = q.x
        columns = [
            np.abs(den(q)),
            np.sum(x[:, 3:] ** 2, axis=-1),  # c0, the K denominator
            np.abs(den_hat(q)),
            np.abs(np.sum(x[:, 3:] * q.y[:, 3:], axis=-1)),  # C0 scale for K
        ]
        return np.stack(columns, axis=-1), None

    return witnesses


def _kirchhoff_small(q) -> np.ndarray:
    pr, x, eps2 = q.params, q.x, q.eps * q.eps
    m, p = x[:, :3], x[:, 3:]
    c1 = 1.0 + eps2 * pr.a3 * (pr.a1 - pr.a3) * _sq(m[:, 2]) + eps2 * pr.a1 * (pr.b1 - pr.b3) * _sq(p[:, 2])
    c3 = (
        2.0 * pr.a3 / pr.a1
        - 1.0
        + eps2 * pr.a1 * (pr.a3 - pr.a1) * (_sq(m[:, 0]) + _sq(m[:, 1]))
        + eps2 * pr.a3 * (pr.b3 - pr.b1) * (_sq(p[:, 0]) + _sq(p[:, 1]))
    )
    return np.stack([c1, c3], axis=-1)


def _kirchhoff_big(q) -> np.ndarray:
    x, y = q.x, q.y
    pr, eps2 = q.params, q.eps * q.eps
    m, p = x[:, :3], x[:, 3:]
    mt, pt = y[:, :3], y[:, 3:]
    # the m3 term is state-only: m3 is preserved exactly by the map
    C1 = 1.0 - eps2 * pr.a3 * (pr.a1 - pr.a3) * _sq(m[:, 2]) - eps2 * pr.a1 * (pr.b1 - pr.b3) * p[:, 2] * pt[:, 2]
    C3 = (
        2.0 * pr.a3 / pr.a1
        - 1.0
        - eps2 * pr.a1 * (pr.a3 - pr.a1) * (m[:, 0] * mt[:, 0] + m[:, 1] * mt[:, 1])
        - eps2 * pr.a3 * (pr.b3 - pr.b1) * (p[:, 0] * pt[:, 0] + p[:, 1] * pt[:, 1])
    )
    return np.stack([C1, C3], axis=-1)


def _near_m3(q, what: str) -> np.ndarray:
    """Rows whose m3 the Lagrange coefficients cannot divide by; they fail."""
    near = np.abs(q.x[:, 2]) < LAGRANGE_M3_FLOOR
    q.fail(near, lambda i: DenominatorZeroError(f"Lagrange {what} coefficients divide by m3"))
    return near


def _lagrange_small(q) -> np.ndarray:
    pr, x, eps2 = q.params, q.x, q.eps * q.eps
    m, p = x[:, :3], x[:, 3:]
    near = _near_m3(q, "state-only")
    r = (
        2.0 * pr.alpha
        - 1.0
        + eps2 * (pr.alpha - 1.0) * (_sq(m[:, 0]) + _sq(m[:, 1]))
        + np.divide(eps2 * pr.gamma, m[:, 2], out=_nan_like(near), where=~near)
        * (m[:, 0] * p[:, 0] + m[:, 1] * p[:, 1])
    )
    s = 1.0 + eps2 * pr.alpha * (1.0 - pr.alpha) * _sq(m[:, 2]) - eps2 * pr.gamma * p[:, 2]
    return np.stack([r, s], axis=-1)


def _lagrange_big(q) -> np.ndarray:
    x, y = q.x, q.y
    pr, eps2 = q.params, q.eps * q.eps
    m, p = x[:, :3], x[:, 3:]
    mt, pt = y[:, :3], y[:, 3:]
    near = _near_m3(q, "bilinear")
    R = (
        2.0 * pr.alpha
        - 1.0
        - eps2 * (pr.alpha - 1.0) * (m[:, 0] * mt[:, 0] + m[:, 1] * mt[:, 1])
        - np.divide(eps2 * pr.gamma, 2.0 * m[:, 2], out=_nan_like(near), where=~near)
        * (mt[:, 0] * p[:, 0] + m[:, 0] * pt[:, 0] + mt[:, 1] * p[:, 1] + m[:, 1] * pt[:, 1])
    )
    S = 1.0 - eps2 * pr.alpha * (1.0 - pr.alpha) * _sq(m[:, 2]) + 0.5 * eps2 * pr.gamma * (p[:, 2] + pt[:, 2])
    return np.stack([R, S], axis=-1)


def _lagrange_witnesses(q) -> tuple:
    m3 = np.abs(q.x[:, 2])
    # the s and S witnesses exist only where the coefficients can divide by m3
    has_s = m3 >= LAGRANGE_M3_FLOOR
    with q.only(has_s):
        s, S = q.part(_lagrange_small)[:, 1], q.part(_lagrange_big)[:, 1]
    values = np.stack([m3, np.abs(s), np.abs(S)], axis=-1)
    return values, np.stack([np.ones_like(has_s), has_s, has_s], axis=-1)


def _planar_small(q) -> np.ndarray:
    """Numerator and denominator of F."""
    pr, x, eps = q.params, q.x, q.eps
    qa, qb, qc = pr.qform
    num = qa * _sq(x[:, 0]) + 2.0 * qb * x[:, 0] * x[:, 1] + qc * _sq(x[:, 1])
    ell = np.vecdot(pr.ell, x) + pr.ell0
    return np.stack([num, 1.0 + eps * eps * (qa * qc - qb * qb) * ell * ell], axis=-1)


def _planar_big(q) -> np.ndarray:
    """Numerator and denominator of Fhat."""
    x, y = q.x, q.y
    pr, eps = q.params, q.eps
    qa, qb, qc = pr.qform
    num = qa * x[:, 0] * y[:, 0] + qb * (x[:, 0] * y[:, 1] + y[:, 0] * x[:, 1]) + qc * x[:, 1] * y[:, 1]
    ell_x = np.vecdot(pr.ell, x) + pr.ell0
    ell_y = np.vecdot(pr.ell, y) + pr.ell0
    return np.stack([num, 1.0 - eps * eps * (qa * qc - qb * qb) * ell_x * ell_y], axis=-1)


@dataclass(frozen=True)
class SystemKind:
    """Everything the package knows about one catalog kind.

    params: parameter class, built from JSON with the keys in `keys`
    field: the quadratic field of the parameters
    integral_names, density_names, conserved_names, wronskian_orders: as in
      SystemDescriptor
    quantities: name -> formula on a stacked pair q (see above), for every
      name evaluate_named accepts besides ratios and densities
    coefficients: (state-only, bilinear) names of the coefficient vectors
    witnesses: q -> magnitudes of every denominator the quantities divide by,
      one column each, and the mask of the entries the one-state list holds
      (None: all of them)
    """

    params: type
    field: Callable
    integral_names: tuple
    density_names: tuple
    conserved_names: tuple
    wronskian_orders: tuple
    quantities: dict
    coefficients: tuple
    witnesses: Callable

    @property
    def keys(self) -> dict:
        """JSON key -> whether it is required: the constructor fields of
        params, in order, each required when it has no default."""
        return {
            f.name: f.default is MISSING and f.default_factory is MISSING
            for f in fields(self.params)
            if f.init
        }


_CLEBSCH_INTEGRALS = (
    "I0", "J0",
    "g1", "g2", "g3", "G1", "G2", "G3",
    "c1", "c2", "c3", "c0", "C1", "C2", "C3", "C0",
)
_CLEBSCH_RATIOS = ("c1/c0", "c2/c0", "c3/c0", "C1/C0", "C2/C0", "C3/C0")
_CLEBSCH_COEFFICIENTS = (("c1", "c2", "c3", "c0"), ("C1", "C2", "C3", "C0"))

_GENERAL_CLEBSCH = SystemKind(
    params=ClebschParams,
    field=_general_clebsch_field,
    integral_names=_CLEBSCH_INTEGRALS,
    density_names=("C0", "C1", "C2", "C3"),
    conserved_names=("I0", "J0") + _CLEBSCH_RATIOS,
    wronskian_orders=(1, 2, 3, 4),
    quantities=_clebsch_quantities(*_SPECTRAL_DENS),
    coefficients=_CLEBSCH_COEFFICIENTS,
    witnesses=_clebsch_witnesses(*_SPECTRAL_DENS),
)

KINDS = {
    "general_clebsch": _GENERAL_CLEBSCH,
    "first_clebsch": SystemKind(
        params=FirstClebschParams,
        field=_family_field,
        integral_names=("I0", "J0", "K", "c1", "c2", "c3", "c0", "C1", "C2", "C3", "C0"),
        density_names=("C0", "J0_den"),
        conserved_names=("I0", "J0", "K") + _CLEBSCH_RATIOS,
        wronskian_orders=(1, 2, 3, 4),
        quantities={
            **_clebsch_quantities(*_FIRST_DENS),
            "K": _first_K,
            "J0_den": _FIRST_DENS[1],
        },
        coefficients=_CLEBSCH_COEFFICIENTS,
        witnesses=_clebsch_witnesses(*_FIRST_DENS),
    ),
    # the second special case has the general case's names and formulas
    "second_clebsch": replace(
        _GENERAL_CLEBSCH,
        params=SecondClebschParams,
        field=_family_field,
    ),
    "kirchhoff": SystemKind(
        params=KirchhoffParams,
        field=lambda pr: _clebsch_field((pr.a1, pr.a1, pr.a3), (pr.b1, pr.b1, pr.b3)),
        integral_names=("I0", "J0", "c1", "c3", "C1", "C3"),
        density_names=("C1", "C3"),
        conserved_names=("I0", "J0", "m3"),
        wronskian_orders=(1, 2, 3),
        quantities={
            **_COORDINATES,
            **_entries(_kirchhoff_small, ("c1", "c3")),
            **_entries(_kirchhoff_big, ("C1", "C3")),
            "I0": _ratio(_kirchhoff_small, 1, 0, "I0"),
            "J0": _ratio(_kirchhoff_big, 1, 0, "J0"),
        },
        coefficients=(("c1", "c3"), ("C1", "C3")),
        witnesses=lambda q: (
            np.stack(
                [
                    np.abs(q.part(_kirchhoff_small)[:, 0]),
                    np.abs(q.part(_kirchhoff_big)[:, 0]),
                    np.abs(q.x[:, 2]),  # m3, separates the order-3 Wronskian ratios
                ],
                axis=-1,
            ),
            None,
        ),
    ),
    "lagrange": SystemKind(
        params=LagrangeParams,
        field=lambda pr: _lagrange_field(pr.alpha, pr.gamma),
        integral_names=("I0", "J0", "r", "s", "R", "S"),
        density_names=("R", "S"),
        conserved_names=("I0", "J0", "m3"),
        wronskian_orders=(1, 2, 3),
        quantities={
            **_COORDINATES,
            **_entries(_lagrange_small, ("r", "s")),
            **_entries(_lagrange_big, ("R", "S")),
            "I0": _ratio(_lagrange_small, 0, 1, "I0"),
            "J0": _ratio(_lagrange_big, 0, 1, "J0"),
        },
        coefficients=(("r", "s"), ("R", "S")),
        witnesses=_lagrange_witnesses,
    ),
    "planar_family": SystemKind(
        params=PlanarFamilyParams,
        field=_planar_field,
        integral_names=("F", "Fhat"),
        density_names=(),
        conserved_names=("F", "Fhat"),
        wronskian_orders=(),
        quantities={
            "F": _ratio(_planar_small, 0, 1, "F"),
            "Fhat": _ratio(_planar_big, 0, 1, "Fhat"),
        },
        coefficients=((), ()),
        witnesses=lambda q: (
            np.abs(np.stack([q.part(_planar_small)[:, 1], q.part(_planar_big)[:, 1]], axis=-1)),
            None,
        ),
    ),
}
SYSTEM_KINDS = tuple(KINDS)


def _kind(kind: str) -> SystemKind:
    if kind not in SYSTEM_KINDS:
        raise ValueError(f"unknown system kind '{kind}'; expected one of {SYSTEM_KINDS}")
    return KINDS[kind]


def build_system(kind: str, params) -> SystemDescriptor:
    """Assemble the quadratic field and the attached quantity names for one
    catalog entry from its params object (see params_from_dict for JSON)."""
    spec = _kind(kind)
    if not isinstance(params, spec.params):
        raise TypeError(f"{kind} takes {spec.params.__name__}")
    return SystemDescriptor(
        kind=kind,
        params=params,
        field=spec.field(params),
        integral_names=spec.integral_names,
        density_names=spec.density_names,
        conserved_names=spec.conserved_names,
        wronskian_orders=spec.wronskian_orders,
    )


def _json_shape(value, name: str) -> tuple:
    """The shape of a finite JSON number or rectangular nested list of
    them; anything else (null, a string, a boolean, NaN, an integer past the
    float range, a ragged list) is an error that names the field."""
    if isinstance(value, list):
        shapes = {_json_shape(item, name) for item in value}
        if len(shapes) > 1:
            raise ValueError(f"{name} must be a rectangular list of numbers, got {value!r}")
        return (len(value), *(shapes.pop() if shapes else ()))
    if not is_json_number(value):
        raise ValueError(f"{name} must be a finite number or a list of them, got {value!r}")
    return ()


def params_from_dict(kind: str, doc: dict) -> object:
    """Build the params object for a kind from plain JSON data (numbers and
    lists of them), naming any missing, unknown or malformed field in the
    error."""
    spec = _kind(kind)
    keys = spec.keys
    for key, required in keys.items():
        if required and key not in doc:
            raise ValueError(f"{kind} config missing required field '{key}'")
    for key, value in doc.items():
        if key not in keys:
            raise ValueError(f"{kind} config has unknown field '{key}'")
        _json_shape(value, f"{kind} config field '{key}'")
    return spec.params(**doc)


def _json_value(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    return list(value) if isinstance(value, tuple) else value


def params_to_dict(params) -> dict:
    """JSON-ready dict for any catalog params object."""
    for spec in KINDS.values():
        if isinstance(params, spec.params):
            return {key: _json_value(getattr(params, key)) for key in spec.keys}
    raise TypeError(f"not a catalog params object: {type(params).__name__}")


def central_gradient(fn: Callable, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient with per-coordinate step
    h_j = 1e-6*(1+|x_j|), from fn at x + h_j e_j and x - h_j e_j."""
    x = np.asarray(x, dtype=float)
    h = 1e-6 * (1.0 + np.abs(x))
    values = np.array([[fn(x + e), fn(x - e)] for e in np.diag(h)], dtype=float)
    return (values[:, 0] - values[:, 1]) / (2.0 * h)
