"""Exact rational oracles for the Kahan map: one step of any quadratic field,
and short orbits of the general Clebsch flow with their gradients.

Every float is a dyadic rational, so the Kahan step from a float state x at
a float eps, of a field whose tensors are floats, has an exact rational
value.  `ExactField` reads a field's tensors as integers over powers of two
and solves the polarized defining equation, linear in x~, by fraction-free
integer elimination: the reference the float step's forward error is
measured against.

The Kahan map is birational with rational coefficients, so from a rational
initial state and rational spectral data (alpha, beta, omega) a short orbit
can be computed exactly with `fractions.Fraction`.  Every coordinate is
carried as a `Dual`: its exact value together with its exact gradient with
respect to the initial state (forward-mode differentiation).  Gradient ranks
of the map's integrals are then ranks over the rationals, free of any
finite-difference step or singular-value threshold.

The Clebsch oracle shares no code with the package:

* the field is written in its cross-product form, mdot = m x Am + p x Bp,
  pdot = p x Am, and the step solves (I - 2 eps P(x)) x~ = x by exact
  Gaussian elimination, where P(x) y is the polarization of the field;
* the null vector of a discrete-Wronskian window is the cross product of two
  window rows, which fixes it without any singular-value decomposition.

Stdlib only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


class Dual:
    """An exact rational value and its exact gradient (a tuple of Fractions)."""

    __slots__ = ("val", "grad")

    def __init__(self, val, grad):
        self.val = val
        self.grad = grad

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, tuple(a + b for a, b in zip(self.grad, other.grad)))
        return Dual(self.val + other, self.grad)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, tuple(-a for a in self.grad))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Dual):
            u, v = self.val, other.val
            return Dual(u * v, tuple(u * b + v * a for a, b in zip(self.grad, other.grad)))
        return Dual(self.val * other, tuple(a * other for a in self.grad))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1 / other.val
            q = self.val * inv
            return Dual(q, tuple((a - q * b) * inv for a, b in zip(self.grad, other.grad)))
        return self * (1 / Fraction(other))


def _val(z) -> Fraction:
    return z.val if isinstance(z, Dual) else Fraction(z)


def _cross(u, v) -> list:
    return [u[j] * v[k] - u[k] * v[j] for _, j, k in _CYCLIC]


def _scale(d, v) -> list:
    return [di * vi for di, vi in zip(d, v)]


def solve(mat, rhs) -> list:
    """Exact Gaussian elimination; entries may be Fractions or Duals.

    Pivots are chosen by nonzero exact value, so a ZeroDivisionError means
    the matrix is singular at this point (a pole of the map)."""
    n = len(rhs)
    rows = [list(row) + [r] for row, r in zip(mat, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if _val(rows[r][col]) != 0), None)
        if piv is None:
            raise ZeroDivisionError(f"singular matrix: no pivot in column {col}")
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(col + 1, n):
            f = rows[r][col] / rows[col][col]
            rows[r][col:] = [u - f * v for u, v in zip(rows[r][col:], rows[col][col:])]
    out = [None] * n
    for r in range(n - 1, -1, -1):
        acc = rows[r][n]
        for c in range(r + 1, n):
            acc = acc - rows[r][c] * out[c]
        out[r] = acc / rows[r][r]
    return out


def det(mat) -> Fraction:
    """The determinant of a square matrix of Fractions, by exact Gaussian
    elimination."""
    rows = [list(row) for row in mat]
    n = len(rows)
    out = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            out = -out
        out *= rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] / rows[col][col]
            rows[r][col:] = [u - f * v for u, v in zip(rows[r][col:], rows[col][col:])]
    return out


def dyadic(values) -> tuple:
    """Integers m_i and one shift s with values[i] = m_i / 2**s exactly,
    for floats."""
    ratios = [float(v).as_integer_ratio() for v in values]
    s = max(q.bit_length() for _, q in ratios) - 1
    return [p << (s + 1 - q.bit_length()) for p, q in ratios], s


def integer_solve(rows) -> list:
    """The solution, as Fractions, of an integer system given as augmented
    rows [a_i1 .. a_in | b_i], by Bareiss fraction-free elimination; a
    ZeroDivisionError means the matrix is singular."""
    a = [list(row) for row in rows]
    n = len(a)
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ZeroDivisionError(f"singular matrix: no pivot in column {col}")
        a[col], a[piv] = a[piv], a[col]
        top = a[col]
        for r in range(col + 1, n):
            row = a[r]
            a[r] = [0] * (col + 1) + [(top[col] * row[c] - row[col] * top[c]) // prev for c in range(col + 1, n + 1)]
        prev = top[col]
    out = [None] * n
    for r in range(n - 1, -1, -1):
        acc = Fraction(a[r][n])
        for c in range(r + 1, n):
            acc -= a[r][c] * out[c]
        out[r] = acc / a[r][r]
    return out


class ExactField:
    """The tensors of a QuadraticVectorField read exactly: quad, lin and
    const as integers over 2**sq, 2**sl and 2**sc."""

    def __init__(self, field):
        n = self.n = field.dim
        quad, self.sq = dyadic(field.quad.ravel().tolist())
        # per (i, k), the nonzero quad[i, j, k] as (j, value)
        self.quad = [
            [(j, quad[(i * n + j) * n + k]) for j in range(n) if quad[(i * n + j) * n + k]]
            for i in range(n)
            for k in range(n)
        ]
        self.lin, self.sl = dyadic(field.lin.ravel().tolist())
        self.const, self.sc = dyadic(field.const.tolist())

    def jacobian(self, x) -> list:
        """f'(x) = 2 Q x + B at a float state x, exactly, as rows of
        Fractions."""
        n, quad, lin = self.n, self.quad, self.lin
        xs, sx = dyadic(x)
        return [
            [
                Fraction(2 * sum(q * xs[j] for j, q in quad[i * n + k]), 1 << (self.sq + sx))
                + Fraction(lin[i * n + k], 1 << self.sl)
                for k in range(n)
            ]
            for i in range(n)
        ]

    def step(self, x, eps) -> list:
        """The Kahan step from a float state x at a float eps, exactly, as
        Fractions: x~ solving x~ - x = 2 eps (Q(x, x~) + B (x + x~)/2 + c),
        that is (I - 2 eps Q(x, .) - eps B) x~ = x + eps B x + 2 eps c,
        scaled to integers by 2**(se + sq + sx + sl + sc)."""
        n, quad, lin, const = self.n, self.quad, self.lin, self.const
        sq, sl, sc = self.sq, self.sl, self.sc
        xs, sx = dyadic(x)
        (e,), se = dyadic([eps])
        one = 1 << (se + sq + sx + sl + sc)
        rows = []
        for i in range(n):
            row = []
            for k in range(n):
                qx = sum(q * xs[j] for j, q in quad[i * n + k])  # sum_j quad[i, j, k] x_j
                row.append((one if i == k else 0) - (e << sc) * ((qx << (sl + 1)) + (lin[i * n + k] << (sq + sx))))
            bx = sum(lin[i * n + k] * xs[k] for k in range(n))
            row.append((xs[i] << (se + sq + sl + sc)) + ((e * bx) << (sq + sc)) + ((e * const[i]) << (sq + sx + sl + 1)))
            rows.append(row)
        return integer_solve(rows)


def exact_rank(rows) -> int:
    """Rank over the rationals of a matrix of Fractions."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@dataclass(frozen=True)
class ExactClebsch:
    """General Clebsch parameters a, b, beta and Wronskian weights A as
    Fractions, and the half step eps of the Kahan map (time step 2 eps)."""

    a: tuple
    b: tuple
    beta: Fraction
    wcoef: tuple
    eps: Fraction

    def polarized(self, x, y) -> list:
        """Symmetric bilinear form Q(x, y) of the field, Q(x, x) = f(x)."""
        m, p = x[:3], x[3:]
        u, q = y[:3], y[3:]
        half = Fraction(1, 2)
        mdot = [
            half * (s + t + v + w)
            for s, t, v, w in zip(
                _cross(m, _scale(self.a, u)),
                _cross(u, _scale(self.a, m)),
                _cross(p, _scale(self.b, q)),
                _cross(q, _scale(self.b, p)),
            )
        ]
        pdot = [
            half * (s + t)
            for s, t in zip(_cross(p, _scale(self.a, u)), _cross(q, _scale(self.a, m)))
        ]
        return mdot + pdot

    def step(self, x) -> list:
        """x~ solving (x~ - x) / (2 eps) = Q(x, x~), linear in x~."""
        units = [[int(i == j) for i in range(6)] for j in range(6)]
        cols = [self.polarized(x, e) for e in units]
        two_eps = 2 * self.eps
        mat = [[int(i == j) - two_eps * cols[j][i] for j in range(6)] for i in range(6)]
        return solve(mat, list(x))

    def orbit(self, x0, steps: int) -> list:
        """States 0..steps from a rational x0, each coordinate a Dual whose
        gradient is taken with respect to x0."""
        n = len(x0)
        state = [
            Dual(Fraction(v), tuple(Fraction(int(i == j)) for i in range(n)))
            for j, v in enumerate(x0)
        ]
        states = [state]
        for _ in range(steps):
            states.append(self.step(states[-1]))
        return states

    def _g_weights(self) -> list:
        a = self.a
        return [self.beta * a[i] / (a[j] * a[k]) for i, j, k in _CYCLIC]

    def I0(self, x):
        """c0 / (1 + eps^2 (a1 a2 a3 / beta) sum g), g_i = p_i^2 + w_i m_i^2."""
        w = self._g_weights()
        g = [x[3 + i] * x[3 + i] + w[i] * x[i] * x[i] for i in range(3)]
        return self._ratio(g, self.eps * self.eps)

    def J0(self, x, y):
        """The bilinear counterpart on (x, x~): g -> G, eps^2 -> -eps^2."""
        w = self._g_weights()
        G = [x[3 + i] * y[3 + i] + w[i] * x[i] * y[i] for i in range(3)]
        return self._ratio(G, -self.eps * self.eps)

    def _ratio(self, g, eps2):
        a, A = self.a, self.wcoef
        c0 = sum(A[i] * a[j] * a[k] * g[i] for i, j, k in _CYCLIC)
        den = 1 + eps2 * (a[0] * a[1] * a[2] / self.beta) * (g[0] + g[1] + g[2])
        return c0 / den

    def wronskian_ratios(self, states, order: int, base: int) -> tuple:
        """(v1/v3, v2/v3) of the null vector v of the order-`order` Wronskian
        observables over the conjugate pairs (m_i, p_i), read from the two
        window rows at `base` and `base + 1`: v is their cross product."""

        def row(r):
            x, y = states[r], states[r + order]
            return [y[i] * x[3 + i] - x[i] * y[3 + i] for i in range(3)]

        v = _cross(row(base), row(base + 1))
        return v[0] / v[2], v[1] / v[2]

    def integrals(self, states, base: int = 0) -> dict:
        """I0, J0 at orbit point `base` and the order-3 (J1, J2) and order-4
        (J3, J4) Wronskian ratios from the windows starting there; needs
        states up to base + 5."""
        x = states[base]
        out = {"I0": self.I0(x), "J0": self.J0(x, states[base + 1])}
        out["J1"], out["J2"] = self.wronskian_ratios(states, 3, base)
        out["J3"], out["J4"] = self.wronskian_ratios(states, 4, base)
        return out


def clebsch_from_decomposition(alpha, beta, omega, eps) -> ExactClebsch:
    """a_i = alpha + beta omega_i, b_i = alpha omega_i - beta omega_j omega_k,
    A_i = 1/a_j + 1/a_k - 1/a_i, all exact; this (a, b) satisfies the
    compatibility condition identically."""
    alpha, beta, eps = Fraction(alpha), Fraction(beta), Fraction(eps)
    omega = [Fraction(w) for w in omega]
    a = tuple(alpha + beta * w for w in omega)
    b = tuple(alpha * omega[i] - beta * omega[j] * omega[k] for i, j, k in _CYCLIC)
    wcoef = tuple(1 / a[j] + 1 / a[k] - 1 / a[i] for i, j, k in _CYCLIC)
    return ExactClebsch(a=a, b=b, beta=beta, wcoef=wcoef, eps=eps)
