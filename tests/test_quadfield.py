"""Tests for the Kahan step on quadratic vector fields.

Oracles used here are independent of the implementation: a cofactor-expansion
determinant, central finite differences (exact up to roundoff for quadratic
fields), the closed-form scalar recursion for xdot = x^2, and a 6-dim step
value frozen from a hand-rolled Gaussian-elimination solve of the polarized
defining equations.
"""

import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

from conftest import ALL_KINDS, count_stepped, make_system, place_pole, pole_eps, safe_state, step_defect, unit_ball
from continuous import einsum_field
from exact_clebsch import ExactField
from kahanmaps import quadfield
from kahanmaps.hkbasis import iterate_orbit
from kahanmaps.quadfield import (
    KahanBatch,
    QuadraticVectorField,
    SingularStepError,
    delta,
    kahan_orbit,
    kahan_step,
    map_jacobian,
)
from kahanmaps.systems import PlanarFamilyParams, build_system
from kahanmaps.verify import draw_initial_state


def cofactor_det(a):
    a = [list(map(float, row)) for row in np.atleast_2d(a)]
    if len(a) == 1:
        return a[0][0]
    total = 0.0
    for j in range(len(a)):
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        total += (-1) ** j * a[0][j] * cofactor_det(minor)
    return total


def fd_field_jacobian(field, x):
    # central differences; exact for quadratic fields up to roundoff
    n = field.dim
    out = np.empty((n, n))
    for j in range(n):
        h = 1e-6 * (1.0 + abs(x[j]))
        e = np.zeros(n)
        e[j] = h
        out[:, j] = (einsum_field(field, x + e) - einsum_field(field, x - e)) / (2 * h)
    return out


def random_field(rng, n, scale=0.5):
    quad = scale * rng.standard_normal((n, n, n))
    quad = 0.5 * (quad + quad.swapaxes(1, 2))
    return QuadraticVectorField(
        quad=quad,
        lin=scale * rng.standard_normal((n, n)),
        const=scale * rng.standard_normal(n),
    )


SCALAR = QuadraticVectorField(quad=[[[1.0]]], lin=[[0.0]], const=[0.0])


class TestFieldEvaluation:
    def test_matches_explicit_monomial_sum(self):
        rng = np.random.default_rng(7)
        f = random_field(rng, 4)
        x = rng.standard_normal(4)
        expected = np.array(
            [
                sum(f.quad[i, j, k] * x[j] * x[k] for j in range(4) for k in range(4))
                + sum(f.lin[i, j] * x[j] for j in range(4))
                + f.const[i]
                for i in range(4)
            ]
        )
        assert np.allclose(einsum_field(f, x), expected, rtol=1e-13)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        f = random_field(rng, 6)
        for _ in range(5):
            x = rng.standard_normal(6)
            assert np.allclose(einsum_jacobian(f, x), fd_field_jacobian(f, x), atol=1e-8)


class TestScalarRecursion:
    # xdot = x^2 gives x~ = x + 2 eps x^2 / (1 - 2 eps x)

    def test_first_step_frozen(self):
        res = kahan_step(SCALAR, np.array([1.0]), 0.1)
        assert res.next[0] == pytest.approx(1.25, abs=1e-15)
        assert res.delta == pytest.approx(0.8, abs=1e-15)
        assert step_defect(SCALAR, [1.0], res.next, 0.1) <= 1e-12 * (1 + 1 + 1.25)

    def test_second_step_exact_fraction(self):
        x1 = kahan_step(SCALAR, np.array([1.0]), 0.1).next
        x2 = kahan_step(SCALAR, x1, 0.1).next
        assert x2[0] == pytest.approx(5.0 / 3.0, abs=1e-15)

    @given(x0=st.floats(-2.0, 2.0), eps=st.floats(0.001, 0.15))
    @settings(max_examples=80, deadline=None)
    def test_closed_form_anywhere(self, x0, eps):
        den = 1 - 2 * eps * x0
        if abs(den) < 0.05:
            return
        res = kahan_step(SCALAR, np.array([x0]), eps)
        assert res.next[0] == pytest.approx(x0 + 2 * eps * x0 * x0 / den, rel=1e-12, abs=1e-12)
        assert res.delta == pytest.approx(den, rel=1e-13)

    def test_pole_raises(self):
        with pytest.raises(SingularStepError):
            kahan_step(SCALAR, np.array([1.0]), 0.5)

    def test_orbit_meets_the_closed_form_pole(self):
        # 1/x_0 = 0.6 puts the pole exactly at the third step, whose entry
        # keeps its near-zero denominator and a nan next state
        orbit = kahan_orbit(SCALAR, np.array([[5.0 / 3.0]]), 0.1, 10)
        assert list(orbit.pole[:3, 0]) == [False, False, True] and list(orbit.ends()) == [2]
        assert orbit.delta[2, 0] == pytest.approx(0.0, abs=1e-12)
        assert np.isnan(orbit.next[2, 0]).all()


# One Kahan step of the Lagrange top (alpha=2, gamma=1) frozen from a
# hand-rolled partial-pivot elimination on the polarized equations.
LAGRANGE21_FIELD = None


def _lagrange21():
    global LAGRANGE21_FIELD
    if LAGRANGE21_FIELD is None:
        alpha, gamma = 2.0, 1.0
        quad = np.zeros((6, 6, 6))

        def put(i, j, k, coef):
            quad[i, j, k] += coef / 2
            quad[i, k, j] += coef / 2

        put(0, 1, 2, alpha - 1)   # m1' = (alpha-1) m2 m3 + gamma p2
        put(1, 0, 2, 1 - alpha)   # m2' = (1-alpha) m1 m3 - gamma p1
        put(3, 4, 2, alpha)       # p1' = alpha p2 m3 - p3 m2
        put(3, 5, 1, -1.0)
        put(4, 5, 0, 1.0)         # p2' = p3 m1 - alpha p1 m3
        put(4, 3, 2, -alpha)
        put(5, 3, 1, 1.0)         # p3' = p1 m2 - p2 m1
        put(5, 4, 0, -1.0)
        lin = np.zeros((6, 6))
        lin[0, 4] = gamma
        lin[1, 3] = -gamma
        LAGRANGE21_FIELD = QuadraticVectorField(quad=quad, lin=lin, const=np.zeros(6))
    return LAGRANGE21_FIELD


class TestSixDimStep:
    X0 = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    EPS = 0.05
    FROZEN_NEXT = np.array(
        [
            0.15448236302984161,
            0.15524152245533199,
            0.29999999999999999,
            0.418824841984408,
            0.48307480386023255,
            0.60101564577390354,
        ]
    )
    FROZEN_DELTA = 0.99825068793749971

    def test_step_matches_elimination_oracle(self):
        res = kahan_step(_lagrange21(), self.X0, self.EPS)
        assert np.allclose(res.next, self.FROZEN_NEXT, rtol=0, atol=5e-14)
        assert res.delta == pytest.approx(self.FROZEN_DELTA, rel=1e-13)

    def test_residual_within_bound(self):
        res = kahan_step(_lagrange21(), self.X0, self.EPS)
        scale = 1 + np.max(np.abs(self.X0)) + np.max(np.abs(res.next))
        assert step_defect(_lagrange21(), self.X0, res.next, self.EPS) <= 1e-12 * scale

    def test_delta_matches_cofactor_determinant(self):
        f = _lagrange21()
        mat = np.eye(6) - self.EPS * einsum_jacobian(f, self.X0)
        assert delta(f, self.X0, self.EPS) == pytest.approx(cofactor_det(mat), rel=1e-12)

    def test_third_component_exactly_preserved(self):
        res = kahan_step(_lagrange21(), self.X0, self.EPS)
        assert res.next[2] == self.X0[2]


class TestMapProperties:
    def test_eps_zero_is_identity(self):
        rng = np.random.default_rng(12)
        f = random_field(rng, 4)
        x = rng.standard_normal(4)
        res = kahan_step(f, x, 0.0)
        assert np.array_equal(res.next, x)
        assert res.delta == 1.0

    def test_reversibility(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            f = random_field(rng, 5)
            x = rng.standard_normal(5) * 0.7
            forward = kahan_step(f, x, 0.05).next
            back = kahan_step(f, forward, -0.05).next
            assert np.allclose(back, x, atol=1e-10 * (1 + np.max(np.abs(x))))

    def test_map_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        f = random_field(rng, 4)
        x = rng.standard_normal(4) * 0.5
        eps = 0.05
        n = f.dim
        fd = np.empty((n, n))
        for j in range(n):
            h = 1e-6 * (1 + abs(x[j]))
            e = np.zeros(n)
            e[j] = h
            fd[:, j] = (kahan_step(f, x + e, eps).next - kahan_step(f, x - e, eps).next) / (2 * h)
        assert np.allclose(map_jacobian(f, x, eps, kahan_step(f, x, eps).next), fd, atol=1e-6)

    def test_map_jacobian_determinant_identity(self):
        # det dPhi(x) = Delta(x~, -eps) / Delta(x, eps)
        rng = np.random.default_rng(15)
        for _ in range(10):
            f = random_field(rng, 4)
            x = rng.standard_normal(4) * 0.5
            eps = 0.08
            x_next = kahan_step(f, x, eps).next
            lhs = cofactor_det(map_jacobian(f, x, eps, x_next))
            rhs = delta(f, x_next, -eps) / delta(f, x, eps)
            assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_map_jacobian_singular_row_is_nan(self):
        # xdot = x^2 at x = 1, eps = 1/2: I - eps*f'(x) = 1 - 2 eps x is
        # exactly 0. That row of a stack is nan, without a warning, and every
        # other row has numpy.linalg.solve's bits
        xs, ys, eps = np.array([[0.5], [1.0], [-0.25]]), np.array([[0.75], [2.0], [0.5]]), 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = map_jacobian(SCALAR, xs, eps, ys)
        assert got.shape == (3, 1, 1) and np.isnan(got[1]).all()
        mats, rhs = np.eye(1) - eps * einsum_jacobian(SCALAR, xs), np.eye(1) + eps * einsum_jacobian(SCALAR, ys)
        for i in (0, 2):
            assert got[i].tobytes() == np.linalg.solve(mats[i], rhs[i]).tobytes()
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            np.linalg.solve(mats, rhs)

    def test_residual_bound_on_random_fields(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            f = random_field(rng, 6)
            x = rng.standard_normal(6) * 0.6
            res = kahan_step(f, x, 0.05)
            scale = 1 + np.max(np.abs(x)) + np.max(np.abs(res.next))
            assert step_defect(f, x, res.next, 0.05) <= 1e-12 * scale


class TestValidation:
    def test_asymmetric_quad_rejected(self):
        quad = np.zeros((2, 2, 2))
        quad[0, 0, 1] = 1.0  # no matching [0, 1, 0] entry
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticVectorField(quad=quad, lin=np.zeros((2, 2)), const=np.zeros(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            QuadraticVectorField(quad=np.zeros((2, 2, 2)), lin=np.zeros((3, 3)), const=np.zeros(2))

    def test_nonfinite_rejected(self):
        lin = np.zeros((2, 2))
        lin[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            QuadraticVectorField(quad=np.zeros((2, 2, 2)), lin=lin, const=np.zeros(2))

    @pytest.mark.parametrize(
        "shape, message",
        [
            ((6,), "x must be a stack of states of shape (B, 6), got shape (6,)"),
            ((2, 5), "x must be a stack of states of shape (B, 6), got shape (2, 5)"),
        ],
    )
    def test_orbit_names_a_state_that_is_not_a_stack(self, shape, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            kahan_orbit(make_system("kirchhoff").field, np.full(shape, 0.1), 0.05, 3)

    @pytest.mark.parametrize("call", [kahan_step, delta])
    def test_one_state_named_as_passed(self, call):
        # the shape the caller passed, not the stack of one it is stepped as
        with pytest.raises(ValueError, match=re.escape("x must have shape (6,), got shape (5,)")):
            call(make_system("kirchhoff").field, np.full(5, 0.1), 0.05)

    @pytest.mark.parametrize("steps", [-1, 2.5, True])
    def test_steps_must_be_a_count(self, steps):
        with pytest.raises(ValueError, match=re.escape(f"steps must be an integer >= 0, got {steps!r}")):
            kahan_orbit(make_system("kirchhoff").field, np.full((1, 6), 0.1), 0.05, steps)

    def test_fractional_steps_named_through_iterate_orbit(self):
        # iterate_orbit's own rule, integer >= 1, not kahan_orbit's >= 0
        for steps in (1.5, 2.5):
            with pytest.raises(ValueError, match=re.escape(f"steps must be an integer >= 1, got {steps}")):
                iterate_orbit(make_system("kirchhoff").field, np.full(6, 0.1), 0.05, steps)


# Median one-step forward error, in ulps of |x~|_inf, of the kernel that
# evaluated f(x) with an einsum of its own and solved
# (I - eps*f'(x)) (x~ - x) = 2*eps*f(x), on the states TestForwardError draws.
SEPARATE_FIELD_MEDIAN_ULPS = {
    ("general_clebsch", 0.05): 0.330,
    ("general_clebsch", 0.4): 0.536,
    ("first_clebsch", 0.05): 0.301,
    ("first_clebsch", 0.4): 0.349,
    ("second_clebsch", 0.05): 0.308,
    ("second_clebsch", 0.4): 0.467,
    ("kirchhoff", 0.05): 0.295,
    ("kirchhoff", 0.4): 0.364,
    ("lagrange", 0.05): 0.314,
    ("lagrange", 0.4): 0.438,
    ("planar_family", 0.05): 0.316,
    ("planar_family", 0.4): 0.641,
}


def forward_errors(field, xs, eps):
    """max_i |x~_i - exact_i| in ulps of max_i |exact_i| for the float step
    from each row of xs that is off a pole, against the exact rational step
    from the same floats."""
    exact = ExactField(field)
    orbit = kahan_orbit(field, xs, eps, 1)
    errors = []
    for x, got, pole in zip(xs.tolist(), orbit.next[0].tolist(), orbit.pole[0]):
        if pole:
            continue
        want = exact.step(x, eps)
        ulp = Fraction(math.ulp(float(max(map(abs, want)))))
        errors.append(float(max(abs(Fraction(g) - w) for g, w in zip(got, want)) / ulp))
    return np.array(errors)


class TestForwardError:
    def test_exact_step_solves_the_polarized_equation(self):
        # the closed form x~ = x + 2 eps x^2 / (1 - 2 eps x) of xdot = x^2,
        # and the defining equation of a random field, hold exactly
        assert ExactField(SCALAR).step([1.0], 0.1) == [Fraction(1.0) + 2 * Fraction(0.1) / (1 - 2 * Fraction(0.1))]
        rng = np.random.default_rng(3)
        field = random_field(rng, 4)
        x, eps = rng.standard_normal(4), 0.3
        q, b, c, e = (np.vectorize(Fraction, otypes=[object])(a) for a in (field.quad, field.lin, field.const, eps))
        xf = np.vectorize(Fraction, otypes=[object])(x)
        nxt = np.array(ExactField(field).step(x.tolist(), eps), dtype=object)
        pol = np.einsum("ijk,j,k->i", q, xf, nxt) + b @ (xf + nxt) / 2 + c
        assert list(nxt - xf) == list(2 * e * pol)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_median_error_within_the_separate_field_kernel(self, kind):
        # 200 states in the unit ball per kind; the median stays within
        # 0.05 ulp of that kernel's median on the same states
        desc = make_system(kind)
        rng = np.random.default_rng(41)
        xs = np.array([unit_ball(rng, desc.dim) for _ in range(200)])
        for eps in (0.05, 0.4):
            errors = forward_errors(desc.field, xs, eps)
            assert len(errors) == len(xs)
            assert np.median(errors) <= SEPARATE_FIELD_MEDIAN_ULPS[kind, eps] + 0.05, (kind, eps)


def reference_step_tensor(field):
    """The step tensor entry by entry: row k < n holds the coefficients of
    x_k and row n the constant terms, of f'(x) = 2 Q x + B row-major and
    then of the n x (n + 1) matrix [f'(x) + B | 2c] row-major."""
    n = field.dim
    jac, rhs = np.zeros((n + 1, n, n)), np.zeros((n + 1, n, n + 1))
    for i in range(n):
        for j in range(n):
            # the coefficients of x_0 .. x_{n-1}, all k at once
            jac[:n, i, j] = rhs[:n, i, j] = 2.0 * field.quad[i, j, :]
            jac[n, i, j] = field.lin[i, j]
            rhs[n, i, j] = 2.0 * field.lin[i, j]
        rhs[n, i, n] = 2.0 * field.const[i]
    return np.concatenate([jac.reshape(n + 1, -1), rhs.reshape(n + 1, -1)], axis=1)


def folded_step_tensor(field, eps):
    """eps times the reference step tensor with its first n*n columns
    negated and I added, row-major, to its constant row: the product of
    [x, 1] with it starts with I - eps f'(x)."""
    n = field.dim
    tensor = eps * reference_step_tensor(field)
    tensor[:, : n * n] = -tensor[:, : n * n]
    tensor[n, : n * n] += np.eye(n).reshape(-1)
    return tensor


def one_state_step(field, x, eps):
    """The one-state step formulas, kept as the reference of the batch
    kernel: (next, delta, residual, on a pole). One product of a = [x, 1]
    with the folded step tensor gives I - eps f'(x) and the matrix
    [eps (f'(x) + B) | 2 eps c], whose product with a is the right-hand
    side 2 eps f(x) = eps (f'(x) + B) x + 2 eps c."""
    n, a = field.dim, np.append(x, 1.0)
    product = np.vecmat(a, folded_step_tensor(field, eps))
    mat = product[: n * n].reshape(n, n)
    det = float(np.linalg.det(mat))
    threshold = 1e-13 * (1.0 + np.linalg.norm(np.eye(n) - mat, np.inf)) ** n
    if abs(det) < threshold:
        return None, det, None, True
    rhs = np.matvec(product[n * n :].reshape(n, n + 1), a)
    x_next = x + np.linalg.solve(mat, rhs)
    pol = np.einsum("ijk,j,k->i", field.quad, x, x_next) + 0.5 * (field.lin @ (x + x_next)) + field.const
    defect = x_next - x - 2.0 * eps * pol
    return x_next, det, float(np.max(np.abs(defect))), False


class TestBatchStep:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("eps", [0.05, -0.05])
    def test_rows_equal_the_one_state_formulas(self, kind, eps):
        # 500 states in and around the unit ball; poles at a root of the
        # denominator are compared below
        desc = make_system(kind)
        rng = np.random.default_rng(17)
        xs = rng.standard_normal((500, desc.dim)) * rng.uniform(0.05, 2.0, (500, 1))
        orbit = kahan_orbit(desc.field, xs, eps, 1)
        for x, x_next, det, pole in zip(xs, *(column[0] for column in orbit[:3])):
            ref_next, ref_det, _, ref_pole = one_state_step(desc.field, x, eps)
            assert det == ref_det and pole == ref_pole
            if not pole:
                assert np.array_equal(x_next, ref_next)
                one = kahan_step(desc.field, x, eps)
                assert np.array_equal(one.next, ref_next) and one.delta == ref_det

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_pole_flags_only_its_row(self, kind):
        desc = make_system(kind)
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = safe_state(rng, desc)
            root = pole_eps(desc.field, x)
            if root is not None:
                break
        assert root is not None, "no real root of the denominator in 50 states"
        assert one_state_step(desc.field, x, root)[3]
        regular = [0.5 * x, safe_state(rng, desc)]
        xs = np.array([regular[0], x, regular[1]])
        batch = KahanBatch(*(column[0] for column in kahan_orbit(desc.field, xs, root, 1)))
        assert list(batch.pole) == [False, True, False]
        assert np.isnan(batch.next[1]).all()
        for row, y in zip((0, 2), regular):
            one = kahan_step(desc.field, y, root)
            assert np.array_equal(batch.next[row], one.next) and batch.delta[row] == one.delta
        with pytest.raises(SingularStepError, match="below threshold"):
            kahan_step(desc.field, x, root)

    def test_draw_on_a_pole_redraws(self):
        # the first kirchhoff proposal of seed 3 sits on a pole at eps ~ 19.11
        desc = make_system("kirchhoff")
        rng = np.random.default_rng(3)
        v = rng.standard_normal(desc.dim)
        first = v * (rng.uniform(0.3, 1.0) / np.linalg.norm(v))
        root = pole_eps(desc.field, first)
        assert root == pytest.approx(19.1107, abs=1e-4)
        with pytest.raises(SingularStepError):
            kahan_step(desc.field, first, root)
        x = draw_initial_state(np.random.default_rng(3), desc, root)
        assert not np.array_equal(x, first)
        kahan_step(desc.field, x, root)

    def test_empty_stack(self):
        orbit = kahan_orbit(SCALAR, np.zeros((0, 1)), 0.1, 1)
        assert orbit.next.shape == (1, 0, 1) and orbit.pole.shape == (1, 0)


def step_loop(field, x, eps, steps):
    """kahan_orbit's row as a loop of one-state steps, one KahanBatch per
    step, stopping at the first pole."""
    out = []
    for _ in range(steps):
        try:
            step = kahan_step(field, x, eps)
        except SingularStepError:
            break
        out.append(step)
        x = step.next
    return out


def one_state_loop(field, x, eps, steps, pole_point=None):
    """The entries of x's orbit from one_state_step, up to its first pole;
    the step from any point equal to pole_point counts as a pole, as
    place_pole makes it."""
    entries = []
    for _ in range(steps):
        x_next, det, residual, pole = one_state_step(field, x, eps)
        if pole_point is not None and np.array_equal(x, pole_point):
            x_next, residual, pole = None, None, True
        entries.append((x_next, det, residual, pole))
        if pole:
            break
        x = x_next
    return entries


def same(a, b):
    return np.array_equal(a, b, equal_nan=a.dtype.kind == "f")


class TestKahanOrbit:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("count", [1, 4])
    def test_rows_equal_a_kahan_step_loop(self, kind, count):
        desc = make_system(kind)
        rng = np.random.default_rng(23)
        xs = np.array([safe_state(rng, desc) for _ in range(count)])
        orbit = kahan_orbit(desc.field, xs, 0.05, 30)
        assert orbit.next.shape == (30, count, desc.dim) and orbit.delta.shape == (30, count)
        assert not orbit.pole.any() and np.isnan(orbit.threshold).all()
        assert list(orbit.ends()) == [30] * count
        for b, x in enumerate(xs):
            for k, step in enumerate(step_loop(desc.field, x, 0.05, 30)):
                assert np.array_equal(orbit.next[k, b], step.next), (b, k)
                assert orbit.delta[k, b] == step.delta

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("k", [0, 4, 9])
    def test_pole_stops_only_its_row(self, kind, k, monkeypatch):
        # rows [regular, pole in the step from point k, regular] of a
        # 10-step orbit; k = 9 is its last step
        desc, eps, steps = make_system(kind), 0.05, 10
        rng = np.random.default_rng(29)
        xs = np.array([safe_state(rng, desc) for _ in range(3)])
        clean = kahan_orbit(desc.field, xs, eps, steps)
        point = clean.next[k - 1, 1] if k else xs[1]
        place_pole(monkeypatch, point)
        orbit = kahan_orbit(desc.field, xs, eps, steps)
        assert list(orbit.ends()) == [steps, k, steps]
        assert orbit.pole.sum() == 1 and orbit.pole[k, 1]
        for field, expected in zip(orbit, clean):
            assert same(field[:, [0, 2]], expected[:, [0, 2]])
            assert same(field[:k, 1], expected[:k, 1])
        # the pole entry keeps its denominator and threshold; the rest is nan
        assert orbit.delta[k, 1] == clean.delta[k, 1] and orbit.threshold[k, 1] == math.inf
        assert np.isnan(orbit.next[k:, 1]).all()
        assert np.isnan(orbit.delta[k + 1 :, 1]).all() and np.isnan(orbit.threshold[k + 1 :, 1]).all()
        with pytest.raises(SingularStepError) as raised:
            kahan_step(desc.field, point, eps)
        assert str(orbit.pole_error((k, 1))) == str(raised.value)
        # the lone orbit of the middle row takes the one-state path to the
        # same entries
        lone = kahan_orbit(desc.field, xs[1:2], eps, steps)
        for field, expected in zip(lone, orbit):
            assert same(field[:, 0], expected[:, 1])

    @pytest.mark.parametrize("count", [1, 3])
    def test_first_is_used_not_stepped_again(self, count, monkeypatch):
        # first holds the steps from other states: the orbit continues from
        # their successors and never steps x
        desc, eps = make_system("kirchhoff"), 0.05
        rng = np.random.default_rng(31)
        xs = np.array([safe_state(rng, desc) for _ in range(count)])
        others = np.array([safe_state(rng, desc) for _ in range(count)])
        first = KahanBatch(*(column[0] for column in kahan_orbit(desc.field, others, eps, 1)))
        onward = kahan_orbit(desc.field, first.next, eps, 4)
        stepped = []
        denominators = quadfield._denominators
        monkeypatch.setattr(
            quadfield,
            "_denominators",
            lambda points, *args: stepped.append(points[..., :-1].reshape(-1, desc.dim))
            or denominators(points, *args),
        )
        orbit = kahan_orbit(desc.field, xs, eps, 5, first)
        # the points whose steps are decided are points 1..4, in step order:
        # x, point 0, is never stepped
        points = np.concatenate([first.next, *onward.next[:3]])
        assert np.array_equal(np.concatenate(stepped), points)
        assert not any((y == x).all(axis=-1).any() for y in stepped for x in xs)
        assert np.array_equal(orbit.next[0], first.next) and np.array_equal(orbit.delta[0], first.delta)
        assert not orbit.pole[0].any()
        for field, expected in zip(orbit, onward):
            assert same(field[1:], expected)

    @pytest.mark.parametrize("with_first", [False, True])
    @pytest.mark.parametrize("entry", [quadfield.DECIDE_STEPS + d for d in (-1, 0, 1, quadfield.DECIDE_STEPS)])
    def test_pole_at_a_block_edge(self, entry, with_first, monkeypatch):
        # rows [regular, pole in the step from point entry, regular] of a
        # 200-step orbit, decided a block of DECIDE_STEPS steps at a time:
        # the pole falls at either side of a block edge, which first moves
        # by one step
        desc, eps, steps = make_system("kirchhoff"), 0.05, 200
        rng = np.random.default_rng(41)
        xs = np.array([safe_state(rng, desc) for _ in range(3)])
        target = kahan_orbit(desc.field, xs[1:2], eps, entry).next[entry - 1, 0]
        place_pole(monkeypatch, target)
        first = KahanBatch(*(column[0] for column in kahan_orbit(desc.field, xs, eps, 1))) if with_first else None
        orbit = kahan_orbit(desc.field, xs, eps, steps, first)
        assert list(orbit.ends()) == [steps, entry, steps]
        threshold = np.full((steps, 3), np.nan)
        threshold[entry, 1] = math.inf
        assert same(orbit.threshold, threshold)
        for b, x in enumerate(xs):
            lone = kahan_orbit(desc.field, x[None], eps, steps)
            for column, expected in zip(orbit, lone):
                assert same(column[:, b], expected[:, 0]), b
            row = one_state_loop(desc.field, x, eps, steps, target)
            for k in range(steps):
                x_next, det, _, pole = row[k] if k < len(row) else (None, math.nan, None, False)
                assert orbit.pole[k, b] == pole and same(orbit.delta[k, b], np.float64(det)), (b, k)
                if x_next is None:
                    assert np.isnan(orbit.next[k, b]).all()
                else:
                    assert np.array_equal(orbit.next[k, b], x_next), (b, k)

    @pytest.mark.parametrize("kind", ["kirchhoff", "planar_family"])
    @pytest.mark.parametrize("entry", [None, 10, quadfield.DECIDE_STEPS + 10])
    def test_buffers_follow_the_live_rows(self, kind, entry, monkeypatch):
        # rows [regular, pole in the step from point entry, regular] of an
        # orbit of two full blocks and a short one: the orbit's buffers
        # serve every block until the pole drops a row, the next block
        # steps on new ones, and the short block on a prefix of either
        desc, eps, block = make_system(kind), 0.05, quadfield.DECIDE_STEPS
        steps = 2 * block + 5
        rng = np.random.default_rng(47)
        xs = np.array([safe_state(rng, desc) for _ in range(3)])
        target = None
        if entry is not None:
            target = kahan_orbit(desc.field, xs[1:2], eps, entry).next[entry - 1, 0]
            place_pole(monkeypatch, target)
        rows = count_stepped(monkeypatch)
        orbit = kahan_orbit(desc.field, xs, eps, steps)
        assert list(orbit.ends()) == [steps, steps if entry is None else entry, steps]
        # every stepped point is read once: the middle row steps to the end
        # of its pole's block
        live = [3 if entry is None or b <= entry // block else 2 for b in range(3)]
        assert rows == [size * count for size, count in zip([block, block, 5], live)]
        for b, x in enumerate(xs):
            lone = kahan_orbit(desc.field, x[None], eps, steps)
            for column, expected in zip(orbit, lone):
                assert same(column[:, b], expected[:, 0]), b
            row = one_state_loop(desc.field, x, eps, steps, target)
            for k in range(steps):
                x_next, det, _, pole = row[k] if k < len(row) else (None, math.nan, None, False)
                assert orbit.pole[k, b] == pole and same(orbit.delta[k, b], np.float64(det)), (b, k)
                if x_next is None:
                    assert np.isnan(orbit.next[k, b]).all()
                else:
                    assert np.array_equal(orbit.next[k, b], x_next), (b, k)

    def test_a_nan_state_carries_nan(self):
        # a state already out of range meets no pole and raises nothing: its
        # row is nan, and the other rows step as their lone orbits do
        desc, eps = make_system("kirchhoff"), 0.05
        x = safe_state(np.random.default_rng(43), desc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            orbit = kahan_orbit(desc.field, np.array([np.full(desc.dim, np.nan), x]), eps, 5)
        assert np.isnan(orbit.next[:, 0]).all() and np.isnan(orbit.delta[:, 0]).all()
        assert not orbit.pole.any()
        for column, expected in zip(orbit, kahan_orbit(desc.field, x[None], eps, 5)):
            assert same(column[:, 1], expected[:, 0])

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_orbit_stops_at_an_exact_root(self, kind):
        # eps a root of det(I - eps*f'(x)): the lone orbit of x and the row
        # of x in a stack stop at step 0, and a row one step before x stops
        # at step 1; the regular rows go on
        desc = make_system(kind)
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = safe_state(rng, desc)
            root = pole_eps(desc.field, x)
            if root is not None:
                break
        assert root is not None, "no real root of the denominator in 50 states"
        lone = kahan_orbit(desc.field, x[None], root, 3)
        assert list(lone.pole[:, 0]) == [True, False, False]
        before = kahan_step(desc.field, x, -root).next
        orbit = kahan_orbit(desc.field, np.array([0.5 * x, x, before]), root, 3)
        assert not orbit.pole[0, 0] and list(orbit.ends()[1:]) == [0, 1]
        for field, expected in zip(lone, orbit):
            assert same(field[:, 0], expected[:, 1])
        with pytest.raises(SingularStepError) as raised:
            kahan_step(desc.field, x, root)
        assert str(lone.pole_error((0, 0))) == str(raised.value)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        count=st.sampled_from([1, 3]),
        steps=st.integers(1, 6),
        radius=st.floats(0.05, 1.5),
        eps=st.floats(-0.3, 0.3),
        at_root=st.booleans(),
        pole_at=st.none() | st.integers(0, 5),
    )
    # steps too small to move their point: the placed pole repeats at step 0
    @example(seed=1, n=3, count=3, steps=4, radius=0.5, eps=1.1e-308, at_root=False, pole_at=2)
    @example(seed=2, n=2, count=1, steps=3, radius=0.5, eps=0.0, at_root=False, pole_at=1)
    @settings(max_examples=80, deadline=None)
    def test_every_entry_equals_the_one_state_formulas(self, seed, n, count, steps, radius, eps, at_root, pole_at):
        # random fields and states; the last row meets a pole at its first
        # step when at_root puts eps on a root of its denominator, and at
        # the step from point pole_at when place_pole puts one there
        rng = np.random.default_rng(seed)
        field = random_field(rng, n)
        xs = rng.uniform(-radius, radius, (count, n))
        if at_root:
            eps = pole_eps(field, xs[-1], span=3.0)
            assume(eps is not None)
        # keep to orbits that stay in range: the oracle raises on overflow
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            try:
                expected = [one_state_loop(field, x, eps, steps) for x in xs]
            except FloatingPointError:
                assume(False)
        clean = expected[-1]
        with pytest.MonkeyPatch.context() as patch:
            if pole_at is not None and pole_at < len(clean) and not clean[pole_at][3]:
                # the pole sits at every point equal to point pole_at: an
                # earlier one too, where a step too small to move its point
                # (eps 0 or subnormal) repeats it
                target = clean[pole_at - 1][0] if pole_at else xs[-1]
                place_pole(patch, target)
                expected = [one_state_loop(field, x, eps, steps, target) for x in xs]
            orbit = kahan_orbit(field, xs, eps, steps)
            batch = KahanBatch(*(column[0] for column in kahan_orbit(field, xs, eps, 1)))
            lone = [kahan_step(field, x, eps) if not row[0][3] else None for x, row in zip(xs, expected)]
            points = [None if one is None else iterate_orbit(field, x, eps, steps) for x, one in zip(xs, lone)]
            for x, row in zip(xs, expected):
                if row[0][3]:
                    with pytest.raises(SingularStepError):
                        kahan_step(field, x, eps)
                    with pytest.raises(SingularStepError):
                        iterate_orbit(field, x, eps, steps)
        ends = [next((k for k, entry in enumerate(row) if entry[3]), steps) for row in expected]
        assert list(orbit.ends()) == ends
        for b, row in enumerate(expected):
            for k in range(steps):
                x_next, det, _, pole = row[k] if k < len(row) else (None, math.nan, None, False)
                assert orbit.pole[k, b] == pole and same(orbit.delta[k, b], np.float64(det)), (b, k)
                if x_next is None:
                    assert np.isnan(orbit.next[k, b]).all()
                else:
                    assert np.array_equal(orbit.next[k, b], x_next)
        # the one-step views: their entries are the orbit's first
        for column, orbit_column in zip(batch[:3], orbit[:3]):
            assert same(column, orbit_column[0])
        for one, row in zip(lone, expected):
            x_next, det, _, _ = row[0]
            if one is not None:
                assert np.array_equal(one.next, x_next) and one.delta == det
        # iterate_orbit: the row's points up to its first pole
        for states, x, row in zip(points, xs, expected):
            if states is not None:
                reached = [x] + [entry[0] for entry in row if not entry[3]]
                assert states.shape == (len(reached), n) and np.array_equal(states, np.array(reached))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_step_is_the_lone_orbit_entry(self, kind):
        # kahan_step is entry (0, 0) of the one-step orbit of x, a KahanBatch
        # without axes, and delta the denominator that step computes, bit
        # for bit
        desc, eps = make_system(kind), 0.05
        x = safe_state(np.random.default_rng(37), desc, eps)
        step = kahan_step(desc.field, x, eps)
        assert isinstance(step, KahanBatch)
        for column, expected in zip(step, kahan_orbit(desc.field, x[None], eps, 1)):
            assert np.asarray(column).tobytes() == expected[0, 0].tobytes()
        assert np.float64(delta(desc.field, x, eps)).tobytes() == step.delta.tobytes()

    def test_no_steps(self):
        orbit = kahan_orbit(SCALAR, np.ones((2, 1)), 0.1, 0)
        assert orbit.next.shape == (0, 2, 1) and list(orbit.ends()) == [0, 0]


class TestOneJacobianPerPoint:
    """The pole decision reads the step products and matrices the loop
    built, so each stepped point builds its Jacobian once and reaches the
    decision once."""

    @pytest.mark.parametrize("count", [1, 7, 500])
    def test_step_batch(self, count, monkeypatch):
        desc = make_system("kirchhoff")
        rng = np.random.default_rng(41)
        xs = np.array([unit_ball(rng, desc.dim) for _ in range(count)])
        rows = count_stepped(monkeypatch)
        kahan_orbit(desc.field, xs, 0.05, 1)
        assert sum(rows) == count

    @pytest.mark.parametrize("steps", [1, quadfield.DECIDE_STEPS, quadfield.DECIDE_STEPS + 1, 200])
    def test_lone_orbit(self, steps, monkeypatch):
        desc = make_system("kirchhoff")
        x = safe_state(np.random.default_rng(43), desc)
        rows = count_stepped(monkeypatch)
        orbit = kahan_orbit(desc.field, x[None], 0.05, steps)
        assert list(orbit.ends()) == [steps] and sum(rows) == steps


class TestStepMemory:
    def test_step_batch_peak(self):
        # a step of a stack holds the product rows, (2n^2 + n) doubles each,
        # the matrices among them; at eps 0.05 the norm bound decides every
        # row and its pole decision forms no eps*f'(x): 214 B per unit of
        # trials x dim at n = 10. A second product buffer would add 168 B
        # and fail the bound
        n, count = 10, 2000
        rng = np.random.default_rng(67)
        desc = build_system("planar_family", PlanarFamilyParams(qform=(1.0, 0.5, 2.0), ell=rng.uniform(-1, 1, n)))
        xs = rng.uniform(-1.0, 1.0, (count, n))
        kahan_orbit(desc.field, xs, 0.05, 1)  # numpy's lazy set-up is not the step's
        tracemalloc.start()
        try:
            kahan_orbit(desc.field, xs, 0.05, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 372 * count * n, peak / (count * n)

    @pytest.mark.parametrize("delta", [True, False])
    def test_step_batch_peak_with_every_row_open(self, delta):
        # at eps 5 no bound decides: the pole decision forms eps*f'(x) for
        # every row, n^2 doubles each, in its copy of the matrices, and
        # takes the norms in place: 295 B per unit of trials x dim at
        # n = 10. Norms taken from a second copy give 373 B and fail
        n, count = 10, 2000
        rng = np.random.default_rng(67)
        desc = build_system("planar_family", PlanarFamilyParams(qform=(1.0, 0.5, 2.0), ell=rng.uniform(-1, 1, n)))
        xs = rng.uniform(-1.0, 1.0, (count, n))
        kahan_orbit(desc.field, xs, 5.0, 1, delta=delta)
        tracemalloc.start()
        try:
            kahan_orbit(desc.field, xs, 5.0, 1, delta=delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 372 * count * n, peak / (count * n)


def scalar_pole_rule(det, norm, n):
    """The per-state pole test: |det| below 1e-13 (1 + norm)^n as a Python
    float power, inf where that overflows."""
    try:
        threshold = 1e-13 * (1.0 + norm) ** n
    except OverflowError:
        threshold = math.inf
    return abs(det) < threshold, threshold


class TestPoleTest:
    @pytest.mark.parametrize("count", [1, 8, 9, 300])
    @pytest.mark.parametrize("n", [1, 3, 6, 10, 28, 66])
    def test_decisions_equal_the_scalar_rule(self, count, n):
        # determinants within a few ulps of their thresholds, on both sides,
        # and far from them; norms that are 0, huge enough to overflow the
        # power, infinite (place_pole's) or nan
        rng = np.random.default_rng(count * 10 + n)
        norms = rng.uniform(0.0, 3.0, count) * rng.choice([1.0, 1e3, 1e60], count, p=[0.8, 0.15, 0.05])
        norms[rng.random(count) < 0.05] = 0.0
        norms[rng.random(count) < 0.05] = math.inf
        norms[rng.random(count) < 0.05] = math.nan
        factors = [0.0, 1 - 2e-16, 1 - 1e-15, 1.0, 1 + 2.3e-16, 1 + 1e-15, 1 + 1e-7, 2.0, 1e12]
        thresholds = np.array([scalar_pole_rule(0.0, v, n)[1] for v in norms.tolist()])
        det = rng.uniform(-1.0, 1.0, count)
        at = np.isfinite(thresholds)
        det[at] = thresholds[at] * rng.choice(factors, at.sum()) * rng.choice([-1.0, 1.0], at.sum())
        det[rng.random(count) < 0.03] = math.nan
        rules = [scalar_pole_rule(d, v, n) for d, v in zip(det.tolist(), norms.tolist())]
        expected = [(i, threshold) for i, (pole, threshold) in enumerate(rules) if pole]
        poles, thresholds = quadfield._poles(det, norms, n)
        assert list(zip(poles, thresholds)) == expected

    @pytest.mark.parametrize("kind", ["general_clebsch", "planar_family"])
    def test_stack_rows_equal_their_lone_orbits(self, kind):
        # a stack of 14 rows: a row on an exact root of its
        # denominator, a row one step before it and a row that meets a
        # placed pole keep the entries of their lone orbits
        desc = make_system(kind)
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = safe_state(rng, desc)
            root = pole_eps(desc.field, x)
            if root is not None:
                break
        assert root is not None, "no real root of the denominator in 50 states"
        scaled = [s * x for s in np.linspace(0.1, 0.9, 12)]
        xs = np.array(scaled + [x, kahan_step(desc.field, x, -root).next])
        clean = kahan_orbit(desc.field, xs, root, 3)
        with pytest.MonkeyPatch.context() as patch:
            place_pole(patch, clean.next[0, 2])
            orbit = kahan_orbit(desc.field, xs, root, 3)
            lone = [kahan_orbit(desc.field, row[None], root, 3) for row in xs]
        assert orbit.pole[1, 2] and orbit.pole[0, -2] and orbit.pole[1, -1]
        for b, row in enumerate(lone):
            for field, expected in zip(orbit, row):
                assert same(field[:, b], expected[:, 0]), b


def spread_states(desc, rng, count=11):
    """count states from 0.05 to 6 in radius, whose norms |eps*f'(x)|_inf
    fall on both sides of 1/2 at eps 0.05 and 0.4, and a nan state."""
    directions = rng.standard_normal((count, desc.dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return np.concatenate([np.geomspace(0.05, 6.0, count)[:, None] * directions, np.full((1, desc.dim), np.nan)])


def fails_the_clearance(bounds, n):
    """Where a norm bound nu' fails the det-free clearance 1 - nu' >= (1 +
    nu') (SINGULAR_DET_FACTOR POLE_MARGIN)^(1/n), restated; a nan bound
    fails it."""
    factor = (quadfield.SINGULAR_DET_FACTOR * quadfield.POLE_MARGIN) ** (1.0 / n)
    with np.errstate(invalid="ignore"):
        return ~(1.0 - bounds >= (bounds + 1.0) * factor)


def delta_free_against_full(field, xs, eps, steps, first=None):
    """kahan_orbit with delta=False against the full orbit: the same points,
    poles, thresholds and ends, and the full orbit's denominator at every
    entry whose point's norm bound, from _norm_bounds, fails the clearance,
    at every pole entry, and at entry 0 when first gives it; nan elsewhere.
    Returns the full orbit, the norms at the points its entries step from,
    and the mask of the entries that take the det."""
    full = kahan_orbit(field, xs, eps, steps, first)
    free = kahan_orbit(field, xs, eps, steps, first, delta=False)
    assert same(free.next, full.next) and same(free.pole, full.pole) and same(free.threshold, full.threshold)
    assert list(free.ends()) == list(full.ends())
    # the exact norms of the step's own eps*f'(x), I minus its matrix, as
    # the pole decision reads them under a nan bound, which leaves every
    # decision open, and inf where place_pole sets them
    points = np.concatenate([xs[None], full.next[:-1]])
    augmented = np.concatenate([points, np.ones((*points.shape[:-1], 1))], axis=-1)
    n = field.dim
    with np.errstate(invalid="ignore", over="ignore"):
        mats = np.vecmat(augmented, folded_step_tensor(field, eps))[..., : n * n].reshape(*points.shape, n)
        unbounded = np.full(points.shape[:-1], np.nan)
        _, rows, norms = quadfield._denominators(augmented, mats, unbounded, True)
        bounds = np.abs(augmented) @ quadfield._norm_bounds(eps * field.step_tensor, n)
    assert np.array_equal(rows, np.arange(unbounded.size))
    taken = fails_the_clearance(bounds, n) | full.pole
    if first is not None:
        taken[0] = True
    assert same(free.delta, np.where(taken, full.delta, np.nan))
    return full, norms.reshape(points.shape[:-1]), taken


class TestDeltaFreeOrbit:
    """kahan_orbit(..., delta=False) takes the det only where the norm bound
    leaves the pole decision open, and decides every pole as the full
    orbit does."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("eps", [0.05, 0.4])
    @pytest.mark.parametrize("with_first", [False, True])
    def test_equals_the_full_orbit(self, kind, eps, with_first):
        # states from 0.05 to 6 in radius put points on both sides of
        # |eps*f'(x)|_inf = 1/2 and of the clearance, and a nan state
        # carries nan; 70 steps cross a block edge
        desc = make_system(kind)
        xs = spread_states(desc, np.random.default_rng(47))
        first = KahanBatch(*(column[0] for column in kahan_orbit(desc.field, xs, eps, 1))) if with_first else None
        with np.errstate(over="ignore", invalid="ignore"):
            full, norms, taken = delta_free_against_full(desc.field, xs, eps, 70, first)
        reached = np.arange(70)[:, None] <= full.ends()
        assert (norms[reached] <= 0.5).any() and (norms[reached] > 0.5).any()
        assert (~taken[reached]).any() and taken[reached & np.isfinite(norms)].any()

    @pytest.mark.parametrize("with_first", [False, True])
    @pytest.mark.parametrize("k", [0, 5, quadfield.DECIDE_STEPS])
    def test_placed_pole(self, k, with_first, monkeypatch):
        # place_pole's inf norm sends its point to the det: the pole entry
        # keeps its denominator and error message
        desc, eps, steps = make_system("kirchhoff"), 0.05, 80
        rng = np.random.default_rng(53)
        xs = np.array([safe_state(rng, desc) for _ in range(3)])
        point = kahan_orbit(desc.field, xs[1:2], eps, k).next[k - 1, 0] if k else xs[1]
        place_pole(monkeypatch, point)
        first = KahanBatch(*(column[0] for column in kahan_orbit(desc.field, xs, eps, 1))) if with_first else None
        full, norms, _ = delta_free_against_full(desc.field, xs, eps, steps, first)
        assert list(full.ends()) == [steps, k, steps] and norms[k, 1] == math.inf
        free = kahan_orbit(desc.field, xs, eps, steps, first, delta=False)
        assert free.delta[k, 1] == full.delta[k, 1]
        assert str(free.pole_error((k, 1))) == str(full.pole_error((k, 1)))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("with_first", [False, True])
    def test_exact_root(self, kind, with_first):
        # eps a root of det(I - eps*f'(x)): the row of x stops at step 0 and
        # a row one step before x at step 1, each with its denominator
        desc = make_system(kind)
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = safe_state(rng, desc)
            root = pole_eps(desc.field, x)
            if root is not None:
                break
        assert root is not None, "no real root of the denominator in 50 states"
        xs = np.array([0.5 * x, x, kahan_step(desc.field, x, -root).next])
        first = KahanBatch(*(column[0] for column in kahan_orbit(desc.field, xs, root, 1))) if with_first else None
        full, _, _ = delta_free_against_full(desc.field, xs, root, 3, first)
        assert list(full.ends()[1:]) == [0, 1]
        free = kahan_orbit(desc.field, xs, root, 3, first, delta=False)
        assert free.delta[0, 1] == full.delta[0, 1] and free.delta[1, 2] == full.delta[1, 2]

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        radius=st.floats(0.05, 4.0),
        eps=st.floats(-0.5, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_fields(self, seed, n, radius, eps):
        rng = np.random.default_rng(seed)
        field = random_field(rng, n)
        xs = rng.uniform(-radius, radius, (4, n))
        with np.errstate(over="ignore", invalid="ignore"):
            delta_free_against_full(field, xs, eps, 8)


def exact_norm_rule(points, mats, bounds, delta):
    """The block rule by its definition, frozen and put behind the bound's
    seam: the det and the norm |eps*f'(x)|_inf of every stepped point, from
    I minus its matrix; neither the bounds nor the delta mode is read, and
    every point goes to the pole decision."""
    n = mats.shape[-1]
    jacs = np.eye(n) - mats
    norms = np.abs(jacs, out=jacs).sum(-1).max(-1).reshape(-1)
    return np.linalg.det(mats.reshape(-1, n, n)), np.arange(norms.size), norms


def against_the_exact_rule(field, xs, eps, steps, first=None, pole_point=None):
    """kahan_orbit, in both delta modes, against the same orbit decided by
    exact_norm_rule: every column bit for bit, but for the denominators of
    the delta=False orbit, which match wherever they are taken, at every
    pole entry among them. pole_point, when given, is placed as a pole on
    both sides. Returns the full orbit."""
    orbits = []
    for rule in (None, exact_norm_rule):
        with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore", invalid="ignore"):
            if rule is not None:
                patch.setattr(quadfield, "_denominators", rule)
            if pole_point is not None:
                place_pole(patch, pole_point)
            orbits.append([kahan_orbit(field, xs, eps, steps, first, delta=d) for d in (True, False)])
    (full, free), (expected_full, expected_free) = orbits
    for got, expected in ((full, expected_full), (free, expected_free)):
        for name in ("next", "pole", "threshold"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
    assert full.delta.tobytes() == expected_full.delta.tobytes()
    taken = ~np.isnan(free.delta)
    assert free.delta[taken].tobytes() == expected_free.delta[taken].tobytes() and taken[free.pole].all()
    return full


class TestNormBound:
    """Each block bounds |eps*f'(x)|_inf by |[x, 1]| @ c, c from the slices
    of eps * step_tensor raised by a rounding margin, and forms eps*f'(x)
    only where that bound leaves the pole decision open. The bound is at
    least the computed norm, and every point, denominator, pole and
    threshold is the one the exact norms give."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 10),
        planar=st.booleans(),
        count=st.sampled_from([1, 5]),
        scale=st.floats(-8.0, 8.0),
        eps=st.floats(-1e150, 1e150),
        first_state=st.sampled_from(["drawn", "origin", math.nan, math.inf, -math.inf]),
    )
    @example(seed=1, n=6, planar=False, count=5, scale=8.0, eps=1e150, first_state=math.inf)
    @example(seed=2, n=10, planar=True, count=5, scale=-8.0, eps=-5e-324, first_state="drawn")
    @example(seed=3, n=6, planar=False, count=1, scale=0.0, eps=1e150, first_state="origin")
    @settings(max_examples=150, deadline=None)
    def test_bound_dominates_the_computed_norm(self, seed, n, planar, count, scale, eps, first_state):
        # random fields, planar ones from n = 2, states scaled 1e-8 to 1e8;
        # the first state is one of them, the origin, where the bound is the
        # constant slice's norm alone and so is tight up to rounding, or has
        # a nan or infinite entry. At every stepped point the bound is at
        # least the norm of I minus the step's matrix as computed, or it is
        # not finite
        rng = np.random.default_rng(seed)
        if planar and n >= 2:
            params = PlanarFamilyParams(qform=(1.0, 0.5, 2.0), ell=rng.uniform(-1, 1, n))
            field = build_system("planar_family", params).field
        else:
            field = random_field(rng, n)
        xs = rng.uniform(-1.0, 1.0, (count, n)) * 10.0**scale
        if first_state == "origin":
            xs[0] = 0.0
        elif first_state != "drawn":
            xs[0, rng.integers(n)] = first_state
        seen = []
        denominators = quadfield._denominators

        def kept(points, mats, bounds, delta):
            seen.append((points.copy(), mats.copy(), bounds.copy()))
            return denominators(points, mats, bounds, delta)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(quadfield, "_denominators", kept)
            kahan_orbit(field, xs, eps, 1)
        ((points, mats, bounds),) = seen
        with np.errstate(invalid="ignore", over="ignore"):
            norms = np.abs(np.eye(n) - mats).sum(-1).max(-1)
        assert ((norms <= bounds) | ~np.isfinite(bounds)).all(), (norms, bounds)
        # a nan state has a nan bound, which leaves its decision open
        assert np.isnan(bounds[np.isnan(points).any(axis=-1)]).all()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("eps", [0.05, 0.4])
    def test_norms_straddling_one_half(self, kind, eps):
        # 70 steps cross a block edge
        desc = make_system(kind)
        xs = spread_states(desc, np.random.default_rng(47))
        full = against_the_exact_rule(desc.field, xs, eps, 70)
        with np.errstate(invalid="ignore", over="ignore"):
            points = np.concatenate([xs[None], full.next[:-1]])
            norms = np.abs(eps * einsum_jacobian(desc.field, points)).sum(-1).max(-1)
        reached = np.arange(70)[:, None] <= full.ends()
        assert (norms[reached] <= 0.5).any() and (norms[reached] > 0.5).any()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_exact_roots(self, kind):
        # eps a root of det(I - eps*f'(x)): x's row stops at step 0 and a
        # row one step before x at step 1
        desc = make_system(kind)
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = safe_state(rng, desc)
            root = pole_eps(desc.field, x)
            if root is not None:
                break
        assert root is not None, "no real root of the denominator in 50 states"
        xs = np.array([0.5 * x, x, kahan_step(desc.field, x, -root).next, np.full(desc.dim, np.nan)])
        for first in (None, KahanBatch(*(column[0] for column in kahan_orbit(desc.field, xs, root, 1)))):
            full = against_the_exact_rule(desc.field, xs, root, 3, first)
            assert list(full.ends()[1:3]) == [0, 1]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_huge_eps(self, kind):
        # at eps 1e150 every denominator is past the float range or a pole
        desc = make_system(kind)
        xs = spread_states(desc, np.random.default_rng(71), count=5)
        against_the_exact_rule(desc.field, xs, 1e150, 70)

    @pytest.mark.parametrize("with_first", [False, True])
    @pytest.mark.parametrize("entry", [quadfield.DECIDE_STEPS + d for d in (-1, 0, 1)])
    def test_block_edge(self, entry, with_first):
        # rows meet a placed pole at either side of a block edge, which
        # first moves by one step, among rows that straddle 1/2 at eps 0.4
        desc, eps = make_system("kirchhoff"), 0.4
        rng = np.random.default_rng(41)
        xs = np.concatenate([spread_states(desc, rng, count=4), [safe_state(rng, desc, eps)]])
        target = kahan_orbit(desc.field, xs[-1:], eps, entry).next[entry - 1, 0]
        first = KahanBatch(*(column[0] for column in kahan_orbit(desc.field, xs, eps, 1))) if with_first else None
        full = against_the_exact_rule(desc.field, xs, eps, 2 * quadfield.DECIDE_STEPS + 3, first, target)
        assert full.ends()[-1] == entry and full.threshold[entry, -1] == math.inf

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        radius=st.floats(0.05, 4.0),
        eps=st.floats(-0.5, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_fields(self, seed, n, radius, eps):
        rng = np.random.default_rng(seed)
        field = random_field(rng, n)
        against_the_exact_rule(field, rng.uniform(-radius, radius, (4, n)), eps, 8)


def floats_around(value, ulps):
    """value and the floats up to ulps steps from it on either side."""
    below = [value]
    for _ in range(ulps):
        below.append(np.nextafter(below[-1], -math.inf))
    above = [value]
    for _ in range(ulps):
        above.append(np.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


class TestClearanceEdge:
    """On quad = 0, const = 0 and lin = (nu/eps) I the step matrix is
    M = (1 - nu) I at every point, so Delta = (1 - nu)^n is the
    clearance's lower bound itself: ulps either side of the clearance's
    edge and of the true pole edge (1 - nu)/(1 + nu) = 10^(-13/n)."""

    @pytest.mark.parametrize("n", [1, 6, 28, 66])
    def test_scaled_identity(self, n):
        # eps a power of two, so that eps (nu/eps) is nu
        eps, u = 0.5, np.finfo(float).eps / 2
        factor = (quadfield.SINGULAR_DET_FACTOR * quadfield.POLE_MARGIN) ** (1.0 / n)
        # the nu whose bound, nu (1 + 8 (n + 2) u) + 4 (n + 2) u, is on the
        # clearance's edge, and the pole edge
        clear_edge = ((1.0 - factor) / (1.0 + factor) - 4 * (n + 2) * u) / (1.0 + 8 * (n + 2) * u)
        root = 10.0 ** (-13.0 / n)
        pole_edge = (1.0 - root) / (1.0 + root)
        xs = np.stack([np.ones(n), np.linspace(-1.0, 1.0, n)])
        sides, poles = set(), 0
        for nu in floats_around(clear_edge, 6) + floats_around(pole_edge, 6):
            field = QuadraticVectorField(np.zeros((n, n, n)), (nu / eps) * np.eye(n), np.zeros(n))
            assert (eps * field.step_tensor[n, : n * n] == nu * np.eye(n).reshape(-1)).all()
            full = against_the_exact_rule(field, xs, eps, 2)
            # every point's bound is the constant slice's
            clears = not fails_the_clearance(quadfield._norm_bounds(eps * field.step_tensor, n)[n], n)
            free = kahan_orbit(field, xs, eps, 2, delta=False)
            assert same(free.delta, np.where(clears, np.nan, full.delta))
            sides.add(clears)
            poles += int(full.pole.any())
            if clears:
                # cleared without a det: a non-pole by the definition, at
                # the det as computed and exactly
                m = 1.0 - nu
                assert not full.pole.any() and not scalar_pole_rule(full.delta[0, 0], abs(1.0 - m), n)[0]
                assert Fraction(m) ** n >= Fraction(quadfield.SINGULAR_DET_FACTOR) * (2 - Fraction(m)) ** n
        # the sweeps cross both edges
        assert sides == {False, True} and 0 < poles < 13


def einsum_jacobian(field, x):
    """f'(x) = 2 Q x + B of one state or a stack x[..., n], as a frozen
    np.einsum expression that shares no kernel with the package."""
    return 2.0 * np.einsum("ijk,...k->...ij", field.quad, x) + field.lin


def step_buffers(field, xs, eps):
    """The eps*f'(x) and step matrices I - eps*f'(x) that a one-step
    kahan_orbit builds for the rows of xs, as its pole decision reads them: the
    matrices, and the eps*f'(x) it forms from them, I minus them, where
    their norm bound leaves the decision open."""
    seen = []
    denominators = quadfield._denominators

    def kept(points, mats, *args):
        seen.append((np.eye(mats.shape[-1]) - mats[0], mats[0].copy()))
        return denominators(points, mats, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadfield, "_denominators", kept)
        kahan_orbit(field, xs, eps, 1)
    (buffers,) = seen
    return buffers


class TestStepTensor:
    """One product of the augmented points [x, 1] with the folded step
    tensor gives I - eps*f'(x) and, through the right-hand side's matrix,
    2*eps*f(x): each within a few ulps of the einsum expressions, measured
    on the same sums of absolute values."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        count=st.sampled_from([1, 4]),
        eps=st.sampled_from([0.05, -0.05, 0.4, 1e10]),
    )
    @settings(max_examples=120, deadline=None)
    def test_blocks_equal_the_einsum_expressions(self, seed, n, count, eps):
        rng = np.random.default_rng(seed)
        field = random_field(rng, n)
        xs = rng.uniform(-1.0, 1.0, (count, n))
        tensor = field.step_tensor
        assert tensor.tobytes() == reference_step_tensor(field).tobytes() and not tensor.flags.writeable
        a = np.concatenate([xs, np.ones((count, 1))], axis=1)
        product = np.vecmat(a, folded_step_tensor(field, eps))
        mat = product[:, : n * n].reshape(count, n, n)
        # the step builds this matrix, and the eps*f'(x) its pole decision
        # reads from it
        jacs, mats = step_buffers(field, xs, eps)
        assert mats.tobytes() == mat.tobytes() and jacs.tobytes() == (np.eye(n) - mat).tobytes()
        rhs = np.matvec(product[:, n * n :].reshape(count, n, n + 1), a)
        # a dot product of n + 1 terms, of terms that are themselves such
        # dot products, errs by at most a few (n + 2) ulps of the sum of
        # its terms' absolute values
        ulps = 4 * (n + 2) * np.finfo(float).eps
        quad, lin, const, x = np.abs(field.quad), np.abs(field.lin), np.abs(field.const), np.abs(xs)
        jac_scale = abs(eps) * (2.0 * np.einsum("ijk,...k->...ij", quad, x) + lin)
        # the matrix's diagonal sums take the term 1 as well
        mat_scale = jac_scale + np.eye(n)
        assert (np.abs(mat - (np.eye(n) - eps * einsum_jacobian(field, xs))) <= ulps * mat_scale).all()
        field_scale = 2.0 * abs(eps) * (np.einsum("ijk,...j,...k->...i", quad, x, x) + x @ lin.T + const)
        assert (np.abs(rhs - 2.0 * eps * einsum_field(field, xs)) <= 2 * ulps * field_scale).all()

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        eps=st.sampled_from([0.05, -0.05, 0.4, 1e10]),
    )
    @settings(max_examples=80, deadline=None)
    def test_delta_is_the_steps_denominator(self, seed, n, eps):
        # delta is the det kahan_step's step takes, bit for bit, on a pole
        # or off it
        rng = np.random.default_rng(seed)
        field = random_field(rng, n)
        x = rng.uniform(-1.0, 1.0, n)
        orbit = kahan_orbit(field, x[None], eps, 1)
        got = delta(field, x, eps)
        assert np.float64(got).tobytes() == orbit.delta[0, 0].tobytes()
        if not orbit.pole[0, 0]:
            assert np.float64(got).tobytes() == kahan_step(field, x, eps).delta.tobytes()


class TestMapJacobianBits:
    """map_jacobian reads f'(x) and f'(x~) from the step tensor. On the five
    e(3) kinds that block has the einsum expression's bits, so the map
    Jacobian is numpy.linalg.solve of the einsum expressions bit for bit, in
    a stack of any size. planar_family's block sums its terms in another
    order; at eps 0.05 its step matrices on the unit ball are within 0.1 of
    the identity, so a last-bit difference in the block moves the solve by
    no more than a few ulps."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("count", [1, 7, 500])
    def test_equals_the_einsum_solve(self, kind, count):
        desc = make_system(kind)
        eps = 0.05
        rng = np.random.default_rng(count)
        xs = np.array([unit_ball(rng, desc.dim) for _ in range(count)])
        ys = kahan_orbit(desc.field, xs, eps, 1).next[0]
        eye = np.eye(desc.dim)
        expected = np.linalg.solve(
            eye - eps * einsum_jacobian(desc.field, xs), eye + eps * einsum_jacobian(desc.field, ys)
        )
        got = map_jacobian(desc.field, xs, eps, ys)
        assert got.shape == expected.shape == (count, desc.dim, desc.dim)
        if kind == "planar_family":
            scale = np.abs(expected).max(axis=(-2, -1), keepdims=True)
            assert (np.abs(got - expected) <= 4 * np.finfo(float).eps * scale).all()
        else:
            assert got.tobytes() == expected.tobytes()
        # one state alone has its row's bits
        assert map_jacobian(desc.field, xs[0], eps, ys[0]).tobytes() == got[0].tobytes()


def near_singular_stack(seed, count, n):
    """count float64 n x n matrices, random ones and ones whose smallest
    singular value is 1e-8, 1e-15 or 1e-300 of the largest, in turn from
    the seed's one."""
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((count, n, n))
    for i in range(count):
        tiny = [None, 1e-8, 1e-15, 1e-300][(seed + i) % 4]
        if tiny is not None:
            u, s, vt = np.linalg.svd(mats[i])
            s[-1] = tiny * s[0]
            mats[i] = (u * s) @ vt
    return mats


def kahan_orbit_solve(mats, rhs):
    """kahan_orbit's solve call, under the error state it steps in."""
    out = np.empty(rhs.shape)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _umath_linalg.solve1(mats, rhs, out)
    return out


def solve_rows(mats, rhs):
    """numpy.linalg.solve with a 1-D rhs, row by row; nan at a row it
    refuses as singular."""
    n = rhs.shape[-1]
    rows = []
    for mat, b in zip(mats.reshape(-1, n, n), rhs.reshape(-1, n)):
        try:
            rows.append(np.linalg.solve(mat, b))
        except np.linalg.LinAlgError:
            rows.append(np.full(n, np.nan))
    return np.array(rows).reshape(rhs.shape)


class TestLapackKernels:
    """kahan_orbit solves with the gufunc numpy.linalg.solve dispatches to,
    without its wrapper, and decides poles on numpy.linalg.det of a whole
    block: each must give every matrix of a stack the bits numpy.linalg
    gives it alone. Its products are np.vecmat and np.matvec on a stack and
    ndarray.dot, np.dot's kernel, on the 1-D views of a lone row: each must
    give a row the same bits, alone or in a stack."""

    @pytest.mark.parametrize("n", [1, 3, 6, 10, 66])
    def test_one_row_dot_equals_the_stacked_products(self, n):
        # the step's shapes: [x, 1] times the (n + 1, n*n + n*(n + 1)) step
        # tensor, and the n x (n + 1) right-hand side's matrix times [x, 1]
        rng = np.random.default_rng(n)
        a = rng.standard_normal((5, n + 1))
        tensor = rng.standard_normal((n + 1, n * n + n * (n + 1)))
        rhs_mats = rng.standard_normal((5, n, n + 1))
        for count in (1, 5):
            products = np.vecmat(a[:count], tensor)
            rhs = np.matvec(rhs_mats[:count], a[:count])
            for row in range(count):
                for dot in (np.dot, np.ndarray.dot):
                    assert dot(a[row], tensor).tobytes() == products[row].tobytes(), (count, row, dot)
                    assert dot(rhs_mats[row], a[row]).tobytes() == rhs[row].tobytes(), (count, row, dot)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", [(), (1,), (7,), (0,)])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_bits_equal_numpy_linalg(self, seed, shape, n):
        # the block's det of a stack is delta's det of each point
        mats = near_singular_stack(seed, math.prod(shape), n).reshape(*shape, n, n)
        lone = np.array([np.linalg.det(mat) for mat in mats.reshape(-1, n, n)]).reshape(shape)
        assert np.linalg.det(mats).tobytes() == lone.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", [(), (1,), (7,), (0,), (2, 3)])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_solve1_bits_equal_numpy_linalg(self, seed, shape, n):
        mats = near_singular_stack(seed, math.prod(shape), n).reshape(*shape, n, n)
        rhs = np.random.default_rng(seed).standard_normal((*shape, n))
        got = kahan_orbit_solve(mats, rhs)
        assert got.shape == rhs.shape and got.tobytes() == solve_rows(mats, rhs).tobytes()

    @pytest.mark.parametrize("mat", [[[1.0, 2.0], [2.0, 4.0]], np.diag([1.0, 2.0, 0.0, 3.0, 4.0, 5.0])])
    def test_singular_row_solves_to_nonfinite(self, mat):
        # numpy.linalg.solve raises on a stack holding an exactly singular
        # matrix; kahan_orbit's call solves that row to non-finite values
        # and every other row as numpy.linalg does
        n = len(mat)
        mats = near_singular_stack(0, 3, n)
        mats[1] = mat
        rhs = np.random.default_rng(0).standard_normal((3, n))
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            np.linalg.solve(mats, rhs[..., None])
        got = kahan_orbit_solve(mats, rhs)
        assert not np.isfinite(got[1]).any()
        for i in (0, 2):
            assert got[i].tobytes() == np.linalg.solve(mats[i], rhs[i]).tobytes()
