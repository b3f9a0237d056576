"""Tests for the Kahan step on quadratic vector fields.

Oracles used here are independent of the implementation: a cofactor-expansion
determinant, central finite differences (exact up to roundoff for quadratic
fields), the closed-form scalar recursion for xdot = x^2, and a 6-dim step
value frozen from a hand-rolled Gaussian-elimination solve of the polarized
defining equations.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from conftest import ALL_KINDS, make_system, safe_state
from kahanmaps.quadfield import (
    KahanStepResult,
    QuadraticVectorField,
    SingularStepError,
    delta,
    evaluate_field,
    field_from_json,
    field_to_json,
    jacobian_field,
    kahan_step,
    kahan_step_batch,
    map_jacobian,
    polarize_eval,
)
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
        out[:, j] = (evaluate_field(field, x + e) - evaluate_field(field, x - e)) / (2 * h)
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
        assert np.allclose(evaluate_field(f, x), expected, rtol=1e-13)

    def test_polarize_on_diagonal_equals_field(self):
        rng = np.random.default_rng(8)
        f = random_field(rng, 5)
        x = rng.standard_normal(5)
        assert np.array_equal(polarize_eval(f, x, x), evaluate_field(f, x))

    @given(
        xs=st.lists(st.floats(-3, 3), min_size=3, max_size=3),
        ys=st.lists(st.floats(-3, 3), min_size=3, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_polarize_is_symmetric_bilinear(self, xs, ys):
        f = random_field(np.random.default_rng(11), 3)
        x, y = np.array(xs), np.array(ys)
        fwd = polarize_eval(f, x, y)
        rev = polarize_eval(f, y, x)
        assert np.allclose(fwd, rev, rtol=1e-12, atol=1e-12)
        # defining identity Q(x,y) = (Q(x+y) - Q(x) - Q(y))/2 shifted by the affine part
        q = lambda v: evaluate_field(f, v) - f.lin @ v - f.const
        qxy = fwd - 0.5 * f.lin @ (x + y) - f.const
        assert np.allclose(qxy, 0.5 * (q(x + y) - q(x) - q(y)), atol=1e-10)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        f = random_field(rng, 6)
        for _ in range(5):
            x = rng.standard_normal(6)
            assert np.allclose(jacobian_field(f, x), fd_field_jacobian(f, x), atol=1e-8)


class TestScalarRecursion:
    # xdot = x^2 gives x~ = x + 2 eps x^2 / (1 - 2 eps x)

    def test_first_step_frozen(self):
        res = kahan_step(SCALAR, np.array([1.0]), 0.1)
        assert res.next[0] == pytest.approx(1.25, abs=1e-15)
        assert res.delta == pytest.approx(0.8, abs=1e-15)
        assert res.residual <= 1e-12 * (1 + 1 + 1.25)

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
        assert res.residual <= 1e-12 * scale

    def test_delta_matches_cofactor_determinant(self):
        f = _lagrange21()
        mat = np.eye(6) - self.EPS * jacobian_field(f, self.X0)
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
        assert np.allclose(map_jacobian(f, x, eps), fd, atol=1e-6)

    def test_map_jacobian_determinant_identity(self):
        # det dPhi(x) = Delta(x~, -eps) / Delta(x, eps)
        rng = np.random.default_rng(15)
        for _ in range(10):
            f = random_field(rng, 4)
            x = rng.standard_normal(4) * 0.5
            eps = 0.08
            x_next = kahan_step(f, x, eps).next
            lhs = cofactor_det(map_jacobian(f, x, eps))
            rhs = delta(f, x_next, -eps) / delta(f, x, eps)
            assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_residual_bound_on_random_fields(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            f = random_field(rng, 6)
            x = rng.standard_normal(6) * 0.6
            res = kahan_step(f, x, 0.05)
            scale = 1 + np.max(np.abs(x)) + np.max(np.abs(res.next))
            assert res.residual <= 1e-12 * scale


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

    def test_result_is_named_tuple(self):
        res = kahan_step(SCALAR, np.array([0.5]), 0.1)
        assert isinstance(res, KahanStepResult)
        assert res.next is res[0]


class TestJsonRoundTrip:
    def test_round_trip_is_exact(self):
        f = random_field(np.random.default_rng(17), 3)
        doc = json.loads(json.dumps(field_to_json(f)))
        g = field_from_json(doc)
        assert np.array_equal(f.quad, g.quad)
        assert np.array_equal(f.lin, g.lin)
        assert np.array_equal(f.const, g.const)

    def test_missing_key_named(self):
        doc = field_to_json(_lagrange21())
        del doc["lin"]
        with pytest.raises(ValueError, match="'lin'"):
            field_from_json(doc)

    def test_dim_mismatch_named(self):
        doc = field_to_json(_lagrange21())
        doc["dim"] = 5
        with pytest.raises(ValueError, match="'dim'"):
            field_from_json(doc)

    def test_asymmetric_document_rejected(self):
        doc = field_to_json(SCALAR)
        doc["quad"] = [[[1.0, 2.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        doc["lin"] = [[0.0, 0.0], [0.0, 0.0]]
        doc["const"] = [0.0, 0.0]
        doc["dim"] = 2
        with pytest.raises(ValueError, match="malformed"):
            field_from_json(doc)


def one_state_step(field, x, eps):
    """The one-state step formulas the batch kernel replaced, kept verbatim
    as the reference: (next, delta, residual, on a pole)."""
    jac = 2.0 * np.einsum("ijk,k->ij", field.quad, x) + field.lin
    mat = np.eye(field.dim) - eps * jac
    det = float(np.linalg.det(mat))
    threshold = 1e-13 * (1.0 + np.linalg.norm(eps * jac, np.inf)) ** field.dim
    if abs(det) < threshold:
        return None, det, None, True
    f = np.einsum("ijk,j,k->i", field.quad, x, x) + field.lin @ x + field.const
    x_next = x + np.linalg.solve(mat, 2.0 * eps * f)
    pol = np.einsum("ijk,j,k->i", field.quad, x, x_next) + 0.5 * (field.lin @ (x + x_next)) + field.const
    defect = x_next - x - 2.0 * eps * pol
    return x_next, det, float(np.max(np.abs(defect))), False


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


class TestBatchStep:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("eps", [0.05, -0.05])
    def test_rows_equal_the_one_state_formulas(self, kind, eps):
        # 500 states in and around the unit ball; poles at a root of the
        # denominator are compared below
        desc = make_system(kind)
        rng = np.random.default_rng(17)
        xs = rng.standard_normal((500, desc.dim)) * rng.uniform(0.05, 2.0, (500, 1))
        batch = kahan_step_batch(desc.field, xs, eps)
        for x, x_next, det, residual, pole in zip(xs, *batch[:4]):
            ref_next, ref_det, ref_residual, ref_pole = one_state_step(desc.field, x, eps)
            assert det == ref_det and pole == ref_pole
            if not pole:
                assert np.array_equal(x_next, ref_next) and residual == ref_residual
                one = kahan_step(desc.field, x, eps)
                assert np.array_equal(one.next, ref_next)
                assert one.delta == ref_det and one.residual == ref_residual

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
        batch = kahan_step_batch(desc.field, np.array([regular[0], x, regular[1]]), root)
        assert list(batch.pole) == [False, True, False]
        assert np.isnan(batch.next[1]).all() and np.isnan(batch.residual[1])
        for row, y in zip((0, 2), regular):
            one = kahan_step(desc.field, y, root)
            assert np.array_equal(batch.next[row], one.next)
            assert batch.delta[row] == one.delta and batch.residual[row] == one.residual
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
        batch = kahan_step_batch(SCALAR, np.zeros((0, 1)), 0.1)
        assert batch.next.shape == (0, 1) and batch.pole.shape == (0,)
