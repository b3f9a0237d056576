"""Tests for the Kahan step on quadratic vector fields.

Oracles used here are independent of the implementation: a cofactor-expansion
determinant, central finite differences (exact up to roundoff for quadratic
fields), the closed-form scalar recursion for xdot = x^2, and a 6-dim step
value frozen from a hand-rolled Gaussian-elimination solve of the polarized
defining equations.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from conftest import ALL_KINDS, make_system, place_pole, safe_state
from kahanmaps import quadfield
from kahanmaps.hkbasis import iterate_orbit
from kahanmaps.quadfield import (
    KahanStepResult,
    QuadraticVectorField,
    SingularStepError,
    delta,
    evaluate_field,
    jacobian_field,
    kahan_orbit,
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

    def test_orbit_meets_the_closed_form_pole(self):
        # 1/x_0 = 0.6 puts the pole exactly at the third step, whose entry
        # keeps its near-zero denominator and a nan residual
        orbit = kahan_orbit(SCALAR, np.array([[5.0 / 3.0]]), 0.1, 10)
        assert list(orbit.pole[:3, 0]) == [False, False, True] and list(orbit.ends()) == [2]
        assert orbit.delta[2, 0] == pytest.approx(0.0, abs=1e-12)
        assert np.isnan(orbit.residual[2, 0])


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


def step_loop(field, x, eps, steps):
    """kahan_orbit's row as a loop of one-state steps: (next, delta,
    residual) per step, stopping at the first pole."""
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
                assert orbit.delta[k, b] == step.delta and orbit.residual[k, b] == step.residual

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
        assert np.isnan(orbit.next[k:, 1]).all() and np.isnan(orbit.residual[k:, 1]).all()
        assert np.isnan(orbit.delta[k + 1 :, 1]).all() and np.isnan(orbit.threshold[k + 1 :, 1]).all()
        with pytest.raises(SingularStepError) as raised:
            kahan_step(desc.field, point, eps)
        assert str(orbit.row((k, 1))) == str(raised.value)
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
        first = kahan_step_batch(desc.field, np.array([safe_state(rng, desc) for _ in range(count)]), eps)
        onward = kahan_orbit(desc.field, first.next, eps, 4)
        stepped = []
        step_matrix = quadfield._step_matrix
        monkeypatch.setattr(
            quadfield, "_step_matrix", lambda f, y, e: stepped.append(np.array(y)) or step_matrix(f, y, e)
        )
        orbit = kahan_orbit(desc.field, xs, eps, 5, first)
        # the steps taken start at points 1..4: x, point 0, is never stepped
        points = np.concatenate([first.next[None], onward.next[:3]])
        assert len(stepped) == 4
        for y, expected in zip(stepped, points):
            assert np.array_equal(y, expected)
        assert np.array_equal(orbit.next[0], first.next) and np.array_equal(orbit.delta[0], first.delta)
        assert np.array_equal(orbit.residual[0], first.residual) and not orbit.pole[0].any()
        for field, expected in zip(orbit, onward):
            assert same(field[1:], expected)

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
        assert str(lone.row((0, 0))) == str(raised.value)

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
            batch = kahan_step_batch(field, xs, eps)
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
                x_next, det, residual, pole = row[k] if k < len(row) else (None, math.nan, None, False)
                assert orbit.pole[k, b] == pole and same(orbit.delta[k, b], np.float64(det)), (b, k)
                if x_next is None:
                    assert np.isnan(orbit.next[k, b]).all() and np.isnan(orbit.residual[k, b])
                else:
                    assert np.array_equal(orbit.next[k, b], x_next) and orbit.residual[k, b] == residual
        # the one-step views: their entries are the orbit's first
        for column, orbit_column in zip(batch[:4], orbit[:4]):
            assert same(column, orbit_column[0])
        for one, row in zip(lone, expected):
            x_next, det, residual, _ = row[0]
            if one is not None:
                assert np.array_equal(one.next, x_next) and one.delta == det and one.residual == residual
        # iterate_orbit: the row's points up to its first pole
        for states, x, row in zip(points, xs, expected):
            if states is not None:
                reached = [x] + [entry[0] for entry in row if not entry[3]]
                assert states.shape == (len(reached), n) and np.array_equal(states, np.array(reached))

    def test_no_steps(self):
        orbit = kahan_orbit(SCALAR, np.ones((2, 1)), 0.1, 0)
        assert orbit.next.shape == (0, 2, 1) and list(orbit.ends()) == [0, 0]


def einsum_field(field, x):
    """evaluate_field as np.einsum expressions, frozen as the oracle of the
    direct-kernel, in-place forms; likewise einsum_polarize and
    einsum_jacobian."""
    return np.einsum("ijk,...j,...k->...i", field.quad, x, x) + (field.lin @ x[..., None])[..., 0] + field.const


def einsum_polarize(field, x, y):
    return (
        np.einsum("ijk,...j,...k->...i", field.quad, x, y)
        + 0.5 * (field.lin @ (x + y)[..., None])[..., 0]
        + field.const
    )


def einsum_jacobian(field, x):
    return 2.0 * np.einsum("ijk,...k->...ij", field.quad, x) + field.lin


class TestDirectEinsum:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        shape=st.sampled_from([(), (0,), (1,), (5,), (3, 0), (3, 4)]),
        # subnormal products, and magnitudes far apart, test the rounding order
        scale=st.sampled_from([1.0, 1e-160, 1e-300, 1e100]),
    )
    @settings(max_examples=120, deadline=None)
    def test_bits_equal_the_einsum_expressions(self, seed, n, shape, scale):
        rng = np.random.default_rng(seed)
        field = random_field(rng, n)
        x = scale * rng.standard_normal((*shape, n))
        y = rng.standard_normal((*shape, n))
        kept = [arr.copy() for arr in (x, y, field.quad, field.lin, field.const)]
        for got, expected, args in [
            (evaluate_field(field, x), einsum_field(field, x), (x,)),
            (polarize_eval(field, x, y), einsum_polarize(field, x, y), (x, y)),
            (jacobian_field(field, x), einsum_jacobian(field, x), (x,)),
        ]:
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            # a fresh array: writing into it leaves the field and the states alone
            assert got.flags.writeable and not any(np.shares_memory(got, arr) for arr in args)
            got[...] = 7.0
        for arr, copy in zip((x, y, field.quad, field.lin, field.const), kept):
            assert np.array_equal(arr, copy)


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


def outcome(fn, *args):
    """fn(*args) as (dtype, shape, bytes), or the LinAlgError it raises."""
    try:
        out = np.asarray(fn(*args))
    except np.linalg.LinAlgError as exc:
        return str(exc)
    return out.dtype, out.shape, out.tobytes()


class TestLapackKernels:
    """_det, _solve and _solve1 call the gufuncs numpy.linalg dispatches to,
    so they must give numpy.linalg's bits and raise where it raises."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", [(), (1,), (7,), (0,)])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_bits_equal_numpy_linalg(self, seed, shape, n):
        mats = near_singular_stack(seed, math.prod(shape), n).reshape(*shape, n, n)
        assert outcome(quadfield._det, mats) == outcome(np.linalg.det, mats)
        for k in (1, n):
            rhs = np.random.default_rng(seed).standard_normal((*shape, n, k))
            # a 1e-300 matrix can round to singular: both sides raise then
            assert outcome(quadfield._solve, mats, rhs) == outcome(np.linalg.solve, mats, rhs)

    @pytest.mark.parametrize("mat", [[[1.0, 2.0], [2.0, 4.0]], np.diag([1.0, 2.0, 0.0, 3.0, 4.0, 5.0])])
    def test_singular_matrix_raises(self, mat):
        mats = np.array([np.eye(len(mat)), mat])
        rhs = np.ones((2, len(mat), 1))
        assert quadfield._det(mats)[1] == np.linalg.det(mats)[1] == 0.0
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            np.linalg.solve(mats, rhs)
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            quadfield._solve(mats, rhs)
        # the error state the state draws run under does not silence it
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                quadfield._solve(mats, rhs)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", [(), (1,), (7,), (0,), (2, 3)])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_solve1_bits_equal_numpy_linalg(self, seed, shape, n):
        mats = near_singular_stack(seed, math.prod(shape), n).reshape(*shape, n, n)
        rhs = np.random.default_rng(seed).standard_normal((*shape, n))
        got = outcome(quadfield._solve1, mats, rhs)

        def one_by_one(mats, rhs):
            # numpy.linalg.solve with a 1-D rhs, row by row
            rows = [np.linalg.solve(m, b) for m, b in zip(mats.reshape(-1, n, n), rhs.reshape(-1, n))]
            return np.array(rows).reshape(rhs.shape)

        assert got == outcome(one_by_one, mats, rhs)
        # and the column form the orbit loop solved before
        assert got == outcome(lambda m, b: np.linalg.solve(m, b[..., None])[..., 0], mats, rhs)

    @pytest.mark.parametrize("mat", [[[1.0, 2.0], [2.0, 4.0]], np.diag([1.0, 2.0, 0.0, 3.0, 4.0, 5.0])])
    def test_solve1_singular_matrix_raises(self, mat):
        mat, ones = np.array(mat), np.ones(len(mat))
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            np.linalg.solve(mat, ones)
        # one vector, and a stack whose second matrix is singular
        for args in ((mat, ones), (np.array([np.eye(len(mat)), mat]), np.array([ones, ones]))):
            with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                quadfield._solve1(*args)
            with np.errstate(invalid="ignore", over="ignore"):
                with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                    quadfield._solve1(*args)
