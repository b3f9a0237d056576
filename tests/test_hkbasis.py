"""Orbit points, discrete Wronskians, window null spaces, ratio extraction,
and gradient rank counts.

Hand oracles: the scalar field xdot = x^2 has the closed-form step
x -> x/(1 - 2*eps*x), so 1/x_k = 1/x_0 - 2*k*eps, which pins orbit states
and the pole location exactly.  Synthetic three-state orbits pin the
Wronskian arithmetic.  Null vectors of the catalog bases are checked
against the closed-form coefficient evaluations.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SIX_DIM_KINDS, count_stepped, make_system, place_pole, safe_state, step_defect, unit_ball
from kahanmaps import hkbasis
from kahanmaps.hkbasis import (
    ANNIHILATION_FACTOR,
    NULL_SIGMA_FACTOR,
    PIVOT_FLOOR,
    HKNullSpaceReport,
    WronskianBasisSpec,
    WronskianRatio,
    _unit_gradients,
    _windows,
    bilinear_observable,
    conjugate_pairs,
    constant_observable,
    default_window,
    extract_integral_ratios,
    functional_rank,
    hk_nullspace,
    iterate_orbit,
    state_observable,
    wronskian_observable,
    wronskian_ratio_integral,
)
from kahanmaps.integrals import (
    KahanPair,
    denominator_witnesses,
    eval_I0,
    evaluate_named,
)
from kahanmaps.quadfield import (
    KahanBatch,
    QuadraticVectorField,
    SingularStepError,
    kahan_step,
)

CLEBSCH_KINDS = ("general_clebsch", "first_clebsch", "second_clebsch")


def scalar_field():
    return QuadraticVectorField(
        quad=np.ones((1, 1, 1)), lin=np.zeros((1, 1)), const=np.zeros(1)
    )


def synthetic_orbit(states):
    return np.asarray(states, dtype=float)


def normalize(v):
    v = np.asarray(v, dtype=float)
    return v / v[np.argmax(np.abs(v))]


def discrete_wronskian(orbit, ell, pair, base):
    """The order-ell Wronskian of the pair at one base, read from its column."""
    return float(wronskian_observable(ell, pair)(orbit, np.array([base]))[0])


def wronskian_observables(order, dim=6):
    return WronskianBasisSpec(order, conjugate_pairs(dim)).observables()


def per_window_ratios(report, orbit, observables, pivot):
    """Reference for extract_integral_ratios: one hk_nullspace call (one
    window build, one SVD) per window start, until a window cannot be built."""
    window, start = report.window, 0
    rows = []
    while True:
        try:
            sub = hk_nullspace(orbit[start:], observables, window)
        except ValueError:
            break
        if sub.null_dim != 1:
            raise RuntimeError(
                f"null space dimension {sub.null_dim} != 1 at window start {start}"
            )
        v = sub.coeff_vectors[0]
        if abs(v[pivot]) < 1e-6 * np.max(np.abs(v)):
            raise ValueError(f"pivot coefficient degenerate at window start {start}")
        rows.append([v[s] / v[pivot] for s in range(len(observables))])
        start += 1
    return np.array(rows).reshape(-1, len(observables)).T


def one_window_null_vectors(rows, sv, vt):
    """The one-window null-space decision, frozen as it stood before it took
    stacks: the oracle the stacked _null_vectors is checked against.

    Trailing singular directions count toward the null space only while
    sigma < NULL_SIGMA_FACTOR * sigma_max and the normalized vector
    annihilates the matrix to ANNIHILATION_FACTOR * sigma_max.  Vectors
    are scaled so their largest-magnitude entry is +1.  Returns the
    accepted vectors and the spectral gap.
    """
    m = rows.shape[1]
    sigma_max = sv[0]
    accepted = []
    for idx in range(m - 1, -1, -1):
        if sigma_max > 0 and sv[idx] >= NULL_SIGMA_FACTOR * sigma_max:
            break
        v = vt[idx]
        v = v / v[np.argmax(np.abs(v))]
        if sigma_max > 0 and np.max(np.abs(rows @ v)) > ANNIHILATION_FACTOR * sigma_max:
            break
        accepted.append(v)
    null_dim = len(accepted)
    if null_dim == 0:
        return np.empty((0, m)), 0.0
    if null_dim == m or sv[m - null_dim] == 0:
        gap = np.inf
    else:
        gap = sv[m - null_dim - 1] / sv[m - null_dim]
    return np.array(accepted[::-1]), float(gap)


def scalar_mixed_observables(eps):
    """x, x~, x x~ and 1 on the scalar orbit: the step x~ = x/(1 - 2 eps x)
    makes x - x~ + 2 eps x x~ vanish, the only relation among them."""
    return [
        state_observable(lambda x: x[0]),
        bilinear_observable(lambda x, y: y[0]),
        bilinear_observable(lambda x, y: x[0] * y[0]),
        constant_observable(1.0),
    ]


class TestIterateOrbit:
    def test_scalar_orbit_matches_closed_form(self):
        orbit = iterate_orbit(scalar_field(), np.array([1.0]), 0.1, 2)
        assert orbit.shape == (3, 1)
        assert orbit[:, 0] == pytest.approx([1.0, 1.25, 5.0 / 3.0], rel=1e-15)

    def test_eps_zero_orbit_is_constant(self):
        desc = make_system("kirchhoff")
        x0 = unit_ball(np.random.default_rng(1), 6)
        orbit = iterate_orbit(desc.field, x0, 0.0, 5)
        assert orbit.shape == (6, 6)
        assert np.allclose(orbit, x0, atol=1e-15)

    def test_reverse_orbit_returns_to_start(self):
        desc = make_system("first_clebsch")
        x0 = safe_state(np.random.default_rng(2), desc)
        fwd = iterate_orbit(desc.field, x0, 0.05, 50)
        back = iterate_orbit(desc.field, fwd[-1], -0.05, 50)
        assert np.max(np.abs(back[-1] - x0)) <= 1e-9

    def test_pole_stops_early_with_flag(self):
        # 1/x_0 = 0.6 puts the pole exactly at the third step: the orbit
        # keeps the points before it
        orbit = iterate_orbit(scalar_field(), np.array([5.0 / 3.0]), 0.1, 10)
        assert orbit.shape == (3, 1)
        assert orbit[:, 0] == pytest.approx([5.0 / 3.0, 2.5, 5.0], rel=1e-14)

    def test_pole_at_step_zero_raises(self):
        with pytest.raises(SingularStepError):
            iterate_orbit(scalar_field(), np.array([5.0]), 0.1, 3)

    def test_steps_must_be_positive(self):
        with pytest.raises(ValueError, match="steps"):
            iterate_orbit(scalar_field(), np.array([1.0]), 0.1, 0)

    def test_residuals_recorded_and_small(self):
        # every pair of consecutive points solves the polarized defining
        # equation x~ - x = 2 eps f(x, x~)
        desc = make_system("lagrange")
        x0 = safe_state(np.random.default_rng(3), desc)
        eps = 0.05
        orbit = iterate_orbit(desc.field, x0, eps, 20)
        before, after = orbit[:-1], orbit[1:]
        residuals = step_defect(desc.field, before, after, eps)
        assert residuals.shape == (20,)
        assert np.all(residuals <= 1e-12)

    def test_states_are_read_only(self):
        orbit = iterate_orbit(scalar_field(), np.array([1.0]), 0.1, 1)
        with pytest.raises(ValueError):
            orbit[0, 0] = 2.0


class TestDiscreteWronskian:
    def test_synthetic_values(self):
        orbit = synthetic_orbit([[1.0, 2.0], [3.0, 5.0], [7.0, 11.0]])
        # x_i^(base+ell) x_j^(base) - x_i^(base) x_j^(base+ell)
        assert discrete_wronskian(orbit, 1, (0, 1), 0) == pytest.approx(1.0)
        assert discrete_wronskian(orbit, 2, (0, 1), 0) == pytest.approx(3.0)
        assert discrete_wronskian(orbit, 1, (0, 1), 1) == pytest.approx(2.0)

    def test_same_component_is_zero(self):
        orbit = synthetic_orbit([[1.0, 2.0], [3.0, 5.0], [7.0, 11.0]])
        assert discrete_wronskian(orbit, 1, (1, 1), 0) == 0.0

    def test_antisymmetric_in_pair(self):
        orbit = synthetic_orbit([[1.0, 2.0], [3.0, 5.0], [7.0, 11.0]])
        assert discrete_wronskian(orbit, 2, (1, 0), 0) == -discrete_wronskian(
            orbit, 2, (0, 1), 0
        )

    def test_eps_zero_orbit_vanishes(self):
        desc = make_system("kirchhoff")
        x0 = unit_ball(np.random.default_rng(4), 6)
        orbit = iterate_orbit(desc.field, x0, 0.0, 4)
        for i, j in conjugate_pairs(6):
            assert discrete_wronskian(orbit, 2, (i, j), 1) == pytest.approx(0.0, abs=1e-15)

    def test_range_checks(self):
        orbit = synthetic_orbit([[1.0, 2.0], [3.0, 5.0], [7.0, 11.0]])
        with pytest.raises(IndexError):
            discrete_wronskian(orbit, 3, (0, 1), 0)
        with pytest.raises(IndexError):
            discrete_wronskian(orbit, 1, (0, 1), -1)
        with pytest.raises(IndexError):
            discrete_wronskian(orbit, 1, (0, 2), 0)
        with pytest.raises(ValueError, match="order"):
            discrete_wronskian(orbit, 0, (0, 1), 0)

    def test_first_clebsch_weighted_sum_vanishes(self):
        # sum_i c_i * W1_i = 0 with the closed-form small coefficients
        desc = make_system("first_clebsch")
        eps = 0.05
        x0 = safe_state(np.random.default_rng(5), desc, eps)
        orbit = iterate_orbit(desc.field, x0, eps, 12)
        small = KahanPair(desc, orbit[:10], eps).coefficients("small_c")
        for base in range(10):
            c = small.item(base)
            terms = [
                c[i] * discrete_wronskian(orbit, 1, pair, base)
                for i, pair in enumerate(conjugate_pairs(6))
            ]
            scale = sum(abs(t) for t in terms)
            assert abs(sum(terms)) <= 1e-11 * scale

    def test_second_order_sum_with_big_coefficients(self):
        desc = make_system("first_clebsch")
        eps = 0.05
        x0 = safe_state(np.random.default_rng(6), desc, eps)
        orbit = iterate_orbit(desc.field, x0, eps, 12)
        coefficients = KahanPair(desc, orbit[:8], eps).coefficients("big_C")
        for base in range(8):
            big = coefficients.item(base)
            terms = [
                big[i] * discrete_wronskian(orbit, 2, pair, base)
                for i, pair in enumerate(conjugate_pairs(6))
            ]
            scale = sum(abs(t) for t in terms)
            assert abs(sum(terms)) <= 1e-11 * scale


class TestBasisSpec:
    def test_conjugate_pairs(self):
        assert conjugate_pairs(6) == ((0, 3), (1, 4), (2, 5))
        assert conjugate_pairs(2) == ((0, 1),)
        with pytest.raises(ValueError, match="even"):
            conjugate_pairs(5)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="order"):
            WronskianBasisSpec(0, ((0, 1),))
        with pytest.raises(ValueError, match="pair"):
            WronskianBasisSpec(1, ((0, 0),))
        with pytest.raises(ValueError, match="pair"):
            WronskianBasisSpec(1, ())

    def test_reach_is_the_successor_count(self):
        assert wronskian_observable(3, (0, 1)).reach == 3
        assert state_observable(lambda x: x[0]).reach == 0
        assert bilinear_observable(lambda x, y: x[0] * y[0]).reach == 1
        assert constant_observable(2.0).reach == 0
        orbit = synthetic_orbit([[1.0, 2.0], [3.0, 5.0], [7.0, 11.0]])
        assert list(bilinear_observable(lambda x, y: x[0] * y[1])(orbit, np.arange(2))) == [
            5.0,
            33.0,
        ]
        assert state_observable(lambda x: x[1])(orbit, 2) == 11.0
        with pytest.raises(IndexError):
            bilinear_observable(lambda x, y: x[0])(orbit, np.arange(3))
        with pytest.raises(IndexError):
            wronskian_observable(2, (0, 1))(orbit, np.array([1]))

    def test_spec_observables_match_direct_calls(self):
        orbit = synthetic_orbit([[1.0, 2.0], [3.0, 5.0], [7.0, 11.0]])
        spec = WronskianBasisSpec(1, ((0, 1),))
        obs = spec.observables()
        assert len(obs) == 1
        assert obs[0](orbit, 1) == discrete_wronskian(orbit, 1, (0, 1), 1)


class TestColumnWindows:
    @pytest.mark.parametrize("kind", SIX_DIM_KINDS)
    def test_columns_equal_per_cell_wronskians(self, kind):
        desc = make_system(kind)
        eps = 0.05
        x0 = safe_state(np.random.default_rng(40), desc, eps)
        orbit = iterate_orbit(desc.field, x0, eps, 40)
        s = orbit
        pairs = conjugate_pairs(6)
        for order in (1, 2, 3, 4):
            obs = wronskian_observables(order)
            rows = 41 - order
            (built,) = _windows(orbit, obs, rows, [0])
            cells = np.array(
                [[discrete_wronskian(orbit, order, p, b) for p in pairs] for b in range(rows)]
            )
            # the scalar formula, one cell at a time
            loop = np.array(
                [
                    [s[b + order, i] * s[b, j] - s[b, i] * s[b + order, j] for i, j in pairs]
                    for b in range(rows)
                ]
            )
            assert built.tobytes() == cells.tobytes() == loop.tobytes(), order
            assert _windows(orbit, obs, 10, [7]).tobytes() == loop[7:17].tobytes()

    def test_mixed_window_equals_per_cell_values(self):
        eps = 0.01
        orbit = iterate_orbit(scalar_field(), np.array([0.3]), eps, 12)
        x = orbit[:, 0]
        (built,) = _windows(orbit, scalar_mixed_observables(eps), 8, [2])
        cells = [[x[b], x[b + 1], x[b] * x[b + 1], 1.0] for b in range(2, 10)]
        assert built.tobytes() == np.array(cells).tobytes()
        report = hk_nullspace(orbit[2:], scalar_mixed_observables(eps), window=8)
        assert report.null_dim == 1
        v = report.coeff_vectors[0]
        assert v / v[0] == pytest.approx([1.0, -1.0, 2 * eps, 0.0], abs=1e-9)

    def test_window_past_reach_rejected(self):
        orbit = iterate_orbit(scalar_field(), np.array([0.3]), 0.01, 8)
        # bases 3..8 need the successor of point 8, which the orbit lacks
        with pytest.raises(ValueError, match="orbit too short for window of 6 rows starting at 0"):
            hk_nullspace(orbit[3:], scalar_mixed_observables(0.01), window=6)

    def test_pair_outside_dimension_named_by_nullspace(self):
        # a long enough orbit: the bad pair, not the orbit, is at fault
        desc = make_system("general_clebsch")
        orbit = iterate_orbit(desc.field, safe_state(np.random.default_rng(5), desc), 0.05, 40)
        bad = WronskianBasisSpec(1, ((0, 7), (1, 4), (2, 5))).observables()
        with pytest.raises(ValueError, match=r"^pair \(0, 7\) outside dimension 6$"):
            hk_nullspace(orbit, bad, window=10)

    def test_pair_outside_dimension_named_by_extraction(self):
        desc = make_system("general_clebsch")
        orbit = iterate_orbit(desc.field, safe_state(np.random.default_rng(5), desc), 0.05, 40)
        good = WronskianBasisSpec(1, conjugate_pairs(6)).observables()
        report = hk_nullspace(orbit, good, window=10)
        bad = WronskianBasisSpec(1, ((0, 1), (1, 4), (2, 6))).observables()
        with pytest.raises(ValueError, match=r"^pair \(2, 6\) outside dimension 6$"):
            extract_integral_ratios(report, orbit, bad, pivot=0)


class TestHkNullspace:
    def test_quadratic_plus_constant_basis_first_clebsch(self):
        # observables (p1^2, p2^2, p3^2, 1); annihilated by the small
        # coefficients with the constant carrying -c0
        desc = make_system("first_clebsch")
        eps = 0.05
        x0 = safe_state(np.random.default_rng(7), desc, eps)
        orbit = iterate_orbit(desc.field, x0, eps, 20)
        obs = [state_observable(lambda x, i=i: x[3 + i] ** 2) for i in range(3)]
        obs.append(constant_observable(1.0))
        report = hk_nullspace(orbit, obs, window=12)
        assert report.null_dim == 1
        assert report.gap_ratio >= 1e6
        c = KahanPair(desc, x0[None], eps).coefficients("small_c").item(0)
        predicted = normalize([c[0], c[1], c[2], -c[3]])
        assert report.coeff_vectors[0] == pytest.approx(predicted, rel=1e-8)

    def test_weighted_basis_general_clebsch(self):
        desc = make_system("general_clebsch")
        a = desc.params.a
        eps = 0.05
        x0 = safe_state(np.random.default_rng(8), desc, eps)
        orbit = iterate_orbit(desc.field, x0, eps, 20)
        obs = [
            state_observable(lambda x, g=g: evaluate_named(desc, g, x, eps)) for g in ("g1", "g2", "g3")
        ]
        obs.append(constant_observable(1.0))
        report = hk_nullspace(orbit, obs, window=12)
        assert report.null_dim == 1
        c = KahanPair(desc, x0[None], eps).coefficients("small_c").item(0)
        predicted = normalize(
            [c[0] * a[1] * a[2], c[1] * a[2] * a[0], c[2] * a[0] * a[1], -c[3]]
        )
        assert report.coeff_vectors[0] == pytest.approx(predicted, rel=1e-8)

    def test_bilinear_basis_general_clebsch(self):
        desc = make_system("general_clebsch")
        a = desc.params.a
        eps = 0.05
        x0 = safe_state(np.random.default_rng(9), desc, eps)
        orbit = iterate_orbit(desc.field, x0, eps, 20)
        # the pair (x, y) with y given as the successor of x
        nan = np.full(1, math.nan)
        given = lambda y: KahanBatch(y[None], nan, np.zeros(1, dtype=bool), nan)
        obs = [
            bilinear_observable(lambda x, y, G=G: KahanPair(desc, x[None], eps, given(y)).value(G).item(0))
            for G in ("G1", "G2", "G3")
        ]
        obs.append(constant_observable(1.0))
        report = hk_nullspace(orbit, obs, window=12)
        assert report.null_dim == 1
        big = KahanPair(desc, x0[None], eps).coefficients("big_C").item(0)
        predicted = normalize(
            [big[0] * a[1] * a[2], big[1] * a[2] * a[0], big[2] * a[0] * a[1], -big[3]]
        )
        assert report.coeff_vectors[0] == pytest.approx(predicted, rel=1e-8)

    def test_duplicated_constant_column(self):
        orbit = iterate_orbit(scalar_field(), np.array([0.1]), 0.01, 10)
        report = hk_nullspace(orbit, [constant_observable(1.0)] * 2, window=6)
        assert report.null_dim >= 1
        assert report.coeff_vectors[-1] == pytest.approx([1.0, -1.0], rel=1e-12)

    @pytest.mark.parametrize("kind", CLEBSCH_KINDS)
    def test_wronskian_null_vectors_match_coefficients(self, kind):
        desc = make_system(kind)
        eps = 0.05
        x0 = safe_state(np.random.default_rng(10), desc, eps)
        orbit = iterate_orbit(desc.field, x0, eps, 24)
        for order, coeff_kind in ((1, "small_c"), (2, "big_C")):
            report = hk_nullspace(orbit, wronskian_observables(order), window=10)
            assert report.null_dim == 1
            predicted = normalize(KahanPair(desc, x0[None], eps).coefficients(coeff_kind).item(0)[:3])
            assert report.coeff_vectors[0] == pytest.approx(predicted, rel=1e-8)

    @pytest.mark.parametrize("kind", ("kirchhoff", "lagrange"))
    def test_wronskian_null_vectors_are_integral_ratios(self, kind):
        # first and second order null vectors proportional to (1, 1, ratio)
        desc = make_system(kind)
        eps = 0.05
        x0 = safe_state(np.random.default_rng(11), desc, eps)
        orbit = iterate_orbit(desc.field, x0, eps, 24)
        for order, value in ((1, eval_I0(desc, x0, eps)), (2, KahanPair(desc, x0[None], eps).value("J0").item(0))):
            report = hk_nullspace(orbit, wronskian_observables(order), window=10)
            assert report.null_dim == 1
            v = report.coeff_vectors[0]
            assert v[1] / v[0] == pytest.approx(1.0, rel=1e-8)
            assert v[2] / v[0] == pytest.approx(value, rel=1e-8)

    @pytest.mark.parametrize(
        "kind,orders",
        [
            ("general_clebsch", (1, 2, 3, 4)),
            ("first_clebsch", (1, 2, 3, 4)),
            ("second_clebsch", (1, 2, 3, 4)),
            ("kirchhoff", (1, 2, 3)),
            ("lagrange", (1, 2, 3)),
        ],
    )
    def test_wronskian_bases_one_dimensional(self, kind, orders):
        desc = make_system(kind)
        eps = 0.05
        x0 = safe_state(np.random.default_rng(12), desc, eps)
        orbit = iterate_orbit(desc.field, x0, eps, 30)
        for order in orders:
            report = hk_nullspace(orbit, wronskian_observables(order), window=default_window(3))
            assert report.null_dim == 1, f"order {order}"
            assert report.gap_ratio >= 1e6, f"order {order}: gap {report.gap_ratio:.3e}"

    def test_independent_observables_have_no_null_space(self):
        desc = make_system("general_clebsch")
        x0 = safe_state(np.random.default_rng(13), desc)
        orbit = iterate_orbit(desc.field, x0, 0.05, 20)
        obs = [
            state_observable(lambda x: x[0]),
            state_observable(lambda x: x[4]),
            constant_observable(1.0),
        ]
        report = hk_nullspace(orbit, obs, window=10)
        assert report.null_dim == 0
        assert report.gap_ratio == 0.0
        assert report.coeff_vectors.shape == (0, 3)

    def test_window_too_short_rejected(self):
        orbit = iterate_orbit(scalar_field(), np.array([0.1]), 0.01, 10)
        with pytest.raises(ValueError, match="window"):
            hk_nullspace(orbit, [constant_observable(1.0)] * 3, window=4)

    def test_orbit_too_short_rejected(self):
        desc = make_system("kirchhoff")
        x0 = safe_state(np.random.default_rng(14), desc)
        orbit = iterate_orbit(desc.field, x0, 0.05, 8)
        with pytest.raises(ValueError, match="window"):
            hk_nullspace(orbit, wronskian_observables(2), window=8)

    def test_empty_observables_rejected(self):
        orbit = iterate_orbit(scalar_field(), np.array([0.1]), 0.01, 10)
        with pytest.raises(ValueError, match="observables must hold at least one observable"):
            hk_nullspace(orbit, [], window=5)

    def test_non_integer_window_rejected(self):
        orbit = iterate_orbit(scalar_field(), np.array([0.1]), 0.01, 20)
        with pytest.raises(ValueError, match=re.escape("window must be an integer, got 10.5")):
            hk_nullspace(orbit, [constant_observable(1.0)] * 3, window=10.5)

    def test_null_vectors_annihilate_the_window(self):
        desc = make_system("second_clebsch")
        eps = 0.05
        x0 = safe_state(np.random.default_rng(15), desc, eps)
        orbit = iterate_orbit(desc.field, x0, eps, 20)
        obs = wronskian_observables(1)
        report = hk_nullspace(orbit, obs, window=10)
        rows = np.array(
            [[o(orbit, base) for o in obs] for base in range(10)]
        )
        norm = np.linalg.norm(rows, 2)
        for v in report.coeff_vectors:
            assert np.max(np.abs(rows @ v)) <= 1e-10 * norm

    def test_singular_values_sorted_and_serialized(self):
        desc = make_system("lagrange")
        x0 = safe_state(np.random.default_rng(16), desc)
        orbit = iterate_orbit(desc.field, x0, 0.05, 20)
        report = hk_nullspace(orbit[3:], wronskian_observables(1), window=9)
        sv = report.singular_values
        assert np.all(sv[:-1] >= sv[1:])
        doc = report.to_json_dict()
        assert doc["null_dim"] == 1
        assert doc["window"] == [0, 9]
        assert len(doc["singular_values"]) == 3
        assert len(doc["coeff_vectors"]) == 1
        assert doc["gap_ratio"] == report.gap_ratio


WINDOW_KINDS = ("full", "rank-1", "rank-2", "zero", "sigma-edge", "residual-edge")


def window_stack(seed, m, r, kinds, exponents):
    """One r x m window per kind, scaled by 10**exponent: U diag(s) V^T
    with random orthonormal U, V and s in 0.5..2, the last one or two s
    set to zero for "rank-1"/"rank-2" and the edges, every s zero for
    "zero" and every s but the first for "outer", a window of rank one."""
    rng = np.random.default_rng(seed)
    stack = []
    for kind, exponent in zip(kinds, exponents):
        u = np.linalg.qr(rng.standard_normal((r, m)))[0]
        v = np.linalg.qr(rng.standard_normal((m, m)))[0]
        s = np.sort(rng.uniform(0.5, 2.0, m))[::-1]
        if kind == "zero":
            s[:] = 0.0
        elif kind == "rank-1" or kind == "residual-edge":
            s[-1] = 0.0
        elif kind == "rank-2" or kind == "sigma-edge":
            s[-2:] = 0.0
        elif kind == "outer":
            s[1:] = 0.0
        stack.append(10.0**exponent * (u * s) @ v.T)
    return np.array(stack)


class TestStackedNullSpace:
    """The stacked decision of _null_vectors against the frozen one-window
    oracle, bit for bit, on every window of a stack."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 5),
        extra_rows=st.integers(2, 8),
        kinds=st.lists(st.sampled_from(WINDOW_KINDS), min_size=1, max_size=6),
        exponent=st.floats(-8.0, 8.0),
        ulps=st.sampled_from([-1, 0, 1]),
    )
    @settings(max_examples=80, deadline=None)
    def test_stack_equals_one_window_oracle(self, seed, m, extra_rows, kinds, exponent, ulps):
        r = m + extra_rows
        exponents = np.random.default_rng(seed).uniform(-8.0, 8.0, len(kinds))
        exponents[0] = exponent
        stack = window_stack(seed, m, r, kinds, exponents)
        _, sv, vt = np.linalg.svd(stack, full_matrices=False)
        # the edges put a null direction on a threshold, or one ulp either
        # side of it: "sigma-edge" the last of two null directions at sigma
        # NULL_SIGMA_FACTOR * sigma_max, so the sigma test alone cuts the
        # trailing run; "residual-edge" sigma_max where the one-window
        # residual of the null direction reads ANNIHILATION_FACTOR * sigma_max
        nudge = (lambda v: v) if ulps == 0 else (lambda v: np.nextafter(v, ulps * np.inf))
        for w, kind in enumerate(kinds):
            if kind == "sigma-edge":
                sv[w, -1] = nudge(NULL_SIGMA_FACTOR * sv[w, 0])
            elif kind == "residual-edge":
                v = vt[w, -1] / vt[w, -1, np.argmax(np.abs(vt[w, -1]))]
                sv[w, 0] = nudge(np.max(np.abs(stack[w] @ v)) / ANNIHILATION_FACTOR)
                sv[w, -1] = 0.0
        vectors, null_dim = hkbasis._null_vectors(stack, sv, vt)
        assert vectors.shape == (len(kinds), m, m) and null_dim.shape == (len(kinds),)
        for w in range(len(kinds)):
            want, _ = one_window_null_vectors(stack[w], sv[w], vt[w])
            assert null_dim[w] == len(want), kinds[w]
            assert vectors[w, m - null_dim[w] :].tobytes() == want.tobytes(), kinds[w]
            if kinds[w] == "zero":
                assert null_dim[w] == m

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 5),
        extra_rows=st.integers(2, 8),
        kind=st.sampled_from(WINDOW_KINDS[:4]),  # the edges set sv by hand
        exponent=st.floats(-8.0, 8.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_report_equals_one_window_oracle(self, seed, m, extra_rows, kind, exponent):
        # hk_nullspace on an orbit whose states are the window's rows
        rows = window_stack(seed, m, m + extra_rows, [kind], [exponent])[0]
        obs = [state_observable(lambda x, i=i: x[i]) for i in range(m)]
        report = hk_nullspace(synthetic_orbit(rows), obs, window=len(rows))
        _, sv, vt = np.linalg.svd(np.linalg.qr(rows, mode="r"))
        want, gap = one_window_null_vectors(rows, sv, vt)
        assert report.null_dim == len(want)
        assert report.coeff_vectors.tobytes() == want.tobytes()
        assert np.float64(report.gap_ratio).tobytes() == np.float64(gap).tobytes()
        if kind == "zero":
            assert report.null_dim == m and report.gap_ratio == math.inf


def test_every_passing_direction_takes_its_residual():
    # window 0's last two directions pass the sigma test and only the
    # second-to-last fails the residual test, so its null dimension is 1;
    # window 1's directions all fail the sigma test
    rows = np.zeros((2, 5, 3))
    rows[0, :, 0] = 1.0
    rows[0, 0, 1] = 1e-3
    rows[1] = np.eye(5, 3)
    sv = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    vt = np.stack([np.eye(3)] * 2)
    vectors, null_dim = hkbasis._null_vectors(rows, sv, vt)
    for w in range(2):
        want, _ = one_window_null_vectors(rows[w], sv[w], vt[w])
        assert null_dim[w] == len(want) and vectors[w, 3 - null_dim[w] :].tobytes() == want.tobytes()
    assert null_dim.tolist() == [1, 0]


def record_svd(monkeypatch):
    """(compute_uv, shape of each input matrix) of every np.linalg.svd call
    from now on."""
    calls = []
    svd = np.linalg.svd

    def recorded(a, full_matrices=True, compute_uv=True, hermitian=False):
        calls.append((compute_uv, np.shape(a)[-2:]))
        return svd(a, full_matrices, compute_uv, hermitian)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return calls


class TestRFactorDecision:
    """_decide takes sigma and V from the SVD of every window's R factor:
    bit for bit np.linalg.svd's where LAPACK's dgesdd takes that route
    itself, and the same null spaces with sigma inside a backward-error
    bound everywhere else; the null vector's derivative is -W^+ y without
    U; and no SVD in a decision forms an r-row U."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 7),
        data=st.data(),
        kinds=st.lists(st.sampled_from(WINDOW_KINDS[:4] + ("outer",)), min_size=1, max_size=6),
        exponent=st.floats(-150.0, 150.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_direct_svd(self, seed, m, data, kinds, exponent):
        r = data.draw(st.integers(m + 2, 3 * m + 11), label="rows")
        exponents = np.random.default_rng(seed).uniform(-150.0, 150.0, len(kinds))
        exponents[0] = exponent
        stack = window_stack(seed, m, r, kinds, exponents)
        _, sv, vt = np.linalg.svd(stack, full_matrices=False)
        want = (sv, vt, *hkbasis._null_vectors(stack, sv, vt))
        decided = hkbasis._decide(stack)
        # dgesdd factors a window of at least its MNTHR = floor(11m/6) rows
        # as QR first and takes sigma and V from the SVD of R, the same
        # dgeqrf and bidiagonal SVD as _decide (the reference dgesdd of
        # numpy 2.4's OpenBLAS 0.3.31), unless it rescales the window: it
        # does when the largest |entry| lies outside [sqrt(safe minimum) /
        # eps, its reciprocal], and R's largest entry lies within sqrt(r) of
        # the window's, so the window must clear that range by 2 sqrt(r)
        low = 2.0 * np.sqrt(r) * np.sqrt(np.finfo(float).tiny) / np.finfo(float).eps
        top = np.abs(stack).max(axis=(-2, -1))
        same_route = (r >= 11 * m // 6) & (top >= low) & (top <= 1 / low)
        # elsewhere each side's sigma are the exact ones of W + E with
        # ||E|| within a small multiple of m r u ||W|| (the normwise backward
        # errors of Householder QR and of the bidiagonal SVD), so Weyl's
        # inequality |sigma_i(W + E) - sigma_i(W)| <= ||E|| bounds their
        # difference by twice that; 4 m r u sigma_1 (measured: at most
        # 0.7 m r u sigma_1 over 6000 stacks)
        bound = 4 * m * r * (np.finfo(float).eps / 2) * sv[:, :1]
        for w in range(len(kinds)):
            if same_route[w]:
                for got, expected in zip(decided, want):
                    assert got[w].tobytes() == expected[w].tobytes()
            else:
                assert decided[3][w] == want[3][w], kinds[w]
                assert np.all(np.abs(decided[0][w] - sv[w]) <= bound[w]), kinds[w]

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 6),
        data=st.data(),
        exponent=st.floats(-100.0, 100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_null_derivative_is_pseudoinverse(self, seed, m, data, exponent):
        # windows with exactly one null direction, their other singular
        # values in [0.5, 2] times 10^exponent, and y on the windows' scale
        r = data.draw(st.integers(m + 2, 3 * m + 11), label="rows")
        window = window_stack(seed, m, r, ["rank-1"], [exponent])
        y = np.random.default_rng(seed).standard_normal((1, r, 3)) * 10.0**exponent
        sv, vt, _, null_dim = hkbasis._decide(window)
        assert null_dim.tolist() == [1]
        got = hkbasis._null_derivative(window, sv, vt, y)[0]
        want = -np.linalg.pinv(window[0], rtol=NULL_SIGMA_FACTOR) @ y[0]
        # both sides are W^+ y of W plus a backward error within a small
        # multiple of m r u ||W||, and Wedin's bound ||dW^+|| <= (1 +
        # sqrt 5)/2 ||W^+||^2 ||dW|| at equal rank turns that into kappa m r
        # u ||W^+|| ||y|| with kappa = sigma_1 / sigma_(m-1); 8 such units
        # (measured: at most 1.4 over 5000 windows)
        s = np.linalg.svd(window[0], compute_uv=False)
        bound = 8 * m * r * (np.finfo(float).eps / 2) * (s[0] / s[-2]) * np.linalg.norm(y[0], 2) / s[-2]
        assert np.linalg.norm(got - want, 2) <= bound

    def test_no_decision_forms_u(self, monkeypatch):
        # U of an r-row window is r x m: every SVD that computes vectors,
        # the gradients' included, takes an m x m R factor
        desc = make_system("general_clebsch")
        eps = 0.05
        orbit = iterate_orbit(desc.field, safe_state(np.random.default_rng(42), desc, eps), eps, 60)
        obs = wronskian_observables(2)
        window = default_window(len(obs))
        _, ratios = clebsch_ratios()
        x = shell_state(np.random.default_rng(79), desc, 0.4)
        calls = record_svd(monkeypatch)
        report = hk_nullspace(orbit, obs, window)
        extract_integral_ratios(report, orbit, obs, pivot=2)
        ratios[0](x)
        hkbasis._ratio_values(ratios, x, gradients=True)
        assert len(calls) == 4 and set(calls) == {(True, (len(obs), len(obs)))}

    def test_each_observable_called_once_per_base(self):
        # starts 9, 0 and 5 of 8-row windows read bases 0..16 once each,
        # not 3 x 8 bases
        desc = make_system("kirchhoff")
        orbit = iterate_orbit(desc.field, safe_state(np.random.default_rng(43), desc), 0.05, 30)
        calls = []

        def counted(observe):
            def column(states, bases):
                calls.append(bases.tolist())
                return observe.column(states, bases)

            return hkbasis.Observable(column, observe.reach)

        obs = wronskian_observables(2)
        starts = np.array([9, 0, 5])
        built = _windows(orbit, [counted(o) for o in obs], 8, starts)
        assert calls == [list(range(17))] * len(obs)
        for window, start in zip(built, starts):
            assert window.tobytes() == _windows(orbit, obs, 8, [start])[0].tobytes()


class TestExtractRatios:
    def test_first_clebsch_ratios_constant_across_windows(self):
        desc = make_system("first_clebsch")
        eps = 0.05
        x0 = safe_state(np.random.default_rng(17), desc, eps)
        orbit = iterate_orbit(desc.field, x0, eps, 42)
        obs = [state_observable(lambda x, i=i: x[3 + i] ** 2) for i in range(3)]
        obs.append(constant_observable(1.0))
        report = hk_nullspace(orbit, obs, window=12)
        seqs = extract_integral_ratios(report, orbit, obs, pivot=3)
        assert len(seqs.ratios) == 4
        assert len(seqs.ratios[0]) >= 30
        assert not any(seqs.non_constant)
        c = KahanPair(desc, x0[None], eps).coefficients("small_c").item(0)
        for i in range(3):
            # coefficient over the pivot coefficient -c0
            expected = -c[i] / c[3]
            assert np.max(np.abs(seqs.ratios[i] - expected)) <= 1e-9 * (1 + abs(expected))
        assert seqs.ratios[3] == pytest.approx(np.ones(len(seqs.ratios[3])), rel=1e-15)

    def test_third_order_ratios_are_integrals(self):
        # ratios of the order-3 null vector stay constant along the orbit
        desc = make_system("general_clebsch")
        eps = 0.05
        x0 = safe_state(np.random.default_rng(18), desc, eps)
        orbit = iterate_orbit(desc.field, x0, eps, 45)
        obs = wronskian_observables(3)
        report = hk_nullspace(orbit, obs, window=10)
        seqs = extract_integral_ratios(report, orbit, obs, pivot=2)
        assert len(seqs.ratios[0]) >= 30
        assert not any(seqs.non_constant)
        for i in range(2):
            spread = np.max(seqs.ratios[i]) - np.min(seqs.ratios[i])
            assert spread <= 1e-9 * (1 + abs(np.median(seqs.ratios[i])))

    def test_tight_tolerance_flags_non_constancy(self, monkeypatch):
        monkeypatch.setattr(hkbasis, "RATIO_TOL", 1e-18)
        desc = make_system("first_clebsch")
        eps = 0.05
        x0 = safe_state(np.random.default_rng(19), desc, eps)
        orbit = iterate_orbit(desc.field, x0, eps, 30)
        obs = wronskian_observables(1)
        report = hk_nullspace(orbit, obs, window=10)
        seqs = extract_integral_ratios(report, orbit, obs, pivot=2)
        assert any(seqs.non_constant)

    def test_constant_observables_give_unit_ratio(self):
        orbit = iterate_orbit(scalar_field(), np.array([0.1]), 0.01, 16)
        obs = [constant_observable(1.0), constant_observable(-1.0)]
        report = hk_nullspace(orbit, obs, window=6)
        seqs = extract_integral_ratios(report, orbit, obs, pivot=0)
        assert seqs.ratios[1] == pytest.approx(np.ones(len(seqs.ratios[1])), abs=1e-12)

    def short_orbit_case(self, steps):
        # a report from a 12-step kirchhoff orbit, window 10, order 1
        desc = make_system("kirchhoff")
        x0 = safe_state(np.random.default_rng(0), desc)
        obs = wronskian_observables(1)
        report = hk_nullspace(iterate_orbit(desc.field, x0, 0.05, 12), obs, window=10)
        assert report.null_dim == 1
        return report, iterate_orbit(desc.field, x0, 0.05, steps), obs

    def test_orbit_without_a_full_window(self):
        # a 9-step orbit has 9 order-1 rows, one short of the window
        report, orbit, obs = self.short_orbit_case(9)
        with pytest.raises(ValueError, match="orbit too short for window of 10 rows starting at 0"):
            extract_integral_ratios(report, orbit, obs, pivot=2)

    def test_non_finite_value_in_the_first_window(self):
        report, orbit, obs = self.short_orbit_case(12)
        broken = orbit.copy()
        broken[4] = np.nan
        with pytest.raises(ValueError, match="non-finite value inside the window"):
            extract_integral_ratios(report, broken, obs, pivot=2)

    def test_requires_one_dimensional_null_space(self):
        orbit = iterate_orbit(scalar_field(), np.array([0.1]), 0.01, 16)
        obs = [constant_observable(1.0)] * 3
        report = hk_nullspace(orbit, obs, window=6)
        assert report.null_dim == 2
        with pytest.raises(ValueError, match="null"):
            extract_integral_ratios(report, orbit, obs, pivot=0)

    @pytest.mark.parametrize("kind", SIX_DIM_KINDS)
    def test_equals_separate_window_null_spaces(self, kind):
        desc = make_system(kind)
        eps = 0.05
        x0 = safe_state(np.random.default_rng(41), desc, eps)
        orbit = iterate_orbit(desc.field, x0, eps, 60)
        for order in (1, 2, 3, 4):
            obs = wronskian_observables(order)
            report = hk_nullspace(orbit[1:], obs, window=10)
            seqs = extract_integral_ratios(report, orbit[1:], obs, pivot=2)
            expected = per_window_ratios(report, orbit[1:], obs, pivot=2)
            assert len(seqs.ratios[0]) == 60 - order - 10 + 1 == expected.shape[1]
            for got, want in zip(seqs.ratios, expected):
                assert got.tobytes() == want.tobytes(), order

    def test_mixed_observables_extracted(self):
        eps = 0.01
        orbit = iterate_orbit(scalar_field(), np.array([0.3]), eps, 30)
        obs = scalar_mixed_observables(eps)
        report = hk_nullspace(orbit, obs, window=6)
        seqs = extract_integral_ratios(report, orbit, obs, pivot=0)
        expected = per_window_ratios(report, orbit, obs, pivot=0)
        assert [r.tobytes() for r in seqs.ratios] == [r.tobytes() for r in expected]
        # bases 0..29 have a successor: 25 windows of 6 rows
        assert len(seqs.ratios[0]) == 25
        assert not any(seqs.non_constant[:3])
        assert seqs.ratios[2] == pytest.approx(np.full(25, 2 * eps), rel=1e-9)

    def test_orbit_stopped_at_pole_ends_the_sequence(self):
        # 1/x_0 = 0.42 = 2 eps (20 + 1): the pole is the attempt at step 20
        eps = 0.01
        orbit = iterate_orbit(scalar_field(), np.array([1.0 / 0.42]), eps, 40)
        assert len(orbit) == 21
        obs = scalar_mixed_observables(eps)
        report = hk_nullspace(orbit, obs, window=6)
        seqs = extract_integral_ratios(report, orbit, obs, pivot=0)
        expected = per_window_ratios(report, orbit, obs, pivot=0)
        # 21 points, bases 0..19 have a successor: starts 0..14
        assert len(seqs.ratios[0]) == expected.shape[1] == 15
        assert [r.tobytes() for r in seqs.ratios] == [r.tobytes() for r in expected]

    def test_non_finite_row_ends_the_sequence(self):
        eps = 0.01
        orbit = iterate_orbit(scalar_field(), np.array([0.3]), eps, 30).copy()
        orbit[15] = np.nan
        obs = scalar_mixed_observables(eps)
        report = hk_nullspace(orbit, obs, window=6)
        seqs = extract_integral_ratios(report, orbit, obs, pivot=0)
        expected = per_window_ratios(report, orbit, obs, pivot=0)
        # base 14 reads the NaN point as its successor: starts 0..8 stay finite
        assert len(seqs.ratios[0]) == expected.shape[1] == 9
        assert [r.tobytes() for r in seqs.ratios] == [r.tobytes() for r in expected]

    def test_null_dimension_change_names_window_start(self):
        # x1 = 2 x0 + 1 on points 0..5 only, so the window from point 2 on
        # loses its null vector
        x0 = np.array([0.1, 0.4, -0.3, 0.7, 0.2, -0.5, 0.9, 0.3, -0.1])
        x1 = 2.0 * x0 + 1.0
        x1[6:] += np.array([0.3, -0.2, 0.5])
        orbit = synthetic_orbit(np.column_stack([x0, x1]))
        obs = [
            state_observable(lambda x: x[0]),
            state_observable(lambda x: x[1]),
            constant_observable(1.0),
        ]
        orbit = orbit[1:]
        report = hk_nullspace(orbit, obs, window=5)
        assert report.null_dim == 1
        message = "null space dimension 0 != 1 at window start 1"
        with pytest.raises(RuntimeError, match=message):
            per_window_ratios(report, orbit, obs, pivot=0)
        with pytest.raises(RuntimeError, match=message):
            extract_integral_ratios(report, orbit, obs, pivot=0)

    def test_degenerate_pivot_names_window_start(self):
        orbit = iterate_orbit(scalar_field(), np.array([0.1]), 0.01, 16)
        obs = [state_observable(lambda x: x[0]), constant_observable(0.0)]
        orbit = orbit[3:]
        report = hk_nullspace(orbit, obs, window=6)
        message = "pivot coefficient degenerate at window start 0"
        with pytest.raises(ValueError, match=message):
            per_window_ratios(report, orbit, obs, pivot=0)
        with pytest.raises(ValueError, match=message):
            extract_integral_ratios(report, orbit, obs, pivot=0)

    @staticmethod
    def regions_case(layout):
        """Rows of three states by region letter, with x2 = x0 + x1 on "G",
        x2 = 1.5 x1 on "D", and t (1, 2, 3) on "R", which satisfies both
        relations: a window of "G" and "R" rows has the null vector
        (1, 1, -1), one of "D" and "R" rows (0, 1.5, -1), with a degenerate
        pivot 0, and one of five "R" rows has null dimension 2."""
        rng = np.random.default_rng(90)
        states = []
        for region in layout:
            x0, x1 = rng.uniform(-1.0, 1.0, 2)
            states.append({"G": (x0, x1, x0 + x1), "D": (x0, x1, 1.5 * x1), "R": (x0, 2 * x0, 3 * x0)}[region])
        orbit = synthetic_orbit(states)[2:]
        obs = [state_observable(lambda x, i=i: x[i]) for i in range(3)]
        report = hk_nullspace(orbit, obs, window=5)
        assert report.null_dim == 1
        return report, orbit, obs

    def test_null_dimension_before_degenerate_pivot(self):
        # windows from 2: GGGRR, GGRRR, GRRRR, RRRRR (null dimension 2), then
        # RRRRD on, degenerate; the case's orbit starts at point 2
        report, orbit, obs = self.regions_case("GG" + "GGG" + "RRRRR" + "DDD")
        message = "null space dimension 2 != 1 at window start 3"
        with pytest.raises(RuntimeError, match=message):
            per_window_ratios(report, orbit, obs, pivot=0)
        with pytest.raises(RuntimeError, match=message):
            extract_integral_ratios(report, orbit, obs, pivot=0)

    def test_degenerate_pivot_before_null_dimension(self):
        # windows from 2: GGGRR, GGRRR, GRRRR, RRRRD (degenerate) .. DRRRR,
        # then RRRRR, null dimension 2; the case's orbit starts at point 2
        report, orbit, obs = self.regions_case("GG" + "GGG" + "RRRR" + "D" + "RRRRR")
        message = "pivot coefficient degenerate at window start 3"
        with pytest.raises(ValueError, match=message):
            per_window_ratios(report, orbit, obs, pivot=0)
        with pytest.raises(ValueError, match=message):
            extract_integral_ratios(report, orbit, obs, pivot=0)

    def test_degenerate_pivot_rejected(self):
        orbit = iterate_orbit(scalar_field(), np.array([0.1]), 0.01, 16)
        obs = [state_observable(lambda x: x[0]), constant_observable(0.0)]
        report = hk_nullspace(orbit, obs, window=6)
        assert report.null_dim == 1
        with pytest.raises(ValueError, match="pivot"):
            extract_integral_ratios(report, orbit, obs, pivot=0)

    @pytest.mark.parametrize("pivot", [1.5, -1, 2, True])
    def test_pivot_outside_the_observables_rejected(self, pivot):
        orbit = iterate_orbit(scalar_field(), np.array([0.1]), 0.01, 16)
        obs = [state_observable(lambda x: x[0]), constant_observable(0.0)]
        report = hk_nullspace(orbit, obs, window=6)
        message = f"pivot must be an integer in 0..1 for 2 observables, got {pivot!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            extract_integral_ratios(report, orbit, obs, pivot=pivot)


class TestFunctionalRank:
    def test_duplicated_integral_counts_once(self):
        desc = make_system("first_clebsch")
        eps = 0.05
        x = safe_state(np.random.default_rng(20), desc, eps)
        f = lambda y: eval_I0(desc, y, eps)
        assert functional_rank([f, f], x) == 1

    def test_coordinates_have_full_rank(self):
        fns = [lambda x, i=i: x[i] for i in range(4)]
        assert functional_rank(fns, np.zeros(6)) == 4

    def test_steep_integral_does_not_mask_another(self):
        # raw gradient rows e0 and 1e9 e1 have sigma_2 / sigma_1 = 1e-9
        fns = [lambda x: float(x[0]), lambda x: 1e9 * float(x[1])]
        assert functional_rank(fns, np.full(6, 0.3)) == 2

    def test_zero_gradient_adds_no_rank(self):
        fns = [lambda x: float(x[0]), lambda x: 5.0]
        assert functional_rank(fns, np.full(6, 0.3)) == 1
        assert functional_rank([lambda x: 5.0], np.full(6, 0.3)) == 0

    def test_functional_dependence_detected(self):
        desc = make_system("kirchhoff")
        eps = 0.05
        x = safe_state(np.random.default_rng(21), desc, eps)
        f = lambda y: eval_I0(desc, y, eps)
        g = lambda y: eval_I0(desc, y, eps) ** 2
        assert functional_rank([f, g], x) == 1

    def test_casimirs_and_integral_independent(self):
        desc = make_system("second_clebsch")
        eps = 0.05
        x = safe_state(np.random.default_rng(22), desc, eps)
        fns = [
            lambda y: eval_I0(desc, y, eps),
            lambda y: float(y[:3] @ y[3:]),
            lambda y: float(y[3:] @ y[3:]),
        ]
        assert functional_rank(fns, x) == 3

    def test_wronskian_ratio_quadruple_rank_four(self):
        # the four order-3/order-4 ratio integrals are jointly independent;
        # larger eps and a taller window keep sigma_4 well above threshold
        desc = make_system("general_clebsch")
        eps = 0.4
        x = np.array([0.46856, 0.016045, -0.615396, 0.211436, 0.371389, 0.223165])
        fns = [
            wronskian_ratio_integral(desc.field, eps, 3, 0, 2, window=16),
            wronskian_ratio_integral(desc.field, eps, 3, 1, 2, window=16),
            wronskian_ratio_integral(desc.field, eps, 4, 0, 2, window=16),
            wronskian_ratio_integral(desc.field, eps, 4, 1, 2, window=16),
        ]
        assert functional_rank(fns, x) == 4

    def test_quadratic_integrals_dependent_on_ratio_pairs(self):
        # measured: the gradient of the bilinear integral lies in the span of
        # the other three at every probed point (projection residual scales as
        # the square of the FD step, so the dependence is exact, not roundoff);
        # the same holds with the roles of the two quadratic integrals swapped
        desc = make_system("general_clebsch")
        eps = 0.4
        x = np.array([0.46856, 0.016045, -0.615396, 0.211436, 0.371389, 0.223165])
        ratios = {
            (ell, num): wronskian_ratio_integral(desc.field, eps, ell, num, 2, window=16)
            for ell in (3, 4)
            for num in (0, 1)
        }
        quad = [
            lambda y: eval_I0(desc, y, eps),
            lambda y: KahanPair(desc, y[None], eps).value("J0").item(0),
        ]
        assert functional_rank(quad + [ratios[3, 0], ratios[3, 1]], x) == 3
        assert functional_rank(quad + [ratios[4, 0], ratios[4, 1]], x) == 3

    @pytest.mark.parametrize("kind", ["kirchhoff", "lagrange"])
    def test_constant_ratio_adds_no_rank(self, kind):
        # the order-3 ratio v1/v0 is the constant 1 on these axially
        # symmetric tops: its gradient is rounding noise (GRADIENT_FLOOR's
        # comment), which unit scaling alone made a full row, reading ranks
        # 3 and 4 below; v2/v0 adds one rank to I0, J0
        desc = make_system(kind)
        eps = 0.05
        fns = [
            lambda y: eval_I0(desc, y, eps),
            lambda y: KahanPair(desc, y[None], eps).value("J0").item(0),
            wronskian_ratio_integral(desc.field, eps, 3, 1, 0),
        ]
        varying = wronskian_ratio_integral(desc.field, eps, 3, 2, 0)
        rng = np.random.default_rng(24)
        for _ in range(5):
            x = safe_state(rng, desc, eps)
            assert functional_rank(fns[2:], x) == 0
            assert functional_rank(fns, x) == 2
            assert functional_rank(fns + [varying], x) == 3

    def test_kirchhoff_rank_four_with_axis_component(self):
        desc = make_system("kirchhoff")
        eps = 0.05
        x = safe_state(np.random.default_rng(24), desc, eps)
        fns = [
            lambda y: eval_I0(desc, y, eps),
            lambda y: KahanPair(desc, y[None], eps).value("J0").item(0),
            wronskian_ratio_integral(desc.field, eps, 3, 2, 0),
            lambda y: float(y[2]),
        ]
        assert functional_rank(fns, x) == 4


class TestRatioIntegralHelper:
    def test_matches_closed_form_integrals_kirchhoff(self):
        desc = make_system("kirchhoff")
        eps = 0.05
        x = safe_state(np.random.default_rng(25), desc, eps)
        ratio1 = wronskian_ratio_integral(desc.field, eps, 1, 2, 0)
        ratio2 = wronskian_ratio_integral(desc.field, eps, 2, 2, 0)
        assert ratio1(x) == pytest.approx(eval_I0(desc, x, eps), rel=1e-8)
        assert ratio2(x) == pytest.approx(KahanPair(desc, x[None], eps).value("J0").item(0), rel=1e-8)

    def test_third_order_ratio_is_conserved(self):
        desc = make_system("lagrange")
        eps = 0.05
        x = safe_state(np.random.default_rng(26), desc, eps)
        j1 = wronskian_ratio_integral(desc.field, eps, 3, 2, 0)
        reference = j1(x)
        for _ in range(5):
            x = kahan_step(desc.field, x, eps).next
            assert j1(x) == pytest.approx(reference, rel=1e-8)


def scalar_ratio(ratio):
    """The per-state ratio evaluation that WronskianRatio replaced: one
    iterate_orbit of its own length and one hk_nullspace call per state; a
    later pole that cuts the orbit short is named by its step."""
    observables = WronskianBasisSpec(ratio.order, ratio.pairs).observables()

    def integral(x):
        steps = ratio.window - 1 + ratio.order
        orbit = iterate_orbit(ratio.field, x, ratio.eps, steps)
        if len(orbit) <= steps:
            raise ValueError(f"orbit hits a pole at step {len(orbit)} of the {steps} the window needs")
        report = hk_nullspace(orbit, observables, ratio.window)
        if report.null_dim != 1:
            raise RuntimeError(
                f"order-{ratio.order} Wronskian window has null dimension {report.null_dim}"
            )
        v = report.coeff_vectors[0]
        if abs(v[ratio.den]) < PIVOT_FLOOR * np.max(np.abs(v)):
            raise ValueError(f"denominator entry {ratio.den} degenerate in null vector")
        return float(v[ratio.num] / v[ratio.den])

    return integral


def reference_gradients(integrals, x, scale=1e-6):
    """Central-difference gradient rows as a loop: every integral, a ratio
    through scalar_ratio, called at x + h e_j and x - h e_j for one
    coordinate j at a time, h = scale * (1 + |x_j|)."""
    x = np.asarray(x, dtype=float)
    grads = np.empty((len(integrals), x.shape[0]))
    for row, fn in enumerate(integrals):
        if isinstance(fn, WronskianRatio):
            fn = scalar_ratio(fn)
        for j in range(x.shape[0]):
            h = scale * (1.0 + abs(x[j]))
            e = np.zeros(x.shape[0])
            e[j] = h
            grads[row, j] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return grads


def reference_unit_gradients(integrals, x, scale=1e-6):
    """reference_gradients with every row scaled to unit length."""
    grads = reference_gradients(integrals, x, scale)
    norms = np.linalg.norm(grads, axis=1, keepdims=True)
    return np.divide(grads, norms, out=np.zeros_like(grads), where=norms > 0)


def first_error(ratios, x):
    """The error of the first ratio, in list order, that fails at x, as
    raised() reports it; None when every ratio has a value there."""
    for ratio in ratios:
        try:
            ratio(x)
        except Exception as exc:  # the error itself is what is compared
            return type(exc), str(exc)
    return None


def shell_state(rng, desc, eps):
    # criterion 07's probe points: radius 0.4..1, every denominator witness >= 1e-6
    for _ in range(1000):
        v = rng.standard_normal(desc.dim)
        x = v * (rng.uniform(0.4, 1.0) / float(np.linalg.norm(v)))
        if min(denominator_witnesses(desc, x, eps)) >= 1e-6:
            return x
    pytest.fail(f"no {desc.kind} shell state cleared the denominators")


def raised(call):
    try:
        call()
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)
    pytest.fail("no error raised")


def clebsch_ratios(eps=0.4, window=16):
    desc = make_system("general_clebsch")
    return desc, [
        wronskian_ratio_integral(desc.field, eps, ell, num, 2, window=window)
        for ell in (3, 4)
        for num in (0, 1)
    ]


class TestStackedRatios:
    """WronskianRatio evaluates one state from one orbit; functional_rank
    takes the ratios' gradients from the one tangent orbit of x. The values
    are the per-state loop's; a probe fails with the error the first failing
    ratio raises at x, and its rows agree with central differences of the
    loop to the measured bounds below."""

    @pytest.mark.parametrize("seed", [71, 72])
    def test_clebsch_rank_rows_match_loop(self, seed):
        # eps 0.4, the rank probes' setting: unit rows within 2e-7 of the
        # loop's central differences (measured <= 8.4e-8 over both seeds;
        # hk_detect seeds 1, 7 and 2504 read <= 7.3e-8, see the pinned
        # exception below)
        desc, ratios = clebsch_ratios()
        rng = np.random.default_rng(seed)
        for _ in range(20):
            x = shell_state(rng, desc, 0.4)
            expected = first_error(ratios, x)
            if expected is not None:
                assert raised(lambda: _unit_gradients(ratios, x)) == expected
                continue
            rows = _unit_gradients(ratios, x)
            assert np.abs(rows - reference_unit_gradients(ratios, x)).max() <= 2e-7

    def test_steep_probe_converges_on_tangent_rows(self):
        # hk_detect seed 2, probe 9: the order-3 ratios' gradients are about
        # 7e6 there, and central differences at the default step 1e-6 are
        # off by 2.4e-4 on the unit rows. Their error falls as h^2 toward
        # the tangent rows: measured 2.4e-4, 2.4e-6 and 2.0e-8 at h = 1e-6,
        # 1e-7 and 1e-8
        desc, ratios = clebsch_ratios()
        rng = np.random.default_rng(2)
        x = [shell_state(rng, desc, 0.4) for _ in range(10)][-1]
        rows = _unit_gradients(ratios, x)
        errors = [
            np.abs(rows - reference_unit_gradients(ratios, x, scale)).max()
            for scale in (1e-6, 1e-7, 1e-8)
        ]
        assert errors[0] > 1e-4
        assert errors[1] < errors[0] / 50 and errors[2] < errors[1] / 50
        assert errors[2] <= 1e-7

    @pytest.mark.parametrize("kind", ["kirchhoff", "lagrange"])
    def test_order_three_rank_rows_match_loop(self, kind):
        # eps 0.05: v1/v0 is the constant 1 on these axially symmetric tops,
        # and its tangent gradient is rounding noise. Over seeds 1-40, ten
        # draws each, that row reads <= 3.0e-8 of max(1, |v1/v0|), the
        # measurement GRADIENT_FLOOR rests on; 1e-7 is three times that and
        # a hundredth of the floor. The other ratio's gradient is within
        # 1e-6 of central differences at seed 73's draws (measured <=
        # 4.2e-7, their noise floor: rounding of the ratio over h)
        desc = make_system(kind)
        eps = 0.05
        ratios = [wronskian_ratio_integral(desc.field, eps, 3, num, 0) for num in (1, 2)]
        draws = []
        for seed in range(1, 41):
            rng = np.random.default_rng(seed)
            draws += [safe_state(rng, desc, eps) for _ in range(10)]
        for x in draws:
            (value, constant), _ = hkbasis._ratio_values(ratios, x, gradients=True)
            assert np.linalg.norm(constant) <= 1e-7 * max(1.0, abs(value))
        assert 1e-7 <= hkbasis.GRADIENT_FLOOR / 100
        rng = np.random.default_rng(73)
        for _ in range(5):
            x = safe_state(rng, desc, eps)
            _, (_, varying) = hkbasis._ratio_values(ratios, x, gradients=True)
            assert np.abs(varying - reference_gradients(ratios[1:], x)[0]).max() <= 1e-6

    def test_mixed_list_matches_loop(self):
        # plain callables interleaved with ratio groups of two fields and two
        # window heights, in an order that splits every group: every row is
        # the one its integral gets alone, and a plain callable's row is the
        # loop's central difference to the bit
        gen, (j1, j2, j3, j4) = clebsch_ratios(eps=0.05)
        kir = make_system("kirchhoff")
        eps = 0.05
        fns = [
            lambda y: eval_I0(gen, y, eps),
            j1,
            wronskian_ratio_integral(kir.field, eps, 3, 2, 0),
            lambda y: float(y[2]),
            wronskian_ratio_integral(gen.field, eps, 3, 1, 2, window=10),
            j4,
            wronskian_ratio_integral(kir.field, eps, 3, 1, 0),
            j2,
            lambda y: KahanPair(gen, y[None], eps).value("J0").item(0),
            j3,
        ]
        x = safe_state(np.random.default_rng(74), gen, eps)
        rows = _unit_gradients(fns, x)
        assert np.array_equal(rows, [_unit_gradients([fn], x)[0] for fn in fns])
        plain = [0, 3, 8]
        assert np.array_equal(rows[plain], reference_unit_gradients([fns[k] for k in plain], x))
        sv = np.linalg.svd(rows, compute_uv=False)
        assert functional_rank(fns, x) == int(np.sum(sv > 1e-7 * sv[0]))

    def test_call_matches_scalar_ratio(self):
        desc, ratios = clebsch_ratios()
        rng = np.random.default_rng(75)
        states = np.array([shell_state(rng, desc, 0.4) for _ in range(4)])
        for ratio in ratios:
            assert [ratio(x) for x in states] == [scalar_ratio(ratio)(x) for x in states]

    def test_call_checks_state_shape(self):
        _, (j1, *_) = clebsch_ratios()
        with pytest.raises(ValueError, match="shape"):
            j1(np.zeros(5))

    @pytest.mark.parametrize(
        "x, message",
        [
            (np.ones(5), "x must have shape (6,), got shape (5,)"),
            (np.ones((2, 6)), "x must have shape (6,), got shape (2, 6)"),
            (np.array([0.5, math.nan, 0.1, 0.2, 0.3, 0.4]), "x has a non-finite entry x[1] = nan"),
        ],
    )
    def test_call_names_the_state_it_was_given(self, x, message):
        # the same rules, in the same words, as functional_rank's
        j1 = wronskian_ratio_integral(make_system("kirchhoff").field, 0.05, 1, 0, 2)
        for call in (j1, lambda y: functional_rank([j1], y)):
            with pytest.raises(ValueError, match=re.escape(message)):
                call(x)

    @pytest.mark.parametrize("step, error", [(0, SingularStepError), (5, ValueError), (18, ValueError)])
    def test_pole_errors_match_loop(self, monkeypatch, step, error):
        # a pole on x's own orbit: step 18 is the last one, which only the
        # order-4 windows reach; a later pole is named by its step, numbered
        # as hk-scan numbers it
        message = {
            0: "below threshold",
            5: "orbit hits a pole at step 6 of the 18 the window needs",
            18: "orbit hits a pole at step 19 of the 19 the window needs",
        }[step]
        desc, ratios = clebsch_ratios()
        x = shell_state(np.random.default_rng(76), desc, 0.4)
        place_pole(monkeypatch, iterate_orbit(desc.field, x, 0.4, step)[step] if step else x)
        expected = first_error(ratios, x)
        assert expected[0] is error and message in expected[1]
        assert raised(lambda: functional_rank(ratios, x)) == expected

    def test_null_dimension_error_matches_loop(self, monkeypatch):
        desc, ratios = clebsch_ratios()
        x = shell_state(np.random.default_rng(77), desc, 0.4)
        null_vectors = hkbasis._null_vectors

        def doubled(rows, sv, vt):
            vectors, null_dim = null_vectors(rows, sv, vt)
            return vectors, 2 * null_dim

        monkeypatch.setattr(hkbasis, "_null_vectors", doubled)
        expected = raised(lambda: reference_unit_gradients(ratios, x))
        assert expected == (RuntimeError, "order-3 Wronskian window has null dimension 2")
        assert raised(lambda: functional_rank(ratios, x)) == expected

    def test_degenerate_denominator_matches_loop(self, monkeypatch):
        desc, ratios = clebsch_ratios()
        x = shell_state(np.random.default_rng(78), desc, 0.4)
        null_vectors = hkbasis._null_vectors

        def zero_den(rows, sv, vt):
            vectors, null_dim = null_vectors(rows, sv, vt)
            vectors[..., 2] = 0.0
            return vectors, null_dim

        monkeypatch.setattr(hkbasis, "_null_vectors", zero_den)
        expected = raised(lambda: reference_unit_gradients(ratios, x))
        assert expected == (ValueError, "denominator entry 2 degenerate in null vector")
        assert raised(lambda: functional_rank(ratios, x)) == expected


    def test_one_orbit_per_probe(self, monkeypatch):
        # the four order-3/order-4 ratios step x alone to the 16 + 4 - 1
        # points the order-4 window reads, 19 steps, where central
        # differences stepped 2n = 12 such orbits
        desc, ratios = clebsch_ratios()
        x = shell_state(np.random.default_rng(79), desc, 0.4)
        counts = count_stepped(monkeypatch)
        _unit_gradients(ratios, x)
        assert sum(counts) == 19


class TestRankInputs:
    def test_nan_integral_named(self):
        fns = [lambda y: math.nan, lambda y: float(y[0])]
        with pytest.raises(ValueError, match="integral 0 has a non-finite"):
            functional_rank(fns, np.full(6, 0.3))

    def test_infinite_value_named(self):
        fns = [lambda y: float(y[0]), lambda y: math.inf if y[3] > 0.3 else 0.0]
        with pytest.raises(ValueError, match="integral 1 has a non-finite"):
            functional_rank(fns, np.full(6, 0.3))

    def test_overflowing_gradient_named(self):
        # finite values whose difference overflows to an infinite gradient
        fns = [lambda y: float(y[0]), lambda y: 1e308 if y[1] > 0.3 else -1e308]
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="integral 1 has a non-finite"):
            functional_rank(fns, np.full(6, 0.3))

    @pytest.mark.parametrize("shape", [(2, 6), (0,)])
    def test_x_that_is_not_one_state_named(self, shape):
        _, ratios = clebsch_ratios()
        with pytest.raises(ValueError, match=rf"x must have shape \(6,\), got shape {re.escape(str(shape))}"):
            functional_rank(ratios, np.full(shape, 0.3))

    def test_short_x_named(self):
        _, ratios = clebsch_ratios()
        with pytest.raises(ValueError, match=r"x must have shape \(6,\), got shape \(5,\)"):
            functional_rank(ratios, np.full(5, 0.3))

    def test_infinite_x_named(self):
        _, (j1, *_) = clebsch_ratios()
        x = np.full(6, 0.3)
        x[2] = -math.inf
        with pytest.raises(ValueError, match=r"non-finite entry x\[2\] = -inf"):
            functional_rank([lambda y: float(y[0]), j1], x)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one integral is required"):
            functional_rank([], np.full(6, 0.3))

    @pytest.mark.parametrize(
        "num, den, message",
        [(0, -1, "den must lie in 0..2"), (7, 2, "num must lie in 0..2"), (1, 1, "num and den")],
    )
    def test_ratio_indices_validated_at_build(self, num, den, message):
        field = make_system("general_clebsch").field
        with pytest.raises(ValueError, match=message):
            wronskian_ratio_integral(field, 0.4, 3, num, den, window=16)

    def test_pairs_past_dimension_rejected_at_build(self):
        field = make_system("kirchhoff").field
        with pytest.raises(ValueError, match="reach past dimension 6"):
            wronskian_ratio_integral(field, 0.05, 1, 0, 1, pairs=((0, 7), (1, 4), (2, 5)))

    def test_short_window_rejected_at_build(self):
        field = make_system("general_clebsch").field
        with pytest.raises(ValueError, match="window must be at least 5"):
            wronskian_ratio_integral(field, 0.4, 3, 0, 2, window=4)

    def test_default_pairs_and_window(self):
        ratio = WronskianRatio(make_system("kirchhoff").field, 0.05, 3, 2, 0)
        assert ratio.pairs == conjugate_pairs(6) and ratio.window == default_window(3)


class TestIndexArguments:
    """Indices and counts must be integers, bools rejected, and each
    rejection names its argument."""

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"num": 0.5}, "num must be an integer, got 0.5"),
            ({"num": True}, "num must be an integer, got True"),
            ({"den": np.float64(1.0)}, "den must be an integer, got np.float64(1.0)"),
            ({"window": True}, "window must be an integer, got True"),
        ],
    )
    def test_ratio_index_must_be_an_integer(self, kwargs, message):
        args = {"num": 0, "den": 1, **kwargs}
        with pytest.raises(ValueError, match=re.escape(message)):
            wronskian_ratio_integral(make_system("kirchhoff").field, 0.05, 1, **args)

    def test_fractional_pair_rejected(self):
        with pytest.raises(ValueError, match=re.escape("invalid pair (0.5, 3): pairs must hold two distinct integers")):
            WronskianBasisSpec(1, ((0.5, 3), (1, 4)))

    @pytest.mark.parametrize("order", [1.5, True])
    def test_fractional_order_rejected(self, order):
        with pytest.raises(ValueError, match=re.escape(f"order must be an integer >= 1, got {order!r}")):
            WronskianBasisSpec(order, ((0, 3), (1, 4)))
        # the observable itself, by the same rule, before any column is read
        with pytest.raises(ValueError, match=re.escape(f"order must be an integer >= 1, got {order!r}")):
            wronskian_observable(order, (0, 3))

    def test_state_that_is_not_an_orbit_rejected(self):
        obs = wronskian_observables(1)
        message = "states must be one orbit of shape (points, n), got shape (6,)"
        with pytest.raises(ValueError, match=re.escape(message)):
            hk_nullspace(np.full(6, 0.1), obs, default_window(len(obs)))

    def test_empty_observables_named_before_the_pivot(self):
        desc = make_system("kirchhoff")
        orbit = iterate_orbit(desc.field, safe_state(np.random.default_rng(5), desc), 0.05, 40)
        obs = wronskian_observables(1)
        report = hk_nullspace(orbit, obs, default_window(len(obs)))
        with pytest.raises(ValueError, match="observables must hold at least one observable"):
            extract_integral_ratios(report, orbit, [], 0)
