"""Orbit records, discrete Wronskians, window null spaces, ratio extraction,
and gradient rank counts.

Hand oracles: the scalar field xdot = x^2 has the closed-form step
x -> x/(1 - 2*eps*x), so 1/x_k = 1/x_0 - 2*k*eps, which pins orbit states
and the pole location exactly.  Synthetic three-state records pin the
Wronskian arithmetic.  Null vectors of the catalog bases are checked
against the closed-form coefficient evaluations.
"""

import math

import numpy as np
import pytest

from conftest import SIX_DIM_KINDS, make_system, safe_state, unit_ball
from kahanmaps.hkbasis import (
    HKNullSpaceReport,
    OrbitRecord,
    _window_matrix,
    WronskianBasisSpec,
    bilinear_observable,
    conjugate_pairs,
    constant_observable,
    default_window,
    discrete_wronskian,
    extract_integral_ratios,
    functional_rank,
    hk_nullspace,
    iterate_orbit,
    state_observable,
    wronskian_observable,
    wronskian_ratio_integral,
)
from kahanmaps.integrals import KahanPair, eval_I0, eval_J0, eval_coeffs, evaluate_named
from kahanmaps.quadfield import KahanStepResult, QuadraticVectorField, SingularStepError, kahan_step

CLEBSCH_KINDS = ("general_clebsch", "first_clebsch", "second_clebsch")


def scalar_field():
    return QuadraticVectorField(
        quad=np.ones((1, 1, 1)), lin=np.zeros((1, 1)), const=np.zeros(1)
    )


def synthetic_record(states, eps=0.0):
    states = np.asarray(states, dtype=float)
    k = len(states) - 1
    return OrbitRecord(
        states=states,
        eps=eps,
        deltas=np.ones(k),
        residuals=np.zeros(k),
        pole_flags=np.zeros(k, dtype=bool),
    )


def normalize(v):
    v = np.asarray(v, dtype=float)
    return v / v[np.argmax(np.abs(v))]


def wronskian_observables(order, dim=6):
    return WronskianBasisSpec(order, conjugate_pairs(dim)).observables()


def per_window_ratios(report, orbit, observables, pivot):
    """Reference for extract_integral_ratios: one hk_nullspace call (one
    window build, one SVD) per window start, until a window cannot be built."""
    start, window = report.window
    rows = []
    while True:
        try:
            sub = hk_nullspace(orbit, observables, window, start=start)
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
        assert orbit.states[:, 0] == pytest.approx([1.0, 1.25, 5.0 / 3.0], rel=1e-15)
        # Delta(x; eps) = 1 - 2*eps*x at the departure point of each step
        assert orbit.deltas == pytest.approx([0.8, 0.75], rel=1e-15)
        assert not orbit.pole_flags.any()
        assert orbit.steps == 2
        assert orbit.eps == 0.1

    def test_eps_zero_orbit_is_constant(self):
        desc = make_system("kirchhoff")
        x0 = unit_ball(np.random.default_rng(1), 6)
        orbit = iterate_orbit(desc.field, x0, 0.0, 5)
        assert np.allclose(orbit.states, x0, atol=1e-15)
        assert orbit.deltas == pytest.approx(np.ones(5), rel=1e-15)

    def test_reverse_orbit_returns_to_start(self):
        desc = make_system("first_clebsch")
        x0 = safe_state(np.random.default_rng(2), desc)
        fwd = iterate_orbit(desc.field, x0, 0.05, 50)
        back = iterate_orbit(desc.field, fwd.states[-1], -0.05, 50)
        assert np.max(np.abs(back.states[-1] - x0)) <= 1e-9

    def test_pole_stops_early_with_flag(self):
        # 1/x_0 = 0.6 puts the pole exactly at the third step
        orbit = iterate_orbit(scalar_field(), np.array([5.0 / 3.0]), 0.1, 10)
        assert orbit.states[:, 0] == pytest.approx([5.0 / 3.0, 2.5, 5.0], rel=1e-14)
        assert list(orbit.pole_flags) == [False, False, True]
        assert orbit.deltas[-1] == pytest.approx(0.0, abs=1e-12)
        assert np.isnan(orbit.residuals[-1])
        assert orbit.hit_pole
        assert orbit.steps == 2

    def test_pole_at_step_zero_raises(self):
        with pytest.raises(SingularStepError):
            iterate_orbit(scalar_field(), np.array([5.0]), 0.1, 3)

    def test_steps_must_be_positive(self):
        with pytest.raises(ValueError, match="steps"):
            iterate_orbit(scalar_field(), np.array([1.0]), 0.1, 0)

    def test_residuals_recorded_and_small(self):
        desc = make_system("lagrange")
        x0 = safe_state(np.random.default_rng(3), desc)
        orbit = iterate_orbit(desc.field, x0, 0.05, 20)
        assert orbit.residuals.shape == (20,)
        assert np.all(orbit.residuals <= 1e-12)

    def test_states_are_read_only(self):
        orbit = iterate_orbit(scalar_field(), np.array([1.0]), 0.1, 1)
        with pytest.raises(ValueError):
            orbit.states[0, 0] = 2.0


class TestDiscreteWronskian:
    def test_synthetic_values(self):
        orbit = synthetic_record([[1.0, 2.0], [3.0, 5.0], [7.0, 11.0]])
        # x_i^(base+ell) x_j^(base) - x_i^(base) x_j^(base+ell)
        assert discrete_wronskian(orbit, 1, (0, 1), 0) == pytest.approx(1.0)
        assert discrete_wronskian(orbit, 2, (0, 1), 0) == pytest.approx(3.0)
        assert discrete_wronskian(orbit, 1, (0, 1), 1) == pytest.approx(2.0)

    def test_same_component_is_zero(self):
        orbit = synthetic_record([[1.0, 2.0], [3.0, 5.0], [7.0, 11.0]])
        assert discrete_wronskian(orbit, 1, (1, 1), 0) == 0.0

    def test_antisymmetric_in_pair(self):
        orbit = synthetic_record([[1.0, 2.0], [3.0, 5.0], [7.0, 11.0]])
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
        orbit = synthetic_record([[1.0, 2.0], [3.0, 5.0], [7.0, 11.0]])
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
        for base in range(10):
            c = eval_coeffs(desc, orbit.states[base], eps, "small_c")
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
        for base in range(8):
            big = eval_coeffs(desc, orbit.states[base], eps, "big_C")
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
        orbit = synthetic_record([[1.0, 2.0], [3.0, 5.0], [7.0, 11.0]])
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
        orbit = synthetic_record([[1.0, 2.0], [3.0, 5.0], [7.0, 11.0]])
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
        s = orbit.states
        pairs = conjugate_pairs(6)
        for order in (1, 2, 3, 4):
            obs = wronskian_observables(order)
            rows = 41 - order
            built = _window_matrix(orbit, obs, rows, 0)
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
            assert _window_matrix(orbit, obs, 10, 7).tobytes() == loop[7:17].tobytes()

    def test_mixed_window_equals_per_cell_values(self):
        eps = 0.01
        orbit = iterate_orbit(scalar_field(), np.array([0.3]), eps, 12)
        x = orbit.states[:, 0]
        built = _window_matrix(orbit, scalar_mixed_observables(eps), 8, 2)
        cells = [[x[b], x[b + 1], x[b] * x[b + 1], 1.0] for b in range(2, 10)]
        assert built.tobytes() == np.array(cells).tobytes()
        report = hk_nullspace(orbit, scalar_mixed_observables(eps), window=8, start=2)
        assert report.null_dim == 1
        v = report.coeff_vectors[0]
        assert v / v[0] == pytest.approx([1.0, -1.0, 2 * eps, 0.0], abs=1e-9)

    def test_window_past_reach_rejected(self):
        orbit = iterate_orbit(scalar_field(), np.array([0.3]), 0.01, 8)
        # bases 3..8 need the successor of point 8, which the orbit lacks
        with pytest.raises(ValueError, match="orbit too short for window of 6 rows starting at 3"):
            hk_nullspace(orbit, scalar_mixed_observables(0.01), window=6, start=3)


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
        c = eval_coeffs(desc, x0, eps, "small_c")
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
        c = eval_coeffs(desc, x0, eps, "small_c")
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
        obs = [
            bilinear_observable(
                lambda x, y, G=G: KahanPair(desc, x, eps, KahanStepResult(y, math.nan, math.nan)).value(G)
            )
            for G in ("G1", "G2", "G3")
        ]
        obs.append(constant_observable(1.0))
        report = hk_nullspace(orbit, obs, window=12)
        assert report.null_dim == 1
        big = eval_coeffs(desc, x0, eps, "big_C")
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
            predicted = normalize(eval_coeffs(desc, x0, eps, coeff_kind)[:3])
            assert report.coeff_vectors[0] == pytest.approx(predicted, rel=1e-8)

    @pytest.mark.parametrize("kind", ("kirchhoff", "lagrange"))
    def test_wronskian_null_vectors_are_integral_ratios(self, kind):
        # first and second order null vectors proportional to (1, 1, ratio)
        desc = make_system(kind)
        eps = 0.05
        x0 = safe_state(np.random.default_rng(11), desc, eps)
        orbit = iterate_orbit(desc.field, x0, eps, 24)
        for order, value in ((1, eval_I0(desc, x0, eps)), (2, eval_J0(desc, x0, eps))):
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

    def test_null_vectors_annihilate_window_matrix(self):
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
        report = hk_nullspace(orbit, wronskian_observables(1), window=9, start=3)
        sv = report.singular_values
        assert np.all(sv[:-1] >= sv[1:])
        doc = report.to_json_dict()
        assert doc["null_dim"] == 1
        assert doc["window"] == [3, 9]
        assert len(doc["singular_values"]) == 3
        assert len(doc["coeff_vectors"]) == 1
        assert doc["gap_ratio"] == report.gap_ratio


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
        c = eval_coeffs(desc, x0, eps, "small_c")
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

    def test_tight_tolerance_flags_non_constancy(self):
        desc = make_system("first_clebsch")
        eps = 0.05
        x0 = safe_state(np.random.default_rng(19), desc, eps)
        orbit = iterate_orbit(desc.field, x0, eps, 30)
        obs = wronskian_observables(1)
        report = hk_nullspace(orbit, obs, window=10)
        seqs = extract_integral_ratios(report, orbit, obs, pivot=2, tol=1e-18)
        assert any(seqs.non_constant)
        assert seqs.tolerance == 1e-18

    def test_constant_observables_give_unit_ratio(self):
        orbit = iterate_orbit(scalar_field(), np.array([0.1]), 0.01, 16)
        obs = [constant_observable(1.0), constant_observable(-1.0)]
        report = hk_nullspace(orbit, obs, window=6)
        seqs = extract_integral_ratios(report, orbit, obs, pivot=0)
        assert seqs.ratios[1] == pytest.approx(np.ones(len(seqs.ratios[1])), abs=1e-12)

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
            report = hk_nullspace(orbit, obs, window=10, start=1)
            seqs = extract_integral_ratios(report, orbit, obs, pivot=2)
            expected = per_window_ratios(report, orbit, obs, pivot=2)
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
        assert orbit.hit_pole and orbit.steps == 20
        obs = scalar_mixed_observables(eps)
        report = hk_nullspace(orbit, obs, window=6)
        seqs = extract_integral_ratios(report, orbit, obs, pivot=0)
        expected = per_window_ratios(report, orbit, obs, pivot=0)
        # 21 points, bases 0..19 have a successor: starts 0..14
        assert len(seqs.ratios[0]) == expected.shape[1] == 15
        assert [r.tobytes() for r in seqs.ratios] == [r.tobytes() for r in expected]

    def test_non_finite_row_ends_the_sequence(self):
        eps = 0.01
        states = iterate_orbit(scalar_field(), np.array([0.3]), eps, 30).states.copy()
        states[15] = np.nan
        orbit = synthetic_record(states, eps)
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
        orbit = synthetic_record(np.column_stack([x0, x1]))
        obs = [
            state_observable(lambda x: x[0]),
            state_observable(lambda x: x[1]),
            constant_observable(1.0),
        ]
        report = hk_nullspace(orbit, obs, window=5, start=1)
        assert report.null_dim == 1
        message = "null space dimension 0 != 1 at window start 2"
        with pytest.raises(RuntimeError, match=message):
            per_window_ratios(report, orbit, obs, pivot=0)
        with pytest.raises(RuntimeError, match=message):
            extract_integral_ratios(report, orbit, obs, pivot=0)

    def test_degenerate_pivot_names_window_start(self):
        orbit = iterate_orbit(scalar_field(), np.array([0.1]), 0.01, 16)
        obs = [state_observable(lambda x: x[0]), constant_observable(0.0)]
        report = hk_nullspace(orbit, obs, window=6, start=3)
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
            lambda y: eval_J0(desc, y, eps),
        ]
        assert functional_rank(quad + [ratios[3, 0], ratios[3, 1]], x) == 3
        assert functional_rank(quad + [ratios[4, 0], ratios[4, 1]], x) == 3

    def test_kirchhoff_rank_four_with_axis_component(self):
        desc = make_system("kirchhoff")
        eps = 0.05
        x = safe_state(np.random.default_rng(24), desc, eps)
        fns = [
            lambda y: eval_I0(desc, y, eps),
            lambda y: eval_J0(desc, y, eps),
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
        assert ratio2(x) == pytest.approx(eval_J0(desc, x, eps), rel=1e-8)

    def test_third_order_ratio_is_conserved(self):
        desc = make_system("lagrange")
        eps = 0.05
        x = safe_state(np.random.default_rng(26), desc, eps)
        j1 = wronskian_ratio_integral(desc.field, eps, 3, 2, 0)
        reference = j1(x)
        for _ in range(5):
            x = kahan_step(desc.field, x, eps).next
            assert j1(x) == pytest.approx(reference, rel=1e-8)


class TestRecordValidation:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="attempt"):
            OrbitRecord(
                states=np.zeros((3, 2)),
                eps=0.1,
                deltas=np.ones(1),
                residuals=np.zeros(2),
                pole_flags=np.zeros(2, dtype=bool),
            )

    def test_states_must_be_matrix(self):
        with pytest.raises(ValueError, match="states"):
            OrbitRecord(
                states=np.zeros(3),
                eps=0.1,
                deltas=np.ones(2),
                residuals=np.zeros(2),
                pole_flags=np.zeros(2, dtype=bool),
            )
