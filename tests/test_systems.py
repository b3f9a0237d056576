"""Catalog flows checked against cross-product oracles, frozen point values,
and the continuous conserved quantities."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import ALL_KINDS, SIX_DIM_KINDS, make_params, make_system, unit_ball
from continuous import bracket, invariants, spectral_params, wronskian_coeffs, wronskian_residual

from kahanmaps.quadfield import evaluate_field
from kahanmaps.systems import (
    ClebschParams,
    FirstClebschParams,
    KirchhoffParams,
    LagrangeParams,
    PlanarFamilyParams,
    SecondClebschParams,
    build_system,
    central_gradient,
    clebsch_condition_residual,
    params_from_dict,
    params_to_dict,
)


def clebsch_cross_flow(a, b, x):
    # Hamiltonian flow on e(3)* for 2H = <m, a*m> + <p, b*p>:
    # mdot = m x (a*m) + p x (b*p), pdot = p x (a*m)
    m, p = x[:3], x[3:]
    am = np.asarray(a) * m
    bp = np.asarray(b) * p
    return np.concatenate([np.cross(m, am) + np.cross(p, bp), np.cross(p, am)])


def lagrange_cross_flow(alpha, gamma, x):
    m, p = x[:3], x[3:]
    w = np.array([m[0], m[1], alpha * m[2]])
    g = np.array([0.0, 0.0, gamma])
    return np.concatenate([np.cross(m, w) + np.cross(p, g), np.cross(p, w)])


class TestCatalogFields:
    @pytest.mark.parametrize("kind", ("general_clebsch", "first_clebsch", "second_clebsch", "kirchhoff"))
    def test_clebsch_family_matches_cross_product_oracle(self, kind):
        desc = make_system(kind)
        if kind == "general_clebsch":
            a, b = desc.params.a, desc.params.b
        elif kind == "first_clebsch":
            a, b = np.ones(3), desc.params.omega
        elif kind == "second_clebsch":
            om = desc.params.omega
            a = om
            b = np.array([-om[1] * om[2], -om[2] * om[0], -om[0] * om[1]])
        else:
            pr = desc.params
            a = np.array([pr.a1, pr.a1, pr.a3])
            b = np.array([pr.b1, pr.b1, pr.b3])
        rng = np.random.default_rng(21)
        for _ in range(10):
            x = rng.standard_normal(6)
            assert np.allclose(
                evaluate_field(desc.field, x), clebsch_cross_flow(a, b, x), rtol=1e-13, atol=1e-13
            )

    def test_lagrange_matches_cross_product_oracle(self):
        desc = make_system("lagrange")
        rng = np.random.default_rng(22)
        for _ in range(10):
            x = rng.standard_normal(6)
            assert np.allclose(
                evaluate_field(desc.field, x),
                lagrange_cross_flow(desc.params.alpha, desc.params.gamma, x),
                rtol=1e-13,
                atol=1e-13,
            )

    def test_first_clebsch_frozen_point(self):
        # m = 0, p = (1, 1, 0), omega = (1, 2, 3):
        # mdot = p x (omega*p) = (0, 0, 1), pdot = p x m = 0
        desc = make_system("first_clebsch")
        x = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 0.0])
        assert np.allclose(
            evaluate_field(desc.field, x), [0.0, 0.0, 1.0, 0.0, 0.0, 0.0], atol=1e-15
        )

    @pytest.mark.parametrize("kind", ("kirchhoff", "lagrange"))
    def test_third_momentum_component_is_static(self, kind):
        f = make_system(kind).field
        assert np.count_nonzero(f.quad[2]) == 0
        assert np.count_nonzero(f.lin[2]) == 0
        assert f.const[2] == 0.0

    def test_kirchhoff_field_is_a_clebsch_specialization(self):
        kir = make_system("kirchhoff")
        gen = build_system(
            "general_clebsch", ClebschParams(a=(1.0, 1.0, 2.0), b=(1.0, 1.0, 3.0))
        )
        assert np.array_equal(kir.field.quad, gen.field.quad)
        assert gen.params.beta == pytest.approx(0.5, abs=1e-15)

    def test_second_clebsch_equals_general_with_its_parameters(self):
        sec = make_system("second_clebsch")
        om = sec.params.omega
        gen = build_system(
            "general_clebsch",
            ClebschParams(a=om, b=(-om[1] * om[2], -om[2] * om[0], -om[0] * om[1])),
        )
        assert np.array_equal(sec.field.quad, gen.field.quad)

    def test_planar_field_components(self):
        desc = make_system("planar_family")
        pr = desc.params
        qa, qb, qc = pr.qform
        rng = np.random.default_rng(23)
        for _ in range(10):
            x = rng.standard_normal(3)
            ell = float(pr.ell @ x) + pr.ell0
            got = evaluate_field(desc.field, x)
            assert got[0] == pytest.approx(ell * (qb * x[0] + qc * x[1]), rel=1e-12, abs=1e-12)
            assert got[1] == pytest.approx(-ell * (qa * x[0] + qb * x[1]), rel=1e-12, abs=1e-12)
            extra = (
                pr.extra_quad[0] @ x @ x + pr.extra_lin[0] @ x + pr.extra_const[0]
            )
            assert got[2] == pytest.approx(extra, rel=1e-12, abs=1e-12)


class TestClebschCondition:
    def test_residual_zero_for_compatible_parameters(self):
        assert clebsch_condition_residual((1, 2, 3), (-6, -3, -2)) == pytest.approx(0.0, abs=1e-15)

    def test_residual_frozen_value(self):
        # (3-2)/3 + (2-1)/1 + (1-3)/2 = 1/3
        assert clebsch_condition_residual((1, 2, 3), (3, 2, 1)) == pytest.approx(1 / 3, rel=1e-14)

    def test_incompatible_parameters_rejected(self):
        with pytest.raises(ValueError, match="condition"):
            ClebschParams(a=(1, 2, 3), b=(3, 2, 1))

    def test_derived_params_frozen_example(self):
        pr = ClebschParams(a=(1.0, 2.0, 3.0), b=(-6.0, -3.0, -2.0))
        assert pr.beta == pytest.approx(1.0, abs=1e-13)
        assert np.allclose(pr.wcoef, [-1 / 6, 5 / 6, 7 / 6], atol=1e-14)
        assert not pr.degenerate

    def test_constant_a_gives_beta_zero(self):
        pr = ClebschParams(a=(1.0, 1.0, 1.0), b=(1.0, 2.0, 5.0))
        assert pr.beta == 0.0
        assert not pr.degenerate

    def test_fully_constant_parameters_flagged_degenerate(self):
        pr = ClebschParams(a=(2.0, 2.0, 2.0), b=(3.0, 3.0, 3.0))
        assert pr.degenerate

    def test_supplied_beta_must_agree(self):
        with pytest.raises(ValueError, match="beta"):
            ClebschParams(a=(1.0, 2.0, 3.0), b=(-6.0, -3.0, -2.0), beta=2.0)


class TestDecomposition:
    def test_frozen_example_both_roots(self):
        # both spectral decompositions of a = (1, 2, 3), b = (-6, -3, -2)
        for alpha, omega in ((0.0, (1.0, 2.0, 3.0)), (3.0, (-2.0, -1.0, 0.0))):
            pr = spectral_params(alpha, 1.0, omega)
            assert np.array_equal(pr.a, [1.0, 2.0, 3.0])
            assert np.array_equal(pr.b, [-6.0, -3.0, -2.0])
            assert pr.beta == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_through_assembly(self):
        # the derived beta and a = alpha + beta omega give the data back
        pr = spectral_params(0.7, 1.3, (0.3, 1.1, 2.4))
        assert pr.beta == pytest.approx(1.3, abs=1e-12)
        assert np.allclose((pr.a - 0.7) / pr.beta, [0.3, 1.1, 2.4], atol=1e-12)


class TestBuildSystem:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown system kind"):
            build_system("rigid_body", None)

    def test_general_clebsch_requires_nonzero_beta(self):
        pr = ClebschParams(a=(1.0, 1.0, 1.0), b=(1.0, 2.0, 5.0))
        with pytest.raises(ValueError, match="first_clebsch"):
            build_system("general_clebsch", pr)

    def test_params_dict_accepted(self):
        desc = build_system("lagrange", {"alpha": 2.0, "gamma": 1.0})
        assert isinstance(desc.params, LagrangeParams)

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="'omega'"):
            params_from_dict("first_clebsch", {})

    def test_unknown_field_named(self):
        with pytest.raises(ValueError, match="'spin'"):
            params_from_dict("lagrange", {"alpha": 1.0, "gamma": 1.0, "spin": 3})

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_json_round_trip(self, kind):
        desc = make_system(kind)
        rebuilt = build_system(kind, params_from_dict(kind, params_to_dict(desc.params)))
        assert rebuilt.kind == desc.kind
        assert np.array_equal(rebuilt.field.quad, desc.field.quad)
        assert np.array_equal(rebuilt.field.lin, desc.field.lin)
        assert np.array_equal(rebuilt.field.const, desc.field.const)

    def test_wronskian_coefficients(self):
        assert wronskian_coeffs(make_system("first_clebsch")) == (1.0, 1.0, 1.0)
        assert wronskian_coeffs(make_system("kirchhoff")) == (1.0, 1.0, 3.0)  # 2*a3/a1 - 1
        assert wronskian_coeffs(make_system("lagrange")) == (1.0, 1.0, 3.0)  # 2*alpha - 1
        gen = make_system("general_clebsch")
        assert wronskian_coeffs(gen) == pytest.approx(tuple(gen.params.wcoef))

    def test_declared_names(self):
        first = make_system("first_clebsch")
        assert first.integral_names[:3] == ("I0", "J0", "K")
        assert first.density_names == ("C0", "J0_den")
        kir = make_system("kirchhoff")
        assert "m3" in kir.conserved_names
        assert make_system("planar_family").integral_names == ("F", "Fhat")


class TestContinuousConservation:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_all_declared_invariants_are_flow_constant(self, kind):
        desc = make_system(kind)
        inv = invariants(desc)
        assert "H" in inv
        rng = np.random.default_rng(24)
        for _ in range(6):
            x = unit_ball(rng, desc.dim)
            xdot = evaluate_field(desc.field, x)
            for name, fn in inv.items():
                drift = float(np.dot(central_gradient(fn, x), xdot))
                assert abs(drift) < 1e-8, (kind, name, drift)

    def test_perturbed_field_breaks_the_spectral_pair(self):
        # negative control: one wrong quadratic coefficient in the field,
        # and H1 or H2 drifts by orders of magnitude past the 1e-8 bound
        desc = make_system("kirchhoff")
        quad = desc.field.quad.copy()
        quad[0, 1, 2] += 0.5
        quad[0, 2, 1] += 0.5
        bent = replace(desc.field, quad=quad)
        inv = invariants(desc)
        rng = np.random.default_rng(24)
        states = [unit_ball(rng, 6) for _ in range(6)]
        drift = max(
            abs(central_gradient(inv[name], x) @ evaluate_field(bent, x))
            for x in states
            for name in ("H1", "H2")
        )
        assert drift > 1e-3

    def test_general_clebsch_has_spectral_pair(self):
        assert {"H1", "H2"} <= invariants(make_system("general_clebsch")).keys()

    def test_lagrange_h1_frozen_value(self):
        inv = invariants(make_system("lagrange"))
        x = np.array([1.0, 0.0, 2.0, 0.0, 0.0, 0.5])
        # m1^2 + m2^2 + alpha m3^2 + 2 gamma p3 with alpha=2, gamma=1
        assert inv["lagrangeH1"](x) == pytest.approx(1 + 8 + 1, abs=1e-14)
        assert inv["H"](x) == pytest.approx(5.0, abs=1e-14)

    def test_first_clebsch_frozen_values(self):
        inv = invariants(make_system("first_clebsch"))
        x = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
        assert inv["H1"](x) == pytest.approx(3.0, abs=1e-14)
        assert inv["H2"](x) == pytest.approx(-2.0, abs=1e-14)
        assert inv["K1"](x) == 1.0
        assert inv["K2"](x) == 0.0


class TestWronskianRelation:
    @pytest.mark.parametrize("kind", SIX_DIM_KINDS)
    def test_continuous_relation_holds(self, kind):
        desc = make_system(kind)
        rng = np.random.default_rng(25)
        for _ in range(20):
            x = rng.standard_normal(6)
            xdot = evaluate_field(desc.field, x)
            scale = 1.0 + float(
                np.max(np.abs(wronskian_coeffs(desc)))
                * np.max(np.abs(xdot[:3] * x[3:]) + np.abs(x[:3] * xdot[3:]))
            )
            assert abs(wronskian_residual(desc, x)) <= 1e-13 * scale


class TestPoissonBracket:
    def test_coordinate_bracket_frozen(self):
        # {m1, m2} = m3 on e(3)*
        x = np.array([0.3, -0.7, 1.9, 0.2, 0.4, -0.5])
        val = bracket(lambda y: y[0], lambda y: y[1], x)
        assert val == pytest.approx(1.9, abs=1e-9)
        val = bracket(lambda y: y[0], lambda y: y[4], x)  # {m1, p2} = p3
        assert val == pytest.approx(-0.5, abs=1e-9)

    def test_antisymmetry(self):
        inv = invariants(make_system("first_clebsch"))
        rng = np.random.default_rng(26)
        x = rng.standard_normal(6)
        ab = bracket(inv["H1"], inv["H2"], x)
        ba = bracket(inv["H2"], inv["H1"], x)
        assert ab == pytest.approx(-ba, abs=1e-9)

    @pytest.mark.parametrize("kind", SIX_DIM_KINDS)
    def test_casimirs_commute_with_everything(self, kind):
        desc = make_system(kind)
        inv = invariants(desc)
        rng = np.random.default_rng(27)
        for _ in range(4):
            x = unit_ball(rng, 6)
            for fn in inv.values():
                assert abs(bracket(inv["K1"], fn, x)) < 1e-6
                assert abs(bracket(inv["K2"], fn, x)) < 1e-6

    @pytest.mark.parametrize("kind", ("general_clebsch", "first_clebsch", "second_clebsch", "kirchhoff"))
    def test_spectral_pair_commutes(self, kind):
        inv = invariants(make_system(kind))
        rng = np.random.default_rng(28)
        for _ in range(4):
            x = unit_ball(rng, 6)
            assert abs(bracket(inv["H1"], inv["H2"], x)) < 1e-6
            assert abs(bracket(inv["H"], inv["H1"], x)) < 1e-6

    def test_non_commuting_pair_detected(self):
        # negative control: {m1, m2} is not zero away from m3 = 0
        x = np.array([0.1, 0.2, 1.0, 0.0, 0.1, 0.3])
        assert abs(bracket(lambda y: y[0], lambda y: y[1], x)) > 0.5


class TestParamValidation:
    def test_kirchhoff_a1_nonzero(self):
        with pytest.raises(ValueError, match="a1"):
            KirchhoffParams(a1=0.0, a3=1.0, b1=0.0, b3=1.0)

    def test_second_clebsch_omega_nonzero(self):
        with pytest.raises(ValueError, match="omega"):
            SecondClebschParams(omega=(0.0, 1.0, 2.0))

    def test_first_clebsch_omega_shape(self):
        with pytest.raises(ValueError, match="omega"):
            FirstClebschParams(omega=(1.0, 2.0))

    def test_planar_extra_symmetry_enforced(self):
        bad = np.zeros((1, 3, 3))
        bad[0, 0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            PlanarFamilyParams(qform=(1, 0, 1), ell=(1, 0, 0), extra_quad=bad)

    def test_non_finite_beta_and_ell0_rejected(self):
        with pytest.raises(ValueError, match="beta must be finite"):
            ClebschParams(a=(1.0, 1.0, 2.0), b=(1.0, 1.0, 3.0), beta=np.nan)
        with pytest.raises(ValueError, match="ell0 must be finite"):
            PlanarFamilyParams(qform=(1, 0.5, 2), ell=(1, -1), ell0=np.inf)

    def test_planar_dim(self):
        assert make_params("planar_family").dim == 3
