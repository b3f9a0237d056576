"""Map-level conserved quantities: frozen substitution values, conservation
along orbits, preserved densities against the map Jacobian determinant, the
one-step bilinear identities, and the polarization substitution."""

import numpy as np
import pytest
from conftest import ALL_KINDS, SIX_DIM_KINDS, make_system, safe_state, unit_ball

import kahanmaps.integrals as integrals
from kahanmaps.integrals import (
    DenominatorZeroError,
    IntegralSuiteResult,
    QuadraticEpsPolynomial,
    denominator_witnesses,
    eval_G,
    eval_I0,
    eval_J0,
    eval_K,
    eval_coeffs,
    eval_density,
    eval_g,
    eval_planar_F,
    eval_suite,
    evaluate_named,
    measure_hypothesis_check,
    polarize_integral,
)
from kahanmaps.quadfield import kahan_step, map_jacobian
from kahanmaps.systems import (
    FirstClebschParams,
    KirchhoffParams,
    LagrangeParams,
    PlanarFamilyParams,
    build_system,
)


class TestFrozenValues:
    def test_first_clebsch_I0_single_axis(self):
        desc = make_system("first_clebsch")
        x = np.array([0.4, -0.2, 0.9, 1.0, 0.0, 0.0])
        # p = (1,0,0): I0 = 1 / (1 - eps^2 * w1)
        assert eval_I0(desc, x, 0.1) == pytest.approx(1.0 / 0.99, rel=1e-14)

    def test_I0_at_eps_zero_is_first_casimir(self):
        desc = make_system("first_clebsch")
        rng = np.random.default_rng(31)
        x = rng.standard_normal(6)
        assert eval_I0(desc, x, 0.0) == pytest.approx(float(np.sum(x[3:] ** 2)), rel=1e-14)

    def test_coeffs_at_eps_zero(self):
        desc = make_system("first_clebsch")
        x = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        vec = eval_coeffs(desc, x, 0.0, "small_c")
        assert np.allclose(vec[:3], 1.0, atol=1e-15)
        assert vec[3] == pytest.approx(float(np.sum(x[3:] ** 2)), rel=1e-14)

    def test_kirchhoff_axis_point(self):
        desc = build_system("kirchhoff", KirchhoffParams(a1=1.0, a3=2.0, b1=0.0, b3=0.0))
        x = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        c1, c3 = eval_coeffs(desc, x, 0.1, "small_c")
        assert c1 == pytest.approx(1.0 - 2 * 0.01, abs=1e-15)  # 1 + eps^2 a3 (a1-a3) m3^2
        assert c3 == pytest.approx(3.0, abs=1e-15)              # 2 a3/a1 - 1

    def test_lagrange_axis_point(self):
        desc = make_system("lagrange")  # alpha=2, gamma=1
        x = np.array([0.0, 0.0, 0.5, 0.0, 0.0, 0.25])
        r, s = eval_coeffs(desc, x, 0.1, "small_c")
        assert r == pytest.approx(3.0, abs=1e-15)
        assert s == pytest.approx(1.0 - 2 * 0.01 * 0.25 - 0.01 * 0.25, abs=1e-15)

    def test_planar_unit_circle_point(self):
        pr = PlanarFamilyParams(qform=(1.0, 0.0, 1.0), ell=(0.0, 0.0), ell0=1.0)
        x = np.array([1.0, 0.0])
        assert eval_planar_F(pr, x, 0.1, "F") == pytest.approx(1.0 / 1.01, rel=1e-14)

    def test_K_at_eps_zero_is_casimir_ratio(self):
        rng = np.random.default_rng(32)
        x = unit_ball(rng, 6)
        m, p = x[:3], x[3:]
        expected = float(np.dot(m, p) / np.dot(p, p) ** 2)
        assert eval_K(x, 0.0, (1.0, 2.0, 3.0)) == pytest.approx(expected, rel=1e-12)

    def test_g_and_G_first_clebsch(self):
        desc = make_system("first_clebsch")
        rng = np.random.default_rng(33)
        x = unit_ball(rng, 6)
        xt = kahan_step(desc.field, x, 0.05).next
        assert np.allclose(eval_g(desc, x), x[3:] ** 2, atol=1e-15)
        assert np.allclose(eval_G(desc, x, xt), x[3:] * xt[3:], atol=1e-15)


class TestDenominatorZeros:
    def test_first_clebsch_exact_pole(self):
        desc = make_system("first_clebsch")  # omega = (1, 2, 3)
        x = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        with pytest.raises(DenominatorZeroError):
            eval_I0(desc, x, 1.0)  # 1 - 1*1*1 = 0

    def test_lagrange_equator_rejected(self):
        desc = make_system("lagrange")
        x = np.array([0.1, 0.2, 0.0, 0.3, 0.4, 0.5])
        with pytest.raises(DenominatorZeroError, match="m3"):
            eval_I0(desc, x, 0.05)

    def test_witnesses_flag_small_m3(self):
        desc = make_system("lagrange")
        x = np.array([0.1, 0.2, 1e-9, 0.3, 0.4, 0.5])
        assert min(denominator_witnesses(desc, x, 0.05)) < 1e-6


class TestConservation:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_all_declared_quantities_conserved(self, kind):
        desc = make_system(kind)
        rng = np.random.default_rng(34)
        eps = 0.05
        x = safe_state(rng, desc, eps)
        ref = {name: evaluate_named(desc, name, x, eps) for name in desc.conserved_names}
        xk = x
        for _ in range(100):
            xk = kahan_step(desc.field, xk, eps).next
            for name, v0 in ref.items():
                v = evaluate_named(desc, name, xk, eps)
                assert abs(v - v0) <= 1e-11 * (1 + abs(v0)), (kind, name)

    def test_nonconserved_quantity_drifts(self):
        # negative control: a raw coordinate moves by orders more than the bound
        desc = make_system("first_clebsch")
        rng = np.random.default_rng(35)
        x = safe_state(rng, desc)
        xk = x
        for _ in range(100):
            xk = kahan_step(desc.field, xk, 0.05).next
        assert abs(xk[0] - x[0]) > 1e-6

    @pytest.mark.parametrize("kind", ("kirchhoff", "lagrange"))
    def test_m3_exactly_preserved_stepwise(self, kind):
        desc = make_system(kind)
        rng = np.random.default_rng(36)
        x = safe_state(rng, desc)
        xk = x
        for _ in range(50):
            xn = kahan_step(desc.field, xk, 0.05).next
            assert abs(xn[2] - xk[2]) <= 1e-14
            xk = xn


class TestDensities:
    @pytest.mark.parametrize("kind", SIX_DIM_KINDS)
    def test_density_ratio_equals_map_jacobian_determinant(self, kind):
        desc = make_system(kind)
        rng = np.random.default_rng(37)
        eps = 0.05
        for name in desc.density_names:
            x = safe_state(rng, desc, eps)
            for _ in range(15):
                xn = kahan_step(desc.field, x, eps).next
                ratio = eval_density(desc, xn, eps, name) / eval_density(desc, x, eps, name)
                det = float(np.linalg.det(map_jacobian(desc.field, x, eps)))
                assert abs(ratio - det) <= 1e-10 * (1 + abs(det)), (kind, name)
                x = xn

    def test_non_density_quantity_fails_ratio_test(self):
        # negative control: c0 (state-only Casimir-like numerator without the
        # Delta factor's partner) does not transform with det dPhi
        desc = make_system("first_clebsch")
        rng = np.random.default_rng(38)
        eps = 0.1
        x = safe_state(rng, desc, eps)
        worst = 0.0
        for _ in range(10):
            xn = kahan_step(desc.field, x, eps).next
            fake = lambda y: evaluate_named(desc, "c0", y, eps)
            ratio = fake(xn) / fake(x)
            det = float(np.linalg.det(map_jacobian(desc.field, x, eps)))
            worst = max(worst, abs(ratio - det))
            x = xn
        assert worst > 1e-6

    def test_undeclared_density_rejected(self):
        desc = make_system("first_clebsch")
        with pytest.raises(ValueError, match="not a declared density"):
            eval_density(desc, np.zeros(6), 0.05, "C2")


class TestOneStepIdentities:
    def test_four_bilinear_identities(self):
        desc = make_system("first_clebsch")
        rng = np.random.default_rng(39)
        eps = 0.1
        for _ in range(100):
            x = unit_ball(rng, 6)
            xt = kahan_step(desc.field, x, eps).next
            c = eval_coeffs(desc, x, eps, "small_c")[:3]
            ct = eval_coeffs(desc, xt, eps, "small_c")[:3]
            C = eval_coeffs(desc, x, eps, "big_C")[:3]
            m, p, mt, pt = x[:3], x[3:], xt[:3], xt[3:]
            pairs = (
                (np.dot(c, mt * p), np.dot(C, m * p)),
                (np.dot(c, m * pt), np.dot(C, m * p)),
                (np.dot(ct, m * pt), np.dot(C, mt * pt)),
                (np.dot(ct, mt * p), np.dot(C, mt * pt)),
            )
            for lhs, rhs in pairs:
                assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + abs(rhs) + 1)

    def test_identities_fail_for_wrong_coefficients(self):
        # negative control: perturbing one coefficient breaks the identity
        desc = make_system("first_clebsch")
        rng = np.random.default_rng(40)
        eps = 0.1
        x = unit_ball(rng, 6)
        xt = kahan_step(desc.field, x, eps).next
        c = eval_coeffs(desc, x, eps, "small_c")[:3] + np.array([1e-3, 0.0, 0.0])
        C = eval_coeffs(desc, x, eps, "big_C")[:3]
        m, p, mt, pt = x[:3], x[3:], xt[:3], xt[3:]
        assert abs(np.dot(c, mt * p) - np.dot(C, m * p)) > 1e-9


class TestCoefficientStructure:
    @pytest.mark.parametrize("kind", ("general_clebsch", "second_clebsch"))
    def test_ratio_definitions(self, kind):
        desc = make_system(kind)
        rng = np.random.default_rng(41)
        x = safe_state(rng, desc)
        eps = 0.07
        small = eval_coeffs(desc, x, eps, "small_c")
        assert evaluate_named(desc, "c2", x, eps) == pytest.approx(float(small[1]), rel=1e-14)

    def test_kirchhoff_I0_is_coefficient_ratio(self):
        desc = make_system("kirchhoff")
        rng = np.random.default_rng(42)
        x = safe_state(rng, desc)
        c1, c3 = eval_coeffs(desc, x, 0.05, "small_c")
        assert eval_I0(desc, x, 0.05) == pytest.approx(c3 / c1, rel=1e-14)

    def test_first_clebsch_closed_form(self):
        # the coefficient vectors are projectively [1 + eps^2 w_i V : V] with
        # V = I0 (state-only) and [1 - eps^2 w_i V : V] with V = J0 (bilinear):
        # c_i V = (1 + eps^2 w_i V) c0 and C_i V = (1 - eps^2 w_i V) C0, to 1e-11
        desc = make_system("first_clebsch")
        omega = desc.params.omega
        eps = 0.12
        rng = np.random.default_rng(43)
        for _ in range(20):
            x = unit_ball(rng, 6)
            for coeff_kind, value, sign in (
                ("small_c", eval_I0(desc, x, eps), 1.0),
                ("big_C", eval_J0(desc, x, eps), -1.0),
            ):
                vec = eval_coeffs(desc, x, eps, coeff_kind)
                for ci, wi in zip(vec[:3], omega):
                    lhs = ci * value
                    rhs = (1.0 + sign * eps * eps * wi * value) * vec[3]
                    assert abs(lhs - rhs) <= 1e-11 * (abs(lhs) + abs(rhs) + 1.0), coeff_kind

    def test_invalid_kind_argument(self):
        desc = make_system("first_clebsch")
        with pytest.raises(ValueError, match="small_c"):
            eval_coeffs(desc, np.zeros(6), 0.05, "medium")

    def test_planar_has_no_coefficients(self):
        with pytest.raises(ValueError):
            eval_coeffs(make_system("planar_family"), np.zeros(3), 0.05)


class TestPlanarFamily:
    def test_Fhat_equals_F_along_orbit(self):
        # the bilinear form on (x, x~) equals the state-only form at x,
        # pointwise along the orbit
        desc = make_system("planar_family")
        rng = np.random.default_rng(44)
        eps = 0.05
        x = safe_state(rng, desc, eps)
        for _ in range(50):
            fh = eval_planar_F(desc, x, eps, "Fhat")
            fx = eval_planar_F(desc, x, eps, "F")
            assert abs(fh - fx) <= 1e-12 * (1 + abs(fx))
            x = kahan_step(desc.field, x, eps).next

    def test_indefinite_form_also_conserved(self):
        # the shared instance is definite; the claim covers ac - b^2 < 0 too,
        # where orbits run out along hyperbola branches before turning
        pr = PlanarFamilyParams(qform=(1.0, 0.2, -2.0), ell=(0.5, -0.3), ell0=1.0)
        desc = build_system("planar_family", pr)
        rng = np.random.default_rng(45)
        x = unit_ball(rng, 2)
        f0 = eval_planar_F(pr, x, 0.1, "F")
        for _ in range(30):
            x = kahan_step(desc.field, x, 0.1).next
            assert eval_planar_F(pr, x, 0.1, "F") == pytest.approx(f0, rel=1e-12)

    def test_variant_validated(self):
        with pytest.raises(ValueError, match="variant"):
            eval_planar_F(make_system("planar_family").params, np.zeros(3), 0.05, "G")

    def test_system_built_once_per_params_object(self, monkeypatch):
        calls = []

        def counting_build(kind, params):
            calls.append(kind)
            return build_system(kind, params)

        monkeypatch.setattr(integrals, "build_system", counting_build)
        pr = PlanarFamilyParams(qform=(1.0, 0.2, -2.0), ell=(0.5, -0.3), ell0=1.0)
        x = np.array([0.1, -0.2])
        values = [eval_planar_F(pr, x, 0.05, variant) for variant in ("F", "Fhat") * 10]
        assert calls == ["planar_family"]
        assert values[::2] == [values[0]] * 10
        twin = PlanarFamilyParams(qform=(1.0, 0.2, -2.0), ell=(0.5, -0.3), ell0=1.0)
        assert eval_planar_F(twin, x, 0.05, "F") == values[0]
        assert len(calls) == 2


class TestPolarizeSubstitution:
    def test_first_clebsch_I0_polarizes_to_J0(self):
        desc = make_system("first_clebsch")
        om = desc.params.omega
        # numerator p.p and denominator 1 - eps^2 sum(w p^2) as coefficient tables
        num_quad = np.zeros((6, 6, 1))
        for i in range(3):
            num_quad[3 + i, 3 + i, 0] = 1.0
        num = QuadraticEpsPolynomial(num_quad, np.zeros((6, 1)), np.array([0.0]))
        den_quad = np.zeros((6, 6, 2))
        for i in range(3):
            den_quad[3 + i, 3 + i, 1] = -om[i]
        den = QuadraticEpsPolynomial(den_quad, np.zeros((6, 2)), np.array([1.0, 0.0]))
        rng = np.random.default_rng(46)
        eps = 0.08
        for _ in range(10):
            x = safe_state(rng, desc, eps)
            xt = kahan_step(desc.field, x, eps).next
            assert num.value(x, eps) / den.value(x, eps) == pytest.approx(
                eval_I0(desc, x, eps), rel=1e-13
            )
            jhat = polarize_integral(num, x, xt, eps) / polarize_integral(den, x, xt, eps)
            assert jhat == pytest.approx(eval_J0(desc, x, eps), rel=1e-12)

    def test_planar_F_polarizes_to_Fhat(self):
        pr = PlanarFamilyParams(qform=(1.0, 0.5, -2.0), ell=(1.0, -1.0), ell0=0.2)
        desc = build_system("planar_family", pr)
        qa, qb, qc = pr.qform
        disc = qa * qc - qb * qb
        num_quad = np.zeros((2, 2, 1))
        num_quad[:, :, 0] = [[qa, qb], [qb, qc]]
        num = QuadraticEpsPolynomial(num_quad, np.zeros((2, 1)), np.array([0.0]))
        # 1 + eps^2 disc (l.x + l0)^2 expanded into quad/lin/const eps^2 slots
        den_quad = np.zeros((2, 2, 2))
        den_quad[:, :, 1] = disc * np.outer(pr.ell, pr.ell)
        den_lin = np.zeros((2, 2))
        den_lin[:, 1] = disc * 2.0 * pr.ell0 * pr.ell
        den = QuadraticEpsPolynomial(den_quad, den_lin, np.array([1.0, disc * pr.ell0**2]))
        rng = np.random.default_rng(47)
        eps = 0.06
        x = unit_ball(rng, 2)
        xt = kahan_step(desc.field, x, eps).next
        assert num.value(x, eps) / den.value(x, eps) == pytest.approx(
            eval_planar_F(pr, x, eps, "F"), rel=1e-13
        )
        fhat = polarize_integral(num, x, xt, eps) / polarize_integral(den, x, xt, eps)
        assert fhat == pytest.approx(eval_planar_F(pr, x, eps, "Fhat"), rel=1e-12)

    def test_polarize_is_symmetric_in_the_pair(self):
        rng = np.random.default_rng(48)
        quad = rng.standard_normal((3, 3, 2))
        quad = 0.5 * (quad + quad.swapaxes(0, 1))
        P = QuadraticEpsPolynomial(quad, rng.standard_normal((3, 2)), rng.standard_normal(2))
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        assert polarize_integral(P, x, y, 0.3) == pytest.approx(
            polarize_integral(P, y, x, 0.3), rel=1e-13
        )

    def test_diagonal_polarization_flips_eps_square(self):
        rng = np.random.default_rng(49)
        quad = rng.standard_normal((2, 2, 3))
        quad = 0.5 * (quad + quad.swapaxes(0, 1))
        P = QuadraticEpsPolynomial(quad, rng.standard_normal((2, 3)), rng.standard_normal(3))
        x = rng.standard_normal(2)
        # on the diagonal the substitution only flips the sign of eps^2
        s = 0.25
        direct = polarize_integral(P, x, x, 0.5)
        powers = np.array([1.0, -s, s * s])
        expected = float(
            np.einsum("ijk,i,j,k->", P.quad, x, x, powers)
            + np.einsum("ik,i,k->", P.lin, x, powers)
            + np.dot(P.const, powers)
        )
        assert direct == pytest.approx(expected, rel=1e-13)

    def test_malformed_coefficient_tables_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            bad = np.zeros((2, 2, 1))
            bad[0, 1, 0] = 1.0
            QuadraticEpsPolynomial(bad, np.zeros((2, 1)), np.zeros(1))
        with pytest.raises(ValueError, match="shape"):
            QuadraticEpsPolynomial(np.zeros((2, 2, 1)), np.zeros((3, 1)), np.zeros(1))


class TestMeasureHypotheses:
    def test_bilinear_casimir_passes(self):
        desc = make_system("first_clebsch")
        phat = lambda u, v, e: float(np.dot(u[3:], v[3:]))
        rng = np.random.default_rng(50)
        x = safe_state(rng, desc)
        rep = measure_hypothesis_check(desc, phat, x, 0.05)
        assert rep.passed
        assert rep.symmetry_violation <= rep.tolerance
        assert rep.parity_violation <= rep.tolerance

    def test_J0_denominator_passes(self):
        desc = make_system("first_clebsch")
        om = desc.params.omega
        phat = lambda u, v, e: 1.0 + e * e * float(np.dot(om, u[3:] * v[3:]))
        rng = np.random.default_rng(51)
        x = safe_state(rng, desc)
        assert measure_hypothesis_check(desc, phat, x, 0.05).passed

    def test_asymmetric_expression_fails(self):
        desc = make_system("first_clebsch")
        phat = lambda u, v, e: float(u[0] * v[1])
        rng = np.random.default_rng(52)
        x = safe_state(rng, desc)
        rep = measure_hypothesis_check(desc, phat, x, 0.05)
        assert not rep.passed
        assert rep.symmetry_violation > rep.tolerance

    def test_odd_eps_term_fails_parity(self):
        desc = make_system("first_clebsch")
        phat = lambda u, v, e: float(np.dot(u[3:], v[3:])) + e * float(u[0] * v[0] + v[0] * u[0])
        rng = np.random.default_rng(53)
        x = safe_state(rng, desc)
        rep = measure_hypothesis_check(desc, phat, x, 0.05)
        assert rep.parity_violation > rep.tolerance


class TestSuiteAndNames:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_suite_covers_declared_names(self, kind):
        desc = make_system(kind)
        rng = np.random.default_rng(54)
        x = safe_state(rng, desc)
        res = eval_suite(desc, x, 0.05)
        assert isinstance(res, IntegralSuiteResult)
        assert res.names[: len(desc.integral_names)] == desc.integral_names
        for d in desc.density_names:
            assert f"density_{d}" in res.names
        assert all(np.isfinite(v) for v in res.values)
        assert res.as_dict()["I0" if kind != "planar_family" else "F"] == res.values[0]

    def test_unknown_name_rejected(self):
        desc = make_system("first_clebsch")
        with pytest.raises(ValueError, match="'Q7'"):
            evaluate_named(desc, "Q7", np.zeros(6), 0.05)

    def test_m3_and_ratio_names(self):
        desc = make_system("kirchhoff")
        rng = np.random.default_rng(55)
        x = safe_state(rng, desc)
        assert evaluate_named(desc, "m3", x, 0.05) == x[2]
        c1, c3 = eval_coeffs(desc, x, 0.05, "small_c")
        assert evaluate_named(desc, "c3/c1", x, 0.05) == pytest.approx(c3 / c1, rel=1e-14)
