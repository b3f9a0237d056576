"""Acceptance battery: one test per top-level claim, tolerances pinned.

Each test draws seeded trials, so reruns are reproducible; `pytest -v` gives
one pass/fail line per criterion.
"""

import json

import numpy as np
import pytest

from conftest import ALL_KINDS, OMEGA, SIX_DIM_KINDS, make_system, safe_state, step_defect
from continuous import bracket, invariants, wronskian_residual
from exact_clebsch import clebsch_from_decomposition, exact_rank
from kahanmaps import verify
from kahanmaps.cli import parse_config, run_command
from kahanmaps.hkbasis import (
    WronskianBasisSpec,
    _unit_gradients,
    conjugate_pairs,
    functional_rank,
    hk_nullspace,
    iterate_orbit,
    wronskian_ratio_integral,
)
from kahanmaps.integrals import (
    DenominatorZeroError,
    KahanPair,
    denominator_witnesses,
    eval_I0,
    evaluate_named,
)
from kahanmaps.quadfield import SingularStepError, kahan_orbit, kahan_step, map_jacobian
from kahanmaps.systems import PlanarFamilyParams, build_system
from kahanmaps.verify import (
    check_conservation,
    check_identities_clebsch1,
    check_measure,
    check_reversibility,
)


def normalized(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    return vec / vec[np.argmax(np.abs(vec))]


def test_criterion_01_step_contract_and_reversibility():
    # defining-equation residual <= 1e-12 * scale and forward/backward
    # composition <= 1e-10 relative, 500 trials per system and eps; the
    # trials are drawn as verify draws its trials, one generator block per
    # round, as one stack holding their steps
    for kind in ALL_KINDS:
        desc = make_system(kind)
        for eps in (0.01, 0.05, 0.2):
            pair = verify._draw_states([np.random.default_rng(101)], desc, eps, 500)
            x, x_next = pair.x, pair.step.next
            stepped = ~pair.step.pole
            scale = 1.0 + np.abs(x).max(axis=-1) + np.abs(x_next).max(axis=-1)
            defect = step_defect(desc.field, x, x_next, eps)
            assert (defect[stepped] <= 1e-12 * scale[stepped]).all(), (kind, eps, np.max(defect / scale))
            report = check_reversibility(desc, trials=500, eps=eps, seed=102)
            assert report.passed, (kind, eps, report.max_violation)


def test_criterion_02_jacobian_determinant_identity():
    # det dPhi(x) * Delta(x; eps) = Delta(x~; -eps) to 1e-11 * scale, 500
    # trials per system drawn as one stack
    for kind in ALL_KINDS:
        desc = make_system(kind)
        eps = 0.05
        pair = verify._draw_states([np.random.default_rng(103)], desc, eps, 500)
        stepped = ~pair.step.pole
        x, x_next = pair.x[stepped], pair.step.next[stepped]
        det = np.linalg.det(map_jacobian(desc.field, x, eps, x_next))
        lhs = det * pair.step.delta[stepped]
        rhs = kahan_orbit(desc.field, x_next, -eps, 1).delta[0]
        scale = 1.0 + np.abs(lhs) + np.abs(rhs)
        assert (np.abs(lhs - rhs) <= 1e-11 * scale).all(), (kind, np.max(np.abs(lhs - rhs)))


def test_criterion_03_conservation_along_orbits():
    # every declared conserved quantity drifts <= 1e-8 relative over 1000
    # steps at eps 0.05; the axis component is exact per step for the two
    # axially symmetric systems
    for kind in ALL_KINDS:
        desc = make_system(kind)
        for name in desc.conserved_names:
            report = check_conservation(desc, name, steps=1000, eps=0.05, seed=104)
            assert report.passed, (kind, name, report.max_violation)
    for kind in ("kirchhoff", "lagrange"):
        desc = make_system(kind)
        x = safe_state(np.random.default_rng(105), desc)
        for _ in range(1000):
            x_next = kahan_step(desc.field, x, 0.05).next
            assert abs(x_next[2] - x[2]) <= 1e-14, kind
            x = x_next


def test_criterion_04_invariant_measure_densities():
    # density(x~)/density(x) matches det dPhi to 1e-10 relative, 500 trials
    # for every declared density
    for kind in ALL_KINDS:
        desc = make_system(kind)
        for density in desc.density_names:
            report = check_measure(desc, density, trials=500, eps=0.05, seed=106)
            assert report.passed, (kind, density, report.max_violation)


def test_criterion_05_first_clebsch_identities_and_closed_forms():
    # the four one-step identities hold to 1e-12 * scale at 1000 random
    # pairs; the coefficient vectors match their closed projective forms
    # (1 + eps^2 w_i V : V) to 1e-11 after normalization
    desc = make_system("first_clebsch")
    report = check_identities_clebsch1(desc, trials=1000, eps=0.1, seed=107)
    assert report.passed, report.max_violation

    omega = np.asarray(OMEGA, dtype=float)
    rng = np.random.default_rng(108)
    eps = 0.1
    pair = KahanPair(desc, [safe_state(rng, desc, eps) for _ in range(200)], eps)
    small, big = pair.coefficients("small_c"), pair.coefficients("big_C")
    i0, j0 = pair.value("I0"), pair.value("J0")
    for row in range(200):
        small_closed = np.append(1.0 + eps * eps * omega * i0.item(row), i0.item(row))
        big_closed = np.append(1.0 - eps * eps * omega * j0.item(row), j0.item(row))
        assert normalized(small.item(row)) == pytest.approx(normalized(small_closed), rel=1e-11)
        assert normalized(big.item(row)) == pytest.approx(normalized(big_closed), rel=1e-11)


def test_criterion_06_wronskian_null_spaces():
    # one-dimensional null space with spectral gap >= 1e6 for orders 1..4 on
    # the two special Clebsch cases and 1..3 on the axially symmetric pair;
    # order-1/2 vectors match the coefficient formulas to 1e-8
    eps = 0.05
    pairs = conjugate_pairs(6)
    window = 10
    for kind, orders in (
        ("first_clebsch", (1, 2, 3, 4)),
        ("second_clebsch", (1, 2, 3, 4)),
        ("kirchhoff", (1, 2, 3)),
        ("lagrange", (1, 2, 3)),
    ):
        desc = make_system(kind)
        x0 = safe_state(np.random.default_rng(109), desc, eps)
        for order in orders:
            observables = WronskianBasisSpec(order=order, pairs=pairs).observables()
            orbit = iterate_orbit(desc.field, x0, eps, window - 1 + order)
            report = hk_nullspace(orbit, observables, window)
            assert report.null_dim == 1, (kind, order)
            assert report.gap_ratio >= 1e6, (kind, order, report.gap_ratio)
            if order in (1, 2):
                coeff_kind = "small_c" if order == 1 else "big_C"
                coeffs = KahanPair(desc, x0[None], eps).coefficients(coeff_kind).item(0)
                if kind == "kirchhoff":
                    # ratio c3/c1: vector proportional to (c1, c1, c3)
                    expected = np.array([coeffs[0], coeffs[0], coeffs[1]])
                elif kind == "lagrange":
                    # ratio r/s: vector proportional to (s, s, r)
                    expected = np.array([coeffs[1], coeffs[1], coeffs[0]])
                else:
                    expected = coeffs[:3]
                got = normalized(report.coeff_vectors[0])
                assert got == pytest.approx(normalized(expected), rel=1e-8), (
                    kind,
                    order,
                )


def test_criterion_07_functional_independence_rank_four():
    # gradient rank 4 at 20 of 30 random shell points for each quadruple
    # that can hold four independent integrals. J1, J2 are the ratios
    # v1/v3, v2/v3 of the order-3 conjugate-pair Wronskian null vector and
    # J3, J4 the same ratios at order 4. Each order adds exactly one
    # integral independent of I0 and J0, so I0, J0 with both ratios of one
    # order have rank 3 identically (exact ranks over Q in
    # test_criterion_07_exact_rank_certificate); a full set of integrals
    # draws on two Wronskian orders. The two same-order sets must report
    # rank 3 at 20 of 30 points, which keeps that relation visible.
    eps = 0.4
    window = 16
    budget = 30
    needed = 20
    max_draws = 100

    gen = make_system("general_clebsch")
    i0 = lambda y: eval_I0(gen, y, eps)
    j0 = lambda y: KahanPair(gen, y[None], eps).value("J0").item(0)
    j1, j2, j3, j4 = (
        wronskian_ratio_integral(gen.field, eps, ell, num, 2, window=window)
        for ell in (3, 4)
        for num in (0, 1)
    )
    kir = make_system("kirchhoff")
    kir_set = [
        lambda y: eval_I0(kir, y, eps),
        lambda y: KahanPair(kir, y[None], eps).value("J0").item(0),
        wronskian_ratio_integral(kir.field, eps, 3, 2, 0, window=window),
        lambda y: float(y[2]),
    ]
    lag = make_system("lagrange")
    lag_set = [
        lambda y: eval_I0(lag, y, eps),
        lambda y: KahanPair(lag, y[None], eps).value("J0").item(0),
        wronskian_ratio_integral(lag.field, eps, 3, 2, 0, window=window),
        lambda y: float(y[2]),
    ]
    probes = (
        ("I0,J0,J1,J3", gen, [i0, j0, j1, j3], 4),
        ("I0,J0,J2,J4", gen, [i0, j0, j2, j4], 4),
        ("J1,J2,J3,J4", gen, [j1, j2, j3, j4], 4),
        ("kirchhoff I0,J0,J1,m3", kir, kir_set, 4),
        ("lagrange I0,J0,J1,m3", lag, lag_set, 4),
        ("I0,J0,J1,J2", gen, [i0, j0, j1, j2], 3),
        ("I0,J0,J3,J4", gen, [i0, j0, j3, j4], 3),
    )

    def draw_shell(rng, desc):
        # stay off the origin: near it every integral's gradient shrinks
        # together and the rank probe loses its signal
        worst = (np.inf, None)
        for _ in range(max_draws):
            v = rng.standard_normal(desc.dim)
            x = v * (rng.uniform(0.4, 1.0) / float(np.linalg.norm(v)))
            witnesses = denominator_witnesses(desc, x, eps)
            if min(witnesses) >= 1e-6:
                return x
            worst = min(worst, (min(witnesses), int(np.argmin(witnesses))))
        pytest.fail(
            f"no {desc.kind} state with every denominator witness >= 1e-6 in "
            f"{max_draws} draws; binding witness: denominator_witnesses[{worst[1]}] "
            f"reached {worst[0]:.3e}"
        )

    counts = {}
    for label, desc, fns, rank in probes:
        rng = np.random.default_rng(110)
        hits = 0
        for _ in range(budget):
            x = draw_shell(rng, desc)
            try:
                if functional_rank(fns, x) == rank:
                    hits += 1
            except (SingularStepError, RuntimeError):
                continue
        counts[f"{label} (rank {rank})"] = hits
    failing = {k: v for k, v in counts.items() if v < needed}
    assert not failing, f"points at the expected rank (need >= {needed} of {budget}): {counts}"


# make_params("general_clebsch") in exact rationals: alpha 7/10, beta 13/10,
# omega (3/10, 11/10, 12/5); eps 2/5 is criterion 07's eps 0.4
EXACT_CLEBSCH = clebsch_from_decomposition("7/10", "13/10", ("3/10", "11/10", "12/5"), "2/5")
EXACT_POINTS = (
    ("3/10", "-1/5", "1/2", "2/5", "-3/10", "1/10"),
    ("-1/2", "1/5", "1/10", "-3/10", "1/2", "2/5"),
)


def test_criterion_07_exact_rank_certificate():
    # exact rational orbits with exact forward-mode gradients: the ranks
    # below are ranks over Q, with no finite-difference step and no
    # singular-value threshold, so they certify criterion 07's split
    eps = 0.4
    gen = make_system("general_clebsch")
    ratio_fns = {
        name: wronskian_ratio_integral(gen.field, eps, ell, num, 2, window=16)
        for name, ell, num in (("J1", 3, 0), ("J2", 3, 1), ("J3", 4, 0), ("J4", 4, 1))
    }
    for point in EXACT_POINTS:
        states = EXACT_CLEBSCH.orbit(point, 6)
        now = EXACT_CLEBSCH.integrals(states, base=0)
        later = EXACT_CLEBSCH.integrals(states, base=1)
        for name, value in now.items():
            # conserved exactly: same value and same gradient one step later
            assert (value.val, value.grad) == (later[name].val, later[name].grad), (point, name)

        def rank(names):
            return exact_rank([now[name].grad for name in names])

        assert rank(("I0", "J0")) == 2, point
        assert rank(("I0", "J0", "J1", "J2")) == 3, point
        assert rank(("I0", "J0", "J3", "J4")) == 3, point
        for names in (("J1", "J2", "J3", "J4"), ("I0", "J0", "J1", "J3"), ("I0", "J0", "J2", "J4")):
            assert rank(names) == 4, (point, names)

        # the float path agrees with the exact values to 1e-10 relative;
        # measured <= 5e-14 (the float parameters and x0 are the rounded
        # rationals, then an 18/19-step orbit and an SVD for the ratios)
        x = np.array([float(v.val) for v in states[0]])
        floats = {name: KahanPair(gen, x[None], eps).value(name).item(0) for name in ("I0", "J0")}
        floats.update((name, fn(x)) for name, fn in ratio_fns.items())
        for name, value in floats.items():
            assert value == pytest.approx(float(now[name].val), rel=1e-10), (point, name)


def test_criterion_07_tangent_rows_match_exact_gradients():
    # the rank probe's unit rows of J1..J4, from one float tangent orbit,
    # against the exact forward-mode gradients at the same rational points,
    # each scaled to unit length: within 1e-13, measured <= 1.1e-14
    # (central differences at step 1e-6 read up to 1.3e-9 here)
    gen = make_system("general_clebsch")
    ratios = [
        wronskian_ratio_integral(gen.field, 0.4, ell, num, 2, window=16)
        for ell in (3, 4)
        for num in (0, 1)
    ]
    for point in EXACT_POINTS:
        states = EXACT_CLEBSCH.orbit(point, 6)
        now = EXACT_CLEBSCH.integrals(states, base=0)
        exact = np.array([[float(g) for g in now[name].grad] for name in ("J1", "J2", "J3", "J4")])
        exact /= np.linalg.norm(exact, axis=1, keepdims=True)
        x = np.array([float(v.val) for v in states[0]])
        assert np.abs(_unit_gradients(ratios, x) - exact).max() <= 1e-13, point


def test_criterion_08_continuous_flow_sanity():
    # the weighted Wronskian combination vanishes on the vector field, the
    # two quadratic integrals commute, and both commute with the Casimirs
    for kind in SIX_DIM_KINDS:
        desc = make_system(kind)
        rng = np.random.default_rng(111)
        for _ in range(50):
            x = rng.standard_normal(6)
            assert abs(wronskian_residual(desc, x)) <= 1e-13, kind
        inv = invariants(desc)
        if "H1" not in inv:
            continue
        rng = np.random.default_rng(112)
        for _ in range(20):
            x = rng.standard_normal(6) * 0.8
            assert abs(bracket(inv["H1"], inv["H2"], x)) <= 1e-6, kind
            for casimir in (inv["K1"], inv["K2"]):
                assert abs(bracket(inv["H1"], casimir, x)) <= 1e-6, kind
                assert abs(bracket(inv["H2"], casimir, x)) <= 1e-6, kind


def test_criterion_09_planar_bilinear_equals_state_form():
    # Fhat(x, eps) = F(x, eps) pointwise along orbits for 50 random
    # parameter draws, half of them indefinite (ac - b^2 < 0)
    rng = np.random.default_rng(113)
    eps = 0.05
    checked = 0
    for trial in range(50):
        want_indefinite = trial % 2 == 1
        while True:
            qa, qb, qc = rng.standard_normal(3)
            if (qa * qc - qb * qb < 0.0) == want_indefinite:
                break
        params = PlanarFamilyParams(
            qform=(qa, qb, qc),
            ell=tuple(rng.standard_normal(2)),
            ell0=float(rng.standard_normal()),
        )
        desc = build_system("planar_family", params)
        x = rng.standard_normal(2) * 0.3
        for _ in range(25):
            if float(np.max(np.abs(x))) > 10.0:
                # escaped along an unbounded level set; the cubic terms in
                # both forms then dwarf their difference's 1e-12 budget
                break
            try:
                f_state = evaluate_named(desc, "F", x, eps)
                f_bilinear = evaluate_named(desc, "Fhat", x, eps)
            except (SingularStepError, DenominatorZeroError):
                break
            assert abs(f_bilinear - f_state) <= 1e-12 * (1.0 + abs(f_state)), (
                trial,
                params.qform,
            )
            checked += 1
            try:
                x = kahan_step(desc.field, x, eps).next
            except SingularStepError:
                break
    assert checked > 500


def test_criterion_10_byte_identical_outputs(tmp_path):
    # fixed config and seed reproduce orbit.csv and verify.json byte for byte
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "system": "kirchhoff",
                "a1": 1.0,
                "a3": 2.0,
                "b1": 1.0,
                "b3": 3.0,
                "eps": 0.05,
                "steps": 120,
                "trials": 40,
                "seed": 42,
            }
        ),
        encoding="utf-8",
    )
    outputs = {}
    for run in ("one", "two"):
        out = tmp_path / run
        cfg = parse_config(str(config))
        assert run_command(cfg, "simulate", str(out)) == 0
        assert run_command(cfg, "verify", str(out)) == 0
        outputs[run] = (
            (out / "orbit.csv").read_bytes(),
            (out / "verify.json").read_bytes(),
        )
    assert outputs["one"][0] == outputs["two"][0]
    assert outputs["one"][1] == outputs["two"][1]
