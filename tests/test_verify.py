"""Property-suite checks: reversibility, conservation, measure, identities,
and the aggregated battery with its JSON serialization."""

import json
import math

import numpy as np
import pytest

from conftest import ALL_KINDS, make_system, place_pole
from kahanmaps import quadfield, verify
from kahanmaps.integrals import DenominatorZeroError, KahanPair, denominator_witnesses
from kahanmaps.quadfield import QuadraticVectorField, SingularStepError
from kahanmaps.systems import SystemDescriptor
from kahanmaps.verify import (
    CONSERVATION_TOL,
    IDENTITY_TOL,
    MEASURE_TOL,
    REVERSIBILITY_TOL,
    PropertyReport,
    check_conservation,
    check_identities_clebsch1,
    check_measure,
    check_reversibility,
    draw_initial_state,
    reports_to_json,
    run_suites,
    suites_passed,
)


def bare_descriptor(field: QuadraticVectorField, kind: str = "probe") -> SystemDescriptor:
    return SystemDescriptor(
        kind=kind,
        params=None,
        field=field,
        integral_names=(),
        density_names=(),
        conserved_names=(),
        wronskian_orders=(),
    )


class TestPropertyReport:
    def test_pass_flag_must_mirror_comparison(self):
        with pytest.raises(ValueError, match="mirror"):
            PropertyReport(
                name="x",
                trials=1,
                max_violation=1.0,
                tolerance=0.5,
                passed=True,
                worst_case_input=np.zeros(2),
                seed=0,
            )

    def test_json_dict_is_serializable(self):
        report = PropertyReport(
            name="x",
            trials=3,
            max_violation=1e-12,
            tolerance=1e-10,
            passed=True,
            worst_case_input=np.array([0.5, -0.25]),
            seed=7,
            skipped=1,
        )
        doc = json.loads(json.dumps(report.to_json_dict()))
        assert doc["passed"] is True
        assert doc["worst_case_input"] == [0.5, -0.25]
        assert doc["seed"] == 7
        assert doc["skipped"] == 1


class TestDrawInitialState:
    def test_deterministic_given_seed(self):
        desc = make_system("first_clebsch")
        a = draw_initial_state(np.random.default_rng(5), desc, 0.05)
        b = draw_initial_state(np.random.default_rng(5), desc, 0.05)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_draws_clear_denominator_floor(self, kind):
        from kahanmaps.integrals import denominator_witnesses

        desc = make_system(kind)
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = draw_initial_state(rng, desc, 0.05)
            wits = denominator_witnesses(desc, x, 0.05)
            assert not wits or min(wits) >= 1e-6
            assert np.linalg.norm(x) <= 1.0 + 1e-12


class TestReversibility:
    def test_zero_eps_is_exact(self):
        desc = make_system("kirchhoff")
        report = check_reversibility(desc, trials=20, eps=0.0, seed=1)
        assert report.max_violation == 0.0
        assert report.passed

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_catalog_passes(self, kind):
        desc = make_system(kind)
        report = check_reversibility(desc, trials=100, eps=0.05, seed=2)
        assert report.passed
        assert report.tolerance == REVERSIBILITY_TOL
        assert report.name == f"{kind}.reversibility"
        assert report.trials == 100

    def test_linear_field_exact_to_roundoff(self):
        # with no quadratic part the map is the midpoint rational map, whose
        # forward and backward steps are exactly inverse up to solver roundoff
        rng = np.random.default_rng(3)
        lin = rng.standard_normal((4, 4)) * 0.5
        field = QuadraticVectorField(
            quad=np.zeros((4, 4, 4)), lin=lin, const=np.zeros(4)
        )
        report = check_reversibility(bare_descriptor(field), trials=50, eps=0.1, seed=4)
        assert report.max_violation <= 1e-13

    def test_worst_case_input_attains_maximum(self):
        desc = make_system("lagrange")
        report = check_reversibility(desc, trials=50, eps=0.2, seed=5)
        from kahanmaps.quadfield import kahan_step

        x = report.worst_case_input
        back = kahan_step(desc.field, kahan_step(desc.field, x, 0.2).next, -0.2).next
        recomputed = float(np.max(np.abs(back - x))) / (1.0 + float(np.max(np.abs(x))))
        assert recomputed == pytest.approx(report.max_violation, rel=1e-12)


class TestConservation:
    def test_I0_first_clebsch_passes(self):
        desc = make_system("first_clebsch")
        report = check_conservation(desc, "I0", steps=400, eps=0.05, seed=7)
        assert report.passed
        assert report.name == "first_clebsch.conserved.I0"

    def test_J0_lagrange_passes(self):
        desc = make_system("lagrange")
        report = check_conservation(desc, "J0", steps=400, eps=0.05, seed=8)
        assert report.passed

    def test_coordinate_probe_fails(self):
        # negative control: a bare coordinate is not conserved by the map
        desc = make_system("first_clebsch")
        report = check_conservation(desc, "m1", steps=200, eps=0.05, seed=9)
        assert not report.passed
        assert report.max_violation > 100 * CONSERVATION_TOL

    def test_every_declared_name_passes(self):
        for kind in ALL_KINDS:
            desc = make_system(kind)
            for name in desc.conserved_names:
                report = check_conservation(desc, name, steps=200, eps=0.05, seed=10)
                assert report.passed, (kind, name, report.max_violation)


class TestMeasure:
    def test_zero_eps_trivial(self):
        desc = make_system("kirchhoff")
        report = check_measure(desc, "C1", trials=10, eps=0.0, seed=11)
        assert report.max_violation <= 1e-15

    def test_kirchhoff_density_passes(self):
        desc = make_system("kirchhoff")
        report = check_measure(desc, "C1", trials=100, eps=0.1, seed=12)
        assert report.passed
        assert report.tolerance == MEASURE_TOL
        assert report.name == "kirchhoff.measure.C1"

    def test_every_declared_density_passes(self):
        for kind in ALL_KINDS:
            desc = make_system(kind)
            for density in desc.density_names:
                report = check_measure(desc, density, trials=60, eps=0.05, seed=13)
                assert report.passed, (kind, density, report.max_violation)

    def test_undeclared_density_rejected(self):
        desc = make_system("lagrange")
        with pytest.raises(ValueError, match="not a declared density"):
            check_measure(desc, "C1", trials=5, eps=0.05, seed=14)


class TestIdentitiesClebsch1:
    def test_random_trials_pass(self):
        report = check_identities_clebsch1((1.0, 2.0, 3.0), trials=300, eps=0.1, seed=15)
        assert report.passed
        assert report.tolerance == IDENTITY_TOL
        assert report.trials == 300

    def test_deterministic_given_seed(self):
        a = check_identities_clebsch1((0.3, 1.1, 2.4), trials=50, eps=0.05, seed=16)
        b = check_identities_clebsch1((0.3, 1.1, 2.4), trials=50, eps=0.05, seed=16)
        assert a.max_violation == b.max_violation
        assert np.array_equal(a.worst_case_input, b.worst_case_input)


class TestRunSuites:
    def test_full_catalog_passes(self):
        descs = [make_system(kind) for kind in ALL_KINDS]
        reports = run_suites(descs, eps=0.05, trials=40, steps=80, seed=17)
        failing = [r.name for r in reports if not r.passed]
        assert failing == []
        assert suites_passed(reports)
        names = [r.name for r in reports]
        assert "first_clebsch.identities" in names
        assert "planar_family.conserved.Fhat" in names
        assert len(names) == len(set(names))

    def test_per_check_seeds_differ(self):
        descs = [make_system("kirchhoff")]
        reports = run_suites(descs, trials=5, steps=5, seed=100)
        seeds = [r.seed for r in reports]
        assert len(set(seeds)) == len(seeds)

    def test_json_roundtrip_and_determinism(self):
        descs = [make_system("lagrange")]
        text_a = reports_to_json(run_suites(descs, trials=10, steps=10, seed=18))
        text_b = reports_to_json(run_suites(descs, trials=10, steps=10, seed=18))
        assert text_a == text_b
        docs = json.loads(text_a)
        assert all(doc["passed"] for doc in docs)

    def test_failure_detected_by_suites_passed(self):
        desc = make_system("first_clebsch")
        bad = check_conservation(desc, "m1", steps=100, eps=0.05, seed=19)
        good = check_reversibility(desc, trials=10, eps=0.05, seed=20)
        assert not suites_passed([good, bad])


def sequential_draw(rng, desc, eps, floor, counter):
    """One state drawn as draw_initial_state drew it before draws were
    batched, one proposal and one witness evaluation at a time; the number
    of proposals goes to counter."""
    for _ in range(1000):
        counter.append(1)
        v = rng.standard_normal(desc.dim)
        norm = float(np.linalg.norm(v))
        if norm < 1e-12:
            continue
        x = v * (rng.uniform(0.3, 1.0) / norm)
        wits = denominator_witnesses(desc, x, eps)
        if not wits:
            return x
        low = min((w if math.isfinite(w) else -math.inf, i, w) for i, w in enumerate(wits))
        if low[0] >= floor:
            return x
    raise ValueError("no state in 1000 draws")


def conservation_reference(desc, name, steps, eps, seed):
    """check_conservation as a one-name loop of one-state steps, the form the
    stacked orbits replaced: (max_violation, worst_x, skipped)."""
    rng = np.random.default_rng(seed)
    x0 = sequential_draw(rng, desc, eps, verify.DENOMINATOR_FLOOR, [])
    pair = KahanPair(desc, x0, eps)
    baseline = pair.value(name)
    scale = 1.0 + abs(baseline)
    worst_violation, worst_x, skipped = 0.0, x0, 0
    for k in range(steps):
        try:
            x = pair.step.next
        except SingularStepError:
            skipped += steps - k
            break
        pair = KahanPair(desc, x, eps)
        try:
            value = pair.value(name)
        except (DenominatorZeroError, SingularStepError):
            skipped += 1
            continue
        violation = abs(value - baseline) / scale
        if violation > worst_violation:
            worst_violation, worst_x = violation, x
    return worst_violation, worst_x, skipped


class TestBatchedDraws:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("floor", [1e-6, 0.05])
    def test_equal_sequential_draws(self, kind, floor, monkeypatch):
        # floor 0.05 forces rejections in the drawn stream
        monkeypatch.setattr(verify, "DENOMINATOR_FLOOR", floor)
        desc = make_system(kind)
        rng_ref, rng = np.random.default_rng(21), np.random.default_rng(21)
        proposals = []
        expected = [sequential_draw(rng_ref, desc, 0.05, floor, proposals) for _ in range(40)]
        pair = verify._draw_states(rng, desc, 0.05, 40)
        assert np.array_equal(pair.x, np.array(expected))
        assert pair.x.shape == (40, desc.dim)
        # the stream is left where the sequential draws leave it
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        if floor > 1e-6 and kind != "planar_family":
            assert len(proposals) > 40

    def test_held_step_is_the_state_step(self):
        desc = make_system("lagrange")
        pair = verify._draw_states(np.random.default_rng(22), desc, 0.05, 10)
        for x, x_next, delta in zip(pair.x, pair.step.next, pair.step.delta):
            step = quadfield.kahan_step(desc.field, x, 0.05)
            assert np.array_equal(x_next, step.next) and delta == step.delta

    def test_binding_witness_named_after_max_draws(self, monkeypatch):
        monkeypatch.setattr(verify, "DENOMINATOR_FLOOR", math.inf)
        monkeypatch.setattr(verify, "MAX_DRAWS", 30)
        with pytest.raises(ValueError, match=r"in 30 draws; binding witness: denominator_witnesses\[\d\]"):
            draw_initial_state(np.random.default_rng(1), make_system("kirchhoff"), 0.05)


class TestStackedConservation:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_equals_one_name_loops(self, kind):
        desc = make_system(kind)
        names = desc.conserved_names
        seeds = [30 + i for i in range(len(names))]
        reports = verify._conservation(desc, names, seeds, 300, 0.05, CONSERVATION_TOL)
        for report, name, seed in zip(reports, names, seeds):
            violation, worst_x, skipped = conservation_reference(desc, name, 300, 0.05, seed)
            assert report.name == f"{kind}.conserved.{name}" and report.seed == seed
            assert report.max_violation == violation and report.skipped == skipped
            assert np.array_equal(report.worst_case_input, worst_x)

    def test_run_suites_reports_equal_one_name_checks(self):
        desc = make_system("kirchhoff")
        reports = run_suites([desc], trials=5, steps=60, seed=40)
        conserved = [r for r in reports if ".conserved." in r.name]
        for name, report in zip(desc.conserved_names, conserved):
            alone = check_conservation(desc, name, 60, 0.05, seed=report.seed)
            assert report.to_json_dict() == alone.to_json_dict()

    @pytest.mark.parametrize("kind", ["general_clebsch", "kirchhoff", "planar_family"])
    def test_mid_orbit_pole_ends_its_orbit_alone(self, kind, monkeypatch):
        # a pole placed at step 7 of the first name's orbit: that report
        # counts the remaining steps as skipped, the others are unchanged
        desc = make_system(kind)
        names = desc.conserved_names
        seeds = [50 + i for i in range(len(names))]
        clean = verify._conservation(desc, names, seeds, 40, 0.05, CONSERVATION_TOL)
        x = verify._draw_states(np.random.default_rng(seeds[0]), desc, 0.05, 1).x[0]
        for _ in range(7):
            x = quadfield.kahan_step(desc.field, x, 0.05).next
        place_pole(monkeypatch, x)
        stubbed = verify._conservation(desc, names, seeds, 40, 0.05, CONSERVATION_TOL)
        for name, seed, report in zip(names, seeds, stubbed):
            violation, worst_x, skipped = conservation_reference(desc, name, 40, 0.05, seed)
            assert report.max_violation == violation and report.skipped == skipped
            assert np.array_equal(report.worst_case_input, worst_x)
        assert stubbed[0].skipped >= 40 - 7
        assert [r.to_json_dict() for r in stubbed[1:]] == [r.to_json_dict() for r in clean[1:]]


class TestStepsPerTrial:
    def count_rows(self, monkeypatch):
        # every Kahan step, of one state or of a stack, builds its step
        # matrix once per row
        rows = []
        step_matrix = quadfield._step_matrix

        def counted(field, x, eps):
            rows.append(len(x))
            return step_matrix(field, x, eps)

        monkeypatch.setattr(quadfield, "_step_matrix", counted)
        return rows

    @pytest.mark.parametrize("kind", ["general_clebsch", "kirchhoff", "lagrange"])
    def test_measure_two_steps(self, kind, monkeypatch):
        desc = make_system(kind)
        rows = self.count_rows(monkeypatch)
        check_measure(desc, desc.density_names[0], trials=50, eps=0.05, seed=60)
        assert sum(rows) == 2 * 50

    def test_reversibility_two_steps(self, monkeypatch):
        rows = self.count_rows(monkeypatch)
        check_reversibility(make_system("kirchhoff"), trials=50, eps=0.05, seed=61)
        assert sum(rows) == 2 * 50

    def test_identities_one_step(self, monkeypatch):
        rows = self.count_rows(monkeypatch)
        check_identities_clebsch1((1.0, 2.0, 3.0), trials=50, eps=0.05, seed=62)
        assert sum(rows) == 50

    def test_conservation_one_step_per_orbit_point(self, monkeypatch):
        desc = make_system("kirchhoff")
        rows = self.count_rows(monkeypatch)
        verify._conservation(desc, desc.conserved_names, [63, 64, 65], 100, 0.05, CONSERVATION_TOL)
        # one draw step per orbit, then one step per orbit point
        assert sum(rows) == 3 * (100 + 1)
