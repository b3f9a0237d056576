"""Config parsing, command dispatch, output formats, and byte determinism."""

import json
import math
import warnings

import numpy as np
import pytest
from conftest import ALL_KINDS, count_stepped, make_params, make_system, place_pole, pole_eps, safe_state
from scalar_table import ScalarPair

import kahanmaps.cli as cli
from kahanmaps.cli import (
    MAX_RUN_POINTS,
    ExperimentConfig,
    _fmt,
    config_to_json_dict,
    main,
    parse_config,
    run_command,
)
from kahanmaps.hkbasis import WronskianBasisSpec, conjugate_pairs, default_window, hk_nullspace, iterate_orbit
from kahanmaps.integrals import DenominatorZeroError, evaluate_named
from kahanmaps.quadfield import SingularStepError, kahan_step
from kahanmaps.systems import build_system, params_to_dict

KIRCHHOFF_DOC = {
    "system": "kirchhoff",
    "a1": 1.0,
    "a3": 2.0,
    "b1": 1.0,
    "b3": 3.0,
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestParseConfig:
    def test_minimal_flat_config(self, tmp_path):
        doc = {
            "system": "lagrange",
            "alpha": 2.0,
            "gamma": 1.0,
            "x0": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
        }
        cfg = parse_config(write_config(tmp_path, doc))
        assert cfg.kind == "lagrange"
        assert cfg.params.alpha == 2.0
        assert cfg.eps == 0.05
        assert cfg.steps == 1000
        assert cfg.seed == 42
        assert np.array_equal(cfg.x0, doc["x0"])

    def test_nested_params_equivalent(self, tmp_path):
        doc = {"system": "lagrange", "params": {"alpha": 2.0, "gamma": 1.0}}
        cfg = parse_config(write_config(tmp_path, doc))
        assert cfg.params.gamma == 1.0
        assert cfg.x0 is None

    def test_missing_omega_named(self, tmp_path):
        path = write_config(tmp_path, {"system": "first_clebsch"})
        with pytest.raises(ValueError, match="omega"):
            parse_config(path)

    def test_unknown_system_kind(self, tmp_path):
        path = write_config(tmp_path, {"system": "euler_top"})
        with pytest.raises(ValueError, match="euler_top"):
            parse_config(path)

    def test_missing_system_field(self, tmp_path):
        path = write_config(tmp_path, {"alpha": 2.0})
        with pytest.raises(ValueError, match="system"):
            parse_config(path)

    def test_flat_and_nested_params_conflict(self, tmp_path):
        doc = {"system": "lagrange", "params": {"alpha": 2.0, "gamma": 1.0}, "alpha": 3.0}
        with pytest.raises(ValueError, match="nested and flat"):
            parse_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("key", ["steps", "trials"])
    def test_run_size_is_bounded(self, key, tmp_path):
        # key x dim stops at MAX_RUN_POINTS, a memory budget; the configs are
        # only parsed, never run
        for doc, dim in ((KIRCHHOFF_DOC, 6), ({"system": "planar_family", "qform": [1, 0, 1], "ell": [1, 0]}, 2)):
            limit = MAX_RUN_POINTS // dim
            assert getattr(parse_config(write_config(tmp_path, {**doc, key: limit})), key) == limit
            for value in (limit + 1, 10**20):
                with pytest.raises(ValueError, match=rf"^{key} must be <= {limit} "):
                    parse_config(write_config(tmp_path, {**doc, key: value}))

    def test_orders_are_bounded(self, tmp_path):
        # hk-scan's orbit, window - 1 + max(orders) steps, x dim stops at
        # MAX_RUN_POINTS as steps do; the configs are only parsed, never run
        window = default_window(3)
        limit = MAX_RUN_POINTS // 6 - (window - 1)
        assert parse_config(write_config(tmp_path, dict(KIRCHHOFF_DOC, orders=[1, limit]))).orders == (1, limit)
        for orders in ([limit + 1], [2, 10**12]):
            with pytest.raises(ValueError, match=rf"^orders must be <= {limit} "):
                parse_config(write_config(tmp_path, dict(KIRCHHOFF_DOC, orders=orders)))

    def test_planar_dimension_is_bounded(self, tmp_path):
        # a planar field of dimension n takes about 7 n^3 doubles to build;
        # the first length past 7 n^3 <= MAX_RUN_POINTS is rejected before
        # any of them is allocated
        n = 1 + max(n for n in range(1, 200) if 7 * n**3 <= MAX_RUN_POINTS)
        doc = {"system": "planar_family", "params": {"qform": [1, 0, 1], "ell": [1.0] * n}}
        with pytest.raises(ValueError, match=rf"^ell must have at most {n - 1} entries"):
            parse_config(write_config(tmp_path, doc))

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"system": "lagrange",\n  "alpha": }', encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            parse_config(str(path))

    def test_wrong_x0_length(self, tmp_path):
        doc = dict(KIRCHHOFF_DOC, x0=[0.1, 0.2])
        with pytest.raises(ValueError, match="6 components"):
            parse_config(write_config(tmp_path, doc))

    def test_overrides_beat_file(self, tmp_path):
        path = write_config(tmp_path, dict(KIRCHHOFF_DOC, eps=0.01))
        cfg = parse_config(path, {"eps": 0.2, "seed": 7, "system": None})
        assert cfg.eps == 0.2
        assert cfg.seed == 7

    def test_bad_orders_rejected(self, tmp_path):
        doc = dict(KIRCHHOFF_DOC, orders=[0, 1])
        with pytest.raises(ValueError, match="orders"):
            parse_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("steps", "abc"),
            ("steps", 1.5),
            ("steps", -1),
            ("trials", True),
            ("trials", 0),
            ("seed", -1),
            ("seed", 2.5),
            ("eps", "0.1"),
            ("eps", False),
            ("orders", [3, 3]),
            ("orders", [1.5]),
            ("orders", 3),
            ("orders", ["a"]),
        ],
    )
    def test_bad_run_setting_names_its_field(self, tmp_path, field, value):
        # rejected at parse time, never truncated or converted in silence
        doc = dict(KIRCHHOFF_DOC, **{field: value})
        with pytest.raises(ValueError, match=f"^{field} must "):
            parse_config(write_config(tmp_path, doc))

    def test_integral_float_settings_accepted(self, tmp_path):
        doc = dict(KIRCHHOFF_DOC, steps=1e3, trials=25.0, seed=7.0, orders=[1.0, 2])
        cfg = parse_config(write_config(tmp_path, doc))
        assert (cfg.steps, cfg.trials, cfg.seed, cfg.orders) == (1000, 25, 7, (1, 2))
        assert all(type(v) is int for v in (cfg.steps, cfg.trials, cfg.seed, *cfg.orders))

    def test_json_roundtrip_is_canonical(self, tmp_path):
        doc = dict(KIRCHHOFF_DOC, eps=0.1, orders=[1, 2, 3], trials=25)
        cfg = parse_config(write_config(tmp_path, doc))
        emitted = config_to_json_dict(cfg)
        again = parse_config(write_config(tmp_path, emitted, name="again.json"))
        assert config_to_json_dict(again) == emitted


class TestSimulate:
    def test_orbit_csv_layout(self, tmp_path):
        doc = dict(KIRCHHOFF_DOC, steps=5, x0=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        cfg = parse_config(write_config(tmp_path, doc))
        assert run_command(cfg, "simulate", str(tmp_path)) == 0
        lines = (tmp_path / "orbit.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:8] == ["step", "x1", "x2", "x3", "x4", "x5", "x6", "delta"]
        assert header[8:] == ["I0", "J0", "c1", "c3", "C1", "C3", "density_C1", "density_C3"]
        assert len(lines) == 6
        assert lines[1].split(",")[0] == "1"

    def test_full_roundtrip_precision(self, tmp_path):
        from kahanmaps.quadfield import kahan_step
        from kahanmaps.systems import build_system, params_to_dict

        doc = dict(KIRCHHOFF_DOC, steps=1, x0=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6], eps=0.05)
        cfg = parse_config(write_config(tmp_path, doc))
        run_command(cfg, "simulate", str(tmp_path))
        row = (tmp_path / "orbit.csv").read_text().splitlines()[1].split(",")
        desc = build_system(cfg.kind, cfg.params)
        step = kahan_step(desc.field, np.asarray(doc["x0"]), 0.05)
        for text, exact in zip(row[1:8], list(step.next) + [step.delta]):
            assert float(text) == exact

    def test_steps_zero_header_only(self, tmp_path):
        doc = dict(KIRCHHOFF_DOC, steps=0)
        cfg = parse_config(write_config(tmp_path, doc))
        run_command(cfg, "simulate", str(tmp_path))
        lines = (tmp_path / "orbit.csv").read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("step,x1")

    def test_pole_at_first_step_is_an_error(self, tmp_path, capsys):
        doc = {
            "system": "planar_family",
            "qform": [1.0, 0.0, -1.0],
            "ell": [1.0, 0.0],
            "ell0": 0.0,
            "eps": 0.5,
            "steps": 10,
            "x0": [1.414213562373095, 0.0],
        }
        path = write_config(tmp_path, doc)
        code = main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert code == 2
        assert "pole at the first step" in capsys.readouterr().err

    def test_missing_x0_drawn_from_seed(self, tmp_path):
        doc = dict(KIRCHHOFF_DOC, steps=3)
        cfg = parse_config(write_config(tmp_path, doc))
        run_command(cfg, "simulate", str(tmp_path))
        first = (tmp_path / "orbit.csv").read_bytes()
        run_command(cfg, "simulate", str(tmp_path))
        assert (tmp_path / "orbit.csv").read_bytes() == first

    def test_unbounded_redraw_is_a_config_error(self, tmp_path, capsys):
        # at eps 1e200 c1 = 1 + inf - inf is nan for every draw; the redraw
        # gives up after its bound and names the witness
        doc = dict(KIRCHHOFF_DOC, a1=2.0, a3=1.0, steps=5)
        path = write_config(tmp_path, doc)
        code = main(["simulate", "--config", path, "--eps", "1e200", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "1000 draws" in err
        assert "denominator_witnesses[0] = nan" in err

    def test_seed_changes_drawn_orbit(self, tmp_path):
        doc = dict(KIRCHHOFF_DOC, steps=3)
        cfg_a = parse_config(write_config(tmp_path, dict(doc, seed=1)))
        run_command(cfg_a, "simulate", str(tmp_path))
        first = (tmp_path / "orbit.csv").read_bytes()
        cfg_b = parse_config(write_config(tmp_path, dict(doc, seed=2)))
        run_command(cfg_b, "simulate", str(tmp_path))
        assert (tmp_path / "orbit.csv").read_bytes() != first


def catalog_config(kind, steps, x0=None):
    return ExperimentConfig(
        kind=kind,
        params=make_params(kind),
        x0=x0,
        eps=0.05,
        steps=steps,
        seed=42,
        orders=None,
        trials=10,
    )


def read_orbit(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# columns evaluated on the pair (x, x~): they need the row's successor
BILINEAR = {"J0", "K", "G1", "G2", "G3", "C1", "C2", "C3", "C0", "R", "S", "Fhat"}


class TestOnePassRows:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_cells_equal_direct_evaluation(self, kind, tmp_path):
        # every cell, the last row included, equals evaluate_named at the
        # row's state with its own forward step
        cfg = catalog_config(kind, steps=50)
        assert run_command(cfg, "simulate", str(tmp_path)) == 0
        header, rows = read_orbit(tmp_path / "orbit.csv")
        desc = make_system(kind)
        dim = desc.dim
        assert len(rows) == 50
        for row in rows:
            x = np.array([float(v) for v in row[1 : 1 + dim]])
            for name, cell in zip(header[2 + dim :], row[2 + dim :]):
                assert cell == _fmt(evaluate_named(desc, name, x, cfg.eps)), (kind, row[0], name)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_mid_orbit_pole_blanks_only_the_pair_cells(self, kind, tmp_path, monkeypatch, capsys):
        # a pole at step k: row k-1 keeps its state-only cells, its bilinear
        # and density cells read nan, and the orbit stops there
        steps, k = 10, 6
        desc = make_system(kind)
        x0 = safe_state(np.random.default_rng(7), desc)
        states = [x0]
        for _ in range(k - 1):
            states.append(kahan_step(desc.field, states[-1], 0.05).next)
        cfg = catalog_config(kind, steps, x0=x0)
        assert run_command(cfg, "simulate", str(tmp_path / "clean")) == 0
        _, clean = read_orbit(tmp_path / "clean" / "orbit.csv")
        place_pole(monkeypatch, states[k - 1])
        assert run_command(cfg, "simulate", str(tmp_path / "pole")) == 0
        assert f"pole at step {k} of {steps}" in capsys.readouterr().err
        header, rows = read_orbit(tmp_path / "pole" / "orbit.csv")
        assert len(rows) == k - 1
        assert rows[: k - 2] == clean[: k - 2]
        for name, cell, clean_cell in zip(header, rows[k - 2], clean[k - 2]):
            paired = name in BILINEAR or name.startswith("density_")
            assert cell == ("nan" if paired else clean_cell), (kind, name)
            assert paired or cell != "nan", (kind, name)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_one_kahan_step_per_row(self, kind, tmp_path, monkeypatch):
        # one step per row, one after the last row, and one to draw x0:
        # every step builds its step matrix once per row
        rows = count_stepped(monkeypatch)
        cfg = catalog_config(kind, steps=50)
        assert run_command(cfg, "simulate", str(tmp_path)) == 0
        assert sum(rows) == cfg.steps + 2, (kind, rows)


def reference_simulate(cfg, desc):
    """The one-pair-per-row simulate loop the stacked columns replaced, on
    the frozen one-state table: (orbit.csv text, stderr note, ValueError
    message or None)."""
    pair = ScalarPair(desc, cfg.x0, cfg.eps)
    columns = list(desc.integral_names) + [f"density_{d}" for d in desc.density_names]
    header = ["step"] + [f"x{i + 1}" for i in range(desc.dim)] + ["delta"] + columns
    lines = [",".join(header)]
    truncated_at = None
    for k in range(1, cfg.steps + 1):
        try:
            result = pair.step
        except SingularStepError as exc:
            if k == 1:
                return None, "", f"orbit hits a pole at the first step: {exc}"
            truncated_at = k
            break
        pair = ScalarPair(desc, result.next, cfg.eps)
        row = [str(k)] + [_fmt(v) for v in result.next] + [_fmt(result.delta)]
        for name in columns:
            try:
                row.append(_fmt(pair.value(name)))
            except (DenominatorZeroError, SingularStepError):
                row.append("nan")
        lines.append(",".join(row))
    note = "" if truncated_at is None else f"orbit truncated: pole at step {truncated_at} of {cfg.steps}\n"
    return "\n".join(lines) + "\n", note, None


class TestTruncatedOrbit:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("k", [1, 7, 11])
    def test_pole_matches_one_pair_loop(self, kind, k, tmp_path, monkeypatch, capsys):
        # a pole in the step from point k - 1; with 10 steps, k = 11 is the
        # successor only the last row's bilinear columns read
        desc = make_system(kind)
        x0 = safe_state(np.random.default_rng(17), desc)
        states = [x0]
        for _ in range(k - 1):
            states.append(kahan_step(desc.field, states[-1], 0.05).next)
        place_pole(monkeypatch, states[k - 1])
        cfg = catalog_config(kind, 10, x0=x0)
        text, note, error = reference_simulate(cfg, desc)
        capsys.readouterr()
        if error is not None:
            with pytest.raises(ValueError) as raised:
                run_command(cfg, "simulate", str(tmp_path))
            assert str(raised.value) == error
            assert not (tmp_path / "orbit.csv").exists()
            return
        assert run_command(cfg, "simulate", str(tmp_path)) == 0
        assert (tmp_path / "orbit.csv").read_text() == text
        assert capsys.readouterr().err == note
        assert "nan" in text.splitlines()[-1]


class TestVerifyCommand:
    def test_passes_and_writes_json(self, tmp_path):
        doc = dict(KIRCHHOFF_DOC, trials=30, steps=60)
        cfg = parse_config(write_config(tmp_path, doc))
        assert run_command(cfg, "verify", str(tmp_path)) == 0
        docs = json.loads((tmp_path / "verify.json").read_text())
        names = [d["name"] for d in docs]
        assert "kirchhoff.reversibility" in names
        assert "kirchhoff.conserved.m3" in names
        assert all(d["passed"] for d in docs)

    def test_byte_identical_reruns(self, tmp_path):
        doc = dict(KIRCHHOFF_DOC, trials=10, steps=20)
        cfg = parse_config(write_config(tmp_path, doc))
        run_command(cfg, "verify", str(tmp_path))
        first = (tmp_path / "verify.json").read_bytes()
        run_command(cfg, "verify", str(tmp_path))
        assert (tmp_path / "verify.json").read_bytes() == first


class TestHkScan:
    def test_kirchhoff_orders_reported(self, tmp_path):
        doc = dict(KIRCHHOFF_DOC, x0=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6], eps=0.05)
        cfg = parse_config(write_config(tmp_path, doc))
        assert run_command(cfg, "hk-scan", str(tmp_path)) == 0
        scan = json.loads((tmp_path / "hkscan.json").read_text())
        assert scan["system"] == "kirchhoff"
        orders = {entry["order"]: entry for entry in scan["orders"]}
        assert sorted(orders) == [1, 2, 3, 4]
        for ell in (1, 2, 3):
            assert orders[ell]["null_dim"] == 1
            assert orders[ell]["gap_ratio"] >= 1e6
        assert isinstance(orders[4]["null_dim"], int)

    def test_requested_orders_only(self, tmp_path):
        doc = dict(KIRCHHOFF_DOC, orders=[1, 2], x0=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        cfg = parse_config(write_config(tmp_path, doc))
        run_command(cfg, "hk-scan", str(tmp_path))
        scan = json.loads((tmp_path / "hkscan.json").read_text())
        assert [entry["order"] for entry in scan["orders"]] == [1, 2]

    def test_one_orbit_serves_every_order(self, tmp_path, monkeypatch):
        steps = []

        def counting_orbit(field, x0, eps, n):
            steps.append(n)
            return iterate_orbit(field, x0, eps, n)

        monkeypatch.setattr(cli, "iterate_orbit", counting_orbit)
        x0 = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        doc = dict(KIRCHHOFF_DOC, orders=[3, 1, 4, 2], x0=x0, eps=0.05)
        cfg = parse_config(write_config(tmp_path, doc))
        assert run_command(cfg, "hk-scan", str(tmp_path)) == 0
        scan = json.loads((tmp_path / "hkscan.json").read_text())
        assert steps == [scan["window"] - 1 + 4]
        desc = build_system(cfg.kind, cfg.params)
        for entry in scan["orders"]:
            # the order's own orbit, as short as its window allows
            order = entry.pop("order")
            orbit = iterate_orbit(desc.field, np.array(x0), 0.05, scan["window"] - 1 + order)
            obs = WronskianBasisSpec(order, conjugate_pairs(6)).observables()
            expected = hk_nullspace(orbit, obs, scan["window"]).to_json_dict()
            assert entry == json.loads(json.dumps(expected)), order

    @pytest.mark.parametrize("ell", [[1.0, -1.0], [1.0, -1.0, 0.3, 0.5, -0.2, 0.4]], ids=["dim2", "dim6"])
    def test_planar_scan_is_config_error(self, ell, tmp_path, capsys):
        # the catalog declares no Wronskian orders for the planar family, so
        # neither command scans it, even where its dimension has conjugate pairs
        doc = {
            "system": "planar_family",
            "qform": [1.0, 0.5, 2.0],
            "ell": ell,
            "ell0": 0.2,
            "trials": 20,
            "steps": 50,
        }
        path = write_config(tmp_path, doc)
        code = main(["hk-scan", "--config", path, "--out", str(tmp_path)])
        assert code == 2
        assert "planar_family" in capsys.readouterr().err
        assert main(["report", "--config", path, "--out", str(tmp_path)]) in (0, 1)
        assert "Wronskian null space" not in (tmp_path / "report.txt").read_text()


class TestReportCommand:
    def test_report_text(self, tmp_path):
        doc = dict(KIRCHHOFF_DOC, trials=30, steps=60, x0=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        cfg = parse_config(write_config(tmp_path, doc))
        assert run_command(cfg, "report", str(tmp_path)) == 0
        text = (tmp_path / "report.txt").read_text()
        assert "[PASS]" in text
        assert "[FAIL]" not in text
        assert "[INFO] order-4" in text
        assert text.rstrip().endswith("overall: PASS")
        assert "conservation of m3" in text


@pytest.mark.parametrize("command", ["verify", "report"])
def test_no_steps_fails_every_conservation_check(command, tmp_path, capsys):
    # an orbit of 0 steps checks nothing: each conserved quantity reads 0
    # trials, none skipped, and fails; the other checks run as usual
    path = write_config(tmp_path, dict(KIRCHHOFF_DOC, trials=10))
    assert main([command, "--config", path, "--steps", "0", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == ""
    if command == "verify":
        reports = json.loads((tmp_path / "verify.json").read_text(encoding="utf-8"))
        conserved = [r for r in reports if ".conserved." in r["name"]]
        assert [r["name"] for r in conserved] == [f"kirchhoff.conserved.{q}" for q in ("I0", "J0", "m3")]
        assert all((r["trials"], r["skipped"], r["passed"]) == (0, 0, False) for r in conserved)
        assert all(r["passed"] for r in reports if r not in conserved)
    else:
        lines = (tmp_path / "report.txt").read_text(encoding="utf-8").splitlines()
        assert [line for line in lines if line.startswith("[FAIL]")] == [
            f"[FAIL] conservation of {q} over 0 steps  (worst 0.000e+00, tolerance 1e-08, skipped 0)"
            for q in ("I0", "J0", "m3")
        ]
        assert lines[-1] == "overall: FAIL"


class TestHugeEps:
    """At eps 1e150 every denominator Delta(x) = det(I - eps f'(x)) is past
    the float range. The commands keep it as +-inf, warn about nothing, and
    a density check counts each trial whose ratio is inf/inf as skipped."""

    def run(self, command, tmp_path, doc=KIRCHHOFF_DOC):
        path = write_config(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return main([command, "--config", path, "--eps", "1e150", "--steps", "50", "--out", str(tmp_path)])

    def run_kind(self, command, kind, tmp_path):
        return self.run(command, tmp_path, {"system": kind, "params": params_to_dict(make_params(kind))})

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_no_command_warns(self, kind, tmp_path, capsys):
        # every command but hk-scan, which report runs; first_clebsch draws
        # no state at this eps and says so
        codes = [self.run_kind(command, kind, tmp_path) for command in ("simulate", "verify", "report")]
        if kind == "first_clebsch":
            assert codes == [2, 2, 2]
            assert capsys.readouterr().err.count("error: no first_clebsch state off the poles") == 3
        else:
            assert codes[0] == 0

    @pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k != "first_clebsch"])
    def test_verify_json_is_strict(self, kind, tmp_path):
        # a non-finite float is written as null
        self.run_kind("verify", kind, tmp_path)

        def refuse(constant):
            raise ValueError(f"non-finite constant {constant} in verify.json")

        json.loads((tmp_path / "verify.json").read_text(encoding="utf-8"), parse_constant=refuse)

    @pytest.mark.parametrize("kind", ["general_clebsch", "second_clebsch", "kirchhoff", "lagrange"])
    def test_a_check_that_skipped_every_trial_fails(self, kind, tmp_path, capsys):
        # every density trial is inf/inf: nothing was checked
        assert self.run_kind("verify", kind, tmp_path) == 1
        reports = json.loads((tmp_path / "verify.json").read_text(encoding="utf-8"))
        measure = [r for r in reports if ".measure." in r["name"]]
        assert measure and all(r["skipped"] == r["trials"] and not r["passed"] for r in measure)
        if kind in ("general_clebsch", "second_clebsch"):
            # report stops at the scan, whose orbit meets a pole first. At
            # eps 1e150 the step matrix is singular to working precision, so
            # the step whose det is exactly 0 is set by the step kernel's
            # rounding: recorded, like the golden digests, when that moves
            step = {"general_clebsch": 5, "second_clebsch": 7}[kind]
            assert self.run_kind("report", kind, tmp_path) == 2
            assert capsys.readouterr().err == f"error: orbit hits a pole at step {step} of the 13 the scan needs\n"
            return
        assert self.run_kind("report", kind, tmp_path) == 1
        lines = (tmp_path / "report.txt").read_text(encoding="utf-8").splitlines()
        failed = [line for line in lines if line.startswith("[FAIL] invariant density")]
        assert len(failed) == len(measure) and lines[-1] == "overall: FAIL"

    def test_simulate_keeps_the_overflowed_delta(self, tmp_path):
        assert self.run("simulate", tmp_path) == 0
        rows = np.genfromtxt(tmp_path / "orbit.csv", delimiter=",", names=True)
        assert len(rows) == 50
        assert np.isinf(rows["delta"]).all()

    def test_verify_counts_nan_trials_as_skipped(self, tmp_path):
        self.run("verify", tmp_path)
        reports = json.loads((tmp_path / "verify.json").read_text(encoding="utf-8"))
        measure = [r for r in reports if ".measure." in r["name"]]
        assert [r["name"] for r in measure] == ["kirchhoff.measure.C1", "kirchhoff.measure.C3"]
        for report in measure:
            assert report["skipped"] == report["trials"] == 500
            assert report["max_violation"] == 0.0


class TestMain:
    @pytest.mark.parametrize("command", ["simulate", "hk-scan", "report"])
    def test_pole_at_x0_is_a_config_error(self, command, tmp_path, monkeypatch, capsys):
        # every command that steps x0 exits 2 with the message, no traceback
        x0 = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        place_pole(monkeypatch, np.array(x0))
        path = write_config(tmp_path, dict(KIRCHHOFF_DOC, x0=x0, eps=0.05, steps=20, trials=10))
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: orbit hits a pole at the first step: |det(")

    def test_simulate_at_an_exact_root_is_a_config_error(self, tmp_path, capsys):
        # eps a root of det(I - eps*f'(x0)), found rather than placed
        x0 = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        eps = pole_eps(make_system("kirchhoff").field, np.array(x0))
        assert eps is not None
        path = write_config(tmp_path, dict(KIRCHHOFF_DOC, x0=x0, eps=eps, steps=20))
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: orbit hits a pole at the first step: |det(")

    @pytest.mark.parametrize("command", ["hk-scan", "report"])
    def test_later_pole_names_its_step(self, command, tmp_path, monkeypatch, capsys):
        # a pole in the step from point 5 of the scan orbit: the scan needs
        # 13 steps and names the pole step as simulate numbers it
        x0 = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        desc = build_system("kirchhoff", parse_config(overrides=KIRCHHOFF_DOC).params)
        place_pole(monkeypatch, iterate_orbit(desc.field, np.array(x0), 0.05, 5)[5])
        path = write_config(tmp_path, dict(KIRCHHOFF_DOC, x0=x0, eps=0.05, steps=20, trials=10))
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
        assert "pole at step 6 of 20" in capsys.readouterr().err
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: orbit hits a pole at step 6 of the 13 the scan needs\n"

    def test_huge_steps_flag_names_the_field(self, tmp_path, capsys):
        # refused while parsing, before any orbit is allocated
        path = write_config(tmp_path, KIRCHHOFF_DOC)
        assert main(["simulate", "--config", path, "--steps", str(10**20), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: steps must be <= ")
        assert not (tmp_path / "orbit.csv").exists()

    def test_requires_system_somewhere(self, capsys):
        assert main(["simulate"]) == 2
        assert "system" in capsys.readouterr().err

    def test_system_flag_without_params_names_field(self, capsys):
        assert main(["simulate", "--system", "kirchhoff"]) == 2
        assert "a1" in capsys.readouterr().err

    def test_flags_drive_simulate(self, tmp_path):
        path = write_config(tmp_path, KIRCHHOFF_DOC)
        code = main(
            [
                "simulate",
                "--config", path,
                "--eps", "0.1",
                "--steps", "2",
                "--seed", "3",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "orbit.csv").read_text().splitlines()
        assert len(lines) == 3

    @pytest.mark.parametrize(
        "doc,field",
        [
            (dict(KIRCHHOFF_DOC, a1=None), "'a1'"),
            (dict(KIRCHHOFF_DOC, a1=[1, 2]), "a1"),
            (dict(KIRCHHOFF_DOC, a1="x"), "'a1'"),
            (dict(KIRCHHOFF_DOC, a1=True), "'a1'"),
            (dict(KIRCHHOFF_DOC, x0=["a", 0, 0, 0, 0, 0]), "x0"),
            (dict(KIRCHHOFF_DOC, x0=[True, 0, 0, 0, 0, 0]), "x0"),
            (dict(KIRCHHOFF_DOC, x0=[[0.1], [0.2, 0.3]]), "x0"),
            ({"system": "lagrange", "params": {"alpha": [2.0], "gamma": 1.0}}, "alpha"),
            ({"system": "general_clebsch", "a": [1, 1, 2], "b": [1, 1, 3], "beta": "0.5"}, "'beta'"),
            ({"system": "general_clebsch", "a": [1, 1, 2], "b": [1, 1, 3], "beta": [0.5]}, "beta"),
            ({"system": "first_clebsch", "omega": [0.3, None, 2.4]}, "'omega'"),
            ({"system": "planar_family", "qform": [1, 0.5, 2], "ell": [[1], [1, 2]]}, "'ell'"),
            ({"system": "planar_family", "qform": 1.0, "ell": [1, -1]}, "qform"),
            ({"system": "planar_family", "qform": [1, 0.5, 2], "ell": [1, -1], "ell0": [0.2]}, "ell0"),
            # NaN and Infinity are JSON extensions that json.load reads as floats
            ({"system": "general_clebsch", "a": [1, 1, 2], "b": [1, 1, 3], "beta": math.nan}, "beta"),
            ({"system": "planar_family", "qform": [1, 0.5, 2], "ell": [1, -1], "ell0": math.inf}, "ell0"),
            # integers that float() cannot take
            (dict(KIRCHHOFF_DOC, a1=10**400), "'a1'"),
            (dict(KIRCHHOFF_DOC, eps=10**400), "eps"),
            (dict(KIRCHHOFF_DOC, x0=[10**400, 0, 0, 0, 0, 0]), "x0"),
            (dict(KIRCHHOFF_DOC, steps=10**400), "steps"),
        ],
        ids=[
            "a1-null", "a1-list", "a1-string", "a1-bool",
            "x0-string", "x0-bool", "x0-nested",
            "alpha-list", "beta-string", "beta-list", "omega-null",
            "ell-ragged", "qform-number", "ell0-list",
            "beta-nan", "ell0-inf",
            "a1-huge", "eps-huge", "x0-huge", "steps-huge",
        ],
    )
    def test_malformed_field_is_a_config_error(self, doc, field, tmp_path, capsys):
        # exit 2 with a message naming the field, never a traceback or a silent 1.0
        path = write_config(tmp_path, {"steps": 2, **doc})
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "orbit.csv").exists()
