import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import emlab.angular
import emlab.scenario
from emlab.angular import AngularSpectrum
from emlab.cli import main as cli_main
from emlab.errors import ScenarioValidationError
from emlab.scenario import (
    DEFAULT_CHECKS,
    SCHEMA_VERSION,
    Scenario,
    TOLERANCES,
    parse_scenario,
    run_scenario,
    scenario_from_dict,
    scenario_hash,
    verify_suite,
)

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"


def minimal_doc(**over):
    doc = {
        "dimension": 2,
        "potential": {"kind": "aharonov_bohm", "alpha": 0.3, "a0": 0.0},
    }
    doc.update(over)
    return doc


class TestParsing:
    def test_minimal_defaults(self):
        scn = scenario_from_dict(minimal_doc())
        assert scn.dimension == 2
        assert scn.side == "interior"
        assert scn.boundary_values == {1: (1 + 0j)}
        assert scn.eigen_count == 8
        assert scn.seed == 42
        assert len(scn.radii) == 20

    def test_zero_epsilon_rejected(self):
        with pytest.raises(ScenarioValidationError, match="epsilon"):
            scenario_from_dict(minimal_doc(perturbation={"amplitude": 0.05, "epsilon": 0.0}))

    def test_dipole_dimension_mismatch(self):
        with pytest.raises(ScenarioValidationError, match="dimension 3"):
            scenario_from_dict({
                "dimension": 2,
                "potential": {"kind": "dipole", "strength": 1.0, "axis": [0, 0, 1]},
            })

    def test_malformed_json_reports_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dimension": 2,,}')
        with pytest.raises(ScenarioValidationError, match="line 1"):
            parse_scenario(bad)

    def test_mode_index_out_of_range(self):
        with pytest.raises(ScenarioValidationError, match="outside"):
            scenario_from_dict(minimal_doc(
                eigen_count=4, boundary={"radius": 1.0, "values": {"9": 1.0}}
            ))

    def test_unknown_toggle(self):
        with pytest.raises(ScenarioValidationError, match="unknown check"):
            scenario_from_dict(minimal_doc(checks={"bogus": True}))

    def test_complex_boundary_value(self):
        scn = scenario_from_dict(minimal_doc(
            boundary={"radius": 1.0, "values": {"1": [0.0, 2.0]}}
        ))
        assert scn.boundary_values[1] == 2j

    def test_all_zero_boundary_rejected(self):
        with pytest.raises(ScenarioValidationError, match="nonzero"):
            scenario_from_dict(minimal_doc(boundary={"values": {"1": 0.0}}))

    def test_hash_is_stable(self):
        a = scenario_from_dict(minimal_doc())
        b = scenario_from_dict(minimal_doc())
        assert scenario_hash(a) == scenario_hash(b)
        c = scenario_from_dict(minimal_doc(seed=7))
        assert scenario_hash(a) != scenario_hash(c)


@pytest.fixture(scope="module")
def ab_basic_report(tmp_path_factory):
    scn = parse_scenario(SCENARIOS / "ab_basic.json")
    out = tmp_path_factory.mktemp("ab_basic")
    return run_scenario(scn, out_dir=out), out


class TestRun:
    def test_ab_basic_passes(self, ab_basic_report):
        report, _ = ab_basic_report
        assert report["status"] == "pass"
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["frequency"]["gamma_hat"] == pytest.approx(0.3, abs=1e-5)
        beta = report["profile"]["beta"][0]
        # the order-c perturbation shifts the leading coefficient slightly
        assert complex(beta[0], beta[1]) == pytest.approx(1.0, abs=0.15)
        assert report["regularity"]["label"] == "holder"

    def test_check_structure(self, ab_basic_report):
        report, _ = ab_basic_report
        assert report["checks"]
        for c in report["checks"]:
            assert set(c) == {"name", "value", "tolerance", "pass"}

    def test_artifacts_written(self, ab_basic_report):
        report, out = ab_basic_report
        trace = (out / "trace.csv").read_text()
        assert trace.splitlines()[0] == "r,H,D,N"
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk["scenario_hash"] == report["scenario_hash"]

    def test_exterior_kelvin_conjugacy(self):
        scn = parse_scenario(SCENARIOS / "exterior_kelvin.json")
        report = run_scenario(scn)
        assert report["status"] == "pass"
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["kelvin_conjugacy"]["value"] < 1e-8
        assert by_name["kelvin_involution"]["pass"]

    def test_verification_only_writes_no_trace(self, tmp_path):
        scn = parse_scenario(SCENARIOS / "verify_only.json")
        report = run_scenario(scn, out_dir=tmp_path)
        assert report["status"] == "pass"
        assert "margins" in report
        assert not (tmp_path / "trace.csv").exists()
        assert (tmp_path / "report.json").exists()

    def test_determinism_excluding_wall_clock(self):
        scn = parse_scenario(SCENARIOS / "verify_only.json")
        a = run_scenario(scn)
        b = run_scenario(scn)
        a.pop("wall_clock"), b.pop("wall_clock")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_side_mismatch_rejected(self):
        with pytest.raises(ScenarioValidationError, match="side"):
            scenario_from_dict(minimal_doc(
                side="exterior",
                perturbation={"amplitude": 0.05, "epsilon": 0.5, "side": "interior"},
            ))

    def test_module_error_reported(self):
        # truncation below the potential degree trips the aliasing guard
        scn = scenario_from_dict(minimal_doc(
            potential={"kind": "fourier", "magnetic": {"mean": 0.3, "cos": [0.1, 0, 0.2]},
                       "electric": 0.0},
            truncation=2,
        ))
        report = run_scenario(scn)
        assert report["status"] == "error"
        assert report["error"]["type"] == "AliasingError"


class TestVerifySuite:
    def test_single_check(self):
        scn = parse_scenario(SCENARIOS / "verify_only.json")
        report = verify_suite(scn, names=["hardy"])
        assert [c["name"] for c in report["checks"]] == ["hardy_margin"]
        assert report["status"] == "pass"

    def test_two_checks_aggregate(self):
        scn = scenario_from_dict(minimal_doc(sweep_count=10))
        report = verify_suite(scn, names=["diamagnetic", "pohozaev"])
        names = {c["name"] for c in report["checks"]}
        assert names == {"diamagnetic_margin", "pohozaev"}
        assert report["status"] == "pass"

    def test_unknown_name_lists_valid(self):
        scn = scenario_from_dict(minimal_doc())
        with pytest.raises(ScenarioValidationError, match="hardy"):
            verify_suite(scn, names=["nonsense"])


class TestCli:
    def test_run_exit_zero(self, tmp_path):
        code = cli_main(["--config", str(SCENARIOS / "ab_basic.json"),
                         "--out", str(tmp_path), "run"])
        assert code == 0
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "trace.csv").exists()

    def test_spectrum_subcommand(self, tmp_path, capsys):
        code = cli_main(["--config", str(SCENARIOS / "ab_basic.json"),
                         "--out", str(tmp_path), "spectrum"])
        assert code == 0
        doc = json.loads((tmp_path / "spectrum.json").read_text())
        assert set(doc) == {"mu", "blocks", "truncation"}
        assert doc["mu"][0] == pytest.approx(0.09, abs=1e-10)

    def test_solve_subcommand(self, capsys):
        code = cli_main(["--config", str(SCENARIOS / "ab_basic.json"), "solve"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"]

    def test_frequency_subcommand(self, tmp_path):
        code = cli_main(["--config", str(SCENARIOS / "ab_basic.json"),
                         "--out", str(tmp_path), "frequency"])
        assert code == 0
        doc = json.loads((tmp_path / "frequency.json").read_text())
        assert doc["gamma_hat"] == pytest.approx(0.3, abs=1e-5)
        assert (tmp_path / "trace.csv").exists()

    def test_asymptotics_subcommand(self, capsys):
        code = cli_main(["--config", str(SCENARIOS / "ab_basic.json"), "asymptotics"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"gamma", "k0", "block", "beta", "R", "side", "regularity"}

    def test_kelvin_subcommand(self, capsys):
        code = cli_main(["--config", str(SCENARIOS / "exterior_kelvin.json"), "kelvin"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["conjugacy_residual"] < 1e-8
        assert doc["involution_residual"] < 1e-12

    def test_verify_check_routing(self, capsys):
        code = cli_main(["--config", str(SCENARIOS / "verify_only.json"),
                         "verify", "--check", "hardy"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in doc["checks"]] == ["hardy_margin"]

    def test_verify_unknown_check_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--config", str(SCENARIOS / "verify_only.json"),
                      "verify", "--check", "bogus"])
        assert exc.value.code == 2

    def test_missing_config_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--config", str(tmp_path / "absent.json"), "run"])
        assert exc.value.code == 2

    def test_seed_override_changes_echo(self, capsys):
        code = cli_main(["--config", str(SCENARIOS / "verify_only.json"),
                         "--seed", "7", "verify", "--check", "mu1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scenario"]["seed"] == 7

    def test_all_zero_boundary_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps(minimal_doc(boundary={"values": {"1": 0.0}})))
        with pytest.raises(SystemExit) as exc:
            cli_main(["--config", str(cfg), "run"])
        assert exc.value.code == 2
        assert "nonzero" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--seed", "-3", "run"], ["--seed", "-3", "verify"],
        ["--tol-scale", "nan", "run"], ["--tol-scale", "inf", "run"],
        ["--tol-scale", "-1", "run"], ["--tol-scale", "0", "verify"],
    ], ids=["seed_run", "seed_verify", "tol_nan", "tol_inf", "tol_negative", "tol_zero"])
    def test_bad_flag_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--config", str(SCENARIOS / "verify_only.json"), *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("emlab: ")

    def test_tol_scale_loosens(self, capsys):
        # absurdly large factor cannot turn a pass into a fail
        code = cli_main(["--config", str(SCENARIOS / "ab_basic.json"),
                         "--tol-scale", "100", "run"])
        assert code == 0


def _cli_json(capsys, scenario: str, *argv) -> dict:
    code = cli_main(["--config", str(SCENARIOS / scenario), *argv])
    assert code == 0
    return json.loads(capsys.readouterr().out)


def _without_wall_clock(report: dict) -> str:
    return json.dumps({k: v for k, v in report.items() if k != "wall_clock"},
                      sort_keys=True)


class TestOnePipeline:
    """run, verify and every CLI subcommand read one definition of each stage."""

    @pytest.mark.parametrize("command,key", [("spectrum", "spectrum"),
                                             ("frequency", "frequency"),
                                             ("asymptotics", "profile")])
    def test_subcommand_equals_run_section(self, ab_basic_report, capsys, command, key):
        _, out = ab_basic_report
        on_disk = json.loads((out / "report.json").read_text())
        assert _cli_json(capsys, "ab_basic.json", command) == on_disk[key]

    def test_kelvin_subcommand_equals_run_checks(self, capsys):
        report = run_scenario(parse_scenario(SCENARIOS / "exterior_kelvin.json"))
        by_name = {c["name"]: c["value"] for c in report["checks"]}
        doc = _cli_json(capsys, "exterior_kelvin.json", "kelvin")
        assert doc == {"involution_residual": by_name["kelvin_involution"],
                       "conjugacy_residual": by_name["kelvin_conjugacy"]}

    def test_verify_solves_the_field_once(self, monkeypatch):
        calls = []
        solve = emlab.scenario.solve_perturbed_field

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(emlab.scenario, "solve_perturbed_field", counting)
        report = verify_suite(parse_scenario(SCENARIOS / "ab_basic.json"),
                              names=["pohozaev", "height_derivative"])
        assert report["status"] == "pass"
        assert [c["name"] for c in report["checks"]] == ["height_derivative", "pohozaev"]
        assert len(calls) == 1

    def test_verify_order_does_not_matter(self):
        scn = scenario_from_dict(minimal_doc(sweep_count=10))
        a = verify_suite(scn, names=["diamagnetic", "hardy"])
        b = verify_suite(scn, names=["hardy", "diamagnetic"])
        assert _without_wall_clock(a) == _without_wall_clock(b)
        assert [c["name"] for c in a["checks"]] == ["hardy_margin", "diamagnetic_margin"]


class TestModalFirst:
    def test_dipole_run_reads_no_nodal_array(self, monkeypatch):
        def no_samples(*args, **kwargs):
            raise AssertionError("nodal samples built")

        monkeypatch.setattr(AngularSpectrum, "psi_values", no_samples)
        monkeypatch.setattr(AngularSpectrum, "psi_gradient", no_samples)
        report = run_scenario(parse_scenario(SCENARIOS / "dipole.json"))
        assert report["status"] == "pass"

    def test_3d_hardy_sweep_uses_the_pipeline_spectrum(self, monkeypatch):
        calls = []
        eig = emlab.angular.eigendecompose

        def counting(*args, **kwargs):
            calls.append(args[1])
            return eig(*args, **kwargs)

        monkeypatch.setattr(emlab.angular, "eigendecompose", counting)
        scn = scenario_from_dict({
            "potential": {"kind": "dipole", "strength": 1.0, "axis": [0, 0, 1]},
            "truncation": 16, "sweep_count": 2,
            "checks": {"frequency": False, "identities": False, "asymptotics": False,
                       "inequalities": True},
        })
        report = run_scenario(scn)
        assert report["status"] == "pass"
        assert [c["name"] for c in report["checks"]] == ["hardy_margin", "diamagnetic_margin"]
        assert len(calls) == 1

    def test_2d_inequality_run_makes_four_spectra(self, monkeypatch):
        # the pipeline's, two for the mu1 comparison and one for the Hardy
        # constant check; the hardy2d sweep needs only the closed form
        calls = []
        eig = emlab.angular.eigendecompose

        def counting(*args, **kwargs):
            calls.append(args[1])
            return eig(*args, **kwargs)

        monkeypatch.setattr(emlab.angular, "eigendecompose", counting)
        scn = scenario_from_dict(minimal_doc(
            sweep_count=2,
            checks={"frequency": False, "identities": False, "asymptotics": False,
                    "inequalities": True},
        ))
        report = run_scenario(scn)
        assert report["status"] == "pass"
        assert "hardy2d_margin" in [c["name"] for c in report["checks"]]
        assert len(calls) == 4


def run_cli(tmp_path, doc):
    """``emlab --config <doc> run`` in a fresh interpreter."""
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(doc))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-m", "emlab.cli", "--config", str(cfg), "run"],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("over", [
    {"sweep_count": 0},
    {"eigen_count": 500},
    {"potential": {"kind": "aharonov_bohm", "alpha": "abc"}},
    {"grid": {"nodes": "many"}},
    {"seed": "x"},
    {"radii": [5.0, 10.0]},
    {"grid": {"rmin_ratio": 0.01}},
    {"side": "exterior", "grid": {"exterior_span": 100}},
    {"boundary": 5},
    {"grid": 5},
    {"checks": []},
    {"boundary": {"values": [1]}},
    {"perturbation": {"angular": "x"}},
    {"radii": []},
    {"potential": {"kind": "fourier", "magnetic": "x"}},
    {"dimension": 3, "potential": {"kind": "dipole", "axis": "x"}},
], ids=["sweep_count", "eigen_count", "alpha", "nodes", "seed", "radii",
        "default_radii_inside", "default_radii_outside", "boundary", "grid", "checks",
        "boundary_values", "perturbation_angular", "empty_radii", "fourier_magnetic",
        "dipole_axis"])
def test_malformed_scenario_exits_2_with_a_message(tmp_path, over):
    proc = run_cli(tmp_path, minimal_doc(**over))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("emlab: ")


def test_overflowing_potential_ends_in_an_error_report(tmp_path):
    proc = run_cli(tmp_path, minimal_doc(
        potential={"kind": "aharonov_bohm", "alpha": 1e200}, grid={"nodes": 100}))
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["status"] == "error"
    assert report["error"]["type"] == "NumericalFailureError"


def test_overflowing_fourier_potential_warns_nothing(tmp_path):
    proc = run_cli(tmp_path, minimal_doc(
        potential={"kind": "fourier", "magnetic": {"cos": [1e308, 1e308]}},
        grid={"nodes": 100}))
    assert proc.returncode == 1, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["status"] == "error"
    assert report["error"]["type"] == "NumericalFailureError"


SHIPPED = [json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))]
#: entries of a scenario document, as key paths, that mutations replace or drop
PATHS = [(k,) for k in sorted({k for d in SHIPPED for k in d} | {"radii", "truncation", "grid"})]
PATHS += [("potential", k) for k in ("kind", "alpha", "a0", "strength", "axis")]
PATHS += [("perturbation", k) for k in ("amplitude", "epsilon", "side", "angular")]
PATHS += [("boundary", "radius"), ("boundary", "values"), ("boundary", "values", "1")]
PATHS += [("grid", k) for k in ("nodes", "rmin_ratio", "exterior_span")]
PATHS += [("checks", k) for k in (*DEFAULT_CHECKS, "bogus")]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_scenarios(draw, paths=PATHS, least=1):
    """A shipped scenario with ``least`` to three entries replaced or dropped."""
    doc = json.loads(json.dumps(draw(st.sampled_from(SHIPPED))))
    for _ in range(draw(st.integers(least, 3))):
        *parents, key = draw(st.sampled_from(paths))
        node = doc
        for name in parents:
            if not isinstance(node.get(name), dict):
                node[name] = {}
            node = node[name]
        if draw(st.booleans()):
            node.pop(key, None)
        else:
            node[key] = draw(JSON_VALUES)
    return doc


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(doc=mutated_scenarios() | JSON_VALUES)
def test_any_document_parses_or_is_rejected(doc):
    try:
        scn = scenario_from_dict(doc)
    except ScenarioValidationError:
        return
    assert isinstance(scn, Scenario)
    scenario_hash(scn)


#: entries that set the size of a run; nothing bounds them before allocation
#: yet, so the run test draws them small instead of mutating them
SIZES = {("grid", "nodes"): st.integers(100, 200), ("truncation",): st.integers(1, 8),
         ("eigen_count",): st.integers(1, 8), ("sweep_count",): st.integers(1, 3)}
RUN_PATHS = [p for p in PATHS if p not in SIZES and p != ("grid",)]


@st.composite
def small_runs(draw):
    """A mutated shipped scenario with small sizes."""
    doc = draw(mutated_scenarios(RUN_PATHS, least=0))
    for (*parents, key), size in SIZES.items():
        node = doc
        for name in parents:
            node = node.setdefault(name, {})
        node[key] = draw(size)
    return doc


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(doc=small_runs())
def test_any_small_run_reports_a_status_or_is_rejected(doc):
    try:
        report = run_scenario(scenario_from_dict(doc))
    except ScenarioValidationError:
        return
    assert report["status"] in ("pass", "fail", "error")


class TestTolScale:
    def test_every_tolerance_scales(self):
        scn = parse_scenario(SCENARIOS / "ab_basic.json")
        scn = scenario_from_dict({**scn.raw, "sweep_count": 5,
                                  "checks": dict.fromkeys(DEFAULT_CHECKS, True)})
        report = run_scenario(scn, tol_scale=2.0)
        rows = {c["name"]: c["tolerance"] for c in report["checks"]}
        assert {"eps_rate", "h_scaling_drift", "blowup_rate", "kelvin_conjugacy",
                "hardy_margin", "mu1_comparison"} <= set(rows)
        assert rows.pop("picard_converged") == 0.5
        for name, tol in rows.items():
            key = "margin" if name.endswith("_margin") else name
            assert tol == TOLERANCES[key] * 2.0, name


def test_cli_imports_no_private_names():
    tree = ast.parse((ROOT / "src" / "emlab" / "cli.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    private = [name for name in imported
               if any(part.startswith("_") for part in name.split("."))]
    assert private == []
