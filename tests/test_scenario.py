import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import emlab.angular
import emlab.frequency
import emlab.scenario
from emlab.angular import AngularSpectrum
from emlab.asymptotics import kelvin_transform
from emlab.cli import main as cli_main
from emlab.errors import ScenarioValidationError
from emlab.inequalities import hardy_2d_constant_check, mu1_comparison
from emlab.modal import FieldSample, PerturbationSpec
from emlab.scenario import (
    DEFAULT_CHECKS,
    SCHEMA_VERSION,
    Pipeline,
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

    @pytest.mark.parametrize("entry,value", [
        ("amplitude", float("nan")), ("amplitude", [0, float("inf")]), ("amplitude", "x"),
        ("epsilon", float("inf")), ("epsilon", -1.0), ("side", "x"), ("angular", [1, 2]),
    ])
    def test_perturbation_errors_name_the_entry(self, entry, value):
        with pytest.raises(ScenarioValidationError, match=rf"^perturbation\.{entry}"):
            scenario_from_dict(minimal_doc(perturbation={"amplitude": 0.05, entry: value}))

    def test_pipeline_field_carries_the_scenario_perturbation(self):
        doc = json.loads((SCENARIOS / "ab_basic.json").read_text())
        field, info = Pipeline(scenario_from_dict(doc)).solution
        assert field.perturbation == PerturbationSpec(amplitude=0.05, epsilon=0.5)
        assert info["iterations"] > 1
        doc["perturbation"]["amplitude"] = 0
        field, info = Pipeline(scenario_from_dict(doc)).solution
        assert field.perturbation is None and info["iterations"] == 0

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

    def test_nodal_budget_edge(self):
        # 2-d, T = 63: 256 angular nodes of 16 B, 4 KiB per radial node
        nodes = emlab.scenario.NODAL_ARRAY_BUDGET // 4096
        scenario_from_dict(minimal_doc(truncation=63, grid={"nodes": nodes}))
        with pytest.raises(ScenarioValidationError, match="over the budget"):
            scenario_from_dict(minimal_doc(truncation=63, grid={"nodes": nodes + 1}))

    @pytest.mark.parametrize("doc", [
        minimal_doc(grid={"nodes": 10**9}),
        minimal_doc(truncation=10**9),
        {"potential": {"kind": "dipole"}, "grid": {"nodes": 9000}},
        {"potential": {"kind": "dipole"}, "truncation": 10**6},
    ], ids=["radial", "circle", "sphere_default", "sphere"])
    def test_nodal_budget_is_checked_without_allocating(self, doc):
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioValidationError, match="over the budget"):
                scenario_from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("doc", [
        minimal_doc(potential={"kind": "fourier", "magnetic": {"mean": 0.3, "cos": [0.1]}},
                    truncation=4000, grid={"nodes": 100}),
    ], ids=["circle"])
    def test_galerkin_budget_is_checked_without_allocating(self, doc):
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioValidationError, match="dense matrix .* over the budget"):
                scenario_from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("doc", [
        {"potential": {"kind": "dipole", "axis": [0, 0, 1]}, "truncation": 200,
         "grid": {"nodes": 100}},
        {"potential": {"kind": "dipole", "axis": [1, 0, 0]}, "truncation": 60,
         "grid": {"nodes": 100}},
        minimal_doc(truncation=4000, grid={"nodes": 100}),
        # the dipole's largest dense matrix at T = 200 is 201 x 201: the
        # tables bound it first, whatever the axis
        {"potential": {"kind": "dipole", "axis": [1, 1, 1]}, "truncation": 200,
         "grid": {"nodes": 100}},
        {"potential": {"kind": "dipole", "axis": [1, 0, 0]}, "truncation": 200,
         "grid": {"nodes": 100}},
    ], ids=["dipole_z", "dipole_x", "constant_circle", "dipole_xyz_200", "dipole_x_200"])
    def test_basis_table_budget_is_checked_without_allocating(self, doc):
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioValidationError,
                               match="angular basis tables .* over the budget"):
                scenario_from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_basis_table_budget_edge(self):
        # three real tables of (2T + 2)^2 x (T + 1)^2 entries: T = 39 fits
        doc = {"potential": {"kind": "dipole", "axis": [0, 0, 1]}, "grid": {"nodes": 100}}
        scenario_from_dict({**doc, "truncation": 39})
        with pytest.raises(ScenarioValidationError, match="angular basis tables"):
            scenario_from_dict({**doc, "truncation": 40})

    @pytest.mark.parametrize("doc", [
        minimal_doc(sweep_count=10**8),
        {"potential": {"kind": "dipole"}, "sweep_count": 10**8},
    ], ids=["circle", "sphere"])
    def test_sweep_budget_is_checked_without_allocating(self, doc):
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioValidationError, match="sweep of .* over the budget"):
                scenario_from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("doc,per_function", [
        (minimal_doc(), 68 * 16 * 2),  # g and one derivative on 68 circle nodes
        ({"potential": {"kind": "dipole"}}, 324 * 16 * 3),  # g and two on 18^2 nodes
    ], ids=["circle", "sphere"])
    def test_sweep_budget_edge(self, doc, per_function):
        count = emlab.scenario.NODAL_ARRAY_BUDGET // per_function
        assert scenario_from_dict({**doc, "sweep_count": count}).sweep_count == count
        with pytest.raises(ScenarioValidationError, match="sweep of"):
            scenario_from_dict({**doc, "sweep_count": count + 1})

    def test_constant_circle_potential_builds_no_galerkin_matrix(self):
        # solved on its diagonal: only its basis tables bound its truncation,
        # two complex tables of 4(T + 1) x (2T + 1) entries: T = 1023 fits
        scenario_from_dict(minimal_doc(truncation=1023, grid={"nodes": 100}))
        with pytest.raises(ScenarioValidationError, match="angular basis tables"):
            scenario_from_dict(minimal_doc(truncation=1024, grid={"nodes": 100}))

    @pytest.mark.parametrize("toggle", ["false", 0, 1.0, None, [True]])
    def test_check_toggles_are_json_booleans(self, toggle):
        with pytest.raises(ScenarioValidationError, match=r"^checks\.frequency must be true or"):
            scenario_from_dict(minimal_doc(checks={"frequency": toggle}))

    @pytest.mark.parametrize("over,named", [
        ({"eigen_count": 2.7}, "eigen_count"), ({"truncation": 12.5}, "truncation"),
        ({"grid": {"nodes": 300.9}}, "grid.nodes"), ({"sweep_count": 3.5}, "sweep_count"),
        ({"seed": 1.5}, "seed"),
    ], ids=["eigen_count", "truncation", "grid_nodes", "sweep_count", "seed"])
    def test_integer_entries_take_no_fraction(self, over, named):
        with pytest.raises(ScenarioValidationError, match=rf"^{named} must be an integer"):
            scenario_from_dict(minimal_doc(**over))

    def test_integral_numbers_count_as_integers(self):
        scn = scenario_from_dict(minimal_doc(eigen_count=4.0, grid={"nodes": 300.0}))
        assert (scn.eigen_count, scn.grid_nodes) == (4, 300)
        assert isinstance(scn.eigen_count, int) and isinstance(scn.grid_nodes, int)

    @pytest.mark.parametrize("over,named", [
        ({"seed": True}, "seed"), ({"radii": [0.5, True]}, r"radii\[1\]"),
        ({"eigen_count": True}, "eigen_count"),
        ({"boundary": {"values": {"1": [True, 0]}}}, r"boundary\.values\.1\[0\]"),
        ({"perturbation": {"amplitude": 0.05, "epsilon": True}}, r"perturbation\.epsilon"),
        ({"potential": {"kind": "aharonov_bohm", "alpha": True}}, r"potential\.alpha"),
        ({"dimension": 3, "potential": {"kind": "dipole", "axis": [True, 0, 0]}},
         r"potential\.axis\[0\]"),
    ], ids=["seed", "radius", "eigen_count", "boundary_value", "epsilon", "alpha", "axis"])
    def test_booleans_are_not_numbers(self, over, named):
        with pytest.raises(ScenarioValidationError, match=rf"^{named} must not be a boolean"):
            scenario_from_dict(minimal_doc(**over))

    @pytest.mark.parametrize("over,named", [
        ({"potential": {"kind": "aharonov_bohm", "alpha": "0.3"}}, r"potential\.alpha"),
        ({"grid": {"nodes": "300"}}, r"grid\.nodes"), ({"seed": "7"}, "seed"),
        ({"boundary": {"values": {"1": "1"}}}, r"boundary\.values\.1"),
        ({"dimension": 3, "potential": {"kind": "dipole", "axis": [0, 0, "1"]}},
         r"potential\.axis\[2\]"),
        ({"perturbation": {"amplitude": "0.05"}}, r"perturbation\.amplitude"),
        ({"radii": [0.1, "0.2"]}, r"radii\[1\]"), ({"label": "x"}, "label"),
    ], ids=["alpha", "nodes", "seed", "boundary_value", "axis", "amplitude", "radius",
            "unknown_entry"])
    def test_strings_are_not_numbers(self, over, named):
        with pytest.raises(ScenarioValidationError, match=rf"^{named} must not be a string"):
            scenario_from_dict(minimal_doc(**over))

    def test_angular_factor_on_a_sphere_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"dimension": 3, "potential": {"kind": "dipole"},
                                   "perturbation": {"amplitude": 0.05,
                                                    "angular": {"cos": [1.0]}}}))
        with pytest.raises(SystemExit) as exc:
            cli_main(["--config", str(cfg), "run"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("emlab: perturbation.angular")

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

    def test_exterior_regularity_agrees_with_the_profile(self):
        # outside the ball both classify the Kelvin image at the origin
        report = run_scenario(parse_scenario(SCENARIOS / "exterior_kelvin.json"))
        assert report["regularity"] == report["profile"]["regularity"]
        assert report["regularity"]["label"] == "holder"

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

    def test_empty_check_list_is_rejected(self):
        scn = scenario_from_dict(minimal_doc())
        with pytest.raises(ScenarioValidationError, match="no check named.*hardy"):
            verify_suite(scn, names=[])

    def test_seed_keeps_the_other_fields(self):
        scn = replace(parse_scenario(SCENARIOS / "verify_only.json"), sweep_count=3)
        report = verify_suite(scn, names=["hardy"], seed=scn.seed)
        assert report["margins"]["hardy"]["count"] == 3
        assert report["scenario"]["sweep_count"] == 3


#: the subcommands that report one pipeline stage
FIELD_COMMANDS = ("spectrum", "solve", "frequency", "asymptotics", "kelvin")


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

    @pytest.mark.parametrize("checks", [",", "", " , "])
    def test_verify_empty_check_list_is_usage_error(self, checks, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--config", str(SCENARIOS / "verify_only.json"),
                      "verify", "--check", checks])
        assert exc.value.code == 2
        assert "no check named" in capsys.readouterr().err

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

    @pytest.mark.parametrize("shipped, over, named", [
        ("ab_basic.json", {"grid": {"rmin_ratio": 1e-3}, "radii": [0.01, 0.1, 0.5]},
         "radii 0.0001, "),
        ("exterior_kelvin.json", {"grid": {"exterior_span": 50}, "radii": [1.1, 1.3, 1.8]},
         "radii 100, "),
        ("ab_basic.json", {"perturbation": None, "grid": {"rmin_ratio": 0.6},
                           "radii": [0.7, 0.9]}, "radii 0.5 "),
    ], ids=["blowup_inside", "blowup_outside", "second_radius"])
    def test_asymptotics_radii_off_the_grid_are_usage_errors(self, tmp_path, capsys,
                                                             shipped, over, named):
        doc = {**json.loads((SCENARIOS / shipped).read_text()), **over,
               "checks": {**dict.fromkeys(DEFAULT_CHECKS, False), "asymptotics": True}}
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            cli_main(["--config", str(cfg), "run"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("emlab: ") and "Traceback" not in err
        assert named in err and "grid [" in err

    def test_unperturbed_asymptotics_reads_no_blowup_radii(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(minimal_doc(
            grid={"rmin_ratio": 1e-3, "nodes": 400}, radii=[0.01, 0.1, 0.5],
            checks={**dict.fromkeys(DEFAULT_CHECKS, False), "asymptotics": True})))
        assert cli_main(["--config", str(cfg), "run"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "pass"

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

    @pytest.mark.parametrize("command", ["run", "verify", *FIELD_COMMANDS])
    def test_out_naming_a_file_is_usage_error(self, tmp_path, capsys, command):
        afile = tmp_path / "afile"
        afile.write_text("kept")
        for out in (afile, afile / "sub"):
            with pytest.raises(SystemExit) as exc:
                cli_main(["--config", str(SCENARIOS / "verify_only.json"),
                          "--out", str(out), command])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("emlab: ") and err.count("\n") == 1
        assert afile.read_text() == "kept"

    @pytest.mark.parametrize("command", FIELD_COMMANDS)
    @pytest.mark.parametrize("argv", [["--seed", "-3"], ["--tol-scale", "nan"],
                                      ["--tol-scale", "0"]],
                             ids=["seed", "tol_nan", "tol_zero"])
    def test_bad_flag_is_usage_error_for_every_command(self, capsys, command, argv):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--config", str(SCENARIOS / "ab_basic.json"), *argv, command])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("emlab: ") and err.count("\n") == 1

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

    @pytest.mark.parametrize("side", ["interior", "exterior"])
    @pytest.mark.parametrize("kelvin,passes", [(True, 2), (False, 1)],
                             ids=["kelvin", "no kelvin"])
    def test_one_height_and_energy_pass_per_field(self, side, kelvin, passes, monkeypatch):
        # the frequency and identity blocks read one trace of u; the Kelvin
        # block adds the trace of K(u)
        calls = []
        density = emlab.frequency._energy_density

        def counting(*args):
            calls.append(1)
            return density(*args)

        monkeypatch.setattr(emlab.frequency, "_energy_density", counting)
        report = run_scenario(scenario_from_dict({
            "dimension": 2,
            "potential": {"kind": "aharonov_bohm", "alpha": 0.35, "a0": 0.0},
            "perturbation": {"amplitude": 0.05, "epsilon": 0.7, "side": side},
            "side": side,
            "checks": dict.fromkeys(DEFAULT_CHECKS, True) | {"inequalities": False,
                                                             "kelvin": kelvin},
        }))
        assert report["status"] == "pass"
        names = {c["name"] for c in report["checks"]}
        assert {"gamma_fit", "height_derivative", "pohozaev"} <= names
        assert ("kelvin_conjugacy" in names) == kelvin
        assert len(calls) == passes

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

    @pytest.mark.parametrize("scenario,angular", [
        ("ab_basic.json", None), ("exterior_kelvin.json", None),
        ("ab_basic.json", {"cos": [1.0]}), ("exterior_kelvin.json", {"cos": [1.0]}),
    ], ids=["interior", "exterior", "interior cos", "exterior cos"])
    def test_picard_run_builds_values_arrays_only_with_several_modes(self, scenario, angular,
                                                                     monkeypatch):
        built = []
        for name in ("values", "du_dr", "angular_gradient"):
            lazy = vars(FieldSample)[name]  # a cached_property

            def counting(field, func=lazy.func, attr=name):
                built.append(attr)
                return func(field)

            monkeypatch.setattr(lazy, "func", counting)
        sums = []

        def counting_sum(*args):
            out = outer_sum(*args)
            sums.append(out.shape)
            return out

        outer_sum = emlab.modal._outer_sum
        monkeypatch.setattr(emlab.modal, "_outer_sum", counting_sum)
        doc = json.loads((SCENARIOS / scenario).read_text())
        doc["checks"] = {"frequency": True, "identities": True, "asymptotics": True,
                         "kelvin": True}
        if angular is not None:
            doc["perturbation"] = {**doc["perturbation"], "angular": angular}
        report = run_scenario(scenario_from_dict(doc))
        assert {"kelvin_involution", "blowup_rate"} <= {c["name"] for c in report["checks"]}
        n = report["solver"]["iterations"]
        n_r = scenario_from_dict(doc).grid_nodes
        # every nodal sum over the whole grid is a lazy values array
        whole = [shape for shape in sums if shape[0] == n_r]
        assert n > 1 and len(whole) == len(built)
        if angular is None:
            # one mode: each forcing projection sums the values by row blocks,
            # every row once, and nothing is summed after the loop but the
            # blow-up rows (8 of them)
            assert report["status"] == "pass"
            assert built == []
            assert sum(shape[0] for shape in sums if shape[0] != 8) == n * n_r
        else:
            # several modes: the start and every iterate, whose values the
            # residual reads, and K(K(u)) for the involution, as in the
            # nodal loop
            assert built == ["values"] * (n + 2)

    @pytest.mark.parametrize("doc", [
        json.loads((SCENARIOS / "exterior_kelvin.json").read_text()),
        {**json.loads((SCENARIOS / "ab_basic.json").read_text()),
         "perturbation": {"amplitude": 0.05, "epsilon": 0.5, "angular": {"cos": [1.0]}}},
        {"dimension": 3, "potential": {"kind": "dipole", "strength": 1.0, "axis": [1, 0, 0]},
         "boundary": {"values": {"1": 1.0, "2": 0.3, "4": [0, 0.2]}},
         "truncation": 8, "grid": {"nodes": 2000}},
    ], ids=["exterior", "interior cos", "dipole"])
    def test_kelvin_involution_equals_the_nodal_form(self, doc):
        pipe = Pipeline(scenario_from_dict(doc))
        field = pipe.solution[0]
        back = kelvin_transform(kelvin_transform(field))
        nodal = float(np.abs(back.values - field.values).max()
                      / max(np.abs(field.values).max(), 1e-300))
        assert abs(pipe.kelvin[0] - nodal) <= 1e-15

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

    def test_2d_inequality_run_makes_two_spectra(self, monkeypatch):
        # the pipeline's, which the Hardy sweep, the mu1 comparison and the
        # Hardy constant check (a = 0) share, and the magnetic-free one for
        # the mu1 comparison; the hardy2d sweep needs only the closed form
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
        assert len(calls) == 2

    def test_electric_term_adds_the_electric_free_spectrum(self, monkeypatch):
        # with a0 != 0 the Hardy constant check needs its own operator
        calls = []
        eig = emlab.angular.eigendecompose

        def counting(*args, **kwargs):
            calls.append(args[1])
            return eig(*args, **kwargs)

        monkeypatch.setattr(emlab.angular, "eigendecompose", counting)
        scn = scenario_from_dict(minimal_doc(
            potential={"kind": "aharonov_bohm", "alpha": 0.3, "a0": 0.1}, sweep_count=2,
            checks={"frequency": False, "identities": False, "asymptotics": False,
                    "inequalities": True},
        ))
        report = run_scenario(scn)
        assert report["status"] == "pass"
        assert "hardy2d_agreement" in [c["name"] for c in report["checks"]]
        assert len(calls) == 3

    @pytest.mark.parametrize("potential", [
        {"kind": "aharonov_bohm", "alpha": 0.3, "a0": 0.0},
        {"kind": "aharonov_bohm", "alpha": 0.3, "a0": 0.1},
        {"kind": "fourier", "magnetic": {"mean": 0.3, "cos": [0.2], "sin": [0.0, 0.1]}},
    ], ids=["ab", "ab_electric", "fourier"])
    def test_shared_spectrum_gives_the_standalone_values(self, potential):
        report = run_scenario(scenario_from_dict(minimal_doc(
            potential=potential, sweep_count=2,
            checks={"frequency": False, "identities": False, "asymptotics": False,
                    "inequalities": True},
        )))
        pot = emlab.angular.build_potential(potential)
        value = {c["name"]: c["value"] for c in report["checks"]}["mu1_comparison"]
        standalone = emlab.angular.angular_spectrum(pot, count=1)
        assert value == mu1_comparison(standalone)
        assert report["margins"]["hardy2d_constant"] == hardy_2d_constant_check(standalone)


def source_env() -> dict:
    """The environment of a fresh interpreter that imports emlab from src."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}


def run_cli(tmp_path, doc, command="run"):
    """``emlab --config <doc> <command>`` in a fresh interpreter."""
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(doc))
    return subprocess.run([sys.executable, "-m", "emlab.cli", "--config", str(cfg), command],
                          capture_output=True, text=True, env=source_env(), timeout=120)


def test_shipped_runs_import_no_scipy_integrate():
    # radial quadrature is emlab's own (grids._cumulative_simpson)
    code = ("import sys, emlab\n"
            f"for path in {sorted(str(p) for p in SCENARIOS.glob('*.json'))!r}:\n"
            "    emlab.run_scenario(emlab.parse_scenario(path))\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=source_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_scipy_optimize_loads_with_the_first_limit_fit():
    # emlab runs on numpy alone, except that curve_fit is imported by the fit
    # of N's limit: importing emlab, a run without a frequency block and the
    # spectrum subcommand load no scipy module; ab_basic, which fits, loads
    # scipy.optimize
    verify_only, ab_basic, dipole = (str(SCENARIOS / f"{name}.json")
                                     for name in ("verify_only", "ab_basic", "dipole"))
    code = ("import contextlib, io, sys, emlab\n"
            "from emlab.cli import main\n"
            "def scipy():\n"
            "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "seen = [scipy()]\n"
            f"emlab.run_scenario(emlab.parse_scenario({verify_only!r}))\n"
            "seen.append(scipy())\n"
            f"for path in ({ab_basic!r}, {dipole!r}):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        main(['--config', path, 'spectrum'])\n"
            "    seen.append(scipy())\n"
            f"emlab.run_scenario(emlab.parse_scenario({ab_basic!r}))\n"
            "seen.append('scipy.optimize' in sys.modules)\n"
            "print(seen)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=source_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[[], [], [], [], True]"


def test_huge_dipole_axis_is_normalized_without_overflow(tmp_path):
    spectra = []
    for axis in ([1e308, 1e308, 0], [1, 1, 0]):
        doc = {"dimension": 3, "eigen_count": 3,
               "potential": {"kind": "dipole", "strength": 1.0, "axis": axis}}
        proc = run_cli(tmp_path, doc, "spectrum")
        assert proc.returncode == 0
        assert proc.stderr == ""
        spectra.append(json.loads(proc.stdout))
    assert spectra[0] == spectra[1]
    assert spectra[0]["mu"] == pytest.approx([-0.15766, 1.95033, 1.95033], abs=1e-5)


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
    {"perturbation": {"amplitude": float("nan"), "epsilon": 0.5}},
    {"perturbation": {"amplitude": float("inf"), "epsilon": 0.5}},
    {"truncation": 4000, "grid": {"nodes": 100}},
    # a number given as a JSON string
    {"potential": {"kind": "aharonov_bohm", "alpha": "0.3"}},
    {"grid": {"nodes": "300"}},
    {"seed": "7"},
    {"boundary": {"values": {"1": "1"}}},
    {"dimension": 3, "potential": {"kind": "dipole", "axis": ["0", "0", "1"]}},
    {"perturbation": {"amplitude": "0.05", "epsilon": 0.5}},
    {"radii": [0.1, "0.2"]},
], ids=["sweep_count", "eigen_count", "alpha", "nodes", "seed", "radii",
        "default_radii_inside", "default_radii_outside", "boundary", "grid", "checks",
        "boundary_values", "perturbation_angular", "empty_radii", "fourier_magnetic",
        "dipole_axis", "amplitude_nan", "amplitude_infinity", "circle_basis_tables",
        "alpha_string", "nodes_string", "seed_string", "boundary_value_string",
        "axis_strings", "amplitude_string", "radius_string"])
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


def test_overflowing_perturbation_amplitude_warns_nothing(tmp_path):
    proc = run_cli(tmp_path, minimal_doc(perturbation={"amplitude": 1e300, "epsilon": 0.5}))
    assert proc.returncode == 1, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["status"] == "error"
    assert report["error"]["type"] == "NumericalFailureError"


def test_diverging_picard_run_ends_in_an_error_report(tmp_path):
    # the forcing stays finite, but 50 Picard iterates leave H and D to overflow
    proc = run_cli(tmp_path, {"potential": {"kind": "aharonov_bohm", "alpha": 0.3},
                              "perturbation": {"amplitude": 1e5, "epsilon": 0.5}})
    assert proc.returncode == 1
    assert proc.stderr == ""
    report = json.loads(proc.stdout)
    assert report["status"] == "error"
    assert report["error"]["type"] == "NumericalFailureError"
    assert report["solver"]["converged"] is False


def test_overflowing_exterior_run_writes_nothing_to_stderr(tmp_path):
    # the forcing is finite, but its radial integrals overflow out to 1e8 R
    proc = run_cli(tmp_path, {
        "potential": {"kind": "aharonov_bohm", "alpha": 0.3}, "side": "exterior",
        "perturbation": {"amplitude": 1e10, "epsilon": 0.5, "side": "exterior"}})
    assert proc.returncode == 1
    assert proc.stderr == ""
    report = json.loads(proc.stdout)
    assert report["status"] == "error"
    assert report["error"]["type"] == "NumericalFailureError"


@pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 100000 + b"]" * 100000],
                         ids=["not_utf8", "nested_too_deep"])
def test_unreadable_scenario_file_exits_2_with_a_message(tmp_path, content):
    cfg = tmp_path / "scenario.json"
    cfg.write_bytes(content)
    proc = subprocess.run([sys.executable, "-m", "emlab.cli", "--config", str(cfg), "run"],
                          capture_output=True, text=True, env=source_env(), timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"emlab: {cfg}: ")


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


#: entries that set the size of a run, drawn in ranges that keep the run test
#: quick instead of mutated; the budgets bound them before allocation
SIZES = {("grid", "nodes"): st.integers(100, 200), ("truncation",): st.integers(1, 24),
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


#: the subcommands the CLI property test runs a document through
COMMANDS = ("run", "verify", "spectrum", "solve", "frequency", "asymptotics", "kelvin")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(doc=small_runs() | JSON_VALUES, command=st.sampled_from(COMMANDS))
def test_any_small_document_through_the_cli_exits_0_1_or_2(doc, command):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "scenario.json"
        cfg.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli_main(["--config", str(cfg), command])
            except SystemExit as exc:  # parser.exit: a usage or validation error
                code = exc.code
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


class TestTolScale:
    def test_every_tolerance_scales(self):
        doc = json.loads((SCENARIOS / "ab_basic.json").read_text())
        scn = scenario_from_dict({**doc, "sweep_count": 5,
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
