"""End-to-end CLI behavior: outputs, exit codes, manifests, reproducibility."""

import csv
import errno
import hashlib
import json
import math
import os
import re
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

from tvcsim.cli import _publish, main
from tvcsim import cli, envelope
from tvcsim.config import (
    ConfigError,
    envelope_settings_from_config,
    keyed,
    load_config,
    scenario_from_config,
)
from tvcsim.oracles import wrench_brute_force
from tvcsim.sim import run_scenario
from tvcsim.spatial import quat_from_pitch
from tvcsim.wrench import FanState, total_wrench


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_envelope_writes_csv_per_posture(tmp_path, capsys):
    code, out, _ = run_cli(["--out", str(tmp_path), "envelope",
                            "--postures", "P1,P2,P3"], capsys)
    assert code == 0
    for name in ("P1", "P2", "P3"):
        path = tmp_path / f"envelope_{name}.csv"
        assert path.exists()
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 62  # header + default 61-point sweep
        assert rows[0][0] == "theta_pitch_deg"
    assert "tvc/dt ratio @0deg" in out
    # the ratio claim is auditable: geometry echoed next to every report
    assert "L_f=0.25 m" in out
    for line in out.splitlines():
        if "tvc/dt ratio" in line:
            ratios = [float(tok) for tok in line.replace(",", " ").split()
                      if tok.replace(".", "", 1).isdigit()]
            assert all(r >= 3.0 for r in ratios if r > 1.0)


def test_envelope_manifest_lists_outputs(tmp_path, capsys):
    code, _, _ = run_cli(["--out", str(tmp_path), "envelope", "--postures", "P1"],
                         capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "envelope_manifest.json").read_text())
    assert manifest["tool"] == "tvcsim"
    assert "envelope_P1.csv" in manifest["outputs"]
    assert len(manifest["outputs"]["envelope_P1.csv"]) == 64  # sha256 hex


def test_envelope_unknown_posture_exit_2(tmp_path, capsys):
    code, _, err = run_cli(["--out", str(tmp_path), "envelope", "--postures", "P9"],
                           capsys)
    assert code == 2
    assert "P9" in err


def test_envelope_repeated_posture_exit_2_before_any_solve(tmp_path, capsys, monkeypatch):
    # each label names one output file, so a repeated one is refused up front
    def no_solve(*args):
        raise AssertionError("solved a posture")

    monkeypatch.setattr(envelope, "_level_ratio_and_sweep", no_solve)
    for postures, name in (("P1,P1", "P1"), ("P2, P1,P2", "P2"), ("P3,P1,P1,P3", "P1")):
        out = tmp_path / postures.replace(",", "_").replace(" ", "")
        code, stdout, err = run_cli(["--out", str(out), "envelope", "--postures", postures],
                                    capsys)
        assert (code, stdout) == (2, "")
        assert err == f"error: posture {name} is given twice in --postures\n"
        assert not out.exists() or list(out.iterdir()) == []


def test_takeoff_both_on_events(tmp_path, capsys):
    code, out, _ = run_cli(["--out", str(tmp_path), "takeoff", "--mode", "both-on"],
                           capsys)
    assert code == 0
    events = json.loads((tmp_path / "takeoff_events.json").read_text())
    assert events["altitude_at_2s_m"] >= 1.0
    assert events["max_abs_pitch_deg"] <= 10.0
    assert "liftoff_t=" in out
    log_rows = (tmp_path / "takeoff_log.csv").read_text().splitlines()
    assert log_rows[0].startswith("time_s,px,py,pz")


def test_takeoff_all_off_reports_dive(tmp_path, capsys):
    code, out, _ = run_cli(["--out", str(tmp_path), "takeoff", "--mode", "all-off"],
                           capsys)
    # the dive ends in touchdown before the run's duration: exit 4, outputs kept
    assert code == 4
    assert out.endswith(" [TOUCHDOWN]\n")
    events = json.loads((tmp_path / "takeoff_events.json").read_text())
    assert events["max_abs_pitch_deg"] >= 30.0
    assert events["termination"] == "touchdown"


def test_takeoff_missing_config_exit_2(tmp_path, capsys):
    code, _, err = run_cli(["--config", str(tmp_path / "absent.cfg"),
                            "--out", str(tmp_path), "takeoff"], capsys)
    assert code == 2
    assert "absent.cfg" in err


def test_takeoff_divergence_exit_4_keeps_partial_outputs(tmp_path, capsys):
    cfg = tmp_path / "spin.cfg"
    cfg.write_text("\n".join([
        "mode = pitch-only",
        "perturbation.foot_misalignment_left_deg = 10",
        "perturbation.foot_misalignment_right_deg = -10",
        "sim.duration_s = 4.0",
    ]))
    code, out, _ = run_cli(["--config", str(cfg), "--out", str(tmp_path), "takeoff"],
                           capsys)
    assert code == 4
    assert "[DIVERGED]" in out
    events = json.loads((tmp_path / "takeoff_events.json").read_text())
    assert events["diverged"] is True
    assert (tmp_path / "takeoff_log.csv").exists()


@pytest.mark.parametrize("value", ["1e200", "1e308", "-1e308"])
@pytest.mark.parametrize("axis", "xyz")
def test_an_overflowing_body_rate_is_a_divergence_exit_4(tmp_path, capsys, axis, value):
    # the default 2.5 s run lifts off, and the huge CoM arm overflows omega dt in the
    # first step aloft: euler's rate guard ends the run before its exponential map
    cfg = tmp_path / "offset.cfg"
    cfg.write_text(f"perturbation.com_offset_{axis}_m = {value}\n")
    code, out, err = run_cli(["--config", str(cfg), "--out", str(tmp_path), "takeoff"],
                             capsys)
    assert (code, err) == (4, "")
    assert out.endswith(" [DIVERGED]\n")
    events = json.loads((tmp_path / "takeoff_events.json").read_text())
    assert events["liftoff_time_s"] is not None
    assert events["divergence_reason"].startswith("body rate (")


@pytest.mark.parametrize("command", ["envelope", "takeoff", "trim", "wrench-eval"])
def test_every_command_records_the_seed_option(tmp_path, capsys, command):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("sim.seed = 4\nsim.duration_s = 0.1\nenvelope.n_points = 3\n")
    code, _, _ = run_cli(["--seed", "9", "--config", str(cfg), "--out", str(tmp_path),
                          *COMMANDS[command]], capsys)
    assert code == 0
    name = command.replace("-", "_")
    manifest = json.loads((tmp_path / f"{name}_manifest.json").read_text())
    assert [s["seed"] for s in manifest["resolved_config"]["scenarios"]] == [9]


@pytest.mark.parametrize("command", ["envelope", "takeoff", "trim", "wrench-eval"])
@pytest.mark.parametrize("source", ["option", "config"])
def test_every_command_rejects_a_negative_seed(tmp_path, capsys, command, source):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("sim.seed = -1\n" if source == "config" else "")
    seed = ["--seed", "-1"] if source == "option" else []
    code, out, err = run_cli([*seed, "--config", str(cfg), "--out", str(tmp_path),
                              *COMMANDS[command]], capsys)
    assert (code, out, err) == (2, "", "error: sim.seed: seed must be >= 0, got -1\n")
    assert list(tmp_path.iterdir()) == [cfg]


def test_takeoff_reruns_are_byte_identical(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out_dir in (out_a, out_b):
        code, _, _ = run_cli(["--out", str(out_dir), "takeoff"], capsys)
        assert code == 0
    hashes = []
    for out_dir in (out_a, out_b):
        manifest = json.loads((out_dir / "takeoff_manifest.json").read_text())
        hashes.append(manifest["outputs"])
    assert hashes[0] == hashes[1]
    assert (out_a / "takeoff_log.csv").read_bytes() == (out_b / "takeoff_log.csv").read_bytes()


def test_takeoff_json_format(tmp_path, capsys):
    code, _, _ = run_cli(["--out", str(tmp_path), "--format", "json", "takeoff"],
                         capsys)
    assert code == 0
    data = json.loads((tmp_path / "takeoff_log.json").read_text())
    assert data["header"][0] == "time_s"
    assert len(data["rows"]) > 100


def test_every_json_output_is_canonical(tmp_path, capsys):
    # every JSON file the CLI writes (tables, events and manifests) is
    # json.dumps text with indent=2, sorted keys and a final newline: on the
    # golden cases that write JSON tables and on a default takeoff
    from golden.regen import CASES

    cases = [(name, case) for name, case in CASES.items() if "json" in case[1]]
    files = 0
    for name, (config, argv) in [*cases, ("takeoff_default", (None, ["takeoff"]))]:
        if config is not None:
            (tmp_path / "case.cfg").write_text(config)
            argv = ["--config", str(tmp_path / "case.cfg"), *argv]
        assert run_cli(["--out", str(tmp_path / name), *argv], capsys)[0] == 0
        for path in (tmp_path / name).glob("*.json"):
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True,
                                      allow_nan=False) + "\n", path.name
            files += 1
    assert (len(cases), files) == (3, 9)
    # a non-finite float is refused
    for rows in ([[1.0, math.nan]], [[1.0], [2.0, math.inf]], [[-math.inf]]):
        with pytest.raises(ValueError):
            cli._rows_as_json(["x"], rows)


def test_takeoff_json_refuses_a_non_finite_row_before_writing(tmp_path, capsys, monkeypatch):
    # the guards end a run before a non-finite state is logged; were one logged,
    # the JSON table refuses it and no file, the manifest included, is written
    def run_with_a_nan_row(cfg):
        log = run_scenario(cfg)
        log.rows[-1] = (*log.rows[-1][:-1], math.nan)
        return log

    monkeypatch.setattr(cli, "run_scenario", run_with_a_nan_row)
    code, out, err = run_cli(["--out", str(tmp_path), "--format", "json", "takeoff"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "JSON" in err
    assert list(tmp_path.iterdir()) == []


def test_trim_report(tmp_path, capsys):
    code, out, _ = run_cli(["--out", str(tmp_path), "trim", "--posture", "P1"],
                           capsys)
    assert code == 0
    values = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(values["residual_wrench_norm"]) < 1e-9
    assert float(values["foot_angle_left_deg"]) == pytest.approx(4.686, abs=0.01)


def test_trim_writes_manifest(tmp_path, capsys):
    code, _, _ = run_cli(["--out", str(tmp_path), "trim", "--posture", "P2"], capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "trim_manifest.json").read_text())
    (scenario,) = manifest["resolved_config"]["scenarios"]
    assert scenario["posture"]["name"] == "P2"
    assert manifest["resolved_config"] == {"scenarios": [scenario], "waist_differential": False}
    assert manifest["outputs"] == {}


def test_trim_takes_the_config_posture(tmp_path, capsys):
    code, p2, _ = run_cli(["--out", str(tmp_path / "option"), "trim", "--posture", "P2"],
                          capsys)
    assert code == 0 and "posture=P2\n" in p2
    code, out, _ = run_with_config(tmp_path, capsys, "posture = P2\n", "trim")
    assert (code, out) == (0, p2)
    manifest = json.loads((tmp_path / "trim" / "trim_manifest.json").read_text())
    assert manifest["resolved_config"]["scenarios"][0]["posture"]["name"] == "P2"
    # the option still overrides the file
    code, out, _ = run_cli(["--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path),
                            "trim", "--posture", "P3"], capsys)
    assert code == 0 and out.startswith("posture=P3\n")


def test_wrench_eval_takes_the_config_posture(tmp_path, capsys):
    thrusts = ["--thrust-fl", "40", "--thrust-fr", "40"]
    code, p2, _ = run_cli(["--out", str(tmp_path / "option"), "wrench-eval", "--posture",
                           "P2", *thrusts], capsys)
    assert code == 0 and "ty=0.800000\n" in p2
    cfg = tmp_path / "p2.cfg"
    cfg.write_text("posture = P2\n")
    code, out, _ = run_cli(["--config", str(cfg), "--out", str(tmp_path), "wrench-eval",
                            *thrusts], capsys)
    assert (code, out) == (0, p2)
    manifest = json.loads((tmp_path / "wrench_eval_manifest.json").read_text())
    assert manifest["resolved_config"]["scenarios"][0]["posture"]["name"] == "P2"


def test_envelope_takes_the_config_posture(tmp_path, capsys):
    cfg = tmp_path / "p2.cfg"
    cfg.write_text("posture = P2\nenvelope.n_points = 3\n")
    for postures, expected in (([], ["P2"]), (["--postures", "P1,P3"], ["P1", "P3"])):
        out_dir = tmp_path / "-".join(expected)
        code, out, _ = run_cli(["--config", str(cfg), "--out", str(out_dir), "envelope",
                                *postures], capsys)
        assert code == 0
        assert [line.split(":")[0] for line in out.splitlines()[::2][:-1]] == expected
        manifest = json.loads((out_dir / "envelope_manifest.json").read_text())
        assert [s["posture"]["name"] for s in manifest["resolved_config"]["scenarios"]] \
            == expected
        assert sorted(manifest["outputs"]) == [f"envelope_{name}.csv" for name in expected]


def test_posture_override_through_config(tmp_path, capsys):
    cfg = tmp_path / "sym.cfg"
    cfg.write_text("posture.com_x_m = 0.0\nposture.foot_x_m = 0.0\n")
    code, out, _ = run_cli(["--config", str(cfg), "--out", str(tmp_path),
                            "trim", "--posture", "P1"], capsys)
    assert code == 0
    values = dict(line.split("=", 1) for line in out.strip().splitlines())
    # fore-aft symmetric override trims level with feet straight up
    assert float(values["foot_angle_left_deg"]) == pytest.approx(0.0, abs=1e-9)
    assert float(values["theta_pitch_deg"]) == pytest.approx(0.0, abs=1e-9)


def test_trim_infeasible_exit_3(tmp_path, capsys):
    cfg = tmp_path / "heavy.cfg"
    cfg.write_text("geometry.mass_kg = 25.0\n")
    code, _, err = run_cli(["--config", str(cfg), "--out", str(tmp_path),
                            "trim", "--posture", "P1"], capsys)
    assert code == 3
    assert "infeasible" in err


def test_wrench_eval_hover_zeros(tmp_path, capsys):
    thrust = 17.0 * 9.81 / 4.0
    cfg = tmp_path / "sym.cfg"
    code, out, _ = run_cli([
        "--out", str(tmp_path), "wrench-eval", "--posture", "P1",
        "--thrust-ff", str(thrust), "--thrust-fb", str(thrust),
        "--thrust-fl", str(thrust), "--thrust-fr", str(thrust),
    ], capsys)
    assert code == 0
    values = dict(line.split("=", 1) for line in out.strip().splitlines())
    # symmetric thrusts: zero force/torque except the CoM offset pitch torque
    assert float(values["fx"]) == pytest.approx(0.0, abs=1e-9)
    assert float(values["fz"]) == pytest.approx(0.0, abs=1e-9)
    assert float(values["tx"]) == pytest.approx(0.0, abs=1e-9)
    assert float(values["tz"]) == pytest.approx(0.0, abs=1e-9)


def test_wrench_eval_hand_value(tmp_path, capsys):
    code, out, _ = run_cli([
        "--out", str(tmp_path), "wrench-eval", "--posture", "P1",
        "--thrust-fl", "40", "--thrust-fr", "40",
        "--theta-l", "10", "--theta-r", "10",
    ], capsys)
    assert code == 0
    values = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(values["ty3"]) == pytest.approx(
        -80.0 * math.sin(math.radians(10.0)) * 0.367, abs=1e-6)


@pytest.mark.parametrize("option", ["--thrust-fl=nan", "--theta-pitch=inf", "--theta-r=-inf"])
def test_wrench_eval_rejects_a_non_finite_option(tmp_path, capsys, option):
    code, out, err = run_cli(["--out", str(tmp_path), "wrench-eval", option], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {option.split('=')[0]} must be finite\n"
    assert not (tmp_path / "wrench_eval_manifest.json").exists()


@pytest.mark.parametrize("option", ["--thrust-ff", "--thrust-fb", "--thrust-fl", "--thrust-fr"])
def test_wrench_eval_names_the_option_of_a_negative_thrust(tmp_path, capsys, option):
    # the option, not FanState's field, is what the user typed; -0.0 is kept
    code, out, err = run_cli(["--out", str(tmp_path), "wrench-eval", f"{option}=-5"], capsys)
    assert (code, out, err) == (2, "", f"error: {option} must be >= 0, got -5.0\n")
    assert not (tmp_path / "wrench_eval_manifest.json").exists()
    code, _, err = run_cli(["--out", str(tmp_path), "wrench-eval", f"{option}=-0.0"], capsys)
    assert (code, err) == (0, "")


def test_wrench_eval_rejects_an_overflowing_wrench(tmp_path, capsys):
    # finite options whose thrust sum overflows: no NaN/inf rows and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["--out", str(tmp_path), "wrench-eval",
                                  "--thrust-ff=1e308", "--thrust-fb=1e308"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: the fan state's wrench overflows a float\n"
    assert not (tmp_path / "wrench_eval_manifest.json").exists()


def test_wrench_eval_checks_the_values_it_prints(tmp_path, capsys):
    # the body rows are finite, but upside down the weight takes fz past -1.8e308
    cfg = tmp_path / "heavy.cfg"
    cfg.write_text("geometry.mass_kg = 1e307\n")
    code, out, err = run_cli(["--config", str(cfg), "--out", str(tmp_path / "out"),
                              "wrench-eval", "--thrust-ff=1e308", "--theta-pitch=180"], capsys)
    assert (code, out, err) == (2, "", "error: the fan state's wrench overflows a float\n")
    assert list((tmp_path / "out").iterdir()) == []


def test_wrench_eval_lateral_com_matches_oracle(tmp_path, capsys):
    # with com_y != 0 the roll and yaw rows carry the lateral CoM arm
    cfg = tmp_path / "com_y.cfg"
    cfg.write_text("geometry.com_y_m = 0.02\n")
    code, out, _ = run_cli([
        "--config", str(cfg), "--out", str(tmp_path), "wrench-eval",
        "--thrust-ff", "30", "--thrust-fb", "20", "--thrust-fl", "40", "--thrust-fr", "35",
        "--theta-l", "10", "--theta-r", "-5", "--theta-pitch", "7",
    ], capsys)
    assert code == 0
    values = dict(line.split("=", 1) for line in out.strip().splitlines())
    geo = scenario_from_config(load_config(cfg)[0]).geometry()
    fs = FanState(30.0, 20.0, 40.0, 35.0, math.radians(10.0), math.radians(-5.0))
    theta = math.radians(7.0)
    w = total_wrench(fs, geo, theta)
    _, torque_ref = wrench_brute_force(fs, geo, quat_from_pitch(theta))
    np.testing.assert_allclose(w.torque_world, torque_ref, rtol=0.0, atol=1e-9)
    for name, ref in zip(("tx", "ty", "tz"), torque_ref):
        assert values[name] == f"{ref:.6f}"


def test_degree_radian_boundary_round_trip(tmp_path, capsys):
    # degrees in on the CLI, degrees out in the log columns
    code, _, _ = run_cli(["--out", str(tmp_path), "takeoff"], capsys)
    assert code == 0
    with open(tmp_path / "takeoff_log.csv") as fh:
        rows = list(csv.DictReader(fh))
    cmds = [float(r["theta_L_cmd_deg"]) for r in rows]
    assert all(-90.0 <= c <= 90.0 for c in cmds)
    trims = json.loads((tmp_path / "takeoff_events.json").read_text())
    assert trims["config"]["trim_foot_angle_deg"] == pytest.approx(4.686, abs=0.01)


COMMANDS = {
    "envelope": ["envelope", "--postures", "P1"],
    "takeoff": ["takeoff"],
    "trim": ["trim"],
    "wrench-eval": ["wrench-eval", "--thrust-fl", "40"],
}


def run_with_config(tmp_path, capsys, text, command, name="run.cfg"):
    cfg = tmp_path / name
    cfg.write_text(text)
    out_dir = tmp_path / command
    return run_cli(["--config", str(cfg), "--out", str(out_dir), *COMMANDS[command]],
                   capsys)


@pytest.mark.parametrize("text", [
    "geometry.mass_kg = nan\n",
    "perturbation.com_offset_x_m = inf\n",
    "sim.dt_s = 0.01\n",
    "geometry.mass_kg = -1\n",
    "controller.kp_pitch = 1.0\n",
    "geometry.mass_kgs = 17.0\n",
    "envelope.n_points = 1\n",
    "envelope.theta_pitch_min_deg = 40\n",
    "envelope.min_vertical_force_n = -5\n",
    "sim.dt_s = 0.01\nenvelope.n_points = 1\n",
    "limits.thrust_max_per_fan_n = 41\nenvelope.n_points = 1\n",  # before any solve
])
def test_every_command_rejects_a_bad_file_alike(tmp_path, capsys, text):
    results = {command: run_with_config(tmp_path, capsys, text, command)
               for command in COMMANDS}
    for code, out, err in results.values():
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert len({err for _, _, err in results.values()}) == 1


@pytest.mark.parametrize("floor", ["", "envelope.min_vertical_force_n = 100\n"],
                         ids=["hover_floor", "floor_override"])
def test_every_command_refuses_a_weight_that_overflows(tmp_path, capsys, floor):
    # the robot itself is refused as it is built, before any command's work, so
    # an envelope floor set apart from M g changes nothing
    for command in COMMANDS:
        code, out, err = run_with_config(tmp_path, capsys, "geometry.mass_kg = 1e308\n" + floor,
                                         command)
        assert (code, out) == (2, ""), command
        assert err == ("error: geometry.mass_kg: the weight M g overflows a float at a mass of "
                       "1e+308 kg\n")
        assert list((tmp_path / command).iterdir()) == []


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_rejects_an_out_path_that_is_a_file(tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    code, stdout, err = run_cli(["--out", str(out), *COMMANDS[command]], capsys)
    assert (code, stdout) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot create output directory {out}: ")
    assert out.read_text() == "not a directory\n"


def test_envelope_out_of_memory_is_one_line_exit_2(tmp_path, capsys, monkeypatch):
    # stands in for a huge envelope.n_points: a real allocation could wake the OOM killer
    import tvcsim.envelope

    def sweep(*args):
        raise MemoryError("Unable to allocate 13.4 GiB for an array with shape (200000000, 9)")

    # the command's one solve: the level lane and the sweep in one LP call
    monkeypatch.setattr(tvcsim.envelope, "_level_ratio_and_sweep", sweep)
    code, out, err = run_cli(["--out", str(tmp_path), "envelope", "--postures", "P1"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: envelope.n_points: out of memory: Unable to allocate 13.4 GiB " \
                  "for an array with shape (200000000, 9)\n"
    assert list(tmp_path.iterdir()) == []


def test_thrust_floor_reaches_trim_and_takeoff(tmp_path, capsys):
    text = "limits.thrust_min_n = 45\n"
    for command in ("trim", "takeoff"):
        code, _, err = run_with_config(tmp_path, capsys, text, command)
        assert code == 3
        assert "outside [45.0, 50.0] N" in err
    # the envelope LP's floor is fixed at 0 N, so the key is refused there
    code, _, err = run_with_config(tmp_path, capsys, text, "envelope")
    assert code == 2
    assert "thrust floor" in err and len(err.splitlines()) == 1


def test_thrust_cap_below_ramp_fails_only_takeoff(tmp_path, capsys):
    text = "limits.thrust_max_per_fan_n = 47\nenvelope.n_points = 3\n"
    for command in ("envelope", "trim", "wrench-eval"):
        code, _, _ = run_with_config(tmp_path, capsys, text, command)
        assert code == 0
    code, _, err = run_with_config(tmp_path, capsys, text, "takeoff")
    assert code == 2
    assert err == ("error: limits.thrust_max_per_fan_n, thrust.target_per_fan_n: thrust ramp "
                   "target 48.0 N exceeds the 47.0 N per-fan limit\n")


def test_trim_without_foot_authority_exit_3(tmp_path, capsys):
    # feet above the CoM trim fine but give the controller no pitch authority
    code, out, err = run_with_config(tmp_path, capsys, "posture.foot_z_m = -0.1\n", "takeoff")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("infeasible: foot fans have no stabilizing authority")


def test_trim_without_a_root_exit_3(tmp_path, capsys):
    text = "posture.com_x_m = 0.3\nposture.foot_x_m = 0.3\nposture.foot_z_m = -0.244\n"
    code, out, err = run_with_config(tmp_path, capsys, text, "trim")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("infeasible: equal-thrust trim has no root")


def test_trim_foot_angle_outside_the_posture_range_exit_3(tmp_path, capsys):
    # the equal-thrust root lies at 102.7 deg, beyond P1's 90 deg foot limit
    text = ("posture.com_x_m = 0.25\nposture.foot_x_m = 0\nposture.foot_z_m = -0.5\n"
            "posture.com_z_m = -0.3\nlimits.thrust_max_per_fan_n = 200\n")
    for command in ("trim", "takeoff"):
        code, out, err = run_with_config(tmp_path, capsys, text, command)
        assert code == 3, command
        assert out == ""
        assert err == ("infeasible: trim foot angle 102.680 deg lies outside "
                       "the foot pitch range [-74, 90] deg\n")
    # feet up is outside a range that excludes 0 deg
    cfg = tmp_path / "feet_up.cfg"
    cfg.write_text("posture.foot_pitch_min_deg = 10\n")
    code, out, err = run_cli(["--config", str(cfg), "--out", str(tmp_path), "trim",
                              "--waist-differential"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("infeasible: trim foot angle 0.000 deg lies outside")


def test_trim_over_the_thrust_limit_reports_newtons_and_degrees(tmp_path, capsys):
    # the equal-thrust trim needs 41.7 N per fan, over a 30 N limit; the state
    # reads in the CLI's units, not as a FanState repr in radians
    text = "limits.thrust_max_per_fan_n = 30\nthrust.target_per_fan_n = 25\n"
    for command in ("trim", "takeoff"):
        code, out, err = run_with_config(tmp_path, capsys, text, command)
        assert code == 3, command
        assert out == ""
        assert "FanState(" not in err
        assert err == ("infeasible: trim needs per-fan thrust outside [0.0, 30.0] N "
                       "(front=41.7274 N, back=41.7274 N, left=41.7274 N, right=41.7274 N, "
                       "feet at 4.68619 and 4.68619 deg)\n")


def test_light_robot_with_light_fans_trims(tmp_path, capsys):
    # 4 x 0.1 kg fans fit a 1.5 kg robot; four default 0.488 kg fans would not
    text = "geometry.mass_kg = 1.5\ngeometry.fan_mass_kg = 0.1\n"
    code, out, err = run_with_config(tmp_path, capsys, text, "trim")
    assert code == 0 and err == ""
    assert "f_front_n=3.681828\n" in out
    code, out, err = run_with_config(
        tmp_path, capsys, "geometry.mass_kg = 17\ngeometry.fan_mass_kg = 5\n", "trim")
    assert code == 2 and out == ""
    assert err == ("error: geometry.mass_kg, geometry.fan_mass_kg: fan_mass must be >= 0 and "
                   "four fans must not exceed total mass\n")


# the keys that set the fields the surrogate inertia reads
INERTIA_KEYS = ("posture.com_x_m, posture.com_z_m, posture.foot_x_m, posture.foot_z_m, "
                "geometry.waist_fan_spacing_m, geometry.foot_fan_spacing_m, geometry.fan_mass_kg, "
                "geometry.com_y_m")


def test_overflowing_surrogate_inertia_exit_2(tmp_path, capsys):
    # finite inputs whose point-mass inertia overflows: one line, no numpy warning
    text = ("geometry.mass_kg = 1e300\ngeometry.fan_mass_kg = 1e299\n"
            "posture.foot_z_m = -1e10\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_with_config(tmp_path, capsys, text, "trim")
    assert code == 2 and out == ""
    assert err == f"error: {INERTIA_KEYS}: inertia_body must be finite and positive-definite\n"


def test_zero_fan_mass_exit_2(tmp_path, capsys):
    # massless fans give a surrogate of zero moments, which has no inverse
    for command in COMMANDS:
        code, out, err = run_with_config(tmp_path, capsys, "geometry.fan_mass_kg = 0\n", command)
        assert (code, out) == (2, ""), command
        assert err == f"error: {INERTIA_KEYS}: inertia_body must be finite and positive-definite\n"


@pytest.mark.parametrize("mode", ["both-on", "pitch-only", "all-off"])
def test_an_overflowing_noise_draw_exits_2_in_every_mode(tmp_path, capsys, mode):
    # a draw that overflows a measurement ends the run as one exit-2 line,
    # naming the key, whatever the tick then does with the measurement
    text = f"sim.sensor_noise_std = 1e308\nmode = {mode}\n"
    code, out, err = run_with_config(tmp_path, capsys, text, "takeoff")
    assert (code, out) == (2, "")
    assert err == ("error: sim.sensor_noise_std: sensor_noise_std 1e+308 drew a non-finite "
                   "measurement\n")
    assert not list(tmp_path.glob("takeoff/*"))


def test_lateral_com_has_no_trim(tmp_path, capsys):
    # symmetric thrusts cannot cancel the roll torque of a CoM off the plane of symmetry
    for command in ("trim", "takeoff"):
        code, out, err = run_with_config(tmp_path, capsys, "geometry.com_y_m = 0.02\n", command)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("infeasible: trim leaves a roll torque tx=-3.335e+00 N*m")


# what each case sets beside a 0.01 s run; the events record is the manifest's scenario
RECORD_CASES = {
    "default": "",
    "perturbation": ("perturbation.com_offset_x_m = -0.005\n"
                     "perturbation.foot_misalignment_left_deg = 1\n"
                     "perturbation.thrust_scale_front = 1.02\n"),
    "explicit_gains": ("controller.kp_pitch = 0.9\ncontroller.kd_pitch = 0.12\n"
                       "controller.kp_yaw = 0.7\ncontroller.kd_yaw = 0.1\n"),
    "pitch_setpoint": "controller.setpoint_pitch_deg = 2\n",
}


@pytest.mark.parametrize("case", sorted(RECORD_CASES))
def test_events_record_the_manifest_scenario(tmp_path, capsys, case):
    code, _, _ = run_with_config(tmp_path, capsys,
                                 RECORD_CASES[case] + "sim.duration_s = 0.01\n", "takeoff")
    assert code == 0
    out_dir = tmp_path / "takeoff"
    record = json.loads((out_dir / "takeoff_events.json").read_text())["config"]
    manifest = json.loads((out_dir / "takeoff_manifest.json").read_text())
    gains_used = record.pop("gains_used")
    assert record.pop("trim_foot_angle_deg") == pytest.approx(4.686, abs=0.01)
    assert record == manifest["resolved_config"]["scenarios"][0]
    assert record["gains"] in (None, gains_used)  # tuned, or explicit and used as given


def test_events_record_the_thrust_cap(tmp_path, capsys):
    records = []
    for cap in ("50", "52"):
        code, _, _ = run_with_config(
            tmp_path, capsys, f"limits.thrust_max_per_fan_n = {cap}\nsim.duration_s = 0.01\n",
            "takeoff", name=f"cap{cap}.cfg")
        assert code == 0
        events = json.loads((tmp_path / "takeoff" / "takeoff_events.json").read_text())
        records.append(events["config"])
    assert [r["limits"].pop("thrust_max_per_fan") for r in records] == [50.0, 52.0]
    assert records[0] == records[1]
    assert sorted(records[0]["limits"]) == [
        "foot_pitch_rate_max", "thrust_min", "thrust_time_constant"]
    assert records[0]["posture"] == {"name": "P1", "com_sagittal": [0.025, -0.243],
                                     "foot_fan": [0.02, -0.61],
                                     "foot_pitch_range_deg": [-74.0, 90.0]}


def test_manifests_echo_one_resolved_scenario(tmp_path, capsys):
    text = "\n".join(["posture.com_x_m = 0.03", "geometry.mass_kg = 16.5",
                      "limits.thrust_max_per_fan_n = 49", "sim.duration_s = 0.1",
                      "envelope.n_points = 3", ""])
    scenarios = []
    for command in COMMANDS:
        code, _, _ = run_with_config(tmp_path, capsys, text, command)
        assert code == 0
        name = command.replace("-", "_")
        manifest = json.loads((tmp_path / command / f"{name}_manifest.json").read_text())
        scenarios.append(manifest["resolved_config"]["scenarios"])
    assert all(s == scenarios[0] for s in scenarios)
    (scenario,) = scenarios[0]
    assert scenario["posture"]["com_sagittal"] == [0.03, -0.243]
    assert scenario["mass_total"] == 16.5
    assert scenario["limits"]["thrust_max_per_fan"] == 49.0


def test_envelope_json_marks_infeasible_cells_null(tmp_path, capsys):
    # 4 x 43 N holds 17 kg level but not at +-30 deg pitch
    cfg = tmp_path / "weak.cfg"
    cfg.write_text("limits.thrust_max_per_fan_n = 43\nenvelope.n_points = 3\n")
    code, _, _ = run_cli(["--config", str(cfg), "--out", str(tmp_path),
                          "--format", "json", "envelope", "--postures", "P1"], capsys)
    assert code == 0
    text = (tmp_path / "envelope_P1.json").read_text()
    rows = json.loads(text, parse_constant=pytest.fail)["rows"]
    assert [row[-1] for row in rows] == [0, 1, 0]
    assert rows[0][1:5] == [None, None, None, None]
    assert all(v is not None for v in rows[1])


def test_envelope_without_level_hover_exit_3(tmp_path, capsys):
    # 4 x 41 N cannot hold 17 kg even level: no ratio, no envelope file, with
    # and without an abscissa at pitch 0; an invalid sweep is refused with the
    # config, before any solve
    for n_points in (None, 1, 4):
        out_dir = tmp_path / str(n_points)
        cfg = tmp_path / f"weaker_{n_points}.cfg"
        cfg.write_text("limits.thrust_max_per_fan_n = 41\n"
                       + ("" if n_points is None else f"envelope.n_points = {n_points}\n"))
        code, out, err = run_cli(["--config", str(cfg), "--out", str(out_dir),
                                  "envelope", "--postures", "P1"], capsys)
        assert out == ""
        if n_points == 1:
            assert (code, err) == (2, "error: envelope.n_points: n_points must be >= 2\n")
        else:
            assert code == 3, n_points
            assert err.startswith("infeasible: vertical force floor") and "with feet up" in err
            assert err.count("\n") == 1
        assert list(out_dir.iterdir()) == []



@pytest.mark.parametrize("text, postures, code", [
    ("", "P1,P2,P3", 0),
    ("envelope.n_points = 4\n", "P1,P2,P3", 0),  # no abscissa at pitch 0
    ("envelope.n_points = 1\n", "P1", 2),
    ("limits.thrust_max_per_fan_n = 41\n", "P1", 3),  # cannot hover level
    # TVC cannot hover level, DT can: the foot range leaves out 0
    ("posture.foot_pitch_min_deg = 10\nlimits.thrust_max_per_fan_n = 41.8\n", "P1", 3),
    ("limits.thrust_max_per_fan_n = 1e308\n", "P1", 2),  # the LP overflows
    ("limits.thrust_max_per_fan_n = 4e307\nenvelope.min_vertical_force_n = 1.7e308\n",
     "P1", 3),  # four capped fans fall short of the floor
], ids=["default", "even_n_points", "one_point", "no_level_hover", "no_level_tvc_hover",
        "overflow", "huge_floor"])
def test_envelope_reports_what_the_public_searches_solve_apart(tmp_path, capsys, monkeypatch,
                                                               text, postures, code):
    # the command solves the level lane and the sweep in one LP call; its ratio
    # is tvc_dt_ratio's bit for bit, its rows those of envelope_sweep's points,
    # and its exits the ones the config and those two raise, the level pitch first
    solved = []
    combined = envelope._level_ratio_and_sweep

    def recorded(*args):
        solved.append(combined(*args))
        return solved[-1]

    monkeypatch.setattr(envelope, "_level_ratio_and_sweep", recorded)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    got, out, err = run_cli(["--config", str(cfg), "--out", str(tmp_path / "out"), "envelope",
                             "--postures", postures], capsys)
    assert got == code
    values, _ = load_config(str(cfg))
    names = postures.split(",")
    assert len(solved) == (len(names) if code == 0 else 0)
    for k, name in enumerate(names):
        try:
            settings = envelope_settings_from_config(values)
            scenario = scenario_from_config(values | {"posture": name})
            geo = scenario.geometry()
            constraint = envelope.EnvelopeConstraint.hover(geo, scenario.posture,
                                                           scenario.limits)
            if settings.min_vertical_force is not None:
                constraint = replace(constraint,
                                     min_vertical_force=settings.min_vertical_force)
            ratio = envelope.tvc_dt_ratio(geo, constraint)
            points = envelope.envelope_sweep(geo, constraint, settings.theta_pitch_range,
                                             settings.n_points)
        except envelope.EnvelopeInfeasibleError as exc:
            assert (code, out, err) == (3, "", f"infeasible: {exc}\n")
            continue
        except ValueError as exc:
            assert (code, out, err) == (2, "", f"error: {keyed(exc)}\n")
            continue
        assert struct.pack("<2d", *solved[k][0]) == struct.pack("<2d", *ratio)
        rows = [[math.degrees(p.theta_pitch),
                 *(x for s in (p.dt, p.tvc)
                   for x in ((math.nan, math.nan) if s is None else (s.tau_min, s.tau_max))),
                 int(p.dt is not None and p.tvc is not None)] for p in points]
        assert repr(solved[k][1]) == repr(rows)  # a float's repr names its bits
        assert (f"{name}: tvc/dt ratio @0deg: tau_max {ratio[0]:.2f}, "
                f"|tau_min| {ratio[1]:.2f}\n") in out

@pytest.mark.parametrize("text, argv, start", [
    ("envelope.min_vertical_force_n = 1e308\n", ["envelope", "--postures", "P1"],
     "infeasible: vertical force floor 1e+308 N unreachable at theta_pitch=0 deg"),
    ("geometry.mass_kg = 1e300\nposture.com_x_m = 0.2\n", ["trim", "--waist-differential"],
     "infeasible: waist-differential trim needs negative thrust (front=8.04693e+300 N"),
], ids=["envelope_floor", "waist_differential_thrust"])
def test_infeasible_messages_stay_short_at_huge_finite_values(tmp_path, capsys, text, argv,
                                                               start):
    # a huge finite floor or thrust prints in g form, not as hundreds of digits
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(["--config", str(cfg), "--out", str(tmp_path / "out"), *argv],
                             capsys)
    assert code == 3
    assert out == ""
    assert err.startswith(start)
    assert err.count("\n") == 1 and err.endswith("\n")
    assert len(err) < 200


def test_outputs_ignore_a_stale_temp_path(tmp_path, capsys):
    # a fixed temp name would collide with this directory
    (tmp_path / "takeoff_log.csv.tmp").mkdir()
    cfg = tmp_path / "short.cfg"
    cfg.write_text("sim.duration_s = 0.1\n")
    code, _, _ = run_cli(["--config", str(cfg), "--out", str(tmp_path), "takeoff"],
                         capsys)
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "short.cfg", "takeoff_events.json", "takeoff_log.csv", "takeoff_log.csv.tmp",
        "takeoff_manifest.json"]


def test_atomic_write_removes_its_temp_file_on_failure(tmp_path):
    def fail(fh):
        fh.write(b"partial")
        raise OSError("disk full")

    # the message names the output, not the random temp file
    target = tmp_path / "out.csv"
    with pytest.raises(ConfigError, match=f"^cannot write {re.escape(str(target))}: disk full$"):
        _publish(str(target), fail)
    assert list(tmp_path.iterdir()) == []


# (command, the output blocked by a directory, the files published before it)
BLOCKED_OUTPUTS = [
    ("takeoff", "takeoff_log.csv", []),
    ("takeoff", "takeoff_manifest.json", ["takeoff_events.json", "takeoff_log.csv"]),
    ("envelope", "envelope_P1.csv", []),
    ("envelope", "envelope_manifest.json", ["envelope_P1.csv"]),
    ("trim", "trim_manifest.json", []),
    ("wrench-eval", "wrench_eval_manifest.json", []),
]


@pytest.mark.parametrize("command, blocked, published", BLOCKED_OUTPUTS)
def test_an_output_that_cannot_be_written_is_one_line_exit_2(tmp_path, capsys, command,
                                                              blocked, published):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.duration_s = 0.05\nenvelope.n_points = 5\n")
    code, stdout, err = run_cli(["--config", str(cfg), "--out", str(out), *COMMANDS[command]],
                                capsys)
    assert code == 2
    assert err == f"error: cannot write {out / blocked}: Is a directory\n"
    assert stdout == ""  # no report of outputs that were not all written
    # the files published before the failure remain; no temp file does
    assert sorted(p.name for p in out.iterdir()) == sorted([*published, blocked])
    assert list((out / blocked).iterdir()) == []


@pytest.mark.parametrize("error, code", [(envelope.EnvelopeInfeasibleError, 3), (ValueError, 2)])
def test_a_failed_later_posture_leaves_no_orphan_files(tmp_path, capsys, monkeypatch, error,
                                                        code):
    # the first posture's file goes with the run: nothing is published without a manifest
    solve, calls = envelope._level_ratio_and_sweep, []

    def fail_second(*args):
        calls.append(args)
        if len(calls) == 2:
            raise error("the second posture fails")
        return solve(*args)

    monkeypatch.setattr(envelope, "_level_ratio_and_sweep", fail_second)
    out = tmp_path / "out"
    got, stdout, err = run_cli(["--out", str(out), "envelope", "--postures", "P1,P2"], capsys)
    assert (got, stdout, len(calls)) == (code, "", 2)
    assert err.endswith(": the second posture fails\n")
    assert list(out.iterdir()) == []


def test_atomic_write_closes_its_temp_file_when_the_writer_fails_first(tmp_path):
    # a writer that raises while formatting, before it writes a byte
    descriptors = []

    def fail(fh):
        descriptors.append(fh.fileno())
        raise MemoryError

    # the traceback keeps the failed call's frame alive, so the descriptor is
    # closed by _publish itself, not by collecting an unreferenced file object
    with pytest.raises(MemoryError) as raised:
        _publish(str(tmp_path / "out.csv"), fail)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(OSError) as closed:
        os.fstat(descriptors[0])
    assert closed.value.errno == errno.EBADF and raised.value.__traceback__ is not None


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [["envelope", "--postures", "P1,P3"], ["takeoff"], ["trim"],
                                  ["wrench-eval", "--thrust-ff", "30"]])
def test_manifest_digests_are_the_bytes_on_disk(tmp_path, capsys, argv, fmt):
    # the digests are taken from the bytes as written; the directory keeps no temp file
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"sim.duration_s = 0.05\r\nenvelope.n_points = 5\n")
    out = tmp_path / "out"
    code, _, _ = run_cli(["--config", str(cfg), "--out", str(out), "--format", fmt, *argv],
                         capsys)
    assert code == 0
    manifest_name = f"{argv[0].replace('-', '_')}_manifest.json"
    manifest = json.loads((out / manifest_name).read_text())
    assert manifest["input_hashes"]["config"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert manifest["outputs"] == {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                                   for name in manifest["outputs"]}
    assert sorted(p.name for p in out.iterdir()) == sorted([*manifest["outputs"], manifest_name])
    assert len(manifest["outputs"]) == {"envelope": 2, "takeoff": 2}.get(argv[0], 0)


def test_manifest_hashes_the_config_bytes_the_run_parsed(tmp_path, capsys, monkeypatch):
    # a config edited while the command runs is not the one it ran
    cfg = tmp_path / "run.cfg"
    cfg.write_text("posture = P2\n")
    parsed = hashlib.sha256(cfg.read_bytes()).hexdigest()
    resolve = cli.scenario_from_config

    def edit_then_resolve(values):
        cfg.write_text("posture = P3\n")
        return resolve(values)

    monkeypatch.setattr(cli, "scenario_from_config", edit_then_resolve)
    code, out, _ = run_cli(["--config", str(cfg), "--out", str(tmp_path), "trim"], capsys)
    assert code == 0 and out.startswith("posture=P2\n")
    manifest = json.loads((tmp_path / "trim_manifest.json").read_text())
    assert manifest["input_hashes"]["config"] == parsed
    assert parsed != hashlib.sha256(cfg.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv", [["envelope", "--postures", "P1,P3"], ["takeoff"], ["trim"],
                                  ["wrench-eval", "--thrust-ff", "30"]])
def test_a_config_file_may_start_with_a_utf8_byte_order_mark(tmp_path, capsys, argv):
    # a BOM is valid UTF-8: the run is the one without it, and only the
    # manifest's config digest, of the bytes as read, tells them apart
    text = b"sim.duration_s = 0.05\nenvelope.n_points = 5\nposture = P2\n"
    runs = {}
    for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(data)
        out = tmp_path / name
        runs[name] = run_cli(["--config", str(cfg), "--out", str(out), *argv], capsys)
        manifest_name = f"{argv[0].replace('-', '_')}_manifest.json"
        manifest = json.loads((out / manifest_name).read_text())
        assert manifest.pop("input_hashes") == {"config": hashlib.sha256(data).hexdigest()}
        del manifest["wall_clock_s"]
        runs[name] += (manifest, {path.name: path.read_bytes() for path in out.iterdir()
                                  if path.name != manifest_name})
    assert runs["bom"] == runs["plain"]
    assert runs["plain"][0] == 0
