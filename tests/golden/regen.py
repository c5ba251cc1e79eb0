"""Golden-output corpus of the ``tvcsim`` command line.

Each case is one CLI call: an optional config file text and an argv. Its
record holds the exit code, stdout, stderr and the output files: events JSON
and envelope files whole, every 25th takeoff log row with the row count, and
manifests without ``wall_clock_s``. A manifest's output hashes are checked
against the files here and stored as ``"sha256"``, so the corpus compares
numbers with a tolerance (see ``compare``) instead of hashing them.

The records live in ``corpus.json``, keyed by case name.
``tests/test_golden.py`` reruns every stored case and compares it with
``compare``. Rewrite the corpus, or only the named cases, from the repository
root with::

    PYTHONPATH=src python tests/golden/regen.py [case ...]

A change that rewrites a case says which one and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from tvcsim import cli

CORPUS = Path(__file__).resolve().parent / "corpus.json"
LOG_EVERY = 25
REL_TOL = 1e-12

_SPIN = ("mode = pitch-only\nperturbation.foot_misalignment_left_deg = 10\n"
         "perturbation.foot_misalignment_right_deg = -10\nsim.duration_s = 4.0\n")
_GAINS = ("controller.kp_pitch = 0.9\ncontroller.kd_pitch = 0.12\n"
          "controller.kp_yaw = 0.7\ncontroller.kd_yaw = 0.1\n")
_NOISE = "sim.sensor_noise_std = 0.002\nsim.duration_s = 0.8\n"

# name -> (config file text or None, argv after --config and --out)
CASES: dict[str, tuple[str | None, list[str]]] = {
    "envelope_default": (None, ["envelope"]),
    "envelope_p2_json": (None, ["--format", "json", "envelope", "--postures", "P2"]),
    "envelope_seed": (None, ["--seed", "9", "envelope", "--postures", "P3"]),
    "envelope_geometry": (
        "geometry.mass_kg = 16.5\ngeometry.waist_fan_spacing_m = 0.32\n"
        "geometry.foot_fan_spacing_m = 0.23\nposture.com_x_m = 0.03\n"
        "posture.foot_z_m = -0.63\nlimits.thrust_max_per_fan_n = 51\n"
        "envelope.n_points = 7\n",
        ["envelope", "--postures", "P1,P3"]),
    "envelope_foot_range_without_zero": (
        "posture.foot_pitch_min_deg = 10\nenvelope.n_points = 5\n",
        ["envelope", "--postures", "P2"]),
    "envelope_vertical_floor": (
        "envelope.min_vertical_force_n = 150\nenvelope.theta_pitch_min_deg = -20\n"
        "envelope.theta_pitch_max_deg = 25\nenvelope.n_points = 9\n",
        ["envelope", "--postures", "P1"]),
    "envelope_infeasible_cells_json": (
        "limits.thrust_max_per_fan_n = 43\nenvelope.n_points = 3\n",
        ["--format", "json", "envelope", "--postures", "P1"]),
    "envelope_one_point": ("envelope.n_points = 1\n", ["envelope", "--postures", "P1"]),
    "envelope_no_level_hover": ("limits.thrust_max_per_fan_n = 41\n",
                                ["envelope", "--postures", "P1"]),
    "envelope_thrust_floor": ("limits.thrust_min_n = 2\n", ["envelope", "--postures", "P1"]),
    "envelope_unknown_posture": (None, ["envelope", "--postures", "P9"]),
    "envelope_config_posture": ("posture = P2\nenvelope.n_points = 5\n", ["envelope"]),
    "envelope_overflowing_cap": ("limits.thrust_max_per_fan_n = 1e308\n",
                                 ["envelope", "--postures", "P1"]),
    "takeoff_default": (None, ["takeoff"]),
    "takeoff_both_on_euler": (None, ["takeoff", "--mode", "both-on"]),
    "takeoff_pitch_only_euler": (None, ["takeoff", "--mode", "pitch-only"]),
    "takeoff_all_off_euler": (None, ["takeoff", "--mode", "all-off"]),
    "takeoff_both_on_rk4": ("sim.integrator = rk4\n", ["takeoff", "--mode", "both-on"]),
    "takeoff_pitch_only_rk4": ("sim.integrator = rk4\n", ["takeoff", "--mode", "pitch-only"]),
    "takeoff_all_off_rk4": ("sim.integrator = rk4\n", ["takeoff", "--mode", "all-off"]),
    "takeoff_diverged": (_SPIN, ["takeoff"]),
    "takeoff_seed": (_NOISE, ["--seed", "7", "takeoff", "--mode", "pitch-only"]),
    "takeoff_config_mode_and_seed": (
        "mode = all-off\nsim.seed = 4\n" + _NOISE, ["takeoff"]),
    "takeoff_options_override_config": (
        "mode = all-off\nsim.seed = 4\n" + _NOISE,
        ["--seed", "5", "takeoff", "--mode", "both-on"]),
    "takeoff_json": ("sim.duration_s = 0.8\n", ["--format", "json", "takeoff"]),
    "takeoff_explicit_gains": (
        _GAINS + "limits.thrust_time_constant_s = 0\ncontroller.setpoint_pitch_deg = 2\n"
        "controller.rate_hz = 500\nsim.sample_rate_hz = 500\nsim.duration_s = 1.2\n",
        ["takeoff"]),
    "takeoff_perturbed_p3": (
        "posture = P3\nperturbation.com_offset_x_m = -0.005\n"
        "perturbation.com_offset_y_m = 0.002\nperturbation.foot_misalignment_left_deg = 1\n"
        "perturbation.thrust_scale_front = 1.02\nperturbation.thrust_scale_right = 0.98\n"
        "thrust.target_per_fan_n = 49\nthrust.ramp_time_s = 0.4\n"
        "controller.natural_freq_pitch_rad_s = 10\ncontroller.damping_ratio = 0.8\n"
        "sim.duration_s = 1.5\n",
        ["takeoff"]),
    "takeoff_integral_gains": (
        _GAINS + "controller.ki_pitch = 0.5\ncontroller.ki_yaw = 0.3\n"
        "controller.setpoint_yaw_deg = 5\nsim.duration_s = 1.0\n", ["takeoff"]),
    "takeoff_fast_foot_slew": ("limits.foot_pitch_rate_max_rad_s = 50\n"
                               "controller.natural_freq_pitch_rad_s = 100\n"
                               "controller.natural_freq_yaw_rad_s = 100\nsim.duration_s = 1.0\n",
                               ["takeoff"]),
    "takeoff_perturbed_com_z_and_scales": (
        "perturbation.com_offset_z_m = 0.02\nperturbation.thrust_scale_back = 0.97\n"
        "perturbation.thrust_scale_left = 1.03\nsim.duration_s = 1.0\n", ["takeoff"]),
    "takeoff_posture_fields": (
        "posture.com_z_m = -0.05\nposture.foot_x_m = 0.03\nposture.foot_pitch_max_deg = 60\n"
        "sim.duration_s = 1.0\n", ["takeoff"]),
    "takeoff_noise_euler": ("sim.sensor_noise_std = 0.01\nsim.seed = 3\nsim.duration_s = 1.0\n",
                            ["takeoff"]),
    "takeoff_noise_rk4": ("sim.sensor_noise_std = 0.01\nsim.seed = 3\nsim.duration_s = 1.0\n"
                          "sim.integrator = rk4\n", ["takeoff"]),
    "takeoff_ramp_over_cap": ("limits.thrust_max_per_fan_n = 47\n", ["takeoff"]),
    "takeoff_no_foot_authority": ("posture.foot_z_m = -0.1\n", ["takeoff"]),
    "takeoff_overflowing_gain": ("controller.damping_ratio = 1e308\nsim.duration_s = 0.05\n",
                                 ["takeoff"]),
    "takeoff_unknown_mode_option": (None, ["takeoff", "--mode", "sideways"]),
    "trim_p1": (None, ["trim", "--posture", "P1"]),
    "trim_p2": (None, ["trim", "--posture", "P2"]),
    "trim_p3": (None, ["trim", "--posture", "P3"]),
    "trim_p1_waist": (None, ["trim", "--posture", "P1", "--waist-differential"]),
    "trim_p2_waist": (None, ["trim", "--posture", "P2", "--waist-differential"]),
    "trim_p3_waist": (None, ["trim", "--posture", "P3", "--waist-differential"]),
    "trim_seed": (None, ["--seed", "9", "trim", "--posture", "P2"]),
    "trim_light_robot": ("geometry.mass_kg = 1.5\ngeometry.fan_mass_kg = 0.1\n", ["trim"]),
    "trim_lateral_com": ("geometry.com_y_m = 0.02\n", ["trim"]),
    "trim_config_posture": ("posture = P2\n", ["trim"]),
    "trim_bad_envelope_setting": ("envelope.n_points = 1\n", ["trim"]),
    "wrench_eval": (None, ["wrench-eval", "--posture", "P2", "--thrust-ff", "41",
                           "--thrust-fb", "43", "--thrust-fl", "40", "--thrust-fr", "39",
                           "--theta-l", "5", "--theta-r", "-3", "--theta-pitch", "7"]),
    "wrench_eval_seed": (None, ["--seed", "9", "wrench-eval", "--posture", "P3",
                                "--thrust-ff", "30"]),
    "wrench_eval_lateral_com": ("geometry.com_y_m = 0.02\n",
                                ["wrench-eval", "--thrust-fl", "40", "--thrust-fr", "40"]),
    "wrench_eval_config_posture": ("posture = P2\n",
                                   ["wrench-eval", "--thrust-fl", "40", "--thrust-fr", "40"]),
    "wrench_eval_non_finite": (None, ["wrench-eval", "--thrust-ff", "inf"]),
    "config_unknown_key": ("geometry.mass_kgs = 17.0\n", ["takeoff"]),
    "config_duplicate_key": ("sim.dt_s = 0.001\nsim.dt_s = 0.002\n", ["trim"]),
    "config_unknown_mode": ("mode = sideways\n", ["envelope", "--postures", "P1"]),
    "config_partial_gains": ("controller.kp_pitch = 1.0\n", ["wrench-eval"]),
    "config_gains_with_tuning": (_GAINS + "controller.damping_ratio = 0.9\n", ["takeoff"]),
    "config_negative_seed": ("sim.seed = -1\n", ["takeoff"]),
    "config_unreachable_setpoint_pitch": ("controller.setpoint_pitch_deg = 120\n", ["takeoff"]),
    "config_step_cap": ("thrust.target_per_fan_n = 30\nsim.duration_s = 1e9\n", ["takeoff"]),
    "config_negative_noise": ("sim.sensor_noise_std = -1\nsim.duration_s = 1.0\n", ["takeoff"]),
    "config_partial_step_duration": ("sim.duration_s = 1.0016\n", ["takeoff"]),
    "config_tiny_rate": ("controller.rate_hz = 1e-308\n", ["trim"]),
    "config_negative_pole_placement": (
        "controller.damping_ratio = -0.7\ncontroller.natural_freq_pitch_rad_s = -12\n"
        "controller.natural_freq_yaw_rad_s = -12\n", ["takeoff"]),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _output_record(path: Path):
    """What the corpus keeps of one output file."""
    text = path.read_text()
    if path.name.endswith("_manifest.json"):
        manifest = json.loads(text)
        del manifest["wall_clock_s"]
        for name, digest in manifest["outputs"].items():
            if digest != _sha256(path.parent / name):
                raise AssertionError(f"{path.name}: hash of {name} does not match the file")
            manifest["outputs"][name] = "sha256"
        return manifest
    if path.name == "takeoff_log.csv":
        lines = text.splitlines()
        return {"rows": len(lines) - 1, "header": lines[0],
                f"every_{LOG_EVERY}th": lines[1::LOG_EVERY]}
    if path.name == "takeoff_log.json":
        log = json.loads(text)
        return {"rows": len(log["rows"]), "header": log["header"],
                f"every_{LOG_EVERY}th": log["rows"][::LOG_EVERY]}
    if path.suffix == ".json":
        return json.loads(text)
    return text


def run_case(config: str | None, argv: list[str], workdir) -> dict:
    """Run one case in-process inside workdir and return its record."""
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        full_argv = ["--out", "out"] + argv
        if config is not None:
            Path("case.cfg").write_text(config)
            full_argv = ["--config", "case.cfg"] + full_argv
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(full_argv)
            except SystemExit as exc:  # argparse rejects usage errors this way
                code = exc.code
        out_dir = Path("out")
        files = ({p.name: _output_record(p) for p in sorted(out_dir.iterdir())}
                 if out_dir.is_dir() else {})
    finally:
        os.chdir(previous)
    return {"config": config, "argv": argv, "exit_code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def _close(a: float, b: float) -> bool:
    """Within the tolerance; never for infinities, so equal ones compare as text."""
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def compare(actual, expected, where: str = "") -> list[str]:
    """Differences between two records: text exactly, numbers to 1e-12.

    The tolerance is relative, with a floor of 1e-12 absolute below 1, and
    applies to numbers inside text too (log rows, stdout, messages). It is
    there because numpy's vectorised sin/cos may differ in the last bit
    between CPUs.
    """
    if isinstance(expected, dict) and isinstance(actual, dict):
        if actual.keys() != expected.keys():
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [d for k in expected for d in compare(actual[k], expected[k], f"{where}/{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{where}: {len(actual)} items != {len(expected)}"]
        return [d for i, (a, e) in enumerate(zip(actual, expected))
                for d in compare(a, e, f"{where}[{i}]")]
    if isinstance(expected, str) and isinstance(actual, str):
        a_parts, e_parts = _NUMBER.split(actual), _NUMBER.split(expected)
        if len(a_parts) == len(e_parts) and all(
                a == e or (k % 2 == 1 and _close(float(a), float(e)))
                for k, (a, e) in enumerate(zip(a_parts, e_parts))):
            return []
        return [f"{where}: {actual!r} != {expected!r}"]
    if type(actual) is type(expected) and actual == expected:
        return []
    if {type(actual), type(expected)} <= {int, float} and _close(actual, expected):
        return []
    return [f"{where}: {actual!r} != {expected!r}"]


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        print(f"unknown case(s): {unknown}", file=sys.stderr)
        return 2
    corpus = json.loads(CORPUS.read_text()) if names else {}
    for name in names or CASES:
        config, argv = CASES[name]
        with tempfile.TemporaryDirectory() as workdir:
            corpus[name] = run_case(config, argv, workdir)
        print(f"{name}: exit {corpus[name]['exit_code']}")
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
