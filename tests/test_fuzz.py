"""Property-based fuzzing of the config files of every `tvcsim` command and of
the `wrench-eval` fan-state options, and a deterministic sweep of every key
over the extremes of its type: the float range, counts and a bogus name.

Every input must end in a documented exit code (0 ok, 2 config error,
3 infeasible, 4 divergence) with a one-line message, never in a traceback,
and every events or manifest file written must be strict JSON.
"""

import contextlib
import csv
import io
import itertools
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tvcsim.cli import main
from tvcsim.config import SCHEMA

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4}

EXTREMES = (0.0, -1.0, 1e-12, 1e12, -1e12)


def number(lo, hi):
    """Mostly plausible values, sometimes a boundary or an absurd one."""
    return st.one_of(st.floats(lo, hi), st.sampled_from(EXTREMES))


ANGLE = number(-200.0, 200.0)
TAKEOFF_KEYS = {
    "posture": st.sampled_from(["P1", "P2", "P3", "P4", ""]),
    "posture.com_x_m": number(-0.2, 0.2),
    "posture.com_z_m": number(-0.5, 0.1),
    "posture.foot_x_m": number(-0.2, 0.2),
    "posture.foot_z_m": number(-0.9, 0.0),
    "posture.foot_pitch_min_deg": ANGLE,
    "posture.foot_pitch_max_deg": ANGLE,
    "mode": st.sampled_from(["both-on", "pitch-only", "all-off", "on"]),
    "geometry.mass_kg": number(0.5, 30.0),
    "geometry.waist_fan_spacing_m": number(0.01, 1.0),
    "geometry.foot_fan_spacing_m": number(0.01, 1.0),
    "geometry.fan_mass_kg": number(0.0, 5.0),
    "geometry.com_y_m": number(-0.1, 0.1),
    "limits.thrust_max_per_fan_n": number(1.0, 100.0),
    "limits.thrust_min_n": number(0.0, 60.0),
    "limits.foot_pitch_rate_max_rad_s": number(0.01, 50.0),
    "limits.thrust_time_constant_s": number(0.0, 1.0),
    "controller.kp_pitch": number(0.0, 10.0),
    "controller.kd_pitch": number(0.0, 2.0),
    "controller.kp_yaw": number(0.0, 10.0),
    "controller.kd_yaw": number(0.0, 2.0),
    "controller.ki_pitch": number(0.0, 5.0),
    "controller.ki_yaw": number(0.0, 5.0),
    "controller.natural_freq_pitch_rad_s": number(0.1, 50.0),
    "controller.natural_freq_yaw_rad_s": number(0.1, 50.0),
    "controller.damping_ratio": number(0.0, 3.0),
    "controller.setpoint_pitch_deg": ANGLE,
    "controller.setpoint_yaw_deg": ANGLE,
    "controller.rate_hz": st.sampled_from([50.0, 250.0, 500.0, 1000.0, 333.0, 0.0, -250.0]),
    "thrust.target_per_fan_n": number(0.0, 80.0),
    "thrust.ramp_time_s": number(0.0, 1.0),
    "perturbation.com_offset_x_m": number(-0.05, 0.05),
    "perturbation.com_offset_y_m": number(-0.05, 0.05),
    "perturbation.com_offset_z_m": number(-0.05, 0.05),
    "perturbation.foot_misalignment_left_deg": number(-12.0, 12.0),
    "perturbation.foot_misalignment_right_deg": number(-12.0, 12.0),
    "perturbation.thrust_scale_front": number(0.7, 1.3),
    "perturbation.thrust_scale_back": number(0.7, 1.3),
    "perturbation.thrust_scale_left": number(0.7, 1.3),
    "perturbation.thrust_scale_right": number(0.7, 1.3),
    "sim.dt_s": st.sampled_from([5e-4, 1e-3, 2e-3, 3e-3, 0.0, -1e-3]),
    "sim.sample_rate_hz": st.sampled_from([100.0, 250.0, 500.0, 1000.0, 300.0, 0.0]),
    "sim.seed": st.integers(-5, 2**40),
    "sim.integrator": st.sampled_from(["euler", "rk4", "verlet"]),
    "sim.sensor_noise_std": number(0.0, 0.1),
}


def strict_json(path):
    def reject(token):
        raise ValueError(f"non-finite JSON number {token} in {path}")
    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


# whole milliseconds in three files of four, a whole number of steps of the
# default 1 ms dt; any float in the fourth, which that check mostly rejects
WHOLE_MS = st.integers(1, 300).map(lambda n: n / 1000)
DURATION = st.sampled_from([WHOLE_MS] * 3 + [st.floats(0.001, 0.3)]).flatmap(lambda s: s)
# a few keys per file, so that most files pass validation and reach the simulation
CONFIGS = st.lists(st.sampled_from(sorted(TAKEOFF_KEYS)), max_size=5, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({"sim.duration_s": DURATION}
                                       | {key: TAKEOFF_KEYS[key] for key in keys}))


def run_main(values, args, out):
    """main() on a config file of values; returns (exit code, stdout, stderr)."""
    config = out / "fuzz.cfg"
    config.write_text("".join(f"{key} = {value!r}\n" if isinstance(value, float)
                              else f"{key} = {value}\n" for key, value in values.items()))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["--config", str(config), "--out", str(out), *args])
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(values=CONFIGS)
def test_takeoff_config_fuzz_ends_in_a_documented_way(values, tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz")
    code, _, err = run_main(values, ["takeoff"], out)
    assert code in DOCUMENTED_EXIT_CODES
    if code in (2, 3):
        assert len(err.strip().splitlines()) == 1, err
    for name in ("takeoff_events.json", "takeoff_manifest.json"):
        if (out / name).exists():
            strict_json(out / name)
    if code in (0, 4):
        assert strict_json(out / "takeoff_events.json")["diverged"] is (code == 4)


ROBOT_KEYS = {key: TAKEOFF_KEYS[key] for key in TAKEOFF_KEYS
              if key.startswith(("posture.", "geometry.", "limits."))}
ENVELOPE_KEYS = ROBOT_KEYS | {
    "envelope.n_points": st.sampled_from([2, 3, 5, 61, 1, 0, -3]),
    "envelope.theta_pitch_min_deg": ANGLE,
    "envelope.theta_pitch_max_deg": ANGLE,
    "envelope.min_vertical_force_n": number(1.0, 400.0),
}
ENVELOPE_CONFIGS = st.lists(st.sampled_from(sorted(ENVELOPE_KEYS)), max_size=5,
                            unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({"envelope.n_points": st.sampled_from([2, 3, 7])}
                                       | {key: ENVELOPE_KEYS[key] for key in keys}))


@settings(max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(values=ENVELOPE_CONFIGS, postures=st.sampled_from(["P1", "P2,P3", "P4", ""]),
       fmt=st.sampled_from(["csv", "json"]))
def test_envelope_config_fuzz_ends_in_a_documented_way(values, postures, fmt,
                                                       tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz")
    code, _, err = run_main(values, ["--format", fmt, "envelope", "--postures", postures], out)
    assert code in {0, 2, 3}
    if code:
        assert len(err.strip().splitlines()) == 1, err
        return
    strict_json(out / "envelope_manifest.json")
    for name in postures.split(","):
        if fmt == "csv":
            with open(out / f"envelope_{name}.csv") as fh:
                rows = list(csv.reader(fh))[1:]
            missing = "nan"
        else:
            rows = strict_json(out / f"envelope_{name}.json")["rows"]
            missing = None
        assert rows
        for row in rows:
            assert row[0] != missing
            if missing in row[1:5]:
                assert row[5] in ("0", 0), row


ROBOT_CONFIGS = st.lists(st.sampled_from(sorted(ROBOT_KEYS)), max_size=5, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({key: ROBOT_KEYS[key] for key in keys}))
POSTURE_LABELS = st.sampled_from(["P1", "P2", "P3", "P4", ""])


def non_finite_report_lines(out):
    """The lines of a trim or wrench-eval report, key=value each, whose value
    is not a finite number; posture is the one key whose value is a label."""
    lines = []
    for line in out.splitlines():
        key, value = line.split("=")
        if key != "posture" and not math.isfinite(float(value)):
            lines.append(line)
    return lines


def check_key_value_report(code, out, err, path):
    """Exit 0 prints finite key=value numbers; exit 2/3 one line; strict manifest."""
    assert code in {0, 2, 3}
    if code:
        assert out == ""
        assert len(err.strip().splitlines()) == 1, err
        return
    assert err == ""
    assert non_finite_report_lines(out) == []
    strict_json(path)


@settings(max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(values=ROBOT_CONFIGS, posture=POSTURE_LABELS, waist=st.booleans())
def test_trim_config_fuzz_ends_in_a_documented_way(values, posture, waist, tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz")
    args = ["trim", "--posture", posture] + (["--waist-differential"] if waist else [])
    code, stdout, err = run_main(values, args, out)
    check_key_value_report(code, stdout, err, out / "trim_manifest.json")


FAN_VALUE = st.one_of(st.floats(-10.0, 60.0), st.sampled_from(EXTREMES),
                      st.sampled_from([math.nan, math.inf, -math.inf]))
WRENCH_OPTIONS = ("--thrust-ff", "--thrust-fb", "--thrust-fl", "--thrust-fr",
                  "--theta-l", "--theta-r", "--theta-pitch")


@settings(max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(values=ROBOT_CONFIGS, posture=POSTURE_LABELS,
       options=st.dictionaries(st.sampled_from(WRENCH_OPTIONS), FAN_VALUE, max_size=4))
def test_wrench_eval_fuzz_ends_in_a_documented_way(values, posture, options, tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz")
    args = ["wrench-eval", "--posture", posture]
    # --opt=value: argparse takes "-1e-12" as an option name, not a value
    args += [f"{option}={value!r}" for option, value in options.items()]
    code, stdout, err = run_main(values, args, out)
    check_key_value_report(code, stdout, err, out / "wrench_eval_manifest.json")


EXTREME_FLOATS = (1e308, -1e308, 1e200, 1e-200, 1e-308, 5e-324, -1.0, 0.0)
# the int and str keys' counterparts, a count too large to allocate among them
EXTREMES_BY_TYPE = {float: EXTREME_FLOATS, int: (-1, 0, 1, 10**11), str: ("bogus",)}
COMMANDS = (["takeoff"], ["trim"], ["wrench-eval"], ["envelope", "--postures", "P1"])
FLOAT_KEYS = sorted(key for key, (typ, *_) in SCHEMA.items() if typ is float)
INT_AND_STR_KEYS = sorted(key for key, (typ, *_) in SCHEMA.items() if typ is not float)


def check_extreme_values(key, tmp_path):
    # key at each of its type's extremes, on every command: an overflow, an
    # underflow, a subnormal or a bad count or name ends in a documented exit
    # with one line and strict outputs, never in a traceback, a warning, a nan
    # or a non-finite report value, and an exit 2 names the key. envelope may
    # print a ratio of inf, and an exit 2 may quote an overflowed value
    failures = []
    for value, argv in itertools.product(EXTREMES_BY_TYPE[SCHEMA[key][0]], COMMANDS):
        out = tmp_path / f"{argv[0]}{value!r}"
        out.mkdir()
        base = {"sim.duration_s": 0.05, "envelope.n_points": 3}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code, stdout, err = run_main(base | {key: value}, argv, out)
            except Exception as exc:  # main's caller would print a traceback
                failures.append((value, argv[0], [f"raised {exc!r}"]))
                continue
        outputs = sorted(p.name for p in out.iterdir() if p.name != "fuzz.cfg")
        problems = [f"exit {code}"] if code not in DOCUMENTED_EXIT_CODES else []
        problems += [f"warning: {w.message}" for w in caught]
        problems += ["nan in stdout"] * ("nan" in stdout)
        problems += ["nan in stderr"] * ("nan" in err)
        if argv[0] in ("trim", "wrench-eval"):
            problems += [f"non-finite {line}" for line in non_finite_report_lines(stdout)]
        if code == 2 and outputs:
            problems.append(f"exit 2 left {outputs}")
        if code == 2 and key not in err:
            problems.append(f"exit 2 without the key: {err!r}")
        if code in (2, 3) and len(err.strip().splitlines()) != 1:
            problems.append(f"stderr {err!r}")
        for name in outputs:
            if name.endswith(".json"):
                strict_json(out / name)
            elif name.startswith("envelope_"):
                with open(out / name) as fh:
                    for row in list(csv.reader(fh))[1:]:
                        if "nan" in row[1:5] and row[5] != "0":
                            problems.append(f"{name}: nan in a feasible row {row}")
        if problems:
            failures.append((value, argv[0], problems))
    assert failures == []


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_extreme_float_values_end_in_a_documented_way(key, tmp_path):
    check_extreme_values(key, tmp_path)


@pytest.mark.parametrize("key", INT_AND_STR_KEYS)
def test_extreme_int_and_str_values_end_in_a_documented_way(key, tmp_path):
    check_extreme_values(key, tmp_path)
