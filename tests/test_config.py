"""Config file parsing and scenario construction."""

import hashlib
import math
import re
from dataclasses import asdict, astuple, fields, replace

import numpy as np
import pytest

from tvcsim.config import (
    SCHEMA,
    ConfigError,
    EnvelopeSettings,
    envelope_settings_from_config,
    keyed,
    load_config,
    parse_config_text,
    scenario_from_config,
)
from tvcsim.controller import ControlMode, ControllerGains, ThrustRamp
from tvcsim.robot import FanLimits, FieldError, Posture, builtin_posture, geometry_from_posture
from tvcsim.sim import Perturbation, ScenarioConfig, run_scenario
from tvcsim.spatial import EulerAngles

SAMPLE = """
# takeoff experiment
posture = P2
mode = pitch-only
thrust.target_per_fan_n = 45.0     # hold a little margin
thrust.ramp_time_s = 0.8
sim.duration_s = 3.0
sim.seed = 11
perturbation.com_offset_x_m = 0.005
perturbation.foot_misalignment_left_deg = 1.0
perturbation.foot_misalignment_right_deg = -1.0
"""


def test_parse_and_build_scenario():
    values = parse_config_text(SAMPLE)
    cfg = scenario_from_config(values)
    assert astuple(cfg.posture) == astuple(builtin_posture("P2"))
    assert cfg.mode is ControlMode.PITCH_ONLY
    assert cfg.ramp.target_per_fan == 45.0
    assert cfg.duration_s == 3.0
    assert cfg.seed == 11
    assert cfg.perturbation.com_offset[0] == 0.005
    assert cfg.perturbation.foot_axis_misalignment_left == pytest.approx(math.radians(1.0))
    assert cfg.gains is None  # tuned at scenario start


def test_defaults_without_file():
    cfg = scenario_from_config({})
    assert astuple(cfg.posture) == astuple(builtin_posture("P1"))
    assert cfg.mode is ControlMode.BOTH_ON
    # absent keys keep the consuming dataclasses' defaults
    assert astuple(cfg.limits) == astuple(FanLimits())
    assert astuple(cfg.ramp) == astuple(ThrustRamp())
    default_geo = geometry_from_posture(builtin_posture("P1"))
    np.testing.assert_array_equal(cfg.geometry().inertia_body, default_geo.inertia_body)
    assert cfg.geometry().mass_total == default_geo.mass_total
    # standard perturbation applies when the section is absent
    assert cfg.perturbation.com_offset[0] == 0.010
    assert cfg.perturbation.foot_axis_misalignment_left == pytest.approx(math.radians(2.0))


def test_explicit_perturbation_section_replaces_standard():
    values = parse_config_text("perturbation.com_offset_x_m = 0.0")
    cfg = scenario_from_config(values)
    assert cfg.perturbation.com_offset[0] == 0.0
    assert cfg.perturbation.foot_axis_misalignment_left == 0.0


def test_unknown_key_is_hard_error():
    with pytest.raises(ConfigError, match="geometry.mass_kgs"):
        parse_config_text("geometry.mass_kgs = 17.0")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("posture = P1\nposture = P2")


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="sim.seed"):
        parse_config_text("sim.seed = soon")


FLOAT_KEYS = sorted(k for k, (typ, *_) in SCHEMA.items() if typ is float)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_value_rejected(key, text):
    with pytest.raises(ConfigError, match=f"{key}: .* is not finite"):
        parse_config_text(f"{key} = {text}")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("posture P1")


def test_partial_gains_rejected():
    full = ("controller.kp_pitch = 1.0\ncontroller.kd_pitch = 0.1\n"
            "controller.kp_yaw = 0.5\ncontroller.kd_yaw = 0.05\n")
    for text, match in (("controller.kp_pitch = 1.0", "missing"),
                        ("controller.ki_yaw = 0.1", "missing"),
                        # explicit gains are not tuned, so a tuning key would be ignored
                        (full + "controller.damping_ratio = 0.9", "damping_ratio")):
        with pytest.raises(ConfigError, match=match):
            scenario_from_config(parse_config_text(text))


def test_keyed_names_the_keys_that_set_the_fields_a_check_names():
    thrusts = ", ".join(f"perturbation.thrust_scale_{fan}"
                        for fan in ("front", "back", "left", "right"))
    for fields_named, keys in [
        (("seed",), "sim.seed"),
        # a check over several fields names every key, in SCHEMA order
        (("thrust_min", "thrust_max_per_fan"), "limits.thrust_max_per_fan_n, limits.thrust_min_n"),
        (("thrust_scale",), thrusts),  # a tuple field names each key that sets it
        (("pitch",), "controller.setpoint_pitch_deg"),
        # RobotGeometry's com_body and foot fan, by the fields that set them
        (("com_body", "fan_foot_z"),
         "posture.com_x_m, posture.com_z_m, posture.foot_x_m, posture.foot_z_m, geometry.com_y_m"),
    ]:
        assert keyed(FieldError("checked", *fields_named)) == f"{keys}: checked"
    # no key sets the field, or no field check raised: the message as it is
    assert keyed(FieldError("per_fan_max must be positive", "per_fan_max")) == \
        "per_fan_max must be positive"
    for exc in (ValueError("unknown control mode 'x'"), ConfigError("--thrust-ff must be finite")):
        assert keyed(exc) == str(exc)
    assert keyed(ConfigError("sim.seed: seed must be >= 0, got -1")) == \
        "sim.seed: seed must be >= 0, got -1"  # a keyed message is keyed once


def test_every_schema_field_has_one_consumer():
    # keyed reads a field's keys by its name alone, so no two consumers share one
    consumers = {}
    for key, (_, consumer, name, *_) in SCHEMA.items():
        assert consumers.setdefault(name, consumer) is consumer, key


def test_a_file_that_sets_only_an_i_gain_names_every_gain_key():
    with pytest.raises(ConfigError, match=r"^controller\.kp_pitch, controller\.kd_pitch, "
                                          r"controller\.kp_yaw, controller\.kd_yaw, "
                                          r"controller\.ki_pitch: explicit gains need every "):
        scenario_from_config({"controller.ki_pitch": 0.1})


def test_full_gains_accepted():
    text = "\n".join([
        "controller.kp_pitch = 1.0",
        "controller.kd_pitch = 0.1",
        "controller.kp_yaw = 0.5",
        "controller.kd_yaw = 0.05",
    ])
    cfg = scenario_from_config(parse_config_text(text))
    assert cfg.gains is not None
    assert cfg.gains.kp_pitch == 1.0
    assert cfg.gains.ki_pitch == 0.0


def test_invalid_scenario_value_maps_to_config_error():
    with pytest.raises(ConfigError):
        scenario_from_config(parse_config_text("sim.dt_s = 0.01"))
    # a ramp above the cap is a takeoff error only, raised by the run itself
    cfg = scenario_from_config(parse_config_text("thrust.target_per_fan_n = 99.0"))
    with pytest.raises(ValueError, match="exceeds the 50.0 N per-fan limit"):
        run_scenario(cfg)


def test_envelope_settings():
    settings = envelope_settings_from_config(
        parse_config_text("envelope.n_points = 21\nenvelope.theta_pitch_max_deg = 10"))
    assert astuple(settings) == astuple(EnvelopeSettings(
        theta_pitch_range=(-math.pi / 6.0, math.radians(10.0)), n_points=21,
        min_vertical_force=None))
    assert astuple(envelope_settings_from_config({})) == astuple(EnvelopeSettings())


@pytest.mark.parametrize("text, message", [
    ("envelope.n_points = 1", "n_points must be >= 2"),
    ("envelope.n_points = -3", "n_points must be >= 2"),
    ("envelope.theta_pitch_min_deg = 40", r"theta_pitch_range must be ordered \(min, max\)"),
    ("envelope.min_vertical_force_n = -5", "min_vertical_force must be positive"),
    ("envelope.min_vertical_force_n = 0", "min_vertical_force must be positive"),
    ("sim.dt_s = 0.01\nenvelope.n_points = 1", "n_points must be >= 2"),  # checked first
])
def test_envelope_settings_are_checked_by_the_one_resolver(text, message):
    # every command resolves through scenario_from_config, so it refuses them
    # too, led by the keys that set the fields the check names
    values = parse_config_text(text)
    with pytest.raises(ConfigError, match=f"^{message}$") as exc:
        envelope_settings_from_config(values)
    keys = ", ".join(key for key, row in SCHEMA.items() if row[2] in exc.value.fields)
    assert keys.startswith("envelope.")
    with pytest.raises(ConfigError, match=f"^{re.escape(keys)}: {message}$"):
        scenario_from_config(values)


def test_envelope_settings_reject_nan():
    with pytest.raises(ValueError, match="^min_vertical_force must be positive$"):
        EnvelopeSettings(min_vertical_force=math.nan)
    with pytest.raises(ValueError, match="^n_points must be >= 2$"):
        EnvelopeSettings(n_points=math.nan)
    for bounds in ((math.nan, 0.1), (-0.1, math.nan)):
        with pytest.raises(ValueError, match=r"^theta_pitch_range must be ordered"):
            EnvelopeSettings(theta_pitch_range=bounds)


def test_posture_field_overrides():
    assert astuple(scenario_from_config({}).posture) == astuple(builtin_posture("P1"))
    assert astuple(scenario_from_config({"posture": "P3"}).posture) == astuple(builtin_posture("P3"))
    values = parse_config_text("posture.com_x_m = 0.0\nposture.foot_x_m = 0.0")
    cfg = scenario_from_config(values)
    assert cfg.posture.com_sagittal == (0.0, -0.243)  # z kept from the builtin
    assert cfg.posture.foot_fan == (0.0, -0.610)
    assert cfg.geometry().com_body[0] == 0.0


def test_posture_override_validation():
    values = parse_config_text("posture.foot_pitch_min_deg = 95")
    with pytest.raises(ConfigError):
        scenario_from_config(values)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.cfg")


def test_load_config_names_a_file_that_is_not_utf8(tmp_path, capsys):
    from tvcsim.cli import main

    path = tmp_path / "utf16.cfg"
    path.write_bytes(b"\xff\xfe" + "posture = P2\n".encode("utf-16-le"))
    with pytest.raises(ConfigError, match=rf"^cannot read config file {re.escape(str(path))}: "
                                          "'utf-8' codec can't decode byte 0xff"):
        load_config(path)
    assert main(["--config", str(path), "--out", str(tmp_path), "trim"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot read config file {path}")


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SAMPLE)
    values, digest = load_config(path)
    assert values["posture"] == "P2"
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_load_config_reads_universal_newlines(tmp_path):
    # \r\n and \r end lines as \n does; the digest is of the bytes as stored
    path = tmp_path / "run.cfg"
    path.write_bytes(SAMPLE.replace("\n", "\r\n").encode())
    values, digest = load_config(path)
    assert values == parse_config_text(SAMPLE)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    path.write_bytes(b"posture = P2\r\nsim.seed = 3\rgeometry.mass_kgs = 1\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:3: unknown key 'geometry\.mass_kgs'$"):
        load_config(path)


GAINS = {"controller.kp_pitch": 1.0, "controller.kd_pitch": 0.1,
         "controller.kp_yaw": 0.5, "controller.kd_yaw": 0.05}
# key -> two valid values that must resolve differently
TWO_VALUES = {
    "posture": ("P1", "P2"),
    "posture.com_x_m": (0.025, 0.03),
    "posture.com_z_m": (-0.243, -0.25),
    "posture.foot_x_m": (0.02, 0.03),
    "posture.foot_z_m": (-0.61, -0.6),
    "posture.foot_pitch_min_deg": (-74.0, -60.0),
    "posture.foot_pitch_max_deg": (90.0, 80.0),
    "mode": ("both-on", "all-off"),
    "geometry.mass_kg": (17.0, 16.0),
    "geometry.waist_fan_spacing_m": (0.3, 0.32),
    "geometry.foot_fan_spacing_m": (0.25, 0.2),
    "geometry.fan_mass_kg": (0.488, 0.3),
    "geometry.com_y_m": (0.0, 0.01),
    "limits.thrust_max_per_fan_n": (50.0, 52.0),
    "limits.thrust_min_n": (0.0, 1.0),
    "limits.foot_pitch_rate_max_rad_s": (8.0, 6.0),
    "limits.thrust_time_constant_s": (0.1, 0.0),
    "controller.kp_pitch": (1.0, 1.1),
    "controller.kd_pitch": (0.1, 0.2),
    "controller.kp_yaw": (0.5, 0.6),
    "controller.kd_yaw": (0.05, 0.06),
    "controller.ki_pitch": (0.0, 0.1),
    "controller.ki_yaw": (0.0, 0.1),
    "controller.natural_freq_pitch_rad_s": (12.0, 10.0),
    "controller.natural_freq_yaw_rad_s": (12.0, 10.0),
    "controller.damping_ratio": (0.7, 0.8),
    "controller.setpoint_pitch_deg": (0.0, 2.0),
    "controller.setpoint_yaw_deg": (0.0, 2.0),
    "controller.rate_hz": (250.0, 500.0),
    "thrust.target_per_fan_n": (48.0, 46.0),
    "thrust.ramp_time_s": (0.5, 0.6),
    "perturbation.com_offset_x_m": (0.0, 0.005),
    "perturbation.com_offset_y_m": (0.0, 0.005),
    "perturbation.com_offset_z_m": (0.0, 0.005),
    "perturbation.foot_misalignment_left_deg": (0.0, 2.0),
    "perturbation.foot_misalignment_right_deg": (0.0, 2.0),
    "perturbation.thrust_scale_front": (1.0, 1.1),
    "perturbation.thrust_scale_back": (1.0, 1.1),
    "perturbation.thrust_scale_left": (1.0, 1.1),
    "perturbation.thrust_scale_right": (1.0, 1.1),
    "sim.duration_s": (2.0, 3.0),
    "sim.dt_s": (0.001, 0.0005),
    "sim.sample_rate_hz": (250.0, 500.0),
    "sim.seed": (0, 1),
    "sim.integrator": ("euler", "rk4"),
    "sim.sensor_noise_std": (0.0, 0.01),
    "envelope.theta_pitch_min_deg": (-30.0, -20.0),
    "envelope.theta_pitch_max_deg": (30.0, 20.0),
    "envelope.n_points": (61, 5),
    "envelope.min_vertical_force_n": (150.0, 160.0),
}


def _resolved(values):
    return asdict(scenario_from_config(values)), asdict(envelope_settings_from_config(values))


@pytest.mark.parametrize("key", sorted(SCHEMA))
def test_every_key_changes_what_it_resolves_to(key):
    # a key that is parsed but read by no resolver would resolve alike
    base = GAINS if SCHEMA[key][1] is ControllerGains else {}
    low, high = TWO_VALUES[key]
    assert _resolved(base | {key: low}) != _resolved(base | {key: high})


def test_schema_rows_name_fields_of_their_consumers():
    assert set(TWO_VALUES) == set(SCHEMA)
    consumers = (ScenarioConfig, FanLimits, ThrustRamp, ControllerGains, Posture,
                 Perturbation, EulerAngles, EnvelopeSettings)
    for key, (_, consumer, name, *index) in SCHEMA.items():
        if key == "posture":  # read by name
            assert (consumer, name, index) == (None, None, []), key
            continue
        assert consumer in consumers, key
        assert name in {f.name for f in fields(consumer) if f.init}, key
        if index:
            default = getattr(DEFAULTS[ELEMENTS[key][0]], name)
            assert len(index) == 1 and 0 <= index[0] < len(default), key


# key -> the scenario field, tuple field and element it sets, stated apart
# from SCHEMA so that a swap of two SCHEMA indices shows
ELEMENTS = {
    "posture.com_x_m": ("posture", "com_sagittal", 0),
    "posture.com_z_m": ("posture", "com_sagittal", 1),
    "posture.foot_x_m": ("posture", "foot_fan", 0),
    "posture.foot_z_m": ("posture", "foot_fan", 1),
    "posture.foot_pitch_min_deg": ("posture", "foot_pitch_range_deg", 0),
    "posture.foot_pitch_max_deg": ("posture", "foot_pitch_range_deg", 1),
    "perturbation.com_offset_x_m": ("perturbation", "com_offset", 0),
    "perturbation.com_offset_y_m": ("perturbation", "com_offset", 1),
    "perturbation.com_offset_z_m": ("perturbation", "com_offset", 2),
    "perturbation.thrust_scale_front": ("perturbation", "thrust_scale", 0),
    "perturbation.thrust_scale_back": ("perturbation", "thrust_scale", 1),
    "perturbation.thrust_scale_left": ("perturbation", "thrust_scale", 2),
    "perturbation.thrust_scale_right": ("perturbation", "thrust_scale", 3),
    "envelope.theta_pitch_min_deg": ("envelope", "theta_pitch_range", 0),
    "envelope.theta_pitch_max_deg": ("envelope", "theta_pitch_range", 1),
}
# the default that a posture, perturbation or envelope key changes
DEFAULTS = {"posture": builtin_posture("P1"), "perturbation": Perturbation(),
            "envelope": EnvelopeSettings()}


def test_schema_indexes_exactly_the_tuple_element_keys():
    assert {k for k, row in SCHEMA.items() if len(row) == 4} == set(ELEMENTS)


@pytest.mark.parametrize("key", sorted(ELEMENTS))
def test_each_indexed_key_changes_exactly_its_own_element(key):
    # two rows with swapped elements (left and right, say) still resolve
    # differently, so test_every_key_changes_what_it_resolves_to would miss the swap
    attribute, name, index = ELEMENTS[key]
    default = DEFAULTS[attribute]
    value = TWO_VALUES[key][1]
    element = list(getattr(default, name))
    # the envelope's pitch range is in radians, its keys in degrees
    element_value = math.radians(value) if attribute == "envelope" else value
    assert element[index] != element_value
    element[index] = element_value
    changed = replace(default, **{name: tuple(element)})
    scenario, settings = scenario_from_config({}), EnvelopeSettings()
    if attribute == "envelope":
        settings = changed
    else:
        scenario = replace(scenario, **{attribute: changed})
    assert _resolved({key: value}) == (asdict(scenario), asdict(settings))
