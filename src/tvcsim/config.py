"""Flat dotted-key configuration files.

Format: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines ignored. Keys are dotted paths (``geometry.mass_kg``), values are
scalars. Units are SI except angles, which are degrees in files. Unknown
keys are hard errors so typos cannot silently fall back to defaults.

Every key is optional; the builtin postures and defaults work with no file
at all. SCHEMA below is the one table of keys: each row gives a key's type
and the dataclass field that consumes it. The README's configuration table
is their one description.

A key that is absent leaves the default of the dataclass that consumes it
(ScenarioConfig, FanLimits, ThrustRamp, Perturbation, ControllerGains, the
builtin posture); the one set of defaults held here is the envelope sweep's,
which envelope_sweep takes from this module.
Every command resolves its robot through scenario_from_config, so the same
file describes the same robot to all of them.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, replace

from .controller import ControlMode, ControllerGains, ThrustRamp
from .robot import FanLimits, Posture, builtin_posture
from .sim import Perturbation, ScenarioConfig

SWEEP_PITCH_RANGE = (-math.pi / 6.0, math.pi / 6.0)  # rad, the default envelope sweep
SWEEP_POINTS = 61


class ConfigError(ValueError):
    """Malformed config file, unknown key, or invalid value."""


# key -> (type, consumer, field): the value is the keyword argument `field` of the
# consumer dataclass; None marks the keys that the posture, perturbation,
# setpoint and envelope resolvers below read themselves
SCHEMA: dict[str, tuple] = {
    "posture": (str, None, None),
    "posture.com_x_m": (float, None, None),
    "posture.com_z_m": (float, None, None),
    "posture.foot_x_m": (float, None, None),
    "posture.foot_z_m": (float, None, None),
    "posture.foot_pitch_min_deg": (float, None, None),
    "posture.foot_pitch_max_deg": (float, None, None),
    "mode": (str, ScenarioConfig, "mode"),
    "geometry.mass_kg": (float, ScenarioConfig, "mass_total"),
    "geometry.waist_fan_spacing_m": (float, ScenarioConfig, "fan_spacing_waist"),
    "geometry.foot_fan_spacing_m": (float, ScenarioConfig, "fan_spacing_feet"),
    "geometry.fan_mass_kg": (float, ScenarioConfig, "fan_mass"),
    "geometry.com_y_m": (float, ScenarioConfig, "com_y"),
    "limits.thrust_max_per_fan_n": (float, FanLimits, "thrust_max_per_fan"),
    "limits.thrust_min_n": (float, FanLimits, "thrust_min"),
    "limits.foot_pitch_rate_max_rad_s": (float, FanLimits, "foot_pitch_rate_max"),
    "limits.thrust_time_constant_s": (float, FanLimits, "thrust_time_constant"),
    "controller.kp_pitch": (float, ControllerGains, "kp_pitch"),
    "controller.kd_pitch": (float, ControllerGains, "kd_pitch"),
    "controller.kp_yaw": (float, ControllerGains, "kp_yaw"),
    "controller.kd_yaw": (float, ControllerGains, "kd_yaw"),
    "controller.ki_pitch": (float, ControllerGains, "ki_pitch"),
    "controller.ki_yaw": (float, ControllerGains, "ki_yaw"),
    "controller.natural_freq_pitch_rad_s": (float, ScenarioConfig, "omega_n_pitch"),
    "controller.natural_freq_yaw_rad_s": (float, ScenarioConfig, "omega_n_yaw"),
    "controller.damping_ratio": (float, ScenarioConfig, "zeta"),
    "controller.setpoint_pitch_deg": (float, None, None),
    "controller.setpoint_yaw_deg": (float, None, None),
    "controller.rate_hz": (float, ScenarioConfig, "controller_rate"),
    "thrust.target_per_fan_n": (float, ThrustRamp, "target_per_fan"),
    "thrust.ramp_time_s": (float, ThrustRamp, "ramp_time"),
    "perturbation.com_offset_x_m": (float, None, None),
    "perturbation.com_offset_y_m": (float, None, None),
    "perturbation.com_offset_z_m": (float, None, None),
    "perturbation.foot_misalignment_left_deg": (float, None, None),
    "perturbation.foot_misalignment_right_deg": (float, None, None),
    "perturbation.thrust_scale_front": (float, None, None),
    "perturbation.thrust_scale_back": (float, None, None),
    "perturbation.thrust_scale_left": (float, None, None),
    "perturbation.thrust_scale_right": (float, None, None),
    "sim.duration_s": (float, ScenarioConfig, "duration_s"),
    "sim.dt_s": (float, ScenarioConfig, "dt_s"),
    "sim.sample_rate_hz": (float, ScenarioConfig, "sample_rate_hz"),
    "sim.seed": (int, ScenarioConfig, "seed"),
    "sim.integrator": (str, ScenarioConfig, "integrator"),
    "sim.sensor_noise_std": (float, ScenarioConfig, "sensor_noise_std"),
    "envelope.theta_pitch_min_deg": (float, None, None),
    "envelope.theta_pitch_max_deg": (float, None, None),
    "envelope.n_points": (int, None, None),
    "envelope.min_vertical_force_n": (float, None, None),
}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse dotted-key lines into a typed mapping.

    Unknown keys, duplicate keys and non-finite numbers are rejected.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = SCHEMA[key][0](value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from None
        if isinstance(values[key], float) and not math.isfinite(values[key]):
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {value!r} is not finite")
    return values


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, source=str(path))


_REQUIRED_GAINS = ["controller.kp_pitch", "controller.kd_pitch",
                   "controller.kp_yaw", "controller.kd_yaw"]
_TUNING_KEYS = ["controller.damping_ratio", "controller.natural_freq_pitch_rad_s",
                "controller.natural_freq_yaw_rad_s"]


def _radians(values: dict, key: str, default: float) -> float:
    return math.radians(values[key]) if key in values else default


def _default(cls, name: str):
    """The dataclass default of one field of cls."""
    f = cls.__dataclass_fields__[name]
    return f.default if f.default_factory is MISSING else f.default_factory()


def scenario_from_config(values: dict) -> ScenarioConfig:
    """The one resolver from parsed values to a scenario.

    Every command builds its posture, geometry and limits from the result;
    CLI options that override the file (--mode, --seed, --posture) are merged
    into values first. Invalid values raise ConfigError.
    """
    try:
        # keyword arguments per consumer, from the keys that are set; the rest
        # keep their dataclass defaults
        kwargs = {ScenarioConfig: {}, FanLimits: {}, ThrustRamp: {}, ControllerGains: {}}
        for key, value in values.items():
            _, consumer, name = SCHEMA[key]
            if consumer is not None:
                kwargs[consumer][name] = value
        scenario = kwargs[ScenarioConfig]
        if "mode" in scenario:
            scenario["mode"] = ControlMode.parse(scenario["mode"])
        if kwargs[ControllerGains]:
            missing = [k for k in _REQUIRED_GAINS if k not in values]
            if missing:
                raise ConfigError(
                    f"explicit gains need all of {_REQUIRED_GAINS}; missing {missing}")
            tuning = [k for k in _TUNING_KEYS if k in values]
            if tuning:
                raise ConfigError(
                    f"explicit gains are used as given; remove the tuning keys {tuning}")
            scenario["gains"] = ControllerGains(**kwargs[ControllerGains])
        if any(key.startswith("perturbation.") for key in values):
            scenario["perturbation"] = _perturbation_from(values)
        setpoint = _default(ScenarioConfig, "setpoint")
        scenario.update(
            posture=posture_from_config(values),
            ramp=ThrustRamp(**kwargs[ThrustRamp]),
            limits=FanLimits(**kwargs[FanLimits]),
            setpoint=replace(
                setpoint,
                pitch=_radians(values, "controller.setpoint_pitch_deg", setpoint.pitch),
                yaw=_radians(values, "controller.setpoint_yaw_deg", setpoint.yaw),
            ),
        )
        return ScenarioConfig(**scenario)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def posture_from_config(values: dict) -> Posture:
    """The posture labelled in values, with any posture.* fields overridden."""
    base = (builtin_posture(values["posture"]) if "posture" in values
            else _default(ScenarioConfig, "posture"))
    (com_x, com_z), (foot_x, foot_z) = base.com_sagittal, base.foot_fan
    pitch_min, pitch_max = base.foot_pitch_range_deg
    return replace(
        base,
        com_sagittal=(values.get("posture.com_x_m", com_x),
                      values.get("posture.com_z_m", com_z)),
        foot_fan=(values.get("posture.foot_x_m", foot_x),
                  values.get("posture.foot_z_m", foot_z)),
        foot_pitch_range_deg=(values.get("posture.foot_pitch_min_deg", pitch_min),
                              values.get("posture.foot_pitch_max_deg", pitch_max)),
    )


def _perturbation_from(values: dict) -> Perturbation:
    """Perturbations when any perturbation.* key is set.

    They replace the standard set; unset fields keep Perturbation()'s zeros.
    """
    base = Perturbation()
    return Perturbation(
        com_offset=[values.get(f"perturbation.com_offset_{axis}_m", v)
                    for axis, v in zip("xyz", base.com_offset)],
        foot_axis_misalignment_left=_radians(
            values, "perturbation.foot_misalignment_left_deg",
            base.foot_axis_misalignment_left),
        foot_axis_misalignment_right=_radians(
            values, "perturbation.foot_misalignment_right_deg",
            base.foot_axis_misalignment_right),
        thrust_scale=[values.get(f"perturbation.thrust_scale_{fan}", v)
                      for fan, v in zip(("front", "back", "left", "right"),
                                        base.thrust_scale)],
    )


def envelope_settings_from_config(values: dict) -> dict:
    """envelope_sweep arguments and the vertical-force floor (None: M g)."""
    lo, hi = SWEEP_PITCH_RANGE
    return {
        "theta_pitch_range": (_radians(values, "envelope.theta_pitch_min_deg", lo),
                              _radians(values, "envelope.theta_pitch_max_deg", hi)),
        "n_points": values.get("envelope.n_points", SWEEP_POINTS),
        "min_vertical_force": values.get("envelope.min_vertical_force_n"),
    }
