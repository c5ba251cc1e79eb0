"""Flat dotted-key configuration files.

Format: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines ignored. Keys are dotted paths (``geometry.mass_kg``), values are
scalars. Units are SI except angles, which are degrees in files. Unknown
keys are hard errors so typos cannot silently fall back to defaults.

Every key is optional; the builtin postures and defaults work with no file
at all. The full schema is documented in the README and in SCHEMA below.

This module holds no default values: a key that is absent leaves the default
of the dataclass that consumes it (ScenarioConfig, FanLimits, ThrustRamp,
Perturbation, ControllerGains, the builtin posture) or of envelope_sweep.
Every command resolves its robot through scenario_from_config, so the same
file describes the same robot to all of them.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, replace

from .controller import ControlMode, ControllerGains, ThrustRamp
from .envelope import SWEEP_PITCH_RANGE, SWEEP_POINTS
from .robot import FanLimits, Posture, builtin_posture
from .sim import Perturbation, ScenarioConfig


class ConfigError(ValueError):
    """Malformed config file, unknown key, or invalid value."""


# key -> (type, help)
SCHEMA: dict[str, tuple] = {
    "posture": (str, "takeoff posture label: P1, P2, or P3"),
    "posture.com_x_m": (float, "override: CoM sagittal x"),
    "posture.com_z_m": (float, "override: CoM sagittal z"),
    "posture.foot_x_m": (float, "override: foot fan x"),
    "posture.foot_z_m": (float, "override: foot fan z"),
    "posture.foot_pitch_min_deg": (float, "override: foot pitch range floor"),
    "posture.foot_pitch_max_deg": (float, "override: foot pitch range ceiling"),
    "mode": (str, "controller condition: both-on, pitch-only, or all-off"),
    "geometry.mass_kg": (float, "total robot mass"),
    "geometry.waist_fan_spacing_m": (float, "front-to-back waist fan distance L"),
    "geometry.foot_fan_spacing_m": (float, "left-to-right foot fan distance L_f"),
    "geometry.fan_mass_kg": (float, "per-fan mass for the inertia surrogate"),
    "geometry.com_y_m": (float, "lateral CoM offset override"),
    "limits.thrust_max_per_fan_n": (float, "per-fan thrust cap"),
    "limits.thrust_min_n": (float, "per-fan thrust floor"),
    "limits.foot_pitch_rate_max_rad_s": (float, "ankle slew limit"),
    "limits.thrust_time_constant_s": (float, "fan spool-up lag, 0 = ideal"),
    "controller.kp_pitch": (float, "pitch loop P gain (rad command per rad error)"),
    "controller.kd_pitch": (float, "pitch loop D gain"),
    "controller.kp_yaw": (float, "yaw loop P gain"),
    "controller.kd_yaw": (float, "yaw loop D gain"),
    "controller.ki_pitch": (float, "optional pitch I gain, default 0"),
    "controller.ki_yaw": (float, "optional yaw I gain, default 0"),
    "controller.natural_freq_pitch_rad_s": (float, "pole placement wn when gains are auto-tuned"),
    "controller.natural_freq_yaw_rad_s": (float, "pole placement wn when gains are auto-tuned"),
    "controller.damping_ratio": (float, "pole placement zeta when gains are auto-tuned"),
    "controller.setpoint_pitch_deg": (float, "attitude setpoint"),
    "controller.setpoint_yaw_deg": (float, "attitude setpoint"),
    "controller.rate_hz": (float, "controller execution rate"),
    "thrust.target_per_fan_n": (float, "preplanned per-fan thrust target"),
    "thrust.ramp_time_s": (float, "linear ramp duration from zero"),
    "perturbation.com_offset_x_m": (float, "CoM estimate error, body x"),
    "perturbation.com_offset_y_m": (float, "CoM estimate error, body y"),
    "perturbation.com_offset_z_m": (float, "CoM estimate error, body z"),
    "perturbation.foot_misalignment_left_deg": (float, "left foot thrust-axis pitch bias"),
    "perturbation.foot_misalignment_right_deg": (float, "right foot thrust-axis pitch bias"),
    "perturbation.thrust_scale_front": (float, "front fan output factor"),
    "perturbation.thrust_scale_back": (float, "back fan output factor"),
    "perturbation.thrust_scale_left": (float, "left fan output factor"),
    "perturbation.thrust_scale_right": (float, "right fan output factor"),
    "sim.duration_s": (float, "run length"),
    "sim.dt_s": (float, "physics step, at most 0.002"),
    "sim.sample_rate_hz": (float, "log sampling rate"),
    "sim.seed": (int, "random seed for the sensor noise hook"),
    "sim.integrator": (str, "euler or rk4"),
    "sim.sensor_noise_std": (float, "attitude/rate noise sigma, 0 disables"),
    "envelope.theta_pitch_min_deg": (float, "sweep start"),
    "envelope.theta_pitch_max_deg": (float, "sweep end"),
    "envelope.n_points": (int, "sweep point count"),
    "envelope.min_vertical_force_n": (float, "vertical thrust floor, default M g"),
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


# config key -> keyword argument of the dataclass that consumes it
_SCENARIO_ARGS = {
    "mode": "mode",
    "sim.duration_s": "duration",
    "sim.dt_s": "dt",
    "sim.sample_rate_hz": "sample_rate",
    "sim.seed": "seed",
    "sim.integrator": "integrator",
    "sim.sensor_noise_std": "sensor_noise_std",
    "controller.rate_hz": "controller_rate",
    "controller.damping_ratio": "zeta",
    "controller.natural_freq_pitch_rad_s": "omega_n_pitch",
    "controller.natural_freq_yaw_rad_s": "omega_n_yaw",
    "geometry.mass_kg": "mass_total",
    "geometry.waist_fan_spacing_m": "fan_spacing_waist",
    "geometry.foot_fan_spacing_m": "fan_spacing_feet",
    "geometry.fan_mass_kg": "fan_mass",
    "geometry.com_y_m": "com_y",
}
_LIMIT_ARGS = {
    "limits.thrust_max_per_fan_n": "thrust_max_per_fan",
    "limits.thrust_min_n": "thrust_min",
    "limits.foot_pitch_rate_max_rad_s": "foot_pitch_rate_max",
    "limits.thrust_time_constant_s": "thrust_time_constant",
}
_RAMP_ARGS = {
    "thrust.target_per_fan_n": "target_per_fan",
    "thrust.ramp_time_s": "ramp_time",
}
_GAIN_ARGS = {
    "controller.kp_pitch": "kp_pitch",
    "controller.kd_pitch": "kd_pitch",
    "controller.kp_yaw": "kp_yaw",
    "controller.kd_yaw": "kd_yaw",
    "controller.ki_pitch": "ki_pitch",
    "controller.ki_yaw": "ki_yaw",
}
_REQUIRED_GAINS = ["controller.kp_pitch", "controller.kd_pitch",
                   "controller.kp_yaw", "controller.kd_yaw"]
_TUNING_KEYS = ["controller.damping_ratio", "controller.natural_freq_pitch_rad_s",
                "controller.natural_freq_yaw_rad_s"]


def _present(values: dict, args: dict) -> dict:
    """Keyword arguments for the keys that are set; the rest keep their defaults."""
    return {arg: values[key] for key, arg in args.items() if key in values}


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
        kwargs = _present(values, _SCENARIO_ARGS)
        if "mode" in kwargs:
            kwargs["mode"] = ControlMode.parse(kwargs["mode"])
        gains = _present(values, _GAIN_ARGS)
        if gains:
            missing = [k for k in _REQUIRED_GAINS if k not in values]
            if missing:
                raise ConfigError(
                    f"explicit gains need all of {_REQUIRED_GAINS}; missing {missing}")
            tuning = [k for k in _TUNING_KEYS if k in values]
            if tuning:
                raise ConfigError(
                    f"explicit gains are used as given; remove the tuning keys {tuning}")
            kwargs["gains"] = ControllerGains(**gains)
        if any(key.startswith("perturbation.") for key in values):
            kwargs["perturbation"] = _perturbation_from(values)
        setpoint = _default(ScenarioConfig, "setpoint")
        kwargs.update(
            posture=posture_from_config(values),
            ramp=ThrustRamp(**_present(values, _RAMP_ARGS)),
            limits=FanLimits(**_present(values, _LIMIT_ARGS)),
            setpoint=replace(
                setpoint,
                pitch=_radians(values, "controller.setpoint_pitch_deg", setpoint.pitch),
                yaw=_radians(values, "controller.setpoint_yaw_deg", setpoint.yaw),
            ),
        )
        return ScenarioConfig(**kwargs)
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
