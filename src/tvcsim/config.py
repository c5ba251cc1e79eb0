"""Flat dotted-key configuration files.

Format: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines ignored. Keys are dotted paths (``geometry.mass_kg``), values are
scalars. Units are SI except angles, which are degrees in files. Unknown
keys are hard errors so typos cannot silently fall back to defaults.

Every key is optional; the builtin postures and defaults work with no file
at all. SCHEMA below is the one table of keys, and the README's configuration
table is their one description. scenario_from_config resolves every key
through its row: one merge, _merged, sets the field (or tuple element) that
the row names on its consumer's default, so an absent key keeps that default.
Only the posture label is read by name. The one set of defaults held here is
the envelope sweep's, EnvelopeSettings, the one check of the sweep settings,
which envelope_sweep takes from this module too. Every command resolves its
robot through scenario_from_config, which checks the envelope.* values first,
so the same file describes the same robot to all and is refused by all alike.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

from .controller import ControlMode, ControllerGains, ThrustRamp
from .robot import FanLimits, Posture, builtin_posture
from .sim import Perturbation, ScenarioConfig
from .spatial import EulerAngles

SWEEP_PITCH_RANGE = (-math.pi / 6.0, math.pi / 6.0)  # rad, the default envelope sweep
SWEEP_POINTS = 61


class ConfigError(ValueError):
    """Malformed config file, unknown key, or invalid value."""


@dataclass(frozen=True)
class EnvelopeSettings:
    """The envelope command's sweep and vertical-force floor (None: M g)."""

    theta_pitch_range: tuple[float, float] = SWEEP_PITCH_RANGE  # rad
    n_points: int = SWEEP_POINTS
    min_vertical_force: float | None = None

    def __post_init__(self):  # a NaN fails each check too
        if not (self.min_vertical_force is None or self.min_vertical_force > 0.0):
            raise ConfigError("min_vertical_force must be positive")
        if not self.n_points >= 2:
            raise ConfigError("n_points must be >= 2")
        if not self.theta_pitch_range[0] <= self.theta_pitch_range[1]:
            raise ConfigError("theta_pitch_range must be ordered (min, max)")


# key -> (type, consumer, field[, index]): the value sets `field` of the consumer
# dataclass, or element `index` of that tuple field; a *_deg value is converted
# to radians unless the field is in degrees too. None marks the posture label,
# which is read by name
SCHEMA: dict[str, tuple] = {
    "posture": (str, None, None),
    "posture.com_x_m": (float, Posture, "com_sagittal", 0),
    "posture.com_z_m": (float, Posture, "com_sagittal", 1),
    "posture.foot_x_m": (float, Posture, "foot_fan", 0),
    "posture.foot_z_m": (float, Posture, "foot_fan", 1),
    "posture.foot_pitch_min_deg": (float, Posture, "foot_pitch_range_deg", 0),
    "posture.foot_pitch_max_deg": (float, Posture, "foot_pitch_range_deg", 1),
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
    "controller.setpoint_pitch_deg": (float, EulerAngles, "pitch"),
    "controller.setpoint_yaw_deg": (float, EulerAngles, "yaw"),
    "controller.rate_hz": (float, ScenarioConfig, "controller_rate"),
    "thrust.target_per_fan_n": (float, ThrustRamp, "target_per_fan"),
    "thrust.ramp_time_s": (float, ThrustRamp, "ramp_time"),
    "perturbation.com_offset_x_m": (float, Perturbation, "com_offset", 0),
    "perturbation.com_offset_y_m": (float, Perturbation, "com_offset", 1),
    "perturbation.com_offset_z_m": (float, Perturbation, "com_offset", 2),
    "perturbation.foot_misalignment_left_deg":
        (float, Perturbation, "foot_axis_misalignment_left"),
    "perturbation.foot_misalignment_right_deg":
        (float, Perturbation, "foot_axis_misalignment_right"),
    "perturbation.thrust_scale_front": (float, Perturbation, "thrust_scale", 0),
    "perturbation.thrust_scale_back": (float, Perturbation, "thrust_scale", 1),
    "perturbation.thrust_scale_left": (float, Perturbation, "thrust_scale", 2),
    "perturbation.thrust_scale_right": (float, Perturbation, "thrust_scale", 3),
    "sim.duration_s": (float, ScenarioConfig, "duration_s"),
    "sim.dt_s": (float, ScenarioConfig, "dt_s"),
    "sim.sample_rate_hz": (float, ScenarioConfig, "sample_rate_hz"),
    "sim.seed": (int, ScenarioConfig, "seed"),
    "sim.integrator": (str, ScenarioConfig, "integrator"),
    "sim.sensor_noise_std": (float, ScenarioConfig, "sensor_noise_std"),
    "envelope.theta_pitch_min_deg": (float, EnvelopeSettings, "theta_pitch_range", 0),
    "envelope.theta_pitch_max_deg": (float, EnvelopeSettings, "theta_pitch_range", 1),
    "envelope.n_points": (int, EnvelopeSettings, "n_points"),
    "envelope.min_vertical_force_n": (float, EnvelopeSettings, "min_vertical_force"),
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


def load_config(path) -> tuple[dict, str]:
    """The parsed values of the file at path and the sha256 hex digest of the
    bytes parsed, read as UTF-8 text, after any byte-order mark, with
    universal newlines."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, source=str(path)), hashlib.sha256(data).hexdigest()


_REQUIRED_GAINS = ["controller.kp_pitch", "controller.kd_pitch",
                   "controller.kp_yaw", "controller.kd_yaw"]
_TUNING_KEYS = ["controller.damping_ratio", "controller.natural_freq_pitch_rad_s",
                "controller.natural_freq_yaw_rad_s"]


def _sets(values: dict, consumer) -> bool:
    return any(SCHEMA[key][1] is consumer for key in values)


def _merged(values: dict, base):
    """base with the fields, or tuple elements, that values sets for type(base).

    A *_deg key is converted to radians unless its field is in degrees too.
    """
    consumer, changes = type(base), {}
    for key, value in values.items():
        row = SCHEMA[key]
        if row[1] is not consumer:
            continue
        _, _, name, *index = row
        if key.endswith("_deg") and not name.endswith("_deg"):
            value = math.radians(value)
        if index:
            element = list(changes.get(name, getattr(base, name)))
            element[index[0]] = value
            value = tuple(element)
        changes[name] = value
    return replace(base, **changes) if changes else base


def scenario_from_config(values: dict) -> ScenarioConfig:
    """The one resolver from parsed values to a scenario.

    Every command builds its posture, geometry and limits from the result;
    CLI options that override the file (--mode, --seed, --posture) are merged
    into values first. Invalid values raise ConfigError, the envelope.* ones first.
    """
    try:
        envelope_settings_from_config(values)  # every command checks the sweep settings
        if "mode" in values:
            values = values | {"mode": ControlMode.parse(values["mode"])}
        gains = None  # tuned at scenario start
        if _sets(values, ControllerGains):
            missing = [k for k in _REQUIRED_GAINS if k not in values]
            if missing:
                raise ConfigError(
                    f"explicit gains need all of {_REQUIRED_GAINS}; missing {missing}")
            tuning = [k for k in _TUNING_KEYS if k in values]
            if tuning:
                raise ConfigError(
                    f"explicit gains are used as given; remove the tuning keys {tuning}")
            gains = _merged(values, ControllerGains(0.0, 0.0, 0.0, 0.0))  # all four set
        # any perturbation key replaces the standard set
        perturbation = Perturbation() if _sets(values, Perturbation) else Perturbation.standard()
        return _merged(values, ScenarioConfig(
            gains=gains,
            perturbation=_merged(values, perturbation),
            posture=_merged(values, builtin_posture(values["posture"]) if "posture" in values
                            else ScenarioConfig.posture),
            ramp=_merged(values, ThrustRamp()),
            limits=_merged(values, FanLimits()),
            setpoint=_merged(values, EulerAngles(0.0, 0.0, 0.0)),
        ))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def envelope_settings_from_config(values: dict) -> EnvelopeSettings:
    """The envelope command's settings, with the fields that values sets."""
    return _merged(values, EnvelopeSettings())
