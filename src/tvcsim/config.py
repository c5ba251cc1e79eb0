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
Only the posture label is read by name. A check names its fields (FieldError),
and keyed the keys whose rows set them. The one set of defaults held here is
the envelope sweep's, EnvelopeSettings, the one check of the sweep settings,
which envelope_sweep takes from this module too. Every command resolves its
robot through scenario_from_config, which checks the envelope.* values first,
so the same file describes the same robot to all and is refused by all alike.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import MISSING, dataclass, fields, replace

from .controller import ControlMode, ControllerGains, ThrustRamp
from .robot import FanLimits, FieldError, Posture, builtin_posture
from .sim import Perturbation, ScenarioConfig
from .spatial import EulerAngles

SWEEP_PITCH_RANGE = (-math.pi / 6.0, math.pi / 6.0)  # rad, the default envelope sweep
SWEEP_POINTS = 61


class ConfigError(FieldError):
    """Malformed config file, unknown key, or invalid value (of the fields named)."""


@dataclass(frozen=True)
class EnvelopeSettings:
    """The envelope command's sweep and vertical-force floor (None: M g)."""

    theta_pitch_range: tuple[float, float] = SWEEP_PITCH_RANGE  # rad
    n_points: int = SWEEP_POINTS
    min_vertical_force: float | None = None

    def __post_init__(self):  # a NaN fails each check too
        if not (self.min_vertical_force is None or self.min_vertical_force > 0.0):
            raise ConfigError("min_vertical_force must be positive", "min_vertical_force")
        if not self.n_points >= 2:
            raise ConfigError("n_points must be >= 2", "n_points")
        if not self.theta_pitch_range[0] <= self.theta_pitch_range[1]:
            raise ConfigError("theta_pitch_range must be ordered (min, max)", "theta_pitch_range")


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


# RobotGeometry's fields that ScenarioConfig.geometry builds, by the fields it reads
_GEOMETRY_SOURCES = {"com_body": ("com_sagittal", "com_y"),
                     "fan_foot_x": ("foot_fan",), "fan_foot_z": ("foot_fan",)}


def keyed(exc: Exception) -> str:
    """The message of exc, led by the keys whose SCHEMA rows set the fields it
    names, in SCHEMA order, where exc is a FieldError; other messages as they are."""
    names = {source for name in getattr(exc, "fields", ())
             for source in _GEOMETRY_SOURCES.get(name, (name,))}
    keys = [key for key, row in SCHEMA.items() if row[2] in names]
    return f"{', '.join(keys)}: {exc}" if keys else str(exc)


def _given(values: dict, consumer) -> list[str]:
    """The fields of consumer that values sets."""
    return [SCHEMA[key][2] for key in values if SCHEMA[key][1] is consumer]


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
        if given := _given(values, ControllerGains):
            missing = [f.name for f in fields(ControllerGains)
                       if f.default is MISSING and f.name not in given]
            if missing:
                raise FieldError(f"explicit gains need every kp and kd; missing {missing}",
                                 *given, *missing)
            tuning = [name for name in _given(values, ScenarioConfig)
                      if name in ("zeta", "omega_n_pitch", "omega_n_yaw")]
            if tuning:
                raise FieldError(f"explicit gains are used as given, not tuned by {tuning}",
                                 *given, *tuning)
            gains = _merged(values, ControllerGains(0.0, 0.0, 0.0, 0.0))  # all four set
        # any perturbation key replaces the standard set
        perturbation = Perturbation() if _given(values, Perturbation) else Perturbation.standard()
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
        raise ConfigError(keyed(exc)) from None


def envelope_settings_from_config(values: dict) -> EnvelopeSettings:
    """The envelope command's settings, with the fields that values sets."""
    return _merged(values, EnvelopeSettings())
