"""Physical parameters, takeoff postures, and derived geometry.

The robot is treated as a rigid body carrying four ducted fans: a front/back
pair fixed on the waist blowing along body +z, and a left/right pair on the
feet whose thrust axis pitches in the sagittal plane. Positions are expressed
in the body frame {B} with origin at the waist-fan midpoint.

All stored values are SI (meters, kilograms, radians); degrees are accepted
only at file/CLI boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

GRAVITY = 9.81  # m/s^2

# Defaults for quantities without a direct measurement. The waist and foot
# fan spacings are estimated from the robot's overall proportions (830 mm
# height); both are overridable and every envelope report echoes the geometry
# it used, because the TVC/DT torque ratio depends on them.
DEFAULT_MASS = 17.0  # kg
DEFAULT_WAIST_FAN_SPACING = 0.30  # m, front-to-back distance L
DEFAULT_FOOT_FAN_SPACING = 0.25  # m, left-to-right distance L_f
DEFAULT_FAN_MASS = 0.488  # kg per ducted fan
DEFAULT_THRUST_MAX = 50.0  # N per fan

# Foot pitch slew limit: ankle actuator rated 245 rpm through a 28:50 belt
# gives ~14.4 rad/s at the foot; derated 3x for control headroom.
DEFAULT_FOOT_PITCH_RATE_MAX = 8.0  # rad/s
DEFAULT_THRUST_TIME_CONSTANT = 0.1  # s, spool-up lag (0 = ideal actuator)


class UnknownPostureError(ValueError):
    """Raised for a posture label that is not one of the builtins."""


class FieldError(ValueError):
    """A failed check of a dataclass's values, naming the fields it checks."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


class EnvelopeInfeasibleError(Exception):
    """No fan state can meet the vertical-force floor at this attitude.

    Raised by tvcsim.envelope, which re-exports it; it lives here so that the
    CLI can catch it without importing the envelope solver and numpy.
    """


@dataclass(frozen=True)
class Posture:
    """A fixed takeoff joint configuration, reduced to sagittal geometry.

    com_sagittal and foot_fan are (x, z) pairs in meters in {B};
    foot_pitch_range_deg is the admissible foot fan pitch interval.
    """

    name: str
    com_sagittal: tuple[float, float]
    foot_fan: tuple[float, float]
    foot_pitch_range_deg: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.foot_pitch_range_deg
        if not -90.0 <= lo < hi <= 90.0:  # a NaN fails too
            raise FieldError(f"foot pitch range must have -90 <= min < max <= 90 deg, got "
                             f"({lo}, {hi})", "foot_pitch_range_deg")

    @property
    def foot_pitch_range(self) -> tuple[float, float]:
        """Range in radians."""
        lo, hi = self.foot_pitch_range_deg
        return (math.radians(lo), math.radians(hi))


_BUILTIN_POSTURES = {
    "P1": Posture("P1", com_sagittal=(0.025, -0.243), foot_fan=(0.020, -0.610),
                  foot_pitch_range_deg=(-74.0, 90.0)),
    "P2": Posture("P2", com_sagittal=(0.020, -0.265), foot_fan=(0.010, -0.650),
                  foot_pitch_range_deg=(-90.0, 90.0)),
    "P3": Posture("P3", com_sagittal=(0.050, -0.225), foot_fan=(0.070, -0.580),
                  foot_pitch_range_deg=(-82.0, 90.0)),
}


def builtin_posture(name: str) -> Posture:
    """Return one of the three builtin takeoff postures P1, P2, P3."""
    try:
        return _BUILTIN_POSTURES[name]
    except KeyError:
        raise UnknownPostureError(
            f"unknown posture {name!r}; expected one of {sorted(_BUILTIN_POSTURES)}"
        ) from None


@dataclass(frozen=True)
class FanLimits:
    """Actuator bounds shared by the envelope search, controller, and sim."""

    thrust_max_per_fan: float = DEFAULT_THRUST_MAX
    thrust_min: float = 0.0
    foot_pitch_rate_max: float = DEFAULT_FOOT_PITCH_RATE_MAX
    thrust_time_constant: float = DEFAULT_THRUST_TIME_CONSTANT

    def __post_init__(self):
        if not 0.0 <= self.thrust_min < self.thrust_max_per_fan:
            raise FieldError(f"need 0 <= thrust_min < thrust_max_per_fan, got "
                             f"({self.thrust_min}, {self.thrust_max_per_fan})",
                             "thrust_min", "thrust_max_per_fan")
        if not self.foot_pitch_rate_max > 0.0:  # a NaN fails too
            raise FieldError("foot_pitch_rate_max must be positive", "foot_pitch_rate_max")
        if not self.thrust_time_constant >= 0.0:
            raise FieldError("thrust_time_constant must be >= 0", "thrust_time_constant")


@dataclass
class RobotGeometry:
    """Mass properties and fan placement in the body frame, as plain floats.

    Waist fans sit at (+-L/2, 0, 0) blowing along +z; foot fans sit at
    (p_fx, +-L_f/2, p_fz) with the left foot on +y (the y axis points left).
    com_body is a float 3-tuple, converted here from any float sequence.
    inertia_body is derived, as three float row tuples: the diagonal
    point-mass surrogate for fan_mass, so dataclasses.replace recomputes it.
    It is checked once, on floats, as it is inverted.
    """

    mass_total: float = DEFAULT_MASS
    com_body: tuple[float, float, float] = (0.0, 0.0, 0.0)
    fan_spacing_waist: float = DEFAULT_WAIST_FAN_SPACING  # L
    fan_foot_x: float = 0.0  # p_fx
    fan_foot_z: float = 0.0  # p_fz
    fan_spacing_feet: float = DEFAULT_FOOT_FAN_SPACING  # L_f
    fan_mass: float = DEFAULT_FAN_MASS  # per fan, read by the inertia surrogate
    inertia_body: tuple = field(init=False)
    # the diagonal of inertia_body's inverse as a float 3-tuple, for the float
    # rigid-body step of the takeoff loop
    inertia_inverse: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.com_body = tuple(map(float, self.com_body))
        if len(self.com_body) != 3:
            raise FieldError("com_body must hold 3 coordinates", "com_body")
        if not self.mass_total > 0.0:  # a NaN fails too
            raise FieldError("mass_total must be positive", "mass_total")
        if not (self.fan_spacing_waist > 0.0 and self.fan_spacing_feet > 0.0):
            raise FieldError("fan spacings must be positive", "fan_spacing_waist",
                             "fan_spacing_feet")
        self.inertia_body = point_mass_inertia(self)
        self.inertia_inverse = _inverse(self.inertia_body)

    @property
    def weight(self) -> float:
        return self.mass_total * GRAVITY

    def fan_positions(self) -> tuple:
        """Rows: front, back, left, right fan positions in {B}, as float tuples."""
        half_l, half_lf = 0.5 * self.fan_spacing_waist, 0.5 * self.fan_spacing_feet
        return ((half_l, 0.0, 0.0),
                (-half_l, 0.0, 0.0),
                (self.fan_foot_x, half_lf, self.fan_foot_z),
                (self.fan_foot_x, -half_lf, self.fan_foot_z))


def _inverse(rows) -> tuple:
    """The diagonal tensor's inverse as its adjugate's diagonal quotients, and
    its one check, on floats: Sylvester's leading principal minors, the last
    being the determinant the adjugate is divided by. An underflowed minor, a
    NaN, an overflow or a non-finite inverse fails it, naming the surrogate's inputs."""
    (a, _, _), (_, e, _), (_, _, i) = rows
    det = a * (e * i)
    if a > 0.0 and a * e > 0.0 and det > 0.0:
        inverse = (e * i / det, a * i / det, a * e / det)
        if all(map(math.isfinite, inverse)):
            return inverse
    raise FieldError("inertia_body must be finite and positive-definite", "fan_mass", "com_body",
                     "fan_spacing_waist", "fan_foot_x", "fan_foot_z", "fan_spacing_feet")


def point_mass_inertia(geo: RobotGeometry) -> tuple:
    """Diagonal inertia surrogate about the CoM, as three float rows.

    Places one point mass of geo.fan_mass per fan at its mounting position
    and the remaining mass at the CoM (zero contribution). Off-diagonal
    products are dropped so the tensor stays diagonal; this is a
    reproducible, order-of-magnitude stand-in for a measured tensor.
    """
    fan_mass = geo.fan_mass
    if not (fan_mass >= 0.0 and 4.0 * fan_mass <= geo.mass_total):  # a NaN fails too
        raise FieldError("fan_mass must be >= 0 and four fans must not exceed total mass",
                         "fan_mass", "mass_total")
    x_c, y_c, z_c = geo.com_body
    i_xx = i_yy = i_zz = 0.0
    for px, py, pz in geo.fan_positions():
        rx, ry, rz = px - x_c, py - y_c, pz - z_c
        i_xx += fan_mass * (ry * ry + rz * rz)
        i_yy += fan_mass * (rx * rx + rz * rz)
        i_zz += fan_mass * (rx * rx + ry * ry)
    return ((i_xx, 0.0, 0.0), (0.0, i_yy, 0.0), (0.0, 0.0, i_zz))


def geometry_from_posture(posture: Posture, *, com_y: float = 0.0, **fields) -> RobotGeometry:
    """Build the rigid-body geometry for a takeoff posture.

    fields are RobotGeometry's other fields by name (mass_total, the fan
    spacings, fan_mass, ...), at its defaults where absent. com_y defaults to
    zero under the sagittal-symmetry assumption but can be overridden.
    """
    x_c, z_c = posture.com_sagittal
    p_fx, p_fz = posture.foot_fan
    return RobotGeometry(com_body=(x_c, com_y, z_c), fan_foot_x=p_fx, fan_foot_z=p_fz, **fields)


def write_text(file, text: str) -> bytes:
    """Write text as UTF-8 to file, a file name or binary file; return the bytes."""
    if not hasattr(file, "write"):
        with open(file, "wb") as fh:
            return write_text(fh, text)
    file.write(data := text.encode())
    return data
