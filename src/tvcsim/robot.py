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
        if not lo < hi:
            raise ValueError(f"foot pitch range must have min < max, got ({lo}, {hi})")
        if lo < -90.0 or hi > 90.0:
            raise ValueError(f"foot pitch range must lie within [-90, 90] deg, got ({lo}, {hi})")

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
            raise ValueError(
                f"need 0 <= thrust_min < thrust_max_per_fan, got "
                f"({self.thrust_min}, {self.thrust_max_per_fan})"
            )
        if not self.foot_pitch_rate_max > 0.0:  # a NaN fails too
            raise ValueError("foot_pitch_rate_max must be positive")
        if not self.thrust_time_constant >= 0.0:
            raise ValueError("thrust_time_constant must be >= 0")


@dataclass
class RobotGeometry:
    """Mass properties and fan placement in the body frame, as plain floats.

    Waist fans sit at (+-L/2, 0, 0) blowing along +z; foot fans sit at
    (p_fx, +-L_f/2, p_fz) with the left foot on +y (the y axis points left).
    com_body is a float 3-tuple, converted here from any float sequence.
    inertia_body is derived, as three float row tuples: the measured tensor
    inertia_measured if one is given, else the point-mass surrogate for
    fan_mass, so dataclasses.replace recomputes it. It is checked once, on
    floats, as it is inverted.
    """

    mass_total: float = DEFAULT_MASS
    com_body: tuple[float, float, float] = (0.0, 0.0, 0.0)
    fan_spacing_waist: float = DEFAULT_WAIST_FAN_SPACING  # L
    fan_foot_x: float = 0.0  # p_fx
    fan_foot_z: float = 0.0  # p_fz
    fan_spacing_feet: float = DEFAULT_FOOT_FAN_SPACING  # L_f
    fan_mass: float = DEFAULT_FAN_MASS  # per fan, read by the inertia surrogate
    inertia_measured: tuple | None = None  # 3x3 rows about the CoM, in {B}
    inertia_body: tuple = field(init=False)
    # the inverse of inertia_body as a row-major float 9-tuple, for the
    # float rigid-body step of the takeoff loop
    inertia_inverse_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.com_body = tuple(map(float, self.com_body))
        if len(self.com_body) != 3:
            raise ValueError("com_body must hold 3 coordinates")
        if not self.mass_total > 0.0:  # a NaN fails too
            raise ValueError("mass_total must be positive")
        if not (self.fan_spacing_waist > 0.0 and self.fan_spacing_feet > 0.0):
            raise ValueError("fan spacings must be positive")
        if self.inertia_measured is not None:
            self.inertia_measured = tuple(tuple(map(float, row)) for row in self.inertia_measured)
        self.inertia_body = (point_mass_inertia(self) if self.inertia_measured is None
                             else self.inertia_measured)
        self.inertia_inverse_rows = _inverse_rows(self.inertia_body)

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


def _inverse_rows(rows) -> tuple:
    """Row-major inverse of the tensor, and its one check, on floats: symmetry,
    then Sylvester's leading principal minors, the last being the determinant
    the adjugate is divided by. An underflowed minor, a NaN, an overflow or a
    non-finite inverse fails it."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    if abs(b - d) > 1e-12 or abs(c - g) > 1e-12 or abs(f - h) > 1e-12:
        raise ValueError("inertia_body must be symmetric")
    adjugate = (e * i - f * h, c * h - b * i, b * f - c * e,
                f * g - d * i, a * i - c * g, c * d - a * f,
                d * h - e * g, b * g - a * h, a * e - b * d)
    det = a * adjugate[0] + b * adjugate[3] + c * adjugate[6]
    if a > 0.0 and a * e - b * d > 0.0 and det > 0.0:
        inverse = tuple(x / det for x in adjugate)
        if all(map(math.isfinite, inverse)):
            return inverse
    raise ValueError("inertia_body must be finite and positive-definite")


def point_mass_inertia(geo: RobotGeometry) -> tuple:
    """Diagonal inertia surrogate about the CoM, as three float rows.

    Places one point mass of geo.fan_mass per fan at its mounting position
    and the remaining mass at the CoM (zero contribution). Off-diagonal
    products are dropped so the tensor stays diagonal; this is a
    reproducible, order-of-magnitude stand-in when no measured tensor is
    available.
    """
    fan_mass = geo.fan_mass
    if not (fan_mass >= 0.0 and 4.0 * fan_mass <= geo.mass_total):  # a NaN fails too
        raise ValueError("fan_mass must be >= 0 and four fans must not exceed total mass")
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
