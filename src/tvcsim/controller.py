"""PD attitude control through the foot-mounted fans.

The strategy never modulates thrust for attitude: all four thrusts follow one
preplanned ramp, and the controller steers only the two foot pitch angles.
The mean foot angle creates pitch torque (horizontal foot thrust on the long
lever below the CoM) and the left/right difference creates yaw torque.

Sign conventions, for fans mounted below the CoM (z_c - p_fz > 0):

* a positive mean foot angle pushes the feet forward and pitches the body
  nose-up (negative pitch torque), so the mean command grows when measured
  pitch exceeds the setpoint;
* a positive differential tilts the right foot further forward than the
  left, which yields positive yaw torque, so it grows with positive yaw
  error (setpoint minus measured).

Rates come from the measured body angular velocity rather than differenced
errors. There is no integral term by default; an optional I gain exists but
ships at zero.

A tick runs on floats, (pitch, yaw, rate_y, rate_z) in and (left, right)
out. clamp is the foot chain's one clamp: the range clamp, the slew limit
and the simulator's foot slew. tune_gains reads wrench.pitch_arms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .robot import FanLimits, Posture, RobotGeometry
from .spatial import EulerAngles, wrap_angle
from .trim import NoTrimError
from .wrench import pitch_arms


class ControlMode(str, Enum):
    BOTH_ON = "both-on"
    PITCH_ONLY = "pitch-only"
    ALL_OFF = "all-off"

    @classmethod
    def parse(cls, text: str) -> "ControlMode":
        for mode in cls:
            if mode.value == text:
                return mode
        raise ValueError(
            f"unknown control mode {text!r}; expected one of "
            f"{[m.value for m in cls]}"
        )


@dataclass(frozen=True)
class ControllerGains:
    """Foot-angle command per radian of error / per rad/s of rate."""

    kp_pitch: float
    kd_pitch: float
    kp_yaw: float
    kd_yaw: float
    ki_pitch: float = 0.0
    ki_yaw: float = 0.0

    def __post_init__(self):
        for name in ("kp_pitch", "kd_pitch", "kp_yaw", "kd_yaw", "ki_pitch", "ki_yaw"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # a NaN fails too
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class ThrustRamp:
    """Equal preplanned per-fan thrust: linear ramp from zero, then hold."""

    target_per_fan: float = 48.0
    ramp_time: float = 0.5

    def __post_init__(self):
        if not self.target_per_fan >= 0.0:  # a NaN fails too
            raise ValueError("target_per_fan must be >= 0")
        if not self.ramp_time >= 0.0:
            raise ValueError("ramp_time must be >= 0")


def thrust_schedule(t: float, ramp: ThrustRamp) -> float:
    """Per-fan thrust at time t >= 0 (monotone non-decreasing)."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if ramp.ramp_time == 0.0 or t >= ramp.ramp_time:
        return ramp.target_per_fan
    return ramp.target_per_fan * (t / ramp.ramp_time)


def tune_gains(geo: RobotGeometry, hover_thrust_per_fan: float, trim_foot_angle: float,
               zeta: float, omega_n_pitch: float, omega_n_yaw: float) -> ControllerGains:
    """Pole placement about the hover trim.

    Both loops are double integrators with control effectiveness b (torque
    per radian of foot command), so kp = I wn^2 / b and kd = 2 zeta wn I / b,
    rounded to four significant digits. ScenarioConfig's default natural
    frequency is chosen so the point-mass inertia surrogate holds attitude
    against the standard CoM-offset and joint-bias disturbances with a few
    degrees of steady-state error. Raises NoTrimError where b <= 0, and
    ControllerGains' ValueError where a gain overflows a float.
    """
    f = hover_thrust_per_fan
    _, _, arm_v, arm_h = pitch_arms(geo, geo.com_body[0], geo.com_body[2])
    ct, st = math.cos(trim_foot_angle), math.sin(trim_foot_angle)
    b_pitch = 2.0 * f * (ct * arm_h + st * arm_v)
    b_yaw = geo.fan_spacing_feet * f * ct
    if b_pitch <= 0.0 or b_yaw <= 0.0:
        raise NoTrimError(
            "foot fans have no stabilizing authority at this trim "
            f"(b_pitch={b_pitch:.3g}, b_yaw={b_yaw:.3g})"
        )
    i_yy, i_zz = geo.inertia_body[1][1], geo.inertia_body[2][2]

    def sig4(v: float) -> float:
        return float(f"{v:.4g}")

    return ControllerGains(  # wn * wn overflows to inf, where wn**2 would raise
        kp_pitch=sig4(i_yy * (omega_n_pitch * omega_n_pitch) / b_pitch),
        kd_pitch=sig4(2.0 * zeta * omega_n_pitch * i_yy / b_pitch),
        kp_yaw=sig4(i_zz * (omega_n_yaw * omega_n_yaw) / b_yaw),
        kd_yaw=sig4(2.0 * zeta * omega_n_yaw * i_zz / b_yaw),
    )


class AttitudeController:
    """Fixed-rate dual PD loop producing slew-limited foot pitch commands; it
    keeps only what a tick reads."""

    def __init__(self, gains: ControllerGains, mode: ControlMode, posture: Posture,
                 limits: FanLimits, trim_offset: float, setpoint: EulerAngles | None = None):
        self.gains = gains
        self.mode = mode
        self._foot_lo, self._foot_hi = posture.foot_pitch_range  # rad, converted once
        self._rate_max = limits.foot_pitch_rate_max
        self.trim_offset = trim_offset
        setpoint = setpoint or EulerAngles(0.0, 0.0, 0.0)
        self._setpoint_pitch, self._setpoint_yaw = setpoint.pitch, setpoint.yaw
        self._prev_left = self._prev_right = trim_offset
        self._int_pitch = self._int_yaw = 0.0

    def step(self, pitch: float, yaw: float, rate_y: float, rate_z: float,
             dt: float) -> tuple[float, float]:
        """One tick: the (left, right) foot commands in rad, clamped to the
        posture's foot range and slew-limited to the ankle rate bound, never
        rejected. dt is the controller period; the thrust ramp is preplanned
        and never modulated for attitude."""
        if not dt > 0.0:  # a NaN fails too
            raise ValueError("dt must be positive")
        g = self.gains
        if self.mode is ControlMode.ALL_OFF:
            mean, delta = self.trim_offset, 0.0
        else:
            err_pitch = self._setpoint_pitch - pitch
            self._int_pitch += err_pitch * dt
            # feet below the CoM: positive mean angle is a nose-up torque
            mean = self.trim_offset - (g.kp_pitch * err_pitch + g.kd_pitch * -rate_y
                                       + g.ki_pitch * self._int_pitch)
            delta = 0.0
            if self.mode is ControlMode.BOTH_ON:
                err_yaw = wrap_angle(self._setpoint_yaw - yaw)
                self._int_yaw += err_yaw * dt
                delta = g.kp_yaw * err_yaw + g.kd_yaw * -rate_z + g.ki_yaw * self._int_yaw

        lo, hi, slew = self._foot_lo, self._foot_hi, self._rate_max * dt
        left = clamp(clamp(mean - delta, lo, hi), self._prev_left - slew, self._prev_left + slew)
        right = clamp(clamp(mean + delta, lo, hi), self._prev_right - slew,
                      self._prev_right + slew)
        self._prev_left, self._prev_right = left, right
        return left, right


def clamp(x: float, lo: float, hi: float) -> float:
    """min(hi, max(lo, x)) by comparisons, in min's and max's tie order: a
    tie or a signed zero comes out as they give it, and a NaN x reads lo."""
    x = x if x > lo else lo
    return x if x < hi else hi
