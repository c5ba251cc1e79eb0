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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .robot import FanLimits, Posture, RobotGeometry
from .spatial import EulerAngles, wrap_angle
from .trim import NoTrimError


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
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class FootCommand:
    """Foot pitch commands (rad); the thrusts follow the ramp, not the controller."""

    theta_left_cmd: float
    theta_right_cmd: float


@dataclass(frozen=True)
class ThrustRamp:
    """Equal preplanned per-fan thrust: linear ramp from zero, then hold."""

    target_per_fan: float = 48.0
    ramp_time: float = 0.5

    def __post_init__(self):
        if self.target_per_fan < 0.0:
            raise ValueError("target_per_fan must be >= 0")
        if self.ramp_time < 0.0:
            raise ValueError("ramp_time must be >= 0")


def pd_step(kp: float, kd: float, error: float, error_rate: float) -> float:
    return kp * error + kd * error_rate


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
    degrees of steady-state error. Raises NoTrimError where b <= 0.
    """
    f = hover_thrust_per_fan
    x_c, z_c = geo.com_body[0], geo.com_body[2]
    ct, st = math.cos(trim_foot_angle), math.sin(trim_foot_angle)
    b_pitch = 2.0 * f * (ct * (z_c - geo.fan_foot_z) + st * (x_c - geo.fan_foot_x))
    b_yaw = geo.fan_spacing_feet * f * ct
    if b_pitch <= 0.0 or b_yaw <= 0.0:
        raise NoTrimError(
            "foot fans have no stabilizing authority at this trim "
            f"(b_pitch={b_pitch:.3g}, b_yaw={b_yaw:.3g})"
        )
    i_yy, i_zz = geo.inertia_body[1][1], geo.inertia_body[2][2]

    def sig4(v: float) -> float:
        return float(f"{v:.4g}")

    return ControllerGains(
        kp_pitch=sig4(i_yy * omega_n_pitch**2 / b_pitch),
        kd_pitch=sig4(2.0 * zeta * omega_n_pitch * i_yy / b_pitch),
        kp_yaw=sig4(i_zz * omega_n_yaw**2 / b_yaw),
        kd_yaw=sig4(2.0 * zeta * omega_n_yaw * i_zz / b_yaw),
    )


class AttitudeController:
    """Fixed-rate dual PD loop producing slew-limited foot pitch commands."""

    def __init__(
        self,
        gains: ControllerGains,
        mode: ControlMode,
        posture: Posture,
        limits: FanLimits,
        trim_offset: float,
        setpoint: EulerAngles | None = None,
    ):
        self.gains = gains
        self.mode = mode
        self.posture = posture
        self._foot_range = posture.foot_pitch_range  # rad, converted once
        self.limits = limits
        self.trim_offset = trim_offset
        self.setpoint = setpoint or EulerAngles(0.0, 0.0, 0.0)
        self._prev_left = trim_offset
        self._prev_right = trim_offset
        self._int_pitch = 0.0
        self._int_yaw = 0.0

    def step(self, attitude: EulerAngles, body_rates, dt: float) -> FootCommand:
        """One controller tick; dt is the controller period.

        Reads the attitude and body rates only: the thrust ramp is preplanned
        and never modulated for attitude. Commands are clamped to the
        posture's foot range and slew-limited to the ankle rate bound, never
        rejected.
        """
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.mode is ControlMode.ALL_OFF:
            mean, delta = self.trim_offset, 0.0
        else:
            err_pitch = self.setpoint.pitch - attitude.pitch
            self._int_pitch += err_pitch * dt
            u_pitch = pd_step(self.gains.kp_pitch, self.gains.kd_pitch,
                              err_pitch, -float(body_rates[1]))
            u_pitch += self.gains.ki_pitch * self._int_pitch
            # feet below the CoM: positive mean angle is a nose-up torque
            mean = self.trim_offset - u_pitch
            delta = 0.0
            if self.mode is ControlMode.BOTH_ON:
                err_yaw = wrap_angle(self.setpoint.yaw - attitude.yaw)
                self._int_yaw += err_yaw * dt
                delta = pd_step(self.gains.kp_yaw, self.gains.kd_yaw,
                                err_yaw, -float(body_rates[2]))
                delta += self.gains.ki_yaw * self._int_yaw

        left = self._limit(mean - delta, self._prev_left, dt)
        right = self._limit(mean + delta, self._prev_right, dt)
        self._prev_left, self._prev_right = left, right
        return FootCommand(left, right)

    def _limit(self, cmd: float, prev: float, dt: float) -> float:
        lo, hi = self._foot_range
        cmd = min(hi, max(lo, cmd))
        max_step = self.limits.foot_pitch_rate_max * dt
        return min(prev + max_step, max(prev - max_step, cmd))
