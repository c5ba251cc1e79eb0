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
out. It is one source text, TICK: AttitudeController.step compiles it, with
the gains, mode, trim, setpoint, foot range and ankle rate as closure cells
(TICK_CONSTANTS) and the previous commands and the integrals as its state
(TICK_STATE), and the takeoff loop (sim.loop_kernel) writes it out with
both as loop locals. CLAMP is the foot chain's one clamp, source that TICK
writes out for the range clamp and the slew limit, and the takeoff loop for
the foot slew. RAMP is the thrust ramp, source that the takeoff loop writes
out. tune_gains reads wrench.pitch_arms.
"""

from __future__ import annotations

import functools
import math
import textwrap
from dataclasses import dataclass, fields
from enum import Enum

from .robot import FanLimits, FieldError, Posture, RobotGeometry
from .spatial import WRAP, EulerAngles, compile_build
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
                raise FieldError(f"{name} must be finite and >= 0, got {value}", name)


@dataclass(frozen=True)
class ThrustRamp:
    """Equal preplanned per-fan thrust: linear ramp from zero, then hold."""

    target_per_fan: float = 48.0
    ramp_time: float = 0.5

    def __post_init__(self):
        if not self.target_per_fan >= 0.0:  # a NaN fails too
            raise FieldError("target_per_fan must be >= 0", "target_per_fan")
        if not self.ramp_time >= 0.0:
            raise FieldError("ramp_time must be >= 0", "ramp_time")


# the per-fan thrust sched at time {t} >= 0 as source, which the takeoff loop
# writes out: {t} and the ramp's target_per_fan and ramp_time in, sched out
RAMP = """\
if ramp_time == 0.0 or {t} >= ramp_time:
    sched = target_per_fan
else:
    sched = target_per_fan * ({t} / ramp_time)
"""


def tune_gains(geo: RobotGeometry, hover_thrust_per_fan: float, trim_foot_angle: float,
               zeta: float, omega_n_pitch: float, omega_n_yaw: float) -> ControllerGains:
    """Pole placement about the hover trim.

    Both loops are double integrators with control effectiveness b (torque
    per radian of foot command), so kp = I wn^2 / b and kd = 2 zeta wn I / b,
    rounded to four significant digits. ScenarioConfig's default natural
    frequency is chosen so the point-mass inertia surrogate holds attitude
    against the standard CoM-offset and joint-bias disturbances with a few
    degrees of steady-state error. Raises NoTrimError where b <= 0, and a
    FieldError where a gain overflows a float, naming zeta and the natural
    frequencies, or geo's fields where I / b overflows whatever the tuning.
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

    try:
        return ControllerGains(  # wn * wn overflows to inf, where wn**2 would raise
            kp_pitch=sig4(i_yy * (omega_n_pitch * omega_n_pitch) / b_pitch),
            kd_pitch=sig4(2.0 * zeta * omega_n_pitch * i_yy / b_pitch),
            kp_yaw=sig4(i_zz * (omega_n_yaw * omega_n_yaw) / b_yaw),
            kd_yaw=sig4(2.0 * zeta * omega_n_yaw * i_zz / b_yaw),
        )
    except FieldError as exc:
        if math.isfinite(i_yy / b_pitch) and math.isfinite(i_zz / b_yaw):
            raise FieldError(f"tuned {exc}", "zeta", "omega_n_pitch", "omega_n_yaw") from None
        raise FieldError(f"tuned {exc}", *(f.name for f in fields(geo) if f.init)) from None


# min(hi, max(lo, x)) by comparisons as source, which TICK and the takeoff
# loop's foot slew write out: {x}, {lo} and {hi} in, {out} out. A tie or a
# signed zero comes out as min and max give it, and a NaN x reads lo
CLAMP = """\
{out} = {x} if {x} > {lo} else {lo}
{out} = {out} if {out} < {hi} else {hi}
"""

# AttitudeController.step's tick as source, which the takeoff loop writes out
# too: the measured pitch_m, yaw_m, rate_y and rate_z and the controller
# period in; TICK_STATE, the previous commands cmd_l and cmd_r and the
# integrals, read and written; TICK_CONSTANTS read
TICK_CONSTANTS = ("kp_pitch, kd_pitch, ki_pitch, kp_yaw, kd_yaw, ki_yaw, all_off, both_on, "
                  "trim_offset, setpoint_pitch, setpoint_yaw, foot_lo, foot_hi, rate_max")
TICK_STATE = "cmd_l, cmd_r, int_pitch, int_yaw"
TICK = """\
if all_off:
    mean, delta = trim_offset, 0.0
else:
    err_pitch = setpoint_pitch - pitch_m
    int_pitch += err_pitch * period
    # feet below the CoM: positive mean angle is a nose-up torque
    mean = trim_offset - (kp_pitch * err_pitch + kd_pitch * -rate_y + ki_pitch * int_pitch)
    delta = 0.0
    if both_on:
        err_yaw = setpoint_yaw - yaw_m
{wrap}        int_yaw += err_yaw * period
        delta = kp_yaw * err_yaw + kd_yaw * -rate_z + ki_yaw * int_yaw
# the posture's range, then the ankle rate from the previous command
slew = rate_max * period
left, right = mean - delta, mean + delta
{range_l}{range_r}lo, hi = cmd_l - slew, cmd_l + slew
{slew_l}lo, hi = cmd_r - slew, cmd_r + slew
{slew_r}""".format(wrap=textwrap.indent(WRAP.format(w="err_yaw"), " " * 8),
                   range_l=CLAMP.format(out="left", x="left", lo="foot_lo", hi="foot_hi"),
                   range_r=CLAMP.format(out="right", x="right", lo="foot_lo", hi="foot_hi"),
                   slew_l=CLAMP.format(out="cmd_l", x="left", lo="lo", hi="hi"),
                   slew_r=CLAMP.format(out="cmd_r", x="right", lo="lo", hi="hi"))


@functools.cache
def tick_builder():
    """build(*TICK_CONSTANTS) -> tick(pitch_m, yaw_m, rate_y, rate_z, period,
    *TICK_STATE) -> TICK_STATE, compiled on first use."""
    body = textwrap.indent(TICK + f"return {TICK_STATE}\n", " " * 8)
    return compile_build(f"def build({TICK_CONSTANTS}):\n"
                         f"    def tick(pitch_m, yaw_m, rate_y, rate_z, period, {TICK_STATE}):\n"
                         f"{body}    return tick\n", "<tvcsim.controller tick>", globals())


class AttitudeController:
    """Fixed-rate dual PD loop producing slew-limited foot pitch commands; it
    keeps only what a tick reads: TICK_CONSTANTS and TICK_STATE."""

    def __init__(self, gains: ControllerGains, mode: ControlMode, posture: Posture,
                 limits: FanLimits, trim_offset: float, setpoint: EulerAngles | None = None):
        setpoint = setpoint or EulerAngles(0.0, 0.0, 0.0)
        # the foot range in rad, converted once
        self.constants = (gains.kp_pitch, gains.kd_pitch, gains.ki_pitch, gains.kp_yaw,
                          gains.kd_yaw, gains.ki_yaw, mode is ControlMode.ALL_OFF,
                          mode is ControlMode.BOTH_ON, trim_offset, setpoint.pitch, setpoint.yaw,
                          *posture.foot_pitch_range, limits.foot_pitch_rate_max)
        self.state = (trim_offset, trim_offset, 0.0, 0.0)

    @functools.cached_property
    def _tick(self):
        return tick_builder()(*self.constants)

    def step(self, pitch: float, yaw: float, rate_y: float, rate_z: float,
             dt: float) -> tuple[float, float]:
        """One tick: the (left, right) foot commands in rad, clamped to the
        posture's foot range and slew-limited to the ankle rate bound, never
        rejected. dt is the controller period; the thrust ramp is preplanned
        and never modulated for attitude."""
        if not dt > 0.0:  # a NaN fails too
            raise ValueError("dt must be positive")
        self.state = self._tick(pitch, yaw, rate_y, rate_z, dt, *self.state)
        return self.state[:2]
