"""PD loop arithmetic, command limiting, feedback signs, and gain tuning."""

import math

import numpy as np
import pytest

from tvcsim.controller import (
    AttitudeController,
    ControlMode,
    ControllerGains,
    ThrustRamp,
    thrust_schedule,
    tune_gains,
)
from tvcsim.robot import FanLimits, builtin_posture, geometry_from_posture
from tvcsim.trim import hover_trim
from tvcsim.wrench import FanState, total_wrench

GEO = geometry_from_posture(builtin_posture("P1"))
POSTURE = builtin_posture("P1")
LIMITS = FanLimits()
POLES = {"zeta": 0.7, "omega_n_pitch": 12.0, "omega_n_yaw": 12.0}  # ScenarioConfig's defaults


def make_controller(mode=ControlMode.BOTH_ON, trim=0.1, gains=None,
                    rate_max=None):
    gains = gains or ControllerGains(1.0, 0.1, 0.5, 0.06)
    limits = LIMITS if rate_max is None else FanLimits(foot_pitch_rate_max=rate_max)
    return AttitudeController(gains, mode, POSTURE, limits, trim)


def test_pd_step_arithmetic():
    # mean = trim - (kp e + kd (-rate_y)), delta = kp_yaw e_yaw + kd_yaw (-rate_z),
    # with e = setpoint - measured; no clamp or slew limit bites here
    fast = FanLimits(foot_pitch_rate_max=1e6)
    ctl = AttitudeController(ControllerGains(2.0, 0.5, 1.5, 0.25), ControlMode.BOTH_ON,
                             POSTURE, fast, 0.1)
    left, right = ctl.step(-0.1, 0.04, 0.2, -0.08, 0.004)
    mean = 0.1 - (2.0 * 0.1 + 0.5 * -0.2)
    delta = 1.5 * -0.04 + 0.25 * 0.08
    assert (left, right) == pytest.approx((mean - delta, mean + delta), abs=1e-15)
    ctl = AttitudeController(ControllerGains(2.0, 0.5, 1.5, 0.25), ControlMode.BOTH_ON,
                             POSTURE, fast, 0.1)
    assert ctl.step(0.0, 0.0, 0.0, 0.0, 0.004) == (0.1, 0.1)


def test_pd_step_homogeneous():
    # doubling both pitch gains doubles the pitch correction about the trim
    def correction(kp, kd):
        ctl = AttitudeController(ControllerGains(kp, kd, 0.0, 0.0), ControlMode.PITCH_ONLY,
                                 POSTURE, FanLimits(foot_pitch_rate_max=1e6), 0.0)
        return ctl.step(-0.07, 0.0, 0.01, 0.0, 0.004)[0]

    assert correction(3.0, 0.6) == pytest.approx(2.0 * correction(1.5, 0.3))


def test_thrust_schedule_ramp():
    ramp = ThrustRamp(target_per_fan=48.0, ramp_time=1.0)
    assert thrust_schedule(0.0, ramp) == 0.0
    assert thrust_schedule(0.5, ramp) == pytest.approx(24.0)
    assert thrust_schedule(1.0, ramp) == 48.0
    assert thrust_schedule(7.0, ramp) == 48.0


def test_thrust_schedule_monotone():
    ramp = ThrustRamp(target_per_fan=48.0, ramp_time=0.5)
    times = np.linspace(0.0, 1.0, 100)
    values = [thrust_schedule(float(t), ramp) for t in times]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_thrust_schedule_step():
    ramp = ThrustRamp(target_per_fan=50.0, ramp_time=0.0)
    assert thrust_schedule(0.0, ramp) == 50.0


def test_thrust_schedule_rejects_negative_time():
    with pytest.raises(ValueError):
        thrust_schedule(-0.1, ThrustRamp())


def test_ramp_validation():
    for field in ("target_per_fan", "ramp_time"):
        for bad in (-1.0, math.nan):  # a NaN fails too
            with pytest.raises(ValueError, match=f"^{field} must be >= 0$"):
                ThrustRamp(**{field: bad})


def test_gains_validation():
    with pytest.raises(ValueError):
        ControllerGains(-1.0, 0.1, 0.5, 0.06)
    for dt in (0.0, -0.004):  # a controller tick needs a positive period too
        with pytest.raises(ValueError, match="^dt must be positive$"):
            make_controller().step(0.0, 0.0, 0.0, 0.0, dt)


def test_zero_error_passes_trim_through():
    ctl = make_controller(trim=0.1)
    left, right = ctl.step(0.0, 0.0, 0.0, 0.0, 0.004)
    assert left == pytest.approx(0.1, abs=1e-15)
    assert right == pytest.approx(0.1, abs=1e-15)


def test_all_off_holds_trim():
    ctl = make_controller(mode=ControlMode.ALL_OFF, trim=0.08)
    for pitch in (-0.5, 0.0, 0.4):
        assert ctl.step(pitch, 0.3, -0.2, 0.5, 0.004) == (0.08, 0.08)


def test_pitch_only_keeps_feet_identical():
    ctl = make_controller(mode=ControlMode.PITCH_ONLY)
    left, right = ctl.step(0.2, 0.9, 0.1, 0.7, 0.004)
    assert left == right


def test_commands_clamped_to_posture_range():
    gains = ControllerGains(50.0, 0.0, 50.0, 0.0)
    lo, hi = POSTURE.foot_pitch_range
    for pitch in (-1.5, 1.5):
        ctl = make_controller(gains=gains, rate_max=1e6)
        left, right = ctl.step(pitch, 0.0, 0.0, 0.0, 1.0)
        assert lo <= left <= hi
        assert lo <= right <= hi


def test_slew_rate_limit():
    ctl = make_controller(rate_max=8.0, trim=0.0,
                          gains=ControllerGains(100.0, 0.0, 0.0, 0.0))
    dt = 0.004
    prev_left = 0.0
    for _ in range(20):
        left, _ = ctl.step(1.0, 0.0, 0.0, 0.0, dt)
        assert abs(left - prev_left) <= 8.0 * dt + 1e-12
        prev_left = left


def test_pitch_feedback_is_restoring():
    # compose controller and wrench: pitch torque must fall as pitch rises
    fs_trim, trim_pitch = hover_trim(GEO)
    gains = tune_gains(GEO, fs_trim.f_left, fs_trim.theta_left, **POLES)
    f = fs_trim.f_left

    def torque_at(pitch_dev):
        ctl = AttitudeController(gains, ControlMode.BOTH_ON, POSTURE, LIMITS,
                                 fs_trim.theta_left)
        fs = FanState(f, f, f, f, *ctl.step(pitch_dev, 0.0, 0.0, 0.0, 0.004))
        return total_wrench(fs, GEO, trim_pitch + pitch_dev).torque_world[1]

    delta = 1e-3
    slope = (torque_at(delta) - torque_at(-delta)) / (2.0 * delta)
    assert slope < 0.0


def test_yaw_feedback_is_restoring():
    fs_trim, _ = hover_trim(GEO)
    gains = tune_gains(GEO, fs_trim.f_left, fs_trim.theta_left, **POLES)
    f = fs_trim.f_left

    def yaw_torque(yaw):
        ctl = AttitudeController(gains, ControlMode.BOTH_ON, POSTURE, LIMITS,
                                 fs_trim.theta_left)
        fs = FanState(f, f, f, f, *ctl.step(0.0, yaw, 0.0, 0.0, 0.004))
        return total_wrench(fs, GEO, 0.0).torque_world[2]

    # negative yaw needs positive yaw torque and vice versa
    assert yaw_torque(-0.1) > 0.0
    assert yaw_torque(+0.1) < 0.0


def test_yaw_error_counter_rotates_feet():
    # the two feet move in opposite directions about the mean command
    ctl = make_controller(trim=0.1)
    left, right = ctl.step(0.0, -0.2, 0.0, 0.0, 0.004)
    assert right > 0.5 * (left + right) > left


def test_rate_damping_sign():
    # a pure pitch-down rate commands more forward foot tilt than rest
    still, _ = make_controller(trim=0.1).step(0.0, 0.0, 0.0, 0.0, 0.004)
    diving, _ = make_controller(trim=0.1).step(0.0, 0.0, 0.5, 0.0, 0.004)
    assert diving > still


def test_tune_gains_pole_placement():
    fs_trim, _ = hover_trim(GEO)
    gains = tune_gains(GEO, fs_trim.f_left, fs_trim.theta_left,
                       zeta=0.7, omega_n_pitch=12.0, omega_n_yaw=12.0)
    assert gains.kp_pitch > 0 and gains.kd_pitch > 0
    assert gains.kp_yaw > 0 and gains.kd_yaw > 0
    # recover wn^2 = b kp / I within the 4-digit rounding
    f, theta = fs_trim.f_left, fs_trim.theta_left
    b_pitch = 2.0 * f * (math.cos(theta) * (GEO.com_body[2] - GEO.fan_foot_z)
                         + math.sin(theta) * (GEO.com_body[0] - GEO.fan_foot_x))
    wn = math.sqrt(b_pitch * gains.kp_pitch / GEO.inertia_body[1][1])
    assert wn == pytest.approx(12.0, rel=1e-3)


def test_tune_gains_rejects_degenerate_geometry():
    # fans level with the CoM leave no pitch authority
    from tvcsim.robot import Posture
    from tvcsim.trim import NoTrimError

    flat = geometry_from_posture(
        Posture("FLAT", (0.0, -0.3), (0.0, -0.3), (-74.0, 90.0)))
    with pytest.raises(NoTrimError, match="no stabilizing authority"):
        tune_gains(flat, 40.0, 0.0, **POLES)


def test_integral_term_defaults_off_but_works():
    fast = FanLimits(foot_pitch_rate_max=1e6)
    with_i = AttitudeController(ControllerGains(1.0, 0.0, 0.5, 0.06, ki_pitch=0.5),
                                ControlMode.BOTH_ON, POSTURE, fast, 0.0)
    without_i = AttitudeController(ControllerGains(1.0, 0.0, 0.5, 0.06),
                                   ControlMode.BOTH_ON, POSTURE, fast, 0.0)
    for _ in range(10):
        left_i, _ = with_i.step(0.1, 0.0, 0.0, 0.0, 0.004)
        left_p, _ = without_i.step(0.1, 0.0, 0.0, 0.0, 0.004)
    # the integrator keeps pushing while the pure PD command stands still
    assert left_p == pytest.approx(0.1, abs=1e-12)
    assert left_i > left_p


def test_mode_parse():
    assert ControlMode.parse("both-on") is ControlMode.BOTH_ON
    assert ControlMode.parse("pitch-only") is ControlMode.PITCH_ONLY
    assert ControlMode.parse("all-off") is ControlMode.ALL_OFF
    with pytest.raises(ValueError):
        ControlMode.parse("sometimes")
