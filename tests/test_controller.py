"""PD loop arithmetic, command limiting, feedback signs, and gain tuning."""

import itertools
import math
import random
import struct

import numpy as np
import pytest

from tvcsim.controller import (
    RAMP,
    AttitudeController,
    ControlMode,
    ControllerGains,
    ThrustRamp,
    tune_gains,
)
from tvcsim.robot import FanLimits, builtin_posture, geometry_from_posture
from tvcsim.sim import Perturbation, RigidBodyState, ScenarioConfig, dynamics_step
from tvcsim.spatial import EulerAngles, quat_from_pitch, quat_to_euler
from tvcsim.trim import hover_trim
from tvcsim.wrench import FanState, total_wrench, wrench_kernel

GEO = geometry_from_posture(builtin_posture("P1"))
POSTURE = builtin_posture("P1")
LIMITS = FanLimits()
POLES = {"zeta": 0.7, "omega_n_pitch": 12.0, "omega_n_yaw": 12.0}  # ScenarioConfig's defaults
LEVEL = ScenarioConfig.setpoint  # the one default setpoint


def make_controller(mode=ControlMode.BOTH_ON, trim=0.1, gains=None,
                    rate_max=None):
    gains = gains or ControllerGains(1.0, 0.1, 0.5, 0.06)
    limits = LIMITS if rate_max is None else FanLimits(foot_pitch_rate_max=rate_max)
    return AttitudeController(gains, mode, POSTURE, limits, trim, LEVEL)


def test_pd_step_arithmetic():
    # mean = trim - (kp e + kd (-rate_y)), delta = kp_yaw e_yaw + kd_yaw (-rate_z),
    # with e = setpoint - measured; no clamp or slew limit bites here
    fast = FanLimits(foot_pitch_rate_max=1e6)
    ctl = AttitudeController(ControllerGains(2.0, 0.5, 1.5, 0.25), ControlMode.BOTH_ON,
                             POSTURE, fast, 0.1, LEVEL)
    left, right = ctl.step(-0.1, 0.04, 0.2, -0.08, 0.004)
    mean = 0.1 - (2.0 * 0.1 + 0.5 * -0.2)
    delta = 1.5 * -0.04 + 0.25 * 0.08
    assert (left, right) == pytest.approx((mean - delta, mean + delta), abs=1e-15)
    ctl = AttitudeController(ControllerGains(2.0, 0.5, 1.5, 0.25), ControlMode.BOTH_ON,
                             POSTURE, fast, 0.1, LEVEL)
    assert ctl.step(0.0, 0.0, 0.0, 0.0, 0.004) == (0.1, 0.1)


def test_pd_step_homogeneous():
    # doubling both pitch gains doubles the pitch correction about the trim
    def correction(kp, kd):
        ctl = AttitudeController(ControllerGains(kp, kd, 0.0, 0.0), ControlMode.PITCH_ONLY,
                                 POSTURE, FanLimits(foot_pitch_rate_max=1e6), 0.0, LEVEL)
        return ctl.step(-0.07, 0.0, 0.01, 0.0, 0.004)[0]

    assert correction(3.0, 0.6) == pytest.approx(2.0 * correction(1.5, 0.3))


def thrust_schedule(t, ramp):
    """controller.RAMP, the source the takeoff loop writes out, run on t."""
    scope = {"t": t, "target_per_fan": ramp.target_per_fan, "ramp_time": ramp.ramp_time}
    exec(RAMP.format(t="t"), scope)
    return scope["sched"]


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


def test_a_nan_tick_period_is_refused_and_leaves_the_integral_alone():
    # a NaN dt fails the positive check; it must not reach the I terms, whose
    # NaN would stick to every later tick
    gains = ControllerGains(1.0, 0.1, 0.5, 0.06, ki_pitch=1.0, ki_yaw=1.0)
    controller, fresh = make_controller(gains=gains), make_controller(gains=gains)
    with pytest.raises(ValueError, match="^dt must be positive$"):
        controller.step(0.05, 0.1, 0.0, 0.0, math.nan)
    for _ in range(3):
        got = controller.step(0.05, 0.1, 0.2, -0.1, 0.004)
        assert got == fresh.step(0.05, 0.1, 0.2, -0.1, 0.004)
        assert all(map(math.isfinite, got))


class PythonTick:
    """AttitudeController's tick as it was written in Python before TICK, with
    min and max for the clamps and the wrap to (-pi, pi] written out."""

    def __init__(self, gains, mode, posture, limits, trim_offset, setpoint):
        self.gains, self.mode, self.trim_offset = gains, mode, trim_offset
        self.lo, self.hi = posture.foot_pitch_range
        self.rate_max = limits.foot_pitch_rate_max
        self.setpoint = setpoint
        self.prev_left = self.prev_right = trim_offset
        self.int_pitch = self.int_yaw = 0.0

    def step(self, pitch, yaw, rate_y, rate_z, dt):
        g = self.gains
        if self.mode is ControlMode.ALL_OFF:
            mean, delta = self.trim_offset, 0.0
        else:
            err_pitch = self.setpoint.pitch - pitch
            self.int_pitch += err_pitch * dt
            mean = self.trim_offset - (g.kp_pitch * err_pitch + g.kd_pitch * -rate_y
                                       + g.ki_pitch * self.int_pitch)
            delta = 0.0
            if self.mode is ControlMode.BOTH_ON:
                w = math.fmod(self.setpoint.yaw - yaw + math.pi, 2.0 * math.pi)
                if w <= 0.0:
                    w += 2.0 * math.pi
                err_yaw = w - math.pi
                self.int_yaw += err_yaw * dt
                delta = g.kp_yaw * err_yaw + g.kd_yaw * -rate_z + g.ki_yaw * self.int_yaw
        slew = self.rate_max * dt
        self.prev_left = min(self.prev_left + slew,
                             max(self.prev_left - slew, min(self.hi, max(self.lo, mean - delta))))
        self.prev_right = min(self.prev_right + slew,
                              max(self.prev_right - slew, min(self.hi, max(self.lo, mean + delta))))
        return self.prev_left, self.prev_right


def test_compiled_tick_is_the_python_tick_bit_for_bit():
    # AttitudeController.step runs TICK compiled, the source the takeoff loop
    # writes out: over every mode, with and without I gains and setpoints, on
    # drawn inputs with signed zeros, NaNs, errors that pin the commands at the
    # posture's range ends, and ankle rates at which the slew limit binds or
    # ties; each controller ticks through a whole input sequence
    rng = np.random.default_rng(38)
    specials = [0.0, -0.0, math.nan, 3.5, -3.5, math.pi, -math.pi, 1e-300]
    inputs = []
    for _ in range(40):
        row = (rng.normal(0.0, 0.3, 4) * 10.0 ** rng.uniform(-3.0, 1.0, 4)).tolist()
        if rng.random() < 0.3:
            row[int(rng.integers(4))] = float(rng.choice(specials))
        inputs.append(row)
    posture = builtin_posture("P2")
    gains = (ControllerGains(1.0, 0.12, 0.5, 0.06), ControllerGains(1.0, 0.12, 0.5, 0.06, 2.0, 2.0),
             ControllerGains(80.0, 0.0, 80.0, 0.0, 5.0, 0.0))
    setpoints = (EulerAngles(0.0, 0.0, 0.0), EulerAngles(0.0, -0.0, -0.0),
                 EulerAngles(0.0, 0.2, -3.0), EulerAngles(0.0, -1.5, math.pi))
    trims = (0.1, -0.0, posture.foot_pitch_range[1])
    for mode, gain, setpoint, rate, trim in itertools.product(
            ControlMode, gains, setpoints, (8.0, 0.05, 1e6), trims):
        limits = FanLimits(foot_pitch_rate_max=rate)
        compiled = AttitudeController(gain, mode, posture, limits, trim, setpoint=setpoint)
        reference = PythonTick(gain, mode, posture, limits, trim, setpoint)
        for row in inputs:
            got, want = compiled.step(*row, 0.004), reference.step(*row, 0.004)
            assert struct.pack("<2d", *got) == struct.pack("<2d", *want), (mode, gain, row)
        assert struct.pack("<4d", *compiled.state) == struct.pack(
            "<4d", reference.prev_left, reference.prev_right, reference.int_pitch,
            reference.int_yaw)


def test_an_infinite_yaw_error_is_refused_and_leaves_the_state_alone():
    # the wrap's fmod refuses an infinite yaw error; the tick raises before it
    # stores anything, so the integrals and commands stay those of the last tick
    gains = ControllerGains(1.0, 0.1, 0.5, 0.06, ki_pitch=1.0, ki_yaw=1.0)
    controller, fresh = make_controller(gains=gains), make_controller(gains=gains)
    controller.step(0.05, 0.1, 0.2, -0.1, 0.004)
    fresh.step(0.05, 0.1, 0.2, -0.1, 0.004)
    with pytest.raises(ValueError, match="^math domain error$"):
        controller.step(0.05, math.inf, 0.0, 0.0, 0.004)
    assert controller.state == fresh.state
    assert controller.step(0.05, 0.1, 0.2, -0.1, 0.004) == fresh.step(0.05, 0.1, 0.2, -0.1, 0.004)


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
                                 fs_trim.theta_left, LEVEL)
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
                                 fs_trim.theta_left, LEVEL)
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


HOVER, _ = hover_trim(GEO, limits=LIMITS, foot_pitch_range=POSTURE.foot_pitch_range)


def fly_hover(omega_n, orientation, perturbation=None, seconds=1.0):
    """The 250 Hz (pitch, yaw) samples of a hover flown from orientation
    through the public dynamics_step (euler, 1 ms) and AttitudeController.step
    at gains tuned for zeta 0.7 and omega_n, and those gains. The thrusts hold
    the equal-thrust trim, and the feet slew toward the commands at the ankle
    rate bound, as the takeoff loop moves them."""
    f, trim = HOVER.f_left, HOVER.theta_left
    gains = tune_gains(GEO, hover_thrust_per_fan=f, trim_foot_angle=trim, zeta=0.7,
                       omega_n_pitch=omega_n, omega_n_yaw=omega_n)
    ctl = AttitudeController(gains, ControlMode.BOTH_ON, POSTURE, LIMITS, trim, LEVEL)
    state, left, right = RigidBodyState(orientation=orientation), trim, trim
    foot_step = LIMITS.foot_pitch_rate_max * 1e-3
    samples = []
    for i in range(round(seconds / 1e-3)):
        if i % 4 == 0:
            e = quat_to_euler(state.orientation)
            samples.append((e.pitch, e.yaw))
            cmd_l, cmd_r = ctl.step(e.pitch, e.yaw, *state.angular_velocity_body[1:], 0.004)
        state = dynamics_step(state, FanState(f, f, f, f, left, right), GEO, 1e-3, perturbation)
        left = min(left + foot_step, max(left - foot_step, cmd_l))
        right = min(right + foot_step, max(right - foot_step, cmd_r))
    return np.array(samples), gains


def ar2_poles(x, period=0.004):
    """(omega_n, zeta) of the AR(2) model x[k] = a1 x[k-1] + a2 x[k-2] fitted
    to the samples x by least squares, its pole z mapped to s = ln(z) / period."""
    a1, a2 = np.linalg.lstsq(np.column_stack([x[1:-1], x[:-2]]), x[2:], rcond=None)[0]
    s = np.log(complex(np.roots([1.0, -a1, -a2])[0])) / period
    return abs(s), -s.real / abs(s)


@pytest.mark.parametrize("omega_n", [6.0, 12.0, 24.0])
def test_closed_loop_hover_realizes_the_designed_poles(omega_n):
    # tune_gains places the poles of two continuous double integrators; the
    # loop samples at 250 Hz and holds its command, which raises the fitted
    # omega_n a little more at each higher one: after a 0.01 rad kick, pitch
    # read 6.08, 12.30 and 24.44 rad/s with zeta 0.701, 0.702 and 0.682 (the
    # ankle slew bound binds on the first tick at 24), and yaw 6.08, 12.31 and
    # 25.03 with zeta 0.701, 0.702 and 0.697. At 12 rad/s a halved kd reads
    # zeta 0.34, pitch gains from i_zz omega_n 5.10, and cos and sin swapped
    # in b_pitch omega_n 9.90
    kick = 0.01
    pitch_kick = quat_from_pitch(kick)
    yaw_kick = (math.cos(0.5 * kick), 0.0, 0.0, math.sin(0.5 * kick))
    for axis, orientation in ((0, pitch_kick), (1, yaw_kick)):
        samples, _ = fly_hover(omega_n, orientation)
        fitted, zeta = ar2_poles(samples[:, axis])
        assert 1.0 < fitted / omega_n < 1.06, (axis, fitted)
        assert zeta == pytest.approx(0.7, abs=0.025), (axis, zeta)


def drawn_perturbation(seed):
    """A CoM x error within +-15 mm and each foot's axis bias within +-3 deg, drawn apart."""
    rng = random.Random(seed)
    return Perturbation(com_offset=(rng.uniform(-0.015, 0.015), 0.0, 0.0),
                        foot_axis_misalignment_left=math.radians(rng.uniform(-3.0, 3.0)),
                        foot_axis_misalignment_right=math.radians(rng.uniform(-3.0, 3.0)))


@pytest.mark.parametrize("seed", [None, *range(6)],
                         ids=["standard", *(f"drawn{seed}" for seed in range(6))])
def test_closed_loop_hover_static_errors_are_torque_over_b_kp(seed):
    # under a perturbation the PD loop settles where the feet's torque
    # cancels the disturbance's: error = tau / (b kp), b the body torque per
    # radian of mean (pitch) or differential (yaw) foot angle, here by central
    # differences of the perturbed wrench at the trim. At the default
    # 12 rad/s Perturbation.standard() gives 3.13 deg of pitch and -3.82 deg
    # of yaw. b is taken at the trim, so the prediction drifts as the settled
    # feet move from it: the pitches read within 4.6e-3 (-5.27 deg, drawn1)
    # and the yaws within 7.3e-4 (-5.10 deg, drawn2)
    pert = Perturbation.standard() if seed is None else drawn_perturbation(seed)
    f, trim = HOVER.f_left, HOVER.theta_left
    rows = wrench_kernel(GEO, pert)

    def torque(left, right):
        _, _, t_x, t_y1, t_y2, t_y3, t_z = rows(f, f, f, f, left, right)
        return t_x, t_y1 + t_y2 + t_y3, t_z

    d = 1e-6
    _, tau_y, tau_z = torque(trim, trim)
    b_pitch = (torque(trim - d, trim - d)[1] - torque(trim + d, trim + d)[1]) / (2.0 * d)
    b_yaw = (torque(trim - d, trim + d)[2] - torque(trim + d, trim - d)[2]) / (2.0 * d)
    samples, gains = fly_hover(12.0, (1.0, 0.0, 0.0, 0.0), pert, seconds=2.0)
    pitch, yaw = samples[-1]
    assert pitch == pytest.approx(tau_y / (b_pitch * gains.kp_pitch), rel=5e-3)
    assert yaw == pytest.approx(tau_z / (b_yaw * gains.kp_yaw), rel=1e-3)


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
                                ControlMode.BOTH_ON, POSTURE, fast, 0.0, LEVEL)
    without_i = AttitudeController(ControllerGains(1.0, 0.0, 0.5, 0.06),
                                   ControlMode.BOTH_ON, POSTURE, fast, 0.0, LEVEL)
    for _ in range(10):
        left_i, _ = with_i.step(0.1, 0.0, 0.0, 0.0, 0.004)
        left_p, _ = without_i.step(0.1, 0.0, 0.0, 0.0, 0.004)
    # the integrator keeps pushing while the pure PD command stands still
    assert left_p == pytest.approx(0.1, abs=1e-12)
    assert left_i > left_p


def test_modes_are_looked_up_by_value():
    for label, mode in (("both-on", ControlMode.BOTH_ON), ("pitch-only", ControlMode.PITCH_ONLY),
                        ("all-off", ControlMode.ALL_OFF)):
        assert ControlMode(label) is mode
        assert ControlMode(mode) is mode
    for label in ("", "sideways", "Both-On", " both-on", "both_on"):
        with pytest.raises(ValueError) as raised:
            ControlMode(label)
        assert str(raised.value) == (f"unknown control mode {label!r}; expected one of "
                                     "['both-on', 'pitch-only', 'all-off']")


def test_the_scenario_owns_the_default_setpoint():
    # ScenarioConfig.setpoint is the one default; the controller takes its setpoint as given
    with pytest.raises(TypeError, match="setpoint"):
        AttitudeController(ControllerGains(1.0, 0.1, 0.5, 0.06), ControlMode.BOTH_ON, POSTURE,
                           LIMITS, 0.1)
