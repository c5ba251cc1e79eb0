"""Integrator physics, ground phase, liftoff, events, and run determinism."""

import json
import linecache
import math
import random
import re
import struct
import sys
import textwrap
import traceback
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvcsim.config import scenario_from_config
from tvcsim.controller import (
    CLAMP,
    AttitudeController,
    ControlMode,
    ControllerGains,
    ThrustRamp,
    tune_gains,
)
from tvcsim.envelope import EnvelopeConstraint, envelope_sweep, tvc_dt_ratio
from tvcsim.robot import (
    DEFAULT_FAN_MASS,
    DEFAULT_FOOT_FAN_SPACING,
    DEFAULT_FOOT_PITCH_RATE_MAX,
    DEFAULT_MASS,
    DEFAULT_THRUST_MAX,
    DEFAULT_THRUST_TIME_CONSTANT,
    DEFAULT_WAIST_FAN_SPACING,
    GRAVITY,
    FanLimits,
    Posture,
    builtin_posture,
    geometry_from_posture,
)
from tvcsim.sim import (
    PHASE_AIRBORNE,
    PHASE_GROUND,
    PITCH_EVENT_DEG,
    POSITION_GUARD_M,
    RATE_GUARD_RAD_S,
    YAW_EVENT_DEG,
    DivergenceError,
    Perturbation,
    RigidBodyState,
    ScenarioConfig,
    SimLog,
    _kernel,
    _measure,
    dynamics_step,
    run_scenario,
)
from tvcsim.spatial import (
    GIMBAL_LOCK_MARGIN,
    EulerAngles,
    quat_normalize,
    quat_rotation_rows,
    quat_step,
    quat_to_matrix,
    quat_unit,
    zyx_angles,
)
from tvcsim.trim import hover_trim
from tvcsim.wrench import FanState, generalized_wrench_3d, wrench_kernel

P1 = geometry_from_posture(builtin_posture("P1"))
ZERO_THRUST = FanState(0.0, 0.0, 0.0, 0.0)

SYMMETRIC = Posture("SYM", (0.0, -0.25), (0.0, -0.61), (-74.0, 90.0))


def column(log, name):
    i = log.header.index(name)
    return np.array([float(row[i]) for row in log.rows])


def no_perturbation():
    return Perturbation()


def euler_quat(roll, pitch, yaw):
    """Z-Y-X intrinsic attitude: qz(yaw) * qy(pitch) * qx(roll), multiplied out."""
    cr, sr = math.cos(0.5 * roll), math.sin(0.5 * roll)
    cp, sp = math.cos(0.5 * pitch), math.sin(0.5 * pitch)
    cy, sy = math.cos(0.5 * yaw), math.sin(0.5 * yaw)
    return (cy * cp * cr + sy * sp * sr, cy * cp * sr - sy * sp * cr,
            cy * sp * cr + sy * cp * sr, sy * cp * cr - cy * sp * sr)


def test_free_fall_closed_form():
    state = RigidBodyState()
    for _ in range(1000):
        state = dynamics_step(state, ZERO_THRUST, P1, 1e-3)
    assert state.position_world[2] == pytest.approx(-4.905, abs=1e-6)
    assert state.velocity_world[2] == pytest.approx(-9.81, abs=1e-9)


def test_hover_equilibrium_is_fixed_point():
    geo = geometry_from_posture(SYMMETRIC)
    fs, _ = hover_trim(geo)
    state = RigidBodyState()
    for _ in range(1000):
        state = dynamics_step(state, fs, geo, 1e-3)
    assert np.abs(state.position_world).max() < 1e-9
    assert np.abs(state.velocity_world).max() < 1e-9
    assert np.abs(state.angular_velocity_body).max() < 1e-9


def test_torque_free_tumble_conservation_rk4():
    state = RigidBodyState(angular_velocity_body=np.array([1.0, 1.2, 0.8]))
    inertia = np.array(P1.inertia_body)
    momentum0 = np.linalg.norm(inertia @ state.angular_velocity_body)
    energy0 = 0.5 * (state.angular_velocity_body @ inertia @ state.angular_velocity_body)
    for _ in range(1000):
        state = dynamics_step(state, ZERO_THRUST, P1, 1e-3, integrator="rk4")
    momentum1 = np.linalg.norm(inertia @ state.angular_velocity_body)
    energy1 = 0.5 * (state.angular_velocity_body @ inertia @ state.angular_velocity_body)
    assert abs(momentum1 - momentum0) / momentum0 < 1e-5
    assert abs(energy1 - energy0) / energy0 < 1e-5


def test_torque_free_tumble_euler_first_order():
    # the default scheme drifts O(dt); at 1 ms that stays under 1e-3 relative
    state = RigidBodyState(angular_velocity_body=np.array([1.0, 1.2, 0.8]))
    inertia = np.array(P1.inertia_body)
    momentum0 = np.linalg.norm(inertia @ state.angular_velocity_body)
    for _ in range(1000):
        state = dynamics_step(state, ZERO_THRUST, P1, 1e-3)
    momentum1 = np.linalg.norm(inertia @ state.angular_velocity_body)
    assert abs(momentum1 - momentum0) / momentum0 < 1e-3


def test_quaternion_norm_drift_per_step():
    state = RigidBodyState(angular_velocity_body=np.array([3.0, -2.0, 4.0]))
    worst = 0.0
    for _ in range(2000):
        state = dynamics_step(state, ZERO_THRUST, P1, 1e-3)
        worst = max(worst, abs(np.linalg.norm(state.orientation) - 1.0))
    assert worst < 1e-9


def test_dt_guard():
    with pytest.raises(ValueError):
        dynamics_step(RigidBodyState(), ZERO_THRUST, P1, 3e-3)
    with pytest.raises(ValueError):
        dynamics_step(RigidBodyState(), ZERO_THRUST, P1, 0.0)
    # a NaN dt fails the range check itself, not a divergence guard after the step
    for integrator in ("euler", "rk4"):
        with pytest.raises(ValueError, match=r"^dt must be in \(0, 0\.002\] s$"):
            dynamics_step(RigidBodyState(), FanState(40.0, 40.0, 40.0, 40.0, 0.0, 0.0), P1,
                          math.nan, integrator=integrator)
    # _kernel's own check: the step builder would compile euler for any other name
    with pytest.raises(ValueError, match="^integrator must be 'euler' or 'rk4'$"):
        dynamics_step(RigidBodyState(), ZERO_THRUST, P1, 1e-3, integrator="rk5")


def test_divergence_guards():
    state = RigidBodyState(position_world=np.array([99.95, 0.0, 0.0]),
                           velocity_world=np.array([60.0, 0.0, 0.0]))
    with pytest.raises(DivergenceError):
        dynamics_step(state, ZERO_THRUST, P1, 1e-3)
    spinning = RigidBodyState(angular_velocity_body=np.array([0.0, 0.0, 99.999]))
    # right foot tilted forward, left back: a positive yaw couple spins it past the guard
    fs = FanState(0.0, 0.0, 50.0, 50.0, math.radians(-80.0), math.radians(80.0))
    with pytest.raises(DivergenceError):
        for _ in range(100):
            spinning = dynamics_step(spinning, fs, P1, 1e-3)
    # a NaN state fails every "> limit" test, so the guards must catch it otherwise
    nan_rate = RigidBodyState(angular_velocity_body=np.array([math.nan, 0.0, 0.0]))
    for integrator in ("euler", "rk4"):
        with pytest.raises(DivergenceError, match="position"):
            dynamics_step(RigidBodyState(), FanState(math.nan, 40.0, 40.0, 40.0), P1, 1e-3,
                          integrator=integrator)
        with pytest.raises(DivergenceError):
            dynamics_step(nan_rate, ZERO_THRUST, P1, 1e-3, integrator=integrator)


# the whole float range a state may hold: both ends of the overflow scale,
# subnormals, signed zeros, infinities and NaN, and two plain values
STATE_FLOATS = st.sampled_from([1e308, -1e308, 1e200, -1e200, 5e-324, -5e-324,
                                2.2250738585072014e-308, 0.0, -0.0, math.inf, -math.inf,
                                math.nan, 1.0, -0.5])


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
@settings(max_examples=250, deadline=None, database=None)
@given(x=st.lists(STATE_FLOATS, min_size=13, max_size=13),
       thrusts=st.lists(st.floats(0.0, DEFAULT_THRUST_MAX), min_size=4, max_size=4),
       feet=st.lists(st.floats(*builtin_posture("P1").foot_pitch_range), min_size=2,
                     max_size=2))
def test_any_state_steps_inside_the_guards_or_diverges(integrator, x, thrusts, feet):
    # an overflow anywhere in a step, the exponential map's included, ends as a
    # divergence; only a quaternion too small to normalize raises ValueError
    state = RigidBodyState(x[0:3], x[3:6], x[6:10], x[10:13])
    try:
        new = dynamics_step(state, FanState(*thrusts, *feet), P1, 1e-3, integrator=integrator)
    except DivergenceError:
        return
    except ValueError as exc:
        assert str(exc) == "cannot normalize a zero quaternion"
        assert math.hypot(*x[6:10]) < 1e-300, x
        return
    (px, py, pz), (wx, wy, wz) = new.position_world, new.angular_velocity_body
    assert all(map(math.isfinite, (*new.position_world, *new.velocity_world, *new.orientation,
                                   *new.angular_velocity_body))), x
    assert math.sqrt(px * px + py * py + pz * pz) <= POSITION_GUARD_M
    assert math.sqrt(wx * wx + wy * wy + wz * wz) <= RATE_GUARD_RAD_S


def test_integrator_order_under_dt_halving():
    fs = FanState(45.0, 45.0, 45.0, 45.0, 0.1, 0.1)

    def final(dt):
        s = RigidBodyState()
        for _ in range(int(round(1.0 / dt))):
            s = dynamics_step(s, fs, P1, dt)
        return np.concatenate([s.position_world, s.velocity_world,
                               s.orientation, s.angular_velocity_body])

    d1 = np.linalg.norm(final(1e-3) - final(5e-4))
    d2 = np.linalg.norm(final(5e-4) - final(2.5e-4))
    assert d1 < 1e-2
    assert d2 <= 0.75 * d1  # still shrinking: at least first order


def test_liftoff_at_ramp_crossing():
    cfg = ScenarioConfig(limits=FanLimits(thrust_time_constant=0.0),
                         perturbation=no_perturbation(),
                         ramp=ThrustRamp(target_per_fan=48.0, ramp_time=0.5))
    log = run_scenario(cfg)
    trim_angle = math.radians(log.events["config"]["trim_foot_angle_deg"])
    slope = 48.0 / 0.5
    vertical_per_fan = 2.0 + 2.0 * math.cos(trim_angle)
    t_cross = cfg.geometry().weight / (slope * vertical_per_fan)
    expected = math.floor(t_cross / cfg.dt_s + 1.0) * cfg.dt_s  # first step strictly above
    assert log.events["liftoff_time_s"] == pytest.approx(expected, abs=1e-12)
    assert log.events["never_lifted"] is False


def test_no_liftoff_below_weight():
    cfg = ScenarioConfig(ramp=ThrustRamp(target_per_fan=40.0, ramp_time=0.2),
                         duration_s=1.0, perturbation=no_perturbation())
    log = run_scenario(cfg)
    assert log.events["never_lifted"] is True
    assert log.events["liftoff_time_s"] is None
    assert all(row[log.header.index("phase")] == PHASE_GROUND for row in log.rows)
    assert column(log, "pz").max() == 0.0


def test_instant_full_thrust_lifts_immediately():
    cfg = ScenarioConfig(ramp=ThrustRamp(target_per_fan=50.0, ramp_time=0.0),
                         limits=FanLimits(thrust_time_constant=0.0),
                         duration_s=0.5, perturbation=no_perturbation())
    log = run_scenario(cfg)
    assert log.events["liftoff_time_s"] == 0.0


@pytest.mark.parametrize("tau", [0.1, 0.03])
def test_spool_lag_is_the_exact_first_order_response(tau):
    # a step to the target, held over each step, through the lag tau: every
    # logged thrust is 48 (1 - exp(-t / tau)), read 5.2e-15 and 2.2e-15 apart
    # at most; alpha = dt / tau in place of 1 - exp(-dt / tau) is 4.9e-3 and
    # 1.6e-2 off
    cfg = scenario_from_config({"thrust.ramp_time_s": 0.0,
                                "limits.thrust_time_constant_s": tau})
    log = run_scenario(cfg)
    assert len(log.rows) == 626
    for t, f in zip(column(log, "time_s"), column(log, "fF")):
        assert f == pytest.approx(48.0 * -math.expm1(-t / tau), rel=1e-12, abs=0.0), t


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
@pytest.mark.parametrize("dt", [2e-4, 1e-3, 2e-3])
def test_an_ideal_fan_logs_the_ramp_schedule_bit_for_bit(dt, integrator):
    # tau = 0 runs the spool-lag update with alpha = 1, f + (sched * k - f):
    # RAMP never falls, and from one nonzero step to the next never more than
    # doubles (the second step's is exactly twice the first's), so the
    # difference is exact (Sterbenz) and the sum is sched * k. Row 0 logs the
    # schedule at t = 0, row i that at the end of step i - 1, (i - 1) dt + dt
    scale = (1.02, 0.97, 1.2, 0.8)

    def run(target, ramp_time):
        cfg = ScenarioConfig(ramp=ThrustRamp(target_per_fan=target, ramp_time=ramp_time),
                             limits=FanLimits(thrust_time_constant=0.0), dt_s=dt,
                             sample_rate_hz=1.0 / dt, duration_s=0.52, integrator=integrator,
                             perturbation=Perturbation(thrust_scale=scale))
        log = run_scenario(cfg)
        thrusts = [[row[log.header.index(name)] for name in ("fF", "fB", "fL", "fR")]
                   for row in log.rows]
        return thrusts, cfg._n_steps

    for target in (0.0, 17.3, 48.0, DEFAULT_THRUST_MAX):
        for ramp_time in (0.0, 0.4 * dt, 1.5 * dt, 0.5):
            thrusts, n_steps = run(target, ramp_time)
            assert len(thrusts) == n_steps + 1, (target, ramp_time)
            for i, logged in enumerate(thrusts):
                t = 0.0 if i == 0 else (i - 1) * dt + dt
                sched = (target if ramp_time == 0.0 or t >= ramp_time
                         else target * (t / ramp_time))
                assert repr(logged) == repr([sched * k for k in scale]), (target, ramp_time, i)
    # a -0.0 target logs -0 at t = 0, then 0: -0.0 + (-0.0 - -0.0) is +0.0
    for ramp_time in (0.0, 0.5):
        thrusts, _ = run(-0.0, ramp_time)
        assert repr(thrusts[0]) == repr([-0.0] * 4)
        assert all(repr(logged) == repr([0.0] * 4) for logged in thrusts[1:]), ramp_time


def test_phase_transitions_once():
    log = run_scenario(ScenarioConfig())
    phases = [row[log.header.index("phase")] for row in log.rows]
    transitions = sum(1 for a, b in zip(phases, phases[1:]) if a != b)
    assert transitions == 1
    assert phases[0] == PHASE_GROUND and phases[-1] == PHASE_AIRBORNE


def test_ground_phase_locks_feet_and_attitude():
    log = run_scenario(ScenarioConfig())
    idx = log.header.index("phase")
    trim_deg = log.events["config"]["trim_foot_angle_deg"]
    for row in log.rows:
        if row[idx] == PHASE_GROUND:
            assert row[log.header.index("theta_L_deg")] == pytest.approx(trim_deg, abs=1e-12)
            assert row[log.header.index("pitch_deg")] == 0.0
            assert row[log.header.index("pz")] == 0.0


def test_rows_strictly_increasing_fixed_period():
    log = run_scenario(ScenarioConfig(duration_s=1.0))
    t = column(log, "time_s")
    dt = np.diff(t)
    assert (dt > 0).all()
    np.testing.assert_allclose(dt, 1.0 / 250.0, atol=1e-12)


def test_symmetric_unperturbed_run_stays_planar():
    cfg = ScenarioConfig(posture=SYMMETRIC, mode=ControlMode.ALL_OFF,
                         perturbation=no_perturbation(), duration_s=2.0)
    log = run_scenario(cfg)
    assert np.abs(column(log, "yaw_deg")).max() < math.degrees(1e-9)
    assert np.abs(column(log, "roll_deg")).max() < math.degrees(1e-9)
    assert np.abs(column(log, "py")).max() < 1e-9
    # symmetric geometry trims level and the schedule is symmetric: no drift
    assert np.abs(column(log, "px")).max() < 1e-9


def test_determinism_bit_identical(tmp_path):
    cfg = ScenarioConfig(duration_s=1.5)
    log_a = run_scenario(cfg)
    log_b = run_scenario(cfg)
    a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
    log_a.write_csv(a_csv)
    log_b.write_csv(b_csv)
    assert a_csv.read_bytes() == b_csv.read_bytes()
    assert log_a.events_json() == log_b.events_json()


def test_sensor_noise_seeded_and_deterministic():
    cfg = ScenarioConfig(duration_s=1.0, sensor_noise_std=0.002, seed=7)
    log_a = run_scenario(cfg)
    log_b = run_scenario(cfg)
    assert log_a.rows == log_b.rows
    other = run_scenario(ScenarioConfig(duration_s=1.0, sensor_noise_std=0.002, seed=8))
    assert other.rows != log_a.rows


def test_energy_audit_free_flight():
    # after liftoff, the change in kinetic + potential energy must equal the
    # integrated thrust power
    cfg = ScenarioConfig(mode=ControlMode.ALL_OFF, duration_s=1.5,
                         sample_rate_hz=1000.0, perturbation=no_perturbation())
    log = run_scenario(cfg)
    geo = cfg.geometry()
    inertia = np.array(geo.inertia_body)
    m = geo.mass_total
    ix = {k: i for i, k in enumerate(log.header)}
    air = [r for r in log.rows if r[ix["phase"]] == PHASE_AIRBORNE]

    def unpack(row):
        v = np.array([row[ix["vx"]], row[ix["vy"]], row[ix["vz"]]])
        w = np.array([row[ix["wx"]], row[ix["wy"]], row[ix["wz"]]])
        q = euler_quat(math.radians(row[ix["roll_deg"]]), math.radians(row[ix["pitch_deg"]]),
                       math.radians(row[ix["yaw_deg"]]))
        fs = FanState(row[ix["fF"]], row[ix["fB"]], row[ix["fL"]], row[ix["fR"]],
                      math.radians(row[ix["theta_L_deg"]]),
                      math.radians(row[ix["theta_R_deg"]]))
        wr = generalized_wrench_3d(fs, geo, q)
        thrust_force = wr.force_world + np.array([0.0, 0.0, m * GRAVITY])
        omega_world = quat_to_matrix(q) @ w
        power = thrust_force @ v + wr.torque_world @ omega_world
        energy = 0.5 * m * v @ v + 0.5 * w @ inertia @ w + m * GRAVITY * row[ix["pz"]]
        return power, energy

    work = 0.0
    first_power, first_energy = unpack(air[0])
    prev_power, prev_t = first_power, air[0][ix["time_s"]]
    last_energy = first_energy
    for row in air[1:]:
        power, energy = unpack(row)
        t = row[ix["time_s"]]
        work += 0.5 * (prev_power + power) * (t - prev_t)
        prev_power, prev_t = power, t
        last_energy = energy
    delta = last_energy - first_energy
    assert delta == pytest.approx(work, rel=1e-3)


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_all_off_run_ends_at_touchdown(integrator):
    cfg = ScenarioConfig(mode=ControlMode.ALL_OFF, integrator=integrator)
    log = run_scenario(cfg)
    ev = log.events
    assert ev["termination"] == "touchdown" and not ev["diverged"]
    # the first step that ends below the start height, 1.174 s -> 1.175 s
    assert ev["touchdown_time_s"] == pytest.approx(1.175, abs=1e-12)
    assert ev["final_time_s"] == pytest.approx(1.174, abs=1e-12)
    assert ev["pitch_exceeds_30deg_time_s"] < ev["final_time_s"]  # the dive stays recorded
    assert ev["altitude_at_2s_m"] is None
    ix = {k: i for i, k in enumerate(log.header)}
    assert not [row for row in log.rows if row[ix["phase"]] == PHASE_AIRBORNE
                and row[ix["pz"]] < 0.0]
    assert len(log.rows) == round(ev["final_time_s"] / cfg.dt_s) // cfg._sample_substeps + 1


def test_divergence_preserves_partial_log():
    pert = Perturbation(foot_axis_misalignment_left=math.radians(10.0),
                        foot_axis_misalignment_right=math.radians(-10.0))
    cfg = ScenarioConfig(mode=ControlMode.PITCH_ONLY, perturbation=pert,
                         duration_s=3.0, dt_s=2e-3)
    log = run_scenario(cfg)  # a diverged run ends by returning its log too
    ev = log.events
    assert ev["diverged"] is True
    assert "rad/s" in ev["divergence_reason"]
    # the run ends at the start of the step that failed; the guard names its end
    assert ev["final_time_s"] < cfg.duration_s
    assert f"at t={ev['final_time_s'] + cfg.dt_s:.3f} s" in ev["divergence_reason"]
    steps = round(ev["final_time_s"] / cfg.dt_s)
    assert len(log.rows) == steps // cfg._sample_substeps + 1 > 10
    assert log.rows[-1][0] <= ev["final_time_s"]


def test_events_structure():
    log = run_scenario(ScenarioConfig())
    ev = log.events
    assert ev["liftoff_time_s"] is not None
    assert ev["altitude_at_2s_m"] is not None
    assert ev["final_time_s"] == pytest.approx(2.5)
    assert ev["termination"] == "duration" and ev["touchdown_time_s"] is None
    assert json.loads(log.events_json())["config"]["posture"]["name"] == "P1"


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
@pytest.mark.parametrize("mode", list(ControlMode))
def test_events_agree_with_a_log_of_every_step(mode, integrator):
    # the maxima are tracked in radians and converted once; the log converts
    # every row, so the two must agree exactly
    cfg = ScenarioConfig(mode=mode, integrator=integrator, sample_rate_hz=1000.0)
    log = run_scenario(cfg)
    ev = log.events
    assert len(log.rows) == round(ev["final_time_s"] / cfg.dt_s) + 1
    header = log.header
    for axis in ("roll", "pitch", "yaw"):
        column = [abs(row[header.index(f"{axis}_deg")]) for row in log.rows]
        assert ev[f"max_abs_{axis}_deg"] == max(column), axis
    for axis, band in (("pitch", 30.0), ("yaw", 40.0)):
        first = next((row[0] for row in log.rows
                      if abs(row[header.index(f"{axis}_deg")]) >= band), None)
        assert ev[f"{axis}_exceeds_{band:.0f}deg_time_s"] == first, axis
    # both-on holds the bands; the other modes cross both
    assert (ev["yaw_exceeds_40deg_time_s"] is None) == (mode is ControlMode.BOTH_ON)


# a perturbed run and its sagittal mirror (y -> -y): the left and right foot
# biases and thrust scales swap and the lateral CoM error changes sign
MIRROR_BASE = {
    "perturbation.com_offset_x_m": 0.005,
    "perturbation.com_offset_y_m": 0.002,
    "perturbation.foot_misalignment_left_deg": 1.0,
    "perturbation.foot_misalignment_right_deg": -0.5,
    "perturbation.thrust_scale_front": 1.02,
    "perturbation.thrust_scale_left": 1.02,
    "perturbation.thrust_scale_right": 0.99,
    "sim.duration_s": 1.5,
}
MIRROR_IMAGE = MIRROR_BASE | {
    "perturbation.com_offset_y_m": -0.002,
    "perturbation.foot_misalignment_left_deg": -0.5,
    "perturbation.foot_misalignment_right_deg": 1.0,
    "perturbation.thrust_scale_left": 0.99,
    "perturbation.thrust_scale_right": 1.02,
}
# log column -> (its column in the mirrored run, sign); a y-reflection keeps
# x, z and the pitch axis, and flips y, roll, yaw and the x and z rates
MIRROR_COLUMNS = {
    **{name: (name, 1.0) for name in ("time_s", "px", "pz", "vx", "vz", "pitch_deg", "wy",
                                      "fF", "fB")},
    **{name: (name, -1.0) for name in ("py", "vy", "roll_deg", "yaw_deg", "wx", "wz")},
    **{left: (right, 1.0) for left, right in (
        ("theta_L_cmd_deg", "theta_R_cmd_deg"), ("theta_R_cmd_deg", "theta_L_cmd_deg"),
        ("theta_L_deg", "theta_R_deg"), ("theta_R_deg", "theta_L_deg"),
        ("fL", "fR"), ("fR", "fL"))},
}


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
@pytest.mark.parametrize("mode", list(ControlMode))
def test_sagittal_mirror_run_is_the_mirror_image(mode, integrator):
    # built through the config resolver, so its tuple-element rows are exercised
    options = {"mode": mode.value, "sim.integrator": integrator}
    log = run_scenario(scenario_from_config(MIRROR_BASE | options))
    image = run_scenario(scenario_from_config(MIRROR_IMAGE | options))
    assert set(MIRROR_COLUMNS) == set(log.header) - {"phase"}
    assert len(log.rows) == len(image.rows)
    assert [row[-1] for row in log.rows] == [row[-1] for row in image.rows]  # phases
    assert max(abs(column(log, name)).max() for name in ("py", "roll_deg", "yaw_deg")) > 1e-3
    # worst deviation seen: 1.8e-14 (both-on, euler)
    for name, (partner, sign) in MIRROR_COLUMNS.items():
        np.testing.assert_allclose(column(log, name), sign * column(image, partner),
                                   rtol=0.0, atol=1e-12, err_msg=name)


def mirrored_takeoffs(rng, mode, integrator):
    """The config values of a drawn takeoff and of its left-right mirror, which
    swaps the feet's axis biases and thrust scales and negates the lateral CoM
    error and the yaw setpoint. geometry.com_y_m stays 0: the trim refuses an
    off-plane CoM. Half the draws replace the tuned gains by drawn ones, with
    integral terms."""
    shared = {
        "mode": mode.value, "sim.integrator": integrator, "sim.duration_s": 1.5,
        "posture": str(rng.choice(["P1", "P2", "P3"])),
        "sim.dt_s": float(rng.choice([5e-4, 1e-3, 2e-3])),
        "controller.setpoint_pitch_deg": rng.uniform(-5.0, 5.0),
        **{f"perturbation.com_offset_{axis}_m": rng.uniform(-0.01, 0.01) for axis in "xz"},
        **{f"perturbation.thrust_scale_{fan}": rng.uniform(0.95, 1.05)
           for fan in ("front", "back")},
    }
    if rng.random() < 0.5:
        shared |= {f"controller.{name}": rng.uniform(0.0, hi) for name, hi in (
            ("kp_pitch", 2.0), ("kd_pitch", 0.25), ("ki_pitch", 1.0), ("kp_yaw", 1.0),
            ("kd_yaw", 0.12), ("ki_yaw", 0.5))}
    bias, scale = rng.uniform(-3.0, 3.0, 2).tolist(), rng.uniform(0.95, 1.05, 2).tolist()
    com_y, yaw = rng.uniform(-0.005, 0.005), rng.uniform(-20.0, 20.0)
    return [shared | {
        "perturbation.foot_misalignment_left_deg": bias[k],
        "perturbation.foot_misalignment_right_deg": bias[1 - k],
        "perturbation.thrust_scale_left": scale[k],
        "perturbation.thrust_scale_right": scale[1 - k],
        "perturbation.com_offset_y_m": sign * com_y, "controller.setpoint_yaw_deg": sign * yaw,
    } for k, sign in ((0, 1.0), (1, -1.0))]


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
@pytest.mark.parametrize("mode", list(ControlMode))
def test_drawn_takeoffs_and_their_left_right_mirrors_fly_mirror_images(mode, integrator):
    # ten drawn takeoffs per mode and integrator: the mirror negates py, vy,
    # roll, yaw, wx and wz, swaps the L/R columns and keeps every other cell.
    # Not bit for bit, as the feet's terms add in the other order; worst
    # |x - y| / (1 + |x|) seen over the 60 draws: 2.4e-14 (all-off, euler, yaw).
    # An error that is itself mirror-symmetric, such as a flipped sign of the
    # y_c terms, keeps the relation
    rng = np.random.default_rng([list(ControlMode).index(mode),
                                 ("euler", "rk4").index(integrator)])
    for _ in range(10):
        log, image = (run_scenario(scenario_from_config(values))
                      for values in mirrored_takeoffs(rng, mode, integrator))
        assert log.events["liftoff_time_s"] is not None
        assert [row[-1] for row in image.rows] == [row[-1] for row in log.rows]  # phases
        for name, (partner, sign) in MIRROR_COLUMNS.items():
            x, y = column(log, name), sign * column(image, partner)
            assert (abs(x - y) / (1.0 + abs(x))).max() <= 1e-12, name


def mass_thrust_scaled(k):
    """The config keys that put every mass and every thrust at k times its default."""
    return {"geometry.mass_kg": k * DEFAULT_MASS, "geometry.fan_mass_kg": k * DEFAULT_FAN_MASS,
            "thrust.target_per_fan_n": k * ThrustRamp().target_per_fan,
            "limits.thrust_max_per_fan_n": k * DEFAULT_THRUST_MAX}


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
@pytest.mark.parametrize("mode", list(ControlMode))
def test_mass_thrust_scaling_leaves_the_flight_unchanged(mode, integrator):
    # k times every mass, inertia and thrust keeps every acceleration, so the
    # trim angle, the tuned gains and the flight stay the same and the logged
    # thrusts scale by k; the trim's tolerances scale with the robot, so a
    # power of two far from the default mass flies the same bits too
    options = MIRROR_BASE | {"mode": mode.value, "sim.integrator": integrator}
    log = run_scenario(scenario_from_config(options | mass_thrust_scaled(1.0)))
    thrusts = [log.header.index(name) for name in ("fF", "fB", "fL", "fR")]
    states = [i for i in range(len(log.header) - 1) if i not in thrusts]  # not the phase
    for k in (2.0 ** -20, 2.0 ** -7, 0.5, 2.0, 2.0 ** 12, 2.0 ** 20, 3.0):
        image = run_scenario(scenario_from_config(options | mass_thrust_scaled(k)))
        for key in ("gains_used", "trim_foot_angle_deg"):
            assert image.events["config"][key] == log.events["config"][key], (key, k)
        assert [row[-1] for row in image.rows] == [row[-1] for row in log.rows], k  # phases
        if k != 3.0:  # a power of two scales every product exactly
            assert ({**image.events, "config": None} == {**log.events, "config": None}), k
            assert ([repr([row[i] for i in states]) for row in image.rows]
                    == [repr([row[i] for i in states]) for row in log.rows]), k
            assert [[row[i] for i in thrusts] for row in image.rows] == [
                [k * row[i] for i in thrusts] for row in log.rows], k
            continue
        # worst deviations seen at k = 3: 2.3e-13 in a state column, and 1.3e-15
        # relative in a thrust
        rows, scaled = np.array([row[:-1] for row in log.rows]), np.array(
            [row[:-1] for row in image.rows])
        np.testing.assert_allclose(scaled[:, states], rows[:, states], rtol=0.0, atol=1e-11)
        np.testing.assert_allclose(scaled[:, thrusts], k * rows[:, thrusts], rtol=1e-13)


def test_mass_thrust_scaling_scales_the_envelope_and_keeps_the_trim():
    # the same scaling multiplies every attainable pitch torque by k and so
    # keeps the TVC/DT ratios; the trim angles stay, the trim thrusts scale.
    # The LP's feasibility tolerance scales with the floor, so at a power of
    # two every torque scales bit for bit, far from the default mass too
    powers = [2.0 ** j for j in range(-20, 21) if j]
    for name in ("P1", "P2", "P3"):
        cfg = scenario_from_config({"posture": name} | mass_thrust_scaled(1.0))
        geo = cfg.geometry()
        constraint = EnvelopeConstraint.hover(geo, cfg.posture, cfg.limits)
        sweep = envelope_sweep(geo, constraint)
        ratios = [tvc_dt_ratio(geo, constraint, theta) for theta in (-0.3, 0.0, 0.2)]
        trims = [hover_trim(geo, equal_thrust, cfg.limits) for equal_thrust in (True, False)]
        for k in (*powers, 3.0):
            scaled_cfg = scenario_from_config({"posture": name} | mass_thrust_scaled(k))
            scaled_geo = scaled_cfg.geometry()
            scaled = EnvelopeConstraint.hover(scaled_geo, scaled_cfg.posture, scaled_cfg.limits)
            # worst deviations seen at k = 3: 3.2e-10 relative in a torque, 1.3e-10
            # in a ratio, where k times a value rounds
            rel = 0.0 if k in powers else 1e-8
            for point, image in zip(sweep, envelope_sweep(scaled_geo, scaled), strict=True):
                for a, b in ((point.dt, image.dt), (point.tvc, image.tvc)):
                    assert (a is None) == (b is None), (name, k)
                    if a is not None:
                        assert (b.tau_max, b.tau_min) == pytest.approx(
                            (k * a.tau_max, k * a.tau_min), rel=rel, abs=0.0), (name, k)
            for theta, ratio in zip((-0.3, 0.0, 0.2), ratios):
                assert tvc_dt_ratio(scaled_geo, scaled, theta) == pytest.approx(
                    ratio, rel=0.0, abs=rel), (name, k)
            for equal_thrust, (fs, pitch) in zip((True, False), trims):
                scaled_fs, scaled_pitch = hover_trim(scaled_geo, equal_thrust, scaled_cfg.limits)
                assert (scaled_fs.theta_left, scaled_fs.theta_right, scaled_pitch) == (
                    fs.theta_left, fs.theta_right, pitch), (name, k)
                assert scaled_fs.f_left == pytest.approx(k * fs.f_left, rel=1e-14), (name, k)


def length_time_scaled(name, length, time):
    """The config keys of MIRROR_BASE's run on posture name, with explicit gains,
    at length times every length and time times every time: each rate at 1/time,
    each derivative gain at time times and each integral gain at 1/time."""
    posture = builtin_posture(name)
    (com_x, com_z), (foot_x, foot_z) = posture.com_sagittal, posture.foot_fan
    return MIRROR_BASE | {
        "posture": name, "posture.com_x_m": length * com_x, "posture.com_z_m": length * com_z,
        "posture.foot_x_m": length * foot_x, "posture.foot_z_m": length * foot_z,
        "geometry.waist_fan_spacing_m": length * DEFAULT_WAIST_FAN_SPACING,
        "geometry.foot_fan_spacing_m": length * DEFAULT_FOOT_FAN_SPACING,
        "geometry.com_y_m": length * 0.0,
        **{f"perturbation.com_offset_{axis}_m": length * MIRROR_BASE.get(
            f"perturbation.com_offset_{axis}_m", 0.0) for axis in "xyz"},
        "sim.dt_s": time * 1e-3, "sim.duration_s": time * MIRROR_BASE["sim.duration_s"],
        "thrust.ramp_time_s": time * ThrustRamp().ramp_time,
        "limits.thrust_time_constant_s": time * DEFAULT_THRUST_TIME_CONSTANT,
        "controller.rate_hz": 250.0 / time, "sim.sample_rate_hz": 250.0 / time,
        "limits.foot_pitch_rate_max_rad_s": DEFAULT_FOOT_PITCH_RATE_MAX / time,
        "controller.kp_pitch": 0.9975, "controller.kd_pitch": time * 0.1164,
        "controller.ki_pitch": 0.5 / time, "controller.kp_yaw": 0.5242,
        "controller.kd_yaw": time * 0.06115, "controller.ki_yaw": 0.25 / time,
    }


# each log column's factor under length 4 and time 2: positions scale by the
# length, velocities by length / time, body rates by 1 / time; angles and
# thrusts keep their values
LENGTH_TIME_FACTORS = {"time_s": 2.0, "px": 4.0, "py": 4.0, "pz": 4.0, "vx": 2.0, "vy": 2.0,
                       "vz": 2.0, "wx": 0.5, "wy": 0.5, "wz": 0.5}


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
@pytest.mark.parametrize("mode", list(ControlMode))
def test_length_time_scaling_scales_the_flight(mode, integrator):
    # four times every length and twice every time keep every acceleration
    # (L / T^2) and every angle, so the run is the same flight at four times
    # the size, bit for bit: each factor is a power of two. Outside the
    # relation: tuned gains (rounded to four digits), the altitude sampled at
    # a fixed 2 s, the guards in m and rad/s, and sensor noise, whose one
    # sigma serves angles and rates alike
    options = {"mode": mode.value, "sim.integrator": integrator}
    log = run_scenario(scenario_from_config(length_time_scaled("P1", 1.0, 1.0) | options))
    image = run_scenario(scenario_from_config(length_time_scaled("P1", 4.0, 2.0) | options))
    factors = [LENGTH_TIME_FACTORS.get(name, 1.0) for name in log.header[:-1]]
    assert [row[-1] for row in image.rows] == [row[-1] for row in log.rows]  # phases
    assert [repr(row[:-1]) for row in image.rows] == [  # repr keeps a zero's sign
        repr(tuple(k * cell for k, cell in zip(factors, row[:-1]))) for row in log.rows]
    times = ["liftoff_time_s", "pitch_exceeds_30deg_time_s", "yaw_exceeds_40deg_time_s",
             "touchdown_time_s", "final_time_s"]
    assert log.events["liftoff_time_s"] is not None
    for key, value in log.events.items():
        if key in times:
            assert image.events[key] == (None if value is None else 2.0 * value), key
        elif key not in ("config", "altitude_at_2s_m"):
            assert image.events[key] == value, key


def test_length_scaling_scales_the_envelope_and_keeps_the_trim():
    # L times every length multiplies every pitch torque by L, bit for bit at
    # a power of two, and keeps the TVC/DT ratios, the trim thrusts and angles
    for name in ("P1", "P2", "P3"):
        cfg = scenario_from_config(length_time_scaled(name, 1.0, 1.0))
        geo = cfg.geometry()
        constraint = EnvelopeConstraint.hover(geo, cfg.posture, cfg.limits)
        sweep = envelope_sweep(geo, constraint)
        ratios = [tvc_dt_ratio(geo, constraint, theta) for theta in (-0.3, 0.0, 0.2)]
        trims = [(astuple(fs), pitch) for fs, pitch in (
            hover_trim(geo, equal_thrust, cfg.limits) for equal_thrust in (True, False))]
        for length in (4.0, 2.0 ** -10, 2.0 ** 10):
            scaled_cfg = scenario_from_config(length_time_scaled(name, length, 1.0))
            scaled_geo = scaled_cfg.geometry()
            scaled = EnvelopeConstraint.hover(scaled_geo, scaled_cfg.posture, scaled_cfg.limits)
            for point, image in zip(sweep, envelope_sweep(scaled_geo, scaled), strict=True):
                for a, b in ((point.dt, image.dt), (point.tvc, image.tvc)):
                    assert (a is None) == (b is None), (name, length)
                    if a is not None:
                        assert repr((b.tau_max, b.tau_min)) == repr((
                            length * a.tau_max, length * a.tau_min)), (name, length)
            assert repr([tvc_dt_ratio(scaled_geo, scaled, theta)
                         for theta in (-0.3, 0.0, 0.2)]) == repr(ratios), (name, length)
            assert repr([(astuple(fs), pitch) for fs, pitch in (
                hover_trim(scaled_geo, equal_thrust, scaled_cfg.limits)
                for equal_thrust in (True, False))]) == repr(trims), (name, length)


# metamorphic relations of the loop's bookkeeping: two runs of one perturbed
# scenario that differ in a setting the trajectory must not see; the log rows
# must then agree in every bit (repr keeps a float's sign of zero)
BOOKKEEPING_BASE = {key: value for key, value in MIRROR_BASE.items() if key != "sim.duration_s"}


def bookkeeping_run(integrator, noise, **values):
    return run_scenario(scenario_from_config(
        BOOKKEEPING_BASE | {"sim.integrator": integrator, "sim.sensor_noise_std": noise,
                            "sim.seed": 3} | values))


def exact_rows(log):
    return [repr(row) for row in log.rows]


def events_apart_from(log, key):
    """The events with one config field left out."""
    return log.events | {"config": {k: v for k, v in log.events["config"].items() if k != key}}


@pytest.mark.parametrize("noise", [0.0, 0.002])
@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_a_longer_run_logs_the_shorter_run_as_its_prefix(integrator, noise):
    # causality: no step reads the run's duration
    short = bookkeeping_run(integrator, noise, **{"sim.duration_s": 1.5})
    long = bookkeeping_run(integrator, noise, **{"sim.duration_s": 2.5})
    assert short.events["termination"] == "duration" and len(long.rows) > len(short.rows)
    assert exact_rows(long)[:len(short.rows)] == exact_rows(short)


@pytest.mark.parametrize("noise", [0.0, 0.002])
@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_half_the_sample_rate_logs_every_other_row(integrator, noise):
    # decimation: sampling reads the state and never feeds back into it
    full = bookkeeping_run(integrator, noise, **{"sim.duration_s": 1.5})
    half = bookkeeping_run(integrator, noise, **{"sim.duration_s": 1.5,
                                                 "sim.sample_rate_hz": 125.0})
    assert exact_rows(half) == exact_rows(full)[::2]
    assert events_apart_from(half, "sample_rate_hz") == events_apart_from(full, "sample_rate_hz")


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_the_seed_changes_nothing_without_sensor_noise(integrator):
    logs = [bookkeeping_run(integrator, noise, **{"sim.duration_s": 1.5, "sim.seed": seed})
            for noise in (0.0, 0.002) for seed in (3, 12345)]
    assert exact_rows(logs[0]) == exact_rows(logs[1])
    assert events_apart_from(logs[0], "seed") == events_apart_from(logs[1], "seed")
    assert exact_rows(logs[2]) != exact_rows(logs[3])  # the seed reaches the noise


def test_foot_slew_is_the_min_max_clamp_bit_for_bit():
    # controller.CLAMP compares in place of min/max; ties, signed zeros and a
    # NaN input must come out as min(hi, max(lo, x)), for the controller's
    # range clamp and slew limit and for the loop's foot slew toward a target
    scope = {}
    exec("def clamp(x, lo, hi):\n" + textwrap.indent(
        CLAMP.format(out="out", x="x", lo="lo", hi="hi") + "return out\n", "    "), scope)
    clamp = scope["clamp"]
    rng = np.random.default_rng(17)
    cases = [(v, v + s * rng.choice((-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)), s)
             for v, s in zip(rng.uniform(-0.5, 0.5, 2_000), rng.uniform(0.0, 0.01, 2_000))]
    cases += [(0.0, -0.0, 0.0), (-0.0, 0.0, 0.0), (0.01, -0.0, 0.01), (-0.01, 0.0, 0.01),
              (0.1, math.nan, 0.01), (0.0, 0.02, 0.02), (0.0, -0.02, 0.02)]
    triples = [(target, value - step, value + step) for value, target, step in cases]
    triples += [(-0.0, 0.0, 0.0), (0.0, -0.0, 0.0), (0.0, 0.0, -0.0), (-0.0, -0.0, 0.0),
                (-0.0, 0.0, 0.02), (0.0, -0.02, -0.0), (math.nan, -0.5, 0.5)]
    for x, lo, hi in triples:
        expected = min(hi, max(lo, x))
        assert struct.pack("<d", clamp(x, lo, hi)) == struct.pack("<d", expected), (x, lo, hi)


def test_scenario_config_rejects_an_unreachable_setpoint_pitch():
    # the controller compares the setpoint with a Z-Y-X pitch, which lies in
    # [-90, 90] deg; the range's ends are kept
    for deg in (120.0, -91.0, 90.0 + 1e-9, math.inf):
        with pytest.raises(ValueError, match=r"^the setpoint's pitch must lie in "
                                             r"\[-90, 90\] deg, got "):
            ScenarioConfig(setpoint=EulerAngles(0.0, math.radians(deg), 0.0))
    with pytest.raises(ValueError, match=r"^controller\.setpoint_pitch_deg: .* got 120$"):
        scenario_from_config({"controller.setpoint_pitch_deg": 120.0})
    for deg in (90.0, -90.0, 45.0):
        ScenarioConfig(setpoint=EulerAngles(0.0, math.radians(deg), 0.0))


def test_a_yaw_setpoint_is_flown_modulo_a_turn():
    # the tick wraps the yaw error into (-180, 180] deg, so any finite yaw
    # setpoint is accepted and flown, 1e308 deg among them, and one a turn
    # away flies the same run but for the last bits of the error
    def max_yaw(deg):
        cfg = scenario_from_config({"controller.setpoint_yaw_deg": deg, "sim.duration_s": 1.5})
        return run_scenario(cfg).events["max_abs_yaw_deg"]

    held = max_yaw(5.0)
    assert abs(held - max_yaw(0.0)) > 1.0  # the setpoint is flown
    assert max_yaw(365.0) == pytest.approx(held, abs=1e-9)
    assert math.isfinite(max_yaw(1e308))


def test_scenario_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        ScenarioConfig(seed=-1)
    with pytest.raises(ValueError, match=r"^sim\.seed: seed must be >= 0, got -1$"):
        scenario_from_config({"sim.seed": -1})


def test_scenario_config_rejects_a_negative_noise_sigma():
    # the loop draws noise only for a sigma > 0, so a negative one ran as 0
    for sigma in (-1.0, -1e-12, -math.inf):
        with pytest.raises(ValueError, match=r"^sensor_noise_std must be >= 0, got -"):
            ScenarioConfig(sensor_noise_std=sigma)
    with pytest.raises(ValueError, match=r"^sensor_noise_std must be >= 0, got nan$"):
        ScenarioConfig(sensor_noise_std=math.nan)
    with pytest.raises(ValueError, match=r"^sim\.sensor_noise_std: .* got -1$"):
        scenario_from_config({"sim.sensor_noise_std": -1.0})
    ScenarioConfig(sensor_noise_std=0.0)  # zero, the default, is kept


def test_scenario_config_rejects_a_duration_of_partial_steps():
    # the loop runs whole steps, so a rounded step count would run past (or
    # stop short of) the duration and still report it
    for duration, dt in ((1.0016, 1e-3), (1.0014, 1e-3), (0.003, 2e-3), (1.00000001, 1e-3)):
        with pytest.raises(ValueError, match=r"^duration_s \S+ s must be a whole number "
                                             r"of dt_s \S+ s steps$"):
            ScenarioConfig(duration_s=duration, dt_s=dt)
    with pytest.raises(ValueError, match=r"^sim\.duration_s, sim\.dt_s: duration_s 1\.0016 s "
                                         r".* dt_s 0\.001 s"):
        scenario_from_config({"sim.duration_s": 1.0016})
    for duration in (0.8, 1.2, 1.5, 2.5, 4.0):  # every golden case's duration
        for dt in (5e-4, 1e-3, 2e-3):
            ScenarioConfig(duration_s=duration, dt_s=dt)
    # the step cap is checked first and keeps its message
    with pytest.raises(ValueError, match=r"^duration_s / dt_s must be at most"):
        ScenarioConfig(duration_s=1000.0005)


def test_scenario_config_caps_the_step_count():
    # a grounded run leaves its loop only after every step, so an input that
    # asks for astronomically many steps would never end; both name both fields
    for kwargs in ({"dt_s": 1e-300},
                   {"ramp": ThrustRamp(target_per_fan=30.0), "duration_s": 1e9}):
        with pytest.raises(ValueError, match=r"^duration_s / dt_s must be at most "
                                             r"1000000 steps, got ") as exc:
            ScenarioConfig(**kwargs)
        assert exc.value.fields == ("duration_s", "dt_s")
    with pytest.raises(ValueError, match=r"^sim\.duration_s, sim\.dt_s: .* at most 1000000 steps"):
        scenario_from_config({"sim.duration_s": 1000.001})
    ScenarioConfig(duration_s=1000.0)  # exactly the cap is kept (not run here)


def test_scenario_config_rejects_negative_pole_placement():
    # kd = 2 zeta wn I / b: a negative zeta and wn together would tune the
    # default gains, and a negative zeta alone would blame kd_pitch
    for key, name in (("controller.damping_ratio", "zeta"),
                      ("controller.natural_freq_pitch_rad_s", "omega_n_pitch"),
                      ("controller.natural_freq_yaw_rad_s", "omega_n_yaw")):
        with pytest.raises(ValueError, match=rf"^{re.escape(key)}: {name} must be >= 0, got -1$"):
            scenario_from_config({key: -1.0})
    with pytest.raises(ValueError, match=r"^controller\.damping_ratio: zeta must be >= 0, "
                                         r"got -0\.7$"):
        scenario_from_config({"controller.damping_ratio": -0.7,
                              "controller.natural_freq_pitch_rad_s": -12.0,
                              "controller.natural_freq_yaw_rad_s": -12.0})
    with pytest.raises(ValueError, match=r"^omega_n_yaw must be >= 0"):
        ScenarioConfig(omega_n_yaw=math.nan)
    log = run_scenario(ScenarioConfig(zeta=0.0, duration_s=0.01))  # zero is kept
    assert log.events["config"]["gains_used"]["kd_pitch"] == 0.0


def test_perturbation_validation():
    with pytest.raises(ValueError):
        Perturbation(foot_axis_misalignment_left=math.radians(11.0))
    with pytest.raises(ValueError):
        Perturbation(thrust_scale=np.array([1.3, 1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        Perturbation(com_offset=(0.01, 0.0))


def test_perturbation_holds_float_tuples_and_rejects_a_nan_scale():
    pert = Perturbation(com_offset=np.array([0.01, 0.0, -0.02]),
                        thrust_scale=np.array([0.9, 1.0, 1.1, 1.2]))
    assert pert.com_offset == (0.01, 0.0, -0.02)
    assert pert.thrust_scale == (0.9, 1.0, 1.1, 1.2)
    assert all(type(v) is float for v in pert.com_offset + pert.thrust_scale)
    with pytest.raises(ValueError, match="thrust_scale"):
        Perturbation(thrust_scale=(1.0, math.nan, 1.0, 1.0))
    # a NaN bias fails its cap like any other value past it, with the same message
    for side in ("left", "right"):
        for bias in (math.nan, math.radians(10.5), -math.inf):
            with pytest.raises(ValueError,
                               match=rf"^\|foot_axis_misalignment_{side}\| must be <= 10 deg$"):
                Perturbation(**{f"foot_axis_misalignment_{side}": bias})
        edge = Perturbation(**{f"foot_axis_misalignment_{side}": -math.radians(10.0)})
        assert getattr(edge, f"foot_axis_misalignment_{side}") == -math.radians(10.0)
    for offset in ((math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), np.array([0.0, 0.0, -math.inf])):
        with pytest.raises(ValueError, match=r"^com_offset must be finite$"):
            Perturbation(com_offset=offset)
    assert Perturbation(com_offset=(1e308, 1e308, -1e308)).com_offset == (1e308, 1e308, -1e308)


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(dt_s=0.003)
    # a NaN dt gets the dt message, not the step count's
    with pytest.raises(ValueError, match=r"^physics dt must be in \(0, 0\.002\] s$"):
        ScenarioConfig(dt_s=math.nan)
    with pytest.raises(ValueError):
        ScenarioConfig(duration_s=1e-4)
    with pytest.raises(ValueError):
        ScenarioConfig(controller_rate=333.0)  # not a multiple of dt
    with pytest.raises(ValueError, match=r"^controller_rate must be positive"):
        ScenarioConfig(controller_rate=0.0)
    # a period of more than MAX_STEPS steps, an overflowing one too, names its field
    for rate in (1e-4, 1e-308, 5e-324):
        with pytest.raises(ValueError, match=r"^the sample_rate_hz period / dt_s "
                                             r"must be at most 1000000 steps") as exc:
            ScenarioConfig(sample_rate_hz=rate)
        assert exc.value.fields == ("sample_rate_hz", "dt_s")
    with pytest.raises(ValueError, match="must be at most 1000000 steps"):
        ScenarioConfig(duration_s=1e308)  # finite, but duration / dt overflows
    # the ramp is checked by its one consumer, the takeoff run
    with pytest.raises(ValueError, match="per-fan limit"):
        run_scenario(ScenarioConfig(ramp=ThrustRamp(target_per_fan=60.0)))
    with pytest.raises(ValueError):
        ScenarioConfig(integrator="verlet")


def test_log_header_layout():
    log = SimLog()
    assert log.header[:7] == ["time_s", "px", "py", "pz", "vx", "vy", "vz"]
    assert log.header[-1] == "phase"
    assert len(log.header) == 22


# --- the float step against the array formulation it replaced --------------

def _np_quat_mul(a, b):
    """Hamilton product in scalar-vector form."""
    return np.concatenate([[a[0] * b[0] - a[1:] @ b[1:]],
                           a[0] * b[1:] + b[0] * a[1:] + np.cross(a[1:], b[1:])])


def _np_normalize(q):
    return q / np.linalg.norm(q)


def _np_accels(q, omega, fs, geo, pert):
    """Array accelerations: world force through R(q), np.cross and np.linalg.solve."""
    w = generalized_wrench_3d(fs, geo, q, pert)
    _, _, t_x, t_y1, t_y2, t_y3, t_z = wrench_kernel(geo, pert)(
        fs.f_front, fs.f_back, fs.f_left, fs.f_right, fs.theta_left, fs.theta_right)
    inertia = np.array(geo.inertia_body)
    omega_dot = np.linalg.solve(inertia, np.array([t_x, t_y1 + t_y2 + t_y3, t_z])
                                - np.cross(omega, inertia @ omega))
    return w.force_world / geo.mass_total, omega_dot


def _np_step(state, fs, geo, dt, pert, integrator):
    p, v = np.array(state.position_world), np.array(state.velocity_world)
    q, omega = np.array(state.orientation), np.array(state.angular_velocity_body)
    if integrator == "euler":
        acc, omega_dot = _np_accels(q, omega, fs, geo, pert)
        v_new = v + acc * dt
        omega_new = omega + omega_dot * dt
        rot = omega_new * dt
        angle = np.linalg.norm(rot)
        dq = np.concatenate([[math.cos(0.5 * angle)], math.sin(0.5 * angle) / angle * rot])
        return p + 0.5 * (v + v_new) * dt, v_new, _np_normalize(_np_quat_mul(q, dq)), omega_new

    def deriv(v, q, omega):
        acc, omega_dot = _np_accels(q, omega, fs, geo, pert)
        return v, acc, 0.5 * _np_quat_mul(q, np.concatenate([[0.0], omega])), omega_dot

    x0 = (p, v, q, omega)
    k1 = deriv(v, q, omega)
    k2 = deriv(v + 0.5 * dt * k1[1], _np_normalize(q + 0.5 * dt * k1[2]), omega + 0.5 * dt * k1[3])
    k3 = deriv(v + 0.5 * dt * k2[1], _np_normalize(q + 0.5 * dt * k2[2]), omega + 0.5 * dt * k2[3])
    k4 = deriv(v + dt * k3[1], _np_normalize(q + dt * k3[2]), omega + dt * k3[3])
    new = [x0[i] + dt * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) / 6.0 for i in range(4)]
    new[2] = _np_normalize(new[2])
    return tuple(new)


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
@pytest.mark.parametrize("perturbed", [False, True])
def test_float_step_matches_the_array_formulation(integrator, perturbed):
    rng = np.random.default_rng(2024 + perturbed)
    for case in range(100):
        geo = geometry_from_posture(builtin_posture(("P1", "P2", "P3")[case % 3]),
                                    fan_mass=rng.uniform(0.05, 1.0),
                                    fan_spacing_waist=rng.uniform(0.1, 0.8),
                                    fan_spacing_feet=rng.uniform(0.1, 0.8))
        # three distinct principal moments, so the gyroscopic term omega x I omega
        # is not zero
        moments = np.diag(geo.inertia_body)
        assert min(abs(np.diff(moments[[0, 1, 2, 0]]))) > 1e-6 * moments.max(), moments
        pert = Perturbation(com_offset=rng.normal(0.0, 0.01, 3),
                            foot_axis_misalignment_left=rng.uniform(-0.15, 0.15),
                            foot_axis_misalignment_right=rng.uniform(-0.15, 0.15)
                            ) if perturbed else None
        q = rng.normal(size=4)
        state = RigidBodyState(rng.normal(0.0, 5.0, 3), rng.normal(0.0, 3.0, 3),
                               q / np.linalg.norm(q), rng.normal(0.0, 3.0, 3), 0.5)
        fs = FanState(*rng.uniform(0.0, 50.0, 4), *rng.uniform(-1.2, 1.2, 2))
        dt = rng.uniform(2e-4, 2e-3)
        got = dynamics_step(state, fs, geo, dt, pert, integrator)
        ref = _np_step(state, fs, geo, dt, pert, integrator)
        assert got.time == state.time + dt
        before = (state.position_world, state.velocity_world, state.orientation,
                  state.angular_velocity_body)
        for x0, new, expected in zip(before, (got.position_world, got.velocity_world,
                                              got.orientation, got.angular_velocity_body), ref):
            assert isinstance(new, tuple) and all(isinstance(x, float) for x in new)
            # relative to the step's change, not to the state, so that the
            # comparison sees the accelerations themselves
            change = np.linalg.norm(expected - x0)
            assert np.linalg.norm(np.array(new) - expected) <= 1e-12 * change, (case, new)


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_float_step_guards(integrator):
    with pytest.raises(DivergenceError, match="position"):
        dynamics_step(RigidBodyState(), FanState(math.nan, 40.0, 40.0, 40.0), P1, 1e-3,
                      integrator=integrator)
    with pytest.raises(DivergenceError):  # rk4 carries the NaN into the position first
        dynamics_step(RigidBodyState(angular_velocity_body=(0.0, math.nan, 0.0)),
                      ZERO_THRUST, P1, 1e-3, integrator=integrator)
    with pytest.raises(ValueError, match="zero quaternion"):
        dynamics_step(RigidBodyState(orientation=(0.0, 0.0, 0.0, 0.0)), ZERO_THRUST, P1, 1e-3,
                      integrator=integrator)


# --- the flat kernel step against the tuple forms it replaced --------------

def _cells(step):
    """The values that a kernel step closes over, by name."""
    return dict(zip(step.__code__.co_freevars, (c.cell_contents for c in step.__closure__)))


def _accel(step):
    """The step's accel as it was written by hand, on the m, weight,
    principal moments i00, i11, i22 and their inverses j00, j11, j22 that
    the flat step closes over: the reference that the step's derivative
    template is pinned to."""
    cells = _cells(step)
    m, weight = cells["m"], cells["weight"]
    i00, i11, i22, j00, j11, j22 = (cells[name] for name in (
        "i00", "i11", "i22", "j00", "j11", "j22"))

    def accel(qw, qx, qy, qz, wx, wy, wz, f_x, f_z, tx, ty, tz):
        """R(q) F / m - g in {W}, F = (f_x, 0, f_z), and I^-1 (tau - omega x I omega) in {B}."""
        xx, yy, zz = qx * qx, qy * qy, qz * qz
        xy, xz, yz, sx, sy, sz = qx * qy, qx * qz, qy * qz, qw * qx, qw * qy, qw * qz
        fx = (1.0 - 2.0 * (yy + zz)) * f_x + 2.0 * (xz + sy) * f_z
        fy = 2.0 * (xy + sz) * f_x + 2.0 * (yz - sx) * f_z
        fz = 2.0 * (xz - sy) * f_x + (1.0 - 2.0 * (xx + yy)) * f_z
        hx, hy, hz = i00 * wx, i11 * wy, i22 * wz  # angular momentum I omega
        rx = tx - (wy * hz - wz * hy)
        ry = ty - (wz * hx - wx * hz)
        rz = tz - (wx * hy - wy * hx)
        return fx / m, fy / m, (fz - weight) / m, j00 * rx, j11 * ry, j22 * rz

    return accel


def _tuple_euler(step):
    """The step's euler as it was written with accel, quat_unit and
    quat_step calls, on the geometry and dt that the flat step closes over."""
    accel, dt = _accel(step), _cells(step)["dt"]

    def euler(p, v, q, omega, rows):
        f_x, f_z, tx, ty1, ty2, ty3, tz = rows
        q = quat_unit(q)
        (px, py, pz), (vx, vy, vz), (wx, wy, wz) = p, v, omega
        ax, ay, az, bx, by, bz = accel(*q, wx, wy, wz, f_x, f_z, tx, ty1 + ty2 + ty3, tz)
        ux, uy, uz = vx + ax * dt, vy + ay * dt, vz + az * dt
        omega = (wx + bx * dt, wy + by * dt, wz + bz * dt)
        return ((px + 0.5 * (vx + ux) * dt, py + 0.5 * (vy + uy) * dt,
                 pz + 0.5 * (vz + uz) * dt), (ux, uy, uz), quat_step(q, omega, dt), omega)

    return euler


def _tuple_rk4(step):
    """The step's rk4 as it was written with accel, deriv, stage and zip
    sums, on the geometry, dt and h that the flat step closes over."""
    cells = _cells(step)
    accel, dt, h = _accel(step), cells["dt"], cells["h"]

    def deriv(y, load):
        _, _, _, wx, wy, wz, qw, qx, qy, qz = y
        return (*accel(qw, qx, qy, qz, wx, wy, wz, *load),
                0.5 * (-qx * wx - qy * wy - qz * wz),
                0.5 * (qw * wx + qy * wz - qz * wy),
                0.5 * (qw * wy - qx * wz + qz * wx),
                0.5 * (qw * wz + qx * wy - qy * wx))

    def stage(y, span, k):
        vx, vy, vz, wx, wy, wz, qw, qx, qy, qz = y
        ax, ay, az, bx, by, bz, dw, dx, dy, dz = k
        return (vx + span * ax, vy + span * ay, vz + span * az,
                wx + span * bx, wy + span * by, wz + span * bz,
                *quat_unit((qw + span * dw, qx + span * dx, qy + span * dy, qz + span * dz)))

    def rk4(p, v, q, omega, rows):
        f_x, f_z, tx, ty1, ty2, ty3, tz = rows
        load = (f_x, f_z, tx, ty1 + ty2 + ty3, tz)
        y1 = (*v, *omega, *quat_unit(q))
        k1 = deriv(y1, load)
        y2 = stage(y1, h, k1)
        k2 = deriv(y2, load)
        y3 = stage(y1, h, k2)
        k3 = deriv(y3, load)
        y4 = stage(y1, dt, k3)
        k4 = deriv(y4, load)
        y = stage(y1, dt, [(a + 2.0 * b + 2.0 * c + d) / 6.0
                           for a, b, c, d in zip(k1, k2, k3, k4)])
        p = tuple(x + dt * ((a + 2.0 * b + 2.0 * c + d) / 6.0)
                  for x, a, b, c, d in zip(p, y1, y2, y3, y4))
        return p, y[0:3], y[6:10], y[3:6]

    return rk4


def _bits(state):
    return struct.pack("<13d", *(x for part in state for x in part))


def _kernels(integrator):
    """Flat steps over three postures, with and without perturbation, at three dts."""
    return [_kernel("step", geometry_from_posture(builtin_posture(name)), pert, dt, integrator)
            for name in ("P1", "P2", "P3") for pert in (None, Perturbation.standard())
            for dt in (2e-4, 1e-3, 2e-3)]


def _check_step(flat, ref, p, v, q, omega, rows):
    """flat's 13 new state floats are ref's bit for bit, or flat raises
    DivergenceError where ref's new state leaves a guard; returns ref's."""
    expected = ref(p, v, q, omega, rows)
    (px, py, pz), _, _, (wx, wy, wz) = expected
    if (math.sqrt(px * px + py * py + pz * pz) <= POSITION_GUARD_M
            and math.sqrt(wx * wx + wy * wy + wz * wz) <= RATE_GUARD_RAD_S):
        x = flat(0.5, *p, *v, *q, *omega, rows)
        assert _bits((x[0:3], x[3:6], x[6:10], x[10:13])) == _bits(expected)
    else:
        with pytest.raises(DivergenceError):
            flat(0.5, *p, *v, *q, *omega, rows)
    return expected


def _step_cases(rng):
    """(case, p, v, q, omega, rows) over random states and loads, signed
    zeros, tiny rates and a NaN in each state or load component."""
    def draw(n, scale):
        return tuple((rng.normal(0.0, 1.0, n) * scale).tolist())

    for case in range(10_000):  # random states and loads over many magnitudes
        scale = 10.0 ** rng.uniform(-6.0, 2.0, 5)
        yield (case, draw(3, scale[0]), draw(3, scale[1]), draw(4, 1.0),
               draw(3, scale[2]), draw(5, scale[3]) + draw(2, scale[4]))
    for case in range(2_000):  # signed zeros, whose signs each operation sets
        zeros = rng.choice([0.0, -0.0], 17).tolist()
        q = list(zeros[6:10])
        q[case % 4] = float(rng.choice([1.0, -1.0]))
        yield (case, tuple(zeros[0:3]), tuple(zeros[3:6]), tuple(q), tuple(zeros[10:13]),
               tuple(zeros[13:17]) + draw(3, rng.choice([0.0, 1.0])))
    for case in range(2_000):  # rates below quat_step's small-angle cutoff, subnormals too
        rates = draw(3, float(rng.choice([1e-13, 1e-300, 5e-324])))
        yield case, draw(3, 1.0), draw(3, 1.0), draw(4, 1.0), rates, draw(7, 50.0)
    for slot in range(20):  # a NaN in any one state or load component
        values = [0.1, -0.2, 0.3, 1.0, 0.5, -0.4, 0.9, 0.1, -0.3, 0.2, 0.7, -1.1, 0.4,
                  40.0, 170.0, 2.0, -1.0, 0.5, -0.25, 0.1]
        values[slot] = math.nan
        yield (slot, tuple(values[0:3]), tuple(values[3:6]), tuple(values[6:10]),
               tuple(values[10:13]), tuple(values[13:20]))


def _check_against_the_tuple_step(integrator, reference, seed):
    pairs = [(step, reference(step)) for step in _kernels(integrator)]
    for case, *state in _step_cases(np.random.default_rng(seed)):
        flat, ref = pairs[case % len(pairs)]
        expected = _check_step(flat, ref, *state)
        if any(math.isnan(x) for part in state for x in part):
            assert any(math.isnan(x) for part in expected for x in part), case


def test_flat_rk4_step_is_the_tuple_step_bit_for_bit():
    _check_against_the_tuple_step("rk4", _tuple_rk4, 19)


def test_flat_euler_step_is_the_tuple_step_bit_for_bit():
    # the written-out quat_unit and quat_step: the new attitude is
    # quat_step(quat_unit(q), omega', dt), and p, v and omega the tuple formulas
    _check_against_the_tuple_step("euler", _tuple_euler, 23)


@pytest.mark.parametrize("integrator, lo, hi", [("rk4", 14.0, 18.0), ("euler", 1.8, 2.3)])
def test_integrator_error_falls_with_the_order_of_the_method(integrator, lo, hi):
    # halving dt divides the global error by 2^order: 16 for rk4, 2 for euler.
    # An open-loop tumble under a fixed P1 wrench, against a run at 1/64 of the
    # finest dt; a wrong stage that both rk4 copies shared would fail this
    def final(dt):
        step = _kernel("step", P1, None, dt, integrator)
        rows = wrench_kernel(P1)(45.0, 45.0, 42.0, 48.0, 0.2, -0.1)
        state = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.5, -0.8)
        for k in range(round(0.4 / dt)):
            state = step((k + 1) * dt, *state, rows)[:13]
        return np.array(state)

    reference = final(5e-4 / 64)
    errors = [np.linalg.norm(final(dt) - reference) for dt in (2e-3, 1e-3, 5e-4)]
    assert lo <= errors[0] / errors[1] <= hi, errors
    assert lo <= errors[1] / errors[2] <= hi, errors


def test_torque_free_rk4_flight_keeps_the_world_angular_momentum():
    # with no torque, R(q) I omega is constant in {W}. A flipped sign of the
    # gyroscopic omega x I omega keeps |I omega| and the energy (the term is
    # orthogonal to I omega either way) but turns this vector: relative drift
    # measured at most 2.2e-12 over these 2 s, and up to 1.57 with the three
    # signs flipped
    step = _kernel("step", P1, None, 1e-3, "rk4")
    rows = (0.0,) * 7
    inertia = np.array(P1.inertia_body)
    state = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.5, -2.0, 3.0)

    def momentum(q, omega):
        return quat_to_matrix(q) @ inertia @ np.array(omega)

    start = momentum(state[6:10], state[10:13])
    drift = 0.0
    for k in range(2000):
        state = step((k + 1) * 1e-3, *state, rows)[:13]
        drift = max(drift, np.linalg.norm(momentum(state[6:10], state[10:13]) - start))
    assert drift / np.linalg.norm(start) < 1e-9


# --- the guards and the readout that end the step ---------------------------

REST = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_step_tracebacks_show_the_raising_line(integrator):
    # the step is compiled from generated source, which linecache holds, so a
    # traceback from inside it prints the line that raised
    step = _kernel("step", P1, None, 1e-3, integrator)
    zero_q = (*REST[0:6], 0.0, 0.0, 0.0, 0.0, *REST[10:13])
    for state, rows, error, line in (
            (zero_q, (0.0,) * 7, ValueError,
             'raise ValueError("cannot normalize a zero quaternion")'),
            (REST, (math.nan,) + (0.0,) * 6, DivergenceError,
             'raise DivergenceError(f"position ({px:.6g}, {py:.6g}, {pz:.6g}) left the "')):
        with pytest.raises(error) as info:
            step(1e-3, *state, rows)
        assert line in "".join(traceback.format_exception(info.value))


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_step_readout_is_the_zyx_split_of_the_rotation_rows(integrator):
    # the step's (roll, pitch, yaw) is zyx_angles of its new q's rotation rows,
    # bit for bit. Zero rows and rate leave q where it was, so the attitudes
    # at, inside and just outside the gimbal-lock margin reach that branch
    rng = np.random.default_rng(16)
    qs = [quat_normalize(rng.normal(size=4)).tolist() for _ in range(20_000)]
    for pitch in (0.5 * math.pi, -0.5 * math.pi, 0.5 * math.pi - 0.5 * GIMBAL_LOCK_MARGIN,
                  -0.5 * math.pi + 2.0 * GIMBAL_LOCK_MARGIN):
        qs += [euler_quat(0.1, pitch, yaw) for yaw in rng.uniform(-3.0, 3.0, 50)]
    step = _kernel("step", P1, None, 1e-3, integrator)
    rows = (0.0,) * 7
    locked = 0
    for q in qs:
        x = step(1e-3, *REST[0:6], *q, *REST[10:13], rows)
        r = quat_rotation_rows(x[6:10])
        roll, pitch, yaw, lock = zyx_angles(r[6], r[7], r[8], r[3], r[0], r[1], r[4])
        assert struct.pack("<3d", *x[13:16]) == struct.pack("<3d", roll, pitch, yaw), q
        locked += lock
    assert 100 <= locked < 200


def test_the_log_and_the_step_read_a_negative_zero_pitch_at_the_identity(tmp_path):
    # R's entry 6 is +0.0 at the identity, so the pitch is asin(-0.0): the
    # takeoff log's first row prints it as -0, and so does a step that stays there
    log = run_scenario(ScenarioConfig(duration_s=0.05))
    log.write_csv(tmp_path / "log.csv")
    header, first = (tmp_path / "log.csv").read_text().splitlines()[:2]
    assert first.split(",")[header.split(",").index("pitch_deg")] == "-0"
    for integrator in ("euler", "rk4"):
        step = _kernel("step", P1, None, 1e-3, integrator)
        x = step(1e-3, *REST, (0.0,) * 7)
        assert x[6:10] == (1.0, 0.0, 0.0, 0.0)
        assert struct.pack("<3d", *x[13:16]) == struct.pack("<3d", 0.0, -0.0, 0.0)


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_step_guard_messages(integrator):
    # the messages that the divergence events carry, naming the step's time
    step = _kernel("step", P1, None, 1e-3, integrator)
    rows = (0.0,) * 7

    def raised(*state, rows=rows):
        with pytest.raises(DivergenceError) as err:
            step(0.501, *state, rows)
        return str(err.value)

    assert raised(99.95, 0.0, 0.0, 60.0, 0.0, 0.0, *REST[6:]) == (
        "position (100.01, 0, -4.905e-06) left the 100.0 m guard at t=0.501 s")
    assert raised(*REST[:12], 101.0) == (
        "body rate (0, 0, 101) exceeded 100.0 rad/s at t=0.501 s")
    nan_thrust = wrench_kernel(P1)(math.nan, 40.0, 40.0, 40.0, 0.0, 0.0)
    assert raised(*REST, rows=nan_thrust) == (
        "position (nan, nan, nan) left the 100.0 m guard at t=0.501 s")
    # euler's new position reads no rate, rk4's later stages do
    assert raised(*REST[:11], math.nan, 0.0) == {
        "euler": "body rate (nan, nan, nan) exceeded 100.0 rad/s at t=0.501 s",
        "rk4": "position (nan, nan, nan) left the 100.0 m guard at t=0.501 s"}[integrator]
    with pytest.raises(ValueError, match="^cannot normalize a zero quaternion$"):
        step(0.501, *REST[:6], 0.0, 0.0, 0.0, 0.0, *REST[10:], rows)


def python_loop(cfg):
    """run_scenario's loop as it was written in Python around wrench_kernel's
    rows and _kernel's step, before run wrote both out: (log rows, events
    without the config)."""
    geo = cfg.geometry()
    trim_state, _ = hover_trim(geo, equal_thrust=True, limits=cfg.limits,
                               foot_pitch_range=cfg.posture.foot_pitch_range)
    trim_angle = trim_state.theta_left
    gains = cfg.gains or tune_gains(
        geo, hover_thrust_per_fan=trim_state.f_left, trim_foot_angle=trim_angle,
        zeta=cfg.zeta, omega_n_pitch=cfg.omega_n_pitch, omega_n_yaw=cfg.omega_n_yaw)
    controller = AttitudeController(gains, cfg.mode, cfg.posture, cfg.limits, trim_angle,
                                    setpoint=cfg.setpoint)
    rng = random.Random(cfg.seed) if cfg.sensor_noise_std > 0.0 else None
    dt = cfg.dt_s
    step = _kernel("step", geo, cfg.perturbation, dt, cfg.integrator)
    wrench = wrench_kernel(geo, cfg.perturbation)
    weight = geo.weight

    px = py = pz = vx = vy = vz = qx = qy = qz = wx = wy = wz = 0.0
    qw = 1.0
    clock = 0.0
    roll, pitch, yaw = 0.0, -0.0, 0.0
    airborne = False
    foot_left = foot_right = trim_angle
    control_every, sample_every = cfg._controller_substeps, cfg._sample_substeps
    foot_step = cfg.limits.foot_pitch_rate_max * dt
    k_f, k_b, k_l, k_r = cfg.perturbation.thrust_scale
    tau = cfg.limits.thrust_time_constant
    target, ramp_time = cfg.ramp.target_per_fan, cfg.ramp.ramp_time

    def schedule(t):  # the ramp from zero, then the hold: the target from ramp_time on
        return target if t >= ramp_time else target * (t / ramp_time)

    if tau == 0.0:
        sched = schedule(0.0)
        f_f, f_b, f_l, f_r = sched * k_f, sched * k_b, sched * k_l, sched * k_r
    else:
        f_f = f_b = f_l = f_r = 0.0
        alpha = 1.0 - math.exp(-dt / tau)
    n_steps = cfg._n_steps
    i_2s = int(round(2.0 / dt)) if cfg.duration_s >= 2.0 else None
    liftoff = altitude = pitch_time = yaw_time = reason = touchdown = None
    termination = "duration"
    max_roll = max_pitch = max_yaw = 0.0
    rows_logged, degrees = [], math.degrees

    for i in range(n_steps + 1):
        t = i * dt
        if i % control_every == 0:
            measured = ((pitch, yaw, wy, wz) if rng is None
                        else _measure(pitch, yaw, wy, wz, cfg, rng))
            cmd_left, cmd_right = controller.step(*measured, control_every * dt)
        rows = wrench(f_f, f_b, f_l, f_r, foot_left, foot_right)
        if not airborne and rows[1] > weight:
            airborne = True
            liftoff = t
        a_roll, a_pitch, a_yaw = abs(roll), abs(pitch), abs(yaw)
        if a_roll > max_roll:
            max_roll = a_roll
        if a_pitch > max_pitch:
            max_pitch = a_pitch
            if pitch_time is None and degrees(a_pitch) >= PITCH_EVENT_DEG:
                pitch_time = t
        if a_yaw > max_yaw:
            max_yaw = a_yaw
            if yaw_time is None and degrees(a_yaw) >= YAW_EVENT_DEG:
                yaw_time = t
        if i == i_2s:
            altitude = pz
        if i % sample_every == 0:
            rows_logged.append((t, px, py, pz, vx, vy, vz, degrees(roll), degrees(pitch),
                                degrees(yaw), wx, wy, wz, degrees(cmd_left), degrees(cmd_right),
                                degrees(foot_left), degrees(foot_right), f_f, f_b, f_l, f_r,
                                PHASE_AIRBORNE if airborne else PHASE_GROUND))
        if i == n_steps:
            break
        if airborne:
            foot_left = min(foot_left + foot_step, max(foot_left - foot_step, cmd_left))
            foot_right = min(foot_right + foot_step, max(foot_right - foot_step, cmd_right))
        sched = schedule(t + dt)
        if tau > 0.0:
            f_f += alpha * (sched * k_f - f_f)
            f_b += alpha * (sched * k_b - f_b)
            f_l += alpha * (sched * k_l - f_l)
            f_r += alpha * (sched * k_r - f_r)
        else:
            f_f, f_b, f_l, f_r = sched * k_f, sched * k_b, sched * k_l, sched * k_r
        if airborne:
            clock += dt
            try:
                (px, py, pz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz,
                 roll, pitch, yaw) = step(clock, px, py, pz, vx, vy, vz, qw, qx, qy, qz,
                                          wx, wy, wz, rows)
            except DivergenceError as err:
                termination, reason = "diverged", str(err)
                break
            if pz < 0.0:
                termination, touchdown = "touchdown", (i + 1) * dt
                break
        else:
            clock = t + dt

    return rows_logged, {
        "liftoff_time_s": liftoff, "never_lifted": liftoff is None,
        "altitude_at_2s_m": altitude, "max_abs_pitch_deg": degrees(max_pitch),
        "max_abs_yaw_deg": degrees(max_yaw), "max_abs_roll_deg": degrees(max_roll),
        f"pitch_exceeds_{PITCH_EVENT_DEG:.0f}deg_time_s": pitch_time,
        f"yaw_exceeds_{YAW_EVENT_DEG:.0f}deg_time_s": yaw_time,
        "diverged": reason is not None, "divergence_reason": reason,
        "termination": termination, "touchdown_time_s": touchdown, "final_time_s": t,
    }


def _exact(values):
    """Floats as their bytes, so that signed zeros and NaNs compare too."""
    return [struct.pack("<d", x) if isinstance(x, float) else x for x in values]


SPIN = Perturbation(foot_axis_misalignment_left=math.radians(10.0),
                    foot_axis_misalignment_right=math.radians(-10.0))


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_compiled_loop_is_the_python_loop_bit_for_bit(integrator):
    # every posture and mode, sensor noise, I gains with a binding ankle slew
    # and ideal fans, a diverging run and a touchdown
    cases = [ScenarioConfig(posture=builtin_posture(name), mode=mode, integrator=integrator,
                            duration_s=2.2)
             for name in ("P1", "P2", "P3") for mode in ControlMode]
    cases += [ScenarioConfig(integrator=integrator, sensor_noise_std=0.005, seed=4,
                             duration_s=2.2),
              ScenarioConfig(gains=ControllerGains(1.0, 0.12, 0.5, 0.06, 2.0, 2.0),
                             limits=FanLimits(foot_pitch_rate_max=0.5, thrust_time_constant=0.0),
                             integrator=integrator, duration_s=2.2),
              ScenarioConfig(mode=ControlMode.PITCH_ONLY, perturbation=SPIN, duration_s=4.0,
                             integrator=integrator),
              ScenarioConfig(mode=ControlMode.ALL_OFF, integrator=integrator)]
    named = len(cases)
    # run leaves out the products by the zero force row and the products of
    # inertia, so add the zeros those products could meet with a sign: no
    # perturbation, and one of signed zeros; a lateral CoM error (a geometry
    # off the plane of symmetry has no trim) on a +-0.0 com_y; and, on P1-P3, the
    # bench's near-limit draws, foot biases of 8.5-10 deg and thrust scales at
    # 0.80-0.84 or 1.16-1.20
    unperturbed = [Perturbation(), Perturbation((-0.0, -0.0, -0.0), -0.0, -0.0)]
    cases += [ScenarioConfig(perturbation=pert, mode=mode, integrator=integrator,
                             duration_s=2.2)
              for pert in unperturbed for mode in (ControlMode.BOTH_ON, ControlMode.ALL_OFF)]
    cases += [ScenarioConfig(com_y=com_y, perturbation=replace(SPIN, com_offset=(0.0, dy, 0.0)),
                             integrator=integrator, duration_s=2.2)
              for com_y, dy in ((0.0, 0.004), (-0.0, -0.003), (-0.0, -0.0))]
    rng = np.random.default_rng(36)
    for name in ("P1", "P2", "P3"):
        for mode in ControlMode:
            signs = rng.choice([-1.0, 1.0], 2)
            left, right = (signs * np.radians(rng.uniform(8.5, 10.0, 2))).tolist()
            scale = [float(rng.choice([rng.uniform(0.80, 0.84), rng.uniform(1.16, 1.20)]))
                     for _ in range(3)] + [float(rng.choice([0.8, 1.2]))]
            pert = Perturbation(tuple(rng.normal([0.010, 0.0, 0.0], 0.005).tolist()), left,
                                right, tuple(scale))
            cases.append(ScenarioConfig(posture=builtin_posture(name), mode=mode,
                                        perturbation=pert, integrator=integrator,
                                        duration_s=2.2))
    drawn = len(cases)
    cases += _loop_edges(integrator)
    ends = []
    for cfg in cases:
        log = run_scenario(cfg)
        rows, events = python_loop(cfg)
        assert [_exact(row) for row in log.rows] == [_exact(row) for row in rows], cfg
        log.events.pop("config")
        assert list(log.events) == list(events)
        assert _exact(log.events.values()) == _exact(events.values()), cfg
        ends.append(events)
    assert ends[named - 4]["termination"] == "duration"
    assert [events["termination"] for events in ends[named - 2:named]] == ["diverged", "touchdown"]
    # the near-limit draws
    assert {"duration", "touchdown"} <= {events["termination"] for events in ends[drawn - 9:drawn]}
    # the edges: liftoff at step 0; a run that never lifts off, whose maxima
    # stay 0.0 and whose altitude at 2 s is the ground's; a run under 2 s
    lifted_at_once, grounded, short = ends[drawn:drawn + 3]
    assert lifted_at_once["liftoff_time_s"] == 0.0
    assert grounded["never_lifted"] and grounded["altitude_at_2s_m"] == 0.0
    assert [grounded[f"max_abs_{axis}_deg"] for axis in ("roll", "pitch", "yaw")] == [0.0] * 3
    assert short["liftoff_time_s"] is not None and short["altitude_at_2s_m"] is None
    assert short["termination"] == "duration"


def _loop_locals(cfg, text):
    """run_scenario(cfg)'s log and the compiled run's locals each time a line
    that reads text starts."""
    filename = _kernel("run", cfg.geometry(), None, cfg.dt_s,
                       cfg.integrator).__code__.co_filename
    lines = {n for n, line in enumerate(linecache.getlines(filename), start=1)
             if line.strip() == text}
    assert len(lines) == 1, text
    seen = []

    def line(frame, event, arg):
        if event == "line" and frame.f_lineno in lines:
            seen.append(dict(frame.f_locals))
        return line

    def calls(frame, event, arg):  # trace the run's frame alone
        return line if frame.f_code.co_filename == filename else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        log = run_scenario(cfg)
    finally:
        sys.settrace(previous)
    return log, seen


def _loop_edges(integrator):
    """Configs that reach the compiled loop's edges, each checked to reach it:
    liftoff at step 0, no liftoff, a run under 2 s; pitch and yaw setpoints
    with I gains and sensor noise in each mode, where the tick integrates on
    the ground; a foot bound by its slew limit on every step aloft; commands
    pinned at the posture's range ends; and the touchdown and the divergence
    that end a run right after a step that sets a new maximum."""
    ideal = FanLimits(thrust_time_constant=0.0)
    cases = [ScenarioConfig(ramp=ThrustRamp(ramp_time=0.0), limits=ideal, integrator=integrator,
                            duration_s=0.6),
             ScenarioConfig(ramp=ThrustRamp(target_per_fan=30.0), integrator=integrator),
             ScenarioConfig(integrator=integrator, duration_s=1.5)]
    leaning = EulerAngles(0.0, 0.05, -0.1)
    cases += [ScenarioConfig(mode=mode, setpoint=leaning, integrator=integrator, duration_s=2.2,
                             gains=ControllerGains(1.0, 0.12, 0.5, 0.06, 2.0, 2.0))
              for mode in ControlMode]
    cases += [ScenarioConfig(mode=mode, sensor_noise_std=0.01, seed=38, integrator=integrator,
                             duration_s=2.2)
              for mode in ControlMode]
    slow = ScenarioConfig(limits=FanLimits(foot_pitch_rate_max=0.05), integrator=integrator,
                          setpoint=EulerAngles(0.0, 0.3, 0.5), duration_s=1.5)
    _, aloft = _loop_locals(slow, "t += dt")
    assert aloft and all(x["theta_l"] is not x["cmd_l"] and x["theta_r"] is not x["cmd_r"]
                         for x in aloft)
    pinned = ScenarioConfig(limits=FanLimits(foot_pitch_rate_max=50.0),
                            setpoint=EulerAngles(0.0, 1.2, 3.0), integrator=integrator,
                            gains=ControllerGains(50.0, 1.0, 50.0, 1.0), duration_s=1.0)
    _, aloft = _loop_locals(pinned, "t += dt")
    assert aloft and all({x["cmd_l"], x["cmd_r"]} == {x["foot_lo"], x["foot_hi"]} for x in aloft)
    # the touchdown's state would set new maxima, and so would the state
    # before the divergence, which the run has already counted
    touchdown = ScenarioConfig(mode=ControlMode.ALL_OFF, integrator=integrator)
    _, (last,) = _loop_locals(touchdown, 'termination, touchdown = "touchdown", (i + 1) * dt')
    assert any(abs(last[axis]) > last[f"max_{axis}"] for axis in ("roll", "pitch", "yaw"))
    climb = Perturbation(foot_axis_misalignment_left=math.radians(1.0),
                         foot_axis_misalignment_right=math.radians(-1.0))
    diverging = ScenarioConfig(perturbation=climb, ramp=ThrustRamp(target_per_fan=70.0),
                               limits=FanLimits(thrust_max_per_fan=80.0), duration_s=8.0,
                               integrator=integrator)
    _, (last,) = _loop_locals(diverging, 'termination, reason = "diverged", str(err)')
    assert abs(last["roll"]) == last["max_roll"] > 0.0
    return cases + [slow, pinned, touchdown, diverging]


def _held(events):
    """Criterion 5's bands: lifted, 1 m up by 2 s, |pitch| <= 10 deg, |yaw| <= 20 deg."""
    return (events["liftoff_time_s"] is not None and events["altitude_at_2s_m"] is not None
            and events["altitude_at_2s_m"] >= 1.0 and events["max_abs_pitch_deg"] <= 10.0
            and events["max_abs_yaw_deg"] <= 20.0)


def test_the_loops_hold_the_robot_over_drawn_perturbations():
    # the paper's claim over a region, not Perturbation.standard() alone: six
    # seeded draws on each axis that the pitch and yaw loops reject, the other
    # axes at standard: CoM x in +-20 mm, each foot misalignment in +-5 deg,
    # the front and back thrust scales in [0.95, 1.05]. Both-on holds
    # criterion 5's bands in every draw. All-off dives out of the 10 deg pitch
    # band in every draw, within 2 s of liftoff (21.6 deg at the least of these
    # draws); it often rolls over and touches down before its pitch reaches
    # criterion 6's 30 deg, so the dive is not read from that band.
    # Pitch-only spins as criterion 6 says, yaw past 40 deg within 2 s of
    # liftoff, wherever the foot biases differ by 0.3 deg or more: only a
    # left/right difference makes the yaw couple (0.1 deg of difference
    # spins it to 30 deg, 0.05 deg to 15 deg)
    rng = np.random.default_rng(2108)
    standard = Perturbation.standard()
    draws = []
    for _ in range(6):
        left, right = np.radians(rng.uniform(-5.0, 5.0, 2)).tolist()
        draws += [replace(standard, com_offset=(rng.uniform(-0.02, 0.02), 0.0, 0.0)),
                  replace(standard, foot_axis_misalignment_left=left,
                          foot_axis_misalignment_right=right),
                  replace(standard, thrust_scale=(*rng.uniform(0.95, 1.05, 2).tolist(),
                                                  1.0, 1.0))]
    for pert in draws:
        on, pitch_only, off = (run_scenario(ScenarioConfig(mode=mode, perturbation=pert)).events
                               for mode in ControlMode)  # both-on, pitch-only, all-off
        assert _held(on), pert
        assert off["max_abs_pitch_deg"] > 10.0, pert  # so criterion 5 fails on its pitch band
        assert off["final_time_s"] <= off["liftoff_time_s"] + 2.0, pert
        couple = abs(pert.foot_axis_misalignment_left - pert.foot_axis_misalignment_right)
        if couple >= math.radians(0.3):
            spin = pitch_only["yaw_exceeds_40deg_time_s"]
            assert spin is not None and spin <= pitch_only["liftoff_time_s"] + 2.0, pert


def _lateral(com_y=0.0, left=1.0, right=1.0):
    standard = Perturbation.standard()
    return replace(standard, com_offset=(standard.com_offset[0], com_y, standard.com_offset[2]),
                   thrust_scale=(1.0, 1.0, left, right))


@pytest.mark.parametrize("holds, fails", [
    (_lateral(com_y=0.81e-3), _lateral(com_y=0.83e-3)),
    (_lateral(com_y=-0.87e-3), _lateral(com_y=-0.89e-3)),
    (_lateral(left=1.0139, right=0.9861), _lateral(left=1.0141, right=0.9859)),
    (_lateral(left=0.9870, right=1.0130), _lateral(left=0.9868, right=1.0132)),
], ids=["com-y-positive", "com-y-negative", "left-over-right", "right-over-left"])
def test_the_lateral_edges_where_both_on_stops_holding(holds, fails):
    # no loop acts on roll, so a lateral moment rolls the robot over: both-on
    # meets criterion 5's bands just inside each edge that README states (the
    # 1 m altitude by 2 s with 5-8 mm to spare) and fails 0.02 mm or 0.02% past
    # it (3-6 mm short). Altitude is the band that breaks: pitch stays near 3.2
    # deg and yaw below 4.2 deg, while the robot has rolled past 80 deg
    inside, past = (run_scenario(ScenarioConfig(perturbation=p)).events for p in (holds, fails))
    assert _held(inside)
    assert not _held(past)
    assert past["liftoff_time_s"] is not None and past["altitude_at_2s_m"] < 1.0
    assert past["max_abs_pitch_deg"] <= 10.0 and past["max_abs_yaw_deg"] <= 20.0
    assert inside["max_abs_roll_deg"] > 80.0 and past["max_abs_roll_deg"] > 80.0
