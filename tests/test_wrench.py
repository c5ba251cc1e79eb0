"""Force/torque model contracts and oracle equivalence."""

import math

import numpy as np
import pytest

from tvcsim.oracles import wrench_brute_force
from tvcsim.robot import GRAVITY, Posture, builtin_posture, geometry_from_posture
from tvcsim.sim import Perturbation
from tvcsim.spatial import quat_from_pitch, quat_normalize
from tvcsim.wrench import FanState, generalized_wrench_3d, total_wrench

P1 = geometry_from_posture(builtin_posture("P1"))
HOVER_THRUST = 17.0 * GRAVITY / 4.0  # 41.6925 N


def symmetric_geometry():
    posture = Posture("SYM", com_sagittal=(0.0, -0.243), foot_fan=(0.0, -0.610),
                      foot_pitch_range_deg=(-74.0, 90.0))
    return geometry_from_posture(posture)


def random_fan_state(rng):
    thrusts = rng.uniform(0.0, 50.0, 4)
    angles = rng.uniform(math.radians(-74.0), math.radians(90.0), 2)
    return FanState(*thrusts, *angles)


def test_hover_balance_zero_force():
    geo = symmetric_geometry()
    fs = FanState.uniform(HOVER_THRUST)
    np.testing.assert_allclose(total_wrench(fs, geo, 0.0).force_world, np.zeros(3), atol=1e-12)


def test_full_thrust_net_lift():
    fs = FanState.uniform(50.0)
    f = total_wrench(fs, P1, 0.0).force_world
    np.testing.assert_allclose(f, [0.0, 0.0, 200.0 - 17.0 * GRAVITY], atol=1e-12)


def test_horizontal_feet_give_no_lift():
    fs = FanState(0.0, 0.0, 50.0, 50.0, math.pi / 2.0, math.pi / 2.0)
    f = total_wrench(fs, P1, 0.0).force_world
    np.testing.assert_allclose(f, [100.0, 0.0, -17.0 * GRAVITY], atol=1e-12)


def test_waist_pair_torque_independent_of_spacing():
    fs = FanState(50.0, 50.0, 0.0, 0.0)
    for spacing in (0.2, 0.3, 0.5):
        geo = geometry_from_posture(builtin_posture("P1"), fan_spacing_waist=spacing)
        t_y1 = total_wrench(fs, geo, 0.0).t_y1
        assert t_y1 == pytest.approx(2.0 * 50.0 * 0.025, abs=1e-12)


def test_foot_tilt_torque_hand_value():
    # two feet at 40 N tilted 10 deg on the 0.367 m arm
    fs = FanState(0.0, 0.0, 40.0, 40.0, math.radians(10.0), math.radians(10.0))
    t_y3 = total_wrench(fs, P1, 0.0).t_y3
    assert t_y3 == pytest.approx(-80.0 * math.sin(math.radians(10.0)) * 0.367, abs=1e-12)
    assert t_y3 == pytest.approx(-5.0983, abs=5e-4)


def test_zero_lever_arm_kills_ty2():
    posture = Posture("Z", com_sagittal=(0.02, -0.25), foot_fan=(0.02, -0.6),
                      foot_pitch_range_deg=(-74.0, 90.0))
    geo = geometry_from_posture(posture)
    fs = FanState(0.0, 0.0, 37.0, 12.0, 0.0, 0.0)
    t_y2 = total_wrench(fs, geo, 0.0).t_y2
    assert t_y2 == 0.0


def test_symmetric_state_zero_roll_yaw():
    geo = symmetric_geometry()
    fs = FanState.uniform(30.0, math.radians(15.0))
    w = total_wrench(fs, geo, 0.1)
    assert w.torque_world[0] == 0.0
    assert w.torque_world[2] == 0.0


def test_opposed_foot_angles_yaw_torque():
    fs = FanState(0.0, 0.0, 40.0, 40.0, math.radians(10.0), math.radians(-10.0))
    w = total_wrench(fs, P1, 0.0)
    expected = 0.5 * 0.25 * (40.0 * math.sin(math.radians(-10.0))
                             - 40.0 * math.sin(math.radians(10.0)))
    assert w.torque_world[2] == pytest.approx(expected, abs=1e-12)
    assert w.torque_world[2] == pytest.approx(-1.7365, abs=5e-4)


def test_single_foot_within_ankle_budget():
    # one foot at full thrust, 30 deg: the vectoring torque stays inside the
    # 24 N*m the ankle drivetrain was sized for
    fs = FanState(0.0, 0.0, 50.0, 0.0, math.radians(30.0), 0.0)
    t_y3 = total_wrench(fs, P1, 0.0).t_y3
    assert abs(t_y3) == pytest.approx(50.0 * 0.5 * 0.367, abs=1e-12)
    assert abs(t_y3) <= 24.0


def test_vertical_force_linear_in_thrusts():
    # finite differences of the z row: slope 1 for waist fans, cos(theta) for feet
    theta = math.radians(25.0)
    base = FanState(10.0, 12.0, 14.0, 16.0, theta, theta)
    def f_z(fs):
        return total_wrench(fs, P1, 0.0).force_world[2]

    f0 = f_z(base)
    step = 1.0
    waist = FanState(11.0, 12.0, 14.0, 16.0, theta, theta)
    assert f_z(waist) - f0 == pytest.approx(step, abs=1e-12)
    foot = FanState(10.0, 12.0, 15.0, 16.0, theta, theta)
    assert f_z(foot) - f0 == pytest.approx(step * math.cos(theta), abs=1e-12)


def test_ty3_sensitivity_to_com_height():
    # d t_y3 / d z_c = -(f_L sin th_L + f_R sin th_R)
    fs = FanState(0.0, 0.0, 20.0, 30.0, math.radians(12.0), math.radians(-5.0))
    h = 1e-6
    geo_hi = geometry_from_posture(
        Posture("A", (0.025, -0.243 + h), (0.020, -0.610), (-74.0, 90.0)))
    geo_lo = geometry_from_posture(
        Posture("B", (0.025, -0.243 - h), (0.020, -0.610), (-74.0, 90.0)))
    slope = (total_wrench(fs, geo_hi, 0.0).t_y3 - total_wrench(fs, geo_lo, 0.0).t_y3) / (2 * h)
    expected = -(20.0 * math.sin(math.radians(12.0)) + 30.0 * math.sin(math.radians(-5.0)))
    assert slope == pytest.approx(expected, rel=1e-6)


def test_wrench_homogeneous_in_thrust():
    rng = np.random.default_rng(5)
    for _ in range(50):
        fs = random_fan_state(rng)
        k = rng.uniform(0.1, 2.0)
        scaled = FanState(k * fs.f_front, k * fs.f_back, k * fs.f_left, k * fs.f_right,
                          fs.theta_left, fs.theta_right)
        theta_pitch = rng.uniform(-1.0, 1.0)
        w1 = total_wrench(fs, P1, theta_pitch)
        w2 = total_wrench(scaled, P1, theta_pitch)
        gravity = np.array([0.0, 0.0, P1.mass_total * GRAVITY])
        np.testing.assert_allclose(w2.force_world + gravity,
                                   k * (w1.force_world + gravity), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(w2.torque_world, k * w1.torque_world,
                                   rtol=1e-12, atol=1e-12)


def test_generalized_reduces_to_pitch_only():
    rng = np.random.default_rng(6)
    for _ in range(200):
        fs = random_fan_state(rng)
        theta = rng.uniform(-1.2, 1.2)
        w_pitch = total_wrench(fs, P1, theta)
        w_full = generalized_wrench_3d(fs, P1, quat_from_pitch(theta))
        np.testing.assert_allclose(w_full.force_world, w_pitch.force_world,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(w_full.torque_world, w_pitch.torque_world,
                                   rtol=1e-12, atol=1e-12)
        assert w_full.t_y1 == pytest.approx(w_pitch.t_y1, abs=1e-12)
        assert w_full.t_y2 == pytest.approx(w_pitch.t_y2, abs=1e-12)
        assert w_full.t_y3 == pytest.approx(w_pitch.t_y3, abs=1e-12)


def test_generalized_identity_hover_zero():
    geo = symmetric_geometry()
    w = generalized_wrench_3d(FanState.uniform(HOVER_THRUST), geo,
                              np.array([1.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(w.force_world, np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(w.torque_world, np.zeros(3), atol=1e-12)


def test_generalized_matches_brute_force():
    rng = np.random.default_rng(42)
    geos = [geometry_from_posture(builtin_posture(n)) for n in ("P1", "P2", "P3")]
    # an off-center CoM puts its y arm into the roll and yaw rows
    geos.append(geometry_from_posture(builtin_posture("P2"), com_y=0.02))
    for i in range(1000):
        geo = geos[i % len(geos)]
        fs = random_fan_state(rng)
        q = quat_normalize(rng.normal(size=4))
        w = generalized_wrench_3d(fs, geo, q)
        f_ref, t_ref = wrench_brute_force(fs, geo, q)
        np.testing.assert_allclose(w.force_world, f_ref, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(w.torque_world, t_ref, rtol=1e-9, atol=1e-12)


def test_torque_decomposition_sums_to_body_pitch_torque():
    rng = np.random.default_rng(43)
    for _ in range(100):
        fs = random_fan_state(rng)
        w = total_wrench(fs, P1, 0.0)
        assert w.torque_world[1] == pytest.approx(w.t_y1 + w.t_y2 + w.t_y3, abs=1e-12)


def test_perturbed_wrench_matches_brute_force():
    rng = np.random.default_rng(44)
    pert = Perturbation(
        com_offset=np.array([0.01, -0.002, 0.004]),
        foot_axis_misalignment_left=math.radians(2.0),
        foot_axis_misalignment_right=math.radians(-2.0),
    )
    for _ in range(200):
        fs = random_fan_state(rng)
        q = quat_normalize(rng.normal(size=4))
        w = generalized_wrench_3d(fs, P1, q, pert)
        f_ref, t_ref = wrench_brute_force(fs, P1, q, pert)
        np.testing.assert_allclose(w.force_world, f_ref, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(w.torque_world, t_ref, rtol=1e-9, atol=1e-12)


def test_misalignment_couple_produces_yaw_torque():
    # opposite per-foot axis biases turn equal commands into a yaw moment
    pert = Perturbation(foot_axis_misalignment_left=math.radians(2.0),
                        foot_axis_misalignment_right=math.radians(-2.0))
    fs = FanState(48.0, 48.0, 48.0, 48.0, math.radians(5.0), math.radians(5.0))
    w = generalized_wrench_3d(fs, P1, np.array([1.0, 0.0, 0.0, 0.0]), pert)
    clean = generalized_wrench_3d(fs, P1, np.array([1.0, 0.0, 0.0, 0.0]))
    assert abs(clean.torque_world[2]) < 1e-12
    assert abs(w.torque_world[2]) > 0.1


def test_negative_thrust_rejected():
    with pytest.raises(ValueError):
        FanState(-1.0, 0.0, 0.0, 0.0)


def test_fan_state_stores_floats_and_its_wrench_is_the_float_ones_bits():
    # numpy scalars (as rng.uniform gives them) and ints are stored as floats,
    # and their wrench is the plain-float state's, bit for bit
    rng = np.random.default_rng(7)
    thrusts, angles = rng.uniform(0.0, 50.0, 4), rng.uniform(-1.2, 1.5, 2)
    q = quat_normalize(rng.normal(size=4))
    for given, floats in (((*thrusts, *angles), (*thrusts.tolist(), *angles.tolist())),
                          ((40, 35, 0, 12, 1, 0), (40.0, 35.0, 0.0, 12.0, 1.0, 0.0))):
        fs = FanState(*given)
        assert all(type(getattr(fs, name)) is float for name in
                   ("f_front", "f_back", "f_left", "f_right", "theta_left", "theta_right"))
        for pert in (None, Perturbation.standard()):
            w, ref = (generalized_wrench_3d(state, P1, q, pert)
                      for state in (fs, FanState(*floats)))
            assert w == ref and w.world == ref.world
            assert all(type(x) is float for x in w.world + w.force_body + w.torque_body)
            assert w.force_world.tobytes() == ref.force_world.tobytes()
            assert w.torque_world.tobytes() == ref.torque_world.tobytes()
    with pytest.raises(ValueError, match=r"^f_right must be >= 0, got -3$"):
        FanState(1, 2, 3, -3)  # the message shows the value as given


def test_zero_quaternion_raises_at_the_call():
    fs = FanState.uniform(HOVER_THRUST)
    for q in ((0.0, 0.0, 0.0, 0.0), np.zeros(4)):
        with pytest.raises(ValueError, match=r"^cannot normalize a zero quaternion$"):
            generalized_wrench_3d(fs, P1, q)
        # the oracle and the array normalizer refuse it alike
        with pytest.raises(ValueError, match=r"^cannot normalize a zero quaternion$"):
            wrench_brute_force(fs, P1, q)
        with pytest.raises(ValueError, match=r"^cannot normalize a zero quaternion$"):
            quat_normalize(q)
