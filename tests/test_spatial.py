"""Rotation and quaternion kinematics contracts."""

import math

import numpy as np
import pytest

from tvcsim.spatial import (
    GIMBAL_LOCK_MARGIN,
    WRAP,
    EulerAngles,
    quat_from_pitch,
    quat_identity,
    quat_integrate,
    quat_normalize,
    quat_rotation_rows,
    quat_step,
    quat_to_euler,
    quat_to_matrix,
    zyx_angles,
)


def rot_y(theta):
    """The pitch rotation matrix, built the way the wrench kernel builds it."""
    return quat_to_matrix(quat_from_pitch(theta))


def random_quat(rng):
    q = rng.normal(size=4)
    return quat_normalize(q)


def quat_product(q1, q2):
    """Hamilton product q1 * q2, the composition of rotations."""
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def axis_angle_quat(axis, angle):
    """Rotation by angle about the unit axis."""
    s = math.sin(0.5 * angle)
    return (math.cos(0.5 * angle), axis[0] * s, axis[1] * s, axis[2] * s)


def euler_quat(e):
    """Z-Y-X intrinsic composition: q = qz(yaw) * qy(pitch) * qx(roll)."""
    return quat_product(quat_product(axis_angle_quat((0.0, 0.0, 1.0), e.yaw),
                                     axis_angle_quat((0.0, 1.0, 0.0), e.pitch)),
                        axis_angle_quat((1.0, 0.0, 0.0), e.roll))


def test_rot_y_identity():
    np.testing.assert_allclose(rot_y(0.0), np.eye(3), atol=0.0)


def test_rot_y_quarter_turn_maps_z_to_x():
    v = rot_y(math.pi / 2.0) @ np.array([0.0, 0.0, 1.0])
    np.testing.assert_allclose(v, [1.0, 0.0, 0.0], atol=1e-12)


def test_rot_y_inverse_composition():
    np.testing.assert_allclose(rot_y(0.3) @ rot_y(-0.3), np.eye(3), atol=1e-12)


def test_rot_y_additivity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b = rng.uniform(-math.pi, math.pi, 2)
        np.testing.assert_allclose(rot_y(a) @ rot_y(b), rot_y(a + b), atol=1e-12)


def test_rot_y_is_rotation():
    rng = np.random.default_rng(8)
    for theta in rng.uniform(-10.0, 10.0, 100):
        r = rot_y(theta)
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-9)
        assert abs(np.linalg.det(r) - 1.0) <= 1e-9


def test_positive_pitch_tips_nose_down():
    # body x-axis in world coordinates drops below the horizon
    nose = rot_y(0.2) @ np.array([1.0, 0.0, 0.0])
    assert nose[2] < 0.0


def test_quat_integrate_zero_rate():
    q = quat_integrate(quat_identity(), np.zeros(3), 1e-3)
    np.testing.assert_allclose(q, quat_identity(), atol=1e-15)


def test_quat_integrate_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        quat_integrate(quat_identity(), np.zeros(3), 0.0)


def test_quat_integrate_rejects_a_nan_dt():
    # a NaN passed "dt <= 0.0" and gave a NaN quaternion
    with pytest.raises(ValueError, match="^dt must be positive, got nan$"):
        quat_integrate(quat_identity(), np.array([0.1, 0.2, -0.3]), math.nan)


def test_quat_integrate_pi_about_y_in_substeps():
    # oracle: the closed-form rotation by pi about y
    q = quat_identity()
    omega = np.array([0.0, math.pi, 0.0])
    for _ in range(1000):
        q = quat_integrate(q, omega, 1.0 / 1000.0)
    expected = quat_from_pitch(math.pi)
    err = min(np.abs(q - expected).max(), np.abs(q + expected).max())
    assert err < 1e-4


def test_quat_integrate_matches_matrix_composition():
    # piecewise-constant omega: the step is the exact exponential map, so the
    # rotation matrices must agree to rounding, not just O(dt^2)
    rng = np.random.default_rng(3)
    q = random_quat(rng)
    r = quat_to_matrix(q)
    for _ in range(50):
        omega = rng.uniform(-5.0, 5.0, 3)
        dt = rng.uniform(1e-4, 2e-3)
        q = quat_integrate(q, omega, dt)
        angle = np.linalg.norm(omega) * dt
        axis = omega / np.linalg.norm(omega)
        r = r @ quat_to_matrix(axis_angle_quat(axis, angle))
    np.testing.assert_allclose(quat_to_matrix(q), r, atol=1e-12)


def test_quat_step_norm_contract():
    # renormalization contract over a million random inputs, each off the
    # unit norm by up to 1e-6 so that a step without it fails the bound
    rng = np.random.default_rng(11)
    qs = rng.normal(size=(1_000_000, 4))
    qs /= np.linalg.norm(qs, axis=1, keepdims=True)
    omegas = rng.uniform(-20.0, 20.0, size=(1_000_000, 3))
    dts = rng.uniform(1e-5, 2e-3, size=1_000_000)
    qs *= rng.uniform(1.0 - 1e-6, 1.0 + 1e-6, size=(1_000_000, 1))
    worst = 0.0
    # on quat_step, the reference that tests/test_sim.py's _tuple_euler pins the
    # takeoff step's euler branch to, bit for bit
    for q, omega, dt in zip(qs.tolist(), omegas.tolist(), dts.tolist()):
        w, x, y, z = quat_step(q, omega, dt)
        worst = max(worst, abs(math.sqrt(w * w + x * x + y * y + z * z) - 1.0))
    assert worst < 1e-12


def bits(values):
    """The exact floats, signed zeros apart; a flag stays as it is."""
    return [v.hex() if isinstance(v, float) else v for v in values]


def test_quat_step_is_the_product_with_the_increment_renormalized():
    # the exponential-map increment, composed by the product and renormalized,
    # written out here apart from quat_step; the pair must agree bit for bit
    rng = np.random.default_rng(15)
    for i in range(5_000):
        q = random_quat(rng).tolist()
        omega = rng.uniform(-20.0, 20.0, 3).tolist() if i % 10 else [1e-10, -2e-10, 0.0]
        dt = float(rng.uniform(1e-5, 2e-3))
        wx, wy, wz = (omega[0] * dt, omega[1] * dt, omega[2] * dt)
        angle = math.sqrt(wx * wx + wy * wy + wz * wz)
        if angle < 1e-12:
            dq = (1.0, 0.5 * wx, 0.5 * wy, 0.5 * wz)
        else:
            s = math.sin(0.5 * angle) / angle
            dq = (math.cos(0.5 * angle), wx * s, wy * s, wz * s)
        w, x, y, z = quat_product(q, dq)
        n = math.sqrt(w * w + x * x + y * y + z * z)
        assert bits(quat_step(q, omega, dt)) == bits((w / n, x / n, y / n, z / n))


def zyx_from_rows(q):
    """The Z-Y-X split of quat_rotation_rows(q), as a float tuple like zyx_angles."""
    r = quat_rotation_rows(q)
    pitch = math.asin(min(1.0, max(-1.0, -r[6])))
    if abs(pitch) > 0.5 * math.pi - GIMBAL_LOCK_MARGIN:
        return (0.0, pitch, math.atan2(-r[1], r[4]), True)
    return (math.atan2(r[7], r[8]), pitch, math.atan2(r[3], r[0]), False)


def test_quat_to_euler_is_the_zyx_split_of_the_rotation_rows():
    # the array helper splits the normalized quaternion as zyx_angles does,
    # the gimbal-lock branch included (sim's step readout is pinned to
    # zyx_angles in tests/test_sim.py)
    rng = np.random.default_rng(16)
    qs = list(rng.normal(size=(100, 4)))
    qs += [euler_quat(EulerAngles(0.1, pitch, 0.4)) for pitch in (
        0.5 * math.pi, -0.5 * math.pi, 0.5 * math.pi - 0.5 * GIMBAL_LOCK_MARGIN)]
    locked = 0
    for q in qs:
        e = quat_to_euler(q)
        assert bits((e.roll, e.pitch, e.yaw, e.gimbal_lock)) == bits(
            zyx_from_rows(quat_normalize(q).tolist()))
        locked += e.gimbal_lock
    assert locked == 3


def test_quat_to_euler_identity():
    e = quat_to_euler(quat_identity())
    assert (e.roll, e.pitch, e.yaw) == (0.0, 0.0, 0.0)
    assert not e.gimbal_lock


def test_quat_to_euler_pure_pitch():
    e = quat_to_euler(quat_from_pitch(0.2))
    assert abs(e.pitch - 0.2) < 1e-12
    assert abs(e.roll) < 1e-12 and abs(e.yaw) < 1e-12


def test_quat_from_pitch_matches_rot_y():
    for theta in (-1.2, -0.3, 0.0, 0.4, 1.5):
        c, s = math.cos(theta), math.sin(theta)
        np.testing.assert_allclose(quat_to_matrix(quat_from_pitch(theta)),
                                   [[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]], atol=1e-15)


def test_euler_round_trip_property():
    # quat -> euler -> quat round-trips away from gimbal lock, on the float
    # route: zyx_angles of the quat_rotation_rows entries. The draws are
    # random_quat's, one normal quadruple per quaternion, taken in one batch
    rng = np.random.default_rng(12)
    draws = iter(rng.normal(size=(110_000, 4)).tolist())
    checked = 0
    while checked < 100_000:
        w, x, y, z = next(draws)
        n = math.sqrt(w * w + x * x + y * y + z * z)
        q = (w / n, x / n, y / n, z / n)
        r = quat_rotation_rows(q)
        roll, pitch, yaw, _ = zyx_angles(r[6], r[7], r[8], r[3], r[0], r[1], r[4])
        if abs(pitch) > 0.5 * math.pi - 1e-2:
            continue
        q2 = euler_quat(EulerAngles(roll, pitch, yaw))
        err = min(max(abs(a - b) for a, b in zip(q, q2)),
                  max(abs(a + b) for a, b in zip(q, q2)))
        assert err < 1e-9
        checked += 1


def test_euler_ranges():
    rng = np.random.default_rng(13)
    for _ in range(5000):
        e = quat_to_euler(random_quat(rng))
        assert -math.pi / 2.0 <= e.pitch <= math.pi / 2.0
        assert -math.pi <= e.roll <= math.pi
        assert -math.pi <= e.yaw <= math.pi


def test_gimbal_lock_flagged():
    e = quat_to_euler(quat_from_pitch(math.pi / 2.0))
    assert e.gimbal_lock


def test_quat_multiply_composition():
    # the Hamilton product composes rotations: R(q1 * q2) = R(q1) R(q2)
    rng = np.random.default_rng(14)
    for _ in range(100):
        q1, q2 = random_quat(rng), random_quat(rng)
        np.testing.assert_allclose(
            quat_to_matrix(quat_product(q1, q2)),
            quat_to_matrix(q1) @ quat_to_matrix(q2),
            atol=1e-12,
        )


def wrap_angle(a):
    """spatial.WRAP, the source controller.TICK writes out, run on a."""
    scope = {"math": math, "a": a}
    exec(WRAP.format(w="a"), scope)
    return scope["a"]


def test_wrap_angle():
    assert abs(wrap_angle(3.0 * math.pi) - math.pi) < 1e-12
    assert abs(wrap_angle(-3.5 * math.pi) - 0.5 * math.pi) < 1e-12
    assert wrap_angle(0.3) == pytest.approx(0.3, abs=1e-15)
