"""Hover trim solver against the closed-form scan oracle."""

import math
import random

import pytest

from tvcsim.oracles import trim_scan
from tvcsim.robot import FanLimits, Posture, builtin_posture, geometry_from_posture
from tvcsim.trim import NoTrimError, hover_trim
from tvcsim.wrench import total_wrench


def residual_norm(fs, geo, theta_pitch):
    w = total_wrench(fs, geo, theta_pitch)
    return math.sqrt(float(w.force_world @ w.force_world)
                     + float(w.torque_world @ w.torque_world))


def test_symmetric_trim_is_exact():
    posture = Posture("SYM", (0.0, -0.25), (0.0, -0.61), (-74.0, 90.0))
    geo = geometry_from_posture(posture)
    fs, theta_pitch = hover_trim(geo)
    assert theta_pitch == 0.0
    assert math.copysign(1.0, theta_pitch) == 1.0  # +0.0: `trim` prints 0.000000, not -0.000000
    assert fs.theta_left == 0.0 and fs.theta_right == 0.0
    assert fs.f_front == geo.weight / 4.0
    assert residual_norm(fs, geo, theta_pitch) == 0.0


@pytest.mark.parametrize("name", ["P1", "P2", "P3"])
def test_builtin_postures_trim(name):
    geo = geometry_from_posture(builtin_posture(name))
    fs, theta_pitch = hover_trim(geo)
    assert residual_norm(fs, geo, theta_pitch) < 1e-9
    # equal thrusts, equal angles by construction
    assert fs.f_front == fs.f_back == fs.f_left == fs.f_right
    assert fs.theta_left == fs.theta_right
    # feet tip forward to cancel the forward CoM offset, body leans back
    assert fs.theta_left > 0.0
    assert theta_pitch < 0.0


def random_geometry(seed):
    # trim angles well inside the oracle's +-45 deg scan and within the 50 N cap
    rng = random.Random(seed)
    posture = Posture(f"R{seed}", (rng.uniform(-0.06, 0.06), rng.uniform(-0.3, -0.2)),
                      (rng.uniform(-0.06, 0.08), rng.uniform(-0.7, -0.55)), (-90.0, 90.0))
    return geometry_from_posture(posture, mass_total=rng.uniform(12.0, 18.0),
                                 fan_spacing_waist=rng.uniform(0.2, 0.4))


@pytest.mark.parametrize("name", ["P1", "P2", "P3", *(f"random{k}" for k in range(8))])
def test_trim_matches_scan_oracle(name):
    if name.startswith("random"):
        geo = random_geometry(int(name.removeprefix("random")))
    else:
        geo = geometry_from_posture(builtin_posture(name))
    fs, theta_pitch = hover_trim(geo)
    f_ref, theta_ref, pitch_ref = trim_scan(geo)
    assert fs.theta_left == pytest.approx(theta_ref, abs=math.radians(0.01))
    assert theta_pitch == pytest.approx(pitch_ref, abs=math.radians(0.01))
    assert fs.f_left == pytest.approx(f_ref, abs=0.01)
    # the body leans back exactly half the foot angle
    assert theta_pitch == pytest.approx(-0.5 * fs.theta_left, abs=1e-9)


def test_trim_p1_frozen_values():
    # frozen from the scan oracle at 0.01 deg resolution
    geo = geometry_from_posture(builtin_posture("P1"))
    fs, theta_pitch = hover_trim(geo)
    assert math.degrees(fs.theta_left) == pytest.approx(4.6862, abs=0.01)
    assert math.degrees(theta_pitch) == pytest.approx(-2.3431, abs=0.01)
    assert fs.f_left == pytest.approx(41.7274, abs=0.001)


def test_trim_without_a_root_is_infeasible():
    # the CoM sits 0.3 m ahead, the feet only 1 mm below it: no foot angle
    # makes an arm long enough to cancel the pitch torque
    posture = Posture("NOROOT", (0.3, -0.243), (0.3, -0.244), (-74.0, 90.0))
    geo = geometry_from_posture(posture)
    with pytest.raises(NoTrimError, match="has no root"):
        hover_trim(geo)


def test_overweight_robot_has_no_trim():
    geo = geometry_from_posture(builtin_posture("P1"), mass_total=25.0)
    with pytest.raises(NoTrimError):
        hover_trim(geo, limits=FanLimits(thrust_max_per_fan=50.0))


def test_waist_differential_trim():
    geo = geometry_from_posture(builtin_posture("P1"))
    fs, theta_pitch = hover_trim(geo, equal_thrust=False)
    assert theta_pitch == 0.0
    assert fs.theta_left == 0.0 and fs.theta_right == 0.0
    assert residual_norm(fs, geo, theta_pitch) < 1e-9
    # forward CoM: the front fan sits on the shorter arm and carries more
    assert fs.f_front > fs.f_back


def test_waist_differential_trim_without_a_waist_arm():
    # a 1e-12 m waist spacing leaves the torque row parallel to the weight row
    # in floating point: the CoM ahead of the feet cannot be balanced
    posture = Posture("NOARM", (0.1, -0.243), (0.0, -0.61), (-74.0, 90.0))
    geo = geometry_from_posture(posture, fan_spacing_waist=1e-12)
    with pytest.raises(NoTrimError, match="rows are parallel"):
        hover_trim(geo, equal_thrust=False)


def test_trim_respects_thrust_limits():
    geo = geometry_from_posture(builtin_posture("P1"))
    with pytest.raises(NoTrimError):
        hover_trim(geo, limits=FanLimits(thrust_max_per_fan=41.0))
    # the allowance scales with the weight, not with the cap: a 1e308 N cap
    # forgives no floor above the trim's 41.7 N
    with pytest.raises(NoTrimError, match="outside"):
        hover_trim(geo, limits=FanLimits(thrust_max_per_fan=1e308, thrust_min=45.0))
