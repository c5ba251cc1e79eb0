"""Posture tables, geometry construction, and actuator limit contracts."""

import math
from dataclasses import replace

import numpy as np
import pytest

from tvcsim.robot import (
    GRAVITY,
    FanLimits,
    Posture,
    RobotGeometry,
    UnknownPostureError,
    builtin_posture,
    geometry_from_posture,
    point_mass_inertia,
)


def test_builtin_posture_values():
    p1 = builtin_posture("P1")
    assert p1.com_sagittal == (0.025, -0.243)
    assert p1.foot_fan == (0.020, -0.610)
    assert p1.foot_pitch_range_deg == (-74.0, 90.0)

    p2 = builtin_posture("P2")
    assert p2.com_sagittal == (0.020, -0.265)
    assert p2.foot_fan == (0.010, -0.650)
    assert p2.foot_pitch_range_deg == (-90.0, 90.0)

    p3 = builtin_posture("P3")
    assert p3.com_sagittal == (0.050, -0.225)
    assert p3.foot_fan == (0.070, -0.580)
    assert p3.foot_pitch_range_deg == (-82.0, 90.0)


def test_unknown_posture_label():
    with pytest.raises(UnknownPostureError):
        builtin_posture("P9")


def test_geometry_foot_fan_positions():
    geo = geometry_from_posture(builtin_posture("P1"), fan_spacing_feet=0.25)
    positions = geo.fan_positions()
    np.testing.assert_allclose(positions[2], [0.020, 0.125, -0.610])  # left
    np.testing.assert_allclose(positions[3], [0.020, -0.125, -0.610])  # right
    np.testing.assert_allclose(positions[0], [0.15, 0.0, 0.0])  # front
    np.testing.assert_allclose(positions[1], [-0.15, 0.0, 0.0])  # back


def test_geometry_lever_arm():
    geo = geometry_from_posture(builtin_posture("P1"))
    assert geo.com_body[2] - geo.fan_foot_z == pytest.approx(0.367, abs=1e-12)


def test_geometry_sagittal_symmetry_default():
    for name in ("P1", "P2", "P3"):
        geo = geometry_from_posture(builtin_posture(name))
        assert geo.com_body[1] == 0.0
    geo = geometry_from_posture(builtin_posture("P1"), com_y=0.003)
    assert geo.com_body[1] == 0.003



def test_default_thrust_budget():
    limits = FanLimits()
    assert 4.0 * limits.thrust_max_per_fan == 200.0
    # thrust-to-weight must clear the low-margin regime the design targets
    assert 200.0 / (17.0 * GRAVITY) > 1.1


def test_fan_limits_validation():
    with pytest.raises(ValueError):
        FanLimits(thrust_min=-1.0)
    with pytest.raises(ValueError):
        FanLimits(thrust_min=60.0, thrust_max_per_fan=50.0)
    with pytest.raises(ValueError):
        FanLimits(foot_pitch_rate_max=0.0)
    with pytest.raises(ValueError):
        FanLimits(thrust_time_constant=-0.1)
    with pytest.raises(ValueError, match="^foot_pitch_rate_max must be positive$"):
        FanLimits(foot_pitch_rate_max=math.nan)
    with pytest.raises(ValueError, match="^thrust_time_constant must be >= 0$"):
        FanLimits(thrust_time_constant=math.nan)


def test_posture_validation():
    with pytest.raises(ValueError):
        Posture("bad", (0, -0.2), (0, -0.6), (30.0, 10.0))
    with pytest.raises(ValueError):
        Posture("bad", (0, -0.2), (0, -0.6), (-100.0, 90.0))


def test_geometry_validation():
    with pytest.raises(ValueError):
        RobotGeometry(mass_total=0.0)
    with pytest.raises(ValueError, match="^com_body must hold 3 coordinates$"):
        RobotGeometry(com_body=(0.0, 0.0))
    with pytest.raises(ValueError):
        RobotGeometry(fan_spacing_waist=-0.1)
    # a NaN fails with its field's message, not the inertia's
    with pytest.raises(ValueError, match="^mass_total must be positive$"):
        RobotGeometry(mass_total=math.nan)
    for spacing in ("fan_spacing_waist", "fan_spacing_feet"):
        with pytest.raises(ValueError, match="^fan spacings must be positive$"):
            RobotGeometry(**{spacing: math.nan})
    with pytest.raises(ValueError, match="^fan_mass must be >= 0 and four fans"):
        RobotGeometry(fan_mass=math.nan)
    with pytest.raises(ValueError):
        RobotGeometry(inertia_measured=np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        RobotGeometry(inertia_measured=np.arange(9.0).reshape(3, 3))
    # positive-definite, but the minors underflow: no float inverse exists
    with pytest.raises(ValueError, match="positive-definite"):
        geometry_from_posture(builtin_posture("P1"), fan_mass=3.6e-190)
    # the surrogate overflows, one moment is infinite, or the determinant
    # overflows: none has a finite float inverse
    for kwargs in ({"mass_total": 1e300, "fan_mass": 1e299, "fan_foot_z": -1e10},
                   {"inertia_measured": np.diag([np.inf, 1.0, 1.0])},
                   {"inertia_measured": np.diag([1e200, 1e200, 1e200])}):
        with pytest.raises(ValueError, match="finite and positive-definite"):
            RobotGeometry(**kwargs)


@pytest.mark.parametrize("mass, fan_mass, fits", [
    (1.5, 0.1, True),     # lighter than four default 0.488 kg fans, but its own fit
    (1.0, 0.25, True),    # exactly 4 fan_mass = mass
    (1.9, 0.47, True),
    (17.0, 4.25, True),
    (1.0, 0.2501, False),
    (1.5, 0.4, False),
    (1.9, 0.488, False),
    (17.0, 5.0, False),
])
def test_surrogate_fan_mass_against_total_mass(mass, fan_mass, fits):
    posture = builtin_posture("P1")
    if not fits:
        with pytest.raises(ValueError, match="four fans must not exceed total mass"):
            geometry_from_posture(posture, mass_total=mass, fan_mass=fan_mass)
        return
    geo = geometry_from_posture(posture, mass_total=mass, fan_mass=fan_mass)
    assert geo.fan_mass == fan_mass
    # the surrogate does not depend on the total mass: it scales with fan_mass alone
    default = geometry_from_posture(posture)
    np.testing.assert_allclose(np.array(geo.inertia_body),
                               fan_mass / 0.488 * np.array(default.inertia_body), rtol=1e-14)


def test_point_mass_inertia_is_diagonal_spd():
    geo = geometry_from_posture(builtin_posture("P2"))
    inertia = np.array(geo.inertia_body)
    assert np.all(inertia == np.diag(np.diag(inertia)))
    assert np.linalg.eigvalsh(inertia).min() > 0.0


def test_point_mass_inertia_scales_with_fan_mass():
    geo = geometry_from_posture(builtin_posture("P1"))
    doubled = point_mass_inertia(replace(geo, fan_mass=2.0 * 0.488))
    np.testing.assert_allclose(doubled, 2.0 * np.array(point_mass_inertia(geo)))
    assert point_mass_inertia(geo) == geo.inertia_body


def test_inertia_override_respected():
    override = np.diag([0.5, 0.6, 0.3])
    geo = replace(geometry_from_posture(builtin_posture("P1")), inertia_measured=override)
    np.testing.assert_allclose(geo.inertia_body, override)
    np.testing.assert_allclose(geo.inertia_inverse_rows,
                               np.linalg.inv(override).ravel(), rtol=1e-15)


@pytest.mark.parametrize("changes", [
    {"fan_mass": 0.976},
    {"mass_total": 14.0},
    {"fan_foot_x": 0.05},
    {"fan_foot_z": -0.55},
    {"fan_spacing_waist": 0.34},
    {"fan_spacing_feet": 0.2},
    {"com_body": (0.03, 0.01, -0.25)},
])
def test_replace_recomputes_the_surrogate_inertia(changes):
    posture = builtin_posture("P1")
    geo = replace(geometry_from_posture(posture), **changes)
    fresh = replace(posture, com_sagittal=(geo.com_body[0], geo.com_body[2]),
                    foot_fan=(geo.fan_foot_x, geo.fan_foot_z))
    expected = geometry_from_posture(
        fresh, mass_total=geo.mass_total, fan_spacing_waist=geo.fan_spacing_waist,
        fan_spacing_feet=geo.fan_spacing_feet, fan_mass=geo.fan_mass, com_y=geo.com_body[1])
    assert geo == expected  # inertia_body among the compared fields
    assert geo.inertia_inverse_rows == expected.inertia_inverse_rows
    # a measured tensor survives the same replace
    measured = ((0.5, 0.0, 0.01), (0.0, 0.6, 0.0), (0.01, 0.0, 0.3))
    kept = replace(replace(geometry_from_posture(posture), inertia_measured=measured), **changes)
    assert kept.inertia_body == kept.inertia_measured == measured


def test_geometry_deterministic():
    a = geometry_from_posture(builtin_posture("P3"))
    b = geometry_from_posture(builtin_posture("P3"))
    np.testing.assert_array_equal(a.com_body, b.com_body)
    np.testing.assert_array_equal(a.inertia_body, b.inertia_body)
    assert a.weight == b.weight


def test_geometry_arrays_read_only():
    # the geometry holds plain float tuples, which cannot be written in place
    geo = geometry_from_posture(builtin_posture("P1"))
    assert geo.com_body == (0.025, 0.0, -0.243)
    assert all(type(v) is float for row in geo.inertia_body for v in (*geo.com_body, *row))
    with pytest.raises(TypeError):
        geo.com_body[0] = 1.0
    with pytest.raises(TypeError):
        geo.inertia_body[1][1] = 1.0
