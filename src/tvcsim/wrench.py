"""Net force and torque produced by the four fans.

Force and torque conventions:

* Waist fans blow along body +z; foot fans blow along
  (sin(theta), 0, cos(theta)) in {B}, so theta = 0 means thrust straight up
  and positive theta tips the thrust forward (+x).
* The torque is taken about the center of mass, so gravity contributes force
  only. Fan thrust is a pure point force along the fan axis; no gyroscopic
  or intake-momentum effects are modeled.
* The body-frame pitch torque splits into three terms:
    t_y1: waist-pair differential,  f_B (L/2 + x_c) - f_F (L/2 - x_c)
    t_y2: foot thrust vertical component on the (x_c - p_fx) arm
    t_y3: foot thrust horizontal component on the -(z_c - p_fz) arm
  t_y3 is the thrust-vectoring term: the feet sit far below the CoM, so a
  small horizontal thrust component makes a large pitch moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .robot import GRAVITY, RobotGeometry
from .spatial import Quat, Vec3, quat_to_matrix, rot_y


@dataclass
class FanState:
    """Commanded or actual thrusts (N) and foot fan pitch angles (rad)."""

    f_front: float
    f_back: float
    f_left: float
    f_right: float
    theta_left: float = 0.0
    theta_right: float = 0.0

    def __post_init__(self):
        for name in ("f_front", "f_back", "f_left", "f_right"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    @classmethod
    def uniform(cls, thrust: float, theta: float = 0.0) -> "FanState":
        return cls(thrust, thrust, thrust, thrust, theta, theta)

    def thrusts(self) -> np.ndarray:
        """Order matches RobotGeometry.fan_positions(): front, back, left, right."""
        return np.array([self.f_front, self.f_back, self.f_left, self.f_right])


@dataclass
class Wrench:
    """World-frame net force/torque plus the body-frame pitch decomposition."""

    force_world: Vec3
    torque_world: Vec3
    t_y1: float
    t_y2: float
    t_y3: float


def body_thrust_sum(fs: FanState) -> tuple[float, float]:
    """(horizontal, vertical) components of the total thrust in {B}."""
    h = fs.f_left * math.sin(fs.theta_left) + fs.f_right * math.sin(fs.theta_right)
    v = (
        fs.f_back
        + fs.f_front
        + fs.f_left * math.cos(fs.theta_left)
        + fs.f_right * math.cos(fs.theta_right)
    )
    return h, v


def force_world(fs: FanState, geo: RobotGeometry, theta_pitch: float) -> Vec3:
    """Net world-frame force at a pitch-only attitude, gravity included."""
    h, v = body_thrust_sum(fs)
    f = rot_y(theta_pitch) @ np.array([h, 0.0, v])
    f[2] -= geo.mass_total * GRAVITY
    return f


def pitch_torque_terms(fs: FanState, geo: RobotGeometry) -> tuple[float, float, float]:
    """Body-frame pitch torque decomposition (t_y1, t_y2, t_y3)."""
    x_c = geo.com_body[0]
    z_c = geo.com_body[2]
    half_l = 0.5 * geo.fan_spacing_waist
    cl, cr = math.cos(fs.theta_left), math.cos(fs.theta_right)
    sl, sr = math.sin(fs.theta_left), math.sin(fs.theta_right)
    t_y1 = fs.f_back * (half_l + x_c) - fs.f_front * (half_l - x_c)
    t_y2 = (fs.f_left * cl + fs.f_right * cr) * (x_c - geo.fan_foot_x)
    t_y3 = -(fs.f_left * sl + fs.f_right * sr) * (z_c - geo.fan_foot_z)
    return t_y1, t_y2, t_y3


def total_wrench(fs: FanState, geo: RobotGeometry, theta_pitch: float) -> Wrench:
    """Full wrench at a pitch-only attitude.

    The roll row is driven by the left/right vertical thrust difference and
    the yaw row by the left/right horizontal thrust difference, both on the
    L_f/2 arm.
    """
    t_y1, t_y2, t_y3 = pitch_torque_terms(fs, geo)
    half_lf = 0.5 * geo.fan_spacing_feet
    roll = half_lf * (
        fs.f_left * math.cos(fs.theta_left) - fs.f_right * math.cos(fs.theta_right)
    )
    yaw = half_lf * (
        fs.f_right * math.sin(fs.theta_right) - fs.f_left * math.sin(fs.theta_left)
    )
    tau = rot_y(theta_pitch) @ np.array([roll, t_y1 + t_y2 + t_y3, yaw])
    return Wrench(
        force_world=force_world(fs, geo, theta_pitch),
        torque_world=tau,
        t_y1=t_y1,
        t_y2=t_y2,
        t_y3=t_y3,
    )


def fan_layout(
    fs: FanState,
    geo: RobotGeometry,
    perturbation=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-fan body-frame forces for the generalized wrench.

    Returns (positions (4,3), forces (4,3), com (3,)). A perturbation shifts
    the effective CoM and biases each foot's thrust-axis pitch, the minimal
    model of joint position error that turns into a yaw force couple.
    """
    positions = geo.fan_positions()
    com = geo.com_body.copy()
    theta_l = fs.theta_left
    theta_r = fs.theta_right
    if perturbation is not None:
        com = com + perturbation.com_offset
        theta_l += perturbation.foot_axis_misalignment_left
        theta_r += perturbation.foot_axis_misalignment_right
    forces = np.array(
        [
            [0.0, 0.0, fs.f_front],
            [0.0, 0.0, fs.f_back],
            [fs.f_left * math.sin(theta_l), 0.0, fs.f_left * math.cos(theta_l)],
            [fs.f_right * math.sin(theta_r), 0.0, fs.f_right * math.cos(theta_r)],
        ]
    )
    return positions, forces, com


def generalized_wrench_3d(
    fs: FanState,
    geo: RobotGeometry,
    orientation: Quat,
    perturbation=None,
) -> Wrench:
    """Wrench at an arbitrary attitude.

    Reduces exactly to total_wrench on the pitch-only submanifold. The
    t_y* fields keep the body-frame decomposition, evaluated with the
    effective CoM and foot angles when a perturbation is active.
    """
    positions, forces, com = fan_layout(fs, geo, perturbation)
    rot = quat_to_matrix(orientation)
    force_w = rot @ forces.sum(axis=0)
    force_w[2] -= geo.mass_total * GRAVITY
    torque_body = np.cross(positions - com, forces).sum(axis=0)
    torque_w = rot @ torque_body

    x_c, z_c = com[0], com[2]
    half_l = 0.5 * geo.fan_spacing_waist
    t_y1 = fs.f_back * (half_l + x_c) - fs.f_front * (half_l - x_c)
    t_y2 = (forces[2, 2] + forces[3, 2]) * (x_c - geo.fan_foot_x)
    t_y3 = -(forces[2, 0] + forces[3, 0]) * (z_c - geo.fan_foot_z)
    return Wrench(force_world=force_w, torque_world=torque_w, t_y1=t_y1, t_y2=t_y2, t_y3=t_y3)
