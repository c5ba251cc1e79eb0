"""Independent cross-check evaluators for the test suite.

Each oracle recomputes a quantity by a different route than the production
code so the two can be compared:

* wrench_brute_force sums per-fan world-frame point forces and world-frame
  moment arms, instead of the body-frame torque rows, on plain floats. It
  lays the fans out from the geometry and the perturbation and rotates them
  by its own Euler-Rodrigues matrix, so it shares neither wrench's fan model
  nor spatial's rotation with production.
* envelope_extrema_grid walks a fixed foot-angle grid and enumerates the
  vertices of the thrust polytope (box corners plus box-edge intersections
  with the vertical-force plane) at every angle, instead of the parametric
  greedy over closed-form candidate angles, in numpy arrays over the grid,
  one family of vertices at a time.
* trim_scan exploits the closed force balance of the equal-thrust trim
  (body pitch is minus half the foot angle, thrust follows from the weight)
  and scans the remaining torque equation on a fine angle grid, instead of
  solving it in closed form, in one numpy array pass.

They are shipped with the package so reported numbers can be re-audited.
"""

from __future__ import annotations

import math

import numpy as np

from .envelope import EnvelopeConstraint
from .robot import GRAVITY, RobotGeometry
from .spatial import (
    Quat,
    quat_to_matrix,  # not called here; bench/test_bench.py rebinds it through oracles
)
from .wrench import FanState


def _check_grid(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def wrench_brute_force(
    fs: FanState,
    geo: RobotGeometry,
    orientation: Quat,
    perturbation=None,
) -> tuple[np.ndarray, np.ndarray]:
    """(force_world, torque_world) from per-fan world-frame cross products.

    Each fan's body-frame force (the feet's tilted by the perturbation's axis
    bias) and its arm about the perturbed CoM are rotated into {W} by the
    Euler-Rodrigues matrix of the orientation, R = (w^2 - u.u) I + 2 u u^T +
    2 w [u]x for the unit quaternion (w, u) (Diebel, "Representing Attitude",
    2006), and F and r x F are summed fan by fan, on floats.
    """
    w, x, y, z = map(float, orientation)
    norm = math.hypot(w, x, y, z)
    if norm < 1e-300:
        raise ValueError("cannot normalize a zero quaternion")
    w, x, y, z = w / norm, x / norm, y / norm, z / norm
    d = w * w - (x * x + y * y + z * z)
    r00, r01, r02 = d + 2.0 * x * x, 2.0 * x * y - 2.0 * w * z, 2.0 * x * z + 2.0 * w * y
    r10, r11, r12 = 2.0 * y * x + 2.0 * w * z, d + 2.0 * y * y, 2.0 * y * z - 2.0 * w * x
    r20, r21, r22 = 2.0 * z * x - 2.0 * w * y, 2.0 * z * y + 2.0 * w * x, d + 2.0 * z * z

    c_x, c_y, c_z = geo.com_body
    theta_l, theta_r = float(fs.theta_left), float(fs.theta_right)
    if perturbation is not None:
        d_x, d_y, d_z = map(float, perturbation.com_offset)
        c_x, c_y, c_z = c_x + d_x, c_y + d_y, c_z + d_z
        theta_l += float(perturbation.foot_axis_misalignment_left)
        theta_r += float(perturbation.foot_axis_misalignment_right)
    f_l, f_r = float(fs.f_left), float(fs.f_right)
    # body-frame forces of the front, back, left and right fans
    forces = ((0.0, 0.0, float(fs.f_front)), (0.0, 0.0, float(fs.f_back)),
              (f_l * math.sin(theta_l), 0.0, f_l * math.cos(theta_l)),
              (f_r * math.sin(theta_r), 0.0, f_r * math.cos(theta_r)))
    force_x = force_y = force_z = tau_x = tau_y = tau_z = 0.0
    for (p_x, p_y, p_z), (b_x, b_y, b_z) in zip(geo.fan_positions(), forces):
        f_x = r00 * b_x + r01 * b_y + r02 * b_z
        f_y = r10 * b_x + r11 * b_y + r12 * b_z
        f_z = r20 * b_x + r21 * b_y + r22 * b_z
        p_x, p_y, p_z = p_x - c_x, p_y - c_y, p_z - c_z
        a_x = r00 * p_x + r01 * p_y + r02 * p_z
        a_y = r10 * p_x + r11 * p_y + r12 * p_z
        a_z = r20 * p_x + r21 * p_y + r22 * p_z
        force_x, force_y, force_z = force_x + f_x, force_y + f_y, force_z + f_z
        tau_x += a_y * f_z - a_z * f_y
        tau_y += a_z * f_x - a_x * f_z
        tau_z += a_x * f_y - a_y * f_x
    return (np.array([force_x, force_y, force_z - geo.mass_total * GRAVITY]),
            np.array([tau_x, tau_y, tau_z]))


def envelope_extrema_grid(
    geo: RobotGeometry,
    theta_pitch: float,
    constraint: EnvelopeConstraint,
    angle_step_deg: float = 0.1,
    dt_strategy: bool = False,
) -> tuple[float, float] | None:
    """(tau_min, tau_max) by grid-plus-vertex enumeration; None if infeasible.

    For each foot angle on the grid the feasible thrust set is a box cut by
    one half-space, so every candidate optimum is either a feasible box
    corner or the point where the constraint plane crosses a box edge; both
    are enumerated exhaustively, the same 20 candidates at every grid angle.
    Each family (the corners with the feet at 0 and at the cap, the edges
    with the front, the back or the feet free) yields its feasible objective
    values, and the extrema are taken over all of them at once. DT restricts
    the grid to the single angle zero.
    """
    _check_grid("angle_step_deg", angle_step_deg)
    if dt_strategy:
        thetas = np.array([0.0])
    else:
        lo, hi = constraint.foot_angle_range
        n = max(2, int(round((hi - lo) / math.radians(angle_step_deg))) + 1)
        thetas = np.linspace(lo, hi, n)

    x_c, z_c = geo.com_body[0], geo.com_body[2]
    half_l = 0.5 * geo.fan_spacing_waist
    u = constraint.per_fan_max
    r = constraint.min_vertical_force
    cp = math.cos(theta_pitch)
    # objective c and constraint a over (f_front, f_back, f_feet): the waist
    # fans' entries are scalars, the feet's vary with the foot angle
    c0, c1 = -(half_l - x_c), half_l + x_c
    c2 = 2.0 * (np.cos(thetas) * (x_c - geo.fan_foot_x) - np.sin(thetas) * (z_c - geo.fan_foot_z))
    a2 = 2.0 * np.cos(theta_pitch + thetas)
    floor = r - 1e-9

    # the feet's share of the constraint and of the objective at f_feet = 0 and u
    a2_0, a2_u, c2_0, c2_u = a2 * 0.0, a2 * u, c2 * 0.0, c2 * u

    # the box corners (f_front, f_back, f_feet) in {0, u}^3: the waist pair's
    # share is one scalar per corner, to which the feet's is added. a2 * 0 is
    # a signed zero (a2 is finite wherever cp is), which moves no sum across
    # the floor, so a corner with the feet at 0 is feasible at every angle or
    # at none; its objective keeps c2 * 0, which sets the sign of a zero sum
    corners = [(cp * fa + cp * fb, c0 * fa + c1 * fb) for fa in (0.0, u) for fb in (0.0, u)]
    taus = [tau + c2_0 for a, tau in corners if a >= floor]
    a, tau = np.array(corners).T[:, :, None]
    taus.append((tau + c2_u)[a + a2_u >= floor])
    # the box edges: two thrusts pinned at (b1, b2), the free one solved on the
    # plane. Front and back share cp, so their edges cross the plane alike
    b1, b2 = np.array([[0.0, 0.0, u, u], [0.0, u, 0.0, u]])[:, :, None]
    a2_b2, c2_b2 = np.array([a2_0, a2_u, a2_0, a2_u]), np.array([c2_0, c2_u, c2_0, c2_u])
    with np.errstate(divide="ignore", invalid="ignore"):
        waist = (r - cp * b1 - a2_b2) / cp  # f_front (f_back) free: the other b1, feet b2
        feet = (r - cp * b1 - cp * b2) / a2  # f_feet free: front b1, back b2
    ok = (cp != 0.0) & (-1e-9 <= waist) & (waist <= u + 1e-9)
    waist = waist.clip(0.0, u)
    ok &= cp * waist + cp * b1 + a2_b2 >= floor
    taus += (c0 * waist + c1 * b1 + c2_b2)[ok], (c0 * b1 + c1 * waist + c2_b2)[ok]
    ok = (a2 != 0.0) & (-1e-9 <= feet) & (feet <= u + 1e-9)
    feet = feet.clip(0.0, u)
    ok &= cp * b1 + cp * b2 + a2 * feet >= floor
    taus.append((c0 * b1 + c1 * b2 + c2 * feet)[ok])
    tau = np.concatenate(taus)
    if not tau.size:
        return None
    return float(tau.min()), float(tau.max())


def trim_scan(
    geo: RobotGeometry,
    theta_step_deg: float = 0.01,
    theta_span_deg: float = 45.0,
) -> tuple[float, float, float]:
    """(thrust_per_fan, foot_angle, theta_pitch) for the equal-thrust trim.

    With all four thrusts equal and both feet at angle t, zero horizontal
    force forces theta_pitch = -t/2 and the vertical balance gives
    f = M g / (4 cos(t/2)); only the pitch torque equation remains, scanned
    on the grid. The first grid angle of least |torque| wins.
    """
    _check_grid("theta_step_deg", theta_step_deg)
    _check_grid("theta_span_deg", theta_span_deg)
    weight = geo.weight
    x_c, z_c = geo.com_body[0], geo.com_body[2]
    n = int(round(2.0 * theta_span_deg / theta_step_deg)) + 1
    th = np.linspace(-math.radians(theta_span_deg), math.radians(theta_span_deg), n)
    f = weight / (4.0 * np.cos(0.5 * th))
    torque = 2.0 * f * (x_c + np.cos(th) * (x_c - geo.fan_foot_x)
                        - np.sin(th) * (z_c - geo.fan_foot_z))
    k = int(np.argmin(np.abs(torque)))
    theta = float(th[k])
    return float(f[k]), theta, -0.5 * theta
