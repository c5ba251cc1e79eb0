"""Independent cross-check evaluators for the test suite.

Each oracle recomputes a quantity by a different route than the production
code so the two can be compared:

* wrench_brute_force sums per-fan world-frame point forces and world-frame
  moment arms, instead of the body-frame torque rows.
* envelope_extrema_grid walks a fixed foot-angle grid and enumerates the
  vertices of the thrust polytope (box corners plus box-edge intersections
  with the vertical-force plane) at every angle, instead of the parametric
  greedy over closed-form candidate angles.
* trim_scan exploits the closed force balance of the equal-thrust trim
  (body pitch is minus half the foot angle, thrust follows from the weight)
  and scans the remaining torque equation on a fine angle grid, instead of
  solving it in closed form.

They are shipped with the package so reported numbers can be re-audited.
"""

from __future__ import annotations

import math

import numpy as np

from .envelope import EnvelopeConstraint
from .robot import GRAVITY, RobotGeometry
from .spatial import Quat, quat_to_matrix
from .wrench import FanState, fan_layout


def wrench_brute_force(
    fs: FanState,
    geo: RobotGeometry,
    orientation: Quat,
    perturbation=None,
) -> tuple[np.ndarray, np.ndarray]:
    """(force_world, torque_world) from per-fan world-frame cross products."""
    positions, forces, com = fan_layout(fs, geo, perturbation)
    rot = quat_to_matrix(orientation)
    force_w = np.zeros(3)
    torque_w = np.zeros(3)
    for pos, f_body in zip(positions, forces):
        f_world = rot @ f_body
        arm_world = rot @ (pos - com)
        force_w += f_world
        torque_w += np.cross(arm_world, f_world)
    force_w[2] -= geo.mass_total * GRAVITY
    return force_w, torque_w


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
    families are enumerated exhaustively, each candidate at every grid angle
    at once. DT restricts the grid to the single angle zero.
    """
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
    # objective and constraint columns over (f_front, f_back, f_feet), one row per angle
    c = np.broadcast_arrays(
        -(half_l - x_c),
        half_l + x_c,
        2.0 * (np.cos(thetas) * (x_c - geo.fan_foot_x) - np.sin(thetas) * (z_c - geo.fan_foot_z)),
    )
    a = np.broadcast_arrays(cp, cp, 2.0 * np.cos(theta_pitch + thetas))

    tau_min = math.inf
    tau_max = -math.inf

    def consider(point, valid=True):
        """Fold one candidate vertex, at every grid angle, into the extrema."""
        nonlocal tau_min, tau_max
        feasible = valid & (a[0] * point[0] + a[1] * point[1] + a[2] * point[2] >= r - 1e-9)
        if feasible.any():
            tau = (c[0] * point[0] + c[1] * point[1] + c[2] * point[2])[feasible]
            tau_min = min(tau_min, float(tau.min()))
            tau_max = max(tau_max, float(tau.max()))

    for corner in ((fa, fb, ft) for fa in (0.0, u) for fb in (0.0, u) for ft in (0.0, u)):
        consider(corner)
    # box edges: two coordinates pinned, solve the third on the plane
    for free in range(3):
        others = [k for k in range(3) if k != free]
        for b1 in (0.0, u):
            for b2 in (0.0, u):
                with np.errstate(divide="ignore", invalid="ignore"):
                    solved = (r - a[others[0]] * b1 - a[others[1]] * b2) / a[free]
                point = [0.0, 0.0, 0.0]
                point[others[0]], point[others[1]] = b1, b2
                point[free] = np.clip(solved, 0.0, u)
                consider(point, (a[free] != 0.0) & (-1e-9 <= solved) & (solved <= u + 1e-9))
    if tau_max == -math.inf:
        return None
    return tau_min, tau_max


def trim_scan(
    geo: RobotGeometry,
    theta_step_deg: float = 0.01,
    theta_span_deg: float = 45.0,
) -> tuple[float, float, float]:
    """(thrust_per_fan, foot_angle, theta_pitch) for the equal-thrust trim.

    With all four thrusts equal and both feet at angle t, zero horizontal
    force forces theta_pitch = -t/2 and the vertical balance gives
    f = M g / (4 cos(t/2)); only the pitch torque equation remains, scanned
    on the grid.
    """
    weight = geo.weight
    x_c, z_c = geo.com_body[0], geo.com_body[2]
    best = None
    n = int(round(2.0 * theta_span_deg / theta_step_deg)) + 1
    for th in np.linspace(-math.radians(theta_span_deg), math.radians(theta_span_deg), n):
        f = weight / (4.0 * math.cos(0.5 * th))
        torque = 2.0 * f * (
            x_c
            + math.cos(th) * (x_c - geo.fan_foot_x)
            - math.sin(th) * (z_c - geo.fan_foot_z)
        )
        if best is None or abs(torque) < best[0]:
            best = (abs(torque), float(th), f)
    _, theta, f = best
    return f, theta, -0.5 * theta
