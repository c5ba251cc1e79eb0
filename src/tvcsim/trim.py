"""Hover trim: the fan state and body pitch at which the net wrench is zero.

With equal preplanned thrusts the free variables are the common per-fan
thrust, the shared foot pitch angle, and the body pitch angle; the residual
is (world F_x, world F_z, pitch torque). Lateral force and roll/yaw torque
vanish by left-right symmetry, unless a CoM off the plane of symmetry
(com_y != 0) leaves a roll torque that no trim cancels. A damped Newton
iteration with a numerical Jacobian drives the residual below tolerance; the
result is what the flight controller uses as its foot-angle trim offset.
"""

from __future__ import annotations

import numpy as np

from .robot import FanLimits, RobotGeometry
from .wrench import FanState, total_wrench


class NoTrimError(Exception):
    """No balanced hover state exists within actuator limits."""

    def __init__(self, message: str, residual: np.ndarray | None = None):
        super().__init__(message)
        self.residual = residual


def _equal_thrust_residual(geo: RobotGeometry, x: np.ndarray) -> np.ndarray | None:
    f, theta, theta_pitch = x
    if f < 0.0:
        return None
    fs = FanState.uniform(f, theta)
    w = total_wrench(fs, geo, theta_pitch)
    return np.array([w.force_world[0], w.force_world[2], w.torque_world[1]])


def hover_trim(
    geo: RobotGeometry,
    equal_thrust: bool = True,
    limits: FanLimits | None = None,
    tol: float = 1e-10,
    max_iter: int = 60,
) -> tuple[FanState, float]:
    """Solve for a zero-wrench hover state.

    equal_thrust=True (the flight strategy): all four thrusts equal, both
    feet at one angle, body pitch free. equal_thrust=False: feet stay
    thrust-up and the waist pair takes up the pitch torque instead.

    Raises NoTrimError with the residual when no in-limits trim exists.
    """
    limits = limits or FanLimits()
    if equal_thrust:
        fs, theta_pitch, residual = _solve_equal_thrust(geo, tol, max_iter)
    else:
        fs, theta_pitch, residual = _solve_waist_differential(geo)

    norm = float(np.linalg.norm(residual))
    if norm > tol:
        raise NoTrimError(
            f"trim iteration stalled with residual wrench norm {norm:.3e} "
            f"(fx={residual[0]:.3e} N, fz={residual[1]:.3e} N, ty={residual[2]:.3e} N*m)",
            residual=residual,
        )
    w = total_wrench(fs, geo, theta_pitch)  # fy, tx, tz: zero unless com_y != 0
    lateral = np.array([w.force_world[1], w.torque_world[0], w.torque_world[2]])
    if float(np.linalg.norm(lateral)) > tol:
        raise NoTrimError(f"trim leaves a roll torque tx={lateral[1]:.3e} N*m with the CoM "
                          f"{geo.com_body[1]} m off the plane of symmetry", residual=lateral)
    worst = max(fs.thrusts().max() - limits.thrust_max_per_fan,
                limits.thrust_min - fs.thrusts().min())
    if worst > 1e-9:
        raise NoTrimError(
            f"trim needs per-fan thrust outside [{limits.thrust_min}, "
            f"{limits.thrust_max_per_fan}] N (state: {fs})",
            residual=residual,
        )
    return fs, theta_pitch


def _solve_equal_thrust(geo: RobotGeometry, tol: float, max_iter: int):
    x = np.array([geo.weight / 4.0, 0.0, 0.0])
    r = _equal_thrust_residual(geo, x)
    assert r is not None
    for _ in range(max_iter):
        norm = float(np.linalg.norm(r))
        if norm <= tol:
            break
        jac = _jacobian(geo, x, r)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            break
        # backtracking keeps the iteration from overshooting into f < 0
        alpha = 1.0
        while alpha > 1e-6:
            trial = x + alpha * step
            r_trial = _equal_thrust_residual(geo, trial)
            if r_trial is not None and np.linalg.norm(r_trial) < norm:
                x, r = trial, r_trial
                break
            alpha *= 0.5
        else:
            break
    f, theta, theta_pitch = x
    return FanState.uniform(f, theta), float(theta_pitch), r


def _jacobian(geo: RobotGeometry, x: np.ndarray, r0: np.ndarray) -> np.ndarray:
    # central differences; one-sided from r0, the residual at x, where a probe has f < 0
    jac = np.zeros((3, 3))
    for j in range(3):
        h = 1e-7 * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        rp = _equal_thrust_residual(geo, xp)
        rm = _equal_thrust_residual(geo, xm)
        if rp is not None and rm is not None:
            jac[:, j] = (rp - rm) / (2.0 * h)
        elif rp is not None:
            jac[:, j] = (rp - r0) / h
        else:
            jac[:, j] = (r0 - rm) / h
    return jac


def _solve_waist_differential(geo: RobotGeometry):
    """Feet up, level body; the waist pair cancels the CoM pitch torque.

    With theta = theta_pitch = 0 both balance equations are linear in
    (f_front, f_back, f_feet); the remaining freedom is closed by staying as
    close to an even four-way thrust split as the torque balance allows
    (equality-constrained least squares via the KKT system).
    """
    x_c = geo.com_body[0]
    half_l = 0.5 * geo.fan_spacing_waist
    weight = geo.weight
    constraints = np.array([
        [1.0, 1.0, 2.0],  # vertical force = weight
        [-(half_l - x_c), half_l + x_c, 2.0 * (x_c - geo.fan_foot_x)],  # zero torque
    ])
    rhs = np.array([weight, 0.0])
    target = np.full(3, weight / 4.0)
    kkt = np.zeros((5, 5))
    kkt[:3, :3] = 2.0 * np.eye(3)
    kkt[:3, 3:] = constraints.T
    kkt[3:, :3] = constraints
    solution = np.linalg.solve(kkt, np.concatenate([2.0 * target, rhs]))
    f_front, f_back, f_feet = solution[:3]
    if min(f_front, f_back, f_feet) < 0.0:
        raise NoTrimError(
            f"waist-differential trim needs negative thrust "
            f"(front={f_front:.2f} N, back={f_back:.2f} N, feet={f_feet:.2f} N)"
        )
    fs = FanState(f_front, f_back, f_feet, f_feet, 0.0, 0.0)
    w = total_wrench(fs, geo, 0.0)
    residual = np.array([w.force_world[0], w.force_world[2], w.torque_world[1]])
    return fs, 0.0, residual
