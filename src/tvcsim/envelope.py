"""Attainable pitch-torque boundaries for the two control strategies.

DT (differential thrust) generates pitch torque from the front/back waist
thrust difference with the foot fans held straight up. TVC (thrust vector
control) additionally tilts both foot fans together, putting their horizontal
thrust component on the long lever arm between the feet and the CoM.

Both searches run under the takeoff constraint that the world-frame vertical
thrust component must at least cancel weight, so neither strategy can simply
saturate every actuator. For a fixed foot angle the extremum over thrusts is
a linear program with box bounds and one covering constraint, which is solved
exactly by a parametric greedy; TVC adds a 1-D scan plus local refinement
over the foot angle. The independent cross-check lives in tvcsim.oracles.

Legs are assumed parallel: both feet share one thrust value and one pitch
angle throughout the search.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .robot import FanLimits, Posture, RobotGeometry
from .wrench import FanState

SCAN_STEP_RAD = math.radians(0.1)  # TVC foot-angle scan resolution before refinement
_FEAS_TOL = 1e-9
SWEEP_PITCH_RANGE = (-math.pi / 6.0, math.pi / 6.0)  # rad, the default sweep
SWEEP_POINTS = 61


class EnvelopeInfeasibleError(Exception):
    """No fan state can meet the vertical-force floor at this attitude."""


@dataclass(frozen=True)
class EnvelopeConstraint:
    """Search bounds: vertical-force floor, per-fan cap, foot angle range."""

    min_vertical_force: float
    per_fan_max: float
    foot_angle_range: tuple[float, float]

    def __post_init__(self):
        if self.min_vertical_force <= 0.0:
            raise ValueError("min_vertical_force must be positive")
        if self.per_fan_max <= 0.0:
            raise ValueError("per_fan_max must be positive")
        lo, hi = self.foot_angle_range
        if lo > hi:
            raise ValueError("foot_angle_range must be ordered (min, max)")

    @classmethod
    def hover(
        cls,
        geo: RobotGeometry,
        posture: Posture,
        limits: FanLimits | None = None,
    ) -> "EnvelopeConstraint":
        """Constraint for holding weight: vertical thrust >= M g.

        The thrust LP's per-fan floor is fixed at 0 N, so limits with a
        nonzero thrust_min are rejected rather than silently ignored.
        """
        limits = limits or FanLimits()
        if limits.thrust_min != 0.0:
            raise ValueError(
                f"the envelope search fixes the per-fan thrust floor at 0 N; "
                f"got thrust_min {limits.thrust_min} N"
            )
        return cls(
            min_vertical_force=geo.weight,
            per_fan_max=limits.thrust_max_per_fan,
            foot_angle_range=posture.foot_pitch_range,
        )


@dataclass
class EnvelopePoint:
    """Extremal pitch torques at one body pitch angle."""

    theta_pitch: float
    tau_max: float
    tau_min: float
    argmax_state: FanState
    argmin_state: FanState


@dataclass
class SweepPoint:
    """One sweep abscissa; a strategy entry is None where infeasible."""

    theta_pitch: float
    dt: EnvelopePoint | None
    tvc: EnvelopePoint | None


def _lp_max_covering(c, a, r, upper):
    """Maximize c.x s.t. a.x >= r, 0 <= x_i <= upper_i. Exact.

    Returns (value, x) or None when infeasible. With a single covering
    constraint the optimum is reached by starting from the unconstrained
    box optimum and buying constraint slack from the variables with the
    best objective-per-slack ratio; at most one variable ends up strictly
    between its bounds.
    """
    n = len(c)
    cap = sum(a[i] * upper[i] for i in range(n) if a[i] > 0.0)
    if cap < r - _FEAS_TOL:
        return None
    x = [0.0] * n
    for i in range(n):
        if c[i] > 0.0 or (c[i] == 0.0 and a[i] > 0.0):
            x[i] = upper[i]
    gap = r - sum(a[i] * x[i] for i in range(n))
    if gap <= _FEAS_TOL:
        return (sum(c[i] * x[i] for i in range(n)), x)

    # moves that raise a.x, cheapest objective loss per unit of slack first
    moves = []
    for i in range(n):
        if x[i] == 0.0 and a[i] > 0.0:
            moves.append((c[i] / a[i], i, 1.0))
        elif x[i] == upper[i] and a[i] < 0.0:
            moves.append((c[i] / a[i], i, -1.0))
    moves.sort(key=lambda m: (-m[0], m[1]))
    for _, i, direction in moves:
        gain = abs(a[i]) * upper[i]
        if gain >= gap - _FEAS_TOL:
            span = max(0.0, gap / abs(a[i]))
            x[i] = span if direction > 0.0 else upper[i] - span
            gap = 0.0
            break
        x[i] = upper[i] if direction > 0.0 else 0.0
        gap -= gain
    if gap > _FEAS_TOL:
        return None
    return (sum(c[i] * x[i] for i in range(n)), x)


def _coefficients(geo: RobotGeometry, theta_pitch: float, theta_feet: float):
    """Objective/constraint coefficients over (f_front, f_back, f_feet).

    Objective is the body pitch torque; the constraint row is the world
    vertical thrust component. The foot variable drives both feet, hence
    the factors of two.
    """
    x_c = geo.com_body[0]
    z_c = geo.com_body[2]
    half_l = 0.5 * geo.fan_spacing_waist
    ct, st = math.cos(theta_feet), math.sin(theta_feet)
    c = [
        -(half_l - x_c),
        half_l + x_c,
        2.0 * (ct * (x_c - geo.fan_foot_x) - st * (z_c - geo.fan_foot_z)),
    ]
    cp = math.cos(theta_pitch)
    a = [cp, cp, 2.0 * math.cos(theta_pitch + theta_feet)]
    return c, a


def _solve_at_angle(geo, theta_pitch, theta_feet, constraint, maximize):
    c, a = _coefficients(geo, theta_pitch, theta_feet)
    if not maximize:
        c = [-v for v in c]
    res = _lp_max_covering(c, a, constraint.min_vertical_force,
                           [constraint.per_fan_max] * 3)
    if res is None:
        return None
    value, x = res
    if not maximize:
        value = -value
    fs = FanState(f_front=x[0], f_back=x[1], f_left=x[2], f_right=x[2],
                  theta_left=theta_feet, theta_right=theta_feet)
    return value, fs


def max_pitch_torque_dt(
    geo: RobotGeometry, theta_pitch: float, constraint: EnvelopeConstraint
) -> EnvelopePoint:
    """Extremal pitch torque with feet locked thrust-up (DT strategy)."""
    hi = _solve_at_angle(geo, theta_pitch, 0.0, constraint, maximize=True)
    lo = _solve_at_angle(geo, theta_pitch, 0.0, constraint, maximize=False)
    if hi is None or lo is None:
        raise EnvelopeInfeasibleError(
            f"vertical force floor {constraint.min_vertical_force:.2f} N unreachable "
            f"at theta_pitch={math.degrees(theta_pitch):.2f} deg with feet up"
        )
    return EnvelopePoint(theta_pitch, hi[0], lo[0], hi[1], lo[1])


def _refine_angle(geo, theta_pitch, constraint, theta0, step, maximize):
    """Golden-section polish of the foot angle around a scan winner."""
    lo_r, hi_r = constraint.foot_angle_range
    a = max(lo_r, theta0 - step)
    b = min(hi_r, theta0 + step)

    def value(th):
        res = _solve_at_angle(geo, theta_pitch, th, constraint, maximize)
        if res is None:
            return -math.inf if maximize else math.inf
        return res[0]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = value(x1), value(x2)
    better = (lambda p, q: p > q) if maximize else (lambda p, q: p < q)
    for _ in range(40):
        if better(f1, f2):
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = value(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = value(x2)
    best_th = x1 if better(f1, f2) else x2
    res = _solve_at_angle(geo, theta_pitch, best_th, constraint, maximize)
    return res, best_th


def max_pitch_torque_tvc(
    geo: RobotGeometry, theta_pitch: float, constraint: EnvelopeConstraint
) -> EnvelopePoint:
    """Extremal pitch torque with the foot pitch angle free in its range."""
    lo_r, hi_r = constraint.foot_angle_range
    n = max(2, int(math.ceil((hi_r - lo_r) / SCAN_STEP_RAD)) + 1)
    thetas = np.linspace(lo_r, hi_r, n)
    if lo_r <= 0.0 <= hi_r:
        thetas = np.append(thetas, 0.0)  # keep the DT slice in the scan

    best = {True: None, False: None}  # maximize -> (value, fs, theta)
    for th in thetas:
        for maximize in (True, False):
            res = _solve_at_angle(geo, theta_pitch, float(th), constraint, maximize)
            if res is None:
                continue
            cur = best[maximize]
            if cur is None or (res[0] > cur[0] if maximize else res[0] < cur[0]):
                best[maximize] = (res[0], res[1], float(th))
    if best[True] is None or best[False] is None:
        raise EnvelopeInfeasibleError(
            f"vertical force floor {constraint.min_vertical_force:.2f} N unreachable "
            f"at theta_pitch={math.degrees(theta_pitch):.2f} deg over the foot range"
        )

    step = (hi_r - lo_r) / (n - 1) if n > 1 else 0.0
    out = {}
    for maximize in (True, False):
        _, _, th0 = best[maximize]
        if step > 0.0:
            res, _ = _refine_angle(geo, theta_pitch, constraint, th0, step, maximize)
        else:
            res = _solve_at_angle(geo, theta_pitch, th0, constraint, maximize)
        # refinement never loses to the scan winner
        if res is None or (res[0] < best[maximize][0] if maximize else res[0] > best[maximize][0]):
            res = (best[maximize][0], best[maximize][1])
        out[maximize] = res
    return EnvelopePoint(theta_pitch, out[True][0], out[False][0],
                         out[True][1], out[False][1])


def envelope_sweep(
    geo: RobotGeometry,
    constraint: EnvelopeConstraint,
    theta_pitch_range: tuple[float, float] = SWEEP_PITCH_RANGE,
    n_points: int = SWEEP_POINTS,
) -> list[SweepPoint]:
    """Evaluate DT and TVC extrema over an evenly spaced pitch-angle sweep.

    Infeasible points are kept in the output with the affected strategy set
    to None rather than aborting the sweep.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    lo, hi = theta_pitch_range
    if lo > hi:
        raise ValueError("theta_pitch_range must be ordered (min, max)")
    thetas = [lo] if lo == hi else list(np.linspace(lo, hi, n_points))
    points = []
    for th in thetas:
        th = float(th)
        try:
            dt = max_pitch_torque_dt(geo, th, constraint)
        except EnvelopeInfeasibleError:
            dt = None
        try:
            tvc = max_pitch_torque_tvc(geo, th, constraint)
        except EnvelopeInfeasibleError:
            tvc = None
        points.append(SweepPoint(theta_pitch=th, dt=dt, tvc=tvc))
    return points


ENVELOPE_CSV_HEADER = [
    "theta_pitch_deg",
    "dt_tau_min",
    "dt_tau_max",
    "tvc_tau_min",
    "tvc_tau_max",
    "feasible_flag",
]


def envelope_rows(points: list[SweepPoint]) -> list[list]:
    """One row per sweep point in ENVELOPE_CSV_HEADER order, pitch in degrees.

    None marks the torques of an infeasible strategy.
    """
    rows = []
    for p in points:
        row = [math.degrees(p.theta_pitch)]
        for point in (p.dt, p.tvc):
            row.extend([None, None] if point is None else [point.tau_min, point.tau_max])
        row.append(1 if (p.dt is not None and p.tvc is not None) else 0)
        rows.append(row)
    return rows


def write_envelope_csv(points: list[SweepPoint], path) -> None:
    """One row per sweep point; nan marks an infeasible strategy."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ENVELOPE_CSV_HEADER)
        for theta, *taus, flag in envelope_rows(points):
            writer.writerow([f"{theta:.6g}",
                             *("nan" if tau is None else f"{tau:.10g}" for tau in taus),
                             str(flag)])


def tvc_dt_ratio(
    geo: RobotGeometry, constraint: EnvelopeConstraint, theta_pitch: float = 0.0
) -> tuple[float, float]:
    """(tau_max ratio, |tau_min| ratio) of TVC over DT at one pitch angle."""
    dt = max_pitch_torque_dt(geo, theta_pitch, constraint)
    tvc = max_pitch_torque_tvc(geo, theta_pitch, constraint)
    ratio_max = math.inf if dt.tau_max <= 0.0 else tvc.tau_max / dt.tau_max
    ratio_min = math.inf if dt.tau_min >= 0.0 else tvc.tau_min / dt.tau_min
    return ratio_max, ratio_min
