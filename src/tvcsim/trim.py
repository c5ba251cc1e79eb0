"""Hover trim: the fan state and body pitch at which the net wrench is zero.

Both trims are closed-form. With equal thrusts f, both feet at angle t and
body pitch phi, zero world F_x forces phi = -t/2 and the vertical balance
gives f = M g / (4 cos(t/2)). The pitch torque is then 2 f (x_c + A cos t -
B sin t) with A = x_c - p_fx, B = z_c - p_fz, i.e. R cos(t + delta) = -x_c
with R = hypot(A, B) and delta = atan2(B, A). Of its two roots, wrapped into
[-pi, pi], the one with the smaller |t| is kept; none exists when
|x_c| > R. The waist-differential trim (feet up, level body) is the thrust
split closest to an even one that balances weight and pitch torque, an
equality-constrained least-squares problem solved through its 2x2 normal
equations. Either result is checked once against the full wrench: the
(fx, fz, ty) residual, then the lateral rows (fy, tx, tz), which vanish by
left-right symmetry unless a CoM off the plane of symmetry (com_y != 0)
leaves a roll torque that no trim cancels, then the thrust limits and,
when given, the posture's foot-pitch range. The equal-thrust state is
what the flight controller uses as its foot-angle trim offset.
"""

from __future__ import annotations

import math

from .robot import FanLimits, RobotGeometry
from .wrench import FanState, pitch_arms, total_wrench

# of the weight (forces, and the thrust limits' allowance) or of the weight times
# the largest pitch arm (torques): on P1, 1e-10 N, 1e-10 N*m and 1e-9 N
_FORCE_TOL, _TORQUE_TOL, _THRUST_TOL = 6e-13, 1.63e-12, 6e-12


class NoTrimError(Exception):
    """No balanced hover state exists within actuator limits."""


def hover_trim(
    geo: RobotGeometry,
    equal_thrust: bool = True,
    limits: FanLimits | None = None,
    foot_pitch_range: tuple[float, float] | None = None,
) -> tuple[FanState, float]:
    """Solve for a zero-wrench hover state.

    equal_thrust=True (the flight strategy): all four thrusts equal, both
    feet at one angle, body pitch free. equal_thrust=False: feet stay
    thrust-up and the waist pair takes up the pitch torque instead.
    foot_pitch_range (rad), when given, bounds the trim foot angle.

    Raises NoTrimError when no in-limits trim exists.
    """
    limits = limits or FanLimits()
    if equal_thrust:
        fs, theta_pitch = _solve_equal_thrust(geo)
    else:
        fs, theta_pitch = _solve_waist_differential(geo)

    fx, fy, fz, tx, ty, tz = total_wrench(fs, geo, theta_pitch).world
    force = _FORCE_TOL * geo.weight
    torque = _TORQUE_TOL * geo.weight * max(map(abs, pitch_arms(geo, *geo.com_body[::2])))
    if not (math.hypot(fx, fz) <= force and abs(ty) <= torque):  # a NaN fails too
        raise NoTrimError(f"trim leaves a residual wrench fx={fx:.3e} N, fz={fz:.3e} N, "
                          f"ty={ty:.3e} N*m")
    if not (abs(fy) <= force and math.hypot(tx, tz) <= torque):
        raise NoTrimError(f"trim leaves a roll torque tx={tx:.3e} N*m with the CoM "
                          f"{geo.com_body[1]} m off the plane of symmetry")
    thrusts = (fs.f_front, fs.f_back, fs.f_left, fs.f_right)
    worst = max(max(thrusts) - limits.thrust_max_per_fan, limits.thrust_min - min(thrusts))
    if worst > _THRUST_TOL * geo.weight:
        raise NoTrimError(
            f"trim needs per-fan thrust outside [{limits.thrust_min}, "
            f"{limits.thrust_max_per_fan}] N (front={fs.f_front:g} N, back={fs.f_back:g} N, "
            f"left={fs.f_left:g} N, right={fs.f_right:g} N, feet at "
            f"{math.degrees(fs.theta_left):g} and {math.degrees(fs.theta_right):g} deg)"
        )
    lo, hi = foot_pitch_range or (-math.inf, math.inf)
    if not lo <= fs.theta_left <= hi:
        raise NoTrimError(f"trim foot angle {math.degrees(fs.theta_left):.3f} deg lies outside "
                          f"the foot pitch range [{math.degrees(lo):g}, {math.degrees(hi):g}] deg")
    return fs, theta_pitch


def _solve_equal_thrust(geo: RobotGeometry) -> tuple[FanState, float]:
    x_c, _, z_c = geo.com_body
    _, _, a, b = pitch_arms(geo, x_c, z_c)
    r = math.hypot(a, b)
    if abs(x_c) > r:
        raise NoTrimError(
            f"equal-thrust trim has no root: the CoM offset |x_c|={abs(x_c):.3g} m exceeds "
            f"the foot arm hypot(x_c - p_fx, z_c - p_fz)={r:.3g} m, so no foot angle "
            f"cancels the pitch torque"
        )
    theta = 0.0  # r == 0 == x_c: every angle balances
    if r > 0.0:
        arc, delta = math.acos(-x_c / r), math.atan2(b, a)
        theta = min((math.remainder(arc - delta, math.tau),
                     math.remainder(-arc - delta, math.tau)), key=abs)
    f = geo.weight / (4.0 * math.cos(0.5 * theta))
    return FanState.uniform(f, theta), 0.0 - 0.5 * theta  # +0.0, not -0.0, at theta = 0


def _solve_waist_differential(geo: RobotGeometry) -> tuple[FanState, float]:
    """Feet up, level body; the waist pair cancels the CoM pitch torque.

    With theta = theta_pitch = 0 both balance equations are linear in
    x = (f_front, f_back, f_feet): C x = d with C's rows (1, 1, 2) (vertical
    force = weight) and c2 (zero torque). The remaining freedom is closed by
    staying as close to the even split e = (W/4) 1 as the torque balance
    allows: x = e + C^T (C C^T)^-1 (d - C e), the 2x2 inverse by Cramer's
    rule.
    """
    front, back, vertical, _ = pitch_arms(geo, geo.com_body[0], geo.com_body[2])
    weight = geo.weight
    c1 = (1.0, 1.0, 2.0)
    c2 = (-front, back, 2.0 * vertical)
    even = 0.25 * weight
    r1, r2 = weight - even * sum(c1), -even * sum(c2)  # d - C e, d = (W, 0)
    g11, g12, g22 = (sum(p * q for p, q in zip(u, v)) for u, v in ((c1, c1), (c1, c2), (c2, c2)))
    # c2[1] - c2[0] = L, so c1 and c2 are independent and det > 0 up to rounding
    det = g11 * g22 - g12 * g12
    if not det > 0.0:
        raise NoTrimError("waist-differential trim has no solution: the weight and pitch "
                          "torque rows are parallel in floating point (waist fan spacing ~ 0)")
    l1, l2 = (g22 * r1 - g12 * r2) / det, (g11 * r2 - g12 * r1) / det
    f_front, f_back, f_feet = (even + p * l1 + q * l2 for p, q in zip(c1, c2))
    if min(f_front, f_back, f_feet) < 0.0:
        raise NoTrimError(
            f"waist-differential trim needs negative thrust "
            f"(front={f_front:g} N, back={f_back:g} N, feet={f_feet:g} N)"
        )
    return FanState(f_front, f_back, f_feet, f_feet, 0.0, 0.0), 0.0
