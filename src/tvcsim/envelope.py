"""Attainable pitch-torque boundaries for the two control strategies.

DT (differential thrust) generates pitch torque from the front/back waist
thrust difference with the foot fans held straight up. TVC (thrust vector
control) additionally tilts both foot fans together, putting their horizontal
thrust component on the long lever arm between the feet and the CoM.

Both searches run under the takeoff constraint that the world-frame vertical
thrust component must at least cancel weight, so neither strategy can simply
saturate every actuator. At a fixed foot angle the extremum over thrusts is a
linear program with box bounds and one covering constraint (Durham's
attainable-moment problem), solved exactly by the greedy lp_max_covering runs
on whole arrays of LPs; a minimum is the maximum of the negated torque. DT is
the LP at foot angle 0. For TVC the LP optimum at a fixed pitch and foot angle
is a vertex with at most one fractional thrust (Durham, "Constrained control
allocation", JGCD 1993; Bodson, "Evaluation of optimization methods for
control allocation", JGCD 2002), so the maximum over the foot range is reached
at one of a few angles written down in closed form (see _table). One LP call
per sweep solves each pitch's distinct candidates, 0 among them, once: about
half repeat another bit for bit, and a repeat changes no maximum. _table
returns one row of floats per pitch in the CSV's column order: DT reads the 0
column and TVC keeps the best candidate. The envelope command writes these
rows, its level ratio read from the first; only envelope_sweep and the
single-pitch searches, each a one-pitch table, build point objects. The
independent cross-check lives in tvcsim.oracles.

Legs are assumed parallel: both feet share one thrust value and one pitch
angle throughout the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SWEEP_PITCH_RANGE, SWEEP_POINTS, EnvelopeSettings
from .robot import (EnvelopeInfeasibleError, FanLimits, FieldError, Posture, RobotGeometry,
                    write_text)
from .wrench import pitch_arms

_FEAS_TOL = 6e-12  # of the floor: 1.0e-9 N at P1's weight


@dataclass(frozen=True, eq=False, repr=False)
class EnvelopeConstraint:
    """Search bounds: vertical-force floor, per-fan cap, foot angle range."""

    min_vertical_force: float
    per_fan_max: float
    foot_angle_range: tuple[float, float]

    def __post_init__(self):  # a NaN fails each check too
        if not 0.0 < self.min_vertical_force < math.inf:
            raise ValueError("min_vertical_force must be finite and positive")
        if not 0.0 < self.per_fan_max < math.inf:
            raise ValueError("per_fan_max must be finite and positive")
        lo, hi = self.foot_angle_range
        if not lo <= hi:
            raise ValueError("foot_angle_range must be ordered (min, max)")

    @classmethod
    def hover(
        cls,
        geo: RobotGeometry,
        posture: Posture,
        limits: FanLimits | None = None,
    ) -> "EnvelopeConstraint":
        """Constraint for holding weight: vertical thrust >= M g.

        The thrust LP's per-fan floor is fixed at 0 N, so limits with a nonzero
        thrust_min are refused, a FieldError; RobotGeometry keeps M g finite.
        """
        limits = limits or FanLimits()
        if limits.thrust_min != 0.0:
            raise FieldError("the envelope search fixes the per-fan thrust floor at 0 N; "
                             f"got thrust_min {limits.thrust_min} N", "thrust_min")
        return cls(
            min_vertical_force=geo.weight,
            per_fan_max=limits.thrust_max_per_fan,
            foot_angle_range=posture.foot_pitch_range,
        )


@dataclass(eq=False, repr=False)
class EnvelopePoint:
    """Extremal pitch torques of one strategy at one body pitch angle."""

    theta_pitch: float
    tau_max: float
    tau_min: float


@dataclass(eq=False, repr=False)
class SweepPoint:
    """One sweep abscissa; a strategy entry is None where infeasible."""

    theta_pitch: float
    dt: EnvelopePoint | None
    tvc: EnvelopePoint | None


def lp_max_covering(c, a, floor, cap):
    """Maximize c.x s.t. a.x >= floor, 0 <= x_i <= cap, for each row. Exact.

    c and a are (n, k) float arrays holding one LP per row; floor and cap are
    floats shared by every row, and a.x >= floor holds to _tolerance(floor),
    so a robot scaled by a power of two scales every value bit for bit. Every
    row meets a floor <= 0, which x = 0 meets, and its x meets the floor up to
    the rounding of the greedy's sums (a zero floor has no tolerance). Returns
    (value, x): value is -inf on infeasible rows, whose x means nothing, and
    never -0.0, since the row sums add from +0.0, so equal values have equal
    bits. With a single covering constraint the optimum is reached by starting
    from the unconstrained box optimum and buying constraint slack from the
    variables with the best objective-per-slack ratio, ties to the lower index;
    at most one variable ends up strictly between its bounds. a and x are
    gathered into cost order, one array per step, so each row takes the steps
    a row-by-row loop would.
    """
    n, m = c.shape
    cols = range(m)
    tol = _tolerance(floor)

    def row_sum(v):  # left to right, as a loop over the variables adds
        return sum(v[:, i] for i in cols)

    x = np.where((c > 0.0) | ((c == 0.0) & (a > 0.0)), cap, 0.0)
    reach = row_sum(np.where(a > 0.0, a * cap, 0.0))
    gap = floor - row_sum(a * x)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # moves that raise a.x, cheapest objective loss per unit of slack first
        movable = ((x == 0.0) & (a > 0.0)) | ((x == cap) & (a < 0.0))
        order = np.argsort(np.where(movable, -(c / a), np.inf), axis=1, kind="stable")
        by_cost = np.add(order.T, m * np.arange(n), order="C")  # flat positions, a row a step
        a_s, x_s = (v.reshape(-1)[by_cost] for v in (a, x))
        up = (x_s == 0.0) & (a_s > 0.0)
        movable = up | ((x_s == cap) & (a_s < 0.0))
        slope = np.abs(a_s)
        gain, full = slope * cap, np.where(up, cap, 0.0)
        buying = gap > tol
        for k in cols:
            move = buying & movable[k]
            last = move & (gain[k] >= gap - tol)
            span = gap / slope[k]  # > 0: only rows still buying (gap > tol) use it
            np.copyto(x_s[k], full[k], where=move)
            np.copyto(x_s[k], np.where(up[k], span, cap - span), where=last)
            np.subtract(gap, gain[k], out=gap, where=move)
            np.copyto(gap, 0.0, where=last)
            buying &= ~last
    x.reshape(-1)[by_cost] = x_s  # x is contiguous, so this writes x
    value = row_sum(c * x)
    feasible = floor <= 0.0 or ~(reach < floor - tol) & ~(gap > tol)
    return np.where(feasible, value, -np.inf), x


def _tolerance(floor: float) -> float:
    """The covering constraint's tolerance: _FEAS_TOL of |floor|, so that it
    scales with the robot, and 0 at an infinite floor, which no row meets."""
    return _FEAS_TOL * abs(floor) if abs(floor) < math.inf else 0.0


def _rows(arms, theta_pitch, theta_feet):
    """LP rows (c, a) over (f_front, f_back, f_feet) at pitches (n, 1) and foot angles
    (n, k), filled in place: c the body pitch torque on the arms (tau_max rows, then
    tau_min's negated), a the vertical thrust per unit. f_feet drives both feet, hence the twos."""
    front, back, vertical, horizontal = arms
    c, a = np.empty((2, 2) + theta_feet.shape + (3,))
    c[0, ..., :2] = -front, back
    c[0, ..., 2] = 2.0 * (np.cos(theta_feet) * vertical - np.sin(theta_feet) * horizontal)
    np.negative(c[0], out=c[1])  # x * -1.0 and -x are the same double
    a[0, ..., :2] = np.cos(theta_pitch)[..., None]
    a[0, ..., 2] = 2.0 * np.cos(theta_pitch + theta_feet)
    a[1] = a[0]
    return c.reshape(-1, 3), a.reshape(-1, 3)


def _table(geo, constraint, thetas) -> list[list[float]]:
    """One row per pitch of thetas, from one LP call: (dt_tau_min, dt_tau_max,
    tvc_tau_min, tvc_tau_max) as floats, a pair nan where either direction of
    its strategy is infeasible; a FieldError naming the cap and the floor if an
    LP value overflows a float.

    Each direction (tau_max, or tau_min as the maximum of the negated torque)
    is solved at candidate foot angles that hang on the pitch alone: 0 (DT's),
    the range ends, the angles where both capped feet just meet the floor (and
    the floor +- its _tolerance) beside 0, 1 or 2 capped waist fans, and the
    stationary angles of the torque with the feet capped while a waist fan of
    torque arm c_w, or none, is fractional. TVC takes the best candidate but 0,
    or any where 0 is in the foot range.

    About half the candidates at a pitch repeat another: a range end that the
    wrap into the foot range reaches, an acos ratio clipped to +-1. An LP row
    depends only on its pitch's and angle's bits, so each distinct (pitch,
    angle) bit pattern is solved once, and the maxima over the distinct
    candidates are the maxima over all of them, bit for bit. Comparing bits,
    not values, keeps +0.0, -0.0 and NaN candidates apart.
    """
    lo, hi = constraint.foot_angle_range
    floor, cap = constraint.min_vertical_force, constraint.per_fan_max
    phi = thetas[:, None]
    cp = np.cos(phi)
    front, back, vertical, horizontal = arms = pitch_arms(geo, geo.com_body[0], geo.com_body[2])
    foot = 2.0 * (vertical - 0.0 * horizontal)  # _rows' foot column at 0: 2 (x_c - x_foot)
    # b = p_fz - z_c; 0.0 minus the arm, not its negation, keeps +0.0 where the two are equal
    c_w, b = np.array([0.0, -front, back]), 0.0 - horizontal
    feet = np.empty((len(thetas), 27))
    feet[:, :3] = 0.0, lo, hi
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # a tiny cap sends the acos ratio to +-inf, which the clip takes; a cap or
        # a floor near the float range overflows, which is reported below; the
        # (floor, waist) pairs run floor-major
        floors = floor + np.array([[-_tolerance(floor)], [0.0], [_tolerance(floor)]])
        waist = cp[:, :, None] * np.array([0.0, cap, 2.0 * cap])
        acos = np.arccos(np.clip((floors - waist) / (2.0 * cap), -1.0, 1.0)).reshape(-1, 9)
        np.subtract(acos, phi, out=feet[:, 3:12])
        np.subtract(-acos, phi, out=feet[:, 12:21])
        feet[:, 21:24] = np.arctan2(b * cp + c_w * np.sin(phi), (foot / 2 - c_w) * cp)
        np.add(feet[:, 21:24], math.pi, out=feet[:, 24:])
        feet[:, 3:] = np.minimum(lo + np.mod(feet[:, 3:] - lo, 2.0 * math.pi), hi)
        # each pitch's distinct bit patterns go to the LP once, the first of each
        # run of equal bits in rank order. Two patterns differ where their
        # wrapping int64 difference is nonzero: int64 not_equal, like integer //,
        # would page in 64-128 KiB of numpy loops nothing else here runs
        n, m = feet.shape
        bits = feet.view(np.int64)
        order = np.argsort(bits, axis=1, kind="stable")
        order += np.arange(0, n * m, m)[:, None]  # flat positions, a row in rank order
        ranked = bits.ravel()[order]
        first = np.empty((n, m), bool)
        first[:, 0] = True
        first[:, 1:] = ranked[:, 1:] - ranked[:, :-1]
        kept = order[first]
        solved, _ = lp_max_covering(
            *_rows(arms, np.repeat(thetas, m)[kept, None], feet.ravel()[kept, None]), floor, cap)
    # a repeat reads -inf, which changes no maximum's bits: LP values are never
    # -0.0, so equal values have equal bits; column 0, DT's, leads its run under
    # the stable sort, and a candidate repeating it lies in the foot range, where
    # TVC reads column 0 too
    value = np.full((2, n * m), -math.inf)
    value[:, kept] = solved.reshape(2, -1)
    value = value.reshape(2, n, m)  # (direction, pitch, candidate)
    if not (value < math.inf).all():  # a NaN fails too
        raise FieldError(f"the envelope LP overflows a float at a per-fan cap of "
                         f"{constraint.per_fan_max} N and a vertical force floor of "
                         f"{constraint.min_vertical_force} N",
                         "thrust_max_per_fan", "min_vertical_force")
    (dt_max, dt_min), (tvc_max, tvc_min) = (
        value[:, :, 0].tolist(),
        (value if lo <= 0.0 <= hi else value[:, :, 1:]).max(axis=2).tolist())

    def pair(best, worst):
        return [math.nan, math.nan] if -math.inf in (best, worst) else [-worst, best]

    return [pair(d_max, d_min) + pair(t_max, t_min)
            for d_max, d_min, t_max, t_min in zip(dt_max, dt_min, tvc_max, tvc_min)]


def _require(tau, constraint, theta_pitch, search) -> None:
    """EnvelopeInfeasibleError where tau, a _table cell, is nan."""
    if tau != tau:
        raise EnvelopeInfeasibleError(
            f"vertical force floor {constraint.min_vertical_force:g} N unreachable "
            f"at theta_pitch={math.degrees(theta_pitch):g} deg {search}")


def _search(geo, constraint, theta_pitch, column, search) -> EnvelopePoint:
    """The strategy whose pair starts at _table column (0 DT, 2 TVC) at one pitch."""
    thetas = np.array([theta_pitch])
    (row,), (th,) = _table(geo, constraint, thetas), thetas.tolist()
    tau_min, tau_max = row[column:column + 2]
    _require(tau_min, constraint, theta_pitch, search)
    return EnvelopePoint(th, tau_max, tau_min)


def max_pitch_torque_dt(
    geo: RobotGeometry, theta_pitch: float, constraint: EnvelopeConstraint
) -> EnvelopePoint:
    """Extremal pitch torque with feet locked thrust-up (DT strategy)."""
    return _search(geo, constraint, theta_pitch, 0, "with feet up")


def max_pitch_torque_tvc(
    geo: RobotGeometry, theta_pitch: float, constraint: EnvelopeConstraint
) -> EnvelopePoint:
    """Extremal pitch torque with the foot pitch angle free in its range."""
    return _search(geo, constraint, theta_pitch, 2, "over the foot range")


def _abscissae(settings):
    """envelope_sweep's pitches: n_points evenly spaced, or a zero-width range's one."""
    lo, hi = settings.theta_pitch_range
    return np.array([lo]) if lo == hi else np.linspace(lo, hi, settings.n_points)


def envelope_sweep(
    geo: RobotGeometry,
    constraint: EnvelopeConstraint,
    theta_pitch_range: tuple[float, float] = SWEEP_PITCH_RANGE,
    n_points: int = SWEEP_POINTS,
) -> list[SweepPoint]:
    """Evaluate DT and TVC extrema over an evenly spaced pitch-angle sweep.

    The range and point count are checked as EnvelopeSettings checks them. An
    infeasible strategy is None at its point rather than aborting the sweep.
    """
    thetas = _abscissae(EnvelopeSettings(theta_pitch_range, n_points))

    def point(th, tau_min, tau_max):
        return None if tau_min != tau_min else EnvelopePoint(th, tau_max, tau_min)

    return [SweepPoint(th, point(th, *row[:2]), point(th, *row[2:]))
            for th, row in zip(thetas.tolist(), _table(geo, constraint, thetas))]


ENVELOPE_CSV_HEADER = [
    "theta_pitch_deg",
    "dt_tau_min",
    "dt_tau_max",
    "tvc_tau_min",
    "tvc_tau_max",
    "feasible_flag",
]
# one envelope_rows row as csv.writer prints the cells
_ROW_FORMAT = "%.6g,%.10g,%.10g,%.10g,%.10g,%d\r\n"


def envelope_rows(thetas, table) -> list[list]:
    """One row per pitch of thetas (rad) in ENVELOPE_CSV_HEADER order: the pitch
    in degrees, _table's row, and 1 where neither strategy's pair is nan."""
    return [[math.degrees(th), *taus, int(taus[0] == taus[0] and taus[2] == taus[2])]
            for th, taus in zip(thetas.tolist(), table)]


def write_envelope_csv(rows: list[list], path) -> bytes:
    """envelope_rows' rows under ENVELOPE_CSV_HEADER, written to path, a file name
    or binary file, as csv.writer writes them: rows end in \\r\\n, no cell needs
    quoting, and nan marks an infeasible strategy. Returns the bytes written."""
    return write_text(path, "".join([",".join(ENVELOPE_CSV_HEADER) + "\r\n",
                                     *(_ROW_FORMAT % tuple(row) for row in rows)]))


def _ratio(row, constraint, theta_pitch) -> tuple[float, float]:
    """(tau_max ratio, |tau_min| ratio) of TVC over DT in _table's row at theta_pitch."""
    dt_min, dt_max, tvc_min, tvc_max = row
    _require(dt_min, constraint, theta_pitch, "with feet up")
    _require(tvc_min, constraint, theta_pitch, "over the foot range")
    ratio_max = math.inf if dt_max <= 0.0 else tvc_max / dt_max
    ratio_min = math.inf if dt_min >= 0.0 else tvc_min / dt_min
    return ratio_max, ratio_min


def tvc_dt_ratio(
    geo: RobotGeometry, constraint: EnvelopeConstraint, theta_pitch: float = 0.0
) -> tuple[float, float]:
    """(tau_max ratio, |tau_min| ratio) of TVC over DT at one pitch angle.

    Raises EnvelopeInfeasibleError where either strategy is infeasible.
    """
    (row,) = _table(geo, constraint, np.array([theta_pitch]))
    return _ratio(row, constraint, theta_pitch)


def _level_ratio_and_sweep(geo, constraint, settings):
    """(tvc_dt_ratio(geo, constraint), envelope_rows over the range and point
    count of settings, an EnvelopeSettings), from one LP call whose first row
    is the level pitch."""
    thetas = _abscissae(settings)
    level, *table = _table(geo, constraint, np.concatenate([[0.0], thetas]))
    return _ratio(level, constraint, 0.0), envelope_rows(thetas, table)
