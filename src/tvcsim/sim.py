"""Fixed-step 6-DOF takeoff simulation with ground phase and perturbations.

The run starts on the ground with the feet locked at the hover-trim angle:
until the net vertical force turns positive the body is held fixed (ground
interference prevents the feet from reorienting). After liftoff the rigid
body integrates under the four-fan wrench with semi-implicit Euler (velocity
first, trapezoidal position update, exponential-map attitude) or optional
RK4. The controller runs at its own fixed rate on integer physics substeps;
thrusts follow the preplanned ramp through a first-order spool lag and foot
angles slew toward the commands at the ankle rate limit. The run ends at
touchdown, the first step after which the CoM is below its start height;
contact dynamics are out of scope.

Perturbations model the disturbances the controller exists to reject: a CoM
estimate error (the trim is computed from nominal geometry, the dynamics use
the shifted CoM) and a fixed per-foot thrust-axis pitch bias standing in for
joint position error, whose left/right asymmetry makes the yaw force couple
that spins the uncontrolled robot.

The float kernels come from one template of the equations of motion,
compiled per integrator on first use (spatial.compile_build), and read a
geometry, perturbation and dt as closure cells, and the math functions they
call by bare name as their own locals. The template is written for the one
inertia model, the diagonal point-mass surrogate, and for a body force with
no y row, as no fan pushes sideways. _kernel binds either build to them:
dynamics_step, the public one-step function (as wrench.generalized_wrench_3d
is of the wrench formula), runs the rigid-body step under wrench_kernel's
rows and compiles only that step, and run_scenario the takeoff loop, run,
and compiles only run. run carries plain floats, the 13 of the state and the
controller's gains and state among them, and writes out each source a step
runs as it stands, so a step calls only math's functions (as locals), abs
and the log's append: the controller tick (controller.TICK) every control
period, on the measured pitch, yaw and body rates about y and z, which
_measure draws only under sensor noise, from random.Random(seed); the foot
slews (controller.CLAMP) and the thrust ramp (controller.RAMP), at t = 0
too. Each phase does only its own work. A step on the ground runs only ROWS'
head wrench.LIFT, the held feet's net vertical force, for the liftoff test;
the held body's attitude, +0.0/-0.0/+0.0, sets no maximum. A step aloft
writes out the wrench rows (wrench.ROWS) and step's body, guards and
attitude readout, then updates the attitude maxima; it recomputes a foot's
sine and cosine (wrench.FOOT_TRIG) only when the foot's angle is a new float
object, which between ticks it is only while the slew limit binds.

Identical configurations produce bit-identical logs. Python keeps the
noise's random() stream across versions; Random(-s) repeats Random(s)'s, so
a negative seed is refused.
"""

from __future__ import annotations

import functools
import json
import math
import random
import textwrap
from dataclasses import asdict, dataclass, field

from .controller import (
    CLAMP,
    RAMP,
    TICK,
    TICK_CONSTANTS,
    TICK_STATE,
    AttitudeController,
    ControlMode,
    ControllerGains,
    ThrustRamp,
    tune_gains,
)
from .robot import (
    DEFAULT_FAN_MASS,
    DEFAULT_FOOT_FAN_SPACING,
    DEFAULT_MASS,
    DEFAULT_WAIST_FAN_SPACING,
    FanLimits,
    FieldError,
    Posture,
    RobotGeometry,
    builtin_posture,
    geometry_from_posture,
    write_text,
)
from .spatial import (
    GIMBAL_LOCK_MARGIN,
    EulerAngles,
    compile_build,
    float_tuple,
    quat_to_matrix,  # not called here; bench/test_bench.py rebinds it through sim
)
from .trim import hover_trim
from .wrench import FOOT_TRIG, LIFT, ROW_CONSTANTS, ROWS, FanState, wrench_constants, wrench_kernel

PHASE_GROUND = "GROUND"
PHASE_AIRBORNE = "AIRBORNE"

# event markers for the takeoff-instability bands
PITCH_EVENT_DEG = 30.0
YAW_EVENT_DEG = 40.0

POSITION_GUARD_M = 100.0
RATE_GUARD_RAD_S = 100.0
MAX_PHYSICS_DT = 0.002
MAX_STEPS = 1_000_000  # 400 default runs; a grounded run ends only after all of them
MAX_FOOT_AXIS_BIAS = math.radians(10.0)  # |Perturbation.foot_axis_misalignment_*|

LOG_HEADER = [
    "time_s", "px", "py", "pz", "vx", "vy", "vz",
    "roll_deg", "pitch_deg", "yaw_deg", "wx", "wy", "wz",
    "theta_L_cmd_deg", "theta_R_cmd_deg", "theta_L_deg", "theta_R_deg",
    "fF", "fB", "fL", "fR", "phase",
]
# every log column is a float printed with 10 significant digits, but the phase
_ROW_FORMAT = ",".join(["%.10g"] * (len(LOG_HEADER) - 1) + ["%s"]) + "\n"


class DivergenceError(Exception):
    """Raised when a step leaves the position or rate guard; dynamics_step
    passes it on and run_scenario turns it into its log's divergence events."""


@dataclass(eq=False, repr=False)
class RigidBodyState:
    """Position and velocity in {W}, attitude {B} -> {W}, body rate in {B}.

    Plain float tuples, as dynamics_step returns them; the fields also accept
    any float sequences (numpy arrays too).
    """

    position_world: tuple = (0.0, 0.0, 0.0)
    velocity_world: tuple = (0.0, 0.0, 0.0)
    orientation: tuple = (1.0, 0.0, 0.0, 0.0)  # unit quaternion [w, x, y, z]
    angular_velocity_body: tuple = (0.0, 0.0, 0.0)
    time: float = 0.0


@dataclass(eq=False, repr=False)
class Perturbation:
    """Disturbance sources applied to the true dynamics, unknown to the trim.

    com_offset (m, in {B}) and the front/back/left/right thrust_scale are float
    tuples, converted here from any float sequence (numpy arrays too)."""

    com_offset: tuple[float, float, float] = (0.0, 0.0, 0.0)
    foot_axis_misalignment_left: float = 0.0
    foot_axis_misalignment_right: float = 0.0
    thrust_scale: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)

    def __post_init__(self):
        self.com_offset = float_tuple(self.com_offset)
        self.thrust_scale = float_tuple(self.thrust_scale)
        if len(self.com_offset) != 3 or len(self.thrust_scale) != 4:
            raise FieldError("com_offset needs 3 values and thrust_scale 4",
                             "com_offset", "thrust_scale")
        for side in ("left", "right"):
            name = f"foot_axis_misalignment_{side}"
            if not abs(getattr(self, name)) <= MAX_FOOT_AXIS_BIAS:  # a NaN fails too
                raise FieldError(f"|{name}| must be <= 10 deg", name)
        front, back, left, right = self.thrust_scale
        if not (0.8 <= front <= 1.2 and 0.8 <= back <= 1.2 and 0.8 <= left <= 1.2
                and 0.8 <= right <= 1.2):
            raise FieldError("thrust_scale factors must lie in [0.8, 1.2]", "thrust_scale")
        if not all(map(math.isfinite, self.com_offset)):
            raise FieldError("com_offset must be finite", "com_offset")

    @classmethod
    def standard(cls) -> "Perturbation":
        """10 mm forward CoM error plus a +-2 deg foot-axis bias couple."""
        return cls(
            com_offset=(0.010, 0.0, 0.0),
            foot_axis_misalignment_left=math.radians(2.0),
            foot_axis_misalignment_right=math.radians(-2.0),
        )


@dataclass(eq=False, repr=False)
class ScenarioConfig:
    """One takeoff: robot, controller, thrust ramp, disturbances and integration."""

    posture: Posture = builtin_posture("P1")
    mode: ControlMode = ControlMode.BOTH_ON
    gains: ControllerGains | None = None  # None -> tuned at scenario start
    ramp: ThrustRamp = field(default_factory=ThrustRamp)
    perturbation: Perturbation = field(default_factory=Perturbation.standard)
    # bench/workloads.py reads these three names from the events record
    duration_s: float = 2.5
    dt_s: float = 1e-3
    sample_rate_hz: float = 250.0
    controller_rate: float = 250.0
    seed: int = 0
    integrator: str = "euler"
    sensor_noise_std: float = 0.0  # rad / rad-per-s, 0 disables the hook
    setpoint: EulerAngles = EulerAngles(0.0, 0.0, 0.0)
    limits: FanLimits = field(default_factory=FanLimits)
    mass_total: float = DEFAULT_MASS
    fan_spacing_waist: float = DEFAULT_WAIST_FAN_SPACING
    fan_spacing_feet: float = DEFAULT_FOOT_FAN_SPACING
    fan_mass: float = DEFAULT_FAN_MASS
    com_y: float = 0.0
    zeta: float = 0.7
    omega_n_pitch: float = 12.0
    omega_n_yaw: float = 12.0

    def __post_init__(self):
        if not 0.0 < self.dt_s <= MAX_PHYSICS_DT:  # a NaN fails too
            raise FieldError(f"physics dt must be in (0, {MAX_PHYSICS_DT}] s", "dt_s")
        self._n_steps = _steps(self.duration_s, self.dt_s, "duration_s", "duration_s")
        if self.integrator not in ("euler", "rk4"):
            raise FieldError("integrator must be 'euler' or 'rk4'", "integrator")
        if self.seed < 0:  # random.Random(-s) seeds as Random(s): one stream, one seed
            raise FieldError(f"seed must be >= 0, got {self.seed}", "seed")
        for name in ("zeta", "omega_n_pitch", "omega_n_yaw", "sensor_noise_std"):
            if not getattr(self, name) >= 0.0:  # a NaN fails too
                raise FieldError(f"{name} must be >= 0, got {getattr(self, name):g}", name)
        if not abs(self.setpoint.pitch) <= 0.5 * math.pi:  # the Z-Y-X pitch's range; NaN fails
            raise FieldError("the setpoint's pitch must lie in [-90, 90] deg, "
                             f"got {math.degrees(self.setpoint.pitch):.10g}", "pitch")
        for name in ("controller_rate", "sample_rate_hz"):
            if not getattr(self, name) > 0.0:
                raise FieldError(f"{name} must be positive, got {getattr(self, name)} Hz", name)
        self._controller_substeps = _steps(1.0 / self.controller_rate, self.dt_s,
                                           "the controller_rate period", "controller_rate")
        self._sample_substeps = _steps(1.0 / self.sample_rate_hz, self.dt_s,
                                       "the sample_rate_hz period", "sample_rate_hz")

    def geometry(self) -> RobotGeometry:
        return geometry_from_posture(
            self.posture, mass_total=self.mass_total, fan_spacing_waist=self.fan_spacing_waist,
            fan_spacing_feet=self.fan_spacing_feet, fan_mass=self.fan_mass, com_y=self.com_y)


def _steps(span: float, dt: float, what: str, name: str) -> int:
    """The whole number of dt steps in span s, from 1 to MAX_STEPS; what names span, name
    its field."""
    n = span / dt
    if not n <= MAX_STEPS:  # an overflow or a NaN fails too
        raise FieldError(f"{what} / dt_s must be at most {MAX_STEPS} steps, "
                         f"got {span} s / {dt} s", name, "dt_s")
    if n < 1.0 - 1e-9:  # -inf too, which round() cannot take
        raise FieldError(f"{what} {span} s must be at least one dt_s {dt} s step", name, "dt_s")
    if abs(n - round(n)) > 1e-9:
        raise FieldError(f"{what} {span} s must be a whole number of dt_s {dt} s steps",
                         name, "dt_s")
    return round(n)


class SimLog:
    """Time-indexed record of one run plus its event summary."""

    def __init__(self):
        self.header = list(LOG_HEADER)
        self.rows: list[tuple] = []
        self.events: dict = {}
        self.scenario: dict = {}  # asdict of the run's ScenarioConfig, as manifests record it

    def write_csv(self, path) -> bytes:
        """Write the log CSV to path, a file name or binary file; return its bytes."""
        return write_text(path, "".join([",".join(self.header) + "\n",
                                         *(_ROW_FORMAT % row for row in self.rows)]))

    def events_json(self) -> str:
        return json.dumps(self.events, indent=2, sort_keys=True, allow_nan=False)

    def write_events_json(self, path) -> bytes:
        return write_text(path, self.events_json() + "\n")


def dynamics_step(state: RigidBodyState, fan_state: FanState, geo: RobotGeometry, dt: float,
                  perturbation: Perturbation | None = None,
                  integrator: str = "euler") -> RigidBodyState:
    """Advance the free-flying rigid body by one _kernel step under fan_state's wrench rows."""
    step = _kernel("step", geo, perturbation, dt, integrator)
    rows = wrench_kernel(geo, perturbation)
    fs, t, q = fan_state, state.time + dt, state.orientation
    if sum(map(abs, q)) > 1e150:  # scaled exactly, so that q's squares cannot overflow
        q = [c * 2.0 ** -600 for c in q]
    x = step(t, *state.position_world, *state.velocity_world, *q, *state.angular_velocity_body,
             rows(fs.f_front, fs.f_back, fs.f_left, fs.f_right, fs.theta_left, fs.theta_right))
    return RigidBodyState(x[0:3], x[3:6], x[6:10], x[10:13], t)


# The takeoff step's source, one template per set of equations, which _step_builder
# writes out per integrator. A template reads the state suffixed {s} ("" for the
# step's own) and writes the derivative {k} or the stage state {n}; m, weight, i00, i11,
# i22, j00, j11, j22, h, dt and lock are closure cells. The text fixes the operations,
# so the bits.
# quat_unit written out, as the step opens and every rk4 stage and step ends
_UNIT = """\
n = sqrt(qw{n} * qw{n} + qx{n} * qx{n} + qy{n} * qy{n} + qz{n} * qz{n})
if n < 1e-300:
    raise ValueError("cannot normalize a zero quaternion")
qw{n}, qx{n}, qy{n}, qz{n} = qw{n} / n, qx{n} / n, qy{n} / n, qz{n} / n
"""
# R(q) F / m - g in {W} as (ax, ay, az), with quat_rotation_rows' entries
# for a body force (f_x, 0, f_z), as no fan pushes sideways, and
# I^-1 (tau - omega x I omega) in {B} as (bx, by, bz), for the principal
# moments i00, i11, i22 and their inverses j00, j11, j22; float 1.0 and 2.0
# spare Python's mixed int-float operation, with the same doubles
_DERIVATIVE = """\
xx, yy, zz = qx{s} * qx{s}, qy{s} * qy{s}, qz{s} * qz{s}
xy, xz, yz = qx{s} * qy{s}, qx{s} * qz{s}, qy{s} * qz{s}
sx, sy, sz = qw{s} * qx{s}, qw{s} * qy{s}, qw{s} * qz{s}
fx = (1.0 - 2.0 * (yy + zz)) * f_x + 2.0 * (xz + sy) * f_z
fy = 2.0 * (xy + sz) * f_x + 2.0 * (yz - sx) * f_z
fz = 2.0 * (xz - sy) * f_x + (1.0 - 2.0 * (xx + yy)) * f_z
ax{k}, ay{k}, az{k} = fx / m, fy / m, (fz - weight) / m
hx = i00 * wx{s}
hy = i11 * wy{s}
hz = i22 * wz{s}
rx, ry = tx - (wy{s} * hz - wz{s} * hy), ty - (wz{s} * hx - wx{s} * hz)
rz = tz - (wx{s} * hy - wy{s} * hx)
bx{k} = j00 * rx
by{k} = j11 * ry
bz{k} = j22 * rz
"""
# q (0, omega) / 2, the quaternion product without the terms of omega's zero w
_QUAT_RATE = """\
dw{k} = 0.5 * (-qx{s} * wx{s} - qy{s} * wy{s} - qz{s} * wz{s})
dx{k} = 0.5 * (qw{s} * wx{s} + qy{s} * wz{s} - qz{s} * wy{s})
dy{k} = 0.5 * (qw{s} * wy{s} - qx{s} * wz{s} + qz{s} * wx{s})
dz{k} = 0.5 * (qw{s} * wz{s} + qx{s} * wy{s} - qy{s} * wx{s})
"""
# rk4's stage state n: the step's own (v, omega, q) plus span times derivative
# k, q renormalized. The position feeds no derivative, so no stage carries one
_ADVANCE = """\
vx{n}, vy{n}, vz{n} = vx + {span} * ax{k}, vy + {span} * ay{k}, vz + {span} * az{k}
wx{n}, wy{n}, wz{n} = wx + {span} * bx{k}, wy + {span} * by{k}, wz + {span} * bz{k}
qw{n}, qx{n} = qw + {span} * dw{k}, qx + {span} * dx{k}
qy{n}, qz{n} = qy + {span} * dy{k}, qz + {span} * dz{k}
""" + _UNIT
# the divergence guards on the new p and omega ("not <=", so that a NaN trips them too)
_GUARDS = """\
if not sqrt(px * px + py * py + pz * pz) <= POSITION_GUARD_M:
    raise DivergenceError(f"position ({px:.6g}, {py:.6g}, {pz:.6g}) left the "
                          f"{POSITION_GUARD_M} m guard at t={t:.3f} s")
if not sqrt(wx * wx + wy * wy + wz * wz) <= RATE_GUARD_RAD_S:
    raise DivergenceError(f"body rate ({wx:.6g}, {wy:.6g}, {wz:.6g}) exceeded "
                          f"{RATE_GUARD_RAD_S} rad/s at t={t:.3f} s")
"""
_RK4_SUM = """\
# the (1, 2, 2, 1) / 6 sums keep this order; another one moves last
# digits of the logs. p before v: the positions read the old v
px, py, pz = (px + dt * ((vx + 2.0 * vx2 + 2.0 * vx3 + vx4) / 6.0),
              py + dt * ((vy + 2.0 * vy2 + 2.0 * vy3 + vy4) / 6.0),
              pz + dt * ((vz + 2.0 * vz2 + 2.0 * vz3 + vz4) / 6.0))
vx, vy, vz = (vx + dt * ((ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4) / 6.0),
              vy + dt * ((ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4) / 6.0),
              vz + dt * ((az1 + 2.0 * az2 + 2.0 * az3 + az4) / 6.0))
qw, qx, qy, qz = (qw + dt * ((dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4) / 6.0),
                  qx + dt * ((dx1 + 2.0 * dx2 + 2.0 * dx3 + dx4) / 6.0),
                  qy + dt * ((dy1 + 2.0 * dy2 + 2.0 * dy3 + dy4) / 6.0),
                  qz + dt * ((dz1 + 2.0 * dz2 + 2.0 * dz3 + dz4) / 6.0))
""" + _UNIT.format(n="") + """\
wx, wy, wz = (wx + dt * ((bx1 + 2.0 * bx2 + 2.0 * bx3 + bx4) / 6.0),
              wy + dt * ((by1 + 2.0 * by2 + 2.0 * by3 + by4) / 6.0),
              wz + dt * ((bz1 + 2.0 * bz2 + 2.0 * bz3 + bz4) / 6.0))
""" + _GUARDS
_EULER = """\
ux, uy, uz = vx + ax * dt, vy + ay * dt, vz + az * dt
px, py, pz = (px + 0.5 * (vx + ux) * dt, py + 0.5 * (vy + uy) * dt,
              pz + 0.5 * (vz + uz) * dt)
vx, vy, vz = ux, uy, uz
wx, wy, wz = wx + bx * dt, wy + by * dt, wz + bz * dt
""" + _GUARDS + """\
# quat_step(q, omega, dt) written out: q times the exponential-map
# increment, renormalized (the product of unit quaternions is never 0)
ex, ey, ez = wx * dt, wy * dt, wz * dt
angle = sqrt(ex * ex + ey * ey + ez * ez)
if angle < 1e-12:
    dw, dx, dy, dz = 1.0, 0.5 * ex, 0.5 * ey, 0.5 * ez
else:
    half = 0.5 * angle
    s = sin(half) / angle
    dw, dx, dy, dz = cos(half), ex * s, ey * s, ez * s
qw, qx, qy, qz = (qw * dw - qx * dx - qy * dy - qz * dz,
                  qw * dx + qx * dw + qy * dz - qz * dy,
                  qw * dy - qx * dz + qy * dw + qz * dx,
                  qw * dz + qx * dy - qy * dx + qz * dw)
n = sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
qw, qx, qy, qz = qw / n, qx / n, qy / n, qz / n
"""
# zyx_angles of R(q)'s entries, each with quat_rotation_rows' expression
_READOUT = """\
sp = -(2.0 * (qx * qz - qw * qy))
sp = sp if sp > -1.0 else -1.0  # min(1, max(-1, sp)), NaN included
pitch = asin(sp if sp < 1.0 else 1.0)
if abs(pitch) > lock:  # the degenerate rotation folds into yaw
    roll, yaw = 0.0, atan2(-(2.0 * (qx * qy - qw * qz)),
                           1.0 - 2.0 * (qx * qx + qz * qz))
else:
    roll = atan2(2.0 * (qy * qz + qw * qx), 1.0 - 2.0 * (qx * qx + qy * qy))
    yaw = atan2(2.0 * (qx * qy + qw * qz), 1.0 - 2.0 * (qy * qy + qz * qz))
"""
# The takeoff loop, run_scenario's body: {tick} is controller.TICK, {lift}
# wrench.LIFT, {rows} wrench.ROWS and {step} step's body in the airborne branch,
# {trig_*} wrench.FOOT_TRIG, {slew_*} the foot slews' controller.CLAMP and
# {ramp_*} controller.RAMP. t is the state time, summed step by step as
# dynamics_step does, now = i dt the log's; doubled braces are literal ones
_RUN = """\
def run(cfg, controller, rng, append):
    # the loop carries plain floats: 13 state floats, four thrusts, two foot
    # angles, and the controller's TICK_STATE and TICK_CONSTANTS
    px = py = pz = vx = vy = vz = qx = qy = qz = wx = wy = wz = t = 0.0
    qw = 1.0
    # the identity's readout: its pitch is asin(-(2.0 * 0.0)), which the first log row prints as -0
    roll, pitch, yaw = 0.0, -0.0, 0.0
    airborne = False
    {tick_constants} = controller.constants
    {tick_state} = controller.state
    theta_l = theta_r = trim_offset
    control_every, sample_every = cfg._controller_substeps, cfg._sample_substeps
    period, foot_step = control_every * dt, cfg.limits.foot_pitch_rate_max * dt
    k_f, k_b, k_l, k_r = cfg.perturbation.thrust_scale
    tau, n_steps = cfg.limits.thrust_time_constant, cfg._n_steps
    target_per_fan, ramp_time = cfg.ramp.target_per_fan, cfg.ramp.ramp_time
    # an ideal actuator sits on the schedule from t = 0, and alpha = 1 copies it exactly
    if tau == 0.0:
{ramp_0}        f_f, f_b, f_l, f_r = sched * k_f, sched * k_b, sched * k_l, sched * k_r
        alpha = 1.0
    else:
        f_f = f_b = f_l = f_r = 0.0
        alpha = 1.0 - math.exp(-dt / tau)  # spool lag per step
    i_2s = int(round(2.0 / dt)) if cfg.duration_s >= 2.0 else None
    liftoff = altitude = pitch_time = yaw_time = reason = touchdown = None
    termination = "duration"
    # event maxima in radians: math.degrees is monotone, so one conversion at
    # the end gives the same maxima
    max_roll = max_pitch = max_yaw = 0.0
    sin, cos, sqrt, asin, atan2, degrees = (math.sin, math.cos, math.sqrt, math.asin,
                                            math.atan2, math.degrees)
    # each foot's sine and cosine, of the angle object held_l or held_r: the
    # feet hold their trim on the ground, and aloft a foot keeps its angle
    # object over the steps between ticks unless the slew limit binds
    held_l, held_r = theta_l, theta_r
{trig}
    for i in range(n_steps + 1):
        now = i * dt
        if i % control_every == 0:  # from i = 0 on, so the commands are always set
            if rng is None:
                pitch_m, yaw_m, rate_y, rate_z = pitch, yaw, wy, wz
            else:
                pitch_m, yaw_m, rate_y, rate_z = _measure(pitch, yaw, wy, wz, cfg, rng)
{tick}        if not airborne:
            # the ground holds the body level until the net vertical force
            # lifts it; the held feet's rows feed only this test
{lift}            if f_z > weight:
                airborne = True
                liftoff = now
        if i == i_2s:
            altitude = pz

        if i % sample_every == 0:
            append((now, px, py, pz, vx, vy, vz, degrees(roll), degrees(pitch), degrees(yaw),
                    wx, wy, wz, degrees(cmd_l), degrees(cmd_r),
                    degrees(theta_l), degrees(theta_r), f_f, f_b, f_l, f_r,
                    PHASE_AIRBORNE if airborne else PHASE_GROUND))

        if i == n_steps:
            break

        t_end = now + dt
        if airborne:  # the step under the rows of the step's start
            if theta_l is not held_l:
                held_l = theta_l
{trig_l}            if theta_r is not held_r:
                held_r = theta_r
{trig_r}{rows}            t += dt
            try:
                ty = ty1 + ty2 + ty3
{step}            except DivergenceError as err:
                termination, reason = "diverged", str(err)
                break
            if pz < 0.0:
                termination, touchdown = "touchdown", (i + 1) * dt
                break
            # the maxima over the attitudes the steps start from, this one's at
            # the next step's time; a held body's +0.0/-0.0/+0.0 sets none
            a_roll, a_pitch, a_yaw = abs(roll), abs(pitch), abs(yaw)
            if a_roll > max_roll:
                max_roll = a_roll
            # a band's first crossing is always a new maximum
            if a_pitch > max_pitch:
                max_pitch = a_pitch
                if pitch_time is None and degrees(a_pitch) >= PITCH_EVENT_DEG:
                    pitch_time = (i + 1) * dt
            if a_yaw > max_yaw:
                max_yaw = a_yaw
                if yaw_time is None and degrees(a_yaw) >= YAW_EVENT_DEG:
                    yaw_time = (i + 1) * dt
            # the feet slew toward the commands over (now, now + dt]
            lo, hi = theta_l - foot_step, theta_l + foot_step
{slew_l}            lo, hi = theta_r - foot_step, theta_r + foot_step
{slew_r}        else:
            # held on the ground: the attitude, and so its angles, are unchanged
            t = t_end
        # advance the thrusts toward the schedule over (now, now + dt]
{ramp_t}        f_f += alpha * (sched * k_f - f_f)
        f_b += alpha * (sched * k_b - f_b)
        f_l += alpha * (sched * k_l - f_l)
        f_r += alpha * (sched * k_r - f_r)

    return {{
        "liftoff_time_s": liftoff,
        "never_lifted": liftoff is None,
        "altitude_at_2s_m": altitude,
        "max_abs_pitch_deg": degrees(max_pitch),
        "max_abs_yaw_deg": degrees(max_yaw),
        "max_abs_roll_deg": degrees(max_roll),
        f"pitch_exceeds_{{PITCH_EVENT_DEG:.0f}}deg_time_s": pitch_time,
        f"yaw_exceeds_{{YAW_EVENT_DEG:.0f}}deg_time_s": yaw_time,
        "diverged": reason is not None,
        "divergence_reason": reason,
        "termination": termination,
        "touchdown_time_s": touchdown,
        "final_time_s": now,
    }}
"""
_STEP = """\
def step(t, px, py, pz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz, rows):
    sqrt, sin, cos, asin, atan2 = math.sqrt, math.sin, math.cos, math.asin, math.atan2
    f_x, f_z, tx, ty1, ty2, ty3, tz = rows
    ty = ty1 + ty2 + ty3
{step}    return px, py, pz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz, roll, pitch, yaw
"""


@functools.cache
def _step_builder(integrator: str, name: str):
    """name's build(m, weight, i00, i11, i22, j00, j11, j22, h, dt, lock, *ROW_CONSTANTS),
    name "step" or "run", its templates joined as they stand, compiled on first use:
    one rk4 source of both would peak 1.4 MiB of RSS, not 0.5."""
    if integrator == "rk4":  # stage k's derivative, then stage k + 1's state or the sum
        body = ""
        for k, s, span in ((1, "", "h"), (2, 2, "h"), (3, 3, "dt"), (4, 4, None)):
            body += (_DERIVATIVE + _QUAT_RATE).format(s=s, k=k)
            body += _ADVANCE.format(n=k + 1, k=k, span=span) if span else _RK4_SUM
    else:
        body = _DERIVATIVE.format(s="", k="") + _EULER
    body = _UNIT.format(n="") + body + _READOUT
    indent = textwrap.indent
    if name == "step":
        text = _STEP.format(step=indent(body, " " * 4))
    else:
        trig = [FOOT_TRIG.format(s=side) for side in "lr"]
        slew = [CLAMP.format(out=f"theta_{side}", x=f"cmd_{side}", lo="lo", hi="hi")
                for side in "lr"]
        text = _RUN.format(
            tick_constants=TICK_CONSTANTS, tick_state=TICK_STATE, tick=indent(TICK, " " * 12),
            trig=indent("".join(trig), " " * 4), lift=indent(LIFT, " " * 12),
            trig_l=indent(trig[0], " " * 16), trig_r=indent(trig[1], " " * 16),
            rows=indent(ROWS, " " * 12), step=indent(body, " " * 16),
            slew_l=indent(slew[0], " " * 12), slew_r=indent(slew[1], " " * 12),
            ramp_0=indent(RAMP.format(t="0.0"), " " * 8),
            ramp_t=indent(RAMP.format(t="t_end"), " " * 8))
    return compile_build(name, "m, weight, i00, i11, i22, j00, j11, j22, h, dt, lock, "
                         f"{ROW_CONSTANTS}", text, f"<tvcsim.sim {integrator} {name}>", globals())


def _kernel(name: str, geo: RobotGeometry, perturbation: Perturbation | None, dt: float,
            integrator: str):
    """_step_builder(integrator, name)'s function, "step" or "run", bound to geo's step
    constants and wrench_constants, after the checks of dt and integrator.

    step(t, px, py, pz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz, rows) advances the
    free-flying rigid body by dt under wrench_kernel's rows, held over the step, to the
    state time t: the 13 new state floats (p, v, q, omega), then the new attitude's
    zyx_angles (roll, pitch, yaw). q is renormalized first, so its squares must not
    overflow (dynamics_step scales a larger q by 2^-600) and a norm below 1e-300
    raises ValueError. 'euler' updates v first, p with the velocity midpoint and q by
    quat_step of the new rate; 'rk4' is the classic fourth-order step, each stage
    rotating the body force by its own q, renormalized as quat_unit does it. The
    divergence guards read the final p and omega, euler's before its exponential map:
    a position beyond POSITION_GUARD_M, a rate beyond RATE_GUARD_RAD_S, or a NaN in
    either raises DivergenceError, naming t. run is run_scenario's takeoff loop.
    """
    if not 0.0 < dt <= MAX_PHYSICS_DT:  # a NaN fails too
        raise ValueError(f"dt must be in (0, {MAX_PHYSICS_DT}] s")
    if integrator not in ("euler", "rk4"):
        raise ValueError("integrator must be 'euler' or 'rk4'")
    (i00, _, _), (_, i11, _), (_, _, i22) = geo.inertia_body
    return _step_builder(integrator, name)(
        geo.mass_total, geo.weight, i00, i11, i22, *geo.inertia_inverse, 0.5 * dt, dt,
        0.5 * math.pi - GIMBAL_LOCK_MARGIN, *wrench_constants(geo, perturbation))


def run_scenario(cfg: ScenarioConfig) -> SimLog:
    """Deterministic closed-loop takeoff run, which ends by returning its log.

    The trim and controller gains come from the nominal geometry; the
    dynamics see the perturbed one. events["termination"] says how the run
    ended: "duration", or early at the start of a step (events["final_time_s"])
    that tripped a divergence guard ("diverged", with the guard's message in
    events["divergence_reason"]) or took the CoM below its start height
    ("touchdown", with the step's end in events["touchdown_time_s"]). No log
    row or event comes from the state that ended the run. Raises FieldError
    if the thrust ramp exceeds the per-fan cap, or if a sensor-noise draw
    overflows a measurement.
    """
    # checked here, not in ScenarioConfig: the ramp is the takeoff run's alone
    if cfg.ramp.target_per_fan > cfg.limits.thrust_max_per_fan:
        raise FieldError(f"thrust ramp target {cfg.ramp.target_per_fan} N exceeds the "
                         f"{cfg.limits.thrust_max_per_fan} N per-fan limit",
                         "target_per_fan", "thrust_max_per_fan")
    geo = cfg.geometry()
    trim_state, _trim_pitch = hover_trim(geo, equal_thrust=True, limits=cfg.limits,
                                         foot_pitch_range=cfg.posture.foot_pitch_range)
    trim_angle = trim_state.theta_left
    gains = cfg.gains or tune_gains(
        geo, hover_thrust_per_fan=trim_state.f_left, trim_foot_angle=trim_angle,
        zeta=cfg.zeta, omega_n_pitch=cfg.omega_n_pitch, omega_n_yaw=cfg.omega_n_yaw)
    controller = AttitudeController(gains, cfg.mode, cfg.posture, cfg.limits, trim_angle,
                                    setpoint=cfg.setpoint)
    rng = random.Random(cfg.seed) if cfg.sensor_noise_std > 0.0 else None  # the noise stream
    run = _kernel("run", geo, cfg.perturbation, cfg.dt_s, cfg.integrator)
    log = SimLog()
    events = run(cfg, controller, rng, log.rows.append)
    log.scenario = asdict(cfg)
    config = {"gains_used": vars(gains) | {}, "trim_foot_angle_deg": math.degrees(trim_angle)}
    log.events = {"config": log.scenario | config, **events}
    return log


def _measure(pitch, yaw, wy, wz, cfg, rng):
    """The tick's (pitch, yaw, rate_y, rate_z) under sensor noise: Box-Muller
    on four rng.random() draws, each radius of 1 - u so that log never sees 0.
    Raises FieldError where a draw overflows a measurement."""
    sigma, u = cfg.sensor_noise_std, rng.random
    r1, a1 = sigma * math.sqrt(-2.0 * math.log(1.0 - u())), math.tau * u()
    r2, a2 = sigma * math.sqrt(-2.0 * math.log(1.0 - u())), math.tau * u()
    measured = (pitch + r1 * math.cos(a1), yaw + r1 * math.sin(a1),
                wy + r2 * math.cos(a2), wz + r2 * math.sin(a2))
    if not all(map(math.isfinite, measured)):
        raise FieldError(f"sensor_noise_std {sigma:g} drew a non-finite measurement",
                         "sensor_noise_std")
    return measured
