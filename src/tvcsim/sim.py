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

A run builds one float kernel, run_kernel, from its geometry, perturbation,
dt and integrator, and its loop carries plain floats, the 13 of the state
among them: each step evaluates the kernel's wrench once, for the liftoff
check on the ground or the step aloft, and a step aloft is one call of the
kernel's step, which also checks the divergence guards and reads out the
new attitude's roll, pitch and yaw. A controller tick passes the measured
pitch, yaw and body rates about y and z to AttitudeController.step as
floats and gets the two foot commands back; the feet slew toward them
through controller.clamp. dynamics_step is the kernel's public one-step wrapper, as
wrench.generalized_wrench_3d is of the wrench formula.

Identical configurations produce bit-identical logs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

from .controller import (
    AttitudeController,
    ControlMode,
    ControllerGains,
    ThrustRamp,
    clamp,
    thrust_schedule,
    tune_gains,
)
from .robot import (
    DEFAULT_FAN_MASS,
    DEFAULT_FOOT_FAN_SPACING,
    DEFAULT_MASS,
    DEFAULT_WAIST_FAN_SPACING,
    GRAVITY,
    FanLimits,
    Posture,
    RobotGeometry,
    builtin_posture,
    geometry_from_posture,
    write_text,
)
from .spatial import (
    GIMBAL_LOCK_MARGIN,
    EulerAngles,
    quat_to_matrix,  # not called here; bench/test_bench.py rebinds it through sim
)
from .trim import hover_trim
from .wrench import FanState, wrench_kernel

PHASE_GROUND = "GROUND"
PHASE_AIRBORNE = "AIRBORNE"

# event markers for the takeoff-instability bands
PITCH_EVENT_DEG = 30.0
YAW_EVENT_DEG = 40.0

POSITION_GUARD_M = 100.0
RATE_GUARD_RAD_S = 100.0
MAX_PHYSICS_DT = 0.002
MAX_STEPS = 1_000_000  # 400 default runs; a grounded run ends only after all of them

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


@dataclass
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


@dataclass
class Perturbation:
    """Disturbance sources applied to the true dynamics, unknown to the trim.

    com_offset (m, in {B}) and the front/back/left/right thrust_scale are float
    tuples, converted here from any float sequence (numpy arrays too)."""

    com_offset: tuple[float, float, float] = (0.0, 0.0, 0.0)
    foot_axis_misalignment_left: float = 0.0
    foot_axis_misalignment_right: float = 0.0
    thrust_scale: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)

    def __post_init__(self):
        self.com_offset = tuple(map(float, self.com_offset))
        self.thrust_scale = tuple(map(float, self.thrust_scale))
        if len(self.com_offset) != 3 or len(self.thrust_scale) != 4:
            raise ValueError("com_offset needs 3 values and thrust_scale 4")
        cap = math.radians(10.0)
        for name in ("foot_axis_misalignment_left", "foot_axis_misalignment_right"):
            if abs(getattr(self, name)) > cap:
                raise ValueError(f"|{name}| must be <= 10 deg")
        if not all(0.8 <= k <= 1.2 for k in self.thrust_scale):  # a NaN fails too
            raise ValueError("thrust_scale factors must lie in [0.8, 1.2]")

    @classmethod
    def standard(cls) -> "Perturbation":
        """10 mm forward CoM error plus a +-2 deg foot-axis bias couple."""
        return cls(
            com_offset=(0.010, 0.0, 0.0),
            foot_axis_misalignment_left=math.radians(2.0),
            foot_axis_misalignment_right=math.radians(-2.0),
        )


@dataclass
class ScenarioConfig:
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
    setpoint: EulerAngles = field(default_factory=lambda: EulerAngles(0.0, 0.0, 0.0))
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
            raise ValueError(f"physics dt must be in (0, {MAX_PHYSICS_DT}] s")
        self._n_steps = _steps(self.duration_s, self.dt_s, "sim.duration_s")
        if self.integrator not in ("euler", "rk4"):
            raise ValueError("integrator must be 'euler' or 'rk4'")
        if self.seed < 0:  # numpy's Generator takes no negative seed
            raise ValueError(f"sim.seed must be >= 0, got {self.seed}")
        for key, value in (("controller.damping_ratio", self.zeta),
                           ("controller.natural_freq_pitch_rad_s", self.omega_n_pitch),
                           ("controller.natural_freq_yaw_rad_s", self.omega_n_yaw),
                           ("sim.sensor_noise_std", self.sensor_noise_std)):
            if not value >= 0.0:  # a NaN fails too
                raise ValueError(f"{key} must be >= 0, got {value:g}")
        if not abs(self.setpoint.pitch) <= 0.5 * math.pi:  # the Z-Y-X pitch's range; NaN fails
            raise ValueError("controller.setpoint_pitch_deg must lie in [-90, 90], "
                             f"got {math.degrees(self.setpoint.pitch):.10g}")
        for key, rate in (("controller.rate_hz", self.controller_rate),
                          ("sim.sample_rate_hz", self.sample_rate_hz)):
            if not rate > 0.0:
                raise ValueError(f"{key} must be positive, got {rate} Hz")
        self._controller_substeps = _steps(1.0 / self.controller_rate, self.dt_s,
                                           "the controller.rate_hz period")
        self._sample_substeps = _steps(1.0 / self.sample_rate_hz, self.dt_s,
                                       "the sim.sample_rate_hz period")

    def geometry(self) -> RobotGeometry:
        return geometry_from_posture(
            self.posture, mass_total=self.mass_total, fan_spacing_waist=self.fan_spacing_waist,
            fan_spacing_feet=self.fan_spacing_feet, fan_mass=self.fan_mass, com_y=self.com_y)


def _steps(span: float, dt: float, what: str) -> int:
    """The whole number of dt steps in span s, from 1 to MAX_STEPS; what names span."""
    n = span / dt
    if not n <= MAX_STEPS:  # an overflow or a NaN fails too
        raise ValueError(f"{what} / sim.dt_s must be at most {MAX_STEPS} steps, "
                         f"got {span} s / {dt} s")
    if n < 1.0 - 1e-9:  # -inf too, which round() cannot take
        raise ValueError(f"{what} {span} s must be at least one sim.dt_s {dt} s step")
    if abs(n - round(n)) > 1e-9:
        raise ValueError(f"{what} {span} s must be a whole number of sim.dt_s {dt} s steps")
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
    """Advance the free-flying rigid body by one step of run_kernel."""
    wrench, step = run_kernel(geo, perturbation, dt, integrator)
    fs = fan_state
    t = state.time + dt
    x = step(t, *state.position_world, *state.velocity_world, *state.orientation,
             *state.angular_velocity_body,
             wrench(fs.f_front, fs.f_back, fs.f_left, fs.f_right, fs.theta_left, fs.theta_right))
    return RigidBodyState(x[0:3], x[3:6], x[6:10], x[10:13], t)


def run_kernel(geo: RobotGeometry, perturbation: Perturbation | None, dt: float,
               integrator: str):
    """The takeoff's float kernel, built once per run: (wrench, step).

    wrench(f_F, f_B, f_L, f_R, theta_L, theta_R) is wrench_kernel's body rows.
    step(t, px, py, pz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz, rows) advances
    the free-flying rigid body by dt under those rows, held over the step, to
    the state time t, and returns the 13 new state floats (p, v, q, omega)
    followed by the new attitude's Z-Y-X (roll, pitch, yaw), zyx_angles of
    its rotation rows. q is renormalized first and every stage rotates the
    body force by its own attitude. 'euler' updates velocities first,
    positions with the velocity midpoint (exact for constant accelerations)
    and the attitude by the exponential map of the new body rate, quat_step
    written out; 'rk4' is the classic fourth-order step written out on
    floats: each of its four stages evaluates accel's expressions written
    out, at a state whose quaternion is renormalized as quat_unit does it,
    and the step adds the (1, 2, 2, 1) / 6 weighted sum of the stage
    derivatives, so an rk4 step makes no Python-level call. Either way the
    step ends in the divergence guards: a new position beyond
    POSITION_GUARD_M, a body rate beyond RATE_GUARD_RAD_S, or a NaN in
    either raises DivergenceError, naming t.
    """
    if not 0.0 < dt <= MAX_PHYSICS_DT:  # a NaN fails too
        raise ValueError(f"dt must be in (0, {MAX_PHYSICS_DT}] s")
    if integrator not in ("euler", "rk4"):
        raise ValueError("integrator must be 'euler' or 'rk4'")
    m, weight = geo.mass_total, geo.weight
    (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = geo.inertia_body
    j00, j01, j02, j10, j11, j12, j20, j21, j22 = geo.inertia_inverse_rows
    f_y = 0.0  # the body force's zero y row, rotated as any row so signed zeros agree
    h = 0.5 * dt
    rk4 = integrator == "rk4"
    lock = 0.5 * math.pi - GIMBAL_LOCK_MARGIN

    def accel(qw, qx, qy, qz, wx, wy, wz, f_x, f_z, tx, ty, tz):
        """R(q) F / m - g in {W} and I^-1 (tau - omega x I omega) in {B}."""
        xx, yy, zz = qx * qx, qy * qy, qz * qz
        xy, xz, yz, sx, sy, sz = qx * qy, qx * qz, qy * qz, qw * qx, qw * qy, qw * qz
        # R(q) F, with quat_rotation_rows' entries; float 1.0 and 2.0 spare
        # Python's mixed int-float operation, with the same doubles
        fx = (1.0 - 2.0 * (yy + zz)) * f_x + 2.0 * (xy - sz) * f_y + 2.0 * (xz + sy) * f_z
        fy = 2.0 * (xy + sz) * f_x + (1.0 - 2.0 * (xx + zz)) * f_y + 2.0 * (yz - sx) * f_z
        fz = 2.0 * (xz - sy) * f_x + 2.0 * (yz + sx) * f_y + (1.0 - 2.0 * (xx + yy)) * f_z
        hx = i00 * wx + i01 * wy + i02 * wz  # angular momentum I omega
        hy = i10 * wx + i11 * wy + i12 * wz
        hz = i20 * wx + i21 * wy + i22 * wz
        rx = tx - (wy * hz - wz * hy)
        ry = ty - (wz * hx - wx * hz)
        rz = tz - (wx * hy - wy * hx)
        return (fx / m, fy / m, (fz - weight) / m,
                j00 * rx + j01 * ry + j02 * rz,
                j10 * rx + j11 * ry + j12 * rz,
                j20 * rx + j21 * ry + j22 * rz)

    def step(t, px, py, pz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz, rows):
        f_x, f_z, tx, ty1, ty2, ty3, tz = rows
        ty = ty1 + ty2 + ty3
        n = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)  # quat_unit written out
        if n < 1e-300:
            raise ValueError("cannot normalize a zero quaternion")
        qw, qx, qy, qz = qw / n, qx / n, qy / n, qz / n
        if rk4:
            # The position feeds no derivative, so stage n carries (v, w, q)n only,
            # stage 1 the step's own. Its derivative is (a, b)n, accel's body
            # written out operand for operand, and q (0, omega) / 2 as
            # (dw, dx, dy, dz)n, the quaternion product written out without the
            # terms of omega's zero w. Stages 2-4 and the step renormalize their
            # quaternion as quat_unit does, so the branch calls only math.sqrt
            xx, yy, zz = qx * qx, qy * qy, qz * qz
            xy, xz, yz = qx * qy, qx * qz, qy * qz
            sx, sy, sz = qw * qx, qw * qy, qw * qz
            fx = (1.0 - 2.0 * (yy + zz)) * f_x + 2.0 * (xy - sz) * f_y + 2.0 * (xz + sy) * f_z
            fy = 2.0 * (xy + sz) * f_x + (1.0 - 2.0 * (xx + zz)) * f_y + 2.0 * (yz - sx) * f_z
            fz = 2.0 * (xz - sy) * f_x + 2.0 * (yz + sx) * f_y + (1.0 - 2.0 * (xx + yy)) * f_z
            ax1, ay1, az1 = fx / m, fy / m, (fz - weight) / m
            hx = i00 * wx + i01 * wy + i02 * wz
            hy = i10 * wx + i11 * wy + i12 * wz
            hz = i20 * wx + i21 * wy + i22 * wz
            rx, ry = tx - (wy * hz - wz * hy), ty - (wz * hx - wx * hz)
            rz = tz - (wx * hy - wy * hx)
            bx1 = j00 * rx + j01 * ry + j02 * rz
            by1 = j10 * rx + j11 * ry + j12 * rz
            bz1 = j20 * rx + j21 * ry + j22 * rz
            dw1 = 0.5 * (-qx * wx - qy * wy - qz * wz)
            dx1 = 0.5 * (qw * wx + qy * wz - qz * wy)
            dy1 = 0.5 * (qw * wy - qx * wz + qz * wx)
            dz1 = 0.5 * (qw * wz + qx * wy - qy * wx)
            vx2, vy2, vz2 = vx + h * ax1, vy + h * ay1, vz + h * az1
            wx2, wy2, wz2 = wx + h * bx1, wy + h * by1, wz + h * bz1
            qw2, qx2 = qw + h * dw1, qx + h * dx1
            qy2, qz2 = qy + h * dy1, qz + h * dz1
            n = math.sqrt(qw2 * qw2 + qx2 * qx2 + qy2 * qy2 + qz2 * qz2)
            if n < 1e-300:
                raise ValueError("cannot normalize a zero quaternion")
            qw2, qx2, qy2, qz2 = qw2 / n, qx2 / n, qy2 / n, qz2 / n
            xx, yy, zz = qx2 * qx2, qy2 * qy2, qz2 * qz2
            xy, xz, yz = qx2 * qy2, qx2 * qz2, qy2 * qz2
            sx, sy, sz = qw2 * qx2, qw2 * qy2, qw2 * qz2
            fx = (1.0 - 2.0 * (yy + zz)) * f_x + 2.0 * (xy - sz) * f_y + 2.0 * (xz + sy) * f_z
            fy = 2.0 * (xy + sz) * f_x + (1.0 - 2.0 * (xx + zz)) * f_y + 2.0 * (yz - sx) * f_z
            fz = 2.0 * (xz - sy) * f_x + 2.0 * (yz + sx) * f_y + (1.0 - 2.0 * (xx + yy)) * f_z
            ax2, ay2, az2 = fx / m, fy / m, (fz - weight) / m
            hx = i00 * wx2 + i01 * wy2 + i02 * wz2
            hy = i10 * wx2 + i11 * wy2 + i12 * wz2
            hz = i20 * wx2 + i21 * wy2 + i22 * wz2
            rx, ry = tx - (wy2 * hz - wz2 * hy), ty - (wz2 * hx - wx2 * hz)
            rz = tz - (wx2 * hy - wy2 * hx)
            bx2 = j00 * rx + j01 * ry + j02 * rz
            by2 = j10 * rx + j11 * ry + j12 * rz
            bz2 = j20 * rx + j21 * ry + j22 * rz
            dw2 = 0.5 * (-qx2 * wx2 - qy2 * wy2 - qz2 * wz2)
            dx2 = 0.5 * (qw2 * wx2 + qy2 * wz2 - qz2 * wy2)
            dy2 = 0.5 * (qw2 * wy2 - qx2 * wz2 + qz2 * wx2)
            dz2 = 0.5 * (qw2 * wz2 + qx2 * wy2 - qy2 * wx2)
            vx3, vy3, vz3 = vx + h * ax2, vy + h * ay2, vz + h * az2
            wx3, wy3, wz3 = wx + h * bx2, wy + h * by2, wz + h * bz2
            qw3, qx3 = qw + h * dw2, qx + h * dx2
            qy3, qz3 = qy + h * dy2, qz + h * dz2
            n = math.sqrt(qw3 * qw3 + qx3 * qx3 + qy3 * qy3 + qz3 * qz3)
            if n < 1e-300:
                raise ValueError("cannot normalize a zero quaternion")
            qw3, qx3, qy3, qz3 = qw3 / n, qx3 / n, qy3 / n, qz3 / n
            xx, yy, zz = qx3 * qx3, qy3 * qy3, qz3 * qz3
            xy, xz, yz = qx3 * qy3, qx3 * qz3, qy3 * qz3
            sx, sy, sz = qw3 * qx3, qw3 * qy3, qw3 * qz3
            fx = (1.0 - 2.0 * (yy + zz)) * f_x + 2.0 * (xy - sz) * f_y + 2.0 * (xz + sy) * f_z
            fy = 2.0 * (xy + sz) * f_x + (1.0 - 2.0 * (xx + zz)) * f_y + 2.0 * (yz - sx) * f_z
            fz = 2.0 * (xz - sy) * f_x + 2.0 * (yz + sx) * f_y + (1.0 - 2.0 * (xx + yy)) * f_z
            ax3, ay3, az3 = fx / m, fy / m, (fz - weight) / m
            hx = i00 * wx3 + i01 * wy3 + i02 * wz3
            hy = i10 * wx3 + i11 * wy3 + i12 * wz3
            hz = i20 * wx3 + i21 * wy3 + i22 * wz3
            rx, ry = tx - (wy3 * hz - wz3 * hy), ty - (wz3 * hx - wx3 * hz)
            rz = tz - (wx3 * hy - wy3 * hx)
            bx3 = j00 * rx + j01 * ry + j02 * rz
            by3 = j10 * rx + j11 * ry + j12 * rz
            bz3 = j20 * rx + j21 * ry + j22 * rz
            dw3 = 0.5 * (-qx3 * wx3 - qy3 * wy3 - qz3 * wz3)
            dx3 = 0.5 * (qw3 * wx3 + qy3 * wz3 - qz3 * wy3)
            dy3 = 0.5 * (qw3 * wy3 - qx3 * wz3 + qz3 * wx3)
            dz3 = 0.5 * (qw3 * wz3 + qx3 * wy3 - qy3 * wx3)
            vx4, vy4, vz4 = vx + dt * ax3, vy + dt * ay3, vz + dt * az3
            wx4, wy4, wz4 = wx + dt * bx3, wy + dt * by3, wz + dt * bz3
            qw4, qx4 = qw + dt * dw3, qx + dt * dx3
            qy4, qz4 = qy + dt * dy3, qz + dt * dz3
            n = math.sqrt(qw4 * qw4 + qx4 * qx4 + qy4 * qy4 + qz4 * qz4)
            if n < 1e-300:
                raise ValueError("cannot normalize a zero quaternion")
            qw4, qx4, qy4, qz4 = qw4 / n, qx4 / n, qy4 / n, qz4 / n
            xx, yy, zz = qx4 * qx4, qy4 * qy4, qz4 * qz4
            xy, xz, yz = qx4 * qy4, qx4 * qz4, qy4 * qz4
            sx, sy, sz = qw4 * qx4, qw4 * qy4, qw4 * qz4
            fx = (1.0 - 2.0 * (yy + zz)) * f_x + 2.0 * (xy - sz) * f_y + 2.0 * (xz + sy) * f_z
            fy = 2.0 * (xy + sz) * f_x + (1.0 - 2.0 * (xx + zz)) * f_y + 2.0 * (yz - sx) * f_z
            fz = 2.0 * (xz - sy) * f_x + 2.0 * (yz + sx) * f_y + (1.0 - 2.0 * (xx + yy)) * f_z
            ax4, ay4, az4 = fx / m, fy / m, (fz - weight) / m
            hx = i00 * wx4 + i01 * wy4 + i02 * wz4
            hy = i10 * wx4 + i11 * wy4 + i12 * wz4
            hz = i20 * wx4 + i21 * wy4 + i22 * wz4
            rx, ry = tx - (wy4 * hz - wz4 * hy), ty - (wz4 * hx - wx4 * hz)
            rz = tz - (wx4 * hy - wy4 * hx)
            bx4 = j00 * rx + j01 * ry + j02 * rz
            by4 = j10 * rx + j11 * ry + j12 * rz
            bz4 = j20 * rx + j21 * ry + j22 * rz
            dw4 = 0.5 * (-qx4 * wx4 - qy4 * wy4 - qz4 * wz4)
            dx4 = 0.5 * (qw4 * wx4 + qy4 * wz4 - qz4 * wy4)
            dy4 = 0.5 * (qw4 * wy4 - qx4 * wz4 + qz4 * wx4)
            dz4 = 0.5 * (qw4 * wz4 + qx4 * wy4 - qy4 * wx4)
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
            n = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
            if n < 1e-300:
                raise ValueError("cannot normalize a zero quaternion")
            qw, qx, qy, qz = qw / n, qx / n, qy / n, qz / n
            wx, wy, wz = (wx + dt * ((bx1 + 2.0 * bx2 + 2.0 * bx3 + bx4) / 6.0),
                          wy + dt * ((by1 + 2.0 * by2 + 2.0 * by3 + by4) / 6.0),
                          wz + dt * ((bz1 + 2.0 * bz2 + 2.0 * bz3 + bz4) / 6.0))
        else:
            ax, ay, az, bx, by, bz = accel(qw, qx, qy, qz, wx, wy, wz, f_x, f_z, tx, ty, tz)
            ux, uy, uz = vx + ax * dt, vy + ay * dt, vz + az * dt
            px, py, pz = (px + 0.5 * (vx + ux) * dt, py + 0.5 * (vy + uy) * dt,
                          pz + 0.5 * (vz + uz) * dt)
            vx, vy, vz = ux, uy, uz
            wx, wy, wz = wx + bx * dt, wy + by * dt, wz + bz * dt
            # quat_step(q, omega, dt) written out: q times the exponential-map
            # increment, renormalized (the product of unit quaternions is never 0)
            ex, ey, ez = wx * dt, wy * dt, wz * dt
            angle = math.sqrt(ex * ex + ey * ey + ez * ez)
            if angle < 1e-12:
                dw, dx, dy, dz = 1.0, 0.5 * ex, 0.5 * ey, 0.5 * ez
            else:
                half = 0.5 * angle
                s = math.sin(half) / angle
                dw, dx, dy, dz = math.cos(half), ex * s, ey * s, ez * s
            qw, qx, qy, qz = (qw * dw - qx * dx - qy * dy - qz * dz,
                              qw * dx + qx * dw + qy * dz - qz * dy,
                              qw * dy - qx * dz + qy * dw + qz * dx,
                              qw * dz + qx * dy - qy * dx + qz * dw)
            n = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
            qw, qx, qy, qz = qw / n, qx / n, qy / n, qz / n
        # "not <=" so that a NaN state trips the guards too
        if not math.sqrt(px * px + py * py + pz * pz) <= POSITION_GUARD_M:
            raise DivergenceError(f"position ({px:.6g}, {py:.6g}, {pz:.6g}) left the "
                                  f"{POSITION_GUARD_M} m guard at t={t:.3f} s")
        if not math.sqrt(wx * wx + wy * wy + wz * wz) <= RATE_GUARD_RAD_S:
            raise DivergenceError(f"body rate ({wx:.6g}, {wy:.6g}, {wz:.6g}) exceeded "
                                  f"{RATE_GUARD_RAD_S} rad/s at t={t:.3f} s")
        # zyx_angles of R(q)'s entries, each with quat_rotation_rows' expression
        sp = -(2.0 * (qx * qz - qw * qy))
        sp = sp if sp > -1.0 else -1.0  # min(1, max(-1, sp)), NaN included
        pitch = math.asin(sp if sp < 1.0 else 1.0)
        if abs(pitch) > lock:  # the degenerate rotation folds into yaw
            roll, yaw = 0.0, math.atan2(-(2.0 * (qx * qy - qw * qz)),
                                        1.0 - 2.0 * (qx * qx + qz * qz))
        else:
            roll = math.atan2(2.0 * (qy * qz + qw * qx), 1.0 - 2.0 * (qx * qx + qy * qy))
            yaw = math.atan2(2.0 * (qx * qy + qw * qz), 1.0 - 2.0 * (qy * qy + qz * qz))
        return px, py, pz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz, roll, pitch, yaw

    return wrench_kernel(geo, perturbation), step


def run_scenario(cfg: ScenarioConfig) -> SimLog:
    """Deterministic closed-loop takeoff run, which ends by returning its log.

    The trim and controller gains come from the nominal geometry; the
    dynamics see the perturbed one. events["termination"] says how the run
    ended: "duration", or early at the start of a step (events["final_time_s"])
    that tripped a divergence guard ("diverged", with the guard's message in
    events["divergence_reason"]) or took the CoM below its start height
    ("touchdown", with the step's end in events["touchdown_time_s"]). No log
    row or event comes from the state that ended the run. Raises ValueError
    if the thrust ramp exceeds the per-fan cap.
    """
    # checked here, not in ScenarioConfig: the ramp is the takeoff run's alone
    if cfg.ramp.target_per_fan > cfg.limits.thrust_max_per_fan:
        raise ValueError(
            f"thrust ramp target {cfg.ramp.target_per_fan} N exceeds the "
            f"{cfg.limits.thrust_max_per_fan} N per-fan limit"
        )
    geo = cfg.geometry()
    trim_state, _trim_pitch = hover_trim(geo, equal_thrust=True, limits=cfg.limits,
                                         foot_pitch_range=cfg.posture.foot_pitch_range)
    trim_angle = trim_state.theta_left
    gains = cfg.gains or tune_gains(
        geo, hover_thrust_per_fan=trim_state.f_left, trim_foot_angle=trim_angle,
        zeta=cfg.zeta, omega_n_pitch=cfg.omega_n_pitch, omega_n_yaw=cfg.omega_n_yaw)
    controller = AttitudeController(gains, cfg.mode, cfg.posture, cfg.limits, trim_angle,
                                    setpoint=cfg.setpoint)
    rng = None  # the seeded noise source, the loop's one use of numpy
    if cfg.sensor_noise_std > 0.0:
        import numpy as np
        rng = np.random.default_rng(cfg.seed)
    dt = cfg.dt_s
    wrench, step = run_kernel(geo, cfg.perturbation, dt, cfg.integrator)
    weight = geo.weight

    # the loop carries plain floats: 13 state floats, four thrusts, two foot angles
    px = py = pz = vx = vy = vz = qx = qy = qz = wx = wy = wz = 0.0
    qw = 1.0
    clock = 0.0  # the state time, summed step by step as dynamics_step does
    # the identity's readout: its pitch is asin(-(2.0 * 0.0)), which the first log row prints as -0
    roll, pitch, yaw = 0.0, -0.0, 0.0
    airborne = False
    foot_left = foot_right = trim_angle
    control_every, sample_every = cfg._controller_substeps, cfg._sample_substeps
    foot_step = cfg.limits.foot_pitch_rate_max * dt
    k_f, k_b, k_l, k_r = cfg.perturbation.thrust_scale
    tau = cfg.limits.thrust_time_constant
    # an ideal actuator already sits on the schedule at t = 0
    if tau == 0.0:
        sched = thrust_schedule(0.0, cfg.ramp)
        f_f, f_b, f_l, f_r = sched * k_f, sched * k_b, sched * k_l, sched * k_r
    else:
        f_f = f_b = f_l = f_r = 0.0
        alpha = 1.0 - math.exp(-dt / tau)  # spool lag per step
    n_steps = cfg._n_steps
    i_2s = int(round(2.0 / dt)) if cfg.duration_s >= 2.0 else None
    liftoff = altitude = pitch_time = yaw_time = reason = touchdown = None
    termination = "duration"
    # event maxima in radians: math.degrees is monotone, so one conversion at
    # the end gives the same maxima
    max_roll = max_pitch = max_yaw = 0.0
    log = SimLog()
    append, degrees = log.rows.append, math.degrees

    for i in range(n_steps + 1):
        t = i * dt
        if i % control_every == 0:  # from i = 0 on, so the commands are always set
            cmd_left, cmd_right = controller.step(*_measure(pitch, yaw, wy, wz, cfg, rng),
                                                  control_every * dt)

        rows = wrench(f_f, f_b, f_l, f_r, foot_left, foot_right)
        # the ground holds the body level until the net vertical force lifts it
        if not airborne and rows[1] > weight:
            airborne = True
            liftoff = t

        a_roll, a_pitch, a_yaw = abs(roll), abs(pitch), abs(yaw)
        if a_roll > max_roll:
            max_roll = a_roll
        # a band's first crossing is always a new maximum
        if a_pitch > max_pitch:
            max_pitch = a_pitch
            if pitch_time is None and degrees(a_pitch) >= PITCH_EVENT_DEG:
                pitch_time = t
        if a_yaw > max_yaw:
            max_yaw = a_yaw
            if yaw_time is None and degrees(a_yaw) >= YAW_EVENT_DEG:
                yaw_time = t
        if i == i_2s:
            altitude = pz

        if i % sample_every == 0:
            append((t, px, py, pz, vx, vy, vz, degrees(roll), degrees(pitch), degrees(yaw),
                    wx, wy, wz, degrees(cmd_left), degrees(cmd_right),
                    degrees(foot_left), degrees(foot_right), f_f, f_b, f_l, f_r,
                    PHASE_AIRBORNE if airborne else PHASE_GROUND))

        if i == n_steps:
            break

        # advance actuators toward the commands over (t, t + dt]
        if airborne:
            foot_left = clamp(cmd_left, foot_left - foot_step, foot_left + foot_step)
            foot_right = clamp(cmd_right, foot_right - foot_step, foot_right + foot_step)
        sched = thrust_schedule(t + dt, cfg.ramp)
        if tau > 0.0:
            f_f += alpha * (sched * k_f - f_f)
            f_b += alpha * (sched * k_b - f_b)
            f_l += alpha * (sched * k_l - f_l)
            f_r += alpha * (sched * k_r - f_r)
        else:
            f_f, f_b, f_l, f_r = sched * k_f, sched * k_b, sched * k_l, sched * k_r

        if airborne:
            clock += dt
            try:
                (px, py, pz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz,
                 roll, pitch, yaw) = step(clock, px, py, pz, vx, vy, vz, qw, qx, qy, qz,
                                          wx, wy, wz, rows)
            except DivergenceError as err:
                termination, reason = "diverged", str(err)
                break
            if pz < 0.0:
                termination, touchdown = "touchdown", (i + 1) * dt
                break
        else:
            # held on the ground: the attitude, and so its angles, are unchanged
            clock = t + dt

    log.scenario = asdict(cfg)
    log.events = {
        "config": log.scenario | {"gains_used": vars(gains) | {},
                                  "trim_foot_angle_deg": degrees(trim_angle)},
        "liftoff_time_s": liftoff,
        "never_lifted": liftoff is None,
        "altitude_at_2s_m": altitude,
        "max_abs_pitch_deg": degrees(max_pitch),
        "max_abs_yaw_deg": degrees(max_yaw),
        "max_abs_roll_deg": degrees(max_roll),
        f"pitch_exceeds_{PITCH_EVENT_DEG:.0f}deg_time_s": pitch_time,
        f"yaw_exceeds_{YAW_EVENT_DEG:.0f}deg_time_s": yaw_time,
        "diverged": reason is not None,
        "divergence_reason": reason,
        "termination": termination,
        "touchdown_time_s": touchdown,
        "final_time_s": t,
    }
    return log


def _measure(pitch, yaw, wy, wz, cfg, rng):
    """The tick's (pitch, yaw, rate_y, rate_z); noise draws all six channels."""
    if rng is None:
        return pitch, yaw, wy, wz
    _, n_pitch, n_yaw, _, n_wy, n_wz = rng.normal(0.0, cfg.sensor_noise_std, 6).tolist()
    return pitch + n_pitch, yaw + n_yaw, wy + n_wy, wz + n_wz
