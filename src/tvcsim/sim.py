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

Identical configurations produce bit-identical logs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .controller import (
    AttitudeController,
    ControlMode,
    ControllerGains,
    ThrustRamp,
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
)
from .spatial import (
    EulerAngles,
    quat_euler,
    quat_product,
    quat_rotate,
    quat_step,
    quat_to_matrix,  # not called here; bench/test_bench.py rebinds it through sim
    quat_unit,
)
from .trim import hover_trim
from .wrench import FanState, Wrench, generalized_wrench_3d

PHASE_GROUND = "GROUND"
PHASE_AIRBORNE = "AIRBORNE"

# event markers for the takeoff-instability bands
PITCH_EVENT_DEG = 30.0
YAW_EVENT_DEG = 40.0

POSITION_GUARD_M = 100.0
RATE_GUARD_RAD_S = 100.0
MAX_PHYSICS_DT = 0.002

LOG_HEADER = [
    "time_s", "px", "py", "pz", "vx", "vy", "vz",
    "roll_deg", "pitch_deg", "yaw_deg", "wx", "wy", "wz",
    "theta_L_cmd_deg", "theta_R_cmd_deg", "theta_L_deg", "theta_R_deg",
    "fF", "fB", "fL", "fR", "phase",
]


class DivergenceError(Exception):
    """Raised by dynamics_step when the state leaves the position or rate
    guard; run_scenario turns it into its log's divergence events."""


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
    duration: float = 2.5
    dt: float = 1e-3
    sample_rate: float = 250.0
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
        if self.dt <= 0.0 or self.dt > MAX_PHYSICS_DT:
            raise ValueError(f"physics dt must be in (0, {MAX_PHYSICS_DT}] s")
        if self.duration < self.dt:
            raise ValueError("duration must be >= dt")
        if not math.isfinite(self.duration / self.dt):
            raise ValueError(
                f"duration {self.duration} s is not a finite number of {self.dt} s steps")
        if self.integrator not in ("euler", "rk4"):
            raise ValueError("integrator must be 'euler' or 'rk4'")
        self._controller_substeps = _substeps(self.controller_rate, self.dt, "controller")
        self._sample_substeps = _substeps(self.sample_rate, self.dt, "sample")

    def geometry(self) -> RobotGeometry:
        return geometry_from_posture(
            self.posture, mass_total=self.mass_total, fan_spacing_waist=self.fan_spacing_waist,
            fan_spacing_feet=self.fan_spacing_feet, fan_mass=self.fan_mass, com_y=self.com_y)

    def echo(self) -> dict:
        """Resolved configuration echoed into the events JSON."""
        return {
            "posture": self.posture.name,
            "posture_com_sagittal_m": self.posture.com_sagittal,
            "posture_foot_fan_m": self.posture.foot_fan,
            "posture_foot_pitch_range_deg": self.posture.foot_pitch_range_deg,
            "mode": self.mode.value,
            "gains": None if self.gains is None else vars(self.gains) | {},
            "ramp_target_per_fan_n": self.ramp.target_per_fan,
            "ramp_time_s": self.ramp.ramp_time,
            "perturbation": {
                "com_offset_m": list(self.perturbation.com_offset),
                "foot_misalignment_left_deg": math.degrees(
                    self.perturbation.foot_axis_misalignment_left),
                "foot_misalignment_right_deg": math.degrees(
                    self.perturbation.foot_axis_misalignment_right),
                "thrust_scale": list(self.perturbation.thrust_scale),
            },
            "duration_s": self.duration,
            "dt_s": self.dt,
            "sample_rate_hz": self.sample_rate,
            "controller_rate_hz": self.controller_rate,
            "seed": self.seed,
            "integrator": self.integrator,
            "sensor_noise_std": self.sensor_noise_std,
            "setpoint_deg": [math.degrees(self.setpoint.roll),
                             math.degrees(self.setpoint.pitch),
                             math.degrees(self.setpoint.yaw)],
            "mass_total_kg": self.mass_total,
            "fan_spacing_waist_m": self.fan_spacing_waist,
            "fan_spacing_feet_m": self.fan_spacing_feet,
            "fan_mass_kg": self.fan_mass,
            "com_y_m": self.com_y,
            "thrust_max_per_fan_n": self.limits.thrust_max_per_fan,
            "thrust_min_n": self.limits.thrust_min,
            "foot_pitch_rate_max_rad_s": self.limits.foot_pitch_rate_max,
            "thrust_time_constant_s": self.limits.thrust_time_constant,
        }


def _substeps(rate: float, dt: float, what: str) -> int:
    if not rate > 0.0:
        raise ValueError(f"{what} rate must be positive, got {rate} Hz")
    period = 1.0 / rate
    n = period / dt
    if abs(n - round(n)) > 1e-9 or round(n) < 1:
        raise ValueError(f"{what} period {period} s must be an integer multiple of dt {dt} s")
    return int(round(n))


class SimLog:
    """Time-indexed record of one run plus its event summary."""

    def __init__(self):
        self.header = list(LOG_HEADER)
        self.rows: list[tuple] = []
        self.events: dict = {}

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.header) + "\n")
            for row in self.rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")

    def events_json(self) -> str:
        return json.dumps(self.events, indent=2, sort_keys=True, allow_nan=False)

    def write_events_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.events_json() + "\n")


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    return f"{v:.10g}"


def detect_liftoff(wrench: Wrench) -> bool:
    """Ground contact ends once the net vertical force is positive; the ground
    holds the body at the identity attitude, so body z is world z."""
    return wrench.force_body[2] > wrench.weight


def dynamics_step(
    state: RigidBodyState,
    fan_state: FanState,
    geo: RobotGeometry,
    dt: float,
    perturbation: Perturbation | None = None,
    integrator: str = "euler",
) -> RigidBodyState:
    """Advance the free-flying rigid body by one step.

    The default scheme updates velocities first and positions with the
    velocity midpoint, which integrates constant accelerations exactly;
    attitude uses the exponential map with the updated body rate. 'rk4'
    selects a classic fourth-order step for high-accuracy checks.

    The fans hold their state over the step, so the body-frame wrench is
    evaluated once; every stage rotates its force by the stage attitude.
    The rest is plain float arithmetic.
    """
    if dt <= 0.0 or dt > MAX_PHYSICS_DT:
        raise ValueError(f"dt must be in (0, {MAX_PHYSICS_DT}] s")
    if integrator not in ("euler", "rk4"):
        raise ValueError("integrator must be 'euler' or 'rk4'")
    w = generalized_wrench_3d(fan_state, geo, state.orientation, perturbation)
    accels = _accelerations(w.force_body, w.torque_body, geo)
    p, v, omega = state.position_world, state.velocity_world, state.angular_velocity_body
    q = quat_unit(state.orientation)
    if integrator == "euler":
        ax, ay, az, bx, by, bz = accels(q, omega)
        v_new = (v[0] + ax * dt, v[1] + ay * dt, v[2] + az * dt)
        p_new = (p[0] + 0.5 * (v[0] + v_new[0]) * dt,
                 p[1] + 0.5 * (v[1] + v_new[1]) * dt,
                 p[2] + 0.5 * (v[2] + v_new[2]) * dt)
        omega_new = (omega[0] + bx * dt, omega[1] + by * dt, omega[2] + bz * dt)
        q_new = quat_step(q, omega_new, dt)
    else:
        p_new, v_new, q_new, omega_new = _rk4((*p, *v, *omega, *q), dt, accels)
    t = state.time + dt

    # "not <=" so that a NaN state trips the guards too
    px, py, pz = p_new
    if not math.sqrt(px * px + py * py + pz * pz) <= POSITION_GUARD_M:
        raise DivergenceError(
            f"position {np.array(p_new)} left the {POSITION_GUARD_M} m guard at t={t:.3f} s"
        )
    wx, wy, wz = omega_new
    if not math.sqrt(wx * wx + wy * wy + wz * wz) <= RATE_GUARD_RAD_S:
        raise DivergenceError(
            f"body rate {np.array(omega_new)} exceeded {RATE_GUARD_RAD_S} rad/s at t={t:.3f} s"
        )
    return RigidBodyState(p_new, v_new, q_new, omega_new, t)


def _accelerations(force_body, torque_body, geo):
    """f(q, omega) -> (a_x, a_y, a_z, alpha_x, alpha_y, alpha_z): the acceleration
    R(q) F / m - g in {W} and the angular acceleration I^-1 (tau - omega x I omega)
    in {B}, under a body-frame wrench (F, tau) held fixed. The inverse of the
    (general, symmetric) inertia is precomputed by the geometry."""
    tx, ty, tz = torque_body
    m = geo.mass_total
    weight = m * GRAVITY
    (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = geo.inertia_body
    j00, j01, j02, j10, j11, j12, j20, j21, j22 = geo.inertia_inverse_rows

    def accels(q, omega):
        fx, fy, fz = quat_rotate(q, force_body)
        wx, wy, wz = omega
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

    return accels


def _rk4(y0, dt, accels):
    """Classic RK4 on the flat state y = (p, v, omega, q); each stage's
    quaternion is renormalized. Returns (p, v, q, omega)."""
    def deriv(y):
        q, omega = y[9:], y[6:9]
        dw, dx, dy, dz = quat_product(q, (0.0, *omega))
        return (*y[3:6], *accels(q, omega), 0.5 * dw, 0.5 * dx, 0.5 * dy, 0.5 * dz)

    def stage(h, k):
        y = [a + h * b for a, b in zip(y0, k)]
        return (*y[:9], *quat_unit(y[9:]))

    h = 0.5 * dt
    k1 = deriv(y0)
    k2 = deriv(stage(h, k1))
    k3 = deriv(stage(h, k2))
    k4 = deriv(stage(dt, k3))
    y = stage(dt, [(a + 2.0 * b + 2.0 * c + d) / 6.0 for a, b, c, d in zip(k1, k2, k3, k4)])
    return y[0:3], y[3:6], y[9:], y[6:9]


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
        geo,
        hover_thrust_per_fan=trim_state.f_left,
        trim_foot_angle=trim_angle,
        zeta=cfg.zeta,
        omega_n_pitch=cfg.omega_n_pitch,
        omega_n_yaw=cfg.omega_n_yaw,
    )
    controller = AttitudeController(
        gains, cfg.mode, cfg.posture, cfg.limits, trim_angle, setpoint=cfg.setpoint
    )
    rng = np.random.default_rng(cfg.seed)

    log = SimLog()
    log.events = {
        "config": cfg.echo() | {"gains_used": vars(gains) | {},
                                "trim_foot_angle_deg": math.degrees(trim_angle)},
        "liftoff_time_s": None,
        "never_lifted": True,
        "altitude_at_2s_m": None,
        "max_abs_pitch_deg": 0.0,
        "max_abs_yaw_deg": 0.0,
        "max_abs_roll_deg": 0.0,
        f"pitch_exceeds_{PITCH_EVENT_DEG:.0f}deg_time_s": None,
        f"yaw_exceeds_{YAW_EVENT_DEG:.0f}deg_time_s": None,
        "diverged": False,
        "divergence_reason": None,
        "termination": "duration",
        "touchdown_time_s": None,
    }

    # the loop carries plain floats: state tuples, thrust lists, hoisted constants
    state = RigidBodyState()
    euler = quat_euler(state.orientation)
    phase = PHASE_GROUND
    foot_left = trim_angle
    foot_right = trim_angle
    dt = cfg.dt
    control_every, sample_every = cfg._controller_substeps, cfg._sample_substeps
    foot_step = cfg.limits.foot_pitch_rate_max * dt
    scale = cfg.perturbation.thrust_scale
    tau = cfg.limits.thrust_time_constant
    # an ideal actuator already sits on the schedule at t = 0
    if tau == 0.0:
        thrusts = [thrust_schedule(0.0, cfg.ramp) * k for k in scale]
    else:
        thrusts = [0.0] * 4
        alpha = 1.0 - math.exp(-dt / tau)  # spool lag per step
    n_steps = int(round(cfg.duration / dt))
    i_2s = int(round(2.0 / dt)) if cfg.duration >= 2.0 else None
    pitch_key = f"pitch_exceeds_{PITCH_EVENT_DEG:.0f}deg_time_s"
    yaw_key = f"yaw_exceeds_{YAW_EVENT_DEG:.0f}deg_time_s"

    for i in range(n_steps + 1):
        t = i * dt
        if i % control_every == 0:  # from i = 0 on, so command is always set
            meas_euler, meas_rates = _measure(state, euler, cfg, rng)
            command = controller.step(meas_euler, meas_rates, control_every * dt)

        fan_state = FanState(
            f_front=thrusts[0], f_back=thrusts[1],
            f_left=thrusts[2], f_right=thrusts[3],
            theta_left=foot_left, theta_right=foot_right,
        )
        # the wrench is evaluated here on the ground only; aloft, dynamics_step does it
        if phase == PHASE_GROUND and detect_liftoff(generalized_wrench_3d(
                fan_state, geo, state.orientation, cfg.perturbation)):
            phase = PHASE_AIRBORNE
            log.events["liftoff_time_s"] = t
            log.events["never_lifted"] = False

        _update_events(log.events, t, euler, pitch_key, yaw_key)
        if i_2s is not None and i == i_2s:
            log.events["altitude_at_2s_m"] = float(state.position_world[2])

        if i % sample_every == 0:
            log.rows.append(_log_row(t, state, euler, command, fan_state, phase))

        if i == n_steps:
            break

        # advance actuators toward the commands over (t, t + dt]
        if phase == PHASE_AIRBORNE:
            foot_left = _toward(foot_left, command.theta_left_cmd, foot_step)
            foot_right = _toward(foot_right, command.theta_right_cmd, foot_step)
        sched = thrust_schedule(t + dt, cfg.ramp)
        if tau > 0.0:
            thrusts = [f + alpha * (sched * k - f) for f, k in zip(thrusts, scale)]
        else:
            thrusts = [sched * k for k in scale]

        if phase == PHASE_AIRBORNE:
            try:
                state = dynamics_step(state, fan_state, geo, dt,
                                      cfg.perturbation, cfg.integrator)
            except DivergenceError as err:
                log.events.update(diverged=True, divergence_reason=str(err),
                                  termination="diverged")
                break
            if state.position_world[2] < 0.0:
                log.events.update(termination="touchdown", touchdown_time_s=(i + 1) * dt)
                break
            euler = quat_euler(state.orientation)
        else:
            # held on the ground: the attitude, and so euler, is unchanged
            state.time = t + dt
    log.events["final_time_s"] = t
    return log


def _measure(state, euler, cfg, rng):
    rates = state.angular_velocity_body
    if cfg.sensor_noise_std > 0.0:
        noise = rng.normal(0.0, cfg.sensor_noise_std, 6).tolist()
        euler = EulerAngles(euler.roll + noise[0], euler.pitch + noise[1],
                            euler.yaw + noise[2], euler.gimbal_lock)
        rates = tuple(r + n for r, n in zip(rates, noise[3:]))
    return euler, rates


def _toward(value: float, target: float, max_step: float) -> float:
    return min(value + max_step, max(value - max_step, target))


def _update_events(events, t, euler, pitch_key, yaw_key):
    pitch_deg = abs(math.degrees(euler.pitch))
    yaw_deg = abs(math.degrees(euler.yaw))
    roll_deg = abs(math.degrees(euler.roll))
    events["max_abs_pitch_deg"] = max(events["max_abs_pitch_deg"], pitch_deg)
    events["max_abs_yaw_deg"] = max(events["max_abs_yaw_deg"], yaw_deg)
    events["max_abs_roll_deg"] = max(events["max_abs_roll_deg"], roll_deg)
    if events[pitch_key] is None and pitch_deg >= PITCH_EVENT_DEG:
        events[pitch_key] = t
    if events[yaw_key] is None and yaw_deg >= YAW_EVENT_DEG:
        events[yaw_key] = t


def _log_row(t, state, euler, command, fan_state: FanState, phase):
    return (
        t, *state.position_world, *state.velocity_world,
        math.degrees(euler.roll), math.degrees(euler.pitch), math.degrees(euler.yaw),
        *state.angular_velocity_body,
        math.degrees(command.theta_left_cmd), math.degrees(command.theta_right_cmd),
        math.degrees(fan_state.theta_left), math.degrees(fan_state.theta_right),
        fan_state.f_front, fan_state.f_back, fan_state.f_left, fan_state.f_right,
        phase,
    )
