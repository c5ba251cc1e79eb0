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
* The roll and yaw rows are the left/right foot thrust differences on the
  L_f/2 arm plus the lateral CoM arm y_c: the whole vertical thrust rolls
  the body about an off-center CoM, the whole horizontal thrust yaws it.

pitch_arms is the one source of the four sagittal arms of these terms; the
trims, the envelope LP and the controller gains read them there too. ROWS is
the one source of the rows, and FOOT_TRIG of the foot angles' sines and
cosines they read: wrench_kernel compiles both through spatial.compile_build
into rows, which binds math's sin and cos as locals first, and the takeoff
loop (sim._kernel's run) writes them out, its liftoff test ROWS' head LIFT
alone. generalized_wrench_3d wraps wrench_kernel for one fan state at one
attitude, and total_wrench is its pitch-only case. The world-frame rows are
floats too; numpy is imported only for the array forms of them and by
fan_layout, which lists the per-fan forces.
"""

from __future__ import annotations

import functools
import math
import textwrap
from dataclasses import dataclass

from .robot import RobotGeometry
from .spatial import (
    Quat,
    compile_build,
    float_tuple,
    quat_from_pitch,
    quat_rotation_rows,
    quat_to_matrix,  # not called here; bench/test_bench.py rebinds it through wrench
    quat_unit,
)


@dataclass(eq=False, repr=False)
class FanState:
    """Commanded or actual thrusts (N) and foot fan pitch angles (rad), as floats."""

    f_front: float
    f_back: float
    f_left: float
    f_right: float
    theta_left: float = 0.0
    theta_right: float = 0.0

    def __post_init__(self):
        thrusts = self.f_front, self.f_back, self.f_left, self.f_right
        for name, f in zip(("f_front", "f_back", "f_left", "f_right"), thrusts):
            if f < 0.0:  # a NaN passes, for dynamics_step's guards and the wrench API
                raise ValueError(f"{name} must be >= 0, got {f}")
        self.f_front, self.f_back, self.f_left, self.f_right = map(float, thrusts)
        self.theta_left, self.theta_right = float(self.theta_left), float(self.theta_right)

    @classmethod
    def uniform(cls, thrust: float, theta: float = 0.0) -> "FanState":
        return cls(thrust, thrust, thrust, thrust, theta, theta)


@dataclass(eq=False, repr=False)
class Wrench:
    """The body pitch torque's three terms, and world: (F_x, F_y, F_z, tau_x,
    tau_y, tau_z) in {W}, wrench_kernel's body rows rotated by R(q) at the
    attitude, the force less the weight. Both are built with the wrench."""

    t_y1: float
    t_y2: float
    t_y3: float
    world: tuple

    @property
    def force_world(self):
        """The net world-frame force as a numpy array."""
        import numpy as np
        return np.array(self.world[:3])

    @property
    def torque_world(self):
        """The world-frame torque as a numpy array."""
        import numpy as np
        return np.array(self.world[3:])


def _rotate(rot, v) -> tuple[float, float, float]:
    """R v, for R given as quat_rotation_rows' row-major 9 entries."""
    x, y, z = v
    return (rot[0] * x + rot[1] * y + rot[2] * z,
            rot[3] * x + rot[4] * y + rot[5] * z,
            rot[6] * x + rot[7] * y + rot[8] * z)


def total_wrench(fs: FanState, geo: RobotGeometry, theta_pitch: float) -> Wrench:
    """Full wrench at a pitch-only attitude."""
    return generalized_wrench_3d(fs, geo, quat_from_pitch(theta_pitch))


def fan_layout(
    fs: FanState,
    geo: RobotGeometry,
    perturbation=None,
):
    """Per-fan body-frame forces as arrays.

    Only the reference loop in tests/test_oracles.py and the bench tracer
    read it: the brute-force oracle lays the fans out by its own route. It
    moves to the tests or goes with the other array helpers.

    Returns numpy arrays (positions (4,3), forces (4,3), com (3,)). A
    perturbation shifts the effective CoM and biases each foot's thrust-axis
    pitch, the minimal model of joint position error that turns into a yaw
    force couple.
    """
    import numpy as np
    positions = np.array(geo.fan_positions())
    com = np.array(geo.com_body)
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


def generalized_wrench_3d(fs: FanState, geo: RobotGeometry, orientation: Quat,
                          perturbation=None) -> Wrench:
    """Wrench at an arbitrary attitude: wrench_kernel's rows for one fan state,
    which R(q) rotates into {W}."""
    f_x, f_z, t_x, t_y1, t_y2, t_y3, t_z = wrench_kernel(geo, perturbation)(
        fs.f_front, fs.f_back, fs.f_left, fs.f_right, fs.theta_left, fs.theta_right)
    rot = quat_rotation_rows(quat_unit(float_tuple(orientation)))
    w_x, w_y, w_z = _rotate(rot, (f_x, 0.0, f_z))
    return Wrench(t_y1, t_y2, t_y3,
                  (w_x, w_y, w_z - geo.weight, *_rotate(rot, (t_x, t_y1 + t_y2 + t_y3, t_z))))


# ROWS' head, the net vertical force f_z, which the takeoff loop's liftoff test
# writes out alone: the thrusts and the feet's cos_l and cos_r in
LIFT = """\
v_l, v_r = f_l * cos_l, f_r * cos_r
f_z = f_f + f_b + v_l + v_r
"""
# wrench_kernel's rows as source, which the takeoff loop writes out too: the
# thrusts f_f, f_b, f_l, f_r and FOOT_TRIG's sin_l, cos_l, sin_r, cos_r in, the
# body rows f_x, f_z, tx, ty1, ty2, ty3, tz out; it reads ROW_CONSTANTS
ROWS = LIFT + """\
h_l, h_r = f_l * sin_l, f_r * sin_r
f_x = h_l + h_r
tx, tz = half_lf * (v_l - v_r) - y_c * f_z, half_lf * (h_r - h_l) + y_c * f_x
ty1, ty2, ty3 = f_b * arm_back - f_f * arm_front, (v_l + v_r) * arm_v, -f_x * arm_h
"""
ROW_CONSTANTS = "bias_l, bias_r, half_lf, y_c, arm_front, arm_back, arm_v, arm_h"
# the sine and cosine of foot {s}'s thrust axis, l or r, for ROWS: its angle
# theta_{s} in; it reads the bias and sin and cos as math's
FOOT_TRIG = """\
a_{s} = theta_{s} + bias_{s}
sin_{s}, cos_{s} = sin(a_{s}), cos(a_{s})
"""


@functools.cache
def rows_builder():
    """build(*wrench_constants(geo, perturbation)) -> rows, compiled on first use."""
    body = textwrap.indent("sin, cos = math.sin, math.cos\n" + FOOT_TRIG.format(s="l")
                           + FOOT_TRIG.format(s="r") + ROWS
                           + "return f_x, f_z, tx, ty1, ty2, ty3, tz\n", " " * 4)
    return compile_build("rows", ROW_CONSTANTS, "def rows(f_f, f_b, f_l, f_r, theta_l, theta_r):\n"
                         + body, "<tvcsim.wrench rows>", globals())


def wrench_constants(geo: RobotGeometry, perturbation=None) -> tuple[float, ...]:
    """ROW_CONSTANTS: the foot-axis biases, half the foot spacing, the lateral
    CoM and pitch_arms, with the perturbation's CoM shift."""
    # -0.0 is the exact additive identity: no perturbation changes no bit
    dx = dy = dz = bias_l = bias_r = -0.0
    if perturbation is not None:
        dx, dy, dz = perturbation.com_offset
        bias_l = perturbation.foot_axis_misalignment_left
        bias_r = perturbation.foot_axis_misalignment_right
    x_c, y_c, z_c = geo.com_body
    return (bias_l, bias_r, 0.5 * geo.fan_spacing_feet, y_c + dy,
            *pitch_arms(geo, x_c + dx, z_c + dz))


def wrench_kernel(geo: RobotGeometry, perturbation=None):
    """The one fan force/torque model, with the geometry hoisted out of it.

    Returns rows(f_F, f_B, f_L, f_R, theta_L, theta_R) -> (F_x, F_z, tau_x,
    t_y1, t_y2, t_y3, tau_z), the body-frame rows with the pitch torque in its
    three terms (F_y is 0). With the foot thrusts split into horizontal
    h = f sin(theta) and vertical v = f cos(theta) components, they are

        force   (h_L + h_R, 0, f_F + f_B + v_L + v_R)
        roll    L_f/2 (v_L - v_R) - y_c F_z
        pitch   t_y1 + t_y2 + t_y3
        yaw     L_f/2 (h_R - h_L) + y_c F_x

    A perturbation shifts the CoM and biases each foot's thrust axis; the
    rows use the effective CoM and foot angles. rows is ROWS, compiled once
    per process on first use, after FOOT_TRIG for each foot.
    """
    return rows_builder()(*wrench_constants(geo, perturbation))


def pitch_arms(geo: RobotGeometry, x_c: float, z_c: float) -> tuple[float, float, float, float]:
    """(front, back, vertical, horizontal) = (L/2 - x_c, L/2 + x_c, x_c - p_fx,
    z_c - p_fz), the pitch row's arms about a CoM at (x_c, z_c): its
    control-effectiveness columns (Durham, "Constrained control allocation",
    JGCD 1993)."""
    half_l = 0.5 * geo.fan_spacing_waist
    return half_l - x_c, half_l + x_c, x_c - geo.fan_foot_x, z_c - geo.fan_foot_z
