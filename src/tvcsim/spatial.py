"""Frames, rotations, and quaternion kinematics.

Conventions used across the package:

* World frame {W}: z up, x forward (the robot's facing direction), y left.
  The body frame {B} coincides with {W} at zero attitude.
* Quaternions are scalar-first ``[w, x, y, z]`` and map body vectors into
  the world: ``v_w = R(q) @ v_b``.
* Two forms of the same operations: float-tuple kernels at the end
  (quat_unit, quat_step, quat_rotation_rows, zyx_angles), and numpy-array
  helpers (quat_identity, quat_normalize, quat_to_matrix, quat_integrate,
  quat_to_euler) for the oracles and callers that hold arrays, built on
  those kernels. The world-frame wrench calls quat_unit and
  quat_rotation_rows; the takeoff step (sim._kernel's step) writes quat_unit
  (opening the step and each rk4 stage), R(q)'s entries, euler's quat_step
  and the zyx_angles readout out on floats, and tests pin each copy bit for
  bit to the kernel here. The array helpers import numpy when first called,
  so importing this module, or any command that runs on floats, does not
  load it. quat_from_pitch returns a float tuple that both forms accept.
* compile_build writes the one build wrapper of the kernels compiled from
  source: sim's step and run, wrench's rows and controller's tick. It binds
  no math: each function binds the math functions it calls by bare name as
  its own locals.
* Euler angles are Z-Y-X intrinsic (yaw, then pitch, then roll), so "pitch"
  equals the single rotation angle about body y when roll = yaw = 0.
  Positive pitch tips the body x-axis downward (a forward dive).
* Angles are radians everywhere inside the package; degrees appear only at
  CLI/CSV boundaries.

All functions are pure and safe to call from any thread.
"""

from __future__ import annotations

import linecache
import math
import textwrap
from collections.abc import Sequence
from dataclasses import dataclass

# float sequences, tuples or numpy arrays; a Quat is scalar-first [w, x, y, z]
Vec3 = Quat = Sequence[float]

GIMBAL_LOCK_MARGIN = 1e-6  # |pitch| > pi/2 - margin means yaw/roll are not unique


@dataclass(frozen=True, eq=False, repr=False)
class EulerAngles:
    """Z-Y-X intrinsic attitude. pitch in [-pi/2, pi/2], roll/yaw in (-pi, pi]."""

    roll: float
    pitch: float
    yaw: float
    gimbal_lock: bool = False


def float_tuple(values: Sequence[float]) -> tuple[float, ...]:
    """tuple(map(float, values)), a 1-D numpy float array read through its
    tolist(): the same floats and errors, at a fraction of the cost."""
    if getattr(values, "ndim", 0) == 1 and values.dtype.kind == "f":
        values = values.tolist()
    return tuple(map(float, values))


def compile_build(name: str, constants: str, function: str, filename: str, scope: dict):
    """build(constants) -> name, function's source compiled in scope after import math, so a
    math.f loads as a module attribute; build binds no math, as the function binds those it
    calls by bare name as locals. linecache keeps the source for tracebacks."""
    source = (f"import math\ndef build({constants}):\n"
              f"{textwrap.indent(function, ' ' * 4)}    return {name}\n")
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {}
    exec(compile(source, filename, "exec"), scope, namespace)
    return namespace["build"]


# the wrap of an angle {w} to (-pi, pi] as source, which controller.TICK
# writes out: {w} in and out
WRAP = """\
{w} = math.fmod({w} + math.pi, 2.0 * math.pi)
if {w} <= 0.0:
    {w} += 2.0 * math.pi
{w} -= math.pi
"""


# ---------------------------------------------------------------------------
# Quaternions
# ---------------------------------------------------------------------------

def quat_identity() -> Quat:
    import numpy as np
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_normalize(q: Quat) -> Quat:
    import numpy as np
    q = np.asarray(q, dtype=float)
    n = math.sqrt(float(q @ q))
    if n < 1e-300:
        raise ValueError("cannot normalize a zero quaternion")
    return q / n


def quat_from_pitch(theta: float) -> tuple[float, float, float, float]:
    """Pure pitch attitude: R(q) rotates by theta about body y."""
    half = 0.5 * theta
    return (math.cos(half), 0.0, math.sin(half), 0.0)


def quat_to_matrix(q: Quat):
    """R(q) as a (3, 3) numpy array."""
    import numpy as np
    return np.array(quat_rotation_rows(quat_normalize(q).tolist())).reshape(3, 3)


def quat_integrate(q: Quat, omega: Vec3, dt: float) -> Quat:
    """Advance attitude by body-frame rate omega over dt (exponential map).

    Exact for constant omega; always returns a unit quaternion.
    """
    if not dt > 0.0:  # a NaN fails too
        raise ValueError(f"dt must be positive, got {dt}")
    import numpy as np
    return np.array(quat_step(q, omega, dt))


def quat_to_euler(q: Quat) -> EulerAngles:
    """Z-Y-X intrinsic decomposition (zyx_angles) of any nonzero quaternion."""
    r = quat_to_matrix(q).ravel().tolist()
    return EulerAngles(*zyx_angles(r[6], r[7], r[8], r[3], r[0], r[1], r[4]))


# ---------------------------------------------------------------------------
# Float kernels: the same operations on plain float tuples, for the
# per-step rigid-body integrator, where numpy's call overhead dominates.
# ---------------------------------------------------------------------------

def quat_unit(q) -> tuple[float, float, float, float]:
    """quat_normalize as a float tuple; a NaN quaternion stays NaN."""
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n < 1e-300:
        raise ValueError("cannot normalize a zero quaternion")
    return (w / n, x / n, y / n, z / n)


def quat_step(q, omega, dt: float) -> tuple[float, float, float, float]:
    """quat_integrate as a float tuple, for dt > 0: q times the increment
    (Hamilton product), renormalized by quat_unit."""
    wx, wy, wz = (omega[0] * dt, omega[1] * dt, omega[2] * dt)
    angle = math.sqrt(wx * wx + wy * wy + wz * wz)
    if angle < 1e-12:
        # first-order small-angle increment
        dw, dx, dy, dz = 1.0, 0.5 * wx, 0.5 * wy, 0.5 * wz
    else:
        half = 0.5 * angle
        s = math.sin(half) / angle
        dw, dx, dy, dz = math.cos(half), wx * s, wy * s, wz * s
    w, x, y, z = q
    return quat_unit((w * dw - x * dx - y * dy - z * dz, w * dx + x * dw + y * dz - z * dy,
                      w * dy - x * dz + y * dw + z * dx, w * dz + x * dy - y * dx + z * dw))


def quat_rotation_rows(q) -> tuple[float, ...]:
    """R(q) as its row-major 9 entries, for a unit quaternion q."""
    w, x, y, z = q
    return (
        1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y),
        2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x),
        2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y),
    )


def zyx_angles(r20, r21, r22, r10, r00, r01, r11) -> tuple[float, float, float, bool]:
    """Z-Y-X intrinsic (roll, pitch, yaw, gimbal_lock) of a rotation R, from
    the entries R[i][j] it reads.

    Within GIMBAL_LOCK_MARGIN of |pitch| = pi/2 the yaw/roll split is not
    unique; roll is set to zero there and the result is flagged.
    """
    sp = -r20
    sp = sp if sp > -1.0 else -1.0  # min(1, max(-1, sp)), NaN included
    pitch = math.asin(sp if sp < 1.0 else 1.0)
    if abs(pitch) > 0.5 * math.pi - GIMBAL_LOCK_MARGIN:
        # fold the degenerate rotation into yaw
        return 0.0, pitch, math.atan2(-r01, r11), True
    return math.atan2(r21, r22), pitch, math.atan2(r10, r00), False
