"""A fixed reference loop that reads the host's momentary speed.

The loop is the benchmark's own code, not tvcsim's, so no change to the
program moves it. It mixes small numpy arrays and Python arithmetic, as a
tvcsim step does: a rigid body with a quaternion attitude, integrated with
explicit Euler steps.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

CHUNKS = 8
CHUNK_STEPS = 50
# probe() on the 2-core Xeon the benchmark was defined on, with the host quiet
NOMINAL_S = 0.024


def _step(q, w, v, p, dt):
    qw, qx, qy, qz = q
    r = np.array([[1 - 2 * (qy * qy + qz * qz), 2 * (qx * qy - qz * qw), 2 * (qx * qz + qy * qw)],
                  [2 * (qx * qy + qz * qw), 1 - 2 * (qx * qx + qz * qz), 2 * (qy * qz - qx * qw)],
                  [2 * (qx * qz - qy * qw), 2 * (qy * qz + qx * qw), 1 - 2 * (qx * qx + qy * qy)]])
    f = r @ np.array([0.0, 0.0, 180.0]) - np.array([0.0, 0.0, 176.6])
    tau = np.cross(np.array([0.01, 0.0, 0.3]), f) - 0.5 * w
    w = w + dt * tau / np.array([0.9, 0.8, 0.3])
    v = v + dt * f / 18.0
    p = p + dt * v
    dq = 0.5 * dt * np.array([-qx * w[0] - qy * w[1] - qz * w[2],
                              qw * w[0] + qy * w[2] - qz * w[1],
                              qw * w[1] - qx * w[2] + qz * w[0],
                              qw * w[2] + qx * w[1] - qy * w[0]])
    q = q + dq
    return q / np.linalg.norm(q), w, v, p


def probe() -> float:
    """Seconds for CHUNKS * CHUNK_STEPS steps of the reference loop.

    The loop runs in chunks and the median chunk stands for all of them, so
    that one preemption in the middle of a probe does not read as a slow host.
    """
    chunks = []
    for _ in range(CHUNKS):
        q, w = np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.1, -0.2, 0.05])
        v, p = np.zeros(3), np.zeros(3)
        t0 = time.perf_counter()
        for _ in range(CHUNK_STEPS):
            q, w, v, p = _step(q, w, v, p, 1e-3)
        chunks.append(time.perf_counter() - t0)
    return CHUNKS * statistics.median(chunks)
