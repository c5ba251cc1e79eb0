"""The oracles against scalar reference loops on the same fixed grids.

Each ``*_loop`` below is a second form of an oracle: the angle-by-angle trim
scan, the 20 separate candidate passes of the grid/vertex envelope and the
per-fan cross-product sum over wrench.fan_layout and quat_to_matrix. The two
array oracles evaluate the same formulas in the same operation order, so the
scan and the grid must agree exactly; the brute-force wrench rotates by its
own Euler-Rodrigues matrix on floats and agrees to 1e-12. It must not agree
with production once the production rotation rows are transposed.
"""

import math

import numpy as np

from tvcsim import spatial, wrench
from tvcsim.envelope import EnvelopeConstraint
from tvcsim.oracles import envelope_extrema_grid, trim_scan, wrench_brute_force
from tvcsim.robot import GRAVITY, Posture, builtin_posture, geometry_from_posture
from tvcsim.sim import Perturbation
from tvcsim.spatial import quat_normalize, quat_to_matrix
from tvcsim.wrench import FanState, fan_layout, generalized_wrench_3d


def wrench_loop(fs, geo, orientation, perturbation=None):
    positions, forces, com = fan_layout(fs, geo, perturbation)
    rot = quat_to_matrix(orientation)
    force_w = np.zeros(3)
    torque_w = np.zeros(3)
    for pos, f_body in zip(positions, forces):
        f_world = rot @ f_body
        arm_world = rot @ (pos - com)
        force_w += f_world
        torque_w += np.cross(arm_world, f_world)
    force_w[2] -= geo.mass_total * GRAVITY
    return force_w, torque_w


def envelope_loop(geo, theta_pitch, constraint, dt_strategy=False):
    if dt_strategy:
        thetas = np.array([0.0])
    else:
        lo, hi = constraint.foot_angle_range
        n = max(2, int(round((hi - lo) / math.radians(0.1))) + 1)
        thetas = np.linspace(lo, hi, n)
    x_c, z_c = geo.com_body[0], geo.com_body[2]
    half_l = 0.5 * geo.fan_spacing_waist
    u = constraint.per_fan_max
    r = constraint.min_vertical_force
    cp = math.cos(theta_pitch)
    c = np.broadcast_arrays(
        -(half_l - x_c),
        half_l + x_c,
        2.0 * (np.cos(thetas) * (x_c - geo.fan_foot_x) - np.sin(thetas) * (z_c - geo.fan_foot_z)),
    )
    a = np.broadcast_arrays(cp, cp, 2.0 * np.cos(theta_pitch + thetas))
    tau_min = math.inf
    tau_max = -math.inf

    def consider(point, valid=True):
        nonlocal tau_min, tau_max
        feasible = valid & (a[0] * point[0] + a[1] * point[1] + a[2] * point[2] >= r - 1e-9)
        if feasible.any():
            tau = (c[0] * point[0] + c[1] * point[1] + c[2] * point[2])[feasible]
            tau_min = min(tau_min, float(tau.min()))
            tau_max = max(tau_max, float(tau.max()))

    for corner in ((fa, fb, ft) for fa in (0.0, u) for fb in (0.0, u) for ft in (0.0, u)):
        consider(corner)
    for free in range(3):
        others = [k for k in range(3) if k != free]
        for b1 in (0.0, u):
            for b2 in (0.0, u):
                with np.errstate(divide="ignore", invalid="ignore"):
                    solved = (r - a[others[0]] * b1 - a[others[1]] * b2) / a[free]
                point = [0.0, 0.0, 0.0]
                point[others[0]], point[others[1]] = b1, b2
                point[free] = np.clip(solved, 0.0, u)
                consider(point, (a[free] != 0.0) & (-1e-9 <= solved) & (solved <= u + 1e-9))
    if tau_max == -math.inf:
        return None
    return tau_min, tau_max


def trim_loop(geo):
    weight = geo.weight
    x_c, z_c = geo.com_body[0], geo.com_body[2]
    best = None
    for th in np.linspace(-math.radians(45.0), math.radians(45.0), 9001):
        f = weight / (4.0 * math.cos(0.5 * th))
        torque = 2.0 * f * (
            x_c
            + math.cos(th) * (x_c - geo.fan_foot_x)
            - math.sin(th) * (z_c - geo.fan_foot_z)
        )
        if best is None or abs(torque) < best[0]:
            best = (abs(torque), float(th), f)
    _, theta, f = best
    return f, theta, -0.5 * theta


def random_geometry(rng):
    lo = rng.uniform(-90.0, 60.0)
    posture = Posture("R", com_sagittal=(rng.uniform(-0.05, 0.08), rng.uniform(-0.3, -0.2)),
                      foot_fan=(rng.uniform(-0.05, 0.1), rng.uniform(-0.7, -0.55)),
                      foot_pitch_range_deg=(lo, rng.uniform(lo + 1.0, 90.0)))
    geo = geometry_from_posture(posture, mass_total=rng.uniform(12.0, 20.0),
                                fan_spacing_waist=rng.uniform(0.2, 0.4))
    return geo, posture


def geometries(seed, count):
    rng = np.random.default_rng(seed)
    builtins = [builtin_posture(name) for name in ("P1", "P2", "P3")]
    cases = [(geometry_from_posture(p), p) for p in builtins]
    return rng, cases + [random_geometry(rng) for _ in range(count)]


def test_trim_scan_equals_the_scalar_scan():
    _, cases = geometries(1, 30)
    for i, (geo, _) in enumerate(cases):
        assert trim_scan(geo) == trim_loop(geo), i


def test_envelope_grid_equals_the_scalar_candidate_passes():
    rng, cases = geometries(2, 12)
    seen_none = seen_pair = 0
    for i, (geo, posture) in enumerate(cases):
        hover = EnvelopeConstraint.hover(geo, posture)
        constraints = [
            hover,
            # a foot range without 0 deg
            EnvelopeConstraint(geo.weight, 50.0, (math.radians(10.0), math.radians(60.0))),
            # a vertical floor near, and one beyond, four full fans
            EnvelopeConstraint(rng.uniform(150.0, 210.0), 50.0, hover.foot_angle_range),
            EnvelopeConstraint(250.0, 50.0, hover.foot_angle_range),
            # a foot range of one angle
            EnvelopeConstraint(geo.weight, 50.0, (hover.foot_angle_range[0],) * 2),
            # a floor the feet alone meet with the waist fans pointing sideways or down
            EnvelopeConstraint(20.0, 50.0, hover.foot_angle_range),
        ]
        for constraint in constraints:
            # and pitches at which cos(theta_pitch) is 0 or less
            for theta_pitch in (0.0, *np.radians(rng.uniform(-60.0, 60.0, 3)),
                                *np.radians((90.0, -90.0, 100.0, -100.0, 180.0, -180.0))):
                for dt_strategy in (True, False):
                    got = envelope_extrema_grid(geo, theta_pitch, constraint,
                                                dt_strategy=dt_strategy)
                    want = envelope_loop(geo, theta_pitch, constraint, dt_strategy=dt_strategy)
                    assert got == want, (i, constraint, theta_pitch, dt_strategy)
                    seen_none += got is None
                    seen_pair += got is not None
    assert seen_none and seen_pair


def test_wrench_brute_force_matches_the_per_fan_sum():
    rng, cases = geometries(3, 10)
    for geo, posture in cases:
        lo, hi = posture.foot_pitch_range
        for k in range(20):
            fs = FanState(*rng.uniform(0.0, 50.0, 4), *rng.uniform(lo, hi, 2))
            q = quat_normalize(rng.normal(size=4))
            pert = None
            if k % 2:
                pert = Perturbation(com_offset=rng.normal(0.0, 0.01, 3),
                                    foot_axis_misalignment_left=math.radians(rng.uniform(-10, 10)),
                                    foot_axis_misalignment_right=math.radians(rng.uniform(-10, 10)),
                                    thrust_scale=rng.uniform(0.8, 1.2, 4))
            for got, want in zip(wrench_brute_force(fs, geo, q, pert),
                                 wrench_loop(fs, geo, q, pert)):
                assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1e-6)


def test_wrench_oracle_does_not_rotate_through_the_production_rows(monkeypatch):
    # transposed rows in every module that binds them, as a mistake in
    # spatial.quat_rotation_rows would be: production turns by R^T, and an
    # oracle with its own rotation must then disagree at every attitude
    rows = spatial.quat_rotation_rows

    def transposed(q):
        r = rows(q)
        return (r[0], r[3], r[6], r[1], r[4], r[7], r[2], r[5], r[8])

    for module in (spatial, wrench):
        monkeypatch.setattr(module, "quat_rotation_rows", transposed)
    rng, cases = geometries(4, 3)
    gaps = []
    for geo, posture in cases:
        lo, hi = posture.foot_pitch_range
        for _ in range(20):
            fs = FanState(*rng.uniform(0.0, 50.0, 4), *rng.uniform(lo, hi, 2))
            q = quat_normalize(rng.normal(size=4))
            w = generalized_wrench_3d(fs, geo, q)
            gaps.append(max(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-6)
                            for got, want in zip((w.force_world, w.torque_world),
                                                 wrench_brute_force(fs, geo, q))))
    # 3.3e-3 at the closest of these 63 cases; agreement is 1e-12 or better
    assert min(gaps) > 1e-4
