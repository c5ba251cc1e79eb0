"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line with its
measured numbers (run with ``pytest tests/test_acceptance.py -v -s`` to see
them). Criteria with runtime budgets assert wall-clock time too.

 1. Wrench oracle equivalence on 1000 random states (1e-9 relative),
    pitch-only reduction exact to 1e-12, under 5 s.
 2. Hover balance: equal thrusts of Mg/4 on symmetric geometry give a zero
    wrench to 1e-12.
 3. Envelope extrema match the grid/vertex oracle within 1% at all 61 sweep
    points for P1-P3, TVC encloses DT, under 60 s.
 4. TVC/DT pitch-torque ratio at level attitude is at least 3 for P1-P3 in
    both directions with the default (documented) geometry.
 5. Closed-loop takeoff under standard perturbations: 1 m altitude by 2 s,
    |pitch| within 10 deg for the whole run, yaw amplitude within 20 deg,
    under 10 s.
 6. Ablations: with everything off the pitch dive passes 30 deg within 2 s
    of liftoff; with pitch-only control the yaw spin passes 40 deg within
    2 s of liftoff while pitch holds its 10 deg band through the spin's
    90 deg crossing.
 7. Integrator physics: exact free fall, angular momentum conserved to 1e-5
    over 1 s (high-accuracy integrator flag), quaternion norm drift under
    1e-9 per step, first-order dt convergence.
 8. Bit-identical CSV/JSON outputs across two consecutive runs.
 9. Hover trim residual below 1e-9 for P1-P3; the symmetric trim is exact.
"""

import math
import time

import numpy as np
import pytest

from tvcsim.controller import ControlMode
from tvcsim.envelope import EnvelopeConstraint, envelope_sweep, tvc_dt_ratio
from tvcsim.oracles import envelope_extrema_grid, wrench_brute_force
from tvcsim.robot import (
    GRAVITY,
    Posture,
    builtin_posture,
    geometry_from_posture,
)
from tvcsim.sim import (
    PHASE_AIRBORNE,
    RigidBodyState,
    ScenarioConfig,
    dynamics_step,
    run_scenario,
)
from tvcsim.spatial import quat_from_pitch, quat_normalize
from tvcsim.trim import hover_trim
from tvcsim.wrench import FanState, generalized_wrench_3d, total_wrench

SYMMETRIC = Posture("SYM", (0.0, -0.25), (0.0, -0.61), (-74.0, 90.0))


def column(log, name):
    i = log.header.index(name)
    return np.array([float(row[i]) for row in log.rows])


def _report(criterion: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS  {name}: {detail}")


def test_criterion_1_wrench_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    geos = [geometry_from_posture(builtin_posture(n)) for n in ("P1", "P2", "P3")]
    worst_rel = 0.0
    worst_reduction = 0.0
    for i in range(1000):
        geo = geos[i % 3]
        thrusts = rng.uniform(0.0, 50.0, 4)
        angles = rng.uniform(math.radians(-74.0), math.radians(90.0), 2)
        fs = FanState(*thrusts, *angles)

        q = quat_normalize(rng.normal(size=4))
        w = generalized_wrench_3d(fs, geo, q)
        f_ref, t_ref = wrench_brute_force(fs, geo, q)
        for got, ref in ((w.force_world, f_ref), (w.torque_world, t_ref)):
            scale = max(np.linalg.norm(ref), 1e-6)
            worst_rel = max(worst_rel, np.linalg.norm(got - ref) / scale)

        theta = rng.uniform(-1.2, 1.2)
        w_pitch = total_wrench(fs, geo, theta)
        f_ref, t_ref = wrench_brute_force(fs, geo, quat_from_pitch(theta))
        for got, ref in ((w_pitch.force_world, f_ref), (w_pitch.torque_world, t_ref)):
            scale = max(np.linalg.norm(ref), 1e-6)
            worst_rel = max(worst_rel, np.linalg.norm(got - ref) / scale)

        w_full = generalized_wrench_3d(fs, geo, quat_from_pitch(theta))
        worst_reduction = max(
            worst_reduction,
            np.abs(w_full.force_world - w_pitch.force_world).max(),
            np.abs(w_full.torque_world - w_pitch.torque_world).max(),
        )
    elapsed = time.monotonic() - started
    assert worst_rel < 1e-9
    assert worst_reduction < 1e-12
    assert elapsed < 5.0
    _report(1, "wrench oracle equivalence",
            f"worst rel {worst_rel:.2e}, reduction gap {worst_reduction:.2e}, "
            f"{elapsed:.2f} s")


def test_criterion_2_hover_balance():
    geo = geometry_from_posture(SYMMETRIC)
    thrust = 17.0 * GRAVITY / 4.0
    assert thrust == pytest.approx(41.6925, abs=1e-12)
    w = total_wrench(FanState.uniform(thrust), geo, 0.0)
    assert np.abs(w.force_world).max() <= 1e-12
    assert np.abs(w.torque_world).max() <= 1e-12
    _report(2, "hover balance",
            f"per-fan {thrust} N, |F|max {np.abs(w.force_world).max():.2e} N, "
            f"|T|max {np.abs(w.torque_world).max():.2e} N*m")


def test_criterion_3_envelope_matches_oracle():
    started = time.monotonic()
    worst_rel = 0.0
    for name in ("P1", "P2", "P3"):
        posture = builtin_posture(name)
        geo = geometry_from_posture(posture)
        constraint = EnvelopeConstraint.hover(geo, posture)
        points = envelope_sweep(geo, constraint)
        assert len(points) == 61
        for p in points:
            assert p.dt is not None and p.tvc is not None
            assert p.tvc.tau_max >= p.dt.tau_max - 1e-9
            assert p.tvc.tau_min <= p.dt.tau_min + 1e-9
            for produced, dt_strategy in ((p.dt, True), (p.tvc, False)):
                lo, hi = envelope_extrema_grid(geo, p.theta_pitch, constraint,
                                               dt_strategy=dt_strategy)
                for a, b in ((produced.tau_min, lo), (produced.tau_max, hi)):
                    assert math.isclose(a, b, rel_tol=0.01, abs_tol=1e-9)
                    denom = max(abs(a), abs(b), 1e-9)
                    worst_rel = max(worst_rel, abs(a - b) / denom)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(3, "envelope oracle agreement",
            f"183 sweep points x 2 strategies, worst rel {worst_rel:.2e}, "
            f"{elapsed:.1f} s")


def test_criterion_4_tvc_to_dt_ratio():
    lines = []
    for name in ("P1", "P2", "P3"):
        posture = builtin_posture(name)
        geo = geometry_from_posture(posture)  # default L=0.30 m, L_f=0.25 m
        ratio_max, ratio_min = tvc_dt_ratio(geo, EnvelopeConstraint.hover(geo, posture))
        assert ratio_max >= 3.0
        assert ratio_min >= 3.0
        lines.append(f"{name} max {ratio_max:.2f} min {ratio_min:.2f}")
    _report(4, "TVC/DT ratio >= 3 (L=0.30 m, L_f=0.25 m)", "; ".join(lines))


def test_criterion_5_closed_loop_takeoff():
    started = time.monotonic()
    log = run_scenario(ScenarioConfig())  # BothOn, P1, standard perturbations
    elapsed = time.monotonic() - started
    ev = log.events
    assert ev["liftoff_time_s"] is not None
    assert ev["altitude_at_2s_m"] >= 1.0
    assert ev["max_abs_pitch_deg"] <= 10.0
    assert ev["max_abs_yaw_deg"] <= 20.0
    assert elapsed < 10.0
    pert = ev["config"]["perturbation"]
    _report(5, "closed-loop takeoff",
            f"alt@2s {ev['altitude_at_2s_m']:.2f} m, max|pitch| "
            f"{ev['max_abs_pitch_deg']:.1f} deg, max|yaw| {ev['max_abs_yaw_deg']:.1f} deg "
            f"(com offset {pert['com_offset']}, misalignment "
            f"{math.degrees(pert['foot_axis_misalignment_left']):+.0f}/"
            f"{math.degrees(pert['foot_axis_misalignment_right']):+.0f} deg), {elapsed:.1f} s")


def test_criterion_6_ablation_divergence():
    off = run_scenario(ScenarioConfig(mode=ControlMode.ALL_OFF))
    liftoff = off.events["liftoff_time_s"]
    dive_time = off.events["pitch_exceeds_30deg_time_s"]
    assert dive_time is not None
    assert dive_time <= liftoff + 2.0

    pitch_only = run_scenario(ScenarioConfig(mode=ControlMode.PITCH_ONLY))
    liftoff_po = pitch_only.events["liftoff_time_s"]
    spin_time = pitch_only.events["yaw_exceeds_40deg_time_s"]
    assert spin_time is not None
    assert spin_time <= liftoff_po + 2.0
    # the pitch loop holds its band for the whole measured spin divergence,
    # through the point where yaw passes 90 deg
    t = column(pitch_only, "time_s")
    pitch = np.abs(column(pitch_only, "pitch_deg"))
    yaw = np.abs(column(pitch_only, "yaw_deg"))
    past_90 = np.nonzero(yaw >= 90.0)[0]
    t_end = t[past_90[0]] if len(past_90) else t[-1]
    window = t <= t_end
    assert pitch[window].max() <= 10.0
    _report(6, "ablation divergence",
            f"all-off dive passes 30 deg at liftoff+{dive_time - liftoff:.2f} s; "
            f"pitch-only spin passes 40 deg at liftoff+{spin_time - liftoff_po:.2f} s "
            f"with |pitch| <= {pitch[window].max():.1f} deg through the 90 deg crossing")


def test_criterion_7_integrator_physics():
    geo = geometry_from_posture(builtin_posture("P1"))
    zero = FanState(0.0, 0.0, 0.0, 0.0)

    state = RigidBodyState()
    for _ in range(1000):
        state = dynamics_step(state, zero, geo, 1e-3)
    fall_err = abs(state.position_world[2] + 4.905)
    assert fall_err < 1e-6

    state = RigidBodyState(angular_velocity_body=np.array([1.0, 1.2, 0.8]))
    inertia = np.array(geo.inertia_body)
    momentum0 = np.linalg.norm(inertia @ state.angular_velocity_body)
    worst_norm_drift = 0.0
    for _ in range(1000):
        state = dynamics_step(state, zero, geo, 1e-3, integrator="rk4")
        worst_norm_drift = max(worst_norm_drift,
                               abs(np.linalg.norm(state.orientation) - 1.0))
    momentum_drift = abs(np.linalg.norm(inertia @ state.angular_velocity_body)
                         - momentum0) / momentum0
    assert momentum_drift < 1e-5
    assert worst_norm_drift < 1e-9

    fs = FanState(45.0, 45.0, 45.0, 45.0, 0.1, 0.1)

    def final(dt):
        s = RigidBodyState()
        for _ in range(int(round(1.0 / dt))):
            s = dynamics_step(s, fs, geo, dt)
        return np.concatenate([s.position_world, s.velocity_world,
                               s.orientation, s.angular_velocity_body])

    d1 = np.linalg.norm(final(1e-3) - final(5e-4))
    d2 = np.linalg.norm(final(5e-4) - final(2.5e-4))
    assert d1 < 1e-2
    assert d2 <= 0.75 * d1
    _report(7, "integrator physics",
            f"free-fall err {fall_err:.1e} m, |L| drift {momentum_drift:.1e}, "
            f"quat norm drift {worst_norm_drift:.1e}/step, "
            f"dt-halving contraction {d2 / d1:.2f}")


def test_criterion_8_determinism(tmp_path):
    cfg = ScenarioConfig(seed=3)
    first = run_scenario(cfg)
    second = run_scenario(cfg)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    first.write_csv(a)
    second.write_csv(b)
    ea, eb = tmp_path / "a.json", tmp_path / "b.json"
    first.write_events_json(ea)
    second.write_events_json(eb)
    assert a.read_bytes() == b.read_bytes()
    assert ea.read_bytes() == eb.read_bytes()
    _report(8, "determinism",
            f"two runs, {len(a.read_bytes())} CSV bytes and "
            f"{len(ea.read_bytes())} JSON bytes identical")


def test_criterion_9_hover_trim():
    residuals = {}
    for name in ("P1", "P2", "P3"):
        geo = geometry_from_posture(builtin_posture(name))
        fs, theta_pitch = hover_trim(geo)
        w = total_wrench(fs, geo, theta_pitch)
        residual = math.sqrt(float(w.force_world @ w.force_world)
                             + float(w.torque_world @ w.torque_world))
        assert residual < 1e-9
        residuals[name] = residual

    geo = geometry_from_posture(SYMMETRIC)
    fs, theta_pitch = hover_trim(geo)
    assert theta_pitch == 0.0
    assert fs.theta_left == 0.0 and fs.theta_right == 0.0
    assert fs.f_front == geo.weight / 4.0
    _report(9, "hover trim",
            "residuals " + ", ".join(f"{k} {v:.1e}" for k, v in residuals.items())
            + "; symmetric trim exact at Mg/4")
