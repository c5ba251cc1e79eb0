"""Seeded workload generators, timed operations and untimed output checks.

Every op is made from ``(seed, index)`` alone, so the same seed gives the
same inputs whatever the run length. Categorical inputs (control mode,
posture, sweep size) cycle with the op index, so every run sees the same
mix of them and only the continuous draws depend on the seed. The program
sees only the generated inputs: config files for the CLI workloads, plain
arguments for the audit.

A run's op count is fixed before it starts: whole mixes of ``mix`` ops that
fill ``--seconds`` at the workload's ``nominal_op_s``, an op's median time
at the reference host speed (see hostspeed.py). So a seed and a run length
always give the same ops, and the same ``attempted`` and ``failed`` counts,
on a fast machine or a slow one.

Each workload has three steps per op:

* ``prepare`` (untimed) writes the inputs;
* ``execute`` (timed) is the op itself, one call into tvcsim;
* ``inspect`` (untimed) checks the outputs and returns failure reasons,
  work units, an outcome digest entry and a fingerprint for the rerun check.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from tvcsim import cli, envelope, oracles, trim, wrench
from tvcsim.robot import FanLimits, Posture, builtin_posture, geometry_from_posture
from tvcsim.sim import LOG_HEADER, PHASE_AIRBORNE, Perturbation
from tvcsim.spatial import quat_normalize

POSTURES = ("P1", "P2", "P3")
MODES = ("both-on", "pitch-only", "all-off")
SWEEP_SIZES = (51, 61, 71)  # around the CLI default of 61
NEAR_LIMIT_EVERY = 5  # one takeoff op in five draws perturbations near the validator's limits
WRENCH_BATCH = 32
DOCUMENTED_EXIT_CODES = (0, 2, 3, 4)
CYCLE = 3  # ops per cycle of mode or posture


def strict_json(text: str):
    """json.loads that rejects NaN and Infinity."""
    def reject(token):
        raise ValueError(f"non-finite JSON number {token}")
    return json.loads(text, parse_constant=reject)


def op_rng(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, index, stream])


def stratified(seed: int, index: int, block: int, stream: int) -> float:
    """A draw in [0, 1) from a Latin hypercube over blocks of `block` ops.

    Within a block, the draws of one stream fall one in each of `block` equal
    strata, in a seeded order. Each draw is still uniform over [0, 1), but a
    run of whole blocks covers the range evenly, so what an op costs varies
    less from seed to seed.
    """
    b, pos = divmod(index, block)
    stratum = np.random.default_rng([seed, b, stream, 1]).permutation(block)[pos]
    return float(stratum + np.random.default_rng([seed, index, stream, 2]).random()) / block


def write_config(path: str, values: dict) -> None:
    with open(path, "w") as fh:
        for key, value in values.items():
            fh.write(f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n")


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class Spec:
    index: int
    values: dict  # config keys for CLI ops, plain arguments for the audit
    argv: list = field(default_factory=list)


@dataclass
class Inspection:
    reasons: list
    units: float  # simulated steps, sweep points or audited comparisons
    digest: dict
    fingerprint: str


def envelope_agrees(produced, geo, theta, constraint, dt_strategy, ref=None) -> bool:
    """(tau_min, tau_max) within 1% of the grid/vertex oracle; a nan pair if infeasible.

    The 1% is of the larger extremum's magnitude at that pitch. An extremum
    near zero makes a per-value relative tolerance ill-posed: the oracle's
    0.1 deg foot-angle grid then misses it by more than 1% of itself, while
    the production search, which refines continuously, lands beyond the grid.
    """
    if ref is None:
        ref = oracles.envelope_extrema_grid(geo, theta, constraint, dt_strategy=dt_strategy)
    if ref is None:
        return all(math.isnan(x) for x in produced)
    tol = 0.01 * max(abs(ref[0]), abs(ref[1])) + 1e-9
    return all(abs(a - b) <= tol for a, b in zip(produced, ref))


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects usage errors this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _exit_reasons(code, expected) -> list:
    if code in expected:
        return []
    if code in DOCUMENTED_EXIT_CODES:
        return [f"exit_{code}_on_valid_input"]
    return ["exit_code_undocumented"]


def _manifest_reasons(out_dir: str, name: str):
    """Strict-JSON and hash checks of a CLI manifest; returns (reasons, manifest)."""
    path = os.path.join(out_dir, f"{name}_manifest.json")
    try:
        with open(path) as fh:
            manifest = strict_json(fh.read())
    except (OSError, ValueError):
        return ["manifest_not_strict_json"], None
    for fname, digest in manifest.get("outputs", {}).items():
        fpath = os.path.join(out_dir, fname)
        if not os.path.exists(fpath) or sha256_file(fpath) != digest:
            return ["manifest_hash_mismatch"], manifest
    return [], manifest


def _fingerprint(out_dir: str, files, manifest, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for fname in files:
        with open(os.path.join(out_dir, fname), "rb") as fh:
            h.update(fh.read())
    if manifest is not None:
        stable = {k: v for k, v in manifest.items() if k != "wall_clock_s"}
        h.update(json.dumps(stable, sort_keys=True).encode())
    return h.hexdigest()


class Takeoff:
    """One ``tvcsim takeoff`` run per op, through ``tvcsim.cli.main``."""

    expected_exit = (0, 4)  # 4: divergence guard tripped, partial outputs kept
    units = "sim_steps"
    mix = 15  # ops per full mix: three modes times one near-limit op in five

    def __init__(self, seed: int, integrator: str):
        self.seed = seed
        self.integrator = integrator
        self.nominal_op_s = {"euler": 0.56, "rk4": 1.45}[integrator]

    def make(self, index: int) -> Spec:
        rng = op_rng(self.seed, index)  # the signs and sides of near-limit draws
        # Latin hypercube over each mix: thrust, ramp and perturbations set when a
        # run lifts off, rolls over or diverges, and so what a step costs
        draws = iter(stratified(self.seed, index, self.mix, k) for k in range(11))

        def uniform(lo, hi):
            return lo + (hi - lo) * next(draws)

        def normal(mu, sigma):
            return NormalDist(mu, sigma).inv_cdf(next(draws))

        if index % NEAR_LIMIT_EVERY == NEAR_LIMIT_EVERY - 1:
            # within 1.5 deg of the 10 deg bias cap and 0.04 of the [0.8, 1.2] scale limits
            mis_l = rng.choice((-1.0, 1.0)) * uniform(8.5, 10.0)
            mis_r = rng.choice((-1.0, 1.0)) * uniform(8.5, 10.0)
            scale = [uniform(0.80, 0.84) if rng.random() < 0.5 else uniform(1.16, 1.20)
                     for _ in range(4)]
            com = (normal(0.010, 0.010), normal(0.0, 0.005), normal(0.0, 0.005))
        else:
            # around Perturbation.standard(): 10 mm forward CoM error, +-2 deg bias couple
            mis_l = normal(2.0, 0.5)
            mis_r = normal(-2.0, 0.5)
            scale = [uniform(0.97, 1.03) for _ in range(4)]
            com = (normal(0.010, 0.003), normal(0.0, 0.002), normal(0.0, 0.003))
        values = {
            "mode": MODES[index % len(MODES)],
            "thrust.target_per_fan_n": uniform(46.0, 50.0),
            "thrust.ramp_time_s": uniform(0.3, 0.7),
            "perturbation.com_offset_x_m": float(com[0]),
            "perturbation.com_offset_y_m": float(com[1]),
            "perturbation.com_offset_z_m": float(com[2]),
            "perturbation.foot_misalignment_left_deg": float(mis_l),
            "perturbation.foot_misalignment_right_deg": float(mis_r),
            "perturbation.thrust_scale_front": float(scale[0]),
            "perturbation.thrust_scale_back": float(scale[1]),
            "perturbation.thrust_scale_left": float(scale[2]),
            "perturbation.thrust_scale_right": float(scale[3]),
            "sim.integrator": self.integrator,
        }
        return Spec(index, values)

    def prepare(self, spec: Spec, out_dir: str) -> None:
        path = os.path.join(out_dir, "op.cfg")
        write_config(path, spec.values)
        spec.argv = ["--config", path, "--out", out_dir, "takeoff"]

    def execute(self, spec: Spec, out_dir: str):
        return _run_cli(spec.argv)

    def inspect(self, spec: Spec, result, out_dir: str) -> Inspection:
        code, stdout, _ = result
        reasons = _exit_reasons(code, self.expected_exit)
        files = ("takeoff_log.csv", "takeoff_events.json")
        if reasons or not all(os.path.exists(os.path.join(out_dir, f)) for f in files):
            return Inspection(reasons or ["outputs_missing"], 0, {}, "")
        bad, manifest = _manifest_reasons(out_dir, "takeoff")
        reasons += bad
        try:
            with open(os.path.join(out_dir, "takeoff_events.json")) as fh:
                events = strict_json(fh.read())
        except ValueError:
            return Inspection(reasons + ["events_not_strict_json"], 0, {}, "")
        with open(os.path.join(out_dir, "takeoff_log.csv"), newline="") as fh:
            header, *rows = list(csv.reader(fh))
        if header != LOG_HEADER:
            return Inspection(reasons + ["log_header"], 0, {}, "")
        i_z, i_phase = header.index("pz"), header.index("phase")
        try:
            finite = all(math.isfinite(float(v)) for row in rows
                         for j, v in enumerate(row) if j != i_phase)
        except ValueError:
            finite = False
        if not finite:
            reasons.append("log_not_finite")
        cfg = events["config"]
        steps = int(round(events["final_time_s"] / cfg["dt_s"]))
        sample_every = int(round(1.0 / (cfg["sample_rate_hz"] * cfg["dt_s"])))
        if len(rows) != steps // sample_every + 1 or (
                code == 0 and abs(events["final_time_s"] - cfg["duration_s"]) > 1e-9):
            reasons.append("log_row_count")
        if finite and any(row[i_phase] == PHASE_AIRBORNE and float(row[i_z]) < 0.0
                          for row in rows):
            reasons.append("below_floor_after_liftoff")
        digest = {
            "liftoff_s": _round(events["liftoff_time_s"], 3),
            "altitude_2s_m": _round(events["altitude_at_2s_m"], 3),
            "max_pitch_deg": _round(events["max_abs_pitch_deg"], 1),
            "max_yaw_deg": _round(events["max_abs_yaw_deg"], 1),
            "max_roll_deg": _round(events["max_abs_roll_deg"], 1),
            "diverged": events["diverged"],
        }
        return Inspection(reasons, steps, digest,
                          _fingerprint(out_dir, files, manifest, stdout))


class Envelope:
    """One ``tvcsim envelope --postures <one>`` call per op."""

    expected_exit = (0,)
    units = "sweep_points"
    mix = CYCLE  # every three ops hold every posture and every sweep size
    strata = 15  # ops per Latin hypercube block: a 20 s run
    nominal_op_s = 1.45

    def __init__(self, seed: int):
        self.seed = seed

    def make(self, index: int) -> Spec:
        name = POSTURES[index % len(POSTURES)]
        base = builtin_posture(name)
        # the sweep size cycles in a Latin square with the posture
        n_points = SWEEP_SIZES[(index + index // len(POSTURES)) % len(SWEEP_SIZES)]
        # Latin hypercube: the thrust margin sets a sweep point's cost (about
        # 17 ms at 1.09 hover margin, 27 ms at 1.24), so runs must cover it evenly
        draws = iter(stratified(self.seed, index, self.strata, k) for k in range(8))

        def uniform(lo, hi):
            return float(lo + (hi - lo) * next(draws))

        # level hover stays feasible: 4 * 47 N > 18 kg * g
        values = {
            "geometry.mass_kg": uniform(16.0, 18.0),
            "geometry.waist_fan_spacing_m": uniform(0.27, 0.33),
            "geometry.foot_fan_spacing_m": uniform(0.22, 0.28),
            "posture.com_x_m": float(base.com_sagittal[0] + uniform(-0.01, 0.01)),
            "posture.com_z_m": float(base.com_sagittal[1] + uniform(-0.01, 0.01)),
            "posture.foot_x_m": float(base.foot_fan[0] + uniform(-0.01, 0.01)),
            "posture.foot_z_m": float(base.foot_fan[1] + uniform(-0.01, 0.01)),
            "limits.thrust_max_per_fan_n": uniform(47.0, 52.0),
            "envelope.n_points": n_points,
        }
        return Spec(index, values)

    def prepare(self, spec: Spec, out_dir: str) -> None:
        path = os.path.join(out_dir, "op.cfg")
        write_config(path, spec.values)
        spec.argv = ["--config", path, "--out", out_dir, "envelope",
                     "--postures", POSTURES[spec.index % len(POSTURES)]]

    def execute(self, spec: Spec, out_dir: str):
        return _run_cli(spec.argv)

    def geometry(self, spec: Spec):
        """Geometry and constraint rebuilt from the generated values, not the CLI."""
        v = spec.values
        base = builtin_posture(POSTURES[spec.index % len(POSTURES)])
        posture = Posture(base.name, (v["posture.com_x_m"], v["posture.com_z_m"]),
                          (v["posture.foot_x_m"], v["posture.foot_z_m"]),
                          base.foot_pitch_range_deg)
        geo = geometry_from_posture(
            posture, mass_total=v["geometry.mass_kg"],
            fan_spacing_waist=v["geometry.waist_fan_spacing_m"],
            fan_spacing_feet=v["geometry.foot_fan_spacing_m"])
        limits = FanLimits(thrust_max_per_fan=v["limits.thrust_max_per_fan_n"])
        return geo, envelope.EnvelopeConstraint.hover(geo, posture, limits)

    def inspect(self, spec: Spec, result, out_dir: str) -> Inspection:
        code, stdout, _ = result
        reasons = _exit_reasons(code, self.expected_exit)
        name = POSTURES[spec.index % len(POSTURES)]
        fname = f"envelope_{name}.csv"
        if reasons or not os.path.exists(os.path.join(out_dir, fname)):
            return Inspection(reasons or ["outputs_missing"], 0, {}, "")
        bad, manifest = _manifest_reasons(out_dir, "envelope")
        reasons += bad
        with open(os.path.join(out_dir, fname), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        n = spec.values["envelope.n_points"]
        thetas = np.linspace(-math.pi / 6.0, math.pi / 6.0, n)
        try:
            table = [[float(x) for x in row] for row in rows]
        except ValueError:
            table = []
        if len(table) != n or any(len(r) != 6 or abs(r[0] - math.degrees(t)) > 1e-4
                                  for r, t in zip(table, thetas)):
            reasons.append("envelope_rows")
            return Inspection(reasons, 0, {}, "")
        feasible = [r for r in table if r[5] == 1.0]
        if any(not all(math.isfinite(x) for x in r[1:5]) for r in feasible):
            reasons.append("envelope_not_finite")
        elif any(r[1] > r[2] or r[3] > r[4] for r in feasible):
            reasons.append("envelope_tau_min_above_tau_max")
        elif any(r[3] > r[1] + 1e-9 or r[4] < r[2] - 1e-9 for r in feasible):
            reasons.append("envelope_tvc_not_enclosing_dt")
        # spot check of one seeded row against the grid/vertex oracle
        j = int(op_rng(self.seed, spec.index, 1).integers(n))
        geo, constraint = self.geometry(spec)
        row, th = table[j], float(thetas[j])
        if not (envelope_agrees(row[1:3], geo, th, constraint, True)
                and envelope_agrees(row[3:5], geo, th, constraint, False)):
            reasons.append("envelope_vs_oracle")
        digest = {
            "posture": name,
            "n_points": n,
            "infeasible_rows": n - len(feasible),
            "tvc_tau": [_round(min((r[3] for r in feasible), default=None), 3),
                        _round(max((r[4] for r in feasible), default=None), 3)],
            "dt_tau": [_round(min((r[1] for r in feasible), default=None), 3),
                       _round(max((r[2] for r in feasible), default=None), 3)],
        }
        return Inspection(reasons, n, digest,
                          _fingerprint(out_dir, (fname,), manifest, stdout))


class Audit:
    """One seeded audit case per op, through the public functions.

    The oracles have no CLI command, so the op calls them directly: the
    production envelope point, wrench batch and hover trim, each next to
    its independent oracle.
    """

    units = "audit_checks"
    mix = CYCLE
    nominal_op_s = 0.15

    def __init__(self, seed: int):
        self.seed = seed

    def make(self, index: int) -> Spec:
        rng = op_rng(self.seed, index)
        name = POSTURES[index % len(POSTURES)]
        lo, hi = builtin_posture(name).foot_pitch_range
        states = []
        for k in range(WRENCH_BATCH):
            pert = None
            if k % 2:
                pert = dict(com_offset=rng.normal(0.0, 0.01, 3),
                            foot_axis_misalignment_left=math.radians(rng.uniform(-10.0, 10.0)),
                            foot_axis_misalignment_right=math.radians(rng.uniform(-10.0, 10.0)),
                            thrust_scale=rng.uniform(0.8, 1.2, 4))
            states.append((rng.uniform(0.0, 50.0, 4), rng.uniform(lo, hi, 2),
                           quat_normalize(rng.normal(size=4)), pert))
        values = {"posture": name,
                  "theta_pitch": float(math.radians(rng.uniform(-30.0, 30.0))),
                  "states": states}
        return Spec(index, values)

    def prepare(self, spec: Spec, out_dir: str) -> None:
        pass

    def geometry(self, spec: Spec):
        posture = builtin_posture(spec.values["posture"])
        geo = geometry_from_posture(posture)
        return geo, envelope.EnvelopeConstraint.hover(geo, posture)

    def execute(self, spec: Spec, out_dir: str):
        v = spec.values
        geo, constraint = self.geometry(spec)
        th = v["theta_pitch"]
        tvc = envelope.max_pitch_torque_tvc(geo, th, constraint)
        dt = envelope.max_pitch_torque_dt(geo, th, constraint)
        env = ((dt.tau_min, dt.tau_max), (tvc.tau_min, tvc.tau_max),
               oracles.envelope_extrema_grid(geo, th, constraint, dt_strategy=True),
               oracles.envelope_extrema_grid(geo, th, constraint))
        pairs = []
        for thrusts, angles, q, pert in v["states"]:
            fs = wrench.FanState(*thrusts, *angles)
            p = None if pert is None else Perturbation(**pert)
            w = wrench.generalized_wrench_3d(fs, geo, q, p)
            pairs.append(((w.force_world, w.torque_world),
                          oracles.wrench_brute_force(fs, geo, q, p)))
        fs, pitch = trim.hover_trim(geo)
        trims = ((fs.f_left, fs.theta_left, pitch), oracles.trim_scan(geo))
        return env, pairs, trims

    def inspect(self, spec: Spec, result, out_dir: str) -> Inspection:
        (dt, tvc, dt_ref, tvc_ref), pairs, (got, ref) = result
        reasons = []
        geo, constraint = self.geometry(spec)
        th = spec.values["theta_pitch"]
        if not (envelope_agrees(dt, geo, th, constraint, True, dt_ref)
                and envelope_agrees(tvc, geo, th, constraint, False, tvc_ref)):
            reasons.append("envelope_vs_oracle")
        worst = max(float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(b)), 1e-6)
                    for produced, oracle in pairs for a, b in zip(produced, oracle))
        if not worst < 1e-9:
            reasons.append("wrench_vs_oracle")
        angle_tol = math.radians(0.01)  # the scan oracle's resolution
        if not (abs(got[0] - ref[0]) <= 0.01 and abs(got[1] - ref[1]) <= angle_tol
                and abs(got[2] - ref[2]) <= angle_tol):
            reasons.append("trim_vs_oracle")
        digest = {
            "posture": spec.values["posture"],
            "theta_pitch_deg": _round(math.degrees(spec.values["theta_pitch"]), 3),
            "tvc_tau": [_round(x, 3) for x in tvc],
            "dt_tau": [_round(x, 3) for x in dt],
            "trim_foot_deg": _round(math.degrees(got[1]), 3),
        }
        flat = [dt, tvc, dt_ref, tvc_ref, got, ref]
        flat += [[x.tolist() for x in side] for pair in pairs for side in pair]
        units = 4 + len(pairs) + 1  # envelope extrema, wrench states, trim
        return Inspection(reasons, units, digest,
                          hashlib.sha256(repr(flat).encode()).hexdigest())


def _round(x, digits):
    return None if x is None else round(float(x), digits)


WORKLOADS = {
    "takeoff": lambda seed: Takeoff(seed, "euler"),
    "takeoff-rk4": lambda seed: Takeoff(seed, "rk4"),
    "envelope": Envelope,
    "audit": Audit,
}
