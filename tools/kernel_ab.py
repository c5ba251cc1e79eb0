"""Compare the kernels of two tvcsim checkouts: bits, outputs, time.

    python tools/kernel_ab.py PARENT_ROOT CHANGE_ROOT [--rounds N]

Each root is a checkout with src/tvcsim; CHANGE_ROOT also needs bench/,
whose audit, takeoff and envelope generators make the cases of checks 1 to
4. The script

1. steps both trees' sim.run_kernel on the same step cases (random states
   and loads over many magnitudes, signed zeros, rates below the small-angle
   cutoff, a NaN in each state or load slot), both integrators, P1-P3 with
   and without Perturbation.standard() at dt 0.2, 1 and 2 ms, and requires
   the 16 returned floats bit for bit, or the same exception and message;
   it also requires the bits of both trees' envelope.lp_max_covering on
   random, extreme and integer (tie-heavy) rows, with one scalar floor and
   one scalar cap per batch, and the reprs of max_pitch_torque_dt/_tvc,
   tvc_dt_ratio and envelope_sweep, or the same exception and message, on
   random robots and searches, infeasible and overflowing ones among them;
   and it requires the same outcome of the wrench API on the states of the
   bench audit ops Audit(seed).make(i), seeds 3, 7 and 11, ops 0-14, passed
   as the op passes them (numpy scalars and arrays) and as plain floats, and
   on int, negative, -0.0 and NaN thrusts, out-of-range perturbations and
   zero quaternions: the stored fields of FanState and Perturbation, then
   generalized_wrench_3d with its world, force_body, torque_body and t_y1-3
   and the force_world and torque_world bytes, read as one unit, or the
   first exception's type and message;
2. runs, through tvcsim.cli.main, each tree in its own subprocess:
   - the bench takeoffs Takeoff(seed, integrator).make(i) for seeds 3, 7
     and 11, ops 0-14, both integrators, as generated and with
     sim.sensor_noise_std and sim.seed = i;
   - the bench envelope ops Envelope(seed).make(i) for the same seeds and
     ops, with --format csv and json;
   - the config files of BAD_ENVELOPE_FILES, each a bad envelope.* value
     alone or beside another fault, on all four commands;
   and compares the hash of every output: the files, the manifest without
   wall_clock_s, stdout, stderr and the exit code;
3. times whole bench takeoff ops, Takeoff(7, integrator).make(i) for ops
   0-14 and both integrators, through each tree's cli.main in this process,
   each tree into its own output directory, the two trees interleaved in a
   random order each round, and prints the minimum and median ms per op;
4. times the bench envelope ops Envelope(7).make(i), ops 0-14, the same way.

It exits 1 on any mismatch in 1 or 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import itertools
import json
import math
import os
import random
import struct
import subprocess
import sys
import tempfile
import time

import numpy as np

SEEDS = (3, 7, 11)
OPS = 15
NOISE_STD = 0.005
POSTURES = ("P1", "P2", "P3")
DTS = (2e-4, 1e-3, 2e-3)
INTEGRATORS = ("euler", "rk4")
FORMATS = ("csv", "json")


def load(root: str, alias: str) -> dict:
    """root's tvcsim package, imported under the name alias: {name: module}."""
    pkg_dir = os.path.join(os.path.abspath(root), "src", "tvcsim")
    spec = importlib.util.spec_from_file_location(
        alias, os.path.join(pkg_dir, "__init__.py"), submodule_search_locations=[pkg_dir])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[alias] = pkg
    spec.loader.exec_module(pkg)
    return {name: importlib.import_module(f"{alias}.{name}")
            for name in ("sim", "robot", "envelope", "cli", "wrench")}


def bench_workloads(change_root: str):
    """change_root's bench/workloads.py, importing change_root's tvcsim."""
    for path in (os.path.join(os.path.abspath(change_root), name) for name in ("bench", "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    return workloads


def kernels(tree, integrator: str) -> list:
    """The step closures over postures x perturbation x dts, in one fixed order."""
    sim, robot = tree["sim"], tree["robot"]
    return [sim.run_kernel(robot.geometry_from_posture(robot.builtin_posture(name)), pert, dt,
                           integrator)[1]
            for name in POSTURES for pert in (None, sim.Perturbation.standard()) for dt in DTS]


def step_cases(rng):
    """26,000 (state, rows) pairs: 13 state floats and 7 wrench rows each."""
    def draw(n, scale):
        return [x * scale for x in rng.normal(0.0, 1.0, n).tolist()]

    for _ in range(20_000):  # random states and loads over many magnitudes
        scale = (10.0 ** rng.uniform(-6.0, 2.0, 5)).tolist()
        yield (draw(3, scale[0]) + draw(3, scale[1]) + draw(4, 1.0) + draw(3, scale[2]),
               tuple(draw(5, scale[3]) + draw(2, scale[4])))
    for case in range(3_000):  # signed zeros, a unit quaternion axis
        zeros = rng.choice([0.0, -0.0], 17).tolist()
        zeros[6 + case % 4] = float(rng.choice([1.0, -1.0]))
        yield zeros[0:13], tuple(zeros[13:17] + draw(3, float(rng.choice([0.0, 1.0]))))
    for _ in range(2_980):  # rates below the small-angle cutoff, subnormals too
        rates = draw(3, float(rng.choice([1e-13, 1e-300, 5e-324])))
        yield draw(10, 1.0) + rates, tuple(draw(7, 50.0))
    for slot in range(20):  # a NaN in any one state or load component
        values = [0.1, -0.2, 0.3, 1.0, 0.5, -0.4, 0.9, 0.1, -0.3, 0.2, 0.7, -1.1, 0.4,
                  40.0, 170.0, 2.0, -1.0, 0.5, -0.25, 0.1]
        values[slot] = math.nan
        yield values[0:13], tuple(values[13:20])


def outcome(step, state, rows):
    """The step's 16 floats as bytes, or its exception's type and message."""
    try:
        return struct.pack("<16d", *step(0.5, *state, rows))
    except Exception as err:  # DivergenceError is one class per tree, so compare names
        return f"{type(err).__name__}: {err}"


def compare_steps(a, b) -> int:
    """Mismatches between the two trees' steps over the step cases."""
    bad = total = 0
    for seed, integrator in enumerate(INTEGRATORS, start=41):
        pairs = list(zip(kernels(a, integrator), kernels(b, integrator)))
        for case, (state, rows) in enumerate(step_cases(np.random.default_rng(seed))):
            fa, fb = pairs[case % len(pairs)]
            total += 1
            if outcome(fa, state, rows) != outcome(fb, state, rows):
                bad += 1
                if bad <= 5:
                    print(f"  step mismatch: {integrator} case {case} state {state} rows {rows}")
    print(f"steps: {total} cases, {bad} mismatches")
    return bad


def lp_cases(rng):
    """(c, a, floor, cap) for envelope.lp_max_covering: random rows, rows of
    signed zeros, tiny and huge values, and integer rows in -2..2, where ties
    and zero coefficients abound; three batches of each, with one scalar
    floor and one scalar cap drawn per batch."""
    n = 3000
    extreme = np.array([0.0, -0.0, 5e-324, -1e-300, 1.0, -2.0, 1e300, -1.7976931348623157e308])
    families = [
        (lambda: rng.uniform(-1.0, 1.0, (n, 3)), lambda: rng.uniform(-1.0, 2.0, (n, 3)),
         lambda: rng.uniform(-20.0, 120.0), lambda: rng.uniform(0.5, 60.0)),
        (lambda: rng.choice(extreme, (n, 3)), lambda: rng.choice(extreme, (n, 3)),
         lambda: rng.choice(extreme), lambda: abs(rng.choice(extreme))),
        (lambda: rng.integers(-2, 3, (n, 3)).astype(float),
         lambda: rng.integers(-2, 3, (n, 3)).astype(float),
         lambda: rng.integers(-2, 3), lambda: rng.integers(0, 3)),
    ]
    for draws in families:
        for _ in range(3):
            c, a, floor, cap = (draw() for draw in draws)
            yield c, a, float(floor), float(cap)


def lp_outcome(envelope, case) -> bytes | str:
    """The LP's value and x as bytes, or its exception's type and message."""
    try:
        with np.errstate(all="ignore"):  # huge rows overflow alike in both trees
            value, x = envelope.lp_max_covering(*case)
        return value.tobytes() + x.tobytes()
    except Exception as err:
        return f"{type(err).__name__}: {err}"


def envelope_cases(rng, count: int = 600):
    """Random robots and searches as plain numbers; one case in five has an
    overflowing cap or floor, an unreachable floor or a vanishing cap."""
    for k in range(count):
        lo = float(rng.uniform(-90.0, 20.0))
        mass, weight_share = float(rng.uniform(5.0, 25.0)), float(rng.uniform(0.5, 2.0))
        cap = weight_share * mass * 9.81 / 4.0
        floor = mass * 9.81 * float(rng.uniform(0.2, 1.2))
        cap, floor = {0: (1e308, floor), 1: (cap, 1e308), 2: (cap, 5.0 * cap),
                      3: (1e-300, 1e-300)}.get(k % 20, (cap, floor))
        span = float(rng.uniform(0.0, 1.2))
        yield {
            "com": tuple(rng.uniform([-0.1, -0.3], [0.1, 0.3]).tolist()),
            "foot": tuple(rng.uniform([-0.3, -1.2], [0.3, -0.2]).tolist()),
            "range_deg": (lo, float(rng.uniform(lo + 0.5, 90.0))),
            "mass": mass, "waist": float(rng.uniform(0.05, 1.0)),
            "feet": float(rng.uniform(0.05, 0.5)), "cap": cap, "floor": floor,
            "pitch": float(rng.uniform(-0.8, 0.8)),
            "sweep": ((-span, float(rng.uniform(-span, 1.2))) if k % 7 else (span, span),
                      int(rng.integers(1, 10))),
        }


def envelope_outcomes(tree, cases) -> list:
    """Each case's search results as reprs, or exception types and messages."""
    robot, env = tree["robot"], tree["envelope"]
    outcomes = []
    for case in cases:
        posture = robot.Posture("X", case["com"], case["foot"], case["range_deg"])
        geo = robot.geometry_from_posture(posture, mass_total=case["mass"],
                                          fan_spacing_waist=case["waist"],
                                          fan_spacing_feet=case["feet"])
        constraint = env.EnvelopeConstraint(case["floor"], case["cap"],
                                            posture.foot_pitch_range)
        th = case["pitch"]
        for search in (lambda: env.max_pitch_torque_dt(geo, th, constraint),
                       lambda: env.max_pitch_torque_tvc(geo, th, constraint),
                       lambda: env.tvc_dt_ratio(geo, constraint, th),
                       lambda: env.envelope_sweep(geo, constraint, *case["sweep"])):
            try:
                outcomes.append(repr(search()))
            except Exception as err:  # EnvelopeInfeasibleError is one class per tree
                outcomes.append(f"{type(err).__name__}: {err}")
    return outcomes


def compare_envelope(a, b) -> int:
    """Mismatches between the two trees' LP and envelope searches."""
    bad_lp = total_lp = 0
    for case in lp_cases(np.random.default_rng(43)):
        total_lp += 1
        if lp_outcome(a["envelope"], case) != lp_outcome(b["envelope"], case):
            bad_lp += 1
            print(f"  lp mismatch: batch {total_lp}, floor {case[2]!r}, cap {case[3]!r}")
    print(f"lp_max_covering: {total_lp} batches of 3000 rows, {bad_lp} mismatches")
    cases = list(envelope_cases(np.random.default_rng(44)))
    pairs = list(zip(envelope_outcomes(a, cases), envelope_outcomes(b, cases)))
    bad = [i for i, (x, y) in enumerate(pairs) if x != y]
    for i in bad[:5]:
        print(f"  envelope mismatch: case {cases[i // 4]}, search {i % 4}")
    errors = sum(not x.startswith(("EnvelopePoint", "(", "[")) for x, _ in pairs)
    print(f"envelope searches: {len(pairs)} calls ({errors} raise), {len(bad)} mismatches")
    return bad_lp + len(bad)


def wrench_cases(workloads) -> list:
    """(posture, fan state, quaternion, perturbation kwargs or None) cases:
    the audit ops' states as the op passes them, then as plain floats, then
    the edge cases."""
    cases = []
    for seed, index in itertools.product(SEEDS, range(OPS)):
        values = workloads.Audit(seed).make(index).values
        cases += [(values["posture"], (*thrusts, *angles), q, pert)
                  for thrusts, angles, q, pert in values["states"]]
    cases += [(name, tuple(float(x) for x in fan), tuple(q.tolist()),
               None if pert is None else {k: np.asarray(v).tolist() for k, v in pert.items()})
              for name, fan, q, pert in cases]
    level, tilted = (1.0, 0.0, 0.0, 0.0), (0.9, 0.1, -0.3, 0.2)  # the second is not unit
    biased = {"com_offset": (0.01, -0.02, 0.005), "foot_axis_misalignment_left": 0.1,
              "foot_axis_misalignment_right": -0.05, "thrust_scale": (0.9, 1.1, 1.0, 1.2)}
    ints = {"com_offset": (0, 0, 0), "foot_axis_misalignment_left": 0,
            "foot_axis_misalignment_right": 0, "thrust_scale": (1, 1, 1, 1)}
    edges = [(40, 35, 20, 12, 0, 1), (0, 0, 0, 0), (40.0, 35.0, 20.0, 12.0, 0.2, -0.3),
             (-0.0, 0.0, -0.0, 5.0, -0.0, 0.0), (1e300, 1e300, 1e300, 1e300, 0.5, 0.5)]
    for slot in range(6):
        for value in (-1.0, -5e-324, -2, math.nan, math.inf, np.float64(-3.5)):
            fan = [30.0, 25.0, 40.0, 35.0, 0.2, -0.1]
            fan[slot] = value
            edges.append(tuple(fan))
    quats = (level, tilted, np.array(tilted), (0.0, 0.0, 0.0, 0.0), np.zeros(4), (0, 0, 0, 0))
    cases += [("P1", fan, q, pert) for fan in edges for q in quats
              for pert in (None, biased, ints)]
    for bad in ({"foot_axis_misalignment_left": 0.2}, {"foot_axis_misalignment_right": -0.2},
                {"thrust_scale": (1.0, 1.3, 1.0, 1.0)},
                {"thrust_scale": (1.0, math.nan, 1.0, 1.0)},
                {"com_offset": (0.0, 0.0)}, {"thrust_scale": (1.0, 1.0, 1.0)}):
        cases.append(("P2", (30.0, 25.0, 40.0, 35.0, 0.2, -0.1), level, bad))
    return cases


def wrench_outcome(tree, geos, case) -> bytes | str:
    """The case's FanState and Perturbation fields, then its wrench's values,
    as bytes, or the first exception's type and message."""
    name, fan, q, pert = case
    wrench, sim = tree["wrench"], tree["sim"]
    try:
        fs = wrench.FanState(*fan)
        got = struct.pack("<6d", fs.f_front, fs.f_back, fs.f_left, fs.f_right,
                          fs.theta_left, fs.theta_right)
        p = None
        if pert is not None:
            p = sim.Perturbation(**pert)
            got += struct.pack("<9d", *p.com_offset, p.foot_axis_misalignment_left,
                               p.foot_axis_misalignment_right, *p.thrust_scale)
        w = wrench.generalized_wrench_3d(fs, geos[name], q, p)
        got += struct.pack("<15d", *w.world, *w.force_body, *w.torque_body,
                           w.t_y1, w.t_y2, w.t_y3)
        return got + w.force_world.tobytes() + w.torque_world.tobytes()
    except Exception as err:
        return f"{type(err).__name__}: {err}"


def compare_wrench(a, b, change_root: str) -> int:
    """Mismatches between the two trees' wrench API outcomes over wrench_cases."""
    cases = wrench_cases(bench_workloads(change_root))
    outcomes = []
    for tree in (a, b):
        robot = tree["robot"]
        geos = {name: robot.geometry_from_posture(robot.builtin_posture(name))
                for name in POSTURES}
        outcomes.append([wrench_outcome(tree, geos, case) for case in cases])
    bad = [i for i, (x, y) in enumerate(zip(*outcomes)) if x != y]
    for i in bad[:5]:
        print(f"  wrench mismatch: case {i}, {cases[i]}")
    errors = sum(isinstance(x, str) for x in outcomes[0])
    print(f"wrench API: {len(cases)} cases ({errors} raise), {len(bad)} mismatches")
    return len(bad)


BAD_ENVELOPE_FILES = (
    "envelope.n_points = 1\n",
    "envelope.theta_pitch_min_deg = 40\n",
    "envelope.min_vertical_force_n = -5\n",
    "sim.dt_s = 0.01\nenvelope.n_points = 1\n",
    "limits.thrust_max_per_fan_n = 41\nenvelope.n_points = 1\n",  # no level hover
)
COMMANDS = (["envelope", "--postures", "P1"], ["takeoff"], ["trim"],
            ["wrench-eval", "--thrust-fl", "40"])


def run_hash(workloads, argv, out: str) -> str:
    """sha256 of one CLI run: exit code, stdout, stderr and every file in out."""
    code, stdout, stderr = workloads._run_cli(argv)
    h = hashlib.sha256(f"{code}\n{stdout}\n{stderr}\n".encode())
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        if name.endswith("_manifest.json"):
            manifest = json.loads(data)
            manifest.pop("wall_clock_s")
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(name.encode() + b"\0" + data)
    return h.hexdigest()


def output_hashes(root: str, bench_dir: str) -> dict:
    """Run in a subprocess: {run key: run_hash} for root's tree: takeoffs,
    envelopes and the bad envelope settings."""
    sys.path[:0] = [os.path.join(os.path.abspath(root), "src"), bench_dir]
    import workloads

    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        def fresh(key):
            out = os.path.join(tmp, key.replace(" ", "-"))
            os.mkdir(out)
            return out

        for seed, integrator, noise, index in itertools.product(
                SEEDS, INTEGRATORS, (0.0, NOISE_STD), range(OPS)):
            key = f"takeoff seed {seed} {integrator} noise {noise} op {index}"
            out = fresh(key)
            gen = workloads.Takeoff(seed, integrator)
            spec = gen.make(index)
            if noise:
                spec.values |= {"sim.sensor_noise_std": noise, "sim.seed": index}
            gen.prepare(spec, out)  # writes op.cfg and the argv
            hashes[key] = run_hash(workloads, spec.argv, out)
        for seed, fmt, index in itertools.product(SEEDS, FORMATS, range(OPS)):
            key = f"envelope seed {seed} {fmt} op {index}"
            out = fresh(key)
            gen = workloads.Envelope(seed)
            spec = gen.make(index)
            gen.prepare(spec, out)
            hashes[key] = run_hash(workloads, ["--format", fmt, *spec.argv], out)
        for (k, text), argv in itertools.product(enumerate(BAD_ENVELOPE_FILES), COMMANDS):
            key = f"bad-settings file {k} {argv[0]}"
            out = fresh(key)
            cfg = os.path.join(out, "run.cfg")
            with open(cfg, "w") as fh:
                fh.write(text)
            hashes[key] = run_hash(workloads, ["--config", cfg, "--out", out, *argv], out)
    return hashes


def compare_outputs(parent: str, change: str) -> int:
    """Mismatches between the two trees' run outputs, each tree run apart."""
    bench_dir = os.path.join(os.path.abspath(change), "bench")
    runs = []
    for root in (parent, change):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--hash-outputs",
                               root, bench_dir], capture_output=True, text=True, check=True)
        runs.append(json.loads(proc.stdout))
    bad = [key for key in runs[0] if runs[0][key] != runs[1].get(key)]
    bad += [key for key in runs[1] if key not in runs[0]]
    for key in bad[:5]:
        print(f"  output mismatch: {key}")
    for prefix, label in (("takeoff", "takeoffs"), ("envelope", "envelopes"),
                          ("bad-settings", "bad envelope settings")):
        total = sum(key.startswith(prefix) for key in runs[0])
        wrong = sum(key.startswith(prefix) for key in bad)
        print(f"{label}: {total} runs, {wrong} mismatches")
    return len(bad)


def interleaved(runs: dict, rounds: int) -> dict:
    """{name: seconds of each round}: every round calls each run() once, in a random order."""
    times = {name: [] for name in runs}
    for _ in range(rounds):
        for name in random.sample(sorted(runs), 2):
            t0 = time.perf_counter()
            runs[name]()
            times[name].append(time.perf_counter() - t0)
    return times


def report(label: str, unit: str, scale: float, times: dict) -> None:
    """One line: each tree's minimum and median, in unit, and parent/change of the minima."""
    best = {name: min(ts) * scale for name, ts in times.items()}
    mid = {name: sorted(ts)[len(ts) // 2] * scale for name, ts in times.items()}
    print(f"{label}, {unit} over {len(times['parent'])} rounds: "
          f"parent min {best['parent']:.2f} median {mid['parent']:.2f}, "
          f"change min {best['change']:.2f} median {mid['change']:.2f}, "
          f"parent/change min {best['parent'] / best['change']:.3f}")


def time_ops(a, b, gen, label: str, rounds: int) -> None:
    """Interleaved in-process ms per bench op of gen, ops 0-14, of each tree,
    through cli.main, each tree into its own output directory."""
    with tempfile.TemporaryDirectory() as tmp:
        specs = []
        for index in range(OPS):
            spec = gen.make(index)
            os.mkdir(os.path.join(tmp, f"op{index}"))
            gen.prepare(spec, os.path.join(tmp, f"op{index}"))  # writes op.cfg and the argv
            specs.append(spec.argv)

        def ops(tree, name):
            out = os.path.join(tmp, name)
            os.mkdir(out)
            argvs = [[*argv[:3], out, *argv[4:]] for argv in specs]  # argv[3] is --out's

            def run():
                with contextlib.redirect_stdout(io.StringIO()):
                    codes = [tree["cli"].main(argv) for argv in argvs]
                assert all(code in gen.expected_exit for code in codes), codes
            return run

        times = interleaved({"parent": ops(a, "parent"), "change": ops(b, "change")}, rounds)
    report(f"{label} op ({type(gen).__name__}(7) ops 0-{OPS - 1})", "ms per op", 1e3 / OPS,
           times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    parser.add_argument("--rounds", type=int, default=150, help="timing rounds (0 skips)")
    args = parser.parse_args(argv)
    a = load(args.parent_root, "tvcsim_parent")
    b = load(args.change_root, "tvcsim_change")
    bad = (compare_steps(a, b) + compare_envelope(a, b) + compare_wrench(a, b, args.change_root)
           + compare_outputs(args.parent_root, args.change_root))
    if args.rounds > 0:
        workloads = bench_workloads(args.change_root)
        for integrator in INTEGRATORS:
            time_ops(a, b, workloads.Takeoff(7, integrator), f"takeoff {integrator}", args.rounds)
        time_ops(a, b, workloads.Envelope(7), "envelope", args.rounds)
    print("MISMATCH" if bad else "identical")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--hash-outputs"]:
        print(json.dumps(output_hashes(*sys.argv[2:4])))
    else:
        sys.exit(main())
