"""Compare two tvcsim checkouts in one process: bits, outputs, time.

    python tools/kernel_ab.py PARENT_ROOT CHANGE_ROOT [--rounds N]

Each root is a checkout with src/tvcsim; CHANGE_ROOT also needs the bench/
generators, tests/golden/'s cases and tests/test_fuzz.py's extremes (which
import hypothesis). Both trees are imported here, and each
family runs one case list, built once, through each tree:

- steps: sim._kernel's step, both integrators, on P1-P3 and on six drawn
  surrogate robots (fan mass and both fan spacings log-uniform, so the
  principal moments span about six decades), each with and without
  Perturbation.standard() at dt 0.2, 1 and 2 ms, on random states and loads
  over many magnitudes, signed zeros, tiny rates, a NaN in each slot and
  overflows (each component of p, v and omega in turn at +-1e100, +-1e200
  and +-1e308, which the divergence guards must end), reported block by
  block;
- ticks: controller.AttitudeController.step through sequences of drawn
  inputs, every mode (built as controller.ControlMode(label), which a tree
  with or without ControlMode.parse accepts), with and without I gains and
  setpoints (always passed, as the controller has no default), on foot ranges
  that end at +-0.0 too, with signed zeros, NaNs, bad periods, and commands
  that tie the range ends and the slew bounds. An infinite yaw error raises
  math's ValueError, and a sequence ends at it: the parent of the compiled
  tick had added the pitch error to its integral before it raised;
- lp_max_covering on random, extreme and integer (tie-heavy) rows;
- envelope searches: max_pitch_torque_dt/_tvc, tvc_dt_ratio and
  envelope_sweep on random robots, infeasible and overflowing ones among them,
  and on robots whose candidate foot angles tie bit for bit, each result kept
  as its points' floats packed with struct (None as a marker), not as a repr;
- wrench API: FanState, Perturbation, generalized_wrench_3d and wrench_kernel's
  body rows on the states of the bench audit ops of seeds 3, 7 and 11, ops
  0-14, as the op passes them and as plain floats, and on bad thrusts,
  perturbations and quaternions;
- oracles: oracles.envelope_extrema_grid, both strategies, on the robots of
  the envelope searches (overflowing and vanishing caps and floors, foot
  ranges of one angle) and on oracle_robots, whose caps and floors reach
  5e-324 and inf, each at its own pitch and at ORACLE_PITCHES, which put the
  body at and past 90 deg; oracles.trim_scan on the same geometries;
  oracles.wrench_brute_force on the wrench API's cases;
- CLI runs through cli.main: the bench takeoff ops of those seeds, both
  integrators, in two blocks, as made and with sensor noise, so that a change
  of the noise stream cannot hide a mismatch among the runs without it; the
  bench envelope ops in csv and json; bad config files, every config key
  alone at each extreme of its type that tests/test_fuzz.py sweeps, then
  TWO_KEY_FILES, which pin the order of the checks, on that sweep's four
  commands, at the default 2.5 s, so that a takeoff lifts off (that sweep
  runs 0.05 s, on the ground) and a huge perturbation.com_offset_*_m
  overflows a step aloft; and the CASES of tests/golden/regen.py. Each run
  works in a fresh directory with relative paths, and is kept as its exit
  code, a hash of its stdout and output files, and its stderr, so that a
  family counts the mismatches of exit code and those of stderr alone apart.
- generated sources: the source text that spatial.compile_build compiles
  for sim._step_builder's step and run, each integrator,
  wrench.rows_builder and controller.tick_builder, read back from
  linecache, where compile_build keeps it, and the bytecode of the function
  each build returns (co_code, co_consts, co_names and co_freevars), so that
  a change to the build wrapper alone shows as text mismatches with equal
  bytecode. A function that binds its math as its own locals, where its
  build had bound it as closure cells, shows as a bytecode mismatch; one that
  had bound it itself all along, as run has, as a text mismatch alone.

An outcome is bytes, or an exception's type name and message, so a str always
means a raise. Each family prints its totals, raises and first five
mismatches. Unless --rounds is 0, each case of the seed-7 bench ops
(takeoffs, both integrators, and envelopes) through cli.main, and of
sim.run_scenario alone on their takeoff configs and on the default config,
is then timed on each tree and on a second load of the parent, the three in
a random order each round. Per-case minima and medians are summed;
parent/parent2, the A/A ratio, tells how far parent/change moves on
identical code. The script exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import importlib.util
import io
import itertools
import json
import linecache
import math
import os
import random
import statistics
import struct
import sys
import tempfile
import time
import types
from pathlib import Path

import numpy as np

SEEDS = (3, 7, 11)
OPS = 15
NOISE_STD = 0.005
POSTURES = ("P1", "P2", "P3")
DTS = (2e-4, 1e-3, 2e-3)
INTEGRATORS = ("euler", "rk4")


def load(root: str, alias: str) -> dict:
    """root's tvcsim package, imported under the name alias: {name: module}."""
    pkg_dir = os.path.join(os.path.abspath(root), "src", "tvcsim")
    spec = importlib.util.spec_from_file_location(
        alias, os.path.join(pkg_dir, "__init__.py"), submodule_search_locations=[pkg_dir])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[alias] = pkg
    spec.loader.exec_module(pkg)
    return {name: importlib.import_module(f"{alias}.{name}")
            for name in ("sim", "robot", "envelope", "cli", "wrench", "config", "controller",
                         "spatial", "oracles")}


def change_modules(change_root: str):
    """change_root's bench/workloads.py, tests/golden/regen.py and
    tests/test_fuzz.py, importing its tvcsim."""
    root = os.path.abspath(change_root)
    sys.path[:0] = [os.path.join(root, path)
                    for path in ("tests/golden", "tests", "bench", "src")]
    return tuple(map(importlib.import_module, ("workloads", "regen", "test_fuzz")))


def attempt(call) -> bytes | str:
    """call()'s bytes, or its exception's type name and message (one class per tree)."""
    try:
        return call()
    except Exception as err:
        return f"{type(err).__name__}: {err}"


STEP_BLOCKS = ("random states", "signed zeros", "tiny rates", "NaNs", "overflows")


def step_cases(rng):
    """26,054 (block, state, rows) triples: one of STEP_BLOCKS, 13 state floats
    and 7 wrench rows."""
    def draw(n, scale):
        return [x * scale for x in rng.normal(0.0, 1.0, n).tolist()]

    for _ in range(20_000):  # random states and loads over many magnitudes
        scale = (10.0 ** rng.uniform(-6.0, 2.0, 5)).tolist()
        yield ("random states",
               draw(3, scale[0]) + draw(3, scale[1]) + draw(4, 1.0) + draw(3, scale[2]),
               tuple(draw(5, scale[3]) + draw(2, scale[4])))
    for case in range(3_000):  # signed zeros, a unit quaternion axis
        zeros = rng.choice([0.0, -0.0], 17).tolist()
        zeros[6 + case % 4] = float(rng.choice([1.0, -1.0]))
        yield ("signed zeros", zeros[0:13],
               tuple(zeros[13:17] + draw(3, float(rng.choice([0.0, 1.0])))))
    for _ in range(2_980):  # rates below the small-angle cutoff, subnormals too
        rates = draw(3, float(rng.choice([1e-13, 1e-300, 5e-324])))
        yield "tiny rates", draw(10, 1.0) + rates, tuple(draw(7, 50.0))
    for slot in range(20):  # a NaN in any one state or load component
        values = [0.1, -0.2, 0.3, 1.0, 0.5, -0.4, 0.9, 0.1, -0.3, 0.2, 0.7, -1.1, 0.4,
                  40.0, 170.0, 2.0, -1.0, 0.5, -0.25, 0.1]
        values[slot] = math.nan
        yield "NaNs", values[0:13], tuple(values[13:20])
    for slot, huge in itertools.product((0, 1, 2, 3, 4, 5, 10, 11, 12),
                                        (1e100, -1e100, 1e200, -1e200, 1e308, -1e308)):
        values = [0.1, -0.2, 0.3, 1.0, 0.5, -0.4, 0.9, 0.1, -0.3, 0.2, 0.7, -1.1, 0.4]
        values[slot] = huge  # a component of p, v or omega
        yield "overflows", values, (40.0, 170.0, 2.0, -1.0, 0.5, -0.25, 0.1)


def step_robots(rng, count: int = 6) -> list:
    """geometry_from_posture arguments: P1-P3 as built, then count surrogate
    robots on drawn postures, with fan mass in [1e-6, 1] kg and each fan
    spacing in [0.01, 3] m, both log-uniform."""
    robots = [(name, {}) for name in POSTURES]
    for _ in range(count):
        fan_mass, waist, feet = (10.0 ** rng.uniform([-6.0, -2.0, -2.0], [0.0, 0.5, 0.5])).tolist()
        robots.append((str(rng.choice(POSTURES)), {"fan_mass": fan_mass,
                                                    "fan_spacing_waist": waist,
                                                    "fan_spacing_feet": feet}))
    return robots


def steps(tree, cases) -> list:
    """Case k of an integrator on the (k mod 54)th of its robots x perturbations x dts."""
    sim, robot = tree["sim"], tree["robot"]
    kernels = {integrator: [
        sim._kernel("step", robot.geometry_from_posture(robot.builtin_posture(name), **fields),
                    pert, dt, integrator)
        for name, fields in step_robots(np.random.default_rng(46))
        for pert in (None, sim.Perturbation.standard()) for dt in DTS]
        for integrator in INTEGRATORS}

    def run(integrator, k, _block, state, rows):
        step = kernels[integrator][k % len(kernels[integrator])]
        return struct.pack("<16d", *step(0.5, *state, rows))

    return [attempt(lambda: run(*case)) for case in cases]


def tick_cases(rng):
    """(mode, gains, setpoint (pitch, yaw), ankle rate, trim, foot range in
    deg, ticks) cases; a tick is (pitch, yaw, rate_y, rate_z, period)."""
    specials = [0.0, -0.0, math.nan, math.inf, math.pi, -math.pi, 5e-324, 3.5]
    ranges = ((-44.0, 78.0), (-90.0, 90.0), (-0.0, 30.0), (-30.0, 0.0), (-10.0, -0.0))
    for k in range(2_400):  # random controllers and inputs
        lo, hi = ranges[k % len(ranges)]
        gains = (rng.uniform(0.0, 3.0, 4).tolist()
                 + (rng.uniform(0.0, 3.0, 2).tolist() if k % 2 else [0.0, 0.0]))
        setpoint = [float(rng.choice([0.0, -0.0])), float(rng.choice([0.0, -0.0]))]
        if k % 3 == 0:
            setpoint = [float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-4.0, 4.0))]
        ticks = []
        for _ in range(12):
            tick = (rng.normal(0.0, 0.3, 4) * 10.0 ** rng.uniform(-3.0, 1.0, 4)).tolist()
            if rng.random() < 0.2:
                tick[int(rng.integers(4))] = float(rng.choice(specials))
            ticks.append((*tick, float(rng.choice([0.004, 0.002, 1e-3]))))
        if k % 50 == 0:  # a bad period is refused before it touches the state
            ticks.insert(6, (0.1, 0.1, 0.0, 0.0, float(rng.choice([0.0, -1.0, math.nan]))))
        trim = float(rng.choice([0.1, 0.0, -0.0, math.radians(lo), math.radians(hi)]))
        yield (("both-on", "pitch-only", "all-off")[k % 3], gains, setpoint,
               float(rng.choice([8.0, 0.5, 1e6])), trim, (lo, hi), ticks)
    for (lo, hi), mode in itertools.product(ranges, ("both-on", "pitch-only", "all-off")):
        # mean = pitch exactly under pitch-only gains (1, 0, 0, 0) at a trim of 0:
        # measured pitches at +-slew tie the slew bounds, at the range ends the range
        slew, ends = 8.0 * 0.004, (math.radians(lo), math.radians(hi))
        ticks = [(x, 0.0, 0.0, 0.0, 0.004) for x in (slew, -slew, 0.0, -0.0, *ends)]
        for rate in (8.0, 1e6):
            for trim in (0.0, -0.0, *ends):
                yield mode, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0], rate, trim, (lo, hi), ticks


def ticks(tree, cases) -> list:
    """Each case's commands, tick by tick, as bytes (a refused tick as its message)."""
    controller, robot, spatial = tree["controller"], tree["robot"], tree["spatial"]

    def run(mode, gains, setpoint, rate, trim, foot_range, inputs):
        ctl = controller.AttitudeController(
            controller.ControllerGains(*gains), controller.ControlMode(mode),
            robot.Posture("X", (0.02, -0.24), (0.02, -0.61), foot_range),
            robot.FanLimits(foot_pitch_rate_max=rate), trim,
            setpoint=spatial.EulerAngles(0.0, *setpoint))
        out = b""
        for tick in inputs:
            result = attempt(lambda: struct.pack("<2d", *ctl.step(*tick)))
            if isinstance(result, str) and result.startswith("ValueError: math"):
                return out + result.encode()
            out += result if isinstance(result, bytes) else result.encode()
        return out

    return [attempt(lambda: run(*case)) for case in cases]


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


def lp(tree, cases) -> list:
    def solve(case):
        value, x = tree["envelope"].lp_max_covering(*case)
        return value.tobytes() + x.tobytes()

    with np.errstate(all="ignore"):  # huge rows overflow alike in both trees
        return [attempt(lambda: solve(case)) for case in cases]


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
            "range": (math.radians(lo), math.radians(float(rng.uniform(lo + 0.5, 90.0)))),
            "mass": mass, "waist": float(rng.uniform(0.05, 1.0)),
            "feet": float(rng.uniform(0.05, 0.5)), "cap": cap, "floor": floor,
            "pitch": float(rng.uniform(-0.8, 0.8)),
            "sweep": ((-span, float(rng.uniform(-span, 1.2))) if k % 7 else (span, span),
                      int(rng.integers(1, 10))),
        }


def tie_cases():
    """Robots whose candidate foot angles tie bit for bit, which the random draw
    never makes: foot ranges of one angle (at 0.0, -0.0 and off zero) or ending
    at +-0.0; the CoM over the foot fans (a zero vertical arm, so signed zeros
    reach the objective), and on them too; caps at which both feet, or all four
    fans, just meet the floor (an acos ratio of 1); searches at pitch +-0.0 and
    +-pi/2, and sweeps through them."""
    half_pi = math.pi / 2
    ranges = ((0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (0.5, 0.5), (-half_pi, -half_pi),
              (-1.0, 0.0), (-1.0, -0.0), (0.0, 1.0), (-0.0, half_pi))
    robots = (((0.025, -0.243), (0.02, -0.61)), ((0.02, -0.243), (0.02, -0.61)),
              ((0.0, -0.3), (0.0, -0.6)), ((0.02, -0.61), (0.02, -0.61)))
    searches = ((0.0, ((-half_pi, half_pi), 3)), (-0.0, ((-0.0, 0.0), 2)),
                (half_pi, ((-half_pi, -0.0), 4)), (-half_pi, ((0.0, half_pi), 5)))
    for (com, foot), foot_range, cap in itertools.product(robots, ranges, (30.0, 49.05, 24.525)):
        for pitch, sweep in searches:
            yield {"com": com, "foot": foot, "range": foot_range, "mass": 10.0, "waist": 0.3,
                   "feet": 0.2, "cap": cap, "floor": 98.1, "pitch": pitch, "sweep": sweep}


def case_geometry(robot, case):
    """The RobotGeometry of an envelope_cases or tie_cases robot."""
    posture = robot.Posture("X", case["com"], case["foot"], (-90.0, 90.0))
    return robot.geometry_from_posture(posture, mass_total=case["mass"],
                                       fan_spacing_waist=case["waist"],
                                       fan_spacing_feet=case["feet"])


def point_bytes(point) -> bytes:
    """An EnvelopePoint's or a SweepPoint's floats packed, b"none" for None:
    read from the fields, so a tree whose records have a repr and one whose
    records have none encode alike."""
    if point is None:
        return b"none"
    if hasattr(point, "tvc"):
        return struct.pack("<d", point.theta_pitch) + point_bytes(point.dt) + point_bytes(point.tvc)
    return struct.pack("<3d", point.theta_pitch, point.tau_max, point.tau_min)


def envelope_searches(tree, cases) -> list:
    """Each (robot, search number) case's result as bytes: the point's floats,
    the ratio pair, or each sweep point's in turn."""
    robot, env = tree["robot"], tree["envelope"]

    def search(case, k):
        geo = case_geometry(robot, case)
        constraint = env.EnvelopeConstraint(case["floor"], case["cap"], case["range"])
        calls = (lambda: point_bytes(env.max_pitch_torque_dt(geo, case["pitch"], constraint)),
                 lambda: point_bytes(env.max_pitch_torque_tvc(geo, case["pitch"], constraint)),
                 lambda: struct.pack("<2d", *env.tvc_dt_ratio(geo, constraint, case["pitch"])),
                 lambda: b"".join(map(point_bytes,
                                      env.envelope_sweep(geo, constraint, *case["sweep"]))))
        return calls[k]()

    return [attempt(lambda: search(case, k)) for case, k in cases]


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


def wrench_api(tree, cases) -> list:
    """Each case's FanState and Perturbation fields, then its wrench's world rows,
    wrench_kernel's seven body rows and the wrench's pitch terms."""
    wrench, sim, robot = tree["wrench"], tree["sim"], tree["robot"]
    geos = {name: robot.geometry_from_posture(robot.builtin_posture(name)) for name in POSTURES}

    def evaluate(name, fan, q, pert):
        fs = wrench.FanState(*fan)
        got = struct.pack("<6d", fs.f_front, fs.f_back, fs.f_left, fs.f_right,
                          fs.theta_left, fs.theta_right)
        p = None
        if pert is not None:
            p = sim.Perturbation(**pert)
            got += struct.pack("<9d", *p.com_offset, p.foot_axis_misalignment_left,
                               p.foot_axis_misalignment_right, *p.thrust_scale)
        w = wrench.generalized_wrench_3d(fs, geos[name], q, p)
        rows = wrench.wrench_kernel(geos[name], p)(fs.f_front, fs.f_back, fs.f_left, fs.f_right,
                                                   fs.theta_left, fs.theta_right)
        got += struct.pack("<16d", *w.world, *rows, w.t_y1, w.t_y2, w.t_y3)
        return got + w.force_world.tobytes() + w.torque_world.tobytes()

    return [attempt(lambda: evaluate(*case)) for case in cases]


# the body level, at +-90 deg (cos(theta_pitch) about 6e-17), past 90 deg and upside down
ORACLE_PITCHES = (0.0, -0.0, math.pi / 2, -math.pi / 2, math.radians(100.0),
                  math.radians(-100.0), math.pi, -math.pi)


def oracle_robots(rng, count: int = 200):
    """Robots in the form of envelope_cases for the oracles alone, beyond what
    the searches accept: caps and floors from 5e-324 to inf, so that a zero
    corner is feasible and sums overflow to inf and nan, a foot range of one
    angle in one case of five, and the CoM anywhere from behind the back fan
    to ahead of the front one."""
    caps = (30.0, 49.05, 1e-300, 5e-324, 1e308, math.inf)
    floors = (98.1, 150.0, 1e308, 2e-9, 1e-9, 1e-300, 5e-324)
    for k in range(count):
        lo = float(rng.uniform(-90.0, 60.0))
        hi = lo if k % 5 == 0 else float(rng.uniform(lo, 90.0))
        yield {"com": tuple(rng.uniform([-0.5, -0.5], [0.5, 0.5]).tolist()),
               "foot": tuple(rng.uniform([-0.5, -1.2], [0.5, -0.1]).tolist()),
               "range": (math.radians(lo), math.radians(hi)), "mass": float(rng.uniform(5.0, 25.0)),
               "waist": float(rng.uniform(0.01, 1.0)), "feet": float(rng.uniform(0.05, 0.5)),
               "cap": float(rng.choice(caps)), "floor": float(rng.choice(floors)),
               "pitch": float(rng.uniform(-3.2, 3.2))}


def oracle_cases(robots: list, wrenches: list) -> list:
    """(oracle name, arguments) cases: the grid oracle on each robot at its own
    pitch and at ORACLE_PITCHES, each strategy, then the trim scan on each
    robot, then the brute-force wrench on each wrench API case."""
    pitches = [(case, pitch) for case in robots for pitch in (case["pitch"], *ORACLE_PITCHES)]
    return ([("envelope_extrema_grid", (case, pitch, dt))
             for case, pitch in pitches for dt in (True, False)]
            + [("trim_scan", case) for case in robots]
            + [("wrench_brute_force", case) for case in wrenches])


def oracles(tree, cases) -> list:
    """Each case's result as bytes: the grid oracle's pair (b"none" if
    infeasible), the trim scan's triple, the brute-force force and torque."""
    robot, env, orc = tree["robot"], tree["envelope"], tree["oracles"]
    geos = {name: robot.geometry_from_posture(robot.builtin_posture(name)) for name in POSTURES}

    def call(name, args):
        if name == "envelope_extrema_grid":
            case, pitch, dt_strategy = args
            constraint = env.EnvelopeConstraint(case["floor"], case["cap"], case["range"])
            got = orc.envelope_extrema_grid(case_geometry(robot, case), pitch, constraint,
                                            dt_strategy=dt_strategy)
            return b"none" if got is None else struct.pack("<2d", *got)
        if name == "trim_scan":
            return struct.pack("<3d", *orc.trim_scan(case_geometry(robot, args)))
        posture, fan, q, pert = args
        p = None if pert is None else tree["sim"].Perturbation(**pert)
        force, torque = orc.wrench_brute_force(tree["wrench"].FanState(*fan), geos[posture], q, p)
        return force.tobytes() + torque.tobytes()

    with np.errstate(all="ignore"):  # huge caps overflow alike in both trees
        return [attempt(lambda: call(*case)) for case in cases]


TWO_KEY_FILES = (
    "sim.dt_s = 0.01\nenvelope.n_points = 1\n",
    "limits.thrust_max_per_fan_n = 41\nenvelope.n_points = 1\n",  # no level hover
)


def bad_config_files(fuzz) -> list[str]:
    """Every key of fuzz's SCHEMA alone at each of fuzz.EXTREMES_BY_TYPE's
    values of its type, written as fuzz.run_main writes them, then TWO_KEY_FILES."""
    return [f"{key} = {value!r}\n" if typ is float else f"{key} = {value}\n"
            for key, (typ, *_) in fuzz.SCHEMA.items()
            for value in fuzz.EXTREMES_BY_TYPE[typ]] + list(TWO_KEY_FILES)


def bench_ops(gen, seed_noise: bool = False, prefix=()) -> list:
    """(config text, argv after --config and --out) of gen's ops 0-14, as gen
    writes them; with seed_noise, sim.sensor_noise_std and sim.seed = op index."""
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        for index in range(OPS):
            spec = gen.make(index)
            if seed_noise:
                spec.values |= {"sim.sensor_noise_std": NOISE_STD, "sim.seed": index}
            gen.prepare(spec, tmp)  # writes op.cfg and the argv
            cases.append((Path(spec.argv[1]).read_text(), [*prefix, *spec.argv[4:]]))
    return cases


def run_cli(tree, argv) -> tuple:
    """(exit code, stdout, stderr) of tree's cli.main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tree["cli"].main(argv)
        except SystemExit as exc:  # argparse rejects usage errors this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_runs(tree, cases) -> list:
    """Each (config text or None, argv) case run in a fresh directory as
    --config case.cfg --out out: its exit code, the sha256 of its stdout and
    every file in out, and its stderr."""
    def run(config, argv):
        if config is not None:
            Path("case.cfg").write_text(config)
            argv = ["--config", "case.cfg", *argv]
        code, stdout, stderr = run_cli(tree, ["--out", "out", *argv])
        h = hashlib.sha256(stdout.encode())
        for name in sorted(os.listdir("out")) if os.path.isdir("out") else ():
            with open(os.path.join("out", name), "rb") as fh:
                data = fh.read()
            if name.endswith("_manifest.json"):  # wall_clock_s differs run to run
                data = json.dumps(json.loads(data) | {"wall_clock_s": 0}, sort_keys=True).encode()
            h.update(name.encode() + b"\0" + data)
        return code, h.digest(), stderr

    outcomes, home = [], os.getcwd()
    for config, argv in cases:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)  # so messages that name a path match across trees
            try:
                outcomes.append(attempt(lambda: run(config, argv)))
            finally:
                os.chdir(home)
    return outcomes


BUILDS = (*(("sim", "_step_builder", (integrator, name))
            for integrator in INTEGRATORS for name in ("step", "run")),
          ("wrench", "rows_builder", ()), ("controller", "tick_builder", ()))


def generated_sources(tree, cases) -> list:
    """Each (module, builder, arguments) case's (bytecode, source text), as
    compiled: the bytecode is that of the one function the build defines.

    The builder's cached result would skip compile_build, and both trees
    file a build under one linecache name, so each case builds afresh and
    reads the text back at once."""
    def source(module, builder, args):
        build = getattr(tree[module], builder).__wrapped__(*args)
        (code,) = [c for c in build.__code__.co_consts if isinstance(c, types.CodeType)]
        return (repr((code.co_code, code.co_consts, code.co_names, code.co_freevars)).encode(),
                "".join(linecache.cache[build.__code__.co_filename][2]).encode())

    return [attempt(lambda: source(*case)) for case in cases]


def battery(workloads, regen, fuzz) -> list:
    """(label, unit, family, cases) of every family, each case list built once."""
    step_list = [(integrator, k, *case) for seed, integrator in enumerate(INTEGRATORS, start=41)
                 for k, case in enumerate(step_cases(np.random.default_rng(seed)))]
    robots = [*envelope_cases(np.random.default_rng(44)), *tie_cases()]
    wrenches = wrench_cases(workloads)
    return [
        *((f"steps, {block}", "cases", steps, [case for case in step_list if case[2] == block])
          for block in STEP_BLOCKS),
        ("ticks", "controllers", ticks, list(tick_cases(np.random.default_rng(45)))),
        ("lp_max_covering", "batches of 3000 rows", lp,
         list(lp_cases(np.random.default_rng(43)))),
        ("envelope searches", "calls", envelope_searches,
         [(case, k) for case in robots for k in range(4)]),
        ("wrench API", "cases", wrench_api, wrenches),
        ("oracles", "calls", oracles,
         oracle_cases([*robots, *oracle_robots(np.random.default_rng(49))], wrenches)),
        *((f"takeoffs, {block}", "runs", cli_runs,
           [case for seed, integrator in itertools.product(SEEDS, INTEGRATORS)
            for case in bench_ops(workloads.Takeoff(seed, integrator), noise)])
          for block, noise in (("as made", False), ("with sensor noise", True))),
        ("envelopes", "runs", cli_runs,
         [case for seed, fmt in itertools.product(SEEDS, ("csv", "json"))
          for case in bench_ops(workloads.Envelope(seed), prefix=("--format", fmt))]),
        ("bad config files", "runs", cli_runs,
         list(itertools.product(bad_config_files(fuzz), fuzz.COMMANDS))),
        ("golden cases", "runs", cli_runs, list(regen.CASES.values())),
        ("generated sources", "builds", generated_sources, list(BUILDS)),
    ]


# the parts of a family's tuple outcomes, by unit: the first, and the last,
# which can differ alone
PARTS = {"runs": ("exit code", "stderr"), "builds": ("bytecode", "text")}


def compare(label: str, unit: str, cases, parent: list, change: list) -> int:
    """Print the family's totals, raises and first five mismatches, and of a
    family with tuple outcomes the mismatches of its first PARTS and those of
    its last alone; return the mismatches."""
    bad = [i for i, (x, y) in enumerate(zip(parent, change, strict=True)) if x != y]
    for i in bad[:5]:
        print(f"  {label} mismatch: case {i}: {' '.join(repr(cases[i]).split())[:400]}")
    raises = sum(isinstance(x, str) for x in parent)
    runs = [(parent[i], change[i]) for i in bad
            if isinstance(parent[i], tuple) and isinstance(change[i], tuple)]
    split = ""
    if runs:
        first, last = PARTS[unit]
        split = (f" ({sum(x[0] != y[0] for x, y in runs)} of {first}, "
                 f"{sum(x[:-1] == y[:-1] for x, y in runs)} of {last} alone)")
    print(f"{label}: {len(cases)} {unit} ({raises} raise), {len(bad)} mismatches{split}")
    return len(bad)


def timed(workloads) -> list:
    """(label, cases) of every timed family, a case as timed_calls takes it: the
    seed-7 bench ops, then run_scenario alone on their takeoff configs and on
    the default config (fewer of its steps are on the ground)."""
    takeoffs = [workloads.Takeoff(7, integrator) for integrator in INTEGRATORS]
    ops = [(f"takeoff {gen.integrator}", gen) for gen in takeoffs]
    return ([(f"{label} ops", [(*op, gen.expected_exit) for op in bench_ops(gen)])
             for label, gen in [*ops, ("envelope", workloads.Envelope(7))]]
            + [(f"run_scenario {gen.integrator} ({what})", [(text, None, None) for text in texts])
               for gen in takeoffs
               for what, texts in (("seed-7 takeoff configs", [t for t, _ in bench_ops(gen)]),
                                   ("the default config", [f"sim.integrator = {gen.integrator}"]))])


def timed_calls(tree, work: str, cases: list) -> list:
    """tree's zero-argument call of each (config text, argv, exit codes) case:
    cli.main on the config written into work, with --out work and argv,
    asserting one of the exit codes, or, where argv is None, run_scenario
    alone on the config's scenario."""
    def cli(argv, codes):
        code = run_cli(tree, argv)[0]
        assert code in codes, code

    config, calls = tree["config"], []
    for k, (text, argv, codes) in enumerate(cases):
        if argv is None:
            cfg = config.scenario_from_config(config.parse_config_text(text))
            calls.append(functools.partial(tree["sim"].run_scenario, cfg))
        else:
            path = os.path.join(work, f"op{k}.cfg")
            Path(path).write_text(text)
            calls.append(functools.partial(cli, ["--config", path, "--out", work, *argv], codes))
    return calls


def time_cases(trees: dict, label: str, cases: list, rounds: int) -> None:
    """Interleaved time of each case on each tree, the trees in a random order
    each round: the per-case minima and medians summed, parent/change and
    parent/parent2 of the minima, and parent/change's range over the cases."""
    times = {name: [[] for _ in cases] for name in trees}
    with tempfile.TemporaryDirectory() as tmp:  # mkdtemp's names are of one length
        calls = {name: timed_calls(tree, tempfile.mkdtemp(dir=tmp), cases)
                 for name, tree in trees.items()}
        for _ in range(rounds):
            for name in random.sample(sorted(trees), len(trees)):
                for k, call in enumerate(calls[name]):
                    t0 = time.perf_counter()
                    call()
                    times[name][k].append(time.perf_counter() - t0)
    best = {name: [min(ts) for ts in per_case] for name, per_case in times.items()}
    total = {name: sum(ts) * 1e3 for name, ts in best.items()}
    median = {name: sum(statistics.median(ts) for ts in per_case) * 1e3
              for name, per_case in times.items()}
    ratios = sorted(p / c for p, c in zip(best["parent"], best["change"]))
    print(f"{label}, {len(ratios)} cases over {rounds} rounds, ms summed over the cases: "
          + "".join(f"{name} min {total[name]:.2f} median {median[name]:.2f}, "
                    for name in trees)
          + f"parent/change {total['parent'] / total['change']:.3f}, "
          + f"parent/parent2 {total['parent'] / total['parent2']:.3f}; "
          + f"per-case parent/change {ratios[0]:.3f}-{ratios[-1]:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    parser.add_argument("--rounds", type=int, default=150, help="timing rounds (0 skips)")
    args = parser.parse_args(argv)
    a = load(args.parent_root, "tvcsim_parent")
    b = load(args.change_root, "tvcsim_change")
    workloads, regen, fuzz = change_modules(args.change_root)
    bad = sum(compare(label, unit, cases, family(a, cases), family(b, cases))
              for label, unit, family, cases in battery(workloads, regen, fuzz))
    if args.rounds > 0:
        trees = {"parent": a, "change": b, "parent2": load(args.parent_root, "tvcsim_parent2")}
        for label, cases in timed(workloads):
            time_cases(trees, label, cases, args.rounds)
    print("MISMATCH" if bad else "identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
