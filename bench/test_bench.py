"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest bench -q
"""

import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import harness  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from tvcsim import cli, envelope, oracles, sim, spatial, wrench  # noqa: E402
from tvcsim.sim import Perturbation  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name):
    make = workloads.WORKLOADS[name]
    a, b, other = make(7), make(7), make(8)
    specs = [repr(a.make(i).values) for i in range(6)]
    assert specs == [repr(b.make(i).values) for i in range(6)]
    assert specs != [repr(other.make(i).values) for i in range(6)]
    # an op does not depend on which ops were made before it
    assert repr(make(7).make(5).values) == specs[5]


# Shortened runs: the CLI accepts or rejects a config before it simulates or sweeps.
SHORTEN = {"takeoff": ("sim.duration_s", 0.01), "takeoff-rk4": ("sim.duration_s", 0.01),
           "envelope": ("envelope.n_points", 2)}


@pytest.mark.parametrize("name", sorted(SHORTEN))
def test_every_generated_config_is_accepted_by_the_cli(name, tmp_path, capsys):
    wl = workloads.WORKLOADS[name](11)
    key, value = SHORTEN[name]
    for i in range(30):
        spec = wl.make(i)
        spec.values[key] = value
        out = tmp_path / str(i)
        out.mkdir()
        wl.prepare(spec, str(out))
        assert cli.main(spec.argv) == 0, capsys.readouterr().err


def test_every_generated_audit_case_is_valid_input():
    wl = workloads.WORKLOADS["audit"](11)
    for i in range(30):
        spec = wl.make(i)
        lo, hi = wl.geometry(spec)[1].foot_angle_range
        for thrusts, angles, _, pert in spec.values["states"]:
            wrench.FanState(*thrusts, *angles)
            assert all(lo <= a <= hi for a in angles)
            if pert is not None:
                Perturbation(**pert)


def test_self_time_on_a_synthetic_span_tree():
    # op [0, 10] holds a [1, 4] and c [5, 9]; a holds b [2, 3], which raised
    names = ["op", "wrench.a", "spatial.b", "wrench.c"]
    starts, ends = [0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 9.0]
    parents, raised = [-1, 0, 1, 0], [0, 0, 1, 0]
    s = tracing.summarize(names, starts, ends, parents, raised)
    assert {n: r["self"] for n, r in s.items()} == {
        "op": 3.0, "wrench.a": 2.0, "spatial.b": 1.0, "wrench.c": 4.0}
    assert s["spatial.b"]["raised"] == 1 and s["wrench.a"]["raised"] == 0
    m = tracing.layer_metrics(s, steps=0, sweep_points=0, ops=1)
    assert m["wrench.self_frac"] == pytest.approx(0.6)
    assert m["spatial.self_frac"] == pytest.approx(0.1)
    assert m["oracles.self_frac"] == 0.0


def test_wrapped_function_is_counted_once_in_every_binding():
    original = spatial.quat_to_matrix
    t = tracing.Tracer(targets=("spatial.quat_to_matrix", "spatial.quat_to_euler",
                                "sim.SimLog.write_csv"))
    q = spatial.quat_identity()
    t.install()
    try:
        bound = {m.quat_to_matrix for m in (spatial, wrench, sim, oracles)}
        assert len(bound) == 1 and original not in bound
        with t.root():
            spatial.quat_to_matrix(q)
            wrench.quat_to_matrix(q)
            sim.quat_to_matrix(q)
            spatial.quat_to_euler(q)  # calls quat_to_matrix through spatial's global
            sim.SimLog().write_csv(os.devnull)
    finally:
        t.uninstall()
    assert all(m.quat_to_matrix is original for m in (spatial, wrench, sim, oracles))
    s = tracing.summarize(*t.columns())
    assert s["spatial.quat_to_matrix"]["calls"] == 4
    assert s["spatial.quat_to_euler"]["calls"] == 1
    assert s["sim.SimLog.write_csv"]["calls"] == 1
    names, _, _, parents, _ = t.columns()
    euler = names.index("spatial.quat_to_euler")
    assert parents[names.index("spatial.quat_to_matrix", euler)] == euler


def test_stratified_draws_cover_every_stratum_of_a_block():
    for stream in range(3):
        draws = [workloads.stratified(4, i, 15, stream) for i in range(30, 45)]
        assert sorted(int(15 * u) for u in draws) == list(range(15))
    assert workloads.stratified(4, 31, 15, 0) != workloads.stratified(5, 31, 15, 0)


def test_run_size_is_fixed_by_the_seconds_alone():
    for name, make in workloads.WORKLOADS.items():
        wl = make(1)
        n = harness.planned_ops(wl, 20)
        assert n % wl.mix == 0 and n == harness.planned_ops(make(2), 20)


def test_strict_json_rejects_non_finite_numbers():
    assert workloads.strict_json('{"a": 1.5}') == {"a": 1.5}
    with pytest.raises(ValueError):
        workloads.strict_json('{"a": NaN}')


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "takeoff",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_takeoff_checks_catch_tampered_outputs(tmp_path):
    wl = workloads.WORKLOADS["takeoff"](5)
    spec = wl.make(0)
    spec.values["sim.duration_s"] = 0.02
    wl.prepare(spec, str(tmp_path))
    result = wl.execute(spec, str(tmp_path))
    clean = wl.inspect(spec, result, str(tmp_path))
    assert clean.reasons == [] and clean.units == 20
    log = tmp_path / "takeoff_log.csv"
    lines = log.read_text().splitlines()
    lines[1] = "nan" + lines[1][lines[1].index(","):]
    log.write_text("\n".join(lines) + "\n")
    tampered = wl.inspect(spec, result, str(tmp_path))
    assert set(tampered.reasons) == {"manifest_hash_mismatch", "log_not_finite"}
    assert tampered.fingerprint != clean.fingerprint


def test_envelope_check_is_relative_to_the_envelope_magnitude():
    # a TVC tau_max near zero: the 0.1 deg oracle grid misses it by far more
    # than 1% of itself, though by little of the envelope's 25.8 N*m extent
    values = {"geometry.mass_kg": 17.96399027247729,
              "geometry.waist_fan_spacing_m": 0.3170355124991152,
              "geometry.foot_fan_spacing_m": 0.2532216721540003,
              "posture.com_x_m": 0.052663891770359156, "posture.com_z_m": -0.2181635301782667,
              "posture.foot_x_m": 0.07975154355963242, "posture.foot_z_m": -0.5751693568786113,
              "limits.thrust_max_per_fan_n": 49.904568931063935, "envelope.n_points": 51}
    geo, constraint = workloads.WORKLOADS["envelope"](8).geometry(workloads.Spec(14, values))
    theta = -math.pi / 6.0
    p = envelope.max_pitch_torque_tvc(geo, theta, constraint)
    assert abs(p.tau_max) < 0.01
    assert workloads.envelope_agrees((p.tau_min, p.tau_max), geo, theta, constraint, False)
    assert not workloads.envelope_agrees((1.02 * p.tau_min, p.tau_max), geo, theta, constraint,
                                         False)
