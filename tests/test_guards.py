"""Guards on contracts kept outside the package (bench trace targets, README),
on code that only tests call, on numpy imports in the scalar modules, on the
one geometry construction, on the takeoff loop's and the hover trim's wrench
evaluations, rotation-matrix builds and fan-state constructions and on the
envelope solver's batching."""

import ast
import collections
import importlib
import pathlib
import re

from tvcsim import envelope, robot, sim, wrench
from tvcsim.config import SCHEMA
from tvcsim.robot import builtin_posture, geometry_from_posture
from tvcsim.trim import hover_trim

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_bench_trace_target_resolves():
    # the tracer looks each name up in its module; a missing one breaks --trace 1
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    (targets,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]]
    assert targets
    for target in targets:
        module_name, name, *method = target.split(".")
        obj = vars(importlib.import_module(f"tvcsim.{module_name}"))[name]
        for attr in method:
            obj = vars(obj)[attr]
        assert callable(obj), target


def test_readme_config_table_lists_exactly_the_schema():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Configuration files", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    assert len(keys) == len(set(keys))
    assert set(keys) == set(SCHEMA)


def test_every_top_level_name_is_used_outside_the_tests():
    # a function or class that only tests call is dead weight; the oracles are
    # shipped for re-audits and exempt
    package = ROOT / "src" / "tvcsim"
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    words = collections.Counter(word for path in paths + sorted((ROOT / "bench").glob("*.py"))
                                for word in re.findall(r"\w+", path.read_text()))
    unused = [f"{path.stem}.{node.name}" for path in paths if path.name != "oracles.py"
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and words[node.name] < 2]  # one of them is the def itself
    assert unused == []


def test_scalar_modules_import_no_numpy():
    # the scalar model runs on floats; numpy stays where arrays pay
    for name in ("robot", "controller", "trim", "config", "cli"):
        tree = ast.parse((ROOT / "src" / "tvcsim" / f"{name}.py").read_text())
        imported = [alias.name for node in tree.body if isinstance(node, ast.Import)
                    for alias in node.names]
        imported += [node.module for node in tree.body
                     if isinstance(node, ast.ImportFrom) and node.module]
        assert not [m for m in imported if m.split(".")[0] == "numpy"], name


def test_geometry_is_built_once(monkeypatch):
    calls = 0
    surrogate = robot.point_mass_inertia

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return surrogate(*args, **kwargs)

    monkeypatch.setattr(robot, "point_mass_inertia", counted)
    geo = geometry_from_posture(builtin_posture("P1"), fan_mass=0.3)
    assert calls == 1
    assert geo.inertia_body == surrogate(geo)


def test_takeoff_run_builds_one_rotation_matrix(monkeypatch):
    # the loop runs on floats; the only R(q) array is the hover trim's gate
    calls = 0
    build = wrench.quat_to_matrix

    def counted(q):
        nonlocal calls
        calls += 1
        return build(q)

    monkeypatch.setattr(wrench, "quat_to_matrix", counted)
    for integrator in ("euler", "rk4"):
        calls = 0
        log = sim.run_scenario(sim.ScenarioConfig(integrator=integrator))
        assert log.events["liftoff_time_s"] is not None
        assert calls == 1, integrator


def test_takeoff_loop_evaluates_the_wrench_once_per_step(monkeypatch):
    calls = 0
    build = sim.wrench_kernel

    def counted_build(*args, **kwargs):
        rows = build(*args, **kwargs)

        def counted(*fan_state):
            nonlocal calls
            calls += 1
            return rows(*fan_state)

        return counted

    monkeypatch.setattr(sim, "wrench_kernel", counted_build)
    for integrator in ("euler", "rk4"):
        calls = 0
        cfg = sim.ScenarioConfig(duration=0.8, integrator=integrator)
        log = sim.run_scenario(cfg)
        assert 0.0 < log.events["liftoff_time_s"] < cfg.duration  # both phases run
        # one evaluation of the run's kernel per step feeds both the liftoff
        # check on the ground and the step aloft, whose rk4 stages rotate it
        loop_steps = round(cfg.duration / cfg.dt) + 1
        assert calls == loop_steps, integrator


def test_takeoff_run_builds_no_fan_state_per_step(monkeypatch):
    # the loop feeds the kernel floats; FanState is built at the public boundary
    calls = 0
    check = wrench.FanState.__post_init__

    def counted(self):
        nonlocal calls
        calls += 1
        check(self)

    monkeypatch.setattr(wrench.FanState, "__post_init__", counted)
    for integrator in ("euler", "rk4"):
        counts = []
        for duration in (0.5, 1.0):
            calls = 0
            sim.run_scenario(sim.ScenarioConfig(duration=duration, integrator=integrator))
            counts.append(calls)
        assert counts[0] == counts[1], (integrator, counts)


def test_hover_trim_evaluates_the_wrench_once(monkeypatch):
    calls = 0
    kernel = wrench.generalized_wrench_3d

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(wrench, "generalized_wrench_3d", counted)
    geo = geometry_from_posture(builtin_posture("P1"))
    for equal_thrust in (True, False):
        calls = 0
        hover_trim(geo, equal_thrust=equal_thrust)
        # the closed form is checked once against the full wrench
        assert calls == 1, equal_thrust


def test_envelope_sweep_makes_one_kernel_call_per_strategy(monkeypatch):
    calls = 0
    kernel = envelope.lp_max_covering

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(envelope, "lp_max_covering", counted)
    for name in ("P1", "P2"):  # P2's foot range is the full +-90 deg
        posture = builtin_posture(name)
        geo = geometry_from_posture(posture)
        constraint = envelope.EnvelopeConstraint.hover(geo, posture)
        for n_points in (5, 61):
            calls = 0
            envelope.envelope_sweep(geo, constraint, n_points=n_points)
            # one call over every lane's candidate foot angles, DT's 0 among them
            assert calls == 1, (name, n_points)
        searches = (lambda: envelope.max_pitch_torque_dt(geo, 0.1, constraint),
                    lambda: envelope.max_pitch_torque_tvc(geo, 0.1, constraint),
                    lambda: envelope.tvc_dt_ratio(geo, constraint))
        for search in searches:  # each a one-pitch sweep
            calls = 0
            search()
            assert calls == 1, name
