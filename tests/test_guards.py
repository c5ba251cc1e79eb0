"""Guards on contracts kept outside the package (bench trace targets, the
events keys the bench reads, the builds kernel_ab compares, README), on code
that only tests call, on where numpy is imported and loaded, on every
dataclass's own docstring and its lack of generated methods, on what the
oracles import from the package, on the one geometry construction, on the
takeoff loop's and the hover trim's wrench evaluations, rotation-matrix
builds and fan-state constructions, on the loop's attitude readouts, on the
takeoff step's one derivative template, the loop's one controller tick and
the commands that compile them, on the one build wrapper and the math
functions each generated function binds itself, on the one source of the
pitch arms, on the envelope solver's batching and point objects, on the one
home of the run record and on the one home of the config key names."""

import argparse
import ast
import collections
import dataclasses
import dis
import importlib
import inspect
import json
import linecache
import os
import pathlib
import re
import subprocess
import sys
import textwrap

from tvcsim import cli, controller, envelope, robot, sim, spatial, wrench
from tvcsim.config import SCHEMA
from tvcsim.robot import builtin_posture, geometry_from_posture
from tvcsim.trim import hover_trim

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _trace_targets() -> tuple[str, ...]:
    """bench/tracer.py's TARGETS, read without importing the benchmark."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    (targets,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]]
    return targets


def test_every_bench_trace_target_resolves():
    # the tracer looks each name up in its module; a missing one breaks --trace 1
    targets = _trace_targets()
    assert targets
    for target in targets:
        module_name, name, *method = target.split(".")
        obj = vars(importlib.import_module(f"tvcsim.{module_name}"))[name]
        for attr in method:
            obj = vars(obj)[attr]
        assert callable(obj), target


def test_kernel_ab_compares_the_source_of_every_build():
    # tools/kernel_ab.py's generated-sources family reads back what each of
    # BUILDS compiles; a builder missing from it would change its source unseen
    tree = ast.parse((ROOT / "tools" / "kernel_ab.py").read_text())
    (builds,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["BUILDS"]]
    named = {(entry.elts[0].value, entry.elts[1].value) for entry in ast.walk(builds)
             if isinstance(entry, ast.Tuple) and len(entry.elts) == 3
             and all(isinstance(e, ast.Constant) for e in entry.elts[:2])}
    compiling = set()
    for path in (ROOT / "src" / "tvcsim").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(call, ast.Call) and "compile_build" in (
                        getattr(call.func, "id", None), getattr(call.func, "attr", None))
                    for call in ast.walk(node)):
                compiling.add((path.stem, node.name))
    assert named == compiling == {("sim", "_step_builder"), ("wrench", "rows_builder"),
                                  ("controller", "tick_builder")}


# the math functions that a step calls by bare name, and those of run, which
# adds degrees: each a local that the function binds from math itself
STEP_MATH = {"sin", "cos", "sqrt", "asin", "atan2"}
LOCAL_MATH = STEP_MATH | {"degrees"}


def test_the_build_wrapper_has_one_home():
    # spatial.compile_build alone writes the wrapper, build(constants), and it
    # binds no math: a generated function binds the math functions it calls by
    # bare name as its own locals, in one assignment from math's attributes,
    # the first statement that names one, and closes over none. step and rows
    # bind in their first statement; run binds before its foot trig and loop,
    # where it always has, which keeps its code object as it was. euler's step
    # calls all five of STEP_MATH, rk4's step neither sin nor cos (it has no
    # exponential map; its template binds them all the same), both runs all of
    # LOCAL_MATH, rows sin and cos for the feet, and the tick none (its angle
    # wrap calls math.fmod)
    spelled = [path.name for path in sorted((ROOT / "src" / "tvcsim").glob("*.py"))
               if "def build(" in path.read_text()]
    assert spelled == ["spatial.py"]
    for build, called, first in ((sim._step_builder("euler", "step"), STEP_MATH, True),
                                 (sim._step_builder("rk4", "step"), {"sqrt", "asin", "atan2"},
                                  True),
                                 (sim._step_builder("euler", "run"), LOCAL_MATH, False),
                                 (sim._step_builder("rk4", "run"), LOCAL_MATH, False),
                                 (wrench.rows_builder(), {"sin", "cos"}, True),
                                 (controller.tick_builder(), set(), None)):
        code = build.__code__
        (inner,) = [c for c in code.co_consts if inspect.iscode(c)]
        assert not LOCAL_MATH & {*code.co_varnames, *code.co_cellvars, *inner.co_freevars}
        (function,) = [node for node in ast.parse(inspect.getsource(build)).body[0].body
                       if isinstance(node, ast.FunctionDef)]
        assert LOCAL_MATH & {node.func.id for node in ast.walk(function) if isinstance(
            node, ast.Call) and isinstance(node.func, ast.Name)} == called, code.co_filename
        binds = [stmt for stmt in function.body if LOCAL_MATH & _names(stmt)]
        if first is None:
            assert not binds, code.co_filename
            continue
        (targets,), values = binds[0].targets, binds[0].value
        names = [target.id for target in targets.elts]
        assert called <= set(names) <= LOCAL_MATH, code.co_filename
        assert [ast.unparse(value) for value in values.elts] == [f"math.{n}" for n in names]
        assert set(names) <= set(inner.co_varnames), code.co_filename
        assert (function.body.index(binds[0]) == 0) == first, code.co_filename


def _takeoff_record_keys() -> set[str]:
    """The keys that bench/workloads.py's Takeoff.inspect reads from the events
    record, read without importing the benchmark."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    (inspect,) = [item for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "Takeoff"
                  for item in node.body
                  if isinstance(item, ast.FunctionDef) and item.name == "inspect"]
    (record,) = [node.targets[0].id for node in ast.walk(inspect)
                 if isinstance(node, ast.Assign)
                 and ast.unparse(node.value) == "events['config']"]
    return {node.slice.value for node in ast.walk(inspect)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == record and isinstance(node.slice, ast.Constant)}


def test_takeoff_events_record_every_key_the_bench_reads(tmp_path):
    # a renamed ScenarioConfig field would otherwise fail every benchmark takeoff op
    keys = _takeoff_record_keys()
    assert keys
    (tmp_path / "short.cfg").write_text("sim.duration_s = 0.01\n")
    assert cli.main(["--config", str(tmp_path / "short.cfg"), "--out", str(tmp_path),
                     "takeoff"]) == 0
    record = json.loads((tmp_path / "takeoff_events.json").read_text())["config"]
    assert keys <= record.keys(), sorted(keys - record.keys())


def test_readme_config_table_lists_exactly_the_schema():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Configuration files", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    assert len(keys) == len(set(keys))
    assert set(keys) == set(SCHEMA)


def test_every_cli_override_names_a_schema_key_and_a_parsed_option():
    # cli.main merges each parsed option of OVERRIDES into the config's
    # values under its key: the key must be a SCHEMA key, and the option an
    # argument of the top-level parser (--seed) or of a subcommand, or
    # getattr finds no option and the override is dropped without a word
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {action.dest for p in (parser, *commands.choices.values()) for action in p._actions}
    assert set(cli.OVERRIDES.values()) <= set(SCHEMA)
    assert set(cli.OVERRIDES) <= options


def test_no_module_spells_a_config_key_outside_schema():
    # a check names its fields and config.keyed names their keys, so a key is
    # spelled in SCHEMA's rows and in OVERRIDES' values (tied to SCHEMA above)
    # alone. Every string constant and f-string piece of src/tvcsim but a
    # docstring is searched for a dotted key; the undotted mode and posture are
    # words of messages too, and the posture label is read by name
    pattern = re.compile("|".join(rf"(?<![\w.]){re.escape(key)}(?!\w)"
                                  for key in SCHEMA if "." in key))
    spelled = []
    for path in sorted((ROOT / "src" / "tvcsim").glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                    and ast.get_docstring(node) is not None):
                allowed.add(id(node.body[0].value))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
                if (path.name, names) == ("config.py", {"SCHEMA"}):
                    allowed |= set(map(id, node.value.keys))
                elif (path.name, names) == ("cli.py", {"OVERRIDES"}):
                    allowed |= set(map(id, node.value.values))
        spelled += [f"{path.name}:{node.lineno}: {key}" for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in allowed for key in pattern.findall(node.value)]
    assert spelled == []


def _top_level_names(path):
    """The functions and classes path's module binds at its top level: by def
    or class, or by an assignment whose value is a function."""
    module = vars(importlib.import_module(f"tvcsim.{path.stem}"))
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [name.id for target in node.targets for name in ast.walk(target)
                      if isinstance(name, ast.Name) and inspect.isfunction(module.get(name.id))]
    return names


def test_every_top_level_name_is_used_outside_the_tests():
    # a function or class that only tests call is dead weight, also one bound
    # by assignment, such as a function compiled from a template; the oracles
    # are shipped for re-audits and exempt. A use is a name or an attribute in
    # the code of src/ or bench/ (a comment or a string is none), or a bench
    # trace target, which the tracer looks up by name
    package = ROOT / "src" / "tvcsim"
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    used = {part for target in _trace_targets() for part in target.split(".")[1:]}
    # the sources that sim and wrench compile are code of src/ too
    generated = [inspect.getsource(sim._step_builder(integrator, name))
                 for integrator in ("euler", "rk4") for name in ("step", "run")]
    generated += [inspect.getsource(wrench.rows_builder()),
                  inspect.getsource(controller.tick_builder())]
    for text in [path.read_text() for path in paths + sorted((ROOT / "bench").glob("*.py"))] + \
            generated:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)  # an assignment's own target is no use
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{path.stem}.{name}" for path in paths if path.name != "oracles.py"
              for name in _top_level_names(path) if name not in used]
    assert unused == []


# the functions that neither a command nor an acceptance entry point calls,
# each with the bench file that pins it or the pinned function that calls it;
# once the bench drops them, they go and so does this list
UNREACHED = {
    "spatial.quat_identity": "bench/test_bench.py",
    "spatial.quat_to_matrix": "bench/test_bench.py",
    "spatial.quat_integrate": "bench/tracer.py",
    "spatial.quat_step": "spatial.quat_integrate",
    "spatial.quat_to_euler": "bench/tracer.py and bench/test_bench.py",
    "spatial.zyx_angles": "spatial.quat_to_euler",
    "wrench.fan_layout": "bench/tracer.py",
    "envelope.max_pitch_torque_dt": "bench/tracer.py and bench/workloads.py (audit)",
    "envelope.max_pitch_torque_tvc": "bench/tracer.py and bench/test_bench.py",
    "envelope._search": "envelope.max_pitch_torque_dt and _tvc",
    "controller.AttitudeController.step": "bench/tracer.py",
    "controller.AttitudeController._tick": "controller.AttitudeController.step",
    "controller.tick_builder": "controller.AttitudeController._tick",
}


def _defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.qualname of every function and lambda that
    src/tvcsim defines outside oracles.py, as a code object reports them."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                decorators = getattr(child, "decorator_list", [])
                first = min([child.lineno] + [d.lineno for d in decorators])
                found[(str(path), first)] = name
                visit(child, path, name + ".<locals>.")
            else:
                visit(child, path, prefix + child.name + "." if isinstance(child, ast.ClassDef)
                      else prefix)

    for path in sorted(pathlib.Path(sim.__file__).parent.glob("*.py")):  # as imported
        if path.name != "oracles.py":
            visit(ast.parse(path.read_text()), path, path.stem + ".")
    return found


def test_every_function_is_reached_by_a_command_or_an_acceptance_entry_point(tmp_path):
    # the 65 golden cases and one call of each entry point tests/test_acceptance.py
    # reads, under a call-only trace (no line events), with every functools.cache
    # emptied first, so that what a build calls is called again
    from golden.regen import CORPUS, run_case

    defined = _defined_functions()
    for module in (cli, controller, sim, wrench):
        for f in vars(module).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()
    called = set()

    def calls(frame, event, arg):
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        for name, case in json.loads(CORPUS.read_text()).items():
            (tmp_path / name).mkdir()
            run_case(case["config"], case["argv"], tmp_path / name)
        p1 = builtin_posture("P1")
        geo = geometry_from_posture(p1)
        constraint = envelope.EnvelopeConstraint.hover(geo, p1)
        envelope.envelope_sweep(geo, constraint)
        envelope.tvc_dt_ratio(geo, constraint)
        fans = wrench.FanState.uniform(40.0)
        held = wrench.generalized_wrench_3d(fans, geo, spatial.quat_normalize([1.0, 0, 0, 0]))
        assert held.force_world.shape == held.torque_world.shape == (3,)
        sim.dynamics_step(sim.RigidBodyState(), fans, geo, 1e-3)
        sim.SimLog().write_events_json(tmp_path / "events.json")
    finally:
        sys.settrace(previous)
    unreached = sorted(name for key, name in defined.items() if key not in called)
    assert unreached == sorted(UNREACHED)


def test_scalar_modules_import_no_numpy():
    # the scalar model runs on floats; numpy stays where arrays pay, and the
    # array helpers of spatial and wrench import it in their bodies
    for name in ("spatial", "robot", "wrench", "controller", "trim", "sim", "config", "cli"):
        tree = ast.parse((ROOT / "src" / "tvcsim" / f"{name}.py").read_text())
        imported = [alias.name for node in tree.body if isinstance(node, ast.Import)
                    for alias in node.names]
        imported += [node.module for node in tree.body
                     if isinstance(node, ast.ImportFrom) and node.module]
        assert not [m for m in imported if m.split(".")[0] == "numpy"], name


def test_every_dataclass_has_its_own_docstring():
    # without one, dataclass builds __doc__ from inspect.signature at import,
    # which reprs every default: about 180 us of each import of sim, once
    missing = []
    for path in sorted((ROOT / "src" / "tvcsim").glob("*.py")):
        module = importlib.import_module(f"tvcsim.{path.stem}")
        decorated = {}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for d in node.decorator_list:
                    d = d.func if isinstance(d, ast.Call) else d
                    if getattr(d, "id", getattr(d, "attr", None)) == "dataclass":
                        decorated[node.name] = ast.get_docstring(node)
        defined = {name for name, obj in vars(module).items()
                   if inspect.isclass(obj) and obj.__module__ == module.__name__
                   and dataclasses.is_dataclass(obj)}
        assert set(decorated) == defined, path.name
        missing += [f"{path.stem}.{name}" for name, doc in decorated.items() if not doc]
    assert missing == []


def test_no_dataclass_has_a_generated_eq_repr_or_hash():
    # nothing compares, prints or hashes a record, so each is declared with
    # eq=False, repr=False: dataclass writes none of these methods at import,
    # and no field keeps a repr= or compare= flag that only tuned them
    records, generated = [], []
    for path in sorted((ROOT / "src" / "tvcsim").glob("*.py")):
        module = importlib.import_module(f"tvcsim.{path.stem}")
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj)):
                records.append(name)
                generated += [f"{path.stem}.{name}.{method}"
                              for method in ("__eq__", "__repr__", "__hash__")
                              if method in vars(obj)]
                generated += [f"{path.stem}.{name}.{f.name}" for f in dataclasses.fields(obj)
                              if not (f.repr and f.compare)]
    assert records and generated == []


def test_oracles_import_no_production_solver():
    # the oracles stay independent routes: from the package they take only the
    # model's inputs, never a rotation, a fan layout or a solver such as
    # lp_max_covering, _table, hover_trim or wrench_kernel; quat_to_matrix is
    # imported uncalled, for bench/test_bench.py to rebind through oracles
    nodes = list(ast.walk(ast.parse((ROOT / "src" / "tvcsim" / "oracles.py").read_text())))
    assert not [alias.name for node in nodes if isinstance(node, ast.Import)
                for alias in node.names if alias.name.split(".")[0] == "tvcsim"]
    imported = {alias.name for node in nodes if isinstance(node, ast.ImportFrom)
                and (node.level or (node.module or "").split(".")[0] == "tvcsim")
                for alias in node.names}
    assert imported == {"EnvelopeConstraint", "GRAVITY", "RobotGeometry", "Quat",
                        "quat_to_matrix", "FanState"}
    assert not [node for node in nodes if isinstance(node, ast.Name) and node.id == "quat_to_matrix"]


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


def test_float_commands_never_load_numpy(tmp_path):
    # takeoff, trim and wrench-eval run on floats in a fresh interpreter, a
    # takeoff that diverges (exit 4) and euler and rk4 takeoffs with sensor
    # noise too; envelope, the one command that needs arrays, still loads
    # numpy and runs
    spin = tmp_path / "spin.cfg"
    spin.write_text("mode = pitch-only\nperturbation.foot_misalignment_left_deg = 10\n"
                    "perturbation.foot_misalignment_right_deg = -10\nsim.duration_s = 4.0\n")
    for integrator in ("euler", "rk4"):
        (tmp_path / f"noise_{integrator}.cfg").write_text(
            f"sim.sensor_noise_std = 0.01\nsim.integrator = {integrator}\nsim.duration_s = 1.0\n")
    code = textwrap.dedent("""
        import sys
        from tvcsim import cli
        out, spin = sys.argv[1:]
        for argv in (["takeoff"], ["trim"],
                     ["wrench-eval", "--thrust-fl", "40", "--theta-pitch", "5"],
                     ["--config", f"{out}/noise_euler.cfg", "takeoff"],
                     ["--config", f"{out}/noise_rk4.cfg", "takeoff"]):
            assert cli.main(["--out", out, *argv]) == 0, argv
        assert cli.main(["--out", out, "--config", spin, "takeoff"]) == 4
        assert "numpy" not in sys.modules
        assert cli.main(["--out", out, "envelope", "--postures", "P1"]) == 0
        assert "numpy" in sys.modules
    """)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path), str(spin)],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_takeoff_run_builds_no_rotation_matrix(monkeypatch):
    # the loop and the hover trim's gate run on floats: no R(q) array is built
    calls = 0
    build = spatial.quat_to_matrix

    def counted(q):
        nonlocal calls
        calls += 1
        return build(q)

    for module in (spatial, wrench, sim):
        monkeypatch.setattr(module, "quat_to_matrix", counted)
    for integrator in ("euler", "rk4"):
        calls = 0
        log = sim.run_scenario(sim.ScenarioConfig(integrator=integrator))
        assert log.events["liftoff_time_s"] is not None
        assert calls == 0, integrator


def _run_line_counts(cfg, watch=None, names=()):
    """run_scenario(cfg)'s log, how often each line of the compiled run ran,
    and the values of the run's locals names each time its line watch starts."""
    counts = collections.Counter()
    watched = []

    def count(frame, event, arg):
        if event == "line":
            counts[frame.f_lineno] += 1
            if frame.f_lineno == watch:
                watched.append(tuple(map(frame.f_locals.__getitem__, names)))
        return count

    def calls(frame, event, arg):  # trace the run's frame alone
        code = frame.f_code
        return count if code.co_name == "run" and code.co_filename.startswith("<tvcsim.sim") \
            else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        log = sim.run_scenario(cfg)
    finally:
        sys.settrace(previous)
    return log, counts, watched


def _source_lines(integrator, text):
    """The numbers of the lines of integrator's compiled run source that read text."""
    filename = sim._step_builder(integrator, "run").__code__.co_filename
    return [n for n, line in enumerate(linecache.getlines(filename), start=1)
            if line.strip() == text]


def test_takeoff_loop_evaluates_the_wrench_once_per_step():
    # each phase does its own work: every step that starts on the ground, the
    # liftoff step too, runs the liftoff test alone (LIFT, ROWS' head, of the
    # held feet), and every step that advances the body aloft runs ROWS once,
    # which the rk4 stages rotate; on a run to its duration the two counts sum
    # to the loop's steps. A foot's sine and cosine run once at the start and
    # again only for a new angle object, which a tick or a bound slew makes:
    # the angles are kept alive here, so an object is never reused
    assert wrench.ROWS.startswith(wrench.LIFT)
    for integrator in ("euler", "rk4"):
        cfg = sim.ScenarioConfig(duration_s=0.8, integrator=integrator)
        # LIFT's first line, in the ground branch and then as ROWS' first line aloft
        ground, line = _source_lines(integrator, wrench.LIFT.splitlines()[0])
        log, counts, feet = _run_line_counts(cfg, line, ("theta_l", "theta_r"))
        assert log.events["termination"] == "duration"
        steps = round(cfg.duration_s / cfg.dt_s)
        liftoff = round(log.events["liftoff_time_s"] / cfg.dt_s)
        assert 0 < liftoff < steps  # both phases run
        assert counts[ground] == liftoff + 1, integrator
        assert counts[line] == len(feet) == steps - liftoff, integrator
        assert counts[ground] + counts[line] == steps + 1
        for side, angles in zip("lr", zip(*feet)):
            trig = _source_lines(integrator, wrench.FOOT_TRIG.format(s=side).splitlines()[-1])
            changes = sum(a is not b for a, b in zip(angles, angles[1:]))
            assert 0 < changes < len(angles) // 2, (integrator, side)
            assert len(trig) == 2 and sum(counts[n] for n in trig) == 1 + changes, integrator


def test_takeoff_loop_reads_the_attitude_once_per_step_aloft(monkeypatch):
    # a step aloft runs step's body, guards and attitude readout once, written
    # out in run; the controller tick is written out on floats too, so the
    # loop builds no EulerAngles at all
    built = 0
    euler_angles = sim.EulerAngles

    def counted_angles(*args):
        nonlocal built
        built += 1
        return euler_angles(*args)

    monkeypatch.setattr(sim, "EulerAngles", counted_angles)
    for integrator in ("euler", "rk4"):
        cfg = sim.ScenarioConfig(duration_s=0.8, integrator=integrator)
        built = 0
        log, counts, _ = _run_line_counts(cfg)
        assert log.events["termination"] == "duration"
        steps = round(cfg.duration_s / cfg.dt_s)
        aloft = steps - round(log.events["liftoff_time_s"] / cfg.dt_s)
        assert 0 < aloft < steps
        # the tail's first guard and its readout, which call sqrt and asin
        for text in ("if not sqrt(px * px + py * py + pz * pz) <= POSITION_GUARD_M:",
                     "pitch = asin(sp if sp < 1.0 else 1.0)"):
            (line,) = _source_lines(integrator, text)
            assert counts[line] == aloft, (integrator, text)
        assert built == 0, integrator


def _names(node):
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _blocks(text, function):
    """(node, field) of each statement list of function that holds text's
    statements in a row, once per occurrence."""
    want = [ast.unparse(stmt) for stmt in ast.parse(text).body]
    found = []
    for node in ast.walk(function):
        for name in ("body", "orelse"):
            stmts = getattr(node, name, None)
            if not (isinstance(stmts, list) and stmts and isinstance(stmts[0], ast.stmt)):
                continue
            have = [ast.unparse(stmt) for stmt in stmts]
            found += [(node, name)] * sum(have[i:i + len(want)] == want for i in range(len(have)))
    return found


def test_step_sources_write_the_equations_of_motion_from_one_template():
    # sim.py holds the equations of motion once, in the derivative template
    # that _step_builder writes out once for euler and once a stage for rk4; no
    # accel is left. A generated step hides no stage in a nested function or a
    # comprehension and calls only STEP_MATH, the locals that its first
    # statement binds to math's functions (and the readout's abs); rk4 calls
    # sqrt for the opening, the three stage and the new quaternions, each
    # followed by its zero-norm ValueError. The tail, from the divergence
    # guards on, ends every step once: rk4's is the guards and the attitude
    # readout, and euler's runs the guards once omega is final, before the
    # exponential map's sqrt and sin and the new quaternion's sqrt, so that an
    # overflowing omega dt trips the rate guard, not sin. run, compiled apart
    # from the same templates, writes step's body after the bind once,
    # verbatim, in its airborne branch: no rewrite stands between a template
    # and a build. It writes wrench.ROWS once, in that branch, FOOT_TRIG once per
    # foot before the loop and once in that branch, ROWS' head LIFT alone for
    # the liftoff test in the ground branch, controller.TICK once, in the
    # tick's branch, and a step calls math's functions, abs and the log's
    # append, and _measure under sensor noise alone
    text = (ROOT / "src" / "tvcsim" / "sim.py").read_text()
    row = "1.0 - 2.0 * (yy + zz)"  # R(q)'s first entry
    assert not re.search(r"\baccel\b", text)
    assert text.count(row) == 1
    unit = "if n < 1e-300:\n    raise ValueError('cannot normalize a zero quaternion')"
    nested = (ast.FunctionDef, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
              ast.GeneratorExp)
    p1 = geometry_from_posture(builtin_posture("P1"))
    # (integrator, R(q) rows written, sqrt calls and zero-norm checks before the
    # tail, sqrt and sin calls in the tail)
    for integrator, rotations, sqrts, checks, tail_sqrts, tail_sins in (
            ("euler", 1, 1, 1, 4, 1), ("rk4", 4, 5, 5, 2, 0)):
        builds = [sim._step_builder(integrator, name) for name in ("step", "run")]
        sources = [inspect.getsource(build) for build in builds]
        functions = [sim._kernel(name, p1, None, 1e-3, integrator) for name in ("step", "run")]
        for build, function in zip(builds, functions):
            assert function.__code__ in build.__code__.co_consts, integrator
            # math.f loads as a module attribute, as in sim.py, not as a method
            assert "LOAD_METHOD" not in [op.opname
                                         for op in dis.get_instructions(function.__code__)]
        assert [source.count(row) for source in sources] == [rotations] * 2, integrator
        # the rows aloft alone; their head LIFT, the ground's liftoff test too
        for rows, count in ((wrench.ROWS.removeprefix(wrench.LIFT), 1), (wrench.LIFT, 2)):
            assert [source.count(rows.splitlines()[0]) for source in sources] == [0, count]
        step, run = [node for name, source in zip(("step", "run"), sources)
                     for node in ast.walk(ast.parse(source))
                     if isinstance(node, ast.FunctionDef) and node.name == name]
        for function in (step, run):
            assert not [node for node in list(ast.walk(function))[1:]
                        if isinstance(node, nested)]
        # the bind, then the equations: math is named in the bind alone
        bind, *statements = step.body
        assert _names(bind) == STEP_MATH | {"math"}, integrator
        raised = {id(node.exc) for node in ast.walk(step) if isinstance(node, ast.Raise)}
        calls = [ast.unparse(node.func) for stmt in statements for node in ast.walk(stmt)
                 if isinstance(node, ast.Call) and id(node) not in raised]
        assert set(calls) <= STEP_MATH | {"abs"}, calls
        assert "math" not in {name for stmt in statements for name in _names(stmt)}
        code = functions[0].__code__
        assert set(calls) - {"abs"} <= set(code.co_varnames) - set(code.co_freevars), integrator
        guard = next(i for i, node in enumerate(statements)
                     if "DivergenceError" in ast.unparse(node))
        body, tail = statements[:guard], statements[guard:]
        in_body = [node for stmt in body for node in ast.walk(stmt)]
        assert len([node for node in in_body if ast.unparse(node) == "sqrt"]) == sqrts
        in_tail = [ast.unparse(node) for stmt in tail for node in ast.walk(stmt)]
        assert [in_tail.count("sqrt"), in_tail.count("sin")] == [tail_sqrts, tail_sins]
        assert "sin" not in [ast.unparse(node) for node in in_body], integrator
        units = [i for i, stmt in enumerate(body) if ast.unparse(stmt) == unit]
        assert len(units) == checks, integrator
        assert all(ast.unparse(body[i - 1]).startswith("n = sqrt(") for i in units)
        assert len([node for node in in_body if isinstance(node, ast.Raise)]) == len(units)
        # the guards and the readout, in the tail alone; run adds its except clause
        assert sources[0].count("DivergenceError") == 2, integrator
        for name, count in (("DivergenceError", 2), ("asin", 1)):
            for stmts in (statements, tail):
                assert len([node for stmt in stmts for node in ast.walk(stmt)
                            if ast.unparse(node) == name]) == count, (integrator, name)
        assert sources[1].count("DivergenceError") == 3
        assert len([node for node in ast.walk(run) if isinstance(node, ast.Call)
                    and ast.unparse(node.func) == "asin"]) == 1
        # run: step's body, bar the bind, the rows' unpacking and the return,
        # once and verbatim, as the airborne branch's try body
        (loop,) = [node for node in ast.walk(run) if isinstance(node, ast.For)]
        branches = {ast.unparse(node.test): node for node in loop.body if isinstance(node, ast.If)}
        tick, ground, airborne = (branches[test] for test in (
            "i % control_every == 0", "not airborne", "airborne"))
        (branch,) = [node for node in ast.walk(run) if isinstance(node, ast.Try)]
        assert branch in airborne.body
        assert [ast.unparse(stmt) for stmt in statements[1:-1]] == [
            ast.unparse(stmt) for stmt in branch.body], integrator
        assert ast.unparse(branch.handlers[0].type) == "DivergenceError"
        # ROWS once, aloft; FOOT_TRIG before the loop and aloft for a new angle;
        # ROWS' head LIFT alone on the ground; TICK once, in the tick's branch
        assert _blocks(wrench.ROWS, run) == [(airborne, "body")]
        for side in "lr":
            (start, _), (again, field) = _blocks(wrench.FOOT_TRIG.format(s=side), run)
            assert start is run and field == "body" and again in airborne.body
            assert ast.unparse(again.test) == f"theta_{side} is not held_{side}"
        assert _blocks(wrench.LIFT, run) == [(ground, "body"), (airborne, "body")]
        assert [ast.unparse(stmt).split("\n")[0] for stmt in ground.body] == [
            ast.unparse(stmt) for stmt in ast.parse(wrench.LIFT).body] + ["if f_z > weight:"]
        assert _blocks(controller.TICK, run) == [(tick, "body")]
        measure = next(node for node in tick.body if isinstance(node, ast.If))
        assert ast.unparse(measure.test) == "rng is None"
        assert "_measure" not in ast.unparse(measure.body) and "_measure" in ast.unparse(
            measure.orelse)
        raised = {id(node.exc) for node in ast.walk(run) if isinstance(node, ast.Raise)}
        calls = {ast.unparse(node.func) for stmt in loop.body for node in ast.walk(stmt)
                 if isinstance(node, ast.Call) and id(node) not in raised}
        assert {call for call in calls if not call.startswith("math.")} == LOCAL_MATH | {
            "abs", "append", "_measure", "str"}, integrator
        assert not {call for call in calls if call.startswith("math.")} & {
            f"math.{name}" for name in LOCAL_MATH}, integrator
        calls |= {ast.unparse(node.func) for node in ast.walk(run)
                  if isinstance(node, ast.Call) and id(node) not in raised}
        assert {call for call in calls if not call.startswith("math.")} == LOCAL_MATH | {
            "abs", "append", "_measure", "str", "range", "int", "round"}
        assert "EulerAngles" not in ast.unparse(run)


def test_importing_the_package_compiles_no_source():
    # compile_build keeps each source it compiles in linecache, under a
    # <tvcsim.…> name: importing every module in a fresh interpreter leaves
    # none there, so an import builds nothing that only a command may run
    names = sorted(p.stem for p in (ROOT / "src" / "tvcsim").glob("*.py"))
    code = ("import importlib, linecache\n"
            f"for name in {names!r}:\n"
            "    importlib.import_module('tvcsim' if name == '__init__' else 'tvcsim.' + name)\n"
            "print(sorted(key for key in linecache.cache if key.startswith('<tvcsim.')))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(names) > 10 and proc.stdout == "[]\n"


def test_only_a_takeoff_step_compiles_a_step_source(tmp_path):
    # _step_builder compiles step or run on first use, once per integrator:
    # importing the package and the commands that never step the rigid body
    # compile neither. A takeoff compiles run alone and dynamics_step step
    # alone; run writes the controller tick out, so a takeoff never compiles
    # the tick that AttitudeController.step runs. The wrench rows compile
    # once, on first use: not at import, but by the first wrench any command
    # evaluates
    from tvcsim import cli

    code = ("from tvcsim import cli, sim, wrench; "
            "assert sim._step_builder.cache_info().misses == 0; "
            "assert wrench.rows_builder.cache_info().misses == 0")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    sim._step_builder.cache_clear()
    wrench.rows_builder.cache_clear()
    (tmp_path / "run.cfg").write_text("envelope.n_points = 2\n")
    for argv in (["trim"], ["wrench-eval", "--thrust-fl", "40"], ["envelope", "--postures", "P1"]):
        assert cli.main(["--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path),
                         *argv]) == 0, argv
    assert sim._step_builder.cache_info().misses == 0
    assert wrench.rows_builder.cache_info().misses == 1

    def compiled(expected):
        # which sources the cache holds: a call of a compiled one only hits it
        info = sim._step_builder.cache_info()
        assert info.currsize == len(expected)
        for key in expected:
            sim._step_builder(*key)
        assert sim._step_builder.cache_info().misses == info.misses

    controller.tick_builder.cache_clear()
    for integrator in ("euler", "rk4", "euler", "rk4"):
        sim.run_scenario(sim.ScenarioConfig(duration_s=0.01, integrator=integrator))
    compiled([("euler", "run"), ("rk4", "run")])
    assert controller.tick_builder.cache_info().misses == 0
    p1 = geometry_from_posture(builtin_posture("P1"))
    for integrator in ("euler", "rk4", "euler", "rk4"):
        sim.dynamics_step(sim.RigidBodyState(), wrench.FanState.uniform(40.0), p1, 1e-3,
                          integrator=integrator)
    compiled([("euler", "run"), ("rk4", "run"), ("euler", "step"), ("rk4", "step")])
    assert wrench.rows_builder.cache_info().misses == 1


def test_only_the_wrench_model_reads_the_pitch_arm_geometry():
    # wrench.pitch_arms is the one source of the sagittal arms: no other module
    # reads the foot fan position or the waist spacing off a geometry, bar the
    # independent oracles, the geometry itself and cli's geometry report
    fields = {"fan_foot_x", "fan_foot_z", "fan_spacing_waist"}
    readers = []
    for path in sorted((ROOT / "src" / "tvcsim").glob("*.py")):
        if path.name in ("wrench.py", "robot.py", "oracles.py"):
            continue
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "cli.py":  # the report prints the geometry it ran with
            (report,) = [node for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                         and "geometry mass=" in ast.unparse(node)]
            allowed = {id(node) for node in ast.walk(report)}
        readers += [f"{path.name}:{node.lineno} .{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr in fields
                    and id(node) not in allowed
                    # ScenarioConfig's own field of that name is no geometry
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self")]
    assert readers == []


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
            sim.run_scenario(sim.ScenarioConfig(duration_s=duration, integrator=integrator))
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


def test_envelope_solves_each_distinct_candidate_once(monkeypatch):
    # about half the candidate foot angles at a pitch repeat another bit for bit
    # (a range end the wrap reaches, an acos ratio clipped to +-1); each
    # (pitch, foot angle) bit pattern reaches the LP once, as two rows, tau_max's
    # and tau_min's
    import numpy as np

    pairs, lp_rows = [], []
    rows, kernel = envelope._rows, envelope.lp_max_covering

    def recorded_rows(arms, theta_pitch, theta_feet):
        pitch, feet = np.broadcast_arrays(theta_pitch, theta_feet)
        pairs.append(np.stack([pitch.ravel(), feet.ravel()], axis=1))
        return rows(arms, theta_pitch, theta_feet)

    def recorded_kernel(c, a, floor, cap):
        lp_rows.append(len(c))
        return kernel(c, a, floor, cap)

    monkeypatch.setattr(envelope, "_rows", recorded_rows)
    monkeypatch.setattr(envelope, "lp_max_covering", recorded_kernel)
    for name in ("P1", "P2"):
        posture = builtin_posture(name)
        geo = geometry_from_posture(posture)
        constraint = envelope.EnvelopeConstraint.hover(geo, posture)
        searches = [lambda n=n: envelope.envelope_sweep(geo, constraint, n_points=n)
                    for n in (5, 61)]
        searches += [lambda: envelope.max_pitch_torque_dt(geo, 0.1, constraint),
                     lambda: envelope.max_pitch_torque_tvc(geo, 0.1, constraint),
                     lambda: envelope.tvc_dt_ratio(geo, constraint)]
        for k, search in enumerate(searches):
            pairs.clear()
            lp_rows.clear()
            search()
            (solved,) = pairs
            keys = [pair.tobytes() for pair in solved]
            assert len(set(keys)) == len(keys), (name, k)
            assert lp_rows == [2 * len(keys)], (name, k)


def test_envelope_command_makes_one_kernel_call_per_posture(tmp_path, monkeypatch):
    # the level lane of the TVC/DT ratio joins the sweep's LP call, also where no
    # abscissa sits at pitch 0 and where the robot cannot hover level; invalid
    # sweep settings are refused with the config, before any LP call
    from tvcsim import cli

    calls = 0
    kernel = envelope.lp_max_covering

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(envelope, "lp_max_covering", counted)
    cases = (("", "P1,P2,P3", 0, 3), ("envelope.n_points = 4\n", "P1,P2,P3", 0, 3),
             ("envelope.n_points = 1\n", "P1", 2, 0),
             ("limits.thrust_max_per_fan_n = 41\n", "P1", 3, 1))
    for text, postures, code, kernel_calls in cases:
        calls = 0
        (tmp_path / "run.cfg").write_text(text)
        assert cli.main(["--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "out"),
                         "envelope", "--postures", postures]) == code, text
        assert calls == kernel_calls, text


def test_envelope_command_builds_no_point_object(tmp_path, monkeypatch):
    # the command writes the solve's float rows as they come, the level ratio
    # included; only the public searches build SweepPoint and EnvelopePoint
    from tvcsim import cli

    def refuse(*args, **kwargs):
        raise AssertionError("built a point object")

    monkeypatch.setattr(envelope, "SweepPoint", refuse)
    monkeypatch.setattr(envelope, "EnvelopePoint", refuse)
    (tmp_path / "weak.cfg").write_text("limits.thrust_max_per_fan_n = 43\n")  # infeasible ends
    assert cli.main(["--out", str(tmp_path / "csv"), "envelope"]) == 0
    assert cli.main(["--config", str(tmp_path / "weak.cfg"), "--out", str(tmp_path / "json"),
                     "--format", "json", "envelope", "--postures", "P1"]) == 0
    rows = json.loads((tmp_path / "json" / "envelope_P1.json").read_text())["rows"]
    assert None in rows[0] and None in rows[-1]  # at +-30 deg
    assert {row[5] for row in rows if None in row} == {0}


def test_only_cli_main_publishes_outputs_and_reads_the_clock():
    # the run record has one home: each command returns its outputs, and main
    # alone times the run and publishes the outputs and the one manifest
    tree = ast.parse((ROOT / "src" / "tvcsim" / "cli.py").read_text())
    users = {(node.id, top.name) for top in tree.body for node in ast.walk(top)
             if isinstance(node, ast.Name) and node.id in ("_publish", "time")}
    assert users == {("_publish", "main"), ("time", "main")}
