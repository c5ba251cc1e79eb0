"""Spans around the public functions of each tvcsim layer.

The tracer rebinds every listed function in each ``tvcsim`` module that
holds it (methods are rebound on their class), so one wrapper serves all
the names a function is bound under and each call is counted once. Spans
are kept in memory; a layer's self time is its span time minus the time
of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from array import array

PACKAGE = "tvcsim"
# "<module>.<function>" or "<module>.<Class>.<method>"; the module is the layer.
# Functions no metric names are listed so that their time counts to their
# own layer's self time rather than to the caller's (e.g. total_wrench in trim).
TARGETS = (
    "spatial.quat_to_matrix",
    "spatial.quat_to_euler",
    "spatial.quat_integrate",
    "wrench.generalized_wrench_3d",
    "wrench.total_wrench",
    "wrench.fan_layout",
    "sim.run_scenario",
    "sim.dynamics_step",
    "sim.SimLog.write_csv",
    "controller.AttitudeController.step",
    "controller.tune_gains",
    "trim.hover_trim",
    "envelope.envelope_sweep",
    "envelope.tvc_dt_ratio",
    "envelope.max_pitch_torque_tvc",
    "envelope.max_pitch_torque_dt",
    "envelope.write_envelope_csv",
    "oracles.envelope_extrema_grid",
    "oracles.wrench_brute_force",
    "oracles.trim_scan",
    "config.load_config",
    "config.scenario_from_config",
    "config.envelope_settings_from_config",
    "cli.main",
)

LAYERS = ("spatial", "wrench", "sim", "controller", "trim", "envelope",
          "oracles", "config", "cli")
OP = "op"  # root span of one benchmark operation, the benchmark's own layer


class Tracer:
    """Installs span-recording wrappers; spans accumulate until cleared.

    Spans are stored as columns (name, start, end, parent index, raised)
    in arrays, which the cyclic garbage collector does not scan, so a long
    traced run does not slow the program through collections.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.clear()

    def clear(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.raised = bytearray()

    def columns(self):
        return self.names, self.starts, self.ends, self.parents, self.raised

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for target in self.targets:
            module_name, *path = target.split(".")
            holder = sys.modules[f"{PACKAGE}.{module_name}"]
            for attr in path[:-1]:
                holder = getattr(holder, attr)
            original = vars(holder)[path[-1]]
            wrapper = self._wrap(target, original)
            if len(path) > 1:  # a method: the class is shared by every importer
                bindings = [holder]
            else:
                bindings = [m for m in modules if vars(m).get(path[-1]) is original]
            for mod in bindings:
                setattr(mod, path[-1], wrapper)
                self._restore.append((mod, path[-1], original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self.raised.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int, raised: bool) -> None:
        self.ends[idx] = time.perf_counter()
        self.raised[idx] = raised
        self._stack.pop()

    def _wrap(self, name, fn):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(idx, True)
                raise
            close(idx, False)
            return result

        return wrapper

    @contextlib.contextmanager
    def root(self):
        """Records the root span of one op."""
        idx = self._open(OP)
        try:
            yield
        except BaseException:
            self._close(idx, True)
            raise
        self._close(idx, False)


def summarize(names, starts, ends, parents, raised) -> dict:
    """Per span name: calls, raised, total and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; with one thread the children never overlap each other.
    """
    child = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out: dict = {}
    for i, name in enumerate(names):
        dur = ends[i] - starts[i]
        row = out.setdefault(name, {"calls": 0, "raised": 0, "total": 0.0, "self": 0.0})
        row["calls"] += 1
        row["raised"] += raised[i]
        row["total"] += dur
        row["self"] += dur - child[i]
    return out


def layer_metrics(summary: dict, steps: int, sweep_points: int, ops: int) -> dict:
    """Per-layer metrics of one traced pass; 0 where the layer is idle.

    steps and sweep_points are the simulated physics steps and envelope
    sweep points the pass's ops produced, read from their outputs.
    """
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    wall = get(OP, "total")

    def self_frac(prefix):
        return per(sum(r["self"] for n, r in summary.items()
                       if n.split(".")[0] == prefix), wall)

    def per_call(name, scale, key="total"):
        return per(get(name, key), get(name, "calls"), scale)

    us, ms = 1e6, 1e3
    tvc, dt = "envelope.max_pitch_torque_tvc", "envelope.max_pitch_torque_dt"
    m = {
        "spatial.quat_to_matrix.calls_per_step": per(get("spatial.quat_to_matrix", "calls"), steps),
        "spatial.quat_to_euler.us_per_call": per_call("spatial.quat_to_euler", us),
        "spatial.quat_integrate.us_per_call": per_call("spatial.quat_integrate", us),
        "wrench.generalized_wrench_3d.calls_per_step":
            per(get("wrench.generalized_wrench_3d", "calls"), steps),
        "wrench.generalized_wrench_3d.us_per_call": per_call("wrench.generalized_wrench_3d", us),
        "sim.steps_per_op": per(steps, ops),
        "sim.airborne_frac": per(get("sim.dynamics_step", "calls"), steps),
        "sim.diverged_frac": per(get("sim.run_scenario", "raised"),
                                 get("sim.run_scenario", "calls")),
        "sim.dynamics_step.us_per_call": per_call("sim.dynamics_step", us),
        "sim.dynamics_step.self_us_per_call": per_call("sim.dynamics_step", us, "self"),
        "sim.run_scenario.self_frac": per(get("sim.run_scenario", "self"), wall),
        "sim.SimLog.write_csv.ms_per_call": per_call("sim.SimLog.write_csv", ms),
        "controller.AttitudeController.step.calls_per_step":
            per(get("controller.AttitudeController.step", "calls"), steps),
        "controller.AttitudeController.step.us_per_call":
            per_call("controller.AttitudeController.step", us),
        "controller.tune_gains.us_per_call": per_call("controller.tune_gains", us),
        "trim.hover_trim.calls_per_op": per(get("trim.hover_trim", "calls"), ops),
        "trim.hover_trim.us_per_call": per_call("trim.hover_trim", us),
        "envelope.max_pitch_torque_tvc.ms_per_call": per_call(tvc, ms),
        "envelope.max_pitch_torque_dt.us_per_call": per_call(dt, us),
        "envelope.max_pitch_torque_tvc.calls_per_sweep_point": per(get(tvc, "calls"), sweep_points),
        "envelope.infeasible_frac": per(get(tvc, "raised") + get(dt, "raised"),
                                        get(tvc, "calls") + get(dt, "calls")),
        "envelope.write_envelope_csv.ms_per_call": per_call("envelope.write_envelope_csv", ms),
        "oracles.envelope_extrema_grid.ms_per_call": per_call("oracles.envelope_extrema_grid", ms),
        "oracles.wrench_brute_force.us_per_call": per_call("oracles.wrench_brute_force", us),
        "oracles.trim_scan.ms_per_call": per_call("oracles.trim_scan", ms),
        "config.load_config.us_per_call": per_call("config.load_config", us),
        "config.scenario_from_config.us_per_call": per_call("config.scenario_from_config", us),
    }
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = self_frac(layer)
    return m


def unit_of(metric: str) -> str:
    if metric.endswith("_frac"):
        return "1"
    if metric.endswith("us_per_call"):
        return "us"
    if metric.endswith("ms_per_call"):
        return "ms"
    return "count"


def median_metrics(passes: list[dict]) -> dict:
    """Median of each metric over the traced passes."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
