"""Closed-loop measurement of one workload: one client, one thread.

Each op starts after the previous one completes. ``--trace 0`` measures
the end-to-end metrics over a fixed number of distinct ops. ``--trace 1``
runs a small op set alternately untraced and traced, a fixed number of
times, and reports the per-layer metrics and the tracing overhead. Both
check every op's outputs, and both size the run from ``--seconds`` and the
workload's nominal op time, so the same seed and run length always attempt
the same ops. Earlier stdout lines carry the full report: machine, failure
reasons, outcome digest and the metrics that BENCHMARK.json does not bound.
The last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import hostspeed
import tvcsim
import tracer as tracing
import workloads

SETUP_SAMPLES = 9
HARD_STOP_S = 120.0  # wall-clock cap on the measured loop, inside the 180 s per run
DIGEST_OPS = 2 * workloads.CYCLE  # the outcome digest covers these ops
TRACE_OPS = workloads.CYCLE  # the traced run's fixed op set
TRACE_SLOWDOWN = 1.2  # traced op time over untraced, for sizing the traced run
# Failures the program had when the benchmark was defined. They count in
# `failed` and failed_ops_frac, but do not make a run incorrect, and the ops
# still count in the op rates: which inputs hit them depends on the seed.
KNOWN_DEFECTS = frozenset({"below_floor_after_liftoff"})

SETUP_CODE = ("import time; t = time.perf_counter(); import tvcsim, tvcsim.cli; "
              "print(time.perf_counter() - t)")


def incorrect(reasons) -> bool:
    return any(r not in KNOWN_DEFECTS for r in reasons)


def setup_sample(root: str) -> float:
    """Import time of tvcsim + tvcsim.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=root,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip())


def machine(seed: int, blas_env: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_env,
        "seed": seed,
    }


class Runner:
    """Runs ops of one workload and tallies what the checks found."""

    def __init__(self, workload, work_dir: str):
        self.wl = workload
        self.work_dir = work_dir
        self.reasons: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0  # failed for a reason outside KNOWN_DEFECTS
        self.digest: dict[int, dict] = {}
        self.reference = None  # fingerprint of op 0's first run

    def run(self, index: int, tracer=None, count: bool = True):
        """One op: untimed prepare, timed execute, untimed inspect."""
        spec = self.wl.make(index)
        out_dir = tempfile.mkdtemp(dir=self.work_dir)
        try:
            self.wl.prepare(spec, out_dir)
            if tracer is not None:  # installed around the op only, not its checks
                tracer.install()
            t0 = time.perf_counter()
            try:
                with tracer.root() if tracer is not None else contextlib.nullcontext():
                    result = self.wl.execute(spec, out_dir)
            except Exception as exc:  # a traceback fails the op, not the benchmark
                result = exc
            finally:
                elapsed = time.perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
            if isinstance(result, Exception):
                insp = workloads.Inspection([f"exception_{type(result).__name__}"], 0, {}, "")
            else:
                insp = self.wl.inspect(spec, result, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if index == 0:
            if self.reference is None:
                self.reference = insp.fingerprint
            elif insp.fingerprint != self.reference:
                insp.reasons.append("rerun_not_identical")
        if count:
            self.attempted += 1
            self.failed += bool(insp.reasons)
            self.incorrect += incorrect(insp.reasons)
            for r in insp.reasons:
                self.reasons[r] = self.reasons.get(r, 0) + 1
            if index < DIGEST_OPS:
                self.digest.setdefault(index, insp.digest)
        return elapsed, insp

    def outcome_digest(self) -> dict:
        ops = [self.digest[i] for i in sorted(self.digest)]
        text = json.dumps(ops, sort_keys=True)
        return {"ops": ops, "sha256": hashlib.sha256(text.encode()).hexdigest()}


def high_percentile(times: list[float]):
    """Highest of p99/p95/p90/p75 with at least ten samples above it, else None."""
    n = len(times)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(times, n=100)[p - 1]
    return None


def planned_ops(wl, seconds: float) -> int:
    """Whole input mixes that fill `seconds` at the workload's nominal op time."""
    return wl.mix * max(1, round(seconds / (wl.nominal_op_s * wl.mix)))


def rates(times, counted, units):
    """ops_per_s, op_p50_s and work_units_per_s of a list of op times."""
    busy = sum(times)
    return sum(counted) / busy, statistics.median(times), sum(units) / busy


def timed_op(runner: Runner, index: int, before: float, tracer=None):
    """One op, after a run of the reference loop that took `before` seconds.

    The host's speed drifts by tens of percent within seconds on a shared
    machine. So the op's host time is also given at the reference host
    speed: scaled by the loop's nominal time over the mean of its runs just
    before and just after the op. Returns (host seconds, reference seconds,
    inspection, the loop's time after the op), which is the next op's
    `before`.
    """
    elapsed, insp = runner.run(index, tracer)
    after = hostspeed.probe()
    return elapsed, elapsed * hostspeed.NOMINAL_S / ((before + after) / 2), insp, after


def measure(runner: Runner, seconds: float, root: str):
    """Untraced loop over a fixed number of distinct ops.

    The bounded rates are taken from op times at the reference host speed;
    the host-second figures are reported beside them. Set-up samples are
    taken between ops, spread over the run, so that they see the same
    machine load as the ops do.
    """
    n_planned = planned_ops(runner.wl, seconds)
    setup_at = {round(k * n_planned / SETUP_SAMPLES) for k in range(SETUP_SAMPLES)}
    setup_sample(root)  # warm-up: writes the bytecode caches
    runner.run(0, count=False)  # warm-up; also the reference for the rerun check
    setup, times, norm, units, counted, ok = [], [], [], [], [], 0
    started = time.perf_counter()
    probe = hostspeed.probe()
    for index in range(n_planned):
        if index in setup_at:
            setup.append(setup_sample(root))
        elapsed, at_ref, insp, probe = timed_op(runner, index, probe)
        times.append(elapsed)
        norm.append(at_ref)
        units.append(insp.units)
        counted.append(not incorrect(insp.reasons))
        ok += not insp.reasons
        if time.perf_counter() - started > HARD_STOP_S:
            break
    probes = [hostspeed.NOMINAL_S * t / n for t, n in zip(times, norm)]  # mean around each op
    ops_n, p50_n, work_n = rates(norm, counted, units)
    ops, p50, work = rates(times, counted, units)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s_norm": (ops_n, "1/s"),
        "work_units_per_s_norm": (work_n, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    extra = {
        # an op's median time swings with the seed's mix of sweep sizes and postures
        # by more than the bound allows, so it is reported but not bounded
        "op_p50_s_norm": (p50_n, "s"),
        "ops_per_s": (ops, "1/s"),
        "op_p50_s": (p50, "s"),
        "work_units_per_s": (work, "1/s"),
        f"{runner.wl.units}_per_s": (work, "1/s"),
        f"{runner.wl.units}_per_s_norm": (work_n, "1/s"),
        "ok_ops_per_s": (ok / sum(times), "1/s"),
        "failed_ops_frac": (runner.failed / runner.attempted, "1"),
        "host_probe_ms": (1000.0 * statistics.median(probes), "ms"),
    }
    hi = high_percentile(times)
    if hi is not None:
        extra[f"op_p{hi[0]}_s"] = (hi[1], "s")
    samples = {"ops": len(times), "ops_planned": n_planned, "op_busy_s": sum(times),
               "setup_s": setup}
    return metrics, extra, samples


def measure_traced(runner: Runner, seconds: float):
    """Alternate untraced and traced passes over the fixed op set, a fixed number of times.

    The overhead compares op times at the reference host speed.
    """
    pairs = max(2, round(seconds / ((1.0 + TRACE_SLOWDOWN) * runner.wl.nominal_op_s
                                    * TRACE_OPS)))
    tracer = tracing.Tracer()
    runner.run(0, count=False)
    plain, traced, passes = [], [], []
    started = time.perf_counter()
    for pair in range(pairs):
        order = (False, True) if pair % 2 == 0 else (True, False)
        for traced_pass in order:
            work, wall = 0, 0.0
            probe = hostspeed.probe()
            for i in range(TRACE_OPS):
                _, at_ref, insp, probe = timed_op(runner, i, probe,
                                                  tracer if traced_pass else None)
                wall += at_ref
                work += insp.units
            if traced_pass:
                steps = work if runner.wl.units == "sim_steps" else 0
                points = work if runner.wl.units == "sweep_points" else 0
                passes.append(tracing.layer_metrics(tracing.summarize(*tracer.columns()),
                                                    steps, points, TRACE_OPS))
                tracer.clear()
                traced.append(wall)
            else:
                plain.append(wall)
        if time.perf_counter() - started > HARD_STOP_S:
            break
    metrics = {k: (v, tracing.unit_of(k))
               for k, v in tracing.median_metrics(passes).items()}
    t_plain, t_traced = statistics.median(plain), statistics.median(traced)
    metrics["trace.overhead_frac"] = (1.0 - t_plain / t_traced, "1")
    extra = {"untraced_ops_per_s": (TRACE_OPS / t_plain, "1/s"),
             "traced_ops_per_s": (TRACE_OPS / t_traced, "1/s")}
    samples = {"passes_each": len(traced), "passes_planned": pairs, "ops_per_pass": TRACE_OPS}
    return metrics, extra, samples


def main(root: str, blas_env: dict, argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py",
                                     description="tvcsim closed-loop benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work_root = os.path.join(root, "bench", ".work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=work_root)
    try:
        runner = Runner(workloads.WORKLOADS[args.workload](args.seed), work_dir)
        if args.trace:
            metrics, extra, samples = measure_traced(runner, args.seconds)
        else:
            metrics, extra, samples = measure(runner, args.seconds, root)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:  # another run still uses it
            pass

    shown = {**metrics, **extra}
    for name, (value, unit) in shown.items():
        print(f"{args.workload}: {name} = {value:.6g} {unit}")
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "tvcsim": tvcsim.__version__,
        "machine": machine(args.seed, blas_env),
        "samples": samples,
        "failure_reasons": runner.reasons,
        "known_defects": sorted(KNOWN_DEFECTS),
        "outcome_digest": runner.outcome_digest(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": runner.incorrect == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0
