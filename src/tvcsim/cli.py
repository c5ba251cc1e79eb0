"""Command-line entry point.

Subcommands:

* ``envelope``    - pitch-torque boundary sweep per posture, CSV + ratio report
* ``takeoff``     - closed-loop takeoff run, log CSV + events JSON + summary
* ``trim``        - hover trim report as key=value lines
* ``wrench-eval`` - one-shot wrench evaluation as key=value lines

Angles are degrees at this boundary, SI units otherwise. Exit codes: 0 ok,
2 config/usage error, out of memory or an output that cannot be written, 3
infeasible geometry, 4 takeoff run ended before its duration (divergence or
touchdown). Every command resolves its robot from the config file through
scenario_from_config, after main merges the options that override config keys
(OVERRIDES) into the file's values, and returns its report lines and its
outputs as writers. main alone reads the one clock and publishes the outputs
and the manifest, with the sha256 of the config bytes it parsed and of the
bytes written to each output; it prints the report only then, so a run that
fails prints only its error line. Outputs are written atomically (temp file +
rename) and contain no timestamps, so a rerun with identical inputs is
byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, replace

from . import __version__
from .config import (
    ConfigError,
    envelope_settings_from_config,
    keyed,
    load_config,
    scenario_from_config,
)
from .controller import ControlMode
from .robot import EnvelopeInfeasibleError, FieldError, write_text
from .sim import run_scenario
from .trim import NoTrimError, hover_trim
from .wrench import FanState, total_wrench

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_ENDED_EARLY = 4

# option -> the config key it overrides, for every command that takes the option
OVERRIDES = {"seed": "sim.seed", "mode": "mode", "posture": "posture"}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        values, config_digest = load_config(args.config) if args.config else ({}, None)
        values |= {key: getattr(args, option) for option, key in OVERRIDES.items()
                   if getattr(args, option, None) is not None}
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {args.out}: {exc}") from None
        code, report, outputs, scenarios, extra = args.func(args, values)
        digests = {name: _publish(os.path.join(args.out, name), write)
                   for name, write in outputs.items()}
        name = args.command.replace("-", "_")
        text = json.dumps({
            "tool": "tvcsim",
            "version": __version__,
            "command": name,
            "resolved_config": {"scenarios": scenarios} | extra,
            "input_hashes": {"config": config_digest},
            "outputs": digests,
            "wall_clock_s": round(time.monotonic() - started, 3),
        }, indent=2, sort_keys=True, allow_nan=False) + "\n"
        _publish(os.path.join(args.out, f"{name}_manifest.json"),
                 functools.partial(write_text, text=text))
        print("\n".join(report))
        return code
    except ValueError as exc:  # ConfigError, FieldError and UnknownPostureError among them
        print(f"error: {keyed(exc)}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # an envelope sweep too large to allocate, say
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_CONFIG
    except (EnvelopeInfeasibleError, NoTrimError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


@functools.cache  # one argparse tree per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvcsim",
        description="Takeoff dynamics and thrust-vector control analysis",
    )
    parser.add_argument("--config", help="flat dotted-key config file")
    parser.add_argument("--out", default=".", help="output directory (default: cwd)")
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="tabular output format")
    sub = parser.add_subparsers(dest="command", required=True)

    p_env = sub.add_parser("envelope", help="DT vs TVC pitch-torque boundaries")
    p_env.add_argument("--postures", help="comma-separated posture labels "
                       "(default: the config file's posture, else P1,P2,P3)")
    p_env.set_defaults(func=cmd_envelope)

    p_take = sub.add_parser("takeoff", help="closed-loop takeoff simulation")
    p_take.add_argument("--mode", choices=[m.value for m in ControlMode],
                        help="override the controller condition")
    p_take.set_defaults(func=cmd_takeoff)

    p_trim = sub.add_parser("trim", help="hover trim report")
    p_trim.add_argument("--posture", help="override the config's posture (default P1)")
    p_trim.add_argument("--waist-differential", action="store_true",
                        help="trim with feet up and a waist thrust split instead")
    p_trim.set_defaults(func=cmd_trim)

    p_we = sub.add_parser("wrench-eval", help="evaluate the wrench for one fan state")
    p_we.add_argument("--posture", help="override the config's posture (default P1)")
    p_we.add_argument("--thrust-ff", type=float, default=0.0, help="front waist fan [N]")
    p_we.add_argument("--thrust-fb", type=float, default=0.0, help="back waist fan [N]")
    p_we.add_argument("--thrust-fl", type=float, default=0.0, help="left foot fan [N]")
    p_we.add_argument("--thrust-fr", type=float, default=0.0, help="right foot fan [N]")
    p_we.add_argument("--theta-l", type=float, default=0.0, help="left foot pitch [deg]")
    p_we.add_argument("--theta-r", type=float, default=0.0, help="right foot pitch [deg]")
    p_we.add_argument("--theta-pitch", type=float, default=0.0, help="body pitch [deg]")
    p_we.set_defaults(func=cmd_wrench_eval)
    return parser


def _publish(path: str, write) -> str:
    """Publish path atomically; return the sha256 hex digest of its bytes.

    write(fh) fills fh, a binary file on the descriptor of a unique temp file
    beside path, and returns the bytes written; fh is closed on every path, and
    the temp file then replaces path, or is removed if writing or the rename fails.
    An OSError becomes a ConfigError that names path, not the random temp name."""
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                   prefix=os.path.basename(path) + ".")
        try:
            with open(fd, "wb") as fh:
                os.fchmod(fd, 0o644)  # mkstemp's 0600 would make outputs private
                data = write(fh)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
    return hashlib.sha256(data).hexdigest()


def _rows_as_json(header, rows) -> str:
    """The table as {"header", "rows"} JSON text; a non-finite float raises ValueError."""
    return json.dumps({"header": list(header), "rows": rows}, indent=2, allow_nan=False) + "\n"


def cmd_envelope(args, values):
    # the one command that solves arrays of LPs, so the one that loads numpy
    from .envelope import (
        ENVELOPE_CSV_HEADER,
        EnvelopeConstraint,
        _level_ratio_and_sweep,
        write_envelope_csv,
    )

    settings = envelope_settings_from_config(values)
    if args.postures is not None:
        postures = [p.strip() for p in args.postures.split(",") if p.strip()]
    else:
        postures = [values["posture"]] if "posture" in values else ["P1", "P2", "P3"]
    if not postures:
        raise ConfigError("no postures given")
    for k, name in enumerate(postures):  # each label names its own output file
        if name in postures[:k]:
            raise ConfigError(f"posture {name} is given twice in --postures")
    cfgs = [scenario_from_config(values | {"posture": name}) for name in postures]
    outputs, report = {}, []
    for cfg in cfgs:
        name = cfg.posture.name
        geo = cfg.geometry()
        constraint = EnvelopeConstraint.hover(geo, cfg.posture, cfg.limits)
        if settings.min_vertical_force is not None:
            constraint = replace(constraint, min_vertical_force=settings.min_vertical_force)
        try:  # one LP call: the level lane of the TVC/DT ratio is the sweep's first lane
            (ratio_max, ratio_min), rows = _level_ratio_and_sweep(geo, constraint, settings)
        except MemoryError as exc:  # the sweep's arrays grow with n_points
            raise FieldError("out of memory" + (f": {exc}" if str(exc) else ""),
                             "n_points") from None
        if args.format == "csv":
            write = functools.partial(write_envelope_csv, rows)
        else:  # an infeasible strategy's nan cells are null in JSON
            write = functools.partial(write_text, text=_rows_as_json(ENVELOPE_CSV_HEADER, [
                [None if x != x else x for x in row] for row in rows]))
        outputs[f"envelope_{name}.{args.format}"] = write
        report += [
            f"{name}: geometry mass={geo.mass_total} kg L={geo.fan_spacing_waist} m "
            f"L_f={geo.fan_spacing_feet} m com=({geo.com_body[0]:.3f}, "
            f"{geo.com_body[2]:.3f}) m feet=({geo.fan_foot_x:.3f}, {geo.fan_foot_z:.3f}) m",
            f"{name}: tvc/dt ratio @0deg: tau_max {ratio_max:.2f}, |tau_min| {ratio_min:.2f}"]
    report.append(f"wrote {len(cfgs)} envelope file(s) + envelope_manifest.json")
    return EXIT_OK, report, outputs, [asdict(c) for c in cfgs], {"envelope": asdict(settings)}


def cmd_takeoff(args, values):
    cfg = scenario_from_config(values)
    log = run_scenario(cfg)
    events = log.events_json() + "\n"  # a non-finite event fails before any file is written
    outputs = {
        f"takeoff_log.{args.format}": log.write_csv if args.format == "csv"
        else functools.partial(write_text, text=_rows_as_json(log.header, log.rows)),
        "takeoff_events.json": functools.partial(write_text, text=events),
    }

    ev = log.events
    liftoff = ev["liftoff_time_s"]
    alt = ev["altitude_at_2s_m"]
    report = [
        f"mode={cfg.mode.value} liftoff_t={'never' if liftoff is None else f'{liftoff:.3f} s'} "
        f"altitude@2s={'n/a' if alt is None else f'{alt:.3f} m'} "
        f"max|pitch|={ev['max_abs_pitch_deg']:.1f} deg max|yaw|={ev['max_abs_yaw_deg']:.1f} deg"
        + ("" if ev["termination"] == "duration" else f" [{ev['termination'].upper()}]")
    ]
    code = EXIT_OK if ev["termination"] == "duration" else EXIT_ENDED_EARLY
    return code, report, outputs, [log.scenario], {}


def cmd_trim(args, values):
    cfg = scenario_from_config(values)
    geo = cfg.geometry()
    fs, theta_pitch = hover_trim(geo, equal_thrust=not args.waist_differential,
                                 limits=cfg.limits,
                                 foot_pitch_range=cfg.posture.foot_pitch_range)
    residual = math.hypot(*total_wrench(fs, geo, theta_pitch).world)
    report = [
        f"posture={cfg.posture.name}",
        f"f_front_n={fs.f_front:.6f}",
        f"f_back_n={fs.f_back:.6f}",
        f"f_left_n={fs.f_left:.6f}",
        f"f_right_n={fs.f_right:.6f}",
        f"foot_angle_left_deg={math.degrees(fs.theta_left):.6f}",
        f"foot_angle_right_deg={math.degrees(fs.theta_right):.6f}",
        f"theta_pitch_deg={math.degrees(theta_pitch):.6f}",
        f"residual_wrench_norm={residual:.3e}",
    ]
    return EXIT_OK, report, {}, [asdict(cfg)], {"waist_differential": args.waist_differential}


def cmd_wrench_eval(args, values):
    cfg = scenario_from_config(values)
    geo = cfg.geometry()
    for name in ("thrust_ff", "thrust_fb", "thrust_fl", "thrust_fr", "theta_l", "theta_r",
                 "theta_pitch"):
        value, option = getattr(args, name), f"--{name.replace('_', '-')}"
        if not math.isfinite(value):
            raise ConfigError(f"{option} must be finite")
        if name.startswith("thrust") and value < 0.0:
            raise ConfigError(f"{option} must be >= 0, got {value}")
    fs = FanState(
        f_front=args.thrust_ff, f_back=args.thrust_fb,
        f_left=args.thrust_fl, f_right=args.thrust_fr,
        theta_left=math.radians(args.theta_l),
        theta_right=math.radians(args.theta_r),
    )
    w = total_wrench(fs, geo, math.radians(args.theta_pitch))
    printed = (*w.world, w.t_y1, w.t_y2, w.t_y3)
    if not all(map(math.isfinite, printed)):
        raise ConfigError("the fan state's wrench overflows a float")
    report = [f"{name}={value:.6f}" for name, value in zip(
        ("fx", "fy", "fz", "tx", "ty", "tz", "ty1", "ty2", "ty3"), printed)]
    return EXIT_OK, report, {}, [asdict(cfg)], {"fan_state": {
        "f_front": args.thrust_ff, "f_back": args.thrust_fb,
        "f_left": args.thrust_fl, "f_right": args.thrust_fr,
        "theta_l_deg": args.theta_l, "theta_r_deg": args.theta_r,
        "theta_pitch_deg": args.theta_pitch}}


if __name__ == "__main__":
    sys.exit(main())
