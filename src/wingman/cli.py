"""Command-line entry point: broker, run, eval, gen-trajectory.

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from wingman.evaluation import AnnotationError, load_annotations, sync_report
from wingman.protocol import format_float
from wingman.scenario import (
    ConfigError,
    broker_port_default,
    check_broker_port,
    config_from_dict,
    load_config,
    open_artifact,
    read_trace_csv,
    report_summary,
    run_scenario,
    write_report_json,
)
from wingman.transport import Broker, TcpBrokerServer
from wingman.transport.broker import DEFAULT_PORT

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wingman",
        description="Human-drone teaming simulator: pose-following drone with "
        "blind-spot cueing and trajectory-sync evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_broker = sub.add_parser("broker", help="run a standalone TCP broker")
    p_broker.add_argument("--host", default="127.0.0.1")
    p_broker.add_argument("--port", type=int, default=None,
                          help="default 1883, or the WINGMAN_BROKER_PORT env var")

    p_run = sub.add_parser("run", help="run a scenario and evaluate synchronization")
    p_run.add_argument("--config", type=Path, default=None, help="JSON scenario file")
    p_run.add_argument("--out", type=Path, default=None,
                       help="directory for trace.csv, report.json, messages.jsonl")
    p_run.add_argument("--mode", choices=["deterministic", "sockets"], default=None)
    p_run.add_argument("--duration", type=float, default=None, help="seconds")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--rate", type=float, default=None, help="pose rate, Hz")
    p_run.add_argument("--noise-sigma", type=float, default=None, help="pose noise, meters")
    p_run.add_argument("--trajectory", choices=["circle", "ellipse", "waypoints"], default=None)
    p_run.add_argument("--radius", type=float, default=None)
    p_run.add_argument("--semi-a", type=float, default=None, help="ellipse semi-axis a, meters")
    p_run.add_argument("--semi-b", type=float, default=None, help="ellipse semi-axis b, meters")
    p_run.add_argument("--angular-speed", type=float, default=None, help="rad/s")
    p_run.add_argument("--waypoints-csv", default=None)
    p_run.add_argument("--world-csv", default=None)
    p_run.add_argument("--port", type=int, default=None, help="broker port in sockets mode")
    p_run.add_argument("--set", dest="assignments", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override any config field by dotted path, e.g. "
                            "--set follower.update_period=0.05 (repeatable; "
                            "values parse as JSON, else as strings)")

    p_eval = sub.add_parser("eval", help="evaluate synchronization from recorded data")
    source = p_eval.add_mutually_exclusive_group(required=True)
    source.add_argument("--annotations", type=Path, help="bounding-box CSV "
                        "(frame,label,xmin,ymin,xmax,ymax)")
    source.add_argument("--trace", type=Path, help="trace.csv from a previous run")
    p_eval.add_argument("--fps", type=float, default=30.0, help="annotation frame rate")
    p_eval.add_argument("--label-a", default="head")
    p_eval.add_argument("--label-b", default="drone")
    p_eval.add_argument("--out", type=Path, default=None, help="write the report JSON here")

    p_gen = sub.add_parser("gen-trajectory", help="emit a trajectory CSV (t,x,y,z)")
    p_gen.add_argument("--kind", choices=["circle", "ellipse"], default=None)
    p_gen.add_argument("--radius", type=float, default=None)
    p_gen.add_argument("--semi-a", type=float, default=None)
    p_gen.add_argument("--semi-b", type=float, default=None)
    p_gen.add_argument("--angular-speed", type=float, default=None)
    p_gen.add_argument("--rate", type=float, default=None)
    p_gen.add_argument("--duration", type=float, default=None)
    p_gen.add_argument("--out", type=Path, default=None, help="default: stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "broker":
            return _cmd_broker(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "gen-trajectory":
            return _cmd_gen(args)
        return EXIT_CONFIG
    except (ConfigError, AnnotationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        return EXIT_OK
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def _cmd_broker(args) -> int:
    port = check_broker_port(args.port if args.port is not None else broker_port_default())
    server = TcpBrokerServer(Broker(), args.host, port)
    try:
        server.start()
    except OSError as exc:
        print(f"error: broker bind failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"broker listening on {args.host}:{server.port}", flush=True)
    try:
        while True:
            time.sleep(0.5)
    finally:
        server.stop()


def _cmd_run(args) -> int:
    overrides = _overrides(args)
    if args.config is not None:
        cfg = load_config(args.config, overrides)
    else:
        cfg = config_from_dict(overrides, base_dir=".")
    trace, report = run_scenario(cfg, out_dir=args.out)
    print(report_summary(report, ticks=len(trace.rows)))
    return EXIT_OK


# Named flags of run and gen-trajectory (argparse dest) -> dotted config
# key. Defaults live in the config parser; a flag left out sets nothing.
_FLAG_KEYS = {
    "mode": "mode",
    "duration": "duration",
    "seed": "seed",
    "trajectory": "trajectory.kind",
    "kind": "trajectory.kind",
    "radius": "trajectory.radius",
    "semi_a": "trajectory.semi_axis_a",
    "semi_b": "trajectory.semi_axis_b",
    "angular_speed": "trajectory.angular_speed",
    "waypoints_csv": "trajectory.csv",
    "rate": "trajectory.rate",
    "noise_sigma": "trajectory.noise_sigma",
    "world_csv": "world_csv",
    "port": "broker_port",
}
# Path flags name files relative to the working directory; paths written
# in a config file stay relative to that file's directory.
_PATH_FLAGS = {"waypoints_csv", "world_csv"}


def _overrides(args) -> dict:
    """Config overrides from the named flags given, then from each --set."""
    overrides: dict = {}
    for dest, key in _FLAG_KEYS.items():
        value = getattr(args, dest, None)
        if value is not None:
            if dest in _PATH_FLAGS:
                value = str(Path(value).absolute())
            _set_key(overrides, key, value)
    for assignment in getattr(args, "assignments", []):
        key, sep, raw = assignment.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set expects KEY=VALUE, got {assignment!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings are allowed unquoted
        _set_key(overrides, key, value)
    return overrides


def _set_key(overrides: dict, key: str, value) -> None:
    """Set one ``dotted.key`` in the config dict."""
    node = overrides
    parts = key.split(".")
    for part in parts[:-1]:
        child = node.setdefault(part, {})
        if not isinstance(child, dict):
            raise ConfigError(f"--set {key}: {part} is not a section")
        node = child
    node[parts[-1]] = value


def _cmd_eval(args) -> int:
    if args.annotations is not None:
        if not args.annotations.exists():
            raise ConfigError(f"annotation file {args.annotations} does not exist")
        trajectories = load_annotations(args.annotations, fps=args.fps)
        for label in (args.label_a, args.label_b):
            if label not in trajectories:
                raise ConfigError(
                    f"label {label!r} not found; file has {', '.join(sorted(trajectories)) or 'none'}"
                )
        report = sync_report(trajectories[args.label_a], trajectories[args.label_b])
    else:
        if not args.trace.exists():
            raise ConfigError(f"trace file {args.trace} does not exist")
        trace = read_trace_csv(args.trace)
        report = sync_report(trace.human_trajectory(), trace.drone_trajectory())
    if args.out is not None:
        write_report_json(report, args.out)
    print(report_summary(report))
    return EXIT_OK


def _cmd_gen(args) -> int:
    # no broker here: a fixed port keeps WINGMAN_BROKER_PORT from being read
    cfg = config_from_dict({"broker_port": DEFAULT_PORT, **_overrides(args)})
    spec = cfg.trajectory
    with nullcontext(sys.stdout) if args.out is None else open_artifact(args.out) as fh:
        fh.write("t,x,y,z\n")
        for k in range(int(round(cfg.duration * spec.rate))):
            t = k / spec.rate
            p = spec.kind.position(t)
            fh.write(",".join(format_float(v) for v in (t, p.x, p.y, p.z)) + "\n")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
