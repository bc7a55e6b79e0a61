"""Benchmark of wingman: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sim_long --seed 1 --seconds 20 --trace 0

Workloads: sim_long (3000-tick deterministic run, DTW-bound), crowded
(500 world objects, simulation-bound) and bus_tcp (open-loop pose stream
over loopback TCP). ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
a separate traced run's per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
See bench/NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def environment(workload: str) -> dict:
    import numpy

    import workloads

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "inputs": workloads.input_sizes(workload),
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "wingman" / "__init__.py").is_file():
        print(f"error: no wingman package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wingman

    if not Path(wingman.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported wingman from {wingman.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import metrics
    import workloads

    if args.workload in workloads.DETERMINISTIC:
        import deterministic as runner
    else:
        import bus as runner
    result = runner.run(args.workload, args.seed, float(args.seconds), bool(args.trace), SRC, OUT)

    declared = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    missing = [name for name, _, _ in declared if result["values"].get(name) is None]
    if missing:
        print(f"error: no value measured for {', '.join(missing)}", file=sys.stderr)
        return 3
    values = {name: result["values"][name] for name, _, _ in declared}
    failed_frac = result["failed"] / result["attempted"]

    env = environment(args.workload)
    record = {"env": env, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, **result}
    record["failed_frac"] = failed_frac
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )

    kind = "traced, per-layer" if args.trace else "untraced, end-to-end"
    print(f"{args.workload} seed {args.seed} ({kind}), {result['reps']} repetitions")
    print(f"env: {json.dumps(env)}")
    for name, value in values.items():
        print(f"  {name:<44} {value:>14.6g} {metrics.UNITS[name]}")
    print(f"  {'failed_frac':<44} {failed_frac:>14.6g} frac ({result['failed']} of {result['attempted']} checks)")
    for failure in result["failed_checks"]:
        print(f"  FAILED: {failure}")
    for key, note in result["notes"].items():
        if not isinstance(note, dict):
            print(f"  note {key}: {note:.6g}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
