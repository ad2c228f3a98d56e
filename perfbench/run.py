"""Benchmark of gdiscord, driven from outside through its functions and CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: discord-nf, discord-cm, family-cloud, cli-cold (see
BENCHMARK.json and perfbench/README.md).  The code measured is the
checked-out ``src/`` tree next to this directory; the run fails, without a
result, when it is missing.  The last line of stdout is the result: one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the run's provenance and the workload's detail figures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("discord-nf", "discord-cm", "family-cloud", "cli-cold")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "gdiscord" / "__init__.py").is_file():
        print(f"error: no gdiscord source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gdiscord

    if Path(gdiscord.__file__).resolve().parent != (SRC / "gdiscord").resolve():
        print(f"error: imported gdiscord from {gdiscord.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness
    import workloads

    # One CPU for the benchmark and every child it starts, so that the
    # calibration loop (harness.HostClock) runs where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    trace = bool(args.trace)
    if args.workload == "discord-nf":
        record = workloads.discord_states("nf", args.seed, args.seconds, trace)
    elif args.workload == "discord-cm":
        record = workloads.discord_states("cm", args.seed, args.seconds, trace)
    elif args.workload == "family-cloud":
        record = workloads.family_cloud(args.seed, args.seconds, trace)
    else:
        record = workloads.cli_cold(args.seed, args.seconds, trace)

    info = record.pop("info")
    info.update(seed=args.seed, seconds=args.seconds, trace=args.trace,
                deadline_s=harness.CALL_DEADLINE_S, environment=harness.environment())
    print(json.dumps({"info": info}))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
