"""Compare two gdiscord source trees, interleaved on one CPU: the discord operation or cold launches.

    python3 scripts/compare_trees.py {layers,launches} BEFORE_SRC AFTER_SRC [--rounds 10] [--cpu 0]

Each ``*_SRC`` is a ``src`` directory holding ``gdiscord``.  Both modes run
one protocol: the script and every child it starts are pinned to CPU
``--cpu``, and each of ``--rounds`` rounds measures both trees, BEFORE first
in even rounds and AFTER first in odd ones.  For each key the script prints
the median of each tree, the median of the per-round savings (BEFORE less
AFTER), the rounds in which AFTER was lower, and the interquartile range of
BEFORE's rounds.  A speed claim holds when AFTER wins at least 9 of 10
rounds and the median saving exceeds BEFORE's IQR; 10, the default, is the
fewest rounds a claim may cite.

``layers`` times the benchmark's own discord operation, ``ops.discord_op``
of ``perfbench/``, in process: one child per tree and round imports it, read
only, against that tree's ``gdiscord`` and runs it on the benchmark's seed-1
inputs, ``workloads._discord_inputs``, as many as a run of ``run_seconds``
of ``BENCHMARK.json`` draws: 1,600 normal forms for discord-nf and 900 CMs in
local frames for discord-cm.  Each of ``PASSES`` passes runs every state
once through ``harness.direct``, for the key ``op.discord`` (per state), and
once through a hook that times each call under the span name ``ops`` gives
it (per call):

    symplectic.validate_bona_fide, symplectic.normal_form_from_cm,
    family.membership, discord.gaussian_discord_closed_form,
    discord.gaussian_discord_numeric, serialize.discord_report_to_dict

the names of the benchmark's traced per-layer metrics.  A key's figure is
the best of the passes.  Last it prints a sha256, per tree, of what every
span returned (its ``repr``) or raised (the error's type and message), state
by state, and exits 1 when the two trees differ.

``launches`` copies both trees twice, once without bytecode and once
compiled with ``compileall``, and times fresh-interpreter launches of
``classify``, ``discord``, ``decompose`` and ``condition`` from each copy,
and from the compiled copy under ``python -S`` too: without ``site``, no
``.pth`` file of the host preloads a module, so those rounds show what the
commands import themselves.  Children run with
``PYTHONDONTWRITEBYTECODE=1``, so the uncompiled copies stay so.  Last it
lists the modules of ``MODULES`` that ``-X importtime`` shows each command
importing under ``-S``, per tree.
"""

import argparse
import compileall
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
SIDES = ("before", "after")
SEED = 1
PASSES = 9
COMMANDS = {
    "classify": ["classify", "--tau", "0.5", "--eta", "0.6"],
    "discord": ["discord", "--normal-form", "5,2,2.449489743,-2.449489743"],
    "decompose": ["decompose", "--normal-form", "2,2,1,1"],
    "condition": ["condition", "--state", '{"normal_form": {"a": 2, "b": 2, "c": 1, "cp": -1}}',
                  "--measurement", '{"u": 1}'],
}
# launch variant -> (the copy it runs, its interpreter options)
VARIANTS = {"uncompiled": ("uncompiled", ()), "compiled": ("compiled", ()),
            "compiled -S": ("compiled", ("-S",))}
MODULES = ("dataclasses", "inspect", "numpy", "pathlib", "typing", "gdiscord.symplectic")


def interleave(rounds: int, measure) -> dict:
    """{side: [measure(side) of each round]}, BEFORE first in even rounds, AFTER in odd ones."""
    runs = {side: [] for side in SIDES}
    for i in range(rounds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(measure(side))
    return runs


def report(runs: dict, unit: str) -> None:
    """Print each key's median per tree, median saving, rounds AFTER won and BEFORE's IQR."""
    n = len(runs["before"])
    print(f"  {'median ' + unit:48s} {'before':>9s} {'after':>9s} {'saving':>9s} {'won':>6s} "
          f"{'IQR before':>10s}")
    for key in [key for key in runs["before"][0] if key in runs["after"][0]]:
        before, after = ([run[key] for run in runs[side]] for side in SIDES)
        q1, _, q3 = statistics.quantiles(before, n=4, method="inclusive") if n > 1 else before * 3
        saving = statistics.median(b - a for b, a in zip(before, after))
        won = sum(a < b for b, a in zip(before, after))
        print(f"  {key:48s} {statistics.median(before):9.2f} {statistics.median(after):9.2f} "
              f"{saving:+9.2f} {won:3d}/{n:<2d} {q3 - q1:10.2f}")


def child() -> None:
    """Time ``ops.discord_op`` and its spans on both input sets; print {"us": ..., "digest": ...}."""
    sys.path.insert(0, PERFBENCH)  # read only: children run with PYTHONDONTWRITEBYTECODE=1
    import harness
    import ops
    import workloads
    from gdiscord.errors import GDiscordError

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        run_seconds = json.load(f)["run_seconds"]
    spans, outputs = {}, []  # span name -> seconds of each call; (span name, what it returned)

    def span(name, fn, *args):
        """harness.direct that times the call under its span and keeps what it returns or raises."""
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except GDiscordError as exc:
            out = exc
        spans.setdefault(name, []).append(time.perf_counter() - t0)
        outputs.append((name, out))
        if isinstance(out, GDiscordError):
            raise out
        return out

    def sweep(cms, call) -> float:
        t0 = time.perf_counter()
        for V in cms:
            try:
                ops.discord_op(V, call)
            except GDiscordError:
                pass
        return time.perf_counter() - t0

    sha = hashlib.sha256()
    us = {}
    for kind, per_s in workloads.DISCORD_STATES_PER_S.items():
        cms = workloads._discord_inputs(kind, SEED, round(per_s * run_seconds))[1]
        best = {"op.discord": math.inf}
        for i in range(PASSES):
            best["op.discord"] = min(best["op.discord"], sweep(cms, harness.direct) / len(cms))
            spans.clear()
            outputs.clear()
            sweep(cms, span)
            for name, secs in spans.items():
                best[name] = min(best.get(name, math.inf), sum(secs) / len(secs))
            if i == 0:
                sha.update(repr(outputs).encode())
        us.update({f"{name} discord-{kind}": 1e6 * secs for name, secs in best.items()})
    print(json.dumps({"us": us, "digest": sha.hexdigest()}))


def layers(trees: dict, rounds: int) -> int:
    env = {side: dict(os.environ, PYTHONPATH=os.pathsep.join([src, HERE]),
                      PYTHONDONTWRITEBYTECODE="1") for side, src in trees.items()}
    runs = interleave(rounds, lambda side: json.loads(subprocess.run(
        [sys.executable, "-c", "import compare_trees; compare_trees.child()"],
        env=env[side], stdout=subprocess.PIPE, check=True, text=True).stdout))
    print(f"best of {PASSES} passes per round; op.discord per state, each span per call:")
    report({side: [run["us"] for run in runs[side]] for side in SIDES}, "us")
    digests = {side: {run["digest"] for run in runs[side]} for side in SIDES}
    for side, seen in digests.items():
        print(f"  sha256 of every span's output, {side}: {', '.join(sorted(seen))}")
    if digests["before"] != digests["after"] or len(digests["before"]) != 1:
        print("outputs differ between the trees")
        return 1
    return 0


def launch(src: str, args: list, extra=()) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *extra, "-m", "gdiscord.cli", *args], env=env,
                          capture_output=True, check=True)


def timed(src: str, args: list, extra=()) -> float:
    t0 = time.perf_counter()
    launch(src, args, extra)
    return 1e3 * (time.perf_counter() - t0)


def launches(trees: dict, rounds: int, tmp: str) -> int:
    copies = {}
    for side, src in trees.items():
        for cache in ("uncompiled", "compiled"):
            copies[side, cache] = dest = os.path.join(tmp, cache, side)
            shutil.copytree(os.path.join(src, "gdiscord"), os.path.join(dest, "gdiscord"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            if cache == "compiled":
                compileall.compile_dir(dest, quiet=1)
    runs = interleave(rounds, lambda side: {
        f"{name} {variant}": timed(copies[side, cache], args, extra)
        for variant, (cache, extra) in VARIANTS.items() for name, args in COMMANDS.items()})
    print("launches from an uncompiled copy, from one compiled with compileall, "
          "and from that one under python -S:")
    report(runs, "ms per launch")
    print(f"modules of {', '.join(MODULES)} imported (-X importtime, compiled copies, -S):")
    for name, args in COMMANDS.items():
        for side in SIDES:
            log = launch(copies[side, "compiled"], args, ("-S", "-X", "importtime")).stderr.decode()
            seen = {line.rsplit("|", 1)[1].strip() for line in log.splitlines() if "|" in line}
            # importlib.import_module, as gdiscord._numpy calls it, logs no line of its
            # own module: numpy shows through its submodules
            print(f"  {name:10s} {side:7s}", [m for m in MODULES if m in seen or any(
                s.startswith(m + ".") for s in seen)] or "none")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("layers", "launches"))
    parser.add_argument("before", metavar="BEFORE_SRC")
    parser.add_argument("after", metavar="AFTER_SRC")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--cpu", type=int, default=0)
    opts = parser.parse_args()
    if opts.rounds < 1:
        parser.error("--rounds must be at least 1")
    os.sched_setaffinity(0, {opts.cpu})  # children inherit the one CPU
    trees = {side: os.path.abspath(getattr(opts, side)) for side in SIDES}
    print(f"{opts.mode}: {opts.rounds} interleaved rounds on CPU {opts.cpu}")
    if opts.mode == "layers":
        return layers(trees, opts.rounds)
    with tempfile.TemporaryDirectory() as tmp:
        return launches(trees, opts.rounds, tmp)


if __name__ == "__main__":
    sys.exit(main())
