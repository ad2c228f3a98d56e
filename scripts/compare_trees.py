"""Compare two gdiscord source trees, interleaved on one CPU: per-state layers or cold launches.

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

``layers`` times each layer of the ``gdiscord discord`` pipeline in process,
one child per tree and round, as the best of ``PASSES`` passes over the
benchmark's own inputs: the 1,600 normal forms of discord-nf and the 900
CMs in local frames of discord-cm that a 25-second seed-1 run draws, made
with ``perfbench/inputs.py`` as ``perfbench/workloads.py`` makes them.  The
layers are

    validate_bona_fide, normal_form_from_cm, membership,
    gaussian_discord_closed_form, gaussian_discord_numeric,
    discord_report_to_dict

and each one past the CM layers reads the outputs of the layers it follows.
Last it prints a sha256 of every output of each tree (each record's
``repr``, each exception's type and message), and exits 1 when they differ.

``launches`` copies both trees twice, once without bytecode and once
compiled with ``compileall``, and times fresh-interpreter launches of
``classify``, ``discord``, ``decompose`` and ``condition`` from each copy;
children run with ``PYTHONDONTWRITEBYTECODE=1``, so the uncompiled copies
stay so.  Last it lists the modules of ``MODULES`` that ``-X importtime``
shows each command importing, per tree.
"""

import argparse
import compileall
import hashlib
import json
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
# discord-nf and discord-cm draw 64 and 36 states per second of a run
STATES = {"discord-nf": 1600, "discord-cm": 900}
SEED = 1
PASSES = 9
LAYERS = ("validate_bona_fide", "normal_form_from_cm", "membership",
          "gaussian_discord_closed_form", "gaussian_discord_numeric", "discord_report_to_dict")
FEEDS = {"membership": ("normal_form_from_cm",), "gaussian_discord_closed_form": ("membership",),
         "discord_report_to_dict": ("gaussian_discord_numeric", "gaussian_discord_closed_form")}
COMMANDS = {
    "classify": ["classify", "--tau", "0.5", "--eta", "0.6"],
    "discord": ["discord", "--normal-form", "5,2,2.449489743,-2.449489743"],
    "decompose": ["decompose", "--normal-form", "2,2,1,1"],
    "condition": ["condition", "--state", '{"normal_form": {"a": 2, "b": 2, "c": 1, "cp": -1}}',
                  "--measurement", '{"u": 1}'],
}
CACHES = ("uncompiled", "compiled")
MODULES = ("dataclasses", "inspect", "numpy", "gdiscord.symplectic")


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
    print(f"  {'median ' + unit:40s} {'before':>9s} {'after':>9s} {'saving':>9s} {'won':>6s} "
          f"{'IQR before':>10s}")
    for key in runs["before"][0]:
        before, after = ([run[key] for run in runs[side]] for side in SIDES)
        q1, _, q3 = statistics.quantiles(before, n=4, method="inclusive") if n > 1 else before * 3
        saving = statistics.median(b - a for b, a in zip(before, after))
        won = sum(a < b for b, a in zip(before, after))
        print(f"  {key:40s} {statistics.median(before):9.2f} {statistics.median(after):9.2f} "
              f"{saving:+9.2f} {won:3d}/{n:<2d} {q3 - q1:10.2f}")


def draw_inputs() -> dict:
    """The benchmark's seed-1 discord inputs as CMs in nested lists, drawn by perfbench's code."""
    sys.dont_write_bytecode = True  # perfbench/ is read, never written
    sys.path.insert(0, PERFBENCH)
    import inputs
    import numpy as np

    drawn = {}
    for name, n in STATES.items():
        rng = np.random.default_rng([SEED, 1 if name == "discord-cm" else 0])
        nfs = inputs.normal_forms(rng, n)
        if name == "discord-nf":
            cms = [inputs.normal_form_matrix(row) for row in nfs]
        else:
            syms = inputs.local_symplectics(rng, n)
            cms = [inputs.transformed_cm(row, sym) for row, sym in zip(nfs, syms)]
        drawn[name] = [V.tolist() for V in cms]
    return drawn


def child(path: str) -> None:
    """Time every layer on every input set; print {"us": {...}, "digest": ...} as JSON."""
    import numpy as np

    from gdiscord.discord import gaussian_discord_closed_form, gaussian_discord_numeric
    from gdiscord.errors import GDiscordError
    from gdiscord.family import membership
    from gdiscord.serialize import discord_report_to_dict
    from gdiscord.symplectic import normal_form_from_cm, validate_bona_fide

    funcs = dict(zip(LAYERS, (validate_bona_fide, normal_form_from_cm, membership,
                              gaussian_discord_closed_form, gaussian_discord_numeric,
                              discord_report_to_dict)))
    with open(path) as f:
        drawn = json.load(f)
    sha = hashlib.sha256()
    us = {}
    for name, rows in drawn.items():
        cms = [np.array(V) for V in rows]
        outputs = {}
        for layer in LAYERS:
            # a layer past the CM ones reads the outputs of the layers it follows, errors left out
            xs = [x for prior in FEEDS[layer] for x in outputs[prior]
                  if not isinstance(x, str)] if layer in FEEDS else cms
            fn = funcs[layer]
            outputs[layer] = out = []
            for x in xs:
                try:
                    out.append(fn(x))
                except GDiscordError as exc:
                    out.append(f"{type(exc).__name__}: {exc}")
            sha.update(repr(out).encode())
            best = float("inf")
            for _ in range(PASSES):
                t0 = time.perf_counter()
                for x in xs:
                    try:
                        fn(x)
                    except GDiscordError:
                        pass
                best = min(best, time.perf_counter() - t0)
            us[f"{layer} {name}"] = 1e6 * best / max(len(xs), 1)
    print(json.dumps({"us": us, "digest": sha.hexdigest()}))


def layers(trees: dict, rounds: int, tmp: str) -> int:
    path = os.path.join(tmp, "inputs.json")
    with open(path, "w") as f:
        json.dump(draw_inputs(), f)
    env = {side: dict(os.environ, PYTHONPATH=os.pathsep.join([src, HERE]),
                      PYTHONDONTWRITEBYTECODE="1") for side, src in trees.items()}
    runs = interleave(rounds, lambda side: json.loads(subprocess.run(
        [sys.executable, "-c", f"import compare_trees; compare_trees.child({path!r})"],
        env=env[side], stdout=subprocess.PIPE, check=True, text=True).stdout))
    print(f"best of {PASSES} passes per round:")
    report({side: [run["us"] for run in runs[side]] for side in SIDES}, "us per call")
    digests = {side: {run["digest"] for run in runs[side]} for side in SIDES}
    for side, seen in digests.items():
        print(f"  sha256 of every output, {side}: {', '.join(sorted(seen))}")
    if digests["before"] != digests["after"] or len(digests["before"]) != 1:
        print("outputs differ between the trees")
        return 1
    return 0


def launch(src: str, args: list, extra=()) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *extra, "-m", "gdiscord.cli", *args], env=env,
                          capture_output=True, check=True)


def timed(src: str, args: list) -> float:
    t0 = time.perf_counter()
    launch(src, args)
    return 1e3 * (time.perf_counter() - t0)


def launches(trees: dict, rounds: int, tmp: str) -> int:
    copies = {}
    for side, src in trees.items():
        for cache in CACHES:
            copies[side, cache] = dest = os.path.join(tmp, cache, side)
            shutil.copytree(os.path.join(src, "gdiscord"), os.path.join(dest, "gdiscord"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            if cache == "compiled":
                compileall.compile_dir(dest, quiet=1)
    runs = interleave(rounds, lambda side: {f"{name} {cache}": timed(copies[side, cache], args)
                                            for cache in CACHES for name, args in COMMANDS.items()})
    print("launches from an uncompiled copy and from one compiled with compileall:")
    report(runs, "ms per launch")
    print(f"modules of {', '.join(MODULES)} imported (-X importtime, compiled copies):")
    for name, args in COMMANDS.items():
        for side in SIDES:
            log = launch(copies[side, "compiled"], args, ("-X", "importtime")).stderr.decode()
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
    with tempfile.TemporaryDirectory() as tmp:
        return (layers if opts.mode == "layers" else launches)(trees, opts.rounds, tmp)


if __name__ == "__main__":
    sys.exit(main())
