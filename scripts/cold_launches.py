"""Time cold launches of two gdiscord source trees, interleaved, on one CPU.

    python3 scripts/cold_launches.py BEFORE_SRC AFTER_SRC [--rounds 21] [--cpu 0]

Each ``*_SRC`` is a ``src`` directory holding ``gdiscord``.  The script copies
both trees twice into a temporary directory: one pair without bytecode, one
pair compiled with ``compileall``.  For each pair it launches the three cold
commands of the benchmark (``classify``, ``discord``, ``decompose``) and
``condition`` from both trees, ``--rounds`` times, alternating which tree
goes first, and prints each command's median wall time per tree and the
median of the per-round savings.  Children run with ``PYTHONDONTWRITEBYTECODE=1``, so the uncompiled
copies stay without bytecode.  Last, it lists the modules of ``MODULES``
that ``-X importtime`` shows each command importing, per tree.
"""

import argparse
import compileall
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

COMMANDS = {
    "classify": ["classify", "--tau", "0.5", "--eta", "0.6"],
    "discord": ["discord", "--normal-form", "5,2,2.449489743,-2.449489743"],
    "decompose": ["decompose", "--normal-form", "2,2,1,1"],
    "condition": ["condition", "--state", '{"normal_form": {"a": 2, "b": 2, "c": 1, "cp": -1}}',
                  "--measurement", '{"u": 1}'],
}
MODULES = ("dataclasses", "inspect", "numpy", "gdiscord.symplectic")


def launch(src: str, args: list, extra=()) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *extra, "-m", "gdiscord.cli", *args], env=env,
                          capture_output=True, check=True)


def timed(src: str, args: list) -> float:
    t0 = time.perf_counter()
    launch(src, args)
    return 1e3 * (time.perf_counter() - t0)


def compare(trees: dict, rounds: int) -> None:
    for name, args in COMMANDS.items():
        ms = {side: [] for side in trees}
        for i in range(rounds):
            for side in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
                ms[side].append(timed(trees[side], args))
        before, after = ms.values()
        saving = statistics.median(b - a for b, a in zip(before, after))
        print(f"  {name:10s}" + "".join(f" {side} {statistics.median(v):6.1f} ms" for side, v in ms.items())
              + f"  saving per launch {saving:+.1f} ms")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--rounds", type=int, default=21)
    parser.add_argument("--cpu", type=int, default=0)
    opts = parser.parse_args()
    os.sched_setaffinity(0, {opts.cpu})  # children inherit the one CPU
    with tempfile.TemporaryDirectory() as tmp:
        for cache in ("no bytecode cache", "compileall bytecode cache"):
            trees = {}
            for side in ("before", "after"):
                trees[side] = os.path.join(tmp, cache.split()[0], side)
                shutil.copytree(os.path.join(getattr(opts, side), "gdiscord"),
                                os.path.join(trees[side], "gdiscord"),
                                ignore=shutil.ignore_patterns("__pycache__"))
                if cache.startswith("compileall"):
                    compileall.compile_dir(trees[side], quiet=1)
            print(f"{cache}, {opts.rounds} interleaved rounds, CPU {opts.cpu}, median:")
            compare(trees, opts.rounds)
        print(f"modules of {', '.join(MODULES)} imported (-X importtime):")
        for name, args in COMMANDS.items():
            for side, tree in trees.items():
                log = launch(tree, args, ("-X", "importtime")).stderr.decode()
                seen = {line.rsplit("|", 1)[1].strip() for line in log.splitlines() if "|" in line}
                # importlib.import_module, as gdiscord._numpy calls it, logs no line of its
                # own module: numpy shows through its submodules
                print(f"  {name:10s} {side:7s}", [m for m in MODULES if m in seen or any(
                    s.startswith(m + ".") for s in seen)] or "none")


if __name__ == "__main__":
    main()
