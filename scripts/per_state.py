"""Time the per-state layers of two gdiscord source trees, interleaved, on one CPU.

    python3 scripts/per_state.py BEFORE_SRC AFTER_SRC [--rounds 7] [--cpu 0]

Each ``*_SRC`` is a ``src`` directory holding ``gdiscord``.  The inputs are
the seeded normal forms of ``tests/states.py`` (``classed_normal_forms``:
squeezed-thermal, family, out-of-family and symmetric states), as CMs, and
the same states under a ``local_symplectic`` frame each; they are drawn once,
with this repository's own ``src``, so both trees read the same numbers.
Each round runs one child process per tree, alternating which goes first;
a child times each layer of the ``gdiscord discord`` pipeline in process,
on each input set, as the best of ``PASSES`` passes:

    validate_bona_fide, normal_form_from_cm, membership,
    gaussian_discord_closed_form, gaussian_discord_numeric,
    discord_report_to_dict

The script prints each layer's median microseconds per call per tree and the
median of the per-round savings, then a sha256 of every output of each tree
(each record's ``repr``, each exception's type and message).  It exits 1
when the two digests differ.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATES_PER_CLASS = 100  # 400 normal forms, and as many CMs in local frames
SEED = 35
PASSES = 9
LAYERS = ("validate_bona_fide", "normal_form_from_cm", "membership",
          "gaussian_discord_closed_form", "gaussian_discord_numeric", "discord_report_to_dict")
FEEDS = {"membership": ("normal_form_from_cm",), "gaussian_discord_closed_form": ("membership",),
         "discord_report_to_dict": ("gaussian_discord_numeric", "gaussian_discord_closed_form")}


def draw_inputs() -> dict:
    """{"nf": CMs of the seeded normal forms, "cm": the same under local frames}, as nested lists."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import numpy as np
    from states import classed_normal_forms, local_symplectic

    from gdiscord import embed_normal_form

    rng = np.random.default_rng(SEED)
    cms = [embed_normal_form(nf) for nf in classed_normal_forms(rng, STATES_PER_CLASS)]
    framed = []
    for V in cms:
        S = local_symplectic(rng)
        framed.append(S @ V @ S.T)
    return {"nf": [V.tolist() for V in cms], "cm": [V.tolist() for V in framed]}


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
        inputs = json.load(f)
    sha = hashlib.sha256()
    us = {}
    for kind, rows in inputs.items():
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
            us[f"{layer} {kind}"] = 1e6 * best / max(len(xs), 1)
    print(json.dumps({"us": us, "digest": sha.hexdigest()}))


def run_child(src: str, path: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", path],
                         env=env, capture_output=True, check=True, text=True).stdout
    return json.loads(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before", nargs="?")
    parser.add_argument("after", nargs="?")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--cpu", type=int, default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    opts = parser.parse_args()
    if opts.child:
        child(opts.child)
        return 0
    if not (opts.before and opts.after):
        parser.error("BEFORE_SRC and AFTER_SRC are required")
    os.sched_setaffinity(0, {opts.cpu})  # children inherit the one CPU
    trees = {"before": os.path.abspath(opts.before), "after": os.path.abspath(opts.after)}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inputs.json")
        with open(path, "w") as f:
            json.dump(draw_inputs(), f)
        runs = {side: [] for side in trees}
        for i in range(opts.rounds):
            for side in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
                runs[side].append(run_child(trees[side], path))
    print(f"{opts.rounds} interleaved rounds, CPU {opts.cpu}, best of {PASSES} passes, "
          "median us per call:")
    for key in runs["before"][0]["us"]:
        before, after = ([run["us"][key] for run in runs[side]] for side in trees)
        saving = statistics.median(b - a for b, a in zip(before, after))
        print(f"  {key:34s} before {statistics.median(before):8.2f}  after "
              f"{statistics.median(after):8.2f}  saving {saving:+7.2f}")
    digests = {side: {run["digest"] for run in runs[side]} for side in trees}
    for side, seen in digests.items():
        print(f"  sha256 of every output, {side}: {', '.join(sorted(seen))}")
    if digests["before"] != digests["after"] or len(digests["before"]) != 1:
        print("outputs differ between the trees")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
