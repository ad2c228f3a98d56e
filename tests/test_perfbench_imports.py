"""The benchmark's modules import against this tree, and its child process
calls ``gdiscord.cli.main`` the way it expects.

``perfbench/`` imports gdiscord names directly and calls ``main`` with its own
keywords, so deleting or renaming one would otherwise show only as a failed
benchmark run.  ``scripts/compare_trees.py`` in turn runs the benchmark's
discord operation on its inputs, so the names it reads from ``perfbench/``
are checked here too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IMPORTS = """\
import sys
sys.path[:0] = sys.argv[1:]
import gdiscord, ops, inputs, harness, workloads, child, compare_trees
assert gdiscord.__file__.startswith(sys.argv[1]), gdiscord.__file__
assert callable(workloads._discord_inputs) and callable(ops.discord_op) and callable(harness.direct)
assert set(workloads.DISCORD_STATES_PER_S) == {"nf", "cm"}, workloads.DISCORD_STATES_PER_S
"""


def test_benchmark_modules_import_from_src():
    res = subprocess.run(
        [sys.executable, "-c", IMPORTS, str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "scripts")],
        capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr


def run_child(cwd, *args):
    """``perfbench/child.py <args>`` against this tree's ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


def test_child_cli_cold_setup_calls_main(tmp_path):
    res = run_child(tmp_path, "setup", "cli-cold")
    assert res.returncode == 0, res.stderr


def test_child_cli_launch_runs_a_command(tmp_path):
    res = run_child(tmp_path, "cli", "classify", "--tau", "0.5", "--eta", "0.6")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["label"] == "C_lossy"
