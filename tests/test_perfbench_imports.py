"""The benchmark's modules import against this tree.

``perfbench/`` imports gdiscord names directly, so deleting or renaming one
would otherwise show only as a failed benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IMPORTS = """\
import sys
sys.path[:0] = sys.argv[1:]
import gdiscord, ops, inputs, harness, workloads, child
assert gdiscord.__file__.startswith(sys.argv[1]), gdiscord.__file__
"""


def test_benchmark_modules_import_from_src():
    res = subprocess.run(
        [sys.executable, "-c", IMPORTS, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
