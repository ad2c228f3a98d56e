"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

It runs every workload for one second, untraced and traced, and checks the
result line against BENCHMARK.json.  It also pins the sampler CSV, checks
that a known hanging input costs one failed operation and no more, that a
discord-cm seed repeats its attempted and failed counts, and that the
benchmark refuses to run without the source tree.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# ROADMAP P0 repro: bona fide (nu_min = 1.242), but the numeric route's
# golden-section search never terminates on it.
HANGING_CM = [
    [2.2996542582770254, 0, 0.4390670376374667, 0.2851396594617031],
    [0, 4.201636650263561, -0.01036061669447979, -0.7944371156548117],
    [0.4390670376374667, -0.01036061669447979, 1.8493232464685119, 0],
    [0.2851396594617031, -0.7944371156548117, 0, 1.031639623501059],
]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    out = _run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_discord_cm_counts_repeat_for_a_seed():
    counts = []
    for _ in range(2):
        out = _run("--workload", "discord-cm", "--seed", "3", "--seconds", "2", "--trace", "0")
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        counts.append((result["attempted"], result["failed"]))
    assert counts[0] == counts[1]


def test_inputs_repeat_for_a_seed():
    rows = [inputs.normal_forms(np.random.default_rng(3), 50) for _ in range(2)]
    assert harness.digest(rows[0]) == harness.digest(rows[1])
    assert (inputs.nu_min(*rows[0].T) >= 1.0).all()


def test_sampler_csv_pin():
    path = harness.SCRATCH / "pin.csv"
    try:
        code, _out, err, _secs, _rss = harness.run_child(harness.cli_args(
            "sample", "--a", "2", "--b", "2", "--n", "200000", "--seed", "42", "--out", str(path)),
            harness.SAMPLE_TIMEOUT_S)
        assert code == 0, err
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == "22e1583402593166"
    finally:
        path.unlink(missing_ok=True)


def test_hanging_state_is_one_failed_op_within_the_deadline():
    V = np.array(HANGING_CM)
    ledger = workloads.Ledger()
    status, secs, _ = workloads._guarded(lambda: workloads.ops.discord_op(V, harness.direct))
    assert status == "deadline"
    assert secs < harness.CALL_DEADLINE_S + 0.5
    ledger.fail(status)
    assert (ledger.attempted, ledger.failed, ledger.correct) == (1, 1, True)


def test_refuses_to_run_without_the_source_tree():
    bare = harness.SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = _run("--workload", "discord-nf", "--seed", "1", "--seconds", "1", "--trace", "0",
                   cwd=bare)
        assert out.returncode != 0
        assert '"metrics"' not in out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
