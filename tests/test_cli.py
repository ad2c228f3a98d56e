import ast
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gdiscord
from gdiscord import (FamilyParams, NormalFormCM, embed_normal_form, epr_cm, family_cm_from_params, h,
                      rotation_matrix, squeezer_matrix)
from gdiscord import GaussianMeasurement, cli, condition_on_outcome, conditioning_on_mode_A, symplectic
from gdiscord.serialize import conditional_state_to_dict, dumps, round12
from gdiscord.discord import ROUTE_GAP_BOUND
from states import (BOUNDARY_SQUEEZED_THERMAL_NF, CANCELLING_NF, EXTREME_VALUES, NEGATIVE_DISCORD_NF,
                    WORKED_CM, classed_normal_forms, local_frame, seeded_states)

# the source tree that the subprocess tests run, and an environment that imports it
SRC = str(Path(gdiscord.__file__).resolve().parents[1])
SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))

WORKED_DISCORD_OUTPUT = """\
{
  "numeric": {
    "s_a": 2.75488750216,
    "s_b": 1.37744375108,
    "s_ab": 2.42737648606,
    "i_ab": 1.70495476719,
    "s_min_cond": 1.99999999982,
    "classical_corr": 0.754887502341,
    "discord": 0.950067264846,
    "method": "numeric_scan",
    "u_opt": 1.0,
    "phi_opt": 0.0
  },
  "closed_form": {
    "s_a": 2.75488750247,
    "s_b": 1.37744375108,
    "s_ab": 2.42737648653,
    "i_ab": 1.70495476703,
    "s_min_cond": 2.00000000035,
    "classical_corr": 0.75488750212,
    "discord": 0.950067264908,
    "method": "closed_form"
  },
  "agreement_delta": 6.14175377223e-11,
  "in_family": true
}
"""


def rotated_worked_state(theta=0.3):
    """The worked state V(5, 2, sqrt 6, -sqrt 6) rotated by theta on both modes, as --state JSON."""
    R = local_frame(rotation_matrix(theta), rotation_matrix(theta))
    return json.dumps({"cm": (R @ WORKED_CM @ R.T).tolist()})


def squeezed_epr_state(b, frame):
    """epr_cm(b) under a rotated squeezer on each mode, as --state JSON.

    ``frame`` is (theta_A, r_A, theta_B, r_B).
    """
    S = local_frame(rotation_matrix(frame[0]) @ squeezer_matrix(frame[1]),
                    rotation_matrix(frame[2]) @ squeezer_matrix(frame[3]))
    return json.dumps({"cm": (S @ epr_cm(b) @ S.T).tolist()})


# local frames of a pure state; the degenerate spectrum leaves the
# discriminant of the reduced normal form at rounding of either sign
EPR_FRAMES = [(0.3, 2.0, 1.1, 0.5), (0.7, 3.0, 2.0, 1.5), (1.3, 0.25, 0.4, 4.0)]


class TestDiscordCommand:
    def test_worked_state(self, run_cli):
        res = run_cli([
            "discord", "--normal-form", "5,2,2.449489743,-2.449489743",
        ])
        assert res.exit_code == 0
        out = json.loads(res.stdout)
        assert out["in_family"] is True
        assert abs(out["numeric"]["discord"] - 0.950067) < 1e-6
        assert abs(out["closed_form"]["discord"] - 0.950067) < 1e-6
        assert out["agreement_delta"] < 1e-6

    def test_rotated_state_reaches_closed_form(self, run_cli):
        res = run_cli(["discord", "--state", rotated_worked_state()])
        assert res.exit_code == 0
        out = json.loads(res.stdout)
        assert out["in_family"] is True
        assert out["agreement_delta"] <= 1e-9
        assert abs(out["closed_form"]["discord"] - 0.950067) < 1e-6

    @pytest.mark.parametrize("b", [1.5, 2.0, 10.0])
    def test_squeezed_epr_state_reaches_closed_form(self, run_cli, b):
        for frame in EPR_FRAMES:
            res = run_cli(["discord", "--state", squeezed_epr_state(b, frame)])
            assert res.exit_code == 0, (frame, res.stderr)
            out = json.loads(res.stdout)
            assert out["in_family"] is True
            assert abs(out["numeric"]["discord"] - h(b)) < 1e-10  # a pure state: D = S(A)
            assert out["agreement_delta"] <= 1e-10

    def test_state_is_reduced_once(self, run_cli, monkeypatch):
        # validation, the numeric route and the closed form share one reduction
        calls = []
        reduce_rows = symplectic._reduce_rows
        monkeypatch.setattr(symplectic, "_reduce_rows",
                            lambda rows: calls.append(rows) or reduce_rows(rows))
        res = run_cli(["discord", "--state", rotated_worked_state()])
        assert res.exit_code == 0
        assert json.loads(res.stdout)["in_family"] is True
        assert len(calls) == 1

    def test_out_of_family_still_reports_numeric(self, run_cli):
        res = run_cli(["discord", "--normal-form", "2,2,1,-0.5"])
        assert res.exit_code == 0
        out = json.loads(res.stdout)
        assert out["in_family"] is False
        assert out["closed_form"] is None
        assert out["numeric"]["discord"] > 0

    def test_state_json_input(self, run_cli, tmp_path):
        payload = {"normal_form": {"a": 2, "b": 2, "c": 1, "cp": 1}}
        path = tmp_path / "state.json"
        path.write_text(json.dumps(payload))
        res = run_cli(["discord", "--state", str(path)])
        assert res.exit_code == 0
        assert abs(json.loads(res.stdout)["numeric"]["discord"] - 0.459148) < 1e-5

    def test_not_bona_fide_exits_2(self, run_cli):
        res = run_cli(["discord", "--normal-form", "2,2,2,-2"])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: validation:")

    def test_requires_exactly_one_input(self, run_cli):
        res = run_cli(["discord"])
        assert res.exit_code == 2

    def test_unknown_flag_is_error(self, run_cli):
        res = run_cli(["discord", "--bogus", "1"])
        assert res.exit_code == 2

    def test_below_tolerance_rejected_by_every_command(self, run_cli):
        # nu_min = 1 - 1e-8 is below the fixed 1e-9 validation tolerance
        state = json.dumps({"normal_form": {"a": 1.0 - 1e-8, "b": 1, "c": 0, "cp": 0}})
        for args in (["discord", "--state", state], ["decompose", "--state", state],
                     ["condition", "--state", state, "--measurement", '{"u": 1}']):
            res = run_cli(args)
            assert res.exit_code == 2, args
            assert res.stderr.startswith("error: validation:")

    def test_negative_definite_state_exits_2(self, run_cli):
        # -V has the symplectic spectrum of V; only positive definiteness tells them apart.
        # 1,1,1000,1.0001 has ab < c^2 and ab < cp^2 but det V > 0; the spectrum
        # formula reads nu_min = 0 there, which is no spectrum of it
        S = local_frame(squeezer_matrix(2.0) @ rotation_matrix(0.3), np.eye(2))
        for args in (["discord", "--state", json.dumps({"cm": (-2.0 * S @ S.T).tolist()})],
                     ["condition", "--state", json.dumps({"cm": (-2.0 * np.eye(4)).tolist()}),
                      "--measurement", '{"u": 1}'],
                     ["discord", "--normal-form", "1,1,1000,1.0001"],
                     ["decompose", "--normal-form", "1,1,1000,1.0001"],
                     ["discord", "--normal-form", "-0.5,-0.5,0,0"],
                     ["decompose", "--normal-form", "-1e-320,-1e-320,0,0"]):
            res = run_cli(args)
            assert res.exit_code == 2, args
            assert "not positive definite" in res.stderr

    def test_worked_state_output(self, run_cli):
        res = run_cli(["discord", "--normal-form", "5,2,2.449489743,-2.449489743"])
        assert res.output == WORKED_DISCORD_OUTPUT

    @pytest.mark.parametrize("state, s_a", [("1e16,1e16,0,0", 53.5935445591), ("1e8,3,0,0", 27.0181198)])
    def test_large_variance_entropy(self, run_cli, state, s_a):
        res = run_cli(["discord", "--normal-form", state])
        assert res.exit_code == 0
        assert json.loads(res.stdout)["numeric"]["s_a"] == s_a


    @pytest.mark.parametrize("state", ["2,1,1e-5,1e-5", "2,1,3e-5,-1e-5", "2,1,1e-5,-1e-5"])
    def test_vacuum_b_with_correlations_reports_numeric_only(self, run_cli, state):
        res = run_cli(["discord", "--normal-form", state])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["in_family"] is False
        assert payload["closed_form"] is None

    @pytest.mark.parametrize("nf", [pytest.param(CANCELLING_NF, id="cancelling")])
    def test_route_gap_is_one_warning_line(self, run_cli, nf):
        # the two routes disagree (ROADMAP items 12 and 17): stdout and the exit code
        # stay, and stderr names the gap
        res = run_cli(["discord", "--normal-form", ",".join(map(repr, nf))])
        assert res.exit_code == 0
        gap = json.loads(res.stdout)["agreement_delta"]
        assert gap > ROUTE_GAP_BOUND
        assert res.stderr == (f"warning: route-gap: the numeric and closed-form discords differ "
                              f"by {gap!r} bits, more than 1e-06\n")

    def test_bank_states_raise_no_route_gap_warning(self, run_cli):
        rng = np.random.default_rng(11)
        in_family = 0
        for nf in classed_normal_forms(rng, 100):
            res = run_cli(["discord", "--normal-form", ",".join(map(repr, map(float, nf)))])
            assert res.exit_code == 0 and res.stderr == "", (nf, res.stderr)
            in_family += json.loads(res.stdout)["in_family"]
        assert in_family == 300


class TestDecomposeCommand:
    def test_family_member(self, run_cli):
        res = run_cli(["decompose", "--normal-form", "5,2,2.449489742783178,-2.449489742783178"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert abs(out["tau"] - 2.0) < 1e-9
        assert abs(out["eta"] - 1.0) < 1e-9
        assert out["sign"] == 1

    def test_output(self, run_cli):
        res = run_cli(["decompose", "--normal-form", "2,2,1,1"])
        assert res.output == (
            '{\n  "b": 2.0,\n  "r": 1.0,\n  "tau": -0.333333333333,\n  "eta": 1.33333333333,\n'
            '  "sign": 1,\n  "xi": 1.0\n}\n'
        )

    def test_rotated_state(self, run_cli):
        res = run_cli(["decompose", "--state", rotated_worked_state()])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert (out["b"], out["r"], out["tau"], out["eta"], out["sign"]) == (2.0, 1.0, 2.0, 1.0, 1)

    @pytest.mark.parametrize("b", [1.5, 2.0, 10.0])
    def test_squeezed_epr_state(self, run_cli, b):
        # an EPR state is the identity channel on the EPR mode: tau = 1, eta = 0
        for frame in EPR_FRAMES:
            res = run_cli(["decompose", "--state", squeezed_epr_state(b, frame)])
            assert res.exit_code == 0, (frame, res.stderr)
            out = json.loads(res.output)
            assert out["b"] == pytest.approx(b, abs=1e-12)
            assert (out["tau"], out["sign"]) == (1.0, 1)
            assert out["eta"] <= 1e-12
            # with eta = 0 the state fixes no r; every frame reports r = xi = 1
            assert out["r"] == out["xi"] == 1.0, frame

    def test_out_of_family_exits_3(self, run_cli):
        res = run_cli(["decompose", "--normal-form", "2,2,1,-0.5"])
        assert res.exit_code == 3
        assert res.stderr.startswith("error: out-of-family:")

    @pytest.mark.parametrize("state", ["2,1,1e-5,1e-5", "2,1,3e-5,-1e-5", "2,1,1e-5,-1e-5"])
    def test_vacuum_b_with_correlations_exits_3(self, run_cli, state):
        res = run_cli(["decompose", "--normal-form", state])
        assert res.exit_code == 3
        assert res.stderr.startswith("error: out-of-family:")


class TestClassifyCommand:
    def test_lossy(self, run_cli):
        res = run_cli(["classify", "--tau", "0.5", "--eta", "0.6"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["label"] == "C_lossy"
        assert abs(out["omega"] - 1.2) < 1e-9
        assert abs(out["n_bar"] - 0.1) < 1e-9

    def test_output(self, run_cli):
        res = run_cli(["classify", "--tau", "0.5", "--eta", "0.6"])
        assert res.output == (
            '{\n  "label": "C_lossy",\n  "tau": 0.5,\n  "eta": 0.6,\n  "omega": 1.2,\n'
            '  "n_bar": 0.1,\n  "quantum_limited": false\n}\n'
        )

    def test_boundary_quantum_limited(self, run_cli):
        res = run_cli(["classify", "--tau", "2", "--eta", "1"])
        out = json.loads(res.output)
        assert out["label"] == "C_amplifier"
        assert out["quantum_limited"] is True

    @pytest.mark.parametrize("tau, eta", [("1.0000000001", "1e-9"), ("0.5", "0.5000000005"), ("1", "5e-10")])
    def test_near_boundary_is_not_quantum_limited(self, run_cli, tau, eta):
        # quantum_limited is true only where classify reads omega 1 and n_bar 0, or B2_identity
        out = json.loads(run_cli(["classify", "--tau", tau, "--eta", eta]).output)
        assert out["label"] == "B2_additive" or out["n_bar"] > 0.0
        assert out["quantum_limited"] is False

    def test_invalid_params_exit_2(self, run_cli):
        res = run_cli(["classify", "--tau", "0.5", "--eta", "0.1"])
        assert res.exit_code == 2


class TestSampleCommand:
    def test_csv_and_grid(self, run_cli, tmp_path):
        csv_path = tmp_path / "points.csv"
        grid_path = tmp_path / "grid.json"
        res = run_cli([
            "sample", "--a", "2", "--b", "2", "--n", "2000", "--seed", "42",
            "--out", str(csv_path), "--grid-out", str(grid_path), "--bins", "50",
        ])
        assert res.exit_code == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "a,b,c,cp,r,tau,eta,sign"
        assert len(lines) == 2001
        grid = json.loads(grid_path.read_text())
        assert len(grid["grid"]) == 50
        assert grid["redraws"] == 0
        assert 0 < grid["coverage_fraction"] < 1

    def test_byte_identical_runs(self, run_cli, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path, threads in zip(paths, ("1", "3")):
            res = run_cli([
                "sample", "--a", "2", "--b", "4", "--n", "5000", "--seed", "7",
                "--threads", threads, "--out", str(path),
            ])
            assert res.exit_code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_stdout_bytes_equal_file_bytes(self, run_cli, tmp_path):
        # 70,000 points span two sampler chunks
        path = tmp_path / "points.csv"
        args = ["sample", "--a", "2", "--b", "3", "--n", "70000", "--seed", "8"]
        to_file = run_cli(args + ["--threads", "1", "--out", str(path)])
        to_stdout = run_cli(args + ["--threads", "2"])
        assert to_file.exit_code == 0 and to_stdout.exit_code == 0
        assert to_stdout.stdout_bytes == path.read_bytes()

    def test_grid_and_csv_digest_pins(self, run_cli, tmp_path):
        csv_path, grid_path = tmp_path / "points.csv", tmp_path / "grid.json"
        args = ["sample", "--a", "2.5", "--b", "1.5", "--n", "20000", "--seed", "3"]
        to_file = run_cli(args + ["--out", str(csv_path), "--grid-out", str(grid_path),
                                         "--bins", "60"])
        to_stdout = run_cli(args)
        assert to_file.exit_code == 0 and to_stdout.exit_code == 0
        assert to_stdout.stdout_bytes == csv_path.read_bytes()
        digest = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in (csv_path, grid_path)}
        assert digest == {"points.csv": "da83ed773fad5fb2", "grid.json": "239b01410f5636bb"}

    def test_degenerate_grid_digest_pin(self, run_cli, tmp_path):
        # a = 1 leaves no correlations: the grid spans one point and holds no physical cell
        grid_path = tmp_path / "grid.json"
        res = run_cli(["sample", "--a", "1", "--b", "3", "--n", "5", "--seed", "0",
                              "--bins", "3", "--grid-out", str(grid_path)])
        assert res.exit_code == 0
        assert json.loads(grid_path.read_text())["extent"] == [0.0, 0.0]
        assert hashlib.sha256(grid_path.read_bytes()).hexdigest()[:16] == "f1ea73870dce0548"

    def test_stdout_output(self, run_cli):
        res = run_cli(["sample", "--a", "1.5", "--b", "1.5", "--n", "3", "--seed", "0"])
        assert res.exit_code == 0
        assert res.output.startswith("a,b,c,cp,r,tau,eta,sign\n")
        assert len(res.output.strip().split("\n")) == 4

    def test_threads_are_capped_at_the_usable_cpus(self, run_cli, monkeypatch):
        # n = 10 is one sampler chunk, so no thread starts whatever the count
        import gdiscord.family

        asked = []
        real = gdiscord.family.sample_family
        monkeypatch.setattr(gdiscord.family, "sample_family",
                            lambda *args, threads: asked.append(threads) or real(*args, threads=threads))
        for threads in ("1", "1000000"):
            res = run_cli(["sample", "--a", "2", "--b", "2", "--n", "10", "--threads", threads])
            assert res.exit_code == 0
        assert asked == [1, cli._usable_cpus()]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this OS")
    def test_threads_on_one_usable_cpu_start_no_pool(self, tmp_path):
        # 70,000 points span two sampler chunks: a pool would have work to split
        args = ["sample", "--a", "2", "--b", "3", "--n", "70000", "--seed", "8"]
        res = subprocess.run([sys.executable, "-c", PINNED_CLI, SRC, *args, "--threads", "2"],
                             cwd=tmp_path, capture_output=True, timeout=30)
        code, *modules = res.stderr.decode().split()
        assert res.returncode == 0 and code == "0", res.stderr
        assert "concurrent.futures" not in modules
        ref = run_module_cli(args + ["--threads", "1"], tmp_path)
        assert ref.returncode == 0 and res.stdout == ref.stdout

    def test_reader_closing_the_pipe_is_a_success(self, tmp_path):
        # `sample ... | head -1`: 16 MB of rows cannot fit the pipe, so the
        # reader closes it while sample is still writing
        args = ["sample", "--a", "2", "--b", "2", "--n", "200000", "--seed", "1"]
        with subprocess.Popen([sys.executable, "-m", "gdiscord.cli", *args], cwd=tmp_path,
                              env=SRC_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"a,b,c,cp,r,tau,eta,sign\n"
            proc.stdout.close()
            stderr = proc.stderr.read()
            code = proc.wait(timeout=30)
        assert (code, stderr) == (0, b"")

    @pytest.mark.parametrize("args, code", [
        (["sample", "--a", "2", "--b", "2", "--n", "10"], 0),
        (["classify", "--tau", "0.5", "--eta", "0.6"], 1),
    ], ids=["sample", "classify"])
    def test_closed_stdout_ends_without_a_traceback(self, args, code, tmp_path):
        # a reader may take part of the sample CSV; a JSON result it never reads is lost
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            res = subprocess.run([sys.executable, "-m", "gdiscord.cli", *args], cwd=tmp_path,
                                 env=SRC_ENV, stdout=write_end, stderr=subprocess.PIPE, timeout=30)
        finally:
            os.close(write_end)
        assert (res.returncode, res.stderr) == (code, b"")


class TestConditionCommand:
    def test_epr_heterodyne(self, run_cli):
        V = embed_normal_form(NormalFormCM(2, 2, math.sqrt(3), -math.sqrt(3)))
        res = run_cli([
            "condition",
            "--state", json.dumps({"cm": V.tolist()}),
            "--measurement", json.dumps({"u": 1.0, "phi": 0.0}),
            "--outcome", "1,0.5",
        ])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert np.allclose(out["cm"], np.eye(2), atol=1e-9)
        expect = (math.sqrt(3) / 3) * np.array([1.0, -0.5])
        assert np.allclose(out["mean"], expect, atol=1e-9)

    def test_homodyne_tag(self, run_cli):
        V = embed_normal_form(NormalFormCM(3, 3, math.sqrt(8), -math.sqrt(8)))
        res = run_cli([
            "condition",
            "--state", json.dumps({"normal_form": {"a": 3, "b": 3, "c": math.sqrt(8), "cp": -math.sqrt(8)}}),
            "--measurement", json.dumps({"u": "inf"}),
        ])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert np.allclose(out["cm"], np.diag([3.0, 1 / 3.0]), atol=1e-9)

    def test_mode_a(self, run_cli):
        res = run_cli([
            "condition",
            "--state", json.dumps({"normal_form": {"a": 5, "b": 2, "c": 2.449489742783178, "cp": -2.449489742783178}}),
            "--measurement", json.dumps({"u": 1.0}),
            "--mode", "A",
        ])
        assert res.exit_code == 0
        out = json.loads(res.output)
        # B-mode conditional CM: b - c^2/(a+1) on the diagonal
        assert np.allclose(out["cm"], np.diag([1.0, 1.0]), atol=1e-9)

    @pytest.mark.parametrize("state, phi", [
        ('{"normal_form": {"a": 2, "b": 2, "c": 1, "cp": -1}}', 0.0),
        ('{"normal_form": {"a": 3, "b": 2, "c": 1.5, "cp": -0.7}}', 0.3),
    ], ids=["condition-state", "correlated-phi"])
    def test_huge_u_is_the_homodyne_limit(self, run_cli, state, phi):
        outs = [run_cli(["condition", "--state", state, "--outcome", "0.4,-0.2",
                                "--measurement", json.dumps({"u": u, "phi": phi})])
                for u in (1e308, "inf")]
        assert [r.exit_code for r in outs] == [0, 0]
        huge, limit = (json.loads(r.output) for r in outs)
        for key in ("mean", "cm"):  # u = 1e308 shifts the mean by O(1/u), a subnormal
            np.testing.assert_allclose(huge[key], limit[key], rtol=1e-15, atol=1e-300)

    @pytest.mark.parametrize("mode, view", [("B", condition_on_outcome), ("A", conditioning_on_mode_A)])
    def test_prints_what_the_library_views_return(self, run_cli, mode, view):
        rng = np.random.default_rng(48)
        for V in seeded_states(rng, 30):
            m = {"u": 10 ** rng.uniform(-2, 2), "phi": rng.uniform(0, math.pi)}
            k, mean = rng.normal(0, 3, 2).tolist(), rng.normal(0, 3, 4).tolist()
            res = run_cli(["condition", "--state", json.dumps({"cm": V.tolist()}),
                           "--measurement", json.dumps(m), "--outcome", ",".join(map(repr, k)),
                           "--mean", ",".join(map(repr, mean)), "--mode", mode])
            assert res.exit_code == 0, res.stderr
            state = view(V, mean, GaussianMeasurement(**m), k)
            assert res.stdout_bytes == dumps(conditional_state_to_dict(state)).encode()

    def test_malformed_json_exit_2(self, run_cli):
        res = run_cli([
            "condition", "--state", "{not json", "--measurement", '{"u": 1}',
        ])
        assert res.exit_code == 2


CONDITION_STATE = '{"normal_form": {"a": 2, "b": 2, "c": 1, "cp": -1}}'

# each runs in its own interpreter under a timeout, so a hang fails the test
# instead of stalling the suite
HOSTILE_INPUTS = [
    pytest.param(["sample", "--a", "nan", "--b", "2", "--n", "3"], 2, id="sample-nan-a"),
    pytest.param(["sample", "--a", "2", "--b", "inf", "--n", "3"], 2, id="sample-inf-b"),
    pytest.param(["sample", "--a", "1e160", "--b", "3", "--n", "3"], 4, id="sample-overflow"),
    pytest.param(["sample", "--a", "2", "--b", "2", "--n", "3", "--bins", "0", "--grid-out", "g.json"], 2,
                 id="sample-bins-0"),
    pytest.param(["discord", "--normal-form", "nan,2,0,0"], 2, id="discord-nan"),
    pytest.param(["decompose", "--normal-form", "2,2,nan,0"], 2, id="decompose-nan"),
    pytest.param(["decompose", "--normal-form", "1e160,1e160,1e159,1e159"], 4, id="decompose-overflow"),
    pytest.param(["condition", "--state", CONDITION_STATE, "--measurement", '{"u": 1}', "--outcome", "nan,0"], 2,
                 id="condition-nan-outcome"),
    pytest.param(["condition", "--state", CONDITION_STATE, "--measurement", '{"u": 1}', "--mean", "0,0,inf,0"], 2,
                 id="condition-inf-mean"),
    pytest.param(["condition", "--state", CONDITION_STATE, "--measurement", '{"u": 1, "phi": "inf"}'], 2,
                 id="condition-inf-phi"),
    pytest.param(["sample", "--a", "2", "--b", "2", "--n", "3", "--threads", "0"], 2, id="sample-threads-0"),
    pytest.param(["sample", "--a", "2", "--b", "2", "--n", "3", "--threads", "-3"], 2,
                 id="sample-threads-negative"),
    # JSON integers past the float range, which float() refuses with OverflowError
    pytest.param(["discord", "--state", '{"cm": [[1%s, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}'
                  % ("0" * 400)], 2, id="discord-huge-int-cm"),
    pytest.param(["discord", "--state", '{"normal_form": {"a": 1%s, "b": 2, "c": 0, "cp": 0}}' % ("0" * 400)], 2,
                 id="discord-huge-int-normal-form"),
    pytest.param(["condition", "--state", CONDITION_STATE, "--measurement", '{"u": 1%s}' % ("0" * 400)], 2,
                 id="condition-huge-int-u"),
    # past the 4,300-digit limit of int(), which json.loads then raises as a ValueError
    pytest.param(["condition", "--state", CONDITION_STATE, "--measurement", '{"u": 1%s}' % ("0" * 5000)], 2,
                 id="condition-5000-digit-u"),
    pytest.param(["discord", "--state", '{"normal_form": {"a": 1%s, "b": 2, "c": 0, "cp": 0}}' % ("0" * 5000)], 2,
                 id="discord-5000-digit-normal-form"),
    # the homodyne limit is spelled "inf"; a float literal past the range and the
    # JSON constants are refused like the integer spelling above
    pytest.param(["condition", "--state", CONDITION_STATE, "--measurement", '{"u": 1e400}'], 2,
                 id="condition-huge-float-u"),
    pytest.param(["condition", "--state", CONDITION_STATE, "--measurement", '{"u": Infinity}'], 2,
                 id="condition-infinity-u"),
    pytest.param(["discord", "--state", '{"normal_form": {"a": NaN, "b": 2, "c": 0, "cp": 0}}'], 2,
                 id="discord-nan-constant"),
    # destinations are opened before anything is sampled or written
    pytest.param(["sample", "--a", "2", "--b", "2", "--n", "3", "--out", "no-such-dir/x.csv"], 2,
                 id="sample-unwritable-out"),
    pytest.param(["sample", "--a", "2", "--b", "2", "--n", "3", "--grid-out", "no-such-dir/g.json"], 2,
                 id="sample-unwritable-grid-out"),
    # a seed numpy's SeedSequence refuses
    pytest.param(["sample", "--a", "2", "--b", "2", "--n", "5", "--seed", "-1"], 2, id="sample-negative-seed"),
    # sizes numpy refuses before it allocates: past its index range
    pytest.param(["sample", "--a", "2", "--b", "2", "--n", "1" + "0" * 20], 2, id="sample-huge-n"),
    pytest.param(["sample", "--a", "2", "--b", "2", "--n", "5", "--bins", "1" + "0" * 10, "--grid-out", "g.json"],
                 2, id="sample-huge-bins"),
    # an environment variance omega = eta / (1 - tau) past the float range
    pytest.param(["classify", "--tau", "0.5", "--eta", "1e308"], 4, id="classify-overflow"),
    # det B + 1 past the float range, which once read (B + V0)^{-1} as 0 and printed cm = A
    pytest.param(["condition", "--state", '{"normal_form": {"a": 1e160, "b": 1e160, "c": 5e159, "cp": -5e159}}',
                  "--measurement", '{"u": 1}', "--outcome", "0,0"], 4, id="condition-overflowing-denominator"),
    # an accepted state whose conditional CM's determinant rounds below the vacuum's
    pytest.param(["discord", "--normal-form",
                  "89892198.76922995,115051409.94953917,100494744.05535707,-101696726.65265156"], 4,
                 id="discord-conditional-below-vacuum"),
    # an accepted family state whose witness normal form's nu- rounds below the vacuum's
    pytest.param(["discord", "--normal-form",
                  "72359750755252.84,245003869751050.8,133148109071283.7,-133148109071253.8"], 4,
                 id="discord-closed-form-below-vacuum"),
    # det A (det S + 1) of the numeric route's scan past the float range (a*b past about
    # 1.3e154), which once ranked its candidates against inf and printed a wrong discord
    pytest.param(["discord", "--normal-form", "3e100,2e100,2.2e100,-2.2e100"], 4,
                 id="discord-scan-past-the-float-range"),
]


@pytest.mark.parametrize("args, code", HOSTILE_INPUTS)
def test_hostile_input_ends_in_one_typed_error(args, code, tmp_path):
    res = subprocess.run([sys.executable, "-m", "gdiscord.cli", *args], cwd=tmp_path, env=SRC_ENV,
                         capture_output=True, text=True, timeout=10)
    assert res.returncode == code, res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
    assert res.stdout == ""


# a value that starts with "-" binds to its option, as does the --opt=value spelling;
# the digests pin the output bytes
NEGATIVE_VALUES = [
    pytest.param(["classify", "--tau", "-1e-3", "--eta", "2"], "930aba78f38a6520", id="classify-tau"),
    pytest.param(["classify", "--tau=-1e-3", "--eta=2"], "930aba78f38a6520", id="classify-equals"),
    pytest.param(["condition", "--state", CONDITION_STATE, "--measurement", '{"u": 1}', "--outcome", "-0.4,0.2"],
                 "f58c613bddc1e0f3", id="condition-outcome"),
    pytest.param(["condition", "--state", CONDITION_STATE, "--measurement", '{"u": 1}', "--mean", "-1,0,0,0"],
                 "5a9221563c53fa60", id="condition-mean"),
    pytest.param(["condition", "--state", CONDITION_STATE, "--measurement", '{"u": 1}', "--outcome=-0.4,0.2",
                  "--mean=-1,0,0,0", "--mode=A"], "535c9b12058e32df", id="condition-equals"),
]


@pytest.mark.parametrize("args, digest", NEGATIVE_VALUES)
def test_negative_values_bind_to_their_option(run_cli, args, digest):
    res = run_cli(args)
    assert res.exit_code == 0, res.stderr
    assert hashlib.sha256(res.stdout_bytes).hexdigest()[:16] == digest


def run_module_cli(args, cwd):
    """``python -m gdiscord.cli`` of this source tree, in its own interpreter."""
    return subprocess.run([sys.executable, "-m", "gdiscord.cli", *args], cwd=cwd, env=SRC_ENV,
                          capture_output=True, timeout=30)


@pytest.mark.parametrize("args, code", [
    pytest.param(["--help"], 0, id="help"),
    pytest.param(["sample", "--help"], 0, id="sample-help"),
    pytest.param(["classify", "--tau", "0.5"], 2, id="missing-option"),
    pytest.param(["bogus"], 2, id="unknown-command"),
])
def test_usage_exits(run_cli, args, code):
    # help prints argparse's usage text on stdout, a usage error on stderr
    res = run_cli(args)
    assert res.exit_code == code, res.output
    assert (res.stderr if code else res.stdout).startswith("usage: "), res.output


# the body of the console script that pyproject.toml's `gdiscord = "gdiscord.cli:main"` installs
CONSOLE_SCRIPT = "import sys\nfrom gdiscord.cli import main\nsys.exit(main())\n"


@pytest.mark.parametrize("args, code, stderr", [
    pytest.param(["classify", "--tau", "0.5", "--eta", "0.6"], 0, "", id="success"),
    pytest.param(["decompose", "--normal-form", "2,2,1,0"], 3, "error: out-of-family: axis states (c*cp = 0 "
                 "with correlations) have no finite-b decomposition\n", id="out-of-family"),
])
def test_console_script_exits_with_the_command_code(args, code, stderr, tmp_path):
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert 'gdiscord = "gdiscord.cli:main"' in pyproject.read_text()
    res = subprocess.run([sys.executable, "-c", CONSOLE_SCRIPT, *args], cwd=tmp_path, env=SRC_ENV,
                         capture_output=True, text=True, timeout=30)
    assert (res.returncode, res.stderr) == (code, stderr)
    assert bool(res.stdout) == (code == 0)


@pytest.mark.parametrize("cmd", ["discord", "decompose"])
def test_spectrum_that_overflows_is_read_rescaled(run_cli, cmd):
    # delta^2 overflows from about 1e77 on; the state is a product of thermal states
    res = run_cli([cmd, "--normal-form", "1e78,3,0,0"])
    assert res.exit_code == 0, res.output
    out = json.loads(res.stdout)
    if cmd == "discord":
        assert out["numeric"]["s_a"] == out["closed_form"]["s_a"] == round12(h(1e78))
    else:
        assert (out["b"], out["eta"]) == (3.0, 1e78)


def test_grid_of_a_huge_variance_counts_its_physical_cells(run_cli, tmp_path):
    # the cell centres of a = 1e78 overflow an unscaled spectrum; the mask reads them
    # rescaled, as validate_bona_fide does, so every cell of the box is physical
    grid_path = tmp_path / "g.json"
    res = run_cli(["sample", "--a", "1e78", "--b", "3", "--n", "1000", "--bins", "20",
                   "--grid-out", str(grid_path)])
    assert res.exit_code == 0, res.stderr
    grid = json.loads(grid_path.read_text())
    assert grid["physical_cells"] == 400
    assert 0.0 < grid["coverage_fraction"] <= 1.0


def test_subnormal_state_quotes_its_own_nu_min(run_cli):
    # nu_min = a = 1e-320, which an unscaled a*b underflows to 0
    res = run_cli(["discord", "--normal-form", "1e-320,1e-320,0,0"])
    assert res.exit_code == 2 and res.stdout == ""
    nu_min = float(re.search(r"nu_min = (\S+) < 1", res.stderr).group(1))
    assert nu_min == pytest.approx(1e-320, rel=1e-12, abs=0.0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: an accepted near-pure state gets a discord of -3.3e-10")
def test_near_pure_state_gets_no_negative_discord(run_cli):
    res = run_cli(["discord", "--normal-form", ",".join(map(repr, NEGATIVE_DISCORD_NF))])
    assert res.exit_code in (0, 2, 3, 4), res.output
    assert res.exit_code or json.loads(res.stdout)["numeric"]["discord"] >= 0.0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: decompose puts an accepted boundary "
                   "squeezed-thermal state out of the family")
def test_boundary_squeezed_thermal_state_decomposes(run_cli):
    res = run_cli(["decompose", "--normal-form", ",".join(map(repr, BOUNDARY_SQUEEZED_THERMAL_NF))])
    assert res.exit_code == 0, res.stderr


# CMs that miss their normal-form pattern with products past the float range:
# a bona fide state whose conditional CM overflows, an axis state for decompose,
# and a CM whose correlation block leaves it indefinite
_PAST_PRODUCTS = '{"cm": [[2e154, 0, 1e154, 0], [0, 3e154, 0, 0], [1e154, 0, 4e154, 0], [0, 0, 0, 5e154]]}'
_INDEFINITE = ('{"cm": [[1.08e154, -9.95e153, 1.65e306, 6.8e307], [-9.95e153, 1.84e154, -2.39e306, -9.88e307], '
               '[1.65e306, -2.39e306, 1.75, -0.0287], [6.8e307, -9.88e307, -0.0287, 0.57]]}')


@pytest.mark.parametrize("cmd, state, code, reason", [
    ("discord", _PAST_PRODUCTS, 4, "numerical: scan forms overflow"),
    ("decompose", _PAST_PRODUCTS, 3, "out-of-family: axis states"),
    ("discord", _INDEFINITE, 2, "validation: state is not bona fide: not positive definite"),
    ("decompose", _INDEFINITE, 2, "validation: state is not bona fide: not positive definite"),
])
def test_cm_past_the_product_range_gets_a_true_verdict(run_cli, cmd, state, code, reason):
    res = run_cli([cmd, "--state", state])
    assert res.exit_code == code, res.stderr
    assert res.stderr.startswith(f"error: {reason}"), res.stderr


def test_extreme_scales_end_in_a_result_or_one_typed_error(run_cli):
    rng = np.random.default_rng(2027)
    for _ in range(300):
        a, b, c, cp = rng.choice(EXTREME_VALUES, 4).tolist()
        sc, sp = rng.choice([-1.0, 1.0], 2).tolist()
        c, cp = sc * c, sp * cp
        bona_fide = symplectic.validate_bona_fide(NormalFormCM(a, b, c, cp).rows()).bona_fide
        for cmd in ("discord", "decompose"):
            args = [cmd, "--normal-form", ",".join(map(repr, (a, b, c, cp)))]
            res = run_cli(args)
            assert res.exit_code in (0, 2, 3, 4), (args, res.output)
            assert (res.exit_code == 2) == (not bona_fide), (args, res.output)
            if res.exit_code:
                lines = res.stderr.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), (args, res.stderr)
                assert res.stdout == "", args
            else:
                json.loads(res.stdout)


def test_accepted_family_states_are_never_a_validation_error(run_cli):
    # family states with b log-uniform in [10^6, 10^17), r log-uniform on [1/b, b],
    # tau ~ U[0.2, 0.9] and eta = (1 - tau) U[1, 3]: where rounding puts the
    # conditional CM's or the witness normal form's nu- below the vacuum's 1,
    # discord exits 4; this seed draws three states of the second kind
    e, x, u_tau, u_eta = np.random.default_rng(4).random((4, 400))
    b = 10.0 ** (6.0 + 11.0 * e)
    tau = 0.2 + 0.7 * u_tau
    params = zip(b.tolist(), (b ** (2.0 * x - 1.0)).tolist(), tau.tolist(),
                 ((1.0 - tau) * (1.0 + 2.0 * u_eta)).tolist())
    accepted = 0
    for fp in params:
        nf = family_cm_from_params(FamilyParams(*fp))
        if not symplectic.validate_bona_fide(nf.rows()).bona_fide:
            continue
        accepted += 1
        res = run_cli(["discord", "--normal-form", ",".join(map(repr, nf))])
        assert res.exit_code in (0, 4), (nf, res.stderr)
    assert accepted > 200


def test_thermal_product_of_unequal_variances_is_bona_fide(run_cli):
    # nu_minus = 3 << nu_plus = 1e16, where Delta - sqrt(disc) cancels to 0
    res = run_cli(["discord", "--normal-form", "1e16,3,0,0"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.stdout)["numeric"]["s_a"] == round12(h(1e16))


@pytest.mark.parametrize("cmd", ["discord", "decompose"])
def test_huge_product_state_is_never_a_validation_error(cmd, tmp_path):
    res = run_module_cli([cmd, "--normal-form", "1e160,1e160,0,0"], tmp_path)
    assert res.returncode in (0, 4), res.stderr
    if res.returncode == 4:
        lines = res.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: numerical: "), res.stderr
    else:
        json.loads(res.stdout)
    assert not re.search(rb"nan|inf", res.stdout, re.IGNORECASE), res.stdout


@pytest.mark.parametrize("cmd", ["discord", "decompose"])
def test_spectrum_past_the_float_range_ends_in_a_typed_exit(cmd, tmp_path):
    # nu_plus = 1.9e308 is past the float range; validation reads it as inf
    nf = "1e308,1e308,9e307,9e307"
    res = run_module_cli([cmd, "--normal-form", nf], tmp_path)
    assert res.returncode in (0, 2, 3, 4), res.stderr
    if res.returncode:
        lines = res.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
    assert b"Traceback" not in res.stderr
    diag = symplectic.validate_bona_fide(NormalFormCM(1e308, 1e308, 9e307, 9e307).rows())
    assert isinstance(diag, symplectic.BonaFideDiagnosis)


def test_overflowing_family_inversion_names_what_overflowed(tmp_path):
    # c*cp and b^2 - 1 pass the float range; |tau| and eta are then NaN
    res = run_module_cli(["decompose", "--normal-form", "1e308,1e308,9e307,9e307"], tmp_path)
    assert res.returncode == 4, res.stderr
    lines = res.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: numerical: "), res.stderr
    assert "c*cp" in lines[0]
    assert "nan" not in lines[0].lower(), lines[0]


def cli_cold_commands():
    """The benchmark's cold CLI launches, read from its source without importing it."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["CLI_COMMANDS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py defines no CLI_COMMANDS")


# runs the CLI in process, then lists its exit code and the modules loaded, one a line
LOADED_MODULES_CLI = """\
import sys
sys.path.insert(0, sys.argv[1])
import gdiscord.cli
code = 0
try:
    gdiscord.cli.main(sys.argv[2:], prog_name="gdiscord")
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
print(code, *sorted(sys.modules), sep="\\n", file=sys.stderr)
"""

# the same, in a process that may run on one CPU only
PINNED_CLI = """\
import os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
""" + LOADED_MODULES_CLI


@pytest.mark.parametrize("args", cli_cold_commands(), ids=lambda args: args[0])
def test_cold_commands_never_import_numpy(args, tmp_path):
    res = subprocess.run([sys.executable, "-c", LOADED_MODULES_CLI, SRC, *args], cwd=tmp_path,
                         capture_output=True, timeout=30)
    code, *modules = res.stderr.decode().split()
    # the records are NamedTuples: no command pays for the dataclasses import
    assert (code, "numpy" in modules, "dataclasses" in modules) == ("0", False, False), res.stderr
    ref = run_module_cli(args, tmp_path)
    assert ref.returncode == 0, ref.stderr
    assert res.stdout == ref.stdout


# V(2, 2, 1, -1) with mode A rotated by pi/2: a full CM off the normal-form pattern
LOCAL_FRAME_STATE = '{"cm": [[2, 0, 0, 1], [0, 2, 1, 0], [0, 1, 2, 0], [1, 0, 0, 2]]}'

# condition works on floats from the parsed state to the printed one
CONDITION_ABSENT = {"numpy", "inspect", "dataclasses", "gdiscord.discord", "gdiscord.family",
                    "gdiscord.samplecsv"}

@pytest.mark.parametrize("args, loaded, absent", [
    (["sample", "--a", "2", "--b", "2", "--n", "10", "--seed", "0", "--threads", "1"],
     {"gdiscord.family", "gdiscord.serialize", "gdiscord.samplecsv", "numpy"},
     {"gdiscord.discord", "gdiscord.remote_prep", "gdiscord.verification", "concurrent.futures",
      "dataclasses"}),
    (["classify", "--tau", "0.5", "--eta", "0.6"],
     {"gdiscord.channels", "gdiscord.serialize"},
     {"gdiscord.discord", "gdiscord.family", "gdiscord.remote_prep", "gdiscord.samplecsv", "numpy",
      "dataclasses", "gdiscord.symplectic"}),
    (["discord", "--state", LOCAL_FRAME_STATE],
     {"gdiscord.discord", "gdiscord.family", "gdiscord.serialize"},
     {"gdiscord.verification", "gdiscord.samplecsv", "numpy", "dataclasses"}),
    (["decompose", "--state", LOCAL_FRAME_STATE],
     {"gdiscord.family", "gdiscord.serialize"},
     {"gdiscord.discord", "gdiscord.verification", "gdiscord.samplecsv", "numpy", "dataclasses"}),
    (["condition", "--state", LOCAL_FRAME_STATE, "--measurement", '{"u": 0.5, "phi": 0.3}',
      "--outcome", "0.4,-0.7"],
     {"gdiscord.remote_prep", "gdiscord.serialize"}, CONDITION_ABSENT),
    (["condition", "--state", LOCAL_FRAME_STATE, "--measurement", '{"u": "inf"}', "--outcome", "0.4,-0.7",
      "--mean", "0.1,-0.2,0.3,0.4", "--mode", "A"],
     {"gdiscord.remote_prep", "gdiscord.serialize"}, CONDITION_ABSENT),
], ids=["sample", "classify", "discord-state", "decompose-state", "condition-B-state", "condition-A-mean"])
def test_command_loads_only_the_modules_it_runs(args, loaded, absent, tmp_path):
    res = subprocess.run([sys.executable, "-c", LOADED_MODULES_CLI, SRC, *args], cwd=tmp_path,
                         capture_output=True, timeout=30)
    code, *modules = res.stderr.decode().split()
    modules = set(modules)
    assert res.returncode == 0 and code == "0" and res.stdout, res.stderr
    assert loaded <= modules
    assert not absent & modules, absent & modules


def test_entropy_module_is_a_leaf(tmp_path):
    # h and its clamp tolerance load no CM algebra: symplectic reads the tolerance from entropy
    code = "import sys; sys.path.insert(0, sys.argv[1]); import gdiscord.entropy; print(*sorted(sys.modules))"
    res = subprocess.run([sys.executable, "-c", code, SRC], cwd=tmp_path, capture_output=True,
                         text=True, timeout=30)
    assert res.returncode == 0, res.stderr
    loaded = {m for m in res.stdout.split() if m.startswith("gdiscord.")}
    assert loaded == {"gdiscord.entropy", "gdiscord.errors"}


# imports the package alone, then reads every exported name two ways
PACKAGE_EXPORTS = """\
import sys
sys.path.insert(0, sys.argv[1])
import gdiscord
assert not [m for m in sys.modules if m.startswith("gdiscord.")], sys.modules
listed = set(dir(gdiscord))
values = {name: getattr(gdiscord, name) for name in gdiscord.__all__}
star = {}
exec("from gdiscord import *", star)
print(len(values), all(name in listed for name in values),
      all(star[name] is value for name, value in values.items()))
"""


def test_package_exports_resolve_lazily(tmp_path):
    res = subprocess.run([sys.executable, "-c", PACKAGE_EXPORTS, SRC], cwd=tmp_path,
                         capture_output=True, text=True, timeout=30)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == [str(len(gdiscord.__all__)), "True", "True"]
    assert len(set(gdiscord.__all__)) == len(gdiscord.__all__)
    assert "matched_measurement" not in gdiscord.__all__
    with pytest.raises(AttributeError):
        gdiscord.matched_measurement


def test_numpy_is_reached_through_one_boundary():
    # every module binds np to the lazy gdiscord._numpy; none imports numpy itself
    importers, type_checking = [], []
    for path in sorted(Path(gdiscord.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                if any(alias.name == "TYPE_CHECKING" for alias in node.names):
                    type_checking.append(path.name)
            else:
                continue
            importers += [path.name for m in modules if m.split(".")[0] == "numpy"]
    assert importers == []
    assert type_checking == []


class TestVerifyCommand:
    def test_quick_suite_passes(self, run_cli):
        res = run_cli(["verify", "--quick"])
        assert res.exit_code == 0
        assert res.output.count("PASS") == 9
        assert "9/9 checks passed" in res.output
