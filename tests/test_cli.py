import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import gdiscord
from gdiscord import NormalFormCM, embed_normal_form, epr_cm, h, rotation_matrix, squeezer_matrix
from gdiscord import symplectic
from gdiscord.cli import main

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
  "agreement_delta": 6.14162054546e-11,
  "in_family": true
}
"""


def rotated_worked_state(theta=0.3):
    """The worked state V(5, 2, sqrt 6, -sqrt 6) rotated by theta on both modes, as --state JSON."""
    R = np.zeros((4, 4))
    R[:2, :2] = R[2:, 2:] = rotation_matrix(theta)
    V = R @ embed_normal_form(NormalFormCM(5, 2, math.sqrt(6), -math.sqrt(6))) @ R.T
    return json.dumps({"cm": V.tolist()})


def squeezed_epr_state(b, frame):
    """epr_cm(b) under a rotated squeezer on each mode, as --state JSON.

    ``frame`` is (theta_A, r_A, theta_B, r_B).
    """
    S = np.zeros((4, 4))
    S[:2, :2] = rotation_matrix(frame[0]) @ squeezer_matrix(frame[1])
    S[2:, 2:] = rotation_matrix(frame[2]) @ squeezer_matrix(frame[3])
    return json.dumps({"cm": (S @ epr_cm(b) @ S.T).tolist()})


# local frames of a pure state; the degenerate spectrum leaves the
# discriminant of the reduced normal form at rounding of either sign
EPR_FRAMES = [(0.3, 2.0, 1.1, 0.5), (0.7, 3.0, 2.0, 1.5), (1.3, 0.25, 0.4, 4.0)]


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


class TestDiscordCommand:
    def test_worked_state(self, runner):
        res = invoke(runner, [
            "discord", "--normal-form", "5,2,2.449489743,-2.449489743",
        ])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["in_family"] is True
        assert abs(out["numeric"]["discord"] - 0.950067) < 1e-6
        assert abs(out["closed_form"]["discord"] - 0.950067) < 1e-6
        assert out["agreement_delta"] < 1e-6

    def test_rotated_state_reaches_closed_form(self, runner):
        res = invoke(runner, ["discord", "--state", rotated_worked_state()])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["in_family"] is True
        assert out["agreement_delta"] <= 1e-9
        assert abs(out["closed_form"]["discord"] - 0.950067) < 1e-6

    @pytest.mark.parametrize("b", [1.5, 2.0, 10.0])
    def test_squeezed_epr_state_reaches_closed_form(self, runner, b):
        for frame in EPR_FRAMES:
            res = invoke(runner, ["discord", "--state", squeezed_epr_state(b, frame)])
            assert res.exit_code == 0, (frame, res.stderr)
            out = json.loads(res.output)
            assert out["in_family"] is True
            assert abs(out["numeric"]["discord"] - h(b)) < 1e-10  # a pure state: D = S(A)
            assert out["agreement_delta"] <= 1e-10

    def test_state_is_reduced_once(self, runner, monkeypatch):
        # validation, the numeric route and the closed form share one reduction
        calls = []
        reduce_cm = symplectic.reduce_cm
        monkeypatch.setattr(symplectic, "reduce_cm", lambda V: calls.append(V) or reduce_cm(V))
        res = invoke(runner, ["discord", "--state", rotated_worked_state()])
        assert res.exit_code == 0
        assert json.loads(res.output)["in_family"] is True
        assert len(calls) == 1

    def test_out_of_family_still_reports_numeric(self, runner):
        res = invoke(runner, ["discord", "--normal-form", "2,2,1,-0.5"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["in_family"] is False
        assert out["closed_form"] is None
        assert out["numeric"]["discord"] > 0

    def test_state_json_input(self, runner, tmp_path):
        payload = {"normal_form": {"a": 2, "b": 2, "c": 1, "cp": 1}}
        path = tmp_path / "state.json"
        path.write_text(json.dumps(payload))
        res = invoke(runner, ["discord", "--state", str(path)])
        assert res.exit_code == 0
        assert abs(json.loads(res.output)["numeric"]["discord"] - 0.459148) < 1e-5

    def test_not_bona_fide_exits_2(self, runner):
        res = invoke(runner, ["discord", "--normal-form", "2,2,2,-2"])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: validation:")

    def test_requires_exactly_one_input(self, runner):
        res = invoke(runner, ["discord"])
        assert res.exit_code == 2

    def test_unknown_flag_is_error(self, runner):
        res = runner.invoke(main, ["discord", "--bogus", "1"])
        assert res.exit_code == 2

    def test_below_tolerance_rejected_by_every_command(self, runner):
        # nu_min = 1 - 1e-8 is below the fixed 1e-9 validation tolerance
        state = json.dumps({"normal_form": {"a": 1.0 - 1e-8, "b": 1, "c": 0, "cp": 0}})
        for args in (["discord", "--state", state], ["decompose", "--state", state],
                     ["condition", "--state", state, "--measurement", '{"u": 1}']):
            res = invoke(runner, args)
            assert res.exit_code == 2, args
            assert res.stderr.startswith("error: validation:")

    def test_negative_definite_state_exits_2(self, runner):
        # -V has the symplectic spectrum of V; only positive definiteness tells them apart
        S = np.eye(4)
        S[:2, :2] = squeezer_matrix(2.0) @ rotation_matrix(0.3)
        for args in (["discord", "--state", json.dumps({"cm": (-2.0 * S @ S.T).tolist()})],
                     ["condition", "--state", json.dumps({"cm": (-2.0 * np.eye(4)).tolist()}),
                      "--measurement", '{"u": 1}']):
            res = invoke(runner, args)
            assert res.exit_code == 2, args
            assert "not positive definite" in res.stderr

    def test_worked_state_output(self, runner):
        res = invoke(runner, ["discord", "--normal-form", "5,2,2.449489743,-2.449489743"])
        assert res.output == WORKED_DISCORD_OUTPUT


    @pytest.mark.parametrize("state", ["2,1,1e-5,1e-5", "2,1,3e-5,-1e-5", "2,1,1e-5,-1e-5"])
    def test_vacuum_b_with_correlations_reports_numeric_only(self, runner, state):
        res = invoke(runner, ["discord", "--normal-form", state])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["in_family"] is False
        assert payload["closed_form"] is None


class TestDecomposeCommand:
    def test_family_member(self, runner):
        res = invoke(runner, ["decompose", "--normal-form", "5,2,2.449489742783178,-2.449489742783178"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert abs(out["tau"] - 2.0) < 1e-9
        assert abs(out["eta"] - 1.0) < 1e-9
        assert out["sign"] == 1

    def test_output(self, runner):
        res = invoke(runner, ["decompose", "--normal-form", "2,2,1,1"])
        assert res.output == (
            '{\n  "b": 2.0,\n  "r": 1.0,\n  "tau": -0.333333333333,\n  "eta": 1.33333333333,\n'
            '  "sign": 1,\n  "xi": 1.0\n}\n'
        )

    def test_rotated_state(self, runner):
        res = invoke(runner, ["decompose", "--state", rotated_worked_state()])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert (out["b"], out["r"], out["tau"], out["eta"], out["sign"]) == (2.0, 1.0, 2.0, 1.0, 1)

    @pytest.mark.parametrize("b", [1.5, 2.0, 10.0])
    def test_squeezed_epr_state(self, runner, b):
        # an EPR state is the identity channel on the EPR mode: tau = 1, eta = 0
        for frame in EPR_FRAMES:
            res = invoke(runner, ["decompose", "--state", squeezed_epr_state(b, frame)])
            assert res.exit_code == 0, (frame, res.stderr)
            out = json.loads(res.output)
            assert out["b"] == pytest.approx(b, abs=1e-12)
            assert (out["tau"], out["sign"]) == (1.0, 1)
            assert out["eta"] <= 1e-12

    def test_out_of_family_exits_3(self, runner):
        res = invoke(runner, ["decompose", "--normal-form", "2,2,1,-0.5"])
        assert res.exit_code == 3
        assert res.stderr.startswith("error: out-of-family:")

    @pytest.mark.parametrize("state", ["2,1,1e-5,1e-5", "2,1,3e-5,-1e-5", "2,1,1e-5,-1e-5"])
    def test_vacuum_b_with_correlations_exits_3(self, runner, state):
        res = invoke(runner, ["decompose", "--normal-form", state])
        assert res.exit_code == 3
        assert res.stderr.startswith("error: out-of-family:")


class TestClassifyCommand:
    def test_lossy(self, runner):
        res = invoke(runner, ["classify", "--tau", "0.5", "--eta", "0.6"])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["label"] == "C_lossy"
        assert abs(out["omega"] - 1.2) < 1e-9
        assert abs(out["n_bar"] - 0.1) < 1e-9

    def test_output(self, runner):
        res = invoke(runner, ["classify", "--tau", "0.5", "--eta", "0.6"])
        assert res.output == (
            '{\n  "label": "C_lossy",\n  "tau": 0.5,\n  "eta": 0.6,\n  "omega": 1.2,\n'
            '  "n_bar": 0.1,\n  "quantum_limited": false\n}\n'
        )

    def test_boundary_quantum_limited(self, runner):
        res = invoke(runner, ["classify", "--tau", "2", "--eta", "1"])
        out = json.loads(res.output)
        assert out["label"] == "C_amplifier"
        assert out["quantum_limited"] is True

    def test_invalid_params_exit_2(self, runner):
        res = invoke(runner, ["classify", "--tau", "0.5", "--eta", "0.1"])
        assert res.exit_code == 2


class TestSampleCommand:
    def test_csv_and_grid(self, runner, tmp_path):
        csv_path = tmp_path / "points.csv"
        grid_path = tmp_path / "grid.json"
        res = invoke(runner, [
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

    def test_byte_identical_runs(self, runner, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path, threads in zip(paths, ("1", "3")):
            res = invoke(runner, [
                "sample", "--a", "2", "--b", "4", "--n", "5000", "--seed", "7",
                "--threads", threads, "--out", str(path),
            ])
            assert res.exit_code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_stdout_bytes_equal_file_bytes(self, runner, tmp_path):
        # 70,000 points span two sampler chunks
        path = tmp_path / "points.csv"
        args = ["sample", "--a", "2", "--b", "3", "--n", "70000", "--seed", "8"]
        to_file = invoke(runner, args + ["--threads", "1", "--out", str(path)])
        to_stdout = invoke(runner, args + ["--threads", "2"])
        assert to_file.exit_code == 0 and to_stdout.exit_code == 0
        assert to_stdout.stdout_bytes == path.read_bytes()

    def test_stdout_output(self, runner):
        res = invoke(runner, ["sample", "--a", "1.5", "--b", "1.5", "--n", "3", "--seed", "0"])
        assert res.exit_code == 0
        assert res.output.startswith("a,b,c,cp,r,tau,eta,sign\n")
        assert len(res.output.strip().split("\n")) == 4


class TestConditionCommand:
    def test_epr_heterodyne(self, runner):
        V = embed_normal_form(NormalFormCM(2, 2, math.sqrt(3), -math.sqrt(3)))
        res = invoke(runner, [
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

    def test_homodyne_tag(self, runner):
        V = embed_normal_form(NormalFormCM(3, 3, math.sqrt(8), -math.sqrt(8)))
        res = invoke(runner, [
            "condition",
            "--state", json.dumps({"normal_form": {"a": 3, "b": 3, "c": math.sqrt(8), "cp": -math.sqrt(8)}}),
            "--measurement", json.dumps({"u": "inf"}),
        ])
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert np.allclose(out["cm"], np.diag([3.0, 1 / 3.0]), atol=1e-9)

    def test_mode_a(self, runner):
        res = invoke(runner, [
            "condition",
            "--state", json.dumps({"normal_form": {"a": 5, "b": 2, "c": 2.449489742783178, "cp": -2.449489742783178}}),
            "--measurement", json.dumps({"u": 1.0}),
            "--mode", "A",
        ])
        assert res.exit_code == 0
        out = json.loads(res.output)
        # B-mode conditional CM: b - c^2/(a+1) on the diagonal
        assert np.allclose(out["cm"], np.diag([1.0, 1.0]), atol=1e-9)

    def test_malformed_json_exit_2(self, runner):
        res = invoke(runner, [
            "condition", "--state", "{not json", "--measurement", '{"u": 1}',
        ])
        assert res.exit_code == 2


# each runs in its own interpreter under a timeout, so a hang fails the test
# instead of stalling the suite
HOSTILE_INPUTS = [
    (["sample", "--a", "nan", "--b", "2", "--n", "3"], 2),
    (["sample", "--a", "2", "--b", "inf", "--n", "3"], 2),
    (["sample", "--a", "1e160", "--b", "3", "--n", "3"], 4),
    (["sample", "--a", "2", "--b", "2", "--n", "3", "--bins", "0", "--grid-out", "g.json"], 2),
    (["discord", "--normal-form", "nan,2,0,0"], 2),
    (["decompose", "--normal-form", "2,2,nan,0"], 2),
]


@pytest.mark.parametrize("args, code", HOSTILE_INPUTS, ids=[
    "sample-nan-a", "sample-inf-b", "sample-overflow", "sample-bins-0", "discord-nan", "decompose-nan"])
def test_hostile_input_ends_in_one_typed_error(args, code, tmp_path):
    src = str(Path(gdiscord.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, "-m", "gdiscord.cli", *args], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=10)
    assert res.returncode == code, res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr


class TestVerifyCommand:
    def test_quick_suite_passes(self, runner):
        res = invoke(runner, ["verify", "--quick"])
        assert res.exit_code == 0
        assert res.output.count("PASS") == 9
        assert "9/9 checks passed" in res.output
