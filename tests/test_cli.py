import csv
import hashlib
import io
import json

import numpy as np
import pytest

from cayley_stiefel import cover, stiefel
from cayley_stiefel.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_passes_quaternion(self, capsys):
        code, out, _ = run(capsys, ["check", "--field", "quaternion", "--n", "6",
                                    "--k", "2", "--seed", "7", "--reproducible"])
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert all(p["pass"] for p in payload["properties"])

    def test_core_bound_ignores_tol(self, capsys):
        # every singular value of I + X*X + Y is at least 1, whatever --tol says
        props = []
        for tol in ["1e-12", "0.1"]:
            code, out, _ = run(capsys, ["check", "--field", "real", "--n", "6", "--k", "2",
                                        "--tol", tol, "--reproducible"])
            assert code == 0
            props += [p for p in json.loads(out)["properties"]
                      if p["name"] == "b_matrix_core_sigma_min_shortfall"]
        assert props[0] == props[1] and props[0]["pass"] is True

    def test_fails_when_every_inverse_draw_is_skipped(self, capsys):
        # all 8 draws test Singular at --tol 0.15: the property checked nothing
        code, out, _ = run(capsys, ["check", "--field", "real", "--n", "6", "--k", "2",
                                    "--tol", "0.15", "--reproducible"])
        assert code == 1
        payload = json.loads(out)
        props = {p["name"]: p for p in payload["properties"]}
        assert props["mat_inverse_residual"]["max_residual"] is None
        assert props["mat_inverse_residual"]["pass"] is False
        assert payload["pass"] is False
        assert all(p["pass"] for name, p in props.items() if name != "mat_inverse_residual")

    def test_fails_when_every_round_trip_draw_is_skipped(self, capsys, monkeypatch):
        monkeypatch.setattr(stiefel, "differential_is_injective", lambda t, tol: False)
        code, out, _ = run(capsys, ["check", "--field", "complex", "--n", "5", "--k", "2",
                                    "--reproducible"])
        assert code == 1
        props = {p["name"]: p for p in json.loads(out)["properties"]}
        assert props["gamma_round_trip"]["max_residual"] is None
        assert props["gamma_round_trip"]["pass"] is False
        assert all(p["pass"] for name, p in props.items() if name != "gamma_round_trip")

    def test_config_error(self, capsys):
        code, out, err = run(capsys, ["check", "--n", "2", "--k", "5"])
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_degenerate_circle(self, capsys):
        code, out, _ = run(capsys, ["check", "--field", "real", "--n", "1",
                                    "--k", "1", "--reproducible"])
        assert code == 0
        assert json.loads(out)["pass"] is True


class TestOptimize:
    def test_rayleigh_converges(self, capsys, tmp_path):
        out_path = tmp_path / "trace.jsonl"
        code, out, _ = run(capsys, ["optimize", "--field", "real", "--n", "12",
                                    "--k", "3", "--seed", "42", "--reproducible",
                                    "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert json.loads(lines[-1]) == {"reason": "converged"}
        assert out == out_path.read_text()

    def test_identity_matrix_converges_immediately(self, capsys, tmp_path):
        # gradient 2x is normal to the manifold: Riemannian gradient is zero
        code, out, _ = run(capsys, ["optimize", "--field", "real", "--n", "6",
                                    "--k", "2", "--seed", "1", "--reproducible",
                                    "--max-iters", "0"])
        # max-iters 0 still evaluates the start point; exit depends on gradient
        assert code in (0, 3)

    def test_max_iters_exit_code(self, capsys):
        code, out, _ = run(capsys, ["optimize", "--field", "real", "--n", "12",
                                    "--k", "3", "--seed", "42", "--reproducible",
                                    "--max-iters", "2"])
        assert code == 3
        assert json.loads(out.strip().split("\n")[-1]) == {"reason": "max_iters"}

    @pytest.mark.parametrize("flags", [["--max-iters", "-3"], ["--step", "0"],
                                       ["--step", "-1"], ["--step", "inf"],
                                       ["--step", "nan"], ["--step", "1e308"],
                                       ["--grad-tol", "nan"],
                                       ["--grad-tol", "-1"], ["--grad-tol", "inf"]])
    def test_unusable_search_params(self, capsys, flags):
        code, out, err = run(capsys, ["optimize", "--n", "6", "--k", "2",
                                      "--reproducible", *flags])
        assert code == 2
        assert out == ""
        assert "error" in err and "Traceback" not in err
        # the message names the parameter: --step sets initial_step
        assert flags[0][2:].replace("-", "_") in err

    def test_csv_companion(self, capsys, tmp_path):
        csv_path = tmp_path / "trace.csv"
        code, out, _ = run(capsys, ["optimize", "--field", "real", "--n", "8",
                                    "--k", "2", "--seed", "3", "--reproducible",
                                    "--csv", str(csv_path)])
        assert code == 0
        text = csv_path.read_text()
        assert text.splitlines()[0] == "iter,f,gnorm,step,backtracks"
        # row i is record i of the JSONL trace, each value written as JSON writes it
        records = [json.loads(line) for line in out.strip().split("\n")[:-1]]
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(records) > 1
        for row, rec in zip(rows, records):
            assert row == {key: json.dumps(value) for key, value in rec.items()}

    @pytest.mark.parametrize("field,step", [("quaternion", "1e6"), ("real", "1e8"),
                                            ("complex", "1e8"), ("quaternion", "1e8")])
    def test_large_initial_step_converges(self, capsys, field, step):
        # trial points that lose x*x = I to rounding are rejected steps
        code, out, _ = run(capsys, ["optimize", "--field", field, "--n", "12", "--k", "3",
                                    "--seed", "1", "--step", step, "--reproducible"])
        assert code == 0
        assert json.loads(out.strip().split("\n")[-1]) == {"reason": "converged"}

    @pytest.mark.parametrize("field", ["real", "complex", "quaternion"])
    def test_huge_step_converges(self, capsys, field):
        # every accepted --step works: the first trial is cut to the curve's saturation
        for step in ("1e12", "1e200", "1e307"):
            code, out, err = run(capsys, ["optimize", "--field", field, "--n", "6", "--k", "2",
                                          "--step", step, "--reproducible"])
            assert code == 0
            assert json.loads(out.strip().split("\n")[-1]) == {"reason": "converged"}
            assert "error" not in err

    @pytest.mark.parametrize("field", ["real", "quaternion"])
    def test_reference_size_converges_within_70_iterations(self, capsys, field):
        # starting every line search at --step took 116 (R) and 145 (H) iterations
        code, out, _ = run(capsys, ["optimize", "--field", field, "--n", "20", "--k", "4",
                                    "--seed", "42", "--reproducible"])
        assert code == 0
        lines = out.strip().split("\n")
        assert json.loads(lines[-1]) == {"reason": "converged"}
        assert json.loads(lines[-2])["iter"] <= 70

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_unwritable_path(self, capsys, tmp_path, flag):
        path = tmp_path / "missing" / "o.jsonl"
        code, out, err = run(capsys, ["optimize", "--n", "6", "--k", "2", "--seed", "3",
                                      "--reproducible", flag, str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "o.jsonl" in err

    def test_procrustes(self, capsys):
        code, out, _ = run(capsys, ["optimize", "--problem", "procrustes",
                                    "--field", "complex", "--n", "6", "--k", "2",
                                    "--seed", "5", "--reproducible"])
        assert code == 0


class TestCover:
    def test_quaternion_cover_holds(self, capsys):
        code, out, _ = run(capsys, ["cover", "--field", "quaternion", "--n", "4",
                                    "--k", "2", "--samples", "200", "--reproducible"])
        assert code == 0
        assert json.loads(out)["uncovered"] == 0

    @pytest.mark.parametrize("fld", ["real", "complex"])
    def test_cover_holds_in_every_field(self, capsys, fld):
        code, out, _ = run(capsys, ["cover", "--field", fld, "--n", "4", "--k", "2",
                                    "--samples", "200", "--reproducible"])
        assert code == 0
        report = json.loads(out)
        assert report["uncovered"] == 0
        assert "exploratory" not in report

    def test_uncovered_real_sample_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cover, "_memberships", lambda field, pi, ladder, tol:
                            np.zeros((len(pi), len(ladder)), dtype=bool))
        code, out, err = run(capsys, ["cover", "--field", "real", "--n", "4", "--k", "2",
                                      "--samples", "3", "--reproducible"])
        assert code == 1
        assert json.loads(out)["uncovered"] == 3
        assert "cover FAILED" in err

    def test_dimension_guard(self, capsys):
        code, _, err = run(capsys, ["cover", "--n", "3", "--k", "2"])
        assert code == 2
        assert "n >= 2k" in err

    def test_zero_samples(self, capsys):
        code, out, _ = run(capsys, ["cover", "--field", "quaternion", "--n", "4",
                                    "--k", "2", "--samples", "0", "--reproducible"])
        assert code == 0
        assert json.loads(out)["samples"] == 0

    def test_negative_samples(self, capsys):
        code, out, err = run(capsys, ["cover", "--field", "quaternion", "--n", "4",
                                      "--k", "2", "--samples", "-1", "--reproducible"])
        assert code == 2
        assert out == ""
        assert "samples must be nonnegative" in err

    @pytest.mark.parametrize("samples", ["0", "3"])
    def test_negative_seed(self, capsys, samples):
        code, out, err = run(capsys, ["cover", "--n", "4", "--k", "2", "--samples", samples,
                                      "--seed", "-1", "--reproducible"])
        assert code == 2
        assert out == ""
        assert "seed must be nonnegative" in err


class TestSeed:
    # cover has its own case in TestCover, which also covers --samples 0
    @pytest.mark.parametrize("command", ["check", "demo", "optimize"])
    def test_negative_seed(self, capsys, command):
        code, out, err = run(capsys, [command, "--n", "4", "--k", "2", "--seed", "-1",
                                      "--reproducible"])
        assert code == 2
        assert out == ""
        assert "seed must be nonnegative" in err


class TestDemo:
    def test_anchors_and_residuals(self, capsys):
        code, out, err = run(capsys, ["demo", "--field", "real", "--n", "3",
                                      "--k", "1", "--seed", "2", "--reproducible"])
        assert code == 0
        payload = json.loads(out)
        res = payload["residuals"]
        assert res["gamma_zero_anchor"] <= 1e-12
        assert res["round_trip"] <= 1e-9
        assert res["section"] <= 1e-9
        assert "Stiefel" in err

    def test_reproducible_bytes(self, capsys):
        argv = ["demo", "--field", "quaternion", "--n", "4", "--k", "2",
                "--seed", "9", "--reproducible"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_timestamp_present_without_flag(self, capsys):
        code, out, _ = run(capsys, ["demo", "--field", "real", "--n", "3",
                                    "--k", "1", "--seed", "2"])
        assert code == 0
        assert "timestamp" in json.loads(out)


class TestTolerance:
    @pytest.mark.parametrize("command", ["check", "optimize", "cover", "demo"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-12"])
    def test_rejects_unusable_tol(self, capsys, command, tol):
        argv = [command, "--field", "quaternion", "--n", "4", "--k", "2",
                f"--tol={tol}", "--reproducible"]
        if command == "cover":
            argv += ["--samples", "5"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        if command == "optimize":
            # optimize has no --tol at all, so any value is an unknown option
            assert "unrecognized arguments: --tol" in err
        else:
            assert "tol must be finite and nonnegative" in err

    def test_optimize_takes_no_tol(self, capsys):
        code, out, err = run(capsys, ["optimize", "--tol", "1e-3", "--reproducible"])
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --tol" in err

    @pytest.mark.parametrize("argv", [
        ["check", "--field", "real", "--n", "6", "--k", "2", "--tol", "0.5"],
        ["demo", "--field", "quaternion", "--n", "6", "--k", "2", "--tol", "0.5"],
    ], ids=["check", "demo"])
    def test_tol_that_rejects_an_input_is_a_config_error(self, capsys, argv):
        code, out, err = run(capsys, argv + ["--reproducible"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_zero_tol_is_valid(self, capsys):
        code, out, _ = run(capsys, ["cover", "--field", "quaternion", "--n", "4",
                                    "--k", "2", "--samples", "5", "--tol", "0",
                                    "--reproducible"])
        assert code == 0
        assert json.loads(out)["uncovered"] == 0


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["check", "--field", "complex", "--n", "5", "--k", "2", "--seed", "11",
         "--reproducible"],
        ["optimize", "--field", "real", "--n", "10", "--k", "2", "--seed", "11",
         "--reproducible"],
        ["cover", "--field", "quaternion", "--n", "4", "--k", "2",
         "--samples", "100", "--seed", "11", "--reproducible"],
    ], ids=["check", "optimize", "cover"])
    def test_identical_bytes(self, capsys, argv):
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2
        assert out1 == out2


class TestGoldenOutput:
    """SHA-256 of --reproducible stdout, pinned so that a change of arithmetic that
    moves any printed bit shows here.  A change that moves these bytes on purpose
    updates the hashes and says why."""

    GOLDEN = {
        ("demo", "real"): "39f5587c751b2d804d3324761e0e1ee408892dad9ac5efbc758e5c31a336392e",
        ("demo", "complex"): "72bd6c3b1ea57417430a3297fafdc9747c3824f91ac240a7038eb04901aeb7f3",
        ("demo", "quaternion"): "d6a905067c0dea7e5438e6cf1b081fc38c0724367d9464366b5db53ecc293acd",
        ("check", "real"): "4e268a58d56156b8e2a01c0558168fccd76bc8efdc48408d5471cf811c15dbe4",
        ("check", "complex"): "f2caa09cdfe243c17d5c0405e18de387a9455913c7654244d7ca91aa7357ddc2",
        ("check", "quaternion"): "661802eb5542bd542ce5e697b44c26dfd32e1bc09641502fe6a5eb0de6a1a111",
    }
    ARGS = {"demo": ["--n", "16", "--k", "4", "--seed", "3"],
            "check": ["--n", "6", "--k", "2", "--seed", "7"]}

    @pytest.mark.parametrize("command, fld", sorted(GOLDEN))
    def test_reproducible_stdout(self, capsys, command, fld):
        code, out, _ = run(capsys, [command, "--field", fld, *self.ARGS[command], "--reproducible"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[command, fld]
