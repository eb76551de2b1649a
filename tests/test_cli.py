"""Command-line contract: subcommands, exit codes, emitted files."""

import importlib.util
import os
import pathlib
import shutil
import subprocess
import sys
import textwrap

import pytest

from vwbound.cli import main
from vwbound.report import FORMAT_TAG, RunReport

ROOT = pathlib.Path(__file__).parents[1]
SADDLE_DOC = ROOT / "demos" / "saddle.problem"
NONLINEAR_DOC = ROOT / "demos" / "nonlinear.problem"

TINY_V0 = """\
[problem]
n = 2
t_minus = -40
t_plus = 40

[system]
A.1.1 = "1"
A.2.2 = "-1"
f0.1 = "0.1*sin(t)"
f0.2 = "0.1*cos(t)"

[guiding]
B.1.1 = "1"
B.2.2 = "1"
C.1.1 = "1"
C.2.2 = "-1"

[region]
v0 = 1e-6
w_minus = -0.02
w_plus = 0.02
"""


@pytest.fixture(scope="module")
def ref_doc(reference_document_path):
    return str(reference_document_path)


@pytest.fixture(scope="module")
def cert_file(ref_doc, tmp_path_factory):
    path = tmp_path_factory.mktemp("cert") / "cert.txt"
    assert main(["certify", ref_doc, "--out", str(path)]) == 2
    return str(path)


@pytest.fixture(scope="module")
def solve_dir(ref_doc, cert_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("solve")
    assert main(["solve", ref_doc, "--cert", cert_file,
                 "--out", str(out)]) == 0
    return out


class TestCertify:
    def test_stdout_report(self, ref_doc, capsys):
        assert main(["certify", ref_doc]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"format = {FORMAT_TAG}\n")
        assert "exit.code = 2" in out

    def test_deterministic_output(self, ref_doc, cert_file, tmp_path):
        second = tmp_path / "again.txt"
        assert main(["certify", ref_doc, "--out", str(second)]) == 2
        assert second.read_bytes() == open(cert_file, "rb").read()

    def test_sigma_override(self, ref_doc, tmp_path, capsys):
        assert main(["certify", ref_doc, "--sigma", "0.5"]) == 2
        rep = RunReport.from_text(capsys.readouterr().out)
        assert rep.get_float("cert.sigma") == 0.5

    def test_short_window_not_feasible(self, ref_doc, capsys):
        # the return-time condition cannot be met on a 2.5-unit window
        code = main(["certify", ref_doc, "--window=-0.5,2"])
        assert code == 3
        rep = RunReport.from_text(capsys.readouterr().out)
        assert rep.get_int("exit.code") == 3

    def test_tiny_v0_names_condition_e(self, tmp_path, capsys):
        doc = tmp_path / "tiny.problem"
        doc.write_text(TINY_V0)
        assert main(["certify", str(doc)]) == 3
        captured = capsys.readouterr()
        assert "condition (e) failed" in captured.err
        rep = RunReport.from_text(captured.out)
        assert rep.get("failed.condition") == "e"

    @pytest.mark.parametrize("line,edit,tag", [
        # B indefinite on the whole grid
        ('B.1.1 = "1"', 'B.1.1 = "-1"', "a"),
        # C singular at t = 0 (and without a positive eigenvalue before)
        ('C.1.1 = "1"', 'C.1.1 = "t"', "b"),
        # C negative definite: no positive subspace, no entry disks
        ('C.1.1 = "1"', 'C.1.1 = "-1"', "g"),
    ])
    def test_failed_condition_writes_report(
        self, ref_doc, tmp_path, capsys, line, edit, tag,
    ):
        doc = tmp_path / "edited.problem"
        text = open(ref_doc).read()
        assert text.count(f"\n{line}\n") == 1
        doc.write_text(text.replace(f"\n{line}\n", f"\n{edit}\n"))
        out = tmp_path / "cert.txt"
        assert main(["certify", str(doc), "--out", str(out)]) == 3
        assert f"condition ({tag}) failed" in capsys.readouterr().err
        rep = RunReport.load(str(out))
        assert rep.get_int("exit.code") == 3
        assert rep.get("failed.condition") == tag
        if tag == "a":
            note = rep.get(f"cond.{tag}.note")
            pivot = int(note.split("pivot ")[1].split()[0])
            assert pivot >= 0, note

    @pytest.mark.parametrize("upper,lower", [
        ('"1e-13*t"', None),
        ('"0.5*t"', '"t*0.5"'),  # equal values, different expressions
    ])
    def test_mirrored_entries_must_match(self, tmp_path, capsys,
                                         upper, lower):
        text = SADDLE_DOC.read_text()
        entries = f"C.1.2 = {upper}\n"
        if lower is not None:
            entries += f"C.2.1 = {lower}\n"
        assert text.count('C.2.2 = "-1"\n') == 1
        doc = tmp_path / "asymmetric.problem"
        doc.write_text(text.replace('C.2.2 = "-1"\n',
                                    'C.2.2 = "-1"\n' + entries))
        assert main(["certify", str(doc)]) == 64
        err = capsys.readouterr().err
        assert "matrix C must be symmetric" in err
        assert "C.1.2" in err and "C.2.1" in err

    def test_malformed_document(self, tmp_path, capsys):
        doc = tmp_path / "broken.problem"
        doc.write_text("[problem]\nn = 2\n")  # missing everything else
        assert main(["certify", str(doc)]) == 64
        assert "missing required" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["certify", str(tmp_path / "nope.problem")]) == 64


class TestSolve:
    def test_requires_certificate(self, ref_doc, capsys):
        assert main(["solve", ref_doc]) == 64

    def test_rejects_failed_certificate(self, ref_doc, tmp_path, capsys):
        doc = tmp_path / "tiny.problem"
        doc.write_text(TINY_V0)
        bad_cert = tmp_path / "bad-cert.txt"
        assert main(["certify", str(doc), "--out", str(bad_cert)]) == 3
        assert main(["solve", ref_doc, "--cert", str(bad_cert)]) == 64

    def test_emits_files(self, solve_dir):
        for name in ("trajectory.csv", "xi.csv", "solve-report.txt"):
            assert (solve_dir / name).exists(), name
        rep = RunReport.load(solve_dir / "solve-report.txt")
        assert rep.get_int("solution.exit.code") == 0
        assert rep.get_float("solution.xi.1") == pytest.approx(-0.05,
                                                               abs=1e-6)
        header = (solve_dir / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,x1,x2,V,W"

    def test_short_window_exits_not_converged(self, ref_doc, cert_file,
                                              tmp_path, capsys):
        code = main(["solve", ref_doc, "--cert", cert_file,
                     "--window=-0.5,2", "--out", str(tmp_path)])
        assert code == 4
        assert "solve failed" in capsys.readouterr().err
        rep = RunReport.load(tmp_path / "solve-report.txt")
        assert rep.get_int("solution.exit.code") == 4
        assert rep.has("solution.error")


class TestVerify:
    def test_passes_on_solver_output(self, ref_doc, cert_file, solve_dir,
                                     capsys):
        code = main(["verify", ref_doc, "--cert", cert_file,
                     "--traj", str(solve_dir / "trajectory.csv")])
        assert code == 0
        assert "pass" in capsys.readouterr().out

    def test_corrupted_certificate_flagged(self, ref_doc, cert_file,
                                           solve_dir, tmp_path, capsys):
        text = open(cert_file).read()
        target = next(
            ln for ln in text.splitlines()
            if ln.startswith("bound.v_small_star = ")
        )
        bad = tmp_path / "corrupt.txt"
        bad.write_text(text.replace(target, "bound.v_small_star = 0.0001"))
        code = main(["verify", ref_doc, "--cert", str(bad),
                     "--traj", str(solve_dir / "trajectory.csv")])
        assert code == 5
        assert "exceeds the constant ceiling" in capsys.readouterr().out

    def test_unreachable_envelope_is_a_violation(self, ref_doc, cert_file,
                                                 solve_dir, tmp_path,
                                                 capsys):
        # lam_plus = 1e5 puts the envelope's F-argument near 1000, above
        # F(Vmax) = 831.5: the ceiling does not exist, which verify must
        # report as a violation at the node, not as an error
        lines = open(cert_file).read().splitlines()
        for i, ln in enumerate(lines):
            if ln.startswith("curve.lam_plus = "):
                count = len(ln.split(" = ", 1)[1].split())
                lines[i] = "curve.lam_plus = " + " ".join(["1e5"] * count)
        bad = tmp_path / "unreachable.txt"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "verify.txt"
        code = main(["verify", ref_doc, "--cert", str(bad),
                     "--traj", str(solve_dir / "trajectory.csv"),
                     "--out", str(out)])
        assert code == 5
        captured = capsys.readouterr()
        assert captured.err == ""
        assert ("violation: no envelope ceiling from t = -28: F never "
                "reaches 1000.01 below Vmax = 20000") in captured.out
        rep = RunReport.load(str(out))
        assert rep.get_int("verify.exit.code") == 5

    @pytest.mark.parametrize("states,times", [
        ("nan", None), ("inf", None), ("-inf", None), (None, "nan"),
    ])
    def test_non_finite_trajectory_rejected(self, ref_doc, cert_file,
                                            solve_dir, tmp_path, capsys,
                                            states, times):
        rows = (solve_dir / "trajectory.csv").read_text().splitlines()
        edited = [rows[0]]
        for row in rows[1:]:
            cells = row.split(",")
            if states is not None:
                cells[1:3] = [states, states]
            if times is not None:
                cells[0] = times
            edited.append(",".join(cells))
        bad = tmp_path / "non-finite.csv"
        bad.write_text("\n".join(edited) + "\n")
        code = main(["verify", ref_doc, "--cert", cert_file,
                     "--traj", str(bad)])
        assert code == 64
        err = capsys.readouterr().err
        assert "non-finite value in row" in err
        assert "line 2" in err

    @pytest.mark.parametrize("key", ["bound.v_small_star", "cert.w_plus"])
    def test_nan_certificate_value_is_a_violation(self, ref_doc, cert_file,
                                                  solve_dir, tmp_path,
                                                  capsys, key):
        text = open(cert_file).read()
        target = next(
            ln for ln in text.splitlines() if ln.startswith(f"{key} = ")
        )
        bad = tmp_path / "nan.txt"
        bad.write_text(text.replace(target, f"{key} = nan"))
        code = main(["verify", ref_doc, "--cert", str(bad),
                     "--traj", str(solve_dir / "trajectory.csv")])
        assert code == 5
        assert "violation:" in capsys.readouterr().out

    def test_requires_both_inputs(self, ref_doc, cert_file, capsys):
        assert main(["verify", ref_doc, "--cert", cert_file]) == 64
        assert main(["verify", ref_doc, "--traj", "whatever.csv"]) == 64

    def test_wrong_columns_rejected(self, ref_doc, cert_file, tmp_path,
                                    capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x1,V,W\n0,1,1,0\n")
        code = main(["verify", ref_doc, "--cert", cert_file,
                     "--traj", str(bad)])
        assert code == 64
        assert "does not match" in capsys.readouterr().err


class TestRejectedDocumentValues:
    # values the problem or the shooting configuration rejects: each must
    # be a usage error that names the value, not a traceback
    @pytest.mark.parametrize("command,line,edit,extra,named", [
        ("certify", "grid = 201", "grid = 5", [], "window, got 5"),
        ("certify", "t_minus = -40", "t_minus = 5", [], "window (5, 40)"),
        ("certify", "w_minus = -0.02", "w_minus = 0.01", [],
         "w_minus = 0.01"),
        ("certify", "v0 = 0.02", "v0 = -1", [], "v0 must be positive, got -1"),
        ("certify", "seed = 42", "seed = -1", [],
         "seed must be non-negative, got -1"),
        ("solve", "tol = 1e-8", "tol = 0", [],
         "integrator_tol must be positive, got 0"),
        ("certify", None, None, ["--grid", "5"], "window, got 5"),
        ("certify", None, None, ["--window=3,4"], "window (3, 4)"),
    ])
    def test_rejected_value_is_usage_error(
        self, ref_doc, cert_file, tmp_path, capsys,
        command, line, edit, extra, named,
    ):
        doc = tmp_path / "edited.problem"
        text = open(ref_doc).read()
        if line is not None:
            assert text.count(f"\n{line}\n") == 1
            text = text.replace(f"\n{line}\n", f"\n{edit}\n")
        doc.write_text(text)
        argv = [command, str(doc)] + extra
        if command == "solve":
            argv += ["--cert", cert_file, "--out", str(tmp_path / "run")]
        assert main(argv) == 64
        assert named in capsys.readouterr().err


class TestCertificateConstants:
    # each edit puts one growth constant outside the family's range:
    # c3 <= 0, c2^2 >= v0 (v0 = 0.02 here), sigma outside (0, 1]
    @pytest.mark.parametrize("key,value", [
        ("cert.c3", "-1"),
        ("cert.c2", "1"),
        ("cert.sigma", "1.5"),
    ])
    @pytest.mark.parametrize("command", ["verify", "solve"])
    def test_out_of_range_constant_is_usage_error(
        self, ref_doc, cert_file, solve_dir, tmp_path, capsys,
        command, key, value,
    ):
        text = open(cert_file).read()
        target = next(
            ln for ln in text.splitlines() if ln.startswith(f"{key} = ")
        )
        bad = tmp_path / "bad-constants.txt"
        bad.write_text(text.replace(target, f"{key} = {value}"))
        if command == "verify":
            argv = ["verify", ref_doc, "--cert", str(bad),
                    "--traj", str(solve_dir / "trajectory.csv")]
        else:
            argv = ["solve", ref_doc, "--cert", str(bad),
                    "--out", str(tmp_path / "run")]
        assert main(argv) == 64
        assert f"key '{key}'" in capsys.readouterr().err


class TestReport:
    def test_renders_table(self, cert_file, capsys):
        assert main(["report", cert_file]) == 0
        out = capsys.readouterr().out
        assert "condition" in out and "(V* )" in out

    def test_csv_output(self, cert_file, capsys):
        assert main(["report", cert_file, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "key,value"

    def test_reads_csv_input(self, cert_file, tmp_path, capsys):
        assert main(["report", cert_file, "--format", "csv"]) == 0
        csv_path = tmp_path / "cert.csv"
        csv_path.write_text(capsys.readouterr().out)
        assert main(["report", str(csv_path)]) == 0
        assert "condition" in capsys.readouterr().out

    def test_empty_file_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main(["report", str(empty)]) == 64


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_no_arguments(self, capsys):
        assert main([]) == 64

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 64

    def test_options_only_on_their_subcommand(self, ref_doc, cert_file,
                                              solve_dir, capsys):
        # --sigma, --grid and --seed belong to certify, --tol to solve,
        # --window to certify and solve, --format to report
        verify = ["verify", ref_doc, "--cert", cert_file,
                  "--traj", str(solve_dir / "trajectory.csv")]
        solve = ["solve", ref_doc, "--cert", cert_file,
                 "--out", str(solve_dir)]
        for extra in (["--sigma", "0.5"], ["--grid", "101"], ["--seed", "1"],
                      ["--tol", "1e-9"], ["--window=-30,30"]):
            assert main(verify + extra) == 64
        for extra in (["--sigma", "0.5"], ["--grid", "101"], ["--seed", "1"]):
            assert main(solve + extra) == 64
        assert main(["certify", ref_doc, "--tol", "1e-9"]) == 64
        assert main(["certify", ref_doc, "--format", "csv"]) == 64

    @pytest.mark.parametrize("command,extra", [
        ("certify", ["--sigma", "0"]),
        ("certify", ["--sigma", "-1"]),
        ("certify", ["--sigma", "1.5"]),
        ("certify", ["--grid", "0"]),
        ("solve", ["--tol", "0"]),
    ])
    def test_out_of_range_override_is_usage_error(
        self, ref_doc, cert_file, tmp_path, capsys, command, extra,
    ):
        # a zero override is applied, not mistaken for "no override"
        argv = [command, ref_doc] + extra
        if command == "solve":
            argv += ["--cert", cert_file, "--out", str(tmp_path / "run")]
        assert main(argv) == 64
        assert f"got {extra[-1]}" in capsys.readouterr().err

    def _run_module(self, *args):
        # the process exit status is what a shell sees: main()'s return
        # value passed through sys.exit under ``python -m vwbound.cli``
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, "-m", "vwbound.cli", *args],
            capture_output=True, env=env, timeout=120,
        )

    def test_module_help_exits_zero(self):
        proc = self._run_module("--help")
        assert proc.returncode == 0
        assert b"certify" in proc.stdout

    def test_module_missing_problem_file_exits_64(self, tmp_path):
        proc = self._run_module("certify", str(tmp_path / "nope.problem"))
        assert proc.returncode == 64
        assert b"nope.problem" in proc.stderr

    def test_console_script_installed(self):
        exe = shutil.which("vwbound")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--help"], capture_output=True)
        assert proc.returncode == 0
        assert b"certify" in proc.stdout


class TestRuntimeImports:
    def test_pipeline_runs_without_scipy(self, solve_dir, tmp_path):
        # scipy is a test dependency only: importing the CLI, certifying,
        # verifying and locating an event must not load any part of it
        script = textwrap.dedent(f"""
            import sys
            import numpy as np
            import vwbound.cli
            from vwbound.ode import EventSpec, integrate

            doc = {str(SADDLE_DOC)!r}
            cert = {str(tmp_path / "cert.txt")!r}
            traj = {str(solve_dir / "trajectory.csv")!r}
            assert vwbound.cli.main(["certify", doc, "--out", cert]) == 2
            assert vwbound.cli.main(
                ["verify", doc, "--cert", cert, "--traj", traj]) == 0
            run = integrate(lambda t, x: x, 0.0, np.array([1.0]), 3.0,
                            events=[EventSpec("two", lambda t, x: x[0] - 2.0)])
            assert run.status == "event:two"
            print(sorted(m for m in sys.modules
                         if m == "scipy" or m.startswith("scipy.")))
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestNonlinear:
    """State-dependent A: certify fits the growth pair on sampled states
    instead of the state-free fast path."""

    def test_pipeline_exit_codes(self, tmp_path, capsys):
        doc = str(NONLINEAR_DOC)
        cert = tmp_path / "cert.txt"
        run = tmp_path / "run"
        assert main(["certify", doc, "--out", str(cert)]) == 2
        assert main(["solve", doc, "--cert", str(cert),
                     "--out", str(run)]) == 0
        assert main(["verify", doc, "--cert", str(cert),
                     "--traj", str(run / "trajectory.csv")]) == 0
        assert "verify pass" in capsys.readouterr().out

    def test_same_text_as_benchmark_workload(self):
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        assert NONLINEAR_DOC.read_text() == workloads.nonlinear_text(ROOT)
