"""Command-line contract: subcommands, exit codes, emitted files."""

import importlib.util
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from vwbound import cli, shooting
from vwbound.cli import main
from vwbound.errors import DocumentError, NoSignChange
from vwbound.expr import MAX_DEPTH
from vwbound.ode import (
    EventRecord,
    Trajectory,
    eval_v_w_along,
    integrate,
    make_region_events,
    write_trajectory_csv,
)
from vwbound.problemdoc import load_problem_document
from vwbound.quadratic import (
    MAX_GRID,
    MAX_SAMPLE_BLOCK,
    sample_region_states,
)
from vwbound.report import FORMAT_TAG, RunReport, certificate_from_report

from conftest import rotated_saddle
from test_expr import DEPTH_SHAPES

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


@pytest.fixture(scope="module")
def nonlinear_solve_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("nonlinear")
    cert = out / "cert.txt"
    assert main(["certify", str(NONLINEAR_DOC), "--out", str(cert)]) == 2
    assert main(["solve", str(NONLINEAR_DOC), "--cert", str(cert),
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

    def test_refuses_a_solve_report_as_certificate(self, ref_doc, solve_dir,
                                                   tmp_path, capsys):
        # its solution.* block would be written a second time after it
        out = tmp_path / "again"
        assert main(["solve", ref_doc, "--cert",
                     str(solve_dir / "solve-report.txt"),
                     "--out", str(out)]) == 64
        err = capsys.readouterr().err
        assert "not a certificate" in err
        assert "key 'solution.exit.code'" in err
        assert not out.exists()

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

    def test_window_without_grid_nodes_is_a_usage_error(
        self, ref_doc, cert_file, tmp_path, capsys,
    ):
        # the walk converges on (-11.9, 0.05), but the trajectory grid
        # [T- + SETTLE, T+] holds no node: no quilt can be assembled
        out = tmp_path / "run"
        code = main(["solve", ref_doc, "--cert", cert_file,
                     "--window=-11.9,0.05", "--out", str(out)])
        assert code == 64
        assert capsys.readouterr().err == (
            "error: the window (-11.9, 0.05) leaves no trajectory node in "
            "[T- + SETTLE, T+] = [0.1, 0.05] (SETTLE = 12) — key 'window'\n")
        assert not out.exists()

    @pytest.mark.parametrize("window", ["-40,60", "-50,40"])
    def test_window_outside_the_certificate_is_a_usage_error(
        self, ref_doc, cert_file, tmp_path, capsys, window,
    ):
        # the certificate says nothing past its own window (+-40 here);
        # the refusal comes before the search and leaves no directory
        out = tmp_path / "run"
        code = main(["solve", ref_doc, "--cert", cert_file,
                     f"--window={window}", "--out", str(out)])
        assert code == 64
        lo, hi = window.split(",")
        assert capsys.readouterr().err == (
            f"error: the window ({lo}, {hi}) leaves the certificate's window "
            "(-40, 40) — key 'window'\n")
        assert not out.exists()

    def test_unavailable_xi_is_named(self, ref_doc, cert_file, tmp_path,
                                     capsys, monkeypatch):
        # an xi orbit that does not reach 0 inside the region stops the
        # walk; why is part of the exit-4 message
        def undecided(qp, start, run, events):
            return Trajectory(ts=np.array([start.t, 0.0]),
                              xs=np.zeros((2, qp.n)), status="undecided")

        monkeypatch.setattr(shooting, "_pair_xi", undecided)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        code = main(["solve", ref_doc, "--cert", cert_file,
                     "--out", str(tmp_path)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("solve failed: xi increments never dropped")
        assert ("the orbit from t_j = -5 does not reach 0 inside the region "
                "(undecided at t = 0), so xi_1 is unavailable\n") in err
        rep = RunReport.load(tmp_path / "solve-report.txt")
        assert f"solve failed: {rep.get('solution.error')}\n" == err


    def test_failed_rung_in_a_worker_exits_as_in_one_process(
        self, ref_doc, cert_file, tmp_path, capsys, monkeypatch,
    ):
        # the search at t = -10 fails; with two processes it runs in the
        # forked worker, and solve must still fail where it reads that rung
        raised_in = tmp_path / "raised-in"
        search = shooting.find_trapped_start

        def failing(qp, t, *args, **kwargs):
            if t == -10.0:
                with open(raised_in, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
                raise NoSignChange(f"both bracket ends exit with chart side "
                                   f"+1 at t_j = {t:g}", side=1.0)
            return search(qp, t, *args, **kwargs)

        monkeypatch.setattr(shooting, "find_trapped_start", failing)
        outcomes = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=cpus: set(range(n)))
            out = tmp_path / f"cpus{cpus}"
            code = main(["solve", ref_doc, "--cert", cert_file,
                         "--out", str(out)])
            outcomes.append((code, capsys.readouterr(),
                             (out / "solve-report.txt").read_text()))
        assert outcomes[0] == outcomes[1]
        code, captured, _ = outcomes[0]
        assert code == 4
        assert captured.err == ("solve failed: both bracket ends exit with "
                                "chart side +1 at t_j = -10\n")
        here, worker = raised_in.read_text().split()
        assert here == str(os.getpid()) != worker

    def test_search_step_totals_are_the_probes(
        self, nonlinear_solve_dir, tmp_path, capsys, monkeypatch,
    ):
        # on one CPU every probe runs here, where a wrapper can add up its
        # counters; two CPUs write the same totals, though half the
        # probes then run in the forked worker.  A state-dependent A, so
        # that every probe is integrated
        doc = str(NONLINEAR_DOC)
        cert = str(nonlinear_solve_dir / "cert.txt")
        classify = shooting.classify_start
        seen = [0, 0, 0]  # probes, accepted, rejected

        def counting(*args, **kwargs):
            res = classify(*args, **kwargs)
            seen[0] += 1
            if res.traj is not None:
                seen[1] += res.traj.n_accepted
                seen[2] += res.traj.n_rejected
            return res

        monkeypatch.setattr(shooting, "classify_start", counting)
        totals = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=cpus: set(range(n)))
            out = tmp_path / f"cpus{cpus}"
            assert main(["solve", doc, "--cert", cert,
                         "--out", str(out)]) == 0
            rep = RunReport.load(out / "solve-report.txt")
            rungs = [f"stats.shooting.rung.{i}" for i in
                     range(1, rep.get_int("stats.shooting.rungs") + 1)]
            totals.append([sum(rep.get_int(f"{r}.{key}") for r in rungs)
                           for key in ("iterations", "steps_accepted",
                                       "steps_rejected")])
            if cpus == 1:
                assert totals[0] == seen
        capsys.readouterr()
        assert totals[0] == totals[1]
        assert 0 < seen[0] < seen[1]

    def test_nonlinear_search_steps(self, nonlinear_solve_dir):
        # a count, not a time: the restarted probes integrate ~4 000 steps
        # per rung (57 121 in all; 88 503 when every probe ran from its
        # rung's time) in the same ~731 halvings
        rep = RunReport.load(nonlinear_solve_dir / "solve-report.txt")
        rungs = [f"stats.shooting.rung.{i}" for i in
                 range(1, rep.get_int("stats.shooting.rungs") + 1)]
        steps = sum(rep.get_int(f"{r}.steps_accepted") for r in rungs)
        iterations = sum(rep.get_int(f"{r}.iterations") for r in rungs)
        assert steps <= 65_000
        assert abs(iterations - 731) <= 0.05 * 731

    @staticmethod
    def column_and_verifys(request, ref_doc, run, offset, name):
        # a value column of the solve's CSV (offset 1 is V, 2 is W) and the
        # same curve as verify computes it at the CSV's nodes
        out = request.getfixturevalue(run)
        doc = ref_doc if run == "solve_dir" else str(NONLINEAR_DOC)
        qp = load_problem_document(doc).to_problem()
        path = out / "trajectory.csv"
        rows = [row.split(",") for row in path.read_text().splitlines()[1:]
                if not row.startswith("#")]
        column = np.array([float(row[qp.n + offset]) for row in rows])
        traj = cli._read_trajectory_csv(path, qp.n)
        assert column.size == traj.ts.size > 3000
        return column, getattr(eval_v_w_along(qp, traj), name)

    @pytest.mark.parametrize("run", ["solve_dir", "nonlinear_solve_dir"],
                             ids=["saddle", "nonlinear"])
    def test_v_column_is_verifys_v(self, request, ref_doc, run):
        # the V column that solve writes is the V that verify computes at
        # each node, bit for bit
        column, v = self.column_and_verifys(request, ref_doc, run, 1, "v")
        assert column.tobytes() == v.tobytes()

    @pytest.mark.parametrize("run", ["solve_dir", "nonlinear_solve_dir"],
                             ids=["saddle", "nonlinear"])
    def test_w_column_is_verifys_w(self, request, ref_doc, run):
        # and the W column the W that verify computes
        column, w = self.column_and_verifys(request, ref_doc, run, 2, "w")
        assert column.tobytes() == w.tobytes()

    def test_report_stats_leave_the_certificate_alone(self, cert_file,
                                                      solve_dir):
        solved = RunReport.load(solve_dir / "solve-report.txt")
        assert solved.get_int("stats.shooting.rungs") == 14
        assert solved.get_int("stats.sampling.calls") == 0
        # the sampler's counts, changed or gone, change nothing either
        text = solved.to_text()
        assert text.count("stats.sampling.") == 4
        changed = RunReport.from_text("".join(
            ln.rsplit("=", 1)[0] + "= 7\n"
            if ln.startswith("stats.sampling.") else ln
            for ln in text.splitlines(keepends=True)))
        gone = RunReport.from_text("".join(
            ln for ln in text.splitlines(keepends=True)
            if not ln.startswith("stats.sampling.")))
        a = certificate_from_report(RunReport.load(cert_file))
        for rep in (solved, changed, gone):
            b = certificate_from_report(rep)
            assert repr(a) == repr(b)
            for name in ("ts", "lam_plus", "lam_minus", "lam_mp", "alpha",
                         "ceiling"):
                assert getattr(a, name).tobytes() == getattr(
                    b, name).tobytes()


class TestVerify:
    def test_passes_on_solver_output(self, ref_doc, cert_file, solve_dir,
                                     capsys):
        code = main(["verify", ref_doc, "--cert", cert_file,
                     "--traj", str(solve_dir / "trajectory.csv")])
        assert code == 0
        assert "pass" in capsys.readouterr().out

    def test_segment_above_v0_runs_the_growth_clock(self, ref_doc, cert_file,
                                                    tmp_path, capsys):
        # a solution segment that starts in the region above v0, as a
        # CSV: verify evaluates the growth clock at its nodes and passes
        qp = load_problem_document(ref_doc).to_problem()
        cert = certificate_from_report(RunReport.load(cert_file))
        rng = np.random.default_rng(5)
        _, states = sample_region_states(qp, [-10.0], rng, 1,
                                         1.02 * cert.v0, 1.5 * cert.v0)
        traj = integrate(qp.rhs, -10.0, states[0], 0.0, tol=1e-9,
                         events=make_region_events(
                             qp.quad_w, qp.quad_v, qp.w_plus, qp.w_minus,
                             cert.v0, cert.v_star))
        csv_path, out = tmp_path / "segment.csv", tmp_path / "verify.txt"
        write_trajectory_csv(csv_path, traj, [
            qp.quad_v(t, x) for t, x in zip(traj.ts, traj.xs)], [
            qp.quad_w(t, x) for t, x in zip(traj.ts, traj.xs)])
        assert main(["verify", ref_doc, "--cert", cert_file, "--traj",
                     str(csv_path), "--out", str(out)]) == 0
        assert "verify pass" in capsys.readouterr().out
        rep = RunReport.load(out)
        assert rep.get_int("verify.clock_nodes") > 0
        assert rep.get_float("verify.clock_margin") > 0.0

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

    def test_node_past_the_certificate_grid_is_a_violation(
            self, ref_doc, cert_file, solve_dir, tmp_path, capsys):
        # the certificate's grid ends at 40, so a node at t = 1000 has no
        # ceiling; the node at 40 keeps the last interval's, and a file
        # reaching past the grid is not a subwindow
        text = (solve_dir / "trajectory.csv").read_text()
        assert text.splitlines()[-1].startswith("40,")
        bad, out = tmp_path / "past.csv", tmp_path / "verify.txt"
        bad.write_text(text + "1000,-0.05,0.05,0.005,0\n")
        code = main(["verify", ref_doc, "--cert", cert_file,
                     "--traj", str(bad), "--out", str(out)])
        assert code == 5
        assert ("violation: 1 of the 3402 nodes lie outside the certificate "
                "grid [-40, 40], where no ceiling is certified"
                in capsys.readouterr().out)
        rep = RunReport.load(str(out))
        assert rep.get_float("verify.coverage.hi") == 1000.0
        assert not any("subwindow" in rep.get(key) for key in rep.keys()
                       if key.startswith("verify.note"))

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

    @pytest.mark.parametrize("order", ["reversed", "first three repeated"])
    def test_times_must_strictly_increase(self, ref_doc, cert_file,
                                          solve_dir, tmp_path, capsys,
                                          order):
        # solve writes strictly increasing times; a file whose times run
        # backwards or repeat is refused at its first such row, not
        # checked as a trajectory covering [40, -28]
        header, *rows = (solve_dir / "trajectory.csv").read_text().splitlines()
        if order == "reversed":
            rows = rows[::-1]
        else:  # each of the first three rows twice running
            rows = [row for row in rows[:3] for _ in "ab"] + rows[3:]
        bad = tmp_path / "unordered.csv"
        bad.write_text("\n".join([header] + rows) + "\n")
        code = main(["verify", ref_doc, "--cert", cert_file,
                     "--traj", str(bad)])
        assert code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trajectory times must strictly increase" in captured.err
        assert "line 3" in captured.err

    def test_refuses_a_solve_or_verify_report_as_certificate(
            self, ref_doc, cert_file, solve_dir, tmp_path, capsys):
        traj = str(solve_dir / "trajectory.csv")
        verified = tmp_path / "verify.txt"
        assert main(["verify", ref_doc, "--cert", cert_file, "--traj", traj,
                     "--out", str(verified)]) == 0
        capsys.readouterr()
        for report, key in ((verified, "verify.exit.code"),
                            (solve_dir / "solve-report.txt",
                             "solution.exit.code")):
            again = tmp_path / "again.txt"
            assert main(["verify", ref_doc, "--cert", str(report),
                         "--traj", traj, "--out", str(again)]) == 64
            captured = capsys.readouterr()
            assert f"key {key!r}" in captured.err and captured.out == ""
            assert not again.exists()

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


def _read_rows_oracle(path, n: int) -> Trajectory:
    """The trajectory reader as it was before the one-pass parse, kept
    verbatim as the oracle the one-pass reader must agree with."""
    ts, xs = [], []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    with fh:
        header = fh.readline().strip()
        cols = header.split(",")
        expected = ["t"] + [f"x{i}" for i in range(1, n + 1)] + ["V", "W"]
        if cols != expected:
            raise DocumentError(
                f"trajectory header {header!r} does not match the "
                f"{n}-state layout {','.join(expected)!r}",
                line=1,
            )
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != n + 3:
                raise DocumentError(
                    f"expected {n + 3} columns, got {len(parts)}",
                    line=line_no,
                )
            try:
                values = [float(p) for p in parts]
            except ValueError:
                raise DocumentError(
                    f"non-numeric value in row: {line!r}", line=line_no
                ) from None
            if not all(map(math.isfinite, values)):
                raise DocumentError(
                    f"non-finite value in row: {line!r}", line=line_no
                )
            if ts and not values[0] > ts[-1]:
                raise DocumentError("trajectory times must strictly "
                                    "increase", line=line_no)
            ts.append(values[0])
            xs.append(values[1:n + 1])
    if not ts:
        raise DocumentError(f"trajectory {path} has no data rows")
    return Trajectory(
        ts=np.asarray(ts), xs=np.asarray(xs), events=[],
        status="reached_end",
    )


def _read_outcome(reader, path, n):
    """What ``reader`` makes of ``path``: the nodes' bits, shapes and
    layout, or the error's type, text and line."""
    try:
        traj = reader(path, n)
    except DocumentError as exc:
        return ("DocumentError", str(exc), exc.line)
    except UnicodeDecodeError as exc:
        return ("UnicodeDecodeError", str(exc))
    arrays = (traj.ts, traj.xs)
    return tuple((a.dtype, a.shape, a.flags.c_contiguous, a.tobytes())
                 for a in arrays) + (traj.events, traj.status)


def _events_between_rows(text):
    header, *rows = text.splitlines()
    event = "#event,W_hits_wplus,1.5,0.25,-0.25"
    return "\n".join([header, event, rows[0], event, *rows[1:], event]) + "\n"


def _spaced(text):
    header, *rows = text.splitlines()
    return "\n".join([" " + header + "  "] + [
        " " + " , ".join(row.split(",")) + "\t" for row in rows]) + "\n"


def _blank_lines(text):
    header, *rows = text.splitlines()
    return "\n".join([header, "", rows[0], "   ", *rows[1:], "", ""])


def _edit_cell(row, col, value):
    def edit(text):
        lines = text.splitlines()
        cells = lines[row].split(",")
        cells[col] = value
        lines[row] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return edit


def _edit_line(row, make):
    def edit(text):
        lines = text.splitlines()
        lines[row] = make(lines[row])
        return "\n".join(lines) + "\n"
    return edit


# each edit maps a solve CSV's text to the text (or bytes) under test
_WELL_FORMED = {
    "as written": lambda text: text,
    "event lines": _events_between_rows,
    "CRLF": lambda text: text.replace("\n", "\r\n"),
    "CR": lambda text: text.replace("\n", "\r"),
    "no final newline": lambda text: text.rstrip("\n"),
    "blank lines": _blank_lines,
    "spaces around fields": _spaced,
    "underscore digits": _edit_cell(5, 1, "1_0"),
    "Arabic-Indic digits": _edit_cell(5, 2, "\u0661\u0662"),
    "signed zero and subnormal": _edit_line(7, lambda row: ",".join(
        [row.split(",")[0], "-0.0", "5e-324", *row.split(",")[3:]])),
    "huge V and W": _edit_line(
        3, lambda row: ",".join(row.split(",")[:-2] + ["1e308", "-1e308"])),
}
_MALFORMED = {
    "wrong header": lambda text: text.replace("t,x1,x2", "t,y1,y2", 1),
    "header only": lambda text: text.splitlines()[0] + "\n",
    "empty file": lambda text: "",
    "only events": lambda text: text.splitlines()[0]
        + "\n#event,W_hits_wplus,1,2,3\n\n",
    "ragged row": _edit_line(9, lambda row: row + ",1"),
    "short row": _edit_line(9, lambda row: row.rsplit(",", 1)[0]),
    "trailing comma": _edit_line(9, lambda row: row + ","),
    "empty field": _edit_cell(9, 2, ""),
    "abc": _edit_cell(9, 1, "abc"),
    "hex": _edit_cell(9, 1, "0x10"),
    "space inside a field": _edit_cell(9, 1, "1 2"),
    "nan state": _edit_cell(9, 1, "nan"),
    "nan time": _edit_cell(9, 0, "nan"),
    "inf state": _edit_cell(9, 2, "inf"),
    "overflowing state": _edit_cell(9, 2, "1e999"),
    "nan(1)": _edit_cell(9, 2, "nan(1)"),
    "non-finite V": _edit_cell(9, 3, "-inf"),
    "equal times": lambda text: _edit_cell(
        9, 0, text.splitlines()[8].split(",")[0])(text),
    "decreasing times": lambda text: "\n".join(
        [text.splitlines()[0]] + text.splitlines()[:0:-1]) + "\n",
    "bad row then ragged row": lambda text: _edit_line(
        20, lambda row: row + ",1")(_edit_cell(9, 1, "abc")(text)),
    # one field moves from row 10 to the end of row 9, where it holds row
    # 10's time: the field count and the times hold, the rows do not
    "long row then short row": lambda text: "\n".join(
        text.splitlines()[:9]
        + [text.splitlines()[9] + "," + text.splitlines()[10].split(",")[0],
           text.splitlines()[10].rsplit(",", 1)[0]]
        + text.splitlines()[11:]) + "\n",
}
_EDITS = {**_WELL_FORMED, **_MALFORMED}


class TestTrajectoryReader:
    """``cli._read_trajectory_csv`` reads the file once, parses well-formed
    text in one pass and scans any other text for its first bad line;
    either way it returns what the row loop it replaced returns, bit for
    bit, or raises its error."""

    @pytest.fixture(params=["saddle", "nonlinear"])
    def solve_csv(self, request, solve_dir, nonlinear_solve_dir):
        run = solve_dir if request.param == "saddle" else nonlinear_solve_dir
        return (run / "trajectory.csv").read_text()

    @pytest.mark.parametrize("edit", _EDITS)
    def test_agrees_with_the_row_loop(self, solve_csv, tmp_path, edit):
        changed = _EDITS[edit](solve_csv)
        path = tmp_path / "edited.csv"
        path.write_bytes(changed.encode("utf-8"))
        expected = _read_outcome(_read_rows_oracle, path, 2)
        assert _read_outcome(cli._read_trajectory_csv, path, 2) == expected
        assert (expected[0] == "DocumentError") == (edit in _MALFORMED)

    def test_well_formed_files_take_the_one_pass(self, solve_csv, tmp_path,
                                                 monkeypatch):
        def refuse(lines, n, path):
            raise AssertionError("the line scan read a well-formed file")

        monkeypatch.setattr(cli, "_first_bad_line", refuse)
        for name, edit in _WELL_FORMED.items():
            path = tmp_path / "edited.csv"
            path.write_text(edit(solve_csv), encoding="utf-8", newline="")
            assert cli._read_trajectory_csv(path, 2).ts.size > 0, name

    @pytest.mark.parametrize("at", ["first line", "late row"])
    def test_undecodable_bytes(self, solve_csv, tmp_path, at):
        # where the reader departs from the row loop, which let a
        # UnicodeDecodeError out: it names the file, the byte and its line
        data = solve_csv.encode("utf-8")
        cut = data.index(b"\n") if at == "first line" else len(data) - 40
        path = tmp_path / "latin1.csv"
        path.write_bytes(data[:cut] + b"\xe9" + data[cut:])
        assert _read_outcome(_read_rows_oracle, path, 2)[0] == \
            "UnicodeDecodeError"
        line = data.count(b"\n", 0, cut) + 1
        assert _read_outcome(cli._read_trajectory_csv, path, 2) == (
            "DocumentError",
            f"cannot read {path}: byte {cut} is not UTF-8 (invalid "
            f"continuation byte) — line {line}", line)

    @pytest.mark.parametrize("edit", ["as written", "ragged row"])
    def test_opens_the_file_once(self, solve_csv, tmp_path, monkeypatch,
                                 edit):
        # a well-formed file and one the line scan refuses alike
        path = tmp_path / "edited.csv"
        path.write_text(_EDITS[edit](solve_csv), encoding="utf-8")
        opened = []
        real_open = open

        def counting(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting)
        try:
            cli._read_trajectory_csv(path, 2)
        except DocumentError:
            assert edit == "ragged row"
        assert opened == [str(path)]

    def test_missing_file(self, tmp_path):
        path = tmp_path / "missing.csv"
        assert (_read_outcome(cli._read_trajectory_csv, path, 2)
                == _read_outcome(_read_rows_oracle, path, 2))

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_written_nodes_read_back_bit_for_bit(self, tmp_path, n):
        # random finite doubles of every magnitude, subnormals and signed
        # zeros included, as states; strictly increasing times
        rng = np.random.default_rng(n)
        bits = rng.integers(0, 2**64, size=4000, dtype=np.uint64)
        pool = bits.view(np.float64)
        pool = pool[np.isfinite(pool)]
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   1.7976931348623157e308, -1.7976931348623157e308, 0.1]
        ts = np.unique(np.concatenate([pool[:300], special]))
        xs = rng.choice(np.concatenate([pool, special]), size=(ts.size, n))
        xs[:len(special), 0] = special
        traj = Trajectory(ts=ts, xs=xs, events=[
            EventRecord("W_hits_wplus", float(ts[1]), xs[1])])
        path = tmp_path / "nodes.csv"
        write_trajectory_csv(path, traj, np.zeros(ts.size), np.ones(ts.size))
        back = cli._read_trajectory_csv(path, n)
        assert back.ts.tobytes() == ts.tobytes()
        assert back.xs.tobytes() == xs.tobytes()
        assert _read_outcome(_read_rows_oracle, path, n) == _read_outcome(
            cli._read_trajectory_csv, path, n)


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
         "integrator_tol must lie in [1e-12, 0.001], got 0"),
        ("certify", None, None, ["--grid", "5"], "window, got 5"),
        ("certify", None, None, ["--window=3,4"], "window (3, 4)"),
        # a width that overflows, from the document or the flag
        ("certify", "t_minus = -40\nt_plus = 40",
         "t_minus = -1e308\nt_plus = 1e308", [],
         "window (-1e+308, 1e+308) must have a finite width"),
        ("certify", None, None, ["--window=-1e308,1e308"],
         "window (-1e+308, 1e+308) must have a finite width"),
        ("solve", None, None, ["--window=-1e308,1e308"],
         "window (-1e+308, 1e+308) must have a finite width"),
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
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err


    # outside the integrator's range, from the document or the flag
    @pytest.mark.parametrize("edit,extra", [
        ("tol = 1", []),
        ("tol = 1e-13", []),
        (None, ["--tol=inf"]),
        (None, ["--tol=1e-300"]),
    ], ids=["doc-1", "doc-1e-13", "flag-inf", "flag-1e-300"])
    def test_tol_outside_the_integrator_range(
        self, ref_doc, cert_file, tmp_path, capsys, edit, extra,
    ):
        doc = tmp_path / "edited.problem"
        text = open(ref_doc).read()
        if edit is not None:
            text = text.replace("\ntol = 1e-8\n", f"\n{edit}\n")
        doc.write_text(text)
        assert main(["solve", str(doc), "--cert", cert_file,
                     "--out", str(tmp_path / "run")] + extra) == 64
        err = capsys.readouterr().err
        assert "key 'tol'" in err and "must lie in [1e-12, 0.001]" in err
        assert "Traceback" not in err
        if edit is not None:  # certify does not read tol
            assert main(["certify", str(doc)]) == 2

    @pytest.mark.parametrize("command", ["certify", "solve"])
    @pytest.mark.parametrize("window", ["-inf,40", "-40,inf"])
    def test_non_finite_window(self, ref_doc, cert_file, tmp_path, capsys,
                               command, window):
        argv = [command, ref_doc, f"--window={window}"]
        if command == "solve":
            argv += ["--cert", cert_file, "--out", str(tmp_path / "run")]
        assert main(argv) == 64
        err = capsys.readouterr().err
        assert "must be finite" in err and "key 'window'" in err
        assert "Traceback" not in err


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

    @pytest.mark.parametrize("key,value", [
        ("cert.w_plus", "nan"),
        ("bound.v_small_star", "nan"),
        ("cert.c3", "inf"),
        ("problem.t_minus", "nan"),
        ("curve.ceiling", "inf"),
        ("curve.lam_mp", "nan"),
        ("curve.lam_mp", "-inf"),
    ])
    @pytest.mark.parametrize("command", ["verify", "solve"])
    def test_non_finite_certificate_value_is_a_usage_error(
        self, ref_doc, cert_file, solve_dir, tmp_path, capsys,
        command, key, value,
    ):
        # a malformed certificate is refused before any stage runs; an
        # array is refused for one bad entry
        lines = open(cert_file).read().splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith(f"{key} = "))
        head, numbers = lines[i].split(" = ", 1)
        numbers = numbers.split()
        numbers[len(numbers) // 2] = value
        lines[i] = f"{head} = {' '.join(numbers)}"
        bad = tmp_path / "non-finite.txt"
        bad.write_text("\n".join(lines) + "\n")
        if command == "verify":
            argv = ["verify", ref_doc, "--cert", str(bad),
                    "--traj", str(solve_dir / "trajectory.csv")]
        else:
            argv = ["solve", ref_doc, "--cert", str(bad),
                    "--out", str(tmp_path / "run")]
        assert main(argv) == 64
        err = capsys.readouterr().err
        assert f"not a finite number — key '{key}'" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value,code", [
        ("inf", 64), ("-inf", 64), ("nan", None),
    ])
    @pytest.mark.parametrize("command", ["verify", "solve"])
    def test_alpha_may_be_nan_but_not_infinite(
        self, ref_doc, cert_file, solve_dir, tmp_path, capsys,
        command, value, code,
    ):
        # nan is what certify writes at a grid time without sampled
        # states; a minimum of pencil values is never infinite
        lines = open(cert_file).read().splitlines()
        i = next(i for i, ln in enumerate(lines)
                 if ln.startswith("curve.alpha = "))
        numbers = lines[i].split(" = ", 1)[1].split()
        numbers[len(numbers) // 2] = value
        lines[i] = f"curve.alpha = {' '.join(numbers)}"
        bad = tmp_path / "alpha.txt"
        bad.write_text("\n".join(lines) + "\n")
        if command == "verify":
            argv = ["verify", ref_doc, "--cert", str(bad),
                    "--traj", str(solve_dir / "trajectory.csv")]
            expected = 0 if code is None else code
        else:
            # solve reads the certificate before its search; a bad
            # window makes the accepted case fail fast, after the read
            argv = ["solve", ref_doc, "--cert", str(bad),
                    "--window=-0.5,2", "--out", str(tmp_path / "run")]
            expected = 4 if code is None else code
        assert main(argv) == expected
        err = capsys.readouterr().err
        if code == 64:
            assert "value is infinite — key 'curve.alpha'" in err


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


class TestUndecodableInput:
    """A byte that is not UTF-8 in any input file is a document error
    (exit 64) naming the file and the line, not a traceback."""

    @staticmethod
    def _latin1(path, tmp_path):
        text = pathlib.Path(path).read_text(encoding="utf-8")
        cut = text.index("\n", text.index("\n") + 1)  # end of line 2
        bad = tmp_path / ("latin1-" + pathlib.Path(path).name)
        bad.write_bytes(text[:cut].encode() + b" # caf\xe9"
                        + text[cut:].encode())
        return str(bad)

    def _refused(self, argv, bad, capsys):
        assert main(argv) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {bad}: byte ")
        assert "is not UTF-8" in captured.err and "line 2" in captured.err

    def test_problem_document(self, ref_doc, tmp_path, capsys):
        bad = self._latin1(ref_doc, tmp_path)
        self._refused(["certify", bad], bad, capsys)

    def test_certificate(self, ref_doc, cert_file, tmp_path, capsys):
        bad = self._latin1(cert_file, tmp_path)
        self._refused(["solve", ref_doc, "--cert", bad, "--out",
                       str(tmp_path / "run")], bad, capsys)
        assert not (tmp_path / "run").exists()
        self._refused(["report", bad], bad, capsys)

    def test_trajectory(self, ref_doc, cert_file, solve_dir, tmp_path,
                        capsys):
        bad = self._latin1(solve_dir / "trajectory.csv", tmp_path)
        self._refused(["verify", ref_doc, "--cert", cert_file, "--traj",
                       bad], bad, capsys)


def _readme_flags():
    """``{subcommand: (positional, {flag names})}`` from the rows of
    README's Flags table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("\n### Flags\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+) ([A-Z]+)` \| (.*) \|$", table, re.M)
    return {command: (positional, set(re.findall(r"`--([a-z]+)", flags)))
            for command, positional, flags in rows}


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

    # every flag of README's Flags table, as "--f v" and as "--f=v", before
    # and after the positional; each value starts with "-"
    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, (_, flags) in _readme_flags().items()
        for flag in flags
    ])
    @pytest.mark.parametrize("spelling", ["space", "equals"])
    @pytest.mark.parametrize("where", ["before", "after"])
    def test_every_flag_is_accepted(self, command, flag, spelling, where):
        convert = cli.COMMANDS[command][3][flag][0]
        value = {int: "-3", float: "-0.5", str: "-10,10"}[convert]
        given = ([f"--{flag}", value] if spelling == "space"
                 else [f"--{flag}={value}"])
        argv = ([command] + given + ["doc"] if where == "before"
                else [command, "doc"] + given)
        handler, args = cli._parse(argv)
        assert handler is cli.COMMANDS[command][0]
        assert getattr(args, flag) == convert(value)
        assert getattr(args, cli.COMMANDS[command][2].lower()) == "doc"

    def test_last_occurrence_wins(self):
        _, args = cli._parse(["certify", "--grid", "5", "doc", "--grid=7"])
        assert args.grid == 7 and args.seed is None

    def test_window_value_may_start_with_a_minus(self, ref_doc, cert_file,
                                                 tmp_path):
        spaced, attached = tmp_path / "spaced.txt", tmp_path / "attached.txt"
        assert main(["certify", ref_doc, "--window", "-10,10",
                     "--out", str(spaced)]) == 2
        assert main(["certify", ref_doc, "--window=-10,10",
                     "--out", str(attached)]) == 2
        assert spaced.read_bytes() == attached.read_bytes()
        # the override took: the document's window is [-40, 40]
        assert spaced.read_bytes() != open(cert_file, "rb").read()

    # each exits 64 before any stage runs, naming what is wrong on stderr
    @pytest.mark.parametrize("extra,named", [
        (["--gr", "5"], "--gr"),                # an abbreviation
        (["--grid"], "--grid expects a value"),
        (["--out", "--grid", "5"], "--out expects a value"),
        (["second.problem"], "'second.problem'"),
        (["--grid", "x"], "--grid expects an integer, got 'x'"),
        (["--sigma=y"], "--sigma expects a number, got 'y'"),
        (["--tol", "1e-9"], "--tol"),           # solve's flag
        (["-x"], "-x"),
    ])
    def test_usage_error_names_the_flag(self, ref_doc, monkeypatch, capsys,
                                        extra, named):
        monkeypatch.setattr(cli, "load_problem_document",
                            lambda *a: pytest.fail("certify ran"))
        assert main(["certify", ref_doc] + extra) == 64
        out, err = capsys.readouterr()
        assert out == "" and named in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,named", [
        (["certify"], "certify requires PROBLEM"),
        (["report", "--format", "csv"], "report requires REPORT"),
        (["--out", "x", "certify"], "unknown subcommand '--out'"),
    ])
    def test_missing_positional_or_subcommand(self, capsys, argv, named):
        assert main(argv) == 64
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    @pytest.mark.parametrize("where", ["-h", "--help", "doc --help"])
    def test_subcommand_help_lists_its_flags_only(self, capsys, command,
                                                  where):
        assert main([command] + where.split()) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith(f"usage: vwbound {command} ")
        listed = {word[2:] for word in out.split() if word.startswith("--")
                  and word != "--help"}
        assert listed == set(cli.COMMANDS[command][3])

    def test_top_level_help_lists_every_subcommand(self, capsys):
        assert main(["-h"]) == 0
        out = capsys.readouterr().out
        assert all(f"\n  {command} " in out for command in cli.COMMANDS)

    def test_readme_lists_the_parser_flags(self):
        # README's Flags table names exactly each subcommand's positional
        # and flags, so the docs and the parser cannot drift apart
        assert _readme_flags() == {
            command: (positional, set(flags))
            for command, (_, _, positional, flags) in cli.COMMANDS.items()
        }

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


    @pytest.fixture(scope="class")
    def pipeline_modules(self, tmp_path_factory):
        """``sys.modules`` after ``import vwbound.cli`` and certify, solve
        and verify on saddle in one fresh interpreter."""
        tmp = tmp_path_factory.mktemp("pipeline")
        cert, run = tmp / "cert.txt", tmp / "run"
        script = textwrap.dedent(f"""
            import sys
            import vwbound.cli

            doc = {str(SADDLE_DOC)!r}
            cert, run = {str(cert)!r}, {str(run)!r}
            assert vwbound.cli.main(["certify", doc, "--out", cert]) == 2
            assert vwbound.cli.main(
                ["solve", doc, "--cert", cert, "--out", run]) == 0
            assert vwbound.cli.main(
                ["verify", doc, "--cert", cert,
                 "--traj", run + "/trajectory.csv"]) == 0
            print(" ".join(sorted(sys.modules)))
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.splitlines()[-1].split())

    def test_pipeline_leaves_numpy_polynomial_unimported(
        self, pipeline_modules,
    ):
        # milliseconds and ~1 MB of every start-up; the Gauss-Legendre
        # rule is a literal
        assert not {m for m in pipeline_modules
                    if m.startswith("numpy.polynomial")}

    def test_pipeline_leaves_argparse_unimported(self, pipeline_modules):
        # the command line is read against cli.COMMANDS; argparse would
        # bring gettext, and its first message lookup locale
        assert not pipeline_modules & {"argparse", "gettext", "locale"}


class TestWideWindow:
    def test_saddle_on_200(self, tmp_path, capsys):
        # the rungs stay MAX_SPACING = 5 apart however wide the window:
        # 78 of them on +-200, and the walk converges as on +-40
        cert, out = str(tmp_path / "cert.txt"), tmp_path / "run"
        doc = str(SADDLE_DOC)
        assert main(["certify", doc, "--window=-200,200", "--out", cert]) == 2
        assert main(["solve", doc, "--window=-200,200", "--cert", cert,
                     "--out", str(out)]) == 0
        assert main(["verify", doc, "--cert", cert,
                     "--traj", str(out / "trajectory.csv")]) == 0
        rep = RunReport.load(out / "solve-report.txt")
        assert rep.get_int("stats.shooting.rungs") == 78
        xi = [rep.get_float(f"solution.xi.{i}") for i in (1, 2)]
        assert np.max(np.abs(np.array(xi) - [-0.05, 0.05])) < 1e-6
        assert "verify pass" in capsys.readouterr().out


class TestRotatedSaddle:
    """A state-free A on three states with a t-dependent C: the benchmark's
    ``wide`` construction at n = 3, whose bounded solution has a closed
    form, solved by the closed-form probes."""

    def test_pipeline_finds_the_closed_form(self, tmp_path, capsys):
        text, xi = rotated_saddle(3, seed=1)
        doc = tmp_path / "rotated.problem"
        doc.write_text(text)
        cert, run = tmp_path / "cert.txt", tmp_path / "run"
        assert main(["certify", str(doc), "--out", str(cert)]) == 2
        assert main(["solve", str(doc), "--cert", str(cert),
                     "--out", str(run)]) == 0
        rep = RunReport.load(run / "solve-report.txt")
        got = np.array([rep.get_float(f"solution.xi.{i}") for i in (1, 2, 3)])
        assert np.max(np.abs(got - xi)) < 1e-6
        assert main(["verify", str(doc), "--cert", str(cert),
                     "--traj", str(run / "trajectory.csv")]) == 0
        assert "verify pass" in capsys.readouterr().out


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

    # the state-dependent demo samples at every grid time: samples below 1
    # and sizes past their bound are usage errors, raised when the problem
    # is built, before certify allocates the grid or a sampler round
    @pytest.mark.parametrize("grid,samples,named", [
        (51, 0, "samples must be at least 1, got 0"),
        (51, -1, "samples must be at least 1, got -1"),
        (MAX_GRID + 1, 16, f"at most {MAX_GRID} points, got {MAX_GRID + 1}"),
        (100000000000, 16, "got 100000000000"),
        # one candidate past the block: 101 x 9901 = 10^6 + 1
        (101, 9901, f"1000001 exceeds the {MAX_SAMPLE_BLOCK} candidates"),
    ])
    def test_sizes_rejected_before_certify(self, tmp_path, capsys,
                                           monkeypatch, grid, samples, named):
        monkeypatch.setattr(cli, "certify",
                            lambda *a, **k: pytest.fail("certify ran"))
        doc = tmp_path / "sized.problem"
        doc.write_text(NONLINEAR_DOC.read_text().replace(
            "grid = 51\n", f"grid = {grid}\n").replace(
            "samples = 16\n", f"samples = {samples}\n"))
        tracemalloc.start()
        try:
            assert main(["certify", str(doc)]) == 64
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        # np.linspace alone would take 745 GiB for the 1e11-point grid
        assert peak < 1e6
        # the flag is bounded as the document is
        assert main(["certify", str(NONLINEAR_DOC),
                     f"--grid={MAX_GRID + 1}"]) == 64

    @pytest.mark.parametrize("grid,samples", [(MAX_GRID, 16), (100, 10000)])
    def test_sizes_at_their_bound_reach_certify(self, tmp_path, monkeypatch,
                                                grid, samples):
        class Reached(Exception):
            pass

        def reached(qp, **kwargs):
            assert (qp.n_grid, qp.n_state_samples) == (grid, samples)
            raise Reached

        monkeypatch.setattr(cli, "certify", reached)
        doc = tmp_path / "sized.problem"
        doc.write_text(NONLINEAR_DOC.read_text().replace(
            "grid = 51\n", f"grid = {grid}\n").replace(
            "samples = 16\n", f"samples = {samples}\n"))
        with pytest.raises(Reached):
            main(["certify", str(doc)])


def _saddle_with(**entries):
    """The shipped saddle document with the given entries (``A_1_1``
    for ``A.1.1``) replaced or added."""
    text = SADDLE_DOC.read_text()
    for name, value in entries.items():
        key = name.replace("_", ".")
        line = next((ln for ln in text.splitlines()
                     if ln.startswith(f"{key} = ")), None)
        new = f'{key} = "{value}"'
        if line is None:
            section = "[system]" if key[0] in "Af" else "[guiding]"
            text = text.replace(f"{section}\n", f"{section}\n{new}\n")
        else:
            text = text.replace(line, new)
    return text


class TestEntrySizes:
    """No entry exits 1: one nested deeper than ``MAX_DEPTH`` levels, or a
    literal that overflows, exits 64 naming the matrix and the line; every
    shape at the bound certifies."""

    # the first four and 1e999 exit 1 at the parent commit: too many
    # nested parentheses, RecursionError, NameError: name 'inf'
    @pytest.mark.parametrize("entry,named", [
        ("+".join(["0.005"] * 200), "deeper than"),
        ("+".join(["0.001"] * 1000), "deeper than"),
        ("(" * 300 + "1" + ")" * 300, "deeper than"),
        ("1" + "^1" * 300, "deeper than"),
        ("+".join(["0.01"] * (MAX_DEPTH + 2)), "deeper than"),
        ("(" * (MAX_DEPTH + 1) + "1" + ")" * (MAX_DEPTH + 1), "deeper than"),
        ("1e999", "number 1e999 overflows a double (offset 0)"),
        ("1^1e999", "overflows a double (offset 2)"),
    ])
    def test_refused_with_exit_64(self, tmp_path, capsys, entry, named):
        doc = tmp_path / "entry.problem"
        doc.write_text(_saddle_with(A_1_1=entry))
        assert main(["certify", str(doc)]) == 64
        err = capsys.readouterr().err
        assert "matrix A fails to evaluate" in err and named in err
        assert "line 11" in err and "Traceback" not in err

    @pytest.mark.parametrize("shape", DEPTH_SHAPES)
    def test_each_shape_at_the_bound_certifies(self, tmp_path, capsys,
                                               shape):
        # in A and as a t-dependent off-diagonal entry of C, whose
        # derivative condition (e) reads, on a window where t^101 and
        # exp(t)^-98 stay far from overflow
        deep = DEPTH_SHAPES[shape](MAX_DEPTH)
        doc = tmp_path / "deep.problem"
        doc.write_text(_saddle_with(A_1_2=deep, C_1_2=deep, C_2_1=deep))
        assert main(["certify", str(doc), "--grid", "21",
                     "--window=-1,1"]) in (0, 2, 3)

    @pytest.mark.parametrize("shape", DEPTH_SHAPES)
    def test_each_shape_on_the_full_window(self, tmp_path, capsys, shape):
        # the same entries on saddle's window [-40, 40], where t^101 and
        # exp(t)^-98 overflow: a condition fails or holds, and no numpy
        # warning is raised (the suite turns a RuntimeWarning into an error)
        deep = DEPTH_SHAPES[shape](MAX_DEPTH)
        doc = tmp_path / "deep.problem"
        doc.write_text(_saddle_with(A_1_2=deep, C_1_2=deep, C_2_1=deep))
        assert main(["certify", str(doc), "--grid", "21"]) in (0, 2, 3)

    def test_overflowing_entry_fails_without_numpy_warnings(self, tmp_path):
        # B's off-diagonal reaches 4e201, so its pivot overflows: condition
        # (a) fails, and numpy's overflow warning stays off stderr
        doc = tmp_path / "huge.problem"
        doc.write_text(_saddle_with(B_1_2="1e200*t", B_2_1="1e200*t"))
        proc = TestUsage()._run_module("certify", str(doc))
        assert proc.returncode == 3, proc.stderr
        assert b"condition (a) failed" in proc.stderr
        assert b"RuntimeWarning" not in proc.stderr

    # 100 exp(t) factors: inf off the diagonal from t = -40 to -7.6, on
    # the full window
    @pytest.mark.parametrize("matrix,tag", [("C", "b"), ("B", "a")])
    def test_infinite_entry_names_matrix_and_time(self, tmp_path, capsys,
                                                  matrix, tag):
        quotient = DEPTH_SHAPES["quotient"](MAX_DEPTH)
        doc = tmp_path / "inf.problem"
        doc.write_text(_saddle_with(**{f"{matrix}_1_2": quotient,
                                       f"{matrix}_2_1": quotient}))
        out = tmp_path / "cert.txt"
        assert main(["certify", str(doc), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"condition ({tag}) failed: {matrix}(t = -40)"
                              ": entry (1, 2) = inf is not finite")
        assert RunReport.load(str(out)).get("failed.condition") == tag

    def test_folded_infinite_derivative_certifies(self, tmp_path, capsys):
        # B's derivative folds to the constant inf (a NameError before)
        doc = tmp_path / "inf.problem"
        doc.write_text(_saddle_with(B_1_1="1e200*t*1e200"))
        assert main(["certify", str(doc)]) == 3
        assert "condition (a) failed" in capsys.readouterr().err

    def test_negative_base_is_squared(self, tmp_path):
        # (-1)^2 is 1, so the document certifies as the shipped one does
        doc = tmp_path / "squared.problem"
        doc.write_text(_saddle_with(A_1_1="(-1)^2"))
        reports = []
        for source in (doc, SADDLE_DOC):
            out = tmp_path / "cert.txt"
            assert main(["certify", str(source), "--out", str(out)]) == 2
            reports.append([ln for ln in out.read_text().splitlines()
                            if not ln.startswith("problem.source = ")])
        assert reports[0] == reports[1]

    def test_entries_at_the_bound_from_a_fresh_interpreter(self, tmp_path):
        doc = tmp_path / "deep.problem"
        doc.write_text(_saddle_with(
            A_1_1=DEPTH_SHAPES["sum"](MAX_DEPTH),
            f0_1=DEPTH_SHAPES["calls"](MAX_DEPTH),
            C_1_2=DEPTH_SHAPES["quotient"](MAX_DEPTH),
            C_2_1=DEPTH_SHAPES["quotient"](MAX_DEPTH)))
        proc = TestUsage()._run_module("certify", str(doc), "--grid", "21",
                                       "--window=-1,1")
        assert proc.returncode in (0, 2, 3), proc.stderr
        assert b"Traceback" not in proc.stderr
