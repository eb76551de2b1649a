"""Run-report format: the flat key = value text file, its CSV twin, the
lossless certificate round trip, and the human-readable table.
"""

import dataclasses
import math

import numpy as np
import pytest

from conftest import make_reference_problem
from vwbound.errors import DocumentError, InfeasibleConditionE, NotConverged
from vwbound.expr import MatrixFunction
from vwbound.problemdoc import load_problem_document
from vwbound.quadratic import certify
from vwbound.report import (
    CONDITION_ORDER,
    FORMAT_TAG,
    RunReport,
    attach_solution,
    attach_solve_failure,
    attach_verification,
    certificate_from_report,
    condition_failure_report,
    parse_csv_report,
    render_csv,
    render_table,
    report_from_certificate,
)
from vwbound.shooting import verify_bound


@pytest.fixture(scope="module")
def reference_report(reference_certificate):
    return report_from_certificate(
        reference_certificate, exit_code=2, n=2, source="reference.problem"
    )


class TestRunReport:
    def test_key_value_basics(self):
        rep = RunReport()
        rep.add("alpha", 1.5)
        rep.add("flag", True)
        rep.add("name", "xyz")
        rep.add_array("curve", np.array([1.0, 0.5]))
        assert rep.get_float("alpha") == 1.5
        assert rep.get_bool("flag") is True
        assert rep.get("name") == "xyz"
        assert np.array_equal(rep.get_array("curve"), [1.0, 0.5])

    def test_floats_survive_exactly(self):
        rep = RunReport()
        rep.add("format", FORMAT_TAG)
        value = 0.1 + 0.2  # not representable prettily
        rep.add("v", value)
        back = RunReport.from_text(rep.to_text())
        assert back.get_float("v") == value

    def test_bad_keys_rejected(self):
        rep = RunReport()
        for bad in ("has space", "has=eq", "has\nnewline"):
            with pytest.raises(ValueError):
                rep.add(bad, 1)

    def test_missing_key_raises(self):
        rep = RunReport()
        with pytest.raises(DocumentError) as info:
            rep.get("absent")
        assert info.value.key == "absent"


class TestTextRoundTrip:
    def test_byte_identical(self, reference_report):
        text = reference_report.to_text()
        again = RunReport.from_text(text).to_text()
        assert again == text
        assert text.startswith(f"format = {FORMAT_TAG}\n")

    def test_rejects_empty(self):
        with pytest.raises(DocumentError):
            RunReport.from_text("")

    def test_rejects_missing_format_tag(self):
        with pytest.raises(DocumentError):
            RunReport.from_text("alpha = 1\n")

    def test_rejects_malformed_line(self):
        with pytest.raises(DocumentError) as info:
            RunReport.from_text(f"format = {FORMAT_TAG}\njust words\n")
        assert info.value.line == 2

    def test_write_and_load(self, tmp_path, reference_report):
        path = tmp_path / "cert.txt"
        reference_report.write(path)
        back = RunReport.load(path)
        assert back.to_text() == reference_report.to_text()


class TestCsvTwin:
    def test_lossless(self, reference_report):
        csv_text = render_csv(reference_report)
        back = parse_csv_report(csv_text)
        assert back.to_text() == reference_report.to_text()
        assert csv_text.splitlines()[0] == "key,value"

    def test_header_required(self):
        with pytest.raises(DocumentError):
            parse_csv_report("alpha,1\n")

    def test_same_checks_as_the_text_form(self):
        # one constructor checks the format tag of both forms
        for parse, text in ((parse_csv_report, "key,value\nalpha,1\n"),
                            (RunReport.from_text, "alpha = 1\n")):
            with pytest.raises(DocumentError, match=f"not a {FORMAT_TAG}"):
                parse(text)

    def test_row_of_wrong_width_rejected(self, reference_report):
        text = render_csv(reference_report) + "extra,1,2\n"
        with pytest.raises(DocumentError) as info:
            parse_csv_report(text)
        assert info.value.line == len(reference_report.keys()) + 2


class TestCertificateRoundTrip:
    def test_rebuild_is_exact(self, reference_certificate, reference_report):
        cert = certificate_from_report(reference_report)
        src = reference_certificate
        assert cert.sigma == src.sigma
        assert cert.c1 == src.c1
        assert cert.c2 == src.c2
        assert cert.c3 == src.c3
        assert cert.v0 == src.v0
        assert cert.v_star == src.v_star
        assert cert.nu == src.nu
        assert cert.omega_tilde == src.omega_tilde
        assert cert.omega0 == src.omega0
        assert cert.v_small_star == src.v_small_star
        assert cert.vstar_required == src.vstar_required
        assert cert.window == src.window
        assert cert.seed == src.seed
        for name in ("ts", "lam_plus", "lam_minus", "lam_mp", "alpha",
                     "ceiling"):
            assert np.array_equal(getattr(cert, name), getattr(src, name))
        assert set(cert.conditions) == set(src.conditions)
        for tag, cond in src.conditions.items():
            for field in dataclasses.fields(cond):
                got = getattr(cert.conditions[tag], field.name)
                want = getattr(cond, field.name)
                if field.name == "margin" and math.isnan(want):
                    assert math.isnan(got), tag
                else:
                    assert got == want, (tag, field.name)

    def test_report_carries_conditions_in_order(self, reference_report):
        tags = [
            k.split(".")[1] for k in reference_report.keys()
            if k.startswith("cond.") and k.endswith(".passed")
        ]
        assert tags == list(CONDITION_ORDER)

    def test_exit_code_and_meaning(self, reference_report):
        assert reference_report.get_int("exit.code") == 2
        assert reference_report.get("exit.meaning") == "window-certified"

    def test_reader_reads_what_the_writer_writes(self, reference_report):
        # a key added to one side only fails here; the writer's other
        # keys are for people and for later stages, never read back
        class Recording(RunReport):
            def __init__(self):
                super().__init__()
                self.read = set()

            def get(self, key):
                self.read.add(key)
                return super().get(key)

        def write_only(key):
            return (key in ("format", "problem.n", "problem.source",
                            "bound.curve_t0", "bound.closed_form")
                    or key.startswith(("exit.", "stats.")))

        rep = Recording.from_text(reference_report.to_text())
        certificate_from_report(rep)
        written = reference_report.keys()
        assert "note.1" in written and "problem.source" in written
        assert rep.read == {k for k in written if not write_only(k)}


class TestAttachments:
    def test_solution_keys(self, reference_certificate,
                           reference_solution_run, reference_report):
        rep = RunReport.from_text(reference_report.to_text())
        attach_solution(rep, reference_solution_run, exit_code=0)
        assert rep.get_int("solution.converged_at_j") >= 2
        assert rep.get_float("solution.sup_v") == pytest.approx(0.01,
                                                                abs=1e-5)
        assert rep.has("solution.xi.1") and rep.has("solution.xi.2")
        assert rep.get_float("solution.xi.1") == pytest.approx(-0.05,
                                                               abs=1e-6)

    def test_search_stats(self, reference_solution_run, reference_report):
        rep = RunReport.from_text(reference_report.to_text())
        attach_solution(rep, reference_solution_run, exit_code=0)
        rungs = reference_solution_run.rungs
        assert rep.get_int("stats.shooting.rungs") == len(rungs) == 14
        for i, start in enumerate(rungs, start=1):
            prefix = f"stats.shooting.rung.{i}"
            assert rep.get_float(f"{prefix}.t") == start.t
            assert rep.get_int(f"{prefix}.iterations") == start.iterations
            assert rep.get_bool(f"{prefix}.stayed") == start.stayed
            assert rep.get(f"{prefix}.exit_kinds") == (
                " ".join(start.exit_kinds) or "none")
            assert rep.get_int(f"{prefix}.steps_accepted") == \
                start.steps_accepted > 0
            assert rep.get_int(f"{prefix}.steps_rejected") == \
                start.steps_rejected
        # counts only: no wall time, no process count
        assert {k.rsplit(".", 1)[-1] for k in rep.keys()
                if k.startswith("stats.")} == {
            "rungs", "t", "iterations", "stayed", "exit_kinds",
            "steps_accepted", "steps_rejected",
            "calls", "rounds", "drawn", "accepted"}
        line = next(ln for ln in render_table(rep).splitlines()
                    if ln.strip().startswith("search:"))
        assert line.split() == [
            "search:", "14", "rungs,",
            str(sum(s.iterations for s in rungs)), "starts", "classified,",
            str(sum(s.stayed for s in rungs)), "stayed;",
            str(sum(s.steps_accepted for s in rungs)), "steps,",
            str(sum(s.steps_rejected for s in rungs)), "rejected;",
            "exits", "W_hits_wplus",
        ]
        # a report written before the step counts existed still renders
        old = RunReport.from_text("".join(
            ln for ln in rep.to_text().splitlines(keepends=True)
            if ".steps_" not in ln))
        line = next(ln for ln in render_table(old).splitlines()
                    if ln.strip().startswith("search:"))
        assert "steps" not in line and line.split()[-2:] == [
            "exits", "W_hits_wplus"]

    def test_sampling_stats(self, reference_report):
        # the state-free reference samples nothing; a state-dependent A
        # samples, and the report carries the certificate's counts
        names = ("calls", "rounds", "drawn", "accepted")
        assert [reference_report.get_int(f"stats.sampling.{k}")
                for k in names] == [0, 0, 0, 0]
        qp = make_reference_problem(
            a=MatrixFunction.from_strings(
                [["1 + 0.5*x1*x2", "0"], ["0", "-1"]], n_states=2),
            n_grid=41, n_state_samples=6,
        )
        cert = certify(qp)
        rep = report_from_certificate(cert, exit_code=2, n=2)
        counts = [getattr(cert.sampling, k) for k in names]
        assert counts[0] >= 2 and counts[3] == 41 * 6 * counts[0]
        assert [rep.get_int(f"stats.sampling.{k}") for k in names] == counts
        line = next(ln for ln in render_table(rep).splitlines()
                    if ln.strip().startswith("sampling:"))
        assert line.split() == [
            "sampling:", str(counts[0]), "calls,", str(counts[1]),
            "rounds,", str(counts[2]), "drawn,", str(counts[3]),
            "accepted"]
        # a report without the counts renders without the line
        old = RunReport.from_text("".join(
            ln for ln in rep.to_text().splitlines(keepends=True)
            if not ln.startswith("stats.sampling.")))
        assert "sampling:" not in render_table(old)

    def test_verification_keys(self, reference_problem,
                               reference_certificate,
                               reference_solution_run, reference_report):
        ver = verify_bound(reference_problem, reference_certificate,
                           reference_solution_run.traj)
        rep = RunReport.from_text(reference_report.to_text())
        attach_verification(rep, ver, exit_code=0)
        assert rep.get_bool("verify.passed")
        assert rep.get_float("verify.slack_envelope") > 0.0
        assert rep.get_int("verify.nodes") == \
            reference_solution_run.traj.ts.size


class TestFailureReports:
    def test_condition_failure(self, reference_document_path):
        doc = load_problem_document(reference_document_path)
        exc = InfeasibleConditionE("c2 too large\nfor this v0")
        rep = condition_failure_report(doc, "e", exc, exit_code=3)
        assert rep.items() == [
            ("format", FORMAT_TAG),
            ("problem.n", "2"),
            ("problem.source", str(reference_document_path)),
            ("problem.t_minus", "%.17g" % doc.window[0]),
            ("problem.t_plus", "%.17g" % doc.window[1]),
            ("seed", str(doc.seed)),
            ("exit.code", "3"),
            ("exit.meaning", "condition-failed"),
            ("failed.condition", "e"),
            ("cond.e.passed", "0"),
            ("cond.e.margin", "nan"),
            ("cond.e.window_certified", "0"),
            ("cond.e.note", "c2 too large; for this v0"),
        ]
        assert RunReport.from_text(rep.to_text()).items() == rep.items()
        table = render_table(rep)
        assert table.startswith("run report (condition-failed, exit code 3)")
        assert "(e  )      NO" in table
        # it carries no certificate
        with pytest.raises(DocumentError, match="missing key"):
            certificate_from_report(rep)

    def test_solve_failure(self, reference_report):
        xi = [(1, -1.0, np.array([0.1 + 0.2, -1 / 3])),
              (2, -2.5, np.array([1e-300, 2.0]))]
        rep = RunReport.from_text(reference_report.to_text())
        attach_solve_failure(rep, NotConverged("no xi\nconverged", xi), 4)
        added = rep.items()[len(reference_report.keys()):]
        assert [k for k, _ in added] == [
            "solution.exit.code", "solution.exit.meaning", "solution.error",
            "solution.xi_1.at_-1", "solution.xi_2.at_-2.5"]
        assert rep.get("solution.exit.meaning") == "not-converged"
        assert rep.get("solution.error") == "no xi; converged"
        for j, t_j, values in xi:
            key = f"solution.xi_{j}.at_{t_j:g}"
            assert np.array_equal(rep.get_array(key), values)
        # an error without a sequence appends the exit and the error only
        bare = RunReport.from_text(reference_report.to_text())
        attach_solve_failure(bare, RuntimeError("stop"), 4)
        assert len(bare.keys()) == len(reference_report.keys()) + 3
        # the rendering names the solve's outcome, and only it changes
        before = render_table(reference_report).splitlines()
        after = render_table(rep).splitlines()
        line = "  solution: not-converged (exit code 4): no xi; converged"
        assert [ln for ln in after if ln not in before] == [line]
        assert len(after) == len(before) + 1
        assert after[0] == before[0]  # still the certificate's exit code


class TestTable:
    def test_one_row_per_condition(self, reference_report):
        table = render_table(reference_report)
        for tag in CONDITION_ORDER:
            matches = [
                ln for ln in table.splitlines()
                if ln.strip().startswith(f"({tag:<3})")
            ]
            assert len(matches) == 1, tag
        assert "window-certified" in table
