"""Command-line front end.

``vwbound certify`` checks a problem document and writes a certificate
report; ``solve`` finds the trapped solution under an existing
certificate and writes trajectory/xi CSVs; ``verify`` replays a
trajectory against a certificate; ``report`` renders a machine-readable
report for humans (or as CSV).

Exit codes form a total contract:

====  =======================================================
0     all checks passed
2     certified, but at least one condition only on the window
3     a certification condition failed outright
4     the shooting stage did not converge (or ran out of budget)
5     verification found a bound violation
64    unreadable/malformed document, certificate, or usage error
====  =======================================================
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .errors import (
    BudgetExhausted,
    ConditionGFailed,
    DegeneratePencil,
    DocumentError,
    EmptyPositiveSubspace,
    InfeasibleConditionE,
    NoSignChange,
    NotConverged,
    NotPositiveDefinite,
    VWBoundError,
)
from .ode import Trajectory, write_trajectory_csv
from .problemdoc import load_problem_document
from .quadratic import SIGMA_GRID, certify
from .report import (
    RunReport,
    attach_solution,
    attach_verification,
    certificate_from_report,
    parse_csv_report,
    render_csv,
    render_table,
    report_from_certificate,
)
from .shooting import ShootingConfig, bounded_solution, verify_bound, write_xi_csv

__all__ = ["main", "cmd_certify", "cmd_solve", "cmd_verify", "cmd_report"]

EXIT_OK = 0
EXIT_WINDOW = 2
EXIT_FAILED = 3
EXIT_NOT_CONVERGED = 4
EXIT_VIOLATION = 5
EXIT_USAGE = 64


def _apply_overrides(doc, args):
    """Copy the document overrides the subcommand accepts onto ``doc``."""
    overrides = vars(args)
    if overrides.get("window") is not None:
        parts = args.window.split(",")
        if len(parts) != 2:
            raise DocumentError("--window expects 'T-,T+'", key="window")
        try:
            doc.window = (float(parts[0]), float(parts[1]))
        except ValueError:
            raise DocumentError(
                f"--window values not numeric: {args.window!r}",
                key="window",
            ) from None
    for key in ("grid", "tol", "seed"):
        if overrides.get(key) is not None:
            setattr(doc, key, overrides[key])


def _sigma_grid(args):
    if args.sigma is None:
        return SIGMA_GRID
    if not 0.0 < args.sigma <= 1.0:
        raise DocumentError(
            f"--sigma must lie in (0, 1], got {args.sigma:g}", key="sigma"
        )
    return (args.sigma,)


# exceptions escaping certify, mapped to the condition they indict; a C
# with no positive eigenvalue has no entry disks, which fails (g)
_FAILURE_TAGS = (
    (InfeasibleConditionE, "e"),
    (ConditionGFailed, "g"),
    (EmptyPositiveSubspace, "g"),
    (NotPositiveDefinite, "a"),
    (DegeneratePencil, "b"),
)


def _failure_report(doc, tag: str, exc) -> RunReport:
    rep = RunReport()
    rep.add("format", "vwbound-report-1")
    rep.add("problem.n", doc.n)
    rep.add("problem.source", doc.source)
    rep.add("problem.t_minus", doc.window[0])
    rep.add("problem.t_plus", doc.window[1])
    rep.add("seed", doc.seed)
    rep.add("exit.code", EXIT_FAILED)
    rep.add("exit.meaning", "condition-failed")
    rep.add("failed.condition", tag)
    rep.add(f"cond.{tag}.passed", False)
    rep.add(f"cond.{tag}.margin", float("nan"))
    rep.add(f"cond.{tag}.window_certified", False)
    rep.add(f"cond.{tag}.note", str(exc).replace("\n", "; "))
    return rep


def _certify_doc(doc, args):
    """Run certification; condition failures become exit code 3 with a
    report that names the failing condition."""
    qp = doc.to_problem()
    try:
        cert = certify(qp, sigma_grid=_sigma_grid(args), seed=doc.seed)
    except tuple(cls for cls, _ in _FAILURE_TAGS) as exc:
        tag = next(t for cls, t in _FAILURE_TAGS if isinstance(exc, cls))
        sys.stderr.write(f"condition ({tag}) failed: {exc}\n")
        return None, _failure_report(doc, tag, exc), EXIT_FAILED
    if not cert.feasible:
        code = EXIT_FAILED
    elif cert.window_certified_only:
        code = EXIT_WINDOW
    else:
        code = EXIT_OK
    rep = report_from_certificate(cert, code, doc.n, source=doc.source)
    return cert, rep, code


def cmd_certify(args) -> int:
    doc = load_problem_document(args.problem)
    _apply_overrides(doc, args)
    _, rep, code = _certify_doc(doc, args)
    out = getattr(args, "out", None)
    if out:
        rep.write(out)
    else:
        sys.stdout.write(rep.to_text())
    return code


def cmd_solve(args) -> int:
    doc = load_problem_document(args.problem)
    _apply_overrides(doc, args)
    if not args.cert:
        raise DocumentError("solve requires --cert CERTIFICATE", key="cert")
    rep = RunReport.load(args.cert)
    cert_code = rep.get_int("exit.code")
    if cert_code not in (EXIT_OK, EXIT_WINDOW):
        raise DocumentError(
            f"certificate has exit code {cert_code}; solve requires 0 or 2",
            key="exit.code",
        )
    cert = certificate_from_report(rep)
    qp = doc.to_problem()
    try:
        config = ShootingConfig(integrator_tol=doc.tol)
    except ValueError as exc:
        raise DocumentError(str(exc), key="tol") from None
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    try:
        sol = bounded_solution(qp, cert, config)
    except (NotConverged, BudgetExhausted, NoSignChange) as exc:
        attach_failure = RunReport.from_text(rep.to_text())
        attach_failure.add("solution.exit.code", EXIT_NOT_CONVERGED)
        attach_failure.add("solution.exit.meaning", "not-converged")
        attach_failure.add(
            "solution.error", str(exc).replace("\n", "; ")
        )
        seq = getattr(exc, "xi_sequence", None) or []
        for j, t_j, xi in seq:
            attach_failure.add_array(f"solution.xi_{j}.at_{t_j:g}", xi)
        attach_failure.write(os.path.join(out_dir, "solve-report.txt"))
        sys.stderr.write(f"solve failed: {exc}\n")
        return EXIT_NOT_CONVERGED
    attach_solution(rep, sol, EXIT_OK)
    write_trajectory_csv(
        os.path.join(out_dir, "trajectory.csv"), sol.traj,
        qp.quad_v, qp.quad_w,
    )
    write_xi_csv(os.path.join(out_dir, "xi.csv"), sol.xi_sequence)
    rep.write(os.path.join(out_dir, "solve-report.txt"))
    sys.stdout.write(
        "converged at j=%d; xi = (%s); sup V = %.17g at t = %.6g\n"
        % (
            sol.converged_at_j,
            ", ".join("%.17g" % v for v in sol.xi),
            sol.sup_v,
            sol.sup_v_time,
        )
    )
    return EXIT_OK


def _read_trajectory_csv(path, n: int) -> Trajectory:
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
            ts.append(values[0])
            xs.append(values[1:n + 1])
    if not ts:
        raise DocumentError(f"trajectory {path} has no data rows")
    return Trajectory(
        ts=np.asarray(ts), xs=np.asarray(xs), events=[],
        status="reached_end",
    )


def cmd_verify(args) -> int:
    doc = load_problem_document(args.problem)
    if not args.cert:
        raise DocumentError("verify requires --cert CERTIFICATE", key="cert")
    if not args.traj:
        raise DocumentError("verify requires --traj TRAJECTORY", key="traj")
    rep = RunReport.load(args.cert)
    cert = certificate_from_report(rep)
    qp = doc.to_problem()
    traj = _read_trajectory_csv(args.traj, doc.n)
    ver = verify_bound(qp, cert, traj)
    code = EXIT_OK if ver.passed else EXIT_VIOLATION
    attach_verification(rep, ver, code)
    out = getattr(args, "out", None)
    if out:
        rep.write(out)
    sys.stdout.write(
        "verify %s: sup V = %.17g, slack envelope %.6g, const %.6g, "
        "closed-form %.6g\n"
        % (
            "pass" if ver.passed else "VIOLATED",
            ver.sup_v,
            ver.slack_envelope,
            ver.slack_const,
            ver.slack_closed_form,
        )
    )
    for violation in ver.violations:
        sys.stdout.write(f"  violation: {violation}\n")
    return code


def cmd_report(args) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {args.report}: {exc}") from None
    if text.lstrip().startswith("key,value"):
        rep = parse_csv_report(text)
    else:
        rep = RunReport.from_text(text)
    fmt = args.format or "text"
    if fmt == "csv":
        rendered = render_csv(rep)
    elif fmt == "text":
        rendered = render_table(rep)
    else:
        raise DocumentError(f"unknown --format {fmt!r}; use text or csv")
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vwbound",
        description=(
            "certify V-bounded-solution conditions for a quadratic "
            "V/W pair, find the trapped solution by topological "
            "shooting, and verify the certified ceilings along it"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem", help="problem document path")
        p.add_argument("--out", help="output file (certify/verify/report) "
                                     "or directory (solve)")

    def window(p):
        p.add_argument("--window", help="override window as 'T-,T+'")

    p_cert = sub.add_parser("certify", help="check conditions, emit report")
    common(p_cert)
    window(p_cert)
    p_cert.add_argument("--grid", type=int, help="override grid size")
    p_cert.add_argument("--seed", type=int, help="override sampling seed")
    p_cert.add_argument(
        "--sigma", type=float,
        help="fix the growth exponent instead of searching the grid",
    )
    p_solve = sub.add_parser("solve", help="find the trapped solution")
    common(p_solve)
    window(p_solve)
    p_solve.add_argument("--tol", type=float,
                         help="override integrator tolerance")
    p_solve.add_argument("--cert", help="certificate report from certify")
    p_verify = sub.add_parser("verify", help="check a trajectory against "
                                             "a certificate")
    common(p_verify)
    p_verify.add_argument("--cert", help="certificate report from certify")
    p_verify.add_argument("--traj", help="trajectory CSV from solve")
    p_report = sub.add_parser("report", help="render a report")
    p_report.add_argument("report", help="report path")
    p_report.add_argument("--format", help="text (default) or csv")
    p_report.add_argument("--out", help="output file")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; fold usage
        # errors into the documented contract
        return 0 if exc.code == 0 else EXIT_USAGE
    handlers = {
        "certify": cmd_certify,
        "solve": cmd_solve,
        "verify": cmd_verify,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except DocumentError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except VWBoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
