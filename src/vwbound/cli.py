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

import math
import os
import sys
import types

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
    read_text,
)
from .ode import Trajectory, write_trajectory_csv
from .problemdoc import load_problem_document
from .quadratic import SIGMA_GRID, certify
from .report import (
    RunReport,
    attach_solution,
    attach_solve_failure,
    attach_verification,
    certificate_from_report,
    condition_failure_report,
    load_report_or_csv,
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
        if not all(map(math.isfinite, doc.window)):
            raise DocumentError(
                f"--window values must be finite: {args.window!r}",
                key="window",
            )
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


def cmd_certify(args) -> int:
    """Certify; a condition failure exits 3 with a report that names the
    failing condition."""
    doc = load_problem_document(args.problem)
    _apply_overrides(doc, args)
    qp = doc.to_problem()
    try:
        cert = certify(qp, sigma_grid=_sigma_grid(args))
    except tuple(cls for cls, _ in _FAILURE_TAGS) as exc:
        tag = next(t for cls, t in _FAILURE_TAGS if isinstance(exc, cls))
        sys.stderr.write(f"condition ({tag}) failed: {exc}\n")
        code = EXIT_FAILED
        rep = condition_failure_report(doc, tag, exc, code)
    else:
        code = (EXIT_FAILED if not cert.feasible else
                EXIT_WINDOW if cert.window_certified_only else EXIT_OK)
        rep = report_from_certificate(cert, code, doc.n, source=doc.source)
    if args.out:
        rep.write(args.out)
    else:
        sys.stdout.write(rep.to_text())
    return code


def _load_certificate(path) -> RunReport:
    """The certificate report at ``path``.  A solve or verify report is
    refused: its block would be written a second time after it."""
    rep = RunReport.load(path)
    for key in rep.keys():
        if key.startswith(("solution.", "verify.")):
            raise DocumentError(
                f"{path} is a solve or verify report, not a certificate",
                key=key,
            )
    return rep


def cmd_solve(args) -> int:
    doc = load_problem_document(args.problem)
    _apply_overrides(doc, args)
    if not args.cert:
        raise DocumentError("solve requires --cert CERTIFICATE", key="cert")
    rep = _load_certificate(args.cert)
    cert_code = rep.get_int("exit.code")
    if cert_code not in (EXIT_OK, EXIT_WINDOW):
        raise DocumentError(
            f"certificate has exit code {cert_code}; solve requires 0 or 2",
            key="exit.code",
        )
    cert = certificate_from_report(rep)
    qp = doc.to_problem()
    (t_lo, t_hi), (c_lo, c_hi) = qp.window, cert.window
    if t_lo < c_lo or t_hi > c_hi:
        raise DocumentError(
            f"the window ({t_lo:g}, {t_hi:g}) leaves the certificate's "
            f"window ({c_lo:g}, {c_hi:g})", key="window")
    try:
        config = ShootingConfig(integrator_tol=doc.tol)
    except ValueError as exc:
        raise DocumentError(str(exc), key="tol") from None
    # the output directory is made only once there is something to write
    out_dir = args.out or "."
    report_path = os.path.join(out_dir, "solve-report.txt")
    try:
        sol = bounded_solution(qp, cert, config)
    except (NotConverged, BudgetExhausted, NoSignChange) as exc:
        attach_solve_failure(rep, exc, EXIT_NOT_CONVERGED)
        os.makedirs(out_dir, exist_ok=True)
        rep.write(report_path)
        sys.stderr.write(f"solve failed: {exc}\n")
        return EXIT_NOT_CONVERGED
    attach_solution(rep, sol, EXIT_OK)
    os.makedirs(out_dir, exist_ok=True)
    write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), sol.traj,
                         sol.v, sol.w)
    write_xi_csv(os.path.join(out_dir, "xi.csv"), sol.xi_sequence)
    rep.write(report_path)
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
    """The nodes of the trajectory CSV at ``path`` (``t,x1..xn,V,W``),
    read once.  A well-formed file is parsed in one pass
    (:func:`_node_table`); any other raises :class:`DocumentError` at its
    first bad line (:func:`_first_bad_line`)."""
    text = read_text(path)
    header, _, body = text.partition("\n")
    header = header.strip()
    expected = ",".join(["t"] + [f"x{i}" for i in range(1, n + 1)]
                        + ["V", "W"])
    if header != expected:
        raise DocumentError(
            f"trajectory header {header!r} does not match the {n}-state "
            f"layout {expected!r}", line=1,
        )
    lines = body.split("\n")
    table = _node_table(lines, n)
    if table is None:
        raise _first_bad_line(lines, n, path)
    return Trajectory(
        ts=table[:, 0].copy(), xs=table[:, 1:n + 1].copy(), events=[],
        status="reached_end",
    )


def _node_table(lines: list, n: int) -> np.ndarray | None:
    """The data rows among a trajectory CSV's ``lines`` (after the header)
    as one ``(rows, n + 3)`` array, or None unless they are well formed: at
    least one row, ``n + 3`` fields in each (blank and ``#`` lines
    dropped), every field a finite ``float()`` and the times strictly
    increasing.  All fields go through one ``map(float, ...)``, so a row
    holds the bits ``float()`` gives each of its fields."""
    rows = [row for row in map(str.strip, lines) if row and row[0] != "#"]
    if not rows or any(row.count(",") != n + 2 for row in rows):
        return None
    try:
        values = np.fromiter(map(float, ",".join(rows).split(",")), float,
                             count=len(rows) * (n + 3))
    except ValueError:
        return None
    table = values.reshape(len(rows), n + 3)
    ts = table[:, 0]
    if not (np.isfinite(values).all() and (ts[1:] > ts[:-1]).all()):
        return None
    return table


def _first_bad_line(lines: list, n: int, path) -> DocumentError:
    """The error naming the first of a trajectory CSV's ``lines`` (after
    the header, which is line 1) that is not a node, for lines
    :func:`_node_table` refuses; a file without one has no data rows."""
    t_last = None
    for line_no, line in enumerate(map(str.strip, lines), start=2):
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != n + 3:
            return DocumentError(f"expected {n + 3} columns, got {len(parts)}",
                                 line=line_no)
        try:
            values = [float(p) for p in parts]
        except ValueError:
            return DocumentError(f"non-numeric value in row: {line!r}",
                                 line=line_no)
        if not all(map(math.isfinite, values)):
            return DocumentError(f"non-finite value in row: {line!r}",
                                 line=line_no)
        if t_last is not None and not values[0] > t_last:
            return DocumentError("trajectory times must strictly increase",
                                 line=line_no)
        t_last = values[0]
    return DocumentError(f"trajectory {path} has no data rows")


def cmd_verify(args) -> int:
    doc = load_problem_document(args.problem)
    if not args.cert:
        raise DocumentError("verify requires --cert CERTIFICATE", key="cert")
    if not args.traj:
        raise DocumentError("verify requires --traj TRAJECTORY", key="traj")
    rep = _load_certificate(args.cert)
    cert = certificate_from_report(rep)
    qp = doc.to_problem()
    traj = _read_trajectory_csv(args.traj, doc.n)
    ver = verify_bound(qp, cert, traj)
    code = EXIT_OK if ver.passed else EXIT_VIOLATION
    attach_verification(rep, ver, code)
    if args.out:
        rep.write(args.out)
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
    rep = load_report_or_csv(args.report)
    fmt = args.format or "text"
    if fmt == "csv":
        rendered = render_csv(rep)
    elif fmt == "text":
        rendered = render_table(rep)
    else:
        raise DocumentError(f"unknown --format {fmt!r}; use text or csv")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return EXIT_OK


# subcommand: (handler, help, positional, {flag: (converter, metavar,
# help)}); a handler reads the positional's value as its lower-cased name
# and a flag's as the flag's name, None when it is not given
COMMANDS = {
    "certify": (cmd_certify, "check the conditions of the document PROBLEM, "
                "write a certificate", "PROBLEM", {
        "out": (str, "FILE", "write the report here instead of stdout"),
        "window": (str, "T-,T+", "override the document's window"),
        "grid": (int, "N", "override the grid size"),
        "seed": (int, "N", "override the sampling seed"),
        "sigma": (float, "S", "fix the growth exponent in (0, 1] instead "
                              "of searching the grid"),
    }),
    "solve": (cmd_solve, "find the trapped solution of PROBLEM", "PROBLEM", {
        "cert": (str, "FILE", "certificate report from certify (required)"),
        "out": (str, "DIR", "output directory (default: the current one)"),
        "window": (str, "T-,T+", "override the document's window"),
        "tol": (float, "TOL", "override the integrator tolerance, "
                              "in [1e-12, 1e-3]"),
    }),
    "verify": (cmd_verify, "check a trajectory of PROBLEM against a "
               "certificate", "PROBLEM", {
        "cert": (str, "FILE", "certificate report from certify (required)"),
        "traj": (str, "FILE", "trajectory CSV from solve (required)"),
        "out": (str, "FILE", "write the report here"),
    }),
    "report": (cmd_report, "render the report REPORT for humans or as CSV",
               "REPORT", {
        "format": (str, "text|csv", "text (default) or csv"),
        "out": (str, "FILE", "write here instead of stdout"),
    }),
}

DESCRIPTION = (
    "certify V-bounded-solution conditions for a quadratic V/W pair, find\n"
    "the trapped solution by topological shooting, and verify the\n"
    "certified ceilings along it"
)


def _help(command=None) -> str:
    """The ``--help`` text of ``command``, or of vwbound itself."""
    if command is None:
        rows = [(name, spec[1]) for name, spec in COMMANDS.items()]
        head = (f"usage: vwbound {{{','.join(COMMANDS)}}} ...\n\n"
                f"{DESCRIPTION}\n\nsubcommands "
                "(vwbound COMMAND --help lists a command's flags):\n")
    else:
        _, about, positional, flags = COMMANDS[command]
        rows = [(f"--{name} {metavar}", text)
                for name, (_, metavar, text) in flags.items()]
        head = (f"usage: vwbound {command} {positional} [flags]\n\n"
                f"{about}\n\n")
    width = max(len(left) for left, _ in rows)
    return head + "".join(f"  {left:{width}}  {text}\n" for left, text in rows)


def _parse(argv):
    """The handler and its arguments for the command line ``argv``, or
    None once a ``-h``/``--help`` text is printed.  Flags may come before
    or after the positional, as ``--flag value`` or ``--flag=value`` (the
    value may start with ``-``), and the last occurrence wins.  Any other
    command line raises :class:`DocumentError`."""
    if not argv:
        raise DocumentError(f"no subcommand; use one of {', '.join(COMMANDS)}")
    command, *rest = argv
    if command in ("-h", "--help"):
        sys.stdout.write(_help())
        return None
    if command not in COMMANDS:
        raise DocumentError(f"unknown subcommand {command!r}; use one of "
                            f"{', '.join(COMMANDS)}")
    handler, _, positional, flags = COMMANDS[command]
    key = positional.lower()
    values = dict.fromkeys([key, *flags])
    tokens = iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            sys.stdout.write(_help(command))
            return None
        if not token.startswith("-"):
            if values[key] is not None:
                raise DocumentError(f"{command} takes one {positional}, "
                                    f"got a second: {token!r}")
            values[key] = token
            continue
        flag, eq, value = token.partition("=")
        name = flag[2:]
        if not flag.startswith("--") or name not in flags:
            raise DocumentError(f"{command} takes no flag {flag}; its flags "
                                f"are --{', --'.join(flags)}")
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise DocumentError(f"{flag} expects a value")
        convert = flags[name][0]
        try:
            values[name] = convert(value)
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            raise DocumentError(
                f"{flag} expects {kind}, got {value!r}") from None
    if values[key] is None:
        raise DocumentError(f"{command} requires {positional}")
    return handler, types.SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            return EXIT_OK
        handler, args = parsed
        return handler(args)
    except DocumentError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except VWBoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
