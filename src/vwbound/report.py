"""Flat machine-readable run reports.

A report is an ordered list of ``key = value`` lines: keys are dotted
ASCII identifiers, values are either strings (no newlines), integers, or
floats printed with 17 significant digits so every float64 round-trips
bit-exactly.  ``RunReport.from_text(r.to_text())`` reproduces the text
byte for byte; the CSV rendering re-parses losslessly as well.

The report carries the full certificate — scalars, per-condition table,
sampled curves — so downstream commands can rebuild a
:class:`~vwbound.quadratic.Certificate` without re-running the
certification.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .errors import DocumentError, DomainError, InfeasibleConditionE
from .quadratic import Certificate, ConditionResult, closed_form_ceiling

__all__ = [
    "RunReport",
    "report_from_certificate",
    "certificate_from_report",
    "attach_solution",
    "attach_verification",
    "render_table",
    "render_csv",
    "parse_csv_report",
]

FORMAT_TAG = "vwbound-report-1"
CONDITION_ORDER = ("a", "b", "c", "d", "e", "f", "g", "A", "B", "V*")

EXIT_MEANINGS = {
    0: "pass",
    2: "window-certified",
    3: "condition-failed",
    4: "not-converged",
    5: "bound-violated",
    64: "usage-or-document-error",
}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


class RunReport:
    """Ordered key–value report with typed accessors."""

    def __init__(self):
        self._pairs: list[tuple[str, str]] = []
        self._index: dict[str, str] = {}

    def add(self, key: str, value) -> None:
        if " " in key or "=" in key or "\n" in key:
            raise ValueError(f"bad report key {key!r}")
        text = _fmt(value)
        if "\n" in text:
            raise ValueError(f"value for {key!r} contains a newline")
        self._pairs.append((key, text))
        self._index[key] = text

    def add_array(self, key: str, values) -> None:
        self.add(key, " ".join("%.17g" % float(v) for v in values))

    def has(self, key: str) -> bool:
        return key in self._index

    def get(self, key: str) -> str:
        if key not in self._index:
            raise DocumentError(f"report is missing key {key!r}", key=key)
        return self._index[key]

    def get_float(self, key: str) -> float:
        return float(self.get(key))

    def get_int(self, key: str) -> int:
        return int(self.get(key))

    def get_bool(self, key: str) -> bool:
        return self.get(key) == "1"

    def get_array(self, key: str) -> np.ndarray:
        text = self.get(key)
        return np.array([float(v) for v in text.split()], dtype=float)

    def keys(self):
        return [k for k, _ in self._pairs]

    def items(self):
        return list(self._pairs)

    def to_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self._pairs)

    @classmethod
    def from_text(cls, text: str) -> "RunReport":
        rep = cls()
        for line_no, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            key, sep, value = line.partition(" = ")
            if not sep or " " in key:
                raise DocumentError(
                    f"bad report line {line!r}", line=line_no
                )
            rep._pairs.append((key, value))
            rep._index[key] = value
        if not rep._pairs:
            raise DocumentError("empty report")
        if rep._index.get("format") != FORMAT_TAG:
            raise DocumentError(
                f"not a {FORMAT_TAG} report (format key missing or wrong)"
            )
        return rep

    @classmethod
    def load(cls, path) -> "RunReport":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DocumentError(f"cannot read {path}: {exc}") from None
        return cls.from_text(text)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


def report_from_certificate(
    cert: Certificate, exit_code: int, n: int, source: str = ""
) -> RunReport:
    """Serialize a certificate (scalars, condition table, curves) and the
    region sampler's counts."""
    rep = RunReport()
    rep.add("format", FORMAT_TAG)
    rep.add("problem.n", n)
    if source:
        rep.add("problem.source", source)
    rep.add("problem.t_minus", cert.window[0])
    rep.add("problem.t_plus", cert.window[1])
    rep.add("seed", cert.seed)
    rep.add("exit.code", exit_code)
    rep.add("exit.meaning", EXIT_MEANINGS[exit_code])
    rep.add("cert.sigma", cert.sigma)
    rep.add("cert.c1", cert.c1)
    rep.add("cert.c2", cert.c2)
    rep.add("cert.c3", cert.c3)
    rep.add("cert.v0", cert.v0)
    rep.add("cert.v0_auto", cert.v0_auto)
    rep.add("cert.v_star", cert.v_star)
    rep.add("cert.v_star_auto", cert.v_star_auto)
    rep.add("cert.w_minus", cert.w_minus)
    rep.add("cert.w_plus", cert.w_plus)
    rep.add("cert.nu", cert.nu)
    rep.add("cert.omega_tilde", cert.omega_tilde)
    rep.add("cert.omega0", cert.omega0)
    rep.add("bound.v_small_star", cert.v_small_star)
    rep.add("bound.vstar_required.1", cert.vstar_required[0])
    rep.add("bound.vstar_required.2", cert.vstar_required[1])
    rep.add("bound.vstar_slack", cert.vstar_slack)
    # headline bounds: envelope curve at t = 0 and the constants-only
    # closed form at the window spread
    i0 = int(np.argmin(np.abs(cert.ts)))
    rep.add("bound.curve_t0", cert.ceiling[i0])
    spread = float(np.max(cert.lam_plus) - np.min(cert.lam_minus))
    rep.add("bound.closed_form",
            closed_form_ceiling(cert.growth_pair(), spread))
    for tag in CONDITION_ORDER:
        cond = cert.conditions[tag]
        prefix = f"cond.{tag}"
        rep.add(f"{prefix}.passed", cond.passed)
        rep.add(f"{prefix}.margin", cond.margin)
        rep.add(f"{prefix}.window_certified", cond.window_certified)
        rep.add(f"{prefix}.note", cond.note.replace("\n", "; "))
    rep.add_array("curve.ts", cert.ts)
    rep.add_array("curve.lam_plus", cert.lam_plus)
    rep.add_array("curve.lam_minus", cert.lam_minus)
    rep.add_array("curve.lam_mp", cert.lam_mp)
    rep.add_array("curve.alpha", cert.alpha)
    rep.add_array("curve.ceiling", cert.ceiling)
    for i, note in enumerate(cert.notes, start=1):
        rep.add(f"note.{i}", note.replace("\n", "; "))
    # what the region sampler did: counts only, 0 on the state-free path
    for name in ("calls", "rounds", "drawn", "accepted"):
        rep.add(f"stats.sampling.{name}", getattr(cert.sampling, name))
    return rep


def certificate_from_report(rep: RunReport) -> Certificate:
    """Rebuild the certificate a report was written from.

    Raises
    ------
    DocumentError
        Naming the first ``cert.*``, ``bound.*`` or window number or
        ``curve.*`` array (``ts``, ``lam_plus``, ``lam_minus``,
        ``lam_mp``, ``ceiling``) that is not finite, an infinite
        ``curve.alpha`` entry (``nan`` there marks a grid time without
        sampled states, as certify writes it), or the ``cert.*`` key
        whose growth constant is out of range.  Other keys, such as
        ``solution.*`` and ``stats.*``, are not read.
    """

    def finite(key, get=rep.get_float):
        value = get(key)
        if not np.all(np.isfinite(value)):
            raise DocumentError("value is not a finite number", key=key)
        return value

    def not_infinite(key):
        value = rep.get_array(key)
        if np.any(np.isinf(value)):
            raise DocumentError("value is infinite", key=key)
        return value

    conditions = {}
    for tag in CONDITION_ORDER:
        prefix = f"cond.{tag}"
        conditions[tag] = ConditionResult(
            name=tag,
            passed=rep.get_bool(f"{prefix}.passed"),
            margin=rep.get_float(f"{prefix}.margin"),
            window_certified=rep.get_bool(f"{prefix}.window_certified"),
            note=rep.get(f"{prefix}.note"),
        )
    notes = []
    i = 1
    while rep.has(f"note.{i}"):
        notes.append(rep.get(f"note.{i}"))
        i += 1
    cert = Certificate(
        sigma=finite("cert.sigma"),
        c1=finite("cert.c1"),
        c2=finite("cert.c2"),
        c3=finite("cert.c3"),
        v0=finite("cert.v0"),
        v0_auto=rep.get_bool("cert.v0_auto"),
        v_star=finite("cert.v_star"),
        v_star_auto=rep.get_bool("cert.v_star_auto"),
        w_minus=finite("cert.w_minus"),
        w_plus=finite("cert.w_plus"),
        window=(finite("problem.t_minus"), finite("problem.t_plus")),
        nu=finite("cert.nu"),
        omega_tilde=finite("cert.omega_tilde"),
        omega0=finite("cert.omega0"),
        v_small_star=finite("bound.v_small_star"),
        vstar_required=(finite("bound.vstar_required.1"),
                        finite("bound.vstar_required.2")),
        vstar_slack=finite("bound.vstar_slack"),
        ts=finite("curve.ts", rep.get_array),
        lam_plus=finite("curve.lam_plus", rep.get_array),
        lam_minus=finite("curve.lam_minus", rep.get_array),
        lam_mp=finite("curve.lam_mp", rep.get_array),
        alpha=not_infinite("curve.alpha"),
        ceiling=finite("curve.ceiling", rep.get_array),
        conditions=conditions,
        seed=rep.get_int("seed"),
        notes=notes,
    )
    try:
        cert.growth_pair()
    except DomainError as exc:
        raise DocumentError(
            f"growth constant out of range: {exc}", key=f"cert.{exc.where}"
        ) from None
    except InfeasibleConditionE as exc:
        raise DocumentError(
            f"growth constants out of range: {exc}", key="cert.c2"
        ) from None
    return cert


def attach_solution(rep: RunReport, sol, exit_code: int) -> None:
    """Append the solution summary of a solve run."""
    rep.add("solution.exit.code", exit_code)
    rep.add("solution.exit.meaning", EXIT_MEANINGS[exit_code])
    rep.add("solution.converged_at_j", sol.converged_at_j)
    for i, val in enumerate(sol.xi, start=1):
        rep.add(f"solution.xi.{i}", float(val))
    rep.add("solution.sup_v", sol.sup_v)
    rep.add("solution.sup_v_time", sol.sup_v_time)
    rep.add("solution.coverage.lo", float(sol.traj.ts[0]))
    rep.add("solution.coverage.hi", float(sol.traj.ts[-1]))
    rep.add("solution.nodes", int(sol.traj.ts.size))
    for i, note in enumerate(sol.notes, start=1):
        rep.add(f"solution.note.{i}", note.replace("\n", "; "))
    # what the search did, per rung: counts only, so reports of one
    # problem compare across machines
    rep.add("stats.shooting.rungs", len(sol.rungs))
    for i, start in enumerate(sol.rungs, start=1):
        prefix = f"stats.shooting.rung.{i}"
        rep.add(f"{prefix}.t", start.t)
        rep.add(f"{prefix}.iterations", start.iterations)
        rep.add(f"{prefix}.stayed", start.stayed)
        rep.add(f"{prefix}.exit_kinds", " ".join(start.exit_kinds) or "none")
        rep.add(f"{prefix}.steps_accepted", start.steps_accepted)
        rep.add(f"{prefix}.steps_rejected", start.steps_rejected)


def attach_verification(rep: RunReport, ver, exit_code: int) -> None:
    """Append a verification outcome."""
    rep.add("verify.exit.code", exit_code)
    rep.add("verify.exit.meaning", EXIT_MEANINGS[exit_code])
    rep.add("verify.passed", ver.passed)
    rep.add("verify.sup_v", ver.sup_v)
    rep.add("verify.sup_v_time", ver.sup_v_time)
    rep.add("verify.slack_envelope", ver.slack_envelope)
    rep.add("verify.slack_const", ver.slack_const)
    rep.add("verify.slack_closed_form", ver.slack_closed_form)
    rep.add("verify.w_range_margin", ver.w_range_margin)
    rep.add("verify.clock_margin", ver.clock_margin)
    rep.add("verify.clock_nodes", ver.clock_nodes)
    rep.add("verify.coverage.lo", ver.coverage[0])
    rep.add("verify.coverage.hi", ver.coverage[1])
    rep.add("verify.nodes", ver.n_nodes)
    for i, v in enumerate(ver.violations, start=1):
        rep.add(f"verify.violation.{i}", v.replace("\n", "; "))
    for i, note in enumerate(ver.notes, start=1):
        rep.add(f"verify.note.{i}", note.replace("\n", "; "))


# ---------------------------------------------------------------------------
# renderings


def render_table(rep: RunReport) -> str:
    """Aligned human-readable rendering: headline scalars, one row per
    condition, then solution/verification summaries when present."""
    out = io.StringIO()

    def line(text=""):
        out.write(text + "\n")

    line(f"run report ({rep.get('exit.meaning')}, "
         f"exit code {rep.get('exit.code')})")
    line(f"  window  [{rep.get('problem.t_minus')}, "
         f"{rep.get('problem.t_plus')}]   seed {rep.get('seed')}")
    line(
        "  sigma %-8s c1 %-12s c2 %-12s c3 %s"
        % tuple(
            _short(rep, k)
            for k in ("cert.sigma", "cert.c1", "cert.c2", "cert.c3")
        )
    )
    line(
        "  v0 %-12s V* %-12s w- %-12s w+ %s"
        % tuple(
            _short(rep, k)
            for k in ("cert.v0", "cert.v_star", "cert.w_minus",
                      "cert.w_plus")
        )
    )
    line()
    line("  condition  passed  window-certified  margin        note")
    for tag in CONDITION_ORDER:
        prefix = f"cond.{tag}"
        if not rep.has(f"{prefix}.passed"):
            continue
        passed = "yes" if rep.get_bool(f"{prefix}.passed") else "NO"
        window = "yes" if rep.get_bool(f"{prefix}.window_certified") else "-"
        margin = _short(rep, f"{prefix}.margin")
        note = rep.get(f"{prefix}.note")
        line(f"  ({tag:<3})      {passed:<7} {window:<17} {margin:<13} "
             f"{note}")
    line()
    line("  bounds: v_* %s   curve(0) %s   closed-form %s" % (
        _short(rep, "bound.v_small_star"),
        _short(rep, "bound.curve_t0"),
        _short(rep, "bound.closed_form"),
    ))
    if rep.has("stats.sampling.calls"):
        line("  sampling: %d calls, %d rounds, %d drawn, %d accepted" % tuple(
            rep.get_int(f"stats.sampling.{name}")
            for name in ("calls", "rounds", "drawn", "accepted")))
    if rep.has("solution.sup_v"):
        n = 1
        xi = []
        while rep.has(f"solution.xi.{n}"):
            xi.append(rep.get(f"solution.xi.{n}"))
            n += 1
        line()
        line("  solution: xi (%s)  converged at j=%s" % (
            ", ".join(xi), rep.get("solution.converged_at_j")))
        line("            sup V %s at t=%s   coverage [%s, %s]" % (
            _short(rep, "solution.sup_v"),
            _short(rep, "solution.sup_v_time"),
            _short(rep, "solution.coverage.lo"),
            _short(rep, "solution.coverage.hi"),
        ))
    if rep.has("stats.shooting.rungs"):
        rungs = [f"stats.shooting.rung.{i}"
                 for i in range(1, rep.get_int("stats.shooting.rungs") + 1)]
        kinds = {k for r in rungs for k in rep.get(f"{r}.exit_kinds").split()}
        kinds.discard("none")
        # reports written before the step counts existed lack them
        steps = ""
        if all(rep.has(f"{r}.steps_accepted") for r in rungs):
            steps = "%d steps, %d rejected; " % (
                sum(rep.get_int(f"{r}.steps_accepted") for r in rungs),
                sum(rep.get_int(f"{r}.steps_rejected") for r in rungs),
            )
        line("  search:   %d rungs, %d starts classified, %d stayed; "
             "%sexits %s" % (
                 len(rungs),
                 sum(rep.get_int(f"{r}.iterations") for r in rungs),
                 sum(rep.get_bool(f"{r}.stayed") for r in rungs),
                 steps,
                 " ".join(sorted(kinds)) or "none",
             ))
    if rep.has("verify.passed"):
        line()
        line("  verify: %s  slack envelope %s  const %s  closed-form %s" % (
            "pass" if rep.get_bool("verify.passed") else "VIOLATED",
            _short(rep, "verify.slack_envelope"),
            _short(rep, "verify.slack_const"),
            _short(rep, "verify.slack_closed_form"),
        ))
        i = 1
        while rep.has(f"verify.violation.{i}"):
            line(f"    violation: {rep.get(f'verify.violation.{i}')}")
            i += 1
    i = 1
    while rep.has(f"note.{i}"):
        line(f"  note: {rep.get(f'note.{i}')}")
        i += 1
    return out.getvalue()


def _short(rep: RunReport, key: str) -> str:
    try:
        return "%.6g" % rep.get_float(key)
    except (ValueError, DocumentError):
        return rep.get(key) if rep.has(key) else "-"


def render_csv(rep: RunReport) -> str:
    """``key,value`` CSV; quoting is handled so the rendering re-parses
    losslessly via :func:`parse_csv_report`."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in rep.items():
        writer.writerow([key, value])
    return out.getvalue()


def parse_csv_report(text: str) -> RunReport:
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or rows[0] != ["key", "value"]:
        raise DocumentError("not a report CSV (missing key,value header)")
    rep = RunReport()
    for key, value in rows[1:]:
        rep._pairs.append((key, value))
        rep._index[key] = value
    if rep._index.get("format") != FORMAT_TAG:
        raise DocumentError("CSV does not contain a report (no format key)")
    return rep
