"""Flat machine-readable run reports.

A report is an ordered list of ``key = value`` lines: keys are dotted
ASCII identifiers, values are either strings (a newline is written as
``; ``), integers, or floats printed with 17 significant digits so every
float64 round-trips bit-exactly.  ``RunReport.from_text(r.to_text())``
reproduces the text byte for byte; the CSV rendering re-parses
losslessly as well.

The report carries the full certificate — scalars, per-condition table,
sampled curves — so downstream commands can rebuild a
:class:`~vwbound.quadratic.Certificate` without re-running the
certification.  Every report key is written here.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .errors import DocumentError, DomainError, InfeasibleConditionE, read_text
from .quadratic import Certificate, ConditionResult, closed_form_ceiling

__all__ = [
    "RunReport",
    "report_from_certificate",
    "certificate_from_report",
    "condition_failure_report",
    "attach_solution",
    "attach_solve_failure",
    "attach_verification",
    "load_report_or_csv",
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
    if isinstance(value, np.ndarray):
        return " ".join("%.17g" % float(v) for v in value)
    return str(value)


class RunReport:
    """Ordered key–value report with typed accessors."""

    def __init__(self):
        self._pairs: list[tuple[str, str]] = []
        self._index: dict[str, str] = {}

    def add(self, key: str, value) -> None:
        if " " in key or "=" in key or "\n" in key:
            raise ValueError(f"bad report key {key!r}")
        text = _fmt(value).replace("\n", "; ")
        self._pairs.append((key, text))
        self._index[key] = text

    def add_array(self, key: str, values) -> None:
        self.add(key, np.asarray(values, dtype=float))

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
    def from_pairs(cls, pairs) -> "RunReport":
        """A report of the formatted ``(key, value)`` pairs of a file."""
        rep = cls()
        rep._pairs = [(key, value) for key, value in pairs]
        rep._index = dict(rep._pairs)
        if not rep._pairs:
            raise DocumentError("empty report")
        if rep._index.get("format") != FORMAT_TAG:
            raise DocumentError(
                f"not a {FORMAT_TAG} report (format key missing or wrong)"
            )
        return rep

    @classmethod
    def from_text(cls, text: str) -> "RunReport":
        pairs = []
        for line_no, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            key, sep, value = line.partition(" = ")
            if not sep or " " in key:
                raise DocumentError(f"bad report line {line!r}", line=line_no)
            pairs.append((key, value))
        return cls.from_pairs(pairs)

    @classmethod
    def load(cls, path) -> "RunReport":
        return cls.from_text(read_text(path))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


def load_report_or_csv(path) -> RunReport:
    """Read a report file or its CSV twin (:func:`render_csv`)."""
    text = read_text(path)
    if text.lstrip().startswith("key,value"):
        return parse_csv_report(text)
    return RunReport.from_text(text)


# ---------------------------------------------------------------------------
# the certificate's keys


def _finite(get):
    def read(rep, key):
        value = get(rep, key)
        if not np.all(np.isfinite(value)):
            raise DocumentError("value is not a finite number", key=key)
        return value
    return read


def _not_infinite(rep, key):
    # nan marks a grid time without sampled states, as certify writes it
    value = rep.get_array(key)
    if np.any(np.isinf(value)):
        raise DocumentError("value is infinite", key=key)
    return value


def _text(rep, key):
    # looked up on the instance, as the typed getters look it up, so a
    # RunReport subclass sees every read
    return rep.get(key)


_FLOAT, _CURVE = _finite(RunReport.get_float), _finite(RunReport.get_array)
_INT, _BOOL = RunReport.get_int, RunReport.get_bool

# (report key, Certificate field, reader) of every certificate number a
# report carries, in report order; a pair field takes one key per entry.
# The header's window and seed open the exit-3 report too; the curves
# follow the condition table.
_HEADER_KEYS = (("problem.t_minus", "window", _FLOAT),
                ("problem.t_plus", "window", _FLOAT), ("seed", "seed", _INT))
_SCALAR_KEYS = (
    ("cert.sigma", "sigma", _FLOAT), ("cert.c1", "c1", _FLOAT),
    ("cert.c2", "c2", _FLOAT), ("cert.c3", "c3", _FLOAT),
    ("cert.v0", "v0", _FLOAT), ("cert.v0_auto", "v0_auto", _BOOL),
    ("cert.v_star", "v_star", _FLOAT),
    ("cert.v_star_auto", "v_star_auto", _BOOL),
    ("cert.w_minus", "w_minus", _FLOAT), ("cert.w_plus", "w_plus", _FLOAT),
    ("cert.nu", "nu", _FLOAT), ("cert.omega_tilde", "omega_tilde", _FLOAT),
    ("cert.omega0", "omega0", _FLOAT),
    ("bound.v_small_star", "v_small_star", _FLOAT),
    ("bound.vstar_required.1", "vstar_required", _FLOAT),
    ("bound.vstar_required.2", "vstar_required", _FLOAT),
    ("bound.vstar_slack", "vstar_slack", _FLOAT),
)
_CURVE_KEYS = (
    ("curve.ts", "ts", _CURVE), ("curve.lam_plus", "lam_plus", _CURVE),
    ("curve.lam_minus", "lam_minus", _CURVE),
    ("curve.lam_mp", "lam_mp", _CURVE),
    ("curve.alpha", "alpha", _not_infinite),
    ("curve.ceiling", "ceiling", _CURVE),
)


def _condition_keys(tag: str):
    """The table of condition ``tag``'s ConditionResult fields."""
    return tuple((f"cond.{tag}.{name}", name, read) for name, read in (
        ("passed", _BOOL), ("margin", RunReport.get_float),
        ("window_certified", _BOOL), ("note", _text)))


def _put(rep: RunReport, src, keys) -> None:
    """Add the fields of ``src`` under ``keys``, a table of the above."""
    taken = {}
    for key, name, _ in keys:
        value = getattr(src, name)
        if isinstance(value, tuple):
            taken[name] = taken.get(name, -1) + 1
            value = value[taken[name]]
        rep.add(key, value)


def _get(rep: RunReport, keys) -> dict:
    """The fields :func:`_put` wrote under ``keys``, by field name."""
    fields = {}
    for key, name, read in keys:
        value = read(rep, key)
        # the second key of a pair field completes the pair
        fields[name] = (fields[name], value) if name in fields else value
    return fields


def _put_exit(rep: RunReport, prefix: str, exit_code: int) -> None:
    rep.add(f"{prefix}exit.code", exit_code)
    rep.add(f"{prefix}exit.meaning", EXIT_MEANINGS[exit_code])


def _put_numbered(rep: RunReport, prefix: str, values) -> None:
    for i, value in enumerate(values, start=1):
        rep.add(f"{prefix}.{i}", value)


def _numbered(rep: RunReport, prefix: str) -> list[str]:
    """The values of ``<prefix>.1``, ``<prefix>.2``, ... that exist."""
    values = []
    while rep.has(f"{prefix}.{len(values) + 1}"):
        values.append(rep.get(f"{prefix}.{len(values) + 1}"))
    return values


def _header(src, exit_code: int, n: int, source: str) -> RunReport:
    """A new report's opening keys, the window and seed from ``src``."""
    rep = RunReport()
    rep.add("format", FORMAT_TAG)
    rep.add("problem.n", n)
    if source:
        rep.add("problem.source", source)
    _put(rep, src, _HEADER_KEYS)
    _put_exit(rep, "", exit_code)
    return rep


def report_from_certificate(
    cert: Certificate, exit_code: int, n: int, source: str = ""
) -> RunReport:
    """Serialize a certificate (scalars, condition table, curves) and the
    region sampler's counts."""
    rep = _header(cert, exit_code, n, source)
    _put(rep, cert, _SCALAR_KEYS)
    # headline bounds: envelope curve at t = 0 and the constants-only
    # closed form at the window spread
    i0 = int(np.argmin(np.abs(cert.ts)))
    rep.add("bound.curve_t0", cert.ceiling[i0])
    spread = float(np.max(cert.lam_plus) - np.min(cert.lam_minus))
    rep.add("bound.closed_form",
            closed_form_ceiling(cert.growth_pair(), spread))
    for tag in CONDITION_ORDER:
        _put(rep, cert.conditions[tag], _condition_keys(tag))
    _put(rep, cert, _CURVE_KEYS)
    _put_numbered(rep, "note", cert.notes)
    # what the region sampler did: counts only, 0 on the state-free path
    for name in ("calls", "rounds", "drawn", "accepted"):
        rep.add(f"stats.sampling.{name}", getattr(cert.sampling, name))
    return rep


def condition_failure_report(doc, tag: str, exc, exit_code: int) -> RunReport:
    """The report of a certify run stopped by condition ``tag`` failing
    with ``exc``: ``doc``'s header, the tag and the condition's row."""
    rep = _header(doc, exit_code, doc.n, doc.source)
    rep.add("failed.condition", tag)
    _put(rep, ConditionResult(passed=False, note=str(exc)),
         _condition_keys(tag))
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
    conditions = {
        tag: ConditionResult(**_get(rep, _condition_keys(tag)))
        for tag in CONDITION_ORDER
    }
    cert = Certificate(**_get(rep, _HEADER_KEYS + _SCALAR_KEYS + _CURVE_KEYS),
                       conditions=conditions, notes=_numbered(rep, "note"))
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
    _put_exit(rep, "solution.", exit_code)
    rep.add("solution.converged_at_j", sol.converged_at_j)
    _put_numbered(rep, "solution.xi", map(float, sol.xi))
    rep.add("solution.sup_v", sol.sup_v)
    rep.add("solution.sup_v_time", sol.sup_v_time)
    rep.add("solution.coverage.lo", float(sol.traj.ts[0]))
    rep.add("solution.coverage.hi", float(sol.traj.ts[-1]))
    rep.add("solution.nodes", int(sol.traj.ts.size))
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


def attach_solve_failure(rep: RunReport, exc, exit_code: int) -> None:
    """Append why a solve run stopped (``exc``) and, when ``exc`` carries
    it, the xi each searched rung reached."""
    _put_exit(rep, "solution.", exit_code)
    rep.add("solution.error", str(exc))
    for j, t_j, xi in getattr(exc, "xi_sequence", None) or []:
        rep.add_array(f"solution.xi_{j}.at_{t_j:g}", xi)


def attach_verification(rep: RunReport, ver, exit_code: int) -> None:
    """Append a verification outcome."""
    _put_exit(rep, "verify.", exit_code)
    for name in ("passed", "sup_v", "sup_v_time", "slack_envelope",
                 "slack_const", "slack_closed_form", "w_range_margin",
                 "clock_margin", "clock_nodes"):
        rep.add(f"verify.{name}", getattr(ver, name))
    rep.add("verify.coverage.lo", ver.coverage[0])
    rep.add("verify.coverage.hi", ver.coverage[1])
    rep.add("verify.nodes", ver.n_nodes)
    _put_numbered(rep, "verify.violation", ver.violations)
    _put_numbered(rep, "verify.note", ver.notes)


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
    line("  sigma %-8s c1 %-12s c2 %-12s c3 %s" % _shorts(
        rep, "cert.sigma", "cert.c1", "cert.c2", "cert.c3"))
    line("  v0 %-12s V* %-12s w- %-12s w+ %s" % _shorts(
        rep, "cert.v0", "cert.v_star", "cert.w_minus", "cert.w_plus"))
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
    line("  bounds: v_* %s   curve(0) %s   closed-form %s" % _shorts(
        rep, "bound.v_small_star", "bound.curve_t0", "bound.closed_form"))
    if rep.has("stats.sampling.calls"):
        line("  sampling: %d calls, %d rounds, %d drawn, %d accepted" % tuple(
            rep.get_int(f"stats.sampling.{name}")
            for name in ("calls", "rounds", "drawn", "accepted")))
    if rep.has("solution.error"):
        line("  solution: %s (exit code %s): %s" % (
            rep.get("solution.exit.meaning"), rep.get("solution.exit.code"),
            rep.get("solution.error")))
    if rep.has("solution.sup_v"):
        line()
        line("  solution: xi (%s)  converged at j=%s" % (
            ", ".join(_numbered(rep, "solution.xi")),
            rep.get("solution.converged_at_j")))
        line("            sup V %s at t=%s   coverage [%s, %s]" % _shorts(
            rep, "solution.sup_v", "solution.sup_v_time",
            "solution.coverage.lo", "solution.coverage.hi"))
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
            *_shorts(rep, "verify.slack_envelope", "verify.slack_const",
                     "verify.slack_closed_form")))
        for violation in _numbered(rep, "verify.violation"):
            line(f"    violation: {violation}")
    for note in _numbered(rep, "note"):
        line(f"  note: {note}")
    return out.getvalue()


def _short(rep: RunReport, key: str) -> str:
    try:
        return "%.6g" % rep.get_float(key)
    except (ValueError, DocumentError):
        return rep.get(key) if rep.has(key) else "-"


def _shorts(rep: RunReport, *keys: str) -> tuple[str, ...]:
    return tuple(_short(rep, key) for key in keys)


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
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["key", "value"]:
        raise DocumentError("not a report CSV (missing key,value header)")
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise DocumentError(f"bad report CSV row {row!r}", line=line_no)
    return RunReport.from_pairs(rows[1:])
