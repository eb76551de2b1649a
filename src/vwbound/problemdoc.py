"""Plain-text problem documents.

Line-oriented, UTF-8: ``[section]`` headers, ``key = value`` pairs, ``#``
comments.  Matrix and vector entries are expression strings keyed by
1-based indices, e.g. ``B.1.1 = "2+sin(t)"``.  The format needs no
parser beyond line splitting, so documents stay diffable in review.

Sections
--------
``[problem]``   ``n``, ``t_minus``, ``t_plus``
``[system]``    ``A.i.j``, ``f0.i`` (entries default to ``"0"``)
``[guiding]``   ``B.i.j``, ``C.i.j``, optional ``Chat.i.j``
``[region]``    ``v0``, ``v_star`` (either may be ``auto``), ``w_minus``,
                ``w_plus``
``[numerics]``  optional ``grid``, ``tol``, ``seed``, ``samples``

Unknown sections or keys raise :class:`DocumentError` with the line
number — a typo in an entry key must not silently become a zero entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DocumentError
from .expr import MatrixFunction, VectorFunction
from .quadratic import QuadraticProblem

__all__ = ["ProblemDocument", "parse_problem_text", "load_problem_document"]

_SECTIONS = ("problem", "system", "guiding", "region", "numerics")
_MATRIX_NAMES = {"A": "system", "B": "guiding", "C": "guiding",
                 "Chat": "guiding"}


@dataclass
class ProblemDocument:
    """Parsed document, expressions still as strings."""

    n: int
    window: tuple[float, float]
    a_entries: dict
    f0_entries: dict
    b_entries: dict
    c_entries: dict
    chat_entries: dict
    v0: float | None  # None means auto
    v_star: float | None
    w_minus: float
    w_plus: float
    grid: int = 201
    tol: float = 1e-8
    seed: int = 42
    samples: int = 48
    source: str = "<text>"

    def matrix(self, name: str) -> MatrixFunction:
        entries = {"A": self.a_entries, "B": self.b_entries,
                   "C": self.c_entries, "Chat": self.chat_entries}[name]
        rows = [[entries.get((i, j), "0") for j in range(1, self.n + 1)]
                for i in range(1, self.n + 1)]
        symmetric = name in ("B", "C", "Chat")
        return MatrixFunction.from_strings(rows, n_states=self.n,
                                           symmetric=symmetric)

    def forcing(self) -> VectorFunction:
        texts = [self.f0_entries.get(i, "0") for i in range(1, self.n + 1)]
        return VectorFunction.from_strings(texts, n_states=self.n)

    @property
    def has_chat(self) -> bool:
        return bool(self.chat_entries)

    def to_problem(self) -> QuadraticProblem:
        """Build the problem; a value the problem rejects (grid, window,
        region bounds, v0, seed) raises :class:`DocumentError`."""
        try:
            return QuadraticProblem(
                a=self.matrix("A"),
                f0=self.forcing(),
                b=self.matrix("B"),
                c=self.matrix("C"),
                window=self.window,
                v0=self.v0,
                w_minus=self.w_minus,
                w_plus=self.w_plus,
                v_star=self.v_star,
                n_grid=self.grid,
                n_state_samples=self.samples,
                seed=self.seed,
            )
        except ValueError as exc:
            raise DocumentError(str(exc)) from None


def _clean_value(value: str, line_no: int) -> str:
    """Strip quotes and trailing ``#`` comments from a raw value."""
    value = value.strip()
    if value.startswith('"'):
        end = value.find('"', 1)
        if end == -1:
            raise DocumentError("unterminated quoted value", line=line_no)
        return value[1:end]
    return value.split("#", 1)[0].strip()


def _parse_scalar(value: str, line_no: int, key: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise DocumentError(
            f"{key!r} is not a number: {value!r}", line=line_no, key=key
        ) from None
    if not np.isfinite(out):
        raise DocumentError(f"{key!r} must be finite", line=line_no, key=key)
    return out


def parse_problem_text(text: str, source: str = "<text>") -> ProblemDocument:
    """Parse a problem document from a string.

    Raises :class:`DocumentError` carrying the offending line number and
    key for any syntax problem, unknown key, bad index, or expression
    that fails to evaluate.
    """
    section = None
    raw: dict[str, dict[str, tuple[str, int]]] = {s: {} for s in _SECTIONS}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise DocumentError(
                    "unterminated section header", line=line_no
                )
            name = stripped[1:-1].strip()
            if name not in _SECTIONS:
                raise DocumentError(
                    f"unknown section [{name}]; expected one of "
                    + ", ".join(f"[{s}]" for s in _SECTIONS),
                    line=line_no,
                )
            section = name
            continue
        if "=" not in stripped:
            raise DocumentError(
                f"expected 'key = value', got {stripped!r}", line=line_no
            )
        if section is None:
            raise DocumentError(
                "key before any [section] header", line=line_no
            )
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in raw[section]:
            raise DocumentError(
                f"duplicate key {key!r} in [{section}]",
                line=line_no, key=key,
            )
        raw[section][key] = (_clean_value(value, line_no), line_no)

    def take(section_name, key, required=False, default=None):
        if key in raw[section_name]:
            return raw[section_name].pop(key)
        if required:
            raise DocumentError(
                f"missing required key {key!r} in [{section_name}]", key=key
            )
        return (default, 0)

    n_text, n_line = take("problem", "n", required=True)
    try:
        n = int(n_text)
    except ValueError:
        raise DocumentError(
            f"'n' must be an integer, got {n_text!r}", line=n_line, key="n"
        ) from None
    if n < 1:
        raise DocumentError("'n' must be at least 1", line=n_line, key="n")
    tm_text, tm_line = take("problem", "t_minus", required=True)
    tp_text, tp_line = take("problem", "t_plus", required=True)
    t_minus = _parse_scalar(tm_text, tm_line, "t_minus")
    t_plus = _parse_scalar(tp_text, tp_line, "t_plus")

    entries = {"A": {}, "B": {}, "C": {}, "Chat": {}}
    f0_entries: dict[int, str] = {}
    for section_name in ("system", "guiding"):
        for key, (value, line_no) in list(raw[section_name].items()):
            parts = key.split(".")
            name = parts[0]
            if name == "f0":
                if section_name != "system" or len(parts) != 2:
                    raise DocumentError(
                        f"bad forcing key {key!r}; expected f0.i",
                        line=line_no, key=key,
                    )
                idx = _index(parts[1], n, line_no, key)
                f0_entries[idx] = value
            elif name in _MATRIX_NAMES:
                if _MATRIX_NAMES[name] != section_name or len(parts) != 3:
                    raise DocumentError(
                        f"bad entry key {key!r}; expected "
                        f"{name}.i.j in [{_MATRIX_NAMES[name]}]",
                        line=line_no, key=key,
                    )
                i = _index(parts[1], n, line_no, key)
                j = _index(parts[2], n, line_no, key)
                entries[name][(i, j)] = value
            else:
                raise DocumentError(
                    f"unknown key {key!r} in [{section_name}]",
                    line=line_no, key=key,
                )
            raw[section_name].pop(key)

    def region_scalar(key, required=True, allow_auto=False):
        value, line_no = take("region", key, required=required)
        if value is None:
            return None
        if allow_auto and value.lower() == "auto":
            return None
        return _parse_scalar(value, line_no, key)

    v0 = region_scalar("v0", required=False, allow_auto=True)
    v_star = region_scalar("v_star", required=False, allow_auto=True)
    w_minus = region_scalar("w_minus")
    w_plus = region_scalar("w_plus")

    grid_text, grid_line = take("numerics", "grid", default="201")
    tol_text, tol_line = take("numerics", "tol", default="1e-8")
    seed_text, seed_line = take("numerics", "seed", default="42")
    samples_text, samples_line = take("numerics", "samples", default="48")
    try:
        grid = int(grid_text)
        seed = int(seed_text)
        samples = int(samples_text)
    except ValueError as exc:
        raise DocumentError(f"bad integer in [numerics]: {exc}") from None
    tol = _parse_scalar(tol_text, tol_line, "tol")

    for section_name in _SECTIONS:
        for key, (_, line_no) in raw[section_name].items():
            raise DocumentError(
                f"unknown key {key!r} in [{section_name}]",
                line=line_no, key=key,
            )
    if not entries["B"]:
        raise DocumentError("no B entries in [guiding]", key="B")
    if not entries["C"]:
        raise DocumentError("no C entries in [guiding]", key="C")

    doc = ProblemDocument(
        n=n,
        window=(t_minus, t_plus),
        a_entries=entries["A"],
        f0_entries=f0_entries,
        b_entries=entries["B"],
        c_entries=entries["C"],
        chat_entries=entries["Chat"],
        v0=v0,
        v_star=v_star,
        w_minus=w_minus,
        w_plus=w_plus,
        grid=grid,
        tol=tol,
        seed=seed,
        samples=samples,
        source=source,
    )
    _probe_expressions(doc)
    return doc


def _index(text: str, n: int, line_no: int, key: str) -> int:
    try:
        idx = int(text)
    except ValueError:
        raise DocumentError(
            f"bad index in {key!r}", line=line_no, key=key
        ) from None
    if not 1 <= idx <= n:
        raise DocumentError(
            f"index {idx} out of range 1..{n} in {key!r}",
            line=line_no, key=key,
        )
    return idx


def _probe_expressions(doc: ProblemDocument) -> None:
    """Compile and evaluate every expression once so malformed input is
    reported against the document, not from deep inside a solve."""
    z = np.zeros(doc.n)
    for name in ("A", "B", "C") + (("Chat",) if doc.has_chat else ()):
        try:
            doc.matrix(name).eval(0.0, z)
        except Exception as exc:
            raise DocumentError(
                f"matrix {name} fails to evaluate: {exc}", key=name
            ) from None
    try:
        doc.forcing().eval(0.0, z)
    except Exception as exc:
        raise DocumentError(
            f"forcing f0 fails to evaluate: {exc}", key="f0"
        ) from None


def load_problem_document(path) -> ProblemDocument:
    """Read and parse a problem document file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    return parse_problem_text(text, source=str(path))
