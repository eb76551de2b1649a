"""Plain-text problem documents.

Line-oriented, UTF-8: ``[section]`` headers, ``key = value`` pairs, ``#``
comments.  Matrix and vector entries are expression strings keyed by
1-based indices, e.g. ``B.1.1 = "2+sin(t)"``.  The format needs no
parser beyond line splitting, so documents stay diffable in review.

Sections
--------
``[problem]``   ``n``, ``t_minus``, ``t_plus``
``[system]``    ``A.i.j``, ``f0.i`` (entries default to ``"0"``)
``[guiding]``   ``B.i.j``, ``C.i.j``, optional ``Chat.i.j``; these
                matrices are symmetric, so ``X.i.j`` and ``X.j.i`` must
                be the same expression (write both, or neither)
``[region]``    ``v0``, ``v_star`` (either may be ``auto``), ``w_minus``,
                ``w_plus``
``[numerics]``  optional ``grid``, ``tol``, ``seed``, ``samples``

Unknown sections or keys raise :class:`DocumentError` with the line
number — a typo in an entry key must not silently become a zero entry.
Each matrix and the forcing are built once, at parse time, and
evaluated there at ``(t, x) = (0, 0)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricMatrix,
    DocumentError,
    ExprSyntaxError,
    UnknownIdentifier,
    VWBoundError,
)
from .expr import MatrixFunction, Num, VectorFunction, parse_expr
from .quadratic import QuadraticProblem

__all__ = ["ProblemDocument", "parse_problem_text", "load_problem_document"]

_SECTIONS = ("problem", "system", "guiding", "region", "numerics")
_MATRIX_NAMES = {"A": "system", "B": "guiding", "C": "guiding",
                 "Chat": "guiding"}
_ZERO = Num(0.0)  # an unset entry


@dataclass
class ProblemDocument:
    """Parsed document with its matrices and forcing built, once each.

    ``chat`` (``None`` when the document has no ``Chat`` entries) is
    parsed and checked like ``B`` and ``C`` but used by no pipeline stage.
    """

    n: int
    window: tuple[float, float]
    a: MatrixFunction
    f0: VectorFunction
    b: MatrixFunction
    c: MatrixFunction
    chat: MatrixFunction | None
    v0: float | None  # None means auto
    v_star: float | None
    w_minus: float
    w_plus: float
    grid: int = 201
    tol: float = 1e-8
    seed: int = 42
    samples: int = 48
    source: str = "<text>"

    def matrix(self, name: str) -> MatrixFunction | None:
        return {"A": self.a, "B": self.b, "C": self.c, "Chat": self.chat}[name]

    def forcing(self) -> VectorFunction:
        return self.f0

    @property
    def has_chat(self) -> bool:
        return self.chat is not None

    def to_problem(self) -> QuadraticProblem:
        """Build the problem; a value the problem rejects (grid, window,
        region bounds, v0, seed) raises :class:`DocumentError`."""
        try:
            return QuadraticProblem(
                a=self.a,
                f0=self.f0,
                b=self.b,
                c=self.c,
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

    # per matrix or forcing: entry index -> (expression text, line)
    entries: dict[str, dict] = {name: {} for name in ("f0", *_MATRIX_NAMES)}
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
                entries["f0"][idx] = (value, line_no)
            elif name in _MATRIX_NAMES:
                if _MATRIX_NAMES[name] != section_name or len(parts) != 3:
                    raise DocumentError(
                        f"bad entry key {key!r}; expected "
                        f"{name}.i.j in [{_MATRIX_NAMES[name]}]",
                        line=line_no, key=key,
                    )
                i = _index(parts[1], n, line_no, key)
                j = _index(parts[2], n, line_no, key)
                entries[name][(i, j)] = (value, line_no)
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
    for name in "BC":
        if not entries[name]:
            raise DocumentError(f"no {name} entries in [guiding]", key=name)

    a, b, c, f0 = (_build(name, entries[name], n)
                   for name in ("A", "B", "C", "f0"))
    return ProblemDocument(
        n=n,
        window=(t_minus, t_plus),
        a=a,
        f0=f0,
        b=b,
        c=c,
        chat=_build("Chat", entries["Chat"], n) if entries["Chat"] else None,
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


def _build(name: str, given: dict, n: int):
    """Matrix ``name`` (``A``, ``B``, ``C``, ``Chat``) from its entries
    ``{(i, j): (text, line)}``, or the forcing (``name == "f0"``) from
    ``{i: (text, line)}``; unset entries are zero.  ``B``, ``C`` and
    ``Chat`` are symmetric, so mirrored entries must be the same
    expression.  Evaluated once at ``(t, x) = (0, 0)`` so a malformed
    entry is reported against the document, not from inside a solve."""
    what = "forcing f0" if name == "f0" else f"matrix {name}"
    asts = {}
    for index, (text, line_no) in given.items():
        try:
            asts[index] = parse_expr(text, n)
        except (ExprSyntaxError, UnknownIdentifier) as exc:
            raise DocumentError(
                f"{what} fails to evaluate: {exc}", line=line_no, key=name
            ) from None
    span = range(1, n + 1)
    try:
        if name == "f0":
            fn = VectorFunction([asts.get(i, _ZERO) for i in span], n)
        else:
            fn = MatrixFunction(
                [[asts.get((i, j), _ZERO) for j in span] for i in span], n,
                symmetric=name != "A",
            )
        fn.eval(0.0)
    except AsymmetricMatrix as exc:
        i, j = exc.row, exc.col
        (upper, line_u), (lower, line_l) = (
            given.get(pair, ("0", 0)) for pair in ((i, j), (j, i))
        )
        raise DocumentError(
            f"{what} must be symmetric: {name}.{i}.{j} = {upper!r} and "
            f"{name}.{j}.{i} = {lower!r} must be the same expression",
            line=line_u or line_l, key=f"{name}.{i}.{j}",
        ) from None
    except VWBoundError as exc:
        raise DocumentError(
            f"{what} fails to evaluate: {exc}", key=name
        ) from None
    return fn


def load_problem_document(path) -> ProblemDocument:
    """Read and parse a problem document file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    return parse_problem_text(text, source=str(path))
