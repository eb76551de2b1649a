"""Time/state expression language for problem data.

Matrix and vector entries of a problem (the estimating matrix ``B(t)``, the
guiding matrix ``C(t)``, the system matrix ``A(t,x)`` and the forcing term
``f0(t)``) are written as small arithmetic expressions over the time
variable ``t`` and state variables ``x1 ... xn``:

    ``"2 + sin(t)"``, ``"x1*exp(-t)"``, ``"(t+1)^-0.5"``

Grammar
-------
Binary operators ``+ - * /`` and ``^``; ``^`` takes a *numeric literal*
exponent (optionally signed).  Precedence, tightest first: ``^``, unary
minus, ``* /``, ``+ -``; equal precedence associates left.  Functions:
``sin cos exp ln sqrt abs``.  Whitespace is insignificant.

The module provides

* :func:`parse_expr` — text to AST with byte-offset error reporting,
* :func:`eval_expr` — interpreted evaluation with precise domain errors,
* :func:`diff_t` — exact symbolic derivative in ``t`` (state held fixed),
* :func:`to_text` — canonical printing (``parse(to_text(a)) == a``),
* :class:`MatrixFunction` / :class:`VectorFunction` — entry grids, each
  evaluated by one generated function, constants cached, symmetry checked
  on the expressions themselves,
* :func:`compile_rhs` / :func:`compile_quadform` — generated right-hand
  side and quadratic forms for the integrator's hot loop.

All generated code comes from one template (:func:`_compile_guarded`):
the entries inlined as Python arithmetic, with a fallback that re-runs
the same template through :func:`eval_expr` when the fast body trips.

Evaluation follows IEEE double semantics where that is the useful choice
(overflow saturates to ``inf``, ``sin(inf)`` is ``nan``) and raises
:class:`~vwbound.errors.DomainError` / ``DivisionByZero`` where silence
would hide a modeling mistake (``ln``/``sqrt`` of a nonpositive number,
fractional power of a negative base, exact zero denominator).
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import (
    AsymmetricMatrix,
    DivisionByZero,
    DomainError,
    ExprSyntaxError,
    NotDifferentiable,
    UnknownIdentifier,
)

__all__ = [
    "ExprAST",
    "Num",
    "TimeVar",
    "StateVar",
    "Neg",
    "BinOp",
    "Pow",
    "Call",
    "parse_expr",
    "eval_expr",
    "diff_t",
    "to_text",
    "depends_on_t",
    "depends_on_state",
    "MatrixFunction",
    "VectorFunction",
    "compile_rhs",
    "compile_quadform",
]

_FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt", "abs")


# ---------------------------------------------------------------------------
# AST


class ExprAST:
    """Base node.  ``off`` is the source offset used in error messages."""

    __slots__ = ("off",)
    prec = 5  # printing precedence; atoms bind tightest

    def __init__(self, off: int = 0):
        self.off = off

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({to_text(self)!r})"


class Num(ExprAST):
    __slots__ = ("value",)

    def __init__(self, value: float, off: int = 0):
        super().__init__(off)
        self.value = float(value)

    @property
    def prec(self):
        return 5 if self.value >= 0 else 3

    def __eq__(self, other):
        return isinstance(other, Num) and (
            self.value == other.value
            or (math.isnan(self.value) and math.isnan(other.value))
        )

    def __hash__(self):
        return hash(("Num", self.value))


class TimeVar(ExprAST):
    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, TimeVar)

    def __hash__(self):
        return hash("TimeVar")


class StateVar(ExprAST):
    """State variable; ``index`` is zero-based, ``name`` is the surface
    spelling (``x3``, or a custom name such as ``v``)."""

    __slots__ = ("index", "name")

    def __init__(self, index: int, name: str, off: int = 0):
        super().__init__(off)
        self.index = index
        self.name = name

    def __eq__(self, other):
        return isinstance(other, StateVar) and self.index == other.index

    def __hash__(self):
        return hash(("StateVar", self.index))


class Neg(ExprAST):
    __slots__ = ("arg",)
    prec = 3

    def __init__(self, arg: ExprAST, off: int = 0):
        super().__init__(off)
        self.arg = arg

    def __eq__(self, other):
        return isinstance(other, Neg) and self.arg == other.arg

    def __hash__(self):
        return hash(("Neg", self.arg))


class BinOp(ExprAST):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: ExprAST, rhs: ExprAST, off: int = 0):
        super().__init__(off)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    @property
    def prec(self):
        return 1 if self.op in "+-" else 2

    def __eq__(self, other):
        return (
            isinstance(other, BinOp)
            and self.op == other.op
            and self.lhs == other.lhs
            and self.rhs == other.rhs
        )

    def __hash__(self):
        return hash(("BinOp", self.op, self.lhs, self.rhs))


class Pow(ExprAST):
    """Power with a literal real exponent (the only exponent form the
    language admits, which keeps the derivative rule exact)."""

    __slots__ = ("base", "exponent")
    prec = 4

    def __init__(self, base: ExprAST, exponent: float, off: int = 0):
        super().__init__(off)
        self.base = base
        self.exponent = float(exponent)

    def __eq__(self, other):
        return (
            isinstance(other, Pow)
            and self.base == other.base
            and self.exponent == other.exponent
        )

    def __hash__(self):
        return hash(("Pow", self.base, self.exponent))


class Call(ExprAST):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: str, arg: ExprAST, off: int = 0):
        super().__init__(off)
        self.fn = fn
        self.arg = arg

    def __eq__(self, other):
        return isinstance(other, Call) and self.fn == other.fn and self.arg == other.arg

    def __hash__(self):
        return hash(("Call", self.fn, self.arg))


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r")"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == m.start():
            # skip leading whitespace manually to report the right offset
            stripped = pos
            while stripped < len(text) and text[stripped].isspace():
                stripped += 1
            if stripped >= len(text):
                break
            raise ExprSyntaxError(
                f"unexpected character {text[stripped]!r}", stripped
            )
        kind = m.lastgroup
        value = m.group(kind)
        start = m.end() - len(value)
        tokens.append((kind, value, start))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, names: dict[str, int]):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.names = names

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, off = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        return self.next()

    # expr := term (('+'|'-') term)*
    def expr(self) -> ExprAST:
        node = self.term()
        while True:
            kind, value, off = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                node = BinOp(value, node, self.term(), off)
            else:
                return node

    # term := unary (('*'|'/') unary)*
    def term(self) -> ExprAST:
        node = self.unary()
        while True:
            kind, value, off = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                node = BinOp(value, node, self.unary(), off)
            else:
                return node

    # unary := '-' unary | power
    def unary(self) -> ExprAST:
        kind, value, off = self.peek()
        if kind == "op" and value == "-":
            self.next()
            arg = self.unary()
            if isinstance(arg, Num):
                # fold so printed negative literals reparse to themselves
                return Num(-arg.value, off)
            return Neg(arg, off)
        return self.power()

    # power := atom ('^' exponent)* , exponent := ['-'] NUMBER
    def power(self) -> ExprAST:
        node = self.atom()
        while True:
            kind, value, off = self.peek()
            if kind == "op" and value == "^":
                self.next()
                node = Pow(node, self.exponent_literal(), off)
            else:
                return node

    def exponent_literal(self) -> float:
        kind, value, off = self.peek()
        sign = 1.0
        if kind == "op" and value == "-":
            self.next()
            sign = -1.0
            kind, value, off = self.peek()
        if kind != "num":
            raise ExprSyntaxError("expected numeric literal exponent", off)
        self.next()
        return sign * float(value)

    def atom(self) -> ExprAST:
        kind, value, off = self.next()
        if kind == "num":
            return Num(float(value), off)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            if value in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg, off)
            if value == "t":
                return TimeVar(off)
            if value in self.names:
                return StateVar(self.names[value], value, off)
            raise UnknownIdentifier(value, off)
        raise ExprSyntaxError(
            "expected a number, variable, function or '('", off
        )


def parse_expr(text: str, n_states: int = 0) -> ExprAST:
    """Parse ``text`` into an AST.

    Parameters
    ----------
    text : str
        Expression source.
    n_states : int
        Number of state variables, named ``x1 ... x<n>``.

    Raises
    ------
    ExprSyntaxError
        With the byte offset of the failure and what was expected there.
    UnknownIdentifier
        For identifiers outside ``t``, the state names and the function set.
    """
    names = {f"x{i + 1}": i for i in range(n_states)}
    parser = _Parser(text, names)
    node = parser.expr()
    kind, value, off = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {value!r}", off)
    return node


# ---------------------------------------------------------------------------
# printing


def to_text(ast: ExprAST) -> str:
    """Canonical rendering; reparsing it reproduces the AST exactly."""
    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, TimeVar):
        return "t"
    if isinstance(ast, StateVar):
        return ast.name
    if isinstance(ast, Neg):
        inner = to_text(ast.arg)
        if ast.arg.prec < 4:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(ast, BinOp):
        lhs = to_text(ast.lhs)
        if ast.lhs.prec < ast.prec:
            lhs = f"({lhs})"
        rhs = to_text(ast.rhs)
        if ast.rhs.prec <= ast.prec:
            rhs = f"({rhs})"
        return f"{lhs}{ast.op}{rhs}"
    if isinstance(ast, Pow):
        base = to_text(ast.base)
        if ast.base.prec < 4:
            base = f"({base})"
        return f"{base}^{repr(ast.exponent)}"
    if isinstance(ast, Call):
        return f"{ast.fn}({to_text(ast.arg)})"
    raise TypeError(f"not an expression node: {ast!r}")


# ---------------------------------------------------------------------------
# evaluation helpers shared by the interpreter and generated code

_INF = float("inf")


def _exp(v):
    try:
        return math.exp(v)
    except OverflowError:
        return _INF


def _sin(v):
    try:
        return math.sin(v)
    except ValueError:  # sin(inf)
        return float("nan")


def _cos(v):
    try:
        return math.cos(v)
    except ValueError:
        return float("nan")


def _pow(base, exponent):
    """math.pow with overflow saturating to a signed infinity."""
    try:
        return math.pow(base, exponent)
    except OverflowError:
        if base >= 0:
            return _INF
        if float(exponent).is_integer():
            return _INF if int(exponent) % 2 == 0 else -_INF
        return float("nan")


def _mentions(ast: ExprAST, leaf: type) -> bool:
    """True when some node of ``ast`` is an instance of ``leaf``."""
    if isinstance(ast, leaf):
        return True
    if isinstance(ast, (Num, TimeVar, StateVar)):
        return False
    if isinstance(ast, Neg):
        return _mentions(ast.arg, leaf)
    if isinstance(ast, BinOp):
        return _mentions(ast.lhs, leaf) or _mentions(ast.rhs, leaf)
    if isinstance(ast, Pow):
        return _mentions(ast.base, leaf)
    if isinstance(ast, Call):
        return _mentions(ast.arg, leaf)
    raise TypeError(f"not an expression node: {ast!r}")


def depends_on_t(ast: ExprAST) -> bool:
    return _mentions(ast, TimeVar)


def depends_on_state(ast: ExprAST) -> bool:
    return _mentions(ast, StateVar)


def eval_expr(ast: ExprAST, t: float, x=()) -> float:
    """Interpret ``ast`` at time ``t`` and state ``x``.

    Slower than generated code but reports the offending subexpression
    on domain errors; generated code re-enters here when its fast body
    trips, so messages are identical either way.
    """
    if isinstance(ast, Num):
        return ast.value
    if isinstance(ast, TimeVar):
        return t
    if isinstance(ast, StateVar):
        return float(x[ast.index])
    if isinstance(ast, Neg):
        return -eval_expr(ast.arg, t, x)
    if isinstance(ast, BinOp):
        a = eval_expr(ast.lhs, t, x)
        b = eval_expr(ast.rhs, t, x)
        if ast.op == "+":
            return a + b
        if ast.op == "-":
            return a - b
        if ast.op == "*":
            return a * b
        if b == 0.0:
            raise DivisionByZero(to_text(ast))
        return a / b
    if isinstance(ast, Pow):
        base = eval_expr(ast.base, t, x)
        try:
            return _pow(base, ast.exponent)
        except ValueError:
            raise DomainError(
                f"negative base {base:.6g} with fractional exponent "
                f"{ast.exponent:.6g}",
                to_text(ast),
            ) from None
    if isinstance(ast, Call):
        v = eval_expr(ast.arg, t, x)
        if ast.fn == "sin":
            return _sin(v)
        if ast.fn == "cos":
            return _cos(v)
        if ast.fn == "exp":
            return _exp(v)
        if ast.fn == "abs":
            return abs(v)
        if ast.fn == "ln":
            if v <= 0.0:
                raise DomainError(f"ln of nonpositive value {v:.6g}", to_text(ast))
            return math.log(v)
        if ast.fn == "sqrt":
            if v < 0.0:
                raise DomainError(f"sqrt of negative value {v:.6g}", to_text(ast))
            return math.sqrt(v)
    raise TypeError(f"not an expression node: {ast!r}")


# ---------------------------------------------------------------------------
# symbolic derivative in t

_ZERO = Num(0.0)
_ONE = Num(1.0)


def _is_num(ast, value=None):
    if not isinstance(ast, Num):
        return False
    return True if value is None else ast.value == value


def _add(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return BinOp("+", a, b)


def _sub(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return _neg(b)
    return BinOp("-", a, b)


def _mul(a, b):
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return BinOp("*", a, b)


def _div(a, b):
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b) and b.value != 0.0:
        return Num(a.value / b.value)
    return BinOp("/", a, b)


def _neg(a):
    if _is_num(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def diff_t(ast: ExprAST) -> ExprAST:
    """Exact derivative with respect to ``t``; state variables are held
    constant.  Only constant folding is applied to the result.

    Raises
    ------
    NotDifferentiable
        If ``abs`` is applied to a time-dependent argument anywhere in the
        tree (the one non-smooth construct the language admits).
    """
    if isinstance(ast, (Num, StateVar)):
        return Num(0.0)
    if isinstance(ast, TimeVar):
        return Num(1.0)
    if isinstance(ast, Neg):
        return _neg(diff_t(ast.arg))
    if isinstance(ast, BinOp):
        da = diff_t(ast.lhs)
        db = diff_t(ast.rhs)
        if ast.op == "+":
            return _add(da, db)
        if ast.op == "-":
            return _sub(da, db)
        if ast.op == "*":
            return _add(_mul(da, ast.rhs), _mul(ast.lhs, db))
        # quotient rule
        numerator = _sub(_mul(da, ast.rhs), _mul(ast.lhs, db))
        return _div(numerator, Pow(ast.rhs, 2.0))
    if isinstance(ast, Pow):
        df = diff_t(ast.base)
        if _is_num(df, 0.0):
            return Num(0.0)
        factor = _mul(Num(ast.exponent), Pow(ast.base, ast.exponent - 1.0))
        return _mul(factor, df)
    if isinstance(ast, Call):
        df = diff_t(ast.arg)
        if ast.fn == "abs":
            if depends_on_t(ast.arg):
                raise NotDifferentiable(
                    f"abs of time-dependent argument {to_text(ast.arg)!r}"
                )
            return Num(0.0)
        if _is_num(df, 0.0):
            return Num(0.0)
        if ast.fn == "sin":
            return _mul(Call("cos", ast.arg), df)
        if ast.fn == "cos":
            return _neg(_mul(Call("sin", ast.arg), df))
        if ast.fn == "exp":
            return _mul(Call("exp", ast.arg), df)
        if ast.fn == "ln":
            return _div(df, ast.arg)
        if ast.fn == "sqrt":
            return _div(df, _mul(Num(2.0), Call("sqrt", ast.arg)))
    raise TypeError(f"not an expression node: {ast!r}")


# ---------------------------------------------------------------------------
# code generation

_FAST_PATH_ERRORS = (ValueError, ZeroDivisionError, OverflowError)
_COMPILE_GLOBALS = {
    "math": math,
    "_pow": _pow,
    "_FAST_PATH_ERRORS": _FAST_PATH_ERRORS,
}


def _codegen(ast: ExprAST) -> str:
    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, TimeVar):
        return "t"
    if isinstance(ast, StateVar):
        return f"x[{ast.index}]"
    if isinstance(ast, Neg):
        return f"(-{_codegen(ast.arg)})"
    if isinstance(ast, BinOp):
        return f"({_codegen(ast.lhs)}{ast.op}{_codegen(ast.rhs)})"
    if isinstance(ast, Pow):
        if float(ast.exponent).is_integer():
            return f"({_codegen(ast.base)}**{repr(ast.exponent)})"
        return f"_pow({_codegen(ast.base)},{repr(ast.exponent)})"
    if isinstance(ast, Call):
        inner = _codegen(ast.arg)
        fn = {"ln": "math.log", "abs": "abs"}.get(ast.fn, f"math.{ast.fn}")
        return f"{fn}({inner})"
    raise TypeError(f"not an expression node: {ast!r}")


def _compile_guarded(result_of):
    """Generate ``f(t, x)`` returning ``result_of(code)``, where ``code``
    turns an entry AST into source text.  The one ``exec`` of the module.

    The guard sits inside the generated function, so one call is one
    Python call.  The fast body inlines every entry (:func:`_codegen`);
    on a domain issue it re-runs the same template with one interpreter
    call per entry, so the fallback does the same arithmetic in the same
    order and gives what :func:`eval_expr` gives: the same value
    (``nan``, ``inf``) or the same precise error.
    """
    asts: list = []

    def interpreted(ast):
        asts.append(ast)
        return f"_eval(_asts[{len(asts) - 1}], t, x)"

    src = (
        f"def _slow(t, x):\n    return {result_of(interpreted)}\n"
        "def _f(t, x):\n"
        "    try:\n"
        f"        return {result_of(_codegen)}\n"
        "    except _FAST_PATH_ERRORS:\n"
        "        return _slow(t, x)\n"
    )
    ns = dict(_COMPILE_GLOBALS, _eval=eval_expr, _asts=asts)
    exec(src, ns)  # noqa: S102
    return ns["_f"]


# ---------------------------------------------------------------------------
# matrix / vector functions


class _Entries:
    """Entries of ``(t, x)`` evaluated by one generated function that
    returns them as a (nested) list; entries free of ``t`` and the state
    are evaluated once, and that read-only array is returned from then on.
    """

    def _build(self, flat, layout):
        self.depends_on_state = any(depends_on_state(e) for e in flat)
        self.depends_on_t = any(depends_on_t(e) for e in flat)
        self._fn = _compile_guarded(layout)
        self._origin = (0.0,) * self.n_states
        self._const = None
        if not (self.depends_on_state or self.depends_on_t):
            const = self.eval(0.0)
            const.setflags(write=False)
            self._const = const

    def eval(self, t: float, x=None) -> np.ndarray:
        if self._const is not None:
            return self._const
        return np.array(self._fn(t, self._origin if x is None else x))


class MatrixFunction(_Entries):
    """Matrix whose entries are expressions of ``(t, x)``.

    Parameters
    ----------
    entries : list of list of ExprAST
        Row-major grid.
    n_states : int
        State dimension the entries may reference.
    symmetric : bool
        Declared symmetry, checked on the structure: entry ``(j, i)`` must
        be the same expression as entry ``(i, j)``, or
        :class:`~vwbound.errors.AsymmetricMatrix` names the first pair
        that is not.  Mirrored entries then give the same float at every
        ``(t, x)``, and so do those of :meth:`diff_t`: every evaluated
        matrix is exactly symmetric.
    """

    def __init__(self, entries, n_states: int, symmetric: bool = False):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged entry grid")
        self.n_states = n_states
        self.symmetric = bool(symmetric)
        if self.symmetric:
            if self.rows != self.cols:
                raise ValueError("only square matrices can be symmetric")
            for i, row in enumerate(self.entries):
                for j in range(i + 1, self.cols):
                    if row[j] != self.entries[j][i]:
                        raise AsymmetricMatrix(i + 1, j + 1)
        self._build(
            [e for row in self.entries for e in row],
            lambda code: "[%s]" % ", ".join(
                "[%s]" % ", ".join(map(code, row)) for row in self.entries
            ),
        )

    @classmethod
    def from_strings(cls, texts, n_states: int, symmetric: bool = False):
        entries = [[parse_expr(s, n_states) for s in row] for row in texts]
        return cls(entries, n_states, symmetric=symmetric)

    @classmethod
    def constant(cls, array, n_states: int, symmetric: bool = False):
        arr = np.asarray(array, dtype=float)
        entries = [[Num(v) for v in row] for row in arr]
        return cls(entries, n_states, symmetric=symmetric)

    def diff_t(self) -> "MatrixFunction":
        entries = [[diff_t(e) for e in row] for row in self.entries]
        return MatrixFunction(entries, self.n_states, symmetric=self.symmetric)


class VectorFunction(_Entries):
    """Vector whose entries are expressions of ``(t, x)``."""

    def __init__(self, entries, n_states: int):
        self.entries = list(entries)
        self.size = len(self.entries)
        self.n_states = n_states
        self._build(
            self.entries,
            lambda code: "[%s]" % ", ".join(map(code, self.entries)),
        )

    @classmethod
    def from_strings(cls, texts, n_states: int):
        return cls([parse_expr(s, n_states) for s in texts], n_states)

    @classmethod
    def zero(cls, size: int, n_states: int):
        return cls([Num(0.0) for _ in range(size)], n_states)


def compile_rhs(a: MatrixFunction, f0: VectorFunction):
    """Build a fast right-hand side ``rhs(t, x) = A(t, x) x + f0(t)``.

    Entry expressions are inlined into one generated function so the
    integrator spends its time on arithmetic, not on interpreter dispatch.
    ``x`` may be any indexable sequence of floats; the result is a list of
    ``n`` floats, one sum per row with a term per nonzero entry.  Domain
    issues fall back to the interpreter, as everywhere in generated code.
    The returned function carries ``float_lists = True``, which tells
    :func:`vwbound.ode.integrate` to call it on its float lists directly.
    """
    n = a.rows
    if a.cols != n or f0.size != n:
        raise ValueError("dimension mismatch between system matrix and forcing")

    def rows(code):
        out = []
        for i in range(n):
            terms = [
                f"({code(entry)})*x[{j}]"
                for j, entry in enumerate(a.entries[i])
                if not _is_num(entry, 0.0)
            ]
            if not _is_num(f0.entries[i], 0.0):
                terms.append(code(f0.entries[i]))
            out.append(" + ".join(terms) if terms else "0.0")
        return f"[{', '.join(out)}]"

    rhs = _compile_guarded(rows)
    rhs.float_lists = True
    return rhs


def compile_quadform(m: MatrixFunction):
    """Build a fast quadratic form ``q(t, x) = <M(t) x, x>``.

    Used for the level functions V and W inside event detection, where it
    is called once or twice per accepted step.
    """
    n = m.rows

    def form(code):
        terms = [
            f"({code(m.entries[i][j])})*x[{i}]*x[{j}]"
            for i in range(n)
            for j in range(n)
            if not _is_num(m.entries[i][j], 0.0)
        ]
        return " + ".join(terms) if terms else "0.0"

    return _compile_guarded(form)
