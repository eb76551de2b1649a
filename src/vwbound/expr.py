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
minus, ``* /``, ``+ -``; equal precedence associates left, so ``-2^2``
is -4 and ``(-2)^2`` is 4.  Functions: ``sin cos exp ln sqrt abs``.
Whitespace is insignificant.  A literal must be finite (``1e999`` is
refused), and an entry at most :data:`MAX_DEPTH` levels deep.

The module provides

* :func:`parse_expr` — text to AST with byte-offset error reporting,
* :func:`eval_expr` — interpreted evaluation with precise domain errors,
* :func:`diff_t` — exact symbolic derivative in ``t`` (state held fixed),
* :func:`to_text` — the one printer: the canonical text
  (``parse_expr(to_text(a)) == a``) and, given a frame, the Python
  source of the same tree that generated code inlines,
* :class:`MatrixFunction` / :class:`VectorFunction` — entry grids, each
  evaluated by one generated function, constants cached, symmetry checked
  on the expressions themselves; ``stack`` evaluates one at many points,
* :func:`compile_rhs` / :func:`compile_quadform` — generated right-hand
  side and quadratic forms,
* :func:`compile_stepper` — the integrator's step loop, generated per
  right-hand side and layout of watched levels: the state as scalar
  locals, the Dormand-Prince stages with the entries of ``A`` and ``f0``
  inlined (or a generic callable called on float lists), the PI control,
  and each quadratic-form level evaluated once per accepted step.  It
  calls no builtin on its step path: ``max``, ``min`` and ``abs`` are
  spelled as conditional expressions with the builtins' semantics.  It
  keeps the stages of the steps over a requested window, and hands a
  step back to :func:`vwbound.ode.integrate`, whose cold path does the
  rest, when a level crosses, the window ends, the end is reached or an
  entry trips.

All generated code comes from one template (:func:`_compile_guarded`):
the entries inlined as Python arithmetic printed by :func:`to_text`,
with the parentheses of the canonical text, the math functions bound as
plain names (``sin``, not ``math.sin``) and a coefficient of exactly
``1.0`` or ``-1.0`` folded (``y0``, ``-y0``, the same float), with a
fallback that runs the same template through :func:`eval_expr` when the
fast body trips.

Evaluation follows IEEE double semantics where that is the useful choice
(overflow saturates to ``inf``, ``sin(inf)`` is ``nan``) and raises
:class:`~vwbound.errors.DomainError` / ``DivisionByZero`` where silence
would hide a modeling mistake (``ln``/``sqrt`` of a nonpositive number,
fractional power of a negative base, exact zero denominator).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

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
    "MAX_DEPTH",
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
    "compile_stepper",
]

_FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt", "abs")


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True, slots=True)
class ExprAST:
    """Base node; ``prec`` is the printing precedence (atoms bind
    tightest)."""

    prec = 5


@dataclass(frozen=True, slots=True, eq=False)
class Num(ExprAST):
    value: float

    @property
    def prec(self):
        # a negative literal (and -0.0) is grouped like a unary minus
        return 3 if math.copysign(1.0, self.value) < 0.0 else 5

    def __eq__(self, other):
        return isinstance(other, Num) and (
            self.value == other.value
            or (math.isnan(self.value) and math.isnan(other.value))
        )

    def __hash__(self):
        # a float nan hashes by identity, but every nan Num is equal
        value = None if math.isnan(self.value) else self.value
        return hash(("Num", value))


@dataclass(frozen=True, slots=True)
class TimeVar(ExprAST):
    pass


@dataclass(frozen=True, slots=True)
class StateVar(ExprAST):
    """State variable; ``index`` is zero-based, ``name`` is the surface
    spelling (``x3``, or a custom name such as ``v``)."""

    index: int
    name: str = field(compare=False)


@dataclass(frozen=True, slots=True)
class Neg(ExprAST):
    arg: ExprAST
    prec = 3


@dataclass(frozen=True, slots=True)
class BinOp(ExprAST):
    op: str
    lhs: ExprAST
    rhs: ExprAST

    @property
    def prec(self):
        return 1 if self.op in "+-" else 2


@dataclass(frozen=True, slots=True)
class Pow(ExprAST):
    """Power with a literal real exponent (the only exponent form the
    language admits, which keeps the derivative rule exact)."""

    base: ExprAST
    exponent: float
    prec = 4


@dataclass(frozen=True, slots=True)
class Call(ExprAST):
    fn: str
    arg: ExprAST


# ---------------------------------------------------------------------------
# tokenizer / parser

# Deepest entry the parser accepts: each operator of a chain, each
# parenthesis pair, each call, each unary minus and each ``^`` is one
# level.  The parser recurses six frames per nested level, every tree
# walk one frame per level of a tree whose derivative may be three times
# as deep, and generated code opens one bracket per level (CPython allows
# 200).  Unbounded, the first shape to fail is 164 nested parentheses, in
# the parser's own recursion; 100 leaves room for the callers' frames.
MAX_DEPTH = 100

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


def _literal(value: str, off: int) -> float:
    out = float(value)
    if math.isinf(out):
        raise ExprSyntaxError(f"number {value} overflows a double", off)
    return out


class _Parser:
    """Recursive descent; each rule returns ``(node, depth)``, the depth
    in levels as :data:`MAX_DEPTH` counts them."""

    def __init__(self, text: str, names: dict[str, int]):
        self.tokens = _tokenize(text)
        self.i = 0
        self.names = names
        self.nesting = 0  # enclosing parentheses, calls and unary minuses

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

    @staticmethod
    def deeper(depth: int, off: int) -> int:
        if depth >= MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels", off
            )
        return depth + 1

    def nested(self, rule, off: int):
        """``rule()`` one level down from the token at ``off``.  The
        nesting is checked on the way in, so the parser's own recursion
        stays bounded."""
        self.nesting = self.deeper(self.nesting, off)
        node, depth = rule()
        self.nesting -= 1
        return node, self.deeper(depth, off)

    # expr := term (('+'|'-') term)*
    def expr(self):
        node, depth = self.term()
        while True:
            kind, value, off = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                rhs, rhs_depth = self.term()
                node = BinOp(value, node, rhs)
                depth = self.deeper(max(depth, rhs_depth), off)
            else:
                return node, depth

    # term := unary (('*'|'/') unary)*
    def term(self):
        node, depth = self.unary()
        while True:
            kind, value, off = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                rhs, rhs_depth = self.unary()
                node = BinOp(value, node, rhs)
                depth = self.deeper(max(depth, rhs_depth), off)
            else:
                return node, depth

    # unary := '-' unary | power
    def unary(self):
        kind, value, off = self.peek()
        if kind == "op" and value == "-":
            self.next()
            arg, depth = self.nested(self.unary, off)
            if isinstance(arg, Num):
                # fold so printed negative literals reparse to themselves
                return Num(-arg.value), depth
            return Neg(arg), depth
        return self.power()

    # power := atom ('^' exponent)* , exponent := ['-'] NUMBER
    def power(self):
        node, depth = self.atom()
        while True:
            kind, value, off = self.peek()
            if kind == "op" and value == "^":
                self.next()
                node = Pow(node, self.exponent_literal())
                depth = self.deeper(depth, off)
            else:
                return node, depth

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
        return sign * _literal(value, off)

    def atom(self):
        kind, value, off = self.next()
        if kind == "num":
            return Num(_literal(value, off)), 0
        if kind == "op" and value == "(":
            node = self.nested(self.expr, off)
            self.expect_op(")")
            return node
        if kind == "ident":
            if value in _FUNCTIONS:
                self.expect_op("(")
                arg, depth = self.nested(self.expr, off)
                self.expect_op(")")
                return Call(value, arg), depth
            if value == "t":
                return TimeVar(), 0
            if value in self.names:
                return StateVar(self.names[value], value), 0
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
        With the byte offset of the failure and what was expected there;
        also for a literal that overflows a double and for an entry
        deeper than :data:`MAX_DEPTH`, at the token that crosses it.
    UnknownIdentifier
        For identifiers outside ``t``, the state names and the function set.
    """
    names = {f"x{i + 1}": i for i in range(n_states)}
    parser = _Parser(text, names)
    node, _ = parser.expr()
    kind, value, off = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {value!r}", off)
    return node


# ---------------------------------------------------------------------------
# printing


def to_text(ast: ExprAST, frame=None) -> str:
    """The one printer of an expression.

    Without ``frame`` it writes the canonical text, and reparsing it
    reproduces the AST (``parse_expr(to_text(a)) == a``).  With a frame
    (see ``_ARGS``) it writes the Python source of the same tree for
    generated code: ``t`` and the state spelled by the frame, ``ln`` as
    ``log``, ``^`` as ``**`` for an integral exponent and ``_pow``
    otherwise, and a non-finite constant as a name bound in
    ``_COMPILE_GLOBALS``.  Both add parentheses by one precedence rule,
    which Python's shares: ``^`` (``**``), unary minus, ``* /``, ``+ -``.
    Python's ``**`` groups to the right, so in code a power's base that
    is itself a power is grouped too.
    """
    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, TimeVar):
        return "t" if frame is None else frame[0]
    if isinstance(ast, StateVar):
        return ast.name if frame is None else frame[2].format(ast.index)
    if isinstance(ast, Neg):
        # a minus of a minus prints as --x, one level as in the source
        arg = to_text(ast.arg, frame)
        return f"-({arg})" if ast.arg.prec < 3 else f"-{arg}"
    if isinstance(ast, BinOp):
        lhs = to_text(ast.lhs, frame)
        if ast.lhs.prec < ast.prec:
            lhs = f"({lhs})"
        rhs = to_text(ast.rhs, frame)
        if ast.rhs.prec <= ast.prec:
            rhs = f"({rhs})"
        return f"{lhs}{ast.op}{rhs}"
    if isinstance(ast, Pow):
        base = to_text(ast.base, frame)
        exponent = repr(ast.exponent)
        if frame is not None and not ast.exponent.is_integer():
            return f"_pow({base},{exponent})"
        if ast.base.prec < 4 or (frame is not None and ast.base.prec == 4):
            base = f"({base})"
        return f"{base}{'^' if frame is None else '**'}{exponent}"
    if isinstance(ast, Call):
        # an entry's abs stays the builtin: abs(-0.0) is 0.0, as in eval_expr
        fn = "log" if frame is not None and ast.fn == "ln" else ast.fn
        return f"{fn}({to_text(ast.arg, frame)})"
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
# the math functions as plain names: a global lookup, not an attribute
_COMPILE_GLOBALS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "isfinite": math.isfinite,
    "_pow": _pow,
    # a constant folded to a non-finite value prints as one of these
    "inf": _INF,
    "nan": math.nan,
    "_FAST_PATH_ERRORS": _FAST_PATH_ERRORS,
    "_ndarray": np.ndarray,
}

# First line of a generated function of the state: an ndarray state is
# read as Python floats, so that 1/0 is DivisionByZero and not inf
_FLOAT_STATE = "if isinstance(x, _ndarray): x = x.tolist()"

# Where an entry is evaluated: the time variable, the state as one
# sequence expression (for the interpreter) and the spelling of state
# variable i (for inlined code).  Entry functions read ``t`` and ``x``.
_ARGS = ("t", "x", "x[{}]")


def _compile_guarded(body_of, params="t, x", on_trip=None):
    """Generate ``f(params)`` running the lines ``body_of(code)``, where
    ``code(ast, frame)`` turns an entry AST into source text.  The one
    ``exec`` of the package.

    The guard sits inside the generated function, so one call is one
    Python call.  The fast body inlines every entry (:func:`to_text`).
    On a domain issue it returns ``on_trip``, an expression over its
    locals; by default that is ``f.slow`` on the same arguments: the same
    template with one interpreter call per entry, compiled on first use,
    which does the same arithmetic in the same order and gives what
    :func:`eval_expr` gives: the same value (``nan``, ``inf``) or the same
    precise error.
    """
    asts: list = []
    built: list = []

    def generated(ast, frame=_ARGS):
        return to_text(ast, frame)

    def interpreted(ast, frame=_ARGS):
        asts.append(ast)
        return f"_eval(_asts[{len(asts) - 1}], {frame[0]}, {frame[1]})"

    def define(code, guarded):
        depth = 2 if guarded else 1
        body = "".join("    " * depth + line + "\n" for line in body_of(code))
        if guarded:
            body = (
                f"    try:\n{body}"
                "    except _FAST_PATH_ERRORS:\n"
                f"        return {on_trip or f'_slow({params})'}\n"
            )
        ns = dict(_COMPILE_GLOBALS, _eval=eval_expr, _asts=asts, _slow=slow)
        exec(f"def _f({params}):\n{body}", ns)  # noqa: S102
        return ns["_f"]

    def slow(*args):
        if not built:
            built.append(define(interpreted, guarded=False))
        return built[0](*args)

    fast = define(generated, guarded=True)
    fast.slow = slow
    return fast


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
        self._fn = _compile_guarded(lambda code: [_FLOAT_STATE, *layout(code)])
        self._origin = (0.0,) * self.n_states
        self._const = None
        if not (self.depends_on_state or self.depends_on_t):
            const = self.eval(0.0)
            const.setflags(write=False)
            self._const = const

    def eval(self, t: float, x=None) -> np.ndarray:
        if self._const is not None:
            return self._const
        if x is None:
            x = self._origin
        return np.array(self._fn(t, x))

    def stack(self, ts, xs=None) -> np.ndarray:
        """The entries at each time of ``ts`` and state of ``xs`` (zero
        when omitted), stacked along a new first axis; a constant is
        broadcast as a read-only view, not re-evaluated."""
        ts = np.asarray(ts, dtype=float)
        if self._const is not None:
            return np.broadcast_to(self._const, ts.shape + self._const.shape)
        if xs is None:
            xs = [self._origin] * ts.size
        else:
            # Python floats, so that 1/0 is DivisionByZero and not inf
            xs = np.asarray(xs, dtype=float).reshape(ts.size, self.n_states).tolist()
        return np.array([self._fn(t, x) for t, x in zip(ts.tolist(), xs)])


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
            lambda code: ["return [%s]" % ", ".join(
                "[%s]" % ", ".join(map(code, row)) for row in self.entries
            )],
        )

    @classmethod
    def from_strings(cls, texts, n_states: int, symmetric: bool = False):
        entries = [[parse_expr(s, n_states) for s in row] for row in texts]
        return cls(entries, n_states, symmetric=symmetric)

    @classmethod
    def constant(cls, array, n_states: int, symmetric: bool = False):
        # Python floats: a numpy scalar would print as np.float64(...)
        rows = np.asarray(array, dtype=float).tolist()
        entries = [[Num(v) for v in row] for row in rows]
        return cls(entries, n_states, symmetric=symmetric)

    def diff_t(self) -> "MatrixFunction":
        entries = [[diff_t(e) for e in row] for row in self.entries]
        if self.symmetric:
            # one derivative for each mirrored pair, so the structural
            # check compares a tree with itself, not two deep trees
            for i, row in enumerate(entries):
                row[:i] = [entries[j][i] for j in range(i)]
        return MatrixFunction(entries, self.n_states, symmetric=self.symmetric)


class VectorFunction(_Entries):
    """Vector whose entries are expressions of ``(t, x)``."""

    def __init__(self, entries, n_states: int):
        self.entries = list(entries)
        self.size = len(self.entries)
        self.n_states = n_states
        self._build(
            self.entries,
            lambda code: ["return [%s]" % ", ".join(map(code, self.entries))],
        )

    @classmethod
    def from_strings(cls, texts, n_states: int):
        return cls([parse_expr(s, n_states) for s in texts], n_states)

    @classmethod
    def zero(cls, size: int, n_states: int):
        return cls([Num(0.0) for _ in range(size)], n_states)


def _times(entry, product: str, code, frame) -> str:
    """Source of ``entry * product``.  A coefficient of exactly 1.0 or -1.0
    is folded (``y0``, ``-y0*y0``): in IEEE arithmetic ``1.0*y`` is ``y``
    and ``-1.0*y`` is ``-y``, so the value is the same float (a nan may
    come out with the other sign bit, which no output shows: a nan state
    is rejected, and ``nan`` prints without a sign)."""
    if _is_num(entry, 1.0):
        return product
    if _is_num(entry, -1.0):
        return f"-{product}"
    return f"({code(entry, frame)})*{product}"


def _rhs_rows(a: MatrixFunction, f0: VectorFunction, code, frame=_ARGS):
    """Source of each component of ``A(t, x) x + f0(t)``: one term per
    nonzero entry of ``A`` in column order, then the forcing."""
    x = frame[2]
    rows = []
    for i in range(a.rows):
        terms = [
            _times(entry, x.format(j), code, frame)
            for j, entry in enumerate(a.entries[i])
            if not _is_num(entry, 0.0)
        ]
        if not _is_num(f0.entries[i], 0.0):
            # grouped, so the sum adds the forcing last and whole
            terms.append(f"({code(f0.entries[i], frame)})")
        rows.append(" + ".join(terms) if terms else "0.0")
    return rows


def _quadform(m: MatrixFunction, code, frame=_ARGS) -> str:
    """Source of ``<M x, x>``: one term per nonzero entry, row-major."""
    x = frame[2]
    terms = [
        _times(m.entries[i][j], f"{x.format(i)}*{x.format(j)}", code, frame)
        for i in range(m.rows)
        for j in range(m.rows)
        if not _is_num(m.entries[i][j], 0.0)
    ]
    return " + ".join(terms) if terms else "0.0"


def compile_rhs(a: MatrixFunction, f0: VectorFunction):
    """Build a fast right-hand side ``rhs(t, x) = A(t, x) x + f0(t)``.

    Entry expressions are inlined into one generated function.  ``x`` may
    be any indexable sequence of floats (an ndarray is read as Python
    floats); the result is a list of ``n`` floats, one sum per row with a
    term per entry that is not the literal zero, then the forcing.  A
    ``-0`` entry has no term either, so a row it would make ``-0.0`` is
    ``0.0``.  Domain issues fall back to the interpreter,
    as everywhere in generated code.  The returned function carries
    ``float_lists = True`` (it may be called on float lists directly) and
    ``system = (a, f0)``, from which :func:`compile_stepper` inlines the
    same sums into the step loop.
    """
    n = a.rows
    if a.cols != n or f0.size != n:
        raise ValueError("dimension mismatch between system matrix and forcing")
    rhs = _compile_guarded(
        lambda code: [
            _FLOAT_STATE,
            f"return [{', '.join(_rhs_rows(a, f0, code))}]",
        ]
    )
    rhs.float_lists = True
    rhs.system = (a, f0)
    return rhs


def compile_quadform(m: MatrixFunction):
    """Build a fast quadratic form ``q(t, x) = <M(t) x, x>``, a Python
    float (an ndarray ``x`` is read as Python floats, as in
    :func:`compile_rhs`).

    The returned function carries ``matrix = m``, so a level built on it
    can be marked for inlining into the step loop (see
    :func:`vwbound.ode.make_region_events`).
    """
    q = _compile_guarded(
        lambda code: [_FLOAT_STATE, f"return {_quadform(m, code)}"]
    )
    q.matrix = m
    return q


# ---------------------------------------------------------------------------
# the integrator's step loop

# The Dormand-Prince 5(4) pair (Dormand & Prince 1980) spelled as the
# quotients the step loop has always used, so each stage is the same
# arithmetic in the same order: stage s + 1 is the rhs at t + C[s] on
# x + hs * sum_r A[s][r] k_r, the new state is x + hs * sum_r B5[r] k_r,
# and hs * sum_r E[r] k_r estimates its error (k6 is the rhs there).
_DP_C = ("1 / 5 * hs", "3 / 10 * hs", "4 / 5 * hs", "8 / 9 * hs", "hs")
_DP_A = (
    ("1 / 5",),
    ("3 / 40", "9 / 40"),
    ("44 / 45", "-56 / 15", "32 / 9"),
    ("19372 / 6561", "-25360 / 2187", "64448 / 6561", "-212 / 729"),
    ("9017 / 3168", "-355 / 33", "46732 / 5247", "49 / 176", "-5103 / 18656"),
)
_DP_B5 = ("35 / 384", "0", "500 / 1113", "125 / 192", "-2187 / 6784", "11 / 84")
_DP_E = ("71 / 57600", "0", "-71 / 16695", "71 / 1920", "-17253 / 339200",
         "22 / 525", "-1 / 40")
# step-size control: safety factor, factor bounds, PI exponents (order 5)
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ALPHA = 0.7 / 5.0
_BETA = 0.4 / 5.0


# The step loop calls no builtin: max, min and abs of two floats are
# spelled as conditional expressions with the builtins' semantics, the
# arguments in the same order.  max(a, b) keeps a unless b > a, and
# min(a, b) keeps a unless b < a, so a nan in second place is never
# chosen.  The spelled abs keeps the sign of -0.0 and of a nan, which
# abs clears; where it is used (the error scale 1 + max(|x|, |z|)) a
# zero of either sign adds nothing and a nan ends as a nan error norm,
# which rejects the step, so the loop computes the same floats.
def _max(a: str, b: str) -> str:
    return f"{b} if {b} > {a} else {a}"


def _min(a: str, b: str) -> str:
    return f"{b} if {b} < {a} else {a}"


def _abs(v: str) -> str:
    return f"{v} if {v} >= 0.0 else -{v}"


def _max_one_abs(v: str) -> str:
    """``max(1.0, abs(v))``: ``|v|`` when it exceeds 1, else 1.0 (nan
    included, as the builtins give)."""
    return f"{v} if {v} > 1.0 else -{v} if {v} < -1.0 else 1.0"


def _weighted(weights, i: int) -> str:
    """``w0 * k0_i + w1 * k1_i + ...`` over the nonzero weights, a
    negative weight written as a subtraction."""
    text = ""
    for r, w in enumerate(weights):
        if w != "0":
            sign = " - " if w[0] == "-" else " + "
            text += (sign if text else "") + f"{w.lstrip('-')} * k{r}_{i}"
    return text


@functools.lru_cache(maxsize=32)
def compile_stepper(system, n: int, layout: tuple):
    """Generate the step loop of :func:`vwbound.ode.integrate` for one
    right-hand side and one layout of watched levels.

    ``system`` is the ``(A, f0)`` of a :func:`compile_rhs` right-hand
    side, whose sums are then inlined, or ``None`` for any other, which
    the loop calls as ``rhs(t, [y1, ...])`` on float lists.  ``layout``
    has one ``(direction, M)`` per watched level: ``M`` a
    :class:`MatrixFunction` for the level ``<M(t) x, x> - c``, inlined and
    evaluated once per distinct ``M`` and accepted step, or ``None`` for a
    callable ``level(t, [y1, ...])``.  Built once per key and cached.

    The result is ``advance(state, consts, rhs, t_end, direction, tol,
    keep_from, keep_to, kept, limit, record, ts, xs)``; ``consts`` holds
    each level's ``c`` or callable.  It unpacks ``state = (t, x, k0, h,
    err_prev, rejected, n_accepted, n_rejected, levels)`` into scalar
    locals and takes Dormand-Prince steps under PI control, appending
    accepted ones to ``ts`` and ``xs`` when ``record``, until it returns
    ``(code, state, step)``:

    * ``"end"``: ``t`` reached ``t_end``;
    * ``"stop"``: the step just accepted crossed a level in its direction
      or ended the window; ``step = (t, x, hs, stages, levels)`` at its
      start, for the dense output;
    * ``"budget"``: ``n_accepted + n_rejected`` reached ``limit``;
    * ``"underflow"``: the step size fell below ``1e-14 max(1, |t|)``;
    * ``"trip"``: an entry hit a domain issue; ``state`` is the start of
      that step, and ``advance.slow`` retakes it interpreting every entry.

    The list ``kept`` is extended by the row ``(t, hs, x_1..x_n, k0_1..
    k6_n)`` of each accepted step whose end reaches ``keep_from`` less the
    step-size floor there, up to the first that reaches ``keep_to`` so,
    which ends the window: the steps :func:`vwbound.ode.dense_at` reads
    the window's times in.  ``keep_from = direction * inf`` keeps none.

    The loop calls no builtin: ``max``, ``min`` and ``abs`` are
    conditional expressions (:func:`_max` and its neighbours), and the
    step-size floor ``1e-14 max(1, |t|)`` is computed once per accepted
    step, so each step computes the same floats as the builtins gave.
    """
    n_levels = len(layout)
    forms: dict = {}  # matrix -> index of its value w<k>, by identity
    for _, m in layout:
        if m is not None:
            forms.setdefault(m, len(forms))

    def seq(prefix):
        return "[" + ", ".join(f"{prefix}{i}" for i in range(n)) + "]"

    def frame(t, prefix):
        return (t, "(" + "".join(f"{prefix}{i}, " for i in range(n)) + ")",
                prefix + "{}")

    def stage(k, t, prefix, code):
        """Lines setting ``k<k>_i`` to the rhs at ``(t, <prefix>i)``."""
        if system is None:
            unpack = "".join(f"k{k}_{i}, " for i in range(n))
            return [f"{unpack}= rhs({t}, {seq(prefix)})"]
        rows = _rhs_rows(*system, code, frame(t, prefix))
        return [f"k{k}_{i} = {row}" for i, row in enumerate(rows)]

    def crossed(j, direction):
        up, down = f"g{j} < 0.0 <= q{j}", f"g{j} > 0.0 >= q{j}"
        if direction:
            return up if direction > 0 else down
        return f"({up} or {down})"

    levels = "[" + ", ".join(f"g{j}" for j in range(n_levels)) + "]"
    state = (f"t, {seq('x')}, {seq('k0_')}, h, err_prev, rejected, "
             f"n_acc, n_rej, {levels}")

    def body(code):
        lines = [
            f"{state} = state",
            "[" + ", ".join(f"p{j}" for j in range(n_levels)) + "] = consts",
            # the step-size floor at t, kept up to date as t advances
            f"h_min = 1e-14 * ({_max_one_abs('t')})",
            "while True:",
            # the distance left, |t_end - t| once it exceeds h_min
            "    rem = (t_end - t) * direction",
            "    if not rem > h_min:",
            "        break",
            "    if n_acc + n_rej >= limit:",
            f"        return 'budget', ({state}), None",
            f"    h = {_min('h', 'rem')}",
            "    if h < h_min:",
            f"        return 'underflow', ({state}), None",
            "    hs = h * direction",
        ]
        for k in range(1, 6):
            lines.append(f"    s = t + {_DP_C[k - 1]}")
            lines += [f"    y{i} = x{i} + hs * ({_weighted(_DP_A[k - 1], i)})"
                      for i in range(n)]
            lines += ["    " + ln for ln in stage(k, "s", "y", code)]
        lines.append("    t_new = t + hs")
        lines += [f"    z{i} = x{i} + hs * ({_weighted(_DP_B5, i)})"
                  for i in range(n)]
        lines += ["    " + ln for ln in stage(6, "t_new", "z", code)]
        # RMS of the fifth-minus-fourth error over tol * (1 + |x|); a
        # non-finite state or estimate is never accepted and halves the
        # step, so a blow-up ends in underflow
        for i in range(n):
            lines += [
                f"    a{i} = {_abs(f'x{i}')}",
                f"    b{i} = {_abs(f'z{i}')}",
                f"    r{i} = hs * ({_weighted(_DP_E, i)}) / "
                f"(tol * (1.0 + ({_max(f'a{i}', f'b{i}')})))",
            ]
        squares = "".join(f" + r{i} * r{i}" for i in range(n))
        finite = "".join(f" and isfinite(z{i})" for i in range(n))
        lines += [
            f"    err_norm = sqrt((0.0{squares}) / {n})",
            f"    finite = isfinite(err_norm){finite}",
            "    if not (finite and err_norm <= 1.0):",
            "        n_rej += 1",
            "        rejected = True",
            "        if finite:",
            f"            factor = {_SAFETY!r} * err_norm ** (-0.2)",
            f"            factor = {_max(repr(_MIN_FACTOR), 'factor')}",
            f"            h *= {_min('1.0', 'factor')}",
            "        else:",
            "            h *= 0.5",
            "        continue",
        ]
        # accepted: each distinct form once, then every level
        new = frame("t_new", "z")
        lines += [f"    w{k} = {_quadform(m, code, new)}"
                  for m, k in forms.items()]
        for j, (_, m) in enumerate(layout):
            value = (f"float(p{j}(t_new, {seq('z')}))" if m is None
                     else f"w{forms[m]} - p{j}")
            lines.append(f"    q{j} = {value}")
        stop = [crossed(j, d) for j, (d, _) in enumerate(layout)]
        stages = ", ".join(seq(f"k{k}_") for k in range(7))
        row = "".join(f", x{i}" for i in range(n)) + "".join(
            f", k{k}_{i}" for k in range(7) for i in range(n))
        lines += [
            f"    h_min = 1e-14 * ({_max_one_abs('t_new')})",
            f"    stop = {' or '.join(stop) or 'False'}",
            "    if (keep_from - t_new) * direction <= h_min:",
            f"        kept.extend((t, hs{row}))",
            "        stop = stop or (keep_to - t_new) * direction <= h_min",
            "    if stop:",
            f"        step = (t, {seq('x')}, hs, ({stages}), {levels})",
            "    t = t_new",
        ]
        lines += [f"    x{i} = z{i}" for i in range(n)]
        lines += [f"    k0_{i} = k6_{i}" for i in range(n)]  # first same as last
        lines += [f"    g{j} = q{j}" for j in range(n_levels)]
        lines += [
            "    n_acc += 1",
            "    if record:",
            "        ts.append(t)",
            f"        xs.append({seq('x')})",
            f"    err_clamped = {_max('err_norm', '1e-10')}",
            f"    factor = {_SAFETY!r} * err_clamped ** (-{_ALPHA!r}) * "
            f"err_prev ** {_BETA!r}",
            f"    factor = {_max(repr(_MIN_FACTOR), 'factor')}",
            f"    factor = {_min(repr(_MAX_FACTOR), 'factor')}",
            "    if rejected:",
            f"        factor = {_min('1.0', 'factor')}",
            "        rejected = False",
            "    h *= factor",
            "    err_prev = err_clamped",
            "    if stop:",
            f"        return 'stop', ({state}), step",
            f"return 'end', ({state}), None",
        ]
        return lines

    return _compile_guarded(
        body,
        params="state, consts, rhs, t_end, direction, tol, keep_from, "
        "keep_to, kept, limit, record, ts, xs",
        on_trip=f"'trip', ({state}), None",
    )
