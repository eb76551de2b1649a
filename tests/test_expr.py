"""Expression language: parsing, evaluation, exact t-derivatives,
compiled fast paths, and the matrix/vector wrappers."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vwbound.errors import (
    AsymmetricMatrix,
    DivisionByZero,
    DomainError,
    ExprSyntaxError,
    NotDifferentiable,
    UnknownIdentifier,
)
from vwbound.ode import integrate, make_region_events
from vwbound.expr import (
    MAX_DEPTH,
    MatrixFunction,
    Num,
    VectorFunction,
    compile_quadform,
    compile_rhs,
    depends_on_state,
    depends_on_t,
    diff_t,
    eval_expr,
    parse_expr,
    to_text,
)


def ev(text, t=0.0, x=(), n_states=None):
    n = n_states if n_states is not None else len(x)
    return eval_expr(parse_expr(text, n), t, x)


class TestParsingAndEval:
    def test_arith(self):
        assert ev("1+2*3") == 7.0
        assert ev("(1+2)*3") == 9.0
        assert ev("2^3^2") == 64.0  # equal precedence associates left
        assert ev("-2^2") == -4.0  # unary binds looser than power
        assert ev("7/2") == 3.5
        assert ev("2 - 3 - 4") == -5.0  # left-assoc

    def test_variables(self):
        assert ev("t", t=2.5) == 2.5
        assert ev("x1 + 2*x2", x=(1.0, 3.0)) == 7.0

    def test_functions(self):
        assert ev("sin(0)") == 0.0
        assert math.isclose(ev("cos(t)", t=1.0), math.cos(1.0))
        assert math.isclose(ev("exp(ln(5))"), 5.0)
        assert math.isclose(ev("sqrt(2)^2"), 2.0)
        assert ev("abs(-3)") == 3.0

    def test_syntax_errors_carry_offset(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("2 +", 0)
        with pytest.raises(ExprSyntaxError):
            parse_expr("(1+2", 0)
        with pytest.raises(UnknownIdentifier):
            parse_expr("y1 + 1", 2)
        with pytest.raises(UnknownIdentifier):
            parse_expr("x3", 2)  # state index beyond n

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ev("ln(-1)")
        with pytest.raises(DomainError):
            ev("sqrt(-2)")
        with pytest.raises(DivisionByZero):
            ev("1/(t-1)", t=1.0)

    def test_to_text_round_trip(self):
        for text in ("1+2*t", "sin(t)*x1 - x2^2", "exp(-t)*(x1+1)",
                     "t^-0.5", "abs(t)/(1+t^2)"):
            ast = parse_expr(text, 2)
            again = parse_expr(to_text(ast), 2)
            for t in (0.1, 0.7, 2.0):
                x = (0.3, -0.4)
                assert math.isclose(
                    eval_expr(ast, t, x), eval_expr(again, t, x),
                    rel_tol=1e-15, abs_tol=1e-15,
                )


class TestNumIdentity:
    def test_every_nan_hashes_alike(self):
        # Num(nan) equals every other Num(nan), so a set holds one
        nan = float("nan")
        assert Num(nan) == Num(float("nan"))
        assert hash(Num(nan)) == hash(Num(-nan))
        assert len({Num(nan), Num(float("nan")), Num(-nan)}) == 1
        assert len({Num(nan), Num(1.0)}) == 2

    def test_signed_zeros_equal_and_hash_alike(self):
        assert Num(0.0) == Num(-0.0)
        assert hash(Num(0.0)) == hash(Num(-0.0))
        assert len({Num(0.0), Num(-0.0)}) == 1


class TestDerivative:
    def test_polynomial(self):
        d = diff_t(parse_expr("t^3 + 2*t", 0))
        assert math.isclose(eval_expr(d, 2.0), 3.0 * 4.0 + 2.0)

    def test_chain_rule(self):
        d = diff_t(parse_expr("sin(t^2)", 0))
        t = 0.8
        assert math.isclose(eval_expr(d, t), 2.0 * t * math.cos(t * t))

    def test_state_held_constant(self):
        d = diff_t(parse_expr("x1*t + x2", 2))
        assert eval_expr(d, 5.0, (3.0, 7.0)) == 3.0

    def test_not_differentiable_abs(self):
        with pytest.raises(NotDifferentiable):
            diff_t(parse_expr("abs(t)", 0))

    @given(st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_finite_differences(self, t):
        ast = parse_expr("exp(0.3*t)*sin(t) + t^2/(2+cos(t))", 0)
        d = diff_t(ast)
        h = 1e-6
        fd = (eval_expr(ast, t + h) - eval_expr(ast, t - h)) / (2 * h)
        assert math.isclose(eval_expr(d, t), fd, rel_tol=1e-7, abs_tol=1e-7)


class TestCompiled:
    def test_compiled_matches_interpreter(self):
        ast = parse_expr("sin(t)*x1 + exp(-t)*x2^2", 2)
        m = MatrixFunction([[ast]], n_states=2)
        v = VectorFunction([ast], n_states=2)
        for t in np.linspace(-2, 2, 17):
            x = (0.3 * t, 1.0 - t)
            want = eval_expr(ast, t, x)
            for got in (m.eval(t, x)[0, 0], v.eval(t, x)[0]):
                assert math.isclose(got, want, rel_tol=1e-15, abs_tol=1e-15)

    def test_compiled_domain_error_message_matches(self):
        ast = parse_expr("ln(t)", 0)
        with pytest.raises(DomainError):
            MatrixFunction([[ast]], n_states=0).eval(-1.0)
        with pytest.raises(DomainError):
            VectorFunction([ast], n_states=0).eval(-1.0)

    @pytest.mark.parametrize("text, t", [("sin(t)", math.inf),
                                         ("exp(1000*t)", 1.0)])
    def test_compiled_nan_and_inf_match_interpreter(self, text, t):
        # math.sin(inf) and an overflowing math.exp raise in the generated
        # code; each compiled form falls back to the interpreter's value
        ast = parse_expr(text, 1)
        want = repr(eval_expr(ast, t, (1.0,)))
        assert want in ("nan", "inf")
        m = MatrixFunction([[ast]], n_states=1)
        rhs = compile_rhs(m, VectorFunction.zero(1, n_states=1))
        assert repr(float(m.eval(t, (1.0,))[0, 0])) == want
        assert repr(float(VectorFunction([ast], 1).eval(t, (1.0,))[0])) == want
        assert repr(rhs(t, [1.0])[0]) == want
        assert repr(compile_quadform(m)(t, [1.0])) == want

    def test_dependence_flags(self):
        assert depends_on_t(parse_expr("t+1", 2))
        assert not depends_on_t(parse_expr("x1", 2))
        assert depends_on_state(parse_expr("x2^2", 2))
        assert not depends_on_state(parse_expr("sin(t)", 2))


class TestMatrixVector:
    def test_matrix_eval_and_flags(self):
        m = MatrixFunction.from_strings(
            [["2+sin(t)", "0"], ["0", "1"]], n_states=2, symmetric=True
        )
        out = m.eval(0.5)
        assert out.shape == (2, 2)
        assert math.isclose(out[0, 0], 2 + math.sin(0.5))
        assert m.depends_on_t and not m.depends_on_state
        assert m.symmetric

    def test_matrix_diff_t(self):
        m = MatrixFunction.from_strings(
            [["t^2", "t"], ["t", "1"]], n_states=2, symmetric=True
        )
        d = m.diff_t().eval(3.0)
        assert np.allclose(d, [[6.0, 1.0], [1.0, 0.0]])

    def test_constant_matrix_cached(self):
        m = MatrixFunction.constant(np.eye(2), 2, symmetric=True)
        assert m.eval(0.0) is m.eval(100.0)

    def test_symmetry_probe_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            MatrixFunction.from_strings(
                [["1", "t"], ["0", "1"]], n_states=2, symmetric=True
            )

    def test_symmetry_is_structural(self):
        # mirrored entries must be the same expression, not just the same
        # value: 0.5*t and t*0.5 agree everywhere but are rejected
        with pytest.raises(AsymmetricMatrix) as info:
            MatrixFunction.from_strings(
                [["1", "0.5*t"], ["t*0.5", "1"]], n_states=2, symmetric=True
            )
        assert (info.value.row, info.value.col) == (1, 2)
        with pytest.raises(AsymmetricMatrix):
            MatrixFunction.from_strings(
                [["1", "1e-13*t"], ["0", "1"]], n_states=2, symmetric=True
            )
        near = np.array([[1.0, 0.1], [0.1 + 1e-16, 1.0]])
        with pytest.raises(AsymmetricMatrix):
            MatrixFunction.constant(near, n_states=2, symmetric=True)

    def test_symmetric_values_exactly_symmetric(self):
        m = MatrixFunction.from_strings(
            [["2+sin(t)", "exp(0.3*t)/(1+t^2)", "x1"],
             ["exp(0.3*t)/(1+t^2)", "1", "cos(t)^3"],
             ["x1", "cos(t)^3", "ln(2+t^2)"]],
            n_states=1, symmetric=True,
        )
        d = m.diff_t()
        assert d.symmetric
        for t in np.linspace(-3.0, 3.0, 13):
            for a in (m.eval(t, (0.7 * t,)), d.eval(t, (0.7 * t,))):
                assert np.array_equal(a, a.T)

    def test_ndarray_state_gets_float_semantics(self):
        # an ndarray row is read as Python floats, so 1/0 is the
        # interpreter's DivisionByZero, not numpy's inf and a warning
        m = MatrixFunction.from_strings([["1/x1"]], 1)
        with pytest.raises(DivisionByZero):
            m.eval(0.0, np.zeros(1))
        with pytest.raises(DivisionByZero):
            m.eval(0.0, (0.0,))
        assert m.eval(0.0, np.full(1, 4.0))[0, 0] == 0.25

    def test_generated_rhs_reads_ndarray_as_floats(self):
        # an ndarray state must not run numpy arithmetic: [0.0] and
        # np.zeros(1) give the same DivisionByZero, and every value is a
        # Python float
        rhs = compile_rhs(MatrixFunction.from_strings([["1/x1"]], 1),
                          VectorFunction.zero(1, 1))
        for x in ((0.0,), np.zeros(1)):
            with pytest.raises(DivisionByZero):
                rhs(0.0, x)
        got = rhs(0.0, np.full(1, 4.0))
        assert got == [1.0] and type(got[0]) is float

    def test_generated_quadform_reads_ndarray_as_floats(self):
        q = compile_quadform(
            MatrixFunction.from_strings([["1/x1"]], 1, symmetric=True)
        )
        for x in ((0.0,), np.zeros(1)):
            with pytest.raises(DivisionByZero):
                q(0.0, x)
        got = q(0.0, np.full(1, 4.0))
        assert got == 4.0 and type(got) is float

    def test_vector(self):
        v = VectorFunction.from_strings(["t", "x1"], n_states=1)
        assert np.allclose(v.eval(2.0, np.array([5.0])), [2.0, 5.0])
        assert v.size == 2
        z = VectorFunction.zero(3, n_states=2)
        assert np.allclose(z.eval(1.0), np.zeros(3))

    @pytest.mark.parametrize("fn", [
        MatrixFunction.constant([[2.0, 1.0], [1.0, 3.0]], 2, symmetric=True),
        MatrixFunction.from_strings([["2+sin(t)", "t^2"], ["exp(-t)", "1"]],
                                    n_states=2),
        MatrixFunction.from_strings([["1 + x1*x2", "t*x2"], ["0", "-1"]],
                                    n_states=2),
        VectorFunction.from_strings(["0.1*sin(t)", "x1 - t"], n_states=2),
    ], ids=["constant", "t-only", "state-dependent", "vector"])
    def test_stack_equals_per_point_eval(self, fn):
        ts = np.linspace(-2.0, 3.0, 7)
        xs = np.random.default_rng(5).standard_normal((ts.size, 2))
        for states, at in ((xs, xs), (None, np.zeros_like(xs))):
            got = fn.stack(ts, states)
            want = np.array([fn.eval(float(t), x) for t, x in zip(ts, at)])
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        if not (fn.depends_on_t or fn.depends_on_state):
            assert not fn.stack(ts).flags.writeable

    def test_compile_rhs(self):
        a = MatrixFunction.from_strings(
            [["1", "0"], ["0", "-1"]], n_states=2
        )
        f0 = VectorFunction.from_strings(
            ["0.1*sin(t)", "0.1*cos(t)"], n_states=2
        )
        rhs = compile_rhs(a, f0)
        x = np.array([0.2, -0.3])
        t = 0.7
        expected = a.eval(t, x) @ x + f0.eval(t, x)
        assert np.allclose(rhs(t, x), expected, rtol=0, atol=1e-15)

    def test_compile_quadform(self):
        b = MatrixFunction.from_strings(
            [["2", "1"], ["1", "3"]], n_states=2, symmetric=True
        )
        q = compile_quadform(b)
        x = np.array([0.5, -1.0])
        assert math.isclose(q(0.0, x), float(x @ b.eval(0.0) @ x))


# one of each construct the depth bound counts, nested ``depth`` levels
# deep; every shape depends on t, so a derivative is taken and evaluated
DEPTH_SHAPES = {
    "sum": lambda d: "+".join(["t"] * (d + 1)),
    "product": lambda d: "*".join(["t"] * (d + 1)),
    "quotient": lambda d: "/".join(["exp(t)"] * d),
    "parentheses": lambda d: "(" * d + "t" + ")" * d,
    "calls": lambda d: "sin(" * d + "t" + ")" * d,
    "unary minus": lambda d: "-" * d + "t",
    "power": lambda d: "t" + "^1" * d,
}


class TestDepthBound:
    @pytest.mark.parametrize("shape", DEPTH_SHAPES)
    def test_bound_builds_and_one_more_level_is_refused(self, shape):
        ast = parse_expr(DEPTH_SHAPES[shape](MAX_DEPTH), 0)
        assert parse_expr(to_text(ast), 0) == ast
        # a mirrored t-dependent entry of a symmetric matrix: parsed,
        # differentiated, generated and evaluated like any other
        m = MatrixFunction([[Num(1.0), ast], [ast, Num(1.0)]], 0,
                           symmetric=True)
        d = m.diff_t()
        for fn, entry in ((m, ast), (d, diff_t(ast))):
            want = eval_expr(entry, 0.25)
            assert fn.eval(0.25)[0, 1] == want
            assert fn._fn.slow(0.25, ())[0][1] == want
        # inlined into the step loop as A and f0 and as a watched form
        rhs = compile_rhs(MatrixFunction([[ast]], 1),
                          VectorFunction([ast], 1))
        q = compile_quadform(MatrixFunction([[ast]], 1, symmetric=True))
        events = make_region_events(q, q, 1e300, -1e300, 1.0, 1e300)
        inlined = integrate(rhs, 0.0, [1.0], 0.5, events=events)
        called = integrate(lambda t, x: rhs(t, x), 0.0, [1.0], 0.5,
                           events=events)
        assert inlined.status == called.status == "reached_end"
        assert inlined.xs.tobytes() == called.xs.tobytes()
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr(DEPTH_SHAPES[shape](MAX_DEPTH + 1), 0)
        assert f"deeper than {MAX_DEPTH} levels" in str(info.value)


# ---------------------------------------------------------------------------
# the generated code against the interpreter, over the grammar

LITERALS = ("0", "1", "2", "0.5", "3", "7.25", "1e-320", "1e300", "1e308")
EXPONENTS = ("0", "-0", "1", "2", "3", "-1", "-2", "0.5", "-0.5", "2.5")
# where an entry is evaluated: zeros of both signs, huge and non-finite
SPECIAL = (0.0, -0.0, 1.5, -2.0, 1e300, -1e300, math.inf, -math.inf,
           math.nan)
# one level of each construct, as (prefix, suffix) around an operand
WRAPS = (("(", ")"), ("-", ""), ("sin(", ")"), ("cos(", ")"), ("exp(", ")"),
         ("ln(", ")"), ("sqrt(", ")"), ("abs(", ")"), ("", "^1"),
         ("", "^-1"), ("", "^2"))

plain = st.sampled_from(LITERALS + ("t", "x1", "x2"))  # depth 0
# and negative literals, grouped so they can be the base of a power
leaves = plain | st.sampled_from(LITERALS).flatmap(
    lambda s: st.sampled_from((f"(-{s})", f"-{s}")))


def _grow(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(
            "".join),
        st.tuples(children, st.sampled_from(EXPONENTS),
                  st.booleans()).map(
            lambda p: f"({p[0]})^{p[1]}" if p[2] else f"{p[0]}^{p[1]}"),
        st.tuples(st.sampled_from(WRAPS), children).map(
            lambda p: p[0][0] + p[1] + p[0][1]),
    )


# long chains and deep nests, up to the bound: a chain of up to
# MAX_DEPTH operators, or up to MAX_DEPTH levels of one construct
deep = st.one_of(
    st.tuples(plain, st.lists(st.tuples(st.sampled_from("+-*/"), plain),
                              min_size=1, max_size=MAX_DEPTH)).map(
        lambda p: p[0] + "".join(op + leaf for op, leaf in p[1])),
    st.tuples(st.sampled_from(WRAPS), st.integers(1, MAX_DEPTH),
              plain).map(lambda p: p[0][0] * p[1] + p[2] + p[0][1] * p[1]),
)
expressions = st.one_of(st.recursive(leaves, _grow, max_leaves=12), deep)
values = st.one_of(st.sampled_from(SPECIAL), st.floats())


def outcome(fn):
    """``fn()``'s float as its bits, or the class of what it raised.  A
    nan is any nan: when both operands of an operation are nan, CPython's
    float code and its specialized instructions may pass on either one,
    so a nan's sign bit is not part of the value (and no output shows
    it)."""
    try:
        value = fn()
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc)
    return [struct.pack("<d", v) if v == v else "nan"
            for v in np.ravel(value).tolist()]


class TestGeneratedCodeAgainstInterpreter:
    @given(expressions, values, values, values)
    @example("(-2)^2", 0.0, 0.0, 0.0)
    @example("(-1e-320)^0", 0.0, 0.0, 0.0)
    @example("-0^2*t", -0.0, 0.0, 0.0)
    @example("1e200*t*1e200", 1.0, 0.0, 0.0)  # a derivative of inf
    @example("1e200*t*1e200-1e200*t*1e200", 1.0, 0.0, 0.0)  # and of nan
    @settings(max_examples=150)
    def test_entry_functions_match_eval_expr(self, text, t, x1, x2):
        ast = parse_expr(text, 2)
        assert parse_expr(to_text(ast), 2) == ast
        assert to_text(parse_expr(to_text(ast), 2)) == to_text(ast)
        x = (x1, x2)
        want = outcome(lambda: eval_expr(ast, t, x))
        assert outcome(lambda: MatrixFunction([[ast]], 2).eval(t, x)[0, 0]) \
            == want
        assert outcome(lambda: VectorFunction([ast], 2).eval(t, x)[0]) == want
        assert outcome(lambda: MatrixFunction([[ast]], 2).stack(
            [t], [x])[0, 0, 0]) == want
        try:
            d = diff_t(ast)
        except NotDifferentiable:
            return
        assert outcome(lambda: MatrixFunction([[d]], 2).eval(t, x)[0, 0]) \
            == outcome(lambda: eval_expr(d, t, x))

    @given(st.lists(st.sampled_from(("0", "-0", "1", "-1")) | expressions,
                    min_size=6, max_size=6),
           values, values, values)
    @example(["(-2)^2", "0", "0", "-1", "-0", "x1"], 0.0, 1.0, 2.0)
    @settings(max_examples=60)
    def test_rhs_and_quadform_are_their_sums(self, texts, t, x1, x2):
        # A = [[a, b], [c, d]] and f0 = (e, f): each generated sum has one
        # term per entry that is not the literal zero, in entry order, so a
        # -0 entry drops its term as a 0 entry does (a documented choice)
        entries = [parse_expr(s, 2) for s in texts]
        a, f0 = [entries[0:2], entries[2:4]], entries[4:6]
        try:  # a constant entry is evaluated when its matrix is built
            a_fn, f_fn = MatrixFunction(a, 2), VectorFunction(f0, 2)
        except (DomainError, DivisionByZero):
            return
        x = (x1, x2)

        def summed(terms):
            """Each entry's value times its factors, added left to right
            (0.0 for no term), evaluated in order."""
            total = None
            for entry, factors in terms:
                term = eval_expr(entry, t, x)
                for factor in factors:
                    term = term * factor
                total = term if total is None else total + term
            return 0.0 if total is None else total

        def nonzero(ast):
            return not (isinstance(ast, Num) and ast.value == 0.0)

        rows = [[(e, (x[j],)) for j, e in enumerate(a[i]) if nonzero(e)]
                + [(f0[i], ())] * nonzero(f0[i]) for i in range(2)]
        assert outcome(lambda: compile_rhs(a_fn, f_fn)(t, x)) == outcome(
            lambda: [summed(row) for row in rows])
        form = [(e, (x[i], x[j])) for i in range(2)
                for j, e in enumerate(a[i]) if nonzero(e)]
        assert outcome(lambda: compile_quadform(a_fn)(t, x)) == outcome(
            lambda: summed(form))
