"""Expression language: parsing, evaluation, exact t-derivatives,
compiled fast paths, and the matrix/vector wrappers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vwbound.errors import (
    AsymmetricMatrix,
    DivisionByZero,
    DomainError,
    ExprSyntaxError,
    NotDifferentiable,
    UnknownIdentifier,
)
from vwbound.expr import (
    MatrixFunction,
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

    def test_vector(self):
        v = VectorFunction.from_strings(["t", "x1"], n_states=1)
        assert np.allclose(v.eval(2.0, np.array([5.0])), [2.0, 5.0])
        assert v.size == 2
        z = VectorFunction.zero(3, n_states=2)
        assert np.allclose(z.eval(1.0), np.zeros(3))

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
