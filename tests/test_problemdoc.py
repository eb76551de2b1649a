"""Problem-document parsing: the INI-like text format, its defaults, and
the line/key diagnostics on malformed input.
"""

import collections

import numpy as np
import pytest

from vwbound.errors import DocumentError
from vwbound.expr import MatrixFunction, VectorFunction
from vwbound.problemdoc import (
    ProblemDocument,
    load_problem_document,
    parse_problem_text,
)
from vwbound.quadratic import uniqueness_quadratic

MINIMAL = """\
[problem]
n = 2
t_minus = -4
t_plus = 4

[system]
A.1.1 = "1"
A.2.2 = "-1"

[guiding]
B.1.1 = "1"
B.2.2 = "1"
C.1.1 = "1"
C.2.2 = "-1"

[region]
v0 = 0.02
w_minus = -0.02
w_plus = 0.02
"""


def expect_error(text, needle, line=None, key=None):
    with pytest.raises(DocumentError) as info:
        parse_problem_text(text, source="<test>")
    assert needle in str(info.value)
    if line is not None:
        assert info.value.line == line
    if key is not None:
        assert info.value.key == key
    return info.value


class TestReferenceDocument:
    def test_parses(self, reference_document_path):
        doc = load_problem_document(reference_document_path)
        assert doc.n == 2
        assert doc.window == (-40.0, 40.0)
        assert doc.v0 == 0.02
        assert doc.v_star is None  # "auto"
        assert doc.w_minus == -0.02 and doc.w_plus == 0.02
        assert doc.grid == 201 and doc.tol == 1e-8 and doc.seed == 42

    def test_matrices_and_forcing(self, reference_document_path):
        doc = load_problem_document(reference_document_path)
        assert doc.a.eval(0.0, np.zeros(2)) == pytest.approx(
            np.diag([1.0, -1.0])
        )
        assert doc.c.symmetric
        assert doc.f0.eval(np.pi / 2.0, np.zeros(2)) == pytest.approx([0.1, 0.0])

    def test_to_problem(self, reference_document_path):
        doc = load_problem_document(reference_document_path)
        qp = doc.to_problem()
        assert qp.n == 2
        assert qp.window == (-40.0, 40.0)
        assert qp.v_star is None
        assert qp.seed == 42
        assert qp.quad_w(0.0, np.array([0.3, 0.1])) == pytest.approx(0.08)


def test_each_function_built_once(monkeypatch, reference_document_path):
    built = collections.Counter()
    for cls in (MatrixFunction, VectorFunction):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            built[type(self).__name__] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    doc = load_problem_document(reference_document_path)
    qp = doc.to_problem()
    # A, B, C, Chat and f0 at load; B' and C' in to_problem
    assert built == {"MatrixFunction": 6, "VectorFunction": 1}
    assert qp.a is doc.a and qp.f0 is doc.f0
    assert qp.b is doc.b and qp.c is doc.c and qp.c_hat is doc.chat


class TestComparisonForm:
    """``Chat`` is the comparison form of the separation test."""

    @staticmethod
    def coarse(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().replace("grid = 201", "grid = 41")

    @staticmethod
    def separation(text):
        doc = parse_problem_text(text, source="<test>")
        return doc, uniqueness_quadratic(doc.to_problem(), v_hi=0.12)

    def test_chat_reaches_the_separation_test(self, reference_document_path):
        text = self.coarse(reference_document_path)
        assert text.count('Chat.1.1 = "1"\n') == 1
        doc, shipped = self.separation(text)
        assert doc.chat is not None
        assert doc.to_problem().c_hat is doc.chat
        # Chat = diag(2, -1) against B = I: Lam_hat = 2 instead of C's 1
        _, doubled = self.separation(
            text.replace('Chat.1.1 = "1"\n', 'Chat.1.1 = "2"\n'))
        assert np.allclose(shipped.big_lam_curve, 1.0, atol=1e-12)
        assert np.allclose(doubled.big_lam_curve, 2.0, atol=1e-12)

    def test_missing_chat_compares_with_c(self, reference_document_path):
        text = self.coarse(reference_document_path)
        without = "".join(line for line in text.splitlines(keepends=True)
                          if not line.startswith("Chat."))
        doc, default = self.separation(without)
        assert doc.chat is None and doc.to_problem().c_hat is None
        _, shipped = self.separation(text)  # ships Chat = C
        assert repr(vars(default)) == repr(vars(shipped))
        assert default.status == "pass"


class TestDefaults:
    def test_minimal_document(self):
        doc = parse_problem_text(MINIMAL, source="<test>")
        assert doc.grid == 201 and doc.tol == 1e-8
        assert doc.seed == 42 and doc.samples == 48
        assert doc.v_star is None

    def test_unset_entries_are_zero(self):
        doc = parse_problem_text(MINIMAL, source="<test>")
        a = doc.a.eval(1.3, np.zeros(2))
        assert a[0, 1] == 0.0 and a[1, 0] == 0.0
        f0 = doc.f0.eval(1.3, np.zeros(2))
        assert np.array_equal(f0, np.zeros(2))

    def test_v0_auto(self):
        text = MINIMAL.replace("v0 = 0.02", "v0 = auto")
        doc = parse_problem_text(text, source="<test>")
        assert doc.v0 is None

    def test_numerics_overrides(self):
        text = MINIMAL + "\n[numerics]\ngrid = 51\ntol = 1e-6\nseed = 7\n"
        doc = parse_problem_text(text, source="<test>")
        assert doc.grid == 51 and doc.tol == 1e-6 and doc.seed == 7

    def test_comments_and_quotes(self):
        text = MINIMAL.replace(
            'A.1.1 = "1"', 'A.1.1 = "1"  # growing direction'
        )
        doc = parse_problem_text(text, source="<test>")
        assert doc.a.eval(0.0, np.zeros(2))[0, 0] == 1.0


class TestDiagnostics:
    def test_unknown_section(self):
        expect_error("[solver]\nx = 1\n", "unknown section", line=1)

    def test_unknown_key(self):
        expect_error(
            MINIMAL.replace("v0 = 0.02", "v0 = 0.02\nshape = round"),
            "unknown key", key="shape",
        )

    def test_key_before_section(self):
        expect_error("n = 2\n", "key before any [section]", line=1)

    def test_unterminated_section(self):
        expect_error("[problem\nn = 2\n", "unterminated section", line=1)

    def test_missing_equals(self):
        expect_error("[problem]\nn 2\n", "expected 'key = value'", line=2)

    def test_duplicate_key(self):
        expect_error(
            MINIMAL.replace("n = 2", "n = 2\nn = 3"), "duplicate", key="n"
        )

    def test_missing_required_keys(self):
        expect_error("[guiding]\nB.1.1 = \"1\"\n", "missing required", key="n")
        expect_error(
            MINIMAL.replace("t_minus = -4\n", ""), "missing required",
            key="t_minus",
        )
        expect_error(
            MINIMAL.replace("w_plus = 0.02\n", ""), "missing required",
            key="w_plus",
        )

    def test_bad_matrix_index(self):
        expect_error(
            MINIMAL.replace('B.1.1 = "1"', 'B.3.1 = "1"'), "index", key="B.3.1"
        )
        expect_error(
            MINIMAL.replace('B.1.1 = "1"', 'B.0.1 = "1"'), "index", key="B.0.1"
        )

    def test_matrix_in_wrong_section(self):
        expect_error(
            MINIMAL.replace('A.1.1 = "1"', 'B.1.2 = "1"'), "expected B.i.j"
        )

    def test_bad_forcing_key(self):
        expect_error(
            MINIMAL.replace('A.1.1 = "1"', 'f0.1.2 = "1"'), "f0.i",
            key="f0.1.2",
        )

    def test_non_integer_n(self):
        expect_error(
            MINIMAL.replace("n = 2", "n = two"), "must be an integer", key="n"
        )

    def test_non_numeric_scalar(self):
        expect_error(
            MINIMAL.replace("w_plus = 0.02", "w_plus = big"), "w_plus",
            key="w_plus",
        )

    def test_malformed_expression_probed_at_parse(self):
        err = expect_error(
            MINIMAL.replace('A.1.1 = "1"', 'A.1.1 = "1 +"'),
            "matrix A fails to evaluate",
        )
        assert err.key == "A"

    def test_unknown_state_in_expression(self):
        expect_error(
            MINIMAL.replace('A.1.1 = "1"', 'A.1.1 = "x3"'),
            "matrix A fails to evaluate",
        )

    @pytest.mark.parametrize("old,new,needle,line,key", [
        ('A.2.2 = "-1"', 'A.2.2 = "-1 *"', "matrix A", 8, "A"),  # syntax
        ('B.2.2 = "1"', 'B.2.2 = "y"', "matrix B", 12, "B"),  # unknown name
        ('C.1.1 = "1"', 'C.1.1 = "x3"', "matrix C", 13, "C"),  # beyond n
        ('A.2.2 = "-1"', 'A.2.2 = "-1"\nf0.2 = "sin("', "forcing f0", 9,
         "f0"),
    ])
    def test_parse_error_names_the_entry_line(self, old, new, needle,
                                              line, key):
        expect_error(MINIMAL.replace(old, new), f"{needle} fails to evaluate",
                     line=line, key=key)

    def test_asymmetric_guiding_matrix_names_both_keys(self):
        err = expect_error(
            MINIMAL.replace('B.1.1 = "1"', 'B.1.1 = "1"\nB.2.1 = "t"'),
            "matrix B must be symmetric", line=12, key="B.1.2",
        )
        assert "B.2.1 = 't'" in str(err) and "B.1.2 = '0'" in str(err)

    def test_unterminated_quote(self):
        expect_error(
            MINIMAL.replace('A.1.1 = "1"', 'A.1.1 = "1'), "unterminated"
        )

    def test_missing_guiding_entries(self):
        expect_error(
            MINIMAL.replace('B.1.1 = "1"\nB.2.2 = "1"\n', ""),
            "no B entries", key="B",
        )
        expect_error(
            MINIMAL.replace('C.1.1 = "1"\nC.2.2 = "-1"\n', ""),
            "no C entries", key="C",
        )

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(DocumentError) as info:
            load_problem_document(tmp_path / "absent.problem")
        assert "cannot read" in str(info.value)
