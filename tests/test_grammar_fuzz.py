"""Grammar fuzz of ``eprkit eval``: a result that re-parses, or a named error.

Texts are drawn over the whole expression grammar, with whitespace,
parentheses, unary minus, ``a/b`` literals (``/0`` included), ``i``, ``I``,
``psi``, ``e0``..``e3`` and ``E00``..``E33``, and now and then one character
replaced, inserted or deleted.  Each text runs through ``cli.main`` in
process.  Exit 0 must print an element that re-parses to the same element at
the same arity and whose matrix equals the matrix oracle's value of the input
text, read by the oracle's own reader; exit 2 must name an expression error
or a print limit, never an internal one, and a text the parser refuses the
oracle's reader refuses too.
"""

import contextlib
import io
import itertools

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from eprkit.cli import main
from eprkit.element import Scalar
from eprkit.exprparse import BinOp, ExprError, Neg, Sym, _Parser, parse_expr, to_element
from eprkit.matrices import ReadError, element_matrix, expr_matrix
from eprkit.singlet import build_singlet

# The recursive-descent parser and the tree walks recurse once per nesting
# level, so inputs a few hundred levels deep still end in RecursionError.
# Bounding the nesting at 4 keeps every text far below the interpreter's
# recursion limit; deep inputs wait for ROADMAP item 2, the iterative pipeline.
MAX_DEPTH = 4

ONE_SITE = [f"e{k}" for k in range(4)]
TWO_SITE = [f"E{a}{b}" for a, b in itertools.product(range(4), repeat=2)] + ["psi"]
SCALAR_NAMES = ["i", "I"]
ERRORS = {"ExprError", "ExprSyntaxError", "RangeError", "ArityConflictError",
          "PrintLimitError"}
# Whole arguments that argparse reads as options or as the '--' separator.
ARGV_WORDS = {"-h", "--help", "--"}

spaces = st.sampled_from(["", "", " ", "  ", "\t", "\n"])
rationals = st.builds(
    lambda n, d: n if d is None else f"{n}/{d}",
    st.integers(0, 1000).map(str),
    st.none() | st.integers(0, 12).map(str))


def atoms(symbols):
    return st.one_of(rationals, st.sampled_from(SCALAR_NAMES + symbols))


@st.composite
def exprs(draw, symbols, depth=MAX_DEPTH):
    ws = draw(spaces)
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return ws + draw(atoms(symbols))
    shape = draw(st.sampled_from(["+", "-", "*", "*", "neg", "paren"]))
    inner = exprs(symbols, depth - 1)
    if shape == "neg":
        return f"{ws}-{draw(inner)}"
    if shape == "paren":
        return f"{ws}({draw(inner)}{draw(spaces)})"
    return f"{draw(inner)}{ws}{shape}{draw(inner)}"


@st.composite
def texts(draw):
    symbols = draw(st.sampled_from([ONE_SITE, TWO_SITE, ONE_SITE + TWO_SITE]))
    text = draw(exprs(symbols))
    if draw(st.integers(0, 7)) == 0:  # one-character corruption
        at = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from("0123456789eEipsI+-*/() x#.²"))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        tail = text[at + 1:] if edit != "insert" else text[at:]
        text = text[:at] + ("" if edit == "delete" else ch) + tail
    return text


def run_eval(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", text])
    return code, out.getvalue(), err.getvalue()


PSI = build_singlet().psi


@settings(max_examples=200, deadline=None)
@given(texts())
@example("E01*/E02")
@example("1/0")
@example("e1*E01")
@example("E41")
@example("e1*e2*e3")
@example("-(psi - 1/2)*E33")
def test_eval_prints_a_reparsing_element_or_names_the_error(text):
    assume(text not in ARGV_WORDS)
    code, out, err = run_eval(text)
    assert "internal error" not in out + err
    if code == 2:
        assert out == ""
        kind = err.split(":")[0]
        assert kind in ERRORS, err
        if kind != "PrintLimitError":  # the text does not parse
            with pytest.raises(ReadError):
                expr_matrix(text)
        return
    assert code == 0 and err == "", (code, err)
    el = to_element(parse_expr(text), psi=PSI)
    assert out.endswith("\n") and "\n" not in out[:-1]
    assert to_element(parse_expr(out[:-1])) == el
    assert element_matrix(el) == expr_matrix(text)



def nodes(node):
    yield node
    if type(node) is BinOp:
        yield from nodes(node.left)
        yield from nodes(node.right)
    elif type(node) is Neg:
        yield from nodes(node.arg)


@settings(max_examples=200, deadline=None)
@given(texts())
@example("E01 + xe1")
@example("psi*e1")
def test_the_arity_scan_matches_the_names_the_text_parses_to(text):
    # The parser reads the arity off the text by substring; on a text that
    # parses, it must match the arities of the symbols in the tree.
    try:
        parser = _Parser(text)
        tree = parser.expr()
    except ExprError:
        return  # the arity of a text that does not parse is never read
    if parser.tokens[parser.pos] != "":  # "" is the end of input
        return
    arities = {1 if n.name[0] == "e" else 2 for n in nodes(tree) if type(n) is Sym}
    assert parser.mixed == (len(arities) > 1)
    # Every other leaf is a literal's Scalar, which takes the arity it meets.
    assert all(type(n) is Scalar for n in nodes(tree) if type(n) not in (Sym, Neg, BinOp))
    if not parser.mixed:
        assert to_element(tree, psi=PSI).arity == (1 if arities == {1} else 2)
