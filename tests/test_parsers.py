"""Syntax-error positions of the three text parsers, and the trees of
the texts whose parse changed when `eval` text and formulas came to share
one term grammar.

All three read one shared token stream, so they follow one rule: an error
is reported at the leftmost offending token, and an error at the end of the
input is reported at len(text) as "end of input".
"""

import pytest

from gparith.errors import ExprSyntaxError
from gparith.focheck import FCmp, parse_formula
from gparith.genpoly import Apply, IndicatorLess, IntLit, Mul, Var, compile_term, parse
from gparith.weakmult import parse_poly

POSITIONS = [
    (parse, "Alpha*n", 0),
    (parse, "nint(n", 6),
    (parse, "ind(n)", 4),
    (parse, "", 0),
    (parse, "n +", 3),
    (parse, "(n", 2),
    (parse, "nint n", 5),
    (parse, "ind(norm(n) n)", 12),
    (parse, "n n", 2),
    (parse_formula, "exists x in [1,2: x = 1", 16),
    (parse_formula, "forall y in [1, 2] x = 1", 19),
    (parse_formula, "x = 1 x", 6),
    (parse_formula, "Q(1, 2", 6),
    (parse_formula, "x = 1 and", 9),
    (parse_formula, "", 0),
    (parse_poly, "x1y", 2),
    (parse_poly, "y", 0),
    (parse_poly, "x1 +", 4),
    (parse_poly, "x1 x2", 3),
    (parse_poly, "", 0),
    # leftmost offending token: a closing paren left open is missed at the
    # end of the input, and a stray token before unrecognised input wins
    (parse_poly, "(x1 + x2", 8),
    (parse_formula, "1 = 2 ) $", 6),
    (parse_poly, "x1 ) $", 3),
    (parse, "n ) $", 2),
    (parse, "n $", 2),
    # variables are x1, x2, ...: x0 is unrecognised input, not a ValueError
    (parse_poly, "x1 + x0", 5),
    # formulas share the term grammar of `eval` text: ind needs norm(...)
    (parse_formula, "ind(x) = 1", 4),
    (parse_formula, "ind(norm(x) x) = 1", 12),
]


@pytest.mark.parametrize("parser, text, position", POSITIONS,
                         ids=[f"{p.__name__}:{t!r}" for p, t, _ in POSITIONS])
def test_error_position(parser, text, position):
    with pytest.raises(ExprSyntaxError) as ei:
        parser(text)
    assert ei.value.position == position


END_OF_INPUT = [(parse, "n +"), (parse, "nint(n"), (parse_formula, "g(x) ="),
                (parse_formula, "Q(1, 2"), (parse_formula, "x"),
                (parse_poly, "(x1 + x2"), (parse_poly, "")]


@pytest.mark.parametrize("parser, text", END_OF_INPUT,
                         ids=[f"{p.__name__}:{t!r}" for p, t in END_OF_INPUT])
def test_end_of_input_is_named(parser, text):
    with pytest.raises(ExprSyntaxError) as ei:
        parser(text)
    assert ei.value.position == len(text)
    assert "end of input" in str(ei.value) and "None" not in str(ei.value)


# One term grammar: the texts whose parse changed, and the tree each now gives.
ONE_GRAMMAR = [
    (parse, "g(n)", Apply("g", Var("n"))),
    (parse, "nint", Var("nint")),
    (parse_formula, "floor(x) = 1", FCmp("=", Apply("floor", Var("x")), IntLit(1))),
    (parse_formula, "ind(norm(2*x) < 1) = 1",
     FCmp("=", IndicatorLess(Apply("norm", Mul(IntLit(2), Var("x"))), IntLit(1)),
          IntLit(1))),
]


@pytest.mark.parametrize("parser, text, tree", ONE_GRAMMAR,
                         ids=[f"{p.__name__}:{t!r}" for p, t, _ in ONE_GRAMMAR])
def test_one_grammar_tree(parser, text, tree):
    assert parser(text) == tree


def test_rounding_of_a_formula_name_is_an_integer():
    for fn in ("floor", "nint", "frac", "norm"):
        assert type(compile_term(Apply(fn, Var("x")))({"x": -3}, {})) is int
