"""Expression surface syntax: tokenizing, parsing, printing, round trips."""

import random
from fractions import Fraction

import pytest

from exprprint import format_expr
from hypfield.exprlang import ExpressionIndexError, ExpressionSyntaxError, parse, tokenize
from hypfield.relations import GenusContext
from hypfield.rewriter import BinOp, Const, Lam, Neg, Pow, PSym

CTX1 = GenusContext(1)
CTX2 = GenusContext(2)


def test_tokenize_basics():
    kinds = [t.kind for t in tokenize("p[1,1] + 2*la4")]
    assert kinds == ["name", "op", "int", "op", "int", "op", "op", "int", "op", "name", "int"]


def test_tokenize_bad_character():
    with pytest.raises(ExpressionSyntaxError) as err:
        tokenize("p[1,1] @ 2")
    assert err.value.position == 7


@pytest.mark.parametrize(
    "text, position",
    [("p[1,1]^²", 7), ("p[١,١]", 2), ("la٤", 2), ("pé[1,1]", 1)],
    ids=["superscript two", "arabic-indic digits", "arabic-indic index", "non-ascii letter"],
)
def test_tokenize_accepts_ascii_digits_and_letters_only(text, position):
    # str.isdigit accepts '²', which int() rejects, and int() reads '١' as 1
    with pytest.raises(ExpressionSyntaxError, match="unexpected character") as err:
        parse(text, CTX1)
    assert err.value.position == position


# --- parse shapes -----------------------------------------------------------

def test_parse_atoms():
    assert parse("7", CTX1) == Const(Fraction(7))
    assert parse("p[1,1]", CTX1) == PSym((1, 1))
    assert parse("p[1,1,1,3]", CTX2) == PSym((1, 1, 1, 3))
    assert parse("la6", CTX1) == Lam(6)


def test_parse_precedence():
    assert parse("1 + 2*3", CTX1) == BinOp(
        "+", Const(Fraction(1)), BinOp("*", Const(Fraction(2)), Const(Fraction(3)))
    )
    # '^' binds tighter than unary minus, '-' is left associative
    assert parse("-p[1,1]^2", CTX1) == Neg(Pow(PSym((1, 1)), 2))
    assert parse("1 - 2 - 3", CTX1) == BinOp(
        "-", BinOp("-", Const(Fraction(1)), Const(Fraction(2))), Const(Fraction(3))
    )
    assert parse("1/2*p[1,1]", CTX1) == BinOp(
        "*", BinOp("/", Const(Fraction(1)), Const(Fraction(2))), PSym((1, 1))
    )


def test_parse_negative_exponent_and_parens():
    assert parse("p[1,1]^-2", CTX1) == Pow(PSym((1, 1)), -2)
    assert parse("(1 + la4)^3", CTX1) == Pow(
        BinOp("+", Const(Fraction(1)), Lam(4)), 3
    )


def test_parse_syntax_errors():
    for bad in ("", "1 +", "p[1,1", "(1", "* 3", "p 1", "1 2"):
        with pytest.raises(ExpressionSyntaxError):
            parse(bad, CTX1)


def test_parse_index_errors():
    with pytest.raises(ExpressionIndexError):
        parse("p[1]", CTX1)  # needs at least two indices
    with pytest.raises(ExpressionIndexError):
        parse("p[1,2]", CTX1)  # even index
    with pytest.raises(ExpressionIndexError):
        parse("la5", CTX1)  # odd parameter index
    with pytest.raises(ExpressionIndexError):
        parse("la8", CTX1)  # above 4g+2 at genus 1
    assert parse("la8", CTX2) == Lam(8)


def test_error_positions_reported():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("1 + * 2", CTX1)
    assert err.value.position == 4


# --- printing ---------------------------------------------------------------

def test_format_examples():
    assert format_expr(parse("1 + 2*3", CTX1)) == "1 + 2*3"
    assert format_expr(parse("(1 + 2)*3", CTX1)) == "(1 + 2)*3"
    assert format_expr(parse("-p[1,1]^2", CTX1)) == "-p[1,1]^2"
    assert format_expr(parse("(-p[1,1])^2", CTX1)) == "(-p[1,1])^2"
    assert format_expr(parse("1 - (2 - 3)", CTX1)) == "1 - (2 - 3)"
    assert format_expr(Const(Fraction(-1, 2))) == "-1/2"
    assert format_expr(parse("p[1,1]^-2", CTX1)) == "p[1,1]^-2"


def random_expr(rng, depth=4):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(
            [
                Const(Fraction(rng.randint(0, 9))),
                PSym((1, 1)),
                PSym((1, 1, 1)),
                PSym((1, 1, 1, 1)),
                Lam(4),
                Lam(6),
            ]
        )
    kind = rng.choice(["+", "-", "*", "/", "neg", "pow"])
    if kind == "neg":
        return Neg(random_expr(rng, depth - 1))
    if kind == "pow":
        base = random_expr(rng, depth - 1)
        return Pow(base, rng.choice([-3, -1, 0, 2, 5]))
    return BinOp(kind, random_expr(rng, depth - 1), random_expr(rng, depth - 1))


def test_round_trip_random_trees():
    rng = random.Random(31)
    for _ in range(200):
        tree = random_expr(rng)
        text = format_expr(tree)
        assert parse(text, CTX1) == tree, text


def test_round_trip_idempotent_on_text():
    rng = random.Random(32)
    for _ in range(50):
        text = format_expr(random_expr(rng))
        assert format_expr(parse(text, CTX1)) == text
