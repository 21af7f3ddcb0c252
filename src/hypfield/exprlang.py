"""Surface syntax for expressions fed to the reducer.

Grammar (one expression per line / invocation)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' ['-'] INT)*
    atom   := INT | 'p' '[' INT (',' INT)+ ']' | 'la' INT | '(' expr ')'

Multi-index functions are written ``p[i,j,...]`` with at least two odd
indices; parameters are written ``la4``, ``la6``, ...  Binary '-' and '/'
are left associative; '^' binds tighter than unary minus.  Rationals are
ordinary quotients: ``1/2*p[1,1]`` means ``(1/2)*p[1,1]``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .relations import GenusContext
from .rewriter import BinOp, Const, Expr, Lam, Neg, Pow, PSym


class _PositionedError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExpressionSyntaxError(_PositionedError):
    pass


class ExpressionIndexError(_PositionedError):
    pass


class Token(NamedTuple):
    kind: str  # int, name, op
    text: str
    pos: int


# ASCII only: str.isdigit and str.isalpha, like \d and \w, also accept '²'
# or '١', which int() rejects or reads as a digit
_TOKEN = re.compile(
    r"(?P<int>[0-9]+)|(?P<name>[A-Za-z]+)|(?P<op>[-+*/^()\[\],])|(?P<space>\s+)|(?P<bad>.)",
    re.DOTALL,
)


def tokenize(src: str) -> list:
    out = []
    for match in _TOKEN.finditer(src):
        kind, text, pos = match.lastgroup, match.group(), match.start()
        if kind == "bad":
            raise ExpressionSyntaxError(f"unexpected character {text!r}", pos)
        if kind != "space":
            out.append(Token(kind, text, pos))
    return out


class _Parser:
    def __init__(self, tokens: list, ctx: GenusContext, length: int):
        self.tokens = tokens
        self.ctx = ctx
        self.i = 0
        self.length = length

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ExpressionSyntaxError("unexpected end of input", self.length)
        self.i += 1
        return tok

    def expect_op(self, text: str):
        tok = self.next()
        if tok.kind != "op" or tok.text != text:
            raise ExpressionSyntaxError(f"expected {text!r}, got {tok.text!r}", tok.pos)
        return tok

    def at_op(self, *texts) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "op" and tok.text in texts

    def parse_int(self) -> int:
        tok = self.next()
        if tok.kind != "int":
            raise ExpressionSyntaxError(f"expected an integer, got {tok.text!r}", tok.pos)
        return int(tok.text)

    # precedence levels ----------------------------------------------------

    def expr(self) -> Expr:
        node = self.term()
        while self.at_op("+", "-"):
            op = self.next().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.at_op("*", "/"):
            op = self.next().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.at_op("-"):
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        while self.at_op("^"):
            self.next()
            sign = 1
            if self.at_op("-"):
                self.next()
                sign = -1
            node = Pow(node, sign * self.parse_int())
        return node

    def atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "int":
            return Const(Fraction(int(tok.text)))
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if tok.kind == "name" and tok.text == "p":
            self.expect_op("[")
            indices = [self.parse_int()]
            while self.at_op(","):
                self.next()
                indices.append(self.parse_int())
            self.expect_op("]")
            if len(indices) < 2:
                raise ExpressionIndexError(
                    "p needs at least two indices", tok.pos
                )
            for k in indices:
                if k < 1 or k % 2 == 0:
                    raise ExpressionIndexError(
                        f"p index {k} must be odd and positive", tok.pos
                    )
            return PSym(tuple(indices))
        if tok.kind == "name" and tok.text == "la":
            s_tok = self.next()
            if s_tok.kind != "int":
                raise ExpressionSyntaxError("la must be followed by an index", tok.pos)
            s = int(s_tok.text)
            top = 4 * self.ctx.g + 2
            if s % 2 or s < 4 or s > top:
                raise ExpressionIndexError(
                    f"la index {s} outside the even range 4..{top}", s_tok.pos
                )
            return Lam(s)
        raise ExpressionSyntaxError(f"unexpected token {tok.text!r}", tok.pos)


def parse(src: str, ctx: GenusContext) -> Expr:
    tokens = tokenize(src)
    if not tokens:
        raise ExpressionSyntaxError("empty expression", 0)
    parser = _Parser(tokens, ctx, len(src))
    node = parser.expr()
    tail = parser.peek()
    if tail is not None:
        raise ExpressionSyntaxError(f"trailing input {tail.text!r}", tail.pos)
    return node


_PREC_ATOM = 5
_PREC_POW = 4
_PREC_NEG = 3
_PREC_MULDIV = 2
_PREC_ADDSUB = 1


def _prec(e: Expr) -> int:
    if isinstance(e, (Const, PSym, Lam)):
        if isinstance(e, Const) and e.value < 0:
            return _PREC_NEG
        return _PREC_ATOM
    if isinstance(e, Pow):
        return _PREC_POW
    if isinstance(e, Neg):
        return _PREC_NEG
    return _PREC_MULDIV if e.op in "*/" else _PREC_ADDSUB


def format_expr(e: Expr) -> str:
    """Canonical text; parse(format_expr(e)) is structurally equal to e for
    every tree the parser can produce."""

    def wrap(child: Expr, minimum: int) -> str:
        text = format_expr(child)
        return f"({text})" if _prec(child) < minimum else text

    if isinstance(e, Const):
        v = e.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(e, PSym):
        return "p[" + ",".join(str(i) for i in e.indices) + "]"
    if isinstance(e, Lam):
        return f"la{e.s}"
    if isinstance(e, Neg):
        return "-" + wrap(e.arg, _PREC_NEG)
    if isinstance(e, Pow):
        base = format_expr(e.base)
        if _prec(e.base) < _PREC_ATOM:
            base = f"({base})"
        return f"{base}^{e.exponent}"
    if isinstance(e, BinOp):
        if e.op in "+-":
            left = wrap(e.left, _PREC_ADDSUB)
            right = wrap(e.right, _PREC_ADDSUB + 1)
        else:
            left = wrap(e.left, _PREC_MULDIV)
            right = wrap(e.right, _PREC_MULDIV + 1)
        return f"{left} {e.op} {right}" if e.op in "+-" else f"{left}{e.op}{right}"
    raise TypeError(f"not an expression node: {e!r}")
