"""The round-trip printer for reducer expressions, shared by the parser
tests: ``parse(format_expr(e))`` rebuilds ``e``, so printing a random tree
and parsing it back checks the grammar's precedence and associativity."""

from hypfield.rewriter import BinOp, Const, Expr, Lam, Neg, Pow, PSym

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
