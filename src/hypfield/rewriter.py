"""Derivation pipeline: parameters and two-index functions in the generators.

The pipeline runs in a fixed order — curve parameters from the generating
series, then the (3, l) entries from the first relation family, then the
(k, l) entries with k >= 5 from the second family with the first index
ascending — so that every extraction only references symbols that are
already known.  The three stages fill one map from symbol to polynomial,
which is also the substitution map of each later extraction, and one
provenance dict keyed by symbol name.  Each entry is solved from its
relation's product list: the products of the target alone give its
coefficient, and the rest are summed with the map substituted, so no
residual is built in the la and w symbols.  The filled map, checked once
for coverage and weight, splits into a RelationTable mapping every la_s and
every w_k_l to a homogeneous polynomial in the 3g generators.  The reducer
rewrites arbitrary expressions into the fraction field of those
generators, reading each atom straight from the table or as a generator
(0 once an index reaches 2g+1) and substituting nothing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Union

from . import _Record
from .polyring import Poly, Symbol, b2, b3, homogeneous_weight, la, strip_common_monomial, w
from .relations import (
    GenusContext, RelationId, bel1_products, bel2_products, l1_products, two_index,
)


class InternalInconsistency(RuntimeError):
    """A forced cancellation in the derivation pipeline failed."""


class UnresolvedSymbol(InternalInconsistency):
    """An extraction cannot solve for its target."""


class UnsupportedSymbol(ValueError):
    """Expression uses a multi-index function outside the supported closure."""


class DivisionByZeroPoly(ZeroDivisionError):
    """A denominator reduced to the zero polynomial."""


# ---------------------------------------------------------------------------
# expression AST (surface symbols; built by the exprlang parser)

class Const(_Record):
    __slots__ = _fields = ("value",)  # a Fraction


class PSym(_Record):
    __slots__ = _fields = ("indices",)  # a tuple of at least two odd indices


class Lam(_Record):
    __slots__ = _fields = ("s",)


class Neg(_Record):
    __slots__ = _fields = ("arg",)


class BinOp(_Record):
    __slots__ = _fields = ("op", "left", "right")  # op is one of + - * /


class Pow(_Record):
    __slots__ = _fields = ("base", "exponent")  # exponent is an int


Expr = Union[Const, PSym, Lam, Neg, BinOp, Pow]


# ---------------------------------------------------------------------------
# relation table

class RelationTable(NamedTuple):
    genus: int
    lam: Mapping[int, Poly]
    w: Mapping[tuple, Poly]
    provenance: Mapping[str, str]

    def substitution_env(self) -> dict:
        """Symbol -> pure-generator polynomial, for la and w symbols."""
        env = {la(s): p for s, p in self.lam.items()}
        env.update({w(k, l): p for (k, l), p in self.w.items()})
        return env

    def lines(self):
        """The text form one newline-ended line at a time, so a writer holds
        one entry."""
        yield f"genus {self.genus}\n"
        yield "lambda\n"
        for s in sorted(self.lam):
            yield f"la_{s} = {self.lam[s]}\n"
        yield "w\n"
        for k, l in sorted(self.w):
            yield f"w_{k}_{l} = {self.w[(k, l)]}\n"

    def text(self) -> str:
        return "".join(self.lines())

    def tree(self) -> dict:
        return {
            "genus": self.genus,
            "lambda": {str(s): str(self.lam[s]) for s in sorted(self.lam)},
            "w": {f"{k},{l}": str(self.w[(k, l)]) for k, l in sorted(self.w)},
            "provenance": {k: self.provenance[k] for k in sorted(self.provenance)},
        }

    def tree_text(self) -> str:
        import json  # only table --format tree needs it

        return json.dumps(self.tree(), indent=2) + "\n"


def _solve(products: list, target: Symbol, env: dict, label: str) -> Poly:
    """Solve the sum of ``(c, symbol, ...)`` products = 0 for ``target``,
    which must occur alone in one term, to the first power; ``env``
    resolves every other non-generator while the rest is summed."""
    lin = sum(p[0] for p in products if p[1:] == (target,))
    if not lin:
        raise UnresolvedSymbol(f"{target.name} does not occur linearly in {label}")
    if Poly.sum_of_products(p for p in products if target in p[1:] and p[1:] != (target,)):
        raise UnresolvedSymbol(f"{target.name} occurs nonlinearly in {label}")
    rest = (p for p in products if target not in p[1:])
    solved = Fraction(-1, lin) * Poly.sum_of_products(rest, env)
    bad = [s for s in solved.symbols() if s.kind not in ("b1", "b2", "b3")]
    if bad:
        raise UnresolvedSymbol(f"{target.name} still contains {sorted(s.name for s in bad)}")
    return solved


def _derive(env: dict, provenance: dict, target: Symbol, products: list, label: str):
    """Solve ``products`` for ``target`` with ``env`` substituted; store the
    entry under the symbol and its label under the symbol's name."""
    env[target] = _solve(products, target, env, label)
    provenance[target.name] = label


def derive_lambda(ctx: GenusContext, env: dict, provenance: dict):
    """Add every curve parameter la_s to ``env``, each solved from an
    xi-coefficient of the generating series."""
    if Poly.sum_of_products(l1_products(ctx, -1)):
        raise InternalInconsistency("xi^-1 coefficient of the series is not 4")
    if Poly.sum_of_products(l1_products(ctx, 0)):
        raise InternalInconsistency("xi^0 coefficient of the series is not 0")
    for i in range(1, 2 * ctx.g + 1):
        _derive(env, provenance, la(2 * i + 2), l1_products(ctx, i), f"L1[xi^{i}]")


def derive_w3(ctx: GenusContext, env: dict, provenance: dict):
    """Add the entries w_3_l to ``env``, each solved from the first relation
    family at i = l."""
    for l in ctx.odd_indices:
        if l >= 3:
            label = str(RelationId("BEL1", (l,)))
            _derive(env, provenance, w(3, l), bel1_products(ctx, l), label)


def derive_w_high(ctx: GenusContext, env: dict, provenance: dict):
    """Add the entries w_k_l with k >= 5 to ``env``, first index ascending.

    The (k-4, l) instance of the quadratic family is linear in the target;
    everything else it mentions has a smaller first index or is cut to zero.
    """
    for k, l in ctx.w_pairs:
        if k >= 5:
            label = str(RelationId("BEL2", (k - 4, l)))
            _derive(env, provenance, w(k, l), bel2_products(ctx, k - 4, l), label)


def build_table(ctx: GenusContext) -> RelationTable:
    """Full pipeline plus validation of coverage, purity and homogeneity."""
    env, provenance = {}, {}
    derive_lambda(ctx, env, provenance)
    derive_w3(ctx, env, provenance)
    derive_w_high(ctx, env, provenance)

    expected = [la(s) for s in ctx.lambda_indices] + [w(k, l) for k, l in ctx.w_pairs]
    if set(env) != set(expected):
        missing = [sym.name for sym in expected if sym not in env]
        extra = [sym.name for sym in env if sym not in expected]
        raise InternalInconsistency(f"coverage mismatch: missing {missing}, extra {extra}")
    for sym, p in env.items():
        if homogeneous_weight(p) != sym.weight:
            raise InternalInconsistency(f"{sym.name} has wrong weight")
    lam = {sym.indices[0]: p for sym, p in env.items() if sym.kind == "la"}
    w_entries = {sym.indices: p for sym, p in env.items() if sym.kind == "w"}
    return RelationTable(ctx.g, lam, w_entries, provenance)


# ---------------------------------------------------------------------------
# reduction of expressions into the fraction field of the generators

def _resolve_psym(ctx: GenusContext, table: RelationTable, indices: tuple) -> Poly:
    idx = tuple(sorted(indices))
    n = len(idx)
    if n == 2:
        sym = two_index(ctx, *idx)
        if sym is None:
            return Poly.zero()
        return table.w[sym.indices] if sym.kind == "w" else Poly.symbol(sym)
    if n in (3, 4) and idx[:-1] == (1,) * (n - 1):
        if idx[-1] >= 2 * ctx.g + 1:
            return Poly.zero()
        return Poly.symbol((b2 if n == 3 else b3)(idx[-1]))
    raise UnsupportedSymbol(
        f"p[{','.join(str(i) for i in indices)}] is outside the supported closure "
        "(only two-index symbols and the 1-, 1,1-, 1,1,1-prefixed generators)"
    )


def normalize_fraction(num: Poly, den: Poly):
    """Canonical form: no common monomial factor, monic denominator."""
    if den.is_zero():
        raise DivisionByZeroPoly("denominator reduced to the zero polynomial")
    if num.is_zero():
        return Poly.zero(), Poly.one()
    num, den = strip_common_monomial(num, den)
    lead = den.leading_coeff()
    if lead != 1:
        inv = 1 / lead
        num = num * inv
        den = den * inv
    return num, den


def reduce_expr(table: RelationTable, e: Expr):
    """Rewrite an expression to a normalized (numerator, denominator) pair
    of pure-generator polynomials, at the table's genus."""
    ctx = GenusContext(table.genus)

    def go(node) -> tuple:
        if isinstance(node, Const):
            return Poly.const(node.value), Poly.one()
        if isinstance(node, Lam):
            if node.s not in table.lam:
                raise UnsupportedSymbol(f"la{node.s} outside 4..{ctx.lambda_indices[-1]}")
            return table.lam[node.s], Poly.one()
        if isinstance(node, PSym):
            return _resolve_psym(ctx, table, node.indices), Poly.one()
        if isinstance(node, Neg):
            n, d = go(node.arg)
            return -n, d
        if isinstance(node, Pow):
            n, d = go(node.base)
            k = node.exponent
            if k < 0:
                n, d = d, n
                k = -k
                if n.is_zero() or d.is_zero():
                    raise DivisionByZeroPoly("negative power of zero")
            return n ** k, d ** k
        if isinstance(node, BinOp):
            # the parser builds a + b + c as a left-deep chain: walk its left
            # spine in a loop, so a flat sum or product of any length works
            spine = []
            while isinstance(node, BinOp):
                spine.append(node)
                node = node.left
            n1, d1 = go(node)
            for link in reversed(spine):
                n2, d2 = go(link.right)
                if link.op == "+":
                    n1, d1 = n1 * d2 + n2 * d1, d1 * d2
                elif link.op == "-":
                    n1, d1 = n1 * d2 - n2 * d1, d1 * d2
                elif link.op == "*":
                    n1, d1 = n1 * n2, d1 * d2
                elif link.op == "/":
                    n1, d1 = n1 * d2, d1 * n2
                else:
                    raise ValueError(f"unknown operator {link.op!r}")
            return n1, d1
        raise TypeError(f"not an expression node: {node!r}")

    num, den = go(e)
    return normalize_fraction(num, den)


def format_fraction(num: Poly, den: Poly) -> str:
    if den == Poly.one():
        return str(num)
    return f"({num}) / ({den})"
