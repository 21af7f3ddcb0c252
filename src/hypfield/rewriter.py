"""Derivation pipeline: parameters and two-index functions in the generators.

The pipeline runs in a fixed order — curve parameters from the generating
series, then the (3, l) entries from the first relation family, then the
(k, l) entries with k >= 5 from the second family with the first index
ascending — so that every extraction only references symbols that are
already known.  Each entry is solved from its relation's product list: the
products of the target alone give its coefficient, and the rest are summed
with the entries already derived substituted, so no residual is built in
the la and w symbols.  The result is a RelationTable mapping every la_s and
every w_k_l to a homogeneous polynomial in the 3g generators, plus a
reducer that rewrites arbitrary expressions into the fraction field of
those generators, reading each atom straight from the table or as a
generator (0 once an index reaches 2g+1) and substituting nothing.
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


class UnresolvedSymbol(RuntimeError):
    """An extraction referenced a symbol that is not yet derived."""


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
        return _substitution_env(self.lam, self.w)

    def text(self) -> str:
        lines = [f"genus {self.genus}", "lambda"]
        for s in sorted(self.lam):
            lines.append(f"la_{s} = {self.lam[s]}")
        lines.append("w")
        for k, l in sorted(self.w):
            lines.append(f"w_{k}_{l} = {self.w[(k, l)]}")
        return "\n".join(lines) + "\n"

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


def _substitution_env(lam: Mapping[int, Poly], w_entries: Mapping[tuple, Poly]) -> dict:
    env = {la(s): p for s, p in lam.items()}
    env.update({w(k, l): p for (k, l), p in w_entries.items()})
    return env


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


def derive_lambda(ctx: GenusContext) -> tuple[dict, dict]:
    """Curve parameters ``{s: polynomial}`` and their provenance labels,
    from the xi-coefficients of the generating series."""
    if Poly.sum_of_products(l1_products(ctx, -1)):
        raise InternalInconsistency("xi^-1 coefficient of the series is not 4")
    if Poly.sum_of_products(l1_products(ctx, 0)):
        raise InternalInconsistency("xi^0 coefficient of the series is not 0")
    out, provenance = {}, {}
    for i in range(1, 2 * ctx.g + 1):
        s = 2 * i + 2
        label = f"L1[xi^{i}]"
        out[s] = _solve(l1_products(ctx, i), la(s), {}, label)
        provenance[f"la_{s}"] = label
    return out, provenance


def derive_w3(ctx: GenusContext, lambda_table: dict) -> tuple[dict, dict]:
    """Entries (3, l) and their provenance labels, each solved from the first
    relation family at i = l."""
    out, provenance = {}, {}
    env = _substitution_env(lambda_table, {})
    for l in ctx.odd_indices:
        if l < 3:
            continue
        label = str(RelationId("BEL1", (l,)))
        out[(3, l)] = _solve(bel1_products(ctx, l), w(3, l), env, label)
        provenance[f"w_3_{l}"] = label
    return out, provenance


def extract_from_bel2(
    ctx: GenusContext, env: dict, i: int, j: int, target: tuple
) -> Poly:
    """Solve the (i, j) instance of the quadratic family for one w symbol.

    ``env`` must already map every other non-generator symbol of the
    instance to a pure-generator polynomial.  Raises UnresolvedSymbol when
    it does not, which signals an invalid extraction path.
    """
    return _solve(bel2_products(ctx, i, j), w(*target), env, str(RelationId("BEL2", (i, j))))


def derive_w_high(ctx: GenusContext, lambda_table: dict, w3_table: dict) -> tuple[dict, dict]:
    """Entries (k, l) with k >= 5 and their provenance labels, first index
    ascending.

    The (k-4, l) instance of the quadratic family is linear in the target;
    everything else it mentions has a smaller first index or is cut to zero.
    """
    out, provenance = {}, {}
    env = _substitution_env(lambda_table, w3_table)
    for k, l in ctx.w_pairs:
        if k < 5:
            continue
        entry = extract_from_bel2(ctx, env, k - 4, l, (k, l))
        out[(k, l)] = entry
        env[w(k, l)] = entry
        provenance[f"w_{k}_{l}"] = str(RelationId("BEL2", (k - 4, l)))
    return out, provenance


def build_table(ctx: GenusContext) -> RelationTable:
    """Full pipeline plus validation of coverage, purity and homogeneity."""
    lam_table, lam_labels = derive_lambda(ctx)
    w3_table, w3_labels = derive_w3(ctx, lam_table)
    wh_table, wh_labels = derive_w_high(ctx, lam_table, w3_table)
    w_table = {**w3_table, **wh_table}
    provenance = {**lam_labels, **w3_labels, **wh_labels}

    if set(lam_table) != set(ctx.lambda_indices):
        raise InternalInconsistency("lambda coverage mismatch")
    if set(w_table) != set(ctx.w_pairs):
        raise InternalInconsistency("w coverage mismatch")
    for s, p in lam_table.items():
        if homogeneous_weight(p) != s:
            raise InternalInconsistency(f"la_{s} has wrong weight")
    for (k, l), p in w_table.items():
        if homogeneous_weight(p) != k + l:
            raise InternalInconsistency(f"w_{k}_{l} has wrong weight")
    return RelationTable(ctx.g, lam_table, w_table, provenance)


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


def reduce_expr(ctx: GenusContext, table: RelationTable, e: Expr):
    """Rewrite an expression to a normalized (numerator, denominator) pair
    of pure-generator polynomials."""

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
