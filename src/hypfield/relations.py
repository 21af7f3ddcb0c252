"""Exact constructors for the three relation families.

Every relation is represented as a left-minus-right residual, so "reduces
to zero" is the single verification predicate used everywhere downstream.
Each atom rule and the Kronecker-delta bookkeeping live here once:
``p_symbol`` gives the relation products and the reducer's ``p`` atoms
their symbol, or None once an index reaches 2g+1, and the parser and the
reducer check indices by ``p_indices`` and ``check_la``.  A BEL1 or
BEL2 residual, and each xi-coefficient of the L1 series, is a list of
``(int coefficient, symbol, ...)`` products; ``bel1`` and ``bel2`` sum
theirs by one ``Poly.sum_of_products`` call, with an optional substitution
applied while summing.  ``l1_rhs`` is the bracketed L1 expression as a
product of ``XiSeries``: the tests build the reference for ``l1_products``
from it, and the derivation does not use it.

``polyring`` is reached through the module, so a process that only reads
``GenusContext`` (``disc`` does) runs no polynomial code.
"""

from __future__ import annotations

from typing import NamedTuple

from . import _Record, polyring


class IndexOutOfRange(ValueError):
    pass


class UnsupportedSymbol(ValueError):
    """Expression uses a multi-index function outside the supported closure."""


class GenusContext(_Record):
    __slots__ = _fields = ("g",)

    def __init__(self, g: int):
        if g < 1:
            raise ValueError("genus must be >= 1")
        super().__init__(g)

    @property
    def odd_indices(self) -> tuple:
        return tuple(range(1, 2 * self.g, 2))

    @property
    def lambda_indices(self) -> tuple:
        return tuple(range(4, 4 * self.g + 3, 2))

    @property
    def w_pairs(self) -> tuple:
        odd = [k for k in self.odd_indices if k >= 3]
        return tuple((k, l) for k in odd for l in odd if k <= l)


class RelationId(NamedTuple):
    family: str  # "BEL1" or "BEL2"
    indices: tuple

    def __str__(self):
        return f"{self.family}[{','.join(str(i) for i in self.indices)}]"


def _check_odd_index(ctx: GenusContext, i: int):
    if i not in ctx.odd_indices:
        raise IndexOutOfRange(f"index {i} not odd in 1..{ctx.odd_indices[-1]}")


def p_indices(indices) -> tuple:
    """The sorted indices of a ``p`` atom: at least two, each odd and positive."""
    if len(indices) < 2:
        raise IndexOutOfRange("p needs at least two indices")
    for k in indices:
        if k < 1 or k % 2 == 0:
            raise IndexOutOfRange(f"p index {k} must be odd and positive")
    return tuple(sorted(indices))


def p_symbol(ctx: GenusContext, indices):
    """The symbol of the atom ``p[indices]``, or None where the cutoff makes
    it vanish: its largest index at 2g+1 or above.  For two indices the b1
    generator when the smaller is 1, the canonical w symbol otherwise; for
    ``p[1,1,k]`` and ``p[1,1,1,k]`` the b2 and b3 generators at k."""
    idx = p_indices(indices)
    n, top = len(idx), idx[-1]
    # sorted and positive, so idx[-2] == 1 puts 1 at every index but the last
    if n > 2 and (n > 4 or idx[-2] != 1):
        raise UnsupportedSymbol(
            f"p[{','.join(str(i) for i in indices)}] is outside the supported closure "
            "(only two-index symbols and the 1-, 1,1-, 1,1,1-prefixed generators)"
        )
    if top >= 2 * ctx.g + 1:
        return None
    if n == 2:
        return polyring.b1(top) if idx[0] == 1 else polyring.w(idx[0], top)
    return (polyring.b2 if n == 3 else polyring.b3)(top)


def check_la(ctx: GenusContext, s: int):
    """Refuse a parameter index ``la S`` outside the even range 4..4g+2."""
    indices = ctx.lambda_indices
    if s not in indices:
        raise IndexOutOfRange(f"la index {s} outside the even range 4..{indices[-1]}")


def _cut(products: list) -> list:
    """The products without those that have a two-index factor cut to zero
    (None)."""
    return [p for p in products if None not in p]


def bel1_products(ctx: GenusContext, i: int) -> list:
    """The first relation family at odd index i as ``(c, symbol, ...)``
    products."""
    _check_odd_index(ctx, i)
    products = [
        (1, polyring.b3(i)),
        (-6, polyring.b1(1), polyring.b1(i)),
        (2, p_symbol(ctx, (3, i))),
        (-6, p_symbol(ctx, (1, i + 2))),
    ]
    if i == 1:
        products.append((-2, polyring.la(4)))
    return _cut(products)


def bel2_products(ctx: GenusContext, i: int, j: int) -> list:
    """The second (quadratic) relation family at (i, j), b2_i b2_j minus its
    right-hand side, as ``(c, symbol, ...)`` products."""
    _check_odd_index(ctx, i)
    _check_odd_index(ctx, j)
    b1i, b1j = polyring.b1(i), polyring.b1(j)
    products = [
        (1, polyring.b2(i), polyring.b2(j)),
        (-4, polyring.b1(1), b1i, b1j),
        (-4, p_symbol(ctx, (1, i + 2)), b1j),
        (-4, b1i, p_symbol(ctx, (1, j + 2))),
        (2, p_symbol(ctx, (3, i)), b1j),
        (2, b1i, p_symbol(ctx, (3, j))),
        (2, p_symbol(ctx, (i + 4, j))),
        (-4, p_symbol(ctx, (i + 2, j + 2))),
        (2, p_symbol(ctx, (i, j + 4))),
    ]
    if i == 1:
        products.append((-2, polyring.la(4), b1j))
    if j == 1:
        products.append((-2, polyring.la(4), b1i))
    factor = 2 * (i == j) + (i - 2 == j) + (i == j - 2)
    if factor:
        s = i + j + 4
        # the delta factor vanishes unless |i-j| <= 2, which keeps s <= 4g+2
        assert s in ctx.lambda_indices, (i, j, s)
        products.append((-2 * factor, polyring.la(s)))
    return _cut(products)


def bel1(ctx: GenusContext, i: int, env=None) -> polyring.Poly:
    """Residual of the first relation family at odd index i, with the
    symbols ``env`` maps replaced by their images."""
    return polyring.Poly.sum_of_products(bel1_products(ctx, i), env)


def bel2(ctx: GenusContext, i: int, j: int, env=None) -> polyring.Poly:
    """Residual of the second relation family at (i, j), with the symbols
    ``env`` maps replaced by their images."""
    return polyring.Poly.sum_of_products(bel2_products(ctx, i, j), env)


def l1_products(ctx: GenusContext, n: int) -> list:
    """The xi^n coefficient of 4 m(xi) minus ``l1_rhs``, n in -1..2g, with
    m(xi) = xi^-1 + sum la_{2i+2} xi^i, as ``(c, symbol, ...)`` products
    over the index pairs of each series product.

    With B_k[i] the level-k generator at power i (b_k with index 2i - 1,
    zero outside 1..g) and Q the series (1 - b1)^2, the coefficient is
    4 la_{2n+2} (4 at n = -1) minus sum_{i+j=n} B2[i] B2[j], 2 B3[n],
    -2 sum_{i+j=n} B3[i] B1[j], 4 Q[n+1] and 8 b1_1 Q[n]."""
    g = ctx.g
    b1, b2, b3 = polyring.b1, polyring.b2, polyring.b3

    def at(maker, i):  # B_k[i]
        return maker(2 * i - 1) if 1 <= i <= g else None

    def pairs(k):  # (i, j) with i + j = k, both in 1..g
        return [(i, k - i) for i in range(max(1, k - g), min(g, k - 1) + 1)]

    def square(k):  # Q[k] = [k == 0] - 2 B1[k] + sum_{i+j=k} B1[i] B1[j]
        out = [(-2, at(b1, k))] + [(1, at(b1, i), at(b1, j)) for i, j in pairs(k)]
        return out + [(1,)] if k == 0 else out

    products = [(4,)] if n == -1 else [(4, polyring.la(2 * n + 2))] if n > 0 else []
    products += [(-1, at(b2, i), at(b2, j)) for i, j in pairs(n)]
    products.append((-2, at(b3, n)))
    products += [(2, at(b3, i), at(b1, j)) for i, j in pairs(n)]
    products += [(-4 * c, *syms) for c, *syms in square(n + 1)]
    products += [(-8 * c, b1(1), *syms) for c, *syms in square(n)]
    return _cut(products)


def generator_series(ctx: GenusContext, level: int) -> polyring.XiSeries:
    """The series with the level-1/2/3 generators at powers 1..g."""
    maker = {1: polyring.b1, 2: polyring.b2, 3: polyring.b3}[level]
    return polyring.XiSeries.from_terms(
        ctx.g, {i: polyring.Poly.symbol(maker(2 * i - 1)) for i in range(1, ctx.g + 1)}
    )


def l1_rhs(ctx: GenusContext) -> polyring.XiSeries:
    """The bracketed generating-series expression whose xi-coefficients carry
    the curve parameters: b2^2 + 2 b3 (1 - b1) + 4 (xi^-1 + 2 b1_1)(1 - b1)^2."""
    bs1 = generator_series(ctx, 1)
    bs2 = generator_series(ctx, 2)
    bs3 = generator_series(ctx, 3)
    one = polyring.XiSeries.from_terms(ctx.g, {0: polyring.Poly.one()})
    xim1 = polyring.XiSeries.from_terms(ctx.g, {-1: polyring.Poly.one()})
    one_minus_b1 = one - bs1
    b1_1 = polyring.Poly.symbol(polyring.b1(1))
    pole_part = xim1 + polyring.XiSeries.from_terms(ctx.g, {0: 2 * b1_1})
    return bs2 * bs2 + 2 * (bs3 * one_minus_b1) + 4 * (pole_part * (one_minus_b1 * one_minus_b1))
