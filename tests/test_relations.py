"""Relation families: index bookkeeping, cutoff, symmetry, grading."""

import copy
import pickle

import pytest

from hypfield.polyring import Poly, Symbol, XiSeries, b1, b2, b3, homogeneous_weight, la, w
from hypfield.relations import (
    GenusContext,
    IndexOutOfRange,
    RelationId,
    bel1,
    bel1_products,
    bel2,
    bel2_products,
    generator_series,
    l1_products,
    l1_rhs,
    p_symbol,
)


def test_genus_validation():
    with pytest.raises(ValueError):
        GenusContext(0)


@pytest.mark.parametrize(
    "g,odd,lams,pairs",
    [
        (1, (1,), (4, 6), ()),
        (2, (1, 3), (4, 6, 8, 10), ((3, 3),)),
        (3, (1, 3, 5), (4, 6, 8, 10, 12, 14), ((3, 3), (3, 5), (5, 5))),
        (
            4,
            (1, 3, 5, 7),
            (4, 6, 8, 10, 12, 14, 16, 18),
            ((3, 3), (3, 5), (3, 7), (5, 5), (5, 7), (7, 7)),
        ),
    ],
)
def test_index_families(g, odd, lams, pairs):
    ctx = GenusContext(g)
    assert ctx.odd_indices == odd
    assert ctx.lambda_indices == lams
    assert ctx.w_pairs == pairs


def test_relation_id_text():
    assert str(RelationId("BEL1", (3,))) == "BEL1[3]"
    assert str(RelationId("BEL2", (1, 5))) == "BEL2[1,5]"


# --- two-index naming -------------------------------------------------------

def test_two_index_naming_and_cutoff():
    ctx = GenusContext(2)
    assert p_symbol(ctx, (1, 3)) == b1(3)
    assert p_symbol(ctx, (3, 1)) == b1(3)
    assert p_symbol(ctx, (3, 3)) == w(3, 3)
    assert p_symbol(ctx, (5, 3)) is None  # index at 2g+1 cuts to zero
    assert p_symbol(ctx, (1, 7)) is None
    assert p_symbol(ctx, (1, 1)) == b1(1)


def test_two_index_symmetric():
    ctx = GenusContext(4)
    for k in (1, 3, 5, 7):
        for l in (1, 3, 5, 7):
            assert p_symbol(ctx, (k, l)) == p_symbol(ctx, (l, k))


def test_two_index_rejects_even_or_nonpositive():
    ctx = GenusContext(2)
    for bad in ((2, 3), (1, 0), (-1, 3)):
        with pytest.raises(IndexOutOfRange):
            p_symbol(ctx, bad)


# --- first family -----------------------------------------------------------

def test_bel1_genus1_explicit():
    ctx = GenusContext(1)
    want = (
        Poly.symbol(b3(1))
        - 6 * Poly.symbol(b1(1)) ** 2
        - 2 * Poly.symbol(la(4))
    )
    assert bel1(ctx, 1) == want


def test_bel1_homogeneous():
    ctx = GenusContext(4)
    for i in ctx.odd_indices:
        assert homogeneous_weight(bel1(ctx, i)) == i + 3


def test_bel1_index_range():
    ctx = GenusContext(2)
    for bad in (2, 5, -1):
        with pytest.raises(IndexOutOfRange):
            bel1(ctx, bad)


# --- second family ----------------------------------------------------------

def test_bel2_genus1_explicit():
    ctx = GenusContext(1)
    want = (
        Poly.symbol(b2(1)) ** 2
        - 4 * Poly.symbol(b1(1)) ** 3
        - 4 * Poly.symbol(la(4)) * Poly.symbol(b1(1))
        - 4 * Poly.symbol(la(6))
    )
    assert bel2(ctx, 1, 1) == want


def test_bel2_symmetric_and_homogeneous():
    ctx = GenusContext(4)
    for i in ctx.odd_indices:
        for j in ctx.odd_indices:
            r = bel2(ctx, i, j)
            assert r == bel2(ctx, j, i)
            assert homogeneous_weight(r) == i + j + 4


def test_bel2_delta_parameter_terms():
    # the la_{i+j+4} term appears exactly when |i-j| <= 2
    ctx = GenusContext(3)
    assert la(10) in bel2(ctx, 3, 3).symbols()
    assert la(12) in bel2(ctx, 3, 5).symbols()
    assert la(10) not in bel2(ctx, 1, 5).symbols()


def test_bel2_index_range():
    ctx = GenusContext(2)
    with pytest.raises(IndexOutOfRange):
        bel2(ctx, 1, 4)


# --- reference residuals ----------------------------------------------------
# The BEL1/BEL2 formulas in Poly arithmetic, one polynomial per factor, with
# their own cutoff and naming and with symbols built without interning.

def ref_sym(kind, *indices):
    return Poly.symbol(Symbol(kind, indices))


def ref_pp(g, k, l):
    if k >= 2 * g + 1 or l >= 2 * g + 1:
        return Poly.zero()
    k, l = min(k, l), max(k, l)
    return ref_sym("b1", l) if k == 1 else ref_sym("w", k, l)


def ref_bel1(g, i):
    res = (
        ref_sym("b3", i)
        - 6 * ref_sym("b1", 1) * ref_sym("b1", i)
        + 2 * ref_pp(g, 3, i)
        - 6 * ref_pp(g, 1, i + 2)
    )
    if i == 1:
        res = res - 2 * ref_sym("la", 4)
    return res


def ref_bel2(g, i, j):
    p1i, p1j = ref_sym("b1", i), ref_sym("b1", j)
    rhs = (
        4 * ref_sym("b1", 1) * p1i * p1j
        + 4 * ref_pp(g, 1, i + 2) * p1j
        + 4 * p1i * ref_pp(g, 1, j + 2)
        - 2 * ref_pp(g, 3, i) * p1j
        - 2 * p1i * ref_pp(g, 3, j)
        - 2 * (ref_pp(g, i + 4, j) - 2 * ref_pp(g, i + 2, j + 2) + ref_pp(g, i, j + 4))
    )
    if i == 1:
        rhs = rhs + 2 * ref_sym("la", 4) * p1j
    if j == 1:
        rhs = rhs + 2 * ref_sym("la", 4) * p1i
    factor = 2 * (i == j) + (i - 2 == j) + (i == j - 2)
    if factor:
        rhs = rhs + 2 * factor * ref_sym("la", i + j + 4)
    return ref_sym("b2", i) * ref_sym("b2", j) - rhs


@pytest.mark.parametrize("g", range(1, 7))
def test_residuals_match_the_reference(g):
    # g <= 6 reaches the cutoff at 2g+1 from every term and every
    # Kronecker-delta la term
    ctx = GenusContext(g)
    for i in ctx.odd_indices:
        got = bel1(ctx, i)
        assert got == ref_bel1(g, i) and str(got) == str(ref_bel1(g, i)), i
        for j in ctx.odd_indices:
            got = bel2(ctx, i, j)
            assert got == ref_bel2(g, i, j) and str(got) == str(ref_bel2(g, i, j)), (i, j)


def test_product_lists_truncate_to_every_lower_genus():
    """At genus 12, dropping each product with a b or w factor of index 2g+1
    or more leaves exactly genus g's BEL1 and BEL2 lists, in their order."""
    top = GenusContext(12)

    def truncated(products, g):
        return [
            p for p in products
            if all(s.kind == "la" or max(s.indices) < 2 * g + 1 for s in p[1:])
        ]

    for g in range(1, 12):
        ctx = GenusContext(g)
        for i in ctx.odd_indices:
            assert truncated(bel1_products(top, i), g) == bel1_products(ctx, i), (g, i)
            for j in ctx.odd_indices:
                assert truncated(bel2_products(top, i, j), g) == bel2_products(ctx, i, j), (g, i, j)


def test_symbols_are_interned():
    assert b1(3) is b1(3) and la(10) is la(10)
    assert w(5, 3) is w(3, 5)
    for make in (b1, b2, b3):
        assert make(5) is make(5) and make(5) == Symbol(make.__name__, (5,))


@pytest.mark.parametrize("sym", [b1(3), b2(1), b3(5), w(3, 5), la(10)], ids=str)
def test_interned_symbols_copy_and_pickle_to_equal_symbols(sym):
    for other in (copy.copy(sym), copy.deepcopy(sym), pickle.loads(pickle.dumps(sym))):
        assert other == sym and type(other) is Symbol
        assert other.name == sym.name and other.weight == sym.weight
        assert Poly.symbol(other) == Poly.symbol(sym)


# --- generating series ------------------------------------------------------

def test_generator_series_slots():
    ctx = GenusContext(3)
    s = generator_series(ctx, 2)
    assert s[1] == Poly.symbol(b2(1))
    assert s[2] == Poly.symbol(b2(3))
    assert s[3] == Poly.symbol(b2(5))
    assert s[-1].is_zero() and s[0].is_zero()


def parameter_series(ctx: GenusContext) -> XiSeries:
    """xi^-1 plus the curve parameters at powers 1..2g."""
    terms = {-1: Poly.one()}
    for i in range(1, 2 * ctx.g + 1):
        terms[i] = Poly.symbol(la(2 * i + 2))
    return XiSeries.from_terms(ctx.g, terms)


def l1_residual(ctx: GenusContext) -> XiSeries:
    """4 m(xi) minus the bracketed expression; vanishes coefficientwise when
    the parameter symbols take their derived values.  Its ``XiSeries``
    product is the reference the L1 products of ``l1_products`` are tested
    against."""
    return 4 * parameter_series(ctx) - l1_rhs(ctx)


def test_parameter_series_slots():
    ctx = GenusContext(2)
    s = parameter_series(ctx)
    assert s[-1] == Poly.one()
    assert s[0].is_zero()
    assert s[1] == Poly.symbol(la(4))
    assert s[4] == Poly.symbol(la(10))


def test_l1_rhs_pole_and_constant_coefficients():
    for g in (1, 2, 3):
        rhs = l1_rhs(GenusContext(g))
        assert rhs[-1] == Poly.const(4)
        assert rhs[0].is_zero()


def test_l1_residual_vanishes_on_derived_parameters():
    from hypfield.rewriter import build_table

    ctx = GenusContext(2)
    table = build_table(ctx)
    env = table.substitution_env()
    res = l1_residual(ctx)
    for p in range(-1, 2 * ctx.g + 1):
        assert res[p].substitute(env).is_zero()


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 6, 7, 8, 16])
def test_l1_products_match_the_series_reference(g):
    # l1_residual's XiSeries product is the reference for every coefficient
    ctx = GenusContext(g)
    reference = l1_residual(ctx)
    for n in range(-1, 2 * g + 1):
        got = Poly.sum_of_products(l1_products(ctx, n))
        assert got == reference[n] and str(got) == str(reference[n]), n
