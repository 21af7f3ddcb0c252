"""Derivation pipeline and expression reduction."""

import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from hypfield import rewriter
from hypfield.polyring import Poly, b1, b2, b3, homogeneous_weight, la, w
from hypfield.relations import GenusContext, RelationId, bel2_products
from hypfield.rewriter import (
    BinOp,
    Const,
    DivisionByZeroPoly,
    Lam,
    Neg,
    Pow,
    PSym,
    UnresolvedSymbol,
    UnsupportedSymbol,
    build_table,
    derive_lambda,
    format_fraction,
    normalize_fraction,
    reduce_expr,
)


@lru_cache(maxsize=None)
def table(g):
    return build_table(GenusContext(g))


# --- derived tables ---------------------------------------------------------

def test_genus1_closed_forms():
    t = table(1)
    assert str(t.lam[4]) == "-3*b1_1^2 + 1/2*b3_1"
    assert str(t.lam[6]) == "2*b1_1^3 - 1/2*b1_1*b3_1 + 1/4*b2_1^2"
    assert t.w == {}


def test_genus2_low_entries():
    t = table(2)
    assert str(t.lam[4]) == "-3*b1_1^2 - 2*b1_3 + 1/2*b3_1"
    assert str(t.w[(3, 3)]) == "3*b1_1*b1_3 - 1/2*b3_3"


def test_table_coverage_and_homogeneity():
    for g in (1, 2, 3):
        ctx = GenusContext(g)
        t = table(g)
        assert set(t.lam) == set(ctx.lambda_indices)
        assert set(t.w) == set(ctx.w_pairs)
        for s, p in t.lam.items():
            assert homogeneous_weight(p) == s
        for (k, l), p in t.w.items():
            assert homogeneous_weight(p) == k + l


def test_table_entries_use_only_generators():
    t = table(3)
    for p in list(t.lam.values()) + list(t.w.values()):
        assert all(s.kind in ("b1", "b2", "b3") for s in p.symbols())


def test_provenance_labels():
    t = table(3)
    assert t.provenance["la_4"] == "L1[xi^1]"
    assert t.provenance["w_3_5"] == "BEL1[5]"
    assert t.provenance["w_5_5"] == "BEL2[1,5]"


def test_tree_serialization():
    t = table(2)
    data = json.loads("".join(t.tree_lines()))
    assert set(data) == {"genus", "lambda", "w", "provenance"}
    assert data["genus"] == 2
    assert data["lambda"]["4"] == str(t.lam[4])
    assert data["w"]["3,3"] == str(t.w[(3, 3)])


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_tree_lines_are_the_indented_json_dump(g):
    # one newline-ended line per entry, together json.dumps's text; at g = 1
    # the w section is empty and prints as {}
    t = table(g)
    tree = {
        "genus": g,
        "lambda": {str(s): str(t.lam[s]) for s in sorted(t.lam)},
        "w": {f"{k},{l}": str(t.w[(k, l)]) for k, l in sorted(t.w)},
        "provenance": {name: t.provenance[name] for name in sorted(t.provenance)},
    }
    lines = list(t.tree_lines())
    assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
    assert "".join(lines) == json.dumps(tree, indent=2) + "\n"


def test_text_serialization_deterministic():
    assert "".join(table(2).lines()) == "".join(build_table(GenusContext(2)).lines())


def test_derive_lambda_matches_table():
    env, provenance = {}, {}
    derive_lambda(GenusContext(2), env, provenance)
    assert env == {la(s): p for s, p in table(2).lam.items()}
    assert provenance == {k: v for k, v in table(2).provenance.items() if k.startswith("la_")}


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda env: env.pop(w(5, 5)), r"missing \['w_5_5'\], extra \[\]"),
        (lambda env: env.update({w(7, 7): env[w(5, 5)] ** 2}), r"missing \[\], extra \['w_7_7'\]"),
        (lambda env: env.update({w(5, 5): env[w(5, 5)] + 1}), "w_5_5 has wrong weight"),
    ],
    ids=["skipped-entry", "extra-entry", "wrong-weight"],
)
def test_build_table_checks_coverage_and_weight(monkeypatch, edit, message):
    stage = rewriter.derive_w_high

    def faulty_stage(ctx, env, provenance):
        stage(ctx, env, provenance)
        edit(env)

    monkeypatch.setattr(rewriter, "derive_w_high", faulty_stage)
    with pytest.raises(rewriter.InternalInconsistency, match=message):
        build_table(GenusContext(3))


def test_tables_are_stable_under_lowering_the_genus():
    """tau_g sets every generator of index 2g+1 or more to 0.  It carries
    each entry of table(g+1) onto the same entry of table(g), and the
    entries new at genus g+1 onto 0; tau_g is a ring homomorphism, so an
    equation that reduces to 0 at genus G does so at every g <= G."""
    for g in range(1, 17):
        tau = {maker(2 * g + 1): Poly.zero() for maker in (b1, b2, b3)}
        low, high = table(g).substitution_env(), table(g + 1).substitution_env()
        new = {la(4 * g + 4), la(4 * g + 6)} | {w(k, 2 * g + 1) for k in range(3, 2 * g + 2, 2)}
        assert set(high) - set(low) == new and set(low) <= set(high)
        for sym, p in high.items():
            assert p.substitute(tau) == low.get(sym, Poly.zero()), (g, sym)


# --- alternative extraction path -------------------------------------------

def extract_from_bel2(ctx: GenusContext, env: dict, i: int, j: int, target: tuple) -> Poly:
    """Solve the (i, j) instance of the quadratic family for the w symbol at
    ``target``: the path-independence oracle, which takes an instance the
    derivation does not.  ``env`` must map every other non-generator symbol
    of the instance to a pure-generator polynomial; UnresolvedSymbol when it
    does not signals an invalid extraction path."""
    label = str(RelationId("BEL2", (i, j)))
    return rewriter._solve(bel2_products(ctx, i, j), w(*target), env, label)


def test_path_independence_smoke():
    ctx = GenusContext(3)
    t = table(3)
    env = t.substitution_env()
    alt = extract_from_bel2(ctx, env, 3, 3, (5, 5))
    assert alt == t.w[(5, 5)]


def test_extraction_with_incomplete_env_fails():
    ctx = GenusContext(3)
    with pytest.raises(UnresolvedSymbol):
        extract_from_bel2(ctx, {}, 1, 5, (5, 5))


def test_extraction_requires_linear_occurrence():
    ctx = GenusContext(3)
    env = table(3).substitution_env()
    with pytest.raises(UnresolvedSymbol):
        extract_from_bel2(ctx, env, 1, 1, (5, 5))


def test_solve_refuses_a_target_that_occurs_nonlinearly():
    target = w(5, 5)
    products = [(1, target), (2, target, b1(1)), (-1, b2(1))]
    with pytest.raises(UnresolvedSymbol, match="w_5_5 occurs nonlinearly in R"):
        rewriter._solve(products, target, {}, "R")
    # products that cancel leave the target linear, as in the summed residual
    products += [(-2, b1(1), target)]
    assert rewriter._solve(products, target, {}, "R") == Poly.symbol(b2(1))


# --- fraction normalization -------------------------------------------------

def test_normalize_strips_common_monomial():
    x = Poly.symbol(b1(1))
    y = Poly.symbol(b2(1))
    num, den = normalize_fraction(x * x * y, x * y * y)
    assert num == x
    assert den == y


def test_normalize_monic_denominator():
    x = Poly.symbol(b1(1))
    num, den = normalize_fraction(Poly.one(), 2 * x)
    assert num == Poly.const(Fraction(1, 2))
    assert den == x


def test_normalize_zero_numerator():
    num, den = normalize_fraction(Poly.zero(), 7 * Poly.symbol(b1(1)))
    assert num == Poly.zero() and den == Poly.one()


def test_normalize_zero_denominator_raises():
    with pytest.raises(DivisionByZeroPoly):
        normalize_fraction(Poly.one(), Poly.zero())


# --- reduction --------------------------------------------------------------

def reduce1(e):
    return reduce_expr(table(1), e)


def test_reduce_atoms():
    assert reduce1(Const(Fraction(3, 2))) == (Poly.const(Fraction(3, 2)), Poly.one())
    assert reduce1(PSym((1, 1))) == (Poly.symbol(b1(1)), Poly.one())
    assert reduce1(PSym((1, 1, 1))) == (Poly.symbol(b2(1)), Poly.one())
    assert reduce1(PSym((1, 1, 1, 1))) == (Poly.symbol(b3(1)), Poly.one())
    assert reduce1(Lam(4)) == (table(1).lam[4], Poly.one())


def test_reduce_sorts_psym_indices():
    got = reduce_expr(table(2), PSym((3, 1, 1)))
    assert got == (Poly.symbol(b2(3)), Poly.one())


def test_reduce_cutoff_symbol_is_zero():
    got = reduce_expr(table(3), PSym((7, 9)))
    assert got == (Poly.zero(), Poly.one())


def test_reduce_w_symbol_lands_in_generators():
    num, den = reduce_expr(table(2), PSym((3, 3)))
    assert den == Poly.one()
    assert num == table(2).w[(3, 3)]


def test_reduce_unsupported_symbols():
    with pytest.raises(UnsupportedSymbol):
        reduce_expr(table(2), PSym((3, 3, 3)))
    with pytest.raises(UnsupportedSymbol):
        reduce_expr(table(2), PSym((1, 3, 3)))
    with pytest.raises(UnsupportedSymbol):
        reduce_expr(table(2), Lam(20))


def test_reduce_division_and_powers():
    p = PSym((1, 1))
    x = Poly.symbol(b1(1))
    assert reduce1(BinOp("/", p, p)) == (Poly.one(), Poly.one())
    assert reduce1(BinOp("/", Const(Fraction(1)), p)) == (Poly.one(), x)
    assert reduce1(Pow(p, -2)) == (Poly.one(), x * x)
    assert reduce1(Pow(p, 3)) == (x ** 3, Poly.one())


def test_reduce_zero_denominator():
    p = PSym((1, 1))
    zero = BinOp("-", p, p)
    with pytest.raises(DivisionByZeroPoly):
        reduce1(BinOp("/", Const(Fraction(1)), zero))
    with pytest.raises(DivisionByZeroPoly):
        reduce1(Pow(zero, -1))


def random_expr(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(
            [
                Const(Fraction(rng.randint(-4, 4), rng.randint(1, 3))),
                PSym((1, 1)),
                PSym((1, 1, 1)),
                PSym((1, 1, 1, 1)),
                Lam(4),
                Lam(6),
            ]
        )
    op = rng.choice(["+", "-", "*", "neg", "pow"])
    if op == "neg":
        return Neg(random_expr(rng, depth - 1))
    if op == "pow":
        return Pow(random_expr(rng, depth - 1), rng.randint(0, 2))
    return BinOp(op, random_expr(rng, depth - 1), random_expr(rng, depth - 1))


def test_reduce_respects_field_operations():
    # cross-multiplied equality: n/d == n'/d' iff n*d' == n'*d
    rng = random.Random(23)
    t = table(1)
    for _ in range(40):
        a = random_expr(rng)
        b = random_expr(rng)
        na, da = reduce_expr(t, a)
        nb, db = reduce_expr(t, b)
        ns, ds = reduce_expr(t, BinOp("+", a, b))
        assert ns * (da * db) == (na * db + nb * da) * ds
        np_, dp = reduce_expr(t, BinOp("*", a, b))
        assert np_ * (da * db) == (na * nb) * dp


def test_format_fraction():
    x = Poly.symbol(b1(1))
    assert format_fraction(x, Poly.one()) == "b1_1"
    assert format_fraction(Poly.one(), x) == "(1) / (b1_1)"
