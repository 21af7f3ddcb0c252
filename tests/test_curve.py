"""Curve polynomial, discriminant, and the degenerate locus."""

import random
from fractions import Fraction

import pytest
import sympy

from hypfield.curve import (
    LambdaVector,
    curve_poly,
    discriminant,
    in_sigma,
    symbolic_discriminant,
)
from hypfield.polyring import Poly, la
from hypfield.relations import GenusContext


def lv1(l4, l6):
    return LambdaVector.from_sequence(1, [l4, l6])


def test_lambda_vector_validation():
    with pytest.raises(ValueError):
        LambdaVector.from_sequence(1, [1])
    with pytest.raises(ValueError):
        LambdaVector(1, {4: Fraction(1), 8: Fraction(1)})


def test_curve_poly_layout():
    # genus 2: x^5 + la4 x^3 + la6 x^2 + la8 x + la10, no x^4 term
    lv = LambdaVector.from_sequence(2, [1, 2, 3, 4])
    assert curve_poly(lv) == [1, 0, 1, 2, 3, 4]


def test_discriminant_cubic_formula():
    rng = random.Random(2)
    for _ in range(20):
        l4 = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        l6 = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        assert discriminant(lv1(l4, l6)) == -4 * l4 ** 3 - 27 * l6 ** 2


def test_discriminant_detects_multiple_root():
    # x^3 - 3x + 2 = (x - 1)^2 (x + 2)
    assert in_sigma(lv1(-3, 2))
    assert not in_sigma(lv1(-3, 1))


def test_origin_in_degenerate_locus():
    for g in (1, 2, 3):
        zero = LambdaVector.from_sequence(g, [0] * (2 * g))
        assert in_sigma(zero)


def test_genus2_distinct_roots_not_degenerate():
    # x^5 - x = x(x-1)(x+1)(x^2+1): distinct roots
    lv = LambdaVector.from_sequence(2, [0, 0, -1, 0])
    assert not in_sigma(lv)
    # x^5 - 2x^4? not expressible; use x^5 = x * x^4 instead: repeated root 0
    assert in_sigma(LambdaVector.from_sequence(2, [0, 0, 0, 0]))


def test_symbolic_discriminant_genus1():
    p4 = Poly.symbol(la(4))
    p6 = Poly.symbol(la(6))
    want = -4 * p4 ** 3 - 27 * p6 ** 2
    assert symbolic_discriminant(GenusContext(1)) == want


def test_symbolic_matches_numeric_evaluation():
    sym = symbolic_discriminant(GenusContext(2))
    rng = random.Random(4)
    for _ in range(5):
        vals = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        lv = LambdaVector.from_sequence(2, vals)
        env = {la(s): v for s, v in lv.values.items()}
        assert sym.evaluate(env) == discriminant(lv)


@pytest.mark.parametrize("g", [1, 2])
def test_symbolic_discriminant_matches_sympy(g):
    # independent oracle: sympy's discriminant of the same monic polynomial,
    # compared term by term as exponent vector -> coefficient
    indices = GenusContext(g).lambda_indices
    lams = sympy.symbols([f"la{s}" for s in indices])
    x = sympy.Symbol("x")
    f = x ** (2 * g + 1) + sum(
        lam * x ** (2 * g + 1 - s // 2) for s, lam in zip(indices, lams)
    )
    want = {
        exps: Fraction(int(c.p), int(c.q))
        for exps, c in sympy.Poly(sympy.discriminant(f, x), *lams).terms()
    }
    got = {}
    for mono, coeff in symbolic_discriminant(GenusContext(g)).terms.items():
        powers = {sym.indices[0]: e for sym, e in mono}
        got[tuple(powers.get(s, 0) for s in indices)] = coeff
    assert got == want
