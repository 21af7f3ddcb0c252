"""Curve polynomial, discriminant, and the degenerate locus.

The discriminant is checked against oracles that share nothing with the
multiplication-matrix construction: the cubic formula, the product of
squared root differences, a Euclidean resultant over Q written below, and
sympy's discriminant.
"""

import random
from fractions import Fraction

import pytest
import sympy

from hypfield.curve import (
    LambdaVector,
    curve_poly,
    discriminant,
    symbolic_discriminant,
)
from hypfield.polyring import Poly, at_point, homogeneous_weight, la
from hypfield.relations import GenusContext


def _rem(f, h):
    """Remainder of f by h, descending Fraction coefficients, leading zeros
    stripped (empty for the zero polynomial)."""
    r = list(f)
    while len(r) >= len(h):
        q = r[0] / h[0]
        r = [x - q * y for x, y in zip(r, h + [0] * (len(r) - len(h)))][1:]
    while r and r[0] == 0:
        r = r[1:]
    return r


def euclid_resultant(f, h):
    """res(f, h) by the Euclidean algorithm over Q, for descending coefficient
    lists with nonzero leading terms:
    res(f, h) = (-1)^(deg f deg h) lc(h)^(deg f - deg r) res(h, r), r = f mod h.
    """
    n, m = len(f) - 1, len(h) - 1
    if m == 0:
        return h[0] ** n
    r = _rem(f, h)
    if not r:
        return Fraction(0)
    sign = -1 if n * m % 2 else 1
    return sign * h[0] ** (n - len(r) + 1) * euclid_resultant(h, r)


def euclid_discriminant(lv):
    f = curve_poly(lv)
    n = len(f) - 1
    df = [c * (n - i) for i, c in enumerate(f[:-1])]
    return (-1) ** (n * (n - 1) // 2) * euclid_resultant(f, df)


def from_coeffs(g, descending):
    """The LambdaVector of a monic polynomial with zero x^(2g) coefficient."""
    assert descending[:2] == [1, 0] and len(descending) == 2 * g + 2
    return LambdaVector.from_sequence(g, descending[2:])


def multiply(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


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


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_discriminant_matches_euclidean_resultant(g):
    rng = random.Random(100 + g)
    for _ in range(6):
        vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(2 * g)]
        lv = LambdaVector.from_sequence(g, vals)
        want = euclid_discriminant(lv)
        assert want != 0
        assert discriminant(lv) == want


def test_discriminant_vanishes_at_double_root_genus4():
    # (x - a)^2 h with h monic of degree 7 whose x^6 coefficient is 2a, so
    # the product keeps the family's zero x^8 coefficient
    rng = random.Random(44)
    a = Fraction(3, 2)
    h = [Fraction(1), 2 * a] + [Fraction(rng.randint(-7, 7), rng.randint(1, 3)) for _ in range(6)]
    lv = from_coeffs(4, multiply(multiply([1, -a], [1, -a]), h))
    assert euclid_discriminant(lv) == 0
    assert discriminant(lv) == 0


@pytest.mark.parametrize("g", [1, 2, 3])
def test_discriminant_is_product_of_squared_root_differences(g):
    # f = prod (x - r_i) with sum r_i = 0: disc(f) = prod_{i<j} (r_i - r_j)^2
    rng = random.Random(7 * g)
    for _ in range(5):
        roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2 * g)]
        roots.append(-sum(roots))
        f = [Fraction(1)]
        for r in roots:
            f = multiply(f, [1, -r])
        want = Fraction(1)
        for i, r in enumerate(roots):
            for t in roots[i + 1 :]:
                want *= (r - t) ** 2
        assert discriminant(from_coeffs(g, f)) == want


@pytest.mark.parametrize("g", [1, 2, 3])
def test_symbolic_discriminant_weight(g):
    # weighted homogeneous: la_s has weight s, and disc has weight 4g(2g+1)
    assert homogeneous_weight(symbolic_discriminant(GenusContext(g))) == 4 * g * (2 * g + 1)


def test_discriminant_detects_multiple_root():
    # x^3 - 3x + 2 = (x - 1)^2 (x + 2)
    assert discriminant(lv1(-3, 2)) == 0
    assert discriminant(lv1(-3, 1)) != 0


def test_origin_in_degenerate_locus():
    for g in (1, 2, 3):
        zero = LambdaVector.from_sequence(g, [0] * (2 * g))
        assert discriminant(zero) == 0


def test_genus2_distinct_roots_not_degenerate():
    # x^5 - x = x(x-1)(x+1)(x^2+1): distinct roots
    lv = LambdaVector.from_sequence(2, [0, 0, -1, 0])
    assert discriminant(lv) != 0
    # x^5 - 2x^4? not expressible; use x^5 = x * x^4 instead: repeated root 0
    assert discriminant(LambdaVector.from_sequence(2, [0, 0, 0, 0])) == 0


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
        assert at_point([sym], env)[0] == [discriminant(lv)]


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
    for mono, coeff in symbolic_discriminant(GenusContext(g)).sorted_terms():
        powers = {sym.indices[0]: e for sym, e in mono}
        got[tuple(powers.get(s, 0) for s in indices)] = coeff
    assert got == want
