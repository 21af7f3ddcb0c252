"""Exact linear algebra, cross-checked against independent textbook oracles.

Rank is compared with a plain Fraction Gaussian elimination, determinants
with cofactor expansion, and resultants with the root-product formula.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypfield.exactmath import (
    EmptyPolynomial,
    as_fraction,
    det_exact,
    det_generic,
    format_rational,
    parse_rational,
    rank_exact,
    sylvester_matrix,
    sylvester_resultant,
)
from hypfield.polyring import Poly, b1, b2, b3

small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def matrices(draw, max_dim=5, square=False):
    r = draw(st.integers(1, max_dim))
    c = r if square else draw(st.integers(1, max_dim))
    entries = draw(
        st.lists(small_fractions, min_size=r * c, max_size=r * c)
    )
    return [entries[i * c : (i + 1) * c] for i in range(r)]


# --- independent oracles ----------------------------------------------------

def gauss_rank(rows):
    """Straightforward Fraction Gaussian elimination, no cleverness."""
    a = [list(map(Fraction, row)) for row in rows]
    nrows = len(a)
    ncols = len(a[0])
    rank = 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        rank += 1
    return rank


def cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = None
    for c in range(n):
        minor = [row[:c] + row[c + 1 :] for row in rows[1:]]
        term = rows[0][c] * cofactor_det(minor)
        if c % 2:
            term = -term
        total = term if total is None else total + term
    return total


def poly_eval(coeffs, x):
    """Horner on descending coefficients."""
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def poly_from_roots(roots, lead=Fraction(1)):
    coeffs = [lead]
    for r in roots:
        coeffs = [c for c in coeffs] + [Fraction(0)]
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i] -= r * coeffs[i - 1]
    return coeffs


# --- scalars ----------------------------------------------------------------

@given(small_fractions)
def test_format_parse_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_format_rational_shapes():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert as_fraction(7) == Fraction(7)


# --- rank -------------------------------------------------------------------

@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_matches_gaussian_oracle(rows):
    assert rank_exact(rows) == gauss_rank(rows)


def test_rank_known_values():
    assert rank_exact([[1, 2], [2, 4], [3, 6]]) == 1
    assert rank_exact([[1, 0], [0, 1]]) == 2
    assert rank_exact([[0, 0], [0, 0]]) == 0
    assert rank_exact([]) == 0


@given(matrices(), small_fractions.filter(bool))
@settings(max_examples=30, deadline=None)
def test_rank_invariant_under_row_scaling(rows, scale):
    scaled = [[scale * x for x in rows[0]]] + rows[1:]
    assert gauss_rank(scaled) == gauss_rank(rows)
    assert rank_exact(scaled) == rank_exact(rows)


def test_ragged_rows_rejected():
    with pytest.raises(ValueError, match="ragged"):
        rank_exact([[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged"):
        det_exact([[1, 2], [3]])


# --- determinants -----------------------------------------------------------

@given(matrices(max_dim=4, square=True))
@settings(max_examples=60, deadline=None)
def test_det_matches_cofactor_oracle(rows):
    assert det_exact(rows) == cofactor_det(rows)


@given(matrices(max_dim=4, square=True))
@settings(max_examples=30, deadline=None)
def test_det_row_swap_negates(rows):
    if len(rows) < 2:
        return
    swapped = [rows[1], rows[0]] + rows[2:]
    assert det_exact(swapped) == -det_exact(rows)


def test_det_multiplicative():
    rng = random.Random(3)
    for _ in range(10):
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        b = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        ab = [
            [sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        assert det_exact(ab) == det_exact(a) * det_exact(b)


def test_det_non_square_rejected():
    with pytest.raises(ValueError, match="non-square"):
        det_exact([[1, 2]])


def test_det_of_empty_matrix_is_one():
    assert det_exact([]) == 1


@given(matrices(max_dim=5, square=True), st.booleans())
@settings(max_examples=60, deadline=None)
def test_det_vanishes_iff_rank_deficient(rows, singular):
    # rank and determinant share one elimination; replacing the last row by
    # the sum of the others makes the singular case common
    n = len(rows)
    if singular and n > 1:
        rows = rows[:-1] + [[sum(col) for col in zip(*rows[:-1])]]
    assert (det_exact(rows) == 0) == (rank_exact(rows) < n)


@given(matrices(max_dim=4, square=True))
@settings(max_examples=40, deadline=None)
def test_det_generic_agrees_on_rationals(rows):
    assert det_generic(rows) == det_exact(rows)


def test_det_generic_polynomial_entries():
    x = Poly.symbol(b1(1))
    y = Poly.symbol(b2(1))
    z = Poly.symbol(b3(1))
    assert det_generic([[x, y], [z, x]]) == x * x - y * z
    got = det_generic([[x, y, 0], [y, z, x], [0, x, y]])
    want = x * (z * y - x * x) - y * (y * y)
    assert got == want


# --- resultants -------------------------------------------------------------

def test_sylvester_matrix_shape():
    rows = sylvester_matrix([1, 0, -2], [3, 1])
    assert len(rows) == 3 and all(len(r) == 3 for r in rows)


def test_resultant_matches_root_product():
    rng = random.Random(11)
    for _ in range(15):
        roots = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
        f = poly_from_roots(roots)
        h = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
        if h[0] == 0:
            h[0] = Fraction(1)
        # res(f, h) = lc(f)^deg(h) * prod h(root) for monic f
        expected = Fraction(1)
        for r in roots:
            expected *= poly_eval(h, r)
        assert sylvester_resultant(f, h) == expected


def test_resultant_zero_iff_common_root():
    f = poly_from_roots([Fraction(2), Fraction(-1)])
    h = poly_from_roots([Fraction(2), Fraction(5)])
    assert sylvester_resultant(f, h) == 0
    h2 = poly_from_roots([Fraction(3), Fraction(5)])
    assert sylvester_resultant(f, h2) != 0


def test_resultant_swap_sign():
    # res(h, f) = (-1)^(deg f * deg h) res(f, h)
    f = [Fraction(1), Fraction(0), Fraction(-2)]   # deg 2
    h = [Fraction(2), Fraction(1), Fraction(3)]    # deg 2
    assert sylvester_resultant(h, f) == sylvester_resultant(f, h)
    h3 = [Fraction(1), Fraction(2), Fraction(0), Fraction(1)]  # deg 3
    assert sylvester_resultant(h3, f) == sylvester_resultant(f, h3)
    lin1 = [Fraction(1), Fraction(2)]
    lin2 = [Fraction(1), Fraction(3)]
    assert sylvester_resultant(lin1, lin2) == -sylvester_resultant(lin2, lin1)


def test_resultant_empty_polynomial():
    with pytest.raises(EmptyPolynomial):
        sylvester_resultant([], [1, 2])
    with pytest.raises(EmptyPolynomial):
        sylvester_matrix([1], [])


def test_resultant_constant_polynomials():
    assert sylvester_resultant([Fraction(5)], [Fraction(7)]) == 1
