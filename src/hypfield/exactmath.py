"""Exact rational arithmetic, rank and determinants.

Rational numbers are plain :class:`fractions.Fraction` values.  The stdlib
type already keeps every value reduced with a positive denominator and
serializes as ``num/den`` (just ``n`` when the denominator is 1), which is
exactly the canonical form used throughout this package.

Rank and determinant share one fraction-free (Bareiss) elimination on an
integer rescaling of the matrix, which keeps intermediate entries as minors
of the input instead of letting numerators and denominators blow up.
Matrices with polynomial entries, such as the one behind the symbolic curve
discriminant, go to the division-free :func:`det_generic` instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def format_rational(q: Fraction) -> str:
    """``num/den`` in lowest terms, ``n`` when the denominator is 1."""
    q = as_fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())


def _integer_rows(rows: Sequence[Sequence]) -> tuple:
    """Clear denominators row by row.

    Returns the integer rows and the product of the row multipliers: row
    scaling keeps the rank and multiplies the determinant by that product.
    """
    ncols = len(rows[0]) if rows else 0
    out = []
    scale = 1
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged rows")
        row = [as_fraction(x) for x in row]
        mult = lcm(*(f.denominator for f in row))
        scale *= mult
        out.append([f.numerator * (mult // f.denominator) for f in row])
    return out, scale


def _bareiss(a: list) -> tuple:
    """Fraction-free Gaussian elimination of an integer matrix, in place.

    Returns ``(rank, sign, last)``: the rank, the sign of the row swaps made
    and the last pivot.  For a square matrix of full rank the last pivot is
    the determinant of the row-swapped matrix.
    """
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                # Bareiss step: the division by the previous pivot is exact.
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
    return r, sign, prev


def rank_exact(rows: Sequence[Sequence]) -> int:
    """Rank over Q of a matrix given by its rows. Exact, no tolerance."""
    a, _ = _integer_rows(rows)
    return _bareiss(a)[0]


def det_exact(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square matrix of rationals given by its rows."""
    a, scale = _integer_rows(rows)
    n = len(a)
    if a and len(a[0]) != n:
        raise ValueError("determinant of a non-square matrix")
    rank, sign, last = _bareiss(a)
    return Fraction(sign * last if rank == n else 0, scale)


def det_generic(rows: list):
    """Determinant over any commutative ring (entries support +, -, *).

    Dynamic programming over column subsets; only viable for small matrices
    but places no divisibility requirement on the entries, so it works for
    polynomial entries where Bareiss does not apply directly.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    # state: bitmask of used columns -> signed minor of the first popcount rows
    states = {0: 1}
    for r in range(n):
        new = {}
        for mask, val in states.items():
            if not val:
                continue
            for c in range(n):
                bit = 1 << c
                if mask & bit:
                    continue
                e = rows[r][c]
                if not e:
                    continue
                # placing row r in column c adds one inversion per used
                # column above c
                inversions = (mask >> (c + 1)).bit_count()
                key = mask | bit
                contrib = val * e if inversions % 2 == 0 else -(val * e)
                if key in new:
                    new[key] = new[key] + contrib
                else:
                    new[key] = contrib
        states = new
    full = (1 << n) - 1
    return states.get(full, 0 * rows[0][0])

