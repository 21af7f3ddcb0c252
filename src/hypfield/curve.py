"""Curve-side computations: the defining polynomial and its discriminant,
at a rational parameter point or as a polynomial in the parameters.

The discriminant of the monic curve polynomial f of degree n = 2g+1 is, up
to sign, the determinant of the n x n matrix of multiplication by f' on
R[x]/(f), with R = Q or the ring of parameter polynomials (H. Cohen, *A
Course in Computational Algebraic Number Theory*, GTM 138, section 3.3).

``polyring`` is reached through the module: only the symbolic discriminant
runs it, so a numeric ``disc`` runs no polynomial code.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import polyring
from .exactmath import det_exact, det_generic
from .relations import GenusContext


def curve_poly(genus: int, values: Sequence) -> list:
    """Monic degree-(2g+1) coefficient sequence, leading term first, for the
    parameters ``values``, la_4, la_6, ..., la_{4g+2} in index order.

    The coefficient of x^(2g+1-m) is la_{2m} for m >= 2 and zero at x^(2g).
    """
    count = len(GenusContext(genus).lambda_indices)
    if len(values) != count:
        raise ValueError(f"expected {count} parameters, got {len(values)}")
    return [Fraction(1), Fraction(0)] + [Fraction(v) for v in values]


def _derivative_rows(coeffs) -> list:
    """Rows x^j f' mod f, j = 0..n-1, as ascending coefficients, for monic f
    of degree n given by descending coefficients.

    They are the columns of the matrix of multiplication by f' on R[x]/(f),
    so their determinant is res(f, f').  Multiplying by x shifts a row up
    and replaces x^n by -(a_{n-1} x^{n-1} + ... + a_0); only +, - and * are
    used, so the entries may be Fractions or Polys.
    """
    a = coeffs[::-1]  # a[k] is the coefficient of x^k; a[n] = 1
    n = len(a) - 1
    row = [c * k for k, c in enumerate(a) if k]  # f'
    rows = [row]
    for _ in range(n - 1):
        top = row[-1]
        row = [-(top * a[0])] + [row[k - 1] - top * a[k] for k in range(1, n)]
        rows.append(row)
    return rows


def _disc_sign(coeffs) -> int:
    """disc(f) = (-1)^(n(n-1)/2) res(f, f') for monic f of degree n."""
    n = len(coeffs) - 1
    return -1 if (n * (n - 1) // 2) % 2 else 1


def discriminant(genus: int, values: Sequence) -> Fraction:
    """The discriminant of the monic curve polynomial at a parameter point,
    ``values`` as for ``curve_poly``."""
    coeffs = curve_poly(genus, values)
    return _disc_sign(coeffs) * det_exact(_derivative_rows(coeffs))


def symbolic_discriminant(ctx: GenusContext) -> polyring.Poly:
    """The discriminant as a polynomial in the parameter symbols."""
    Poly = polyring.Poly
    coeffs = [Poly.one(), Poly.zero()] + [Poly.symbol(polyring.la(s)) for s in ctx.lambda_indices]
    return _disc_sign(coeffs) * det_generic(_derivative_rows(coeffs))
