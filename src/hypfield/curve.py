"""Curve-side computations: the defining polynomial, its discriminant, and
membership in the discriminant hypersurface.

The discriminant of the monic curve polynomial f of degree n = 2g+1 is, up
to sign, the determinant of the n x n matrix of multiplication by f' on
R[x]/(f), with R = Q or the ring of parameter polynomials (H. Cohen, *A
Course in Computational Algebraic Number Theory*, GTM 138, section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .exactmath import det_exact, det_generic
from .polyring import Poly, la
from .relations import GenusContext


@dataclass(frozen=True)
class LambdaVector:
    genus: int
    values: Mapping[int, Fraction]  # s -> value, s in {4, 6, ..., 4g+2}

    def __post_init__(self):
        expected = set(GenusContext(self.genus).lambda_indices)
        if set(self.values) != expected:
            raise ValueError(
                f"parameter indices {sorted(self.values)} != {sorted(expected)}"
            )

    @classmethod
    def from_sequence(cls, genus: int, seq) -> "LambdaVector":
        indices = GenusContext(genus).lambda_indices
        seq = list(seq)
        if len(seq) != len(indices):
            raise ValueError(f"expected {len(indices)} parameters, got {len(seq)}")
        return cls(genus, {s: Fraction(v) for s, v in zip(indices, seq)})


def curve_poly(lv: LambdaVector):
    """Monic degree-(2g+1) coefficient sequence, leading term first.

    The coefficient of x^(2g+1-m) is la_{2m} for m >= 2 and zero at x^(2g).
    """
    indices = GenusContext(lv.genus).lambda_indices
    return [Fraction(1), Fraction(0)] + [Fraction(lv.values[s]) for s in indices]


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


def discriminant(lv: LambdaVector) -> Fraction:
    """The discriminant of the monic curve polynomial at a parameter point."""
    coeffs = curve_poly(lv)
    return _disc_sign(coeffs) * det_exact(_derivative_rows(coeffs))


def in_sigma(lv: LambdaVector) -> bool:
    """True iff the curve polynomial has a multiple root."""
    return discriminant(lv) == 0


def symbolic_discriminant(ctx: GenusContext) -> Poly:
    """The discriminant as a polynomial in the parameter symbols."""
    coeffs = [Poly.one(), Poly.zero()] + [Poly.symbol(la(s)) for s in ctx.lambda_indices]
    return _disc_sign(coeffs) * det_generic(_derivative_rows(coeffs))
