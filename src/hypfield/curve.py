"""Curve-side computations: the defining polynomial, its discriminant, and
membership in the discriminant hypersurface."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .exactmath import sylvester_resultant
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


def _derivative(coeffs):
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])]


def _discriminant(coeffs):
    """disc(f) = (-1)^(n(n-1)/2) res(f, f') for monic f of degree n, given by
    descending coefficients over Q or over the polynomial ring."""
    n = len(coeffs) - 1
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * sylvester_resultant(coeffs, _derivative(coeffs))


def discriminant(lv: LambdaVector) -> Fraction:
    """The discriminant of the monic curve polynomial at a parameter point."""
    return _discriminant(curve_poly(lv))


def in_sigma(lv: LambdaVector) -> bool:
    """True iff the curve polynomial has a multiple root."""
    return discriminant(lv) == 0


def symbolic_discriminant(ctx: GenusContext) -> Poly:
    """The discriminant as a polynomial in the parameter symbols."""
    symbols = [Poly.symbol(la(s)) for s in ctx.lambda_indices]
    return _discriminant([Poly.one(), Poly.zero()] + symbols)
