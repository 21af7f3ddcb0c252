"""Genus-1 numerical ground truth: classical Weierstrass functions.

The lattice is the input and the curve parameters are derived from it:
lambda4 = -g2/4, lambda6 = -g3/4, which is forced by matching the quadratic
relation at (1, 1) against the classical cubic for the derivative.

Arguments are first reduced to the Voronoi cell around the origin of a
Gauss-reduced basis (the functions are periodic, so this is exact).  With
tau = reduced2/reduced1, q = e^(2 pi i tau) and u = e^(2 pi i z/reduced1),
every row {n reduced2 + m reduced1 : m in Z} of the lattice sums in closed
form, and the Fourier expansion (Silverman, GTM 151, I.6; DLMF 23.8(i))

    wp(z) = (2 pi i/reduced1)^2 [sum over n in Z of f0(q^n u) + E2(tau)/12]

follows, with E2 = 1 - 24 sum n q^n/(1-q^n) and f0(x) = x/(1-x)^2.  Each
derivative z -> d/dz is 2 pi i/reduced1 times x d/dx on the terms, which
takes f0 to f1(x) = x(1+x)/(1-x)^3 and f1 to f2(x) = x(1+4x+x^2)/(1-x)^4.
The terms with n < 0 are read at x = q^|n|/u: f0 and f2 are unchanged by
x -> 1/x and f1 changes sign.  A reduced tau has |q| <= e^(-pi sqrt 3),
about 0.0043, so _TERMS rows on either side of the origin leave a tail far
below double precision, and no power of a raw period can overflow before
the final scaling by (2 pi i/reduced1)^(k+2).  The invariants g2 and g3
come from the Fourier series of the normalized Eisenstein sums E4 and E6
on the same q.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from typing import Optional


class DegenerateLattice(ValueError):
    """Periods are linearly dependent over R."""


class NearPole(ValueError):
    """Evaluation point too close to a lattice point."""


# independence rows (lattices * samples) and numeric samples: one _wp_all each
MAX_SAMPLE_ROWS = 10_000


_TERMS = 10  # q-series rows on either side of the origin; tail O(|q|^(_TERMS + 1/3))
_EISENSTEIN_CUTOFF = 40  # Fourier terms in the invariants g2, g3
_POLE_FLOOR = 0.05  # closest approach to a lattice point, in shortest periods


def gauss_reduce(omega1: complex, omega2: complex):
    """Shortest (Gauss-reduced) basis of the same lattice, |v1| <= |v2|,
    oriented so Im(v2/v1) > 0."""
    v1, v2 = complex(omega1), complex(omega2)
    if v1 == 0 or v2 == 0:
        raise DegenerateLattice("zero period")
    ratio = v2 / v1
    if abs(ratio.imag) < 1e-12 * max(1.0, abs(ratio.real)):
        raise DegenerateLattice("period ratio is real")
    while True:
        if abs(v1) > abs(v2):
            v1, v2 = v2, v1
        mu = round((v2 * v1.conjugate()).real / abs(v1) ** 2)
        if mu == 0:
            break
        v2 = v2 - mu * v1
    if (v2 / v1).imag < 0:
        v2 = -v2
    return v1, v2


def _q_series(v1: complex, v2: complex, cutoff: int):
    """(q, ..., q^_TERMS), E2, g2 and g3 of a reduced basis, the Eisenstein
    series summed through q^cutoff."""
    q = cmath.exp(2j * math.pi * (v2 / v1))
    powers = []
    e2 = e4 = e6 = 1.0 + 0j
    qn = 1.0 + 0j
    for n in range(1, cutoff + 1):
        qn *= q
        powers.append(qn)
        lam = qn / (1.0 - qn)
        e2 -= 24.0 * n * lam
        e4 += 240.0 * n ** 3 * lam
        e6 -= 504.0 * n ** 5 * lam
    g2 = (4.0 * math.pi ** 4 / 3.0) * e4 / v1 ** 4
    g3 = (8.0 * math.pi ** 6 / 27.0) * e6 / v1 ** 6
    return tuple(powers[:_TERMS]), e2, g2, g3


def eisenstein(omega1: complex, omega2: complex, cutoff: int = _EISENSTEIN_CUTOFF):
    """Invariants (g2, g3) of the lattice spanned by the two periods.

    ``cutoff`` counts series terms; 20 is already far below 1e-12 tails for
    any reduced period ratio.
    """
    if cutoff < 20:
        raise ValueError("cutoff must be at least 20")
    return _q_series(*gauss_reduce(omega1, omega2), cutoff)[2:]


@dataclass(frozen=True)
class LatticeContext:
    """Immutable genus-1 numeric context for one period lattice."""

    omega1: complex
    omega2: complex

    # derived, filled in __post_init__
    reduced1: complex = field(init=False)
    reduced2: complex = field(init=False)
    g2: complex = field(init=False)
    g3: complex = field(init=False)
    lambda4: complex = field(init=False)
    lambda6: complex = field(init=False)

    def __post_init__(self):
        try:
            v1, v2 = gauss_reduce(self.omega1, self.omega2)
            powers, e2, g2, g3 = _q_series(v1, v2, _EISENSTEIN_CUTOFF)
            disc = g2 ** 3 - 27.0 * g3 ** 2
            vanishing = abs(disc) < 1e-10 * max(abs(g2) ** 3, abs(g3) ** 2, 1e-300)
        except ArithmeticError as exc:  # periods too large or small for floats
            raise DegenerateLattice(
                f"periods out of floating-point range: {exc}"
            ) from exc
        if vanishing:
            raise DegenerateLattice("vanishing discriminant")
        object.__setattr__(self, "reduced1", v1)
        object.__setattr__(self, "reduced2", v2)
        object.__setattr__(self, "g2", g2)
        object.__setattr__(self, "g3", g3)
        object.__setattr__(self, "lambda4", -g2 / 4.0)
        object.__setattr__(self, "lambda6", -g3 / 4.0)
        object.__setattr__(self, "_powers", powers)
        object.__setattr__(self, "_e2", e2)

    # lattice geometry -----------------------------------------------------

    def _points(self) -> tuple:
        """The powers q, ..., q^_TERMS of the nome; q^n stands for the two
        rows +-n reduced2 + Z reduced1, each summed in closed form."""
        return self._powers

    def reduce(self, z: complex) -> complex:
        """Translate z by a lattice vector into the cell around the origin."""
        v1, v2 = self.reduced1, self.reduced2
        # coordinates of z in the (v1, v2) basis
        x = (z.real * v2.imag - z.imag * v2.real) / (v1.real * v2.imag - v1.imag * v2.real)
        y = (v1.real * z.imag - v1.imag * z.real) / (v1.real * v2.imag - v1.imag * v2.real)
        best = None
        for dm in (-1, 0, 1):
            for dn in (-1, 0, 1):
                cand = z - (round(x) + dm) * v1 - (round(y) + dn) * v2
                if best is None or abs(cand) < abs(best):
                    best = cand
        return best

    def lattice_distance(self, z: complex) -> float:
        return abs(self.reduce(z))


def _row_terms(x: complex):
    """(f0, f1, f2)(x) = x/(1-x)^2, x(1+x)/(1-x)^3, x(1+4x+x^2)/(1-x)^4."""
    d = 1.0 / (1.0 - x)
    f0 = x * d * d
    return f0, f0 * (1.0 + x) * d, f0 * (1.0 + x * (4.0 + x)) * d * d


def _wp_all(ctx: LatticeContext, z: complex):
    """(wp, wp', wp'') from the q-series."""
    z0 = ctx.reduce(complex(z))
    if abs(z0) < _POLE_FLOOR * abs(ctx.reduced1):
        raise NearPole(f"z within {_POLE_FLOOR} periods of a lattice point")
    u = cmath.exp(2j * math.pi * (z0 / ctx.reduced1))
    s0, s1, s2 = _row_terms(u)
    s0 += ctx._e2 / 12.0
    for qn in ctx._points():
        a0, a1, a2 = _row_terms(qn * u)
        b0, b1, b2 = _row_terms(qn / u)
        s0 += a0 + b0
        s1 += a1 - b1
        s2 += a2 + b2
    c = 2j * math.pi / ctx.reduced1
    c2 = c * c
    return c2 * s0, c2 * c * s1, c2 * c2 * s2


def wp(ctx: LatticeContext, z: complex) -> complex:
    return _wp_all(ctx, z)[0]


def wp_prime(ctx: LatticeContext, z: complex) -> complex:
    return _wp_all(ctx, z)[1]


def wp_second(ctx: LatticeContext, z: complex) -> complex:
    return _wp_all(ctx, z)[2]


@dataclass(frozen=True)
class ResidualReport:
    """Scaled residuals of the two relation families and the two derived
    parameter formulas, evaluated on (wp, wp', wp'')."""

    quartic: float      # wp'' - 6 wp^2 - 2 lambda4
    cubic: float        # wp'^2 - 4 wp^3 - 4 lambda4 wp - 4 lambda6
    lambda4_formula: float
    lambda6_formula: float
    raw: tuple

    @property
    def max_scaled(self) -> float:
        return max(self.quartic, self.cubic, self.lambda4_formula, self.lambda6_formula)


def identity_residuals(
    ctx: LatticeContext,
    z: complex,
    lambda4: Optional[complex] = None,
    lambda6: Optional[complex] = None,
) -> ResidualReport:
    """Validate the genus-1 identities at one sample point.

    lambda4/lambda6 overrides exist for adversarial tests only.
    """
    l4 = ctx.lambda4 if lambda4 is None else lambda4
    l6 = ctx.lambda6 if lambda6 is None else lambda6
    p, p1, p2 = _wp_all(ctx, z)
    # the lattice's own size in weights 4 and 6 floors each scale: on the
    # square lattice wp, wp' and lambda6 all vanish at (1+i)/2, and the
    # terms alone would scale the rounding error up to order one
    unit = max(abs(ctx.lambda4) ** 0.25, abs(ctx.lambda6) ** (1.0 / 6.0))
    unit4, unit6 = unit ** 4, unit ** 6

    r1 = p2 - 6.0 * p ** 2 - 2.0 * l4
    s1 = max(abs(p2), abs(6.0 * p ** 2), abs(2.0 * l4), unit4)
    r2 = p1 ** 2 - 4.0 * p ** 3 - 4.0 * l4 * p - 4.0 * l6
    s2 = max(abs(p1 ** 2), abs(4.0 * p ** 3), abs(4.0 * l4 * p), abs(4.0 * l6), unit6)
    r3 = l4 - (0.5 * p2 - 3.0 * p ** 2)
    s3 = max(abs(l4), abs(0.5 * p2), abs(3.0 * p ** 2), unit4)
    r4 = l6 - (0.25 * p1 ** 2 - 0.5 * p * p2 + 2.0 * p ** 3)
    s4 = max(abs(l6), abs(0.25 * p1 ** 2), abs(0.5 * p * p2), abs(2.0 * p ** 3), unit6)
    return ResidualReport(
        quartic=abs(r1) / s1,
        cubic=abs(r2) / s2,
        lambda4_formula=abs(r3) / s3,
        lambda6_formula=abs(r4) / s4,
        raw=(r1, r2, r3, r4),
    )


# ---------------------------------------------------------------------------
# sampling

def random_lattice(rng: random.Random) -> LatticeContext:
    """A well-conditioned random lattice.

    The overall scale varies as well: rescaling the lattice rescales the
    derived parameters by different powers, which spreads the sampled
    parameter values and keeps the multi-lattice rank experiment away from
    near-common relations.
    """
    x = rng.uniform(-0.45, 0.45)
    y = rng.uniform(0.9, 1.8)
    t = rng.uniform(0.6, 1.6)
    return LatticeContext(t, t * complex(x, y))


def random_sample_point(
    ctx: LatticeContext, rng: random.Random, margin: float = 0.2
) -> complex:
    """A point of the fundamental cell at distance >= margin periods from
    the lattice; ValueError when no such point exists."""
    v1, v2 = ctx.reduced1, ctx.reduced2
    floor = margin * abs(v1)
    # covering radius: circumradius of the non-obtuse triangle 0, v1, s*v2,
    # s the sign of Re(v2 conj(v1)); no point lies farther from the lattice
    s = 1 if (v2 * v1.conjugate()).real >= 0 else -1
    area = abs((v1.conjugate() * v2).imag)
    covering = abs(v1) * abs(v2) * abs(v2 - s * v1) / (2 * area)
    if floor >= covering:
        raise ValueError(f"margin {margin} is beyond the lattice's covering radius")
    while True:
        z = rng.uniform(0.0, 1.0) * v1 + rng.uniform(0.0, 1.0) * v2
        if ctx.lattice_distance(z) >= floor:
            return z
