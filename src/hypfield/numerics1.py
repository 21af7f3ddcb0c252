"""Genus-1 numerical ground truth: classical Weierstrass functions.

The lattice is the input and the curve parameters are derived from it:
lambda4 = -g2/4, lambda6 = -g3/4, which is forced by matching the quadratic
relation at (1, 1) against the classical cubic for the derivative.

Evaluation strategy
-------------------
Arguments are first reduced to the Voronoi cell around the origin of a
Gauss-reduced basis (the functions are periodic, so this is exact).  The
classical lattice sums are then evaluated with the Taylor part of each
summand subtracted through a fixed order M and added back via the even
Eisenstein sums, which turns the slowly decaying truncation tail into one
of order (|z|/R)^(M+1): far below 1e-12 at 40 shells.  Both parts are
polynomials built once: the Taylor part T(u) = sum_{k<=M} (k+1) u^k of
1/(1-u)^2, with u = z/w, and the add-back A(z) = sum over even k of
(k+1) S_{k+2} z^k.  wp subtracts T(u)/w^2 and adds A(z); wp' and wp'' take
T', T'' and A', A'' from np.polyder of the same two coefficient arrays.  The
invariants g2 and g3 themselves come from the rapidly convergent
one-dimensional Fourier series for the normalized Eisenstein sums; a
truncated two-dimensional lattice sum decays only like 1/shells^2 and could
never reach the accuracy targets this module promises.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class DegenerateLattice(ValueError):
    """Periods are linearly dependent over R."""


class NearPole(ValueError):
    """Evaluation point too close to a lattice point."""


class InsufficientSamples(ValueError):
    """Fewer sample rows than monomial columns."""


_TAYLOR_ORDER = 10  # subtraction order M; tail is O((|z|/R)^(M+1))
_SHELLS = 40  # summation radius R, in shortest periods
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


def eisenstein(omega1: complex, omega2: complex, cutoff: int = _EISENSTEIN_CUTOFF):
    """Invariants (g2, g3) of the lattice spanned by the two periods.

    ``cutoff`` counts series terms; 20 is already far below 1e-12 tails for
    any reduced period ratio.
    """
    if cutoff < 20:
        raise ValueError("cutoff must be at least 20")
    v1, v2 = gauss_reduce(omega1, omega2)
    tau = v2 / v1
    q = cmath.exp(2j * math.pi * tau)
    e4 = 1.0 + 0j
    e6 = 1.0 + 0j
    qn = 1.0 + 0j
    for n in range(1, cutoff + 1):
        qn *= q
        lam = qn / (1.0 - qn)
        e4 += 240.0 * n ** 3 * lam
        e6 -= 504.0 * n ** 5 * lam
    g2 = (4.0 * math.pi ** 4 / 3.0) * e4 / v1 ** 4
    g3 = (8.0 * math.pi ** 6 / 27.0) * e6 / v1 ** 6
    return g2, g3


# T(u) = sum_{k<=M} (k+1) u^k, highest degree first as np.polyval wants it
_TAYLOR = np.arange(_TAYLOR_ORDER + 1, 0, -1, dtype=float)


def _addback(g2: complex, g3: complex) -> np.ndarray:
    """Coefficients, highest degree first, of A(z) = sum over even k <= M of
    (k+1) S_{k+2} z^k, S_{2n} the lattice sum of w^(-2n).

    (2n-1) S_{2n} is the Laurent coefficient c_n of wp, so A is wp - 1/z^2
    through order M, with c_n from the classical recursion.
    """
    c = {2: g2 / 20.0, 3: g3 / 28.0}
    for n in range(4, _TAYLOR_ORDER // 2 + 2):
        c[n] = 3.0 * sum(c[m] * c[n - m] for m in range(2, n - 1)) / ((2 * n + 1) * (n - 3))
    return np.array(
        [0 if k % 2 else c.get(k // 2 + 1, 0) for k in range(_TAYLOR_ORDER, -1, -1)],
        dtype=complex,
    )


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
            g2, g3 = eisenstein(v1, v2)
            disc = g2 ** 3 - 27.0 * g3 ** 2
            scale = max(abs(g2) ** 3, abs(g3) ** 2, 1e-300)
        except ArithmeticError as exc:  # periods too large or small for floats
            raise DegenerateLattice(
                f"periods out of floating-point range: {exc}"
            ) from exc
        if abs(disc) < 1e-10 * scale:
            raise DegenerateLattice("vanishing discriminant")
        object.__setattr__(self, "reduced1", v1)
        object.__setattr__(self, "reduced2", v2)
        object.__setattr__(self, "g2", g2)
        object.__setattr__(self, "g3", g3)
        object.__setattr__(self, "lambda4", -g2 / 4.0)
        object.__setattr__(self, "lambda6", -g3 / 4.0)
        object.__setattr__(self, "_cache", {})

    # lattice geometry -----------------------------------------------------

    def _points(self) -> np.ndarray:
        """Nonzero lattice points within the summation radius."""
        cache = self.__dict__["_cache"]
        if "points" not in cache:
            v1, v2 = self.reduced1, self.reduced2
            radius = _SHELLS * abs(v1)
            area = abs((v1.conjugate() * v2).imag)
            bm = int(radius * abs(v2) / area) + 2
            bn = int(radius * abs(v1) / area) + 2
            m, n = np.meshgrid(
                np.arange(-bm, bm + 1), np.arange(-bn, bn + 1), indexing="ij"
            )
            pts = m * v1 + n * v2
            mask = (np.abs(pts) <= radius) & ((m != 0) | (n != 0))
            cache["points"] = pts[mask]
            cache["addback"] = _addback(self.g2, self.g3)
        return cache["points"]

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


def _wp_all(ctx: LatticeContext, z: complex):
    """(wp, wp', wp'') by the subtracted classical sums."""
    z0 = ctx.reduce(complex(z))
    if abs(z0) < _POLE_FLOOR * abs(ctx.reduced1):
        raise NearPole(f"z within {_POLE_FLOOR} periods of a lattice point")
    w = ctx._points()
    taylor, addback = _TAYLOR, ctx.__dict__["_cache"]["addback"]
    inv_d = 1.0 / (z0 - w)
    inv_w = 1.0 / w
    u = z0 * inv_w
    # n-th z-derivative of 1/(z-w)^2 is pole/(z-w)^(n+2), of T(z/w)/w^2 it
    # is T^(n)(u)/w^(n+2)
    pole, d_pow, w_pow = 1.0, inv_d * inv_d, inv_w * inv_w
    values = []
    for n in range(3):
        total = pole / z0 ** (n + 2) + np.sum(pole * d_pow - np.polyval(taylor, u) * w_pow)
        values.append(complex(total + np.polyval(addback, z0)))
        pole *= -(n + 2)
        d_pow, w_pow = d_pow * inv_d, w_pow * inv_w
        taylor, addback = np.polyder(taylor), np.polyder(addback)
    return tuple(values)


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

    r1 = p2 - 6.0 * p ** 2 - 2.0 * l4
    s1 = max(abs(p2), abs(6.0 * p ** 2), abs(2.0 * l4))
    r2 = p1 ** 2 - 4.0 * p ** 3 - 4.0 * l4 * p - 4.0 * l6
    s2 = max(abs(p1 ** 2), abs(4.0 * p ** 3), abs(4.0 * l4 * p), abs(4.0 * l6))
    r3 = l4 - (0.5 * p2 - 3.0 * p ** 2)
    s3 = max(abs(l4), abs(0.5 * p2), abs(3.0 * p ** 2))
    r4 = l6 - (0.25 * p1 ** 2 - 0.5 * p * p2 + 2.0 * p ** 3)
    s4 = max(abs(l6), abs(0.25 * p1 ** 2), abs(0.5 * p * p2), abs(2.0 * p ** 3))
    return ResidualReport(
        quartic=abs(r1) / s1,
        cubic=abs(r2) / s2,
        lambda4_formula=abs(r3) / s3,
        lambda6_formula=abs(r4) / s4,
        raw=(r1, r2, r3, r4),
    )


# ---------------------------------------------------------------------------
# sampling and the rank experiment

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


def _exponents(weights: tuple, bound: int):
    """Yield every exponent tuple with weighted degree <= bound, constant
    included; each range stops at the remaining budget, so nothing is
    generated and then filtered out."""
    if not weights:
        yield ()
        return
    w = weights[0]
    for e in range(bound // w + 1):
        for rest in _exponents(weights[1:], bound - w * e):
            yield (e,) + rest


def _monomials(weights: tuple, bound: int) -> list:
    """Exponent tuples with weighted degree <= bound, constant included,
    sorted by weight then exponents."""
    def weight(exps):
        return sum(w * e for w, e in zip(weights, exps))

    return sorted(_exponents(weights, bound), key=lambda exps: (weight(exps), exps))


@dataclass(frozen=True)
class RankReport:
    mode: str                 # "multi-lattice" or "single-lattice"
    generator_names: tuple
    weight_bound: int
    monomials: tuple          # exponent tuples aligned with columns
    n_rows: int
    n_cols: int
    singular_values: tuple
    threshold: float
    kernel: Optional[tuple]   # single-lattice mode only

    @property
    def sigma_min(self) -> float:
        return self.singular_values[-1]

    @property
    def sigma_max(self) -> float:
        return self.singular_values[0]

    @property
    def ratio(self) -> float:
        return self.sigma_min / self.sigma_max

    @property
    def deficiency(self) -> int:
        smax = self.sigma_max
        return sum(1 for s in self.singular_values if s < self.threshold * smax)

    @property
    def full_rank(self) -> bool:
        return self.deficiency == 0

    def monomial_name(self, exps: tuple) -> str:
        if not any(exps):
            return "1"
        parts = []
        for name, e in zip(self.generator_names, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def lines(self) -> list:
        out = [
            f"mode: {self.mode}",
            f"columns: {self.n_cols} (monomials in {', '.join(self.generator_names)}, weight <= {self.weight_bound})",
            f"rows: {self.n_rows}",
            f"sigma_min/sigma_max: {self.ratio:.3e}",
        ]
        if self.full_rank:
            out.append("verdict: FULL RANK")
        else:
            out.append(f"verdict: DEFICIENCY {self.deficiency}")
        if self.kernel is not None:
            terms = [
                f"{self.monomial_name(m)}: {c.real:+.6f}{c.imag:+.6f}j"
                for m, c in zip(self.monomials, self.kernel)
            ]
            out.append("kernel: " + "; ".join(terms))
        return out


def independence_experiment(
    lattice_count: int,
    samples_per_lattice: int,
    weight_bound: int,
    seed: int,
    threshold: float = 1e-6,
    margin: float = 0.3,
) -> RankReport:
    """Numeric rank of the monomial sample matrix.

    Multi-lattice mode samples across varying parameters and uses monomials
    in all three generators (wp, wp', wp'').  Single-lattice mode is the
    negative control: it uses monomials in (wp, wp') only, where the unique
    low-weight identity at fixed parameters is the classical cubic; the
    second derivative is excluded there because it satisfies its own
    weight-4 identity and would add spurious kernel vectors.
    """
    if lattice_count < 1:
        raise ValueError("need at least one lattice")
    if weight_bound < 2:
        raise ValueError("weight bound must be at least 2")
    rng = random.Random(seed)
    single = lattice_count == 1
    if single:
        names = ("wp", "wp'")
        weights = (2, 3)
    else:
        names = ("wp", "wp'", "wp''")
        weights = (2, 3, 4)
    rows = lattice_count * samples_per_lattice
    # count the columns only up to one past the rows, before any sampling
    if sum(1 for _ in itertools.islice(_exponents(weights, weight_bound), rows + 1)) > rows:
        raise InsufficientSamples(
            f"{rows} rows < columns: more than {rows} monomials of weight <= {weight_bound}"
        )
    monos = _monomials(weights, weight_bound)
    samples = []
    for _ in range(lattice_count):
        ctx = random_lattice(rng)
        for _ in range(samples_per_lattice):
            z = random_sample_point(ctx, rng, margin)
            samples.append(_wp_all(ctx, z)[: len(weights)])
    # a[i, j] = prod over generators g of samples[i][g] ** monos[j][g]
    a = np.prod(np.array(samples)[:, None, :] ** np.array(monos), axis=2)
    # row normalization leaves the column nullspace untouched but removes
    # the pole-driven dynamic range between samples; columns are then
    # scaled to unit norm so the verdict is not a conditioning artifact
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    norms = np.linalg.norm(a, axis=0)
    b = a / norms
    _, svals, vh = np.linalg.svd(b, full_matrices=False)
    kernel = None
    if single:
        vec = np.conj(vh[-1]) / norms
        # normalize on the largest coefficient for a stable report
        pivot = vec[np.argmax(np.abs(vec))]
        kernel = tuple(complex(v / pivot) for v in vec)
    return RankReport(
        mode="single-lattice" if single else "multi-lattice",
        generator_names=names,
        weight_bound=weight_bound,
        monomials=tuple(monos),
        n_rows=a.shape[0],
        n_cols=a.shape[1],
        singular_values=tuple(float(s) for s in svals),
        threshold=threshold,
        kernel=kernel,
    )
