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

The rank experiment samples these functions on random lattices and takes
the numeric rank of the matrix of monomials in them, also in pure Python:
a Householder R of the sample matrix, then one-sided Jacobi rotations on R
for its singular values and, in the single-lattice control, its kernel.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
import sys
from operator import add, mul, sub
from typing import NamedTuple, Optional

from . import MAX_SAMPLE_ROWS, _Record


class DegenerateLattice(ValueError):
    """Periods are linearly dependent over R."""


class NearPole(ValueError):
    """Evaluation point too close to a lattice point."""


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
        # with Re(v2/v1) at +-1/2 to rounding, v2 - mu*v1 is no shorter and
        # the next step would subtract it back: stop once nothing shrinks
        shorter = v2 - mu * v1
        if abs(shorter) >= abs(v2):
            break
        v2 = shorter
    if (v2 / v1).imag < 0:
        v2 = -v2
    return v1, v2


def _q_series(v1: complex, v2: complex):
    """(q, ..., q^_TERMS), E2, g2 and g3 of a reduced basis, the Eisenstein
    series summed through q^_EISENSTEIN_CUTOFF."""
    q = cmath.exp(2j * math.pi * (v2 / v1))
    powers = []
    e2 = e4 = e6 = 1.0 + 0j
    qn = 1.0 + 0j
    for n in range(1, _EISENSTEIN_CUTOFF + 1):
        qn *= q
        powers.append(qn)
        lam = qn / (1.0 - qn)
        e2 -= 24.0 * n * lam
        e4 += 240.0 * n ** 3 * lam
        e6 -= 504.0 * n ** 5 * lam
    g2 = (4.0 * math.pi ** 4 / 3.0) * e4 / v1 ** 4
    g3 = (8.0 * math.pi ** 6 / 27.0) * e6 / v1 ** 6
    return tuple(powers[:_TERMS]), e2, g2, g3


class LatticeContext(_Record):
    """Immutable genus-1 numeric context for one period lattice: the periods
    omega1, omega2, a Gauss-reduced basis reduced1, reduced2, the invariants
    g2, g3 and the curve parameters lambda4, lambda6.  The periods are its
    fields; everything else is derived from them."""

    _fields = ("omega1", "omega2")
    __slots__ = (
        *_fields, "reduced1", "reduced2",
        "g2", "g3", "lambda4", "lambda6", "_powers", "_e2",
    )

    def __init__(self, omega1: complex, omega2: complex):
        try:
            v1, v2 = gauss_reduce(omega1, omega2)
            powers, e2, g2, g3 = _q_series(v1, v2)
            disc = g2 ** 3 - 27.0 * g3 ** 2
            vanishing = abs(disc) < 1e-10 * max(abs(g2) ** 3, abs(g3) ** 2, 1e-300)
        except ArithmeticError as exc:  # periods too large or small for floats
            raise DegenerateLattice(
                f"periods out of floating-point range: {exc}"
            ) from exc
        if vanishing:
            raise DegenerateLattice("vanishing discriminant")
        fields = dict(
            omega1=omega1, omega2=omega2, reduced1=v1, reduced2=v2, g2=g2, g3=g3,
            lambda4=-g2 / 4.0, lambda6=-g3 / 4.0, _powers=powers, _e2=e2,
        )
        for name, value in fields.items():
            object.__setattr__(self, name, value)

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


class ResidualReport(NamedTuple):
    """Scaled residuals of the two relation families and the two derived
    parameter formulas, evaluated on (wp, wp', wp'')."""

    quartic: float      # wp'' - 6 wp^2 - 2 lambda4
    cubic: float        # wp'^2 - 4 wp^3 - 4 lambda4 wp - 4 lambda6
    lambda4_formula: float
    lambda6_formula: float

    @property
    def max_scaled(self) -> float:
        return max(self.quartic, self.cubic, self.lambda4_formula, self.lambda6_formula)


def identity_residuals(ctx: LatticeContext, z: complex) -> ResidualReport:
    """Validate the genus-1 identities at one sample point."""
    l4, l6 = ctx.lambda4, ctx.lambda6
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


# ---------------------------------------------------------------------------
# rank experiment

# sample points keep at least this many periods from every lattice point
_MARGIN = 0.3

# a bound on the Jacobi sweeps, which converge quadratically: seeded
# experiments up to the column cap took at most 14
_MAX_SWEEPS = 40

# the most monomial columns the experiment takes, the 64 of weight <= 16 in
# wp, wp', wp'': its QR takes rows * columns^2 steps, and well above this
# weight its verdict is noise (exit 4 at weight 40)
MAX_COLUMNS = 64


class InsufficientSamples(ValueError):
    """Fewer sample rows than monomial columns."""


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


def _invariants(d: int) -> int:
    """N(d): the monomials R4^i R6^j of weight 4i + 6j <= d."""
    return sum((d - 6 * j) // 4 + 1 for j in range(d // 6 + 1)) if d >= 0 else 0


def forced_kernel(lattices: int, weight_bound: int) -> int:
    """The kernel that ``lattices`` generic lattices force on the monomials
    in wp, wp', wp'' of weight <= ``weight_bound``.

    On each lattice R4 = wp'' - 6 wp^2 and R6 = wp'^2 + 8 wp^3 - 2 wp wp''
    are constants, so the monomials span a free graded Q[R4, R6]-module
    with basis wp^a (weight 2a) and wp' wp^a (weight 2a + 3).  The multiples
    of a basis element b of weight w_b reach N(W - w_b) monomials in R4 and
    R6, and L lattices tell at most L of them apart, so b contributes
    max(0, N(W - w_b) - L) kernel vectors.  None is forced from
    N(W) lattices on."""
    weights = [*range(0, weight_bound + 1, 2), *range(3, weight_bound + 1, 2)]
    return sum(max(0, _invariants(weight_bound - w) - lattices) for w in weights)


class RankReport(NamedTuple):
    mode: str                 # "multi-lattice" or "single-lattice"
    generator_names: tuple
    weight_bound: int
    monomials: tuple          # exponent tuples aligned with columns
    n_rows: int
    n_cols: int
    singular_values: tuple
    threshold: float
    kernel: Optional[tuple]   # single-lattice mode only
    forced: Optional[int] = None  # multi-lattice mode only: forced_kernel's count

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
        if self.forced is not None:
            out.append(
                f"forced kernel: {self.forced}; none from "
                f"{_invariants(self.weight_bound)} lattices"
            )
        if self.kernel is not None:
            # rounded to the printed places first, and + 0.0 turns -0.0 into
            # 0.0, so a part that is rounding noise prints as +0.000000
            def part(x: float) -> str:
                return f"{round(x, 6) + 0.0:+.6f}"

            terms = [
                f"{self.monomial_name(m)}: {part(c.real)}{part(c.imag)}j"
                for m, c in zip(self.monomials, self.kernel)
            ]
            out.append("kernel: " + "; ".join(terms))
        return out


def _dot(x: list, y: list) -> complex:
    """x^H y for complex vectors x and y."""
    return sum(map(mul, map(complex.conjugate, x), y))


def _householder_r(columns: list) -> list:
    """The n x n upper-triangular R of b = QR, for b given as its n columns
    of m >= n complex entries, returned as its columns.  Q is never formed:
    reflection k takes column k below row k to a multiple of its first
    entry and is applied to the rows k.. of the later columns."""
    n = len(columns)
    tails = list(columns)  # the rows k.. of each column j >= k
    r = [[] for _ in columns]
    for k in range(n):
        x = tails[k]
        norm = math.sqrt(_dot(x, x).real)
        if norm:
            # alpha = -(phase of x[0]) |x|, so v = x - alpha e_1 cancels nothing
            # and |v|^2 = 2 |x| (|x| + |x[0]|)
            alpha = -norm * (x[0] / abs(x[0]) if x[0] else 1 + 0j)
            v = [x[0] - alpha, *x[1:]]
            vh = list(map(complex.conjugate, v))
            scale = 1 / (norm * (norm + abs(x[0])))
        else:  # a zero column needs no reflection
            alpha = 0j
        r[k].append(alpha)
        for j in range(k + 1, n):
            y = tails[j]
            if norm:
                f = scale * sum(map(mul, vh, y))
                y = list(map(sub, y, map(f.__mul__, v)))
            r[j].append(y[0])
            tails[j] = y[1:]
    return [col + [0j] * (n - 1 - j) for j, col in enumerate(r)]


def _jacobi_svd(columns: list, vectors: bool):
    """Singular values of the square complex matrix with these columns,
    largest first, and, if ``vectors``, its right singular vectors in the
    same order (else None).

    One-sided Jacobi (Hestenes; Demmel & Veselic, SIAM J. Matrix Anal.
    Appl. 13, 1992): each rotation makes one pair of columns orthogonal,
    and the sweeps over all pairs stop once every pair is orthogonal to
    n eps relative to the two column norms.  The singular values are then
    the column norms, and the rotations multiplied together are the right
    singular vectors.  Each sweep takes the columns by decreasing norm (de
    Rijk, SIAM J. Sci. Stat. Comput. 10, 1989), which saved up to a quarter
    of the sweeps on the experiment's matrices."""
    a = list(columns)
    n = len(a)
    v = [[complex(i == j) for i in range(n)] for j in range(n)]
    tol = n * sys.float_info.epsilon
    norms = [_dot(col, col).real for col in a]
    for _ in range(_MAX_SWEEPS):
        order = sorted(range(n), key=norms.__getitem__, reverse=True)
        a, v, norms = ([x[j] for j in order] for x in (a, v, norms))
        rotated = False
        for p, q in itertools.combinations(range(n), 2):
            gamma = _dot(a[p], a[q])
            g = abs(gamma)
            if g <= tol * math.sqrt(norms[p] * norms[q]):
                continue
            rotated = True
            # the real rotation that diagonalizes [[|a_p|^2, g], [g, |a_q|^2]]
            # (Golub & Van Loan, 8.5.2), applied to (a_p, a_q gamma*/g)
            zeta = (norms[q] - norms[p]) / (2 * g)
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            c = 1 / math.hypot(1.0, t)
            s = c * t
            phase = gamma.conjugate() / g
            cx, sy, sx, cy = complex(c), s * phase, complex(s), c * phase
            for cols in (a, v) if vectors else (a,):
                x, y = cols[p], cols[q]
                cols[p] = list(map(sub, map(cx.__mul__, x), map(sy.__mul__, y)))
                cols[q] = list(map(add, map(sx.__mul__, x), map(cy.__mul__, y)))
            norms[p] = _dot(a[p], a[p]).real
            norms[q] = _dot(a[q], a[q]).real
        if not rotated:  # nothing moved, so the columns are still in order
            break
    return [math.sqrt(x) for x in norms], v if vectors else None


# the single-lattice control: monomials in wp, wp' of weight <= 6, whose one
# kernel vector is the cubic
CONTROL_WEIGHT_BOUND = 6


def check_control_samples(samples: int) -> None:
    """Refuse, before any sampling, fewer samples than the single-lattice
    control has columns."""
    need = len(_monomials((2, 3), CONTROL_WEIGHT_BOUND))
    if samples < need:
        raise InsufficientSamples(
            f"the single-lattice control needs {need} samples, one per monomial in "
            f"wp, wp' of weight <= {CONTROL_WEIGHT_BOUND}; got {samples}"
        )


def independence_experiment(
    lattice_count: int,
    samples_per_lattice: int,
    weight_bound: int,
    seed: int,
    threshold: float = 1e-6,
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
    if rows > MAX_SAMPLE_ROWS:
        raise ValueError(
            f"{lattice_count} lattices * {samples_per_lattice} samples = {rows} rows "
            f"is above the cap of {MAX_SAMPLE_ROWS}"
        )
    # count the columns only up to one past the rows, before any sampling
    columns = sum(1 for _ in itertools.islice(_exponents(weights, weight_bound), rows + 1))
    if columns > rows:
        raise InsufficientSamples(
            f"{rows} rows < columns: more than {rows} monomials of weight <= {weight_bound}"
        )
    if columns > MAX_COLUMNS:
        raise ValueError(
            f"{columns} monomials of weight <= {weight_bound} is above the cap of "
            f"{MAX_COLUMNS} columns"
        )
    monos = _monomials(weights, weight_bound)
    exponents = list(zip(*monos))  # exponents[g][j]: generator g's in monomial j
    a = []
    for _ in range(lattice_count):
        ctx = random_lattice(rng)
        for _ in range(samples_per_lattice):
            z = random_sample_point(ctx, rng, _MARGIN)
            # row[j] = prod over generators g of (value of g) ** monos[j][g]
            row = [1 + 0j] * len(monos)
            for x, w, exps in zip(_wp_all(ctx, z), weights, exponents):
                powers = [x ** e for e in range(weight_bound // w + 1)]
                row = list(map(mul, row, map(powers.__getitem__, exps)))
            # row normalization leaves the column nullspace untouched but
            # removes the pole-driven dynamic range between samples
            norm = math.sqrt(_dot(row, row).real)
            a.append([x / norm for x in row])
    # columns are then scaled to unit norm so the verdict is not a
    # conditioning artifact
    cols = list(zip(*a))
    norms = [math.sqrt(_dot(col, col).real) for col in cols]
    b = [[x / n for x in col] for col, n in zip(cols, norms)]
    # b = QR with Q's columns orthonormal, so the small square R has b's
    # singular values and right singular vectors (Chan, ACM TOMS 8, 1982)
    svals, vectors = _jacobi_svd(_householder_r(b), vectors=single)
    kernel = None
    if single:
        vec = [v / n for v, n in zip(vectors[-1], norms)]
        # normalize on the largest coefficient for a stable report
        pivot = max(vec, key=abs)
        kernel = tuple(v / pivot for v in vec)
    return RankReport(
        mode="single-lattice" if single else "multi-lattice",
        generator_names=names,
        weight_bound=weight_bound,
        monomials=tuple(monos),
        n_rows=len(a),
        n_cols=len(monos),
        singular_values=tuple(svals),
        threshold=threshold,
        kernel=kernel,
        forced=None if single else forced_kernel(lattice_count, weight_bound),
    )
