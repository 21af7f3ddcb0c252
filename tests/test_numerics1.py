"""Genus-1 numerics in ``weierstrass``: lattice reduction, invariants,
function values, identity residuals and the monomial rank experiment, whose
pure-Python SVD is checked against numpy's; and the compatibility module
``numerics1``.

Oracles: basis-change invariance and scaling laws for the invariants,
symmetry zeros on the square and hexagonal lattices, parity/periodicity of
the functions themselves, the classical cubic as the expected kernel of
the single-lattice experiment, an mpmath theta-function evaluation of wp,
wp', wp'', g2 and g3, and a per-point subtracted lattice sum kept in this
file; neither shares anything with the q-series that ``weierstrass`` sums.
"""

import cmath
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypfield import weierstrass
from hypfield.weierstrass import (
    DegenerateLattice,
    InsufficientSamples,
    LatticeContext,
    NearPole,
    RankReport,
    _householder_r,
    _invariants,
    _jacobi_svd,
    _monomials,
    _wp_all,
    forced_kernel,
    gauss_reduce,
    identity_residuals,
    independence_experiment,
    random_lattice,
    random_sample_point,
)


def unimodular_pairs(v1, v2):
    yield v1 + v2, v2
    yield v1, v2 + 2 * v1
    yield v2, -v1
    yield -v1 - v2, -v2


# --- lattice reduction ------------------------------------------------------

def test_gauss_reduce_properties():
    rng = random.Random(8)
    for _ in range(20):
        v1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        v2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        area = abs((v1.conjugate() * v2).imag)
        if area < 0.1:
            continue
        r1, r2 = gauss_reduce(v1, v2)
        assert abs(r1) <= abs(r2) + 1e-12
        assert (r2 / r1).imag > 0
        # same lattice: area preserved and reduced vectors lie in it
        assert abs(abs((r1.conjugate() * r2).imag) - area) < 1e-9 * area


@pytest.mark.parametrize("s, tau", [
    (complex(-0.21200409110857063, 1.0456176882676984), complex(-0.5, 0.8660254037844386)),
    (complex(-2.8633382295914043, 0.9191674801845738), complex(0.5, 4.077532632894562)),
    (complex(1.2213086062592955, 1.3824565359758707), complex(0.5, 0.8660254037844386)),
])
def test_gauss_reduce_terminates_on_the_boundary(s, tau):
    # Re(tau) = +-1/2: rounding made mu flip between +1 and -1 forever
    r1, r2 = gauss_reduce(s, s * tau)
    assert abs(r1) <= abs(r2) * (1 + 1e-12)
    assert abs(abs(r1) - abs(s)) < 1e-12 * abs(s)
    ratio = r2 / r1
    assert ratio.imag > 0 and abs(ratio.real) <= 0.5 + 1e-12


def test_gauss_reduce_degenerate():
    with pytest.raises(DegenerateLattice):
        gauss_reduce(1.0, 2.0)
    with pytest.raises(DegenerateLattice):
        gauss_reduce(0.0, 1j)


# --- invariants -------------------------------------------------------------

def test_eisenstein_basis_invariance():
    v1, v2 = 1.0, complex(0.3, 1.1)
    ctx = LatticeContext(v1, v2)
    for w1, w2 in unimodular_pairs(v1, v2):
        other = LatticeContext(w1, w2)
        assert abs(other.g2 - ctx.g2) < 1e-10 * abs(ctx.g2)
        assert abs(other.g3 - ctx.g3) < 1e-10 * abs(ctx.g3)


def test_eisenstein_scaling_law():
    v1, v2 = 1.0, complex(0.2, 1.3)
    ctx = LatticeContext(v1, v2)
    t = 1.7
    scaled = LatticeContext(t * v1, t * v2)
    assert abs(scaled.g2 - ctx.g2 / t ** 4) < 1e-10 * abs(ctx.g2)
    assert abs(scaled.g3 - ctx.g3 / t ** 6) < 1e-10 * abs(ctx.g3)


def test_eisenstein_symmetry_zeros():
    square = LatticeContext(1.0, 1j)
    assert abs(square.g3) < 1e-12 * abs(square.g2)  # square lattice: g3 = 0
    hexagonal = LatticeContext(1.0, cmath.exp(1j * math.pi / 3))
    assert abs(hexagonal.g2) < 1e-12 * abs(hexagonal.g3)  # hexagonal lattice: g2 = 0


def test_context_rejects_degenerate_invariants():
    # hexagonal-with-g2=0 is fine; a real-ratio lattice is not
    with pytest.raises(DegenerateLattice):
        LatticeContext(1.0, 2.0)


@pytest.mark.parametrize("scale", [1e300, 1e-30, 1e-300])
def test_context_rejects_periods_out_of_float_range(scale):
    # the reduction overflows at 1e300, the discriminant g2**3 overflows at
    # 1e-30 and the reduction divides by an underflowed zero at 1e-300; all
    # are unusable lattices, not arithmetic crashes
    with pytest.raises(DegenerateLattice):
        LatticeContext(scale, scale * 1j)


def test_context_parameters():
    ctx = LatticeContext(1.0, complex(0.2, 1.1))
    assert ctx.lambda4 == -ctx.g2 / 4.0
    assert ctx.lambda6 == -ctx.g3 / 4.0


# --- function values --------------------------------------------------------

CTX = LatticeContext(1.0, complex(0.25, 1.15))


def test_wp_even_and_wp_prime_odd():
    z = complex(0.31, 0.27)
    (p, p1, p2), (m, m1, m2) = _wp_all(CTX, z), _wp_all(CTX, -z)
    assert abs(p - m) < 1e-12 * abs(p)
    assert abs(p1 + m1) < 1e-12 * abs(p1)
    assert abs(p2 - m2) < 1e-12 * abs(p2)


def test_wp_periodicity():
    z = complex(0.4, 0.2)
    base = _wp_all(CTX, z)[0]
    for shift in (CTX.omega1, CTX.omega2, 3 * CTX.omega1 - 2 * CTX.omega2):
        assert abs(_wp_all(CTX, z + shift)[0] - base) < 1e-10 * abs(base)


def test_wp_laurent_leading_behavior():
    # z^2 wp(z) -> 1 as z -> 0 (but stay above the pole floor)
    z = 0.08 + 0.06j
    val = z ** 2 * _wp_all(CTX, z)[0]
    assert abs(val - 1.0) < 0.05


def theta_oracle(omega1, omega2):
    """wp as a function of z, and (e1, e2, e3), from Jacobi theta functions
    with 2*w1 = omega1 and nome q = exp(i pi omega2/omega1) (DLMF 23.6(i))."""
    w1 = mpmath.mpc(omega1) / 2
    q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(omega2) / mpmath.mpc(omega1))
    t2, t3, t4 = (mpmath.jtheta(n, 0, q) for n in (2, 3, 4))
    c = mpmath.pi ** 2 / (12 * w1 ** 2)
    roots = (c * (t2 ** 4 + 2 * t4 ** 4), c * (t2 ** 4 - t4 ** 4), -c * (2 * t2 ** 4 + t4 ** 4))

    def wp_theta(z):
        xi = mpmath.pi * z / (2 * w1)
        ratio = mpmath.jtheta(2, xi, q) / mpmath.jtheta(1, xi, q)
        return roots[0] + (mpmath.pi * t3 * t4 * ratio / (2 * w1)) ** 2

    return wp_theta, roots


def test_values_match_theta_function_oracle():
    rng = random.Random(23)
    with mpmath.workdps(30):
        for _ in range(3):
            ctx = random_lattice(rng)  # Im(omega2/omega1) >= 0.9, so |q| < 0.06
            wp_theta, (e1, e2, e3) = theta_oracle(ctx.omega1, ctx.omega2)
            g2 = complex(2 * (e1 ** 2 + e2 ** 2 + e3 ** 2))
            g3 = complex(4 * e1 * e2 * e3)
            assert abs(ctx.g2 - g2) < 1e-11 * abs(g2)
            assert abs(ctx.g3 - g3) < 1e-11 * abs(g3)
            for _ in range(3):
                z = random_sample_point(ctx, rng)
                got = _wp_all(ctx, z)
                for n, value in enumerate(got):
                    want = complex(mpmath.diff(wp_theta, mpmath.mpc(z), n))
                    assert abs(value - want) < 1e-11 * abs(want), (n, z)


def test_values_on_tall_lattices_match_theta_function_oracle():
    # Im(tau) in [2.5, 3.5] is accepted by --lattice; there a truncated
    # lattice sum misses the oracle by up to 1e-9 relative on wp' and wp''
    rng = random.Random(29)
    with mpmath.workdps(30):
        for _ in range(4):
            s = 10.0 ** rng.uniform(-3, 3) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            ctx = LatticeContext(s, s * complex(rng.uniform(-0.5, 0.5), rng.uniform(2.5, 3.5)))
            wp_theta, _ = theta_oracle(ctx.omega1, ctx.omega2)
            for _ in range(3):
                z = random_sample_point(ctx, rng)
                for n, value in enumerate(_wp_all(ctx, z)):
                    want = complex(mpmath.diff(wp_theta, mpmath.mpc(z), n))
                    assert abs(value - want) < 1e-12 * abs(want), (n, z)


ORACLE_SHELLS = 40  # summation radius, in shortest periods
ORACLE_ORDER = 10  # Taylor order subtracted from each summand


def laurent_coefficients(g2, g3):
    """c[n] with wp(z) = 1/z^2 + sum over n >= 2 of c[n] z^(2n-2), by the
    classical recursion (DLMF 23.9.7)."""
    c = {2: g2 / 20.0, 3: g3 / 28.0}
    for n in range(4, ORACLE_ORDER // 2 + 2):
        c[n] = 3.0 * sum(c[m] * c[n - m] for m in range(2, n - 1)) / ((2 * n + 1) * (n - 3))
    return c


def reference_wp_all(ctx, z):
    """(wp, wp', wp'') by per-point subtracted sums over the lattice points
    within ORACLE_SHELLS shortest periods: every summand 1/(z-w)^2 minus its
    Taylor part T(z/w)/w^2 through ORACLE_ORDER, T(u) = sum (k+1) u^k, plus
    the add-back A(z) = wp(z) - 1/z^2 through that order; the derivatives
    come from np.polyder of T and A."""
    v1, v2 = ctx.reduced1, ctx.reduced2
    area = abs((v1.conjugate() * v2).imag)
    radius = ORACLE_SHELLS * abs(v1)
    bm = int(radius * abs(v2) / area) + 2
    bn = int(radius * abs(v1) / area) + 2
    m, n = np.meshgrid(np.arange(-bm, bm + 1), np.arange(-bn, bn + 1), indexing="ij")
    pts = m * v1 + n * v2
    w = pts[(np.abs(pts) <= radius) & ((m != 0) | (n != 0))]
    z0 = ctx.reduce(complex(z))
    c = laurent_coefficients(ctx.g2, ctx.g3)
    taylor = np.arange(ORACLE_ORDER + 1, 0, -1, dtype=float)  # highest degree first
    addback = np.array(
        [0 if k % 2 else c.get(k // 2 + 1, 0) for k in range(ORACLE_ORDER, -1, -1)],
        dtype=complex,
    )
    u = z0 / w
    values = []
    for k, pole in enumerate((1.0, -2.0, 6.0)):
        total = pole / z0 ** (k + 2) + np.sum(
            pole / (z0 - w) ** (k + 2) - np.polyval(taylor, u) / w ** (k + 2)
        )
        values.append(complex(total + np.polyval(addback, z0)))
        taylor, addback = np.polyder(taylor), np.polyder(addback)
    return tuple(values)


def test_q_series_matches_the_per_point_subtraction():
    rng = random.Random(31)
    for _ in range(10):
        ctx = random_lattice(rng)
        for _ in range(3):
            z = random_sample_point(ctx, rng)
            for got, want in zip(_wp_all(ctx, z), reference_wp_all(ctx, z)):
                assert abs(got - want) <= 1e-12 * abs(want), (got, want)


def test_points_are_the_nome_powers():
    # _points() holds q, ..., q^N for q = exp(2 pi i tau); the first power
    # left out is below 1e-24 for every reduced tau, |q| <= exp(-pi sqrt 3)
    rng = random.Random(41)
    for _ in range(300):
        ctx = random_lattice(rng)
        q = cmath.exp(2j * math.pi * ctx.reduced2 / ctx.reduced1)
        pts = ctx._points()
        assert len(pts) == 10
        for n, qn in enumerate(pts, 1):
            assert abs(qn - q ** n) <= 1e-13 * abs(q) ** n
    assert math.exp(-math.pi * math.sqrt(3)) ** (len(pts) + 1 - 2 / 3) < 1e-24


@pytest.mark.parametrize(
    "omega2", [1j, cmath.exp(1j * math.pi / 3), complex(0.25, 1.15), complex(-0.41, 1.7)]
)
def test_series_is_symmetric_under_negation(omega2):
    # z -> -z swaps the terms at q^n u and q^n/u: wp and wp'' are even and
    # wp' is odd to rounding, including at the half periods
    ctx = LatticeContext(1.3, 1.3 * omega2)
    v1, v2 = ctx.reduced1, ctx.reduced2
    points = [v1 / 2, v2 / 2, (v1 + v2) / 2, 0.3 * v1 + 0.1 * v2, -0.2 * v1 + 0.45 * v2]
    for z in points:
        for k, (a, b) in enumerate(zip(_wp_all(ctx, z), _wp_all(ctx, -z))):
            unit = abs(v1) ** -(k + 2)
            assert abs(a - (-1) ** k * b) <= 1e-14 * max(abs(a), unit), (k, z)


# the discriminant check rejects Im(tau) above about 4.85 (1728 |q| < 1e-10)
@settings(max_examples=200, deadline=None)
@given(
    log_scale=st.floats(-3, 3),
    angle=st.floats(0, 2 * math.pi),
    x=st.floats(-0.5, 0.5),
    y=st.floats(0, 4.8),
    a=st.floats(-0.5, 0.5),
    b=st.floats(-0.5, 0.5),
)
def test_identities_and_parity_across_the_reduced_domain(log_scale, angle, x, y, a, b):
    tau = complex(x, max(y, math.sqrt(1 - x * x)))  # |tau| >= 1, |Re tau| <= 1/2
    s = 10.0 ** log_scale * cmath.exp(1j * angle)
    try:
        ctx = LatticeContext(s, s * tau)
    except DegenerateLattice:
        assume(False)
    z = a * ctx.reduced1 + b * ctx.reduced2
    assume(ctx.lattice_distance(z) > 0.05 * (1 + 1e-9) * abs(ctx.reduced1))
    assert identity_residuals(ctx, z).max_scaled < 1e-12
    for k, (p, m) in enumerate(zip(_wp_all(ctx, z), _wp_all(ctx, -z))):
        unit = abs(ctx.reduced1) ** -(k + 2)
        assert abs(p - (-1) ** k * m) <= 1e-12 * max(abs(p), unit), k


def test_scale_sweep_keeps_the_accepted_range():
    # lattice (s, s(0.3+1.1i)): the per-point subtracted sums accepted and
    # passed every log10 s from -25.1 to 26.3 in steps of 0.1 and rejected
    # -25.4 to -25.2 and 26.4 to 26.6 as degenerate
    for tenths in range(-254, 267):
        s = 10.0 ** (tenths / 10)
        if not -251 <= tenths <= 263:
            with pytest.raises(DegenerateLattice):
                LatticeContext(s, s * complex(0.3, 1.1))
            continue
        ctx = LatticeContext(s, s * complex(0.3, 1.1))
        rng = random.Random(0)
        for _ in range(3):
            rep = identity_residuals(ctx, random_sample_point(ctx, rng))
            assert rep.max_scaled < 1e-8, (tenths, rep)


def test_near_pole_raises():
    with pytest.raises(NearPole):
        _wp_all(CTX, 1e-4 + 1e-4j)
    with pytest.raises(NearPole):
        _wp_all(CTX, CTX.omega1 + 1e-4)  # poles sit on the whole lattice


def test_identity_residuals_machine_precision():
    rng = random.Random(12)
    for _ in range(5):
        z = random_sample_point(CTX, rng)
        rep = identity_residuals(CTX, z)
        assert rep.max_scaled < 1e-12
    # wp, wp' and lambda6 all vanish at the square lattice's half period
    # (1+i)/2; the lattice's own size keeps the scaled residual at rounding
    assert identity_residuals(LatticeContext(1.0, 1j), 0.5 + 0.5j).max_scaled < 1e-12


def test_identity_residuals_reject_wrong_parameters(monkeypatch):
    # wp'' off by one: the lattice's lambda4 no longer fits the functions
    real = weierstrass._wp_all

    def off(ctx, z):
        p, p1, p2 = real(ctx, z)
        return p, p1, p2 + 1.0

    monkeypatch.setattr(weierstrass, "_wp_all", off)
    rep = identity_residuals(CTX, complex(0.33, 0.41))
    assert rep.max_scaled > 1e-4


def test_random_lattice_reproducible_and_valid():
    a = random_lattice(random.Random(3))
    b = random_lattice(random.Random(3))
    assert (a.omega1, a.omega2) == (b.omega1, b.omega2)
    assert abs((a.omega2 / a.omega1).imag) > 0.5


def test_random_sample_point_respects_margin():
    rng = random.Random(6)
    for _ in range(10):
        z = random_sample_point(CTX, rng, margin=0.25)
        assert CTX.lattice_distance(z) >= 0.25 * abs(CTX.reduced1) - 1e-12


def test_random_sample_point_rejects_unreachable_margin():
    # no point lies farther than 1/sqrt(2) periods from the square lattice
    square = LatticeContext(1.0, 1j)
    with pytest.raises(ValueError):
        random_sample_point(square, random.Random(0), margin=0.9)
    z = random_sample_point(square, random.Random(0))
    assert square.lattice_distance(z) >= 0.2


@pytest.mark.parametrize(
    "omega2, radius",
    [(1j, 1 / math.sqrt(2)), (cmath.exp(1j * math.pi / 3), 1 / math.sqrt(3))],
)
def test_random_sample_point_margin_limit_is_the_covering_radius(omega2, radius):
    # square and hexagonal lattices: just inside the covering radius a point
    # is still found, just outside it the call refuses instead of looping
    ctx = LatticeContext(1.0, omega2)
    z = random_sample_point(ctx, random.Random(1), margin=radius - 0.01)
    assert ctx.lattice_distance(z) >= radius - 0.01
    with pytest.raises(ValueError):
        random_sample_point(ctx, random.Random(1), margin=radius + 0.001)


# --- monomial basis and rank experiment -------------------------------------

def test_monomials_weight_bound_and_order():
    monos = _monomials((2, 3), 6)
    # 1, x, x^2, x^3, y, y^2, xy
    assert set(monos) == {(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (1, 1)}
    weights = [2 * a + 3 * b for a, b in monos]
    assert weights == sorted(weights)


def test_monomials_three_generators_count():
    monos = _monomials((2, 3, 4), 8)
    assert (0, 0, 0) in monos
    for a, b, c in monos:
        assert 2 * a + 3 * b + 4 * c <= 8
    assert len(monos) == len(set(monos))


def test_forced_kernel_counts_the_module_over_r4_and_r6():
    # the basis wp^a (weight 2a) and wp' wp^a (weight 2a + 3) times the
    # N(W - w_b) monomials in R4, R6 are all the monomials in wp, wp', wp''
    for bound in range(31):
        weights = [*range(0, bound + 1, 2), *range(3, bound + 1, 2)]
        assert sum(_invariants(bound - w) for w in weights) == len(_monomials((2, 3, 4), bound))
    assert [_invariants(d) for d in range(-2, 13)] == [0, 0, 1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 7]
    assert forced_kernel(2, 8) == 3 and forced_kernel(6, 12) == 1
    assert forced_kernel(8, 12) == forced_kernel(6, 10) == forced_kernel(6, 8) == 0


@pytest.mark.parametrize("seed", [3, 11])
def test_forced_kernel_is_the_measured_deficiency(seed):
    for lattices in (2, 3, 4, 6, 8):
        for bound in (4, 6, 8, 10, 12, 14):
            report = independence_experiment(lattices, 40, bound, seed)
            assert report.forced == forced_kernel(lattices, bound)
            assert report.deficiency == report.forced, (lattices, bound)


def test_multi_lattice_experiment_full_rank():
    report = independence_experiment(6, 40, 8, seed=7)
    assert report.mode == "multi-lattice"
    assert report.full_rank
    assert report.ratio > 1e-6
    assert report.kernel is None
    assert any("FULL RANK" in line for line in report.lines())


def test_kernel_parts_below_the_printed_places_print_without_a_minus():
    # the SVD leaves zero coefficients as +-1e-17 noise, whose sign would flip
    report = RankReport(
        "single-lattice", ("wp", "wp'"), 3, ((0, 0), (1, 0), (0, 1)), 3, 3,
        (1.0, 0.5, 1e-9), 1e-6, (complex(1, -1e-17), complex(-1e-17, -1e-17), -0.25 + 4e-7j),
    )
    assert report.lines()[-1] == (
        "kernel: 1: +1.000000+0.000000j; wp: +0.000000+0.000000j; wp': -0.250000+0.000000j"
    )


def test_single_lattice_control_finds_the_cubic():
    report = independence_experiment(1, 40, 6, seed=7)
    assert report.mode == "single-lattice"
    assert report.deficiency == 1
    # kernel must be the cubic: wp'^2 - 4 wp^3 - 4 lambda4 wp - 4 lambda6
    ctx = random_lattice(random.Random(7))
    expected = {
        (0, 0): -4.0 * ctx.lambda6,
        (1, 0): -4.0 * ctx.lambda4,
        (0, 2): 1.0,
        (3, 0): -4.0,
    }
    got = dict(zip(report.monomials, report.kernel))
    pivot = got[(0, 2)]
    scale = max(abs(v) for v in expected.values())
    for mono in report.monomials:
        want = expected.get(mono, 0.0)
        assert abs(got[mono] / pivot - want) < 1e-5 * scale


def sample_matrix(lattices, samples, bound, seed):
    """The experiment's column-scaled sample matrix b and its column norms,
    rebuilt in numpy from the same draws."""
    rng = random.Random(seed)
    weights = (2, 3) if lattices == 1 else (2, 3, 4)
    values = []
    for _ in range(lattices):
        ctx = random_lattice(rng)
        for _ in range(samples):
            z = random_sample_point(ctx, rng, weierstrass._MARGIN)
            values.append(_wp_all(ctx, z)[: len(weights)])
    a = np.prod(np.array(values)[:, None, :] ** np.array(_monomials(weights, bound)), axis=2)
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    norms = np.linalg.norm(a, axis=0)
    return a / norms, norms


@pytest.mark.parametrize("lattices, samples, bound", [(12, 60, 8), (1, 60, 6)])
def test_svd_of_r_matches_the_direct_svd(lattices, samples, bound):
    # the experiment takes the SVD of R from b = QR; numpy's SVD of b
    # itself is the oracle, and the kernel, scaled back to b's columns,
    # must be a null vector of b
    report = independence_experiment(lattices, samples, bound, seed=7)
    b, norms = sample_matrix(lattices, samples, bound, seed=7)
    assert b.shape == (report.n_rows, report.n_cols)
    direct = np.linalg.svd(b, compute_uv=False)
    got = np.array(report.singular_values)
    assert np.max(np.abs(got - direct)) <= 1e-12 * direct[0]
    assert (report.kernel is None) == (lattices > 1)
    if report.kernel is not None:
        v = np.array(report.kernel) * norms
        assert np.linalg.norm(b @ (v / np.linalg.norm(v))) <= 1e-10


@pytest.mark.parametrize("m, n, rank, zero", [
    (50, 10, 10, None),
    (50, 10, 9, None),
    (60, 12, 9, None),
    (30, 8, 7, 3),  # Householder step 3 finds nothing to reflect
    (30, 8, 7, 0),
    (400, 64, 64, None),
], ids=["full-rank", "deficient-by-1", "deficient-by-3", "zero-column", "zero-first-column",
        "400x64"])
def test_householder_r_and_jacobi_svd_match_numpy(m, n, rank, zero):
    rng = np.random.default_rng(5)

    def gauss(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    b = gauss(m, n) if zero is not None or rank == n else gauss(m, rank) @ gauss(rank, n)
    if zero is not None:
        b[:, zero] = 0
    columns = [[complex(x) for x in col] for col in b.T]
    svals, vectors = _jacobi_svd(_householder_r(columns), vectors=True)
    direct = np.linalg.svd(b, compute_uv=False)
    assert np.max(np.abs(np.array(svals) - direct)) <= 1e-12 * direct[0]
    assert int(np.sum(direct > 1e-10 * direct[0])) == rank
    v = np.array(vectors).T  # the right singular vectors as columns
    assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-12
    # b v_k has norm sigma_k; past the rank that makes v_k a null vector
    assert np.max(np.abs(np.linalg.norm(b @ v, axis=0) - svals)) <= 1e-12 * direct[0]
    assert all(np.linalg.norm(b @ v[:, k]) <= 1e-10 for k in range(rank, n))


def test_insufficient_samples_raises():
    with pytest.raises(InsufficientSamples):
        independence_experiment(1, 3, 6, seed=0)
    with pytest.raises(InsufficientSamples):  # zero samples, not an IndexError
        independence_experiment(1, 0, 6, seed=0)


def test_insufficient_samples_raised_before_sampling(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled although the columns outnumber the rows")

    monkeypatch.setattr(weierstrass, "random_sample_point", no_sampling)
    with pytest.raises(InsufficientSamples):
        independence_experiment(6, 40, 400, seed=0)
    with pytest.raises(InsufficientSamples):
        independence_experiment(1, 6, 6, seed=0)  # 7 columns, 6 rows


def test_sample_rows_capped_before_sampling(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled although the rows are above the cap")

    monkeypatch.setattr(weierstrass, "random_sample_point", no_sampling)
    with pytest.raises(ValueError, match="above the cap of 10000"):
        independence_experiment(101, 100, 8, seed=0)
    with pytest.raises(ValueError, match="above the cap of 10000"):
        independence_experiment(1, 10_001, 6, seed=0)
    # exactly at the cap the rows pass and the column count decides
    with pytest.raises(InsufficientSamples):
        independence_experiment(100, 100, 400, seed=0)


def test_columns_capped_before_sampling(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(weierstrass, "random_sample_point", no_sampling)
    # 1000 rows cover the 632 columns of weight <= 40, but the cap is 64
    with pytest.raises(ValueError, match="^632 monomials of weight <= 40 is above the cap of 64"):
        independence_experiment(10, 100, 40, seed=0)
    with pytest.raises(ValueError, match="^72 monomials of weight <= 17"):
        independence_experiment(10, 100, 17, seed=0)
    # weight <= 16 has exactly 64 columns: the check passes and sampling starts
    with pytest.raises(AssertionError, match="sampled"):
        independence_experiment(10, 100, 16, seed=0)


def test_experiment_argument_validation():
    with pytest.raises(ValueError):
        independence_experiment(0, 10, 6, seed=0)
    with pytest.raises(ValueError):
        independence_experiment(2, 10, 1, seed=0)


# what perfbench/tracing.py reads: the traced names in numerics1, then
# numpy.linalg, which reading them has loaded
COMPATIBILITY_PROBE = """
import sys
from hypfield import numerics1, weierstrass
assert "numpy" not in sys.modules
for name in ("LatticeContext", "_wp_all", "independence_experiment"):
    assert getattr(numerics1, name) is getattr(weierstrass, name), name
assert "numpy.linalg" in sys.modules
print("ok")
"""


def test_numerics1_holds_the_traced_names_and_loads_numpy():
    env = dict(os.environ, PYTHONPATH=str(Path(weierstrass.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", COMPATIBILITY_PROBE],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
