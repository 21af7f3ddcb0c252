"""Top-level acceptance checks, one per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
checks execute; without ``-s`` they appear in the captured output of any
failing check.
"""

import random
from fractions import Fraction
from functools import lru_cache

from exprprint import format_expr
from hypfield.curve import LambdaVector, discriminant, symbolic_discriminant
from hypfield.exprlang import parse
from hypfield.numerics1 import independence_experiment
from hypfield.polyring import Poly, homogeneous_weight, la
from hypfield.relations import GenusContext, bel1, bel2
from hypfield.rewriter import build_table, reduce_expr
from hypfield.variety import p_jacobian_rank, p_map, random_rational_point, uniformize_check
from hypfield.weierstrass import identity_residuals, random_lattice, random_sample_point
from test_rewriter import extract_from_bel2

GENERA = (1, 2, 3, 4)


@lru_cache(maxsize=None)
def table(g):
    return build_table(GenusContext(g))


def report(number, label, ok):
    print(f"criterion {number:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_01_uniformization():
    ok = True
    for g in GENERA:
        rep = uniformize_check(table(g))
        ok = ok and rep.passed and rep.zero_count == g * (g + 3) // 2
    report(1, "uniformization g=1..4", ok)


def test_02_counts_and_dimensions():
    # g(g+3)/2 defining equations in g(g+9)/2 ambient coordinates: 3g
    # generators, the w symbols and 2g parameters
    equations, dimensions = [], []
    for g in GENERA:
        ctx = GenusContext(g)
        equations.append(len(uniformize_check(table(g)).entries))
        dimensions.append(3 * g + len(ctx.w_pairs) + len(ctx.lambda_indices))
    ok = equations == [2, 5, 9, 14] == [g * (g + 3) // 2 for g in GENERA]
    ok = ok and dimensions == [5, 11, 18, 26] == [g * (g + 9) // 2 for g in GENERA]
    report(2, "counts and dimensions", ok)


def test_03_genus1_closed_forms():
    t = table(1)
    ok = str(t.lam[4]) == "-3*b1_1^2 + 1/2*b3_1"
    ok = ok and str(t.lam[6]) == "2*b1_1^3 - 1/2*b1_1*b3_1 + 1/4*b2_1^2"
    report(3, "genus-1 closed forms", ok)


def test_04_homogeneity():
    ok = True
    for g in GENERA:
        ctx = GenusContext(g)
        t = table(g)
        for s, p in t.lam.items():
            ok = ok and homogeneous_weight(p) == s
        for (k, l), p in t.w.items():
            ok = ok and homogeneous_weight(p) == k + l
        for i in ctx.odd_indices:
            ok = ok and homogeneous_weight(bel1(ctx, i)) == i + 3
            for j in ctx.odd_indices:
                ok = ok and homogeneous_weight(bel2(ctx, i, j)) == i + j + 4
    report(4, "homogeneity", ok)


def test_05_path_independence():
    def alternatives(ctx, k, l):
        """Extraction instances other than the canonical (k-4, l)."""
        out = set()
        for i, j in ((l - 4, k), (k - 2, l - 2)):
            i, j = min(i, j), max(i, j)
            if i >= 1 and (i, j) != (k - 4, l):
                out.add((i, j))
        return out

    ok = True
    for g in (3, 4):
        ctx = GenusContext(g)
        t = table(g)
        env = t.substitution_env()
        for (k, l) in t.w:
            if k < 5:
                continue
            alts = alternatives(ctx, k, l)
            ok = ok and bool(alts)
            for i, j in alts:
                ok = ok and extract_from_bel2(ctx, env, i, j, (k, l)) == t.w[(k, l)]
    report(5, "path independence g=3,4", ok)


def test_06_numeric_identities():
    rng = random.Random(0)
    worst = 0.0
    for _ in range(20):
        ctx = random_lattice(rng)
        z = random_sample_point(ctx, rng)
        worst = max(worst, identity_residuals(ctx, z).max_scaled)
    report(6, f"numeric residuals (max {worst:.2e})", worst < 1e-8)


def test_07_independence_proxy():
    multi = independence_experiment(6, 40, 8, seed=7)
    ok = multi.full_rank and multi.ratio > 1e-6

    control = independence_experiment(1, 40, 6, seed=7)
    ok = ok and control.deficiency == 1
    ctx = random_lattice(random.Random(7))
    expected = {
        (0, 0): -4.0 * ctx.lambda6,
        (1, 0): -4.0 * ctx.lambda4,
        (0, 2): 1.0,
        (3, 0): -4.0,
    }
    kernel = dict(zip(control.monomials, control.kernel))
    pivot = kernel[(0, 2)]
    scale = max(abs(v) for v in expected.values())
    for mono in control.monomials:
        err = abs(kernel[mono] / pivot - expected.get(mono, 0.0))
        ok = ok and err < 1e-5 * scale
    report(7, "independence proxy", ok)


def test_08_fibration_ranks():
    ok = True
    for g in (1, 2, 3):
        pm = p_map(table(g))
        rng = random.Random(100 + g)
        hits = sum(
            1
            for _ in range(10)
            if p_jacobian_rank(pm, random_rational_point(g, rng)) == 2 * g
        )
        ok = ok and hits == 10
        ok = ok and p_jacobian_rank(pm, [Fraction(0)] * (3 * g)) == g
    report(8, "fibration ranks", ok)


def test_09_discriminant():
    p4 = Poly.symbol(la(4))
    p6 = Poly.symbol(la(6))
    ok = symbolic_discriminant(GenusContext(1)) == -4 * p4 ** 3 - 27 * p6 ** 2
    for g in (1, 2, 3):
        ok = ok and discriminant(LambdaVector.from_sequence(g, [0] * (2 * g))) == 0
    report(9, "discriminant", ok)


def test_10_reducer_field_check():
    ctx = GenusContext(1)
    t = table(1)
    expr = parse("p[1,1,1]^2 - 4*p[1,1]^3 - 4*la4*p[1,1] - 4*la6", ctx)
    num, den = reduce_expr(t, expr)
    ok = num.is_zero() and den == Poly.one()

    rng = random.Random(42)
    trips = 0
    for _ in range(100):
        tree = _random_tree(rng)
        if parse(format_expr(tree), ctx) == tree:
            trips += 1
    ok = ok and trips == 100
    report(10, "reducer field check", ok)


def _random_tree(rng, depth=4):
    from hypfield.rewriter import BinOp, Const, Lam, Neg, Pow, PSym

    if depth == 0 or rng.random() < 0.3:
        return rng.choice(
            [
                Const(Fraction(rng.randint(0, 9))),
                PSym((1, 1)),
                PSym((1, 1, 1)),
                PSym((1, 1, 1, 1)),
                Lam(4),
                Lam(6),
            ]
        )
    kind = rng.choice(["+", "-", "*", "/", "neg", "pow"])
    if kind == "neg":
        return Neg(_random_tree(rng, depth - 1))
    if kind == "pow":
        return Pow(_random_tree(rng, depth - 1), rng.choice([-2, 0, 2, 3]))
    return BinOp(kind, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
