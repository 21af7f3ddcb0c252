"""Ambient variety, uniformization check, and the parameter projection."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import prod
from pathlib import Path

import pytest
import sympy

import hypfield
from hypfield.exactmath import rank_exact
from hypfield.polyring import Poly, at_point, b1, b2, b3
from hypfield.relations import GenusContext, RelationId
from hypfield.rewriter import RelationTable, build_table
from hypfield.variety import (
    EquationStatus,
    generator_symbols,
    p_eval,
    p_jacobian_rank,
    random_rational_point,
    uniformize_check,
)


@lru_cache(maxsize=None)
def table(g):
    return build_table(GenusContext(g))


def derivative(p, sym):
    """``p`` differentiated by ``sym``, term by term."""
    out = {}
    for m, c in p.sorted_terms():
        e = dict(m).get(sym, 0)
        if e:
            out[tuple((s, k - (s == sym)) for s, k in m if (s, k) != (sym, 1))] = c * e
    return Poly(out)


def components(t):
    """The parameter map's components: the table's la_s, s ascending."""
    return [t.lam[s] for s in sorted(t.lam)]


def symbolic_jacobian(t):
    """The 2g x 3g Jacobian as polynomials: rows by component, columns by
    generator."""
    syms = generator_symbols(t.genus)
    return [[derivative(comp, sym) for sym in syms] for comp in components(t)]


def termwise(p, env):
    """The value of ``p`` at ``env``, each term on its own, in Fractions."""
    return sum((c * prod(env[s] ** e for s, e in m) for m, c in p.sorted_terms()), Fraction(0))


def equation_count(g):
    """The paper's number of defining equations, g(g+3)/2."""
    return g * (g + 3) // 2


def test_counts():
    genera = (1, 2, 3, 4)
    got = [len(uniformize_check(table(g)).entries) for g in genera]
    assert got == [equation_count(g) for g in genera] == [2, 5, 9, 14]


def test_generator_symbols_order():
    assert generator_symbols(2) == [b1(1), b1(3), b2(1), b2(3), b3(1), b3(3)]


def test_system_size_matches_count():
    # g BEL1 equations, then a BEL2 equation for each pair i <= j
    for g in (1, 2, 3):
        ctx = GenusContext(g)
        odd = ctx.odd_indices
        want = [f"BEL1[{i}]" for i in odd] + [f"BEL2[{i},{j}]" for i in odd for j in odd if i <= j]
        got = [str(e.relation) for e in uniformize_check(table(g)).entries]
        assert got == want and len(got) == equation_count(g)


def test_ambient_dimension_is_symbol_count():
    # 3g generators + g(g-1)/2 w symbols + 2g parameters = g(g+9)/2
    dims = []
    for g in (1, 2, 3, 4):
        ctx = GenusContext(g)
        dims.append(3 * g + len(ctx.w_pairs) + len(ctx.lambda_indices))
        assert dims[-1] == g * (g + 9) // 2
    assert dims == [5, 11, 18, 26]


# --- uniformization ---------------------------------------------------------

def test_uniformize_passes():
    for g in (1, 2):
        report = uniformize_check(table(g))
        assert report.passed
        assert report.zero_count == equation_count(g)
        lines = report.lines()
        assert lines[0] == "BEL1[1]: ZERO"
        assert lines[-1] == f"{equation_count(g)}/{equation_count(g)} equations ZERO"


def test_uniformize_detects_corruption():
    g = 2
    t = table(g)
    lam = dict(t.lam)
    lam[4] = lam[4] + Poly.one()
    bad = RelationTable(g, lam, t.w, t.provenance)
    report = uniformize_check(bad)
    assert not report.passed
    assert report.zero_count < equation_count(g)
    assert any("NONZERO" in line for line in report.lines())



@pytest.mark.parametrize(
    "residual,line",
    [
        (Poly.symbol(b1(1)) * Poly.symbol(b1(3)), "BEL1[3]: NONZERO(weight=6, terms=1)"),
        (Poly.symbol(b1(1)) + Poly.one(), "BEL1[3]: NONZERO(weight=mixed, terms=2)"),
    ],
    ids=["homogeneous", "mixed"],
)
def test_nonzero_status_line_names_the_weight(residual, line):
    assert EquationStatus(RelationId("BEL1", (3,)), residual).line() == line

# A child's peak RSS counts its parent's RSS at the fork, so the two
# processes are started from a small probe process, not from the test runner.
RSS_PROBE = """
import os, sys

def peak_rss_mb(*argv):
    pid = os.posix_spawn(
        sys.executable, [sys.executable, *argv], os.environ,
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
    )
    _, status, usage = os.wait4(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    return usage.ru_maxrss / 1024  # kB on Linux

print(peak_rss_mb("-c", "from hypfield.relations import GenusContext\\n"
                        "from hypfield.rewriter import build_table\\n"
                        "build_table(GenusContext(48))"),
      peak_rss_mb("-m", "hypfield.cli", "verify", "--genus", "48"))
"""


def test_verify_holds_one_residual_at_a_time():
    # building every residual before substituting any costs about 9.5 MB
    # over the table at g=48; one residual at a time costs about 1 MB
    env = dict(os.environ, PYTHONPATH=str(Path(hypfield.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", RSS_PROBE], capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    build_only, verify = map(float, proc.stdout.split())
    assert verify - build_only < 4.0, (build_only, verify)


REGISTRY_PROBE = """
from hypfield import polyring
from hypfield.relations import GenusContext
from hypfield.rewriter import build_table
from hypfield.variety import uniformize_check

assert uniformize_check(build_table(GenusContext(16))).passed
print(" ".join(s.name for s in polyring._SYMS))
"""


def test_table_and_check_give_only_the_generators_a_field():
    # every la_s and w_k_l is substituted while the residuals are summed, so
    # a process that derives and checks the table packs only the 3g generators
    env = dict(os.environ, PYTHONPATH=str(Path(hypfield.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", REGISTRY_PROBE], capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    names = proc.stdout.split()
    assert sorted(names) == sorted(s.name for s in generator_symbols(16))


# --- parameter projection ---------------------------------------------------

def test_p_eval_known_points():
    t = table(1)
    assert p_eval(t, [1, 0, 0]) == [Fraction(-3), Fraction(2)]
    assert p_eval(t, [0, 0, 2]) == [Fraction(1), Fraction(0)]
    assert p_eval(t, [0, 0, 0]) == [Fraction(0), Fraction(0)]


def test_p_eval_point_length_checked():
    with pytest.raises(ValueError, match="^point must have 3 coordinates$"):
        p_eval(table(1), [1, 2])


def test_jacobian_shape_and_entries():
    jac = symbolic_jacobian(table(1))
    assert len(jac) == 2 and len(jac[0]) == 3
    # d la4 / d b3_1 = 1/2, d la4 / d b2_1 = 0
    assert jac[0][2] == Poly.const(Fraction(1, 2))
    assert jac[0][1] == Poly.zero()


def test_jacobian_rank_at_origin_is_genus():
    for g in (1, 2, 3):
        assert p_jacobian_rank(table(g), [Fraction(0)] * (3 * g)) == g


def test_jacobian_rank_generic():
    rng = random.Random(1)
    for g in (1, 2):
        for _ in range(5):
            point = random_rational_point(g, rng)
            assert p_jacobian_rank(table(g), point) == 2 * g


def test_values_and_rank_match_termwise_evaluation():
    # each entry on its own, in Fraction arithmetic, from the symbolic terms
    t = table(3)
    for point in (random_rational_point(3, random.Random(5)), [Fraction(k, 7) for k in range(-4, 5)]):
        env = dict(zip(generator_symbols(3), point))
        assert p_eval(t, point) == [termwise(comp, env) for comp in components(t)]
        entries = [[termwise(e, env) for e in row] for row in symbolic_jacobian(t)]
        assert p_jacobian_rank(t, point) == rank_exact(entries)


# b1_1 = b2_1 = b3_1 = 1, every other generator 0: a genuinely deficient rank
RANK9_G8 = ([1] + [0] * 7) * 3


def oracle_points(g):
    rng = random.Random(g)
    sparse = random_rational_point(g, rng)
    sparse[::3] = [0] * len(sparse[::3])
    points = [random_rational_point(g, rng), random_rational_point(g, rng), sparse, [0] * (3 * g)]
    if g == 8:
        points.append(RANK9_G8)
    return points


def assert_positive_multiple(row, want):
    """``row`` is ``k * want`` for some rational k > 0."""
    pivot = next((j for j, x in enumerate(want) if x), None)
    if pivot is None:
        assert not any(row)
        return
    k = Fraction(row[pivot]) / want[pivot]
    assert k > 0 and row == [k * x for x in want]


@pytest.mark.parametrize("g", [1, 2, 3, 4, 8])
def test_jacobian_rows_are_positive_multiples_of_the_symbolic_jacobian(g):
    # the oracle differentiates term by term and evaluates entry by entry
    t = table(g)
    syms = generator_symbols(g)
    jac = symbolic_jacobian(t)
    comps = components(t)
    for point in oracle_points(g):
        env = dict(zip(syms, map(Fraction, point)))
        oracle = [[termwise(e, env) for e in row] for row in jac]
        values, rows = at_point(comps, env, syms)
        assert values == [termwise(comp, env) for comp in comps]
        assert len(rows) == 2 * g
        for row, want in zip(rows, oracle):
            assert all(type(x) is int for x in row)
            assert_positive_multiple(row, want)
        assert p_jacobian_rank(t, point) == rank_exact(oracle)
    if g == 8:
        assert p_jacobian_rank(t, RANK9_G8) == 9


def sympy_rational(x):
    return sympy.Rational(x.numerator, x.denominator)


def fraction(x):
    return Fraction(int(x.p), int(x.q))


@pytest.mark.parametrize("g", [2, 3])
def test_at_point_matches_sympy(g):
    # independent oracle: sympy builds the map from its terms, differentiates
    # it with Matrix.jacobian and evaluates it by substitution
    t = table(g)
    syms = generator_symbols(g)
    gens = sympy.symbols([sym.name for sym in syms])
    of = dict(zip(syms, gens))
    comps = sympy.Matrix([
        sum(sympy_rational(c) * sympy.Mul(*(of[s] ** e for s, e in m)) for m, c in comp.sorted_terms())
        for comp in components(t)
    ])
    jac = comps.jacobian(gens)
    rng = random.Random(100 + g)
    for point in [random_rational_point(g, rng) for _ in range(3)] + [[Fraction(0)] * (3 * g)]:
        subs = dict(zip(gens, map(sympy_rational, point)))
        values, rows = at_point(components(t), dict(zip(syms, point)), syms)
        assert values == [fraction(v) for v in comps.subs(subs)]
        want = jac.subs(subs)
        assert p_jacobian_rank(t, point) == want.rank()
        for k, row in enumerate(rows):
            assert_positive_multiple(row, [fraction(x) for x in want.row(k)])


def test_random_point_reproducible():
    assert random_rational_point(2, random.Random(9)) == random_rational_point(
        2, random.Random(9)
    )
