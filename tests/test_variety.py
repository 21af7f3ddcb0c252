"""Ambient variety, uniformization check, and the parameter projection."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from hypfield.polyring import Poly, b1, b2, b3
from hypfield.relations import GenusContext
from hypfield.rewriter import RelationTable, build_table
from hypfield.variety import (
    ambient_dimension,
    equation_count,
    generator_symbols,
    p_eval,
    p_jacobian_rank,
    p_map,
    random_rational_point,
    uniformize_check,
    variety_system,
)


@lru_cache(maxsize=None)
def table(g):
    return build_table(GenusContext(g))


def test_counts():
    assert [equation_count(g) for g in (1, 2, 3, 4)] == [2, 5, 9, 14]
    assert [ambient_dimension(g) for g in (1, 2, 3, 4)] == [5, 11, 18, 26]


def test_generator_symbols_order():
    assert generator_symbols(2) == [b1(1), b1(3), b2(1), b2(3), b3(1), b3(3)]


def test_system_size_matches_count():
    for g in (1, 2, 3):
        system = variety_system(GenusContext(g))
        assert len(system.equations) == equation_count(g)


def test_ambient_dimension_is_symbol_count():
    # 3g generators + g(g-1)/2 w symbols + 2g parameters
    for g in (1, 2, 3, 4):
        ctx = GenusContext(g)
        n = 3 * g + len(ctx.w_pairs) + len(ctx.lambda_indices)
        assert n == ambient_dimension(g)


# --- uniformization ---------------------------------------------------------

def test_uniformize_passes():
    for g in (1, 2):
        ctx = GenusContext(g)
        report = uniformize_check(ctx, table(g))
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
    report = uniformize_check(GenusContext(g), bad)
    assert not report.passed
    assert report.zero_count < equation_count(g)
    assert any("NONZERO" in line for line in report.lines())


# --- parameter projection ---------------------------------------------------

def test_p_eval_known_points():
    pm = p_map(table(1))
    assert p_eval(pm, [1, 0, 0]) == [Fraction(-3), Fraction(2)]
    assert p_eval(pm, [0, 0, 2]) == [Fraction(1), Fraction(0)]
    assert p_eval(pm, [0, 0, 0]) == [Fraction(0), Fraction(0)]


def test_p_eval_point_length_checked():
    pm = p_map(table(1))
    with pytest.raises(ValueError):
        p_eval(pm, [1, 2])


def test_jacobian_shape_and_entries():
    pm = p_map(table(1))
    jac = pm.jacobian
    assert len(jac) == 2 and len(jac[0]) == 3
    # d la4 / d b3_1 = 1/2, d la4 / d b2_1 = 0
    assert jac[0][2] == Poly.const(Fraction(1, 2))
    assert jac[0][1] == Poly.zero()


def test_jacobian_rank_at_origin_is_genus():
    for g in (1, 2, 3):
        pm = p_map(table(g))
        assert p_jacobian_rank(pm, [Fraction(0)] * (3 * g)) == g


def test_jacobian_rank_generic():
    rng = random.Random(1)
    for g in (1, 2):
        pm = p_map(table(g))
        for _ in range(5):
            point = random_rational_point(g, rng)
            assert p_jacobian_rank(pm, point) == 2 * g


def test_random_point_reproducible():
    assert random_rational_point(2, random.Random(9)) == random_rational_point(
        2, random.Random(9)
    )
