"""The ambient variety, its uniformization check, and the parameter map.

The ambient coordinates are exactly the ring symbols (b, w, la), so the
defining equations are the relation residuals themselves.  All ranks are
computed over Q with no tolerances.  One pass over the parameter map's
terms at a rational point (``polyring.at_point``) gives both its values
and its Jacobian, each term differentiated where it is evaluated: the
Jacobian is never built as a matrix of polynomials.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import exactmath  # reached through the module: only rank runs it
from .polyring import MIXED, Poly, at_point, b1, b2, b3, homogeneous_weight
from .relations import GenusContext, RelationId, bel1, bel2
from .rewriter import RelationTable


def generator_symbols(g: int) -> list:
    """The 3g generator symbols in their canonical coordinate order."""
    odd = GenusContext(g).odd_indices
    return [b1(k) for k in odd] + [b2(k) for k in odd] + [b3(k) for k in odd]


def _equations(ctx: GenusContext, env):
    """The defining equations as (RelationId, residual), BEL1 then BEL2,
    with the symbols ``env`` maps replaced by their images."""
    for i in ctx.odd_indices:
        yield RelationId("BEL1", (i,)), bel1(ctx, i, env)
    for i in ctx.odd_indices:
        for j in ctx.odd_indices:
            if i <= j:
                yield RelationId("BEL2", (i, j)), bel2(ctx, i, j, env)


class EquationStatus(NamedTuple):
    relation: RelationId
    residual: Poly

    @property
    def is_zero(self) -> bool:
        return self.residual.is_zero()

    def line(self) -> str:
        if self.is_zero:
            return f"{self.relation}: ZERO"
        wt = homogeneous_weight(self.residual)
        wt_text = "mixed" if wt is MIXED else str(wt)
        return f"{self.relation}: NONZERO(weight={wt_text}, terms={len(self.residual.terms)})"


class UniformizeReport(NamedTuple):
    genus: int
    entries: tuple  # of EquationStatus

    @property
    def passed(self) -> bool:
        return all(e.is_zero for e in self.entries)

    @property
    def zero_count(self) -> int:
        return sum(1 for e in self.entries if e.is_zero)

    def lines(self) -> list:
        out = [e.line() for e in self.entries]
        out.append(
            f"{self.zero_count}/{len(self.entries)} equations ZERO"
        )
        return out


def uniformize_check(table: RelationTable) -> UniformizeReport:
    """Sum every defining equation of the table's genus with the table
    substituted, each residual only when its turn comes, one at a time."""
    ctx = GenusContext(table.genus)
    entries = tuple(EquationStatus(*eq) for eq in _equations(ctx, table.substitution_env()))
    return UniformizeReport(ctx.g, entries)


class PMap(NamedTuple):
    """The polynomial projection onto the parameter space, one component
    per curve parameter, each homogeneous in the 3g generators."""

    genus: int
    components: tuple  # of (s, Poly), s ascending


def p_map(table: RelationTable) -> PMap:
    return PMap(table.genus, tuple((s, table.lam[s]) for s in sorted(table.lam)))


def _point_env(pm: PMap, point: Sequence) -> dict:
    """Generator symbol -> coordinate, in the canonical coordinate order."""
    syms = generator_symbols(pm.genus)
    if len(point) != len(syms):
        raise ValueError(f"point must have {len(syms)} coordinates")
    return {sym: Fraction(x) for sym, x in zip(syms, point)}


def p_eval(pm: PMap, point: Sequence) -> list:
    """Exact evaluation of the parameter polynomials at a rational point."""
    return at_point([comp for _, comp in pm.components], _point_env(pm, point))[0]


def p_values_and_rank(pm: PMap, point: Sequence) -> tuple:
    """The parameter values at a rational point and the exact rank of the
    Jacobian there (rows by component, columns by generator), both from one
    pass over the map's terms."""
    env = _point_env(pm, point)
    values, rows = at_point([comp for _, comp in pm.components], env, list(env))
    return values, exactmath.rank_exact(rows)


def p_jacobian_rank(pm: PMap, point: Sequence) -> int:
    """Exact rank of the Jacobian of the parameter map at a rational point."""
    return p_values_and_rank(pm, point)[1]


def random_rational_point(g: int, rng: random.Random) -> list:
    """Components uniform over {-9..9}/{1..4}; seeded for reproducibility."""
    return [
        Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3 * g)
    ]
