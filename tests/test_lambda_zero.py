"""The lambda = 0 oracle: the table against the rational sigma function.

At lambda = 0 the curve is y^2 = x^(2g+1), and its sigma function is the
Schur polynomial of the staircase partition (g, g-1, ..., 1) in the power
sums p_k = k*u_k, k odd (Buchstaber, Enolskii and Leykin, Funct. Anal.
Appl. 33, 1999).  Then wp_{i...} = -d_i... log sigma.  At two rational
points u0 per genus the generators take the values b1_k = wp_1k,
b2_k = wp_11k and b3_k = wp_111k; every la_s must then vanish and every
w_k_l equal wp_kl, exactly.  The table is read only as data, the text that
``table`` prints, so no relation of the engine takes part.

Blind spot: an error that is a multiple of an entry vanishing at lambda = 0
goes unseen.  ``la_8 + la_4*b1_1^2`` passes, because la_4 vanishes there.
"""

from functools import cache
from math import factorial, prod

import pytest
import sympy

from hypfield import rewriter
from hypfield.polyring import Poly, b1, b2, b3
from hypfield.relations import GenusContext

GENERA = (1, 2, 3, 4)
# u_1, u_3, u_5, u_7 of each point; genus g takes the first g
POINTS = ((1, sympy.Rational(1, 2), sympy.Rational(-1, 3), 2), (2, -1, sympy.Rational(3, 5), 1))


def sigma(g: int, u: dict):
    """Jacobi-Trudi: det(h_{lambda_i - i + j}) over 0 <= i, j < g with
    lambda_i = g - i, where sum h_n t^n = exp(sum u_k t^k) over odd k, so
    n*h_n = sum k*u_k*h_{n-k}."""
    h = [sympy.Integer(1)]
    for n in range(1, 2 * g):
        h.append(sympy.expand(sum(k * u[k] * h[n - k] for k in u if k <= n) / n))
    return sympy.Matrix(g, g, lambda i, j: h[g - 2 * i + j] if g - 2 * i + j >= 0 else 0).det()


def wp_at(s, u: dict, point: dict):
    """``wp(*indices)``, -d_indices log ``s`` at ``point``, read off the
    Taylor series of log s = log s0 + log(1 + r) in the shifts t_k of the
    indices' variables: r has no constant term, so r - r^2/2 + r^3/3 - r^4/4
    is exact through degree 4."""
    logs = {}

    def wp(*indices):
        ks = tuple(sorted(set(indices)))
        if ks not in logs:
            t = {k: sympy.Symbol(f"t{k}") for k in ks}
            shifted = sympy.expand(s.subs({u[k]: point[k] + t.get(k, 0) for k in u}))
            r = sympy.Poly(shifted / shifted.subs({v: 0 for v in t.values()}) - 1, *t.values(),
                           domain="QQ")
            logs[ks] = (t, sum(r ** n * sympy.Rational((-1) ** (n + 1), n) for n in range(1, 5)))
        t, log = logs[ks]
        counts = [indices.count(k) for k in ks]
        monomial = prod(t[k] ** c for k, c in zip(ks, counts))
        return -log.coeff_monomial(monomial) * prod(map(factorial, counts))

    return wp


@cache
def expected(g: int) -> list:
    """For each point, the generators' values and what every entry must
    equal there, keyed by name."""
    u = {k: sympy.Symbol(f"u{k}") for k in range(1, 2 * g, 2)}
    s = sigma(g, u)
    out = []
    for coords in POINTS:
        wp = wp_at(s, u, dict(zip(u, coords)))
        values = {}
        for k in u:
            values.update({f"b1_{k}": wp(1, k), f"b2_{k}": wp(1, 1, k), f"b3_{k}": wp(1, 1, 1, k)})
        wants = {f"la_{i}": 0 for i in range(4, 4 * g + 3, 2)}
        wants.update({f"w_{k}_{l}": wp(k, l) for k in u for l in u if 3 <= k <= l})
        out.append(({sympy.Symbol(name): v for name, v in values.items()}, wants))
    return out


def mismatches(g: int) -> set:
    """The entries of ``rewriter.build_table``'s genus-g table that miss
    their lambda = 0 value at some point."""
    lines = "".join(rewriter.build_table(GenusContext(g)).lines()).splitlines()
    entries = dict(line.split(" = ") for line in lines if " = " in line)
    parsed = {name: sympy.sympify(text.replace("^", "**")) for name, text in entries.items()}
    bad = set()
    for values, wants in expected(g):
        assert set(parsed) == set(wants)
        bad.update(name for name, expr in parsed.items() if expr.xreplace(values) != wants[name])
    return bad


@pytest.mark.parametrize("g", GENERA)
def test_table_at_lambda_zero(g):
    assert mismatches(g) == set()


def test_sigma_of_genus_1_and_2():
    # genus 1: sigma = u1, so wp = 1/u1^2 and wp' = -2/u1^3 satisfy wp'^2 = 4 wp^3
    u1, u3 = sympy.symbols("u1 u3")
    assert sigma(1, {1: u1}) == u1
    assert sympy.expand(sigma(2, {1: u1, 3: u3})) == u1 ** 3 / 3 - u3


def gen(maker, k: int) -> Poly:
    return Poly.symbol(maker(k))


def corrupt(monkeypatch, name: str, extra):
    """Make ``build_table`` add ``extra(table)`` to the entry ``name``."""
    real = rewriter.build_table
    kind, *indices = name.split("_")
    indices = tuple(map(int, indices))

    def corrupted(ctx):
        table = real(ctx)
        if kind == "la":
            (s,) = indices
            return table._replace(lam={**table.lam, s: table.lam[s] + extra(table)})
        return table._replace(w={**table.w, indices: table.w[indices] + extra(table)})

    monkeypatch.setattr(rewriter, "build_table", corrupted)


CAUGHT = {
    "w_3_3 + b1_1*b1_3": ("w_3_3", lambda table: gen(b1, 1) * gen(b1, 3)),
    "la_14 + b3_1*b1_1*b3_5": ("la_14", lambda table: gen(b3, 1) * gen(b1, 1) * gen(b3, 5)),
    "w_3_5 + b2_1^2*b1_1": ("w_3_5", lambda table: gen(b2, 1) ** 2 * gen(b1, 1)),
}


@pytest.mark.parametrize("name, extra", list(CAUGHT.values()), ids=list(CAUGHT))
def test_a_wrong_term_is_caught(monkeypatch, name, extra):
    corrupt(monkeypatch, name, extra)
    assert mismatches(3) == {name}


def test_blind_spot_a_multiple_of_a_vanishing_entry(monkeypatch):
    corrupt(monkeypatch, "la_8", lambda table: table.lam[4] * gen(b1, 1) ** 2)
    assert mismatches(3) == set()
