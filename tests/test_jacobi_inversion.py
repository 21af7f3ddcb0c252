"""The generic-lambda oracle: the table against Jacobi inversion on the curve.

The curve is y^2 = f(X) = 4 (X^(2g+1) + sum_s la_s X^(2g+1-s/2)), and
f = sum_p a_p X^p.  A point of the Jacobian is a divisor of g points
(x_k, y_k) on the curve with distinct x_k.  Index j = 1..g of the classical
formulas is the table's odd index 2(g-j)+1 (Baker, Multiply periodic
functions, 1907; Buchstaber, Enolskii and Leykin, Rev. Math. Math. Phys. 10,
1997):

- b1 from u(X) = prod_k (X - x_k) = X^g - sum_j b1_{2(g-j)+1} X^(j-1);
- b2 from v(X) = sum_j b2_{2(g-j)+1} X^(j-1), with v(x_k) = y_k.

Each rational point picks the x_k, the y_k and la_4..la_{2g+2}; the other g
parameters then solve y_k^2 = f(x_k), a Vandermonde system.  The table is
read only as data, the text that ``table`` prints, so no relation of the
engine takes part.  Three checks, each exact:

(a) b3, solved from the entries la_4..la_{2g+2}, which are linear and
    triangular in it, makes la_{2g+4}..la_{4g+2} take the curve's values.
    This restates the generating-series relation L1 that the la entries are
    derived from: it checks the code, not the mathematics.
(b) Every w_k_l equals its wp from the Kleinian 2-polar
    F(x, z) = sum_{k=0..g} x^k z^k (2 a_2k + a_{2k+1} (x + z)): for each pair
    k != l of divisor points, sum_ij wp_ij x_k^(i-1) x_l^(j-1) =
    (F(x_k, x_l) - 2 y_k y_l) / (4 (x_k - x_l)^2), which fixes every wp_ij
    once the wp_gj are read off u.
(c) The flows of the Abel differentials du_j = X^(j-1) dX / y (Dubrovin,
    Funct. Anal. Appl. 9, 1975): D_j x_k solves
    sum_k x_k^(i-1) / y_k D_j x_k = delta_ij, and
    D_j y_k = f'(x_k) D_j x_k / (2 y_k).  Carried through u and v in
    first-order dual numbers, they must give D_1 b1_k = b2_k,
    D_1 b2_k = b3_k and D_k b1_1 = b2_k.

(b) and (c) come from the 2-polar and the Abel map, which the engine uses
nowhere: they are the independent checks of the w half and of the b3 level.

Which check covers which change, at g = 3 unless named:
- a wrong term in an la entry that b3 is not solved from,
  ``la_14 + b3_1*b1_1*b3_5``: (a);
- a wrong term in an la entry that b3 is solved from,
  ``la_8 + la_4*b1_1^2``, which the lambda = 0 oracle misses: (a), (b) and
  (c), through the wrong b3_5 it gives;
- a wrong term in a w entry, ``w_3_3 + b1_1*b1_3`` or
  ``w_3_5 + b2_1^2*b1_1``: (b);
- a change that only relabels b3, at g = 1 ``la_4 + b1_1^2`` together with
  ``la_6 - b1_1^3``: (c) alone.
"""

import random
from fractions import Fraction
from functools import reduce
from math import prod

import pytest

from hypfield import rewriter
from hypfield.polyring import b1, b2, b3
from hypfield.relations import GenusContext
from test_lambda_zero import corrupt, gen

# the genera checked and the points at each; (c) runs at g <= 3
POINTS = {1: 2, 2: 2, 3: 2, 4: 2, 5: 1, 6: 1}
FLOW_GENERA = (1, 2, 3)


class Dual:
    """a + d*eps with eps^2 = 0: a value and its derivative along one flow."""

    __slots__ = ("a", "d")

    def __init__(self, a, d=0):
        self.a, self.d = a, d

    def __add__(self, other):
        other = _dual(other)
        return Dual(self.a + other.a, self.d + other.d)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.a, -self.d)

    def __sub__(self, other):
        return self + -_dual(other)

    def __rsub__(self, other):
        return _dual(other) - self

    def __mul__(self, other):
        other = _dual(other)
        return Dual(self.a * other.a, self.a * other.d + self.d * other.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _dual(other)
        return Dual(self.a / other.a, (self.d * other.a - self.a * other.d) / other.a ** 2)

    def __rtruediv__(self, other):
        return _dual(other) / self


def _dual(x) -> Dual:
    return x if isinstance(x, Dual) else Dual(x)


def odd(g: int, j: int) -> int:
    """The table's index of classical index j."""
    return 2 * (g - j) + 1


def poly_mul(p: list, q: list) -> list:
    """The product of two coefficient lists, lowest degree first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] = out[i + j] + x * y
    return out


def lagrange(xs: list) -> list:
    """The coefficients of each L_k(X) = prod_{m != k} (X - x_m) / (x_k - x_m)."""
    basis = []
    for k, xk in enumerate(xs):
        others = xs[:k] + xs[k + 1:]
        numerator = reduce(poly_mul, ([-x, 1] for x in others), [Fraction(1)])
        scale = prod((xk - x for x in others), start=Fraction(1))
        basis.append([c / scale for c in numerator])
    return basis


def generators(xs: list, ys: list) -> tuple:
    """b1 and b2 by classical index, from u and v of the divisor."""
    g = len(xs)
    u = reduce(poly_mul, ([-x, 1] for x in xs), [Fraction(1)])
    v = [sum(y * basis[j] for y, basis in zip(ys, lagrange(xs))) for j in range(g)]
    return {j: -u[j - 1] for j in range(1, g + 1)}, {j: v[j - 1] for j in range(1, g + 1)}


def solve(rows: list, rhs: list) -> list:
    """The exact solution of the square system ``rows @ x = rhs``."""
    n = len(rows)
    m = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if m[r][c])
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [v / m[c][c] for v in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                m[r] = [v - m[r][c] * w for v, w in zip(m[r], m[c])]
    return [row[n] for row in m]


def curve_point(g: int, seed: int) -> tuple:
    """Distinct x_k, and nonzero y_k and la_4..la_{2g+2}, drawn from
    ``seed``; the coefficients a_p of the curve through the g points
    (x_k, y_k)."""
    rng = random.Random(seed)

    def nonzero():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))

    grid = sorted({Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3)})
    xs = rng.sample(grid, g)
    ys = [nonzero() for _ in xs]
    a = [Fraction(0)] * (2 * g + 2)
    a[2 * g + 1] = Fraction(4)
    for s in range(4, 2 * g + 3, 2):
        a[2 * g + 1 - s // 2] = 4 * nonzero()
    # the low part interpolates y_k^2 minus the high part at the x_k
    rest = [y * y - at(a, x) for x, y in zip(xs, ys)]
    a[:g] = [sum(r * basis[p] for r, basis in zip(rest, lagrange(xs))) for p in range(g)]
    return xs, ys, a


def entries(g: int) -> dict:
    """Each entry of ``rewriter.build_table``'s genus-g table, by name, as
    ``(coefficient, {generator: exponent})`` terms read off its text."""
    lines = "".join(rewriter.build_table(GenusContext(g)).lines()).splitlines()
    out = {}
    for name, text in (line.split(" = ") for line in lines if " = " in line):
        out[name] = []
        for term in text.replace(" - ", " + -").split(" + "):
            coeff, powers = Fraction(1), {}
            if term.startswith("-"):
                coeff, term = -coeff, term[1:]
            for factor in term.split("*"):
                base, _, exponent = factor.partition("^")
                if base[0].isdigit():
                    coeff *= Fraction(base)
                else:
                    powers[base] = int(exponent or 1)
            out[name].append((coeff, powers))
    return out


def at(coeffs: list, x):
    """The polynomial of ``coeffs``, lowest degree first, at ``x``."""
    return sum(c * x ** p for p, c in enumerate(coeffs))


def value(terms: list, values: dict):
    """A table entry's ``terms`` at the generator ``values``."""
    return sum(c * prod(values[n] ** e for n, e in powers.items()) for c, powers in terms)


def failures(g: int, seed: int, flows: bool) -> dict:
    """The names that miss their value at the point of ``seed``, for each
    of the checks (a), (b) and, if ``flows``, (c)."""
    table = entries(g)
    xs, ys, a = curve_point(g, seed)
    b1s, b2s = generators(xs, ys)
    values = {f"b1_{odd(g, j)}": b1s[j] for j in b1s}
    values.update({f"b2_{odd(g, j)}": b2s[j] for j in b2s})
    missed = lambda_failures(g, table, a, values)  # which also sets the b3 values
    return {
        "a": missed,
        "b": polar_failures(g, table, xs, ys, a, values),
        "c": flow_failures(g, xs, ys, a, values) if flows else set(),
    }


def lambda_failures(g: int, table: dict, a: list, values: dict) -> set:
    """(a): set ``values``' b3_{s-3} from la_s at s <= 2g+2, ascending; the
    la entries that then miss the curve's parameters."""
    lam = {4 * g + 2 - 2 * p: a[p] / 4 for p in range(2 * g)}
    values.update({f"b3_{k}": Fraction(0) for k in range(1, 2 * g, 2)})
    for s in range(4, 2 * g + 3, 2):
        at = []
        for trial in (0, 1):
            values[f"b3_{s - 3}"] = Fraction(trial)
            at.append(value(table[f"la_{s}"], values))
        values[f"b3_{s - 3}"] = (lam[s] - at[0]) / (at[1] - at[0])
    return {f"la_{s}" for s in lam if value(table[f"la_{s}"], values) != lam[s]}


def polar_failures(g: int, table: dict, xs: list, ys: list, a: list, values: dict) -> set:
    """(b): the w entries that miss their wp_ij, i <= j < g, solved from the
    2-polar at each pair of points with the wp_gj known."""
    known = {(i, g): values[f"b1_{odd(g, i)}"] for i in range(1, g + 1)}
    unknown = [(i, j) for i in range(1, g) for j in range(i, g)]
    rows, rhs = [], []
    for k in range(g):
        for l in range(k + 1, g):
            x, z = xs[k], xs[l]

            def sym(i, j):
                return x ** (i - 1) * z ** (j - 1) + (x ** (j - 1) * z ** (i - 1) if i != j else 0)

            polar = sum(x ** i * z ** i * (2 * a[2 * i] + a[2 * i + 1] * (x + z))
                        for i in range(g + 1))
            polar = (polar - 2 * ys[k] * ys[l]) / (4 * (x - z) ** 2)
            rhs.append(polar - sum(wp * sym(i, j) for (i, j), wp in known.items()))
            rows.append([sym(i, j) for i, j in unknown])
    wps = dict(zip(unknown, solve(rows, rhs)))
    names = {(i, j): f"w_{odd(g, j)}_{odd(g, i)}" for i, j in unknown}
    return {names[ij] for ij, wp in wps.items() if value(table[names[ij]], values) != wp}


def flow_failures(g: int, xs: list, ys: list, a: list, values: dict) -> set:
    """(c): the identities D_1 b1_k = b2_k, D_1 b2_k = b3_k and
    D_k b1_1 = b2_k that fail, each flow D_j carried through u and v in dual
    numbers."""
    basis = lagrange(xs)
    fprime = [p * c for p, c in enumerate(a)][1:]
    out = set()
    for j in range(1, g + 1):
        dxs = [y * basis[k][j - 1] for k, y in enumerate(ys)]
        dys = [at(fprime, x) * dx / (2 * y) for x, y, dx in zip(xs, ys, dxs)]
        d1, d2 = generators([Dual(x, dx) for x, dx in zip(xs, dxs)],
                            [Dual(y, dy) for y, dy in zip(ys, dys)])
        if d1[g].d != values[f"b2_{odd(g, j)}"]:
            out.add(f"D_{odd(g, j)} b1_1")
        if j == g:  # D_1
            for i, k in ((i, odd(g, i)) for i in range(1, g + 1)):
                if d1[i].d != values[f"b2_{k}"]:
                    out.add(f"D_1 b1_{k}")
                if d2[i].d != values[f"b3_{k}"]:
                    out.add(f"D_1 b2_{k}")
    return out

def caught(g: int) -> set:
    """The checks that fail at some point of genus g."""
    return {
        check
        for seed in range(POINTS[g])
        for check, names in failures(g, seed, g in FLOW_GENERA).items()
        if names
    }


@pytest.mark.parametrize("g", list(POINTS))
def test_table_by_jacobi_inversion(g):
    for seed in range(POINTS[g]):
        assert failures(g, seed, g in FLOW_GENERA) == {"a": set(), "b": set(), "c": set()}


CORRUPTIONS = {  # at g = 3: the entry, what is added to it, the checks that fail
    "w_3_3 + b1_1*b1_3": ("w_3_3", lambda table: gen(b1, 1) * gen(b1, 3), "b"),
    "w_3_5 + b2_1^2*b1_1": ("w_3_5", lambda table: gen(b2, 1) ** 2 * gen(b1, 1), "b"),
    "la_14 + b3_1*b1_1*b3_5": ("la_14", lambda table: gen(b3, 1) * gen(b1, 1) * gen(b3, 5), "a"),
    "la_8 + la_4*b1_1^2": ("la_8", lambda table: table.lam[4] * gen(b1, 1) ** 2, "abc"),
}


@pytest.mark.parametrize("name, extra, checks", list(CORRUPTIONS.values()), ids=list(CORRUPTIONS))
def test_a_wrong_term_is_caught(monkeypatch, name, extra, checks):
    corrupt(monkeypatch, name, extra)
    assert caught(3) == set(checks)


def test_a_relabelled_b3_is_caught_by_the_flows_alone(monkeypatch):
    # b3_1 - 2*b1_1^2 in place of b3_1 leaves every la and w value in place
    corrupt(monkeypatch, "la_4", lambda table: gen(b1, 1) ** 2)
    corrupt(monkeypatch, "la_6", lambda table: -gen(b1, 1) ** 3)
    assert caught(1) == {"c"}
