"""Graded sparse multivariate polynomials over Q and truncated xi-series.

The variables are the generator symbols ``b1_k, b2_k, b3_k`` (k odd), the
auxiliary two-index symbols ``w_k_l`` (k <= l, both odd and >= 3) and the
curve parameters ``la_s`` (s even).  Each symbol carries an integer weight
and every identity handled by the engine is homogeneous with respect to it:

    |b1_k| = 1 + k    |b2_k| = 2 + k    |b3_k| = 3 + k
    |w_k_l| = k + l   |la_s| = s

Terms are kept in a canonical graded-lex order over the fixed symbol order
b1_1 < b1_3 < ... < b2_1 < ... < b3_1 < ... < w_3_3 < ... < la_4 < ...,
so serialized polynomials are byte-stable across runs.  That order is
``Symbol``'s own tuple order: a symbol is the tuple ``(rank, indices)``.

The monomial layout is private to this module: no other module builds or
takes apart the keys of ``Poly.terms``.  Callers go through ``Poly.symbol``,
``Poly.coeff``, ``Poly.symbols`` and ``strip_common_monomial``.
"""

from __future__ import annotations

from fractions import Fraction

from .exactmath import format_rational

_KINDS = ("b1", "b2", "b3", "w", "la")  # in symbol order
_KIND_BASE_WEIGHT = {"b1": 1, "b2": 2, "b3": 3}


class OffsetUnderflow(ArithmeticError):
    """A xi-series product produced a nonzero coefficient below xi^-1."""


class Symbol(tuple):
    """A ring variable, the tuple ``(rank, indices)`` with ``rank`` the
    position of its kind in b1 < b2 < b3 < w < la.  Tuple order, equality and
    hash are therefore the canonical symbol order."""

    __slots__ = ()

    def __new__(cls, kind: str, indices: tuple):
        if kind not in _KINDS:
            raise ValueError(f"unknown symbol kind {kind!r}")
        idx = indices
        if kind in ("b1", "b2", "b3"):
            if len(idx) != 1 or idx[0] < 1 or idx[0] % 2 == 0:
                raise ValueError(f"{kind} needs a single odd index, got {idx}")
        elif kind == "w":
            if (
                len(idx) != 2
                or idx[0] > idx[1]
                or idx[0] < 3
                or any(i % 2 == 0 for i in idx)
            ):
                raise ValueError(f"w needs an odd canonical pair (k<=l, k>=3), got {idx}")
        else:  # la
            if len(idx) != 1 or idx[0] < 4 or idx[0] % 2 != 0:
                raise ValueError(f"la needs a single even index >= 4, got {idx}")
        return super().__new__(cls, (_KINDS.index(kind), idx))

    @property
    def kind(self) -> str:
        return _KINDS[self[0]]

    @property
    def indices(self) -> tuple:
        return self[1]

    @property
    def weight(self) -> int:
        if self.kind in _KIND_BASE_WEIGHT:
            return _KIND_BASE_WEIGHT[self.kind] + self.indices[0]
        return sum(self.indices)

    @property
    def name(self) -> str:
        return self.kind + "_" + "_".join(str(i) for i in self.indices)

    def __getnewargs__(self):  # for pickle and copy, which call __new__
        return self.kind, self.indices

    def __repr__(self):  # str() too, as tuple has no __str__ of its own
        return self.name


def b1(k: int) -> Symbol:
    return Symbol("b1", (k,))


def b2(k: int) -> Symbol:
    return Symbol("b2", (k,))


def b3(k: int) -> Symbol:
    return Symbol("b3", (k,))


def w(k: int, l: int) -> Symbol:
    if k > l:
        k, l = l, k
    return Symbol("w", (k, l))


def la(s: int) -> Symbol:
    return Symbol("la", (s,))


# A monomial is a tuple of (Symbol, exponent) pairs sorted by symbol order,
# exponents strictly positive. The empty tuple is the constant monomial.

def mono_mul(m1: tuple, m2: tuple) -> tuple:
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for sym, e in m2:
        exps[sym] = exps.get(sym, 0) + e
    return tuple(sorted(exps.items()))


def mono_weight(m: tuple) -> int:
    return sum(sym.weight * e for sym, e in m)


def mono_sort_key(m: tuple) -> tuple:
    # graded-lex, descending: heavier first, then lexicographically larger
    # exponent vectors first (smaller tuple compares first, hence the -e)
    return (-mono_weight(m), tuple((sym, -e) for sym, e in m))


def mono_str(m: tuple) -> str:
    if not m:
        return "1"
    parts = []
    for sym, e in m:
        parts.append(sym.name if e == 1 else f"{sym.name}^{e}")
    return "*".join(parts)


class Poly:
    """Sparse polynomial over Q in the graded symbols. Immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
                if coeff:
                    clean[mono] = coeff
        object.__setattr__(self, "terms", clean)

    # constructors ---------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls({(): Fraction(1)})

    @classmethod
    def const(cls, q) -> "Poly":
        return cls({(): Fraction(q)})

    @classmethod
    def symbol(cls, sym: Symbol) -> "Poly":
        return cls({((sym, 1),): Fraction(1)})

    # ring operations ------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Poly":
        if isinstance(x, Poly):
            return x
        if isinstance(x, (int, Fraction)):
            return Poly.const(x)
        return NotImplemented

    def __add__(self, other):
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return Poly({m: c * q for m, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """Binary powering that computes no product it does not use.

        ``p ** n`` takes ``n.bit_length() - 1`` squarings and
        ``popcount(n) - 1`` further products; ``p ** 0`` and ``p ** 1`` take
        none.  The result starts from the first factor it needs, not from
        ``Poly.one()``, and the base is never squared past the top bit.
        """
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        if n == 0:
            return Poly.one()
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        result = base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                result = result * base
            n >>= 1
        return result

    # predicates and views -------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda it: mono_sort_key(it[0]))

    def leading_coeff(self) -> Fraction:
        terms = self.sorted_terms()
        if not terms:
            return Fraction(0)
        return terms[0][1]

    def symbols(self) -> set:
        out = set()
        for mono in self.terms:
            for sym, _ in mono:
                out.add(sym)
        return out

    def coeff(self, sym: Symbol) -> Fraction:
        """Coefficient of the term that is ``sym`` alone, to the first power."""
        return self.terms.get(((sym, 1),), Fraction(0))

    # structural operations ------------------------------------------------

    def substitute(self, env: dict) -> "Poly":
        """Replace every mapped symbol by its polynomial image.

        Substitution is a ring homomorphism; unmapped symbols pass through.
        Each distinct ``(symbol, exponent)`` image is powered once (see
        ``__pow__``); a term with k factors then takes k - 1 products, and
        its coefficient-scaled terms are added straight into one running
        coefficient dict, so a constant or single-factor term takes none.
        """
        if not env:
            return self
        cache = {}

        def image_pow(sym: Symbol, e: int) -> "Poly":
            key = (sym, e)
            if key not in cache:
                base = env.get(sym)
                if base is None:
                    cache[key] = Poly({((sym, e),): Fraction(1)})
                else:
                    cache[key] = base ** e
            return cache[key]

        one = Poly.one()
        out = {}
        for mono, c in self.terms.items():
            factors = [image_pow(sym, e) for sym, e in mono] or [one]
            term = factors[0]
            for image in factors[1:]:
                term = term * image
            for m, v in term.terms.items():
                out[m] = out.get(m, 0) + c * v
        return Poly(out)

    def evaluate(self, env: dict):
        """Numeric evaluation; env must cover every symbol of the polynomial.

        Works for any coefficient-compatible scalar type (Fraction, complex).
        """
        total = None
        for mono, c in self.terms.items():
            val = c
            for sym, e in mono:
                val = val * env[sym] ** e
            total = val if total is None else total + val
        return Fraction(0) if total is None else total

    def diff(self, sym: Symbol) -> "Poly":
        """Partial derivative with respect to one symbol, termwise."""
        out = {}
        for mono, c in self.terms.items():
            exps = dict(mono)
            e = exps.get(sym)
            if not e:
                continue
            if e == 1:
                del exps[sym]
            else:
                exps[sym] = e - 1
            m = tuple(sorted(exps.items()))
            out[m] = out.get(m, Fraction(0)) + c * e
        return Poly(out)

    def __str__(self):
        terms = self.sorted_terms()
        if not terms:
            return "0"
        parts = []
        for i, (mono, coeff) in enumerate(terms):
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            if not mono:
                body = format_rational(mag)
            elif mag == 1:
                body = mono_str(mono)
            else:
                body = f"{format_rational(mag)}*{mono_str(mono)}"
            if i == 0:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self):
        return f"Poly({self})"


def strip_common_monomial(num: Poly, den: Poly):
    """Divide both polynomials by the largest monomial dividing every term
    of either; the pair comes back unchanged when that monomial is 1."""
    monos = iter([*num.terms, *den.terms])
    common = dict(next(monos, ()))
    for mono in monos:
        if not common:
            break
        exps = dict(mono)
        common = {sym: min(e, exps[sym]) for sym, e in common.items() if sym in exps}
    if not common:
        return num, den

    def divide(p: Poly) -> Poly:
        return Poly({
            tuple((sym, e - common.get(sym, 0)) for sym, e in mono if e != common.get(sym, 0)): c
            for mono, c in p.terms.items()
        })

    return divide(num), divide(den)


MIXED = None  # sentinel returned by homogeneous_weight for mixed-weight input


def homogeneous_weight(p: Poly):
    """Common weight of all terms, 0 for the zero polynomial, None if mixed."""
    weights = {mono_weight(m) for m in p.terms}
    if not weights:
        return 0
    if len(weights) == 1:
        return weights.pop()
    return MIXED


class XiSeries:
    """Truncated Laurent series in xi with Poly coefficients.

    Powers run from -1 to 2g inclusive; anything above 2g is discarded and
    a product that would need xi^-2 raises OffsetUnderflow.
    """

    __slots__ = ("genus", "coeffs")

    MIN_POWER = -1

    def __init__(self, genus: int, coeffs=None):
        if genus < 1:
            raise ValueError("genus must be >= 1")
        n = 2 * genus + 2  # powers -1 .. 2g
        if coeffs is None:
            coeffs = [Poly.zero()] * n
        coeffs = list(coeffs)
        if len(coeffs) != n:
            raise ValueError(f"expected {n} coefficients, got {len(coeffs)}")
        self.genus = genus
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_terms(cls, genus: int, terms: dict) -> "XiSeries":
        n = 2 * genus + 2
        coeffs = [Poly.zero()] * n
        for power, poly in terms.items():
            if power < -1 or power > 2 * genus:
                raise ValueError(f"power {power} outside -1..{2 * genus}")
            if not isinstance(poly, Poly):
                poly = Poly.const(poly)
            coeffs[power + 1] = poly
        return cls(genus, coeffs)

    def __getitem__(self, power: int) -> Poly:
        if power < -1 or power > 2 * self.genus:
            raise IndexError(f"power {power} outside -1..{2 * self.genus}")
        return self.coeffs[power + 1]

    def _check_genus(self, other: "XiSeries"):
        if self.genus != other.genus:
            raise ValueError("xi-series of different genus")

    def __add__(self, other: "XiSeries") -> "XiSeries":
        self._check_genus(other)
        return XiSeries(
            self.genus, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self) -> "XiSeries":
        return XiSeries(self.genus, [-a for a in self.coeffs])

    def __sub__(self, other: "XiSeries") -> "XiSeries":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return XiSeries(self.genus, [c * other for c in self.coeffs])
        self._check_genus(other)
        top = 2 * self.genus
        under = Poly.zero()
        out = [Poly.zero()] * (top + 2)
        for pa in range(-1, top + 1):
            a = self[pa]
            if a.is_zero():
                continue
            for pb in range(-1, top + 1):
                b = other[pb]
                if b.is_zero():
                    continue
                p = pa + pb
                if p > top:
                    continue
                if p < -1:
                    under = under + a * b
                    continue
                out[p + 1] = out[p + 1] + a * b
        if not under.is_zero():
            raise OffsetUnderflow("product has a nonzero coefficient below xi^-1")
        return XiSeries(self.genus, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, XiSeries)
            and self.genus == other.genus
            and self.coeffs == other.coeffs
        )

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __str__(self):
        parts = []
        for power in range(-1, 2 * self.genus + 1):
            c = self[power]
            if not c.is_zero():
                parts.append(f"xi^{power}: ({c})")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"XiSeries(g={self.genus}, {self})"
