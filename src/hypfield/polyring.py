"""Graded sparse multivariate polynomials over Q and truncated xi-series.

The variables are the generator symbols ``b1_k, b2_k, b3_k`` (k odd), the
auxiliary two-index symbols ``w_k_l`` (k <= l, both odd and >= 3) and the
curve parameters ``la_s`` (s even).  Each symbol carries an integer weight
and every identity handled by the engine is homogeneous with respect to it:

    |b1_k| = 1 + k    |b2_k| = 2 + k    |b3_k| = 3 + k
    |w_k_l| = k + l   |la_s| = s

Terms are printed in a canonical graded-lex order over the fixed symbol
order b1_1 < b1_3 < ... < b2_1 < ... < b3_1 < ... < w_3_3 < ... < la_4 < ...,
so serialized polynomials are byte-stable across runs.  That order is
``Symbol``'s own tuple order: a symbol is the tuple ``(rank, indices)``.

Inside a ``Poly`` a monomial is one nonnegative int (the packed layout of
Monagan & Pearce, "Sparse polynomial multiplication and division in
Maple 14", 2009), so a monomial product is one integer addition:

    bits 0..63                the monomial's weight; bit 63 is a guard bit
    bits 64+16i .. 64+16i+15  the exponent of the i-th registered symbol;
                              the top bit of the field is its guard bit

A symbol gets the next free field the first time any polynomial uses it, so
the layout depends on the order of first use within a process.  Nothing
outside this module sees it: callers go through ``Poly(terms)``,
``Poly.symbol``, ``Poly.sum_of_products``, ``sorted_terms``, ``coeff``,
``symbols``, ``at_point`` and ``strip_common_monomial``, which speak in
symbols and ``(Symbol, exponent)`` tuples, and pickling stores that
symbolic form.  Each exponent is at most ``MAX_EXPONENT`` (32,767); a sum
of two exponents below the cap never carries out of its field, and a
product or power that sets a guard bit raises ``ExponentOverflow`` instead
of wrapping.

``Poly.terms`` maps each packed monomial to an int numerator over the one
positive denominator ``Poly.den``, and the pair is kept in lowest terms, so
equal polynomials have equal ``terms`` and ``den``.

Printing, ``sorted_terms`` and ``leading_coeff`` order the terms by one int
per monomial, its order key: the weight above one 16-bit field per
registered symbol, the fields in symbol order with the first symbol's
highest.  Keys compare as (weight, exponent vector in symbol order) do
lexicographically, so a descending sort of the keys is the print order in
any process, whatever order it registered its symbols in; the key layout
is rebuilt from the registry when the registry has grown.  Reading a key's
nonzero fields from the top gives the term's factors in symbol order.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm
from operator import or_

_KINDS = ("b1", "b2", "b3", "w", "la")  # in symbol order
_KIND_BASE_WEIGHT = {"b1": 1, "b2": 2, "b3": 3}


class OffsetUnderflow(ArithmeticError):
    """A xi-series product produced a nonzero coefficient below xi^-1."""


class ExponentOverflow(ArithmeticError):
    """A product or power would raise a symbol past ``MAX_EXPONENT``."""


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


# The named constructors intern: each returns one shared, already validated
# Symbol per name, so building a relation validates none of its symbols.

@cache
def b1(k: int) -> Symbol:
    return Symbol("b1", (k,))


@cache
def b2(k: int) -> Symbol:
    return Symbol("b2", (k,))


@cache
def b3(k: int) -> Symbol:
    return Symbol("b3", (k,))


@cache
def w(k: int, l: int) -> Symbol:
    if k > l:
        return w(l, k)
    return Symbol("w", (k, l))


@cache
def la(s: int) -> Symbol:
    return Symbol("la", (s,))


# --- packed monomials -------------------------------------------------------

_WEIGHT_BITS = 64
_WEIGHT_MASK = (1 << _WEIGHT_BITS) - 1
_FIELD_BITS = 16
MAX_EXPONENT = (1 << (_FIELD_BITS - 1)) - 1  # 32767; the field's top bit is the guard

# The registry, one entry per field in order of first use: the symbol, its
# packed first power (field bit plus weight) and its printed name.  It only
# grows, and no packed value leaves this module, so sharing it across the
# process is invisible to callers; the lock keeps concurrent first uses of a
# symbol from taking two fields.
_SYMS: list = []
_UNITS: list = []
_NAMES: list = []
_FIELD_OF: dict = {}  # Symbol -> field index
_guard = 1 << (_WEIGHT_BITS - 1)  # the guard bits of the weight and of every field
_registry_lock = threading.Lock()


def _field(sym: Symbol) -> int:
    i = _FIELD_OF.get(sym)
    if i is None:
        global _guard
        with _registry_lock:
            i = _FIELD_OF.get(sym)
            if i is None:
                i = len(_SYMS)
                shift = _WEIGHT_BITS + _FIELD_BITS * i
                _SYMS.append(sym)
                _UNITS.append((1 << shift) + sym.weight)
                _NAMES.append(sym.name)
                _guard |= 1 << (shift + _FIELD_BITS - 1)
                _FIELD_OF[sym] = i
    return i


def _factors(m: int) -> list:
    """``(field, exponent)`` for each nonzero field of ``m``, top field first.

    Only the nonzero fields are visited, so the cost grows with the number
    of symbols in the monomial, not with the number registered."""
    m >>= _WEIGHT_BITS
    out = []
    while m:
        i = (m.bit_length() - 1) // _FIELD_BITS
        shift = _FIELD_BITS * i
        e = m >> shift
        out.append((i, e))
        m ^= e << shift
    return out


def _pack(mono) -> int:
    exps = {}
    for sym, e in mono:
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent of {sym} must be a nonnegative integer, got {e!r}")
        exps[sym] = exps.get(sym, 0) + e
    m = 0
    for sym, e in exps.items():
        if e > MAX_EXPONENT:
            raise ExponentOverflow(f"exponent {e} of {sym} is above {MAX_EXPONENT}")
        m += e * _UNITS[_field(sym)]
    return m


# Where an order key (see the module docstring) keeps each field, as the
# tuple (shifts, syms, names, top, below): shifts[i] is the key position of
# field i's exponent, syms[j] and names[j] the symbol of key field j and its
# name, top the key position of the weight, and below[i] the mask of the
# fields under field i, in a key or a monomial.
_layout = ([], [], [], 0, [])


def _print_layout() -> tuple:
    """The layout for every symbol registered so far, rebuilt once one more
    has registered."""
    global _layout
    layout = _layout
    if len(layout[0]) != len(_SYMS):
        with _registry_lock:
            n = len(_SYMS)
            fields = sorted(range(n), key=_SYMS.__getitem__, reverse=True)  # key field j -> field
            shifts = [0] * n
            for j, i in enumerate(fields):
                shifts[i] = _FIELD_BITS * j
            layout = _layout = (
                shifts, [_SYMS[i] for i in fields], [_NAMES[i] for i in fields], _FIELD_BITS * n,
                [(1 << _FIELD_BITS * i) - 1 for i in range(n)],
            )
    return layout


def _keyed(terms: dict, layout: tuple) -> list:
    """``(order key, numerator)`` for every term, in no particular order.

    Like ``_factors`` it visits only the nonzero fields, top first; it is
    written out because keying every term is much of what printing costs."""
    shifts, _, _, top, below = layout
    out = []
    for m, c in terms.items():
        k = (m & _WEIGHT_MASK) << top
        x = m >> _WEIGHT_BITS
        while x:
            i = (x.bit_length() - 1) // _FIELD_BITS
            k += (x >> _FIELD_BITS * i) << shifts[i]
            x &= below[i]
        out.append((k, c))
    return out


def _poly(terms: dict, den: int = 1) -> "Poly":
    """The private constructor: packed monomial -> int numerator over
    ``den`` > 0.  Drops zero numerators and divides out ``gcd(den, *terms)``."""
    if 0 in terms.values():
        terms = {m: c for m, c in terms.items() if c}
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {m: c // g for m, c in terms.items()}
    p = object.__new__(Poly)
    p.terms, p.den = terms, den
    return p


def _check_overflow(a: dict, b: dict, out: dict) -> None:
    # OR-ing a polynomial's monomials bounds each field from above by less
    # than twice its largest exponent; only when two such bounds could carry
    # are the product's own monomials tested.
    if (reduce(or_, a) + reduce(or_, b)) & _guard and reduce(or_, out) & _guard:
        raise ExponentOverflow(f"a product raises an exponent above {MAX_EXPONENT}")


class Poly:
    """Sparse polynomial over Q in the graded symbols. Immutable by convention.

    ``Poly(terms)`` takes ``{((Symbol, exponent), ...): coefficient}`` with
    int or Fraction coefficients; every operation returns a new ``Poly``."""

    __slots__ = ("terms", "den")

    def __init__(self, terms=None):
        coeffs = {}
        for mono, c in (terms or {}).items():
            m = _pack(mono)
            coeffs[m] = coeffs.get(m, 0) + Fraction(c)
        den = lcm(*(q.denominator for q in coeffs.values()))
        p = _poly({m: q.numerator * (den // q.denominator) for m, q in coeffs.items()}, den)
        self.terms, self.den = p.terms, p.den

    def __reduce__(self):  # pickle and copy store the symbolic terms, never packed ints
        return Poly, (dict(self.sorted_terms()),)

    # constructors ---------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return _poly({})

    @classmethod
    def one(cls) -> "Poly":
        return _poly({0: 1})

    @classmethod
    def const(cls, q) -> "Poly":
        q = Fraction(q)
        return _poly({0: q.numerator}, q.denominator)

    @classmethod
    def symbol(cls, sym: Symbol) -> "Poly":
        return _poly({_UNITS[_field(sym)]: 1})

    @classmethod
    def sum_of_products(cls, products) -> "Poly":
        """The sum of ``c * s1 * s2 * ...`` over ``(c, s1, s2, ...)`` tuples
        with an int ``c`` and Symbols ``s1, s2, ...``.

        Each product goes straight into one packed monomial over
        denominator 1: no factor becomes a ``Poly`` of its own."""
        out = {}
        get = out.get
        for c, *syms in products:
            if not isinstance(c, int):
                raise TypeError(f"coefficient must be an int, got {c!r}")
            m = 0
            for sym in syms:
                m += _UNITS[_field(sym)]
            # a guard bit is set once a symbol repeats more than MAX_EXPONENT
            # times; the field could wrap past it only at 2**16 factors
            if m & _guard or len(syms) >> _FIELD_BITS:
                raise ExponentOverflow(f"a product raises an exponent above {MAX_EXPONENT}")
            out[m] = get(m, 0) + c
        return _poly(out)

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
        if not other.terms:
            return self
        if not self.terms:
            return other
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        out = dict(self.terms) if sa == 1 else {m: c * sa for m, c in self.terms.items()}
        get = out.get
        for m, c in other.terms.items():
            out[m] = get(m, 0) + c * sb
        return _poly(out, den)

    __radd__ = __add__

    def __neg__(self):
        return _poly({m: -c for m, c in self.terms.items()}, self.den)

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
            n = q.numerator
            return _poly({m: c * n for m, c in self.terms.items()}, self.den * q.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        if other.den == 1 and other.terms == {0: 1}:
            return self
        if self.den == 1 and self.terms == {0: 1}:
            return other
        a, b = self.terms, other.terms
        if not a or not b:
            return _poly({})
        if len(a) > len(b):  # the shorter polynomial drives the outer loop
            a, b = b, a
        out = {}
        get = out.get
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
        _check_overflow(a, b, out)
        return _poly(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """Binary powering that computes no product it does not use.

        ``p ** n`` takes ``n.bit_length() - 1`` squarings and
        ``popcount(n) - 1`` further products; ``p ** 0`` and ``p ** 1`` take
        none.  The result starts from the first factor it needs, not from
        ``Poly.one()``, and the base is never squared past the top bit, so a
        squaring overflows only when the power itself would.
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
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.den))

    def sorted_terms(self) -> list:
        """``[(((Symbol, exponent), ...), Fraction), ...]`` in print order."""
        layout = _print_layout()
        _, syms, _, top, _ = layout
        mask = (1 << top) - 1
        keyed = _keyed(self.terms, layout)
        keyed.sort(reverse=True)
        return [  # a key's fields, moved above the weight bits, read as a monomial's
            (
                tuple((syms[j], e) for j, e in _factors((k & mask) << _WEIGHT_BITS)),
                Fraction(c, self.den),
            )
            for k, c in keyed
        ]

    def leading_coeff(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return Fraction(max(_keyed(self.terms, _print_layout()))[1], self.den)

    def symbols(self) -> set:
        return {_SYMS[i] for i, _ in _factors(reduce(or_, self.terms, 0))}

    def coeff(self, sym: Symbol) -> Fraction:
        """Coefficient of the term that is ``sym`` alone, to the first power."""
        i = _FIELD_OF.get(sym)
        if i is None:
            return Fraction(0)
        return Fraction(self.terms.get(_UNITS[i], 0), self.den)

    # structural operations ------------------------------------------------

    def substitute(self, env: dict) -> "Poly":
        """Replace every mapped symbol by its polynomial image.

        Substitution is a ring homomorphism; unmapped symbols pass through.
        Each distinct ``(symbol, exponent)`` image is powered once (see
        ``__pow__``); a term with k mapped factors then takes k - 1 products,
        plus one by the monomial of its unmapped factors, if any.  The terms'
        numerators are added into one running dict per denominator, so a
        term with no mapped factor takes no product at all.
        """
        if not env:
            return self
        cache = {}
        groups = {}  # denominator -> {monomial: numerator}
        for mono, c in self.terms.items():
            term = None
            rest = mono
            for i, e in _factors(mono):
                image = env.get(_SYMS[i])
                if image is None:
                    continue
                rest -= e * _UNITS[i]
                power = cache.get((i, e))
                if power is None:
                    power = cache[i, e] = image ** e
                term = power if term is None else term * power
            if term is None:
                acc = groups.setdefault(1, {})
                acc[mono] = acc.get(mono, 0) + c
                continue
            if rest:
                term = term * _poly({rest: 1})
            acc = groups.setdefault(term.den, {})
            get = acc.get
            for m, v in term.terms.items():
                acc[m] = get(m, 0) + c * v
        den = lcm(*groups)
        out = {}
        get = out.get
        for d, acc in groups.items():
            scale = den // d
            for m, v in acc.items():
                out[m] = get(m, 0) + v * scale
        return _poly(out, den * self.den)

    def __str__(self):
        if not self.terms:
            return "0"
        den = self.den
        layout = _print_layout()
        _, _, names, top, below = layout
        mask = (1 << top) - 1
        keyed = _keyed(self.terms, layout)
        keyed.sort(reverse=True)
        parts = []
        for k, c in keyed:
            g = gcd(c, den)
            mag = str(abs(c) // g) if g == den else f"{abs(c) // g}/{den // g}"
            factors = []
            x = k & mask  # the symbol fields, read top first: in symbol order
            while x:
                j = (x.bit_length() - 1) // _FIELD_BITS
                e = x >> _FIELD_BITS * j
                x &= below[j]
                factors.append(names[j] if e == 1 else f"{names[j]}^{e}")
            mono = "*".join(factors)
            if not mono:
                body = mag
            elif mag == "1":
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" {'+' if c > 0 else '-'} {body}")
        return "".join(parts)

    def __repr__(self):
        return f"Poly({self})"


def strip_common_monomial(num: Poly, den: Poly):
    """Divide both polynomials by the largest monomial dividing every term
    of either; the pair comes back unchanged when that monomial is 1."""
    monos = [*num.terms, *den.terms]
    common = 0
    for i, e in _factors(monos[0] if monos else 0):
        shift = _WEIGHT_BITS + _FIELD_BITS * i
        for m in monos:
            e = min(e, (m >> shift) & MAX_EXPONENT)
            if not e:
                break
        common += e * _UNITS[i]
    if not common:
        return num, den

    def divide(p: Poly) -> Poly:
        return _poly({m - common: c for m, c in p.terms.items()}, p.den)

    return divide(num), divide(den)


def at_point(polys, env: dict, syms=()) -> tuple:
    """Each polynomial's value at a rational point, and its Jacobian row by
    ``syms`` there, in one pass over each polynomial's terms.

    ``env`` maps every symbol of the polynomials to an int or Fraction.
    The point is written over its common denominator D, with numerator n
    for each symbol: a term of degree d is an integer over D**d, and its
    derivative by one of its symbols an integer over D**(d-1), both made
    from the pairs ``(n**e, e*n**(e-1))``, each taken once for all the
    polynomials.  A polynomial's terms are summed by degree into buckets
    ``[value, *row]``, and each bucket is lifted once to the top degree t.
    Returns the values as Fractions and the rows as lists of ints, each
    row ``p.den * D**(t-1)`` times the true one.  Scaling a row by a
    positive number keeps the rank, which is what the rows are for."""
    point = {sym: Fraction(x) for sym, x in env.items()}
    den = lcm(*(x.denominator for x in point.values()))
    nums = {sym: x.numerator * (den // x.denominator) for sym, x in point.items()}
    column = {_FIELD_OF[s]: j for j, s in enumerate(syms, 1) if s in _FIELD_OF}
    width = 1 + len(syms)
    powers = {}  # (field, e) -> (n**e, e * n**(e-1)), n the field's numerator
    values, rows = [], []
    for p in polys:
        buckets = {}  # degree d -> [value over D**d, *row over D**(d-1)]
        for mono, c in p.terms.items():
            factors = _factors(mono)
            pairs = []
            d = 0
            value = c
            for i, e in factors:
                pair = powers.get((i, e))
                if pair is None:
                    n = nums[_SYMS[i]]
                    pair = powers[i, e] = (n**e, e * n ** (e - 1))
                pairs.append(pair)
                value *= pair[0]
                d += e
            acc = buckets.get(d)
            if acc is None:
                acc = buckets[d] = [0] * width
            acc[0] += value
            for k, (i, _) in enumerate(factors):
                j = column.get(i)
                if j is not None:
                    t = c
                    for kk, (power, slope) in enumerate(pairs):
                        t *= slope if kk == k else power
                    acc[j] += t
        top = max(buckets, default=0)
        total = [0] * width
        for d, acc in buckets.items():
            lift = den ** (top - d)
            for j, t in enumerate(acc):
                total[j] += t * lift
        values.append(Fraction(total[0], p.den * den**top))
        rows.append(total[1:])
    return values, rows


MIXED = None  # sentinel returned by homogeneous_weight for mixed-weight input


def homogeneous_weight(p: Poly):
    """Common weight of all terms, 0 for the zero polynomial, None if mixed."""
    weights = {m & _WEIGHT_MASK for m in p.terms}
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
