"""Graded polynomial ring and truncated xi-series.

Ring laws are property-tested; arithmetic, substitution, derivatives,
evaluation and printing are checked against a dict-of-tuples oracle written
independently here, and the series product against a naive dict-based
convolution oracle.
"""

import copy
import os
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypfield
from hypfield.polyring import (
    MAX_EXPONENT,
    MIXED,
    ExponentOverflow,
    OffsetUnderflow,
    Poly,
    Symbol,
    XiSeries,
    at_point,
    b1,
    b2,
    b3,
    homogeneous_weight,
    la,
    w,
)

SYMS = [b1(1), b1(3), b2(1), b2(3), b3(1), b3(5), w(3, 3), w(3, 5), la(4), la(8)]

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)


@st.composite
def monomials(draw):
    picks = draw(st.lists(st.sampled_from(SYMS), max_size=3))
    exps = {}
    for s in picks:
        exps[s] = exps.get(s, 0) + 1
    return tuple(sorted(exps.items()))


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(monomials(), coeffs, max_size=4))
    return Poly(terms)


# --- symbols ----------------------------------------------------------------

@pytest.mark.parametrize(
    "bad",
    [
        lambda: b1(2),
        lambda: b2(0),
        lambda: b3(-1),
        lambda: w(2, 3),
        lambda: w(1, 3),
        lambda: Symbol("w", (5, 3)),
        lambda: la(3),
        lambda: la(2),
        lambda: Symbol("zz", (1,)),
    ],
)
def test_symbol_validation(bad):
    with pytest.raises(ValueError):
        bad()


@pytest.mark.parametrize(
    "sym,weight,name",
    [
        (b1(1), 2, "b1_1"),
        (b1(3), 4, "b1_3"),
        (b2(1), 3, "b2_1"),
        (b3(5), 8, "b3_5"),
        (w(3, 5), 8, "w_3_5"),
        (la(10), 10, "la_10"),
    ],
)
def test_symbol_weight_and_name(sym, weight, name):
    assert sym.weight == weight
    assert sym.name == name


def test_w_constructor_sorts_indices():
    assert w(5, 3) == w(3, 5)


def test_symbol_order_is_kind_then_index():
    assert sorted([la(4), w(3, 5), b3(1), w(3, 3), b2(3), b1(3), b2(1), b1(1)]) == [
        b1(1), b1(3), b2(1), b2(3), b3(1), w(3, 3), w(3, 5), la(4)
    ]
    assert str(w(3, 5)) == repr(w(3, 5)) == "w_3_5"


def test_polynomials_survive_pickle_and_deepcopy():
    p = Poly.symbol(w(3, 5)) * Poly.symbol(b1(1)) - Fraction(1, 2) * Poly.symbol(la(4))
    for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert q == p and str(q) == str(p)
        assert all(type(s) is Symbol for s in q.symbols())


# --- ring laws --------------------------------------------------------------

@given(polys(), polys(), polys())
@settings(max_examples=50, deadline=None)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Poly.zero() == p
    assert p * Poly.one() == p
    assert p - p == Poly.zero()


@given(polys(), st.integers(0, 4))
@settings(max_examples=30, deadline=None)
def test_pow_matches_repeated_product(p, n):
    expected = Poly.one()
    for _ in range(n):
        expected = expected * p
    assert p ** n == expected


def test_pow_negative_rejected():
    with pytest.raises(ValueError):
        Poly.one() ** -1


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 6, 8])
def test_pow_multiply_count(monkeypatch, n):
    """p ** n takes n.bit_length() - 1 squarings plus popcount(n) - 1 further
    products, and never forms a power of degree above n."""
    x = Poly.symbol(b1(1)) + Poly.symbol(b2(1))
    degrees = []
    mul = Poly.__mul__

    def counting_mul(a, b):
        out = mul(a, b)
        degrees.append(max(sum(e for _, e in m) for m, _ in out.sorted_terms()))
        return out

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    result = x ** n
    monkeypatch.undo()
    expected = 0 if n == 0 else n.bit_length() - 1 + bin(n).count("1") - 1
    assert len(degrees) == expected
    assert max(degrees, default=0) <= n
    product = Poly.one()
    for _ in range(n):
        product = product * x
    assert result == product


@given(polys())
@settings(max_examples=30, deadline=None)
def test_scalar_coercion(p):
    assert 2 * p == p + p
    assert p + 0 == p
    assert 1 - p == Poly.one() - p


@given(polys())
@settings(max_examples=30, deadline=None)
def test_product_with_one_is_the_other_factor(p):
    one = Poly.one()
    half = p * Fraction(1, 2)
    for q in (p, half):
        for got in (q * one, one * q):
            assert got == q and got.den == q.den and got.terms == q.terms
    assert one * one == one


# --- independent oracle -----------------------------------------------------
# A reference polynomial is a dict {((Symbol, e), ...) sorted by symbol:
# Fraction} with no zero coefficient, and every operation on it is the
# schoolbook one.

def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            exps = dict(m1)
            for s, e in m2:
                exps[s] = exps.get(s, 0) + e
            m = tuple(sorted(exps.items()))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def ref_pow(a, n):
    out = {(): Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_substitute(a, env):
    out = {}
    for m, c in a.items():
        term = {(): c}
        for s, e in m:
            term = ref_mul(term, ref_pow(env.get(s, {((s, 1),): Fraction(1)}), e))
        out = ref_add(out, term)
    return out


def ref_diff(a, sym):
    out = {}
    for m, c in a.items():
        e = dict(m).get(sym, 0)
        if e:
            rest = tuple((s, k - (s == sym)) for s, k in m if (s, k) != (sym, 1))
            out[rest] = c * e
    return out


def ref_evaluate(a, point):
    total = Fraction(0)
    for m, c in a.items():
        for s, e in m:
            c *= point[s] ** e
        total += c
    return total


KIND_ORDER = ["b1", "b2", "b3", "w", "la"]


def ref_sym_key(s):
    return KIND_ORDER.index(s.kind), s.indices


def ref_factors(m):
    """A monomial's factors in symbol order."""
    return tuple(sorted(m, key=lambda f: ref_sym_key(f[0])))


def ref_order(terms):
    """The terms, heaviest first, then by the exponent vector over the
    symbols (kind in b1 < b2 < b3 < w < la, then indices) descending."""
    terms = list(terms)
    syms = {s for m, _ in terms for s, _ in m}
    order = sorted(syms, key=ref_sym_key)

    def key(item):
        exps = dict(item[0])
        return sum(s.weight * e for s, e in exps.items()), [exps.get(s, 0) for s in order]

    return sorted(terms, key=key, reverse=True)


def ref_str(a):
    parts = []
    for m, c in ref_order(a.items()):
        mag = str(abs(c))  # Fraction prints n/d in lowest terms, n when d == 1
        mono = "*".join(s.name if e == 1 else f"{s.name}^{e}" for s, e in m)
        body = mag if not m else mono if mag == "1" else f"{mag}*{mono}"
        sign = "-" if c < 0 else "+"
        parts.append(f" {sign} {body}" if parts else body if c > 0 else f"-{body}")
    return "".join(parts) or "0"


# fresh symbols, so that hypothesis' draws decide the order they are
# registered in; the exponents include values just below and at the cap
WIDE_SYMS = [b1(1), b2(3), b1(99), b3(97), w(95, 99), w(3, 97), la(200), la(4)]
oracle_coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=30).filter(bool)
small_exps = st.integers(1, 3)
wide_exps = st.one_of(
    small_exps,
    st.integers(MAX_EXPONENT // 2 - 1, MAX_EXPONENT // 2 + 1),
    st.integers(MAX_EXPONENT - 1, MAX_EXPONENT),
)


@st.composite
def ref_polys(draw, exps=small_exps, max_terms=4):
    out = {}
    for _ in range(draw(st.integers(0, max_terms))):
        syms = draw(st.lists(st.sampled_from(WIDE_SYMS), max_size=3, unique=True))
        m = tuple(sorted((s, draw(exps)) for s in syms))
        out[m] = out.get(m, 0) + draw(oracle_coeffs)
    return {m: c for m, c in out.items() if c}


def view(p):
    return dict(p.sorted_terms())


def check(got, want):
    # the public view and the text against the oracle, and lowest terms:
    # equal to the same value built term by term
    assert view(got) == want and str(got) == ref_str(want) and got == Poly(want)


def overflows(ref):
    return any(e > MAX_EXPONENT for m in ref for _, e in m)


@given(ref_polys(wide_exps), ref_polys(wide_exps), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_arithmetic_matches_oracle(a, b, n):
    pa, pb = Poly(a), Poly(b)
    check(pa, a)
    check(pa + pb, ref_add(a, b))
    check(pa - pb, ref_add(a, {m: -c for m, c in b.items()}))
    for got, want in ((lambda: pa * pb, ref_mul(a, b)), (lambda: pa ** n, ref_pow(a, n))):
        if overflows(want):
            with pytest.raises(ExponentOverflow):
                got()
        else:
            check(got(), want)


@given(
    st.lists(ref_polys(wide_exps), max_size=4),
    st.lists(st.sampled_from([-1, 0, 2, Fraction(-3, 2), Fraction(5, 6)]), min_size=8),
)
@settings(max_examples=30, deadline=None)
def test_evaluate_all_matches_oracle(refs, values):
    # terms of several degrees over the point's common denominator
    point = dict(zip(WIDE_SYMS, values))
    got, rows = at_point([Poly(a) for a in refs], point)
    assert got == [ref_evaluate(a, point) for a in refs]
    assert all(type(v) is Fraction for v in got)
    assert rows == [[] for _ in refs]


@given(
    st.lists(ref_polys(wide_exps), max_size=4),
    st.lists(st.sampled_from([-1, 0, 2, Fraction(-3, 2), Fraction(5, 6)]), min_size=8),
)
@settings(max_examples=30, deadline=None)
def test_jacobian_rows_are_positive_multiples_of_the_oracle(refs, values):
    # columns for half the symbols, so some factors are only evaluated; the
    # values from the same pass are those of the pass without columns
    point = dict(zip(WIDE_SYMS, values))
    cols = WIDE_SYMS[::2]
    got, rows = at_point([Poly(a) for a in refs], point, cols)
    assert got == at_point([Poly(a) for a in refs], point)[0]
    assert len(rows) == len(refs)
    for a, row in zip(refs, rows):
        want = [ref_evaluate(ref_diff(a, s), point) for s in cols]
        assert all(type(x) is int for x in row)
        pivot = next((j for j, x in enumerate(want) if x), None)
        k = 1 if pivot is None else Fraction(row[pivot]) / want[pivot]
        assert k > 0 and row == [k * x for x in want]


def test_evaluate_needs_every_symbol():
    with pytest.raises(KeyError):
        at_point([Poly.symbol(b1(1)) * Poly.symbol(b2(1))], {b1(1): 2})
    assert at_point([Poly.zero(), Poly.const(Fraction(3, 4))], {}, [b1(1)]) == (
        [0, Fraction(3, 4)], [[0], [0]]
    )


@given(st.lists(st.tuples(st.integers(-5, 5), st.lists(st.sampled_from(SYMS), max_size=4)), max_size=6))
@settings(max_examples=50, deadline=None)
def test_sum_of_products_matches_poly_arithmetic(products):
    want = Poly.zero()
    for c, syms in products:
        term = Poly.const(c)
        for sym in syms:
            term = term * Poly.symbol(sym)
        want = want + term
    got = Poly.sum_of_products([(c, *syms) for c, syms in products])
    assert got == want and str(got) == str(want)


def test_sum_of_products_rejects_what_it_cannot_pack():
    x = b1(1)
    assert Poly.sum_of_products([(1, *[x] * MAX_EXPONENT)]) == Poly.symbol(x) ** MAX_EXPONENT
    with pytest.raises(ExponentOverflow):
        Poly.sum_of_products([(1, *[x] * (MAX_EXPONENT + 1))])
    with pytest.raises(ExponentOverflow):  # a field that would wrap past its guard bit
        Poly.sum_of_products([(1, *[x] * (2 * MAX_EXPONENT + 2))])
    with pytest.raises(TypeError):
        Poly.sum_of_products([(Fraction(1, 2), x)])


@given(ref_polys(), st.dictionaries(st.sampled_from(WIDE_SYMS), ref_polys(max_terms=3)))
@settings(max_examples=40, deadline=None)
def test_substitute_matches_oracle(a, env):
    got = Poly(a).substitute({s: Poly(image) for s, image in env.items()})
    check(got, ref_substitute(a, env))


PICKLE_SOURCE = """
from fractions import Fraction
from hypfield.polyring import Poly, b1, b2, b3, la, w

SYMS = [b2(41), w(43, 45), la(48), b1(47), b3(49)]


def build():
    x = [Poly.symbol(s) for s in SYMS]
    return (Fraction(3, 7) * x[0] ** 3 * x[2] - Fraction(5, 2) * x[1] * x[3] + 4) * (
        x[4] - Fraction(1, 3)
    )
"""


def test_pickle_is_independent_of_registration_order():
    # the child registers the symbols in the opposite order, so its packed
    # monomials differ from this process's; the pickle must not carry them
    ns = {}
    exec(PICKLE_SOURCE, ns)
    for s in ns["SYMS"]:
        Poly.symbol(s)
    child = PICKLE_SOURCE + (
        "import pickle, sys\n"
        "for s in reversed(SYMS):\n"
        "    Poly.symbol(s)\n"
        "p = build()\n"
        "sys.stdout.buffer.write(pickle.dumps((p, sorted(p.terms))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hypfield.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, env=env, timeout=60, check=True
    )
    got, child_layout = pickle.loads(proc.stdout)
    want = ns["build"]()
    assert child_layout != sorted(want.terms)
    assert got == want and str(got) == str(want) and hash(got) == hash(want)


def test_concurrent_first_use_takes_one_field():
    # symbols no other test uses, registered by more threads than cores at once
    syms = [b2(k) for k in range(1001, 1401, 2)]
    built = []
    start = threading.Barrier(4)

    def work():
        start.wait()
        built.append([Poly.symbol(s) for s in syms])

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(built) == 4 and all(polys == built[0] for polys in built)
    assert [str(p) for p in built[0]] == [s.name for s in syms]


# --- substitution and evaluation -------------------------------------------

ENV = {
    b1(1): Poly.symbol(b2(1)) + Poly.const(Fraction(1, 2)),
    w(3, 5): Poly.symbol(b1(3)) * Poly.symbol(b3(1)),
    la(4): Poly.const(2),
}


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_substitute_is_ring_homomorphism(p, q):
    assert (p + q).substitute(ENV) == p.substitute(ENV) + q.substitute(ENV)
    assert (p * q).substitute(ENV) == p.substitute(ENV) * q.substitute(ENV)


@given(polys())
@settings(max_examples=40, deadline=None)
def test_substitute_commutes_with_evaluation(p):
    rng = random.Random(17)
    point = {s: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for s in SYMS}
    composed = dict(point)
    composed.update(zip(ENV, at_point(ENV.values(), point)[0]))
    assert at_point([p.substitute(ENV)], point)[0] == at_point([p], composed)[0]


def test_substitute_empty_env_is_identity():
    p = Poly.symbol(b1(1)) * 3 + 1
    assert p.substitute({}) is p


def naive_substitute(p, env):
    """Reference: every factor as a repeated product, every term summed as a Poly."""
    total = Poly.zero()
    for mono, c in p.sorted_terms():
        term = Poly.const(c)
        for sym, e in mono:
            image = env.get(sym, Poly.symbol(sym))
            for _ in range(e):
                term = term * image
        total = total + term
    return total


# b2_1, b2_3, b3_1, b3_5, w_3_5 and la_4 stay unmapped; the image of w_3_3
# holds a mapped symbol, which must not be substituted a second time.
SUB_ENV = {
    b1(1): Poly.symbol(b2(1)),
    b1(3): Poly.symbol(b2(1)) * Poly.symbol(b3(1)) - Poly.const(Fraction(1, 2)),
    w(3, 3): Poly.symbol(b1(3)) + 2 * Poly.symbol(la(4)),
    la(8): Poly.zero(),
}


def seeded_poly(rng):
    """A constant term plus up to 8 terms of 1-3 symbols with exponents 1-3."""
    terms = {(): Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))}
    for _ in range(rng.randint(1, 8)):
        picks = rng.sample(SYMS, rng.randint(1, 3))
        mono = tuple(sorted((s, rng.randint(1, 3)) for s in picks))
        terms[mono] = Fraction(rng.choice([-5, -2, -1, 1, 3]), rng.randint(1, 4))
    return Poly(terms)


@pytest.mark.parametrize("seed", range(20))
def test_substitute_matches_naive_reference(seed):
    rng = random.Random(seed)
    p = seeded_poly(rng)
    got, expected = p.substitute(SUB_ENV), naive_substitute(p, SUB_ENV)
    assert got == expected
    assert str(got) == str(expected)
    # b1_1 -> b2_1 makes p and its renamed copy substitute to the same image,
    # so their difference cancels to zero term by term.
    renamed = naive_substitute(p, {b1(1): Poly.symbol(b2(1))})
    assert (p - renamed).substitute(SUB_ENV).is_zero()


# --- canonical text ---------------------------------------------------------

def test_str_canonical_examples():
    p = Fraction(1, 2) * Poly.symbol(b3(1)) - 3 * Poly.symbol(b1(1)) ** 2
    assert str(p) == "-3*b1_1^2 + 1/2*b3_1"
    assert str(Poly.zero()) == "0"
    assert str(Poly.const(Fraction(5, 3))) == "5/3"
    assert str(Poly.symbol(w(3, 5)) * Poly.symbol(b1(1))) == "b1_1*w_3_5"


def test_sorted_terms_graded_descending():
    p = Poly.symbol(b1(1)) + Poly.symbol(b1(1)) ** 3 + Poly.const(1)
    weights = [sum(sym.weight * e for sym, e in m) for m, _ in p.sorted_terms()]
    assert weights == sorted(weights, reverse=True)


# b, w and la symbols of genera 1 to 7, several of them used by no other
# test, so that the draws decide the order they are registered in
ORDER_SYMS = [
    b1(1), b1(13), b2(1), b2(7), b3(5), b3(13),
    w(3, 3), w(3, 11), w(7, 9), la(4), la(10), la(30),
]


@st.composite
def order_terms(draw):
    out = {}
    for _ in range(draw(st.integers(1, 8))):
        syms = draw(st.lists(st.sampled_from(ORDER_SYMS), max_size=4, unique=True))
        out[ref_factors((s, draw(st.integers(1, 4))) for s in syms)] = draw(oracle_coeffs)
    return out


@given(order_terms())
@settings(max_examples=150, deadline=None)
def test_print_order_matches_oracle(terms):
    p = Poly(terms)
    want = ref_order(terms.items())
    assert p.sorted_terms() == want
    assert p.leading_coeff() == want[0][1]
    assert str(p) == ref_str(terms)


ORDER_SOURCE = """
from fractions import Fraction
from hypfield.polyring import Poly, b1, b2, b3, la, w

SYMS = [b1(15), b2(9), b3(15), w(5, 13), w(11, 11), la(32), la(6)]


def build():
    x = [Poly.symbol(s) for s in SYMS]
    return (
        Fraction(-2, 3) * x[5] * x[0] + x[1] ** 2 * x[3] - 7 * x[6] * x[2] ** 3
        + Fraction(5, 4) * x[4] * x[0] ** 2 - x[3] * x[5] + Fraction(1, 9) * x[2] * x[1]
    ) * (x[0] - 3)
"""


def test_print_order_is_independent_of_registration_order():
    # the child registers the symbols in reverse, this process in order;
    # both must list the terms as the oracle does
    ns = {}
    exec(ORDER_SOURCE, ns)
    for s in ns["SYMS"]:
        Poly.symbol(s)
    child = ORDER_SOURCE + (
        "import pickle, sys\n"
        "for s in reversed(SYMS):\n"
        "    Poly.symbol(s)\n"
        "p = build()\n"
        "sys.stdout.buffer.write(pickle.dumps((str(p), p.leading_coeff(), sorted(p.terms))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hypfield.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, env=env, timeout=60, check=True
    )
    text, lead, child_layout = pickle.loads(proc.stdout)
    p = ns["build"]()
    want = {ref_factors(m): c for m, c in p.sorted_terms()}
    assert child_layout != sorted(p.terms)
    assert text == str(p) == ref_str(want)
    assert lead == p.leading_coeff() == ref_order(want.items())[0][1]


# --- grading ----------------------------------------------------------------

def test_homogeneous_weight():
    assert homogeneous_weight(Poly.zero()) == 0
    assert homogeneous_weight(Poly.symbol(b1(1)) ** 2) == 4
    assert homogeneous_weight(Poly.symbol(b3(1)) - Poly.symbol(b1(1)) ** 2) == 4
    mixed = Poly.symbol(b1(1)) + Poly.one()
    assert homogeneous_weight(mixed) is MIXED


# --- xi-series --------------------------------------------------------------

def naive_product(g, s1, s2):
    """Independent convolution: dict of power -> Poly, then truncate/raise."""
    acc = {}
    for pa in range(-1, 2 * g + 1):
        for pb in range(-1, 2 * g + 1):
            term = s1[pa] * s2[pb]
            if term.is_zero():
                continue
            p = pa + pb
            if p < -1:
                raise OffsetUnderflow("underflow")
            if p <= 2 * g:
                acc[p] = acc.get(p, Poly.zero()) + term
    return XiSeries.from_terms(g, acc)


def random_series(g, rng):
    terms = {}
    for p in range(-1, 2 * g + 1):
        if rng.random() < 0.6:
            terms[p] = Poly.const(Fraction(rng.randint(-3, 3)))
    return XiSeries.from_terms(g, terms)


def test_series_product_matches_convolution_oracle():
    rng = random.Random(5)
    for g in (1, 2, 3):
        for _ in range(20):
            s1 = random_series(g, rng)
            s2 = random_series(g, rng)
            try:
                expected = naive_product(g, s1, s2)
            except OffsetUnderflow:
                with pytest.raises(OffsetUnderflow):
                    _ = s1 * s2
                continue
            assert s1 * s2 == expected


def test_series_truncation_above_top_power():
    g = 1
    s = XiSeries.from_terms(g, {2: Poly.one()})
    t = XiSeries.from_terms(g, {1: Poly.one()})
    assert (s * t).is_zero()


def test_series_underflow_raises():
    g = 1
    pole = XiSeries.from_terms(g, {-1: Poly.one()})
    with pytest.raises(OffsetUnderflow):
        _ = pole * pole


def test_series_add_scalar_and_index():
    g = 2
    s = XiSeries.from_terms(g, {-1: Poly.one(), 3: Poly.const(2)})
    assert s[-1] == Poly.one()
    assert s[0].is_zero()
    assert (s + s)[3] == Poly.const(4)
    assert (s * Fraction(1, 2))[3] == Poly.one()
    assert (-s)[-1] == Poly.const(-1)
    with pytest.raises(IndexError):
        _ = s[5]
    with pytest.raises(ValueError):
        XiSeries.from_terms(g, {5: Poly.one()})


def test_series_genus_mismatch():
    a = XiSeries.from_terms(1, {0: Poly.one()})
    b = XiSeries.from_terms(2, {0: Poly.one()})
    with pytest.raises(ValueError):
        _ = a + b
