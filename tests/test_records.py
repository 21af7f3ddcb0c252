"""The package's immutable record classes: value equality, hashing where
every field is hashable, no assignment or deletion after construction, copy
and pickle."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

import hypfield
from hypfield import _Record
from hypfield.curve import LambdaVector
from hypfield.exprlang import Token
from hypfield.numerics1 import RankReport
from hypfield.polyring import Poly
from hypfield.relations import GenusContext, RelationId
from hypfield.rewriter import BinOp, Const, Lam, Neg, Pow, PSym, RelationTable
from hypfield.variety import EquationStatus, PMap, UniformizeReport
from hypfield.weierstrass import LatticeContext, ResidualReport

BEL1 = RelationId("BEL1", (1,))

# (make, an attribute, whether instances hash): make() builds a fresh,
# equal instance on every call
RECORDS = {
    "GenusContext": (lambda: GenusContext(2), "g", True),
    "RelationId": (lambda: RelationId("BEL2", (1, 3)), "family", True),
    "Token": (lambda: Token("int", "12", 3), "text", True),
    "RelationTable": (
        lambda: RelationTable(1, {4: Poly.one(), 6: Poly.zero()}, {}, {"la_4": "L1"}),
        "genus",
        False,  # its fields are dicts
    ),
    "EquationStatus": (lambda: EquationStatus(BEL1, Poly.zero()), "residual", True),
    "UniformizeReport": (
        lambda: UniformizeReport(1, (EquationStatus(BEL1, Poly.zero()),)), "entries", True
    ),
    "PMap": (lambda: PMap(1, ((4, Poly.one()),)), "components", True),
    "LambdaVector": (
        lambda: LambdaVector(1, {4: Fraction(1), 6: Fraction(-2)}),
        "values",
        False,  # values is a dict
    ),
    "LatticeContext": (lambda: LatticeContext(1.0, 0.25 + 1.1j), "omega1", True),
    "ResidualReport": (
        lambda: ResidualReport(1e-16, 2e-16, 0.0, 3e-16), "cubic", True
    ),
    "RankReport": (
        lambda: RankReport(
            "single-lattice", ("wp", "wp'"), 6, ((0, 0), (1, 0)), 40, 2, (1.0, 0.5), 1e-6, None
        ),
        "threshold",
        True,
    ),
    "Const": (lambda: Const(Fraction(4)), "value", True),
    "PSym": (lambda: PSym((1, 3)), "indices", True),
    "Lam": (lambda: Lam(4), "s", True),
    "Neg": (lambda: Neg(Lam(4)), "arg", True),
    "BinOp": (lambda: BinOp("+", Lam(4), Const(Fraction(1, 2))), "op", True),
    "Pow": (lambda: Pow(PSym((1, 1)), -2), "exponent", True),
}


@pytest.mark.parametrize("make, attr, hashable", list(RECORDS.values()), ids=list(RECORDS))
def test_record_semantics(make, attr, hashable):
    a, b = make(), make()
    assert a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    with pytest.raises(AttributeError):
        setattr(a, attr, getattr(b, attr))
    with pytest.raises(AttributeError):
        delattr(a, attr)
    assert a == b
    for c in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(c) is type(a) and c == a


RECORD_TYPES = {name: type(make()) for name, (make, _, _) in RECORDS.items()}
SLOTS_RECORDS = [name for name, cls in RECORD_TYPES.items() if issubclass(cls, _Record)]


def test_every_engine_record_is_checked():
    found = set()
    for module_name in hypfield._ENGINE:
        module = getattr(hypfield, module_name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__:
                continue  # imported, checked where it is defined
            if issubclass(cls, _Record) or (issubclass(cls, tuple) and hasattr(cls, "_fields")):
                found.add(name)
    assert found - set(RECORDS) == set()


@pytest.mark.parametrize("name", SLOTS_RECORDS)
def test_slots_records_show_their_fields(name):
    a = RECORDS[name][0]()
    assert repr(a).startswith(f"{name}(")
    assert eval(repr(a), {**RECORD_TYPES, "Fraction": Fraction}) == a


def test_record_constructor_takes_each_field_once():
    assert BinOp(op="+", left=Lam(4), right=Lam(6)) == BinOp("+", Lam(4), right=Lam(6))
    for bad in (lambda: Lam(), lambda: Lam(4, 6), lambda: Lam(4, s=4), lambda: Lam(t=4)):
        with pytest.raises(TypeError, match="^Lam takes the fields s$"):
            bad()


def test_expression_nodes_compare_by_type():
    assert Const(Fraction(4)) != Lam(4)
    assert not Const(Fraction(4)) == Lam(4)
    assert Neg(Lam(4)) != (Lam(4),)
    assert BinOp("+", Lam(4), Lam(6)) != BinOp("+", Lam(4), Const(Fraction(6)))


def test_constructors_keep_their_checks():
    with pytest.raises(ValueError, match="^genus must be >= 1$"):
        GenusContext(0)
    with pytest.raises(ValueError, match=r"^parameter indices \[4, 8\] != \[4, 6\]$"):
        LambdaVector(1, {4: Fraction(1), 8: Fraction(2)})
