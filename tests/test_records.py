"""The immutable records: read-only slots, value equality, dataclass-form repr, checks in ``__init__``.

Every record is a slotted class on one base (``swfold.laurent._Record``), so
importing the command line loads neither ``dataclasses`` nor ``inspect``.
"""

import copy
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from swfold.alexander import BUILTIN_KNOTS, KnotRecord, SeifertMatrix, alexander_from_seifert, knot_from_alexander
from swfold.cli import OutputRecord
from swfold.errors import DomainError, StructuralError, SwfoldError
from swfold.fold import EulerClass, FoldedSW, QuotientLattice, canonical_rep, fold
from swfold.laurent import Basis, LaurentPoly, from_text
from swfold.manifolds import T3_BASIS, ThreeManifold, fiber_sum, three_torus
from swfold.obstruction import SearchResult

from conftest import fold_bruteforce, monomial

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
T = Basis(names=("t",))
T3 = "basis=Basis(names=('m1', 'm2', 'm3'))"
KNOT_K = KnotRecord(name="k", seifert=None, alexander=from_text("t - 1 + t^-1", T), fibered=False)
KNOT_J = KnotRecord(name="j", seifert=None, alexander=from_text("-t + 3 - t^-1", T), fibered=True)
#: sw3 of S2xS1 fiber-summed with k, then j, along t: (t - 1/t)^2 times both knot polynomials at t^2.
TWO_SUMS_SW3 = "-t^-6 + 6*t^-4 - 14*t^-2 + 18 - 14*t^2 + 6*t^4 - t^6"

#: Each record built by keyword with its field names, its fields in order, and its repr.
RECORDS = {
    "Basis": (lambda: Basis(names=("m1", "m2")), ("names",), "Basis(names=('m1', 'm2'))"),
    "SeifertMatrix": (
        lambda: SeifertMatrix(entries=[[1, 1], [0, 2]]), ("entries",), "SeifertMatrix(entries=((1, 1), (0, 2)))",
    ),
    "KnotRecord": (
        lambda: KnotRecord(name="k", seifert=None, alexander=from_text("t - 1 + t^-1", T), fibered=False),
        ("name", "seifert", "alexander", "fibered"),
        "KnotRecord(name='k', seifert=None, alexander=LaurentPoly('t^-1 - 1 + t', basis=(t)), fibered=False)",
    ),
    "EulerClass": (
        lambda: EulerClass(basis=T3_BASIS, chi=[4, 0, 0]), ("basis", "chi"), f"EulerClass({T3}, chi=(4, 0, 0))",
    ),
    "QuotientLattice": (
        lambda: QuotientLattice(euler=EulerClass(T3_BASIS, (0, -2, 1))), ("euler", "chi", "pivot", "modulus"),
        f"QuotientLattice(euler=EulerClass({T3}, chi=(0, 2, -1)), chi=(0, 2, -1), pivot=1, modulus=2)",
    ),
    "FoldedSW": (
        lambda: FoldedSW(chi=EulerClass(T, (4,)), basis=T, terms=from_text("2*t^3 - 1", T).terms(), injective=True),
        ("chi", "basis", "terms", "injective", "unit_classes"),
        "FoldedSW(chi=EulerClass(basis=Basis(names=('t',)), chi=(4,)), basis=Basis(names=('t',)), "
        "terms=(((0,), -1), ((3,), 2)), injective=True, unit_classes=((0,),))",
    ),
    "FoldedSW-product-case": (
        lambda: FoldedSW(chi=None, basis=T, terms=(((0,), 1),), injective=True),
        ("chi", "basis", "terms", "injective", "unit_classes"),
        "FoldedSW(chi=None, basis=Basis(names=('t',)), terms=(((0,), 1),), injective=True, unit_classes=((0,),))",
    ),
    "ThreeManifold": (
        lambda: ThreeManifold(genus=1, basis=T, b1=3, sw3=from_text("t - t^-1", T)),
        ("genus", "basis", "b1", "sw3", "sums"),
        "ThreeManifold(genus=1, basis=Basis(names=('t',)), b1=3, sw3=LaurentPoly('-t^-1 + t', basis=(t)), sums=())",
    ),
    "ThreeManifold with two sums": (
        lambda: ThreeManifold(genus=2, basis=T, b1=5, sw3=from_text(TWO_SUMS_SW3, T),
                              sums=((KNOT_K, "t"), (KNOT_J, "t"))),
        ("genus", "basis", "b1", "sw3", "sums"),
        f"ThreeManifold(genus=2, basis=Basis(names=('t',)), b1=5, sw3=LaurentPoly('{TWO_SUMS_SW3}', basis=(t)), "
        f"sums=(({KNOT_K!r}, 't'), ({KNOT_J!r}, 't')))",
    ),
    "LaurentPoly": (
        lambda: LaurentPoly(basis=T, terms={(1,): 1, (-1,): -1}), ("basis", "_terms"),
        "LaurentPoly('-t^-1 + t', basis=(t))",
    ),
    "SearchResult": (
        lambda: SearchResult(box=1, entries=()), ("box", "entries"), "SearchResult(box=1, entries=())",
    ),
    "OutputRecord": (
        lambda: OutputRecord(command=("knot", "list"), text="x"), ("command", "text", "payload"),
        "OutputRecord(command=('knot', 'list'), text='x', payload=None)",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_fields_are_the_slots_in_order(name):
    make, fields, _ = RECORDS[name]
    assert type(make()).__slots__ == fields


@pytest.mark.parametrize("name", RECORDS)
def test_setting_or_deleting_an_attribute_raises(name):
    make, fields, text = RECORDS[name]
    record = make()
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == text


@pytest.mark.parametrize("name", RECORDS)
def test_equal_values_compare_and_hash_equal(name):
    make, _, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b and a == a
    assert hash(a) == hash(b)


@pytest.mark.parametrize("name", RECORDS)
def test_copy_and_pickle_keep_the_value(name):
    make, fields, text = RECORDS[name]
    record = make()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record and repr(twin) == text
        with pytest.raises(AttributeError):
            setattr(twin, fields[0], None)


@pytest.mark.parametrize("name", RECORDS)
def test_another_class_compares_unequal(name):
    make, _, _ = RECORDS[name]
    record, other = make(), RECORDS["SearchResult" if name == "Basis" else "Basis"][0]()
    assert record.__eq__(other) is NotImplemented
    assert record != other and other != record
    assert record != object() and record != None  # noqa: E711


def test_manifold_name_provenance_and_fibered_are_read_off_its_sums():
    record = RECORDS["ThreeManifold with two sums"][0]()
    for twin in (record, copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin.name == "S2xS1+k@t+j@t"
        assert twin.provenance == ("surface_x_s1(genus=2)", "fiber_sum(knot=k, meridian=t)",
                                   "fiber_sum(knot=j, meridian=t)")
        assert twin.fibered is False
        for derived in ("name", "provenance", "fibered"):
            with pytest.raises(AttributeError):
                setattr(twin, derived, None)
            with pytest.raises(AttributeError):
                delattr(twin, derived)
    assert record != ThreeManifold(2, T, 5, record.sw3, record.sums[::-1])  # equal only as the same construction


def test_one_differing_field_compares_unequal():
    assert EulerClass(T3_BASIS, (4, 0, 0)) != EulerClass(T3_BASIS, (0, 4, 0))
    assert OutputRecord(("x",), text="a") != OutputRecord(("x",), text="b")
    assert Basis(("t",)) != Basis(("s",))


@pytest.mark.parametrize("name", RECORDS)
def test_repr_has_the_dataclass_form(name):
    make, _, text = RECORDS[name]
    assert repr(make()) == text


@pytest.mark.parametrize("build, error, message", [
    (lambda: Basis(("a", "b", "a")), StructuralError, "duplicate variable name 'a'"),
    (lambda: SeifertMatrix([[1, 1], [0]]), StructuralError,
     "Seifert matrix must be square, got row of length 1 in size 2"),
    (lambda: EulerClass(T3_BASIS, (0, 0, 0)), DomainError,
     "Euler class is zero (torsion); no quotient to fold over"),
    (lambda: FoldedSW(EulerClass(T, (4,)), T, from_text("t^5", T).terms(), True), StructuralError,
     "exponent (5,) is not a canonical representative (pivot 0, modulus 4)"),
    (lambda: FoldedSW(EulerClass(T3_BASIS, (0, -2, 1)), T3_BASIS, (), True), StructuralError,
     "Euler class (0, -2, 1) is not sign-normalized: its first nonzero entry must be positive"),
    (lambda: ThreeManifold(1, T, 3, from_text("t + 2", T)), StructuralError,
     "sw3 must be symmetric up to sign under inverting all variables"),
    (lambda: EulerClass(T3_BASIS, 4), StructuralError, "Euler vector must be a sequence of integers, got 4"),
    (lambda: EulerClass(T3_BASIS, None), StructuralError, "Euler vector must be a sequence of integers, got None"),
    (lambda: fold(three_torus(), 4), StructuralError, "Euler vector must be a sequence of integers, got 4"),
    (lambda: fold_bruteforce(three_torus(), None), StructuralError,
     "Euler vector must be a sequence of integers, got None"),
    (lambda: LaurentPoly(T3_BASIS, [(5, 1)]), StructuralError, "exponent vector must be a sequence of integers, got 5"),
    (lambda: monomial(T3_BASIS, 1, 5), StructuralError, "exponent vector must be a sequence of integers, got 5"),
    (lambda: from_text("t", T).coeff(5), StructuralError, "exponent vector must be a sequence of integers, got 5"),
    (lambda: from_text("t", T).reindex(T3_BASIS, {"t": 5}), StructuralError,
     "exponent vector must be a sequence of integers, got 5"),
    (lambda: canonical_rep(QuotientLattice(EulerClass(T3_BASIS, (4, 0, 0))), 5), StructuralError,
     "exponent vector must be a sequence of integers, got 5"),
    (lambda: SeifertMatrix(5), StructuralError, "Seifert matrix must be a sequence of integer rows, got 5"),
    (lambda: SeifertMatrix([1, 2]), StructuralError, "Seifert matrix must be a sequence of integer rows, got [1, 2]"),
    (lambda: alexander_from_seifert(None), StructuralError,
     "Seifert matrix must be a sequence of integer rows, got None"),
    (lambda: LaurentPoly(T3_BASIS, 5), StructuralError,
     "terms must be a mapping or an iterable of (exponent, coefficient) pairs, got 5"),
    (lambda: LaurentPoly(T3_BASIS, [5]), StructuralError, "a term must be an (exponent, coefficient) pair, got 5"),
    (lambda: LaurentPoly(T3_BASIS, [(1, 2, 3)]), StructuralError,
     "a term must be an (exponent, coefficient) pair, got (1, 2, 3)"),
    (lambda: fiber_sum(three_torus(), 5), StructuralError, "sums must be an iterable of (knot, meridian) pairs, got 5"),
    (lambda: fiber_sum(three_torus(), [5]), StructuralError, "a sum must be a (KnotRecord, meridian) pair, got 5"),
    (lambda: fiber_sum(three_torus(), [("x", "m1")]), StructuralError,
     "a sum must be a (KnotRecord, meridian) pair, got ('x', 'm1')"),
])
def test_validation_errors_keep_type_and_text(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message


def test_a_polynomial_held_by_a_manifold_keeps_its_basis():
    manifold = ThreeManifold(genus=1, basis=T, b1=3, sw3=from_text("t - t^-1", T))
    for name in ("basis", "_terms"):
        with pytest.raises(AttributeError, match=f"^cannot assign to or delete field '{name}' of an immutable record$"):
            setattr(manifold.sw3, name, Basis(("x",)))
        with pytest.raises(AttributeError):
            delattr(manifold.sw3, name)
    assert manifold.sw3.basis == manifold.basis == T


_BIG = 10**5000  # repr() and str() raise ValueError on it: past Python's 4300-digit limit


@pytest.mark.parametrize("build, message", [
    (lambda: EulerClass(T3_BASIS, _BIG), "Euler vector must be a sequence of integers, got about 10^5000"),
    (lambda: canonical_rep(QuotientLattice(EulerClass(T3_BASIS, (4, 0, 0))), _BIG),
     "exponent vector must be a sequence of integers, got about 10^5000"),
    (lambda: LaurentPoly(T3_BASIS, [(_BIG, 1)]), "exponent vector must be a sequence of integers, got about 10^5000"),
    (lambda: SeifertMatrix(_BIG), "Seifert matrix must be a sequence of integer rows, got about 10^5000"),
    (lambda: Basis((_BIG,)), "invalid variable name about 10^5000"),
    (lambda: fiber_sum(three_torus(), [(BUILTIN_KNOTS.lookup("3_1"), _BIG)]),
     "unknown variable about 10^5000; basis is (m1, m2, m3)"),
    (lambda: from_text("t", T) ** -_BIG, "polynomial power must be a nonnegative integer, got about -10^5000"),
    (lambda: BUILTIN_KNOTS.lookup(_BIG), "unknown knot about 10^5000; available: 3_1, 4_1, 5_2"),
    (lambda: LaurentPoly(T3_BASIS, [(_BIG,)]),
     "a term must be an (exponent, coefficient) pair, got a tuple holding an integer too long to print"),
    (lambda: FoldedSW(EulerClass(T, (_BIG,)), T, (((-1,), 1),), True),
     "exponent (-1,) is not a canonical representative (pivot 0, modulus about 10^5000)"),
    (lambda: FoldedSW(EulerClass(T, (-_BIG,)), T, (), True),
     "Euler class a tuple holding an integer too long to print is not sign-normalized: its first nonzero entry "
     "must be positive"),
    (lambda: ThreeManifold(1, T, -_BIG, from_text("t - t^-1", T)),
     "b1 = about -10^5000 smaller than the tracked basis rank 1"),
    (lambda: alexander_from_seifert([[0, 10**4000], [0, 0]]),
     "not a knot Seifert matrix: det(V - V^T) = about 10^8000, expected +-1"),
    (lambda: knot_from_alexander("k", False, LaurentPoly(T, [((0,), _BIG)])),
     "invalid Alexander polynomial for 'k': value at t=1 is about 10^5000, expected +-1"),
], ids=["EulerClass", "canonical_rep", "LaurentPoly", "SeifertMatrix", "Basis", "fiber_sum meridian", "power",
        "lookup", "unprintable term", "canonical range", "sign-normalized", "b1", "Seifert determinant",
        "Alexander value"])
def test_a_bad_value_past_the_digit_limit_is_named_in_a_typed_error(build, message):
    with pytest.raises(SwfoldError) as caught:
        build()
    assert str(caught.value) == message


def fresh_import_modules(*flags: str) -> set[str]:
    """Modules a new interpreter holds after ``import swfold.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, swfold.cli; print(*sys.modules)"
    done = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env,
                          check=True, timeout=60)
    return set(done.stdout.split())


def test_cli_import_loads_no_dataclasses_or_inspect():
    modules = fresh_import_modules()
    assert "swfold.cli" in modules
    assert not {"dataclasses", "inspect"} & modules


def test_cli_import_without_site_loads_no_typing():
    # without site, no .pth file preloads typing, so this sees what swfold itself imports
    modules = fresh_import_modules("-S")
    assert "swfold.cli" in modules
    assert not {"dataclasses", "inspect", "typing"} & modules
