"""Unit-coefficient obstruction verdicts and box searches."""

import json
import pathlib
import random
import re
import sys
import time
from collections import Counter
from functools import reduce
from itertools import product
from math import gcd, isqrt, prod
from operator import mul
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from swfold.alexander import BUILTIN_KNOTS, knot_from_alexander
from swfold import cli
from swfold.cli import OutputRecord, emit, run
from swfold.errors import DomainError, HypothesisError, StructuralError
from swfold.fold import EulerClass, FoldedSW, QuotientLattice, canonical_rep, fold, fold_poly
from swfold.laurent import Basis, LaurentPoly, _piece, _render, _require_terms, from_text, to_text
from swfold.manifolds import T3_BASIS, ThreeManifold, fiber_sum, surface_times_circle, three_torus
from swfold.obstruction import _sweep, colliding_classes, stabilization_note

from conftest import coefficients, fold_bruteforce, random_basis, random_poly
from test_fold import random_chi, random_manifold

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def unit_exponents(poly):
    """Oracle: the exponents whose coefficient is +1 or -1, in term order."""
    return tuple(e for e, c in poly.terms() if abs(c) == 1)


class TestTaubesReport:
    def test_fig8_fold_is_obstructed(self, fig8_pair):
        report = fold(fig8_pair, "4*m1")
        assert report.obstructed is True
        assert report.unit_classes == ()
        assert fig8_pair.fibered is True  # printed as the "fibered orbit" line
        assert report.chi.text == "4*m1"
        assert fold(fig8_pair, "-4*m1").chi.text == "4*m1"  # sign-normalized

    def test_fig8_product_case_is_not_obstructed(self, fig8_pair):
        report = fold(fig8_pair, "0")
        assert report.obstructed is False
        # corner classes of the unfolded polynomial carry coefficient +1
        assert set(report.unit_classes) == {
            (-2, -2, 0), (-2, 2, 0), (2, -2, 0), (2, 2, 0)
        }
        assert report.chi is None  # the product case
        assert report.digest == str(fig8_pair.sw3)

    @pytest.mark.parametrize("genus", [2, 3, 4])
    def test_surface_products_keep_units(self, genus):
        m = surface_times_circle(genus)
        report = fold(m, (0,))
        assert report.obstructed is False  # extreme binomial coefficients are +-1

    def test_verdict_matches_direct_scan(self):
        rng = random.Random(79)
        for _ in range(100):
            basis = random_basis(rng)
            m = random_manifold(rng, basis)
            chi = random_chi(rng, basis.rank)
            folded = fold(m, chi)
            report = fold(m, chi)
            has_unit = any(c in (1, -1) for c in coefficients(folded.poly))
            assert report.obstructed == (not has_unit)
            assert report.obstructed == (len(report.unit_classes) == 0)
            assert report.digest == str(folded.poly)

    @given(st.randoms(use_true_random=False), st.data())
    def test_agrees_with_bruteforce_fold_and_colliders(self, rng, data):
        m = random_manifold(rng, random_basis(rng))
        rank = m.basis.rank
        chi = tuple(data.draw(st.lists(st.integers(-6, 6), min_size=rank, max_size=rank).filter(any)))
        report = fold(m, chi)
        assert report.unit_classes == unit_exponents(fold_bruteforce(m, chi).poly)
        normalized = chi if next(c for c in chi if c) > 0 else tuple(-c for c in chi)
        assert report.injective == (normalized not in colliding_classes(m))


def half_box(rank: int, box: int) -> list[tuple[int, ...]]:
    """Oracle: the box's vectors whose first nonzero entry is positive, in product order."""
    return [v for v in product(range(-box, box + 1), repeat=rank) if next((c for c in v if c), 0) > 0]


def search_output(m: ThreeManifold, box: int, *flags: str) -> bytes:
    """What ``swfold search`` prints for a spec that builds m."""
    with mock.patch.object(cli, "load_spec", lambda path: m):
        return emit(run(["search", "spec.json", "--box", str(box), *flags]))


def search_text(m: ThreeManifold, box: int) -> str:
    return search_output(m, box).decode()


def search_payload(m: ThreeManifold, box: int) -> dict:
    return json.loads(search_output(m, box, "--json"))


def box_folds(m: ThreeManifold, box: int) -> list[FoldedSW]:
    """Oracle: ``fold`` by each class of ``half_box``, in its order."""
    return [fold(m, chi) for chi in half_box(m.basis.rank, box)]


def sweep_terms(m: ThreeManifold, box: int) -> list[tuple[tuple[int, ...], tuple]]:
    """``_sweep``'s rows with their keys read back by its ``terms`` memo: each class vector and its
    sorted folded terms.

    Each row must be a sorted list of plain ints, its verdict the absence of a unit coefficient, and
    each key's text from the ``pieces`` memo the ``_piece`` of its term."""
    _, rows, read, pieces, _ = _sweep(m, box)
    decoded_rows = []
    for chi, keys, obstructed in rows:
        assert type(keys) is list and all(type(key) is int for key in keys) and keys == sorted(keys)
        terms = tuple([read[key] for key in keys])
        assert [pieces[key] for key in keys] == [_piece(m.basis, term) for term in terms]
        assert obstructed == (not any(c in (1, -1) for _, c in terms))
        decoded_rows.append((chi, terms))
    return decoded_rows


def search_reference(m: ThreeManifold, box: int, *flags: str) -> bytes:
    """Oracle: the ``search`` output built from ``box_folds``, one row per class."""
    entries, note = box_folds(m, box), stabilization_note(m, box)
    all_obstructed = all(e.obstructed for e in entries)
    if "--json" in flags:
        rows = [{"chi": e.chi.text, "obstructed": e.obstructed, "unit_classes": [list(u) for u in e.unit_classes],
                 "injective": e.injective} for e in entries]
        return emit(OutputRecord(payload={
            "command": "search", "manifold": m.name, "box": box, "all_obstructed": all_obstructed,
            "count": len(entries), "entries": rows, "stabilization": note}))
    shown = {True: "true", False: "false"}
    body = [f"all_obstructed = {shown[all_obstructed]} ({len(entries)} entries)", *note.splitlines()]
    header = [f"manifold = {m.name}, box = {box}"] + [
        f"chi = {e.chi.text} | obstructed = {shown[e.obstructed]} | injective = {shown[e.injective]} | "
        f"sw4 = {_render(e.basis, e.terms)}" for e in entries]
    return emit(OutputRecord("\n".join(body if "--quiet" in flags else header + body)))


def listing_rows(text: str) -> dict[str, str]:
    """The listing's rows by their ``chi = ...`` field."""
    return {row.split(" | ")[0]: row for row in text.splitlines() if row.startswith("chi = ")}


X1X2 = Basis(("x1", "x2"))

#: Box 2 over these: x2 + x1 merges every term of CANCELLING into pairs that cancel (sw4 = 0), and
#: -x2 + x1 merges x1 into x2 (coefficient 2); x2 + x1 folds x1 of UNIT_AT_ORIGIN onto x2 and leaves
#: its unit at the origin (the piece "1", no "*").  A random_manifold's origin coefficient is even.
CANCELLING = ThreeManifold(None, X1X2, 3, LaurentPoly(X1X2, {
    (1, 0): 1, (-1, 0): -1, (0, 1): 1, (0, -1): -1, (2, 0): 1, (-2, 0): -1, (0, 2): 1, (0, -2): -1}))
UNIT_AT_ORIGIN = ThreeManifold(None, X1X2, 3, LaurentPoly(X1X2, {
    (0, 0): 1, (1, 0): -2, (-1, 0): -2, (0, 1): 3, (0, -1): 3}))

#: Pieces whose sign-and-magnitude part is not " + ": two-digit coefficients away from the origin,
#: -1 at the origin (a piece with no factor text) and -1 away from it (a "-" with no magnitude).
TWO_DIGITS_AWAY = ThreeManifold(None, X1X2, 3, LaurentPoly(X1X2, {
    (0, 0): 2, (1, 0): 12, (-1, 0): 12, (0, 1): -13, (0, -1): -13}))
MINUS_ONE_AT_ORIGIN = ThreeManifold(None, X1X2, 3, LaurentPoly(X1X2, {(0, 0): -1, (1, 1): 2, (-1, -1): 2}))
MINUS_ONE_AWAY = ThreeManifold(None, X1X2, 3, LaurentPoly(X1X2, {
    (0, 0): 4, (2, 0): -1, (-2, 0): -1, (1, 1): 3, (-1, -1): 3}))

#: Box 10 over rank 3: chi texts with two-digit entries in every coordinate.
RANK3 = random_manifold(random.Random(10), Basis(("x1", "x2", "x3")))


@st.composite
def searches(draw):
    """A ``random_manifold`` of rank 1-4 and a box of 1-3."""
    rng, rank, box = draw(st.randoms(use_true_random=False)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    return random_manifold(rng, Basis(tuple(f"x{i}" for i in range(1, rank + 1)))), box


class TestSearchListing:
    """``search`` prints its rows from the sweep's codes; ``fold`` by each class of ``half_box`` is the reference."""

    @settings(max_examples=40, deadline=None)
    @given(searches())
    @example((CANCELLING, 2))
    @example((UNIT_AT_ORIGIN, 2))
    @example((TWO_DIGITS_AWAY, 2))
    @example((MINUS_ONE_AT_ORIGIN, 2))
    @example((MINUS_ONE_AWAY, 2))
    @example((RANK3, 10))
    def test_listing_equals_the_folds(self, drawn):
        m, box = drawn
        for flags in ((), ("--quiet",), ("--json",)):
            assert search_output(m, box, *flags) == search_reference(m, box, *flags), flags

    def test_the_examples_cover_cancellation_merges_and_the_unit_at_the_origin(self):
        cancelling, unit = listing_rows(search_text(CANCELLING, 2)), listing_rows(search_text(UNIT_AT_ORIGIN, 2))
        assert cancelling["chi = x2 + x1"].endswith(" | injective = false | sw4 = 0")
        assert cancelling["chi = -x2 + x1"].endswith(" | injective = false | sw4 = -2*x2^-2 - 2*x2^-1 + 2*x2 + 2*x2^2")
        assert unit["chi = x2 + x1"] == "chi = x2 + x1 | obstructed = false | injective = false | sw4 = x2^-1 + 1 + x2"
        entry = search_payload(UNIT_AT_ORIGIN, 2)["entries"][list(unit).index("chi = x2 + x1")]
        assert entry["unit_classes"] == [[0, -1], [0, 0], [0, 1]]

    def test_the_examples_cover_signs_magnitudes_and_two_digit_classes(self):
        assert listing_rows(search_text(TWO_DIGITS_AWAY, 2))["chi = 2*x1"].endswith(
            " | sw4 = -13*x2^-1 + 2 - 13*x2 + 24*x1")
        assert listing_rows(search_text(MINUS_ONE_AT_ORIGIN, 2))["chi = x2 + 2*x1"].endswith(
            " | sw4 = -1 + 2*x1 + 2*x1*x2")
        assert listing_rows(search_text(MINUS_ONE_AWAY, 2))["chi = x2"].endswith(
            " | sw4 = -x1^-2 + 3*x1^-1 + 4 + 3*x1 - x1^2")
        assert {"10*x3 + 10*x2 + 10*x1", "-10*x3 - 10*x2 + 10*x1"} <= set(
            entry["chi"] for entry in search_payload(RANK3, 10)["entries"])

    def test_fig8_pair_not_all_obstructed(self, fig8_pair):
        text = search_text(fig8_pair, 2)
        assert "\nall_obstructed = false (62 entries)\n" in text
        # folding onto the m1 direction leaves column sums {-1, 3, -1}
        assert listing_rows(text)["chi = m1"].startswith("chi = m1 | obstructed = false | ")

    def test_fig8_pair_4m_rows_obstructed(self, fig8_pair):
        rows = listing_rows(search_text(fig8_pair, 5))
        assert rows["chi = 4*m1"].startswith("chi = 4*m1 | obstructed = true | ")
        assert rows["chi = 4*m2"].startswith("chi = 4*m2 | obstructed = true | ")
        # -4*m1 and -4*m2 are covered by their antipodal representatives
        assert fold(fig8_pair, "-4*m1").poly == fold(fig8_pair, "4*m1").poly
        assert fold(fig8_pair, "-4*m2").poly == fold(fig8_pair, "4*m2").poly

    def test_five2_pair_all_obstructed_small_box(self, five2_pair):
        assert search_output(five2_pair, 3, "--quiet").startswith(b"all_obstructed = true (171 entries)\n")

    def test_chi_texts_share_one_memo(self, five2_pair, monkeypatch):
        """The listing builds at most r*(2B+1) class pieces for a whole search, each row's text
        equal to its class's ``EulerClass.text``.  ``--json`` renders no digest, so every
        ``_signed`` call the sweep makes builds a class piece."""
        box = 3
        expected = [e.chi.text for e in box_folds(five2_pair, box)]
        rows = [line for line in search_text(five2_pair, box).splitlines() if line.startswith("chi = ")]
        assert [row.split(" | ")[0] for row in rows] == [f"chi = {text}" for text in expected]
        pieces = []
        signed = sys.modules["swfold.obstruction"]._signed

        def counting(factors, coeff):
            pieces.append((factors, coeff))
            return signed(factors, coeff)

        monkeypatch.setattr(sys.modules["swfold.obstruction"], "_signed", counting)
        assert [entry["chi"] for entry in search_payload(five2_pair, box)["entries"]] == expected
        assert 0 < len(pieces) <= five2_pair.basis.rank * (2 * box + 1)
        assert len(pieces) == len(set(pieces))
        assert {factors for factors, _ in pieces} <= set(five2_pair.basis.names)

    def test_pieces_are_built_from_memoized_parts(self, fig8_pair, monkeypatch):
        """The text listing of ``search --box 8`` calls ``_signed`` at most once per distinct coefficient
        (a piece's sign and magnitude), once per origin piece and r*(2B+1) times for chi pieces, and
        ``_monomial`` at most once per (coordinate, value) of the folded exponents."""
        box, rank = 8, fig8_pair.basis.rank
        expected, folds = search_reference(fig8_pair, box), box_folds(fig8_pair, box)
        coefficients = {coeff for f in folds for _, coeff in f.terms}
        at_origin = {coeff for f in folds for exp, coeff in f.terms if not any(exp)}
        entries = {(i, e) for f in folds for exp, _ in f.terms for i, e in enumerate(exp)}
        signed, monomials = [], []
        obstruction = sys.modules["swfold.obstruction"]  # the listing's every piece, chi pieces too
        real = obstruction._signed
        monkeypatch.setattr(obstruction, "_signed", lambda factors, coeff: signed.append(coeff) or real(factors, coeff))
        laurent = sys.modules["swfold.laurent"]
        monomial = laurent._monomial
        monkeypatch.setattr(laurent, "_monomial", lambda basis, exp: monomials.append(exp) or monomial(basis, exp))
        assert search_output(fig8_pair, box) == expected
        assert 0 < len(signed) <= len(coefficients) + len(at_origin) + rank * (2 * box + 1)
        assert len(monomials) == len(set(monomials))
        assert {(i, e) for exp in monomials for i, e in enumerate(exp) if e} <= entries
        assert all(sum(map(bool, exp)) == 1 for exp in monomials)

    def test_chi_texts_are_joined_once_per_rest(self, fig8_pair, monkeypatch):
        """The text listing of ``search --box 8`` at rank 3 joins class texts once per rest of a pivot, at
        most 17^2 + 17 + 1 = 307 times for its 2456 rows, and ``cli`` joins only each row's digest, once for
        the 8 rows of pivot m3, a coordinate sw3 does not touch, which share sw3's own row: 2456 - 8 + 1."""
        joins = {}
        for name in ("swfold.cli", "swfold.obstruction"):
            module = sys.modules[name]
            real = getattr(module, "_joined", None)
            monkeypatch.setattr(module, "_joined", lambda pieces, name=name, real=real:
                                joins.setdefault(name, []).append(1) or real(pieces), raising=False)
        rows = [line.split(" | ")[0] for line in search_text(fig8_pair, 8).splitlines() if line.startswith("chi = ")]
        assert rows == [f"chi = {EulerClass(fig8_pair.basis, chi).text}" for chi in half_box(3, 8)]
        assert len(rows) == 2456 and sum(row.endswith("*m3") or row == "chi = m3" for row in rows) == 8
        assert len(joins["swfold.cli"]) == 2449
        assert len(joins["swfold.obstruction"]) <= 17**2 + 17 + 1

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 4), st.integers(1, 3))
    def test_chi_texts_equal_each_class_text(self, rng, rank, box):
        """The listing's chi texts over random names, against each class's ``EulerClass.text``."""
        basis = Basis(tuple(rng.choice(("m", "x", "long_name")) + str(i) for i in range(1, rank + 1)))
        m = random_manifold(rng, basis)
        entries = box_folds(m, box)
        vectors = {e.chi.chi for e in entries}
        assert (0,) * (rank - 1) + (box,) in vectors  # its only nonzero entry is its pivot
        assert rank == 1 or any(min(v) < 0 for v in vectors)
        chis = [entry["chi"] for entry in search_payload(m, box)["entries"]]
        assert chis == [e.chi.text for e in entries]

    def test_two_digit_chi_texts_equal_each_class_text(self):
        """Classes of a box past 9: the listing's memoized pieces for two-digit entries."""
        m = random_manifold(random.Random(7), Basis(("x1", "x2")))
        chis = [entry["chi"] for entry in search_payload(m, 12)["entries"]]
        assert chis == [e.chi.text for e in box_folds(m, 12)]
        assert {"12*x2 + 12*x1", "-12*x2 + 12*x1", "12*x1"} <= set(chis)


class TestSweep:
    """The kernel ``_sweep`` against ``fold`` by each class of ``half_box``, and its refusals."""

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 4), st.integers(1, 12))
    @example(seed=1, rank=1, box=12)  # rank 1: one empty rest, two-digit moduli
    @example(seed=2, rank=2, box=11)  # negative and two-digit rests
    @example(seed=3, rank=3, box=10)
    @example(seed=4, rank=4, box=4)
    def test_texts_are_each_rows_class_text(self, seed, rank, box):
        """``texts()`` yields ``EulerClass.text`` of each row's vector, in row order, over random names; at
        most 10^4 classes a box."""
        box = min(box, max(b for b in range(1, 13) if (2 * b + 1) ** rank <= 10**4))
        rng = random.Random(seed)
        basis = Basis(tuple(rng.choice(("m", "x", "long_name", "T")) + rng.choice(("", "_", "9")) + str(i)
                            for i in range(1, rank + 1)))
        _, rows, _, _, texts = _sweep(random_manifold(rng, basis), box)
        expected = [EulerClass(basis, chi).text for chi, _, _ in rows]
        assert list(texts()) == expected
        assert list(texts()) == expected  # each call reads the rows afresh

    def test_row_count_formula(self, fig8_pair):
        for box in (1, 2):
            assert len(_sweep(fig8_pair, box)[1]) == ((2 * box + 1) ** 3 - 1) // 2
        for box in range(1, 5):
            for rank in (1, 2, 3):
                assert len(half_box(rank, box)) == ((2 * box + 1) ** rank - 1) // 2

    def test_rows_sorted_and_deterministic(self, five2_pair):
        assert _sweep(five2_pair, 2)[1] == _sweep(five2_pair, 2)[1]
        rank2 = random_manifold(random.Random(97), Basis(("x1", "x2")))
        for m in (surface_times_circle(2), rank2, five2_pair):
            for box in range(1, 5):
                vectors = [chi for chi, _, _ in _sweep(m, box)[1]]
                assert vectors == half_box(m.basis.rank, box) == sorted(vectors), (m.basis.rank, box)

    @staticmethod
    def assert_rows_split_at_the_colliders(m, box):
        """Each row equals its class's fold; a class outside ``colliding_classes`` keeps every sw3 term,
        and a collider keeps fewer, so the sweep's two row paths split exactly where merging can happen."""
        colliders = set(colliding_classes(m))
        for (chi, terms), folded in zip(sweep_terms(m, box), box_folds(m, box), strict=True):
            assert chi == folded.chi.chi and terms == folded.terms
            assert (len(terms) == len(m.sw3)) == folded.injective
            assert any(c in (1, -1) for _, c in terms) == (not folded.obstructed)
            assert len(terms) < len(m.sw3) if chi in colliders else len(terms) == len(m.sw3)

    def test_demo_pairs_at_box_8_equal_the_folds(self, fig8_pair, five2_pair):
        """Both demo pairs, and the trefoil demo, row for row."""
        trefoil = fiber_sum(three_torus(), [(BUILTIN_KNOTS.lookup("3_1"), "m1")])
        for m in (trefoil, fig8_pair, five2_pair):
            self.assert_rows_split_at_the_colliders(m, 8)

    @settings(max_examples=30)
    @given(st.randoms(use_true_random=False).map(lambda rng: random_manifold(rng, random_basis(rng))),
           st.integers(1, 3))
    # the widest key digit: by t every term merges into one coefficient of sw3's L1 norm S, +S and -S
    @example(ThreeManifold(None, Basis(("t",)), 3, from_text("t^-1 + 2 + t", Basis(("t",)))), 2)
    @example(ThreeManifold(None, Basis(("t",)), 3, from_text("-t^-3 - 2*t^-1 - 2*t - t^3", Basis(("t",)))), 1)
    # negative codes: by x2 and 2*x2 the terms of each x1 column merge, the x1^-1 column's below zero
    @example(ThreeManifold(None, Basis(("x1", "x2")), 3,
                           from_text("x1^-1*x2^-1 + 3*x1^-1*x2 + 3*x1*x2^-1 + x1*x2", Basis(("x1", "x2")))), 2)
    def test_rows_split_at_the_colliders(self, m, box):
        self.assert_rows_split_at_the_colliders(m, box)

    def test_random_rows_agree_with_definitions(self):
        rng = random.Random(89)
        cancelled = 0
        for _ in range(40):
            basis = random_basis(rng)
            m = random_manifold(rng, basis)
            support = m.sw3.support()
            for chi, terms in sweep_terms(m, 2):
                q = QuotientLattice(EulerClass(basis, chi))
                cosets = {canonical_rep(q, e) for e in support}
                assert (len(terms) == len(support)) == (len(cosets) == len(support))
                oracle = fold_bruteforce(m, chi).poly
                assert terms == oracle.terms()
                assert _render(basis, terms) == to_text(oracle)
                cancelled += len(oracle) < len(cosets)
        assert cancelled > 0  # merged coefficients that cancel must be exercised

    @settings(max_examples=30)
    @given(st.randoms(use_true_random=False), st.integers(1, 3))
    def test_packed_sweep_equals_each_fold(self, rng, box):
        """The packed sweep against the single-class fold path, row for row."""
        m = random_manifold(rng, random_basis(rng))
        rows = sweep_terms(m, box)
        for (chi, terms), folded in zip(rows, box_folds(m, box), strict=True):
            assert chi == folded.chi.chi and terms == folded.terms
            assert (len(terms) == len(m.sw3)) == folded.injective
        for chi, terms in rng.sample(rows, min(5, len(rows))):
            assert terms == fold_bruteforce(m, chi).poly.terms()

    @settings(max_examples=40)
    @given(st.randoms(use_true_random=False), st.integers(1, 4), st.integers(1, 3))
    def test_checked_constructors_accept_every_entry(self, rng, rank, box):
        """The checked ``__init__``s accept each decoded row as it stands and build the class's fold."""
        basis = Basis(tuple(f"x{i}" for i in range(1, rank + 1)))
        m = random_manifold(rng, basis)
        for chi, terms in sweep_terms(m, box):
            checked = FoldedSW(EulerClass(basis, chi), basis, terms, len(terms) == len(m.sw3))
            folded = fold(m, chi)
            assert checked == folded and checked.unit_classes == folded.unit_classes

    @staticmethod
    def assert_oracles_agree(m, chi, terms):
        """A row against the single-class fold and the brute-force fold."""
        folded = fold(m, chi)
        assert terms == folded.terms and (len(terms) == len(m.sw3)) == folded.injective
        assert terms == fold_bruteforce(m, chi).poly.terms()

    def test_representatives_at_the_packing_bound(self):
        """Coordinates of +-s folded by chi = (1, B) reach +-s*(B+1), the widest code digit."""
        s, box = 3, 2
        basis = Basis(("x1", "x2"))
        sw3 = LaurentPoly(basis, {(s, -s): 2, (-s, s): 2, (s, s): -1, (-s, -s): -1, (0, 0): 3, (1, -2): 1, (-1, 2): 1})
        m = ThreeManifold(genus=None, basis=basis, b1=3, sw3=sw3)
        rows = sweep_terms(m, box)
        widest = max(abs(e) for _, terms in rows for exp, _ in terms for e in exp)
        assert widest == s * (box + 1)
        for chi, terms in rows:
            self.assert_oracles_agree(m, chi, terms)

    def test_group_check_refuses_a_pivot_coordinate_out_of_range(self):
        """``FoldedSW``'s term check for a fold by a class with pivot 1 and modulus 3, given a pivot
        coordinate outside [0, 3) and an exponent of the wrong length."""
        _require_terms([((5, 0, 1), 2), ((5, 2, -1), -1)], 3, 1, 3)
        for exp, message in (([5, 3, 0], r"exponent \[5, 3, 0\] is not a canonical representative \(pivot 1, "
                                         r"modulus 3\)"),
                             ((0, -1, 0), r"exponent \(0, -1, 0\) is not a canonical"),
                             ((0, 1), r"exponent \(0, 1\) has length 2, basis rank is 3")):
            with pytest.raises(StructuralError, match=message):
                _require_terms([((0, 0, 0), 1), (exp, 1)], 3, 1, 3)

    def test_group_where_no_term_moves(self, five2_pair):
        """Sums on m1 and m2 only: with pivot m3 every multiplier is 0, so each row is sw3 itself."""
        rows = [(chi, terms) for chi, terms in sweep_terms(five2_pair, 3) if chi[:2] == (0, 0)]
        assert [chi for chi, _ in rows] == [(0, 0, 1), (0, 0, 2), (0, 0, 3)]
        for chi, terms in rows:
            assert terms == five2_pair.sw3.terms()
            self.assert_oracles_agree(five2_pair, chi, terms)

    def test_moving_terms_merge_into_fixed_codes(self, five2_pair):
        """chi = 2*m1: the m1^-2 and m1^2 columns move onto the fixed m1^0 column and merge."""
        sw3 = dict(five2_pair.sw3.terms())
        [terms] = [terms for chi, terms in sweep_terms(five2_pair, 2) if chi == (2, 0, 0)]
        assert len(terms) < len(sw3) and {exp[0] for exp, _ in terms} == {0}
        fixed = [(exp, c) for exp, c in terms if exp in sw3]
        assert fixed and all(c != sw3[exp] for exp, c in fixed)  # each fixed term gained moving ones
        self.assert_oracles_agree(five2_pair, (2, 0, 0), terms)

    def test_fold_that_cancels_every_term(self, tmp_path):
        """On S2xS1, t^2 - 2 + t^-2 folds to 0 by t and by 2*t: the rows print exactly sw4 = 0."""
        spec = tmp_path / "S2xS1.json"
        spec.write_text('{"base": {"surface_x_s1": 2}}')
        m = surface_times_circle(2)
        by_chi = dict(sweep_terms(m, 3))
        for chi in ((1,), (2,)):
            assert by_chi[chi] == ()
            self.assert_oracles_agree(m, chi, by_chi[chi])
        rows = run(["search", str(spec), "--box", "3"]).text.splitlines()[1:4]
        assert rows == ["chi = t | obstructed = true | injective = false | sw4 = 0",
                        "chi = 2*t | obstructed = true | injective = false | sw4 = 0",
                        "chi = 3*t | obstructed = false | injective = true | sw4 = -2 + t + t^2"]

    def test_work_bound_refuses_before_any_work(self, fig8_pair, monkeypatch):
        """((2B+1)^r - 1)/2 classes times the sw3 terms over the limit raise at once, naming both."""
        s2 = surface_times_circle(2)
        for m, box, classes in ((s2, 99999999999999999999, "99999999999999999999"),
                                (fig8_pair, 100000, "4000060000300000"), (fig8_pair, 10**5000, "about 10^15001")):
            start = time.perf_counter()
            with pytest.raises(DomainError, match=f" holds {re.escape(classes)} Euler classes of {len(m.sw3)} terms "
                                                  r"each: .* term folds, over the limit of 10000000"):
                _sweep(m, box)
            assert time.perf_counter() - start < 1
        monkeypatch.setattr(sys.modules["swfold.obstruction"], "MAX_TERM_FOLDS", 62 * 9)
        assert len(_sweep(fig8_pair, 2)[1]) == 62  # the limit itself is allowed
        monkeypatch.setattr(sys.modules["swfold.obstruction"], "MAX_TERM_FOLDS", 62 * 9 - 1)
        with pytest.raises(DomainError, match="558 term folds, over the limit of 557"):
            _sweep(fig8_pair, 2)

    def test_bad_box_rejected(self, fig8_pair):
        for box in (True, 2.0, 0):
            with pytest.raises(DomainError, match="search box must be an integer >= 1"):
                _sweep(fig8_pair, box)
            with pytest.raises(DomainError, match="search box must be an integer >= 1"):
                stabilization_note(fig8_pair, box)

    def test_huge_box_is_printed_by_magnitude(self, fig8_pair):
        """A box past str()'s digit limit is printed by its sign and magnitude, not raised as ValueError."""
        assert "box about 10^5000 covers every collision-capable class" in stabilization_note(fig8_pair, 10**5000)
        for call in (_sweep, stabilization_note):
            start = time.perf_counter()
            with pytest.raises(DomainError) as err:
                call(fig8_pair, -10**5000)
            assert time.perf_counter() - start < 1
            assert str(err.value) == "search box must be an integer >= 1, got about -10^5000"

    def test_zero_sw3_counts_one_fold_per_class(self):
        """A zero sw3 has no terms, but each class is still a step: its box is bounded like any other."""
        zero = ThreeManifold(None, T3_BASIS, 3, LaurentPoly.zero(T3_BASIS))
        start = time.perf_counter()
        with pytest.raises(DomainError, match="holds 4000600030000 Euler classes of 0 terms each: "
                                              "4000600030000 term folds, over the limit of 10000000"):
            _sweep(zero, 10**4)
        assert time.perf_counter() - start < 1
        assert sweep_terms(zero, 2) == [(chi, ()) for chi in half_box(3, 2)]
        rows = listing_rows(search_text(zero, 2)).values()
        assert len(rows) == 62 and all(row.endswith(" | injective = true | sw4 = 0") for row in rows)

    def test_term_folds_count_once_per_key_word(self):
        """A key of many 64-bit words costs a fold per word: 1,000-digit knot coefficients on m1 and m2
        give 9 terms on 6,669-bit keys (105 words), so box 20's 310,140 term folds count 32,564,700."""
        n = int("9" * 1000)
        big = knot_from_alexander("big", False, f"{n}*t - {2 * n - 1} + {n}*t^-1")
        m = fiber_sum(three_torus(), [(big, "m1"), (big, "m2")])
        start = time.perf_counter()
        with pytest.raises(DomainError) as err:
            _sweep(m, 20)
        assert time.perf_counter() - start < 1
        assert str(err.value) == ("search box 20 holds 34460 Euler classes of 9 terms each: 310140 term folds of "
                                  "105 key words each, 32564700 one-word term folds, over the limit of 10000000")
        assert len(_sweep(m, 10)[1]) == 4630  # 41,670 term folds times 105 words: 4,375,350

    def test_low_b_plus_rejected(self):
        s = surface_times_circle(1)
        pretend = ThreeManifold(s.genus, s.basis, 2, s.sw3)
        with pytest.raises(HypothesisError):
            _sweep(pretend, 2)

    @pytest.mark.parametrize("spec", ["trefoil.json", "fig8-pair.json", "52-pair.json"])
    def test_note_is_each_demos_stabilization_note(self, spec):
        m = cli.load_spec(str(DEMOS / spec))
        for box in (1, 2, 5, 8):
            assert _sweep(m, box)[0] == stabilization_note(m, box), box

    def test_note_is_the_stabilization_note(self):
        rng = random.Random(107)
        for _ in range(80):
            m, box = random_manifold(rng, random_basis(rng)), rng.randint(1, 4)
            assert _sweep(m, box)[0] == stabilization_note(m, box)

    @pytest.mark.parametrize("flags", [(), ("--json",), ("--quiet",)], ids=["text", "json", "quiet"])
    def test_search_finds_the_colliders_once(self, monkeypatch, five2_pair, flags):
        """The sweep's colliders split its rows and feed the note: one ``colliding_classes`` per search."""
        calls, module = [], sys.modules["swfold.obstruction"]
        find = module.colliding_classes
        monkeypatch.setattr(module, "colliding_classes", lambda m: calls.append(m) or find(m))
        out = search_output(five2_pair, 2, *flags)
        assert calls == [five2_pair]
        assert out == search_reference(five2_pair, 2, *flags)


@st.composite
def partial_towers(draw):
    """A ``random_manifold``-style T3 manifold whose sw3 leaves a random nonempty set of coordinates
    untouched (every one of its exponents is 0 there), and a box of 1-4."""
    rng, box = draw(st.randoms(use_true_random=False)), draw(st.integers(1, 4))
    touched = draw(st.lists(st.sampled_from(T3_BASIS.names), unique=True, max_size=2))
    p = LaurentPoly(T3_BASIS, {T3_BASIS.origin: rng.randint(-4, 4)})
    if touched:
        p = random_poly(rng, Basis(tuple(touched)), max_terms=6, max_exp=6, max_coeff=4)
        p = p.reindex(T3_BASIS, {name: T3_BASIS.unit(name) for name in touched})
    return ThreeManifold(None, T3_BASIS, 3, p + p.conjugate()), box


def untouched(m: ThreeManifold, chi: tuple[int, ...]) -> bool:
    """Whether chi's pivot coordinate is one that sw3 does not touch."""
    pivot = next(i for i, c in enumerate(chi) if c)
    return not any(exp[pivot] for exp in m.sw3.support())


class TestUntouchedPivot:
    """A class whose pivot coordinate sw3 does not touch moves no term: its row is sw3's own, one list
    built once per search, rendered once by the listing, and it never collides."""

    def test_rows_share_sw3s_keys_and_one_digest(self, monkeypatch):
        m = fiber_sum(three_torus(), [(BUILTIN_KNOTS.lookup("4_1"), "m2"), (BUILTIN_KNOTS.lookup("5_2"), "m3")])
        _, rows, read, _, _ = _sweep(m, 4)
        shared = [keys for chi, keys, _ in rows if chi[0]]  # pivot m1, which no sum touches
        assert len(rows) == 364 and len(shared) == 4 * 81
        assert all(keys is shared[0] for keys in shared)
        assert shared[0] == sorted(shared[0]) and tuple(read[key] for key in shared[0]) == m.sw3.terms()
        assert all(keys is not shared[0] for chi, keys, _ in rows if not chi[0])
        joins, joined = [], cli._joined
        monkeypatch.setattr(cli, "_joined", lambda pieces: joins.append(joined(pieces)) or joins[-1])
        text = search_text(m, 4)
        assert text.encode() == search_reference(m, 4)
        sw4 = f" | sw4 = {m.sw3}"
        assert sum(row.endswith(sw4) for row in listing_rows(text).values()) == 4 * 81
        assert len(joins) == 364 - 4 * 81 + 1 and joins.count(str(m.sw3)) == 1

    @settings(max_examples=30, deadline=None)
    @given(partial_towers())
    # m3 and m1 untouched at box 1: the lone m3 row comes before the m2 rows, the m1 rows after them
    @example((fiber_sum(three_torus(), [(BUILTIN_KNOTS.lookup("4_1"), "m2")]), 1))
    def test_listing_equals_the_folds_and_no_such_class_collides(self, drawn):
        """Every output form equals the folds, the listing joins each row list once, and no class whose
        pivot coordinate sw3 does not touch collides."""
        m, box = drawn
        joins, joined = [], cli._joined
        with mock.patch.object(cli, "_joined", lambda pieces: joins.append(1) or joined(pieces)):
            assert search_output(m, box) == search_reference(m, box)
        for flags in (("--quiet",), ("--json",)):
            assert search_output(m, box, *flags) == search_reference(m, box, *flags), flags
        colliders, rows = set(colliding_classes(m)), _sweep(m, box)[1]
        own = [keys for chi, keys, _ in rows if untouched(m, chi)]
        assert own and all(keys is own[0] for keys in own)
        assert len(joins) == len(rows) - len(own) + 1
        assert not any(untouched(m, chi) for chi in colliders)


def negated(chi: tuple[int, ...], terms, s: int) -> dict:
    """Oracle: the terms of a fold by chi with each exponent negated and stepped along chi back into
    [0, m) at chi's pivot, m its pivot entry, and each coefficient times s; no floor division, no packing."""
    pivot = next(i for i, c in enumerate(chi) if c)
    out = {}
    for exp, coeff in terms:
        exp = [-e for e in exp]
        while exp[pivot] < 0:
            exp = [e + c for e, c in zip(exp, chi)]
        while exp[pivot] >= chi[pivot]:
            exp = [e - c for e, c in zip(exp, chi)]
        out[tuple(exp)] = s * coeff
    return out


class TestFoldIsARingMap:
    """Folding by chi maps Z[H] onto Z[H/<chi>] as rings, so a fiber sum's fold is the fold of the product of
    its base's fold and each knot factor's fold: each side folds by its own route, factor by factor."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(BUILTIN_KNOTS.names()), st.sampled_from(T3_BASIS.names)),
                    min_size=1, max_size=4), st.integers(1, 3), st.data())
    def test_tower_fold_is_the_fold_of_its_folded_factors(self, sums, box, data):
        m = fiber_sum(three_torus(), [(BUILTIN_KNOTS.lookup(name), meridian) for name, meridian in sums])
        chi = tuple(data.draw(st.lists(st.integers(-box, box), min_size=3, max_size=3).filter(any)))
        quotient = QuotientLattice(EulerClass(T3_BASIS, chi))
        squared = {meridian: {"t": [2 * e for e in T3_BASIS.unit(meridian)]} for meridian in T3_BASIS.names}
        # each knot's Alexander polynomial at its meridian squared
        factors = [BUILTIN_KNOTS.lookup(name).alexander.reindex(T3_BASIS, squared[meridian]) for name, meridian in sums]
        folded = reduce(mul, [fold_poly(f, quotient) for f in [three_torus().sw3, *factors]])
        expected = fold_poly(folded, quotient).terms()
        assert fold(m, chi).terms == expected
        _, rows, read, _, _ = _sweep(m, box)
        keys = next(keys for vector, keys, _ in rows if vector == quotient.chi)
        assert tuple(read[key] for key in keys) == expected


class TestNegationInvariance:
    """A free circle action has SW_X(-xi) = +-SW_X(xi): with sw3.conjugate() == s*sw3, negating a fold's
    exponents back into canonical form and multiplying its coefficients by s gives the same fold."""

    @settings(max_examples=60)
    @given(st.randoms(use_true_random=False), st.integers(1, 3), st.sampled_from((1, -1)))
    def test_every_fold_and_row_is_negation_invariant(self, rng, box, sign):
        m = random_manifold(rng, random_basis(rng))
        more = random.Random(rng.getrandbits(64))  # the rest of the draws, past Hypothesis's example size
        if sign == -1:  # random_manifold's sw3 is symmetric; p - p.conjugate() is antisymmetric
            p = random_poly(more, m.basis, max_terms=6, max_exp=6, max_coeff=4)
            m = ThreeManifold(None, m.basis, m.b1, p - p.conjugate())
        s = 1 if m.sw3.conjugate() == m.sw3 else -1
        assert m.sw3.conjugate() == (m.sw3 if s == 1 else -m.sw3)
        for _ in range(5):
            folded = fold(m, random_chi(more, m.basis.rank))
            assert negated(folded.chi.chi, folded.terms, s) == dict(folded.terms)
        _, rows, read, _, _ = _sweep(m, box)
        for chi, keys, _ in rows:
            terms = [read[key] for key in keys]
            assert negated(chi, terms, s) == dict(terms), chi


class TestCollidingClasses:
    def test_trefoil_manifold_exact_set(self):
        m = fiber_sum(three_torus(), [(BUILTIN_KNOTS.lookup("3_1"), "m1")])
        assert colliding_classes(m) == ((1, 0, 0), (2, 0, 0), (4, 0, 0))

    def test_collision_set_is_exactly_the_noninjective_set(self, five2_pair):
        colliders = set(colliding_classes(five2_pair))
        for folded in box_folds(five2_pair, 5):
            assert (folded.chi.chi in colliders) == (not folded.injective)

    def test_random_agreement_with_injectivity(self):
        rng = random.Random(83)
        for _ in range(40):
            basis = random_basis(rng)
            m = random_manifold(rng, basis)
            colliders = set(colliding_classes(m))
            for _ in range(10):
                chi = random_chi(rng, basis.rank)
                q = QuotientLattice(EulerClass(basis, chi))
                reps = {canonical_rep(q, e) for e in m.sw3.support()}
                injective = len(reps) == len(m.sw3.support())
                assert (q.chi in colliders) == (not injective)


def colliders_by_pairs(support) -> tuple[tuple[int, ...], ...]:
    """Oracle: every pair difference as a tuple, kept when lexicographically
    positive, divided by every common divisor of its entries (sympy's)."""
    sympy = pytest.importorskip("sympy")
    zero = tuple(0 for _ in support[0])
    out = set()
    for diff in {tuple(b - a for a, b in zip(p, q)) for p in support for q in support}:
        if diff > zero:
            out.update(tuple(c // k for c in diff) for k in sympy.divisors(sympy.igcd(0, *diff)))
    return tuple(sorted(out))


def sw3_on(support) -> ThreeManifold:
    """A manifold whose sw3 is 1 on every exponent of ``support``, over x1..xr."""
    rank = len(support[0])
    basis = Basis(tuple(f"x{i}" for i in range(1, rank + 1)))
    return ThreeManifold(genus=None, basis=basis, b1=max(rank, 3), sw3=LaurentPoly(basis, dict.fromkeys(support, 1)))


@st.composite
def symmetric_manifolds(draw):
    """Rank 1-4, 1-40 support terms (closed under negation), coordinates up to ~1e8.

    Coordinate j is s * anchor_j + t with small s and t, so that differences
    both collide and reach 1e8; codes of rank 2-4 then exceed 64 bits.  The
    bound is 1e8 because the divisor loop is O(sqrt(gcd)) per difference.
    """
    rank = draw(st.integers(1, 4))
    anchors = draw(st.lists(st.integers(-10**8, 10**8), min_size=rank, max_size=rank))
    shape = st.tuples(*[st.tuples(st.integers(-1, 1), st.integers(-3, 3))] * rank)
    terms = {}
    for draws in draw(st.lists(shape, min_size=1, max_size=20)):
        exp = tuple(s * a + t for a, (s, t) in zip(anchors, draws))
        terms[exp] = terms[tuple(-e for e in exp)] = 1
    basis = Basis(tuple(f"x{i}" for i in range(1, rank + 1)))
    return ThreeManifold(genus=None, basis=basis, b1=max(rank, 3), sw3=LaurentPoly(basis, terms))


@st.composite
def product_manifolds(draw):
    """Rank 1-4 supports that are products of symmetric coordinate sets of up to 8 values,
    coordinates up to ~1e8 as in :func:`symmetric_manifolds`, at most 160 points; and the
    same support without one point and its negative, which is no longer a product."""
    rank = draw(st.integers(1, 4))
    columns = []
    for _ in range(rank):
        pairs = min(4, max(1, 160 // prod(map(len, columns), start=1) // 2))
        anchor = draw(st.integers(-10**8, 10**8))
        shapes = draw(st.lists(st.tuples(st.integers(-1, 1), st.integers(-3, 3)), min_size=1, max_size=pairs))
        columns.append(sorted({sign * (s * anchor + t) for s, t in shapes for sign in (1, -1)}))
    basis = Basis(tuple(f"x{i}" for i in range(1, rank + 1)))
    support = list(product(*columns))
    point = support[draw(st.integers(0, len(support) - 1))]
    rest = [exp for exp in support if exp not in (point, tuple(-e for e in point))]
    return [ThreeManifold(genus=None, basis=basis, b1=max(rank, 3), sw3=LaurentPoly(basis, dict.fromkeys(terms, 1)))
            for terms in (support, rest) if terms]


class TestCollidingClassesOracle:
    @settings(deadline=None)  # a 9-digit gcd costs the oracle and the divisor loop ms
    @given(symmetric_manifolds())
    def test_equals_pairwise_tuple_differences(self, m):
        assert colliding_classes(m) == colliders_by_pairs(m.sw3.support())

    @settings(deadline=None, max_examples=50)
    @given(product_manifolds())
    def test_blocks_equal_pairwise_tuple_differences(self, manifolds):
        """The per-divisor route for a product support, and the pair scan once a point is gone."""
        for m in manifolds:
            assert colliding_classes(m) == colliders_by_pairs(m.sw3.support())

    def test_wide_rank_one_support(self):
        """{t^A, t^-A} with A = 2*999999999989: one difference, 4*999999999989, whose isqrt of about
        2e6 trial divisions stays under the bound."""
        a = 2 * 999999999989
        m = sw3_on([(-a,), (a,)])
        assert colliding_classes(m) == colliders_by_pairs(m.sw3.support())

    def test_highly_composite_column_differences(self):
        """Rank 3, each column {0, +-360360, +-720720}: column differences with hundreds of divisors,
        so the same class comes from many k."""
        m = sw3_on(list(product((-720720, -360360, 0, 360360, 720720), repeat=3)))
        assert colliding_classes(m) == colliders_by_pairs(m.sw3.support())

    def test_nine_sum_five2_tower(self):
        m = three_torus()
        for j in range(9):
            m = fiber_sum(m, [(BUILTIN_KNOTS.lookup("5_2"), ("m1", "m2", "m3")[j % 3])])
        assert len(m.sw3) == 343
        colliders = colliding_classes(m)
        assert len(colliders) == 2025
        assert colliders == colliders_by_pairs(m.sw3.support())


class TestTrialDivisionBound:
    """Each distinct number factored costs isqrt(n) trial divisions, on either route; over
    ``MAX_TRIAL_DIVISIONS`` in all, one :class:`DomainError` names the estimate before the first."""

    @pytest.mark.parametrize("route", ["product", "pairs"])
    def test_the_limit_itself_is_allowed(self, monkeypatch, route):
        columns = [(-30, -6, 6, 30), (-10, 0, 10)]
        support = list(product(*columns))
        if route == "product":  # the distinct positive differences within a column
            numbers = {b - a for column in columns for a in column for b in column if b > a}
        else:  # one point and its negative gone: the distinct gcds of the pair differences
            support = [exp for exp in support if exp not in ((30, 10), (-30, -10))]
            numbers = {gcd(*(q - p for p, q in zip(a, b))) for a in support for b in support if a < b}
        m, trials = sw3_on(support), sum(map(isqrt, numbers))
        monkeypatch.setattr(sys.modules["swfold.obstruction"], "MAX_TRIAL_DIVISIONS", trials)
        assert colliding_classes(m) == colliders_by_pairs(m.sw3.support())
        monkeypatch.setattr(sys.modules["swfold.obstruction"], "MAX_TRIAL_DIVISIONS", trials - 1)
        with pytest.raises(DomainError) as err:
            colliding_classes(m)
        assert str(err.value) == (f"finding the colliding Euler classes takes {trials} trial divisions of "
                                  f"{len(numbers)} support differences, over the limit of {trials - 1}")

    @pytest.mark.parametrize("exponent", [10**4300, 2 * 10**15], ids=["4301-digit", "2e15"])
    def test_wide_support_is_refused_at_once(self, exponent):
        """{t^-A, 1, t^A}: differences A and 2A, whose isqrts sum far over the limit."""
        m = sw3_on([(-exponent,), (0,), (exponent,)])
        start = time.perf_counter()
        with pytest.raises(DomainError, match=r"takes (about 10\^2150|\d+) trial divisions of 2 support differences, "
                                              "over the limit of 10000000"):
            stabilization_note(m, 1)
        assert time.perf_counter() - start < 1


def read_note(note: str):
    """Parse a multi-term note back into (multiset, has_unit, (colliders, bound), missed)."""
    _, units, merge, cover = note.split("\n")
    multiset, verdict = re.fullmatch(r"unfolded coefficients \{(.*)\}: (.*)", units).groups()
    counts = Counter()
    for part in multiset.split(", "):
        value, _, count = part.partition(" x")
        counts[int(value)] = int(count or 1)
    assert list(counts) == sorted(counts)
    has_unit = {"unit coefficients present; injective folds are not obstructed": True,
                "no units; all injective folds are obstructed": False}[verdict]
    count, low, high = map(int, re.fullmatch(
        r"(\d+) Euler classes \(up to sign\) can merge distinct terms; "
        r"all their coefficients lie within \[-(\d+), (\d+)\]", merge).groups())
    assert low == high
    missed = re.fullmatch(r"box \d+ (?:covers every collision-capable class: outside the box every fold is injective"
                          r"|misses (\d+) collision-capable classes \(increase the box to (\d+) to cover all\))",
                          cover)
    assert missed.group(2) in (None, str(high))
    return counts, has_unit, (count, high), int(missed.group(1) or 0)


class TestStabilizationNote:
    def test_note_reads_back_against_oracles(self):
        rng = random.Random(101)
        multi = 0
        for _ in range(260):
            m = random_manifold(rng, random_basis(rng))
            box = rng.randint(1, 6)
            note = stabilization_note(m, box)
            if len(m.sw3) <= 1:
                assert note.split("\n")[1] == "single-term support: every fold is injective"
                continue
            multi += 1
            counts, has_unit, (count, bound), missed = read_note(note)
            assert counts == Counter(coefficients(m.sw3))
            assert has_unit == any(c in (1, -1) for c in coefficients(m.sw3))
            colliders = colliders_by_pairs(m.sw3.support())
            assert (count, bound) == (len(colliders), max(abs(c) for chi in colliders for c in chi))
            assert missed == sum(1 for chi in colliders if max(map(abs, chi)) > box)
        assert multi >= 200

    def test_range_is_the_widest_support_range(self):
        """Oracle: the support's extreme points in its widest coordinate differ by a k = 1 collider, and
        k > 1 only shrinks, so the colliders' extent is that range and a box covers them iff it reaches it."""
        rng = random.Random(103)
        multi = 0
        for _ in range(80):
            m = random_manifold(rng, random_basis(rng))
            if len(m.sw3) <= 1:
                continue
            multi += 1
            widest = max(max(col) - min(col) for col in zip(*m.sw3.support()))
            for box in range(1, widest + 3):
                _, _, (_, bound), missed = read_note(stabilization_note(m, box))
                assert bound == widest
                assert (missed == 0) == (box >= widest)
        assert multi >= 60

    def test_five2_pair_note(self, five2_pair):
        note = stabilization_note(five2_pair, 5)
        assert "no units" in note
        assert "all injective folds are obstructed" in note
        assert "box 5 covers every collision-capable class" in note

    def test_fig8_pair_note(self, fig8_pair):
        note = stabilization_note(fig8_pair, 5)
        assert "unit coefficients present" in note
        assert "not obstructed" in note

    def test_single_term_support_note(self):
        note = stabilization_note(three_torus(), 5)
        assert "every fold is injective" in note

    def test_small_box_warns(self, five2_pair):
        note = stabilization_note(five2_pair, 2)
        assert "misses" in note
