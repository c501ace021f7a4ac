"""Unit-coefficient obstruction verdicts and box searches."""

import random
import re
import sys
import time
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from swfold.alexander import BUILTIN_KNOTS
from swfold.cli import run
from swfold.errors import DomainError, HypothesisError
from swfold.fold import EulerClass, QuotientLattice, canonical_rep, fold
from swfold.laurent import Basis, LaurentPoly, _render, to_text
from swfold.manifolds import T3_BASIS, ThreeManifold, fiber_sum, surface_times_circle, three_torus
from swfold.obstruction import SearchResult, colliding_classes, euler_search, stabilization_note

from conftest import coefficients, fold_bruteforce, random_basis, random_poly
from test_fold import random_chi, random_manifold


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


class TestEulerSearch:
    def test_entry_count_formula(self, fig8_pair):
        for box in (1, 2):
            result = euler_search(fig8_pair, box)
            assert len(result.entries) == ((2 * box + 1) ** 3 - 1) // 2
        for box in range(1, 5):
            for rank in (1, 2, 3):
                assert len(half_box(rank, box)) == ((2 * box + 1) ** rank - 1) // 2

    def test_fig8_pair_not_all_obstructed(self, fig8_pair):
        result = euler_search(fig8_pair, 2)
        assert result.all_obstructed is False
        by_chi = {e.chi.text: e for e in result.entries}
        # folding onto the m1 direction leaves column sums {-1, 3, -1}
        assert by_chi["m1"].obstructed is False

    def test_fig8_pair_4m_entries_obstructed(self, fig8_pair):
        result = euler_search(fig8_pair, 5)
        by_chi = {e.chi.text: e for e in result.entries}
        assert by_chi["4*m1"].obstructed is True
        assert by_chi["4*m2"].obstructed is True
        # -4*m1 and -4*m2 are covered by their antipodal representatives
        assert fold(fig8_pair, "-4*m1").poly == fold(fig8_pair, "4*m1").poly
        assert fold(fig8_pair, "-4*m2").poly == fold(fig8_pair, "4*m2").poly

    def test_five2_pair_all_obstructed_small_box(self, five2_pair):
        result = euler_search(five2_pair, 3)
        assert result.all_obstructed is True

    def test_entries_sorted_and_deterministic(self, five2_pair):
        a = euler_search(five2_pair, 2)
        b = euler_search(five2_pair, 2)
        assert a == b
        rank2 = random_manifold(random.Random(97), Basis(("x1", "x2")))
        for m in (surface_times_circle(2), rank2, five2_pair):
            for box in range(1, 5):
                vectors = [e.chi.chi for e in euler_search(m, box).entries]
                assert vectors == half_box(m.basis.rank, box) == sorted(vectors), (m.basis.rank, box)

    def test_fast_path_agrees_with_full_fold(self, fig8_pair, five2_pair):
        for m in (fig8_pair, five2_pair):
            for entry in euler_search(m, 8).entries:
                folded = fold(m, entry.chi)
                full_verdict = not any(c in (1, -1) for c in coefficients(folded.poly))
                assert entry.obstructed == full_verdict
                assert entry.digest == str(folded.poly)
                assert entry.unit_classes == unit_exponents(folded.poly)

    def test_random_entries_agree_with_definitions(self):
        rng = random.Random(89)
        cancelled = 0
        for _ in range(40):
            basis = random_basis(rng)
            m = random_manifold(rng, basis)
            support = m.sw3.support()
            for entry in euler_search(m, 2).entries:
                q = QuotientLattice(entry.chi)
                cosets = {canonical_rep(q, e) for e in support}
                assert entry.injective == (len(cosets) == len(support))
                oracle = fold_bruteforce(m, entry.chi).poly
                assert entry.obstructed == (not any(c in (1, -1) for c in coefficients(oracle)))
                assert entry.digest == to_text(oracle)
                assert entry.unit_classes == unit_exponents(oracle)
                cancelled += len(oracle) < len(cosets)
        assert cancelled > 0  # merged coefficients that cancel must be exercised

    @settings(max_examples=30)
    @given(st.randoms(use_true_random=False), st.integers(1, 3))
    def test_packed_sweep_equals_taubes_report(self, rng, box):
        """The packed sweep against the single-class fold path, entry for entry."""
        m = random_manifold(rng, random_basis(rng))
        result = euler_search(m, box)
        for entry in result.entries:
            reference = fold(m, entry.chi)
            assert entry == reference and entry.digest == reference.digest
        for entry in rng.sample(result.entries, min(5, len(result.entries))):
            assert entry.terms == fold_bruteforce(m, entry.chi).poly.terms()
        assert result.digests() == tuple(_render(e.basis, e.terms) for e in result.entries)
        assert tuple(result.chi_texts()) == tuple(e.chi.text for e in result.entries)

    def test_representatives_at_the_packing_bound(self):
        """Coordinates of +-s folded by chi = (1, B) reach +-s*(B+1), the widest code digit."""
        s, box = 3, 2
        basis = Basis(("x1", "x2"))
        sw3 = LaurentPoly(basis, {(s, -s): 2, (-s, s): 2, (s, s): -1, (-s, -s): -1, (0, 0): 3, (1, -2): 1, (-1, 2): 1})
        m = ThreeManifold(genus=None, basis=basis, b1=3, sw3=sw3)
        result = euler_search(m, box)
        widest = max(abs(e) for entry in result.entries for exp, _ in entry.terms for e in exp)
        assert widest == s * (box + 1)
        for entry in result.entries:
            assert entry == fold(m, entry.chi)
            assert entry.terms == fold_bruteforce(m, entry.chi).poly.terms()

    def test_an_empty_result_has_no_digests_or_chi_texts(self):
        result = SearchResult(box=1, entries=())
        assert result.digests() == () and tuple(result.chi_texts()) == ()
        assert result.all_obstructed is True

    def test_chi_texts_share_one_memo(self, five2_pair, monkeypatch):
        """One render per entry through one memo, bytes equal to each ``EulerClass.text``."""
        result = euler_search(five2_pair, 3)
        expected = tuple(e.chi.text for e in result.entries)
        memos = []

        def recording(basis, terms, memo=None):
            memos.append(memo)
            return _render(basis, terms, memo)

        monkeypatch.setattr(sys.modules["swfold.fold"], "_render", recording)
        assert tuple(result.chi_texts()) == expected
        assert len(memos) == len(result.entries) and len({id(m) for m in memos}) == 1

    @staticmethod
    def assert_oracles_agree(m, entry):
        """An entry against the single-class fold and the brute-force fold."""
        assert entry == fold(m, entry.chi)
        assert entry.terms == fold_bruteforce(m, entry.chi).poly.terms()

    def test_group_where_no_term_moves(self, five2_pair):
        """Sums on m1 and m2 only: with pivot m3 every multiplier is 0, so each entry is sw3 itself."""
        entries = [e for e in euler_search(five2_pair, 3).entries if e.chi.chi[:2] == (0, 0)]
        assert [e.chi.chi for e in entries] == [(0, 0, 1), (0, 0, 2), (0, 0, 3)]
        for entry in entries:
            assert entry.terms == five2_pair.sw3.terms() and entry.injective
            self.assert_oracles_agree(five2_pair, entry)

    def test_moving_terms_merge_into_fixed_codes(self, five2_pair):
        """chi = 2*m1: the m1^-2 and m1^2 columns move onto the fixed m1^0 column and merge."""
        sw3 = dict(five2_pair.sw3.terms())
        [entry] = [e for e in euler_search(five2_pair, 2).entries if e.chi.chi == (2, 0, 0)]
        assert not entry.injective and {exp[0] for exp, _ in entry.terms} == {0}
        fixed = [(exp, c) for exp, c in entry.terms if exp in sw3]
        assert fixed and all(c != sw3[exp] for exp, c in fixed)  # each fixed term gained moving ones
        self.assert_oracles_agree(five2_pair, entry)

    def test_fold_that_cancels_every_term(self, tmp_path):
        """On S2xS1, t^2 - 2 + t^-2 folds to 0 by t and by 2*t: the rows print exactly sw4 = 0."""
        spec = tmp_path / "S2xS1.json"
        spec.write_text('{"base": {"surface_x_s1": 2}}')
        m = surface_times_circle(2)
        by_chi = {e.chi.text: e for e in euler_search(m, 3).entries}
        for chi in ("t", "2*t"):
            assert by_chi[chi].terms == () and not by_chi[chi].injective
            self.assert_oracles_agree(m, by_chi[chi])
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
                euler_search(m, box)
            assert time.perf_counter() - start < 1
        monkeypatch.setattr(sys.modules["swfold.obstruction"], "MAX_TERM_FOLDS", 62 * 9)
        assert len(euler_search(fig8_pair, 2).entries) == 62  # the limit itself is allowed
        monkeypatch.setattr(sys.modules["swfold.obstruction"], "MAX_TERM_FOLDS", 62 * 9 - 1)
        with pytest.raises(DomainError, match="558 term folds, over the limit of 557"):
            euler_search(fig8_pair, 2)

    def test_bad_box_rejected(self, fig8_pair):
        with pytest.raises(DomainError):
            euler_search(fig8_pair, 0)
        for box in (True, 2.0, 0):
            with pytest.raises(DomainError, match="search box must be an integer >= 1"):
                euler_search(fig8_pair, box)
            with pytest.raises(DomainError, match="search box must be an integer >= 1"):
                stabilization_note(fig8_pair, box)

    def test_huge_box_is_printed_by_magnitude(self, fig8_pair):
        """A box past str()'s digit limit is printed by its sign and magnitude, not raised as ValueError."""
        assert "box about 10^5000 covers every collision-capable class" in stabilization_note(fig8_pair, 10**5000)
        for call in (euler_search, stabilization_note):
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
            euler_search(zero, 10**4)
        assert time.perf_counter() - start < 1
        result = euler_search(zero, 2)
        assert len(result.entries) == (5**3 - 1) // 2 and result.digests() == ("0",) * 62

    def test_low_b_plus_rejected(self):
        s = surface_times_circle(1)
        pretend = ThreeManifold(s.genus, s.basis, 2, s.sw3)
        with pytest.raises(HypothesisError):
            euler_search(pretend, 2)


class TestCollidingClasses:
    def test_trefoil_manifold_exact_set(self):
        m = fiber_sum(three_torus(), [(BUILTIN_KNOTS.lookup("3_1"), "m1")])
        assert colliding_classes(m) == ((1, 0, 0), (2, 0, 0), (4, 0, 0))

    def test_collision_set_is_exactly_the_noninjective_set(self, five2_pair):
        colliders = set(colliding_classes(five2_pair))
        result = euler_search(five2_pair, 5)
        for entry in result.entries:
            assert (entry.chi.chi in colliders) == (not entry.injective)

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


class TestCollidingClassesOracle:
    @settings(deadline=None)  # a 9-digit gcd costs the oracle and the divisor loop ms
    @given(symmetric_manifolds())
    def test_equals_pairwise_tuple_differences(self, m):
        assert colliding_classes(m) == colliders_by_pairs(m.sw3.support())

    def test_nine_sum_five2_tower(self):
        m = three_torus()
        for j in range(9):
            m = fiber_sum(m, [(BUILTIN_KNOTS.lookup("5_2"), ("m1", "m2", "m3")[j % 3])])
        assert len(m.sw3) == 343
        colliders = colliding_classes(m)
        assert len(colliders) == 2025
        assert colliders == colliders_by_pairs(m.sw3.support())


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
