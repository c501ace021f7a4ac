"""Coset folding: canonical representatives, oracle agreement, circle bundles."""

import math
import random
import sys

import pytest
from hypothesis import given, strategies as st

from swfold.errors import DomainError, HypothesisError, ParseError, StructuralError
from swfold.fold import (
    EulerClass,
    FoldedSW,
    QuotientLattice,
    canonical_rep,
    circle_bundle_sw_closed_form,
    circle_bundle_sw_direct,
    equal_up_to_sign,
    euler_vector_from_text,
    fold,
    fold_poly,
    fold_poly_bruteforce,
)
from swfold.laurent import Basis, LaurentPoly, from_text, to_text
from swfold.manifolds import T3_BASIS, ThreeManifold, surface_times_circle, three_torus

from conftest import coefficients, fold_bruteforce, monomial, random_basis, random_poly


def quotient_of(basis, vector) -> QuotientLattice:
    return QuotientLattice(EulerClass(basis, vector))


def random_manifold(rng: random.Random, basis: Basis) -> ThreeManifold:
    """Random manifold with a symmetrized polynomial (fold needs b_+ >= 2)."""
    p = random_poly(rng, basis, max_terms=6, max_exp=6, max_coeff=4)
    return ThreeManifold(genus=None, basis=basis, b1=max(basis.rank, 3), sw3=p + p.conjugate())


def random_chi(rng: random.Random, rank: int) -> tuple:
    while True:
        vector = tuple(rng.randint(-6, 6) for _ in range(rank))
        if any(vector):
            return vector


def random_unimodular_columns(rng: random.Random, rank: int) -> list:
    """Columns of a random matrix in GL(rank, Z), built from the identity by column operations."""
    columns = [[int(i == j) for i in range(rank)] for j in range(rank)]
    for _ in range(rng.randint(0, 4)):
        i, j = rng.randrange(rank), rng.randrange(rank)
        if i == j:
            columns[i] = [-c for c in columns[i]]
        else:
            k = rng.choice((-2, -1, 1, 2))
            columns[i] = [a + k * b for a, b in zip(columns[i], columns[j])]
    rng.shuffle(columns)
    return [tuple(col) for col in columns]


# -- Euler class text form ------------------------------------------------


class TestEulerText:
    def test_single_direction(self, b3):
        assert euler_vector_from_text("4*m1", b3) == (4, 0, 0)

    def test_combination(self, b3):
        assert euler_vector_from_text("-1*m1 + 2*m2", b3) == (-1, 2, 0)
        assert euler_vector_from_text("-m1 + 2*m2", b3) == (-1, 2, 0)

    def test_zero_allowed_as_vector(self, b3):
        assert euler_vector_from_text("0", b3) == (0, 0, 0)
        assert euler_vector_from_text("m1 - m1", b3) == (0, 0, 0)

    def test_rejects_nonlinear(self, b3):
        for bad in ("m1^2", "m1*m2", "3", "m1^-1"):
            with pytest.raises(ParseError):
                euler_vector_from_text(bad, b3)

    def test_round_trip_through_text(self, b3):
        chi = EulerClass(b3, (-1, 2, 0))
        assert euler_vector_from_text(chi.text, b3) == (-1, 2, 0)
        assert EulerClass(b3, (4, 0, 0)).text == "4*m1"

    @given(st.lists(st.one_of(st.integers(-2, 2), st.integers(-10**6, 10**6)), min_size=1, max_size=4)
           .filter(any))
    def test_text_is_the_polynomial_rendering(self, vector):
        basis = Basis(tuple(f"x{i}" for i in range(1, len(vector) + 1)))
        units = [basis.unit(name) for name in basis.names]
        chi = EulerClass(basis, tuple(vector))
        assert chi.text == to_text(LaurentPoly(basis, zip(units, vector)))
        assert euler_vector_from_text(chi.text, basis) == tuple(vector)

    def test_zero_euler_class_rejected(self, b3):
        with pytest.raises(DomainError):
            EulerClass(b3, (0, 0, 0))

    def test_length_mismatch_rejected(self, b3):
        with pytest.raises(StructuralError):
            EulerClass(b3, (1, 0))

    def test_bool_entries_rejected(self, b3, five2_pair):
        with pytest.raises(StructuralError):
            EulerClass(b3, (True, 0, 0))
        with pytest.raises(StructuralError):
            fold(five2_pair, (True, 0, 0))
        # entries are checked before the zero test, so these are not the product case
        for vector in ((False, False, False), (0.0, 0, 0), ("", 0, 0)):
            with pytest.raises(StructuralError):
                fold(five2_pair, vector)
            with pytest.raises(StructuralError):
                fold_bruteforce(five2_pair, vector)


class TestQuotientLattice:
    def test_pivot_and_normalization(self, b3):
        q = quotient_of(b3, (0, -2, 1))
        assert q.pivot == 1
        assert q.chi == (0, 2, -1)
        assert q.modulus == 2

    def test_negation_gives_same_quotient(self, b3):
        assert quotient_of(b3, (4, 0, 0)) == quotient_of(b3, (-4, 0, 0))

    @given(st.integers(1, 4).flatmap(lambda rank: st.tuples(*[st.integers(-3, 3)] * rank)).filter(any))
    def test_one_pivot_rule(self, vector):
        # EulerClass.pivot is read by both the quotient and the fold record
        basis = Basis(tuple(f"x{i}" for i in range(1, len(vector) + 1)))
        euler = EulerClass(basis, vector)
        assert not any(vector[:euler.pivot]) and vector[euler.pivot] != 0
        quotient = QuotientLattice(euler)
        assert quotient.pivot == euler.pivot
        assert quotient.euler.chi[quotient.pivot] > 0
        if vector[euler.pivot] < 0:
            with pytest.raises(StructuralError, match="not sign-normalized"):
                FoldedSW(euler, basis, (), True)
        else:
            assert FoldedSW(euler, basis, (), True).chi is euler


# -- canonical representatives --------------------------------------------


class TestCanonicalRep:
    def test_merging_example(self, b3):
        q = quotient_of(b3, (4, 0, 0))
        assert canonical_rep(q, (-2, -2, 0)) == (2, -2, 0)

    def test_already_canonical_is_fixed(self, b3):
        q = quotient_of(b3, (4, 0, 0))
        assert canonical_rep(q, (2, -2, 0)) == (2, -2, 0)

    def test_skew_direction(self, b3):
        q = quotient_of(b3, (2, 1, 0))
        assert canonical_rep(q, (2, 0, 0)) == (0, -1, 0)

    def test_idempotent_and_in_coset(self):
        rng = random.Random(31)
        for _ in range(200):
            basis = random_basis(rng)
            chi = random_chi(rng, basis.rank)
            q = quotient_of(basis, chi)
            e = tuple(rng.randint(-12, 12) for _ in range(basis.rank))
            rep = canonical_rep(q, e)
            assert 0 <= rep[q.pivot] < q.modulus
            assert canonical_rep(q, rep) == rep
            diff = tuple(a - b for a, b in zip(e, rep))
            k = diff[q.pivot] // q.modulus
            assert diff == tuple(k * c for c in q.chi)

    def test_length_mismatch(self, b3):
        with pytest.raises(StructuralError):
            canonical_rep(quotient_of(b3, (1, 0, 0)), (1, 2))


# -- the fold ---------------------------------------------------------------


class TestFold:
    def test_fig8_pair_by_4m1(self, fig8_pair):
        folded = fold(fig8_pair, "4*m1")
        assert dict(folded.poly.terms()) == {
            (2, -2, 0): 2,
            (0, -2, 0): -3,
            (0, 0, 0): 9,
            (2, 0, 0): -6,
            (2, 2, 0): 2,
            (0, 2, 0): -3,
        }

    def test_fig8_pair_matches_mixed_representative_display(self, fig8_pair):
        # The same six classes written with mixed representatives
        # normalize onto the fold output term by term.
        folded = fold(fig8_pair, "4*m1")
        q = QuotientLattice(folded.chi)
        mixed = from_text(
            "2*m1^-2*m2^-2 - 3*m2^-2 + 9 - 6*m1^2 + 2*m1^2*m2^2 - 3*m2^2", T3_BASIS
        )
        assert fold_poly(mixed, q) == folded.poly

    def test_five2_pair_by_m1_plus_m2(self, five2_pair):
        folded = fold(five2_pair, "m1 + m2")
        assert dict(folded.poly.terms()) == {
            (0, -4, 0): 4,
            (0, -2, 0): -12,
            (0, 0, 0): 17,
            (0, 2, 0): -12,
            (0, 4, 0): 4,
        }

    def test_constant_polynomial_any_chi(self):
        rng = random.Random(37)
        t3 = three_torus()
        for _ in range(20):
            folded = fold(t3, random_chi(rng, 3))
            assert folded.poly == LaurentPoly.one(T3_BASIS)

    def test_single_monomial_coefficient_preserved(self, b3):
        rng = random.Random(41)
        for _ in range(50):
            p = monomial(b3, rng.choice([-7, -2, 3, 5]), random_chi(rng, 3))
            q = quotient_of(b3, random_chi(rng, 3))
            folded = fold_poly(p, q)
            assert len(folded) == 1
            assert coefficients(folded) == coefficients(p)

    def test_accepts_euler_class_and_vector_and_text(self, fig8_pair):
        by_text = fold(fig8_pair, "4*m1")
        by_vector = fold(fig8_pair, (4, 0, 0))
        by_class = fold(fig8_pair, EulerClass(T3_BASIS, (4, 0, 0)))
        assert by_text == by_vector == by_class

    def test_zero_chi_routes_to_product_case(self, fig8_pair):
        folded = fold(fig8_pair, "0")
        assert folded.product_case
        assert folded.chi is None
        assert folded.poly == fig8_pair.sw3
        assert folded.chi_text == "0"

    def test_low_b_plus_raises(self):
        s = surface_times_circle(1)
        pretend = ThreeManifold(s.genus, s.basis, 2, s.sw3)
        with pytest.raises(HypothesisError):
            fold(pretend, (1,))
        with pytest.raises(HypothesisError):
            fold_bruteforce(pretend, (1,))

    def test_folded_exponents_are_canonical(self, five2_pair):
        rng = random.Random(43)
        for _ in range(30):
            folded = fold(five2_pair, random_chi(rng, 3))
            q = QuotientLattice(folded.chi)
            for exp in folded.poly.support():
                assert 0 <= exp[q.pivot] < q.modulus

    def test_foldedsw_rejects_noncanonical_exponents(self, b1):
        q = quotient_of(b1, (2,))
        with pytest.raises(StructuralError):
            FoldedSW(q.euler, b1, from_text("t^3", b1).terms(), True)


class TestFoldProperties:
    def test_oracle_agrees_on_golden_folds(self, fig8_pair, five2_pair):
        assert fold_bruteforce(fig8_pair, "4*m1") == fold(fig8_pair, "4*m1")
        assert fold_bruteforce(five2_pair, "m1 + m2") == fold(five2_pair, "m1 + m2")
        assert fold_bruteforce(five2_pair, "2*m1 + m2") == fold(five2_pair, "2*m1 + m2")

    def test_zero_polynomial_folds_to_zero(self, b3):
        rng = random.Random(101)
        for _ in range(10):
            q = quotient_of(b3, random_chi(rng, 3))
            assert fold_poly(LaurentPoly.zero(b3), q) == LaurentPoly.zero(b3)
            assert fold_poly_bruteforce(LaurentPoly.zero(b3), q) == LaurentPoly.zero(b3)

    def test_oracle_equivalence_on_manifolds(self):
        rng = random.Random(47)
        for _ in range(200):
            basis = random_basis(rng)
            m = random_manifold(rng, basis)
            chi = random_chi(rng, basis.rank)
            assert fold(m, chi) == fold_bruteforce(m, chi)

    def test_oracle_equivalence_on_raw_polynomials(self):
        rng = random.Random(53)
        for _ in range(200):
            basis = random_basis(rng)
            p = random_poly(rng, basis, max_terms=8, max_exp=6, max_coeff=9)
            q = quotient_of(basis, random_chi(rng, basis.rank))
            assert fold_poly(p, q) == fold_poly_bruteforce(p, q)

    @given(st.integers(1, 3).flatmap(lambda rank: st.tuples(
        st.lists(st.integers(-7, 7), min_size=rank, max_size=rank).filter(any),
        st.dictionaries(st.tuples(*[st.integers(-20, 20)] * rank), st.integers(-3, 3), max_size=12),
    )))
    def test_oracle_equivalence_on_drawn_exponents_and_classes(self, case):
        chi, terms = case
        basis = Basis(tuple(f"x{i}" for i in range(1, len(chi) + 1)))
        q = quotient_of(basis, chi)
        poly = LaurentPoly(basis, terms)
        folded = fold_poly(poly, q)
        assert folded == fold_poly_bruteforce(poly, q)
        assert all(0 <= exp[q.pivot] < q.modulus for exp in folded.support())

    def test_conservation(self):
        rng = random.Random(59)
        for _ in range(100):
            basis = random_basis(rng)
            m = random_manifold(rng, basis)
            folded = fold(m, random_chi(rng, basis.rank))
            assert folded.poly.eval_ones() == m.sw3.eval_ones()

    def test_sign_invariance(self):
        rng = random.Random(61)
        for _ in range(100):
            basis = random_basis(rng)
            m = random_manifold(rng, basis)
            chi = random_chi(rng, basis.rank)
            neg = tuple(-c for c in chi)
            assert fold(m, chi) == fold(m, neg)

    def test_linearity(self):
        rng = random.Random(67)
        for _ in range(100):
            basis = random_basis(rng)
            p = random_poly(rng, basis)
            q = random_poly(rng, basis)
            quotient = quotient_of(basis, random_chi(rng, basis.rank))
            assert fold_poly(p + q, quotient) == fold_poly(p, quotient) + fold_poly(q, quotient)

    def test_coarsening(self):
        """Folding by k*chi and then by chi is folding by chi: span(k*chi) lies in span(chi)."""
        rng = random.Random(73)
        for _ in range(200):
            basis = random_basis(rng)
            m = random_manifold(rng, basis)
            chi = random_chi(rng, basis.rank)
            coarse = quotient_of(basis, chi)
            once = fold_poly(m.sw3, coarse)
            assert once == fold_poly_bruteforce(m.sw3, coarse)
            for k in (2, 3, 4):
                fine = quotient_of(basis, tuple(k * c for c in chi))
                assert fold_poly(fold_poly(m.sw3, fine), coarse) == once, (chi, k)

    def test_gl_covariance(self):
        """A unimodular A carries cosets of span(chi) onto cosets of span(A*chi).

        So folding A*p by A*chi equals pushing the fold of p through A and
        re-canonicalizing, and the Taubes verdict does not change.
        """
        rng = random.Random(113)
        for _ in range(240):
            basis = random_basis(rng)
            m = random_manifold(rng, basis)
            chi = random_chi(rng, basis.rank)
            columns = random_unimodular_columns(rng, basis.rank)
            images = dict(zip(basis.names, columns))
            image_chi = tuple(sum(c * col[j] for c, col in zip(chi, columns)) for j in range(basis.rank))
            moved = m.sw3.reindex(basis, images)
            quotient = quotient_of(basis, image_chi)
            folded = fold_poly(moved, quotient)
            assert folded == fold_poly(fold_poly(m.sw3, quotient_of(basis, chi)).reindex(basis, images), quotient)
            assert folded == fold_poly_bruteforce(moved, quotient)
            image = ThreeManifold(m.genus, m.basis, m.b1, moved, m.sums)
            assert fold(image, image_chi).obstructed == fold(m, chi).obstructed

    def test_symmetric_input_gives_cosetwise_symmetric_output(self):
        rng = random.Random(71)
        for _ in range(100):
            basis = random_basis(rng)
            m = random_manifold(rng, basis)
            quotient = quotient_of(basis, random_chi(rng, basis.rank))
            folded = fold_poly(m.sw3, quotient)
            for exp, coeff in folded.terms():
                mirror = canonical_rep(quotient, tuple(-e for e in exp))
                assert folded.coeff(mirror) == coeff


class TestInjectivity:
    """``FoldedSW.injective``: the fold kept every term of sw3."""

    def test_spread_out_chi_is_injective(self, fig8_pair):
        assert fold(fig8_pair, "5*m1").injective is True

    def test_merging_chi_is_not(self, fig8_pair):
        assert fold(fig8_pair, "4*m1").injective is False

    def test_unused_direction_is_injective(self, fig8_pair):
        assert fold(fig8_pair, "m3").injective is True

    def test_zero_chi_is_the_product_case(self, fig8_pair):
        report = fold(fig8_pair, (0, 0, 0))
        assert report.chi is None
        assert report.injective is True
        assert report.terms == fig8_pair.sw3.terms()
        assert report.unit_classes == tuple(exp for exp, c in fig8_pair.sw3.terms() if c in (1, -1))
        assert report.basis == fig8_pair.basis and report == fold_bruteforce(fig8_pair, "0")

    def test_injective_fold_preserves_coefficient_multiset(self):
        rng = random.Random(73)
        seen = 0
        for _ in range(300):
            basis = random_basis(rng)
            m = random_manifold(rng, basis)
            chi = random_chi(rng, basis.rank)
            report = fold(m, chi)
            if report.injective:
                seen += 1
                assert sorted(c for _, c in report.terms) == sorted(coefficients(m.sw3))
                assert report.terms == fold(m, chi).poly.terms()
        assert seen > 50  # the property must actually be exercised


class TestCircleBundles:
    def test_direct_spot_values(self):
        assert circle_bundle_sw_direct(2, 2).terms == ()
        t = Basis(("t",))
        assert circle_bundle_sw_direct(2, 4).poly == from_text("-2 + 2*t^2", t)
        assert circle_bundle_sw_direct(2, 3).poly == from_text("-2 + t + t^2", t)

    def test_closed_form_spot_values(self):
        t = Basis(("t",))
        assert circle_bundle_sw_closed_form(2, 2).terms == ()
        assert circle_bundle_sw_closed_form(2, 4).poly == from_text("-2 + 2*t^2", t)
        assert circle_bundle_sw_closed_form(2, 3).poly == from_text("-2 + t + t^2", t)

    def test_genus_one_is_unit(self):
        for n in (1, 2, 5, -3):
            closed = circle_bundle_sw_closed_form(1, n)
            direct = circle_bundle_sw_direct(1, n)
            assert equal_up_to_sign(closed, direct)
            assert direct.poly == LaurentPoly.one(direct.poly.basis)

    def test_cross_formula_grid(self):
        for genus in range(1, 6):
            for n in [k for k in range(-10, 11) if k != 0]:
                direct = circle_bundle_sw_direct(genus, n)
                closed = circle_bundle_sw_closed_form(genus, n)
                assert equal_up_to_sign(direct, closed), (genus, n)

    @pytest.mark.parametrize("genus", [1, 2, 3, 7, 16, 29, 40])
    def test_closed_form_matches_binomial_expansion(self, genus):
        # (t - 1/t)^(2g-2) expanded with math.comb, each exponent reduced mod |n|
        degree = 2 * genus - 2
        for n in (1, 2, 3, 4, 5, 6, 9, 12, 17, 64, -1, -4, -7, 10**9, -(10**9)):
            expected = {}
            for j in range(degree + 1):
                key = ((degree - 2 * j) % abs(n),)
                expected[key] = expected.get(key, 0) + (-1) ** j * math.comb(degree, j)
            closed = circle_bundle_sw_closed_form(genus, n)
            assert closed.poly in (LaurentPoly(closed.poly.basis, expected),
                                   -LaurentPoly(closed.poly.basis, expected)), (genus, n)

    def test_closed_form_work_does_not_grow_with_euler_number(self):
        # 2g-1 binomial terms, however many residues n has
        for n in (10**9, -(10**9) + 1):
            closed = circle_bundle_sw_closed_form(3, n)
            assert equal_up_to_sign(closed, circle_bundle_sw_direct(3, n)), n
            assert len(closed.poly) == 5

    def test_large_genus_routes_equal_binomial_residues(self):
        """Both routes at g = 2000 against the math.comb expansion reduced mod |n|."""
        genus, n = 2000, 4
        degree = 2 * genus - 2
        expected = {}
        for j in range(degree + 1):
            key = ((degree - 2 * j) % n,)
            expected[key] = expected.get(key, 0) + (-1) ** j * math.comb(degree, j)
        expected = LaurentPoly(Basis(("t",)), expected)
        direct, closed = circle_bundle_sw_direct(genus, n), circle_bundle_sw_closed_form(genus, n)
        assert equal_up_to_sign(direct, closed)
        assert direct.poly == expected and closed.poly == expected
        assert circle_bundle_sw_closed_form(genus, -n).poly == -expected

    def test_direct_matches_bruteforce_oracle(self):
        for genus in range(1, 6):
            for n in [k for k in range(-10, 11) if k != 0]:
                m = surface_times_circle(genus)
                assert circle_bundle_sw_direct(genus, n) == fold_bruteforce(m, (n,))

    def test_direct_zero_euler_is_product_case(self):
        folded = circle_bundle_sw_direct(2, 0)
        assert folded.product_case
        assert folded.poly == surface_times_circle(2).sw3

    def test_closed_form_zero_euler_rejected(self):
        with pytest.raises(DomainError):
            circle_bundle_sw_closed_form(2, 0)

    def test_bad_genus_rejected(self):
        with pytest.raises(DomainError):
            circle_bundle_sw_direct(0, 2)
        with pytest.raises(DomainError):
            circle_bundle_sw_closed_form(0, 2)
        with pytest.raises(DomainError):
            circle_bundle_sw_closed_form(True, 4)
        with pytest.raises(DomainError):
            circle_bundle_sw_direct(True, 4)

    @pytest.mark.parametrize("method", [circle_bundle_sw_direct, circle_bundle_sw_closed_form])
    @pytest.mark.parametrize("euler_number", [True, False, 2.0])
    def test_non_integer_euler_number_rejected(self, method, euler_number):
        with pytest.raises(DomainError, match="Euler number must be"):
            method(2, euler_number)

    @pytest.mark.parametrize("method, genus, euler_number, message", [
        (circle_bundle_sw_direct, 10**5, 2.0, "Euler number must be an integer, got 2.0"),
        (circle_bundle_sw_closed_form, 10**5, 0, "Euler number must be a nonzero integer for the closed form"),
        (circle_bundle_sw_direct, 0, 2.0, "genus must be an integer >= 1, got 0"),
        (circle_bundle_sw_closed_form, True, 0, "genus must be an integer >= 1, got True"),
    ])
    def test_arguments_checked_before_the_row_is_built(self, monkeypatch, method, genus, euler_number, message):
        """Genus first, then the Euler number, then the row: bad arguments build nothing."""
        def no_row(genus):
            raise AssertionError("surface_times_circle called before the arguments were checked")

        monkeypatch.setattr(sys.modules["swfold.fold"], "surface_times_circle", no_row)
        with pytest.raises(DomainError) as caught:
            method(genus, euler_number)
        assert str(caught.value) == message


class TestEqualUpToSign:
    def test_reflexive(self):
        folded = circle_bundle_sw_direct(2, 4)
        assert equal_up_to_sign(folded, folded)

    def test_negated(self):
        # chi = -4 normalizes to the same quotient; the closed form's
        # sign(n) prefactor flips the polynomial.
        plus = circle_bundle_sw_closed_form(2, 4)
        minus = circle_bundle_sw_closed_form(2, -4)
        assert minus.poly == -plus.poly
        assert equal_up_to_sign(plus, minus)

    def test_unequal_polynomials(self):
        a = circle_bundle_sw_direct(2, 4)
        b = FoldedSW(a.chi, a.basis, from_text("5", a.basis).terms(), False)
        assert not equal_up_to_sign(a, b)

    def test_quotient_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            equal_up_to_sign(circle_bundle_sw_direct(2, 4), circle_bundle_sw_direct(2, 3))

    def test_product_cases_compare(self, fig8_pair):
        a = fold(fig8_pair, "0")
        b = fold(fig8_pair, (0, 0, 0))
        assert equal_up_to_sign(a, b)
