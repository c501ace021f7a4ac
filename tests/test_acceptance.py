"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every comparison is exact integer equality; the two marked cases compare
up to one overall sign.  Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the per-criterion PASS lines).
"""

import pathlib
import random

import pytest

from swfold.alexander import BUILTIN_KNOTS
from swfold.cli import run
from swfold.fold import (
    EulerClass,
    QuotientLattice,
    canonical_rep,
    circle_bundle_sw_closed_form,
    circle_bundle_sw_direct,
    equal_up_to_sign,
    fold,
    fold_poly,
    fold_poly_bruteforce,
)
from swfold.laurent import LaurentPoly, from_text, to_text
from swfold.manifolds import T3_BASIS, fiber_sum, surface_times_circle, three_torus

from conftest import coefficients, fold_bruteforce, random_basis, random_poly
from test_fold import random_chi, random_manifold
from test_obstruction import half_box


def announce(number, message):
    print(f"criterion {number:2d} PASS: {message}")


def trefoil_manifold():
    return fiber_sum(three_torus(), [(BUILTIN_KNOTS.lookup("3_1"), "m1")])


def pair_manifold(knot_name):
    m = fiber_sum(three_torus(), [(BUILTIN_KNOTS.lookup(knot_name), "m1")])
    return fiber_sum(m, [(BUILTIN_KNOTS.lookup(knot_name), "m2")])


FIG8_PAIR_SW3 = (
    "m1^-2*m2^-2 - 3*m1^-2 + m1^-2*m2^2 - 3*m2^-2 + 9"
    " - 3*m2^2 + m1^2*m2^-2 - 3*m1^2 + m1^2*m2^2"
)
FIVE2_PAIR_SW3 = (
    "4*m1^-2*m2^-2 - 6*m1^-2 + 4*m1^-2*m2^2 - 6*m2^-2 + 9"
    " - 6*m2^2 + 4*m1^2*m2^-2 - 6*m1^2 + 4*m1^2*m2^2"
)


def test_criterion_01_trefoil_sw3_up_to_sign():
    displayed = from_text("-m1^-2 + 1 - m1^2", T3_BASIS)
    computed = trefoil_manifold().sw3
    assert computed == displayed or computed == -displayed
    announce(1, "trefoil fiber sum reproduces -m1^-2 + 1 - m1^2 up to overall sign")


def test_criterion_02_figure_eight_pair_sw3_exact():
    computed = pair_manifold("4_1").sw3
    assert computed == from_text(FIG8_PAIR_SW3, T3_BASIS)
    corners = [(2, 2, 0), (2, -2, 0), (-2, 2, 0), (-2, -2, 0)]
    assert all(computed.coeff(e) == 1 for e in corners)
    assert computed.coeff((0, 0, 0)) == 9
    announce(2, "figure-eight pair gives the nine-term polynomial (corners +1, edges -3, center 9)")


def test_criterion_03_example1_fold_exact_coset_comparison():
    folded = fold(pair_manifold("4_1"), "4*m1")
    # the displayed answer, written with mixed coset representatives
    displayed = from_text(
        "2*m1^-2*m2^-2 - 3*m2^-2 + 9 - 6*m1^2 + 2*m1^2*m2^2 - 3*m2^2", T3_BASIS
    )
    assert fold_poly(displayed, QuotientLattice(folded.chi)) == folded.poly
    assert folded.poly.coeff((2, -2, 0)) == 2  # merged +-2 corner pair
    assert folded.poly.coeff((2, 0, 0)) == -6  # merged +-2 edge pair
    assert len(folded.poly) == 6
    announce(3, "fold by 4*m1 matches the six-term polynomial as coset classes (merged 2 and -6)")


def test_criterion_04_five2_pair_sw3_exact():
    assert pair_manifold("5_2").sw3 == from_text(FIVE2_PAIR_SW3, T3_BASIS)
    announce(4, "5_2 pair gives the nine-term polynomial with coefficients 4, -6, 9")


def test_criterion_05_circle_bundle_cross_check():
    for genus in range(1, 6):
        for n in [k for k in range(-10, 11) if k != 0]:
            direct = circle_bundle_sw_direct(genus, n)
            closed = circle_bundle_sw_closed_form(genus, n)
            assert equal_up_to_sign(direct, closed), (genus, n)
    spots = {2: "0", 4: "-2 + 2*t^2", 3: "-2 + t + t^2"}
    for n, expected in spots.items():
        direct = circle_bundle_sw_direct(2, n)
        assert to_text(direct.poly) == expected
        assert to_text(circle_bundle_sw_closed_form(2, n).poly) == expected
        oracle = fold_bruteforce(surface_times_circle(2), (n,))
        assert direct == oracle
    announce(5, "closed form == direct fold (up to sign) on g in 1..5, n in +-1..10; spot values confirmed")


def test_criterion_06_example1_obstruction():
    manifold = pair_manifold("4_1")
    for chi in ("4*m1", "-4*m1", "4*m2", "-4*m2"):
        report = fold(manifold, chi)
        assert report.obstructed is True, chi
        assert report.unit_classes == ()
    announce(6, "folds by +-4*m1 and +-4*m2 all report obstructed (no symplectic structure)")


def test_criterion_07_example2_search():
    manifold = pair_manifold("5_2")
    classes = half_box(3, 5)
    assert len(classes) == ((2 * 5 + 1) ** 3 - 1) // 2 == 665
    # each class of the box folded on its own, its verdict read off the coefficients
    for index, chi in enumerate(classes):
        folded = fold(manifold, chi)
        assert not any(c in (1, -1) for c in coefficients(folded.poly)), chi
        assert folded.obstructed is True
        if not folded.injective or index % 20 == 0:
            assert folded == fold_bruteforce(manifold, chi)
    spec = pathlib.Path(__file__).resolve().parent.parent / "demos" / "52-pair.json"
    assert run(["search", str(spec), "--box", "5", "--quiet"]).text.startswith("all_obstructed = true (665 entries)\n")
    announce(7, "box-5 search over 665 classes: every fold obstructed; merging folds agree with brute force")


def test_criterion_08_fold_oracle_equivalence():
    rng = random.Random(2025)
    checked = 0
    for _ in range(200):
        basis = random_basis(rng)
        poly = random_poly(rng, basis, max_terms=8, max_exp=6, max_coeff=9)
        quotient = QuotientLattice(EulerClass(basis, random_chi(rng, basis.rank)))
        assert fold_poly(poly, quotient) == fold_poly_bruteforce(poly, quotient)
        checked += 1
    for _ in range(50):  # and through the public manifold-level surface
        basis = random_basis(rng)
        manifold = random_manifold(rng, basis)
        chi = random_chi(rng, basis.rank)
        assert fold(manifold, chi) == fold_bruteforce(manifold, chi)
        checked += 1
    assert checked >= 200
    announce(8, f"fold == brute-force oracle on {checked} random instances")


def test_criterion_09_conservation_and_symmetry_suite():
    rng = random.Random(424242)
    for _ in range(150):
        basis = random_basis(rng)
        poly = random_poly(rng, basis)
        quotient = QuotientLattice(EulerClass(basis, random_chi(rng, basis.rank)))
        # conservation of the coefficient sum under every fold
        assert fold_poly(poly, quotient).eval_ones() == poly.eval_ones()
        # fold(chi) == fold(-chi)
        negated = QuotientLattice(-quotient.euler)
        assert fold_poly(poly, negated) == fold_poly(poly, quotient)
        # parse round-trip
        assert from_text(to_text(poly), basis) == poly
        # conjugation is a ring homomorphism
        other = random_poly(rng, basis, max_terms=5)
        assert (poly * other).conjugate() == poly.conjugate() * other.conjugate()
        # ring axioms
        third = random_poly(rng, basis, max_terms=4)
        assert (poly + other) + third == poly + (other + third)
        assert poly * other == other * poly
        assert poly * (other + third) == poly * other + poly * third
        assert poly + LaurentPoly.zero(basis) == poly
        assert poly * LaurentPoly.one(basis) == poly
    announce(9, "conservation, sign-invariance, ring axioms, round-trip: exact on seeded suites")


def test_criterion_10_knot_table_self_validation():
    for name in ("3_1", "4_1", "5_2"):
        assert name in BUILTIN_KNOTS.names()
        record = BUILTIN_KNOTS.lookup(name)
        delta = record.alexander
        assert delta.conjugate() == delta, name
        assert delta.eval_ones() == 1, name
    assert pair_manifold("4_1").sw3 == from_text(FIG8_PAIR_SW3, T3_BASIS)
    assert pair_manifold("5_2").sw3 == from_text(FIVE2_PAIR_SW3, T3_BASIS)
    announce(10, "shipped Seifert matrices give symmetric unit-normalized polynomials; products match")
