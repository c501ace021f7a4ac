"""Folding SW polynomials of 3-manifolds into SW polynomials of 4-manifolds.

A free circle action on a 4-manifold X with orbit space M is classified
by its Euler class chi; when chi is nontorsion and b_+(X) = b_1(M) - 1
is at least 2, the SW coefficient of X at a pulled-back class equals the
sum of the SW coefficients of M over the corresponding coset of the
integer span of chi.  This module implements that coset fold, a
brute-force oracle for it, and the two circle-bundle-over-a-surface
specializations, which both read the O(g)-term row of (t - 1/t)^(2g-2)
built by :func:`~swfold.manifolds.surface_times_circle`.  Both use the
same residue map: :func:`canonical_rep` by the class (|n|,) is
``e - (e // |n|) * |n|``, which is ``e % |n|``.  So ``bundle --method
both`` checks the two code paths and the sign convention; the
independent checks are the ``math.comb`` expansions in the tests and the
benchmark's oracles.

:class:`FoldedSW` is the one record of a fold: every producer here
builds it, checked, from the sorted folded terms, and whether the fold
merged terms, its unit classes and the Taubes verdict are read off it.
Folded results are terminal values: their exponents are canonical coset
representatives (pivot coordinate reduced into [0, chi_pivot)), on
which ring operations would be meaningless, so :class:`FoldedSW`
deliberately defines none.

:func:`fold` is the one fold of a manifold that the package exports.
:func:`fold_poly`, :func:`canonical_rep`, :class:`QuotientLattice` and
the brute-force :func:`fold_poly_bruteforce` stay public in this module
only, not in ``swfold.__all__``: the benchmark's oracle and the tests
import them from here.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from math import floor, lgamma, log, log10, pi, sin

from .errors import DomainError, ParseError, StructuralError, _bounded, _count, _shown
from .laurent import (Basis, LaurentPoly, _accumulate, _joined, _positive, _Record, _render, _require_terms, _set,
                      _signed, _vector, from_text)
from .manifolds import CIRCLE_BASIS, ThreeManifold, _row_degree, require_b_plus, surface_times_circle


def euler_vector_from_text(text: str, basis: Basis) -> tuple[int, ...]:
    """Parse an integer combination of basis variables, e.g. ``"-m1 + 2*m2"``.

    Uses the polynomial grammar restricted to degree-one terms.  The zero
    vector (text ``"0"``) is allowed here; constructing an
    :class:`EulerClass` from it is not.
    """
    poly = from_text(text, basis)
    vector = [0] * basis.rank
    for exp, coeff in poly.terms():
        hits = [(i, e) for i, e in enumerate(exp) if e != 0]
        if len(hits) != 1 or hits[0][1] != 1:
            raise ParseError(
                f"Euler class must be a linear combination of basis variables, "
                f"got term with exponents {_shown(exp)}"
            )
        vector[hits[0][0]] += coeff
    return tuple(vector)


class EulerClass(_Record):
    """Nonzero integer vector in the exponent lattice: the fold direction."""

    __slots__ = ("basis", "chi")

    def __init__(self, basis: Basis, chi: tuple[int, ...]):
        chi = _vector(basis, chi, "Euler vector")
        if not any(chi):
            raise DomainError("Euler class is zero (torsion); no quotient to fold over")
        _set(self, "basis", basis)
        _set(self, "chi", chi)

    @property
    def text(self) -> str:
        """Canonical rendering, e.g. ``"4*m1"`` or ``"2*m2 - m1"`` (last variable first)."""
        return _joined([_signed(name, c) for name, c in zip(self.basis.names[::-1], self.chi[::-1]) if c])

    @property
    def pivot(self) -> int:
        """Index of the first nonzero entry; a sign-normalized class is positive there."""
        return self.chi.index(next(filter(None, self.chi)))

    def __neg__(self) -> EulerClass:
        return EulerClass(self.basis, tuple(-c for c in self.chi))


# bench/oracles.py builds its reference folds over this type: kept public for it.
class QuotientLattice(_Record):
    """Lattice quotient by the span of chi, with a pivot for canonical reduction.

    chi is normalized so its entry at :attr:`EulerClass.pivot` is positive;
    chi and -chi therefore induce the same quotient.  Representatives
    live in [0, modulus), where ``modulus`` is the positive pivot entry.
    """

    __slots__ = ("euler", "chi", "pivot", "modulus")

    def __init__(self, euler: EulerClass):
        pivot = euler.pivot
        if euler.chi[pivot] < 0:
            euler = -euler
        _set(self, "euler", euler)
        _set(self, "chi", euler.chi)
        _set(self, "pivot", pivot)
        _set(self, "modulus", euler.chi[pivot])


def canonical_rep(quotient: QuotientLattice, exp: Sequence[int]) -> tuple[int, ...]:
    """Unique member of exp + Z*chi whose pivot coordinate lies in [0, chi_pivot).

    The one home of the reduction rule: :func:`fold_poly` calls it once per term.  It checks
    only that exp is a sequence of chi's length, not ``_vector``'s entry types: its terms come
    from checked polynomials, and the entry loop would slow every fold.
    """
    try:
        exp = tuple(exp)
    except TypeError:
        raise StructuralError(f"exponent vector must be a sequence of integers, got {_shown(exp)}") from None
    chi = quotient.chi
    if len(exp) != len(chi):
        raise StructuralError(f"exponent length {len(exp)} != Euler vector length {len(chi)}")
    k = exp[quotient.pivot] // quotient.modulus
    if k == 0:
        return exp
    return tuple(e - k * c for e, c in zip(exp, chi))


def _units(terms) -> tuple:
    """The one unit scan: the exponents (or, in a packed search, their codes) of sorted terms whose
    coefficient is +1 or -1."""
    return tuple([exp for exp, coeff in terms if coeff in (1, -1)])


class FoldedSW(_Record):
    """One fold and its verdict: sorted terms over canonical coset representatives.

    ``chi`` is the sign-normalized class folded by, or ``None`` for the
    product case of a zero class, where the 4-manifold is a product with
    the circle and the terms are the unfolded ones.  ``injective`` says
    the fold kept every term of sw3 (a merge leaves fewer cosets than
    terms, and a cancellation needs a merge first); ``unit_classes``
    lists the exponents whose coefficient is +1 or -1.  ``__init__``
    refuses a chi over another basis or with a negative pivot entry, and,
    in one pass, a term that is not an (exponent, coefficient) pair of
    integers or whose exponent has the wrong length or lies outside the
    canonical range.  No ring operations are defined on this type.
    """

    __slots__ = ("chi", "basis", "terms", "injective", "unit_classes")

    def __init__(self, chi: EulerClass | None, basis: Basis,
                 terms: tuple[tuple[tuple[int, ...], int], ...], injective: bool):
        pivot = modulus = None
        if chi is not None:
            if chi.basis is not basis and chi.basis != basis:
                raise StructuralError(f"Euler class {_shown(chi.chi)} is over ({', '.join(chi.basis.names)}), "
                                      f"not the fold's basis ({', '.join(basis.names)})")
            pivot = chi.pivot
            modulus = chi.chi[pivot]
            if modulus < 0:
                raise StructuralError(f"Euler class {_shown(chi.chi)} is not sign-normalized: its first nonzero entry "
                                      "must be positive")
        _require_terms(terms, basis.rank, pivot, modulus)
        _set(self, "chi", chi)
        _set(self, "basis", basis)
        _set(self, "terms", terms)
        _set(self, "injective", injective)
        _set(self, "unit_classes", _units(terms))

    @property
    def product_case(self) -> bool:
        return self.chi is None

    @property
    def chi_text(self) -> str:
        """``chi.text``, or ``"0"`` for the product case."""
        return "0" if self.chi is None else self.chi.text

    @property
    def poly(self) -> LaurentPoly:
        """The folded terms as a polynomial, built on each access."""
        return LaurentPoly._of(self.basis, dict(self.terms))

    @property
    def obstructed(self) -> bool:
        """No unit class: no spin-c class can be a symplectic canonical class."""
        return not self.unit_classes

    @property
    def digest(self) -> str:
        """Text form of the folded polynomial, rendered on each access."""
        return _render(self.basis, self.terms)


def _as_class(basis: Basis, chi) -> EulerClass | None:
    """The Euler class that chi names over basis (itself if it is one); None for zero."""
    if isinstance(chi, EulerClass):
        if chi.basis != basis:
            raise StructuralError("Euler class basis differs from the manifold basis")
        return chi
    vector = euler_vector_from_text(chi, basis) if isinstance(chi, str) else _vector(basis, chi, "Euler vector")
    return EulerClass(basis, vector) if any(vector) else None


def fold_poly(poly: LaurentPoly, quotient: QuotientLattice) -> LaurentPoly:
    """Coset-fold a bare polynomial: sum coefficients at canonical representatives.

    Each term goes through :func:`canonical_rep` into ``_accumulate``:
    representatives are shifts of checked exponents, so they skip the
    checks, and order does not matter, so the term dict is not sorted.
    """
    reps = ((canonical_rep(quotient, exp), c) for exp, c in poly._terms.items())
    return LaurentPoly._of(poly.basis, _accumulate({}, reps))


# bench/oracles.py checks every benchmark fold against this reference: kept in src/ for it.
def fold_poly_bruteforce(poly: LaurentPoly, quotient: QuotientLattice) -> LaurentPoly:
    """Oracle twin of :func:`fold_poly`: merge by exhaustive shift search.

    Two support exponents merge when their difference equals k * chi for
    some k found by enumeration (|k| bounded by support width over the
    smallest nonzero chi entry); each merged class is then labeled by
    scanning shifts for the one representative with pivot coordinate in
    range.  No floor-division arithmetic is shared with the fast path.
    """
    chi_vec = quotient.chi
    support = list(poly.support())
    if not support:
        return LaurentPoly.zero(poly.basis)

    width = max(
        max(e[i] for e in support) - min(e[i] for e in support)
        for i in range(poly.basis.rank)
    )
    min_chi = min(abs(c) for c in chi_vec if c)
    k_bound = width // min_chi + 1

    parent = list(range(len(support)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(support)):
        for j in range(i + 1, len(support)):
            diff = tuple(a - b for a, b in zip(support[i], support[j]))
            for k in range(-k_bound, k_bound + 1):
                if k != 0 and diff == tuple(k * c for c in chi_vec):
                    parent[find(i)] = find(j)
                    break

    pivot, modulus = quotient.pivot, quotient.modulus
    labels: dict[int, tuple[int, ...]] = {}
    for idx, exp in enumerate(support):
        root = find(idx)
        if root not in labels:
            scan = abs(exp[pivot]) // modulus + 1
            candidates = [
                tuple(e - k * c for e, c in zip(exp, chi_vec))
                for k in range(-scan, scan + 1)
            ]
            in_range = [c for c in candidates if 0 <= c[pivot] < modulus]
            assert len(in_range) == 1, "exactly one shift lands the pivot in range"
            labels[root] = in_range[0]
    return LaurentPoly(poly.basis, ((labels[find(i)], poly.coeff(e)) for i, e in enumerate(support)))


def fold(manifold: ThreeManifold, chi) -> FoldedSW:
    """Sum the SW coefficients of ``manifold`` over cosets of the span of chi.

    ``chi`` may be an :class:`EulerClass`, a text form like ``"4*m1"``,
    or a raw integer vector.  A zero chi returns the labeled product
    case (the invariants of M x S^1 equal those of M) instead of
    raising.  The total coefficient sum is conserved.
    """
    euler, sw3 = _as_class(manifold.basis, chi), manifold.sw3
    if euler is None:
        return FoldedSW(None, manifold.basis, sw3.terms(), True)
    require_b_plus(manifold)
    quotient = QuotientLattice(euler)
    terms = fold_poly(sw3, quotient).terms()
    return FoldedSW(quotient.euler, manifold.basis, terms, len(terms) == len(sw3))


def circle_bundle_sw_direct(genus: int, euler_number: int) -> FoldedSW:
    """SW polynomial of a circle bundle over a genus-g surface, by folding.

    Folds the row (t - 1/t)^(2g-2) over the span of the Euler number
    (O(g) terms); exponents in the result are residues in [0, |n|).  A
    zero Euler number returns the labeled product case.
    """
    _positive(genus, "genus")
    if not isinstance(euler_number, int) or isinstance(euler_number, bool):
        raise DomainError(f"Euler number must be an integer, got {_shown(euler_number)}")
    return fold(surface_times_circle(genus), (euler_number,))


def circle_bundle_sw_closed_form(genus: int, euler_number: int) -> FoldedSW:
    """Same bundle polynomial via the alternating-binomial sum.

    Maps each term of the row that :func:`~swfold.manifolds.surface_times_circle`
    builds to its residue mod |n| by ``%`` (not :func:`canonical_rep`) and
    multiplies by sign(n): comparable with :func:`circle_bundle_sw_direct`
    exponent for exponent, up to one overall sign, in O(g) terms.
    """
    _positive(genus, "genus")
    if not isinstance(euler_number, int) or isinstance(euler_number, bool) or euler_number == 0:
        raise DomainError("Euler number must be a nonzero integer for the closed form")
    row = surface_times_circle(genus).sw3
    modulus, sign = abs(euler_number), (1 if euler_number > 0 else -1)
    residues = tuple(sorted(_accumulate({}, (((e % modulus,), sign * c) for (e,), c in row._terms.items())).items()))
    return FoldedSW(EulerClass(CIRCLE_BASIS, (modulus,)), CIRCLE_BASIS, residues, len(residues) == len(row))


def _printable_bundle(genus: int, euler_number: int) -> None:
    """Refuse, before its row is built, a bundle whose printed fold holds a coefficient ``str`` cannot print.

    Folding P = (t - 1/t)^D, D = 2g - 2, by n sums P's coefficients per residue mod |n|.  By the
    roots-of-unity filter the sum at r is the mean over k of w^(-kr) * P(w^k), w = exp(2*pi*i/|n|), and
    |P(w^k)| = |2*sin(2*pi*k/|n|)|^D.  With M the largest base, at the k nearest |n|/4, every folded
    coefficient is at most M^D, and by Parseval the largest is at least M^D/|n|; folds by 1 and 2 are 0,
    as P(1) = P(-1) = 0.  At n = 0 the row itself prints, its largest coefficient C(D, g - 1).  A lower
    bound more than one digit past ``sys.get_int_max_str_digits()`` raises :class:`DomainError` through
    :func:`~swfold.errors._bounded`; a limit of 0 refuses nothing.  M <= 2 and C(D, g - 1) <= 2^D, so
    while D*log10(2) stays within the limit plus one digit nothing is refused and no float work is done.
    A genus whose row is over ``MAX_ROW_BITS`` keeps that refusal, also before any work.
    """
    limit, modulus = sys.get_int_max_str_digits(), abs(euler_number)
    if not limit or 2 * genus - 2 <= (limit + 1) / log10(2) or 0 < modulus < 3:
        return
    degree = _row_degree(genus)
    if modulus:
        lower = degree * log10(2 * sin(2 * pi * ((modulus + 2) // 4) / modulus)) - log10(modulus)
    else:
        lower = (lgamma(degree + 1) - 2 * lgamma(genus)) / log(10)
    digits = floor(lower) + 1
    _bounded(digits - 1, limit, f"result too large to print: the bundle of genus {genus} and Euler number "
                                f"{_count(euler_number)} has a coefficient of at least {digits} digits")


def equal_up_to_sign(a: FoldedSW, b: FoldedSW) -> bool:
    """Compare two fold results as coset-class polynomials, up to one global sign."""
    if a.chi != b.chi:
        raise StructuralError("fold results over different quotients are not comparable")
    return a.basis == b.basis and a.terms in (b.terms, tuple((exp, -coeff) for exp, coeff in b.terms))
