"""Three-manifold records and their Seiberg-Witten polynomials.

Constructions covered: the three-torus, products of a genus-g surface
with the circle, and fiber sums of those with knot complements along a
meridian direction.  A record is its construction: the base's genus and
the (knot, meridian) sums, with the variable basis (generators of H_1
modulo torsion), the first Betti number and an exact SW polynomial over
that basis.  Name, provenance and fiberedness are read off it.

Fiber-summing a knot complement along a meridian multiplies the SW
polynomial by the knot's Alexander polynomial evaluated at the square of
the meridian variable; the basis and b_1 are unchanged because the knot
complement's first homology is generated by the glued meridian.
:func:`fiber_sum` makes all of a spec's sums one product of this kind.
Both costs that grow with a spec are bounded through
:func:`~swfold.errors._bounded` before the work: a surface base's
binomial row by ``MAX_ROW_BITS``, and each of the fiber sums' products
by ``MAX_TERM_PAIRS`` on the term pairs counted through it.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import reduce

from .alexander import KnotRecord
from .errors import HypothesisError, StructuralError, _bounded, _count, _shown
from .laurent import Basis, LaurentPoly, _positive, _Record, _set

#: Basis shared by the three-torus family: the three circle directions.
T3_BASIS = Basis(("m1", "m2", "m3"))

#: Basis used by surface-times-circle records (the SW-support direction).
CIRCLE_BASIS = Basis(("t",))

#: Bits the binomial row of a genus-g surface times the circle may take: its 2g - 1
#: coefficients are below 2^(2g-2), so (2g-1)(2g-2) bounds the row.  Every genus up to 8192 passes.
MAX_ROW_BITS = 2**28

#: The most term pairs one :func:`fiber_sum` may multiply.  The terms made are at most the pairs, about 390 B
#: each: a 91-term knot summed on m1, m2 and m3 multiplies 761,943 pairs into 753,571 terms (293 MB).
MAX_TERM_PAIRS = 10**6


class ThreeManifold(_Record):
    """A base, T3 (``genus`` None) or a genus-g surface times the circle, and its ``(knot, meridian)``
    fiber sums in spec order, with the basis, b_1 and sw3 they give."""

    __slots__ = ("genus", "basis", "b1", "sw3", "sums")

    def __init__(self, genus: int | None, basis: Basis, b1: int, sw3: LaurentPoly,
                 sums: tuple[tuple[KnotRecord, str], ...] = ()):
        if sw3.basis != basis:
            raise StructuralError("sw3 polynomial basis differs from the manifold basis")
        if b1 < basis.rank:
            raise StructuralError(f"b1 = {_shown(b1)} smaller than the tracked basis rank {basis.rank}")
        conj = sw3.conjugate()
        if conj != sw3 and conj != -sw3:
            raise StructuralError("sw3 must be symmetric up to sign under inverting all variables")
        _set(self, "genus", genus)
        _set(self, "basis", basis)
        _set(self, "b1", b1)
        _set(self, "sw3", sw3)
        _set(self, "sums", sums)

    @property
    def name(self) -> str:
        base = "T3" if self.genus is None else f"S{self.genus}xS1"
        return base + "".join(f"+{knot.name}@{meridian}" for knot, meridian in self.sums)

    @property
    def provenance(self) -> tuple[str, ...]:
        base = "t3" if self.genus is None else f"surface_x_s1(genus={self.genus})"
        return (base, *(f"fiber_sum(knot={knot.name}, meridian={meridian})" for knot, meridian in self.sums))

    @property
    def fibered(self) -> bool:
        """Both bases are fibered, so the sum is fibered iff every summed knot is."""
        return all(knot.fibered for knot, _ in self.sums)


def three_torus() -> ThreeManifold:
    """The three-torus: trivial SW polynomial, b_1 = 3, fibered."""
    return ThreeManifold(genus=None, basis=T3_BASIS, b1=3, sw3=LaurentPoly.one(T3_BASIS))


def _row_degree(genus: int) -> int:
    """The degree 2g - 2 of the genus-g binomial row, once the genus is checked and the row's
    (2g-1)(2g-2) bits are within ``MAX_ROW_BITS``."""
    _positive(genus, "genus")
    degree = 2 * genus - 2
    bits = (degree + 1) * degree
    _bounded(bits, MAX_ROW_BITS, f"genus {_count(genus)}: its binomial row may take (2g-1)(2g-2) = {_count(bits)} bits")
    return degree


def surface_times_circle(genus: int) -> ThreeManifold:
    """Product of a genus-g surface with the circle: SW = (t - 1/t)^(2g-2).

    The polynomial basis tracks only the circle-fiber direction, where
    all the SW support lives; b_1 records the full rank 2g + 1.  This is
    the one binomial row, read by both bundle routes of :mod:`swfold.fold`:
    (-1)^j * C(2g-2, j) at t^(2j-2g+2), each stepped from the last in O(g).
    """
    degree, terms, binomial = _row_degree(genus), {}, 1  # binomial = (-1)^j * C(degree, j)
    for j in range(degree + 1):
        terms[(2 * j - degree,)] = binomial
        binomial = -binomial * (degree - j) // (j + 1)
    return ThreeManifold(genus=genus, basis=CIRCLE_BASIS, b1=2 * genus + 1, sw3=LaurentPoly._of(CIRCLE_BASIS, terms))


def fiber_sum(manifold: ThreeManifold, sums: Iterable[tuple[KnotRecord, str]]) -> ThreeManifold:
    """Fiber-sum knot complements along meridians, one ``(knot, meridian)`` pair per sum.

    sw3 times each knot polynomial at meridian^2 is one exact product: each meridian's factors
    first, in spec order, then each meridian's product into sw3.  Every pair is read first, so a
    bad one is reported ahead of the bound.  Each product adds its term pairs to a running count
    before it is made, and a count over ``MAX_TERM_PAIRS`` raises :class:`DomainError` instead, so
    no spec multiplies more than that many pairs.  The pairs are appended to the manifold's sums;
    one record is built and checked, or none for no sums.  The nine-sum tower of
    ``tests/test_cli_tower_golden.py`` (three three-term knot factors on each meridian) takes 471
    term pairs this way, instead of 2079 left to right.
    """
    basis, added, factors, term_pairs = manifold.basis, [], [], 0
    try:
        sums = iter(sums)
    except TypeError:
        raise StructuralError(f"sums must be an iterable of (knot, meridian) pairs, got {_shown(sums)}") from None
    for pair in sums:
        try:
            knot, meridian = pair
            alexander = knot.alexander
        except (TypeError, ValueError, AttributeError):
            raise StructuralError(f"a sum must be a (KnotRecord, meridian) pair, got {_shown(pair)}") from None
        factors.append((meridian, alexander.reindex(basis, {"t": [2 * e for e in basis.unit(meridian)]})))
        added.append((knot, meridian))
    if not added:
        return manifold

    def times(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
        nonlocal term_pairs
        term_pairs += len(a) * len(b)
        _bounded(term_pairs, MAX_TERM_PAIRS, f"the fiber sums multiply at least {_count(term_pairs)} term pairs")
        return a * b

    products = {}
    for meridian, factor in factors:
        products[meridian] = times(products[meridian], factor) if meridian in products else factor
    return ThreeManifold(manifold.genus, basis, manifold.b1, reduce(times, products.values(), manifold.sw3),
                         manifold.sums + tuple(added))


def require_b_plus(manifold: ThreeManifold) -> None:
    """Raise :class:`HypothesisError` unless b_+ = b_1 - 1 >= 2, the fold hypothesis."""
    b_plus = manifold.b1 - 1
    if b_plus < 2:
        raise HypothesisError(
            f"b_+ = b_1 - 1 = {b_plus} < 2 for {manifold.name}: fold hypotheses fail"
        )
