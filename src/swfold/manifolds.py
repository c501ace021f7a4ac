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
"""

from __future__ import annotations

from collections.abc import Iterable
from math import prod

from .alexander import KnotRecord
from .errors import DomainError, HypothesisError, StructuralError, _count, _shown
from .laurent import Basis, LaurentPoly, _positive, _Record, _set

#: Basis shared by the three-torus family: the three circle directions.
T3_BASIS = Basis(("m1", "m2", "m3"))

#: Basis used by surface-times-circle records (the SW-support direction).
CIRCLE_BASIS = Basis(("t",))

#: Bits the binomial row of a genus-g surface times the circle may take: its 2g - 1
#: coefficients are below 2^(2g-2), so (2g-1)(2g-2) bounds the row.  Every genus up to 8192 passes.
MAX_ROW_BITS = 2**28


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


def surface_times_circle(genus: int) -> ThreeManifold:
    """Product of a genus-g surface with the circle: SW = (t - 1/t)^(2g-2).

    The polynomial basis tracks only the circle-fiber direction, where
    all the SW support lives; b_1 records the full rank 2g + 1.  This is
    the one binomial row, read by both bundle routes of :mod:`swfold.fold`:
    (-1)^j * C(2g-2, j) at t^(2j-2g+2), each stepped from the last in O(g).
    """
    _positive(genus, "genus")
    degree, terms, binomial = 2 * genus - 2, {}, 1  # binomial = (-1)^j * C(degree, j)
    if (degree + 1) * degree > MAX_ROW_BITS:
        raise DomainError(f"genus {_count(genus)}: its binomial row may take (2g-1)(2g-2) = "
                          f"{_count((degree + 1) * degree)} bits, over the limit of {MAX_ROW_BITS}")
    for j in range(degree + 1):
        terms[(2 * j - degree,)] = binomial
        binomial = -binomial * (degree - j) // (j + 1)
    return ThreeManifold(genus=genus, basis=CIRCLE_BASIS, b1=2 * genus + 1, sw3=LaurentPoly._of(CIRCLE_BASIS, terms))


def fiber_sum(manifold: ThreeManifold, sums: Iterable[tuple[KnotRecord, str]]) -> ThreeManifold:
    """Fiber-sum knot complements along meridians, one ``(knot, meridian)`` pair per sum, read lazily.

    sw3 times each knot polynomial at meridian^2 is one exact product: each meridian's factors
    first, in spec order, then each meridian's product into sw3.  The pairs are appended to the
    manifold's sums; one record is built and checked, or none for no sums.
    """
    basis, added, products = manifold.basis, [], {}
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
        factor = alexander.reindex(basis, {"t": [2 * e for e in basis.unit(meridian)]})
        products[meridian] = products[meridian] * factor if meridian in products else factor
        added.append((knot, meridian))
    if not added:
        return manifold
    return ThreeManifold(manifold.genus, basis, manifold.b1, prod(products.values(), start=manifold.sw3),
                         manifold.sums + tuple(added))


def require_b_plus(manifold: ThreeManifold) -> None:
    """Raise :class:`HypothesisError` unless b_+ = b_1 - 1 >= 2, the fold hypothesis."""
    b_plus = manifold.b1 - 1
    if b_plus < 2:
        raise HypothesisError(
            f"b_+ = b_1 - 1 = {b_plus} < 2 for {manifold.name}: fold hypotheses fail"
        )
