"""Three-manifold records and their Seiberg-Witten polynomials.

Constructions covered: the three-torus, products of a genus-g surface
with the circle, and fiber sums of those with knot complements along a
meridian direction.  Each record carries the variable basis (generators
of H_1 modulo torsion), the first Betti number, an exact SW polynomial
over that basis, and a fiberedness flag.

Fiber-summing a knot complement along a meridian multiplies the SW
polynomial by the knot's Alexander polynomial evaluated at the square of
the meridian variable; the basis and b_1 are unchanged because the knot
complement's first homology is generated by the glued meridian.
"""

from __future__ import annotations

from .alexander import KnotRecord
from .errors import DomainError, HypothesisError, StructuralError
from .laurent import Basis, LaurentPoly, _Record, _set

#: Basis shared by the three-torus family: the three circle directions.
T3_BASIS = Basis(("m1", "m2", "m3"))

#: Basis used by surface-times-circle records (the SW-support direction).
CIRCLE_BASIS = Basis(("t",))


class ThreeManifold(_Record):
    __slots__ = ("name", "basis", "b1", "sw3", "fibered", "provenance")

    def __init__(self, name: str, basis: Basis, b1: int, sw3: LaurentPoly, fibered: bool, provenance: tuple[str, ...]):
        if sw3.basis != basis:
            raise StructuralError("sw3 polynomial basis differs from the manifold basis")
        if b1 < basis.rank:
            raise StructuralError(f"b1 = {b1} smaller than the tracked basis rank {basis.rank}")
        conj = sw3.conjugate()
        if conj != sw3 and conj != -sw3:
            raise StructuralError("sw3 must be symmetric up to sign under inverting all variables")
        _set(self, "name", name)
        _set(self, "basis", basis)
        _set(self, "b1", b1)
        _set(self, "sw3", sw3)
        _set(self, "fibered", fibered)
        _set(self, "provenance", provenance)


def three_torus() -> ThreeManifold:
    """The three-torus: trivial SW polynomial, b_1 = 3, fibered."""
    return ThreeManifold(
        name="T3",
        basis=T3_BASIS,
        b1=3,
        sw3=LaurentPoly.one(T3_BASIS),
        fibered=True,
        provenance=("t3",),
    )


def _check_genus(genus) -> None:
    """The one genus rule, shared with the bundle routes of :mod:`swfold.fold`."""
    if not isinstance(genus, int) or isinstance(genus, bool) or genus < 1:
        raise DomainError(f"genus must be an integer >= 1, got {genus!r}")


def surface_times_circle(genus: int) -> ThreeManifold:
    """Product of a genus-g surface with the circle: SW = (t - 1/t)^(2g-2).

    The polynomial basis tracks only the circle-fiber direction, where
    all the SW support lives; b_1 records the full rank 2g + 1.  This is
    the one binomial row, read by both bundle routes of :mod:`swfold.fold`:
    (-1)^j * C(2g-2, j) at t^(2j-2g+2), each stepped from the last in O(g).
    """
    _check_genus(genus)
    degree, terms, binomial = 2 * genus - 2, {}, 1  # binomial = (-1)^j * C(degree, j)
    for j in range(degree + 1):
        terms[(2 * j - degree,)] = binomial
        binomial = -binomial * (degree - j) // (j + 1)
    return ThreeManifold(
        name=f"S{genus}xS1",
        basis=CIRCLE_BASIS,
        b1=2 * genus + 1,
        sw3=LaurentPoly._of(CIRCLE_BASIS, terms),
        fibered=True,
        provenance=(f"surface_x_s1(genus={genus})",),
    )


def fiber_sum_with_knot(manifold: ThreeManifold, knot: KnotRecord, meridian: str) -> ThreeManifold:
    """Fiber-sum a knot complement along a meridian direction.

    Multiplies the SW polynomial by the knot polynomial reindexed through
    t -> meridian^2; basis and b_1 are unchanged; the result is fibered
    only if both pieces are.
    """
    direction = [2 * e for e in manifold.basis.unit(meridian)]
    factor = knot.alexander.reindex(manifold.basis, {"t": direction})
    return ThreeManifold(
        name=f"{manifold.name}+{knot.name}@{meridian}",
        basis=manifold.basis,
        b1=manifold.b1,
        sw3=manifold.sw3 * factor,
        fibered=manifold.fibered and knot.fibered,
        provenance=manifold.provenance + (f"fiber_sum(knot={knot.name}, meridian={meridian})",),
    )


def require_b_plus(manifold: ThreeManifold) -> None:
    """Raise :class:`HypothesisError` unless b_+ = b_1 - 1 >= 2, the fold hypothesis."""
    b_plus = manifold.b1 - 1
    if b_plus < 2:
        raise HypothesisError(
            f"b_+ = b_1 - 1 = {b_plus} < 2 for {manifold.name}: fold hypotheses fail"
        )
