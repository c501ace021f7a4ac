"""Symplectic obstruction verdicts and exhaustive Euler-class searches.

A symplectic 4-manifold with b_+ >= 2 must carry a class with SW
invariant exactly +-1 (the canonical class), so a folded SW polynomial
with no unit coefficient obstructs every symplectic structure, with
either orientation.  This module scans fold results for unit
coefficients, sweeps all Euler classes in a box (one per antipodal
pair), and explains which classes outside the box can be dismissed
because their folds cannot merge distinct terms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product
from math import gcd, isqrt

from .errors import DomainError
from .fold import EulerClass, FoldedSW, fold
from .laurent import LaurentPoly, _balanced_digits, _render
from .manifolds import ThreeManifold


@dataclass(frozen=True)
class ObstructionReport:
    """Unit-coefficient scan of one fold result."""

    source: str
    unit_classes: tuple[tuple[int, ...], ...]
    fibered_orbit: bool

    @property
    def obstructed(self) -> bool:
        """No unit class: no spin-c class can be a symplectic canonical class."""
        return not self.unit_classes


def _units(terms) -> tuple[tuple[int, ...], ...]:
    """The one unit scan: exponents of sorted terms whose coefficient is +1 or -1."""
    return tuple(exp for exp, coeff in terms if coeff in (1, -1))


def unit_classes(poly: LaurentPoly) -> tuple[tuple[int, ...], ...]:
    """Exponents whose coefficient is +1 or -1, in canonical term order."""
    return _units(poly.terms())


def taubes_report(folded: FoldedSW, manifold: ThreeManifold) -> ObstructionReport:
    """Scan a fold result for coefficients equal to +1 or -1."""
    label = "chi = 0 (product case)" if folded.product_case else f"chi = {folded.chi_text}"
    return ObstructionReport(
        source=f"{folded.source} [{label}]",
        unit_classes=unit_classes(folded.poly),
        fibered_orbit=manifold.fibered,
    )


@dataclass(frozen=True)
class SearchEntry:
    chi: EulerClass
    injective: bool
    terms: tuple[tuple[tuple[int, ...], int], ...]  # the folded terms, sorted
    unit_classes: tuple[tuple[int, ...], ...]

    @property
    def obstructed(self) -> bool:
        return not self.unit_classes

    @property
    def digest(self) -> str:
        """Text form of the folded polynomial, rendered on each access."""
        return _render(self.chi.basis, self.terms)


@dataclass(frozen=True)
class SearchResult:
    box: int
    entries: tuple[SearchEntry, ...]

    @property
    def all_obstructed(self) -> bool:
        return all(e.obstructed for e in self.entries)


def _half_box(rank: int, box: int):
    """Nonzero integer vectors with |coords| <= box, one per antipodal pair.

    The first nonzero coordinate of every representative is positive,
    matching the quotient normalization; vectors come out in
    lexicographic order.
    """
    for vector in product(range(-box, box + 1), repeat=rank):
        first = next((c for c in vector if c != 0), 0)
        if first > 0:
            yield vector


def _check_box(box) -> None:
    if not isinstance(box, int) or isinstance(box, bool) or box < 1:
        raise DomainError(f"search box must be an integer >= 1, got {box!r}")


def euler_search(manifold: ThreeManifold, box: int = 5) -> SearchResult:
    """Fold by every Euler class in the box and collect obstruction verdicts.

    One pass over ((2B+1)^r - 1)/2 classes: each is folded once by
    :func:`~swfold.fold.fold` and its terms sorted once, and ``injective``
    (kept every term, see :func:`~swfold.fold.is_injective_fold`) and the
    unit classes (``unit_classes``'s scan) are read off that one list,
    which the entry keeps for its digest.  Entries come out in chi order.
    """
    _check_box(box)
    basis, sw3 = manifold.basis, manifold.sw3
    entries = []
    for vector in _half_box(basis.rank, box):
        chi = EulerClass(basis, vector)
        terms = fold(manifold, chi).poly.terms()
        entries.append(SearchEntry(chi=chi, injective=len(terms) == len(sw3),
                                   terms=terms, unit_classes=_units(terms)))
    return SearchResult(box=box, entries=tuple(entries))


def _coefficient_multiset(manifold: ThreeManifold) -> str:
    counts = Counter(manifold.sw3.coefficients())
    parts = [
        f"{value} x{count}" if count > 1 else f"{value}"
        for value, count in sorted(counts.items())
    ]
    return "{" + ", ".join(parts) + "}"


def colliding_classes(manifold: ThreeManifold) -> tuple[tuple[int, ...], ...]:
    """Every Euler class (one per antipodal pair) whose fold merges terms.

    Exact: chi collides iff some nonzero multiple of chi is a difference
    of two support exponents, so the collision set consists of diff / k
    for each distinct support difference diff and each divisor k of the
    gcd of its entries.
    """
    support = manifold.sw3.support()
    # Support differences have coordinates in [-W, W], so q - p is one subtraction
    # of base-(2W+1) codes whose balanced digits are q - p.  With p before q in the
    # sorted support it is positive, so its first nonzero entry is positive: the
    # sign every class here is normalized to, and division by k > 0 keeps it.
    width = max((max(col) - min(col) for col in zip(*support)), default=0)
    base, rank = 2 * width + 1, manifold.basis.rank
    codes = [reduce(lambda code, e: code * base + e, exp, 0) for exp in support]
    out = set()
    for value in {b - a for a, b in combinations(codes, 2)}:
        diff = tuple(reversed(_balanced_digits(value, base, rank)))
        g = gcd(*diff)
        for d in range(1, isqrt(g) + 1):
            if g % d == 0:
                out.add(tuple(c // d for c in diff))
                out.add(tuple(c // (g // d) for c in diff))
    return tuple(sorted(out))


def stabilization_note(manifold: ThreeManifold, box: int = 5) -> str:
    """Explain the verdict for Euler classes outside the search box.

    Lists the exact (finite) set of collision-capable classes from the
    support difference set; every other class folds injectively, so its
    verdict equals the unfolded one.
    """
    _check_box(box)
    support = manifold.sw3.support()
    lines = [f"manifold {manifold.name}"]
    if len(support) <= 1:
        lines.append("single-term support: every fold is injective")
        lines.append("every verdict equals the unfolded verdict")
        return "\n".join(lines)

    multiset = _coefficient_multiset(manifold)
    has_unit = bool(unit_classes(manifold.sw3))
    if has_unit:
        lines.append(f"unfolded coefficients {multiset}: unit coefficients present; "
                     "injective folds are not obstructed")
    else:
        lines.append(f"unfolded coefficients {multiset}: no units; "
                     "all injective folds are obstructed")

    colliders = colliding_classes(manifold)
    largest = max(abs(c) for chi in colliders for c in chi)
    lines.append(
        f"{len(colliders)} Euler classes (up to sign) can merge distinct terms; "
        f"all their coefficients lie within [-{largest}, {largest}]"
    )
    if box >= largest:
        lines.append(f"box {box} covers every collision-capable class: "
                     "outside the box every fold is injective")
    else:
        missed = sum(1 for chi in colliders if any(abs(c) > box for c in chi))
        lines.append(f"box {box} misses {missed} collision-capable classes "
                     f"(increase the box to {largest} to cover all)")
    return "\n".join(lines)
