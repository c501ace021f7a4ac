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

from dataclasses import dataclass
from itertools import product
from math import gcd

from .errors import DomainError, StructuralError
from .fold import (
    EulerClass,
    FoldedSW,
    QuotientLattice,
    _injective_on_support,
    fold,
)
from .laurent import LaurentPoly, to_text
from .manifolds import ThreeManifold, require_b_plus


@dataclass(frozen=True)
class ObstructionReport:
    """Unit-coefficient scan of one fold result.

    ``obstructed`` is true exactly when ``unit_classes`` is empty: no
    spin-c class can play the role of a symplectic canonical class.
    """

    source: str
    unit_classes: tuple[tuple[int, ...], ...]
    obstructed: bool
    fibered_orbit: bool

    def __post_init__(self):
        if self.obstructed != (len(self.unit_classes) == 0):
            raise StructuralError("obstructed must mean exactly: no unit classes")


def unit_classes(poly: LaurentPoly) -> tuple[tuple[int, ...], ...]:
    """Exponents whose coefficient is +1 or -1, in canonical term order."""
    return tuple(exp for exp, coeff in poly.terms() if coeff in (1, -1))


def taubes_report(folded: FoldedSW, manifold: ThreeManifold) -> ObstructionReport:
    """Scan a fold result for coefficients equal to +1 or -1."""
    units = unit_classes(folded.poly)
    label = "chi = 0 (product case)" if folded.product_case else f"chi = {folded.chi_text}"
    return ObstructionReport(
        source=f"{folded.source} [{label}]",
        unit_classes=units,
        obstructed=not units,
        fibered_orbit=manifold.fibered,
    )


@dataclass(frozen=True)
class SearchEntry:
    chi: EulerClass
    obstructed: bool
    injective: bool
    digest: str
    unit_classes: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SearchResult:
    box: int
    entries: tuple[SearchEntry, ...]
    all_obstructed: bool


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


def euler_search(manifold: ThreeManifold, box: int = 5) -> SearchResult:
    """Fold by every Euler class in the box and collect obstruction verdicts.

    Enumerates ((2B+1)^r - 1)/2 classes.  When a fold is injective the
    verdict is read off the unfolded coefficient multiset; the folded
    polynomial is still computed for the entry digest.  Entries are
    deterministic in chi order regardless of execution order.
    """
    if not isinstance(box, int) or box < 1:
        raise DomainError(f"search box must be an integer >= 1, got {box!r}")
    require_b_plus(manifold)
    support = manifold.sw3.support()
    unfolded_has_unit = bool(unit_classes(manifold.sw3))
    entries = []
    for vector in _half_box(manifold.basis.rank, box):
        chi = EulerClass(manifold.basis, vector)
        injective = _injective_on_support(support, QuotientLattice(chi))
        folded = fold(manifold, chi)
        units = unit_classes(folded.poly)
        obstructed = (not unfolded_has_unit) if injective else (not units)
        entries.append(
            SearchEntry(
                chi=chi,
                obstructed=obstructed,
                injective=injective,
                digest=to_text(folded.poly),
                unit_classes=units,
            )
        )
    return SearchResult(
        box=box,
        entries=tuple(entries),
        all_obstructed=all(e.obstructed for e in entries),
    )


def _coefficient_multiset(manifold: ThreeManifold) -> str:
    counts: dict[int, int] = {}
    for coeff in manifold.sw3.coefficients():
        counts[coeff] = counts.get(coeff, 0) + 1
    parts = [
        f"{value} x{count}" if count > 1 else f"{value}"
        for value, count in sorted(counts.items())
    ]
    return "{" + ", ".join(parts) + "}"


def colliding_classes(manifold: ThreeManifold) -> tuple[tuple[int, ...], ...]:
    """Every Euler class (one per antipodal pair) whose fold merges terms.

    Exact: chi collides iff some nonzero multiple of chi is a difference
    of two support exponents, so the collision set consists of the
    integer divisors of the support difference vectors.
    """
    support = manifold.sw3.support()
    out = set()
    for i in range(len(support)):
        for j in range(i + 1, len(support)):
            diff = tuple(a - b for a, b in zip(support[i], support[j]))
            g = 0
            for c in diff:
                g = gcd(g, abs(c))
            for k in range(1, g + 1):
                if g % k == 0 and all(c % k == 0 for c in diff):
                    candidate = tuple(c // k for c in diff)
                    first = next(c for c in candidate if c != 0)
                    if first < 0:
                        candidate = tuple(-c for c in candidate)
                    out.add(candidate)
    return tuple(sorted(out))


def stabilization_note(manifold: ThreeManifold, box: int = 5) -> str:
    """Explain the verdict for Euler classes outside the search box.

    Lists the exact (finite) set of collision-capable classes from the
    support difference set; every other class folds injectively, so its
    verdict equals the unfolded one.
    """
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
