"""Symplectic obstruction verdicts and exhaustive Euler-class searches.

A symplectic 4-manifold with b_+ >= 2 must carry a class with SW
invariant exactly +-1 (the canonical class), so a folded SW polynomial
with no unit coefficient obstructs every symplectic structure, with
either orientation.  The per-class verdict is read off the one fold
record, :class:`~swfold.fold.FoldedSW`, that :func:`~swfold.fold.fold`
returns.  :func:`euler_search` builds one such record per Euler class
in a box (one per antipodal pair) by a packed sweep: every exponent is
one integer, so a fold is one integer shift per term, made only for the
terms that move in the class's (pivot, modulus) group; a box over
``MAX_TERM_FOLDS`` is refused before any work.  One memo type,
:class:`~swfold.laurent._Memo`, serves the sweep's decoding and the
listing's pieces: each distinct code is unpacked once per search, and
each listing row is one join of memoized pieces.  :func:`~swfold.fold.fold`
is the reference the sweep is tested against, entry for entry.
:func:`colliding_classes` lists exactly the classes whose folds merge
terms, so every class outside that set keeps the unfolded verdict.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from functools import partial
from itertools import combinations, product
from math import gcd, isqrt

from .errors import DomainError, _count
from .fold import EulerClass, FoldedSW, fold
from .laurent import _Memo, _Record, _accumulate, _pack, _piece, _positive, _render, _set, _unpack
from .manifolds import ThreeManifold, require_b_plus


class SearchResult(_Record):
    __slots__ = ("box", "entries")

    def __init__(self, box: int, entries: tuple[FoldedSW, ...]):
        _set(self, "box", box)
        _set(self, "entries", entries)

    @property
    def all_obstructed(self) -> bool:
        return all(e.obstructed for e in self.entries)

    def digests(self) -> tuple[str, ...]:
        """Every entry's digest, each one join of signed pieces from one memo per search."""
        if not self.entries:
            return ()
        memo = _Memo(partial(_piece, self.entries[0].basis))
        return tuple(_render(e.basis, e.terms, memo) for e in self.entries)

    def chi_texts(self) -> Iterator[str]:
        """Every entry's ``chi.text`` in order (entries share one basis), through one memo and unit vectors."""
        if not self.entries:
            return iter(())
        basis = self.entries[0].basis
        units, memo = tuple(map(basis.unit, basis.names)), _Memo(partial(_piece, basis))
        return (e.chi._text(units, memo) for e in self.entries)


#: The most term folds one search may do: ((2B+1)^r - 1)/2 classes times len(sw3), at least 1 each.
MAX_TERM_FOLDS = 10**7


def euler_search(manifold: ThreeManifold, box: int = 5) -> SearchResult:
    """Fold by every Euler class in the box, one per antipodal pair.

    ((2B+1)^r - 1)/2 :class:`~swfold.fold.FoldedSW` entries in chi order, each
    equal to :func:`~swfold.fold.fold` by its class; over ``MAX_TERM_FOLDS``
    classes times sw3 terms raise :class:`DomainError` before any work.
    Classes are generated normalized, in lexicographic order: pivot p from
    the last coordinate down, modulus m in 1..B, then ``(0,)*p + (m, *rest)``
    for every ``rest`` in [-B, B].  Each sw3
    exponent is packed once into a balanced base-R integer, R wide enough for
    every canonical representative in the box, so a term folds by one shift,
    ``code - (e_p // m) * pack(chi)``.  In a (p, m) group each multiplier is
    fixed: the terms where it is 0 form one canonical code dict, which each
    class copies before it accumulates the shifted codes of the moving terms
    alone.  Sorting codes sorts terms; each distinct code is decoded once.
    """
    _positive(box, "search box")
    basis, rank, sw3 = manifold.basis, manifold.basis.rank, manifold.sw3._terms
    classes = ((2 * box + 1) ** rank - 1) // 2
    folds = classes * max(len(sw3), 1)  # a zero sw3 still costs one step per class
    if folds > MAX_TERM_FOLDS:
        raise DomainError(f"search box {_count(box)} holds {_count(classes)} Euler classes of {len(sw3)} terms "
                          f"each: {_count(folds)} term folds, over the limit of {MAX_TERM_FOLDS}")
    require_b_plus(manifold)
    # |e - k*chi| <= s + s*box for coordinates |e| <= s, since |k| = |e_p // m| <= s
    s = max((abs(e) for exp in sw3 for e in exp), default=0)
    base = 2 * s * (box + 1) + 1
    codes = [_pack(exp, base) for exp in sw3]
    decoded, entries = _Memo(partial(_unpack, base=base, rank=rank), zip(codes, sw3)), []
    for pivot in reversed(range(rank)):
        for modulus in range(1, box + 1):
            ks = [exp[pivot] // modulus for exp in sw3]
            fixed = {code: coeff for code, k, coeff in zip(codes, ks, sw3.values()) if not k}
            moving = [(code, k, coeff) for code, k, coeff in zip(codes, ks, sw3.values()) if k]
            for rest in product(range(-box, box + 1), repeat=rank - 1 - pivot):
                vector = (0,) * pivot + (modulus, *rest)
                step = _pack(vector, base)
                folded = _accumulate(fixed.copy(), [(code - k * step, coeff) for code, k, coeff in moving])
                order = sorted(folded)
                terms = tuple(zip(map(decoded.__getitem__, order), map(folded.__getitem__, order)))
                entries.append(FoldedSW(EulerClass(basis, vector), basis, terms, len(terms) == len(sw3)))
    return SearchResult(box=box, entries=tuple(entries))


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
    codes = [_pack(exp, base) for exp in support]
    out = set()
    for value in {b - a for a, b in combinations(codes, 2)}:
        diff = _unpack(value, base, rank)
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
    verdict equals the unfolded one, read off the fold by the zero class.
    """
    _positive(box, "search box")
    unfolded = fold(manifold, manifold.basis.origin)
    terms = unfolded.terms
    lines = [f"manifold {manifold.name}"]
    if len(terms) <= 1:
        lines.append("single-term support: every fold is injective")
        lines.append("every verdict equals the unfolded verdict")
        return "\n".join(lines)

    counts = Counter(coeff for _, coeff in terms)
    multiset = "{" + ", ".join(f"{value} x{count}" if count > 1 else f"{value}"
                               for value, count in sorted(counts.items())) + "}"
    verdict = ("no units; all injective folds are obstructed" if unfolded.obstructed
               else "unit coefficients present; injective folds are not obstructed")
    lines.append(f"unfolded coefficients {multiset}: {verdict}")

    colliders = colliding_classes(manifold)
    extents = [max(map(abs, chi)) for chi in colliders]
    largest, missed = max(extents), sum(extent > box for extent in extents)
    lines.append(
        f"{len(colliders)} Euler classes (up to sign) can merge distinct terms; "
        f"all their coefficients lie within [-{largest}, {largest}]"
    )
    if not missed:
        lines.append(f"box {_count(box)} covers every collision-capable class: "
                     "outside the box every fold is injective")
    else:
        lines.append(f"box {box} misses {missed} collision-capable classes "
                     f"(increase the box to {largest} to cover all)")
    return "\n".join(lines)
