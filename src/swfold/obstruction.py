"""Symplectic obstruction verdicts and exhaustive Euler-class searches.

A symplectic 4-manifold with b_+ >= 2 must carry a class with SW
invariant exactly +-1 (the canonical class), so a folded SW polynomial
with no unit coefficient obstructs every symplectic structure, with
either orientation.  The per-class verdict is read off the one fold
record, :class:`~swfold.fold.FoldedSW`.  ``_sweep`` folds by every Euler
class in a box (one per antipodal pair) in packed form: every exponent
is one integer, and a fold is one integer shift per term that moves in
the class's (pivot, modulus) group.  It builds no record, and once the
box is checked every class and representative it makes is valid by
construction; a box over ``MAX_TERM_FOLDS`` term folds, each counted once
per 64-bit word of the widest key, is refused before any work, by
:func:`~swfold.errors._bounded` as every work bound is.  It gives
the box's :func:`stabilization_note`, each class's vector, verdict and
folded terms as sorted int keys (code and coefficient in one integer),
two memos that read a key as a term or as its text, and a reader of
each class's text, so ``search`` on the command line prints them.
:func:`~swfold.fold.fold` by each class is the reference the sweep is
tested against, entry for entry.  :func:`colliding_classes` lists
exactly the classes whose folds merge terms, so every class outside
that set keeps sw3's coefficients and verdict.  It works per divisor of
a column difference on a product support, else per pair difference, and
refuses over ``MAX_TRIAL_DIVISIONS`` trial divisions before the first.
The sweep finds the colliders once and builds the note from them before
it packs any exponent, the note's coefficient line checked printable
before the collision scan, so a note that cannot print is refused before
either; it shifts the other classes' keys with no accumulation, and
gives every class whose pivot coordinate sw3 does not touch one shared
row, sw3's own.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator
from functools import partial
from itertools import chain, combinations, islice, product
from math import gcd, isqrt, prod

from .errors import _bounded, _count
from .fold import _units, fold
from .laurent import (_Memo, _accumulate, _code_monomials, _digits, _joined, _pack, _positive, _printable, _signed,
                      _unpack)
from .manifolds import ThreeManifold, require_b_plus


#: The most term folds one search may do: ((2B+1)^r - 1)/2 classes times len(sw3), at least 1 each,
#: times the 64-bit words of its widest key, so a fold of a key of many words counts once per word.
MAX_TERM_FOLDS = 10**7

#: The most trial divisions one ``colliding_classes`` may do: isqrt(n) for each distinct n it factors.
MAX_TRIAL_DIVISIONS = 10**7


def _sweep(manifold: ThreeManifold, box: int) -> tuple[str, list[tuple[tuple[int, ...], list[int], bool]], _Memo,
                                                      _Memo, Callable[[], Iterator[str]]]:
    """The box's :func:`stabilization_note`, each Euler class in the box (one per antipodal pair) in chi
    order with its folded terms as sorted keys and its verdict, two memos that read a key back: ``terms``
    gives its (exponent, coefficient), ``pieces`` its signed piece text, and ``texts``, whose call
    yields each row's ``EulerClass.text`` in row order.

    Over ``MAX_TERM_FOLDS`` classes times sw3 terms times the 64-bit words of the widest key, read off the
    bit lengths of R and W below (one word for every demo), raise :class:`DomainError` before any work; then
    ``require_b_plus`` runs and the note is built, its coefficient line checked printable before the one
    :func:`colliding_classes` whose classes it counts, so a note that cannot print is refused before the
    collision scan and any exponent is packed.  Classes come normalized, in
    lexicographic order: pivot p from the last coordinate down, modulus m in 1..B, then ``(0,)*p + (m,
    *rest)`` for every ``rest`` in [-B, B].  Each sw3 exponent is packed once into a balanced base-R
    integer, R wide enough for every canonical representative in the box, so a term folds by one shift,
    ``code - (e_p // m) * pack(chi)``.  A term is one int, its key ``code * W + coefficient``: no merged
    coefficient passes sw3's L1 norm S, so with W = 2S + 1 the coefficient is one more balanced digit, which
    both memos read back, and sorting keys sorts terms by code.  In a (p, m) group each multiplier is fixed,
    and the terms where it is 0 stay put.  A group whose multipliers are all 0 moves no term, and none of its
    classes can collide: every exponent's pivot coordinate lies in [0, m), so every support difference's lies
    in (-m, m), and no multiple k*chi, k >= 1, whose pivot entry is k*m, is one.  Such a group gives all its
    classes one shared list, sw3's sorted keys, built once per search, with no per-class key arithmetic,
    collider lookup or sort; a caller must not change it.  As sw3 is symmetric under e -> -e, its
    multipliers are all 0 exactly when sw3 does not touch the pivot coordinate.  Any other class outside
    the colliding ones merges nothing: its row is the group's keys shifted, with no accumulation, and its
    verdict is sw3's own.  No record is built, and none needs a check: each class is nonzero with a positive
    pivot entry, and each representative's pivot coordinate ``e_p - (e_p // m) * m`` lies in [0, m).  A
    class's text lists its entries last coordinate first, so it is the text of its rest followed by its
    modulus's piece, and ``texts`` joins each rest's pieces once per pivot, at most (2B+1)^(r-1) strings,
    keeping one pivot's rest texts at a time; rows hold no text.
    """
    _positive(box, "search box")
    basis, rank, sw3 = manifold.basis, manifold.basis.rank, manifold.sw3._terms
    # |e - k*chi| <= s + s*box for coordinates |e| <= s, since |k| = |e_p // m| <= s
    s = max((abs(e) for exp in sw3 for e in exp), default=0)
    base, width = 2 * s * (box + 1) + 1, 2 * sum(map(abs, sw3.values())) + 1
    words = -(-(rank * base.bit_length() + width.bit_length()) // 64)  # of a key, |key| < R^r * W / 2
    classes = ((2 * box + 1) ** rank - 1) // 2
    folds = classes * max(len(sw3), 1)  # a zero sw3 still costs one step per class
    wide = f" of {words} key words each, {_count(folds * words)} one-word term folds" if words > 1 else ""
    _bounded(folds * words, MAX_TERM_FOLDS, f"search box {_count(box)} holds {_count(classes)} Euler classes of "
                                            f"{len(sw3)} terms each: {_count(folds)} term folds{wide}")
    require_b_plus(manifold)
    note, colliders = _note(manifold, box)  # a note that cannot print refuses before the collision scan
    colliding, obstructed = set(colliders), not _units(sw3.items())  # an injective fold keeps sw3's verdict
    scaled = [_pack(exp, base) * width for exp in sw3]  # a term's key less its coefficient
    own = sorted([sc + coeff for sc, coeff in zip(scaled, sw3.values())])  # sw3's keys, one list per search
    rows, pivots = [], []  # each pivot and its rests, in row order, for texts
    for pivot in reversed(range(rank)):
        # _pack is linear: a class's code is its modulus's code plus its rest's, packed once per pivot
        scale, zeros = base ** (rank - 1 - pivot), (0,) * pivot
        rests = [(rest, _pack(rest, base)) for rest in product(range(-box, box + 1), repeat=rank - 1 - pivot)]
        pivots.append((pivot, rests))
        for modulus in range(1, box + 1):
            ks = [exp[pivot] // modulus for exp in sw3]
            head, offset = zeros + (modulus,), modulus * scale
            if not any(ks):  # no term moves and none can merge: every class of the group holds sw3's own row
                rows += [(head + rest, own, obstructed) for rest, _ in rests]
                continue
            fixed = {sc: coeff for sc, k, coeff in zip(scaled, ks, sw3.values()) if not k}
            shifts = [(sc, k * width) for sc, k in zip(scaled, ks) if k]
            coeffs = [coeff for k, coeff in zip(ks, sw3.values()) if k]
            fixed_keys = [sc + coeff for sc, coeff in fixed.items()]
            moving_keys = [(sc + coeff, kw) for (sc, kw), coeff in zip(shifts, coeffs)]
            for rest, rest_code in rests:
                chi, step = head + rest, offset + rest_code
                if chi in colliding:  # zip hands _accumulate its pairs without a tuple per term
                    folded = _accumulate(fixed.copy(), zip([sc - kw * step for sc, kw in shifts], coeffs))
                    row = sorted([sc + coeff for sc, coeff in folded.items()])
                    rows.append((chi, row, not _units(folded.items())))
                else:
                    row = fixed_keys + [key - kw * step for key, kw in moving_keys]
                    row.sort()
                    rows.append((chi, row, obstructed))

    half, monomials = width // 2, _code_monomials(basis, base)
    prefixes = _Memo(lambda coeff: _signed("x", coeff)[:-1])  # the sign and magnitude before a factor text

    def term(key):  # a key's balanced base-W digits: its code and its coefficient
        code, digit = divmod(key + half, width)
        return _unpack(code, base, rank), digit - half

    def piece(key):
        code, digit = divmod(key + half, width)
        factors = monomials[code]
        return prefixes[digit - half] + factors if factors else _signed(factors, digit - half)

    def texts():
        columns = [_Memo(partial(_signed, name)) for name in basis.names]  # each coordinate's class pieces
        for pivot, rests in pivots:
            trailing = columns[:pivot:-1]  # the rest's coordinates, last first
            tails = [_joined([column[c] for column, c in zip(trailing, rest[::-1]) if c]) if any(rest) else ""
                     for rest, _ in rests]
            for modulus in range(1, box + 1):
                head = columns[pivot][modulus]  # positive, so a class with a zero rest drops its " + "
                yield from [tail + head if tail else head[3:] for tail in tails]
    return note, rows, _Memo(term), _Memo(piece), texts


def _divisors(numbers) -> dict[int, list[int]]:
    """Each distinct positive number's divisors, by trial division up to its isqrt; over
    ``MAX_TRIAL_DIVISIONS`` trial divisions in all raise :class:`DomainError` before any."""
    roots = {n: isqrt(n) for n in set(numbers)}
    trials = sum(roots.values())
    _bounded(trials, MAX_TRIAL_DIVISIONS, f"finding the colliding Euler classes takes {_count(trials)} trial "
                                          f"divisions of {len(roots)} support differences")
    small = {n: [d for d in range(1, root + 1) if n % d == 0] for n, root in roots.items()}
    return {n: low + [n // d for d in reversed(low) if d * d != n] for n, low in small.items()}


def colliding_classes(manifold: ThreeManifold) -> tuple[tuple[int, ...], ...]:
    """Every Euler class (one per antipodal pair) whose fold merges terms.

    Exact: chi collides iff k*chi is in S - S for some k >= 1, S the support.  If S is the product
    of its coordinate sets, S - S = D_1 x ... x D_r for the differences D_i within coordinate i,
    and k divides a positive one; each such k gives the positive tuples of the product of the
    ``d // k`` over the d in D_i that k divides.  Any other S is scanned by pairs: each positive
    difference divided by each divisor of the gcd of its entries.  The nine-sum 5_2 tower has 343
    terms and 58,653 point pairs, but three columns of 7 values whose 6 positive differences have 9
    divisors in all.
    """
    support = manifold.sw3.support()
    columns = [sorted(set(column)) for column in zip(*support)]
    if len(support) == prod(map(len, columns)):  # every T3 spec with axis meridians, every rank-1 base
        diffs = [{b - a for a, b in combinations(column, 2)} for column in columns]
        divisors, quotients = _divisors(set().union(*diffs)), [{} for _ in columns]
        for column, by_k in zip(diffs, quotients):  # k -> [0, +-d // k for each d in D_i that k divides]
            for d in column:
                for k in divisors[d]:
                    by_k.setdefault(k, [0]).extend((d // k, -d // k))
        lists = ([sorted(by_k.get(k, (0,))) for by_k in quotients] for k in set().union(*quotients))
        # over sorted symmetric lists the product is in tuple order, -v mirroring v, so zero is its middle
        runs = (islice(product(*values), prod(map(len, values)) // 2 + 1, None) for values in lists)
        # dropping repeats leaves each run sorted, and sorted() merges runs in about n*log(len(runs)) steps
        return tuple(sorted(dict.fromkeys(chain.from_iterable(runs))))
    # Differences have coordinates in [-W, W], so q - p is one subtraction of base-(2W+1) codes
    # whose balanced digits are q - p; with p before q in the sorted support it is positive.
    base = 2 * max((column[-1] - column[0] for column in columns), default=0) + 1
    codes = [_pack(exp, base) for exp in support]
    diffs = [_unpack(value, base, manifold.basis.rank) for value in {b - a for a, b in combinations(codes, 2)}]
    gcds = [gcd(*diff) for diff in diffs]
    divisors = _divisors(gcds)
    return tuple(sorted({tuple(c // k for c in diff) for diff, g in zip(diffs, gcds) for k in divisors[g]}))


def stabilization_note(manifold: ThreeManifold, box: int = 5) -> str:
    """Explain the verdict for Euler classes outside the search box.

    Lists the exact (finite) set of collision-capable classes from the
    support difference set; every other class folds injectively, so its
    verdict equals the unfolded one, read off the fold by the zero class.
    """
    _positive(box, "search box")
    return _note(manifold, box)[0]


def _note(manifold: ThreeManifold, box: int) -> tuple[str, tuple[tuple[int, ...], ...]]:
    """The body of :func:`stabilization_note` and the :func:`colliding_classes` it counts.

    Its coefficient line is checked by ``_printable`` before the collision scan, so sw3 coefficients that
    cannot print are refused first.  A support of at most one term has no colliders and scans nothing.
    """
    unfolded = fold(manifold, manifold.basis.origin)
    terms = unfolded.terms
    lines = [f"manifold {manifold.name}"]
    if len(terms) <= 1:
        lines.append("single-term support: every fold is injective")
        lines.append("every verdict equals the unfolded verdict")
        return "\n".join(lines), ()

    counts = Counter(coeff for _, coeff in terms)
    _printable(counts)
    multiset = "{" + ", ".join(f"{_digits(value)} x{count}" if count > 1 else _digits(value)
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
    return "\n".join(lines), colliders
