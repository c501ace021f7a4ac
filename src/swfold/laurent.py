"""Exact sparse Laurent polynomials over named integer exponent lattices.

A polynomial is a finite integer combination of monomials
``c * v1^e1 * ... * vr^er`` where the exponents ``e_i`` may be negative.
Terms are stored sparsely as a dict from exponent tuples to nonzero
coefficients, so every operation is exact (Python integers never
overflow) and equality testing is reliable.  Values are immutable after
construction; all operations return new polynomials.

Term invariant: equal exponents are summed and a zero coefficient is
never stored.  ``_accumulate`` is the one function that enforces it:
every producer whose terms can collide or cancel goes through it, and
``LaurentPoly._of`` wraps the result without checking it again.

Each term rule lives here: ``_require_terms`` is the one check of a
term's shape, for polynomials and for folded records, and ``_monomial``,
``_signed`` and ``_joined`` are the one way a term, and a sum of terms,
is printed.

The canonical term order is lexicographic on exponent vectors with the
first variable most significant, which makes iteration, ``to_text`` and
hashing deterministic.

Text grammar (whitespace-insensitive)::

    poly   := term (("+"|"-") term)*  |  "0"
    term   := [sign] integer ("*" factor)*  |  [sign] factor ("*" factor)*
    factor := ident ["^" [sign] integer]
    ident  := letter (letter | digit | "_")*

A leading bare integer is the coefficient (default 1); a factor without
``^`` has exponent 1.  Examples: ``"-3*m2^-2 + 9"``, ``"t - t^-1"``.
One regex scanner reads the text into tokens, and ``from_text`` makes one
pass over them through the state machine ``_GRAMMAR``.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from itertools import repeat
from operator import add, attrgetter, neg

from .errors import DomainError, ParseError, StructuralError, UnknownVariableError, _count, _shown

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_set = object.__setattr__  # how a record's ``__init__`` sets its slots, past the ``__setattr__`` that refuses


class _Record:
    """Immutable record: slots that ``__init__`` sets once by ``_set`` and that refuse assignment and
    deletion, equal and hashed by value within one class, printed as ``Name(field=value, ...)``."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value=None):  # no value when it serves as __delattr__
        raise AttributeError(f"cannot assign to or delete field {_shown(name)} of an immutable record")
    __delattr__ = __setattr__

    def __setstate__(self, state):  # copy and pickle pass (None, {slot: value})
        for name, value in state[1].items():
            _set(self, name, value)

    def __eq__(self, other):
        if other is self:  # as the field tuples would: their items are identical
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__)})"


class Basis(_Record):
    """Ordered collection of distinct variable names labelling lattice directions."""

    __slots__ = ("names",)

    def __init__(self, names: tuple[str, ...]):
        names = tuple(names)
        if not names:
            raise StructuralError("a basis needs at least one variable")
        seen = set()
        for name in names:
            if not isinstance(name, str) or not _IDENT.match(name):
                raise StructuralError(f"invalid variable name {_shown(name)}")
            if name in seen:
                raise StructuralError(f"duplicate variable name {_shown(name)}")
            seen.add(name)
        _set(self, "names", names)

    @property
    def rank(self) -> int:
        return len(self.names)

    def index(self, name: str, position: int | None = None) -> int:
        """Position of ``name`` in the basis; ``position`` locates it in parsed text."""
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownVariableError(
                f"unknown variable {_shown(name)}; basis is ({', '.join(self.names)})", position=position
            ) from None

    def unit(self, name: str) -> tuple[int, ...]:
        """Exponent vector with a single 1 in the named direction."""
        i = self.index(name)
        return tuple(1 if j == i else 0 for j in range(len(self.names)))

    @property
    def origin(self) -> tuple[int, ...]:
        return (0,) * len(self.names)


def _vector(basis: Basis, value, what: str) -> tuple[int, ...]:
    """The one integer-vector rule, for exponents and Euler classes: ``basis.rank`` integers,
    bools refused; ``what`` names the value in the message."""
    try:
        vector = tuple(value)
    except TypeError:
        raise StructuralError(f"{what} must be a sequence of integers, got {_shown(value)}") from None
    if len(vector) != basis.rank:
        raise StructuralError(f"{what} has length {len(vector)}, basis rank is {basis.rank}")
    for e in vector:
        if not isinstance(e, int) or isinstance(e, bool):
            raise StructuralError(f"{what} entries must be integers, got {_shown(e)}")
    return vector


def _positive(value, what: str) -> None:
    """The one count rule, for a genus and a search box: an integer >= 1, bools refused."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise DomainError(f"{what} must be an integer >= 1, got {_shown(value)}")


def _require_terms(terms, rank: int, pivot: int | None = None, modulus: int = 0) -> None:
    """The one term rule: raise unless each term pairs an exponent of ``rank`` integers, its pivot
    coordinate in [0, modulus) (if pivot), with an integer coefficient, bools refused as ``_vector``
    refuses them: all in one pass, where a plain int costs one type test.  :class:`LaurentPoly` runs
    it with no pivot and ``FoldedSW`` with its pivot and modulus, so a malformed term gets the same
    :class:`StructuralError` from both records."""
    for term in terms:
        try:
            exp, coeff = term
            size = len(exp)
        except (TypeError, ValueError):
            raise StructuralError("a term must pair an exponent sequence with a coefficient, "
                                  f"got {_shown(term)}") from None
        if size != rank:
            raise StructuralError(f"exponent {_shown(exp)} has length {size}, basis rank is {rank}")
        plain = type(coeff) is int
        for value in exp:
            if type(value) is not int:
                plain = False
        if not plain:  # an int subclass passes, as it passes _vector; a bool does not
            for value in (coeff, *exp):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise StructuralError(f"exponent entries and coefficients must be integers, got "
                                          f"{_shown(value)} in the term {_shown(term)}")
        if pivot is not None and not 0 <= exp[pivot] < modulus:
            raise StructuralError(f"exponent {_shown(exp)} is not a canonical representative "
                                  f"(pivot {pivot}, modulus {_count(modulus)})")


def _accumulate(acc: dict, pairs: Iterable) -> dict:
    """Add (exponent, coefficient) pairs into ``acc``, keeping the term invariant.

    Equal exponents are summed and a total of zero removes the entry
    (``pop`` with a default, since a lone zero pair has none).
    """
    get = acc.get
    for exp, coeff in pairs:
        total = get(exp, 0) + coeff
        if total:
            acc[exp] = total
        else:
            acc.pop(exp, None)
    return acc


class LaurentPoly(_Record):
    """Immutable exact Laurent polynomial over a :class:`Basis`.

    Supports the ring operations through the usual operators (``+``,
    ``-``, ``*``, ``**`` with nonnegative exponent).  An operand is a
    polynomial over the same basis: another basis raises
    :class:`StructuralError`, and anything else, an integer included, is
    not an operand (``TypeError``) and compares unequal.
    """

    __slots__ = ("basis", "_terms")

    def __init__(self, basis: Basis, terms: Mapping | Iterable = ()):
        try:
            items = iter(terms.items() if isinstance(terms, Mapping) else terms)
        except TypeError:
            raise StructuralError(
                f"terms must be a mapping or an iterable of (exponent, coefficient) pairs, got {_shown(terms)}"
            ) from None
        items = list(items)
        _require_terms(items, basis.rank)
        _set(self, "basis", basis)
        _set(self, "_terms", _accumulate({}, [(tuple(exp), coeff) for exp, coeff in items]))

    # -- constructors ------------------------------------------------

    @staticmethod
    def _of(basis: Basis, terms: dict) -> LaurentPoly:
        """Wrap a term dict that already keeps the invariant; no checks, no copy."""
        result = LaurentPoly.__new__(LaurentPoly)
        _set(result, "basis", basis)
        _set(result, "_terms", terms)
        return result

    @classmethod
    def zero(cls, basis: Basis) -> LaurentPoly:
        return cls._of(basis, {})

    @classmethod
    def one(cls, basis: Basis) -> LaurentPoly:
        return cls._of(basis, {basis.origin: 1})

    # -- views -------------------------------------------------------

    def terms(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Terms as (exponent, coefficient) pairs in canonical order."""
        return tuple(sorted(self._terms.items()))

    def support(self) -> tuple[tuple[int, ...], ...]:
        """Exponent vectors carrying a nonzero coefficient, in canonical order."""
        return tuple(sorted(self._terms))

    def coeff(self, exp) -> int:
        return self._terms.get(_vector(self.basis, exp, "exponent vector"), 0)

    def __len__(self) -> int:
        return len(self._terms)

    # -- ring structure ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            if other.basis is not self.basis and other.basis != self.basis:
                raise StructuralError(
                    f"basis mismatch: ({', '.join(self.basis.names)}) vs "
                    f"({', '.join(other.basis.names)})"
                )
            return other
        return None

    def __add__(self, other) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return LaurentPoly._of(self.basis, _accumulate(dict(self._terms), other._terms.items()))

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._of(self.basis, {exp: -c for exp, c in self._terms.items()})

    def __sub__(self, other) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        products = (
            (tuple(map(add, ea, eb)), ca * cb)
            for ea, ca in self._terms.items()
            for eb, cb in other._terms.items()
        )
        return LaurentPoly._of(self.basis, _accumulate({}, products))

    __rmul__ = __mul__  # only a polynomial operand is taken, so unused; kept because bench/spans.py patches it

    # bench/spans.py traces this method as laurent.pow: kept, though nothing in src/ calls it.
    def __pow__(self, k: int) -> LaurentPoly:
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise DomainError(f"polynomial power must be a nonnegative integer, got {_shown(k)}")
        result = LaurentPoly.one(self.basis)
        square = self
        while k:
            if k & 1:
                result = result * square
            k >>= 1
            if k:
                square = square * square
        return result

    # -- lattice maps ------------------------------------------------

    def conjugate(self) -> LaurentPoly:
        """Negate every exponent vector (the t -> 1/t involution)."""
        return LaurentPoly._of(self.basis, {tuple(map(neg, e)): c for e, c in self._terms.items()})

    def reindex(self, target: Basis, images: Mapping[str, Sequence[int]]) -> LaurentPoly:
        """Push the polynomial along a lattice map into ``target``.

        ``images`` assigns a target exponent vector to every source
        variable; a source term with exponent vector ``e`` lands on
        ``sum_i e_i * images[name_i]``.  Coefficients of colliding terms
        are summed.  The substitution t -> t_m^2 used when a knot's
        polynomial enters a larger lattice is ``reindex(basis,
        {"t": 2 * unit(m)})`` in this form.
        """
        missing = [n for n in self.basis.names if n not in images]
        if missing:
            raise StructuralError(f"reindex images missing variables: {', '.join(missing)}")
        extra = [n for n in images if n not in self.basis.names]
        if extra:
            raise StructuralError(f"reindex images for unknown variables: {', '.join(extra)}")
        columns = [_vector(target, images[n], "exponent vector") for n in self.basis.names]
        keys = []
        for exp in self._terms:
            new = [0] * target.rank
            for e, col in zip(exp, columns):
                if e:
                    for j, cj in enumerate(col):
                        new[j] += e * cj
            keys.append(tuple(new))
        return LaurentPoly._of(target, _accumulate({}, zip(keys, self._terms.values())))

    def eval_ones(self) -> int:
        """Value at the all-ones point: the sum of all coefficients."""
        return sum(self._terms.values())

    # -- equality (the record's: basis and terms) / display ----------

    def __hash__(self) -> int:
        return hash((self.basis, tuple(sorted(self._terms.items()))))

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({to_text(self)!r}, basis=({', '.join(self.basis.names)}))"


# -- canonical text form ----------------------------------------------


def _balanced_digits(value: int, base: int, count: int) -> list[int]:
    """The ``count`` lowest base-``base`` digits of value, each in [-(base//2), (base-1)//2].

    The one home of balanced digits: the Alexander determinant reads its coefficients off them, and
    ``_pack`` and ``_unpack`` below encode and decode the exponent codes of the collision scan and of
    the ``search`` sweep.
    """
    half, digits = base // 2, []
    for _ in range(count):
        value, digit = divmod(value + half, base)  # value + half = base * next + (digit + half)
        digits.append(digit - half)
    return digits


def _pack(vector: Sequence[int], base: int) -> int:
    """One integer for vector, first entry most significant; ``_unpack`` inverts it.

    With every entry in [-(base//2), base//2] and base odd, the codes of
    vectors compare like the vectors, and adding codes adds vectors.
    """
    code = 0
    for e in vector:
        code = code * base + e
    return code


def _unpack(code: int, base: int, rank: int) -> tuple[int, ...]:
    """The ``rank`` balanced digits of code, most significant first (inverse of ``_pack``)."""
    return tuple(reversed(_balanced_digits(code, base, rank)))


_TOO_LARGE = ("result too large to print: an integer has more digits than "
              "Python's int_max_str_digits limit (4300 by default)")  # str() raises ValueError past it


def _digits(n: int) -> str:
    """An integer of a printed result as text: ``str(n)``, or :class:`DomainError` past str()'s digit limit."""
    try:
        return str(n)
    except ValueError:
        raise DomainError(_TOO_LARGE) from None


def _signed(factors: str, coeff: int) -> str:
    """A term's text from its factor text: ``" + "`` or ``" - "``, then the magnitude, left out
    when it is 1 and a factor follows."""
    magnitude = _digits(abs(coeff))
    body = (factors if magnitude == "1" else f"{magnitude}*{factors}") if factors else magnitude
    return (" - " if coeff < 0 else " + ") + body


def _monomial(basis: Basis, exp: Sequence[int]) -> str:
    """The one factor text: ``name`` or ``name^e`` per nonzero exponent, joined by ``*`` (empty at the origin)."""
    try:  # one try around the join, not a _digits call per exponent: every render builds these
        return "*".join([name if e == 1 else f"{name}^{e}" for name, e in zip(basis.names, exp) if e])
    except ValueError:
        raise DomainError(_TOO_LARGE) from None


def _piece(basis: Basis, term: tuple[tuple[int, ...], int]) -> str:
    """The one rule for a term's text: the ``_signed`` of its ``_monomial``."""
    exp, coeff = term
    return _signed(_monomial(basis, exp), coeff)


def _joined(pieces: Iterable[str]) -> str:
    """The one join of signed pieces: the first unsigned unless negative, or ``"0"`` for none."""
    text = "".join(pieces)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


class _Memo(dict):
    """``fn(key)`` for each key, computed on its first lookup and kept; ``known`` seeds it.

    A memo lives in the call that made it: ``tests/test_package.py`` fails on a module-level or
    class-level memo and on a ``functools.cache`` or ``lru_cache`` other than the command line's
    one argument parser.
    """

    def __init__(self, fn, known=()):
        super().__init__(known)
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _code_monomials(basis: Basis, base: int) -> _Memo:
    """The ``_monomial`` of each code ``_pack`` makes with ``base``, for a caller that prints many codes.

    One memo per level i keeps the text of each code of the first i coordinates.  One ``divmod``
    splits a new code, as ``_balanced_digits`` does, into its lowest balanced digit, the exponent of
    coordinate i, and the code of the first i - 1; its text is the level below's text of the latter
    joined by ``*`` to the ``_monomial`` of the former on its own, kept in one memo per coordinate.
    So a new code costs one ``divmod`` and two dict reads.
    """
    rank, low, level = basis.rank, base // 2, {0: ""}
    for i in range(rank):
        column = _Memo(lambda e, i=i: _monomial(basis, (0,) * i + (e,) + (0,) * (rank - 1 - i)), {0: ""})

        def monomial(code: int, high=level, column=column) -> str:
            code, digit = divmod(code + low, base)
            head, factor = high[code], column[digit - low]
            return f"{head}*{factor}" if head and factor else head or factor
        level = _Memo(monomial)
    return level


def _render(basis: Basis, terms: Sequence[tuple[tuple[int, ...], int]]) -> str:
    """The one renderer: text form of terms already in canonical order, the ``_joined`` of each
    term's ``_piece``."""
    return _joined(map(_piece, repeat(basis), terms))


def to_text(poly: LaurentPoly) -> str:
    """Deterministic text form: canonical term order, explicit signs (by ``_render``)."""
    return _render(poly.basis, poly.terms())


#: One token per match, after its whitespace: a digit run, a word, an
#: operator or any other character.  ``\s`` and ``\w`` follow ``str.isspace``
#: and ``str.isalnum``; only ASCII digits make numbers (not "²" or "٣").
_TOKEN = re.compile(r"(\s*)(([0-9]+)|(\w+)|[-+*^]|\S)")

#: The grammar as a state machine: for the state after each token, the token
#: kinds that may come next, the state each leads to, and what was expected.
_GRAMMAR = {
    "term": ({"+": "sign", "-": "sign", "int": "number", "ident": "name"}, "an integer or a variable name"),
    "sign": ({"int": "number", "ident": "name"}, "an integer or a variable name"),
    "number": ({"*": "times", "+": "term", "-": "term", "end": None}, "'+', '-' or end of input"),
    "name": ({"^": "caret", "*": "times", "+": "term", "-": "term", "end": None}, "'+', '-' or end of input"),
    "times": ({"ident": "name"}, "a variable name"),
    "caret": ({"+": "caret sign", "-": "caret sign", "int": "number"}, "an integer"),
    "caret sign": ({"int": "number"}, "an integer"),
}


def _scan(text: str) -> list[tuple[str, object, int]]:
    """Tokens of ``text`` as (kind, value, position), ending with an "end" token."""
    tokens, at = [], 0
    for space, token, digits, word in _TOKEN.findall(text):
        at += len(space)
        if digits:
            try:
                tokens.append(("int", int(digits), at))
            except ValueError:  # more digits than sys.int_max_str_digits
                raise ParseError(f"integer literal of {len(digits)} digits is too long", position=at) from None
        elif token in "+-*^":
            tokens.append((token, token, at))
        elif word[:1].isalpha():  # a name starts with a letter; "_x" and "½x" do not
            tokens.append(("ident", word, at))
        else:
            raise ParseError(f"unexpected character {_shown(token[0])}", position=at)
        at += len(token)
    tokens.append(("end", None, len(text)))
    return tokens


def from_text(text: str, basis: Basis) -> LaurentPoly:
    """Parse the canonical polynomial grammar over the given basis.

    The whole text is scanned first; then each step takes a token of a kind
    ``_GRAMMAR`` allows, or raises :class:`ParseError` ``expected ...`` at
    its position.  A name outside the basis raises
    :class:`UnknownVariableError`.  ``from_text(to_text(p), p.basis) == p``.
    """
    rank = basis.rank
    terms, state = [], "term"
    sign, coeff, exp = 1, 1, [0] * rank
    for kind, value, at in _scan(text):
        follow, expected = _GRAMMAR[state]
        if kind not in follow:
            raise ParseError(f"expected {expected}", position=at)
        if kind == "ident":
            i = basis.index(value, position=at)
            exp[i] += 1
        elif kind == "int":
            if state == "term" or state == "sign":
                coeff = value
            else:
                exp[i] += power_sign * value - 1  # the name already counted 1
        elif kind == "^":
            power_sign = 1
        elif kind != "*":  # "+", "-" or the end
            s = -1 if kind == "-" else 1
            if state == "caret":
                power_sign = s
            elif state == "term":
                sign *= s
            else:  # the term ends here
                terms.append((tuple(exp), sign * coeff))
                sign, coeff, exp = s, 1, [0] * rank
        state = follow[kind]
    return LaurentPoly._of(basis, _accumulate({}, terms))
