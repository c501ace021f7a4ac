"""Symmetrized Alexander polynomials from Seifert matrices, and the knot table.

A knot enters the calculator either through a Seifert matrix V, from
which the polynomial det(tV - V^T) is computed exactly and then centered
and sign-normalized so that the result Delta satisfies
Delta(1/t) = Delta(t) and Delta(1) = +1, or directly as a polynomial in
which :func:`validate_alexander` finds no problem (its sign is then
flipped if Delta(1) = -1).

The determinant is one integer Bareiss determinant of base*V - V^T, at a
point t = base above twice every coefficient, whose balanced base-`base`
digits are the coefficients (Kronecker substitution).

The built-in table :data:`BUILTIN_KNOTS` ships the three knots the
bundled demos are built on: the trefoil 3_1 and the figure-eight 4_1
(both fibered) and the nonfibered twist knot 5_2.  Tables are immutable
values; registering knots yields a new table.
"""

from __future__ import annotations

import json
import re
import sys
from collections.abc import Iterable, Sequence
from math import prod

from .errors import KnotLookupError, NotSeifertError, SpecFileError, StructuralError, _count, _shown
from .laurent import Basis, LaurentPoly, _balanced_digits, _Record, _set, from_text, to_text

#: Every knot polynomial lives over this one-variable basis.
KNOT_BASIS = Basis(("t",))

#: What a knot name may not hold, so that it prints as one line of text: a C0 or
#: C1 control character or DEL, a line or paragraph separator, or a lone surrogate.
_NOT_PRINTABLE = re.compile(r"[\x00-\x1f\x7f-\x9f\u2028\u2029\ud800-\udfff]")


class SeifertMatrix(_Record):
    """Square integer matrix presenting a Seifert surface pairing.

    Size 0 encodes the unknot.  Whether the matrix actually presents a
    knot (det(V - V^T) = +-1) is checked when the polynomial is derived.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        try:
            rows = tuple(tuple(row) for row in entries)
        except TypeError:
            raise StructuralError(f"Seifert matrix must be a sequence of integer rows, got {_shown(entries)}") from None
        for row in rows:
            if len(row) != len(rows):
                raise StructuralError(
                    f"Seifert matrix must be square, got row of length {len(row)} in size {len(rows)}"
                )
            for value in row:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise StructuralError(f"Seifert matrix entries must be integers, got {_shown(value)}")
        _set(self, "entries", rows)

    @property
    def size(self) -> int:
        return len(self.entries)


def _int_det(rows: list[list[int]]) -> int:
    """Integer determinant by fraction-free Bareiss elimination (exact // by the last pivot)."""
    a, n = [list(row) for row in rows], len(rows)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return sign * a[-1][-1] if n else 1


def alexander_from_seifert(matrix) -> LaurentPoly:
    """Symmetrized, sign-normalized Alexander polynomial of a Seifert matrix.

    Computes det(tV - V^T), recenters exponents so the result is fixed by
    t -> 1/t, and scales by -1 if needed so the value at t = 1 is +1.
    Raises :class:`NotSeifertError` when det(V - V^T) is not +-1.
    """
    if not isinstance(matrix, SeifertMatrix):
        matrix = SeifertMatrix(matrix)
    n = matrix.size
    pairs = list(zip(matrix.entries, zip(*matrix.entries)))  # (row i of V, row i of V^T)
    # The 1-norm of det(tV - V^T) is at most the product of its row 1-norms,
    # so base exceeds twice every coefficient and the n+1 coefficients are
    # the balanced base-`base` digits of the determinant at t = base.
    base = 2 * prod(1 + sum(map(abs, row + col)) for row, col in pairs)
    value = _int_det([[base * v - w for v, w in zip(row, col)] for row, col in pairs])
    coeffs = _balanced_digits(value, base, n + 1)

    at_one = sum(coeffs)  # det(tV - V^T) at t=1 is det(V - V^T)
    if at_one not in (1, -1):
        raise NotSeifertError(
            f"not a knot Seifert matrix: det(V - V^T) = {_count(at_one)}, expected +-1"
        )
    # A unit det(V - V^T) makes n even (a skew-symmetric matrix of odd size
    # has determinant 0), and transposing gives det(tV - V^T) =
    # (-t)^n det(V/t - V^T), so the coefficients are palindromic about n/2.
    return LaurentPoly(KNOT_BASIS, (((k - n // 2,), at_one * c) for k, c in enumerate(coeffs)))


def validate_alexander(poly: LaurentPoly) -> tuple[str, ...]:
    """The gate conditions a would-be Alexander polynomial fails, or ``()`` when it passes.

    The polynomial must be fixed by t -> 1/t and evaluate to +-1 at t = 1;
    each failed condition gives one problem, in that order.  Raises only
    for a polynomial in more than one variable.
    """
    if poly.basis.rank != 1:
        raise StructuralError(f"Alexander polynomials are one-variable; got rank {poly.basis.rank}")
    value = poly.eval_ones()
    checks = ((poly.conjugate() == poly, "not symmetric under t -> 1/t"),
              (value in (1, -1), f"value at t=1 is {_count(value)}, expected +-1"))
    return tuple(problem for holds, problem in checks if not holds)


class KnotRecord(_Record):
    """Named knot: optional Seifert matrix, its polynomial, fiberedness flag."""

    __slots__ = ("name", "seifert", "alexander", "fibered")

    def __init__(self, name: str, seifert: SeifertMatrix | None, alexander: LaurentPoly, fibered: bool):
        _set(self, "name", name)
        _set(self, "seifert", seifert)
        _set(self, "alexander", alexander)
        _set(self, "fibered", fibered)

    def to_row(self) -> dict:
        """JSON-ready row, as the command line lists and shows knots."""
        return {
            "name": self.name,
            "fibered": self.fibered,
            "alexander": to_text(self.alexander),
            "seifert": [list(r) for r in self.seifert.entries] if self.seifert is not None else None,
        }


def knot_from_seifert(name: str, fibered: bool, entries) -> KnotRecord:
    matrix = entries if isinstance(entries, SeifertMatrix) else SeifertMatrix(entries)
    return KnotRecord(
        name=name,
        seifert=matrix,
        alexander=alexander_from_seifert(matrix),
        fibered=bool(fibered),
    )


def knot_from_alexander(name: str, fibered: bool, poly) -> KnotRecord:
    """Register-by-polynomial path; normalizes the sign so the value at 1 is +1."""
    if isinstance(poly, str):
        poly = from_text(poly, KNOT_BASIS)
    problems = validate_alexander(poly)
    if problems:
        raise StructuralError(f"invalid Alexander polynomial for {_shown(name)}: " + "; ".join(problems))
    if poly.eval_ones() == -1:
        poly = -poly
    return KnotRecord(name=name, seifert=None, alexander=poly, fibered=bool(fibered))


class KnotTable:
    """Immutable set of knot records keyed by name.

    :meth:`with_records` returns a new table and leaves this one as it
    was.  Adding a record identical to one already present is a no-op; a
    different record under an existing name is rejected.
    """

    def __init__(self, records: Iterable[KnotRecord]):
        self._records: dict[str, KnotRecord] = {}
        for record in records:
            existing = self._records.setdefault(record.name, record)
            if existing is not record and existing != record:
                raise StructuralError(f"knot {_shown(record.name)} is already registered with different data")

    def with_records(self, records: Sequence[KnotRecord]) -> KnotTable:
        """This table plus ``records``; this table itself when ``records`` is empty."""
        return KnotTable((*self._records.values(), *records)) if records else self

    def lookup(self, name: str) -> KnotRecord:
        try:
            return self._records[name]
        except KeyError:
            raise KnotLookupError(name, self.names()) from None

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._records))


#: The knots every table starts from: the trefoil, the figure-eight and 5_2.
BUILTIN_KNOTS = KnotTable(
    knot_from_seifert(name, fibered, entries)
    for name, fibered, entries in (
        ("3_1", True, ((-1, 1), (0, -1))),
        ("4_1", True, ((1, 1), (0, -1))),
        ("5_2", False, ((1, 1), (0, 2))),
    )
)


def record_from_dict(data: dict, where: str) -> KnotRecord:
    """Validate one registration object (``where`` prefixes error field paths)."""
    if not isinstance(data, dict):
        raise SpecFileError(f"{where}: expected an object, got {type(data).__name__}")
    for key in data:
        if key not in ("name", "fibered", "seifert", "alexander"):
            raise SpecFileError(f"{where}.{key}: unknown field")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise SpecFileError(f"{where}.name: expected a nonempty string")
    if _NOT_PRINTABLE.search(name):
        raise SpecFileError(f"{where}.name: expected one line of printable text, without control characters, "
                            "line or paragraph separators, or lone surrogates")
    fibered = data.get("fibered")
    if not isinstance(fibered, bool):
        raise SpecFileError(f"{where}.fibered: expected true or false")
    has_seifert = "seifert" in data
    has_alexander = "alexander" in data
    if has_seifert == has_alexander:
        raise SpecFileError(f"{where}: provide exactly one of 'seifert' or 'alexander'")
    if has_seifert:
        seifert = data["seifert"]
        if not isinstance(seifert, list) or not all(isinstance(r, list) for r in seifert):
            raise SpecFileError(f"{where}.seifert: expected a list of integer rows")
        return knot_from_seifert(name, fibered, seifert)
    alexander = data["alexander"]
    if not isinstance(alexander, str):
        raise SpecFileError(f"{where}.alexander: expected a polynomial string")
    return knot_from_alexander(name, fibered, alexander)


def read_json(path: str, what: str = ""):
    """Decode a JSON file, raising :class:`SpecFileError` for every failure.

    ``what`` (e.g. ``"knot file "``) names the file in "cannot read"
    messages; a file that is not UTF-8 cannot be read, and nesting too
    deep for the decoder, or an integer with more digits than ``int()``
    converts, is invalid JSON.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecFileError(f"cannot read {what}{_shown(path)}: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SpecFileError(f"{path}: invalid JSON: {exc}") from None
    except ValueError:  # what int() raises past sys.int_max_str_digits
        raise SpecFileError(f"{path}: invalid JSON: an integer has more than {sys.get_int_max_str_digits()} "
                            "digits, Python's limit for converting text to int") from None


def load_knot_file(path: str) -> list[KnotRecord]:
    """Read a registration file (one object or a list of objects) into records."""
    data = read_json(path, "knot file ")
    entries = data if isinstance(data, list) else [data]
    return [
        record_from_dict(entry, f"{path}[{i}]" if isinstance(data, list) else path)
        for i, entry in enumerate(entries)
    ]
