"""Symmetrized Alexander polynomials from Seifert matrices, and the knot table.

A knot enters the calculator either through a Seifert matrix V, from
which the polynomial det(tV - V^T) is computed exactly and then centered
and sign-normalized so that the result Delta satisfies
Delta(1/t) = Delta(t) and Delta(1) = +1, or directly as a polynomial that
passes :func:`validate_alexander`.

The built-in table :data:`BUILTIN_KNOTS` ships the three knots the
bundled demos are built on: the trefoil 3_1 and the figure-eight 4_1
(both fibered) and the nonfibered twist knot 5_2.  Tables are immutable
values; registering knots yields a new table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import (
    KnotLookupError,
    NotSeifertError,
    SpecFileError,
    StructuralError,
)
from .laurent import Basis, LaurentPoly, from_text, to_text

#: Every knot polynomial lives over this one-variable basis.
KNOT_BASIS = Basis(("t",))


@dataclass(frozen=True)
class SeifertMatrix:
    """Square integer matrix presenting a Seifert surface pairing.

    Size 0 encodes the unknot.  Whether the matrix actually presents a
    knot (det(V - V^T) = +-1) is checked when the polynomial is derived.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        for row in rows:
            if len(row) != len(rows):
                raise StructuralError(
                    f"Seifert matrix must be square, got row of length {len(row)} in size {len(rows)}"
                )
            for value in row:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise StructuralError(f"Seifert matrix entries must be integers, got {value!r}")

    @property
    def size(self) -> int:
        return len(self.entries)


def _poly_matrix_det(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Exact determinant of a small matrix of one-variable polynomials.

    Laplace expansion along rows, memoized on the surviving column set,
    so the cost is O(2^n * n) polynomial multiplies.
    """
    n = len(rows)
    one = LaurentPoly.one(KNOT_BASIS)
    if n == 0:
        return one

    @lru_cache(maxsize=None)
    def minor(row: int, columns: tuple[int, ...]) -> LaurentPoly:
        if not columns:
            return one
        total = LaurentPoly.zero(KNOT_BASIS)
        for j, col in enumerate(columns):
            rest = columns[:j] + columns[j + 1:]
            term = rows[row][col] * minor(row + 1, rest)
            total = total + term if j % 2 == 0 else total - term
        return total

    return minor(0, tuple(range(n)))


def alexander_from_seifert(matrix) -> LaurentPoly:
    """Symmetrized, sign-normalized Alexander polynomial of a Seifert matrix.

    Computes det(tV - V^T), recenters exponents so the result is fixed by
    t -> 1/t, and scales by -1 if needed so the value at t = 1 is +1.
    Raises :class:`NotSeifertError` when det(V - V^T) is not +-1.
    """
    if not isinstance(matrix, SeifertMatrix):
        matrix = SeifertMatrix(tuple(tuple(row) for row in matrix))
    n = matrix.size
    if n == 0:
        return LaurentPoly.one(KNOT_BASIS)

    entries = matrix.entries
    rows = [
        [
            LaurentPoly(KNOT_BASIS, {(1,): entries[i][j], (0,): -entries[j][i]})
            for j in range(n)
        ]
        for i in range(n)
    ]
    det = _poly_matrix_det(rows)

    at_one = det.eval_ones()  # det(tV - V^T) at t=1 is det(V - V^T)
    if at_one not in (1, -1):
        raise NotSeifertError(
            f"not a knot Seifert matrix: det(V - V^T) = {at_one}, expected +-1"
        )

    exponents = [e[0] for e in det.support()]
    lo, hi = min(exponents), max(exponents)
    if (lo + hi) % 2 != 0:
        raise NotSeifertError(
            f"not a knot Seifert matrix: determinant has odd degree span {lo}..{hi}"
        )
    shift = (lo + hi) // 2
    centered = LaurentPoly(KNOT_BASIS, {(e - shift,): c for (e,), c in det.terms()})
    if centered.conjugate() != centered:
        raise NotSeifertError("not a knot Seifert matrix: centered determinant is asymmetric")
    return centered if at_one == 1 else -centered


@dataclass(frozen=True)
class AlexanderChecklist:
    """Report from :func:`validate_alexander`; both checks must hold to register."""

    symmetric: bool
    value_at_one: int

    @property
    def unit_at_one(self) -> bool:
        return self.value_at_one in (1, -1)

    @property
    def passes(self) -> bool:
        return self.symmetric and self.unit_at_one


def validate_alexander(poly: LaurentPoly) -> AlexanderChecklist:
    """Check the two gate conditions for a would-be Alexander polynomial.

    The polynomial must be fixed by t -> 1/t and evaluate to +-1 at t = 1.
    Report-style: never raises on a failing polynomial.
    """
    if poly.basis.rank != 1:
        raise StructuralError(
            f"Alexander polynomials are one-variable; got rank {poly.basis.rank}"
        )
    return AlexanderChecklist(
        symmetric=poly.conjugate() == poly,
        value_at_one=poly.eval_ones(),
    )


@dataclass(frozen=True)
class KnotRecord:
    """Named knot: optional Seifert matrix, its polynomial, fiberedness flag."""

    name: str
    seifert: SeifertMatrix | None
    alexander: LaurentPoly
    fibered: bool

    def to_row(self) -> dict:
        """JSON-ready row, as the command line lists and shows knots."""
        return {
            "name": self.name,
            "fibered": self.fibered,
            "alexander": to_text(self.alexander),
            "seifert": [list(r) for r in self.seifert.entries] if self.seifert is not None else None,
        }


def knot_from_seifert(name: str, fibered: bool, entries) -> KnotRecord:
    matrix = entries if isinstance(entries, SeifertMatrix) else SeifertMatrix(
        tuple(tuple(row) for row in entries)
    )
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
    check = validate_alexander(poly)
    if not check.passes:
        problems = []
        if not check.symmetric:
            problems.append("not symmetric under t -> 1/t")
        if not check.unit_at_one:
            problems.append(f"value at t=1 is {check.value_at_one}, expected +-1")
        raise StructuralError(f"invalid Alexander polynomial for {name!r}: " + "; ".join(problems))
    if check.value_at_one == -1:
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
            if existing != record:
                raise StructuralError(f"knot {record.name!r} is already registered with different data")

    def with_records(self, records: Iterable[KnotRecord]) -> KnotTable:
        return KnotTable((*self._records.values(), *records))

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
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise SpecFileError(f"{where}.name: expected a nonempty string")
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


def load_knot_file(path: str) -> list[KnotRecord]:
    """Read a registration file (one object or a list of objects) into records."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise SpecFileError(f"cannot read knot file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path}: invalid JSON: {exc}") from None
    entries = data if isinstance(data, list) else [data]
    return [
        record_from_dict(entry, f"{path}[{i}]" if isinstance(data, list) else path)
        for i, entry in enumerate(entries)
    ]
