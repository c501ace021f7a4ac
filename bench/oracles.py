"""Per-command output oracles.

Each oracle reads the bytes a command printed and checks them against
the command's generated model (``workloads.Command``).  The printed
polynomials are read by this module's own parser and compared by
arithmetic that shares nothing with the code under test:

- ``sw3``: exact evaluation with ``fractions.Fraction`` at seeded
  points, against the product of the factors the spec names
  (``Delta_K(x_m^2)`` per fiber sum, ``(x - 1/x)^(2g-2)`` for a surface
  base).  Fold-type oracles reuse this check on the manifold they fold.
- ``fold`` / ``obstruct`` / ``search``: the repository's brute-force
  fold (``fold_poly_bruteforce``, no floor division) of that verified
  polynomial, plus a unit-coefficient scan.  A search is checked on
  every entry for the unit scan, canonical exponents and coefficient
  sums per coset (:func:`coset_sums`), on one seeded class per command
  against the brute-force fold, for the entry count ((2B+1)^r - 1)/2,
  for the stated collider count, and against the frozen headline
  verdicts.
- ``bundle``: the binomial expansion of (t - 1/t)^(2g-2) reduced mod
  |n|; direct and closed form must agree up to one sign.
- ``knot register``: the family's closed-form polynomial.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from itertools import product

from swfold.cli import load_spec
from swfold.fold import EulerClass, QuotientLattice, fold_poly_bruteforce

from workloads import Command, Spec

_ENTRY = re.compile(r"chi = (.+) \| obstructed = (true|false) \| injective = (true|false) \| sw4 = (.+)\Z")
_SOURCE = re.compile(r"source = (.+) \[chi = (.+)\]\Z")
_REGISTERED = re.compile(r"registered (\S+)  fibered=(true|false)  alexander = (.+)\Z")
_NOTE_COLLIDERS = re.compile(r"(\d+) Euler classes \(up to sign\) can merge distinct terms; .*\[-(\d+), (\d+)\]\Z")
_NOTE_MISSES = re.compile(r"box \d+ misses (\d+) collision-capable classes")


class Mismatch(Exception):
    """An output that disagrees with its oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def parse_poly(text: str, names) -> dict[tuple[int, ...], int]:
    """Read a polynomial in the CLI's canonical text form into {exponent: coefficient}."""
    if text == "0":
        return {}
    index = {name: i for i, name in enumerate(names)}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    parts = re.split(r" ([+-]) ", text)
    signs = [sign] + [1 if s == "+" else -1 for s in parts[1::2]]
    out: dict[tuple[int, ...], int] = {}
    for s, body in zip(signs, parts[0::2]):
        coeff, exp = 1, [0] * len(names)
        for i, piece in enumerate(body.split("*")):
            if i == 0 and piece.isdigit():
                coeff = int(piece)
                continue
            name, caret, power = piece.partition("^")
            exp[index[name]] += int(power) if caret else 1
        key = tuple(exp)
        expect(key not in out and coeff != 0, f"non-canonical term {body!r}")
        out[key] = s * coeff
    expect(list(out) == sorted(out), "terms out of canonical order")
    return out


def parse_linear(text: str, names) -> tuple[int, ...]:
    """Read an Euler class printed as a linear form into its integer vector."""
    vector = [0] * len(names)
    for exp, coeff in parse_poly(text, names).items():
        expect(sorted(exp) == [0] * (len(names) - 1) + [1], f"not a linear form: {text!r}")
        vector[exp.index(1)] = coeff
    return tuple(vector)


def _bool(text: str) -> bool:
    expect(text in ("true", "false"), f"expected true/false, got {text!r}")
    return text == "true"


def _field(line: str, label: str) -> str:
    prefix = f"{label} = "
    expect(line.startswith(prefix), f"expected {prefix!r}..., got {line[:60]!r}")
    return line[len(prefix):]


def evaluate(poly: dict, point) -> Fraction:
    total = Fraction(0)
    for exp, coeff in poly.items():
        term = Fraction(coeff)
        for x, e in zip(point, exp):
            term *= x ** e
        total += term
    return total


def spec_value(spec: Spec, point) -> Fraction:
    """Product of the spec's factors at a point, from the knots' known polynomials."""
    names = spec.basis
    if spec.genus is None:
        value = Fraction(1)
    else:
        value = (point[0] - 1 / point[0]) ** (2 * spec.genus - 2)
    for knot, meridian in spec.sums:
        x2 = point[names.index(meridian)] ** 2
        value *= sum(Fraction(c) * x2 ** e for e, c in knot.delta)
    return value


def half_box(rank: int, box: int):
    """One class per antipodal pair with |coords| <= box, first nonzero coordinate positive."""
    return [v for v in product(range(-box, box + 1), repeat=rank) if next((c for c in v if c), 0) > 0]


def _normalized(chi):
    pivot = next(i for i, c in enumerate(chi) if c)
    return (tuple(-c for c in chi) if chi[pivot] < 0 else tuple(chi)), pivot


def coset_sums(poly: dict, chi) -> dict:
    """Sum coefficients over cosets of Z*chi, keyed by a complete coset invariant.

    Two exponents differ by a multiple of chi exactly when their pivot
    coordinates agree mod chi_pivot and every cross term
    e_i * chi_pivot - e_pivot * chi_i agrees.
    """
    chi, p = _normalized(chi)
    out: dict[tuple[int, ...], int] = {}
    for exp, coeff in poly.items():
        key = (exp[p] % chi[p],) + tuple(e * chi[p] - exp[p] * c for e, c in zip(exp, chi))
        out[key] = out.get(key, 0) + coeff
    return {key: value for key, value in out.items() if value}


def _units(poly: dict):
    return sorted(exp for exp, c in poly.items() if c in (1, -1))


class Oracle:
    """Checks command outputs; caches each verified manifold and brute-force fold."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"oracle:{seed}")
        self._manifolds = {}
        self._folds = {}

    def check(self, command: Command, output: bytes) -> str | None:
        """Return None when ``output`` is correct, else the reason it is not."""
        try:
            lines = output.decode("utf-8").splitlines()
            getattr(self, "_" + command.kind)(command, lines)
        except Mismatch as exc:
            return str(exc)
        except (ValueError, KeyError, IndexError) as exc:
            return f"unreadable output: {exc!r}"
        return None

    # -- shared checks ---------------------------------------------------

    def _check_sw3(self, spec: Spec, poly: dict) -> None:
        for _ in range(2):
            point = [Fraction(self.rng.randint(2, 9), self.rng.randint(10, 19)) for _ in spec.basis]
            expect(evaluate(poly, point) == spec_value(spec, point), f"sw3 of {spec.name} is wrong at {point}")

    def _manifold(self, spec: Spec):
        """The code's manifold for a spec, after checking its SW polynomial independently."""
        if spec.path not in self._manifolds:
            manifold = load_spec(spec.path)
            expect(manifold.name == spec.name, f"manifold name {manifold.name!r} != {spec.name!r}")
            self._check_sw3(spec, dict(manifold.sw3.terms()))
            self._manifolds[spec.path] = manifold
        return self._manifolds[spec.path]

    def _bruteforce(self, spec: Spec, chi) -> dict:
        key = (spec.path, tuple(chi))
        if key not in self._folds:
            manifold = self._manifold(spec)
            quotient = QuotientLattice(EulerClass(manifold.basis, tuple(chi)))
            self._folds[key] = dict(fold_poly_bruteforce(manifold.sw3, quotient).terms())
        return self._folds[key]

    def _check_folded(self, spec: Spec, chi, text: str) -> dict:
        """A printed fold result must equal the brute-force fold, on canonical exponents."""
        folded = parse_poly(text, spec.basis)
        chi, pivot = _normalized(chi)
        expect(all(0 <= e[pivot] < chi[pivot] for e in folded), f"non-canonical exponent folding by {chi}")
        expect(folded == self._bruteforce(spec, chi), f"fold of {spec.name} by {chi} differs from brute force")
        return folded

    # -- one method per command kind -------------------------------------

    def _sw3(self, command: Command, lines) -> None:
        spec = command.spec
        expect(_field(lines[0], "manifold") == spec.name, "manifold name")
        expect(_field(lines[1], "basis") == " ".join(spec.basis), "basis")
        expect(_field(lines[2], "b1") == str(spec.b1), "b1")
        expect(_bool(_field(lines[3], "fibered")) == spec.fibered, "fibered flag")
        self._check_sw3(spec, parse_poly(_field(lines[4], "sw3"), spec.basis))
        expect(len(lines) == 5, "trailing output")

    def _fold(self, command: Command, lines) -> None:
        spec, chi = command.spec, command.chi
        normal, pivot = _normalized(chi)
        expect(_field(lines[0], "manifold") == spec.name, "manifold name")
        expect(parse_linear(_field(lines[1], "chi"), spec.basis) == normal, "chi text")
        expect(lines[2] == f"pivot = {spec.basis[pivot]}, modulus = {normal[pivot]}", "pivot line")
        self._check_folded(spec, chi, _field(lines[3], "sw4"))
        expect(len(lines) == 4, "trailing output")

    def _obstruct(self, command: Command, lines) -> None:
        spec, chi = command.spec, command.chi
        normal, _ = _normalized(chi)
        source = _SOURCE.match(lines[0])
        expect(source is not None and source[1] == spec.name, "source line")
        expect(parse_linear(source[2], spec.basis) == normal, "chi text")
        folded = self._check_folded(spec, chi, _field(lines[1], "sw4"))
        units = _units(folded)
        expect(_bool(_field(lines[2], "obstructed")) == (not units), "verdict disagrees with the unit scan")
        printed = lines[3].removeprefix("unit classes: ")
        listed = [] if printed == "(none)" else [
            tuple(int(x) for x in group.split(", ")) for group in re.findall(r"\[([^\]]*)\]", printed)
        ]
        expect(listed == units, "unit classes differ from the unit scan")
        expect(_bool(_field(lines[4], "fibered orbit")) == spec.fibered, "fibered orbit flag")
        expect(len(lines) == 5, "trailing output")

    def _search(self, command: Command, lines) -> None:
        spec, box = command.spec, command.box
        manifold = self._manifold(spec)
        sw3 = dict(manifold.sw3.terms())
        classes = half_box(len(spec.basis), box)
        count = len(classes)
        expect(count == ((2 * box + 1) ** len(spec.basis) - 1) // 2, "half-box size")
        expect(lines[0] == f"manifold = {spec.name}, box = {box}", "search header")
        entries = []
        for chi, line in zip(classes, lines[1:1 + count]):
            match = _ENTRY.match(line)
            expect(match is not None, f"entry line {line[:60]!r}")
            expect(parse_linear(match[1], spec.basis) == chi, f"class order: {match[1]} at {chi}")
            folded = parse_poly(match[4], spec.basis)
            pivot = next(i for i, c in enumerate(chi) if c)
            expect(all(0 <= e[pivot] < chi[pivot] for e in folded), f"non-canonical exponent at {chi}")
            expect(coset_sums(folded, chi) == coset_sums(sw3, chi), f"coset sums at {chi}")
            obstructed = _bool(match[2])
            expect(obstructed == (not _units(folded)), f"verdict at {chi} disagrees with the unit scan")
            entries.append((chi, obstructed, _bool(match[3]), folded))
        expect(len(entries) == count, "missing entries")
        all_obstructed = all(e[1] for e in entries)
        expect(lines[1 + count] == f"all_obstructed = {'true' if all_obstructed else 'false'} ({count} entries)",
               "summary line")
        for chi, _, injective, folded in self.rng.sample(entries, 1):
            expect(folded == self._bruteforce(spec, chi), f"entry {chi} differs from brute force")
            expect(injective == (len(folded) == len(manifold.sw3)), f"injective flag at {chi}")
        self._check_note(lines[2 + count:], sum(1 for e in entries if not e[2]), box)
        by_chi = {e[0]: e for e in entries}
        for key, value in command.frozen:
            if key == "all_obstructed":
                expect(all_obstructed == value, f"headline verdict all_obstructed != {value}")
            else:
                _, obstructed, _, folded = by_chi[key]
                expect((obstructed, len(folded)) == value, f"headline verdict at {key} != {value}")

    @staticmethod
    def _check_note(note, non_injective: int, box: int) -> None:
        """The stated collider count must match the non-injective entries in the box."""
        match = next(filter(None, map(_NOTE_COLLIDERS.match, note)), None)
        expect(match is not None, "stabilization note lacks the collider count")
        colliders, largest = int(match[1]), int(match[2])
        missed = next(filter(None, map(_NOTE_MISSES.match, note)), None)
        expect((missed is None) == (box >= largest), "note coverage line")
        inside = colliders - (int(missed[1]) if missed else 0)
        expect(inside == non_injective, f"note counts {inside} colliders in the box, entries show {non_injective}")

    def _bundle(self, command: Command, lines) -> None:
        genus, n = command.bundle
        expect(lines[0] == f"genus = {genus}, euler = {n}", "bundle header")
        degree = 2 * genus - 2
        direct_expected: dict[tuple[int], int] = {}
        for j in range(degree + 1):  # (t - 1/t)^d = sum_j (-1)^j C(d, j) t^(d - 2j)
            key = ((degree - 2 * j) % abs(n),)
            direct_expected[key] = direct_expected.get(key, 0) + (-1) ** j * math.comb(degree, j)
        direct_expected = {k: v for k, v in sorted(direct_expected.items()) if v}
        direct = parse_poly(_field(lines[1], "direct"), ("t",))
        closed = parse_poly(_field(lines[2], "closed"), ("t",))
        expect(direct == direct_expected, f"direct bundle polynomial g={genus} n={n}")
        expect(closed in (direct, {k: -v for k, v in direct.items()}), "closed form differs from direct fold")
        expect(lines[3:] == ["MATCH (up to sign)"], "match line")

    def _register(self, command: Command, lines) -> None:
        knot = command.knot
        expect(len(lines) == 1, "one registered knot")
        match = _REGISTERED.match(lines[0])
        expect(match is not None, f"register line {lines[0][:60]!r}")
        expect(match[1] == knot.name and _bool(match[2]) == knot.fibered, "knot name / fibered flag")
        delta = {e: c for (e,), c in parse_poly(match[3], ("t",)).items()}
        expect(delta == dict(knot.delta), f"Alexander polynomial of {knot.name} differs from its closed form")
