"""Seeded command cycles for the three benchmark workloads.

A workload is a fixed list of ``swfold`` command lines (one *cycle*)
plus the spec and knot files they name.  The seed picks knots,
meridians, Euler classes, Euler numbers and matrix scrambles; it never
changes how many commands of each kind a cycle holds or the sizes that
set their cost (support sizes, box sizes, Seifert sizes, genus and
|Euler number| strata), so runs with different seeds measure the same
amount of work.

Every command carries the model it was generated from (:class:`Spec`,
:class:`Knot`, Euler vector, box, bundle parameters).  The oracles in
``oracles.py`` derive their expectations from that model alone.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

T3_NAMES = ("m1", "m2", "m3")

#: Twist parameters for generated twist knots (|k| = 1 would duplicate 3_1 / 4_1).
TWIST_KS = (-6, -5, -4, -3, -2, 2, 3, 4, 5, 6, 7)


@dataclass(frozen=True)
class Knot:
    """A knot as the oracles know it: centered Alexander polynomial and origin.

    ``delta`` holds sorted ``(exponent, coefficient)`` pairs.  A knot with
    a Seifert matrix is registered through ``knot register``; one without
    (and not built in) is declared inline in the spec's ``knots`` list.
    """

    name: str
    delta: tuple[tuple[int, int], ...]
    fibered: bool
    seifert: tuple[tuple[int, ...], ...] | None = None
    builtin: bool = False

    @property
    def inline(self) -> bool:
        return self.seifert is None and not self.builtin


def _knot(name, delta: dict, seifert=None, builtin=False, fibered=None) -> Knot:
    pairs = tuple(sorted((e, c) for e, c in delta.items() if c))
    if fibered is None:
        fibered = abs(pairs[-1][1]) == 1  # monic Alexander polynomial, true for these families
    return Knot(name, pairs, fibered, seifert, builtin)


def twist_delta(k: int) -> dict[int, int]:
    """Alexander polynomial of the twist knot with Seifert matrix [[1, 1], [0, k]]."""
    return {1: k, 0: -(2 * k - 1), -1: k}


BUILTINS = {
    "3_1": _knot("3_1", twist_delta(1), builtin=True, fibered=True),
    "4_1": _knot("4_1", twist_delta(-1), builtin=True, fibered=True),
    "5_2": _knot("5_2", twist_delta(2), builtin=True, fibered=False),
}


def twist_knot(k: int) -> Knot:
    return _knot(f"tw{k}" if k > 0 else f"twm{-k}", twist_delta(k))


@dataclass(frozen=True)
class Spec:
    """A manifold spec file and the construction it describes."""

    path: str
    genus: int | None  # None: the three-torus base
    sums: tuple[tuple[Knot, str], ...]

    @property
    def basis(self) -> tuple[str, ...]:
        return T3_NAMES if self.genus is None else ("t",)

    @property
    def b1(self) -> int:
        return 3 if self.genus is None else 2 * self.genus + 1

    @property
    def name(self) -> str:
        base = "T3" if self.genus is None else f"S{self.genus}xS1"
        return base + "".join(f"+{knot.name}@{m}" for knot, m in self.sums)

    @property
    def fibered(self) -> bool:
        return all(knot.fibered for knot, _ in self.sums)


@dataclass(frozen=True)
class Command:
    """One command line of a cycle with the model its oracle checks against."""

    argv: tuple[str, ...]
    spec: Spec | None = None
    chi: tuple[int, ...] | None = None
    box: int | None = None
    knot: Knot | None = None
    bundle: tuple[int, int] | None = None  # (genus, Euler number)
    #: Headline verdicts of the demo specs: ("all_obstructed", bool) or (chi, (obstructed, terms)).
    frozen: tuple[tuple[object, object], ...] = ()

    @property
    def kind(self) -> str:
        return "register" if self.argv[0] == "knot" else self.argv[0]


# -- text forms in the CLI grammar --------------------------------------


def linear_text(vector, names) -> str:
    """Render an integer combination of variables, e.g. ``2*m1 - m3``."""
    out = ""
    for c, name in zip(vector, names):
        if not c:
            continue
        body = name if abs(c) == 1 else f"{abs(c)}*{name}"
        out += ("-" if c < 0 else "") + body if not out else (" - " if c < 0 else " + ") + body
    return out or "0"


def delta_text(delta) -> str:
    """Render a one-variable polynomial in t, e.g. ``3*t - 5 + 3*t^-1``."""
    out = ""
    for e, c in sorted(delta, reverse=True):
        var = "" if e == 0 else ("t" if e == 1 else f"t^{e}")
        body = str(abs(c)) if not var else (var if abs(c) == 1 else f"{abs(c)}*{var}")
        out += ("-" if c < 0 else "") + body if not out else (" - " if c < 0 else " + ") + body
    return out


# -- Seifert matrices ---------------------------------------------------


def int_det(matrix) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in matrix]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict[int, int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def torus_seifert(n: int):
    """Bidiagonal matrix (-1 diagonal, +1 superdiagonal) of T(2, n+1) and its polynomial.

    The polynomial is t^g - t^(g-1) + ... + t^-g with g = n/2.
    """
    g = n // 2
    matrix = [[-1 if i == j else (1 if j == i + 1 else 0) for j in range(n)] for i in range(n)]
    return matrix, {i: (-1) ** (g - i) for i in range(-g, g + 1)}


_TREFOIL_BLOCK = ((-1, 1), (0, -1))


def block_seifert(rng: random.Random, n: int):
    """Block sum of n/2 trefoil and twist blocks; the polynomial is the product."""
    matrix = [[0] * n for _ in range(n)]
    delta = {0: 1}
    for b in range(n // 2):
        if rng.random() < 0.3:
            block, factor = _TREFOIL_BLOCK, twist_delta(1)
        else:
            k = rng.choice((-4, -3, -2, -1, 2, 3, 4))
            block, factor = ((1, 1), (0, k)), twist_delta(k)
        for i in range(2):
            for j in range(2):
                matrix[2 * b + i][2 * b + j] = block[i][j]
        delta = _poly_mul(delta, factor)
    return matrix, delta


def scramble(rng: random.Random, matrix):
    """Congruence P V P^T by a random unimodular P = L U (same polynomial, dense)."""
    n = len(matrix)
    lower = [[1 if i == j else (rng.choice((-1, 1)) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.choice((-1, 1)) if j > i else 0) for j in range(n)] for i in range(n)]
    p = _matmul(lower, upper)
    return _matmul(_matmul(p, matrix), [list(col) for col in zip(*p)])


def check_seifert(matrix) -> None:
    """Reject a generated matrix that does not present a knot."""
    skew = [[a - b for a, b in zip(row, col)] for row, col in zip(matrix, zip(*matrix))]
    if int_det(skew) not in (1, -1):
        raise ValueError(f"generated matrix has det(V - V^T) = {int_det(skew)}")


# -- generators ---------------------------------------------------------


class _Writer:
    """Writes spec and knot files into the work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def spec(self, stem: str, genus, sums) -> Spec:
        data = {
            "base": "t3" if genus is None else {"surface_x_s1": genus},
            "sums": [{"knot": knot.name, "meridian": m} for knot, m in sums],
        }
        inline = {knot.name: knot for knot, _ in sums if knot.inline}
        if inline:
            data["knots"] = [
                {"name": k.name, "fibered": k.fibered, "alexander": delta_text(k.delta)}
                for k in inline.values()
            ]
        path = self.workdir / f"{stem}.json"
        if path.exists():
            raise ValueError(f"spec {stem} generated twice")
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
        return Spec(str(path), genus, tuple(sums))

    def knot(self, knot: Knot) -> str:
        path = self.workdir / f"{knot.name}.json"
        data = {"name": knot.name, "fibered": knot.fibered, "seifert": [list(r) for r in knot.seifert]}
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")
        return str(path)


def _pick_knot(rng: random.Random) -> Knot:
    if rng.random() < 0.5:
        return BUILTINS[rng.choice(sorted(BUILTINS))]
    return twist_knot(rng.choice(TWIST_KS))


def _chi(rng: random.Random, rank: int) -> tuple[int, ...]:
    while True:
        vector = tuple(rng.randint(-3, 3) for _ in range(rank))
        if any(vector):
            return vector


def _chi_arg(vector, names) -> str:
    # "=" keeps argparse from reading a leading minus as an option
    return f"--chi={linear_text(vector, names)}"


def demo_spec(path: Path) -> Spec:
    """Model of a shipped demo spec (three-torus base, built-in knots only)."""
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("base") != "t3" or data.get("knots"):
        raise ValueError(f"{path}: not a three-torus spec over built-in knots")
    sums = tuple((BUILTINS[s["knot"]], s["meridian"]) for s in data["sums"])
    return Spec(str(path), None, sums)


#: Fiber-sum counts of the seeded specs searched at each box in a box-sweep
#: cycle.  The ten 3-sum specs at box 4 put p90 in the middle of a group of
#: like commands rather than on the edge between two unlike ones.
BOX_SUMS = {
    2: (1, 2, 3) * 21 + (3,),
    3: (1, 2, 3) * 6,
    4: (3,) * 10 + (1, 2) * 2,
    5: (1, 2, 3),
    6: (1, 2, 3),
}


def box_sweep(rng: random.Random, out: _Writer, demos: Path) -> list[Command]:
    """Both headline demo pairs at box 8, then 1-3 sums on distinct meridians at boxes 2-6."""
    commands = [
        Command(("search", str(demos / "52-pair.json"), "--box", "8"), demo_spec(demos / "52-pair.json"),
                box=8, frozen=(("all_obstructed", True),)),
        Command(("search", str(demos / "fig8-pair.json"), "--box", "8"), demo_spec(demos / "fig8-pair.json"),
                box=8, frozen=(("all_obstructed", False), ((4, 0, 0), (True, 6)))),
    ]
    for box, counts in BOX_SUMS.items():
        for i, count in enumerate(counts):
            meridians = rng.sample(T3_NAMES, count)
            spec = out.spec(f"box{box}-{i}-sums{count}", None, [(_pick_knot(rng), m) for m in meridians])
            commands.append(Command(("search", spec.path, "--box", str(box)), spec, box=box))
    return commands


#: Fiber sums per three-torus tower (two rounds) and (genus, sums) per surface tower.
T3_TOWERS = tuple(range(1, 10)) + tuple(range(1, 7))
SURFACE_TOWERS = tuple((g, k) for g in (2, 3, 4) for k in (1, 2, 3))

#: (genus, |Euler number|) strata of the bundle commands; the seed moves n by
#: an even amount (keeping its parity, which sets the closed form's block) and its sign.
BUNDLE_STRATA = (
    (40, 20000), (40, 9999), (20, 10000), (10, 4001), (5, 1000),
    (30, 6000), (15, 2001), (8, 300), (3, 31), (2, 8),
)


#: Eight bundles of one stratum that cost more than every command but the
#: nine costliest, so that p90 falls inside a group of like commands.
P90_BUNDLES = ((20, 10000),) * 8


def fiber_tower(rng: random.Random, out: _Writer) -> list[Command]:
    """Towers of 1-9 sums over T^3, sums along t over surfaces, and circle bundles."""
    commands = []
    for i, k in enumerate(T3_TOWERS):
        offset = rng.randrange(3)
        sums = [(_pick_knot(rng), T3_NAMES[(offset + j) % 3]) for j in range(k)]
        commands += _tower_commands(rng, out.spec(f"tower{i}-t3-k{k}", None, sums))
    for genus, k in SURFACE_TOWERS:
        sums = [(_pick_knot(rng), "t") for _ in range(k)]
        commands += _tower_commands(rng, out.spec(f"tower-s{genus}-k{k}", genus, sums))
    for genus, magnitude in BUNDLE_STRATA + P90_BUNDLES:
        n = (magnitude - 2 * rng.randrange(min(25, magnitude // 4))) * rng.choice((1, -1))
        argv = ("bundle", "--genus", str(genus), f"--euler={n}", "--method", "both")
        commands.append(Command(argv, bundle=(genus, n)))
    return commands


def _tower_commands(rng: random.Random, spec: Spec) -> list[Command]:
    chi = _chi(rng, len(spec.basis)) if spec.genus is None else (rng.choice((-1, 1)) * rng.randint(2, 9),)
    return [
        Command(("sw3", spec.path), spec),
        Command(("fold", spec.path, _chi_arg(chi, spec.basis)), spec, chi=chi),
        Command(("obstruct", spec.path, _chi_arg(chi, spec.basis)), spec, chi=chi),
        Command(("search", spec.path, "--box", "2"), spec, box=2),
    ]


#: Seifert sizes in a cycle: the costly ones once, the cheap ones three
#: times, and size 8 a fourth time so that p90 falls inside its group.
SEIFERT_SIZES = (2, 4, 6, 8, 10, 12, 2, 4, 6, 8, 2, 4, 6, 8, 8)


def seifert_growth(rng: random.Random, out: _Writer) -> list[Command]:
    """Register T(2, n+1) and block-sum knots of size 2-12, sparse and scrambled, then obstruct."""
    commands = []
    for i, n in enumerate(SEIFERT_SIZES):
        for family in ("torus", "blocks"):
            matrix, delta = torus_seifert(n) if family == "torus" else block_seifert(rng, n)
            for dense in (False, True):
                entries = scramble(rng, matrix) if dense else matrix
                check_seifert(entries)
                seifert = tuple(tuple(row) for row in entries)
                tag = hashlib.sha256(repr(seifert).encode()).hexdigest()[:8]
                knot = _knot(f"seif-n{n}-{'dense' if dense else 'sparse'}-{tag}", delta, seifert)
                commands.append(Command(("knot", "register", out.knot(knot)), knot=knot))
                first, second = rng.sample(T3_NAMES, 2)
                sums = [(knot, first), (_pick_knot(rng), second)]
                spec = out.spec(f"obstruct{i}-{family}-{'dense' if dense else 'sparse'}", None, sums)
                chi = _chi(rng, 3)
                commands.append(Command(("obstruct", spec.path, _chi_arg(chi, T3_NAMES)), spec, chi=chi))
    return commands


WORKLOADS = ("box-sweep", "fiber-tower", "seifert-growth")


def generate(workload: str, seed: int, workdir: Path, demos: Path) -> list[Command]:
    """Write the workload's files into ``workdir`` and return its command cycle."""
    rng = random.Random(f"{workload}:{seed}")
    out = _Writer(workdir)
    if workload == "box-sweep":
        return box_sweep(rng, out, demos)
    if workload == "fiber-tower":
        return fiber_tower(rng, out)
    if workload == "seifert-growth":
        return seifert_growth(rng, out)
    raise ValueError(f"unknown workload {workload!r}")
