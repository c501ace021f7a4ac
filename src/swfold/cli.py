"""Command line front end.

Subcommands mirror the calculator's workflow: ``knot`` (table access and
registration), ``sw3`` (build a 3-manifold from a spec file and print
its SW polynomial), ``fold`` (coset-fold by an Euler class), ``bundle``
(circle bundles over surfaces, direct fold vs closed form), ``obstruct``
(unit-coefficient verdict for one Euler class) and ``search``
(exhaustive box sweep).  Output is byte-deterministic; ``--json`` emits
a payload with sorted keys that validates against the schema files
shipped in ``swfold/schemas``.  Each handler renders each polynomial at
most once, and ``run`` builds the header lines and the payload only when
they are printed.

Exit codes: 0 success, 1 domain/hypothesis error, 2 parse/structural
error (including usage errors, which argparse reports itself).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable

from .alexander import BUILTIN_KNOTS, KnotTable, _listed_record, _unknown_field, load_knot_file, read_json
from .errors import DomainError, SpecFileError, StructuralError, SwfoldError, UnknownVariableError, _at
from .fold import (_printable_bundle, _units, circle_bundle_sw_closed_form, circle_bundle_sw_direct, equal_up_to_sign,
                   fold)
from .laurent import _digits, _joined, _Record, _set
from .manifolds import ThreeManifold, fiber_sum, surface_times_circle, three_torus
from .obstruction import _sweep

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "schemas")

ENV_KNOT_TABLE = "SWFOLD_KNOT_TABLE"

#: Knots visible to every command run in this process; ``knot register``
#: is the only command that rebinds it.
session_knots: KnotTable = BUILTIN_KNOTS


class OutputRecord(_Record):
    """What one invocation prints: its text, or (for ``--json``) its payload."""

    __slots__ = ("text", "payload")
    status = 0  # not a field (a returned record succeeded, a failing command raises); bench/run.py reads it

    def __init__(self, text: str = "", payload: dict | None = None):
        _set(self, "text", text)
        _set(self, "payload", payload)


def emit(record: OutputRecord) -> bytes:
    """Deterministic bytes for standard output (sorted JSON keys, canonical text)."""
    if record.payload is not None:
        out = json.dumps(record.payload, sort_keys=True, indent=2) + "\n"
    else:
        out = record.text
        if out and not out.endswith("\n"):
            out += "\n"
    return out.encode("utf-8")


# -- manifold spec files ------------------------------------------------


def build_manifold(data: dict, table: KnotTable, where: str = "spec") -> ThreeManifold:
    """Construct a manifold from a parsed spec object over the knots of ``table``.

    Knots the spec declares inline under ``knots`` are added for this
    spec only; ``table`` itself is left as it was.
    """
    if not isinstance(data, dict):
        raise SpecFileError(f"{where}: expected a JSON object")
    allowed = {"base", "sums", "knots"}
    for key in data:
        if key not in allowed:
            raise _unknown_field(where, key)
    if "base" not in data:
        raise SpecFileError(f"{where}.base: required field missing")

    knots = data.get("knots", [])
    if not isinstance(knots, list):
        raise SpecFileError(f"{where}.knots: expected a list")
    for i, entry in enumerate(knots):  # one at a time, so the first bad entry in spec order is the one reported
        path = f"{where}.knots[{i}]"
        record = _listed_record(entry, path)
        try:
            table = table.with_records((record,))
        except StructuralError as exc:  # a clash with a knot in the table
            raise _at(path, exc) from None

    base = data["base"]
    if base == "t3":
        manifold = three_torus()
    elif isinstance(base, dict) and set(base) == {"surface_x_s1"}:
        genus = base["surface_x_s1"]
        if not isinstance(genus, int) or isinstance(genus, bool):
            raise SpecFileError(f"{where}.base.surface_x_s1: expected an integer genus")
        manifold = surface_times_circle(genus)
    else:
        raise SpecFileError(f'{where}.base: expected "t3" or {{"surface_x_s1": genus}}')

    sums = data.get("sums", [])
    if not isinstance(sums, list):
        raise SpecFileError(f"{where}.sums: expected a list")

    def pairs():  # read lazily, so the first bad entry in spec order is the one reported
        for i, entry in enumerate(sums):
            if not isinstance(entry, dict) or set(entry) != {"knot", "meridian"}:
                raise SpecFileError(f"{where}.sums[{i}]: expected {{\"knot\": name, \"meridian\": variable}}")
            if not isinstance(entry["knot"], str) or not isinstance(entry["meridian"], str):
                raise SpecFileError(f"{where}.sums[{i}]: knot and meridian must be strings")
            try:
                manifold.basis.index(entry["meridian"])
            except UnknownVariableError as exc:
                raise _at(f"{where}.sums[{i}].meridian", exc) from None
            yield table.lookup(entry["knot"]), entry["meridian"]
    return fiber_sum(manifold, pairs())


def command_knots() -> KnotTable:
    """The knots a command sees: the session's, plus those of the ``SWFOLD_KNOT_TABLE`` file if set."""
    extra_table = os.environ.get(ENV_KNOT_TABLE)
    return session_knots.with_records(load_knot_file(extra_table)) if extra_table else session_knots


def load_spec(path: str) -> ThreeManifold:
    """Read a manifold spec file and build it over the knots a command sees."""
    table = command_knots()  # read first: a bad knot file is reported before a bad spec
    return build_manifold(read_json(path), table, where=path)


# -- subcommand handlers ------------------------------------------------

#: What a handler returns: (header, body, payload).  ``run`` calls the header
#: and payload builders only when that output is printed.
_Output = tuple[Callable[[], list[str]], list[str], Callable[[], dict]]


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _knot_row(row: dict) -> str:
    """The one text line for a knot row, in ``knot list`` and ``knot register``."""
    return f"{row['name']}  fibered={_bool(row['fibered'])}  alexander = {row['alexander']}"


def _cmd_knot(args) -> _Output:
    global session_knots
    table = command_knots()
    if args.action == "list":
        rows = [table.lookup(name).to_row() for name in table.names()]
        return list, list(map(_knot_row, rows)), lambda: {"command": "knot-list", "knots": rows}
    if args.action == "show":
        row = table.lookup(args.name).to_row()
        body = [
            f"name = {row['name']}",
            f"fibered = {_bool(row['fibered'])}",
            f"alexander = {row['alexander']}",
            f"seifert = {row['seifert'] if row['seifert'] is not None else '(registered by polynomial)'}",
        ]
        return list, body, lambda: {"command": "knot-show", "knot": row}
    # register: reject a clash with any knot this command sees, the environment's
    # included, then keep the records for later commands
    records = load_knot_file(args.file)
    table.with_records(records)
    session_knots = session_knots.with_records(records)
    rows = [r.to_row() for r in records]
    return list, [f"registered {_knot_row(r)}" for r in rows], lambda: {"command": "knot-register", "registered": rows}


def _cmd_sw3(args) -> _Output:
    manifold = load_spec(args.spec)
    sw3 = str(manifold.sw3)
    header = lambda: [
        f"manifold = {manifold.name}",
        f"basis = {' '.join(manifold.basis.names)}",
        f"b1 = {manifold.b1}",
        f"fibered = {_bool(manifold.fibered)}",
    ]
    return header, [f"sw3 = {sw3}"], lambda: {
        "command": "sw3",
        "manifold": manifold.name,
        "basis": list(manifold.basis.names),
        "b1": manifold.b1,
        "fibered": manifold.fibered,
        "provenance": list(manifold.provenance),
        "sw3": sw3,
    }


def _cmd_fold(args) -> _Output:
    manifold = load_spec(args.spec)
    folded = fold(manifold, args.chi)
    pivot_name = modulus = None
    if not folded.product_case:
        pivot = folded.chi.pivot
        pivot_name, modulus = manifold.basis.names[pivot], folded.chi.chi[pivot]
    sw4 = folded.digest
    # chi_text before the modulus: it refuses with a DomainError a chi whose digits str() cannot print
    header = lambda: [f"manifold = {manifold.name}", f"chi = {folded.chi_text}",
                      "product case: zero Euler class, 4-manifold invariants equal the unfolded polynomial"
                      if folded.product_case else f"pivot = {pivot_name}, modulus = {modulus}"]
    return header, [f"sw4 = {sw4}"], lambda: {
        "command": "fold",
        "manifold": manifold.name,
        "chi": folded.chi_text,
        "product_case": folded.product_case,
        "pivot": pivot_name,
        "modulus": modulus,
        "sw4": sw4,
        "coefficient_sum": folded.poly.eval_ones(),
    }


def _cmd_bundle(args) -> _Output:
    if args.euler or args.method == "direct":  # the closed form refuses n = 0 before any work
        _printable_bundle(args.genus, args.euler)
    # the closed form first, each digest right after its route: it refuses n = 0 before the direct route
    # folds the row, and as it is +-(the direct fold), a digest that cannot print fails alike on either
    closed = circle_bundle_sw_closed_form(args.genus, args.euler) if args.method != "direct" else None
    closed_text = closed and closed.digest
    direct = circle_bundle_sw_direct(args.genus, args.euler) if args.method != "closed" else None
    direct_text = direct and direct.digest
    match = equal_up_to_sign(direct, closed) if args.method == "both" else None
    body = ([f"{name} = {text}" for name, text in (("direct", direct_text), ("closed", closed_text)) if text]
            + ["MATCH (up to sign)" if match else "MISMATCH"] * (match is not None))
    return lambda: [f"genus = {args.genus}, euler = {args.euler}"], body, lambda: {
        "command": "bundle",
        "genus": args.genus,
        "euler": args.euler,
        "method": args.method,
        "direct": direct_text,
        "closed": closed_text,
        "match": match,
    }


def _cmd_obstruct(args) -> _Output:
    manifold = load_spec(args.spec)
    folded = fold(manifold, args.chi)
    product_case, chi = folded.product_case, folded.chi_text
    source = f"{manifold.name} [chi = {chi}{' (product case)' if product_case else ''}]"
    units = " ".join("[" + ", ".join(map(_digits, u)) + "]" for u in folded.unit_classes) or "(none)"
    body = [
        f"obstructed = {_bool(folded.obstructed)}",
        f"unit classes: {units}",
        f"fibered orbit = {_bool(manifold.fibered)}",
    ]
    return lambda: [f"source = {source}", f"sw4 = {folded.digest}"], body, lambda: {
        "command": "obstruct",
        "manifold": manifold.name,
        "source": source,
        "chi": chi,
        "product_case": product_case,
        "sw4": folded.digest,
        "obstructed": folded.obstructed,
        "unit_classes": [list(u) for u in folded.unit_classes],
        "fibered_orbit": manifold.fibered,
    }


def _cmd_search(args) -> _Output:
    """The sweep's rows as printed: ``all_obstructed``, the count and each ``obstructed`` are the sweep's
    verdicts, and ``injective`` is a row's key count against sw3's term count.  The text header joins
    each row's memoized ``pieces``, once per list: the sweep gives every class whose fold leaves sw3 as
    it is one shared list, so sw3's digest is rendered once per search; ``--json`` reads a row's
    ``terms`` only for the unit classes of a row that is not obstructed; ``--quiet`` builds no piece and
    no class text."""
    manifold = load_spec(args.spec)
    note, rows, terms, pieces, texts = _sweep(manifold, args.box)
    n = len(manifold.sw3)
    all_obstructed = all(obstructed for _, _, obstructed in rows)
    body = [f"all_obstructed = {_bool(all_obstructed)} ({len(rows)} entries)"] + note.splitlines()

    def header():
        lists = [keys for _, keys, _ in rows]
        # sw3's own list, the one list rows share (see _sweep): its rows come in one run per pivot, and only
        # the last coordinate's run can be a single row, so once shared it is held by two adjacent rows
        own = next((keys for keys, after in zip(lists, lists[1:]) if keys is after), None)
        own_text = _joined(map(pieces.__getitem__, own)) if own is not None else None
        return [f"manifold = {manifold.name}, box = {args.box}"] + [
            f"chi = {chi} | obstructed = {_bool(obstructed)} | injective = {_bool(len(keys) == n)} | "
            f"sw4 = {own_text if keys is own else _joined(map(pieces.__getitem__, keys))}"
            for chi, (_, keys, obstructed) in zip(texts(), rows)
        ]

    return header, body, lambda: {
        "command": "search",
        "manifold": manifold.name,
        "box": args.box,
        "all_obstructed": all_obstructed,
        "count": len(rows),
        "entries": [{"chi": chi, "obstructed": obstructed, "unit_classes": [] if obstructed else
                     [list(exp) for exp in _units(map(terms.__getitem__, keys))],
                     "injective": len(keys) == n} for chi, (_, keys, obstructed) in zip(texts(), rows)],
        "stabilization": note,
    }


# -- parser / dispatch --------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process, built by the first ``run``; ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="swfold",
        description="Exact Seiberg-Witten polynomial calculator: 3-manifold "
        "constructions, Euler-class folding, and symplectic obstruction checks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON payload with sorted keys")
    common.add_argument("--quiet", action="store_true", help="print only the core result")

    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    knot = sub.add_parser("knot", help="knot table access and registration")
    knot_sub = knot.add_subparsers(dest="action", required=True, metavar="ACTION")
    knot_sub.add_parser("list", parents=[common], help="list the knot table")
    show = knot_sub.add_parser("show", parents=[common], help="show one knot record")
    show.add_argument("name")
    register = knot_sub.add_parser("register", parents=[common], help="register knots from a JSON file")
    register.add_argument("file")

    sw3 = sub.add_parser("sw3", parents=[common], help="SW polynomial of a manifold spec file")
    sw3.add_argument("spec")

    fold_p = sub.add_parser("fold", parents=[common], help="fold the SW polynomial by an Euler class")
    fold_p.add_argument("spec")
    fold_p.add_argument("--chi", required=True, help='Euler class, e.g. "4*m1" or "-m1 + 2*m2"')

    bundle = sub.add_parser("bundle", parents=[common], help="circle bundle over a surface")
    bundle.add_argument("--genus", type=int, required=True)
    bundle.add_argument("--euler", type=int, required=True)
    bundle.add_argument("--method", choices=("direct", "closed", "both"), default="both")

    obstruct = sub.add_parser("obstruct", parents=[common], help="symplectic obstruction verdict for one Euler class")
    obstruct.add_argument("spec")
    obstruct.add_argument("--chi", required=True)

    search = sub.add_parser("search", parents=[common], help="sweep all Euler classes in a box")
    search.add_argument("spec")
    search.add_argument("--box", type=int, default=5)

    return parser


_HANDLERS = {
    "knot": _cmd_knot,
    "sw3": _cmd_sw3,
    "fold": _cmd_fold,
    "bundle": _cmd_bundle,
    "obstruct": _cmd_obstruct,
    "search": _cmd_search,
}


def run(argv) -> OutputRecord:
    """Execute one command line and return the record (raises on errors)."""
    args = build_parser().parse_args(list(argv))
    header, body, payload = _HANDLERS[args.command](args)
    if args.json:
        return OutputRecord(payload=payload())
    return OutputRecord("\n".join(body if args.quiet else header() + body))


def main(argv=None) -> int:
    try:
        record = run(sys.argv[1:] if argv is None else argv)
    except SwfoldError as exc:
        sys.stderr.write(f"error[{exc.code}]: {exc}\n")
        return 1 if isinstance(exc, DomainError) else 2
    sys.stdout.flush()  # the text layer first, then emit's own bytes, whatever the stdout encoding
    sys.stdout.buffer.write(emit(record))
    return record.status


if __name__ == "__main__":
    sys.exit(main())
