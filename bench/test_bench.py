"""Tests of the benchmark itself: generators, oracles and span arithmetic.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import swfold.cli as cli  # noqa: E402
from oracles import Oracle  # noqa: E402
from run import END_TO_END, PER_LAYER, layer_unit  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, check_seifert, generate  # noqa: E402


def _generate(workload, seed, tmp_path, name="w"):
    workdir = tmp_path / name
    workdir.mkdir()
    return generate(workload, seed, workdir, ROOT / "demos"), workdir


def _files(workdir):
    return {p.name: p.read_text() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    first, dir1 = _generate(workload, 5, tmp_path, "a")
    again, dir2 = _generate(workload, 5, tmp_path, "b")
    other, dir3 = _generate(workload, 6, tmp_path, "c")

    def lines(commands, workdir):
        return [" ".join(c.argv).replace(str(workdir), "W") for c in commands]

    assert lines(first, dir1) == lines(again, dir2)
    assert _files(dir1) == _files(dir2)
    assert len(first) == len(other) >= 100  # fixed shape; p90 needs ten commands beyond it
    assert (lines(first, dir1), _files(dir1)) != (lines(other, dir3), _files(dir3))


def test_generated_seifert_matrices_present_knots(tmp_path):
    commands, _ = _generate("seifert-growth", 2, tmp_path)
    knots = [c.knot for c in commands if c.kind == "register"]
    assert sorted({len(k.seifert) for k in knots}) == [2, 4, 6, 8, 10, 12]
    for knot in knots:
        check_seifert(knot.seifert)
    with pytest.raises(ValueError):
        check_seifert(((1, 0), (0, 1)))


def _bump_first_coefficient(text: str) -> str:
    sign = "-" if text.startswith("-") else ""
    body = text[len(sign):]
    digits = re.match(r"\d+", body)
    if digits:
        return sign + str(int(digits.group()) + 1) + body[digits.end():]
    return sign + "2*" + body


def _mutate(output: bytes, marker: str, occurrence: int = 0) -> bytes:
    """Change the first coefficient of the polynomial after the n-th ``marker``."""
    text = output.decode()
    at = -1
    for _ in range(occurrence + 1):
        at = text.index(marker, at + 1)
    start = at + len(marker)
    end = text.index("\n", start)
    return (text[:start] + _bump_first_coefficient(text[start:end]) + text[end:]).encode()


#: (workload, command kind, polynomial marker, occurrence of the marker)
MUTANTS = [
    ("fiber-tower", "sw3", "sw3 = ", 0),
    ("fiber-tower", "fold", "sw4 = ", 0),
    ("fiber-tower", "obstruct", "sw4 = ", 0),
    ("fiber-tower", "bundle", "direct = ", 0),
    ("fiber-tower", "bundle", "closed = ", 0),
    ("box-sweep", "search", "sw4 = ", 37),
    ("seifert-growth", "register", "alexander = ", 0),
]


@pytest.mark.parametrize("workload,kind,marker,occurrence", MUTANTS)
def test_oracle_rejects_one_changed_coefficient(workload, kind, marker, occurrence, tmp_path):
    commands, _ = _generate(workload, 1, tmp_path)
    oracle = Oracle(1)
    command = next(c for c in commands if c.kind == kind and (c.spec is None or len(c.spec.sums) > 1))
    output = cli.emit(cli.run(list(command.argv)))
    assert oracle.check(command, output) is None
    assert oracle.check(command, _mutate(output, marker, occurrence)) is not None


def test_search_oracle_freezes_the_headline_verdicts(tmp_path):
    commands, _ = _generate("box-sweep", 1, tmp_path)
    fig8 = next(c for c in commands if c.argv[1].endswith("fig8-pair.json"))
    output = cli.emit(cli.run(list(fig8.argv)))
    assert Oracle(1).check(fig8, output) is None
    flipped = output.replace(b"all_obstructed = false", b"all_obstructed = true")
    assert Oracle(1).check(fig8, flipped) is not None


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 4.0, 0),  # overlaps a: the two cover [1, 4]
        ("c", 6.0, 7.0, 0),
        ("d", 6.5, 7.5, 3),  # runs past its parent's end: only [6.5, 7] counts
        ("e", 9.0, 12.0, 0),  # clipped to [9, 10]
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 1 - 1, 2, 2, 0.5, 1, 3])


def test_tracer_wraps_every_binding_and_restores_them():
    import swfold
    import swfold.obstruction

    module = sys.modules["swfold.fold"]
    original = module.fold
    tracer = Tracer()
    tracer.install()
    try:
        assert swfold.cli.fold is module.fold is swfold.obstruction.fold is swfold.fold
        assert swfold.cli.fold is not original
        cli.emit(cli.run(["fold", str(ROOT / "demos" / "fig8-pair.json"), "--chi", "4*m1"]))
        tracer.end_command(0)
    finally:
        tracer.uninstall()
    assert swfold.cli.fold is module.fold is swfold.obstruction.fold is swfold.fold is original
    assert tracer.calls["fold.fold"] == 1
    assert tracer.calls["fold.canonical_rep"] == 9
    assert tracer.work["fold.fold_poly.terms_in"] == 9
    assert tracer.calls["laurent.mul"] >= 2  # two fiber sums
    assert tracer.self_s["cli.run"] <= tracer.total_s["cli.run"]


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(m, layer_unit(m)) for m in PER_LAYER]
