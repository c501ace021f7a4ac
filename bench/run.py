#!/usr/bin/env python3
"""Benchmark of the swfold command line, end to end and per layer.

    python3 bench/run.py --workload box-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One process, one thread, one client in a closed loop: every command of
the workload's seeded cycle goes through ``swfold.cli.run`` and
``swfold.cli.emit`` (the pair ``main`` uses), and the next starts when
the previous returns.  A first, untimed pass checks every output with
the oracles in ``oracles.py``; timed passes repeat whole cycles for
``--seconds`` of wall time, each command between two calibrations, and
each output must then match its checked bytes.  See README.md for the
metrics and workloads.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
an untraced and a traced pass of the cycle and prints the per-layer
metrics (per cycle) from the spans ``spans.py`` records.  Every run
prints a table, a provenance line and, last, one JSON result line; it
also writes the result (and the spans) under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"

END_TO_END = {"setup_s": "s", "cmds_per_s": "1/s", "cmd_p50_ms": "ms", "cmd_p90_ms": "ms", "peak_rss_mb": "MB"}

PER_LAYER = (
    "alexander.alexander_from_seifert.calls",
    "alexander.alexander_from_seifert.self_ms",
    "alexander.alexander_from_seifert.max_size",
    "alexander.load_knot_file.total_ms",
    "obstruction.euler_search.self_ms",
    "obstruction.euler_search.classes",
    "fold.fold_poly.self_ms",
    "fold.fold_poly.terms_in",
    "fold.fold_poly.merged",
    "fold.canonical_rep.calls",
    "fold.canonical_rep.self_ms",
    "fold.fold.calls",
    "fold.fold.self_ms",
    "laurent.to_text.calls",
    "laurent.to_text.self_ms",
    "laurent.to_text.bytes",
    "obstruction.colliding_classes.self_ms",
    "obstruction.colliding_classes.pairs",
    "obstruction.colliding_classes.colliders",
    "obstruction.stabilization_note.total_ms",
    "fold.circle_bundle_sw_closed_form.self_ms",
    "fold.circle_bundle_sw_direct.total_ms",
    "laurent.pow.self_ms",
    "laurent.mul.calls",
    "laurent.mul.self_ms",
    "laurent.mul.term_pairs",
    "laurent.reindex.self_ms",
    "laurent.from_text.self_ms",
    "laurent.from_text.bytes",
    "manifolds.fiber_sum_with_knot.calls",
    "manifolds.fiber_sum_with_knot.self_ms",
    "manifolds.sw3_terms.max",
    "cli.run.total_ms",
    "cli.build_manifold.self_ms",
    "cli.emit.self_ms",
    "cli.emit.bytes",
    "trace.overhead_ratio",
)

SETUP_SPAWNS = 9

#: Every timed command runs between two calibrations, and its latency is
#: reported in seconds at a reference speed: seconds times CALIBRATION_S over
#: the geometric mean of the two calibration times.  The host's speed moves
#: by tens of percent within seconds and between minutes, and the
#: calibration, timed next to each command, moves with it.
CALIBRATION_S = 0.0025


def calibrate() -> None:
    """Fixed pure-Python work like the program's: a sparse product of tuple-keyed dicts, rendered."""
    a = {(i, j, (i * j) % 5): i - j for i in range(-7, 8) for j in range(-7, 8)}
    b = {(i, -i, 1): i for i in range(-6, 7)}
    acc: dict[tuple[int, int, int], int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            acc[e] = acc.get(e, 0) + ca * cb
    " + ".join(f"{c}*{e}" for e, c in sorted(acc.items()) if c)


def layer_unit(metric: str) -> str:
    stat = metric.rpartition(".")[2]
    if stat.endswith("_ms"):
        return "ms"
    return {"bytes": "bytes", "overhead_ratio": "ratio"}.get(stat, "count")


def spawn_import() -> float:
    """Wall time of a fresh interpreter importing swfold.cli (the knot table is built at import)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SWFOLD_KNOT_TABLE", None)
    start = perf_counter()
    # no timeout: Popen.wait(timeout) polls with sleeps of up to 50 ms, which would swamp the measurement
    subprocess.run([sys.executable, "-c", "import swfold.cli"], cwd=ROOT, env=env, check=True)
    return perf_counter() - start


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "git_sha": git_sha(),
        "src_lines": src_lines,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


class Loop:
    """Runs one command cycle in a closed loop through cli.run / cli.emit."""

    def __init__(self, cli, commands):
        self.cli = cli
        self.commands = commands
        self.expected: list[bytes | None] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.count = 0
        self.calibration: list[float] = []
        self.last = math.nan  # the latest calibration time
        self.peak_rss_mb = math.nan

    def _execute(self, argv):
        cli = self.cli  # attributes looked up per call, so installed trace wrappers apply
        start = perf_counter()
        try:
            record = cli.run(argv)
            out = cli.emit(record)
        except (Exception, SystemExit) as exc:  # a failed command must not stop the loop
            elapsed = perf_counter() - start
            return elapsed, None, "".join(traceback.format_exception_only(exc)).strip()
        elapsed = perf_counter() - start
        if record.status != 0:
            return elapsed, None, f"exit status {record.status}"
        return elapsed, out, None

    def check(self, oracle) -> None:
        """Untimed pass: run each command once and check its output."""
        for command in self.commands:
            _, out, error = self._execute(list(command.argv))
            if error is None:
                error = oracle.check(command, out)
            self.expected.append(digest(out) if error is None else None)
            if error is not None:
                self.failures.append(f"{' '.join(command.argv)}: {error}")
        # every command has run once; later passes repeat the same work
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def cycle(self, tracer=None) -> list[float]:
        """Timed pass over the cycle; returns per-command latencies in reference seconds."""
        latencies = []
        self.probe()
        for command, expected in zip(self.commands, self.expected):
            before = self.last
            elapsed, out, error = self._execute(list(command.argv))
            if tracer is not None:
                tracer.end_command(self.count)
            latencies.append(self.reference(elapsed, before))
            self.count += 1
            self.attempted += 1
            if error is None and expected is not None and digest(out) == expected:
                continue
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{' '.join(command.argv)}: {error or 'output differs from the checked output'}")
        return latencies

    def probe(self) -> float:
        """Time one calibration and keep it."""
        start = perf_counter()
        calibrate()
        self.last = perf_counter() - start
        self.calibration.append(self.last)
        return self.last

    def reference(self, elapsed: float, before: float) -> float:
        """``elapsed`` seconds, timed after a calibration of ``before`` seconds, at the reference speed."""
        return elapsed * CALIBRATION_S / math.sqrt(before * self.probe())

    def spawn(self) -> float:
        """Reference seconds of one fresh interpreter importing the CLI."""
        before = self.probe()
        return self.reference(spawn_import(), before)

    def scale(self) -> float:
        """Factor from measured seconds to seconds at the reference speed, over the whole run."""
        return CALIBRATION_S / statistics.median(self.calibration)


def median_of(cycles: list[list[float]]) -> list[float]:
    """Each command's median latency over the timed cycles."""
    return [statistics.median(times) for times in zip(*cycles)]


def end_to_end(loop: Loop, seconds: float) -> tuple[dict, list[str]]:
    """Repeat the cycle for ``seconds``; report on each command's median latency.

    Latencies are in reference seconds (see CALIBRATION_S), and each
    command's median over the cycles is its cost.  A cycle holds at
    least 100 distinct commands, so p90 has ten samples beyond it.
    Set-up is timed between cycles, so its median spans the whole run.
    """
    spawn_import()  # warms bytecode and file caches
    gc.collect()
    cycles: list[list[float]] = []
    setup: list[float] = []
    start = perf_counter()
    while perf_counter() - start < seconds or len(cycles) < 3:
        cycles.append(loop.cycle())
        setup.append(loop.spawn())
    while len(setup) < SETUP_SPAWNS:
        setup.append(loop.spawn())
    costs = median_of(cycles)
    ordered = sorted(costs)
    n = len(ordered)
    rank90 = math.ceil(0.9 * n)
    metrics = {
        "setup_s": statistics.median(setup),
        "cmds_per_s": n / sum(costs),
        "cmd_p50_ms": statistics.median(ordered) * 1000,
        "cmd_p90_ms": ordered[rank90 - 1] * 1000,
        "peak_rss_mb": loop.peak_rss_mb,
    }
    best = [min(times) for times in zip(*cycles)]
    notes = [
        f"  {len(cycles)} timed cycles of {n} commands; p90 is rank {rank90} of the {n} median latencies,"
        f" {n - rank90} beyond; setup_s is the median of {len(setup)} interpreters",
        f"  {len(loop.calibration)} calibrations, median {statistics.median(loop.calibration) * 1000:.4f} ms,"
        f" best {min(loop.calibration) * 1000:.4f} ms (reference {CALIBRATION_S * 1000:g} ms); from fastest latencies:"
        f" cmds_per_s {n / sum(best):.6g}, cmd_p50_ms {statistics.median(best) * 1000:.6g},"
        f" cmd_p90_ms {sorted(best)[rank90 - 1] * 1000:.6g}",
        f"  fail_ratio: {loop.failed / loop.attempted:.6g} ({loop.failed} of {loop.attempted} commands)",
    ]
    kinds: dict[str, list[float]] = {}
    for command, latency in zip(loop.commands, costs):
        kinds.setdefault(command.kind, []).append(latency)
    notes += [f"  {kind:9s} {len(v):4d} commands, median {statistics.median(v) * 1000:9.3f} ms,"
              f" total {sum(v) * 1000:9.1f} ms" for kind, v in sorted(kinds.items())]
    return metrics, notes


def per_layer(loop: Loop, seconds: float, workload: str, seed: int, prov: dict) -> tuple[dict, list[str]]:
    from spans import Tracer

    tracer = Tracer()
    untraced: list[list[float]] = []
    traced: list[list[float]] = []
    gc.collect()
    start = perf_counter()
    while perf_counter() - start < seconds or not traced:
        untraced.append(loop.cycle())
        tracer.install()
        try:
            traced.append(loop.cycle(tracer))
        finally:
            tracer.uninstall()
    cycles = len(traced)
    scale = loop.scale()
    metrics = {}
    for metric in PER_LAYER:
        name, _, stat = metric.rpartition(".")
        if metric == "trace.overhead_ratio":
            value = sum(median_of(untraced)) / sum(median_of(traced))  # traced over untraced cmds_per_s
        elif stat.startswith("max"):
            value = tracer.peak.get(metric, 0)
        elif stat == "calls":
            value = tracer.calls[name] / cycles
        elif stat == "self_ms":
            value = tracer.self_s[name] * 1000 * scale / cycles
        elif stat == "total_ms":
            value = tracer.total_s[name] * 1000 * scale / cycles
        else:
            value = tracer.work[metric] / cycles
        metrics[metric] = value
    modules: dict[str, float] = {}
    for name, own in tracer.self_s.items():
        modules[name.split(".")[0]] = modules.get(name.split(".")[0], 0.0) + own * 1000 * scale / cycles
    top = sorted(tracer.self_s.items(), key=lambda item: -item[1])[:8]
    notes = [f"  {cycles} traced cycles, times scaled by {scale:.4f}; self ms per cycle by module: "
             + ", ".join(f"{m} {v:.1f}" for m, v in sorted(modules.items(), key=lambda item: -item[1]))]
    notes += [f"  {name:45s} self {own * 1000 * scale / cycles:10.2f} ms/cycle" for name, own in top]
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload}-s{seed}-spans.json.gz", {"provenance": prov, "self_ms_by_module": modules})
    return metrics, notes


def run_all(args) -> int:
    """Run every workload in its own process (each has its own peak memory)."""
    from workloads import WORKLOADS

    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, cwd=ROOT).returncode)
    return status


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "swfold" / "cli.py").is_file() or not (ROOT / "demos").is_dir():
        print(f"error: {ROOT} lacks src/swfold or demos/; run from the repository root", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    os.environ.pop("SWFOLD_KNOT_TABLE", None)
    import swfold.cli as cli
    from oracles import Oracle
    from workloads import generate

    prov = provenance(args.seed)
    workdir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        loop = Loop(cli, generate(args.workload, args.seed, workdir, ROOT / "demos"))
        loop.check(Oracle(args.seed))
        if args.trace:
            metrics, notes = per_layer(loop, args.seconds, args.workload, args.seed, prov)
            units = {m: layer_unit(m) for m in PER_LAYER}
        else:
            metrics, notes = end_to_end(loop, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": loop.failed == 0,  # a command failing its check fails every timed repetition
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(f"swfold benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{loop.attempted} commands timed in cycles of {len(loop.commands)}")
    for m, v in metrics.items():
        print(f"  {m:45s} {v:14.6g} {units[m]}")
    print("\n".join(notes))
    for failure in loop.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print("provenance " + json.dumps(prov, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, provenance=prov, failures=loop.failures), indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
