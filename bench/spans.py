"""Span tracing of the swfold layers from outside the package.

:meth:`Tracer.install` replaces every public function of the traced
modules, and the ``LaurentPoly`` operators named in :data:`METHODS`,
with a wrapper that records a span ``(name, start, end, parent)``.  A
function is replaced at every name a caller binds it under: the
module's own global, each ``from .x import f`` copy in another swfold
module and the package re-export.  Nothing under ``src/`` changes.

Spans of one command are turned into per-function totals when the
command ends (outside its timed region); up to ``KEEP_SPANS`` spans are also
kept, with their command index, and written out when the run ends.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("laurent", "alexander", "manifolds", "fold", "obstruction", "cli")

#: Spans kept for the written trace; later ones still count in the totals.
KEEP_SPANS = 100_000

#: Traced ``LaurentPoly`` methods: span name -> attribute names on the class.
METHODS = {"mul": ("__mul__", "__rmul__"), "pow": ("__pow__",), "reindex": ("reindex",)}


def _len2(other) -> int:
    return len(other) if hasattr(other, "_terms") else 1


def _sw3_terms(args, result):
    return {"manifolds.sw3_terms.max": len(result.sw3)}


#: Work counts summed per span name, computed from arguments and result.
WORK = {
    "fold.fold_poly": lambda a, r: {"terms_in": len(a[0]), "merged": len(a[0]) - len(r)},
    "obstruction.euler_search": lambda a, r: {"classes": len(r.entries)},
    "obstruction.colliding_classes": lambda a, r: {
        "pairs": len(a[0].sw3) * (len(a[0].sw3) - 1) // 2, "colliders": len(r)},
    "laurent.to_text": lambda a, r: {"bytes": len(r)},
    "laurent.from_text": lambda a, r: {"bytes": len(a[0])},
    "laurent.mul": lambda a, r: {"term_pairs": len(a[0]) * _len2(a[1])},
    "cli.emit": lambda a, r: {"bytes": len(r)},
}

#: Work counts kept as a maximum, under their full metric name.
PEAK = {
    "alexander.alexander_from_seifert": lambda a, r: {
        "alexander.alexander_from_seifert.max_size": len(getattr(a[0], "entries", a[0]))},
    "manifolds.three_torus": _sw3_terms,
    "manifolds.surface_times_circle": _sw3_terms,
    "manifolds.fiber_sum_with_knot": _sw3_terms,
}


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    ``spans`` holds ``(name, start, end, parent)`` with ``parent`` the
    index of the parent span in the same list, or -1.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class Tracer:
    """Records spans while installed and accumulates per-function totals."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # spans of the command in progress
        self.stack: list[int] = []
        self.kept: list[tuple] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.work: Counter = Counter()
        self.peak: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, work, peak = self.spans, self.stack, WORK.get(name), PEAK.get(name)

        def traced(*args, **kwargs):
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if work is not None:
                for key, value in work(args, result).items():
                    self.work[f"{name}.{key}"] += value
            if peak is not None:
                for key, value in peak(args, result).items():
                    self.peak[key] = max(self.peak.get(key, 0), value)
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced functions wherever swfold modules bind them."""
        modules = [m for key, m in sys.modules.items() if key == "swfold" or key.startswith("swfold.")]
        for layer in LAYERS:
            module = sys.modules[f"swfold.{layer}"]
            for attr, fn in inspect.getmembers(module, inspect.isfunction):
                if attr.startswith("_") or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for owner in modules:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, key, wrapper)
        poly = sys.modules["swfold.laurent"].LaurentPoly
        for name, attrs in METHODS.items():
            wrapper = self._wrap(f"laurent.{name}", vars(poly)[attrs[0]])
            for attr in attrs:
                self._patch(poly, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        del self.names[:]

    # -- accounting ------------------------------------------------------

    def end_command(self, command: int) -> None:
        """Fold the finished command's spans into the totals."""
        spans = self.spans
        for (nid, start, end, parent), own in zip(spans, self_times(spans)):
            name = self.names[nid]
            self.calls[name] += 1
            self.self_s[name] += own
            self.total_s[name] += end - start
        if len(self.kept) + len(spans) <= KEEP_SPANS:
            self.kept.extend((self.names[nid], start, end, parent, command) for nid, start, end, parent in spans)
        else:
            self.dropped += len(spans)
        del spans[:]

    def write(self, path, extra: dict) -> None:
        """Write the kept spans (parent indices are local to each command)."""
        data = dict(extra, columns=["name", "start", "end", "parent", "command"],
                    spans=self.kept, dropped=self.dropped)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(data, handle)
