"""Per-layer spans and counters, recorded from outside the package.

`Tracer.instance()` swaps each traced public function of the palab
modules for a wrapper that records a span (name, start, end, parent span,
instance id) and the layer's work counters, then restores the originals.
Spans stay in memory until `dump` writes them once at the end of a run.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict

# span name -> layer metric prefix; span names are "<module>.<function>"
TRACED = {
    "textio.parse_program": "textio.parse",
    "textio.parse_graph": "textio.parse",
    "textio.parse_matrix": "textio.parse",
    "textio.parse_grammar": "textio.parse",
    "textio.serialize_program": "textio.serialize",
    "textio.serialize_graph": "textio.serialize",
    "textio.serialize_solution": "textio.serialize",
    "textio.serialize_map": "textio.serialize",
    "andersen.solve": "andersen.solve",
    "peg.build_peg": "peg.build_peg",
    "cfl.all_pairs": "cfl.all_pairs",
    "cfl.st_query": "cfl.st_query",
    "reductions.bmm_to_d1": "reductions.bmm_to_d1",
    "reductions.d1_to_program": "reductions.d1_to_program",
    "reductions.triangle_to_st_d1": "reductions.triangle_to_st_d1",
}

SELF_TIME_LAYERS = sorted(set(TRACED.values()))

# per-layer metric name -> unit, in report order
PER_LAYER = {
    "andersen.solve.self_s": "s",
    "andersen.solve.calls": "count",
    "andersen.vars": "count",
    "andersen.stmts": "count",
    "andersen.pt_facts": "count",
    "cfl.all_pairs.self_s": "s",
    "cfl.summaries": "count",
    "cfl.start_pairs": "count",
    "cfl.start_share": "ratio",
    "cfl.normalize.s": "s",
    "cfl.st_query.self_s": "s",
    "cfl.st_query.calls": "count",
    "cfl.st_query.hits": "ratio",
    "peg.build_peg.self_s": "s",
    "peg.nodes": "count",
    "peg.edges": "count",
    "reductions.bmm_to_d1.self_s": "s",
    "reductions.d1_to_program.self_s": "s",
    "reductions.triangle_to_st_d1.self_s": "s",
    "reductions.out_stmts": "count",
    "reductions.out_edges": "count",
    "textio.parse.self_s": "s",
    "textio.parse.lines_per_s": "1/s",
    "textio.serialize.self_s": "s",
    "textio.out_bytes": "bytes",
    "cli.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def _count(counts, name, args, result):
    """Work counters taken at the layer boundary from arguments and result."""
    if name == "andersen.solve":
        counts["andersen.solve.calls"] += 1
        counts["andersen.vars"] += len(args[0].variables)
        counts["andersen.stmts"] += len(args[0].statements)
        counts["andersen.pt_facts"] += sum(len(s) for s in result.pt.values())
    elif name == "cfl.all_pairs":
        counts["cfl.summaries"] += len(result.summaries)
        counts["cfl.start_pairs"] += len(result.pairs(args[1].start))
    elif name == "cfl.st_query":
        counts["cfl.st_query.calls"] += 1
        counts["cfl.st_query.hits"] += bool(result)
    elif name == "peg.build_peg":
        counts["peg.nodes"] += result.graph.node_count
        counts["peg.edges"] += len(result.graph.edges)
    elif name == "reductions.d1_to_program":
        counts["reductions.out_stmts"] += len(result[0].statements)
    elif name.startswith("reductions."):
        counts["reductions.out_edges"] += len(result.graph.edges)
    elif name.startswith("textio.parse"):
        counts["textio.lines"] += args[0].count("\n")
    else:  # textio.serialize_*
        counts["textio.out_bytes"] += len(result)


class Tracer:
    """Records spans and counters for the instances run inside `instance()`."""

    def __init__(self, lab):
        self.lab = lab
        # (id, name, start, end, parent id or -1, instance id)
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.normalize_s: list[float] = []
        self._grammars: list = []  # grammars the cfl layer received, for `time_normalize`
        self._stack: list[int] = []
        self._instance = -1
        self._wrappers = {}  # id of the traced function -> its wrapper
        for name in TRACED:
            module, func = name.split(".")
            original = getattr(getattr(lab, module), func, None)
            if original is not None:  # a function the package no longer has reads as 0
                self._wrappers[id(original)] = self._wrap(name, original)

    def _open(self) -> tuple[int, int]:
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in by `_close`
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start, end):
        self._stack.pop()
        self.spans[span_id] = (span_id, name, start, end, parent, self._instance)

    def _wrap(self, name, func):
        def traced(*args, **kwargs):
            span_id, parent = self._open()
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span_id, parent, name, start, time.perf_counter())
            _count(self.counts, name, args, result)
            if name.startswith("cfl."):
                self._grammars.append(args[1])
            return result

        return traced

    @contextlib.contextmanager
    def instance(self, instance_id: int):
        """Trace one instance: route every palab reference to a traced
        function (module attributes and names imported into other modules)
        through its wrapper, under an `instance` root span."""
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname != "palab" and not modname.startswith("palab."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        self._instance = instance_id
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(span_id, parent, "instance", start, time.perf_counter())
            for module, attr, value in patched:
                setattr(module, attr, value)
            self._instance = -1

    def time_normalize(self):
        """Time one separate normalize call per grammar the cfl layer
        received since the last call; run it outside any instance."""
        for grammar in self._grammars:
            start = time.perf_counter()
            self.lab.cfl.normalize(grammar)
            self.normalize_s.append(time.perf_counter() - start)
        self._grammars.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the
        durations of its child spans."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _ in self.spans:
            totals[name] += (end - start) - child_time[span_id]
        return totals

    def dump(self, path):
        """Write every span as one JSON line."""
        keys = ("id", "name", "start", "end", "parent", "instance")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def per_layer_metrics(tracer: Tracer, counts: dict[str, int], passes: int, runs: int,
                      overhead_s: float) -> dict[str, float]:
    """Self times as seconds per traced instance; counts per pass over the
    instance pool; ratios taken over the same pass."""
    self_s: dict[str, float] = defaultdict(float)
    for name, total in tracer.self_times().items():
        self_s[TRACED.get(name, "cli.unattributed")] += total

    def share(part: str, whole: str) -> float:
        return counts.get(part, 0) / counts[whole] if counts.get(whole) else 0.0

    values = {name: counts.get(name, 0) for name, unit in PER_LAYER.items() if unit == "count"}
    values.update({f"{layer}.self_s": self_s[layer] / runs for layer in SELF_TIME_LAYERS})
    parse_s = self_s["textio.parse"]
    values.update({
        "cfl.start_share": share("cfl.start_pairs", "cfl.summaries"),
        "cfl.st_query.hits": share("cfl.st_query.hits", "cfl.st_query.calls"),
        "cfl.normalize.s": sum(tracer.normalize_s) / len(tracer.normalize_s) if tracer.normalize_s else 0.0,
        "textio.parse.lines_per_s": passes * counts.get("textio.lines", 0) / parse_s if parse_s else 0.0,
        "textio.out_bytes": counts.get("textio.out_bytes", 0),
        "cli.unattributed_s": self_s["cli.unattributed"] / runs,
        "trace.overhead_s": overhead_s,
    })
    return {name: values[name] for name in PER_LAYER}
