"""Per-layer spans for the traced benchmark run, recorded from outside.

The layers are the package modules.  Tracer.installed() replaces each
public function listed in LAYERS by a timing wrapper in every module
namespace that binds it (a call looks the name up in the caller's module),
and restores the originals on exit.  Spans stay in memory as
[name, start, end, parent, graph id, repetition, factor] and are written
out once at the end.  start and end are wall seconds; `factor` converts
a span's duration to reference seconds (calibration.py) and is set by
calibrate() once the measured call has ended.  Per-layer times are in
reference seconds, like the end-to-end ones.  A span's self time is its
duration minus its children's.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

MODULES = ("graphs", "matching", "covers", "cores", "cyclecovers", "report",
           "cli")

# (home module, public function) -> span name
LAYERS = {
    ("graphs", "parse_edge_list"): "graphs.parse",
    ("graphs", "girth"): "graphs.girth",
    ("graphs", "is_bridgeless"): "graphs.bridgeless",
    ("graphs", "is_bipartite"): "graphs.bipartite",
    ("graphs", "has_nontrivial_3_edge_cut"): "graphs.three_cut",
    ("graphs", "is_hamiltonian"): "graphs.hamiltonian",
    ("graphs", "is_hypohamiltonian"): "graphs.hypohamiltonian",
    ("matching", "enumerate_perfect_matchings"): "matching.enumerate",
    ("matching", "oddness"): "matching.oddness",
    ("matching", "is_three_edge_colorable"): "matching.three_ec",
    ("matching", "exists_4ec_with_class_of_size"): "matching.four_ec",
    ("covers", "mu_k"): "covers.mu",  # suffixed with _k per call
    ("covers", "fan_raspaud_indices"): "covers.fan_raspaud",
    ("covers", "fulkerson_witness"): "covers.fulkerson",
    ("cores", "find_core"): "cores.find_core",
    ("cores", "classify_core"): "cores.classify",
    ("cores", "verify_core_theorems"): "cores.theorems",
    ("cores", "build_core"): "cores.build",
    ("cyclecovers", "canonical_cover"): "cyclecovers.canonical",
    ("cyclecovers", "bipartite_core_cover"): "cyclecovers.core_cover",
    ("cyclecovers", "cover_from_core"): "cyclecovers.core_cover",
    ("cyclecovers", "four_cover_cycles"): "cyclecovers.four_cover",
    ("cyclecovers", "five_cdc"): "cyclecovers.five_cdc",
    ("cyclecovers", "scc_exact"): "cyclecovers.scc",
    ("cyclecovers", "verify_cover"): "cyclecovers.verify_cover",
    ("report", "read_corpus"): "report.read_corpus",
    ("report", "analyze"): "report.analyze",
    ("report", "audit_report"): "report.audit",
    ("report", "report_lines"): "report.serialize",
}
# Bindings named after their caller rather than the function.
CALLER_NAMES = {("cli", "audit_report"): "cli.verify_audit"}
# Left inside the self time of the `cli.verify` root span, which is
# reported as cli.verify_load_s: corpus and JSONL loading.
UNWRAPPED = {("cli", "read_corpus")}

TIMED = (
    "graphs.three_cut", "graphs.girth", "graphs.bridgeless",
    "graphs.bipartite", "graphs.hamiltonian", "graphs.hypohamiltonian",
    "graphs.parse", "report.read_corpus",
    "matching.enumerate", "matching.oddness", "matching.three_ec",
    "matching.four_ec",
    "covers.mu_1", "covers.mu_2", "covers.mu_3", "covers.mu_4",
    "covers.fan_raspaud", "covers.fulkerson",
    "cores.find_core", "cores.classify", "cores.theorems", "cores.build",
    "cyclecovers.scc", "cyclecovers.canonical", "cyclecovers.core_cover",
    "cyclecovers.four_cover", "cyclecovers.five_cdc",
    "cyclecovers.verify_cover",
    "report.analyze", "report.audit", "report.serialize",
    "cli.verify_audit",
)
SELF_TIMED = {"report.analyze_self_s": "report.analyze",
              "report.audit_self_s": "report.audit",
              "cli.verify_load_s": "cli.verify"}
CALL_COUNTS = {"matching.enumerate_calls": "matching.enumerate",
               "cores.classify_calls": "cores.classify"}
COUNTERS = ("matching.pms_enumerated", "cyclecovers.scc_dim_sum")

def cycle_space_dim(G) -> int:
    parent = list(range(G.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    components = G.n
    for u, v in G.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    return G.m - G.n + components


class Tracer:
    """In-memory spans and work counters, one repetition at a time."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.graph: Optional[str] = None
        self.rep = -1
        self.rep_start = 0
        self.counts: Counter = Counter()
        self.origin = time.perf_counter()

    def new_rep(self) -> None:
        self.rep += 1
        self.rep_start = len(self.spans)
        self.counts = Counter()

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.graph, self.rep, 1.0])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def calibrate(self, first: int, factor: float) -> None:
        """Set the reference-seconds factor of every span from `first` on."""
        for span in self.spans[first:]:
            span[6] = factor

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name: str):
        tracer = self

        if inspect.isgeneratorfunction(fn):  # report_lines: time each step
            def wrapper(*args, **kwargs):
                lines = fn(*args, **kwargs)
                while True:
                    with tracer.span(name):
                        line = next(lines, None)
                    if line is None:
                        return
                    yield line
            return wrapper

        def wrapper(*args, **kwargs):
            span_name = f"{name}_{args[1]}" if name == "covers.mu" else name
            outer_graph = tracer.graph
            if name == "report.analyze":
                tracer.graph = kwargs.get("id")
            elif name in ("report.audit", "cli.verify_audit"):
                tracer.graph = args[1].get("id")
            index = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
                tracer.graph = outer_graph
            if name == "matching.enumerate":
                tracer.counts["matching.pms_enumerated"] += len(result)
            elif name == "cyclecovers.scc":
                tracer.counts["cyclecovers.scc_dim_sum"] += \
                    cycle_space_dim(args[0])
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every listed function, and GraphReport.to_dict, to its
        timing wrapper for the duration of the block."""
        modules = {name: importlib.import_module(f"factorcover.{name}")
                   for name in MODULES}
        targets = {id(getattr(modules[home], fn)): (home, fn)
                   for home, fn in LAYERS}
        saved = []
        for mod_name, module in modules.items():
            for attr, value in list(vars(module).items()):
                key = targets.get(id(value))
                if key is None or (mod_name, attr) in UNWRAPPED:
                    continue
                name = CALLER_NAMES.get((mod_name, attr), LAYERS[key])
                saved.append((module, attr, value))
                setattr(module, attr, self._wrap(value, name))
        report_cls = modules["report"].GraphReport
        saved.append((report_cls, "to_dict", report_cls.to_dict))
        report_cls.to_dict = self._wrap(report_cls.to_dict,
                                        "report.serialize")
        try:
            yield
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def layer_metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer totals of the current repetition."""
        spans = self.spans[self.rep_start:]
        base = self.rep_start
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _, factor in spans:
            if parent is not None and parent >= base:
                child_time[parent - base] += (end - start) * factor
        total: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, parent, _, _, factor) in enumerate(spans):
            calls[name] += 1
            own[name] += (end - start) * factor - child_time[i]
            if not self._nested_in_same(i + base, name):
                total[name] += (end - start) * factor
        metrics = {f"{n}_s": (total[n], "s") for n in TIMED}
        metrics.update((m, (own[n], "s")) for m, n in SELF_TIMED.items())
        metrics.update((m, (calls[n], "count"))
                       for m, n in CALL_COUNTS.items())
        metrics.update((m, (self.counts[m], "count")) for m in COUNTERS)
        return metrics

    def _nested_in_same(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, graph, rep, factor in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - self.origin,
                    "end": end - self.origin, "parent": parent,
                    "graph": graph, "rep": rep, "factor": factor,
                }) + "\n")
