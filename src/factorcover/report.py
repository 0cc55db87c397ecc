"""Per-graph analysis pipeline and JSON-lines corpus reports.

analyze() drives every other module over a single graph and produces a
GraphReport whose witnesses are re-verified from scratch before they are
serialized.  scan() maps analyze() over a corpus file (MGF blocks or
graph6 lines), optionally with a process pool, preserving input order so
that identical inputs yield byte-identical output.
"""

from __future__ import annotations

import json
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .cores import (
    FactorError,
    build_core,
    classify_core,
    find_core,
    verify_core_theorems,
)
from .covers import (
    fan_raspaud_indices,
    fulkerson_witness,
    mu_k,
    verify_fulkerson,
)
from .cyclecovers import (
    CoverConstructionError,
    DimensionCapExceededError,
    bipartite_core_cover,
    canonical_cover,
    cover_from_core,
    five_cdc,
    four_cover_cycles,
    scc_exact,
    verify_cover,
)
from .graphs import (
    CubicGraph,
    EdgeSet,
    GraphFormatError,
    GraphTooLargeError,
    NotCubicError,
    girth,
    has_nontrivial_3_edge_cut,
    is_bipartite,
    is_bridgeless,
    is_hamiltonian,
    is_hypohamiltonian,
    parse_edge_list,
    parse_graph6,
)
from .matching import (
    DEFAULT_PM_CAP,
    PMCapExceededError,
    enumerate_perfect_matchings,
    exists_4ec_with_class_of_size,
    is_perfect_matching,
    is_three_edge_colorable,
    oddness,
)

DEFAULT_OPS = ("structure", "mu", "fan_raspaud", "core")
ALL_OPS = (
    "structure",
    "mu",
    "oddness",
    "fan_raspaud",
    "fulkerson",
    "core",
    "covers",
    "scc",
    "hypohamiltonian",
)


class ReportAuditError(AssertionError):
    """A serialized witness failed re-verification against its graph."""


@dataclass(frozen=True)
class AnalyzeOptions:
    """Which fields analyze() computes, and its resource limits."""

    ops: Tuple[str, ...] = DEFAULT_OPS
    mu_upto: int = 4
    pm_cap: int = DEFAULT_PM_CAP
    budget_ms: Optional[int] = None
    scc_dim_cap: int = 10
    timings: bool = False

    def __post_init__(self):
        unknown = set(self.ops) - set(ALL_OPS)
        if unknown:
            raise ValueError(f"unknown ops: {sorted(unknown)}")
        if not 1 <= self.mu_upto <= 6:
            raise ValueError("mu_upto must be between 1 and 6")

    def with_ops(self, *extra: str) -> "AnalyzeOptions":
        ops = self.ops + tuple(o for o in extra if o not in self.ops)
        return replace(self, ops=ops)


@dataclass
class GraphReport:
    """All computed invariants, witnesses, and theorem checks for a graph.

    Witness fields hold sorted edge-index arrays (cores additionally hold
    factor indices into the deterministic matching enumeration).  checks
    lists {name, passed, measured}; any failed check is a counterexample
    candidate and appears in violations.
    """

    id: str
    n: int
    m: int
    girth: Optional[int] = None
    bridgeless: Optional[bool] = None
    bipartite: Optional[bool] = None
    nontrivial_3_cut: Optional[bool] = None
    hamiltonian: Optional[bool] = None
    hypohamiltonian: Optional[bool] = None
    mu: Dict[str, int] = field(default_factory=dict)
    mu_witness: Dict[str, dict] = field(default_factory=dict)
    oddness: Optional[int] = None
    fan_raspaud: Optional[dict] = None
    fulkerson: Optional[dict] = None
    cores: List[dict] = field(default_factory=list)
    covers: List[dict] = field(default_factory=list)
    checks: List[dict] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    errors: Dict[str, str] = field(default_factory=dict)
    timings_ms: Optional[Dict[str, float]] = None

    def to_dict(self) -> dict:
        out = {
            "id": self.id,
            "n": self.n,
            "m": self.m,
            "girth": self.girth,
            "bridgeless": self.bridgeless,
            "bipartite": self.bipartite,
            "nontrivial_3_cut": self.nontrivial_3_cut,
            "hamiltonian": self.hamiltonian,
            "mu": self.mu,
            "mu_witness": self.mu_witness,
            "fan_raspaud": self.fan_raspaud,
            "cores": self.cores,
            "covers": self.covers,
            "checks": self.checks,
            "violations": self.violations,
            "skipped": self.skipped,
            "errors": self.errors,
        }
        if self.hypohamiltonian is not None:
            out["hypohamiltonian"] = self.hypohamiltonian
        if self.oddness is not None:
            out["oddness"] = self.oddness
        if self.fulkerson is not None or "fulkerson" in self.errors:
            out["fulkerson"] = self.fulkerson
        if self.timings_ms is not None:
            out["timings_ms"] = self.timings_ms
        return out


def _cover_dict(kind: str, cover, target: Optional[EdgeSet] = None) -> dict:
    out = {
        "kind": kind,
        "cycles": [c.indices() for c in cover.cycles],
        "length": cover.length,
        "ced": cover.ced,
        "even": cover.even,
        "count": cover.count,
        "valid": cover.valid,
    }
    if target is not None:
        out["target"] = target.indices()
    return out


class _Budget:
    def __init__(self, budget_ms: Optional[int]):
        self.deadline = (
            time.monotonic() + budget_ms / 1000.0
            if budget_ms is not None
            else None
        )

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline


def analyze(
    G: CubicGraph, options: AnalyzeOptions = AnalyzeOptions(), id: str = "g0"
) -> GraphReport:
    """Compute every requested field of the report; never raises for
    per-field caps or budget overruns, which are recorded in errors."""
    ops = set(options.ops)
    report = GraphReport(id=id, n=G.n, m=G.m)
    report.skipped = [op for op in ALL_OPS if op not in ops]
    budget = _Budget(options.budget_ms)
    timings: Dict[str, float] = {}

    def run(name: str, fn) -> bool:
        if budget.expired():
            report.errors[name] = "timeout"
            return False
        t0 = time.monotonic()
        try:
            fn()
            return True
        except PMCapExceededError:
            report.errors[name] = "pm_cap_exceeded"
        except DimensionCapExceededError:
            report.errors[name] = "dim_cap_exceeded"
        finally:
            timings[name] = round((time.monotonic() - t0) * 1000.0, 3)
        return False

    if "structure" in ops:
        def _structure():
            report.girth = girth(G)
            report.bridgeless = is_bridgeless(G)
            report.bipartite = is_bipartite(G)[0]
            try:
                report.nontrivial_3_cut = has_nontrivial_3_edge_cut(G)[0]
            except ValueError:
                report.errors["nontrivial_3_cut"] = "disconnected"
            report.hamiltonian = is_hamiltonian(G)
        run("structure", _structure)

    if "hypohamiltonian" in ops:
        run("hypohamiltonian",
            lambda: setattr(report, "hypohamiltonian", is_hypohamiltonian(G)))

    pms: Optional[List[EdgeSet]] = None

    def factor_list() -> List[EdgeSet]:
        nonlocal pms
        if pms is None:
            pms = enumerate_perfect_matchings(G, cap=options.pm_cap)
        return pms

    needs_pms = ops & {"mu", "oddness", "fan_raspaud", "fulkerson", "core",
                       "covers"}
    if needs_pms and not run("matchings", factor_list):
        needs_pms = set()
    if needs_pms and not pms:
        report.errors["matchings"] = "no_perfect_matching"
        needs_pms = set()

    mu_witnesses: Dict[int, object] = {}
    if "mu" in needs_pms:
        for k in range(1, options.mu_upto + 1):
            def _mu(k=k):
                value, witness = mu_k(G, k, pms)
                report.mu[str(k)] = value
                report.mu_witness[str(k)] = {
                    "factors": [f.indices() for f in witness.factors],
                    "uncovered": witness.uncovered.indices(),
                }
                mu_witnesses[k] = witness
            if not run(f"mu_{k}", _mu):
                break

    if "oddness" in needs_pms:
        run("oddness", lambda: setattr(report, "oddness", oddness(G, pms)))

    if "fan_raspaud" in needs_pms:
        def _fan_raspaud():
            found = fan_raspaud_indices(G, pms)
            if found is not None:
                report.fan_raspaud = {
                    "factor_indices": list(found),
                    "factors": [pms[i].indices() for i in found],
                }
        run("fan_raspaud", _fan_raspaud)

    if "fulkerson" in needs_pms:
        def _fulkerson():
            witness = fulkerson_witness(G, pms)
            if witness is not None:
                report.fulkerson = {
                    "factor_indices": list(witness.factor_indices),
                    "factors": [f.indices() for f in witness.factors],
                }
        run("fulkerson", _fulkerson)

    if "core" in needs_pms:
        def _core():
            if len(pms) < 3:
                report.errors["core"] = "fewer_than_three_matchings"
                return
            core = build_core(G, *pms[:3])
            cls = classify_core(core)
            report.cores.append({
                "factors": [0, 1, 2],
                "k": core.k,
                "M": core.M.indices(),
                "U": core.U.indices(),
                "T": core.T.indices(),
                "components": [
                    {"kind": c.kind, "vertices": list(c.vertices),
                     "edges": c.edges.indices()}
                    for c in cls.components
                ],
                "cyclic": cls.is_cyclic,
                "bipartite": cls.is_bipartite,
                "bridgeless": cls.is_bridgeless,
                "empty": cls.is_empty,
            })
            for check in verify_core_theorems(core, cls):
                report.checks.append(dict(check, name=f"core_{check['name']}"))
        run("core", _core)

    if "covers" in needs_pms:
        def _covers():
            colorable, coloring = is_three_edge_colorable(G)
            if colorable:
                report.covers.append(
                    _cover_dict("canonical", canonical_cover(G, coloring))
                )
            cyclic_core = find_core(G, pms)
            if cyclic_core is not None:
                core_cover = bipartite_core_cover(cyclic_core)
                cover = cover_from_core(G, cyclic_core, core_cover)
                report.covers.append(_cover_dict("core_extension", cover))
            if report.mu.get("4") == 0:
                witness = mu_witnesses[4]
                report.covers.append(
                    _cover_dict("four_cover",
                                four_cover_cycles(G, *witness.factors))
                )
                report.covers.append(
                    _cover_dict("five_cdc", five_cdc(G, *witness.factors))
                )
        run("covers", _covers)

    if "scc" in ops:
        # no check may compare scc with 4m/3: scc_exact prunes with it
        def _scc():
            try:
                cover = scc_exact(G, dim_cap=options.scc_dim_cap)
            except CoverConstructionError:  # G has a bridge
                report.errors["scc"] = "no_cycle_cover"
                return
            report.covers.append(_cover_dict("scc_exact", cover))
        run("scc", _scc)

    _theorem_checks(G, report)
    report.violations = [c["name"] for c in report.checks if not c["passed"]]
    if options.timings:
        report.timings_ms = timings

    audit_report(G, report.to_dict(), pms=pms)
    return report


def _theorem_checks(G: CubicGraph, report: GraphReport) -> None:
    """Instance checks of the bound and conjecture statements that the
    computed fields make decidable for this graph."""
    def ran(name: str) -> bool:
        # a field whose matchings were never enumerated did not run either
        return (name not in report.skipped and name not in report.errors
                and "matchings" not in report.errors)

    m = G.m
    # the mu3 bounds and the existence statements hold for bridgeless G
    bridgeless = (report.bridgeless if report.bridgeless is not None
                  else is_bridgeless(G))
    mu3 = report.mu.get("3")
    if mu3 is not None and bridgeless:
        report.checks.append({
            "name": "mu3_zero_or_ge_3",
            "passed": mu3 == 0 or mu3 >= 3,
            "measured": {"mu3": mu3},
        })
        report.checks.append({
            "name": "mu3_le_8m_over_35",
            "passed": 35 * mu3 <= 8 * m,
            "measured": {"mu3": mu3, "m": m},
        })
        if report.girth is not None and mu3 > 0:
            report.checks.append({
                "name": "girth_le_2mu3",
                "passed": report.girth <= 2 * mu3,
                "measured": {"girth": report.girth, "mu3": mu3},
            })
    if bridgeless and ran("fan_raspaud"):
        report.checks.append({
            "name": "fan_raspaud_exists",
            "passed": report.fan_raspaud is not None,
            "measured": {},
        })
    fulkerson_ran = ran("fulkerson")
    if bridgeless and fulkerson_ran:
        report.checks.append({
            "name": "fulkerson_exists",
            "passed": report.fulkerson is not None,
            "measured": {},
        })
    if (fulkerson_ran and mu3 is not None and mu3 <= 4
            and report.nontrivial_3_cut is False):
        report.checks.append({
            "name": "fulkerson_when_no_3cut_and_mu3_le_4",
            "passed": report.fulkerson is not None,
            "measured": {"mu3": mu3},
        })
    if (report.oddness is not None and bridgeless
            and report.mu.get("3", 1) != 0):
        has_class2 = exists_4ec_with_class_of_size(G, 2)
        report.checks.append({
            "name": "oddness2_iff_4ec_class_of_2",
            "passed": (report.oddness == 2) == has_class2,
            "measured": {"oddness": report.oddness,
                         "class_of_2": has_class2},
        })


# ---------------------------------------------------------------------------
# Witness re-verification (used before serialization and by `verify`).
# ---------------------------------------------------------------------------


def audit_report(
    G: CubicGraph,
    data: dict,
    pms: Optional[Sequence[EdgeSet]] = None,
    pm_cap: int = DEFAULT_PM_CAP,
) -> None:
    """Re-verify every witness in a serialized report against the graph.

    Raises ReportAuditError on the first mismatch, and when a field it reads
    is missing or of the wrong type.  pms may be passed to reuse an existing
    enumeration; it is only computed when a witness refers to factor indices.
    """
    if not isinstance(data, dict):
        raise ReportAuditError("report is not a JSON object")
    try:
        _audit_witnesses(G, data, pms, pm_cap)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise ReportAuditError(
            f"report {data.get('id')}: missing or mistyped field "
            f"({type(exc).__name__}: {exc})") from exc


def _audit_witnesses(G: CubicGraph, data: dict,
                     pms: Optional[Sequence[EdgeSet]], pm_cap: int) -> None:
    def fail(msg: str):
        raise ReportAuditError(f"report {data.get('id')}: {msg}")

    def as_set(indices) -> EdgeSet:
        try:
            return G.edge_set(indices)
        except ValueError as exc:
            fail(str(exc))

    def check_factors(arrays, what: str) -> List[EdgeSet]:
        sets = [as_set(a) for a in arrays]
        for i, s in enumerate(sets):
            if not is_perfect_matching(G, s):
                fail(f"{what}: factor {i} is not a perfect matching")
        return sets

    for k, wit in data.get("mu_witness", {}).items():
        sets = check_factors(wit["factors"], f"mu_{k}")
        if len(sets) != int(k):
            fail(f"mu_{k}: expected {k} factors")
        union = EdgeSet(G.m, 0)
        for s in sets:
            union = union | s
        uncovered = G.all_edges() - union
        if uncovered.indices() != wit["uncovered"]:
            fail(f"mu_{k}: uncovered set mismatch")
        if len(uncovered) != data["mu"][k]:
            fail(f"mu_{k}: recorded value {data['mu'][k]} != "
                 f"{len(uncovered)}")

    if data.get("fan_raspaud"):
        sets = check_factors(data["fan_raspaud"]["factors"], "fan_raspaud")
        if len(sets) != 3 or (sets[0] & sets[1] & sets[2]):
            fail("fan_raspaud: triple intersection is not empty")

    if data.get("fulkerson"):
        sets = check_factors(data["fulkerson"]["factors"], "fulkerson")
        if not verify_fulkerson(G, sets):
            fail("fulkerson: not every edge is covered exactly twice")

    for entry in data.get("cores", []):
        if pms is None:
            pms = enumerate_perfect_matchings(G, cap=pm_cap)
        if any(not 0 <= i < len(pms) for i in entry["factors"]):
            fail(f"core: factor index out of range 0..{len(pms) - 1}")
        i, j, l = entry["factors"]
        try:
            core = build_core(G, pms[i], pms[j], pms[l])
        except FactorError as exc:
            fail(f"core: {exc}")
        if (core.M.indices() != entry["M"]
                or core.U.indices() != entry["U"]
                or core.T.indices() != entry["T"]
                or core.k != entry["k"]):
            fail("core: M/U/T/k mismatch against rebuilt core")
        cls = classify_core(core)
        flags = (cls.is_cyclic, cls.is_bipartite, cls.is_bridgeless,
                 cls.is_empty)
        recorded = (entry["cyclic"], entry["bipartite"], entry["bridgeless"],
                    entry["empty"])
        if flags != recorded:
            fail("core: classification mismatch")

    for entry in data.get("covers", []):
        cycles = [as_set(a) for a in entry["cycles"]]
        target = as_set(entry["target"]) if "target" in entry else None
        cover = verify_cover(G, cycles, target=target)
        stats = (cover.length, cover.ced, cover.even, cover.count,
                 cover.valid)
        recorded = (entry["length"], entry["ced"], entry["even"],
                    entry["count"], entry["valid"])
        if stats != recorded:
            fail(f"cover {entry['kind']}: stats mismatch "
                 f"{stats} != {recorded}")
        if not cover.valid:
            fail(f"cover {entry['kind']}: recorded cover is invalid")


# ---------------------------------------------------------------------------
# Corpus ingestion and scanning.
# ---------------------------------------------------------------------------


def read_corpus(path: str, fmt: str = "mgf") -> List[Tuple[str, str]]:
    """Split a corpus file into (id, text) entries without parsing graphs.

    MGF: blocks separated by blank (empty or whitespace-only) lines, named
    by their first '#' comment, else mgf_<i> for the i-th block.
    graph6: one graph per non-blank line.
    """
    with open(path) as fh:
        raw = fh.read()
    entries: List[Tuple[str, str]] = []
    if fmt == "mgf":
        for i, block in enumerate(re.split(r"\n[^\S\n]*\n", raw)):
            if not block.strip():
                continue
            name = f"mgf_{i}"
            for line in block.splitlines():
                if line.startswith("#"):
                    name = line[1:].strip() or name
                    break
            entries.append((name, block))
    elif fmt == "graph6":
        for i, line in enumerate(raw.splitlines()):
            if line.strip():
                entries.append((f"g6_{i}", line.strip()))
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return entries


def parse_entry(text: str, fmt: str) -> CubicGraph:
    return parse_edge_list(text) if fmt == "mgf" else parse_graph6(text)


def _scan_one(item: Tuple[str, str, str, AnalyzeOptions]) -> dict:
    name, text, fmt, options = item
    try:
        G = parse_entry(text, fmt)
    except (GraphFormatError, NotCubicError, GraphTooLargeError) as exc:
        return {"id": name, "error": f"{type(exc).__name__}: {exc}"}
    return analyze(G, options, id=name).to_dict()


def scan(
    corpus_path: str,
    options: AnalyzeOptions = AnalyzeOptions(),
    fmt: str = "mgf",
    workers: int = 1,
) -> Iterator[dict]:
    """Read the corpus and return an iterator that analyzes it lazily,
    yielding one report dict per entry, then a summary dict.

    A missing corpus file raises OSError and an id shared by two entries
    raises ValueError here, before any entry is analyzed.  Output order
    equals input order for any worker count; per-entry parse errors and
    graphs over the edge capacity become {"id", "error"} records and are
    counted in the summary.
    """
    entries = read_corpus(corpus_path, fmt)
    seen = set()
    for name, _ in entries:
        if name in seen:
            raise ValueError(f"duplicate id {name!r} in corpus")
        seen.add(name)
    items = [(name, text, fmt, options) for name, text in entries]
    return _with_summary(_scan_items(items, workers))


def _scan_items(items, workers: int) -> Iterator[dict]:
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_scan_one, items, chunksize=4)
    else:
        yield from map(_scan_one, items)


def _with_summary(results) -> Iterator[dict]:
    graphs = parse_errors = violations = timeouts = 0
    fr_found = fr_checked = fu_found = fu_checked = 0
    violating: List[str] = []
    for data in results:
        yield data
        if "error" in data and "n" not in data:
            parse_errors += 1
            continue
        graphs += 1
        if data["violations"]:
            violations += len(data["violations"])
            violating.append(data["id"])
        timeouts += sum(1 for v in data["errors"].values() if v == "timeout")
        for check in data["checks"]:
            if check["name"] == "fan_raspaud_exists":
                fr_checked += 1
                fr_found += check["passed"]
            elif check["name"] == "fulkerson_exists":
                fu_checked += 1
                fu_found += check["passed"]
    yield {
        "summary": {
            "graphs": graphs,
            "parse_errors": parse_errors,
            "violations": violations,
            "violating_graphs": violating,
            "timeouts": timeouts,
            "fan_raspaud_found": [fr_found, fr_checked],
            "fulkerson_found": [fu_found, fu_checked],
        }
    }


def report_lines(reports: Iterator[dict]) -> Iterator[str]:
    for data in reports:
        yield json.dumps(data, separators=(",", ":"))
