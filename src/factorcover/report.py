"""Per-graph analysis pipeline and JSON-lines corpus reports.

analyze() drives every other module over a single graph and produces a
GraphReport whose witnesses are re-verified from scratch before they are
serialized.  scan() maps analyze() over a corpus file (MGF blocks or
graph6 lines), optionally with a process pool, preserving input order so
that identical inputs yield byte-identical output.
"""

from __future__ import annotations

import functools
import json
import marshal
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .cores import (
    Core,
    CoreClassification,
    FactorError,
    build_core,
    classify_core,
    find_core,
    verify_core_theorems,
)
from .covers import (
    MAX_K,
    Matchings,
    fulkerson_witness,
    mu_k,
    verify_fulkerson,
)
from .cyclecovers import (
    DEFAULT_SCC_DIM_CAP,
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
    GraphFormatError,
    GraphTooLargeError,
    NotCubicError,
    _indices,
    _mask,
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
# the ops that read the perfect matching list, in ALL_OPS order
_PM_OPS = ("mu", "oddness", "fan_raspaud", "fulkerson", "core", "covers")
# the report keys that an op fills whenever it runs (_ran) and leaves
# null or empty when it does not; the audit checks both
_OP_KEYS = {
    "structure": ("girth", "bridgeless", "bipartite", "nontrivial_3_cut",
                  "hamiltonian"),
    "hypohamiltonian": ("hypohamiltonian",),
    "mu": ("mu", "mu_witness"),
    "oddness": ("oddness",),
    "core": ("cores",),
}


class ReportAuditError(AssertionError):
    """A serialized witness failed re-verification against its graph."""


@dataclass(frozen=True)
class AnalyzeOptions:
    """Which fields analyze() computes, and its resource limits."""

    ops: Tuple[str, ...] = DEFAULT_OPS
    mu_upto: int = 4
    pm_cap: int = DEFAULT_PM_CAP
    scc_dim_cap: int = DEFAULT_SCC_DIM_CAP
    timings: bool = False

    def __post_init__(self):
        unknown = set(self.ops) - set(ALL_OPS)
        if unknown:
            raise ValueError(f"unknown ops: {sorted(unknown)}")
        if not 1 <= self.mu_upto <= MAX_K:
            raise ValueError(f"mu_upto must be between 1 and {MAX_K}")
        if self.pm_cap < 1:
            raise ValueError("pm_cap must be at least 1")
        if self.scc_dim_cap < 0:
            raise ValueError("scc_dim_cap must be at least 0")


@dataclass
class GraphReport:
    """All computed invariants, witnesses, and theorem checks for a graph.

    The fields are declared in report key order.  Each entry of
    mu_witness, fan_raspaud, fulkerson, cores and covers is built by one
    function below, which the audit calls again to rebuild the entry and
    compare it whole; witnesses hold sorted edge-index arrays, and cores
    and indexed factors also hold factor indices into the deterministic
    matching enumeration.  checks lists {name, passed, measured}; any
    failed check is a counterexample candidate and appears in violations.
    """

    id: str
    n: int
    m: int
    girth: Optional[int] = None
    bridgeless: Optional[bool] = None
    bipartite: Optional[bool] = None
    nontrivial_3_cut: Optional[bool] = None
    hamiltonian: Optional[bool] = None
    mu: Dict[str, int] = field(default_factory=dict)
    mu_witness: Dict[str, dict] = field(default_factory=dict)
    fan_raspaud: Optional[dict] = None
    cores: List[dict] = field(default_factory=list)
    covers: List[dict] = field(default_factory=list)
    checks: List[dict] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    errors: Dict[str, str] = field(default_factory=dict)
    # left out of the report while None
    hypohamiltonian: Optional[bool] = None
    oddness: Optional[int] = None
    fulkerson: Optional[dict] = None
    timings_ms: Optional[Dict[str, float]] = None

    def to_dict(self) -> dict:
        # __init__ sets the attributes in field order
        return {key: value for key, value in vars(self).items()
                if value is not None or key not in _OMITTED_WHEN_NONE}


_OMITTED_WHEN_NONE = ("hypohamiltonian", "oddness", "fulkerson", "timings_ms")


def _mu_dict(G: CubicGraph, factors: Sequence[int]) -> dict:
    union = 0
    for f in factors:
        union |= f
    return {"factors": [_indices(f) for f in factors],
            "uncovered": _indices((1 << G.m) - 1 & ~union)}


def _factors_dict(indices: Sequence[int], pms: Sequence[int]) -> dict:
    return {"factor_indices": list(indices),
            "factors": [_indices(pms[i]) for i in indices]}


def _core_dict(factors: Sequence[int], core: Core,
               cls: CoreClassification) -> dict:
    return {
        "factors": list(factors),
        "k": core.k,
        "M": _indices(core.M),
        "U": _indices(core.U),
        "T": _indices(core.T),
        "components": [{"kind": c.kind, "vertices": list(c.vertices),
                        "edges": _indices(c.edges)} for c in cls.components],
        "cyclic": cls.is_cyclic,
        "bipartite": cls.is_bipartite,
        "bridgeless": cls.is_bridgeless,
        "empty": cls.is_empty,
    }


def _cover_dict(kind: str, cover) -> dict:
    return {
        "kind": kind,
        "cycles": [_indices(c) for c in cover.cycles],
        "length": cover.length,
        "ced": cover.ced,
        "even": cover.even,
        "count": cover.count,
        "valid": cover.valid,
    }


class _Step:
    """One op of analyze(): time its block into timings[name], and record
    a pm_cap or scc_dim_cap overrun in errors[name] instead of raising."""

    __slots__ = ("timings", "errors", "name", "t0")

    def __init__(self, timings: Dict[str, float], errors: Dict[str, str],
                 name: str):
        self.timings = timings
        self.errors = errors
        self.name = name

    def __enter__(self) -> None:
        self.t0 = time.monotonic()

    def __exit__(self, kind, value, traceback) -> bool:
        self.timings[self.name] = round(
            (time.monotonic() - self.t0) * 1000.0, 3)
        if kind is None:
            return False
        if issubclass(kind, PMCapExceededError):
            self.errors[self.name] = "pm_cap_exceeded"
        elif issubclass(kind, DimensionCapExceededError):
            self.errors[self.name] = "dim_cap_exceeded"
        else:
            return False
        return True


def analyze(
    G: CubicGraph, options: AnalyzeOptions = AnalyzeOptions(), id: str = "g0"
) -> GraphReport:
    """Compute every requested field of the report in one pass of timed
    steps, one per op; never raises for the pm_cap and scc_dim_cap
    limits, which are recorded in errors."""
    ops = set(options.ops)
    report = GraphReport(id=id, n=G.n, m=G.m)
    report.skipped = [op for op in ALL_OPS if op not in ops]
    timings: Dict[str, float] = {}
    step = functools.partial(_Step, timings, report.errors)

    if "structure" in ops:
        with step("structure"):
            report.girth = girth(G)
            report.bridgeless = is_bridgeless(G)
            report.bipartite = is_bipartite(G)[0]
            try:
                report.nontrivial_3_cut = has_nontrivial_3_edge_cut(G)[0]
            except ValueError:
                report.errors["nontrivial_3_cut"] = "disconnected"
            report.hamiltonian = is_hamiltonian(G)

    if "hypohamiltonian" in ops:
        with step("hypohamiltonian"):
            report.hypohamiltonian = is_hypohamiltonian(G)

    pms: Optional[List[int]] = None
    if ops & set(_PM_OPS):
        with step("matchings"):
            pms = enumerate_perfect_matchings(G, cap=options.pm_cap)
        if pms == []:
            report.errors["matchings"] = "no_perfect_matching"
    # the ops that read the matchings run only when there is one
    needs_pms = ops & set(_PM_OPS) if pms else set()
    # the tables the searches share, each built by the first that needs it
    matchings = Matchings(G, pms or [])

    mu_witnesses: Dict[int, object] = {}
    if "mu" in needs_pms:
        for k in range(1, options.mu_upto + 1):
            # mu_1's witness is (0,), whose subtree mu_2 scores first anyway
            after = (mu_witnesses.get(k - 1)
                     if matchings.use_orbits and k >= 3 else None)
            with step(f"mu_{k}"):
                value, witness = mu_k(G, k, matchings, after=after)
                report.mu[str(k)] = value
                report.mu_witness[str(k)] = _mu_dict(G, witness.factors)
                mu_witnesses[k] = witness

    if "oddness" in needs_pms:
        with step("oddness"):
            report.oddness = oddness(G, pms)

    if "fan_raspaud" in needs_pms:
        with step("fan_raspaud"):
            found = matchings.fan_raspaud
            if found is not None:
                report.fan_raspaud = _factors_dict(found, pms)

    if "fulkerson" in needs_pms:
        with step("fulkerson"):
            witness = fulkerson_witness(G, matchings)
            if witness is not None:
                report.fulkerson = _factors_dict(witness.factor_indices, pms)

    built_cores: List[Tuple[Core, CoreClassification]] = []
    if "core" in needs_pms:
        with step("core"):
            if len(pms) < 3:
                report.errors["core"] = "fewer_than_three_matchings"
            else:
                core = build_core(G, *pms[:3])
                cls = classify_core(core)
                built_cores.append((core, cls))
                report.cores.append(_core_dict((0, 1, 2), core, cls))
                for check in verify_core_theorems(core, cls):
                    report.checks.append(
                        dict(check, name=f"core_{check['name']}"))

    if "covers" in needs_pms:
        with step("covers"):
            colorable, coloring = is_three_edge_colorable(G)
            if colorable:
                report.covers.append(
                    _cover_dict("canonical", canonical_cover(G, coloring))
                )
            cyclic_core = find_core(G, matchings)
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

    if "scc" in ops:
        # no check may compare scc with 4m/3: scc_exact prunes with it
        with step("scc"):
            try:
                cover = scc_exact(G, dim_cap=options.scc_dim_cap)
            except CoverConstructionError:  # G has a bridge
                report.errors["scc"] = "no_cycle_cover"
            else:
                report.covers.append(_cover_dict("scc_exact", cover))

    _theorem_checks(G, report)
    report.violations = [c["name"] for c in report.checks if not c["passed"]]
    if options.timings:
        report.timings_ms = timings

    audit_report(G, report.to_dict(), pms=pms, cores=built_cores)
    return report


def _ran(op: str, skipped: Sequence[str], errors: Dict[str, str]) -> bool:
    """Did op run without an error, by a report's skipped and errors?  An
    op of _PM_OPS whose matchings were never enumerated did not run."""
    return (op not in skipped and op not in errors
            and not (op in _PM_OPS and "matchings" in errors))


def _theorem_checks(G: CubicGraph, report: GraphReport) -> None:
    """Instance checks of the bound and conjecture statements that the
    computed fields make decidable for this graph."""
    def check(name: str, passed: bool, measured: Dict[str, object]) -> None:
        report.checks.append({"name": name, "passed": passed,
                              "measured": measured})

    m, skipped, errors = G.m, report.skipped, report.errors
    # the mu3 bounds and the existence statements hold for bridgeless G
    bridgeless = (report.bridgeless if report.bridgeless is not None
                  else is_bridgeless(G))
    mu3 = report.mu.get("3")
    if mu3 is not None and bridgeless:
        check("mu3_zero_or_ge_3", mu3 == 0 or mu3 >= 3, {"mu3": mu3})
        check("mu3_le_8m_over_35", 35 * mu3 <= 8 * m, {"mu3": mu3, "m": m})
        if report.girth is not None and mu3 > 0:
            check("girth_le_2mu3", report.girth <= 2 * mu3,
                  {"girth": report.girth, "mu3": mu3})
    if bridgeless and _ran("fan_raspaud", skipped, errors):
        check("fan_raspaud_exists", report.fan_raspaud is not None, {})
    fulkerson_ran = _ran("fulkerson", skipped, errors)
    if bridgeless and fulkerson_ran:
        check("fulkerson_exists", report.fulkerson is not None, {})
    if (fulkerson_ran and mu3 is not None and mu3 <= 4
            and report.nontrivial_3_cut is False):
        check("fulkerson_when_no_3cut_and_mu3_le_4",
              report.fulkerson is not None, {"mu3": mu3})
    # stated for graphs that are not 3-edge-colourable: oddness > 0
    if report.oddness and bridgeless:
        has_class2 = exists_4ec_with_class_of_size(G, 2)
        check("oddness2_iff_4ec_class_of_2",
              (report.oddness == 2) == has_class2,
              {"oddness": report.oddness, "class_of_2": has_class2})


# ---------------------------------------------------------------------------
# Witness re-verification (used before serialization and by `verify`).
# ---------------------------------------------------------------------------


def audit_report(
    G: CubicGraph,
    data: dict,
    pms: Optional[Sequence[int]] = None,
    pm_cap: int = DEFAULT_PM_CAP,
    cores: Optional[Sequence[Tuple[Core, CoreClassification]]] = None,
) -> None:
    """Re-verify every witness in a serialized report against the graph.

    Each entry of mu_witness, fan_raspaud, fulkerson, cores and covers is
    rebuilt by the function that analyze() wrote it with, and must equal
    the rebuilt entry key for key and type for type (_same): a mu witness
    and a cover from their own edge sets, the Fan-Raspaud and Fulkerson
    factors and a core from the matchings their factor indices name.
    Every cover is checked against E(G), and the keys each op fills must
    hold a value exactly when the op ran (_OP_KEYS).  Raises
    ReportAuditError on the first mismatch, and when a field it reads is
    missing or of the wrong type.  pms may be passed to reuse an existing
    enumeration.  Otherwise it is computed only when a witness refers to
    factor indices, and then only the prefix up to the largest named
    index, at most once.  cores may be passed to reuse the (core,
    classification) pair behind each entry of data["cores"]; each pair
    must be built from the matchings its entry's indices name.  Without
    cores, each core is rebuilt and reclassified from pms.
    """
    if not isinstance(data, dict):
        raise ReportAuditError("report is not a JSON object")
    try:
        _audit_witnesses(G, data, pms, pm_cap, cores)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise ReportAuditError(
            f"report {data.get('id')}: missing or mistyped field "
            f"({type(exc).__name__}: {exc})") from exc


def _same(a, b) -> bool:
    """a == b, with JSON's 1, 1.0 and true apart: marshal writes each type,
    and a dict's keys in order, which JSON with sorted keys ignores."""
    return (marshal.dumps(a, 2) == marshal.dumps(b, 2)
            or json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True))


def _audit_witnesses(
    G: CubicGraph, data: dict, pms: Optional[Sequence[int]], pm_cap: int,
    cores: Optional[Sequence[Tuple[Core, CoreClassification]]],
) -> None:
    def fail(msg: str):
        raise ReportAuditError(f"report {data.get('id')}: {msg}")

    def as_set(indices) -> int:
        try:
            return _mask(G.m, indices)
        except ValueError as exc:
            fail(str(exc))

    def check_entry(rebuilt: dict, entry: dict, what: str) -> None:
        if not _same(rebuilt, entry):
            keys = sorted(key for key in rebuilt.keys() | entry.keys()
                          if key not in rebuilt or key not in entry
                          or not _same(rebuilt[key], entry[key]))
            fail(f"{what}: {', '.join(keys)} differ from the rebuilt entry")

    def check_indices(indices, what: str) -> None:
        nonlocal pms
        if pms is None:  # one prefix of the list serves every named index
            named = [i for key in ("fan_raspaud", "fulkerson")
                     if data.get(key) is not None
                     for i in data[key]["factor_indices"]]
            named += [i for entry in data["cores"] for i in entry["factors"]]
            if any(type(i) is not int for i in named):
                raise TypeError("a factor index is not an int")
            # a negative index fails against the range of the whole list
            stop = (None if min(named, default=0) < 0
                    else max(named, default=-1) + 1)
            pms = enumerate_perfect_matchings(G, cap=pm_cap, stop=stop)
        if any(not 0 <= i < len(pms) for i in indices):
            fail(f"{what}: factor index out of range 0..{len(pms) - 1}")

    def indexed_factors(key: str) -> List[int]:
        indices = data[key]["factor_indices"]
        check_indices(indices, key)
        check_entry(_factors_dict(indices, pms), data[key], key)
        return [pms[i] for i in indices]

    failed = [check["name"] for check in data["checks"]
              if not check["passed"]]
    if failed != data["violations"]:
        fail(f"violations {data['violations']} differ from the failed "
             f"checks {failed}")

    skipped, errors = data["skipped"], data["errors"]
    for op, keys in _OP_KEYS.items():
        ran = _ran(op, skipped, errors)
        for key in keys:
            value = data.get(key) if key in _OMITTED_WHEN_NONE else data[key]
            if key == "nontrivial_3_cut" and key in errors:
                continue  # a disconnected graph
            if (value not in (None, {}, [])) != ran:
                fail(f"{key}: {'missing' if ran else 'present'} though "
                     f"{op} {'ran' if ran else 'did not run'}")
    if list(data["mu"]) != [str(k) for k in range(1, len(data["mu"]) + 1)]:
        fail(f"mu: keys {list(data['mu'])} are not 1..K")
    if len(data["cores"]) > 1:
        fail(f"cores: {len(data['cores'])} entries, not at most one")

    witnesses = data["mu_witness"]
    tested = set()  # each distinct witness factor is tested once
    for k, wit in witnesses.items():
        factors = [as_set(a) for a in wit["factors"]]
        new = set(factors) - tested
        if (len(factors) != int(k)
                or not all(is_perfect_matching(G, f) for f in new)):
            fail(f"mu_{k}: not {k} perfect matchings")
        tested |= new
        rebuilt = _mu_dict(G, factors)
        check_entry(rebuilt, wit, f"mu_{k}")
        if not _same(data["mu"][k], len(rebuilt["uncovered"])):
            fail(f"mu_{k}: recorded value {data['mu'][k]!r} != "
                 f"{len(rebuilt['uncovered'])}")
    # every witness key has a value by now (data["mu"][k] above)
    if set(data["mu"]) != set(witnesses):
        fail("mu: a recorded value has no witness")

    if data.get("fan_raspaud") is not None:
        factors = indexed_factors("fan_raspaud")
        if len(factors) != 3 or (factors[0] & factors[1] & factors[2]):
            fail("fan_raspaud: triple intersection is not empty")

    if data.get("fulkerson") is not None:
        if not verify_fulkerson(G, indexed_factors("fulkerson")):
            fail("fulkerson: not every edge is covered exactly twice")

    entries = data["cores"]
    if cores is not None and len(cores) != len(entries):
        fail(f"cores: {len(entries)} entries for {len(cores)} built cores")
    for index, entry in enumerate(entries):
        check_indices(entry["factors"], "core")
        i, j, l = entry["factors"]
        if cores is None:
            try:
                core = build_core(G, pms[i], pms[j], pms[l])
            except FactorError as exc:
                fail(f"core: {exc}")
            cls = classify_core(core)
        else:
            core, cls = cores[index]
            if core.factors != (pms[i], pms[j], pms[l]):
                fail("core: factors differ from the indexed matchings")
        check_entry(_core_dict(entry["factors"], core, cls), entry, "core")

    for entry in data.get("covers", []):
        cover = verify_cover(G, [as_set(a) for a in entry["cycles"]])
        check_entry(_cover_dict(entry["kind"], cover), entry,
                    f"cover {entry['kind']}")
        if not cover.valid:
            fail(f"cover {entry['kind']}: recorded cover is invalid")

    kinds = [entry["kind"] for entry in data.get("covers", [])]
    rule = _implied_cover_kinds(data)
    if kinds != [kind for kind in rule if kind in kinds]:
        fail(f"covers: kinds {kinds} are not distinct kinds in the order "
             f"{', '.join(rule)}")
    for kind, implied in rule.items():
        if implied is not None and implied != (kind in kinds):
            fail(f"covers: {kind} is {'missing' if implied else 'present'}"
                 ", against the report's own fields")


def _implied_cover_kinds(data: dict) -> Dict[str, Optional[bool]]:
    """Whether a report's own fields require (True) or rule out (False)
    each cover kind, or None when they leave it open; the kinds are in
    the order analyze writes them.

    mu_3 = 0 exactly when G is 3-edge-colourable (canonical), and G has a
    cyclic core exactly when it has a Fan-Raspaud triple (core_extension;
    see find_core).
    """
    skipped, errors, mu = data["skipped"], data["errors"], data["mu"]
    covers = _ran("covers", skipped, errors)
    left_open = None if covers else False
    return {
        "canonical": covers and mu["3"] == 0 if "3" in mu else left_open,
        "core_extension": (covers and data["fan_raspaud"] is not None
                           if _ran("fan_raspaud", skipped, errors)
                           else left_open),
        "four_cover": covers and mu.get("4") == 0,
        "five_cdc": covers and mu.get("4") == 0,
        "scc_exact": _ran("scc", skipped, errors),
    }


# ---------------------------------------------------------------------------
# Corpus ingestion and scanning.
# ---------------------------------------------------------------------------


def read_corpus(path: str, fmt: str = "mgf") -> List[Tuple[str, str]]:
    """Split a corpus file into (id, text) entries without parsing graphs.

    MGF: blocks separated by blank (empty or whitespace-only) lines, named
    by their first '#' comment, else mgf_<i> for the i-th block.
    graph6: one graph per non-blank line, named g6_<i>.  An id shared by
    two entries raises ValueError, since reports name their graph by id.
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
    seen = set()
    for name, _ in entries:
        if name in seen:
            raise ValueError(f"duplicate id {name!r} in corpus")
        seen.add(name)
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

    A missing corpus file raises OSError, and an id shared by two entries
    (read_corpus) or a worker count below 1 raises ValueError, here, before
    any entry is analyzed.  Output order equals input order for any worker
    count; per-entry parse errors and graphs over the edge capacity become
    {"id", "error"} records and are counted in the summary.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    entries = read_corpus(corpus_path, fmt)
    items = [(name, text, fmt, options) for name, text in entries]
    return _with_summary(_scan_items(items, workers))


def _scan_items(items, workers: int) -> Iterator[dict]:
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_scan_one, items, chunksize=4)
    else:
        yield from map(_scan_one, items)


class ScanTally:
    """Running counts over the records of a scan, for its summary record.

    scan() ends its output with the summary of its own records, and
    `verify` recounts a report file's records to check that line.
    """

    def __init__(self) -> None:
        self.graphs = self.parse_errors = self.violations = 0
        self.fr_found = self.fr_checked = self.fu_found = self.fu_checked = 0
        self.violating: List[str] = []

    def add(self, data: dict) -> None:
        """Count one report, or one per-entry {"id", "error"} record."""
        if "error" in data and "n" not in data:
            self.parse_errors += 1
            return
        self.graphs += 1
        if data["violations"]:
            self.violations += len(data["violations"])
            self.violating.append(data["id"])
        for check in data["checks"]:
            if check["name"] == "fan_raspaud_exists":
                self.fr_checked += 1
                self.fr_found += check["passed"]
            elif check["name"] == "fulkerson_exists":
                self.fu_checked += 1
                self.fu_found += check["passed"]

    def summary(self) -> dict:
        return {
            "summary": {
                "graphs": self.graphs,
                "parse_errors": self.parse_errors,
                "violations": self.violations,
                "violating_graphs": self.violating,
                "fan_raspaud_found": [self.fr_found, self.fr_checked],
                "fulkerson_found": [self.fu_found, self.fu_checked],
            }
        }


def _with_summary(results) -> Iterator[dict]:
    tally = ScanTally()
    for data in results:
        yield data
        tally.add(data)
    yield tally.summary()


def report_lines(reports: Iterator[dict]) -> Iterator[str]:
    for data in reports:
        yield json.dumps(data, separators=(",", ":"))
