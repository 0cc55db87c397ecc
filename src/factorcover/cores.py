"""Cores of cubic graphs: construction, decomposition, classification,
and instance checks of their structure theorems.

For three pairwise-distinct 1-factors, M is the set of edges lying in at
least two of them, U the set of edges lying in none, and the core is the
subgraph induced by M | U.  k = |U|.  The counting identities
(|M| = k - |T|, |V| = 2k - 2|T|, |E| = 2k - |T| with T the triple
intersection) are theorems, so violations raise CoreInvariantError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .covers import fan_raspaud_indices
from .graphs import (
    CubicGraph,
    _cycle_labels,
    _girth,
    _levels,
    _two_coloring,
)
from .matching import (
    is_perfect_matching,
    is_three_edge_colorable,
    trace_circuits,
)


class CoreInvariantError(AssertionError):
    """A proved structural property failed; indicates an internal bug."""


class FactorError(ValueError):
    """Bad factor triple: not perfect matchings, or not pairwise distinct."""


@dataclass(frozen=True)
class CoreComponent:
    """One connected component of a core.

    kind is "even_circuit" or "cubic_subdivision".  For subdivisions,
    h_vertices/h_edges describe the cubic multigraph H obtained by
    suppressing bivalent vertices (loops and parallel edges allowed);
    h_edge_paths[i] lists the core edge indices forming the path that H
    edge i replaces, and estar_h are the H edge indices of the component's
    triple-intersection edges.
    """

    kind: str
    vertices: Tuple[int, ...]
    edges: int
    h_vertices: Optional[Tuple[int, ...]] = None
    h_edges: Optional[Tuple[Tuple[int, int], ...]] = None
    h_edge_paths: Optional[Tuple[Tuple[int, ...], ...]] = None
    estar_h: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class Core:
    """The core of G with respect to three pairwise-distinct 1-factors;
    every edge set is an int bitmask over G's edge indices."""

    graph: CubicGraph
    factors: Tuple[int, int, int]
    M: int  # edges in >= 2 factors
    U: int  # edges in no factor
    T: int  # edges in all three factors
    k: int  # |U|
    vertices: Tuple[int, ...]
    edge_indices: int  # M | U

    @property
    def is_empty(self) -> bool:
        return not self.edge_indices


@dataclass(frozen=True)
class CoreClassification:
    components: Tuple[CoreComponent, ...]
    is_cyclic: bool
    is_bipartite: bool
    is_bridgeless: bool
    is_empty: bool


def build_core(G: CubicGraph, M1: int, M2: int, M3: int) -> Core:
    for i, f in enumerate((M1, M2, M3)):
        if not is_perfect_matching(G, f):
            raise FactorError(f"factor {i + 1} is not a perfect matching of G")
    if M1 == M2 or M1 == M3 or M2 == M3:
        raise FactorError("factors must be pairwise distinct")
    none, _, two, three = _levels((1 << G.m) - 1, [M1, M2, M3])
    sub = none | two | three
    core = Core(
        graph=G,
        factors=(M1, M2, M3),
        M=two | three,
        U=none,
        T=three,
        k=none.bit_count(),
        vertices=tuple(v for v, star in enumerate(G.stars) if star & sub),
        edge_indices=sub,
    )
    _assert_core_invariants(core)
    return core


def _assert_core_invariants(core: Core) -> None:
    k, t = core.k, core.T.bit_count()
    if core.M & core.U:
        raise CoreInvariantError("M and U intersect")
    if core.M.bit_count() != k - t:
        raise CoreInvariantError(
            f"|M| = {core.M.bit_count()} != k - |T| = {k - t}")
    if len(core.vertices) != 2 * k - 2 * t:
        raise CoreInvariantError(
            f"|V(G_c)| = {len(core.vertices)} != 2k - 2|T| = {2 * k - 2 * t}"
        )
    edges = core.edge_indices.bit_count()
    if edges != 2 * k - t:
        raise CoreInvariantError(
            f"|E(G_c)| = {edges} != 2k - |T| = {2 * k - t}")
    # M is a perfect matching of the core subgraph, and degrees are 2 or 3:
    # 3 exactly at endpoints of T-edges
    for v in core.vertices:
        star = core.graph.stars[v]
        if (star & core.M).bit_count() != 1:
            raise CoreInvariantError(f"M does not meet vertex {v} once")
        deg = (star & core.edge_indices).bit_count()
        if deg != (3 if star & core.T else 2):
            raise CoreInvariantError(f"vertex {v} has core degree {deg}")


def classify_core(core: Core) -> CoreClassification:
    """Decompose the core into components and classify each one.

    Every component is an even circuit or a subdivision of a cubic
    multigraph whose suppressed triple-intersection edges form a 1-factor
    (violations raise CoreInvariantError).  The empty core is classified
    cyclic vacuously, with is_empty set.

    One BFS forest of the core answers everything: its trees are the
    components, its depth parity the bipartiteness and its cycle labels
    the bridges.
    """
    G = core.graph
    mask = core.edge_indices
    order, _, depth, label = _cycle_labels(G, mask, core.vertices)
    trees: List[List[int]] = []
    for v in order:
        if depth[v] == 0:
            trees.append([])
        trees[-1].append(v)
    components: List[CoreComponent] = []
    for comp_vertices in map(sorted, trees):
        comp_bits = 0
        for v in comp_vertices:
            comp_bits |= G.stars[v]
        comp_edges = comp_bits & mask
        classify = (_classify_circuit
                    if all((G.stars[v] & mask).bit_count() == 2
                           for v in comp_vertices)
                    else _classify_subdivision)
        components.append(classify(core, comp_vertices, comp_edges))
    return CoreClassification(
        components=tuple(components),
        is_cyclic=all(c.kind == "even_circuit" for c in components),
        is_bipartite=_two_coloring(G, mask, depth) is not None,
        is_bridgeless=0 not in label,
        is_empty=core.is_empty,
    )


def _classify_circuit(
    core: Core, comp_vertices: Sequence[int], edges: int
) -> CoreComponent:
    circuits = trace_circuits(core.graph, edges)
    if len(circuits) != 1:
        raise CoreInvariantError("2-regular component is not a single circuit")
    circ = circuits[0]
    if len(circ) % 2 != 0:
        raise CoreInvariantError("circuit component has odd length")
    # edges must alternate between M and U along the circuit
    in_m = [core.M >> i & 1 for i in circ]
    for a, b in zip(in_m, in_m[1:] + in_m[:1]):
        if a == b:
            raise CoreInvariantError("circuit does not alternate M/U")
    return CoreComponent(
        kind="even_circuit", vertices=tuple(comp_vertices), edges=edges
    )


def _classify_subdivision(
    core: Core, comp_vertices: Sequence[int], edges: int
) -> CoreComponent:
    """Suppress bivalent vertices along maximal paths to obtain H."""
    G = core.graph
    mask = core.edge_indices
    inc = {
        v: [f for f in G.incidence[v] if mask >> f & 1] for v in comp_vertices
    }
    trivalent = sorted(v for v in comp_vertices if len(inc[v]) == 3)
    if not trivalent:
        raise CoreInvariantError("subdivision component without trivalent vertex")
    h_index = {v: i for i, v in enumerate(trivalent)}
    h_edges: List[Tuple[int, int]] = []
    h_paths: List[Tuple[int, ...]] = []
    seen_edges = set()
    for v in trivalent:
        for start in inc[v]:
            if start in seen_edges:
                continue
            # walk from v along start until the next trivalent vertex
            path = [start]
            seen_edges.add(start)
            cur = G.other_end(start, v)
            prev = start
            while len(inc[cur]) == 2:
                nxt = inc[cur][0] if inc[cur][0] != prev else inc[cur][1]
                path.append(nxt)
                seen_edges.add(nxt)
                cur = G.other_end(nxt, cur)
                prev = nxt
            h_edges.append((h_index[v], h_index[cur]))
            h_paths.append(tuple(path))
    # H must be cubic (loops count twice)
    h_deg = [0] * len(trivalent)
    for a, b in h_edges:
        h_deg[a] += 1
        h_deg[b] += 1
    if any(d != 3 for d in h_deg):
        raise CoreInvariantError("suppressed multigraph H is not cubic")
    # the component's T-edges are single-edge paths; they must form a
    # 1-factor of H
    estar_h = tuple(
        i
        for i, path in enumerate(h_paths)
        if len(path) == 1 and core.T >> path[0] & 1
    )
    covered = set()
    for i in estar_h:
        a, b = h_edges[i]
        if a == b or a in covered or b in covered:
            raise CoreInvariantError("E* is not a matching of H")
        covered.add(a)
        covered.add(b)
    if covered != set(range(len(trivalent))):
        raise CoreInvariantError("E* is not a 1-factor of H")
    return CoreComponent(
        kind="cubic_subdivision",
        vertices=tuple(comp_vertices),
        edges=edges,
        h_vertices=tuple(trivalent),
        h_edges=tuple(h_edges),
        h_edge_paths=tuple(h_paths),
        estar_h=estar_h,
    )


def find_core(G: CubicGraph, pms: Sequence[int]) -> Optional[Core]:
    """First cyclic core over the triples of pms (the list from
    enumerate_perfect_matchings(G)) in lexicographic index order, or None.

    A core vertex has core degree 3 exactly when it ends an edge of the
    triple intersection T (build_core asserts this), so every component
    is a circuit, and the core is cyclic, exactly when T is empty: the
    first cyclic core is the core of the first Fan-Raspaud triple.
    """
    found = fan_raspaud_indices(G, pms)
    if found is None:
        return None
    i, j, l = found
    return build_core(G, pms[i], pms[j], pms[l])


def verify_core_theorems(
    core: Core, classification: CoreClassification
) -> List[dict]:
    """Instance checks of the core structure theorems, for reports and the
    property suite, as {"name", "passed", "measured"} records;
    classification is classify_core(core).  Empty cores pass the
    girth/component checks vacuously.
    """
    G = core.graph
    results: List[dict] = []

    def check(name: str, passed: bool, measured: Dict[str, object]) -> None:
        results.append({"name": name, "passed": passed, "measured": measured})

    k, t = core.k, core.T.bit_count()
    edges = core.edge_indices.bit_count()
    check("counting_identities",
          core.M.bit_count() == k - t
          and len(core.vertices) == 2 * k - 2 * t
          and edges == 2 * k - t,
          {"k": k, "t": t, "edges": edges})
    g_c = _girth(G, core.edge_indices)
    check("girth_le_2k", g_c is None or g_c <= 2 * k,
          {"core_girth": g_c, "k": k})
    comp_count = len(classification.components)
    check("components_le_2k_over_girth",
          g_c is None or comp_count <= (2 * k) / g_c,
          {"components": comp_count, "core_girth": g_c, "k": k})
    if k < 3:
        colorable, _ = is_three_edge_colorable(G)
        check("k_lt_3_implies_3_edge_colorable", colorable, {"k": k})
    if classification.is_bipartite:
        bridges: List[int] = []
        if not classification.is_bridgeless:
            label = _cycle_labels(G, core.edge_indices, core.vertices)[3]
            bridges = [e for e, x in enumerate(label) if x == 0]
        check("bipartite_implies_bridgeless", classification.is_bridgeless,
              {"bridges": bridges})
    return results
