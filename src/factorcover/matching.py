"""Perfect matchings, edge colorings, 2-factors, and oddness of cubic graphs.

All searches are exact backtracking with deterministic branch order (lowest
edge index first), so witnesses are reproducible.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .graphs import CubicGraph, EdgeSet, _bfs

DEFAULT_PM_CAP = 1_000_000


class PMCapExceededError(RuntimeError):
    """More perfect matchings than the configured cap; never truncated."""


class NoPerfectMatchingError(ValueError):
    """Graph has no perfect matching (equivalently, no 2-factor)."""


def is_perfect_matching(G: CubicGraph, edges: EdgeSet) -> bool:
    return edges.m == G.m and all(
        (star & edges.bits).bit_count() == 1 for star in G.stars)


def enumerate_perfect_matchings(
    G: CubicGraph, cap: int = DEFAULT_PM_CAP
) -> List[EdgeSet]:
    """All perfect matchings, in lexicographic edge-index order.

    Branches on the lowest-indexed uncovered vertex and tries its incident
    edges in index order.  Raises PMCapExceededError rather than returning a
    silently truncated list.
    """
    n, edges, incidence = G.n, G.edges, G.incidence
    full = (1 << n) - 1
    out: List[EdgeSet] = []
    chosen: List[int] = []

    def rec(covered: int) -> None:
        if covered == full:
            if len(out) >= cap:
                raise PMCapExceededError(
                    f"more than {cap} perfect matchings"
                )
            out.append(G.edge_set(chosen))
            return
        free = (~covered) & full
        v = (free & -free).bit_length() - 1
        for f in incidence[v]:
            a, b = edges[f]
            w = b if v == a else a
            if covered & (1 << w):
                continue
            chosen.append(f)
            rec(covered | (1 << v) | (1 << w))
            chosen.pop()

    rec(0)
    return out


def trace_circuits(G: CubicGraph, cycle: EdgeSet) -> List[List[int]]:
    """Split a cycle (edge set with all degrees 0 or 2) into circuits.

    Each circuit is a list of edge indices in traversal order, starting from
    the lowest unvisited index; ties at a vertex break lowest-index-first.
    """
    member = [False] * G.m
    for i in cycle.indices():
        member[i] = True
    seen = [False] * G.m
    circuits: List[List[int]] = []
    for start in cycle.indices():
        if seen[start]:
            continue
        circuit = [start]
        seen[start] = True
        u0, v = G.edges[start]
        prev = start
        while v != u0:
            for f in G.incidence[v]:
                if member[f] and f != prev and not seen[f]:
                    circuit.append(f)
                    seen[f] = True
                    v = G.other_end(f, v)
                    prev = f
                    break
            else:  # pragma: no cover - guarded by cycle validity
                raise ValueError("edge set is not a cycle")
        circuits.append(circuit)
    return circuits


def _edge_order_bfs(G: CubicGraph) -> List[int]:
    """Edge ordering where each edge touches an earlier one when possible:
    the edges at each vertex in BFS order, each edge where first seen."""
    order = _bfs(G, G.all_edges().bits, range(G.n))[0]
    return list(dict.fromkeys(f for v in order for f in G.incidence[v]))


def _edge_coloring(G: CubicGraph, s: int) -> Optional[List[int]]:
    """Proper edge coloring with colors 0..3 whose color 3 has exactly s
    edges, as a color per edge index, or None; s = 0 is a 3-edge-coloring.

    Edges are colored in _edge_order_bfs order.  Colors 0..2 are
    interchangeable, so a fresh one is introduced only in increasing order;
    this loses no colorings up to relabeling those classes.
    """
    order = _edge_order_bfs(G)
    m = G.m
    color = [-1] * m
    used_at = [0] * G.n  # bitmask of colors present at each vertex

    def rec(pos: int, max_used: int, count3: int) -> bool:
        if count3 + (m - pos) < s:
            return False
        if pos == m:
            return count3 == s
        f = order[pos]
        u, v = G.edges[f]
        forbidden = used_at[u] | used_at[v]
        fresh = range(min(max_used + 1, 2) + 1)
        for c in fresh if count3 == s else (*fresh, 3):
            bit = 1 << c
            if forbidden & bit:
                continue
            color[f] = c
            used_at[u] |= bit
            used_at[v] |= bit
            if c == 3:
                found = rec(pos + 1, max_used, count3 + 1)
            else:
                found = rec(pos + 1, max(max_used, c), count3)
            if found:
                return True
            used_at[u] &= ~bit
            used_at[v] &= ~bit
        return False

    return color if rec(0, -1, 0) else None


def is_three_edge_colorable(
    G: CubicGraph,
) -> Tuple[bool, Optional[Tuple[EdgeSet, EdgeSet, EdgeSet]]]:
    """Exact proper 3-edge-coloring search.

    Returns (True, (M_a, M_b, M_c)) with the three color classes as disjoint
    perfect matchings partitioning E(G), or (False, None).
    """
    color = _edge_coloring(G, 0)
    if color is None:
        return False, None
    classes = tuple(
        G.edge_set(i for i in range(G.m) if color[i] == c) for c in range(3)
    )
    return True, classes


def oddness(G: CubicGraph, pms: Sequence[EdgeSet]) -> int:
    """Minimum number of odd circuits over all 2-factors (exact, full scan
    of pms, the list from enumerate_perfect_matchings(G))."""
    if not pms:
        raise NoPerfectMatchingError("graph has no perfect matching")
    best = None
    for pm in pms:
        odd = sum(1 for c in trace_circuits(G, G.all_edges() - pm)
                  if len(c) % 2)
        if best is None or odd < best:
            best = odd
            if best == 0:
                break
    return best


def exists_4ec_with_class_of_size(G: CubicGraph, s: int) -> bool:
    """Is there a proper 4-edge-coloring with a color class of exactly s
    edges?"""
    return _edge_coloring(G, s) is not None
