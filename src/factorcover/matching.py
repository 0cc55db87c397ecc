"""Perfect matchings, edge colorings, and oddness of cubic graphs.

All searches are exact backtracking with deterministic branch order (lowest
edge index first), so witnesses are reproducible.  A 1-factor, like every
edge set, is an int bitmask over G's edge indices.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .graphs import CubicGraph, _bfs, _indices

DEFAULT_PM_CAP = 1_000_000


class PMCapExceededError(RuntimeError):
    """More perfect matchings than the configured cap; never truncated."""


class NoPerfectMatchingError(ValueError):
    """Graph has no perfect matching (equivalently, no 2-factor)."""


def is_perfect_matching(G: CubicGraph, edges: int) -> bool:
    """False also for a mask with a bit at or above m, or a negative one."""
    return not edges >> G.m and all(
        (star & edges).bit_count() == 1 for star in G.stars)


class _PrefixFull(Exception):
    """The prefix that enumerate_perfect_matchings was asked for is whole."""


def enumerate_perfect_matchings(
    G: CubicGraph, cap: int = DEFAULT_PM_CAP, stop: Optional[int] = None
) -> List[int]:
    """All perfect matchings, in lexicographic edge-index order, or with
    stop only the first min(p, stop) of them, the same prefix of the list.

    Branches on the lowest-indexed uncovered vertex and tries its incident
    edges in index order.  The matchings below a search node depend only on
    covered, the set of vertices matched so far: the first visit to a state
    appends them to out as one block, each one that visit's prefix old | a
    tail on the uncovered vertices.  A later visit with prefix chosen
    replays the block as x ^ (old ^ chosen) for each x in it, which is
    tail | chosen, so the list and its order are those of the plain search.

    A finished state is remembered only while the memo holds fewer than
    4n + len(out) // 8 states.  An entry costs about five times a matching
    in out, so the memo stays O(n + len(out)) and adds at most about two
    thirds to the memory of the list, even where the states outnumber the
    matchings (the prisms, labelled round each circuit).  The cap, or a
    stop below it, is checked before each leaf and each replayed block,
    so the list never grows past either: PMCapExceededError is raised
    exactly when the list asked for would hold more than cap matchings.
    A stop copies only the part of a block that it needs, and unwinds
    once a block completes the prefix or a leaf falls past it.
    """
    n = G.n
    full = (1 << n) - 1
    end_bits = [1 << a | 1 << b for a, b in G.edges]
    # arms[v]: (the bits of v and its neighbour, the edge bit) per edge at v
    arms = [[(end_bits[f], 1 << f) for f in inc] for inc in G.incidence]
    out: List[int] = []
    done = {}  # state -> (its prefix, block start, block end)
    capped = stop is None or stop > cap  # else the prefix fits under cap
    limit = cap if capped else stop
    past_limit = PMCapExceededError if capped else _PrefixFull

    def rec(covered: int, chosen: int) -> None:
        v = ((covered + 1) & ~covered).bit_length() - 1  # lowest uncovered
        for ends, bit in arms[v]:
            if covered & ends:
                continue
            nxt, pick = covered | ends, chosen | bit
            if nxt == full:
                if len(out) >= limit:
                    raise past_limit(f"more than {cap} perfect matchings")
                out.append(pick)
                continue
            block = done.get(nxt)
            if block is None:
                start = len(out)
                rec(nxt, pick)
                if len(done) < 4 * n + len(out) // 8:
                    done[nxt] = pick, start, len(out)
                continue
            old, start, end = block
            if len(out) + (end - start) > limit:
                if capped:
                    raise past_limit(f"more than {cap} perfect matchings")
                end = start + limit - len(out)  # the prefix ends in here
            d = old ^ pick
            out.extend([x ^ d for x in out[start:end]])
            if len(out) == stop:  # else the walk goes on, copying nothing
                raise _PrefixFull

    try:
        rec(0, 0)
    except _PrefixFull:
        pass
    finally:
        del rec  # rec's closure refers to rec: break that cycle
    return out


def trace_circuits(G: CubicGraph, cycle: int) -> List[List[int]]:
    """Split a cycle (edge set with all degrees 0 or 2) into circuits.

    Each circuit is a list of edge indices in traversal order, starting from
    the lowest unvisited index; ties at a vertex break lowest-index-first.
    """
    seen = [False] * G.m
    circuits: List[List[int]] = []
    for start in _indices(cycle):
        if seen[start]:
            continue
        circuit = [start]
        seen[start] = True
        u0, v = G.edges[start]
        prev = start
        while v != u0:
            for f in G.incidence[v]:
                if cycle >> f & 1 and f != prev and not seen[f]:
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
    order = _bfs(G, (1 << G.m) - 1, range(G.n))[0]
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

    try:
        found = rec(0, -1, 0)
    finally:
        del rec  # rec's closure refers to rec: break that cycle
    return color if found else None


def is_three_edge_colorable(
    G: CubicGraph,
) -> Tuple[bool, Optional[Tuple[int, int, int]]]:
    """Exact proper 3-edge-coloring search.

    Returns (True, (M_a, M_b, M_c)) with the three color classes as disjoint
    perfect matchings partitioning E(G), or (False, None).
    """
    color = _edge_coloring(G, 0)
    if color is None:
        return False, None
    classes = [0, 0, 0]
    for i, c in enumerate(color):
        classes[c] |= 1 << i
    return True, tuple(classes)


def oddness(G: CubicGraph, pms: Sequence[int]) -> int:
    """Minimum number of odd circuits over all 2-factors (exact, full scan
    of pms, the list from enumerate_perfect_matchings(G))."""
    if not pms:
        raise NoPerfectMatchingError("graph has no perfect matching")
    full = (1 << G.m) - 1
    best = None
    for pm in pms:
        odd = sum(1 for c in trace_circuits(G, full & ~pm) if len(c) % 2)
        if best is None or odd < best:
            best = odd
            if best == 0:
                break
    return best


def exists_4ec_with_class_of_size(G: CubicGraph, s: int) -> bool:
    """Is there a proper 4-edge-coloring with a color class of exactly s
    edges?"""
    return _edge_coloring(G, s) is not None
