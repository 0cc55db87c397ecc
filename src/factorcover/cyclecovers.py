"""Cycle covers of cubic graphs: verification, the constructions built from
3-edge-colorings, cores, and 4-tuples of 1-factors, and an exact
shortest-cycle-cover oracle for small cycle spaces.

A cycle is an edge set inducing degree 0 or 2 at every vertex (a disjoint
union of circuits); it is even when all its circuits have even length.  The
length of a cover is the sum of its members' sizes, and ced is the maximum
number of members through a single edge.  Edge sets are int bitmasks over
G's edge indices.  The constructions return their cycles, and
verify_cover computes a cover's statistics and verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .graphs import (
    CubicGraph,
    _bfs,
    _indices,
    _levels,
    _two_coloring,
    cycle_space_basis,
)
from .matching import trace_circuits
from .cores import Core


#: Most cycles scc_exact may use in a cover.
SCC_MAX_CYCLES = 4

#: Largest cycle space dimension scc_exact searches by default: its work
#: doubles per dimension.  On a 2-core Xeon with Python 3.11 the 480 corpus
#: graphs of dimension 8 take about 1.4 s of CPU in all, J5 (dimension 11)
#: 0.04 s, and J7 (dimension 15) about 200 s.
DEFAULT_SCC_DIM_CAP = 10


class CoverConstructionError(ValueError):
    """Preconditions of a cover construction are violated."""


class DimensionCapExceededError(RuntimeError):
    """Cycle-space dimension too large for the exact oracle."""


@dataclass(frozen=True)
class CycleCover:
    """A family of cycles with its statistics and validity verdict."""

    cycles: Tuple[int, ...]
    length: int
    ced: int
    even: bool
    count: int
    valid: bool
    problems: Tuple[str, ...] = ()


def _is_cycle(G: CubicGraph, edges: int) -> bool:
    return all((star & edges).bit_count() in (0, 2) for star in G.stars)


def _is_even_cycle(G: CubicGraph, edges: int) -> bool:
    return all(len(c) % 2 == 0 for c in trace_circuits(G, edges))


def verify_cover(G: CubicGraph, cycles: Sequence[int]) -> CycleCover:
    """Compute all cover statistics; the verdict lists failures precisely.

    Every member must lie within E(G); the cover is valid when each one
    is a cycle and together they cover E(G).
    """
    full = (1 << G.m) - 1
    problems: List[str] = []
    members: List[int] = []
    even = True
    for pos, c in enumerate(cycles):
        if not _is_cycle(G, c):
            problems.append(f"member {pos} is not a cycle")
            continue
        if not _is_even_cycle(G, c):
            even = False
        members.append(c)
    levels = _levels(full, members)
    if levels[0]:
        problems.append(f"{levels[0].bit_count()} edges uncovered: "
                        f"{_indices(levels[0])}")
    return CycleCover(
        cycles=tuple(cycles),
        length=sum(c.bit_count() for c in cycles),
        ced=max(t for t, level in enumerate(levels) if level),
        even=even,
        count=len(cycles),
        valid=not problems,
        problems=tuple(problems),
    )


def canonical_cover(G: CubicGraph,
                    coloring: Tuple[int, int, int]) -> Tuple[int, ...]:
    """The 2-cycle cover {a|b, a|c} of a 3-edge-colored cubic graph.

    The first class is doubled, so the cover is even, of length
    |E| + |a| = 4/3 |E|.
    """
    a, b, c = coloring
    if (a & b) or (a & c) or (b & c) or (a | b | c) != (1 << G.m) - 1:
        raise CoverConstructionError(
            "coloring is not a partition of E(G) into three 1-factors"
        )
    return (a | b, a | c)


def cover_from_core(
    G: CubicGraph, core: Core, core_cover: Sequence[int]
) -> Tuple[int, ...]:
    """Extend a cover of the core to a cover of G with two symmetric
    differences of 1-factors: the cycles of core_cover, then the two added.

    core_cover must cover exactly the core's edges, else
    CoverConstructionError.  Factors are relabeled so the hub factor meets
    the other two in at least 2/3 of the doubly-covered non-T edges, which
    caps the added length at 4/3 (|E| - k): the cover has length at most
    4/3 (|E| - k) + t, with t the length of core_cover.  The two added
    cycles are always even.
    """
    union = 0
    for c in core_cover:
        union |= c
    if union != core.edge_indices:
        raise CoverConstructionError(
            "core_cover does not cover exactly the core's edges")
    factors, t = core.factors, core.T
    # hub factor: the one whose two pairs carry the most M2 edges, i.e. the
    # one whose OPPOSITE pair (the other two factors) is smallest; first
    # index wins ties
    hub = min(range(3), key=lambda i: (
        factors[i - 1] & factors[i - 2] & ~t).bit_count())
    m_hub = factors[hub]
    others = [f for i, f in enumerate(factors) if i != hub]
    return (*core_cover, m_hub ^ others[0], m_hub ^ others[1])


def bipartite_core_cover(core: Core) -> List[int]:
    """Even cover of a bipartite core by at most two cycles, of length 2k.

    Core - T is 2-regular.  Each of its circuits is walked from its lowest
    edge in trace_circuits order, putting edges on side 0 and switching
    sides after each T-end vertex; both sides also get T.  This is the lift
    of the 2-cover of the suppressed cubic multigraph H in which E* is
    doubled and H - E* is properly 2-edge-colored.  A circuit without
    T-ends is a circuit component and lies on side 0 whole, so a core with
    T empty is covered by side 0 alone.
    """
    G = core.graph
    mask = core.edge_indices
    if _two_coloring(G, mask, _bfs(G, mask, core.vertices)[2]) is None:
        raise CoverConstructionError("core is not bipartite")
    if core.is_empty:
        return []
    t_bits = core.T
    sides = [0, 0]
    for circuit in trace_circuits(G, mask & ~t_bits):
        side, v = 0, G.edges[circuit[0]][0]
        for f in circuit:
            sides[side] |= 1 << f
            v = G.other_end(f, v)
            if G.stars[v] & t_bits:
                side ^= 1
        if side:
            raise CoverConstructionError(
                "a circuit of core - T has an odd number of T-ends")
    if not t_bits:
        return [sides[0]]
    return [bits | t_bits for bits in sides]


def four_cover_cycles(
    G: CubicGraph, M1: int, M2: int, M3: int, M4: int
) -> Tuple[int, ...]:
    """The 4-cycle cover built from four 1-factors with empty intersection.

    Cycle i is (edges of M_i in exactly one factor) | (edges outside M_i in
    exactly two) | (edges of M_i in exactly three) | (edges in none); its
    length accounting gives exactly 4/3 |E| + 4k, where k counts uncovered
    edges.  With k = 0 the cover is even and ced <= 2.
    """
    fs = [M1, M2, M3, M4]
    uncovered, once, twice, thrice, common = _levels((1 << G.m) - 1, fs)
    if common:
        raise CoverConstructionError("the four factors have a common edge")
    return tuple(f & once | twice & ~f | f & thrice | uncovered for f in fs)


def five_cdc(
    G: CubicGraph, M1: int, M2: int, M3: int, M4: int
) -> Tuple[int, ...]:
    """5-cycle double cover from four 1-factors covering E(G) (k = 0).

    Adds the 2-factor of singly-covered edges to the k = 0 four-cover; every
    edge then lies in exactly two members: ced 2 and length 2 |E|.
    """
    uncovered, singly = _levels((1 << G.m) - 1, [M1, M2, M3, M4])[:2]
    if uncovered:
        raise CoverConstructionError("union of the four factors is not E(G)")
    return (*four_cover_cycles(G, M1, M2, M3, M4), singly)


# ---------------------------------------------------------------------------
# Exact shortest-cycle-cover oracle.
# ---------------------------------------------------------------------------


def scc_exact(G: CubicGraph,
              dim_cap: int = DEFAULT_SCC_DIM_CAP) -> Tuple[int, ...]:
    """Shortest cover of E(G) by at most SCC_MAX_CYCLES cycles, by
    exhaustive search over the cycle space with branch-and-bound.

    This is the shortest 4-cycle cover, not the unrestricted shortest cycle
    cover.  Every cycle uses 0 or 2 edges at each vertex, so in any cover
    the multiplicities at a vertex sum to an even number >= 4 and some edge
    there is covered twice.  A partial cover of the given length, with z
    vertices that have no doubly covered edge yet, therefore completes to
    length at least length + |uncovered| + ceil(z/2).  The search tests
    that bound for each child before it recurses, and stops once its
    incumbent reaches the bound at the root, ceil(4m/3).  The incumbent is
    replaced only on a strict improvement, so the pruning never changes the
    returned cover.

    Each node branches on its lowest uncovered edge, over the members
    through it in order of (|v & covered|, bits).  A child's first bound,
    length + |uncovered|, is its parent's plus that overshoot |v & covered|,
    so the first candidate whose overshoot cannot beat the incumbent ends
    the node: every later one overshoots at least as much.  The z of the
    second bound comes from a mask of the vertices with a doubly covered
    edge, which each child extends by the ends of its overshoot edges; z is
    not monotone in the candidate order, so a child it rules out is only
    skipped.  The last two slots are scored without recursion: the last
    member must contain every edge still uncovered, so the best one is the
    first superset in the members through one of those edges presorted by
    (length, bits), and that scan stops at the first member too long to
    beat the incumbent.

    Exact, deterministic; raises DimensionCapExceededError when the cycle
    space dimension m - n + (#components) exceeds dim_cap, and
    CoverConstructionError when no such cover exists.
    """
    m = G.m
    basis = cycle_space_basis(G)
    dim = len(basis)
    if dim > dim_cap:
        raise DimensionCapExceededError(
            f"cycle space dimension {dim} exceeds cap {dim_cap}"
        )
    full = (1 << m) - 1
    # all nonzero cycle-space members
    vectors = [0] * (1 << dim)
    for s in range(1, 1 << dim):
        low = s & -s
        vectors[s] = vectors[s ^ low] ^ basis[low.bit_length() - 1]
    members = sorted(set(vectors[1:]))
    cover_all = 0
    for v in members:
        cover_all |= v
    if cover_all != full:  # some edge on no cycle (a bridge)
        raise CoverConstructionError("graph has no cycle cover")
    lengths = {v: v.bit_count() for v in members}
    # the members through each edge, in bits order
    by_edge: List[List[int]] = [[] for _ in range(m)]
    for v in members:
        for i in _indices(v):
            by_edge[i].append(v)
    # the members through each edge by (length, bits): the sort is stable
    by_short = [sorted(vs, key=lengths.__getitem__) for vs in by_edge]
    root_bound = (4 * m + 2) // 3
    n = G.n
    # the two ends of each edge, as a vertex mask
    ends = [1 << u | 1 << w for u, w in G.edges]
    # longer than any cover by SCC_MAX_CYCLES cycles, so no cover is pruned
    best_len = SCC_MAX_CYCLES * m + 1
    best_choice: Optional[Tuple[int, ...]] = None
    choice: List[int] = []

    def rec(covered: int, doubled: int, length: int, slots: int) -> None:
        # doubled masks the vertices that have a doubly covered edge; the
        # caller has checked both of this node's bounds against best_len
        nonlocal best_len, best_choice
        if covered == full:
            best_len = length
            best_choice = tuple(choice)
            return
        uncovered = full & ~covered
        bound = length + uncovered.bit_count()
        # branching on the lowest uncovered edge makes every cover set
        # reachable in exactly one order, so no dedup is needed; low
        # overshoot |v & covered| first, to find good incumbents early
        pivot = (uncovered & -uncovered).bit_length() - 1
        # by_edge[pivot] is in bits order, so stable buckets by overshoot
        # order it by (overshoot, bits).  A child's bound is bound plus its
        # overshoot, so only the overshoots below best_len - bound can
        # beat the incumbent, and the first dead child ends the loop: the
        # later ones overshoot no less, and best_len never rises.
        cut = min(best_len - bound, m)
        buckets: List[List[int]] = [[] for _ in range(cut)]
        for v in by_edge[pivot]:
            over = (v & covered).bit_count()
            if over < cut:
                buckets[over].append(v)
        if slots > 2:
            for over, bucket in enumerate(buckets):
                child_bound = bound + over
                for v in bucket:
                    if child_bound >= best_len:
                        return
                    child = doubled
                    twice = v & covered
                    while twice:
                        low = twice & -twice
                        child |= ends[low.bit_length() - 1]
                        twice ^= low
                    # n - |child| vertices have no doubly covered edge; that
                    # count is not monotone in the candidate order, so a
                    # child it rules out is skipped, not the rest
                    lonely = n - child.bit_count()
                    if child_bound + (lonely + 1) // 2 >= best_len:
                        continue
                    choice.append(v)
                    rec(covered | v, child, length + lengths[v], slots - 1)
                    choice.pop()
                    if best_len == root_bound:  # no cover is shorter
                        return
            return
        # two slots left: the last member w must contain rest, and the
        # first such w by (length, bits) is the child's best completion
        for over, bucket in enumerate(buckets):
            child_bound = bound + over
            for v in bucket:
                if child_bound >= best_len:
                    return
                total = length + lengths[v]
                rest = uncovered & ~v
                if not rest:
                    best_len, best_choice = total, (*choice, v)
                else:
                    for w in by_short[(rest & -rest).bit_length() - 1]:
                        if total + lengths[w] >= best_len:
                            break
                        if not rest & ~w:
                            best_len = total + lengths[w]
                            best_choice = (*choice, v, w)
                            break
                if best_len == root_bound:
                    return

    try:
        rec(0, 0, 0, SCC_MAX_CYCLES)
    finally:
        del rec  # rec's closure refers to rec: break that cycle
    if best_choice is None:
        raise CoverConstructionError("graph has no cycle cover")
    assert sum(c.bit_count() for c in best_choice) == best_len
    return best_choice
