"""Cycle covers of cubic graphs: verification, the constructions built from
3-edge-colorings, cores, and 4-tuples of 1-factors, and an exact
shortest-cycle-cover oracle for small cycle spaces.

A cycle is an edge set inducing degree 0 or 2 at every vertex (a disjoint
union of circuits); it is even when all its circuits have even length.  The
length of a cover is the sum of its members' sizes, and ced is the maximum
number of members through a single edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .graphs import CubicGraph, EdgeSet, _bfs, _levels, _two_coloring
from .matching import trace_circuits
from .cores import Core


#: Most cycles scc_exact may use in a cover.
SCC_MAX_CYCLES = 4


class CoverConstructionError(ValueError):
    """Preconditions of a cover construction are violated."""


class DimensionCapExceededError(RuntimeError):
    """Cycle-space dimension too large for the exact oracle."""


@dataclass(frozen=True)
class CycleCover:
    """A family of cycles with its statistics and validity verdict."""

    cycles: Tuple[EdgeSet, ...]
    length: int
    ced: int
    even: bool
    count: int
    valid: bool
    problems: Tuple[str, ...] = ()

    def is_double_cover(self) -> bool:
        if len(self.cycles) < 2:
            return False
        full = (1 << self.cycles[0].m) - 1
        return _levels(full, [c.bits for c in self.cycles])[2] == full


def _is_cycle(G: CubicGraph, edges: EdgeSet) -> bool:
    return all((star & edges.bits).bit_count() in (0, 2) for star in G.stars)


def _is_even_cycle(G: CubicGraph, edges: EdgeSet) -> bool:
    return all(len(c) % 2 == 0 for c in trace_circuits(G, edges))


def verify_cover(
    G: CubicGraph,
    cycles: Sequence[EdgeSet],
    target: Optional[EdgeSet] = None,
) -> CycleCover:
    """Compute all cover statistics; the verdict lists failures precisely.

    target defaults to E(G); pass a core's edge set to verify core covers.
    """
    if target is None:
        target = G.all_edges()
    problems: List[str] = []
    members: List[int] = []
    even = True
    for pos, c in enumerate(cycles):
        if not _is_cycle(G, c):
            problems.append(f"member {pos} is not a cycle")
            continue
        if not _is_even_cycle(G, c):
            even = False
        members.append(c.bits)
    full = G.all_edges().bits
    levels = _levels(full, members)
    covered = EdgeSet(G.m, full & ~levels[0])
    missing = target - covered
    if missing:
        problems.append(f"{len(missing)} edges uncovered: {missing.indices()}")
    stray = covered - target
    if stray:
        problems.append(f"cycles leave the target edge set: {stray.indices()}")
    return CycleCover(
        cycles=tuple(cycles),
        length=sum(len(c) for c in cycles),
        ced=max(t for t, level in enumerate(levels) if level),
        even=even,
        count=len(cycles),
        valid=not problems,
        problems=tuple(problems),
    )


def canonical_cover(
    G: CubicGraph,
    coloring: Tuple[EdgeSet, EdgeSet, EdgeSet],
) -> CycleCover:
    """The 2-cycle cover {a|b, a|c} of a 3-edge-colored cubic graph.

    The first class is doubled; length is |E| + |a| = 4/3 |E|.
    """
    a, b, c = coloring
    if (a & b) or (a & c) or (b & c) or (a | b | c) != G.all_edges():
        raise CoverConstructionError(
            "coloring is not a partition of E(G) into three 1-factors"
        )
    cover = verify_cover(G, [a | b, a | c])
    assert cover.valid and cover.length == G.m + len(a)
    return cover


def cover_from_core(
    G: CubicGraph, core: Core, core_cover: Sequence[EdgeSet]
) -> CycleCover:
    """Extend a cover of the core to a cover of G with two symmetric
    differences of 1-factors.

    Factors are relabeled so the hub factor meets the other two in at least
    2/3 of the doubly-covered non-T edges, which caps the added length at
    4/3 (|E| - k).  The two added cycles are always even.
    """
    checked = verify_cover(G, core_cover, target=core.edge_indices)
    if not checked.valid:
        raise CoverConstructionError(
            f"core_cover invalid: {'; '.join(checked.problems)}"
        )
    f1, f2, f3 = core.factors
    t = core.T
    pair_sizes = {
        0: len((f2 & f3) - t),
        1: len((f1 & f3) - t),
        2: len((f1 & f2) - t),
    }
    # hub factor: the one whose two pairs carry the most M2 edges, i.e. the
    # one whose OPPOSITE pair is smallest; first index wins ties
    hub = min(range(3), key=lambda i: (pair_sizes[i], i))
    factors = [f1, f2, f3]
    m_hub = factors[hub]
    others = [factors[i] for i in range(3) if i != hub]
    added = [m_hub ^ others[0], m_hub ^ others[1]]
    cover = verify_cover(G, list(core_cover) + added)
    t_len = checked.length
    bound = 4 * (G.m - core.k) / 3 + t_len
    if not cover.valid or cover.length > bound:
        raise CoverConstructionError(
            f"construction failed: valid={cover.valid} length={cover.length} "
            f"bound={bound}"
        )
    return cover


def bipartite_core_cover(core: Core) -> List[EdgeSet]:
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
    if _two_coloring(G, core.edge_indices.bits, core.vertices) is None:
        raise CoverConstructionError("core is not bipartite")
    if core.is_empty:
        return []
    t_bits = core.T.bits
    sides = [0, 0]
    for circuit in trace_circuits(G, core.edge_indices - core.T):
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
        return [EdgeSet(G.m, sides[0])]
    return [EdgeSet(G.m, bits | t_bits) for bits in sides]


def four_cover_cycles(
    G: CubicGraph, M1: EdgeSet, M2: EdgeSet, M3: EdgeSet, M4: EdgeSet
) -> CycleCover:
    """The 4-cycle cover built from four 1-factors with empty intersection.

    Cycle i is (edges of M_i in exactly one factor) | (edges outside M_i in
    exactly two) | (edges of M_i in exactly three) | (edges in none); its
    length accounting gives exactly 4/3 |E| + 4k, where k counts uncovered
    edges.  With k = 0 the cover is even and ced <= 2.
    """
    fs = [M1.bits, M2.bits, M3.bits, M4.bits]
    m = G.m
    uncovered, once, twice, thrice, common = _levels((1 << m) - 1, fs)
    if common:
        raise CoverConstructionError("the four factors have a common edge")
    k = uncovered.bit_count()
    cycles = [
        EdgeSet(m, f & once | twice & ~f | f & thrice | uncovered) for f in fs
    ]
    cover = verify_cover(G, cycles)
    expect = 4 * m // 3 + 4 * k
    if not cover.valid or cover.length != expect:
        raise CoverConstructionError(
            f"four-cover construction failed: valid={cover.valid} "
            f"length={cover.length} expected={expect}"
        )
    return cover


def five_cdc(
    G: CubicGraph, M1: EdgeSet, M2: EdgeSet, M3: EdgeSet, M4: EdgeSet
) -> CycleCover:
    """5-cycle double cover from four 1-factors covering E(G) (k = 0).

    Adds the 2-factor of singly-covered edges to the k = 0 four-cover; every
    edge then lies in exactly two members.
    """
    uncovered, singly = _levels(
        (1 << G.m) - 1, [M1.bits, M2.bits, M3.bits, M4.bits])[:2]
    if uncovered:
        raise CoverConstructionError("union of the four factors is not E(G)")
    base = four_cover_cycles(G, M1, M2, M3, M4)
    cycles = list(base.cycles) + [EdgeSet(G.m, singly)]
    cover = verify_cover(G, cycles)
    if not cover.valid or not cover.is_double_cover():
        raise CoverConstructionError("5-CDC construction failed")
    return cover


# ---------------------------------------------------------------------------
# Exact shortest-cycle-cover oracle.
# ---------------------------------------------------------------------------


def cycle_space_basis(G: CubicGraph) -> List[int]:
    """Fundamental cycles (as edge bitmasks) w.r.t. a BFS spanning forest."""
    parent_edge = _bfs(G, G.all_edges().bits, range(G.n))[1]
    tree = 0
    for f in parent_edge:
        if f >= 0:
            tree |= 1 << f

    def path_to_root(v: int) -> int:
        bits = 0
        while parent_edge[v] >= 0:
            f = parent_edge[v]
            bits ^= 1 << f
            v = G.other_end(f, v)
        return bits

    return [
        (1 << i) ^ path_to_root(u) ^ path_to_root(v)
        for i, (u, v) in enumerate(G.edges)
        if not tree >> i & 1
    ]


def scc_exact(G: CubicGraph, dim_cap: int = 16) -> CycleCover:
    """Shortest cover of E(G) by at most SCC_MAX_CYCLES cycles, by
    exhaustive search over the cycle space with branch-and-bound.

    This is the shortest 4-cycle cover, not the unrestricted shortest cycle
    cover.  Every cycle uses 0 or 2 edges at each vertex, so in any cover
    the multiplicities at a vertex sum to an even number >= 4 and some edge
    there is covered twice.  A partial cover of the given length, with z
    vertices that have no doubly covered edge yet, therefore completes to
    length at least length + |uncovered| + ceil(z/2); the search prunes on
    that bound, and stops once its incumbent reaches the bound at the root,
    ceil(4m/3).  The incumbent is replaced only on a strict improvement, so
    the pruning never changes the returned cover.

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
    by_edge: List[List[int]] = [[] for _ in range(m)]
    for v in members:
        for i in range(m):
            if (v >> i) & 1:
                by_edge[i].append(v)
    root_bound = (4 * m + 2) // 3
    best_len: Optional[int] = None
    best_choice: Optional[Tuple[int, ...]] = None
    choice: List[int] = []

    def rec(covered: int, twice: int, length: int, slots: int) -> None:
        nonlocal best_len, best_choice
        if covered == full:
            if best_len is None or length < best_len:
                best_len = length
                best_choice = tuple(choice)
            return
        if slots == 0:
            return
        uncovered = full & ~covered
        if best_len is not None:
            bound = length + uncovered.bit_count()
            if bound >= best_len:
                return
            lonely = sum(1 for star in G.stars if not star & twice)
            if bound + (lonely + 1) // 2 >= best_len:
                return
        # branching on the lowest uncovered edge makes every cover set
        # reachable in exactly one order, so no dedup is needed
        pivot = (uncovered & -uncovered).bit_length() - 1
        # try low-overshoot members first, to find good incumbents early
        ordered = sorted(
            by_edge[pivot],
            key=lambda v: (lengths[v] - (v & uncovered).bit_count(), v),
        )
        for v in ordered:
            choice.append(v)
            rec(covered | v, twice | covered & v, length + lengths[v],
                slots - 1)
            choice.pop()
            if best_len == root_bound:  # no cover is shorter
                return

    rec(0, 0, 0, SCC_MAX_CYCLES)
    if best_len is None:
        raise CoverConstructionError("graph has no cycle cover")
    cover = verify_cover(G, [EdgeSet(m, bits) for bits in best_choice])
    assert cover.valid and cover.length == best_len
    return cover
