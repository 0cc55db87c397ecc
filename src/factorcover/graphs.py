"""Cubic multigraphs: representation, ingestion formats, structural queries.

Graphs are loop-free but may contain parallel edges.  Edges are indexed by
their position in the input, and all subgraph-valued results are reported as
sets of edge indices (EdgeSet), so witnesses are reproducible across runs.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

#: Hard capacity for edge sets (graphs up to 128 vertices).
MAX_EDGES = 192


class GraphFormatError(ValueError):
    """Malformed input text (MGF or graph6)."""


class NotCubicError(ValueError):
    """Structurally valid graph that is not 3-regular (or has a loop)."""


class GraphTooLargeError(ValueError):
    """More than MAX_EDGES edges; exhaustive search is infeasible anyway."""


class EdgeSet:
    """Immutable set of edge indices backed by a fixed-width bit vector.

    All set algebra (| & - ^) requires both operands to share the same
    capacity m.  Only indices < m may be set.
    """

    __slots__ = ("m", "bits")

    def __init__(self, m: int, bits: int = 0):
        if m > MAX_EDGES:
            raise GraphTooLargeError(f"edge capacity {m} exceeds {MAX_EDGES}")
        if bits < 0 or bits >> m:
            raise ValueError("bits outside capacity")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("EdgeSet is immutable")

    @classmethod
    def from_indices(cls, m: int, indices: Iterable[int]) -> "EdgeSet":
        bits = 0
        for i in indices:
            if not 0 <= i < m:
                raise ValueError(f"edge index {i} out of range 0..{m - 1}")
            bits |= 1 << i
        return cls(m, bits)

    @classmethod
    def full(cls, m: int) -> "EdgeSet":
        return cls(m, (1 << m) - 1)

    def _check(self, other: "EdgeSet") -> None:
        if self.m != other.m:
            raise ValueError("EdgeSet capacity mismatch")

    def __or__(self, other: "EdgeSet") -> "EdgeSet":
        self._check(other)
        return EdgeSet(self.m, self.bits | other.bits)

    def __and__(self, other: "EdgeSet") -> "EdgeSet":
        self._check(other)
        return EdgeSet(self.m, self.bits & other.bits)

    def __sub__(self, other: "EdgeSet") -> "EdgeSet":
        self._check(other)
        return EdgeSet(self.m, self.bits & ~other.bits)

    def __xor__(self, other: "EdgeSet") -> "EdgeSet":
        self._check(other)
        return EdgeSet(self.m, self.bits ^ other.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.m and (self.bits >> index) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices())

    def indices(self) -> List[int]:
        bits, out = self.bits, []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out

    def isdisjoint(self, other: "EdgeSet") -> bool:
        self._check(other)
        return self.bits & other.bits == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EdgeSet)
            and self.m == other.m
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.m, self.bits))

    def __bool__(self) -> bool:
        return self.bits != 0

    def __repr__(self) -> str:
        return f"EdgeSet({self.m}, {self.indices()})"


class CubicGraph:
    """Loop-free 3-regular multigraph with stable edge indices.

    edges[i] is the unordered pair (u, v) of the i-th input edge; incidence[v]
    lists the indices of the (exactly three) edges at v, in index order, and
    stars[v] is the same three edges as a bitmask, so the degree of v in the
    subgraph with edge bitmask mask is (stars[v] & mask).bit_count().
    Instances are immutable after construction.
    """

    __slots__ = ("n", "edges", "incidence", "stars")

    def __init__(self, n: int, edges: Sequence[Tuple[int, int]]):
        if n < 1:
            raise GraphFormatError(f"graph has {n} vertices")
        edges = tuple((int(u), int(v)) for u, v in edges)
        if len(edges) > MAX_EDGES:
            raise GraphTooLargeError(
                f"{len(edges)} edges exceeds capacity {MAX_EDGES}"
            )
        incidence: List[List[int]] = [[] for _ in range(n)]
        for i, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge {i}: vertex id out of range")
            if u == v:
                raise NotCubicError(f"edge {i}: loop at vertex {u}")
            incidence[u].append(i)
            incidence[v].append(i)
        for v, inc in enumerate(incidence):
            if len(inc) != 3:
                raise NotCubicError(f"vertex {v} has degree {len(inc)}, not 3")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "incidence", tuple(tuple(i) for i in incidence))
        object.__setattr__(
            self, "stars", tuple(sum(1 << f for f in i) for i in incidence))

    def __setattr__(self, name, value):
        raise AttributeError("CubicGraph is immutable")

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_set(self, indices: Iterable[int]) -> EdgeSet:
        return EdgeSet.from_indices(self.m, indices)

    def all_edges(self) -> EdgeSet:
        return EdgeSet.full(self.m)

    def other_end(self, edge: int, v: int) -> int:
        u, w = self.edges[edge]
        return w if v == u else u

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CubicGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"CubicGraph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# MGF (multigraph format): "n m" header, then m lines "u v"; '#' comments.
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> CubicGraph:
    """Parse MGF text into a validated CubicGraph.

    Parse failures raise GraphFormatError; a well-formed graph that fails
    3-regularity (or has a loop) raises NotCubicError.
    """
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise GraphFormatError("empty MGF input")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphFormatError(f"bad header {lines[0]!r}: expected 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphFormatError(f"bad header {lines[0]!r}: expected integers")
    if n < 0 or m < 0:
        raise GraphFormatError("negative n or m")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"expected {m} edge lines, got {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"bad edge line {ln!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge line {ln!r}: vertex id out of range")
        edges.append((u, v))
    return CubicGraph(n, edges)


def to_mgf(G: CubicGraph) -> str:
    """Serialize edge-for-edge; parse_edge_list(to_mgf(G)) == G."""
    lines = [f"{G.n} {G.m}"]
    lines.extend(f"{u} {v}" for u, v in G.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graph6 (simple graphs only; standard short and multi-byte n encodings).
# ---------------------------------------------------------------------------


def _graph6_read_n(data: bytes) -> Tuple[int, int]:
    """Return (n, offset of first adjacency byte)."""
    if not data:
        raise GraphFormatError("empty graph6 line")
    c = data[0]
    if c == 126:  # '~'
        if len(data) >= 2 and data[1] == 126:
            if len(data) < 8:
                raise GraphFormatError("truncated graph6 size field")
            vals = [b - 63 for b in data[2:8]]
            if any(v < 0 or v > 63 for v in vals):
                raise GraphFormatError("bad character in graph6 size field")
            n = 0
            for v in vals:
                n = (n << 6) | v
            return n, 8
        if len(data) < 4:
            raise GraphFormatError("truncated graph6 size field")
        vals = [b - 63 for b in data[1:4]]
        if any(v < 0 or v > 63 for v in vals):
            raise GraphFormatError("bad character in graph6 size field")
        return (vals[0] << 12) | (vals[1] << 6) | vals[2], 4
    if not 63 <= c <= 125:
        raise GraphFormatError(f"bad leading graph6 character {c!r}")
    return c - 63, 1


def parse_graph6(line: str) -> CubicGraph:
    """Parse one graph6-encoded simple graph into a validated CubicGraph.

    Edges are ordered by the graph6 upper-triangle bit order: pair (i, j)
    with i < j appears before (i', j') iff j < j' or (j == j' and i < i').
    """
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError:
        raise GraphFormatError("non-ASCII character in graph6 line")
    n, off = _graph6_read_n(data)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = data[off:]
    if len(body) != need:
        raise GraphFormatError(
            f"graph6 length mismatch: expected {need} adjacency bytes, got {len(body)}"
        )
    bits = 0
    for b in body:
        if not 63 <= b <= 126:
            raise GraphFormatError(f"bad character {b!r} in graph6 body")
        bits = (bits << 6) | (b - 63)
    bits >>= 6 * need - nbits  # drop padding
    edges = []
    pos = nbits - 1
    for j in range(1, n):
        for i in range(j):
            if (bits >> pos) & 1:
                edges.append((i, j))
            pos -= 1
    return CubicGraph(n, edges)


# ---------------------------------------------------------------------------
# Structural queries.  A subgraph is G plus an edge bitmask: edge f belongs
# to it when bit f of mask is set.  The private queries below walk
# G.incidence and skip each edge f with `not mask >> f & 1`, so cores and
# cut candidates are queried in G's own vertex and edge indices.
# ---------------------------------------------------------------------------


def _girth(G: CubicGraph, mask: int) -> Optional[int]:
    """Shortest circuit length of the subgraph with edge set mask.

    A parallel pair counts as a 2-circuit (its two edges are different).
    Returns None when the subgraph is a forest.
    """
    edges, incidence = G.edges, G.incidence
    best: Optional[int] = None
    for e, (u, v) in enumerate(edges):
        if not mask >> e & 1:
            continue
        # shortest u-v path avoiding edge e, then close it with e
        dist = {u: 0}
        queue = deque([u])
        limit = (best - 1) if best is not None else None
        while queue:
            x = queue.popleft()
            if x == v:
                break
            if limit is not None and dist[x] >= limit:
                continue
            for f in incidence[x]:
                if f == e or not mask >> f & 1:
                    continue
                a, b = edges[f]
                y = b if x == a else a
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if v in dist and (best is None or dist[v] + 1 < best):
            best = dist[v] + 1
    return best


def girth(G: CubicGraph) -> int:
    g = _girth(G, G.all_edges().bits)
    assert g is not None  # cubic graphs always contain a circuit
    return g


def _bridges(
    G: CubicGraph, mask: int, roots: Iterable[int]
) -> Tuple[List[int], int]:
    """Bridges of the subgraph with edge set mask.

    Iterative Tarjan DFS from each unvisited vertex of roots, skipping the
    tree in-edge by index, so a parallel pair never counts as a bridge.
    Returns the sorted bridges of the part that was reached and the number
    of vertices reached.
    """
    edges, incidence = G.edges, G.incidence
    disc = [-1] * G.n
    low = [0] * G.n
    out: List[int] = []
    timer = 0
    for root in roots:
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, iter(incidence[root]))]
        while stack:
            v, in_edge, it = stack[-1]
            for f in it:
                if f == in_edge or not mask >> f & 1:
                    continue
                a, b = edges[f]
                w = b if v == a else a
                if disc[w] >= 0:
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                else:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, f, iter(incidence[w])))
                    break
            else:
                stack.pop()
                if in_edge >= 0:
                    parent = stack[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] > disc[parent]:
                        out.append(in_edge)
    out.sort()
    return out, timer


def bridges(G: CubicGraph) -> EdgeSet:
    return G.edge_set(_bridges(G, G.all_edges().bits, range(G.n))[0])


def is_bridgeless(G: CubicGraph) -> bool:
    return not bridges(G)


def _bfs(
    G: CubicGraph, mask: int, roots: Iterable[int]
) -> Tuple[List[int], List[int], List[int]]:
    """BFS forest of the subgraph with edge set mask, grown from each
    unreached vertex of roots in turn, trying edges in G.incidence order.

    Returns (order, parent_edge, depth): the reached vertices in visiting
    order; per vertex, the tree edge to its parent (-1 at roots and
    unreached vertices) and its distance from its tree's root (-1 where
    unreached).
    """
    edges, incidence = G.edges, G.incidence
    order: List[int] = []
    parent_edge = [-1] * G.n
    depth = [-1] * G.n
    for root in roots:
        if depth[root] >= 0:
            continue
        depth[root] = 0
        head = len(order)
        order.append(root)
        while head < len(order):  # order doubles as the queue
            v = order[head]
            head += 1
            for f in incidence[v]:
                if not mask >> f & 1:
                    continue
                a, b = edges[f]
                w = b if v == a else a
                if depth[w] < 0:
                    depth[w] = depth[v] + 1
                    parent_edge[w] = f
                    order.append(w)
    return order, parent_edge, depth


def _levels(full: int, masks: Sequence[int]) -> List[int]:
    """Bit-sliced multiplicity count: exactly[t], for t = 0..len(masks), is
    the set of edges of full lying in exactly t of masks."""
    exactly = [full] + [0] * len(masks)
    for x in masks:
        # descending t reads level t - 1 before x has moved it up
        for t in range(len(exactly) - 1, 0, -1):
            exactly[t] = exactly[t] & ~x | exactly[t - 1] & x
        exactly[0] &= ~x
    return exactly


def _two_coloring(
    G: CubicGraph, mask: int, roots: Iterable[int]
) -> Optional[List[int]]:
    """2-coloring of the subgraph with edge set mask by BFS depth parity,
    from each uncolored vertex of roots in turn.

    Returns the color (0 or 1) of every vertex, -1 where no root reaches,
    or None when a reached component has an odd circuit.
    """
    depth = _bfs(G, mask, roots)[2]
    for f, (u, v) in enumerate(G.edges):
        if mask >> f & 1 and depth[u] >= 0 and (depth[u] ^ depth[v]) & 1 == 0:
            return None
    return [d & 1 if d >= 0 else -1 for d in depth]


def is_bipartite(G: CubicGraph) -> Tuple[bool, Optional[List[int]]]:
    coloring = _two_coloring(G, G.all_edges().bits, range(G.n))
    return (coloring is not None), coloring


def is_connected(G: CubicGraph) -> bool:
    return len(_bfs(G, G.all_edges().bits, (0,))[0]) == G.n


def _components(
    G: CubicGraph, mask: int, roots: Iterable[int]
) -> List[List[int]]:
    """Connected components of the subgraph with edge set mask that meet
    roots, as sorted vertex lists in the order of their least root."""
    order, _, depth = _bfs(G, mask, sorted(roots))
    comps: List[List[int]] = []
    for v in order:
        if depth[v] == 0:
            comps.append([])
        comps[-1].append(v)
    return [sorted(comp) for comp in comps]


def has_nontrivial_3_edge_cut(
    G: CubicGraph,
) -> Tuple[bool, Optional[Tuple[int, int, int]]]:
    """Find a 3-edge cut with >= 2 vertices on both sides.

    The three edges at a single vertex form a trivial cut; everything else
    counts.  Returns (True, (a, b, c)) for the lexicographically first
    such cut a < b < c, else (False, None).  Disconnected input is an
    error.

    Method: for each edge pair a < b, one Tarjan DFS (_bridges) over
    G - {a, b}.  When it reaches all n vertices, {a, b, c} is a cut exactly
    when c is a bridge of G - {a, b}, and the cut is trivial exactly when
    {a, b, c} is the edge set of one vertex.  When it does not, {a, b} is a
    2-edge cut and each c > b is checked by its components.  That is
    O(m^2) pairs times one O(m) DFS, O(m^3) in all.
    """
    if not is_connected(G):
        raise ValueError("has_nontrivial_3_edge_cut: graph is disconnected")
    n, m = G.n, G.m
    full = G.all_edges().bits
    stars = set(G.incidence)
    for a in range(m):
        for b in range(a + 1, m - 1):
            kept = full ^ (1 << a | 1 << b)
            cut, reached = _bridges(G, kept, (0,))
            if reached == n:
                for c in cut:
                    if c > b and (a, b, c) not in stars:
                        return True, (a, b, c)
                continue
            for c in range(b + 1, m):
                comps = _components(G, kept ^ (1 << c), range(n))
                if any(2 <= len(comp) <= n - 2 for comp in comps):
                    return True, (a, b, c)
    return False, None


def _hamiltonian_circuit(
    G: CubicGraph, avoid: int = -1
) -> Optional[List[int]]:
    """Backtracking search for a hamiltonian circuit of G, or of G - avoid.

    Returns the circuit's edge indices in walking order from its start, the
    lowest vertex other than avoid.  Multigraph-correct: a 2-circuit
    through two parallel edges is a valid hamiltonian circuit of a
    2-vertex graph.
    """
    edges, incidence = G.edges, G.incidence
    n = G.n
    used = [False] * n
    if avoid >= 0:
        used[avoid] = True
        n -= 1
    if n <= 0:
        return None
    start = 1 if avoid == 0 else 0
    used[start] = True
    path_edges: List[int] = []

    def extend(v: int, count: int) -> bool:
        for f in incidence[v]:
            if path_edges and f == path_edges[-1]:
                continue
            a, b = edges[f]
            w = b if v == a else a
            if count == n:
                # closing edge; it differs from the opener because the
                # immediate-backtrack guard above already excluded it
                if w == start:
                    path_edges.append(f)
                    return True
                continue
            if used[w]:
                continue
            used[w] = True
            path_edges.append(f)
            if extend(w, count + 1):
                return True
            path_edges.pop()
            used[w] = False
        return False

    if extend(start, 1):
        return path_edges
    return None


def is_hamiltonian(G: CubicGraph) -> bool:
    return _hamiltonian_circuit(G) is not None


def hamiltonian_circuit_avoiding(G: CubicGraph, v: int) -> Optional[List[int]]:
    """Hamiltonian circuit of G - v, as edge indices of G in walking order
    from the lowest vertex other than v."""
    return _hamiltonian_circuit(G, avoid=v)


def is_hypohamiltonian(G: CubicGraph) -> bool:
    if is_hamiltonian(G):
        return False
    return all(
        hamiltonian_circuit_avoiding(G, v) is not None for v in range(G.n)
    )


# ---------------------------------------------------------------------------
# Test families.
# ---------------------------------------------------------------------------


def theta_graph() -> CubicGraph:
    """K_2^3: two vertices joined by three parallel edges."""
    return CubicGraph(2, [(0, 1), (0, 1), (0, 1)])


def flower_snark(t: int) -> CubicGraph:
    """The flower snark J_t (odd t >= 5): 4t vertices, 6t edges.

    Vertex layout: hub h_i = 4i, star tips b_i = 4i+1 (outer t-circuit),
    c_i = 4i+2 and d_i = 4i+3 (the 2t-circuit with a half twist).
    """
    if t < 5 or t % 2 == 0:
        raise ValueError("flower snark requires odd t >= 5")
    edges = []
    for i in range(t):
        h, b, c, d = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        edges.append((h, b))
        edges.append((h, c))
        edges.append((h, d))
    for i in range(t):
        edges.append((4 * i + 1, 4 * ((i + 1) % t) + 1))
    for i in range(t - 1):
        edges.append((4 * i + 2, 4 * (i + 1) + 2))
        edges.append((4 * i + 3, 4 * (i + 1) + 3))
    edges.append((4 * (t - 1) + 2, 3))  # c_{t-1} - d_0: the twist
    edges.append((4 * (t - 1) + 3, 2))  # d_{t-1} - c_0
    return CubicGraph(4 * t, edges)
