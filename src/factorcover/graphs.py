"""Cubic multigraphs: representation, ingestion formats, structural queries.

Graphs are loop-free but may contain parallel edges.  Edges are indexed by
their position in the input, and every edge set is an int bitmask over
those indices (bit f set when edge f belongs to it), so witnesses are
reproducible across runs.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Hard capacity for edge sets (graphs up to 128 vertices).
MAX_EDGES = 192


class GraphFormatError(ValueError):
    """Malformed input text (MGF or graph6)."""


class NotCubicError(ValueError):
    """Structurally valid graph that is not 3-regular (or has a loop)."""


class GraphTooLargeError(ValueError):
    """More than MAX_EDGES edges, or more vertices than a cubic graph with
    MAX_EDGES edges has; exhaustive search is infeasible anyway."""


def _indices(bits: int) -> List[int]:
    """The positions of the set bits of bits >= 0, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _wide_indices(bits: int) -> List[int]:
    """_indices(bits), read off the binary numeral of bits by str.rfind:
    one pass over the digits in C instead of one big-int step per set bit,
    which pays on masks of thousands of bits."""
    digits = bin(bits)
    top = len(digits) - 1  # the place of bit 0
    out = []
    i = digits.rfind("1")
    while i >= 0:
        out.append(top - i)
        i = digits.rfind("1", 0, i)
    return out


def _numerals(width: int, rows: Sequence[int]) -> List[str]:
    """The width-digit binary numeral of each of rows, each below
    2**width."""
    return [format(x, f"0{width}b") for x in rows]


def _columns(width: int, text: str) -> List[str]:
    """The numerals of the columns of a bit matrix, text being its rows'
    width-digit numerals joined in order: column j, last row first, is
    text read from its end back, from bit j of the last row, with a stride
    of width."""
    end = len(text) - 1
    return [text[end - j::-width] for j in range(width)]


def _transpose(width: int, rows: Sequence[int]) -> List[int]:
    """The transpose of a bit matrix: entry j has bit i set when rows[i],
    each below 2**width, has bit j."""
    if not rows:
        return [0] * width
    text = "".join(_numerals(width, rows))
    return [int(column, 2) for column in _columns(width, text)]


def _mask(m: int, indices: Iterable[int]) -> int:
    """The edge bitmask of indices, each of which must lie in 0..m-1."""
    bits = 0
    for i in indices:
        if not 0 <= i < m:
            raise ValueError(f"edge index {i} out of range 0..{m - 1}")
        bits |= 1 << i
    return bits


def _check_edge_count(m: int) -> None:
    if m > MAX_EDGES:
        raise GraphTooLargeError(f"{m} edges exceeds capacity {MAX_EDGES}")


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
        _check_edge_count(len(edges))
        # a cubic graph has 3n/2 edges; checked before the per-vertex lists
        if 3 * n > 2 * MAX_EDGES:
            raise GraphTooLargeError(
                f"{n} vertices exceeds capacity {2 * MAX_EDGES // 3}")
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

    Method (Itai and Rodeh, 1978): one BFS per root, in vertex order.  A
    non-tree edge, told apart from the tree edge by index, from x at depth
    d to a reached y closes a walk of length d + depth[y] + 1 through it,
    and such a walk contains a circuit no longer than itself.  A BFS from
    a vertex of a shortest circuit C closes a walk of length |C| within
    its levels below |C| / 2, and no edge first seen at level d closes one
    shorter than 2d + 1, so each BFS stops before the level d with
    2d + 1 >= best.  Once its BFS is done the root's star leaves the mask:
    the first root lying on C still sees all of C.  A root with fewer than
    two edges lies on no circuit and only leaves the mask.
    """
    edges, incidence, stars = G.edges, G.incidence, G.stars
    best = 0  # 0 until a circuit is found
    depth = [-1] * G.n
    parent_edge = [-1] * G.n
    for r in range(G.n):
        if (stars[r] & mask).bit_count() >= 2:
            depth[r] = 0
            parent_edge[r] = -1
            reached = [r]
            level = [r]
            d = 0
            while level and (not best or 2 * d + 1 < best):
                below = d + 1
                nxt = []
                for x in level:
                    in_edge = parent_edge[x]
                    for f in incidence[x]:
                        if f == in_edge or not mask >> f & 1:
                            continue
                        a, b = edges[f]
                        y = b if x == a else a
                        dy = depth[y]
                        if dy < 0:
                            depth[y] = below
                            parent_edge[y] = f
                            nxt.append(y)
                        elif not best or d + dy + 1 < best:
                            best = d + dy + 1
                reached += nxt
                level = nxt
                d = below
            for v in reached:
                depth[v] = -1
        mask &= ~stars[r]
    return best or None


def girth(G: CubicGraph) -> int:
    g = _girth(G, (1 << G.m) - 1)
    assert g is not None  # cubic graphs always contain a circuit
    return g


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


def _exceeding(masks: Iterable[int], top: int) -> List[int]:
    """Saturating bit-sliced counter: over[t], for t = 0..top, is the set of
    bits lying in more than t of masks.

    Each mask costs top ANDs and top + 1 ORs.  The masks should be
    nonnegative: CPython runs & and | with a negative operand through
    two's-complement copies, at about twice the cost.
    """
    over = [0] * (top + 1)
    for x in masks:
        # descending t reads over[t - 1] before x has moved it up
        for t in range(top, 0, -1):
            over[t] |= over[t - 1] & x
        over[0] |= x
    return over


def _levels(
    full: int, masks: Sequence[int], top: Optional[int] = None
) -> List[int]:
    """Bit-sliced multiplicity count: exactly[t], for t = 0..len(masks), is
    the set of bits of full lying in exactly t of masks.

    With top given, only the levels t = 0..top are kept; a bit lying in
    more than top of masks is in none of them.
    """
    exactly = []
    rest = full
    for over in _exceeding(masks, len(masks) if top is None else top):
        exactly.append(rest ^ (rest & over))
        rest &= over
    return exactly


def _two_coloring(
    G: CubicGraph, mask: int, depth: Sequence[int]
) -> Optional[List[int]]:
    """2-coloring of the subgraph with edge set mask by the depth parity
    of a BFS forest of it: depth is _bfs(G, mask, roots)[2].

    Returns the color (0 or 1) of every vertex, -1 where no root reaches,
    or None when a reached component has an odd circuit.
    """
    for f, (u, v) in enumerate(G.edges):
        if mask >> f & 1 and depth[u] >= 0 and (depth[u] ^ depth[v]) & 1 == 0:
            return None
    return [d & 1 if d >= 0 else -1 for d in depth]


def is_bipartite(G: CubicGraph) -> Tuple[bool, Optional[List[int]]]:
    full = (1 << G.m) - 1
    coloring = _two_coloring(G, full, _bfs(G, full, range(G.n))[2])
    return (coloring is not None), coloring


def _cycle_labels(
    G: CubicGraph, mask: int, roots: Iterable[int]
) -> Tuple[List[int], List[int], List[int], List[int]]:
    """The BFS forest _bfs(G, mask, roots) and its cycle labels.

    Returns (order, parent_edge, depth, label).  label[e]: bit j is set
    when edge e lies on the j-th fundamental cycle of the forest, the one
    closed by the j-th non-tree edge in index order; label[e] is -1 when e
    is not in mask or no root reaches it.

    A non-tree edge carries its own bit; the tree edge above v carries the
    bits of the non-tree edges with exactly one end below v.  An edge set
    of a reached component is a cut of it exactly when it meets every
    cycle evenly, that is when the XOR of its labels is 0: the bridges are
    the edges labelled 0, and two edges whose labels are equal and nonzero
    form a 2-edge cut.
    """
    order, parent_edge, depth = _bfs(G, mask, roots)
    tree = set(parent_edge)
    label = [-1] * G.m
    below = [0] * G.n  # XOR of the labels of non-tree edges at v, then below v
    bit = 1
    for e, (u, v) in enumerate(G.edges):
        if mask >> e & 1 and depth[u] >= 0 and e not in tree:
            label[e] = bit
            below[u] ^= bit
            below[v] ^= bit
            bit <<= 1
    for v in reversed(order):
        f = parent_edge[v]
        if f >= 0:
            label[f] = below[v]
            below[G.other_end(f, v)] ^= below[v]
    return order, parent_edge, depth, label


def bridges(G: CubicGraph) -> int:
    label = _cycle_labels(G, (1 << G.m) - 1, range(G.n))[3]
    return sum(1 << e for e, x in enumerate(label) if x == 0)


def is_bridgeless(G: CubicGraph) -> bool:
    return not bridges(G)


def cycle_space_basis(G: CubicGraph) -> List[int]:
    """Fundamental cycles (as edge bitmasks) w.r.t. a BFS spanning forest:
    the transpose of _cycle_labels."""
    label = _cycle_labels(G, (1 << G.m) - 1, range(G.n))[3]
    return _transpose(max(label).bit_length(), label)


def has_nontrivial_3_edge_cut(
    G: CubicGraph,
) -> Tuple[bool, Optional[Tuple[int, int, int]]]:
    """Find a 3-edge cut with >= 2 vertices on both sides.

    The three edges at a single vertex form a trivial cut; everything else
    counts.  Returns (True, (a, b, c)) for the lexicographically first
    such cut a < b < c, else (False, None).  Disconnected input is an
    error.

    Method: removing S = {a, b, c} from the connected G leaves a component
    of 2..n-2 vertices exactly when some nonempty T within S, other than
    the three edges of one vertex, is a cut, i.e. has XOR-label 0
    (_cycle_labels).  Given a < b, that leaves T = {c}, {a, c}, {b, c} or
    {a, b, c}, so the least c > b is labelled 0, label[a], label[b] or
    label[a] ^ label[b]: one bisect in each of the four label classes.
    That is O(m^2) pairs times O(log m), after one O(m) labelling.
    """
    _, _, depth, label = _cycle_labels(G, (1 << G.m) - 1, range(G.n))
    if depth.count(0) > 1:  # more than one tree
        raise ValueError("has_nontrivial_3_edge_cut: graph is disconnected")
    m = G.m
    carriers: Dict[int, List[int]] = {}
    for e, x in enumerate(label):
        carriers.setdefault(x, []).append(e)
    stars = set(G.incidence)
    for a in range(m):
        la = label[a]
        for b in range(a + 1, m - 1):
            lb = label[b]
            if not la or not lb or la == lb:
                return True, (a, b, b + 1)  # {a}, {b} or {a, b} is a cut
            c = m
            for x in (0, la, lb):
                cls = carriers.get(x, ())
                i = bisect_right(cls, b)
                if i < len(cls) and cls[i] < c:
                    c = cls[i]
            # the four labels differ here, so an edge of the last class
            # that completes the star of a vertex has no other reason to
            # count
            cls = carriers.get(la ^ lb, ())
            i = bisect_right(cls, b)
            while i < len(cls) and cls[i] < c:
                if (a, b, cls[i]) not in stars:
                    c = cls[i]
                    break
                i += 1
            if c < m:
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

    Prune: free[y] counts the edges at y that a circuit may still use.  An
    edge to avoid is never usable, and once the path passes through v, the
    edge of v that the path does not take is dead too.  A circuit uses two
    edges at every vertex, so a move that leaves an unvisited vertex with
    fewer than two is skipped.  That only cuts subtrees with no circuit, so
    the first circuit found is the one the unpruned search finds.
    """
    edges, incidence = G.edges, G.incidence
    n = G.n
    used = [False] * n
    free = [3] * n
    if avoid >= 0:
        used[avoid] = True
        n -= 1
        for f in incidence[avoid]:
            free[G.other_end(f, avoid)] -= 1
    if n <= 0 or any(free[v] < 2 for v in range(G.n) if v != avoid):
        return None
    start = 1 if avoid == 0 else 0
    used[start] = True
    path_edges: List[int] = []

    def extend(v: int, count: int) -> bool:
        inc = incidence[v]
        # the in-edge, or -1 at the start, where no edge dies
        e = path_edges[-1] if path_edges else -1
        for f in inc:
            if f == e:
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
            y = -1
            if e >= 0:
                # v becomes interior: its third edge g dies
                g = inc[0] + inc[1] + inc[2] - e - f
                a, b = edges[g]
                y = b if v == a else a
                if used[y]:
                    y = -1
                else:
                    free[y] -= 1
                    if free[y] < 2:
                        free[y] += 1
                        continue
            used[w] = True
            path_edges.append(f)
            if extend(w, count + 1):
                return True
            path_edges.pop()
            used[w] = False
            if y >= 0:
                free[y] += 1
        return False

    if extend(start, 1):
        return path_edges
    return None


def is_hamiltonian(G: CubicGraph) -> bool:
    return _hamiltonian_circuit(G) is not None


def is_hypohamiltonian(G: CubicGraph) -> bool:
    if is_hamiltonian(G):
        return False
    return all(_hamiltonian_circuit(G, v) is not None for v in range(G.n))


# ---------------------------------------------------------------------------
# Automorphisms: colour refinement plus individualisation (McKay,
# "Practical graph isomorphism", 1981).  A colouring lists a colour per
# vertex; colours are ranks, so a colouring orders its cells.
# ---------------------------------------------------------------------------


def edge_permutation(
    G: CubicGraph, sigma: Sequence[int]
) -> Optional[List[int]]:
    """The edge permutation induced by the vertex permutation sigma, or
    None when sigma is not an automorphism of G.

    The i-th edge in index order between u and v maps to the i-th edge
    between sigma[u] and sigma[v], so the result exists exactly when sigma
    is a permutation that preserves every edge multiplicity.
    """
    if sorted(sigma) != list(range(G.n)):
        return None
    classes: Dict[Tuple[int, int], List[int]] = {}
    for f, (u, v) in enumerate(G.edges):
        classes.setdefault((u, v) if u < v else (v, u), []).append(f)
    perm = [0] * G.m
    for (u, v), fs in classes.items():
        a, b = sigma[u], sigma[v]
        image = classes.get((a, b) if a < b else (b, a), ())
        if len(image) != len(fs):
            return None
        for f, g in zip(fs, image):
            perm[f] = g
    return perm


def _refine(
    nbrs: Sequence[Tuple[int, int, int]], colour: List[int]
) -> Tuple[List[int], tuple]:
    """The coarsest equitable colouring finer than colour, and its
    quotient: every vertex's colour and neighbour colours, sorted.

    Each round splits a cell by the colours of its vertices' three
    neighbours (with multiplicity) and ranks the new cells after their old
    one, so the result and its quotient are isomorphism-invariant.  A
    vertex's signature is one int, colour[v] << 2n + 2 plus 4**a + 4**b +
    4**c over its neighbour colours a, b, c < n: three powers of 4 never
    carry into the next, so the sum spells the neighbour multiset.
    """
    ranks = {c: i for i, c in enumerate(sorted(set(colour)))}
    colour = [ranks[c] for c in colour]
    count = len(ranks)
    shift = 2 * len(colour) + 2
    while True:
        pw = [1 << 2 * c for c in range(count)]
        sigs = [colour[v] << shift | pw[colour[a]] + pw[colour[b]]
                + pw[colour[c]] for v, (a, b, c) in enumerate(nbrs)]
        keys = sorted(set(sigs))
        if len(keys) == count:
            return colour, tuple(sorted(sigs))
        rank = {sig: i for i, sig in enumerate(keys)}
        colour = [rank[sig] for sig in sigs]
        count = len(keys)


def _individualise(
    nbrs: Sequence[Tuple[int, int, int]], colour: List[int], w: int
) -> List[int]:
    """colour with every cell split by distance from w, nearer first, so
    that w, the one vertex at distance 0, is split off just before the rest
    of its cell; unreached vertices count as at distance n.

    An equitable colouring with w alone in its cell already separates the
    distances from w, so _refine reaches the same cells from this colouring
    as from w merely split off, in fewer rounds (their order may differ).
    Distances are isomorphism-invariant, so the result is too.
    """
    n = len(colour)
    dist = [n] * n
    dist[w] = 0
    frontier = [w]
    d = 0
    while frontier:
        d += 1
        reached = []
        for v in frontier:
            for u in nbrs[v]:
                if dist[u] == n:
                    dist[u] = d
                    reached.append(u)
        frontier = reached
    return [c * (n + 1) + d for c, d in zip(colour, dist)]


def _target_cell(colour: List[int]) -> List[int]:
    """The vertices of the first cell with more than one vertex."""
    sizes = [0] * len(colour)
    for c in colour:
        sizes[c] += 1
    target = next(c for c, size in enumerate(sizes) if size > 1)
    return [v for v, c in enumerate(colour) if c == target]


#: Search nodes automorphisms() may refine before it stops looking.
AUT_NODE_CAP = 1024


def automorphisms(G: CubicGraph) -> List[List[int]]:
    """Vertex permutations that generate Aut(G), each checked by
    edge_permutation.

    The first path of the search tree individualises, at each level, the
    least vertex v of the colouring's first non-singleton cell and refines.
    Level by level from the deepest, every other vertex w of that cell not
    already in the orbit of v (or of a w that failed) under the generators
    found so far roots a subtree search for a leaf whose colouring maps the
    first leaf onto itself; refinement quotients that differ from the first
    path's prune it.  Such a generator fixes the vertices individualised
    above its level, so the generators form a Schreier-Sims chain for the
    whole group.  After AUT_NODE_CAP refined subtree nodes the search
    stops and returns what it found: a generating set of a subgroup.
    """
    n = G.n
    nbrs = [tuple(G.other_end(f, v) for f in G.incidence[v]) for v in range(n)]
    colour, _ = _refine(nbrs, [0] * n)
    path: List[Tuple[List[int], List[int]]] = []  # (colouring, target cell)
    quotients: List[tuple] = []  # the refined quotient below each level
    while len(set(colour)) < n:
        cell = _target_cell(colour)
        path.append((colour, cell))
        colour, quotient = _refine(nbrs, _individualise(nbrs, colour, cell[0]))
        quotients.append(quotient)
    first_leaf = colour
    nodes = 0

    def search(colour: List[int], depth: int) -> Optional[List[int]]:
        """An automorphism reaching the first leaf from the node at depth
        whose colouring, not yet refined, is colour."""
        nonlocal nodes
        nodes += 1
        colour, quotient = _refine(nbrs, colour)
        if quotient != quotients[depth - 1]:
            return None
        if depth == len(path):  # equal quotients: colour is discrete too
            at = [0] * n
            for u, c in enumerate(colour):
                at[c] = u
            sigma = [at[c] for c in first_leaf]
            return sigma if edge_permutation(G, sigma) is not None else None
        for w in _target_cell(colour):
            if nodes >= AUT_NODE_CAP:
                return None
            found = search(_individualise(nbrs, colour, w), depth + 1)
            if found is not None:
                return found
        return None

    orbit = list(range(n))  # union-find; each root is its orbit's least vertex

    def find(v: int) -> int:
        while orbit[v] != v:
            orbit[v] = orbit[orbit[v]]
            v = orbit[v]
        return v

    generators: List[List[int]] = []
    for level in range(len(path) - 1, -1, -1):
        colour, cell = path[level]
        tried = [cell[0]]
        for w in cell[1:]:
            if nodes >= AUT_NODE_CAP:
                return generators
            if any(find(w) == find(x) for x in tried):
                continue
            sigma = search(_individualise(nbrs, colour, w), level + 1)
            if sigma is None:
                tried.append(w)
                continue
            generators.append(sigma)
            for v, x in enumerate(sigma):
                a, b = find(v), find(x)
                if a != b:
                    orbit[max(a, b)] = min(a, b)
    return generators


# ---------------------------------------------------------------------------
# Test families.  Each rejects a member past MAX_EDGES before it builds an
# edge, so a huge parameter costs nothing.
# ---------------------------------------------------------------------------


def flower_snark(t: int) -> CubicGraph:
    """The flower snark J_t (odd t >= 5): 4t vertices, 6t edges.

    Vertex layout: hub h_i = 4i, star tips b_i = 4i+1 (outer t-circuit),
    c_i = 4i+2 and d_i = 4i+3 (the 2t-circuit with a half twist).
    """
    if t < 5 or t % 2 == 0:
        raise ValueError("flower snark requires odd t >= 5")
    _check_edge_count(6 * t)
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


def prism(t: int) -> CubicGraph:
    """The prism C_t x K_2: 2t vertices, 3t edges; the two t-circuits,
    then the rungs."""
    _check_edge_count(3 * t)
    edges = [(i, (i + 1) % t) for i in range(t)]
    edges += [(t + i, t + (i + 1) % t) for i in range(t)]
    edges += [(i, t + i) for i in range(t)]
    return CubicGraph(2 * t, edges)


def mobius_ladder(t: int) -> CubicGraph:
    """The Moebius ladder M_2t: a 2t-circuit, then its t diagonals; 2t
    vertices, 3t edges."""
    _check_edge_count(3 * t)
    edges = [(i, (i + 1) % (2 * t)) for i in range(2 * t)]
    edges += [(i, i + t) for i in range(t)]
    return CubicGraph(2 * t, edges)
