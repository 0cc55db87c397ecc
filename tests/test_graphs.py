import itertools
import random
import time
import tracemalloc
from collections import deque

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher
from hypothesis import assume, example, given, settings, strategies as st

from factorcover import graphs
from factorcover.cores import build_core, classify_core, verify_core_theorems
from factorcover.graphs import (
    MAX_EDGES,
    CubicGraph,
    GraphFormatError,
    GraphTooLargeError,
    NotCubicError,
    _bfs,
    _cycle_labels,
    _exceeding,
    _girth,
    _hamiltonian_circuit,
    _indices,
    _levels,
    _mask,
    _transpose,
    _two_coloring,
    automorphisms,
    bridges,
    cycle_space_basis,
    edge_permutation,
    flower_snark,
    girth,
    has_nontrivial_3_edge_cut,
    is_bipartite,
    is_bridgeless,
    is_hamiltonian,
    is_hypohamiltonian,
    mobius_ladder,
    parse_edge_list,
    parse_graph6,
    prism,
    to_mgf,
)
from factorcover.matching import enumerate_perfect_matchings

from conftest import (
    K4_EDGES,
    PETERSEN_EDGES,
    components,
    random_connected_cubic_multigraph,
)


def to_nx(G: CubicGraph) -> nx.MultiGraph:
    H = nx.MultiGraph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges)
    return H


# ---------------------------------------------------------------------------
# Edge sets: int bitmasks over the edge indices
# ---------------------------------------------------------------------------


@st.composite
def index_sets(draw):
    m = draw(st.integers(1, MAX_EDGES))
    indices = st.sets(st.integers(0, m - 1))
    return m, draw(indices), draw(indices), draw(st.integers(-2, m + 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(index_sets())
def test_edge_set_algebra_matches_python_sets(case):
    """_mask and _indices round-trip, a complement ANDed with the full mask
    stays non-negative, and _mask rejects an index outside 0..m-1."""
    m, x, y, probe = case
    a, b = _mask(m, x), _mask(m, y)
    full = (1 << m) - 1
    for got, want in ((a, x), (a | b, x | y), (a & b, x & y),
                      (a & ~b, x - y), (a ^ b, x ^ y),
                      (full & ~a, set(range(m)) - x)):
        assert 0 <= got <= full and _indices(got) == sorted(want)
    assert a.bit_count() == len(x)
    if 0 <= probe < m:
        assert _mask(m, [*x, probe]) == a | 1 << probe
    else:
        with pytest.raises(ValueError, match="out of range"):
            _mask(m, [*x, probe])


# ---------------------------------------------------------------------------
# MGF parsing
# ---------------------------------------------------------------------------


def test_mgf_round_trip(petersen):
    again = parse_edge_list(to_mgf(petersen))
    assert again.n == petersen.n and again.edges == petersen.edges


@st.composite
def cubic_multigraphs(draw):
    """Configuration model: 3n half-edges paired by a drawn permutation,
    loops rejected; parallel edges and disconnected results are kept."""
    n = 2 * draw(st.integers(1, 32))
    stubs = draw(st.permutations([v for v in range(n) for _ in range(3)]))
    edges = list(zip(stubs[0::2], stubs[1::2]))
    assume(all(u != v for u, v in edges))
    return CubicGraph(n, edges)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cubic_multigraphs())
def test_mgf_round_trip_on_generated_multigraphs(G):
    assert parse_edge_list(to_mgf(G)) == G


def test_mgf_parallel_edges_and_comments():
    G = parse_edge_list("# theta graph\n2 3\n0 1\n0 1\n0 1\n")
    assert G.n == 2 and G.m == 3


def test_mgf_parse_failure_is_not_cubic_failure():
    with pytest.raises(GraphFormatError):
        parse_edge_list("4 banana\n0 1\n")
    # well-formed but wrong degrees must raise the cubic error instead
    with pytest.raises(NotCubicError):
        parse_edge_list("2 1\n0 1\n")
    with pytest.raises(NotCubicError):
        parse_edge_list("1 3\n0 0\n0 0\n0 0\n")  # loops


def test_vertex_count_is_bounded_before_allocation():
    """A header naming a million vertices fails before one list per vertex
    is built: a cubic graph within MAX_EDGES has at most 128 vertices."""
    tracemalloc.start()
    try:
        with pytest.raises(GraphTooLargeError, match="1000000 vertices"):
            parse_edge_list("1000000 3\n0 1\n1 2\n2 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


@pytest.mark.parametrize("family,largest,past", [
    (flower_snark, 31, 33), (prism, 64, 65), (mobius_ladder, 64, 65)])
def test_family_past_the_edge_cap_fails_before_building(family, largest,
                                                        past):
    """The largest member within MAX_EDGES builds, and the next one fails;
    t = 100,001 names 300,003 edges or more, and fails before one of them
    is built."""
    assert family(largest).m <= MAX_EDGES
    with pytest.raises(GraphTooLargeError):
        family(past)
    tracemalloc.start()
    try:
        with pytest.raises(GraphTooLargeError, match="exceeds capacity 192"):
            family(100_001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_empty_graph_is_a_format_error():
    for parse in (lambda: parse_edge_list("# empty\n0 0\n"),
                  lambda: parse_graph6("?"),
                  lambda: CubicGraph(0, [])):
        with pytest.raises(GraphFormatError):
            parse()


# ---------------------------------------------------------------------------
# graph6 parsing (networkx as the encoding oracle)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,seed", [(10, 1), (14, 2), (20, 3), (64, 4),
                                    (100, 5)])
def test_graph6_against_networkx(n, seed):
    H = nx.random_regular_graph(3, n, seed=seed)
    line = nx.to_graph6_bytes(H, header=False).decode().strip()
    G = parse_graph6(line)
    assert G.n == n
    assert {frozenset(e) for e in G.edges} == {frozenset(e)
                                               for e in H.edges()}


def test_graph6_rejects_noncubic():
    line = nx.to_graph6_bytes(nx.path_graph(4), header=False).decode().strip()
    with pytest.raises(NotCubicError):
        parse_graph6(line)


def test_graph6_rejects_garbage():
    with pytest.raises(GraphFormatError):
        parse_graph6("")
    with pytest.raises(GraphFormatError):
        parse_graph6("\x01\x02")


GRAPH6_CHARS = st.characters(min_codepoint=63, max_codepoint=126)


@st.composite
def graph6_sized(draw):
    """A short-form size byte and a body of exactly the length it needs."""
    n = draw(st.integers(0, 20))
    need = (n * (n - 1) // 2 + 5) // 6
    return chr(63 + n) + draw(st.text(GRAPH6_CHARS, min_size=need,
                                      max_size=need))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.text(st.characters(blacklist_categories=("Cc", "Cs"))),
                 st.text(GRAPH6_CHARS), graph6_sized()))
def test_graph6_parses_or_raises_a_graph_error(line):
    # GraphTooLargeError needs more than 128 vertices, so a line of over a
    # thousand characters; it is the parser's third error
    try:
        G = parse_graph6(line)
    except (GraphFormatError, NotCubicError, GraphTooLargeError):
        return
    assert isinstance(G, CubicGraph) and G.m == 3 * G.n // 2


# ---------------------------------------------------------------------------
# girth / bridges / bipartiteness against networkx
# ---------------------------------------------------------------------------


def test_girth_small_multigraphs(theta):
    assert girth(theta) == 2
    assert girth(CubicGraph(4, K4_EDGES)) == 3
    assert girth(CubicGraph(10, PETERSEN_EDGES)) == 5


def test_girth_against_networkx_on_corpus(corpus):
    rng = random.Random(7)
    for name, G in rng.sample(corpus, 60):
        H = to_nx(G)
        if any(H.number_of_edges(u, v) > 1 for u, v in H.edges()):
            continue
        assert girth(G) == nx.girth(nx.Graph(H)), name


def test_bridges_against_networkx():
    # two subdivided K_4s joined at the subdivision vertices: one bridge
    text = ("10 15\n0 1\n0 2\n0 3\n1 2\n1 3\n2 4\n3 4\n"
            "5 6\n5 7\n5 8\n6 7\n6 8\n7 9\n8 9\n4 9\n")
    G = parse_edge_list(text)
    assert _indices(bridges(G)) == [14]
    assert not is_bridgeless(G)
    oracle = {frozenset(e) for e in nx.bridges(nx.Graph(to_nx(G)))}
    assert oracle == {frozenset(G.edges[i]) for i in _indices(bridges(G))}


def test_parallel_edges_are_never_bridges(theta):
    assert is_bridgeless(theta)


def test_corpus_is_bridgeless(corpus):
    assert all(is_bridgeless(G) for _, G in corpus)


def test_bipartite_against_networkx(corpus, k33, petersen):
    assert is_bipartite(k33)[0]
    assert not is_bipartite(petersen)[0]
    rng = random.Random(11)
    for name, G in rng.sample(corpus, 60):
        verdict, sides = is_bipartite(G)
        assert verdict == nx.is_bipartite(to_nx(G)), name
        if verdict:
            assert all(sides[u] != sides[v] for u, v in G.edges)


def masked_subgraph(G: CubicGraph, mask: int) -> nx.MultiGraph:
    H = nx.MultiGraph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(e for f, e in enumerate(G.edges) if mask >> f & 1)
    return H


def check_bfs(G: CubicGraph, H: nx.MultiGraph, mask: int, roots,
              comps) -> None:
    """_bfs against networkx: H is masked_subgraph(G, mask) and comps are
    its components that meet roots."""
    order, parent_edge, depth = _bfs(G, mask, roots)
    reached = set().union(*comps)
    assert sorted(order) == sorted(reached)
    tree_root = {v: next(r for r in roots if r in comp)
                 for comp in comps for v in comp}
    for v in range(G.n):
        if v not in reached:
            assert depth[v] == parent_edge[v] == -1
            continue
        assert depth[v] == nx.shortest_path_length(H, tree_root[v], v)
        f = parent_edge[v]
        if depth[v] == 0:
            assert f == -1 and v == tree_root[v]
            continue
        assert mask >> f & 1 and v in G.edges[f]
        assert depth[G.other_end(f, v)] == depth[v] - 1
    # each tree is visited root first, then level by level
    assert all(depth[w] == 0 or depth[v] <= depth[w]
               for v, w in zip(order, order[1:]))


def test_masked_queries_against_networkx(corpus):
    """_girth, _bfs, _cycle_labels (the bridges are the edges labelled 0)
    and _two_coloring on seeded random edge subsets of corpus graphs and
    configuration-model multigraphs."""
    rng = random.Random(2013)
    graphs = [G for _, G in rng.sample(corpus, 50)]
    for _ in range(50):
        n = rng.choice(range(2, 13, 2))
        graphs.append(random_connected_cubic_multigraph(rng, n))
    seen = {"subsets": 0, "forest": 0, "parallel": 0, "odd": 0,
            "bipartite": 0, "bridge": 0, "parallel_reached": 0}
    for G in graphs:
        full = (1 << G.m) - 1
        masks = [0, full] + [
            sum(1 << f for f in range(G.m) if rng.random() < p)
            for p in (0.5, 0.7, 0.85, 0.95)
        ]
        for mask in masks:
            H = masked_subgraph(G, mask)
            parallel = any(H.number_of_edges(u, v) > 1 for u, v in H.edges())
            want_girth = 2 if parallel else nx.girth(nx.Graph(H))
            want_girth = None if want_girth == float("inf") else want_girth
            assert _girth(G, mask) == want_girth, (G.edges, mask)

            roots = (list(range(G.n)) if rng.random() < 0.3
                     else rng.sample(range(G.n), rng.randint(0, G.n)))
            comps = [c for c in nx.connected_components(H) if c & set(roots)]
            comps.sort(key=lambda c: min(c & set(roots)))
            assert components(G, mask, roots) == [sorted(c) for c in comps]
            check_bfs(G, H, mask, roots, comps)
            reached = set().union(*comps)

            order, parent_edge, depth, label = _cycle_labels(G, mask, roots)
            assert (order, parent_edge, depth) == _bfs(G, mask, roots)
            assert all((x >= 0) == (mask >> e & 1 and G.edges[e][0] in reached)
                       for e, x in enumerate(label)), (G.edges, mask, roots)
            # nx.bridges of a MultiGraph never holds a parallel pair, so
            # each of its bridges is the pair of exactly one mask edge
            nx_bridges = {frozenset(e) for e in nx.bridges(H)}
            want_bridges = [f for f, (u, v) in enumerate(G.edges)
                            if mask >> f & 1 and u in reached
                            and frozenset((u, v)) in nx_bridges]
            got_bridges = [e for e, x in enumerate(label) if x == 0]
            assert got_bridges == want_bridges, (G.edges, mask, roots)

            bip = all(nx.is_bipartite(H.subgraph(c)) for c in comps)
            coloring = _two_coloring(G, mask, depth)
            assert (coloring is not None) == bip, (G.edges, mask, roots)
            if coloring is not None:
                assert all((coloring[v] >= 0) == (v in reached)
                           for v in range(G.n))
                assert all(coloring[u] != coloring[v] for u, v in H.edges()
                           if u in reached)
            seen["subsets"] += 1
            seen["forest"] += want_girth is None
            seen["parallel"] += parallel
            seen["odd"] += comps != [] and not bip
            seen["bipartite"] += comps != [] and bip
            seen["bridge"] += bool(want_bridges)
            seen["parallel_reached"] += any(
                H.number_of_edges(u, v) > 1 for u, v in H.edges()
                if u in reached)
    assert seen["subsets"] >= 500 and all(seen.values()), seen


def girth_per_edge_oracle(G: CubicGraph, mask: int):
    """The girth search that the vertex-rooted BFS replaced: for each edge
    e = uv of mask, the shortest u-v path avoiding e, closed by e."""
    edges, incidence = G.edges, G.incidence
    best = None
    for e, (u, v) in enumerate(edges):
        if not mask >> e & 1:
            continue
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


def test_girth_matches_per_edge_oracle_on_corpus(corpus):
    assert len(corpus) == 590
    for name, G in corpus:
        full = (1 << G.m) - 1
        assert _girth(G, full) == girth_per_edge_oracle(G, full), name


def test_girth_matches_per_edge_oracle_on_core_samples(corpus, corpus_pms):
    rng = random.Random(1978)
    cores = 0
    for name, G in corpus:
        pms = corpus_pms[name]
        triples = list(itertools.combinations(range(len(pms)), 3))
        for i, j, l in rng.sample(triples, min(len(triples), 4)):
            mask = build_core(G, pms[i], pms[j], pms[l]).edge_indices
            assert _girth(G, mask) == girth_per_edge_oracle(G, mask), (
                name, (i, j, l))
            cores += 1
    assert cores > 2000


def test_girth_matches_per_edge_oracle_on_flower_snarks():
    for t in range(5, 15, 2):
        J = flower_snark(t)
        full = (1 << J.m) - 1
        assert _girth(J, full) == girth_per_edge_oracle(J, full), t
        pms = enumerate_perfect_matchings(J)
        rng = random.Random(t)
        for _ in range(20):
            i, j, l = sorted(rng.sample(range(len(pms)), 3))
            mask = build_core(J, pms[i], pms[j], pms[l]).edge_indices
            assert _girth(J, mask) == girth_per_edge_oracle(J, mask), (
                t, (i, j, l))


def test_girth_matches_per_edge_oracle_on_random_multigraph_masks():
    rng = random.Random(1012)
    seen = {"parallel": 0, "forest": 0, "circuit": 0}
    for trial in range(400):
        G = random_connected_cubic_multigraph(rng, rng.choice(range(2, 31, 2)))
        masks = [(1 << G.m) - 1] + [
            sum(1 << f for f in range(G.m) if rng.random() < p)
            for p in (0.3, 0.6, 0.8, 0.9)
        ]
        for mask in masks:
            want = girth_per_edge_oracle(G, mask)
            assert _girth(G, mask) == want, (G.edges, mask)
            seen["parallel"] += want == 2
            seen["forest"] += want is None
            seen["circuit"] += want is not None and want > 2
    assert all(count >= 100 for count in seen.values()), seen


@st.composite
def masks_of_width(draw):
    m = draw(st.integers(1, MAX_EDGES))
    bits = st.integers(0, (1 << m) - 1)
    return m, draw(bits), draw(st.lists(bits, max_size=6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(masks_of_width(), st.none() | st.integers(0, 7))
def test_levels_against_per_edge_count(case, top):
    m, full, masks = case
    exactly = _levels(full, masks, top)
    assert len(exactly) == (len(masks) if top is None else top) + 1
    for i in range(m):
        count = sum(x >> i & 1 for x in masks)
        for t, level in enumerate(exactly):
            assert level >> i & 1 == (full >> i & 1 and count == t)


def per_bit_counts(width, masks):
    """counts[i]: how many of masks hold bit i."""
    counts = [0] * width
    for x in masks:
        for i in _indices(x):
            counts[i] += 1
    return counts


def bits_where(counts, keep):
    """The int with bit i set where keep(counts[i])."""
    return int("0" + "".join("1" if keep(c) else "0"
                             for c in reversed(counts)), 2)


@st.composite
def wide_masks(draw):
    """Up to 40 masks of a width up to 4,096 bits (p-scale), and a top from
    0 to past the number of masks."""
    width = draw(st.integers(0, 4096))
    masks = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=40))
    return width, masks, draw(st.integers(0, len(masks) + 3))


WIDE = (1 << 4096) - 1


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(wide_masks())
@example((0, [], 0))
@example((9, [], 3))
@example((64, [0, 0, 0], 0))
@example((64, [0, 0, 0], 5))
@example((3, [5, 3, 6], 0))
@example((4096, [WIDE] * 40, 0))
@example((4096, [WIDE, 1 << 4095, WIDE ^ 1], 43))
def test_exceeding_against_per_bit_count(case):
    width, masks, top = case
    over = _exceeding(masks, top)
    assert len(over) == top + 1
    counts = per_bit_counts(width, masks)
    for t, level in enumerate(over):
        assert level == bits_where(counts, lambda c: c > t), t


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(wide_masks(), st.integers(0, (1 << 4096) - 1))
@example((2048, [(1 << 2048) - 1, 0, 1 << 2047], 7), (1 << 2048) - 1)
@example((4096, [WIDE ^ 5, WIDE >> 1, 6], 4), WIDE)
@example((4096, [WIDE] * 3, 40), WIDE >> 100)
@example((4096, [], 2), WIDE)
def test_levels_on_wide_masks(case, full):
    """_levels at the widths of a per-edge index (p bits), with top above
    the number of masks; full may reach past the masks' width."""
    width, masks, top = case
    exactly = _levels(full, masks, top)
    assert len(exactly) == top + 1
    counts = per_bit_counts(max(width, full.bit_length()), masks)
    for t, level in enumerate(exactly):
        assert level == full & bits_where(counts, lambda c: c == t), t


@st.composite
def bit_matrices(draw):
    width = draw(st.integers(0, MAX_EDGES))
    return width, draw(st.lists(st.integers(0, (1 << width) - 1),
                                max_size=40))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bit_matrices())
@example((0, []))
@example((0, [0, 0, 0]))
@example((7, []))
@example((5, [0, 0, 0, 0]))
@example((MAX_EDGES, [1 << MAX_EDGES - 1, 0, (1 << MAX_EDGES) - 1]))
@example((1, [1, 0, 1]))
def test_transpose_against_per_bit_definition(case):
    """Entry j of the transpose has bit i set when rows[i] has bit j, and
    transposing twice gives the rows back."""
    width, rows = case
    flipped = _transpose(width, rows)
    assert flipped == [sum((x >> j & 1) << i for i, x in enumerate(rows))
                       for j in range(width)]
    assert _transpose(len(rows), flipped) == rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 8192).flatmap(
    lambda width: st.integers(0, (1 << width) - 1)))
@example(0)
@example(1)
@example((1 << 8192) - 1)
@example(1 << 8191 | 1)
def test_wide_indices_equal_indices(bits):
    assert graphs._wide_indices(bits) == _indices(bits)


# ---------------------------------------------------------------------------
# bridges from cycle labels (oracle: the Tarjan DFS they replaced)
# ---------------------------------------------------------------------------


def tarjan_bridges_oracle(G: CubicGraph, mask: int, roots):
    """Bridges of the subgraph with edge set mask.

    Iterative Tarjan DFS from each unvisited vertex of roots, skipping the
    tree in-edge by index, so a parallel pair never counts as a bridge.
    Returns the sorted bridges of the part that was reached and the number
    of vertices reached.
    """
    edges, incidence = G.edges, G.incidence
    disc = [-1] * G.n
    low = [0] * G.n
    out = []
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


def assert_label_bridges(G: CubicGraph, mask: int, roots, name):
    """The edges labelled 0 are the bridges of the reached part, and the
    forest reaches the vertices the DFS does."""
    order, _, _, label = _cycle_labels(G, mask, roots)
    got = [e for e, x in enumerate(label) if x == 0]
    assert (got, len(order)) == tarjan_bridges_oracle(G, mask, roots), name
    return got


def test_label_bridges_match_tarjan_on_corpus_and_cores(corpus, corpus_pms):
    """All corpus graphs and four seeded PM-triple cores of each, where
    classify_core and verify_core_theorems read the same bridges."""
    assert len(corpus) == 590
    rng = random.Random(1973)
    cores = 0
    for name, G in corpus:
        assert_label_bridges(G, (1 << G.m) - 1, range(G.n), name)
        assert _indices(bridges(G)) == tarjan_bridges_oracle(
            G, (1 << G.m) - 1, range(G.n))[0], name
        pms = corpus_pms[name]
        triples = list(itertools.combinations(range(len(pms)), 3))
        for i, j, l in triples[:1] + rng.sample(triples, min(len(triples), 4)):
            core = build_core(G, pms[i], pms[j], pms[l])
            mask = core.edge_indices
            want = tarjan_bridges_oracle(G, mask, core.vertices)[0]
            assert_label_bridges(G, mask, core.vertices, (name, i, j, l))
            cls = classify_core(core)
            assert cls.is_bridgeless == (not want), (name, i, j, l)
            assert [list(c.vertices) for c in cls.components] == components(
                G, mask, core.vertices), (name, i, j, l)
            for check in verify_core_theorems(core, cls):
                if check["name"] == "bipartite_implies_bridgeless":
                    assert check["measured"]["bridges"] == want
            cores += 1
    assert cores > 2000


def test_label_bridges_match_tarjan_on_flower_snarks():
    for t in range(5, 15, 2):
        J = flower_snark(t)
        assert_label_bridges(J, (1 << J.m) - 1, range(J.n), t)
        pms = enumerate_perfect_matchings(J)
        rng = random.Random(t)
        for _ in range(20):
            i, j, l = sorted(rng.sample(range(len(pms)), 3))
            core = build_core(J, pms[i], pms[j], pms[l])
            assert_label_bridges(J, core.edge_indices, core.vertices,
                                 (t, i, j, l))


def test_label_bridges_match_tarjan_on_random_multigraph_masks():
    rng = random.Random(1974)
    seen = {"parallel": 0, "forest": 0, "disconnected": 0, "bridge": 0}
    for trial in range(400):
        G = random_connected_cubic_multigraph(rng, rng.choice(range(2, 31, 2)))
        masks = [(1 << G.m) - 1] + [
            sum(1 << f for f in range(G.m) if rng.random() < p)
            for p in (0.3, 0.6, 0.8, 0.9)
        ]
        for mask in masks:
            roots = (range(G.n) if rng.random() < 0.5
                     else rng.sample(range(G.n), rng.randint(1, G.n)))
            got = assert_label_bridges(G, mask, roots, (G.edges, mask))
            kept = [G.edges[f] for f in range(G.m) if mask >> f & 1]
            seen["parallel"] += len(set(map(frozenset, kept))) < len(kept)
            seen["forest"] += _girth(G, mask) is None
            seen["disconnected"] += len(components(G, mask, range(G.n))) > 1
            seen["bridge"] += bool(got)
    assert all(count >= 100 for count in seen.values()), seen


# ---------------------------------------------------------------------------
# cycle-space labels (brute-force oracle: BFS after removing edges)
# ---------------------------------------------------------------------------


def disconnects(G: CubicGraph, removed) -> bool:
    kept = (1 << G.m) - 1
    for f in removed:
        kept ^= 1 << f
    return len(_bfs(G, kept, (0,))[0]) < G.n


def gf2_rank(vectors) -> int:
    pivots = {}
    for x in vectors:
        while x:
            top = x.bit_length() - 1
            if top not in pivots:
                pivots[top] = x
                break
            x ^= pivots[top]
    return len(pivots)


def test_cycle_labels_find_the_small_cuts(corpus):
    """Every star has XOR-label 0, the bridges are the edges labelled 0,
    and two non-bridges share a label exactly when removing both
    disconnects G; the basis is the labels' transpose and spans the cycle
    space."""
    rng = random.Random(2026)
    graphs = list(corpus) + [
        ("multigraph", random_connected_cubic_multigraph(
            rng, rng.choice(range(2, 17, 2))))
        for _ in range(300)]
    seen = {"bridge": 0, "two_cut": 0}
    for name, G in graphs:
        label = _cycle_labels(G, (1 << G.m) - 1, range(G.n))[3]
        for a, b, c in G.incidence:
            assert label[a] ^ label[b] ^ label[c] == 0, name
        zero = [e for e in range(G.m) if not label[e]]
        assert zero == tarjan_bridges_oracle(G, (1 << G.m) - 1,
                                             range(G.n))[0], name
        for a, b in itertools.combinations(range(G.m), 2):
            if label[a] and label[b]:
                two_cut = disconnects(G, (a, b))
                assert (label[a] == label[b]) == two_cut, (name, a, b)
                seen["two_cut"] += two_cut
        seen["bridge"] += bool(zero)

        basis = cycle_space_basis(G)
        assert len(basis) == G.m - G.n + 1 == gf2_rank(basis), name
        for j, cycle in enumerate(basis):
            assert all((cycle & star).bit_count() % 2 == 0
                       for star in G.stars), name
            assert all(cycle >> e & 1 == label[e] >> j & 1
                       for e in range(G.m)), name
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# 3-edge-cuts (independent oracle: vertex-subset scan)
# ---------------------------------------------------------------------------


def has_3cut_oracle(G: CubicGraph) -> bool:
    for size in range(2, G.n - 1):
        for side in itertools.combinations(range(G.n), size):
            inside = set(side)
            crossing = sum(1 for u, v in G.edges
                           if (u in inside) != (v in inside))
            if crossing == 3:
                return True
    return False


def test_3_edge_cut_against_oracle(corpus):
    rng = random.Random(13)
    small = [(n, G) for n, G in corpus if G.n <= 10]
    for name, G in rng.sample(small, 12):
        assert has_nontrivial_3_edge_cut(G)[0] == has_3cut_oracle(G), name


def test_3_edge_cut_known_values(petersen, k4, j5, theta):
    assert has_nontrivial_3_edge_cut(petersen) == (False, None)
    assert has_nontrivial_3_edge_cut(k4) == (False, None)
    assert has_nontrivial_3_edge_cut(theta) == (False, None)
    found, cut = has_nontrivial_3_edge_cut(j5)
    assert not found and cut is None


def test_3_edge_cut_rejects_disconnected_input():
    two_thetas = CubicGraph(4, [(0, 1)] * 3 + [(2, 3)] * 3)
    with pytest.raises(ValueError):
        has_nontrivial_3_edge_cut(two_thetas)


def test_3_edge_cut_at_edge_capacity():
    # the prism C_64 x K_2 is cyclically 4-edge-connected
    G = prism(64)
    assert G.m == MAX_EDGES
    assert has_nontrivial_3_edge_cut(G) == (False, None)


def triple_scan_oracle(G: CubicGraph):
    """Exhaustive O(m^4) scan: the first edge triple, in lexicographic
    order, whose removal leaves a component of 2..n-2 vertices."""
    for a, b, c in itertools.combinations(range(G.m), 3):
        kept = (1 << G.m) - 1 ^ (1 << a | 1 << b | 1 << c)
        comps = components(G, kept, range(G.n))
        if any(2 <= len(comp) <= G.n - 2 for comp in comps):
            return True, (a, b, c)
    return False, None


def tarjan_pair_oracle(G: CubicGraph):
    """The O(m^3) search that the label lookup replaced: for each edge
    pair a < b, one Tarjan DFS (tarjan_bridges_oracle) over G - {a, b}.  When it reaches
    all n vertices, {a, b, c} is a cut exactly when c is a bridge of
    G - {a, b}, and the cut is trivial exactly when {a, b, c} is the edge
    set of one vertex.  When it does not, {a, b} is a 2-edge cut and each
    c > b is checked by its components."""
    n, m = G.n, G.m
    full = (1 << G.m) - 1
    stars = set(G.incidence)
    for a in range(m):
        for b in range(a + 1, m - 1):
            kept = full ^ (1 << a | 1 << b)
            cut, reached = tarjan_bridges_oracle(G, kept, (0,))
            if reached == n:
                for c in cut:
                    if c > b and (a, b, c) not in stars:
                        return True, (a, b, c)
                continue
            for c in range(b + 1, m):
                comps = components(G, kept ^ (1 << c), range(n))
                if any(2 <= len(comp) <= n - 2 for comp in comps):
                    return True, (a, b, c)
    return False, None


def test_3_edge_cut_matches_tarjan_pair_oracle(corpus):
    assert len(corpus) == 590
    graphs = list(corpus)
    graphs += [(f"J{t}", flower_snark(t)) for t in (5, 7, 9, 11, 13)]
    graphs.append(("C64xK2", prism(64)))
    assert graphs[-1][1].m == MAX_EDGES
    for name, G in graphs:
        assert has_nontrivial_3_edge_cut(G) == tarjan_pair_oracle(G), name


def min_edge_cut_size(G: CubicGraph) -> int:
    """Smallest k in (1, 2) such that some k edges disconnect G, else 3."""
    for k in (1, 2):
        if any(disconnects(G, removed)
               for removed in itertools.combinations(range(G.m), k)):
            return k
    return 3


def test_3_edge_cut_matches_triple_scan_on_corpus(corpus, j5):
    small = [(name, G) for name, G in corpus if G.n <= 12]
    assert len(small) > 100
    for name, G in small + [("J5", j5), ("J7", flower_snark(7))]:
        assert has_nontrivial_3_edge_cut(G) == triple_scan_oracle(G), name


def test_3_edge_cut_matches_triple_scan_on_random_multigraphs():
    rng = random.Random(2012)
    seen = {"bridge": 0, "two_cut_only": 0, "parallel": 0}
    for trial in range(1000):
        G = random_connected_cubic_multigraph(rng, rng.choice(range(2, 13, 2)))
        assert has_nontrivial_3_edge_cut(G) == triple_scan_oracle(G), (
            trial, G.edges)
        cut_size = min_edge_cut_size(G)
        seen["bridge"] += cut_size == 1
        seen["two_cut_only"] += cut_size == 2
        seen["parallel"] += len(set(map(frozenset, G.edges))) < G.m
    # the sample exercises the disconnected-pair branch and parallel edges
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# hamiltonicity
# ---------------------------------------------------------------------------


def hamiltonian_oracle(G: CubicGraph) -> bool:
    adj = [set() for _ in range(G.n)]
    for u, v in G.edges:
        adj[u].add(v)
        adj[v].add(u)
    for perm in itertools.permutations(range(1, G.n)):
        walk = (0,) + perm
        if all(walk[i + 1] in adj[walk[i]] for i in range(G.n - 1)) and (
                walk[0] in adj[walk[-1]]):
            return True
    return False


def test_hamiltonian_against_oracle(corpus):
    for name, G in corpus:
        if G.n <= 8:
            assert is_hamiltonian(G) == hamiltonian_oracle(G), name


def test_hamiltonian_known_values(petersen, theta, j5):
    assert not is_hamiltonian(petersen)
    assert is_hamiltonian(theta)  # the 2-circuit through both vertices
    assert not is_hamiltonian(j5)


def test_hypohamiltonian(petersen, k4, j5):
    assert is_hypohamiltonian(petersen)
    assert not is_hypohamiltonian(k4)  # hamiltonian, so not hypo
    assert is_hypohamiltonian(j5)


def hamiltonian_unpruned_oracle(G: CubicGraph, avoid: int = -1):
    """The search that the free-edge prune replaced: a plain DFS over
    paths from the lowest vertex other than avoid, trying edges in
    G.incidence order."""
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
    path_edges = []

    def extend(v, count):
        for f in incidence[v]:
            if path_edges and f == path_edges[-1]:
                continue
            a, b = edges[f]
            w = b if v == a else a
            if count == n:
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


def assert_same_circuits(G: CubicGraph, avoids, name):
    for v in avoids:
        assert (_hamiltonian_circuit(G, v)
                == hamiltonian_unpruned_oracle(G, v)), (name, v)


def test_hamiltonian_prune_keeps_the_circuit_on_corpus(corpus):
    assert len(corpus) == 590
    small = 0
    for name, G in corpus:
        if G.n <= 12:
            small += 1
            assert_same_circuits(G, range(-1, G.n), name)
        else:
            assert_same_circuits(G, (-1,), name)
    assert small > 100


def test_hamiltonian_prune_keeps_the_circuit_on_flower_snarks(j5):
    for name, G in (("J5", j5), ("J7", flower_snark(7))):
        assert_same_circuits(G, range(-1, G.n), name)


def test_hamiltonian_prune_keeps_the_circuit_on_random_multigraphs():
    rng = random.Random(1012)
    parallel = found = 0
    for trial in range(300):
        G = random_connected_cubic_multigraph(rng, rng.choice(range(2, 13, 2)))
        assert_same_circuits(G, range(-1, G.n), (trial, G.edges))
        parallel += len(set(map(frozenset, G.edges))) < G.m
        found += _hamiltonian_circuit(G) is not None
    # parallel edges, and both outcomes of the search, are exercised
    assert parallel and 0 < found < 300


def test_hamiltonian_flower_snarks():
    t0 = time.perf_counter()
    assert not is_hamiltonian(flower_snark(9))
    assert not is_hamiltonian(flower_snark(11))
    assert is_hypohamiltonian(flower_snark(9))
    assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# automorphisms against networkx
# ---------------------------------------------------------------------------


def edge_multiset(G: CubicGraph, sigma):
    return sorted(tuple(sorted((sigma[u], sigma[v]))) for u, v in G.edges)


def vertex_orbits(n: int, generators):
    orbit = nx.utils.UnionFind(range(n))
    for sigma in generators:
        for v, w in enumerate(sigma):
            orbit.union(v, w)
    return sorted(sorted(cell) for cell in orbit.to_sets())


def nx_vertex_orbits(G: CubicGraph):
    """Vertex orbits of the simple graph of G whose edges carry their
    multiplicity, over every automorphism networkx lists."""
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    for u, v in G.edges:
        mult = H.edges[u, v]["mult"] + 1 if H.has_edge(u, v) else 1
        H.add_edge(u, v, mult=mult)
    matcher = GraphMatcher(
        H, H, edge_match=lambda a, b: a["mult"] == b["mult"])
    return vertex_orbits(G.n, ([sigma[v] for v in range(G.n)]
                               for sigma in matcher.isomorphisms_iter()))


def check_automorphisms(G: CubicGraph) -> None:
    generators = automorphisms(G)
    for sigma in generators:
        assert edge_multiset(G, sigma) == edge_multiset(G, range(G.n))
        perm = edge_permutation(G, sigma)
        assert sorted(perm) == list(range(G.m))
        for f, g in enumerate(perm):
            u, v = G.edges[f]
            assert sorted(G.edges[g]) == sorted((sigma[u], sigma[v]))
    assert vertex_orbits(G.n, generators) == nx_vertex_orbits(G), G.edges


def test_automorphisms_against_networkx_on_corpus_sample(corpus, petersen, k4):
    rng = random.Random(43)
    for _, G in [("petersen", petersen), ("k4", k4)] + rng.sample(corpus, 60):
        check_automorphisms(G)


def test_automorphisms_against_networkx_on_multigraphs(theta):
    rng = random.Random(47)
    family = [theta, flower_snark(5), prism(8)]
    family += [
        random_connected_cubic_multigraph(rng, rng.choice(range(2, 17, 2)))
        for _ in range(150)]
    parallel = 0
    for G in family:
        check_automorphisms(G)
        parallel += len(set(map(frozenset, G.edges))) < G.m
    assert parallel > 50, parallel


def group_order(n: int, generators) -> int:
    """The order of the group the vertex permutations generate: the
    identity closed under composing with each generator."""
    seen = {tuple(range(n))}
    stack = list(seen)
    while stack:
        g = stack.pop()
        for sigma in generators:
            h = tuple(sigma[v] for v in g)
            if h not in seen:
                seen.add(h)
                stack.append(h)
    return len(seen)


def nx_automorphism_count(G: CubicGraph) -> int:
    """The number of vertex permutations preserving every edge
    multiplicity, as networkx lists them."""
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    for u, v in G.edges:
        mult = H.edges[u, v]["mult"] + 1 if H.has_edge(u, v) else 1
        H.add_edge(u, v, mult=mult)
    matcher = GraphMatcher(
        H, H, edge_match=lambda a, b: a["mult"] == b["mult"])
    return sum(1 for _ in matcher.isomorphisms_iter())


def test_automorphisms_generate_the_whole_group(corpus, petersen, k4, theta):
    """A proper subgroup can have the vertex orbits of the whole group, but
    not its order."""
    rng = random.Random(43)
    family = [petersen, k4] + [G for _, G in rng.sample(corpus, 60)]
    rng = random.Random(47)
    family += [theta, flower_snark(5), prism(8)]
    family += [
        random_connected_cubic_multigraph(rng, rng.choice(range(2, 17, 2)))
        for _ in range(150)]
    family += [prism(t) for t in range(2, 9)]
    family += [mobius_ladder(t) for t in range(2, 9)]
    larger = 0
    for G in family:
        order = nx_automorphism_count(G)
        assert group_order(G.n, automorphisms(G)) == order, G.edges
        larger += order > 2
    assert larger > 100, larger


def neighbours(G: CubicGraph):
    return [tuple(G.other_end(f, v) for f in G.incidence[v])
            for v in range(G.n)]


def refine_by_tuples(nbrs, colour):
    """_refine with each signature the tuple of a vertex's colour and its
    sorted neighbour colours."""
    ranks = {c: i for i, c in enumerate(sorted(set(colour)))}
    colour = [ranks[c] for c in colour]
    while True:
        sigs = [(colour[v], tuple(sorted(colour[u] for u in nbrs[v])))
                for v in range(len(nbrs))]
        keys = sorted(set(sigs))
        if len(keys) == len(set(colour)):
            return colour
        rank = {sig: i for i, sig in enumerate(keys)}
        colour = [rank[sig] for sig in sigs]


def cells(colour):
    found = {}
    for v, c in enumerate(colour):
        found.setdefault(c, []).append(v)
    return sorted(found.values())


@st.composite
def relabelled_multigraphs(draw):
    """A connected cubic multigraph, a starting colouring and a vertex
    relabelling."""
    n = 2 * draw(st.integers(1, 20))
    G = random_connected_cubic_multigraph(
        random.Random(draw(st.integers(0, 2**32))), n)
    colour = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return G, colour, draw(st.permutations(range(n)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(relabelled_multigraphs())
def test_refine_commutes_with_relabelling(case):
    G, colour, pi = case
    H = CubicGraph(G.n, [(pi[u], pi[v]) for u, v in G.edges])
    moved = [0] * G.n
    for v, c in enumerate(colour):
        moved[pi[v]] = c
    got, quotient = graphs._refine(neighbours(G), colour)
    got_h, quotient_h = graphs._refine(neighbours(H), moved)
    assert all(got_h[pi[v]] == c for v, c in enumerate(got))
    assert quotient_h == quotient


TWO_K4 = CubicGraph(8, K4_EDGES + [(u + 4, v + 4) for u, v in K4_EDGES])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(relabelled_multigraphs(), st.integers(0, 39))
@example((TWO_K4, [0] * 8, [5, 7, 1, 0, 2, 6, 4, 3]), 6)
@example((CubicGraph(2, [(0, 1)] * 3), [0, 0], [1, 0]), 0)
def test_individualise_then_refine_commutes_with_relabelling(case, w):
    """The distance split keeps the colouring isomorphism-invariant, and
    refinement reaches the cells of w merely split off from its cell."""
    G, colour, pi = case
    w %= G.n
    H = CubicGraph(G.n, [(pi[u], pi[v]) for u, v in G.edges])
    moved = [0] * G.n
    for v, c in enumerate(colour):
        moved[pi[v]] = c
    nbrs, nbrs_h = neighbours(G), neighbours(H)
    got, quotient = graphs._refine(
        nbrs, graphs._individualise(nbrs, colour, w))
    got_h, quotient_h = graphs._refine(
        nbrs_h, graphs._individualise(nbrs_h, moved, pi[w]))
    assert all(got_h[pi[v]] == c for v, c in enumerate(got))
    assert quotient_h == quotient
    alone = [2 * c + (c == colour[w] and v != w) for v, c in enumerate(colour)]
    assert cells(got) == cells(graphs._refine(nbrs, alone)[0])
    assert [v for v, c in enumerate(got) if c == got[w]] == [w]


def test_refine_cells_equal_the_tuple_signature_cells(corpus, theta):
    rng = random.Random(53)
    family = [theta, flower_snark(5), flower_snark(9), prism(8)]
    family += [G for _, G in rng.sample(corpus, 60)]
    family += [random_connected_cubic_multigraph(
        rng, rng.choice(range(2, 41, 2))) for _ in range(100)]
    split = 0
    for G in family:
        nbrs = neighbours(G)
        starts = [[0] * G.n, [rng.randrange(3) for _ in range(G.n)]]
        starts += [[int(v == w) for v in range(G.n)]
                   for w in rng.sample(range(G.n), min(3, G.n))]
        for colour in starts:
            got = cells(graphs._refine(nbrs, colour)[0])
            assert got == cells(refine_by_tuples(nbrs, colour)), G.edges
            split += 1 < len(got) < G.n
    assert split > 150, split
    # vertices 0 and 2 share colour 2 and see the colours {1, 3, 3} and
    # {0, 0, 4}: as sums of powers of 2 instead of 4, both would be 18 and
    # the cell would not split
    G = CubicGraph(8, [(0, 7), (6, 7), (6, 3), (4, 2), (4, 5), (6, 1),
                       (5, 3), (3, 7), (2, 5), (0, 1), (2, 4), (1, 0)])
    nbrs, colour = neighbours(G), [2, 3, 2, 4, 0, 4, 4, 1]
    assert cells(graphs._refine(nbrs, colour)[0]) == [[v] for v in range(8)]
    assert cells(refine_by_tuples(nbrs, colour)) == [[v] for v in range(8)]


def test_edge_permutation_maps_parallel_edges_in_index_order():
    # a double edge 0-1 and a double edge 2-3, joined by 0-2 and 1-3
    G = CubicGraph(4, [(0, 1), (2, 3), (1, 0), (0, 2), (3, 2), (1, 3)])
    assert edge_permutation(G, [2, 3, 0, 1]) == [1, 0, 4, 3, 2, 5]
    assert edge_permutation(G, [1, 0, 3, 2]) == [0, 1, 2, 5, 4, 3]
    assert edge_permutation(G, [0, 2, 1, 3]) is None  # moves a double edge
    assert edge_permutation(G, [0, 0, 1, 2]) is None  # not a permutation


def test_automorphisms_node_cap_returns_a_subgroup(petersen, monkeypatch):
    J7 = flower_snark(7)
    full = automorphisms(J7)
    monkeypatch.setattr(graphs, "AUT_NODE_CAP", 0)
    assert automorphisms(petersen) == []
    monkeypatch.setattr(graphs, "AUT_NODE_CAP", 3)
    capped = automorphisms(J7)
    assert len(capped) < len(full)
    assert all(edge_permutation(J7, sigma) for sigma in capped)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_theta_graph(theta):
    assert (theta.n, theta.m) == (2, 3)


@pytest.mark.parametrize("t", [5, 7])
def test_flower_snark_shape(t):
    J = flower_snark(t)
    assert (J.n, J.m) == (4 * t, 6 * t)
    assert is_bridgeless(J)
    assert girth(J) == (5 if t == 5 else 6)
    assert not has_nontrivial_3_edge_cut(J)[0]


def test_flower_snark_rejects_even_or_small_t():
    with pytest.raises(ValueError):
        flower_snark(4)
    with pytest.raises(ValueError):
        flower_snark(3)
