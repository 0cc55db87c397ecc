import itertools
import random
import time
from typing import List, Optional, Tuple

import pytest

from factorcover.cores import build_core, classify_core, find_core
from factorcover.covers import mu_k
from factorcover.cyclecovers import (
    CoverConstructionError,
    DimensionCapExceededError,
    bipartite_core_cover,
    canonical_cover,
    cover_from_core,
    cycle_space_basis,
    five_cdc,
    four_cover_cycles,
    scc_exact,
    verify_cover,
)
from factorcover.graphs import CubicGraph, _indices, _mask, is_bridgeless
from factorcover.matching import (
    enumerate_perfect_matchings,
    is_three_edge_colorable,
)

from conftest import random_connected_cubic_multigraph


# ---------------------------------------------------------------------------
# verify_cover
# ---------------------------------------------------------------------------


def test_verify_cover_statistics(k4):
    t012 = _mask(k4.m, [0, 1, 3])  # triangle 0-1-2
    t013 = _mask(k4.m, [0, 2, 4])  # triangle 0-1-3
    t023 = _mask(k4.m, [1, 2, 5])  # triangle 0-2-3
    cover = verify_cover(k4, [t012, t013, t023])
    assert cover.valid and cover.count == 3
    assert cover.length == 3 + 3 + 3
    assert cover.ced == 2
    assert not cover.even  # the triangles are odd circuits


def test_verify_cover_flags_problems(k4):
    not_a_cycle = _mask(k4.m, [0])
    cover = verify_cover(k4, [not_a_cycle])
    assert not cover.valid and cover.problems
    missing = verify_cover(k4, [_mask(k4.m, [0, 1, 3])])
    assert not missing.valid
    assert any("uncovered" in p or "missing" in p for p in missing.problems)


def test_verify_cover_against_target(petersen):
    pms = enumerate_perfect_matchings(petersen)
    core = build_core(petersen, pms[0], pms[1], pms[2])
    cover = verify_cover(petersen, [core.edge_indices],
                         target=core.edge_indices)
    assert cover.valid and cover.length == 6


# ---------------------------------------------------------------------------
# canonical 2-cover of 3-edge-colorable graphs
# ---------------------------------------------------------------------------


def test_canonical_cover(corpus):
    rng = random.Random(43)
    for name, G in rng.sample(corpus, 40):
        colorable, coloring = is_three_edge_colorable(G)
        if not colorable:
            continue
        cover = canonical_cover(G, coloring)
        assert cover.valid and cover.count == 2, name
        assert cover.length == 4 * G.m // 3, name
        assert cover.even, name


def test_canonical_cover_rejects_non_coloring(k4):
    pms = enumerate_perfect_matchings(k4)
    with pytest.raises(CoverConstructionError):
        canonical_cover(k4, (pms[0], pms[0], pms[1]))


# ---------------------------------------------------------------------------
# covers from cores
# ---------------------------------------------------------------------------


def test_cover_from_core_petersen(petersen):
    core = find_core(petersen, enumerate_perfect_matchings(petersen))
    core_cover = bipartite_core_cover(core)
    cover = cover_from_core(petersen, core, core_cover)
    assert cover.valid and cover.count == 3
    assert cover.length == 22  # 4/3 * (15 - 3) + 6


def test_cover_from_core_length_bound(corpus, corpus_pms):
    rng = random.Random(47)
    for name, G in rng.sample(corpus, 25):
        core = find_core(G, corpus_pms[name])
        if core is None or core.is_empty:
            continue
        core_cover = bipartite_core_cover(core)
        t = sum(c.bit_count() for c in core_cover)
        cover = cover_from_core(G, core, core_cover)
        assert cover.valid, name
        assert 3 * cover.length <= 4 * (G.m - core.k) + 3 * t, name


def test_bipartite_core_cover_cyclic(petersen):
    core = find_core(petersen, enumerate_perfect_matchings(petersen))
    cover = bipartite_core_cover(core)
    assert len(cover) == 1 and cover[0] == core.edge_indices
    assert sum(c.bit_count() for c in cover) == 2 * core.k


def test_bipartite_core_cover_with_t(corpus, corpus_pms):
    """On a bipartite core with T != {}, the cover doubles exactly the T
    edges and has length 2k."""
    checked = 0
    for name, G in corpus:
        pms = corpus_pms[name]
        for i, j, l in itertools.combinations(range(len(pms)), 3):
            core = build_core(G, pms[i], pms[j], pms[l])
            if not core.T:
                continue
            if not classify_core(core).is_bipartite:
                continue
            cover = bipartite_core_cover(core)
            assert sum(c.bit_count() for c in cover) == 2 * core.k, name
            counts = {e: sum(c >> e & 1 for c in cover)
                      for e in _indices(core.edge_indices)}
            for e, cnt in counts.items():
                assert cnt == (2 if core.T >> e & 1 else 1), name
            checked += 1
            break
        if checked >= 3:
            break
    assert checked >= 3


def _h_circuits(h_edges, selected):
    """Circuits of a 2-regular sub-multigraph of H, as H edge index lists,
    each traced from its lowest unseen H edge."""
    inc = {}
    for i in selected:
        for a in h_edges[i]:
            inc.setdefault(a, []).append(i)
    assert all(len(x) == 2 for x in inc.values()), "H - E* is not 2-regular"
    seen = set()
    circuits = []
    for start in selected:
        if start in seen:
            continue
        seen.add(start)
        circuit = [start]
        a0, v = h_edges[start]
        while v != a0:
            nxt = [i for i in inc[v] if i not in seen]
            if not nxt:
                break
            f = min(nxt)
            seen.add(f)
            circuit.append(f)
            a, b = h_edges[f]
            v = b if v == a else a
        circuits.append(circuit)
    return circuits


def h_lift_cover(core):
    """Oracle for bipartite_core_cover, built over the suppressed multigraph
    H of classify_core: E* doubled, H - E* properly 2-edge-colored with
    color 1 on the H edge holding each circuit's lowest core edge, lifted
    along the H edge paths; circuit components lie in the first cycle."""
    cls = classify_core(core)
    if not cls.is_bipartite:
        raise CoverConstructionError("core is not bipartite")
    if core.is_empty:
        return []
    sides = [0, 0]
    have_two = False
    for comp in cls.components:
        if comp.kind == "even_circuit":
            sides[0] |= comp.edges
            continue
        have_two = True
        paths = [sum(1 << e for e in path) for path in comp.h_edge_paths]
        estar = set(comp.estar_h)
        rest = [i for i in range(len(paths)) if i not in estar]
        for i in estar:
            sides[0] |= paths[i]
            sides[1] |= paths[i]
        for circuit in _h_circuits(comp.h_edges, rest):
            if len(circuit) % 2:
                raise CoverConstructionError("H - E* has an odd circuit")
            anchor = min(range(len(circuit)),
                         key=lambda pos: min(comp.h_edge_paths[circuit[pos]]))
            for pos in range(len(circuit)):
                sides[pos % 2] |= paths[circuit[(anchor + pos) % len(circuit)]]
    return sides if have_two else sides[:1]


def test_bipartite_core_cover_equals_h_lift(corpus, corpus_pms):
    """The cover walked in G equals the H-lift on sampled bipartite cores
    with T != {}, the branch that find_core's cyclic cores never reach."""
    rng = random.Random(71)
    checked = 0
    for name, G in corpus:
        pms = corpus_pms[name]
        triples = list(itertools.combinations(range(len(pms)), 3))
        for i, j, l in rng.sample(triples, min(len(triples), 8)):
            core = build_core(G, pms[i], pms[j], pms[l])
            if core.T and classify_core(core).is_bipartite:
                assert bipartite_core_cover(core) == h_lift_cover(core), name
                checked += 1
    assert checked >= 100


def test_bipartite_core_cover_rejects_non_bipartite_core(corpus, corpus_pms):
    for name, G in corpus:
        pms = corpus_pms[name]
        for i, j, l in itertools.combinations(range(len(pms)), 3):
            core = build_core(G, pms[i], pms[j], pms[l])
            if not classify_core(core).is_bipartite:
                with pytest.raises(CoverConstructionError):
                    bipartite_core_cover(core)
                with pytest.raises(CoverConstructionError):
                    h_lift_cover(core)
                return
    pytest.fail("no non-bipartite core in the corpus")


# ---------------------------------------------------------------------------
# four-covers and 5-CDC from four 1-factors
# ---------------------------------------------------------------------------


def test_four_cover_flower_snark(j5):
    _, witness = mu_k(j5, 4, enumerate_perfect_matchings(j5))
    cover = four_cover_cycles(j5, *witness.factors)
    assert cover.valid and cover.count == 4
    assert cover.length == 40 and cover.even and cover.ced <= 2


def test_four_cover_length_accounting(petersen):
    pms = enumerate_perfect_matchings(petersen)
    _, witness = mu_k(petersen, 4, pms)  # mu_4 = 1, so k = 1 uncovered edge
    cover = four_cover_cycles(petersen, *witness.factors)
    assert cover.valid
    assert cover.length == 4 * petersen.m // 3 + 4 * 1 == 24


def test_five_cdc_flower_snark(j5):
    _, witness = mu_k(j5, 4, enumerate_perfect_matchings(j5))
    cover = five_cdc(j5, *witness.factors)
    assert cover.valid and cover.count == 5
    assert cover.is_double_cover(j5)
    assert cover.length == 2 * j5.m


def test_five_cdc_requires_full_cover(petersen):
    pms = enumerate_perfect_matchings(petersen)
    _, witness = mu_k(petersen, 4, pms)  # mu_4 = 1 > 0
    with pytest.raises(CoverConstructionError):
        five_cdc(petersen, *witness.factors)


# ---------------------------------------------------------------------------
# exact shortest cycle cover
# ---------------------------------------------------------------------------


def scc_oracle(G: CubicGraph, max_cycles: int = 4) -> int:
    """Brute force over all subsets of the full cycle space, tiny dims."""
    basis = cycle_space_basis(G)
    dim = len(basis)
    members = []
    for mask in range(1, 1 << dim):
        bits = 0
        for b in range(dim):
            if (mask >> b) & 1:
                bits ^= basis[b]
        if bits:
            members.append(bits)
    members = sorted(set(members))
    full = (1 << G.m) - 1
    best = None
    for r in range(1, max_cycles + 1):
        for combo in itertools.combinations(members, r):
            covered = 0
            for c in combo:
                covered |= c
            if covered == full:
                length = sum(c.bit_count() for c in combo)
                if best is None or length < best:
                    best = length
    return best


def test_scc_exact_against_brute_force(k4, k33, theta, prism):
    for G in (theta, k4, k33, prism):
        cover = scc_exact(G)
        assert cover.valid
        assert cover.length == scc_oracle(G)


def test_scc_known_values(petersen, theta, k4):
    assert scc_exact(theta).length == 4
    assert scc_exact(k4).length == 8
    assert scc_exact(petersen).length == 21  # 4/3 * 15 + 1


def test_scc_dim_cap(petersen):
    with pytest.raises(DimensionCapExceededError):
        scc_exact(petersen, dim_cap=5)


def test_scc_equals_4m_over_3_on_colorable(corpus):
    checked = 0
    for name, G in corpus:
        if G.m - G.n + 1 <= 7 and is_three_edge_colorable(G)[0]:
            assert scc_exact(G).length == 4 * G.m // 3, name
            checked += 1
    assert checked >= 100


def cycle_space_members(G: CubicGraph) -> Tuple[int, List[List[int]]]:
    """E(G) as a bitmask and, per edge, the nonzero cycle-space members
    through it in bits order, as scc_exact enumerates them."""
    m = G.m
    basis = cycle_space_basis(G)
    dim = len(basis)
    full = (1 << m) - 1
    vectors = [0] * (1 << dim)
    for s in range(1, 1 << dim):
        low = s & -s
        vectors[s] = vectors[s ^ low] ^ basis[low.bit_length() - 1]
    members = sorted(set(vectors[1:]))
    cover_all = 0
    for v in members:
        cover_all |= v
    if cover_all != full:
        raise CoverConstructionError("graph has no cycle cover")
    by_edge: List[List[int]] = [[] for _ in range(m)]
    for v in members:
        for i in range(m):
            if (v >> i) & 1:
                by_edge[i].append(v)
    return full, by_edge


def scc_unpruned_oracle(G: CubicGraph) -> Tuple[int, ...]:
    """The cycles (as bitmasks) of scc_exact's search with no bound but
    length + |uncovered| and no early stop: same members, same candidate
    order, incumbent replaced only on a strict improvement."""
    full, by_edge = cycle_space_members(G)
    best_len: Optional[int] = None
    best_choice: Tuple[int, ...] = ()
    choice: List[int] = []

    def rec(covered: int, length: int, slots: int) -> None:
        nonlocal best_len, best_choice
        if covered == full:
            if best_len is None or length < best_len:
                best_len = length
                best_choice = tuple(choice)
            return
        if slots == 0:
            return
        uncovered = full & ~covered
        if best_len is not None and length + uncovered.bit_count() >= best_len:
            return
        pivot = (uncovered & -uncovered).bit_length() - 1
        ordered = sorted(
            by_edge[pivot],
            key=lambda v: (v.bit_count() - (v & uncovered).bit_count(), v),
        )
        for v in ordered:
            choice.append(v)
            rec(covered | v, length + v.bit_count(), slots - 1)
            choice.pop()

    rec(0, 0, 4)
    if best_len is None:
        raise CoverConstructionError("graph has no cycle cover")
    return best_choice


def scc_recursive_oracle(G: CubicGraph) -> Tuple[int, ...]:
    """The cycles (as bitmasks) of scc_exact's search with one recursive
    call per node down to the leaves, with the vertex-excess prune, the
    4m/3 stop and the tuple sort key."""
    full, by_edge = cycle_space_members(G)
    m = G.m
    root_bound = (4 * m + 2) // 3
    best_len: Optional[int] = None
    best_choice: Tuple[int, ...] = ()
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
        pivot = (uncovered & -uncovered).bit_length() - 1
        ordered = sorted(
            by_edge[pivot],
            key=lambda v: (v.bit_count() - (v & uncovered).bit_count(), v),
        )
        for v in ordered:
            choice.append(v)
            rec(covered | v, twice | covered & v, length + v.bit_count(),
                slots - 1)
            choice.pop()
            if best_len == root_bound:
                return

    rec(0, 0, 0, 4)
    if best_len is None:
        raise CoverConstructionError("graph has no cycle cover")
    return best_choice


def scc_bucket_oracle(G: CubicGraph) -> Tuple[int, ...]:
    """The cycles (as bitmasks) of scc_exact's search before the overshoot
    cut-off: every node tests its own bounds, counts its lonely vertices
    over G.stars, and buckets its candidates by all m + 1 overshoots; the
    two-slot loop skips a dead candidate instead of stopping."""
    full, by_edge = cycle_space_members(G)
    m = G.m
    lengths = {v: v.bit_count() for vs in by_edge for v in vs}
    by_short = [sorted(vs, key=lengths.__getitem__) for vs in by_edge]
    root_bound = (4 * m + 2) // 3
    best_len = 4 * m + 1
    best_choice: Optional[Tuple[int, ...]] = None
    choice: List[int] = []

    def rec(covered: int, twice: int, length: int, slots: int) -> None:
        nonlocal best_len, best_choice
        if covered == full:
            if length < best_len:
                best_len = length
                best_choice = tuple(choice)
            return
        uncovered = full & ~covered
        bound = length + uncovered.bit_count()
        if bound >= best_len:
            return
        lonely = sum(1 for star in G.stars if not star & twice)
        if bound + (lonely + 1) // 2 >= best_len:
            return
        pivot = (uncovered & -uncovered).bit_length() - 1
        buckets: List[List[int]] = [[] for _ in range(m + 1)]
        for v in by_edge[pivot]:
            buckets[(v & covered).bit_count()].append(v)
        ordered = [v for bucket in buckets for v in bucket]
        if slots > 2:
            for v in ordered:
                choice.append(v)
                rec(covered | v, twice | covered & v, length + lengths[v],
                    slots - 1)
                choice.pop()
                if best_len == root_bound:
                    return
            return
        for v in ordered:
            total = length + lengths[v]
            rest = uncovered & ~v
            if total + rest.bit_count() >= best_len:
                continue
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

    rec(0, 0, 0, 4)
    if best_choice is None:
        raise CoverConstructionError("graph has no cycle cover")
    return best_choice


def scc_bits(G: CubicGraph, dim_cap: int = 7) -> Tuple[int, ...]:
    return scc_exact(G, dim_cap=dim_cap).cycles


def test_scc_prune_keeps_the_witness_on_corpus(corpus):
    """The vertex-excess prune and the 4m/3 stop return the very cycles of
    the unpruned search: every graph of dimension <= 6, six of dimension 7."""
    dim6 = [G for _, G in corpus if G.m - G.n + 1 <= 6]
    dim7 = [G for _, G in corpus if G.m - G.n + 1 == 7]
    sample = dim6 + random.Random(61).sample(dim7, 6)
    assert len(dim6) >= 25
    for G in sample:
        assert scc_bits(G) == scc_unpruned_oracle(G), G


def test_scc_prune_keeps_the_witness_on_multigraphs():
    rng = random.Random(67)
    bridged = 0
    for _ in range(200):
        G = random_connected_cubic_multigraph(rng, rng.choice((2, 4, 6, 8, 10)))
        if is_bridgeless(G):
            bits = scc_bits(G)
            assert bits == scc_unpruned_oracle(G), G.edges
            assert bits == scc_recursive_oracle(G), G.edges
            continue
        bridged += 1
        for search in (scc_exact, scc_unpruned_oracle, scc_recursive_oracle):
            with pytest.raises(CoverConstructionError):
                search(G)
    assert 10 <= bridged <= 190


def test_scc_last_slots_keep_the_witness_on_corpus(corpus, j5):
    """The flat last two slots return the very cycles of the recursive
    search: every graph of dimension <= 7, 40 of dimension 8, and J5."""
    dim7 = [G for _, G in corpus if G.m - G.n + 1 <= 7]
    dim8 = [G for _, G in corpus if G.m - G.n + 1 == 8]
    assert len(dim7) >= 100
    for G in dim7 + random.Random(71).sample(dim8, 40):
        assert scc_bits(G, dim_cap=8) == scc_recursive_oracle(G), G
    assert scc_bits(j5, dim_cap=11) == scc_recursive_oracle(j5)


def test_scc_overshoot_cut_keeps_the_witness_on_corpus(corpus, j5):
    """Stopping at the first dead candidate, the vertex mask and the
    lonely test in the parent return the very cycles of the bucket search:
    every graph of dimension <= 7, 40 of dimension 8, and J5."""
    dim7 = [G for _, G in corpus if G.m - G.n + 1 <= 7]
    dim8 = [G for _, G in corpus if G.m - G.n + 1 == 8]
    assert len(dim7) >= 100
    for G in dim7 + random.Random(73).sample(dim8, 40):
        assert scc_bits(G, dim_cap=8) == scc_bucket_oracle(G), G
    assert scc_bits(j5, dim_cap=11) == scc_bucket_oracle(j5)


def test_scc_overshoot_cut_keeps_the_witness_on_multigraphs():
    """The 200 seeded multigraphs of the prune test above."""
    rng = random.Random(67)
    checked = 0
    for _ in range(200):
        G = random_connected_cubic_multigraph(rng, rng.choice((2, 4, 6, 8, 10)))
        if is_bridgeless(G):
            assert scc_bits(G) == scc_bucket_oracle(G), G.edges
            checked += 1
        else:
            with pytest.raises(CoverConstructionError):
                scc_bucket_oracle(G)
    assert 10 <= checked <= 190


def test_scc_flower_snark_j5(j5):
    """Dimension 11: J5's 4-cover from mu_4 = 0 is shortest (length 40)."""
    t0 = time.monotonic()
    cover = scc_exact(j5, dim_cap=11)
    assert time.monotonic() - t0 < 10.0
    _, witness = mu_k(j5, 4, enumerate_perfect_matchings(j5))
    four = four_cover_cycles(j5, *witness.factors)
    assert cover.valid and cover.length == four.length == 40
