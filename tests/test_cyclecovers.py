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
from factorcover.graphs import CubicGraph, EdgeSet, is_bridgeless
from factorcover.matching import (
    enumerate_perfect_matchings,
    is_three_edge_colorable,
)

from conftest import random_connected_cubic_multigraph


# ---------------------------------------------------------------------------
# verify_cover
# ---------------------------------------------------------------------------


def test_verify_cover_statistics(k4):
    t012 = k4.edge_set([0, 1, 3])  # triangle 0-1-2
    t013 = k4.edge_set([0, 2, 4])  # triangle 0-1-3
    t023 = k4.edge_set([1, 2, 5])  # triangle 0-2-3
    cover = verify_cover(k4, [t012, t013, t023])
    assert cover.valid and cover.count == 3
    assert cover.length == 3 + 3 + 3
    assert cover.ced == 2
    assert not cover.even  # the triangles are odd circuits


def test_verify_cover_flags_problems(k4):
    not_a_cycle = k4.edge_set([0])
    cover = verify_cover(k4, [not_a_cycle])
    assert not cover.valid and cover.problems
    missing = verify_cover(k4, [k4.edge_set([0, 1, 3])])
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
        t = sum(len(c) for c in core_cover)
        cover = cover_from_core(G, core, core_cover)
        assert cover.valid, name
        assert 3 * cover.length <= 4 * (G.m - core.k) + 3 * t, name


def test_bipartite_core_cover_cyclic(petersen):
    core = find_core(petersen, enumerate_perfect_matchings(petersen))
    cover = bipartite_core_cover(core)
    assert len(cover) == 1 and cover[0] == core.edge_indices
    assert sum(len(c) for c in cover) == 2 * core.k


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
            cls = classify_core(core)
            if not cls.is_bipartite:
                continue
            cover = bipartite_core_cover(core, cls)
            assert sum(len(c) for c in cover) == 2 * core.k, name
            counts = {e: sum(e in c for c in cover)
                      for e in core.edge_indices.indices()}
            for e, cnt in counts.items():
                assert cnt == (2 if e in core.T else 1), name
            checked += 1
            break
        if checked >= 3:
            break
    assert checked >= 3


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
    assert cover.is_double_cover()
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


def scc_unpruned_oracle(G: CubicGraph) -> Tuple[int, ...]:
    """The cycles (as bitmasks) of scc_exact's search with no bound but
    length + |uncovered| and no early stop: same members, same candidate
    order, incumbent replaced only on a strict improvement."""
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


def scc_bits(G: CubicGraph) -> Tuple[int, ...]:
    return tuple(c.bits for c in scc_exact(G, dim_cap=7).cycles)


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
            assert scc_bits(G) == scc_unpruned_oracle(G), G.edges
            continue
        bridged += 1
        with pytest.raises(CoverConstructionError):
            scc_exact(G)
        with pytest.raises(CoverConstructionError):
            scc_unpruned_oracle(G)
    assert 10 <= bridged <= 190


def test_scc_flower_snark_j5(j5):
    """Dimension 11: J5's 4-cover from mu_4 = 0 is shortest (length 40)."""
    t0 = time.monotonic()
    cover = scc_exact(j5, dim_cap=11)
    assert time.monotonic() - t0 < 10.0
    _, witness = mu_k(j5, 4, enumerate_perfect_matchings(j5))
    four = four_cover_cycles(j5, *witness.factors)
    assert cover.valid and cover.length == four.length == 40
