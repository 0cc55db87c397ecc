import functools
import itertools
import random
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple
from unittest import mock

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from factorcover import covers, report
from factorcover.covers import (
    LEAF_SLICE_COST,
    LEAF_SLICE_SETUP,
    ORBIT_MIN_MATCHINGS,
    Matchings,
    NoPerfectMatchingError,
    _best_leaf,
    _in_at_most,
    _orbit_masks,
    fan_raspaud_indices,
    fulkerson_witness,
    matching_orbits,
    mu_k,
    verify_fulkerson,
)
from factorcover.graphs import (
    CubicGraph,
    _hamiltonian_circuit,
    _indices,
    _levels,
    _mask,
    _numerals,
    _transpose,
    _wide_indices,
    automorphisms,
    edge_permutation,
    flower_snark,
    mobius_ladder,
    prism,
)
from factorcover.matching import (
    enumerate_perfect_matchings,
    is_perfect_matching,
    is_three_edge_colorable,
)

from factorcover.report import ALL_OPS, DEFAULT_OPS, AnalyzeOptions, analyze

from conftest import random_connected_cubic_multigraph


def mu_oracle(G: CubicGraph, k: int) -> int:
    """Brute-force mu_k over all k-multisets of perfect matchings."""
    pms = enumerate_perfect_matchings(G)
    best = G.m
    for combo in itertools.combinations_with_replacement(pms, k):
        union = combo[0]
        for pm in combo[1:]:
            union = union | pm
        best = min(best, G.m - union.bit_count())
    return best


def test_mu_against_brute_force(corpus, corpus_pms):
    rng = random.Random(17)
    small = [(n, G) for n, G in corpus if G.n <= 10]
    for name, G in rng.sample(small, 8):
        for k in range(1, 6):
            value, witness = mu_k(G, k, corpus_pms[name])
            assert value == mu_oracle(G, k), (name, k)
            assert witness.mu == value
            assert witness.uncovered.bit_count() == value


def test_mu_witness_is_consistent(petersen):
    pms = enumerate_perfect_matchings(petersen)
    for k in range(1, 6):
        value, witness = mu_k(petersen, k, pms)
        assert len(witness.factors) == k
        union = witness.factors[0]
        for pm in witness.factors[1:]:
            assert is_perfect_matching(petersen, pm)
            union = union | pm
        assert witness.union == union
        assert witness.uncovered == (1 << petersen.m) - 1 & ~union


def test_mu_petersen_values(petersen):
    pms = enumerate_perfect_matchings(petersen)
    assert [mu_k(petersen, k, pms)[0] for k in range(1, 6)] == [10, 6, 3, 1, 0]


def test_mu_flower_snark(j5):
    pms = enumerate_perfect_matchings(j5)
    assert mu_k(j5, 3, pms)[0] == 3
    assert mu_k(j5, 4, pms)[0] == 0


def mu_unpruned_oracle(
    G: CubicGraph, k: int, pms: Sequence[int]
) -> Tuple[int, Tuple[int, ...]]:
    """mu_k's search with no overlap filter: the bound union + remaining*n/2
    only, the same nondecreasing tuples in the same order, and the
    incumbent replaced only on a strict improvement."""
    m = G.m
    half = G.n // 2
    masks = list(pms)
    p = len(masks)
    suffix_or = [0] * (p + 1)
    for i in range(p - 1, -1, -1):
        suffix_or[i] = suffix_or[i + 1] | masks[i]

    best_pop = -1
    best_tuple: Optional[Tuple[int, ...]] = None
    chosen: List[int] = []

    def rec(start: int, union: int) -> None:
        nonlocal best_pop, best_tuple
        depth = len(chosen)
        if depth == k:
            pop = union.bit_count()
            if pop > best_pop:
                best_pop = pop
                best_tuple = tuple(chosen)
            return
        remaining = k - depth
        bound = min(
            union.bit_count() + remaining * half,
            (union | suffix_or[start]).bit_count(),
        )
        if bound <= best_pop:
            return
        for i in range(start, p):
            if best_pop == m:
                return
            chosen.append(i)
            rec(i, union | masks[i])
            chosen.pop()
            if (union | suffix_or[i + 1]).bit_count() <= best_pop:
                break

    rec(0, 0)
    return m - best_pop, best_tuple


def mu_lex_oracle(
    G: CubicGraph, k: int, pms: Sequence[int]
) -> Tuple[int, Tuple[int, ...]]:
    """mu_k's search without orbits: the overlap-filtered lexicographic
    branch and bound over every nondecreasing tuple, the incumbent
    replaced only on a strict improvement."""
    m = G.m
    half = G.n // 2
    p = len(pms)
    everyone = (1 << p) - 1
    most = min(m, k * half)  # no k factors cover more
    suffix_or = [0] * (p + 1)
    for i in range(p - 1, -1, -1):
        suffix_or[i] = suffix_or[i + 1] | pms[i]
    # by_edge[e] has bit l set when pms[l] contains edge e; built on first use
    by_edge: List[int] = []
    # near[f]: the factors meeting pms[f] in at most k*n/2 - best - 1 edges
    near: Dict[int, int] = {}

    best_pop = -1
    best_tuple: Optional[Tuple[int, ...]] = None
    chosen: List[int] = []

    def followers(f: int) -> int:
        """A superset of the factors that can follow f in a better tuple."""
        c = k * half - best_pop - 1
        # counting over the n/2 edges of pms[f] must cost less than trying
        # the p - f factors from f on
        if c >= half or p - f <= half * (c + 1):
            return everyone
        if f not in near:
            if not by_edge:
                by_edge.extend([0] * m)
                for l, x in enumerate(pms):
                    for e in _indices(x):
                        by_edge[e] |= 1 << l
            within = 0
            for level in _levels(
                everyone, [by_edge[e] for e in _indices(pms[f])], c
            ):
                within |= level
            near[f] = within
        return near[f]

    def rec(start: int, union: int, cand: int) -> None:
        """Extend chosen by the factors of cand, all of index >= start."""
        nonlocal best_pop, best_tuple
        remaining = k - len(chosen)
        bound = min(
            union.bit_count() + remaining * half,
            (union | suffix_or[start]).bit_count(),
        )
        if bound <= best_pop:
            return
        if remaining == 1:
            # score every leaf here; with no filter applied, cand holds every
            # factor from start on and a plain scan walks it faster
            if cand.bit_count() == p - start:
                order: Sequence[int] = range(start, p)
            else:
                order = _indices(cand)
            for l in order:
                pop = (union | pms[l]).bit_count()
                if pop > best_pop:
                    best_pop, best_tuple = pop, (*chosen, l)
                    near.clear()
            return
        while cand:
            low = cand & -cand
            l = low.bit_length() - 1
            before = best_pop
            chosen.append(l)
            rec(l, union | pms[l], cand & followers(l))
            chosen.pop()
            if best_pop == most:
                return
            if (union | suffix_or[l + 1]).bit_count() <= best_pop:
                break
            cand ^= low
            if best_pop != before:
                for f in chosen:
                    cand &= followers(f)

    rec(0, 0, everyone)
    return G.m - best_pop, best_tuple


class GivenOrbits(Matchings):
    """A Matchings over pms whose searches skip the tuples symmetric under
    orbits, a list like matching_orbits(G, pms), and use no orbits when it
    is None, bypassing the ORBIT_MIN_MATCHINGS rule; asked counts the
    searches that found the orbits."""

    def __init__(self, G, pms, orbits):
        super().__init__(G, pms)
        self.use_orbits = orbits is not None
        self.given = orbits
        self.asked = 0

    @functools.cached_property
    def orbits(self):
        self.asked += 1
        return _orbit_masks(self.given)


def mu_value_and_indices(G, k, pms, orbits=None, calls=None):
    """mu_k's value and witness indices.  With orbits, mu_k takes its orbit
    path, bypassing the cost rule; calls, if given, then counts the
    searches that asked for the orbits."""
    context = GivenOrbits(G, pms, orbits)
    value, witness = mu_k(G, k, context)
    if calls is not None:
        calls.extend([k] * context.asked)
    return value, witness.factor_indices


def test_mu_filter_keeps_the_witness_on_corpus(corpus, corpus_pms):
    for name, G in corpus:
        pms = corpus_pms[name]
        for k in range(1, 7):
            assert (mu_value_and_indices(G, k, pms)
                    == mu_unpruned_oracle(G, k, pms)), (name, k)


def test_mu_filter_keeps_the_witness_on_flower_snarks():
    for t in (5, 7, 9):
        G = flower_snark(t)
        pms = enumerate_perfect_matchings(G)
        for k in range(1, 5):
            assert (mu_value_and_indices(G, k, pms)
                    == mu_unpruned_oracle(G, k, pms)), (t, k)


MULTIGRAPH_TABLE_ROWS = [
    (range(2, 13, 2), 200, range(1, 7)),
    # large enough for the filter to act on factors after the first
    (range(14, 25, 2), 300, range(2, 5)),
]
MULTIGRAPH_TABLES = pytest.mark.parametrize(
    "sizes,count,ks", MULTIGRAPH_TABLE_ROWS, ids=["n<=12", "n=14..24"])


@MULTIGRAPH_TABLES
def test_mu_filter_keeps_the_witness_on_multigraphs(sizes, count, ks):
    rng = random.Random(71)
    compared = 0
    for _ in range(count):
        G = random_connected_cubic_multigraph(rng, rng.choice(sizes))
        pms = enumerate_perfect_matchings(G)
        if not pms:
            continue
        compared += 1
        for k in ks:
            assert (mu_value_and_indices(G, k, pms)
                    == mu_unpruned_oracle(G, k, pms)), (G.edges, k)
    assert compared >= count * 3 // 4, compared


def test_mu_orbits_keep_the_witness_on_corpus(corpus, corpus_pms):
    calls: List[int] = []
    past_first = 0
    for name, G in corpus:
        pms = corpus_pms[name]
        orbits = matching_orbits(G, pms)
        for k in range(1, 7):
            got = mu_value_and_indices(G, k, pms, orbits, calls)
            assert got == mu_lex_oracle(G, k, pms), (name, k)
            past_first += got[1][0] != 0
    # factor 0's subtree falls short, and another representative's holds
    # the witness
    assert len(calls) > 100 and past_first > 100, (len(calls), past_first)


def test_mu_orbits_keep_the_witness_on_flower_snarks():
    for t in (5, 7, 9, 11):
        G = flower_snark(t)
        pms = enumerate_perfect_matchings(G)
        orbits = matching_orbits(G, pms)
        for k in range(1, 5):
            assert (mu_value_and_indices(G, k, pms, orbits)
                    == mu_lex_oracle(G, k, pms)), (t, k)


@pytest.mark.parametrize("t", range(4, 13))
def test_mu_orbits_keep_the_witness_on_prisms_and_ladders(t):
    for G in (prism(t), mobius_ladder(t)):
        pms = enumerate_perfect_matchings(G)
        orbits = matching_orbits(G, pms)
        for k in range(1, 7):
            assert (mu_value_and_indices(G, k, pms, orbits)
                    == mu_lex_oracle(G, k, pms)), (G.edges, k)


@MULTIGRAPH_TABLES
def test_mu_orbits_keep_the_witness_on_multigraphs(sizes, count, ks):
    """With orbits from the automorphism finder, and with none found."""
    rng = random.Random(71)
    calls: List[int] = []
    past_first = 0
    for _ in range(count):
        G = random_connected_cubic_multigraph(rng, rng.choice(sizes))
        pms = enumerate_perfect_matchings(G)
        if not pms:
            continue
        for orbits in (matching_orbits(G, pms), list(range(len(pms)))):
            for k in ks:
                got = mu_value_and_indices(G, k, pms, orbits, calls)
                assert got == mu_lex_oracle(G, k, pms), (G.edges, k)
                past_first += got[1][0] != 0
    assert len(calls) > 100 and past_first > 20, (len(calls), past_first)


def nx_matching_orbit_count(G: CubicGraph, pms: Sequence[int]) -> int:
    """The number of orbits of Aut(G) on pms, with every automorphism of
    the simple graph G listed by networkx."""
    H = nx.Graph(G.edges)
    where = {x: l for l, x in enumerate(pms)}
    index = {frozenset(e): f for f, e in enumerate(G.edges)}
    orbit = nx.utils.UnionFind(range(len(pms)))
    for sigma in GraphMatcher(H, H).isomorphisms_iter():
        for l, x in enumerate(pms):
            image = _mask(G.m, (index[frozenset((sigma[u], sigma[v]))]
                                for u, v in (G.edges[f] for f in _indices(x))))
            orbit.union(l, where[image])
    return len(list(orbit.to_sets()))


@pytest.mark.parametrize("name,count", [
    ("K4", 1), ("Petersen", 1), ("J5", 4), ("J7", 9), ("J9", 23),
    ("J11", 63),
])
def test_matching_orbit_counts(name, count, k4, petersen):
    G = {"K4": k4, "Petersen": petersen}.get(name)
    if G is None:
        G = flower_snark(int(name[1:]))
    pms = enumerate_perfect_matchings(G)
    orbits = matching_orbits(G, pms)
    assert all(orbits[l] <= l and orbits[orbits[l]] == orbits[l]
               for l in range(len(pms)))
    assert len(set(orbits)) == count
    assert nx_matching_orbit_count(G, pms) == count


def test_matching_orbits_skip_unchecked_generators(petersen, monkeypatch):
    pms = enumerate_perfect_matchings(petersen)
    # every generator found moves pms[0], so none maps pms[1:] onto itself
    assert matching_orbits(petersen, pms) == [0] * 6
    assert matching_orbits(petersen, pms[1:]) == list(range(5))
    # a transposition of two adjacent vertices breaks the outer 5-circuit
    monkeypatch.setattr(covers, "automorphisms", lambda G: [
        [1, 0] + list(range(2, 10))])
    assert matching_orbits(petersen, pms) == list(range(6))


def matching_orbits_oracle(G: CubicGraph, pms: Sequence[int]) -> List[int]:
    """matching_orbits with the image of each matching under each checked
    generator built edge by edge."""
    where = {x: l for l, x in enumerate(pms)}
    rep = list(range(len(pms)))  # a forest whose roots are least indices

    def root(l: int) -> int:
        while rep[l] != l:
            l = rep[l]
        return l

    for sigma in automorphisms(G):
        perm = edge_permutation(G, sigma)
        if perm is None:
            continue
        images = [where.get(_mask(G.m, (perm[f] for f in _indices(x))), -1)
                  for x in pms]
        if -1 in images:
            continue
        for l, y in enumerate(images):
            a, b = root(l), root(y)
            rep[max(a, b)] = min(a, b)
    return [root(l) for l in range(len(pms))]


def test_matching_orbit_images_are_the_per_matching_images(
        corpus, corpus_pms):
    graphs = [(G, corpus_pms[name]) for name, G in corpus]
    graphs += [(flower_snark(t), None) for t in (5, 7, 9, 11)]
    graphs += [(G, None) for t in range(4, 13)
               for G in (prism(t), mobius_ladder(t))]
    graphs += list(multigraph_tables())
    coarse = parallel = 0
    for G, pms in graphs:
        if pms is None:
            pms = enumerate_perfect_matchings(G)
        want = matching_orbits_oracle(G, pms)
        assert matching_orbits(G, pms) == want, G.edges
        assert matching_orbits(G, Matchings(G, pms)) == want
        if len(set(want)) < len(pms):
            coarse += 1
            parallel += len(set(G.edges)) < G.m
    assert coarse > 600 and parallel > 50, (coarse, parallel)


def test_matching_orbits_on_wide_keys_and_rejected_generators():
    # J13: 8,192 matchings, each image named by a 78-digit string
    G = flower_snark(13)
    pms = enumerate_perfect_matchings(G)
    want = matching_orbits_oracle(G, pms)
    assert matching_orbits(G, pms) == want
    assert len(set(want)) == 190
    # without J9's matching 0, two of the three generators map a matching
    # onto it, outside the list, and only the other one is used
    G = flower_snark(9)
    pms = enumerate_perfect_matchings(G)[1:]
    inside = set(pms)
    perms = [edge_permutation(G, sigma) for sigma in automorphisms(G)]
    rejected = [any(_mask(G.m, (perm[f] for f in _indices(x))) not in inside
                    for x in pms) for perm in perms]
    assert sorted(rejected) == [False, True, True]
    want = matching_orbits_oracle(G, pms)
    assert matching_orbits(G, pms) == want
    assert len(set(want)) == 271


def test_orbit_cost_rule_puts_only_j7_of_the_corpus_on_the_orbit_path(
        corpus, corpus_pms, monkeypatch):
    large = [name for name, pms in corpus_pms.items()
             if len(pms) >= ORBIT_MIN_MATCHINGS]
    assert large == ["flower_snark_J7"]

    def refuse(G, pms):
        raise AssertionError("matching_orbits ran")

    monkeypatch.setattr(covers, "matching_orbits", refuse)
    options = AnalyzeOptions(ops=("mu",))
    for name, G in corpus:
        if name not in large:
            analyze(G, options, id=name)
    # J7 has 128 matchings and J9 512: mu_2 asks for the orbits, and mu_3
    # reuses them
    calls: List[int] = []
    monkeypatch.setattr(covers, "matching_orbits",
                        lambda G, pms: calls.append(1) or
                        matching_orbits(G, pms))
    for G in (dict(corpus)["flower_snark_J7"], flower_snark(9)):
        calls.clear()
        analyze(G, options)
        assert calls == [1]


def test_mu_flower_snark_j11():
    """2048 perfect matchings; mu_3 is the largest search of the snark
    benchmark."""
    t0 = time.monotonic()
    G = flower_snark(11)
    pms = enumerate_perfect_matchings(G)
    orbits = matching_orbits(G, pms)
    assert len(set(orbits)) == 63
    given = GivenOrbits(G, pms, orbits)
    found = [mu_k(G, k, given)[1] for k in range(1, 5)]
    assert [w.mu for w in found] == [44, 23, 3, 0]
    assert found[2].factor_indices == (0, 571, 1195)
    assert found[3].factor_indices == (0, 3, 1251, 1703)
    # 112 709 triples scored with orbits (145 804 without); the unfiltered
    # search scores about 18 million
    assert found[2].scored < 120_000, found[2].scored
    # the sliced last-factor scoring counts the same tuples as a scan; the
    # degree filter takes mu_4 from 1 007 170 to 170 250; the pair pass
    # takes mu_3 from 113 341 to 112 709
    assert [w.scored for w in found[2:]] == [112_709, 170_250]
    # seeded with the witness before, as analyze() does past
    # ORBIT_MIN_MATCHINGS: the same witnesses from fewer tuples
    seeded = seeded_chain(G, pms, 4, orbits)
    assert [w.factor_indices for w in seeded] == [
        w.factor_indices for w in found]
    assert [w.scored for w in seeded[1:]] == [11, 522, 23]
    assert time.monotonic() - t0 < 10.0


def seeded_chain(G, pms, upto, orbits=None) -> List[covers.CoverWitness]:
    """mu_k's witnesses for k = 1..upto, each k >= 2 seeded with the
    witness for k - 1, over GivenOrbits(G, pms, orbits)."""
    given = GivenOrbits(G, pms, orbits)
    chain = [mu_k(G, 1, given)[1]]
    for k in range(2, upto + 1):
        chain.append(mu_k(G, k, given, after=chain[-1])[1])
    return chain


def assert_seed_keeps_the_witness(G, pms, orbits=None) -> Tuple[int, int]:
    """For k = 2..4, the seeded and the unseeded search give the witness of
    mu_lex_oracle.  Returns how many seeds fell short of the optimum and on
    how many k the seeded search scored fewer tuples."""
    short = fewer = 0
    chain = seeded_chain(G, pms, 4, orbits)
    for k, after, seeded in zip(range(2, 5), chain, chain[1:]):
        plain = mu_k(G, k, GivenOrbits(G, pms, orbits))[1]
        want = mu_lex_oracle(G, k, pms)
        assert (seeded.mu, seeded.factor_indices) == want, (G.edges, k)
        assert (plain.mu, plain.factor_indices) == want, (G.edges, k)
        # the seed: after's factors plus the factor adding the most edges
        seed = max((after.union | x).bit_count() for x in pms)
        short += seed < seeded.union.bit_count()
        fewer += seeded.scored < plain.scored
    return short, fewer


def test_mu_seed_keeps_the_witness_on_corpus(corpus, corpus_pms):
    short = fewer = 0
    for name, G in corpus:
        got = assert_seed_keeps_the_witness(G, corpus_pms[name])
        short += got[0]
        fewer += got[1]
    # the seed misses the optimum 62 times of 1770, and saves tuples on
    # 1720
    assert short > 50 and fewer > 1500, (short, fewer)


def test_mu_seed_keeps_the_witness_on_flower_snarks():
    for t in (5, 7, 9, 11):
        G = flower_snark(t)
        pms = enumerate_perfect_matchings(G)
        orbits = matching_orbits(G, pms)
        assert_seed_keeps_the_witness(G, pms)
        assert_seed_keeps_the_witness(G, pms, orbits)


@MULTIGRAPH_TABLES
def test_mu_seed_keeps_the_witness_on_multigraphs(sizes, count, ks):
    """Both tables' graphs, each for k = 2..4 whatever its ks."""
    rng = random.Random(71)
    short = fewer = 0
    for _ in range(count):
        G = random_connected_cubic_multigraph(rng, rng.choice(sizes))
        pms = enumerate_perfect_matchings(G)
        if pms:
            got = assert_seed_keeps_the_witness(G, pms)
            short += got[0]
            fewer += got[1]
    assert short > 10 and fewer > 2 * count, (short, fewer)


def test_mu_seed_on_the_moebius_ladder_m30():
    """On M30 the first matching disjoint from pms[0] lies deep in the
    list; the seed is optimal (mu_3 = 0), so the seeded mu_3 scores one
    triple where the unseeded search scores 113 569."""
    G = mobius_ladder(15)
    pms = enumerate_perfect_matchings(G)
    assert len(pms) == 1366
    after = mu_k(G, 2, pms)[1]
    plain = mu_k(G, 3, pms)[1]
    seeded = mu_k(G, 3, pms, after=after)[1]
    assert seeded.mu == plain.mu == 0
    assert seeded.factor_indices == plain.factor_indices == (0, 378, 1365)
    assert (plain.scored, seeded.scored) == (113_569, 1)
    # the seeded mu_4 scores 2 4-tuples (988 without the degree filter)
    four = mu_k(G, 4, pms, after=seeded)[1]
    assert four.factor_indices == (0, 0, 378, 1365)
    assert four.scored == 2


def test_mu_seed_rejects_a_foreign_witness(petersen):
    pms = enumerate_perfect_matchings(petersen)
    after = mu_k(petersen, 2, pms)[1]
    for k in (1, 2, 4):
        with pytest.raises(ValueError):
            mu_k(petersen, k, pms, after=after)
    # a witness on another list of matchings
    with pytest.raises(ValueError):
        mu_k(petersen, 3, pms[::-1], after=after)
    assert mu_k(petersen, 3, pms, after=after)[0] == 3


def test_analyze_seeds_mu_k_from_orbit_min_matchings_on(
        corpus, corpus_pms, monkeypatch):
    seeds: List[Optional[int]] = []

    def recorded(G, k, pms, after=None):
        seeds.append(None if after is None else after.k)
        return mu_k(G, k, pms, after=after)

    monkeypatch.setattr(report, "mu_k", recorded)
    options = AnalyzeOptions(ops=("mu",))
    small = [(name, G) for name, G in corpus
             if len(corpus_pms[name]) < ORBIT_MIN_MATCHINGS]
    assert len(small) == len(corpus) - 1
    for name, G in small:
        analyze(G, options, id=name)
    assert seeds == [None] * 4 * len(small)
    for G in (dict(corpus)["flower_snark_J7"], flower_snark(9)):
        seeds.clear()
        analyze(G, options)
        assert seeds == [None, None, 2, 3]


def naive_matching_index(m: int, pms: Sequence[int]) -> List[int]:
    by_edge = [0] * m
    for l, x in enumerate(pms):
        for e in _indices(x):
            by_edge[e] |= 1 << l
    return by_edge


def multigraph_tables():
    """The graphs of both MULTIGRAPH_TABLES tables that have a perfect
    matching, with their matchings."""
    for sizes, count, _ in MULTIGRAPH_TABLE_ROWS:
        rng = random.Random(71)
        for _ in range(count):
            G = random_connected_cubic_multigraph(rng, rng.choice(sizes))
            pms = enumerate_perfect_matchings(G)
            if pms:
                yield G, pms


def test_matching_index_is_the_per_edge_definition(corpus, corpus_pms):
    graphs = [(G, corpus_pms[name]) for name, G in corpus]
    graphs += [(G, enumerate_perfect_matchings(G))
               for G in map(flower_snark, (5, 7, 9, 11))]
    parallel = 0
    for G, pms in graphs + list(multigraph_tables()):
        assert _transpose(G.m, pms) == naive_matching_index(G.m, pms)
        parallel += len(set(G.edges)) < G.m
    assert parallel > 100, parallel
    assert _transpose(3, []) == [0, 0, 0]


def test_context_writes_the_same_numerals_before_and_after_the_index(
        corpus, corpus_pms):
    """Matchings.numerals spells each matching and each index row alike
    whether by_edge comes first or from the numerals, and by_edge is the
    per-edge definition either way."""
    rng = random.Random(31)
    graphs = [(G, corpus_pms[name]) for name, G in rng.sample(corpus, 40)]
    graphs += [(G, enumerate_perfect_matchings(G))
               for G in map(flower_snark, (5, 7, 9))]
    graphs += list(multigraph_tables())[:60]
    for G, pms in graphs:
        m, p = G.m, len(pms)
        index = naive_matching_index(m, pms)
        want = ([format(x, f"0{m}b") for x in pms],
                [format(row, f"0{p}b") for row in index])
        first = Matchings(G, pms)
        assert first.numerals() == want and first.by_edge == index
        later = Matchings(G, pms)
        assert later.by_edge == index and later.numerals() == want
    # J9's orbits from the rows of a built index
    G = flower_snark(9)
    pms = enumerate_perfect_matchings(G)
    later = Matchings(G, pms)
    later.by_edge
    orbits = matching_orbits(G, later)
    assert orbits == matching_orbits_oracle(G, pms)
    assert len(set(orbits)) == 23


def leaf_scan(
    union: int, cand: int, best_pop: int, pms: Sequence[int]
) -> Optional[Tuple[int, int]]:
    """mu_k's plain scan of a last factor: (pop, l) of the last strict
    improvement over best_pop in index order, or None."""
    found = None
    for l in _indices(cand):
        pop = (union | pms[l]).bit_count()
        if pop > best_pop:
            best_pop, found = pop, (pop, l)
    return found


def test_best_leaf_matches_a_plain_scan(corpus, corpus_pms):
    rng = random.Random(83)
    graphs = [(G, corpus_pms[name]) for name, G in rng.sample(corpus, 120)]
    graphs += list(multigraph_tables())
    ties = nones = 0
    for G, pms in graphs:
        m, p = G.m, len(pms)
        context = Matchings(G, pms)
        for _ in range(6):
            union = 0
            for l in rng.sample(range(p), min(p, rng.randrange(4))):
                union |= pms[l]
            if rng.random() < 0.3:
                union |= rng.getrandbits(m)
            cand = rng.getrandbits(p)
            best_pop = rng.randrange(-1, m + 1)
            found = _best_leaf(context, union, cand, best_pop)
            assert found == leaf_scan(union, cand, best_pop, pms), (
                G.edges, union, cand, best_pop)
            if found is None:
                nones += 1
            elif sum((union | pms[l]).bit_count() == found[0]
                     for l in _indices(cand)) > 1:
                ties += 1  # the first of several best factors won
    assert ties > 100 and nones > 100, (ties, nones)


def test_in_at_most_against_a_per_candidate_count(corpus, corpus_pms):
    rng = random.Random(29)
    graphs = [(G, corpus_pms[name]) for name, G in rng.sample(corpus, 60)]
    graphs += [(G, enumerate_perfect_matchings(G))
               for G in map(flower_snark, (5, 7, 9))]
    for G, pms in graphs:
        p = len(pms)
        by_edge = _transpose(G.m, pms)
        for _ in range(4):
            rows = rng.sample(by_edge, rng.randrange(G.m + 1))
            cand = rng.getrandbits(p)
            counts = [sum(row >> l & 1 for row in rows) for l in range(p)]
            for c in {0, 1, len(rows) // 2, len(rows), len(rows) + 2}:
                want = sum(1 << l for l in _indices(cand) if counts[l] <= c)
                assert _in_at_most(cand, rows, c) == want, (G.edges, c)


def test_mu_k_counts_only_nonnegative_masks(corpus, corpus_pms, monkeypatch):
    """Every mask that mu_k's filters and sliced leaf count is nonnegative.
    CPython runs & and | with a negative operand through two's-complement
    copies, so a ~row would give the same sets on a slower path."""
    counted: List[int] = []
    exceeding = covers._exceeding

    def guarded(masks, top):
        masks = list(masks)
        assert all(x >= 0 for x in masks), top
        counted.append(top)
        return exceeding(masks, top)

    monkeypatch.setattr("factorcover.graphs._exceeding", guarded)
    monkeypatch.setattr(covers, "_exceeding", guarded)
    for G in (flower_snark(9), flower_snark(11)):
        pms = enumerate_perfect_matchings(G)
        for orbits in (None, matching_orbits(G, pms)):
            counted.clear()
            seeded = seeded_chain(G, pms, 4, orbits)
            plain = [mu_k(G, k, GivenOrbits(G, pms, orbits))[1]
                     for k in range(1, 5)]
            assert ([w.factor_indices for w in seeded]
                    == [w.factor_indices for w in plain]), G.n
            assert counted, G.n
    counted.clear()
    for name, G in random.Random(53).sample(corpus, 50):
        pms = corpus_pms[name]
        seeded_chain(G, pms, 4)
        orbits = matching_orbits(G, pms)
        for k in range(1, 5):
            mu_k(G, k, GivenOrbits(G, pms, orbits))
    assert counted


def test_sliced_leaf_runs_on_snarks_and_prisms_never_on_k4(k4, monkeypatch):
    calls: List[int] = []

    def counted(*args):
        calls.append(1)
        return best_leaf(*args)

    best_leaf = covers._best_leaf
    monkeypatch.setattr(covers, "_best_leaf", counted)
    for G, ks, used in (
        (k4, range(1, 7), False),
        (prism(12), range(4, 7), True),
        (flower_snark(11), (4,), True),
    ):
        pms = enumerate_perfect_matchings(G)
        for k in ks:
            calls.clear()
            mu_k(G, k, pms)
            assert bool(calls) == used, (G.n, k, len(calls))


def test_analyze_builds_the_matching_index_at_most_once_per_graph(
        corpus, monkeypatch):
    calls: List[int] = []
    monkeypatch.setattr(covers, "_numerals",
                        lambda m, pms: calls.append(m) or
                        _numerals(m, pms))
    for ops in (("structure", "fan_raspaud", "core", "covers"), ("mu",)):
        built = 0
        for name, G in corpus[::5] + [("J9", flower_snark(9))]:
            calls.clear()
            analyze(G, AnalyzeOptions(ops=ops), id=name)
            assert len(calls) <= (ops == ("mu",)), (name, ops, calls)
            built += len(calls)
        # J9's searches share one index
        assert calls == ([54] if ops == ("mu",) else [])
    assert built > 1, built


@pytest.mark.parametrize("ops", [DEFAULT_OPS, ALL_OPS], ids=["default", "all"])
def test_analyze_builds_each_shared_table_at_most_once_per_graph(
        ops, monkeypatch):
    """The suffix ORs, the orbit masks and the Fan-Raspaud triple, which
    mu_k, fulkerson_witness and find_core read from one Matchings.  J9 and
    J11 search with orbits from mu_2 on; M32 reaches each optimum below
    factor 0 and never asks for them."""
    builds: Counter = Counter()

    def counted(name, build):
        return lambda *args: builds.update([name]) or build(*args)

    for name in ("_suffix_ors", "_orbit_masks", "fan_raspaud_indices"):
        monkeypatch.setattr(covers, name, counted(name, getattr(covers, name)))
    for G, orbits in ((flower_snark(9), 1), (flower_snark(11), 1),
                      (mobius_ladder(16), 0)):
        builds.clear()
        analyze(G, AnalyzeOptions(ops=ops))
        assert builds == Counter(_suffix_ors=1, _orbit_masks=orbits,
                                 fan_raspaud_indices=1), (G.n, builds)


class CountedReads(list):
    """A list of matchings that counts the reads of its entries by index."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_leaf_scan_stops_at_a_leaf_reaching_the_most():
    """mu_1's scan keeps factor 0, which covers n/2 edges, as many as any
    factor, and reads no later leaf; scored still counts every one."""
    G = flower_snark(9)
    pms = CountedReads(enumerate_perfect_matchings(G))
    value, witness = mu_k(G, 1, pms)
    assert witness.factor_indices == (0,) and witness.scored == len(pms)
    assert value == G.m - G.n // 2
    # the leaf, then the witness's factors and union
    assert pms.reads <= 3, pms.reads


def test_mu_1_builds_no_index(monkeypatch):
    """Every perfect matching has n/2 edges, so mu_1's scan keeps factor 0
    without the per-edge index, even with more matchings than the sliced
    last factor's cost rule asks for."""
    G = prism(20)
    pms = enumerate_perfect_matchings(G)
    p = len(pms)
    assert p == 15_129
    assert p > LEAF_SLICE_COST * G.m * (G.m + 1) + LEAF_SLICE_SETUP

    def refuse(m, pms):
        raise AssertionError("the index was built")

    with mock.patch.object(covers, "_numerals", refuse):
        value, witness = mu_k(G, 1, pms)
    assert value == G.m - G.n // 2
    assert witness.factor_indices == (0,) and witness.scored == p
    calls: List[int] = []
    monkeypatch.setattr(covers, "_numerals",
                        lambda m, pms: calls.append(m) or
                        _numerals(m, pms))
    got = analyze(G, AnalyzeOptions(ops=("mu",), mu_upto=1))
    assert got.mu == {"1": value} and calls == []


def test_degree_filter_keeps_every_factor_a_last_factor_lifts(
        corpus, corpus_pms):
    """Over unions of 2..4 factors and sizes of the best union, the filter
    keeps each candidate M for which some last factor L, of any index,
    gives |U | M | L| > best."""
    rng = random.Random(29)
    graphs = [(G, corpus_pms[name]) for name, G in corpus if G.n <= 12]
    graphs += [(G, enumerate_perfect_matchings(G))
               for G in map(flower_snark, (5, 7))]
    graphs += list(multigraph_tables())
    tight = dropped = 0
    for G, pms in graphs:
        m, p = G.m, len(pms)
        context = Matchings(G, pms)
        for _ in range(2):
            union = 0
            for l in rng.choices(range(p), k=rng.randint(2, 4)):
                union |= pms[l]
            reach = [max((union | x | y).bit_count() for y in pms)
                     for x in pms]
            top = max(reach)
            for best_pop in (rng.randrange(-1, m),
                             rng.randrange(max(top - 3, -1), m)):
                cand = rng.getrandbits(p)
                kept = covers._degree_filter(context, union, cand, best_pop)
                assert kept & ~cand == 0
                for l in _indices(cand):
                    if reach[l] > best_pop:
                        assert kept >> l & 1, (G.edges, union, best_pop, l)
                        tight += reach[l] == best_pop + 1
                dropped += (cand & ~kept).bit_count()
    assert tight > 1000 and dropped > 1000, (tight, dropped)


def test_mu_5_and_6_keep_the_witness_on_flower_snarks():
    for t in (5, 7, 9, 11):
        G = flower_snark(t)
        pms = enumerate_perfect_matchings(G)
        orbits = matching_orbits(G, pms)
        chain = seeded_chain(G, pms, 6, orbits)
        for k in (5, 6):
            want = mu_lex_oracle(G, k, pms)
            assert mu_value_and_indices(G, k, pms) == want, (t, k)
            assert mu_value_and_indices(G, k, pms, orbits) == want, (t, k)
            assert (chain[k - 1].mu, chain[k - 1].factor_indices) == want


def test_degree_filter_runs_past_two_factors_never_on_the_corpus(
        k4, corpus, corpus_pms, monkeypatch):
    calls: List[int] = []
    drops: List[int] = []

    def counted(context, union, cand, best_pop):
        kept = degree_filter(context, union, cand, best_pop)
        calls.append(context.G.n)
        drops.append((cand & ~kept).bit_count())
        return kept

    def refuse(m, pms):
        raise AssertionError("the index was built")

    degree_filter = covers._degree_filter
    monkeypatch.setattr(covers, "_degree_filter", counted)
    # K4 and the corpus never take the filter, and from k = 4 on, where it
    # could run, build no index
    for name, G in [("K4", k4)] + corpus:
        pms = corpus_pms.get(name) or enumerate_perfect_matchings(G)
        for k in range(1, 7):
            with mock.patch.object(covers, "_numerals",
                                   refuse if k >= 4 else _numerals):
                mu_k(G, k, GivenOrbits(G, pms, None))
    assert calls == []
    # J11's mu_4, seeded or not
    G = flower_snark(11)
    pms = enumerate_perfect_matchings(G)
    for after in (None, seeded_chain(G, pms, 3)[-1]):
        calls.clear()
        drops.clear()
        mu_k(G, 4, pms, after=after)
        assert calls and sum(drops) > 0
    # the oracle comparisons on the prisms and ladders (8-24 vertices) and
    # on the multigraphs of 14-24 vertices
    calls.clear()
    drops.clear()
    for t in range(4, 13):
        for G in (prism(t), mobius_ladder(t)):
            pms = enumerate_perfect_matchings(G)
            orbits = matching_orbits(G, pms)
            for k in range(1, 7):
                mu_value_and_indices(G, k, pms, orbits)
    assert calls and sum(drops) > 100, (calls, drops)
    calls.clear()
    drops.clear()
    sizes, count, ks = MULTIGRAPH_TABLE_ROWS[1]
    rng = random.Random(71)
    for _ in range(count):
        G = random_connected_cubic_multigraph(rng, rng.choice(sizes))
        pms = enumerate_perfect_matchings(G)
        for k in ks if pms else ():
            mu_value_and_indices(G, k, pms)
    assert calls and sum(drops) > 50, (calls, drops)


def pair_pass_oracle(
    context: Matchings, r: int, cand: int, best_pop: int, most: int
) -> Tuple[int, Optional[Tuple[int, int]], int]:
    """covers._pair_pass as it was before its buckets: for each second
    factor l in index order, the later members x with |pms[l] & pms[x]|
    within followers(l)'s bound, scanned in index order for a strictly
    larger union; when the best union grows, the members meeting pms[r] in
    more than followers(r)'s bound are dropped.  Its leaves, order and
    bounds are rec's, so it returns rec's best union and pair and scores
    the triples rec scores."""
    pms, suffix_or = context.pms, context.suffix_or
    p = len(pms)
    half = pms[0].bit_count()
    union = pms[r]

    def overlap(f: int) -> int:
        """The bound of followers(f), or n/2 where it counts nothing."""
        c = 3 * half - best_pop - 1
        return half if c >= half or p - f <= half * (c + 1) else c

    best: Optional[Tuple[int, int]] = None
    scored = 0
    rest = [(x, pms[x]) for x in _wide_indices(cand)]
    while rest:
        l, mask = rest[0]
        before = best_pop
        u = union | mask
        if min(u.bit_count() + half,
               (u | suffix_or[l]).bit_count()) > best_pop:
            c = overlap(l)
            for x, other in rest:
                if (mask & other).bit_count() <= c:
                    scored += 1
                    pop = (u | other).bit_count()
                    if pop > best_pop:
                        best_pop, best = pop, (l, x)
        if best_pop == most or (
                union | suffix_or[l + 1]).bit_count() <= best_pop:
            break
        del rest[0]
        if best_pop != before:
            c = overlap(r)
            rest = [(x, other) for x, other in rest
                    if (union & other).bit_count() <= c]
    return best_pop, best, scored


def pair_pass_witnesses(
    G: CubicGraph, pms: Sequence[int], on: Optional[bool], orbits=None,
    ks: Sequence[int] = (1, 2, 3), entered: Optional[List[int]] = None,
) -> List[Tuple[Tuple[int, ...], int]]:
    """(factor_indices, scored) of mu_k for each k of ks, unseeded and then
    seeded (as seeded_chain), with the pair pass forced on (True), forced
    off (False) or left to its cost rule (None).  Every pass taken must
    return pair_pass_oracle's best union and pair, from at most as many
    scored triples.  entered, if given, collects one entry per node that
    took the pass."""
    rule, pair_pass = covers._pairs_pay, covers._pair_pass

    def forced(*args):
        took = rule(*args) if on is None else on
        if took and entered is not None:
            entered.append(1)
        return took

    def checked(*args):
        got = pair_pass(*args)
        want = pair_pass_oracle(*args)
        assert got[:2] == want[:2] and got[2] <= want[2], (args[1:], got, want)
        return got

    with mock.patch.object(covers, "_pairs_pay", forced), \
            mock.patch.object(covers, "_pair_pass", checked):
        found = [mu_k(G, k, GivenOrbits(G, pms, orbits))[1] for k in ks]
        chain = seeded_chain(G, pms, max(ks), orbits)
        found += [chain[k - 1] for k in ks if k > 1]
    return [(w.factor_indices, w.scored) for w in found]


def assert_pair_pass_changes_nothing(
    G: CubicGraph, pms: Sequence[int], ks: Sequence[int] = (1, 2, 3)
) -> int:
    """The witnesses of pair_pass_witnesses are the same with the pass
    forced on, forced off and left to its rule, with one orbit per
    matching and with the orbits of G, and the scored counts read
    on <= rule <= off: a pass scores a subset of the triples rec scores at
    its node, and the nodes are the same.  With one orbit per matching the
    witnesses and scored counts are those of the search without orbits,
    which has the same roots and never asks the rule.  Returns the number
    of nodes that took the pass when forced on."""
    orbits = matching_orbits(G, pms)
    alone = list(range(len(pms)))
    entered: List[int] = []
    for o in (alone, orbits):
        off = pair_pass_witnesses(G, pms, False, o, ks)
        on = pair_pass_witnesses(G, pms, True, o, ks, entered)
        by_rule = pair_pass_witnesses(G, pms, None, o, ks)
        for name, got in (("on", on), ("rule", by_rule)):
            assert [w for w, _ in got] == [w for w, _ in off], (
                G.edges, o is alone, name)
        for low, mid, high in zip(on, by_rule, off):
            assert low[1] <= mid[1] <= high[1], (G.edges, o is alone)
        if o is alone:
            assert pair_pass_witnesses(G, pms, True, None, ks) == off, (
                G.edges)
    return len(entered)


def test_pair_pass_keeps_witness_and_scored_on_corpus(corpus, corpus_pms):
    entered = sum(assert_pair_pass_changes_nothing(G, corpus_pms[name])
                  for name, G in corpus)
    assert entered > 1000, entered


def test_pair_pass_keeps_witness_and_scored_on_flower_snarks():
    for t in range(5, 14, 2):
        G = flower_snark(t)
        assert assert_pair_pass_changes_nothing(
            G, enumerate_perfect_matchings(G)) > 0, t


@pytest.mark.parametrize("t", range(8, 21))
def test_pair_pass_keeps_witness_and_scored_on_prisms_and_ladders(t):
    """C8 x K2 .. C20 x K2 and M16 .. M40."""
    for G in (prism(t), mobius_ladder(t)):
        assert assert_pair_pass_changes_nothing(
            G, enumerate_perfect_matchings(G)) > 0, G.edges


@MULTIGRAPH_TABLES
def test_pair_pass_keeps_witness_and_scored_on_multigraphs(sizes, count, ks):
    """Both tables' graphs, each for k = 1..3 whatever its ks."""
    rng = random.Random(71)
    entered = 0
    for _ in range(count):
        G = random_connected_cubic_multigraph(rng, rng.choice(sizes))
        pms = enumerate_perfect_matchings(G)
        if pms:
            entered += assert_pair_pass_changes_nothing(G, pms)
    assert entered > count, entered


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 32))
def test_pair_pass_keeps_the_mu_3_witness_on_random_multigraphs(half, seed):
    G = random_connected_cubic_multigraph(random.Random(seed), 2 * half)
    pms = enumerate_perfect_matchings(G)
    assume(pms)
    assert_pair_pass_changes_nothing(G, pms, ks=(3,))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 32), st.randoms())
def test_pair_pass_union_identity_on_random_multigraphs(half, seed, pick):
    """|r | l | x| = 3n/2 - a_l - a_x - |(l & x) - r|, with a_y the edges
    pms[y] shares with pms[r]: the identity _pair_pass buckets by."""
    G = random_connected_cubic_multigraph(random.Random(seed), 2 * half)
    pms = enumerate_perfect_matchings(G)
    assume(pms)
    for _ in range(20):
        r, l, x = (pick.choice(pms) for _ in range(3))
        a_l, a_x = (r & l).bit_count(), (r & x).bit_count()
        assert (r | l | x).bit_count() == (
            3 * half - a_l - a_x - (l & x & ~r).bit_count())


def test_pair_pass_leaves_only_root_counts_on_j11(monkeypatch):
    """J11's seeded mu_3 counts followers p bits wide only for its first
    factors: one count per orbit representative (63), where the counts
    below the root took 514."""
    G = flower_snark(11)
    pms = enumerate_perfect_matchings(G)
    orbits = matching_orbits(G, pms)
    after = seeded_chain(G, pms, 2, orbits)[-1]
    calls: List[int] = []

    def counted(cand, rows, c):
        calls.append(len(rows))
        return _in_at_most(cand, rows, c)

    monkeypatch.setattr(covers, "_in_at_most", counted)
    witness = mu_k(G, 3, GivenOrbits(G, pms, orbits), after=after)[1]
    assert (witness.factor_indices, witness.scored) == ((0, 571, 1195), 522)
    assert 0 < len(calls) <= len(set(orbits)) == 63, len(calls)
    assert set(calls) == {G.n // 2}


def test_pair_pass_rule_takes_only_j7_of_the_corpus(
        corpus, corpus_pms, monkeypatch):
    """In analyze(), only J7 of the corpus searches with orbits (past
    ORBIT_MIN_MATCHINGS), so the others never ask the rule.  J7's mu_3 asks
    it at its nine nodes below a first factor, and each takes the pass."""
    rule = covers._pairs_pay
    asked: List[Tuple[str, bool]] = []
    name = ""

    def recorded(*args):
        asked.append((name, rule(*args)))
        return asked[-1][1]

    monkeypatch.setattr(covers, "_pairs_pay", recorded)
    options = AnalyzeOptions(ops=("mu",))
    for name, G in corpus:
        analyze(G, options, id=name)
    assert asked == [("flower_snark_J7", True)] * 9


def test_pair_pass_runs_with_every_factor_a_root_on_j9(monkeypatch):
    """With one orbit per matching, every factor comes back as a root and
    counts its own followers; J9's seeded mu_3 still takes the pass where
    followers would count, below first factors past 0 too, and keeps
    mu_lex_oracle's witness."""
    G = flower_snark(9)
    pms = enumerate_perfect_matchings(G)
    alone = list(range(len(pms)))
    after = seeded_chain(G, pms, 2, alone)[-1]
    pair_pass = covers._pair_pass
    entered: List[int] = []

    def counted(*args):
        entered.append(args[1])
        return pair_pass(*args)

    monkeypatch.setattr(covers, "_pair_pass", counted)
    witness = mu_k(G, 3, GivenOrbits(G, pms, alone), after=after)[1]
    assert max(entered) > 0, entered
    assert (witness.mu, witness.factor_indices) == mu_lex_oracle(G, 3, pms)


def test_mu_basic_identities(corpus, corpus_pms):
    rng = random.Random(19)
    for name, G in rng.sample(corpus, 40):
        values = [mu_k(G, k, corpus_pms[name])[0] for k in range(1, 5)]
        assert values[0] == G.m - G.n // 2, name
        assert all(a >= b for a, b in zip(values, values[1:])), name
        if is_three_edge_colorable(G)[0]:
            assert values[2] == 0, name


def test_mu_rejects_bad_k(k4):
    pms = enumerate_perfect_matchings(k4)
    with pytest.raises(ValueError):
        mu_k(k4, 0, pms)
    with pytest.raises(ValueError):
        mu_k(k4, 7, pms)


def test_rejected_mu_k_call_builds_no_table(k4):
    """k, the empty list and a foreign after are checked before the
    context builds anything."""
    G = flower_snark(5)
    pms = enumerate_perfect_matchings(G)
    other = mu_k(k4, 1, enumerate_perfect_matchings(k4))[1]
    j7 = flower_snark(7)
    # (0, 37): index 37 lies past J5's 32 matchings
    wide = mu_k(j7, 2, enumerate_perfect_matchings(j7))[1]
    for k, after in ((0, None), (7, None), (2, other), (3, other),
                     (3, wide)):
        context = Matchings(G, pms)
        with pytest.raises(ValueError):
            mu_k(G, k, context, after=after)
        assert not {"suffix_or", "by_edge", "orbits"} & set(vars(context))
    empty = Matchings(k4, [])
    with pytest.raises(NoPerfectMatchingError):
        mu_k(k4, 3, empty)
    assert "suffix_or" not in vars(empty)


def test_mu_requires_a_matching():
    # a center vertex joined to three odd gadgets (subdivided K_4s); any
    # matching covers the center once and strands two odd components
    edges = []
    for g in range(3):
        b = 1 + 5 * g
        edges += [(b, b + 1), (b, b + 2), (b, b + 3), (b + 1, b + 2),
                  (b + 1, b + 3), (b + 2, b + 4), (b + 3, b + 4),
                  (0, b + 4)]
    G = CubicGraph(16, edges)
    pms = enumerate_perfect_matchings(G)
    assert pms == []
    with pytest.raises(NoPerfectMatchingError):
        mu_k(G, 3, pms)


def test_berge_on_corpus_sample(corpus, corpus_pms):
    rng = random.Random(23)
    for name, G in rng.sample(corpus, 30):
        assert mu_k(G, 5, corpus_pms[name])[0] == 0, name


def test_fan_raspaud(petersen, corpus):
    pms = enumerate_perfect_matchings(petersen)
    found = fan_raspaud_indices(petersen, pms)
    assert found is not None
    a, b, c = (pms[i] for i in found)
    assert not (a & b & c)
    # first triple in lexicographic index order, by independent scan
    oracle = next(
        (i, j, l)
        for i, j, l in itertools.combinations(range(len(pms)), 3)
        if not (pms[i] & pms[j] & pms[l])
    )
    assert found == oracle


def test_fulkerson_petersen(petersen):
    witness = fulkerson_witness(petersen, enumerate_perfect_matchings(petersen))
    assert witness is not None
    assert verify_fulkerson(petersen, witness.factors)
    # the Petersen graph has exactly six 1-factors and they are forced
    assert sorted(witness.factor_indices) == [0, 1, 2, 3, 4, 5]
    counts = [0] * petersen.m
    for pm in witness.factors:
        for i in _indices(pm):
            counts[i] += 1
    assert counts == [2] * petersen.m


def test_fulkerson_on_corpus_sample(corpus, corpus_pms):
    rng = random.Random(29)
    for name, G in rng.sample(corpus, 30):
        witness = fulkerson_witness(G, corpus_pms[name])
        assert witness is not None, name
        assert verify_fulkerson(G, witness.factors), name


def matchings_from_circuit_avoiding(
    G: CubicGraph, v: int
) -> Optional[List[int]]:
    """The three 1-factors induced by a hamiltonian circuit C of G - v.

    For each edge vw of G, C - w is a path of even order with a unique
    perfect matching; together with vw it is a 1-factor of G.  Returns None
    when G - v is not hamiltonian.
    """
    circuit = _hamiltonian_circuit(G, v)
    if circuit is None:
        return None
    # verts[t] is the vertex where step circuit[t] starts
    verts: List[int] = []
    w = 1 if v == 0 else 0  # the circuit starts at the lowest vertex of G - v
    for f in circuit:
        verts.append(w)
        w = G.other_end(f, w)
    L = len(verts)  # n - 1, odd
    out: List[int] = []
    for e_v in G.incidence[v]:
        w = G.other_end(e_v, v)
        p = verts.index(w)
        # unique matching of the path C - w: steps p+1, p+3, ..., p+L-2
        chosen = [e_v] + [circuit[(p + t) % L] for t in range(1, L - 1, 2)]
        out.append(_mask(G.m, chosen))
    return out


def test_matchings_from_circuit(petersen, j5):
    """Every vertex of the hypohamiltonian Petersen graph and J5, and of
    seeded configuration-model multigraphs (parallel edges included)."""
    rng = random.Random(41)
    graphs = [petersen, j5]
    for _ in range(200):
        n = rng.choice(range(2, 11, 2))
        graphs.append(random_connected_cubic_multigraph(rng, n))
    found = parallel_used = 0
    for G in graphs:
        for v in range(G.n):
            circuit = _hamiltonian_circuit(G, v)
            factors = matchings_from_circuit_avoiding(G, v)
            assert (circuit is None) == (factors is None), (G.edges, v)
            if circuit is None:
                assert G not in (petersen, j5)
                continue
            # a closed walk through every vertex of G - v exactly once,
            # starting at the lowest one
            w = start = 1 if v == 0 else 0
            visited = []
            for f in circuit:
                assert w in G.edges[f] and v not in G.edges[f]
                visited.append(w)
                w = G.other_end(f, w)
            assert w == start
            assert sorted(visited) == [u for u in range(G.n) if u != v]
            assert len(factors) == 3
            for e_v, pm in zip(G.incidence[v], factors):
                assert is_perfect_matching(G, pm), (G.edges, v)
                assert pm >> e_v & 1
            found += 1
            pairs = [frozenset(e) for e in G.edges]
            parallel_used += any(pairs.count(pairs[f]) > 1 for f in circuit)
    assert found > 200 and parallel_used > 0, (found, parallel_used)

