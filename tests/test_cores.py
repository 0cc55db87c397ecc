import dataclasses
import itertools
import random

import pytest

from factorcover.cores import (
    FactorError,
    build_core,
    classify_core,
    find_core,
    verify_core_theorems,
)
from factorcover.graphs import _indices, girth
from factorcover.matching import enumerate_perfect_matchings, trace_circuits

from conftest import components


def sample_triples(pms, count, seed):
    triples = list(itertools.combinations(range(len(pms)), 3))
    rng = random.Random(seed)
    return triples if len(triples) <= count else rng.sample(triples, count)


def test_build_core_rejects_bad_factors(petersen, k4):
    pms = enumerate_perfect_matchings(petersen)
    with pytest.raises(FactorError):
        build_core(petersen, pms[0], pms[0], pms[1])  # not distinct
    other = enumerate_perfect_matchings(k4)
    with pytest.raises(FactorError):
        build_core(petersen, pms[0], pms[1], other[0])  # wrong graph


def test_core_sets_partition_correctly(corpus, corpus_pms):
    rng = random.Random(31)
    for name, G in rng.sample(corpus, 25):
        pms = corpus_pms[name]
        for i, j, l in sample_triples(pms, 20, seed=hash(name) & 0xFFFF):
            a, b, c = pms[i], pms[j], pms[l]
            core = build_core(G, pms[i], pms[j], pms[l])
            # independent recomputation of M, U, T by counting
            for e in range(G.m):
                cnt = (a >> e & 1) + (b >> e & 1) + (c >> e & 1)
                assert (core.M >> e & 1) == (cnt >= 2)
                assert (core.U >> e & 1) == (cnt == 0)
                assert (core.T >> e & 1) == (cnt == 3)
            assert core.k == core.U.bit_count()
            assert core.edge_indices == core.M | core.U


def test_core_invariants_hold_on_random_triples(corpus, corpus_pms):
    rng = random.Random(37)
    for name, G in rng.sample(corpus, 25):
        pms = corpus_pms[name]
        for i, j, l in sample_triples(pms, 20, seed=hash(name) & 0xFFF):
            core = build_core(G, pms[i], pms[j], pms[l])
            for check in verify_core_theorems(core, classify_core(core)):
                assert check["passed"], (name, (i, j, l), check)


def bipartite_check(core, classification):
    (check,) = [c for c in verify_core_theorems(core, classification)
                if c["name"] == "bipartite_implies_bridgeless"]
    return check


def test_bipartite_check_reports_the_bridges(corpus, corpus_pms):
    """A classification that says bipartite but not bridgeless gets the
    core's bridges in the failed check; a bridgeless one gets none."""
    reported = 0
    for name, G in corpus[:40]:
        pms = corpus_pms[name]
        for triple in itertools.combinations(pms, 3):
            core = build_core(G, *triple)
            classification = classify_core(core)
            if classification.is_bridgeless:
                continue
            mask = core.edge_indices
            count = len(components(G, mask, core.vertices))
            bridges = [e for e in _indices(mask)
                       if len(components(G, mask & ~(1 << e),
                                         core.vertices)) > count]
            assert bridges
            check = bipartite_check(core, dataclasses.replace(
                classification, is_bipartite=True))
            assert not check["passed"]
            assert check["measured"] == {"bridges": bridges}, name
            check = bipartite_check(core, dataclasses.replace(
                classification, is_bipartite=True, is_bridgeless=True))
            assert check["passed"] and check["measured"] == {"bridges": []}
            reported += 1
            break
    assert reported >= 3


def test_petersen_core_is_one_even_six_circuit(petersen):
    pms = enumerate_perfect_matchings(petersen)
    core = build_core(petersen, pms[0], pms[1], pms[2])
    assert core.k == 3 and not core.T and core.M.bit_count() == 3
    cls = classify_core(core)
    assert cls.is_cyclic and cls.is_bipartite and cls.is_bridgeless
    assert not cls.is_empty
    assert len(cls.components) == 1
    comp = cls.components[0]
    assert comp.kind == "even_circuit" and comp.edges.bit_count() == 6
    # the circuit alternates between M and U edges
    (circuit,) = trace_circuits(petersen, comp.edges)
    flags = [bool(core.M >> i & 1) for i in circuit]
    assert flags == [True, False] * 3 or flags == [False, True] * 3


def test_empty_core_is_vacuously_cyclic(k4):
    pms = enumerate_perfect_matchings(k4)
    core = build_core(k4, *pms)  # the three disjoint 1-factors of K_4
    assert core.is_empty and core.k == 0
    cls = classify_core(core)
    assert cls.is_empty and cls.is_cyclic and cls.components == ()


def test_nonempty_t_yields_subdivision_with_estar_matching(corpus,
                                                          corpus_pms):
    """Some corpus triple has T != {}; its components of trivalent kind must
    suppress to a cubic multigraph H whose E* edges form a 1-factor of H."""
    found = 0
    for name, G in corpus:
        pms = corpus_pms[name]
        for i, j, l in itertools.combinations(range(len(pms)), 3):
            core = build_core(G, pms[i], pms[j], pms[l])
            if not core.T:
                continue
            cls = classify_core(core)
            subdivisions = [c for c in cls.components
                            if c.kind == "cubic_subdivision"]
            assert subdivisions, (name, (i, j, l))
            for comp in subdivisions:
                # h_edges pair up slots 0..len(h_vertices)-1; E* is a
                # 1-factor of H iff its ends hit every slot exactly once
                ends = sorted(
                    s for e in comp.estar_h for s in comp.h_edges[e])
                assert ends == list(range(len(comp.h_vertices)))
            found += 1
            break
        if found >= 3:
            break
    assert found >= 3


def test_find_core_predicates(petersen, k4, j5):
    core = find_core(petersen, enumerate_perfect_matchings(petersen))
    assert core is not None and core.k == 3
    assert classify_core(core).is_cyclic

    core = find_core(k4, enumerate_perfect_matchings(k4))
    assert core is not None and core.is_empty

    core = find_core(j5, enumerate_perfect_matchings(j5))
    assert core is not None and classify_core(core).is_cyclic


def test_find_core_is_first_cyclic_triple(corpus, corpus_pms):
    """On every corpus graph with n <= 10, find_core returns the core of
    the first index triple (lexicographic) whose core is cyclic, or None
    when there is none."""
    checked = later = 0
    for name, G in corpus:
        if G.n > 10:
            continue
        pms = corpus_pms[name]
        expected = None
        for i, j, l in itertools.combinations(range(len(pms)), 3):
            core = build_core(G, pms[i], pms[j], pms[l])
            if classify_core(core).is_cyclic:
                expected = (pms[i], pms[j], pms[l])
                break
        core = find_core(G, pms)
        if expected is None:
            assert core is None, name
        else:
            assert core is not None and core.factors == expected, name
            later += expected != tuple(pms[:3])
        checked += 1
    # the sample includes graphs whose first triple's core is not cyclic
    assert checked >= 20 and later > 0, (checked, later)


def test_girth_bound_instances(corpus, corpus_pms):
    """Whenever girth(G) > mu_3, the first optimal triple's core is cyclic."""
    from factorcover.covers import mu_k

    rng = random.Random(41)
    for name, G in rng.sample(corpus, 20):
        pms = corpus_pms[name]
        value, witness = mu_k(G, 3, pms)
        if value == 0 or len(set(witness.factors)) < 3:
            continue
        if girth(G) > value:
            core = build_core(G, *witness.factors)
            assert classify_core(core).is_cyclic, name
