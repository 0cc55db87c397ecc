"""Acceptance suite: one test per criterion, each emitting a single
pass/fail line, with the stated runtime tolerances enforced."""

import hashlib
import itertools
import random
import time
from contextlib import contextmanager

from factorcover.cli import main
from factorcover.cores import build_core, classify_core, find_core
from factorcover.covers import (
    fan_raspaud_indices,
    fulkerson_witness,
    mu_k,
    verify_fulkerson,
)
from factorcover.cyclecovers import (
    bipartite_core_cover,
    canonical_cover,
    cover_from_core,
    five_cdc,
    four_cover_cycles,
    scc_exact,
    verify_cover,
)
from factorcover.graphs import (
    CubicGraph,
    _girth,
    girth,
    has_nontrivial_3_edge_cut,
    is_bridgeless,
)
from factorcover.matching import (
    enumerate_perfect_matchings,
    exists_4ec_with_class_of_size,
    is_perfect_matching,
    is_three_edge_colorable,
    oddness,
)

from conftest import PETERSEN_EDGES, components, corpus_path

# Exhaustive shortest-cover search is feasible on this hardware up to this
# cycle space dimension (the 480 graphs of dimension 8 take about 1.4 s of
# search CPU, slowest 0.04 s, on a 2-core Xeon with Python 3.11); of the
# corpus only J5 and J7 lie above it.
SCC_FEASIBLE_DIM = 8


@contextmanager
def criterion(num: int, description: str):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL: {description}")
        raise
    dt = time.monotonic() - t0
    print(f"criterion {num:2d} PASS: {description} ({dt:.1f}s)")


def petersen() -> CubicGraph:
    return CubicGraph(10, PETERSEN_EDGES)


def test_criterion_01_petersen_mu_values():
    with criterion(1, "Petersen mu_1..mu_5 = (10, 6, 3, 1, 0) in < 5 s"):
        t0 = time.monotonic()
        G = petersen()
        pms = enumerate_perfect_matchings(G)
        values = [mu_k(G, k, pms)[0] for k in range(1, 6)]
        assert values == [10, 6, 3, 1, 0]
        assert time.monotonic() - t0 < 5.0


def test_criterion_02_petersen_shortest_cover():
    with criterion(2, "Petersen scc_exact = 21 = 4/3*15 + 1 in < 60 s"):
        t0 = time.monotonic()
        G = petersen()
        cover = verify_cover(G, scc_exact(G, dim_cap=6))
        assert cover.valid and cover.length == 21 == (4 * G.m) // 3 + 1
        assert time.monotonic() - t0 < 60.0


def test_criterion_03_flower_snark_covers(j5):
    with criterion(3, "J_5: mu_3 = 3, mu_4 = 0, even 4-cover of length 40 "
                      "with ced <= 2, valid 5-CDC, in < 120 s"):
        t0 = time.monotonic()
        pms = enumerate_perfect_matchings(j5)
        assert mu_k(j5, 3, pms)[0] == 3
        value, witness = mu_k(j5, 4, pms)
        assert value == 0
        four = verify_cover(j5, four_cover_cycles(j5, *witness.factors))
        assert four.valid and four.even and four.length == 40
        assert four.ced <= 2 and four.count == 4
        cdc = verify_cover(j5, five_cdc(j5, *witness.factors))
        # valid with ced 2 and length 2m: every edge lies in two cycles
        assert cdc.valid and cdc.count == 5
        assert cdc.ced == 2 and cdc.length == 2 * j5.m
        assert time.monotonic() - t0 < 120.0


def test_criterion_04_petersen_four_cover_accounting():
    with criterion(4, "Petersen 4-cover has length exactly 24 = "
                      "4/3*15 + 4*1 and is even"):
        G = petersen()
        _, witness = mu_k(G, 4, enumerate_perfect_matchings(G))
        checked = verify_cover(G, four_cover_cycles(G, *witness.factors))
        assert checked.valid
        assert checked.length == 24 == (4 * G.m) // 3 + 4 * 1
        assert checked.even


def test_criterion_05_core_property_suite(corpus, corpus_pms):
    with criterion(5, "core invariants on >= 1000 sampled PM triples per "
                      "corpus graph (exhaustive when fewer), zero "
                      "violations, < 10 min"):
        t0 = time.monotonic()
        rng = random.Random(0)
        for name, G in corpus:
            pms = corpus_pms[name]
            triples = list(itertools.combinations(range(len(pms)), 3))
            if len(triples) > 1000:
                triples = rng.sample(triples, 1000)
            for i, j, l in triples:
                core = build_core(G, pms[i], pms[j], pms[l])
                k, t = core.k, core.T.bit_count()
                assert core.M.bit_count() == k - t, name
                assert len(core.vertices) == 2 * k - 2 * t, name
                assert core.edge_indices.bit_count() == 2 * k - t, name
                # M is a perfect matching of the core subgraph
                for v in core.vertices:
                    at_v = sum(core.M >> e & 1 for e in G.incidence[v])
                    assert at_v == 1, name
                mask = core.edge_indices
                g_c = _girth(G, mask)
                if g_c is not None:
                    assert g_c <= 2 * k, name
                    comps = components(G, mask, core.vertices)
                    assert len(comps) <= (2 * k) / g_c, name
                # component classification (classify_core asserts the
                # circuit/subdivision structure while building it)
                cls = classify_core(core)
                for comp in cls.components:
                    assert comp.kind in ("even_circuit",
                                         "cubic_subdivision"), name
        assert time.monotonic() - t0 < 600.0


def test_criterion_06_mu3_bounds(corpus, corpus_pms):
    with criterion(6, "every corpus graph: mu_3 > 0 implies mu_3 >= 3 and "
                      "girth <= 2 mu_3; mu_3 <= (8/35) m"):
        for name, G in corpus:
            mu3 = mu_k(G, 3, corpus_pms[name])[0]
            if mu3 > 0:
                assert mu3 >= 3, name
                assert girth(G) <= 2 * mu3, name
            assert 35 * mu3 <= 8 * G.m, name


def test_criterion_07_conjecture_scale(corpus, corpus_pms):
    with criterion(7, "fan_raspaud and fulkerson witnesses exist for every "
                      "bridgeless corpus graph, including all graphs with "
                      "no nontrivial 3-edge-cut and mu_3 <= 4"):
        for name, G in corpus:
            assert is_bridgeless(G), name
            pms = corpus_pms[name]
            assert fan_raspaud_indices(G, pms) is not None, name
            witness = fulkerson_witness(G, pms)
            assert witness is not None, name
            assert verify_fulkerson(G, witness.factors), name
            mu3 = mu_k(G, 3, pms)[0]
            if mu3 <= 4 and not has_nontrivial_3_edge_cut(G)[0]:
                assert witness is not None, name


def test_criterion_08_oddness_equivalence(corpus, corpus_pms):
    with criterion(8, "bridgeless non-3-edge-colorable corpus graphs: "
                      "oddness = 2 iff a 4-edge-coloring has a class of "
                      "exactly two edges"):
        checked = 0
        for name, G in corpus:
            if is_three_edge_colorable(G)[0]:
                continue
            om = oddness(G, corpus_pms[name])
            has_class_2 = exists_4ec_with_class_of_size(G, 2)
            assert (om == 2) == has_class_2, name
            checked += 1
        assert checked >= 9  # seven small graphs plus J_5 and J_7


def test_criterion_09_constructions_vs_oracle(corpus, corpus_pms):
    with criterion(9, "constructed cover lengths >= exact optimum wherever "
                      f"feasible (cycle space dim <= {SCC_FEASIBLE_DIM}); "
                      "canonical = optimum = 4/3 m when 3-edge-colorable; "
                      "< 15 s"):
        t0 = time.monotonic()
        checked = 0
        for name, G in corpus:
            if G.m - G.n + 1 > SCC_FEASIBLE_DIM:
                continue
            best = verify_cover(
                G, scc_exact(G, dim_cap=SCC_FEASIBLE_DIM)).length
            pms = corpus_pms[name]
            colorable, coloring = is_three_edge_colorable(G)
            if colorable:
                canonical = verify_cover(
                    G, canonical_cover(G, coloring)).length
                assert canonical == best == 4 * G.m // 3, name
            core = find_core(G, pms)
            if core is not None and not core.is_empty:
                cover = verify_cover(G, cover_from_core(
                    G, core, bipartite_core_cover(core)))
                assert cover.valid and cover.length >= best, name
            value, witness = mu_k(G, 4, pms)
            if value == 0:
                four = verify_cover(G, four_cover_cycles(G, *witness.factors))
                assert four.valid and four.length >= best, name
            checked += 1
        assert checked >= 580
        assert time.monotonic() - t0 < 15.0


def test_criterion_10_scan_determinism(tmp_path):
    with criterion(10, "two consecutive scans of the bundled corpus are "
                       "byte-identical, with a fixed digest"):
        outs = []
        for i in range(2):
            out = tmp_path / f"scan{i}.jsonl"
            assert main(["scan", corpus_path(), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] and len(outs[0]) > 0
        # the default-scan JSONL changes only with an intentional schema or
        # witness change, which must update this digest
        assert hashlib.sha256(outs[0]).hexdigest() == (
            "ab147fe26bb0086681181cf6da52c3fde396c614b86dd11d77a7f3e043cc18f8")
