import gc
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from factorcover.cyclecovers import scc_exact
from factorcover.graphs import (
    CubicGraph,
    _indices,
    flower_snark,
    is_hamiltonian,
    is_hypohamiltonian,
    mobius_ladder,
    prism,
)
from factorcover.matching import (
    DEFAULT_PM_CAP,
    PMCapExceededError,
    enumerate_perfect_matchings,
    exists_4ec_with_class_of_size,
    is_perfect_matching,
    is_three_edge_colorable,
    oddness,
    trace_circuits,
)

from conftest import random_connected_cubic_multigraph


def pm_oracle(G: CubicGraph):
    """All perfect matchings by brute force over edge-index subsets."""
    out = []
    for combo in itertools.combinations(range(G.m), G.n // 2):
        seen = set()
        for i in combo:
            seen.update(G.edges[i])
        if len(seen) == G.n:
            out.append(frozenset(combo))
    return out


def test_enumeration_matches_brute_force(corpus):
    rng = random.Random(3)
    small = [(n, G) for n, G in corpus if G.n <= 10]
    for name, G in rng.sample(small, 10):
        pms = enumerate_perfect_matchings(G)
        assert {frozenset(_indices(p)) for p in pms} == set(
            pm_oracle(G)), name
        assert all(is_perfect_matching(G, p) for p in pms)


def order_oracle(G: CubicGraph):
    """The documented order: branch on the lowest uncovered vertex, try its
    incident edges in index order."""
    out = []

    def rec(covered, chosen):
        if len(covered) == G.n:
            out.append(tuple(sorted(chosen)))
            return
        v = min(u for u in range(G.n) if u not in covered)
        for i in G.incidence[v]:
            u, w = G.edges[i]
            if u in covered or w in covered:
                continue
            rec(covered | {u, w}, chosen + [i])

    rec(frozenset(), [])
    return out


def test_enumeration_order_is_the_documented_one(petersen, k33):
    for G in (petersen, k33):
        pms = enumerate_perfect_matchings(G)
        keys = [tuple(_indices(p)) for p in pms]
        assert keys == order_oracle(G)
        assert keys == [tuple(_indices(p))
                        for p in enumerate_perfect_matchings(G)]
    assert len(enumerate_perfect_matchings(petersen)) == 6


def test_known_matching_counts(k4, k33, theta):
    assert len(enumerate_perfect_matchings(k4)) == 3
    assert len(enumerate_perfect_matchings(theta)) == 3
    assert len(enumerate_perfect_matchings(k33)) == 6  # 3x3 permanent


def test_cap_is_enforced(petersen):
    with pytest.raises(PMCapExceededError):
        enumerate_perfect_matchings(petersen, cap=5)


def enumerate_oracle(G: CubicGraph, cap: int = DEFAULT_PM_CAP):
    """The plain backtracking enumeration, with no memo: branch on the
    lowest uncovered vertex, try its edges in index order, and raise once
    a matching past cap is found."""
    n, edges, incidence = G.n, G.edges, G.incidence
    full = (1 << n) - 1
    out = []

    def rec(covered: int, chosen: int) -> None:
        if covered == full:
            if len(out) >= cap:
                raise PMCapExceededError(
                    f"more than {cap} perfect matchings"
                )
            out.append(chosen)
            return
        free = (~covered) & full
        v = (free & -free).bit_length() - 1
        for f in incidence[v]:
            a, b = edges[f]
            w = b if v == a else a
            if covered & (1 << w):
                continue
            rec(covered | (1 << v) | (1 << w), chosen | 1 << f)

    rec(0, 0)
    return out


def check_against_oracle(G: CubicGraph) -> None:
    """The same list in the same order as the oracle; the cap raises
    exactly when there are more matchings than it allows."""
    pms = enumerate_oracle(G)
    assert enumerate_perfect_matchings(G) == pms
    assert enumerate_perfect_matchings(G, cap=len(pms)) == pms
    if pms:
        with pytest.raises(PMCapExceededError):
            enumerate_perfect_matchings(G, cap=len(pms) - 1)
    if len(pms) >= 2:
        with pytest.raises(PMCapExceededError):
            enumerate_perfect_matchings(G, cap=1)


def oracle_family():
    rng = random.Random(61)
    yield from ((f"J{t}", flower_snark(t)) for t in (5, 7, 9, 11, 13))
    for i in range(20):
        n = rng.choice(range(2, 17, 2))
        yield f"multigraph {i}", random_connected_cubic_multigraph(rng, n)
    for t in range(3, 17):
        yield f"C{t}xK2", prism(t)
        yield f"M{2 * t}", mobius_ladder(t)


def test_enumeration_and_cap_match_the_oracle(corpus, theta):
    family = [("theta", theta)] + list(corpus) + list(oracle_family())
    parallel = 0
    for name, G in family:
        try:
            check_against_oracle(G)
        except (AssertionError, pytest.fail.Exception) as error:
            raise AssertionError(name) from error
        parallel += len(set(map(frozenset, G.edges))) < G.m
    assert parallel >= 10, parallel


def test_every_cap_on_j9_raises_exactly_below_the_count():
    # a cap that falls inside a block of replayed matchings (300 on J9)
    # raises before the block is copied, like one that falls on a leaf
    G = flower_snark(9)
    pms = enumerate_oracle(G)
    assert len(pms) == 512
    for cap in range(0, 520):
        if cap < 512:
            with pytest.raises(PMCapExceededError):
                enumerate_perfect_matchings(G, cap=cap)
        else:
            assert enumerate_perfect_matchings(G, cap=cap) == pms


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 8))
def test_enumeration_matches_the_oracle_on_seeded_multigraphs(seed, half):
    check_against_oracle(
        random_connected_cubic_multigraph(random.Random(seed), 2 * half))


def replayed_blocks(G: CubicGraph):
    """(start, end) of each block of the list that the enumeration copies
    from its memo rather than searches: its walk over the same states with
    the same memo bound, keeping only the length of the list."""
    n, full = G.n, (1 << G.n) - 1
    arms = [[1 << G.edges[f][0] | 1 << G.edges[f][1] for f in inc]
            for inc in G.incidence]
    length, done, blocks = 0, {}, []

    def rec(covered: int) -> None:
        nonlocal length
        v = ((covered + 1) & ~covered).bit_length() - 1
        for ends in arms[v]:
            if covered & ends:
                continue
            nxt = covered | ends
            if nxt == full:
                length += 1
            elif nxt not in done:
                start = length
                rec(nxt)
                if len(done) < 4 * n + length // 8:
                    done[nxt] = length - start
            elif done[nxt]:
                blocks.append((length, length + done[nxt]))
                length += done[nxt]

    rec(0)
    return blocks


def check_prefixes(G: CubicGraph, most: int = 1000) -> None:
    """stop=s gives full[:s] at s = 1, at p - 1, p, p + 1 and 10**9, and
    at both ends of every replayed block and one past its start, so that a
    stop falls inside a block; with more than most blocks, at an evenly
    spread most of them."""
    full = enumerate_perfect_matchings(G)
    assert all(is_perfect_matching(G, x) for x in full)
    blocks = replayed_blocks(G)
    blocks = blocks[::-(-len(blocks) // most) or 1]
    p = len(full)
    stops = {1, p - 1, p, p + 1, 10 ** 9}
    stops.update(s for start, end in blocks for s in (start, start + 1, end))
    for s in sorted(stops):
        assert enumerate_perfect_matchings(G, stop=s) == full[:s], s


def test_stop_gives_the_prefix_of_the_list(corpus):
    rng = random.Random(61)
    multigraphs = [random_connected_cubic_multigraph(
        rng, rng.choice(range(2, 17, 2))) for _ in range(20)]
    family = [*corpus,
              *((f"J{t}", flower_snark(t)) for t in range(5, 14, 2)),
              *((f"multigraph {i}", G) for i, G in enumerate(multigraphs))]
    for name, G in family:
        try:
            check_prefixes(G)
        except AssertionError as error:
            raise AssertionError(name) from error
    for t in range(8, 21):
        for name, G in ((f"C{t}xK2", prism(t)), (f"M{2 * t}",
                                                  mobius_ladder(t))):
            try:
                check_prefixes(G, most=4)
            except AssertionError as error:
                raise AssertionError(name) from error


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 8),
       st.sampled_from(("stop < cap", "stop == cap", "stop > cap >= p",
                        "stop > cap, p > cap")),
       st.data())
def test_stop_and_cap_match_the_oracle_on_seeded_multigraphs(seed, half,
                                                             case, data):
    """With stop at or below cap the prefix never raises; above it, the
    cap raises exactly when the oracle's does."""
    G = random_connected_cubic_multigraph(random.Random(seed), 2 * half)
    p = len(enumerate_oracle(G))
    if case == "stop < cap":
        cap = data.draw(st.integers(1, 2 * p + 2))
        stop = data.draw(st.integers(0, cap - 1))
    elif case == "stop == cap":
        stop = cap = data.draw(st.integers(0, 2 * p + 2))
    else:
        assume(p > 0 or case == "stop > cap >= p")
        cap = data.draw(st.integers(p, p + 2) if case == "stop > cap >= p"
                        else st.integers(0, p - 1))
        stop = data.draw(st.integers(cap + 1, cap + p + 2))
    try:
        want = enumerate_oracle(G, cap if stop > cap else DEFAULT_PM_CAP)
    except PMCapExceededError:
        with pytest.raises(PMCapExceededError,
                           match=f"^more than {cap} perfect matchings$"):
            enumerate_perfect_matchings(G, cap, stop=stop)
    else:
        assert enumerate_perfect_matchings(G, cap, stop=stop) == want[:stop]


def test_complement_two_factor(petersen):
    for pm in enumerate_perfect_matchings(petersen):
        rest = (1 << petersen.m) - 1 & ~pm
        circuits = trace_circuits(petersen, rest)
        assert sum(len(c) for c in circuits) == petersen.n
        assert sorted(f for c in circuits for f in c) == _indices(rest)


def test_trace_circuits(theta):
    circuits = trace_circuits(theta, 0b011)
    assert circuits == [[0, 1]]  # one 2-circuit through the parallel pair


def coloring_oracle(G: CubicGraph) -> bool:
    """3-edge-colorable iff some perfect matching has an even complement."""
    return any(
        all(len(c) % 2 == 0 for c in trace_circuits(G, (1 << G.m) - 1 & ~pm))
        for pm in enumerate_perfect_matchings(G)
    )


def test_three_edge_colorable_against_oracle(corpus):
    rng = random.Random(5)
    for name, G in rng.sample(corpus, 80):
        verdict, classes = is_three_edge_colorable(G)
        assert verdict == coloring_oracle(G), name
        if verdict:
            a, b, c = classes
            assert not (a & b or a & c or b & c)
            assert (a | b | c) == (1 << G.m) - 1


def test_known_colorability(petersen, k4, j5):
    assert is_three_edge_colorable(k4)[0]
    assert not is_three_edge_colorable(petersen)[0]
    assert not is_three_edge_colorable(j5)[0]


def test_oddness(petersen, k4, j5, corpus, corpus_pms):
    assert oddness(k4, enumerate_perfect_matchings(k4)) == 0
    assert oddness(petersen, enumerate_perfect_matchings(petersen)) == 2
    assert oddness(j5, enumerate_perfect_matchings(j5)) == 2
    # oddness is 0 exactly on 3-edge-colorable graphs
    rng = random.Random(9)
    for name, G in rng.sample(corpus, 40):
        odd = oddness(G, corpus_pms[name])
        assert (odd == 0) == is_three_edge_colorable(G)[0], name


def brute_4ec_class_sizes(G: CubicGraph):
    """All sizes of the last color class over proper 4-edge-colorings."""
    sizes = set()
    for assignment in itertools.product(range(4), repeat=G.m):
        at = [set() for _ in range(G.n)]
        ok = True
        for i, c in enumerate(assignment):
            u, v = G.edges[i]
            if c in at[u] or c in at[v]:
                ok = False
                break
            at[u].add(c)
            at[v].add(c)
        if ok:
            sizes.add(sum(1 for c in assignment if c == 3))
    return sizes


def test_4ec_class_size_against_brute_force(k4, theta):
    for G in (k4, theta):
        sizes = brute_4ec_class_sizes(G)
        for s in range(G.m + 1):
            assert exists_4ec_with_class_of_size(G, s) == (s in sizes)


def test_4ec_class_size_known(petersen):
    assert not exists_4ec_with_class_of_size(petersen, 0)  # chi' = 4
    assert exists_4ec_with_class_of_size(petersen, 2)


def _enumerate_past_the_cap(G: CubicGraph) -> None:
    with pytest.raises(PMCapExceededError):
        enumerate_perfect_matchings(G, cap=3)


@pytest.mark.parametrize("G", [prism(4), flower_snark(5)],
                         ids=["C4xK2", "J5"])
@pytest.mark.parametrize("search", [
    enumerate_perfect_matchings,
    lambda G: enumerate_perfect_matchings(G, stop=3),
    _enumerate_past_the_cap,
    lambda G: scc_exact(G, dim_cap=11),
    is_three_edge_colorable,
    lambda G: exists_4ec_with_class_of_size(G, 4),
    is_hamiltonian,
    is_hypohamiltonian,
], ids=["enumerate", "enumerate_stop", "enumerate_cap", "scc_exact",
        "three_ec", "four_ec", "hamiltonian", "hypohamiltonian"])
def test_recursive_searches_leave_no_reference_cycles(search, G):
    """A recursive closure refers to itself; each search breaks that
    cycle on its way out, whether it returns or raises, so its tables are
    freed at once and not at the next cyclic collection."""
    gc.collect()
    gc.disable()
    try:
        search(G)
        assert gc.collect() == 0
    finally:
        gc.enable()
