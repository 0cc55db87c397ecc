"""Exact k-cover computations: mu_k (Berge's cover is mu_5 = 0),
Fan-Raspaud triples, and Fulkerson colorings.

mu_k(G) is |E(G)| minus the maximum number of edges covered by a multiset of
k 1-factors.  All searches run over the complete enumerated perfect-matching
list and are therefore exact; the first witness in lexicographic
factor-index order wins every tie.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .graphs import (
    CubicGraph,
    _exceeding,
    _indices,
    _levels,
    _transpose,
    automorphisms,
    edge_permutation,
)
from .matching import NoPerfectMatchingError


@dataclass(frozen=True)
class CoverWitness:
    """A multiset of k 1-factors together with its union accounting, and
    the number of k-tuples whose union the search counted."""

    k: int
    factor_indices: Tuple[int, ...]
    factors: Tuple[int, ...]
    union: int
    uncovered: int
    mu: int
    scored: int


@dataclass(frozen=True)
class FulkersonWitness:
    """Six 1-factors with every edge in exactly two of them."""

    factor_indices: Tuple[int, ...]
    factors: Tuple[int, ...]


def matching_orbits(
    G: CubicGraph, pms: Sequence[int], by_edge: Optional[Sequence[int]] = None
) -> List[int]:
    """The orbits of the automorphisms(G) generators on pms: entry l is the
    least index of the orbit of pms[l].  by_edge, if given, is the
    per-edge index _transpose(G.m, pms).

    A generator is used only once edge_permutation confirms it preserves
    every edge multiplicity and each image of a matching is in pms, so a
    missed or rejected automorphism leaves orbits finer, never wrong.

    Each index row is written once as a p-digit binary numeral, so in the
    rows joined edge by edge, the characters p - 1 - l, 2p - 1 - l, ...
    spell matching l, and a string names a matching without int().
    """
    p = len(pms)
    rows: List[str] = []
    where: Dict[str, int] = {}
    moves: List[List[int]] = []  # per generator, the index of each image
    for sigma in automorphisms(G):
        perm = edge_permutation(G, sigma)
        if perm is None:
            continue
        if not rows:
            if by_edge is None:
                by_edge = _transpose(G.m, pms)
            rows = [format(row, f"0{p}b") for row in by_edge]
            text = "".join(rows)
            where = {text[p - 1 - l::p]: l for l in range(p)}
        # the row of each edge goes to its image edge, so the joined rows
        # spell the images of the matchings
        moved = [""] * G.m
        for f, row in enumerate(rows):
            moved[perm[f]] = row
        text = "".join(moved)
        images = [where.get(text[p - 1 - l::p], -1) for l in range(p)]
        if -1 not in images:
            moves.append(images)
    rep = [-1] * p
    for l in range(p):
        if rep[l] < 0:  # every smaller orbit is done: l is this one's least
            rep[l] = l
            stack = [l]
            while stack:
                x = stack.pop()
                for images in moves:
                    y = images[x]
                    if rep[y] < 0:
                        rep[y] = l
                        stack.append(y)
    return rep


def _in_at_most(cand: int, rows: Sequence[int], c: int) -> int:
    """The candidates of cand counted in at most c of rows."""
    return cand ^ (cand & _exceeding(rows, c)[c])


def _suffix_ors(pms: Sequence[int]) -> List[int]:
    """s[i] is the union of pms[i:], for i = 0..len(pms)."""
    s = list(itertools.accumulate(reversed(pms), operator.or_, initial=0))
    s.reverse()
    return s


def _degree_filter(
    G: CubicGraph, union: int, cand: int, best_pop: int, by_edge: Sequence[int]
) -> int:
    """The factors M of cand that can be followed by one last factor L with
    |union | M | L| > best_pop; by_edge is _transpose(G.m, pms).

    Let D be the vertices with exactly one edge g_v in union.  If M holds
    g_v, L covers at most one of v's two other edges, and an uncovered edge
    has two ends, so the union misses at least ceil(d/2) edges, with d the
    number of v in D with g_v in M.  It can miss at most
    s = m - 1 - best_pop, so the factors in more than 2s of the rows of
    the g_v are dropped.
    """
    rows = []
    for star in G.stars:
        g = star & union
        if g and g & (g - 1) == 0:
            rows.append(by_edge[g.bit_length() - 1])
    return _in_at_most(cand, rows, 2 * (G.m - 1 - best_pop))


def _best_leaf(
    union: int, cand: int, best_pop: int, m: int, by_edge: Sequence[int]
) -> Optional[Tuple[int, int]]:
    """(pop, l) for the first l in cand at which pop = |union | pms[l]| is
    largest, or None when no pop exceeds best_pop; by_edge is
    _transpose(m, pms).

    With W the edges outside union, pms[l] reaches m - t edges when it
    misses t edges of W, so only the factors missing at most
    m - 1 - best_pop of them can improve, and a bit-sliced count of misses
    over the rows of W sorts those by t.
    """
    holes = (1 << m) - 1 & ~union
    top = min(m - 1 - best_pop, holes.bit_count())
    if top < 0:
        return None
    misses = [cand ^ (cand & by_edge[e]) for e in _indices(holes)]
    for t, level in enumerate(_levels(cand, misses, top)):
        if level:
            return m - t, (level & -level).bit_length() - 1
    return None


#: mu_k scores a last factor by _best_leaf when that is cheaper than a scan
#: of its candidates: when LEAF_SLICE_COST * w * (s + 1) + LEAF_SLICE_SETUP
#: is below their number, with w edges left to cover and s misses allowed.
#: Each of the w * (s + 1) big-int steps costs about LEAF_SLICE_COST
#: scanned candidates, and the call about LEAF_SLICE_SETUP.  Swept over
#: mu_1..mu_4 of J7-J13, the prisms and Moebius ladders on 24-40 vertices
#: and the bundled corpus (CPU time, best of 7, 2-core Xeon): a step cost
#: of 1 or 2 was fastest on J11 and J13 and 2 to 4 on the prisms and
#: ladders; with no setup term J7's mu_4 (128 matchings) took 1.5 times as
#: long as with scans, and with 64 it scans, as the corpus does.
LEAF_SLICE_COST = 2
LEAF_SLICE_SETUP = 64


#: mu_k narrows the candidates for the second-to-last factor by
#: _degree_filter when DEGREE_FILTER_COST * n * (s + 1) is below their
#: number, with s misses allowed: the pass visits the n vertices and counts
#: at most n rows over 2s + 1 levels.  Swept over 1, 2, 3, 5 and 8 on mu_4
#: and mu_5 of J9-J13, C20xK2 and M40, seeded and not (CPU time, best of 5,
#: 2-core Xeon): the seeded searches took the same time at every cost, and
#: the unseeded ones too within noise, except J9's mu_4, fastest at 3 and 5
#: (2.6-2.8 ms against 5.7 ms at 1 and 8).  At 3 no graph of the bundled
#: corpus takes the pass: at its nodes for k = 4..6 the candidates number
#: at most 2.25 * n * (s + 1).  The prisms and ladders on 24 vertices and
#: the densest multigraphs on 14-24 vertices reach 3.3 and 3.8, and do.
DEGREE_FILTER_COST = 3


#: mu_k scores the second and third factors of a 3-tuple over one list of
#: the q candidates when q * q is below PAIR_PASS_COST * u * n/2 * (c + 1):
#: the pass makes about q * q / 2 popcounts, and rec would make u follower
#: counts of n/2 * (c + 1) big-int steps each.  Swept over 0 (never), 1, 2,
#: 4, 8 and 16 on mu_3 of J7-J13, C16xK2-C24xK2 and M32-M48, without
#: orbits, with them and seeded (CPU time, best of 5, 2-core Xeon): the
#: seeded J7, J9, J11 and J13 took 0.48, 1.79, 7.00 and 40.9 ms at 0, 0.36,
#: 0.83, 3.87 and 19.1 ms at 2, and 0.25, 0.82, 3.44 and 17.9 ms at 4,
#: within 2% of that at 8 and 16; J13 with orbits took 70.0 ms at 0, 52.3
#: at 1 and 48 from 2 on.  Without orbits the rule is not asked, and the
#: prisms and ladders read the same at every cost within noise.
PAIR_PASS_COST = 4


#: analyze() passes matching orbits to mu_k from this many matchings on,
#: and the mu_{k-1} witness as the seed of mu_k.  Finding the orbits takes
#: about a millisecond plus a pass over pms per generator; the seed builds
#: the per-edge index.  analyze() with the ops mu, fan_raspaud and core,
#: in CPU ms (best of 15, 2-core Xeon) at a threshold of 256/128/64/32:
#:   J5 (32 matchings)       0.83 0.82 0.80 1.18
#:   J7 (128)                4.00 2.25 2.26 2.26
#:   C9xK2 (76)              0.49 0.48 0.43 0.43
#:   C10xK2 (125)            0.65 0.65 0.55 0.55
#:   C11xK2 (199)            1.00 0.78 0.78 0.78
#:   M18 (78)                0.72 0.71 0.43 0.43
#:   M20 (123)               0.70 0.69 0.56 0.56
#:   M22 (201)               2.12 0.78 0.77 0.77
#: J7 has the most matchings in the bundled corpus, and it is the only
#: corpus graph with more than 32.
ORBIT_MIN_MATCHINGS = 64


def _pairs_pay(
    cand: int, start: int, p: int, half: int, c: int, roots: int
) -> bool:
    """Is mu_k's pass over the pairs of cand, all of index >= start,
    cheaper than the follower counts that rec would run on them?  c is the
    overlap bound and roots the factors the root loop counts anyway."""
    steps = half * (c + 1)
    # followers' own gate: from index p - steps on no count runs
    if c >= half or p - start <= steps:
        return False
    saved = cand & (1 << p - steps) - 1
    saved ^= saved & roots
    q = cand.bit_count()
    return q * q < PAIR_PASS_COST * saved.bit_count() * steps


def _pair_pass(
    pms: Sequence[int], suffix_or: Sequence[int], r: int, cand: int,
    best_pop: int, most: int,
) -> Tuple[int, Optional[Tuple[int, int]], int]:
    """mu_k's search below a first factor r of a 3-tuple, over one list of
    the factors of cand instead of follower counts; suffix_or is
    _suffix_ors(pms) and most the largest union three factors can reach.

    Returns the best union size, the first pair (l, x) reaching it or
    None when nothing beat best_pop, and the number of triples scored.
    """
    p = len(pms)
    half = pms[0].bit_count()
    union = pms[r]

    def overlap(f: int) -> int:
        """The bound of followers(f), or n/2 where it counts nothing."""
        c = 3 * half - best_pop - 1
        return half if c >= half or p - f <= half * (c + 1) else c

    best: Optional[Tuple[int, int]] = None
    scored = 0
    rest = [(x, pms[x]) for x in _indices(cand)]
    while rest:
        l, mask = rest[0]
        before = best_pop
        u = union | mask
        # rec(l, u, cand & followers(l)): its bound, then its leaves
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
            # cand &= followers(r)
            c = overlap(r)
            rest = [(x, other) for x, other in rest
                    if (union & other).bit_count() <= c]
    return best_pop, best, scored


def mu_k(
    G: CubicGraph, k: int, pms: Sequence[int],
    orbits: Optional[Callable[[], Sequence[int]]] = None,
    index: Optional[Callable[[], Sequence[int]]] = None,
    after: Optional[CoverWitness] = None,
) -> Tuple[int, CoverWitness]:
    """Exact mu_k via branch and bound over nondecreasing factor-index tuples
    of pms, the list from enumerate_perfect_matchings(G).

    Let U be the union of the factors chosen so far and r the number still
    to choose.  A next factor M adds at most n/2 - |M & U| edges, so it can
    lead to a union larger than the best one found only if
    |M & U| <= c = |U| + r*n/2 - best - 1.  Since |M & U| >= |M & F| for
    each chosen factor F, the candidates lie among the factors that meet
    every chosen one in at most k*n/2 - best - 1 >= c edges; that set is a
    bit-sliced count over a per-edge index of pms, kept once per factor and
    rebuilt when the best union grows.  Tuples are visited in lexicographic
    order and only a strictly larger union replaces the best one, so the
    witness is the lexicographically first optimal tuple.

    The last factor is scored in one step when that is cheaper.  With W
    the w edges outside U, a factor M reaches |U | M| = m - |W - M|, so it
    beats the best union only if it misses at most s = m - 1 - best edges
    of W.  A bit-sliced count of misses over the index rows of W
    (_best_leaf) sorts the candidates by miss count 0..s, and the least
    index of the lowest nonempty level is the factor a scan in index order
    keeps, so the witness and the scored count do not change.  It costs
    w * (s + 1) big-int steps against one union per candidate, so it is
    used when LEAF_SLICE_COST * w * (min(s, w) + 1) + LEAF_SLICE_SETUP is
    below the number of candidates, and never at the root (k = 1), where
    every factor covers n/2 edges and the scan keeps factor 0.

    The second-to-last factor M is filtered by vertex degrees once at least
    two factors are chosen (k >= 4).  With D the vertices that have exactly
    one edge g_v in U, M can lead to a better union only if it holds at
    most 2s of the g_v (_degree_filter): the last factor covers only one
    of the two open edges at each such v.  That is a bit-sliced count over
    the index rows of the g_v, run again when the best union grows, and
    used when DEGREE_FILTER_COST * n * (s + 1) is below the number of
    candidates.  With one chosen factor (k = 3) every vertex is in D and
    the filter is the overlap filter again.  It drops only factors that
    cannot beat the best union, so the witness does not change; only
    fewer tuples are scored.

    With one factor r chosen and two to go (k = 3), a node can score its
    last two factors over one list of its q candidates instead of follower
    counts (_pair_pass).  For each second factor l, the members x from l on
    with |pms[l] & pms[x]| <= c are cand & followers(l), all of them where
    followers counts nothing, and they are scanned in index order as
    rec's leaf scans them.  When the best union grows, the members that
    meet pms[r] in more than the new c are dropped, as cand &=
    followers(r) does.  The leaves, their order and the bounds are rec's,
    so neither the witness nor the scored count changes.  The pass makes
    about q*q/2 popcounts of n/2-bit masks, where rec makes one p-bit
    count per candidate not yet in near.  Those counts are saved only
    for factors that do not come back as roots, since a root counts its
    own followers.  Without orbits every factor may, so the pass is never
    tried; with them, only the representatives do, and none are assumed
    before the orbits are asked for.  So the pass is taken when
    q*q < PAIR_PASS_COST * u * n/2 * (c + 1), with u the candidates
    below followers' gate that are not later roots (_pairs_pay).  The
    counts already in near are not subtracted: once passes run, near
    holds only counts of roots.

    index, a function returning _transpose(G.m, pms), shares the per-edge
    index across calls; without it, mu_k builds its own on first use.

    orbits, a function returning matching_orbits(G, pms), lets the search
    skip symmetric tuples.  An automorphism maps a tuple to one of the same
    union, so the first optimal tuple starts with the least index of its
    orbit (a representative) l, and no factor of it lies in the orbit of a
    representative below l.  So once a first factor l is done, the root
    drops l's whole orbit from the candidates; the least one left is the
    next representative.  The tuples kept are visited in the same order
    and include the first optimal one, so the witness does not change.
    orbits is asked for once, only when factor 0's subtree falls short of
    min(m, k*n/2); analyze() passes it from ORBIT_MIN_MATCHINGS (64)
    matchings on, which in the bundled corpus only J7 (128) reaches.  It
    holds for any group of automorphisms, so a missed one costs time,
    never the optimum or the witness.

    after, the witness of mu_k(G, k - 1, pms), seeds the best union: its
    factors plus the first factor covering the most edges outside its
    union (one _best_leaf over every factor) form a k-tuple, so its union
    size S is at most the optimum (mu_k <= mu_{k-1} is this fact), and the
    search starts with the best union at S - 1 and no best tuple.  While
    the best union is below the optimum, no ancestor of the first optimal
    tuple is pruned or filtered out, so that tuple is still the first one
    scored at the optimum, and the witness does not change; the search
    only skips tuples that cannot reach S.  The seed is the union of a
    tuple the search itself scores (sorted, as repetition is allowed),
    never a bound that the report checks.  analyze() passes after where
    it passes orbits, since the seed builds the index, and only from
    k = 3: mu_1's witness is (0,), and factor 0's subtree is the first
    one the unseeded search scores.

    Repetition is allowed (it never improves the union), so the search is
    total whenever G has at least one perfect matching and 1 <= k <= 6.
    """
    if not 1 <= k <= 6:
        raise ValueError("k must be between 1 and 6")
    if not pms:
        raise NoPerfectMatchingError("graph has no perfect matching")
    if after is not None and (
        after.k != k - 1
        or after.factors != tuple(pms[i] for i in after.factor_indices)
    ):
        raise ValueError("after must be a mu_{k-1} witness on pms")
    m, n = G.m, G.n
    half = n // 2
    p = len(pms)
    everyone = (1 << p) - 1
    most = min(m, k * half)  # no k factors cover more
    suffix_or = _suffix_ors(pms)
    if index is None:
        index = functools.cache(lambda: _transpose(m, pms))
    # near[f]: the factors meeting pms[f] in at most k*n/2 - best - 1 edges
    near: Dict[int, int] = {}
    # roots: the factors the root loop may try after the current one, each
    # with a follower count of its own: only representatives, not known
    # before factor 0's subtree is done; without orbits every factor is
    # one, and the pair pass never pays (None)
    roots: Optional[int] = None if orbits is None else 0
    # orbit[r]: the factors whose representative is r, filled on first use
    orbit: Dict[int, int] = {}

    best_pop = -1
    if after is not None:
        # never None: every factor reaches at least |after.union|
        seed = _best_leaf(after.union, everyone, after.union.bit_count() - 1,
                          m, index())
        best_pop = seed[0] - 1
    best_tuple: Optional[Tuple[int, ...]] = None
    chosen: List[int] = []
    scored = 0

    def followers(f: int) -> int:
        """A superset of the factors that can follow f in a better tuple."""
        c = k * half - best_pop - 1
        # counting over the n/2 edges of pms[f] must cost less than trying
        # the p - f factors from f on
        if c >= half or p - f <= half * (c + 1):
            return everyone
        if f not in near:
            by_edge = index()
            near[f] = _in_at_most(
                everyone, [by_edge[e] for e in _indices(pms[f])], c)
        return near[f]

    def second_to_last(union: int, cand: int) -> int:
        """cand less the factors _degree_filter drops, when that pays."""
        s = m - 1 - best_pop
        # no factor holds more than n of the g_v: 2s >= n drops none
        if 2 * s < n and DEGREE_FILTER_COST * n * (s + 1) < cand.bit_count():
            return _degree_filter(G, union, cand, best_pop, index())
        return cand

    def rec(start: int, union: int, cand: int) -> None:
        """Extend chosen by the factors of cand, all of index >= start."""
        nonlocal best_pop, best_tuple, scored, roots
        remaining = k - len(chosen)
        bound = min(
            union.bit_count() + remaining * half,
            (union | suffix_or[start]).bit_count(),
        )
        if bound <= best_pop:
            return
        if remaining == 1:
            # score every leaf here
            size = cand.bit_count()
            scored += size
            # most leaves are smaller than the setup alone: test that first
            if chosen and size > LEAF_SLICE_SETUP:
                w = m - union.bit_count()
                steps = w * (min(m - 1 - best_pop, w) + 1)
                if LEAF_SLICE_COST * steps + LEAF_SLICE_SETUP < size:
                    found = _best_leaf(union, cand, best_pop, m, index())
                    if found is not None:
                        best_pop, l = found
                        best_tuple = (*chosen, l)
                        near.clear()
                    return
            # with no filter applied, cand holds every factor from start on
            # and a plain scan walks it faster
            if size == p - start:
                order: Sequence[int] = range(start, p)
            else:
                order = _indices(cand)
            for l in order:
                pop = (union | pms[l]).bit_count()
                if pop > best_pop:
                    best_pop, best_tuple = pop, (*chosen, l)
                    near.clear()
            return
        if (remaining == 2 and len(chosen) == 1 and roots is not None
                and _pairs_pay(cand, start, p, half,
                               k * half - best_pop - 1, roots)):
            pop, pair, size = _pair_pass(
                pms, suffix_or, chosen[0], cand, best_pop, most)
            scored += size
            if pair is not None:
                best_pop, best_tuple = pop, (*chosen, *pair)
                near.clear()
            return
        narrow = remaining == 2 and len(chosen) >= 2
        if narrow:
            cand = second_to_last(union, cand)
        while cand:
            low = cand & -cand
            l = low.bit_length() - 1
            before = best_pop
            chosen.append(l)
            rec(l, union | pms[l], cand & followers(l))
            chosen.pop()
            if best_pop == most:
                return
            if not chosen and orbits is not None:
                # the root: l is a representative; drop its whole orbit
                if not orbit:
                    for x, r in enumerate(orbits()):
                        orbit[r] = orbit.get(r, 0) | 1 << x
                    roots = sum(1 << r for r in orbit)
                low = orbit[l]
            if (union | suffix_or[l + 1]).bit_count() <= best_pop:
                break
            cand ^= low  # a bit of cand, or at the root an orbit in it
            if best_pop != before:
                for f in chosen:
                    cand &= followers(f)
                if narrow:
                    cand = second_to_last(union, cand)

    rec(0, 0, everyone)
    assert best_tuple is not None
    union = 0
    for i in best_tuple:
        union |= pms[i]
    uncovered = (1 << m) - 1 & ~union
    witness = CoverWitness(
        k=k,
        factor_indices=best_tuple,
        factors=tuple(pms[i] for i in best_tuple),
        union=union,
        uncovered=uncovered,
        mu=uncovered.bit_count(),
        scored=scored,
    )
    return witness.mu, witness


def fan_raspaud_indices(
    G: CubicGraph, pms: Sequence[int]
) -> Optional[Tuple[int, int, int]]:
    """First index triple i < j < l (lexicographic) of pms whose 1-factors
    have empty intersection, or None."""
    p = len(pms)
    for i in range(p):
        for j in range(i + 1, p):
            ij = pms[i] & pms[j]
            for l in range(j + 1, p):
                if ij & pms[l] == 0:
                    return i, j, l
    return None


def fulkerson_witness(
    G: CubicGraph, pms: Sequence[int]
) -> Optional[FulkersonWitness]:
    """Exact search for six 1-factors of pms covering every edge exactly
    twice.

    Depth-first over nondecreasing index tuples (killing the 6! symmetric
    duplicates) with per-edge count <= 2 pruning; exhausts the space before
    returning None.
    """
    p = len(pms)
    full = (1 << G.m) - 1
    suffix_or = _suffix_ors(pms)
    chosen: List[int] = []

    def rec(start: int, once: int, twice: int) -> Optional[Tuple[int, ...]]:
        depth = len(chosen)
        if depth == 6:
            return tuple(chosen) if twice == full else None
        avail = suffix_or[start]
        # every not-yet-saturated edge still needs a factor from the suffix
        if (full & ~twice) & ~avail:
            return None
        for i in range(start, p):
            pm = pms[i]
            if pm & twice:
                continue
            chosen.append(i)
            got = rec(i, once ^ pm, twice | (once & pm))
            chosen.pop()
            if got is not None:
                return got
        return None

    found = rec(0, 0, 0)
    if found is None:
        return None
    return FulkersonWitness(
        factor_indices=found, factors=tuple(pms[i] for i in found)
    )


def verify_fulkerson(G: CubicGraph, factors: Sequence[int]) -> bool:
    """Are factors six edge sets covering every edge exactly twice?"""
    full = (1 << G.m) - 1
    return len(factors) == 6 and _levels(full, factors)[2] == full
