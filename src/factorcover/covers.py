"""Exact k-cover computations: mu_k (Berge's cover is mu_5 = 0),
Fan-Raspaud triples, and Fulkerson colorings.

mu_k(G) is |E(G)| minus the maximum number of edges covered by a multiset of
k 1-factors.  All searches run over the complete enumerated perfect-matching
list and are therefore exact; the first witness in lexicographic
factor-index order wins every tie.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .graphs import (
    CubicGraph,
    _columns,
    _exceeding,
    _indices,
    _levels,
    _numerals,
    _wide_indices,
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
    G: CubicGraph, pms: Sequence[int] | Matchings
) -> List[int]:
    """The orbits of the automorphisms(G) generators on pms, a list or a
    Matchings: entry l is the least index of the orbit of pms[l].

    A generator is used only once edge_permutation confirms it preserves
    every edge multiplicity and each image of a matching is in pms, so a
    missed or rejected automorphism leaves orbits finer, never wrong.

    A matching is named by its m-digit binary numeral, as the context
    writes it to build the per-edge index (Matchings.numerals).  The
    p-digit rows of the index, each put at the place of its edge's image
    and joined last edge first, spell at the characters p - 1 - l,
    2p - 1 - l, ... the numeral of the image of matching l, so a string
    names each image without int().
    """
    context = Matchings.of(G, pms)
    m, p = G.m, len(context.pms)
    rows: List[str] = []
    where: Dict[str, int] = {}
    moves: List[List[int]] = []  # per generator, the index of each image
    for sigma in automorphisms(G):
        perm = edge_permutation(G, sigma)
        if perm is None:
            continue
        if not rows:
            numerals, rows = context.numerals()
            where = dict(zip(numerals, range(p)))
        moved = [""] * m
        for e, row in enumerate(rows):
            moved[m - 1 - perm[e]] = row
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


def _orbit_masks(orbits: Sequence[int]) -> Dict[int, int]:
    """{r: the matchings in the orbit of r} for each representative r of a
    list like matching_orbits(G, pms)."""
    orbit: Dict[int, int] = {}
    for x, r in enumerate(orbits):
        orbit[r] = orbit.get(r, 0) | 1 << x
    return orbit


class Matchings:
    """The list pms from enumerate_perfect_matchings(G), not a copy, with
    the tables the searches derive from it, each built when one first asks
    for it; use_orbits says whether mu_k skips symmetric tuples, from
    ORBIT_MIN_MATCHINGS matchings on, and orbits maps the least index of
    each orbit to the mask of its matchings."""

    def __init__(self, G: CubicGraph, pms: Sequence[int]) -> None:
        self.G, self.pms = G, pms
        self.use_orbits = len(pms) >= ORBIT_MIN_MATCHINGS

    @classmethod
    def of(cls, G: CubicGraph, pms: Sequence[int] | Matchings) -> Matchings:
        """pms itself when it is a Matchings, else one over the list."""
        return pms if isinstance(pms, cls) else cls(G, pms)

    @functools.cached_property
    def by_edge(self) -> List[int]:
        """The per-edge index: bit l of row e says pms[l] holds edge e."""
        m = self.G.m
        rows = _columns(m, "".join(_numerals(m, self.pms)))
        return [int(row or "0", 2) for row in rows]

    def numerals(self) -> Tuple[List[str], List[str]]:
        """The m-digit binary numeral of each matching, in the order of
        pms, and the p-digit numeral of each row of by_edge, edge by edge:
        either list, joined, is cut into the other (_columns).

        Before by_edge is built, the numerals of the matchings are written
        and by_edge is built from the rows; after, the rows are written.
        Nothing keeps the strings, so a graph whose searches never ask for
        the orbits holds only the index.
        """
        m, p = self.G.m, len(self.pms)
        if "by_edge" in vars(self):
            rows = _numerals(p, self.by_edge)
            return _columns(p, "".join(rows)), rows
        numerals = _numerals(m, self.pms)
        rows = _columns(m, "".join(numerals))
        self.by_edge = [int(row or "0", 2) for row in rows]
        return numerals, rows

    @functools.cached_property
    def suffix_or(self) -> List[int]:
        return _suffix_ors(self.pms)

    @functools.cached_property
    def orbits(self) -> Dict[int, int]:
        return _orbit_masks(matching_orbits(self.G, self))

    @functools.cached_property
    def fan_raspaud(self) -> Optional[Tuple[int, int, int]]:
        return fan_raspaud_indices(self.G, self.pms)


def _degree_filter(
    context: Matchings, union: int, cand: int, best_pop: int
) -> int:
    """The factors M of cand that can be followed by one last factor L with
    |union | M | L| > best_pop.

    Let D be the vertices with exactly one edge g_v in union.  If M holds
    g_v, L covers at most one of v's two other edges, and an uncovered edge
    has two ends, so the union misses at least ceil(d/2) edges, with d the
    number of v in D with g_v in M.  It can miss at most
    s = m - 1 - best_pop, so the factors in more than 2s of the rows of
    the g_v are dropped.
    """
    G, by_edge = context.G, context.by_edge
    rows = []
    for star in G.stars:
        g = star & union
        if g and g & (g - 1) == 0:
            rows.append(by_edge[g.bit_length() - 1])
    return _in_at_most(cand, rows, 2 * (G.m - 1 - best_pop))


def _best_leaf(
    context: Matchings, union: int, cand: int, best_pop: int
) -> Optional[Tuple[int, int]]:
    """(pop, l) for the first l in cand at which pop = |union | pms[l]| is
    largest, or None when no pop exceeds best_pop.

    With W the edges outside union, pms[l] reaches m - t edges when it
    misses t edges of W, so only the factors missing at most
    m - 1 - best_pop of them can improve, and a bit-sliced count of misses
    over the rows of W sorts those by t.
    """
    m, by_edge = context.G.m, context.by_edge
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


#: mu_k skips symmetric tuples from this many matchings on, and analyze()
#: seeds it there with the mu_{k-1} witness.  Finding the orbits takes
#: about a millisecond plus a pass over pms per generator; the seed builds
#: the per-edge index.  Swept over 256, 128, 64 and 32 on J5, J7, C9xK2 to
#: C11xK2 and M18 to M22 (analyze() with the ops mu, fan_raspaud and core,
#: CPU ms, best of 15, 2-core Xeon; BENCH_pr26_orbit_path.json), 64 was
#: within 0.01 ms of the fastest on each.  J7 (128) has the most matchings
#: in the bundled corpus, and it is the only corpus graph with more than 32.
ORBIT_MIN_MATCHINGS = 64


#: The largest k that mu_k accepts, and so analyze()'s largest mu_upto.
MAX_K = 6


def _pairs_pay(start: int, p: int, half: int, c: int) -> bool:
    """Would rec run follower counts below a first factor of index start,
    with overlap bound c?  This is followers' own gate: mu_k takes its
    pass over the pairs there instead."""
    return c < half and p - start > half * (c + 1)


def _pair_pass(
    context: Matchings, r: int, cand: int, best_pop: int, most: int
) -> Tuple[int, Optional[Tuple[int, int]], int]:
    """mu_k's search below a first factor r of a 3-tuple, over the factors
    of cand put into buckets by a_x = |pms[r] & pms[x]| instead of follower
    counts; most is the largest union three factors can reach.

    |r | l | x| = 3n/2 - a_l - a_x - |(l & x) - r|, so a pair beats
    best_pop only if a_l + a_x <= c = 3n/2 - best_pop - 1: each l, in index
    order, is paired only with the members x >= l of the buckets up to
    c - a_l, and a pair is scored only if |l & x| <= c too.  The best x of
    each l is the least index of the largest union, so the first optimal
    pair wins as in rec.

    Returns the best union size, the first pair (l, x) reaching it or
    None when nothing beat best_pop, and the number of triples scored.
    """
    pms, suffix_or = context.pms, context.suffix_or
    half = pms[0].bit_count()
    union = pms[r]
    members = _wide_indices(cand)
    meets = [(union & pms[x]).bit_count() for x in members]
    buckets: Dict[int, List[int]] = {}
    for x, a in zip(members, meets):
        buckets.setdefault(a, []).append(x)
    levels = sorted(buckets)
    best: Optional[Tuple[int, int]] = None
    scored = 0
    c = 3 * half - best_pop - 1
    for l, a in zip(members, meets):
        if 2 * levels[0] > c:
            break
        if a + levels[0] > c:
            continue
        mask = pms[l]
        u = union | mask
        # rec(l, u, ...): its bound, then its leaves
        if min(u.bit_count() + half,
               (u | suffix_or[l]).bit_count()) > best_pop:
            top, y = best_pop, -1
            for b in levels:
                if a + b > c:
                    break
                bucket = buckets[b]
                for x in bucket[bisect.bisect_left(bucket, l):]:
                    other = pms[x]
                    if (mask & other).bit_count() <= c:
                        scored += 1
                        pop = (u | other).bit_count()
                        if pop > top or pop == top and x < y:
                            top, y = pop, x
            if y >= 0:
                best_pop, best = top, (l, y)
                c = 3 * half - best_pop - 1
                levels = [b for b in levels if b <= c]
                if not levels:
                    break
        if best_pop == most or (
                union | suffix_or[l + 1]).bit_count() <= best_pop:
            break
    return best_pop, best, scored


def mu_k(
    G: CubicGraph, k: int, pms: Sequence[int] | Matchings,
    after: Optional[CoverWitness] = None,
) -> Tuple[int, CoverWitness]:
    """Exact mu_k via branch and bound over nondecreasing factor-index tuples
    of pms, the list from enumerate_perfect_matchings(G) or a Matchings
    over it; searches given one Matchings share its tables.

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

    The last factor is scored in one step when LEAF_SLICE_COST says that
    is cheaper (_best_leaf): with W the edges outside U, a factor missing
    t edges of W reaches m - t, and the least index of the lowest nonempty
    miss count is the factor a scan in index order keeps, so the witness
    and the scored count do not change.  It is never used at the root
    (k = 1), where every factor covers n/2 edges and the scan keeps
    factor 0.  A scan stops at a leaf reaching min(m, k*n/2), as no later
    one beats it.

    Once two factors are chosen (k >= 4), the second-to-last factor is
    filtered by vertex degrees when DEGREE_FILTER_COST says that pays
    (_degree_filter): at a vertex with exactly one edge in U, the last
    factor covers only one of the two open edges.  With one chosen factor
    (k = 3) this is the overlap filter again.  It drops only factors that
    cannot beat the best union, so the witness does not change; only
    fewer tuples are scored.

    With one factor r chosen and two to go (k = 3), a node can score its
    last two factors over its candidates instead of follower counts
    (_pair_pass, by their overlaps with pms[r]): it scores a subset of the
    leaves rec scores, skipping only pairs that cannot beat the best
    union, so the witness does not change.  The pass is taken wherever the
    search uses orbits and followers would count, with c < n/2 and more
    than n/2 * (c + 1) factors from r on (_pairs_pay).  Without orbits,
    below ORBIT_MIN_MATCHINGS matchings, it is not taken: there the gate
    seldom holds, and on the bundled corpus taking it saved no time.

    From ORBIT_MIN_MATCHINGS matchings on (Matchings.use_orbits), the
    search skips symmetric tuples.  An automorphism maps a tuple to one of
    the same union, so the first optimal tuple starts with the least index
    of its orbit (a representative) l, and no factor of it lies in the
    orbit of a representative below l.  So once a first factor l is done,
    the root drops l's whole orbit, and the least candidate left is the
    next representative; the witness does not change.  The orbits
    (Matchings.orbits) are found only when factor 0's subtree falls short
    of min(m, k*n/2).  A missed automorphism costs time, never the witness.

    after, the witness of mu_k(G, k - 1, pms), seeds the best union: its
    factors plus the first factor covering the most edges outside its
    union (one _best_leaf over every factor) form a k-tuple, so its union
    size S is at most the optimum (mu_k <= mu_{k-1} is this fact), and the
    search starts with the best union at S - 1 and no best tuple.  While
    the best union is below the optimum, no ancestor of the first optimal
    tuple is pruned or filtered out, so the witness does not change; the
    search only skips tuples that cannot reach S.  The seed is the union
    of a tuple the search itself scores, never a bound that the report
    checks.  analyze() passes after where the search uses orbits, since
    the seed builds the index, and only from k = 3: mu_1's witness is
    (0,), whose subtree the unseeded search scores first.

    Repetition is allowed (it never improves the union), so the search is
    total whenever G has at least one perfect matching and 1 <= k <= MAX_K.
    """
    context = Matchings.of(G, pms)
    pms = context.pms
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be between 1 and {MAX_K}")
    if not pms:
        raise NoPerfectMatchingError("graph has no perfect matching")
    if after is not None and (
        after.k != k - 1
        or not all(0 <= i < len(pms) for i in after.factor_indices)
        or after.factors != tuple(pms[i] for i in after.factor_indices)
    ):
        raise ValueError("after must be a mu_{k-1} witness on pms")
    suffix_or = context.suffix_or
    m, n = G.m, G.n
    half = n // 2
    p = len(pms)
    everyone = (1 << p) - 1
    most = min(m, k * half)  # no k factors cover more
    # near[f]: the factors meeting pms[f] in at most k*n/2 - best - 1 edges
    near: Dict[int, int] = {}

    best_pop = -1
    if after is not None:
        # never None: every factor reaches at least |after.union|
        seed = _best_leaf(context, after.union, everyone,
                          after.union.bit_count() - 1)
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
            by_edge = context.by_edge
            near[f] = _in_at_most(
                everyone, [by_edge[e] for e in _indices(pms[f])], c)
        return near[f]

    def second_to_last(union: int, cand: int) -> int:
        """cand less the factors _degree_filter drops, when that pays."""
        s = m - 1 - best_pop
        # no factor holds more than n of the g_v: 2s >= n drops none
        if 2 * s < n and DEGREE_FILTER_COST * n * (s + 1) < cand.bit_count():
            return _degree_filter(context, union, cand, best_pop)
        return cand

    def rec(start: int, union: int, cand: int) -> None:
        """Extend chosen by the factors of cand, all of index >= start."""
        nonlocal best_pop, best_tuple, scored
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
                    found = _best_leaf(context, union, cand, best_pop)
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
                    if pop == most:
                        break
            return
        if (remaining == 2 and len(chosen) == 1 and context.use_orbits
                and cand
                and _pairs_pay(start, p, half, k * half - best_pop - 1)):
            pop, pair, size = _pair_pass(
                context, chosen[0], cand, best_pop, most)
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
            if not chosen and context.use_orbits:
                # the root: l is a representative; drop its whole orbit
                low = context.orbits[l]
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
    G: CubicGraph, pms: Sequence[int] | Matchings
) -> Optional[FulkersonWitness]:
    """Exact search for six 1-factors of pms (a list or a Matchings)
    covering every edge exactly twice.

    Depth-first over nondecreasing index tuples (killing the 6! symmetric
    duplicates) with per-edge count <= 2 pruning; exhausts the space before
    returning None.
    """
    context = Matchings.of(G, pms)
    pms, suffix_or = context.pms, context.suffix_or
    p = len(pms)
    full = (1 << G.m) - 1
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
