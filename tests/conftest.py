import importlib.resources
import random

import pytest

from factorcover import graphs
from factorcover.graphs import CubicGraph, _bfs, flower_snark
from factorcover.matching import enumerate_perfect_matchings
from factorcover.report import parse_entry, read_corpus

PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
]

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

K33_EDGES = [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5),
             (2, 3), (2, 4), (2, 5)]


def theta_graph() -> CubicGraph:
    """K_2^3: two vertices joined by three parallel edges."""
    return CubicGraph(2, [(0, 1), (0, 1), (0, 1)])


def components(G: CubicGraph, mask: int, roots):
    """Connected components of the subgraph with edge set mask that meet
    roots, as sorted vertex lists in the order of their least root."""
    order, _, depth = _bfs(G, mask, sorted(roots))
    comps = []
    for v in order:
        if depth[v] == 0:
            comps.append([])
        comps[-1].append(v)
    return [sorted(comp) for comp in comps]


def is_connected(G: CubicGraph) -> bool:
    return len(_bfs(G, (1 << G.m) - 1, (0,))[0]) == G.n


def random_connected_cubic_multigraph(rng: random.Random, n: int):
    """Configuration model: pair up 3n half-edges uniformly, rejecting
    loops and disconnected results."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        edges = list(zip(stubs[0::2], stubs[1::2]))
        if any(u == v for u, v in edges):
            continue
        G = CubicGraph(n, edges)
        if is_connected(G):
            return G


def corpus_path() -> str:
    ref = importlib.resources.files("factorcover") / "data/corpus_cubic14.mgf"
    return str(ref)


@pytest.fixture(scope="session")
def petersen() -> CubicGraph:
    return CubicGraph(10, PETERSEN_EDGES)


@pytest.fixture(scope="session")
def k4() -> CubicGraph:
    return CubicGraph(4, K4_EDGES)


@pytest.fixture(scope="session")
def k33() -> CubicGraph:
    return CubicGraph(6, K33_EDGES)


@pytest.fixture(scope="session")
def prism() -> CubicGraph:
    return graphs.prism(3)


@pytest.fixture(scope="session")
def theta() -> CubicGraph:
    return theta_graph()


@pytest.fixture(scope="session")
def j5() -> CubicGraph:
    return flower_snark(5)


@pytest.fixture(scope="session")
def corpus():
    """The bundled corpus as a list of (name, CubicGraph)."""
    return [(name, parse_entry(text, "mgf"))
            for name, text in read_corpus(corpus_path(), "mgf")]


@pytest.fixture(scope="session")
def corpus_pms(corpus):
    """Perfect matching lists for every corpus graph, enumerated once."""
    return {name: enumerate_perfect_matchings(G) for name, G in corpus}
