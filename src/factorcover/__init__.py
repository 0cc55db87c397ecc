"""1-factor covers, cores, and cycle covers of cubic graphs."""

from .graphs import parse_edge_list
from .matching import enumerate_perfect_matchings
from .covers import mu_k
from .cores import find_core
from .cyclecovers import bipartite_core_cover, cover_from_core, scc_exact

__version__ = "0.1.0"
