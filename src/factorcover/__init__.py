"""1-factor covers, cores, and cycle covers of cubic graphs."""

from .graphs import (
    CubicGraph,
    EdgeSet,
    GraphFormatError,
    GraphTooLargeError,
    NotCubicError,
    bridges,
    flower_snark,
    girth,
    has_nontrivial_3_edge_cut,
    is_bipartite,
    is_bridgeless,
    is_hamiltonian,
    is_hypohamiltonian,
    parse_edge_list,
    parse_graph6,
    theta_graph,
    to_mgf,
)
from .matching import (
    NoPerfectMatchingError,
    PMCapExceededError,
    enumerate_perfect_matchings,
    exists_4ec_with_class_of_size,
    is_three_edge_colorable,
    oddness,
    trace_circuits,
)
from .covers import (
    CoverWitness,
    FulkersonWitness,
    fan_raspaud_indices,
    fulkerson_witness,
    mu_k,
)
from .cores import (
    Core,
    CoreComponent,
    CoreClassification,
    CoreInvariantError,
    FactorError,
    build_core,
    classify_core,
    find_core,
    verify_core_theorems,
)
from .cyclecovers import (
    CoverConstructionError,
    CycleCover,
    DimensionCapExceededError,
    bipartite_core_cover,
    canonical_cover,
    cover_from_core,
    five_cdc,
    four_cover_cycles,
    scc_exact,
    verify_cover,
)

from .report import (
    ALL_OPS,
    AnalyzeOptions,
    GraphReport,
    ReportAuditError,
    analyze,
    audit_report,
    read_corpus,
    scan,
)

__version__ = "0.1.0"
