"""Certifying digraph coloring via four-blocks cycle subdivisions.

Given a strongly connected digraph and block lengths (k1, k3), the pipeline
either produces a proper coloring with at most 36*(2k)*(4k+2) colors
(k = max(k1, k3); 6k in the Hamiltonian case) or an independently verified
subdivision of the oriented cycle C(k1,1,k3,1). Exhaustive desk-scale
searchers ground every certificate.
"""

from .digraph import (
    Coloring,
    Digraph,
    UGraph,
    format_digraph,
    is_proper,
    is_strongly_connected,
    parse_digraph,
    product_coloring,
    underlying_graph,
)
from .errors import (
    BudgetExceeded,
    InfeasibleSpec,
    NotAcyclic,
    NotFinalTree,
    NotStronglyConnected,
    ParseError,
    UnreachableVertex,
)
from .outtree import (
    OutTree,
    depth_first_out_tree,
    finalize,
    is_ancestor,
    is_final,
)
from .witness import (
    DEFAULT_BUDGET,
    CyclePattern,
    SubdivisionWitness,
    VerifyResult,
    find_cycle_subdivision,
    verify_subdivision,
    witness_from_json,
    witness_to_json,
)
from .decomposition import (
    ClassReport,
    ColoringWithinBound,
    Inconclusive,
    OutDegreeFailure,
    PaletteFailure,
    SubdivisionFound,
    WheelCoreFailure,
    arc_partition,
    color_d1,
    color_d2,
    color_d3,
    color_strong_digraph,
    level_classes,
)
from .hamiltonian import (
    ChordViolation,
    ChordViolations,
    HamiltonianCycle,
    PeelColoring,
    PeelStall,
    check_chord_neighbor_bound,
    color_hamiltonian,
    find_hamiltonian_cycle,
)
from .generators import Family, GenSpec, Rng, generate
from .verify import verify_certificate

__version__ = "0.1.0"
