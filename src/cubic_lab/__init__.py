"""cubic_lab: desk-scale cubic graph laboratory.

Core value types live in :mod:`cubic_lab.graphs`; the submodules layer
connectivity analysis, exact symmetry machinery, Hamiltonicity, the bridge
construction with its insertion family, the reduction pipeline, and the
census/evidence tables on top.
"""

from .errors import CubicLabError, Graph6ParseError, InputError, InvariantError
from .graphs import (
    DistanceProfile,
    Edge,
    Graph,
    bfs_distances,
    build_graph,
    edge,
    emit_edgelist,
    emit_graph6,
    induced_subgraph,
    parse_edgelist,
    parse_graph6,
)
from .connectivity import (
    BiBridge,
    ConnectivityClass,
    classify_connectivity,
    find_bridges,
    most_balanced_bibridge,
    two_edge_cuts,
)
from .symmetry import (
    CanonicalForm,
    are_isomorphic,
    automorphism_group,
    canonical_form,
    distinct_cycle_edges,
    edge_orbits,
    isomorphic_pairs,
)
from .hamilton import HamiltonicityResult, has_hamiltonian_cycle
from .construction import (
    ConstructionRecord,
    InsertionFamily,
    bridge_construct,
    cycle_insertion,
    insertion_family,
)
from .reduction import ReducibleState, ReductionOutcome, reduce_to_n
from .census import CensusRow, census_table, conjecture_probe, enumerate_cubic

__version__ = "0.1.0"
