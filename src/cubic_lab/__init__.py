"""cubic_lab: desk-scale cubic graph laboratory.

Core value types live in :mod:`cubic_lab.graphs`; the submodules layer
connectivity analysis, exact symmetry machinery, Hamiltonicity, the bridge
construction with its insertion family, the reduction pipeline, and the
census/evidence tables on top.

Importing the package loads no submodule. Each exported name and each
submodule is loaded the first time it is looked up (PEP 562), so a command
pays only for the modules it runs: ``classify`` and ``census`` never load
``construction`` or ``reduction``.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("CubicLabError", "Graph6ParseError", "InputError", "InvariantError"),
    "graphs": (
        "DistanceProfile", "Edge", "Graph", "bfs_distances", "build_graph", "edge",
        "emit_edgelist", "emit_graph6", "induced_subgraph", "parse_edgelist", "parse_graph6",
    ),
    "connectivity": (
        "BiBridge", "ConnectivityClass", "classify_connectivity", "find_bridges",
        "most_balanced_bibridge", "two_edge_cuts",
    ),
    "symmetry": (
        "CanonicalForm", "are_isomorphic", "automorphism_group", "canonical_form",
        "distinct_cycle_edges", "edge_orbits", "isomorphic_pairs",
    ),
    "hamilton": ("HamiltonicityResult", "has_hamiltonian_cycle"),
    "construction": (
        "ConstructionRecord", "InsertionFamily", "bridge_construct", "cycle_insertion",
        "insertion_family",
    ),
    "reduction": ("ReducibleState", "ReductionOutcome", "reduce_to_n"),
    "census": ("CensusRow", "census_table", "conjecture_probe", "enumerate_cubic", "enumerate_graph6"),
}
_SUBMODULES = (*_EXPORTS, "cli")
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
