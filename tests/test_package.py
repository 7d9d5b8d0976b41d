import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubic_lab

# every name the package exported when it still imported its submodules
# eagerly, by defining module
EXPORTS = {
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
SUBMODULES = (*EXPORTS, "cli")


def _fresh_python(code: str) -> str:
    """stdout of ``code`` run in a new interpreter that finds this package."""
    src = str(Path(cubic_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout


class TestStartup:
    def test_cli_import_loads_neither_construction_nor_reduction(self):
        out = _fresh_python(
            "import sys, cubic_lab.cli\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('cubic_lab'))))"
        )
        loaded = set(out.split())
        assert "cubic_lab.cli" in loaded and "cubic_lab.census" in loaded
        assert "cubic_lab.construction" not in loaded
        assert "cubic_lab.reduction" not in loaded

    def test_parallel_census_imports_no_pool_or_pickle(self):
        # forked workers send marshal bytes; only a failing one pickles
        out = _fresh_python(
            "import io, sys, contextlib\n"
            "from cubic_lab.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['census', '--n-min', '4', '--n-max', '10', '--jobs', '2'])\n"
            "print(code, *sorted(m for m in ('concurrent.futures', 'multiprocessing', 'pickle') if m in sys.modules))"
        )
        assert out.split() == ["0"]

    def test_package_import_loads_no_submodule(self):
        out = _fresh_python(
            "import sys, cubic_lab\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('cubic_lab.'))))"
        )
        assert out.split() == []


class TestLazyExports:
    def test_every_name_and_submodule_resolves_in_a_fresh_process(self):
        names = [n for ns in EXPORTS.values() for n in ns]
        out = _fresh_python(
            "import cubic_lab\n"
            f"for name in {list(SUBMODULES)!r}:\n"
            "    print(name, getattr(cubic_lab, name).__name__)\n"
            f"for name in {names!r}:\n"
            "    print(name, getattr(cubic_lab, name).__module__)"
        )
        expected = [f"{m} cubic_lab.{m}" for m in SUBMODULES]
        expected += [f"{n} cubic_lab.{m}" for m, ns in EXPORTS.items() for n in ns]
        assert out.splitlines() == expected

    def test_export_list_is_pinned(self):
        names = sorted(n for ns in EXPORTS.values() for n in ns)
        assert sorted(cubic_lab.__all__) == names
        assert set(names) <= set(dir(cubic_lab))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(cubic_lab, "no_such_name")
        assert not hasattr(cubic_lab, "_search")
