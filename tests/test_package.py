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


def _fresh_python(code: str, *flags: str) -> str:
    """stdout of ``code`` run in a new interpreter, started with the
    interpreter ``flags``, that finds this package."""
    src = str(Path(cubic_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout


def _loaded_after(code: str, watched: tuple[str, ...]) -> set[str]:
    """The ``cubic_lab`` modules and the ``watched`` ones that a fresh
    interpreter holds after running ``code`` with stdout discarded."""
    out = _fresh_python(
        "import contextlib, io, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + f"print(*sorted(m for m in sys.modules if m.startswith('cubic_lab') or m in {watched!r}))"
    )
    return set(out.split())


class TestStartup:
    def test_cli_import_loads_neither_construction_nor_reduction(self):
        # classify --in needs graphs, connectivity and hamilton alone; census,
        # symmetry, construction and reduction load in the handlers that run them
        loaded = _loaded_after("import cubic_lab.cli", ("dataclasses", "inspect", "json"))
        assert loaded == {
            "cubic_lab", "cubic_lab.cli", "cubic_lab.errors", "cubic_lab.graphs",
            "cubic_lab.connectivity", "cubic_lab.hamilton",
        }

    def test_cli_import_loads_no_pathlib_without_site(self):
        # -S keeps site (and any .pth file it runs) from loading pathlib first
        out = _fresh_python("import sys, cubic_lab.cli\nprint('pathlib' in sys.modules)", "-S")
        assert out.split() == ["False"]

    def test_classify_in_loads_no_census_symmetry_or_dataclasses(self, tmp_path):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text("C~\nEFz_\nIia?W[oKG\n")  # K4, K3,3 and the bridge graph on 10 vertices
        loaded = _loaded_after(
            f"from cubic_lab.cli import main\nassert main(['classify', '--in', {str(corpus)!r}]) == 0",
            ("dataclasses",),
        )
        assert "cubic_lab.hamilton" in loaded
        assert loaded.isdisjoint({"cubic_lab.census", "cubic_lab.symmetry", "dataclasses"})

    @pytest.mark.parametrize("argv", [
        ["census", "--n-min", "4", "--n-max", "10", "--jobs", "1"],
        ["enumerate", "--n", "10"],
    ])
    def test_census_and_enumerate_load_no_dataclasses_construction_or_reduction(self, argv):
        loaded = _loaded_after(f"from cubic_lab.cli import main\nassert main({argv!r}) == 0", ("dataclasses",))
        assert "cubic_lab.census" in loaded
        assert loaded.isdisjoint({"dataclasses", "cubic_lab.construction", "cubic_lab.reduction"})

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


class TestRecordFields:
    def test_asdict_matches_the_dataclass_form(self):
        # field order and values as dataclasses.asdict gave them when these
        # records were frozen dataclasses
        from cubic_lab.census import census_table, conjecture_probe, is_complete_tree_at_bridge
        from cubic_lab.connectivity import classify_connectivity, most_balanced_bibridge
        from cubic_lab.graphs import Edge, bfs_distances, parse_graph6
        from cubic_lab.hamilton import has_hamiltonian_cycle
        from cubic_lab.symmetry import canonical_form

        bicon = parse_graph6("GKK}EC")  # the biconnected class on 8 vertices
        bridge = parse_graph6("Iia?W[oKG")  # the bridge graph on 10 vertices
        records = [
            (bfs_distances(bridge, 0),
             [("root", 0), ("dist", (0, 1, 2, 2, 1, 1, 2, 2, 3, 3)), ("max_dist", 3)]),
            (most_balanced_bibridge(bicon),
             [("e1", Edge(0, 3)), ("e2", Edge(1, 2)), ("side_a", frozenset({0, 1, 6, 7})),
              ("side_b", frozenset({2, 3, 4, 5})), ("balance", 0)]),
            (classify_connectivity(bridge),
             [("bridge_count", 1), ("is_bridge_graph", True), ("is_biconnected", False),
              ("is_three_connected", False)]),
            (has_hamiltonian_cycle(bicon),
             [("is_hamiltonian", True), ("witness", (0, 3, 4, 5, 2, 1, 6, 7)),
              ("certificate_kind", "cycle-found")]),
            (canonical_form(bicon), [("graph6", b"GKK}EC"), ("labeling", (0, 1, 2, 3, 4, 5, 6, 7))]),
            (census_table(4, 10)[-1],
             [("n", 10), ("total_cubic", 19), ("hamiltonian", 17), ("non_hamiltonian", 2),
              ("bridge", 1), ("biconnected", 4), ("three_connected", 14), ("non_ham_and_bridge", 1),
              ("non_ham_non3conn", 1), ("bridge_fraction_of_non_ham", 0.5)]),
            (is_complete_tree_at_bridge(bridge),
             [("matches", False), ("tree_size", None), ("cycle_orbits", None)]),
            (conjecture_probe(10),
             [("n", 10), ("lhs_count", 0), ("rhs_count", 1), ("injection_possible", True)]),
        ]
        for record, items in records:
            assert list(record._asdict().items()) == items, type(record).__name__
            assert list(record._fields) == [name for name, _ in items]
