import pytest

from cubic_lab import census
from cubic_lab.census import (
    BridgeTreeReport,
    CensusRow,
    _size_in_window,
    census_csv,
    census_json,
    census_table,
    classify_graph,
    classify_graph6,
    conjecture_probe,
    enumerate_cubic,
    is_complete_tree_at_bridge,
    probe_csv,
)
from cubic_lab.connectivity import find_bridges
from cubic_lab.errors import InputError
from cubic_lab.graphs import (
    add_edges,
    build_graph,
    emit_graph6,
    is_connected,
    is_cubic,
    remove_vertices,
)
from cubic_lab.hamilton import has_hamiltonian_cycle
from cubic_lab.reduction import is_complete_tree
from cubic_lab.symmetry import canonical_form

from conftest import make_dumbbell
from oracles import oracle_enumerate


class TestEnumerate:
    def test_known_counts(self):
        assert len(enumerate_cubic(4)) == 1
        assert len(enumerate_cubic(6)) == 2
        assert len(enumerate_cubic(8)) == 5
        assert len(enumerate_cubic(10)) == 19
        assert len(enumerate_cubic(12)) == 85
        assert len(enumerate_cubic(14)) == 509

    def test_odd_rejected(self):
        with pytest.raises(InputError, match="odd"):
            enumerate_cubic(7)

    def test_bound_rejected(self):
        with pytest.raises(InputError):
            enumerate_cubic(2)
        with pytest.raises(InputError):
            enumerate_cubic(40)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("CUBIC_LAB_MAX_N", "6")
        with pytest.raises(InputError):
            enumerate_cubic(8)
        monkeypatch.setenv("CUBIC_LAB_MAX_N", "not-a-number")
        with pytest.raises(InputError):
            enumerate_cubic(6)

    def test_all_members_connected_cubic_canonical(self):
        for n in (4, 6, 8):
            forms = []
            for g in enumerate_cubic(n):
                assert g.n == n and is_cubic(g) and is_connected(g)
                forms.append(canonical_form(g).graph6)
                assert emit_graph6(g).encode() == forms[-1]
            assert forms == sorted(forms)
            assert len(set(forms)) == len(forms)

    def test_k4_is_the_only_4_vertex_graph(self, k4):
        (only,) = enumerate_cubic(4)
        assert canonical_form(only).graph6 == canonical_form(k4).graph6

    def test_n6_is_k33_and_prism(self, k33, prism):
        got = {canonical_form(g).graph6 for g in enumerate_cubic(6)}
        want = {canonical_form(k33).graph6, canonical_form(prism).graph6}
        assert got == want


def _insertion_reductions(g):
    """Every (x, y, M) for an edge xy whose other ends a, b (at x) and c, d
    (at y) are four distinct vertices, and a perfect matching M of them
    that makes g - x - y + M connected, simple and cubic."""
    found = []
    for x, y in g.edges():
        a, b = (w for w in g.adj[x] if w != y)
        c, d = (w for w in g.adj[y] if w != x)
        if len({a, b, c, d}) < 4:
            continue
        rest, remap = remove_vertices(g, [x, y])
        for matching in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
            if any(g.has_edge(u, w) for u, w in matching):
                continue
            h = add_edges(rest, [(remap[u], remap[w]) for u, w in matching])
            if is_connected(h) and is_cubic(h):
                found.append((x, y, matching))
    return found


class TestGeneration:
    def test_equals_saturation_oracle(self):
        for n in range(4, 13, 2):
            ours = [emit_graph6(g).encode() for g in enumerate_cubic(n)]
            assert ours == oracle_enumerate(n), n

    def test_every_class_reduces_by_edge_insertion(self, k4):
        # the census docstring's lemma: every class on n >= 6 vertices is a
        # child of a connected simple cubic graph on n - 2 vertices
        assert _insertion_reductions(k4) == []
        for n in range(6, 13, 2):
            for g in enumerate_cubic(n):
                assert _insertion_reductions(g), emit_graph6(g)

    def test_levels_same_for_every_jobs_value(self, monkeypatch):
        results = []
        for jobs in (1, 2, 3):
            # a fresh cache, so every jobs value grows every level itself
            monkeypatch.setattr(census, "_ENUMERATED", {})
            rows = census_table(4, 12, jobs=jobs)
            graphs = {n: enumerate_cubic(n) for n in range(4, 13, 2)}
            results.append((rows, graphs))
        assert results[0] == results[1] == results[2]
        assert [row.total_cubic for row in results[0][0]] == [1, 2, 5, 19, 85]


class TestCensusTable:
    def test_k4_row(self):
        (row,) = census_table(4, 4)
        assert row == CensusRow(
            n=4, total_cubic=1, hamiltonian=1, non_hamiltonian=0, bridge=0,
            biconnected=0, three_connected=1, non_ham_and_bridge=0,
            non_ham_non3conn=0, bridge_fraction_of_non_ham=0.0,
        )

    def test_n10_unique_bridge_graph_is_dumbbell(self):
        rows = census_table(10, 10)
        assert rows[0].bridge == 1
        bridge_graphs = [
            g for g in enumerate_cubic(10) if find_bridges(g)
        ]
        assert len(bridge_graphs) == 1
        assert canonical_form(bridge_graphs[0]).graph6 == canonical_form(make_dumbbell()).graph6

    def test_row_invariants(self):
        for row in census_table(4, 10):
            assert row.total_cubic == row.hamiltonian + row.non_hamiltonian
            assert row.total_cubic == row.bridge + row.biconnected + row.three_connected
            assert row.non_ham_and_bridge == row.bridge

    def test_jobs_parallel_same_result(self):
        assert census_table(4, 8, jobs=2) == census_table(4, 8, jobs=1)

    def test_csv_shape(self):
        text = census_csv(census_table(4, 6))
        lines = text.strip().split("\n")
        assert lines[0].startswith("n,total_cubic,hamiltonian,")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "4"

    def test_json_mirrors_fields(self):
        payload = census_json(census_table(4, 4))
        assert payload[0]["three_connected"] == 1
        assert list(payload[0]) == [
            "n", "total_cubic", "hamiltonian", "non_hamiltonian", "bridge",
            "biconnected", "three_connected", "non_ham_and_bridge",
            "non_ham_non3conn", "bridge_fraction_of_non_ham",
        ]

    def test_classify_graph6_facts(self, petersen):
        facts = classify_graph6(emit_graph6(petersen))
        assert facts["class"] == "three-connected"
        assert facts["is_hamiltonian"] is False
        assert facts["certificate"] == "exhausted"

    def test_classify_graph_hamiltonicity_matches_solver(self):
        # bridge graphs skip the solver; the facts must be what it reports
        for n in range(4, 13, 2):
            for g in enumerate_cubic(n):
                facts = classify_graph(g)
                ham = has_hamiltonian_cycle(g)
                assert facts["is_hamiltonian"] == ham.is_hamiltonian
                assert facts["certificate"] == ham.certificate_kind

    def test_classify_graph6_wraps_classify_graph(self, d8, dumbbell):
        for g in (d8, dumbbell):
            g6 = emit_graph6(g)
            assert classify_graph6(g6) == {"graph6": g6, **classify_graph(g)}
        assert classify_graph(dumbbell)["class"] == "bridge"


class TestCompleteTreeShape:
    def test_single_vertex(self):
        assert is_complete_tree(build_graph(1, []), 0)

    def test_binary_depth_two(self):
        # 1 + 2 + 4 vertices, children two apiece, uniform leaf depth
        g = build_graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
        assert is_complete_tree(g, 0)

    def test_rejects_uneven_leaves(self):
        g = build_graph(5, [(0, 1), (0, 2), (1, 3), (3, 4)])
        assert not is_complete_tree(g, 0)

    def test_rejects_cycles(self, triangle):
        assert not is_complete_tree(triangle, 0)

    def test_rejects_single_child_chain(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert not is_complete_tree(g, 0)

    def test_window_arithmetic(self):
        # size in [k^(1/5)/2, k^(1/5)) in exact integer form
        assert _size_in_window(1, 32)
        assert not _size_in_window(1, 1)       # needs size < k^(1/5)
        assert _size_in_window(1, 2)
        assert not _size_in_window(1, 33)      # 2^5 = 32 < 33
        assert _size_in_window(7, 7 ** 5 + 1)
        assert not _size_in_window(7, 7 ** 5)


class TestBridgeTreeProbe:
    def test_dumbbell_no_match_but_reports_k(self):
        report = is_complete_tree_at_bridge(make_dumbbell())
        assert isinstance(report, BridgeTreeReport)
        # each side of the dumbbell has three cycle-edge orbits, so the
        # region never materializes at this scale
        assert report.matches is False

    def test_nonbridge_rejected(self, petersen):
        with pytest.raises(InputError):
            is_complete_tree_at_bridge(petersen)

    def test_probe_n10(self):
        row = conjecture_probe(10)
        assert row.rhs_count == 1
        assert row.injection_possible == (row.lhs_count <= row.rhs_count)

    def test_probe_csv(self):
        text = probe_csv([conjecture_probe(10)])
        lines = text.strip().split("\n")
        assert lines[0] == "n,lhs_count,rhs_count,injection_possible"
        assert lines[1].split(",")[1:3] == ["0", "1"]

