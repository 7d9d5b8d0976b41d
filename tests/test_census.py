import json
import random

import pytest

from cubic_lab import census
from cubic_lab.census import (
    BridgeTreeReport,
    CensusRow,
    ConjectureProbeRow,
    _size_in_window,
    census_table,
    classify_graph,
    classify_graph6,
    conjecture_probe,
    enumerate_cubic,
    enumerate_graph6,
    is_complete_tree_at_bridge,
    table_csv,
)
from cubic_lab.connectivity import find_bridges
from cubic_lab.errors import InputError
from cubic_lab.graphs import (
    Graph,
    build_graph,
    edge,
    edit_graph,
    emit_graph6,
    is_connected,
    is_cubic,
    relabel,
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
            h = edit_graph(rest, add=[(remap[u], remap[w]) for u, w in matching])
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

    def test_reducible_edges_match_oracle(self):
        # the filter's reducibility test against the lemma's statement, and
        # its accept/reject decision per edge against a seeded relabeling
        rng = random.Random(2011)
        levels = [enumerate_cubic(n) for n in range(6, 13, 2)]
        # A002851, so a broken filter cannot shrink the corpus unseen
        assert [len(level) for level in levels] == [2, 5, 19, 85]
        for g in (g for level in levels for g in level):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            for graph in (g, h):
                adj = [set(nbrs) for nbrs in graph.adj]
                ours = {e for e in graph.edges() if census._reducible(adj, *e)}
                oracle = {(x, y) for x, y, _ in _insertion_reductions(graph)}
                assert ours == oracle, emit_graph6(graph)
            adj_g = [set(nbrs) for nbrs in g.adj]
            adj_h = [set(nbrs) for nbrs in h.adj]
            for u, v in g.edges():
                assert census._passes_parent_filter(adj_g, u, v) == (
                    census._passes_parent_filter(adj_h, *edge(perm[u], perm[v]))
                ), (emit_graph6(g), u, v)

    def test_reducible_needs_a_connecting_matching(self):
        # below 22 vertices some simple matching always reconnects; here
        # the edge (0, 1) and its four neighbouring edges are all bridges,
        # each end carrying a K4 with a subdivided edge
        edges = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]
        for i, end in enumerate((2, 3, 4, 5)):
            w = 6 + 4 * i
            edges += [(end, w), (end, w + 1), (w, w + 2), (w, w + 3),
                      (w + 1, w + 2), (w + 1, w + 3), (w + 2, w + 3)]
        g = build_graph(22, edges)
        assert is_cubic(g) and is_connected(g)
        adj = [set(nbrs) for nbrs in g.adj]
        ours = {e for e in g.edges() if census._reducible(adj, *e)}
        assert ours == {(x, y) for x, y, _ in _insertion_reductions(g)}
        assert (0, 1) not in ours

    def test_filter_prunes_child_searches(self, monkeypatch):
        # the output is the same with or without the canonical-parent
        # filter, so only these counts show that it still rejects children
        monkeypatch.setattr(census, "_ENUMERATED", {})
        searches, built = [0], [0]
        search, passes = census._search, census._passes_parent_filter

        def counting_search(g, root=None):
            searches[0] += 1
            return search(g, root)

        def counting_passes(adj, x, y):
            built[0] += 1
            return passes(adj, x, y)

        monkeypatch.setattr(census, "_search", counting_search)
        monkeypatch.setattr(census, "_passes_parent_filter", counting_passes)
        enumerate_cubic(12)
        # one search per parent, the classes on 4 to 10 vertices
        parents = sum(len(enumerate_cubic(n)) for n in range(4, 11, 2))
        assert parents == 27
        child_searches = searches[0] - parents
        assert child_searches == 229
        assert built[0] == 1176
        assert 4 * child_searches < built[0]

    def test_graphs_built_only_for_accepted_children(self, monkeypatch):
        # the filter reads adjacency sets, so a rejected child costs no
        # validated Graph (1 381 constructions when every split built one)
        monkeypatch.setattr(census, "_ENUMERATED", {})
        built = [0]
        post_init = Graph.__post_init__

        def counting_post_init(self):
            built[0] += 1
            post_init(self)

        monkeypatch.setattr(Graph, "__post_init__", counting_post_init)
        enumerate_cubic(12)
        # levels stay graph6 strings: the 85 classes of the returned level
        # 12 parsed, 27 parents parsed for their children, and per accepted
        # child (229, see above) the child alone, since its canonical bytes
        # are written from the labeling (570 when the relabeling was built)
        assert built[0] == 85 + 27 + 229 == 341

    def test_levels_are_sorted_graph6_strings(self, monkeypatch, capsys):
        from cubic_lab.cli import main

        monkeypatch.setattr(census, "_ENUMERATED", {})
        census_table(4, 12)
        assert sorted(census._ENUMERATED) == [4, 6, 8, 10, 12]
        assert all(
            type(g6) is str for level in census._ENUMERATED.values() for g6 in level
        )
        for n in range(4, 13, 2):
            level = enumerate_graph6(n)
            assert level == tuple(emit_graph6(g) for g in enumerate_cubic(n))
            assert list(level) == sorted(level)
            assert main(["enumerate", "--n", str(n)]) == 0
            assert capsys.readouterr().out.splitlines() == list(level)

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

    def test_jobs_below_one_rejected(self):
        for jobs in (0, -2):
            with pytest.raises(InputError, match=f"--jobs must be at least 1, got {jobs}"):
                census_table(4, 6, jobs=jobs)

    def test_range_without_even_n_rejected(self):
        for n_min, n_max in ((8, 6), (5, 5)):
            with pytest.raises(InputError, match="no even vertex count lies in"):
                census_table(n_min, n_max)

    def test_csv_shape(self):
        text = table_csv(CensusRow, census_table(4, 6))
        lines = text.strip().split("\n")
        assert lines[0].startswith("n,total_cubic,hamiltonian,")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "4"

    def test_json_mirrors_fields(self, capsys):
        from cubic_lab.cli import main

        assert main(["census", "--n-min", "4", "--n-max", "4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["three_connected"] == 1
        assert sorted(payload[0]) == sorted([
            "n", "total_cubic", "hamiltonian", "non_hamiltonian", "bridge",
            "biconnected", "three_connected", "non_ham_and_bridge",
            "non_ham_non3conn", "bridge_fraction_of_non_ham",
        ])

    def test_classify_graph6_facts(self, petersen):
        facts = classify_graph6(emit_graph6(petersen))
        assert facts["class"] == "three-connected"
        assert facts["is_hamiltonian"] is False
        assert facts["certificate"] == "exhausted"

    def test_classify_graph_hamiltonicity_matches_solver(self):
        # bridge graphs skip the solver; its verdict must be the same, and
        # on bridgeless graphs its certificate too
        for n in range(4, 13, 2):
            for g in enumerate_cubic(n):
                facts = classify_graph(g)
                ham = has_hamiltonian_cycle(g)
                assert facts["is_hamiltonian"] == ham.is_hamiltonian
                if not facts["bridge_count"]:
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

    def test_probe_table_parses_each_level_once(self, monkeypatch):
        # row n reads level n + 2 for its lhs and level n for its rhs; a
        # level two rows share is parsed once. The levels are generated
        # first, since the generator parses its parents too
        for n in range(4, 11, 2):
            enumerate_graph6(n)
        parsed = []
        original = census.parse_graph6
        monkeypatch.setattr(census, "parse_graph6", lambda g6: parsed.append(g6) or original(g6))
        rows = census.probe_table(4, 8)
        assert sorted(parsed) == sorted(g6 for n in range(4, 11, 2) for g6 in enumerate_graph6(n))
        assert rows == [conjecture_probe(n) for n in (4, 6, 8)]

    def test_probe_csv(self):
        text = table_csv(ConjectureProbeRow, [conjecture_probe(10)])
        lines = text.strip().split("\n")
        assert lines[0] == "n,lhs_count,rhs_count,injection_possible"
        assert lines[1].split(",")[1:3] == ["0", "1"]

