import random

import pytest
from hypothesis import given, strategies as st

from cubic_lab.errors import Graph6ParseError, InputError, InvariantError
from cubic_lab.graphs import (
    Graph,
    bfs_distances,
    build_graph,
    edge,
    emit_edgelist,
    emit_graph6,
    induced_subgraph,
    is_connected,
    is_cubic,
    parse_edgelist,
    parse_graph6,
    remove_vertices,
)


def random_graph(rng: random.Random, n: int) -> Graph:
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    chosen = [p for p in pairs if rng.random() < 0.3]
    return build_graph(n, chosen)


class TestBuildGraph:
    def test_empty(self):
        g = build_graph(0, [])
        assert g.n == 0 and g.m == 0

    def test_k4_all_degrees_three(self, k4):
        assert [k4.degree(v) for v in range(4)] == [3, 3, 3, 3]

    def test_d8_degrees_by_direct_count(self, d8):
        # count incidences straight off the edge list
        counts = [0] * 8
        for u, w in d8.edges():
            counts[u] += 1
            counts[w] += 1
        assert counts == [3] * 8
        assert d8.m == 12

    def test_duplicate_edges_collapse(self):
        g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError, match=r"\(0,5\)"):
            build_graph(3, [(0, 5)])

    def test_self_loop_rejected(self):
        with pytest.raises(InputError, match=r"\(2,2\)"):
            build_graph(3, [(2, 2)])

    def test_adjacency_sorted(self, d8):
        for row in d8.adj:
            assert list(row) == sorted(row)

    def test_symmetry_enforced_on_construction(self):
        with pytest.raises(InvariantError):
            Graph(2, ((1,), ()))


class TestGraph6:
    def test_k4_is_Ctilde(self, k4):
        assert emit_graph6(k4) == "C~"

    def test_d8_round_trip(self, d8):
        assert parse_graph6(emit_graph6(d8)).adj == d8.adj

    def test_empty_string_rejected(self):
        with pytest.raises(Graph6ParseError):
            parse_graph6("")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(Graph6ParseError, match="trailing"):
            parse_graph6("C~~")

    def test_nonzero_padding_rejected(self):
        # 2 vertices need one bit; set a padding bit on purpose
        bad = chr(63 + 2) + chr(63 + 0b010000)
        with pytest.raises(Graph6ParseError, match="padding"):
            parse_graph6(bad)

    def test_byte_outside_alphabet_rejected(self):
        err = None
        try:
            parse_graph6("C\x05")
        except Graph6ParseError as exc:
            err = exc
        assert err is not None and err.offset == 1

    def test_empty_graph_round_trip(self):
        assert emit_graph6(build_graph(0, [])) == "?"
        assert parse_graph6("?").n == 0

    def test_large_n_header(self):
        g = build_graph(63, [(0, 1)])
        assert parse_graph6(emit_graph6(g)).adj == g.adj

    def test_round_trip_1000_random_graphs(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            g = random_graph(rng, rng.randint(0, 20))
            assert parse_graph6(emit_graph6(g)).adj == g.adj


class TestEdgeList:
    def test_round_trip(self, d8):
        assert parse_edgelist(emit_edgelist(d8)).adj == d8.adj

    def test_header_mismatch(self):
        with pytest.raises(InputError, match="declares"):
            parse_edgelist("2 3\n0 1\n")


class TestInducedSubgraph:
    def test_k4_restriction_is_triangle(self, k4):
        sub, remap = induced_subgraph(k4, {0, 1, 2})
        assert sub.n == 3 and sub.m == 3
        assert remap == {0: 0, 1: 1, 2: 2}

    def test_d8_side_is_diamond(self, d8):
        sub, _ = induced_subgraph(d8, {0, 1, 2, 3})
        assert sub.n == 4 and sub.m == 5
        assert sorted(len(nbrs) for nbrs in sub.adj) == [2, 2, 3, 3]

    def test_empty_subset(self, d8):
        sub, remap = induced_subgraph(d8, set())
        assert sub.n == 0 and remap == {}

    def test_mapping_order_preserving(self, d8):
        _, remap = induced_subgraph(d8, {7, 3, 5})
        assert remap == {3: 0, 5: 1, 7: 2}

    def test_out_of_range(self, d8):
        with pytest.raises(InputError):
            induced_subgraph(d8, {0, 99})


class TestRemoveVertices:
    def test_compaction_and_remap(self, d8):
        g, remap = remove_vertices(d8, {0, 3})
        assert g.n == 6
        assert remap == {1: 0, 2: 1, 4: 2, 5: 3, 6: 4, 7: 5}
        assert g.has_edge(remap[1], remap[2])
        assert not g.has_edge(remap[4], remap[7])


class TestBfs:
    def test_k4(self, k4):
        p = bfs_distances(k4, 0)
        assert p.dist == (0, 1, 1, 1) and p.max_dist == 1

    def test_path(self, path3):
        p = bfs_distances(path3, 0)
        assert p.dist == (0, 1, 2) and p.max_dist == 2

    def test_unreachable_marked_none(self):
        g = build_graph(4, [(0, 1)])
        p = bfs_distances(g, 0)
        assert p.dist == (0, 1, None, None) and p.max_dist == 1

    def test_restricted_bfs_ignores_outside_edges(self, d8):
        p = bfs_distances(d8, 0, within={0, 1, 2, 3})
        assert p.dist[4] is None and p.dist[3] == 2

    def test_root_out_of_range(self, k4):
        with pytest.raises(InputError):
            bfs_distances(k4, 9)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=2, max_value=12))
def test_bfs_neighbor_property(seed, n):
    # adjacent vertices differ by at most one level, for any root
    rng = random.Random(seed)
    g = random_graph(rng, n)
    p = bfs_distances(g, rng.randrange(n))
    for u, w in g.edges():
        if p.dist[u] is not None and p.dist[w] is not None:
            assert abs(p.dist[u] - p.dist[w]) <= 1


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=1, max_value=12))
def test_random_graphs_keep_invariants(seed, n):
    rng = random.Random(seed)
    g = random_graph(rng, n)
    for u in range(g.n):
        assert u not in g.adj[u]
        for w in g.adj[u]:
            assert u in g.adj[w]


class TestPredicates:
    def test_k4(self, k4):
        assert is_cubic(k4) and is_connected(k4)

    def test_petersen_cubic_connected(self, petersen):
        assert is_cubic(petersen) and is_connected(petersen)

    def test_path_not_cubic(self, path3):
        assert not is_cubic(path3) and is_connected(path3)

    def test_disconnected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert not is_connected(g)
        assert is_connected(build_graph(0, []))

    def test_is_cubic_direct(self, prism, diamond):
        assert is_cubic(prism) and not is_cubic(diamond)
