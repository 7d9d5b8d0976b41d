import copy
import pickle
import random

import pytest
from hypothesis import example, given, strategies as st

from cubic_lab.errors import Graph6ParseError, InputError, InvariantError
from cubic_lab.graphs import (
    Edge,
    Graph,
    bfs_distances,
    build_graph,
    edge,
    edit_graph,
    emit_edgelist,
    emit_graph6,
    induced_subgraph,
    is_connected,
    is_cubic,
    parse_edgelist,
    parse_graph6,
    parse_graph6_lines,
    remove_vertices,
)

from conftest import long_form, make_prism
from oracles import oracle_emit_graph6, oracle_parse_graph6


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


class TestGraphValue:
    """``Graph`` behaves as the frozen dataclass it replaced: an immutable,
    hashable value equal only to another ``Graph``."""

    def test_equal_content_equal_and_same_hash(self, k4):
        other = parse_graph6("C~")
        assert other is not k4 and other == k4 and hash(other) == hash(k4)
        assert Graph(n=4, adj=k4.adj) == k4
        assert build_graph(4, [(0, 1)]) != k4

    def test_not_equal_to_its_fields_as_a_tuple(self, k4):
        assert k4 != (k4.n, k4.adj) and (k4.n, k4.adj) != k4
        assert len({k4, (k4.n, k4.adj)}) == 2

    def test_attributes_cannot_be_set_or_deleted(self, k4):
        with pytest.raises(AttributeError):
            k4.n = 5
        with pytest.raises(AttributeError):
            del k4.adj
        with pytest.raises(AttributeError):
            k4.label = "K4"
        assert k4.n == 4 and k4.m == 6

    def test_pickle_and_copy_rebuild_through_validation(self, k4, d8, monkeypatch):
        checked = []
        post_init = Graph.__post_init__

        def counting_post_init(g):
            checked.append(g.n)
            post_init(g)

        monkeypatch.setattr(Graph, "__post_init__", counting_post_init)
        for g in (k4, d8):
            assert pickle.loads(pickle.dumps(g)) == g
            assert copy.deepcopy(g) == g
        assert checked == [4, 4, 8, 8]

    def test_post_init_runs_once_per_construction(self, monkeypatch):
        calls = []
        monkeypatch.setattr(Graph, "__post_init__", lambda g: calls.append(g.n))
        Graph(3, ((1, 2), (0, 2), (0, 1)))
        parse_graph6("C~")
        assert calls == [3, 4]

    def test_repr_lists_the_edges(self, k4):
        assert repr(k4) == "Graph(n=4, edges=[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])"
        assert repr(Graph(0, ())) == "Graph(n=0, edges=[])"

    @pytest.mark.parametrize("n, adj, message", [
        (-1, (), "negative vertex count"),
        (2, ((1,),), "adjacency length 1 != n=2"),
        (2, ((5,), ()), "neighbor id 5 of vertex 0 out of range"),
        (1, ((0,),), "self-loop at vertex 0"),
        (3, ((2, 1), (0,), (0,)), "adjacency of 0 not strictly increasing"),
        (2, ((1,), ()), r"asymmetric edge \(0,1\)"),
    ])
    def test_malformed_graph_error_texts(self, n, adj, message):
        with pytest.raises(InvariantError, match=f"^{message}$"):
            Graph(n, adj)


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


def _parse_outcome(parse, text: str):
    try:
        return parse(text)
    except Graph6ParseError as exc:
        return str(exc), exc.offset


class TestGraph6AgainstPerBitOracle:
    # the per-bit codec in oracles.py is the one this codec replaced

    def test_seeded_random_graphs_up_to_70_vertices(self):
        rng = random.Random(19)
        for n in range(71):
            for _ in range(4):
                p = rng.choice((0.0, 0.05, 0.3, 0.7, 1.0))
                g = build_graph(n, [(u, w) for u in range(n) for w in range(u + 1, n)
                                    if rng.random() < p])
                text = emit_graph6(g)
                assert text == oracle_emit_graph6(g)
                assert text.startswith("~") == (n >= 63)
                assert parse_graph6(text) == oracle_parse_graph6(text) == g

    def test_1200_vertex_prism(self):
        g = make_prism(600)
        text = emit_graph6(g)
        assert text == oracle_emit_graph6(g)
        assert parse_graph6(text) == oracle_parse_graph6(text) == g

    @pytest.mark.parametrize("text", [
        "", "\n", ">>graph6<<", "C\x05", "C\xe9", ">>graph6<<C~\x7f", "~~", "~~??",
        "~", "~?", "~??", "~??C", "C", "D?", "I??", "C~~", "@?", "~??C~~",
        "AO", "A@", "B" + chr(63 + 1), "D?" + chr(63 + 0b000111), "~?@??",
    ])
    def test_malformed_input_same_error_and_offset(self, text):
        got = _parse_outcome(parse_graph6, text)
        assert isinstance(got, tuple)
        assert got == _parse_outcome(oracle_parse_graph6, text)

    def test_long_form_accepted_up_to_62_vertices(self):
        rng = random.Random(62)
        for n in range(63):
            g = random_graph(rng, n)
            text = emit_graph6(g)
            for spelling in (long_form(text), ">>graph6<<" + long_form(text)):
                assert parse_graph6(spelling) == oracle_parse_graph6(spelling) == g


class TestGraph6Lines:
    def test_each_line_paired_with_its_normal_form(self, monkeypatch, d8):
        import cubic_lab.graphs as graphs

        emitted = []
        monkeypatch.setattr(graphs, "emit_graph6", lambda g: emitted.append(g) or emit_graph6(g))
        big = make_prism(32)
        short, long_ = emit_graph6(d8), emit_graph6(big)
        text = "\n".join([short, "", ">>graph6<<" + short, long_form(short),
                          long_, ">>graph6<<" + long_, "  "]) + "\n"
        pairs = parse_graph6_lines(text)
        assert [g6 for g6, _ in pairs] == [short, short, short, long_, long_]
        assert [g for _, g in pairs] == [d8, d8, d8, big, big]
        # only the header lines and the long form below n = 63 are re-emitted
        assert emitted == [d8, d8, big]


class TestEdgeList:
    def test_round_trip(self, d8):
        assert parse_edgelist(emit_edgelist(d8)).adj == d8.adj

    def test_header_mismatch(self):
        with pytest.raises(InputError, match="declares"):
            parse_edgelist("2 3\n0 1\n")

    def test_repeated_pair_rejected(self):
        with pytest.raises(InputError, match="declares 2 edges but has 1 distinct"):
            parse_edgelist("4 2\n0 1\n1 0\n")
        with pytest.raises(InputError, match="declares 2 edges but has 1 distinct"):
            parse_edgelist("4 2\n0 1\n0 1\n")
        # library callers keep the collapsing rule
        assert build_graph(4, [(0, 1), (1, 0)]).m == 1


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


class TestEditGraph:
    def test_missing_edge_removed_rejected(self, path3):
        with pytest.raises(InputError, match=r"edge \(2,0\) not present"):
            edit_graph(path3, remove=[(2, 0)])

    def test_existing_edge_added_rejected(self, path3):
        with pytest.raises(InputError, match=r"edge \(0,1\) already present"):
            edit_graph(path3, add=[(1, 0)])

    def test_endpoint_out_of_range_rejected(self, path3):
        for pair in ((0, 3), (-1, 2)):
            with pytest.raises(InputError, match=r"has an endpoint outside \[0,3\)"):
                edit_graph(path3, add=[pair])
            with pytest.raises(InputError, match="not present"):
                edit_graph(path3, remove=[pair])

    def test_self_loop_rejected(self, path3):
        with pytest.raises(InputError, match=r"self-loop \(1,1\)"):
            edit_graph(path3, add=[(1, 1)])
        with pytest.raises(InputError, match=r"self-loop \(1,1\)"):
            edit_graph(path3, remove=[(1, 1)])

    def test_negative_new_vertices_rejected(self, path3):
        with pytest.raises(InputError, match="cannot add a negative number of vertices"):
            edit_graph(path3, new_vertices=-1)

    def test_remove_then_add_same_edge_is_identity(self, d8):
        assert edit_graph(d8, remove=[(1, 0)], add=[(0, 1)]) == d8

    def test_new_vertex_ids_usable_in_add(self, k4):
        g = edit_graph(k4, new_vertices=2, remove=[(0, 1)], add=[(0, 4), (4, 5), (5, 1)])
        assert g.n == 6 and g.m == 8
        assert g.adj[4] == (0, 5) and g.adj[5] == (1, 4)
        assert not g.has_edge(0, 1)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=1, max_value=12))
def test_edit_graph_matches_build_graph(seed, n):
    # editing equals rebuilding from the edited edge list
    rng = random.Random(seed)
    g = random_graph(rng, n)
    new = rng.randint(0, 3)
    present = list(g.edges())
    remove = rng.sample(present, rng.randint(0, len(present)))
    kept = set(present) - set(remove)
    absent = [
        Edge(u, w) for u in range(n + new) for w in range(u + 1, n + new)
        if Edge(u, w) not in kept
    ]
    add = rng.sample(absent, rng.randint(0, len(absent)))
    edited = edit_graph(
        g, new_vertices=new,
        remove=[(w, u) for u, w in remove], add=[(w, u) for u, w in add],
    )
    assert edited == build_graph(n + new, sorted(kept | set(add)))


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


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=0, max_value=14))
@example(seed=0, n=0)
@example(seed=0, n=1)
def test_is_connected_means_bfs_reaches_every_vertex(seed, n):
    rng = random.Random(seed)
    p = rng.choice((0.05, 0.15, 0.3, 0.6))
    g = build_graph(n, [(u, w) for u in range(n) for w in range(u + 1, n) if rng.random() < p])
    reached = n == 0 or all(d is not None for d in bfs_distances(g, 0).dist)
    assert is_connected(g) == reached
