import dataclasses
import re
from collections import Counter

import pytest

from cubic_lab.connectivity import component_of, find_bridges
from cubic_lab.construction import bridge_construct
from cubic_lab.errors import InputError, InvariantError
from cubic_lab.graphs import (
    build_graph,
    edge,
    induced_subgraph,
    is_cubic,
    parse_graph6,
)
from cubic_lab.reduction import (
    AdjacentTriangles,
    CompleteTree,
    HorizontalEdge,
    IsolatedTriangle,
    OUTCOME_COMPLETE_TREE,
    _deepened,
    _refusal,
    build_reducible_state,
    classify_region,
    int_fifth_root,
    make_reducible_state,
    nearest_region,
    nearest_vertices,
    reduce_case,
    reduce_from_state,
    reduce_step,
    reduce_to_n,
)
from cubic_lab.symmetry import are_isomorphic, distinct_cycle_edges


def half_k4(offset: int) -> list:
    """Edges of a K4 with one subdivided edge; vertex offset+4 is the
    degree-2 subdivision point."""
    o = offset
    return [(o, o + 1), (o, o + 2), (o, o + 3), (o + 1, o + 2), (o + 1, o + 3),
            (o + 2, o + 4), (o + 3, o + 4)]


def triangle_tower():
    """14-vertex cubic bridge graph: a dumbbell half bridged to a side that
    stacks two side-by-side triangles under the root.

    side layers from the root 5: 6,7 at depth 1; 8,9,10,11 at depth 2;
    12,13 at depth 3; triangles {6,8,9} and {7,10,11}.
    """
    edges = half_k4(0) + [(4, 5)]
    edges += [(5, 6), (5, 7)]
    edges += [(6, 8), (6, 9), (8, 9), (8, 12), (9, 13)]
    edges += [(7, 10), (7, 11), (10, 11), (10, 12), (11, 13)]
    edges += [(12, 13)]
    g = build_graph(14, edges)
    side = frozenset(range(5, 14))
    return g, 5, side, edge(4, 5)


def diamond_stalk():
    """14-vertex cubic bridge graph whose side hangs a diamond with two
    distinct outside neighbors below the root."""
    edges = half_k4(0) + [(4, 5)]
    edges += [(5, 6), (5, 7)]                      # root 5; p1=6, p2=7
    edges += [(6, 8), (6, 9), (8, 9), (8, 10), (9, 10)]  # diamond {6,8,9,10}
    edges += [(10, 11)]                            # lower tip exits to 11
    edges += [(11, 12), (11, 13), (12, 13), (12, 7), (13, 7)]
    g = build_graph(14, edges)
    side = frozenset(range(5, 14))
    return g, 5, side, edge(4, 5)


def triangle_ladder():
    """12-vertex cubic bridge graph: the root 5 over triangles {6,8,9} and
    {7,10,11}, whose far corners are joined by the depth-2 rungs (8,10)
    and (9,11)."""
    edges = half_k4(0) + [(4, 5)]
    edges += [(5, 6), (5, 7), (6, 8), (6, 9), (8, 9), (7, 10), (7, 11), (10, 11)]
    edges += [(8, 10), (9, 11)]
    g = build_graph(12, edges)
    return g, 5, frozenset(range(5, 12)), edge(4, 5)


def state(builder, k=None):
    g, root, side, bridge = builder()
    return make_reducible_state(g, root, side, bridge, side_cycle_orbits=k)


def dumbbell_state(dumbbell):
    return make_reducible_state(dumbbell, 4, frozenset(range(5)), edge(4, 9))


def assert_refused(st, case, reason):
    """``_refusal`` names the reason, and ``reduce_case`` treats the case as
    a classifier bug."""
    assert reason in _refusal(st, case)
    with pytest.raises(InvariantError, match=re.escape(reason)):
        reduce_case(st, case)


def ladder_dumbbell():
    """Two 13-rung circular ladders, each with one rim edge subdivided, and
    a bridge (26, 53) joining the subdivision vertices: 54 vertices, and
    each side has 27, past the canonical cap."""
    edges = [(26, 53)]
    for offset in (0, 27):
        for i in range(13):
            j = (i + 1) % 13
            edges += [(offset + i, offset + 13 + i), (offset + 13 + i, offset + 13 + j)]
            if i:
                edges.append((offset + i, offset + j))
        edges += [(offset, offset + 26), (offset + 26, offset + 1)]
    return build_graph(54, edges)


class TestFifthRoot:
    def test_values(self):
        assert int_fifth_root(1) == 1
        assert int_fifth_root(31) == 1
        assert int_fifth_root(32) == 2
        assert int_fifth_root(242) == 2
        assert int_fifth_root(243) == 3
        assert int_fifth_root(1024) == 4

    def test_negative(self):
        with pytest.raises(InputError):
            int_fifth_root(-1)


class TestNearestRegion:
    @pytest.mark.parametrize("k, region", [
        pytest.param(32, {4}, id="k32"),
        pytest.param(242, {4}, id="k242"),
        pytest.param(243, {4}, id="k243"),
        pytest.param(1023, {4}, id="k1023"),
        pytest.param(1024, {2, 3, 4}, id="k1024"),
    ])
    def test_region_by_k(self, dumbbell, k, region):
        # for 32 <= k < 1024, floor(k ** (1/5)) is 2 or 3: the root 4 and
        # its depth-1 neighbors 2, 3, whose layer is dropped; at k = 1024
        # it is 4, and the depth-2 layer is dropped instead
        st = make_reducible_state(
            dumbbell, 4, frozenset(range(5)), edge(4, 9), side_cycle_orbits=k
        )
        assert nearest_region(st) == frozenset(region)

    def test_k1_underflows(self, dumbbell):
        st = make_reducible_state(
            dumbbell, 4, frozenset(range(5)), edge(4, 9), side_cycle_orbits=1
        )
        with pytest.raises(InputError, match="region underflow"):
            nearest_region(st)

    def test_selection_capped_by_side(self, dumbbell):
        st = make_reducible_state(
            dumbbell, 4, frozenset(range(5)), edge(4, 9),
            side_cycle_orbits=32 ** 5,  # would select 32 vertices
        )
        with pytest.raises(InputError, match="side has"):
            nearest_region(st)

    def test_supplied_k_needs_no_orbits(self):
        g = ladder_dumbbell()
        assert is_cubic(g) and find_bridges(g) == (edge(26, 53),)
        side = frozenset(range(27))
        st = make_reducible_state(g, 26, side, edge(26, 53), side_cycle_orbits=1024)
        assert st.side_cycle_orbits == 1024
        assert nearest_region(st) == frozenset({0, 1, 26})
        with pytest.raises(InputError, match="at most 24"):
            make_reducible_state(g, 26, side, edge(26, 53))

    def test_d8_state_computes_real_orbit_count(self, d8):
        rec = bridge_construct(d8)
        st = build_reducible_state(rec, edge(1, 2))
        assert st.side_cycle_orbits == 4
        with pytest.raises(InputError, match="region underflow"):
            nearest_region(st)


class TestNearestVertices:
    # distances from a root at vertex 3; None marks a vertex off the side
    DIST = [2, 1, 1, 0, 2, None, 2, 3]
    SIDE = [0, 1, 2, 3, 4, 6, 7]

    def test_ties_break_by_id_and_deepest_layer_drops(self):
        # order by (distance, id): 3, 1, 2, 0, 4, 6, 7
        assert nearest_vertices(self.SIDE, self.DIST, 4) == frozenset({3, 1, 2})
        assert nearest_vertices(self.SIDE, self.DIST, 5) == frozenset({3, 1, 2})
        assert nearest_vertices(self.SIDE, self.DIST, 2) == frozenset({3})
        assert nearest_vertices(self.SIDE, self.DIST, 1) == frozenset()

    def test_tie_break_inside_a_layer_cannot_change_the_result(self):
        # the cut falls inside the deepest chosen layer, which drops whole,
        # so the result is every vertex shallower than the m-th nearest
        depths = sorted(self.DIST[v] for v in self.SIDE)
        for m in range(1, len(self.SIDE) + 1):
            shallower = {v for v in self.SIDE if self.DIST[v] < depths[m - 1]}
            assert nearest_vertices(self.SIDE, self.DIST, m) == shallower

    def test_capped_side_takes_every_vertex(self):
        # m beyond the side: all seven are chosen, the depth-3 vertex drops
        assert nearest_vertices(self.SIDE, self.DIST, 32) == frozenset({0, 1, 2, 3, 4, 6})

    def test_order_of_input_does_not_matter(self):
        assert nearest_vertices(reversed(self.SIDE), self.DIST, 4) == frozenset({3, 1, 2})

    def test_matches_nearest_region(self, dumbbell):
        st = make_reducible_state(
            dumbbell, 4, frozenset(range(5)), edge(4, 9), side_cycle_orbits=3 ** 5
        )
        assert nearest_region(st) == nearest_vertices(st.side, st.profile.dist, 3)


class TestClassifyRegion:
    def test_isolated_triangle(self):
        case = classify_region(state(triangle_tower), frozenset({5, 6, 7, 8, 9, 10, 11}))
        assert case == IsolatedTriangle((6, 8, 9))

    def test_adjacent_triangles(self):
        # both triangles {6,8,9} and {8,9,10} have two corners exiting to
        # one vertex, so they fall through to the diamond they form
        case = classify_region(state(diamond_stalk), frozenset({6, 8, 9, 10}))
        assert case == AdjacentTriangles((6, 8, 9, 10))

    def test_horizontal_edge(self):
        # (8,9) shares neighbor 6 and (8,12), (9,13) span two depths, so
        # the first edge that applies is (12,13) at depth 3
        case = classify_region(state(triangle_tower), frozenset({8, 9, 12, 13}))
        assert case == HorizontalEdge(edge(12, 13))

    def test_complete_tree(self):
        case = classify_region(state(triangle_tower), frozenset({5, 6, 7}))
        assert case == CompleteTree()

    def test_empty_region_rejected(self, dumbbell):
        with pytest.raises(InputError, match="empty region"):
            classify_region(dumbbell_state(dumbbell), frozenset())

    def test_cyclic_region_without_triangle_or_level_edge_rejected(self):
        # root 2 has depth-1 neighbours 0 and 1, and both are adjacent to
        # 4 and 5 at depth 2: the region induces K_{2,3}, 6 edges on 5
        # vertices, so it is no tree
        g6 = "MXr?GOOC?E?X?K?K_"
        g = parse_graph6(g6)
        bridge = edge(2, 3)
        side = component_of(g, 2, {bridge})
        st = make_reducible_state(g, 2, side, bridge, side_cycle_orbits=6 ** 5)
        region = nearest_region(st)
        assert region == frozenset({0, 1, 2, 4, 5})
        assert induced_subgraph(g, region)[0].m == 6
        with pytest.raises(InputError, match=r"region \[0, 1, 2, 4, 5\] of MXr\?GOOC"):
            classify_region(st, region)
        with pytest.raises(InputError, match="admits no reduction case and is not a complete tree"):
            reduce_step(st)

    def test_region_without_the_root_rejected(self, dumbbell):
        # no triangle, no edge, but a complete tree only counts when it
        # hangs from the state's root 4
        with pytest.raises(InputError, match="not a complete tree rooted at 4"):
            classify_region(dumbbell_state(dumbbell), frozenset({3}))


class TestContractTriangle:
    def test_prism_becomes_k4(self, dumbbell):
        # the side is a prism with its rung 8-11 subdivided by the root 5;
        # contracting the triangle {6,7,8} leaves a K4 with one subdivided
        # edge, so the whole graph becomes the dumbbell
        edges = half_k4(0) + [(4, 5), (5, 8), (5, 11)]
        edges += [(6, 7), (6, 8), (7, 8), (9, 10), (9, 11), (10, 11), (6, 9), (7, 10)]
        g = build_graph(12, edges)
        st = make_reducible_state(g, 5, frozenset(range(5, 12)), edge(4, 5))
        nxt = reduce_case(st, IsolatedTriangle((6, 7, 8)))
        assert nxt.graph.n == 10 and is_cubic(nxt.graph)
        assert are_isomorphic(nxt.graph, dumbbell)
        # survivors keep their order (9, 10, 11 become 6, 7, 8) and the hub
        # 9 joins the three exits: the root 5 and the old 9, 10
        hub = 9
        assert sorted(nxt.graph.adj[hub]) == [5, 6, 7]
        assert hub in nxt.side

    def test_dumbbell_triangle_rejected(self, dumbbell):
        # {0,1,2} sits in a diamond: 0 and 1 both exit to vertex 3
        assert_refused(
            dumbbell_state(dumbbell), IsolatedTriangle((0, 1, 2)),
            "outside edges that share an end",
        )

    def test_not_a_triangle(self):
        # 6-8 and 8-12 are edges, 6-12 is not
        assert_refused(
            state(triangle_tower), IsolatedTriangle((6, 8, 12)),
            "is not a triangle",
        )


class TestSpliceAdjacentTriangles:
    def test_dumbbell_diamond_shared_exit_rejected(self, dumbbell):
        # both tips 2 and 3 exit to the root 4, whose third edge is the bridge
        assert_refused(
            dumbbell_state(dumbbell), AdjacentTriangles((0, 1, 2, 3)),
            "outside edges that share an end",
        )

    def test_valid_diamond_shrinks_by_two(self):
        nxt = reduce_case(state(diamond_stalk), AdjacentTriangles((6, 8, 9, 10)))
        out = nxt.graph
        assert out.n == 12 and is_cubic(out)
        assert find_bridges(out)  # still a bridge graph
        # the ten survivors keep ids 0-9; the patch is 10, the second 11
        patch, second = 10, 11
        assert out.has_edge(patch, second)
        assert out.degree(second) == 3
        assert {patch, second} <= nxt.side

    def test_not_a_diamond(self):
        # {6,8,9,12} induces the triangle {6,8,9} and the edge 8-12: 4 edges
        assert_refused(
            state(triangle_tower), AdjacentTriangles((6, 8, 9, 12)),
            "is not a diamond",
        )


class TestExciseHorizontalPair:
    def test_figure_pattern(self):
        # 8-12-10 | 9-13-11 with the depth-3 rung 12-13 removed: 12 and 13
        # vanish (the survivors keep their ids), 8 joins 10 and 9 joins 11,
        # never across, and the tower becomes the triangle ladder
        nxt = reduce_case(state(triangle_tower), HorizontalEdge(edge(12, 13)))
        out = nxt.graph
        assert out.n == 12
        assert out.has_edge(8, 10) and out.has_edge(9, 11)
        assert not out.has_edge(8, 11) and not out.has_edge(9, 10)
        assert are_isomorphic(out, triangle_ladder()[0])

    def test_shared_neighbor_rejected(self):
        # 8 and 9 are both adjacent to 6: excising them would double 6-12
        assert_refused(
            state(triangle_tower), HorizontalEdge(edge(8, 9)),
            "share neighbor(s) [6]",
        )

    def test_adjacent_companions_rejected(self):
        # 8 and 10 share depth 2 and no neighbor, but 8's other neighbors
        # 6 and 9 are already adjacent: rejoining them would double 6-9
        assert_refused(
            state(triangle_ladder), HorizontalEdge(edge(8, 10)),
            "other neighbors [6, 9] are already adjacent",
        )


class TestStateReductions:
    def test_isolated_triangle_step(self):
        st = state(triangle_tower, 8 ** 5)
        region = nearest_region(st)
        assert region == frozenset({5, 6, 7, 8, 9, 10, 11})
        case = classify_region(st, region)
        assert case == IsolatedTriangle((6, 8, 9))
        nxt = reduce_case(st, case)
        assert nxt.graph.n == 12 and is_cubic(nxt.graph)

    def test_adjacent_triangles_step(self):
        g, root, side, bridge = diamond_stalk()
        st = make_reducible_state(g, root, side, bridge)
        case = AdjacentTriangles((6, 8, 9, 10))
        nxt = reduce_case(st, case)
        assert nxt.graph.n == 12 and is_cubic(nxt.graph)
        assert find_bridges(nxt.graph)

    def test_horizontal_edge_step(self):
        g, root, side, bridge = triangle_tower()
        st = make_reducible_state(g, root, side, bridge)
        # 12 and 13 share depth 3, no common neighbor, companions apart
        nxt = reduce_case(st, HorizontalEdge(edge(12, 13)))
        assert nxt.graph.n == 12 and is_cubic(nxt.graph)

    def test_reduce_step_reaches_adjacent_triangles(self):
        # a 16-vertex bridge graph whose triangles {4,5,10} and {4,5,11}
        # each send two corners to one vertex: the diamond is the first
        # case that applies
        g = parse_graph6("OkQ?___G?W@`?K?K_W?E@")
        bridge = edge(0, 3)
        side = component_of(g, 0, {bridge})
        st = make_reducible_state(g, 0, side, bridge, side_cycle_orbits=8 ** 5)
        nxt, case, _ = reduce_step(st)
        assert case == AdjacentTriangles((4, 5, 10, 11))
        assert nxt.graph.n == 14 and is_cubic(nxt.graph)
        assert find_bridges(nxt.graph)

    def test_horizontal_depth_mismatch_rejected(self):
        assert_refused(
            state(triangle_tower), HorizontalEdge(edge(5, 6)),
            "joins depths 0 and 1",
        )

    def test_complete_tree_rejected(self):
        with pytest.raises(InvariantError, match="admits no two-vertex removal"):
            reduce_case(state(triangle_tower), CompleteTree())

    def test_off_side_feature_rejected(self):
        assert_refused(
            state(triangle_tower), IsolatedTriangle((0, 1, 2)),
            "does not lie on the working side",
        )


class TestDeepened:
    """``_deepened`` reads new-id distances through the survivor remap."""

    def setup_method(self):
        # vertex 6 is removed; every later survivor moves down one id
        self.st = state(triangle_tower)
        self.remap = {v: v - (v > 6) for v in range(14) if v != 6}
        self.dist = [self.st.profile.dist[v] for v in sorted(self.remap)]

    def test_same_distances(self):
        assert _deepened(self.st, self.remap, self.dist) is None

    def test_closer_survivor(self):
        self.dist[self.remap[12]] = 1
        assert _deepened(self.st, self.remap, self.dist) is None

    def test_farther_survivor(self):
        self.dist[self.remap[12]] += 1
        assert _deepened(self.st, self.remap, self.dist) == 12

    def test_unreachable_survivor(self):
        self.dist[self.remap[8]] = None
        assert _deepened(self.st, self.remap, self.dist) == 8

    def test_removed_and_off_side_vertices_are_ignored(self):
        # 0 lies off the side, and 12 leaves the remap as if removed:
        # neither is a surviving side vertex, whatever its distance
        self.dist[self.remap[0]] = 99
        self.dist[self.remap.pop(12)] = 99
        assert _deepened(self.st, self.remap, self.dist) is None


class TestPipeline:
    def test_two_steps_from_synthetic_state(self):
        # first pass contracts a triangle; the shrunken side then yields a
        # complete-tree region, exercising the report path
        g, root, side, bridge = triangle_tower()
        st = make_reducible_state(g, root, side, bridge, side_cycle_orbits=8 ** 5)
        nxt, case, region = reduce_step(st)
        assert isinstance(case, IsolatedTriangle)
        assert nxt is not None and nxt.graph.n == 12
        boosted = dataclasses.replace(nxt, side_cycle_orbits=6 ** 5)
        outcome = reduce_from_state(boosted, 10)
        assert outcome.kind == OUTCOME_COMPLETE_TREE
        assert outcome.complete_tree is not None
        assert outcome.complete_tree.tree_size == len(outcome.complete_tree.region)
        # the step names come from the case types
        assert (case.name, *outcome.steps) == ("isolated-triangle", "complete-tree")
        payload = outcome.to_dict()
        assert payload["kind"] == "complete-tree"
        assert payload["complete_tree"]["cycle_orbits"] == 6 ** 5

    def test_reduce_to_n_underflows_at_desk_scale(self, d8):
        # every side within the enumeration bound has far fewer than 32
        # distinct cycle edges, so the selection guard always fires here
        rec = bridge_construct(d8)
        with pytest.raises(InputError, match="region underflow"):
            reduce_to_n(rec, edge(1, 2))

    def test_underflow_is_universal_on_small_corpus(self):
        from cubic_lab.census import enumerate_cubic
        from cubic_lab.connectivity import classify_connectivity
        from cubic_lab.construction import insertion_family

        hits = 0
        for n in (4, 6, 8):
            for g in enumerate_cubic(n):
                if not classify_connectivity(g).is_biconnected:
                    continue
                rec = bridge_construct(g)
                for member in insertion_family(rec).members:
                    if member.kind != "insert":
                        continue
                    with pytest.raises(InputError, match="region underflow"):
                        reduce_to_n(rec, member.chosen_edge)
                    hits += 1
        assert hits >= 1

    def test_distance_monotonicity_holds_and_can_shrink(self):
        g, root, side, bridge = triangle_tower()
        st = make_reducible_state(g, root, side, bridge)
        nxt = reduce_case(st, IsolatedTriangle((6, 8, 9)))
        assert nxt.graph.n == g.n - 2
        # the reducer raises InvariantError on any distance increase; spot
        # check a vertex that actually got closer: 12 sat at depth 3 and is
        # now adjacent to the depth-1 hub (survivors keep id order, so old
        # vertex 12 is the second-to-last pre-hub id)
        old_depth = st.profile.dist[12]
        new_id_of_12 = sorted(v for v in range(g.n) if v not in (6, 8, 9)).index(12)
        assert nxt.profile.dist[new_id_of_12] < old_depth


class TestBridgeSideSweep:
    """``reduce_step`` on every bridge graph with 10 <= n <= 14, at every
    bridge, from each endpoint as root, with k = m**5 for 4 <= m <= |side|.
    These states take k by hand: the real orbit counts of their sides are
    all below 32, where every region underflows.

    No state ends in a refused proposal: each reduces, is a complete tree,
    or admits no case. Four states reduce by a horizontal edge where the
    classifier once proposed a triangle the surgery refused: the n = 14
    graph M`UYC?_G?E?X?K?K_ at bridge (2,3), root 3, m = 6 to 9. Its only
    triangle in the region, {3,4,5}, passes through the root, so the
    classifier falls through to the depth-2 edge (0,1)."""

    def test_outcome_counts(self):
        from cubic_lab.census import enumerate_cubic

        outcomes = Counter()
        for n in (10, 12, 14):
            for g in enumerate_cubic(n):
                for br in find_bridges(g):
                    for root in br:
                        side = component_of(g, root, {br})
                        assert distinct_cycle_edges(induced_subgraph(g, side)[0]) < 32
                        for m in range(4, len(side) + 1):
                            st = make_reducible_state(
                                g, root, side, br, side_cycle_orbits=m ** 5
                            )
                            try:
                                nxt, case, _ = reduce_step(st)
                            except InputError as exc:
                                assert "admits no reduction case" in str(exc)
                                outcomes["no-case"] += 1
                                continue
                            if nxt is None:
                                assert case == CompleteTree()
                                outcomes["complete-tree"] += 1
                            else:
                                assert nxt.graph.n == n - 2
                                outcomes[type(case).__name__] += 1
        assert outcomes == {
            "IsolatedTriangle": 9,
            "HorizontalEdge": 15,
            "complete-tree": 168,
            "no-case": 76,
        }
        assert sum(outcomes.values()) == 268
