import dataclasses
from collections import Counter

import pytest

from cubic_lab.connectivity import component_of, find_bridges
from cubic_lab.construction import bridge_construct
from cubic_lab.errors import InputError
from cubic_lab.graphs import (
    bfs_distances,
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
    build_reducible_state,
    classify_region,
    contract_triangle,
    excise_horizontal_pair,
    finish_diamond_splice,
    int_fifth_root,
    make_reducible_state,
    nearest_region,
    nearest_vertices,
    reduce_adjacent_triangles,
    reduce_from_state,
    reduce_horizontal_edge,
    reduce_isolated_triangle,
    reduce_step,
    reduce_to_n,
    stage_diamond_removal,
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
        g, root, side, _ = triangle_tower()
        profile = bfs_distances(g, root, within=side)
        case = classify_region(g, frozenset({5, 6, 7, 8, 9, 10, 11}), profile)
        assert case == IsolatedTriangle((6, 8, 9))

    def test_adjacent_triangles(self):
        g, root, side, _ = diamond_stalk()
        profile = bfs_distances(g, root, within=side)
        case = classify_region(g, frozenset({6, 8, 9, 10}), profile)
        assert case == AdjacentTriangles((6, 8, 9, 10))

    def test_horizontal_edge(self):
        g, root, side, _ = triangle_tower()
        profile = bfs_distances(g, root, within=side)
        # 8 and 9 share depth 2 and are adjacent; the two-vertex region has
        # no triangle
        case = classify_region(g, frozenset({8, 9}), profile)
        assert case == HorizontalEdge(edge(8, 9))

    def test_complete_tree(self):
        g, root, side, _ = triangle_tower()
        profile = bfs_distances(g, root, within=side)
        case = classify_region(g, frozenset({5, 6, 7}), profile)
        assert case == CompleteTree()

    def test_empty_region_rejected(self, d8):
        profile = bfs_distances(d8, 0)
        with pytest.raises(InputError):
            classify_region(d8, frozenset(), profile)

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
            classify_region(g, region, st.profile)
        with pytest.raises(InputError, match="not a complete tree"):
            reduce_step(st)

    def test_region_without_the_root_rejected(self, d8):
        # no triangle, no level edge, but a complete tree only counts when
        # it hangs from the profile's root
        profile = bfs_distances(d8, 0)
        with pytest.raises(InputError, match="not a complete tree"):
            classify_region(d8, frozenset({3}), profile)


class TestContractTriangle:
    def test_prism_becomes_k4(self, prism, k4):
        out, remap, hub = contract_triangle(prism, (0, 1, 2))
        assert out.n == 4 and is_cubic(out)
        assert are_isomorphic(out, k4)
        assert hub == 3 and remap == {3: 0, 4: 1, 5: 2}

    def test_k4_shared_externals_rejected(self, k4):
        with pytest.raises(InputError, match="shares an outside neighbor"):
            contract_triangle(k4, (0, 1, 2))

    def test_dumbbell_triangle_rejected(self, dumbbell):
        # {0,1,2} sits in a diamond: 0 and 1 both exit to vertex 3
        with pytest.raises(InputError, match="shares an outside neighbor"):
            contract_triangle(dumbbell, (0, 1, 2))

    def test_not_a_triangle(self, prism):
        with pytest.raises(InputError, match="triangle"):
            contract_triangle(prism, (0, 1, 3))


class TestSpliceAdjacentTriangles:
    def test_dumbbell_diamond_shared_exit_rejected(self, dumbbell):
        with pytest.raises(InputError, match="bridge"):
            stage_diamond_removal(
                dumbbell, (0, 1, 2, 3), keep_within=frozenset(range(dumbbell.n))
            )

    def test_valid_diamond_shrinks_by_two(self):
        g, root, side, bridge = diamond_stalk()
        staged, remap, patch, second, pool = stage_diamond_removal(
            g, (6, 8, 9, 10), keep_within=side
        )
        out = finish_diamond_splice(staged, second, pool[0])
        assert out.n == 12 and is_cubic(out)
        assert find_bridges(out)  # still a bridge graph
        assert out.has_edge(patch, second)
        assert out.degree(second) == 3

    def test_not_a_diamond(self, k4):
        with pytest.raises(InputError, match="diamond"):
            # induces 6 edges
            stage_diamond_removal(k4, (0, 1, 2, 3), keep_within=frozenset(range(4)))


class TestExciseHorizontalPair:
    def test_figure_pattern(self):
        # far1-mid1-close1 | far2-mid2-close2 with the mid rung removed:
        # mids vanish, far1 joins close1 and far2 joins close2
        g = build_graph(8, [(0, 1), (1, 2), (3, 4), (4, 5), (1, 4),
                            (0, 6), (2, 6), (3, 7), (5, 7), (6, 7)])
        out, remap = excise_horizontal_pair(g, edge(1, 4))
        assert out.n == 6
        assert out.has_edge(remap[0], remap[2])
        assert out.has_edge(remap[3], remap[5])
        assert not out.has_edge(remap[0], remap[3])

    def test_shared_neighbor_rejected(self):
        g, root, side, _ = triangle_tower()
        # 8 and 9 are both adjacent to 6: a triangle, hence a misroute
        with pytest.raises(InputError, match="share neighbor"):
            excise_horizontal_pair(g, edge(8, 9))

    def test_adjacent_companions_rejected(self):
        # u's other two neighbors already joined: rejoining would double it
        g = build_graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (3, 5), (4, 5), (1, 4), (2, 5)])
        with pytest.raises(InputError, match="already adjacent"):
            excise_horizontal_pair(g, edge(0, 3))


class TestStateReductions:
    def test_isolated_triangle_step(self):
        g, root, side, bridge = triangle_tower()
        st = make_reducible_state(g, root, side, bridge, side_cycle_orbits=8 ** 5)
        region = nearest_region(st)
        assert region == frozenset({5, 6, 7, 8, 9, 10, 11})
        case = classify_region(g, region, st.profile)
        assert case == IsolatedTriangle((6, 8, 9))
        nxt = reduce_isolated_triangle(st, case)
        assert nxt.graph.n == 12 and is_cubic(nxt.graph)

    def test_adjacent_triangles_step(self):
        g, root, side, bridge = diamond_stalk()
        st = make_reducible_state(g, root, side, bridge)
        case = AdjacentTriangles((6, 8, 9, 10))
        nxt = reduce_adjacent_triangles(st, case)
        assert nxt.graph.n == 12 and is_cubic(nxt.graph)
        assert find_bridges(nxt.graph)

    def test_horizontal_edge_step(self):
        g, root, side, bridge = triangle_tower()
        st = make_reducible_state(g, root, side, bridge)
        # 12 and 13 share depth 3, no common neighbor, companions apart
        nxt = reduce_horizontal_edge(st, HorizontalEdge(edge(12, 13)))
        assert nxt.graph.n == 12 and is_cubic(nxt.graph)

    def test_horizontal_depth_mismatch_rejected(self):
        g, root, side, bridge = triangle_tower()
        st = make_reducible_state(g, root, side, bridge)
        with pytest.raises(InputError, match="equal distance"):
            reduce_horizontal_edge(st, HorizontalEdge(edge(5, 6)))

    def test_off_side_feature_rejected(self):
        g, root, side, bridge = triangle_tower()
        st = make_reducible_state(g, root, side, bridge)
        with pytest.raises(InputError, match="side"):
            reduce_isolated_triangle(st, IsolatedTriangle((0, 1, 2)))


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
        nxt = reduce_isolated_triangle(st, IsolatedTriangle((6, 8, 9)))
        assert nxt.graph.n == g.n - 2
        # the reducer raises InvariantError on any distance increase; spot
        # check a vertex that actually got closer: 12 sat at depth 3 and is
        # now adjacent to the depth-1 hub (survivors keep id order, so old
        # vertex 12 is the second-to-last pre-hub id)
        old_depth = st.profile.dist[12]
        new_id_of_12 = sorted(v for v in range(g.n) if v not in (6, 8, 9)).index(12)
        assert nxt.profile.dist[new_id_of_12] < old_depth


_SWEEP_REFUSALS = (
    "refusing to contract a triangle through the root",
    "refusing to excise a diamond through the root",
    "share neighbor",
    "shares an outside neighbor",
    "not a complete tree",
)


class TestBridgeSideSweep:
    """``reduce_step`` on every bridge graph with 10 <= n <= 14, at every
    bridge, from each endpoint as root, with k = m**5 for 4 <= m <= |side|.
    These states take k by hand: the real orbit counts of their sides are
    all below 32, where every region underflows."""

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
                                refusal = next(
                                    (r for r in _SWEEP_REFUSALS if r in str(exc)), str(exc)
                                )
                                outcomes[refusal] += 1
                                continue
                            if nxt is None:
                                assert case == CompleteTree()
                                outcomes["complete-tree"] += 1
                            else:
                                assert nxt.graph.n == n - 2
                                outcomes[type(case).__name__] += 1
        assert outcomes == {
            "IsolatedTriangle": 9,
            "HorizontalEdge": 11,
            "complete-tree": 168,
            "refusing to contract a triangle through the root": 50,
            "refusing to excise a diamond through the root": 10,
            "share neighbor": 8,
            "shares an outside neighbor": 2,
            "not a complete tree": 10,
        }
        assert sum(outcomes.values()) == 268
