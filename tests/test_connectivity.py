import random

import pytest

from cubic_lab.census import enumerate_cubic
from cubic_lab.connectivity import (
    classify_connectivity,
    find_bridges,
    most_balanced_bibridge,
    two_edge_cuts,
)
from cubic_lab.errors import InputError
from cubic_lab.graphs import build_graph, edge, is_connected, relabel

from oracles import (
    oracle_bridges,
    oracle_cut_sides,
    oracle_two_edge_cuts,
    oracle_vertex_connectivity_at_least_3,
)


class TestFindBridges:
    def test_triangle_has_none(self, triangle):
        assert find_bridges(triangle) == ()

    def test_path_edges_are_bridges(self, path3):
        assert find_bridges(path3) == (edge(0, 1), edge(1, 2))

    def test_dumbbell_joining_edge_only(self, dumbbell):
        # oracle: delete each of the 15 edges, test connectivity
        assert oracle_bridges(dumbbell) == {edge(4, 9)}
        assert find_bridges(dumbbell) == (edge(4, 9),)

    def test_disconnected_rejected(self):
        with pytest.raises(InputError):
            find_bridges(build_graph(4, [(0, 1), (2, 3)]))

    def test_matches_oracle_on_fixtures(self, k4, d8, prism, petersen, diamond_ring):
        for g in (k4, d8, prism, petersen, diamond_ring):
            assert set(find_bridges(g)) == oracle_bridges(g)


class TestTwoEdgeCuts:
    def test_k4_none(self, k4):
        assert two_edge_cuts(k4) == ()
        assert oracle_two_edge_cuts(k4) == set()

    def test_prism_none(self, prism):
        assert two_edge_cuts(prism) == ()
        assert oracle_two_edge_cuts(prism) == set()

    def test_d8_unique_cut(self, d8):
        cuts = two_edge_cuts(d8)
        assert len(cuts) == 1
        bb = cuts[0]
        assert (bb.e1, bb.e2) == (edge(0, 4), edge(3, 7))
        assert bb.side_a == frozenset({0, 1, 2, 3})
        assert bb.side_b == frozenset({4, 5, 6, 7})
        assert bb.balance == 0
        assert oracle_two_edge_cuts(d8) == {(bb.e1, bb.e2)}

    def test_matches_oracle(self, d8, k33, petersen, diamond_ring):
        for g in (d8, k33, petersen, diamond_ring):
            got = {(bb.e1, bb.e2) for bb in two_edge_cuts(g)}
            assert got == oracle_two_edge_cuts(g)

    def test_bridge_input_rejected(self, dumbbell):
        with pytest.raises(InputError, match="bridgeless"):
            two_edge_cuts(dumbbell)

    def test_removing_either_cut_edge_makes_other_a_bridge(self, d8, diamond_ring):
        from cubic_lab.graphs import edit_graph

        for g in (d8, diamond_ring):
            for bb in two_edge_cuts(g):
                assert bb.e2 in find_bridges(edit_graph(g, remove=[bb.e1]))
                assert bb.e1 in find_bridges(edit_graph(g, remove=[bb.e2]))

    def test_cut_edges_span_sides(self, d8, diamond_ring):
        for g in (d8, diamond_ring):
            for bb in two_edge_cuts(g):
                for e in (bb.e1, bb.e2):
                    assert (e.u in bb.side_a) != (e.v in bb.side_a)


class TestClassify:
    def test_dumbbell_is_bridge_graph(self, dumbbell):
        cls = classify_connectivity(dumbbell)
        assert cls.is_bridge_graph and cls.bridge_count == 1
        assert cls.label == "bridge"

    def test_d8_is_biconnected(self, d8):
        assert classify_connectivity(d8).label == "biconnected"

    def test_petersen_three_connected(self, petersen):
        assert classify_connectivity(petersen).label == "three-connected"

    def test_k4_three_connected(self, k4):
        assert classify_connectivity(k4).label == "three-connected"

    def test_non_cubic_rejected(self, diamond):
        with pytest.raises(InputError):
            classify_connectivity(diamond)

    def test_exactly_one_flag(self, k4, d8, dumbbell, petersen, prism, k33):
        for g in (k4, d8, dumbbell, petersen, prism, k33):
            cls = classify_connectivity(g)
            assert [cls.is_bridge_graph, cls.is_biconnected, cls.is_three_connected].count(True) == 1

    def test_three_connected_matches_vertex_cut_oracle_small(self):
        from cubic_lab.census import enumerate_cubic

        for n in (4, 6, 8, 10):
            for g in enumerate_cubic(n):
                cls = classify_connectivity(g)
                assert cls.is_three_connected == oracle_vertex_connectivity_at_least_3(g)


class TestMostBalanced:
    def test_d8(self, d8):
        bb = most_balanced_bibridge(d8)
        assert (bb.e1, bb.e2) == (edge(0, 4), edge(3, 7)) and bb.balance == 0

    def test_k4_errors(self, k4):
        with pytest.raises(InputError, match="three-connected"):
            most_balanced_bibridge(k4)

    def test_diamond_ring_balance_four_lex_least(self, diamond_ring):
        # all three cuts split 4 | 8; enumerate and compare by hand
        cuts = two_edge_cuts(diamond_ring)
        assert {bb.balance for bb in cuts} == {4}
        assert len(cuts) == 3
        bb = most_balanced_bibridge(diamond_ring)
        assert (bb.e1, bb.e2) == min((c.e1, c.e2) for c in cuts)


@pytest.fixture(scope="module")
def sweep():
    """Every connected cubic graph with n <= 12 and two seeded relabelings
    of each, paired with the brute-force oracles' bridges and cuts."""
    rng = random.Random(1974)
    cases = []
    for n in range(4, 13, 2):
        for g in enumerate_cubic(n):
            copies = [g] + [relabel(g, rng.sample(range(n), n)) for _ in range(2)]
            for h in copies:
                bridges = oracle_bridges(h)
                cuts = set() if bridges else oracle_two_edge_cuts(h)
                cases.append((h, bridges, cuts))
    return cases


class TestOracleSweep:
    def test_sweep_size(self, sweep):
        # 1 + 2 + 5 + 19 + 85 classes (OEIS A002851), three copies each
        assert len(sweep) == 3 * 112

    def test_find_bridges(self, sweep):
        for g, bridges, _ in sweep:
            assert find_bridges(g) == tuple(sorted(bridges)), g

    def test_two_edge_cuts_pairs_and_sides(self, sweep):
        for g, bridges, cuts in sweep:
            if bridges:
                continue
            got = two_edge_cuts(g)
            assert [(bb.e1, bb.e2) for bb in got] == sorted(cuts), g
            for bb in got:
                side_a, side_b = oracle_cut_sides(g, bb.e1, bb.e2)
                assert (bb.side_a, bb.side_b) == (side_a, side_b)
                assert bb.balance == abs(len(side_a) - len(side_b))

    def test_classify_agrees_with_oracles(self, sweep):
        for g, bridges, cuts in sweep:
            cls = classify_connectivity(g)
            assert cls.bridge_count == len(bridges), g
            assert cls.is_bridge_graph == bool(bridges)
            assert cls.is_biconnected == (not bridges and bool(cuts))
            assert cls.is_three_connected == (not bridges and not cuts)

    def test_most_balanced_is_oracle_minimum(self, sweep):
        checked = 0
        for g, bridges, cuts in sweep:
            if bridges or not cuts:
                continue
            keyed = []
            for e1, e2 in cuts:
                side_a, side_b = oracle_cut_sides(g, e1, e2)
                keyed.append((abs(len(side_a) - len(side_b)), e1, e2))
            bb = most_balanced_bibridge(g)
            assert (bb.balance, bb.e1, bb.e2) == min(keyed), g
            checked += 1
        assert checked == 3 * (1 + 4 + 24)  # biconnected classes at n = 8, 10, 12


class TestNonCubicInputs:
    """find_bridges and two_edge_cuts serve the non-cubic side subgraphs of
    the construction, so the label route must hold beyond cubic graphs."""

    def test_path_all_bridges(self):
        path = build_graph(5, [(i, i + 1) for i in range(4)])
        assert find_bridges(path) == tuple(edge(i, i + 1) for i in range(4))
        with pytest.raises(InputError, match="bridgeless"):
            two_edge_cuts(path)
        with pytest.raises(InputError, match="cubic"):
            classify_connectivity(path)

    def test_triangle_dumbbell(self):
        g = build_graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
        assert oracle_bridges(g) == {edge(2, 3)}
        assert find_bridges(g) == (edge(2, 3),)

    def test_single_vertex_and_empty(self):
        assert find_bridges(build_graph(1, [])) == ()
        assert find_bridges(build_graph(0, [])) == ()
        assert two_edge_cuts(build_graph(1, [])) == ()

    def test_cycle_every_pair_cuts(self):
        # all six edges share one label, so the group yields all 15 pairs
        ring = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
        got = {(bb.e1, bb.e2) for bb in two_edge_cuts(ring)}
        assert len(got) == 15
        assert got == oracle_two_edge_cuts(ring)

    def test_disconnected_rejected_everywhere(self):
        g = build_graph(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                            (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)])
        for fn in (find_bridges, two_edge_cuts, classify_connectivity):
            with pytest.raises(InputError, match="connected graph"):
                fn(g)

    def test_random_connected_graphs(self):
        rng = random.Random(2011)
        tried = 0
        while tried < 200:
            n = rng.randint(2, 9)
            count = rng.randint(n - 1, 2 * n)
            g = build_graph(n, [rng.sample(range(n), 2) for _ in range(count)])
            if not is_connected(g):
                continue
            tried += 1
            bridges = oracle_bridges(g)
            assert set(find_bridges(g)) == bridges, g
            if not bridges:
                got = {(bb.e1, bb.e2) for bb in two_edge_cuts(g)}
                assert got == oracle_two_edge_cuts(g), g
