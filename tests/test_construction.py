import dataclasses
import random

import pytest

from cubic_lab import symmetry
from cubic_lab.connectivity import classify_connectivity, find_bridges, most_balanced_bibridge
from cubic_lab.construction import (
    MEMBER_INSERT,
    MEMBER_JOIN,
    _check_member,
    active_side_bridgeless,
    bridge_construct,
    cycle_insertion,
    depth_bound_report,
    insertable_edges,
    insertion_family,
    join_open_nodes,
    record_to_dict,
    select_active_side,
)
from cubic_lab.errors import InputError, InvariantError
from cubic_lab.graphs import (
    build_graph,
    edge,
    edit_graph,
    emit_graph6,
    induced_subgraph,
    is_cubic,
    parse_graph6,
    relabel,
)
from cubic_lab.symmetry import (
    MODE_FULL,
    MODE_STABILIZER,
    are_isomorphic,
    canonical_form,
    distinct_cycle_edges,
)

from oracles import (
    oracle_automorphism_group,
    oracle_automorphisms,
    oracle_canonical_form,
    oracle_edge_orbits,
)


class TestSelectActiveSide:
    def test_d8_tie_breaks_to_side_with_vertex_zero(self, d8):
        bb = most_balanced_bibridge(d8)
        sub_a, _ = induced_subgraph(d8, bb.side_a)
        sub_b, _ = induced_subgraph(d8, bb.side_b)
        # both sides are diamonds: two distinct cycle edges each
        assert distinct_cycle_edges(sub_a) == 2
        assert distinct_cycle_edges(sub_b) == 2
        assert canonical_form(sub_a).graph6 == canonical_form(sub_b).graph6
        assert select_active_side(d8, bb) == "a"
        assert 0 in bb.side_a

    def test_unequal_sides_pick_richer_one(self, diamond_ring):
        bb = most_balanced_bibridge(diamond_ring)
        sub_a, _ = induced_subgraph(diamond_ring, bb.side_a)
        sub_b, _ = induced_subgraph(diamond_ring, bb.side_b)
        count_a = distinct_cycle_edges(sub_a)
        count_b = distinct_cycle_edges(sub_b)
        assert count_a != count_b  # diamond side vs two-diamond chain
        want = "a" if count_a > count_b else "b"
        assert select_active_side(diamond_ring, bb) == want


class TestBridgeConstruct:
    def test_d8_record(self, d8):
        rec = bridge_construct(d8)
        g = rec.augmented
        assert g.n == 12
        assert find_bridges(g) == (rec.bridge,)
        assert rec.bridge == edge(8, 9)
        assert rec.open_nodes == (10, 11)
        deg2 = [v for v in range(g.n) if g.degree(v) == 2]
        assert deg2 == [10, 11]
        assert rec.root == 9
        assert rec.root in rec.active_side
        assert rec.active_side == frozenset({0, 1, 2, 3, 9, 10, 11})
        # BFS by hand on the seven-vertex side
        want = {9: 0, 10: 1, 11: 1, 0: 2, 3: 2, 1: 3, 2: 3}
        assert {v: rec.profile.dist[v] for v in sorted(rec.active_side)} == want
        assert rec.profile.max_dist == 3

    def test_three_connected_inputs_rejected(self, k4, petersen):
        for g in (k4, petersen):
            with pytest.raises(InputError, match="three-connected"):
                bridge_construct(g)

    def test_bridge_input_rejected(self, dumbbell):
        with pytest.raises(InputError, match="bridge"):
            bridge_construct(dumbbell)

    def test_every_biconnected_n_le_8(self):
        from cubic_lab.census import enumerate_cubic

        seen = 0
        for n in (4, 6, 8):
            for g in enumerate_cubic(n):
                if not classify_connectivity(g).is_biconnected:
                    continue
                rec = bridge_construct(g)
                assert rec.augmented.n == n + 4
                assert find_bridges(rec.augmented) == (rec.bridge,)
                assert active_side_bridgeless(rec)
                seen += 1
        assert seen >= 1

    def test_record_json_shape(self, d8):
        doc = record_to_dict(bridge_construct(d8))
        assert doc["bridge"] == [8, 9]
        assert doc["open_nodes"] == [10, 11]
        assert doc["max_dist"] == 3
        assert doc["side_distances"]["9"] == 0
        assert set(doc["bibridge"]) == {"e1", "e2", "side_a", "side_b", "balance"}


class TestDepthBound:
    def test_d8_report(self, d8):
        rep = depth_bound_report(bridge_construct(d8))
        assert rep.max_dist == 3
        assert rep.orbit_count_full == 4
        assert rep.orbit_count_stabilizer == 4
        assert rep.holds_full_group and rep.holds_stabilizer
        assert rep.facilitated_complete

    def test_stabilizer_bound_is_the_hard_one(self, d8, diamond_ring):
        for g in (d8, diamond_ring):
            rep = depth_bound_report(bridge_construct(g))
            assert rep.orbit_count_stabilizer >= rep.max_dist
            assert rep.orbit_count_stabilizer >= rep.orbit_count_full

    def test_two_unrooted_searches_per_record(self, d8, monkeypatch):
        # the one search per side that picks the active side is all the
        # record, its stabilizer-mode family and its report need. d8's
        # sides tie, so the cached canonical form of the side is warmed
        # first and only the searches a record runs itself are counted
        bridge_construct(d8)
        search = symmetry._search
        roots = []

        def counting(g, root=None):
            roots.append(root)
            return search(g, root)

        monkeypatch.setattr(symmetry, "_search", counting)
        rec = bridge_construct(d8)
        insertion_family(rec)
        depth_bound_report(rec)
        assert roots == [None, None]


def _biconnected_up_to(n_max):
    from cubic_lab.census import enumerate_cubic

    return [
        g for n in range(4, n_max + 1, 2) for g in enumerate_cubic(n)
        if classify_connectivity(g).is_biconnected
    ]


class TestSideOrbits:
    """The record's orbits, extended from the generators of the search that
    chose the active side, are the orbits of the augmented side under the
    root's stabilizer and under its whole group."""

    def test_equal_fresh_searches_up_to_14(self):
        rng = random.Random(20)
        graphs = _biconnected_up_to(14)
        assert len(graphs) == 168
        for g in graphs:
            for h in (g, *(relabel(g, rng.sample(range(g.n), g.n)) for _ in range(2))):
                rec = bridge_construct(h)
                side, remap = rec.side_subgraph()
                assert rec.side_orbits == symmetry.edge_orbits(side, remap[rec.root]), h
                assert rec.side_orbits == symmetry.edge_orbits(side), h

    def test_equal_oracle_stabilizer_orbits_up_to_12(self):
        # the n! scan where it is quick; the vertex-image backtracker,
        # which TestOraclesAgree checks against the scan, past that
        for g in _biconnected_up_to(12):
            rec = bridge_construct(g)
            side, remap = rec.side_subgraph()
            root = remap[rec.root]
            group = oracle_automorphisms(side) if side.n <= 8 else oracle_automorphism_group(side)
            stab = [p for p in group if p[root] == root]
            assert rec.side_orbits == oracle_edge_orbits(side, stab), g


class TestCycleCover:
    def test_d8_side_bridgeless(self, d8):
        assert active_side_bridgeless(bridge_construct(d8))

    def test_corrupted_record_detected(self, d8):
        rec = bridge_construct(d8)
        open1 = rec.open_nodes[0]
        anchor_edge = next(
            e for e in rec.augmented.edges()
            if open1 in e and rec.root not in e
        )
        broken = dataclasses.replace(
            rec, augmented=edit_graph(rec.augmented, remove=[anchor_edge])
        )
        assert not active_side_bridgeless(broken)


class TestCycleInsertion:
    def test_d8_hub_edge(self, d8):
        rec = bridge_construct(d8)
        out = cycle_insertion(rec, edge(1, 2))
        assert out.n == 12 and is_cubic(out)
        assert find_bridges(out) == (rec.bridge,)

    def test_pairing_flips_when_needed(self, d8):
        # (0,1): vertex 0 already touches the first open node, so the
        # endpoints must swap targets instead of doubling an edge
        rec = bridge_construct(d8)
        out = cycle_insertion(rec, edge(0, 1))
        assert is_cubic(out)
        assert out.has_edge(0, rec.open_nodes[1])
        assert out.has_edge(1, rec.open_nodes[0])

    def test_bridge_edge_rejected(self, d8):
        rec = bridge_construct(d8)
        with pytest.raises(InputError):
            cycle_insertion(rec, rec.bridge)

    def test_open_node_edges_rejected(self, d8):
        rec = bridge_construct(d8)
        open1 = rec.open_nodes[0]
        touching = next(e for e in rec.augmented.edges() if open1 in e)
        with pytest.raises(InputError, match="open node"):
            cycle_insertion(rec, touching)

    def test_far_side_edge_rejected(self, d8):
        rec = bridge_construct(d8)
        with pytest.raises(InputError, match="active side"):
            cycle_insertion(rec, edge(5, 6))

    def test_disconnected_result_rejected(self, d8):
        rec = bridge_construct(d8)
        # three disjoint K4s: cubic, with the augmented graph's 12 vertices
        three_k4 = build_graph(12, [
            (off + a, off + b) for off in (0, 4, 8)
            for a in range(4) for b in range(a + 1, 4)
        ])
        with pytest.raises(InvariantError, match="insertion result is disconnected"):
            _check_member(rec, three_k4)

    def test_distances_never_increase(self, d8):
        from cubic_lab.graphs import bfs_distances

        rec = bridge_construct(d8)
        for e in ((1, 2), (0, 1), (0, 2)):
            out = cycle_insertion(rec, edge(*e))
            after = bfs_distances(out, rec.root, within=rec.active_side)
            for v in rec.active_side:
                assert after.dist[v] <= rec.profile.dist[v]


# the four conditions of an insertable edge, as cycle_insertion words them
REFUSALS = (
    "is not an edge of the active side",
    "touches an open node",
    "is not on a cycle of the active side",
    "cannot be joined to the open nodes without duplicating an edge",
)


class TestInsertableEdges:
    def test_exactly_the_edges_cycle_insertion_accepts(self, d8, diamond_ring):
        for g in (d8, diamond_ring):
            rec = bridge_construct(g)
            insertable = insertable_edges(rec)
            assert list(insertable) == sorted(insertable)
            for e in rec.augmented.edges():
                if e in insertable:
                    assert is_cubic(cycle_insertion(rec, e))
                else:
                    with pytest.raises(InputError) as refused:
                        cycle_insertion(rec, e)
                    assert str(refused.value) in {f"{tuple(e)} {why}" for why in REFUSALS}

    def test_least_is_the_first_insert_member(self):
        # the 168 biconnected classes with n <= 14 and one seeded
        # relabeling of each
        from cubic_lab.census import enumerate_cubic

        rng = random.Random(8)
        checked = 0
        for n in range(4, 15, 2):
            for g in enumerate_cubic(n):
                if not classify_connectivity(g).is_biconnected:
                    continue
                perm = list(range(n))
                rng.shuffle(perm)
                for h in (g, relabel(g, perm)):
                    rec = bridge_construct(h)
                    first = next(
                        m for m in insertion_family(rec).members if m.kind == MEMBER_INSERT
                    )
                    assert min(insertable_edges(rec)) == first.chosen_edge, emit_graph6(h)
                    checked += 1
        assert checked == 336


class TestInsertionFamily:
    def test_d8_family(self, d8):
        rec = bridge_construct(d8)
        fam = insertion_family(rec)
        assert len(fam.members) == 3
        kinds = [m.kind for m in fam.members]
        assert kinds.count(MEMBER_INSERT) == 2 and kinds.count(MEMBER_JOIN) == 1
        assert fam.pairwise_noniso and fam.collision_report == ()
        for m in fam.members:
            assert m.graph.n == 12 and is_cubic(m.graph)
            assert find_bridges(m.graph) == (rec.bridge,)

    def test_family_size_meets_depth_bound(self, d8, diamond_ring):
        for g in (d8, diamond_ring):
            rec = bridge_construct(g)
            assert len(insertion_family(rec).members) >= rec.profile.max_dist

    def test_join_member_graph(self, d8):
        rec = bridge_construct(d8)
        joined = join_open_nodes(rec)
        assert joined.has_edge(*rec.open_nodes) and is_cubic(joined)
        fam = insertion_family(rec)
        join = next(m for m in fam.members if m.kind == MEMBER_JOIN)
        assert are_isomorphic(join.graph, joined)

    def test_members_pairwise_distinct_by_oracle(self, d8):
        rec = bridge_construct(d8)
        fam = insertion_family(rec)
        forms = [oracle_canonical_form(m.graph)[0] for m in fam.members]
        assert len(set(forms)) == len(forms)

    # the only families with a collision among every biconnected class up
    # to n = 16, in both orbit modes; none has one up to n = 14
    @pytest.mark.parametrize("g6, report", [
        ("OgM?h`??WH?R_?A???W?F", ((11, 14),)),
        ("OoL?G_q_OI?RO?A???W?F", ((12, 15),)),
    ])
    @pytest.mark.parametrize("mode", [MODE_STABILIZER, MODE_FULL])
    def test_collisions_match_oracle(self, g6, report, mode):
        fam = insertion_family(bridge_construct(parse_graph6(g6)), mode)
        # graph6 only: isomorphic members have different labelings
        forms = [oracle_canonical_form(m.graph)[0] for m in fam.members]
        expected = tuple(
            (i, j)
            for i in range(len(forms))
            for j in range(i + 1, len(forms))
            if forms[i] == forms[j]
        )
        assert fam.collision_report == expected == report
        assert not fam.pairwise_noniso

    def test_family_deterministic(self, d8):
        rec = bridge_construct(d8)
        a = insertion_family(rec)
        b = insertion_family(rec)
        assert [(m.chosen_edge, m.kind, m.graph) for m in a.members] == \
               [(m.chosen_edge, m.kind, m.graph) for m in b.members]

    def test_unknown_mode_rejected(self, d8):
        rec = bridge_construct(d8)
        with pytest.raises(InputError, match="unknown orbit mode"):
            insertion_family(rec, "bogus")

    def test_full_group_mode_also_valid(self, d8):
        rec = bridge_construct(d8)
        fam = insertion_family(rec, mode=MODE_FULL)
        assert fam.pairwise_noniso
        for m in fam.members:
            assert is_cubic(m.graph) and m.graph.n == 12


class TestCoreBridgeInsertion:
    """Relabeled inputs where the id-order pairing strands the root: the
    removed edge is a bridge of the active side less the root and open
    nodes, so joining its low end to the first open node leaves the
    root-open edges as bridges. The flipped pairing must take over."""

    @pytest.mark.parametrize("g6", ["KJaGB?A@kQAS", "M?GAHSOpC@W_M?CI?"])
    def test_family_builds_and_passes_gate(self, g6):
        rec = bridge_construct(parse_graph6(g6))
        assert active_side_bridgeless(rec)
        assert depth_bound_report(rec).holds_stabilizer
        open1, open2 = rec.open_nodes
        flipped = 0
        for mode in (MODE_STABILIZER, MODE_FULL):
            fam = insertion_family(rec, mode)
            for m in fam.members:
                assert is_cubic(m.graph) and m.graph.n == rec.augmented.n
                assert find_bridges(m.graph) == (rec.bridge,)
                lo, hi = m.chosen_edge
                id_order_simple = not (rec.augmented.has_edge(lo, open1)
                                       or rec.augmented.has_edge(hi, open2))
                if m.kind == MEMBER_INSERT and id_order_simple and m.graph.has_edge(lo, open2):
                    flipped += 1
        assert flipped
