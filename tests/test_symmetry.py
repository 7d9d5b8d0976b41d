import random
from itertools import combinations

import pytest

from cubic_lab import symmetry
from cubic_lab.errors import InputError, InvariantError
from cubic_lab.graphs import build_graph, edge, edit_graph, induced_subgraph, parse_graph6, relabel
from cubic_lab.symmetry import (
    CANON_MAX_N,
    GROUP_MAX_N,
    are_isomorphic,
    automorphism_group,
    canonical_form,
    distinct_cycle_edges,
    edge_orbits,
    isomorphic_pairs,
)

from conftest import make_petersen_dumbbell
from oracles import (
    oracle_automorphism_group,
    oracle_automorphisms,
    oracle_canonical_form,
    oracle_distinct_cycle_edges,
    oracle_edge_orbits,
    oracle_isomorphic,
    oracle_near_keys,
    oracle_vertex_keys,
)


class TestCanonicalForm:
    def test_relabeling_invariance_k4(self, k4):
        shuffled = relabel(k4, [2, 0, 3, 1])
        assert canonical_form(k4).graph6 == canonical_form(shuffled).graph6

    def test_k33_differs_from_prism(self, k33, prism):
        assert not oracle_isomorphic(k33, prism)  # different triangle counts
        assert canonical_form(k33).graph6 != canonical_form(prism).graph6

    def test_empty_graph_sentinel(self):
        assert canonical_form(build_graph(0, [])).graph6 == b"?"

    def test_labeling_actually_produces_the_form(self, petersen):
        from cubic_lab.graphs import emit_graph6

        cf = canonical_form(petersen)
        assert emit_graph6(relabel(petersen, cf.labeling)).encode() == cf.graph6

    def test_size_bound(self):
        big = build_graph(CANON_MAX_N + 2, [(0, 1)])
        with pytest.raises(InputError):
            canonical_form(big)

    def test_random_relabeling_invariance(self, d8, petersen, dumbbell):
        rng = random.Random(7)
        for g in (d8, petersen, dumbbell):
            base = canonical_form(g).graph6
            for _ in range(5):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert canonical_form(relabel(g, perm)).graph6 == base

    def test_matches_permutation_oracle_on_all_cubic_n_le_8(self):
        from cubic_lab.census import enumerate_cubic

        graphs = [g for n in (4, 6, 8) for g in enumerate_cubic(n)]
        for a, b in combinations(graphs, 2):
            assert are_isomorphic(a, b) == oracle_isomorphic(a, b)
        for g in graphs:
            assert are_isomorphic(g, g)


class TestCanonicalBytesFromLabeling:
    # _canonical_graph6 writes the relabeled graph's bytes without building it

    def test_every_class_up_to_12_under_seeded_relabelings(self):
        from cubic_lab.census import enumerate_cubic
        from cubic_lab.graphs import emit_graph6

        rng = random.Random(12)
        for g in (g for n in range(4, 13, 2) for g in enumerate_cubic(n)):
            for _ in range(3):
                lab = list(range(g.n))
                rng.shuffle(lab)
                assert symmetry._canonical_graph6(g, lab) == emit_graph6(relabel(g, lab)).encode()

    def test_seeded_non_cubic_graphs_under_random_permutations(self):
        from cubic_lab.graphs import emit_graph6

        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(0, 30)
            p = rng.random()
            g = build_graph(n, [(u, w) for u, w in combinations(range(n), 2) if rng.random() < p])
            lab = list(range(n))
            rng.shuffle(lab)
            assert symmetry._canonical_graph6(g, lab) == emit_graph6(relabel(g, lab)).encode()


def _cube():
    return build_graph(8, [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4) if v < v ^ bit])


def _comparisons(keys):
    """How each key compares with each key: -1, 0 or 1 per ordered pair."""
    return [[(a > b) - (a < b) for b in keys] for a in keys]


class TestVertexKeysMatchDistanceOracle:
    """The layer-size keys must order vertices exactly as the oracle's
    (degree, triangles, sorted BFS distances) keys do: every vertex pair of
    a graph compares the same way, and graphs with equal n have equal
    sorted keys under one exactly when they do under the other. The near
    keys must equal the oracle's ball sizes."""

    def _check(self, graphs):
        ours = [symmetry._vertex_keys(g.adj) for g in graphs]
        theirs = [oracle_vertex_keys(g) for g in graphs]
        for g, a, b in zip(graphs, ours, theirs):
            assert _comparisons(a) == _comparisons(b), g
            assert symmetry._near_keys(g.adj) == oracle_near_keys(g), g
        tied = {}
        for i, g in enumerate(graphs):
            tied.setdefault(g.n, []).append(i)
        for same_n in tied.values():
            for i, j in combinations(same_n, 2):
                assert (sorted(ours[i]) == sorted(ours[j])) == (
                    sorted(theirs[i]) == sorted(theirs[j])), (graphs[i], graphs[j])

    def test_every_class_up_to_12_and_relabelings(self):
        from cubic_lab.census import enumerate_cubic

        rng = random.Random(31)
        graphs = []
        for n in range(4, 13, 2):
            for g in enumerate_cubic(n):
                graphs.append(g)
                for _ in range(2):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    graphs.append(relabel(g, perm))
        self._check(graphs)

    def test_induced_subgraphs(self):
        # unreachable vertices are where layer counts and distance tuples
        # differ most: disconnected pieces, isolated vertices, and paths
        # whose layers are a prefix of another vertex's
        from cubic_lab.census import enumerate_cubic
        from cubic_lab.graphs import is_connected

        rng = random.Random(37)
        graphs = []
        for n in range(4, 13, 2):
            for g in enumerate_cubic(n):
                for _ in range(3):
                    keep = [v for v in range(n) if rng.random() < 0.6]
                    graphs.append(induced_subgraph(g, keep)[0])
        assert any(not is_connected(g) for g in graphs)
        assert any(0 in map(len, g.adj) for g in graphs)
        self._check(graphs)

    def test_unions_of_key_alike_graphs(self):
        rng = random.Random(41)
        graphs = []
        for a, b in [("K??Z@PP`d_X?", "K??i``Hacg[?"), ("I??ysr_w?", "I??ysr_w?")]:
            union = _union(a, b)
            for _ in range(2):
                perm = list(range(union.n))
                rng.shuffle(perm)
                graphs.append(relabel(union, perm))
        graphs += [parse_graph6("K??Z@PP`d_X?"), parse_graph6("K??i``Hacg[?")]
        self._check(graphs)


class TestCanonicalFormMatchesUnprunedSearch:
    """The pruned search must return exactly what walking every leaf of the
    same tree returns: the same graph6 bytes and the same labeling."""

    def _check(self, g):
        cf = canonical_form(g)
        assert (cf.graph6, cf.labeling) == oracle_canonical_form(g), g

    def test_every_class_up_to_12_and_relabelings(self):
        from cubic_lab.census import enumerate_cubic

        rng = random.Random(2024)
        for n in range(4, 13, 2):
            for g in enumerate_cubic(n):
                self._check(g)
                for _ in range(2):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    self._check(relabel(g, perm))

    def test_named_graphs(self, k4, k33, prism, petersen, dumbbell):
        rng = random.Random(5)
        for g in (k4, k33, prism, _cube(), petersen, dumbbell):
            self._check(g)
            perm = list(range(g.n))
            rng.shuffle(perm)
            self._check(relabel(g, perm))

    def test_unions_of_key_alike_graphs(self):
        # every vertex of these cubic graphs has the same vertex key, yet
        # each graph has two vertex orbits: below the root, target cells mix
        # orbits, which is where a subtree wrongly taken for an image of an
        # earlier one would change the result
        pairs = [("K??Z@PP`d_X?", "K??i``Hacg[?"), ("I??ysr_w?", "I??ysr_w?")]
        rng = random.Random(1)
        for a, b in pairs:
            ga, gb = parse_graph6(a), parse_graph6(b)
            union = build_graph(ga.n + gb.n, list(ga.edges()) + [
                (u + ga.n, w + ga.n) for u, w in gb.edges()
            ])
            for _ in range(2):
                perm = list(range(union.n))
                rng.shuffle(perm)
                self._check(relabel(union, perm))

    def test_induced_subgraphs(self, petersen, dumbbell, d8):
        # mixed degrees and disconnected pieces, as construction sides have
        rng = random.Random(9)
        for g in (petersen, dumbbell, d8, _cube()):
            for _ in range(6):
                keep = [v for v in range(g.n) if rng.random() < 0.75]
                self._check(induced_subgraph(g, keep)[0])


class TestAreIsomorphic:
    def test_k4_relabel(self, k4):
        assert are_isomorphic(k4, relabel(k4, [3, 1, 0, 2]))

    def test_k33_prism(self, k33, prism):
        assert not are_isomorphic(k33, prism)

    def test_d8_side_swap(self, d8):
        # the explicit permutation exchanging the two diamonds
        swap = [4, 5, 6, 7, 0, 1, 2, 3]
        assert are_isomorphic(d8, relabel(d8, swap))


class TestIsomorphicPairs:
    def test_key_alike_graphs_reach_the_search(self, petersen, monkeypatch):
        # a and b have equal sorted vertex keys but are not isomorphic; the
        # Petersen graph's n is unique, so it is never searched
        a, b = parse_graph6("K??Z@PP`d_X?"), parse_graph6("K??i``Hacg[?")
        assert sorted(symmetry._vertex_keys(a.adj)) == sorted(symmetry._vertex_keys(b.adj))
        assert oracle_canonical_form(a)[0] != oracle_canonical_form(b)[0]
        rng = random.Random(3)
        relabelings = []
        for _ in range(2):
            perm = list(range(a.n))
            rng.shuffle(perm)
            relabelings.append(relabel(a, perm))
        graphs = [a, petersen, b, *relabelings]
        searched = []
        original = symmetry.canonical_form
        monkeypatch.setattr(symmetry, "canonical_form",
                            lambda g: searched.append(g) or original(g))
        assert isomorphic_pairs(graphs) == ((0, 3), (0, 4), (3, 4))
        assert sorted(map(id, searched)) == sorted(id(graphs[i]) for i in (0, 2, 3, 4))

    def test_cap_applies_only_where_keys_tie(self):
        one = build_graph(CANON_MAX_N + 2, [(0, 1)])
        two = build_graph(CANON_MAX_N + 2, [(0, 1), (1, 2)])
        assert isomorphic_pairs([one, two]) == ()
        with pytest.raises(InputError, match="canonical_form supports at most"):
            isomorphic_pairs([one, relabel(one, list(range(one.n))[::-1])])


def _classes_up_to(n_max):
    from cubic_lab.census import enumerate_cubic

    return [g for n in range(4, n_max + 1, 2) for g in enumerate_cubic(n)]


def _family_members_up_to_14():
    from cubic_lab.connectivity import classify_connectivity
    from cubic_lab.construction import bridge_construct, insertion_family

    graphs = [g for g in _classes_up_to(14) if classify_connectivity(g).is_biconnected]
    assert len(graphs) == 168
    return [m.graph for g in graphs for m in insertion_family(bridge_construct(g)).members]


def _sorted_keys(key, g):
    return tuple(sorted(key(g.adj)))


class TestNearKeyScreen:
    """``isomorphic_pairs`` groups by n and sorted near keys first, computes
    full vertex keys only inside near-key ties and searches only inside
    full-key ties; the near keys are a function of the full keys, so the
    graphs that reach the search are those of a full-key screen alone."""

    def _spy(self, monkeypatch, name):
        seen = []
        original = getattr(symmetry, name)

        def spy(arg):
            seen.append(arg)
            return original(arg)

        monkeypatch.setattr(symmetry, name, spy)
        return seen

    def test_equal_full_keys_imply_equal_near_keys(self):
        graphs = _classes_up_to(12) + _family_members_up_to_14()
        by_full = {}
        for g in graphs:
            by_full.setdefault((g.n, _sorted_keys(symmetry._vertex_keys, g)), []).append(g)
        tied = [same for same in by_full.values() if len(same) > 1]
        assert tied
        for same in tied:
            assert len({_sorted_keys(symmetry._near_keys, g) for g in same}) == 1, same

    def test_near_alike_members_get_full_keys_but_no_search(self, monkeypatch):
        # two members of the family of MAop@C?_GUI?_K@H? that only the full
        # keys tell apart
        a = parse_graph6("QAOo@C?_GUI?_K@@OC??@I?CA@O")
        b = parse_graph6("QAOp@C?_GQI?_K@@OC??@A_C?HO")
        assert _sorted_keys(symmetry._near_keys, a) == _sorted_keys(symmetry._near_keys, b)
        assert _sorted_keys(symmetry._vertex_keys, a) != _sorted_keys(symmetry._vertex_keys, b)
        keyed = self._spy(monkeypatch, "_vertex_keys")
        searched = self._spy(monkeypatch, "canonical_form")
        assert isomorphic_pairs([a, b]) == ()
        assert sorted(map(id, keyed)) == sorted([id(a.adj), id(b.adj)])
        assert searched == []

    def test_distinct_near_keys_never_get_full_keys(self, monkeypatch):
        from cubic_lab.construction import bridge_construct, insertion_family

        family = insertion_family(bridge_construct(parse_graph6("MAop@C?_GUI?_K@H?"))).members
        graphs = _classes_up_to(12) + [m.graph for m in family]
        screen = {}
        for g in graphs:
            screen.setdefault((g.n, _sorted_keys(symmetry._near_keys, g)), []).append(g)
        shared = [g for same in screen.values() if len(same) > 1 for g in same]
        assert shared and len(shared) < len(graphs)
        keyed = self._spy(monkeypatch, "_vertex_keys")
        isomorphic_pairs(graphs)
        # the canonical search keys its start partition too, so ids repeat
        assert set(map(id, keyed)) == {id(g.adj) for g in shared}

    def test_family_pairs_match_the_oracle_under_relabelings(self):
        # each family of the 168 biconnected classes up to n = 14, built from
        # 2 seeded relabelings of its source, plus a relabeled copy of one
        # member so that every family holds a true pair
        from cubic_lab.connectivity import classify_connectivity
        from cubic_lab.construction import bridge_construct, insertion_family

        rng = random.Random(47)
        sources = [g for g in _classes_up_to(14) if classify_connectivity(g).is_biconnected]
        assert len(sources) == 168
        for g in sources:
            for _ in range(2):
                h = relabel(g, rng.sample(range(g.n), g.n))
                members = [m.graph for m in insertion_family(bridge_construct(h)).members]
                copy = rng.choice(members)
                members.append(relabel(copy, rng.sample(range(copy.n), copy.n)))
                forms = [oracle_canonical_form(m)[0] for m in members]
                expected = tuple((i, j) for i, j in combinations(range(len(members)), 2)
                                 if forms[i] == forms[j])
                assert len(expected) >= 1
                assert isomorphic_pairs(members) == expected, g


class TestAutomorphismGroup:
    def test_k4_symmetric_group(self, k4):
        assert len(automorphism_group(k4)) == 24

    def test_diamond_order_four(self, diamond):
        perms = automorphism_group(diamond)
        assert len(perms) == 4
        assert {p for p in perms} == {tuple(p) for p in oracle_automorphisms(diamond)}

    def test_petersen_order_120_vs_bruteforce(self, petersen):
        perms = automorphism_group(petersen)
        assert len(perms) == 120
        oracle = oracle_automorphism_group(petersen)
        assert len(oracle) == 120
        assert perms == oracle

    def test_group_axioms(self, d8, prism):
        for g in (d8, prism):
            perms = set(automorphism_group(g))
            assert tuple(range(g.n)) in perms
            sample = sorted(perms)[:6]
            for p in sample:
                for q in sample:
                    assert tuple(p[q[v]] for v in range(g.n)) in perms

    def test_size_bound(self):
        big = build_graph(GROUP_MAX_N + 2, [(0, 1)])
        with pytest.raises(InputError):
            automorphism_group(big)


def _union(a, b):
    ga, gb = parse_graph6(a), parse_graph6(b)
    return build_graph(ga.n + gb.n, list(ga.edges()) + [
        (u + ga.n, w + ga.n) for u, w in gb.edges()
    ])


def _breadth_first_relabeling(g, rng):
    """g renumbered in the order of a breadth-first search per component,
    with components, roots and neighbor order drawn from rng."""
    order = []
    seen = set()
    roots = list(range(g.n))
    rng.shuffle(roots)
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        for x in queue:
            order.append(x)
            nbrs = list(g.adj[x])
            rng.shuffle(nbrs)
            for w in nbrs:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    perm = [0] * g.n
    for new, old in enumerate(order):
        perm[old] = new
    return relabel(g, perm)


def _check_edge_orbits(g, perms):
    assert edge_orbits(g) == oracle_edge_orbits(g, perms), g
    for root in range(g.n):
        stab = [p for p in perms if p[root] == root]
        got = edge_orbits(g, root=root)
        assert got == oracle_edge_orbits(g, stab), (g, root)


class TestAutomorphismGroupMatchesBacktracker:
    """The closure of the canonical search's recorded automorphisms must be
    the group the vertex-image backtracker finds, and the edge orbits read
    from it must be the orbits of the backtracker's group, in full mode and
    in stabilizer mode at every root."""

    def _check(self, g):
        perms = oracle_automorphism_group(g)
        assert automorphism_group(g) == perms, g
        _check_edge_orbits(g, perms)

    def test_every_class_up_to_12_and_a_relabeling(self):
        from cubic_lab.census import enumerate_cubic

        rng = random.Random(4)
        for n in range(4, 13, 2):
            for g in enumerate_cubic(n):
                self._check(g)
                perm = list(range(n))
                rng.shuffle(perm)
                self._check(relabel(g, perm))

    def test_construction_sides_up_to_12(self):
        from cubic_lab.census import enumerate_cubic
        from cubic_lab.connectivity import classify_connectivity
        from cubic_lab.construction import bridge_construct

        for n in range(4, 13, 2):
            for g in enumerate_cubic(n):
                if not classify_connectivity(g).is_biconnected:
                    continue
                rec = bridge_construct(g)
                bb = rec.chosen_bibridge
                self._check(induced_subgraph(g, bb.side_a)[0])
                self._check(induced_subgraph(g, bb.side_b)[0])
                self._check(rec.side_subgraph()[0])

    def test_induced_subgraphs(self, petersen, dumbbell, d8):
        rng = random.Random(13)
        for g in (petersen, dumbbell, d8, _cube()):
            for _ in range(6):
                keep = [v for v in range(g.n) if rng.random() < 0.75]
                self._check(induced_subgraph(g, keep)[0])

    def test_unions_of_key_alike_graphs(self, monkeypatch):
        # 24 and 20 vertices: past the published group cap, which is lifted
        # to the canonical cap here so the group itself can be compared.
        # The backtracker prunes only by adjacency to vertices it has
        # already mapped, so it gets seeded breadth-first labelings: on
        # uniformly random ones it needs tens of seconds per union
        monkeypatch.setattr(symmetry, "GROUP_MAX_N", CANON_MAX_N)
        rng = random.Random(1)
        for a, b in [("K??Z@PP`d_X?", "K??i``Hacg[?"), ("I??ysr_w?", "I??ysr_w?")]:
            union = _union(a, b)
            for _ in range(2):
                self._check(_breadth_first_relabeling(union, rng))

    def test_non_automorphism_generator_raises(self, monkeypatch, path3):
        search = symmetry._search

        def with_bogus_generator(g):
            labeling, generators, edges = search(g)
            return labeling, generators + [(1, 0, 2)], edges  # sends (1, 2) to (0, 2)

        monkeypatch.setattr(symmetry, "_search", with_bogus_generator)
        with pytest.raises(InvariantError):
            automorphism_group.__wrapped__(path3)


class TestOraclesAgree:
    def test_backtracker_matches_permutation_scan_up_to_8(self):
        # the backtracker stands in for the n! scan wherever that is too
        # slow, so the two must agree wherever it is not
        from cubic_lab.census import enumerate_cubic

        for n in (4, 6, 8):
            for g in enumerate_cubic(n):
                scan = tuple(sorted(tuple(p) for p in oracle_automorphisms(g)))
                assert oracle_automorphism_group(g) == scan, g


class TestEdgeOrbitsPastGroupCap:
    """Edge orbits list no group, so they run up to the canonical cap: past
    the group cap, left as published, they must match the orbits of the
    backtracker's group in full mode and in stabilizer mode at every root."""

    UNIONS = [("K??Z@PP`d_X?", "K??i``Hacg[?"), ("I??ysr_w?", "I??ysr_w?")]

    def _check(self, g):
        assert GROUP_MAX_N < g.n <= CANON_MAX_N
        perms = oracle_automorphism_group(g)
        _check_edge_orbits(g, perms)
        return perms

    def _check_distinct(self, g):
        perms = self._check(g)
        assert distinct_cycle_edges(g) == oracle_distinct_cycle_edges(g, perms), g

    def test_unions_of_key_alike_graphs(self):
        # 24 and 20 vertices, with breadth-first labelings for the
        # backtracker (see TestAutomorphismGroupMatchesBacktracker)
        rng = random.Random(3)
        for a, b in self.UNIONS:
            union = _union(a, b)
            for _ in range(2):
                self._check(_breadth_first_relabeling(union, rng))

    def test_distinct_cycle_edges(self):
        # distinct_cycle_edges needs a connected graph: each union gets one
        # edge joining its halves, which becomes a bridge
        rng = random.Random(8)
        graphs = [make_petersen_dumbbell()]
        for a, b in self.UNIONS:
            graphs.append(edit_graph(_union(a, b), add=[(0, parse_graph6(a).n)]))
        for g in graphs:
            self._check_distinct(g)
            self._check_distinct(_breadth_first_relabeling(g, rng))

    def test_past_canonical_cap_raises(self):
        big = build_graph(CANON_MAX_N + 2, [(0, 1)])
        for root in (None, 0):
            with pytest.raises(InputError):
                edge_orbits(big, root)


class TestEdgeOrbits:
    def test_k4_single_orbit(self, k4):
        orbits = edge_orbits(k4)
        assert len(orbits) == 1 and len(orbits[0]) == 6

    def test_diamond_two_orbits(self, diamond):
        orbits = edge_orbits(diamond)
        assert len(orbits) == 2
        assert (edge(1, 2),) in orbits  # the hub edge sits alone

    def test_path_stabilizer_splits(self, path3):
        full = edge_orbits(path3)
        stab = edge_orbits(path3, root=0)
        assert len(full) == 1 and len(stab) == 2

    def test_orbits_partition_edges(self, d8, petersen, dumbbell):
        for g in (d8, petersen, dumbbell):
            orbits = edge_orbits(g)
            flattened = [e for orbit in orbits for e in orbit]
            assert sorted(flattened) == sorted(g.edges())
            assert len(set(flattened)) == len(flattened)

    def test_orbit_soundness_witnesses(self, d8, diamond, dumbbell):
        # same orbit: exhibit a group element; different orbits: none exists
        for g in (d8, diamond, dumbbell):
            perms = automorphism_group(g)
            orbits = edge_orbits(g)
            index = {}
            for i, orbit in enumerate(orbits):
                for e in orbit:
                    index[e] = i
            for e1 in g.edges():
                for e2 in g.edges():
                    mapped = any(edge(p[e1.u], p[e1.v]) == e2 for p in perms)
                    assert mapped == (index[e1] == index[e2])

    def test_stabilizer_refines_full(self, d8, petersen, dumbbell, prism):
        for g in (d8, petersen, dumbbell, prism):
            full = edge_orbits(g)
            for root in range(g.n):
                stab = edge_orbits(g, root=root)
                for sub in stab:
                    assert any(set(sub) <= set(sup) for sup in full)

    def test_root_out_of_range(self, k4):
        for root in (k4.n, -1):
            with pytest.raises(InputError, match="out of range"):
                edge_orbits(k4, root=root)


class TestStabilizerSearch:
    def test_root_individualized_first(self, k33, prism, petersen):
        # all vertices of a vertex-transitive graph share one key cell, so
        # the search with root r starts at the full search's child r; every
        # child's subtree holds the least code, and child 0 comes first
        rng = random.Random(6)
        for base in (k33, prism, _cube(), petersen):
            perm = list(range(base.n))
            rng.shuffle(perm)
            for g in (base, relabel(base, perm)):
                cf = canonical_form(g)
                assert symmetry._search(g, 0)[0] == cf.labeling, g
                for root in range(g.n):
                    labeling = symmetry._search(g, root)[0]
                    assert symmetry._canonical_graph6(g, labeling) == cf.graph6, (g, root)

    def test_non_automorphism_generator_raises(self, monkeypatch, path3):
        search = symmetry._search

        def with_bogus_generator(g, root=None):
            labeling, generators, edges = search(g, root)
            return labeling, generators + [(1, 0, 2)], edges  # fixes 2, sends (1, 2) to (0, 2)

        monkeypatch.setattr(symmetry, "_search", with_bogus_generator)
        with pytest.raises(InvariantError):
            edge_orbits(path3)
        with pytest.raises(InvariantError):
            edge_orbits(path3, root=2)

    def test_generator_moving_the_root_raises(self, monkeypatch, path3):
        search = symmetry._search

        def with_root_moved(g, root=None):
            labeling, generators, edges = search(g, root)
            return labeling, generators + [(2, 1, 0)], edges  # an automorphism

        monkeypatch.setattr(symmetry, "_search", with_root_moved)
        assert len(edge_orbits(path3)) == 1
        with pytest.raises(InvariantError):
            edge_orbits(path3, root=0)


class TestDistinctCycleEdges:
    def test_k4(self, k4):
        assert distinct_cycle_edges(k4) == 1

    def test_diamond_both_orbits_cyclic(self, diamond):
        assert edge_orbits(diamond) == (
            (edge(0, 1), edge(0, 2), edge(1, 3), edge(2, 3)),
            (edge(1, 2),),
        )
        assert distinct_cycle_edges(diamond) == 2

    def test_dumbbell_drops_bridge_orbit(self, dumbbell):
        # group from the vertex-image backtracker; the bridge orbit is excluded
        perms = oracle_automorphism_group(dumbbell)
        orbit_count = len(edge_orbits(dumbbell))
        assert automorphism_group(dumbbell) == tuple(sorted(perms))
        assert (edge(4, 9),) in edge_orbits(dumbbell)
        assert distinct_cycle_edges(dumbbell) == orbit_count - 1 == 3
