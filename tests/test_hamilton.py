import json
import random
from itertools import combinations

import pytest

from cubic_lab.cli import main
from cubic_lab.errors import InputError
from cubic_lab.graphs import build_graph, emit_graph6, is_connected
from cubic_lab.hamilton import (
    CERT_BRIDGE,
    CERT_CYCLE,
    CERT_EXHAUSTED,
    has_hamiltonian_cycle,
    verify_hamiltonian_cycle,
)

from conftest import make_prism
from oracles import oracle_hamiltonian_by_permutations


class TestSolver:
    def test_k4(self, k4):
        res = has_hamiltonian_cycle(k4)
        assert res.is_hamiltonian and res.certificate_kind == CERT_CYCLE
        assert verify_hamiltonian_cycle(k4, res.witness)

    def test_petersen_exhausted(self, petersen):
        res = has_hamiltonian_cycle(petersen)
        assert not res.is_hamiltonian and res.certificate_kind == CERT_EXHAUSTED

    def test_dumbbell_bridge_shortcut(self, dumbbell):
        from cubic_lab.census import classify_graph

        facts = classify_graph(dumbbell)
        assert not facts["is_hamiltonian"] and facts["certificate"] == CERT_BRIDGE
        res = has_hamiltonian_cycle(dumbbell)
        assert not res.is_hamiltonian and res.certificate_kind == CERT_EXHAUSTED

    def test_prism_k33(self, prism, k33):
        assert has_hamiltonian_cycle(prism).is_hamiltonian
        assert has_hamiltonian_cycle(k33).is_hamiltonian

    def test_too_small(self):
        with pytest.raises(InputError):
            has_hamiltonian_cycle(build_graph(2, [(0, 1)]))

    def test_disconnected(self):
        with pytest.raises(InputError):
            has_hamiltonian_cycle(build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))

    def test_determinism(self, prism):
        a = has_hamiltonian_cycle(prism)
        b = has_hamiltonian_cycle(prism)
        assert a == b

    def test_witness_starts_at_zero(self, prism):
        assert has_hamiltonian_cycle(prism).witness[0] == 0


class TestWitnessVerifier:
    def test_rejects_partial(self, k4):
        assert not verify_hamiltonian_cycle(k4, (0, 1, 2))

    def test_rejects_nonadjacent_step(self, prism):
        assert not verify_hamiltonian_cycle(prism, (0, 1, 2, 3, 4, 5))

    def test_rejects_repeats(self, k4):
        assert not verify_hamiltonian_cycle(k4, (0, 1, 2, 1))

    def test_accepts_valid(self, k4):
        assert verify_hamiltonian_cycle(k4, (0, 1, 2, 3))


class TestShortcutSoundness:
    def test_bridge_graphs_fail_without_shortcut_too(self):
        # regression guard: full backtracking agrees with the bridge
        # shortcut of census.classify_graph on every cubic bridge graph up
        # to 12 vertices
        from cubic_lab.census import classify_graph, enumerate_cubic
        from cubic_lab.connectivity import find_bridges

        checked = 0
        for n in (10, 12):
            for g in enumerate_cubic(n):
                if not find_bridges(g):
                    continue
                fast = classify_graph(g)
                slow = has_hamiltonian_cycle(g)
                assert fast["certificate"] == CERT_BRIDGE
                assert slow.certificate_kind == CERT_EXHAUSTED
                assert not fast["is_hamiltonian"] and not slow.is_hamiltonian
                checked += 1
        assert checked >= 1

    def test_every_positive_answer_verifies(self):
        from cubic_lab.census import enumerate_cubic

        for g in enumerate_cubic(8):
            res = has_hamiltonian_cycle(g)
            if res.is_hamiltonian:
                assert verify_hamiltonian_cycle(g, res.witness)


class TestLongPaths:
    # the search keeps its own stack, so a path longer than Python's
    # recursion limit is no error
    def test_1200_vertex_prism(self):
        g = make_prism(600)
        res = has_hamiltonian_cycle(g)
        assert res.certificate_kind == CERT_CYCLE
        assert verify_hamiltonian_cycle(g, res.witness)

    def test_1200_vertex_prism_through_the_cli(self, tmp_path, capsys):
        path = tmp_path / "prism.g6"
        path.write_text(emit_graph6(make_prism(600)) + "\n")
        code = main(["classify", "--in", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        facts = json.loads(out)
        assert facts["certificate"] == "cycle-found" and facts["n"] == 1200
        assert '"certificate": "cycle-found"' in out


def _labelled_connected_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        g = build_graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        if is_connected(g):
            yield g


def _random_connected(rng: random.Random, vertices: list[int], density: float):
    """A random tree on ``vertices`` plus each other pair with probability
    ``density``, as edge pairs."""
    order = vertices[:]
    rng.shuffle(order)
    edges = {tuple(sorted((v, rng.choice(order[:i])))) for i, v in enumerate(order) if i}
    edges |= {p for p in combinations(sorted(vertices), 2) if rng.random() < density}
    return edges


def _random_cases(seed: int):
    """Seeded connected graphs on 6 to 9 vertices: plain ones, ones with
    vertex 0 pendant and ones with another vertex pendant."""
    rng = random.Random(seed)
    for n in range(6, 10):
        for pendant in (None, 0, rng.randrange(1, n)):
            for _ in range(8):
                rest = [v for v in range(n) if v != pendant]
                edges = _random_connected(rng, rest, rng.uniform(0.2, 0.8))
                if pendant is not None:
                    edges.add(tuple(sorted((pendant, rng.choice(rest)))))
                yield build_graph(n, edges)


class TestPermutationOracle:
    # the search replaces its root scan by a degree check, and these inputs
    # are not cubic, so degrees below 2 and pendant vertices occur
    def _check(self, g):
        res = has_hamiltonian_cycle(g)
        assert res.is_hamiltonian == oracle_hamiltonian_by_permutations(g), g
        if res.is_hamiltonian:
            assert res.witness[0] == 0 and verify_hamiltonian_cycle(g, res.witness), g
        else:
            assert res.witness is None and res.certificate_kind == CERT_EXHAUSTED

    def test_every_connected_labelled_graph_on_3_to_5_vertices(self):
        checked = hamiltonian = 0
        for n in (3, 4, 5):
            for g in _labelled_connected_graphs(n):
                self._check(g)
                checked += 1
                hamiltonian += has_hamiltonian_cycle(g).is_hamiltonian
        assert checked == 4 + 38 + 728  # OEIS A001187
        assert 0 < hamiltonian < checked

    def test_seeded_random_graphs_on_6_to_9_vertices(self):
        graphs = list(_random_cases(18))
        pendant_zero = [g for g in graphs if len(g.adj[0]) == 1]
        assert len(graphs) == 96 and len(pendant_zero) >= 32
        verdicts = [has_hamiltonian_cycle(g).is_hamiltonian for g in graphs]
        assert 0 < sum(verdicts) < len(graphs)
        for g in graphs:
            self._check(g)
