import pytest

from cubic_lab.errors import InputError
from cubic_lab.graphs import build_graph
from cubic_lab.hamilton import (
    CERT_BRIDGE,
    CERT_CYCLE,
    CERT_EXHAUSTED,
    has_hamiltonian_cycle,
    verify_hamiltonian_cycle,
)


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
