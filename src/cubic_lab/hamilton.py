"""Exact Hamiltonian-cycle decision for small graphs.

Plain backtracking from vertex 0: a branch dies as soon as some unvisited
vertex has fewer than two usable connections left. Bridge graphs get the
full search too; ``census.classify_graph`` answers them from their bridge
count instead, with ``CERT_BRIDGE``. Witnesses are re-verified by an
independent checker before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InputError, InvariantError
from .graphs import Graph, is_connected

CERT_CYCLE = "cycle-found"
CERT_EXHAUSTED = "exhausted"
CERT_BRIDGE = "bridge-shortcut"


@dataclass(frozen=True)
class HamiltonicityResult:
    is_hamiltonian: bool
    witness: Optional[tuple[int, ...]]
    certificate_kind: str


def verify_hamiltonian_cycle(g: Graph, seq: tuple[int, ...]) -> bool:
    """Independent witness check: every vertex exactly once, consecutive
    vertices adjacent, last adjacent to first."""
    if len(seq) != g.n or sorted(seq) != list(range(g.n)):
        return False
    return all(
        g.has_edge(seq[i], seq[(i + 1) % g.n]) for i in range(g.n)
    )


def has_hamiltonian_cycle(g: Graph) -> HamiltonicityResult:
    """Decide Hamiltonicity exactly; deterministic witness when one exists."""
    if g.n < 3:
        raise InputError("Hamiltonicity needs at least 3 vertices")
    if not is_connected(g):
        raise InputError("has_hamiltonian_cycle requires a connected graph")

    n = g.n
    adj = g.adj
    visited = [False] * n
    visited[0] = True
    path = [0]

    def feasible() -> bool:
        # every unvisited vertex still needs two usable edge slots; edges to
        # the path tip and to vertex 0 stay usable, interior path vertices
        # are full
        tip = path[-1]
        for v in range(n):
            if visited[v]:
                continue
            usable = 0
            for w in adj[v]:
                if not visited[w] or w == tip or w == 0:
                    usable += 1
                    if usable == 2:
                        break
            if usable < 2:
                return False
        return True

    def extend() -> bool:
        tip = path[-1]
        if len(path) == n:
            return g.has_edge(tip, 0)
        if not feasible():
            return False
        for w in adj[tip]:
            if not visited[w]:
                visited[w] = True
                path.append(w)
                if extend():
                    return True
                path.pop()
                visited[w] = False
        return False

    if extend():
        witness = tuple(path)
        if not verify_hamiltonian_cycle(g, witness):
            raise InvariantError("solver produced an invalid Hamiltonian witness")
        return HamiltonicityResult(True, witness, CERT_CYCLE)
    return HamiltonicityResult(False, None, CERT_EXHAUSTED)
