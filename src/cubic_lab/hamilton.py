"""Exact Hamiltonian-cycle decision for small graphs.

Backtracking from vertex 0 over a path of visited vertices. A node of the
search is a path; a branch dies as soon as some unvisited vertex has fewer
than two usable neighbours left, where a neighbour is usable while it is
unvisited, the path's tip or vertex 0 (interior path vertices are full).

The check at each node costs O(deg), not O(n). Extending the path from tip
t to a new vertex w changes usability in two places only: w stays usable
as the new tip, and t turns interior (unless t is vertex 0, which stays
usable). So the only unvisited vertices that can lose a usable neighbour
are those adjacent to t, and the parent node already passed the full
check; re-checking t's unvisited neighbours decides the full check at the
child. At the root every neighbour is usable, so the full check there is a
degree check: a vertex of degree below 2 rules out any Hamiltonian cycle
before the search starts.

The search keeps its own stack, one neighbour iterator per path vertex,
instead of recursing, so a long path never meets Python's recursion limit.
It tries neighbours in adjacency order and backtracks as the recursion
did, so every input keeps its verdict and its witness.

Bridge graphs get the full search too; ``classify_graph`` answers them
from their bridge count instead, with ``CERT_BRIDGE``. Witnesses are
re-verified by an independent checker before being returned.

``classify_graph`` and ``classify_graph6``, the per-graph facts that the
``classify`` command prints and each census row counts, live here rather
than in ``census``, so that ``classify`` loads only ``graphs``,
``connectivity`` and this module. ``census`` re-exports both names.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .connectivity import classify_connectivity
from .errors import InputError, InvariantError
from .graphs import Graph, is_connected, parse_graph6

CERT_CYCLE = "cycle-found"
CERT_EXHAUSTED = "exhausted"
CERT_BRIDGE = "bridge-shortcut"


class HamiltonicityResult(NamedTuple):
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
    witness = _first_cycle(g)
    if witness is None:
        return HamiltonicityResult(False, None, CERT_EXHAUSTED)
    if not verify_hamiltonian_cycle(g, witness):
        raise InvariantError("solver produced an invalid Hamiltonian witness")
    return HamiltonicityResult(True, witness, CERT_CYCLE)


def classify_graph(g: Graph) -> dict:
    """Per-graph facts: size, connectivity class and Hamiltonicity."""
    cls = classify_connectivity(g)
    if cls.bridge_count:
        # a cycle through every vertex would cross a bridge twice, so the
        # bridges already counted answer without a search
        ham = HamiltonicityResult(False, None, CERT_BRIDGE)
    else:
        ham = has_hamiltonian_cycle(g)
    return {
        "n": g.n,
        "bridge_count": cls.bridge_count,
        "class": cls.label,
        "is_hamiltonian": ham.is_hamiltonian,
        "certificate": ham.certificate_kind,
    }


def classify_graph6(g6: str) -> dict:
    """``classify_graph`` plus the graph6 echo."""
    return {"graph6": g6, **classify_graph(parse_graph6(g6))}


def _first_cycle(g: Graph) -> Optional[tuple[int, ...]]:
    """The first Hamiltonian cycle from vertex 0 in depth-first order, as
    a vertex sequence, or None."""
    n = g.n
    adj = g.adj
    if any(len(nbrs) < 2 for nbrs in adj):
        return None
    visited = [False] * n
    visited[0] = True
    path = [0]
    stack = [iter(adj[0])]  # the untried neighbours of each path vertex
    while stack:
        tip = path[-1]
        for w in stack[-1]:
            if visited[w]:
                continue
            if len(path) == n - 1:
                if 0 in adj[w]:
                    path.append(w)
                    return tuple(path)
                continue
            # tip turns interior: each of its unvisited neighbours needs
            # two usable neighbours left, w (the new tip) and 0 included
            visited[w] = True
            for v in adj[tip]:
                if not visited[v]:
                    usable = 0
                    for x in adj[v]:
                        if not visited[x] or x == w or x == 0:
                            usable += 1
                            if usable == 2:
                                break
                    else:
                        break
            else:
                path.append(w)
                stack.append(iter(adj[w]))
                break
            visited[w] = False
        else:
            stack.pop()
            visited[path.pop()] = False
    return None
