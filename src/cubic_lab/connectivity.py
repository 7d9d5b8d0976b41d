"""Bridges, 2-edge-cuts, and the connectivity trichotomy for cubic graphs.

Terminology used throughout the package: a *bridge* is an edge whose removal
disconnects the graph; a *bi-bridge* is a pair of edges in a bridgeless graph
whose joint removal disconnects it; a connected cubic graph is exactly one of
bridge / biconnected (bridgeless but owning a bi-bridge) / three-connected
(bridgeless, no bi-bridge). For connected cubic graphs vertex and edge
connectivity coincide, so the trichotomy is just edge connectivity 1 / 2 / 3;
tests cross-check that equivalence against a brute-force vertex-cut oracle.

Every query here rides on one depth-first search (Tarjan 1974) that gives
each edge a cycle-space label. Each non-tree edge owns one bit of a Python
int; a tree edge gets the XOR of the non-tree edges whose fundamental cycles
pass through it, which is the XOR of the bits incident to its lower subtree.
The label of an edge is thus its incidence vector over the fundamental
cycles, and a nonempty edge set is a union of edge cuts exactly when its
labels XOR to zero (Pritchard & Thurimella, "Fast computation of small cuts
via cycle space sampling", ACM TALG 7(4), 2011). With one bit per non-tree
edge the test is exact, not sampled: an edge is a bridge iff its label is
0, and in a bridgeless graph {e, f} is a 2-edge-cut iff the two labels are
equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .errors import InputError, InvariantError
from .graphs import Edge, Graph, edge, is_cubic


@dataclass(frozen=True)
class BiBridge:
    """A 2-edge-cut with its two-sided vertex partition.

    ``side_a`` is the side containing vertex 0; ``balance`` is the absolute
    size difference of the sides. Each cut edge has one endpoint per side,
    and neither edge alone is a bridge.
    """

    e1: Edge
    e2: Edge
    side_a: frozenset[int]
    side_b: frozenset[int]
    balance: int


@dataclass(frozen=True)
class ConnectivityClass:
    bridge_count: int
    is_bridge_graph: bool
    is_biconnected: bool
    is_three_connected: bool

    @property
    def label(self) -> str:
        if self.is_bridge_graph:
            return "bridge"
        if self.is_biconnected:
            return "biconnected"
        return "three-connected"


def _cycle_labels(g: Graph) -> Optional[dict[tuple[int, int], int]]:
    """Cycle-space label of every edge, or None when g is disconnected.

    Labels are keyed by plain ``(u, w)`` pairs with u < w, which hash and
    compare like the ``Edge`` of the same pair; callers build an ``Edge``
    only for an edge they return. One iterative DFS from vertex 0 builds
    the tree; then every non-tree edge takes the next bit, and tree edges
    are filled in reverse preorder, each child's subtree XOR folding into
    its parent's.
    """
    n = g.n
    adj = g.adj
    parent = [-1] * n
    order: list[int] = []
    if n:
        seen = [False] * n
        seen[0] = True
        order.append(0)
        stack = [(0, iter(adj[0]))]
        while stack:
            v, nbrs = stack[-1]
            for w in nbrs:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    order.append(w)
                    stack.append((w, iter(adj[w])))
                    break
            else:
                stack.pop()
    if len(order) != n:
        return None
    inc = [0] * n  # XOR of the bits of the non-tree edges at each vertex
    labels: dict[tuple[int, int], int] = {}
    bit = 1
    for u in range(n):
        for w in adj[u]:
            if u < w and parent[w] != u and parent[u] != w:
                labels[u, w] = bit
                inc[u] ^= bit
                inc[w] ^= bit
                bit <<= 1
    for v in reversed(order):
        p = parent[v]
        if p != -1:
            labels[(p, v) if p < v else (v, p)] = inc[v]
            inc[p] ^= inc[v]
    return labels


def find_bridges(g: Graph) -> tuple[Edge, ...]:
    """All bridges (the edges labelled 0), sorted. Requires a connected graph."""
    labels = _cycle_labels(g)
    if labels is None:
        raise InputError("find_bridges requires a connected graph")
    return tuple(sorted(Edge(*e) for e, label in labels.items() if not label))


def two_edge_cuts(g: Graph) -> tuple[BiBridge, ...]:
    """Every unordered edge pair whose removal disconnects the graph.

    The host graph must be connected and bridgeless. The pairs are exactly
    those of equal cycle-space label, so one DFS finds them all; a group of
    k equal labels yields all k(k-1)/2 of its pairs. Sides are computed only
    for those pairs, and each is checked to split the graph in two with both
    cut edges spanning the sides. The brute-force pair-deletion oracle in the
    tests stays independent of this route.
    """
    labels = _cycle_labels(g)
    if labels is None:
        raise InputError("two_edge_cuts requires a connected graph")
    groups: dict[int, list[tuple[int, int]]] = {}
    for e, label in labels.items():
        if not label:
            raise InputError("two_edge_cuts requires a bridgeless graph")
        groups.setdefault(label, []).append(e)
    cuts: list[BiBridge] = []
    for group in groups.values():
        if len(group) < 2:
            continue
        for e1, e2 in combinations(sorted(Edge(*e) for e in group), 2):
            removed = {e1, e2}
            side_a = component_of(g, 0, removed)
            side_b = frozenset(range(g.n)) - side_a
            if not side_b or component_of(g, min(side_b), removed) != side_b:
                raise InvariantError(
                    f"edge pair {tuple(e1)},{tuple(e2)} does not split the graph in two"
                )
            for cut_edge in (e1, e2):
                if (cut_edge.u in side_a) == (cut_edge.v in side_a):
                    raise InvariantError(f"cut edge {tuple(cut_edge)} does not span the sides")
            cuts.append(
                BiBridge(e1, e2, side_a, side_b, abs(len(side_a) - len(side_b)))
            )
    cuts.sort(key=lambda bb: (bb.e1, bb.e2))
    return tuple(cuts)


def classify_connectivity(g: Graph) -> ConnectivityClass:
    """Sort a connected cubic graph into bridge / biconnected / three-connected.

    One labelling pass: the bridges are the zero labels, and a bridgeless
    graph is biconnected iff some label repeats.
    """
    if not is_cubic(g):
        raise InputError("classify_connectivity requires a cubic graph")
    labels = _cycle_labels(g)
    if labels is None:
        raise InputError("classify_connectivity requires a connected graph")
    bridge_count = sum(1 for label in labels.values() if not label)
    if bridge_count:
        return ConnectivityClass(bridge_count, True, False, False)
    has_cut = len(set(labels.values())) < len(labels)
    return ConnectivityClass(0, False, has_cut, not has_cut)


def most_balanced_bibridge(g: Graph) -> BiBridge:
    """The bi-bridge that most evenly splits the vertices.

    Ties resolve to the lexicographically least edge pair so repeated runs
    pick the same cut. Three-connected input has no bi-bridge and is an error.
    """
    if not is_cubic(g):
        raise InputError("most_balanced_bibridge requires a cubic graph")
    cuts = two_edge_cuts(g)
    if not cuts:
        raise InputError("graph has no bi-bridge (it is three-connected)")
    return min(cuts, key=lambda bb: (bb.balance, bb.e1, bb.e2))


def component_of(g: Graph, v: int, removed: set[Edge]) -> frozenset[int]:
    """Vertices reachable from v when ``removed`` edges are ignored."""
    comp = {v}
    queue = [v]
    while queue:
        u = queue.pop()
        for w in g.adj[u]:
            if w not in comp and edge(u, w) not in removed:
                comp.add(w)
                queue.append(w)
    return frozenset(comp)
