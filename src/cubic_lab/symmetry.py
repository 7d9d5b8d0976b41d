"""Exact isomorphism machinery for desk-scale graphs.

One search serves everything here. Canonical forms come from an
individualization-refinement search that keeps the lexicographically least
relabeled edge list over all refinement leaves, so equality of canonical
byte strings is exactly isomorphism (no heuristic invariants stand in for
the search). The same search records an automorphism at every leaf whose
code equals the best one. Those generate the automorphism group: its
explicit listing is their closure, and edge orbits come from them directly.
Sizes are capped because the census workloads this package targets
never exceed a few dozen vertices and exactness matters more than
asymptotics here.

The starting partition groups vertices by ``_vertex_keys``: degree,
triangles, then the BFS layer sizes from the vertex, negated, and the
count of vertices it cannot reach. They come from one bit-parallel pass
over all vertices and order vertices exactly as (degree, triangles,
sorted BFS distances) would (proof in ``_vertex_keys``). Their sorted
multiset is an isomorphism invariant of the whole graph, and so is that
of the cheaper ``_near_keys``: degree, triangles and the sizes of the
balls of radius 2 and 3. ``isomorphic_pairs`` (and ``are_isomorphic``
through it) screens in three stages: sorted near keys, then sorted full
keys only where near keys tie, then the canonical search only where full
keys tie; equal canonical graph6 bytes decide each tied pair. A ball's
size is a partial sum of the layer sizes, so the near key is a function
of the full key, and the near-key stage never splits graphs whose full
keys tie: the graphs that reach the search are those of a full-key
screen alone.
Refinement keys a vertex by the sorted cell indices of its neighbors. The
search skips subtrees that are images of earlier ones: two leaves with
equal codes give an automorphism, and a child in the orbit of an explored
sibling under the recorded automorphisms that fix the current path is
skipped. A skipped subtree holds the same codes as the earlier one it is
an image of, so the least code is unchanged, and no leaf in it comes first
with that code, so the labeling is unchanged too: the result is exactly
that of the walk over every leaf. By the same argument the search from any
node reaches the least code of that node's full subtree.

Lemma: the recorded automorphisms generate Aut(G). Let z* be the first
leaf reaching the least code, on the path m_0 < m_1 < ... < m_L, where m_k
has individualized v_1, ..., v_k, and let A_k be the automorphisms fixing
v_1, ..., v_k. By descending induction on k, the recorded automorphisms R
generate A_k.
  - k = L: a leaf partition is discrete and refinement is equivariant, so
    A_L is trivial.
  - k < L: take g in A_k. It fixes the partition at m_k, so w = g(v_{k+1})
    lies in the target cell there, and the subtree at w is the g-image of
    the one at v_{k+1}, so it holds the least code. If w was skipped, it is
    d(u) for an explored sibling u and a product d of recorded
    automorphisms that fix v_1, ..., v_k; replace g by d^-1 g and w by u.
    Now w is explored. Had it come before v_{k+1}, the search would have
    reached the least code in its subtree before z*. So w is v_{k+1} (g is
    in A_{k+1}) or a later sibling, where the search reaches a leaf z' with
    the least code while z* is already best and records the map h: z' ->
    z*. Refinement splits cells in place, so a vertex keeps its position
    once it is a singleton, and the individualized vertex takes the first
    position of the target cell: h fixes v_1, ..., v_k and sends w to
    v_{k+1}, so h g lies in A_{k+1}, which R generates.
With k = 0, R generates Aut(G).

A root r runs the same search with r split out of its key cell as a
singleton placed first, as ``visit`` individualizes a vertex; call that
node m_0. Every automorphism preserves the key partition, so the
automorphisms that preserve m_0 are exactly those fixing r. The induction
above, started at m_0 with A_k the automorphisms fixing r, v_1, ..., v_k,
goes through unchanged: r keeps its position at every node below m_0, so
every recorded map fixes it, and at k = 0 R generates Stab(r). With or
without a root the edge orbits are the classes of edges that R joins, so
no group is listed. Every recorded permutation is still checked against
the edge set.

"Distinct" edges follow the orbit view: two edges are interchangeable when
some admitted automorphism maps one onto the other. The root picks the
group: without one it is Aut(G), with one it is Stab(root), which is what
distance-from-root arguments need, since only automorphisms fixing the
root keep distances from it. ``MODE_FULL`` and ``MODE_STABILIZER`` name
that choice where a caller states it, as ``insertion_family`` does; they
are defined in ``graphs``, so that the CLI can offer them without loading
this module.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

from .connectivity import find_bridges
from .errors import InputError, InvariantError
from .graphs import MODE_FULL, MODE_STABILIZER  # re-exported for the callers that name a mode
from .graphs import Edge, Graph, _graph6_bytes, edge

CANON_MAX_N = 24
GROUP_MAX_N = 16


class CanonicalForm(NamedTuple):
    """Canonical graph6 bytes plus the relabeling (old id -> new id) that
    produces them."""

    graph6: bytes
    labeling: tuple[int, ...]


def _neighbour_masks(adj: Sequence[Sequence[int]]) -> list[int]:
    """Each vertex's neighbours as a bitmask: bit w of ``nb[v]`` is set iff
    w is a neighbour of v."""
    nb = []
    for nbrs in adj:
        mask = 0
        for w in nbrs:
            mask |= 1 << w
        nb.append(mask)
    return nb


def _vertex_keys(adj: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Cheap isomorphism-invariant vertex signatures on adjacency lists:
    (degree, triangles through v, -s_1, ..., -s_D, u), where s_k is the
    number of vertices at BFS distance k from v, D is the largest distance
    reached and u is the number of vertices v cannot reach. They seed the
    refinement.

    One bit-parallel pass serves every vertex. ``nb[v]`` is v's neighbour
    bitmask and ``reach[v]`` the set within distance k, grown one layer per
    round for all vertices at once: reach'[v] = reach[v] | the OR of
    reach[w] over v's neighbours w. A layer's size is the growth in
    popcount, and a vertex whose reach stops growing has reached its whole
    component. Triangles through v are the sum of |nb[a] & nb[v]| over v's
    neighbours a, halved; each edge's common-neighbour count is taken once
    and added to both its ends.

    These keys order vertices exactly as (degree, triangles, sorted BFS
    distances, with n standing in for every unreachable vertex) would.
    Take two such distance tuples d, d' of one length n, with layer sizes
    s, s'. If the sizes first differ at k and s_k > s'_k, d continues with
    k where d' has a larger value, so d < d'; and -s_k < -s'_k. If s
    stops at D while s' goes on, d has n at the position where d' has
    D + 1, so d' < d; and -s'_{D+1} < 0 <= u. If s = s', then u = u'
    (the sizes and u add up to n), and d = d'. So the keys and the
    distance tuples agree on <, = and >, on one graph and across graphs
    with equal n.
    """
    n = len(adj)
    nb = _neighbour_masks(adj)
    common = [0] * n
    for u, nbrs in enumerate(adj):
        nb_u = nb[u]
        for w in nbrs:
            if u < w:
                c = (nb_u & nb[w]).bit_count()
                common[u] += c
                common[w] += c
    keys = [
        [len(nbrs), common[v] // 2, -len(nbrs)] if nbrs else [0, 0]
        for v, nbrs in enumerate(adj)
    ]
    reach = [nb[v] | 1 << v for v in range(n)]
    size = [len(nbrs) + 1 for nbrs in adj]
    # a vertex that reaches all n needs no further round
    growing = [v for v in range(n) if 1 < size[v] < n]
    while growing:
        grown = reach[:]
        still = []
        for v in growing:
            r = reach[v]
            for w in adj[v]:
                r |= reach[w]
            if r != reach[v]:
                c = r.bit_count()
                keys[v].append(size[v] - c)
                size[v] = c
                grown[v] = r
                if c < n:
                    still.append(v)
        reach = grown
        growing = still
    for v in range(n):
        keys[v].append(n - size[v])
    return [tuple(k) for k in keys]


def _near_keys(adj: Sequence[Sequence[int]]) -> list[tuple[int, int, int, int]]:
    """Per-vertex (degree, triangles through v, |B_2(v)|, |B_3(v)|), where
    B_r(v) is the ball of radius r around v: the screen ``isomorphic_pairs``
    runs before ``_vertex_keys``.

    Two OR rounds over the neighbour bitmasks give the balls: B_2(v) is v
    and its neighbours' neighbourhoods, and B_3(v) the union of B_2 over v
    and its neighbours. Triangles through v are half the sum of
    |nb[v] & nb[w]| over v's neighbours w.

    These keys are a function of ``_vertex_keys``: degree and triangles
    are its first two entries, and |B_r(v)| = 1 + s_1 + ... + s_r with
    s_k = 0 past the last layer. So graphs with equal sorted full keys have
    equal sorted near keys.
    """
    nb = _neighbour_masks(adj)
    ball2 = []
    for v, nbrs in enumerate(adj):
        r = nb[v] | 1 << v
        for w in nbrs:
            r |= nb[w]
        ball2.append(r)
    keys = []
    for v, nbrs in enumerate(adj):
        nb_v = nb[v]
        common = 0
        r = ball2[v]
        for w in nbrs:
            common += (nb_v & nb[w]).bit_count()
            r |= ball2[w]
        keys.append((len(nbrs), common >> 1, ball2[v].bit_count(), r.bit_count()))
    return keys


def _refine(adj: Sequence[Sequence[int]], cells: list[list[int]]) -> list[list[int]]:
    """Split cells by neighbor counts until the partition is equitable.

    Each turn splits the first cell whose vertices disagree on how many
    neighbors they have in each cell, then starts over from the first cell.
    A vertex is keyed by the sorted tuple of its neighbors' cell indices
    (kept current through ``cell_of``), which costs O(deg) instead of one
    count per cell. Groups are ordered by that tuple descending: every
    vertex of a cell has the same degree, so this is exactly ascending
    order of the per-cell count vectors.

    Cells come in sorted and stay sorted. Cell order and split order depend
    only on position and count keys, never on raw vertex ids, so the
    refinement commutes with relabeling.
    """
    cells = list(cells)
    cell_of = [0] * len(adj)
    for i, cell in enumerate(cells):
        for v in cell:
            cell_of[v] = i
    i = 0
    while i < len(cells):
        cell = cells[i]
        if len(cell) > 1:
            keyed: dict[tuple, list[int]] = {}
            for v in cell:
                k = tuple(sorted([cell_of[w] for w in adj[v]]))
                keyed.setdefault(k, []).append(v)
            if len(keyed) > 1:
                cells[i:i + 1] = [keyed[k] for k in sorted(keyed, reverse=True)]
                for j in range(i, len(cells)):
                    for v in cells[j]:
                        cell_of[v] = j
                i = 0
                continue
        i += 1
    return cells


def _search(
    g: Graph, root: Optional[int] = None
) -> tuple[tuple[int, ...], list[tuple[int, ...]], tuple[Edge, ...]]:
    """The individualization-refinement search on a graph with n >= 1:
    the labeling (old id -> new id) of the first leaf reaching the least
    code, the automorphisms recorded at leaves with equal codes, and
    ``g.edges()``, which the leaf codes read, so that a caller that needs
    the edges too lists them once per search. With a
    root, the search starts with the root split out of its key cell as a
    singleton placed first, so every recorded automorphism fixes it and
    together they generate its stabilizer (module docstring). No cap and no
    cache; ``canonical_form`` and ``automorphism_group`` add both, and
    ``edge_orbits`` adds the cap."""
    n = g.n
    adj = g.adj
    by_key: dict[tuple, list[int]] = {}
    for v, k in enumerate(_vertex_keys(adj)):
        by_key.setdefault(k, []).append(v)
    start = [by_key[k] for k in sorted(by_key)]
    path: list[int] = []
    if root is not None:
        i = next(i for i, c in enumerate(start) if root in c)
        rest = [w for w in start[i] if w != root]
        start[i:i + 1] = [[root], rest] if rest else [[root]]
        path.append(root)
    edges = g.edges()
    best_code: Optional[list[int]] = None
    best_labeling: Optional[tuple[int, ...]] = None
    best_order: list[int] = []
    automorphisms: list[tuple[int, ...]] = []

    def visit(cells: list[list[int]], path: list[int]) -> None:
        nonlocal best_code, best_labeling, best_order
        cells = _refine(adj, cells)
        if len(cells) == n:
            pos = [0] * n
            for i, (v,) in enumerate(cells):
                pos[v] = i
            # edge (a, b), a < b, as a * n + b: same order as the pairs
            code = sorted([
                pos[u] * n + pos[w] if pos[u] < pos[w] else pos[w] * n + pos[u]
                for u, w in edges
            ])
            if best_code is None or code < best_code:
                best_code = code
                best_labeling = tuple(pos)
                best_order = [c[0] for c in cells]
            elif code == best_code:
                # equal codes: the vertex at position p here maps to the
                # best leaf's vertex at p
                automorphisms.append(tuple(best_order[p] for p in pos))
            return
        target = next(i for i, c in enumerate(cells) if len(c) > 1)
        cell = cells[target]
        # orbits on the target cell of the recorded automorphisms that fix
        # the path pointwise; those map the node to itself and a child's
        # subtree onto its image's subtree, codes included
        orbit = {v: v for v in cell}

        def find(v: int) -> int:
            while orbit[v] != v:
                orbit[v] = orbit[orbit[v]]
                v = orbit[v]
            return v

        absorbed = 0
        explored: list[int] = []
        for v in cell:
            if explored:
                for gamma in automorphisms[absorbed:]:
                    if all(gamma[x] == x for x in path):
                        for x in cell:
                            a, b = find(x), find(gamma[x])
                            if a != b:
                                orbit[max(a, b)] = min(a, b)
                absorbed = len(automorphisms)
                root = find(v)
                if any(find(u) == root for u in explored):
                    continue
            rest = [w for w in cell if w != v]
            visit(cells[:target] + [[v], rest] + cells[target + 1:], path + [v])
            explored.append(v)

    visit(start, path)
    assert best_labeling is not None
    return best_labeling, automorphisms, edges


def _canonical_graph6(g: Graph, labeling: Sequence[int]) -> bytes:
    """The graph6 bytes of g relabeled by the search's labeling, written
    from g's rows without building the relabeled graph."""
    rows: list[Sequence[int]] = [()] * g.n
    for u, nbrs in enumerate(g.adj):
        rows[labeling[u]] = [labeling[w] for w in nbrs]
    return bytes(_graph6_bytes(g.n, rows))


@lru_cache(maxsize=16384)
def canonical_form(g: Graph) -> CanonicalForm:
    """Deterministic, relabeling-invariant canonical form.

    The empty graph maps to the fixed sentinel b"?" (its graph6 encoding).
    """
    if g.n > CANON_MAX_N:
        raise InputError(f"canonical_form supports at most {CANON_MAX_N} vertices")
    if g.n == 0:
        return CanonicalForm(b"?", ())
    labeling = _search(g)[0]
    return CanonicalForm(_canonical_graph6(g, labeling), labeling)


def isomorphic_pairs(graphs: Sequence[Graph]) -> tuple[tuple[int, int], ...]:
    """The index pairs (i, j), i < j, of isomorphic graphs, in ascending order.

    Graphs are grouped by n, then by three keys in turn, each computed only
    for the graphs that tied on every key before it: their sorted
    ``_near_keys``, their sorted ``_vertex_keys`` and their canonical graph6
    bytes. Isomorphic graphs share all four, and the last decides
    isomorphism, so the pairs are those of the final groups. The near keys
    are a function of the full keys, so the near-key stage splits no group
    that the full keys would keep together: the graphs that reach
    ``canonical_form``, and so the canonical cap, are exactly those whose
    n and sorted full keys another graph shares.
    """
    stages = (
        lambda g: g.n,
        lambda g: tuple(sorted(_near_keys(g.adj))),
        lambda g: tuple(sorted(_vertex_keys(g.adj))),
        lambda g: canonical_form(g).graph6,
    )
    groups: list[Sequence[int]] = [range(len(graphs))]
    for key in stages:
        tied = []
        for group in groups:
            by_key: dict[object, list[int]] = {}
            for i in group:
                by_key.setdefault(key(graphs[i]), []).append(i)
            tied.extend(same for same in by_key.values() if len(same) > 1)
        groups = tied
    return tuple(sorted(pair for same in groups for pair in combinations(same, 2)))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return bool(isomorphic_pairs((g, h)))


def _check_automorphisms(
    edges: Sequence[Edge], perms: Sequence[Sequence[int]], root: Optional[int] = None
) -> None:
    """Raise InvariantError unless every permutation the search recorded
    maps the graph's edges onto themselves (and fixes the root, when one
    is given)."""
    edge_set = set(edges)
    for gamma in perms:
        image = {(min(gamma[u], gamma[w]), max(gamma[u], gamma[w])) for u, w in edges}
        if image != edge_set or (root is not None and gamma[root] != root):
            raise InvariantError("canonical search recorded a non-automorphism")


@lru_cache(maxsize=4096)
def automorphism_group(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The full automorphism group as explicit permutations (perm[old] = new).

    The permutations are the closure, by breadth-first search from the
    identity, of the automorphisms the canonical search records at leaves
    with equal codes; those generate the whole group (module docstring).
    """
    if g.n > GROUP_MAX_N:
        raise InputError(f"automorphism_group supports at most {GROUP_MAX_N} vertices")
    n = g.n
    if n == 0:
        return ((),)
    _, generators, edges = _search(g)
    _check_automorphisms(edges, generators)
    identity = tuple(range(n))
    group = {identity}
    queue = [identity]
    for p in queue:
        for gamma in generators:
            q = tuple([gamma[x] for x in p])
            if q not in group:
                group.add(q)
                queue.append(q)
    return tuple(sorted(group))


def _orbit_roots(items: Sequence, generators: Sequence[Sequence[int]], image) -> list[int]:
    """For each item, the least index of its orbit under the group the
    generators generate, where ``image(gamma, item)`` is the item gamma
    maps it to. Union-find joins every item with each of its images."""
    index = {x: i for i, x in enumerate(items)}
    parent = list(range(len(items)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for gamma in generators:
        for i, x in enumerate(items):
            j, k = find(i), find(index[image(gamma, x)])
            if j != k:
                parent[max(j, k)] = min(j, k)
    return [find(i) for i in range(len(items))]


def _orbits_of_edges(
    edges: Sequence[Edge], generators: Sequence[Sequence[int]]
) -> tuple[tuple[Edge, ...], ...]:
    """The classes of the sorted ``edges`` that the permutations join:
    sorted, in the order of their least edges."""
    roots = _orbit_roots(edges, generators, lambda gamma, e: edge(gamma[e.u], gamma[e.v]))
    # edges come sorted and a class's root is its least index, so orbits
    # form sorted, in the order of their least edges
    grouped: dict[int, list[Edge]] = {}
    for first, e in zip(roots, edges):
        grouped.setdefault(first, []).append(e)
    return tuple(tuple(members) for members in grouped.values())


def _edge_orbit_search(
    g: Graph, root: Optional[int] = None
) -> tuple[tuple[tuple[Edge, ...], ...], list[tuple[int, ...]], tuple[int, ...]]:
    """``edge_orbits(g, root)``, the checked generators it came from and
    the search's labeling; without a root that labeling is
    ``canonical_form(g).labeling`` for n >= 1."""
    if root is not None and not 0 <= root < g.n:
        raise InputError(f"vertex {root} out of range")
    if g.n > CANON_MAX_N:
        raise InputError(f"edge_orbits supports at most {CANON_MAX_N} vertices")
    labeling, generators, edges = _search(g, root) if g.n else ((), [], ())
    _check_automorphisms(edges, generators, root)
    return _orbits_of_edges(edges, generators), generators, labeling


def edge_orbits(g: Graph, root: Optional[int] = None) -> tuple[tuple[Edge, ...], ...]:
    """Partition the edges into orbits: under Aut(G) without a root, under
    the root's stabilizer with one.

    The orbits are the classes of edges joined by the generators the
    canonical search records, individualizing the root first when there
    is one. No group is listed, so the cap is the canonical one. Orbits
    are sorted, in the order of their least edges.
    """
    return _edge_orbit_search(g, root)[0]


def _count_cycle_orbits(g: Graph, orbits: Sequence[Sequence[Edge]]) -> int:
    """How many of g's edge orbits lie on cycles; an orbit that mixes
    bridges and cycle edges is an InvariantError."""
    bridges = set(find_bridges(g))
    count = 0
    for orbit in orbits:
        on_cycle = [e not in bridges for e in orbit]
        if any(on_cycle) != all(on_cycle):
            raise InvariantError("orbit mixes bridge and cycle edges")
        if on_cycle[0]:
            count += 1
    return count


def distinct_cycle_edges(g: Graph) -> int:
    """The number of Aut(G) edge orbits that lie on cycles (an edge is on a
    cycle iff it is not a bridge)."""
    return _count_cycle_orbits(g, edge_orbits(g))
