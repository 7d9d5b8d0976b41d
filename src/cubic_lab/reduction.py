"""Shrinking a constructed bridge graph back down, two vertices at a time.

A reducible state is a connected cubic bridge graph together with the bridge
side being worked on, the root (the bridge endpoint on that side), BFS
distances from the root, and the side's distinct-cycle-edge count. One
reduction step selects the region of the side nearest the root, classifies
it, and applies the matching two-vertex removal:

  isolated triangle  -> contract the triangle to a single vertex
  adjacent triangles -> excise the diamond, patch with two new vertices and
                        one cycle insertion
  horizontal edge    -> drop both endpoints of an equal-depth edge and
                        reconnect their hanging neighbors
  complete tree      -> no removal applies; the state is reported instead

A complete tree is one rule, ``is_complete_tree``, shared with the census
probe: a tree rooted at the root, two children under every internal vertex
and every leaf at one depth (a single vertex counts). A region with no
triangle and no horizontal edge that is not one (a cycle through two
parents of one vertex, say) matches no case, and ``classify_region``
raises InputError naming the graph and the region, as the surgeries
refuse the configurations they cannot handle.

Each step must leave the graph connected, cubic, and bridge, exactly two
vertices smaller, with no surviving side vertex farther from the root than
before. Violations raise InvariantError with the broken constraint named;
misclassification is never silent.

Region selection mirrors the census work this supports: with k distinct
cycle edges on the side, the floor of the fifth root of k vertices nearest
the root are taken and the deepest of those are dropped. Below k = 32 that
is fewer than two vertices, a "region underflow" input error. For
32 <= k < 1024, m = floor(k**(1/5)) is 2 or 3, so ``nearest_region`` is
{root}: the root has degree 2 on its side, the m nearest vertices are the
root and depth-1 vertices, and the depth-1 layer is dropped. A single
vertex is a complete tree. The triangle, diamond and horizontal-edge cases
need m >= 4, that is k >= 1024; tests reach it by supplying k by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .connectivity import find_bridges
from .errors import InputError, InvariantError
from .graphs import (
    DistanceProfile,
    Edge,
    Graph,
    add_edges,
    add_vertices,
    bfs_distances,
    edge,
    emit_graph6,
    induced_subgraph,
    is_connected,
    is_cubic,
    remove_edges,
    remove_vertices,
)
from .symmetry import distinct_cycle_edges
from .construction import ConstructionRecord, cycle_insertion


@dataclass(frozen=True)
class ReducibleState:
    """A bridge graph mid-reduction: the working side, its root (the bridge
    endpoint on the side), BFS distances from the root within the side, and
    the side's distinct-cycle-edge count k, which sizes the region."""

    graph: Graph
    root: int
    side: frozenset[int]
    bridge: Edge
    profile: DistanceProfile
    side_cycle_orbits: int


def make_reducible_state(
    graph: Graph,
    root: int,
    side: frozenset[int],
    bridge: Edge,
    *,
    side_cycle_orbits: Optional[int] = None,
) -> ReducibleState:
    """Validate and assemble a state; ``side_cycle_orbits`` may be supplied
    to stand in for the computed count (tests use this to reach region sizes
    that only occur at scales the orbit machinery cannot touch)."""
    if not is_cubic(graph) or not is_connected(graph):
        raise InputError("reducible state needs a connected cubic graph")
    bridges = find_bridges(graph)
    if bridge not in bridges:
        raise InputError(f"{tuple(bridge)} is not a bridge of the graph")
    if root not in side or root not in (bridge.u, bridge.v):
        raise InputError("root must be the bridge endpoint inside the side")
    profile = bfs_distances(graph, root, within=side)
    if any(profile.dist[v] is None for v in side):
        raise InputError("side is not internally connected from the root")
    k_side = side_cycle_orbits
    if k_side is None:
        side_sub, _ = induced_subgraph(graph, side)
        k_side = distinct_cycle_edges(side_sub)
    if k_side < 1:
        raise InputError("side has no cycle edges at all")
    return ReducibleState(graph, root, side, bridge, profile, k_side)


def build_reducible_state(rec: ConstructionRecord, e: Edge) -> ReducibleState:
    """State for the graph produced by one cycle insertion on a record."""
    a = cycle_insertion(rec, e)
    return make_reducible_state(a, rec.root, rec.active_side, rec.bridge)


# ---------------------------------------------------------------------------
# region extraction and classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsolatedTriangle:
    triangle: tuple[int, int, int]


@dataclass(frozen=True)
class AdjacentTriangles:
    diamond: tuple[int, int, int, int]


@dataclass(frozen=True)
class HorizontalEdge:
    edge: Edge


@dataclass(frozen=True)
class CompleteTree:
    pass


RegionCase = Union[IsolatedTriangle, AdjacentTriangles, HorizontalEdge, CompleteTree]


def int_fifth_root(k: int) -> int:
    """Largest m with m**5 <= k (integer arithmetic, no float drift)."""
    if k < 0:
        raise InputError("fifth root of a negative count")
    m = 0
    while (m + 1) ** 5 <= k:
        m += 1
    return m


def nearest_region(st: ReducibleState) -> frozenset[int]:
    """The floor(k**(1/5)) side vertices nearest the root, minus the deepest
    layer of that selection. Ties inside a layer break by vertex id."""
    m = int_fifth_root(st.side_cycle_orbits)
    if m < 2:
        raise InputError(
            f"region underflow: fifth root of {st.side_cycle_orbits} cycle orbits "
            f"selects {m} vertex(es)"
        )
    if len(st.side) < m:
        raise InputError(
            f"region underflow: side has {len(st.side)} vertices, need {m}"
        )
    return nearest_vertices(st.side, st.profile.dist, m)


def nearest_vertices(
    vertices: Iterable[int], dist: Sequence[Optional[int]], m: int
) -> frozenset[int]:
    """The m of ``vertices`` nearest the root by ``dist`` (all of them if
    there are fewer), minus the deepest layer of that selection. That is
    every vertex shallower than the m-th nearest, so how ties inside a
    layer break (by vertex id) cannot change it. Shared by
    ``nearest_region`` and the census complete-tree probe."""
    chosen = sorted(vertices, key=lambda v: (dist[v], v))[:m]
    deepest = max(dist[v] for v in chosen)
    return frozenset(v for v in chosen if dist[v] < deepest)


def is_complete_tree(sub: Graph, root: int) -> bool:
    """Tree rooted at ``root`` with exactly two children under every internal
    vertex and all leaves at equal depth; a single vertex counts."""
    if sub.n == 1:
        return True
    if sub.m != sub.n - 1:
        return False
    profile = bfs_distances(sub, root)
    if any(d is None for d in profile.dist):
        return False
    depth = profile.max_dist
    for v in range(sub.n):
        d = profile.dist[v]
        children = sum(1 for w in sub.adj[v] if profile.dist[w] == d + 1)
        if d < depth and children != 2:
            return False
        if d == depth and children != 0:
            return False
    return True


def _triangles(sub: Graph) -> list[tuple[int, int, int]]:
    out = []
    for u in range(sub.n):
        for w in sub.adj[u]:
            if w <= u:
                continue
            for x in sub.adj[w]:
                if x > w and sub.has_edge(u, x):
                    out.append((u, w, x))
    return out


def classify_region(graph: Graph, region: frozenset[int], profile: DistanceProfile) -> RegionCase:
    """Route a region to its reduction case, in fixed priority order. A
    region that matches none (module docstring) raises InputError."""
    if not region:
        raise InputError("cannot classify an empty region")
    sub, remap = induced_subgraph(graph, region)
    inverse = {new: old for old, new in remap.items()}
    tris = _triangles(sub)
    if tris:
        shared = [
            t for t in tris
            if any(len(set(t) & set(o)) == 2 for o in tris if o != t)
        ]
        isolated = [t for t in tris if t not in shared]
        if isolated:
            best = min(tuple(sorted(inverse[v] for v in t)) for t in isolated)
            return IsolatedTriangle(best)
        diamonds = []
        for i, t in enumerate(tris):
            for o in tris[i + 1:]:
                if len(set(t) & set(o)) == 2:
                    diamonds.append(tuple(sorted(inverse[v] for v in set(t) | set(o))))
        return AdjacentTriangles(min(diamonds))
    level_edges = [
        edge(inverse[u], inverse[w])
        for u, w in sub.edges()
        if profile.dist[inverse[u]] == profile.dist[inverse[w]]
    ]
    if level_edges:
        return HorizontalEdge(min(level_edges))
    if profile.root not in region or not is_complete_tree(sub, remap[profile.root]):
        raise InputError(
            f"region {sorted(region)} of {emit_graph6(graph)} has no triangle and "
            f"no horizontal edge but is not a complete tree rooted at {profile.root}"
        )
    return CompleteTree()


# ---------------------------------------------------------------------------
# the three structural two-vertex removals
# ---------------------------------------------------------------------------

def contract_triangle(g: Graph, triangle: tuple[int, int, int]) -> tuple[Graph, dict[int, int], int]:
    """Replace a triangle by one vertex joined to the three outside
    neighbors. Returns (graph, survivor remap, new vertex id).

    The three outside neighbors must be distinct; a shared neighbor means the
    triangle was not isolated (it sits in a diamond) and is reported as a
    misclassification instead of silently producing a parallel edge.
    """
    tri = tuple(sorted(set(triangle)))
    if len(tri) != 3:
        raise InputError(f"{triangle} is not a triangle (needs 3 distinct vertices)")
    a, b, c = tri
    if not (g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)):
        raise InputError(f"{tri} is not a triangle (missing an edge)")
    externals = []
    for v in tri:
        outside = [w for w in g.adj[v] if w not in tri]
        if len(outside) != 1:
            raise InputError(f"triangle vertex {v} does not have exactly one outside neighbor")
        externals.append(outside[0])
    if len(set(externals)) != 3:
        raise InputError(
            f"triangle {tri} shares an outside neighbor (adjacent-triangle "
            "configuration, not an isolated one)"
        )
    shrunk, remap = remove_vertices(g, tri)
    hub = shrunk.n
    result = add_edges(add_vertices(shrunk, 1), [(hub, remap[x]) for x in externals])
    return result, remap, hub


def stage_diamond_removal(
    g: Graph,
    diamond: tuple[int, int, int, int],
    *,
    keep_within: Optional[frozenset[int]] = None,
) -> tuple[Graph, dict[int, int], int, int, list[Edge]]:
    """Remove a diamond (two triangles sharing an edge), patch the two loose
    ends with a new vertex, and hang a second, still-deficient vertex off it.

    Returns (staged graph, survivor remap, patch vertex, second vertex, and
    the cycle edges eligible for the finishing insertion, in canonical
    order). ``keep_within`` restricts eligible edges to a vertex set (the
    working side, when called from a state); they never touch either new
    vertex. The two edges leaving the diamond must reach two different
    vertices; a shared target is reported as a contradiction with the host
    being bridgeless there.
    """
    quad = tuple(sorted(set(diamond)))
    if len(quad) != 4:
        raise InputError(f"{diamond} is not a diamond (needs 4 distinct vertices)")
    sub, _ = induced_subgraph(g, quad)
    if sub.m != 5:
        raise InputError(f"{quad} does not induce a diamond (5 edges), found {sub.m}")
    tips = [v for v in quad if len([w for w in g.adj[v] if w in quad]) == 2]
    if len(tips) != 2:
        raise InputError(f"{quad} does not have exactly two degree-2-inside tips")
    externals = []
    for v in tips:
        outside = [w for w in g.adj[v] if w not in quad]
        if len(outside) != 1:
            raise InputError(f"diamond tip {v} does not have exactly one outside edge")
        externals.append(outside[0])
    if externals[0] == externals[1]:
        raise InputError(
            f"both edges leaving diamond {quad} meet vertex {externals[0]}; its "
            "third edge would be a bridge, contradicting a bridgeless side"
        )
    shrunk, remap = remove_vertices(g, quad)
    patch = shrunk.n
    second = shrunk.n + 1
    staged = add_edges(
        add_vertices(shrunk, 2),
        [(patch, remap[externals[0]]), (patch, remap[externals[1]]), (patch, second)],
    )
    if not is_connected(staged):
        raise InvariantError("patching the diamond left the graph disconnected")
    pool_vertices = (
        set(remap.values()) if keep_within is None
        else {remap[v] for v in keep_within if v in remap}
    )
    pool_vertices.add(patch)
    bridges = set(find_bridges(staged))
    pool = sorted(
        e for e in staged.edges()
        if e not in bridges
        and patch not in e and second not in e
        and e.u in pool_vertices and e.v in pool_vertices
    )
    if not pool:
        raise InputError("no cycle edge available for the finishing insertion")
    return staged, remap, patch, second, pool


def finish_diamond_splice(staged: Graph, second: int, consumed: Edge) -> Graph:
    """Complete the splice: delete the chosen cycle edge and feed both of
    its endpoints to the still-deficient second vertex."""
    return add_edges(
        remove_edges(staged, [consumed]),
        [(consumed.u, second), (consumed.v, second)],
    )


def excise_horizontal_pair(g: Graph, level_edge: Edge) -> tuple[Graph, dict[int, int]]:
    """Delete both endpoints of an edge and rejoin each endpoint's two other
    neighbors to each other. Returns (graph, survivor remap).

    Structural requirements (each failure names the simplicity constraint it
    would break): the endpoints share no neighbor, and neither endpoint's two
    other neighbors are already adjacent.
    """
    u, v = level_edge
    if not g.has_edge(u, v):
        raise InputError(f"({u},{v}) is not an edge")
    if g.degree(u) != 3 or g.degree(v) != 3:
        raise InputError("both endpoints must be cubic")
    shared = set(g.adj[u]) & set(g.adj[v])
    if shared:
        raise InputError(
            f"endpoints {u},{v} share neighbor(s) {sorted(shared)}: a triangle, "
            "so this is not a triangle-free configuration"
        )
    rest_u = [w for w in g.adj[u] if w != v]
    rest_v = [w for w in g.adj[v] if w != u]
    if g.has_edge(rest_u[0], rest_u[1]):
        raise InputError(
            f"the other neighbors {rest_u} of {u} are already adjacent; rejoining "
            "them would duplicate an edge"
        )
    if g.has_edge(rest_v[0], rest_v[1]):
        raise InputError(
            f"the other neighbors {rest_v} of {v} are already adjacent; rejoining "
            "them would duplicate an edge"
        )
    shrunk, remap = remove_vertices(g, (u, v))
    result = add_edges(shrunk, [
        (remap[rest_u[0]], remap[rest_u[1]]),
        (remap[rest_v[0]], remap[rest_v[1]]),
    ])
    return result, remap


# ---------------------------------------------------------------------------
# state-level reduction steps
# ---------------------------------------------------------------------------

def _next_state(
    st: ReducibleState,
    result: Graph,
    remap: dict[int, int],
    new_side_vertices: tuple[int, ...],
) -> ReducibleState:
    """Rebuild the state after a two-vertex removal and assert every
    postcondition: size down by two, connected, cubic, bridge preserved,
    and no surviving side vertex farther from the root."""
    if result.n != st.graph.n - 2:
        raise InvariantError("reduction step did not remove exactly two vertices")
    if not is_cubic(result):
        raise InvariantError("reduction step broke cubicity")
    if not is_connected(result):
        raise InvariantError("reduction step disconnected the graph")
    if st.root not in remap:
        raise InvariantError("reduction step deleted the root")
    new_root = remap[st.root]
    new_bridge = edge(remap[st.bridge.u], remap[st.bridge.v])
    if new_bridge not in find_bridges(result):
        raise InvariantError("reduction step destroyed the working bridge")
    new_side = frozenset(
        {remap[v] for v in st.side if v in remap} | set(new_side_vertices)
    )
    nxt = make_reducible_state(result, new_root, new_side, new_bridge)
    for v in st.side:
        if v not in remap:
            continue
        before = st.profile.dist[v]
        after = nxt.profile.dist[remap[v]]
        if before is not None and (after is None or after > before):
            raise InvariantError(
                f"distance from the root increased at surviving vertex {v}"
            )
    return nxt


def reduce_isolated_triangle(st: ReducibleState, case: IsolatedTriangle) -> ReducibleState:
    tri = case.triangle
    if not set(tri) <= st.side:
        raise InputError("triangle must lie on the working side")
    if st.root in tri:
        raise InputError("refusing to contract a triangle through the root")
    result, remap, hub = contract_triangle(st.graph, tri)
    return _next_state(st, result, remap, (hub,))


def reduce_adjacent_triangles(st: ReducibleState, case: AdjacentTriangles) -> ReducibleState:
    quad = case.diamond
    if not set(quad) <= st.side:
        raise InputError("diamond must lie on the working side")
    if st.root in quad:
        raise InputError("refusing to excise a diamond through the root")
    staged, remap, patch, second, pool = stage_diamond_removal(
        st.graph, quad, keep_within=st.side
    )
    # an arbitrary cycle edge may carry shortest paths whose loss pushes a
    # vertex deeper; take the first candidate (canonical order) that keeps
    # every surviving distance in check, so the step's guarantees all hold
    new_root = remap[st.root]
    new_side = {remap[v] for v in st.side if v in remap} | {patch, second}
    for consumed in pool:
        result = finish_diamond_splice(staged, second, consumed)
        after = bfs_distances(result, new_root, within=new_side)
        ok = all(
            after.dist[remap[v]] is not None
            and after.dist[remap[v]] <= st.profile.dist[v]
            for v in st.side if v in remap
        )
        if ok:
            return _next_state(st, result, remap, (patch, second))
    raise InputError(
        "no finishing cycle edge preserves the distance guarantee for this diamond"
    )


def reduce_horizontal_edge(st: ReducibleState, case: HorizontalEdge) -> ReducibleState:
    u, v = case.edge
    if u not in st.side or v not in st.side:
        raise InputError("horizontal edge must lie on the working side")
    du, dv = st.profile.dist[u], st.profile.dist[v]
    if du != dv:
        raise InputError(
            f"edge ({u},{v}) joins depths {du} and {dv}; a horizontal edge needs "
            "equal distance from the root"
        )
    result, remap = excise_horizontal_pair(st.graph, case.edge)
    return _next_state(st, result, remap, ())


# ---------------------------------------------------------------------------
# the full two-step pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompleteTreeReport:
    """The bucket for states whose region admits no two-vertex removal."""

    graph6: str
    region: tuple[int, ...]
    tree_size: int
    cycle_orbits: int

    def to_dict(self) -> dict:
        return {
            "graph6": self.graph6,
            "region": list(self.region),
            "tree_size": self.tree_size,
            "cycle_orbits": self.cycle_orbits,
        }


OUTCOME_GRAPH = "graph"
OUTCOME_COMPLETE_TREE = "complete-tree"


@dataclass(frozen=True)
class ReductionOutcome:
    kind: str
    graph: Optional[Graph]
    complete_tree: Optional[CompleteTreeReport]
    steps: tuple[str, ...]

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "steps": list(self.steps)}
        if self.graph is not None:
            out["graph6"] = emit_graph6(self.graph)
        if self.complete_tree is not None:
            out["complete_tree"] = self.complete_tree.to_dict()
        return out


def _case_name(case: RegionCase) -> str:
    return {
        IsolatedTriangle: "isolated-triangle",
        AdjacentTriangles: "adjacent-triangles",
        HorizontalEdge: "horizontal-edge",
        CompleteTree: "complete-tree",
    }[type(case)]


def reduce_step(st: ReducibleState) -> tuple[Optional[ReducibleState], RegionCase, frozenset[int]]:
    """One select-classify-reduce pass. Returns (next state or None when the
    region is a complete tree, the case, the region)."""
    region = nearest_region(st)
    case = classify_region(st.graph, region, st.profile)
    if isinstance(case, CompleteTree):
        return None, case, region
    if isinstance(case, IsolatedTriangle):
        return reduce_isolated_triangle(st, case), case, region
    if isinstance(case, AdjacentTriangles):
        return reduce_adjacent_triangles(st, case), case, region
    return reduce_horizontal_edge(st, case), case, region


def _tree_report(st: ReducibleState, region: frozenset[int]) -> CompleteTreeReport:
    return CompleteTreeReport(
        graph6=emit_graph6(st.graph),
        region=tuple(sorted(region)),
        tree_size=len(region),
        cycle_orbits=st.side_cycle_orbits,
    )


def reduce_from_state(st: ReducibleState, target_n: int) -> ReductionOutcome:
    """Apply two-vertex removals until ``target_n`` vertices remain, routing
    complete-tree regions into a report instead of a graph."""
    steps: list[str] = []
    while st.graph.n > target_n:
        nxt, case, region = reduce_step(st)
        steps.append(_case_name(case))
        if nxt is None:
            return ReductionOutcome(
                OUTCOME_COMPLETE_TREE, None, _tree_report(st, region), tuple(steps)
            )
        st = nxt
    return ReductionOutcome(OUTCOME_GRAPH, st.graph, None, tuple(steps))


def reduce_to_n(rec: ConstructionRecord, e: Edge) -> ReductionOutcome:
    """Insert at ``e``, then remove four vertices in two reduction steps.

    Ends with either a connected cubic bridge graph exactly the size of the
    record's source, or a complete-tree report. Region underflow (the side's
    cycle-orbit count is below 32, as it always is at desk scale) propagates
    as InputError.
    """
    st = build_reducible_state(rec, e)
    outcome = reduce_from_state(st, rec.source.n)
    if outcome.kind == OUTCOME_GRAPH:
        assert outcome.graph is not None
        if outcome.graph.n != rec.source.n:
            raise InvariantError("reduction pipeline missed the target size")
    return outcome
