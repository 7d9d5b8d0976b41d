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

Each case's precondition is stated once, in ``_refusal``, and each
removal once, in ``reduce_case``.
``classify_region`` tries the region's triangles, then its diamonds, then
its edges, each sorted by vertex tuple, and takes the first candidate
``_refusal`` accepts.

Falling through a refused candidate follows the paper's case analysis,
which is an existence argument: each case is a configuration that, when
present, admits a removal keeping the graph cubic, bridged and no deeper,
and a region is a complete tree only when no case is present. A candidate
that fails its precondition is not an instance of its case (a triangle
through the root would delete the root; a shared outside neighbor or end
neighbor would make a parallel edge), so the analysis moves on to the
next candidate. A region where none applies must be a complete tree, the
one rule ``is_complete_tree`` shared with the census probe: a tree rooted
at the root, two children under every internal vertex and every leaf at
one depth (a single vertex counts). Otherwise ``classify_region`` raises
one InputError, "admits no reduction case and is not a complete tree",
naming the graph and the region.

Each step must leave the graph connected, cubic, and bridge, exactly two
vertices smaller, with no surviving side vertex farther from the root than
before. Violations raise InvariantError with the broken constraint named,
as does ``reduce_case`` handed a case ``_refusal`` rejects: that is a
classifier bug, never silent.

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

from dataclasses import asdict, dataclass
from typing import ClassVar, Iterable, Optional, Sequence, Union

from .connectivity import find_bridges
from .errors import InputError, InvariantError
from .graphs import (
    DistanceProfile,
    Edge,
    Graph,
    bfs_distances,
    edge,
    edit_graph,
    emit_graph6,
    induced_subgraph,
    is_connected,
    is_cubic,
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
    return _assemble_state(graph, root, side, bridge, side_cycle_orbits)


def _assemble_state(
    graph: Graph, root: int, side: frozenset[int], bridge: Edge, side_cycle_orbits: Optional[int]
) -> ReducibleState:
    """The BFS within the side, which must reach all of it, and k >= 1
    (computed when not supplied); the caller has checked graph, root and
    bridge."""
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
    name: ClassVar[str] = "isolated-triangle"
    triangle: tuple[int, int, int]


@dataclass(frozen=True)
class AdjacentTriangles:
    name: ClassVar[str] = "adjacent-triangles"
    diamond: tuple[int, int, int, int]


@dataclass(frozen=True)
class HorizontalEdge:
    name: ClassVar[str] = "horizontal-edge"
    edge: Edge


@dataclass(frozen=True)
class CompleteTree:
    name: ClassVar[str] = "complete-tree"


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


def _outside_neighbors(g: Graph, verts: Iterable[int]) -> list[int]:
    """The far end of every edge leaving ``verts``, by ascending inside end."""
    inside = set(verts)
    return [w for v in sorted(inside) for w in g.adj[v] if w not in inside]


def _refusal(st: ReducibleState, case: RegionCase) -> Optional[str]:
    """Why ``case`` does not apply to the state, or None when it does. This
    is each case's precondition, stated once: a triangle (3 edges) or a
    diamond (5 edges) on the working side, avoiding the root, whose outside
    edges reach distinct vertices; or an edge of the side with both ends at
    one depth, no shared neighbor, and neither end's other two neighbors
    adjacent."""
    g = st.graph
    if isinstance(case, HorizontalEdge):
        u, v = case.edge
        if not (u in st.side and v in st.side and g.has_edge(u, v)):
            return "is not an edge of the working side"
        du, dv = st.profile.dist[u], st.profile.dist[v]
        if du != dv:
            return f"joins depths {du} and {dv}, not equal distances from the root"
        shared = set(g.adj[u]) & set(g.adj[v])
        if shared:
            return f"has ends that share neighbor(s) {sorted(shared)}"
        for a, b in ((u, v), (v, u)):
            rest = [w for w in g.adj[a] if w != b]
            if g.has_edge(*rest):
                return f"has an end {a} whose other neighbors {rest} are already adjacent"
        return None
    if isinstance(case, IsolatedTriangle):
        verts, shape, size = set(case.triangle), "triangle", (3, 3)
    else:
        verts, shape, size = set(case.diamond), "diamond", (4, 5)
    if not verts <= st.side:
        return "does not lie on the working side"
    if st.root in verts:
        return "passes through the root"
    if (len(verts), induced_subgraph(g, verts)[0].m) != size:
        return f"is not a {shape} ({size[1]} edges on {size[0]} vertices)"
    exits = _outside_neighbors(g, verts)
    if len(set(exits)) != len(exits):
        return "has outside edges that share an end"
    return None


def classify_region(st: ReducibleState, region: frozenset[int]) -> RegionCase:
    """The first case that applies to the region, trying triangles, then
    diamonds, then edges, each sorted by vertex tuple; a region where none
    applies must be a complete tree rooted at the root, or InputError."""
    if not region:
        raise InputError("cannot classify an empty region")
    sub, remap = induced_subgraph(st.graph, region)
    inverse = {new: old for old, new in remap.items()}
    tris = sorted(tuple(sorted(inverse[v] for v in t)) for t in _triangles(sub))
    diamonds = sorted({
        tuple(sorted(set(t) | set(o)))
        for i, t in enumerate(tris) for o in tris[i + 1:]
        if len(set(t) & set(o)) == 2
    })
    candidates = (
        [IsolatedTriangle(t) for t in tris]
        + [AdjacentTriangles(d) for d in diamonds]
        + [HorizontalEdge(e) for e in sorted(edge(inverse[u], inverse[w]) for u, w in sub.edges())]
    )
    for case in candidates:
        if _refusal(st, case) is None:
            return case
    if st.root not in region or not is_complete_tree(sub, remap[st.root]):
        raise InputError(
            f"region {sorted(region)} of {emit_graph6(st.graph)} admits no reduction "
            f"case and is not a complete tree rooted at {st.root}"
        )
    return CompleteTree()


# ---------------------------------------------------------------------------
# the two-vertex removal, on cases ``_refusal`` accepts
# ---------------------------------------------------------------------------

def _deepened(
    st: ReducibleState, remap: dict[int, int], dist: Sequence[Optional[int]]
) -> Optional[int]:
    """A surviving side vertex (old id) that ``dist``, indexed by new ids,
    puts farther from the root than before or out of reach; None if there
    is none."""
    return next((
        v for v in st.side
        if v in remap and (dist[remap[v]] is None or dist[remap[v]] > st.profile.dist[v])
    ), None)


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
    nxt = _assemble_state(result, new_root, new_side, new_bridge, None)
    deeper = _deepened(st, remap, nxt.profile.dist)
    if deeper is not None:
        raise InvariantError(
            f"distance from the root increased at surviving vertex {deeper}"
        )
    return nxt


def reduce_case(st: ReducibleState, case: RegionCase) -> ReducibleState:
    """Apply the two-vertex removal that belongs to ``case`` (see the
    module docstring). The classifier only proposes cases ``_refusal``
    accepts, so a refused one, or a complete tree, is a classifier bug."""
    if isinstance(case, CompleteTree):
        raise InvariantError(f"{case} admits no two-vertex removal")
    reason = _refusal(st, case)
    if reason is not None:
        raise InvariantError(f"{case} {reason}")
    g = st.graph
    if isinstance(case, HorizontalEdge):
        # both ends go; each end's other two neighbors are joined
        u, v = case.edge
        rests = [[w for w in g.adj[a] if w != b] for a, b in ((u, v), (v, u))]
        shrunk, remap = remove_vertices(g, (u, v))
        result = edit_graph(shrunk, add=[(remap[a], remap[b]) for a, b in rests])
        return _next_state(st, result, remap, ())
    verts = case.triangle if isinstance(case, IsolatedTriangle) else case.diamond
    exits = _outside_neighbors(g, verts)
    shrunk, remap = remove_vertices(g, verts)
    hub = shrunk.n
    if isinstance(case, IsolatedTriangle):
        # one hub vertex joins the three exits
        result = edit_graph(shrunk, new_vertices=1, add=[(hub, remap[x]) for x in exits])
        return _next_state(st, result, remap, (hub,))
    # the hub patches the diamond's two exits and holds a second vertex,
    # which then takes both ends of one side cycle edge
    second = hub + 1
    staged = edit_graph(shrunk, new_vertices=2, add=[
        (hub, remap[exits[0]]), (hub, remap[exits[1]]), (hub, second),
    ])
    if not is_connected(staged):
        raise InvariantError("patching the diamond left the graph disconnected")
    kept = {remap[v] for v in st.side if v in remap}
    bridges = set(find_bridges(staged))
    pool = sorted(
        e for e in staged.edges()
        if e not in bridges and e.u in kept and e.v in kept
    )
    if not pool:
        raise InputError("no cycle edge available for the finishing insertion")
    # an arbitrary cycle edge may carry shortest paths whose loss pushes a
    # vertex deeper; take the first candidate (canonical order) that keeps
    # every surviving distance in check, so the step's guarantees all hold
    for consumed in pool:
        result = edit_graph(staged, remove=(consumed,), add=(
            (consumed.u, second), (consumed.v, second),
        ))
        after = bfs_distances(result, remap[st.root], within=kept | {hub, second})
        if _deepened(st, remap, after.dist) is None:
            return _next_state(st, result, remap, (hub, second))
    raise InputError(
        "no finishing cycle edge preserves the distance guarantee for this diamond"
    )


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
            out["complete_tree"] = asdict(self.complete_tree)
        return out


def reduce_step(st: ReducibleState) -> tuple[Optional[ReducibleState], RegionCase, frozenset[int]]:
    """One select-classify-reduce pass. Returns (next state or None when the
    region is a complete tree, the case, the region)."""
    region = nearest_region(st)
    case = classify_region(st, region)
    nxt = None if isinstance(case, CompleteTree) else reduce_case(st, case)
    return nxt, case, region


def reduce_from_state(st: ReducibleState, target_n: int) -> ReductionOutcome:
    """Apply two-vertex removals until ``target_n`` vertices remain, routing
    complete-tree regions into a report instead of a graph."""
    steps: list[str] = []
    while st.graph.n > target_n:
        nxt, case, region = reduce_step(st)
        steps.append(case.name)
        if nxt is None:
            report = CompleteTreeReport(
                emit_graph6(st.graph), tuple(sorted(region)), len(region),
                st.side_cycle_orbits,
            )
            return ReductionOutcome(OUTCOME_COMPLETE_TREE, None, report, tuple(steps))
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
