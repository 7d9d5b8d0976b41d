"""Turning a biconnected cubic graph into a bridge graph, and the insertion
family that makes the result cubic again.

The construction: pick the most balanced bi-bridge, delete both cut edges,
and wire in four new vertices. One (the far anchor) reconnects the far side;
one (the root) hangs off the anchor and becomes a bridge endpoint; the last
two (the open nodes) reconnect the active side but are left at degree 2.
The active side is the side of the cut whose induced subgraph has more
distinct cycle edges; every later distance argument is measured from the
root inside that side.

A cycle insertion then removes one cycle edge of the active side and feeds
its endpoints to the two open nodes, producing a connected cubic graph whose
single bridge is the anchor-root edge. Doing this once per edge orbit of the
active side yields the insertion family.

Those orbits come from the search that chose the side; they need no search
of their own. Let S be the source's induced subgraph on the active side and
S+ the augmented side: S plus the root and the open nodes, joined by
root-open1, root-open2, near1-open1 and near2-open2, where near1 and near2
are the active ends of the two cut edges.
  - In S the only degree-2 vertices are near1 and near2, and they are
    distinct: were they one vertex, its third edge would be a bridge of the
    source.
  - In S+ the only degree-2 vertices are the root and the open nodes, and
    the root is the only one whose two neighbours both have degree 2. So
    every automorphism of S+ fixes the root (Aut(S+) is the root's
    stabilizer) and maps {open1, open2} onto itself. It restricts to an
    automorphism of S that sends near_i where it sends open_i, since near_i
    is open_i's one neighbour in S.
  - Conversely every automorphism of S permutes {near1, near2} and extends
    in exactly one way: fix the root and send open_i where near_i goes.
Restriction and extension are inverse isomorphisms between Aut(S+) and
Aut(S), so the extended generators of Aut(S) generate Aut(S+), and their
edge classes are both the root-stabilizer orbits and the full-group orbits
of S+. Every extended generator is still checked against the edges of S+.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .connectivity import BiBridge, classify_connectivity, find_bridges, most_balanced_bibridge
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
    is_cubic,
)
from .symmetry import (
    MODE_FULL,
    MODE_STABILIZER,
    _canonical_graph6,
    _check_automorphisms,
    _count_cycle_orbits,
    _edge_orbit_search,
    _orbits_of_edges,
    edge_orbits,
    isomorphic_pairs,
)


@dataclass(frozen=True)
class ConstructionRecord:
    """Everything the downstream stages need about one construction run.

    ``augmented`` has four more vertices than ``source``: the far anchor and
    the root (the bridge endpoints) plus the two degree-2 open nodes, which
    sit with the root on ``active_side``. ``profile`` holds BFS distances
    from the root measured inside the active side only. ``side_orbits`` are
    the edge orbits of the augmented active side, in ``side_subgraph`` ids,
    under its automorphism group, which is the root's stabilizer there
    (module docstring).
    """

    source: Graph
    chosen_bibridge: BiBridge
    augmented: Graph
    bridge: Edge
    open_nodes: tuple[int, int]
    active_side: frozenset[int]
    root: int
    profile: DistanceProfile
    side_orbits: tuple[tuple[Edge, ...], ...]

    def side_subgraph(self) -> tuple[Graph, dict[int, int]]:
        return induced_subgraph(self.augmented, self.active_side)

    @cached_property
    def _side_with_bridges(self) -> tuple[Graph, dict[int, int], frozenset[Edge]]:
        # built once per record: every cycle_insertion of a family, the
        # full-group orbits and the bridgeless check need it
        side, remap = self.side_subgraph()
        return side, remap, frozenset(find_bridges(side))


def _side_symmetry(sub: Graph) -> tuple[int, list[tuple[int, ...]], tuple[int, ...]]:
    """``distinct_cycle_edges(sub)``, the generators of Aut(sub) that its
    search recorded and that search's labeling, which is
    ``canonical_form(sub).labeling``."""
    orbits, generators, labeling = _edge_orbit_search(sub)
    return _count_cycle_orbits(sub, orbits), generators, labeling


def _choose_side(g: Graph, bb: BiBridge) -> tuple[str, list[tuple[int, ...]]]:
    """``select_active_side`` plus the generators of the winning side's
    induced subgraph, from the one search per side that decided it; a tie
    compares the canonical bytes that search's labeling gives."""
    sub_a, _ = induced_subgraph(g, bb.side_a)
    sub_b, _ = induced_subgraph(g, bb.side_b)
    count_a, gens_a, labeling_a = _side_symmetry(sub_a)
    count_b, gens_b, labeling_b = _side_symmetry(sub_b)
    if count_a != count_b:
        a_wins = count_a > count_b
    else:
        form_a = _canonical_graph6(sub_a, labeling_a)
        form_b = _canonical_graph6(sub_b, labeling_b)
        a_wins = form_a < form_b if form_a != form_b else 0 in bb.side_a
    return ("a", gens_a) if a_wins else ("b", gens_b)


def select_active_side(g: Graph, bb: BiBridge) -> str:
    """Which side of the bi-bridge hosts the construction: "a" or "b".

    The winner is the side whose induced subgraph has more distinct cycle
    edges (measured with that subgraph's own automorphism group). Ties go to
    the lexicographically smaller canonical form, then to the side holding
    vertex 0.
    """
    return _choose_side(g, bb)[0]


def bridge_construct(g: Graph) -> ConstructionRecord:
    """Run the construction on a biconnected cubic graph.

    Raises InputError unless the input is connected, cubic, and biconnected
    (bridgeless with at least one 2-edge-cut). Every structural claim about
    the output is asserted before the record is returned; a violation is an
    InvariantError, never a silent pass.
    """
    try:
        bb = most_balanced_bibridge(g)
    except InputError:
        # classified only to word the error; classify_connectivity raises
        # its own for a graph that is not cubic or not connected
        raise InputError(
            f"bridge_construct requires a biconnected cubic graph, got {classify_connectivity(g).label}"
        ) from None
    label, generators = _choose_side(g, bb)
    active = bb.side_a if label == "a" else bb.side_b

    def split(cut: Edge) -> tuple[int, int]:
        # (far endpoint, active endpoint)
        return (cut.v, cut.u) if cut.u in active else (cut.u, cut.v)

    far1, near1 = split(bb.e1)
    far2, near2 = split(bb.e2)
    n = g.n
    anchor, root, open1, open2 = n, n + 1, n + 2, n + 3
    augmented = edit_graph(g, new_vertices=4, remove=(bb.e1, bb.e2), add=(
        (far1, anchor), (far2, anchor), (anchor, root),
        (near1, open1), (root, open1),
        (near2, open2), (root, open2),
    ))
    active_side = frozenset(active) | {root, open1, open2}

    if augmented.n != g.n + 4:
        raise InvariantError("augmented graph has the wrong size")
    try:
        bridges = find_bridges(augmented)
    except InputError:
        raise InvariantError("augmented graph is disconnected") from None
    if bridges != (edge(anchor, root),):
        raise InvariantError(f"expected exactly the anchor-root bridge, got {bridges}")
    deg2 = tuple(v for v in range(augmented.n) if augmented.degree(v) == 2)
    if deg2 != (open1, open2):
        raise InvariantError(f"expected exactly two open nodes, got {deg2}")
    if any(augmented.degree(v) != 3 for v in range(augmented.n) if v not in deg2):
        raise InvariantError("a non-open vertex is not cubic")

    profile = bfs_distances(augmented, root, within=active_side)
    if any(profile.dist[v] is None for v in active_side):
        raise InvariantError("active side is not internally connected")

    # The active side's generators, extended to the augmented side (proof
    # in the module docstring). induced_subgraph keeps id order and root,
    # open1 and open2 exceed every source id, so side vertex i < k is the
    # active-side vertex i the generators act on, and the new three are k,
    # k + 1 and k + 2 in that order.
    side, remap = induced_subgraph(augmented, active_side)
    side_edges = side.edges()
    m1, m2 = remap[near1], remap[near2]
    k = remap[root]
    extended = [
        (*gamma, k, k + 2, k + 1) if gamma[m1] == m2 else (*gamma, k, k + 1, k + 2)
        for gamma in generators
    ]
    _check_automorphisms(side_edges, extended, k)
    return ConstructionRecord(
        source=g,
        chosen_bibridge=bb,
        augmented=augmented,
        bridge=edge(anchor, root),
        open_nodes=(open1, open2),
        active_side=active_side,
        root=root,
        profile=profile,
        side_orbits=_orbits_of_edges(side_edges, extended),
    )


@dataclass(frozen=True)
class DepthBoundReport:
    """Distinct-edge counts of the active side versus its BFS depth.

    ``holds_stabilizer`` is the load-bearing bound: orbits under root-fixing
    automorphisms cannot merge edges that reach different depths, so the
    orbit count is at least ``max_dist``. The full-group count is reported
    alongside it. On the augmented active side no automorphism moves the
    root (module docstring), so the two counts, and the two verdicts, are
    always equal.
    """

    max_dist: int
    orbit_count_full: int
    orbit_count_stabilizer: int
    holds_full_group: bool
    holds_stabilizer: bool
    facilitated_complete: bool


def depth_bound_report(rec: ConstructionRecord) -> DepthBoundReport:
    full = stab = len(rec.side_orbits)
    d = rec.profile.max_dist
    dist = rec.profile.dist
    facilitated = set()
    for u, w in rec.augmented.edges():
        du, dw = dist[u], dist[w]
        if du is not None and dw is not None and abs(du - dw) == 1:
            facilitated.add(max(du, dw))
    complete = all(level in facilitated for level in range(1, d + 1))
    return DepthBoundReport(
        max_dist=d,
        orbit_count_full=full,
        orbit_count_stabilizer=stab,
        holds_full_group=full >= d,
        holds_stabilizer=stab >= d,
        facilitated_complete=complete,
    )


def active_side_bridgeless(rec: ConstructionRecord) -> bool:
    """True iff every edge of the active side lies on a cycle (no bridges).

    Expected true for every record the construction emits; callers treat a
    false return as a construction bug.
    """
    _, _, side_bridges = rec._side_with_bridges
    return not side_bridges


_Pairing = tuple[tuple[int, int], tuple[int, int]]


def _insertion_pairings(rec: ConstructionRecord, cut: Edge) -> tuple[_Pairing, ...]:
    """The simple ways to pair the removed edge's endpoints with the open
    nodes, in order of preference.

    Low id joins the first open node by default; the flipped pairing follows
    it. A pairing that would duplicate an existing edge (an endpoint already
    touches its open node) is left out. An empty result means neither pairing
    stays simple, which happens only when an endpoint of the removed edge
    neighbors both open nodes.
    """
    open1, open2 = rec.open_nodes
    lo, hi = cut.u, cut.v
    g = rec.augmented
    pairings = []
    if not g.has_edge(lo, open1) and not g.has_edge(hi, open2):
        pairings.append(((lo, open1), (hi, open2)))
    if not g.has_edge(lo, open2) and not g.has_edge(hi, open1):
        pairings.append(((lo, open2), (hi, open1)))
    return tuple(pairings)


def _refusal(rec: ConstructionRecord, e: Edge) -> Optional[str]:
    """Why ``cycle_insertion`` refuses the edge e, or None when it accepts
    it: e must be a cycle edge of the active side that avoids the open
    nodes and has a simple pairing."""
    if not (e.u in rec.active_side and e.v in rec.active_side
            and rec.augmented.has_edge(e.u, e.v)):
        return "is not an edge of the active side"
    if e.u in rec.open_nodes or e.v in rec.open_nodes:
        return "touches an open node"
    _, remap, side_bridges = rec._side_with_bridges
    if edge(remap[e.u], remap[e.v]) in side_bridges:
        return "is not on a cycle of the active side"
    if not _insertion_pairings(rec, e):
        return "cannot be joined to the open nodes without duplicating an edge"
    return None


def insertable_edges(rec: ConstructionRecord) -> tuple[Edge, ...]:
    """The edges ``cycle_insertion`` accepts, in the augmented graph's ids
    and sorted."""
    return tuple(e for e in rec.augmented.edges() if _refusal(rec, e) is None)


class _BridgeMismatch(InvariantError):
    """An insertion result whose bridges are not exactly the record's bridge."""


def _check_member(rec: ConstructionRecord, result: Graph) -> None:
    if result.n != rec.augmented.n:
        raise InvariantError("insertion changed the vertex count")
    if not is_cubic(result):
        raise InvariantError("insertion result is not cubic")
    try:
        bridges = find_bridges(result)
    except InputError:
        raise InvariantError("insertion result is disconnected") from None
    if bridges != (rec.bridge,):
        raise _BridgeMismatch(f"insertion result bridges {bridges} != ({tuple(rec.bridge)},)")
    after = bfs_distances(result, rec.root, within=rec.active_side)
    for v in rec.active_side:
        before = rec.profile.dist[v]
        now = after.dist[v]
        if now is None or (before is not None and now > before):
            raise InvariantError(f"distance from root increased at vertex {v}")


def cycle_insertion(rec: ConstructionRecord, e: Edge) -> Graph:
    """Remove one cycle edge of the active side and join its endpoints to the
    two open nodes, yielding a connected cubic graph with the same single
    bridge."""
    e = edge(e[0], e[1])
    reason = _refusal(rec, e)
    if reason is not None:
        raise InputError(f"{tuple(e)} {reason}")
    pairings = _insertion_pairings(rec, e)
    if len(pairings) == 2:
        result = edit_graph(rec.augmented, remove=(e,), add=pairings[0])
        try:
            _check_member(rec, result)
            return result
        except _BridgeMismatch:
            # when e is a bridge of the active side less the root and open
            # nodes, the id-order pairing can leave the root-open edges as
            # bridges; the flipped pairing then closes the cycles through them
            pass
    result = edit_graph(rec.augmented, remove=(e,), add=pairings[-1])
    _check_member(rec, result)
    return result


def join_open_nodes(rec: ConstructionRecord) -> Graph:
    """Close the construction by joining the two open nodes directly.

    This is what the insertion degenerates to when the chosen cycle edge
    already touches the open-node cluster, so it stands in for orbits that
    have no insertable representative.
    """
    result = edit_graph(rec.augmented, add=(rec.open_nodes,))
    _check_member(rec, result)
    return result


MEMBER_INSERT = "insert"
MEMBER_JOIN = "join-open-nodes"


@dataclass(frozen=True)
class FamilyMember:
    chosen_edge: Edge
    kind: str
    graph: Graph


@dataclass(frozen=True)
class InsertionFamily:
    record: ConstructionRecord
    members: tuple[FamilyMember, ...]
    pairwise_noniso: bool
    collision_report: tuple[tuple[int, int], ...]


def insertion_family(rec: ConstructionRecord, mode: str = MODE_STABILIZER) -> InsertionFamily:
    """One member per distinct-cycle-edge orbit of the active side, under the
    root's stabilizer (``MODE_STABILIZER``) or the side's full group
    (``MODE_FULL``).

    Orbit representatives are the least ``insertable_edges`` of the orbit
    whenever it has one; orbits with no insertable edge collapse into the
    single join-open-nodes member. Isomorphism collisions between members
    (``isomorphic_pairs``) are reported, never dropped.
    """
    side, remap, side_bridges = rec._side_with_bridges
    if mode == MODE_STABILIZER:
        orbits = rec.side_orbits
    elif mode == MODE_FULL:
        orbits = edge_orbits(side)
    else:
        raise InputError(f"unknown orbit mode {mode!r}")
    inverse = {new: old for old, new in remap.items()}
    insertable = set(insertable_edges(rec))

    members: list[FamilyMember] = []
    blocked_reps: list[Edge] = []
    for orbit in orbits:
        if orbit[0] in side_bridges:
            continue
        edges = [edge(inverse[e.u], inverse[e.v]) for e in orbit]
        candidates = [e for e in edges if e in insertable]
        if candidates:
            rep = min(candidates)
            members.append(FamilyMember(rep, MEMBER_INSERT, cycle_insertion(rec, rep)))
        else:
            blocked_reps.append(edges[0])
    if blocked_reps:
        members.append(
            FamilyMember(min(blocked_reps), MEMBER_JOIN, join_open_nodes(rec))
        )
    members.sort(key=lambda mem: (mem.kind != MEMBER_INSERT, mem.chosen_edge))

    collisions = isomorphic_pairs([mem.graph for mem in members])
    return InsertionFamily(rec, tuple(members), not collisions, collisions)


def record_to_dict(rec: ConstructionRecord) -> dict:
    """JSON-ready view of a record: graph6 strings plus the named pieces."""
    return {
        "source": emit_graph6(rec.source),
        "augmented": emit_graph6(rec.augmented),
        "bibridge": {
            "e1": list(rec.chosen_bibridge.e1),
            "e2": list(rec.chosen_bibridge.e2),
            "side_a": sorted(rec.chosen_bibridge.side_a),
            "side_b": sorted(rec.chosen_bibridge.side_b),
            "balance": rec.chosen_bibridge.balance,
        },
        "bridge": list(rec.bridge),
        "open_nodes": list(rec.open_nodes),
        "active_side": sorted(rec.active_side),
        "root": rec.root,
        "side_distances": {
            str(v): rec.profile.dist[v] for v in sorted(rec.active_side)
        },
        "max_dist": rec.profile.max_dist,
    }
