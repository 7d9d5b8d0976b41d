"""Isomorph-free enumeration of connected cubic graphs and the evidence
tables built on top of it.

The enumerator grows each vertex count from the one two below it by edge
insertion. For a graph P on n vertices, take two disjoint edges pq and rs,
delete both, add the adjacent vertices x = n and y = n + 1, join x to two
of p, q, r, s and join y to the other two. The three splits {pq|rs},
{pr|qs} and {ps|qr} give three children. Level 4 is K4, and level n is the
set of canonical forms of the children of every class on n - 2 vertices.
An automorphism of P maps the children of an edge pair onto those of the
pair's image, so one pair per orbit under the automorphisms the canonical
search records suffices. The set removes the remaining duplicates; there
is no canonical-parent test.

Every child is connected, simple and cubic: x and y are new, each of p, q,
r, s trades one edge for another, and all four reach the adjacent x and y,
so no path of P is lost. Conversely:

Lemma: every connected simple cubic graph C on N >= 6 vertices has an edge
xy with these properties. The other neighbours a, b of x and c, d of y are
four distinct vertices, and some perfect matching M of them makes
C - x - y + M connected, simple and cubic. M's two edges are disjoint, so
C is a child of that graph, and by induction from K4 every class is
reached.
  - C has a bridge. At a vertex on a bridge, the other two edges are either
    both bridges or both on one cycle. If every bridge met only all-bridge
    vertices, C would be a tree. So some bridge xy has an endpoint x whose
    edges to a and b lie on a cycle. Take M = {ac, bd}. Both new edges cross
    the bridge, so neither exists yet. Since a and b share a component of
    C - x - y, M joins everything.
  - C is bridgeless and not K4. Some edge xy lies on no triangle. If every
    edge lay on one, the triangles would form a diamond, and the edge
    leaving one of its tips lies on a triangle only when it joins the two
    tips, which is K4. Every component of C - x - y holds at least 2 of the
    four ends, so there are at most two components. With two, each holds
    one end of x and one of y (otherwise xy would be a bridge), and
    M = {ab, cd} works. With one, suppose each of the three matchings
    contained an existing edge. Then those three edges would form a
    triangle on three ends: a star would give one end three neighbours
    among the ends, but it has only two besides x or y. Those three ends
    would then form a component without the fourth, a contradiction.

With ``jobs`` > 1, ``census_table`` opens one process pool for the whole
run. Every worker receives the graph6 strings of the parent level and
grows only the parents whose index is its own residue mod ``jobs``, so no
worker repeats another's work, and the sorted union of their canonical
forms is the serial result. The same pool then classifies the graphs;
aggregation is count-based and therefore independent of completion order.

The evidence tables are the census rows (connectivity classes and
Hamiltonicity counted per n) and the complete-tree probe
(``conjecture_probe``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from itertools import combinations
from typing import Optional

from .connectivity import classify_connectivity, component_of, find_bridges
from .errors import InputError, InvariantError
from .graphs import (
    Graph,
    add_edges,
    add_vertices,
    bfs_distances,
    edge,
    emit_graph6,
    induced_subgraph,
    parse_graph6,
    remove_edges,
)
from .hamilton import CERT_BRIDGE, HamiltonicityResult, has_hamiltonian_cycle
from .reduction import int_fifth_root, is_complete_tree, nearest_vertices
from .symmetry import (
    _canonical_graph6,
    _check_automorphisms,
    _orbit_roots,
    _search,
    distinct_cycle_edges,
)

DEFAULT_MAX_N = 18
ENV_MAX_N = "CUBIC_LAB_MAX_N"


def max_enumeration_n() -> int:
    raw = os.environ.get(ENV_MAX_N)
    if raw is None:
        return DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"{ENV_MAX_N} must be an integer, got {raw!r}") from exc


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _children(g: Graph) -> set[bytes]:
    """Canonical graph6 forms of the edge insertions into g, one pair of
    disjoint edges per orbit under the automorphisms ``_search`` records.
    The searches run uncached: a labeled child is never looked up again,
    and caching it would only evict ``canonical_form`` entries that are."""
    n = g.n
    pairs = [
        (e, f) for e, f in combinations(g.edges(), 2)
        if e.u not in f and e.v not in f
    ]

    def image(gamma, pair):
        e, f = (edge(gamma[u], gamma[v]) for u, v in pair)
        return (e, f) if e < f else (f, e)

    generators = _search(g)[1]
    _check_automorphisms(g, generators)
    roots = _orbit_roots(pairs, generators, image)
    forms: set[bytes] = set()
    for i, ((p, q), (r, s)) in enumerate(pairs):
        if roots[i] != i:
            continue
        base = add_vertices(remove_edges(g, [(p, q), (r, s)]), 2)
        for a, b, c, d in ((p, q, r, s), (p, r, q, s), (p, s, q, r)):
            child = add_edges(base, [(n, n + 1), (n, a), (n, b), (n + 1, c), (n + 1, d)])
            forms.add(_canonical_graph6(child, _search(child)[0]))
    return forms


def _grow_share(parents: list[str], share: int, shares: int) -> set[bytes]:
    """Canonical graph6 forms of the children of the parents whose index
    is ``share`` mod ``shares``."""
    return set().union(*(_children(parse_graph6(g6)) for g6 in parents[share::shares]))


_ENUMERATED: dict[int, tuple[Graph, ...]] = {}


def _enumerate_cached(n: int, pool=None, jobs: int = 1) -> tuple[Graph, ...]:
    """The classes of size n, computed once per process from those of size
    n - 2. With a pool, each of ``jobs`` workers grows its own share of the
    parents; the sorted union is the same."""
    graphs = _ENUMERATED.get(n)
    if graphs is None:
        if n == 4:
            forms = {b"C~"}  # K4
        else:
            parents = [emit_graph6(g) for g in _enumerate_cached(n - 2, pool, jobs)]
            if pool is None:
                forms = _grow_share(parents, 0, 1)
            else:
                forms = set().union(*pool.map(
                    _grow_share, [parents] * jobs, range(jobs), [jobs] * jobs
                ))
        graphs = tuple(parse_graph6(form.decode("ascii")) for form in sorted(forms))
        _ENUMERATED[n] = graphs
    return graphs


def _check_enumeration_n(n: int) -> None:
    if n % 2:
        raise InputError(
            f"no cubic graph exists on {n} vertices (odd degree sum)"
        )
    bound = max_enumeration_n()
    if not 4 <= n <= bound:
        raise InputError(f"n must lie in [4, {bound}], got {n}")


def enumerate_cubic(n: int) -> tuple[Graph, ...]:
    """Every connected cubic graph on n vertices, exactly once per
    isomorphism class, as canonical representatives in canonical order."""
    _check_enumeration_n(n)
    return _enumerate_cached(n)


# ---------------------------------------------------------------------------
# census rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CensusRow:
    n: int
    total_cubic: int
    hamiltonian: int
    non_hamiltonian: int
    bridge: int
    biconnected: int
    three_connected: int
    non_ham_and_bridge: int
    non_ham_non3conn: int
    bridge_fraction_of_non_ham: float


def classify_graph(g: Graph) -> dict:
    """Per-graph facts: size, connectivity class and Hamiltonicity."""
    cls = classify_connectivity(g)
    if cls.bridge_count:
        # the shortcut has_hamiltonian_cycle would take, from the bridges
        # already counted
        ham = HamiltonicityResult(False, None, CERT_BRIDGE)
    else:
        ham = has_hamiltonian_cycle(g, use_bridge_shortcut=False)
    return {
        "n": g.n,
        "bridge_count": cls.bridge_count,
        "class": cls.label,
        "is_hamiltonian": ham.is_hamiltonian,
        "certificate": ham.certificate_kind,
    }


def classify_graph6(g6: str) -> dict:
    """``classify_graph`` plus the graph6 echo; top-level so process pools
    can ship it around."""
    return {"graph6": g6, **classify_graph(parse_graph6(g6))}


def _classify_in(pool, g6s: list[str]) -> list[dict]:
    if pool is None or len(g6s) < 4:
        return [classify_graph6(s) for s in g6s]
    return list(pool.map(classify_graph6, g6s, chunksize=16))


def _process_pool(jobs: int):
    # imported here: the pool module costs every CLI start-up ~20 ms
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=jobs)


def _classify_many(g6s: list[str], jobs: int) -> list[dict]:
    if jobs <= 1 or len(g6s) < 4:
        return _classify_in(None, g6s)
    with _process_pool(jobs) as pool:
        return _classify_in(pool, g6s)


def _row_from_facts(n: int, facts: list[dict]) -> CensusRow:
    total = len(facts)
    ham = sum(1 for f in facts if f["is_hamiltonian"])
    bridge = sum(1 for f in facts if f["class"] == "bridge")
    bicon = sum(1 for f in facts if f["class"] == "biconnected")
    three = sum(1 for f in facts if f["class"] == "three-connected")
    non_ham = total - ham
    nh_bridge = sum(
        1 for f in facts if f["class"] == "bridge" and not f["is_hamiltonian"]
    )
    nh_non3 = sum(
        1 for f in facts if f["class"] != "three-connected" and not f["is_hamiltonian"]
    )
    if bridge != nh_bridge:
        raise InvariantError(
            f"a bridge graph tested Hamiltonian at n={n}; the solver is broken"
        )
    if total != bridge + bicon + three:
        raise InvariantError("connectivity classes do not partition the census")
    return CensusRow(
        n=n,
        total_cubic=total,
        hamiltonian=ham,
        non_hamiltonian=non_ham,
        bridge=bridge,
        biconnected=bicon,
        three_connected=three,
        non_ham_and_bridge=nh_bridge,
        non_ham_non3conn=nh_non3,
        bridge_fraction_of_non_ham=(nh_bridge / non_ham) if non_ham else 0.0,
    )


def census_table(n_min: int, n_max: int, jobs: int = 1) -> list[CensusRow]:
    sizes = [n for n in range(n_min, n_max + 1) if n % 2 == 0]
    for n in sizes:
        _check_enumeration_n(n)
    if jobs <= 1 or not sizes:
        return [_census_row(n, None, 1) for n in sizes]
    with _process_pool(jobs) as pool:
        return [_census_row(n, pool, jobs) for n in sizes]


def _census_row(n: int, pool, jobs: int) -> CensusRow:
    g6s = [emit_graph6(g) for g in _enumerate_cached(n, pool, jobs)]
    return _row_from_facts(n, _classify_in(pool, g6s))


def census_csv(rows: list[CensusRow]) -> str:
    names = [f.name for f in fields(CensusRow)]
    out = [",".join(names)]
    for row in rows:
        cells = []
        for name in names:
            value = getattr(row, name)
            cells.append(f"{value:.6f}" if isinstance(value, float) else str(value))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def census_json(rows: list[CensusRow]) -> list[dict]:
    names = [f.name for f in fields(CensusRow)]
    return [{name: getattr(row, name) for name in names} for row in rows]


# ---------------------------------------------------------------------------
# complete-tree probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BridgeTreeReport:
    """Whether some bridge side of the graph carries a near-root region that
    is a complete tree of admissible size."""

    matches: bool
    tree_size: Optional[int]
    cycle_orbits: Optional[int]


def _size_in_window(size: int, k: int) -> bool:
    # [fifth_root(k) / 2, fifth_root(k)) checked in exact integer arithmetic
    return (2 * size) ** 5 >= k and size ** 5 < k


def is_complete_tree_at_bridge(h: Graph) -> BridgeTreeReport:
    """Check every bridge endpoint of a cubic bridge graph as a potential
    root of a complete-tree region on its own side."""
    bridges = find_bridges(h)
    if not bridges:
        raise InputError("is_complete_tree_at_bridge requires a bridge graph")
    for br in bridges:
        for root in br:
            side = component_of(h, root, {br})
            side_sub, remap = induced_subgraph(h, side)
            k = distinct_cycle_edges(side_sub)
            if k < 1:
                continue
            profile = bfs_distances(side_sub, remap[root])
            region = nearest_vertices(range(side_sub.n), profile.dist, int_fifth_root(k))
            if not region:
                continue
            region_sub, region_map = induced_subgraph(side_sub, region)
            if not is_complete_tree(region_sub, region_map[remap[root]]):
                continue
            if _size_in_window(len(region), k):
                return BridgeTreeReport(True, len(region), k)
    return BridgeTreeReport(False, None, None)


@dataclass(frozen=True)
class ConjectureProbeRow:
    n: int
    lhs_count: int
    rhs_count: int
    injection_possible: bool


def conjecture_probe(n: int) -> ConjectureProbeRow:
    """Count cubic bridge graphs of size n+2 whose bridge side carries an
    in-window complete tree (lhs) against all cubic bridge graphs of size n
    (rhs). A finite injection from lhs into rhs exists iff lhs <= rhs."""
    lhs = 0
    for g in enumerate_cubic(n + 2):
        if find_bridges(g) and is_complete_tree_at_bridge(g).matches:
            lhs += 1
    rhs = sum(1 for g in enumerate_cubic(n) if find_bridges(g))
    return ConjectureProbeRow(n, lhs, rhs, lhs <= rhs)


def probe_csv(rows: list[ConjectureProbeRow]) -> str:
    out = ["n,lhs_count,rhs_count,injection_possible"]
    for r in rows:
        out.append(f"{r.n},{r.lhs_count},{r.rhs_count},{str(r.injection_possible).lower()}")
    return "\n".join(out) + "\n"

