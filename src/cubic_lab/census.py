"""Isomorphism-free enumeration of connected cubic graphs and the evidence
tables built on top of it.

The enumerator saturates vertices in id order: at each turn the smallest
unsaturated vertex receives all of its remaining edges, drawing partners
from already-introduced unsaturated vertices and from fresh ids handed out
consecutively. Every connected cubic graph admits such a numbering (number
the vertices by first touch along any breadth-first saturation), so the
search sees at least one labeling per isomorphism class, and a canonical
form pass deduplicates the survivors. Two cheap, provably sound filters cut
the duplication before the canonical pass. First, a labeling that a
same-block fresh-vertex swap would lexicographically lower is dropped (the
lowered labeling is admissible too, so its class survives elsewhere).
Second, the graph is dropped unless vertex 0 carries the least vertex key
of ``symmetry._vertex_keys`` (every class has a numbering rooted at such a
vertex); that test exits at the first vertex whose degree and triangle
count beat vertex 0's and runs BFS only for the vertices that tie.

With ``jobs`` > 1, ``census_table`` opens one process pool for the whole
run. Each worker walks the saturation tree, filters and canonicalises only
the leaves whose index is its own residue mod ``jobs``, and the sorted
union of their canonical forms is the serial result. The same pool then
classifies the graphs; aggregation is count-based and therefore
independent of completion order.

The evidence tables are the census rows (connectivity classes and
Hamiltonicity counted per n) and the complete-tree probe
(``conjecture_probe``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from itertools import combinations
from typing import Iterator, Optional

from .connectivity import classify_connectivity, component_of, find_bridges
from .errors import InputError, InvariantError
from .graphs import (
    Graph,
    bfs_distances,
    emit_graph6,
    induced_subgraph,
    parse_graph6,
)
from .hamilton import CERT_BRIDGE, HamiltonicityResult, has_hamiltonian_cycle
from .reduction import int_fifth_root, nearest_vertices
from .symmetry import (
    MODE_FULL,
    _canonical_graph6,
    _search,
    distinct_cycle_edges,
    vertex_zero_key_is_least,
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

def _saturation_leaves(n: int) -> Iterator[tuple[list[list[int]], list[tuple[int, int, int]]]]:
    """Yield (adjacency, fresh blocks) for every connected cubic labeled
    graph whose vertex ids follow first-use order. A block (owner, start,
    size) records that ``owner``'s turn handed out ids start..start+size-1."""
    adj: list[list[int]] = [[] for _ in range(n)]
    deg = [0] * n
    blocks: list[tuple[int, int, int]] = []

    def turn(u: int, frontier: int) -> Iterator[tuple[list[list[int]], list[tuple[int, int, int]]]]:
        if u == n:
            if frontier == n:
                yield adj, blocks
            return
        if u >= frontier:
            # u was never attached to anything earlier: only legal for the
            # very first vertex, otherwise the prefix is a closed component
            if u != 0:
                return
            frontier = 1
        need = 3 - deg[u]
        if need == 0:
            yield from turn(u + 1, frontier)
            return
        existing = [
            w for w in range(u + 1, frontier) if deg[w] < 3 and w not in adj[u]
        ]
        for fresh in range(min(need, n - frontier), -1, -1):
            from_existing = need - fresh
            if from_existing > len(existing):
                continue
            new_ids = list(range(frontier, frontier + fresh))
            for combo in combinations(existing, from_existing):
                partners = list(combo) + new_ids
                for w in partners:
                    adj[u].append(w)
                    adj[w].append(u)
                    deg[w] += 1
                deg[u] += need
                if fresh:
                    blocks.append((u, frontier, fresh))
                yield from turn(u + 1, frontier + fresh)
                if fresh:
                    blocks.pop()
                deg[u] -= need
                for w in partners:
                    adj[u].pop()
                    adj[w].pop()
                    deg[w] -= 1

    yield from turn(0, 0)


def _block_swap_reducible(adj: list[list[int]], blocks: list[tuple[int, int, int]]) -> bool:
    """True when swapping two same-block fresh siblings (neither of which
    introduced fresh vertices at its own turn) lowers the sorted edge list.

    Such a swap keeps the labeling admissible: the siblings share their
    introduction turn, and because neither owns a block the frontier walks
    through their own turns unchanged. The lowered labeling is therefore
    generated too, so this leaf is a duplicate that can be skipped.

    Only the edges at the two siblings move, and of two equal-size edge
    sets the one holding the least edge of their symmetric difference sorts
    first, so the test looks at those few edges alone.
    """
    owners = {owner for owner, _, _ in blocks}
    for _, start, size in blocks:
        for f in range(start, start + size - 1):
            g = f + 1
            if f in owners or g in owners:
                continue
            moved = set()
            image = set()
            for v, v_image in ((f, g), (g, f)):
                for w in adj[v]:
                    moved.add((v, w) if v < w else (w, v))
                    w_image = f if w == g else g if w == f else w
                    image.add(
                        (v_image, w_image) if v_image < w_image else (w_image, v_image)
                    )
            diff = moved ^ image
            if diff and min(diff) in image:
                return True
    return False


def _walk_share(n: int, share: int, shares: int) -> set[bytes]:
    """Canonical graph6 forms of the saturation leaves whose index is
    ``share`` mod ``shares`` and that pass both filters. The block swap
    test goes first because it is the cheaper one. The search runs
    uncached: a labeled leaf is never looked up again, and caching it would
    only evict ``canonical_form`` entries that are."""
    found: set[bytes] = set()
    for index, (adj, blocks) in enumerate(_saturation_leaves(n)):
        if index % shares != share:
            continue
        if blocks and _block_swap_reducible(adj, blocks):
            continue
        if not vertex_zero_key_is_least(adj):
            continue
        g = Graph(n, tuple(tuple(sorted(row)) for row in adj))
        found.add(_canonical_graph6(g, _search(g)[0]))
    return found


_ENUMERATED: dict[int, tuple[Graph, ...]] = {}


def _enumerate_cached(n: int, pool=None, jobs: int = 1) -> tuple[Graph, ...]:
    """The classes of size n, computed once per process. With a pool, each
    of ``jobs`` workers walks the whole tree but filters and canonicalises
    only its own share of the leaves; the sorted union is the same."""
    graphs = _ENUMERATED.get(n)
    if graphs is None:
        if pool is None:
            forms = _walk_share(n, 0, 1)
        else:
            forms = set().union(*pool.map(
                _walk_share, [n] * jobs, range(jobs), [jobs] * jobs
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


def _is_complete_tree(sub: Graph, root: int) -> bool:
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
            k = distinct_cycle_edges(side_sub, MODE_FULL).count
            if k < 1:
                continue
            profile = bfs_distances(side_sub, remap[root])
            region = nearest_vertices(range(side_sub.n), profile.dist, int_fifth_root(k))
            if not region:
                continue
            region_sub, region_map = induced_subgraph(side_sub, region)
            if not _is_complete_tree(region_sub, region_map[remap[root]]):
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

