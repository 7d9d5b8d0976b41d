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
search records suffices.

Most children are isomorphic to children of other parents or splits, and
a canonical-parent filter rejects most of those before their canonical
search. Call an edge reducible when it has the property of the lemma
below. Each edge carries the labelling-independent invariant (4-cycles
through it, 5-cycles through it), compared lexicographically. A child is
kept only when no reducible edge other than its new edge xy has a
strictly larger invariant than xy. The set of canonical forms removes the
duplicates that pass. The verdict does not depend on the order in which
edges are tried, so the filter tries the likeliest winners first: the
child's four other new edges, then the parent's edges by descending
parent invariant. It counts 5-cycles only where the 4-cycle counts tie.

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

The filter loses no class. By the lemma, C has reducible edges.
Reducibility and the invariant are unchanged by isomorphisms, so C has a
reducible edge e* = xy whose invariant no reducible edge of C exceeds.
Reducing along e* with its matching M gives a graph P' and an isomorphism
phi from P' to the class representative P of its level. The recorded
automorphisms generate Aut(P) (``symmetry`` docstring), so some sigma in
Aut(P) maps the disjoint pair phi(M) to the representative of its orbit.
Of that pair's three splits, the one that joins the images of x's ends to
one new vertex and those of y's ends to the other builds a child
isomorphic to C, with the new edge mapped to e*. That child passes the
filter, and its canonical form is C's.

Each level is kept as its sorted canonical graph6 strings; a ``Graph`` is
parsed only where one is used, and none is cached. One pass per level does
all the work on it: each class is parsed once, classified when its census
row is wanted, and grown into its children when the next level is. With
``jobs`` > 1 the pass forks w = min(jobs, level size) workers, and worker
k takes the classes k, k + w, k + 2w, ... of the level. Each sends back its
(class, Hamiltonicity) counts and its set of child forms as ``marshal``
bytes through a pipe, and the parent merges each as soon as it has read
it. Counts add and sets unite, so the rows and levels do not depend on
``jobs``.

The evidence tables are the census rows (connectivity classes and
Hamiltonicity counted per n, each graph by ``hamilton.classify_graph``,
which this module re-exports with ``classify_graph6``) and the
complete-tree probe (``conjecture_probe``, ``probe_table``).
"""

from __future__ import annotations

import marshal
import os
from collections import Counter
from itertools import chain, combinations
from typing import Collection, Iterable, NamedTuple, Optional, Sequence

from .connectivity import component_of, find_bridges
from .errors import InputError, InvariantError
from .graphs import Graph, bfs_distances, induced_subgraph, parse_graph6
from .hamilton import classify_graph, classify_graph6  # the latter re-exported
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

def _four_cycles(adj: Sequence[set[int]], u: int, v: int) -> int:
    """4-cycles through the edge uv: paths u a b v with a, b outside the
    edge. Each neighbour a of u other than v shares u with adj[v] and
    adds its other common neighbours with v."""
    nv = adj[v]
    c4 = 1 - len(adj[u])
    for a in adj[u]:
        if a != v:
            c4 += len(adj[a] & nv)
    return c4


def _five_cycles(adj: Sequence[set[int]], u: int, v: int) -> int:
    """5-cycles through the edge uv: paths u a c b v with a, b, c distinct
    and outside the edge."""
    c5 = 0
    for a in adj[u]:
        if a == v:
            continue
        for b in adj[v]:
            if b == u or b == a:
                continue
            c5 += len(adj[a] & adj[b]) - (u in adj[b]) - (v in adj[a])
    return c5


def _edge_invariant(adj: Sequence[set[int]], u: int, v: int) -> tuple[int, int]:
    """(4-cycles, 5-cycles) through the edge uv. Only adjacency is read, so
    the pair does not depend on the labelling."""
    return _four_cycles(adj, u, v), _five_cycles(adj, u, v)


def _reducible(adj: Sequence[set[int]], x: int, y: int) -> bool:
    """Whether the other ends a, b of x and c, d of y are four distinct
    vertices with a perfect matching M of them that makes the graph minus
    x and y plus M connected, simple and cubic (the lemma's reduction)."""
    a, b = (w for w in adj[x] if w != y)
    c, d = (w for w in adj[y] if w != x)
    if len({a, b, c, d}) < 4:
        return False
    # the graph is connected, so every vertex of the graph minus x and y
    # shares a component with an end; label each by the first end that
    # reaches it (x and y are labelled first, so no search enters them)
    comp = {x: x, y: y}
    for end in (a, b, c, d):
        if end in comp:
            continue
        comp[end] = end
        stack = [end]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp[w] = end
                    stack.append(w)
    # each end gains one edge for the one it loses, and M's two edges
    # cover every component, so they join them all iff they share one
    return any(
        q not in adj[p] and s not in adj[r]
        and not {comp[p], comp[q]}.isdisjoint((comp[r], comp[s]))
        for (p, q), (r, s) in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))
    )


def _passes_parent_filter(
    adj: Sequence[set[int]],
    x: int,
    y: int,
    rest: Iterable[tuple[int, int]],
) -> bool:
    """False when some reducible edge has a strictly larger
    ``_edge_invariant`` than xy.

    The verdict does not depend on the order in which edges are tried, so
    the likeliest winners go first: the other edges at x and y, then
    ``rest`` in its order, skipping the pairs that are not edges. ``rest``
    must hold every other edge. The invariants are compared lazily,
    counting 5-cycles only where the 4-cycle counts tie, and reducibility
    is checked only for an edge whose invariant beats xy's."""
    own4 = _four_cycles(adj, x, y)
    own5 = None
    near = [(x, w) for w in adj[x] if w != y] + [(y, w) for w in adj[y] if w != x]
    for u, v in chain(near, rest):
        if v not in adj[u]:
            continue
        c4 = _four_cycles(adj, u, v)
        if c4 < own4:
            continue
        if c4 == own4:
            if own5 is None:
                own5 = _five_cycles(adj, x, y)
            if _five_cycles(adj, u, v) <= own5:
                continue
        if _reducible(adj, u, v):
            return False
    return True


def _children(g: Graph) -> set[bytes]:
    """Canonical graph6 forms of the edge insertions into g that pass the
    canonical-parent filter, one pair of disjoint edges per orbit under the
    automorphisms ``_search`` records. The filter reads adjacency sets, so
    a ``Graph`` is built only for a child it accepts. The searches run
    uncached: a labeled child is never looked up again, and caching it
    would only evict ``canonical_form`` entries that are."""
    n = g.n
    _, generators, edges = _search(g)
    _check_automorphisms(edges, generators)
    # pairs of edge ids, and each generator as a permutation of edge ids
    index = {e: i for i, e in enumerate(edges)}
    perms = [
        [index[(a, b) if a < b else (b, a)] for a, b in ((gamma[u], gamma[v]) for u, v in edges)]
        for gamma in generators
    ]
    pairs = [
        (i, j) for (i, e), (j, f) in combinations(enumerate(edges), 2)
        if e.u not in f and e.v not in f
    ]

    def image(perm, pair):
        i, j = perm[pair[0]], perm[pair[1]]
        return (i, j) if i < j else (j, i)

    roots = _orbit_roots(pairs, perms, image)
    # the parent's edges, likeliest filter winners first (see the filter)
    parent_adj = [set(nbrs) for nbrs in g.adj]
    ranked = sorted(edges, key=lambda e: _edge_invariant(parent_adj, *e), reverse=True)
    forms: set[bytes] = set()
    for k, (i, j) in enumerate(pairs):
        if roots[k] != k:
            continue
        (p, q), (r, s) = edges[i], edges[j]
        # g less pq and rs; each split replaces only the sets it changes
        base = [set(nbrs) for nbrs in parent_adj]
        for u, w in ((p, q), (r, s)):
            base[u].discard(w)
            base[w].discard(u)
        for a, b, c, d in ((p, q, r, s), (p, r, q, s), (p, s, q, r)):
            adj = base + [{n + 1, a, b}, {n, c, d}]
            for w, x in ((a, n), (b, n), (c, n + 1), (d, n + 1)):
                adj[w] = base[w] | {x}
            if _passes_parent_filter(adj, n, n + 1, ranked):
                child = Graph(n + 2, tuple(tuple(sorted(nbrs)) for nbrs in adj))
                forms.add(_canonical_graph6(child, _search(child)[0]))
    return forms


def _run_worker(write_fd: int, read_fds: Sequence[int], fn, args: tuple) -> None:
    """The body of a forked worker: ``fn(*args)`` sent to the parent as
    marshal bytes, or the exception it raised, pickled for the parent to
    raise. It closes the read ends it inherited, so that a pipe the parent
    stops reading has no reader left and a blocked write fails. It always
    ends in ``os._exit``: the worker never returns into its caller's code,
    never flushes the stdout it inherited and never runs atexit hooks."""
    status = 1
    try:
        for fd in read_fds:
            os.close(fd)
        try:
            payload = b"r" + marshal.dumps(fn(*args))
        except BaseException as exc:
            import pickle  # only a failing worker pays for it

            payload = b"e" + pickle.dumps(exc)
        with open(write_fd, "wb") as out:
            out.write(payload)
        status = 0
    finally:
        os._exit(status)


def _forked(fn, calls: Sequence[tuple], merge) -> None:
    """``merge(fn(*args))`` for each ``args`` of ``calls``, each call in a
    forked worker, merged in call order as each worker's pipe is read, so
    the parent holds one worker's result at a time beside the merged
    whole. The package starts no thread, so a fork copies no held lock.
    Every worker is reaped before this returns or raises. A worker's
    exception is raised here (the first in call order), and a worker that
    exits without a result is an ``InvariantError`` naming its exit
    status."""
    pids: list[int] = []
    pipes: list[int] = []
    try:
        for args in calls:
            read_fd, write_fd = os.pipe()
            pipes.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    _run_worker(write_fd, pipes, fn, args)
                pids.append(pid)
            finally:
                os.close(write_fd)
        for k, read_fd in enumerate(pipes):
            with open(read_fd, "rb", closefd=False) as src:
                payload = src.read()
            if payload[:1] == b"r":
                merge(marshal.loads(memoryview(payload)[1:]))
            elif payload[:1] == b"e":
                import pickle

                raise pickle.loads(payload[1:])
            else:
                # the pipe is at its end, so the worker has exited
                pid, pids[k] = pids[k], 0
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise InvariantError(f"a census worker exited with status {status} and sent no result")
            del payload  # freed before the next pipe is read
    finally:
        # closed before the waits, so a worker still writing to an unread
        # pipe fails and exits instead of blocking its wait
        for read_fd in pipes:
            os.close(read_fd)
        for pid in pids:
            if pid:
                os.waitpid(pid, 0)


def _pass_share(share: Sequence[str], row: bool, grow: bool) -> tuple[dict, set[bytes]]:
    """One share of a level pass: each class is parsed once, counted by
    (connectivity class, Hamiltonicity) when ``row`` is set and grown into
    its children's canonical forms when ``grow`` is."""
    counts: Counter = Counter()
    forms: set[bytes] = set()
    for g6 in share:
        g = parse_graph6(g6)
        if row:
            facts = classify_graph(g)
            counts[facts["class"], facts["is_hamiltonian"]] += 1
        if grow:
            forms |= _children(g)
    return dict(counts), forms  # marshal takes a plain dict, not a Counter


def _level_pass(level: Sequence[str], row: bool, grow: bool, jobs: int) -> tuple[Counter, set[bytes]]:
    """``_pass_share`` over the whole level: in this process for one job
    (or where ``os.fork`` does not exist), else in min(jobs, len(level))
    forked workers, worker k taking ``level[k::workers]``. Counts and form
    sets are merged, so the result does not depend on the split."""
    workers = min(jobs, len(level))
    if workers < 2 or not hasattr(os, "fork"):
        counts, forms = _pass_share(level, row, grow)
        return Counter(counts), forms
    total: Counter = Counter()
    union: set[bytes] = set()

    def merge(result: tuple[dict, set[bytes]]) -> None:
        total.update(result[0])
        union.update(result[1])

    _forked(_pass_share, [(level[k::workers], row, grow) for k in range(workers)], merge)
    return total, union


_ENUMERATED: dict[int, tuple[str, ...]] = {}


def _levels(top: int, rows: Collection[int] = (), jobs: int = 1) -> dict[int, Counter]:
    """Grow every level up to ``top`` into ``_ENUMERATED`` and count each
    level in ``rows`` by (class, Hamiltonicity), with at most one pass per
    level: it classifies the level when it is a row and grows level + 2
    when that is wanted and not cached yet. Level n is the sorted
    canonical graph6 strings of the children of level n - 2, from K4."""
    _ENUMERATED.setdefault(4, ("C~",))  # K4
    counts: dict[int, Counter] = {}
    for n in range(4, top + 1, 2):
        row = n in rows
        grow = n < top and n + 2 not in _ENUMERATED
        if not (row or grow):
            continue
        level_counts, forms = _level_pass(_ENUMERATED[n], row, grow, jobs)
        if row:
            counts[n] = level_counts
        if grow:
            _ENUMERATED[n + 2] = tuple(form.decode("ascii") for form in sorted(forms))
    return counts


def _check_enumeration_n(n: int) -> None:
    if n % 2:
        raise InputError(
            f"no cubic graph exists on {n} vertices (odd degree sum)"
        )
    bound = max_enumeration_n()
    if not 4 <= n <= bound:
        raise InputError(f"n must lie in [4, {bound}], got {n}")


def enumerate_graph6(n: int) -> tuple[str, ...]:
    """Every connected cubic graph on n vertices, exactly once per
    isomorphism class, as sorted canonical graph6 strings, grown once per
    process by serial level passes."""
    _check_enumeration_n(n)
    _levels(n)
    return _ENUMERATED[n]


def enumerate_cubic(n: int) -> tuple[Graph, ...]:
    """``enumerate_graph6(n)`` parsed anew on every call."""
    return tuple(parse_graph6(g6) for g6 in enumerate_graph6(n))


# ---------------------------------------------------------------------------
# census rows
# ---------------------------------------------------------------------------

class CensusRow(NamedTuple):
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


def _row_from_counts(n: int, counts: Counter) -> CensusRow:
    """The census row from the level's (class, Hamiltonicity) counts."""
    total = sum(counts.values())
    non_ham = sum(count for (_, is_ham), count in counts.items() if not is_ham)
    bridge, bicon, three = (
        counts[label, False] + counts[label, True]
        for label in ("bridge", "biconnected", "three-connected")
    )
    nh_bridge = counts["bridge", False]
    if bridge != nh_bridge:
        raise InvariantError(
            f"a bridge graph tested Hamiltonian at n={n}; the solver is broken"
        )
    if total != bridge + bicon + three:
        raise InvariantError("connectivity classes do not partition the census")
    return CensusRow(
        n=n,
        total_cubic=total,
        hamiltonian=total - non_ham,
        non_hamiltonian=non_ham,
        bridge=bridge,
        biconnected=bicon,
        three_connected=three,
        non_ham_and_bridge=nh_bridge,
        non_ham_non3conn=non_ham - counts["three-connected", False],
        bridge_fraction_of_non_ham=(nh_bridge / non_ham) if non_ham else 0.0,
    )


def even_sizes(n_min: int, n_max: int) -> list[int]:
    """The even vertex counts in [n_min, n_max], for the commands that
    sweep a range. Each is checked against the enumeration bounds before
    any is enumerated, and a range without one is an input error, not an
    empty table."""
    sizes = [n for n in range(n_min, n_max + 1) if n % 2 == 0]
    if not sizes:
        raise InputError(f"no even vertex count lies in [--n-min {n_min}, --n-max {n_max}]")
    for n in sizes:
        _check_enumeration_n(n)
    return sizes


def census_table(n_min: int, n_max: int, jobs: int = 1) -> list[CensusRow]:
    if jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {jobs}")
    sizes = even_sizes(n_min, n_max)
    counts = _levels(sizes[-1], sizes, jobs)
    return [_row_from_counts(n, counts[n]) for n in sizes]


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def table_csv(row_type: type, rows: Iterable) -> str:
    """Rows of the NamedTuple ``row_type`` as CSV: a header of its field
    names, then floats to six places, bools in lower case and everything
    else as ``str``."""
    names = row_type._fields
    lines = [",".join(names)]
    lines += [",".join(_csv_cell(getattr(row, name)) for name in names) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# complete-tree probe
# ---------------------------------------------------------------------------

class BridgeTreeReport(NamedTuple):
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
    # imported here: only the probe needs ``reduction``, and loading it
    # (with ``construction``) would cost every CLI start-up
    from .reduction import int_fifth_root, is_complete_tree, nearest_vertices

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


class ConjectureProbeRow(NamedTuple):
    n: int
    lhs_count: int
    rhs_count: int
    injection_possible: bool


def _bridge_counts(n: int, trees: bool) -> tuple[int, int]:
    """(bridge graphs on n vertices, those of them whose bridge side
    carries an in-window complete tree) from one parse of the level. The
    second count is 0 unless ``trees`` asks for it."""
    bridge = matches = 0
    for g6 in enumerate_graph6(n):
        g = parse_graph6(g6)
        if find_bridges(g):
            bridge += 1
            if trees and is_complete_tree_at_bridge(g).matches:
                matches += 1
    return bridge, matches


def _probe_rows(sizes: Sequence[int]) -> list[ConjectureProbeRow]:
    """The probe rows for the given even sizes. Each level is parsed once:
    level m gives row m's rhs and row m - 2's lhs, and only counts are
    kept. Levels are read largest first: when row n's n + 2 is out of
    range, that is the error raised, before any level is parsed."""
    levels = sorted(set(sizes) | {n + 2 for n in sizes}, reverse=True)
    counts = {m: _bridge_counts(m, trees=m - 2 in sizes) for m in levels}
    rows = []
    for n in sizes:
        lhs, rhs = counts[n + 2][1], counts[n][0]
        rows.append(ConjectureProbeRow(n, lhs, rhs, lhs <= rhs))
    return rows


def conjecture_probe(n: int) -> ConjectureProbeRow:
    """Count cubic bridge graphs of size n+2 whose bridge side carries an
    in-window complete tree (lhs) against all cubic bridge graphs of size n
    (rhs). A finite injection from lhs into rhs exists iff lhs <= rhs."""
    return _probe_rows([n])[0]


def probe_table(n_min: int, n_max: int) -> list[ConjectureProbeRow]:
    """``conjecture_probe`` for each even n in [n_min, n_max]. Row n also
    enumerates n + 2, so the largest such count is checked up front too."""
    sizes = even_sizes(n_min, n_max)
    top = sizes[-1]
    try:
        _check_enumeration_n(top + 2)
    except InputError as exc:
        raise InputError(
            f"the probe row for n = {top} needs the graphs on n + 2 = {top + 2} vertices: {exc}"
        ) from None
    return _probe_rows(sizes)
