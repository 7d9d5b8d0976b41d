"""Brute-force oracles, kept deliberately independent of the library's
algorithms: edge/pair deletion for cuts, perfect matchings with a connected
complement for cubic Hamiltonicity and a scan of every vertex order for
Hamiltonicity of any graph, permutation scans for isomorphism
and automorphisms, exhaustive labeled generation and a count of labeled
connected cubic graphs that generates none, a second (orderly,
canonical-matrix) generator for cross-checking the enumerator, the
unpruned canonical-form search with its vertex keys, the vertex-image
automorphism backtracker, and the former saturation enumerator with its
two filters, and the per-bit graph6 codec (one list entry per vertex
pair) that the library's character-at-a-time codec replaced. Only
``graphs`` (the graph value, its codec and BFS) is imported from the
library."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from math import comb
from typing import Iterator

from cubic_lab.errors import Graph6ParseError, InputError
from cubic_lab.graphs import Graph, bfs_distances, build_graph, edge, relabel


def _connected_after(g: Graph, banned_edges: set, banned_vertices: set = frozenset()) -> bool:
    verts = [v for v in range(g.n) if v not in banned_vertices]
    if not verts:
        return True
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w in banned_vertices or edge(u, w) in banned_edges:
                continue
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(verts)


def oracle_bridges(g: Graph) -> set:
    return {e for e in g.edges() if not _connected_after(g, {e})}


def oracle_is_hamiltonian(g: Graph) -> bool:
    """Hamiltonicity of a cubic graph by perfect matchings: the complement
    of a perfect matching is a 2-factor, and a connected 2-factor is a
    Hamiltonian cycle. Matchings are built by pairing the least unmatched
    vertex with each unmatched neighbor in turn."""
    mate: list = [None] * g.n

    def extend() -> bool:
        free = next((v for v in range(g.n) if mate[v] is None), None)
        if free is None:
            return _connected_after(g, {edge(v, mate[v]) for v in range(g.n)})
        for w in g.adj[free]:
            if mate[w] is None:
                mate[free], mate[w] = w, free
                if extend():
                    return True
                mate[free] = mate[w] = None
        return False

    return g.n > 0 and extend()


def oracle_hamiltonian_by_permutations(g: Graph) -> bool:
    """Hamiltonicity of any graph by scanning every vertex order that starts
    at vertex 0: the graph is Hamiltonian iff some order has each vertex
    adjacent to the next and the last adjacent to vertex 0. Needs no degree,
    cubicity or connectivity assumption."""
    if g.n < 3:
        return False
    nbrs = [set(row) for row in g.adj]
    for rest in permutations(range(1, g.n)):
        order = (0, *rest)
        if all(order[i + 1] in nbrs[order[i]] for i in range(g.n - 1)) and 0 in nbrs[order[-1]]:
            return True
    return False


def _component_count(g: Graph, banned_edges: set) -> int:
    seen = set()
    count = 0
    for start in range(g.n):
        if start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if edge(u, w) not in banned_edges and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def oracle_two_edge_cuts(g: Graph) -> set:
    """All pairs whose removal leaves exactly two components."""
    out = set()
    for e1, e2 in combinations(g.edges(), 2):
        if _component_count(g, {e1, e2}) == 2:
            out.add((min(e1, e2), max(e1, e2)))
    return out


def oracle_cut_sides(g: Graph, e1, e2) -> tuple[frozenset, frozenset]:
    """The two vertex sets left by deleting e1 and e2, the one holding
    vertex 0 first; the pair must be a 2-edge-cut."""
    banned = {e1, e2}
    side = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if edge(u, w) not in banned and w not in side:
                side.add(w)
                stack.append(w)
    return frozenset(side), frozenset(range(g.n)) - side


def oracle_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    target = {tuple(e) for e in h.edges()}
    for perm in permutations(range(g.n)):
        ok = True
        for u, w in g.edges():
            a, b = perm[u], perm[w]
            if ((a, b) if a < b else (b, a)) not in target:
                ok = False
                break
        if ok:
            return True
    return False


def oracle_automorphisms(g: Graph) -> list:
    found = []
    own = {tuple(e) for e in g.edges()}
    for perm in permutations(range(g.n)):
        ok = True
        for u, w in g.edges():
            a, b = perm[u], perm[w]
            if ((a, b) if a < b else (b, a)) not in own:
                ok = False
                break
        if ok:
            found.append(perm)
    return found


def oracle_vertex_connectivity_at_least_3(g: Graph) -> bool:
    if g.n <= 3:
        return False
    for v in range(g.n):
        if not _connected_after(g, set(), {v}):
            return False
    for pair in combinations(range(g.n), 2):
        if not _connected_after(g, set(), set(pair)):
            return False
    return True


def labeled_cubic_graphs(n: int):
    """Every labeled cubic graph on n vertices exactly once (connected or
    not), via forced saturation order: each edge appears at its smaller
    endpoint's turn."""
    adj = [[] for _ in range(n)]
    deg = [0] * n

    def turn(u: int):
        if u == n:
            yield [sorted(row) for row in adj]
            return
        need = 3 - deg[u]
        if need == 0:
            yield from turn(u + 1)
            return
        options = [w for w in range(u + 1, n) if deg[w] < 3 and w not in adj[u]]
        if len(options) < need:
            return
        for combo in combinations(options, need):
            for w in combo:
                adj[u].append(w)
                adj[w].append(u)
                deg[w] += 1
            deg[u] += need
            yield from turn(u + 1)
            deg[u] -= need
            for w in combo:
                adj[u].pop()
                adj[w].pop()
                deg[w] -= 1

    yield from turn(0)


def _is_connected_adj(adj) -> bool:
    n = len(adj)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def labeled_connected_cubic(n: int):
    for adj in labeled_cubic_graphs(n):
        if _is_connected_adj(adj):
            yield build_graph(n, [(u, w) for u in range(n) for w in adj[u] if u < w])


def labeled_connected_cubic_counts(n_max: int) -> list:
    """c[n] for n = 0 .. n_max: the number of labeled connected cubic graphs
    on n vertices (OEIS A004109), counted without generating any.

    f(c1, c2, c3) counts the labeled simple graphs on c1 + c2 + c3 vertices
    in which c_i vertices still need exactly i edges. A fixed vertex of the
    highest need r picks j_i neighbours of need i (j1 + j2 + j3 = r), and
    each neighbour's need drops by one. So a_n = f(0, 0, n) counts every
    labeled cubic graph (A002829). The exponential formula, which splits off
    the component of one fixed vertex, a_n = sum over k of
    C(n - 1, k - 1) c_k a_{n - k}, gives the connected counts c_n.
    """
    @lru_cache(maxsize=None)
    def f(c1: int, c2: int, c3: int) -> int:
        if c3:
            r, c3 = 3, c3 - 1
        elif c2:
            r, c2 = 2, c2 - 1
        elif c1:
            r, c1 = 1, c1 - 1
        else:
            return 1
        total = 0
        for j3 in range(min(r, c3) + 1):
            for j2 in range(min(r - j3, c2) + 1):
                j1 = r - j3 - j2
                if j1 <= c1:
                    ways = comb(c1, j1) * comb(c2, j2) * comb(c3, j3)
                    total += ways * f(c1 - j1 + j2, c2 - j2 + j3, c3 - j3)
        return total

    a = [f(0, 0, n) for n in range(n_max + 1)]
    c = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        c[n] = a[n] - sum(comb(n - 1, k - 1) * c[k] * a[n - k] for k in range(1, n))
    return c


# ---------------------------------------------------------------------------
# orderly generation: one canonical adjacency matrix per isomorphism class
# ---------------------------------------------------------------------------
# A labeled graph is kept iff its upper-triangle bit string in column order
# ((0,1),(0,2),(1,2),(0,3),...) is the maximum over all relabelings, so each
# isomorphism class surfaces exactly once and no deduplication is needed.

def _column_prefix(adj_sets, order):
    bits = []
    for d in range(1, len(order)):
        for i in range(d):
            bits.append(1 if order[d] in adj_sets[order[i]] else 0)
    return bits


def _has_greater_labeling(adj_sets, n) -> bool:
    """Exact test: does any relabeling produce a strictly greater
    column-order bit string?"""
    base = _column_prefix(adj_sets, list(range(n)))

    def place(order):
        d = len(order)
        if d == n:
            return False  # equal throughout: an automorphism
        start = d * (d - 1) // 2
        segment = base[start:start + d]
        for x in range(n):
            if x in order:
                continue
            column = [1 if x in adj_sets[i] else 0 for i in order]
            if column > segment:
                return True
            if column == segment and place(order + [x]):
                return True
        return False

    return place([])


def _transposition_raises(adj_sets, last: int, i: int) -> bool:
    """Whether exchanging i and i + 1 in the order 0..last makes its
    column-order bit string greater. Columns before i keep their bits.
    Column i becomes i + 1's bits over rows 0..i-1 in place of i's; when
    those agree, column i + 1 agrees too, and every later column d only
    exchanges its adjacent bits for rows i and i + 1, so the first d
    adjacent to exactly one of them decides."""
    moved = [j in adj_sets[i + 1] for j in range(i)]
    stayed = [j in adj_sets[i] for j in range(i)]
    if moved != stayed:
        return moved > stayed
    for d in range(i + 2, last + 1):
        to_i, to_next = i in adj_sets[d], i + 1 in adj_sets[d]
        if to_i != to_next:
            return to_next
    return False


def orderly_connected_cubic(n: int):
    """Second generation strategy: build rows in order, prune prefixes that
    an adjacent transposition would increase, and keep leaves whose matrix
    is the maximum over all relabelings."""
    adj_sets = [set() for _ in range(n)]
    deg = [0] * n

    def prefix_beaten(u: int) -> bool:
        return any(_transposition_raises(adj_sets, u, i) for i in range(u))

    def feasible(u: int) -> bool:
        future = range(u + 1, n)
        total = 0
        for w in future:
            need = 3 - deg[w]
            room = sum(
                1 for x in future if x != w and deg[x] < 3 and x not in adj_sets[w]
            )
            if need > room:
                return False
            total += need
        return total % 2 == 0

    def rows(u: int):
        if u == n:
            adj = [sorted(s) for s in adj_sets]
            if _is_connected_adj(adj) and not _has_greater_labeling(adj_sets, n):
                yield build_graph(n, [(a, b) for a in range(n) for b in adj[a] if a < b])
            return
        need = 3 - deg[u]
        options = [w for w in range(u + 1, n) if deg[w] < 3 and w not in adj_sets[u]]
        if need > len(options):
            return
        for combo in combinations(options, need):
            for w in combo:
                adj_sets[u].add(w)
                adj_sets[w].add(u)
                deg[w] += 1
            deg[u] += need
            if not prefix_beaten(u) and feasible(u):
                yield from rows(u + 1)
            deg[u] -= need
            for w in combo:
                adj_sets[u].discard(w)
                adj_sets[w].discard(u)
                deg[w] -= 1

    yield from rows(0)


# ---------------------------------------------------------------------------
# canonical forms: the unpruned individualization-refinement search
# ---------------------------------------------------------------------------
# The library prunes its search tree by automorphisms and keys its
# refinement by neighbor cell indices; this copy rescans every cell against
# every cell and walks every leaf, so the two must agree on the graph6 bytes
# and on the labeling (the first leaf reaching the least code).

def _oracle_triangles(g: Graph, v: int) -> int:
    nbrs = g.adj[v]
    return sum(
        1 for i in range(len(nbrs)) for j in range(i + 1, len(nbrs))
        if g.has_edge(nbrs[i], nbrs[j])
    )


def oracle_vertex_keys(g: Graph) -> list:
    keys = []
    for v in range(g.n):
        profile = bfs_distances(g, v)
        dists = tuple(sorted(g.n if d is None else d for d in profile.dist))
        keys.append((len(g.adj[v]), _oracle_triangles(g, v), dists))
    return keys


def oracle_near_keys(g: Graph) -> list:
    """(degree, triangles, vertices within distance 2, vertices within
    distance 3) per vertex, from one BFS each."""
    keys = []
    for v in range(g.n):
        dist = [d for d in bfs_distances(g, v).dist if d is not None]
        keys.append((len(g.adj[v]), _oracle_triangles(g, v),
                     sum(d <= 2 for d in dist), sum(d <= 3 for d in dist)))
    return keys


def _oracle_refine(adj_sets, cells):
    cells = [sorted(c) for c in cells]
    changed = True
    while changed:
        changed = False
        sets = [frozenset(c) for c in cells]
        for i, cell in enumerate(cells):
            if len(cell) == 1:
                continue
            keyed = {}
            for v in cell:
                k = tuple(len(adj_sets[v] & s) for s in sets)
                keyed.setdefault(k, []).append(v)
            if len(keyed) > 1:
                cells[i:i + 1] = [sorted(keyed[k]) for k in sorted(keyed)]
                changed = True
                break
    return cells


def oracle_canonical_form(g: Graph) -> tuple:
    """(graph6 bytes, labeling old id -> new id) of the least relabeled edge
    list over all refinement leaves, the first leaf winning ties."""
    if g.n == 0:
        return b"?", ()
    adj_sets = [frozenset(r) for r in g.adj]
    by_key = {}
    for v, k in enumerate(oracle_vertex_keys(g)):
        by_key.setdefault(k, []).append(v)
    start = [sorted(by_key[k]) for k in sorted(by_key)]
    edges = g.edges()
    best = [None, None]

    def visit(cells):
        cells = _oracle_refine(adj_sets, cells)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            pos = {c[0]: i for i, c in enumerate(cells)}
            code = tuple(sorted(
                (pos[u], pos[w]) if pos[u] < pos[w] else (pos[w], pos[u])
                for u, w in edges
            ))
            if best[0] is None or code < best[0]:
                best[0] = code
                best[1] = tuple(pos[v] for v in range(len(pos)))
            return
        cell = cells[target]
        for v in cell:
            rest = [w for w in cell if w != v]
            visit(cells[:target] + [[v], rest] + cells[target + 1:])

    visit(start)
    return oracle_emit_graph6(relabel(g, best[1])).encode("ascii"), best[1]


# ---------------------------------------------------------------------------
# automorphism groups: the former vertex-image backtracker
# ---------------------------------------------------------------------------
# The library now takes the closure of the automorphisms its canonical search
# records; this is the backtracker it replaced, with no size cap.

def oracle_automorphism_group(g: Graph) -> tuple:
    """The full automorphism group as sorted permutations (perm[old] = new):
    backtracking over vertex images, pruned by the vertex keys and by
    adjacency consistency with everything already mapped."""
    n = g.n
    if n == 0:
        return ((),)
    adj_sets = [frozenset(r) for r in g.adj]
    keys = oracle_vertex_keys(g)
    candidates = [
        tuple(w for w in range(n) if keys[w] == keys[v]) for v in range(n)
    ]
    perms = []
    perm = [-1] * n
    used = [False] * n

    def extend(v: int) -> None:
        if v == n:
            perms.append(tuple(perm))
            return
        for w in candidates[v]:
            if used[w]:
                continue
            ok = True
            for u in range(v):
                if (u in adj_sets[v]) != (perm[u] in adj_sets[w]):
                    ok = False
                    break
            if ok:
                perm[v] = w
                used[w] = True
                extend(v + 1)
                used[w] = False
                perm[v] = -1

    extend(0)
    return tuple(sorted(perms))


def oracle_edge_orbits(g: Graph, perms) -> tuple:
    """Edge orbits under the given permutations, each sorted, ordered by
    their least edge: grow each orbit by applying every permutation."""
    seen = set()
    orbits = []
    for e in g.edges():
        if e in seen:
            continue
        orbit = {e}
        frontier = [e]
        for u, w in frontier:
            for p in perms:
                image = edge(p[u], p[w])
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def oracle_distinct_cycle_edges(g: Graph, perms) -> int:
    """The number of edge orbits under the permutations that hold no
    bridge."""
    bridges = oracle_bridges(g)
    return sum(1 for orbit in oracle_edge_orbits(g, perms) if orbit[0] not in bridges)


def oracle_cheap_vertex_keys(adj) -> list:
    """The enumerator's former root-filter keys on raw adjacency lists; a
    leaf survives the filter iff vertex 0 holds the least key."""
    n = len(adj)
    keys = []
    for v in range(n):
        dist = [-1] * n
        dist[v] = 0
        queue = [v]
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            for w in adj[x]:
                if dist[w] < 0:
                    dist[w] = dist[x] + 1
                    queue.append(w)
        nbrs = adj[v]
        tri = sum(
            1 for i in range(len(nbrs)) for j in range(i + 1, len(nbrs))
            if nbrs[j] in adj[nbrs[i]]
        )
        keys.append((tri, tuple(sorted(dist))))
    return keys


def oracle_block_swap_lowers(adj, blocks) -> bool:
    """Whether swapping two same-block fresh siblings, neither of which owns
    a block, lowers the fully re-sorted edge list."""
    base = sorted((u, w) for u in range(len(adj)) for w in adj[u] if u < w)
    owners = {owner for owner, _, _ in blocks}
    for _, start, size in blocks:
        for f in range(start, start + size - 1):
            if f in owners or f + 1 in owners:
                continue
            swap = {f: f + 1, f + 1: f}
            swapped = sorted(
                tuple(sorted((swap.get(u, u), swap.get(w, w)))) for u, w in base
            )
            if swapped < base:
                return True
    return False


# ---------------------------------------------------------------------------
# the former saturation enumerator
# ---------------------------------------------------------------------------
# The library now grows each vertex count from the one below by edge
# insertion. This walks every first-use labeling instead, drops the leaves
# that either filter rejects, and canonicalises the rest with the unpruned
# search, so it shares no generation code with the library.

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


def oracle_enumerate(n: int) -> list:
    """Sorted canonical graph6 bytes of the connected cubic graphs on n
    vertices: the saturation leaves that no block swap lowers and whose
    vertex 0 holds the least cheap key, canonicalised without pruning."""
    forms = set()
    for adj, blocks in _saturation_leaves(n):
        if oracle_block_swap_lowers(adj, blocks):
            continue
        keys = oracle_cheap_vertex_keys(adj)
        if keys[0] != min(keys):
            continue
        g = build_graph(n, [(u, w) for u in range(n) for w in adj[u] if u < w])
        forms.add(oracle_canonical_form(g)[0])
    return sorted(forms)


def oracle_emit_graph6(g: Graph) -> str:
    """graph6 line of g built from a list with one bit per vertex pair."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> s) & 0x3F) + 63) for s in (12, 6, 0))
    else:
        raise InputError(f"graph6 encoding not supported for n={n}")
    bits: list[int] = []
    for v in range(1, n):
        row = g.adj[v]
        for u in range(v):
            bits.append(1 if u in row else 0)
    while len(bits) % 6:
        bits.append(0)
    body = "".join(
        chr((bits[i] << 5 | bits[i + 1] << 4 | bits[i + 2] << 3
             | bits[i + 3] << 2 | bits[i + 4] << 1 | bits[i + 5]) + 63)
        for i in range(0, len(bits), 6)
    )
    return head + body


def oracle_parse_graph6(text: str) -> Graph:
    """graph6 line decoded into a list with one bit per vertex pair, with
    the library's error messages and byte offsets."""
    if text.endswith("\n"):
        text = text[:-1]
    if not text:
        raise Graph6ParseError("empty graph6 input", 0)
    data = text
    if data.startswith(">>graph6<<"):
        data = data[10:]
        if not data:
            raise Graph6ParseError("graph6 header with no body", 10)
    for i, ch in enumerate(data):
        if not 63 <= ord(ch) <= 126:
            raise Graph6ParseError(f"byte {ord(ch)} outside graph6 alphabet", i)
    if data[0] == "~":
        if len(data) >= 2 and data[1] == "~":
            raise Graph6ParseError("graphs beyond 258047 vertices unsupported", 0)
        if len(data) < 4:
            raise Graph6ParseError("truncated multi-byte vertex count", len(data))
        n = 0
        for ch in data[1:4]:
            n = n << 6 | (ord(ch) - 63)
        body = data[4:]
        offset0 = 4
    else:
        n = ord(data[0]) - 63
        body = data[1:]
        offset0 = 1
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise Graph6ParseError(
            f"body too short: need {need} bytes, have {len(body)}", offset0 + len(body)
        )
    if len(body) > need:
        raise Graph6ParseError("trailing bytes after adjacency data", offset0 + need)
    bits: list[int] = []
    for ch in body:
        x = ord(ch) - 63
        bits.extend((x >> 5 & 1, x >> 4 & 1, x >> 3 & 1, x >> 2 & 1, x >> 1 & 1, x & 1))
    for j in range(nbits, len(bits)):
        if bits[j]:
            raise Graph6ParseError("nonzero padding bits", offset0 + j // 6)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                nbrs[u].add(v)
                nbrs[v].add(u)
            i += 1
    return Graph(n, tuple(tuple(sorted(s)) for s in nbrs))
