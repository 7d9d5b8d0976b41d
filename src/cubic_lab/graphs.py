"""Immutable simple-graph values, graph6/edge-list codecs, and BFS.

Vertices are dense 0-based ids. Every edit that keeps the ids is one call of
``edit_graph``: append isolated vertices, delete edges, add edges, with one
validated graph built per call. Only ``remove_vertices`` and
``induced_subgraph`` compact the ids; they hand back a remap, so stable
identity across a transformation lives in the remap, never in the ids
themselves (``relabel`` permutes them). Adjacency is stored sorted and every
operation returns a new graph, which keeps iteration orders (and therefore
everything built on top) reproducible.

The graph6 codec (McKay's format) works a character at a time. The parser
skips each ``?`` (six clear bits), looks up the set bits of every other
character in a 64-entry table, and turns pair index i into (u, v) with
``isqrt``; the emitter starts from a body of ``?`` and adds one bit per
edge. ``_graph6_bytes`` writes any rows, so canonical forms are written
straight from a labeling without building the relabeled graph. Input may
carry the ``>>graph6<<`` header and the four-character size field for any
n; output never has the header and uses the long size field only from
n = 63 on.

The records here and in ``connectivity``, ``hamilton``, ``symmetry`` and
``census`` are ``typing.NamedTuple`` classes, and ``Graph`` is a slotted
class with the value semantics of a frozen dataclass (equal only to
another ``Graph``, hashable, immutable). None of them uses ``dataclasses``:
with the ``inspect`` it pulls in, it took about 11 ms of the 55 ms that
``import cubic_lab.cli`` took with every module compiled from source
(``python -X importtime``, Python 3.11, 2-core box). So the commands that
never run ``construction`` or ``reduction``, which keep their dataclasses,
do not import it.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import Graph6ParseError, InputError, InvariantError


class Edge(NamedTuple):
    """An undirected edge in canonical orientation (u < v)."""

    u: int
    v: int


def edge(a: int, b: int) -> Edge:
    """Canonical edge for an unordered vertex pair; rejects self-loops."""
    if a == b:
        raise InputError(f"self-loop ({a},{a}) is not a valid edge")
    return Edge(a, b) if a < b else Edge(b, a)


class Graph:
    """Simple undirected graph: no self-loops, no parallel edges.

    ``adj[v]`` is the sorted tuple of v's neighbors. Instances validate
    themselves on construction and are hashable, so they can be shared,
    cached, and sent across workers freely. A graph is equal only to
    another ``Graph`` with the same ``n`` and ``adj``; its attributes cannot
    be set or deleted, and unpickling builds it anew, so it is validated
    again.
    """

    __slots__ = ("n", "adj")

    n: int
    adj: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, adj: tuple[tuple[int, ...], ...]):
        # validation keeps its dataclass hook name, run once per graph built:
        # the tests and the benchmark's tracer count constructions through it
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)
        self.__post_init__()

    def __post_init__(self):
        if self.n < 0:
            raise InvariantError("negative vertex count")
        if len(self.adj) != self.n:
            raise InvariantError(f"adjacency length {len(self.adj)} != n={self.n}")
        for u, nbrs in enumerate(self.adj):
            prev = -1
            for w in nbrs:
                if not 0 <= w < self.n:
                    raise InvariantError(f"neighbor id {w} of vertex {u} out of range")
                if w == u:
                    raise InvariantError(f"self-loop at vertex {u}")
                if w <= prev:
                    raise InvariantError(f"adjacency of {u} not strictly increasing")
                prev = w
        for u, nbrs in enumerate(self.adj):
            for w in nbrs:
                if u not in self.adj[w]:
                    raise InvariantError(f"asymmetric edge ({u},{w})")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: Graph is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: Graph is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __reduce__(self):
        return (self.__class__, (self.n, self.adj))

    @property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, a: int, b: int) -> bool:
        return b in self.adj[a]

    def edges(self) -> tuple[Edge, ...]:
        return tuple(
            Edge(u, w) for u in range(self.n) for w in self.adj[u] if u < w
        )

    def __repr__(self):  # compact, test-failure friendly
        return f"Graph(n={self.n}, edges={[tuple(e) for e in self.edges()]})"


def _graph_from_sets(nbrs: Sequence[set[int]]) -> Graph:
    return Graph(len(nbrs), tuple(tuple(sorted(s)) for s in nbrs))


def build_graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Build a validated Graph from a vertex count and edge pairs.

    Duplicate pairs collapse; self-loops and out-of-range ids are rejected
    with the offending pair named.
    """
    if n < 0:
        raise InputError("vertex count must be non-negative")
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for pair in edges:
        a, b = pair
        if not (0 <= a < n and 0 <= b < n):
            raise InputError(f"edge ({a},{b}) has an endpoint outside [0,{n})")
        if a == b:
            raise InputError(f"edge ({a},{b}) is a self-loop")
        nbrs[a].add(b)
        nbrs[b].add(a)
    return _graph_from_sets(nbrs)


def edit_graph(
    g: Graph, *, new_vertices: int = 0,
    remove: Iterable[Sequence[int]] = (), add: Iterable[Sequence[int]] = (),
) -> Graph:
    """Return g with ``new_vertices`` isolated vertices appended (ids g.n
    onward), the ``remove`` edges deleted, then the ``add`` edges added, as
    one validated Graph that copies only the touched rows. Removing a
    missing edge or adding an existing one is an InputError."""
    if new_vertices < 0:
        raise InputError("cannot add a negative number of vertices")
    n = g.n + new_vertices
    adj = list(g.adj) + [()] * new_vertices
    remove, add = tuple(remove), tuple(add)
    rows = {x: set(adj[x]) for pair in (*remove, *add) for x in pair if 0 <= x < n}
    for a, b in remove:
        e = edge(a, b)
        if not (0 <= e.u < n and 0 <= e.v < n) or e.v not in rows[e.u]:
            raise InputError(f"edge ({a},{b}) not present")
        rows[e.u].discard(e.v)
        rows[e.v].discard(e.u)
    for a, b in add:
        e = edge(a, b)
        if not (0 <= e.u < n and 0 <= e.v < n):
            raise InputError(f"edge ({a},{b}) has an endpoint outside [0,{n})")
        if e.v in rows[e.u]:
            raise InputError(f"edge ({e.u},{e.v}) already present")
        rows[e.u].add(e.v)
        rows[e.v].add(e.u)
    for x, nbrs in rows.items():
        adj[x] = tuple(sorted(nbrs))
    return Graph(n, tuple(adj))


def remove_vertices(g: Graph, drop: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Delete vertices and compact ids.

    Returns the new graph and the order-preserving remap {old id: new id}
    for the survivors.
    """
    dropped = set(drop)
    for v in dropped:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range")
    return induced_subgraph(g, (v for v in range(g.n) if v not in dropped))


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply a permutation (perm[old] = new) to the vertex ids."""
    if sorted(perm) != list(range(g.n)):
        raise InputError("relabeling is not a permutation of the vertex ids")
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u in range(g.n):
        nbrs[perm[u]] = sorted(perm[w] for w in g.adj[u])
    return Graph(g.n, tuple(tuple(row) for row in nbrs))


def induced_subgraph(g: Graph, subset: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on ``subset`` plus the order-preserving id remap."""
    sub = sorted(set(subset))
    for v in sub:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range")
    remap = {old: new for new, old in enumerate(sub)}
    keep = set(sub)
    nbrs = [
        tuple(sorted(remap[w] for w in g.adj[old] if w in keep)) for old in sub
    ]
    return Graph(len(sub), tuple(nbrs)), remap


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------

# _SET_BITS[x]: offsets 0-5 (most significant first) of the set bits of
# the 6-bit value x that a graph6 body character carries as chr(x + 63)
_SET_BITS = tuple(tuple(j for j in range(6) if x >> (5 - j) & 1) for x in range(64))


def _graph6_bytes(n: int, rows: Sequence[Iterable[int]]) -> bytearray:
    """Size field and body of the n-vertex graph in which ``rows[v]`` holds
    v's neighbors, in any order. Each edge sets its bit from its larger end."""
    if n <= 62:
        out = bytearray((n + 63,))
    elif n <= 258047:
        out = bytearray((126, (n >> 12) + 63, (n >> 6 & 0x3F) + 63, (n & 0x3F) + 63))
    else:
        raise InputError(f"graph6 encoding not supported for n={n}")
    at = len(out)
    out += b"?" * ((n * (n - 1) // 2 + 5) // 6)
    for v, row in enumerate(rows):
        base = v * (v - 1) >> 1
        for u in row:
            if u < v:
                i = base + u
                out[at + i // 6] += 32 >> i % 6
    return out


def emit_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line (no header, no newline)."""
    return _graph6_bytes(g.n, g.adj).decode("ascii")


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 line; errors carry the byte offset of the fault."""
    if text.endswith("\n"):
        text = text[:-1]
    if not text:
        raise Graph6ParseError("empty graph6 input", 0)
    data = text
    if data.startswith(">>graph6<<"):
        data = data[10:]
        if not data:
            raise Graph6ParseError("graph6 header with no body", 10)
    if min(data) < "?" or max(data) > "~":
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
    # pair i is (u, v) with v(v-1)/2 + u = i and u < v; pairs arrive in
    # increasing i, so every row fills in ascending order
    rows: list[list[int]] = [[] for _ in range(n)]
    for k, x in enumerate(body.encode("ascii")):
        if x == 63:
            continue
        for j in _SET_BITS[x - 63]:
            i = 6 * k + j
            if i >= nbits:
                raise Graph6ParseError("nonzero padding bits", offset0 + k)
            v = (isqrt(8 * i + 1) + 1) >> 1
            u = i - (v * (v - 1) >> 1)
            rows[u].append(v)
            rows[v].append(u)
    return Graph(n, tuple(map(tuple, rows)))


def parse_graph6_lines(text: str) -> list[tuple[str, Graph]]:
    """Parse a graph6 corpus: one graph per line, blank lines ignored.

    Each graph comes with its normal-form graph6: the line itself when it
    has no header and a one-character size field (or n >= 63 needs the long
    one), else the graph re-emitted."""
    pairs = []
    for line in text.splitlines():
        if not line.strip():
            continue
        g = parse_graph6(line)
        normal = not line.startswith(">>graph6<<") and (line[0] != "~" or g.n > 62)
        pairs.append((line if normal else emit_graph6(g), g))
    return pairs


# ---------------------------------------------------------------------------
# plain edge-list format: first line "n m", then m lines "u v"
# ---------------------------------------------------------------------------

def emit_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{e.u} {e.v}" for e in g.edges())
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> Graph:
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise InputError("edge list must start with a line 'n m'")
    try:
        n, m = int(rows[0][0]), int(rows[0][1])
        pairs = [(int(a), int(b)) for a, b in rows[1:]]
    except ValueError as exc:
        raise InputError(f"malformed edge list: {exc}") from exc
    if len(pairs) != m:
        raise InputError(f"edge list declares {m} edges but has {len(pairs)}")
    g = build_graph(n, pairs)
    if g.m != m:
        raise InputError(f"edge list declares {m} edges but has {g.m} distinct ones")
    return g


# ---------------------------------------------------------------------------
# traversal
# ---------------------------------------------------------------------------

class DistanceProfile(NamedTuple):
    """BFS distances from ``root``; None marks unreachable vertices.

    ``max_dist`` is the largest finite distance.
    """

    root: int
    dist: tuple[Optional[int], ...]
    max_dist: int


def bfs_distances(g: Graph, root: int, within: Optional[Iterable[int]] = None) -> DistanceProfile:
    """Shortest-path edge counts from root, optionally restricted to a
    vertex subset (edges leaving the subset are ignored)."""
    if not 0 <= root < g.n:
        raise InputError(f"root {root} out of range")
    allowed = None if within is None else set(within)
    if allowed is not None and root not in allowed:
        raise InputError("root must belong to the restricting subset")
    dist: list[Optional[int]] = [None] * g.n
    dist[root] = 0
    queue = [root]
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for w in g.adj[u]:
            if dist[w] is None and (allowed is None or w in allowed):
                dist[w] = dist[u] + 1
                queue.append(w)
    max_dist = max(d for d in dist if d is not None)
    return DistanceProfile(root, tuple(dist), max_dist)


def is_connected(g: Graph) -> bool:
    """Whether every vertex is reached from vertex 0 (true for n = 0)."""
    if g.n == 0:
        return True
    adj = g.adj
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                reached += 1
                stack.append(w)
    return reached == g.n


def is_cubic(g: Graph) -> bool:
    return all(len(nbrs) == 3 for nbrs in g.adj)
