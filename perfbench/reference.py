"""A fixed pure-Python job that gauges how fast the host runs Python right now.

    python3 reference.py

It does breadth-first searches on a fixed cubic graph with lists, dicts and
sets, the kind of interpreter work the program does, and prints nothing.
The benchmark times it in a fresh process before and after every measured
process and scales the measured wall time to reference speed (see
``run.Gauge``), because the speed of the shared host this benchmark was
written on moves by up to 1.8x between phases of half a minute or more.
"""

N = 1000
SOURCES = range(N)


def main() -> int:
    # a circulant cubic graph: a ring plus chords to the opposite vertex
    adj = [((v + 1) % N, (v - 1) % N, (v + N // 2) % N) for v in range(N)]
    total = 0
    for source in SOURCES:
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        total += sum(dist.values()) + len(set(dist.values()))
    return 0 if total > 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
