"""Benchmark inputs: the recorded base classes and seeded relabelings of them.

The graph6 codec here is the benchmark's own, so the inputs never depend on
the code under test. ``data/classes.tsv`` lists every connected cubic graph
class with n <= 14 (621 classes) together with the facts ``classify`` must
report for any relabeling of it; ``data/census_4_14.csv`` is the byte-exact
output of ``census --n-min 4 --n-max 14``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
CLASSES_FILE = DATA / "classes.tsv"
CENSUS_FILE = DATA / "census_4_14.csv"

# OEIS A002851: connected cubic graphs on n vertices, up to isomorphism.
A002851 = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509}

FACT_KEYS = ("n", "bridge_count", "class", "is_hamiltonian", "certificate")


@dataclass(frozen=True)
class BaseClass:
    graph6: str
    n: int
    edges: tuple[tuple[int, int], ...]
    facts: dict


def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edge list of a graph6 string with n <= 62."""
    data = [ord(c) - 63 for c in text]
    if not data or not 0 <= data[0] <= 62 or any(not 0 <= x < 64 for x in data):
        raise ValueError(f"not a short graph6 string: {text!r}")
    n = data[0]
    bits = [(x >> (5 - k)) & 1 for x in data[1:] for k in range(6)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if len(bits) < len(pairs) or len(data) - 1 != (len(pairs) + 5) // 6:
        raise ValueError(f"graph6 length does not match n={n}: {text!r}")
    return n, [p for p, bit in zip(pairs, bits) if bit]


def encode_graph6(n: int, edges) -> str:
    present = {(min(u, w), max(u, w)) for u, w in edges}
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [
        sum(bit << (5 - k) for k, bit in enumerate(bits[i:i + 6]))
        for i in range(0, len(bits), 6)
    ]
    return "".join(chr(x + 63) for x in [n] + body)


def is_connected_cubic(n: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    if any(len(row) != 3 for row in adj):
        return False
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def load_classes() -> list[BaseClass]:
    """Read the recorded classes and check them against A002851 and the
    recorded census; pairwise non-isomorphism is checked by the caller,
    which has the program's canonical forms at hand."""
    classes = []
    for line in CLASSES_FILE.read_text().splitlines():
        if line.startswith("#"):
            continue
        g6, n, bridges, label, ham, cert = line.split("\t")
        size, edges = decode_graph6(g6)
        if size != int(n) or not is_connected_cubic(size, edges):
            raise ValueError(f"recorded class {g6} is not a connected cubic graph on {n}")
        facts = {
            "n": size,
            "bridge_count": int(bridges),
            "class": label,
            "is_hamiltonian": ham == "true",
            "certificate": cert,
        }
        classes.append(BaseClass(g6, size, tuple(edges), facts))
    if len({c.graph6 for c in classes}) != len(classes):
        raise ValueError("recorded classes repeat a graph6 string")
    per_n = Counter(c.n for c in classes)
    if dict(per_n) != A002851:
        raise ValueError(f"class counts {dict(per_n)} differ from A002851 {A002851}")
    _check_against_census(classes)
    return classes


def _check_against_census(classes: list[BaseClass]) -> None:
    lines = CENSUS_FILE.read_text().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        facts = [c.facts for c in classes if c.n == int(row["n"])]
        derived = {
            "total_cubic": len(facts),
            "hamiltonian": sum(f["is_hamiltonian"] for f in facts),
            "bridge": sum(f["class"] == "bridge" for f in facts),
            "biconnected": sum(f["class"] == "biconnected" for f in facts),
            "three_connected": sum(f["class"] == "three-connected" for f in facts),
        }
        for key, value in derived.items():
            if int(row[key]) != value:
                raise ValueError(f"recorded classes give {key}={value} at n={row['n']}, census says {row[key]}")


def census_rows(n_max: int) -> bytes:
    """The recorded census output for ``--n-min 4 --n-max n_max``: the
    header and the rows with n <= n_max."""
    header, *rows = CENSUS_FILE.read_bytes().splitlines(keepends=True)
    return header + b"".join(row for row in rows if int(row.split(b",")[0]) <= n_max)


def relabel(base: BaseClass, rng: random.Random) -> str:
    perm = list(range(base.n))
    rng.shuffle(perm)
    return encode_graph6(base.n, [(perm[u], perm[w]) for u, w in base.edges])


def relabeled_corpus(classes: list[BaseClass], copies: int, seed: int) -> list[tuple[str, BaseClass]]:
    """``copies`` random relabelings of every class, in class order per copy.
    The same seed gives the same corpus."""
    rng = random.Random(seed)
    return [(relabel(c, rng), c) for _ in range(copies) for c in classes]
