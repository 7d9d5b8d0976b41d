import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from cubic_lab.graphs import Graph, build_graph


@pytest.fixture
def k4() -> Graph:
    return build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.fixture
def triangle() -> Graph:
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path3() -> Graph:
    return build_graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def diamond() -> Graph:
    # K4 minus the (0,3) edge: tips 0 and 3, hubs 1 and 2
    return build_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


@pytest.fixture
def k33() -> Graph:
    return build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])


@pytest.fixture
def prism() -> Graph:
    return build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                           (0, 3), (1, 4), (2, 5)])


def make_prism(k: int) -> Graph:
    """The prism C_k x K2: outer cycle 0..k-1, inner cycle k..2k-1, spokes."""
    return build_graph(2 * k, [
        *((i, (i + 1) % k) for i in range(k)),
        *((k + i, k + (i + 1) % k) for i in range(k)),
        *((i, k + i) for i in range(k)),
    ])


def long_form(g6: str) -> str:
    """A short-form graph6 line respelled with the four-character size field."""
    n = ord(g6[0]) - 63
    return "~" + "".join(chr((n >> s & 0x3F) + 63) for s in (12, 6, 0)) + g6[1:]


@pytest.fixture
def d8() -> Graph:
    """Two diamonds tied tip-to-tip by a 2-edge-cut."""
    return build_graph(8, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
                           (4, 5), (4, 6), (5, 6), (5, 7), (6, 7),
                           (0, 4), (3, 7)])


def make_dumbbell() -> Graph:
    """The 10-vertex cubic bridge graph: two K4-with-a-subdivided-edge halves
    joined at their subdivision vertices."""
    edges = []
    for off in (0, 5):
        edges += [(off, off + 1), (off, off + 2), (off, off + 3),
                  (off + 1, off + 2), (off + 1, off + 3),
                  (off + 2, off + 4), (off + 3, off + 4)]
    edges.append((4, 9))
    return build_graph(10, edges)


@pytest.fixture
def dumbbell() -> Graph:
    return make_dumbbell()


PETERSEN_EDGES = ([(i, (i + 1) % 5) for i in range(5)]
                  + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                  + [(i, i + 5) for i in range(5)])


@pytest.fixture
def petersen() -> Graph:
    return build_graph(10, PETERSEN_EDGES)


def make_petersen_dumbbell() -> Graph:
    """A 22-vertex cubic bridge graph, past the 16-vertex group cap: two
    Petersen graphs, each with its edge (0, 1) subdivided by vertex 10 of
    its half, joined by the bridge (10, 21)."""
    edges = []
    for off in (0, 11):
        edges += [(u + off, w + off) for u, w in PETERSEN_EDGES if (u, w) != (0, 1)]
        edges += [(off, off + 10), (off + 1, off + 10)]
    edges.append((10, 21))
    return build_graph(22, edges)


def make_diamond_ring() -> Graph:
    """Three diamonds linked tip-to-tip in a ring: 12 vertices, three
    bi-bridges, every cut splitting 4 against 8."""
    edges = []
    for off in (0, 4, 8):
        edges += [(off, off + 1), (off, off + 2), (off + 1, off + 2),
                  (off + 1, off + 3), (off + 2, off + 3)]
    edges += [(3, 4), (7, 8), (11, 0)]
    return build_graph(12, edges)


@pytest.fixture
def diamond_ring() -> Graph:
    return make_diamond_ring()
