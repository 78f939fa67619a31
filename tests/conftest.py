import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from matchext import Graph, complete_graph, disjoint_union, join
from matchext.census import _ordered_map
from matchext.generate import EXHAUSTIVE_LIMIT, _exhaustive_level

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def corpus_up_to_eight():
    """Build the <= 8 exhaustive corpus once per session, in the census's
    two-worker ordered map. The levels land in generate's cache, where
    exhaustive_graphs(8) and an exhaustive census find them; they do not
    depend on the mapper."""
    with _ordered_map(2) as mapper:
        _exhaustive_level(EXHAUSTIVE_LIMIT, mapper)


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


@st.composite
def graphs(draw, min_vertices: int = 0, max_vertices: int = 8):
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, keep in zip(pairs, flags) if keep])


@st.composite
def twin_heavy_graphs(draw, max_vertices: int = 9):
    """A small graph joined with, or placed beside, a clique or an
    independent set, so that twin classes with several members occur."""
    base = draw(graphs(max_vertices=max_vertices - 2))
    size = draw(st.integers(2, max_vertices - base.vertex_count))
    part = complete_graph(size) if draw(st.booleans()) else Graph(size)
    if draw(st.booleans()):
        return join(base, part)
    return disjoint_union([base, part])
