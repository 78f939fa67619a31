"""Immutable simple graphs plus the constructions the deciders build on.

Vertices are dense indices 0..vertex_count-1. Adjacency is kept as one int
bitmask per vertex, which makes induced-subgraph reasoning (everywhere in
this package phrased in terms of vertex-subset masks) cheap and keeps the
whole structure hashable and shareable across worker processes.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, combinations

from .errors import OutOfRangeError

# Most edges (vertex pairs, for G(n, p)) a graph built from a short argument may have.
EDGE_LIMIT = 1_000_000


@dataclass(frozen=True)
class VertexSet:
    """Sorted, duplicate-free vertex indices of some host graph."""

    members: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.members and min(self.members) < 0:
            raise OutOfRangeError(f"negative vertex index {min(self.members)}")
        if any(u >= v for u, v in zip(self.members, self.members[1:])):
            raise ValueError(f"vertex set members not strictly increasing: {self.members}")

    @staticmethod
    def of(vertices: Iterable[int]) -> "VertexSet":
        return VertexSet(tuple(sorted(set(vertices))))

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True, slots=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Equality and hashing are by vertex count and edge set.
    """

    vertex_count: int
    adjacency_masks: tuple[int, ...]

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        masks = [0] * vertex_count
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise OutOfRangeError(f"edge ({u}, {v}) outside 0..{vertex_count - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "adjacency_masks", tuple(masks))

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adjacency_masks) // 2

    def vertices(self) -> range:
        return range(self.vertex_count)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adjacency_masks[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return tuple(_bits(self.adjacency_masks[v]))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        out = []
        for u in range(self.vertex_count):
            m = self.adjacency_masks[u] >> (u + 1) << (u + 1)
            for v in _bits(m):
                out.append((u, v))
        return out

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.vertex_count):
            raise OutOfRangeError(f"vertex {v} outside 0..{self.vertex_count - 1}")

    def __repr__(self) -> str:
        return f"Graph(vertices={self.vertex_count}, edges={self.edge_count})"


def _bits(mask: int) -> Iterator[int]:
    """Set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def twin_classes(masks: Sequence[int], mask: int) -> list[list[int]]:
    """Twin classes of the induced subgraph on ``mask``.

    Twins share their closed neighbourhood (true twins) or their open one
    (false twins), so swapping two twins is an automorphism. A vertex with a
    true twin has no false twin (a false twin w of v would share N(v), which
    holds v's true twin u, so w ~ u, w in N[u] = N[v]), so the two relations
    together partition the vertices. Each class is ascending; classes are
    ordered by least member.
    """
    verts = list(_bits(mask))
    nbrs = [masks[v] & mask for v in verts]
    closed = Counter(nb | (1 << v) for v, nb in zip(verts, nbrs))
    groups: dict[int, list[int]] = {}
    for v, nb in zip(verts, nbrs):
        key = nb | (1 << v)
        if closed[key] == 1:
            key = ~nb  # no true twin: group by N(v), kept apart from N[v] keys by sign
        groups.setdefault(key, []).append(v)
    # Lists, not tuples: CPython keeps up to 2000 freed tuples of each
    # length on free lists, and tuples of many lengths, freed graph after
    # graph, raised a census's peak RSS by 0.8 MB.
    return list(groups.values())


def twin_prefix_sets(classes: Sequence[Sequence[int]], size: int) -> Iterator[int]:
    """Masks of the twin-prefix sets of ``size`` vertices.

    Such a set takes the first j_c members of every class c of
    ``twin_classes``. Singleton classes are chosen with
    itertools.combinations; the others by the count they contribute.
    """
    singles = [1 << c[0] for c in classes if len(c) == 1]
    if len(singles) == len(classes):
        yield from map(sum, combinations(singles, size))
        return
    choices = [(0, 0)]
    for c in classes:
        if len(c) > 1:
            prefixes = list(accumulate((1 << v for v in c), initial=0))
            choices = [
                (base | part, used + j)
                for base, used in choices
                for j, part in enumerate(prefixes[: size - used + 1])
            ]
    for base, used in choices:
        for combo in combinations(singles, size - used):
            yield base + sum(combo)


def complete_graph(m: int) -> Graph:
    """K_m: every pair of the m vertices adjacent."""
    return Graph(m, [(u, v) for u in range(m) for v in range(u + 1, m)])


def disjoint_union(parts: Sequence[Graph]) -> Graph:
    """Vertex-disjoint union; part i's indices are offset by the sizes before it."""
    total = sum(p.vertex_count for p in parts)
    edges: list[tuple[int, int]] = []
    offset = 0
    for p in parts:
        edges.extend((u + offset, v + offset) for u, v in p.edges())
        offset += p.vertex_count
    return Graph(total, edges)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union of g and h plus every edge between the two parts."""
    base = disjoint_union([g, h])
    gn = g.vertex_count
    cross = [(u, gn + v) for u in range(gn) for v in range(h.vertex_count)]
    return Graph(base.vertex_count, base.edges() + cross)


def delete_vertices(g: Graph, s: Iterable[int] | VertexSet) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on V(g) minus s, and the ascending old indices it kept.

    ``kept[i]`` is the old index of new vertex i, so callers can translate
    certificates computed on the reduced graph back into g's numbering.
    """
    vs = s if isinstance(s, VertexSet) else VertexSet.of(s)
    if vs.members and vs.members[-1] >= g.vertex_count:
        raise OutOfRangeError(
            f"vertex {vs.members[-1]} outside 0..{g.vertex_count - 1}"
        )
    dropped = set(vs.members)
    kept = tuple(v for v in g.vertices() if v not in dropped)
    new_of = {old: new for new, old in enumerate(kept)}
    edges = [(new_of[u], new_of[v]) for u, v in g.edges() if u in new_of and v in new_of]
    return Graph(len(kept), edges), kept


def components_of_mask(masks: Sequence[int], mask: int) -> list[int]:
    """Connected components of the induced subgraph on ``mask``, as masks.

    Ordered by smallest contained vertex.
    """
    out = []
    todo = mask
    while todo:
        start = todo & -todo
        comp = start
        frontier = start
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier ^= frontier & -frontier
            grow = masks[v] & mask & ~comp
            comp |= grow
            frontier |= grow
        out.append(comp)
        todo &= ~comp
    return out
