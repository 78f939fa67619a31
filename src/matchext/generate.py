"""Graph corpora: isomorph-free exhaustive generation and seeded G(n, p).

Exhaustive generation works level by level: every canonical representative
on t-1 vertices is extended by one new vertex attached to each possible
neighborhood subset, in ascending mask order, and candidates are
deduplicated by an exact canonical form. Every t-vertex graph arises this
way from some (t-1)-vertex graph, so each level covers all isomorphism
classes exactly once.

The canonical form is computed by individualization-refinement: iterated
degree refinement of an ordered partition, branching on the first
non-singleton cell, taking the minimum adjacency certificate over all
leaves. Cell selection depends only on colors, never on vertex labels, so
isomorphic graphs share a certificate. Fine for the <= 8 vertices the
census needs; beyond that the labeled space explodes and generation is
refused.

Both steps skip work that an automorphism of the graph would repeat.
Twins share their closed or their open neighborhood, so transposing them is
an automorphism (B. D. McKay, "Practical graph isomorphism", 1981,
restricted to these transpositions). The search branches on one vertex per
twin class of the target cell: twins in a cell have not been individualized,
so the transposition fixes the node and maps one subtree onto the other, and
the minimum certificate is unchanged.

The search also yields automorphisms at no extra cost: two leaves with equal
certificates order the vertices so that position i of one and position i of
the other have the same adjacencies, so mapping the one vertex to the other,
position by position, is an automorphism. Leaves the twin branching skipped
are reached from explored ones by twin transpositions, so these maps and the
transpositions of consecutive twins generate the whole group.

The extension step tries one neighborhood per orbit of the parent's
automorphism group. Any automorphism turns a neighborhood into another of
the same parent that gives an isomorphic graph, and in ascending order the
least member of an orbit comes first, so only it can hold the first
occurrence of a class; this holds for the orbits of any subgroup. A
neighborhood that holds a vertex but not an earlier twin of it is dropped
first, without a walk: the transposition makes it smaller. Every other one
is dropped when a walk of its orbit under the generators reaches a smaller
mask. Representatives, their order and the certificates are therefore the
same as without pruning.

The work of a level is split by parent: one parent's candidates, with their
certificates and automorphism generators, are one work unit, and an ordered
mapper (``map``, or the census's worker pool) runs the units. Deduplication
stays in the calling process, in (parent, neighborhood) order, so the
representatives, their order and their generators do not depend on the
mapper.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import partial

from .errors import log_info
from .graph import EDGE_LIMIT, Graph, _bits, twin_classes, twin_prefix_sets

EXHAUSTIVE_LIMIT = 8

# An ordered map: the builtin ``map`` or a worker pool's ``imap``.
Mapper = Callable[[Callable, Iterable], Iterable]

# Isomorphism class counts for n = 0..8; the tests check the generator against them.
KNOWN_GRAPH_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)


def _refine(nbrs: Sequence[tuple[int, ...]], colors: list[int]) -> list[int]:
    """Stable coloring: split classes by multiset of neighbor colors.

    Each pass refines the last, so a pass that keeps the class count keeps
    the partition, and its ranks are what every later pass returns. A
    vertex alone in its class is ranked by its color alone.
    """
    cells = len(set(colors))
    while True:
        seen: set[int] = set()
        shared = {c for c in colors if c in seen or seen.add(c)}
        signatures = [
            (c, tuple(sorted([colors[u] for u in nb]))) if c in shared else (c,)
            for c, nb in zip(colors, nbrs)
        ]
        order = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        colors = [order[sig] for sig in signatures]
        if len(order) == cells:
            return colors
        cells = len(order)


def _certificate(masks: tuple[int, ...], n: int, perm: list[int]) -> int:
    """Adjacency upper-triangle bits under ``perm``, packed into an int."""
    bits = 1  # sentinel high bit keeps leading zeros significant
    for i in range(n):
        mi = masks[perm[i]]
        for j in range(i + 1, n):
            bits = (bits << 1) | (mi >> perm[j] & 1)
    return bits


def canonical_form(g: Graph, *, automorphisms: list[tuple[int, ...]] | None = None) -> int:
    """Exact isomorphism invariant: equal iff the graphs are isomorphic.

    Given a list, appends generators of the automorphism group of ``g`` to
    it, each as the tuple of vertex images.
    """
    n = g.vertex_count
    masks = g.adjacency_masks
    if n == 0:
        return 1
    nbrs = [tuple(_bits(m)) for m in masks]
    twin = [0] * n
    for i, cls in enumerate(twin_classes(masks, (1 << n) - 1)):
        for v in cls:
            twin[v] = i
        if automorphisms is not None:
            for u, v in zip(cls, cls[1:]):
                swap = list(range(n))
                swap[u], swap[v] = v, u
                automorphisms.append(tuple(swap))
    best: int | None = None
    best_colors: list[int] = []

    def search(colors: list[int]) -> None:
        nonlocal best, best_colors
        colors = _refine(nbrs, colors)
        count: dict[int, int] = {}
        for c in colors:
            count[c] = count.get(c, 0) + 1
        target = None
        for c in sorted(count):
            if count[c] > 1:
                target = c
                break
        if target is None:
            perm = sorted(range(n), key=colors.__getitem__)
            cert = _certificate(masks, n, perm)
            if best is None or cert < best:
                best, best_colors = cert, colors
            elif cert == best and automorphisms is not None:
                # The vertex at each position of the best leaf goes to the
                # vertex at that position here.
                automorphisms.append(tuple(perm[c] for c in best_colors))
            return
        branched: set[int] = set()
        for v in range(n):
            if colors[v] == target and twin[v] not in branched:
                branched.add(twin[v])
                child = [2 * c + 1 for c in colors]
                child[v] = 2 * target
                search(child)

    search([0] * n)
    assert best is not None
    return best


def _image(perm: tuple[int, ...], mask: int) -> int:
    out = 0
    for v in _bits(mask):
        out |= 1 << perm[v]
    return out


def _extension_masks(parent: Graph, generators: Sequence[tuple[int, ...]]) -> list[int]:
    """Neighborhoods for a new vertex, ascending, that take a prefix of
    every twin class of ``parent`` and are the least of their orbit under
    ``generators``."""
    n = parent.vertex_count
    classes = twin_classes(parent.adjacency_masks, (1 << n) - 1)
    masks = sorted(m for size in range(n + 1) for m in twin_prefix_sets(classes, size))
    return [m for m in masks if _least_in_orbit(m, generators)]


def _least_in_orbit(mask: int, generators: Sequence[tuple[int, ...]]) -> bool:
    orbit = {mask}
    stack = [mask]
    while stack:
        x = stack.pop()
        for perm in generators:
            y = _image(perm, x)
            if y < mask:
                return False
            if y not in orbit:
                orbit.add(y)
                stack.append(y)
    return True


def _extensions(
    item: tuple[Graph, Sequence[tuple[int, ...]]], t: int
) -> list[tuple[int, int, tuple[tuple[int, ...], ...]]]:
    """(mask, canonical form, automorphism generators) of each t-vertex graph
    that one parent, given as (parent, its generators), yields: the new
    vertex t - 1 attached to ``mask``, for each mask of _extension_masks."""
    parent, generators = item
    base_edges = parent.edges()
    out = []
    for nbmask in _extension_masks(parent, generators):
        found: list[tuple[int, ...]] = []
        candidate = Graph(t, base_edges + [(u, t - 1) for u in _bits(nbmask)])
        cert = canonical_form(candidate, automorphisms=found)
        out.append((nbmask, cert, tuple(found)))
    return out


# Representatives of one vertex count, each beside its automorphism generators.
Level = tuple[tuple[Graph, tuple[tuple[int, ...], ...]], ...]

# t -> _exhaustive_level(t); the levels do not depend on the mapper.
_LEVELS: dict[int, Level] = {}


def _exhaustive_level(t: int, mapper: Mapper = map) -> Level:
    """Canonical representatives of every t-vertex graph, discovery order,
    each beside generators of its automorphism group.

    ``mapper`` runs _extensions over the parents and yields in their order.
    """
    if t in _LEVELS:
        return _LEVELS[t]
    if t <= 1:
        return _LEVELS.setdefault(t, ((Graph(t), ()),))
    parents = _exhaustive_level(t - 1, mapper)
    reps: list[tuple[Graph, tuple[tuple[int, ...], ...]]] = []
    seen: set[int] = set()
    tried = 0
    for (parent, _), extensions in zip(parents, mapper(partial(_extensions, t=t), parents)):
        base_edges = parent.edges()
        for nbmask, cert, generators in extensions:
            tried += 1
            if cert not in seen:
                seen.add(cert)
                reps.append((Graph(t, base_edges + [(u, t - 1) for u in _bits(nbmask)]), generators))
    log_info("matchext.generate", "level %d: %d extensions tried, %d classes", t, tried, len(reps))
    return _LEVELS.setdefault(t, tuple(reps))


def exhaustive_count(max_vertices: int) -> int:
    """How many graphs exhaustive_graphs(max_vertices) returns, without
    generating them; refuses the sizes it refuses."""
    if max_vertices > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"exhaustive generation is limited to {EXHAUSTIVE_LIMIT} vertices"
        )
    return sum(KNOWN_GRAPH_COUNTS[1 : max_vertices + 1])


def exhaustive_graphs(max_vertices: int, mapper: Mapper = map) -> list[Graph]:
    """One representative per isomorphism class, 1..max_vertices vertices.

    Deterministic order: vertex count ascending, then discovery order, for
    any ordered ``mapper`` (``map``, or a pool's ``imap``). Refuses
    max_vertices > EXHAUSTIVE_LIMIT: isomorph-free generation at that size
    needs specialized tooling.
    """
    exhaustive_count(max_vertices)  # refuses sizes beyond EXHAUSTIVE_LIMIT
    out: list[Graph] = []
    for t in range(1, max_vertices + 1):
        out.extend(g for g, _ in _exhaustive_level(t, mapper))
    return out


def random_graphs(
    count: int,
    min_vertices: int,
    max_vertices: int,
    edge_probability: float,
    seed: int,
) -> list[Graph]:
    """Seeded G(n, p) sample; n uniform in [min_vertices, max_vertices].

    Fully reproducible: the same arguments always produce the same list.
    """
    return list(random_graph_stream(count, min_vertices, max_vertices, edge_probability, seed))


def random_graph_stream(
    count: int,
    min_vertices: int,
    max_vertices: int,
    edge_probability: float,
    seed: int,
) -> Iterator[Graph]:
    """The graphs of random_graphs, drawn one at a time; the arguments are
    checked by the call itself, before any graph is drawn."""
    if min_vertices < 0 or max_vertices < min_vertices:
        raise ValueError("need 0 <= min_vertices <= max_vertices")
    if not (0.0 <= edge_probability <= 1.0):
        raise ValueError("edge_probability must be in [0, 1]")
    if (pairs := max_vertices * (max_vertices - 1) // 2) > EDGE_LIMIT:
        raise ValueError(f"{max_vertices} vertices have {pairs} vertex pairs; the limit is {EDGE_LIMIT}")
    rng = random.Random(seed)

    def draw() -> Iterator[Graph]:
        for _ in range(count):
            nv = rng.randrange(min_vertices, max_vertices + 1)
            edges = [
                (u, v)
                for u in range(nv)
                for v in range(u + 1, nv)
                if rng.random() < edge_probability
            ]
            yield Graph(nv, edges)

    return draw()
