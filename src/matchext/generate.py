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

Both steps skip work that swapping two twins would repeat. Twins share
their closed or their open neighborhood, so transposing them is an
automorphism (B. D. McKay, "Practical graph isomorphism", 1981, restricted
to these transpositions). The search branches on one vertex per twin class
of the target cell: twins in a cell have not been individualized, so the
transposition fixes the node and maps one subtree onto the other, and the
minimum certificate is unchanged. The extension step skips a neighborhood
that holds a vertex but not an earlier twin of it in the parent: the
transposition turns it into a smaller neighborhood of the same parent that
gives an isomorphic graph, so it never holds the first occurrence of a
class. Representatives, their order and the certificates are therefore the
same as without pruning.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Sequence

from .graph import Graph, _bits, twin_classes, twin_prefix_sets

EXHAUSTIVE_LIMIT = 8

# Isomorphism class counts for n = 0..8; the tests check the generator against them.
KNOWN_GRAPH_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)


def _refine(nbrs: Sequence[tuple[int, ...]], colors: list[int]) -> list[int]:
    """Stable coloring: split classes by multiset of neighbor colors."""
    while True:
        signatures = [
            (colors[v], tuple(sorted([colors[u] for u in nb])))
            for v, nb in enumerate(nbrs)
        ]
        order = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new_colors = [order[sig] for sig in signatures]
        if new_colors == colors:
            return colors
        colors = new_colors


def _certificate(masks: tuple[int, ...], n: int, perm: list[int]) -> int:
    """Adjacency upper-triangle bits under ``perm``, packed into an int."""
    bits = 1  # sentinel high bit keeps leading zeros significant
    for i in range(n):
        mi = masks[perm[i]]
        for j in range(i + 1, n):
            bits = (bits << 1) | (mi >> perm[j] & 1)
    return bits


def canonical_form(g: Graph) -> int:
    """Exact isomorphism invariant: equal iff the graphs are isomorphic."""
    n = g.vertex_count
    masks = g.adjacency_masks
    if n == 0:
        return 1
    nbrs = [tuple(_bits(m)) for m in masks]
    twin = [0] * n
    for i, cls in enumerate(twin_classes(masks, (1 << n) - 1)):
        for v in cls:
            twin[v] = i
    best: int | None = None

    def search(colors: list[int]) -> None:
        nonlocal best
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
                best = cert
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


def _extension_masks(parent: Graph) -> list[int]:
    """Neighborhoods for a new vertex, ascending, that take a prefix of
    every twin class of ``parent``."""
    n = parent.vertex_count
    classes = twin_classes(parent.adjacency_masks, (1 << n) - 1)
    return sorted(m for size in range(n + 1) for m in twin_prefix_sets(classes, size))


@lru_cache(maxsize=None)
def _exhaustive_level(t: int) -> tuple[Graph, ...]:
    """Canonical representatives of every t-vertex graph, discovery order."""
    if t == 0:
        return (Graph(0),)
    if t == 1:
        return (Graph(1),)
    reps: list[Graph] = []
    seen: set[int] = set()
    for parent in _exhaustive_level(t - 1):
        base_edges = parent.edges()
        for nbmask in _extension_masks(parent):
            edges = base_edges + [(u, t - 1) for u in _bits(nbmask)]
            candidate = Graph(t, edges)
            cert = canonical_form(candidate)
            if cert not in seen:
                seen.add(cert)
                reps.append(candidate)
    return tuple(reps)


def exhaustive_graphs(max_vertices: int) -> list[Graph]:
    """One representative per isomorphism class, 1..max_vertices vertices.

    Deterministic order: vertex count ascending, then discovery order.
    Refuses max_vertices > EXHAUSTIVE_LIMIT: isomorph-free generation at
    that size needs specialized tooling.
    """
    if max_vertices > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"exhaustive generation is limited to {EXHAUSTIVE_LIMIT} vertices"
        )
    out: list[Graph] = []
    for t in range(1, max_vertices + 1):
        out.extend(_exhaustive_level(t))
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
    if min_vertices < 0 or max_vertices < min_vertices:
        raise ValueError("need 0 <= min_vertices <= max_vertices")
    if not (0.0 <= edge_probability <= 1.0):
        raise ValueError("edge_probability must be in [0, 1]")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nv = rng.randrange(min_vertices, max_vertices + 1)
        edges = [
            (u, v)
            for u in range(nv)
            for v in range(u + 1, nv)
            if rng.random() < edge_probability
        ]
        out.append(Graph(nv, edges))
    return out
