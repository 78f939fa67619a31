"""The H1/H2 sharpness families.

H1(n, k) = (2 K_{2n+1}) + (K_n u (k+2) K_2)
H2(n, k) = (2 K_{2n+1}) + (K_{n+2} u k K_2)

where "+" is the graph join and "u" disjoint union. Vertices are numbered
clique blocks first, then the core clique, then the pendant pairs, so the
canonical witnesses (core set, pendant matching) are stable across runs.

H1(n, k) is (n, k+1)-extendable but not (n, k+2)-extendable; H2(n, k) is
not (n+2, k)-extendable. H1 keeps (n, k)-extendability under deletion of
any edge's endpoints (apart from the corner n = 0, k = 1, where deleting a
join edge breaks it), which makes it a sharpness example for the
edge-deletion theorems. H2 does not: deleting its core edge leaves the rest
of the core and the pendant matching as a stuck pair, so H2 fails the
edge-deletion hypothesis.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .graph import EDGE_LIMIT, Graph, VertexSet, complete_graph, disjoint_union, join
from .matching import Matching

_FAMILY_RE = re.compile(r"^(h1|h2):(\d+):(\d+)$")


@dataclass(frozen=True)
class FamilyInstance:
    """A constructed family member with its named parts.

    clique_blocks are the two (2n+1)-cliques, core is the K_n (H1) or
    K_{n+2} (H2) part, pendant_matching the (k+2) (H1) or k (H2) pendant
    edges.
    """

    graph: Graph
    clique_blocks: tuple[VertexSet, VertexSet]
    core: VertexSet
    pendant_matching: Matching
    ref: str


def _build(family: str, n: int, k: int, core_size: int, pendant_count: int) -> FamilyInstance:
    if n < 0 or k < 0:
        raise ValueError("n and k must be non-negative")
    block_size = 2 * n + 1
    right_size = core_size + 2 * pendant_count
    edges = block_size * (block_size - 1 + 2 * right_size) + core_size * (core_size - 1) // 2 + pendant_count
    if edges > EDGE_LIMIT:
        raise ValueError(f"{family}:{n}:{k} would have {edges} edges; the limit is {EDGE_LIMIT}")
    blocks = disjoint_union([complete_graph(block_size), complete_graph(block_size)])
    right = disjoint_union([complete_graph(core_size)] + [complete_graph(2)] * pendant_count)
    g = join(blocks, right)

    b0 = tuple(range(block_size))
    b1 = tuple(range(block_size, 2 * block_size))
    core_start = 2 * block_size
    core = tuple(range(core_start, core_start + core_size))
    pendant_start = core_start + core_size
    pendants = tuple((pendant_start + 2 * i, pendant_start + 2 * i + 1) for i in range(pendant_count))

    return FamilyInstance(
        graph=g,
        clique_blocks=(VertexSet(b0), VertexSet(b1)),
        core=VertexSet(core),
        pendant_matching=Matching(pendants),
        ref=f"{family}:{n}:{k}",
    )


def build_h1(n: int, k: int) -> FamilyInstance:
    """H1(n, k): join of two (2n+1)-cliques with K_n plus (k+2) pendant edges."""
    return _build("h1", n, k, core_size=n, pendant_count=k + 2)


def build_h2(n: int, k: int) -> FamilyInstance:
    """H2(n, k): join of two (2n+1)-cliques with K_{n+2} plus k pendant edges."""
    return _build("h2", n, k, core_size=n + 2, pendant_count=k)


def resolve_family_ref(text: str) -> FamilyInstance | None:
    """Build the instance named by ``h1:<n>:<k>`` / ``h2:<n>:<k>``, else None."""
    m = _FAMILY_RE.match(text.strip())
    if m is None:
        return None
    family, n, k = m.group(1), int(m.group(2)), int(m.group(3))
    builder = build_h1 if family == "h1" else build_h2
    return builder(n, k)
