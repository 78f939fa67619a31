"""Maximum matchings, Tutte certificates, and the subset oracle.

One blossom kernel serves every caller. It works on the host graph's
adjacency masks and a vertex mask, so an induced subgraph needs no
relabelling: a greedy pass over bitmasks, then augmentations along paths
of length 3, then Edmonds' search only when two exposed vertices with
neighbours are left (_blossom_mates). The length-3 pass leaves most subsets
without a second exposed vertex, so Edmonds' search rarely runs. Vertices
are scanned in ascending order and every tie breaks toward the smaller
index, so a fixed graph always yields the same matching. The
extendability search layers a per-graph subset oracle on top (see
SubsetMatchingOracle), which answers maximum-matching sizes for arbitrary
induced subgraphs. It starts with one memoized blossom run per queried
subset and switches to a table over all 2^n subsets after 2^n / 32 runs
(see the constants below), and graphs of at most 12 vertices get it at
once. The table is built with bitsets over the subset lattice, one int bit
per vertex mask, a vertex at a time (_build_table). On graphs of at most 12
vertices the oracle keeps those level bitsets, and every extendability
search there reads its vertex sets from bitsets.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

from .errors import NotAMatchingError
from .graph import Graph, VertexSet, _bits, components_of_mask


@dataclass(frozen=True)
class Matching:
    """Pairwise vertex-disjoint edges in canonical sorted order."""

    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        seen = 0
        prev = None
        for u, v in self.edges:
            if u >= v:
                raise NotAMatchingError(f"edge ({u}, {v}) not in (min, max) order")
            if u < 0:
                raise NotAMatchingError(f"edge ({u}, {v}) has a negative vertex")
            if prev is not None and (u, v) <= prev:
                raise NotAMatchingError("edges not sorted lexicographically")
            prev = (u, v)
            bits = (1 << u) | (1 << v)
            if seen & bits:
                raise NotAMatchingError(f"edge ({u}, {v}) reuses a matched vertex")
            seen |= bits

    @staticmethod
    def of(edges: Iterable[tuple[int, int]]) -> "Matching":
        canon = sorted((min(u, v), max(u, v)) for u, v in edges)
        return Matching(tuple(canon))

    @property
    def size(self) -> int:
        return len(self.edges)

    @cached_property
    def vertices(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.edges)

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class TutteCertificate:
    """Vertex set S' whose removal leaves |S'| + excess odd components.

    A valid certificate has excess >= 2, which by Tutte's theorem rules out
    a 1-factor; everything here is recomputable from the host graph.
    """

    s_prime: VertexSet
    odd_components: tuple[VertexSet, ...]
    deficiency_excess: int


def _greedy_mates(masks: Sequence[int], mask: int) -> tuple[list[int], int]:
    """Greedy maximal matching of G[mask]: its mate array and its roots.

    ``masks`` are the host graph's adjacency masks, and the array is indexed
    by host vertex: -1 marks an exposed vertex or one outside ``mask``. Each
    vertex, in ascending order, is matched to its lowest free neighbour. The
    roots are the exposed vertices with neighbours in ``mask`` (all of them
    matched). An augmenting path joins two roots, so when at most one is
    left the matching is maximum.
    """
    mate = [-1] * len(masks)
    free = mask
    roots = 0
    while free:
        low = free & -free
        free ^= low
        v = low.bit_length() - 1
        nb = masks[v] & free
        if nb:
            ub = nb & -nb
            free ^= ub
            u = ub.bit_length() - 1
            mate[v], mate[u] = u, v
        elif masks[v] & mask:
            roots |= low
    return mate, roots


def _edmonds_augment(masks: Sequence[int], mask: int, mate: list[int], roots: int) -> None:
    """Edmonds' search, in place: makes the matching ``mate`` of G[mask] maximum.

    ``roots`` are its exposed vertices with neighbours in ``mask``. The
    search runs once from each still exposed root in ascending order,
    scanning neighbours in ascending order; a root with no augmenting path
    never gains one after later augmentations.
    """
    verts = list(_bits(mask))
    size = len(masks)
    parent = [-1] * size
    base = list(range(size))
    in_tree = [False] * size
    in_blossom = [False] * size

    def lowest_common_base(a: int, b: int) -> int:
        on_path = set()
        while True:
            a = base[a]
            on_path.add(a)
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if b in on_path:
                return b
            b = parent[mate[b]]

    def mark_path(v: int, b: int, child: int) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def find_augmenting_end(root: int) -> int:
        for i in verts:
            in_tree[i] = False
            parent[i] = -1
            base[i] = i
        in_tree[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in _bits(masks[v] & mask):
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                    # Odd cycle: contract the blossom around its base.
                    cur_base = lowest_common_base(v, to)
                    for i in verts:
                        in_blossom[i] = False
                    mark_path(v, cur_base, to)
                    mark_path(to, cur_base, v)
                    for i in verts:
                        if in_blossom[base[i]]:
                            base[i] = cur_base
                            if not in_tree[i]:
                                in_tree[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if mate[to] == -1:
                        return to
                    in_tree[mate[to]] = True
                    queue.append(mate[to])
        return -1

    for root in _bits(roots):
        if mate[root] != -1:
            continue
        end = find_augmenting_end(root)
        while end != -1:
            prev = parent[end]
            before = mate[prev]
            mate[end] = prev
            mate[prev] = end
            end = before


def _blossom_mates(masks: Sequence[int], mask: int) -> list[int]:
    """Deterministic maximum matching of G[mask], uncached: its mate array.

    After the greedy pass, each root v in ascending order takes the first
    augmenting path v-u-w-x of length 3 (u a neighbour of v, w its mate, x
    another root next to w); Edmonds' search runs only if two roots are left.
    """
    mate, roots = _greedy_mates(masks, mask)
    left = roots
    while left and roots & (roots - 1):
        low = left & -left
        left ^= low
        v = low.bit_length() - 1
        for u in _bits(masks[v] & mask):
            w = mate[u]
            ends = masks[w] & roots & ~low
            if ends:
                xb = ends & -ends
                x = xb.bit_length() - 1
                mate[v], mate[u], mate[w], mate[x] = u, v, x, w
                roots ^= low | xb
                left &= ~xb
                break
    if roots & (roots - 1):
        _edmonds_augment(masks, mask, mate, roots)
    return mate


def _blossom_size(masks: Sequence[int], mask: int) -> int:
    """Maximum matching size of the induced subgraph on ``mask``, uncached."""
    return (len(masks) - _blossom_mates(masks, mask).count(-1)) // 2


def maximum_matching(g: Graph) -> Matching:
    """A maximum-cardinality matching, deterministic for a fixed graph."""
    mate = _blossom_mates(g.adjacency_masks, (1 << g.vertex_count) - 1)
    edges = [(v, mate[v]) for v in g.vertices() if mate[v] > v]
    return Matching(tuple(edges))


def has_one_factor(g: Graph) -> bool:
    """True iff a matching saturates every vertex (the empty graph counts)."""
    n = g.vertex_count
    return n % 2 == 0 and maximum_matching(g).size * 2 == n


def _one_factors_in_mask(
    masks: Sequence[int], mask: int
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Perfect matchings of the induced subgraph, lexicographic order."""
    if mask == 0:
        yield ()
        return
    low = mask & -mask
    v = low.bit_length() - 1
    for u in _bits(masks[v] & mask & ~low):
        for rest in _one_factors_in_mask(masks, mask & ~low & ~(1 << u)):
            yield ((v, u),) + rest


# Measured on a 2-core x86 box (Python 3.11) over the misses of the verdicts
# on the H1/H2 family instances of 14 to 21 vertices (h1 at (n, k + 2), h2 at
# (n + 2, k)): one table entry of the bitset build costs 0.024-0.063 us and
# one blossom miss 1.6-5.1 us, a ratio of 45 to 198 (median 88). So the
# table has paid for itself after about 2^n / 45 to 2^n / 198 misses. The
# budget of 2^n / 32 misses was set when a miss cost 18 to 35 entries; it
# now lies above the range, so the table comes late: when it is built, the
# misses have cost 1.4 to 6 times what it does. Up to 12 vertices the table
# costs at most about 0.2 ms (K12); a census asks thousands of queries of
# each such graph, so it is built at once.
_EAGER_VERTICES = 12
_MISS_SHIFT = 5


# A bitset over the vertex masks of a graph on N vertices is an int whose bit
# m stands for mask m, so one int operation acts on all 2^N masks at once.


def _grow_selectors(selectors: list[int], h: int) -> list[int]:
    """Per vertex u <= h, the bitset of the masks of the vertices up to h that hold u.

    ``selectors`` is the same over the masks of the vertices below h.
    """
    width = 1 << h
    return [sel | sel << width for sel in selectors] + [((1 << width) - 1) << width]


@lru_cache(maxsize=None)
def _selectors(vertex_count: int) -> tuple[int, ...]:
    """Per vertex u, the bitset of the masks on ``vertex_count`` <= _EAGER_VERTICES vertices that hold u."""
    selectors: list[int] = []
    for h in range(vertex_count):
        selectors = _grow_selectors(selectors, h)
    return tuple(selectors)


@lru_cache(maxsize=None)
def _size_bitsets(vertex_count: int) -> tuple[int, ...]:
    """Per size s, the bitset of the masks on ``vertex_count`` <= _EAGER_VERTICES vertices with s vertices."""
    sizes = [1]
    for h in range(vertex_count):  # adding h: size s gains the (s - 1)-sets moved up by 2^h
        sizes = [a | b << (1 << h) for a, b in zip(sizes + [0], [0] + sizes)]
    return tuple(sizes)


_ONE_PER_BYTE = bytes.maketrans(b"01", b"\0\1")


class SubsetMatchingOracle:
    """Maximum-matching sizes for every induced subgraph G[mask] of one graph.

    Two ways to answer, chosen by a ski-rental rule. Lazily, each queried
    subset costs one memoized blossom run (a miss). Densely, a table over
    all 2^n subsets answers every query by one index; it is built from the
    level bitsets of _build_table. Graphs of at most 12 vertices build the
    table at once and keep the levels in ``levels``. Larger ones start lazy and
    build it once the misses reach ``miss_budget`` = 2^n / 32 (see the
    constants above). From then on ``size`` is the table's own
    ``__getitem__``, so callers that read ``oracle.size`` afterwards do a
    bare index. The memo stays as it was, so it never holds more than
    ``miss_budget`` entries and its length is the number of misses.

    Also carries the caches of the extendability decisions (see
    extendability._decide and extendability._qualifying_edges):
    ``nk_cache``, the verdict per (mask, n, k), shared by the theorem
    validators; ``edge_cache``, per (n, k), the edges e whose G - V(e) is
    (n, k)-extendable; and ``flips``, the bit-reversed level bitsets that
    _decide reads. ``levels`` is non-empty exactly on graphs of at most 12
    vertices (the empty graph has [1]), and there the searches range over
    every vertex set as bitset algebra. On a larger graph it stays empty,
    also once the table is built, and the searches walk twin-prefix sets
    instead (extendability._prefix_sets).
    """

    def __init__(self, graph: Graph):
        self.masks = graph.adjacency_masks
        self.n = graph.vertex_count
        self.full_mask = (1 << self.n) - 1
        self.nk_cache: dict[tuple[int, int, int], bool] = {}
        self.edge_cache: dict[tuple[int, int], list[int]] = {}
        self.flips: dict[int | None, int] = {}
        self.levels: list[int] = []
        self._lazy: dict[int, int] = {}
        self._table: bytearray | None = None
        if self.n <= _EAGER_VERTICES:
            self._promote()

    @property
    def miss_budget(self) -> int:
        """Blossom misses after which the table is built: 2^n / 32."""
        return (1 << self.n) >> _MISS_SHIFT

    @property
    def misses(self) -> int:
        """Subsets answered by a blossom run so far."""
        return len(self._lazy)

    @property
    def table_built(self) -> bool:
        """True once the table over all 2^n subsets is built."""
        return self._table is not None

    def _promote(self) -> None:
        if self._table is None:
            self._table = self._build_table()
            self.size = self._table.__getitem__

    def _build_table(self) -> bytearray:
        """The table of nu(G[mask]) for every mask, from the level bitsets.

        levels[j] is the bitset of the masks m with nu(G[m]) >= j. They are
        built one vertex h at a time: a mask m + 2^h of the vertices up to h
        has nu >= j iff nu(m) >= j or nu(m - u) >= j - 1 for a neighbour
        u < h in m, so the new half of levels[j] is levels[j] or, over
        those u, levels[j - 1] shifted up by 2^u and cut to the masks
        holding u. nu(m) is the number of levels holding m: each level is
        spread to one byte per bit and the levels are added as integers,
        which never carry since a byte sums to at most n / 2. Up to 12
        vertices the selectors come from a cache and ``levels`` keeps the levels.
        """
        eager = self.n <= _EAGER_VERTICES
        sel = _selectors(self.n) if eager else []  # a larger graph grows its own, cached nowhere
        levels = [1]  # levels[0] over the empty graph's one mask
        for h, row in enumerate(self.masks):
            lower = [(1 << u, sel[u]) for u in _bits(row & ((1 << h) - 1))]
            if 2 * len(levels) <= h + 1:
                levels.append(0)
            for j in range(len(levels) - 1, 0, -1):  # downwards: levels[j - 1] is still old
                below, high = levels[j - 1], levels[j]
                for step, holds_u in lower:
                    high |= below << step & holds_u
                levels[j] |= high << (1 << h)
            levels[0] |= levels[0] << (1 << h)
            if not eager:
                sel = _grow_selectors(sel, h)
        del sel  # before the spread below, which is the peak
        while len(levels) > 1 and not levels[-1]:
            levels.pop()
        if eager:  # only the bitset decisions read them
            self.levels = levels
        width = 1 << self.n
        total = 0
        for level in levels[1:]:  # one level's spread at a time, to bound the peak memory
            total += int.from_bytes(format(level, f"0{width}b").encode().translate(_ONE_PER_BYTE), "big")
        return bytearray(total.to_bytes(width, "little"))

    def size(self, mask: int) -> int:
        """Maximum matching size of G[mask]; rebound to a table index once built."""
        cached = self._lazy.get(mask)
        if cached is None:
            if self._table is not None:  # bound by a caller before the table was built
                return self._table[mask]
            cached = self._lazy[mask] = _blossom_size(self.masks, mask)
            if len(self._lazy) >= self.miss_budget:
                self._promote()
        return cached

    def is_perfectable(self, mask: int) -> bool:
        """True iff G[mask] has a 1-factor."""
        count = mask.bit_count()
        return count % 2 == 0 and self.size(mask) * 2 == count


def _gallai_edmonds_tutte(
    size: Callable[[int], int], masks: Sequence[int], mask: int
) -> TutteCertificate | None:
    """Tutte certificate for G[mask] via the Gallai-Edmonds A-set, or None.

    ``size`` gives the maximum matching size of an induced subgraph by its
    vertex mask, and ``masks`` are the adjacency masks of the host graph.
    D = vertices missed by some maximum matching (nu(G - v) == nu(G)),
    A = N(D) \\ D; A attains the maximum deficiency, so the excess of the
    returned set equals |mask| - 2*nu and is >= 2 exactly when an even-order
    subgraph has no 1-factor.
    """
    count = mask.bit_count()
    if count % 2 == 1:
        return None
    nu = size(mask)
    if 2 * nu == count:
        return None
    d_mask = 0
    for v in _bits(mask):
        if size(mask & ~(1 << v)) == nu:
            d_mask |= 1 << v
    a_mask = 0
    for v in _bits(d_mask):
        a_mask |= masks[v] & mask
    a_mask &= ~d_mask
    comps = components_of_mask(masks, mask & ~a_mask)
    odd = [c for c in comps if c.bit_count() % 2 == 1]
    excess = len(odd) - a_mask.bit_count()
    return TutteCertificate(
        s_prime=VertexSet(tuple(_bits(a_mask))),
        odd_components=tuple(VertexSet(tuple(_bits(c))) for c in odd),
        deficiency_excess=excess,
    )


def find_tutte_certificate(g: Graph) -> TutteCertificate | None:
    """Certificate that g has no 1-factor, or None when one exists.

    Only even-order graphs without a 1-factor yield a certificate; parity
    makes the excess even, hence >= 2. Each size query is one blossom run.
    """
    masks = g.adjacency_masks
    return _gallai_edmonds_tutte(partial(_blossom_size, masks), masks, (1 << g.vertex_count) - 1)
