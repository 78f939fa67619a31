"""Independent brute-force reference implementations.

Everything here deliberately avoids the package's search machinery: the
matching oracle enumerates instead of augmenting, deficiency is maximized
over all vertex subsets with its own component walk, and the extendability
oracle is the definition's double loop using only vertex deletion and
has_one_factor. Expected values frozen into tests were computed with these.

Some references are exceptions. reference_search_failure walks every
(S, M) pair in lexicographic order over the package's subset oracle, and
the set-form engine must report exactly its first failure.
reference_theoremB_matching walks every i-matching M in the same order and
decides G - V(M) with the package's cached decision, and TB's set-form
right side and witness descent must agree with it.
reference_blossom_mates is the package's earlier blossom kernel, on
neighbour lists of a relabelled subgraph, and the mask kernel must return
the same mate array. blossom_size_mismatches checks the blossom kernel's
sizes against the subset oracle's table, whose level bitsets grow one
vertex at a time and share no step with an augmenting-path search.
reference_table is the oracle's earlier table build, a recurrence over the
lowest vertex of each mask, one mask at a time, and the bitset build must
give the same bytes.
reference_decide is the walk that _decide ran on graphs of at most 12
vertices before it used bitsets: conditions (i) and (ii), set by set over
every vertex set, charging the budget per set. decision_mismatches checks
the bitset decision against it, verdict, counters and charges included.
reference_one_factor_body walks every 1-factor of G for T4/TC, and the
theorem body must give exactly its report. qualifying_edge_mismatches
decides every G - V(e) on its own, twin-pruned, and the one scan that
_qualifying_edges runs must agree with it edge by edge, both with the level
bitsets and over twin-prefix sets, where it fails whole orbits.
reference_qualifying_edges is the scan that _qualifying_edges ran on graphs
of at most 12 vertices before it used bitsets: every vertex set walked in
ascending order, charging the budget per set, and the bitset scan must
give the same edges and charges. twin_path_mismatches runs each verdict
twice on graphs of at most 12 vertices, with the bitset decisions and over
twin-prefix sets only, and the two must agree, witness included; so must
the decisions on each G - V(e). An oracle is sent down the twin-prefix
path by emptying its ``levels``, and both checks fail if it still has
levels at the end.
reference_canonical_form is the canonical form without twin pruning: it
branches on every vertex of the target cell, and the pruned search must
return the same integer.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from matchext import Graph, VertexSet, delete_vertices, has_one_factor, theorems
from matchext.errors import BudgetExceededError
from matchext.extendability import (
    Budget,
    FailureKind,
    SearchStats,
    _decide,
    _holds_on_mask,
    _qualifying_edges,
    _stuck_matching,
    _verdict_on_mask,
    admissible,
)
from matchext.graph import _bits
from matchext.graph_io import serialize_graph6
from matchext.matching import Matching, SubsetMatchingOracle, _blossom_size, _one_factors_in_mask
from matchext.theorems import TheoremStatus


def brute_max_matching_size(g: Graph) -> int:
    """Exhaustive branch over the lowest vertex: unmatched, or mated to each
    neighbor in turn. No memoization; every matching is explored."""
    masks = g.adjacency_masks

    def rec(mask: int) -> int:
        if mask == 0:
            return 0
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        best = rec(rest)
        nb = masks[v] & rest
        while nb:
            ub = nb & -nb
            nb ^= ub
            cand = 1 + rec(rest ^ ub)
            if cand > best:
                best = cand
        return best

    return rec((1 << g.vertex_count) - 1)


def reference_blossom_mates(n: int, neighbors: Sequence[Sequence[int]]) -> list[int]:
    """Edmonds' blossom search on neighbour lists; the mate array (-1 = exposed).

    The package's earlier kernel, kept as the reference for its mask-native
    one: a greedy pass matches each vertex to its lowest free neighbour, then
    each exposed vertex in ascending order roots a search that scans
    neighbours in ascending order, so the two must give the same array.
    """
    mate = [-1] * n
    for v, near in enumerate(neighbors):
        if mate[v] == -1:
            for u in near:
                if mate[u] == -1:
                    mate[v], mate[u] = u, v
                    break
    parent = [-1] * n
    base = list(range(n))
    in_tree = [False] * n
    in_blossom = [False] * n

    def lowest_common_base(a: int, b: int) -> int:
        on_path = [False] * n
        while True:
            a = base[a]
            on_path[a] = True
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if on_path[b]:
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
        for i in range(n):
            in_tree[i] = False
            parent[i] = -1
            base[i] = i
        in_tree[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in neighbors[v]:
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                    # Odd cycle: contract the blossom around its base.
                    cur_base = lowest_common_base(v, to)
                    for i in range(n):
                        in_blossom[i] = False
                    mark_path(v, cur_base, to)
                    mark_path(to, cur_base, v)
                    for i in range(n):
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

    for root in range(n):
        if mate[root] != -1:
            continue
        end = find_augmenting_end(root)
        if end == -1:
            continue
        while end != -1:
            prev = parent[end]
            before = mate[prev]
            mate[end] = prev
            mate[prev] = end
            end = before
    return mate


def matchings_by_combinations(g: Graph, k: int) -> list[tuple[tuple[int, int], ...]]:
    """All k-matchings as sorted edge tuples, via k-subsets of the edge list."""
    out = []
    for combo in combinations(g.edges(), k):
        seen: set[int] = set()
        ok = True
        for u, v in combo:
            if u in seen or v in seen:
                ok = False
                break
            seen.update((u, v))
        if ok:
            out.append(tuple(combo))
    return out


def matchings_in_mask(
    masks: Sequence[int], mask: int, k: int
) -> Iterator[tuple[tuple[tuple[int, int], ...], int]]:
    """Exactly-k matchings inside the induced subgraph on ``mask``, listed.

    Yields (canonical edge tuple, vertex mask) pairs in lexicographic order
    of the edge tuples: the order the package's witness descent and TB's
    set-form right side must reproduce without listing.
    """
    edges: list[tuple[int, int, int]] = []
    for u in _bits(mask):
        above = mask & ~((1 << (u + 1)) - 1)
        for v in _bits(masks[u] & above):
            edges.append((u, v, (1 << u) | (1 << v)))
    total = len(edges)

    def rec(start: int, used: int, chosen: tuple) -> Iterator:
        if len(chosen) == k:
            yield chosen, used
            return
        need = k - len(chosen)
        for i in range(start, total - need + 1):
            u, v, bits = edges[i]
            if bits & used:
                continue
            yield from rec(i + 1, used | bits, chosen + ((u, v),))

    yield from rec(0, 0, ())


def brute_has_one_factor(g: Graph) -> bool:
    n = g.vertex_count
    return n % 2 == 0 and brute_max_matching_size(g) * 2 == n


def brute_max_deficiency(g: Graph) -> int:
    """max over all U of (odd components of G - U) - |U|, own component walk."""
    n = g.vertex_count
    masks = g.adjacency_masks
    best: int | None = None
    for umask in range(1 << n):
        rem = ((1 << n) - 1) ^ umask
        odd = 0
        todo = rem
        while todo:
            comp = todo & -todo
            frontier = comp
            while frontier:
                v = (frontier & -frontier).bit_length() - 1
                frontier ^= frontier & -frontier
                grow = masks[v] & rem & ~comp
                comp |= grow
                frontier |= grow
            if comp.bit_count() % 2 == 1:
                odd += 1
            todo &= ~comp
        value = odd - umask.bit_count()
        if best is None or value > best:
            best = value
    assert best is not None or n == 0
    return 0 if best is None else best


def naive_is_nk_extendable(g: Graph, n: int, k: int) -> bool:
    """The definition verbatim: every size-n deletion keeps a k-matching and
    every k-matching of the rest extends to a 1-factor."""
    for s in combinations(range(g.vertex_count), n):
        sub, _ = delete_vertices(g, VertexSet(s))
        k_matchings = matchings_by_combinations(sub, k)
        if not k_matchings:
            return False
        for m in k_matchings:
            used = {v for e in m for v in e}
            rest, _ = delete_vertices(sub, VertexSet.of(used))
            if not has_one_factor(rest):
                return False
    return True


def reference_search_failure(
    oracle: SubsetMatchingOracle, mask: int, n: int, k: int
) -> tuple[FailureKind, tuple[int, ...], tuple[tuple[int, int], ...] | None] | None:
    """First failing (S, M) pair over G[mask], or None when (n, k) holds.

    S runs over size-n subsets of mask in lexicographic order; M over the
    k-matchings of G[mask] - S in lexicographic canonical order.
    """
    for s_tuple in combinations(list(_bits(mask)), n):
        smask = 0
        for v in s_tuple:
            smask |= 1 << v
        rem = mask ^ smask
        if oracle.size(rem) < k:
            return (FailureKind.NO_K_MATCHING, s_tuple, None)
        for chosen, used in matchings_in_mask(oracle.masks, rem, k):
            if not oracle.is_perfectable(rem ^ used):
                return (FailureKind.STUCK_MATCHING, s_tuple, chosen)
    return None


def reference_theoremB_matching(oracle: SubsetMatchingOracle, k: int, i: int) -> tuple[tuple[int, int], ...] | None:
    """First i-matching M of G, in lexicographic canonical order, with
    G - V(M) not (0, k - i)-extendable; None when there is none."""
    full = oracle.full_mask
    for chosen, used in matchings_in_mask(oracle.masks, full, i):
        if not _holds_on_mask(oracle, full ^ used, 0, k - i):
            return chosen
    return None


def theoremB_mismatches(graphs: Iterable[Graph], k_max: int) -> tuple[int, int, list[tuple[str, int, int]]]:
    """TB's set-form right side and its witness descent against the lex walk.

    For every admissible (k <= k_max, 1 <= i <= k) of each graph, the row's
    rhs_all_deletions must say that no i-matching fails, and on a failing
    row _stuck_matching must return reference_theoremB_matching's matching.
    Returns the rows compared, how many have a failing i-matching, and the
    (graph6, k, i) of every row that disagrees.
    """
    rows, failing, bad = 0, 0, []
    for g in graphs:
        oracle = SubsetMatchingOracle(g)
        full = oracle.full_mask
        for k in range(1, k_max + 1):
            if not admissible(g.vertex_count, 0, k):
                continue
            for i in range(1, k + 1):
                expected = reference_theoremB_matching(oracle, k, i)
                report = theorems.verify_theoremB(g, k, i, oracle=oracle)
                # rhs_all_deletions is None when G has no i-matching.
                want = expected is None if oracle.size(full) >= i else None
                ok = report.hypothesis_detail["rhs_all_deletions"] is want
                if expected is not None:
                    failing += 1
                    ok = ok and _stuck_matching(oracle, full, i, None, SearchStats(), k - i)[0] == expected
                rows += 1
                if not ok:
                    bad.append((serialize_graph6(g), k, i))
    return rows, failing, bad


def reference_qualifying_edges(
    oracle: SubsetMatchingOracle, n: int, k: int, budget: Budget | None
) -> list[int]:
    """The edges e with G - V(e) (n, k)-extendable, walked set by set.

    The (n+2)-sets U, then (k >= 1, while an edge is alive) the
    (n+2k+2)-sets W, each in ascending order and charged to ``budget`` as it
    is reached (Budget.spend). A failing U fails every edge inside it; a W
    with no 1-factor in G - W fails each edge inside it that leaves a
    k-matching of W. Each walk stops once no edge is alive, so an edgeless
    graph stops at its first failing U. Each vertex is its own orbit.
    """
    size, full = oracle.size, oracle.full_mask
    alive = list(oracle.masks)
    rest = oracle.n - n - 2

    def walk(count: int) -> Iterable[int]:
        sets = _masks_by_size(oracle.n)[count]
        return sets if budget is None else budget.spend(sets)

    for u_set in walk(n + 2):
        nu = size(full ^ u_set)
        if nu < k or (k == 0 and 2 * nu != rest):
            for a in _bits(u_set):
                alive[a] &= ~u_set
            if not any(alive):
                break
    if k and any(alive):
        half = rest // 2 - k
        for w_set in walk(n + 2 * k + 2):
            if size(full ^ w_set) == half or size(w_set) <= k:
                continue
            for a in _bits(w_set):
                for b in _bits(alive[a] & w_set >> (a + 1) << (a + 1)):
                    if size(w_set ^ (1 << a) ^ (1 << b)) >= k:
                        alive[a] &= ~(1 << b)
                        alive[b] &= ~(1 << a)
            if not any(alive):
                break
    return alive


def _twin_oracle(g: Graph) -> SubsetMatchingOracle:
    """An oracle on g whose searches walk twin-prefix sets: its ``levels`` emptied."""
    oracle = SubsetMatchingOracle(g)
    oracle.levels = []
    return oracle


def qualifying_edge_mismatches(
    graphs: Iterable[Graph],
    n_max: int = 3,
    k_max: int = 2,
    twin_scan: bool = False,
    sampled_caps: bool = False,
) -> tuple[int, int, list[tuple]]:
    """_qualifying_edges against one _holds_on_mask per edge and against the set-by-set walk.

    The per-edge reference decides each G - V(e) on its own, twin-pruned,
    on a twin oracle (_twin_oracle). The scan runs on a default oracle,
    which reads the level bitsets on graphs of at most 12 vertices, and with
    ``twin_scan`` also on a twin oracle, so that it walks twin-prefix sets
    and fails whole orbits as on larger graphs. For every (n <= n_max,
    k <= k_max) admissible on G - V(e), every edge is a cell.

    On graphs of at most 12 vertices, edgeless ones included, each such
    (n, k) is also a scan compared with reference_qualifying_edges, as
    decision_mismatches compares decisions: under a fresh Budget both must
    give the same edges and pairs_charged; then the scan runs under every
    pair_cap from 0 to that charge (with ``sampled_caps``, at 0, half of it,
    one below it and at it), aborting with pairs_charged one past the cap
    and caching nothing below it, and giving the same edges at it.

    Returns the cells compared, the scans compared, and the (graph6, n, k,
    edge, scan) of every cell and the (graph6, n, k, "charges") of every
    scan that disagrees. Fails if a twin oracle has levels at the end.
    """
    cells, scans, bad = 0, 0, []
    for g in graphs:
        reference = _twin_oracle(g)
        oracles = {"default": SubsetMatchingOracle(g)}
        if twin_scan:
            oracles["twin"] = _twin_oracle(g)
        edges = g.edges()
        for n in range(n_max + 1):
            for k in range(k_max + 1):
                if not admissible(g.vertex_count - 2, n, k):
                    continue
                if g.vertex_count <= 12:
                    scans += 1
                    if not _same_scan_charges(oracles["default"], n, k, sampled_caps):
                        bad.append((serialize_graph6(g), n, k, "charges"))
                profiles = {name: _qualifying_edges(oracle, n, k) for name, oracle in oracles.items()}
                for u, v in edges:
                    holds = _holds_on_mask(reference, reference.full_mask ^ (1 << u) ^ (1 << v), n, k)
                    bad.extend(
                        (serialize_graph6(g), n, k, (u, v), name)
                        for name, qualifying in profiles.items()
                        if bool(qualifying[u] >> v & 1) != holds
                    )
                cells += len(edges)
        assert not reference.levels and not (twin_scan and oracles["twin"].levels), "a twin oracle has levels"
    return cells, scans, bad


def _same_scan_charges(oracle: SubsetMatchingOracle, n: int, k: int, sampled_caps: bool) -> bool:
    """The cap sweep of qualifying_edge_mismatches on one (n, k); leaves the scan cached."""
    budget = Budget()
    expected = reference_qualifying_edges(oracle, n, k, budget)
    charged = budget.pairs_charged
    caps = range(charged + 1) if not sampled_caps else sorted({0, charged // 2, max(charged - 1, 0), charged})
    for cap in [None, *caps]:
        oracle.edge_cache.pop((n, k), None)
        budget = Budget(pair_cap=cap)
        try:
            alive = _qualifying_edges(oracle, n, k, budget)
        except BudgetExceededError:
            alive = None
        # A walk stopped by the cap has charged the set past it, and caches nothing.
        want = (expected, charged) if cap in (None, charged) else (None, cap + 1)
        if (alive, budget.pairs_charged) != want or ((n, k) in oracle.edge_cache) != (alive is not None):
            return False
    return True


def twin_path_mismatches(
    graphs: Iterable[Graph], n_max: int = 3, k_max: int = 2, deletions: bool = False
) -> tuple[int, list[tuple[str, int, int]]]:
    """Verdicts over twin-prefix sets against the same with bitset decisions.

    Each graph gets a default oracle, which decides over every vertex set at
    once (at most 12 vertices), and a twin oracle (_twin_oracle), which walks
    the twin-prefix sets that graphs above 12 vertices walk. For every
    admissible (n <= n_max, k <= k_max) the two verdicts must agree on
    ``holds`` and on the failure, witness included. With ``deletions``,
    the two decisions on every G - V(e) must agree too, at every such
    (n, k) admissible on it: their masks leave vertices out, which the
    verdicts on G reach only through the S of a failing one. Returns the
    cases compared and the (graph6, n, k) of every disagreement. Fails if the
    twin oracle has levels at the end.
    """
    cases, bad = 0, []
    for g in graphs:
        bitsets, pruned = SubsetMatchingOracle(g), _twin_oracle(g)
        full = bitsets.full_mask
        for n in range(n_max + 1):
            for k in range(k_max + 1):
                if admissible(g.vertex_count, n, k):
                    every = _verdict_on_mask(bitsets, full, n, k, None)
                    twin = _verdict_on_mask(pruned, full, n, k, None)
                    if (every.holds, every.failure) != (twin.holds, twin.failure):
                        bad.append((serialize_graph6(g), n, k))
                    cases += 1
                if deletions and admissible(g.vertex_count - 2, n, k):
                    for u, v in g.edges():
                        mask = full ^ (1 << u) ^ (1 << v)
                        if _holds_on_mask(bitsets, mask, n, k) != _holds_on_mask(pruned, mask, n, k):
                            bad.append((serialize_graph6(g), n, k))
                        cases += 1
        assert not pruned.levels, "the twin oracle has levels"
    return cases, bad


def reference_table(g: Graph) -> bytearray:
    """nu(G[mask]) for every mask, one mask at a time in ascending order.

    nu(mask) is nu(rest), rest = mask minus its lowest vertex, or
    nu(rest - u) + 1 for a neighbour u of that vertex, and never more than
    nu(rest) + 1 or |mask| / 2. So the scan is skipped when nu(rest) is
    already |mask| / 2 and stops at the first u with nu(rest - u) = nu(rest).
    """
    masks = g.adjacency_masks
    table = bytearray(1 << g.vertex_count)
    for mask in range(1, 1 << g.vertex_count):
        low = mask & -mask
        rest = mask ^ low
        best = table[rest]
        if best < mask.bit_count() >> 1:
            nb = masks[low.bit_length() - 1] & rest
            while nb:
                ub = nb & -nb
                if table[rest ^ ub] == best:
                    best += 1
                    break
                nb ^= ub
        table[mask] = best
    return table


@lru_cache(maxsize=None)
def _masks_by_size(vertex_count: int) -> tuple[tuple[int, ...], ...]:
    """Every vertex mask on ``vertex_count`` vertices, per size, ascending."""
    return tuple(
        tuple(sorted(sum(1 << v for v in c) for c in combinations(range(vertex_count), size)))
        for size in range(vertex_count + 1)
    )


def reference_decide(
    oracle: SubsetMatchingOracle, mask: int, n: int, k: int, budget: Budget | None, stats: SearchStats | None
) -> bool:
    """Conditions (i) and (ii) of the set form, walked set by set.

    The n-sets S of mask, then the (n+2k)-sets T, each in ascending order;
    the walk stops at the first set that fails. Each set walked is charged
    to ``budget`` as it is reached (Budget.spend) and counted in ``stats``.
    """
    size = oracle.size
    half = (mask.bit_count() - n) // 2 - k

    def walk(count: int) -> Iterable[int]:
        sets = [m for m in _masks_by_size(oracle.n)[count] if not m & ~mask]
        return sets if budget is None else budget.spend(sets)

    for smask in walk(n):
        if stats is not None:
            stats.subsets_examined += 1
        nu = size(mask ^ smask)
        if nu < k or (k == 0 and nu != half):
            return False
    if k == 0:
        return True
    for tmask in walk(n + 2 * k):
        if stats is not None:
            stats.pairs_examined += 1
        if size(tmask) >= k and size(mask ^ tmask) != half:
            return False
    return True


def decision_mismatches(
    graphs: Iterable[Graph], n_max: int = 3, k_max: int = 2
) -> tuple[int, list[tuple[str, int, int, int]]]:
    """_decide's bitsets against reference_decide on G and on every G - V(e).

    For each mask in {full} u {full ^ V(e)} and each (n <= n_max,
    k <= k_max) admissible on it, both run under a fresh Budget and
    SearchStats and must give the same verdict, counters and pairs_charged.
    Then _decide runs under every pair_cap from 0 to that charge and must
    end as the walk does: abort below it, with pairs_charged one past the
    cap (the set at which Budget.spend stops a walk), and give the same
    verdict at it. Returns the cases compared and the (graph6, mask, n, k)
    of every disagreement.
    """

    def run(decide, oracle, mask, n, k, cap):
        budget, stats = Budget(pair_cap=cap), SearchStats()
        try:
            holds = decide(oracle, mask, n, k, budget, stats)
        except BudgetExceededError:
            holds = None
        return holds, stats, budget.pairs_charged

    cases, bad = 0, []
    for g in graphs:
        oracle = SubsetMatchingOracle(g)
        full = oracle.full_mask
        for mask in [full] + [full ^ (1 << u) ^ (1 << v) for u, v in g.edges()]:
            for n in range(n_max + 1):
                for k in range(k_max + 1):
                    if not admissible(mask.bit_count(), n, k):
                        continue
                    cases += 1
                    expected = run(reference_decide, oracle, mask, n, k, None)
                    ok = run(_decide, oracle, mask, n, k, None) == expected
                    charged = expected[2]
                    for cap in range(charged + 1) if ok else ():
                        # A walk stopped by the cap has charged the set past it.
                        want = (expected[0], charged) if cap == charged else (None, cap + 1)
                        holds, _, spent = run(_decide, oracle, mask, n, k, cap)
                        ok = ok and (holds, spent) == want
                    if not ok:
                        bad.append((serialize_graph6(g), mask, n, k))
    return cases, bad


def blossom_size_mismatches(graphs: Iterable[Graph]) -> tuple[int, list[tuple[str, int]]]:
    """_blossom_size against SubsetMatchingOracle's table on every mask.

    Returns the masks compared and the (graph6, mask) of every disagreement.
    """
    compared, bad = 0, []
    for g in graphs:
        masks = g.adjacency_masks
        table = SubsetMatchingOracle(g)._build_table()  # the bitset build
        for mask in range(1 << g.vertex_count):
            if _blossom_size(masks, mask) != table[mask]:
                bad.append((serialize_graph6(g), mask))
        compared += len(table)
    return compared, bad


def reference_one_factor_body(g: Graph, oracle: SubsetMatchingOracle, p: dict) -> tuple:
    """T4/TC report parts (status, hypothesis detail, counterexample) by
    walking every 1-factor of G in lexicographic order until one has every
    G - V(e), e in it, (n, k)-extendable.

    theorems._holds_on_mask and theorems._conclusion_payload are looked up
    at call time, so a test can patch them for this and the package's body
    alike.
    """
    n, k = p.get("n", 0), p.get("k", 0)
    detail: dict[str, object] = {"mode": p["mode"]} if "mode" in p else {}
    detail["has_one_factor"] = True
    detail["degenerate"] = n == 0 and k == 0
    if detail["degenerate"]:
        return TheoremStatus.CONFIRMED, detail, None
    full = oracle.full_mask
    holds = theorems._holds_on_mask
    conclusion = holds(oracle, full, n, k)
    for factor in _one_factors_in_mask(oracle.masks, full):
        if not all(holds(oracle, full ^ (1 << u) ^ (1 << v), n, k) for u, v in factor):
            continue
        detail["some_factor_hypothesis"] = True
        if conclusion:
            return TheoremStatus.CONFIRMED, detail, None
        payload = theorems._conclusion_payload(oracle, full, n, k)
        payload["factor"] = Matching(factor)
        return TheoremStatus.COUNTEREXAMPLE, detail, payload
    detail["some_factor_hypothesis"] = False
    return TheoremStatus.VACUOUS, detail, None


def decode_graph6_reference(text: str) -> tuple[int, set[tuple[int, int]]]:
    """Alternative graph6 decoder working over an explicit bit string."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    first = ord(s[0]) - 63
    if first < 63:
        n, data = first, s[1:]
    else:
        n = (ord(s[1]) - 63 << 12) | (ord(s[2]) - 63 << 6) | (ord(s[3]) - 63)
        data = s[4:]
    bit_string = "".join(format(ord(c) - 63, "06b") for c in data)
    edges = set()
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bit_string[pos] == "1":
                edges.add((i, j))
            pos += 1
    return n, edges


def _reference_refine(masks: tuple[int, ...], n: int, colors: list[int]) -> list[int]:
    """Stable coloring: split classes by multiset of neighbor colors."""
    while True:
        signatures = []
        for v in range(n):
            nb = sorted(colors[u] for u in _bits(masks[v]))
            signatures.append((colors[v], tuple(nb)))
        order = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new_colors = [order[signatures[v]] for v in range(n)]
        if new_colors == colors:
            return colors
        colors = new_colors


def _reference_certificate(masks: tuple[int, ...], n: int, perm: list[int]) -> int:
    bits = 1
    for i in range(n):
        mi = masks[perm[i]]
        for j in range(i + 1, n):
            bits = (bits << 1) | (mi >> perm[j] & 1)
    return bits


def reference_canonical_form(g: Graph) -> int:
    """Minimum leaf certificate over the full individualization-refinement tree."""
    n = g.vertex_count
    masks = g.adjacency_masks
    if n == 0:
        return 1
    best: int | None = None

    def search(colors: list[int]) -> None:
        nonlocal best
        colors = _reference_refine(masks, n, colors)
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
            cert = _reference_certificate(masks, n, perm)
            if best is None or cert < best:
                best = cert
            return
        for v in range(n):
            if colors[v] == target:
                child = [2 * c + 1 for c in colors]
                child[v] = 2 * target
                search(child)

    search([0] * n)
    assert best is not None
    return best
