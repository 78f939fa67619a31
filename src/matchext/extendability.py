"""(n, k)-extendability decisions with re-verifiable certificates.

A graph is (n, k)-extendable when, after deleting any n vertices, the rest
still contains a k-matching and every k-matching extends to a 1-factor of
the rest. Parameters must satisfy n + 2k <= |V| - 2 with |V| - n even;
anything else is a hard error, not a false verdict.

The decision enumerates no matchings. It uses the set form of the
definition: G is (n, k)-extendable iff

  (i)  nu(G - S) >= k for every n-set S, and
  (ii) G - T has a 1-factor for every (n+2k)-set T with nu(G[T]) >= k,

since a k-matching M of G - S gives T = S u V(M), and a k-matching M of
G[T] gives S = T - V(M). When k = 0, (ii) asks for a 1-factor of G - S for
every n-set S. Every term is a fact about the subset oracle's table.

The oracle's level bitsets (bit m of levels[j] says nu(G[m]) >= j), kept on
graphs of at most 12 vertices, decide how the conditions range over vertex
sets. With them the conditions range over every vertex set: _decide
combines the levels, with a few shifts and masks, into the bitset of the
sets that fail (_decide_bitsets), and a walk reads the set bits of a size
bitset in ascending order. On a larger graph a bitset would have 2^|V|
bits, so the conditions are walked set by set, only over twin-prefix sets
(_prefix_sets). Twins are vertices with the same closed neighbourhood
(true twins) or the same open neighbourhood (false twins); swapping two
twins is an automorphism, so a set may be replaced by the one that takes,
from each twin class in ascending order, as many members as it had.
Isomorphism invariance of the definition is the only pruning argument
used, so both ways give the same verdicts.

On failure the verdict reports the lexicographically least witness of the
definition's double loop: the least failing n-set S (always in twin-prefix
form, because the map to prefix form never increases a vertex, so both
walks find it; S fails exactly when G - S is not (0, k)-extendable, which
is decided as above), and the first k-matching of G - S, in lexicographic
canonical order, that does not extend. That matching is found in set form
too, without listing the k-matchings of G - S: a descent through their
lexicographic order takes, edge by edge, the first next edge after which
some completion does not extend. Each such question asks whether some set
T of at most 2k - 2 vertices has a 1-factor while the rest minus T has
none: with the levels one bitset, as for (ii); over twin-prefix sets a
loop with one oracle lookup per T, and one more only if G[T] has a
1-factor. It asks only whether such a set exists, so both ways find the
same matching.

The theorem validators ask the same question of every edge deletion
G - V(e). _qualifying_edges answers it for all edges of G at one (n, k)
from one scan, with S u V(e) and T u V(e) as the sets: e fails (i) exactly
when it lies in an (n+2)-set U with nu(G - U) < k (at k = 0: G - U has no
1-factor), and (ii) exactly when it lies in an (n+2k+2)-set W such that
G - W has no 1-factor and nu(G[W - V(e)]) >= k. With the levels, an edge's
failing sets per condition are one bitset (_qualifying_edges_bitsets). Over
twin-prefix sets a failing set fails each edge that twin swaps map into it:
for U, each edge whose ends' classes U meets (at two members, if they share
one); for W, each edge between the classes of an edge of W that fails. The
edges left are a union of orbits, so testing only those inside W stays exact.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum

from .errors import BudgetExceededError, InvalidParametersError
from .graph import (
    Graph,
    VertexSet,
    _bits,
    components_of_mask,
    twin_classes,
    twin_prefix_sets,
)
from .matching import (
    Matching,
    SubsetMatchingOracle,
    TutteCertificate,
    _blossom_size,
    _gallai_edmonds_tutte,
    _selectors,
    _size_bitsets,
)


class FailureKind(Enum):
    NO_K_MATCHING = "NO_K_MATCHING"
    STUCK_MATCHING = "STUCK_MATCHING"


@dataclass(frozen=True)
class ParameterCheck:
    """Admissibility of (n, k) for a host graph."""

    n: int
    k: int
    size_ok: bool
    parity_ok: bool

    @property
    def ok(self) -> bool:
        return self.size_ok and self.parity_ok


@dataclass
class SearchStats:
    """Work done by one verdict.

    Both counters cover the decisions the verdict makes that the oracle's
    nk_cache does not answer: (n, k) on G and, while extracting a witness,
    (0, k) on G - S for each S walked. subsets_examined counts the n-sets
    looked up (the empty set alone, for a (0, k) decision); pairs_examined
    counts the (n+2k)-sets looked up (for k >= 1) plus the sets looked up
    while finding the stuck k-matching on the failing S. With the level
    bitsets, a decision and each question of that search count the sets
    that a walk in ascending order would have looked up.
    """

    subsets_examined: int = 0
    pairs_examined: int = 0


@dataclass(frozen=True)
class Failure:
    """Witness that the extendability definition fails.

    NO_K_MATCHING: G - s has maximum matching smaller than k (m, tutte unset).
    STUCK_MATCHING: m is a k-matching of G - s and tutte certifies that
    G - s - V(m) has no 1-factor. All indices are in the host graph's
    original numbering.
    """

    kind: FailureKind
    s: VertexSet
    m: Matching | None = None
    tutte: TutteCertificate | None = None


@dataclass(frozen=True)
class ExtendabilityVerdict:
    holds: bool
    failure: Failure | None
    stats: SearchStats


@dataclass
class Budget:
    """Work limits for one search instance.

    pair_cap bounds the work charged: one unit per vertex set a search
    looks at, as _prefix_sets walks them or as the bitsets of _decide, of
    the edge scan and of _has_stuck_completion count the sets such a walk
    would look at (_walked); a cached answer is free. deadline is an
    absolute time.monotonic() cutoff, read when a walk starts and then at
    every 256th unit.
    """

    deadline: float | None = None
    pair_cap: int | None = None
    pairs_charged: int = field(default=0)

    @staticmethod
    def from_limits(timeout_seconds: float | None, pair_cap: int | None) -> "Budget | None":
        """None when there are no limits; ValueError on a negative or NaN limit."""
        if timeout_seconds is None and pair_cap is None:
            return None
        for name, value in (("timeout", timeout_seconds), ("pair_cap", pair_cap)):
            if value is not None and not value >= 0:  # also catches a NaN timeout
                raise ValueError(f"{name} must be non-negative; got {value}")
        deadline = None if timeout_seconds is None else time.monotonic() + timeout_seconds
        return Budget(deadline=deadline, pair_cap=pair_cap)

    def charge(self, units: int = 1) -> None:
        """Charge ``units`` at once, ending as charging them one at a time would.

        Over the cap, pairs_charged stops at the unit that crossed it.
        """
        before = self.pairs_charged
        self.pairs_charged += units
        if self.pair_cap is not None and self.pairs_charged > max(before, self.pair_cap):
            self.pairs_charged = max(before, self.pair_cap) + 1
            raise BudgetExceededError(f"pair cap {self.pair_cap} exceeded")
        if self.deadline is not None and self.pairs_charged >> 8 != before >> 8:
            self.check_time()

    def check_time(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceededError("instance timeout exceeded")

    def spend(self, sets: Iterable[int]) -> Iterator[int]:
        """Yield ``sets``, charging one unit for each; the clock is read first."""
        self.check_time()
        for s in sets:
            self.charge()
            yield s


def _parameter_check(vertex_count: int, n: int, k: int) -> ParameterCheck:
    return ParameterCheck(
        n=n,
        k=k,
        size_ok=n + 2 * k <= vertex_count - 2,
        parity_ok=(vertex_count - n) % 2 == 0,
    )


def check_parameters(g: Graph, n: int, k: int) -> ParameterCheck:
    """Evaluate both admissibility conditions for (n, k) on g."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be non-negative")
    return _parameter_check(g.vertex_count, n, k)


def admissible(vertex_count: int, n: int, k: int) -> bool:
    """n, k >= 0, n + 2k <= |V| - 2 and |V| - n even."""
    return n >= 0 and k >= 0 and n + 2 * k <= vertex_count - 2 and (vertex_count - n) % 2 == 0


def _prefix_sets(
    oracle: SubsetMatchingOracle, mask: int, size: int, budget: Budget | None, within: int | None = None
) -> Iterable[int]:
    """Masks of the ``size``-sets of ``within`` (default: mask) that a search walks.

    With ``oracle.levels`` (graphs of at most 12 vertices) these are all such
    sets, in ascending order, read from a size bitset. Without them they are
    the twin-prefix sets of G[mask]'s twin classes cut to ``within``, and
    size 0 has the empty set alone, so it needs no twin classes. Either way
    the sets stream, and a ``budget`` is charged for each set as it is
    yielded (Budget.spend), so it can stop a search after any set.
    """
    within = mask if within is None else within
    if oracle.levels:
        sets = _bits(_size_bitsets(oracle.n)[size] & ~_meets(oracle.n, oracle.full_mask ^ within))
    elif size == 0:
        sets = (0,)
    else:
        cut = ([v for v in c if within >> v & 1] for c in twin_classes(oracle.masks, mask))
        sets = twin_prefix_sets([c for c in cut if c], size)
    return sets if budget is None else budget.spend(sets)


def _decide(
    oracle: SubsetMatchingOracle,
    mask: int,
    n: int,
    k: int,
    budget: Budget | None,
    stats: SearchStats | None,
) -> bool:
    """Conditions (i) and (ii); see the module docstring.

    With ``oracle.levels`` each condition is a bitset expression over every
    vertex set of mask (_decide_bitsets). Without them, a walk over the sets
    of _prefix_sets.
    """
    if oracle.levels:
        return _decide_bitsets(oracle, mask, n, k, budget, stats)
    size = oracle.size
    half = (mask.bit_count() - n) // 2 - k
    for smask in _prefix_sets(oracle, mask, n, budget):
        if stats is not None:
            stats.subsets_examined += 1
        nu = size(mask ^ smask)
        if nu < k or (k == 0 and nu != half):
            return False
    if k == 0:
        return True
    for tmask in _prefix_sets(oracle, mask, n + 2 * k, budget):
        if stats is not None:
            stats.pairs_examined += 1
        if size(tmask) >= k and size(mask ^ tmask) != half:
            return False
    return True


def _flipped(oracle: SubsetMatchingOracle, k: int | None) -> int:
    """Bitset with bit full ^ m set iff nu(G[m]) >= k (k None: G[m] has a 1-factor).

    That is levels[k], or for None the union of each levels[j] cut to the
    2j-sets, with its 2^|V| bits in reverse order; cached in ``oracle.flips``.
    """
    flipped = oracle.flips.get(k)
    if flipped is None:
        levels = oracle.levels
        if k is None:
            sizes = _size_bitsets(oracle.n)
            bitset = sum(level & sizes[2 * j] for j, level in enumerate(levels))  # disjoint sizes
        else:
            bitset = levels[k] if k < len(levels) else 0
        flipped = oracle.flips[k] = int(format(bitset, f"0{1 << oracle.n}b")[::-1], 2)
    return flipped


def _decide_bitsets(
    oracle: SubsetMatchingOracle,
    mask: int,
    n: int,
    k: int,
    budget: Budget | None,
    stats: SearchStats | None,
) -> bool:
    """Conditions (i) and (ii) over every vertex set of mask, as bitsets.

    With D = full ^ mask, a set S of mask leaves mask ^ S = full ^ (S + D),
    so bit S of _flipped(...) >> D answers for G[mask] - S. Both conditions
    charge what an ascending walk over the sets would: the sets up to the
    least failing one, or all of them.
    """
    sizes, outside = _size_bitsets(oracle.n), oracle.full_mask ^ mask
    meets_outside = _meets(oracle.n, outside)
    # (i): an n-set S fails when nu(G[mask] - S) < k (at k = 0: no 1-factor).
    candidates = sizes[n] & ~meets_outside
    fails = candidates & ~(_flipped(oracle, k or None) >> outside)
    walked = _walked(candidates, fails, budget)
    if stats is not None:
        stats.subsets_examined += walked
    if fails or k == 0:
        return not fails
    # (ii): an (n+2k)-set T fails when nu(G[T]) >= k and G[mask] - T has no 1-factor.
    # (i) has passed, so nu(G) >= k and levels[k] exists.
    candidates = sizes[n + 2 * k] & ~meets_outside
    fails = _unfactored(oracle, candidates & oracle.levels[k], outside)
    walked = _walked(candidates, fails, budget)
    if stats is not None:
        stats.pairs_examined += walked
    return not fails


def _unfactored(oracle: SubsetMatchingOracle, sets: int, outside: int) -> int:
    """The sets T of ``sets`` (none meeting ``outside``) with no 1-factor in G - outside - T."""
    return sets & ~(_flipped(oracle, None) >> outside)


def _meets(vertex_count: int, vertices: int) -> int:
    """Bitset of the masks on ``vertex_count`` <= 12 vertices that meet ``vertices``."""
    selectors = _selectors(vertex_count)
    meets = 0
    for u in _bits(vertices):
        meets |= selectors[u]
    return meets


def _walked(candidates: int, fails: int, budget: Budget | None) -> int:
    """How many sets of ``candidates`` an ascending walk looks at, charged to ``budget``.

    The walk stops at the least set in ``fails``; when that is empty,
    (fails & -fails) * 2 - 1 is -1 and every candidate counts.
    """
    walked = (candidates & ((fails & -fails) * 2 - 1)).bit_count()
    if budget is not None:
        budget.check_time()
        budget.charge(walked)
    return walked


def _holds_on_mask(
    oracle: SubsetMatchingOracle,
    mask: int,
    n: int,
    k: int,
    budget: Budget | None = None,
    stats: SearchStats | None = None,
) -> bool:
    """Decision-only (n, k)-extendability of G[mask], cached on the oracle.

    Never builds a witness.
    """
    if not admissible(mask.bit_count(), n, k):
        raise InvalidParametersError(_parameter_check(mask.bit_count(), n, k))
    key = (mask, n, k)
    cached = oracle.nk_cache.get(key)
    if cached is not None:
        return cached
    result = _decide(oracle, mask, n, k, budget, stats)
    oracle.nk_cache[key] = result
    return result


def _qualifying_edges(
    oracle: SubsetMatchingOracle, n: int, k: int, budget: Budget | None = None
) -> list[int]:
    """Adjacency masks of the edges e of G with G - V(e) (n, k)-extendable.

    The module docstring's scan; it stops once every edge has failed. Cached
    per (n, k) on the oracle; a call cut short by the budget caches nothing.
    """
    alive = oracle.edge_cache.get((n, k))
    if alive is not None:
        return alive
    count, size, full = oracle.n, oracle.size, oracle.full_mask
    if not admissible(count - 2, n, k):
        raise InvalidParametersError(_parameter_check(count - 2, n, k))
    if oracle.levels:
        alive = oracle.edge_cache[n, k] = _qualifying_edges_bitsets(oracle, n, k, budget)
        return alive
    classes = [sum(1 << v for v in c) for c in twin_classes(oracle.masks, full)]
    orbit = tuple(next(c for c in classes if c >> v & 1) for v in range(count))  # v's twin class
    alive = list(oracle.masks)
    rest = count - n - 2
    for u_set in _prefix_sets(oracle, full, n + 2, budget):
        nu = size(full ^ u_set)
        if nu < k or (k == 0 and 2 * nu != rest):
            met = sum({orbit[v] for v in _bits(u_set)})  # the classes U meets
            for a in _bits(met):
                alive[a] &= ~met | (orbit[a] if (u_set & orbit[a]).bit_count() == 1 else 0)
            if not any(alive):
                break
    if k and any(alive):
        half = rest // 2 - k
        for w_set in _prefix_sets(oracle, full, n + 2 * k + 2, budget):
            if size(full ^ w_set) == half or size(w_set) <= k:
                continue  # G - W has a 1-factor, or no edge of W leaves a k-matching
            for a in _bits(w_set):
                for b in _bits(alive[a] & w_set >> (a + 1) << (a + 1)):
                    if size(w_set ^ (1 << a) ^ (1 << b)) >= k:  # W fails the edge's orbit
                        for x in _bits(orbit[a] | orbit[b]):
                            alive[x] &= ~orbit[b] if orbit[a] >> x & 1 else ~orbit[a]
            if not any(alive):
                break
    oracle.edge_cache[n, k] = alive
    return alive


def _qualifying_edges_bitsets(
    oracle: SubsetMatchingOracle, n: int, k: int, budget: Budget | None
) -> list[int]:
    """The edge scan with the level bitsets: each edge's failing sets are one bitset.

    Each walk is charged up to the latest of the edges' first failing sets, or in full while one survives.
    """
    if oracle.pairs is None:  # per edge (a, b), a < b: the masks holding a and b, kept for every scan
        sel = _selectors(oracle.n)
        edges = [(a, b) for a, row in enumerate(oracle.masks) for b in _bits(row >> (a + 1) << (a + 1))]
        oracle.pairs = {(a, b): sel[a] & sel[b] for a, b in edges}
    sizes, pairs = _size_bitsets(oracle.n), oracle.pairs
    # (i): U fails when nu(G - U) < k (at k = 0: no 1-factor), and fails the edges it holds.
    candidates = sizes[n + 2]
    fails = candidates & ~_flipped(oracle, k or None)
    failing = [fails & pair for pair in pairs.values()]
    alive = [edge for edge, sets in zip(pairs, failing) if not sets]
    stop = max(f & -f for f in failing) if pairs else fails  # no edge: it stops at its first failing U
    _walked(candidates, 0 if alive else stop, budget)
    if k and alive:
        # (ii): G - W has no 1-factor and nu(G[W - {a, b}]) >= k; (i) left nu(G) >= k.
        candidates, level = sizes[n + 2 * k + 2], oracle.levels[k]
        fails = candidates & ~_flipped(oracle, None)
        failing = [fails & pairs[a, b] & level << ((1 << a) | (1 << b)) for a, b in alive]
        alive = [edge for edge, sets in zip(alive, failing) if not sets]
        _walked(candidates, 0 if alive else max(f & -f for f in failing), budget)
    qualifying = [0] * oracle.n
    for a, b in alive:
        qualifying[a] |= 1 << b
        qualifying[b] |= 1 << a
    return qualifying


def _stuck_matching(
    oracle: SubsetMatchingOracle,
    rem: int,
    k: int,
    budget: Budget | None,
    stats: SearchStats,
    k_left: int = 0,
) -> tuple[tuple[tuple[int, int], ...], int]:
    """First k-matching M of G[rem], in lexicographic order of canonical edge
    tuples, with G[rem] - V(M) not (0, k_left)-extendable ((0, 0): no 1-factor).

    That order extends a prefix only by edges (a, b) with a above its last
    edge's lower endpoint. The search descends through it without listing
    matchings: at each level it takes the first such edge whose completions
    include a stuck one (see _has_stuck_completion). G[rem] must have such a
    k-matching. Returns the edges and their vertex mask.
    """
    masks = oracle.masks
    chosen: tuple[tuple[int, int], ...] = ()
    used = 0
    start = 0  # children take their lower endpoint from start upwards
    for j in reversed(range(k)):
        free = rem ^ used
        a, b = next(
            (a, b)
            for a in _bits(free >> start << start)
            for b in _bits(masks[a] & (free >> (a + 1) << (a + 1)))
            if _has_stuck_completion(oracle, free ^ (1 << a) ^ (1 << b), a, j, budget, stats, k_left)
        )
        chosen += ((a, b),)
        used |= (1 << a) | (1 << b)
        start = a + 1
    return chosen, used


def _has_stuck_completion(
    oracle: SubsetMatchingOracle,
    rest: int,
    a: int,
    j: int,
    budget: Budget | None,
    stats: SearchStats,
    k_left: int = 0,
) -> bool:
    """True iff some j-matching M of G[H], H = rest minus the vertices <= a,
    leaves G[rest] - V(M) not (0, k_left)-extendable ((0, 0): no 1-factor).

    Such an M exists iff some 2j-set T of H has a 1-factor while G[rest] - T
    fails that test; a = -1 cuts nothing, and at j = 0 T is empty. The sets
    T are walked in ascending order to the first that answers, and each set
    walked is counted as one pair.

    At k_left = 0 on an oracle with ``levels`` the failing sets are one
    bitset, as in (ii) of _decide_bitsets: the 2j-sets of H that levels[j]
    holds and whose G[rest] - T has no 1-factor. Otherwise T ranges over the
    sets of _prefix_sets: every 2j-set of H, in ascending order, with the
    levels; without them the twin-prefix sets of G[rest]'s twin classes cut
    to H, since swapping two twins of G[rest] that both lie in H maps rest
    and H onto themselves. Whether G[T] has a 1-factor is one oracle lookup;
    G[rest] - T costs one more at k_left = 0 and a cached decision otherwise.

    In _stuck_matching's descent the cut to H saves work but changes no
    answer: a stuck completion of (a, b) through a free vertex below a would
    give a stuck matching with the chosen edges and an edge starting below a,
    so it would precede the least one, whose next edges start at a or above.
    """
    within = rest >> (a + 1) << (a + 1)
    if oracle.levels and not k_left:
        # levels[j] exists: G has a k-matching, k > j in the descent, and TB asks j = i <= nu(G).
        candidates = _size_bitsets(oracle.n)[2 * j] & ~_meets(oracle.n, oracle.full_mask ^ within)
        fails = _unfactored(oracle, candidates & oracle.levels[j], oracle.full_mask ^ rest)
        stats.pairs_examined += _walked(candidates, fails, budget)
        return bool(fails)
    size = oracle.size
    half = rest.bit_count() // 2 - j
    for tmask in _prefix_sets(oracle, rest, 2 * j, budget, within):
        stats.pairs_examined += 1
        if not oracle.is_perfectable(tmask):
            continue
        if not k_left and size(rest ^ tmask) != half:
            return True
        if k_left and not _holds_on_mask(oracle, rest ^ tmask, 0, k_left, budget):
            return True
    return False


def _verdict_on_mask(
    oracle: SubsetMatchingOracle,
    mask: int,
    n: int,
    k: int,
    budget: Budget | None,
) -> ExtendabilityVerdict:
    """Full verdict for G[mask], witness indices in the host graph numbering.

    Decides first. Only on failure does it walk the n-sets S of _prefix_sets
    in lex order to the first whose G[mask] - S fails (0, k), and on that S
    alone finds the first k-matching that does not extend (_stuck_matching).
    """
    stats = SearchStats()
    if _holds_on_mask(oracle, mask, n, k, budget, stats):
        return ExtendabilityVerdict(holds=True, failure=None, stats=stats)
    # S fails exactly when G[mask] - S is not (0, k)-extendable, and (0, k)
    # is admissible there because (n, k) is admissible on G[mask].
    walk = sorted(_prefix_sets(oracle, mask, n, None), key=lambda m: tuple(_bits(m)))
    s_mask = next(m for m in walk if not _holds_on_mask(oracle, mask ^ m, 0, k, budget, stats))
    rem = mask ^ s_mask
    s = VertexSet(tuple(_bits(s_mask)))
    if oracle.size(rem) < k:
        failure = Failure(kind=FailureKind.NO_K_MATCHING, s=s)
        return ExtendabilityVerdict(holds=False, failure=failure, stats=stats)
    chosen, used = _stuck_matching(oracle, rem, k, budget, stats)
    failure = Failure(
        kind=FailureKind.STUCK_MATCHING,
        s=s,
        m=Matching(chosen),
        tutte=_gallai_edmonds_tutte(oracle.size, oracle.masks, rem ^ used),
    )
    return ExtendabilityVerdict(holds=False, failure=failure, stats=stats)


def is_nk_extendable(
    g: Graph,
    n: int,
    k: int,
    *,
    budget: Budget | None = None,
    oracle: SubsetMatchingOracle | None = None,
) -> ExtendabilityVerdict:
    """Decide (n, k)-extendability of g, with a witness on failure.

    Raises InvalidParametersError (carrying the ParameterCheck) when the
    admissibility conditions fail, ValueError when ``oracle`` was built on
    another graph, and BudgetExceededError when a budget runs out mid-search.
    """
    check = check_parameters(g, n, k)
    if not check.ok:
        raise InvalidParametersError(check)
    oracle = _oracle_for(g, oracle)
    return _verdict_on_mask(oracle, oracle.full_mask, n, k, budget)


def _oracle_for(g: Graph, oracle: SubsetMatchingOracle | None) -> SubsetMatchingOracle:
    """``oracle``, or a new one on g when None; ValueError if it was built on another graph."""
    if oracle is None:
        return SubsetMatchingOracle(g)
    if oracle.masks != g.adjacency_masks:
        raise ValueError("the oracle was built on another graph")
    return oracle


def is_k_extendable(g: Graph, k: int, **kwargs) -> ExtendabilityVerdict:
    """k-extendable == (0, k)-extendable."""
    return is_nk_extendable(g, 0, k, **kwargs)


def is_n_factor_critical(g: Graph, n: int, **kwargs) -> ExtendabilityVerdict:
    """n-factor-critical == (n, 0)-extendable."""
    return is_nk_extendable(g, n, 0, **kwargs)


def _distinct_mask(vertices: Iterable[int], vertex_count: int) -> int | None:
    """Mask of ``vertices``, or None if one repeats or lies outside 0..vertex_count-1."""
    mask = 0
    for v in vertices:
        if not 0 <= v < vertex_count or mask >> v & 1:
            return None
        mask |= 1 << v
    return mask


def verify_failure_witness(g: Graph, n: int, k: int, failure: Failure) -> bool:
    """Re-check a failure witness from scratch; False, never an error, if malformed.

    Deliberately avoids the subset oracle, its table and twin classes: every
    set is a vertex mask of g, each matching size is one blossom run on g's
    own adjacency masks, and the odd components come from a component walk,
    so a verdict and its witness are established by two independent routes.
    """
    count, masks = g.vertex_count, g.adjacency_masks
    s_mask = _distinct_mask(failure.s, count)
    if s_mask is None or len(failure.s) != n:
        return False
    rest = ((1 << count) - 1) ^ s_mask
    if failure.kind is FailureKind.NO_K_MATCHING:
        return _blossom_size(masks, rest) < k
    m = failure.m
    if m is None or m.size != k:
        return False
    m_mask = _distinct_mask((v for edge in m.edges for v in edge), count)
    if m_mask is None or m_mask & s_mask or not all(masks[u] >> v & 1 for u, v in m.edges):
        return False
    rest ^= m_mask
    if rest.bit_count() % 2 == 0 and 2 * _blossom_size(masks, rest) == rest.bit_count():
        return False  # G - S - V(M) has a 1-factor, so M extends
    tutte = failure.tutte
    if tutte is None:
        return False
    s_prime = _distinct_mask(tutte.s_prime, count)
    if s_prime is None or s_prime & ~rest:
        return False
    odd = [c for c in components_of_mask(masks, rest ^ s_prime) if c.bit_count() % 2]
    if sorted(c.members for c in tutte.odd_components) != [tuple(_bits(c)) for c in odd]:
        return False
    excess = len(odd) - s_prime.bit_count()
    return excess == tutte.deficiency_excess and excess >= 2
