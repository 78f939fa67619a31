import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchext import (
    Graph,
    Budget,
    BudgetExceededError,
    FailureKind,
    Failure,
    InvalidParametersError,
    Matching,
    SearchStats,
    TutteCertificate,
    VertexSet,
    check_parameters,
    complete_graph,
    disjoint_union,
    is_k_extendable,
    is_n_factor_critical,
    is_nk_extendable,
    verify_failure_witness,
)
from matchext import SubsetMatchingOracle, exhaustive_graphs, extendability, random_graphs
from matchext.extendability import (
    _flipped,
    _holds_on_mask,
    _prefix_sets,
    _qualifying_edges,
    _verdict_on_mask,
    admissible,
)
from matchext.families import build_h1, build_h2, resolve_family_ref
from matchext.graph import twin_classes, twin_prefix_sets

from conftest import cycle_graph, graphs, star_graph, twin_heavy_graphs
from oracles import (
    decision_mismatches,
    naive_is_nk_extendable,
    qualifying_edge_mismatches,
    reference_search_failure,
    twin_path_mismatches,
)


class TestParameterCheck:
    def test_examples(self):
        k4 = complete_graph(4)
        ok = check_parameters(k4, 2, 0)
        assert ok.size_ok and ok.parity_ok and ok.ok
        assert not check_parameters(k4, 1, 0).parity_ok
        assert not check_parameters(k4, 0, 2).size_ok

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            check_parameters(complete_graph(4), -1, 0)

    def test_invalid_parameters_error_carries_check(self):
        with pytest.raises(InvalidParametersError) as exc:
            is_nk_extendable(complete_graph(4), 1, 0)
        assert exc.value.check.parity_ok is False
        assert exc.value.check.n == 1


class TestVerdicts:
    def test_one_factor_graphs_are_0_0_extendable(self):
        for g in (complete_graph(2), complete_graph(4), cycle_graph(6)):
            assert is_nk_extendable(g, 0, 0).holds

    def test_k4_is_2_critical(self):
        # At most 12 vertices: every 2-set of K4 is looked up.
        verdict = is_nk_extendable(complete_graph(4), 2, 0)
        assert verdict.holds and verdict.failure is None
        assert verdict.stats.subsets_examined == 6

    def test_k14_is_2_critical_on_one_twin_prefix_set(self):
        # Above 12 vertices the sets are twin-prefix ones: K14 is one twin class.
        verdict = is_nk_extendable(complete_graph(14), 2, 0)
        assert verdict.holds and verdict.failure is None
        assert verdict.stats.subsets_examined == 1

    def test_c6_is_1_extendable(self):
        assert naive_is_nk_extendable(cycle_graph(6), 0, 1)
        assert is_nk_extendable(cycle_graph(6), 0, 1).holds

    def test_k4_is_1_extendable(self):
        assert is_k_extendable(complete_graph(4), 1).holds

    def test_foreign_oracle_is_refused(self):
        oracle = SubsetMatchingOracle(Graph(4, [(0, 1), (2, 3)]))
        with pytest.raises(ValueError, match="another graph"):
            is_nk_extendable(complete_graph(4), 0, 1, oracle=oracle)

    def test_star_plus_isolated_is_not_0_extendable(self):
        # K_{1,3} with two isolated vertices: even order, no 1-factor.
        g = disjoint_union([star_graph(3), complete_graph(1), complete_graph(1)])
        verdict = is_k_extendable(g, 0)
        assert not verdict.holds
        assert verdict.failure.kind is FailureKind.STUCK_MATCHING
        assert verdict.failure.m.size == 0

    def test_odd_order_graph_without_factor_is_inadmissible_at_0_0(self):
        # K_{1,3} plus one isolated vertex has odd order; (0, 0) violates
        # parity and is a hard error rather than a false verdict.
        g = disjoint_union([star_graph(3), complete_graph(1)])
        with pytest.raises(InvalidParametersError):
            is_k_extendable(g, 0)

    def test_k5_and_c5_are_1_critical(self):
        assert is_n_factor_critical(complete_graph(5), 1).holds
        assert is_n_factor_critical(cycle_graph(5), 1).holds

    def test_star_is_not_1_critical(self):
        # K_{1,4}: deleting the center leaves 4 isolated vertices. (K_{1,3}
        # would be parity-inadmissible for n=1.)
        verdict = is_n_factor_critical(star_graph(4), 1)
        assert not verdict.holds
        assert verdict.failure.s.members == (0,)

    def test_h1_2_0_exact_witness(self):
        fam = build_h1(2, 0)
        verdict = is_nk_extendable(fam.graph, 2, 2)
        assert not verdict.holds
        f = verdict.failure
        assert f.kind is FailureKind.STUCK_MATCHING
        assert f.s == fam.core
        assert f.m == fam.pendant_matching
        assert f.tutte.s_prime.members == ()
        assert f.tutte.deficiency_excess == 2
        assert {c.members for c in f.tutte.odd_components} == {
            (0, 1, 2, 3, 4),
            (5, 6, 7, 8, 9),
        }

    def test_no_k_matching_failure(self):
        # 4 isolated vertices: (0, 1) admissible but there is no 1-matching.
        verdict = is_k_extendable(disjoint_union([complete_graph(1)] * 4), 1)
        assert not verdict.holds
        assert verdict.failure.kind is FailureKind.NO_K_MATCHING
        assert verdict.failure.s.members == ()
        assert verdict.failure.m is None


class TestLargeGraphFallback:
    def test_cycle_20_uses_lazy_oracle(self):
        # Above the dense-table limit the search runs blossom per subset.
        g = cycle_graph(20)
        verdict = is_nk_extendable(g, 0, 1)
        assert verdict.holds
        assert verdict.stats.pairs_examined == 190

    def test_cycle_20_plus_isolated_vertices_fails(self):
        # 22 vertices: any 1-matching strands the two isolated vertices.
        g = disjoint_union([cycle_graph(20), Graph(1), Graph(1)])
        verdict = is_nk_extendable(g, 0, 1)
        assert not verdict.holds
        assert verdict.failure.kind is FailureKind.STUCK_MATCHING
        assert verify_failure_witness(g, 0, 1, verdict.failure)


class TestDecisionCaches:
    @pytest.mark.parametrize("g, holds", [
        (cycle_graph(6), True),
        (disjoint_union([star_graph(3), Graph(1), Graph(1)]), False),
    ])
    def test_0_0_decision_is_one_lookup(self, g, holds, monkeypatch):
        # The empty set is the only 0-set, so a bare 1-factor question needs
        # no twin classes.
        monkeypatch.setattr(extendability, "twin_classes", None)
        oracle = SubsetMatchingOracle(g)
        budget = Budget(pair_cap=1)
        stats = SearchStats()
        assert _holds_on_mask(oracle, oracle.full_mask, 0, 0, budget, stats) is holds
        assert budget.pairs_charged == 1
        assert (stats.subsets_examined, stats.pairs_examined) == (1, 0)

    def test_prefix_sets_are_all_sets_or_twin_prefix_sets(self):
        # C6 has 6 vertices, so its oracle keeps its levels and the walk
        # reads every set from the size bitset: all 15 two-sets in ascending
        # order, and those of a cut-down ``within`` alike. With its levels
        # emptied, the twin-prefix sets of G[mask]'s twin classes cut to
        # ``within`` (C4's two classes of false twins, here).
        oracle = SubsetMatchingOracle(cycle_graph(6))
        full = oracle.full_mask
        two_sets = [m for m in range(1 << 6) if m.bit_count() == 2]
        assert list(_prefix_sets(oracle, full, 2, None)) == two_sets and len(two_sets) == 15
        assert list(_prefix_sets(oracle, full, 2, None, 0b111100)) == [m for m in two_sets if not m & 0b11]
        oracle = SubsetMatchingOracle(cycle_graph(4))
        oracle.levels = []
        full, masks = oracle.full_mask, oracle.masks
        assert twin_classes(masks, full) == [[0, 2], [1, 3]]
        assert list(_prefix_sets(oracle, full, 2, None)) == list(twin_prefix_sets([[0, 2], [1, 3]], 2))
        assert list(_prefix_sets(oracle, full, 2, None, 0b1110)) == list(twin_prefix_sets([[2], [1, 3]], 2))

    def test_prefix_sets_charge_each_set_they_yield(self):
        # A cap of 3 lets three sets through and raises as the 4th is
        # charged, before it is yielded.
        oracle = SubsetMatchingOracle(cycle_graph(6))
        budget = Budget(pair_cap=3)
        walked = []
        with pytest.raises(BudgetExceededError, match="pair cap"):
            walked.extend(_prefix_sets(oracle, oracle.full_mask, 2, budget))
        assert walked == [0b11, 0b101, 0b110] and budget.pairs_charged == 4

    @pytest.mark.parametrize("within", [None, 0b11], ids=["15-sets", "empty"])
    def test_prefix_sets_read_the_clock_before_the_first_set(self, within):
        # Cut to two vertices, the walk over 4-sets has no set at all; an
        # expired deadline still stops it as it starts.
        oracle = SubsetMatchingOracle(cycle_graph(6))
        expired = Budget(deadline=time.monotonic() - 1)
        walk = iter(_prefix_sets(oracle, oracle.full_mask, 4, expired, within))
        with pytest.raises(BudgetExceededError, match="timeout"):
            next(walk)
        assert expired.pairs_charged == 0

    def test_more_than_64_vertices_with_big_twin_classes(self):
        # K_{35,35} is two classes of 35 false twins; its masks exceed a
        # 64-bit word. The two added isolated vertices are stranded by any edge.
        k35 = Graph(70, [(u, 35 + v) for u in range(35) for v in range(35)])
        assert is_nk_extendable(k35, 0, 1).holds
        g = disjoint_union([k35, Graph(1), Graph(1)])
        verdict = is_nk_extendable(g, 0, 1)
        assert not verdict.holds
        assert verdict.failure.kind is FailureKind.STUCK_MATCHING
        assert verify_failure_witness(g, 0, 1, verdict.failure)


class TestOracleEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(graphs(max_vertices=7), st.integers(0, 2), st.integers(0, 1))
    def test_matches_naive_double_loop(self, g, n, k):
        if not check_parameters(g, n, k).ok:
            return
        assert is_nk_extendable(g, n, k).holds == naive_is_nk_extendable(g, n, k)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_vertices=8), st.integers(0, 2))
    def test_specialization_coherence(self, g, p):
        if check_parameters(g, 0, p).ok:
            assert is_k_extendable(g, p).holds == is_nk_extendable(g, 0, p).holds
        if check_parameters(g, p, 0).ok:
            assert is_n_factor_critical(g, p).holds == is_nk_extendable(g, p, 0).holds


def _reported_failure(oracle, mask, n, k):
    """(kind, S, M) of the engine's verdict on G[mask], or None when it holds."""
    verdict = _verdict_on_mask(oracle, mask, n, k, None)
    if verdict.holds:
        return None
    f = verdict.failure
    return (f.kind, f.s.members, None if f.m is None else f.m.edges)


class TestReferenceSearch:
    """The set-form engine reports exactly the (S, M) walk's first failure."""

    def test_exhaustive_up_to_7_vertices(self):
        compared = 0
        for g in exhaustive_graphs(7):
            oracle = SubsetMatchingOracle(g)
            full = oracle.full_mask
            for n in range(4):
                for k in range(3):
                    if not admissible(g.vertex_count, n, k):
                        continue
                    expected = reference_search_failure(oracle, full, n, k)
                    assert _reported_failure(oracle, full, n, k) == expected
                    compared += 1
        assert compared == 6141

    @pytest.mark.parametrize(
        "ref,n,k",
        [
            ("h1:2:0", 2, 3),
            ("h1:2:0", 2, 2),
            ("h1:2:0", 2, 1),
            ("h2:2:0", 4, 0),
            ("h2:2:1", 4, 1),
            ("h2:1:0", 1, 1),
            ("h2:0:0", 0, 1),
            ("h1:1:2", 1, 3),
        ],
    )
    def test_family_edge_deletion_masks(self, ref, n, k):
        g = resolve_family_ref(ref).graph
        oracle = SubsetMatchingOracle(g)
        full = oracle.full_mask
        masks = [full] + [full ^ (1 << u) ^ (1 << v) for u, v in g.edges()]
        for mask in masks:
            if admissible(mask.bit_count(), n, k):
                expected = reference_search_failure(oracle, mask, n, k)
                assert _reported_failure(oracle, mask, n, k) == expected


    @pytest.mark.parametrize(
        "ref, n, k, pairs, misses, factor_misses",
        [
            pytest.param(*case, id="-".join(map(str, case[:5])))
            for case in [
                ("h1:2:0", 2, 2, 830, 612, 57),
                ("h1:2:0", 2, 3, 1155, 522, 269),
                ("h1:4:1", 4, 3, 20457, 10256, 952),
            ]
        ],
    )
    def test_descent_work_is_pinned(self, ref, n, k, pairs, misses, factor_misses):
        # A child's completions use only vertices above its lower endpoint.
        # Searching all of the rest instead reports the same matching (a
        # stuck one through a lower vertex would be lexicographically
        # smaller), so only the work shows it: 2695 sets at h1:2:0 (2, 3).
        # Within a verdict only the descent asks is_perfectable (whether
        # G[T] has a 1-factor), so the lazy oracle's misses split into
        # those lookups' and the rest of the search's.
        g = resolve_family_ref(ref).graph
        oracle = SubsetMatchingOracle(g)
        is_perfectable, counted = oracle.is_perfectable, [0]

        def counting(mask):
            before = oracle.misses
            answer = is_perfectable(mask)
            counted[0] += oracle.misses - before
            return answer

        oracle.is_perfectable = counting
        verdict = is_nk_extendable(g, n, k, oracle=oracle)
        assert verdict.failure.kind is FailureKind.STUCK_MATCHING
        assert verdict.stats.pairs_examined == pairs
        assert (oracle.misses - counted[0], counted[0]) == (misses, factor_misses)

    @pytest.mark.parametrize("p, compared, stuck", [(0.5, 39, 39), (0.7, 39, 38), (0.9, 39, 26)])
    def test_k3_on_random_graphs(self, p, compared, stuck):
        # k = 3 needs 8 + n vertices, so the exhaustive corpus has no such case.
        counts = [0, 0]
        for g in random_graphs(30, 8, 12, p, 0):
            oracle = SubsetMatchingOracle(g)
            for n in range(3):
                if admissible(g.vertex_count, n, 3):
                    expected = reference_search_failure(oracle, oracle.full_mask, n, 3)
                    assert _reported_failure(oracle, oracle.full_mask, n, 3) == expected
                    counts[0] += 1
                    counts[1] += expected is not None and expected[0] is FailureKind.STUCK_MATCHING
        assert counts == [compared, stuck]

    @pytest.mark.parametrize(
        "g, n, k",
        [(cycle_graph(40), 2, 2)]
        + [(random_graphs(1, 26, 26, 0.25, seed)[0], n, k) for seed in range(3) for n, k in [(0, 3), (2, 2)]],
        ids=["C40-2-2"] + [f"G26-seed{seed}-{n}-{k}" for seed in range(3) for n, k in [(0, 3), (2, 2)]],
    )
    def test_sparse_lazy_graphs(self, g, n, k):
        # Few twins and few matchings per vertex set: the descent looks up
        # many sets per child here, where the lazy oracle answers each miss.
        oracle = SubsetMatchingOracle(g)
        assert not oracle.table_built
        expected = reference_search_failure(oracle, oracle.full_mask, n, k)
        assert expected is not None and expected[0] is FailureKind.STUCK_MATCHING
        assert _reported_failure(oracle, oracle.full_mask, n, k) == expected


class TestQualifyingEdges:
    """The one scan of _qualifying_edges against a decision per G - V(e)."""

    def test_exhaustive_up_to_7_vertices(self):
        # Graphs of at most 12 vertices scan with bitsets, so an oracle with
        # its levels emptied is what runs the orbit rule of the twin-prefix
        # scan on them. Every scan's charges are swept at every cap.
        assert qualifying_edge_mismatches(exhaustive_graphs(7), twin_scan=True) == (36599, 3645, [])

    def test_family_members(self):
        # H1(n, k) and H2(n, k) at n, k <= 2: 4 to 20 vertices in twin
        # classes of two to five (H1(1, k)'s one core vertex is its own).
        graphs = [build(n, k).graph for build in (build_h1, build_h2) for n in range(3) for k in range(3)]
        assert qualifying_edge_mismatches(graphs, twin_scan=True) == (5384, 40, [])

    def test_dense_random_graphs(self):
        # Charges compared at caps 0, c / 2, c - 1 and c, c the scan's charge.
        graphs = random_graphs(200, 9, 12, 0.8, 5)
        assert qualifying_edge_mismatches(graphs, sampled_caps=True) == (48302, 1157, [])

    def test_random_10_to_12_vertices_at_every_cap(self):
        graphs = [random_graphs(1, 10, 12, 0.5 + 0.1 * (i % 5), i)[0] for i in range(20)]
        assert qualifying_edge_mismatches(graphs) == (4518, 120, [])

    def test_edgeless_and_one_edge_graphs(self):
        # With no edge the walk stops at its first failing U; with one, at
        # the first failing U that holds it. Every pair of 2 to 12 vertices
        # is the one edge once.
        graphs = [Graph(v) for v in range(2, 13)]
        graphs += [Graph(v, [(a, b)]) for v in range(2, 13) for a in range(v) for b in range(a + 1, v)]
        assert qualifying_edge_mismatches(graphs) == (1440, 1476, [])

    def test_graph_above_12_vertices(self):
        # 14 vertices and no twins: the twin-prefix scan walks every set. No
        # scan is compared with the set-by-set walk, which lists every set.
        g = random_graphs(1, 14, 14, 0.8, 0)[0]
        assert qualifying_edge_mismatches([g], 1, 1) == (2 * g.edge_count, 0, [])

    @pytest.mark.parametrize("ref, charged", [("h1:2:1", 344), ("h1:4:1", 399)])
    def test_scan_work_above_12_vertices_is_pinned(self, ref, charged):
        # One scan over twin-prefix sets at (2, 1), with no decision cached
        # per G - V(e); deciding each G - V(e) on its own charged 11 280 and
        # 31 671 sets.
        oracle = SubsetMatchingOracle(resolve_family_ref(ref).graph)
        budget = Budget()
        _qualifying_edges(oracle, 2, 1, budget)
        assert budget.pairs_charged == charged and oracle.nk_cache == {}

    def test_capped_scan_is_not_cached(self):
        g = random_graphs(1, 12, 12, 0.7, 3)[0]  # 27 of its 48 edges qualify at (2, 1)
        oracle = SubsetMatchingOracle(g)
        with pytest.raises(BudgetExceededError):
            _qualifying_edges(oracle, 2, 1, Budget(pair_cap=10))
        assert oracle.edge_cache == {}
        budget = Budget(pair_cap=10**6)
        qualifying = _qualifying_edges(oracle, 2, 1, budget)
        # One charge per set scanned: at most C(12, 4) 4-sets and C(12, 6) 6-sets.
        assert 10 < budget.pairs_charged <= 495 + 924
        assert oracle.edge_cache == {(2, 1): qualifying}
        reference = SubsetMatchingOracle(g)
        assert qualifying == [
            sum(1 << v for v in g.neighbors(u)
                if _holds_on_mask(reference, reference.full_mask ^ (1 << u) ^ (1 << v), 2, 1))
            for u in g.vertices()
        ]

    def test_inadmissible_deletion_refused(self):
        with pytest.raises(InvalidParametersError):
            _qualifying_edges(SubsetMatchingOracle(complete_graph(6)), 0, 2)


class TestTwinPrefixPath:
    """Verdicts over twin-prefix sets against verdicts over every vertex set."""

    def test_exhaustive_up_to_7_vertices(self):
        # Graphs of at most 12 vertices decide with bitsets, so an oracle
        # with its levels emptied is what runs the twin-prefix path on them:
        # 6 141 verdicts on G and 36 599 decisions on G - V(e). The CI covers
        # every graph of at most 8 vertices.
        assert twin_path_mismatches(exhaustive_graphs(7), deletions=True) == (42740, [])


class TestBitsetDecisions:
    """_decide's bitsets against the set-by-set walk, charges included."""

    def test_flipped_levels(self):
        # C6's masks with a 1-factor: the empty set, the 6 edges, the 9 sets
        # of two disjoint edges and the whole cycle; each lands on the bit of
        # its complement.
        oracle = SubsetMatchingOracle(cycle_graph(6))
        full = oracle.full_mask
        perfect = [m for m in range(64) if 2 * oracle.size(m) == m.bit_count()]
        assert _flipped(oracle, None) == sum(1 << (full ^ m) for m in perfect) and len(perfect) == 17
        assert _flipped(oracle, 3) == 1 and _flipped(oracle, 4) == 0
        assert set(oracle.flips) == {None, 3, 4}

    def test_exhaustive_up_to_7_vertices(self):
        assert decision_mismatches(exhaustive_graphs(7)) == (42740, [])

    def test_random_10_to_12_vertices(self):
        graphs = [random_graphs(1, 10, 12, 0.5 + 0.1 * (i % 5), i)[0] for i in range(20)]
        assert decision_mismatches(graphs) == (4638, [])


class TestWorkCounters:
    """Budget.pairs_charged against the sets a verdict's stats count."""

    # The (ref, n, k) that the family_check benchmark certifies.
    FAMILY_CASES = [
        ("h1:2:0", 2, 2), ("h1:2:0", 2, 1), ("h1:2:1", 2, 2), ("h2:2:0", 4, 0), ("h2:2:1", 4, 1),
        ("h2:3:0", 5, 0), ("h2:3:0", 3, 1), ("h1:3:0", 3, 1), ("h2:1:0", 1, 1), ("h2:0:0", 0, 1),
        ("h1:1:2", 1, 3),
    ]

    def test_every_set_counted_is_charged_once(self):
        # Only _prefix_sets spends a budget, and the searches count each set
        # they walk, so a verdict's charges are its two counters' sum. The
        # verdict's sorted walk to S is not charged: each S's decision
        # charges its own sets.
        cases = [(resolve_family_ref(ref).graph, n, k) for ref, n, k in self.FAMILY_CASES]
        cases += [
            (g, n, k) for g in exhaustive_graphs(7) for n in range(4) for k in range(3)
            if admissible(g.vertex_count, n, k)
        ]
        bad = []
        for g, n, k in cases:
            budget = Budget()
            stats = is_nk_extendable(g, n, k, budget=budget).stats
            if budget.pairs_charged != stats.subsets_examined + stats.pairs_examined:
                bad.append((g, n, k))
        assert (len(cases), bad) == (6152, [])


class TestRelabelling:
    @settings(max_examples=80, deadline=None)
    @given(twin_heavy_graphs(), st.integers(0, 3), st.integers(0, 2), st.data())
    def test_verdict_invariant_under_vertex_permutation(self, g, n, k, data):
        if not check_parameters(g, n, k).ok:
            return
        perm = data.draw(st.permutations(range(g.vertex_count)))
        h = Graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges()])
        holds = is_nk_extendable(g, n, k).holds
        assert is_nk_extendable(h, n, k).holds == holds
        for graph in (g, h):
            oracle = SubsetMatchingOracle(graph)
            assert _holds_on_mask(oracle, oracle.full_mask, n, k) == holds
        assert naive_is_nk_extendable(g, n, k) == holds


def _unchecked_matching(edges):
    """A Matching built without its own checks, as a hand-written witness may be."""
    matching = object.__new__(Matching)
    object.__setattr__(matching, "edges", tuple(edges))
    return matching


def _unchecked_vertex_set(members):
    """A VertexSet built without its own checks, as a hand-written witness may be."""
    vertex_set = object.__new__(VertexSet)
    object.__setattr__(vertex_set, "members", tuple(members))
    return vertex_set


class TestWitnessValidity:
    @settings(max_examples=100, deadline=None)
    @given(graphs(max_vertices=8), st.integers(0, 2), st.integers(0, 1))
    def test_failures_reverify(self, g, n, k):
        if not check_parameters(g, n, k).ok:
            return
        verdict = is_nk_extendable(g, n, k)
        if verdict.holds:
            return
        assert verify_failure_witness(g, n, k, verdict.failure)

    def test_tampered_witness_rejected(self):
        # Each mutant changes one field of a genuine witness: the h1:2:0 (2,2)
        # one (S = {10, 11}, M = {12 13, 14 15}, S' empty, the two K5s odd)
        # or the NO_K_MATCHING one of K_{1,7} at (2,1) (S = {0, 1}).
        h1 = build_h1(2, 0).graph
        stuck = is_nk_extendable(h1, 2, 2).failure
        star = Graph(8, [(0, i) for i in range(1, 8)])
        starved = is_nk_extendable(star, 2, 1).failure
        assert verify_failure_witness(h1, 2, 2, stuck)
        assert verify_failure_witness(star, 2, 1, starved)
        assert starved == Failure(kind=FailureKind.NO_K_MATCHING, s=VertexSet((0, 1)))
        k5s = stuck.tutte.odd_components
        assert [c.members for c in k5s] == [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)]
        assert h1.has_edge(10, 11) and not h1.has_edge(0, 5)

        def tutte(s_prime=(), odd=k5s, excess=2):
            return TutteCertificate(_unchecked_vertex_set(s_prime), tuple(odd), excess)

        def m(*edges):
            return replace(stuck, m=_unchecked_matching(edges))

        def t(**fields):
            return replace(stuck, tutte=tutte(**fields))

        stuck_mutants = {
            "S too small": replace(stuck, s=VertexSet((10,))),
            "S too large": replace(stuck, s=VertexSet((9, 10, 11))),
            "S out of range": replace(stuck, s=VertexSet((10, 16))),
            "S negative": replace(stuck, s=_unchecked_vertex_set((-1, 10))),
            "S repeats a vertex": replace(stuck, s=_unchecked_vertex_set((10, 10))),
            "S moved": replace(stuck, s=VertexSet((0, 1))),
            "kind swapped": replace(stuck, kind=FailureKind.NO_K_MATCHING),
            "M missing": replace(stuck, m=None),
            "|M| < k": m((12, 13)),
            "|M| > k": m((0, 1), (12, 13), (14, 15)),
            "M edge not in G": m((0, 5), (12, 13)),
            "M vertex negative": m((-1, 12), (14, 15)),
            "M vertex past |V|": m((12, 13), (14, 16)),
            "M repeats a vertex": m((12, 13), (13, 14)),
            "M meets S": m((10, 11), (14, 15)),
            "M extends": m((0, 1), (2, 3)),
            "tutte missing": replace(stuck, tutte=None),
            "S' meets S": t(s_prime=(10,)),
            "S' meets V(M)": t(s_prime=(12,)),
            "S' out of range": t(s_prime=(16,)),
            "S' negative": t(s_prime=(-1,)),
            "odd component dropped": t(odd=k5s[:1]),
            "odd component repeated": t(odd=k5s + k5s[:1]),
            "odd component altered": t(odd=(VertexSet((0, 1, 2, 3, 4, 5)), k5s[1])),
            "excess one low": t(excess=1),
            "excess one high": t(excess=3),
            # Without vertex 0, the first K5 leaves an even component.
            "excess below 2": t(s_prime=(0,), odd=k5s[1:], excess=0),
        }
        starved_mutants = {
            "S too small": replace(starved, s=VertexSet((0,))),
            "S out of range": replace(starved, s=VertexSet((0, 8))),
            "S negative": replace(starved, s=_unchecked_vertex_set((-1, 0))),
            "S repeats a vertex": replace(starved, s=_unchecked_vertex_set((0, 0))),
            "S leaves a k-matching": replace(starved, s=VertexSet((1, 2))),
            "kind swapped": replace(starved, kind=FailureKind.STUCK_MATCHING),
        }
        # On 2K5 + 3K2 the same witness shape leaves a true barrier after
        # each of these changes, so only the check the mutant breaks rejects it.
        loose = disjoint_union([complete_graph(5)] * 2 + [complete_graph(2)] * 3)
        kept = replace(stuck, m=Matching(((12, 13), (14, 15))))
        assert verify_failure_witness(loose, 2, 2, kept)
        isolated_mutants = {
            "|M| < k": replace(kept, m=Matching(((12, 13),))),
            "|M| > k": replace(
                kept,
                m=Matching(((0, 1), (12, 13), (14, 15))),
                tutte=tutte(odd=(VertexSet((2, 3, 4)), k5s[1])),
            ),
            "M edge not in G": replace(kept, m=Matching(((12, 14), (13, 15)))),
            "M meets S": replace(kept, m=Matching(((10, 11), (12, 13)))),
            "S' meets S": replace(kept, tutte=tutte(s_prime=(10,), odd=k5s + (VertexSet((10,)),))),
        }
        for name, failure in stuck_mutants.items():
            assert not verify_failure_witness(h1, 2, 2, failure), name
        for name, failure in starved_mutants.items():
            assert not verify_failure_witness(star, 2, 1, failure), name
        for name, failure in isolated_mutants.items():
            assert not verify_failure_witness(loose, 2, 2, failure), name

    def test_malformed_deletion_set_rejected(self):
        # K_{1,5} at (2, 0) with S' = {0}: a genuine S of two distinct leaves
        # passes, while a repeated or negative member must not, nor raise.
        g = Graph(6, [(0, i) for i in range(1, 6)])

        def witness(s, odd):
            tutte = TutteCertificate(
                VertexSet((0,)), tuple(VertexSet((v,)) for v in odd), len(odd) - 1
            )
            return Failure(FailureKind.STUCK_MATCHING, _unchecked_vertex_set(s), Matching(()), tutte)

        assert verify_failure_witness(g, 2, 0, witness((1, 2), (3, 4, 5)))
        assert not verify_failure_witness(g, 2, 0, witness((1, 1), (2, 3, 4, 5)))
        assert not verify_failure_witness(g, 2, 0, witness((1, -1), (2, 3, 4, 5)))


class TestBudget:
    def test_pair_cap_aborts(self):
        fam = build_h1(2, 0)
        budget = Budget(pair_cap=10)
        with pytest.raises(BudgetExceededError):
            is_nk_extendable(fam.graph, 2, 2, budget=budget)

    def test_pair_cap_stops_a_lazy_decision_within_its_sets(self, monkeypatch):
        # The complement of C30 is twin-free, so it has C(30, 8) = 5.9 M
        # twin-prefix 8-sets, and each leaves a Hamiltonian graph with a
        # 1-factor. On a lazy oracle the sets stream: the cap fires at the
        # eleventh, with no list built or cached.
        pulled = []

        def counted(classes, size):
            for smask in twin_prefix_sets(classes, size):
                pulled.append(smask)
                yield smask

        monkeypatch.setattr(extendability, "twin_prefix_sets", counted)
        g = Graph(30, [(u, v) for u in range(30) for v in range(u + 2, 30) if (u, v) != (0, 29)])
        oracle = SubsetMatchingOracle(g)
        budget = Budget(pair_cap=10)
        with pytest.raises(BudgetExceededError):
            is_nk_extendable(g, 8, 0, budget=budget, oracle=oracle)
        assert not oracle.table_built
        assert budget.pairs_charged == len(pulled) == 11

    def test_pair_cap_stops_the_witness_descent(self):
        # One set below the uncapped run's charges: the failing decision and
        # the walk to S finish, and the cap fires in the stuck-matching search.
        g = build_h1(2, 0).graph
        spent = Budget()
        is_nk_extendable(g, 2, 2, budget=spent)
        oracle = SubsetMatchingOracle(g)
        with pytest.raises(BudgetExceededError) as raised:
            is_nk_extendable(g, 2, 2, budget=Budget(pair_cap=spent.pairs_charged - 1), oracle=oracle)
        assert oracle.nk_cache[(oracle.full_mask, 2, 2)] is False
        spending = {"charge", "check_time", "spend", "_prefix_sets"}
        assert next(e.name for e in reversed(raised.traceback) if e.name not in spending) == "_has_stuck_completion"

    def test_deadline_read_every_256_charges(self):
        budget = Budget(deadline=time.monotonic() - 1)
        for _ in range(255):
            budget.charge()
        with pytest.raises(BudgetExceededError, match="timeout"):
            budget.charge()
        assert budget.pairs_charged == 256

    def test_bulk_charge_ends_as_single_charges_would(self):
        # Across a multiple of 256 the clock is read; over the cap the count
        # stops at the unit that crossed it, even after an earlier abort.
        expired = Budget(deadline=time.monotonic() - 1)
        expired.charge(255)
        with pytest.raises(BudgetExceededError, match="timeout"):
            expired.charge(300)
        capped = Budget(pair_cap=10)
        capped.charge(0)
        capped.charge(10)
        with pytest.raises(BudgetExceededError, match="pair cap"):
            capped.charge(7)
        assert capped.pairs_charged == 11
        capped.charge(0)
        with pytest.raises(BudgetExceededError, match="pair cap"):
            capped.charge(5)
        assert capped.pairs_charged == 12

    def test_zero_timeout_aborts(self):
        budget = Budget.from_limits(0.0, None)
        with pytest.raises(BudgetExceededError):
            is_nk_extendable(complete_graph(6), 2, 1, budget=budget)

    def test_zero_timeout_aborts_a_decision(self):
        # K6's decision walks 15 2-sets and 15 4-sets, far below the 256
        # charges between clock reads, so only the read as a walk starts
        # can fire.
        oracle = SubsetMatchingOracle(complete_graph(6))
        with pytest.raises(BudgetExceededError):
            _holds_on_mask(oracle, oracle.full_mask, 2, 1, Budget.from_limits(0.0, None))

    def test_no_limits_is_none(self):
        assert Budget.from_limits(None, None) is None

    @pytest.mark.parametrize("timeout, pair_cap", [(-1.0, None), (float("nan"), None), (None, -1)])
    def test_bad_limit_rejected(self, timeout, pair_cap):
        # Unchecked, a negative limit aborts every search and a NaN timeout
        # never fires, since every comparison with NaN is false.
        with pytest.raises(ValueError, match="must be non-negative"):
            Budget.from_limits(timeout, pair_cap)

    def test_zero_limits_allowed(self):
        assert Budget.from_limits(0.0, 0).pair_cap == 0

    def test_stats_are_counted(self):
        # At most 12 vertices: condition (ii) looks up all C(6, 2) 2-sets of K6.
        verdict = is_nk_extendable(complete_graph(6), 0, 1)
        assert verdict.stats.subsets_examined == 1
        assert verdict.stats.pairs_examined == 15

    def test_stats_are_counted_over_twin_prefix_sets(self):
        # K14 is one twin class, so it has one twin-prefix 2-set.
        verdict = is_nk_extendable(complete_graph(14), 0, 1)
        assert verdict.stats.subsets_examined == 1
        assert verdict.stats.pairs_examined == 1
