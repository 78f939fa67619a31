import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchext import (
    Graph,
    Matching,
    NotAMatchingError,
    SubsetMatchingOracle,
    VertexSet,
    complete_graph,
    delete_vertices,
    disjoint_union,
    exhaustive_graphs,
    find_tutte_certificate,
    has_one_factor,
    maximum_matching,
    random_graphs,
)
from matchext import matching
from matchext.families import resolve_family_ref
from matchext.graph import components_of_mask
from matchext.matching import _blossom_size, _greedy_mates, _one_factors_in_mask

from conftest import cycle_graph, graphs, path_graph, petersen_graph, star_graph
from oracles import (
    blossom_size_mismatches,
    brute_max_deficiency,
    brute_max_matching_size,
    matchings_by_combinations,
    matchings_in_mask,
    reference_blossom_mates,
    reference_table,
)


class TestMatchingType:
    def test_of_canonicalizes(self):
        m = Matching.of([(3, 2), (0, 1)])
        assert m.edges == ((0, 1), (2, 3))
        assert m.size == 2
        assert m.vertices == {0, 1, 2, 3}

    def test_rejects_overlap(self):
        with pytest.raises(NotAMatchingError):
            Matching.of([(0, 1), (1, 2)])

    def test_rejects_unsorted_direct_construction(self):
        with pytest.raises(NotAMatchingError):
            Matching(((2, 3), (0, 1)))

    def test_rejects_negative_vertex(self):
        with pytest.raises(NotAMatchingError):
            Matching.of([(-1, 2)])


class TestMaximumMatching:
    def test_small_cases(self):
        assert maximum_matching(complete_graph(4)).size == 2
        assert maximum_matching(star_graph(3)).size == 1
        assert maximum_matching(Graph(0)).size == 0
        assert maximum_matching(Graph(5)).size == 0

    def test_petersen(self):
        g = petersen_graph()
        assert brute_max_matching_size(g) == 5
        assert maximum_matching(g).size == 5

    def test_deterministic(self):
        g = petersen_graph()
        assert maximum_matching(g) == maximum_matching(petersen_graph())

    def test_result_is_valid_matching_of_host(self):
        g = petersen_graph()
        m = maximum_matching(g)
        assert all(g.has_edge(u, v) for u, v in m.edges)

    @settings(max_examples=150)
    @given(graphs(max_vertices=9))
    def test_agrees_with_brute_force(self, g):
        assert maximum_matching(g).size == brute_max_matching_size(g)

    def test_same_size_as_reference_blossom(self):
        # The public maximum_matching comes from the mask kernel, which may
        # break a tie differently from the neighbour-list blossom: it must
        # be a matching of g of the same size, the same on every call.
        rng = random.Random(0)
        corpus = list(exhaustive_graphs(7))
        for _ in range(1000):
            n = rng.randint(1, 18)
            p = rng.random()
            corpus.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
        for g in corpus:
            mate = reference_blossom_mates(g.vertex_count, [g.neighbors(v) for v in g.vertices()])
            edges = maximum_matching(g).edges
            assert all(g.has_edge(u, v) for u, v in edges)
            assert 2 * len(edges) == g.vertex_count - mate.count(-1)
            assert maximum_matching(g).edges == edges

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_vertices=10), st.data())
    def test_blossom_size_on_masks_agrees_with_brute_force(self, g, data):
        mask = data.draw(st.integers(0, (1 << g.vertex_count) - 1))
        sub, _ = delete_vertices(g, VertexSet.of(v for v in g.vertices() if not mask >> v & 1))
        assert _blossom_size(g.adjacency_masks, mask) == brute_max_matching_size(sub)

    @settings(max_examples=80, deadline=None)
    @given(graphs(max_vertices=8))
    def test_tutte_berge_formula(self, g):
        deficiency = g.vertex_count - 2 * maximum_matching(g).size
        assert deficiency == brute_max_deficiency(g)


class TestTableBuild:
    """The oracle's bitset table build against the per-mask recurrence."""

    def test_same_bytes_up_to_7_vertices(self):
        bad = [g for g in exhaustive_graphs(7) if SubsetMatchingOracle(g)._table != reference_table(g)]
        assert bad == []

    @pytest.mark.parametrize("vertices", [13, 14, 15, 16, 19, 20])
    def test_same_bytes_at_promotion_sizes(self, vertices):
        # Above 12 vertices the table is built only on promotion; the same
        # builder runs, making each selector as it uses it. From 19 vertices
        # the spread to bytes takes more than one slice of 2^18 masks.
        for g in random_graphs(2, vertices, vertices, 0.3 + vertices / 40, vertices):
            oracle = SubsetMatchingOracle(g)
            assert not oracle.levels and not oracle.table_built
            oracle._promote()
            assert oracle._table == reference_table(g) and oracle.levels == []

    def test_empty_graph(self):
        assert SubsetMatchingOracle(Graph(0))._table == bytearray(1)



class TestBlossomSize:
    """_blossom_size against the oracle's table, and its three phases."""

    def test_agrees_with_the_table_up_to_7_vertices(self):
        assert blossom_size_mismatches(exhaustive_graphs(7)) == (144922, [])

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_agrees_with_the_table_on_random_12_vertex_graphs(self, p):
        assert blossom_size_mismatches(random_graphs(5, 12, 12, p, 0)) == (5 << 12, [])

    @pytest.mark.parametrize(
        "n, edges, greedy, size, edmonds_runs",
        [
            # P4 in path order: the greedy pass matches it perfectly.
            (4, [(0, 1), (1, 2), (2, 3)], 2, 2, 0),
            # Paths 2-0-1-3 and 6-4-5-7: greedy takes each middle edge and
            # leaves 2, 3, 6 and 7 exposed; each path is one length-3
            # augmentation, and no root is left for Edmonds.
            (8, [(0, 1), (0, 2), (1, 3), (4, 5), (4, 6), (5, 7)], 2, 4, 0),
            # Greedy matches 0-1, 2-3 and 4-5 and leaves 6 and 7 exposed. The
            # only augmenting path, 6-3-2-1-0-4-5-7, runs the long way round
            # the pentagon 6-0-1-2-3, a blossom with base 6.
            (8, [(0, 1), (0, 4), (0, 6), (1, 2), (2, 3), (3, 6), (4, 5), (5, 7)], 3, 4, 1),
        ],
    )
    def test_each_phase(self, monkeypatch, n, edges, greedy, size, edmonds_runs):
        g = Graph(n, edges)
        full = (1 << n) - 1
        mate, _ = _greedy_mates(g.adjacency_masks, full)
        assert (n - mate.count(-1)) // 2 == greedy
        runs = []
        augment = matching._edmonds_augment
        monkeypatch.setattr(matching, "_edmonds_augment", lambda *args: runs.append(1) or augment(*args))
        assert _blossom_size(g.adjacency_masks, full) == size == brute_max_matching_size(g)
        assert len(runs) == edmonds_runs


class TestFactorPredicates:
    def test_one_factor(self):
        assert has_one_factor(complete_graph(2))
        assert has_one_factor(Graph(0))
        assert not has_one_factor(star_graph(3))
        assert not has_one_factor(disjoint_union([complete_graph(5)] * 2))


def k_matchings(g, k):
    """Edge tuples of ``matchings_in_mask`` on the whole of g, checking each mask."""
    out = []
    for edges, used in matchings_in_mask(g.adjacency_masks, (1 << g.vertex_count) - 1, k):
        assert used == sum(1 << v for edge in edges for v in edge)
        out.append(edges)
    return out


def one_factors(g):
    return list(_one_factors_in_mask(g.adjacency_masks, (1 << g.vertex_count) - 1))


class TestEnumeration:
    """The reference k-matching enumerator and the package's T4/TC 1-factor generator."""

    def test_k4_single_edges(self):
        assert k_matchings(complete_graph(4), 1) == [
            ((0, 1),), ((0, 2),), ((0, 3),), ((1, 2),), ((1, 3),), ((2, 3),)
        ]

    def test_k4_perfect(self):
        assert k_matchings(complete_graph(4), 2) == [
            ((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))
        ]

    def test_c6_three_matchings(self):
        assert len(matchings_by_combinations(cycle_graph(6), 3)) == 2
        assert len(k_matchings(cycle_graph(6), 3)) == 2

    def test_zero_matching(self):
        assert k_matchings(Graph(3), 0) == [()]

    @settings(max_examples=80)
    @given(graphs(max_vertices=7), st.integers(0, 3))
    def test_counts_match_combinations(self, g, k):
        expected = matchings_by_combinations(g, k)
        got = k_matchings(g, k)
        assert got == sorted(expected)
        assert len(set(got)) == len(got)

    def test_one_factor_counts(self):
        assert len(one_factors(complete_graph(2))) == 1
        assert len(one_factors(complete_graph(4))) == 3
        assert len(one_factors(complete_graph(6))) == 15

    def test_one_factor_of_empty_graph(self):
        assert one_factors(Graph(0)) == [()]

    def test_odd_order_has_no_one_factor(self):
        assert one_factors(complete_graph(3)) == []

    @settings(max_examples=60)
    @given(graphs(max_vertices=8))
    def test_one_factors_are_perfect_and_ordered(self, g):
        if g.vertex_count % 2 == 1:
            return
        factors = [Matching(edges) for edges in one_factors(g)]
        assert [f.edges for f in factors] == sorted(
            m for m in (f.edges for f in factors)
        )
        for f in factors:
            assert f.vertices == set(range(g.vertex_count))
            assert all(g.has_edge(u, v) for u, v in f.edges)
        expected = [
            m
            for m in matchings_by_combinations(g, g.vertex_count // 2)
        ]
        assert len(factors) == len(expected)


class TestTutteCertificate:
    def test_star(self):
        cert = find_tutte_certificate(star_graph(3))
        assert cert.s_prime.members == (0,)
        assert len(cert.odd_components) == 3
        assert cert.deficiency_excess == 2

    def test_two_triangles(self):
        cert = find_tutte_certificate(disjoint_union([complete_graph(3)] * 2))
        assert cert.s_prime.members == ()
        assert len(cert.odd_components) == 2
        assert cert.deficiency_excess == 2

    def test_absent_for_k4(self):
        assert find_tutte_certificate(complete_graph(4)) is None

    def test_absent_for_odd_order(self):
        assert find_tutte_certificate(complete_graph(3)) is None

    @settings(max_examples=80, deadline=None)
    @given(graphs(max_vertices=8))
    def test_present_iff_no_one_factor(self, g):
        if g.vertex_count % 2 == 1:
            assert find_tutte_certificate(g) is None
            return
        cert = find_tutte_certificate(g)
        if has_one_factor(g):
            assert cert is None
            return
        assert cert is not None
        assert cert.deficiency_excess >= 2
        assert cert.deficiency_excess % 2 == 0
        # The excess must be the maximum deficiency and must recompute from
        # graph-core components alone.
        assert cert.deficiency_excess == brute_max_deficiency(g)
        rest = ((1 << g.vertex_count) - 1) & ~sum(1 << v for v in cert.s_prime)
        odd = [c for c in components_of_mask(g.adjacency_masks, rest) if c.bit_count() % 2]
        assert [sum(1 << v for v in c) for c in cert.odd_components] == odd
        assert len(odd) - len(cert.s_prime) == cert.deficiency_excess


class TestSubsetOracle:
    @settings(max_examples=60)
    @given(graphs(max_vertices=7), st.data())
    def test_matches_blossom_on_masks(self, g, data):
        oracle = SubsetMatchingOracle(g)
        mask = data.draw(st.integers(0, oracle.full_mask)) if oracle.full_mask else 0
        keep = [v for v in range(g.vertex_count) if mask >> v & 1]
        drop = [v for v in range(g.vertex_count) if v not in keep]
        sub, _ = delete_vertices(g, VertexSet.of(drop))
        assert oracle.size(mask) == maximum_matching(sub).size

    @settings(max_examples=8, deadline=None)
    @given(st.integers(13, 16), st.integers(0, 2**32))
    def test_lazy_then_table_matches_blossom(self, n, seed):
        # Above 12 vertices the oracle starts lazy; random masks run it past
        # its miss budget, so answers are compared before, at and after the
        # table is built, also through a ``size`` bound before the switch.
        rng = random.Random(seed)
        p = rng.random()
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        oracle = SubsetMatchingOracle(g)
        stale = oracle.size
        assert not oracle.table_built
        after = 0
        while after < 40:
            mask = rng.getrandbits(g.vertex_count)
            drop = [v for v in range(g.vertex_count) if not mask >> v & 1]
            expected = maximum_matching(delete_vertices(g, VertexSet.of(drop))[0]).size
            built = oracle.table_built
            assert oracle.size(mask) == expected
            assert stale(mask) == expected
            assert oracle.misses <= oracle.miss_budget
            assert oracle.table_built == (oracle.misses == oracle.miss_budget)
            after += built
        assert oracle.misses == oracle.miss_budget

    @settings(max_examples=40, deadline=None)
    @given(
        graphs(max_vertices=6),
        st.lists(st.sampled_from([Graph(1), complete_graph(3), path_graph(3)]), max_size=3),
        st.data(),
    )
    def test_table_matches_brute_force_on_every_mask(self, base, loose, data):
        # Isolated vertices and odd components leave vertices exposed, where
        # the table build's early stop must not fire too soon.
        g = disjoint_union(data.draw(st.permutations([base, *loose])))
        if g.vertex_count > 9:
            g, _ = delete_vertices(g, VertexSet.of(range(9, g.vertex_count)))
        oracle = SubsetMatchingOracle(g)
        assert oracle.table_built
        for mask in range(1 << g.vertex_count):
            drop = [v for v in range(g.vertex_count) if not mask >> v & 1]
            sub, _ = delete_vertices(g, VertexSet.of(drop))
            assert oracle.size(mask) == brute_max_matching_size(sub), mask

    def test_lazy_memo_bounded_by_miss_budget(self):
        g = Graph(14, [(u, v) for u in range(14) for v in range(u + 1, 14) if (u * v + u + v) % 3])
        oracle = SubsetMatchingOracle(g)
        for mask in range(1 << 14):
            oracle.size(mask)
            assert len(oracle._lazy) <= oracle.miss_budget
        assert oracle.table_built
        assert len(oracle._lazy) == oracle.miss_budget == (1 << 14) // 32

    def test_repeated_promotion_harmless(self, monkeypatch):
        builds = []
        build = SubsetMatchingOracle._build_table
        monkeypatch.setattr(SubsetMatchingOracle, "_build_table", lambda self: builds.append(1) or build(self))
        g = cycle_graph(13)
        oracle = SubsetMatchingOracle(g)
        answers = [oracle.size(mask) for mask in range(1 << 13)]
        assert oracle.table_built
        assert oracle.size.__self__ is oracle._table  # later callers index the table directly
        oracle._promote()
        oracle._promote()
        assert builds == [1]
        assert [oracle.size(mask) for mask in range(1 << 13)] == answers
        assert oracle.misses == oracle.miss_budget

    def test_small_graphs_get_the_table_at_once(self):
        oracle = SubsetMatchingOracle(complete_graph(12))
        assert oracle.table_built and oracle.misses == 0
        assert oracle.size(oracle.full_mask) == 6

    def test_only_graphs_of_at_most_12_vertices_keep_their_levels(self):
        # The searches read every vertex set from bitsets when the oracle
        # has ``levels``: levels[j] holds the masks with a j-matching, on
        # K12 those of at least 2j vertices. The empty graph and an edgeless
        # one have one level, levels[0]. Above 12 vertices a bitset would
        # have 2^n bits, and the 16-vertex h1:2:0 has 8 008 6-sets where 106
        # are twin-prefix ones, so the levels stay off also once the table
        # is built.
        levels = SubsetMatchingOracle(complete_graph(12)).levels
        assert [level.bit_count() for level in levels] == [
            sum(math.comb(12, size) for size in range(2 * j, 13)) for j in range(7)
        ]
        assert SubsetMatchingOracle(Graph(0)).levels == [1]
        assert SubsetMatchingOracle(Graph(12)).levels == [(1 << 4096) - 1]
        assert SubsetMatchingOracle(cycle_graph(13)).levels == []
        oracle = SubsetMatchingOracle(resolve_family_ref("h1:2:0").graph)
        assert oracle.levels == []
        for mask in range(oracle.miss_budget):
            oracle.size(mask)
        assert oracle.table_built and oracle.levels == []

    def test_lazy_fallback_above_dense_limit(self):
        # 20 vertices forces the per-mask blossom path.
        g = Graph(20, [(i, i + 1) for i in range(19)] + [(0, 19)])
        oracle = SubsetMatchingOracle(g)
        assert oracle._table is None
        full = oracle.full_mask
        assert oracle.size(full) == 10
        sub_mask = (1 << 7) - 1  # path on vertices 0..6
        assert oracle.size(sub_mask) == 3
        assert oracle.is_perfectable(full)
        assert not oracle.is_perfectable(sub_mask)
