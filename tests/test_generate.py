import hashlib
from multiprocessing import Pool

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchext import (
    Graph,
    canonical_form,
    complete_graph,
    disjoint_union,
    exhaustive_graphs,
    join,
    random_graphs,
)
from matchext import generate
from matchext.generate import KNOWN_GRAPH_COUNTS, _exhaustive_level, _extension_masks
from matchext.graph import _bits
from matchext.graph_io import serialize_graph6

from conftest import cycle_graph, graphs, path_graph, star_graph, twin_heavy_graphs
from oracles import reference_canonical_form


def complement(g: Graph) -> Graph:
    n = g.vertex_count
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)])


SYMMETRIC_8 = {
    "K8": complete_graph(8),
    "empty8": Graph(8),
    "K4,4": join(Graph(4), Graph(4)),
    "C8": cycle_graph(8),
    "4K2": disjoint_union([complete_graph(2)] * 4),
    "co-C8": complement(cycle_graph(8)),
}


def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges()])


def is_automorphism(g: Graph, perm: tuple[int, ...]) -> bool:
    n = g.vertex_count
    return sorted(perm) == list(range(n)) and all(
        g.has_edge(perm[u], perm[v]) for u, v in g.edges()
    )


def extensions_tried(t: int) -> int:
    """Neighborhoods the generator tries to build level t."""
    return sum(len(_extension_masks(g, gens)) for g, gens in _exhaustive_level(t - 1))


def unpruned_level(previous: list[Graph], t: int) -> list[Graph]:
    """One generation step that tries every neighborhood of every parent."""
    reps, seen = [], set()
    for parent in previous:
        for nbmask in range(1 << (t - 1)):
            candidate = Graph(t, parent.edges() + [(u, t - 1) for u in _bits(nbmask)])
            cert = reference_canonical_form(candidate)
            if cert not in seen:
                seen.add(cert)
                reps.append(candidate)
    return reps


class TestCanonicalForm:
    def test_distinguishes_nonisomorphic(self):
        assert canonical_form(path_graph(4)) != canonical_form(star_graph(3))

    def test_identifies_isomorphic(self):
        p4a = Graph(4, [(0, 1), (1, 2), (2, 3)])
        p4b = Graph(4, [(2, 0), (0, 3), (3, 1)])
        assert canonical_form(p4a) == canonical_form(p4b)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(graphs(max_vertices=8), twin_heavy_graphs(max_vertices=8)),
        st.randoms(use_true_random=False),
    )
    def test_invariant_under_relabeling(self, g, rng):
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(relabel(g, perm))

    def test_empty_graph(self):
        assert canonical_form(Graph(0)) == 1


class TestAgainstUnprunedSearch:
    """Twin pruning must leave every canonical integer as it was."""

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_vertices=8))
    def test_random_graphs(self, g):
        assert canonical_form(g) == reference_canonical_form(g)

    @settings(max_examples=30, deadline=None)
    @given(twin_heavy_graphs(max_vertices=8))
    def test_twin_heavy_graphs(self, g):
        if g.vertex_count == 8 and g.edge_count in (0, 28):
            return  # K8 and its complement are fixed cases below (5 s each unpruned)
        assert canonical_form(g) == reference_canonical_form(g)

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_8))
    def test_symmetric_graphs(self, name):
        g = SYMMETRIC_8[name]
        assert canonical_form(g) == reference_canonical_form(g)

    def test_levels_match_unpruned_generation(self):
        # Same representatives in the same order, level by level to 6.
        level = [Graph(1)]
        for t in range(2, 7):
            level = unpruned_level(level, t)
            assert [g.edges() for g in exhaustive_graphs(t)[-len(level):]] == [
                g.edges() for g in level
            ]


class TestOrbitPruning:
    """The stored generators are automorphisms, and they generate the whole
    group: one neighborhood per orbit of a graph on t - 1 vertices is one
    graph with loops on t - 1 vertices (OEIS A000666)."""

    def test_stored_generators_are_automorphisms(self):
        for t in range(1, 8):
            for g, gens in _exhaustive_level(t):
                assert all(is_automorphism(g, perm) for perm in gens), g

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(graphs(max_vertices=8), twin_heavy_graphs(max_vertices=8)))
    def test_found_generators_are_automorphisms(self, g):
        found: list[tuple[int, ...]] = []
        canonical_form(g, automorphisms=found)
        assert all(is_automorphism(g, perm) for perm in found)

    def test_extensions_per_level(self):
        # Level 8's count needs only the level-7 parents.
        counts = [extensions_tried(t) for t in range(2, 9)]
        assert counts == [2, 6, 20, 90, 544, 5096, 79264]


class TestAtlasCrossCheck:
    def test_classes_match_graph_atlas(self):
        nx = pytest.importorskip("networkx")
        atlas: dict[int, set[int]] = {}
        for h in nx.graph_atlas_g():
            n = h.number_of_nodes()
            if n >= 1:
                atlas.setdefault(n, set()).add(canonical_form(Graph(n, list(h.edges()))))
        ours: dict[int, set[int]] = {}
        for g in exhaustive_graphs(7):
            ours.setdefault(g.vertex_count, set()).add(canonical_form(g))
        assert sorted(atlas) == list(range(1, 8))
        for n in range(1, 8):
            assert atlas[n] == ours[n], n


class TestExhaustive:
    def test_counts_to_seven(self):
        graphs_list = exhaustive_graphs(7)
        by_n: dict[int, int] = {}
        for g in graphs_list:
            by_n[g.vertex_count] = by_n.get(g.vertex_count, 0) + 1
        assert [by_n[t] for t in range(1, 8)] == list(KNOWN_GRAPH_COUNTS[1:8])

    def test_representatives_are_pairwise_nonisomorphic(self):
        level6 = [g for g in exhaustive_graphs(6) if g.vertex_count == 6]
        certs = {canonical_form(g) for g in level6}
        assert len(certs) == len(level6) == 156

    def test_deterministic_order(self):
        a = [g.edges() for g in exhaustive_graphs(5)]
        b = [g.edges() for g in exhaustive_graphs(5)]
        assert a == b

    @pytest.mark.usefixtures("corpus_up_to_eight")
    def test_up_to_eight_vertices_pinned(self):
        # Representatives in discovery order and their canonical forms, frozen
        # from the unpruned generator; the <= 8 corpus is built once per session.
        corpus = exhaustive_graphs(8)
        assert len(corpus) == sum(KNOWN_GRAPH_COUNTS[1:9])
        graph6 = "\n".join(serialize_graph6(g) for g in corpus)
        assert hashlib.sha256(graph6.encode()).hexdigest() == (
            "3f34574152a06038e6936cdd2079ffa6b7be8e00f7f005c88c54cec4e3aa1a89"
        )
        forms = "\n".join(str(canonical_form(g)) for g in corpus)
        assert hashlib.sha256(forms.encode()).hexdigest() == (
            "ac174a8182e0693026bba6ca00a2aeeb6e46c1de070b56f826d8c82307ecb1a6"
        )

    def test_pooled_levels_match_serial_levels(self, monkeypatch):
        # Each run starts from an empty level cache, so neither reads levels
        # the other built; workers return their results in parent order, and
        # the parent deduplicates, so even the generators must agree.
        def levels(mapper):
            monkeypatch.setattr(generate, "_LEVELS", {})
            return [
                [(g.vertex_count, g.edges(), gens) for g, gens in _exhaustive_level(t, mapper)]
                for t in range(1, 8)
            ]

        serial = levels(map)
        with Pool(processes=2) as pool:
            assert levels(pool.imap) == serial

    def test_limit_enforced(self):
        with pytest.raises(ValueError):
            exhaustive_graphs(9)

    def test_zero_is_empty(self):
        assert exhaustive_graphs(0) == []


class TestRandom:
    def test_reproducible(self):
        a = random_graphs(25, 4, 9, 0.5, seed=42)
        b = random_graphs(25, 4, 9, 0.5, seed=42)
        assert a == b

    def test_seed_changes_output(self):
        a = random_graphs(25, 4, 9, 0.5, seed=1)
        b = random_graphs(25, 4, 9, 0.5, seed=2)
        assert a != b

    def test_bounds_and_count(self):
        sample = random_graphs(50, 3, 6, 0.3, seed=0)
        assert len(sample) == 50
        assert all(3 <= g.vertex_count <= 6 for g in sample)

    def test_probability_extremes(self):
        empty = random_graphs(5, 4, 4, 0.0, seed=0)
        assert all(g.edge_count == 0 for g in empty)
        full = random_graphs(5, 4, 4, 1.0, seed=0)
        assert all(g.edge_count == 6 for g in full)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_graphs(1, 5, 4, 0.5, seed=0)
        with pytest.raises(ValueError):
            random_graphs(1, 2, 4, 1.5, seed=0)
        # C(1414, 2) vertex pairs are within the edge limit, C(1415, 2) are not.
        assert random_graphs(0, 5, 1414, 0.5, seed=0) == []
        with pytest.raises(ValueError, match="1415 vertices have 1000405 vertex pairs; the limit is 1000000"):
            random_graphs(0, 5, 1415, 0.5, seed=0)
