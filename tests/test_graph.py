import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchext import (
    Graph,
    OutOfRangeError,
    VertexSet,
    complete_graph,
    delete_vertices,
    disjoint_union,
    join,
)
from matchext.graph import components_of_mask

from conftest import graphs, path_graph


class TestConstruction:
    def test_complete_graph_degenerate(self):
        assert complete_graph(0).vertex_count == 0
        assert complete_graph(1).edge_count == 0
        assert complete_graph(4).edge_count == 6

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(OutOfRangeError):
            Graph(2, [(0, 2)])

    def test_duplicate_edges_collapse(self):
        g = Graph(2, [(0, 1), (1, 0)])
        assert g.edge_count == 1

    def test_immutable(self):
        g = complete_graph(3)
        with pytest.raises(AttributeError):
            g.vertex_count = 5

    def test_pickle_round_trip(self):
        g = Graph(5, [(0, 1), (2, 4)])
        clone = pickle.loads(pickle.dumps(g))
        assert clone == g
        assert clone.edges() == [(0, 1), (2, 4)]
        assert hash(clone) == hash(g)

    def test_value_equality(self):
        g, h = Graph(3, [(0, 1), (1, 2)]), Graph(3, [(2, 1), (1, 0)])
        assert g == h
        assert hash(g) == hash(h)
        assert Graph(2) != Graph(3)

    def test_vertexset_sorts_and_dedups(self):
        assert VertexSet.of([3, 1, 1, 2]).members == (1, 2, 3)
        with pytest.raises(OutOfRangeError):
            VertexSet.of([-1])

    def test_vertexset_direct_construction_checks_members(self):
        assert VertexSet((0, 2, 5)).members == (0, 2, 5)
        with pytest.raises(OutOfRangeError):
            VertexSet((3, 1, 1, -2))
        for members in ((3, 1), (1, 1), (0, 2, 2)):
            with pytest.raises(ValueError):
                VertexSet(members)


class TestDisjointUnionAndJoin:
    def test_union_identity(self):
        assert disjoint_union([complete_graph(1)]) == complete_graph(1)

    def test_union_k3_k2(self):
        g = disjoint_union([complete_graph(3), complete_graph(2)])
        assert (g.vertex_count, g.edge_count) == (5, 4)
        assert components_of_mask(g.adjacency_masks, 0b11111) == [0b00111, 0b11000]

    def test_union_three_k2(self):
        g = disjoint_union([complete_graph(2)] * 3)
        assert g.edges() == [(0, 1), (2, 3), (4, 5)]

    def test_join_small(self):
        assert join(complete_graph(1), complete_graph(1)) == complete_graph(2)
        assert join(complete_graph(2), complete_graph(2)) == complete_graph(4)

    def test_join_two_independent_pairs_is_c4_sized(self):
        g = join(Graph(2), Graph(2))
        assert g.edge_count == 4

    @given(graphs(max_vertices=6), graphs(max_vertices=6))
    def test_join_size_formula(self, g, h):
        j = join(g, h)
        assert j.vertex_count == g.vertex_count + h.vertex_count
        assert j.edge_count == g.edge_count + h.edge_count + g.vertex_count * h.vertex_count


class TestDeleteVertices:
    def test_delete_from_k4(self):
        sub, kept = delete_vertices(complete_graph(4), VertexSet.of([0]))
        assert sub == complete_graph(3)
        assert kept == (1, 2, 3)
        assert kept[0] == 1  # new index -> old
        assert kept.index(3) == 2  # old index -> new

    def test_delete_nothing(self):
        g = complete_graph(4)
        sub, kept = delete_vertices(g, VertexSet())
        assert sub == g
        assert kept == (0, 1, 2, 3)

    def test_delete_path_center(self):
        sub, _ = delete_vertices(path_graph(3), VertexSet.of([1]))
        assert sub.vertex_count == 2
        assert sub.edge_count == 0

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            delete_vertices(complete_graph(3), VertexSet.of([3]))

    @given(graphs(max_vertices=7), st.data())
    def test_composition(self, g, data):
        verts = list(range(g.vertex_count))
        s = data.draw(st.sets(st.sampled_from(verts)) if verts else st.just(set()))
        rest = [v for v in verts if v not in s]
        t = data.draw(st.sets(st.sampled_from(rest)) if rest else st.just(set()))
        once, kept = delete_vertices(g, VertexSet.of(s))
        twice, _ = delete_vertices(once, VertexSet.of(kept.index(v) for v in t))
        combined, _ = delete_vertices(g, VertexSet.of(s | t))
        assert twice == combined


class TestComponents:
    def test_singleton(self):
        assert components_of_mask(complete_graph(1).adjacency_masks, 1) == [1]

    def test_mixed(self):
        g = disjoint_union([complete_graph(3), complete_graph(2), complete_graph(1)])
        assert components_of_mask(g.adjacency_masks, 0b111111) == [0b000111, 0b011000, 0b100000]
        # An induced subgraph splits where its mask leaves a cut vertex out.
        assert components_of_mask(path_graph(5).adjacency_masks, 0b11011) == [0b00011, 0b11000]

    def test_empty_graph(self):
        assert components_of_mask(Graph(0).adjacency_masks, 0) == []
        assert components_of_mask(complete_graph(3).adjacency_masks, 0) == []

    @settings(max_examples=60)
    @given(graphs(), st.data())
    def test_partition_and_parity(self, g, data):
        mask = data.draw(st.integers(0, (1 << g.vertex_count) - 1))
        comps = components_of_mask(g.adjacency_masks, mask)
        assert sum(comps) == mask and sum(c.bit_count() for c in comps) == mask.bit_count()
        assert [c & -c for c in comps] == sorted(c & -c for c in comps)
        odd = sum(c.bit_count() % 2 for c in comps)
        assert odd % 2 == mask.bit_count() % 2
        for c in comps:
            # Connected: a walk from the lowest vertex inside c reaches all of c.
            seen, frontier = c & -c, c & -c
            while frontier:
                v = (frontier & -frontier).bit_length() - 1
                frontier ^= 1 << v
                grow = g.adjacency_masks[v] & c & ~seen
                seen |= grow
                frontier |= grow
            assert seen == c
            # Maximal: no edge leaves c inside the mask.
            members = [v for v in range(g.vertex_count) if c >> v & 1]
            assert not any(g.adjacency_masks[v] & mask & ~c for v in members)
