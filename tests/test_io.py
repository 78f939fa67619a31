import pytest
from hypothesis import given, settings

from matchext import (
    DuplicateEdgeError,
    Graph,
    GraphFormat,
    MalformedGraph6Error,
    ParseError,
    SelfLoopError,
    build_h1,
    complete_graph,
    load_graph_file,
    parse_edge_list,
    parse_graph6,
    resolve_graph_argument,
    serialize_graph6,
)

from conftest import graphs
from oracles import decode_graph6_reference


class TestGraph6Parse:
    def test_k2(self):
        g = parse_graph6("A_")
        assert (g.vertex_count, g.edges()) == (2, [(0, 1)])

    def test_k4(self):
        assert parse_graph6("C~") == complete_graph(4)

    def test_single_vertex(self):
        g = parse_graph6("@")
        assert (g.vertex_count, g.edge_count) == (1, 0)

    def test_header_tolerated(self):
        assert parse_graph6(">>graph6<<C~") == complete_graph(4)

    def test_trailing_newline_tolerated(self):
        assert parse_graph6("C~\n") == complete_graph(4)

    def test_agrees_with_reference_decoder(self):
        for text in ("A_", "C~", "@", "DQc", "E~~w", "Bw"):
            try:
                g = parse_graph6(text)
            except MalformedGraph6Error:
                n, edges = None, None
            else:
                n, edges = decode_graph6_reference(text)
                assert g.vertex_count == n
                assert set(g.edges()) == edges

    def test_malformed_character(self):
        # "(" is 40, below the graph6 range; a whitespace byte would be
        # stripped and raise the truncation error instead.
        with pytest.raises(MalformedGraph6Error, match="character 40 outside graph6 range 63..126") as exc:
            parse_graph6("C(")
        assert exc.value.offset == 1

    def test_truncated(self):
        with pytest.raises(MalformedGraph6Error):
            parse_graph6("E~")

    def test_trailing_garbage(self):
        with pytest.raises(MalformedGraph6Error):
            parse_graph6("C~~~")

    def test_empty(self):
        with pytest.raises(MalformedGraph6Error):
            parse_graph6("")


class TestGraph6RoundTrip:
    @settings(max_examples=120)
    @given(graphs(max_vertices=12))
    def test_round_trip(self, g):
        assert parse_graph6(serialize_graph6(g)) == g

    def test_known_encodings(self):
        assert serialize_graph6(complete_graph(2)) == "A_"
        assert serialize_graph6(complete_graph(4)) == "C~"
        assert serialize_graph6(Graph(1)) == "@"
        assert serialize_graph6(complete_graph(6)) == "E~~w"

    def test_extended_size_round_trip(self):
        g = Graph(70, [(0, 1), (10, 42), (68, 69)])
        text = serialize_graph6(g)
        assert text.startswith("~")
        assert parse_graph6(text) == g


class TestEdgeList:
    def test_k2(self):
        assert parse_edge_list("n 2\n0 1") == complete_graph(2)

    def test_self_loop(self):
        with pytest.raises(SelfLoopError) as exc:
            parse_edge_list("n 3\n0 0")
        assert exc.value.line == 2

    def test_duplicate(self):
        with pytest.raises(DuplicateEdgeError) as exc:
            parse_edge_list("n 2\n0 1\n1 0")
        assert exc.value.line == 3

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_edge_list("vertices 2\n0 1")

    def test_out_of_range_endpoint(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list("n 2\n0 5")
        assert exc.value.line == 2

    def test_non_integer(self):
        with pytest.raises(ParseError):
            parse_edge_list("n 2\n0 x")

    def test_blank_lines_ignored(self):
        g = parse_edge_list("\nn 3\n\n0 1\n\n1 2\n")
        assert g.edges() == [(0, 1), (1, 2)]

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_edge_list("   \n  ")

    def test_vertex_count_capped_at_the_graph6_limit(self):
        # The bound parse_graph6 enforces, so one header line cannot ask for
        # an arbitrarily large graph.
        with pytest.raises(ParseError) as exc:
            parse_edge_list("n 258048")
        assert exc.value.line == 1
        assert parse_edge_list("n 258047").vertex_count == 258047


class TestResolution:
    def test_family_ref(self):
        payload, g = resolve_graph_argument(" h1:1:0\n")
        assert payload == "h1:1:0"
        assert g == build_h1(1, 0).graph

    def test_graph6_literal(self):
        assert resolve_graph_argument("C~") == ("C~", complete_graph(4))

    def test_load_graph6_file(self, tmp_path):
        path = tmp_path / "two.g6"
        path.write_text("A_\n\nC~\n")
        loaded = load_graph_file(path, GraphFormat.GRAPH6)
        assert [g for _, g in loaded] == [complete_graph(2), complete_graph(4)]
        assert loaded[1][0] == f"{path}:3"

    def test_load_edge_list_file(self, tmp_path):
        path = tmp_path / "one.edges"
        path.write_text("n 4\n0 1\n2 3\n")
        loaded = load_graph_file(path, GraphFormat.EDGE_LIST)
        assert len(loaded) == 1
        assert loaded[0][1].edges() == [(0, 1), (2, 3)]
