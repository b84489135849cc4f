import pytest
from hypothesis import given, settings

from cdgraph import (
    Graph,
    Graph6ParseError,
    decode_edgelist,
    decode_graph6,
    diameter,
    encode_edgelist,
    encode_graph6,
    figure2_graph,
    run_battery,
)
from conftest import graphs, path_graph


class TestGraph6Decode:
    def test_k2(self):
        g = decode_graph6("A_")
        assert g.n == 2 and g.edges() == [(0, 1)]

    def test_header_only_empty_graph(self):
        g = decode_graph6("?")
        assert g.n == 0
        # n >= 1 predicates reject the decoded empty graph downstream
        with pytest.raises(ValueError):
            diameter(g)
        with pytest.raises(ValueError):
            run_battery(g)

    def test_p4(self):
        g = decode_graph6("Ch")
        assert g.n == 4 and g.edges() == [(0, 1), (1, 2), (2, 3)]

    def test_bytes_input(self):
        assert decode_graph6(b"A_") == decode_graph6("A_")

    def test_bad_header(self):
        with pytest.raises(Graph6ParseError) as err:
            decode_graph6(chr(50))
        assert err.value.offset == 0

    def test_empty_input(self):
        with pytest.raises(Graph6ParseError) as err:
            decode_graph6("")
        assert err.value.offset == 0

    def test_body_too_short(self):
        with pytest.raises(Graph6ParseError):
            decode_graph6("C")

    def test_body_too_long(self):
        with pytest.raises(Graph6ParseError) as err:
            decode_graph6("A__")
        assert err.value.offset == 2

    def test_body_byte_out_of_range(self):
        with pytest.raises(Graph6ParseError) as err:
            decode_graph6("A" + chr(30))
        assert err.value.offset == 1

    def test_nonzero_padding_rejected(self):
        # K2's body byte is 95 (bits 100000); 96 sets a padding bit.
        with pytest.raises(Graph6ParseError):
            decode_graph6(bytes((65, 96)))

    def test_non_ascii(self):
        with pytest.raises(Graph6ParseError):
            decode_graph6("Aé")


class TestGraph6Encode:
    def test_k2(self):
        assert encode_graph6(Graph(2, [(0, 1)])) == b"A_"

    def test_figure2_round_trip_is_byte_exact(self):
        data = encode_graph6(figure2_graph())
        assert encode_graph6(decode_graph6(data)) == data
        assert decode_graph6(data) == figure2_graph()

    def test_too_large(self):
        with pytest.raises(ValueError):
            encode_graph6(Graph(63))

    @given(graphs(max_n=12, min_n=0))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, g):
        data = encode_graph6(g)
        assert decode_graph6(data) == g
        assert encode_graph6(decode_graph6(data)) == data


class TestEdgeList:
    def test_round_trip(self):
        g = figure2_graph()
        assert decode_edgelist(encode_edgelist(g)) == g

    def test_format_shape(self):
        assert encode_edgelist(path_graph(3)) == "3\n0 1\n1 2\n"

    def test_bad_header(self):
        with pytest.raises(ValueError):
            decode_edgelist("x\n0 1\n")

    def test_bad_line(self):
        with pytest.raises(ValueError):
            decode_edgelist("3\n0 1 2\n")
        with pytest.raises(ValueError):
            decode_edgelist("3\n0 a\n")

    def test_empty(self):
        with pytest.raises(ValueError):
            decode_edgelist("\n\n")

    def test_header_bounded_by_graph6_range(self):
        assert decode_edgelist("62\n0 61\n").n == 62
        with pytest.raises(ValueError, match="n <= 62"):
            decode_edgelist("63\n0 1\n")

    def test_out_of_range_edge_propagates(self):
        with pytest.raises(ValueError):
            decode_edgelist("2\n0 5\n")
