import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from cdgraph.cli import main
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

    @pytest.mark.parametrize(
        "text, lineno, detail",
        [
            ("3\n\n0 1\nx y\n", 4, "non-integer endpoint in 'x y'"),
            ("\n3\n0 1\n\n\nx y\n", 6, "non-integer endpoint in 'x y'"),
            ("4\n0 1\n\n1 9\n", 4, "edge (1, 9) has an endpoint outside 0..3"),
            ("4\n0 1\n\n2 2\n", 4, "self-loop (2, 2) is not allowed"),
        ],
        ids=["blank-before-bad-line", "blank-before-header", "endpoint-out-of-range", "self-loop"],
    )
    def test_error_names_the_physical_line(self, text, lineno, detail, tmp_path, capsys):
        message = f"line {lineno}: {detail}"
        with pytest.raises(ValueError) as excinfo:
            decode_edgelist(text)
        assert str(excinfo.value) == message
        path = tmp_path / "g.txt"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_header_bounded_by_graph6_range(self):
        assert decode_edgelist("62\n0 61\n").n == 62
        with pytest.raises(ValueError, match="n <= 62"):
            decode_edgelist("63\n0 1\n")

    def test_negative_header_refused_before_its_edges(self):
        with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
            decode_edgelist("-1\n0 1\n")

    def test_out_of_range_edge_propagates(self):
        with pytest.raises(ValueError):
            decode_edgelist("2\n0 5\n")


def decodes_or_refuses(decode, data) -> None:
    """A decoder either returns a graph within the graph6 range or
    raises ValueError (Graph6ParseError included); nothing else."""
    try:
        g = decode(data)
    except ValueError:
        return
    assert isinstance(g, Graph)
    assert 0 <= g.n <= 62


# Graph6 with a valid header byte, so that the body checks are reached.
headed_graph6 = st.builds(
    lambda n, body: bytes([n + 63]) + body,
    st.integers(min_value=0, max_value=62),
    st.binary(max_size=320),
)

edgelist_lines = st.one_of(
    st.builds("{} {}".format, st.integers(-3, 70), st.integers(-3, 70)),
    st.integers(-(10**12), 10**12).map(str),
    st.text(max_size=8),
)

edgelist_texts = st.builds(
    lambda header, lines, sep: sep.join([header] + lines),
    st.one_of(st.integers(-3, 70).map(str), st.text(max_size=6)),
    st.lists(edgelist_lines, max_size=12),
    st.sampled_from(["\n", "\r\n", "\n\n", " \n"]),
)


class TestDecoderFuzz:
    @given(st.binary(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_graph6_arbitrary_bytes(self, data):
        decodes_or_refuses(decode_graph6, data)

    @given(headed_graph6)
    @settings(max_examples=300, deadline=None)
    def test_graph6_bytes_with_valid_header(self, data):
        decodes_or_refuses(decode_graph6, data)

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_graph6_arbitrary_text(self, text):
        decodes_or_refuses(decode_graph6, text)

    @given(st.text())
    @settings(max_examples=200, deadline=None)
    def test_edgelist_arbitrary_text(self, text):
        decodes_or_refuses(decode_edgelist, text)

    @given(edgelist_texts)
    @settings(max_examples=300, deadline=None)
    def test_edgelist_shaped_text(self, text):
        decodes_or_refuses(decode_edgelist, text)
