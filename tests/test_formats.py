import io
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
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
from cdgraph.formats import _pack
from conftest import graphs, path_graph


def body_length(n: int) -> int:
    return (n * (n - 1) // 2 + 5) // 6


# A valid header and a body of exact length with every byte in 63..126:
# only the padding bits can make such a string malformed.
exact_length_graph6 = st.integers(min_value=0, max_value=62).flatmap(
    lambda n: st.lists(
        st.integers(min_value=63, max_value=126),
        min_size=body_length(n),
        max_size=body_length(n),
    ).map(lambda body: bytes([n + 63, *body]))
)


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

    @given(exact_length_graph6)
    @settings(max_examples=300, deadline=None)
    def test_matches_pair_order_oracle(self, data):
        expected = oracles.graph6_edges_by_pair_order(data)
        if expected is None:
            with pytest.raises(Graph6ParseError, match="^nonzero padding bits") as err:
                decode_graph6(data)
            assert err.value.offset == len(data) - 1
        else:
            n, edges = expected
            assert decode_graph6(data) == Graph(n, edges)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_first_out_of_range_body_byte_is_reported(self, data):
        n = data.draw(st.integers(min_value=2, max_value=62))
        length = body_length(n)
        position = data.draw(st.integers(min_value=0, max_value=length - 1))
        bad = data.draw(st.integers(min_value=0, max_value=255).filter(lambda b: not 63 <= b <= 126))
        valid = st.integers(min_value=63, max_value=126)
        before = data.draw(st.lists(valid, min_size=position, max_size=position))
        # Bytes after the first bad one may be anything, bad ones included.
        after = data.draw(st.binary(min_size=length - position - 1, max_size=length - position - 1))
        with pytest.raises(Graph6ParseError) as err:
            decode_graph6(bytes([n + 63, *before, bad]) + after)
        assert err.value.offset == 1 + position
        assert str(err.value) == f"body byte {bad} outside graph6 range (byte offset {1 + position})"


def pack_by_six_bit_groups(n: int, code: int) -> bytes:
    """graph6 bytes of an n-vertex bit string, one 6-bit group at a time:
    the bits zero padded to whole groups, each group plus 63."""
    nbits = n * (n - 1) // 2
    bits = format(code, f"0{nbits}b") if nbits else ""
    bits += "0" * (-nbits % 6)
    return bytes([n + 63, *(int(bits[i : i + 6], 2) + 63 for i in range(0, len(bits), 6))])


class TestGraph6Encode:
    def test_k2(self):
        assert encode_graph6(Graph(2, [(0, 1)])) == b"A_"

    @pytest.mark.parametrize("n", range(63))
    def test_pack_matches_six_bit_groups(self, n):
        nbits = n * (n - 1) // 2
        rng = random.Random(n)
        codes = [0, (1 << nbits) - 1, *(rng.getrandbits(nbits) for _ in range(50))]
        for code in codes:
            assert _pack(n, code) == pack_by_six_bit_groups(n, code)

    def test_figure2_round_trip_is_byte_exact(self):
        data = encode_graph6(figure2_graph())
        assert encode_graph6(decode_graph6(data)) == data
        assert decode_graph6(data) == figure2_graph()

    def test_too_large(self):
        with pytest.raises(ValueError):
            encode_graph6(Graph(63))

    @given(graphs(max_n=62, min_n=0))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, g):
        data = encode_graph6(g)
        assert decode_graph6(data) == g
        assert encode_graph6(decode_graph6(data)) == data

    @given(exact_length_graph6)
    @settings(max_examples=300, deadline=None)
    def test_decoded_graph_encodes_to_its_input(self, data):
        # A decoded graph keeps the bytes it came from; they must be the
        # bytes a fresh encode of the same adjacency gives.
        assume(oracles.graph6_edges_by_pair_order(data) is not None)
        for g in (decode_graph6(data), decode_graph6(data.decode("ascii"))):
            fresh = Graph.from_masks(g.n, g.adjacency_masks)
            assert encode_graph6(g) == data
            assert encode_graph6(fresh) == data
            assert g == fresh and hash(g) == hash(fresh)


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
            ("0\n0 1\n", 2, "edge (0, 1) given for a graph with no vertices"),
        ],
        ids=[
            "blank-before-bad-line",
            "blank-before-header",
            "endpoint-out-of-range",
            "self-loop",
            "edge-without-vertices",
        ],
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1_0\n", "edge-list header '1_0' is not a vertex count"),
            ("+3\n", "edge-list header '+3' is not a vertex count"),
            ("\u0663\n", "edge-list header '\u0663' is not a vertex count"),
            ("-\n", "edge-list header '-' is not a vertex count"),
            ("--1\n", "edge-list header '--1' is not a vertex count"),
            ("4\n\u0663 1\n0 2\n", "line 2: non-integer endpoint in '\u0663 1'"),
            ("3\n0 +1\n", "line 2: non-integer endpoint in '0 +1'"),
            ("3\n0 1_0\n", "line 2: non-integer endpoint in '0 1_0'"),
            ("3\n0 \u00b2\n", "line 2: non-integer endpoint in '0 \u00b2'"),
        ],
        ids=[
            "underscore-header",
            "plus-header",
            "arabic-indic-header",
            "bare-minus-header",
            "double-minus-header",
            "arabic-indic-endpoint",
            "plus-endpoint",
            "underscore-endpoint",
            "superscript-endpoint",
        ],
    )
    def test_only_ascii_decimal_tokens(self, text, message):
        # ``int`` would read each of these as a number.
        with pytest.raises(ValueError) as excinfo:
            decode_edgelist(text)
        assert str(excinfo.value) == message

    def test_ascii_decimal_tokens_still_read(self):
        assert decode_edgelist("003\n00 2\n").edges() == [(0, 2)]
        with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
            decode_edgelist("-0001\n")
        with pytest.raises(ValueError, match="endpoint outside 0..2"):
            decode_edgelist("3\n-1 0\n")

    @pytest.mark.parametrize(
        "sep",
        ["\x1c", "\x85", "\u2028", "\u3000", "\v", "\f", "\r"],
        ids=["U+001C", "U+0085", "U+2028", "U+3000", "vertical-tab", "form-feed", "lone-cr"],
    )
    def test_only_newline_ends_a_line_and_only_blanks_separate(self, sep, capsys, monkeypatch, tmp_path):
        # str.splitlines and str.split would read each of these as a line
        # break or a space; here it stays in its token and is refused, on
        # stdin and in a file alike.
        texts = [f"3{sep}0 1{sep}1 2\n", f"3\n0{sep}1\n", f"3\n0 1{sep}1 2\n", f"3\n{sep}0 1\n"]
        path = tmp_path / "g.txt"
        for text in texts:
            with pytest.raises(ValueError):
                decode_edgelist(text)
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            path.write_bytes(text.encode("utf-8"))
            for source in ("-", str(path)):
                assert main(["check", source]) == 2
                captured = capsys.readouterr()
                assert captured.out == "" and captured.err.startswith("error:")

    def test_crlf_spaces_and_tabs_still_read(self, tmp_path, capsys):
        text = "3\r\n\t0 1\r\n\r\n1 \t 2 \r\n"
        assert decode_edgelist(text).edges() == [(0, 1), (1, 2)]
        path = tmp_path / "g.txt"
        path.write_bytes(text.encode("ascii"))
        assert main(["check", str(path)]) == 0
        from_file = capsys.readouterr()
        assert main(["check", "--g6", encode_graph6(path_graph(3)).decode("ascii")]) == 0
        assert capsys.readouterr() == from_file


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
