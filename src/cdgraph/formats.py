"""graph6 and plain edge-list codecs.

graph6 (the nauty interchange format) covers n <= 62 here: a single
header byte n+63 followed by the upper-triangle adjacency bits in
column order, packed 6 bits per byte, each byte offset by 63. ``_pack``
packs that bit string, and decoding is its inverse: the body expands
back into the bit string, of which column j is one slice. Encoding then
decoding is byte-exact, and decoding rejects malformed input with the
offending byte offset. Decoding accepts exactly one encoding of each
labelled graph (one header byte, an exact body length, zero padding and
body bytes in 63..126), so a decoded graph keeps the bytes it came from
and encoding it returns them.
"""

from __future__ import annotations

from binascii import b2a_base64

from .graph import Graph

GRAPH6_MAX_N = 62

# Base64 digit k, as ``b2a_base64`` writes it, to the graph6 body byte 63 + k.
_BASE64_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127))
)

# The six bits of each body byte 63..126, most significant first.
_SIX_BITS = {byte: format(byte - 63, "06b") for byte in range(63, 127)}
# Column j of the bit string: pairs (0, j) .. (j-1, j).
_COLUMNS = tuple(slice(j * (j - 1) // 2, j * (j + 1) // 2) for j in range(GRAPH6_MAX_N + 1))


class Graph6ParseError(ValueError):
    """Malformed graph6 input; ``offset`` is the first offending byte."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _pack(n: int, code: int) -> bytes:
    # ``code`` holds the n(n-1)/2 upper-triangle bits in column order,
    # first bit most significant. Base64 writes 6-bit groups, most
    # significant first, as its digits, which ``_BASE64_TO_GRAPH6`` turns
    # into bytes 63..126; zero padding to whole 3-byte blocks makes
    # digits past the body, which are cut off.
    nbits = n * (n - 1) // 2
    pad = -nbits % 24
    digits = b2a_base64((code << pad).to_bytes((nbits + pad) // 8, "big"), newline=False)
    return bytes([n + 63]) + digits[: (nbits + 5) // 6].translate(_BASE64_TO_GRAPH6)


def encode_graph6(g: Graph) -> bytes:
    if g.n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 single-byte header supports n <= {GRAPH6_MAX_N}")
    if g._g6 is not None:
        return g._g6
    adj = g.adjacency_masks
    # Column j is the low j bits of adj[j], least significant first. Bit j,
    # set as a marker, fixes bin()'s form: "0b1" and then exactly those j bits.
    bits = "".join([bin(adj[j] % (1 << j) | 1 << j)[:2:-1] for j in range(1, g.n)])
    return _pack(g.n, int("0" + bits, 2))


def graph6_bytes_from_rows(n: int, rows: list[int]) -> bytes:
    """Assemble graph6 bytes from per-vertex prefix-adjacency rows.

    ``rows[j]`` holds the j+1 bits of adjacency between vertex j+1 and
    vertices 0..j, most significant bit first; this is exactly the
    graph6 column order.
    """
    code = 0
    for j, row in enumerate(rows, start=1):
        code = code << j | row
    return _pack(n, code)


def decode_graph6(data: bytes | str) -> Graph:
    if isinstance(data, str):
        try:
            raw = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6ParseError("non-ASCII character", exc.start) from None
    else:
        raw = bytes(data)
    if not raw:
        raise Graph6ParseError("empty input", 0)
    n = raw[0] - 63
    if not 0 <= n <= GRAPH6_MAX_N:
        raise Graph6ParseError(f"header byte {raw[0]} outside n=0..{GRAPH6_MAX_N} range", 0)
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    body = raw[1:]
    if len(body) < expected:
        raise Graph6ParseError(f"body too short: expected {expected} bytes", len(raw))
    if len(body) > expected:
        raise Graph6ParseError(f"body too long: expected {expected} bytes", 1 + expected)
    try:
        bits = "".join([_SIX_BITS[byte] for byte in body])
    except KeyError as exc:
        # The lookup stops at the first bad byte, so no earlier byte has its value.
        byte = exc.args[0]
        raise Graph6ParseError(f"body byte {byte} outside graph6 range", 1 + body.index(byte)) from None
    if "1" in bits[nbits:]:
        raise Graph6ParseError("nonzero padding bits", expected)
    # Row j of the n x n matrix is column j, zero filled. Reversed, it and
    # its transpose read as integers set bits j*n + i and i*n + j for each
    # edge (i, j), i < j. A leading "0" keeps int() defined at n = 0.
    matrix = "".join([bits[column].ljust(n, "0") for column in _COLUMNS[:n]])[::-1]
    transpose = "".join([matrix[k::n] for k in range(n)])
    both = int("0" + matrix, 2) | int("0" + transpose, 2)
    row = (1 << n) - 1
    g = Graph.from_masks(n, [both >> v * n & row for v in range(n)])
    g._g6 = raw
    return g


def encode_edgelist(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _decimal(token: str) -> int | None:
    # ASCII ``-?[0-9]+`` only: ``int`` also takes other scripts' digits,
    # underscores and a leading ``+``. None for anything else, and for a
    # token past ``int``'s digit limit.
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(token)
    except ValueError:
        return None


def _text_lines(text: str) -> list[str]:
    # Graph text's lines, blank ones kept: only "\n" ends a line (a "\r"
    # right before it is dropped, so "\r\n" text reads), and only spaces
    # and tabs pad a line or separate its tokens. Any other character,
    # such as U+001C, U+0085, U+2028, U+3000 or a lone "\r", stays in its
    # token for the decoder to refuse.
    return [line.removesuffix("\r").strip(" \t") for line in text.split("\n")]


def decode_graph_text(text: str, fmt: str) -> Graph:
    """The one graph in ``text``, read as ``fmt``: "edgelist", "graph6"
    (or "g6"), or "auto", which reads an edge list when the first
    non-blank line is an integer and graph6 otherwise. Graph6 text must
    hold exactly one non-blank line."""
    if fmt == "auto":
        first = next((line for line in _text_lines(text) if line), "")
        fmt = "edgelist" if first.lstrip("-").isdigit() else "graph6"
    if fmt == "edgelist":
        return decode_edgelist(text)
    lines = [line for line in _text_lines(text) if line]
    if not lines:
        raise ValueError("empty input")
    if len(lines) > 1:
        raise ValueError(f"graph6 input holds {len(lines)} graphs; give one graph per input")
    return decode_graph6(lines[0])


def decode_edgelist(text: str) -> Graph:
    # Errors name physical lines, so number them before dropping blank ones.
    lines = [(lineno, line) for lineno, line in enumerate(_text_lines(text), start=1) if line]
    if not lines:
        raise ValueError("edge-list input is empty")
    header = lines[0][1]
    n = _decimal(header)
    if n is None:
        raise ValueError(f"edge-list header {header!r} is not a vertex count")
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > GRAPH6_MAX_N:
        raise ValueError(f"edge-list header {n} exceeds the n <= {GRAPH6_MAX_N} vertex limit")
    masks = [0] * n
    for lineno, line in lines[1:]:
        parts = [part for part in line.replace("\t", " ").split(" ") if part]
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        u, v = _decimal(parts[0]), _decimal(parts[1])
        if u is None or v is None:
            raise ValueError(f"line {lineno}: non-integer endpoint in {line!r}")
        if not (0 <= u < n and 0 <= v < n):
            if n == 0:
                raise ValueError(f"line {lineno}: edge ({u}, {v}) given for a graph with no vertices")
            raise ValueError(f"line {lineno}: edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"line {lineno}: self-loop ({u}, {v}) is not allowed")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph.from_masks(n, masks)
