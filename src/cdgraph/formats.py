"""graph6 and plain edge-list codecs.

graph6 (the nauty interchange format) covers n <= 62 here: a single
header byte n+63 followed by the upper-triangle adjacency bits in
column order, packed 6 bits per byte, each byte offset by 63. Encoding
then decoding is byte-exact, and decoding rejects malformed input with
the offending byte offset.
"""

from __future__ import annotations

from .graph import Graph

GRAPH6_MAX_N = 62


class Graph6ParseError(ValueError):
    """Malformed graph6 input; ``offset`` is the first offending byte."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _pack(n: int, code: int) -> bytes:
    # ``code`` holds the n(n-1)/2 upper-triangle bits in column order,
    # first bit most significant; pad it to whole 6-bit groups.
    nbits = n * (n - 1) // 2
    pad = -nbits % 6
    code <<= pad
    top = nbits + pad - 6
    return bytes([n + 63, *[(code >> s & 63) + 63 for s in range(top, -1, -6)]])


def encode_graph6(g: Graph) -> bytes:
    if g.n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 single-byte header supports n <= {GRAPH6_MAX_N}")
    adj = g.adjacency_masks
    code = 0
    for j in range(1, g.n):
        row = 0
        for i in range(j):
            row = row << 1 | adj[i] >> j & 1
        code = code << j | row
    return _pack(g.n, code)


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
    masks = [0] * n
    bit_index = 0
    i, j = 0, 1  # bit_index is the bit for vertex pair (i, j), i < j
    for offset, byte in enumerate(body, start=1):
        value = byte - 63
        if not 0 <= value < 64:
            raise Graph6ParseError(f"body byte {byte} outside graph6 range", offset)
        for shift in range(5, -1, -1):
            bit = value >> shift & 1
            if bit_index >= nbits:
                if bit:
                    raise Graph6ParseError("nonzero padding bits", offset)
                continue
            if bit:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
            bit_index += 1
            i += 1
            if i == j:
                i, j = 0, j + 1
    return Graph.from_masks(n, masks)


def encode_edgelist(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def decode_edgelist(text: str) -> Graph:
    # Errors name physical lines, so number them before dropping blank ones.
    lines = [(lineno, line.strip()) for lineno, line in enumerate(text.splitlines(), start=1)]
    lines = [(lineno, line) for lineno, line in lines if line]
    if not lines:
        raise ValueError("edge-list input is empty")
    header = lines[0][1]
    try:
        n = int(header)
    except ValueError:
        raise ValueError(f"edge-list header {header!r} is not a vertex count") from None
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > GRAPH6_MAX_N:
        raise ValueError(f"edge-list header {n} exceeds the n <= {GRAPH6_MAX_N} vertex limit")
    masks = [0] * n
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer endpoint in {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {lineno}: edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"line {lineno}: self-loop ({u}, {v}) is not allowed")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph.from_masks(n, masks)
