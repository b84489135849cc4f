"""Canonical forms and isomorphism testing for small graphs.

The canonical form of a graph is the graph6 encoding of a canonical
relabeling, computed in two stages:

1. iterated degree refinement (1-dimensional Weisfeiler-Leman) by
   counting each vertex's neighbors in every color cell: vertices are
   partitioned into color classes whose identifiers depend only on the
   isomorphism type, never on the input labeling;
2. a tie-branching search for the lexicographically smallest
   upper-triangle bit string over all vertex orders that list the color
   classes in canonical order and permute freely inside each class.

Stage 2 branches only on candidates that tie for the minimal next code
row, and prunes tied candidates that are interchangeable by a
transposition automorphism (twins), which keeps highly symmetric inputs
such as complete graphs linear. Exactness for the package's working
range is cross-checked in the test suite against brute-force
permutation search and against known isomorphism-class counts.
"""

from __future__ import annotations

from .formats import GRAPH6_MAX_N, graph6_bytes_from_rows
from .graph import Graph, degree_multiset


def refined_colors(n: int, adj: tuple[int, ...]) -> list[int]:
    """Stable iterated-degree coloring with relabeling-invariant ids.

    Each round splits the color cells by counting, for every vertex, its
    neighbors in each cell (refinement by counting cells, McKay and
    Piperno 2014). A vertex's new id ranks ``(color, negated counts)``;
    vertices of one cell share a degree, so this is the order of their
    sorted neighbor-color tuples. Refinement stops once the coloring is
    discrete or a round splits no cell.
    """
    degrees = [m.bit_count() for m in adj]
    rank = {d: i for i, d in enumerate(sorted(set(degrees)))}
    color = [rank[d] for d in degrees]
    ncells = len(rank)
    while ncells < n:
        cells = [0] * ncells
        for v, c in enumerate(color):
            cells[c] |= 1 << v
        sigs = [
            (c, tuple([-(a & cell).bit_count() for cell in cells]))
            for c, a in zip(color, adj)
        ]
        remap = {s: i for i, s in enumerate(sorted(set(sigs)))}
        if len(remap) == ncells:
            break
        color = [remap[s] for s in sigs]
        ncells = len(remap)
    return color


def _twins(adj: tuple[int, ...], u: int, v: int) -> bool:
    # Swapping u and v is an automorphism iff their adjacencies agree
    # everywhere off {u, v}.
    mask = ~((1 << u) | (1 << v))
    return (adj[u] ^ adj[v]) & mask == 0


def _min_code_rows(n: int, adj: tuple[int, ...]) -> list[int]:
    color = refined_colors(n, adj)
    classes: list[list[int]] = [[] for _ in range(max(color) + 1)]
    for v, c in enumerate(color):
        classes[c].append(v)

    position_class: list[int] = []
    for ci, members in enumerate(classes):
        position_class.extend([ci] * len(members))

    # Frontier of partial orders, all realizing the minimal code so far.
    frontier: list[tuple[tuple[int, ...], int]] = [((), 0)]
    rows: list[int] = []
    for pos in range(n):
        members = classes[position_class[pos]]
        best = -1
        new_frontier: list[tuple[tuple[int, ...], int]] = []
        for order, used in frontier:
            accepted: list[int] = []
            for v in members:
                if used >> v & 1:
                    continue
                av = adj[v]
                row = 0
                for u in order:
                    row = row << 1 | (av >> u & 1)
                if best < 0 or row < best:
                    best = row
                    new_frontier = [(order + (v,), used | 1 << v)]
                    accepted = [v]
                elif row == best:
                    if any(_twins(adj, w, v) for w in accepted):
                        continue
                    new_frontier.append((order + (v,), used | 1 << v))
                    accepted.append(v)
        if pos > 0:
            rows.append(best)
        frontier = new_frontier
    return rows


def canonical_form(g: Graph) -> bytes:
    """Relabeling-invariant graph6 bytes; equal iff graphs are isomorphic."""
    n = g.n
    if n > GRAPH6_MAX_N:
        raise ValueError(f"canonical form supports n <= {GRAPH6_MAX_N}")
    if n == 0:
        return b"?"
    if n == 1:
        return b"@"
    return graph6_bytes_from_rows(n, _min_code_rows(n, g.adjacency_masks))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if degree_multiset(g) != degree_multiset(h):
        return False
    return canonical_form(g) == canonical_form(h)
