"""Constructors for known character degree graphs.

The direct product of two groups has a degree graph that is the join of
the factors' graphs, so complete graphs and the fixed 6-vertex seed
generate an infinite family of odd-degree, non-regular degree graphs:
one for every even vertex count from 6 up.
"""

from __future__ import annotations

from .graph import Graph


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    full = (1 << n) - 1
    return Graph.from_masks(n, [full ^ (1 << v) for v in range(n)])


# Two hub vertices 0, 1 adjacent to each other and to everything else,
# plus the edges 2-3 and 4-5. Degrees: 5, 5, 3, 3, 3, 3.
_FIGURE2_EDGES = (
    (0, 1),
    (0, 2),
    (0, 3),
    (0, 4),
    (0, 5),
    (1, 2),
    (1, 3),
    (1, 4),
    (1, 5),
    (2, 3),
    (4, 5),
)


def figure2_graph() -> Graph:
    """The unique non-regular all-odd admissible graph on 6 vertices."""
    return Graph(6, _FIGURE2_EDGES)


def direct_product(a: Graph, b: Graph) -> Graph:
    """Join of two graphs: disjoint union plus every cross edge.

    Vertices of ``a`` keep labels 0..a.n-1; vertices of ``b`` are
    shifted up by a.n.
    """
    if a.n < 1 or b.n < 1:
        raise ValueError("direct product needs nonempty operands")
    a_all = (1 << a.n) - 1
    b_all = ((1 << b.n) - 1) << a.n
    masks = [m | b_all for m in a.adjacency_masks]
    masks.extend((m << a.n) | a_all for m in b.adjacency_masks)
    return Graph.from_masks(a.n + b.n, masks)


def odd_family(n: int) -> Graph:
    """Non-regular all-odd degree graph on n vertices (n even, >= 6).

    The 6-vertex seed joined with K_{n-6}, which is the seed after
    (n-6)/2 successive joins with a single edge. The result has 4
    vertices of degree n-3 and n-4 vertices of degree n-1.
    """
    if n < 6 or n % 2:
        raise ValueError("the odd-degree family is defined for even n >= 6")
    return figure2_graph() if n == 6 else direct_product(figure2_graph(), complete_graph(n - 6))
