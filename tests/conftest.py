from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import strategies as st

from cdgraph import Graph


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def disjoint_union(a: Graph, b: Graph) -> Graph:
    edges = a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()]
    return Graph(a.n + b.n, edges)


def graph_from_mask(n: int, mask: int) -> Graph:
    pairs = list(combinations(range(n), 2))
    return Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


@st.composite
def graphs(draw, max_n: int = 8, min_n: int = 1):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    return graph_from_mask(n, mask)


@st.composite
def joined_cliques(draw, max_n: int = 30):
    """Cliques A = 0..a-1 and B = a..n-1 with random A-B links, shuffled.

    Vertex 0 and vertex n-1 get no link, so 0 has eccentricity 3 and
    the graph has diameter 3 unless the optional dropped clique edge
    breaks that.
    """
    a = draw(st.integers(min_value=2, max_value=max_n - 2))
    b = draw(st.integers(min_value=2, max_value=max_n - a))
    n = a + b
    rng = draw(st.randoms(use_true_random=False))
    p = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9]))
    cliques = {(u, v) for u in range(a) for v in range(u + 1, a)}
    cliques |= {(u, v) for u in range(a, n) for v in range(u + 1, n)}
    links = {(u, v) for u in range(1, a) for v in range(a, n - 1) if rng.random() < p}
    links.add((rng.randrange(1, a), rng.randrange(a, n - 1)))
    if draw(st.booleans()):
        cliques.discard(rng.choice(sorted(cliques)))
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in cliques | links])


@st.composite
def even_linked_cliques(draw, max_n: int = 30):
    """Cliques A = 0..a-1 and B = a..n-1 of even sizes, linked by the
    symmetric difference of random K2,2 pieces, shuffled.

    Every vertex keeps an even number of links, and vertex 0 and vertex
    n-1 get none, so whenever some link survives the graph has diameter
    3 and every degree odd. An optional last K1,1, K1,2 or K2,1 piece
    makes some link counts odd on one side or on both.
    """
    a = 2 * draw(st.integers(min_value=2, max_value=max_n // 2 - 2))
    b = 2 * draw(st.integers(min_value=2, max_value=(max_n - a) // 2))
    n = a + b
    rng = draw(st.randoms(use_true_random=False))
    pieces = [(2, 2)] * draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()):
        pieces.append(draw(st.sampled_from([(1, 1), (1, 2), (2, 1)])))
    links: set[tuple[int, int]] = set()
    for i, j in pieces:
        us, vs = rng.sample(range(1, a), i), rng.sample(range(a, n - 1), j)
        links ^= {(u, v) for u in us for v in vs}
    cliques = {(u, v) for u in range(a) for v in range(u + 1, a)}
    cliques |= {(u, v) for u in range(a, n) for v in range(u + 1, n)}
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in cliques | links])


@pytest.fixture(scope="session")
def small_corpus() -> list[Graph]:
    """A spread of named graphs exercising every structural case."""
    from cdgraph import complete_graph, figure2_graph, odd_family

    k2 = complete_graph(2)
    corpus = [
        Graph(1),
        Graph(3),
        k2,
        path_graph(3),
        path_graph(4),
        path_graph(5),
        cycle_graph(4),
        cycle_graph(5),
        cycle_graph(6),
        complete_graph(4),
        complete_graph(6),
        figure2_graph(),
        odd_family(8),
        disjoint_union(k2, k2),
        disjoint_union(k2, complete_graph(4)),
        disjoint_union(complete_graph(3), complete_graph(3)),
    ]
    return corpus
