from __future__ import annotations

import random
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


def twin_cells_after_search() -> dict[str, Graph]:
    """Graphs whose first cell in color order is no twin class, so the
    minimal-code search branches on it, and whose later cells hold true
    twins, false twins, or twins and non-twins mixed. Cells by color:
    C6, K4 (true twins), the 5-side and then the 4-side of K4,5 (false
    twins) in ``C6+K4+K45``; C6, K3, five false twins and K4 in
    ``C6-K4-F5-K3``, where C6 is joined to K4, K4 to the five, and the
    five to K3; the leaves, C6, and the two centers, which are not
    twins, in ``S33+C6``; C6, then one cell of two K4s in ``2K4+C6``."""
    k45 = Graph(9, [(u, v) for u in range(4) for v in range(4, 9)])
    k4 = Graph(4, list(combinations(range(4), 2)))
    c6 = cycle_graph(6)
    linked = c6.edges() + [(a, b) for a, b in combinations(range(6, 10), 2)]
    linked += [(a, c) for a in range(6, 10) for c in range(6)]
    linked += [(a, f) for a in range(6, 10) for f in range(10, 15)]
    linked += [(f, t) for f in range(10, 15) for t in range(15, 18)] + [(15, 16), (15, 17), (16, 17)]
    double_star = Graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)])
    return {
        "C6+K4+K45": disjoint_union(disjoint_union(c6, k4), k45),
        "C6-K4-F5-K3": Graph(18, linked),
        "S33+C6": disjoint_union(double_star, c6),
        "2K4+C6": disjoint_union(c6, disjoint_union(k4, k4)),
    }


def graph_from_mask(n: int, mask: int) -> Graph:
    pairs = list(combinations(range(n), 2))
    return Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


@st.composite
def graphs(draw, max_n: int = 8, min_n: int = 1):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    return graph_from_mask(n, mask)


@st.composite
def joined_cliques(draw, max_n: int = 30, drop_edge: bool = True):
    """Cliques A = 0..a-1 and B = a..n-1 with random A-B links, shuffled.

    Vertex 0 and vertex n-1 get no link, so 0 has eccentricity 3 and
    the graph has diameter 3 unless the optional dropped clique edge
    breaks that. With ``drop_edge=False`` no edge is dropped, and the
    draws are the co-bipartite graphs of diameter 3.
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
    if drop_edge and draw(st.booleans()):
        cliques.discard(rng.choice(sorted(cliques)))
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in cliques | links])


@st.composite
def cliques_at_a_cut_vertex(draw, max_n: int = 62):
    """Cliques A and B joined only through a vertex c, shuffled.

    c is linked to every vertex of one clique (or of both) and to a
    random nonempty part of the other, so the graph is connected, c is a
    cut vertex, and no three vertices are independent. Every connected
    graph with no independent triple and a cut vertex has this shape.
    """
    a = draw(st.integers(min_value=1, max_value=max_n - 2))
    b = draw(st.integers(min_value=1, max_value=max_n - 1 - a))
    n = a + b + 1
    sides = [range(1, a + 1), range(a + 1, n)]  # c is vertex 0
    rng = draw(st.randoms(use_true_random=False))
    full = draw(st.sampled_from([(True, True), (True, False), (False, True)]))
    edges = [(u, v) for side in sides for u in side for v in side if u < v]
    for side, linked_to_all in zip(sides, full):
        linked = [v for v in side if linked_to_all or rng.random() < 0.5] or [rng.choice(side)]
        edges += [(0, v) for v in linked]
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


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


def _shuffled(rng: random.Random, n: int, edges) -> Graph:
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def _co_bipartite(rng: random.Random, n: int) -> set[tuple[int, int]]:
    """Cliques 0..a-1 and a..n-1 with random links that spare vertices
    0 and n-1: a graph of diameter 3 whose partition always validates."""
    a = rng.randint(2, n - 2)
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if (u < a) == (v < a)}
    density = rng.choice((0.1, 0.3, 0.6, 0.9))
    edges |= {(u, v) for u in range(1, a) for v in range(a, n - 1) if rng.random() < density}
    edges.add((rng.randrange(1, a), rng.randrange(a, n - 1)))
    return edges


def _less_one_edge(rng: random.Random, n: int) -> set[tuple[int, int]]:
    edges = _co_bipartite(rng, n)
    edges.discard(rng.choice(sorted(edges)))
    return edges


def _dense_random(rng: random.Random, n: int) -> set[tuple[int, int]]:
    p = rng.uniform(0.55, 0.9)
    return {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}


def _cliques(rng: random.Random, n: int) -> set[tuple[int, int]]:
    """Two or three disjoint cliques; half the time the last vertex
    leaves its clique and joins all of the first and part of the rest."""
    a = rng.randint(1, n - 2)
    b = rng.randint(1, n - 1 - a)
    part = [0] * a + [1] * b + [2] * (n - a - b)
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if part[u] == part[v]}
    if rng.random() < 0.5:  # vertex n-1 becomes the cut vertex
        edges = {(u, v) for u, v in edges if v != n - 1}
        edges |= {(u, n - 1) for u in range(a)}
        edges |= {(u, n - 1) for u in range(a, n - 1) if rng.random() < 0.5} or {(a, n - 1)}
    return edges


def _even_linked(rng: random.Random, n: int) -> set[tuple[int, int]]:
    """Cliques of even sizes linked by the symmetric difference of K2,2
    pieces, so every degree is odd (as in ``even_linked_cliques``); at
    odd n the last vertex joins the first clique."""
    m = n - n % 2
    a = 2 * rng.randint(2, m // 2 - 2)
    edges = {(u, v) for u in range(m) for v in range(u + 1, m) if (u < a) == (v < a)}
    for _ in range(rng.randint(1, 4)):
        us, vs = rng.sample(range(1, a), 2), rng.sample(range(a, m - 1), 2)
        edges ^= {(u, v) for u in us for v in vs}
    return edges | {(u, m) for u in range(a) if m < n}


SEEDED_KINDS = (_co_bipartite, _less_one_edge, _dense_random, _even_linked, _cliques, _less_one_edge)


def seeded_graphs(seed: int, count: int, max_n: int = 62) -> list[Graph]:
    """``count`` graphs from a seeded ``random.Random``, n cycling through
    10..max_n: co-bipartite diameter-3 graphs (some less one edge, some
    with every degree odd), dense random graphs and clique unions, each
    shuffled."""
    rng = random.Random(f"seeded-graphs/{seed}")
    out = []
    for i in range(count):
        n = 10 + (i * 7) % (max_n - 9)
        edges = SEEDED_KINDS[i % len(SEEDED_KINDS)](rng, n)
        out.append(_shuffled(rng, n, edges))
    return out


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
