import gc
import hashlib
import random
import time
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cdgraph import (
    Graph,
    canonical,
    canonical_form,
    complete_graph,
    decode_graph6,
    direct_product,
    encode_graph6,
    enumerate_nonisomorphic,
    is_isomorphic,
    odd_family,
)
from cdgraph.canonical import _min_code_rows, refined_colors
from cdgraph.enumeration import _all_neighborhoods, _level_forms
from cdgraph.formats import graph6_bytes_from_rows
from conftest import (
    cycle_graph,
    disjoint_union,
    graph_from_mask,
    graphs,
    path_graph,
    twin_cells_after_search,
)


def permuted(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def circulant(n: int, offsets: list[int]) -> Graph:
    return Graph(n, [(v, (v + s) % n) for v in range(n) for s in offsets])


def blow_up(base: Graph, sizes: list[int], cliques: list[bool]) -> Graph:
    """Replace vertex v of ``base`` by ``sizes[v]`` twins, adjacent to
    each other when ``cliques[v]``."""
    starts = [sum(sizes[:v]) for v in range(base.n)]
    blobs = [range(starts[v], starts[v] + sizes[v]) for v in range(base.n)]
    edges = [
        pair for v in range(base.n) if cliques[v] for pair in combinations(blobs[v], 2)
    ]
    edges += [(a, b) for u, v in base.edges() for a in blobs[u] for b in blobs[v]]
    return Graph(sum(sizes), edges)


def complement(g: Graph) -> Graph:
    return Graph(g.n, [(u, v) for u, v in combinations(range(g.n), 2) if not g.has_edge(u, v)])


def complete_multipartite(parts: int, size: int) -> Graph:
    cells = combinations(range(parts * size), 2)
    return Graph(parts * size, [(a, b) for a, b in cells if a // size != b // size])


def cube(d: int) -> Graph:
    n = 1 << d
    return Graph(n, [(u, u | 1 << i) for u in range(n) for i in range(d) if not u >> i & 1])


def paley(q: int) -> Graph:
    squares = {x * x % q for x in range(1, q)}
    return Graph(q, [(i, j) for i, j in combinations(range(q), 2) if (j - i) % q in squares])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + inner + [(i, i + 5) for i in range(5)])


def rook(k: int) -> Graph:
    """K_k x K_k: cells of a k x k board, adjacent in a shared row or column."""
    cells = combinations(range(k * k), 2)
    return Graph(k * k, [(a, b) for a, b in cells if a // k == b // k or a % k == b % k])


def shrikhande() -> Graph:
    """Cayley graph of Z4 x Z4 on {±(0,1), ±(1,0), ±(1,1)}: strongly
    regular with the parameters of the 4 x 4 rook's graph."""
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    cells = list(product(range(4), repeat=2))
    return Graph(16, [
        (a, b)
        for a, b in combinations(range(16), 2)
        if ((cells[b][0] - cells[a][0]) % 4, (cells[b][1] - cells[a][1]) % 4) in steps
    ])


@st.composite
def refinement_inputs(draw) -> Graph:
    """Graphs up to n = 62 of the shapes refinement meets: random,
    regular (unions of circulants of one degree), joins, blow-ups full
    of twins, and relabeled paths, where each round splits one cell."""
    kind = draw(st.sampled_from(("random", "regular", "join", "twins", "path")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "random":
        return random_graph(rng, rng.randint(1, 62), rng.random())
    if kind == "path":
        g = path_graph(rng.randint(2, 62))
        perm = list(range(g.n))
        rng.shuffle(perm)
        return permuted(g, perm)
    if kind == "regular":
        k = rng.randint(1, 3)
        parts = [
            circulant(m, rng.sample(range(1, (m - 1) // 2 + 1), k))
            for m in (rng.randint(2 * k + 1, 31), rng.randint(2 * k + 1, 31))
        ]
        return disjoint_union(*parts)
    if kind == "join":
        a = random_graph(rng, rng.randint(1, 40), rng.random())
        b = random_graph(rng, rng.randint(1, 22), rng.random())
        return direct_product(a, b)
    base = random_graph(rng, rng.randint(1, 10), rng.random())
    sizes = [rng.randint(1, 6) for _ in range(base.n)]
    return blow_up(base, sizes, [rng.random() < 0.5 for _ in range(base.n)])


@st.composite
def search_inputs(draw) -> Graph:
    """Relabeled graphs up to n = 12 of the shapes the minimal-code
    search branches on: random, circulant, twin blow-ups and joins."""
    kind = draw(st.sampled_from(("random", "circulant", "twins", "join")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "random":
        g = random_graph(rng, rng.randint(2, 12), rng.random())
    elif kind == "circulant":
        m = rng.randint(3, 12)
        g = circulant(m, rng.sample(range(1, m // 2 + 1), rng.randint(1, max(1, m // 4))))
    elif kind == "twins":
        base = random_graph(rng, rng.randint(1, 5), rng.random())
        sizes = [rng.randint(1, 12 // base.n) for _ in range(base.n)]
        g = blow_up(base, sizes, [rng.random() < 0.5 for _ in range(base.n)])
    else:
        a = random_graph(rng, rng.randint(1, 6), rng.random())
        g = direct_product(a, random_graph(rng, rng.randint(1, 6), rng.random()))
    perm = list(range(g.n))
    rng.shuffle(perm)
    return permuted(g, perm)


def named_symmetric() -> dict[str, Graph]:
    """Vertex-transitive and twin-heavy graphs on which the search
    branches most; family16, coC16 and K4444 have cells of 12 to 16
    vertices (twins in the family member and in K4,4,4,4), so rows are
    carried over long runs of one cell and into many ties. Twins also
    fill the cells of the other family members (true twins) and of the
    complete multipartite graphs (false twins); the star and K1,2,3,4
    refine to twin classes only, so the search never branches on them,
    while in the others a cell holds more than one twin class, or twins
    and non-twins. The graphs of ``twin_cells_after_search`` put twin cells
    after a cell the search branches on."""
    named = {f"C{m}": cycle_graph(m) for m in range(10, 14)}
    named.update(
        Petersen=petersen(),
        Paley13=paley(13),
        Paley17=paley(17),
        rook3=rook(3),
        rook4=rook(4),
        Shrikhande=shrikhande(),
        Q3=cube(3),
        K44=Graph(8, [(u, v + 4) for u in range(4) for v in range(4)]),
        C5_twins=blow_up(cycle_graph(5), [2, 3, 1, 2, 2], [True, False, False, True, False]),
        family16=odd_family(16),
        coC16=complement(cycle_graph(16)),
        K4444=complete_multipartite(4, 4),
        family14=odd_family(14),
        family30=odd_family(30),
        K333=complete_multipartite(3, 3),
        K2233=blow_up(complete_graph(4), [2, 2, 3, 3], [False] * 4),
        K1234=blow_up(complete_graph(4), [1, 2, 3, 4], [False] * 4),
        star=Graph(8, [(0, v) for v in range(1, 8)]),
    )
    named.update(twin_cells_after_search())
    return named


def large_symmetric() -> list[Graph]:
    """The odd-degree family members with n = 10..62, step 4, the
    complements of C10..C37, step 3, C10..C13, Petersen, Paley13 and
    Paley17: large cells, whose rows the search carries over long runs
    of positions and into the children of ties."""
    large = [odd_family(n) for n in range(10, 63, 4)]
    large += [complement(cycle_graph(m)) for m in range(10, 38, 3)]
    large += [cycle_graph(m) for m in range(10, 14)]
    return large + [petersen(), paley(13), paley(17)]


def co_triangle_free(rng: random.Random, n: int) -> Graph:
    """Complement of a random triangle-free graph: each pair, in random
    order, is an edge of the triangle-free graph with probability 1/2
    unless it closes a triangle there."""
    adj = [0] * n
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    for u, v in pairs:
        if not adj[u] & adj[v] and rng.random() < 0.5:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(n, [(u, v) for u, v in pairs if not adj[u] >> v & 1])


def discrete_graphs() -> list[Graph]:
    """For each n = 13..62, the first ``co_triangle_free`` graph drawn
    from ``random.Random(n)`` whose stable coloring, by the reference
    refinement, puts every vertex alone in its cell."""
    found = []
    for n in range(13, 63):
        rng = random.Random(n)
        g = co_triangle_free(rng, n)
        while len(oracles.refined_cells_by_sorted_neighbors(n, g.edges())) < n:
            g = co_triangle_free(rng, n)
        found.append(g)
    return found


class TestIsomorphism:
    def test_p4_relabelings(self):
        a = path_graph(4)
        b = Graph(4, [(2, 0), (0, 3), (3, 1)])  # the path 2-0-3-1
        assert is_isomorphic(a, b)

    def test_c4_vs_p4(self):
        assert not is_isomorphic(cycle_graph(4), path_graph(4))

    def test_different_sizes(self):
        assert not is_isomorphic(complete_graph(3), complete_graph(4))

    def test_canonical_form_idempotent(self):
        for g in (path_graph(4), cycle_graph(6), complete_graph(5)):
            form = canonical_form(g)
            assert canonical_form(decode_graph6(form)) == form

    def test_small_cases(self):
        assert canonical_form(Graph(0)) == b"?"
        assert canonical_form(Graph(1)) == b"@"
        # Both colorings are discrete: no rows, and no lane to read.
        assert _min_code_rows(0, ()) == []
        assert _min_code_rows(1, (0,)) == []

    def test_too_large(self):
        with pytest.raises(ValueError):
            canonical_form(Graph(63))


class TestCanonicalExactness:
    def test_eleven_classes_on_four_vertices(self):
        # Dedup all 2^6 labeled graphs by canonical form; the class count
        # must match the independent orbit-partition oracle.
        forms = {canonical_form(graph_from_mask(4, m)) for m in range(1 << 6)}
        assert len(forms) == 11
        assert oracles.count_isomorphism_classes(4) == 11

    def test_all_labeled_graphs_on_five_vertices(self):
        forms = {canonical_form(graph_from_mask(5, m)) for m in range(1 << 10)}
        assert len(forms) == oracles.count_isomorphism_classes(5) == 34

    def test_invariance_under_100_random_permutations(self, small_corpus):
        rng = random.Random(7)
        for g in small_corpus:
            form = canonical_form(g)
            for _ in range(100):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert canonical_form(permuted(g, perm)) == form

    @given(graphs(max_n=8), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_invariance_property(self, g, seed):
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        assert canonical_form(permuted(g, perm)) == canonical_form(g)

    def test_agreement_with_permutation_search_n5(self):
        reps = list(enumerate_nonisomorphic(5))
        assert len(reps) == 34
        for i, a in enumerate(reps):
            for b in reps[i + 1 :]:
                assert not is_isomorphic(a, b)
                assert not oracles.is_isomorphic_by_permutation(5, a.edges(), b.edges())

    def test_partition_coincides_with_min_code_oracle_n4(self):
        # Group all 64 labeled graphs on 4 vertices by canonical form and
        # by the oracle's minimal code: the two partitions must coincide.
        by_form: dict[bytes, set[int]] = {}
        by_code: dict[tuple, set[int]] = {}
        for mask in range(1 << 6):
            g = graph_from_mask(4, mask)
            by_form.setdefault(canonical_form(g), set()).add(mask)
            by_code.setdefault(oracles.min_code_by_permutation(4, g.edges()), set()).add(mask)
        assert sorted(by_form.values(), key=sorted) == sorted(by_code.values(), key=sorted)

    def test_same_degree_multiset_pairs_match_oracle(self):
        rng = random.Random(11)
        reps = list(enumerate_nonisomorphic(6))
        for _ in range(60):
            a, b = rng.sample(reps, 2)
            ours = is_isomorphic(a, b)
            assert ours == oracles.is_isomorphic_by_permutation(6, a.edges(), b.edges())
            assert not ours  # enumeration representatives are distinct classes

    def test_highly_symmetric_graphs(self):
        # Vertex-transitive inputs stress the tie-branching search.
        q3 = cube(3)
        k44 = Graph(8, [(u, v + 4) for u in range(4) for v in range(4)])
        rng = random.Random(3)
        for g in (q3, k44, complete_graph(8), Graph(8)):
            form = canonical_form(g)
            for _ in range(20):
                perm = list(range(8))
                rng.shuffle(perm)
                assert canonical_form(permuted(g, perm)) == form
        assert not is_isomorphic(q3, k44)

    @pytest.mark.parametrize(
        "g, shuffles",
        [
            pytest.param(cycle_graph(14), 5, id="C14"),
            pytest.param(rook(4), 5, id="rook4"),
            pytest.param(shrikhande(), 5, id="Shrikhande"),
            pytest.param(cycle_graph(16), 2, id="C16"),
        ],
    )
    def test_invariance_on_vertex_transitive_graphs(self, g, shuffles):
        rng = random.Random(g.n * shuffles)
        form = canonical_form(g)
        for _ in range(shuffles):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(permuted(g, perm)) == form

    @pytest.mark.parametrize(
        "a, b",
        [
            (rook(4), shrikhande()),
            (cycle_graph(12), disjoint_union(cycle_graph(6), cycle_graph(6))),
        ],
        ids=["rook4-vs-Shrikhande", "C12-vs-2C6"],
    )
    def test_separates_pairs_refinement_cannot(self, a, b):
        # Both graphs of each pair are regular of one degree, so
        # refinement leaves one color class; only the search tells them apart.
        assert refined_colors(a.n, a.adjacency_masks) == refined_colors(b.n, b.adjacency_masks)
        assert canonical_form(a) != canonical_form(b)

    def test_c16_finishes_in_seconds(self):
        # The breadth-first frontier needed about 9 s here; automorphism
        # pruning keeps it well under a second on the same machine.
        start = time.perf_counter()
        canonical_form(cycle_graph(16))
        assert time.perf_counter() - start < 5.0


def n7_candidates():
    """Every labeled child the generator builds from the 156 classes on
    six vertices: 9,984 graphs, the new vertex last."""
    for form in _level_forms(6, _all_neighborhoods):
        masks = decode_graph6(form).adjacency_masks
        for neighborhood in range(1 << 6):
            child = [m | 64 if neighborhood >> i & 1 else m for i, m in enumerate(masks)]
            yield Graph.from_masks(7, child + [neighborhood])


def assert_cell_contract(g: Graph) -> None:
    """``refined_colors`` returns nonempty, pairwise disjoint vertex masks
    that cover the vertices, and the last holds vertices of maximum
    degree only."""
    adj = g.adjacency_masks
    cells = refined_colors(g.n, adj)
    assert all(cells)
    assert sum(cell.bit_count() for cell in cells) == g.n
    union = 0
    for cell in cells:
        union |= cell
    assert union == (1 << g.n) - 1
    if g.n:
        top = max(a.bit_count() for a in adj)
        assert all(adj[v].bit_count() == top for v in range(g.n) if cells[-1] >> v & 1)


class TestCellContract:
    """The cells partition the vertices, and the last cell is a set of
    maximum-degree vertices, whatever the graph."""

    @given(refinement_inputs())
    @settings(max_examples=150, deadline=None)
    def test_cells_partition_the_vertices(self, g):
        assert_cell_contract(g)

    def test_cells_partition_the_n7_candidates(self):
        count = 0
        for g in n7_candidates():
            assert_cell_contract(g)
            count += 1
        assert count == 9984

    def test_cells_partition_the_symmetric_graphs(self):
        for g in [*named_symmetric().values(), *large_symmetric()]:
            assert_cell_contract(g)

    def test_empty_and_single_vertex_graphs(self):
        assert refined_colors(0, ()) == []
        assert refined_colors(1, (0,)) == [1]


class TestByteIdentity:
    """Pins the canonical forms to the bytes of the sorted-neighbor-tuple
    refinement and the per-bit graph6 packer that count-based refinement
    and one-integer packing replaced."""

    @given(refinement_inputs())
    @settings(max_examples=150, deadline=None)
    def test_refined_colors_match_sorted_tuple_reference(self, g):
        expected = oracles.refined_cells_by_sorted_neighbors(g.n, g.edges())
        assert refined_colors(g.n, g.adjacency_masks) == expected

    def test_refined_colors_match_reference_on_n7_candidates(self):
        # 2,216 of the 9,984 candidates refine to a discrete coloring,
        # read without a search, and 5,250 more to twin classes only, on
        # which the search never branches.
        for g in n7_candidates():
            edges = g.edges()
            expected = oracles.refined_cells_by_sorted_neighbors(7, edges)
            assert refined_colors(7, g.adjacency_masks) == expected
            expected_rows = oracles.min_code_rows_by_frontier(7, edges)
            assert _min_code_rows(7, g.adjacency_masks) == expected_rows

    @pytest.mark.parametrize("n", range(2, 63))
    def test_refined_colors_match_reference_on_paths(self, n):
        # Each round splits one cell, the middle of the path, off its two
        # outer vertices: P62 takes 30 rounds and ends with one cell per
        # pair of mirror images.
        g = path_graph(n)
        cells = refined_colors(n, g.adjacency_masks)
        assert cells == oracles.refined_cells_by_sorted_neighbors(n, g.edges())
        assert len(cells) == (n + 1) // 2

    def test_refined_colors_match_reference_on_symmetric_graphs(self):
        for g in [*named_symmetric().values(), *large_symmetric()]:
            expected = oracles.refined_cells_by_sorted_neighbors(g.n, g.edges())
            assert refined_colors(g.n, g.adjacency_masks) == expected

    @pytest.mark.parametrize("n", [2, 13, 62])  # 13 vertices: 78 bits, whole 6-bit groups
    def test_rows_packing_matches_encoder(self, n):
        rng = random.Random(n)
        for _ in range(20):
            rows = [rng.getrandbits(j) for j in range(1, n)]
            edges = [
                (i, j) for j in range(1, n) for i in range(j) if rows[j - 1] >> (j - 1 - i) & 1
            ]
            data = graph6_bytes_from_rows(n, rows)
            assert data == encode_graph6(Graph(n, edges))
            assert decode_graph6(data) == Graph(n, edges)

    def test_n7_forms_digest(self):
        # sha256 of the 1,044 sorted n = 7 forms joined by newlines, as
        # computed with the sorted-neighbor-tuple refinement.
        forms = sorted(canonical_form(g) for g in enumerate_nonisomorphic(7))
        digest = hashlib.sha256(b"\n".join(forms)).hexdigest()
        assert digest == "cf43d74eea2e83dd129ee163ab4ba9c0f95efd52978be61a3b45e8d9557307a0"

    def test_n8_forms_digest(self):
        # sha256 of the 12,346 sorted n = 8 forms joined by newlines, as
        # computed with the breadth-first frontier search.
        forms = sorted(canonical_form(g) for g in enumerate_nonisomorphic(8))
        assert len(forms) == 12346
        digest = hashlib.sha256(b"\n".join(forms)).hexdigest()
        assert digest == "3e503c8c6bec0555cca2382d86a1bb2ede4f18a9e854b4caed44bad3415cacb5"

    def test_large_symmetric_forms_digest(self):
        # sha256 of the forms of three relabelings of each graph, in
        # order and joined by newlines, as computed before ties carried
        # their rows into their children.
        rng = random.Random("large-symmetric")
        forms = []
        for g in large_symmetric():
            for _ in range(3):
                perm = list(range(g.n))
                rng.shuffle(perm)
                forms.append(canonical_form(permuted(g, perm)))
        digest = hashlib.sha256(b"\n".join(forms)).hexdigest()
        assert digest == "0bb8765ca300b9c2521be9c65aab934957f95c9018fd474341f59b936b8d08be"

    @given(search_inputs())
    @settings(max_examples=150, deadline=None)
    def test_min_code_rows_match_frontier_reference(self, g):
        expected = oracles.min_code_rows_by_frontier(g.n, g.edges())
        assert _min_code_rows(g.n, g.adjacency_masks) == expected

    @pytest.mark.parametrize("name", sorted(named_symmetric()))
    def test_min_code_rows_match_frontier_on_symmetric_graphs(self, name):
        g = named_symmetric()[name]
        expected = oracles.min_code_rows_by_frontier(g.n, g.edges())
        assert _min_code_rows(g.n, g.adjacency_masks) == expected
        rng = random.Random(name)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            g = permuted(g, perm)
            assert _min_code_rows(g.n, g.adjacency_masks) == expected

    @pytest.mark.parametrize("n", range(10, 63, 4))
    def test_min_code_rows_match_frontier_on_large_joins(self, n):
        # A random graph joined with a 5- to 9-cycle: the cycle's cell is
        # no twin class, so the search runs, and its rows are carried
        # against prefixes up to 57 vertices long, past search_inputs'
        # n <= 12.
        rng = random.Random(f"join-{n}")
        m = rng.randint(5, 9)
        g = direct_product(random_graph(rng, n - m, rng.uniform(0.3, 0.9)), cycle_graph(m))
        expected = oracles.min_code_rows_by_frontier(n, g.edges())
        assert _min_code_rows(n, g.adjacency_masks) == expected
        for _ in range(2):
            perm = list(range(n))
            rng.shuffle(perm)
            h = permuted(g, perm)
            assert _min_code_rows(n, h.adjacency_masks) == expected

    def test_discrete_rows_match_frontier_reference(self):
        # A discrete coloring's rows are read off lanes, not searched:
        # checked here past search_inputs' n <= 12, up to the graph6
        # limit, where large joins never reach that path.
        for g in discrete_graphs():
            expected = oracles.min_code_rows_by_frontier(g.n, g.edges())
            assert _min_code_rows(g.n, g.adjacency_masks) == expected

    def test_discrete_forms_digest(self):
        # Each form is the same under three relabelings; sha256 of the
        # forms in order, joined by newlines, as computed when discrete
        # colorings still went through the search.
        rng = random.Random("discrete")
        forms = []
        for g in discrete_graphs():
            form = canonical_form(g)
            for _ in range(3):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert canonical_form(permuted(g, perm)) == form
            forms.append(form)
        digest = hashlib.sha256(b"\n".join(forms)).hexdigest()
        assert digest == "e3f414ce1ef6a4913944011d1e35e9b070f85c35f429c3a3217f9ece73e0d09b"


def degree_cells(n: int, adj: tuple[int, ...]) -> list[int]:
    """The degree classes as vertex masks, by increasing degree:
    invariant under relabeling, but in general not equitable, unlike
    ``refined_colors``."""
    degrees = sorted({a.bit_count() for a in adj})
    return [sum(1 << v for v in range(n) if adj[v].bit_count() == d) for d in degrees]


def min_rows_over_cell_orders(n: int, adj: tuple[int, ...], cells: list[int]) -> list[int]:
    """The least code rows over every order that lists the cells in
    order, by trying each one."""
    classes = [[v for v in range(n) if cell >> v & 1] for cell in cells]
    best: list[int] | None = None
    for parts in product(*(permutations(members) for members in classes)):
        order = [v for part in parts for v in part]
        rows = []
        for i in range(1, n):
            row = 0
            for u in order[:i]:
                row = row << 1 | (adj[order[i]] >> u & 1)
            rows.append(row)
        if best is None or rows < best:
            best = rows
    assert best is not None
    return best


def search_frames(monkeypatch, g: Graph) -> int:
    """The number of ``_search`` frames one ``canonical_form(g)`` runs,
    counted by wrapping the module global through which the search
    recurses."""
    frames = 0
    search = canonical._search

    def counting(*args):
        nonlocal frames
        frames += 1
        return search(*args)

    with monkeypatch.context() as patch:
        patch.setattr(canonical, "_search", counting)
        canonical_form(g)
    return frames


def is_twin_class(adj: tuple[int, ...], cell: int) -> bool:
    """Whether every two members of ``cell`` have the same neighbors
    apart from each other."""
    members = [v for v in range(len(adj)) if cell >> v & 1]
    return all((adj[u] ^ adj[w]) & ~(1 << u | 1 << w) == 0 for u, w in combinations(members, 2))


class TestTwinCells:
    """A cell of pairwise twins is placed in one step, wherever the
    search meets it."""

    def test_search_is_exact_for_a_coloring_that_is_not_equitable(self, monkeypatch):
        # Under the stable coloring every member of a cell sees each
        # earlier cell whole or not at all, so a twin cell's rows are the
        # same in every branch. Under the degree coloring they are not:
        # in the first graph the false twins 0 and 2 see 1 but not 4 of
        # the first cell {1, 4}. The search must still return the least
        # code over the orders the coloring allows, so each row a twin
        # cell places is compared with the best code's.
        monkeypatch.setattr(canonical, "refined_colors", degree_cells)
        edges = [(0, 1), (0, 3), (0, 5), (1, 2), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]
        inputs = [Graph(6, edges)]
        rng = random.Random(5)
        inputs += [random_graph(rng, rng.randint(4, 7), 0.5) for _ in range(300)]
        for g in inputs:
            adj = g.adjacency_masks
            expected = min_rows_over_cell_orders(g.n, adj, degree_cells(g.n, adj))
            assert _min_code_rows(g.n, adj) == expected

    def test_odd_family_search_frames_do_not_grow_with_n(self, monkeypatch):
        # After refinement odd_family(n) is the seed's cells, some of
        # which the search branches on, and one cell of n - 6 true twins,
        # which it places in one step: the frame count is the same at
        # every n, where placing the twins one position at a time made a
        # tie, and a frame, at each of them.
        frames = {n: search_frames(monkeypatch, odd_family(n)) for n in range(10, 63, 2)}
        assert frames == {n: 5 for n in range(10, 63, 2)}

    def test_all_twin_colorings_never_branch(self, monkeypatch):
        # When every cell is a twin class (singletons included) the one
        # search frame places every cell and never reaches a tie. A
        # discrete coloring takes no frame: its rows are read directly.
        frames = {True: 0, False: 0}
        for g in n7_candidates():
            adj = g.adjacency_masks
            cells = oracles.refined_cells_by_sorted_neighbors(7, g.edges())
            if all(is_twin_class(adj, cell) for cell in cells):
                discrete = len(cells) == 7
                assert search_frames(monkeypatch, g) == (0 if discrete else 1)
                frames[discrete] += 1
        assert frames == {True: 2216, False: 5250}
        k34 = Graph(7, [(u, v) for u in range(3) for v in range(3, 7)])
        star = Graph(6, [(0, v) for v in range(1, 6)])
        for g in (complete_graph(9), k34, star):
            assert search_frames(monkeypatch, g) == 1

    def test_canonical_form_creates_no_reference_cycles(self):
        inputs = [g for n in range(1, 7) for g in enumerate_nonisomorphic(n)]
        inputs.append(cycle_graph(16))
        gc.collect()
        gc.disable()
        try:
            for g in inputs:
                canonical_form(g)
            assert gc.collect() == 0
        finally:
            gc.enable()
