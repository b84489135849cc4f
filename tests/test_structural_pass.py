"""One structural pass per graph.

Distance rows and the block decomposition are cached on each ``Graph``.
These tests pin that the caches never change an answer: whatever public
function touches a graph first, the structure agrees with the uncached
oracles; callers may mutate what they get back; equality and hashing
ignore the caches; and the mask-based Lewis validation reports exactly
the flags and witnesses of the pairwise reference in ``oracles``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cdgraph import (
    Graph,
    block_decomposition,
    cut_vertices,
    diameter,
    distance_matrix,
    enumerate_lewis_partitions,
    is_block,
    lewis_partition,
    run_battery,
    validate_partition,
)
from cdgraph import graph as gr
from cdgraph.checks import check_cut_vertices, check_diameter_bound
from cdgraph.lewis import LewisPartition, partition_report
from conftest import cycle_graph, path_graph


@st.composite
def random_graphs(draw, max_n: int = 30):
    """Random graphs over a spread of densities, so that sparse (long
    distances, many cut vertices) and dense inputs both occur."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    p = draw(st.sampled_from([0.05, 0.1, 0.15, 0.25, 0.4, 0.6, 0.85]))
    rng = draw(st.randoms(use_true_random=False))
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


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


def assert_matches_pairwise_reference(g: Graph, p: LewisPartition) -> None:
    flags, witnesses = oracles.validate_partition_pairwise(
        g.n, g.edges(), p.rho1, p.rho2, p.rho3, p.rho4
    )
    validity = validate_partition(g, p)
    assert tuple(getattr(validity, flag) for flag in oracles.LEWIS_FLAGS) == flags
    assert validity.witnesses == witnesses


def assert_every_base_vertex_matches(g: Graph) -> None:
    edges = g.edges()
    bases = []
    for r in range(g.n):
        p = lewis_partition(g, r)
        expected = oracles.lewis_partition_by_distance(g.n, edges, r)
        if expected is None:
            assert p is None
            continue
        bases.append(r)
        assert (p.rho1, p.rho2, p.rho3, p.rho4) == tuple(map(frozenset, expected))
        assert_matches_pairwise_reference(g, p)
    if oracles.diameter_by_bfs(g.n, edges) != 3:
        bases = []
    entries = enumerate_lewis_partitions(g)
    assert [r for r, _, _ in entries] == bases
    for _, p, validity in entries:
        assert validity == validate_partition(g, p)


class TestMaskValidationMatchesPairwise:
    @given(random_graphs())
    @settings(max_examples=80, deadline=None)
    def test_random_graphs_every_base_vertex(self, g):
        assert_every_base_vertex_matches(g)

    @given(joined_cliques())
    @settings(max_examples=80, deadline=None)
    def test_joined_cliques_every_base_vertex(self, g):
        assert_every_base_vertex_matches(g)

    @given(random_graphs(max_n=20), st.data())
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_partitions(self, g, data):
        # Hand-built partitions can break every property, including the
        # forbidden-edge and mutual-linking ones that computed
        # partitions always satisfy.
        classes = data.draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
        rho = [frozenset(v for v in range(g.n) if classes[v] == i) for i in range(4)]
        assert_matches_pairwise_reference(g, LewisPartition(0, 0, *rho))

    def test_every_witness_kind_is_exercised(self):
        # C6 split {0} | {1, 5} | {2, 4} | {3} fails only completeness;
        # C4 split as its P4 subgraph has a rho1-rho4 edge; P4 split
        # {} | {0, 1} | {2} | {3} has a rho2 vertex without rho3 neighbor.
        c6 = cycle_graph(6)
        fake = LewisPartition(0, 3, *map(frozenset, ([0], [1, 5], [2, 4], [3])))
        assert_matches_pairwise_reference(c6, fake)
        assert not validate_partition(c6, fake).rho12_complete
        c4 = cycle_graph(4)
        fake = LewisPartition(0, 3, *map(frozenset, ([0], [1], [2], [3])))
        assert_matches_pairwise_reference(c4, fake)
        assert dict(validate_partition(c4, fake).witnesses) == {
            "no_rho1_to_rho34_edges": [0, 3],
            "no_rho4_to_rho12_edges": [3, 0],
        }
        p4 = path_graph(4)
        fake = LewisPartition(0, 3, *map(frozenset, ([], [0, 1], [2], [3])))
        assert_matches_pairwise_reference(p4, fake)
        assert dict(validate_partition(p4, fake).witnesses)["rho2_rho3_mutual_adjacency"] == 0


class TestCachedDistances:
    def test_mutating_a_returned_row_changes_nothing(self):
        g = path_graph(5)
        row = gr.bfs_distances(g, 0)
        row[3] = 99
        row.append(7)
        matrix = distance_matrix(g)
        matrix[1][0] = -1
        assert gr.bfs_distances(g, 0) == [0, 1, 2, 3, 4]
        assert distance_matrix(g)[1] == [1, 0, 1, 2, 3]
        assert gr.eccentricity(g, 0) == 4 and diameter(g) == 4
        assert check_diameter_bound(g).witness == [0, 4, 4]

    def test_out_of_range_sources_still_refused(self):
        g = path_graph(3)
        for v in (-1, 3):
            with pytest.raises(ValueError):
                gr.bfs_distances(g, v)
            with pytest.raises(ValueError):
                gr.eccentricity(g, v)
            with pytest.raises(ValueError):
                lewis_partition(g, v)


FIRST_TOUCH = {
    "bfs_distances": lambda g: gr.bfs_distances(g, g.n - 1),
    "eccentricity": lambda g: gr.eccentricity(g, 0),
    "distance_matrix": distance_matrix,
    "diameter": diameter,
    "block_decomposition": block_decomposition,
    "cut_vertices": cut_vertices,
    "is_block": is_block,
    "check_diameter_bound": check_diameter_bound,
    "check_cut_vertices": check_cut_vertices,
    "run_battery": run_battery,
    "enumerate_lewis_partitions": enumerate_lewis_partitions,
    "partition_report": partition_report,
}


@pytest.mark.parametrize("first", sorted(FIRST_TOUCH))
@given(g=random_graphs(max_n=12))
@settings(max_examples=25, deadline=None)
def test_structure_agrees_with_oracles_whatever_touches_first(first, g):
    FIRST_TOUCH[first](g)
    edges = g.edges()
    cuts = oracles.cut_vertices_by_removal(g.n, edges)
    assert diameter(g) == oracles.diameter_by_bfs(g.n, edges)
    assert set(cut_vertices(g)) == cuts
    assert is_block(g) == (len(oracles.components(g.n, edges)) == 1 and not cuts)
    assert distance_matrix(g) == [oracles.distances(g.n, edges, v) for v in range(g.n)]


class TestCacheIgnoredByIdentity:
    def test_equality_and_hash(self):
        edges = path_graph(6).edges()
        warm, cold = Graph(6, edges), Graph(6, edges)
        before = hash(warm)
        run_battery(warm)
        partition_report(warm)
        distance_matrix(warm)
        assert warm._dist is not None and warm._blocks is not None
        assert cold._dist is None and cold._blocks is None
        assert warm == cold and cold == warm
        assert hash(warm) == hash(cold) == before
        assert len({warm, cold}) == 1
        assert warm == Graph.from_masks(6, warm.adjacency_masks)
        assert warm != Graph(6, edges[:-1])

    @given(random_graphs(max_n=15))
    @settings(max_examples=40, deadline=None)
    def test_equality_and_hash_random(self, g):
        twin = Graph.from_masks(g.n, g.adjacency_masks)
        before = hash(g)
        run_battery(g)
        partition_report(g)
        assert g == twin and hash(g) == hash(twin) == before
