import math

import pytest
from hypothesis import given, settings

import oracles
from cdgraph import (
    Graph,
    all_degrees_even,
    all_degrees_odd,
    block_decomposition,
    complete_graph,
    connected_components,
    cut_vertices,
    degree_multiset,
    diameter,
    enumerate_nonisomorphic,
    figure2_graph,
    induced_subgraph,
    is_block,
    is_complete,
    is_eulerian,
    is_regular,
)
from cdgraph.graph import bfs_distances
from conftest import cycle_graph, disjoint_union, graphs, path_graph

INF = math.inf


def distance_rows(g: Graph) -> list[list[int | float]]:
    return [bfs_distances(g, v) for v in range(g.n)]


class TestConstruction:
    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph(2, [(-1, 0)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(4, [(2, 2)])

    def test_duplicate_and_reversed_pairs_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1
        assert g.edges() == [(0, 1)]

    def test_empty_graph(self):
        g = Graph(0)
        assert g.n == 0 and g.edges() == []

    def test_adjacency_is_symmetric(self):
        g = path_graph(4)
        assert g.has_edge(2, 1) and g.has_edge(1, 2)

    def test_out_of_range_queries_rejected(self):
        g = path_graph(4)
        for query in (lambda: g.neighbors(4), lambda: g.neighbors(-1), lambda: g.has_edge(0, 4)):
            with pytest.raises(ValueError):
                query()

    def test_never_equal_to_a_non_graph(self):
        assert Graph(1) != 1 and not Graph(1) == 1


class TestDegrees:
    def test_figure2_degrees(self):
        g = figure2_graph()
        assert g.degree(0) == 5
        assert g.degree(2) == 3
        assert degree_multiset(g) == (5, 5, 3, 3, 3, 3)

    def test_isolated_vertex(self):
        assert Graph(1).degree(0) == 0

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            path_graph(3).degree(3)

    def test_multiset_examples(self):
        assert degree_multiset(complete_graph(6)) == (5,) * 6
        assert degree_multiset(path_graph(4)) == (2, 2, 1, 1)

    def test_all_degrees_odd(self):
        assert all_degrees_odd(figure2_graph())
        assert all_degrees_odd(complete_graph(6))
        assert not all_degrees_odd(cycle_graph(4))

    def test_all_degrees_odd_complete_parity(self):
        # K_n is all-odd exactly for even n.
        for n in range(1, 21):
            assert all_degrees_odd(complete_graph(n)) == (n % 2 == 0)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            all_degrees_odd(Graph(0))
        with pytest.raises(ValueError):
            all_degrees_even(Graph(0))

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_handshake(self, g):
        assert sum(degree_multiset(g)) == 2 * g.edge_count


class TestDistances:
    def test_path_endpoints(self):
        d = distance_rows(path_graph(4))
        assert d[0][3] == 3 and d[3][0] == 3
        assert d[1][1] == 0

    def test_complete_graph(self):
        d = distance_rows(complete_graph(6))
        assert all(d[u][v] == 1 for u in range(6) for v in range(6) if u != v)

    def test_cross_component_is_infinite(self):
        two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
        assert distance_rows(two_k2)[0][2] == INF

    def test_diameter_examples(self):
        assert diameter(figure2_graph()) == 2
        assert diameter(path_graph(4)) == 3
        for n in range(2, 6):
            assert diameter(complete_graph(n)) == 1
        assert diameter(Graph(1)) == 0
        assert diameter(disjoint_union(complete_graph(2), complete_graph(2))) == INF
        with pytest.raises(ValueError):
            diameter(Graph(0))

    @given(graphs(max_n=7))
    @settings(max_examples=50, deadline=None)
    def test_diameter_is_max_matrix_entry_when_connected(self, g):
        d = distance_rows(g)
        if len(connected_components(g)) == 1:
            assert diameter(g) == max(max(row) for row in d)

    @given(graphs(max_n=7))
    @settings(max_examples=50, deadline=None)
    def test_distances_match_oracle(self, g):
        for v in range(g.n):
            assert bfs_distances(g, v) == oracles.distances(g.n, g.edges(), v)


class TestComponents:
    def test_examples(self):
        two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
        assert [sorted(c) for c in connected_components(two_k2)] == [[0, 1], [2, 3]]
        assert len(connected_components(figure2_graph())) == 1
        assert len(connected_components(Graph(3))) == 3

    @given(graphs(max_n=7))
    @settings(max_examples=50, deadline=None)
    def test_matches_oracle(self, g):
        ours = sorted(sorted(c) for c in connected_components(g))
        oracle = sorted(sorted(c) for c in oracles.components(g.n, g.edges()))
        assert ours == oracle


class TestBlocks:
    def test_path_blocks(self):
        decomp = block_decomposition(path_graph(4))
        assert decomp.cut_vertices == frozenset({1, 2})
        assert sorted(sorted(b) for b in decomp.blocks) == [[0, 1], [1, 2], [2, 3]]

    def test_figure2_is_one_block(self):
        decomp = block_decomposition(figure2_graph())
        assert decomp.cut_vertices == frozenset()
        assert len(decomp.blocks) == 1

    def test_k4(self):
        decomp = block_decomposition(complete_graph(4))
        assert not decomp.cut_vertices and len(decomp.blocks) == 1

    def test_isolated_vertices_are_singleton_blocks(self):
        decomp = block_decomposition(Graph(2))
        assert sorted(sorted(b) for b in decomp.blocks) == [[0], [1]]

    def test_blocks_match_definition_on_every_class_to_n7(self):
        # Above 8 vertices the oracle applies the edge-separation rule,
        # so that rule is checked against the definition here too.
        for n in range(1, 8):
            for g in enumerate_nonisomorphic(n):
                edges = g.edges()
                expected = sorted(sorted(b) for b in oracles.blocks_by_definition(n, edges))
                assert [sorted(b) for b in block_decomposition(g).blocks] == expected
                assert sorted(sorted(b) for b in oracles.blocks_by_separation(n, edges)) == expected

    def test_is_block_examples(self):
        assert is_block(figure2_graph())
        assert not is_block(path_graph(4))
        assert is_block(complete_graph(2))
        assert is_block(Graph(1))
        assert not is_block(Graph(2))

    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_cut_vertices_match_removal_oracle(self, g):
        assert set(cut_vertices(g)) == oracles.cut_vertices_by_removal(g.n, g.edges())

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_every_edge_in_exactly_one_block(self, g):
        decomp = block_decomposition(g)
        for u, v in g.edges():
            homes = [b for b in decomp.blocks if u in b and v in b]
            assert len(homes) == 1

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_blocks_overlap_only_in_cut_vertices(self, g):
        decomp = block_decomposition(g)
        for i, a in enumerate(decomp.blocks):
            for b in decomp.blocks[i + 1 :]:
                shared = a & b
                assert len(shared) <= 1
                assert shared <= decomp.cut_vertices


class TestInducedSubgraph:
    def test_figure2_hub_side_is_complete(self):
        sub, labels = induced_subgraph(figure2_graph(), {0, 1, 2, 3})
        assert labels == (0, 1, 2, 3)
        assert is_complete(sub)

    def test_empty_selection(self):
        sub, labels = induced_subgraph(figure2_graph(), set())
        assert sub.n == 0 and labels == ()

    def test_complete_graph_hereditary(self):
        sub, _ = induced_subgraph(complete_graph(6), {1, 3, 5})
        assert is_complete(sub) and sub.n == 3

    def test_out_of_range_member(self):
        with pytest.raises(ValueError):
            induced_subgraph(complete_graph(3), {0, 5})

    @given(graphs())
    @settings(max_examples=50, deadline=None)
    def test_full_selection_is_identity(self, g):
        sub, labels = induced_subgraph(g, range(g.n))
        assert sub == g and labels == tuple(range(g.n))


class TestRegularityCompleteness:
    def test_examples(self):
        assert is_complete(complete_graph(6)) and is_regular(complete_graph(6)) == (True, 5)
        assert not is_complete(cycle_graph(5)) and is_regular(cycle_graph(5)) == (True, 2)
        assert not is_complete(figure2_graph())
        assert is_regular(figure2_graph()) == (False, None)

    def test_single_vertex(self):
        assert is_complete(Graph(1)) and is_regular(Graph(1)) == (True, 0)


class TestEulerian:
    def test_cycle(self):
        g = cycle_graph(4)
        assert all_degrees_even(g) and is_eulerian(g)

    def test_disjoint_triangles(self):
        g = disjoint_union(complete_graph(3), complete_graph(3))
        assert all_degrees_even(g)
        assert not is_eulerian(g)

    def test_path(self):
        g = path_graph(4)
        assert not all_degrees_even(g) and not is_eulerian(g)

    @given(graphs(max_n=7))
    @settings(max_examples=50, deadline=None)
    def test_matches_oracle(self, g):
        assert is_eulerian(g) == oracles.is_eulerian_by_definition(g.n, g.edges())
