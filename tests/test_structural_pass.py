"""One structural pass per graph.

Distances come from one all-sources BFS whose layer matrices (row s of
layer d masks the vertices at distance d from s) are cached on each
``Graph``, as is the block decomposition; of the readers of that pass,
only ``bfs_distances`` writes out a per-vertex distance list. These
tests pin that the caches never change an answer: whatever public
function touches a graph first, the distances, eccentricities,
diameter, periphery, diameter-bound witness and structure agree with
the uncached oracles, also at 40 <= n <= 62
where rows span several machine words and a row spilling into the next
would show; callers may mutate what they get back; equality and
hashing ignore the caches; once warm, connectivity, components and
blocks read no adjacency mask, and connectivity and the diameter read
the flag the pass records, with no row; and the mask-based Lewis validation
reports exactly the flags and witnesses of the pairwise reference in
``oracles``.
"""

from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cdgraph import (
    Graph,
    block_decomposition,
    complete_graph,
    connected_components,
    cut_vertices,
    diameter,
    enumerate_lewis_partitions,
    enumerate_nonisomorphic,
    is_block,
    is_connected,
    lewis_partition,
    run_battery,
    validate_partition,
)
from cdgraph import graph as gr
from cdgraph.checks import check_component_bound, check_cut_vertices, check_diameter_bound
from cdgraph.lewis import LewisPartition, partition_report
from conftest import cycle_graph, disjoint_union, joined_cliques, path_graph


@st.composite
def random_graphs(draw, max_n: int = 30, min_n: int = 1):
    """Random graphs over a spread of densities, so that sparse (long
    distances, many cut vertices) and dense inputs both occur."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    p = draw(st.sampled_from([0.05, 0.1, 0.15, 0.25, 0.4, 0.6, 0.85]))
    # Past 30 vertices, one draw per vertex pair would exceed the data
    # Hypothesis lets an example consume, so the edges come from a seed.
    rng = draw(st.randoms(use_true_random=max_n > 30))
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


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
        assert p.r == r and p.s == min(expected[3])
        assert_matches_pairwise_reference(g, p)
    if oracles.diameter_by_bfs(g.n, edges) != 3:
        bases = []
    entries = enumerate_lewis_partitions(g)
    assert [r for r, _, _ in entries] == bases
    for _, p, validity in entries:
        assert validity == validate_partition(g, p)


def assert_validity_is_base_independent(g: Graph) -> None:
    """Every eccentricity-3 base validates or none does, so the report's
    one flag is each base's flag from the pairwise reference."""
    edges = g.edges()
    report = partition_report(g)
    if oracles.diameter_by_bfs(g.n, edges) != 3:
        assert not report["applicable"]
        return
    partitions = {}
    for r in range(g.n):
        rho = oracles.lewis_partition_by_distance(g.n, edges, r)
        if rho is not None:
            partitions[r] = rho
    valid = report["validity"]["valid"]
    assert report["base_vertices"] == [{"r": r, "valid": valid} for r in partitions]
    for r, rho in partitions.items():
        flags, _ = oracles.validate_partition_pairwise(g.n, edges, *rho)
        assert all(flags) == valid, r
    if valid:
        p = report["partition"]
        assert set(partitions) == set(p["rho1"]) | set(p["rho4"])
        sides = {
            frozenset((frozenset(rho1 | rho2), frozenset(rho3 | rho4)))
            for rho1, rho2, rho3, rho4 in partitions.values()
        }
        assert len(sides) == 1


class TestValidityIsBaseIndependent:
    def test_every_class_up_to_7_vertices(self):
        for n in range(1, 8):
            for g in enumerate_nonisomorphic(n):
                assert_validity_is_base_independent(g)

    @given(random_graphs())
    @settings(max_examples=80, deadline=None)
    def test_random_graphs(self, g):
        assert_validity_is_base_independent(g)

    @given(joined_cliques())
    @settings(max_examples=80, deadline=None)
    def test_joined_cliques(self, g):
        assert_validity_is_base_independent(g)


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
        assert gr.bfs_distances(g, 0) == [0, 1, 2, 3, 4]
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
    "diameter": diameter,
    "block_decomposition": block_decomposition,
    "cut_vertices": cut_vertices,
    "is_block": is_block,
    "is_connected": is_connected,
    "connected_components": connected_components,
    "check_component_bound": check_component_bound,
    "check_diameter_bound": check_diameter_bound,
    "check_cut_vertices": check_cut_vertices,
    "run_battery": run_battery,
    "enumerate_lewis_partitions": enumerate_lewis_partitions,
    "partition_report": partition_report,
}


def assert_structure_matches_oracles(g: Graph) -> None:
    edges = g.edges()
    cuts = oracles.cut_vertices_by_removal(g.n, edges)
    components = oracles.components(g.n, edges)
    connected = len(components) == 1
    assert connected_components(g) == [frozenset(c) for c in components]
    assert is_connected(g) == connected
    assert diameter(g) == oracles.diameter_by_bfs(g.n, edges)
    assert set(cut_vertices(g)) == cuts
    assert is_block(g) == (connected and not cuts)
    blocks = sorted(sorted(b) for b in oracles.blocks_by_definition(g.n, edges))
    assert [sorted(b) for b in block_decomposition(g).blocks] == blocks
    far_pair = None
    eccentricities = []
    for v in range(g.n):
        dist = oracles.distances(g.n, edges, v)
        assert gr.bfs_distances(g, v) == dist
        assert gr.eccentricity(g, v) == max(dist)
        eccentricities.append(max(d for d in dist if d < inf))
        if far_pair is None:
            far_pair = next(([v, u, d] for u, d in enumerate(dist) if u > v and 3 < d < inf), None)
    assert check_diameter_bound(g).witness == far_pair
    assert gr.max_component_diameter(g) == max(eccentricities)
    peripheral = [v for v, e in enumerate(eccentricities) if connected and e == max(eccentricities)]
    assert gr.periphery(g) == peripheral


@pytest.mark.parametrize("first", sorted(FIRST_TOUCH))
@given(g=random_graphs(max_n=12))
@settings(max_examples=25, deadline=None)
def test_structure_agrees_with_oracles_whatever_touches_first(first, g):
    FIRST_TOUCH[first](g)
    assert_structure_matches_oracles(g)


@given(g=random_graphs(min_n=40, max_n=62), first=st.sampled_from(sorted(FIRST_TOUCH)))
@settings(max_examples=40, deadline=None)
def test_structure_agrees_with_oracles_up_to_62_vertices(g, first):
    FIRST_TOUCH[first](g)
    assert_structure_matches_oracles(g)


@pytest.mark.parametrize(
    "g, diameter_, largest",
    [
        (path_graph(62), 61, 61),
        (cycle_graph(61), 30, 30),
        (disjoint_union(path_graph(31), path_graph(31)), inf, 30),
        (Graph(1), 0, 0),
        (complete_graph(2), 1, 1),
        (Graph(2), inf, 0),
    ],
    ids=["P62", "C61", "P31+P31", "K1", "K2", "2K1"],
)
def test_structure_on_extreme_shapes(g, diameter_, largest):
    # P62 has 62 distance layers, the most a graph6 input can have.
    assert diameter(g) == diameter_
    assert gr.max_component_diameter(g) == largest
    assert_structure_matches_oracles(g)


class CountingMasks(tuple):
    """Adjacency tuple that counts how many masks are read by index."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


@pytest.mark.parametrize(
    "g",
    [
        cycle_graph(6),
        path_graph(5),
        disjoint_union(path_graph(3), cycle_graph(4)),
        disjoint_union(complete_graph(3), Graph(1)),
    ],
    ids=["C6", "P5", "P3+C4", "K3+K1"],
)
def test_warm_connectivity_is_a_cache_read(g):
    # Once the battery and every distance row have run, connectivity,
    # components, blocks, diameter and the component bound are answered
    # from the cached rows and blocks without touching the adjacency.
    def answers(h):
        return (
            is_connected(h),
            connected_components(h),
            is_block(h),
            diameter(h),
            check_component_bound(h),
        )

    expected = answers(Graph.from_masks(g.n, g.adjacency_masks))
    run_battery(g)
    for v in range(g.n):
        gr.bfs_distances(g, v)
    masks = g._adj = CountingMasks(g._adj)
    assert answers(g) == expected
    assert masks.reads == 0


class TestConnectivityFromThePass:
    """The distance pass records whether the graph is connected, and the
    connectivity readers read that flag."""

    def test_agrees_with_the_oracle_on_every_class_up_to_7_vertices(self):
        graphs = [Graph(0), Graph(1), Graph(2)]
        graphs += [g for n in range(1, 8) for g in enumerate_nonisomorphic(n)]
        for g in graphs:
            assert is_connected(g) == (len(oracles.components(g.n, g.edges())) <= 1), g.edges()
        assert [is_connected(g) for g in graphs[:3]] == [True, True, False]

    @pytest.mark.parametrize(
        "g",
        [cycle_graph(6), path_graph(62), disjoint_union(path_graph(3), cycle_graph(4)), Graph(1), Graph(2)],
        ids=["C6", "P62", "P3+C4", "K1", "2K1"],
    )
    def test_warm_reads_take_no_row(self, monkeypatch, g):
        # After the first fill, connectivity and the diameter read the
        # pass's flag and its layer count, never a row.
        gr.max_component_diameter(g)
        calls = []
        layers = gr._layers
        monkeypatch.setattr(gr, "_layers", lambda *args: calls.append(args) or layers(*args))
        cached = g._dist
        answers = (is_connected(g), diameter(g))
        assert answers == (len(oracles.components(g.n, g.edges())) == 1, oracles.diameter_by_bfs(g.n, g.edges()))
        assert calls == [] and g._dist is cached


class TestCacheIgnoredByIdentity:
    def test_equality_and_hash(self):
        edges = path_graph(6).edges()
        warm, cold = Graph(6, edges), Graph(6, edges)
        before = hash(warm)
        run_battery(warm)
        partition_report(warm)
        gr.diameter(warm)
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
