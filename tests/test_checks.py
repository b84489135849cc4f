import json
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cdgraph import (
    Graph,
    complete_graph,
    connected_components,
    enumerate_nonisomorphic,
    figure2_graph,
    run_battery,
)
from cdgraph.checks import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    check_component_bound,
    check_cut_vertices,
    check_diameter_bound,
    check_forbidden_p4,
    check_palfy,
    check_regular_rule,
    infer_fitting_height,
)
from conftest import cliques_at_a_cut_vertex, cycle_graph, disjoint_union, graphs, joined_cliques, path_graph


class TestPalfy:
    def test_c5_passes(self):
        assert check_palfy(cycle_graph(5)).verdict == PASS
        assert not oracles.has_independent_triple(5, cycle_graph(5).edges())

    def test_p4_passes(self):
        assert check_palfy(path_graph(4)).verdict == PASS

    def test_triangle_plus_isolated_pair_fails_with_witness(self):
        g = disjoint_union(complete_graph(3), Graph(2))
        result = check_palfy(g)
        assert result.verdict == FAIL
        a, b, c = result.witness
        assert not g.has_edge(a, b) and not g.has_edge(a, c) and not g.has_edge(b, c)

    def test_small_graphs_pass(self):
        assert check_palfy(Graph(1)).verdict == PASS
        assert check_palfy(Graph(2)).verdict == PASS

    @given(graphs(max_n=7))
    @settings(max_examples=80, deadline=None)
    def test_equivalent_to_triangle_free_complement(self, g):
        # Pálfy pass <=> the complement has no triangle.
        passes = check_palfy(g).verdict == PASS
        assert passes == (not oracles.complement_has_triangle(g.n, g.edges()))
        assert passes == (not oracles.has_independent_triple(g.n, g.edges()))


class TestComponentBound:
    def test_examples(self):
        assert check_component_bound(disjoint_union(complete_graph(2), complete_graph(2))).verdict == PASS
        assert check_component_bound(Graph(3)).verdict == FAIL
        assert check_component_bound(figure2_graph()).verdict == PASS

    def test_witness_spans_distinct_components(self):
        g = Graph(4, [(0, 1)])
        result = check_component_bound(g)
        assert result.verdict == FAIL
        comps = connected_components(g)
        homes = [next(i for i, c in enumerate(comps) if w in c) for w in result.witness]
        assert len(set(homes)) == len(result.witness) >= 3

    def test_merging_with_four_components_still_fails(self):
        g = Graph(5, [(0, 1)])  # 4 components
        assert check_component_bound(g).verdict == FAIL
        for u in range(5):
            for v in range(u + 1, 5):
                if g.has_edge(u, v):
                    continue
                merged = Graph(5, g.edges() + [(u, v)])
                if len(connected_components(merged)) >= 3:
                    assert check_component_bound(merged).verdict == FAIL


class TestDiameterBound:
    def test_examples(self):
        assert check_diameter_bound(path_graph(4)).verdict == PASS
        assert check_diameter_bound(path_graph(5)).verdict == FAIL
        assert check_diameter_bound(complete_graph(6)).verdict == PASS

    def test_applies_per_component(self):
        g = disjoint_union(path_graph(4), complete_graph(2))
        assert check_diameter_bound(g).verdict == PASS

    @pytest.mark.parametrize(
        "g, witness",
        [
            (path_graph(6), [0, 4, 4]),
            (disjoint_union(complete_graph(2), path_graph(7)), [2, 6, 4]),
        ],
        ids=["P6", "K2+P7"],
    )
    def test_witness_is_a_far_pair(self, g, witness):
        result = check_diameter_bound(g)
        assert result.verdict == FAIL
        assert result.witness == witness
        u, v, dist = witness
        assert oracles.distances(g.n, g.edges(), u)[v] == dist > 3


class TestForbiddenP4:
    def test_p4_fails(self):
        result = check_forbidden_p4(path_graph(4))
        assert result.verdict == FAIL
        a, b, c, d = result.witness
        g = path_graph(4)
        assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)

    def test_c4_passes(self):
        assert check_forbidden_p4(cycle_graph(4)).verdict == PASS

    def test_exact_graph_not_subgraph(self):
        # P4 plus a universal vertex contains P4 but is not P4 itself.
        g = Graph(5, path_graph(4).edges() + [(4, 0), (4, 1), (4, 2), (4, 3)])
        assert check_forbidden_p4(g).verdict == PASS

    def test_relabeled_p4_fails(self):
        assert check_forbidden_p4(Graph(4, [(2, 0), (0, 3), (3, 1)])).verdict == FAIL

    def test_every_4_vertex_class_against_permutation_oracle(self):
        p4 = path_graph(4).edges()
        classes = list(enumerate_nonisomorphic(4))
        assert len(classes) == 11
        failing = [g for g in classes if check_forbidden_p4(g).verdict == FAIL]
        assert failing == [
            g for g in classes if oracles.is_isomorphic_by_permutation(4, g.edges(), p4)
        ]
        assert len(failing) == 1

    def test_every_relabeling_of_p4_fails_with_a_traced_path(self):
        for perm in permutations(range(4)):
            g = Graph(4, [(perm[u], perm[v]) for u, v in path_graph(4).edges()])
            result = check_forbidden_p4(g)
            assert result.verdict == FAIL
            path = result.witness
            assert sorted(path) == [0, 1, 2, 3]
            assert all(g.has_edge(u, v) for u, v in zip(path, path[1:]))


@st.composite
def palfy_graphs(draw, max_n: int = 30):
    """Graphs with independence number <= 2, relabeled at random.

    Either two cliques with random links between them (disconnected, or
    of diameter 3, when the links are few), or the complement of a
    random triangle-free graph.
    """
    n = draw(st.integers(min_value=1, max_value=max_n))
    p = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if draw(st.booleans()):
        a = rng.randrange(n + 1)
        edges = [(u, v) for u, v in pairs if (u < a) == (v < a) or rng.random() < p]
    else:
        missing = [0] * n  # the triangle-free complement, as masks
        rng.shuffle(pairs)
        for u, v in pairs:
            if rng.random() < p and not missing[u] & missing[v]:
                missing[u] |= 1 << v
                missing[v] |= 1 << u
        edges = [(u, v) for u, v in pairs if not missing[u] >> v & 1]
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


@st.composite
def density_graphs(draw, max_n: int = 62):
    """Random graphs up to ``max_n`` vertices, from empty to complete;
    edges come from a seeded ``Random``, one draw per pair."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    p = draw(st.sampled_from([0.0, 0.3, 0.7, 0.9, 0.97, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def drop_edges(g: Graph, rng) -> Graph:
    """``g`` less up to three random edges, so that an independent triple,
    if one appears, can sit anywhere in the vertex order."""
    edges = g.edges()
    dropped = set(rng.sample(edges, min(len(edges), rng.randrange(4))))
    return Graph(g.n, [e for e in edges if e not in dropped])


class TestPalfyWitness:
    @given(st.one_of(graphs(max_n=12), st.builds(drop_edges, palfy_graphs(max_n=12), st.randoms())))
    @settings(max_examples=200, deadline=None)
    def test_witness_is_the_first_independent_triple(self, g):
        first = oracles.first_independent_triple(g.n, g.edges())
        result = check_palfy(g)
        assert result.verdict == (PASS if first is None else FAIL)
        assert result.witness == (None if first is None else list(first))

    # Two cliques (linked, or meeting at a cut vertex), whole or less a
    # few edges: independent triples are rare and can sit anywhere in
    # the vertex order, up to label 61.
    @given(
        st.builds(
            drop_edges,
            st.one_of(joined_cliques(max_n=62), cliques_at_a_cut_vertex(), palfy_graphs(max_n=62)),
            st.randoms(use_true_random=False),
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_witness_on_near_two_clique_graphs_up_to_62_vertices(self, g):
        first = oracles.first_independent_triple(g.n, g.edges())
        result = check_palfy(g)
        assert result.verdict == (PASS if first is None else FAIL)
        assert result.witness == (None if first is None else list(first))

    @pytest.mark.parametrize(
        "triples, witness",
        [
            ([(1, 2, 3)], [1, 2, 3]),  # the least middle's own triple
            ([(1, 2, 4), (1, 2, 3)], [1, 2, 3]),  # its least w
            ([(1, 2, 3), (0, 5, 6)], [0, 5, 6]),  # a smaller u with a later middle
            ([(3, 4, 5), (1, 6, 7), (2, 6, 7)], [1, 6, 7]),
        ],
    )
    def test_witness_when_the_least_middle_is_not_the_least_triple(self, triples, witness):
        # K8 less the edges of the given triples, which makes them
        # independent; the least middle vertex of a triple need not
        # belong to the least triple.
        missing = {pair for t in triples for pair in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))}
        g = Graph(8, [(u, v) for u in range(8) for v in range(u + 1, 8) if (u, v) not in missing])
        assert oracles.first_independent_triple(g.n, g.edges()) == tuple(witness)
        assert check_palfy(g).witness == witness


class TestPalfyImplications:
    """Pálfy (independence number <= 2) implies the component and
    diameter bounds: one vertex from each of three components, or the
    1st, 3rd and 5th vertices of a shortest path with five vertices,
    would be an independent triple. The battery still reports all three."""

    @staticmethod
    def assert_bounds_follow(g):
        assert check_component_bound(g).verdict == PASS
        assert check_diameter_bound(g).verdict == PASS

    def test_exhaustive_up_to_7_vertices(self):
        passing = 0
        for n in range(1, 8):
            for g in enumerate_nonisomorphic(n):
                if check_palfy(g).verdict == PASS:
                    passing += 1
                    self.assert_bounds_follow(g)
        assert passing == 1 + 2 + 3 + 7 + 14 + 38 + 107  # OEIS A006785

    @given(palfy_graphs())
    @settings(max_examples=150, deadline=None)
    def test_random_palfy_graphs(self, g):
        assert check_palfy(g).verdict == PASS
        self.assert_bounds_follow(g)


class TestCutVertices:
    def test_examples(self):
        result = check_cut_vertices(path_graph(4))
        assert result.verdict == FAIL and result.witness == [1, 2]
        assert check_cut_vertices(figure2_graph()).verdict == PASS
        bowtie = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        assert check_cut_vertices(bowtie).verdict == PASS

    def test_witness_vertices_disconnect(self):
        result = check_cut_vertices(path_graph(5))
        for v in result.witness:
            assert v in oracles.cut_vertices_by_removal(5, path_graph(5).edges())


class TestRegularRule:
    def test_c5_fails(self):
        result = check_regular_rule(cycle_graph(5))
        assert result.verdict == FAIL
        assert result.witness == {"degree": 2, "required": 3}

    def test_c4_passes(self):
        assert check_regular_rule(cycle_graph(4)).verdict == PASS

    def test_complete_not_applicable(self):
        assert check_regular_rule(complete_graph(6)).verdict == NOT_APPLICABLE

    def test_nonregular_not_applicable(self):
        assert check_regular_rule(figure2_graph()).verdict == NOT_APPLICABLE


class TestFittingInference:
    def test_figure2(self):
        inference = infer_fitting_height(figure2_graph())
        assert inference is not None and inference.witness == (2, 4)
        g = figure2_graph()
        u, v = inference.witness
        assert not g.has_edge(u, v)
        assert g.degree(u) < g.n - 2 and g.degree(v) < g.n - 2

    def test_complete_graph_has_none(self):
        assert infer_fitting_height(complete_graph(6)) is None

    def test_two_k2(self):
        g = disjoint_union(complete_graph(2), complete_graph(2))
        assert infer_fitting_height(g) is not None

    @given(st.one_of(density_graphs(), palfy_graphs(max_n=62)))
    @settings(max_examples=80, deadline=None)
    def test_witness_is_the_first_low_degree_non_edge(self, g):
        first = oracles.first_low_degree_non_edge(g.n, g.edges())
        inference = infer_fitting_height(g)
        assert (None if inference is None else inference.witness) == first

    def test_large_graphs_with_and_without_a_pair(self):
        # K62 less a perfect matching has every degree n - 2, so no pair;
        # less the edge 0-2 as well, vertices 0 and 2 drop to n - 3.
        matching = {(v, v + 1) for v in range(0, 62, 2)}
        pairs = [(u, v) for u in range(62) for v in range(u + 1, 62)]
        without = Graph(62, [e for e in pairs if e not in matching])
        with_pair = Graph(62, [e for e in pairs if e not in matching | {(0, 2)}])
        assert infer_fitting_height(without) is None
        assert infer_fitting_height(with_pair).witness == (0, 2)

    def test_witness_matches_pairwise_definition_on_every_class_to_n7(self):
        for n in range(1, 8):
            for g in enumerate_nonisomorphic(n):
                expected = oracles.first_low_degree_non_edge(g.n, g.edges())
                inference = infer_fitting_height(g)
                assert (None if inference is None else inference.witness) == expected

    def test_witness_matches_pairwise_definition_on_dense_graphs(self):
        # Dense enough that some graphs have no pair and the others have
        # few, so the least pair is rarely the first one tried.
        rng = random.Random("fitting-height")
        found = {True: 0, False: 0}
        for n in range(10, 63):
            for _ in range(4):
                p = rng.uniform(0.9, 1.0)
                g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
                expected = oracles.first_low_degree_non_edge(g.n, g.edges())
                inference = infer_fitting_height(g)
                assert (None if inference is None else inference.witness) == expected
                found[expected is None] += 1
        assert min(found.values()) >= 40


class TestBattery:
    def test_figure2_admissible(self):
        report = run_battery(figure2_graph())
        assert report.overall and report.overall_label == "admissible"

    def test_p4_fails_with_both_citations(self):
        report = run_battery(path_graph(4))
        assert not report.overall
        assert report.result("forbidden-p4").verdict == FAIL
        assert "Theorem 2.3" in report.result("forbidden-p4").citation
        assert report.result("cut-vertices").verdict == FAIL
        assert "Theorem 2.4" in report.result("cut-vertices").citation

    def test_c5_fails_regular_rule(self):
        report = run_battery(cycle_graph(5))
        assert not report.overall
        assert report.result("regular-rule").verdict == FAIL

    def test_empty_graph_rejected(self):
        for check in (run_battery, check_regular_rule, infer_fitting_height):
            with pytest.raises(ValueError):
                check(Graph(0))

    def test_fixed_check_order(self):
        report = run_battery(figure2_graph())
        with pytest.raises(KeyError):
            report.result("no-such-check")
        assert [r.check for r in report.results] == [
            "palfy",
            "component-bound",
            "diameter-bound",
            "cut-vertices",
            "regular-rule",
            "forbidden-p4",
        ]

    def test_deterministic_verdicts_across_relabelings(self):
        g = path_graph(5)
        h = Graph(5, [(4, 2), (2, 0), (0, 1), (1, 3)])
        verdicts_g = [r.verdict for r in run_battery(g).results]
        verdicts_h = [r.verdict for r in run_battery(h).results]
        assert verdicts_g == verdicts_h

    def test_json_schema_and_stability(self):
        report = run_battery(path_graph(4))
        payload = json.loads(report.to_json())
        assert set(payload) == {"graph", "checks", "overall", "inferences"}
        assert payload["overall"] == "inadmissible"
        for entry in payload["checks"]:
            assert set(entry) == {"id", "verdict", "witness", "citation"}
        assert run_battery(path_graph(4)).to_json() == report.to_json()

    @pytest.mark.parametrize(
        "g, label, admissible",
        [
            (complete_graph(63), "<graph n=63 m=1953>", True),
            (Graph(70, [(0, 1)]), "<graph n=70 m=1>", False),
        ],
        ids=["K63", "n70-one-edge"],
    )
    def test_label_beyond_graph6_range(self, g, label, admissible):
        # graph6 headers stop at 62 vertices, so larger graphs are
        # labelled by their order and size instead.
        report = run_battery(g)
        assert report.graph6 == label
        assert report.overall is admissible
        payload = json.loads(report.to_json())
        assert payload["graph"] == label
        assert json.dumps(payload, indent=2) == report.to_json()
