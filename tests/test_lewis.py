import hashlib
import json
import random
import sys
from itertools import combinations

import pytest
from hypothesis import assume, find, given, settings
from hypothesis import strategies as st

from cdgraph import (
    Graph,
    check_regular_odd,
    check_theorem_2_5,
    check_theorem_2_7,
    check_theorem_3_2,
    check_theorem_3_3,
    complete_graph,
    enumerate_admissible,
    enumerate_lewis_partitions,
    enumerate_nonisomorphic,
    figure2_graph,
    first_valid_partition,
    induced_subgraph,
    lewis_partition,
    odd_family,
    validate_partition,
    verify_section_3,
)
from cdgraph import enumeration, lewis
from cdgraph.checks import check_palfy
from cdgraph import all_degrees_odd, cut_vertices, decode_graph6, diameter, is_connected, run_battery
from cdgraph.lewis import (
    DISCREPANCY,
    EULERIAN_EVEN_ONLY,
    EULERIAN_HAMILTONIAN,
    EULERIAN_STANDARD,
    NOT_APPLICABLE,
    PASS,
    RHO23_PREDICATES,
    VACUOUS_PASS,
    LewisPartition,
    even_cross_degrees,
    partition_report,
    rho23_predicate,
)
import oracles
from conftest import (
    cliques_at_a_cut_vertex,
    cycle_graph,
    disjoint_union,
    even_linked_cliques,
    graphs,
    joined_cliques,
    path_graph,
    seeded_graphs,
)


def two_k4_linked(cross):
    """Two 4-cliques {0..3}, {4..7} joined by the given rho2-rho3 edges."""
    k4 = lambda off: [(off + i, off + j) for i in range(4) for j in range(i + 1, 4)]
    return Graph(8, k4(0) + k4(4) + list(cross))


BALANCED = two_k4_linked([(2, 4), (2, 5), (3, 4), (3, 5)])


class TestLewisPartition:
    def test_p4_from_first_endpoint(self):
        p = lewis_partition(path_graph(4), 0)
        assert p is not None
        assert (p.rho1, p.rho2, p.rho3, p.rho4) == (
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
        )
        assert p.r == 0 and p.s == 3

    def test_diameter2_graph_not_applicable(self):
        for r in range(6):
            assert lewis_partition(figure2_graph(), r) is None

    def test_complete_graph_not_applicable(self):
        assert lewis_partition(complete_graph(4), 0) is None

    def test_disconnected_not_applicable(self):
        g = disjoint_union(path_graph(4), Graph(1))
        assert lewis_partition(g, 0) is None

    def test_out_of_range_base(self):
        with pytest.raises(ValueError):
            lewis_partition(path_graph(4), 9)

    def test_partition_covers_and_is_disjoint(self):
        for _, p, _ in enumerate_lewis_partitions(BALANCED):
            sets = [p.rho1, p.rho2, p.rho3, p.rho4]
            assert all(sets)
            union = set().union(*sets)
            assert union == set(range(8))
            assert sum(len(s) for s in sets) == 8

    def test_distance_consistency(self):
        from cdgraph.graph import bfs_distances

        for g in (path_graph(4), BALANCED, cycle_graph(6)):
            for r, p, _ in enumerate_lewis_partitions(g):
                dist = bfs_distances(g, r)
                assert all(dist[v] == 2 for v in p.rho3)
                assert all(dist[v] == 3 for v in p.rho4)
                assert all(dist[v] <= 1 for v in p.rho1 | p.rho2)

    def test_constructed_partitions_never_have_forbidden_edges(self):
        # rho1 cannot reach rho3|rho4 and rho4 cannot reach rho1|rho2 by
        # the distance rules, whatever the graph, and each rho3 vertex's
        # BFS parent is in rho2; only the completeness flags can fail on
        # computed partitions.
        from cdgraph import enumerate_nonisomorphic

        for n in range(4, 7):
            for g in enumerate_nonisomorphic(n):
                for _, _, validity in enumerate_lewis_partitions(g):
                    assert validity.no_rho1_to_rho34_edges
                    assert validity.no_rho4_to_rho12_edges
                    assert validity.rho2_rho3_mutual_adjacency


def vertex_sets(n, rho):
    """A partition's four masks as the public record's vertex sets."""
    return LewisPartition(0, 0, *(frozenset(v for v in range(n) if mask >> v & 1) for mask in rho))


def assert_builder_facts(g):
    """The two facts the package's builder relies on, against the BFS
    oracle: its bases (the folded distance-3 layer) are the vertices
    whose eccentricity is the diameter, and on the partition from any
    base only the two clique flags can fail, so the builder's two tests
    give the validity that all five give. Returns whether g has
    diameter 3."""
    edges = g.edges()
    eccentricities = [max(oracles.distances(g.n, edges, v)) for v in range(g.n)]
    built = lewis._build_partition(g)
    if max(eccentricities) != 3:
        assert built is None
        return False
    bases = [v for v, e in enumerate(eccentricities) if e == 3]
    built_bases, built_rho, built_validity = built
    assert built_bases == bases
    for r in bases:
        p = lewis_partition(g, r)
        validity = validate_partition(g, p)
        assert validity.no_rho1_to_rho34_edges, (g.edges(), r)
        assert validity.no_rho4_to_rho12_edges, (g.edges(), r)
        assert validity.rho2_rho3_mutual_adjacency, (g.edges(), r)
        if r == bases[0]:
            assert built_validity == validity
            assert vertex_sets(g.n, built_rho)[2:] == p[2:]
    return True


class TestBuiltPartitionFacts:
    def test_every_diameter3_class_up_to_8_vertices(self):
        outcomes = set()
        for n in range(1, 9):
            for g in enumerate_nonisomorphic(n):
                if assert_builder_facts(g):
                    outcomes.add(lewis._build_partition(g)[2].valid)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("seed", [1, 2])
    def test_seeded_graphs(self, seed):
        outcomes = set()
        for g in seeded_graphs(seed, 120, 62):
            if assert_builder_facts(g):
                outcomes.add(lewis._build_partition(g)[2].valid)
        assert outcomes == {True, False}


class TestEnumeratePartitions:
    def test_p4_has_two_base_vertices(self):
        entries = enumerate_lewis_partitions(path_graph(4))
        assert [r for r, _, _ in entries] == [0, 3]
        assert all(v.valid for _, _, v in entries)

    def test_c6_partitions_violate_completeness(self):
        entries = enumerate_lewis_partitions(cycle_graph(6))
        assert len(entries) == 6
        for _, _, validity in entries:
            assert not validity.rho34_complete
            assert not validity.valid
            witness = dict(validity.witnesses)["rho34_complete"]
            u, v = witness
            assert not cycle_graph(6).has_edge(u, v)

    def test_family_graph_not_applicable(self):
        assert enumerate_lewis_partitions(odd_family(8)) == []

    def test_artificial_rho1_rho4_edge_detected(self):
        # C4 with the hand-built partition of its P4 subgraph: the extra
        # 0-3 edge is a rho1-rho4 violation.
        c4 = cycle_graph(4)
        fake = LewisPartition(
            r=0,
            s=3,
            rho1=frozenset({0}),
            rho2=frozenset({1}),
            rho3=frozenset({2}),
            rho4=frozenset({3}),
        )
        validity = validate_partition(c4, fake)
        assert not validity.no_rho1_to_rho34_edges
        assert dict(validity.witnesses)["no_rho1_to_rho34_edges"] == [0, 3]


class TestTheorem32:
    def test_p4_biconditional_holds_vacuously(self):
        p = lewis_partition(path_graph(4), 0)
        verdict = check_theorem_3_2(path_graph(4), p)
        assert not verdict.is_all_odd and not verdict.is_block
        assert verdict.characterization_holds

    def test_balanced_two_k4_instance(self):
        # All degrees odd (3s and 5s) with a valid partition; the
        # rho2+rho3 subgraph is K4, so the parity readings of the
        # Eulerian condition fail while the cycle reading holds.
        found = first_valid_partition(BALANCED)
        assert found is not None
        p, validity = found
        assert validity.valid
        std = check_theorem_3_2(BALANCED, p, EULERIAN_STANDARD)
        assert std.is_all_odd and std.is_block and std.rho12_even and std.rho34_even
        assert not std.rho23_eulerian and not std.characterization_holds
        even = check_theorem_3_2(BALANCED, p, EULERIAN_EVEN_ONLY)
        assert not even.rho23_eulerian
        ham = check_theorem_3_2(BALANCED, p, EULERIAN_HAMILTONIAN)
        assert ham.rho23_eulerian and ham.characterization_holds

    def test_invalid_partition_raises(self):
        entries = enumerate_lewis_partitions(cycle_graph(6))
        _, p, validity = entries[0]
        assert not validity.valid
        with pytest.raises(ValueError, match=r"^partition is not valid: \{'rho12_complete': \[1, 5\]"):
            check_theorem_3_2(cycle_graph(6), p)

    def test_verdict_names_predicate(self):
        p = lewis_partition(path_graph(4), 0)
        verdict = check_theorem_3_2(path_graph(4), p, EULERIAN_EVEN_ONLY)
        assert verdict.eulerian_mode == EULERIAN_EVEN_ONLY

    def test_unknown_mode_rejected(self):
        # The name is checked before the gate, so C6's partition, which
        # does not validate, gets the same refusal as P4's.
        for name in ("hamiltonian-ish", "even-cross", "Standard", "bogus", ""):
            message = f"^unknown rho2/rho3 predicate {name!r}$"
            for g in (path_graph(4), cycle_graph(6)):
                p = lewis_partition(g, 0)
                with pytest.raises(ValueError, match=message):
                    check_theorem_3_2(g, p, name)
                with pytest.raises(ValueError, match=message):
                    rho23_predicate(g, p, name)

    @given(joined_cliques(max_n=9).filter(lambda g: g.n % 2 == 1))
    @settings(max_examples=60, deadline=None)
    def test_holds_vacuously_at_odd_n(self, g):
        # At odd n no graph has every degree odd, and |rho1+rho2| and
        # |rho3+rho4| cannot both be even, so both sides are false.
        for _, p, validity in enumerate_lewis_partitions(g):
            if validity.valid:
                for mode in RHO23_PREDICATES:
                    assert check_theorem_3_2(g, p, mode).characterization_holds


# Clique-clique-links graphs up to the 62-vertex limit. The
# even-sized cliques with even linking supply the all-odd graphs that
# random linking almost never produces.
LINKED_CLIQUES = st.one_of(joined_cliques(max_n=62), even_linked_cliques(max_n=62))


class TestPartitionIdentities:
    """The graph-side identities every valid partition satisfies (README,
    "Odd-degree characterization findings", gives the proofs)."""

    @given(LINKED_CLIQUES)
    @settings(max_examples=150, deadline=None)
    def test_all_odd_iff_side_parities_and_linking_parity(self, g):
        found = first_valid_partition(g)
        assume(found is not None)
        p, _ = found
        sides_even = len(p.rho1 | p.rho2) % 2 == 0 and len(p.rho3 | p.rho4) % 2 == 0
        assert all_degrees_odd(g) == (sides_even and even_cross_degrees(g, p))

    @given(LINKED_CLIQUES)
    @settings(max_examples=150, deadline=None)
    def test_cut_vertices_are_the_singleton_linking_sides(self, g):
        found = first_valid_partition(g)
        assume(found is not None)
        p, _ = found
        singletons = [side for side in (p.rho2, p.rho3) if len(side) == 1]
        assert cut_vertices(g) == frozenset().union(*singletons)

    @pytest.mark.parametrize("all_odd", [True, False])
    def test_draws_reach_both_sides_of_the_biconditional(self, all_odd):
        find(
            LINKED_CLIQUES,
            lambda g: first_valid_partition(g) is not None and all_degrees_odd(g) == all_odd,
            settings=settings(database=None),
        )


class TestZeroSurveyColumns:
    """Pálfy's condition alone keeps the survey's Theorem 3.3 and
    no-valid-partition columns at zero, at every n (README, "Which
    survey columns can be nonzero", gives the proofs)."""

    @given(cliques_at_a_cut_vertex())
    @settings(max_examples=150, deadline=None)
    def test_connected_palfy_graph_with_a_cut_vertex_has_an_even_degree(self, g):
        assert check_palfy(g).verdict == PASS
        assert is_connected(g) and cut_vertices(g)
        assert not all_degrees_odd(g)
        assert check_theorem_3_3(g).verdict == VACUOUS_PASS

    @given(joined_cliques(max_n=62, drop_edge=False))
    @settings(max_examples=150, deadline=None)
    def test_co_bipartite_diameter3_graph_has_a_valid_partition(self, g):
        assert check_palfy(g).verdict == PASS and diameter(g) == 3
        assert first_valid_partition(g) is not None


class TestRho23Predicates:
    def test_table_order(self):
        assert tuple(RHO23_PREDICATES) == (
            EULERIAN_STANDARD,
            EULERIAN_EVEN_ONLY,
            EULERIAN_HAMILTONIAN,
            "even-cross-degrees",
        )

    def test_table_is_read_only(self):
        with pytest.raises(TypeError):
            RHO23_PREDICATES["always"] = lambda g, p: True

    def test_linking_parity_holds_on_balanced_instance(self):
        # Each rho2 vertex has two rho3 neighbors and vice versa, so the
        # linking parity completes the characterization the parity
        # readings of "Eulerian" miss on this graph.
        p, _ = first_valid_partition(BALANCED)
        verdict = check_theorem_3_2(BALANCED, p, "even-cross-degrees")
        assert verdict.eulerian_mode == "even-cross-degrees"
        assert verdict.rho23_eulerian and verdict.characterization_holds

    def test_parity_readings_refuse_what_the_subgraph_refused(self):
        # Read off masks, the parity readings still raise where building
        # the rho2 | rho3 subgraph did: no vertex, or one outside g. The
        # linking parity and ``validate_partition`` refuse the same
        # vertices with the same message.
        g = path_graph(4)
        empty = LewisPartition(0, 3, frozenset({0, 1, 2}), frozenset(), frozenset(), frozenset({3}))
        # The message names the least vertex outside 0..3, as
        # ``induced_subgraph`` does: 9 alone, 5 before 9, and -1.
        outside = {
            "9": (frozenset({1}), frozenset({9})),
            "5": (frozenset({5}), frozenset({9})),
            "-1": (frozenset({-1}), frozenset({2})),
        }
        for mode, reading in ((EULERIAN_STANDARD, "is_eulerian"), (EULERIAN_EVEN_ONLY, "all_degrees_even")):
            with pytest.raises(ValueError, match=f"^{reading} is undefined for the empty graph$"):
                rho23_predicate(g, empty, mode)
            for vertex, (rho2, rho3) in outside.items():
                p = LewisPartition(0, 3, frozenset({0}), rho2, rho3, frozenset({3}))
                with pytest.raises(ValueError, match=rf"^vertex {vertex} out of range 0\.\.3$"):
                    rho23_predicate(g, p, mode)
                with pytest.raises(ValueError, match=rf"^vertex {vertex} out of range 0\.\.3$"):
                    induced_subgraph(g, rho2 | rho3)
        linking_parity = lambda g, p: rho23_predicate(g, p, "even-cross-degrees")
        for vertex, (rho2, rho3) in outside.items():
            p = LewisPartition(0, 3, frozenset({0}), rho2, rho3, frozenset({3}))
            for read in (even_cross_degrees, validate_partition, linking_parity):
                with pytest.raises(ValueError, match=rf"^vertex {vertex} out of range 0\.\.3$"):
                    read(g, p)
        # Across the four sets too: 9 in rho4 alone, -1 before 5.
        for vertex, sets in (("9", ({0}, {1}, {2}, {9})), ("-1", ({5}, {1}, {2}, {-1}))):
            with pytest.raises(ValueError, match=rf"^vertex {vertex} out of range 0\.\.3$"):
                validate_partition(g, LewisPartition(0, 3, *map(frozenset, sets)))

    @given(graphs(max_n=8, min_n=2), st.data())
    @settings(max_examples=80, deadline=None)
    def test_linking_parity_counts_cross_edges(self, g, data):
        # Any split works here: the predicate reads only rho2 and rho3.
        sides = data.draw(st.lists(st.sampled_from([1, 2, 3, 4]), min_size=g.n, max_size=g.n))
        rho = [frozenset(v for v in range(g.n) if sides[v] == k) for k in (1, 2, 3, 4)]
        p = LewisPartition(0, 0, *rho)

        def even(a, b):
            return all(sum(g.has_edge(u, v) for v in b) % 2 == 0 for u in a)

        expected = even(p.rho2, p.rho3) and even(p.rho3, p.rho2)
        assert even_cross_degrees(g, p) == expected
        assert rho23_predicate(g, p, "even-cross-degrees") == expected


def linked_cliques(rng, size2, size3):
    """Cliques A (rho2) and B (rho3) of the given sizes on shuffled labels,
    joined by random links, and a partition naming them; the predicate
    reads rho2 and rho3 only."""
    labels = list(range(size2 + size3))
    rng.shuffle(labels)
    side2, side3 = labels[:size2], labels[size2:]
    edges = [pair for side in (side2, side3) for pair in combinations(side, 2)]
    density = rng.random()
    edges += [(a, b) for a in side2 for b in side3 if rng.random() < density]
    p = LewisPartition(0, 0, frozenset(), frozenset(side2), frozenset(side3), frozenset())
    return Graph(size2 + size3, edges), p


def hamiltonian_by_oracle(g, p):
    return oracles.has_hamiltonian_cycle(*oracles.rho23_subgraph(g.edges(), p.rho2, p.rho3))


def four_side_member():
    """The 20-vertex all-odd graph with (|rho1|, |rho2|, |rho3|, |rho4|)
    = (1, 3, 13, 3) whose rho3 vertices are linked to the rho2 pairs
    {1, 2}, {1, 3} and {2, 3}, 1, 1 and 11 times: r = 0, rho2 = 1..3,
    rho3 = 4..16, rho4 = 17..19."""
    edges = list(combinations(range(4), 2)) + list(combinations(range(4, 20), 2))
    pairs = [(1, 2), (1, 3)] + [(2, 3)] * 11
    edges += [(a, v) for v, pair in zip(range(4, 17), pairs) for a in pair]
    return Graph(20, edges)


class TestHamiltonianReading:
    """The cycle reading in closed form: on two cliques rho2 and rho3,
    a cycle through every vertex of rho2 | rho3 exists iff the sides
    have three vertices together and each side has min(2, its size)
    linked vertices."""

    def test_matches_oracle_on_every_valid_partition_to_n8(self):
        outcomes = []
        for n in range(1, 9):
            for g in enumerate_nonisomorphic(n):
                for _, p, validity in enumerate_lewis_partitions(g):
                    if validity.valid:
                        got = rho23_predicate(g, p, EULERIAN_HAMILTONIAN)
                        assert got == hamiltonian_by_oracle(g, p), (g, p)
                        # Every member is linked, so only two singleton
                        # sides close no cycle (README).
                        assert got == (len(p.rho2) + len(p.rho3) >= 3)
                        outcomes.append((got, min(len(p.rho2), len(p.rho3)) == 1))
        # Both verdicts with a singleton side. Without one, every member of
        # a valid partition is linked, so two links are disjoint and the
        # cycle exists.
        assert set(outcomes) == {(True, True), (True, False), (False, True)}

    def test_matches_oracle_on_random_linked_cliques(self):
        rng = random.Random("hamiltonian")
        outcomes = set()
        for _ in range(600):
            g, p = linked_cliques(rng, rng.randint(0, 6), rng.randint(0, 6))
            got = rho23_predicate(g, p, EULERIAN_HAMILTONIAN)
            assert got == hamiltonian_by_oracle(g, p), (g.edges(), p)
            outcomes.add((got, min(len(p.rho2), len(p.rho3))))
        assert outcomes >= {(verdict, smaller) for verdict in (True, False) for smaller in (0, 1, 2)}

    def test_links_sharing_a_vertex_close_no_cycle(self):
        # Two cliques of three, linked only through vertex 0: every link
        # meets 0, so a cycle would pass 0 twice. With one more link away
        # from 0 there is a cycle; a singleton side needs two links.
        star = [(0, 3), (0, 4), (0, 5)]
        cases = [
            ((0, 1, 2), (3, 4, 5), star, False),
            ((0, 1, 2), (3, 4, 5), star + [(1, 3)], True),
            ((0,), (1, 2), [(0, 1)], False),
            ((0,), (1, 2), [(0, 1), (0, 2)], True),
        ]
        for side2, side3, links, expected in cases:
            edges = [pair for side in (side2, side3) for pair in combinations(side, 2)] + links
            g = Graph(len(side2) + len(side3), edges)
            p = LewisPartition(0, 0, frozenset(), frozenset(side2), frozenset(side3), frozenset())
            assert rho23_predicate(g, p, EULERIAN_HAMILTONIAN) is expected
            assert hamiltonian_by_oracle(g, p) is expected

    def test_overlapping_sides_read_as_their_union(self):
        # A caller's rho3 may share vertices with rho2: the cycle is
        # read on the subgraph their union induces, as the oracle reads it.
        k4 = Graph(4, list(combinations(range(4), 2)))
        for rho2, rho3 in (({0, 1}, {1, 2}), ({0, 1, 2}, {0, 1}), ({0, 1}, {0, 1}), ({0, 1, 2, 3}, {2, 3})):
            p = LewisPartition(0, 0, frozenset(), frozenset(rho2), frozenset(rho3), frozenset())
            assert rho23_predicate(k4, p, EULERIAN_HAMILTONIAN) == hamiltonian_by_oracle(k4, p)

    def test_refuses_a_side_that_is_not_a_clique(self):
        g = path_graph(4)
        for rho2, rho3, side in (({0, 2}, {3}, "rho2"), ({1}, {0, 2}, "rho3"), ({0, 2}, {1, 3}, "rho2")):
            p = LewisPartition(0, 0, frozenset(), frozenset(rho2), frozenset(rho3), frozenset())
            with pytest.raises(ValueError, match=f"^the hamiltonian reading needs {side} to be a clique$"):
                rho23_predicate(g, p, EULERIAN_HAMILTONIAN)
        p = LewisPartition(0, 0, frozenset(), frozenset({1}), frozenset({9}), frozenset())
        with pytest.raises(ValueError, match=r"^vertex 9 out of range 0\.\.3$"):
            rho23_predicate(g, p, EULERIAN_HAMILTONIAN)

    def test_twenty_vertex_member_finishes_in_few_calls(self):
        # A backtracking search over rho2 | rho3 took 41.6 s on this
        # graph. The closed form makes a bounded number of Python calls,
        # counted while the whole theorem check runs.
        g = four_side_member()
        assert all_degrees_odd(g) and diameter(g) == 3
        p, _ = first_valid_partition(g)
        assert [len(side) for side in p[2:]] == [1, 3, 13, 3]
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            verdict = check_theorem_3_2(g, p, EULERIAN_HAMILTONIAN)
        finally:
            sys.setprofile(previous)
        assert verdict.rho23_eulerian and verdict.characterization_holds
        assert calls < 500, calls


class TestTheorem33:
    def test_figure2(self):
        assert check_theorem_3_3(figure2_graph()).verdict == PASS

    def test_complete_graph(self):
        assert check_theorem_3_3(complete_graph(6)).verdict == PASS

    def test_not_all_odd_is_vacuous(self):
        assert check_theorem_3_3(cycle_graph(4)).verdict == VACUOUS_PASS

    def test_disconnected_all_odd_outside_hypotheses(self):
        g = disjoint_union(complete_graph(2), complete_graph(4))
        verdict = check_theorem_3_3(g)
        assert verdict.verdict == NOT_APPLICABLE

    def test_connected_all_odd_non_block_would_be_discrepancy(self):
        # No admissible such graph exists; build a non-admissible one:
        # two triangles sharing a vertex have even-degree hub, so force
        # odd degrees with K4s sharing a vertex (hub degree 6, even) --
        # the discrepancy branch needs an artificial all-odd non-block,
        # e.g. two K2s glued: a path of length 2 has even middle.
        # Star K1,3: degrees 3,1,1,1 all odd, one cut vertex.
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        verdict = check_theorem_3_3(star)
        assert verdict.verdict == DISCREPANCY
        assert dict(verdict.details)["cut_vertices"] == [0]


class TestTheorem25:
    def test_p4_records_discrepancy(self):
        p = lewis_partition(path_graph(4), 0)
        verdict = check_theorem_2_5(path_graph(4), p)
        assert verdict.verdict == DISCREPANCY
        details = dict(verdict.details)
        assert details["cut_vertices"] == [1, 2] and details["rho2"] == [1]

    def test_block_with_rho2_of_two_passes(self):
        p, _ = first_valid_partition(BALANCED)
        assert check_theorem_2_5(BALANCED, p).verdict == PASS

    def test_two_triangles_joined_by_an_edge(self):
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
        entries = enumerate_lewis_partitions(g)
        assert entries, "diameter-3 graph expected"
        r, p, validity = entries[0]
        assert validity.valid
        assert check_theorem_2_5(g, p).verdict == DISCREPANCY  # two cut vertices

    def test_not_applicable_off_hypotheses(self):
        fake = LewisPartition(0, 3, frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3}))
        assert check_theorem_2_5(cycle_graph(4), fake).verdict == NOT_APPLICABLE

    def test_verdict_depends_on_the_base_vertex(self):
        # FwCZw is admissible with diameter 3 and one cut vertex, 6. From
        # r = 0 the cut vertex is the lone rho3 member, so the reported
        # (first) partition records a discrepancy; from r = 3, 4 and 5 it
        # is the lone rho2 member and the theorem passes.
        g = decode_graph6("FwCZw")
        assert g.n == 7 and run_battery(g).overall
        assert diameter(g) == 3 and cut_vertices(g) == {6}
        entries = enumerate_lewis_partitions(g)
        assert [r for r, _, validity in entries if validity.valid] == [0, 3, 4, 5]
        for r, p, _ in entries:
            verdict = check_theorem_2_5(g, p).verdict
            if r == 0:
                assert p.rho2 == {1, 2} and p.rho3 == {6}
                assert verdict == DISCREPANCY
            else:
                assert p.rho2 == {6}
                assert verdict == PASS
        assert partition_report(g)["theorems"]["2.5"]["verdict"] == DISCREPANCY


class TestTheorem27:
    def test_p4(self):
        p = lewis_partition(path_graph(4), 0)
        assert check_theorem_2_7(path_graph(4), p).verdict == PASS

    def test_balanced_two_k4(self):
        p, _ = first_valid_partition(BALANCED)
        assert check_theorem_2_7(BALANCED, p).verdict == PASS

    def test_exhaustive_small_corpus(self):
        # Every admissible diameter-3 graph with a valid partition
        # satisfies the block <=> |rho2|,|rho3| >= 2 biconditional.
        for n in range(5, 8):
            for g, _ in enumerate_admissible(n):
                if not is_connected(g) or diameter(g) != 3:
                    continue
                found = first_valid_partition(g)
                if found is None:
                    continue
                assert check_theorem_2_7(g, found[0]).verdict == PASS


# Partitions that validate but fall outside the theorems' hypotheses,
# with the reason the gate gives: one leaves out the 4-path's middle
# vertices, the other splits a disconnected graph.
OFF_HYPOTHESES = {
    "p4-without-middle": (
        path_graph(4),
        LewisPartition(0, 3, frozenset({0}), frozenset(), frozenset(), frozenset({3})),
        "the partition's four sets do not partition the vertices",
    ),
    "2k1": (
        Graph(2, []),
        LewisPartition(0, 1, frozenset({0}), frozenset(), frozenset(), frozenset({1})),
        "the graph's diameter is not 3",
    ),
}


class TestHypothesisGate:
    @pytest.mark.parametrize("case", OFF_HYPOTHESES)
    def test_valid_partition_off_the_hypotheses(self, case):
        g, p, reason = OFF_HYPOTHESES[case]
        assert validate_partition(g, p).valid
        assert check_theorem_2_5(g, p).verdict == NOT_APPLICABLE
        assert check_theorem_2_7(g, p).verdict == NOT_APPLICABLE
        for mode in RHO23_PREDICATES:
            with pytest.raises(ValueError) as exc:
                check_theorem_3_2(g, p, mode)
            assert str(exc.value) == reason

    def test_parity_readings_agree_on_gated_partitions(self):
        # On a partition that passes the gate, rho2 and rho3 are nonempty
        # cliques and each member has a neighbour on the other side, so
        # rho2 | rho3 induces a connected graph and "standard" reduces to
        # "even-only" (the README proves it under "Lewis partition").
        readings = []
        for n in range(1, 8):
            for g in enumerate_nonisomorphic(n):
                for _, p, validity in enumerate_lewis_partitions(g):
                    if validity.valid:
                        k, edges = oracles.rho23_subgraph(g.edges(), p.rho2, p.rho3)
                        assert len(oracles.components(k, edges)) == 1
                        readings.append(
                            (rho23_predicate(g, p, EULERIAN_STANDARD), rho23_predicate(g, p, EULERIAN_EVEN_ONLY))
                        )
        assert {standard for standard, _ in readings} == {True, False}
        assert all(standard == even for standard, even in readings)


class TestParityTheorems:
    def test_complete_graph_parity(self):
        for n in range(2, 21):
            assert all_degrees_odd(complete_graph(n)) == (n % 2 == 0)

    def test_regular_odd(self):
        assert check_regular_odd(cycle_graph(4)).verdict == PASS
        assert check_regular_odd(complete_graph(6)).verdict == NOT_APPLICABLE
        assert check_regular_odd(figure2_graph()).verdict == NOT_APPLICABLE
        # K3,3 is 3-regular, so all-odd, but not admissible (not (n-2)-regular).
        k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
        verdict = check_regular_odd(k33)
        assert verdict.verdict == DISCREPANCY
        assert dict(verdict.details)["degree_multiset"] == [3] * 6


# sha256 over ``json.dumps(partition_report(g, mode))`` for every
# diameter-3 class with n <= 7, in enumeration order: the report's bytes
# may change only on purpose.
REPORT_SHA256 = {
    EULERIAN_STANDARD: "cef213670c0ac92e1a4dc8d181f92130f0df231e7cb143a9876d607fe0b3e70a",
    EULERIAN_EVEN_ONLY: "3817d1ceaa7ca80598f6874f5b4d7a3a8a391267583034889c5d276df399a6c0",
    EULERIAN_HAMILTONIAN: "9ffd8af0cf7e7b0cda1b822d7b53954c1664fe5d8ca57462ca88e6254f135041",
    "even-cross-degrees": "cbda15df6f3603155e9efd4af748ce839287086c4f519e4acb34e4bb81ce0963",
}


class TestPartitionReport:
    def test_p4_report(self):
        report = partition_report(path_graph(4))
        assert report["applicable"]
        assert report["partition"]["r"] == 0
        assert report["partition"]["rho4"] == [3]
        assert report["validity"]["valid"]
        assert report["theorems"]["2.5"]["verdict"] == DISCREPANCY
        assert report["theorems"]["3.2"]["characterization_holds"] is True
        assert [e["r"] for e in report["base_vertices"]] == [0, 3]

    def test_inapplicable_report(self):
        report = partition_report(complete_graph(3))
        assert report == {
            "applicable": False,
            "reason": "graph is disconnected or its diameter is not 3",
        }

    def test_unknown_mode_refused_first(self):
        # Before any graph work: where the partition validates (P4),
        # where it does not (C6) and where there is none (K3).
        for g in (path_graph(4), cycle_graph(6), complete_graph(3)):
            with pytest.raises(ValueError, match="^unknown rho2/rho3 predicate 'bogus'$"):
                partition_report(g, "bogus")

    def test_report_bytes_are_pinned(self):
        for mode, expected in REPORT_SHA256.items():
            digest = hashlib.sha256()
            for n in range(1, 8):
                for g in enumerate_nonisomorphic(n):
                    if diameter(g) == 3:
                        digest.update(json.dumps(partition_report(g, mode)).encode())
            assert digest.hexdigest() == expected, mode


def count_calls(monkeypatch, *names):
    """Wrap each named ``lewis`` attribute so that its calls are counted."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(lewis, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(lewis, name, counted)
    return counts


class TestOnePassPerGraph:
    # The package builds its partition with the private builder, which
    # validates as it builds; the public per-base functions are the
    # callers' and the tests' reference, and the package calls neither.
    @pytest.mark.parametrize("g", [BALANCED, cycle_graph(6)], ids=["balanced", "c6"])
    def test_report_builds_and_validates_one_partition(self, monkeypatch, g):
        counts = count_calls(monkeypatch, "_build_partition", "lewis_partition", "validate_partition")
        report = partition_report(g)
        assert report["applicable"] and len(report["base_vertices"]) > 1
        assert counts == {"_build_partition": 1, "lewis_partition": 0, "validate_partition": 0}

    def test_survey_validates_once_per_diameter3_graph(self, monkeypatch):
        # The survey's partitions are built and validated once, so they
        # skip the theorems' gate.
        names = ("_build_partition", "lewis_partition", "validate_partition", "_unmet_hypothesis")
        counts = count_calls(monkeypatch, *names)
        summary = verify_section_3(7)
        assert summary.diameter3_surveyed == 14
        assert counts == {
            "_build_partition": summary.diameter3_surveyed + len(summary.diameter3_no_valid_partition),
            "lewis_partition": 0,
            "validate_partition": 0,
            "_unmet_hypothesis": 0,
        }

    def test_survey_hands_the_verdicts_valid_partitions_only(self, monkeypatch):
        # Every admissible graph has a valid partition, so the survey is
        # fed C6 (no base validates) between P4 and the balanced graph.
        stream = [path_graph(4), cycle_graph(6), BALANCED]
        monkeypatch.setattr(enumeration, "enumerate_admissible", lambda n: ((g, run_battery(g)) for g in stream))
        handed = []
        verdict = lewis._theorem_3_2

        def checked(g, rho, mode):
            handed.append(validate_partition(g, vertex_sets(g.n, rho)).valid)
            return verdict(g, rho, mode)

        monkeypatch.setattr(lewis, "_theorem_3_2", checked)
        summary = verify_section_3(4)
        assert summary.diameter3_no_valid_partition == (run_battery(cycle_graph(6)).graph6,)
        assert summary.diameter3_surveyed == 2
        assert handed == [True] * 2 * len(RHO23_PREDICATES)


class TestOneGatePerReport:
    @pytest.mark.parametrize("g", [BALANCED, cycle_graph(6), path_graph(4)], ids=["balanced", "c6", "p4"])
    def test_report_runs_the_gate_at_most_once(self, monkeypatch, g):
        # Diameter 3 and the cover hold by construction, so the report
        # needs at most the validity it already has.
        counts = count_calls(monkeypatch, "_unmet_hypothesis")
        for mode in RHO23_PREDICATES:
            before = counts["_unmet_hypothesis"]
            assert partition_report(g, mode)["applicable"]
            assert counts["_unmet_hypothesis"] - before <= 1


def reference_report(g, mode):
    """``partition_report`` rebuilt from the public per-step functions:
    every base's partition and validity, and each theorem's own check,
    which gates and validates by itself."""
    entries = enumerate_lewis_partitions(g)
    if not entries:
        return {"applicable": False, "reason": "graph is disconnected or its diameter is not 3"}
    _, p, validity = entries[0]
    assert validate_partition(g, p) == validity
    theorems = {"2.5": check_theorem_2_5(g, p).to_dict(), "2.7": check_theorem_2_7(g, p).to_dict()}
    if validity.valid:
        theorems["3.2"] = check_theorem_3_2(g, p, mode).to_dict()
    return {
        "applicable": True,
        "partition": p.to_dict(),
        "validity": validity.to_dict(),
        "base_vertices": [{"r": r, "valid": v.valid} for r, _, v in entries],
        "theorems": theorems,
        "theorem_3_3": check_theorem_3_3(g).to_dict(),
    }


def rho23_by_oracle(g, partition, mode):
    """Theorem 3.2's rho2/rho3 condition from the partition's lists and
    the edge list alone."""
    rho2, rho3 = set(partition["rho2"]), set(partition["rho3"])
    if mode == "even-cross-degrees":
        adj = oracles.adjacency(g.n, g.edges())
        return all(len(adj[u] & rho3) % 2 == 0 for u in rho2) and all(len(adj[v] & rho2) % 2 == 0 for v in rho3)
    k, edges = oracles.rho23_subgraph(g.edges(), rho2, rho3)
    if mode == EULERIAN_HAMILTONIAN:
        return oracles.has_hamiltonian_cycle(k, edges)
    adj = oracles.adjacency(k, edges)
    if mode == EULERIAN_EVEN_ONLY:
        return all(len(adj[v]) % 2 == 0 for v in adj)
    return oracles.is_eulerian_by_definition(k, edges)


def assert_report_matches_reference(g, mode):
    report = partition_report(g, mode)
    assert json.dumps(report) == json.dumps(reference_report(g, mode))
    if not report["applicable"] or "3.2" not in report["theorems"]:
        return
    # The shared verdict code, checked against the partition's lists.
    part, theorems = report["partition"], report["theorems"]
    sizes = {key: len(part[key]) for key in ("rho1", "rho2", "rho3", "rho4")}
    assert theorems["2.5"]["details"]["rho2"] == part["rho2"]
    assert theorems["2.7"]["details"]["rho2_size"] == sizes["rho2"]
    assert theorems["2.7"]["details"]["rho3_size"] == sizes["rho3"]
    odd_degree = theorems["3.2"]
    assert odd_degree["rho12_size_even"] == ((sizes["rho1"] + sizes["rho2"]) % 2 == 0)
    assert odd_degree["rho34_size_even"] == ((sizes["rho3"] + sizes["rho4"]) % 2 == 0)
    assert odd_degree["rho23_eulerian"] == rho23_by_oracle(g, part, mode)


# The seeded corpus: co-bipartite diameter-3 graphs (always valid),
# copies less one edge, all-odd linked cliques, dense random graphs and
# clique unions, n = 10..62; the cycle reading only up to n = 12, where
# its backtracking oracle stays fast.
DIFFERENTIAL = [
    (mode, seed, max_n)
    for seed in (1, 2)
    for mode, max_n in (
        (EULERIAN_STANDARD, 62),
        (EULERIAN_EVEN_ONLY, 62),
        ("even-cross-degrees", 62),
        (EULERIAN_HAMILTONIAN, 12),
    )
]


class TestReportMatchesPerStepReference:
    @pytest.mark.parametrize("mode, seed, max_n", DIFFERENTIAL)
    def test_seeded_graphs(self, mode, seed, max_n):
        outcomes = set()
        for g in seeded_graphs(seed, 120, max_n):
            assert_report_matches_reference(g, mode)
            found = first_valid_partition(g)
            outcomes.add("inapplicable" if diameter(g) != 3 else found is not None and all_degrees_odd(g))
        assert outcomes == {"inapplicable", True, False}

    @given(joined_cliques(max_n=62, drop_edge=False), st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_co_bipartite_graphs_and_copies_less_one_edge(self, g, drop, rng):
        if drop:
            edges = g.edges()
            edges.remove(rng.choice(edges))
            g = Graph(g.n, edges)
        for mode in RHO23_PREDICATES:
            if mode != EULERIAN_HAMILTONIAN or g.n <= 12:
                assert_report_matches_reference(g, mode)
