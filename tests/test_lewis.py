import hashlib
import json

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
    lewis_partition,
    odd_family,
    validate_partition,
    verify_section_3,
)
from cdgraph import lewis
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
from conftest import (
    cycle_graph,
    disjoint_union,
    even_linked_cliques,
    graphs,
    joined_cliques,
    path_graph,
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
        # the distance rules, whatever the graph; only the completeness
        # and mutual-linking flags can fail on computed partitions.
        from cdgraph import enumerate_nonisomorphic

        for n in range(4, 7):
            for g in enumerate_nonisomorphic(n):
                for _, _, validity in enumerate_lewis_partitions(g):
                    assert validity.no_rho1_to_rho34_edges
                    assert validity.no_rho4_to_rho12_edges
                    assert validity.rho2_rho3_mutual_adjacency


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
        with pytest.raises(ValueError):
            check_theorem_3_2(cycle_graph(6), p)

    def test_verdict_names_predicate(self):
        p = lewis_partition(path_graph(4), 0)
        verdict = check_theorem_3_2(path_graph(4), p, EULERIAN_EVEN_ONLY)
        assert verdict.eulerian_mode == EULERIAN_EVEN_ONLY

    def test_unknown_mode_rejected(self):
        p = lewis_partition(path_graph(4), 0)
        for name in ("hamiltonian-ish", "even-cross", "Standard", ""):
            with pytest.raises(ValueError):
                check_theorem_3_2(path_graph(4), p, name)
            with pytest.raises(ValueError):
                rho23_predicate(path_graph(4), p, name)

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


class TestParityTheorems:
    def test_complete_graph_parity(self):
        for n in range(2, 21):
            assert all_degrees_odd(complete_graph(n)) == (n % 2 == 0)

    def test_regular_odd(self):
        assert check_regular_odd(cycle_graph(4)).verdict == PASS
        assert check_regular_odd(complete_graph(6)).verdict == NOT_APPLICABLE
        assert check_regular_odd(figure2_graph()).verdict == NOT_APPLICABLE


# sha256 over ``json.dumps(partition_report(g, mode))`` for every
# diameter-3 class with n <= 7, in enumeration order: the report's bytes
# may change only on purpose.
REPORT_SHA256 = {
    EULERIAN_STANDARD: "cef213670c0ac92e1a4dc8d181f92130f0df231e7cb143a9876d607fe0b3e70a",
    EULERIAN_EVEN_ONLY: "3817d1ceaa7ca80598f6874f5b4d7a3a8a391267583034889c5d276df399a6c0",
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
    @pytest.mark.parametrize("g", [BALANCED, cycle_graph(6)], ids=["balanced", "c6"])
    def test_report_builds_and_validates_one_partition(self, monkeypatch, g):
        counts = count_calls(monkeypatch, "lewis_partition", "validate_partition")
        report = partition_report(g)
        assert report["applicable"] and len(report["base_vertices"]) > 1
        assert counts == {"lewis_partition": 1, "validate_partition": 1}

    def test_survey_validates_once_per_diameter3_graph(self, monkeypatch):
        counts = count_calls(monkeypatch, "validate_partition")
        summary = verify_section_3(7)
        assert summary.diameter3_surveyed > 0
        assert counts["validate_partition"] == summary.diameter3_surveyed + len(
            summary.diameter3_no_valid_partition
        )
