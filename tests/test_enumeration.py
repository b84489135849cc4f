import pytest

import oracles
from cdgraph import (
    Graph,
    all_degrees_odd,
    canonical_form,
    complete_graph,
    enumerate_admissible,
    enumerate_nonisomorphic,
    figure2_graph,
    odd_family,
    run_battery,
    verify_section_3,
)
from cdgraph.enumeration import _level_forms
from conftest import cycle_graph, path_graph

KNOWN_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}

# Admissible-class counts, frozen after the first exhaustive run
# (hand-verified through n=4: K1; K2, 2K1; K3, K2+K1, P3; and at n=4
# the five graphs K4, diamond, paw, C4, K3+K1).
ADMISSIBLE_COUNTS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 12, 6: 34, 7: 104}


class TestEnumerateNonIsomorphic:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_known_counts(self, n):
        assert sum(1 for _ in enumerate_nonisomorphic(n)) == KNOWN_CLASS_COUNTS[n]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_counts_match_independent_orbit_oracle(self, n):
        assert KNOWN_CLASS_COUNTS[n] == oracles.count_isomorphism_classes(n)

    def test_representatives_are_pairwise_nonisomorphic_n4(self):
        reps = list(enumerate_nonisomorphic(4))
        for i, a in enumerate(reps):
            for b in reps[i + 1 :]:
                assert not oracles.is_isomorphic_by_permutation(4, a.edges(), b.edges())

    def test_single_vertex(self):
        assert list(enumerate_nonisomorphic(1)) == [Graph(1)]

    def test_deterministic_canonical_order(self):
        first = [canonical_form(g) for g in enumerate_nonisomorphic(5)]
        second = [canonical_form(g) for g in enumerate_nonisomorphic(5)]
        assert first == second == sorted(first)

    @pytest.mark.parametrize("n", [0, 10, -3])
    def test_range_errors(self, n):
        with pytest.raises(ValueError):
            list(enumerate_nonisomorphic(n))

    @pytest.mark.parametrize("n", [0, -1])
    def test_level_below_one_is_a_value_error(self, n):
        # The generator itself refuses, so no caller has to validate n
        # before reading a level.
        with pytest.raises(ValueError):
            _level_forms(n)


class TestEnumerateAdmissible:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_frozen_counts(self, n):
        assert sum(1 for _ in enumerate_admissible(n)) == ADMISSIBLE_COUNTS[n]

    def test_n3_members(self):
        found = {canonical_form(g) for g, _ in enumerate_admissible(3)}
        expected = {
            canonical_form(complete_graph(3)),
            canonical_form(Graph(3, [(0, 1)])),  # K2 + K1
            canonical_form(path_graph(3)),
        }
        assert found == expected

    def test_p4_excluded(self):
        forms = {canonical_form(g) for g, _ in enumerate_admissible(4)}
        assert canonical_form(path_graph(4)) not in forms

    def test_c5_excluded(self):
        forms = {canonical_form(g) for g, _ in enumerate_admissible(5)}
        assert canonical_form(cycle_graph(5)) not in forms

    @pytest.mark.parametrize("n", range(1, 7))
    def test_filter_soundness(self, n):
        for g, report in enumerate_admissible(n):
            assert report.overall
            assert run_battery(g).overall


class TestVerifySection3:
    def test_n6_summary(self):
        summary = verify_section_3(6)
        assert summary.total_nonisomorphic == 156
        assert summary.theorem_3_3_discrepancies == ()
        assert summary.regular_theorem_discrepancies == ()
        assert summary.non_regular_all_odd_admissible >= 1
        assert summary.all_odd_admissible >= summary.non_regular_all_odd_admissible
        assert summary.admissible <= summary.total_nonisomorphic
        # the disconnected all-odd clique pair K2+K4 sits outside the
        # block theorem's hypotheses and is surfaced, not dropped
        assert len(summary.theorem_3_3_not_applicable) == 1
        assert any("Bissler" in note for note in summary.notes)

    def test_n4_summary(self):
        summary = verify_section_3(4)
        assert summary.total_nonisomorphic == 11
        assert summary.admissible == 5
        assert summary.all_odd_admissible == 1  # K4 only
        assert summary.theorem_3_2_discrepancies["standard"] == ()

    @pytest.mark.parametrize("n, surveyed", [(5, 1), (7, 14)])
    def test_theorem_3_2_holds_vacuously_at_odd_n(self, n, surveyed):
        summary = verify_section_3(n)
        assert summary.diameter3_surveyed == surveyed
        assert all(vals == () for vals in summary.theorem_3_2_discrepancies.values())

    @pytest.mark.parametrize("n", [0, 10])
    def test_range_errors(self, n):
        with pytest.raises(ValueError):
            verify_section_3(n)

    def test_counts_are_monotone(self):
        for n in range(1, 7):
            s = verify_section_3(n)
            assert (
                s.non_regular_all_odd_admissible
                <= s.all_odd_admissible
                <= s.admissible
                <= s.total_nonisomorphic
            )

    def test_summary_json_round_trip(self):
        import json

        payload = json.loads(verify_section_3(5).to_json())
        assert payload["n"] == 5
        assert payload["total_nonisomorphic"] == 34
        assert set(payload["theorem_3_2_discrepancies"]) == {
            "standard",
            "even-only",
            "hamiltonian",
            "even-cross-degrees",
        }


class TestFindOddDegreeGraphs:
    """Admissible all-odd classes, as `cdgraph enumerate --filter all-odd` streams them."""

    @staticmethod
    def all_odd_admissible(n):
        return [g for g, _ in enumerate_admissible(n) if all_degrees_odd(g)]

    def test_n6_exhaustive_contains_figure2_and_k6(self):
        forms = {canonical_form(g) for g in self.all_odd_admissible(6)}
        assert canonical_form(figure2_graph()) in forms
        assert canonical_form(complete_graph(6)) in forms

    def test_family_witness_found_exhaustively(self):
        for n in (6, 8):
            forms = {canonical_form(g) for g in self.all_odd_admissible(n)}
            assert canonical_form(odd_family(n)) in forms

    def test_n2_only_k2(self):
        results = self.all_odd_admissible(2)
        assert len(results) == 1
        assert results[0] == complete_graph(2)
