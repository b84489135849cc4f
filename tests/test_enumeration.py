import hashlib
import random

import pytest

import oracles
from cdgraph import (
    Graph,
    all_degrees_odd,
    canonical_form,
    complete_graph,
    decode_graph6,
    enumerate_admissible,
    enumerate_nonisomorphic,
    figure2_graph,
    is_regular,
    odd_family,
    run_battery,
    verify_section_3,
)
from cdgraph.checks import FAIL, check_palfy
from cdgraph.enumeration import _all_neighborhoods, _clique_complements, _level_forms
from conftest import cycle_graph, path_graph

KNOWN_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}

# Admissible-class counts, frozen after the first exhaustive run
# (hand-verified through n=4: K1; K2, 2K1; K3, K2+K1, P3; and at n=4
# the five graphs K4, diamond, paw, C4, K3+K1).
ADMISSIBLE_COUNTS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 12, 6: 34, 7: 104}

# OEIS A006785, triangle-free graphs on n = 1..10 unlabeled vertices: by
# complement, the graphs with no independent triple.
A006785 = (1, 2, 3, 7, 14, 38, 107, 410, 1897, 12172)


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
        for rule in (_all_neighborhoods, _clique_complements):
            with pytest.raises(ValueError):
                _level_forms(n, rule)


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

    @pytest.mark.parametrize("n", range(1, 8))
    def test_stream_is_the_battery_passing_full_level(self, n):
        # Skipping the battery on Palfy-failing classes drops no class.
        expected = [g for g in enumerate_nonisomorphic(n) if run_battery(g).overall]
        assert [g for g, _ in enumerate_admissible(n)] == expected

    @pytest.mark.parametrize("n", [0, 11])
    def test_range_errors(self, n):
        with pytest.raises(ValueError):
            list(enumerate_admissible(n))


def _random_palfy_graph(rng: random.Random, n: int) -> Graph:
    """The complement of a random triangle-free graph: edges are offered
    in random order, and each is kept with one random probability unless
    it closes a triangle."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    keep = rng.random()
    nbrs = [0] * n
    for u, v in pairs:
        if not nbrs[u] & nbrs[v] and rng.random() < keep:
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
    return Graph(n, [(u, v) for u, v in pairs if not nbrs[u] >> v & 1])


class TestIndependenceRule:
    """The rule that generates the classes with no independent triple."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rule_offers_exactly_the_clique_complements(self, n):
        for g in enumerate_nonisomorphic(n):
            masks = g.adjacency_masks
            full = (1 << n) - 1
            cliques = [
                c
                for c in range(1 << n)
                if all(c & ~masks[v] & ~(1 << v) == 0 for v in range(n) if c >> v & 1)
            ]
            offered = list(_clique_complements(masks))
            assert sorted(offered) == sorted(full ^ c for c in cliques)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_level_is_the_palfy_passing_full_level(self, n):
        full = _level_forms(n, _all_neighborhoods)
        palfy = tuple(f for f in full if check_palfy(decode_graph6(f)).verdict != FAIL)
        assert _level_forms(n, _clique_complements) == palfy

    def test_counts_match_a006785(self):
        counts = tuple(len(_level_forms(n, _clique_complements)) for n in range(1, 11))
        assert counts == A006785

    @pytest.mark.parametrize("n", [9, 10])
    def test_canonical_form_is_relabelling_invariant(self, n):
        rng = random.Random(n)
        level = set(_level_forms(n, _clique_complements))
        for _ in range(40):
            g = _random_palfy_graph(rng, n)
            form = canonical_form(g)
            assert form in level
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                relabelled = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
                assert canonical_form(relabelled) == form


# sha256 of ``verify_section_3(n).to_json()`` at n = 9 and 10, where the
# survey reads the independence-number rule's level: the bytes may
# change only on purpose.
BEYOND_SHA256 = {
    9: "4c5453891fa9906fd206b744a7e5ce4212054590d9903f7199450e755a8eb540",
    10: "5eb10e10e8af5e6a6141b5cd0231f8de8a5dd7756d70d8edf068acdb93e7b8c2",
}


@pytest.fixture(scope="module")
def beyond_full_levels():
    """The surveys at n = 9 and 10, built once, in process."""
    return {n: verify_section_3(n) for n in (9, 10)}


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

    @pytest.mark.parametrize("n", [0, 11])
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

    def test_n9_survey(self, beyond_full_levels):
        summary = beyond_full_levels[9]
        assert summary.total_nonisomorphic is None
        assert summary.admissible == 1892
        assert summary.all_odd_admissible == 0
        assert summary.diameter3_surveyed == 122
        assert summary.theorem_3_3_discrepancies == summary.theorem_3_3_not_applicable == ()
        assert summary.regular_theorem_discrepancies == ()
        assert summary.diameter3_no_valid_partition == ()
        assert all(vals == () for vals in summary.theorem_3_2_discrepancies.values())
        assert any("independent triple at n=9: 1897" in note for note in summary.notes)
        assert hashlib.sha256(summary.to_json().encode()).hexdigest() == BEYOND_SHA256[9]

    def test_n10_survey(self, beyond_full_levels):
        summary = beyond_full_levels[10]
        assert summary.total_nonisomorphic is None
        assert summary.admissible == 12156
        assert summary.all_odd_admissible == 97
        assert summary.non_regular_all_odd_admissible == 96
        assert summary.diameter3_surveyed == 432
        counts = {mode: len(vals) for mode, vals in summary.theorem_3_2_discrepancies.items()}
        assert counts == {"standard": 11, "even-only": 11, "hamiltonian": 177, "even-cross-degrees": 0}
        assert summary.theorem_3_3_discrepancies == ()
        assert len(summary.theorem_3_3_not_applicable) == 2
        assert summary.regular_theorem_discrepancies == ()
        assert summary.diameter3_no_valid_partition == ()
        assert any("independent triple at n=10: 12172" in note for note in summary.notes)
        assert hashlib.sha256(summary.to_json().encode()).hexdigest() == BEYOND_SHA256[10]

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
