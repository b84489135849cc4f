"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 7 documents a finding rather than a pass: over all
battery-passing diameter-3 graphs with valid partitions on up to 8
vertices, NEITHER parity reading of the Eulerian condition in the
odd-degree characterization is discrepancy-free (nor is the literal
all-vertex-cycle reading); the assertion that one of the two parity
readings survives is kept faithful and fails, and the survey records
the linking-parity condition that is discrepancy-free. Details in the
README's "Odd-degree characterization findings" section.

The survey JSON for n = 1..8 is also pinned byte for byte, from the same
fixture run.
"""

import hashlib
import random
import time

import pytest

import oracles
from cdgraph import (
    Graph,
    all_degrees_odd,
    canonical_form,
    complete_graph,
    decode_graph6,
    degree_multiset,
    diameter,
    encode_graph6,
    figure2_graph,
    is_block,
    is_isomorphic,
    is_regular,
    odd_family,
    run_battery,
    verify_section_3,
)
from cdgraph import enumeration
from cdgraph.checks import FAIL, check_palfy
from cdgraph.lewis import RHO23_PREDICATES
from cdgraph.graph import cut_vertices
from conftest import graph_from_mask, path_graph


def criterion(number: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def best_of(runs: int, fn) -> float:
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def survey():
    """Fresh single-threaded exhaustive run over n = 1..8."""
    enumeration._level_forms.cache_clear()
    start = time.perf_counter()
    summaries = {n: verify_section_3(n) for n in range(1, 9)}
    elapsed = time.perf_counter() - start
    return summaries, elapsed


def test_criterion_1_figure2_reproduction():
    def evaluate():
        g = figure2_graph()
        assert degree_multiset(g) == (5, 5, 3, 3, 3, 3)
        assert is_regular(g) == (False, None)
        assert all_degrees_odd(g)
        assert is_block(g)
        assert diameter(g) == 2
        assert run_battery(g).overall

    evaluate()  # warm-up and correctness
    elapsed = best_of(5, evaluate)
    criterion(
        1,
        elapsed < 1e-3,
        f"figure-2 graph: degrees (5,5,3,3,3,3), non-regular, all-odd, block, "
        f"diameter 2, battery pass in {elapsed * 1e3:.3f} ms",
    )


def test_criterion_2_forbidden_path():
    p4 = path_graph(4)

    def evaluate():
        report = run_battery(p4)
        assert not report.overall
        assert report.result("forbidden-p4").verdict == FAIL
        assert "Theorem 2.3" in report.result("forbidden-p4").citation
        assert report.result("cut-vertices").verdict == FAIL
        assert "Theorem 2.4" in report.result("cut-vertices").citation

    evaluate()
    elapsed = best_of(5, evaluate)
    criterion(
        2,
        elapsed < 1e-3,
        f"4-path fails with Theorem 2.3 and Theorem 2.4 citations in {elapsed * 1e3:.3f} ms",
    )


def test_criterion_3_family_degree_law():
    def evaluate():
        for n in range(6, 21, 2):
            degrees = degree_multiset(odd_family(n))
            assert degrees == (n - 1,) * (n - 4) + (n - 3,) * 4
        assert degree_multiset(odd_family(8)) == (7, 7, 7, 7, 5, 5, 5, 5)
        assert degree_multiset(odd_family(10)) == (9, 9, 9, 9, 9, 9, 7, 7, 7, 7)

    evaluate()
    elapsed = best_of(5, evaluate)
    criterion(
        3,
        elapsed < 1e-2,
        f"odd family n=6..20: exactly 4 vertices of degree n-3 and n-4 of degree n-1 "
        f"in {elapsed * 1e3:.2f} ms total",
    )


def test_criterion_4_complete_graph_parity():
    ok = all(all_degrees_odd(complete_graph(n)) == (n % 2 == 0) for n in range(2, 21))
    criterion(4, ok, "all_degrees_odd(K_n) == (n even) for n = 2..20")


def test_criterion_5_exhaustive_block_theorem(survey):
    summaries, elapsed = survey
    oracle_counts = {n: oracles.count_isomorphism_classes(n) for n in range(4, 7)}
    counts_ok = (
        oracle_counts == {4: 11, 5: 34, 6: 156}
        and summaries[4].total_nonisomorphic == 11
        and summaries[5].total_nonisomorphic == 34
        and summaries[6].total_nonisomorphic == 156
        and summaries[8].total_nonisomorphic == 12346
    )
    discrepancies = [g6 for n in range(1, 9) for g6 in summaries[n].theorem_3_3_discrepancies]
    outside = [g6 for n in range(1, 9) for g6 in summaries[n].theorem_3_3_not_applicable]
    for g6 in outside:  # surfaced, and verifiably outside the hypotheses
        g = decode_graph6(g6)
        assert all_degrees_odd(g) and len(oracles.components(g.n, g.edges())) > 1
    criterion(
        5,
        counts_ok and not discrepancies and elapsed < 60.0,
        f"block theorem over all admissible graphs n<=8: 0 discrepancies "
        f"(class counts 11/34/156 oracle-checked, 12346 at n=8; "
        f"disconnected all-odd clique pairs surfaced: {outside}); "
        f"run took {elapsed:.1f}s single-threaded",
    )


def test_criterion_6_exhaustive_regular_theorem(survey):
    summaries, _ = survey
    discrepancies = [
        g6 for n in range(1, 9) for g6 in summaries[n].regular_theorem_discrepancies
    ]
    criterion(
        6,
        not discrepancies,
        "no battery-passing regular non-complete graph on n<=8 vertices is all-odd",
    )


def test_criterion_7_diameter3_characterization_survey(survey):
    summaries, _ = survey
    totals: dict[str, int] = {}
    for n in range(1, 9):
        for mode, graphs in summaries[n].theorem_3_2_discrepancies.items():
            totals[mode] = totals.get(mode, 0) + len(graphs)
    surveyed = sum(summaries[n].diameter3_surveyed for n in range(1, 9))
    print(
        f"CRITERION 7 survey: {surveyed} diameter-3 graphs with valid partitions; "
        f"discrepancy totals per predicate: {totals}"
    )
    for n in range(1, 9):  # discrepancy lists contain only battery-passing graphs
        for graphs in summaries[n].theorem_3_2_discrepancies.values():
            for g6 in graphs:
                assert run_battery(decode_graph6(g6)).overall
    zero_spec_modes = [m for m in ("standard", "even-only") if totals.get(m, 1) == 0]
    witnesses = {
        mode: [g6 for n in range(1, 9) for g6 in summaries[n].theorem_3_2_discrepancies[mode]]
        for mode in ("standard", "even-only")
    }
    criterion(
        7,
        bool(zero_spec_modes),
        (
            f"at least one Eulerian reading (standard / even-only) is discrepancy-free; "
            f"zero-discrepancy readings: {zero_spec_modes or 'none'}; "
            f"counterexamples: {witnesses}; the literal all-vertex-cycle reading has "
            f"{totals.get('hamiltonian')} discrepancies, while the linking-parity "
            f"condition has {totals.get('even-cross-degrees')} "
            f"(see README, 'Odd-degree characterization findings')"
        ),
    )


# sha256 of ``verify_section_3(n).to_json()``: the survey's bytes may
# change only on purpose.
SURVEY_SHA256 = {
    1: "b058802e77227e71787ab8a4a724a96dffdb98c167534428e43558d604bebc93",
    2: "6657e4766fdfa972cec416ba15eff808b6fc94f41556c801840e23e7076f3bf8",
    3: "440abce7bcdcbfb016537da35b1f86d1208bc4b7f558fc65349b1ff34d0c41f6",
    4: "ab6358a7f0b7ca459e5398c4847847b2d7acb9031afbf552ac23983324d7d7e6",
    5: "b46ddf07e3d37573fcad0f71f234fc339a81e4283c680d4c8cc510aaac2619e3",
    6: "e1cb8086e80786078794eeda6be8e980791590a07a1198fbf434860af0ef3a88",
    7: "e87a4ebeccf50bc18352474e2c984a171c87b3d5dca417029e4f91fb26b3076a",
    8: "3b06217f5257304ebfaaf05307be64b04697f42b7a4c1a682ed0a7cae48fb682",
}


def test_survey_json_is_byte_stable(survey):
    summaries, _ = survey
    for n, digest in SURVEY_SHA256.items():
        assert hashlib.sha256(summaries[n].to_json().encode()).hexdigest() == digest, n


def test_survey_lists_every_rho23_predicate_in_table_order(survey):
    summaries, _ = survey
    for summary in summaries.values():
        assert list(summary.theorem_3_2_discrepancies) == list(RHO23_PREDICATES)
        assert list(summary.to_dict()["theorem_3_2_discrepancies"]) == list(RHO23_PREDICATES)


def test_criterion_8_oracle_equivalence():
    rng = random.Random(20240811)
    checked = 0
    previous = None
    for n in range(1, 8):
        for g in enumeration.enumerate_nonisomorphic(n):
            edges = g.edges()
            # cut-vertex finder vs removal oracle
            assert set(cut_vertices(g)) == oracles.cut_vertices_by_removal(n, edges)
            # Pálfy check vs complement-triangle-free oracle
            assert (check_palfy(g).verdict != FAIL) == (
                not oracles.complement_has_triangle(n, edges)
            )
            # canonical-form isomorphism vs permutation search: a random
            # relabeling must match, the enumeration predecessor must not
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = Graph(n, [(perm[u], perm[v]) for u, v in edges])
            assert is_isomorphic(g, shuffled)
            assert oracles.is_isomorphic_by_permutation(n, edges, shuffled.edges())
            if previous is not None and previous.n == n:
                assert canonical_form(previous) != canonical_form(g)
                assert not is_isomorphic(previous, g)
                assert not oracles.is_isomorphic_by_permutation(
                    n, previous.edges(), edges
                )
            previous = g
            checked += 1
    criterion(
        8,
        checked == 1 + 2 + 4 + 11 + 34 + 156 + 1044,
        f"cut-vertex, Pálfy and isomorphism oracles agree on all {checked} graphs with n<=7",
    )


def test_criterion_9_graph6_round_trip():
    rng = random.Random(62)
    for _ in range(1000):
        n = rng.randint(1, 40)
        density = rng.random()
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < density
        ]
        g = Graph(n, edges)
        data = encode_graph6(g)
        assert decode_graph6(data) == g
        assert encode_graph6(decode_graph6(data)) == data
    criterion(9, True, "encode/decode identity, byte-exact, on 1000 random graphs n<=40")
