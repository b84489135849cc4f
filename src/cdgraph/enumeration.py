"""Exhaustive enumeration of small graphs and brute-force theorem checks.

One representative per isomorphism class is generated by extending each
(n-1)-vertex representative with a new vertex attached in every possible
way (the new upper-triangle row runs over all bit patterns) and
rejecting candidates whose canonical form has been seen. Completeness
follows because deleting a vertex of any n-vertex graph lands on an
(n-1)-vertex class; exactness of the canonical form is cross-checked in
the tests against an independent labeled-graph oracle.

The survey over all admissible graphs checks the odd-degree theorems
exhaustively and collects every violation; nothing is dropped silently.
"""

from __future__ import annotations

import functools
import json
from typing import Any, Iterator, NamedTuple

from . import graph as gr
from . import lewis
from .canonical import canonical_form
from .checks import CheckReport, run_battery
from .formats import decode_graph6
from .graph import Graph

MAX_ENUMERATION_N = 9


@functools.cache
def _level_forms(n: int) -> tuple[bytes, ...]:
    if n == 1:
        return (b"@",)
    forms: set[bytes] = set()
    for parent_form in _level_forms(n - 1):
        masks = decode_graph6(parent_form).adjacency_masks
        bit = 1 << (n - 1)
        for neighborhood in range(1 << (n - 1)):
            child = [
                m | bit if neighborhood >> i & 1 else m for i, m in enumerate(masks)
            ]
            child.append(neighborhood)
            forms.add(canonical_form(Graph.from_masks(n, child)))
    return tuple(sorted(forms))


def clear_level_cache() -> None:
    """Forget every generated level, so the next enumeration runs cold."""
    _level_forms.cache_clear()


def enumerate_nonisomorphic(n: int) -> Iterator[Graph]:
    """Exactly one representative per isomorphism class on n vertices,
    in canonical-form order. Hard-capped at n <= 9."""
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise ValueError(f"enumeration supports 1 <= n <= {MAX_ENUMERATION_N}")
    for form in _level_forms(n):
        yield decode_graph6(form)


def enumerate_admissible(n: int) -> Iterator[tuple[Graph, CheckReport]]:
    """The battery-passing substream of ``enumerate_nonisomorphic``."""
    for g in enumerate_nonisomorphic(n):
        report = run_battery(g)
        if report.overall:
            yield g, report


class EnumerationSummary(NamedTuple):
    n: int
    total_nonisomorphic: int
    admissible: int
    all_odd_admissible: int
    non_regular_all_odd_admissible: int
    theorem_3_3_discrepancies: tuple[str, ...]
    theorem_3_3_not_applicable: tuple[str, ...]
    regular_theorem_discrepancies: tuple[str, ...]
    theorem_3_2_discrepancies: dict[str, tuple[str, ...]]
    diameter3_surveyed: int
    diameter3_no_valid_partition: tuple[str, ...]
    notes: tuple[str, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "total_nonisomorphic": self.total_nonisomorphic,
            "admissible": self.admissible,
            "all_odd_admissible": self.all_odd_admissible,
            "non_regular_all_odd_admissible": self.non_regular_all_odd_admissible,
            "theorem_3_3_discrepancies": list(self.theorem_3_3_discrepancies),
            "theorem_3_3_not_applicable": list(self.theorem_3_3_not_applicable),
            "regular_theorem_discrepancies": list(self.regular_theorem_discrepancies),
            "theorem_3_2_discrepancies": {
                mode: list(vals) for mode, vals in self.theorem_3_2_discrepancies.items()
            },
            "diameter3_surveyed": self.diameter3_surveyed,
            "diameter3_no_valid_partition": list(self.diameter3_no_valid_partition),
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def verify_section_3(n: int) -> EnumerationSummary:
    """Exhaustively test the odd-degree theorems over all admissible
    graphs on n vertices.

    Checks the block theorem (all-odd implies block, connected scope),
    the regular theorem (regular non-complete is never all-odd), and the
    diameter-3 characterization under every rho2/rho3 predicate of
    ``lewis.RHO23_PREDICATES`` on each graph's first valid partition.
    """
    total = 0
    admissible = 0
    all_odd_admissible = 0
    non_regular_all_odd = 0
    t33_discrepancies: list[str] = []
    t33_not_applicable: list[str] = []
    regular_discrepancies: list[str] = []
    t32_discrepancies: dict[str, list[str]] = {mode: [] for mode in lewis.RHO23_PREDICATES}
    surveyed = 0
    no_valid_partition: list[str] = []

    for g in enumerate_nonisomorphic(n):
        total += 1
        report = run_battery(g)
        if not report.overall:
            continue
        admissible += 1
        g6 = report.graph6
        all_odd = gr.all_degrees_odd(g)
        if all_odd:
            all_odd_admissible += 1
            if not gr.is_regular(g)[0]:
                non_regular_all_odd += 1

        t33 = lewis.check_theorem_3_3(g)
        if t33.verdict == lewis.DISCREPANCY:
            t33_discrepancies.append(g6)
        elif t33.verdict == lewis.NOT_APPLICABLE:
            t33_not_applicable.append(g6)

        if lewis.check_regular_odd(g).verdict == lewis.DISCREPANCY:
            regular_discrepancies.append(g6)

        if gr.diameter(g) == 3:
            found = lewis.first_valid_partition(g)
            if found is None:
                no_valid_partition.append(g6)
            else:
                partition, _ = found
                surveyed += 1
                # ``first_valid_partition`` has validated the partition.
                for mode in lewis.RHO23_PREDICATES:
                    verdict = lewis._theorem_3_2(g, partition, mode)
                    if not verdict.characterization_holds:
                        t32_discrepancies[mode].append(g6)

    notes: list[str] = []
    if n == 6:
        notes.append(
            f"admissible classes at n=6: {admissible}; the Bissler-Lewis classification "
            "of genuine 6-vertex character degree graphs lists 12. The checks here are "
            "necessary conditions only, so the counts are reported side by side."
        )
    if t33_not_applicable:
        notes.append(
            "all-odd disconnected admissible graphs (outside the block theorem's "
            f"connectivity hypotheses): {', '.join(t33_not_applicable)}"
        )
    zero_modes = [mode for mode, vals in t32_discrepancies.items() if not vals]
    if surveyed:
        notes.append(
            "diameter-3 characterization predicates with zero discrepancies: "
            + (", ".join(zero_modes) if zero_modes else "none")
        )

    return EnumerationSummary(
        n=n,
        total_nonisomorphic=total,
        admissible=admissible,
        all_odd_admissible=all_odd_admissible,
        non_regular_all_odd_admissible=non_regular_all_odd,
        theorem_3_3_discrepancies=tuple(t33_discrepancies),
        theorem_3_3_not_applicable=tuple(t33_not_applicable),
        regular_theorem_discrepancies=tuple(regular_discrepancies),
        theorem_3_2_discrepancies={
            mode: tuple(vals) for mode, vals in t32_discrepancies.items()
        },
        diameter3_surveyed=surveyed,
        diameter3_no_valid_partition=tuple(no_valid_partition),
        notes=tuple(notes),
    )
