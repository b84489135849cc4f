"""Exhaustive enumeration of small graphs and brute-force theorem checks.

One representative per isomorphism class is generated level by level:
each (n-1)-vertex representative is extended with a new vertex joined
to every neighbourhood an extension rule offers, and candidates whose
canonical form has been seen are rejected. A rule must be hereditary:
deleting any vertex v of a graph in its class must leave a graph in the
class, to whose every labelling the rule offers v's neighbourhood. Then
each n-vertex class is reached from the (n-1)-vertex class left by
deleting its last vertex, so the level is complete. Exactness
of the canonical form is cross-checked in the tests against an
independent labeled-graph oracle and the published class counts. Two
rules are used:

- the full rule offers every subset of the parent's vertices and
  generates every graph (OEIS A000088);
- the independence-number rule offers the complement of each clique of
  the parent, the empty clique included, and generates exactly the
  graphs with no independent triple (OEIS A006785, by complement): a
  new vertex adds an independent triple iff two of its non-neighbours
  are non-adjacent.

Pálfy's condition (every three vertices span an edge) is that second
property. It is necessary for admissibility, so the admissible survey
only ever runs the battery on those classes. At n <= 8 they are read
off the full level, filtered with ``check_palfy``: the survey builds the
full level anyway for its class total, and generating the second rule's
levels as well would only add canonical-form calls. At n = 9 the full
level would cost 3,160,576 more calls and at n = 10 it is out of reach
(12,005,168 classes), so the second rule generates the 1,897 and 12,172
classes directly.

The survey over all admissible graphs checks the odd-degree theorems
exhaustively and collects every violation; nothing is dropped silently.
"""

from __future__ import annotations

import functools
import json
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from . import graph as gr
from . import lewis
from .canonical import canonical_form
from .checks import FAIL, CheckReport, check_palfy, run_battery
from .formats import decode_graph6
from .graph import Graph

# Every class is generated up to this n; admissible classes up to the next.
MAX_ENUMERATION_N = 9
MAX_ADMISSIBLE_N = 10
# Up to this n the admissible stream filters the full level.
_FILTERED_MAX_N = 8

ExtensionRule = Callable[[tuple[int, ...]], Iterable[int]]


def _all_neighborhoods(masks: tuple[int, ...]) -> range:
    """The full rule: every neighbourhood, as a bit pattern."""
    return range(1 << len(masks))


def _clique_complements(masks: tuple[int, ...]) -> Iterator[int]:
    """The independence-number rule: the complement of every clique,
    cliques listed by growing them one larger vertex at a time."""
    full = (1 << len(masks)) - 1
    # (clique, the vertices above its largest member adjacent to all of it)
    stack = [(0, full)]
    while stack:
        clique, extenders = stack.pop()
        yield full ^ clique
        while extenders:
            low = extenders & -extenders
            extenders ^= low
            stack.append((clique | low, extenders & masks[low.bit_length() - 1]))


@functools.cache
def _level_forms(n: int, rule: ExtensionRule) -> tuple[bytes, ...]:
    if n < 1:
        raise ValueError("levels start at n = 1")
    if n == 1:
        return (b"@",)
    forms: set[bytes] = set()
    bit = 1 << (n - 1)
    for parent_form in _level_forms(n - 1, rule):
        masks = decode_graph6(parent_form).adjacency_masks
        for neighborhood in rule(masks):
            child = [
                m | bit if neighborhood >> i & 1 else m for i, m in enumerate(masks)
            ]
            child.append(neighborhood)
            forms.add(canonical_form(Graph.from_masks(n, child)))
    return tuple(sorted(forms))


def enumerate_nonisomorphic(n: int) -> Iterator[Graph]:
    """Exactly one representative per isomorphism class on n vertices,
    in canonical-form order. Hard-capped at n <= 9."""
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise ValueError(f"enumeration supports 1 <= n <= {MAX_ENUMERATION_N}")
    for form in _level_forms(n, _all_neighborhoods):
        yield decode_graph6(form)


def enumerate_admissible(n: int) -> Iterator[tuple[Graph, CheckReport]]:
    """The battery-passing classes on n vertices with their reports, in
    canonical-form order, for 1 <= n <= 10.

    The battery runs only on classes that pass Pálfy's condition, which
    it would fail otherwise: at n <= 8 those of the full level, at n = 9
    and 10 the independence-number rule's level.
    """
    if not 1 <= n <= MAX_ADMISSIBLE_N:
        raise ValueError(f"the admissible survey supports 1 <= n <= {MAX_ADMISSIBLE_N}")
    if n <= _FILTERED_MAX_N:
        classes = (g for g in enumerate_nonisomorphic(n) if check_palfy(g).verdict != FAIL)
    else:
        classes = map(decode_graph6, _level_forms(n, _clique_complements))
    for g in classes:
        report = run_battery(g)
        if report.overall:
            yield g, report


class EnumerationSummary(NamedTuple):
    n: int
    total_nonisomorphic: int | None
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
        return self._asdict()

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def verify_section_3(n: int) -> EnumerationSummary:
    """Exhaustively test the odd-degree theorems over all admissible
    graphs on n vertices, 1 <= n <= 10.

    Checks the block theorem (all-odd implies block, connected scope),
    the regular theorem (regular non-complete is never all-odd), and the
    diameter-3 characterization under every rho2/rho3 predicate of
    ``lewis.RHO23_PREDICATES`` on each graph's first valid partition.
    At n = 9 and 10 the full level is not generated: the class total is
    ``None``, and a note gives the number of classes with no independent
    triple, which the battery was run on.
    """
    admissible = 0
    all_odd_admissible = 0
    non_regular_all_odd = 0
    surveyed = 0
    t33: dict[str, list[str]] = {lewis.DISCREPANCY: [], lewis.NOT_APPLICABLE: []}
    regular_discrepancies: list[str] = []
    t32_discrepancies: dict[str, list[str]] = {mode: [] for mode in lewis.RHO23_PREDICATES}
    no_valid_partition: list[str] = []

    for g, report in enumerate_admissible(n):
        admissible += 1
        g6 = report.graph6
        if gr.all_degrees_odd(g):
            all_odd_admissible += 1
            if not gr.is_regular(g)[0]:
                non_regular_all_odd += 1
        t33_verdict = lewis.check_theorem_3_3(g).verdict
        if t33_verdict in t33:
            t33[t33_verdict].append(g6)
        if lewis.check_regular_odd(g).verdict == lewis.DISCREPANCY:
            regular_discrepancies.append(g6)
        if gr.diameter(g) != 3:
            continue
        failed = lewis._failed_characterizations(g)
        if failed is None:
            no_valid_partition.append(g6)
            continue
        surveyed += 1
        for mode in failed:
            t32_discrepancies[mode].append(g6)

    notes: list[str] = []
    total: int | None = None
    if n <= _FILTERED_MAX_N:
        total = len(_level_forms(n, _all_neighborhoods))
    else:
        notes.append(
            f"classes with no independent triple at n={n}: "
            f"{len(_level_forms(n, _clique_complements))}; every admissible graph is one "
            "(Palfy's condition), so only these were generated and the class total is not given"
        )
    if n == 6:
        notes.append(
            f"admissible classes at n=6: {admissible}; the Bissler-Lewis classification "
            "of genuine 6-vertex character degree graphs lists 12. The checks here are "
            "necessary conditions only, so the counts are reported side by side."
        )
    if t33[lewis.NOT_APPLICABLE]:
        notes.append(
            "all-odd disconnected admissible graphs (outside the block theorem's "
            f"connectivity hypotheses): {', '.join(t33[lewis.NOT_APPLICABLE])}"
        )
    if surveyed:
        zero_modes = [mode for mode, vals in t32_discrepancies.items() if not vals]
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
        theorem_3_3_discrepancies=tuple(t33[lewis.DISCREPANCY]),
        theorem_3_3_not_applicable=tuple(t33[lewis.NOT_APPLICABLE]),
        regular_theorem_discrepancies=tuple(regular_discrepancies),
        theorem_3_2_discrepancies={mode: tuple(vals) for mode, vals in t32_discrepancies.items()},
        diameter3_surveyed=surveyed,
        diameter3_no_valid_partition=tuple(no_valid_partition),
        notes=tuple(notes),
    )
