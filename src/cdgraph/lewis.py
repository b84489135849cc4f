"""Lewis diameter-3 partition and the odd-degree theorems.

For a connected diameter-3 graph and a base vertex r of eccentricity 3,
the vertex set splits by distance from r into:

  rho4: vertices at distance 3,
  rho3: vertices at distance 2,
  rho2: neighbors of r adjacent to some rho3 vertex,
  rho1: r plus its neighbors with no rho3 neighbor.

On a genuine solvable-group degree graph, rho1+rho2 and rho3+rho4
induce complete subgraphs, rho1 has no edge into rho3+rho4, rho4 none
into rho1+rho2, and rho2/rho3 are mutually linked. ``validate_partition``
re-checks all five properties with witnesses, since arbitrary inputs
need not satisfy them. Partitions are read off the graph's cached BFS
layer masks (rho3 and rho4 are the layers at distance 2 and 3), and
each property is tested with one adjacency-mask operation per vertex.

Theorem checks on graphs that pass the necessary-condition battery but
are not genuine degree graphs may legitimately fail; such outcomes are
verdicts ("discrepancy"), never exceptions.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from . import graph as gr
from .checks import NOT_APPLICABLE, PASS
from .graph import Graph, _bits

EULERIAN_STANDARD = "standard"
EULERIAN_EVEN_ONLY = "even-only"
# Literal reading of "contains a cycle containing all vertices".
EULERIAN_HAMILTONIAN = "hamiltonian"

VACUOUS_PASS = "vacuous-pass"
DISCREPANCY = "discrepancy"


class LewisPartition(NamedTuple):
    r: int
    s: int
    rho1: frozenset[int]
    rho2: frozenset[int]
    rho3: frozenset[int]
    rho4: frozenset[int]

    def to_dict(self) -> dict[str, Any]:
        return {
            "r": self.r,
            "s": self.s,
            "rho1": sorted(self.rho1),
            "rho2": sorted(self.rho2),
            "rho3": sorted(self.rho3),
            "rho4": sorted(self.rho4),
        }


class PartitionValidity(NamedTuple):
    rho12_complete: bool
    rho34_complete: bool
    no_rho1_to_rho34_edges: bool
    no_rho4_to_rho12_edges: bool
    rho2_rho3_mutual_adjacency: bool
    witnesses: tuple[tuple[str, Any], ...]

    @property
    def valid(self) -> bool:
        return (
            self.rho12_complete
            and self.rho34_complete
            and self.no_rho1_to_rho34_edges
            and self.no_rho4_to_rho12_edges
            and self.rho2_rho3_mutual_adjacency
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "rho12_complete": self.rho12_complete,
            "rho34_complete": self.rho34_complete,
            "no_rho1_to_rho34_edges": self.no_rho1_to_rho34_edges,
            "no_rho4_to_rho12_edges": self.no_rho4_to_rho12_edges,
            "rho2_rho3_mutual_adjacency": self.rho2_rho3_mutual_adjacency,
            "valid": self.valid,
            "witnesses": {flag: witness for flag, witness in self.witnesses},
        }


class OddDegreeVerdict(NamedTuple):
    is_all_odd: bool
    is_block: bool
    rho12_even: bool
    rho34_even: bool
    rho23_eulerian: bool
    eulerian_mode: str
    characterization_holds: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "is_all_odd": self.is_all_odd,
            "is_block": self.is_block,
            "rho12_size_even": self.rho12_even,
            "rho34_size_even": self.rho34_even,
            "rho23_eulerian": self.rho23_eulerian,
            "eulerian_mode": self.eulerian_mode,
            "characterization_holds": self.characterization_holds,
        }


class TheoremVerdict(NamedTuple):
    theorem: str
    verdict: str
    details: tuple[tuple[str, Any], ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "theorem": self.theorem,
            "verdict": self.verdict,
            "details": {key: value for key, value in self.details},
        }


def lewis_partition(g: Graph, r: int) -> LewisPartition | None:
    """Distance partition from base vertex r, or None when inapplicable
    (graph disconnected or eccentricity of r differs from 3). An r
    outside 0..n-1 is refused by ``eccentricity``."""
    if gr.eccentricity(g, r) != 3:  # inf when some vertex is unreachable
        return None
    _, neighbors, rho3, rho4 = gr._layers(g, r)
    adj = g.adjacency_masks
    rho2 = sum(1 << v for v in _bits(neighbors) if adj[v] & rho3)
    rho1 = (neighbors ^ rho2) | 1 << r
    return LewisPartition(r, _low(rho4), *(frozenset(_bits(m)) for m in (rho1, rho2, rho3, rho4)))


def _mask(vertices: Iterable[int]) -> int:
    """Bitmask of distinct vertices (their single bits sum to the union)."""
    return sum(map((1).__lshift__, vertices))


def _low(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def validate_partition(g: Graph, p: LewisPartition) -> PartitionValidity:
    """Evaluate the five structural properties, each with a witness on failure.

    Each property tests one adjacency mask per vertex against the mask
    of the set it must (or must not) reach, in sorted vertex order, so
    the witness is the first offending pair (or vertex).
    """
    adj = g.adjacency_masks
    rho1, rho2, rho3, rho4 = _mask(p.rho1), _mask(p.rho2), _mask(p.rho3), _mask(p.rho4)
    witnesses: list[tuple[str, Any]] = []

    def complete_within(vertices: frozenset[int], members: int, flag: str) -> bool:
        for u in sorted(vertices):
            missing = members & ~adj[u] & ~((2 << u) - 1)  # non-neighbors above u
            if missing:
                witnesses.append((flag, [u, _low(missing)]))
                return False
        return True

    def no_edges_between(a: frozenset[int], targets: int, flag: str) -> bool:
        for u in sorted(a):
            hit = adj[u] & targets
            if hit:
                witnesses.append((flag, [u, _low(hit)]))
                return False
        return True

    def each_linked(a: frozenset[int], targets: int) -> bool:
        for u in sorted(a):
            if not adj[u] & targets:
                witnesses.append(("rho2_rho3_mutual_adjacency", u))
                return False
        return True

    return PartitionValidity(
        rho12_complete=complete_within(p.rho1 | p.rho2, rho1 | rho2, "rho12_complete"),
        rho34_complete=complete_within(p.rho3 | p.rho4, rho3 | rho4, "rho34_complete"),
        no_rho1_to_rho34_edges=no_edges_between(p.rho1, rho3 | rho4, "no_rho1_to_rho34_edges"),
        no_rho4_to_rho12_edges=no_edges_between(p.rho4, rho1 | rho2, "no_rho4_to_rho12_edges"),
        rho2_rho3_mutual_adjacency=each_linked(p.rho2, rho3) and each_linked(p.rho3, rho2),
        witnesses=tuple(witnesses),
    )


def enumerate_lewis_partitions(g: Graph) -> list[tuple[int, LewisPartition, PartitionValidity]]:
    """One validated partition per eccentricity-3 base vertex.

    Empty when the graph's diameter is not 3 (inf when disconnected).
    The per-base reference: the package itself builds one partition per
    graph, since every base validates or none does (see
    ``partition_report``), and the tests compare against this.
    """
    if g.n == 0 or gr.diameter(g) != 3:
        return []
    out = []
    for r in range(g.n):
        p = lewis_partition(g, r)
        if p is not None:
            out.append((r, p, validate_partition(g, p)))
    return out


def _canonical_partition(
    g: Graph,
) -> tuple[list[int], LewisPartition, PartitionValidity] | None:
    """The eccentricity-3 base vertices, and the partition from the
    smallest of them with its validity; None when the diameter is not 3.

    Validity does not depend on the base: when one partition validates,
    the eccentricity-3 vertices are exactly rho1 | rho4 (rho2 and rho3
    reach everything in two steps), a rho1 base gives the same four
    sets and a rho4 base the reversed ones, and the five properties are
    symmetric under that reversal.
    """
    if g.n == 0 or gr.diameter(g) != 3:
        return None
    bases = [v for v in range(g.n) if gr.eccentricity(g, v) == 3]
    p = lewis_partition(g, bases[0])
    return bases, p, validate_partition(g, p)


def first_valid_partition(g: Graph) -> tuple[LewisPartition, PartitionValidity] | None:
    """Partition for the smallest base vertex whose partition validates.

    That is the smallest eccentricity-3 base when its partition
    validates, and no base otherwise, since validity does not depend
    on the base.
    """
    found = _canonical_partition(g)
    if found is None:
        return None
    _, p, validity = found
    return (p, validity) if validity.valid else None


def _has_hamiltonian_cycle(g: Graph) -> bool:
    n = g.n
    if n < 3:
        return False
    adj = g.adjacency_masks
    full = (1 << n) - 1
    target = adj[0]

    def extend(v: int, visited: int) -> bool:
        if visited == full:
            return bool(target >> v & 1)
        for w in _bits(adj[v] & ~visited):
            if extend(w, visited | 1 << w):
                return True
        return False

    return extend(0, 1)


def rho23_subgraph(g: Graph, p: LewisPartition) -> Graph:
    sub, _ = gr.induced_subgraph(g, p.rho2 | p.rho3)
    return sub


def even_cross_degrees(g: Graph, p: LewisPartition) -> bool:
    """Every rho2 vertex has an even number of rho3 neighbors and vice
    versa (the linking-parity condition)."""
    adj = g.adjacency_masks
    rho2, rho3 = _mask(p.rho2), _mask(p.rho3)
    return all((adj[u] & rho3).bit_count() % 2 == 0 for u in p.rho2) and all(
        (adj[v] & rho2).bit_count() % 2 == 0 for v in p.rho3
    )


# Every reading of Theorem 3.2's rho2/rho3 condition, by name, in the
# order reports list them. The last is not an Eulerian reading but the
# linking parity, the only entry with no discrepancy in the exhaustive
# survey. Entries look their functions up at call time, so a
# wrapper installed on a module attribute sees every call.
RHO23_PREDICATES: Mapping[str, Callable[[Graph, LewisPartition], bool]] = MappingProxyType(
    {
        EULERIAN_STANDARD: lambda g, p: gr.is_eulerian(rho23_subgraph(g, p)),
        EULERIAN_EVEN_ONLY: lambda g, p: gr.all_degrees_even(rho23_subgraph(g, p)),
        EULERIAN_HAMILTONIAN: lambda g, p: _has_hamiltonian_cycle(rho23_subgraph(g, p)),
        "even-cross-degrees": lambda g, p: even_cross_degrees(g, p),
    }
)


def rho23_predicate(g: Graph, p: LewisPartition, mode: str) -> bool:
    if mode not in RHO23_PREDICATES:
        raise ValueError(f"unknown rho2/rho3 predicate {mode!r}")
    return RHO23_PREDICATES[mode](g, p)


def check_theorem_3_2(g: Graph, p: LewisPartition, eulerian_mode: str = EULERIAN_STANDARD) -> OddDegreeVerdict:
    """Evaluate the odd-degree characterization on a valid partition.

    all-odd  <=>  block, |rho1+rho2| even, |rho3+rho4| even, and the
    rho2/rho3 condition under the chosen ``RHO23_PREDICATES`` entry.
    Raises when the partition fails validation (the theorem's hypotheses
    are unmet) or the predicate name is unknown.
    """
    validity = validate_partition(g, p)
    if not validity.valid:
        raise ValueError(f"partition is not valid: {dict(validity.witnesses)}")
    return _theorem_3_2(g, p, eulerian_mode)


def _theorem_3_2(g: Graph, p: LewisPartition, eulerian_mode: str) -> OddDegreeVerdict:
    is_all_odd = gr.all_degrees_odd(g)
    is_block = gr.is_block(g)
    rho12_even = len(p.rho1 | p.rho2) % 2 == 0
    rho34_even = len(p.rho3 | p.rho4) % 2 == 0
    eulerian = rho23_predicate(g, p, eulerian_mode)
    conditions = is_block and rho12_even and rho34_even and eulerian
    return OddDegreeVerdict(
        is_all_odd=is_all_odd,
        is_block=is_block,
        rho12_even=rho12_even,
        rho34_even=rho34_even,
        rho23_eulerian=eulerian,
        eulerian_mode=eulerian_mode,
        characterization_holds=is_all_odd == conditions,
    )


def check_theorem_3_3(g: Graph) -> TheoremVerdict:
    """All-odd implies block, for connected graphs.

    The theorem's case analysis runs over the diameter (at most 2, or
    exactly 3), so it presumes a connected graph; disconnected all-odd
    inputs fall outside its hypotheses and yield "not-applicable".
    """
    if not gr.all_degrees_odd(g):
        return TheoremVerdict("3.3", VACUOUS_PASS)
    if not gr.is_connected(g):
        return TheoremVerdict(
            "3.3",
            NOT_APPLICABLE,
            (("reason", "disconnected graph: the diameter case analysis presumes connectivity"),),
        )
    if gr.is_block(g):
        return TheoremVerdict("3.3", PASS)
    return TheoremVerdict(
        "3.3",
        DISCREPANCY,
        (("cut_vertices", sorted(gr.cut_vertices(g))),),
    )


def _on_hypotheses(g: Graph, p: LewisPartition) -> bool:
    """Diameter 3 (so connected) and ``p`` validates: what 2.5 and 2.7 assume."""
    return gr.diameter(g) == 3 and validate_partition(g, p).valid


def check_theorem_2_5(g: Graph, p: LewisPartition) -> TheoremVerdict:
    """Exactly one cut vertex <=> |rho2| = 1, and then the cut vertex is
    the rho2 member. Not applicable off the diameter-3 valid-partition
    hypotheses."""
    return _theorem_2_5(g, p, _on_hypotheses(g, p))


def _theorem_2_5(g: Graph, p: LewisPartition, applicable: bool) -> TheoremVerdict:
    if not applicable:
        return TheoremVerdict("2.5", NOT_APPLICABLE)
    cuts = sorted(gr.cut_vertices(g))
    rho2 = sorted(p.rho2)
    details = (("cut_vertices", cuts), ("rho2", rho2))
    if (len(cuts) == 1) != (len(rho2) == 1):
        return TheoremVerdict("2.5", DISCREPANCY, details)
    if len(rho2) == 1 and cuts != rho2:
        return TheoremVerdict("2.5", DISCREPANCY, details)
    return TheoremVerdict("2.5", PASS, details)


def check_theorem_2_7(g: Graph, p: LewisPartition) -> TheoremVerdict:
    """Block <=> both |rho2| >= 2 and |rho3| >= 2."""
    return _theorem_2_7(g, p, _on_hypotheses(g, p))


def _theorem_2_7(g: Graph, p: LewisPartition, applicable: bool) -> TheoremVerdict:
    if not applicable:
        return TheoremVerdict("2.7", NOT_APPLICABLE)
    block = gr.is_block(g)
    sizes_ok = len(p.rho2) >= 2 and len(p.rho3) >= 2
    details = (("is_block", block), ("rho2_size", len(p.rho2)), ("rho3_size", len(p.rho3)))
    return TheoremVerdict("2.7", PASS if block == sizes_ok else DISCREPANCY, details)


def check_regular_odd(g: Graph) -> TheoremVerdict:
    """A non-complete regular admissible graph is never all-odd."""
    regular, _ = gr.is_regular(g)
    if not regular or gr.is_complete(g):
        return TheoremVerdict("3.2-regular", NOT_APPLICABLE)
    if not gr.all_degrees_odd(g):
        return TheoremVerdict("3.2-regular", PASS)
    return TheoremVerdict(
        "3.2-regular",
        DISCREPANCY,
        (("degree_multiset", list(gr.degree_multiset(g))),),
    )


def partition_report(g: Graph, eulerian_mode: str = EULERIAN_STANDARD) -> dict[str, Any]:
    """JSON-ready report for the canonical (smallest eccentricity-3 r)
    partition, plus validity of every base-vertex choice.

    One partition is built and validated. Every eccentricity-3 base
    carries its validity, because when one base's partition validates
    all do (``enumerate_lewis_partitions`` is the per-base reference).
    The theorem verdicts reuse that validity."""
    found = _canonical_partition(g)
    if found is None:
        return {
            "applicable": False,
            "reason": "graph is disconnected or its diameter is not 3",
        }
    bases, p, validity = found
    report: dict[str, Any] = {
        "applicable": True,
        "partition": p.to_dict(),
        "validity": validity.to_dict(),
        "base_vertices": [{"r": r, "valid": validity.valid} for r in bases],
    }
    theorems: dict[str, Any] = {
        "2.5": _theorem_2_5(g, p, validity.valid).to_dict(),
        "2.7": _theorem_2_7(g, p, validity.valid).to_dict(),
    }
    if validity.valid:
        theorems["3.2"] = _theorem_3_2(g, p, eulerian_mode).to_dict()
    report["theorems"] = theorems
    report["theorem_3_3"] = check_theorem_3_3(g).to_dict()
    return report


def render_partition_text(report: dict[str, Any]) -> str:
    if not report.get("applicable", False):
        return f"lewis partition: not applicable ({report.get('reason', '')})"
    lines = []
    p = report["partition"]
    lines.append(f"lewis partition (r={p['r']}, s={p['s']}):")
    for key in ("rho1", "rho2", "rho3", "rho4"):
        lines.append(f"  {key}: {p[key]}")
    validity = report["validity"]
    lines.append(f"  valid: {validity['valid']}")
    for flag, witness in validity["witnesses"].items():
        lines.append(f"    violated {flag}: witness {witness}")
    for name, verdict in report["theorems"].items():
        if name == "3.2":
            lines.append(
                f"  theorem 3.2 ({verdict['eulerian_mode']}): "
                f"characterization_holds={verdict['characterization_holds']}"
            )
        else:
            lines.append(f"  theorem {name}: {verdict['verdict']}")
    lines.append(f"  theorem 3.3: {report['theorem_3_3']['verdict']}")
    return "\n".join(lines)
