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
need not satisfy them. Partitions are read off the graph's cached
distance-layer matrices (rho3 and rho4 are the base's rows at distance
2 and 3, and the bases are the rows that reach distance 3), and each
property is tested with one adjacency-mask operation per vertex.

Theorems 2.5, 2.7 and 3.2 each have one private verdict function. A
caller's partition reaches it through one hypothesis gate, which
validates it; a partition the package builds (report and survey) skips
the gate, since it covers a diameter-3 graph by construction and its
one validity decides. The rho2/rho3 predicates read adjacency masks:
degrees inside rho2 | rho3, a breadth-first search kept inside it,
cross degrees, or, for the cycle reading, a closed form that counts the
linked vertices of each side.

Theorem checks on graphs that pass the necessary-condition battery but
are not genuine degree graphs may legitimately fail; such outcomes are
verdicts ("discrepancy"), never exceptions.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple

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


def _masks(g: Graph, *sets: frozenset[int]) -> list[int]:
    """The bitmask of each vertex set (its single bits sum to the union).
    Raises on a vertex outside 0..n-1, naming the least one, as
    ``induced_subgraph`` does; a valid set costs one shift test."""
    try:
        masks = [sum(map((1).__lshift__, vertices)) for vertices in sets]
        if not any(mask >> g.n for mask in masks):
            return masks
    except ValueError:  # a negative shift count
        pass
    v = min(v for vertices in sets for v in vertices if not 0 <= v < g.n)
    raise ValueError(f"vertex {v} out of range 0..{g.n - 1}")


def _low(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def validate_partition(g: Graph, p: LewisPartition) -> PartitionValidity:
    """Evaluate the five structural properties, each with a witness on failure.

    Each property tests one adjacency mask per vertex against the mask
    of the set it must (or must not) reach, in sorted vertex order, so
    the witness is the first offending pair (or vertex).
    """
    adj = g.adjacency_masks
    rho1, rho2, rho3, rho4 = _masks(g, p.rho1, p.rho2, p.rho3, p.rho4)
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
    The bases are the periphery: on a diameter-3 graph, the vertices
    whose row of the distance-3 layer is not empty.

    Validity does not depend on the base: when one partition validates,
    the eccentricity-3 vertices are exactly rho1 | rho4 (rho2 and rho3
    reach everything in two steps), a rho1 base gives the same four
    sets and a rho4 base the reversed ones, and the five properties are
    symmetric under that reversal.
    """
    if g.n == 0 or gr.diameter(g) != 3:
        return None
    bases = gr.periphery(g)
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


def _rho23_hamiltonian(g: Graph, p: LewisPartition) -> bool:
    """Whether rho2 | rho3 induces a graph with a cycle through all its
    vertices, read off the masks. Take A = rho2 and B = rho3 less rho2,
    both cliques, and call the edges between them links. There is such a
    cycle iff |A| + |B| >= 3 and one of these holds:

    - both sides have two vertices or more, and two links are disjoint;
    - one side is a single vertex with two links or more;
    - one side is empty, so the other is a clique of three or more.

    Two links are disjoint iff two vertices of each side are linked,
    because links that all meet one vertex link only that vertex on its
    side. So with both sides nonempty, each side needs min(2, its size)
    linked vertices. The README proves the rule. Raises, naming the
    side, when rho2 or rho3 is not a clique, and on a vertex outside the
    graph."""
    rho2, rho3 = _masks(g, p.rho2, p.rho3)
    adj = g.adjacency_masks
    for name, side in (("rho2", rho2), ("rho3", rho3)):
        if any(side & ~adj[v] & ~(1 << v) for v in _bits(side)):
            raise ValueError(f"the hamiltonian reading needs {name} to be a clique")
    rho3 &= ~rho2
    if not rho2 or not rho3:
        return (rho2 | rho3).bit_count() >= 3
    linked2 = linked3 = 0
    for v in _bits(rho2):
        links = adj[v] & rho3
        if links:
            linked2 += 1
            linked3 |= links
    size2, size3 = rho2.bit_count(), rho3.bit_count()
    return size2 + size3 >= 3 and linked2 >= min(2, size2) and linked3.bit_count() >= min(2, size3)


def _rho23_parity(g: Graph, p: LewisPartition, connected: bool) -> bool:
    """``all_degrees_even`` of the graph rho2 | rho3 induces, or
    ``is_eulerian`` when ``connected``, read off the adjacency masks:
    every vertex of rho2 | rho3 has an even number of neighbors inside
    it, and a breadth-first search kept inside rho2 | rho3 reaches all
    of it from its least vertex. Raises, as those readings do, on a
    vertex outside the graph and on an empty rho2 | rho3."""
    (members,) = _masks(g, p.rho2 | p.rho3)
    if not members:
        raise ValueError(f"{'is_eulerian' if connected else 'all_degrees_even'} is undefined for the empty graph")
    adj = g.adjacency_masks
    if any((adj[v] & members).bit_count() & 1 for v in _bits(members)):
        return False
    reached = frontier = members & -members
    while connected and frontier:
        step = 0
        for v in _bits(frontier):
            step |= adj[v]
        frontier = step & members & ~reached
        reached |= frontier
    return not connected or reached == members


def even_cross_degrees(g: Graph, p: LewisPartition) -> bool:
    """Every rho2 vertex has an even number of rho3 neighbors and vice
    versa (the linking-parity condition)."""
    rho2, rho3 = _masks(g, p.rho2, p.rho3)
    adj = g.adjacency_masks
    return all((adj[u] & rho3).bit_count() % 2 == 0 for u in p.rho2) and all(
        (adj[v] & rho2).bit_count() % 2 == 0 for v in p.rho3
    )


# Every reading of Theorem 3.2's rho2/rho3 condition, by name, in the
# order reports list them. The last is not an Eulerian reading but the
# linking parity, the only entry with no discrepancy in the exhaustive
# survey. Entries look their functions up at call time, so a wrapper
# installed on a module attribute sees every call.
RHO23_PREDICATES: Mapping[str, Callable[[Graph, LewisPartition], bool]] = MappingProxyType(
    {
        EULERIAN_STANDARD: lambda g, p: _rho23_parity(g, p, connected=True),
        EULERIAN_EVEN_ONLY: lambda g, p: _rho23_parity(g, p, connected=False),
        EULERIAN_HAMILTONIAN: lambda g, p: _rho23_hamiltonian(g, p),
        "even-cross-degrees": lambda g, p: even_cross_degrees(g, p),
    }
)


def _refuse_unknown(mode: str) -> None:
    if mode not in RHO23_PREDICATES:
        raise ValueError(f"unknown rho2/rho3 predicate {mode!r}")


def rho23_predicate(g: Graph, p: LewisPartition, mode: str) -> bool:
    _refuse_unknown(mode)
    return RHO23_PREDICATES[mode](g, p)


def _unmet_hypothesis(g: Graph, p: LewisPartition) -> str | None:
    """Why the Lewis theorems' hypotheses fail, or None when they hold:
    ``g`` has diameter 3, ``p``'s four sets partition its vertices, and
    ``p`` validates (checked last, so only a cover is validated)."""
    if g.n == 0 or gr.diameter(g) != 3:
        return "the graph's diameter is not 3"
    if sum(map(len, p[2:])) != g.n or frozenset().union(*p[2:]) != frozenset(range(g.n)):
        return "the partition's four sets do not partition the vertices"
    validity = validate_partition(g, p)
    if not validity.valid:
        return f"partition is not valid: {dict(validity.witnesses)}"
    return None


# The verdicts on a partition that meets the hypotheses: one that passed
# ``_unmet_hypothesis``, or a valid one the package built. The four sets
# are disjoint, so a union's size is the sum of the sizes.


def _theorem_2_5(g: Graph, p: LewisPartition) -> TheoremVerdict:
    cuts = sorted(gr.cut_vertices(g))
    rho2 = sorted(p.rho2)
    details = (("cut_vertices", cuts), ("rho2", rho2))
    if (len(cuts) == 1) != (len(rho2) == 1):
        return TheoremVerdict("2.5", DISCREPANCY, details)
    if len(rho2) == 1 and cuts != rho2:
        return TheoremVerdict("2.5", DISCREPANCY, details)
    return TheoremVerdict("2.5", PASS, details)


def _theorem_2_7(g: Graph, p: LewisPartition) -> TheoremVerdict:
    block = gr.is_block(g)
    sizes_ok = len(p.rho2) >= 2 and len(p.rho3) >= 2
    details = (("is_block", block), ("rho2_size", len(p.rho2)), ("rho3_size", len(p.rho3)))
    return TheoremVerdict("2.7", PASS if block == sizes_ok else DISCREPANCY, details)


def _theorem_3_2(g: Graph, p: LewisPartition, eulerian_mode: str) -> OddDegreeVerdict:
    is_all_odd = gr.all_degrees_odd(g)
    is_block = gr.is_block(g)
    rho12_even = (len(p.rho1) + len(p.rho2)) % 2 == 0
    rho34_even = (len(p.rho3) + len(p.rho4)) % 2 == 0
    eulerian = RHO23_PREDICATES[eulerian_mode](g, p)
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


def check_theorem_3_2(g: Graph, p: LewisPartition, eulerian_mode: str = EULERIAN_STANDARD) -> OddDegreeVerdict:
    """Evaluate the odd-degree characterization on a valid partition.

    all-odd  <=>  block, |rho1+rho2| even, |rho3+rho4| even, and the
    rho2/rho3 condition under the chosen ``RHO23_PREDICATES`` entry.
    Raises on an unknown predicate name, before anything else, then
    when the hypotheses are unmet (see ``_unmet_hypothesis``).
    """
    _refuse_unknown(eulerian_mode)
    unmet = _unmet_hypothesis(g, p)
    if unmet is not None:
        raise ValueError(unmet)
    return _theorem_3_2(g, p, eulerian_mode)


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


def check_theorem_2_5(g: Graph, p: LewisPartition) -> TheoremVerdict:
    """Exactly one cut vertex <=> |rho2| = 1, and then the cut vertex is
    the rho2 member. Not applicable when the hypotheses are unmet (see
    ``_unmet_hypothesis``, which validates ``p``)."""
    if _unmet_hypothesis(g, p) is not None:
        return TheoremVerdict("2.5", NOT_APPLICABLE)
    return _theorem_2_5(g, p)


def check_theorem_2_7(g: Graph, p: LewisPartition) -> TheoremVerdict:
    """Block <=> both |rho2| >= 2 and |rho3| >= 2; hypotheses as for
    ``check_theorem_2_5``."""
    if _unmet_hypothesis(g, p) is not None:
        return TheoremVerdict("2.7", NOT_APPLICABLE)
    return _theorem_2_7(g, p)


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
    An unknown predicate name is refused first. The partition is built,
    so it skips the theorems' gate: the verdicts run when it validates,
    and 2.5 and 2.7 read ``not-applicable`` (3.2 is left out) otherwise."""
    _refuse_unknown(eulerian_mode)
    found = _canonical_partition(g)
    if found is None:
        return {
            "applicable": False,
            "reason": "graph is disconnected or its diameter is not 3",
        }
    bases, p, validity = found
    valid = validity.valid
    report: dict[str, Any] = {
        "applicable": True,
        "partition": p.to_dict(),
        "validity": validity.to_dict(),
        "base_vertices": [{"r": r, "valid": valid} for r in bases],
    }
    if valid:
        report["theorems"] = {
            "2.5": _theorem_2_5(g, p).to_dict(),
            "2.7": _theorem_2_7(g, p).to_dict(),
            "3.2": _theorem_3_2(g, p, eulerian_mode).to_dict(),
        }
    else:
        report["theorems"] = {
            "2.5": TheoremVerdict("2.5", NOT_APPLICABLE).to_dict(),
            "2.7": TheoremVerdict("2.7", NOT_APPLICABLE).to_dict(),
        }
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
