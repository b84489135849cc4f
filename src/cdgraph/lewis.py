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
checks all five properties with witnesses on a partition a caller hands
in, since arbitrary inputs need not satisfy them. Each property is
tested with one adjacency-mask operation per vertex.

The package builds its own partition once per graph, as four vertex
masks read off the graph's cached distance-layer matrices, and tests
only its two cliques, since the BFS layers force the three cross
properties. ``partition_report``, ``first_valid_partition`` and the
survey read those masks; only public results hold vertex sets.

Theorems 2.5, 2.7 and 3.2 each have one private verdict function on
masks. A caller's partition reaches it through one hypothesis gate,
which validates it, and is converted to masks after the gate; a
partition the package builds skips the gate, since it covers a
diameter-3 graph by construction and its one validity decides. The
rho2/rho3 predicates read the masks of rho2 and rho3: degrees inside
rho2 | rho3, a breadth-first search kept inside it, cross degrees, or,
for the cycle reading, a closed form that counts the linked vertices
of each side.

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


# The four sets of a partition as vertex masks, rho1 to rho4.
_Rho = tuple[int, int, int, int]


def lewis_partition(g: Graph, r: int) -> LewisPartition | None:
    """Distance partition from base vertex r, or None when inapplicable
    (graph disconnected or eccentricity of r differs from 3). An r
    outside 0..n-1 is refused by ``eccentricity``."""
    if gr.eccentricity(g, r) != 3:  # inf when some vertex is unreachable
        return None
    return _partition(r, _rho(g, r))


def _rho(g: Graph, r: int) -> _Rho:
    """The masks of the partition from a base r of eccentricity 3
    (unchecked): rho3 and rho4 are r's rows at distance 2 and 3, and
    rho2 is the neighbours of r that are neighbours of rho3."""
    _, neighbors, rho3, rho4 = gr._layers(g, r)
    adj = g.adjacency_masks
    reached = 0
    for v in _bits(rho3):
        reached |= adj[v]
    rho2 = neighbors & reached
    return (neighbors ^ rho2) | 1 << r, rho2, rho3, rho4


def _partition(r: int, rho: _Rho) -> LewisPartition:
    return LewisPartition(r, _low(rho[3]), *(frozenset(_bits(m)) for m in rho))


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


def _missing_edge(adj: tuple[int, ...], members: int) -> list[int] | None:
    """The first non-edge inside ``members``: the least u with a
    non-neighbour above it there, and the least such; None when
    ``members`` is a clique."""
    rest = members
    while rest:
        low = rest & -rest
        rest ^= low  # the members above u
        missing = rest & ~adj[low.bit_length() - 1]
        if missing:
            return [low.bit_length() - 1, _low(missing)]
    return None


def _validity(*found: Any) -> PartitionValidity:
    """The flags and witnesses from the first violation of each of the
    five properties, in field order (None where it holds)."""
    return PartitionValidity(
        *(witness is None for witness in found),
        witnesses=tuple((flag, w) for flag, w in zip(PartitionValidity._fields, found) if w is not None),
    )


def validate_partition(g: Graph, p: LewisPartition) -> PartitionValidity:
    """Evaluate the five structural properties, each with a witness on failure.

    Each property tests one adjacency mask per vertex against the mask
    of the set it must (or must not) reach, in ascending vertex order,
    so the witness is the first offending pair (or vertex).
    """
    adj = g.adjacency_masks
    rho1, rho2, rho3, rho4 = _masks(g, p.rho1, p.rho2, p.rho3, p.rho4)

    def first_edge(a: int, targets: int) -> list[int] | None:
        for u in _bits(a):
            hit = adj[u] & targets
            if hit:
                return [u, _low(hit)]
        return None

    def unlinked(a: int, targets: int) -> int | None:
        return next((u for u in _bits(a) if not adj[u] & targets), None)

    mutual = unlinked(rho2, rho3)
    return _validity(
        _missing_edge(adj, rho1 | rho2),
        _missing_edge(adj, rho3 | rho4),
        first_edge(rho1, rho3 | rho4),
        first_edge(rho4, rho1 | rho2),
        unlinked(rho3, rho2) if mutual is None else mutual,
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


def _build_partition(g: Graph) -> tuple[list[int], _Rho, PartitionValidity] | None:
    """The eccentricity-3 base vertices, and the masks of the partition
    from the smallest of them with its validity; None when the diameter
    is not 3. The bases are the periphery. The BFS layers give such a
    partition the three cross properties (the README proves it), so
    only the two cliques are tested.

    Validity does not depend on the base: when one partition validates,
    the eccentricity-3 vertices are exactly rho1 | rho4 (rho2 and rho3
    reach everything in two steps), a rho1 base gives the same four
    sets and a rho4 base the reversed ones, and the five properties are
    symmetric under that reversal.
    """
    if g.n == 0 or gr.diameter(g) != 3:
        return None
    bases = gr.periphery(g)
    rho = rho1, rho2, rho3, rho4 = _rho(g, bases[0])
    adj = g.adjacency_masks
    cliques = _missing_edge(adj, rho1 | rho2), _missing_edge(adj, rho3 | rho4)
    return bases, rho, _validity(*cliques, None, None, None)


def first_valid_partition(g: Graph) -> tuple[LewisPartition, PartitionValidity] | None:
    """Partition for the smallest base vertex whose partition validates.

    That is the smallest eccentricity-3 base when its partition
    validates, and no base otherwise, since validity does not depend
    on the base.
    """
    built = _build_partition(g)
    if built is None or not built[2].valid:
        return None
    bases, rho, validity = built
    return _partition(bases[0], rho), validity


def _rho23_hamiltonian(g: Graph, rho2: int, rho3: int) -> bool:
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
    side, when rho2 or rho3 is not a clique."""
    adj = g.adjacency_masks
    for name, side in (("rho2", rho2), ("rho3", rho3)):
        if _missing_edge(adj, side) is not None:
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


def _rho23_parity(g: Graph, rho2: int, rho3: int, connected: bool) -> bool:
    """``all_degrees_even`` of the graph rho2 | rho3 induces, or
    ``is_eulerian`` when ``connected``, read off the adjacency masks:
    every vertex of rho2 | rho3 has an even number of neighbors inside
    it, and a breadth-first search kept inside rho2 | rho3 reaches all
    of it from its least vertex. Raises, as those readings do, on an
    empty rho2 | rho3."""
    members = rho2 | rho3
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


def _linking_parity(g: Graph, rho2: int, rho3: int) -> bool:
    adj = g.adjacency_masks
    return all((adj[u] & rho3).bit_count() % 2 == 0 for u in _bits(rho2)) and all(
        (adj[v] & rho2).bit_count() % 2 == 0 for v in _bits(rho3)
    )


def even_cross_degrees(g: Graph, p: LewisPartition) -> bool:
    """Every rho2 vertex has an even number of rho3 neighbors and vice
    versa (the linking-parity condition)."""
    return _linking_parity(g, *_masks(g, p.rho2, p.rho3))


# Every reading of Theorem 3.2's rho2/rho3 condition, by name, in the
# order reports list them, each on the graph and the masks of rho2 and
# rho3. The last is not an Eulerian reading but the linking parity, the
# only entry with no discrepancy in the exhaustive survey.
RHO23_PREDICATES: Mapping[str, Callable[[Graph, int, int], bool]] = MappingProxyType(
    {
        EULERIAN_STANDARD: lambda g, rho2, rho3: _rho23_parity(g, rho2, rho3, connected=True),
        EULERIAN_EVEN_ONLY: lambda g, rho2, rho3: _rho23_parity(g, rho2, rho3, connected=False),
        EULERIAN_HAMILTONIAN: _rho23_hamiltonian,
        "even-cross-degrees": _linking_parity,
    }
)


def _refuse_unknown(mode: str) -> None:
    if mode not in RHO23_PREDICATES:
        raise ValueError(f"unknown rho2/rho3 predicate {mode!r}")


def rho23_predicate(g: Graph, p: LewisPartition, mode: str) -> bool:
    """The ``RHO23_PREDICATES`` entry ``mode`` on p's rho2 and rho3.
    Raises on an unknown name, then on a vertex outside the graph."""
    _refuse_unknown(mode)
    return RHO23_PREDICATES[mode](g, *_masks(g, p.rho2, p.rho3))


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


# The verdicts on the masks of a partition that meets the hypotheses:
# one that passed ``_unmet_hypothesis``, or a valid one the package
# built. The four sets are disjoint.


def _theorem_2_5(g: Graph, rho: _Rho) -> TheoremVerdict:
    cuts = sorted(gr.cut_vertices(g))
    rho2 = list(_bits(rho[1]))
    details = (("cut_vertices", cuts), ("rho2", rho2))
    if (len(cuts) == 1) != (len(rho2) == 1):
        return TheoremVerdict("2.5", DISCREPANCY, details)
    if len(rho2) == 1 and cuts != rho2:
        return TheoremVerdict("2.5", DISCREPANCY, details)
    return TheoremVerdict("2.5", PASS, details)


def _theorem_2_7(g: Graph, rho: _Rho) -> TheoremVerdict:
    block = gr.is_block(g)
    size2, size3 = rho[1].bit_count(), rho[2].bit_count()
    sizes_ok = size2 >= 2 and size3 >= 2
    details = (("is_block", block), ("rho2_size", size2), ("rho3_size", size3))
    return TheoremVerdict("2.7", PASS if block == sizes_ok else DISCREPANCY, details)


def _theorem_3_2(g: Graph, rho: _Rho, eulerian_mode: str) -> OddDegreeVerdict:
    rho1, rho2, rho3, rho4 = rho
    is_all_odd = gr.all_degrees_odd(g)
    is_block = gr.is_block(g)
    rho12_even = (rho1 | rho2).bit_count() % 2 == 0
    rho34_even = (rho3 | rho4).bit_count() % 2 == 0
    eulerian = RHO23_PREDICATES[eulerian_mode](g, rho2, rho3)
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


def _failed_characterizations(g: Graph) -> list[str] | None:
    """The ``RHO23_PREDICATES`` names, in table order, under which
    Theorem 3.2's characterization fails on the partition the package
    builds for ``g``; None when that partition does not validate or
    the diameter is not 3. The survey's one partition per graph."""
    built = _build_partition(g)
    if built is None or not built[2].valid:
        return None
    return [mode for mode in RHO23_PREDICATES if not _theorem_3_2(g, built[1], mode).characterization_holds]


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
    return _theorem_3_2(g, _masks(g, *p[2:]), eulerian_mode)


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
    return _theorem_2_5(g, _masks(g, *p[2:]))


def check_theorem_2_7(g: Graph, p: LewisPartition) -> TheoremVerdict:
    """Block <=> both |rho2| >= 2 and |rho3| >= 2; hypotheses as for
    ``check_theorem_2_5``."""
    if _unmet_hypothesis(g, p) is not None:
        return TheoremVerdict("2.7", NOT_APPLICABLE)
    return _theorem_2_7(g, _masks(g, *p[2:]))


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
    built = _build_partition(g)
    if built is None:
        return {
            "applicable": False,
            "reason": "graph is disconnected or its diameter is not 3",
        }
    bases, rho, validity = built
    valid = validity.valid
    partition = {"r": bases[0], "s": _low(rho[3])}
    for name, members in zip(("rho1", "rho2", "rho3", "rho4"), rho):
        partition[name] = list(_bits(members))
    report: dict[str, Any] = {
        "applicable": True,
        "partition": partition,
        "validity": validity.to_dict(),
        "base_vertices": [{"r": r, "valid": valid} for r in bases],
    }
    if valid:
        report["theorems"] = {
            "2.5": _theorem_2_5(g, rho).to_dict(),
            "2.7": _theorem_2_7(g, rho).to_dict(),
            "3.2": _theorem_3_2(g, rho, eulerian_mode).to_dict(),
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
