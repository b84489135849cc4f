"""Necessary-condition battery for candidate character degree graphs.

Each check corresponds to one published necessary condition on the
character degree graph of a finite solvable group. A graph passing the
whole battery is only "admissible": the conditions are necessary, not
sufficient, so a pass never certifies that some solvable group realizes
the graph.
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple

from . import graph as gr
from .formats import GRAPH6_MAX_N, encode_graph6
from .graph import Graph

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"

CITATIONS = {
    "palfy": "Remark 2.1 (Pálfy's three-prime theorem): any three vertices span an edge",
    "component-bound": "Remark 2.1: at most two connected components",
    "diameter-bound": "Remark 2.2: diameter at most 3 (applied per component)",
    "cut-vertices": "Theorem 2.4: at most one cut vertex",
    "regular-rule": "Theorem 2.4.1: a non-complete regular degree graph on n vertices is (n-2)-regular",
    "forbidden-p4": "Theorem 2.3: the 4-vertex path graph is not a solvable-group degree graph",
    "fitting-height": "Theorem 2.6: two nonadjacent vertices of degree < n-2 force Fitting height >= 3",
}

class CheckResult(NamedTuple):
    check: str
    verdict: str
    witness: Any
    citation: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.check,
            "verdict": self.verdict,
            "witness": self.witness,
            "citation": self.citation,
        }


class Inference(NamedTuple):
    note: str
    witness: tuple[int, int]
    citation: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "note": self.note,
            "witness": list(self.witness),
            "citation": self.citation,
        }


class CheckReport(NamedTuple):
    graph6: str
    results: tuple[CheckResult, ...]
    inferences: tuple[Inference, ...]

    @property
    def overall(self) -> bool:
        return all(r.verdict != FAIL for r in self.results)

    @property
    def overall_label(self) -> str:
        return "admissible" if self.overall else "inadmissible"

    def result(self, check: str) -> CheckResult:
        for r in self.results:
            if r.check == check:
                return r
        raise KeyError(check)

    def to_dict(self) -> dict[str, Any]:
        return {
            "graph": self.graph6,
            "checks": [r.to_dict() for r in self.results],
            "overall": self.overall_label,
            "inferences": [i.to_dict() for i in self.inferences],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render_text(self) -> str:
        lines = [f"graph: {self.graph6}"]
        for r in self.results:
            line = f"  {r.check:<16} {r.verdict}"
            if r.witness is not None:
                line += f"  witness={r.witness}"
            lines.append(line)
            if r.verdict == FAIL:
                lines.append(f"    -> {r.citation}")
        for inf in self.inferences:
            lines.append(f"  note: {inf.note} (witness {inf.witness})")
        lines.append(f"overall: {self.overall_label}")
        return "\n".join(lines)


def _result(check: str, verdict: str, witness: Any = None) -> CheckResult:
    return CheckResult(check, verdict, witness, CITATIONS[check])


def check_palfy(g: Graph) -> CheckResult:
    """Every 3-subset of vertices spans at least one edge.

    Equivalent to independence number <= 2; a failing witness is an
    independent triple, the least one. Graphs with fewer than 3 vertices
    pass.

    Row u of an n*n-bit matrix holds u's non-neighbours above u, and
    each v in turn is tested as the middle of every triple u < v < w at
    once: the rows u < v that hold v get v's row by one carry-free
    multiply (as in ``graph._distance_layers``), and a bit left at w in
    row u once masked by row u itself is a triple. The first such v is
    the least middle of any triple, so the lowest bit left gives the
    least triple from its row u0; a lesser one starts at some u < u0,
    and only those u are scanned.
    """
    n = g.n
    adj = g.adjacency_masks
    full = (1 << n) - 1
    column = ((1 << n * n) - 1) // full if n else 0  # bit 0 of every row
    rows = 0
    for v, mask in enumerate(adj):
        later = full & ~mask & -(2 << v)  # non-neighbours w > v
        hit = (rows >> v & column) * later & rows
        if hit:
            break
        rows |= later << v * n
    else:
        return _result("palfy", PASS)
    u0, w0 = divmod((hit & -hit).bit_length() - 1, n)
    least = [u0, v, w0]
    for u in range(u0):
        later = full & ~adj[u] & -(2 << u)  # non-neighbours v > u
        rest = later
        while rest & (rest - 1):  # a triple needs some w > v after v
            low = rest & -rest
            v = low.bit_length() - 1
            others = later & ~adj[v] & -(low << 1)  # the least w > v off both neighbourhoods
            if others:
                return _result("palfy", FAIL, [u, v, (others & -others).bit_length() - 1])
            rest ^= low
    return _result("palfy", FAIL, least)


def check_component_bound(g: Graph) -> CheckResult:
    """At most two connected components; witness lists one vertex per component."""
    if gr.is_connected(g):
        return _result("component-bound", PASS)
    comps = gr.connected_components(g)
    if len(comps) <= 2:
        return _result("component-bound", PASS)
    return _result("component-bound", FAIL, sorted(min(c) for c in comps))


def check_diameter_bound(g: Graph) -> CheckResult:
    """Every component has diameter <= 3; witness is a pair at distance > 3.

    Passing is one read of the largest component diameter; only a
    failure searches the rows for the first far pair.
    """
    if gr.max_component_diameter(g) > 3:
        for v in range(g.n):
            far = gr._layers(g, v)[4:]
            above = sum(far) & -(2 << v)  # vertices u > v at distance 4 or more
            if above:
                low = above & -above
                d = next(d for d, layer in enumerate(far, start=4) if layer & low)
                return _result("diameter-bound", FAIL, [v, low.bit_length() - 1, d])
    return _result("diameter-bound", PASS)


def check_cut_vertices(g: Graph) -> CheckResult:
    """At most one cut vertex; witness is the cut-vertex set when >= 2."""
    cuts = gr.cut_vertices(g)
    if len(cuts) <= 1:
        return _result("cut-vertices", PASS)
    return _result("cut-vertices", FAIL, sorted(cuts))


def check_regular_rule(g: Graph) -> CheckResult:
    """Non-complete regular graphs must be (n-2)-regular.

    Not applicable to complete or non-regular graphs; the witness of a
    failure records the common degree and the required one.
    """
    if g.n == 0:
        raise ValueError("regular rule is undefined for the empty graph")
    regular, k = gr.is_regular(g)
    if not regular or gr.is_complete(g):
        return _result("regular-rule", NOT_APPLICABLE)
    if k == g.n - 2:
        return _result("regular-rule", PASS)
    return _result("regular-rule", FAIL, {"degree": k, "required": g.n - 2})


def check_forbidden_p4(g: Graph) -> CheckResult:
    """Exact test for the forbidden 4-vertex path.

    This is not a subgraph test: only the whole graph being the 4-path
    fails. Among 4-vertex graphs, the path is the only one with degrees
    (2, 2, 1, 1). The witness is a vertex order tracing the path.
    """
    if g.n != 4 or gr.degree_multiset(g) != (2, 2, 1, 1):
        return _result("forbidden-p4", PASS)
    ends = [v for v in range(4) if g.degree(v) == 1]
    path = [ends[0]]
    while len(path) < 4:
        nxt = next(w for w in g.neighbors(path[-1]) if w not in path)
        path.append(nxt)
    return _result("forbidden-p4", FAIL, path)


def infer_fitting_height(g: Graph) -> Inference | None:
    """Nonadjacent pair of vertices each of degree < n-2 implies any
    solvable group realizing the graph has Fitting height >= 3.

    The witness is the least such pair: the least u with a small-degree
    non-neighbour above it, and the least such v, one mask per u.
    """
    if g.n == 0:
        raise ValueError("Fitting-height inference is undefined for the empty graph")
    n = g.n
    adj = g.adjacency_masks
    small = 0
    for v, mask in enumerate(adj):
        if mask.bit_count() < n - 2:
            small |= 1 << v
    while small:
        low = small & -small
        small ^= low  # now the small-degree vertices above u
        u = low.bit_length() - 1
        missing = small & ~adj[u]
        if missing:
            return Inference(
                "any solvable group with this degree graph has Fitting height >= 3",
                (u, (missing & -missing).bit_length() - 1),
                CITATIONS["fitting-height"],
            )
    return None


# Global structural checks first, the exact 4-vertex path test last.
_CHECKS = (
    check_palfy,
    check_component_bound,
    check_diameter_bound,
    check_cut_vertices,
    check_regular_rule,
    check_forbidden_p4,
)


def run_battery(g: Graph) -> CheckReport:
    """Run every necessary-condition check in fixed order.

    All checks are evaluated and reported even after a failure; the
    overall verdict is the conjunction of the applicable checks.
    """
    if g.n == 0:
        raise ValueError("the battery is undefined for the empty graph")
    results = tuple(check(g) for check in _CHECKS)
    inference = infer_fitting_height(g)
    inferences = (inference,) if inference is not None else ()
    if g.n <= GRAPH6_MAX_N:
        label = encode_graph6(g).decode("ascii")
    else:
        label = f"<graph n={g.n} m={g.edge_count}>"  # beyond the graph6 header range
    return CheckReport(label, results, inferences)

