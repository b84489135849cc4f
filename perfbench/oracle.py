"""Independent reference computations for checking cdgraph's outputs.

Nothing here imports cdgraph or the test suite. A graph is a list of
adjacency bitmasks (bit w of ``adj[v]`` set iff v ~ w); every predicate
is rewritten from its definition: distances by breadth-first layers, cut
vertices by deleting each vertex and recounting components, Pálfy by
looking for a common non-neighbour of a non-adjacent pair.
"""

from __future__ import annotations

from itertools import combinations

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"

CHECK_IDS = (
    "palfy",
    "component-bound",
    "diameter-bound",
    "cut-vertices",
    "regular-rule",
    "forbidden-p4",
)

# OEIS A000088: graphs on n unlabeled vertices, n = 0..10.
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168)
# OEIS A006785: triangle-free graphs on n unlabeled vertices, n = 0..10.
# A graph has independence number <= 2 iff its complement is
# triangle-free, so this also counts the Pálfy-passing classes.
A006785 = (1, 1, 2, 3, 7, 14, 38, 107, 410, 1897, 12172)


# ---------------------------------------------------------------- graph6


def encode_graph6(adj: list[int]) -> str:
    n = len(adj)
    if n > 62:
        raise ValueError("graph6 single-byte header holds n <= 62")
    bits = [adj[i] >> j & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [
        63 + int("".join(map(str, bits[k : k + 6])), 2) for k in range(0, len(bits), 6)
    ]
    return chr(n + 63) + "".join(map(chr, body))


def decode_graph6(text: str) -> list[int]:
    n = ord(text[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"bad graph6 header in {text!r}")
    bits = "".join(format(ord(c) - 63, "06b") for c in text[1:])
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if len(text) - 1 != (len(pairs) + 5) // 6 or "1" in bits[len(pairs) :]:
        raise ValueError(f"bad graph6 body in {text!r}")
    adj = [0] * n
    for (i, j), b in zip(pairs, bits):
        if b == "1":
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def from_edges(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def relabel(adj: list[int], perm: list[int]) -> list[int]:
    """Graph with vertex v renamed perm[v]."""
    out = [0] * len(adj)
    for v, mask in enumerate(adj):
        out[perm[v]] = sum(1 << perm[w] for w in members(mask))
    return out


def complement(adj: list[int]) -> list[int]:
    full = (1 << len(adj)) - 1
    return [full & ~m & ~(1 << v) for v, m in enumerate(adj)]


def join(a: list[int], b: list[int]) -> list[int]:
    """Disjoint union of a and b plus every edge between them."""
    na, nb = len(a), len(b)
    a_all, b_all = (1 << na) - 1, ((1 << nb) - 1) << na
    return [m | b_all for m in a] + [(m << na) | a_all for m in b]


# ------------------------------------------------------------ structure


def members(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def distances(adj: list[int], source: int, removed: int = 0) -> list[int]:
    """Breadth-first distances from source; -1 for unreachable vertices.
    Vertices in the ``removed`` mask are treated as deleted."""
    dist = [-1] * len(adj)
    dist[source] = 0
    seen = (1 << source) | removed
    layer = [source]
    d = 0
    while layer:
        d += 1
        nxt = []
        for v in layer:
            fresh = adj[v] & ~seen
            seen |= fresh
            for w in members(fresh):
                dist[w] = d
                nxt.append(w)
        layer = nxt
    return dist


def component_count(adj: list[int], removed: int = 0) -> int:
    left = [v for v in range(len(adj)) if not removed >> v & 1]
    count = 0
    done = removed
    for v in left:
        if done >> v & 1:
            continue
        count += 1
        for w, d in enumerate(distances(adj, v, removed)):
            if d >= 0:
                done |= 1 << w
    return count


def cut_vertices(adj: list[int]) -> list[int]:
    base = component_count(adj)
    return [v for v in range(len(adj)) if adj[v] and component_count(adj, 1 << v) > base]


def degrees(adj: list[int]) -> list[int]:
    return [bin(m).count("1") for m in adj]


def independent_triple(adj: list[int]) -> bool:
    full = (1 << len(adj)) - 1
    return any(
        full & ~(adj[u] | adj[v] | 1 << u | 1 << v)
        for u, v in combinations(range(len(adj)), 2)
        if not adj[u] >> v & 1
    )


class Profile:
    """Every distance, component and degree fact the checks need."""

    def __init__(self, adj: list[int]) -> None:
        self.adj = adj
        self.n = len(adj)
        self.dist = [distances(adj, v) for v in range(self.n)]
        self.components = component_count(adj)
        self.connected = self.components == 1
        self.deg = degrees(adj)
        self.ecc = [max(row) for row in self.dist]
        self.diameter = max(self.ecc) if self.connected else None
        self._cuts: list[int] | None = None

    @property
    def cuts(self) -> list[int]:
        if self._cuts is None:
            self._cuts = cut_vertices(self.adj)
        return self._cuts

    @property
    def is_block(self) -> bool:
        return self.connected and not self.cuts


# --------------------------------------------------------------- battery


def battery(p: Profile) -> dict[str, str]:
    n, adj, deg = p.n, p.adj, p.deg
    regular = len(set(deg)) == 1
    complete = all(d == n - 1 for d in deg)
    if not regular or complete:
        regular_rule = NOT_APPLICABLE
    else:
        regular_rule = PASS if deg[0] == n - 2 else FAIL
    # The 4-vertex path: connected, 3 edges, no vertex of degree 3.
    is_p4 = n == 4 and p.connected and sum(deg) == 6 and max(deg) == 2
    far = any(d > 3 for row in p.dist for d in row)
    return {
        "palfy": FAIL if independent_triple(adj) else PASS,
        "component-bound": FAIL if p.components > 2 else PASS,
        "diameter-bound": FAIL if far else PASS,
        "cut-vertices": FAIL if len(p.cuts) > 1 else PASS,
        "regular-rule": regular_rule,
        "forbidden-p4": FAIL if is_p4 else PASS,
    }


def admissible(verdicts: dict[str, str]) -> bool:
    return FAIL not in verdicts.values()


def witness_holds(p: Profile, check: str, witness) -> bool:
    """Whether a failing check's witness really shows the failure."""
    adj, n = p.adj, p.n
    try:
        if check == "palfy":
            u, v, w = witness
            return len({u, v, w}) == 3 and not (
                adj[u] >> v & 1 or adj[u] >> w & 1 or adj[v] >> w & 1
            )
        if check == "component-bound":
            reps = list(witness)
            return len(reps) == p.components > 2 and all(
                p.dist[a][b] < 0 for a, b in combinations(reps, 2)
            )
        if check == "diameter-bound":
            u, v, d = witness
            return d > 3 and p.dist[u][v] == d
        if check == "cut-vertices":
            return len(witness) >= 2 and sorted(witness) == p.cuts
        if check == "regular-rule":
            return witness == {"degree": p.deg[0], "required": n - 2} and p.deg[0] != n - 2
        if check == "forbidden-p4":
            path = list(witness)
            return sorted(path) == [0, 1, 2, 3] and all(
                adj[a] >> b & 1 for a, b in zip(path, path[1:])
            )
    except (TypeError, ValueError, IndexError, KeyError):
        return False
    return False


def check_report(adj: list[int], report: dict) -> list[str]:
    """Disagreements between a battery report (``CheckReport.to_dict``)
    and the reference verdicts; empty when the report is right."""
    p = Profile(adj)
    want = battery(p)
    errors = []
    got = {c["id"]: c for c in report["checks"]}
    if list(got) != list(CHECK_IDS):
        errors.append(f"check ids {list(got)}")
        return errors
    for check in CHECK_IDS:
        verdict = got[check]["verdict"]
        if verdict != want[check]:
            errors.append(f"{check}: {verdict}, expected {want[check]}")
        elif verdict == FAIL and not witness_holds(p, check, got[check]["witness"]):
            errors.append(f"{check}: witness {got[check]['witness']} does not hold")
    label = "admissible" if admissible(want) else "inadmissible"
    if report["overall"] != label:
        errors.append(f"overall {report['overall']}, expected {label}")
    return errors


# ----------------------------------------------------- Lewis partitions


def lewis_layers(p: Profile, r: int) -> dict[str, list[int]]:
    dist = p.dist[r]
    rho3 = [v for v in range(p.n) if dist[v] == 2]
    rho4 = [v for v in range(p.n) if dist[v] == 3]
    rho3_mask = sum(1 << v for v in rho3)
    nbrs = [v for v in range(p.n) if dist[v] == 1]
    rho2 = [v for v in nbrs if p.adj[v] & rho3_mask]
    rho1 = sorted([r] + [v for v in nbrs if v not in rho2])
    return {"rho1": rho1, "rho2": rho2, "rho3": rho3, "rho4": rho4}


def layer_validity(p: Profile, rho: dict[str, list[int]]) -> dict[str, bool]:
    adj = p.adj

    def clique(vs):
        return all(adj[a] >> b & 1 for a, b in combinations(vs, 2))

    def apart(xs, ys):
        return not any(adj[a] >> b & 1 for a in xs for b in ys)

    def linked(xs, ys):
        return all(any(adj[a] >> b & 1 for b in ys) for a in xs)

    r1, r2, r3, r4 = rho["rho1"], rho["rho2"], rho["rho3"], rho["rho4"]
    return {
        "rho12_complete": clique(r1 + r2),
        "rho34_complete": clique(r3 + r4),
        "no_rho1_to_rho34_edges": apart(r1, r3 + r4),
        "no_rho4_to_rho12_edges": apart(r4, r1 + r2),
        "rho2_rho3_mutual_adjacency": linked(r2, r3) and linked(r3, r2),
    }


def diameter3(p: Profile) -> bool:
    return p.connected and p.diameter == 3


def check_lewis(adj: list[int], report: dict | None) -> list[str]:
    """Disagreements between ``lewis.partition_report`` output and
    independent distance classes. ``report`` is None when the program
    judged the graph not connected with diameter 3."""
    p = Profile(adj)
    if not diameter3(p):
        return [] if report is None else ["partition report for a graph without diameter 3"]
    if report is None or not report.get("applicable"):
        return ["no partition report for a connected diameter-3 graph"]
    bases = [r for r in range(p.n) if p.ecc[r] == 3]
    errors = []
    want_bases = [
        {"r": r, "valid": all(layer_validity(p, lewis_layers(p, r)).values())} for r in bases
    ]
    if report["base_vertices"] != want_bases:
        errors.append("base vertices or their validity differ")
    r = bases[0]
    rho = lewis_layers(p, r)
    part = report["partition"]
    if part["r"] != r or any(part[k] != v for k, v in rho.items()):
        errors.append(f"rho sets for r={r} differ")
    if part["s"] != min(rho["rho4"]):
        errors.append("s is not the smallest rho4 vertex")
    flags = layer_validity(p, rho)
    validity = report["validity"]
    for flag, value in flags.items():
        if validity[flag] != value:
            errors.append(f"validity flag {flag}: {validity[flag]}, expected {value}")
    if validity["valid"] != all(flags.values()):
        errors.append("overall validity differs")
    return errors


# ---------------------------------------------------------------- survey


def hamiltonian(adj: list[int]) -> bool:
    n = len(adj)
    if n < 3:
        return False
    full = (1 << n) - 1

    def extend(v: int, seen: int) -> bool:
        if seen == full:
            return bool(adj[v] & 1)
        return any(extend(w, seen | 1 << w) for w in members(adj[v] & ~seen))

    return extend(0, 1)


def induced(adj: list[int], vs: list[int]) -> list[int]:
    index = {v: i for i, v in enumerate(vs)}
    return [sum(1 << index[w] for w in members(adj[v]) if w in index) for v in vs]


def rho23_predicates(p: Profile, rho: dict[str, list[int]]) -> dict[str, bool]:
    r2, r3 = rho["rho2"], rho["rho3"]
    sub = induced(p.adj, sorted(r2 + r3))
    even = all(d % 2 == 0 for d in degrees(sub))
    mask2, mask3 = sum(1 << v for v in r2), sum(1 << v for v in r3)
    cross_even = all(bin(p.adj[v] & mask3).count("1") % 2 == 0 for v in r2) and all(
        bin(p.adj[v] & mask2).count("1") % 2 == 0 for v in r3
    )
    return {
        "standard": even and component_count(sub) == 1,
        "even-only": even,
        "hamiltonian": hamiltonian(sub),
        "even-cross-degrees": cross_even,
    }


def survey(forms: list[str]) -> dict:
    """The fields of ``EnumerationSummary.to_dict`` (without notes) for
    the given class representatives, recomputed from scratch."""
    out = {
        "n": len(decode_graph6(forms[0])),
        "total_nonisomorphic": len(forms),
        "admissible": 0,
        "all_odd_admissible": 0,
        "non_regular_all_odd_admissible": 0,
        "theorem_3_3_discrepancies": [],
        "theorem_3_3_not_applicable": [],
        "regular_theorem_discrepancies": [],
        "theorem_3_2_discrepancies": {
            m: [] for m in ("standard", "even-only", "hamiltonian", "even-cross-degrees")
        },
        "diameter3_surveyed": 0,
        "diameter3_no_valid_partition": [],
    }
    for g6 in forms:
        p = Profile(decode_graph6(g6))
        if not admissible(battery(p)):
            continue
        out["admissible"] += 1
        all_odd = all(d % 2 for d in p.deg)
        regular = len(set(p.deg)) == 1
        complete = all(d == p.n - 1 for d in p.deg)
        if all_odd:
            out["all_odd_admissible"] += 1
            out["non_regular_all_odd_admissible"] += not regular
            if not p.connected:
                out["theorem_3_3_not_applicable"].append(g6)
            elif not p.is_block:
                out["theorem_3_3_discrepancies"].append(g6)
            if regular and not complete:
                out["regular_theorem_discrepancies"].append(g6)
        if not diameter3(p):
            continue
        valid = [
            rho
            for rho in (lewis_layers(p, r) for r in range(p.n) if p.ecc[r] == 3)
            if all(layer_validity(p, rho).values())
        ]
        if not valid:
            out["diameter3_no_valid_partition"].append(g6)
            continue
        out["diameter3_surveyed"] += 1
        rho = valid[0]
        sizes_even = (
            len(rho["rho1"] + rho["rho2"]) % 2 == 0 and len(rho["rho3"] + rho["rho4"]) % 2 == 0
        )
        for mode, holds in rho23_predicates(p, rho).items():
            if all_odd != (p.is_block and sizes_even and holds):
                out["theorem_3_2_discrepancies"][mode].append(g6)
    return out


# ---------------------------------------------------- isomorphism classes


def invariant(adj: list[int]) -> tuple:
    """Isomorphism invariant: per vertex, its degree, the sorted degrees
    of its neighbours and the number of triangles through it."""
    deg = degrees(adj)
    rows = []
    for v, mask in enumerate(adj):
        nbrs = members(mask)
        tri = sum(bin(adj[w] & mask).count("1") for w in nbrs) // 2
        rows.append((deg[v], tri, tuple(sorted(deg[w] for w in nbrs))))
    return (len(adj), sum(deg) // 2, tuple(sorted(rows)))
