"""Independent brute-force oracles.

Everything here works on plain vertex counts and edge lists with
dict/set machinery, deliberately sharing no code with the package
internals it cross-checks.
"""

from __future__ import annotations

from itertools import combinations, permutations


def adjacency(n: int, edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def components(n: int, edges) -> list[set[int]]:
    adj = adjacency(n, edges)
    seen: set[int] = set()
    out = []
    for start in range(n):
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        out.append(comp)
    return out


def cut_vertices_by_removal(n: int, edges) -> set[int]:
    """v is a cut vertex iff removing it increases the component count."""
    base = len(components(n, edges))
    cuts = set()
    for v in range(n):
        kept = [(a, b) for a, b in edges if v not in (a, b)]
        remaining = [u for u in range(n) if u != v]
        relabel = {u: i for i, u in enumerate(remaining)}
        reduced = [(relabel[a], relabel[b]) for a, b in kept]
        if len(components(n - 1, reduced)) > base:
            cuts.add(v)
    return cuts


def distances(n: int, edges, source: int) -> list[float]:
    adj = adjacency(n, edges)
    dist = [float("inf")] * n
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if dist[w] == float("inf"):
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def normalize(edges) -> frozenset[tuple[int, int]]:
    return frozenset((min(u, v), max(u, v)) for u, v in edges)


def is_isomorphic_by_permutation(n: int, edges1, edges2) -> bool:
    """Scan all vertex permutations for an edge-preserving relabeling."""
    e1 = normalize(edges1)
    e2 = normalize(edges2)
    if len(e1) != len(e2):
        return False
    deg1 = [0] * n
    deg2 = [0] * n
    for u, v in e1:
        deg1[u] += 1
        deg1[v] += 1
    for u, v in e2:
        deg2[u] += 1
        deg2[v] += 1
    if sorted(deg1) != sorted(deg2):
        return False
    for perm in permutations(range(n)):
        if any(deg2[perm[v]] != deg1[v] for v in range(n)):
            continue
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in e2 for u, v in e1):
            return True
    return False


def min_code_by_permutation(n: int, edges) -> tuple[int, ...]:
    """Lexicographically smallest upper-triangle bit tuple over all
    relabelings (column order). Exponential; keep n small."""
    e = normalize(edges)
    best = None
    for perm in permutations(range(n)):
        inv = [0] * n
        for v, p in enumerate(perm):
            inv[p] = v
        code = tuple(
            1 if (min(inv[i], inv[j]), max(inv[i], inv[j])) in e else 0
            for j in range(1, n)
            for i in range(j)
        )
        if best is None or code < best:
            best = code
    return best if best is not None else ()


def refined_colors_by_sorted_neighbors(n: int, edges) -> list[int]:
    """Iterated degree refinement ranked by sorted neighbor colors: each
    round gives every vertex the rank of ``(color, sorted colors of its
    neighbors)`` among all signatures, until a round changes no color.
    The package must produce exactly these ids, because the canonical
    form orders the color classes by them."""
    adj = adjacency(n, edges)
    degrees = [len(adj[v]) for v in range(n)]
    rank = {d: i for i, d in enumerate(sorted(set(degrees)))}
    color = [rank[d] for d in degrees]
    while True:
        sigs = [(color[v], tuple(sorted(color[w] for w in adj[v]))) for v in range(n)]
        remap = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [remap[s] for s in sigs]
        if new == color:
            return color
        color = new


def count_isomorphism_classes(n: int) -> int:
    """Partition all labeled graphs on n vertices into permutation
    orbits and count the orbits. Feasible through n = 6."""
    pairs = list(combinations(range(n), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    perm_maps = []
    for perm in permutations(range(n)):
        perm_maps.append(
            [index[(min(perm[u], perm[v]), max(perm[u], perm[v]))] for u, v in pairs]
        )
    total = 1 << len(pairs)
    seen = bytearray(total)
    classes = 0
    for code in range(total):
        if seen[code]:
            continue
        classes += 1
        bits = [i for i in range(len(pairs)) if code >> i & 1]
        for pmap in perm_maps:
            image = 0
            for i in bits:
                image |= 1 << pmap[i]
            seen[image] = 1
    return classes


def has_independent_triple(n: int, edges) -> bool:
    e = normalize(edges)
    return any(
        (a, b) not in e and (a, c) not in e and (b, c) not in e
        for a, b, c in combinations(range(n), 3)
    )


def complement_has_triangle(n: int, edges) -> bool:
    e = normalize(edges)
    comp = {(u, v) for u, v in combinations(range(n), 2) if (u, v) not in e}
    return any(
        (a, b) in comp and (a, c) in comp and (b, c) in comp
        for a, b, c in combinations(range(n), 3)
    )


def is_eulerian_by_definition(n: int, edges) -> bool:
    adj = adjacency(n, edges)
    if any(len(adj[v]) % 2 for v in range(n)):
        return False
    return len(components(n, edges)) <= 1


LEWIS_FLAGS = (
    "rho12_complete",
    "rho34_complete",
    "no_rho1_to_rho34_edges",
    "no_rho4_to_rho12_edges",
    "rho2_rho3_mutual_adjacency",
)


def lewis_partition_by_distance(n: int, edges, r: int):
    """(rho1, rho2, rho3, rho4) from base vertex r by the distance rules,
    or None unless every vertex is reached and the farthest is at 3."""
    dist = distances(n, edges, r)
    if max(dist) != 3:
        return None
    adj = adjacency(n, edges)
    rho3 = {v for v in range(n) if dist[v] == 2}
    rho4 = {v for v in range(n) if dist[v] == 3}
    rho2 = {v for v in adj[r] if adj[v] & rho3}
    rho1 = {r} | (adj[r] - rho2)
    return rho1, rho2, rho3, rho4


def validate_partition_pairwise(n: int, edges, rho1, rho2, rho3, rho4):
    """Lewis-partition validation by testing one vertex pair at a time in
    sorted order, so the first failing pair is plainly the witness; the
    package's mask-based validation must agree with it exactly. Returns
    the five flags, in ``LEWIS_FLAGS`` order, and the ``(flag, witness)``
    pairs of the failing ones."""
    adj = adjacency(n, edges)
    witnesses = []

    def complete_within(vertices, flag):
        members = sorted(vertices)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                if v not in adj[u]:
                    witnesses.append((flag, [u, v]))
                    return False
        return True

    def no_edges_between(a, b, flag):
        for u in sorted(a):
            for v in sorted(b):
                if v in adj[u]:
                    witnesses.append((flag, [u, v]))
                    return False
        return True

    def mutually_linked():
        for u in sorted(rho2):
            if not adj[u] & set(rho3):
                witnesses.append(("rho2_rho3_mutual_adjacency", u))
                return False
        for v in sorted(rho3):
            if not adj[v] & set(rho2):
                witnesses.append(("rho2_rho3_mutual_adjacency", v))
                return False
        return True

    flags = (
        complete_within(set(rho1) | set(rho2), "rho12_complete"),
        complete_within(set(rho3) | set(rho4), "rho34_complete"),
        no_edges_between(rho1, set(rho3) | set(rho4), "no_rho1_to_rho34_edges"),
        no_edges_between(rho4, set(rho1) | set(rho2), "no_rho4_to_rho12_edges"),
        mutually_linked(),
    )
    return flags, tuple(witnesses)


def diameter_by_bfs(n: int, edges) -> float:
    """Largest pairwise distance; inf when disconnected."""
    return max(max(distances(n, edges, v)) for v in range(n))
