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
