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


def _reach(adj: dict[int, set[int]], start: int, allowed: set[int]) -> set[int]:
    """The vertices of ``allowed`` that ``start`` reaches inside it."""
    seen = {start}
    queue = [start]
    while queue:
        v = queue.pop()
        for w in adj[v]:
            if w in allowed and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def blocks_by_definition(n: int, edges) -> list[set[int]]:
    """The maximal vertex sets that induce a connected graph with no cut
    vertex, plus each isolated vertex alone.

    Up to 8 vertices every vertex set is tested, largest first, skipping
    those inside a block already found. A single vertex qualifies, so an
    isolated vertex comes out alone and no other vertex does. Above 8
    vertices the blocks come from ``blocks_by_separation``.
    """
    if n > 8:
        return blocks_by_separation(n, edges)
    adj = adjacency(n, edges)

    def connected(s: set[int]) -> bool:
        return not s or _reach(adj, min(s), s) == s

    blocks: list[set[int]] = []
    for size in range(n, 0, -1):
        for subset in combinations(range(n), size):
            s = set(subset)
            if any(s <= b for b in blocks):
                continue
            if connected(s) and all(connected(s - {v}) for v in s):
                blocks.append(s)
    return blocks


def blocks_by_separation(n: int, edges) -> list[set[int]]:
    """Blocks by the rule that two edges share a block iff no single
    vertex removal separates them: for every vertex x, they lie in one
    component of the graph less x, where an edge at x stands for its
    other end. Each block is the ends of one class of edges; each
    isolated vertex is a block alone."""
    adj = adjacency(n, edges)
    ends = sorted(normalize(edges))
    signature: dict[tuple[int, int], list[int]] = {e: [] for e in ends}
    for x in range(n):
        rest = set(range(n)) - {x}
        label: dict[int, int] = {}
        for v in sorted(rest):
            if v not in label:
                for w in _reach(adj, v, rest):
                    label[w] = v
        for a, b in ends:
            signature[(a, b)].append(label[b if a == x else a])
    classes: dict[tuple[int, ...], set[int]] = {}
    for e in ends:
        classes.setdefault(tuple(signature[e]), set()).update(e)
    return list(classes.values()) + [{v} for v in range(n) if not adj[v]]


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


def refined_cells_by_sorted_neighbors(n: int, edges) -> list[int]:
    """Iterated degree refinement ranked by sorted neighbor colors: each
    round gives every vertex the rank of ``(color, sorted colors of its
    neighbors)`` among all signatures, until a round changes no color.
    Returns the color classes as vertex masks, in color order. The
    package must produce exactly these cells, because the canonical form
    orders the color classes by them."""
    adj = adjacency(n, edges)
    degrees = [len(adj[v]) for v in range(n)]
    rank = {d: i for i, d in enumerate(sorted(set(degrees)))}
    color = [rank[d] for d in degrees]
    while True:
        sigs = [(color[v], tuple(sorted(color[w] for w in adj[v]))) for v in range(n)]
        remap = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [remap[s] for s in sigs]
        if new == color:
            break
        color = new
    cells = [0] * len(set(color))
    for v, c in enumerate(color):
        cells[c] |= 1 << v
    return cells


def min_code_rows_by_frontier(n: int, edges) -> list[int]:
    """The minimal code rows by a breadth-first frontier search over the
    package's vertex orders: keep every partial order that realizes the
    minimal code so far, position by position, pruning only twins. Rows
    are those of ``graph6_bytes_from_rows``; the package's depth-first
    search must return exactly these. Exponential on vertex-transitive
    graphs; keep n small."""
    adj = [0] * n
    for u, v in normalize(edges):
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    def _twins(adj, u, v):
        mask = ~((1 << u) | (1 << v))
        return (adj[u] ^ adj[v]) & mask == 0

    classes = [
        [v for v in range(n) if cell >> v & 1]
        for cell in refined_cells_by_sorted_neighbors(n, edges)
    ]

    position_class: list[int] = []
    for ci, members in enumerate(classes):
        position_class.extend([ci] * len(members))

    # Frontier of partial orders, all realizing the minimal code so far.
    frontier: list[tuple[tuple[int, ...], int]] = [((), 0)]
    rows: list[int] = []
    for pos in range(n):
        members = classes[position_class[pos]]
        best = -1
        new_frontier: list[tuple[tuple[int, ...], int]] = []
        for order, used in frontier:
            accepted: list[int] = []
            for v in members:
                if used >> v & 1:
                    continue
                av = adj[v]
                row = 0
                for u in order:
                    row = row << 1 | (av >> u & 1)
                if best < 0 or row < best:
                    best = row
                    new_frontier = [(order + (v,), used | 1 << v)]
                    accepted = [v]
                elif row == best:
                    if any(_twins(adj, w, v) for w in accepted):
                        continue
                    new_frontier.append((order + (v,), used | 1 << v))
                    accepted.append(v)
        if pos > 0:
            rows.append(best)
        frontier = new_frontier
    return rows


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


def first_independent_triple(n: int, edges) -> tuple[int, int, int] | None:
    """The lexicographically first independent triple, or None."""
    e = normalize(edges)
    return next(
        (
            (a, b, c)
            for a, b, c in combinations(range(n), 3)
            if (a, b) not in e and (a, c) not in e and (b, c) not in e
        ),
        None,
    )


def first_low_degree_non_edge(n: int, edges) -> tuple[int, int] | None:
    """The lexicographically first non-adjacent pair of vertices whose
    degrees are both below n - 2, or None."""
    adj = adjacency(n, edges)
    low = [v for v in range(n) if len(adj[v]) < n - 2]
    return next(((u, v) for u, v in combinations(low, 2) if v not in adj[u]), None)


def has_independent_triple(n: int, edges) -> bool:
    return first_independent_triple(n, edges) is not None


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


def rho23_subgraph(edges, rho2, rho3) -> tuple[int, list[tuple[int, int]]]:
    """The subgraph rho2 | rho3 induces, relabeled 0..k-1 in the order of
    the original labels: its vertex count and its edges."""
    label = {v: i for i, v in enumerate(sorted(set(rho2) | set(rho3)))}
    return len(label), [(label[u], label[v]) for u, v in edges if u in label and v in label]


def has_hamiltonian_cycle(n: int, edges) -> bool:
    """A cycle through all n vertices, by backtracking over every path
    from vertex 0. Exponential; keep n small."""
    if n < 3:
        return False
    adj = adjacency(n, edges)

    def extend(v: int, visited: set[int]) -> bool:
        if len(visited) == n:
            return 0 in adj[v]
        return any(extend(w, visited | {w}) for w in adj[v] - visited)

    return extend(0, {0})


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


def graph6_edges_by_pair_order(data: bytes):
    """Read a graph6 string bit by bit, as McKay's format description
    states it: the body's bits, six per byte (byte - 63, most
    significant bit first), name the vertex pairs (i, j), i < j, in
    column order (0,1), (0,2), (1,2), (0,3), ...; body bit k is set
    when the k-th pair is an edge, and the bits after the last pair are
    padding. Expects a valid header byte and a body of exact length in
    63..126. Returns (n, edges), or None when a padding bit is set."""
    n = data[0] - 63
    pairs = [(i, j) for j in range(n) for i in range(j)]
    bits = [(byte - 63) >> shift & 1 for byte in data[1:] for shift in range(5, -1, -1)]
    if any(bits[len(pairs) :]):
        return None
    return n, [pair for pair, bit in zip(pairs, bits) if bit]
