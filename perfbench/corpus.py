"""Seeded inputs for the benchmark workloads.

Every generator takes a ``random.Random`` and returns graph6 strings
(or plain edge-list text), so the program under test only ever receives
encoded graphs. Sizes and graph kinds follow a fixed schedule; only the
edges and the vertex labels depend on the seed, so that the mix of slow
and fast inputs, and hence the latency percentiles, is the same for
every seed.
"""

from __future__ import annotations

import random

from oracle import complement, encode_graph6, from_edges, join, members, relabel

MIN_N, MAX_N = 10, 62


def shuffled(rng: random.Random, adj: list[int]) -> list[int]:
    perm = list(range(len(adj)))
    rng.shuffle(perm)
    return relabel(adj, perm)


def clique(n: int) -> list[int]:
    full = (1 << n) - 1
    return [full ^ (1 << v) for v in range(n)]


def disjoint(*parts: list[int]) -> list[int]:
    out: list[int] = []
    for part in parts:
        shift = len(out)
        out += [m << shift for m in part]
    return out


def random_graph(rng: random.Random, n: int, p: float) -> list[int]:
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def lewis_shaped(rng: random.Random, n: int, damage: float = 0.25) -> list[int]:
    """Two cliques rho1+rho2 and rho3+rho4 with random rho2/rho3 links,
    every rho2 vertex linked to some rho3 vertex and vice versa: a
    connected diameter-3 graph. A ``damage`` share of them loses one
    edge of the first clique."""
    b = rng.randint(1, max(1, n // 4))
    c = rng.randint(1, max(1, n // 4))
    a = rng.randint(1, n - b - c - 1)
    d = n - a - b - c
    rho2 = range(a, a + b)
    rho3 = range(a + b, a + b + c)
    edges = [(u, v) for u in range(a + b) for v in range(u + 1, a + b)]
    edges += [(u, v) for u in range(a + b, n) for v in range(u + 1, n)]
    density = rng.uniform(0.2, 0.8)
    links = {(u, v) for u in rho2 for v in rho3 if rng.random() < density}
    for u in rho2:
        if not any(x == u for x, _ in links):
            links.add((u, rng.choice(rho3)))
    for v in rho3:
        if not any(y == v for _, y in links):
            links.add((rng.choice(rho2), v))
    edges += sorted(links)
    if rng.random() < damage:
        edges.remove(rng.choice(edges[: (a + b) * (a + b - 1) // 2]))
    return from_edges(n, edges)


def odd_family(n: int) -> list[int]:
    """The 6-vertex all-odd seed joined with K2 until it has n vertices."""
    g = from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (4, 5)])
    while len(g) < n:
        g = join(g, clique(2))
    return g


def random_join(rng: random.Random, n: int) -> list[int]:
    k = rng.randint(2, n - 2)
    return join(random_graph(rng, k, rng.uniform(0.3, 0.9)), random_graph(rng, n - k, rng.uniform(0.3, 0.9)))


def clique_pair(rng: random.Random, n: int) -> list[int]:
    """Two disjoint cliques; one in three splits into three cliques."""
    k = rng.randint(1, n - 1)
    if rng.random() < 1 / 3 and n - k >= 2:
        j = rng.randint(1, n - k - 1)
        return disjoint(clique(k), clique(j), clique(n - k - j))
    return disjoint(clique(k), clique(n - k))


def dense_random(rng: random.Random, n: int) -> list[int]:
    return random_graph(rng, n, rng.uniform(0.55, 0.9))


def family_or_join(rng: random.Random, n: int) -> list[int]:
    return odd_family(n - n % 2) if rng.random() < 0.5 else random_join(rng, n)


# One slot per graph, cycled: 8 Lewis-shaped, 4 joins or family members,
# 5 dense random graphs and 3 clique pairs in every 20.
CHECK_KINDS = (
    lewis_shaped, dense_random, lewis_shaped, family_or_join, clique_pair,
    lewis_shaped, dense_random, lewis_shaped, family_or_join, dense_random,
    lewis_shaped, clique_pair, lewis_shaped, family_or_join, dense_random,
    lewis_shaped, clique_pair, lewis_shaped, family_or_join, dense_random,
)


def check_stream(seed: int, count: int) -> list[str]:
    """``count`` graph6 strings with n cycling through 10..62."""
    rng = random.Random(f"check-stream/{seed}")
    span = MAX_N - MIN_N + 1
    out = []
    for i in range(count):
        n = MIN_N + (i * 7) % span
        kind = CHECK_KINDS[i % len(CHECK_KINDS)]
        out.append(encode_graph6(shuffled(rng, kind(rng, n))))
    return out


# -------------------------------------------------------- canon-relabel


def cycle(n: int) -> list[int]:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def paley(q: int) -> list[int]:
    squares = {x * x % q for x in range(1, q)}
    return from_edges(q, [(i, j) for i in range(q) for j in range(i + 1, q) if (j - i) % q in squares])


def petersen() -> list[int]:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return from_edges(10, outer + inner + spokes)


def triangle_free(rng: random.Random, n: int) -> list[int]:
    """Random maximal-ish triangle-free graph: add random pairs that close
    no triangle."""
    adj = [0] * n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if not adj[u] & adj[v]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


def asymmetric_palfy(rng: random.Random, n: int) -> list[int]:
    """Complement of a random triangle-free graph: independence number
    <= 2, so it passes Pálfy; at these sizes it is almost surely rigid."""
    return complement(triangle_free(rng, n))


# Sparse vertex-transitive graphs: refinement cannot split them, so the
# tie-branching search does all the work. Sizes are kept where a single
# canonical form still finishes in well under a second.
SYMMETRIC = {
    "C10": cycle(10),
    "C11": cycle(11),
    "C12": cycle(12),
    "C13": cycle(13),
    "Petersen": petersen(),
    "Paley13": paley(13),
    "Paley17": paley(17),
}


def canon_relabel(seed: int, sizes: int, relabelings: int) -> list[tuple[str, list[str]]]:
    """Named base graphs, each with ``relabelings`` random relabelings
    encoded as graph6.

    Rigid Pálfy-passing graphs and joins at ``sizes`` orders from 10 to
    62 make up most of the operations, so that the median falls among
    them rather than in the gap before the slow symmetric graphs; the
    complements of C10..C37, five family members and ``SYMMETRIC`` follow.
    """
    rng = random.Random(f"canon-relabel/{seed}")
    bases: list[tuple[str, list[int]]] = list(SYMMETRIC.items())
    span = MAX_N - MIN_N + 1
    for i in range(sizes):
        n = MIN_N + (i * span) // sizes
        bases.append((f"palfy-{n}-{i}", asymmetric_palfy(rng, n)))
        bases.append((f"join-{n}-{i}", random_join(rng, n)))
    for m in range(10, 38, 3):
        bases.append((f"coC{m}", complement(cycle(m))))
    for n in (10, 22, 36, 48, 62):
        bases.append((f"family-{n}", odd_family(n)))
    return [
        (name, [encode_graph6(shuffled(rng, adj)) for _ in range(relabelings)])
        for name, adj in bases
    ]


# -------------------------------------------------------------- cli-check


def to_edgelist(adj: list[int]) -> str:
    lines = [str(len(adj))]
    lines += [f"{u} {v}" for u in range(len(adj)) for v in members(adj[u]) if u < v]
    return "\n".join(lines) + "\n"


def cli_inputs(seed: int) -> list[dict]:
    """One pass of ``cdgraph check`` invocations: graph6 arguments for
    Lewis-shaped, joined and inadmissible graphs, the 4-path ``Ch``, and
    one edge list on standard input."""
    rng = random.Random(f"cli-check/{seed}")

    def lewis_clean(n: int) -> list[int]:
        return lewis_shaped(rng, n, damage=0.0)

    graphs = [
        shuffled(rng, lewis_clean(12)),
        shuffled(rng, lewis_clean(24)),
        shuffled(rng, lewis_clean(40)),
        shuffled(rng, family_or_join(rng, 30)),
        shuffled(rng, clique_pair(rng, 20)),
        shuffled(rng, random_graph(rng, 16, 0.2)),
    ]
    out = [{"g6": encode_graph6(adj), "adj": adj} for adj in graphs]
    out.append({"g6": "Ch", "adj": from_edges(4, [(0, 1), (1, 2), (2, 3)])})
    adj = shuffled(rng, lewis_clean(18))
    out.append({"stdin": to_edgelist(adj), "adj": adj})
    return out
