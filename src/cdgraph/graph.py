"""Immutable simple undirected graphs on dense vertex labels 0..n-1.

Adjacency is stored as one bitmask per vertex, so the structural
predicates used by the solvable-group checks (degrees, distances,
components, blocks) are single-word operations for the graph orders
this package targets.

BFS layers and blocks are computed at most once per ``Graph`` and
cached on it: the layers from a source (entry d masks the vertices at
distance d) the first time some function asks for them, the block
decomposition the first time cut vertices or blocks are asked for.
Every distance question reads the layer masks and ``is_block`` the
block count, so ``_bfs_layers`` and ``_decompose`` are the only
traversals, and only ``bfs_distances`` writes out per-vertex distances.
The battery, the Lewis partitions and the theorem verdicts all read the
same cached structure. The caches never enter ``==`` or ``hash``.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple

INFINITY = math.inf


def _bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph: no self-loops, no multi-edges, labels 0..n-1.

    Instances are immutable after construction and hashable, so they are
    safe to share across workers and to use as cache keys. The private
    ``_dist`` and ``_blocks`` slots are lazily filled caches of derived
    structure, BFS layer masks per source and the block decomposition
    (see the module docstring); equality and hashing ignore them.
    """

    __slots__ = ("n", "_adj", "_dist", "_blocks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) is not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n: int = n
        self._adj: tuple[int, ...] = tuple(adj)
        self._dist: list[tuple[int, ...] | None] | None = None
        self._blocks: BlockDecomposition | None = None

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "Graph":
        """Trusted constructor from adjacency bitmasks (no validation)."""
        g = object.__new__(cls)
        g.n = n
        g._adj = tuple(masks)
        g._dist = None
        g._blocks = None
        return g

    @property
    def adjacency_masks(self) -> tuple[int, ...]:
        return self._adj

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")
        return self._adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")
        return tuple(_bits(self._adj[v]))

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex pair ({u}, {v}) out of range")
        return bool(self._adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self._adj[u]) if u < v]

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"<Graph n={self.n} m={self.edge_count}>"


def _require_vertices(g: Graph, what: str) -> None:
    if g.n == 0:
        raise ValueError(f"{what} is undefined for the empty graph")


def degree_multiset(g: Graph) -> tuple[int, ...]:
    """All vertex degrees, sorted descending."""
    return tuple(sorted((m.bit_count() for m in g._adj), reverse=True))


def all_degrees_odd(g: Graph) -> bool:
    _require_vertices(g, "all_degrees_odd")
    return all(m.bit_count() & 1 for m in g._adj)


def all_degrees_even(g: Graph) -> bool:
    _require_vertices(g, "all_degrees_even")
    return not any(m.bit_count() & 1 for m in g._adj)


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Maximal connected vertex sets, ordered by smallest member."""
    components: list[frozenset[int]] = []
    unassigned = (1 << g.n) - 1
    while unassigned:
        component = sum(_layers(g, (unassigned & -unassigned).bit_length() - 1))
        components.append(frozenset(_bits(component)))
        unassigned ^= component
    return components


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or sum(_layers(g, 0)) == (1 << g.n) - 1


def _layers(g: Graph, source: int) -> tuple[int, ...]:
    """Cached BFS layers from ``source``: entry d is the mask of the
    vertices at distance d, and unreachable vertices are in no entry
    (unchecked; callers validate)."""
    cache = g._dist
    if cache is None:
        cache = g._dist = [None] * g.n
    layers = cache[source]
    if layers is None:
        layers = cache[source] = _bfs_layers(g._adj, g.n, source)
    return layers


def _bfs_layers(adj: tuple[int, ...], n: int, source: int) -> tuple[int, ...]:
    # Direction-optimizing BFS (Beamer, Asanovic and Patterson, SC 2012):
    # expand the frontier top-down while it is the smaller side, else let
    # each unseen vertex look for a frontier neighbor. On the dense
    # graphs the battery sees, the frontier after one step is most of
    # the graph and the unseen side is a handful of vertices.
    frontier = 1 << source
    unseen = ((1 << n) - 1) ^ frontier
    layers = [frontier]
    while unseen:
        nxt = 0
        if frontier.bit_count() <= unseen.bit_count():
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            nxt &= unseen
        else:
            rest = unseen
            while rest:
                low = rest & -rest
                if adj[low.bit_length() - 1] & frontier:
                    nxt |= low
                rest ^= low
        if not nxt:
            break
        unseen ^= nxt
        frontier = nxt
        layers.append(nxt)
    return tuple(layers)


def bfs_distances(g: Graph, source: int) -> list[int | float]:
    """Shortest-path distances from ``source``; unreachable -> inf.

    The only place a per-vertex distance list is built: a fresh list
    per call, written out from the cached BFS layers, so callers may
    mutate it.
    """
    if not 0 <= source < g.n:
        raise ValueError(f"vertex {source} out of range 0..{g.n - 1}")
    dist: list[int | float] = [INFINITY] * g.n
    for d, layer in enumerate(_layers(g, source)):
        for v in _bits(layer):
            dist[v] = d
    return dist


def eccentricity(g: Graph, v: int) -> int | float:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range 0..{g.n - 1}")
    layers = _layers(g, v)
    return len(layers) - 1 if sum(layers) == (1 << g.n) - 1 else INFINITY


def diameter(g: Graph) -> int | float:
    """Largest pairwise distance; inf when disconnected, 0 for n=1."""
    _require_vertices(g, "diameter")
    if not is_connected(g):
        return INFINITY
    return max(len(_layers(g, v)) for v in range(g.n)) - 1


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``vertices``, relabeled 0..k-1.

    Returns the subgraph together with the label map: position i of the
    returned tuple is the original label of new vertex i (original labels
    in increasing order).
    """
    labels = tuple(sorted(set(vertices)))
    for v in labels:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range 0..{g.n - 1}")
    index = {v: i for i, v in enumerate(labels)}
    masks = [0] * len(labels)
    for i, v in enumerate(labels):
        for w in _bits(g._adj[v]):
            j = index.get(w)
            if j is not None:
                masks[i] |= 1 << j
    return Graph.from_masks(len(labels), masks), labels


def is_complete(g: Graph) -> bool:
    _require_vertices(g, "is_complete")
    full = (1 << g.n) - 1
    return all(g._adj[v] == full ^ (1 << v) for v in range(g.n))


def is_regular(g: Graph) -> tuple[bool, int | None]:
    """Whether all degrees are equal; returns (True, k) or (False, None)."""
    _require_vertices(g, "is_regular")
    k = g._adj[0].bit_count()
    for m in g._adj:
        if m.bit_count() != k:
            return False, None
    return True, k


def is_eulerian(g: Graph) -> bool:
    """Standard reading: connected and every vertex of even degree."""
    _require_vertices(g, "is_eulerian")
    return is_connected(g) and all_degrees_even(g)


class BlockDecomposition(NamedTuple):
    """Blocks (maximal 2-connected subgraphs, bridge edges, or isolated
    vertices) together with the cut vertices."""

    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Lowpoint (Hopcroft-Tarjan) block/cut-vertex decomposition.

    Every edge lies in exactly one block; isolated vertices form
    singleton blocks. Blocks are returned sorted by vertex content.
    Computed once per graph and cached on it.
    """
    if g._blocks is None:
        g._blocks = _decompose(g.n, g._adj)
    return g._blocks


def _decompose(n: int, adj: tuple[int, ...]) -> BlockDecomposition:
    # Iterative DFS with a vertex stack. When a vertex w is discovered,
    # its discovered neighbors are exactly its ancestors, so its back
    # edges are settled at once: low[w] starts at the discovery time of
    # the shallowest ancestor adjacent to w other than its parent.
    disc = [0] * n
    low = [0] * n
    blocks: list[frozenset[int]] = []
    cuts: set[int] = set()
    timer = 0
    discovered = 0

    for root in range(n):
        if discovered >> root & 1:
            continue
        discovered |= 1 << root
        if adj[root] == 0:
            blocks.append(frozenset((root,)))
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        path = [root]  # the DFS stack: root down to the current vertex
        pending: list[int] = []  # discovered vertices not yet in a block
        while path:
            v = path[-1]
            fresh = adj[v] & ~discovered
            if fresh:
                low_bit = fresh & -fresh
                w = low_bit.bit_length() - 1
                disc[w] = low[w] = timer
                timer += 1
                if adj[w] & discovered & ~(1 << v):
                    for a in path:
                        if adj[w] >> a & 1:
                            low[w] = disc[a]
                            break
                discovered |= low_bit
                if v == root:
                    root_children += 1
                path.append(w)
                pending.append(w)
                continue
            path.pop()
            if not path:
                break
            u = path[-1]
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] >= disc[u]:
                if u != root:
                    cuts.add(u)
                members = {u}
                while True:
                    x = pending.pop()
                    members.add(x)
                    if x == v:
                        break
                blocks.append(frozenset(members))
        if root_children >= 2:
            cuts.add(root)

    blocks.sort(key=sorted)
    return BlockDecomposition(tuple(blocks), frozenset(cuts))


def cut_vertices(g: Graph) -> frozenset[int]:
    return block_decomposition(g).cut_vertices


def is_block(g: Graph) -> bool:
    """Whole graph is a single block: connected and without cut vertices.

    A single vertex and a single edge both count as blocks; a disconnected
    graph or one with a cut vertex decomposes into two or more.
    """
    _require_vertices(g, "is_block")
    return len(block_decomposition(g).blocks) == 1
