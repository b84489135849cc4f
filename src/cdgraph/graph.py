"""Immutable simple undirected graphs on dense vertex labels 0..n-1.

Adjacency is stored as one bitmask per vertex, so the structural
predicates used by the solvable-group checks (degrees, distances,
components, blocks) are single-word operations for the graph orders
this package targets.

Distances and blocks are computed at most once per ``Graph`` and cached
on it, each by one traversal the first time some function asks for it.
Distances come from one all-sources BFS over n*n-bit layer matrices:
entry d of the matrices ``_distance_layers`` returns holds, in row s,
the mask of the vertices at distance d from s. Layer 0 is the identity,
layer 1 the adjacency matrix, and each later layer one boolean matrix
product done as a shift, a mask and a multiply per vertex, so the pass
costs a few big-int operations per vertex and layer, whatever the
number of sources; it keeps one n*n-bit int per layer, about 0.5 KB at
the graph6 limit n = 62. The same pass records whether the graph is
connected (every row full at the end), and ``is_connected``, the
diameter, the periphery and eccentricities read that flag instead of
summing rows. Components, eccentricities and the Lewis layers read
rows of the matrices, the periphery folds the last one's rows into one
mask, and ``is_block`` reads the block count, so ``_distance_layers``
and ``_decompose`` are this module's only traversals, and only
``bfs_distances`` writes the cached layers out as per-vertex distances
(the canonical-form search runs its own single-source BFS on adjacency
masks, with no ``Graph`` to cache on). The battery, the Lewis
partitions and the theorem verdicts all read the same cached structure.
A graph that ``decode_graph6`` built also keeps the bytes it was
decoded from, which ``encode_graph6`` returns. The caches never enter
``==`` or ``hash``.
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
    structure, the pair of the distance-layer matrices (entry d holds,
    in row s, the vertices at distance d from s) and the connectivity
    flag, and the block decomposition (see the module docstring), and
    ``_g6`` holds the graph6 bytes a decoded graph came from; equality
    and hashing ignore them.
    """

    __slots__ = ("n", "_adj", "_dist", "_blocks", "_g6")

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
        self._dist: tuple[tuple[int, ...], bool] | None = None
        self._blocks: BlockDecomposition | None = None
        self._g6: bytes | None = None

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "Graph":
        """Trusted constructor from adjacency bitmasks (no validation)."""
        g = object.__new__(cls)
        g.n = n
        g._adj = tuple(masks)
        g._dist = None
        g._blocks = None
        g._g6 = None
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
    return _distance_layers(g)[1]


def _layers(g: Graph, source: int) -> tuple[int, ...]:
    """Row ``source`` of each layer matrix up to the first empty one:
    entry d is the mask of the vertices at distance d from ``source``,
    and unreachable vertices are in no entry (unchecked; callers
    validate)."""
    shift, full = source * g.n, (1 << g.n) - 1
    rows = []
    for layer in _distance_layers(g)[0]:
        row = layer >> shift & full
        if not row:
            break
        rows.append(row)
    return tuple(rows)


def _distance_layers(g: Graph) -> tuple[tuple[int, ...], bool]:
    """The layer matrices of ``g`` and whether it is connected, from one
    all-sources BFS cached on it.

    Entry d of the matrices is an n*n-bit int whose row s (bits
    s*n .. s*n+n-1) masks the vertices at distance d from s; the tuple
    ends before the first level that is empty in every row, so its
    length is one more than the largest distance inside any component.
    The graph is connected when the pass ends with every row full, so
    a graph with at most one vertex is.
    """
    if g._dist is None:
        n, adj = g.n, g._adj
        everything = (1 << n * n) - 1
        column = everything // ((1 << n) - 1) if n else 0  # bit 0 of every row
        seen = ((1 << n * (n + 1)) - 1) // ((2 << n) - 1)  # identity: row s is {s}
        layers = [seen]
        frontier = sum(mask << s * n for s, mask in enumerate(adj))  # the adjacency matrix
        while frontier:
            seen |= frontier
            layers.append(frontier)
            if seen == everything:  # connected: no row has a vertex left to reach
                break
            nxt = 0
            for u, mask in enumerate(adj):
                # Each row whose frontier holds u gets u's neighbours. The
                # product is carry-free because mask < 2**n fits in a row.
                nxt |= (frontier >> u & column) * mask
            frontier = nxt & ~seen
        g._dist = tuple(layers), seen == everything
    return g._dist


def bfs_distances(g: Graph, source: int) -> list[int | float]:
    """Shortest-path distances from ``source``; unreachable -> inf.

    The only reader that writes the cached BFS layers out as a
    per-vertex distance list: a fresh list per call, so callers may
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
    return len(_layers(g, v)) - 1 if _distance_layers(g)[1] else INFINITY


def diameter(g: Graph) -> int | float:
    """Largest pairwise distance; inf when disconnected, 0 for n=1."""
    _require_vertices(g, "diameter")
    layers, connected = _distance_layers(g)
    return len(layers) - 1 if connected else INFINITY


def max_component_diameter(g: Graph) -> int:
    """Largest distance between two vertices of one component: the
    largest component diameter, and the diameter of a connected graph."""
    return len(_distance_layers(g)[0]) - 1


def periphery(g: Graph) -> list[int]:
    """The vertices whose eccentricity is the diameter, in increasing
    order; empty when the graph is disconnected. Distance is symmetric,
    so that is the union of the last layer's rows, which folding the
    matrix in halves gives in about log2(n) big-int operations."""
    layers, connected = _distance_layers(g)
    if not connected:
        return []
    n, rows, last = g.n, g.n, layers[-1]
    while rows > 1:
        half = (rows + 1) // 2
        last = (last & ((1 << half * n) - 1)) | last >> half * n
        rows = half
    return list(_bits(last))


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
    index = {v: 1 << i for i, v in enumerate(labels)}  # original label -> new label's bit
    members = sum(1 << v for v in labels)
    masks = [sum(index[w] for w in _bits(g._adj[v] & members)) for v in labels]
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
        # Discovered vertices not yet in a block, each once and in order of
        # discovery: the block a child v closes is u and the tail from v.
        pending: list[int] = []
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
                i = pending.index(v)
                blocks.append(frozenset((u, *pending[i:])))
                del pending[i:]
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
