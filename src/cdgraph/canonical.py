"""Canonical forms and isomorphism testing for small graphs.

The canonical form of a graph is the graph6 encoding of a canonical
relabeling, computed in two stages:

1. iterated degree refinement (1-dimensional Weisfeiler-Leman): the
   vertices start in cells by degree, and each round splits every cell
   by its members' neighbor counts in the cells that the previous round
   created, less the last piece of each split (McKay and Piperno 2014;
   Hopcroft 1971). A cell the previous round left whole cannot split
   anything: it was a cell the round before too, and the members of
   every cell were grouped by equal counts in those. A dropped piece
   cannot either: a member's count in it is its count in the parent
   cell less its counts in the sibling pieces. The pieces are ordered
   by an invariant rule, so the order of the cells (a vertex's color is
   the index of its cell) depends only on the isomorphism type, never on
   the input labeling;
2. the lexicographically smallest upper-triangle bit string over all
   vertex orders that list the color classes in canonical order and
   permute freely inside each class.

A discrete coloring, every vertex alone in its cell, allows one order,
its cells in color order, and stage 2 reads that order's code without
a search, off lanes: lane v of one n*n-bit int holds v's adjacency to
the vertices placed so far, the first placed most significant, and is
v's code row when v is placed. Placing a vertex shifts every lane up
one bit and brings in the vertex's column of the adjacency matrix, two
big-int operations per vertex. At n <= 8, 36% of the generator's
candidates refine to a discrete coloring.

Every other coloring goes through a depth-first branch-and-bound search
that opens the cells in color order. A singleton cell is placed
directly. A cell of pairwise twins (vertices whose neighborhoods agree
apart from each other) needs no branching: the transpositions of twins
are automorphisms that fix every vertex outside the cell, so every
order of its members gives the same code, and the members ascending
give it. When every cell is a twin class, the search never branches: at
n <= 8 that holds for another 46% of the generator's candidates.

Elsewhere the search branches and bounds. It extends
an order one position at a time, taking forced steps (one candidate with
the minimal next row) in a loop, branching only on candidates that tie,
and abandoning a branch as soon as its next row exceeds the best code's
row there. A twin cell is placed in one step wherever the search meets
it: its members share one row against the prefix, and each later member
adds one bit per member placed before it, 1 for true twins and 0 for
false ones. Elsewhere rows are computed against the whole prefix only at
a cell's first position: a row against a longer prefix is the shorter
row with one more bit, the adjacency to the vertex just placed, so the
cell's unused members carry their rows to the next position, in a forced
step and into each child of a tie. A member whose row exceeded the least
still exceeds it one bit later, so the least rows and the ties are those
of rows computed afresh. Two complete orders with equal codes give an
automorphism of the graph (McKay and Piperno 2014): it is kept as a
generator, and the search backtracks to where the two orders part,
because it maps the explored branch there onto the current one. At a tie
it skips candidates in the orbit of an explored one under the stored
generators that fix the current prefix pointwise, and under the
transpositions of twins, which prune before any automorphism is known.
Every pruning step maps skipped orders onto explored ones with the same
code, so the minimum, and every form, is the one an exhaustive search
over the same orders finds. The search stays exponential on large sparse
vertex-transitive graphs, which have no twins: one ``canonical_form`` of
C16 takes 0.11-0.13 s (Python 3.11, one core of a 2-vCPU VM). Exactness
for the package's working range is cross-checked in the test suite
against brute-force permutation search, a breadth-first frontier search
over the same orders, and known isomorphism-class counts.
"""

from __future__ import annotations

from .formats import GRAPH6_MAX_N, graph6_bytes_from_rows
from .graph import Graph, degree_multiset


def refined_colors(n: int, adj: tuple[int, ...]) -> list[int]:
    """Stable iterated-degree coloring, as its cells: vertex masks in a
    relabeling-invariant order, the ordered partition of McKay and
    Piperno (2014). A vertex's color is the index of its cell.

    The cells start as the degree classes, by increasing degree. Each
    round splits every non-singleton cell by its members' neighbor counts
    in the splitters: every degree cell but the last in round 1,
    afterwards the pieces the previous round created, less the last piece
    of each split. A cell that round left whole cannot split anything,
    because every cell's members were grouped by equal counts in it
    (McKay and Piperno 2014). Nor can a dropped piece (Hopcroft 1971):
    a member's count in it is its count in the parent cell (or its
    degree, in round 1), which is the same for every member of a cell,
    less its counts in the sibling pieces, so the groups are the same.
    A member's key packs its counts in splitter order, ``n.bit_length()``
    bits each, and the pieces replace their cell in place by decreasing
    key, which is the order of ``(color, sorted neighbor colors)``.
    Dropping the *last* piece of each group of siblings keeps that order:
    two members of a cell that agree on a group's other pieces agree on
    its last one too, so the first count where their keys differ is the
    same with or without it. (Dropping the first piece would not.) A
    two-member cell splits at the first splitter where its members'
    counts differ, which is where their keys differ. Refinement stops once
    the coloring is discrete or there is no splitter: a regular graph
    keeps its one cell, and a round that splits no cell creates none.
    Splitting in place keeps the degree order between cells, so the last
    cell holds vertices of maximum degree only.
    """
    by_degree = [0] * n
    for v, a in enumerate(adj):
        by_degree[a.bit_count()] |= 1 << v
    cells = [cell for cell in by_degree if cell]
    splitters = cells[:-1]
    width = n.bit_length()
    while splitters and len(cells) < n:
        refined: list[int] = []
        pieces: list[int] = []
        for cell in cells:
            if not cell & (cell - 1):
                refined.append(cell)
                continue
            low = cell & -cell
            rest = cell ^ low
            if not rest & (rest - 1):
                # Two members: their keys part at the first splitter
                # where their counts differ.
                a = adj[low.bit_length() - 1]
                b = adj[rest.bit_length() - 1]
                for s in splitters:
                    diff = (a & s).bit_count() - (b & s).bit_count()
                    if diff:
                        break
                else:
                    refined.append(cell)
                    continue
                if diff > 0:
                    refined += (low, rest)
                    pieces.append(low)
                else:
                    refined += (rest, low)
                    pieces.append(rest)
                continue
            groups: dict[int, int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                a = adj[low.bit_length() - 1]
                key = 0
                for s in splitters:
                    key = key << width | (a & s).bit_count()
                groups[key] = groups.get(key, 0) | low
            if len(groups) == 1:
                refined.append(cell)
            else:
                split = [groups[key] for key in sorted(groups, reverse=True)]
                refined += split
                pieces += split[:-1]
        cells = refined
        splitters = pieces
    return cells


def _orbits(seeds: int, generators: list[list[int]]) -> int:
    # The union of the orbits of the vertices in ``seeds`` under the
    # group the generators generate, as a mask.
    mask = seeds
    todo = [v for v in range(mask.bit_length()) if mask >> v & 1]
    while todo:
        v = todo.pop()
        for perm in generators:
            w = perm[v]
            if not mask >> w & 1:
                mask |= 1 << w
                todo.append(w)
    return mask


def _min_code_rows(n: int, adj: tuple[int, ...]) -> list[int]:
    """Rows 1..n-1 of the least code: row i holds the adjacency of the
    i-th vertex of the order to the vertices before it, first one first.

    A discrete coloring, every vertex alone in its cell, allows one
    order, its cells in color order, and takes no search. Its rows are
    read off lanes: lane v of one n*n-bit int (bits v*n .. v*n+n-1)
    holds v's adjacency to the vertices placed so far, the first placed
    most significant, so v's row is its lane when v is placed. Placing x
    shifts every lane up one bit and brings in column x of the adjacency
    matrix (row s is ``adj[s]``), whose bits go one to a lane by the
    carry-free idiom of ``graph._distance_layers``; a lane holds at most
    n bits, so no shift reaches the next lane.

    Any other coloring goes to the search, which opens the refined cells
    in color order and places each singleton directly.

    A cell of pairwise twins is placed in one step, its members
    ascending: the transpositions of twins are automorphisms that fix
    the vertices before the cell and generate every permutation inside
    it, so every order of the cell gives the same code. Every member has
    the same row against the prefix, and the k-th member's row is that
    row with k more bits, all 1 for true twins and all 0 for false ones.
    (Twin-ness is transitive inside a cell: a vertex cannot have both a
    true twin, adjacent to it, and a false twin, not adjacent to it,
    because the false twin would be adjacent to the true twin and so to
    the vertex.) If every cell is a twin class, the search takes one
    frame and never branches. The rows a twin cell places are compared
    with the best code's like any others: under the stable coloring they
    are the same in every branch, but the comparison keeps the search
    exact for any coloring.
    """
    cells = refined_colors(n, adj)
    if len(cells) < n:
        best_rows: list[int] = []
        _search(n, adj, cells, best_rows, [], [], [], [], False, [], 0)
        return best_rows[1:]
    full = (1 << n) - 1
    column = ((1 << n * n) - 1) // full if n else 0  # bit 0 of every row
    matrix = sum(mask << s * n for s, mask in enumerate(adj))
    lanes = 0
    rows = []
    for cell in cells:
        x = cell.bit_length() - 1
        rows.append(lanes >> x * n & full)
        lanes = lanes << 1 | (matrix >> x & column)
    return rows[1:]


def _search(
    n: int,
    adj: tuple[int, ...],
    cells: list[int],
    best_rows: list[int],
    best_order: list[int],
    generators: list[list[int]],
    order: list[int],
    rows: list[int],
    tight: bool,
    pending: list[tuple[int, int]],
    k: int,
) -> int:
    # Extend ``order`` depth-first and return the position to backtrack
    # to: n, or the position where an automorphism just found maps an
    # explored branch onto the current one. ``tight`` says that the code
    # so far equals the best code's prefix. ``pending`` holds (row, v)
    # for the unused members of the cell being filled, in cell order,
    # each row against the whole of ``order``; it is empty at a cell's
    # first position, where ``cells[k]`` is the cell to open. The best
    # code, its order and the automorphisms found are written into
    # ``best_rows``, ``best_order`` and ``generators``.
    pos = len(order)
    while pos < n:
        if not pending:
            cell = cells[k]
            k += 1
            low = cell & -cell
            v = low.bit_length() - 1
            av = adj[v]
            row = 0
            for u in order:
                row = row << 1 | (av >> u & 1)
            rest = cell ^ low
            if not rest:
                # A singleton: placed directly.
                if tight:
                    if row > best_rows[pos]:
                        return n
                    tight = row == best_rows[pos]
                order.append(v)
                rows.append(row)
                pos += 1
                continue
            others = rest
            while others:
                w = others & -others
                if (av ^ adj[w.bit_length() - 1]) & ~(low | w):
                    break
                others ^= w
            if not others:
                # A twin cell: place it in one step. Each member after
                # the first has its predecessor's row and one more bit,
                # 1 for true twins and 0 for false ones.
                fill = 1 if av & rest else 0
                while cell:
                    low = cell & -cell
                    cell ^= low
                    if tight:
                        if row > best_rows[pos]:
                            return n
                        tight = row == best_rows[pos]
                    order.append(low.bit_length() - 1)
                    rows.append(row)
                    row = row << 1 | fill
                    pos += 1
                continue
            pending = [(row, v)]
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                av = adj[v]
                row = 0
                for u in order:
                    row = row << 1 | (av >> u & 1)
                pending.append((row, v))
        least = -1
        tied: list[int] = []
        for row, v in pending:
            if least < 0 or row < least:
                least = row
                tied = [v]
            elif row == least:
                tied.append(v)
        if tight:
            if least > best_rows[pos]:
                return n
            tight = least == best_rows[pos]
        if len(tied) > 1:
            break
        x = tied[0]
        order.append(x)
        rows.append(least)
        # Each row gains one bit, read off the symmetric adj[x].
        near = adj[x]
        extended: list[tuple[int, int]] = []
        for row, v in pending:
            if v != x:
                extended.append((row << 1 | (near >> v & 1), v))
        pending = extended
        pos += 1
    else:
        if not tight:
            best_rows[:] = rows
            best_order[:] = order
            return n
        # Equal codes: best_order[i] -> order[i] is an automorphism. It
        # maps the explored branch at the first position where the
        # orders differ onto the current one, so search resumes there.
        perm = list(range(n))
        for b, v in zip(best_order, order):
            perm[b] = v
        generators.append(perm)
        level = 0
        while best_order[level] == order[level]:
            level += 1
        return level

    rows.append(least)
    # Skip candidates in the orbit of an explored one, under the stored
    # automorphisms that fix ``order`` and under the swaps of twins.
    skip = 0
    fixing: list[list[int]] = []
    seen = 0
    for v in tied:
        if seen < len(generators):
            for p in generators[seen:]:
                for u in order:
                    if p[u] != u:
                        break
                else:
                    fixing.append(p)
            seen = len(generators)
            skip = _orbits(skip, fixing)
        if skip >> v & 1:
            continue
        av = adj[v]
        for w in tied:
            # Marks v and its twins: swapping v and w is an automorphism
            # iff their adjacencies agree off {v, w}.
            if (av ^ adj[w]) & ~(1 << v | 1 << w) == 0:
                skip |= 1 << w
        if fixing:
            skip = _orbits(skip, fixing)
        order.append(v)
        child: list[tuple[int, int]] = []
        for row, w in pending:
            if w != v:
                child.append((row << 1 | (av >> w & 1), w))
        level = _search(n, adj, cells, best_rows, best_order, generators, order, rows, tight, child, k)
        del order[pos:]
        del rows[pos + 1 :]
        if level < pos:
            return level
        # The best code now shares the prefix through this position.
        tight = True
    return n


def canonical_form(g: Graph) -> bytes:
    """Relabeling-invariant graph6 bytes; equal iff graphs are isomorphic."""
    n = g.n
    if n > GRAPH6_MAX_N:
        raise ValueError(f"canonical form supports n <= {GRAPH6_MAX_N}")
    return graph6_bytes_from_rows(n, _min_code_rows(n, g.adjacency_masks))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if degree_multiset(g) != degree_multiset(h):
        return False
    return canonical_form(g) == canonical_form(h)
