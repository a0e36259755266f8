"""Recognition of the structured graph classes and their decompositions.

Covers chordal / weakly chordal recognition, free (simplicial) vertices,
block decompositions with leaf / distant-leaf / special-block flags,
Cohen-Macaulay clique partitions, and the colon graph of an edge.

One maximum cardinality search gives everything chordal: its reversed
visit order is a perfect elimination ordering (PEO) exactly when G is
chordal, and each vertex with its later neighbours in that order is a
clique, so the maximal cliques are those sets not contained in an
earlier one.  `maximal_cliques` therefore takes chordal graphs only.
The Cohen-Macaulay partition needs no search: a free vertex v lies in
exactly one maximal clique, N[v], so a partition of V into maximal
cliques each holding a free vertex can only be {N[v] : v free}
(Herzog-Hibi-Zheng 2006, Thm 2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_

from .hypergraphs import BudgetError, Graph, InputError, vertices_of

WEAKLY_CHORDAL_MAX_VERTICES = 16


def _is_clique(adj: tuple[int, ...], mask: int) -> bool:
    """The vertices of mask are pairwise adjacent."""
    m = mask
    while m:
        low = m & -m
        if mask & ~low & ~adj[low.bit_length() - 1]:
            return False
        m ^= low
    return True


def free_vertices(G: Graph) -> int:
    """Mask of simplicial vertices: N(v) induces a complete graph."""
    return sum(1 << v for v in range(G.n) if _is_clique(G.adj, G.adj[v]))


def _chordal_pass(G: Graph) -> tuple[tuple[int, ...], list[int]] | None:
    """(peo, sorted maximal cliques) from one maximum cardinality search.

    The reversed visit order is a PEO when the later neighbours `up` of
    every vertex v form a clique; the maximal cliques are the sets v | up
    not contained in an earlier one.  None when G is not chordal.
    """
    weight = [0] * G.n
    unvisited = list(range(G.n))
    order = []
    while unvisited:
        best = max(unvisited, key=weight.__getitem__)
        unvisited.remove(best)
        order.append(best)
        for u in unvisited:
            weight[u] += G.adj[best] >> u & 1
    peo = tuple(reversed(order))
    cliques: list[int] = []
    later = (1 << G.n) - 1
    for v in peo:
        later &= ~(1 << v)
        up = G.adj[v] & later
        if not _is_clique(G.adj, up):
            return None
        clique = up | 1 << v
        if not any(clique & ~c == 0 for c in cliques):
            cliques.append(clique)
    return peo, sorted(cliques)


def is_chordal(G: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """(True, peo) with a certified perfect elimination ordering, or (False, None)."""
    got = _chordal_pass(G)
    return (False, None) if got is None else (True, got[0])


def _has_induced_cycle_ge(adj: tuple[int, ...], n: int, length: int) -> bool:
    """Exhaustive DFS for an induced cycle with at least `length` vertices."""
    for a in range(n):
        base_forbidden = (1 << (a + 1)) - 1
        close = adj[a]
        starts = adj[a] & ~base_forbidden

        def rec(u: int, forbidden: int, nv: int) -> bool:
            cand = adj[u] & ~forbidden
            m = cand
            while m:
                low = m & -m
                w = low.bit_length() - 1
                m ^= low
                if close >> w & 1:
                    if nv + 1 >= length:
                        return True
                elif rec(w, forbidden | low | adj[u], nv + 1):
                    return True
            return False

        m = starts
        while m:
            low = m & -m
            b = low.bit_length() - 1
            m ^= low
            if rec(b, base_forbidden | low, 2):
                return True
    return False


def is_weakly_chordal(G: Graph) -> bool:
    """No induced C_m with m >= 5 in G or in its complement (n <= 16)."""
    if G.n > WEAKLY_CHORDAL_MAX_VERTICES:
        raise BudgetError(
            f"weak chordality check budgeted to n <= {WEAKLY_CHORDAL_MAX_VERTICES}"
        )
    if _has_induced_cycle_ge(G.adj, G.n, 5):
        return False
    full = (1 << G.n) - 1
    co_adj = tuple(full & ~row & ~(1 << v) for v, row in enumerate(G.adj))
    return not _has_induced_cycle_ge(co_adj, G.n, 5)


def maximal_cliques(G: Graph) -> list[int]:
    """All maximal cliques of a chordal graph, sorted as masks."""
    got = _chordal_pass(G)
    if got is None:
        raise InputError("maximal cliques are listed for chordal graphs only")
    return got[1]


def _block_cliques(G: Graph) -> list[int] | None:
    """The maximal cliques of a block graph, None when G is not one."""
    got = _chordal_pass(G)
    if got is None or any((a & b).bit_count() > 1 for a, b in combinations(got[1], 2)):
        return None
    return got[1]


def is_block_graph(G: Graph) -> bool:
    """Chordal and any two maximal cliques share at most one vertex."""
    return _block_cliques(G) is not None


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (= maximal cliques) of a block graph, with all the flags."""

    blocks: tuple[int, ...]
    leaf: tuple[bool, ...]
    distant_leaf: tuple[bool, ...]
    special_type: tuple[str, ...]


def _special_type(d: int, loaded: int, bad: int) -> str:
    """Type of a block of size d whose other blocks attach at the vertices
    of `loaded`, a block other than a K2 at those of `bad`."""
    if d <= 2 and not loaded:
        return "I"
    if d >= 3 and loaded.bit_count() <= 1:
        return "II"
    if d >= 2 and loaded and bad.bit_count() <= 1 and loaded & ~bad:
        return "III"
    return "none"


def block_decomposition(G: Graph) -> BlockDecomposition:
    """Blocks with leaf / distant-leaf / special flags; rejects non-block graphs.

    In a block graph a vertex is free exactly when it lies in one block.
    If v lies in one block B, then N[v] = B is a clique.  If v lies in two
    blocks, it has a neighbour in each, and those two are not adjacent:
    else one maximal clique would hold them and v, and share two
    vertices with each block.  Hence the vertices where other blocks attach
    to a block are its non-free vertices, and a leaf has at most one.
    """
    cliques = _block_cliques(G)
    if cliques is None:
        raise InputError("not a block graph")
    blocks = tuple(cliques)
    free = free_vertices(G)
    loaded = [blk & ~free for blk in blocks]
    leaf = tuple(m.bit_count() <= 1 for m in loaded)
    inner = [blk for blk, lf in zip(blocks, leaf) if not lf]
    distant = tuple(
        lf and sum(1 for other in inner if other & blk) <= 1
        for blk, lf in zip(blocks, leaf)
    )
    special = []
    for blk, m in zip(blocks, loaded):
        others = reduce(or_, (b for b in blocks if b != blk and b.bit_count() != 2), 0)
        special.append(_special_type(blk.bit_count(), m, blk & others))
    return BlockDecomposition(blocks, leaf, distant, tuple(special))


# -- Cohen-Macaulay chordal recognition --------------------------------------


def cm_clique_partition(G: Graph) -> tuple[int, ...] | None:
    """A partition of V into maximal cliques each holding a free vertex.

    The only candidate is {N[v] : v free}; it is returned, sorted, when
    G is chordal and those cliques are disjoint and cover V, and None
    otherwise.
    """
    if _chordal_pass(G) is None:
        return None
    parts = sorted({G.adj[v] | 1 << v for v in vertices_of(free_vertices(G))})
    covered = 0
    for p in parts:
        if p & covered:
            return None
        covered |= p
    return tuple(parts) if covered == (1 << G.n) - 1 else None


# -- the colon graph of an edge -----------------------------------------------


def colon_graph(G: Graph, x: int, y: int) -> Graph:
    """G~ with I(G)^[2] : xy = I(G~), on the same universe (x, y isolated)."""
    if not (0 <= x < G.n and 0 <= y < G.n) or not G.has_edge(x, y):
        raise InputError(f"{{{x},{y}}} is not an edge")
    xym = (1 << x) | (1 << y)
    edges = {e for e in G.edges if not e & xym}
    nx_mask = G.adj[x] & ~(1 << y)
    ny_mask = G.adj[y] & ~(1 << x)
    for u in vertices_of(nx_mask):
        for v in vertices_of(ny_mask):
            if u != v:
                edges.add((1 << u) | (1 << v))
    return Graph(G.n, sorted(edges))
