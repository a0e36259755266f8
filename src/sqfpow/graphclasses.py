"""Recognition of the structured graph classes and their decompositions.

Covers chordal / weakly chordal recognition, free (simplicial) vertices,
block decompositions with leaf / distant-leaf / special-block flags,
block paths through the block-cut tree, Cohen-Macaulay clique
partitions, and the colon graph of an edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypergraphs import BudgetError, Graph, InputError, vertices_of
from .ideals import SquareFreeIdeal

WEAKLY_CHORDAL_MAX_VERTICES = 16


def free_vertices(G: Graph) -> int:
    """Mask of simplicial vertices: N(v) induces a complete graph."""
    out = 0
    for v in range(G.n):
        nv = G.adj[v]
        m = nv
        ok = True
        while m:
            low = m & -m
            u = low.bit_length() - 1
            if nv & ~low & ~G.adj[u]:
                ok = False
                break
            m ^= low
        if ok:
            out |= 1 << v
    return out


def is_chordal(G: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """Maximum cardinality search; reversed visit order checked as a PEO.

    Returns (True, peo) with a certified perfect elimination ordering,
    or (False, None).
    """
    n = G.n
    weight = [0] * n
    visited = 0
    order = []
    for _ in range(n):
        best, best_w = -1, -1
        for v in range(n):
            if visited >> v & 1:
                continue
            if weight[v] > best_w:
                best, best_w = v, weight[v]
        visited |= 1 << best
        order.append(best)
        m = G.adj[best] & ~visited
        while m:
            low = m & -m
            weight[low.bit_length() - 1] += 1
            m ^= low
    peo = tuple(reversed(order))
    pos = [0] * n
    for i, v in enumerate(peo):
        pos[v] = i
    later = [0] * n
    acc = 0
    for i in range(n - 1, -1, -1):
        later[i] = acc
        acc |= 1 << peo[i]
    for i, v in enumerate(peo):
        up = G.adj[v] & later[i]
        if not up:
            continue
        w = min(vertices_of(up), key=lambda u: pos[u])
        if up & ~(1 << w) & ~G.adj[w]:
            return False, None
    return True, peo


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
    """All maximal cliques (Bron-Kerbosch with pivoting), sorted as masks."""
    cliques: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if not p and not x:
            cliques.append(r)
            return
        pool = p | x
        pivot, best = -1, -1
        m = pool
        while m:
            low = m & -m
            u = low.bit_length() - 1
            deg = (G.adj[u] & p).bit_count()
            if deg > best:
                pivot, best = u, deg
            m ^= low
        m = p & ~G.adj[pivot]
        while m:
            low = m & -m
            v = low.bit_length() - 1
            bk(r | low, p & G.adj[v], x & G.adj[v])
            p &= ~low
            x |= low
            m ^= low

    if G.n:
        bk(0, (1 << G.n) - 1, 0)
    return sorted(cliques)


def is_block_graph(G: Graph) -> bool:
    """Chordal and any two maximal cliques share at most one vertex."""
    ok, _ = is_chordal(G)
    if not ok:
        return False
    cliques = maximal_cliques(G)
    for i, a in enumerate(cliques):
        for b in cliques[:i]:
            if (a & b).bit_count() > 1:
                return False
    return True


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (= maximal cliques) of a block graph, with all the flags."""

    blocks: tuple[int, ...]
    cut_vertices: int
    neighbors: tuple[tuple[int, ...], ...]
    leaf: tuple[bool, ...]
    distant_leaf: tuple[bool, ...]
    special_type: tuple[str, ...]

    def block_index(self, mask: int) -> int:
        try:
            return self.blocks.index(mask)
        except ValueError:
            raise InputError(f"{vertices_of(mask)} is not a block") from None


def _attachment_profile(blocks: tuple[int, ...], b: int):
    """Per vertex of block b: the other blocks attached there."""
    mask = blocks[b]
    loaded = []
    bad = []
    attached: dict[int, list[int]] = {}
    for v in vertices_of(mask):
        others = [
            j for j, other in enumerate(blocks) if j != b and other >> v & 1
        ]
        attached[v] = others
        if others:
            loaded.append(v)
            if any(blocks[j].bit_count() != 2 for j in others):
                bad.append(v)
    return attached, loaded, bad


def _special_type(d: int, loaded: list[int], bad: list[int]) -> str:
    if d <= 2 and not loaded:
        return "I"
    if d >= 3 and len(loaded) <= 1:
        return "II"
    if d >= 2 and loaded and len(bad) <= 1 and set(loaded) - set(bad):
        return "III"
    return "none"


def block_decomposition(G: Graph) -> BlockDecomposition:
    """Blocks with leaf / distant-leaf / special flags; rejects non-block graphs."""
    if not is_block_graph(G):
        raise InputError("not a block graph")
    blocks = tuple(maximal_cliques(G))
    counts = [0] * G.n
    for blk in blocks:
        for v in vertices_of(blk):
            counts[v] += 1
    cut = sum(1 << v for v in range(G.n) if counts[v] >= 2)
    neighbors = tuple(
        tuple(j for j, other in enumerate(blocks) if j != i and other & blk)
        for i, blk in enumerate(blocks)
    )
    free = free_vertices(G)
    leaf = tuple(
        (blk & free).bit_count() >= blk.bit_count() - 1 for blk in blocks
    )
    distant = tuple(
        leaf[i] and sum(1 for j in neighbors[i] if not leaf[j]) <= 1
        for i in range(len(blocks))
    )
    special = []
    for i, blk in enumerate(blocks):
        _, loaded, bad = _attachment_profile(blocks, i)
        special.append(_special_type(blk.bit_count(), loaded, bad))
    return BlockDecomposition(blocks, cut, neighbors, leaf, distant, tuple(special))


def special_blocks(G: Graph) -> list[tuple[int, str]]:
    """All blocks qualifying as special, with the strongest type (I > II > III)."""
    dec = block_decomposition(G)
    return [
        (blk, typ)
        for blk, typ in zip(dec.blocks, dec.special_type)
        if typ != "none"
    ]


def block_path(G: Graph, b1: int, b2: int) -> tuple[int, ...]:
    """The unique block path between two blocks of a connected block graph.

    Blocks are addressed by index into block_decomposition(G).blocks.
    """
    dec = block_decomposition(G)
    if b1 == b2:
        raise InputError("block path endpoints must differ")
    nb = len(dec.blocks)
    if not (0 <= b1 < nb and 0 <= b2 < nb):
        raise InputError("block index out of range")
    # block-cut tree: block nodes 0..nb-1, cut-vertex nodes nb + v
    adj: dict[int, list[int]] = {}
    for i, blk in enumerate(dec.blocks):
        for v in vertices_of(blk & dec.cut_vertices):
            adj.setdefault(i, []).append(nb + v)
            adj.setdefault(nb + v, []).append(i)
    prev = {b1: None}
    queue = [b1]
    while queue:
        node = queue.pop(0)
        if node == b2:
            break
        for nxt in adj.get(node, []):
            if nxt not in prev:
                prev[nxt] = node
                queue.append(nxt)
    if b2 not in prev:
        raise InputError("blocks lie in different components")
    path = []
    node: int | None = b2
    while node is not None:
        if node < nb:
            path.append(node)
        node = prev[node]
    return tuple(reversed(path))


# -- special-block labelings and the pendant-K2 ideal ------------------------


def lambda_blocks(
    G: Graph, block_mask: int, u_last: int | None = None
) -> tuple[int, tuple[int, ...]]:
    """(u_last, Λ): the distinguished vertex and the pendant K2 blocks.

    The labeling must be admissible: every attachment at a vertex other
    than u_last is a K2 block.  The default u_last realizes the block's
    reported special type (Type II: the loaded vertex, so Λ = ∅; Type
    III: maximize |Λ|, ties to the smallest vertex).
    """
    dec = block_decomposition(G)
    b = dec.block_index(block_mask)
    typ = dec.special_type[b]
    if typ == "none":
        raise InputError(f"block {vertices_of(block_mask)} is not special")
    attached, loaded, bad = _attachment_profile(dec.blocks, b)
    verts = vertices_of(block_mask)
    if u_last is None:
        if typ in ("I", "II"):
            u_last = loaded[0] if loaded else verts[0]
        else:
            candidates = bad if bad else list(verts)
            u_last = min(
                candidates,
                key=lambda v: (sum(len(attached[u]) for u in verts if u != v) * -1, v),
            )
    if not block_mask >> u_last & 1:
        raise InputError(f"u_last={u_last} is not a vertex of the block")
    if any(v in bad for v in verts if v != u_last):
        raise InputError(f"labeling with u_last={u_last} is not admissible")
    lam = []
    for v in verts:
        if v == u_last:
            continue
        lam.extend(dec.blocks[j] for j in attached[v])
    return u_last, tuple(sorted(lam))


def lambda_ideal(
    G: Graph, block_mask: int, S, u_last: int | None = None
) -> SquareFreeIdeal:
    """I_{S,B} = <xy | {x,y} = V(D) for some D in S>, S a subset of Λ."""
    _, lam = lambda_blocks(G, block_mask, u_last)
    masks = []
    for d in S:
        mask = d if isinstance(d, int) else sum(1 << v for v in d)
        if mask not in lam:
            raise InputError(f"{vertices_of(mask)} is not a member of Λ")
        masks.append(mask)
    return SquareFreeIdeal(G.n, masks)


# -- Cohen-Macaulay chordal recognition --------------------------------------


def cm_clique_partition(G: Graph) -> tuple[int, ...] | None:
    """A partition of V into maximal cliques each holding a free vertex.

    Exact-cover search over the admissible cliques, branching on the
    uncovered vertex with the fewest candidates; None if no witness
    exists (in particular for non-chordal G).
    """
    ok, _ = is_chordal(G)
    if not ok:
        return None
    free = free_vertices(G)
    cands = [c for c in maximal_cliques(G) if c & free]

    def rec(uncovered: int, acc: list[int]) -> tuple[int, ...] | None:
        if not uncovered:
            return tuple(sorted(acc))
        best_v, best_list = -1, None
        m = uncovered
        while m:
            low = m & -m
            v = low.bit_length() - 1
            lst = [c for c in cands if c >> v & 1 and not c & ~uncovered]
            if best_list is None or len(lst) < len(best_list):
                best_v, best_list = v, lst
                if not lst:
                    return None
            m ^= low
        for c in best_list:
            acc.append(c)
            got = rec(uncovered & ~c, acc)
            if got is not None:
                return got
            acc.pop()
        return None

    return rec((1 << G.n) - 1, [])


def is_cm_chordal(G: Graph) -> bool:
    return cm_clique_partition(G) is not None


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
