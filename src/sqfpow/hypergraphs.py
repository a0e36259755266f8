"""Bit-vector hypergraphs, graphs, and matching primitives.

Vertices are the integers 0..n-1 and every vertex set is a plain Python
int used as a bit mask, so set algebra is single-word machine arithmetic
at the sizes this package targets (n <= 64).  `masks_of` is the one
range check of the masks a constructor is given, and `minimal_masks` the
one minimality routine: the edges of a simple hypergraph are exactly the
minimal generators of its edge ideal.

Two scans cover the matchings: `walk_matchings` visits every matching
with its forcing parts and its count of induced edges, and
`enumerate_matchings` is the only scan of the matchings of one fixed size
(it gives nu by probes after a greedy matching, decides rigidity for
`admissible` and gives the matching powers of general monomial ideals).
`ideals.sqfree_power` lists no matchings: it builds the distinct
supports V(M) level by level.

Each hypergraph gets one fold over `walk_matchings` (`MatchingFold`):
nu, the largest |M| per defect |M| - c(M) (which gives aim_profile) and
nu1.  Rigidity and L(H,k) live in `admissible`, which keeps its table in
the fold's one free slot.  The fold is memoised for the last hypergraph
seen, by identity: one entry, whatever the number of hypergraphs.
"""

from __future__ import annotations

from itertools import accumulate, groupby
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64


class InputError(ValueError):
    """An input object violates a constructor or operation contract."""


class BudgetError(RuntimeError):
    """Input is structurally valid but exceeds a hard size budget."""


def vertex_set(vertices: Iterable[int], n: int) -> int:
    """Pack vertex indices into a bit mask, range-checked against n.

    A vertex must be an int: a bool, a float or a string is refused."""
    mask = 0
    for v in vertices:
        if type(v) is not int:
            raise InputError(f"vertex {v!r} is not an integer")
        if not 0 <= v < n:
            raise InputError(f"vertex {v} out of range for n={n}")
        mask |= 1 << v
    return mask


def vertices_of(mask: int) -> tuple[int, ...]:
    """Unpack a bit mask into the sorted tuple of its vertex indices."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def masks_of(n: int, items: Sequence) -> list[int]:
    """Check n against MAX_VERTICES and turn items (int masks or vertex
    lists) into masks, range-checked against n."""
    if not 0 <= n <= MAX_VERTICES:
        raise InputError(f"universe size {n} not in 0..{MAX_VERTICES}")
    masks = [x if type(x) is int else vertex_set(x, n) for x in items]
    if masks and (min(masks) < 0 or max(masks) >> n):
        bad = next(m for m in masks if m < 0 or m >> n)
        raise InputError(f"mask {bad:#x} out of range for n={n}")
    return masks


def minimal_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """The minimal masks under inclusion, duplicates dropped, by (degree, mask).

    Distinct masks of one degree never contain each other, so masks of one
    degree need no test, and otherwise each mask is tested only against the
    kept masks of strictly lower degree: a mask of degree d by looking its
    2^d - 1 proper nonempty submasks up in a set of them when there are
    more kept masks than 2^d, and by a scan of the kept masks otherwise.
    (A kept empty mask is the only one kept, so it needs no lookup.)
    """
    uniq = sorted(set(masks))
    uniq.sort(key=int.bit_count)
    if not uniq or uniq[0].bit_count() == uniq[-1].bit_count():
        return tuple(uniq)
    kept: list[int] = []
    for degree, same_degree in groupby(uniq, key=int.bit_count):
        if 1 << degree < len(kept):
            below = set(kept)
            for m in same_degree:
                s = (m - 1) & m
                while s and s not in below:
                    s = (s - 1) & m
                if not s:
                    kept.append(m)
        else:
            # the list is built before it extends kept, so only lower degrees are tested
            kept += [m for m in same_degree if not any(g & m == g for g in kept)]
    return tuple(kept)


def _first_clash(masks: list[int]) -> tuple[int, int]:
    """The first mask that repeats, contains or lies in an earlier one, with
    that earlier one.  Pairwise, so it runs only after a failed minimality
    check."""
    return next((a, b) for i, a in enumerate(masks) for b in masks[:i] if a & b in (a, b))


class Hypergraph:
    """A simple hypergraph: nonempty edges, duplicate-free, antichain.

    Immutable after construction; instances may be shared freely.
    Edges are stored in construction order as bit masks.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Sequence = ()):
        masks = masks_of(n, edges)
        if 0 in masks:
            raise InputError("empty edge")
        if len(minimal_masks(masks)) < len(masks):
            a, b = _first_clash(masks)
            raise InputError(
                f"edges {vertices_of(a)} and {vertices_of(b)} violate the antichain condition"
            )
        self.n = n
        self.edges = tuple(masks)

    # -- basic queries -------------------------------------------------

    def covered(self) -> int:
        """Mask of vertices lying in at least one edge."""
        mask = 0
        for e in self.edges:
            mask |= e
        return mask

    def uniform_size(self) -> int | None:
        """Common edge cardinality d if the hypergraph is d-uniform."""
        sizes = {e.bit_count() for e in self.edges}
        if len(sizes) == 1:
            return sizes.pop()
        return None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and sorted(self.edges) == sorted(other.edges)
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.edges))))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, edges={[vertices_of(e) for e in self.edges]})"


class Graph(Hypergraph):
    """A 2-uniform hypergraph with derived adjacency bit rows."""

    __slots__ = ("adj",)

    def __init__(self, n: int, edges: Sequence = ()):
        super().__init__(n, edges)
        adj = [0] * n
        for e in self.edges:
            if e.bit_count() != 2:
                raise InputError(f"graph edge {vertices_of(e)} is not 2-element")
            u = (e & -e).bit_length() - 1
            v = e.bit_length() - 1
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.adj = tuple(adj)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def remove_vertices(self, mask: int) -> "Graph":
        """Same universe, minus all edges meeting mask (vertices isolated)."""
        return Graph(self.n, [e for e in self.edges if not e & mask])

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            for v in vertices_of(frontier):
                nxt |= self.adj[v]
            frontier = nxt & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1


def check_matching(H: Hypergraph, indices: Sequence[int]) -> tuple[int, ...]:
    """Validate edge indices as a matching of H; return them sorted.

    A repeated index fails the disjointness test, since edges are nonempty.
    """
    idx = tuple(sorted(indices))
    used = 0
    for i in idx:
        if not 0 <= i < len(H.edges):
            raise InputError(f"edge index {i} out of range")
        e = H.edges[i]
        if e & used:
            raise InputError(f"edges {idx} are not pairwise disjoint")
        used |= e
    return idx


def induced_sub(H: Hypergraph, W) -> Hypergraph:
    """H[W]: edges contained in W, in H's order, with the vertices of W
    relabeled densely to 0..|W|-1 in increasing order; a Graph if H is."""
    wmask = W if isinstance(W, int) else vertex_set(W, H.n)
    if wmask < 0 or wmask >> H.n:
        raise InputError(f"vertex set {wmask:#x} out of range for n={H.n}")
    old = vertices_of(wmask)
    new_of = {v: i for i, v in enumerate(old)}
    edges = [
        vertex_set((new_of[v] for v in vertices_of(e)), len(old))
        for e in H.edges
        if not e & ~wmask
    ]
    cls = Graph if isinstance(H, Graph) else Hypergraph
    return cls(len(old), edges)


def disjoint_union(H1: Hypergraph, H2: Hypergraph) -> Hypergraph:
    """H1 ⊔ H2 with H2's vertices shifted above H1's."""
    n = H1.n + H2.n
    if n > MAX_VERTICES:
        raise InputError(f"disjoint union would exceed {MAX_VERTICES} vertices")
    edges = list(H1.edges) + [e << H1.n for e in H2.edges]
    cls = Graph if isinstance(H1, Graph) and isinstance(H2, Graph) else Hypergraph
    return cls(n, edges)


# -- matchings ---------------------------------------------------------


def forcing_step(parts: tuple, e: int, touch: int) -> tuple:
    """Forcing parts of M + e from those of M.

    touch is the union of the edges of the host that lie inside V(M + e)
    and meet e.  Every edge inside V(M + e) but not inside V(M) meets e,
    so the parts that touch meets are exactly the ones that merge with e.
    """
    merged, count = e, 1
    kept = []
    for part in parts:
        if part[0] & touch:
            merged |= part[0]
            count += part[1]
        else:
            kept.append(part)
    kept.append((merged, count))
    return tuple(kept)


def walk_matchings(H: Hypergraph) -> Iterator[tuple[tuple[int, ...], int, tuple, int]]:
    """Yield every nonempty matching M as (sorted edge indices, V(M), parts, inside).

    Matchings come in lexicographic order of their index tuples.  parts
    are the forcing parts of M as (vertex mask, edge count) pairs: the
    finest partition of M such that every edge of H[V(M)] lies inside
    one part.  inside is |E(H[V(M)])|, counted apart from the parts: the
    edges that e adds to H[V(M + e)] are the edges near e inside V(M + e),
    and one loop over them counts them and forms the touch of
    `forcing_step`.  inside serves nu1 (`MatchingFold`) and aim*
    (`admissible.aim_star`).
    """
    edges = H.edges
    m = len(edges)
    near = [[f for f in edges if f & e] for e in edges]
    chosen: list[int] = []

    def rec(start: int, used: int, parts: tuple, inside: int) -> Iterator[tuple]:
        for j in range(start, m):
            e = edges[j]
            if e & used:
                continue
            vmask = used | e
            touch, grown_inside = 0, inside
            for f in near[j]:
                if not f & ~vmask:
                    touch |= f
                    grown_inside += 1
            grown = forcing_step(parts, e, touch)
            chosen.append(j)
            yield (tuple(chosen), vmask, grown, grown_inside)
            yield from rec(j + 1, vmask, grown, grown_inside)
            chosen.pop()

    yield from rec(0, 0, (), 0)


def matching_number(H: Hypergraph) -> int:
    """nu(H), 0 if H is edgeless: a greedy matching grown by probes for one edge more, run
    while nu + 1 disjoint edges fit (d or more vertices, distinct lowest and highest ones)."""
    used = nu = lows = highs = 0
    for e in H.edges:
        lows, highs = lows | e & -e, highs | 1 << e.bit_length() >> 1
        if not e & used:
            used |= e
            nu += 1
    d = min(map(int.bit_count, H.edges), default=1)
    fit = min(H.covered().bit_count() // d, lows.bit_count(), highs.bit_count())
    while nu < fit and next(enumerate_matchings(H.edges, nu + 1), None):
        nu += 1
    return nu


class MatchingFold:
    """What the matchings of one hypergraph H give, from one walk.

    nu is `matching_number(H)`.  best_by_defect[t] is the largest |M| with
    |M| - c(M) = t, where c(M) counts the forcing parts of M (0 where no
    matching has that defect).  nu1 is the largest |M| with
    |E(H[V(M)])| = |M|, read off the walk's inside count and never off
    the parts, so nu1 = aim(H,1) compares two independent derivations.
    lower is None until `admissible` fills it, on first use, with L(H,k)
    and its first maximizer at every k, so the table shares the fold's memo.
    """

    __slots__ = ("H", "nu", "best_by_defect", "nu1", "lower")

    def __init__(self, H: Hypergraph):
        self.H = H
        self.nu = matching_number(H)
        best = [0] * self.nu
        nu1 = 0
        for idx, _, parts, inside in walk_matchings(H):
            size = len(idx)
            defect = size - len(parts)
            if size > best[defect]:
                best[defect] = size
            if inside == size > nu1:
                nu1 = size
        self.best_by_defect = best
        self.nu1 = nu1
        self.lower: list | None = None


_last: MatchingFold | None = None


def matching_fold(H: Hypergraph) -> MatchingFold:
    """The fold of H's matchings, kept for the last hypergraph asked about.

    The one entry is matched by identity, and hypergraphs are immutable, so
    aim_profile, aim, lower_bound and induced_matching_number on one H
    share a single walk (two once L is asked for, see `admissible`).
    """
    global _last
    if _last is None or _last.H is not H:
        _last = MatchingFold(H)
    return _last


def induced_matching_number(H: Hypergraph) -> int:
    """nu_1(H): maximum size of a matching M with E(H[V(M)]) = M."""
    return matching_fold(H).nu1


def enumerate_matchings(edges: Sequence[int], k: int) -> Iterator[tuple[int, ...]]:
    """Stream every k pairwise-disjoint masks of edges as sorted index tuples.

    The one scan over matchings of a fixed size, in lexicographic index
    order.  edges is a plain mask list, so it may repeat a mask (the
    supports of a general monomial ideal); the chosen masks are
    disjoint, so their sum is their union.  A branch ends when `need` more
    masks of d or more vertices cannot fit in the free vertices of edges[start:].
    """
    if k < 1:
        raise InputError(f"matching size k={k} must be >= 1")
    m = len(edges)
    d = min(map(int.bit_count, edges), default=0)
    tails = list(accumulate(reversed(edges), int.__or__, initial=0))[::-1]  # unions of edges[j:]
    chosen: list[int] = []

    def rec(start: int, used: int) -> Iterator[tuple[int, ...]]:
        need = k - len(chosen)
        if need == 0:
            yield tuple(chosen)
            return
        if need * d > (tails[start] & ~used).bit_count():
            return
        for j in range(start, m - need + 1):
            if edges[j] & used:
                continue
            chosen.append(j)
            yield from rec(j + 1, used | edges[j])
            chosen.pop()

    yield from rec(0, 0)
