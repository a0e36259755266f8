"""Generalized k-admissible matchings, aim, aim*, and the regularity lower bound.

A matching M of H is generalized k-admissible when it has a partition
M = M_1 ⊔ ... ⊔ M_r such that (1) every edge of H[V(M)] lies inside some
V(M_i), (2) k <= |M| <= r + k - 1, and (3) every matching of H[V(M_i)] of
size |M_i| covers V(M_i).  Condition (1) forces the partition to coarsen
the "forcing components", and merging parts can never repair rigidity or
grow r, so the finest partition decides everything.

The forcing components grow edge by edge: every edge inside V(M + e) but
not inside V(M) meets e, so adding e merges e with exactly the parts
that those edges touch.  `hypergraphs.walk_matchings` carries them
through its DFS that way, and every scan here is a reduction over it.

With the finest partition, M is generalized k-admissible exactly when its
parts are all rigid and |M| - c(M) + 1 <= k <= |M|, c(M) its number of
parts.  aim, aim_profile and lower_bound read one `hypergraphs.MatchingFold`
per hypergraph, memoised for the last hypergraph seen (by identity): one
walk gives the best |M| per defect.  On the first lower_bound or
`best_admissible_witness` call for H a second walk fills the fold's
`lower` slot with L(H,k) and the first maximizer in walk order at every
k (`_lower_table`).  The brute-force oracles of `tests/oracles.py`
(`brute_lower_bound`, `brute_is_generalized_admissible`) referee that
table; no second walk here does.

aim* (graphs only) needs every part to induce a forest, which it reads
off the walk's count of induced edges: the parts are all forests exactly
when |E(G[V(M)])| = |V(M)| - c(M) (see `aim_star`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .hypergraphs import (
    Graph,
    Hypergraph,
    InputError,
    MatchingFold,
    check_matching,
    enumerate_matchings,
    forcing_step,
    matching_fold,
    matching_number,
    vertices_of,
    walk_matchings,
)


@dataclass(frozen=True)
class AdmissibleWitness:
    """A matching plus a certified partition proving generalized admissibility."""

    matching: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...]
    k: int

    def to_json_dict(self, H: Hypergraph) -> dict:
        return {
            "edges": [list(vertices_of(H.edges[i])) for i in self.matching],
            "parts": [list(p) for p in self.parts],
            "k": self.k,
        }


def _forcing_parts(H: Hypergraph, idx: tuple[int, ...]) -> tuple:
    """Forcing parts of a given matching, folded edge by edge."""
    vmask = 0
    parts: tuple = ()
    for i in idx:
        e = H.edges[i]
        vmask |= e
        touch = 0
        for f in H.edges:
            if f & e and not f & ~vmask:
                touch |= f
        parts = forcing_step(parts, e, touch)
    return parts


def _index_parts(H: Hypergraph, idx: tuple[int, ...], parts: tuple) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(i for i in idx if H.edges[i] & pmask) for pmask, _ in parts))


def forcing_components(H: Hypergraph, matching) -> tuple[tuple[int, ...], ...]:
    """Finest partition satisfying condition (1), as the sorted tuple of its
    parts' sorted edge-index tuples; every valid partition coarsens it."""
    idx = check_matching(H, matching)
    return _index_parts(H, idx, _forcing_parts(H, idx))


def rigid(H: Hypergraph, vmask: int, size: int, memo: dict) -> bool:
    """True iff every matching of H[vmask] of the given size covers vmask;
    memo holds the answers already found for H, by (vmask, size)."""
    if (vmask, size) in memo:
        return memo[(vmask, size)]
    inside = [e for e in H.edges if not e & ~vmask]
    ok = all(
        sum(inside[i] for i in idx) == vmask for idx in enumerate_matchings(inside, size)
    )
    memo[(vmask, size)] = ok
    return ok


def is_rigid_part(H: Hypergraph, part) -> bool:
    """True iff every matching of size |P| in H[V(P)] covers V(P)."""
    idx = check_matching(H, part)
    if not idx:
        return True
    return rigid(H, sum(H.edges[i] for i in idx), len(idx), {})


def is_generalized_k_admissible(
    H: Hypergraph, matching, k: int
) -> AdmissibleWitness | None:
    """Witness partition if M is a generalized k-admissible matching, else None.

    The finest (forcing-component) partition is returned: merging parts
    preserves rigidity but shrinks r, so it decides admissibility.
    """
    idx = check_matching(H, matching)
    _check_k(k, matching_number(H))
    parts = _forcing_parts(H, idx)
    if k <= len(idx) <= len(parts) + k - 1 and all(rigid(H, p, c, {}) for p, c in parts):
        return AdmissibleWitness(idx, _index_parts(H, idx, parts), k)
    return None


def _require_uniform(H: Hypergraph) -> int:
    d = H.uniform_size()
    if d is None:
        raise InputError("hypergraph is not d-uniform")
    return d


def _check_k(k: int, nu: int) -> None:
    if not 1 <= k <= nu:
        raise InputError(f"k={k} out of range 1..nu={nu}")


def aim(H: Hypergraph, k: int) -> int:
    """k-admissible matching number of a d-uniform hypergraph.

    With the finest partition, M qualifies iff |M| <= c(M) + k - 1 where
    c(M) is its number of forcing components.
    """
    _require_uniform(H)
    profile = aim_profile(H)
    _check_k(k, len(profile))
    return profile[k - 1]


def aim_profile(H: Hypergraph) -> list[int]:
    """[aim(H,1), ..., aim(H,nu)]: the running maximum of the largest |M| per defect."""
    if not H.edges:
        return []
    _require_uniform(H)
    return list(accumulate(matching_fold(H).best_by_defect, max))


def aim_star(G: Graph, k: int) -> int:
    """Forest-restricted variant: every part must induce a forest in G.

    Read off the walk's count inside = |E(G[V(M)])|, with no forest test:
    every edge of G[V(M)] lies inside one forcing part (condition (1)),
    and each part induces a connected graph, since `forcing_step` merges
    e only with parts that an edge through e reaches.  A connected graph
    on p vertices has at least p - 1 edges, with equality exactly for a
    tree.  Summed over the parts, all parts are forests iff
    |E(G[V(M)])| = |V(M)| - c(M).
    """
    if not isinstance(G, Graph):
        raise InputError("aim_star is defined for graphs only")
    _check_k(k, matching_number(G))
    best = 0
    for idx, vmask, parts, inside in walk_matchings(G):
        if best < len(idx) <= len(parts) + k - 1 and inside == vmask.bit_count() - len(parts):
            best = len(idx)
    return best


def _lower_table(fold: MatchingFold) -> list[tuple[int, tuple[int, ...] | None]]:
    """[(L(H,k), first maximizer) for k = 1..nu]: -1 and None where no
    matching is generalized k-admissible.

    One walk keeps, per cell (defect, size), the best |V(M)| - |M| over the
    matchings whose parts are all rigid, with the first matching that
    reached it; rigidity is tested only for a matching that would raise its
    cell.  The cells with defect < k <= size hold the generalized
    k-admissible matchings.  Walk order is lexicographic, so among tied
    cells the least index tuple is the first maximizer in walk order.
    """
    H, nu = fold.H, fold.nu
    best = [[-1] * (nu + 1) for _ in range(nu)]
    first: list[list] = [[None] * (nu + 1) for _ in range(nu)]
    memo: dict = {}
    for idx, vmask, parts, _ in walk_matchings(H):
        size = len(idx)
        t = size - len(parts)
        value = vmask.bit_count() - size
        if value > best[t][size] and all(rigid(H, p, c, memo) for p, c in parts):
            best[t][size] = value
            first[t][size] = idx
    table = []
    for k in range(1, nu + 1):
        cells = [
            (-best[t][s], first[t][s]) for t in range(k) for s in range(k, nu + 1) if first[t][s]
        ]
        value, idx = min(cells, default=(1, None))
        table.append((-value, idx))
    return table


def _lower(H: Hypergraph, k: int) -> tuple[int, tuple[int, ...] | None]:
    """L(H,k) and its first maximizer, from the table kept in H's fold."""
    fold = matching_fold(H)
    _check_k(k, fold.nu)
    if fold.lower is None:
        fold.lower = _lower_table(fold)
    return fold.lower[k - 1]


def best_admissible_witness(H: Hypergraph, k: int) -> AdmissibleWitness | None:
    """The first generalized k-admissible matching, in walk order, maximizing
    |V(M)| - |M|, recertified by `is_generalized_k_admissible`."""
    idx = _lower(H, k)[1]
    return None if idx is None else is_generalized_k_admissible(H, idx, k)


def lower_bound(H: Hypergraph, k: int) -> int:
    """L(H,k) = max |V(M)| - |M| over generalized k-admissible matchings,
    read off the table in H's matching fold."""
    bound = _lower(H, k)[0]
    if bound < 0:
        # a size-k matching refined inside a minimal generator always exists
        raise InputError("no generalized k-admissible matching found")
    return bound
