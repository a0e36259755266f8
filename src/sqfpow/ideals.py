"""Exact square-free and general monomial ideal arithmetic.

Square-free monomials are bit masks over a variable universe 0..n-1
(mask 0 is the unit monomial), so divisibility is subset testing and
lcm is bitwise or.  General monomial ideals carry exponent vectors.
"""

from __future__ import annotations

import json
from typing import Sequence

from .hypergraphs import (
    MAX_VERTICES,
    Hypergraph,
    InputError,
    enumerate_matchings,
    masks_of,
    matching_number,
    minimal_masks,
    vertices_of,
)


class SquareFreeIdeal:
    """Interreduced square-free monomial ideal over a named universe.

    gens is the minimal generating set G(I) as sorted bit masks.  The zero
    ideal has gens == () and the unit ideal has gens == (0,).
    """

    __slots__ = ("n", "gens")

    def __init__(self, n: int, gens: Sequence = ()):
        self.n = n
        self.gens = minimal_masks(masks_of(n, gens))

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return self.gens == (0,)

    def max_degree(self) -> int:
        return max((g.bit_count() for g in self.gens), default=0)

    # -- arithmetic -------------------------------------------------------

    def colon(self, m: int) -> "SquareFreeIdeal":
        """(I : m) for a square-free monomial mask m."""
        return SquareFreeIdeal(self.n, [g & ~m for g in self.gens])

    def plus(self, other: "SquareFreeIdeal") -> "SquareFreeIdeal":
        self._same_universe(other)
        return SquareFreeIdeal(self.n, self.gens + other.gens)

    def intersect(self, other: "SquareFreeIdeal") -> "SquareFreeIdeal":
        self._same_universe(other)
        return SquareFreeIdeal(self.n, [a | b for a in self.gens for b in other.gens])

    def _same_universe(self, other: "SquareFreeIdeal") -> None:
        if self.n != other.n:
            raise InputError(f"universe mismatch: n={self.n} vs n={other.n}")

    __add__ = plus
    __and__ = intersect

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SquareFreeIdeal)
            and self.n == other.n
            and self.gens == other.gens
        )

    def __hash__(self) -> int:
        return hash((self.n, self.gens))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"SquareFreeIdeal(n={self.n}, <0>)"
        if self.is_unit():
            return f"SquareFreeIdeal(n={self.n}, <1>)"
        return f"SquareFreeIdeal(n={self.n}, gens={[vertices_of(g) for g in self.gens]})"

    # -- conversions ------------------------------------------------------

    def hypergraph(self) -> Hypergraph:
        """The hypergraph whose edge ideal this is (proper nonzero only)."""
        if self.is_zero() or self.is_unit():
            raise InputError("zero/unit ideal has no associated hypergraph")
        return Hypergraph(self.n, self.gens)

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "gens": [list(vertices_of(g)) for g in self.gens]}
        )


def edge_ideal(H: Hypergraph) -> SquareFreeIdeal:
    """I(H), generated by the edge monomials (already an antichain)."""
    return SquareFreeIdeal(H.n, H.edges)


class _Supports:
    """The levels of `sqfree_power` built so far for one hypergraph H.

    levels maps each j built in full (1 always) to G(I(H)^[j]), the
    minimal supports V(M) over the j-matchings M, as masks.  For
    each vertex v, below[v] holds the edges whose lowest vertex is below
    v, lows[v] counts those lowest vertices and cover[v] is the union of
    those edges; d is the least edge size.
    """

    __slots__ = ("H", "below", "lows", "cover", "d", "levels")

    def __init__(self, H: Hypergraph):
        self.H = H
        by_low: list[list[int]] = [[] for _ in range(H.n)]
        for e in H.edges:
            by_low[(e & -e).bit_length() - 1].append(e)
        self.below: list[tuple[int, ...]] = []
        self.lows: list[int] = []
        self.cover: list[int] = []
        edges: tuple[int, ...] = ()
        lows = cover = 0
        for group in by_low:
            self.below.append(edges)
            self.lows.append(lows)
            self.cover.append(cover)
            edges += tuple(group)
            lows += bool(group)
            for e in group:
                cover |= e
        self.d = min(map(int.bit_count, H.edges), default=0)
        self.levels = {1: H.edges}

    def level(self, k: int) -> tuple[int, ...]:
        """G(I(H)^[k]) for k >= 1, grown from the highest level kept below k.

        A level built only on the way to k keeps the supports U that can
        still reach k: the k - j edges still to come miss U and one another
        and have distinct lowest vertices below U's, so there must be k - j
        such lowest vertices and (k - j) * d vertices outside U covered by
        the edges below, d being the least edge size.
        """
        levels, below = self.levels, self.below
        if k in levels:
            return levels[k]
        j = k - 1
        while j not in levels:
            j -= 1
        gens, lows, cover, d = levels[j], self.lows, self.cover, self.d
        while gens and j < k:
            j += 1
            grown = {U | e for U in gens for e in below[(U & -U).bit_length() - 1] if not e & U}
            if j < k:
                need = k - j
                grown = [
                    U for U in grown
                    if lows[v := (U & -U).bit_length() - 1] >= need
                    and (cover[v] & ~U).bit_count() >= need * d
                ]
            gens = minimal_masks(grown)
        levels[k] = gens
        return gens


_kept: _Supports | None = None


def sqfree_power(H: Hypergraph, k: int) -> SquareFreeIdeal:
    """I(H)^[k], generated by x_{V(M)} over size-k matchings M.

    Returns the unit ideal for k <= 0 (the R-convention) and the zero
    ideal when k exceeds the matching number.

    No matching is listed: the minimal supports are built level by level.
    A support U of level j - 1 grows by each edge e that misses U and whose
    lowest vertex lies below the lowest vertex of U.  For a j-matching M,
    the edge e of M through the lowest vertex of V(M) qualifies from
    V(M - e), so every support is reached, and from few parents.  If V(M)
    is minimal, so is V(M - e): a smaller V(M') would give the smaller
    support V(M' + e).  So each level keeps only its minimal supports,
    which are the generators, and non-uniform hypergraphs lose no
    generator.  The levels built so far are kept for the last hypergraph
    asked about, matched by identity (hypergraphs are immutable), so a
    k = 1..nu loop builds each level once; a call that skips levels builds
    them only in part and keeps none of them (see `_Supports.level`).
    """
    global _kept
    if k <= 0:
        return SquareFreeIdeal(H.n, [0])
    if _kept is None or _kept.H is not H:
        _kept = _Supports(H)
    return SquareFreeIdeal(H.n, _kept.level(k))


def splitting_for_disjoint_union(
    H: Hypergraph, H2: Hypergraph, k: int
) -> tuple[SquareFreeIdeal, SquareFreeIdeal]:
    """The Betti-splitting pair (J, K) with I(H ⊔ H2)^[k] = J + K.

    J is the top slice I(H)^[nu] * I(H2)^[k-nu]; K collects the lower
    slices down to index k - nu(H2), with I^[l] = R for l <= 0.
    """
    if not H.edges or not H2.edges:
        raise InputError("both hypergraphs need at least one edge")
    nu1 = matching_number(H)
    nu2 = matching_number(H2)
    if not nu1 + 1 <= k <= nu1 + nu2:
        raise InputError(f"k={k} outside splitting range {nu1 + 1}..{nu1 + nu2}")
    n = H.n + H2.n

    def lift1(i: int) -> SquareFreeIdeal:
        return SquareFreeIdeal(n, sqfree_power(H, i).gens)

    def lift2(j: int) -> SquareFreeIdeal:
        return SquareFreeIdeal(n, [g << H.n for g in sqfree_power(H2, j).gens])

    # on disjoint variables the product of two ideals is their lcm intersection
    J = lift1(nu1).intersect(lift2(k - nu1))
    K = SquareFreeIdeal(n)
    for i in range(nu1 - 1, k - nu2 - 1, -1):
        K = K.plus(lift1(i).intersect(lift2(k - i)))
    return J, K


# -- general (not necessarily square-free) monomial ideals -----------------


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


class GeneralMonomialIdeal:
    """Interreduced monomial ideal given by exponent vectors."""

    __slots__ = ("n", "gens")

    def __init__(self, n: int, gens: Sequence[Sequence[int]] = ()):
        if n < 0:
            raise InputError("negative universe size")
        vecs = []
        for g in gens:
            v = tuple(g)
            if any(type(e) is not int for e in v):
                raise InputError(f"exponent vector {v} has an entry that is not an integer")
            if len(v) != n or any(e < 0 for e in v):
                raise InputError(f"bad exponent vector {v} for n={n}")
            vecs.append(v)
        uniq = sorted(set(vecs), key=lambda v: (sum(v), v))
        kept: list[tuple[int, ...]] = []
        for v in uniq:
            if not any(_divides(u, v) for u in kept):
                kept.append(v)
        self.n = n
        self.gens = tuple(kept)

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return self.gens == ((0,) * self.n,)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GeneralMonomialIdeal)
            and self.n == other.n
            and self.gens == other.gens
        )

    def __hash__(self) -> int:
        return hash((self.n, self.gens))

    def __repr__(self) -> str:
        return f"GeneralMonomialIdeal(n={self.n}, gens={list(self.gens)})"


def matching_power_general(I: GeneralMonomialIdeal, k: int) -> GeneralMonomialIdeal:
    """k-th matching power: products of k generators with disjoint supports."""
    if k < 1:
        raise InputError(f"matching power needs k >= 1, got {k}")
    supports = [
        sum(1 << i for i, e in enumerate(g) if e) for g in I.gens
    ]
    out = [
        tuple(map(sum, zip(*(I.gens[j] for j in idx))))
        for idx in enumerate_matchings(supports, k)
    ]
    return GeneralMonomialIdeal(I.n, out)


def polarize(
    I: GeneralMonomialIdeal, caps: Sequence[int] | None = None
) -> SquareFreeIdeal:
    """Standard polarization: x_i^e expands to slots x_{i,1}..x_{i,e}.

    caps fixes the slot count per variable (componentwise max over G(I)
    by default) so ideals from a common ancestor embed into one universe.
    """
    if caps is None:
        caps = [max((g[i] for g in I.gens), default=0) for i in range(I.n)]
    caps = [int(c) for c in caps]
    if len(caps) != I.n:
        raise InputError("caps length must equal the universe size")
    for g in I.gens:
        if any(e > c for e, c in zip(g, caps)):
            raise InputError(f"caps {caps} too small for generator {g}")
    offsets = [0] * I.n
    total = 0
    for i, c in enumerate(caps):
        offsets[i] = total
        total += c
    if total > MAX_VERTICES:
        raise InputError(f"polarized universe exceeds {MAX_VERTICES} variables")
    masks = []
    for g in I.gens:
        mask = 0
        for i, e in enumerate(g):
            for slot in range(e):
                mask |= 1 << (offsets[i] + slot)
        masks.append(mask)
    return SquareFreeIdeal(total, masks)
