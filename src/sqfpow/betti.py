"""Betti tables and Castelnuovo-Mumford regularity via subset homology.

beta_{i,j}(I) = sum over |W| = j of dim H~_{j-i-2}(Delta[W]; F), where
Delta is the Stanley-Reisner complex of the square-free ideal I and F is
a prime field.  Only W that are unions of generator supports contribute
(any other restriction is a cone), and below the minimal generator
degree inside W the complex is a full skeleton whose boundary ranks are
binomial coefficients, so Gaussian elimination only runs on the partial
top levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .hypergraphs import BudgetError, InputError
from .ideals import SquareFreeIdeal

BETTI_MAX_VARS = 20


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact for 2 <= p < 2^64."""
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
    d = p - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _check_characteristic(p: int) -> None:
    if not isinstance(p, int) or p < 2:
        raise InputError(
            f"characteristic must be a prime >= 2, got {p!r} "
            "(characteristic 0 is not supported; use a large prime such as 32003)"
        )
    if p >> 64:
        raise InputError(f"characteristic {p} is not below 2^64, where primality is certified")
    if not _is_prime(p):
        raise InputError(f"characteristic {p} is not prime")


@dataclass
class BettiTable:
    """Sparse Betti table: (homological index i, total degree j) -> rank."""

    characteristic: int
    entries: dict[tuple[int, int], int]

    def regularity(self) -> int:
        return max((j - i for (i, j) in self.entries), default=0)

    def projective_dimension(self) -> int:
        return max((i for (i, _) in self.entries), default=0)

    def csv_rows(self) -> list[str]:
        return [f"{i},{j},{b}" for (i, j), b in sorted(self.entries.items())]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BettiTable)
            and self.characteristic == other.characteristic
            and self.entries == other.entries
        )


def _gf2_rank(rows: list[int]) -> int:
    piv: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            low = row & -row
            p = piv.get(low)
            if p is None:
                piv[low] = row
                rank += 1
                break
            row ^= p
    return rank


def _gfp_rank(a: np.ndarray, p: int) -> int:
    a = np.mod(a, p)
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = a[r] * inv % p
        below = np.nonzero(a[r + 1 :, c])[0]
        if below.size:
            rows = r + 1 + below
            a[rows] = (a[rows] - np.outer(a[rows, c], a[r])) % p
        r += 1
    return r


def _closed_vertex_sets(gens: tuple[int, ...]) -> list[int]:
    """All unions of generator supports (the only W with homology)."""
    closed = {0}
    for g in gens:
        closed |= {m | g for m in closed}
    closed.discard(0)
    return sorted(closed)


def _nonface_flags(n: int, gens: tuple[int, ...]) -> bytes:
    idx = np.arange(1 << n, dtype=np.int64)
    flags = np.zeros(1 << n, dtype=bool)
    for g in gens:
        flags |= (idx & g) == g
    return flags.tobytes()


class _WComplex:
    """Faces of Delta[W] grouped by size, with lazy boundary ranks."""

    __slots__ = ("W", "w", "faces", "f", "smax", "char", "_ranks")

    def __init__(self, W: int, nf: bytes, char: int):
        w = W.bit_count()
        faces: list[list[int]] = [[] for _ in range(w + 1)]
        sub = W
        while True:
            if not nf[sub]:
                faces[sub.bit_count()].append(sub)
            if sub == 0:
                break
            sub = (sub - 1) & W
        self.W = W
        self.w = w
        self.faces = faces
        self.f = [len(level) for level in faces]
        self.smax = max((s for s in range(w + 1) if self.f[s]), default=0)
        self.char = char
        self._ranks: dict[int, int] = {}

    def boundary_rank(self, s: int) -> int:
        """Rank of the boundary map from size-s chains to size-(s-1) chains."""
        if s < 1 or s > self.smax or self.f[s] == 0:
            return 0
        cached = self._ranks.get(s)
        if cached is not None:
            return cached
        if self.f[s] == comb(self.w, s) and self.f[s - 1] == comb(self.w, s - 1):
            rank = comb(self.w - 1, s - 1)
        elif self.char == 2:
            index = {mask: i for i, mask in enumerate(self.faces[s - 1])}
            rows = []
            for fmask in self.faces[s]:
                row = 0
                m = fmask
                while m:
                    low = m & -m
                    row |= 1 << index[fmask ^ low]
                    m ^= low
                rows.append(row)
            rank = _gf2_rank(rows)
        else:
            index = {mask: i for i, mask in enumerate(self.faces[s - 1])}
            mat = np.zeros((self.f[s], self.f[s - 1]), dtype=np.int64)
            for r, fmask in enumerate(self.faces[s]):
                m = fmask
                pos = 0
                while m:
                    low = m & -m
                    mat[r, index[fmask ^ low]] = 1 if pos % 2 == 0 else self.char - 1
                    pos += 1
                    m ^= low
            rank = _gfp_rank(mat, self.char)
        self._ranks[s] = rank
        return rank

    def homology_dim(self, t: int) -> int:
        """dim H~_t(Delta[W]; F); size level s = t + 1, with f_{-1} = 1."""
        s = t + 1
        if s < 0 or s > self.smax:
            return 0
        return self.f[s] - self.boundary_rank(s) - self.boundary_rank(s + 1)


def _validate(I: SquareFreeIdeal, characteristic: int, allow_degenerate: bool) -> None:
    _check_characteristic(characteristic)
    if I.n > BETTI_MAX_VARS:
        raise BudgetError(
            f"n={I.n} exceeds the subset-homology budget of {BETTI_MAX_VARS} variables"
        )
    if not allow_degenerate and (I.is_zero() or I.is_unit()):
        raise InputError("Betti table of the zero or unit ideal is not defined here")


def _min_degree_inside(gens: tuple[int, ...], W: int) -> int:
    return min(g.bit_count() for g in gens if not g & ~W)


def betti_table(I: SquareFreeIdeal, characteristic: int = 2) -> BettiTable:
    """Full N-graded Betti table of a proper nonzero square-free ideal."""
    _validate(I, characteristic, allow_degenerate=False)
    nf = _nonface_flags(I.n, I.gens)
    entries: dict[tuple[int, int], int] = {}
    for W in _closed_vertex_sets(I.gens):
        wc = _WComplex(W, nf, characteristic)
        j = wc.w
        floor = max(_min_degree_inside(I.gens, W) - 2, -1)
        for t in range(wc.smax - 1, floor - 1, -1):
            h = wc.homology_dim(t)
            if h:
                key = (j - t - 2, j)
                entries[key] = entries.get(key, 0) + h
    return BettiTable(characteristic, entries)


def regularity(I: SquareFreeIdeal, characteristic: int = 2) -> int:
    """reg(I) = max{j - i : beta_{i,j} != 0}; 0 for the zero and unit ideals.

    Fast path: tracks the best value seen and skips every W (and every
    homology degree) that cannot beat it.
    """
    _check_characteristic(characteristic)
    if I.is_zero() or I.is_unit():
        return 0
    if I.n > BETTI_MAX_VARS:
        raise BudgetError(
            f"n={I.n} exceeds the subset-homology budget of {BETTI_MAX_VARS} variables"
        )
    best = I.max_degree()
    closed = sorted(_closed_vertex_sets(I.gens), key=lambda m: (-m.bit_count(), -m))
    nf = _nonface_flags(I.n, I.gens)
    for W in closed:
        if W.bit_count() <= best:
            break
        wc = _WComplex(W, nf, characteristic)
        floor = max(best - 1, _min_degree_inside(I.gens, W) - 2, -1)
        for t in range(wc.smax - 1, floor - 1, -1):
            if wc.homology_dim(t) > 0:
                best = t + 2
                break
    return best


def betti_splitting_check(
    I: SquareFreeIdeal, J: SquareFreeIdeal, K: SquareFreeIdeal, characteristic: int = 2
) -> dict:
    """Entrywise check of beta(I) = beta(J) + beta(K) + shifted beta(J∩K).

    Requires G(I) to be the disjoint union of G(J) and G(K); the trivial
    case K = 0 is the caller's to handle.  Returns {"ok": bool,
    "violations": [...]} listing every (i, j) where the identity fails.
    """
    if K.is_zero() or J.is_zero():
        raise InputError("Betti splitting needs both parts nonzero")
    gens_i, gens_j, gens_k = set(I.gens), set(J.gens), set(K.gens)
    if gens_j & gens_k or gens_j | gens_k != gens_i:
        raise InputError("G(I) must be the disjoint union of G(J) and G(K)")
    bi = betti_table(I, characteristic).entries
    bj = betti_table(J, characteristic).entries
    bk = betti_table(K, characteristic).entries
    meet = J.intersect(K)
    bm = betti_table(meet, characteristic).entries if not meet.is_zero() else {}
    keys = set(bi) | set(bj) | set(bk) | {(i + 1, j) for (i, j) in bm}
    violations = []
    for key in sorted(keys):
        i, j = key
        rhs = bj.get(key, 0) + bk.get(key, 0) + bm.get((i - 1, j), 0)
        if bi.get(key, 0) != rhs:
            violations.append({"i": i, "j": j, "beta_I": bi.get(key, 0), "rhs": rhs})
    return {"ok": not violations, "violations": violations}


# -- Stanley-Reisner complexes (artifact plumbing) --------------------------


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet description of a simplicial complex; faces are all subsets."""

    n: int
    facets: tuple[int, ...]

    def is_face(self, mask: int) -> bool:
        return any(mask & fac == mask for fac in self.facets)

    def faces_by_size(self) -> list[list[int]]:
        seen: set[int] = set()
        for fac in self.facets:
            sub = fac
            while True:
                seen.add(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & fac
        out: list[list[int]] = [[] for _ in range(self.n + 1)]
        for mask in sorted(seen):
            out[mask.bit_count()].append(mask)
        return out


def stanley_reisner_complex(I: SquareFreeIdeal) -> SimplicialComplex:
    """Faces are the square-free monomials outside I; facets via minimal covers."""
    if I.is_zero():
        return SimplicialComplex(I.n, ((1 << I.n) - 1,) if I.n else (0,))
    if I.is_unit():
        raise InputError("the unit ideal has the void complex")
    covers: list[int] = [0]
    for g in I.gens:
        nxt: set[int] = set()
        for c in covers:
            if c & g:
                nxt.add(c)
                continue
            m = g
            while m:
                low = m & -m
                nxt.add(c | low)
                m ^= low
        covers = []
        for c in sorted(nxt, key=lambda m: (m.bit_count(), m)):
            if not any(prev & c == prev for prev in covers):
                covers.append(c)
    full = (1 << I.n) - 1
    facets = tuple(sorted(full & ~c for c in covers))
    return SimplicialComplex(I.n, facets)
