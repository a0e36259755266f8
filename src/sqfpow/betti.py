"""Betti tables and Castelnuovo-Mumford regularity via subset homology.

beta_{i,j}(I) = sum over |W| = j of dim H~_{j-i-2}(Delta[W]; F), where
Delta is the Stanley-Reisner complex of the square-free ideal I and F is
a prime field.  Only W that are unions of generator supports contribute
(any other restriction is a cone), and below the minimal generator
degree inside W the complex is a full skeleton with no homology.

Two byte tables over the 2^n vertex sets say which W are such unions
(closed) and which sets are nonfaces (contain a generator).  Both come
from bit-parallel superset closures: for each vertex v, the sets that
contain a generator through v form one 2^n-bit integer, closed upward
in n - 1 shift-and-or steps.  W is closed when each of its vertices
lies in a generator inside W, and a nonface when one of them does.

Each query gives the complex of W a floor, the lowest homology degree it
reads: betti_table the top of that full skeleton, regularity one below
the best value found so far (no lower degree can beat it).  Only the
face levels above the floor are built.  Full levels take their boundary
ranks from binomial coefficients; the rest are ranked by sparse row
elimination, on packed bit rows over GF(2) and on {column: value} rows
of Python ints over GF(p), so the rank is exact at every accepted p.

regularity scans W from the largest down and stops at |W| = best + 1:
on m vertices H~_{m-2} is nonzero only for the boundary of the simplex,
whose vertex set is a generator, and no generator is bigger than best.
It lists the floor level of the whole complex once per value of best
and cuts each W's floor level out of that list when the list is the
shorter one.

Most W have no homology above the floor, and regularity shows that from
the link of one vertex v of W, the faces through v, before it builds
Delta[W].  Delta[W] is Delta[W - v] glued to the cone over lk v along
lk v, so there is an exact sequence, at every characteristic,

    H~_t(Delta[W - v]) -> H~_t(Delta[W]) -> H~_{t-1}(lk v).

(When v itself is a generator, lk v has no faces at all and Delta[W] is
Delta[W - v].)  If lk v has no homology in degrees >= best - 2, every
class of Delta[W] that could beat best (t >= best - 1) comes from
Delta[W - v], which would beat best as well.  W - v is either not a
union of generators (a cone, with no homology), or at most best + 1 in
size (it cannot beat best, by the stop rule above), or scanned itself;
so a smallest W that beats best is never skipped, and W is skipped.  If
lk v has homology and W - v is a cone, H~_t(Delta[W]) = H~_{t-1}(lk v),
so best becomes the top link degree + 3 without Delta[W].  Only when
lk v has homology and W - v is a union of generators is Delta[W] built.

The argument holds for every vertex u of W, so W is skipped before any
link is built when some u lies in no size-best face inside W: the floor
level of lk u (size best - 1) is empty, and lk u has no faces in degrees
>= best - 2.  W is kept exactly when it is a nonempty union of size-best
faces, the closure _vertex_set_tables computes for the generators,
applied to the size-best faces of the whole complex.  regularity reads
it from one byte table over the 2^n vertex sets, rebuilt when best
changes.  The table costs n(n - 1) shift steps on 2^n-bit integers, so
it is built only when more closed sets are left to scan than that.

v is the vertex of W that lies in the fewest size-best faces of the
whole complex, and W is skipped with no link built when lk v has a cone
point on its floor level: a vertex u of W - v such that F + u is a face
of lk v for every floor face F (size best - 1) that lacks u.  Every minimal
nonface of lk v is g - v for a generator g inside W, so it has at most
best vertices.  If a face G of lk v with at least best - 1 vertices
lacked u and G + u were a nonface, G would hold the part N - u of a
minimal nonface N through u, and a floor face F with N - u inside F
inside G; then F + u would contain N, against the rule.  So every
maximal face of size >= best - 1 contains u: the faces of those sizes
generate a cone over u, with the same H~_t as lk v for t >= best - 2,
at every characteristic.  An empty floor level is the vacuous case, in
which every u is a cone point.  Only a link with no cone point is built:
a _WComplex on W - v with v as its apex bit, its floor level cut from
the list of size-best faces through v when that list is the shorter one.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache
from itertools import combinations, compress, count
from math import comb

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

    def csv_rows(self) -> list[str]:
        return [f"{i},{j},{b}" for (i, j), b in sorted(self.entries.items())]


def _gf2_boundary_pivots(faces: list[int]) -> list[int]:
    """Pivot columns of the boundary rows of ``faces`` over GF(2); their number is the rank.

    Rows are bitmasks over the facets in order of first occurrence.  Each
    row is reduced until its highest column is no earlier row's pivot;
    the pivot columns are returned as facet masks.
    """
    index = defaultdict(count().__next__)
    piv: dict[int, int] = {}
    for fmask in faces:
        row = 0
        m = fmask
        while m:
            low = m & -m
            row |= 1 << index[fmask ^ low]
            m ^= low
        while row:
            top = row.bit_length()
            p = piv.get(top)
            if p is None:
                piv[top] = row
                break
            row ^= p
    cols = list(index)
    return [cols[top - 1] for top in piv]


def _gfp_boundary_pivots(faces: list[int], p: int) -> list[int]:
    """Pivot columns of the signed boundary rows of ``faces`` over GF(p); their number is the rank.

    Rows are sparse {facet mask: value} dicts.  Each row is reduced until
    its highest column is no earlier row's pivot.  Exact for any p,
    because the arithmetic is on Python ints.  Pivot rows are kept scaled
    to a leading 1.
    """
    signs = (1, p - 1)
    piv: dict[int, dict[int, int]] = {}
    for fmask in faces:
        row = {}
        m = fmask
        pos = 0
        while m:
            low = m & -m
            row[fmask ^ low] = signs[pos & 1]
            pos += 1
            m ^= low
        while row:
            col = max(row)
            prow = piv.get(col)
            if prow is None:
                lead = row[col]
                if lead != 1:
                    inv = pow(lead, -1, p)
                    row = {c: v * inv % p for c, v in row.items()}
                piv[col] = row
                break
            factor = row[col]
            for c, v in prow.items():
                nv = (row.get(c, 0) - factor * v) % p
                if nv:
                    row[c] = nv
                else:
                    del row[c]
    return list(piv)


@cache
def _closure_steps(n: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """For each vertex v < n: without[v], and the shift steps (without[u], 2^u) of every u != v.

    without[v] is the 2^n-bit integer whose bit m is set when the vertex
    set m lacks v; (x & without[u]) << 2^u adds u to every set of x.
    """
    size = 1 << n
    without = []
    for v in range(n):
        step = 1 << v
        pattern = (1 << step) - 1
        width = 2 * step
        while width < size:
            pattern |= pattern << width
            width *= 2
        without.append(pattern)
    steps = [(w, 1 << u) for u, w in enumerate(without)]
    return tuple((without[v], tuple(steps[:v] + steps[v + 1:])) for v in range(n))


_ASCII_BITS = bytes.maketrans(b"01", b"\0\1")


def _unions(n: int, sets: Iterable[int]) -> tuple[int, int]:
    """2^n-bit integers: the nonempty unions of ``sets``, and the supersets of one of them.

    Both come from one 2^n-bit integer per vertex v: the sets that
    contain a member of ``sets`` through v, the marked bits that hold v
    closed upward in n - 1 shift steps.  m is a union exactly when every
    vertex of m lies in a member inside m, and a superset of one when
    some vertex does (or the empty set is a member).
    """
    size = 1 << n
    buf = bytearray(max(size >> 3, 1))
    for m in sets:
        buf[m >> 3] |= 1 << (m & 7)
    marked = int.from_bytes(buf, "little")
    everything = (1 << size) - 1
    unions, supersets = everything, 0
    for without_v, steps in _closure_steps(n):
        up = marked & ~without_v
        if up:
            for without_u, shift in steps:
                up |= (up & without_u) << shift
            supersets |= up
        unions &= up | without_v
    if marked & 1:
        supersets = everything
    return unions & ~1, supersets


def _vertex_set_tables(n: int, gens: tuple[int, ...]) -> tuple[list[int], bytes, bytes]:
    """The closed sets in increasing order, and closed and nf flags for all 2^n vertex sets.

    A set m is closed (closed[m] = 1) when it is a nonempty union of
    generators, and a nonface (nf[m] = 1) when it contains a generator.
    """
    size = 1 << n
    closed, nonface = _unions(n, gens)
    flags = _spread(closed, size)
    return list(compress(range(size), flags)), flags, _spread(nonface, size)


def _spread(bits: int, size: int) -> bytes:
    """One byte per bit of ``bits``, from bit 0 up to bit size - 1."""
    return format(bits, f"0{size}b")[::-1].encode().translate(_ASCII_BITS)


def _vertex_bits(W: int) -> list[int]:
    return [1 << v for v in range(W.bit_length()) if W >> v & 1]


def _face_level(bits: list[int], size: int, nf: bytes, apex: int = 0) -> list[int]:
    """The size-``size`` sets on ``bits`` that are faces with ``apex`` added, in lex order."""
    return [m for m in map(sum, combinations(bits, size)) if not nf[m | apex]]


class _WComplex:
    """The faces of Delta[W] of size above ``floor``, by size, with lazy boundary ranks.

    Only the levels floor+1 .. smax are listed: the size-(floor+1) faces,
    then each higher level by adding to a face a vertex of W above its top
    vertex.  The complex is closed downward, so this lists every face
    once.  Level ``floor`` itself is never listed: the boundary matrix of
    level floor+1 indexes its columns by the faces that occur in its rows.

    ``shared`` lists faces of the whole complex, of size floor+1 (or of
    size floor+2 through the apex).  When it is shorter than the subsets
    of W of size floor+1, the floor level is cut from it (its faces
    inside W + apex, the apex removed); otherwise those subsets are tested.

    With an ``apex`` bit v outside W this is the link of v in Delta[W + v]:
    the sets F inside W with F + v a face, every level tested with v added.

    Ranks are computed from the top level down, with clearing: a size-s
    face that is a pivot column of the reduced boundary of level s+1
    has a boundary in the span of the boundaries of lower faces
    (boundary of a boundary is zero), so its row is left out of level s.
    """

    __slots__ = ("w", "lo", "faces", "smax", "char", "_ranks", "_cleared")

    def __init__(
        self, W: int, nf: bytes, char: int, floor: int, shared: list[int] | None = None,
        apex: int = 0,
    ):
        bits = _vertex_bits(W)
        lo = floor + 1
        if shared is not None and len(shared) < comb(len(bits), lo):
            level = [f ^ apex for f in shared if not f & ~(W | apex)]
        else:
            level = _face_level(bits, lo, nf, apex)
        faces: list[list[int]] = []
        while level:
            faces.append(level)
            level = [f | b for f in level for b in bits if b > f and not nf[f | b | apex]]
        self.w = len(bits)
        self.lo = lo
        self.faces = faces
        self.smax = lo + len(faces) - 1
        self.char = char
        self._ranks: dict[int, int] = {}
        self._cleared: dict[int, set[int]] = {}

    def boundary_rank(self, s: int) -> int:
        """Rank of the boundary map from size-s chains to size-(s-1) chains."""
        if s < 1 or s > self.smax:
            return 0
        cached = self._ranks.get(s)
        if cached is not None:
            return cached
        level = self.faces[s - self.lo]
        if len(level) == comb(self.w, s):
            rank = comb(self.w - 1, s - 1)
        else:
            self.boundary_rank(s + 1)  # its pivots clear rows of this level
            cleared = self._cleared.pop(s, ())
            kept = [f for f in level if f not in cleared] if cleared else level
            if self.char == 2:
                pivots = _gf2_boundary_pivots(kept)
            else:
                pivots = _gfp_boundary_pivots(kept, self.char)
            if s > self.lo:
                self._cleared[s - 1] = set(pivots)
            rank = len(pivots)
        self._ranks[s] = rank
        return rank

    def homology_dim(self, t: int) -> int:
        """dim H~_t(Delta[W]; F) for t >= floor; size level s = t + 1, with f_{-1} = 1."""
        s = t + 1
        if s > self.smax:
            return 0
        return len(self.faces[s - self.lo]) - self.boundary_rank(s) - self.boundary_rank(s + 1)

    def top_degree(self) -> int | None:
        """The largest t >= floor with H~_t != 0, or None when there is none."""
        for t in range(self.smax - 1, self.lo - 2, -1):
            if self.homology_dim(t):
                return t
        return None


def _cone_points(W: int, v: int, faces: list[int], nf: bytes) -> int:
    """The vertices u of W - v with f | u a face for every f in ``faces`` inside W.

    ``faces`` are faces through v of one size; those inside W, v removed,
    are the floor level of lk v in Delta[W].  Each u returned is a cone
    point of the link's faces from that level up, so the link has no
    homology in the floor's degree or above (see the module docstring).
    """
    points = W ^ v
    outside = ~W
    for f in faces:
        if f & outside:
            continue
        m = points & ~f
        while m:
            b = m & -m
            if nf[f | b]:
                points ^= b
            m ^= b
        if not points:
            return 0
    return points


def _check_budget(I: SquareFreeIdeal) -> None:
    if I.n > BETTI_MAX_VARS:
        raise BudgetError(
            f"n={I.n} exceeds the subset-homology budget of {BETTI_MAX_VARS} variables"
        )


def _min_degree_inside(gens: tuple[int, ...], W: int) -> int:
    return min(g.bit_count() for g in gens if not g & ~W)


def betti_table(I: SquareFreeIdeal, characteristic: int = 2) -> BettiTable:
    """Full N-graded Betti table of a proper nonzero square-free ideal."""
    _check_characteristic(characteristic)
    _check_budget(I)
    if I.is_zero() or I.is_unit():
        raise InputError("Betti table of the zero or unit ideal is not defined here")
    closed_sets, _, nf = _vertex_set_tables(I.n, I.gens)
    entries: dict[tuple[int, int], int] = {}
    for W in closed_sets:
        floor = max(_min_degree_inside(I.gens, W) - 2, -1)
        wc = _WComplex(W, nf, characteristic, floor)
        j = wc.w
        for t in range(wc.smax - 1, floor - 1, -1):
            h = wc.homology_dim(t)
            if h:
                key = (j - t - 2, j)
                entries[key] = entries.get(key, 0) + h
    return BettiTable(characteristic, entries)


def regularity(I: SquareFreeIdeal, characteristic: int = 2) -> int:
    """reg(I) = max{j - i : beta_{i,j} != 0}; 0 for the zero and unit ideals.

    Raises InputError unless the characteristic is a prime below 2^64,
    and BudgetError above BETTI_MAX_VARS variables (the zero and unit
    ideals answer 0 first).  The scan of W by decreasing size, its stop
    rule and the link test that skips most W are set out in the module
    docstring.
    """
    _check_characteristic(characteristic)
    if I.is_zero() or I.is_unit():
        return 0
    _check_budget(I)
    best = I.max_degree()
    closed_sets, closed, nf = _vertex_set_tables(I.n, I.gens)
    # by decreasing size, then decreasing mask: a reversal and a stable sort
    scan = closed_sets[::-1]
    scan.sort(key=int.bit_count, reverse=True)
    shared = covered = None
    for i, W in enumerate(scan):
        # A W on m vertices can beat best only through H~_t with t >= best - 1
        # and t <= m - 2, since W is a nonface.  For m = best + 1 that leaves
        # H~_{m-2}, which is nonzero only when every proper subset of W is a
        # face: then W is a minimal nonface, a generator of degree m > best,
        # but best >= every generator degree.  So |W| = best + 1 ends the scan.
        size = W.bit_count()
        if size <= best + 1:
            break
        if shared is None:  # scan[0] is the support of I
            support = _vertex_bits(scan[0])
            shared = _face_level(support, best, nf)
            through = {b: [f for f in shared if f & b] for b in support}
            pick = sorted(support, key=lambda b: len(through[b]))
            # the union table costs n(n - 1) shift steps on 2^n bits; build
            # it only when more closed sets than that are left to test
            covered = (
                _spread(_unions(I.n, shared)[0], 1 << I.n)
                if len(scan) - i > I.n * (I.n - 1) else None
            )
        # skip W when some vertex of W lies in no size-best face inside W (that
        # vertex's link has an empty floor level), or when lk v has a cone point
        if covered is not None and not covered[W]:
            continue
        v = next(b for b in pick if W & b)
        if _cone_points(W, v, through[v], nf):
            continue
        top = _WComplex(W ^ v, nf, characteristic, best - 2, through[v], v).top_degree()
        if top is None:
            continue
        if not closed[W ^ v]:
            best = top + 3
            shared = None
            continue
        # best >= every generator degree, so best - 1 is at or above the
        # full-skeleton floor of betti_table, and no t below it can beat best.
        top = _WComplex(W, nf, characteristic, best - 1, shared).top_degree()
        if top is not None:
            best = top + 2
            shared = None
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
