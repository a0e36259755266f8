"""Independent brute-force oracles used to freeze expected values.

Everything here works straight from the definitions (powerset scans,
all set partitions, the Taylor complex) and shares no code with the
package's computational paths.
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx


def masks_to_sets(edges):
    return [frozenset(i for i in range(64) if e >> i & 1) for e in edges]


def brute_matchings(edges):
    """All matchings (as index tuples, possibly empty) by powerset scan."""
    sets = masks_to_sets(edges)
    out = []
    for r in range(len(edges) + 1):
        for combo in combinations(range(len(edges)), r):
            union = set()
            ok = True
            for i in combo:
                if union & sets[i]:
                    ok = False
                    break
                union |= sets[i]
            if ok:
                out.append(combo)
    return out


def brute_matching_number(edges):
    """The largest r such that some r edges are pairwise disjoint, by a scan
    of the r-subsets for r = 1, 2, ... that stops at the first r with none
    (r + 1 pairwise disjoint edges contain r of them)."""
    sets = masks_to_sets(edges)
    r = 0
    while any(
        all(not sets[i] & sets[j] for i, j in combinations(combo, 2))
        for combo in combinations(range(len(sets)), r + 1)
    ):
        r += 1
    return r


def brute_sqfree_power(edges, k):
    """G(I(H)^[k]) as frozensets: the union of every k pairwise disjoint
    edges, by a scan of all k-subsets, then the minimal unions kept; the
    unit ideal {frozenset()} for k <= 0."""
    if k <= 0:
        return {frozenset()}
    unions = set()
    for combo in combinations(masks_to_sets(edges), k):
        union = frozenset().union(*combo)
        if len(union) == sum(len(e) for e in combo):
            unions.add(union)
    return {u for u in unions if not any(v < u for v in unions)}


def brute_induced_matching_number(edges):
    sets = masks_to_sets(edges)
    best = 0
    for m in brute_matchings(edges):
        covered = set().union(*(sets[i] for i in m)) if m else set()
        inside = {i for i, e in enumerate(sets) if e <= covered}
        if inside == set(m):
            best = max(best, len(m))
    return best


def set_partitions(items):
    """Every partition of a list, as lists of lists."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield [[head]] + part


def _edges_inside(sets, vertices):
    return [i for i, e in enumerate(sets) if e <= vertices]


def _condition1(sets, parts):
    """Every edge inside V(M) sits inside a single part's vertex set."""
    all_vertices = set().union(*(sets[i] for p in parts for i in p))
    part_vertices = [set().union(*(sets[i] for i in p)) for p in parts]
    for i in _edges_inside(sets, all_vertices):
        if not any(sets[i] <= pv for pv in part_vertices):
            return False
    return True


def _condition3(sets, part):
    """Matchings of size |part| inside V(part) all cover V(part)."""
    pv = set().union(*(sets[i] for i in part))
    inside = _edges_inside(sets, pv)
    for combo in combinations(inside, len(part)):
        union = set()
        ok = True
        for i in combo:
            if union & sets[i]:
                ok = False
                break
            union |= sets[i]
        if ok and union != pv:
            return False
    return True


def brute_is_generalized_admissible(edges, matching, k):
    """Definition check over every partition of the matching."""
    sets = masks_to_sets(edges)
    matching = list(matching)
    if not matching:
        return False
    for parts in set_partitions(matching):
        r = len(parts)
        if not k <= len(matching) <= r + k - 1:
            continue
        if not _condition1(sets, parts):
            continue
        if all(_condition3(sets, p) for p in parts):
            return True
    return False


def brute_aim(edges, k):
    """d-uniform k-admissible matching number, straight from the definition."""
    sets = masks_to_sets(edges)
    best = 0
    for m in brute_matchings(edges):
        if not m or len(m) <= best:
            continue
        for parts in set_partitions(list(m)):
            if len(m) <= len(parts) + k - 1 and _condition1(sets, parts):
                best = len(m)
                break
    return best


def brute_aim_star(n, edges, k):
    """Erey-Hibi variant: parts must induce forests."""
    sets = masks_to_sets(edges)
    best = 0
    for m in brute_matchings(edges):
        if not m or len(m) <= best:
            continue
        for parts in set_partitions(list(m)):
            if len(m) > len(parts) + k - 1 or not _condition1(sets, parts):
                continue
            good = True
            for p in parts:
                pv = set().union(*(sets[i] for i in p))
                G = nx.Graph()
                G.add_nodes_from(pv)
                G.add_edges_from(tuple(sets[i]) for i in _edges_inside(sets, pv))
                if not nx.is_forest(G):
                    good = False
                    break
            if good:
                best = len(m)
                break
    return best


def brute_lower_bound(edges, k):
    """max |V(M)| - |M| over generalized k-admissible matchings."""
    sets = masks_to_sets(edges)
    best = None
    for m in brute_matchings(edges):
        if not m:
            continue
        if brute_is_generalized_admissible(edges, m, k):
            vm = len(set().union(*(sets[i] for i in m)))
            if best is None or vm - len(m) > best:
                best = vm - len(m)
    return best


# -- Taylor-complex Betti numbers ---------------------------------------------


def _modp_rank(rows, p):
    """Dense Gaussian elimination over GF(p), plain Python."""
    mat = [list(r) for r in rows]
    if not mat or not mat[0]:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col] % p:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [x * inv % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] % p:
                f = mat[r][col]
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def taylor_betti(n, gen_vectors, p):
    """beta_{i,j}(I) from the Taylor complex minimized over each multidegree.

    gen_vectors: exponent vectors of the minimal generators (square-free
    ideals pass 0/1 vectors).  Returns {(i, j): rank}.
    """
    gens = [tuple(g) for g in gen_vectors]
    q = len(gens)
    by_degree = {}
    for r in range(1, q + 1):
        for S in combinations(range(q), r):
            lcm = tuple(max(gens[i][v] for i in S) for v in range(n))
            by_degree.setdefault(lcm, {}).setdefault(r, []).append(S)
    entries = {}
    for lcm, levels in by_degree.items():
        j = sum(lcm)
        rmax = max(levels)
        ranks = {}
        index = {
            r: {S: c for c, S in enumerate(levels.get(r, []))} for r in levels
        }
        for r in range(1, rmax + 1):
            rows = []
            cols = index.get(r - 1, {})
            for S in levels.get(r, []):
                row = [0] * len(cols)
                for pos, i in enumerate(S):
                    T = tuple(x for x in S if x != i)
                    if T in cols:
                        row[cols[T]] = 1 if pos % 2 == 0 else p - 1
                rows.append(row)
            ranks[r] = _modp_rank(rows, p) if rows and cols else 0
        for r in range(1, rmax + 1):
            dim = len(levels.get(r, [])) - ranks.get(r, 0) - ranks.get(r + 1, 0)
            if dim:
                key = (r - 1, j)
                entries[key] = entries.get(key, 0) + dim
    return entries


# -- networkx bridges ---------------------------------------------------------


def to_networkx(G):
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    for e in G.edges:
        u = (e & -e).bit_length() - 1
        v = e.bit_length() - 1
        H.add_edge(u, v)
    return H


def brute_cm_partition(G):
    """The partition of V into maximal cliques each holding a free vertex.

    networkx lists the maximal cliques; a vertex is free when networkx
    counts a complete graph on its neighbours; every subset of the
    cliques holding a free vertex is tried.  None for a non-chordal G or
    when no subset partitions V.  Two different partitions would
    contradict Herzog-Hibi-Zheng 2006, Thm 2.1, and raise.
    """
    H = to_networkx(G)
    if not nx.is_chordal(H):
        return None
    free = {
        v
        for v in H
        if H.subgraph(H[v]).number_of_edges() == H.degree(v) * (H.degree(v) - 1) // 2
    }
    cands = [frozenset(c) for c in nx.find_cliques(H) if free & set(c)]
    found = []
    for r in range(len(cands) + 1):
        for combo in combinations(cands, r):
            if sum(map(len, combo)) == G.n and set().union(*combo) == set(H):
                found.append(tuple(sorted(sum(1 << v for v in c) for c in combo)))
    if len(found) > 1:
        raise AssertionError(f"two clique partitions {found}")
    return found[0] if found else None


def brute_block_flags(G):
    """{block vertex set: (leaf, distant leaf, special type)} of a block graph.

    The blocks are networkx's biconnected components, plus a singleton
    block per isolated vertex, and a block B meets the other blocks at
    its articulation points A.  B is a leaf when |A| <= 1, and a distant
    leaf when it is a leaf meeting at most one block that is not a leaf.
    With d = |B| and X the points of A that lie in a block other than a
    K2, B's special type is the first that holds of  I: d <= 2 and A is
    empty;  II: d >= 3 and |A| <= 1;  III: d >= 2, A is nonempty,
    |X| <= 1 and A is not inside X;  else "none".
    """
    H = to_networkx(G)
    blocks = [frozenset(c) for c in nx.biconnected_components(H)]
    blocks += [frozenset([v]) for v in nx.isolates(H)]
    cuts = set(nx.articulation_points(H))
    leaf = {B: len(B & cuts) <= 1 for B in blocks}
    flags = {}
    for B in blocks:
        meets = [C for C in blocks if C != B and B & C]
        attach = B & cuts
        big = {v for C in meets if len(C) != 2 for v in B & C}
        if len(B) <= 2 and not attach:
            kind = "I"
        elif len(B) >= 3 and len(attach) <= 1:
            kind = "II"
        elif len(B) >= 2 and attach and len(big) <= 1 and attach - big:
            kind = "III"
        else:
            kind = "none"
        distant = leaf[B] and sum(1 for C in meets if not leaf[C]) <= 1
        flags[B] = (leaf[B], distant, kind)
    return flags


def graph6_of(G):
    return nx.to_graph6_bytes(to_networkx(G), header=False).decode().strip()
