"""Reference values computed apart from sqfpow.

A graph6 reader, one walk over all matchings that yields nu, the induced
matching number nu1 and the aim profile, and a count of the vertex sets
that are unions of generator supports.  None of it imports sqfpow; the
benchmark's tests hold the aim profile against tests/oracles.py.
"""

from __future__ import annotations

from pathlib import Path

import networkx as nx


def read_graph6(line: str) -> tuple[int, list[int]]:
    """(n, edge masks) of one graph6 line with n <= 62."""
    data = [ord(c) - 63 for c in line.strip()]
    n = data[0]
    bits = [(b >> shift) & 1 for b in data[1:] for shift in range(5, -1, -1)]
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.append((1 << i) | (1 << j))
            pos += 1
    return n, edges


def matching_profile(edges) -> tuple[int, int, list[int]]:
    """(nu, nu1, [aim(H,1), ..., aim(H,nu)]) of a d-uniform hypergraph.

    A matching M counts for aim(H,k) when |M| - c(M) <= k - 1, where c(M)
    is the number of classes of the finest partition of M in which every
    edge of H inside V(M) lies within one class: join two edges of M
    whenever an edge inside V(M) meets both.
    """
    edges = list(edges)
    nu = nu1 = 0
    best_by_defect: dict[int, int] = {}
    chosen: list[int] = []

    def visit(vmask: int) -> None:
        nonlocal nu, nu1
        size = len(chosen)
        nu = max(nu, size)
        root = list(range(size))

        def find(a: int) -> int:
            while root[a] != a:
                a = root[a]
            return a

        induced = True
        for e in edges:
            if e & ~vmask:
                continue
            hit = [p for p, m in enumerate(chosen) if m & e]
            if len(hit) > 1 or chosen[hit[0]] != e:
                induced = False
            for a, b in zip(hit, hit[1:]):
                root[find(a)] = find(b)
        if induced:
            nu1 = max(nu1, size)
        defect = size - sum(1 for p in range(size) if root[p] == p)
        best_by_defect[defect] = max(best_by_defect.get(defect, 0), size)

    def rec(start: int, used: int) -> None:
        for j in range(start, len(edges)):
            if edges[j] & used:
                continue
            chosen.append(edges[j])
            visit(used | edges[j])
            rec(j + 1, used | edges[j])
            chosen.pop()

    rec(0, 0)
    profile = []
    run = 0
    for k in range(1, nu + 1):
        run = max([run] + [s for d, s in best_by_defect.items() if d <= k - 1])
        profile.append(run)
    return nu, nu1, profile


def closed_set_count(n: int, gens) -> int:
    """Number of nonempty vertex sets W that are unions of generator supports."""
    inside = [0] * (1 << n)
    for g in gens:
        inside[g] |= g
    for v in range(n):
        bit = 1 << v
        for w in range(1 << n):
            if w & bit:
                inside[w] |= inside[w ^ bit]
    return sum(1 for w in range(1, 1 << n) if inside[w] == w)


def chordal_expectations(corpus: Path, nmax: int) -> dict[str, tuple[int, int, list[int]]]:
    """Instance id -> (nu, nu1, aim profile) for every connected chordal graph
    with at most nmax vertices and at least one edge; ids follow the
    package's `bundled:<name>:<line number>` scheme."""
    out = {}
    for lineno, line in enumerate(corpus.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith(">>"):
            continue
        if ord(line[0]) - 63 > nmax:
            continue
        n, edges = read_graph6(line)
        if not edges:
            continue
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(((e & -e).bit_length() - 1, e.bit_length() - 1) for e in edges)
        if nx.is_connected(g) and nx.is_chordal(g):
            out[f"bundled:{corpus.stem}:{lineno}"] = matching_profile(edges)
    return out
