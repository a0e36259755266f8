import os
import random
import subprocess
import sys
from itertools import combinations
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import complete_graph
from sqfpow import (
    Graph,
    Hypergraph,
    InputError,
    SquareFreeIdeal,
    disjoint_union,
    enumerate_matchings,
    induced_matching_number,
    induced_sub,
    matching_number,
    vertex_set,
    vertices_of,
)
from sqfpow.corpus import bundled_corpus, parse_instance, random_hypergraph
from sqfpow.hypergraphs import check_matching, minimal_masks, walk_matchings


@st.composite
def small_hypergraphs(draw, max_n=7, max_edges=5, sizes=(1, 3)):
    n = draw(st.integers(max(2, sizes[1]), max_n))
    raw = draw(
        st.lists(
            st.sets(st.integers(0, n - 1), min_size=sizes[0], max_size=sizes[1]),
            max_size=max_edges,
        )
    )
    edges = []
    for e in raw:
        mask = sum(1 << v for v in e)
        if mask and not any(mask & f in (mask, f) for f in edges):
            edges.append(mask)
    return Hypergraph(n, edges)


def _pairwise_clash(masks) -> bool:
    """Brute force: some edge is empty, or repeats, contains or lies in an earlier one."""
    return any(a == 0 or any(a & b in (a, b) for b in masks[:i]) for i, a in enumerate(masks))


def _mask_lists(n):
    return st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=6))


def _pair_lists(n):
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    return st.tuples(st.just(n), st.lists(st.just([]) | pair, max_size=8))


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return Graph(n, sorted(picked))


class TestConstruction:
    def test_rejects_containment(self):
        with pytest.raises(InputError):
            Hypergraph(3, [(0, 1), (0, 1, 2)])

    def test_rejects_duplicates(self):
        with pytest.raises(InputError):
            Hypergraph(3, [(0, 1), (1, 0)])

    def test_rejects_empty_edge(self):
        with pytest.raises(InputError):
            Hypergraph(3, [()])

    @given(st.integers(0, 5).flatmap(_mask_lists))
    def test_rejects_exactly_the_pairwise_clashes(self, case):
        n, masks = case
        if _pairwise_clash(masks):
            with pytest.raises(InputError):
                Hypergraph(n, masks)
        else:
            assert Hypergraph(n, masks).edges == tuple(masks)

    @given(st.integers(2, 5).flatmap(_pair_lists))
    def test_graph_rejects_exactly_the_pairwise_clashes(self, case):
        n, pairs = case
        masks = [vertex_set(p, n) for p in pairs]
        if _pairwise_clash(masks):
            with pytest.raises(InputError):
                Graph(n, pairs)
        else:
            assert Graph(n, pairs).edges == tuple(masks)

    @pytest.mark.parametrize("cls", [Hypergraph, SquareFreeIdeal])
    @pytest.mark.parametrize("mask", [-1, 1 << 3])
    def test_rejects_out_of_range_int_mask(self, cls, mask):
        with pytest.raises(InputError):
            cls(3, [0b11, mask])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(InputError):
            Hypergraph(3, [(0, 3)])

    def test_rejects_oversized_universe(self):
        with pytest.raises(InputError):
            Hypergraph(65, [])

    def test_graph_rejects_triples(self):
        with pytest.raises(InputError):
            Graph(3, [(0, 1, 2)])

    def test_vertex_set_helpers(self):
        assert vertex_set([0, 2], 3) == 0b101
        assert vertices_of(0b101) == (0, 2)

    def test_json_roundtrip(self):
        H = Hypergraph(4, [(0, 1), (2, 3)])
        assert parse_instance('{"n": 4, "edges": [[0, 1], [2, 3]]}') == H


class TestInducedSub:
    def test_triangle_single_edge(self):
        tri = Hypergraph(3, [(0, 1), (0, 2), (1, 2)])
        assert induced_sub(tri, (0, 1)) == Hypergraph(2, [(0, 1)])

    def test_full_vertex_set_is_identity(self):
        H = Hypergraph(4, [(0, 1), (2, 3)])
        assert induced_sub(H, (0, 1, 2, 3)) == H

    def test_fig1_tail(self, fig1):
        sub = induced_sub(fig1, (12, 13, 14))
        assert type(sub) is Graph and sub == Graph(3, [(0, 1), (0, 2)])

    @given(small_hypergraphs())
    def test_edge_characterization(self, H):
        wmask = H.covered() & 0b1010101
        sub = induced_sub(H, wmask)
        vertex_map = vertices_of(wmask)  # new vertex i is the i-th vertex of W
        back = [sum(1 << vertex_map[v] for v in vertices_of(e)) for e in sub.edges]
        assert back == [e for e in H.edges if not e & ~wmask]


class TestMatchingNumbers:
    def test_single_edge(self):
        assert matching_number(Hypergraph(2, [(0, 1)])) == 1

    def test_c5(self, c5):
        assert oracles.brute_matching_number(c5.edges) == 2
        assert matching_number(c5) == 2

    def test_p4(self, p4):
        assert oracles.brute_matching_number(p4.edges) == 2
        assert matching_number(p4) == 2

    def test_induced_p4(self, p4):
        assert oracles.brute_induced_matching_number(p4.edges) == 1
        assert induced_matching_number(p4) == 1

    def test_induced_two_disjoint(self):
        H = Hypergraph(4, [(0, 1), (2, 3)])
        assert induced_matching_number(H) == 2

    def test_induced_k4(self, k4):
        assert oracles.brute_induced_matching_number(k4.edges) == 1
        assert induced_matching_number(k4) == 1

    @given(small_hypergraphs())
    def test_nu1_le_nu(self, H):
        assert induced_matching_number(H) <= matching_number(H)

    @given(small_hypergraphs())
    def test_against_oracle(self, H):
        assert matching_number(H) == oracles.brute_matching_number(H.edges)
        assert induced_matching_number(H) == oracles.brute_induced_matching_number(
            H.edges
        )

    @given(small_hypergraphs())
    def test_restriction_monotone(self, H):
        sub = induced_sub(H, H.covered() & 0b110111)
        assert matching_number(sub) <= matching_number(H)

    def test_disjoint_edges_nu1_equals_nu(self):
        H = Hypergraph(7, [(0, 1), (2, 3, 4), (5, 6)])
        assert induced_matching_number(H) == matching_number(H) == 3

    def test_against_oracle_on_graphs_le7(self):
        for item in bundled_corpus("graphs_le7"):
            assert matching_number(item.obj) == oracles.brute_matching_number(item.obj.edges)

    def test_against_oracle_on_mixed_edge_sizes(self):
        # up to 11 edges, so the greedy matching often falls short and probes run
        rng = random.Random(21)
        for _ in range(400):
            H = random_hypergraph(rng, (1, 12), (1, 4), 11)
            assert matching_number(H) == oracles.brute_matching_number(H.edges), H

    def test_dense_and_unbalanced_graphs_in_bounded_time_and_memory(self):
        # a bound on the edges left, not the vertices, spends 47 s on K16;
        # K_{8,40} and K_{40,8} need the counts of lowest and highest vertices
        child = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from sqfpow import Graph, matching_number\n"
            "def K(n): return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])\n"
            "def Kab(a, b): return Graph(a + b, [(i, j) for i in range(a) for j in range(a, a + b)])\n"
            "print([matching_number(G) for G in (K(14), K(16), K(30), K(64), Kab(8, 40), Kab(40, 8))])\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        result = subprocess.run(
            [sys.executable, "-c", child],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[7, 8, 15, 32, 8, 8]"


class TestEnumerateMatchings:
    def test_k4_pairs(self, k4):
        got = list(enumerate_matchings(k4.edges, 2))
        assert got == [(0, 5), (1, 4), (2, 3)]
        brute = [m for m in oracles.brute_matchings(k4.edges) if len(m) == 2]
        assert got == sorted(brute)

    def test_single_edge_too_large(self):
        assert list(enumerate_matchings(Hypergraph(2, [(0, 1)]).edges, 2)) == []

    def test_two_disjoint(self):
        H = Hypergraph(4, [(0, 1), (2, 3)])
        assert list(enumerate_matchings(H.edges, 2)) == [(0, 1)]

    def test_lexicographic_order(self, c5):
        got = list(enumerate_matchings(c5.edges, 2))
        assert got == sorted(got)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_perfect_matching_count_formula(self, k):
        G = complete_graph(2 * k)
        count = sum(1 for _ in enumerate_matchings(G.edges, k))
        assert count == factorial(2 * k) // (2**k * factorial(k))

    def test_rejects_bad_k(self, k4):
        with pytest.raises(InputError):
            list(enumerate_matchings(k4.edges, 0))

    @pytest.mark.parametrize("seed", range(4))
    def test_against_index_tuple_scan(self, seed):
        # plain mask lists as general-ideal supports give them: repeated masks,
        # and in half of the lists a 0 mask
        rng = random.Random(seed)
        for _ in range(50):
            n = rng.randint(1, 7)
            masks = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 7))]
            masks += rng.choices(masks, k=rng.randint(1, 2)) + [0] * rng.randint(0, 1)
            rng.shuffle(masks)
            for k in range(1, len(masks) + 2):
                brute = [
                    idx for idx in combinations(range(len(masks)), k)
                    if all(not masks[i] & masks[j] for i, j in combinations(idx, 2))
                ]
                assert list(enumerate_matchings(masks, k)) == brute, (masks, k)

    def test_repeated_masks(self):
        # supports of a monomial ideal may repeat: xy^2 and x^2y share {x, y}
        edges = [0b011, 0b011, 0b100, 0b110]
        assert list(enumerate_matchings(edges, 1)) == [(0,), (1,), (2,), (3,)]
        assert list(enumerate_matchings(edges, 2)) == [(0, 2), (1, 2)]
        assert list(enumerate_matchings(edges, 3)) == []


class TestMinimalMasks:
    # many masks of low degree, so that the kept masks outnumber the 2^d
    # submasks of a mask of degree d and those are looked up in a set; the
    # example keeps all 28 pairs of 8 vertices, then looks up every triple
    @given(st.lists(st.sets(st.integers(0, 9), min_size=1, max_size=5), max_size=60))
    @example([set(c) for d in (2, 3, 4) for c in combinations(range(8), d)])
    @settings(max_examples=200)
    def test_against_brute_force(self, sets):
        masks = [sum(1 << v for v in s) for s in sets]
        minimal = {m for m in masks if not any(g != m and g & m == g for g in masks)}
        assert minimal_masks(masks) == tuple(sorted(minimal, key=lambda m: (m.bit_count(), m)))


class TestWalkMatchings:
    # few small_hypergraphs() draws have three edges or more; graphs do
    @given(st.one_of(small_hypergraphs(), small_graphs(max_n=6)))
    @settings(max_examples=200)
    def test_against_brute_force(self, H):
        walked = list(walk_matchings(H))
        # every nonempty matching once, in lexicographic DFS order
        assert [idx for idx, _, _, _ in walked] == sorted(
            m for m in oracles.brute_matchings(H.edges) if m
        )
        sets = oracles.masks_to_sets(H.edges)
        for idx, vmask, parts, inside in walked:
            assert vmask == sum(H.edges[i] for i in idx)
            assert inside == sum(not e & ~vmask for e in H.edges)
            ours = []
            for pmask, count in parts:
                part = [i for i in idx if H.edges[i] & pmask]
                assert len(part) == count
                assert pmask == sum(H.edges[i] for i in part)
                ours.append(part)
            assert sorted(i for p in ours for i in p) == list(idx)
            # the parts meet condition (1), and every partition that meets
            # it is a union of parts, so they form the finest such partition
            assert oracles._condition1(sets, ours)
            label = {i: pos for pos, part in enumerate(ours) for i in part}
            for candidate in oracles.set_partitions(list(idx)):
                if oracles._condition1(sets, candidate):
                    for block in candidate:
                        touched = {label[i] for i in block}
                        assert set(block) == {i for t in touched for i in ours[t]}

    def test_p4(self, p4):
        assert list(walk_matchings(p4)) == [
            ((0,), 0b0011, ((0b0011, 1),), 1),
            ((0, 2), 0b1111, ((0b1111, 2),), 3),
            ((1,), 0b0110, ((0b0110, 1),), 1),
            ((2,), 0b1100, ((0b1100, 1),), 1),
        ]

class TestCheckMatching:
    def test_validates(self, p4):
        assert check_matching(p4, [2, 0]) == (0, 2)
        with pytest.raises(InputError):
            check_matching(p4, [0, 1])
        with pytest.raises(InputError):
            check_matching(p4, [0, 7])

    def test_repeated_index_is_not_disjoint(self, p4):
        with pytest.raises(InputError, match="not pairwise disjoint"):
            check_matching(p4, [0, 0])


class TestDisjointUnion:
    def test_shifts_second(self):
        H1 = Hypergraph(2, [(0, 1)])
        H2 = Hypergraph(3, [(0, 2)])
        U = disjoint_union(H1, H2)
        assert U == Hypergraph(5, [(0, 1), (2, 4)])

    def test_graph_union_stays_graph(self):
        U = disjoint_union(Graph(2, [(0, 1)]), Graph(2, [(0, 1)]))
        assert isinstance(U, Graph)
        assert matching_number(U) == 2
