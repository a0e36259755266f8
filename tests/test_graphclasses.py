import random
import time

import pytest
from hypothesis import given, settings

import networkx as nx

import oracles
from conftest import complete_graph, cycle_graph
from sqfpow import (
    Graph,
    InputError,
    SquareFreeIdeal,
    block_decomposition,
    bundled_corpus,
    cm_clique_partition,
    colon_graph,
    free_vertices,
    is_block_graph,
    is_chordal,
    is_weakly_chordal,
    maximal_cliques,
    sqfree_power,
    vertices_of,
)
from test_hypergraphs import small_graphs


class TestChordal:
    def test_c4_false(self):
        assert is_chordal(cycle_graph(4)) == (False, None)

    def test_tree_true(self):
        T = Graph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
        ok, peo = is_chordal(T)
        assert ok and len(peo) == 6

    def test_fig1_true(self, fig1):
        ok, peo = is_chordal(fig1)
        assert ok
        # verify the certificate independently: later neighbors form cliques
        pos = {v: i for i, v in enumerate(peo)}
        for v in range(fig1.n):
            later = [u for u in vertices_of(fig1.adj[v]) if pos[u] > pos[v]]
            for a in later:
                for b in later:
                    if a != b:
                        assert fig1.has_edge(a, b)

    @given(small_graphs(max_n=8))
    @settings(max_examples=120)
    def test_against_networkx(self, G):
        want = G.n <= 1 or nx.is_chordal(oracles.to_networkx(G))
        assert is_chordal(G)[0] == want


class TestWeaklyChordal:
    def test_c5_false(self, c5):
        assert not is_weakly_chordal(c5)

    def test_c4_true(self):
        assert is_weakly_chordal(cycle_graph(4))

    def test_c6_false(self):
        assert not is_weakly_chordal(cycle_graph(6))

    def test_chordal_implies_weakly(self, fig1):
        from sqfpow import induced_sub

        big_component = induced_sub(fig1, range(15))
        assert is_weakly_chordal(big_component)

    def test_past_sixteen_vertices(self):
        rng = random.Random(40)
        tree = {(0, 1)}
        for v in range(2, 40):  # a 2-tree: each vertex joins both ends of an edge
            a, b = rng.choice(sorted(tree))
            tree |= {(a, v), (b, v)}
        cases = [
            (cycle_graph(20), False),
            (_complement(cycle_graph(20)), False),
            (Graph(17, [(i, i + 1) for i in range(16)]), True),
            (Graph(40, sorted(tree)), True),
            (Graph(64, [(i, j) for i in range(32) for j in range(32, 64)]), True),
        ]
        for G, want in cases:
            start = time.perf_counter()
            assert is_weakly_chordal(G) == want
            assert time.perf_counter() - start < 1.0, G.n

    def test_against_brute_force_catalog(self):
        for G in _bundled_graphs("graphs_le7", 7):
            for H in (G, _complement(G)):
                assert is_weakly_chordal(H) == oracles.brute_is_weakly_chordal(H), H.edges

    def test_against_brute_force_random(self):
        rng = random.Random(25)
        for density in (0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9):  # mostly True at both ends
            for _ in range(120):
                n = rng.randint(8, 13)
                pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
                G = Graph(n, [p for p in pairs if rng.random() < density])
                assert is_weakly_chordal(G) == oracles.brute_is_weakly_chordal(G), (n, G.edges)

    def test_cycles_and_complements(self):
        for n in range(5, 17):
            for G in (cycle_graph(n), _complement(cycle_graph(n))):
                assert not is_weakly_chordal(G)
                assert not oracles.brute_is_weakly_chordal(G)

    @given(small_graphs(max_n=8))
    @settings(max_examples=80)
    def test_against_definition(self, G):
        # independent check via networkx induced-subgraph cycle scan
        def has_long_hole(H):
            import itertools

            n = H.number_of_nodes()
            for r in range(5, n + 1):
                for sub in itertools.combinations(sorted(H.nodes), r):
                    S = H.subgraph(sub)
                    if S.number_of_edges() == r and all(
                        d == 2 for _, d in S.degree
                    ) and nx.is_connected(S):
                        return True
            return False

        H = oracles.to_networkx(G)
        want = not has_long_hole(H) and not has_long_hole(nx.complement(H))
        assert is_weakly_chordal(G) == want


class TestFreeVertices:
    def test_complete(self):
        assert free_vertices(complete_graph(4)) == 0b1111

    def test_p4(self, p4):
        assert vertices_of(free_vertices(p4)) == (0, 3)

    def test_c5(self, c5):
        assert free_vertices(c5) == 0


def _nx_cliques(G):
    return sorted(
        sum(1 << v for v in clique) for clique in nx.find_cliques(oracles.to_networkx(G))
    )


def _complement(G):
    return Graph(G.n, [(i, j) for i in range(G.n) for j in range(i + 1, G.n) if not G.has_edge(i, j)])


def _bundled_graphs(name, nmax):
    return [item.obj for item in bundled_corpus(name) if item.obj.n <= nmax]


def _block_graphs_le7():
    """The 214 block graphs (connected or not) of the graphs_le7 catalog."""
    return [G for G in _bundled_graphs("graphs_le7", 7) if is_block_graph(G)]


class TestCliques:
    @given(small_graphs(max_n=8))
    @settings(max_examples=80)
    def test_against_networkx(self, G):
        if not is_chordal(G)[0]:
            return
        assert maximal_cliques(G) == _nx_cliques(G)

    def test_chordal_le9_against_networkx(self):
        graphs = _bundled_graphs("chordal_le9", 8)
        assert len(graphs) > 2000
        for G in graphs:
            assert maximal_cliques(G) == _nx_cliques(G), G

    def test_non_chordal_rejected(self):
        with pytest.raises(InputError):
            maximal_cliques(cycle_graph(4))


class TestBlockDecomposition:
    def test_fig1_flags(self, fig1):
        dec = block_decomposition(fig1)
        flags = {
            vertices_of(b): (dec.leaf[i], dec.distant_leaf[i], dec.special_type[i])
            for i, b in enumerate(dec.blocks)
        }
        # x13x14 is a distant leaf; x6x9 is a leaf but not distant
        assert flags[(12, 13)] == (True, True, "none")
        assert flags[(5, 8)] == (True, False, "none")
        assert flags[(0, 1, 2)][2] == "II"
        assert flags[(15, 16)][2] == "I"
        assert flags[(9, 10, 11, 12)][2] == "III"

    def test_single_edge(self):
        dec = block_decomposition(Graph(2, [(0, 1)]))
        assert dec.blocks == (0b11,)
        assert dec.leaf == (True,) and dec.distant_leaf == (True,)

    def test_star(self):
        dec = block_decomposition(Graph(4, [(0, 1), (0, 2), (0, 3)]))
        assert len(dec.blocks) == 3
        assert all(dec.leaf)

    def test_isolated_vertex_block(self):
        dec = block_decomposition(Graph(1))
        assert dec.blocks == (1,)
        assert dec.special_type == ("I",)

    def test_rejects_non_block(self):
        diamond = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        with pytest.raises(InputError):
            block_decomposition(diamond)
        with pytest.raises(InputError):
            block_decomposition(cycle_graph(4))

    @given(small_graphs(max_n=7))
    @settings(max_examples=80)
    def test_block_predicate_vs_networkx(self, G):
        H = oracles.to_networkx(G)
        want = (G.n <= 1 or nx.is_chordal(H)) and all(
            len(c) * (len(c) - 1) // 2 == H.subgraph(c).number_of_edges()
            for c in nx.biconnected_components(H)
        )
        assert is_block_graph(G) == want

    def test_flags_vs_networkx_oracle(self, fig1):
        graphs = [fig1] + _block_graphs_le7()
        assert len(graphs) == 215
        for G in graphs:
            dec = block_decomposition(G)
            got = {
                frozenset(vertices_of(b)): (dec.leaf[i], dec.distant_leaf[i], dec.special_type[i])
                for i, b in enumerate(dec.blocks)
            }
            assert got == oracles.brute_block_flags(G), G

    def test_edges_partition_into_blocks(self, fig1):
        dec = block_decomposition(fig1)
        for e in fig1.edges:
            homes = [b for b in dec.blocks if e & b == e]
            assert len(homes) == 1

    def test_pairwise_intersections(self, fig1):
        dec = block_decomposition(fig1)
        for i, a in enumerate(dec.blocks):
            for b in dec.blocks[:i]:
                assert (a & b).bit_count() <= 1


class TestSpecialBlocks:
    def test_existence_on_small_block_graphs(self):
        from sqfpow import bundled_corpus

        count = 0
        for item in bundled_corpus("graphs_le7"):
            G = item.obj
            if not is_block_graph(G):
                continue
            special = [t for t in block_decomposition(G).special_type if t != "none"]
            assert special, f"no special block in {G!r}"
            count += 1
        assert count == 214  # block graphs (incl. disconnected) with n <= 7


class TestCmCliquePartition:
    def test_complete(self):
        assert cm_clique_partition(complete_graph(5)) == (0b11111,)

    def test_p4_partition(self, p4):
        assert cm_clique_partition(p4) == (0b0011, 0b1100)

    def test_c4_none(self):
        assert cm_clique_partition(cycle_graph(4)) is None

    def test_star_none(self):
        assert cm_clique_partition(Graph(4, [(0, 1), (0, 2), (0, 3)])) is None

    def test_p3_none(self):
        assert cm_clique_partition(Graph(3, [(0, 1), (1, 2)])) is None

    @given(small_graphs(max_n=7))
    @settings(max_examples=60)
    def test_partition_is_valid(self, G):
        parts = cm_clique_partition(G)
        if parts is None:
            return
        assert sum(p.bit_count() for p in parts) == G.n
        cliques = set(maximal_cliques(G))
        free = free_vertices(G)
        union = 0
        for p in parts:
            assert p in cliques and p & free
            assert not p & union
            union |= p

    @pytest.mark.parametrize("name, nmax", [("graphs_le7", 7), ("chordal_le9", 8)])
    def test_against_brute_force(self, name, nmax):
        found = 0
        for G in _bundled_graphs(name, nmax):
            want = oracles.brute_cm_partition(G)
            assert cm_clique_partition(G) == want, G
            found += want is not None
        assert found > 50


class TestColonGraph:
    def test_p4_middle(self, p4):
        tilde = colon_graph(p4, 1, 2)
        assert tilde.edges == ((1 << 0) | (1 << 3),)
        assert sqfree_power(p4, 2).colon(0b0110) == SquareFreeIdeal(4, tilde.edges)

    def test_c6_pattern(self):
        C6 = cycle_graph(6)
        tilde = colon_graph(C6, 0, 1)
        assert sorted(map(vertices_of, tilde.edges)) == [
            (2, 3),
            (2, 5),
            (3, 4),
            (4, 5),
        ]
        assert sqfree_power(C6, 2).colon(0b11) == SquareFreeIdeal(6, tilde.edges)

    def test_rejects_non_edge(self, p4):
        with pytest.raises(InputError):
            colon_graph(p4, 0, 2)

    @given(small_graphs(max_n=7))
    @settings(max_examples=60)
    def test_identity_everywhere(self, G):
        i2 = sqfree_power(G, 2)
        for e in G.edges:
            x = (e & -e).bit_length() - 1
            y = e.bit_length() - 1
            tilde = colon_graph(G, x, y)
            assert i2.colon(e) == SquareFreeIdeal(G.n, tilde.edges)

    @given(small_graphs(max_n=7))
    @settings(max_examples=40)
    def test_chordal_gives_weakly_chordal(self, G):
        if not is_chordal(G)[0]:
            return
        for e in G.edges:
            x = (e & -e).bit_length() - 1
            y = e.bit_length() - 1
            assert is_weakly_chordal(colon_graph(G, x, y))
