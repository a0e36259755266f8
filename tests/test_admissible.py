import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import complete_graph, cycle_graph
from sqfpow import (
    Graph,
    Hypergraph,
    InputError,
    aim,
    aim_profile,
    aim_star,
    bundled_corpus,
    forcing_components,
    induced_matching_number,
    induced_sub,
    is_generalized_k_admissible,
    is_rigid_part,
    lower_bound,
    matching_number,
)
from sqfpow import hypergraphs
from sqfpow.admissible import best_admissible_witness
from sqfpow.corpus import random_hypergraph
from test_hypergraphs import small_graphs, small_hypergraphs


class TestForcingComponents:
    def test_p4_merges(self, p4):
        assert forcing_components(p4, (0, 2)) == ((0, 2),)

    def test_two_disjoint_edges_stay_split(self):
        H = Hypergraph(4, [(0, 1), (2, 3)])
        assert forcing_components(H, (0, 1)) == ((0,), (1,))

    def test_k6_one_component(self):
        K6 = complete_graph(6)
        m = [i for i, e in enumerate(K6.edges) if e in (0b11, 0b1100, 0b110000)]
        assert forcing_components(K6, m) == (tuple(sorted(m)),)

    def test_rejects_non_matching(self, p4):
        with pytest.raises(InputError):
            forcing_components(p4, (0, 1))

    @given(small_hypergraphs())
    def test_every_valid_partition_coarsens(self, H):
        matchings = [m for m in oracles.brute_matchings(H.edges) if 0 < len(m) <= 3]
        for m in matchings[:5]:
            comps = forcing_components(H, m)
            label = {}
            for ci, comp in enumerate(comps):
                for i in comp:
                    label[i] = ci
            sets = oracles.masks_to_sets(H.edges)
            for parts in oracles.set_partitions(list(m)):
                if oracles._condition1(sets, parts):
                    for part in parts:
                        assert len({label[i] for i in part}) >= 1
                        # condition (1) partitions are unions of components
                        comp_ids = {label[i] for i in part}
                        members = {i for ci in comp_ids for i in comps[ci]}
                        assert members == set(part)


class TestRigidity:
    def test_p4_pair_is_rigid(self, p4):
        # only size-2 matching of P4[{a,b,c,d}] is {ab, cd}, covering all
        assert is_rigid_part(p4, (0, 2)) is True

    def test_triangle_single_edge_rigid(self):
        # H[{0,1}] has the single edge {0,1}; every 1-matching covers it
        tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert is_rigid_part(tri, (0,)) is True

    def test_k2_edge(self):
        assert is_rigid_part(Graph(2, [(0, 1)]), (0,)) is True

    def test_non_rigid_when_bigger_matching_exists(self):
        # {0..3} with edges 01, 23, 12: the part {01,23} is rigid, but
        # adding a vertex pendant on 1 in the span breaks nothing; instead
        # P5's middle pair leaves an uncovered vertex path
        P5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        # V(part) = {0,1,3,4}; edges inside: 01, 34 only; rigid
        assert is_rigid_part(P5, (0, 3)) is True
        # V(part) = {0,1,2,3}: edges 01,12,23; matching {12} of size 1... use size-2
        # {01,23} covers; rigid as well; build a genuinely non-rigid part:
        H = Hypergraph(5, [(0, 1), (2, 3), (2, 4)])
        # V = {0,1,2,3}; matchings of size 2 inside: {01,23} covers;
        # but {01,24} is not inside V; size-2 all cover -> rigid
        assert is_rigid_part(H, (0, 1)) is True
        # non-rigid: triangle's vertex set with a 2-matching impossible;
        # use the 4-cycle: part {01, 23} inside C4 has matching {12, 30}? not disjoint
        C6 = cycle_graph(6)
        # V(M) = all six vertices; size-3 matchings of C6: two perfect + none partial
        assert is_rigid_part(C6, (0, 2, 4)) is True
        H2 = Hypergraph(6, [(0, 1), (2, 3), (4, 5), (1, 2), (3, 4)])
        # size-3 matchings inside V = all: {01,23,45} and {05?}.. {12,34} size 2;
        # {01,34}+? (1,2)&(3,4): {01,(3,4)... edges are 01,23,45,12,34
        # {01,23,45} covers; {01,34}+nothing disjoint of size 3? {01,34,?}: 45&34 clash
        assert is_rigid_part(H2, (0, 1, 2)) is True

    def test_rejects_non_matching(self, p4):
        with pytest.raises(InputError):
            is_rigid_part(p4, (0, 1))

    @given(small_hypergraphs(max_edges=4))
    def test_against_definition(self, H):
        sets = oracles.masks_to_sets(H.edges)
        # every matching, the empty one included
        for m in oracles.brute_matchings(H.edges):
            assert is_rigid_part(H, m) == oracles._condition3(sets, list(m))

    def test_against_definition_on_mixed_edge_sizes(self):
        rng = random.Random(11)
        seen = set()
        for _ in range(120):
            H = random_hypergraph(rng, n_range=(4, 8), size_range=(1, 4), max_edges=7)
            sets = oracles.masks_to_sets(H.edges)
            for m in oracles.brute_matchings(H.edges):
                rigid = is_rigid_part(H, m)
                assert rigid == oracles._condition3(sets, list(m))
                seen.add(rigid)
        assert seen == {True, False}
        assert is_rigid_part(Hypergraph(3), ()) is True


class TestGeneralizedAdmissible:
    def test_induced_matching_iff_k1(self, fig1):
        # generalized 1-admissible matchings are exactly the induced matchings
        m = (0, 22)  # {0,1} and {15,16}: induced
        w = is_generalized_k_admissible(fig1, m, 1)
        assert w is not None and w.parts == ((0,), (22,))

    def test_p4_pair_k2_single_part(self, p4):
        w = is_generalized_k_admissible(p4, (0, 2), 2)
        assert w is not None
        assert w.parts == ((0, 2),)
        assert w.to_json_dict(p4) == {
            "edges": [[0, 1], [2, 3]],
            "parts": [[0, 2]],
            "k": 2,
        }

    def test_triangle_single_edge_k1(self):
        tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
        w = is_generalized_k_admissible(tri, (0,), 1)
        assert w is not None  # a single edge is always an induced matching

    def test_k_out_of_range(self, p4):
        with pytest.raises(InputError):
            is_generalized_k_admissible(p4, (0,), 3)

    @given(small_hypergraphs(max_edges=4))
    @settings(max_examples=60)
    def test_against_partition_search(self, H):
        nu = matching_number(H)
        if nu == 0:
            return
        for m in oracles.brute_matchings(H.edges):
            if not 0 < len(m) <= 3:
                continue
            for k in range(1, nu + 1):
                got = is_generalized_k_admissible(H, m, k) is not None
                want = oracles.brute_is_generalized_admissible(H.edges, m, k)
                assert got == want, (H, m, k)

    @given(small_graphs(max_n=6))
    @settings(max_examples=60)
    def test_k1_iff_induced(self, G):
        nu = matching_number(G)
        if nu == 0:
            return
        sets = oracles.masks_to_sets(G.edges)
        for m in oracles.brute_matchings(G.edges):
            if not m:
                continue
            covered = set().union(*(sets[i] for i in m))
            induced = {i for i, e in enumerate(sets) if e <= covered} == set(m)
            assert (is_generalized_k_admissible(G, m, 1) is not None) == induced


class TestAim:
    def test_aim1_is_nu1(self, fig1):
        assert aim(fig1, 1) == induced_matching_number(fig1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_complete_graph_aim(self, k):
        G = complete_graph(2 * k)
        assert aim(G, k) == k
        assert aim_star(G, k) == 1

    def test_p4(self, p4):
        assert aim(p4, 2) == 2

    def test_rejects_non_uniform(self):
        H = Hypergraph(5, [(0, 1), (2, 3, 4)])
        with pytest.raises(InputError):
            aim(H, 1)

    def test_rejects_k_out_of_range(self, p4):
        with pytest.raises(InputError):
            aim(p4, 3)

    def test_triangle_star(self):
        tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert aim_star(tri, 1) == 1

    def test_star_rejects_hypergraph(self):
        H = Hypergraph(4, [(0, 1), (2, 3)])
        with pytest.raises(InputError):
            aim_star(H, 1)

    @given(small_graphs(max_n=6))
    @settings(max_examples=50)
    def test_aim_against_oracle(self, G):
        nu = matching_number(G)
        for k in range(1, nu + 1):
            assert aim(G, k) == oracles.brute_aim(G.edges, k)
            assert aim_star(G, k) == oracles.brute_aim_star(G.n, G.edges, k)

    def test_aim_star_against_oracle_exhaustive(self):
        checked = 0
        for item in bundled_corpus("graphs_le7"):
            G = item.obj
            if G.n > 6:
                continue
            for k in range(1, matching_number(G) + 1):
                assert aim_star(G, k) == oracles.brute_aim_star(G.n, G.edges, k), (G, k)
                checked += 1
        assert checked == 486

    @given(small_hypergraphs(max_edges=5, sizes=(3, 3)))
    @settings(max_examples=40)
    def test_aim_3uniform_against_oracle(self, H):
        for k in range(1, matching_number(H) + 1):
            assert aim(H, k) == oracles.brute_aim(H.edges, k)

    @given(small_graphs(max_n=7))
    @settings(max_examples=50)
    def test_profile_chain(self, G):
        prof = aim_profile(G)
        nu = matching_number(G)
        assert len(prof) == nu
        if not prof:
            return
        assert prof[0] == oracles.brute_induced_matching_number(G.edges)
        for k in range(1, nu + 1):
            assert prof[k - 1] == aim(G, k)
            assert prof[k - 1] >= k
            if k >= 2:
                assert prof[k - 2] <= prof[k - 1] <= prof[k - 2] + 1
        assert prof[-1] <= nu

    def test_nu1_is_not_read_off_the_forcing_parts(self, monkeypatch):
        # aim(H,1) comes from the parts and nu1 from the induced-edge count,
        # so a forcing step that never merges shows up as a disagreement
        def never_merges(parts, e, touch):
            return parts + ((e, 1),)

        P4 = [(0, 1), (1, 2), (2, 3)]
        G = Graph(4, P4)
        assert aim_profile(G)[0] == induced_matching_number(G) == 1
        monkeypatch.setattr(hypergraphs, "forcing_step", never_merges)
        G = Graph(4, P4)  # a fresh object, so the fold is walked again
        assert aim_profile(G)[0] == 2
        assert induced_matching_number(G) == 1

    def test_profile_length_is_nu_not_largest_defect(self):
        # 2K2: the one matching of size 2 has two parts, so its defect is 0
        assert aim_profile(Graph(4, [(0, 1), (2, 3)])) == [2, 2]

    @given(small_graphs(max_n=6))
    @settings(max_examples=40)
    def test_aim_star_le_aim(self, G):
        for k in range(1, matching_number(G) + 1):
            assert aim_star(G, k) <= aim(G, k)

    def test_forest_star_equals_aim(self, fig1):
        # forests: take the spanning forest pieces of fig1's tree-ish part
        T = Graph(7, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (0, 6)])
        for k in range(1, matching_number(T) + 1):
            assert aim_star(T, k) == aim(T, k)


class TestLowerBound:
    def test_two_disjoint_triples(self):
        H = Hypergraph(6, [(0, 1, 2), (3, 4, 5)])
        assert lower_bound(H, 1) == 4
        assert lower_bound(H, 1) == (3 - 1) * aim(H, 1)

    def test_disjoint_edge_hypergraph(self):
        H = Hypergraph(9, [(0, 1), (2, 3, 4), (5, 6, 7, 8)])
        for k in (1, 2, 3):
            assert lower_bound(H, k) == 9 - 3

    def test_k4(self, k4):
        assert lower_bound(k4, 2) == 2

    @given(small_hypergraphs(max_edges=4))
    @settings(max_examples=40)
    def test_against_oracle(self, H):
        nu = matching_number(H)
        for k in range(1, nu + 1):
            assert lower_bound(H, k) == oracles.brute_lower_bound(H.edges, k)

    @given(st.one_of(small_hypergraphs(max_edges=4), small_graphs(max_n=5)))
    @settings(max_examples=40)
    def test_witness_is_first_maximizer(self, H):
        sets = oracles.masks_to_sets(H.edges)

        def value(m):
            return len(set().union(*(sets[i] for i in m))) - len(m)

        for k in range(1, matching_number(H) + 1):
            admissible = [
                m
                for m in sorted(oracles.brute_matchings(H.edges))
                if oracles.brute_is_generalized_admissible(H.edges, m, k)
            ]
            # max keeps the first of equal values, in lexicographic order
            first = max(admissible, key=value)
            assert best_admissible_witness(H, k) == is_generalized_k_admissible(H, first, k)

    def test_fold_against_oracle_and_witness_on_mixed_edge_sizes(self):
        rng = random.Random(23)
        non_rigid = 0
        for _ in range(60):
            H = random_hypergraph(rng, n_range=(4, 8), size_range=(1, 4), max_edges=7)
            sets = oracles.masks_to_sets(H.edges)
            for m in oracles.brute_matchings(H.edges):
                if m:
                    parts = forcing_components(H, m)
                    non_rigid += not all(oracles._condition3(sets, list(p)) for p in parts)
            for k in range(1, matching_number(H) + 1):
                witness = best_admissible_witness(H, k)
                value = sum(H.edges[i].bit_count() - 1 for i in witness.matching)
                assert lower_bound(H, k) == oracles.brute_lower_bound(H.edges, k) == value
        assert non_rigid > 0

    def test_memo_answers_each_hypergraph_by_itself(self, monkeypatch):
        edges = [(0, 1, 2), (2, 3), (3, 4, 5), (1, 4), (5, 6), (0, 6)]
        A = Hypergraph(7, edges)
        B = Hypergraph(7, edges[::-1])
        C = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])

        def answers(H):
            ks = range(1, matching_number(H) + 1)
            lbs = [lower_bound(H, k) for k in ks]
            witnesses = [best_admissible_witness(H, k) for k in ks]
            prof = aim_profile(H) if H.uniform_size() else None
            return lbs, witnesses, prof, induced_matching_number(H)

        fresh = {id(H): answers(Hypergraph(H.n, H.edges)) for H in (A, B, C)}
        for H in (A, C, B, A, B, B, C, A):
            assert answers(H) == fresh[id(H)]
        for H in (C, A, C, B):
            assert lower_bound(H, 2) == fresh[id(H)][0][1]
            assert induced_matching_number(H) == fresh[id(H)][3]

        # one walk for the fold and one for the L table, whatever the number of k
        walked = []
        real = hypergraphs.walk_matchings
        for module in ("sqfpow.hypergraphs", "sqfpow.admissible"):
            monkeypatch.setattr(f"{module}.walk_matchings", lambda H: walked.append(H) or real(H))
        D = Hypergraph(7, edges)
        assert answers(D) == fresh[id(A)]
        assert walked == [D, D]

    def test_k_out_of_range_and_edgeless(self, p4):
        for k in (0, matching_number(p4) + 1):
            with pytest.raises(InputError):
                lower_bound(p4, k)
        with pytest.raises(InputError):
            lower_bound(Hypergraph(3), 1)

    @given(small_graphs(max_n=6))
    @settings(max_examples=40)
    def test_duniform_formula(self, G):
        for k in range(1, matching_number(G) + 1):
            assert lower_bound(G, k) == aim(G, k)

    @given(small_hypergraphs(max_edges=4, sizes=(3, 3)))
    @settings(max_examples=30)
    def test_3uniform_formula(self, H):
        for k in range(1, matching_number(H) + 1):
            assert lower_bound(H, k) == 2 * aim(H, k)


class TestInducedClosure:
    @given(small_hypergraphs())
    @settings(max_examples=40)
    def test_witness_recertifies_in_host(self, H):
        wmask = H.covered() & 0b1011011
        H1 = induced_sub(H, wmask)
        # H1 keeps the edges of H inside W in order, so this maps its edge indices back
        edge_map = [i for i, e in enumerate(H.edges) if not e & ~wmask]
        nu1 = matching_number(H1)
        nu = matching_number(H)
        for m in oracles.brute_matchings(H1.edges):
            if not 0 < len(m) <= 2:
                continue
            for k in range(1, min(nu1, nu) + 1):
                w = is_generalized_k_admissible(H1, m, k)
                if w is not None:
                    lifted = tuple(edge_map[i] for i in m)
                    assert is_generalized_k_admissible(H, lifted, k) is not None
