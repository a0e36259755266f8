import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import cycle_graph
from sqfpow import (
    BudgetError,
    Graph,
    Hypergraph,
    InputError,
    SquareFreeIdeal,
    aim,
    betti_splitting_check,
    betti_table,
    edge_ideal,
    regularity,
    sqfree_power,
)
from sqfpow import betti
from sqfpow.betti import _check_characteristic, _vertex_set_tables
from sqfpow.corpus import random_squarefree_ideal


def _random_graph(rng, n, density):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])


def _spy_complexes(mp):
    """Records (W, floor, apex, complex, cut) of every complex regularity builds.

    A link of v in Delta[W + v] is recorded with its vertex set W and apex v;
    a full complex Delta[W] with apex 0.  ``cut`` is True when the floor
    level was cut from the list handed in, not tested from the subsets of W.
    """
    built = []
    real = betti._WComplex
    real_level = betti._face_level
    listed = []

    def face_level(*args):
        listed.append(1)
        return real_level(*args)

    def spy(W, nf, char, floor, shared=None, apex=0):
        before = len(listed)
        wc = real(W, nf, char, floor, shared, apex)
        built.append((W, floor, apex, wc, len(listed) == before))
        return wc

    mp.setattr(betti, "_WComplex", spy)
    mp.setattr(betti, "_face_level", face_level)
    return built


def _spy_cones(mp):
    """Records (W, v, points) of every cone test regularity makes: each W
    that reaches the link test, its picked vertex v and the cone points found."""
    tested = []
    real = betti._cone_points

    def spy(W, v, faces, nf):
        points = real(W, v, faces, nf)
        tested.append((W, v, points))
        return points

    mp.setattr(betti, "_cone_points", spy)
    return tested


def _block_path(sizes):
    """The block graph whose blocks, cliques of these sizes, are chained in a path."""
    edges, start = [], 0
    for size in sizes:
        block = range(start, start + size)
        edges += [(u, v) for u in block for v in block if u < v]
        start += size - 1
    return Graph(start + 1, edges)


def taylor_entries(I, p):
    vectors = [
        tuple(1 if g >> i & 1 else 0 for i in range(I.n)) for g in I.gens
    ]
    return oracles.taylor_betti(I.n, vectors, p)


class TestBettiTable:
    def test_principal(self):
        I = SquareFreeIdeal(2, [(0, 1)])
        assert betti_table(I).entries == {(0, 2): 1}

    def test_path_ideal(self):
        I = SquareFreeIdeal(3, [(0, 1), (1, 2)])
        table = betti_table(I)
        assert table.entries == {(0, 2): 2, (1, 3): 1}
        assert table.entries == taylor_entries(I, 2)

    def test_complete_intersection(self):
        I = SquareFreeIdeal(4, [(0, 1), (2, 3)])
        table = betti_table(I)
        assert table.entries == {(0, 2): 2, (1, 4): 1}
        assert table.entries == taylor_entries(I, 2)

    def test_linear_variables(self):
        I = SquareFreeIdeal(3, [(0,), (1,), (2,)])
        # Koszul complex on three variables
        assert betti_table(I).entries == {(0, 1): 3, (1, 2): 3, (2, 3): 1}

    def test_rejects_zero_unit(self):
        with pytest.raises(InputError):
            betti_table(SquareFreeIdeal(3))
        with pytest.raises(InputError):
            betti_table(SquareFreeIdeal(3, [()]))

    def test_rejects_nonprime(self):
        I = SquareFreeIdeal(2, [(0, 1)])
        with pytest.raises(InputError):
            betti_table(I, 4)
        with pytest.raises(InputError):
            betti_table(I, 0)

    @given(st.one_of(st.integers(2, 10**6), st.integers(2, 2**64 - 1)))
    @settings(max_examples=300)
    def test_primality_matches_sympy(self, p):
        try:
            _check_characteristic(p)
            accepted = True
        except InputError:
            accepted = False
        assert accepted == sympy.isprime(p)

    @pytest.mark.parametrize(
        "p",
        [
            561,  # Carmichael
            41041,  # Carmichael
            2047,  # strong pseudoprime to base 2
            3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
            3825123056546413051,  # strong pseudoprime to bases 2..23
            (2**32 - 5) * (2**31 - 1),
        ],
    )
    def test_rejects_pseudoprimes(self, p):
        with pytest.raises(InputError, match="not prime"):
            _check_characteristic(p)

    @pytest.mark.parametrize("p", [2, 3, 32003, 4294967291, 2**61 - 1, 2**64 - 59])
    def test_accepts_primes(self, p):
        _check_characteristic(p)

    def test_rejects_characteristic_from_2_64(self):
        with pytest.raises(InputError, match="2\\^64"):
            _check_characteristic(2**64 + 13)

    def test_budget(self):
        with pytest.raises(BudgetError):
            betti_table(SquareFreeIdeal(21, [(0, 1)]))
        with pytest.raises(BudgetError):
            regularity(SquareFreeIdeal(21, [(0, 1)]))
        # regularity answers the zero ideal before it checks the budget;
        # betti_table checks the budget first
        assert regularity(SquareFreeIdeal(21)) == 0
        with pytest.raises(BudgetError):
            betti_table(SquareFreeIdeal(21))

    @given(st.integers(0, 9), st.lists(st.integers(0, 2**9 - 1), max_size=5))
    def test_vertex_set_tables_match_brute_force(self, n, masks):
        # masks may be empty or nested: the tables do not need an antichain
        gens = [m & ((1 << n) - 1) for m in masks]
        closed_sets, closed, nf = _vertex_set_tables(n, tuple(gens))
        assert len(closed) == len(nf) == 1 << n
        for m in range(1 << n):
            inside = [g for g in gens if g & m == g]
            union = 0
            for g in inside:
                union |= g
            assert closed[m] == (m != 0 and union == m)
            assert nf[m] == bool(inside)
        assert closed_sets == [m for m in range(1 << n) if closed[m]]

    @given(st.integers(0, 8), st.lists(st.integers(0, 2**8 - 1), max_size=12))
    def test_union_table_matches_brute_force(self, n, masks):
        # regularity's table of the unions of the size-best faces
        faces = [m & ((1 << n) - 1) for m in masks]
        table = betti._spread(betti._unions(n, faces)[0], 1 << n)
        assert len(table) == 1 << n
        for m in range(1 << n):
            union = 0
            for f in faces:
                if f & m == f:
                    union |= f
            assert table[m] == (m != 0 and union == m)

    def test_csv_rows(self):
        I = SquareFreeIdeal(3, [(0, 1), (1, 2)])
        assert betti_table(I).csv_rows() == ["0,2,2", "1,3,1"]

    @given(st.integers(0, 500))
    @settings(max_examples=80, deadline=None)
    def test_hochster_vs_taylor_char2(self, seed):
        rng = random.Random(seed)
        I = random_squarefree_ideal(rng, n_range=(2, 6), max_gens=4)
        assert betti_table(I, 2).entries == taylor_entries(I, 2)

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_hochster_vs_taylor_char32003(self, seed):
        rng = random.Random(seed)
        I = random_squarefree_ideal(rng, n_range=(2, 5), max_gens=4)
        assert betti_table(I, 32003).entries == taylor_entries(I, 32003)

    @pytest.mark.parametrize("p", [4294967291, 2**64 - 59])
    @given(seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_hochster_vs_taylor_large_prime(self, p, seed):
        # residues near 2^32 and 2^64 overflow any fixed-width product
        rng = random.Random(seed)
        I = random_squarefree_ideal(rng, n_range=(2, 6), max_gens=4)
        assert betti_table(I, p).entries == taylor_entries(I, p)


class TestRegularity:
    def test_conventions(self):
        assert regularity(SquareFreeIdeal(3)) == 0
        assert regularity(SquareFreeIdeal(3, [()])) == 0

    def test_complete_intersection(self):
        assert regularity(SquareFreeIdeal(4, [(0, 1), (2, 3)])) == 3

    def test_principal_is_degree(self, p4):
        assert regularity(sqfree_power(p4, 2)) == 4

    def test_matches_table_regularity(self):
        rng = random.Random(7)
        for _ in range(40):
            I = random_squarefree_ideal(rng, n_range=(2, 7), max_gens=5)
            assert regularity(I) == betti_table(I).regularity()

    @pytest.mark.parametrize("p", [2, 3, 32003, 4294967291])
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_pruned_regularity_matches_table(self, p, seed):
        # regularity lists only the levels above its running floor best - 1,
        # betti_table every level above the full skeleton
        rng = random.Random(seed)
        I = random_squarefree_ideal(rng, n_range=(2, 8), max_gens=6)
        assert regularity(I, p) == betti_table(I, p).regularity()

    def test_scan_stops_at_best_plus_one(self):
        # a W on best + 1 vertices could beat best only through
        # H~_{|W|-2}, which needs W to be a generator of degree > best
        rng = random.Random(11)
        ideals = [random_squarefree_ideal(rng, n_range=(4, 9), max_gens=7) for _ in range(40)]
        for n in (7, 8, 9):
            G = _random_graph(rng, n, 0.4)
            ideals += [sqfree_power(G, k) for k in (1, 2, 3)]
        scanned = 0
        for I in ideals:
            for p in (2, 32003):
                with pytest.MonkeyPatch.context() as mp:
                    built = _spy_complexes(mp)
                    tested = _spy_cones(mp)
                    reg = regularity(I, p)
                # a link has one vertex and one floor level fewer than its W
                assert all(W.bit_count() > floor + 2 for W, floor, *_ in built)
                assert reg == betti_table(I, p).regularity()
                # every W that reaches the link test counts, coned or built
                scanned += len(tested)
        assert scanned > 100

    @pytest.mark.parametrize("p", [2, 32003])
    def test_floor_level_cut_from_shared_list(self, p):
        # the link's floor level is cut from the size-best faces through its
        # apex; that path must run, and give the table's regularity
        rng = random.Random(p)
        cuts = 0
        for n in (10, 11, 12):
            G = _random_graph(rng, n, 0.3)
            for k in (2, 3):
                I = sqfree_power(G, k)
                with pytest.MonkeyPatch.context() as mp:
                    built = _spy_complexes(mp)
                    reg = regularity(I, p)
                assert reg == betti_table(I, p).regularity()
                cuts += sum(1 for _, _, apex, wc, cut in built if apex and cut and wc.faces)
        assert cuts > 0

    @pytest.mark.parametrize("p", [2, 32003])
    def test_union_table_built_only_past_its_gate(self, p):
        # the table of unions of size-best faces costs n(n - 1) shift steps;
        # regularity builds it only when more closed sets are left to scan
        def spy_unions(mp):
            calls = []
            real = betti._unions

            def spy(n, sets):
                calls.append(n)
                return real(n, sets)

            mp.setattr(betti, "_unions", spy)
            return calls

        # a 3-uniform probe on 7 vertices has 27 closed sets, fewer than its
        # 42 shift steps: only the generator tables are built, and only the
        # link of the picked vertex is tested
        H = Hypergraph(7, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 3, 6), (1, 4, 6), (0, 2, 5)])
        I = sqfree_power(H, 1)
        with pytest.MonkeyPatch.context() as mp:
            calls = spy_unions(mp)
            built = _spy_complexes(mp)
            reg = regularity(I, p)
        assert calls == [7] and built
        assert reg == betti_table(I, p).regularity()
        rng = random.Random(p)
        tables = 0
        for n in (10, 11, 12):
            G = _random_graph(rng, n, 0.3)
            for k in (2, 3):
                I = sqfree_power(G, k)
                with pytest.MonkeyPatch.context() as mp:
                    calls = spy_unions(mp)
                    reg = regularity(I, p)
                assert reg == betti_table(I, p).regularity()
                assert calls[0] == n and set(calls) == {n}
                tables += len(calls) - 1
        assert tables >= 6

    @pytest.mark.parametrize("p", [2, 3, 32003])
    def test_every_branch_of_the_link_test(self, p):
        # regularity ranks the link of one vertex v of W before Delta[W]; each
        # way out of that test must run and keep the table's regularity
        rng = random.Random(100 + p)
        ideals = [random_squarefree_ideal(rng, n_range=(5, 9), max_gens=7) for _ in range(60)]
        for n in (8, 10, 12):
            G = _random_graph(rng, n, 0.35)
            ideals += [sqfree_power(G, k) for k in (1, 2, 3)]
        assert any(g.bit_count() == 1 for I in ideals for g in I.gens)
        empty = coned = acyclic_scanned = cone = full = 0
        for I in ideals:
            if I.is_zero() or I.is_unit():
                continue
            with pytest.MonkeyPatch.context() as mp:
                built = _spy_complexes(mp)
                tested = _spy_cones(mp)
                reg = regularity(I, p)
            assert reg == betti_table(I, p).regularity()
            if len(I.gens) <= 8:
                assert reg == max(j - i for i, j in taylor_entries(I, p))
            closed_sets, closed, _ = betti._vertex_set_tables(I.n, I.gens)
            links = [(U, v, wc) for U, _, v, wc, _ in built if v]
            fulls = [W for W, _, v, _, _ in built if not v]
            scanned = {U | v for U, v, _ in links}
            assert set(fulls) <= scanned and len(fulls) == len(set(fulls))
            # every W above reg + 1 is scanned.  One that never reaches the
            # link test has a vertex in no size-best face inside W (read from
            # the union table), so that vertex's link floor level is empty;
            # one that reaches it has lk v built exactly when lk v has no cone
            # point on its floor level (an empty floor level is a cone)
            reached = {W for W, _, _ in tested}
            assert len(reached) == len(tested)
            assert scanned == {W for W, _, points in tested if not points}
            empty += sum(1 for W in closed_sets if W.bit_count() > reg + 1 and W not in reached)
            coned += sum(1 for _, _, points in tested if points)
            for U, v, wc in links:
                # wc.faces[0] is the link's floor level
                assert wc.faces
                top = wc.top_degree()
                if top is None:
                    # skipped: H~_t(Delta[W]) is the image of H~_t(Delta[W - v])
                    assert U | v not in fulls
                    acyclic_scanned += closed[U] and U in scanned
                elif not closed[U]:
                    # Delta[W - v] is a cone: best is read off the link
                    assert U | v not in fulls
                    assert reg >= top + 3
                    cone += 1
                else:
                    assert U | v in fulls
            full += len(fulls)
        assert empty and coned and acyclic_scanned and cone and full

    @given(
        st.integers(1, 8),
        st.lists(st.integers(1, 2**8 - 1), min_size=1, max_size=6),
        st.integers(0, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_cone_points_are_exact(self, n, masks, extra):
        # for any best at or above the top generator degree, the cone test
        # finds exactly the u of W - v that lie in every maximal listed face
        # of lk v (its faces of size >= best - 1), and when it finds one the
        # link has no homology in degrees >= best - 2 at any characteristic
        I = SquareFreeIdeal(n, [m & ((1 << n) - 1) for m in masks])
        if I.is_zero() or I.is_unit():
            return
        best = I.max_degree() + extra
        closed_sets, _, nf = _vertex_set_tables(n, I.gens)
        faces = betti._face_level(betti._vertex_bits((1 << n) - 1), best, nf)
        for W in closed_sets:
            for v in betti._vertex_bits(W):
                points = betti._cone_points(W, v, [f for f in faces if f & v], nf)
                link = betti._WComplex(W ^ v, nf, 2, best - 2, None, v)
                listed = [f for level in link.faces for f in level]
                maximal = [f for f in listed if not any(f != g and f & g == f for g in listed)]
                brute = sum(u for u in betti._vertex_bits(W ^ v) if all(u & f for f in maximal))
                assert points == brute
                if points:
                    for p in (2, 3, 32003):
                        assert betti._WComplex(W ^ v, nf, p, best - 2, None, v).top_degree() is None

    @pytest.mark.parametrize("p", [2, 32003])
    def test_cone_skip_runs(self, p):
        # the cone test must skip links on homology-size block graphs and on
        # a 7-vertex 3-uniform probe; the answers stay the theorem's aim + k
        # and the table's regularity
        G = _block_path([3, 3, 3, 3, 2, 2, 2, 2, 2])
        probe = Hypergraph(7, [(0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 3, 6), (1, 4, 6), (0, 2, 5)])
        for H, k, expected in [
            (G, 2, aim(G, 2) + 2),
            (G, 3, aim(G, 3) + 3),
            (probe, 1, betti_table(sqfree_power(probe, 1), p).regularity()),
        ]:
            with pytest.MonkeyPatch.context() as mp:
                tested = _spy_cones(mp)
                reg = regularity(sqfree_power(H, k), p)
            assert reg == expected
            assert any(points for _, _, points in tested)

    def test_18_vertex_query_in_bounded_memory(self):
        # reg(I(G)^[3]) at 32003 for an 18-vertex block graph (five triangles
        # and seven edges chained in a path), in a child process whose address
        # space is capped at 1 GiB; a dense boundary matrix here passes 1 GiB
        G = _block_path([3, 3, 2, 2, 2, 3, 2, 3, 2, 2, 3, 2])
        assert G.n == 18 and aim(G, 3) + 3 == 10
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from sqfpow import Graph, regularity, sqfree_power\n"
            f"G = Graph(18, {list(G.edges)!r})\n"
            "print(regularity(sqfree_power(G, 3), 32003))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        result = subprocess.run(
            [sys.executable, "-c", child],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "10"

    def test_20_variable_query_in_bounded_memory(self):
        # the budget edge: the vertex-set tables hold 2^20 bits and bytes per
        # set, under the same 1 GiB cap; ten disjoint edges have reg 11
        edges = [(2 * i, 2 * i + 1) for i in range(10)]
        child = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from sqfpow import Graph, regularity, sqfree_power\n"
            f"I = sqfree_power(Graph(20, {edges!r}), 1)\n"
            "print(regularity(I, 2), regularity(I, 32003))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        result = subprocess.run(
            [sys.executable, "-c", child],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "11 11"

    def test_known_edge_ideals(self, c5, k4):
        # frozen from the Taylor oracle (C5 is not weakly chordal: reg > nu1+1)
        assert regularity(edge_ideal(k4)) == 2
        assert regularity(edge_ideal(c5)) == 3
        assert regularity(edge_ideal(cycle_graph(7))) == 3


class TestRegLemmas:
    @given(st.integers(0, 300))
    @settings(max_examples=50, deadline=None)
    def test_colon_and_sum_monotone(self, seed):
        rng = random.Random(seed)
        I = random_squarefree_ideal(rng, n_range=(2, 6), max_gens=4)
        base = regularity(I)
        for v in range(I.n):
            xv = 1 << v
            assert regularity(I.plus(SquareFreeIdeal(I.n, [xv]))) <= base
            assert regularity(I.colon(xv)) <= base

    @given(st.integers(0, 300))
    @settings(max_examples=50, deadline=None)
    def test_colon_sum_split(self, seed):
        rng = random.Random(seed)
        I = random_squarefree_ideal(rng, n_range=(2, 6), max_gens=4)
        base = regularity(I)
        for m in list(I.gens)[:2] + [0b11]:
            upper = max(
                regularity(I.colon(m)) + m.bit_count(),
                regularity(I.plus(SquareFreeIdeal(I.n, [m]))),
            )
            assert base <= upper

    @given(st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_disjoint_sum(self, seed):
        rng = random.Random(seed)
        A = random_squarefree_ideal(rng, n_range=(2, 4), max_gens=3)
        B = random_squarefree_ideal(rng, n_range=(2, 4), max_gens=3)
        n = A.n + B.n
        big = SquareFreeIdeal(n, A.gens).plus(
            SquareFreeIdeal(n, [g << A.n for g in B.gens])
        )
        assert regularity(big) == regularity(A) + regularity(B) - 1


class TestBettiSplittingCheck:
    def test_path_example(self):
        I = SquareFreeIdeal(3, [(0, 1), (1, 2)])
        J = SquareFreeIdeal(3, [(0, 1)])
        K = SquareFreeIdeal(3, [(1, 2)])
        assert betti_splitting_check(I, J, K)["ok"] is True

    def test_precondition_zero_part(self):
        I = SquareFreeIdeal(3, [(0, 1)])
        with pytest.raises(InputError):
            betti_splitting_check(I, I, SquareFreeIdeal(3))

    def test_precondition_partition(self):
        I = SquareFreeIdeal(3, [(0, 1), (1, 2)])
        J = SquareFreeIdeal(3, [(0, 1)])
        with pytest.raises(InputError):
            betti_splitting_check(I, J, J)

    def test_non_splitting_detected(self):
        # splitting P4's edge ideal at the middle edge is NOT a Betti splitting
        I = SquareFreeIdeal(4, [(0, 1), (1, 2), (2, 3)])
        J = SquareFreeIdeal(4, [(1, 2)])
        K = SquareFreeIdeal(4, [(0, 1), (2, 3)])
        result = betti_splitting_check(I, J, K)
        assert result["ok"] is False
        assert result["violations"] == [
            {"i": 1, "j": 4, "beta_I": 0, "rhs": 1},
            {"i": 2, "j": 4, "beta_I": 0, "rhs": 1},
        ]


class TestCharacteristicDependence:
    def test_projective_plane_triangulation(self):
        """The 6-vertex RP^2: Betti numbers genuinely depend on the field."""
        from itertools import combinations

        facets = {
            frozenset(f)
            for f in [
                (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
                (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5),
            ]
        }
        gens = [t for t in combinations(range(6), 3) if frozenset(t) not in facets]
        I = SquareFreeIdeal(6, gens)
        for p in (2, 3, 32003):
            assert betti_table(I, p).entries == taylor_entries(I, p)
        assert betti_table(I, 2).entries == {
            (0, 3): 10, (1, 4): 15, (2, 5): 6, (2, 6): 1, (3, 6): 1,
        }
        assert betti_table(I, 32003).entries == {(0, 3): 10, (1, 4): 15, (2, 5): 6}
        assert regularity(I, 2) == 4
        assert regularity(I, 32003) == 3

    def test_edge_ideal_powers_char_insensitive_in_range(self):
        # sampled dual-characteristic agreement on the verification range
        corpus = [
            it.obj
            for it in __import__("sqfpow").bundled_corpus("chordal_le9")
            if it.obj.n == 7
        ][::12]
        from sqfpow.hypergraphs import matching_number

        for G in corpus:
            for k in range(1, matching_number(G) + 1):
                power = sqfree_power(G, k)
                assert regularity(power, 2) == regularity(power, 32003)
