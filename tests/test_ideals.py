import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqfpow import (
    GeneralMonomialIdeal,
    Hypergraph,
    InputError,
    SquareFreeIdeal,
    disjoint_union,
    edge_ideal,
    matching_power_general,
    polarize,
    splitting_for_disjoint_union,
    sqfree_power,
)
from sqfpow.corpus import parse_instance


def _contains(I, mask):
    """The square-free monomial mask lies in I."""
    return any(g & mask == g for g in I.gens)


def _as_general(I):
    """A square-free ideal as a general monomial ideal with 0/1 exponents."""
    return GeneralMonomialIdeal(I.n, [[g >> i & 1 for i in range(I.n)] for g in I.gens])


@st.composite
def small_sf_ideals(draw, max_n=6, max_gens=4):
    n = draw(st.integers(1, max_n))
    raw = draw(
        st.lists(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=n),
            min_size=1,
            max_size=max_gens,
        )
    )
    return SquareFreeIdeal(n, [tuple(s) for s in raw])


class TestSquareFreeIdeal:
    def test_interreduction(self):
        I = SquareFreeIdeal(3, [(0, 1), (0, 1, 2), (0, 1)])
        assert I.gens == (0b011,)

    @given(st.lists(st.integers(0, 2**7 - 1), max_size=24))
    def test_interreduction_is_minimal_elements(self, masks):
        # duplicates and mixed degrees, against the brute-force minimal elements
        masks = masks + masks[::3]
        minimal = {m for m in masks if not any(g != m and g & m == g for g in masks)}
        gens = SquareFreeIdeal(7, masks).gens
        assert gens == tuple(sorted(minimal, key=lambda m: (m.bit_count(), m)))

    def test_zero_and_unit(self):
        assert SquareFreeIdeal(3).is_zero()
        I = SquareFreeIdeal(3, [(), (0, 1)])
        assert I.is_unit() and I.gens == (0,)

    def test_colon_examples(self):
        I = SquareFreeIdeal(3, [(0, 1), (1, 2)])  # <xy, yz>
        assert I.colon(0b010) == SquareFreeIdeal(3, [(0,), (2,)])
        assert I.colon(0) == I

    def test_colon_principal(self, p4):
        I2 = sqfree_power(p4, 2)
        assert I2.colon(0b0110) == SquareFreeIdeal(4, [(0, 3)])

    def test_plus_absorption(self):
        A = SquareFreeIdeal(3, [(0, 1)])
        B = SquareFreeIdeal(3, [(0,)])
        assert A.plus(B) == B
        assert A + SquareFreeIdeal(3) == A

    def test_plus_disjoint(self):
        got = SquareFreeIdeal(4, [(0, 1)]) + SquareFreeIdeal(4, [(2, 3)])
        assert got == SquareFreeIdeal(4, [(0, 1), (2, 3)])

    def test_plus_universe_mismatch(self):
        with pytest.raises(InputError):
            SquareFreeIdeal(3, [(0,)]).plus(SquareFreeIdeal(4, [(0,)]))

    def test_intersect_examples(self):
        A = SquareFreeIdeal(3, [(0, 1)])
        B = SquareFreeIdeal(3, [(1, 2)])
        assert A.intersect(B) == SquareFreeIdeal(3, [(0, 1, 2)])
        assert A & A == A
        C = SquareFreeIdeal(4, [(0, 1)]) & SquareFreeIdeal(4, [(2, 3)])
        assert C == SquareFreeIdeal(4, [(0, 1, 2, 3)])

    def test_json_roundtrip(self):
        I = SquareFreeIdeal(4, [(0, 1), (2, 3)])
        assert parse_instance(I.to_json()) == I
        assert json.loads(I.to_json()) == {"n": 4, "gens": [[0, 1], [2, 3]]}

    @given(small_sf_ideals(), small_sf_ideals())
    @settings(max_examples=60)
    def test_algebra_props(self, A, B):
        n = max(A.n, B.n)
        A = SquareFreeIdeal(n, A.gens)
        B = SquareFreeIdeal(n, B.gens)
        assert A.plus(B) == B.plus(A)
        assert A.intersect(B) == B.intersect(A)
        meet = A.intersect(B)
        for g in meet.gens:
            assert _contains(A, g) and _contains(B, g)


class TestSqfreePower:
    def test_k4_principal(self, k4):
        assert sqfree_power(k4, 2) == SquareFreeIdeal(4, [(0, 1, 2, 3)])

    def test_p4_principal(self, p4):
        assert sqfree_power(p4, 2) == SquareFreeIdeal(4, [(0, 1, 2, 3)])

    def test_k1_is_edge_ideal(self, c5):
        assert sqfree_power(c5, 1) == edge_ideal(c5)

    def test_nonpositive_k_is_unit(self, p4):
        assert sqfree_power(p4, 0).is_unit()
        assert sqfree_power(p4, -2).is_unit()

    def test_beyond_nu_is_zero(self, p4):
        assert sqfree_power(p4, 3).is_zero()

    def test_interreduction_needed(self):
        # matchings {ab,cd} and {ace,bd} give nested supports
        H = Hypergraph(5, [(0, 1), (2, 3), (0, 2, 4), (1, 3)])
        I = sqfree_power(H, 2)
        assert I.gens == (0b01111,)


class TestSplitting:
    def test_spec_example(self):
        Ha = Hypergraph(2, [(0, 1)])
        Hb = Hypergraph(4, [(0, 1), (2, 3)])
        J, K = splitting_for_disjoint_union(Ha, Hb, 2)
        assert J == SquareFreeIdeal(6, [(0, 1, 2, 3), (0, 1, 4, 5)])
        assert K == SquareFreeIdeal(6, [(2, 3, 4, 5)])
        assert J.plus(K) == sqfree_power(disjoint_union(Ha, Hb), 2)

    def test_k_range_errors(self):
        Ha = Hypergraph(2, [(0, 1)])
        Hb = Hypergraph(4, [(0, 1), (2, 3)])
        with pytest.raises(InputError):
            splitting_for_disjoint_union(Ha, Hb, 4)
        with pytest.raises(InputError):
            splitting_for_disjoint_union(Ha, Hb, 1)

    def test_requires_edges(self):
        with pytest.raises(InputError):
            splitting_for_disjoint_union(Hypergraph(2), Hypergraph(2, [(0, 1)]), 1)

    def test_top_k_gives_zero_K(self):
        Ha = Hypergraph(4, [(0, 1), (2, 3)])
        Hb = Hypergraph(2, [(0, 1)])
        J, K = splitting_for_disjoint_union(Ha, Hb, 3)
        assert K.is_zero()
        assert J == sqfree_power(disjoint_union(Ha, Hb), 3)

    @given(st.integers(2, 3), st.integers(0, 50))
    @settings(max_examples=30)
    def test_sum_identity_random(self, k, seed):
        import random

        from sqfpow.corpus import random_hypergraph

        rng = random.Random(seed)
        H1 = random_hypergraph(rng, n_range=(2, 4), size_range=(1, 3), max_edges=3)
        H2 = random_hypergraph(rng, n_range=(2, 4), size_range=(1, 3), max_edges=3)
        from sqfpow.hypergraphs import matching_number

        nu1, nu2 = matching_number(H1), matching_number(H2)
        if not nu1 + 1 <= k <= nu1 + nu2:
            return
        J, K = splitting_for_disjoint_union(H1, H2, k)
        assert not J.is_zero()
        assert J.plus(K) == sqfree_power(disjoint_union(H1, H2), k)


class TestGeneralIdeals:
    def test_interreduce_divisibility(self):
        I = GeneralMonomialIdeal(2, [(2, 0), (2, 1)])
        assert I.gens == ((2, 0),)

    def test_matching_power_squares(self):
        I = GeneralMonomialIdeal(2, [(2, 0), (0, 2)])
        assert matching_power_general(I, 2) == GeneralMonomialIdeal(2, [(2, 2)])

    def test_matching_power_agrees_with_sqfree(self, c5):
        I = _as_general(edge_ideal(c5))
        for k in (1, 2):
            got = matching_power_general(I, k)
            want = _as_general(sqfree_power(c5, k))
            assert got == want

    def test_matching_power_repeated_supports(self):
        # xy^2 and x^2y share a support, so they never multiply together
        I = GeneralMonomialIdeal(3, [(1, 2, 0), (2, 1, 0), (0, 0, 1)])
        assert matching_power_general(I, 2) == GeneralMonomialIdeal(3, [(1, 2, 1), (2, 1, 1)])
        assert matching_power_general(I, 3).is_zero()

    def test_matching_power_against_brute_products(self):
        rng = random.Random(12)
        repeated = 0
        for _ in range(150):
            n = rng.randint(2, 4)
            gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(2, 7))]
            I = GeneralMonomialIdeal(n, [g for g in gens if any(g)])
            supports = [frozenset(i for i, e in enumerate(g) if e) for g in I.gens]
            repeated += len(set(supports)) < len(supports)
            for k in (1, 2, 3):
                products = []
                for combo in combinations(range(len(I.gens)), k):
                    if all(not supports[a] & supports[b] for a, b in combinations(combo, 2)):
                        products.append([sum(I.gens[j][i] for j in combo) for i in range(n)])
                assert matching_power_general(I, k) == GeneralMonomialIdeal(n, products)
        assert repeated > 10

    def test_json_roundtrip(self):
        I = GeneralMonomialIdeal(2, [(2, 1)])
        assert parse_instance('{"n": 2, "gens_exp": [[2, 1]]}') == I


class TestPolarize:
    def test_square(self):
        I = GeneralMonomialIdeal(1, [(2,)])
        assert polarize(I) == SquareFreeIdeal(2, [(0, 1)])

    def test_squarefree_fixed_point(self):
        I = SquareFreeIdeal(3, [(0, 1), (1, 2)])
        assert polarize(_as_general(I)) == I

    def test_mixed(self):
        I = GeneralMonomialIdeal(2, [(2, 1), (0, 2)])
        # slots: x -> {0,1}, y -> {2,3}
        assert polarize(I) == SquareFreeIdeal(4, [(0, 1, 2), (2, 3)])

    def test_caps_embedding(self):
        I = GeneralMonomialIdeal(2, [(1, 0)])
        assert polarize(I, caps=[2, 1]) == SquareFreeIdeal(3, [(0,)])
        with pytest.raises(InputError):
            polarize(I, caps=[0, 0])

    @given(st.integers(0, 200))
    @settings(max_examples=60)
    def test_polarization_identity(self, seed):
        import random

        from sqfpow.corpus import random_general_ideal

        rng = random.Random(seed)
        I = random_general_ideal(rng, n_range=(2, 4), max_gens=3, max_exp=2)
        caps = [max((g[i] for g in I.gens), default=0) for i in range(I.n)]
        P = polarize(I, caps)
        for k in (1, 2):
            lhs = polarize(matching_power_general(I, k), caps)
            if P.is_zero() or P.is_unit():
                continue
            rhs = sqfree_power(P.hypergraph(), k)
            assert lhs == rhs
