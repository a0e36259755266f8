import random
from importlib import resources

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sqfpow import (
    GeneralMonomialIdeal,
    Graph,
    Hypergraph,
    InputError,
    SquareFreeIdeal,
    bundled_corpus,
    parse_graph6,
    vertex_set,
)
from sqfpow.corpus import (
    load_corpus,
    parse_instance,
    random_disjoint_edge_hypergraph,
    random_general_ideal,
    random_hypergraph,
    random_squarefree_ideal,
    random_uniform_hypergraph,
)
from test_hypergraphs import small_graphs


class TestGraph6:
    def test_k2(self):
        assert parse_graph6("A_") == Graph(2, [(0, 1)])

    def test_k3(self):
        assert parse_graph6("Bw") == Graph(3, [(0, 1), (0, 2), (1, 2)])

    def test_single_vertex(self):
        assert parse_graph6("@") == Graph(1)

    def test_header_stripped(self):
        assert parse_graph6(">>graph6<<A_") == Graph(2, [(0, 1)])

    def test_bad_byte(self):
        # a byte outside 63..126 in the size byte, the long size header or
        # the body
        for line in (">A", "~\x7f??", "A>"):
            with pytest.raises(InputError, match="out of range"):
                parse_graph6(line)

    def test_truncated(self):
        # "A\x20" loses its space to strip() and its one body byte with it
        for line in ("C", "A\x20"):
            with pytest.raises(InputError, match="body length"):
                parse_graph6(line)

    def test_too_long(self):
        with pytest.raises(InputError, match="body length"):
            parse_graph6("A__")

    def test_nonzero_padding(self):
        # n=2 needs one bit; the other five padding bits must be zero
        with pytest.raises(InputError, match="padding"):
            parse_graph6("A" + chr(63 + 0b010001))

    def test_large_n_form(self):
        G = nx.path_graph(63)
        line = nx.to_graph6_bytes(G, header=False).decode().strip()
        mine = parse_graph6(line)
        assert mine.n == 63 and len(mine.edges) == 62

    def test_oversized_rejected(self):
        G = nx.empty_graph(70)
        line = nx.to_graph6_bytes(G, header=False).decode().strip()
        with pytest.raises(InputError, match="exceeds"):
            parse_graph6(line)

    def test_empty_line(self):
        with pytest.raises(InputError, match="empty"):
            parse_graph6(">>graph6<<\n")

    def test_truncated_size_header(self):
        with pytest.raises(InputError, match="truncated"):
            parse_graph6("~??")

    def test_beyond_258047_vertices(self):
        with pytest.raises(InputError, match="258047"):
            parse_graph6("~~" + "?" * 6)

    def test_bundled_lines_match_networkx(self):
        # every 40th line of each shipped catalog decodes to networkx's graph
        for name in ("graphs_le7", "connected_le7", "chordal_le9"):
            lines = (resources.files("sqfpow") / "corpora" / f"{name}.g6").read_text().split()
            for line in lines[::40]:
                G = parse_graph6(line)
                ref = nx.from_graph6_bytes(line.encode())
                assert G.n == ref.number_of_nodes()
                mine = oracles.to_networkx(G)
                assert {tuple(sorted(e)) for e in mine.edges} == {tuple(sorted(e)) for e in ref.edges}

    @given(small_graphs(max_n=9))
    @settings(max_examples=120)
    def test_roundtrip_vs_networkx(self, G):
        line = oracles.graph6_of(G)
        assert parse_graph6(line) == G


class TestHypergraphJson:
    def test_two_disjoint(self):
        H = parse_instance('{"n":4,"edges":[[0,1],[2,3]]}')
        assert H == Hypergraph(4, [(0, 1), (2, 3)])

    def test_containment_rejected(self):
        with pytest.raises(InputError):
            parse_instance('{"n":3,"edges":[[0,1],[0,1,2]]}')

    def test_triples(self):
        H = parse_instance('{"n":6,"edges":[[0,1,2],[3,4,5]]}')
        assert H == Hypergraph(6, [(0, 1, 2), (3, 4, 5)])

    def test_ideal_json(self):
        I = parse_instance('{"n":3,"gens":[[0,1]]}')
        assert isinstance(I, SquareFreeIdeal) and I.gens == (0b011,)
        J = parse_instance('{"n":2,"gens_exp":[[2,0]]}')
        assert isinstance(J, GeneralMonomialIdeal) and J.gens == ((2, 0),)
        with pytest.raises(InputError):
            parse_instance('{"n":2}')


class TestParseInstance:
    def test_graph6(self):
        assert parse_instance(" >>graph6<<A_ \n") == Graph(2, [(0, 1)])

    @pytest.mark.parametrize(
        "line",
        [
            '{"n":2',
            "[1, 2]",
            '{"n":"2","gens":[[0]]}',
            '{"edges":[[0,1]]}',
            '{"n":3,"edges":5}',
            '{"n":3,"edges":[[0,1.5]]}',
            '{"n":3,"gens":[["a"]]}',
            '{"n":2,"gens_exp":[[1, null]]}',
        ],
    )
    def test_bad_json(self, line):
        with pytest.raises(InputError):
            parse_instance(line)

    @pytest.mark.parametrize(
        "line",
        [
            '{"n":true,"edges":[[0]]}',
            '{"n":false,"gens":[]}',
            '{"n":3,"edges":[[0,true]]}',
            '{"n":3,"edges":[[0,1.0]]}',
            '{"n":3,"edges":[[0,"2"]]}',
            '{"n":3,"edges":[true]}',
            '{"n":3,"gens":[[false,1]]}',
            '{"n":2,"gens_exp":[[1.5,1]]}',
            '{"n":2,"gens_exp":[[1.0,1]]}',
            '{"n":2,"gens_exp":[["2",1]]}',
            '{"n":2,"gens_exp":[[true,0]]}',
        ],
    )
    def test_number_that_is_not_an_integer(self, line):
        # JSON true/false, 1.5 or "2" used to be read as 1, 1 or 2
        with pytest.raises(InputError):
            parse_instance(line)

    def test_vertex_set_refuses_non_integers(self):
        for bad in (True, 1.0, "1"):
            with pytest.raises(InputError, match="not an integer"):
                vertex_set([0, bad], 3)
        with pytest.raises(InputError, match="not an integer"):
            GeneralMonomialIdeal(2, [(1, 1.0)])


class TestLoaders:
    def test_mixed_lines(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text(
            "# comment\nA_\n\n>>graph6<<\n" '{"n":3,"edges":[[0,1,2]]}\n'
            '{"n":3,"gens":[[0,1]]}\n{"n":2,"gens_exp":[[2,0]]}\n'
        )
        corpus = load_corpus(path)
        assert len(corpus) == 4
        assert isinstance(corpus.items[0].obj, Graph)
        assert corpus.items[0].ident == f"{path}:2"
        assert corpus.items[1].obj == Hypergraph(3, [(0, 1, 2)])
        assert corpus.items[2].obj == SquareFreeIdeal(3, [(0, 1)])
        assert corpus.items[3].obj == GeneralMonomialIdeal(2, [(2, 0)])

    def test_missing_file(self):
        with pytest.raises(InputError):
            load_corpus("/nonexistent/corpus.g6")

    def test_bundled_counts(self):
        assert len(bundled_corpus("connected_le7")) == 996
        assert len(bundled_corpus("graphs_le7")) == 1252
        chordal = bundled_corpus("chordal_le9")
        assert len(chordal) == 17174
        by_n = {}
        for item in chordal:
            by_n[item.obj.n] = by_n.get(item.obj.n, 0) + 1
        assert by_n == {
            1: 1, 2: 2, 3: 4, 4: 10, 5: 27, 6: 94, 7: 393, 8: 2119, 9: 14524,
        }

    def test_bundled_unknown(self):
        with pytest.raises(InputError):
            bundled_corpus("nope")


class TestGenerators:
    def test_deterministic(self):
        a = [random_hypergraph(random.Random(5)) for _ in range(5)]
        b = [random_hypergraph(random.Random(5)) for _ in range(5)]
        assert a == b

    def test_disjoint_edges_cover(self):
        rng = random.Random(3)
        for _ in range(50):
            H = random_disjoint_edge_hypergraph(rng)
            assert H.covered() == (1 << H.n) - 1
            for i, a in enumerate(H.edges):
                for b in H.edges[:i]:
                    assert not a & b

    def test_uniform(self):
        rng = random.Random(4)
        for _ in range(30):
            H = random_uniform_hypergraph(rng, 3)
            assert H.uniform_size() == 3

    def test_squarefree_proper(self):
        rng = random.Random(6)
        for _ in range(50):
            I = random_squarefree_ideal(rng)
            assert not I.is_zero() and not I.is_unit()
            assert I.n <= 8 and len(I.gens) <= 6

    def test_general_proper(self):
        rng = random.Random(6)
        for _ in range(50):
            I = random_general_ideal(rng)
            assert not I.is_zero() and not I.is_unit()
            assert all(e <= 2 for g in I.gens for e in g)

    def test_vertex_range_below_edge_size_rejected(self):
        # n = 0 or 1 leaves no room for an edge of size 2; rejected before any draw
        rng = random.Random(0)
        with pytest.raises(InputError):
            random_hypergraph(rng, n_range=(0, 5))
        assert rng.random() == random.Random(0).random()
        with pytest.raises(InputError):
            random_hypergraph(random.Random(0), size_range=(0, 4))
