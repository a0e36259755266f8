import json
import random
import time

import pytest

from sqfpow import (
    CampaignFailure,
    Corpus,
    GeneralMonomialIdeal,
    Graph,
    Hypergraph,
    InputError,
    SquareFreeIdeal,
    bundled_corpus,
    matching_number,
    pair_corpus,
    run_campaign,
)
from sqfpow.campaigns import CAMPAIGNS
from sqfpow.corpus import (
    random_disjoint_edge_hypergraph,
    random_general_ideal,
    random_hypergraph,
    random_squarefree_ideal,
)


def small_graph_corpus(nmax=6, limit=None):
    items = [it.obj for it in bundled_corpus("graphs_le7") if it.obj.n <= nmax]
    if limit:
        items = items[:limit]
    return Corpus.from_objects(items, "test")


class TestRunCampaign:
    def test_unknown_campaign(self):
        with pytest.raises(InputError):
            run_campaign("nope", Corpus())

    def test_chordal_conjecture_small(self):
        report = run_campaign(
            "chordal-conjecture", small_graph_corpus(5), {"kmax": 2}
        )
        assert report.ok and report.n_pass > 20
        assert any(s.reason == "not-chordal" for s in report.skips)

    def test_block_theorem_small(self):
        report = run_campaign("block-theorem", small_graph_corpus(5))
        assert report.ok
        assert any(s.reason == "not-block-graph" for s in report.skips)

    def test_connected_filter(self):
        report = run_campaign(
            "block-theorem", small_graph_corpus(4), {"connected": True}
        )
        assert report.ok
        assert any(s.reason == "not-connected" for s in report.skips)

    def test_cm2_small(self):
        report = run_campaign("cm-chordal-2", small_graph_corpus(6))
        assert report.ok and report.n_pass > 5
        reasons = {s.reason for s in report.skips}
        assert "not-cm-chordal" in reasons and "nu<2" in reasons

    def test_lower_bound_random(self):
        rng = random.Random(0)
        corpus = Corpus.from_objects(
            [random_hypergraph(rng, n_range=(4, 7)) for _ in range(15)], "rand"
        )
        report = run_campaign("lower-bound", corpus)
        assert report.ok and report.n_pass >= 15

    def test_ci_formula(self):
        rng = random.Random(0)
        corpus = Corpus.from_objects(
            [random_disjoint_edge_hypergraph(rng) for _ in range(10)]
            + [Hypergraph(3, [(0, 1)])],  # isolated vertex: formula counts covered vertices
            "rand",
        )
        report = run_campaign("ci-formula", corpus)
        assert report.ok
        assert report.n_pass == sum(isinstance(r.k, int) for r in report.records)

    def test_ci_skips_overlapping(self):
        corpus = Corpus.from_objects([Graph(3, [(0, 1), (1, 2)])], "x")
        report = run_campaign("ci-formula", corpus)
        assert [s.reason for s in report.skips] == ["not-disjoint-edges"]

    def test_splitting_pairs(self):
        base = Corpus.from_objects(
            [Graph(2, [(0, 1)]), Graph(4, [(0, 1), (2, 3)]), Graph(3, [(0, 1), (1, 2)])],
            "g",
        )
        report = run_campaign("splitting", pair_corpus(base))
        assert report.ok and report.n_pass >= 4

    def test_colon_weakly_chordal(self):
        report = run_campaign("colon-weakly-chordal", small_graph_corpus(5))
        assert report.ok

    def test_nu1_lemmas(self):
        report = run_campaign("nu1-lemmas", small_graph_corpus(6))
        assert report.ok and report.n_pass > 3
        assert any(s.reason == "partition-has-singleton" for s in report.skips)

    def test_aim_deletion(self):
        report = run_campaign("aim-deletion", small_graph_corpus(6, limit=120))
        assert report.ok

    def test_reg_lemmas(self):
        rng = random.Random(1)
        ideals = [random_squarefree_ideal(rng, n_range=(2, 5), max_gens=3) for _ in range(8)]
        report = run_campaign("reg-lemmas", Corpus.from_objects(ideals, "ideals"))
        assert report.ok and report.n_pass == 8

    def test_restriction(self):
        rng = random.Random(2)
        corpus = Corpus.from_objects(
            [random_hypergraph(rng, n_range=(4, 6)) for _ in range(5)], "rand"
        )
        report = run_campaign("restriction", corpus, {"kmax": 2})
        assert report.ok

    def test_restriction_samples_subsets_above_seven_vertices(self):
        # n > 7 draws 64 subsets, from the seed mixed with the instance name,
        # in place of all 2^n
        H = Hypergraph(8, [(0, 1, 2), (2, 3), (3, 4, 5), (5, 6), (6, 7), (0, 7)])
        corpus = Corpus.from_objects([H], "n8")
        checks = {}
        for seed in (0, 1):
            first, again = (run_campaign("restriction", corpus, {"seed": seed}) for _ in range(2))
            assert first.ok and again.ok
            assert first.jsonl_lines() == again.jsonl_lines()
            checks[seed] = first.records[-1].data["checks"]
        assert checks == {0: 174, 1: 165}

    def test_polarization(self):
        rng = random.Random(3)
        corpus = Corpus.from_objects(
            [random_general_ideal(rng) for _ in range(15)], "rand"
        )
        report = run_campaign("polarization", corpus)
        assert report.ok

    def test_limit_param(self):
        report = run_campaign(
            "chordal-conjecture", small_graph_corpus(5), {"limit": 3, "kmax": 1}
        )
        assert len({r.instance for r in report.records}) == 3


_C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
_P7 = Graph(7, [(i, i + 1) for i in range(6)])
_I = SquareFreeIdeal(3, [0b011])
MIXED = [
    Graph(4, [(0, 1), (2, 3)]),  # disconnected
    Graph(7, []),  # edgeless, over nmax 5
    _C4,
    _P7,
    Hypergraph(4, [(0, 1, 2), (2, 3)]),  # overlapping edges
    Hypergraph(5, [(0, 1, 2), (3, 4)]),  # disjoint edges
    SquareFreeIdeal(3, []),  # zero
    SquareFreeIdeal(3, [0]),  # unit
    (_I, SquareFreeIdeal(2, [0b11])),
    GeneralMonomialIdeal(2, [(2, 1)]),
    GeneralMonomialIdeal(2, []),  # zero
    (_I,),
    (_C4, _C4, _C4),
    None,
    (Graph(2, [(0, 1)]), _C4),
    (Graph(7, []), _C4),  # splitting: no-edges comes before over-nmax
    (_C4, _P7),
]
SKIP_CTXS = ({}, {"nmax": 5}, {"connected": True})


def _rows(*heads, rest=None):
    """One reason list per ctx in SKIP_CTXS; "." is no skip, rest pads each head."""
    out = []
    for head in heads:
        row = [None if t == "." else t for t in head.split()]
        out.append(row + [rest] * (len(MIXED) - len(row)))
    return out


_CHORDAL = _rows(
    ". no-edges not-chordal .",
    ". over-nmax not-chordal over-nmax",
    "not-connected not-connected not-chordal .",
    rest="not-a-graph",
)
_HYPER = _rows(
    ". no-edges . . . .",
    ". over-nmax . over-nmax . .",
    ". no-edges . . . .",
    rest="not-a-hypergraph",
)
_IDEAL = " ".join(
    ["not-a-squarefree-ideal"] * 6 + ["zero-or-unit"] * 2 + ["not-a-squarefree-ideal"] * 9
)
_GENERAL = " ".join(
    ["not-a-monomial-ideal"] * 9 + [".", "zero-or-unit"] + ["not-a-monomial-ideal"] * 6
)
_PAIR = " ".join(["not-a-pair"] * 8 + ["not-a-hypergraph"] + ["not-a-pair"] * 5 + [".", "no-edges"])
SKIP_REASONS = {
    "chordal-conjecture": _CHORDAL,
    "colon-weakly-chordal": _CHORDAL,
    "block-theorem": _rows(
        ". no-edges not-block-graph .",
        ". over-nmax not-block-graph over-nmax",
        "not-connected not-connected not-block-graph .",
        rest="not-a-graph",
    ),
    "cm-chordal-2": _rows(
        ". nu<2 not-cm-chordal not-cm-chordal",
        ". over-nmax not-cm-chordal over-nmax",
        "not-connected not-connected not-cm-chordal not-cm-chordal",
        rest="not-a-graph",
    ),
    "nu1-lemmas": _rows(
        ". partition-has-singleton not-cm-chordal not-cm-chordal",
        ". over-nmax not-cm-chordal over-nmax",
        "not-connected not-connected not-cm-chordal not-cm-chordal",
        rest="not-a-graph",
    ),
    "aim-deletion": _rows(
        ". . . .",
        ". over-nmax . over-nmax",
        "not-connected not-connected . .",
        rest="not-a-graph",
    ),
    "lower-bound": _HYPER,
    "restriction": _HYPER,
    "ci-formula": _rows(
        ". no-edges not-disjoint-edges not-disjoint-edges not-disjoint-edges .",
        ". over-nmax not-disjoint-edges over-nmax not-disjoint-edges .",
        ". no-edges not-disjoint-edges not-disjoint-edges not-disjoint-edges .",
        rest="not-a-hypergraph",
    ),
    "splitting": _rows(_PAIR + " .", _PAIR + " over-nmax", _PAIR + " ."),
    "reg-lemmas": _rows(_IDEAL, _IDEAL, _IDEAL),
    "polarization": _rows(_GENERAL, _GENERAL, _GENERAL),
}


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_skip_reasons_pinned(name):
    """Every campaign's first failing gate, in order, on a mixed object list."""
    prepare, _ = CAMPAIGNS[name]
    for ctx, expected in zip(SKIP_CTXS, SKIP_REASONS[name]):
        assert [prepare(obj, ctx) for obj in MIXED] == expected, ctx


class TestDeterminismAndParallel:
    def test_deterministic_reports(self):
        a = run_campaign("chordal-conjecture", small_graph_corpus(5), {"seed": 9})
        b = run_campaign("chordal-conjecture", small_graph_corpus(5), {"seed": 9})
        assert a.jsonl_lines() == b.jsonl_lines()

    def test_jobs_match_sequential(self):
        seq = run_campaign("block-theorem", small_graph_corpus(6), {"jobs": 1})
        par = run_campaign("block-theorem", small_graph_corpus(6), {"jobs": 2})
        assert seq.jsonl_lines()[:-1] == par.jsonl_lines()[:-1]
        seq_summary, par_summary = seq.summary_dict(), par.summary_dict()
        assert seq_summary.pop("params")["jobs"] == 1
        assert par_summary.pop("params")["jobs"] == 2
        assert seq_summary == par_summary


class TestFailurePolicy:
    def test_abort_with_witness(self, monkeypatch):
        import sqfpow.campaigns as camp

        def broken(G, k, char, *a, **kw):
            return 99

        monkeypatch.setattr(camp, "reg_power_cached", broken)
        with pytest.raises(CampaignFailure) as info:
            run_campaign("chordal-conjecture", small_graph_corpus(4), {"kmax": 1})
        failure = info.value
        assert failure.record.witness is not None
        assert "betti_char2" in failure.record.witness
        assert "betti_char32003" in failure.record.witness

    @pytest.mark.parametrize(
        "n, edges, victim, rule, where, k",
        [
            (5, [(0, 1), (1, 2), (2, 3), (3, 4)], [1], "pendant-deletion", {"deleted": [1]}, 2),
            (
                6,
                [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)],
                [0, 1],
                "free-pair-deletion",
                {"deleted": [0, 1]},
                2,
            ),
            (
                6,
                [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5)],
                [0, 1, 2, 3],
                "block-deletion",
                {"deleted": [0, 1, 2, 3]},
                1,
            ),
            (
                6,
                [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5)],
                [0, 1, 4, 5],
                "closed-neighborhood-deletion",
                {"x": 0, "y": 5},
                1,
            ),
        ],
    )
    def test_aim_deletion_planted_failure(self, monkeypatch, n, edges, victim, rule, where, k):
        import sqfpow.campaigns as camp

        G = Graph(n, edges)
        planted = G.remove_vertices(sum(1 << v for v in victim))
        real = camp.aim_profile
        monkeypatch.setattr(
            camp, "aim_profile", lambda H: [9] * len(real(H)) if H == planted else real(H)
        )
        with pytest.raises(CampaignFailure) as info:
            run_campaign("aim-deletion", Corpus.from_objects([G], "planted"))
        detail = {**where, "k": k, "aim_H": 9, "aim_G": 2}
        assert info.value.record.to_json_dict() == {
            "instance": "planted:0",
            "k": None,
            "ok": False,
            "characteristic": 2,
            "rule": rule,
            **detail,
            "witness": {"edges": [list(e) for e in edges], **detail},
        }

    def test_explore_collects(self, monkeypatch):
        import sqfpow.campaigns as camp

        monkeypatch.setattr(camp, "reg_power_cached", lambda *a, **kw: 99)
        report = run_campaign(
            "chordal-conjecture",
            small_graph_corpus(4),
            {"kmax": 1, "explore": True},
        )
        assert report.n_fail > 1

    def test_lower_bound_witness_is_first_maximizer(self, monkeypatch):
        import oracles
        import sqfpow.campaigns as camp
        from sqfpow import is_generalized_k_admissible

        rng = random.Random(6)  # 12 checks, 10 with tied maximizers
        hs = [random_hypergraph(rng, (5, 7), (1, 4), max_edges=7) for _ in range(4)]
        hs += [random_hypergraph(rng, (6, 7), (3, 3), max_edges=6) for _ in range(3)]
        monkeypatch.setattr(camp, "reg_power_cached", lambda *a, **kw: 0)
        report = run_campaign("lower-bound", Corpus.from_objects(hs, "h"), {"explore": True})
        assert report.n_fail == len(report.records) == sum(map(matching_number, hs))
        for record in report.records:
            H, k = hs[int(record.instance.split(":")[1])], record.k
            sets = oracles.masks_to_sets(H.edges)
            admissible = [
                m
                for m in sorted(oracles.brute_matchings(H.edges))
                if oracles.brute_is_generalized_admissible(H.edges, m, k)
            ]
            # max keeps the first of equal values, in lexicographic order
            first = max(admissible, key=lambda m: len(set().union(*(sets[i] for i in m))) - len(m))
            dump = record.witness["admissible_witness"]
            assert dump == is_generalized_k_admissible(H, first, k).to_json_dict(H)
            assert sum(len(e) - 1 for e in dump["edges"]) == record.data["L"]

    def test_parallel_abort_is_early(self, monkeypatch):
        import sqfpow.campaigns as camp

        def slow_and_wrong(*args):
            time.sleep(0.01)
            return 99

        corpus = small_graph_corpus(6)
        prepare, _ = camp.CAMPAIGNS["chordal-conjecture"]
        queries = sum(matching_number(it.obj) for it in corpus if prepare(it.obj, {}) is None)
        full_pass = queries * 0.01 / 2  # the sleeps alone, shared by two workers
        monkeypatch.setattr(camp, "reg_power_cached", slow_and_wrong)
        begin = time.perf_counter()
        with pytest.raises(CampaignFailure):
            run_campaign("chordal-conjecture", corpus, {"jobs": 2})
        assert time.perf_counter() - begin < full_pass / 3


class TestReportFormats:
    def test_jsonl_and_csv(self, tmp_path):
        report = run_campaign("block-theorem", small_graph_corpus(4))
        out = tmp_path / "r.jsonl"
        report.write_jsonl(out)
        lines = out.read_text().splitlines()
        summary = json.loads(lines[-1])
        assert summary["summary"] == "block-theorem"
        assert summary["fail"] == 0
        assert summary["pass"] == report.n_pass
        for line in lines[:-1]:
            json.loads(line)
        csv_path = tmp_path / "r.csv"
        report.write_csv(csv_path)
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("instance,k,ok")
