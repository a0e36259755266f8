import json
import random
import time

import pytest

from sqfpow import (
    CampaignFailure,
    Corpus,
    Graph,
    Hypergraph,
    InputError,
    bundled_corpus,
    matching_number,
    pair_corpus,
    run_campaign,
)
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
        pairs = list(zip(ideals[::2], ideals[1::2]))
        report = run_campaign("reg-lemmas", Corpus.from_objects(pairs, "ideals"))
        assert report.ok and report.n_pass == 4

    def test_restriction(self):
        rng = random.Random(2)
        corpus = Corpus.from_objects(
            [random_hypergraph(rng, n_range=(4, 6)) for _ in range(5)], "rand"
        )
        report = run_campaign("restriction", corpus, {"kmax": 2})
        assert report.ok

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

        monkeypatch.setitem(
            camp.CAMPAIGNS,
            "chordal-conjecture",
            (camp.CAMPAIGNS["chordal-conjecture"][0], camp.CAMPAIGNS["chordal-conjecture"][1]),
        )
        monkeypatch.setattr(camp, "reg_power_cached", broken)
        with pytest.raises(CampaignFailure) as info:
            run_campaign("chordal-conjecture", small_graph_corpus(4), {"kmax": 1})
        failure = info.value
        assert failure.record.witness is not None
        assert "betti_char2" in failure.record.witness
        assert "betti_char32003" in failure.record.witness

    def test_explore_collects(self, monkeypatch):
        import sqfpow.campaigns as camp

        monkeypatch.setattr(camp, "reg_power_cached", lambda *a, **kw: 99)
        report = run_campaign(
            "chordal-conjecture",
            small_graph_corpus(4),
            {"kmax": 1, "explore": True},
        )
        assert report.n_fail > 1

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
