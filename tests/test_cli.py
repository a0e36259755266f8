import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sqfpow
from sqfpow.campaigns import CAMPAIGNS
from sqfpow.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestReg:
    def test_graph6_literal(self, capsys):
        code, out, _ = run(capsys, "reg", "A_")
        assert code == 0 and out.strip() == "2"

    def test_power(self, capsys):
        # P4 as graph6; reg I(P4)^[2] = 4
        code, out, _ = run(capsys, "reg", "Ch", "--k", "2")
        assert code == 0 and out.strip() == "4"

    def test_ideal_json_file(self, capsys, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text('{"n":4,"gens":[[0,1],[2,3]]}')
        code, out, _ = run(capsys, "reg", str(path))
        assert code == 0 and out.strip() == "3"

    def test_file_comments_skipped(self, capsys, tmp_path):
        path = tmp_path / "corpus.g6"
        path.write_text("# leading comment\n\nA_\n")
        code, out, _ = run(capsys, "reg", str(path))
        assert code == 0 and out.strip() == "2"

    def test_file_read_by_corpus_line_rule(self, capsys, tmp_path):
        # a bare graph6 header and an indented comment are skipped, as --corpus does
        for name, text in (("header.g6", ">>graph6<<\nA_\n"), ("note.g6", "  # note\nA_\n")):
            path = tmp_path / name
            path.write_text(text)
            code, out, _ = run(capsys, "reg", str(path))
            assert code == 0 and out.strip() == "2"

    def test_general_ideal(self, capsys, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text('{"n":1,"gens_exp":[[2]]}')
        code, out, _ = run(capsys, "reg", str(path))
        assert code == 0 and out.strip() == "2"

    def test_general_ideal_k_nonpositive_is_unit(self, capsys):
        # I^[k] = R for k <= 0, also for exponent-vector input
        ideal = '{"n":2,"gens_exp":[[2,0],[0,1]]}'
        for k in ("0", "-1"):
            code, out, _ = run(capsys, "reg", ideal, "--k", k)
            assert code == 0 and out.strip() == "0"
            code, out, _ = run(capsys, "gens", ideal, "--k", k)
            assert code == 0 and json.loads(out) == {"n": 2, "gens": [[]]}

    def test_general_ideal_zero_or_unit_power_keeps_universe(self, capsys):
        # a zero or unit power keeps n, as the square-free input does
        cases = [
            ('{"n":2,"gens_exp":[[0,0]]}', "2", {"n": 2, "gens": []}),
            ('{"n":2,"gens_exp":[[0,0]]}', "1", {"n": 2, "gens": [[]]}),
            ('{"n":3,"gens_exp":[[2,0,0]]}', "2", {"n": 3, "gens": []}),
        ]
        for ideal, k, expected in cases:
            code, out, _ = run(capsys, "gens", ideal, "--k", k)
            assert code == 0 and json.loads(out) == expected

    def test_hypergraph_json(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        path.write_text('{"n":6,"edges":[[0,1,2],[3,4,5]]}')
        code, out, _ = run(capsys, "reg", str(path), "--k", "2")
        assert code == 0 and out.strip() == "6"

    def test_bad_input_exit2(self, capsys):
        code, _, err = run(capsys, "reg", "A\x01")
        assert code == 2 and "input error" in err


    def test_characteristic_from_2_64_exit2(self, capsys):
        # 2^64 + 13 is prime, but primality is only certified below 2^64
        code, _, err = run(capsys, "reg", "A_", "--char", "18446744073709551629")
        assert code == 2 and "2^64" in err

    def test_unreadable_file_exit2(self, capsys, tmp_path):
        # a directory, and a file that is not UTF-8
        path = tmp_path / "latin1.g6"
        path.write_bytes(b"\xe9\n")
        for arg in (str(tmp_path), str(path)):
            code, out, err = run(capsys, "reg", arg)
            assert code == 2 and "input error" in err and out == ""

    def test_literal_longer_than_a_file_name(self, capsys):
        edges = [[2 * i, 2 * i + 1] for i in range(32)]
        literal = json.dumps({"n": 64, "edges": edges})
        assert len(literal) > 255
        code, out, _ = run(capsys, "gens", literal, "--k", "1")
        assert code == 0 and json.loads(out) == {"n": 64, "gens": edges}

class TestAimGensBetti:
    def test_aim(self, capsys):
        code, out, _ = run(capsys, "aim", "Ch", "--k", "2")
        assert code == 0 and out.strip() == "2"

    def test_aim_star(self, capsys):
        code, out, _ = run(capsys, "aim", "Bw", "--k", "1", "--star")
        assert code == 0 and out.strip() == "1"

    def test_gens(self, capsys):
        code, out, _ = run(capsys, "gens", "Ch", "--k", "2")
        assert code == 0
        assert json.loads(out) == {"n": 4, "gens": [[0, 1, 2, 3]]}

    @pytest.mark.parametrize(
        "literal",
        ['{"n": 2, "gens_exp": [[1.5, 1]]}', '{"n": true, "edges": [[0]]}', '{"n": 3, "edges": [[0, true]]}'],
    )
    def test_number_that_is_not_an_integer_exit2(self, capsys, literal):
        for argv in (("gens", literal, "--k", "1"), ("classify", literal)):
            code, out, err = run(capsys, *argv)
            assert code == 2 and "input error" in err and out == ""

    def test_number_is_not_a_vertex_list_exit2(self, capsys, tmp_path):
        # a JSON number used to be read as a vertex mask: [5] as the edge [0, 2]
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"n": 3, "edges": [[0, 1]]}\n{"n": 3, "edges": [5]}\n')
        for argv in (
            ("gens", '{"n": 3, "edges": [5]}', "--k", "1"),
            ("gens", '{"n": 3, "gens": [8]}', "--k", "1"),
            ("reg", '{"n": 3, "gens": [5]}'),
            ("campaign", "lower-bound", "--corpus", str(corpus)),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and "must be an array" in err and out == "", argv

    def test_betti_csv(self, capsys):
        code, out, _ = run(capsys, "betti", "A_")
        assert code == 0
        assert out.splitlines() == ["i,j,beta", "0,2,1"]

    def test_betti_char(self, capsys):
        code, out, _ = run(capsys, "betti", "Bw", "--char", "32003")
        assert code == 0 and "0,2,3" in out

    def test_betti_large_prime(self, capsys):
        # 4294967291 = 2^32 - 5: products of residues pass 2^63, so the rank
        # arithmetic must not be fixed-width
        code, out, _ = run(
            capsys, "betti", '{"n": 5, "gens": [[1, 3, 4], [0, 2, 3, 4]]}', "--char", "4294967291"
        )
        assert code == 0
        assert out.splitlines() == ["i,j,beta", "0,3,1", "0,4,1", "1,5,1"]


class TestBudgetBeforeBuild:
    K30 = json.dumps({"n": 30, "edges": [[i, j] for i in range(30) for j in range(i + 1, 30)]})

    def test_power_past_budget_refused_unbuilt(self):
        # I(K30)^[7] has C(30, 14) generators; it is refused before it is
        # built, in a child capped at 1 GiB
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from sqfpow.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        for cmd in ("reg", "betti"):
            result = subprocess.run(
                [sys.executable, "-c", child, cmd, self.K30, "--k", "7"],
                env=dict(os.environ, PYTHONPATH=str(SRC)),
                capture_output=True,
                text=True,
                timeout=10,
            )
            assert result.returncode == 3 and "budget" in result.stderr, (cmd, result.stderr)
            assert result.stdout == ""

    def test_reg_answers_zero_outside_1_to_nu(self, capsys):
        # R for k <= 0 and 0 for k > nu = 15 need no homology; betti refuses every k
        for k, expected in (("0", 0), ("16", 0), ("15", 3)):
            code, out, err = run(capsys, "reg", self.K30, "--k", k)
            assert code == expected and out.strip() == ("0" if code == 0 else "")
        for k in ("0", "16"):
            code, out, err = run(capsys, "betti", self.K30, "--k", k)
            assert code == 3 and "budget" in err and out == ""

    def test_edge_ideal_past_budget(self, capsys):
        zero, unit = '{"n": 22, "gens": []}', '{"n": 22, "gens": [[]]}'
        for ideal, k, expected in ((zero, "1", 0), (unit, "1", 0), ('{"n": 22, "gens": [[0, 1]]}', "1", 3)):
            code, _, _ = run(capsys, "reg", ideal, "--k", k)
            assert code == expected


class TestClassify:
    def test_block_graph_report(self, capsys):
        code, out, _ = run(capsys, "classify", "Bw")
        assert code == 0
        info = json.loads(out)
        assert info["chordal"] and info["block_graph"] and info["cm_chordal"]
        assert info["blocks"][0]["special_type"] == "II"  # d = 3, no attachments

    def test_budget_exit3(self, capsys):
        import networkx as nx

        line = nx.to_graph6_bytes(nx.path_graph(17), header=False).decode().strip()
        code, _, err = run(capsys, "classify", line)
        assert code == 3 and "budget" in err


class TestCampaignCommand:
    def test_small_sweep(self, capsys, tmp_path):
        corpus = tmp_path / "c.g6"
        corpus.write_text("A_\nBw\nCh\n")
        out_path = tmp_path / "report.jsonl"
        code, out, _ = run(
            capsys,
            "campaign",
            "chordal-conjecture",
            "--corpus",
            str(corpus),
            "--out",
            str(out_path),
            "--csv",
            str(tmp_path / "report.csv"),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["fail"] == 0 and summary["pass"] >= 4
        assert out_path.exists()
        assert (tmp_path / "report.csv").exists()

    def test_cm_chordal_2_honours_kmax(self, capsys, tmp_path):
        # the campaign checks k = 2 only: --kmax 1 leaves it no checks
        counts = {}
        for kmax in (None, 1, 2):
            out_path = tmp_path / f"report-{kmax}.jsonl"
            cap = [] if kmax is None else ["--kmax", str(kmax)]
            code, out, _ = run(
                capsys, "campaign", "cm-chordal-2", "--bundled", "connected_le7",
                "--nmax", "5", "--out", str(out_path), *cap,
            )
            assert code == 0
            records = [json.loads(line) for line in out_path.read_text().splitlines()]
            assert {r["k"] for r in records if "k" in r} <= {2}
            counts[kmax] = json.loads(out)["checks"]
        assert counts[None] == counts[2] > 0 and counts[1] == 0

    def test_ideal_campaigns_from_jsonl(self, capsys, tmp_path):
        corpus = tmp_path / "ideals.jsonl"
        corpus.write_text(
            '{"n":4,"gens":[[0,1],[2,3]]}\n{"n":5,"gens":[[0,1,2],[2,3],[3,4]]}\n'
            '{"n":3,"gens_exp":[[2,1,0],[0,1,2]]}\n{"n":2,"gens_exp":[[1,2],[2,1]]}\n'
        )
        for name in ("reg-lemmas", "polarization"):
            code, out, _ = run(capsys, "campaign", name, "--corpus", str(corpus))
            summary = json.loads(out)
            assert code == 0 and summary["checks"] > 0 and summary["fail"] == 0
            assert summary["skipped"] == 2

    def test_unknown_campaign_exit2(self, capsys, tmp_path):
        corpus = tmp_path / "c.g6"
        corpus.write_text("A_\n")
        code, _, err = run(capsys, "campaign", "nope", "--corpus", str(corpus))
        assert code == 2

    def test_missing_corpus_exit2(self, capsys):
        code, _, err = run(capsys, "campaign", "chordal-conjecture")
        assert code == 2

    def test_corpus_not_utf8_exit2(self, capsys, tmp_path):
        corpus = tmp_path / "c.g6"
        corpus.write_bytes(b"A_\n\xff\n")
        code, out, err = run(capsys, "campaign", "chordal-conjecture", "--corpus", str(corpus))
        assert code == 2 and "input error" in err and out == ""

    def test_out_path_not_writable_exit2(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "campaign",
            "ci-formula",
            "--bundled",
            "graphs_le7",
            "--nmax",
            "3",
            "--out",
            str(tmp_path),
        )
        assert code == 2 and "input error" in err and out == ""

    def test_splitting_runs_on_pairs(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "campaign",
            "splitting",
            "--bundled",
            "graphs_le7",
            "--nmax",
            "3",
            "--out",
            str(tmp_path / "report.jsonl"),
        )
        summary = json.loads(out)
        assert code == 0 and summary["checks"] == 16 and summary["skipped"] == 0

    def test_bundled(self, capsys):
        code, out, _ = run(
            capsys,
            "campaign",
            "block-theorem",
            "--bundled",
            "connected_le7",
            "--nmax",
            "4",
            "--limit",
            "10",
        )
        assert code == 0

    def test_kmax_below_one_exit2(self, capsys):
        code, out, err = run(
            capsys, "campaign", "chordal-conjecture", "--bundled", "connected_le7", "--kmax", "0"
        )
        assert code == 2 and "kmax" in err and out == ""

    @pytest.mark.parametrize("flag, value", [("--limit", "0"), ("--limit", "-1"), ("--jobs", "-2")])
    def test_limit_or_jobs_below_one_exit2(self, capsys, tmp_path, flag, value):
        out_path = tmp_path / "report.jsonl"
        code, out, err = run(
            capsys, "campaign", "chordal-conjecture", "--bundled", "connected_le7",
            flag, value, "--out", str(out_path),
        )
        assert code == 2 and flag[2:] in err and out == "" and not out_path.exists()

    def test_csv_without_out(self, capsys, tmp_path):
        csv_path = tmp_path / "r.csv"
        code, out, _ = run(
            capsys, "campaign", "chordal-conjecture", "--bundled", "connected_le7",
            "--nmax", "4", "--csv", str(csv_path),
        )
        assert code == 0
        rows = csv_path.read_text().splitlines()
        assert rows[0].startswith("instance,k,ok") and len(rows) == 1 + json.loads(out)["checks"]

    def test_bad_characteristic_exit2(self, capsys):
        # aim-deletion computes no regularity, so only the up-front check sees it
        code, out, err = run(
            capsys,
            "campaign",
            "aim-deletion",
            "--bundled",
            "connected_le7",
            "--nmax",
            "4",
            "--char",
            "4",
        )
        assert code == 2 and "not prime" in err and out == ""

    def test_reports_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            code, _, _ = run(
                capsys, "campaign", "block-theorem", "--bundled", "connected_le7", "--out", str(path)
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_failure_exit1(self, capsys, tmp_path, monkeypatch):
        import sqfpow.campaigns as camp

        monkeypatch.setattr(camp, "reg_power_cached", lambda *a, **kw: 99)
        corpus = tmp_path / "c.g6"
        corpus.write_text("A_\n")
        out_path = tmp_path / "report.jsonl"
        code, _, err = run(
            capsys,
            "campaign",
            "chordal-conjecture",
            "--corpus",
            str(corpus),
            "--out",
            str(out_path),
        )
        assert code == 1
        assert "failed" in err
        assert out_path.exists()

    def test_failure_writes_csv(self, capsys, tmp_path, monkeypatch):
        import sqfpow.campaigns as camp

        monkeypatch.setattr(camp, "reg_power_cached", lambda *a, **kw: 99)
        corpus = tmp_path / "c.g6"
        corpus.write_text("A_\nBw\n")
        csv_path = tmp_path / "r.csv"
        code, _, _ = run(
            capsys, "campaign", "chordal-conjecture", "--corpus", str(corpus), "--csv", str(csv_path)
        )
        assert code == 1
        rows = csv_path.read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith(f"{corpus}:1,1,0,")

    def test_failure_record_written_once(self, capsys, tmp_path, monkeypatch):
        import sqfpow.campaigns as camp

        monkeypatch.setattr(camp, "reg_power_cached", lambda *a, **kw: 99)
        corpus = tmp_path / "c.g6"
        corpus.write_text("A_\nBw\n")
        out_path = tmp_path / "report.jsonl"
        code, _, _ = run(
            capsys, "campaign", "chordal-conjecture", "--corpus", str(corpus), "--out", str(out_path)
        )
        assert code == 1
        lines = [json.loads(line) for line in out_path.read_text().splitlines()]
        records = [line for line in lines if "summary" not in line]
        assert len(records) == 1 and records[0]["ok"] is False
        assert lines[-1]["checks"] == 1 and lines[-1]["fail"] == 1


class TestImport:
    def test_no_numpy(self):
        code = "import sqfpow, sqfpow.cli, sys; assert 'numpy' not in sys.modules"
        result = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True
        )
        assert result.returncode == 0, result.stderr.decode()


# Every public name of the package, so that adding or removing one is a
# deliberate edit here.  Submodules are left out: which of them are bound as
# attributes depends on what was imported first.
PUBLIC_NAMES = {
    "AdmissibleWitness", "BettiTable", "BlockDecomposition", "BudgetError",
    "CampaignFailure", "CampaignReport", "Corpus", "GeneralMonomialIdeal", "Graph",
    "Hypergraph", "InputError", "SquareFreeIdeal", "aim", "aim_profile", "aim_star",
    "betti_splitting_check", "betti_table", "block_decomposition", "bundled_corpus",
    "cm_clique_partition", "colon_graph", "disjoint_union", "edge_ideal",
    "enumerate_matchings", "forcing_components", "free_vertices",
    "induced_matching_number", "induced_sub", "is_block_graph", "is_chordal",
    "is_generalized_k_admissible", "is_rigid_part", "is_weakly_chordal", "load_corpus",
    "lower_bound", "matching_number", "matching_power_general", "maximal_cliques",
    "pair_corpus", "parse_graph6", "parse_instance", "polarize", "regularity",
    "run_campaign", "splitting_for_disjoint_union", "sqfree_power", "vertex_set",
    "vertices_of",
}


class TestPublicSurface:
    def test_public_names_pinned(self):
        names = {
            n for n, v in vars(sqfpow).items()
            if not n.startswith("_") and not isinstance(v, types.ModuleType)
        }
        assert names == PUBLIC_NAMES

    def test_readme_campaign_names(self):
        readme = (ROOT / "README.md").read_text()
        listed = re.search(r"Campaign names:(.*?)\.\s", readme, re.S).group(1)
        assert sorted(re.findall(r"`([^`]+)`", listed)) == sorted(CAMPAIGNS)

    def test_readme_campaign_usage_flags(self):
        readme = (ROOT / "README.md").read_text()
        usage = re.search(r"^sqfpow campaign .*?(?=^```)", readme, re.S | re.M).group(0)
        subparsers = next(a for a in build_parser()._actions if a.dest == "command")
        options = set(subparsers.choices["campaign"]._option_string_actions) - {"-h", "--help"}
        assert set(re.findall(r"--[a-z][a-z-]*", usage)) == options
