import json

from sqfpow.cli import main


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

    def test_general_ideal(self, capsys, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text('{"n":1,"gens_exp":[[2]]}')
        code, out, _ = run(capsys, "reg", str(path))
        assert code == 0 and out.strip() == "2"

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

    def test_betti_csv(self, capsys):
        code, out, _ = run(capsys, "betti", "A_")
        assert code == 0
        assert out.splitlines() == ["i,j,beta", "0,2,1"]

    def test_betti_char(self, capsys):
        code, out, _ = run(capsys, "betti", "Bw", "--char", "32003")
        assert code == 0 and "0,2,3" in out


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

    def test_unknown_campaign_exit2(self, capsys, tmp_path):
        corpus = tmp_path / "c.g6"
        corpus.write_text("A_\n")
        code, _, err = run(capsys, "campaign", "nope", "--corpus", str(corpus))
        assert code == 2

    def test_missing_corpus_exit2(self, capsys):
        code, _, err = run(capsys, "campaign", "chordal-conjecture")
        assert code == 2

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
