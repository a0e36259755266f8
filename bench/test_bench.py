"""Tests of the benchmark itself: every checker flags a planted wrong
value, the reference code agrees with tests/oracles.py, and each
workload runs end to end on a tiny input slice.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import random
import sys
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "tests"))

import oracles  # noqa: E402
from checks import (  # noqa: E402
    check_aim_profile,
    check_betti_table,
    check_campaign_report,
    check_induced_matching_number,
    check_lower_bounds,
    check_regularity,
)
from reference import closed_set_count, matching_profile, read_graph6  # noqa: E402

P4 = [0b0011, 0b0110, 0b1100]  # the path 0-1-2-3: nu 2, nu1 1, aim [1, 2]


def test_p4_reference():
    assert matching_profile(P4) == (2, 1, [1, 2])


def test_betti_table_with_negative_entry_is_flagged():
    # the large-prime fault: beta_{1,5} = 1 is right, the rest is not
    expected = {(0, 3): 1, (0, 4): 1, (1, 5): 1}
    planted = [[0, 3, 1], [0, 4, 1], [1, 5, 1], [2, 5, -1]]
    problems = check_betti_table(planted, expected)
    assert any("negative" in p for p in problems)
    assert check_betti_table([[0, 3, 1], [0, 4, 1], [1, 5, 1]], expected) == []


def test_betti_table_with_wrong_rank_is_flagged():
    assert check_betti_table([[0, 2, 2]], {(0, 2): 1})
    assert check_betti_table("RuntimeError: boom", {(0, 2): 1})


def test_regularity_one_too_high_is_flagged():
    nu, nu1, aim = matching_profile(P4)
    assert check_regularity(2, 1, nu, nu1, aim) == []
    assert check_regularity(4, 2, nu, nu1, aim) == []
    assert check_regularity(3, 1, nu, nu1, aim)
    assert check_regularity(5, 2, nu, nu1, aim)


def test_closed_forms_are_checked_apart_from_aim():
    # a wrong aim reference cannot hide a wrong reg at k = 1 or k = nu
    assert any("nu1" in p for p in check_regularity(3, 1, 2, 1, [2, 2]))
    assert any("2 nu" in p for p in check_regularity(3, 2, 2, 1, [1, 1]))


def test_aim_chain_that_skips_a_step_is_flagged():
    problems = check_aim_profile([1, 3, 3], 3, 1, [1, 3, 3])
    assert any("->" in p for p in problems)
    assert check_aim_profile([1, 2, 3], 3, 1, [1, 2, 3]) == []


def test_aim_profile_laws_are_flagged():
    assert check_aim_profile([2, 2], 2, 1, [2, 2])  # aim(H,1) != nu1
    assert check_aim_profile([1, 1], 2, 1, [1, 1])  # aim(H,2) < 2
    assert check_aim_profile([1], 2, 1, [1, 2])  # too short
    assert check_aim_profile([1, 2], 2, 1, [1, 1])  # reference differs


def test_lower_bound_and_nu1_checkers():
    assert check_lower_bounds([2, 4], 3, [1, 2], [2, 4]) == []
    assert check_lower_bounds([2, 3], 3, [1, 2], None)
    assert check_lower_bounds([2, 4], 3, [1, 2], [2, 5])
    assert check_induced_matching_number(2, 2) == []
    assert check_induced_matching_number(3, 2)


def _p4_report(reg_k2: int, drop: bool = False) -> list[dict]:
    records = [
        {"instance": "c:1", "k": 1, "ok": True, "reg": 2, "aim": 1},
        {"instance": "c:1", "k": 2, "ok": True, "reg": reg_k2, "aim": 2},
    ]
    if drop:
        records.pop()
    return records + [{"summary": "chordal-conjecture", "instances": 1, "checks": 2}]


def test_campaign_report_checker():
    expected = {"c:1": matching_profile(P4)}
    assert check_campaign_report(_p4_report(4), expected) == (set(), [])
    bad, problems = check_campaign_report(_p4_report(5), expected)
    assert bad == {("c:1", 2)} and problems
    bad, problems = check_campaign_report(_p4_report(4, drop=True), expected)
    assert bad == {("c:1", 2)} and problems


def _random_graph_edges(rng, n, m):
    pairs = list(combinations(range(n), 2))
    return [(1 << u) | (1 << v) for u, v in rng.sample(pairs, min(m, len(pairs)))]


def test_matching_profile_agrees_with_brute_force():
    rng = random.Random(7)
    triples = [(1 << a) | (1 << b) | (1 << c) for a, b, c in combinations(range(7), 3)]
    cases = [_random_graph_edges(rng, rng.randint(3, 7), rng.randint(2, 9)) for _ in range(40)]
    cases += [rng.sample(triples, rng.randint(1, 6)) for _ in range(40)]
    for edges in cases:
        nu, nu1, aim = matching_profile(edges)
        assert nu == oracles.brute_matching_number(edges)
        assert nu1 == oracles.brute_induced_matching_number(edges)
        assert aim == [oracles.brute_aim(edges, k) for k in range(1, nu + 1)]


def test_closed_set_count_matches_naive_unions():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 7)
        gens = list({rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 5))})
        unions = set()
        for r in range(1, len(gens) + 1):
            for combo in combinations(gens, r):
                mask = 0
                for g in combo:
                    mask |= g
                unions.add(mask)
        assert closed_set_count(n, gens) == len(unions)


def test_read_graph6_agrees_with_networkx():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 9)
        edges = _random_graph_edges(rng, n, rng.randint(0, 12)) if n > 1 else []
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(((e & -e).bit_length() - 1, e.bit_length() - 1) for e in edges)
        line = nx.to_graph6_bytes(g, header=False).decode().strip()
        assert read_graph6(line) == (n, sorted(edges, key=lambda e: (e.bit_length(), e)))


def test_missing_function_drops_its_layer_only(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    from sqfpow import Graph, admissible

    monkeypatch.setitem(tracing.LAYERS, "admissible", ("sqfpow.admissible", ("no_such_function",)))
    tracer = tracing.Tracer()
    undo, missing = tracing.install(tracer)
    try:
        assert admissible.aim_profile(Graph(4, P4)) == [1, 2]
    finally:
        tracing.uninstall(undo)
    metrics = tracing.layer_metrics(tracer.spans, missing)
    assert missing == {"admissible"}
    assert not any(name.startswith("admissible.") for name in metrics)
    assert metrics["hypergraphs.calls"] == 1  # matching_number inside aim_profile


def _tiny_run(workload, trace=0):
    import run

    return run.run_workload(workload, 1, 0.1, trace, scale="tiny")


@pytest.mark.parametrize("workload", ["chordal-sweep", "homology", "aim-scan"])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_on_a_tiny_slice(workload, trace):
    result = _tiny_run(workload, trace)
    assert result["correct"], result["problems"]
    assert result["attempted"] > 0
    if workload != "homology":
        assert result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == declared


def test_counts_are_per_pass(monkeypatch):
    import run

    once = _tiny_run("aim-scan")
    passes = run.worker_passes

    def twice(*args):
        plain, traced, peak = passes(*args)
        return plain * 2, traced * 2, peak

    monkeypatch.setattr(run, "worker_passes", twice)
    result = _tiny_run("aim-scan")
    assert (result["attempted"], result["failed"]) == (once["attempted"], once["failed"])


def test_missing_end_to_end_metric_fails_the_run(monkeypatch):
    import run

    measured = run.in_process_metrics

    def without_reg(*args):
        metrics = measured(*args)
        del metrics["reg_query_p50_s"]
        return metrics

    monkeypatch.setattr(run, "in_process_metrics", without_reg)
    result = _tiny_run("chordal-sweep")
    assert not result["correct"]
    assert any("reg_query_p50_s" in p for p in result["problems"])
