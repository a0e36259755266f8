"""Runs one pass over a workload's operations in this process and writes
their outputs and timings as JSON; run.py starts it and checks what it
wrote.

    python3 bench/inputs.py --workload homology --seed 1 > inputs.json
    python3 bench/worker.py --workload homology --inputs inputs.json --trace 0 --out pass.json
    python3 bench/worker.py --workload homology --inputs inputs.json --setup-only

Each pass gets a fresh process, so nothing the package caches carries
over from one pass to the next.  With --trace 1 spans are recorded
around sqfpow's public functions and the per-layer metrics written too.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import sqfpow.cli  # noqa: E402  (the import is part of the set-up being timed)
from sqfpow import admissible, betti, campaigns, corpus, hypergraphs, ideals  # noqa: E402


def _regularity_query(H, k: int, char: int) -> int:
    return betti.regularity(ideals.sqfree_power(H, k), char)


def _betti_rows(I, char: int) -> list[list[int]]:
    table = betti.betti_table(I, char)
    return [[i, j, b] for (i, j), b in sorted(table.entries.items())]


def _lower_bounds(H) -> list[int]:
    nu = hypergraphs.matching_number(H)
    return [admissible.lower_bound(H, k) for k in range(1, nu + 1)]


def campaign_argv(data: dict, report: Path) -> list[str]:
    """The CLI arguments of chordal-sweep's campaign: `sqfpow` followed by
    these runs it from a shell."""
    return [
        "campaign", "chordal-conjecture", "--bundled", data["corpus"], "--connected",
        "--nmax", str(data["nmax"]), "--jobs", "1", "--seed", str(data["seed"]),
        "--out", str(report),
    ]


def _campaign(data: dict, report: Path) -> dict:
    """Runs the campaign and times each reg(I(G)^[k]) query it makes, around
    campaigns.reg_power_cached; without that function the times are empty."""
    query = getattr(campaigns, "reg_power_cached", None)
    times: list[float] = []

    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return query(*args, **kwargs)
        finally:
            times.append(perf_counter() - t0)

    if query is not None:
        campaigns.reg_power_cached = timed
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = sqfpow.cli.main(campaign_argv(data, report))
    finally:
        if query is not None:
            campaigns.reg_power_cached = query
    return {"exit": code, "report": str(report), "query_s": times}


def _late(module, name: str, *args):
    """Call module.name as it is at call time, so that wrappers apply."""
    return getattr(module, name)(*args)


def _hypergraph(h: dict):
    cls = hypergraphs.Graph if all(e.bit_count() == 2 for e in h["edges"]) else hypergraphs.Hypergraph
    return cls(h["n"], h["edges"])


def build_ops(workload: str, data: dict, out: Path) -> list[tuple[list, object, bool]]:
    """(key, call, counted in wall_s) for every operation of one pass."""
    ops: list[tuple[list, object, bool]] = []
    if workload == "chordal-sweep":
        report = out.with_suffix(".jsonl")
        ops.append((["campaign"], partial(_campaign, data, report), True))
    elif workload == "homology":
        queries = []
        for gi, g in enumerate(data["graphs"]):
            G = hypergraphs.Graph(g["n"], g["edges"])
            for char in g["chars"]:
                for k in g["ks"]:
                    queries.append((["reg", gi, k, char], partial(_regularity_query, G, k, char), True))
                nu = g["nu"]
                queries.append((["reg_nu", gi, nu, char], partial(_regularity_query, G, nu, char), True))
        tables = []
        for ti, t in enumerate(data["tables"]):
            I = ideals.SquareFreeIdeal(t["n"], t["gens"])
            tables.append((["betti", ti], partial(_betti_rows, I, t["char"]), True))
        # the queries sample the machine's speed over the whole pass
        ops += spread_between([[query] for query in queries], tables)
    else:
        hs = [_hypergraph(h) for h in data["hypergraphs"]]
        probes = [
            (["probe", hi], partial(_regularity_query, hs[hi], 1, 2), False)
            for hi in data["reg_probes"]
        ]
        probed = set(data["reg_probes"])
        small, large = [], []
        for hi, H in enumerate(hs):
            walk = [(["aim_profile", hi], partial(_late, admissible, "aim_profile", H), True)]
            if data["hypergraphs"][hi].get("lower_bound", True):
                walk.append((["lower_bound", hi], partial(_lower_bounds, H), True))
            induced = partial(_late, hypergraphs, "induced_matching_number", H)
            walk.append((["induced", hi], induced, True))
            (small if hi in probed else large).append(walk)
        # a share of the probes runs before the first large graph and after
        # each, so that they sample the machine's speed over the whole pass
        # rather than in one instant
        ops += [op for walk in small for op in walk] + spread_between(large, probes)
    return ops


def spread_between(blocks: list[list], fillers: list) -> list:
    """The blocks in order, with the fillers in even shares before, between
    and after them."""
    shares = len(blocks) + 1
    out = []
    for bi, block in enumerate(blocks):
        out += fillers[bi::shares] + block
    return out + fillers[len(blocks)::shares]


def run_pass(ops) -> dict:
    times, results = [], []
    wall = 0.0
    for _, call, in_wall in ops:
        t0 = perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failing operation is counted, not fatal
            result = f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        times.append(dt)
        results.append(result)
        if in_wall:
            wall += dt
    return {"keys": [key for key, _, _ in ops], "wall": wall, "times": times, "results": results}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, help="JSON made by bench/inputs.py")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    data = json.loads(Path(args.inputs).read_text())
    if args.setup_only:
        if args.workload == "chordal-sweep":
            corpus.bundled_corpus(data["corpus"])
        build_ops(args.workload, data, Path("unused"))
        return 0

    out = Path(args.out)
    ops = build_ops(args.workload, data, out)
    if not args.trace:
        result = run_pass(ops)
    else:
        import tracing

        tracer = tracing.Tracer()
        undo, missing = tracing.install(tracer)
        try:
            result = run_pass(ops)
        finally:
            tracing.uninstall(undo)
        result["layers"] = tracing.layer_metrics(tracer.spans, missing)
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
