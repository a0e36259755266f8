"""sqfpow benchmark: one workload, one run, one JSON line of metrics.

    python3 bench/run.py --workload chordal-sweep --seed 1 --seconds 24 --trace 0

Run from anywhere inside a checkout.  Workloads: chordal-sweep (the CLI
chordal-conjecture campaign), homology (regularity queries and Betti
tables), aim-scan (the matching walk).  --trace 0 prints the end-to-end
metrics of BENCHMARK.json, --trace 1 its per-layer metrics.  Every output
is checked against values computed apart from sqfpow; see bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from checks import (  # noqa: E402
    check_aim_profile,
    check_betti_table,
    check_campaign_report,
    check_induced_matching_number,
    check_lower_bounds,
    check_regularity,
)
from inputs import CHORDAL_CORPUS, LARGE_PRIME, make_inputs  # noqa: E402
from reference import chordal_expectations, matching_profile  # noqa: E402

WORKLOADS = ("chordal-sweep", "homology", "aim-scan")
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
# the trivial CLI call timed for cli.startup_s: aim of one edge (graph6 "A_")
STARTUP_ARGV = ["-m", "sqfpow.cli", "aim", "A_", "--k", "1"]
REQUIRED = (ROOT / "src" / "sqfpow" / "__init__.py", ROOT / "tests" / "oracles.py")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str]) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS in MB) of one Python child; the
    RSS is the largest of the child and the children it waited for."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable] + argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def median_child_wall(argv: list[str], repeats: int) -> float:
    walls = []
    for _ in range(repeats):
        code, wall, _ = run_child(argv)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited with code {code}")
        walls.append(wall)
    return statistics.median(walls)


class Tally:
    """The operations of one pass and those that failed in any pass.

    Every pass runs the same operations, so `attempted` counts them once,
    however many passes fit into a run.  `correct` stays true while every
    failure is the known fault: a wrong Betti table at LARGE_PRIME.
    """

    def __init__(self):
        self.ops: set[tuple] = set()
        self.failing: set[tuple] = set()
        self.correct = True
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.failing)

    def record(self, op: tuple, problems: list[str], known_fault: bool = False) -> None:
        self.ops.add(op)
        if problems:
            self.failing.add(op)
            self.flag(problems, known_fault)

    def flag(self, problems: list[str], known_fault: bool = False) -> None:
        self.correct = self.correct and known_fault
        if len(self.problems) < 20:
            self.problems.extend(problems[:3])


# -- references: computed apart from sqfpow -----------------------------------------


def load_oracles():
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles

    return oracles


def taylor_table(oracles, n: int, gens: list[int], char: int) -> dict:
    vectors = [[g >> v & 1 for v in range(n)] for g in gens]
    return oracles.taylor_betti(n, vectors, char)


def references(workload: str, data: dict) -> dict:
    if workload == "chordal-sweep":
        return {"chordal": chordal_expectations(CHORDAL_CORPUS, data["nmax"])}
    oracles = load_oracles()
    if workload == "homology":
        return {
            "graphs": [matching_profile(g["edges"]) for g in data["graphs"]],
            "tables": [taylor_table(oracles, t["n"], t["gens"], t["char"]) for t in data["tables"]],
        }
    hypergraphs = data["hypergraphs"]
    profiles = [matching_profile(h["edges"]) for h in hypergraphs]
    brute_aim, brute_lb = {}, {}
    for hi, h in enumerate(hypergraphs):
        if h["edges"][0].bit_count() == 3:
            ks = range(1, profiles[hi][0] + 1)
            brute_aim[hi] = [oracles.brute_aim(h["edges"], k) for k in ks]
            brute_lb[hi] = [oracles.brute_lower_bound(h["edges"], k) for k in ks]
    probe_reg = {}
    for hi in data["reg_probes"]:
        h = hypergraphs[hi]
        probe_reg[hi] = max(j - i for (i, j) in taylor_table(oracles, h["n"], h["edges"], 2))
    return {"profiles": profiles, "brute_aim": brute_aim, "brute_lb": brute_lb, "probe_reg": probe_reg}


# -- checking one pass --------------------------------------------------------------


def check_campaign(result, refs: dict, tally: Tally) -> None:
    """Check one chordal-conjecture report; each expected (instance, k) is
    one operation."""
    if not isinstance(result, dict) or result["exit"] != 0:
        tally.flag([f"campaign failed: {result!r}"])
    path = Path(result["report"]) if isinstance(result, dict) else None
    records = []
    if path is not None and path.exists():
        records = [json.loads(line) for line in path.read_text().splitlines()]
    bad, problems = check_campaign_report(records, refs["chordal"])
    for name, (nu, _, _) in refs["chordal"].items():
        tally.ops.update(("campaign", name, k) for k in range(1, nu + 1))
    tally.failing.update(("campaign", name, k) for name, k in bad)
    if problems:
        tally.flag(problems)


def check_pass(data: dict, keys: list, results: list, refs: dict, tally: Tally) -> None:
    for key, result in zip(keys, results):
        kind, op = key[0], tuple(key)
        if kind == "campaign":
            check_campaign(result, refs, tally)
        elif kind in ("reg", "reg_nu"):
            _, gi, k, _ = key
            tally.record(op, check_regularity(result, k, *refs["graphs"][gi]))
        elif kind == "probe":
            # reg(I(H)) of a 3-uniform H at characteristic 2
            hi = key[1]
            want = refs["probe_reg"][hi]
            bound = 2 * refs["profiles"][hi][2][0] + 1
            problems = [] if result == want else [f"reg {result!r} != {want} (Taylor)"]
            if isinstance(result, int) and result < bound:
                problems.append(f"reg {result} below (d-1) aim + k = {bound}")
            tally.record(op, problems)
        elif kind == "betti":
            char = data["tables"][key[1]]["char"]
            problems = check_betti_table(result, refs["tables"][key[1]])
            tally.record(op, problems, known_fault=char == LARGE_PRIME)
        else:
            hi = key[1]
            nu, nu1, aim = refs["profiles"][hi]
            if kind == "aim_profile":
                problems = check_aim_profile(result, nu, nu1, aim)
                brute = refs["brute_aim"].get(hi)
                if brute is not None and result != brute:
                    problems.append(f"profile {result!r} != brute force {brute}")
                tally.record(op, problems)
            elif kind == "lower_bound":
                d = data["hypergraphs"][hi]["edges"][0].bit_count()
                brute = refs["brute_lb"].get(hi)
                tally.record(op, check_lower_bounds(result, d, aim, brute))
            else:
                tally.record(op, check_induced_matching_number(result, nu1))


# -- the three kinds of run -------------------------------------------------------


def worker_argv(workload: str, out_dir: Path) -> list[str]:
    return [str(HERE / "worker.py"), "--workload", workload, "--inputs", str(out_dir / "inputs.json")]


def worker_pass(workload: str, trace: int, out_dir: Path, out: Path) -> tuple[dict, float]:
    """One pass in a fresh worker process: (its output, its peak RSS in MB)."""
    argv = worker_argv(workload, out_dir) + ["--trace", str(trace), "--out", str(out)]
    code, _, peak = run_child(argv)
    if code != 0:
        raise RuntimeError(f"worker for {workload} exited with code {code}")
    return json.loads(out.read_text()), peak


def worker_passes(
    workload: str, seconds: float, trace: int, out_dir: Path
) -> tuple[list[dict], list[dict], float]:
    """Passes until `seconds` have gone by: (untraced passes, traced passes,
    peak RSS).  With trace, each untraced pass is followed by a traced one."""
    plain, traced, peak = [], [], 0.0
    begin = perf_counter()
    while True:
        result, rss = worker_pass(workload, 0, out_dir, out_dir / f"plain-{len(plain)}.json")
        plain.append(result)
        peak = max(peak, rss)
        if trace:
            out = out_dir / f"traced-{len(traced)}.json"
            traced.append(worker_pass(workload, 1, out_dir, out)[0])
        if perf_counter() - begin >= seconds:
            return plain, traced, peak


def query_times(p: dict) -> list[float]:
    """The regularity queries' times of one pass: those the campaign made
    (chordal-sweep), or the timed query operations.  The k = nu queries of
    homology take about a millisecond and are left out."""
    if p["keys"][0] == ["campaign"]:
        result = p["results"][0]
        return result.get("query_s", []) if isinstance(result, dict) else []
    return [t for key, t in zip(p["keys"], p["times"]) if key[0] in ("reg", "probe")]


def in_process_metrics(data: dict, refs: dict, passes: list[dict], peak: float, tally: Tally) -> dict:
    for p in passes:
        check_pass(data, p["keys"], p["results"], refs, tally)
    metrics = {"wall_s": statistics.median(p["wall"] for p in passes), "peak_rss_mb": peak}
    # each query's median over the passes, then the median over the queries
    per_query = [statistics.median(ts) for ts in zip(*(query_times(p) for p in passes))]
    if per_query:
        metrics["reg_query_p50_s"] = statistics.median(per_query)
    return metrics


def traced_metrics(data: dict, refs: dict, plain: list[dict], traced: list[dict], tally: Tally) -> dict:
    for p in plain + traced:
        check_pass(data, p["keys"], p["results"], refs, tally)
    names = set().union(*(p["layers"] for p in traced))
    metrics = {name: statistics.median_low(p["layers"][name] for p in traced) for name in names}
    metrics["trace.wall_s"] = statistics.median(p["wall"] for p in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
        p["wall"] for p in plain
    )
    metrics["cli.startup_s"] = median_child_wall(STARTUP_ARGV, STARTUP_REPEATS)
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: int, scale: str = "full") -> dict:
    """One run; returns the result object printed as the last line."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    data = make_inputs(workload, seed, scale)
    refs = references(workload, data)
    tally = Tally()
    out_dir = ROOT / ".bench_out" / f"{workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "inputs.json").write_text(json.dumps(data))
    try:
        plain, traced, peak = worker_passes(workload, seconds, trace, out_dir)
        if trace:
            metrics = traced_metrics(data, refs, plain, traced, tally)
        else:
            metrics = in_process_metrics(data, refs, plain, peak, tally)
            setup = worker_argv(workload, out_dir) + ["--setup-only"]
            metrics["setup_s"] = median_child_wall(setup, SETUP_REPEATS)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            out_dir.parent.rmdir()  # left alone while another run uses it
    if not trace:
        # a layer may go missing from a traced run; an end-to-end metric may not
        absent = [m["name"] for m in declared if m["name"] not in metrics]
        if absent:
            tally.flag([f"end-to-end metrics not measured: {', '.join(absent)}"])
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
            if m["name"] in metrics
        },
        "problems": tally.problems,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    absent = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if absent:
        print(f"bench: {', '.join(absent)} not found; run inside a sqfpow checkout", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for problem in result.pop("problems"):
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
