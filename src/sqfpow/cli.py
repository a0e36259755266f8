"""Command line interface.

Exit codes: 0 all pass, 1 campaign failure, 2 input error, 3 budget
exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .admissible import aim, aim_star
from .betti import betti_table, regularity
from .campaigns import CampaignFailure, pair_corpus, run_campaign
from .corpus import (
    bundled_corpus,
    load_corpus,
    parse_graph6,
    parse_hypergraph,
    parse_ideal,
)
from .graphclasses import (
    block_decomposition,
    cm_clique_partition,
    free_vertices,
    is_block_graph,
    is_chordal,
    is_weakly_chordal,
)
from .hypergraphs import (
    BudgetError,
    Graph,
    Hypergraph,
    InputError,
    induced_matching_number,
    matching_number,
    vertices_of,
)
from .ideals import (
    GeneralMonomialIdeal,
    SquareFreeIdeal,
    matching_power_general,
    polarize,
    sqfree_power,
)


def _load_instance(arg: str):
    """A file path (graph6/JSON by content) or a literal graph6 string."""
    path = Path(arg)
    if path.exists():
        lines = path.read_text().splitlines()
        line = next(
            (ln.strip() for ln in lines if ln.strip() and not ln.startswith("#")), ""
        )
    else:
        line = arg.strip()
    if line.startswith("{"):
        data = json.loads(line)
        if "edges" in data:
            return parse_hypergraph(line)
        return parse_ideal(line)
    return parse_graph6(line)


def _as_power_ideal(obj, k: int) -> SquareFreeIdeal:
    if isinstance(obj, Hypergraph):
        return sqfree_power(obj, k)
    if isinstance(obj, SquareFreeIdeal):
        if obj.is_zero() or obj.is_unit():
            return obj if k == 1 else sqfree_power(Hypergraph(obj.n), k)
        return sqfree_power(obj.hypergraph(), k)
    if isinstance(obj, GeneralMonomialIdeal):
        # regularity of a general monomial ideal is read off its polarization
        return polarize(matching_power_general(obj, k)) if k > 1 else polarize(obj)
    raise InputError(f"cannot interpret {obj!r}")


def _cmd_reg(args) -> int:
    obj = _load_instance(args.input)
    ideal = _as_power_ideal(obj, args.k)
    print(regularity(ideal, args.char))
    return 0


def _cmd_gens(args) -> int:
    obj = _load_instance(args.input)
    ideal = _as_power_ideal(obj, args.k)
    print(ideal.to_json())
    return 0


def _cmd_betti(args) -> int:
    obj = _load_instance(args.input)
    ideal = _as_power_ideal(obj, args.k)
    table = betti_table(ideal, args.char)
    print("i,j,beta")
    for row in table.csv_rows():
        print(row)
    return 0


def _cmd_aim(args) -> int:
    obj = _load_instance(args.input)
    if not isinstance(obj, Hypergraph):
        raise InputError("aim expects a graph or hypergraph input")
    if args.star:
        if not isinstance(obj, Graph):
            raise InputError("--star needs a graph input")
        print(aim_star(obj, args.k))
    else:
        print(aim(obj, args.k))
    return 0


def _cmd_classify(args) -> int:
    obj = _load_instance(args.input)
    if not isinstance(obj, Graph):
        raise InputError("classify expects a graph input")
    chordal, peo = is_chordal(obj)
    info: dict = {
        "n": obj.n,
        "edges": [list(vertices_of(e)) for e in obj.edges],
        "connected": obj.is_connected(),
        "chordal": chordal,
        "weakly_chordal": is_weakly_chordal(obj),
        "block_graph": is_block_graph(obj),
        "free_vertices": list(vertices_of(free_vertices(obj))),
        "matching_number": matching_number(obj),
        "induced_matching_number": induced_matching_number(obj),
    }
    if chordal:
        info["peo"] = list(peo)
    parts = cm_clique_partition(obj)
    info["cm_chordal"] = parts is not None
    if parts is not None:
        info["cm_partition"] = [list(vertices_of(p)) for p in parts]
    if info["block_graph"]:
        dec = block_decomposition(obj)
        info["blocks"] = [
            {
                "vertices": list(vertices_of(blk)),
                "leaf": dec.leaf[i],
                "distant_leaf": dec.distant_leaf[i],
                "special_type": dec.special_type[i],
            }
            for i, blk in enumerate(dec.blocks)
        ]
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


def _cmd_campaign(args) -> int:
    if args.corpus:
        corpus = load_corpus(args.corpus)
    elif args.bundled:
        corpus = bundled_corpus(args.bundled)
    else:
        raise InputError("campaign needs --corpus FILE or --bundled NAME")
    params = {
        "char": args.char,
        "kmax": args.kmax,
        "jobs": args.jobs,
        "seed": args.seed,
        "explore": args.explore,
        "connected": args.connected,
        "nmax": args.nmax,
        "limit": args.limit,
    }
    if args.name == "splitting":
        corpus = pair_corpus(corpus, nmax=args.nmax)
    try:
        report = run_campaign(args.name, corpus, params)
    except CampaignFailure as failure:
        report = failure.report
        report.records.append(failure.record)
        if args.out:
            report.write_jsonl(args.out)
        print(str(failure), file=sys.stderr)
        return 1
    if args.out:
        report.write_jsonl(args.out)
        if args.csv:
            report.write_csv(args.csv)
    print(json.dumps(report.summary_dict(), sort_keys=True))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqfpow",
        description="Square-free powers of edge ideals: regularity, admissible "
        "matchings, and verification campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reg", help="regularity of I^[k] for a graph/hypergraph/ideal")
    p.add_argument("input")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--char", type=int, default=2)
    p.set_defaults(func=_cmd_reg)

    p = sub.add_parser("aim", help="k-admissible matching number")
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--star", action="store_true", help="forest-restricted variant")
    p.set_defaults(func=_cmd_aim)

    p = sub.add_parser("gens", help="minimal generators of I^[k]")
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_gens)

    p = sub.add_parser("betti", help="Betti table as CSV rows i,j,beta")
    p.add_argument("input")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--char", type=int, default=2)
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("classify", help="graph class report for a graph6 input")
    p.add_argument("input")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("campaign", help="run a verification campaign over a corpus")
    p.add_argument("name")
    p.add_argument("--corpus", help="graph6 or JSONL corpus file")
    p.add_argument("--bundled", help="bundled corpus name (e.g. connected_le7)")
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--char", type=int, default=2)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--explore", action="store_true", help="collect failures instead of aborting")
    p.add_argument("--out", help="JSONL report path")
    p.add_argument("--csv", help="CSV mirror path")
    p.set_defaults(func=_cmd_campaign)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (InputError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
