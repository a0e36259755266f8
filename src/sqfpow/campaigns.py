"""Verification campaigns: check the regularity identities on corpora.

Each campaign filters the corpus by its class predicate (skips recorded
with a machine-readable reason), runs an exact integer check per
(instance, k), and either aborts on the first failure with a full
witness dump (strict campaigns; a violation means an implementation
bug and must be loud) or collects all failures (explore mode).

A runner yields one `(k, data, ok, witness)` tuple per check, with
`witness` None when `ok`; `_worker` builds every CampaignRecord from
those tuples.
"""

from __future__ import annotations

import csv
import json
import random
import zlib
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Callable, Iterator

from . import graphclasses
from .admissible import aim_profile, best_admissible_witness, lower_bound
from .betti import betti_splitting_check, betti_table, regularity
from .corpus import Corpus
from .hypergraphs import (
    Graph,
    Hypergraph,
    InputError,
    disjoint_union,
    induced_sub,
    induced_matching_number,
    matching_number,
    vertices_of,
)
from .ideals import (
    GeneralMonomialIdeal,
    SquareFreeIdeal,
    matching_power_general,
    polarize,
    splitting_for_disjoint_union,
    sqfree_power,
)

@dataclass
class CampaignRecord:
    instance: str
    k: int | None
    data: dict
    ok: bool
    witness: dict | None
    characteristic: int

    def to_json_dict(self) -> dict:
        out = {
            "instance": self.instance,
            "k": self.k,
            "ok": self.ok,
            "characteristic": self.characteristic,
        }
        out.update(self.data)
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class SkipRecord:
    instance: str
    reason: str


@dataclass
class CampaignReport:
    name: str
    params: dict
    records: list[CampaignRecord] = field(default_factory=list)
    skips: list[SkipRecord] = field(default_factory=list)

    @property
    def n_pass(self) -> int:
        return sum(1 for r in self.records if r.ok)

    @property
    def n_fail(self) -> int:
        return sum(1 for r in self.records if not r.ok)

    @property
    def ok(self) -> bool:
        return self.n_fail == 0

    def summary_dict(self) -> dict:
        return {
            "summary": self.name,
            "params": dict(self.params),
            "instances": len({r.instance for r in self.records}),
            "checks": len(self.records),
            "pass": self.n_pass,
            "fail": self.n_fail,
            "skipped": len(self.skips),
        }

    def jsonl_lines(self) -> list[str]:
        lines = [json.dumps(r.to_json_dict(), sort_keys=True) for r in self.records]
        lines.extend(
            json.dumps({"skip": s.instance, "reason": s.reason}) for s in self.skips
        )
        lines.append(json.dumps(self.summary_dict(), sort_keys=True))
        return lines

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("\n".join(self.jsonl_lines()) + "\n")

    def write_csv(self, path) -> None:
        keys = sorted({k for r in self.records for k in r.data})
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["instance", "k", "ok"] + keys)
            for r in self.records:
                writer.writerow(
                    [r.instance, r.k, int(r.ok)] + [r.data.get(k, "") for k in keys]
                )


class CampaignFailure(RuntimeError):
    """A strict campaign found a violated identity."""

    def __init__(self, name: str, record: CampaignRecord, report: CampaignReport):
        self.record = record
        self.report = report
        super().__init__(
            f"campaign {name!r} failed on {record.instance} (k={record.k}): "
            f"{json.dumps(record.to_json_dict(), sort_keys=True)}"
        )


def reg_power_cached(H: Hypergraph, k: int, char: int) -> int:
    """reg(I(H)^[k]) over GF(char), the regularity query of every campaign.

    Nothing is cached: over isomorph-free corpora no query repeats. The
    name stays because the benchmark and the tests replace this function
    to time or to break every campaign's regularity query.
    """
    return regularity(sqfree_power(H, k), char)


def _failure_witness(H: Hypergraph, k: int, char: int, extra: dict) -> dict:
    """Full dump: generators, both sides, Betti tables at char and 32003."""
    ideal = sqfree_power(H, k)
    witness = {
        "edges": [list(vertices_of(e)) for e in H.edges],
        "n": H.n,
        "k": k,
    }
    witness.update(extra)
    if not (ideal.is_zero() or ideal.is_unit()):
        witness["gens"] = [list(vertices_of(g)) for g in ideal.gens]
        witness[f"betti_char{char}"] = sorted(
            (i, j, b) for (i, j), b in betti_table(ideal, char).entries.items()
        )
        other = 32003 if char != 32003 else 2
        witness[f"betti_char{other}"] = sorted(
            (i, j, b) for (i, j), b in betti_table(ideal, other).entries.items()
        )
    return witness


# -- per-campaign instance runners --------------------------------------------


def _k_values(nu: int, kmax, lo: int = 1) -> list[int]:
    hi = nu if kmax is None else min(nu, int(kmax))
    return list(range(lo, hi + 1))


def _run_equality(G: Graph, ctx: dict) -> Iterator[tuple]:
    char = ctx["char"]
    prof = aim_profile(G)
    for k in _k_values(len(prof), ctx.get("kmax")):
        reg = reg_power_cached(G, k, char)
        a = prof[k - 1]
        ok = reg == a + k
        witness = None if ok else _failure_witness(G, k, char, {"aim": a})
        yield k, {"reg": reg, "aim": a, "expected": a + k}, ok, witness


def _run_cm2(G: Graph, ctx: dict) -> Iterator[tuple]:
    char = ctx["char"]
    a2 = aim_profile(G)[1]
    reg = reg_power_cached(G, 2, char)
    ok = reg == a2 + 2
    witness = None if ok else _failure_witness(G, 2, char, {"aim": a2})
    yield 2, {"reg": reg, "aim": a2, "expected": a2 + 2}, ok, witness


def _run_lower_bound(H: Hypergraph, ctx: dict) -> Iterator[tuple]:
    char = ctx["char"]
    nu = matching_number(H)
    d = H.uniform_size()
    prof = aim_profile(H) if d is not None else None
    for k in _k_values(nu, ctx.get("kmax")):
        bound = lower_bound(H, k)
        reg = reg_power_cached(H, k, char)
        ok = reg >= bound + k
        data = {"reg": reg, "L": bound, "bound": bound + k}
        if prof is not None:
            a = prof[k - 1]
            data["aim"] = a
            data["d"] = d
            ok = ok and bound == (d - 1) * a and reg >= (d - 1) * a + k
        witness = None
        if not ok:
            extra = dict(data)
            best = best_admissible_witness(H, k)
            if best is not None:
                extra["admissible_witness"] = best.to_json_dict(H)
            witness = _failure_witness(H, k, char, extra)
        yield k, data, ok, witness


def _run_ci_formula(H: Hypergraph, ctx: dict) -> Iterator[tuple]:
    char = ctx["char"]
    q = len(H.edges)
    covered = H.covered().bit_count()
    for k in _k_values(q, ctx.get("kmax")):
        reg = reg_power_cached(H, k, char)
        expected = covered - q + k
        ok = reg == expected
        if covered == H.n:
            ok = ok and reg == H.n - q + k
        witness = None if ok else _failure_witness(H, k, char, {"expected": expected})
        yield k, {"reg": reg, "expected": expected, "V": covered, "E": q}, ok, witness


def _run_splitting(pair: tuple, ctx: dict) -> Iterator[tuple]:
    H1, H2 = pair
    char = ctx["char"]
    nu1 = matching_number(H1)
    nu2 = matching_number(H2)
    union = disjoint_union(H1, H2)
    for k in range(nu1 + 1, nu1 + nu2 + 1):
        if ctx.get("kmax") is not None and k > ctx["kmax"]:
            break
        J, K = splitting_for_disjoint_union(H1, H2, k)
        ideal = sqfree_power(union, k)
        sum_ok = J.plus(K) == ideal
        data = {"gens_J": len(J.gens), "gens_K": len(K.gens), "sum_ok": sum_ok}
        if K.is_zero():
            ok = sum_ok and J == ideal
            data["trivial"] = True
        else:
            check = betti_splitting_check(ideal, J, K, char)
            data["identity_ok"] = check["ok"]
            data["violations"] = check["violations"]
            # regularity consequence of the splitting
            reg_union = regularity(ideal, char)
            rj = regularity(SquareFreeIdeal(union.n, sqfree_power(H1, nu1).gens), char)
            r2a = regularity(sqfree_power(H2, k - nu1), char)
            r2b = regularity(sqfree_power(H2, k - nu1 + 1), char)
            bound = max(rj + r2a, rj + r2b - 1)
            data["reg"] = reg_union
            data["reg_bound"] = bound
            ok = sum_ok and check["ok"] and reg_union >= bound
        yield k, data, ok, None if ok else _failure_witness(union, k, char, data)


def _run_colon_weakly_chordal(G: Graph, ctx: dict) -> Iterator[tuple]:
    i2 = sqfree_power(G, 2)
    checked = 0
    for e in G.edges:
        x = (e & -e).bit_length() - 1
        y = e.bit_length() - 1
        tilde = graphclasses.colon_graph(G, x, y)
        wc = graphclasses.is_weakly_chordal(tilde)
        identity = i2.colon(e) == SquareFreeIdeal(G.n, tilde.edges)
        checked += 1
        if not (wc and identity):
            data = {"edge": [x, y], "weakly_chordal": wc, "identity": identity}
            yield None, data, False, _failure_witness(G, 2, ctx["char"], {"edge": [x, y]})
            return
    yield None, {"edges_checked": checked}, True, None


def _run_nu1_lemmas(G: Graph, ctx: dict) -> Iterator[tuple]:
    parts = graphclasses.cm_clique_partition(G)
    free = graphclasses.free_vertices(G)
    a2 = aim_profile(G)[1]
    part_of = {}
    for p in parts:
        for v in vertices_of(p):
            part_of[v] = p
    checked = 0
    for e in G.edges:
        u = (e & -e).bit_length() - 1
        w = e.bit_length() - 1
        for x, y in ((u, w), (w, u)):
            wi = part_of[x]
            other_free = wi & ~(1 << x) & free
            hyp_a = bool(other_free) and not wi >> y & 1
            hyp_b = bool(free >> x & 1) and bool(other_free) and bool(wi >> y & 1)
            if not (hyp_a or hyp_b):
                continue
            tilde = graphclasses.colon_graph(G, x, y)
            nu1 = induced_matching_number(tilde)
            checked += 1
            if nu1 > a2 - 1:
                data = {"edge": [x, y], "nu1_tilde": nu1, "aim2": a2}
                yield 2, data, False, _failure_witness(G, 2, ctx["char"], {"edge": [x, y]})
                return
    yield 2, {"pairs_checked": checked, "aim2": a2}, True, None


def _aim_ext_profile(G: Graph, cache: dict, delmask: int) -> Callable[[int], int]:
    if delmask not in cache:
        H = G.remove_vertices(delmask)
        prof = aim_profile(H)
        cache[delmask] = prof
    prof = cache[delmask]

    def get(k: int) -> int:
        if not prof:
            return 0
        return prof[min(k, len(prof)) - 1]

    return get


def _run_aim_deletion(G: Graph, ctx: dict) -> Iterator[tuple]:
    nu = matching_number(G)
    prof = aim_profile(G)
    cache: dict = {}
    checked = 0

    def fail(tag: str, detail: dict) -> tuple:
        witness = {"edges": [list(vertices_of(e)) for e in G.edges], **detail}
        return None, {"rule": tag, **detail}, False, witness

    if graphclasses.is_block_graph(G):
        dec = graphclasses.block_decomposition(G)
        free = graphclasses.free_vertices(G)
        for blk in dec.blocks:
            bverts = vertices_of(blk)
            # deletions at a vertex whose outside closed neighbors are pendant
            for u in bverts:
                outside = G.adj[u] & ~blk
                if not outside:
                    continue
                if any(G.degree(v) != 1 for v in vertices_of(outside)):
                    continue
                deletions = [[u]]
                other = next((w for w in bverts if w != u), None)
                if other is not None:
                    deletions.append([u, other])
                for dels in deletions:
                    delmask = sum(1 << v for v in dels)
                    get = _aim_ext_profile(G, cache, delmask)
                    for k in range(2, nu + 1):
                        checked += 1
                        if get(k - 1) > prof[k - 1] - 1:
                            yield fail(
                                "pendant-deletion",
                                {"deleted": dels, "k": k, "aim_H": get(k - 1), "aim_G": prof[k - 1]},
                            )
                            return
            # two distinct free vertices in the block
            fv = vertices_of(blk & free)
            if len(fv) >= 2:
                u1, u2 = fv[0], fv[1]
                delmask = (1 << u1) | (1 << u2)
                get = _aim_ext_profile(G, cache, delmask)
                for k in range(2, nu + 1):
                    checked += 1
                    if get(k - 1) > prof[k - 1] - 1:
                        yield fail(
                            "free-pair-deletion",
                            {"deleted": [u1, u2], "k": k, "aim_H": get(k - 1), "aim_G": prof[k - 1]},
                        )
                        return
                get = _aim_ext_profile(G, cache, blk)
                for k in range(1, nu + 1):
                    checked += 1
                    if get(k) > prof[k - 1] - 1:
                        yield fail(
                            "block-deletion",
                            {"deleted": list(bverts), "k": k, "aim_H": get(k), "aim_G": prof[k - 1]},
                        )
                        return
    # closed-neighborhood deletion: N[y] inside N[x] lets {x,y} extend any witness
    for x in range(G.n):
        closed_x = G.adj[x] | (1 << x)
        for y in vertices_of(G.adj[x]):
            closed_y = G.adj[y] | (1 << y)
            if closed_y & ~closed_x:
                continue
            get = _aim_ext_profile(G, cache, closed_x)
            for k in range(1, nu + 1):
                checked += 1
                if get(k) > prof[k - 1] - 1:
                    yield fail(
                        "closed-neighborhood-deletion",
                        {"x": x, "y": y, "k": k, "aim_H": get(k), "aim_G": prof[k - 1]},
                    )
                    return
    yield None, {"checks": checked}, True, None


def _run_reg_lemmas(item, ctx: dict) -> Iterator[tuple]:
    char = ctx["char"]
    ideals = item if isinstance(item, tuple) else (item,)
    I = ideals[0]
    reg_i = regularity(I, char)
    ok = True
    detail: dict = {"reg": reg_i}
    for v in range(I.n):
        xv = 1 << v
        if regularity(I.plus(SquareFreeIdeal(I.n, [xv])), char) > reg_i:
            ok, detail["plus_var"] = False, v
            break
        if regularity(I.colon(xv), char) > reg_i:
            ok, detail["colon_var"] = False, v
            break
    if ok:
        monomials = list(I.gens) + [(1 << min(3, I.n)) - 1]
        for m in monomials:
            upper = max(
                regularity(I.colon(m), char) + m.bit_count(),
                regularity(I.plus(SquareFreeIdeal(I.n, [m])), char),
            )
            if reg_i > upper:
                ok, detail["split_monomial"] = False, list(vertices_of(m))
                break
    if ok and len(ideals) == 2:
        J = ideals[1]
        n = I.n + J.n
        big_i = SquareFreeIdeal(n, I.gens)
        big_j = SquareFreeIdeal(n, [g << I.n for g in J.gens])
        lhs = regularity(big_i.plus(big_j), char)
        rhs = reg_i + regularity(J, char) - 1
        detail["disjoint_sum"] = [lhs, rhs]
        ok = lhs == rhs
    yield None, detail, ok, None


def _run_restriction(H: Hypergraph, ctx: dict) -> Iterator[tuple]:
    char = ctx["char"]
    nu = matching_number(H)
    ks = _k_values(nu, ctx.get("kmax"))
    rng = random.Random(ctx["seed"])
    full = (1 << H.n) - 1
    if H.n <= ctx.get("wmax", 7):
        subsets = range(full + 1)
    else:
        subsets = sorted({rng.randrange(full + 1) for _ in range(ctx.get("wsample", 64))})
    regs = {k: reg_power_cached(H, k, char) for k in ks}
    checked = 0
    for w in subsets:
        sub = induced_sub(H, w).hypergraph
        for k in ks:
            checked += 1
            sub_reg = regularity(sqfree_power(sub, k), char)
            if sub_reg > regs[k]:
                data = {"W": list(vertices_of(w)), "reg_sub": sub_reg, "reg": regs[k]}
                yield k, data, False, _failure_witness(H, k, char, {"W": list(vertices_of(w))})
                return
    yield None, {"checks": checked}, True, None


def _run_polarization(I: GeneralMonomialIdeal, ctx: dict) -> Iterator[tuple]:
    char = ctx["char"]
    caps = [max((g[i] for g in I.gens), default=0) for i in range(I.n)]
    P = polarize(I, caps)
    kmax = 3 if ctx.get("kmax") is None else ctx["kmax"]
    for k in range(1, kmax + 1):
        lhs = polarize(matching_power_general(I, k), caps)
        if P.is_zero() or P.is_unit():
            rhs = lhs
        else:
            rhs = sqfree_power(P.hypergraph(), k)
        ok = lhs == rhs
        data = {"gens": len(lhs.gens), "identity": ok}
        if ok and not lhs.is_zero() and not lhs.is_unit():
            ra = regularity(lhs, char)
            rb = regularity(rhs, char)
            data["reg_lhs"], data["reg_rhs"] = ra, rb
            ok = ra == rb
        yield k, data, ok, None
        if lhs.is_zero():
            break


# -- campaign registry ---------------------------------------------------------


def _skip_reason_graph(obj, ctx) -> str | None:
    if not isinstance(obj, Graph):
        return "not-a-graph"
    if ctx.get("nmax") is not None and obj.n > ctx["nmax"]:
        return "over-nmax"
    if ctx.get("connected") and not obj.is_connected():
        return "not-connected"
    return None


def _prepare_equality_chordal(obj, ctx):
    reason = _skip_reason_graph(obj, ctx)
    if reason:
        return reason
    if not graphclasses.is_chordal(obj)[0]:
        return "not-chordal"
    if not obj.edges:
        return "no-edges"
    return None


def _prepare_block(obj, ctx):
    reason = _skip_reason_graph(obj, ctx)
    if reason:
        return reason
    if not graphclasses.is_block_graph(obj):
        return "not-block-graph"
    if not obj.edges:
        return "no-edges"
    return None


def _prepare_cm2(obj, ctx):
    reason = _skip_reason_graph(obj, ctx)
    if reason:
        return reason
    if graphclasses.cm_clique_partition(obj) is None:
        return "not-cm-chordal"
    if matching_number(obj) < 2:
        return "nu<2"
    return None


def _prepare_hypergraph(obj, ctx):
    if not isinstance(obj, Hypergraph):
        return "not-a-hypergraph"
    if ctx.get("nmax") is not None and obj.n > ctx["nmax"]:
        return "over-nmax"
    if not obj.edges:
        return "no-edges"
    return None


def _prepare_ci(obj, ctx):
    reason = _prepare_hypergraph(obj, ctx)
    if reason:
        return reason
    edges = obj.edges
    for i, a in enumerate(edges):
        for b in edges[:i]:
            if a & b:
                return "not-disjoint-edges"
    return None


def _prepare_nu1(obj, ctx):
    reason = _skip_reason_graph(obj, ctx)
    if reason:
        return reason
    parts = graphclasses.cm_clique_partition(obj)
    if parts is None:
        return "not-cm-chordal"
    if any(p.bit_count() < 2 for p in parts):
        return "partition-has-singleton"
    if matching_number(obj) < 2:
        return "nu<2"
    return None


def _prepare_ideal(obj, ctx):
    ideals = obj if isinstance(obj, tuple) else (obj,)
    for ideal in ideals:
        if not isinstance(ideal, SquareFreeIdeal):
            return "not-a-squarefree-ideal"
        if ideal.is_zero() or ideal.is_unit():
            return "zero-or-unit"
    return None


def _prepare_general_ideal(obj, ctx):
    if not isinstance(obj, GeneralMonomialIdeal):
        return "not-a-monomial-ideal"
    if obj.is_zero() or obj.is_unit():
        return "zero-or-unit"
    return None


def _prepare_pair(obj, ctx):
    if not isinstance(obj, tuple) or len(obj) != 2:
        return "not-a-pair"
    for H in obj:
        if not isinstance(H, Hypergraph):
            return "not-a-hypergraph"
        if not H.edges:
            return "no-edges"
        if ctx.get("nmax") is not None and H.n > ctx["nmax"]:
            return "over-nmax"
    return None


CAMPAIGNS: dict[str, tuple[Callable, Callable]] = {
    "chordal-conjecture": (_prepare_equality_chordal, _run_equality),
    "block-theorem": (_prepare_block, _run_equality),
    "cm-chordal-2": (_prepare_cm2, _run_cm2),
    "lower-bound": (_prepare_hypergraph, _run_lower_bound),
    "ci-formula": (_prepare_ci, _run_ci_formula),
    "splitting": (_prepare_pair, _run_splitting),
    "colon-weakly-chordal": (_prepare_equality_chordal, _run_colon_weakly_chordal),
    "nu1-lemmas": (_prepare_nu1, _run_nu1_lemmas),
    "aim-deletion": (_skip_reason_graph, _run_aim_deletion),
    "reg-lemmas": (_prepare_ideal, _run_reg_lemmas),
    "restriction": (_prepare_hypergraph, _run_restriction),
    "polarization": (_prepare_general_ideal, _run_polarization),
}


def _worker(args) -> list[CampaignRecord]:
    name, ident, obj, ctx = args
    _, runner = CAMPAIGNS[name]
    ctx = dict(ctx)
    ctx["seed"] = (ctx["seed"] * 1000003 + zlib.crc32(ident.encode())) & 0x7FFFFFFF
    return [
        CampaignRecord(ident, k, data, ok, witness, characteristic=ctx["char"])
        for k, data, ok, witness in runner(obj, ctx)
    ]


def run_campaign(name: str, corpus: Corpus, params: dict | None = None) -> CampaignReport:
    """Run one named campaign over a corpus; see CAMPAIGNS for the names.

    Every campaign is strict: it raises CampaignFailure on the first
    violated identity, in corpus order and also with several jobs,
    unless params["explore"] is true.
    """
    if name not in CAMPAIGNS:
        raise InputError(f"unknown campaign {name!r} (known: {sorted(CAMPAIGNS)})")
    ctx = {
        "char": 2,
        "kmax": None,
        "jobs": 1,
        "seed": 0,
        "explore": False,
    }
    ctx.update(params or {})
    if ctx["kmax"] is not None and ctx["kmax"] < 1:
        raise InputError(f"kmax must be at least 1, got {ctx['kmax']}")
    prepare, _ = CAMPAIGNS[name]
    report = CampaignReport(name, dict(ctx))
    tasks = []
    for item in corpus:
        if ctx.get("limit") is not None and len(tasks) >= ctx["limit"]:
            break
        reason = prepare(item.obj, ctx)
        if reason:
            report.skips.append(SkipRecord(item.ident, reason))
            continue
        tasks.append((name, item.ident, item.obj, ctx))

    def collect(results: Iterator[list[CampaignRecord]]) -> None:
        for records in results:
            for record in records:
                report.records.append(record)
                if not record.ok and not ctx["explore"]:
                    raise CampaignFailure(name, record, report)

    jobs = int(ctx["jobs"] or 1)
    if jobs > 1 and len(tasks) > 1:
        # leaving the with block on a failure terminates the pool's workers
        with get_context("fork").Pool(jobs) as pool:
            collect(pool.imap(_worker, tasks, chunksize=max(1, len(tasks) // (jobs * 8))))
    else:
        collect(map(_worker, tasks))
    return report


def pair_corpus(corpus: Corpus, nmax: int | None = None) -> Corpus:
    """Ordered pairs (with repetition) of corpus elements, for the splitting campaign."""
    items = [
        it
        for it in corpus
        if isinstance(it.obj, Hypergraph)
        and it.obj.edges
        and (nmax is None or it.obj.n <= nmax)
    ]
    out = Corpus()
    for a in items:
        for b in items:
            out.items.append(
                type(a)(
                    f"{a.ident}|{b.ident}",
                    (a.obj, b.obj),
                    (a.provenance[0], a.provenance[1]),
                )
            )
    return out
