"""Verification campaigns: check the regularity identities on corpora.

A campaign is its ordered gate rows plus a runner. A gate row is
`(holds(obj, ctx), reason)`; the first row that does not hold names the
skip, which the report records with that machine-readable reason. The
runner makes an exact integer check per (instance, k) and either aborts
on the first failure with a full witness dump (strict campaigns; a
violation means an implementation bug and must be loud) or collects all
failures (explore mode).

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
from .betti import _check_characteristic, betti_splitting_check, betti_table, regularity
from .corpus import Corpus, CorpusItem
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
    """reg(I(H)^[k]) over GF(char) for a whole corpus instance H.

    This is the query of `chordal-conjecture`, `block-theorem`,
    `cm-chordal-2`, `lower-bound`, `ci-formula` and the per-k values of
    `restriction`.  `splitting`, `reg-lemmas`, `polarization` and the
    sub-hypergraph queries of `restriction` call `regularity` directly.
    No answer is cached, since over isomorph-free corpora no query
    repeats; what carries over from one k to the next of the same H is
    `sqfree_power`'s kept levels.  The name stays for the benchmark, which
    wraps this function by name to time these queries, and for the tests
    that replace it to break them.
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
        for c in (char, 32003 if char != 32003 else 2):
            witness[f"betti_char{c}"] = sorted(
                (i, j, b) for (i, j), b in betti_table(ideal, c).entries.items()
            )
    return witness


# -- per-campaign instance runners --------------------------------------------


def _k_values(nu: int, kmax) -> list[int]:
    hi = nu if kmax is None else min(nu, int(kmax))
    return list(range(1, hi + 1))


def _run_equality(G: Graph, ctx: dict, ks=None) -> Iterator[tuple]:
    """reg(I(G)^[k]) = aim(G,k) + k at each k of 1..nu capped by kmax (and in ks, if given)."""
    char = ctx["char"]
    prof = aim_profile(G)
    for k in _k_values(len(prof), ctx.get("kmax")):
        if ks is not None and k not in ks:
            continue
        reg = reg_power_cached(G, k, char)
        a = prof[k - 1]
        ok = reg == a + k
        witness = None if ok else _failure_witness(G, k, char, {"aim": a})
        yield k, {"reg": reg, "aim": a, "expected": a + k}, ok, witness


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
        witness = None if ok else _failure_witness(H, k, char, {"expected": expected})
        yield k, {"reg": reg, "expected": expected, "V": covered, "E": q}, ok, witness


def _run_splitting(pair: tuple, ctx: dict) -> Iterator[tuple]:
    H1, H2 = pair
    char = ctx["char"]
    nu1 = matching_number(H1)
    nu2 = matching_number(H2)
    union = disjoint_union(H1, H2)
    rj = None  # reg of the top slice I(H1)^[nu1], the same for every k
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
            if rj is None:
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


def _aim_deletions(G: Graph) -> Iterator[tuple[str, dict, int, int]]:
    """(rule, detail, deleted mask, shift) for every deletion the aim rules cover.

    Each rule claims aim(G - D, k - shift) <= aim(G, k) - 1 for every k
    from 1 + shift to nu(G).
    """
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
                yield "pendant-deletion", {"deleted": [u]}, 1 << u, 1
                other = next((w for w in bverts if w != u), None)
                if other is not None:
                    yield "pendant-deletion", {"deleted": [u, other]}, 1 << u | 1 << other, 1
            # two distinct free vertices in the block
            fv = vertices_of(blk & free)
            if len(fv) >= 2:
                u1, u2 = fv[0], fv[1]
                yield "free-pair-deletion", {"deleted": [u1, u2]}, 1 << u1 | 1 << u2, 1
                yield "block-deletion", {"deleted": list(bverts)}, blk, 0
    # closed-neighborhood deletion: N[y] inside N[x] lets {x,y} extend any witness
    for x in range(G.n):
        closed_x = G.adj[x] | (1 << x)
        for y in vertices_of(G.adj[x]):
            closed_y = G.adj[y] | (1 << y)
            if not closed_y & ~closed_x:
                yield "closed-neighborhood-deletion", {"x": x, "y": y}, closed_x, 0


def _run_aim_deletion(G: Graph, ctx: dict) -> Iterator[tuple]:
    prof = aim_profile(G)
    profiles: dict[int, list[int]] = {}
    checked = 0
    for rule, detail, delmask, shift in _aim_deletions(G):
        if delmask not in profiles:
            profiles[delmask] = aim_profile(G.remove_vertices(delmask))
        sub = profiles[delmask]
        for k in range(1 + shift, len(prof) + 1):
            checked += 1
            aim_h = sub[min(k - shift, len(sub)) - 1] if sub else 0
            if aim_h > prof[k - 1] - 1:
                detail = {**detail, "k": k, "aim_H": aim_h, "aim_G": prof[k - 1]}
                witness = {"edges": [list(vertices_of(e)) for e in G.edges], **detail}
                yield None, {"rule": rule, **detail}, False, witness
                return
    yield None, {"checks": checked}, True, None


def _run_reg_lemmas(item, ctx: dict) -> Iterator[tuple]:
    char = ctx["char"]
    I, *rest = item if isinstance(item, tuple) else (item,)
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
    if ok and rest:
        (J,) = rest
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
    if H.n <= 7:
        subsets = range(full + 1)
    else:
        subsets = sorted({rng.randrange(full + 1) for _ in range(64)})
    regs = {k: reg_power_cached(H, k, char) for k in ks}
    checked = 0
    for w in subsets:
        sub = induced_sub(H, w)
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
    # one hypergraph for every k, so sqfree_power's kept levels serve the next k
    P = polarize(I, caps).hypergraph()
    kmax = 3 if ctx.get("kmax") is None else ctx["kmax"]
    for k in range(1, kmax + 1):
        lhs = polarize(matching_power_general(I, k), caps)
        rhs = sqfree_power(P, k)
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


def _gates(*rows) -> Callable:
    """A prepare from ordered (holds(obj, ctx), reason) rows: the reason of
    the first row that does not hold, or None when every row holds."""

    def prepare(obj, ctx):
        for holds, reason in rows:
            if not holds(obj, ctx):
                return reason
        return None

    return prepare


def _each(prepare: Callable) -> Callable:
    """A prepare for a tuple (a lone object is a 1-tuple): the first
    member's skip reason, or None."""

    def each(obj, ctx):
        for member in obj if isinstance(obj, tuple) else (obj,):
            reason = prepare(member, ctx)
            if reason:
                return reason
        return None

    return each


# Rows look their predicates up when they run, so a replaced module
# attribute (a tracer's wrapper, a test's double) is what they call.
_NMAX = (lambda obj, ctx: ctx.get("nmax") is None or obj.n <= ctx["nmax"], "over-nmax")
_GRAPH = (  # the first rows of every graph campaign
    (lambda obj, ctx: isinstance(obj, Graph), "not-a-graph"),
    _NMAX,
    (lambda G, ctx: not ctx.get("connected") or G.is_connected(), "not-connected"),
)
_HYPERGRAPH = (lambda obj, ctx: isinstance(obj, Hypergraph), "not-a-hypergraph")
_EDGES = (lambda H, ctx: H.edges, "no-edges")
_CHORDAL = (lambda G, ctx: graphclasses.is_chordal(G)[0], "not-chordal")
_BLOCK = (lambda G, ctx: graphclasses.is_block_graph(G), "not-block-graph")
_CM = (lambda G, ctx: graphclasses.cm_clique_partition(G) is not None, "not-cm-chordal")
# a part N[v] of the CM partition is a singleton exactly when v is isolated
_NO_SINGLETON = (lambda G, ctx: all(G.adj), "partition-has-singleton")
_NU2 = (lambda G, ctx: matching_number(G) >= 2, "nu<2")
# the edges are pairwise disjoint exactly when their sizes add up to |V(H)|
_DISJOINT = (
    lambda H, ctx: sum(e.bit_count() for e in H.edges) == H.covered().bit_count(),
    "not-disjoint-edges",
)
_SQUAREFREE = (lambda I, ctx: isinstance(I, SquareFreeIdeal), "not-a-squarefree-ideal")
_MONOMIAL = (lambda I, ctx: isinstance(I, GeneralMonomialIdeal), "not-a-monomial-ideal")
_PROPER = (lambda I, ctx: not (I.is_zero() or I.is_unit()), "zero-or-unit")
_pair = _gates((lambda obj, ctx: isinstance(obj, tuple) and len(obj) == 2, "not-a-pair"))
_pair_member = _gates(_HYPERGRAPH, _EDGES, _NMAX)  # no-edges before over-nmax
_pair_members = _each(_pair_member)
_reg_members = _each(_gates(_SQUAREFREE, _PROPER))
# checked after the members, so a tuple's member reasons come first
_one_or_two = _gates(
    (lambda obj, ctx: not isinstance(obj, tuple) or 1 <= len(obj) <= 2, "not-one-or-two-ideals")
)

CAMPAIGNS: dict[str, tuple[Callable, Callable]] = {
    "chordal-conjecture": (_gates(*_GRAPH, _CHORDAL, _EDGES), _run_equality),
    "block-theorem": (_gates(*_GRAPH, _BLOCK, _EDGES), _run_equality),
    # k = 2 only, and none under --kmax 1
    "cm-chordal-2": (_gates(*_GRAPH, _CM, _NU2), lambda G, ctx: _run_equality(G, ctx, (2,))),
    "lower-bound": (_gates(_HYPERGRAPH, _NMAX, _EDGES), _run_lower_bound),
    "ci-formula": (_gates(_HYPERGRAPH, _NMAX, _EDGES, _DISJOINT), _run_ci_formula),
    "splitting": (lambda obj, ctx: _pair(obj, ctx) or _pair_members(obj, ctx), _run_splitting),
    "colon-weakly-chordal": (_gates(*_GRAPH, _CHORDAL, _EDGES), _run_colon_weakly_chordal),
    "nu1-lemmas": (_gates(*_GRAPH, _CM, _NO_SINGLETON, _NU2), _run_nu1_lemmas),
    "aim-deletion": (_gates(*_GRAPH), _run_aim_deletion),
    "reg-lemmas": (lambda obj, ctx: _reg_members(obj, ctx) or _one_or_two(obj, ctx), _run_reg_lemmas),
    "restriction": (_gates(_HYPERGRAPH, _NMAX, _EDGES), _run_restriction),
    "polarization": (_gates(_MONOMIAL, _PROPER), _run_polarization),
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
    for key in ("kmax", "limit", "jobs"):
        if ctx.get(key) is not None and ctx[key] < 1:
            raise InputError(f"{key} must be at least 1, got {ctx[key]}")
    _check_characteristic(ctx["char"])
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

    jobs = int(ctx["jobs"])
    if jobs > 1 and len(tasks) > 1:
        # leaving the with block on a failure terminates the pool's workers
        with get_context("fork").Pool(jobs) as pool:
            collect(pool.imap(_worker, tasks, chunksize=max(1, len(tasks) // (jobs * 8))))
    else:
        collect(map(_worker, tasks))
    return report


def pair_corpus(corpus: Corpus, nmax: int | None = None) -> Corpus:
    """Ordered pairs (with repetition) of the corpus elements that pass the
    gates of a `splitting` pair member."""
    items = [it for it in corpus if _pair_member(it.obj, {"nmax": nmax}) is None]
    return Corpus(
        [CorpusItem(f"{a.ident}|{b.ident}", (a.obj, b.obj)) for a in items for b in items]
    )
