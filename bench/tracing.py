"""Spans around calls into sqfpow's public functions, and the per-layer
metrics read from them.

The wrappers are installed from here, never from the package: every
sqfpow module attribute that holds a wrapped function is pointed at the
wrapper, so calls made through `from .admissible import aim_profile`
are seen too.  A function missing from its module drops the metrics of
its layer; the run goes on.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter
from types import FunctionType

from reference import closed_set_count

# layer -> (module, public functions wrapped)
LAYERS = {
    "corpus": ("sqfpow.corpus", ("bundled_corpus", "load_corpus")),
    "graphclasses": ("sqfpow.graphclasses", ("is_chordal", "is_block_graph", "cm_clique_partition")),
    "hypergraphs": ("sqfpow.hypergraphs", ("matching_number", "induced_matching_number")),
    "admissible": ("sqfpow.admissible", ("aim_profile", "lower_bound")),
    "ideals": ("sqfpow.ideals", ("sqfree_power",)),
    "betti": ("sqfpow.betti", ("regularity", "betti_table")),
    "campaigns": ("sqfpow.campaigns", ("run_campaign",)),
}

# span name -> what a call contributes to its layer's count; kept cheap,
# or deferred to the end of the run (closed sets), so spans stay honest
PAYLOADS = {
    "corpus.bundled_corpus": lambda args, result: len(result),
    "corpus.load_corpus": lambda args, result: len(result),
    "ideals.sqfree_power": lambda args, result: len(result.gens),
    "betti.regularity": lambda args, result: (args[0].n, args[0].gens),
    "betti.betti_table": lambda args, result: (args[0].n, args[0].gens),
    "campaigns.run_campaign": lambda args, result: len(result.records),
}


class Tracer:
    """Spans (name, start, end, parent index, payload) of one pass, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        payload_of = PAYLOADS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, perf_counter(), None, self._stack[-1] if self._stack else None, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if payload_of is not None:
                span[4] = payload_of(args, result)
            return result

        return traced


def install(tracer: Tracer) -> tuple[list, set[str]]:
    """Wrap every layer's functions; returns (undo list, layers left out)."""
    undo = []
    missing = set()
    for layer, (modname, names) in LAYERS.items():
        try:
            module = importlib.import_module(modname)
        except ImportError:
            missing.add(layer)
            continue
        fns = {name: getattr(module, name, None) for name in names}
        if any(fn is None for fn in fns.values()):
            missing.add(layer)
            continue
        wrappers = {fn: tracer.wrap(fn, f"{layer}.{name}") for name, fn in fns.items()}
        for mod in list(sys.modules.values()):
            owner = getattr(mod, "__name__", "")
            if owner != "sqfpow" and not owner.startswith("sqfpow."):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, FunctionType) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    undo.append((mod, attr, value))
    return undo, missing


def uninstall(undo: list) -> None:
    for mod, attr, value in reversed(undo):
        setattr(mod, attr, value)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_metrics(spans: list[list], missing: set[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times are self times)."""
    own = self_times(spans)

    def total(prefix: str) -> float:
        return sum(t for span, t in zip(spans, own) if span[0].startswith(prefix))

    def calls(prefix: str) -> int:
        return sum(1 for span in spans if span[0].startswith(prefix))

    def payload(name: str) -> int:
        return sum(span[4] for span in spans if span[0] == name and span[4] is not None)

    closed_cache: dict = {}

    def closed_sets() -> int:
        count = 0
        for span in spans:
            if span[0].startswith("betti.") and span[4] is not None:
                if span[4] not in closed_cache:
                    closed_cache[span[4]] = closed_set_count(*span[4])
                count += closed_cache[span[4]]
        return count

    metrics = {
        "corpus": lambda: {
            "corpus.parse_s": total("corpus."),
            "corpus.items": payload("corpus.bundled_corpus") + payload("corpus.load_corpus"),
        },
        "graphclasses": lambda: {
            "graphclasses.predicate_s": total("graphclasses."),
            "graphclasses.calls": calls("graphclasses."),
        },
        "hypergraphs": lambda: {
            "hypergraphs.matching_s": total("hypergraphs."),
            "hypergraphs.calls": calls("hypergraphs."),
        },
        "admissible": lambda: {
            "admissible.aim_profile_s": total("admissible.aim_profile"),
            "admissible.lower_bound_s": total("admissible.lower_bound"),
            "admissible.calls": calls("admissible."),
        },
        "ideals": lambda: {
            "ideals.sqfree_power_s": total("ideals.sqfree_power"),
            "ideals.gens": payload("ideals.sqfree_power"),
        },
        "betti": lambda: {
            "betti.regularity_s": total("betti.regularity"),
            "betti.betti_table_s": total("betti.betti_table"),
            "betti.calls": calls("betti."),
            "betti.closed_sets": closed_sets(),
        },
        "campaigns": lambda: {
            "campaigns.self_s": total("campaigns."),
            "campaigns.records": payload("campaigns.run_campaign"),
        },
    }
    out: dict[str, float] = {}
    for layer, compute in metrics.items():
        if layer not in missing:
            out.update(compute())
    return out
