"""Corpus ingestion: graph6 lines, hypergraph/ideal JSON, random generators."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from itertools import compress
from pathlib import Path
from typing import Iterable, Iterator

from .hypergraphs import MAX_VERTICES, Graph, Hypergraph, InputError
from .ideals import GeneralMonomialIdeal, SquareFreeIdeal, edge_ideal

GRAPH6_HEADER = ">>graph6<<"


# each graph6 character's six bits, high bit first, as bytes 0 and 1
_G6_BITS = {chr(63 + b): bytes(b >> shift & 1 for shift in range(5, -1, -1)) for b in range(64)}


@cache
def _pair_masks(n: int) -> tuple[int, ...]:
    """The vertex pairs i < j of n vertices as masks, in graph6 order (j, then i)."""
    return tuple(1 << i | 1 << j for j in range(1, n) for i in range(j))


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line: n header byte(s), then the upper triangle
    column-major in 6-bit groups offset by 63, zero padded."""
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise InputError("empty graph6 line")
    try:
        bits = b"".join([_G6_BITS[c] for c in s])
    except KeyError:
        raise InputError(f"graph6 byte out of range in {s!r}") from None
    if s[0] == "~":
        if len(s) < 4:
            raise InputError(f"truncated graph6 size header in {s!r}")
        if s[1] == "~":
            raise InputError("graph6 graphs beyond 258047 vertices not supported")
        a, b, c = (ord(ch) - 63 for ch in s[1:4])
        n = a << 12 | b << 6 | c
        head = 4
    else:
        n = ord(s[0]) - 63
        head = 1
    if n > MAX_VERTICES:
        raise InputError(f"graph6 vertex count {n} exceeds {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    if len(s) - head != (nbits + 5) // 6:
        raise InputError(
            f"graph6 body length {len(s) - head} wrong for n={n} in {s!r}"
        )
    bits = bits[6 * head:]
    if any(bits[nbits:]):
        raise InputError(f"graph6 padding bits not zero in {s!r}")
    return Graph(n, list(compress(_pair_masks(n), bits)))


def parse_instance(line: str) -> Hypergraph | SquareFreeIdeal | GeneralMonomialIdeal:
    """One instance: a graph6 line, or a JSON object with an integer "n" and
    "edges" (hypergraph), "gens" (square-free ideal) or "gens_exp" (monomial
    ideal)."""
    s = line.strip()
    if not s.startswith("{"):
        return parse_graph6(s)
    try:
        data = json.loads(s)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid instance JSON: {exc}") from exc
    # a JSON true or false is a Python bool, which is an int too
    if isinstance(data, dict) and type(data.get("n")) is int:
        for key, cls in (
            ("edges", Hypergraph),
            ("gens_exp", GeneralMonomialIdeal),
            ("gens", SquareFreeIdeal),
        ):
            if key in data:
                try:
                    return cls(data["n"], data[key])
                except TypeError as exc:  # e.g. a number where a vertex list belongs
                    raise InputError(f"malformed {key!r} in instance JSON: {exc}") from exc
    raise InputError("instance JSON needs an integer 'n' and 'edges', 'gens' or 'gens_exp'")


@dataclass(frozen=True)
class CorpusItem:
    ident: str
    obj: object


@dataclass
class Corpus:
    """Ordered list of validated instances."""

    items: list[CorpusItem] = field(default_factory=list)

    def __iter__(self) -> Iterator[CorpusItem]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    @classmethod
    def from_objects(cls, objs: Iterable, source: str = "<memory>") -> "Corpus":
        return cls([CorpusItem(f"{source}:{i}", obj) for i, obj in enumerate(objs)])


def _instance_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) of each instance line, lazily: blank
    lines, '#' comments and bare graph6 headers are skipped."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#") and line != GRAPH6_HEADER:
            yield lineno, line


def load_corpus_lines(lines: Iterable[str], source: str) -> Corpus:
    """Parse one instance per instance line (see `_instance_lines`)."""
    return Corpus([
        CorpusItem(f"{source}:{lineno}", parse_instance(line))
        for lineno, line in _instance_lines(lines)
    ])


def _read_lines(path: str | Path) -> Iterator[str]:
    """The lines of a text file, lazily; a file that cannot be read or is
    not UTF-8 raises InputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def load_corpus(path: str | Path) -> Corpus:
    path = Path(path)
    return load_corpus_lines(_read_lines(path), str(path))


def bundled_corpus(name: str) -> Corpus:
    """One of the shipped .g6 catalogs, e.g. 'connected_le7'."""
    ref = resources.files("sqfpow") / "corpora" / f"{name}.g6"
    try:
        text = ref.read_text()
    except (FileNotFoundError, OSError) as exc:
        raise InputError(f"no bundled corpus named {name!r}") from exc
    return load_corpus_lines(text.splitlines(), f"bundled:{name}")


# -- seeded random generators ------------------------------------------------


def random_hypergraph(
    rng: random.Random,
    n_range: tuple[int, int] = (4, 9),
    size_range: tuple[int, int] = (2, 4),
    max_edges: int = 6,
) -> Hypergraph:
    """Random simple hypergraph with mixed edge sizes; antichain enforced."""
    if size_range[0] < 1 or n_range[0] < size_range[0]:
        raise InputError(f"need 1 <= size_range[0] <= n_range[0], got {size_range} and {n_range}")
    n = rng.randint(*n_range)
    target = rng.randint(1, max_edges)
    edges: list[int] = []
    for _ in range(40 * target):
        if len(edges) == target:
            break
        size = rng.randint(size_range[0], min(size_range[1], n))
        mask = 0
        for v in rng.sample(range(n), size):
            mask |= 1 << v
        if any(mask & e in (mask, e) for e in edges):
            continue
        edges.append(mask)
    return Hypergraph(n, edges)


def random_uniform_hypergraph(
    rng: random.Random,
    d: int,
    n_range: tuple[int, int] = (4, 9),
    max_edges: int = 8,
) -> Hypergraph:
    n = rng.randint(max(d, n_range[0]), n_range[1])
    target = rng.randint(1, max_edges)
    edges: set[int] = set()
    for _ in range(40 * target):
        if len(edges) == target:
            break
        mask = 0
        for v in rng.sample(range(n), d):
            mask |= 1 << v
        edges.add(mask)
    return Hypergraph(n, sorted(edges))


def random_disjoint_edge_hypergraph(
    rng: random.Random,
    max_edges: int = 4,
    size_range: tuple[int, int] = (2, 4),
) -> Hypergraph:
    """Pairwise-disjoint edges covering every vertex (so |V| = sum of sizes)."""
    q = rng.randint(1, max_edges)
    sizes = [rng.randint(*size_range) for _ in range(q)]
    n = sum(sizes)
    verts = list(range(n))
    rng.shuffle(verts)
    edges = []
    at = 0
    for s in sizes:
        mask = 0
        for v in verts[at : at + s]:
            mask |= 1 << v
        edges.append(mask)
        at += s
    return Hypergraph(n, edges)


def random_squarefree_ideal(
    rng: random.Random,
    n_range: tuple[int, int] = (3, 8),
    max_gens: int = 6,
    deg_range: tuple[int, int] = (1, 4),
) -> SquareFreeIdeal:
    """Random proper nonzero square-free ideal: the edge ideal of a random hypergraph."""
    return edge_ideal(random_hypergraph(rng, n_range, deg_range, max_gens))


def random_general_ideal(
    rng: random.Random,
    n_range: tuple[int, int] = (2, 5),
    max_gens: int = 4,
    max_exp: int = 2,
) -> GeneralMonomialIdeal:
    """Random monomial ideal with bounded exponents, nonzero and proper."""
    n = rng.randint(*n_range)
    target = rng.randint(1, max_gens)
    gens: list[tuple[int, ...]] = []
    for _ in range(60 * target):
        if len(gens) == target:
            break
        vec = tuple(rng.randint(0, max_exp) for _ in range(n))
        if sum(vec) == 0:
            continue
        gens.append(vec)
    return GeneralMonomialIdeal(n, gens)
