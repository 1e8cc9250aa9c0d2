"""Canonical small pattern graphs and labeled graphs on [n].

Two representations are used throughout the project:

* :class:`PatternGraph` -- a small unlabeled simple graph (the forbidden
  graph F or its densest piece J), stored as a sorted edge list plus an
  explicit vertex count (isolated vertices matter for densities).
* :class:`LabeledGraph` -- a graph on vertex set {0, ..., n-1}, stored as a
  bit vector over the n(n-1)/2 unordered pairs in colexicographic order.

The pair index convention is fixed project-wide: pair (u, v) with u < v has
index v(v-1)/2 + u.  Everything that serializes edge ids relies on it; only
this module decodes pair ids.  Other modules pack ids into bits, and the hot
loops of sampling and subiso compute ids inline instead of calling pair_index.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple


class PatternParseError(ValueError):
    """Malformed pattern text; the message names the offending token position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at token position {position})"
        super().__init__(message)


def pair_index(u: int, v: int, n: int) -> int:
    """Colexicographic index of the unordered pair {u, v}, 0 <= u < v < n."""
    if not (0 <= u < v < n):
        raise ValueError(f"invalid pair ({u}, {v}) for n={n}: need 0 <= u < v < n")
    return v * (v - 1) // 2 + u


def pair_endpoints(ids) -> tuple[list[int], list[int]]:
    """Inverse of :func:`pair_index` over a sequence of pair indices:
    (u of each pair, v of each pair)."""
    isqrt = math.isqrt
    # 8k + 1 = (2v - 1)^2 + 8u with 0 <= u < v, so isqrt(8k + 1) is 2v - 1 or 2v
    vs = [(isqrt(8 * k + 1) + 1) >> 1 for k in ids]
    return [k - (v * (v - 1) >> 1) for k, v in zip(ids, vs)], vs


class PatternGraph(NamedTuple("PatternGraph", [("vertex_count", int),
                                                ("edges", tuple[tuple[int, int], ...])])):
    """Simple unlabeled graph on vertices 0..vertex_count-1."""

    __slots__ = ()

    def __new__(cls, vertex_count, edges):
        if vertex_count < 1:
            raise ValueError("pattern must have at least one vertex")
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop {u}-{v}")
            if not (0 <= u < v):
                raise ValueError(f"edge ({u}, {v}) not in canonical u < v form")
            if v >= vertex_count:
                raise ValueError(f"edge endpoint {v} >= vertex_count {vertex_count}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge {u}-{v}")
            seen.add((u, v))
        if tuple(sorted(edges)) != edges:
            raise ValueError("edges must be sorted")
        return super().__new__(cls, vertex_count, edges)

    @staticmethod
    def from_edges(edges, vertex_count: int | None = None) -> "PatternGraph":
        canon = sorted({(min(u, v), max(u, v)) for u, v in edges})
        top = max((v for _, v in canon), default=-1) + 1
        if vertex_count is None:
            vertex_count = top
        elif vertex_count < top:
            raise ValueError(f"vertex_count {vertex_count} smaller than max endpoint + 1 = {top}")
        return PatternGraph(vertex_count, tuple(canon))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def induced(self, subset) -> "PatternGraph":
        """Induced subgraph on `subset`, relabeled 0..|subset|-1 order-preservingly."""
        vs = sorted(set(subset))
        for x in vs:
            if not (0 <= x < self.vertex_count):
                raise ValueError(f"vertex {x} not in pattern with {self.vertex_count} vertices")
        relabel = {x: i for i, x in enumerate(vs)}
        keep = [(relabel[u], relabel[v]) for u, v in self.edges if u in relabel and v in relabel]
        return PatternGraph.from_edges(keep, vertex_count=len(vs))

    def drop_isolated(self) -> "PatternGraph":
        deg = self.degrees()
        return self.induced([v for v in range(self.vertex_count) if deg[v] > 0])

    def to_text(self) -> str:
        body = " ".join(f"{u}-{v}" for u, v in self.edges)
        top = max((v for _, v in self.edges), default=-1) + 1
        if self.vertex_count != top:
            return f"n={self.vertex_count} {body}".strip()
        return body


def _cycle(k: int) -> PatternGraph:
    return PatternGraph.from_edges([(i, (i + 1) % k) for i in range(k)])


def _path(k: int) -> PatternGraph:
    return PatternGraph.from_edges([(i, i + 1) for i in range(k - 1)])


def _complete(k: int) -> PatternGraph:
    return PatternGraph.from_edges([(i, j) for j in range(k) for i in range(j)])


PRESETS: dict[str, PatternGraph] = {
    "triangle": _complete(3),
    "K4": _complete(4),
    "K5": _complete(5),
    "C4": _cycle(4),
    "C5": _cycle(5),
    "P3": _path(3),
    "P4": _path(4),
    "petersen": PatternGraph.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
         (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
         (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    ),
}

_EDGE_TOKEN = re.compile(r"^(\d+)-(\d+)$")
_N_TOKEN = re.compile(r"^n=(\d+)$")


def parse_pattern(text: str) -> PatternGraph:
    """Parse pattern grammar: optional ``n=<k>``, then ``u-v`` tokens.

    Preset names (triangle, K4, ...) are accepted anywhere a pattern is
    expected.  Tokens may be separated by whitespace or commas.
    """
    stripped = text.strip()
    if stripped in PRESETS:
        return PRESETS[stripped]
    tokens = [t for t in re.split(r"[,\s]+", stripped) if t]
    if not tokens:
        raise PatternParseError("empty pattern text")
    n_override = None
    edges = []
    for i, tok in enumerate(tokens):
        m = _N_TOKEN.match(tok)
        if m:
            if i != 0:
                raise PatternParseError("n= token only allowed first", i)
            n_override = int(m.group(1))
            continue
        m = _EDGE_TOKEN.match(tok)
        if not m:
            raise PatternParseError(f"malformed token {tok!r}", i)
        u, v = int(m.group(1)), int(m.group(2))
        if u == v:
            raise PatternParseError(f"self-loop {tok!r}", i)
        edges.append((min(u, v), max(u, v)))
    top = max((v for _, v in edges), default=-1) + 1
    if n_override is not None and n_override < top:
        raise PatternParseError(f"n={n_override} smaller than max endpoint + 1 = {top}")
    return PatternGraph.from_edges(edges, vertex_count=n_override)


class LabeledGraph(NamedTuple("LabeledGraph", [("n", int), ("bits", int)])):
    """Graph on [n] as a bit vector (stored in one int) over pair indices."""

    __slots__ = ()

    def __new__(cls, n, bits):
        if n < 1:
            raise ValueError("n must be positive")
        if bits < 0 or bits >> (n * (n - 1) // 2):
            raise ValueError("edge bits out of range for n")
        return super().__new__(cls, n, bits)

    @staticmethod
    def empty(n: int) -> "LabeledGraph":
        return LabeledGraph(n, 0)

    @staticmethod
    def complete(n: int) -> "LabeledGraph":
        return LabeledGraph(n, (1 << (n * (n - 1) // 2)) - 1)

    @staticmethod
    def from_edges(n: int, edges) -> "LabeledGraph":
        return LabeledGraph.from_ids(n, [pair_index(min(u, v), max(u, v), n) for u, v in edges])

    @staticmethod
    def from_ids(n: int, ids) -> "LabeledGraph":
        """Graph whose edges are the given pair indices (repeats allowed)."""
        raw = bytearray((n * (n - 1) // 2 + 7) // 8)
        for k in ids:
            raw[k >> 3] |= 1 << (k & 7)
        return LabeledGraph(n, int.from_bytes(raw, "little"))

    @property
    def pair_count(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.pair_count) - 1

    @property
    def edge_count(self) -> int:
        return self.bits.bit_count()

    def edge_ids(self) -> list[int]:
        """Pair indices of the edges, increasing."""
        text = format(self.bits, "b")[::-1]   # text[k] is bit k
        ids, k = [], text.find("1")
        while k >= 0:
            ids.append(k)
            k = text.find("1", k + 1)
        return ids

    def edges(self) -> list[tuple[int, int]]:
        return list(zip(*pair_endpoints(self.edge_ids())))

    def complement(self) -> "LabeledGraph":
        return LabeledGraph(self.n, self.bits ^ self.full_mask)

    def adjacency_masks(self) -> list[int]:
        """Neighbor bitmasks (over vertices) for each vertex."""
        adj = [0] * self.n
        for u, v in self.edges():
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return adj

