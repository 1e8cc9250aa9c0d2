"""Seeded, reproducible G(n, p) sampling with monotone coupling.

Randomness comes from Python's Mersenne Twister, `random.Random`, seeded per
(master seed, purpose tag, trial index) by a blake2b digest, so trials with
disjoint indices are order-independent and reproducible.  Only its `random()`
sequence, which Python documents as stable across versions, is read; marks
also go through the C library's log and expm1.

Every pair of [n] gets a uniform mark on the 2^-64 grid, and edge e is present
iff its mark is below p rounded to the same grid; keeping the marks fixed while
varying p yields a monotone coupling (edge sets are nested in p).  A table is
its arrival stream: the pairs in increasing mark order, drawn only as far as a
call reads them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

from .graphs import LabeledGraph, pair_endpoints

if TYPE_CHECKING:
    import random

_GRID = 1 << 64
# bytes an arrival holds once drawn, its mark and pair id in two lists and a set
# (118 measured at n = 2000), and its id in the slice that a realization reads
_ARRIVAL_BYTES = 128
# bytes per pair of [n] in a realization at p > 0: the bit text and its
# reverse that LabeledGraph.edge_ids reads (2.14 measured at n = 20000, p = 1/n)
_PAIR_BYTES = 2.2


class Seed(NamedTuple("Seed", [("master", int)])):
    """Master seed; per-purpose/per-trial streams are derived, never shared."""

    __slots__ = ()

    def __new__(cls, master):
        if not (0 <= master < _GRID):
            raise ValueError("master seed must be a 64-bit nonnegative integer")
        return super().__new__(cls, master)

    def stream(self, purpose: str, index: int = 0) -> random.Random:
        import hashlib
        import random
        key = hashlib.blake2b(f"{self.master}/{index}/{purpose}".encode(), digest_size=16)
        return random.Random(int.from_bytes(key.digest(), "big"))

    @staticmethod
    def parse(text: str) -> "Seed":
        return Seed(int(text, 0))


def _p_to_grid(p: float) -> int:
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability {p} outside [0, 1]")
    return min(_GRID, round(p * _GRID))


def _memory_bytes() -> int | None:
    """Physical memory of this machine, None where the OS does not say."""
    import os
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


class EdgeThresholdTable:
    """The pairs of [n] in increasing order of their uniform 64-bit marks.

    `marks` and `ids` hold the arrivals drawn so far, each a (mark, pair id),
    and more are drawn from `gen` only when a reader needs them.  Given k
    arrivals, the other N - k marks are iid uniform above the k-th, so the
    next mark is U_(k+1) = 1 - (1 - U_(k)) * V^(1/(N-k)) for a uniform V,
    kept as log(1 - U) so that small marks keep their relative precision, and
    the next pair is uniform among those not drawn: two distinct uniform
    vertices, drawn again while their pair is taken.  The law is that of N
    independent marks, except that equal marks may tie.  Equal only to itself.
    """

    __slots__ = ("n", "marks", "ids", "_gen", "_drawn", "_log_s")

    def __init__(self, n: int, gen: random.Random):
        if n < 1:
            raise ValueError("n must be positive")
        self.n, self._gen = n, gen
        self.marks: list[int] = []
        self.ids: list[int] = []
        self._drawn: set[int] = set()
        self._log_s = 0.0   # log(1 - U) of the last mark drawn

    @staticmethod
    def generate(n: int, gen: random.Random) -> "EdgeThresholdTable":
        return EdgeThresholdTable(n, gen)

    def _draws(self):
        """Draw the next arrivals one at a time as they are read, yielding the
        endpoints (u, v), u < v, of each; one reader at a time."""
        n, marks, ids, drawn, log_s = self.n, self.marks, self.ids, self._drawn, self._log_s
        add, add_id, add_mark = drawn.add, ids.append, marks.append
        rand, log, expm1, grid, scale = self._gen.random, math.log, math.expm1, _GRID, float(_GRID)
        last = marks[-1] if marks else 0
        for left in range(n * (n - 1) // 2 - len(ids), 0, -1):
            # 1 - random() is uniform on (0, 1]
            log_s += log(1.0 - rand()) / left
            mark = int(-expm1(log_s) * scale)
            if not last <= mark < grid:   # a libm rounding must not reorder arrivals
                mark = min(max(mark, last), grid - 1)
            while True:
                u, v = int(rand() * n), int(rand() * n)
                if u > v:
                    u, v = v, u
                k = v * (v - 1) // 2 + u
                if u != v and k not in drawn:
                    break
            add(k)
            add_id(k)
            add_mark(mark)
            last = mark
            self._log_s = log_s   # before the yield: a reader may stop here and resume later
            yield u, v

    def arrival_pairs(self):
        """Endpoints (u, v) of every arrival in mark order: those drawn, then
        new ones as they are read."""
        return chain(zip(*pair_endpoints(self.ids)), self._draws())

    def count_below(self, t: int) -> int:
        """Number of arrivals with mark < t, drawing every such arrival first."""
        marks = self.marks
        if not marks or marks[-1] < t:
            for _ in self._draws():
                if marks[-1] >= t:
                    break
        return bisect_left(marks, t)


def coupled_realize(table: EdgeThresholdTable, p: float) -> LabeledGraph:
    """Graph with edge e present iff mark[e] < p (2^-64 grid), drawing nothing at p = 0;
    MemoryError, before any draw, if its arrivals and edge_ids' bit text outgrow memory."""
    t = _p_to_grid(p)
    if not t:
        return LabeledGraph.empty(table.n)
    pairs, marks = table.n * (table.n - 1) // 2, table.marks
    last = marks[-1] if marks else 0
    need = (max(0, (pairs - len(marks)) * (t - last) / (_GRID - last)) * _ARRIVAL_BYTES
            + pairs * _PAIR_BYTES)
    memory = _memory_bytes()
    if memory is not None and need > memory:
        raise MemoryError(f"drawing the edges of a G({table.n}, p) sample needs "
                          f"~{need / 2**30:.3g} GiB, more than this machine's "
                          f"{memory / 2**30:.3g} GiB")
    if t >= _GRID:
        return LabeledGraph.complete(table.n)
    return LabeledGraph.from_ids(table.n, table.ids[:table.count_below(t)])


def sample_gnp(n: int, p: float, seed: Seed, purpose: str = "gnp", index: int = 0) -> LabeledGraph:
    """G(n, p) sample; deterministic given (seed, purpose, index)."""
    table = EdgeThresholdTable.generate(n, seed.stream(purpose, index))
    return coupled_realize(table, p)


def chernoff_tail_bound(n_draws: int, p: float) -> float:
    """Upper bound exp(-Np/8) on Pr(Bin(N, p) <= Np/2)."""
    if n_draws < 0:
        raise ValueError("N must be nonnegative")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability {p} outside [0, 1]")
    return math.exp(-n_draws * p / 8.0)
