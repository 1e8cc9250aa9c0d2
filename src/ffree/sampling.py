"""Seeded, reproducible G(n, p) sampling with monotone coupling.

Randomness comes from numpy's counter-based Philox generator, keyed per
(master seed, purpose tag, trial index), so concurrent trials with disjoint
indices are order-independent and bit-reproducible across platforms.

Edges are decided by comparing a per-pair 64-bit uniform mark against p
rounded to the same 2^-64 grid; keeping the marks fixed while varying p
yields a monotone coupling (edge sets are nested in p).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .graphs import LabeledGraph

if TYPE_CHECKING:
    import numpy as np

_GRID = 1 << 64


class Seed(NamedTuple("Seed", [("master", int)])):
    """Master seed; per-purpose/per-trial streams are derived, never shared."""

    __slots__ = ()

    def __new__(cls, master):
        if not (0 <= master < _GRID):
            raise ValueError("master seed must be a 64-bit nonnegative integer")
        return super().__new__(cls, master)

    def stream(self, purpose: str, index: int = 0) -> np.random.Generator:
        import hashlib
        import numpy as np
        tag = int.from_bytes(hashlib.blake2b(purpose.encode(), digest_size=8).digest(), "big")
        ss = np.random.SeedSequence([self.master, tag, index])
        return np.random.Generator(np.random.Philox(ss))

    @staticmethod
    def parse(text: str) -> "Seed":
        return Seed(int(text, 0))


def _p_to_grid(p: float) -> int:
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability {p} outside [0, 1]")
    return min(_GRID, round(p * _GRID))


class EdgeThresholdTable(NamedTuple):
    """Fixed 64-bit uniform marks, one per pair index."""

    n: int
    u: np.ndarray  # uint64, length n(n-1)/2; treated as immutable

    # equal only to itself: comparing the mark arrays would raise
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @staticmethod
    def generate(n: int, gen: np.random.Generator) -> "EdgeThresholdTable":
        import numpy as np
        if n < 1:
            raise ValueError("n must be positive")
        marks = gen.integers(0, _GRID, size=n * (n - 1) // 2, dtype=np.uint64)
        marks.setflags(write=False)
        return EdgeThresholdTable(n, marks)


def coupled_realize(table: EdgeThresholdTable, p: float) -> LabeledGraph:
    """Graph with edge e present iff mark[e] < p (on the 2^-64 grid)."""
    import numpy as np
    t = _p_to_grid(p)
    if t >= _GRID:
        present = np.ones(table.u.shape, dtype=bool)
    else:
        present = table.u < np.uint64(t)
    return LabeledGraph.from_mask(table.n, present)


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
