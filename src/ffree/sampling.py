"""Seeded, reproducible G(n, p) sampling with monotone coupling.

Randomness comes from numpy's counter-based Philox generator, keyed per
(master seed, purpose tag, trial index), so concurrent trials with disjoint
indices are order-independent and bit-reproducible across platforms.

Edges are decided by comparing a per-pair 64-bit uniform mark against p
rounded to the same 2^-64 grid; keeping the marks fixed while varying p
yields a monotone coupling (edge sets are nested in p).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .graphs import LabeledGraph

if TYPE_CHECKING:
    import numpy as np

_GRID = 1 << 64


@dataclass(frozen=True)
class Seed:
    """Master seed; per-purpose/per-trial streams are derived, never shared."""

    master: int

    def __post_init__(self):
        if not (0 <= self.master < _GRID):
            raise ValueError("master seed must be a 64-bit nonnegative integer")

    def stream(self, purpose: str, index: int = 0) -> np.random.Generator:
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


@dataclass(frozen=True, eq=False)
class EdgeThresholdTable:
    """Fixed 64-bit uniform marks, one per pair index."""

    n: int
    u: np.ndarray  # uint64, length n(n-1)/2; treated as immutable

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
