"""Exact rational graph densities.

For a pattern F:

* m(F)  = max over subgraphs J with v_J >= 1 of e_J / v_J
* m2(F) = max over subgraphs J with v_J >= 3 of (e_J - 1) / (v_J - 2)

Both maxima are attained by induced subgraphs (at a fixed vertex set, adding
every available edge only increases the ratio), so enumeration runs over the
2^{v_F} vertex subsets.  One cached search serves m, m2 and both witnesses.
All arithmetic is exact via fractions.Fraction, imported on first use, so
importing the module does not load it.
"""

from __future__ import annotations

import functools
from itertools import combinations
from typing import TYPE_CHECKING, NamedTuple

from .graphs import PatternGraph

if TYPE_CHECKING:
    from fractions import Fraction

MAX_PATTERN_VERTICES = 16


class UndefinedDensityError(ValueError):
    pass


@functools.lru_cache(maxsize=128)   # two keys a pattern; the alteration layer reads m2 per trial
def _best_subset(f: PatternGraph, min_vertices: int, shift: int) -> tuple[Fraction, PatternGraph]:
    """(max of (e_S - [shift>0]) / (|S| - shift) over |S| >= min_vertices,
    the subgraph induced on the first S attaining it).

    shift = 0 gives m, shift = 2 gives m2.  Ties broken toward smaller
    subsets, then lexicographically smaller vertex sets, so witnesses are
    deterministic.
    """
    if f.vertex_count > MAX_PATTERN_VERTICES:
        raise ValueError(f"pattern too large: {f.vertex_count} > {MAX_PATTERN_VERTICES} vertices")
    from fractions import Fraction
    best: Fraction | None = None
    best_vertices: tuple[int, ...] = ()
    # iterate by cardinality so the smallest achieving subset wins ties
    for size in range(min_vertices, f.vertex_count + 1):
        for subset in combinations(range(f.vertex_count), size):
            inside = set(subset)
            e = sum(1 for u, v in f.edges if u in inside and v in inside)
            val = Fraction(e - (1 if shift else 0), size - shift)
            if best is None or val > best:
                best, best_vertices = val, subset
    return best, f.induced(best_vertices)


def m_density(f: PatternGraph) -> Fraction:
    """Exact m(F) = max e_J / v_J over nonempty subgraphs."""
    return _best_subset(f, 1, 0)[0]


def m2_density(f: PatternGraph) -> Fraction:
    """Exact m2(F) = max (e_J - 1) / (v_J - 2) over subgraphs with v_J >= 3."""
    if f.vertex_count < 3:
        raise UndefinedDensityError("m2(F) undefined: no subgraph on >= 3 vertices")
    return _best_subset(f, 3, 2)[0]


def minimal_m2_subgraph(f: PatternGraph) -> PatternGraph:
    """Smallest induced subgraph J (isolated vertices dropped) with m2(J) = m2(F).

    Requires a vertex of degree >= 2, which guarantees e_J >= 2 for the
    witness.  Among ties the minimum-cardinality, lexicographically smallest
    vertex subset wins.
    """
    if f.vertex_count < 3 or f.max_degree() < 2:
        raise UndefinedDensityError("minimal m2 subgraph needs v_F >= 3 and max degree >= 2")
    return _best_subset(f, 3, 2)[1].drop_isolated()


class DensityReport(NamedTuple):
    m: Fraction
    m2: Fraction | None
    witness_m: PatternGraph
    witness_m2: PatternGraph | None
    gap_holds: bool


def density_gap_check(f: PatternGraph) -> DensityReport:
    """Report m, m2 (if defined), their witnesses, and whether m2 > m."""
    m, witness = _best_subset(f, 1, 0)
    if f.vertex_count < 3:
        return DensityReport(m, None, witness, None, False)
    m2, witness2 = _best_subset(f, 3, 2)
    return DensityReport(m, m2, witness, witness2, m2 > m)
