"""Exact rational graph densities.

For a pattern F:

* m(F)  = max over subgraphs J with v_J >= 1 of e_J / v_J
* m2(F) = max over subgraphs J with v_J >= 3 of (e_J - 1) / (v_J - 2)

Both maxima are attained by induced subgraphs (at a fixed vertex set, adding
every available edge only increases the ratio), so enumeration runs over the
2^{v_F} vertex subsets.  All arithmetic is exact via fractions.Fraction,
imported on first use, so importing the module does not load it.
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


def _check_size(f: PatternGraph):
    if f.vertex_count > MAX_PATTERN_VERTICES:
        raise ValueError(f"pattern too large: {f.vertex_count} > {MAX_PATTERN_VERTICES} vertices")


def _induced_edge_count(f: PatternGraph, subset_mask: int) -> int:
    return sum(1 for u, v in f.edges if subset_mask >> u & 1 and subset_mask >> v & 1)


def _induced_on(f: PatternGraph, mask: int) -> PatternGraph:
    return f.induced([v for v in range(f.vertex_count) if mask >> v & 1])


def _best_subset(f: PatternGraph, min_vertices: int, shift: int):
    """Max of (e - [shift>0]) / (|S| - shift) over |S| >= min_vertices.

    shift = 0 gives m, shift = 2 gives m2.  Ties broken toward smaller
    subsets, then lexicographically smaller vertex sets, so witnesses are
    deterministic.
    """
    from fractions import Fraction
    nv = f.vertex_count
    best: Fraction | None = None
    best_mask = None
    # iterate by cardinality so the smallest achieving subset wins ties
    for size in range(min_vertices, nv + 1):
        for combo in combinations(range(nv), size):
            mask = 0
            for v in combo:
                mask |= 1 << v
            e = _induced_edge_count(f, mask)
            val = Fraction(e - (1 if shift else 0), size - shift)
            if best is None or val > best:
                best, best_mask = val, mask
    return best, best_mask


def _m(f: PatternGraph):
    """(m(F), vertex mask of its witness)."""
    _check_size(f)
    return _best_subset(f, 1, 0)


@functools.lru_cache(maxsize=64)   # the alteration layer asks on every trial
def _m2(f: PatternGraph):
    """(m2(F), vertex mask of its witness), for v_F >= 3."""
    _check_size(f)
    return _best_subset(f, 3, 2)


def m_density(f: PatternGraph) -> Fraction:
    """Exact m(F) = max e_J / v_J over nonempty subgraphs."""
    return _m(f)[0]


def m2_density(f: PatternGraph) -> Fraction:
    """Exact m2(F) = max (e_J - 1) / (v_J - 2) over subgraphs with v_J >= 3."""
    if f.vertex_count < 3:
        raise UndefinedDensityError("m2(F) undefined: no subgraph on >= 3 vertices")
    return _m2(f)[0]


def minimal_m2_subgraph(f: PatternGraph) -> PatternGraph:
    """Smallest induced subgraph J (isolated vertices dropped) with m2(J) = m2(F).

    Requires a vertex of degree >= 2, which guarantees e_J >= 2 for the
    witness.  Among ties the minimum-cardinality, lexicographically smallest
    vertex subset wins.
    """
    if f.vertex_count < 3 or f.max_degree() < 2:
        raise UndefinedDensityError("minimal m2 subgraph needs v_F >= 3 and max degree >= 2")
    return _induced_on(f, _m2(f)[1]).drop_isolated()


class DensityReport(NamedTuple):
    m: Fraction
    m2: Fraction | None
    witness_m: PatternGraph
    witness_m2: PatternGraph | None
    gap_holds: bool


def density_gap_check(f: PatternGraph) -> DensityReport:
    """Report m, m2 (if defined), their witnesses, and whether m2 > m."""
    m, mask = _m(f)
    if f.vertex_count < 3:
        return DensityReport(m, None, _induced_on(f, mask), None, False)
    m2, mask2 = _m2(f)
    return DensityReport(m, m2, _induced_on(f, mask), _induced_on(f, mask2), m2 > m)
