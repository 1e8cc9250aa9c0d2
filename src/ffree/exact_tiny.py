r"""Exact tiny-n expectation thresholds.

At n <= 5 the ground set X (all pairs) has at most 10 elements, so the
F-free down-set can be handled exhaustively:

* one pass over the 2^{|X|} graphs on [n], tested against the copies of F in
  K_n, finds the edge-maximal F-free graphs and the F-free edge-count profile;
* the coverage universe shrinks to the edge-maximal F-free graphs (every
  F-free graph is a subgraph of one, and down-closure membership is
  inherited by subgraphs);
* certificate sets may be restricted to unions of the maximal graphs they
  cover: shrinking any S to that union preserves coverage and raises
  |X \ S|, so the weight (1-p)^{|X \ S|} can only drop.  Each candidate is
  then the union of the elements it covers, so a strictly larger coverage
  means a strictly larger set and, for 0 < p < 1, a strictly larger weight:
  no candidate dominates another;
* elements, candidates and coverage (an int bitmask of elements per
  candidate) are built once per (n, F), only the weights per p; q_f comes
  from the covering LP, solved through its packing dual; each probe of q
  asks only whether a cover costs <= 1/2: a greedy cover, then the LP's
  optimal packing, shrunk to fit, as the root's bound, then a branch and
  bound on int masks, seeded at the budget and priced by that packing;
* the LP is solved on S_n-orbits: relabeling [n] permutes elements and
  candidates and keeps each weight, so some optimal y and lambda are
  constant on orbits, and the LP with one row per candidate orbit and one
  column per element orbit has the same optimum (Boedi, Herr and Joswig,
  Math. Program. 137:65, 2013); at n <= 5 it is at most 20 x 3, against up to
  578 x 87 labeled, solved in plain Python floats: the exact layer never
  loads numpy;
* both optima are non-increasing in p (each weight is), so bisection on p
  against the 1/2 budget is valid.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from functools import cached_property, lru_cache, reduce
from typing import NamedTuple

from .graphs import PatternGraph, pair_index

N_CAP = 5
SIMPLEX_TOL = 1e-9
PIVOT_CAP = 20_000   # the orbit LPs at n <= 5 take at most 4 pivots (labeled: 483)
DEFAULT_P_TOL = 1e-4


class ScaleError(ValueError):
    pass


class PivotCapError(RuntimeError):
    """The packing simplex reached PIVOT_CAP pivots without an optimum."""


def _check_cap(n: int, p: float = 0.0):
    if n > N_CAP:
        raise ScaleError(f"exact computation capped at n <= {N_CAP}, got {n}")
    if n < 2:
        raise ValueError("need n >= 2")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p={p} outside [0, 1]")


@lru_cache(maxsize=None)
def _ffree_census(n: int, f: PatternGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(sorted edge-maximal F-free bitmasks, number of F-free graphs with e edges
    for e = 0..n(n-1)/2); a graph is F-free iff it misses an edge of every copy
    of F in K_n, one copy per injective map of F's vertices (isolated ones
    too) into [n]."""
    m = n * (n - 1) // 2
    copies = {sum(1 << pair_index(*sorted((g[u], g[v])), n) for u, v in f.edges)
              for g in itertools.permutations(range(n), f.vertex_count)}
    ffree = {g for g in range(1 << m) if all(c & ~g for c in copies)}
    profile = [0] * (m + 1)
    for g in ffree:
        profile[g.bit_count()] += 1
    maximal = sorted(g for g in ffree
                     if not any((g | 1 << e) in ffree
                                for e in range(m) if not g >> e & 1))
    return tuple(maximal), tuple(profile)


class _Instance(NamedTuple("_Instance", [
        ("elements", tuple[int, ...]),          # edge-maximal F-free bitmasks
        ("candidates", tuple[int, ...]),        # their union closure, sorted
        ("missing", tuple[int, ...]),           # |X \ S| per candidate S
        ("element_orbit", tuple[int, ...]),     # S_n-orbit of each element, numbered from 0
        ("candidate_orbit", tuple[int, ...]),   # S_n-orbit of each candidate, numbered from 0
        ("representatives", tuple[int, ...]),   # least candidate of each candidate orbit
        # candidate x element orbits: elements of orbit E under a candidate of C, over |E|
        ("orbit_packing", tuple[tuple[float, ...], ...])])):
    """The covering instance of (n, F), everything but the weights.  It has
    no __slots__, so `cover` is cached on first use: q_f never builds it."""

    def weights(self, p: float) -> list[float]:
        return [(1.0 - p) ** e for e in self.missing]

    @cached_property
    def cover(self) -> tuple[int, ...]:
        """Per candidate, the bitmask of the element indices it covers."""
        return tuple(sum(1 << j for j, e in enumerate(self.elements) if e & ~c == 0)
                     for c in self.candidates)


def _orbits(masks: tuple[int, ...], tables: list[list[int]]) -> tuple[int, ...]:
    """Orbit of each mask of an S_n-invariant set, numbered by least member:
    each orbit is closed under the images by the pair-bit permutation tables
    of generators of S_n."""
    index = {s: i for i, s in enumerate(masks)}
    orbit = [-1] * len(masks)
    count = 0
    for i, s in enumerate(masks):
        if orbit[i] >= 0:
            continue
        orbit[i], members = count, [s]
        for t in members:   # grows while it is walked
            for table in tables:
                j = index[sum(1 << b for k, b in enumerate(table) if t >> k & 1)]
                if orbit[j] < 0:
                    orbit[j] = count
                    members.append(masks[j])
        count += 1
    return tuple(orbit)


@lru_cache(maxsize=None)
def _instance(n: int, f: PatternGraph) -> _Instance:
    elements = _ffree_census(n, f)[0]
    closure, frontier = set(elements), set(elements)
    while frontier:
        frontier = {a | b for a in frontier for b in elements} - closure
        closure |= frontier
    candidates = tuple(sorted(closure))
    # S_n is generated by the transposition (0 1) and the n-cycle
    pairs = [(u, v) for v in range(n) for u in range(v)]   # pair_index order
    tables = [[pair_index(*sorted((g[u], g[v])), n) for u, v in pairs]
              for g in ([1, 0, *range(2, n)], [*range(1, n), 0])]
    element_orbit = _orbits(elements, tables)
    candidate_orbit = _orbits(candidates, tables)
    representatives = tuple(candidate_orbit.index(k) for k in sorted(set(candidate_orbit)))
    sizes = Counter(element_orbit)
    orbit_packing = tuple(
        tuple(sum(e & ~candidates[r] == 0 for e, k in zip(elements, element_orbit) if k == o)
              / sizes[o] for o in range(len(sizes)))
        for r in representatives)
    m = n * (n - 1) // 2
    return _Instance(elements, candidates, tuple(m - c.bit_count() for c in candidates),
                     element_orbit, candidate_orbit, representatives, orbit_packing)


def _orbit_lp(inst: _Instance, weights: list[float]) -> tuple[float, list[float], list[float]]:
    """(optimum, mu, z) of the orbit LP for S_n-invariant weights, read at
    each candidate orbit's representative; its solutions expand to the
    labeled covering LP and packing dual as lambda(S) = mu_C / |C| and
    y(M) = z_E / |E| (_spread).  q's search spreads z; mu is spread only
    where a test checks lambda on the labeled LP."""
    return _packing_simplex(inst.orbit_packing, [weights[r] for r in inst.representatives])


def _spread(values: list[float], orbit: tuple[int, ...]) -> list[float]:
    """Each orbit's value shared evenly among its labeled members."""
    size = Counter(orbit)
    return [values[k] / size[k] for k in orbit]


def _greedy_cost(inst: _Instance, weights: list[float]) -> float:
    """Cost of the greedy cover: least weight per newly covered element, the
    lowest index on ties.  A candidate's ratio only grows as elements get
    covered, so a lazy heap of stale ratios serves: the popped candidate is
    re-scored and taken only if its fresh key still heads the heap."""
    cover = inst.cover
    heap = [(w / c.bit_count(), i) for i, (w, c) in enumerate(zip(weights, cover))]
    heapq.heapify(heap)
    live = (1 << len(inst.elements)) - 1
    cost = 0.0
    while live:
        i = heapq.heappop(heap)[1]
        new = (cover[i] & live).bit_count()
        if not new:
            continue
        key = (weights[i] / new, i)
        if heap and key > heap[0]:
            heapq.heappush(heap, key)
            continue
        live &= ~cover[i]
        cost += weights[i]
    return cost


def _root_bound(inst: _Instance, weights: list[float]) -> tuple[float, list[float]]:
    """(a lower bound on every cover's cost, the packing z that it sums): the
    orbit LP's optimal packing clipped at 0, shrunk until every candidate
    orbit's load fits its weight and then by SIMPLEX_TOL, so that float error
    cannot lift the bound to the LP optimum.  A labeled candidate's load under
    _spread(z) is its orbit's row . z, so z fits the labeled weights too."""
    z = [max(x, 0.0) for x in _orbit_lp(inst, weights)[2]]
    loads = (math.fsum(a * x for a, x in zip(row, z)) for row in inst.orbit_packing)
    shrink = min([1.0, *(weights[r] / load for r, load in zip(inst.representatives, loads)
                         if load > 0)]) * (1.0 - SIMPLEX_TOL)
    z = [x * shrink for x in z]
    return math.fsum(z), z


def _branch_and_bound(inst: _Instance, weights: list[float], incumbent: float,
                      stop_at: float) -> float:
    """Least cover cost below `incumbent`, else `incumbent`; returns at the
    first cover costing <= stop_at.  The best cost starts at the largest
    candidate (alone a cover) or a greedy cover, whichever is cheaper, and
    the LP bound (_root_bound) cuts the root within 1e-15 of it.  Below the
    root, prices are that bound's packing spread to the labeled elements, y:
    a node is cut once cost + y(live) comes within 1e-15 of the best cost,
    and tries the candidates whose reduced weight w - a.y_live fits the room
    left and that cover its lowest live element with the fewest of them,
    least reduced weight first, ties by index.  Reduced weights only rise
    along a path and the room only falls, so a node filters its parent's
    list, raising the entries that share elements with the parent's choice."""
    best = min(incumbent, *weights[-1:], _greedy_cost(inst, weights))
    if best <= stop_at:
        return best
    bound, z = _root_bound(inst, weights)
    if best - 1e-15 - bound <= 0:
        return best

    cover = inst.cover
    y = _spread(z, inst.element_orbit)

    def load(mask: int) -> float:   # y summed over the elements in mask
        total = 0.0
        while mask:
            total += y[(mask & -mask).bit_length() - 1]
            mask &= mask - 1
        return total

    seen: dict[int, float] = {}

    def branch(live: int, gone: int, cost: float, need: float,
               kept: list[tuple[float, int]]) -> bool:
        # gone: the elements that the parent's choice covered; need: y(live | gone)
        nonlocal best
        if not live:
            best = min(best, cost)
            return best <= stop_at
        if seen.get(live, float("inf")) <= cost:
            return False
        seen[live] = cost
        need -= load(gone)
        room = best - 1e-15 - cost - need
        if room <= 0:
            return False
        fit = []
        planes = [0] * len(kept).bit_length()   # bit k of each live element's count in fit
        for r, c in kept:
            if r < room and cover[c] & gone:
                r += load(cover[c] & gone)
            if r < room:
                fit.append((r, c))
                carry, k = cover[c] & live, 0
                while carry:   # add 1 to the count of each element in carry
                    planes[k], carry, k = planes[k] ^ carry, planes[k] & carry, k + 1
        fewest = reduce(lambda least, plane: least & ~plane or least, reversed(planes), live)
        target = fewest & -fewest   # no fit candidate covers it if its count is 0
        return any(branch(live & ~cover[c], live & cover[c], cost + weights[c], need, fit)
                   for _, c in sorted(e for e in fit if cover[e[1]] & target))

    branch((1 << len(inst.elements)) - 1, 0, 0.0, math.fsum(y),
           [(w - load(cover[c]), c) for c, w in enumerate(weights)])
    del branch   # a self-referencing closure: free the memo now, not at the next GC
    return best


def min_cover_cost(n: int, p: float, f: PatternGraph) -> float:
    """Exact minimum certificate weight covering all maximal F-free graphs.

    The search is exponential, with no time bound: min_cover_cost(5, 0.625, C4)
    did not finish in 60 s.  q_exact does not use it (see _cover_within)."""
    _check_cap(n, p)
    inst = _instance(n, f)
    return _branch_and_bound(inst, inst.weights(p), float("inf"), -1.0)


def _cover_within(n: int, p: float, f: PatternGraph) -> bool:
    """Whether min_cover_cost(n, p, f) <= 1/2.  The search stops at the first
    cover within 1/2, from an incumbent 2e-15 above 1/2 so that a branch
    bounded by exactly 1/2 survives the 1e-15 cut."""
    inst = _instance(n, f)
    return _branch_and_bound(inst, inst.weights(p), 0.5 + 2e-15, 0.5) <= 0.5


class ThresholdValue(NamedTuple):
    value: float
    degenerate: bool   # no p < 1 admits a cost <= 1/2 certificate
    tolerance: float


def _bisect_budget(within, tolerance: float, relative: bool = False) -> ThresholdValue:
    """Least p in [0, 1] where a monotone within(p) holds, to an absolute or relative tolerance."""
    if not 0 < tolerance < float("inf"):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    if not within(1.0):
        return ThresholdValue(1.0, True, tolerance)
    if within(0.0):
        return ThresholdValue(0.0, False, tolerance)
    lo, hi = 0.0, 1.0
    while hi - lo > tolerance * (0.5 * (lo + hi) if relative else 1.0):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:   # lo and hi are adjacent floats
            break
        if within(mid):
            hi = mid
        else:
            lo = mid
    return ThresholdValue(0.5 * (lo + hi), False, tolerance)


def q_exact(n: int, f: PatternGraph, tolerance: float = DEFAULT_P_TOL) -> ThresholdValue:
    """Smallest p whose optimal integral certificate costs <= 1/2."""
    _check_cap(n)
    return _bisect_budget(lambda p: _cover_within(n, p, f), tolerance)


# ---------------------------------------------------------------------------
# covering LP: min sum w(S) lambda(S)  s.t.  sum_{S >= M} lambda(S) >= 1,
# solved through its packing dual  max sum y(M)  s.t.  sum_{M <= S} y(M) <= w(S)
# ---------------------------------------------------------------------------

def _packing_simplex(a, w: list[float]) -> tuple[float, list[float], list[float]]:
    """max 1.y s.t. a y <= w, y >= 0, for a matrix a >= 0 (a sequence of rows)
    and w >= 0, on a dense tableau of float lists.

    Primal simplex from the feasible origin (slack basis): no phase 1.
    Dantzig's entering rule; the ratio test takes the lexicographically least
    row of (rhs, slack columns) / pivot entry, tying values within a relative
    SIMPLEX_TOL (an absolute one ties every ratio once all weights are tiny).  The slack columns hold B^-1,
    whose rows are independent, so no basis repeats (Dantzig, Orden and
    Wolfe 1955).  Returns (optimum, lambda, y), lambda being the slack
    reduced costs: an optimal solution of min w.lambda s.t. a^T lambda >= 1.
    """
    rows, cols = len(a), len(a[0]) if len(a) else 0
    if not cols:   # nothing to cover
        return 0.0, [0.0] * rows, []
    tab = [[*map(float, a[i]), *(float(i == k) for k in range(rows)), float(w[i])]
           for i in range(rows)]
    tab.append([-1.0] * cols + [0.0] * (rows + 1))
    cost = tab[rows]
    lex = [cols + rows, *range(cols, cols + rows)]   # rhs, then slack columns
    basis = list(range(cols, cols + rows))
    for pivots in itertools.count():
        col = min(range(cols + rows), key=cost.__getitem__)
        if cost[col] >= -SIMPLEX_TOL:
            y = [0.0] * (cols + rows)
            for i, j in enumerate(basis):   # nonbasic columns are 0
                y[j] = tab[i][-1]
            return cost[-1], cost[cols:-1], y[:cols]
        if pivots == PIVOT_CAP:
            raise PivotCapError(
                f"exact_tiny: packing simplex reached PIVOT_CAP={PIVOT_CAP} "
                f"pivots on a {rows}x{cols} LP")
        ties = [i for i in range(rows) if tab[i][col] > SIMPLEX_TOL]
        for j in lex:
            if len(ties) == 1:
                break
            ratio = [tab[i][j] / tab[i][col] for i in ties]
            least = min(ratio)
            ties = [i for i, r in zip(ties, ratio) if r <= least + SIMPLEX_TOL * abs(least)]
        row = ties[0]
        basis[row] = col
        pivot = tab[row][col]
        tab[row] = prow = [x / pivot for x in tab[row]]
        # eliminate only where both the pivot column and pivot row are nonzero
        nz = [j for j, x in enumerate(prow) if x]
        for i, r in enumerate(tab):
            factor = r[col]
            if factor and i != row:
                for j in nz:
                    r[j] -= factor * prow[j]


def lp_min_cost(n: int, p: float, f: PatternGraph) -> float:
    """Exact covering-LP optimum, solved on orbits (_orbit_lp).

    Constraints only for edge-maximal F-free graphs M: any F-free graph is a
    subgraph of some M, and S >= M implies S >= F for every F <= M, so the
    remaining constraints are implied.
    """
    _check_cap(n, p)
    inst = _instance(n, f)
    return _orbit_lp(inst, inst.weights(p))[0]


def qf_exact(n: int, f: PatternGraph, tolerance: float = DEFAULT_P_TOL) -> ThresholdValue:
    """Smallest p whose optimal fractional certificate costs <= 1/2."""
    _check_cap(n)
    return _bisect_budget(lambda p: lp_min_cost(n, p, f) <= 0.5, tolerance)


# ---------------------------------------------------------------------------
# exact threshold p_c at tiny n, and the chain report
# ---------------------------------------------------------------------------

def mu_exact(n: int, p: float, f: PatternGraph) -> float:
    """Exact mu_p of the F-free down-set by summing the product measure."""
    _check_cap(n, p)
    m = n * (n - 1) // 2
    counts = _ffree_census(n, f)[1]
    return math.fsum(counts[e] * p ** e * (1.0 - p) ** (m - e) for e in range(m + 1))


def pc_exact(n: int, f: PatternGraph) -> float:
    """Unique p with mu_p = 1/2, by bisection on the exact polynomial to 1e-12."""
    _check_cap(n)
    pc = _bisect_budget(lambda p: mu_exact(n, p, f) < 0.5, 1e-12)
    if pc.degenerate:
        raise ValueError("mu_p never drops below 1/2: threshold undefined at this n")
    return pc.value


class GapReport(NamedTuple):
    n: int
    pattern: str
    pc: float
    qf: float
    q: float
    q_degenerate: bool
    qf_degenerate: bool
    chain_holds: bool
    tolerance: float


def gap_report(n: int, f: PatternGraph, tolerance: float = DEFAULT_P_TOL) -> GapReport:
    """Assemble p_c <= q_f <= q with exact tiny-n values."""
    pc = pc_exact(n, f)
    qf = qf_exact(n, f, tolerance)
    q = q_exact(n, f, tolerance)
    slack = 1e-6 + tolerance
    chain = pc <= qf.value + slack and qf.value <= q.value + slack
    return GapReport(n, f.to_text(), pc, qf.value, q.value,
                     q.degenerate, qf.degenerate, chain, tolerance)
