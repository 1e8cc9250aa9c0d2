"""Independent brute-force oracles used by the test suite.

Each oracle deliberately takes a different route than the library code it
checks: densities by enumerating every (vertex subset, edge subset) pair,
copies by trying every injective vertex map, set cover by enumerating
element partitions, embeddings by one recursive generator per search
position, the covering LP by rational enumeration of basic feasible
solutions, edge ids by peeling the lowest set bit, mu and p_c
by realizing every coupled table at every probed p and searching it whole,
copy lists by walking every automorphic image of every copy and keeping the
first, random family members by setting one big-int bit per drawn pair,
the chance that the altered graph misses H by pushing the exact law of every
graph on [n] through the packing, the exact p_c by a bisection loop of its
own, pair ids by an integer square root per id, the tiny-n F-free census by
searching every graph on [n],
the least cover cost by a branch and bound with a per-element amortized
bound in place of LP prices, the hitting time by a contains_copy search of
each prefix of the whole arrival stream, the covering LP's
float optimum by a numpy tableau simplex on the labeled instance instead of
a list tableau on its S_n-orbits, the census's copies of F by the
subgraph search on K_n instead of by permuting [n], the greedy cover by
rescoring every candidate with a numpy product per step instead of a lazy
heap of int masks, the greedy packing by scanning every copy in sorted
order instead of one rooted search per host edge, the search plans'
order constraints and edge-orbit roots from generators of the automorphism
group instead of one self-embedding test per pair of positions or edges,
and q's branch and bound on a numpy 0/1 matrix (built by containment, not
from the instance's int masks) that recomputes every reduced weight at each
node instead of raising its parent's.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np

from ffree.exact_tiny import (PIVOT_CAP, SIMPLEX_TOL, PivotCapError, _greedy_cost, _Instance,
                              _root_bound, _spread, mu_exact)
from ffree.graphs import LabeledGraph, PatternGraph, pair_index
from ffree.sampling import EdgeThresholdTable, Seed, coupled_realize, sample_gnp
from ffree.subiso import _embeddings, _host, _search_order, contains_copy, enumerate_copies
from ffree.thresholds import MuEstimate, ThresholdEstimate, wilson_interval


def density_oracle(f: PatternGraph) -> tuple[Fraction, Fraction | None]:
    """(m, m2) by enumerating all edge subsets of all vertex subsets."""
    nv = f.vertex_count
    best_m: Fraction | None = None
    best_m2: Fraction | None = None
    for size in range(1, nv + 1):
        for combo in itertools.combinations(range(nv), size):
            inside = set(combo)
            sub_edges = [e for e in f.edges if e[0] in inside and e[1] in inside]
            ne = len(sub_edges)
            for mask in range(1 << ne):
                e = mask.bit_count()
                val = Fraction(e, size)
                if best_m is None or val > best_m:
                    best_m = val
                if size >= 3:
                    val2 = Fraction(e - 1, size - 2)
                    if best_m2 is None or val2 > best_m2:
                        best_m2 = val2
    return best_m, best_m2


def copies_oracle(g: LabeledGraph, j: PatternGraph) -> set[tuple[int, ...]]:
    """Distinct copy edge sets via all injective maps of non-isolated vertices."""
    deg = j.degrees()
    verts = [v for v in range(j.vertex_count) if deg[v] > 0]
    out = set()
    for images in itertools.permutations(range(g.n), len(verts)):
        pos = {v: img for v, img in zip(verts, images)}
        ids = []
        ok = True
        for u, v in j.edges:
            a, b = pos[u], pos[v]
            k = pair_index(min(a, b), max(a, b), g.n)
            if not g.bits >> k & 1:
                ok = False
                break
            ids.append(k)
        if ok:
            out.add(tuple(sorted(ids)))
    return out


def embeddings_oracle(adj: list[int], gdeg: list[int], plan, root: tuple[int, ...] = (),
                      above=None):
    """subiso._embeddings by a recursive generator per search position, one
    degree test per candidate; host degrees `gdeg` in place of its masks."""
    _, prior, need = plan
    k = len(need)
    images = [0] * k

    def extend(i: int, used: int):
        if i == k:
            yield tuple(images)
            return
        dom = ((1 << len(adj)) - 1) & ~used
        for j in prior[i]:
            dom &= adj[images[j]]
        if i < len(root):
            dom &= 1 << root[i]
        for j in (above[i] if above else ()):
            dom &= ~((2 << images[j]) - 1)
        for v in range(len(adj)):
            if dom >> v & 1 and gdeg[v] >= need[i]:
                images[i] = v
                yield from extend(i + 1, used | 1 << v)

    yield from extend(0, 0)


def least_embeddings_oracle(g: LabeledGraph, j: PatternGraph
                            ) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Every copy of J in G by its sorted edge ids, mapped to its least
    embedding: every embedding is walked without order constraints and the
    first (lexicographically least) one of each edge set is kept."""
    if g.n < j.vertex_count:
        return {}
    plan = order, _, _ = _search_order(j)
    pos = {v: i for i, v in enumerate(order)}
    pat_edges = [(pos[u], pos[v]) for u, v in j.edges]
    adj = g.adjacency_masks()
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for images in embeddings_oracle(adj, [m.bit_count() for m in adj], plan):
        ids = tuple(sorted(
            pair_index(min(images[a], images[b]), max(images[a], images[b]), g.n)
            for a, b in pat_edges
        ))
        if ids not in seen:
            seen[ids] = images
    return seen


def enumerate_copies_oracle(g: LabeledGraph, j: PatternGraph) -> list[int]:
    """enumerate_copies from least_embeddings_oracle: the edge masks in the
    lexicographic order of the sorted edge ids."""
    return [sum(1 << k for k in ids) for ids in sorted(least_embeddings_oracle(g, j))]


def greedy_packing_oracle(copies: list[int]) -> list[int]:
    """pack_copies by scanning enumerate_copies_oracle's list `copies` in order
    and keeping each copy that shares no edge with those kept before it."""
    kept, packed = [], 0
    for mask in copies:
        if not mask & packed:
            kept.append(mask)
            packed |= mask
    return kept


def plan_oracle(f: PatternGraph, first_edge: tuple[int, ...] = ()) -> tuple:
    """subiso._plan from generators of the automorphisms fixing `first_edge`:
    for each position i and each w in its orbit under the automorphisms fixing
    the positions before i, one of them as a permutation of positions, perm[i]
    == w, which puts i in above[w]."""
    plan = order, _, need = _search_order(f, first_edge)
    pos = {v: i for i, v in enumerate(order)}
    host = _host(LabeledGraph.from_edges(f.vertex_count, f.edges), max(need))
    maps = ((i, next(_embeddings(*host, plan, (*order[:i], order[w])), None))
            for i in range(len(first_edge), len(order)) for w in range(i + 1, len(order)))
    gens = tuple((i, tuple(pos[v] for v in images)) for i, images in maps if images)
    above = [[] for _ in order]
    for i, perm in gens:
        above[perm[i]].append(i)
    return plan, above, gens


def edge_roots_oracle(f: PatternGraph) -> tuple:
    """subiso._edge_roots by closing each root's orbit of oriented edges under
    plan_oracle(F)'s generators of Aut(F)."""
    (order, _, _), _, gens = plan_oracle(f)
    gens = [{order[i]: order[w] for i, w in enumerate(perm)} for _, perm in gens]
    roots = []
    covered: set[tuple[int, int]] = set()
    for x, y in (e for u, v in f.edges for e in ((u, v), (v, u))):
        if (x, y) not in covered:
            roots.append(plan_oracle(f, (x, y))[:2])
            orbit = [(x, y)]
            for a, b in orbit:   # the orbit grows while it is scanned
                new = {(s[a], s[b]) for s in gens} - covered
                covered |= new
                orbit += new
    return tuple(roots)


def pair_from_index_oracle(k: int) -> tuple[int, int]:
    """The pair (u, v) with index k, from one integer square root."""
    v = (math.isqrt(8 * k + 1) + 1) // 2
    if v * (v - 1) // 2 > k:
        v -= 1
    return k - v * (v - 1) // 2, v


def ffree_census_oracle(n: int, f: PatternGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """_ffree_census by one subgraph search per graph on [n]."""
    m = n * (n - 1) // 2
    ffree = {g for g in range(1 << m) if not contains_copy(LabeledGraph(n, g), f)}
    profile = [0] * (m + 1)
    for g in ffree:
        profile[g.bit_count()] += 1
    maximal = sorted(g for g in ffree
                     if not any((g | 1 << e) in ffree
                                for e in range(m) if not g >> e & 1))
    return tuple(maximal), tuple(profile)


def census_from_copies_oracle(n: int, f: PatternGraph
                              ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """_ffree_census with the copies of F in K_n found by enumerate_copies;
    an edgeless F that fits on [n] has one copy, with no edges."""
    m = n * (n - 1) // 2
    copies = (enumerate_copies(LabeledGraph.complete(n), f)
              if f.edge_count else [0] * (n >= f.vertex_count))
    ffree = {g for g in range(1 << m) if all(c & ~g for c in copies)}
    profile = [0] * (m + 1)
    for g in ffree:
        profile[g.bit_count()] += 1
    maximal = sorted(g for g in ffree
                     if not any((g | 1 << e) in ffree
                                for e in range(m) if not g >> e & 1))
    return tuple(maximal), tuple(profile)


def miss_probabilities(altered: list[int], pairs: int, p: Fraction) -> list[Fraction]:
    """P(A & H == 0) for every H over the pairs, indexed by H's bits, where
    A = altered[G] and G ~ G(n, p) is given by its edge bits: the exact law of
    A, summed over the subsets of each complement of H (the subset-sum
    transform)."""
    weight = [p ** e * (1 - p) ** (pairs - e) for e in range(pairs + 1)]
    law = [Fraction(0)] * (1 << pairs)
    for g, a in enumerate(altered):
        law[a] += weight[g.bit_count()]
    for b in range(pairs):   # afterwards law[S] is the mass of the A inside S
        for s in range(1 << pairs):
            if s >> b & 1:
                law[s] += law[s ^ 1 << b]
    full = (1 << pairs) - 1
    return [law[full ^ h] for h in range(1 << pairs)]


def random_member_oracle(n: int, edge_count: int, gen) -> LabeledGraph:
    """random_member by or-ing one bit per drawn pair into a growing int, a
    repeat being a pair whose bit is already set, and xor-ing the drawn bits
    out of K_n when the complement is the smaller set."""
    pairs = n * (n - 1) // 2
    flip = edge_count > pairs - edge_count
    bits = 0
    for _ in range(pairs - edge_count if flip else edge_count):
        k = int(gen.random() * pairs)
        while bits >> k & 1:
            k = int(gen.random() * pairs)
        bits |= 1 << k
    return LabeledGraph(n, bits ^ ((1 << pairs) - 1) if flip else bits)


def partition_cover_oracle(elements: list[int], m: int, p: Fraction) -> Fraction:
    """Exact min certificate weight by enumerating element partitions.

    Any optimal cover may be normalized so each set is the union of the
    elements it covers and no element is covered twice, i.e. a partition of
    the element list into groups, each paying (1-p)^(m - |union|).
    """
    k = len(elements)

    def partitions(ixs):
        if not ixs:
            yield []
            return
        first, rest = ixs[0], ixs[1:]
        for sub in partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
            yield [[first]] + sub

    best = None
    for part in partitions(list(range(k))):
        cost = Fraction(0)
        for group in part:
            union = 0
            for i in group:
                union |= elements[i]
            cost += (1 - p) ** (m - union.bit_count())
        if best is None or cost < best:
            best = cost
    return best


def min_cover_cost_oracle(elements: tuple[int, ...], candidates: tuple[int, ...],
                          weights: list[float]) -> float:
    """Least weight of candidates covering every element (e <= c as bitmasks),
    by a branch and bound cut by an amortized bound: a candidate of weight w
    covering k uncovered elements pays at least w/k for each."""
    cover = [sum(1 << i for i, e in enumerate(elements) if e & ~c == 0)
             for c in candidates]
    covers_by_elem = [[j for j, cv in enumerate(cover) if cv >> i & 1]
                      for i in range(len(elements))]
    nc = len(cover)
    full = (1 << len(elements)) - 1
    order = sorted(range(len(covers_by_elem)), key=lambda i: len(covers_by_elem[i]))
    covered, best = 0, 0.0
    while covered != full:   # greedy: least weight per newly covered element
        i = min((c for c in range(nc) if cover[c] & ~covered),
                key=lambda c: weights[c] / (cover[c] & ~covered).bit_count())
        covered |= cover[i]
        best += weights[i]

    def lower_bound(uncovered: int) -> float:
        per_cand = [None] * nc
        for c in range(nc):
            cu = (cover[c] & uncovered).bit_count()
            if cu:
                per_cand[c] = weights[c] / cu
        lb = 0.0
        u = uncovered
        while u:
            low = u & -u
            i = low.bit_length() - 1
            lb += min(per_cand[c] for c in covers_by_elem[i]
                      if per_cand[c] is not None)
            u ^= low
        return lb

    seen: dict[int, float] = {}

    def branch(uncovered: int, cost: float):
        nonlocal best
        if uncovered == 0:
            best = min(best, cost)
            return
        prev = seen.get(uncovered)
        if prev is not None and cost >= prev:
            return
        seen[uncovered] = cost
        if cost + lower_bound(uncovered) >= best - 1e-15:
            return
        target = next(i for i in order if uncovered >> i & 1)
        for c in sorted(covers_by_elem[target], key=lambda c: weights[c]):
            branch(uncovered & ~cover[c], cost + weights[c])

    branch(full, 0.0)
    return best


def _solve_fraction(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Gaussian elimination over the rationals; None if singular."""
    k = len(rows)
    a = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(k):
        piv = next((r for r in range(col, k) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(k):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][k] for r in range(k)]


def lp_bfs_oracle(elements: list[int], candidates: list[int], m: int,
                  p: Fraction) -> Fraction:
    """Covering-LP optimum by rational enumeration of basic feasible solutions.

    Standard form [A | -I] x = 1 with x >= 0; every vertex of the feasible
    region is a basic solution, and the optimum of a bounded feasible LP is
    attained at one.
    """
    k = len(elements)
    nv = len(candidates)
    one_minus_p = 1 - p
    cols = []
    costs = []
    for c in candidates:
        cols.append([Fraction(1) if elements[i] & ~c == 0 else Fraction(0)
                     for i in range(k)])
        costs.append(one_minus_p ** (m - c.bit_count()))
    for i in range(k):  # surplus columns
        col = [Fraction(0)] * k
        col[i] = Fraction(-1)
        cols.append(col)
        costs.append(Fraction(0))
    rhs = [Fraction(1)] * k
    best = None
    for basis in itertools.combinations(range(nv + k), k):
        rows = [[cols[j][i] for j in basis] for i in range(k)]
        sol = _solve_fraction(rows, rhs)
        if sol is None or any(x < 0 for x in sol):
            continue
        cost = sum(costs[j] * x for j, x in zip(basis, sol))
        if best is None or cost < best:
            best = cost
    assert best is not None, "LP oracle found no feasible basis"
    return best


def labeled_packing_oracle(a: np.ndarray, w: list[float]
                           ) -> tuple[float, np.ndarray, np.ndarray]:
    """(optimum, lambda, y) of max 1.y s.t. a y <= w, y >= 0 and its covering
    dual, by the library's simplex on a numpy tableau: the same pivots and
    float operations as exact_tiny._packing_simplex, so its values are
    bit-identical to that one's.  On the labeled instance (one row per
    candidate set, one column per edge-maximal F-free graph) it solves the
    covering LP without the S_n-orbits."""
    rows, cols = a.shape
    if not cols:   # nothing to cover
        return 0.0, np.zeros(rows), np.zeros(0)
    tab = np.zeros((rows + 1, cols + rows + 1))
    tab[:rows, :cols] = a
    tab[np.arange(rows), cols + np.arange(rows)] = 1.0
    tab[:rows, -1] = w
    tab[rows, :cols] = -1.0
    lex = [cols + rows, *range(cols, cols + rows)]   # rhs, then slack columns
    basis = list(range(cols, cols + rows))
    for pivots in itertools.count():
        col = int(np.argmin(tab[rows, :-1]))
        if tab[rows, col] >= -SIMPLEX_TOL:
            y = np.zeros(cols + rows)
            y[basis] = tab[:rows, -1]   # nonbasic columns are 0
            return float(tab[rows, -1]), tab[rows, cols:-1].copy(), y[:cols]
        if pivots == PIVOT_CAP:
            raise PivotCapError(
                f"exact_tiny: packing simplex reached PIVOT_CAP={PIVOT_CAP} "
                f"pivots on a {rows}x{cols} LP")
        ties = np.flatnonzero(tab[:rows, col] > SIMPLEX_TOL)
        for j in lex:
            if len(ties) == 1:
                break
            ratio = tab[ties, j] / tab[ties, col]
            ties = ties[ratio <= ratio.min() + SIMPLEX_TOL * abs(ratio.min())]
        row = ties[0]
        basis[row] = col
        tab[row] /= tab[row, col]
        # eliminate only where both the pivot column and pivot row are nonzero
        hit = np.flatnonzero(tab[:, col])
        hit = hit[hit != row]
        nz = np.flatnonzero(tab[row])
        tab[np.ix_(hit, nz)] -= np.outer(tab[hit, col], tab[row, nz])


def edge_ids_oracle(g: LabeledGraph) -> list[int]:
    """Set bits of the edge vector, lowest first, peeled one at a time."""
    out = []
    b = g.bits
    while b:
        low = b & -b
        out.append(low.bit_length() - 1)
        b ^= low
    return out


def mu_oracle(n: int, p: float, f: PatternGraph, trials: int, seed: Seed) -> MuEstimate:
    """estimate_mu by realizing each table at p and searching it whole."""
    free = sum(
        1 for i in range(trials)
        if not contains_copy(sample_gnp(n, p, seed, purpose=f"pc-table-n{n}", index=i), f)
    )
    lo, hi = wilson_interval(free, trials)
    return MuEstimate(free / trials, lo, hi)


def pc_bisection_oracle(n: int, f: PatternGraph, trials: int, tolerance: float,
                        seed: Seed) -> ThresholdEstimate:
    """estimate_pc by realizing every table at every bisection probe: mu_hat
    at 1, then at 0, then a bisection of [0, 1] until hi - lo is at most
    tolerance times the midpoint, or lo and hi are adjacent floats."""
    battery = [EdgeThresholdTable.generate(n, seed.stream(f"pc-table-n{n}", i))
               for i in range(trials)]

    def mu_hat(p: float) -> float:
        free = sum(1 for t in battery if not contains_copy(coupled_realize(t, p), f))
        return free / trials

    trace = [(1.0, mu_hat(1.0)), (0.0, mu_hat(0.0))]
    assert trace[0][1] < 0.5, trace   # every table's graph at p = 1 is K_n
    lo, hi = 0.0, 1.0
    if trace[1][1] < 0.5:   # an edgeless F is in every graph: p_hat = 0
        hi = 0.0
    while hi - lo > tolerance * (lo + hi) / 2:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        mu_mid = mu_hat(mid)
        trace.append((mid, mu_mid))
        if mu_mid >= 0.5:
            lo = mid
        else:
            hi = mid
    p_hat = 0.5 * (lo + hi)
    free = sum(1 for t in battery if not contains_copy(coupled_realize(t, p_hat), f))
    ci_lo, ci_hi = wilson_interval(free, trials)
    return ThresholdEstimate(n, f.to_text(), p_hat, free / trials, ci_lo, ci_hi,
                             trials, seed.master, tolerance, tuple(trace))


def pc_exact_oracle(n: int, f: PatternGraph, tolerance: float = 1e-12) -> float:
    """pc_exact by its own bisection on mu_exact, without the p = 0 probe:
    for an edgeless F it returns a bisection artefact near 0, not 0.0."""
    if mu_exact(n, 1.0, f) >= 0.5:
        raise ValueError("mu_p never drops below 1/2: threshold undefined at this n")
    lo, hi = 0.0, 1.0
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if mu_exact(n, mid, f) >= 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def hitting_time_oracle(table: EdgeThresholdTable, f: PatternGraph) -> int:
    """hitting_time from the table's whole stream, drawn first, by a search
    of each prefix with contains_copy."""
    if table.n < f.vertex_count:
        return 1 << 64
    if f.edge_count == 0:
        return -1
    table.count_below(1 << 64)
    bits = 0
    for mark, k in zip(table.marks, table.ids):
        bits |= 1 << k
        if contains_copy(LabeledGraph(table.n, bits), f):
            return mark
    raise AssertionError("a copy on at most n vertices completes by the last arrival")


def numpy_stream(master: int, purpose: str, index: int = 0) -> np.random.Generator:
    """A numpy Philox generator keyed by (master, purpose, index), for tests
    that draw their own data with numpy."""
    tag = int.from_bytes(hashlib.blake2b(purpose.encode(), digest_size=8).digest(), "big")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([master, tag, index])))


def greedy_cover_oracle(a: np.ndarray, weights: list[float]) -> float:
    """Cost of the greedy cover of the 0/1 matrix a (candidates x elements):
    each step takes the least weight per newly covered element, the lowest
    index on ties, rescoring every candidate."""
    covers = a > 0
    w = np.array(weights)
    live = np.ones(a.shape[1], dtype=bool)
    greedy = 0.0
    while live.any():
        new = a @ live
        i = int(np.argmin(np.divide(w, new, out=np.full_like(w, np.inf),
                                    where=new > 0)))
        live &= ~covers[i]
        greedy += weights[i]
    return greedy


def labeled_matrix(inst: _Instance) -> np.ndarray:
    """Candidates x elements 0/1 coverage matrix of a covering instance, by
    containment of each element in each candidate, not from inst.cover."""
    return np.array([[float(e & ~c == 0) for e in inst.elements] for c in inst.candidates]
                    ).reshape(len(inst.candidates), len(inst.elements))


def branch_and_bound_oracle(inst: _Instance, weights: list[float], incumbent: float,
                            stop_at: float) -> float:
    """Least cover cost below `incumbent`, else `incumbent`; returns at the
    first cover costing <= stop_at.  The library's search with the same
    greedy seed, root cut, prices, pruning and branching rules, but run on
    a numpy 0/1 matrix that recomputes every candidate's reduced weight
    w - a.y_live at each node instead of raising its parent's."""
    best = min(incumbent, _greedy_cost(inst, weights))
    if best <= stop_at:
        return best
    bound, z = _root_bound(inst, weights)
    if best - 1e-15 - bound <= 0:
        return best

    a = labeled_matrix(inst)
    covers = a > 0
    w = np.array(weights)
    y = np.array(_spread(z, inst.element_orbit))
    seen: dict[bytes, float] = {}

    def branch(live: np.ndarray, cost: float) -> bool:
        nonlocal best
        if not live.any():
            best = min(best, cost)
            return best <= stop_at
        key = live.tobytes()
        prev = seen.get(key)
        if prev is not None and cost >= prev:
            return False
        seen[key] = cost
        y_live = np.where(live, y, 0.0)
        room = best - 1e-15 - cost - y_live.sum()
        if room <= 0:
            return False
        reduced = w - a @ y_live
        useful = reduced < room
        counts = np.where(live, useful @ a, np.inf)
        target = int(np.argmin(counts))
        if counts[target] == 0:
            return False
        picks = np.flatnonzero(useful & covers[:, target])
        return any(branch(live & ~covers[c], cost + weights[c])
                   for c in picks[np.argsort(reduced[picks], kind="stable")])

    branch(np.ones(a.shape[1], dtype=bool), 0.0)
    del branch   # a self-referencing closure: free the memo now, not at the next GC
    return best
