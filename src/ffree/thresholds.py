"""Monte Carlo threshold location for the F-free down-set.

mu_p is the probability a G(n, p) sample is F-free.  Every sample is the
coupled realization of a seeded edge-mark table (edge e present iff its
64-bit mark is below p on the 2^-64 grid), so "the table's graph contains F"
is monotone in p and has an exact hitting time T: the mark of the edge whose
arrival, in increasing mark order, first completes a copy of F (the
Newman-Ziff single pass).  For every p,

    contains_copy(coupled_realize(table, p), F)  ==  T < grid(p),

so mu_hat(p) is the count #{T_i >= grid(p)} / N over one battery of N tables,
seed.stream(f"pc-table-n{n}", i), which mu_curve and estimate_pc share.  A
table is its arrival stream (sampling.EdgeThresholdTable): the scan reads the
arrivals, which the table draws as they are read, and stops at the one that
completes F, whose mark is T; a triangle or C4 appears after about n of the
n(n-1)/2 arrivals.  p_c comes from the exact layer's bisection of [0, 1] on
that count, so its trace is exactly non-increasing in p, and it is 0 for an
edgeless F.  Fresh seeds across repeats quantify sampling error.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .density import m_density
from .exact_tiny import _bisect_budget
from .graphs import PatternGraph
from .sampling import _GRID, EdgeThresholdTable, Seed, _p_to_grid
from .subiso import first_completing_edge


def hitting_time(table: EdgeThresholdTable, f: PatternGraph) -> int:
    """Grid mark at which the table's coupled graph first contains F.

    -1 when F has no edges (every graph on enough vertices contains it) and
    2^64 (never) when the table has fewer vertices than F.
    """
    if table.n < f.vertex_count:
        return _GRID
    if f.edge_count == 0:
        return -1
    k = first_completing_edge(table.n, table.arrival_pairs(), f)
    # a copy on at most n vertices is completed by the time every edge arrives
    assert k is not None
    return table.marks[k]


def hitting_times(n: int, f: PatternGraph, trials: int, seed: Seed) -> list[int]:
    """Hitting times of the battery seed.stream(f"pc-table-n{n}", i), i < trials."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return [hitting_time(EdgeThresholdTable.generate(n, seed.stream(f"pc-table-n{n}", i)), f)
            for i in range(trials)]


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    z = 1.96   # the normal 97.5% quantile
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


class MuEstimate(NamedTuple):
    mu_hat: float
    ci_lo: float
    ci_hi: float


def _mu_estimate(times: list[int], p: float) -> MuEstimate:
    """mu_hat(p), the share of the battery's graphs at p that are F-free."""
    grid = _p_to_grid(p)
    free = sum(1 for t in times if t >= grid)
    lo, hi = wilson_interval(free, len(times))
    return MuEstimate(free / len(times), lo, hi)


def estimate_mu(n: int, p: float, f: PatternGraph, trials: int, seed: Seed) -> MuEstimate:
    """Fraction of G(n, p) samples that are F-free, with Wilson interval."""
    return mu_curve(n, [p], f, trials, seed)[0]


def mu_curve(n: int, ps: list[float], f: PatternGraph, trials: int,
             seed: Seed) -> list[MuEstimate]:
    """estimate_mu at every p in `ps`, from one pass over the battery."""
    for p in ps:
        _p_to_grid(p)
    times = hitting_times(n, f, trials, seed)
    return [_mu_estimate(times, p) for p in ps]


class ThresholdEstimate(NamedTuple):
    n: int
    pattern: str
    p_hat: float
    mu_at_p_hat: float   # with ci_lo and ci_hi, the MuEstimate at p_hat
    ci_lo: float
    ci_hi: float
    trials: int
    seed: int
    tolerance: float
    trace: tuple[tuple[float, float], ...]  # (p, mu_hat) probes, probe order


def estimate_pc(n: int, f: PatternGraph, trials: int, tolerance: float,
                seed: Seed) -> ThresholdEstimate:
    """Bisection of [0, 1], to a relative tolerance, for the p with mu_hat(p) = 1/2."""
    if n < f.vertex_count:
        raise ValueError(f"n={n} < pattern vertex count {f.vertex_count}: mu is constant 1")
    if not 0 < tolerance < float("inf"):   # before any table is drawn
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    times = hitting_times(n, f, trials, seed)
    trace = []

    def below_half(p: float) -> bool:
        mu_hat = _mu_estimate(times, p).mu_hat
        trace.append((p, mu_hat))
        return mu_hat < 0.5

    p_hat = _bisect_budget(below_half, tolerance, relative=True).value
    return ThresholdEstimate(n, f.to_text(), p_hat, *_mu_estimate(times, p_hat),
                             trials, seed.master, tolerance, tuple(trace))


class ScalingFit(NamedTuple):
    pattern: str
    points: tuple[tuple[int, float], ...]
    slope: float
    intercept: float
    target_slope: float


def scaling_fit(f: PatternGraph, n_list: list[int], trials: int,
                tolerance: float, seed: Seed) -> ScalingFit:
    """Least-squares slope of log p_hat against log n; target is -1/m(F)."""
    if len(n_list) < 3 or sorted(n_list) != list(n_list) or len(set(n_list)) != len(n_list):
        raise ValueError("need at least 3 strictly increasing n values")
    m = m_density(f)   # refuses a too-large F before any estimate
    if m == 0:
        raise ValueError(f"pattern {f.to_text()!r} has m(F) = 0: p_c = 0 and has no log")
    points = [(n, estimate_pc(n, f, trials, tolerance, seed).p_hat) for n in n_list]
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(p) for _, p in points]
    x_mean, y_mean = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    slope = (math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
             / math.fsum((x - x_mean) ** 2 for x in xs))
    return ScalingFit(f.to_text(), tuple(points), slope, y_mean - slope * x_mean,
                      -1.0 / float(m))
