import math
import random
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from ffree import exact_tiny, thresholds
from ffree.exact_tiny import mu_exact, pc_exact
from ffree.graphs import PRESETS, PatternGraph, parse_pattern
from ffree.sampling import EdgeThresholdTable, Seed, _p_to_grid, coupled_realize
from ffree.subiso import contains_copy
from ffree.thresholds import (
    estimate_mu,
    estimate_pc,
    hitting_time,
    mu_curve,
    scaling_fit,
    wilson_interval,
)

from oracles import hitting_time_oracle, mu_oracle, numpy_stream, pc_bisection_oracle

TRIANGLE = PRESETS["triangle"]


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 100)[0] == 0.0
    assert wilson_interval(100, 100)[1] == pytest.approx(1.0)
    lo_n, hi_n = wilson_interval(500, 1000)
    assert hi_n - lo_n < hi - lo  # narrows with sample size


def test_mu_extremes():
    # mu is the probability the sample is pattern-free
    assert estimate_mu(4, 0.0, TRIANGLE, 50, Seed(1)).mu_hat == 1.0
    assert estimate_mu(4, 1.0, TRIANGLE, 50, Seed(1)).mu_hat == 0.0


def test_mu_known_value_n3():
    # Pr[G(3, 1/2) is triangle-free] = 1 - (1/2)^3
    est = estimate_mu(3, 0.5, TRIANGLE, 4000, Seed(9))
    assert est.ci_lo <= 0.875 <= est.ci_hi


def test_pc_known_value_n3():
    # mu = 1 - p^3 at n = 3, so the level-1/2 point is 2^(-1/3)
    est = estimate_pc(3, TRIANGLE, 2000, 0.02, Seed(4))
    truth = 0.5 ** (1 / 3)
    assert abs(est.p_hat - truth) <= 0.05
    # the shared coupled battery makes the bisection trace monotone:
    # mu estimates non-increasing in the probe point
    for (p1, m1) in est.trace:
        for (p2, m2) in est.trace:
            if p1 < p2:
                assert m1 >= m2


def test_pc_decreasing_in_n():
    a = estimate_pc(6, TRIANGLE, 600, 0.05, Seed(2)).p_hat
    b = estimate_pc(12, TRIANGLE, 600, 0.05, Seed(2)).p_hat
    assert b < a


def test_pc_deterministic():
    x = estimate_pc(5, TRIANGLE, 400, 0.05, Seed(77))
    y = estimate_pc(5, TRIANGLE, 400, 0.05, Seed(77))
    assert x == y


def test_scaling_fit_slope():
    fit = scaling_fit(TRIANGLE, [8, 16, 32], 300, 0.05, Seed(6))
    assert fit.target_slope == pytest.approx(-1.0)
    assert -1.5 < fit.slope < -0.5


def test_scaling_fit_input_validation():
    with pytest.raises(ValueError):
        scaling_fit(TRIANGLE, [8, 16], 100, 0.05, Seed(0))
    with pytest.raises(ValueError):
        scaling_fit(TRIANGLE, [16, 8, 32], 100, 0.05, Seed(0))


def test_scaling_fit_refuses_a_large_pattern_before_estimating(monkeypatch):
    # m(F) is computed first, so a pattern past the density limit costs no trials
    def estimate_pc(*args):
        raise AssertionError("estimate_pc ran before the pattern size was checked")

    monkeypatch.setattr(thresholds, "estimate_pc", estimate_pc)
    path17 = PatternGraph.from_edges([(i, i + 1) for i in range(16)], 17)
    with pytest.raises(ValueError, match="pattern too large"):
        scaling_fit(path17, [17, 18, 19], 10, 0.05, Seed(0))


def test_scaling_fit_refuses_an_edgeless_pattern_before_estimating(monkeypatch):
    # an edgeless F has p_c = 0 at every n, so log p_c is undefined
    def estimate_pc(*args):
        raise AssertionError("estimate_pc ran on an edgeless pattern")

    monkeypatch.setattr(thresholds, "estimate_pc", estimate_pc)
    with pytest.raises(ValueError, match=r"m\(F\) = 0"):
        scaling_fit(parse_pattern("n=3"), [3, 4, 5], 10, 0.05, Seed(0))


# presets, a disconnected pattern, one with an isolated vertex, one edgeless,
# a one-edge plan with no third search position, and a star with two roots
HITTING_PATTERNS = ["triangle", "C4", "K4", "P3", "C5", "0-1 2-3", "n=4 0-1 1-2", "n=2",
                    "0-1", "0-1 0-2 0-3"]


@pytest.mark.parametrize("text", HITTING_PATTERNS)
def test_hitting_time_matches_realized_search(text):
    # contains_copy(coupled_realize(t, p), F) == (T < grid(p)) for every p:
    # at the extremes, at random p, and on either side of T itself
    f = parse_pattern(text)
    gen = numpy_stream(5, "hitting-p")
    for n in (1, 3, 4, 5, 8, 12):
        for i in range(12):
            table = EdgeThresholdTable.generate(n, Seed(11).stream(f"ht-{n}", i))
            t = hitting_time(table, f)
            probes = [0.0, 1.0, *gen.random(6).tolist()]
            if 0 <= t < 1 << 64:
                near = t / 2.0 ** 64
                probes += [near, math.nextafter(near, 1.0)]
            for p in probes:
                assert contains_copy(coupled_realize(table, p), f) == (t < _p_to_grid(p)), (n, i, p)


def _table(n: int, marks) -> EdgeThresholdTable:
    """A table drawn in full in which pair id k has mark marks[k]; equal marks
    arrive in id order."""
    marks = [int(m) for m in marks]
    assert len(marks) == n * (n - 1) // 2
    table = EdgeThresholdTable.generate(n, random.Random(0))
    table.ids.extend(sorted(range(len(marks)), key=marks.__getitem__))
    table.marks.extend(marks[k] for k in table.ids)
    return table


@pytest.mark.parametrize("text", HITTING_PATTERNS)
def test_hitting_time_equals_full_sort_oracle(text):
    f = parse_pattern(text)
    for n in (1, 2, 3, 5, 8, 17, 18, 24, 40, 64, 128):
        for i in range(6 if n < 64 else 3):
            table = EdgeThresholdTable.generate(n, Seed(12).stream(f"oracle-{n}", i))
            assert hitting_time(table, f) == hitting_time_oracle(table, f), (n, i)


def test_hitting_time_equals_oracle_p3_n300():
    for i in range(3):
        table = EdgeThresholdTable.generate(300, Seed(12).stream("oracle-300", i))
        assert hitting_time(table, PRESETS["P3"]) == hitting_time_oracle(table, PRESETS["P3"])


def _tied_tables(n: int):
    """Tables of coarse marks, so many tie, with a tenth of the pairs at the
    ends of the grid, 0 and 2^64 - 1."""
    size = n * (n - 1) // 2
    gen = numpy_stream(21, f"ties-{n}")
    for levels in (8, 64, 512, 4096):
        u = gen.integers(0, levels, size, dtype=np.uint64) * np.uint64((1 << 64) // levels)
        at = gen.choice(size, size // 10, replace=False)
        u[at] = gen.choice(np.array([0, (1 << 64) - 1], dtype=np.uint64), len(at))
        yield _table(n, u)


@pytest.mark.parametrize("n", [18, 24, 40, 64])
def test_hitting_time_tied_marks(n):
    # tied arrivals enter the coupled graph together, at the p above their mark
    for table in _tied_tables(n):
        for text in ("triangle", "C4", "K4", "P3", "0-1 2-3", "petersen"):
            f = parse_pattern(text)
            t = hitting_time(table, f)
            assert t == hitting_time_oracle(table, f), text
            if 0 <= t < 1 << 64:
                for p in (t / 2.0 ** 64, math.nextafter(t / 2.0 ** 64, 1.0)):
                    assert contains_copy(coupled_realize(table, p), f) == (t < _p_to_grid(p))


@pytest.mark.parametrize("n", [5, 8, 18, 24, 33])
def test_hitting_time_complete_pattern_is_last_arrival(n):
    # F = K_n on n vertices completes only with the last arrival, so its mark
    # is the truth here (the prefix-search oracle tries every increasing run
    # of the full-degree vertices: 11 s for one K24 table).  From n = 18 the
    # last vertex's pairs get the top marks: a random order would leave
    # full-degree vertices that the rooted search tries in every increasing
    # run before each arrival
    f = PatternGraph.from_edges([(i, j) for j in range(n) for i in range(j)])
    size = n * (n - 1) // 2
    for i in range(3):
        gen = numpy_stream(13, f"kn-{n}", i)
        u = gen.integers(0, 1 << 64, size, dtype=np.uint64)
        if n >= 18:
            u.sort()
            gen.shuffle(u[:size - n + 1])
            gen.shuffle(u[size - n + 1:])
        assert hitting_time(_table(n, u), f) == int(u.max())
    # all marks tied: the last arrival is the last pair id
    table = _table(n, [7] * size)
    assert table.ids[-1] == size - 1
    assert hitting_time(table, f) == 7


def test_hitting_time_complete_pattern_random_marks_under_time_limit(deadline):
    # F = K_k on k vertices with unsorted random marks: before the last
    # arrival up to k - 2 vertices have full degree, and each rooted search
    # must place them in one order only (K16 did not finish in 30 s before)
    deadline(10)
    for k in range(3, 17):
        f = PatternGraph.from_edges([(i, j) for j in range(k) for i in range(j)])
        for i in range(3):
            u = numpy_stream(17, f"kk-{k}", i).integers(0, 1 << 64, k * (k - 1) // 2,
                                                        dtype=np.uint64)
            assert hitting_time(_table(k, u), f) == int(u.max()), (k, i)


@pytest.mark.parametrize("text", ["triangle", "C4", "K4", "0-1 2-3", "n=4 0-1 1-2"])
@pytest.mark.parametrize("tolerance", [0.05, 0.01])
def test_estimate_pc_equals_bisection_oracle(text, tolerance):
    f = parse_pattern(text)
    for n in (f.vertex_count, 9, 16):
        for seed in (Seed(3), Seed(40)):
            assert (estimate_pc(n, f, 60, tolerance, seed)
                    == pc_bisection_oracle(n, f, 60, tolerance, seed)), (n, seed)


@pytest.mark.parametrize("text", ["triangle", "C4", "K4", "0-1 2-3", "n=4 0-1 1-2"])
def test_estimate_mu_equals_realizing_oracle(text):
    f = parse_pattern(text)
    grid = [0.0, 0.05, 0.2, 0.45, 0.8, 1.0]
    for n in (3, 8, 16):
        want = [mu_oracle(n, p, f, 50, Seed(8)) for p in grid]
        assert mu_curve(n, grid, f, 50, Seed(8)) == want
        assert [estimate_mu(n, p, f, 50, Seed(8)) for p in grid] == want


@pytest.mark.parametrize("text", ["triangle", "C4"])
def test_mu_curve_and_estimate_pc_read_one_battery(text):
    # every mu_hat of a pc estimate, the probes' and the one at p_hat, is the
    # mu_curve value at that p with the same trials and seed
    f = parse_pattern(text)
    for n in (8, 16):
        for seed in (Seed(3), Seed(40)):
            est = estimate_pc(n, f, 60, 0.02, seed)
            curve = mu_curve(n, [p for p, _ in est.trace] + [est.p_hat], f, 60, seed)
            assert [mu.mu_hat for mu in curve[:-1]] == [mu for _, mu in est.trace]
            assert curve[-1] == (est.mu_at_p_hat, est.ci_lo, est.ci_hi)


def test_estimate_pc_of_an_edgeless_pattern_is_zero():
    # every graph on n >= 3 vertices contains F = 3 isolated vertices: mu_p = 0
    f = parse_pattern("n=3")
    est = estimate_pc(5, f, 20, 0.05, Seed(0))
    assert est.p_hat == pc_exact(5, f) == 0.0
    assert est.trace == ((1.0, 0.0), (0.0, 0.0))


@pytest.mark.parametrize("tolerance", [0.0, -0.1, float("nan"), float("inf")])
def test_estimate_pc_refuses_a_bad_tolerance_before_drawing(monkeypatch, tolerance):
    def hitting_times(*args):
        raise AssertionError("a table was drawn before the tolerance was checked")

    monkeypatch.setattr(thresholds, "hitting_times", hitting_times)
    with pytest.raises(ValueError, match="tolerance"):
        estimate_pc(8, TRIANGLE, 10, tolerance, Seed(0))


# The Monte Carlo layer against the exact layer at n <= 6.  mu_hat(p) is the
# empirical survival function of the hitting times and mu_exact(p) its law, so by
# the Dvoretzky-Kiefer-Wolfowitz inequality with Massart's constant (Ann. Probab.
# 18:1269, 1990), P(sup_p |mu_hat - mu_exact| > eps) <= 2 exp(-2 N eps^2) for N
# tables: at a false-failure rate of 1e-6 per case, eps = 0.0190 for N = 20000.
EXACT_LAW_TABLES = 20_000
EXACT_LAW_EPS = math.sqrt(math.log(2 / 1e-6) / (2 * EXACT_LAW_TABLES))


def _p_at(n: int, f: PatternGraph, level: float) -> float:
    """The p with mu_exact(n, p, F) = level; mu_exact falls strictly on [0, 1]."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mu_exact(n, mid, f) >= level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("text, n", [("triangle", 4), ("triangle", 5), ("C4", 5), ("P3", 5),
                                     ("K4", 5), ("C5", 5), ("P4", 5), ("triangle", 6),
                                     ("C4", 6), ("P3", 6), ("K4", 6), ("C5", 6)],
                         ids=lambda v: str(v))
def test_hitting_times_follow_the_exact_law(monkeypatch, text, n):
    # one battery serves both checks: the hitting times estimate_pc computes.
    # The exact layer is capped at n = 5, but its census takes 0.02-0.11 s at n = 6
    monkeypatch.setattr(exact_tiny, "N_CAP", 6)
    f = parse_pattern(text)
    batteries = []
    hitting_times = thresholds.hitting_times
    monkeypatch.setattr(thresholds, "hitting_times",
                        lambda *args: batteries.append(hitting_times(*args)) or batteries[-1])
    est = estimate_pc(n, f, EXACT_LAW_TABLES, 0.01, Seed(11))
    times = sorted(batteries[0])
    # mu_hat is constant between its jumps and mu_exact is monotone, so the sup
    # is attained on either side of a jump: at p = T / 2^64, mu_hat steps from
    # #{T_i >= T} / N down to #{T_i > T} / N
    size = len(times)
    sup = max(max(abs(size - bisect_left(times, t) - size * mu),
                  abs(size - bisect_right(times, t) - size * mu)) / size
              for t in set(times) for mu in [mu_exact(n, t / 2.0 ** 64, f)])
    assert sup <= EXACT_LAW_EPS, sup
    # under the same event, mu_hat(lo) >= 1/2 > mu_hat(hi) puts the final bracket
    # [lo, hi] across [p(1/2 + eps), p(1/2 - eps)]
    lo = max(p for p, mu in est.trace if mu >= 0.5)
    hi = min(p for p, mu in est.trace if mu < 0.5)
    assert lo <= _p_at(n, f, 0.5 - EXACT_LAW_EPS), (lo, est.p_hat)
    assert hi >= _p_at(n, f, 0.5 + EXACT_LAW_EPS), (hi, est.p_hat)
