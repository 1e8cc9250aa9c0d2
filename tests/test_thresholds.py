import math

import numpy as np
import pytest

from ffree import thresholds
from ffree.graphs import PRESETS, PatternGraph, parse_pattern
from ffree.sampling import EdgeThresholdTable, Seed, _p_to_grid, coupled_realize
from ffree.subiso import contains_copy
from ffree.thresholds import (
    BracketError,
    _arrival_bands,
    estimate_mu,
    estimate_pc,
    hitting_time,
    mu_curve,
    scaling_fit,
    wilson_interval,
)

from oracles import hitting_time_oracle, mu_oracle, pc_bisection_oracle

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


# presets, a disconnected pattern, one with an isolated vertex, one edgeless
HITTING_PATTERNS = ["triangle", "C4", "K4", "P3", "C5", "0-1 2-3", "n=4 0-1 1-2", "n=2"]


@pytest.mark.parametrize("text", HITTING_PATTERNS)
def test_hitting_time_matches_realized_search(text):
    # contains_copy(coupled_realize(t, p), F) == (T < grid(p)) for every p:
    # at the extremes, at random p, and on either side of T itself
    f = parse_pattern(text)
    gen = Seed(5).stream("hitting-p")
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
    u = np.array(marks, dtype=np.uint64)
    assert len(u) == n * (n - 1) // 2
    return EdgeThresholdTable(n, u)


def _assert_arrivals_stable_argsort(table: EdgeThresholdTable):
    bands = list(_arrival_bands(table))
    assert np.array_equal(np.concatenate(bands), np.argsort(table.u, kind="stable"))


@pytest.mark.parametrize("text", HITTING_PATTERNS)
def test_hitting_time_equals_full_sort_oracle(text):
    # n = 17 is the largest table sorted at once; n >= 18 cuts bands
    f = parse_pattern(text)
    for n in (1, 2, 3, 5, 8, 17, 18, 24, 40, 64, 128):
        for i in range(6 if n < 64 else 3):
            table = EdgeThresholdTable.generate(n, Seed(12).stream(f"oracle-{n}", i))
            assert hitting_time(table, f) == hitting_time_oracle(table, f), (n, i)
            if n > 1:
                _assert_arrivals_stable_argsort(table)


def test_hitting_time_equals_oracle_p3_n300():
    for i in range(3):
        table = EdgeThresholdTable.generate(300, Seed(12).stream("oracle-300", i))
        assert hitting_time(table, PRESETS["P3"]) == hitting_time_oracle(table, PRESETS["P3"])


def _tied_tables(n: int):
    """Tables of coarse marks, so many tie, with a tenth of the pairs on a
    band cut (2n/size of the grid, doubling), next to one, at 0 or 2^64 - 1."""
    size = n * (n - 1) // 2
    cuts = [(2 * n << 64) // size << k for k in range(3)]
    special = [0, (1 << 64) - 1, *(c + d for c in cuts for d in (-1, 0, 1) if c + d < 1 << 64)]
    gen = Seed(21).stream(f"ties-{n}")
    for levels in (8, 64, 512, 4096):
        u = gen.integers(0, levels, size, dtype=np.uint64) * np.uint64((1 << 64) // levels)
        at = gen.choice(size, size // 10, replace=False)
        u[at] = gen.choice(np.array(special, dtype=np.uint64), len(at))
        yield _table(n, u)


@pytest.mark.parametrize("n", [18, 24, 40, 64])
def test_hitting_time_ties_and_band_cuts(n):
    for table in _tied_tables(n):
        _assert_arrivals_stable_argsort(table)
        for text in ("triangle", "C4", "K4", "P3", "0-1 2-3", "petersen"):
            f = parse_pattern(text)
            assert hitting_time(table, f) == hitting_time_oracle(table, f), text


@pytest.mark.parametrize("n", [5, 8, 18, 24, 33])
def test_hitting_time_complete_pattern_is_last_arrival(n):
    # F = K_n on n vertices completes only with the last arrival, which the
    # open-ended last band holds.  From n = 18 the last vertex's pairs get
    # the top marks: a random order would leave full-degree vertices that
    # the rooted search tries in every increasing run before each arrival
    f = PatternGraph.from_edges([(i, j) for j in range(n) for i in range(j)])
    size = n * (n - 1) // 2
    for i in range(3):
        gen = Seed(13).stream(f"kn-{n}", i)
        u = gen.integers(0, 1 << 64, size, dtype=np.uint64)
        if n >= 18:
            u.sort()
            gen.shuffle(u[:size - n + 1])
            gen.shuffle(u[size - n + 1:])
        table = _table(n, u)
        assert hitting_time(table, f) == hitting_time_oracle(table, f) == int(u.max())
    # all marks tied: the last arrival is the last pair id
    table = _table(n, [7] * size)
    assert hitting_time(table, f) == hitting_time_oracle(table, f) == 7
    _assert_arrivals_stable_argsort(table)


def test_hitting_time_complete_pattern_random_marks_under_time_limit(deadline):
    # F = K_k on k vertices with unsorted random marks: before the last
    # arrival up to k - 2 vertices have full degree, and each rooted search
    # must place them in one order only (K16 did not finish in 30 s before)
    deadline(10)
    for k in range(3, 17):
        f = PatternGraph.from_edges([(i, j) for j in range(k) for i in range(j)])
        for i in range(3):
            u = Seed(17).stream(f"kk-{k}", i).integers(0, 1 << 64, k * (k - 1) // 2,
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


def test_bracket_error_is_a_usage_error():
    # K5 on 5 vertices: 2 of 3 tables still K5-free at the top endpoint
    with pytest.raises(BracketError, match="^thresholds: ") as info:
        estimate_pc(5, PRESETS["K5"], 3, 0.05, Seed(0))
    assert isinstance(info.value, ValueError)
