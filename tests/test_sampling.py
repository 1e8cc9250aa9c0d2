import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffree.graphs import LabeledGraph
from ffree.sampling import (
    EdgeThresholdTable,
    Seed,
    chernoff_tail_bound,
    coupled_realize,
    sample_gnp,
)

from oracles import numpy_stream


def test_extreme_p():
    s = Seed(123)
    assert sample_gnp(5, 0.0, s) == LabeledGraph.empty(5)
    assert sample_gnp(5, 1.0, s) == LabeledGraph.complete(5)


def test_determinism():
    s = Seed(42)
    a = sample_gnp(100, 0.5, s)
    b = sample_gnp(100, 0.5, s)
    assert a == b
    assert sample_gnp(100, 0.5, Seed(43)) != a


def test_streams_disjoint():
    s = Seed(7)
    assert sample_gnp(50, 0.4, s, index=0) != sample_gnp(50, 0.4, s, index=1)
    assert sample_gnp(50, 0.4, s, purpose="a") != sample_gnp(50, 0.4, s, purpose="b")


def test_known_stream_frozen():
    # pin-down regression: the derivation (master, purpose, index) -> draws
    # must never change across releases or platforms: the stream's first
    # value, the arrivals (pair id, mark) of its table, and the graph at p = 1/2
    assert Seed(2024).stream("gnp", 0).random() == 0.3736177004213579
    table = EdgeThresholdTable.generate(6, Seed(2024).stream("gnp", 0))
    assert table.count_below(1 << 63) == 5
    assert list(zip(table.ids, table.marks)) == [
        (6, 566407579799749440), (8, 814387143110845952), (11, 7749419179622144000),
        (5, 7990984220929133568), (1, 8494758459912781824), (2, 9318030543383812096)]
    assert sample_gnp(6, 0.5, Seed(2024)) == LabeledGraph(6, 2402)


def test_seed_parsing_and_validation():
    assert Seed.parse("0x10").master == 16
    assert Seed.parse("12").master == 12
    with pytest.raises(ValueError):
        Seed(-1)
    with pytest.raises(ValueError):
        Seed(1 << 64)


def test_p_out_of_range():
    with pytest.raises(ValueError):
        sample_gnp(5, 1.5, Seed(0))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 40), st.floats(0, 1), st.floats(0, 1),
       st.integers(0, 2**63))
def test_coupling_monotone(n, p1, p2, master):
    lo, hi = min(p1, p2), max(p1, p2)
    table = EdgeThresholdTable.generate(n, Seed(master).stream("couple"))
    g_lo = coupled_realize(table, lo)
    g_hi = coupled_realize(table, hi)
    assert g_lo.bits & ~g_hi.bits == 0  # edge sets nested


def test_coupling_extremes():
    table = EdgeThresholdTable.generate(10, Seed(1).stream("t"))
    assert coupled_realize(table, 0.0) == LabeledGraph.empty(10)
    assert coupled_realize(table, 1.0) == LabeledGraph.complete(10)


def test_p_zero_draws_and_allocates_nothing():
    # the empty graph needs no arrival and no C(n, 2)-bit buffer (~48 MB at n = 20000)
    table = EdgeThresholdTable.generate(10, Seed(1).stream("t"))
    assert coupled_realize(table, 0.0) == LabeledGraph.empty(10)
    assert (table.marks, table.ids) == ([], [])
    tracemalloc.start()
    try:
        assert sample_gnp(20000, 0.0, Seed(1)) == LabeledGraph.empty(20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_mean_edge_count_sanity():
    n, p, reps = 50, 0.2, 10_000
    s = Seed(99)
    total = sum(sample_gnp(n, p, s, purpose="sanity", index=i).edge_count
                for i in range(reps))
    pairs = n * (n - 1) // 2
    mean = total / reps
    se = math.sqrt(pairs * p * (1 - p) / reps)
    assert abs(mean - p * pairs) <= 3 * se


def test_chernoff_values():
    assert chernoff_tail_bound(0, 0.3) == 1.0
    assert chernoff_tail_bound(80, 0.1) == pytest.approx(math.exp(-1.0))


@pytest.mark.parametrize("n_draws,p", [(100, 0.1), (200, 0.1), (400, 0.05)])
def test_chernoff_bound_holds_empirically(n_draws, p):
    reps = 100_000
    gen = numpy_stream(7, f"chernoff-{n_draws}")
    draws = gen.binomial(n_draws, p, size=reps)
    freq = float(np.mean(draws <= n_draws * p / 2))
    bound = chernoff_tail_bound(n_draws, p)
    se = math.sqrt(max(freq, 1e-12) * (1 - freq) / reps)
    assert freq <= bound + 3 * se
