import numpy as np
import pytest
from hypothesis import given, strategies as st

from ffree.graphs import (
    LabeledGraph,
    PatternGraph,
    PRESETS,
    PatternParseError,
    pair_endpoints,
    pair_index,
    parse_pattern,
)

from oracles import edge_ids_oracle, pair_from_index_oracle


def test_pair_index_examples():
    assert pair_index(0, 1, 4) == 0
    assert pair_index(1, 2, 4) == 2
    assert pair_index(0, 3, 4) == 3


def test_pair_index_rejects_bad_pairs():
    with pytest.raises(ValueError):
        pair_index(2, 2, 5)
    with pytest.raises(ValueError):
        pair_index(3, 1, 5)
    with pytest.raises(ValueError):
        pair_index(0, 5, 5)


@given(st.integers(2, 64), st.data())
def test_pair_index_roundtrip(n, data):
    v = data.draw(st.integers(1, n - 1))
    u = data.draw(st.integers(0, v - 1))
    k = pair_index(u, v, n)
    assert 0 <= k < n * (n - 1) // 2
    assert pair_endpoints([k]) == ([u], [v])


def test_pair_endpoints_decode_each_row_n3000():
    # from the encode side, independent of the decoder: row v holds the ids
    # v(v-1)/2 + u of the pairs (u, v), u < v; every id below 3000*2999/2
    for v in range(1, 3000):
        u = np.arange(v)
        assert pair_endpoints(v * (v - 1) // 2 + u) == (u.tolist(), [v] * v), v


def test_pair_endpoints_match_isqrt_oracle_n300():
    m = 300 * 299 // 2
    want_u, want_v = zip(*map(pair_from_index_oracle, range(m)))
    assert pair_endpoints(np.arange(m)) == (list(want_u), list(want_v))


def test_pair_endpoints_near_triangular_numbers():
    # float64 sqrt(8k + 1) is checked where it is tightest: the first and
    # last ids of rows v, up to v = 9e7
    rows = sorted({*range(1, 200), *np.geomspace(200, 9e7, 400).astype(int).tolist()})
    ids = [k for v in rows for t in [v * (v - 1) // 2]
           for k in (t, t + 1, t + v - 2, t + v - 1) if t <= k < t + v]
    assert list(zip(*pair_endpoints(ids))) == [pair_from_index_oracle(k) for k in ids]
    assert pair_endpoints([]) == ([], [])


def test_pair_index_bijection_small():
    for n in range(2, 12):
        seen = {pair_index(u, v, n) for v in range(n) for u in range(v)}
        assert seen == set(range(n * (n - 1) // 2))


def test_parse_triangle_and_preset():
    t = parse_pattern("0-1 1-2 0-2")
    assert t.vertex_count == 3 and t.edge_count == 3
    assert parse_pattern("triangle") == t


def test_parse_isolated_override():
    g = parse_pattern("n=4 0-1")
    assert g.vertex_count == 4
    assert g.edges == ((0, 1),)


@pytest.mark.parametrize("bad", ["0-0", "1-", "n=1 0-3", "0_1", "", "Triangle", "k4"])
def test_parse_errors(bad):
    with pytest.raises(PatternParseError):
        parse_pattern(bad)


def test_parse_serialize_idempotent():
    for name, pat in PRESETS.items():
        assert parse_pattern(pat.to_text()) == pat
        assert parse_pattern(name) == pat


def test_complement_examples():
    assert LabeledGraph.empty(3).complement() == LabeledGraph.complete(3)
    assert LabeledGraph.complete(4).complement() == LabeledGraph.empty(4)


@given(st.integers(1, 12), st.integers(0, 2**40))
def test_complement_involution_and_count(n, raw):
    g = LabeledGraph(n, raw % (1 << (n * (n - 1) // 2)))
    assert g.complement().complement() == g
    assert g.edge_count + g.complement().edge_count == n * (n - 1) // 2


def test_induced_subgraph_examples():
    k4 = PRESETS["K4"]
    assert k4.induced({0, 1, 2}) == PRESETS["triangle"]
    assert PRESETS["triangle"].induced({0, 1}).edges == ((0, 1),)
    p3 = PRESETS["P3"]
    got = p3.induced({0, 2})
    assert got.vertex_count == 2 and got.edge_count == 0


def test_induced_rejects_foreign_vertices():
    with pytest.raises(ValueError):
        PRESETS["triangle"].induced({0, 3})


def test_pattern_invariants_enforced():
    with pytest.raises(ValueError, match="pattern must have at least one vertex"):
        PatternGraph.from_edges([])
    with pytest.raises(ValueError):
        PatternGraph(2, ((0, 0),))
    with pytest.raises(ValueError):
        PatternGraph(2, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        PatternGraph(1, ((0, 1),))


def test_labeled_graph_invariants_enforced():
    with pytest.raises(ValueError, match="n must be positive"):
        LabeledGraph(0, 0)
    with pytest.raises(ValueError, match="edge bits out of range"):
        LabeledGraph(3, 8)
    with pytest.raises(ValueError, match="edge bits out of range"):
        LabeledGraph(3, -1)


def test_labeled_graph_edges_roundtrip():
    g = LabeledGraph.from_edges(5, [(0, 1), (2, 4), (1, 3)])
    assert g.edge_count == 3
    assert LabeledGraph.from_edges(5, g.edges()) == g
    assert g.bits >> pair_index(2, 4, 5) & 1 and not g.bits >> pair_index(0, 4, 5) & 1


@given(st.integers(1, 40), st.integers(0, 2**800), st.randoms(use_true_random=False))
def test_from_ids_matches_from_edges(n, raw, rnd):
    pairs = [(u, v) for v in range(n) for u in range(v)]   # colex order
    ids = [k for k in range(len(pairs)) if raw >> k & 1]
    edges = [pairs[k] for k in ids]
    shuffled = ids + ids[:len(ids) // 2]   # in any order, with repeats
    rnd.shuffle(shuffled)
    g = LabeledGraph.from_ids(n, shuffled)
    assert g == LabeledGraph.from_edges(n, edges)
    assert g.edges() == edges


@given(st.integers(1, 40), st.integers(0, 2**800))
def test_edge_ids_match_peel_oracle(n, raw):
    pairs = n * (n - 1) // 2
    for g in (LabeledGraph(n, raw % (1 << pairs)), LabeledGraph.empty(n),
              LabeledGraph.complete(n)):
        assert g.edge_ids() == edge_ids_oracle(g)
    assert LabeledGraph(2, 1).edge_ids() == [0]
