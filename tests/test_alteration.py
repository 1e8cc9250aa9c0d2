import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ffree import alteration, density
from ffree.alteration import (
    EPSILON,
    InapplicableFamilyError,
    WeightedFamily,
    family_weight,
    greedy_maximal_packing,
    lemma2_trial,
    lemma_constants,
    min_family_edges,
    random_family,
    random_member,
    refute_certificate,
)
from ffree.cli import main
from ffree.exact_tiny import lp_min_cost, qf_exact
from ffree.graphs import LabeledGraph, PRESETS, PatternGraph, parse_pattern
from ffree.sampling import Seed, sample_gnp
from ffree.subiso import _search_order, contains_copy, enumerate_copies, pack_copies

from oracles import (enumerate_copies_oracle, greedy_packing_oracle, miss_probabilities,
                     numpy_stream, random_member_oracle)


TRIANGLE = PRESETS["triangle"]
C4 = PRESETS["C4"]
K4 = PRESETS["K4"]
P3 = PRESETS["P3"]


def test_constants_examples():
    assert EPSILON == pytest.approx(1.0 / (6 * math.e ** 2))
    assert lemma_constants(TRIANGLE, 10).delta == pytest.approx(1 / 12)
    assert lemma_constants(C4, 10).delta == pytest.approx(1 / 16)
    assert lemma_constants(P3, 10).delta == pytest.approx(1 / 9)
    c = lemma_constants(TRIANGLE, 100)
    # m2(triangle) = 2, so the admissible ceiling is eps * 100^(-1/2)
    assert c.admissible_p_max == pytest.approx(EPSILON / 10)


def test_packing_k4_worked_example():
    # complete graph on 4 vertices packs exactly one triangle under the
    # lexicographic copy order, leaving a star at vertex 3
    g = LabeledGraph.complete(4)
    result = greedy_maximal_packing(g, TRIANGLE)
    assert result.copies == (0b111,)   # the triangle on pairs 0, 1, 2
    remaining = sorted(result.altered.edges())
    assert remaining == [(0, 3), (1, 3), (2, 3)]
    assert not contains_copy(result.altered, TRIANGLE)


def test_packing_disjointness_and_maximality_k5():
    g = LabeledGraph.complete(5)
    result = greedy_maximal_packing(g, TRIANGLE)
    seen = 0
    for c in result.copies:
        assert c & seen == 0
        seen |= c
    assert seen == result.source.bits & ~result.altered.bits
    assert not contains_copy(result.altered, TRIANGLE)


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 9), st.floats(0.1, 0.9), st.integers(0, 2**62),
       st.sampled_from(["triangle", "C4", "K4", "P4"]))
def test_packing_properties(n, p, master, name):
    pattern = PRESETS[name]
    g = sample_gnp(n, p, Seed(master), purpose="pack-prop")
    result = greedy_maximal_packing(g, pattern)
    seen = 0
    for c in result.copies:
        assert c & ~g.bits == 0       # copies live in the source
        assert c & seen == 0          # pairwise edge-disjoint
        seen |= c
    assert result.altered.bits == g.bits & ~seen
    # deleting the packed copies removes every copy of the packing pattern
    assert not contains_copy(result.altered, pattern)


def _oracle_work(n: int, p: float, j: PatternGraph) -> float:
    """The partial maps the copy oracle expects to visit on G(n, p): n^i times
    p to the number of pattern edges among the first i search positions."""
    work, edges = 0.0, 0
    for i, prev in enumerate(_search_order(j)[1], 1):
        edges += len(prev)
        work += n ** i * p ** edges
    return work


@st.composite
def _packing_patterns(draw) -> PatternGraph:
    """A pattern on 3..7 vertices with at least two edges; vertices may be isolated."""
    k = draw(st.integers(3, 7))
    pairs = [(u, v) for v in range(k) for u in range(v)]
    return PatternGraph.from_edges(
        draw(st.lists(st.sampled_from(pairs), min_size=2, unique=True)), k)


@settings(max_examples=150, deadline=None)
@given(_packing_patterns(), st.integers(2, 14), st.floats(0.0, 1.0), st.integers(0, 2**62))
def test_packing_matches_sorted_scan_oracle(j, n, p, master):
    # the first-fit walk over pair ids keeps what a scan of every copy in
    # sorted order keeps; hosts the oracle would take seconds on are skipped
    assume(_oracle_work(n, p, j) <= 20000)
    g = sample_gnp(n, p, Seed(master), purpose="pack-oracle")
    result = greedy_maximal_packing(g, j)
    want = greedy_packing_oracle(enumerate_copies_oracle(g, j))
    assert list(result.copies) == want
    assert result.altered.bits == g.bits & ~sum(want)


@pytest.mark.parametrize("spec", ["0-1", "n=3 0-1"])
@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 2**62))
def test_one_edge_pattern_packs_a_greedy_matching(spec, n, p, master):
    # the walk packs a one-edge J as it enumerates it: a greedy matching by
    # pair id, and none on a host too small for J's vertices
    j = parse_pattern(spec)
    g = sample_gnp(n, p, Seed(master), purpose="pack-matching")
    assert pack_copies(g, j) == greedy_packing_oracle(enumerate_copies_oracle(g, j))


def test_packing_refuses_one_edge_pattern():
    with pytest.raises(ValueError, match="at least two edges"):
        greedy_maximal_packing(LabeledGraph.complete(4), parse_pattern("0-1"))


_PETERSEN_HOST = LabeledGraph(10, LabeledGraph.from_edges(10, PRESETS["petersen"].edges).bits
                              | sample_gnp(10, 0.5, Seed(3), purpose="dense-host").bits)


# every preset with a vertex of degree >= 2: seeded hosts of the sizes the
# alteration benchmark packs, a petersen host with 24 copies, complete hosts
@pytest.mark.parametrize("name, host", [
    ("triangle", (1000, 0.01)), ("triangle", (240, 0.00145)), ("C4", (200, 0.05)),
    ("K4", (120, 0.25)), ("K5", (40, 0.5)), ("C5", (60, 0.1)), ("P3", (100, 0.05)),
    ("P4", (100, 0.05)), ("petersen", (60, 0.1)), ("petersen", _PETERSEN_HOST),
    ("K4", LabeledGraph.complete(12)), ("K5", LabeledGraph.complete(10)),
    ("C5", LabeledGraph.complete(9)),
], ids=lambda x: x if isinstance(x, str) else str(getattr(x, "n", x)))
def test_packing_matches_oracle_on_large_hosts(name, host):
    g = host if isinstance(host, LabeledGraph) else sample_gnp(*host, Seed(31), purpose="pack")

    def ids(masks):
        # each copy as its sorted edge ids: a failure report cannot print an
        # edge mask of up to 2^499500, past the int-to-str digit limit
        return [tuple(LabeledGraph(g.n, c).edge_ids()) for c in masks]
    copies = enumerate_copies_oracle(g, PRESETS[name])
    assert ids(enumerate_copies(g, PRESETS[name])) == ids(copies)
    assert ids(greedy_maximal_packing(g, PRESETS[name]).copies) == ids(
        greedy_packing_oracle(copies))


def test_in_regime_is_p_at_most_the_cap(capsys):
    # in_regime is p <= admissible_p_max, in a trial record and in `alter`;
    # the cap itself is in the regime
    n = 50
    cap = lemma_constants(TRIANGLE, n).admissible_p_max
    empty = WeightedFamily((), ())
    for p, want in [(cap / 2, True), (cap, True), (2 * cap, False)]:
        assert lemma2_trial(n, p, TRIANGLE, empty, Seed(5)).in_regime is want
        assert main(["alter", "--pattern", "triangle", "--n", str(n),
                     "--p", repr(p), "--seed", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["p"] == p and doc["in_regime"] is want and doc["f_free"]


def test_family_condition_examples():
    n, p = 20, 0.3
    delta = lemma_constants(TRIANGLE, n).delta
    dense = WeightedFamily((LabeledGraph.complete(n),), (1.0,))
    assert family_weight(dense, p, delta) <= 0.5
    edgeless = WeightedFamily((LabeledGraph.empty(n),), (1.0,))
    assert not family_weight(edgeless, p, delta) <= 0.5


def test_family_weight_validation():
    g = LabeledGraph.complete(4)
    with pytest.raises(ValueError):
        WeightedFamily((g,), (0.5, 0.5))
    with pytest.raises(ValueError):
        WeightedFamily((g,), (-1.0,))


def test_lemma2_trial_identity_and_schema(capsys):
    n, p = 40, 0.2
    # one member with all 780 pairs of [40]: the family is K_40 alone
    assert main(["lemma2", "--pattern", "triangle", "--n", str(n), "--p", str(p),
                 "--family-size", "1", "--family-edges", "780", "--trials", "1",
                 "--seed", "11"]) == 0
    d = json.loads(capsys.readouterr().out)["records"][0]
    assert set(d) == {"seed", "trial_index", "n", "p", "in_regime",
                      "hits", "hit_all", "missed_weight"}
    h = d["hits"][0]
    assert set(h) == {"h_index", "e_H", "shared_raw", "event_E",
                      "touched_copies", "event_D", "shared_altered"}
    # the conditional-hit identity: both events imply a surviving shared edge
    if h["event_E"] and h["event_D"]:
        assert h["shared_altered"] >= 1
    assert d["hit_all"] == (d["missed_weight"] == 0.0)
    # the trial's altered graph, kept out of the JSON record, is F-free
    rec = lemma2_trial(n, p, TRIANGLE, WeightedFamily((LabeledGraph.complete(n),), (1.0,)),
                       Seed(11))
    assert h["shared_altered"] == rec.altered.edge_count
    assert not contains_copy(rec.altered, TRIANGLE)


# every preset on at most 5 vertices with a degree-2 vertex, at each n from v(F) to 5
_TINY_LEMMA2 = [(name, n) for name in ("triangle", "C4", "K4", "C5", "P3", "P4", "K5")
                for n in range(PRESETS[name].vertex_count, 6)]


@pytest.mark.parametrize("name, n", _TINY_LEMMA2, ids=[f"{f}-n{n}" for f, n in _TINY_LEMMA2])
def test_lemma2_exact_at_tiny_n(name, n):
    # Lemma 2 on the exact law of G_{n,p}(J): each altered graph of the 2^C(n,2)
    # graphs on [n] is F-free, and P(G(J) misses H) <= exp(-delta e(H) p) for every
    # nonempty H over the pairs, at the p cap and at 1/256; math.exp is scaled down by
    # a relative 1e-12 so that its rounding cannot pass a failing bound
    f = PRESETS[name]
    consts = lemma_constants(f, n)
    pairs = n * (n - 1) // 2
    altered = [greedy_maximal_packing(LabeledGraph(n, g), consts.j).altered.bits
               for g in range(1 << pairs)]
    assert not any(contains_copy(LabeledGraph(n, a), f) for a in set(altered))
    slack = 1 - Fraction(1, 10 ** 12)
    for p in (Fraction(consts.admissible_p_max), Fraction(1, 256)):
        miss = miss_probabilities(altered, pairs, p)
        for h in range(1, 1 << pairs):
            bound = math.exp(-consts.delta * h.bit_count() * float(p))
            assert miss[h] <= Fraction(bound) * slack, (name, n, p, h)
    # the dual side, a lower bound on q_f: a law nu of F-free graphs A with
    # nu(A inside S) <= (1 - p)^(C(n,2) - |S|) / c for every S makes each fractional
    # certificate cost at least c.  nu is the law of G_{n,p'}(J) at p' = k/16, c(p, p')
    # the least such ratio, and the largest p where some c exceeds 1/2 is below q_f
    grid = [k / 16 for k in range(1, 16)]
    full = (1 << pairs) - 1
    laws = [[(pairs - s.bit_count(), miss[full ^ s]) for s in range(1 << pairs)
             if miss[full ^ s] > 0]
            for miss in (miss_probabilities(altered, pairs, q) for q in grid)]
    certified = 0.0
    for p in grid:
        c = max(min((1 - p) ** gap / nu for gap, nu in law) for law in laws)
        assert lp_min_cost(n, p, f) >= c - 1e-12, (name, n, p, c)
        if c > 0.5:
            certified = p
    assert 0 < certified < qf_exact(n, f).value, (name, n, certified)


def test_m2_witness_computed_once_per_pattern(capsys):
    # the witness J walks every vertex subset of F in Fraction: each trial,
    # each alteration and `alter` read it from one cache, shared with m2(F)
    density._best_subset.cache_clear()
    n, p = 30, 0.1
    fam = WeightedFamily((LabeledGraph.complete(n),), (1.0,))
    patterns = [C4, K4, PRESETS["petersen"]]
    for f in patterns:
        for i in range(3):
            lemma2_trial(n, p, f, fam, Seed(5), i)
            alteration.alteration_graph(n, p, f, Seed(5), index=i)
        assert main(["alter", "--pattern", f.to_text(), "--n", str(n),
                     "--p", str(p), "--seed", "5"]) == 0
    capsys.readouterr()
    info = density._best_subset.cache_info()
    assert (info.misses, info.currsize) == (len(patterns), len(patterns)), info


def test_lemma2_hit_rate_on_dense_family():
    # at n=40, p=0.2 a family of complete-graph complements minus a few
    # edges is hit essentially always
    n, p, k = 40, 0.2, 3
    delta = lemma_constants(TRIANGLE, n).delta
    e_min = min_family_edges(k, p, delta)
    fam = random_family(n, k, e_min, Seed(17))
    assert family_weight(fam, p, delta) <= 0.5
    hits = sum(lemma2_trial(n, p, TRIANGLE, fam, Seed(17), i).hit_all
               for i in range(50))
    assert hits >= 45


def test_refute_empty_family_trivial():
    fam = WeightedFamily((), ())
    res = refute_certificate(fam, TRIANGLE, 10, 0.2, 5, Seed(0))
    assert res.success
    assert res.graph == LabeledGraph.empty(10)


def test_refute_rejects_thin_family():
    # the certificate K_8 has an edgeless complement, so the condition on the
    # complement family cannot hold
    complements = WeightedFamily((LabeledGraph.complete(8).complement(),), (1.0,))
    with pytest.raises(InapplicableFamilyError):
        refute_certificate(complements, TRIANGLE, 8, 0.2, 5, Seed(0))


def test_refute_produces_escape_graph(monkeypatch):
    # each trial builds its graph once: the escape check reuses it
    calls = []
    build = alteration.alteration_graph
    monkeypatch.setattr(alteration, "alteration_graph",
                        lambda *a, **kw: calls.append(a) or build(*a, **kw))
    n, p, k = 40, 0.2, 3
    delta = lemma_constants(TRIANGLE, n).delta
    e_min = min_family_edges(k, p, delta)
    full = n * (n - 1) // 2
    gen = numpy_stream(23, "refute-fam")
    # members whose complements have at least e_min edges
    members = tuple(random_member(n, full - e_min, gen) for _ in range(k))
    complements = WeightedFamily(tuple(m.complement() for m in members), (1.0,) * k)
    res = refute_certificate(complements, TRIANGLE, n, p, 30, Seed(23))
    assert res.success
    assert len(calls) == len(res.trials)
    g = res.graph
    assert g is res.trials[-1].altered   # the successful trial's graph
    assert not contains_copy(g, TRIANGLE)
    for m in members:
        assert g.bits & ~m.bits != 0  # not a subgraph of any member


def test_min_family_edges_monotone():
    delta = lemma_constants(TRIANGLE, 50).delta
    assert min_family_edges(3, 0.2, delta) == math.ceil(math.log(6) / (delta * 0.2))
    assert min_family_edges(10, 0.2, delta) >= min_family_edges(3, 0.2, delta)


@pytest.mark.parametrize("n, edge_count", [
    (1, 0), (2, 0), (2, 1), (7, 0), (7, 10), (7, 21), (40, 300), (240, 24793),
])
def test_random_member_matches_bit_loop(n, edge_count):
    for i in range(3):
        got = random_member(n, edge_count, numpy_stream(41, "member", i))
        want = random_member_oracle(n, edge_count, numpy_stream(41, "member", i))
        assert got == want
        assert got.edge_count == edge_count
    with pytest.raises(ValueError):
        random_member(n, n * (n - 1) // 2 + 1, numpy_stream(41, "member"))
    with pytest.raises(ValueError, match="got -1"):
        random_member(n, -1, numpy_stream(41, "member"))
