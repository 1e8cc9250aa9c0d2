"""End-to-end acceptance battery.

Each test here states a deliverable contract with its tolerance. Densities
are isomorphism invariants, so the exhaustive small-graph checks run over
one representative per isomorphism class (the networkx atlas) instead of
all labeled graphs.
"""

import builtins
import json
import math
import time

import networkx as nx
import pytest

from ffree.alteration import (
    InapplicableFamilyError,
    WeightedFamily,
    alteration_graph,
    family_weight,
    lemma2_trial,
    lemma_constants,
    random_family,
    refute_certificate,
)
from ffree.cli import main
from ffree.density import (
    density_gap_check,
    m2_density,
    m_density,
    minimal_m2_subgraph,
)
from ffree.exact_tiny import (
    _instance,
    gap_report,
    lp_min_cost,
    pc_exact,
    q_exact,
    qf_exact,
)
from ffree.graphs import LabeledGraph, PRESETS, PatternGraph
from ffree.sampling import Seed
from ffree.subiso import contains_copy
from ffree.thresholds import mu_curve, scaling_fit
from fractions import Fraction

from oracles import density_oracle, lp_bfs_oracle, numpy_stream

TRIANGLE = PRESETS["triangle"]
C4 = PRESETS["C4"]
K4 = PRESETS["K4"]


def _atlas_patterns():
    out = []
    for g in nx.graph_atlas_g()[1:]:
        if g.number_of_nodes() > 6:
            continue
        nodes = sorted(g.nodes())
        relab = {v: i for i, v in enumerate(nodes)}
        out.append(PatternGraph.from_edges(
            [(relab[u], relab[v]) for u, v in g.edges()],
            max(len(nodes), 1)))
    return out


def test_density_oracle_equivalence():
    # catalog presets plus one representative of every isomorphism class
    # on at most 6 vertices, against the brute-force enumeration; < 60 s
    start = time.monotonic()
    todo = list(PRESETS.values()) + [p for p in _atlas_patterns() if p.edges]
    for pat in todo:
        om, om2 = density_oracle(pat)
        assert m_density(pat) == om, pat.to_text()
        if pat.vertex_count >= 3:
            assert m2_density(pat) == om2, pat.to_text()
    assert time.monotonic() - start < 60.0


def test_two_density_gap_exhaustive():
    # every graph on <= 6 vertices with max degree >= 2 has m2 > m
    for pat in _atlas_patterns():
        if pat.max_degree() < 2:
            continue
        rep = density_gap_check(pat)
        assert rep.gap_holds, pat.to_text()
        assert rep.m2 > rep.m


def test_alteration_output_is_pattern_free():
    # 1000 runs per pattern at n = 50, p = admissible_p_max; < 120 s
    start = time.monotonic()
    n, runs = 50, 1000
    for name, pat in [("triangle", TRIANGLE), ("C4", C4), ("K4", K4)]:
        p = lemma_constants(pat, n).admissible_p_max
        seed = Seed(2024)
        for i in range(runs):
            result = alteration_graph(n, p, pat, seed, index=i)
            assert not contains_copy(result.altered, pat), (name, i)
    assert time.monotonic() - start < 120.0


def test_conditional_hit_identity_and_envelopes():
    # the runs of the previous criterion, replayed against generated
    # adversary families meeting the weight condition; the hit identity is
    # exact, and the miss rates of both events respect the proof envelopes
    n, runs, k = 50, 1000, 3
    member_edges = 600
    for pat in (TRIANGLE, C4, K4):
        consts = lemma_constants(pat, n)
        p = consts.admissible_p_max
        fam = random_family(n, k, member_edges, Seed(31), weight=0.1)
        assert family_weight(fam, p, consts.delta) <= 0.5
        not_e = [0] * k
        not_d = [0] * k
        for i in range(runs):
            rec = lemma2_trial(n, p, pat, fam, Seed(2024), trial_index=i)
            if all(h.event_E and h.event_D for h in rec.hits):
                assert rec.hit_all  # exact, not statistical
            for h in rec.hits:
                not_e[h.h_index] += not h.event_E
                not_d[h.h_index] += not h.event_D
        for j in range(k):
            e_h = fam.members[j].edge_count
            e_j = minimal_m2_subgraph(pat).edge_count
            env_e = math.exp(-e_h * p / 8)
            env_d = math.exp(-e_h * p / (3 * e_j))
            se_e = math.sqrt(env_e * (1 - env_e) / runs)
            se_d = math.sqrt(env_d * (1 - env_d) / runs)
            assert not_e[j] / runs <= env_e + 3 * se_e
            assert not_d[j] / runs <= env_d + 3 * se_d


def test_threshold_scaling_slopes():
    # log-log slope of p_c against n targets -1/m(F) = -1 for both
    # patterns; 500 trials per probe, 5% bisection tolerance; < 10 min
    start = time.monotonic()
    for pat in (TRIANGLE, C4):
        fit = scaling_fit(pat, [16, 32, 64, 128], 500, 0.05, Seed(424242))
        assert fit.target_slope == pytest.approx(-1.0)
        assert abs(fit.slope - (-1.0)) <= 0.15, fit
    assert time.monotonic() - start < 600.0


def test_paper_gap_at_the_constructions_constants():
    # the alteration construction certifies q_f >= eps n^(-1/m2) =
    # admissible_p_max, while p_c = Theta(n^(-1/m)) falls faster, so mu at that
    # p drops below 1/2 as n grows.  For P3 (m = 2/3, m2 = 1), 100 tables under
    # Seed(7) read mu_hat 0.76 at n = 1024 and 0.07 at n = 8192: at n = 8192,
    # p_c < eps n^(-1/m2) <= q_f.  A Wilson interval over 100 tables lies above
    # 1/2 iff >= 60 are F-free and below iff <= 40, so were mu equal to those
    # estimates, a fresh seed would fail with probability Pr(Bin(100, 0.76) < 60)
    # = 1.3e-4 plus Pr(Bin(100, 0.07) > 40) = 5e-15 (6.2e-2 and 1.8e-11 at the
    # Wilson ends 0.668 and 0.137)
    p3 = PRESETS["P3"]
    for n, above_half in [(1024, True), (8192, False)]:
        [est] = mu_curve(n, [lemma_constants(p3, n).admissible_p_max], p3, 100, Seed(7))
        assert (est.ci_lo > 0.5 if above_half else est.ci_hi < 0.5), (n, est)


def test_exact_tiny_chain():
    # n = 3 triangle closed forms
    assert pc_exact(3, TRIANGLE) == pytest.approx(0.5 ** (1 / 3), abs=1e-9)
    q3 = q_exact(3, TRIANGLE)
    qf3 = qf_exact(3, TRIANGLE)
    assert q3.value == pytest.approx(5 / 6, abs=1e-6 + q3.tolerance)
    assert qf3.value == pytest.approx(5 / 6, abs=1e-6 + qf3.tolerance)
    # chain at the remaining tiny instances
    for n, pat in [(4, TRIANGLE), (4, C4), (5, TRIANGLE)]:
        rep = gap_report(n, pat)
        slack = 1e-6 + rep.tolerance
        assert rep.chain_holds
        assert rep.pc <= rep.qf + slack
        assert rep.qf <= rep.q + 2 * slack
    # LP optimum against rational basic-feasible-solution enumeration
    for n, pat, p in [(3, TRIANGLE, Fraction(7, 10)),
                      (4, TRIANGLE, Fraction(1, 2))]:
        inst = _instance(n, pat)
        elements, candidates = inst.elements, inst.candidates
        want = lp_bfs_oracle(elements, candidates, n * (n - 1) // 2, p)
        got = lp_min_cost(n, float(p), pat)
        assert got == pytest.approx(float(want), abs=1e-9)


def test_refutation_harness_n60():
    # a 10-member unit-weight certificate whose complements meet the weight
    # condition at p = admissible_p_max, refuted within 50 trials.  On
    # n = 60 no such family exists, so the refutation runs at n = 218, the
    # smallest n where one does, and the n = 60 refusal is checked instead.
    k = 10

    def densest(n):
        # the densest complements any family can have are complete graphs;
        # if even those fail the condition, no admissible family exists
        consts = lemma_constants(TRIANGLE, n)
        p = consts.admissible_p_max
        fam = WeightedFamily(tuple(LabeledGraph.complete(n) for _ in range(k)), (1.0,) * k)
        weight = k * math.exp(-consts.delta * (n * (n - 1) // 2) * p)
        return p, family_weight(fam, p, consts.delta) <= 0.5, weight

    n = 218
    p, ok, weight = densest(n)
    assert ok, (
        f"no {k}-member family on {n} vertices satisfies the weight "
        f"condition at p = {p:.6g}: even complete complements give total "
        f"weight {weight:.3f} > 1/2")
    # 218 is the minimum: one vertex fewer and even the densest family fails
    assert not densest(n - 1)[1]
    certificate = tuple(LabeledGraph.empty(n) for _ in range(k))
    complements = WeightedFamily(tuple(g.complement() for g in certificate), (1.0,) * k)
    res = refute_certificate(complements, TRIANGLE, n, p, 50, Seed(7))
    assert res.success
    assert not contains_copy(res.graph, TRIANGLE)
    for member in certificate:
        assert res.graph.bits & ~member.bits != 0

    # on 60 vertices the same certificate is refused, with the weight stated
    p60, ok60, _ = densest(60)
    assert not ok60
    empty60 = tuple(LabeledGraph.empty(60) for _ in range(k))
    with pytest.raises(InapplicableFamilyError,
                       match=r"complement family weight 6\.508 > 1/2 "
                             r"at p=0\.00291195, delta=0\.08333"):
        refute_certificate(WeightedFamily(tuple(g.complement() for g in empty60), (1.0,) * k),
                           TRIANGLE, 60, p60, 50, Seed(7))


def test_chernoff_utility_bound():
    draws = numpy_stream(99, "acceptance-chernoff").binomial(200, 0.1, size=100_000)
    freq = float((draws <= 10).mean())
    bound = math.exp(-2.5)
    se = math.sqrt(bound * (1 - bound) / 100_000)
    assert freq <= bound + 3 * se


CLI_RUNS = [
    ["density", "--pattern", "petersen"],
    ["sample", "--n", "25", "--p", "0.3", "--seed", "17"],
    ["alter", "--pattern", "triangle", "--n", "50", "--p", "0.003",
     "--seed", "17"],
    ["mu-sweep", "--pattern", "C4", "--n", "8", "--p-grid", "0.1,0.3,0.5",
     "--trials", "300", "--seed", "17"],
    ["pc", "--pattern", "triangle", "--n", "16", "--trials", "300",
     "--tol", "0.05", "--seed", "17"],
    ["scaling", "--pattern", "triangle", "--n-list", "8,12,16",
     "--trials", "200", "--tol", "0.05", "--seed", "17"],
    ["lemma2", "--pattern", "triangle", "--n", "40", "--p", "0.2",
     "--family-size", "3", "--trials", "10", "--seed", "17"],
    ["refute", "--pattern", "triangle", "--n", "40", "--p", "0.2",
     "--family-size", "3", "--budget", "30", "--seed", "17"],
    ["exact-q", "--pattern", "triangle", "--n", "4"],
    ["exact-qf", "--pattern", "triangle", "--n", "4"],
    ["gap", "--pattern", "triangle", "--n", "4"],
    ["exact-q", "--pattern", "P3", "--n", "5"],   # the smallest run searching below q's root
]
# a run is named by its subcommand; a subcommand's later runs add their pattern
CLI_RUN_IDS = [a[0] if [b[0] for b in CLI_RUNS].index(a[0]) == i else f"{a[0]}-{a[2]}"
               for i, a in enumerate(CLI_RUNS)]


def _sum_refusing_floats(items, start=0, *, _sum=builtins.sum):
    items = list(items)
    if any(isinstance(x, float) for x in (start, *items)):
        raise TypeError("a float total needs math.fsum: builtin sum rounds it "
                        "differently from Python 3.12 on")
    return _sum(items, start)


@pytest.mark.parametrize("argv", CLI_RUNS, ids=CLI_RUN_IDS)
def test_reproducibility_byte_identical(tmp_path, monkeypatch, argv):
    # every float total goes through math.fsum, so the bytes do not depend on the
    # interpreter's builtin sum
    monkeypatch.setattr(builtins, "sum", _sum_refusing_floats)
    outs = []
    for tag in ("a", "b"):
        dest = tmp_path / f"{tag}.out"
        assert main(argv + ["--out", str(dest)]) == 0
        outs.append(dest.read_bytes())
    assert outs[0] == outs[1]
