import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffree import exact_tiny
from ffree.cli import main
from ffree.exact_tiny import (
    PivotCapError,
    ScaleError,
    lp_min_cost,
    min_cover_cost,
    mu_exact,
    pc_exact,
    q_exact,
    qf_exact,
)
from ffree.graphs import LabeledGraph, PRESETS, parse_pattern
from ffree.subiso import contains_copy
from oracles import (
    census_from_copies_oracle,
    ffree_census_oracle,
    branch_and_bound_oracle,
    greedy_cover_oracle,
    labeled_matrix,
    labeled_packing_oracle,
    lp_bfs_oracle,
    min_cover_cost_oracle,
    partition_cover_oracle,
    pc_exact_oracle,
)

TRIANGLE = PRESETS["triangle"]
C4 = PRESETS["C4"]
P3 = PRESETS["P3"]


def maximal_ffree(n, f):
    # the edge-maximal F-free graphs on [n], as the census lists them
    return [LabeledGraph(n, b) for b in exact_tiny._ffree_census(n, f)[0]]


def test_maximal_triangle_free_n3():
    maxs = maximal_ffree(3, TRIANGLE)
    # the three 2-edge paths on 3 labeled vertices
    assert len(maxs) == 3
    assert all(g.edge_count == 2 for g in maxs)


def test_maximal_c4_free_n3():
    maxs = maximal_ffree(3, C4)
    # no 4-cycle fits on 3 vertices, so the complete graph is the
    # unique maximal member
    assert maxs == [LabeledGraph.complete(3)]


def test_maximal_members_verified_by_brute_force_n4():
    for pattern in (TRIANGLE, C4):
        maxs = set(maximal_ffree(4, pattern))
        full = LabeledGraph.complete(4).bits
        for g in maxs:
            assert not contains_copy(g, pattern)
            for e in LabeledGraph(4, full & ~g.bits).edge_ids():
                assert contains_copy(LabeledGraph(4, g.bits | (1 << e)), pattern)
        # no pattern-free graph outside the maximal list can be edge-maximal
        for bits in range(1 << 6):
            g = LabeledGraph(4, bits)
            if contains_copy(g, pattern) or g in maxs:
                continue
            grew = any(not contains_copy(LabeledGraph(4, bits | (1 << e)), pattern)
                       for e in LabeledGraph(4, full & ~bits).edge_ids())
            assert grew


@pytest.mark.parametrize("text", [*PRESETS, "0-1 2-3", "n=4 0-1 1-2", "n=3",
                                  "n=6 0-1 1-2"])
def test_census_matches_per_graph_search(text):
    pattern = parse_pattern(text)
    for n in range(2, 6):
        assert exact_tiny._ffree_census(n, pattern) == ffree_census_oracle(n, pattern)
    _census_matches_copies(pattern)


@st.composite
def _grammar_patterns(draw, max_vertices=6):
    # edge-grammar text, isolated vertices and edgeless patterns included
    nv = draw(st.integers(1, max_vertices))
    pairs = list(itertools.combinations(range(nv), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True)) if pairs else []
    return parse_pattern(" ".join([f"n={nv}", *(f"{u}-{v}" for u, v in edges)]))


def _census_matches_copies(f):
    # the census permutes [n] over all of F's vertices, isolated ones too,
    # which is enumerate_copies' rule that F must fit on the host's vertices
    for n in range(2, 6):
        census = exact_tiny._ffree_census(n, f)
        assert census == census_from_copies_oracle(n, f), n
        if not f.edge_count:
            # an edgeless F that fits on [n] is in every graph, else in none
            m, fits = n * (n - 1) // 2, n >= f.vertex_count
            assert census == (() if fits else ((1 << m) - 1,),
                              tuple(0 if fits else math.comb(m, e) for e in range(m + 1))), n


@settings(max_examples=60, deadline=None)
@given(_grammar_patterns())
def test_census_matches_copy_enumeration(f):
    _census_matches_copies(f)


def test_min_cover_closed_form_n3():
    # the three 2-edge paths are covered either by the complete graph
    # at weight (1-p)^0 = 1 or by the paths themselves at (1-p) each
    for p in [0.1, 0.3, 0.5, 0.7, 0.9]:
        expected = min(1.0, 3 * (1 - p))
        assert min_cover_cost(3, p, TRIANGLE) == pytest.approx(expected)


def test_min_cover_p_one_is_zero():
    assert min_cover_cost(3, 1.0, TRIANGLE) == pytest.approx(0.0)


def test_min_cover_matches_partition_oracle():
    # C4 at n=4 has 12 maximal members, whose partition count is out of
    # reach for the oracle, so it is checked only at n=3
    cases = [(3, TRIANGLE, 3), (3, C4, 3), (4, TRIANGLE, 6)]
    for n, pattern, m in cases:
        maxs = maximal_ffree(n, pattern)
        got = min_cover_cost(n, 0.9, pattern)
        want = partition_cover_oracle([g.bits for g in maxs], m,
                                      Fraction(9, 10))
        assert got == pytest.approx(float(want), abs=1e-9)


@pytest.mark.parametrize("text", [*PRESETS, "0-1 2-3", "n=4 0-1 1-2", "n=3"])
def test_min_cover_cost_matches_amortized_oracle(text):
    # the oracle prunes by per-element amortized weights, not by LP prices
    f = parse_pattern(text)
    cases = [(n, k / 64) for n in (3, 4) for k in range(65)]
    if text in ("P4", "K4", "K5", "0-1 2-3"):
        cases += [(5, k / 16) for k in range(17)]
    for n, p in cases:
        inst = exact_tiny._instance(n, f)
        want = min_cover_cost_oracle(inst.elements, inst.candidates, inst.weights(p))
        assert min_cover_cost(n, p, f) == want, (n, p)


def test_q_exact_known_values():
    q3 = q_exact(3, TRIANGLE)
    assert not q3.degenerate
    assert q3.value == pytest.approx(5 / 6, abs=2 * q3.tolerance)
    q4 = q_exact(4, TRIANGLE)
    assert q4.value == pytest.approx(0.661163, abs=1e-3)


def test_q_degenerate_case():
    # every graph on 3 vertices is C4-free, so the only maximal member is
    # the complete graph and the cover cost is 1 at every p
    q = q_exact(3, C4)
    assert q.degenerate
    assert q.value == 1.0


def test_lp_at_most_integral():
    for (n, pattern) in [(3, TRIANGLE), (4, TRIANGLE), (4, C4)]:
        for p in [0.2, 0.5, 0.8]:
            lp_val = lp_min_cost(n, p, pattern)
            assert lp_val <= min_cover_cost(n, p, pattern) + 1e-9


def test_lp_matches_rational_bfs_oracle_n3():
    inst = exact_tiny._instance(3, TRIANGLE)
    elements, candidates = inst.elements, inst.candidates
    p = Fraction(7, 10)
    want = lp_bfs_oracle(elements, candidates, 3, p)
    assert want == Fraction(9, 10)  # 3 * (1 - 7/10)
    got = lp_min_cost(3, float(p), TRIANGLE)
    assert got == pytest.approx(float(want), abs=1e-9)


def _lp_support(inst, p):
    """(optimum, {candidate: lambda > SIMPLEX_TOL}) of the labeled covering
    LP, lambda being the orbit LP's mu spread evenly over each orbit."""
    opt, mu, _ = exact_tiny._orbit_lp(inst, inst.weights(p))
    lam = exact_tiny._spread(mu, inst.candidate_orbit)
    return opt, {c: x for c, x in zip(inst.candidates, lam) if x > exact_tiny.SIMPLEX_TOL}


def test_lp_matches_scipy_linprog():
    # independent floating-point solver on the same covering LP; C4 and P3
    # at n = 5, p = 1/4 and 1/2 are where a float-tie simplex can cycle
    from scipy.optimize import linprog
    cases = [(4, TRIANGLE, (0.2, 0.5, 0.8)), (4, C4, (0.2, 0.5, 0.8)),
             (5, C4, (0.25, 0.5)), (5, P3, (0.25, 0.5))]
    for n, pattern, ps in cases:
        m = n * (n - 1) // 2
        inst = exact_tiny._instance(n, pattern)
        elements, candidates = inst.elements, inst.candidates
        for p in ps:
            costs = [(1 - p) ** (m - c.bit_count()) for c in candidates]
            a_ub = [[-1.0 if e & ~c == 0 else 0.0 for c in candidates]
                    for e in elements]
            res = linprog(costs, A_ub=a_ub, b_ub=[-1.0] * len(elements),
                          bounds=(0, None), method="highs")
            assert res.status == 0
            got, support = _lp_support(inst, p)
            assert got == pytest.approx(res.fun, abs=1e-8)
            # lambda is a feasible covering solution of that cost
            assert sum(lam * (1 - p) ** (m - c.bit_count())
                       for c, lam in support.items()) == pytest.approx(got, abs=1e-8)
            for e in elements:
                assert sum(lam for c, lam in support.items()
                           if e & ~c == 0) >= 1 - 1e-8


@pytest.mark.parametrize("text", list(PRESETS))
def test_packing_simplex_returns_optimal_packing(text):
    # y is feasible for max 1.y s.t. a y <= w, y >= 0, and both it and lambda
    # attain the optimum, so y prices the branch and bound soundly
    f = PRESETS[text]
    for n in range(2, 6):
        inst = exact_tiny._instance(n, f)
        a = labeled_matrix(inst)
        for k in range(9):
            weights = inst.weights(k / 8)
            opt, lam, y = exact_tiny._packing_simplex(a, weights)
            lam, y = np.asarray(lam), np.asarray(y)
            w = np.array(weights)
            assert (y >= -1e-12).all(), (n, k)
            assert (a @ y <= w + 1e-9).all(), (n, k)
            assert y.sum() == pytest.approx(opt, abs=1e-9), (n, k)
            assert w @ lam == pytest.approx(opt, abs=1e-9), (n, k)


@pytest.mark.parametrize("text", [*PRESETS, "0-1 2-3", "n=4 0-1 1-2", "n=3"])
def test_orbit_lp_matches_labeled_oracle(text):
    # the LP solved on S_n-orbits has the labeled LP's optimum, and its
    # solutions expanded to labeled sets are feasible and optimal there
    f = parse_pattern(text)
    for n in range(2, 6):
        inst = exact_tiny._instance(n, f)
        a = labeled_matrix(inst)
        for k in range(65):
            weights = inst.weights(k / 64)
            w = np.array(weights)
            want = labeled_packing_oracle(a, weights)[0]
            opt, mu, z = exact_tiny._orbit_lp(inst, weights)
            lam = np.asarray(exact_tiny._spread(mu, inst.candidate_orbit))
            y = np.asarray(exact_tiny._spread(z, inst.element_orbit))
            assert opt == pytest.approx(want, abs=1e-8), (n, k)
            assert (opt <= 0.5) == (want <= 0.5), (n, k)
            assert (y >= -1e-12).all() and (lam >= -1e-12).all(), (n, k)
            assert (a @ y <= w + 1e-12).all(), (n, k)
            assert (a.T @ lam >= 1 - 1e-12).all(), (n, k)
            assert w @ lam == pytest.approx(opt, abs=1e-12), (n, k)
            assert y.sum() == pytest.approx(opt, abs=1e-12), (n, k)


@pytest.mark.parametrize("text", [*PRESETS, "0-1 2-3", "n=4 0-1 1-2", "n=3"])
def test_list_simplex_is_bit_identical_to_numpy_tableau(text):
    # the list tableau makes the numpy tableau's pivots with the same float
    # operations in the same order, so every value is equal, not just close:
    # the exact golden digests rest on this
    f = parse_pattern(text)
    for n in range(2, 6):
        inst = exact_tiny._instance(n, f)
        a = np.array(inst.orbit_packing).reshape(len(inst.representatives),
                                                 len(set(inst.element_orbit)))
        for k in range(65):
            weights = [inst.weights(k / 64)[r] for r in inst.representatives]
            opt, lam, y = exact_tiny._packing_simplex(inst.orbit_packing, weights)
            want_opt, want_lam, want_y = labeled_packing_oracle(a, weights)
            assert opt == want_opt, (n, k)
            assert lam == want_lam.tolist(), (n, k)
            assert y == want_y.tolist(), (n, k)


def test_packing_exact_at_tiny_weights():
    # P3 at n = 5: the maximal F-free graphs are the 15 two-edge matchings,
    # one orbit E, so y is uniform and the optimum is min_S w(S) |E| / c(S),
    # c(S) the number of them under S.  Near p = 1 every ratio the simplex
    # compares is below 1e-9: ties taken at an absolute 1e-9 there gave 4.475e-09 for
    # 3.4964e-10 at p = 61/64 on the labeled LP, and an infeasible y from
    # p = 62/64 on the orbit LP
    inst = exact_tiny._instance(5, P3)
    a = labeled_matrix(inst)
    assert [e.bit_count() for e in inst.elements] == [2] * 15
    for k in (61, 62, 63):
        p = Fraction(k, 64)
        exact = min((1 - p) ** missing * 15 / int(covered)
                    for missing, covered in zip(inst.missing, a.sum(axis=1)))
        weights = inst.weights(float(p))
        assert exact_tiny._orbit_lp(inst, weights)[0] == pytest.approx(float(exact), abs=1e-15)
        assert labeled_packing_oracle(a, weights)[0] == pytest.approx(
            float(exact), abs=1e-15)
        if k == 61:
            assert float(exact) == pytest.approx(3.4964e-10, rel=1e-4)


@pytest.mark.parametrize("text", [*PRESETS, "0-1 2-3"])
def test_lp_certificate_is_constant_on_orbits(text):
    # the labeled lambda is the orbit LP's, spread evenly over each
    # candidate orbit: every relabeling of [n] maps the support onto itself
    # with equal values, and it covers every element at cost opt, the
    # optimum lp_min_cost reports
    f = parse_pattern(text)
    for n in (4, 5):
        m = n * (n - 1) // 2
        inst = exact_tiny._instance(n, f)
        for p in (0.25, 0.5, 0.75):
            opt, lam = _lp_support(inst, p)
            assert opt == lp_min_cost(n, p, f)
            for s, x in lam.items():
                for perm in itertools.permutations(range(n)):
                    image = LabeledGraph.from_edges(
                        n, [(perm[u], perm[v]) for u, v in LabeledGraph(n, s).edges()])
                    assert lam.get(image.bits) == x, (n, p, s, perm)
            for e in inst.elements:
                assert sum(x for s, x in lam.items() if e & ~s == 0) >= 1 - 1e-12
            assert sum(x * (1 - p) ** (m - s.bit_count())
                       for s, x in lam.items()) == pytest.approx(opt, abs=1e-12)


def test_qf_exact_solves_each_probe_through_lp_min_cost(monkeypatch):
    # the benchmark's tracer counts LP solves by rebinding the module's
    # lp_min_cost, so every q_f probe must reach the LP through that name
    calls = []
    solve = exact_tiny.lp_min_cost
    monkeypatch.setattr(exact_tiny, "lp_min_cost",
                        lambda *args: calls.append(args) or solve(*args))
    qf_exact(5, C4, 0.01)
    assert len(calls) == 9


def test_bisection_stops_at_adjacent_floats(monkeypatch, deadline):
    # no float lies strictly between lo and hi long before the bracket is
    # 1e-300 wide: the bisection stops there, at q = q_f = 5/6 for the
    # triangle at n = 3 (three paths of weight 1 - p each, or K3 of weight 1)
    deadline(30)
    calls = []
    solve = exact_tiny.lp_min_cost
    monkeypatch.setattr(exact_tiny, "lp_min_cost",
                        lambda *args: calls.append(args) or solve(*args))
    for threshold in (qf_exact, q_exact):
        t = threshold(3, TRIANGLE, 1e-300)
        assert not t.degenerate
        assert abs(t.value - 5 / 6) <= 2 ** -52, threshold
    # 1 and 0, then one probe per halving of [0, 1] down to the float spacing
    assert len(calls) <= 64


def test_candidates_are_unions_of_covered_elements():
    # a candidate covering strictly more elements is a strictly larger set,
    # so for 0 < p < 1 it is strictly heavier and no candidate dominates
    # another: the covering instance needs no domination pruning
    for pattern in PRESETS.values():
        for n in range(2, 6):
            inst = exact_tiny._instance(n, pattern)
            elements, candidates = inst.elements, inst.candidates
            assert len(set(candidates)) == len(candidates)
            for c in candidates:
                union = 0
                for e in elements:
                    if e & ~c == 0:
                        union |= e
                assert union == c


def test_pivot_cap_is_a_failure_not_a_traceback(monkeypatch, capsys):
    monkeypatch.setattr(exact_tiny, "PIVOT_CAP", 1)
    with pytest.raises(PivotCapError):
        lp_min_cost(4, 0.5, TRIANGLE)
    for command in ("exact-qf", "gap"):
        assert main([command, "--pattern", "triangle", "--n", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("failure: exact_tiny: packing simplex reached "
                              "PIVOT_CAP=1 pivots")
        assert "Traceback" not in err


def test_qf_at_most_q():
    for (n, pattern) in [(3, TRIANGLE), (4, TRIANGLE), (4, C4), (5, TRIANGLE)]:
        qf = qf_exact(n, pattern)
        q = q_exact(n, pattern)
        assert qf.value <= q.value + qf.tolerance + q.tolerance


def test_cover_cost_monotone_in_p():
    grid = [0.05 * i for i in range(1, 20)]
    costs = [min_cover_cost(4, p, TRIANGLE) for p in grid]
    for a, b in zip(costs, costs[1:]):
        assert b <= a + 1e-12


def test_mu_exact_closed_form_n3():
    for p in [0.0, 0.25, 0.5, 1.0]:
        assert mu_exact(3, p, TRIANGLE) == pytest.approx(1 - p ** 3)


def test_pc_exact_known_values():
    assert pc_exact(3, TRIANGLE) == pytest.approx(0.5 ** (1 / 3), abs=1e-9)
    assert pc_exact(4, TRIANGLE) == pytest.approx(0.579539, abs=1e-4)


@pytest.mark.parametrize("text", [*PRESETS, "0-1 2-3", "n=4 0-1 1-2"])
def test_pc_exact_matches_bisection_oracle(text):
    pattern = parse_pattern(text)
    for n in range(2, 6):
        try:
            want = pc_exact_oracle(n, pattern)
        except ValueError:
            with pytest.raises(ValueError, match="never drops below 1/2"):
                pc_exact(n, pattern)
            continue
        assert pc_exact(n, pattern) == want


def test_pc_exact_edgeless_pattern_is_zero():
    # every graph on n >= 2 vertices holds two isolated vertices: mu_p = 0
    edgeless = parse_pattern("n=2")
    for n in range(2, 6):
        assert pc_exact(n, edgeless) == 0.0
        assert 0.0 < pc_exact_oracle(n, edgeless) < 1e-12


def test_scale_cap():
    with pytest.raises(ScaleError):
        q_exact(6, TRIANGLE)


def test_mu_exact_rejects_p_outside_unit_interval():
    for p in (2.0, -0.5, math.nan):
        with pytest.raises(ValueError, match="outside"):
            mu_exact(4, p, TRIANGLE)


def test_gap_chain_holds(capsys):
    for (n, pattern) in [(3, "triangle"), (4, "triangle"), (4, "C4"), (5, "triangle")]:
        assert main(["gap", "--pattern", pattern, "--n", str(n)]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["chain_holds"]
        assert d["pc"] <= d["qf"] + 1e-4 + d["tolerance"]
        assert d["qf"] <= d["q"] + 2 * d["tolerance"]
        assert d["ratio_q_pc"] >= 1.0 - 1e-6


@pytest.mark.parametrize("n, pattern", [
    *((n, k) for n in (3, 4) for k in (*PRESETS, "0-1 2-3")),
    *((5, k) for k in ("triangle", "C5", "P4", "K4", "P3", "0-1 2-3")),
])
def test_cover_within_matches_min_cover_cost(monkeypatch, n, pattern):
    # dyadic p makes many weights exact (at p = 1/2 all are powers of 2), so
    # costs of exactly 1/2 occur; the probes are the points q_exact decides
    f = parse_pattern(pattern)
    probes = []
    decide = exact_tiny._cover_within
    monkeypatch.setattr(exact_tiny, "_cover_within",
                        lambda n, p, f: probes.append(p) or decide(n, p, f))
    q_exact(n, f)
    # min_cover_cost is non-increasing in p, so at n = 5 the answer below the
    # highest p whose cost exceeds 1/2 is no; this spares the multi-second
    # proofs of costs near 1 there
    exceeded = False
    for p in sorted({k / 64 for k in range(65)} | set(probes), reverse=True):
        want = (False if exceeded and n == 5
                else min_cover_cost(n, p, f) <= 0.5)
        exceeded = exceeded or not want
        assert decide(n, p, f) == want, p


@pytest.mark.parametrize("per_missing, within", [
    ((47, 11, 6, 5), False),   # LP optimum 7/16, optimum 33/64
    ((41, 12, 7, 3), True),    # optimum exactly 1/2, at a branch bounded by 1/2
])
def test_cover_within_branch_and_bound(monkeypatch, per_missing, within):
    # weights in 64ths by number of missing edges on the triangle instance at
    # n = 4: the LP optimum is within the budget and the greedy cover costs
    # 33/64, so the search below the LP-priced root decides
    monkeypatch.setattr(exact_tiny._Instance, "weights",
                        lambda self, p: [per_missing[e] / 64 for e in self.missing])
    inst = exact_tiny._instance(4, TRIANGLE)
    greedy = exact_tiny._branch_and_bound(inst, inst.weights(0.5), math.inf, math.inf)
    assert greedy == 33 / 64
    assert lp_min_cost(4, 0.5, TRIANGLE) <= 0.5
    assert (min_cover_cost(4, 0.5, TRIANGLE) <= 0.5) is within
    assert exact_tiny._cover_within(4, 0.5, TRIANGLE) is within


@pytest.mark.parametrize("text", [*PRESETS, "0-1 2-3", "n=4 0-1 1-2", "n=3"])
def test_greedy_cover_matches_numpy_oracle(text):
    # the lazy heap takes the candidate that rescoring every candidate takes
    # at each step, ties to the lowest index included, so the costs are equal
    f = parse_pattern(text)
    for n in range(2, 6):
        inst = exact_tiny._instance(n, f)
        a = labeled_matrix(inst)
        for k in range(65):
            weights = inst.weights(k / 64)
            assert exact_tiny._greedy_cost(inst, weights) == greedy_cover_oracle(
                a, weights), (n, k)


@pytest.mark.parametrize("text", [*PRESETS, "0-1 2-3", "n=4 0-1 1-2", "n=3"])
def test_root_bound_is_the_lp_optimum_shrunk(text):
    # the root bound is the orbit LP's packing shrunk by SIMPLEX_TOL, so that
    # float error in the LP cannot lift it to the least cover cost
    tol = exact_tiny.SIMPLEX_TOL
    f = parse_pattern(text)
    for n in range(2, 6):
        inst = exact_tiny._instance(n, f)
        for k in range(65):
            weights = inst.weights(k / 64)
            bound, z = exact_tiny._root_bound(inst, weights)
            opt = exact_tiny._orbit_lp(inst, weights)[0]
            assert min(z, default=0.0) >= 0.0, (n, k)
            assert opt * (1 - 1.5 * tol) <= bound <= opt * (1 - 0.5 * tol), (n, k)


@pytest.mark.parametrize("text", [*PRESETS, "0-1 2-3", "n=4 0-1 1-2", "n=3"])
def test_root_bound_packing_fits_every_labeled_weight(text):
    # q's search is priced by the root bound's z spread to the labeled
    # elements, which is sound only if that packing is feasible there: no
    # candidate's load exceeds its weight, exactly, in floats
    f = parse_pattern(text)
    for n in range(2, 6):
        inst = exact_tiny._instance(n, f)
        a = labeled_matrix(inst)
        for k in range(65):
            weights = inst.weights(k / 64)
            bound, z = exact_tiny._root_bound(inst, weights)
            y = np.array(exact_tiny._spread(z, inst.element_orbit))
            assert (a @ y <= np.array(weights)).all(), (n, k)
            assert math.fsum(z) == bound, (n, k)


def test_root_cut_is_inclusive(monkeypatch):
    # the root cut fires once the best cost less 1e-15 comes down to the
    # bound, equality included; a probe it does not cut spreads the root
    # bound's packing to the labeled elements and searches
    inst = exact_tiny._instance(4, TRIANGLE)
    weights = inst.weights(0.5)
    bound = exact_tiny._root_bound(inst, weights)[0]
    assert exact_tiny._greedy_cost(inst, weights) > bound + 1e-9
    edge = bound + 1e-15
    while edge - 1e-15 - bound > 0:
        edge = math.nextafter(edge, -math.inf)
    above = edge
    while above - 1e-15 - bound <= 0:
        above = math.nextafter(above, math.inf)
    assert edge - 1e-15 - bound == 0

    class Searched(Exception):
        pass

    def search(values, orbit):
        raise Searched
    monkeypatch.setattr(exact_tiny, "_spread", search)
    assert exact_tiny._branch_and_bound(inst, weights, edge, -1.0) == edge
    with pytest.raises(Searched):
        exact_tiny._branch_and_bound(inst, weights, above, -1.0)


def test_largest_candidate_seeds_the_best_cost(monkeypatch):
    # the largest candidate is the union of all elements, a cover by itself:
    # here it costs 1 and the greedy cover 1.4173, so a search for a cover
    # within 1 is decided before the root bound
    inst = exact_tiny._instance(5, parse_pattern("0-1 0-2 0-3 1-2 1-3 2-4 3-4"))
    weights = inst.weights(0.703125)
    assert weights[-1] == 1.0
    assert exact_tiny._greedy_cost(inst, weights) == pytest.approx(1.4173, abs=1e-4)

    def search(values, orbit):
        raise AssertionError("searched below the root")
    monkeypatch.setattr(exact_tiny, "_spread", search)
    assert exact_tiny._branch_and_bound(inst, weights, math.inf, 1.0) == 1.0


def _both_searches(inst, weights, incumbent, stop_at):
    # the oracle predates the one-set cover by the largest candidate, so it
    # gets that cover as part of its incumbent
    return (exact_tiny._branch_and_bound(inst, weights, incumbent, stop_at),
            branch_and_bound_oracle(inst, weights, min([incumbent, *weights[-1:]]), stop_at))


@pytest.mark.parametrize("text", [*PRESETS, "0-1 2-3", "n=4 0-1 1-2", "n=3"])
def test_branch_and_bound_matches_numpy_oracle(text, deadline):
    # the int-mask search against the numpy one that recomputes every reduced
    # weight at each node: the same decision on every probe, the same least
    # cost wherever the oracle finishes in seconds, and, with stop_at halfway
    # between that cost and the seed, the same first cover within stop_at,
    # which depends on the order in which the two search
    deadline(60)
    f = parse_pattern(text)
    for n in range(2, 6):
        inst = exact_tiny._instance(n, f)
        for k in range(65):
            weights = inst.weights(k / 64)
            got, want = _both_searches(inst, weights, 0.5 + 2e-15, 0.5)
            assert (got <= 0.5) == (want <= 0.5), (n, k)
            if text == "C4" and n == 5 and 37 <= k <= 42:   # neither finishes in seconds
                continue
            got, want = _both_searches(inst, weights, math.inf, -1.0)
            assert got == want, (n, k)
            seed = min([*weights[-1:], exact_tiny._greedy_cost(inst, weights)])
            if want < seed:
                got, first = _both_searches(inst, weights, math.inf, (want + seed) / 2)
                assert got == first, (n, k)


class _Reads(list):
    # a weight list that logs the index of every weight read: the greedy
    # cover's picks, the root bound's reads, then each child the search tries
    def __init__(self, values):
        super().__init__(values)
        self.log = []

    def __getitem__(self, i):
        if not isinstance(i, slice):
            self.log.append(int(i))
        return super().__getitem__(i)


@pytest.mark.parametrize("text", ["C4", "P3"])
def test_q_probes_search_the_numpy_oracle_tree(monkeypatch, deadline, text):
    # every probe of q at n = 5 tries the children that the numpy search
    # tries, as many times each; siblings whose reduced weights tie up to
    # rounding may come in another order.  On C4 at p = 0.6629638671875 the
    # rounding of reduced weights raised one by one, not recomputed, changes
    # which nodes are cut: 4630 nodes against 4575, with the same answer
    deadline(60)
    f = PRESETS[text]
    probes = []
    decide = exact_tiny._cover_within
    monkeypatch.setattr(exact_tiny, "_cover_within",
                        lambda n, p, f: probes.append(p) or decide(n, p, f))
    q_exact(5, f)
    inst = exact_tiny._instance(5, f)
    for p in probes:
        got, want = _Reads(inst.weights(p)), _Reads(inst.weights(p))
        within = exact_tiny._branch_and_bound(inst, got, 0.5 + 2e-15, 0.5) <= 0.5
        incumbent = min([0.5 + 2e-15, *want[-1:]])
        assert within == (branch_and_bound_oracle(inst, want, incumbent, 0.5) <= 0.5), p
        if (text, p) != ("C4", 0.6629638671875):
            assert sorted(got.log) == sorted(want.log), p


@pytest.mark.parametrize("p, within", [
    (0.66259765625, False),   # optimum 0.50137, LP optimum below 1/2
    (0.6630859375, True),     # optimum 0.49895
])
def test_cover_within_c4_n5_matches_milp(p, within):
    # the probes of q for C4 at n = 5 nearest its threshold, checked against
    # an independent integer program solved to a zero optimality gap
    from scipy.optimize import Bounds, LinearConstraint, milp
    inst = exact_tiny._instance(5, C4)
    w = inst.weights(p)
    res = milp(w, constraints=LinearConstraint(labeled_matrix(inst).T, lb=1),
               integrality=np.ones(len(w)), bounds=Bounds(0, 1),
               options={"mip_rel_gap": 0})
    assert res.success
    assert bool(res.fun <= 0.5) is within
    assert exact_tiny._cover_within(5, p, C4) is within
