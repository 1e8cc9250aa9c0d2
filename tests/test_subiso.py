import itertools
import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from ffree.graphs import LabeledGraph, PatternGraph, PRESETS, pair_index, parse_pattern
from ffree.sampling import EdgeThresholdTable, Seed, sample_gnp
from ffree.subiso import (_DEEPEST, _edge_roots, _embeddings, _host, _plan, _search_order,
                          _walk, contains_copy, enumerate_copies, first_completing_edge,
                          pack_copies)
from ffree.thresholds import hitting_time

from oracles import (copies_oracle, edge_roots_oracle, embeddings_oracle,
                     enumerate_copies_oracle, greedy_packing_oracle, hitting_time_oracle,
                     least_embeddings_oracle, plan_oracle)

TRIANGLE = PRESETS["triangle"]
C5_GRAPH = LabeledGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def _ids(mask: int) -> tuple[int, ...]:
    """The pair indices of an edge mask, increasing."""
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


def _least_images(g: LabeledGraph, pat: PatternGraph) -> dict:
    """The embeddings _embeddings yields under _plan's order constraints,
    keyed by the sorted edge ids of their copies."""
    plan, above = _plan(pat)
    pos = {v: i for i, v in enumerate(plan[0])}
    found = {}
    for images in _embeddings(*_host(g, max(plan[2])), plan, above=above):
        ids = tuple(sorted(pair_index(*sorted((images[pos[u]], images[pos[v]])), g.n)
                           for u, v in pat.edges))
        assert ids not in found   # one embedding per copy
        found[ids] = images
    return found


def test_contains_examples():
    assert contains_copy(LabeledGraph.complete(4), TRIANGLE)
    assert not contains_copy(C5_GRAPH, TRIANGLE)
    k22 = LabeledGraph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert contains_copy(k22, PRESETS["C4"])


def test_isolated_pattern_vertices_need_room():
    pat = parse_pattern("n=4 0-1")  # one edge plus two isolated vertices
    assert contains_copy(LabeledGraph.complete(4), pat)
    assert not contains_copy(LabeledGraph.complete(3), pat)


def test_enumerate_examples():
    assert len(enumerate_copies(LabeledGraph.complete(4), TRIANGLE)) == 4
    assert enumerate_copies(C5_GRAPH, TRIANGLE) == []
    tri_graph = LabeledGraph.complete(3)
    copies = enumerate_copies(tri_graph, TRIANGLE)
    assert len(copies) == 1
    assert copies == [0b111]


def test_enumeration_sorted_and_deduped():
    g = LabeledGraph.complete(5)
    copies = enumerate_copies(g, TRIANGLE)
    assert len(copies) == 10  # C(5,3)
    ids = [_ids(c) for c in copies]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 7), st.data(),
       st.sampled_from(["triangle", "C4", "P3", "P4", "K4"]))
def test_enumeration_matches_permutation_oracle(n, data, pattern_name):
    pat = PRESETS[pattern_name]
    bits = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    g = LabeledGraph(n, bits)
    copies = enumerate_copies(g, pat)
    got = {_ids(c) for c in copies}
    assert got == copies_oracle(g, pat)
    assert contains_copy(g, pat) == bool(got)
    assert copies == enumerate_copies_oracle(g, pat)


# every preset, plus disconnected patterns whose automorphisms swap components
ALL_PATTERNS = {**PRESETS, "0-1 2-3": parse_pattern("0-1 2-3"),
                "0-1 1-2 3-4": parse_pattern("0-1 1-2 3-4")}


@pytest.mark.parametrize("pattern_name", sorted(ALL_PATTERNS))
@settings(max_examples=25, deadline=None)
@given(st.data(), st.floats(0.3, 0.7), st.integers(0, 2**62))
def test_enumeration_matches_automorphism_walk(pattern_name, data, p, master):
    # one embedding per copy, the least image tuple, in edge-id order
    pat = ALL_PATTERNS[pattern_name]
    n = data.draw(st.integers(pat.vertex_count, 10))
    g = sample_gnp(n, p, Seed(master), purpose="enum-oracle")
    copies = enumerate_copies(g, pat)
    assert copies == enumerate_copies_oracle(g, pat)
    assert len(set(copies)) == len(copies)
    assert _least_images(g, pat) == least_embeddings_oracle(g, pat)


def _dense(p, master):
    return sample_gnp(10, p, Seed(master), purpose="dense-host")


def test_enumeration_in_dense_hosts():
    petersen = LabeledGraph.from_edges(10, PRESETS["petersen"].edges)
    cases = [(LabeledGraph.complete(7), "K5", math.comb(7, 5)),
             (LabeledGraph.complete(7), "C5", math.comb(7, 5) * 12),
             (LabeledGraph.complete(6), "0-1 2-3", 3 * math.comb(6, 4)),
             (LabeledGraph.complete(5), "0-1 1-2 3-4", 5 * math.comb(4, 2)),
             (petersen, "petersen", 1),
             (_dense(0.85, 4), "K5", 44),
             (LabeledGraph(10, petersen.bits | _dense(0.5, 3).bits),
              "petersen", 36)]
    for g, name, count in cases:
        copies = enumerate_copies(g, ALL_PATTERNS[name])
        assert len(copies) == count, name
        assert copies == enumerate_copies_oracle(g, ALL_PATTERNS[name])
        assert _least_images(g, ALL_PATTERNS[name]) == least_embeddings_oracle(
            g, ALL_PATTERNS[name])


@pytest.mark.parametrize("name, roots", [
    ("triangle", 1), ("C4", 1), ("K4", 1), ("C5", 1), ("petersen", 1),
    ("K5", 1), ("P3", 2), ("P4", 3), ("0-1 2-3", 1), ("0-1 1-2 3-4", 3),
])
def test_edge_roots_one_per_edge_orbit(name, roots):
    assert len(_edge_roots(ALL_PATTERNS[name])) == roots


def _complete_minus_edge(k: int) -> PatternGraph:
    """K_k less the edge 0-1."""
    return PatternGraph(k, tuple(itertools.combinations(range(k), 2))[1:])


# plus dense patterns whose searches of F in itself fail late
ROOT_PATTERNS = {**ALL_PATTERNS, **{f"K{k}-e": _complete_minus_edge(k) for k in (6, 8)}}


@pytest.mark.parametrize("name", sorted(ROOT_PATTERNS))
def test_plans_and_roots_match_generator_oracle(name):
    # the same search orders, order constraints and orbit roots (each orbit's
    # first oriented edge in f.edges order) as closing orbits under generators
    f = ROOT_PATTERNS[name]
    assert _plan(f) == plan_oracle(f)[:2]
    for e in (e for u, v in f.edges for e in ((u, v), (v, u))):
        assert _plan(f, e) == plan_oracle(f, e)[:2]
    assert _edge_roots(f) == edge_roots_oracle(f)


def test_edge_roots_of_dense_pattern_are_fast(deadline):
    # searches of F in itself map each vertex to one of equal degree; with
    # degree >= d domains they fail late, and K12 - e took ~24 s
    deadline(2)
    f = _complete_minus_edge(12)
    assert _edge_roots(f) == tuple(_plan(f, e) for e in [(0, 2), (2, 0), (2, 3)])


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 7), st.data())
def test_sharing_counting_envelope(n, data):
    # distinct J-copies touching H stay below e_J (v_J-2)! e(H) n^{v_J-2}
    pat = PRESETS["triangle"]
    npairs = n * (n - 1) // 2
    g = LabeledGraph(n, data.draw(st.integers(0, (1 << npairs) - 1)))
    h = LabeledGraph(n, data.draw(st.integers(0, (1 << npairs) - 1)))
    cnt = sum(1 for c in enumerate_copies(g, pat) if c & h.bits)
    c_j = pat.edge_count * 1  # (v_J - 2)! = 1 for the triangle
    assert cnt <= c_j * h.edge_count * n ** (pat.vertex_count - 2)


@st.composite
def _patterns(draw, max_vertices=6):
    nv = draw(st.integers(2, max_vertices))
    pairs = list(itertools.combinations(range(nv), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8, unique=True))
    return PatternGraph(nv, tuple(sorted(edges)))


@settings(max_examples=200, deadline=None)
@given(_patterns(), st.integers(2, 9), st.floats(0.2, 0.9), st.integers(0, 2**62), st.data())
def test_embeddings_equal_recursive_oracle(f, n, p, master, data):
    # the same embeddings in the same order, with and without root and above
    g = sample_gnp(n, p, Seed(master), purpose="kernel-oracle")
    first_edge = data.draw(st.sampled_from([(), *f.edges, *(e[::-1] for e in f.edges)]))
    plan = _search_order(f, first_edge)
    k = len(plan[0])
    root = tuple(data.draw(st.lists(st.integers(0, n - 1), max_size=min(k, n, 3), unique=True)))
    above = data.draw(st.sampled_from(["none", "symmetry", "random"]))
    if above == "none":
        above = None
    elif above == "symmetry":
        above = _plan(f, first_edge)[1]
    else:
        above = [data.draw(st.lists(st.integers(0, i - 1), max_size=2)) if i else []
                 for i in range(k)]
    adj, ge = _host(g, max(plan[2]))
    got = list(_embeddings(adj, ge, plan, root, above))
    assert got == list(embeddings_oracle(adj, [m.bit_count() for m in adj], plan, root, above))


@pytest.mark.parametrize("host, name, first_edge, root, above, degrees, count", [
    # an above constraint at a root position: 1 is not above 3
    (LabeledGraph.complete(5), "triangle", (), (3, 1), [[], [0], []], None, 0),
    (LabeledGraph.complete(5), "triangle", (), (1, 3), [[], [0], []], None, 3),
    # a root vertex outside ge[need]: vertex 0 of K4 given degree 1
    (LabeledGraph.complete(4), "triangle", (), (0, 1), None, [1, 3, 3, 3], 0),
    (LabeledGraph.complete(4), "triangle", (), (1, 2), None, [1, 3, 3, 3], 1),
    # a non-adjacent root pair, then an adjacent one, on C5
    (C5_GRAPH, "P3", (1, 0), (0, 2), None, None, 0),
    (C5_GRAPH, "P3", (1, 0), (0, 1), None, None, 1),
    # a root as long as the plan: valid, against the order, on a path, repeated
    (LabeledGraph.complete(4), "triangle", (), (0, 1, 2), None, None, 1),
    (LabeledGraph.complete(4), "triangle", (), (2, 1, 0), [[], [0], [0, 1]], None, 0),
    (LabeledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), "triangle", (), (0, 1, 2),
     None, None, 0),
    (LabeledGraph.complete(4), "triangle", (), (0, 1, 0), None, None, 0),
    # a valid root whose next position has an empty domain
    (C5_GRAPH, "triangle", (), (0, 1), None, None, 0),
])
def test_root_placement_matches_recursive_oracle(host, name, first_edge, root, above,
                                                 degrees, count):
    # each root image must lie in the domain the backtracking loop would build
    plan = _search_order(PRESETS[name], first_edge)
    adj = host.adjacency_masks()
    degrees = degrees or [m.bit_count() for m in adj]
    ge = [sum(1 << v for v, d in enumerate(degrees) if d >= k) for k in range(max(plan[2]) + 1)]
    got = list(_embeddings(adj, ge, plan, root, above))
    assert got == list(embeddings_oracle(adj, degrees, plan, root, above))
    assert len(got) == count


def _complete(k: int) -> PatternGraph:
    return PatternGraph.from_edges(list(itertools.combinations(range(k), 2)))


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 8), st.integers(0, 2), st.data())
def test_contains_copy_near_complete_matches_networkx(k, extra, data):
    # near-complete hosts and patterns: many full-degree vertices, so the
    # search relies on its symmetry breaking; networkx's VF2 checks the answer
    n = k + extra
    pairs = list(itertools.combinations(range(n), 2))
    missing = set(data.draw(st.lists(st.sampled_from(pairs), max_size=3)))
    g = LabeledGraph.from_edges(n, [e for e in pairs if e not in missing])
    kpairs = list(itertools.combinations(range(k), 2))
    gone = set(data.draw(st.lists(st.sampled_from(kpairs), max_size=2)))
    f = PatternGraph.from_edges([e for e in kpairs if e not in gone], vertex_count=k)
    host = nx.Graph(g.edges())
    host.add_nodes_from(range(n))
    pat = nx.Graph(f.edges)
    pat.add_nodes_from(range(f.vertex_count))
    want = nx.algorithms.isomorphism.GraphMatcher(host, pat).subgraph_is_monomorphic()
    assert contains_copy(g, f) == want


def test_contains_copy_dense_terminates(deadline):
    # K11 - e in K11 is absent and K11 in itself present; without symmetry
    # breaking the absent case tried the full-degree vertices in every order
    deadline(5)
    k11 = _complete(11)
    minus = PatternGraph.from_edges(k11.edges[1:])
    assert not contains_copy(LabeledGraph.from_edges(11, minus.edges), k11)
    assert contains_copy(LabeledGraph.complete(11), minus)
    assert contains_copy(LabeledGraph.complete(16), _complete(16))
    assert not contains_copy(LabeledGraph.from_edges(16, _complete(16).edges[1:]), _complete(16))


# plus a one-edge plan, with no third position, and a star, whose two roots
# differ and whose third position hangs off the centre
@pytest.mark.parametrize("name", [*PRESETS, "0-1", "0-1 0-2 0-3"])
def test_first_completing_edge_returns_the_completing_pair(name):
    # on seeded random arrival orders of every pair of K_n, the graph before
    # the pair at the returned index is F-free and the graph with it contains F
    f = parse_pattern(name)
    rng = random.Random(name)
    for n in range(f.vertex_count, f.vertex_count + 3):
        pairs = [(u, v) for v in range(n) for u in range(v)]
        for _ in range(5):
            rng.shuffle(pairs)
            i = first_completing_edge(n, iter(pairs), f)
            assert not contains_copy(LabeledGraph.from_edges(n, pairs[:i]), f), (n, pairs)
            assert contains_copy(LabeledGraph.from_edges(n, pairs[:i + 1]), f), (n, pairs)


def test_first_completing_edge_none_when_never_complete():
    # a star never completes a triangle, and K4 does not fit on 3 vertices
    star = [(0, v) for v in range(1, 8)]
    assert first_completing_edge(8, iter(star), TRIANGLE) is None
    assert first_completing_edge(3, iter([(0, 1), (0, 2), (1, 2)]), PRESETS["K4"]) is None


# every preset, disconnected patterns, and a star whose two roots differ
WALK_PATTERNS = {**ALL_PATTERNS, "0-1 0-2 0-3": parse_pattern("0-1 0-2 0-3")}


@pytest.mark.parametrize("name", sorted(WALK_PATTERNS))
@settings(max_examples=30, deadline=None)
@given(st.data(), st.floats(0.2, 0.8), st.integers(0, 2**62))
def test_compiled_walks_equal_interpreter(name, data, p, master):
    # at each host edge of the deleting walk, the compiled block lists the
    # copies _embeddings finds rooted there, root by root, in its order; the
    # compiled scan finds the hitting time of a search of every prefix
    f = WALK_PATTERNS[name]
    n = data.draw(st.integers(f.vertex_count, 11))
    g = sample_gnp(n, p, Seed(master), purpose="walk-oracle")
    adj, ge = _host(g, max(f.degrees()))
    walk = _walk(f, False)
    for u, v in sorted(g.edges(), key=lambda e: pair_index(*e, n)):
        want = []
        for plan, above in _edge_roots(f):
            for images in _embeddings(adj, ge, plan, (u, v), above):
                pairs = [(images[i], y) for y, prev in zip(images, plan[1]) for i in prev]
                want.append((sorted(pair_index(*sorted(e), n) for e in pairs), pairs))
        assert walk(adj, ge, u, v) == want, (u, v)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
    table = EdgeThresholdTable.generate(n, Seed(master).stream("walk-scan"))
    assert hitting_time(table, f) == hitting_time_oracle(table, f)


@pytest.mark.parametrize("j", [
    PatternGraph.from_edges([(i, (i + 1) % 24) for i in range(24)]),   # C24
    PatternGraph.from_edges([(i, i + 1) for i in range(23)]),   # the path on 24 vertices
])
def test_walks_past_the_deepest_compiled_position(j):
    # searches deeper than the positions written out go on in _embeddings:
    # 24-vertex patterns in two 26-cycles, joined by an edge, whose chords
    # (i, i + 3) skip two vertices
    assert len(_search_order(j)[0]) > _DEEPEST + 1
    edges = [(0, 26)]
    for s in (0, 26):
        edges += [(s + i, s + (i + 1) % 26) for i in range(26)]
        edges += [(s + i, s + i + 3) for i in (0, 5, 13, 19)]
    g = LabeledGraph.from_edges(52, edges)
    copies = enumerate_copies_oracle(g, j)
    assert len(greedy_packing_oracle(copies)) > 1
    assert enumerate_copies(g, j) == copies
    assert pack_copies(g, j) == greedy_packing_oracle(copies)
    pairs = g.edges()
    random.Random(24).shuffle(pairs)
    i = first_completing_edge(g.n, iter(pairs), j)
    assert not contains_copy(LabeledGraph.from_edges(g.n, pairs[:i]), j)
    assert contains_copy(LabeledGraph.from_edges(g.n, pairs[:i + 1]), j)


def test_walks_of_a_large_pattern_compile_fast(deadline):
    # 120 edge-orbit roots of 16 positions each: both walks compiled in ~0.3 s
    rng = random.Random(60)
    f = PatternGraph(16, tuple(sorted(rng.sample(list(itertools.combinations(range(16), 2)), 60))))
    assert len(_edge_roots(f)) == 120
    deadline(3)
    _walk(f, True)
    _walk(f, False)
