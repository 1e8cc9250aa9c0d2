import math

import pytest
from hypothesis import given, settings, strategies as st

from ffree.graphs import LabeledGraph, PRESETS, parse_pattern
from ffree.sampling import Seed, sample_gnp
from ffree.subiso import (Copy, _edge_roots, contains_copy, copies_sharing_edge,
                          enumerate_copies)

from oracles import copies_oracle, enumerate_copies_oracle

TRIANGLE = PRESETS["triangle"]
C5_GRAPH = LabeledGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


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
    assert copies[0].edge_ids == (0, 1, 2)


def test_enumeration_sorted_and_deduped():
    g = LabeledGraph.complete(5)
    copies = enumerate_copies(g, TRIANGLE)
    assert len(copies) == 10  # C(5,3)
    ids = [c.edge_ids for c in copies]
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
    got = {c.edge_ids for c in copies}
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
    assert len({c.edge_ids for c in copies}) == len(copies)


def _dense(p, master):
    return sample_gnp(10, p, Seed(master), purpose="dense-host")


def test_enumeration_in_dense_hosts():
    petersen = LabeledGraph.from_edges(10, PRESETS["petersen"].edges)
    cases = [(LabeledGraph.complete(7), "K5", math.comb(7, 5)),
             (LabeledGraph.complete(7), "C5", math.comb(7, 5) * 12),
             (LabeledGraph.complete(6), "0-1 2-3", 3 * math.comb(6, 4)),
             (LabeledGraph.complete(5), "0-1 1-2 3-4", 5 * math.comb(4, 2)),
             (petersen, "petersen", 1),
             (_dense(0.85, 4), "K5", 42),
             (LabeledGraph(10, petersen.bits | _dense(0.5, 3).bits),
              "petersen", 24)]
    for g, name, count in cases:
        copies = enumerate_copies(g, ALL_PATTERNS[name])
        assert len(copies) == count, name
        assert copies == enumerate_copies_oracle(g, ALL_PATTERNS[name])


@pytest.mark.parametrize("name, roots", [
    ("triangle", 1), ("C4", 1), ("K4", 1), ("C5", 1), ("petersen", 1),
    ("K5", 1), ("P3", 2), ("P4", 3), ("0-1 2-3", 1), ("0-1 1-2 3-4", 3),
])
def test_edge_roots_one_per_edge_orbit(name, roots):
    assert len(_edge_roots(ALL_PATTERNS[name])) == roots


def test_copy_edge_mask_is_computed_once():
    c = Copy((0, 1, 2), (0, 1, 2))
    assert c.edge_mask == 0b111
    assert c == Copy((0, 1, 2), (0, 1, 2))
    assert repr(c) == "Copy(vertex_image=(0, 1, 2), edge_ids=(0, 1, 2))"
    assert hash(c) == hash(Copy((0, 1, 2), (0, 1, 2)))
    assert "edge_mask" in vars(c)


def test_sharing_examples():
    k4 = LabeledGraph.complete(4)
    h_edge = LabeledGraph.from_edges(4, [(0, 1)])
    assert copies_sharing_edge(k4, TRIANGLE, h_edge) == 2  # 012 and 013
    assert copies_sharing_edge(k4, TRIANGLE, LabeledGraph.empty(4)) == 0
    assert copies_sharing_edge(C5_GRAPH, TRIANGLE, C5_GRAPH) == 0


def test_sharing_dimension_mismatch():
    with pytest.raises(ValueError):
        copies_sharing_edge(LabeledGraph.complete(4), TRIANGLE,
                            LabeledGraph.complete(5))


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 7), st.data())
def test_sharing_counting_envelope(n, data):
    # distinct J-copies touching H stay below e_J (v_J-2)! e(H) n^{v_J-2}
    pat = PRESETS["triangle"]
    npairs = n * (n - 1) // 2
    g = LabeledGraph(n, data.draw(st.integers(0, (1 << npairs) - 1)))
    h = LabeledGraph(n, data.draw(st.integers(0, (1 << npairs) - 1)))
    cnt = copies_sharing_edge(g, pat, h)
    c_j = pat.edge_count * 1  # (v_J - 2)! = 1 for the triangle
    assert cnt <= c_j * h.edge_count * n ** (pat.vertex_count - 2)
