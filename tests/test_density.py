import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ffree.cli import main
from ffree.density import (
    UndefinedDensityError,
    density_gap_check,
    m2_density,
    m_density,
    minimal_m2_subgraph,
)
from ffree.graphs import PRESETS, PatternGraph, parse_pattern

from oracles import density_oracle

F = Fraction


@pytest.mark.parametrize("name,m,m2", [
    ("triangle", F(1), F(2)),
    ("K4", F(3, 2), F(5, 2)),
    ("K5", F(2), F(3)),
    ("C4", F(1), F(3, 2)),
    ("C5", F(1), F(4, 3)),
    ("P3", F(2, 3), F(1)),
    ("P4", F(3, 4), F(1)),
    ("petersen", F(3, 2), F(7, 4)),
])
def test_preset_densities(name, m, m2):
    pat = PRESETS[name]
    assert m_density(pat) == m
    assert m2_density(pat) == m2


def test_single_edge():
    k2 = parse_pattern("0-1")
    assert m_density(k2) == F(1, 2)
    with pytest.raises(UndefinedDensityError):
        m2_density(k2)


def _random_pattern(draw_edges, nv):
    pairs = [(u, v) for v in range(nv) for u in range(v)]
    return PatternGraph.from_edges(
        [pairs[i] for i in draw_edges], vertex_count=nv
    ) if draw_edges else PatternGraph(nv, ())


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.data())
def test_densities_match_edge_subset_oracle(nv, data):
    npairs = nv * (nv - 1) // 2
    mask = data.draw(st.integers(0, (1 << npairs) - 1))
    pairs = [(u, v) for v in range(nv) for u in range(v)]
    pat = PatternGraph.from_edges(
        [pairs[i] for i in range(npairs) if mask >> i & 1], vertex_count=nv)
    om, om2 = density_oracle(pat)
    assert m_density(pat) == om
    if nv >= 3:
        assert m2_density(pat) == om2


def test_minimal_m2_triangle_is_itself():
    assert minimal_m2_subgraph(PRESETS["triangle"]) == PRESETS["triangle"]


def test_minimal_m2_picks_densest_component():
    # triangle on {0,1,2} disjoint from K4 on {3,4,5,6}: K4 wins (5/2 > 2)
    edges = [(0, 1), (0, 2), (1, 2)]
    edges += [(i, j) for j in range(3, 7) for i in range(3, j)]
    f = PatternGraph.from_edges(edges)
    j = minimal_m2_subgraph(f)
    assert j.vertex_count == 4 and j.edge_count == 6
    assert m2_density(j) == F(5, 2)


def test_minimal_m2_c4_is_itself():
    assert minimal_m2_subgraph(PRESETS["C4"]) == PRESETS["C4"]


def test_minimal_m2_is_minimal():
    # deleting any vertex or edge of J strictly lowers its m2 below m2(F)
    for name in ["triangle", "C4", "K4", "C5", "petersen"]:
        f = PRESETS[name]
        target = m2_density(f)
        j = minimal_m2_subgraph(f)
        assert m2_density(j) == target
        assert (F(j.edge_count - 1, j.vertex_count - 2)) == target
        for drop in range(j.vertex_count):
            sub = j.induced([v for v in range(j.vertex_count) if v != drop])
            if sub.vertex_count >= 3:
                assert m2_density(sub) < target
        for skip in range(j.edge_count):
            sub = PatternGraph(j.vertex_count,
                               tuple(e for i, e in enumerate(j.edges) if i != skip))
            assert m2_density(sub) < target


def test_gap_check_examples():
    rep = density_gap_check(PRESETS["triangle"])
    assert rep.m == F(1) and rep.m2 == F(2) and rep.gap_holds

    rep = density_gap_check(parse_pattern("0-1"))
    assert rep.m == F(1, 2) and rep.m2 is None and not rep.gap_holds

    rep = density_gap_check(PRESETS["P3"])
    assert rep.m == F(2, 3) and rep.m2 == F(1) and rep.gap_holds


def test_gap_holds_whenever_max_degree_two():
    # exhaustive over all labeled graphs on 5 vertices
    pairs = [(u, v) for v in range(5) for u in range(v)]
    for mask in range(1 << 10):
        pat = PatternGraph.from_edges(
            [pairs[i] for i in range(10) if mask >> i & 1], vertex_count=5)
        if pat.max_degree() >= 2:
            assert m2_density(pat) > m_density(pat)


def test_report_serialization(capsys):
    assert main(["density", "--pattern", "K4"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["m"] == "3/2" and d["m2"] == "5/2" and d["gap_holds"] is True
