"""The records of `ffree` are NamedTuples.  They keep the behavior they had as
frozen dataclasses: the repr, field equality and hash, the field-tuple order
of patterns and refusal of field assignment; EdgeThresholdTable keeps
identity equality and hash."""

from fractions import Fraction

import pytest

from ffree import exact_tiny
from ffree.alteration import (
    HitRecord,
    LemmaConstants,
    PackingResult,
    RefutationResult,
    TrialRecord,
    WeightedFamily,
)
from ffree.density import DensityReport
from ffree.exact_tiny import GapReport, ThresholdValue, qf_exact
from ffree.graphs import LabeledGraph, PRESETS, PatternGraph
from ffree.sampling import EdgeThresholdTable, Seed
from ffree.thresholds import MuEstimate, ScalingFit, ThresholdEstimate

TRIANGLE = PRESETS["triangle"]


def _hit():
    return HitRecord(0, 2, 1, True, 0, True, 1)


def _trial():
    return TrialRecord(7, 0, 3, 0.5, False, (_hit(),), True, 0.0, LabeledGraph(3, 5))


def _mu():
    return MuEstimate(0.5, 0.25, 0.75)


G_REPR = "LabeledGraph(n=3, bits=5)"
HIT_REPR = ("HitRecord(h_index=0, e_H=2, shared_raw=1, event_E=True, touched_copies=0, "
            "event_D=True, shared_altered=1)")
TRIAL_REPR = (f"TrialRecord(seed=7, trial_index=0, n=3, p=0.5, in_regime=False, "
              f"hits=({HIT_REPR},), hit_all=True, missed_weight=0.0, altered={G_REPR})")
TRIANGLE_REPR = "PatternGraph(vertex_count=3, edges=((0, 1), (0, 2), (1, 2)))"
MU_REPR = "MuEstimate(mu_hat=0.5, ci_lo=0.25, ci_hi=0.75)"

# (record factory, a field, the repr): each factory call builds a new object
RECORDS = [
    (lambda: PRESETS["triangle"], "edges", TRIANGLE_REPR),
    (lambda: LabeledGraph(3, 5), "bits", G_REPR),
    (lambda: Seed(5), "master", "Seed(master=5)"),
    (lambda: WeightedFamily((LabeledGraph(3, 5),), (1.0,)), "weights",
     f"WeightedFamily(members=({G_REPR},), weights=(1.0,))"),
    (lambda: LemmaConstants(0.25, 0.125, TRIANGLE), "delta",
     f"LemmaConstants(delta=0.25, admissible_p_max=0.125, j={TRIANGLE_REPR})"),
    (lambda: PackingResult(LabeledGraph(3, 5), (1,), LabeledGraph(3, 4)), "copies",
     f"PackingResult(source={G_REPR}, copies=(1,), altered=LabeledGraph(n=3, bits=4))"),
    (_hit, "e_H", HIT_REPR),
    (_trial, "hit_all", TRIAL_REPR),
    (lambda: RefutationResult(None, (_trial(),)), "graph",
     f"RefutationResult(graph=None, trials=({TRIAL_REPR},))"),
    (lambda: DensityReport(Fraction(1), Fraction(2), TRIANGLE, TRIANGLE, True), "m2",
     f"DensityReport(m=Fraction(1, 1), m2=Fraction(2, 1), witness_m={TRIANGLE_REPR}, "
     f"witness_m2={TRIANGLE_REPR}, gap_holds=True)"),
    (_mu, "mu_hat", MU_REPR),
    (lambda: ThresholdEstimate(16, "0-1 0-2 1-2", 0.25, *_mu(), 100, 7, 0.05, ((0.5, 0.25),)),
     "p_hat",
     "ThresholdEstimate(n=16, pattern='0-1 0-2 1-2', p_hat=0.25, mu_at_p_hat=0.5, ci_lo=0.25, "
     "ci_hi=0.75, trials=100, seed=7, tolerance=0.05, trace=((0.5, 0.25),))"),
    (lambda: ScalingFit("0-1 0-2 1-2", ((8, 0.25), (16, 0.125)), -1.0, 0.5, -1.0), "slope",
     "ScalingFit(pattern='0-1 0-2 1-2', points=((8, 0.25), (16, 0.125)), slope=-1.0, "
     "intercept=0.5, target_slope=-1.0)"),
    (lambda: ThresholdValue(0.5, False, 0.01), "value",
     "ThresholdValue(value=0.5, degenerate=False, tolerance=0.01)"),
    (lambda: GapReport(5, "0-1 0-2 1-2", 0.25, 0.5, 0.75, False, False, True, 0.01), "q",
     "GapReport(n=5, pattern='0-1 0-2 1-2', pc=0.25, qf=0.5, q=0.75, q_degenerate=False, "
     "qf_degenerate=False, chain_holds=True, tolerance=0.01)"),
]


@pytest.mark.parametrize("make, field, text", RECORDS, ids=[r[2].split("(")[0] for r in RECORDS])
def test_record_repr_equality_hash_and_immutability(make, field, text):
    a, b = make(), make()
    assert repr(a) == text
    assert a == b and not a != b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(a, field))


def test_records_are_tuples_of_their_fields():
    assert Seed(5) == (5,) and tuple(LabeledGraph(3, 5)) == (3, 5)
    assert len(_trial()) == 9


def test_patterns_sort_by_vertex_count_then_edges():
    name = {f: key for key, f in PRESETS.items()}
    assert [name[f] for f in sorted(PRESETS.values())] == [
        "triangle", "P3", "K4", "C4", "P4", "K5", "C5", "petersen"]
    assert PatternGraph(3, ((0, 1),)) < PatternGraph(3, ((0, 2),)) < PatternGraph(4, ())


def test_edge_threshold_table_is_equal_only_to_itself():
    a, b = (EdgeThresholdTable.generate(5, Seed(3).stream("records")) for _ in range(2))
    assert a.count_below(1 << 64) == b.count_below(1 << 64) == 10
    assert (a.ids, a.marks) == (b.ids, b.marks)
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == object.__hash__(a) and len({a, b}) == 2


def test_qf_never_builds_the_cover_table():
    # q_f reads only the orbit LP; the per-candidate cover masks are q's
    exact_tiny._instance.cache_clear()
    qf_exact(5, PRESETS["C4"])
    inst = exact_tiny._instance(5, PRESETS["C4"])
    assert "cover" not in vars(inst)
    assert inst.cover is inst.cover and "cover" in vars(inst)
