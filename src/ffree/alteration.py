"""Random-alteration construction of F-free graphs hitting adversary families.

Pipeline per trial: sample G(n, p), greedily pack edge-disjoint copies of the
minimal 2-density witness J of F, delete every packed edge.  The altered
graph is J-free (a leftover J-copy could have been packed) and therefore
F-free.  For each adversary graph H we record:

* event E_H: the raw sample shares at least e(H) p / 2 edges with H;
* event D_H: at most e(H) p / (3 e_J) packed copies touch an edge of H.

When both hold for an H with at least one edge, the altered graph keeps
ceil(e(H)p/2) - e_J * floor(e(H)p/(3 e_J)) >= 1 of H's edges; this counting
identity is asserted on every trial.

The greedy packing is inclusion-maximal rather than maximum-cardinality:
maximality (no further copy can be added) is the only property the
construction needs.  subiso.pack_copies takes it from the pair-id walk over all
copies: the greedy scan in lexicographic copy order, so trials are reproducible.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .density import minimal_m2_subgraph, m2_density
from .graphs import LabeledGraph, PatternGraph
from .sampling import Seed, sample_gnp
from .subiso import pack_copies

#: min over x >= 2 of [1/(3 x e^2)]^(1/(x-1)), attained at x = 2.
EPSILON = 1.0 / (6.0 * math.e ** 2)


class InapplicableFamilyError(RuntimeError):
    """The family condition sum(w * exp(-delta e(H) p)) <= 1/2 fails."""


class InapplicablePatternError(ValueError):
    """Pattern has maximum degree < 2, outside the construction's scope."""


class LemmaConstants(NamedTuple):
    delta: float
    admissible_p_max: float
    j: PatternGraph   # the pattern the construction packs; F and n are checked here only


def lemma_constants(f: PatternGraph, n: int) -> LemmaConstants:
    """delta = 1/max{9, 4 e_F}, p cap = EPSILON * n^(-1/m2) and J = minimal_m2_subgraph(F)."""
    if f.max_degree() < 2:
        raise InapplicablePatternError("pattern needs a vertex of degree >= 2")
    if n < 1:
        raise ValueError("n must be positive")
    return LemmaConstants(1.0 / max(9, 4 * f.edge_count),
                          EPSILON * n ** (-1.0 / float(m2_density(f))), minimal_m2_subgraph(f))


class WeightedFamily(NamedTuple("WeightedFamily", [("members", tuple[LabeledGraph, ...]),
                                                    ("weights", tuple[float, ...])])):
    """Finite family of labeled graphs with nonnegative weights."""

    __slots__ = ()

    def __new__(cls, members, weights):
        if len(members) != len(weights):
            raise ValueError("members and weights must have equal length")
        if any(not w >= 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        ns = {g.n for g in members}
        if len(ns) > 1:
            raise ValueError("all family members must share the same vertex count")
        return super().__new__(cls, members, weights)


def family_weight(family: WeightedFamily, p: float, delta: float) -> float:
    """sum_H w(H) exp(-delta e(H) p), the total the family condition bounds."""
    return math.fsum(w * math.exp(-delta * g.edge_count * p)
                     for g, w in zip(family.members, family.weights))


def require_family_condition(family: WeightedFamily, p: float, delta: float,
                             name: str) -> None:
    """Raise InapplicableFamilyError, stating the total weight, p and delta,
    unless the family condition holds."""
    total = family_weight(family, p, delta)
    if not total <= 0.5:
        raise InapplicableFamilyError(
            f"{name} weight {total:.4g} > 1/2 at p={p:.6g}, delta={delta:.4g}")


class PackingResult(NamedTuple):
    source: LabeledGraph
    copies: tuple[int, ...]   # edge masks of the packed copies, in scan order
    altered: LabeledGraph


def greedy_maximal_packing(g: LabeledGraph, j: PatternGraph) -> PackingResult:
    """Greedy edge-disjoint J-packing over the lexicographic copy order."""
    if j.edge_count < 2:
        raise ValueError("packing pattern needs at least two edges")
    copies = tuple(pack_copies(g, j))   # edge-disjoint, so their sum is their union
    return PackingResult(g, copies, LabeledGraph(g.n, g.bits & ~sum(copies)))


def alteration_graph(n: int, p: float, f: PatternGraph, seed: Seed,
                     index: int = 0) -> PackingResult:
    """Sample G(n, p), pack J-copies, delete them; result is F-free."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p={p} outside (0, 1)")
    j = lemma_constants(f, n).j   # raises on a pattern or n outside the construction's scope
    g = sample_gnp(n, p, seed, purpose="alteration", index=index)
    return greedy_maximal_packing(g, j)


class HitRecord(NamedTuple):
    h_index: int
    e_H: int
    shared_raw: int
    event_E: bool
    touched_copies: int
    event_D: bool
    shared_altered: int


class TrialRecord(NamedTuple):
    seed: int
    trial_index: int
    n: int
    p: float
    in_regime: bool
    hits: tuple[HitRecord, ...]
    hit_all: bool
    missed_weight: float
    altered: LabeledGraph   # the trial's F-free graph; the lemma2 document leaves it out


def lemma2_trial(n: int, p: float, f: PatternGraph, family: WeightedFamily,
                 seed: Seed, trial_index: int = 0) -> TrialRecord:
    """One alteration trial, with per-H event bookkeeping.

    Asserts the counting identity: whenever E_H and D_H both hold for an H
    with e(H) >= 1, the altered graph shares an edge with H.
    """
    if family.members and family.members[0].n != n:
        raise ValueError("family members must live on [n]")
    consts = lemma_constants(f, n)
    e_j = consts.j.edge_count
    result = alteration_graph(n, p, f, seed, index=trial_index)
    hits = []
    hit_all = True
    missed = 0.0
    for i, (h, w) in enumerate(zip(family.members, family.weights)):
        e_h = h.edge_count
        shared_raw = (result.source.bits & h.bits).bit_count()
        event_e = shared_raw >= e_h * p / 2.0
        touched = sum(1 for c in result.copies if c & h.bits)
        event_d = touched <= e_h * p / (3.0 * e_j)
        shared_altered = (result.altered.bits & h.bits).bit_count()
        if event_e and event_d and e_h >= 1:
            floor_m = int(e_h * p / (3.0 * e_j))
            guaranteed = math.ceil(e_h * p / 2.0) - e_j * floor_m
            assert shared_altered >= guaranteed >= 1, (
                f"conditional-hit identity violated for H#{i}: "
                f"shared={shared_altered}, guaranteed={guaranteed}"
            )
        if shared_altered == 0:
            hit_all = False
            missed += w
        hits.append(HitRecord(i, e_h, shared_raw, event_e, touched, event_d,
                              shared_altered))
    return TrialRecord(seed.master, trial_index, n, p, p <= consts.admissible_p_max,
                       tuple(hits), hit_all, missed, result.altered)


class RefutationResult(NamedTuple):
    graph: LabeledGraph | None   # the escape, or None when every trial missed
    trials: tuple[TrialRecord, ...]

    @property
    def success(self) -> bool:
        return self.graph is not None


def refute_certificate(complements: WeightedFamily, f: PatternGraph, n: int, p: float,
                       trial_budget: int, seed: Seed) -> RefutationResult:
    """Find an F-free graph escaping the down-closure of a putative certificate.

    Takes the complements of the certificate's members, with their weights,
    requires the family condition on them at (p, delta), then runs alteration
    trials; the first trial hitting every complement yields a graph sharing a
    non-edge with every certificate member, hence outside the down-closure:
    the escape follows from hit_all, which lemma2_trial sets only when the
    altered graph shares an edge with every complement.
    """
    if trial_budget < 0:
        raise ValueError(f"trial budget must be >= 0, got {trial_budget}")
    if not complements.members:
        return RefutationResult(LabeledGraph.empty(n), ())
    require_family_condition(complements, p, lemma_constants(f, n).delta, "complement family")
    records = []
    for i in range(trial_budget):
        rec = lemma2_trial(n, p, f, complements, seed, trial_index=i)
        records.append(rec)
        if rec.hit_all:
            return RefutationResult(rec.altered, tuple(records))
    return RefutationResult(None, tuple(records))


def min_family_edges(k: int, p: float, delta: float) -> int:
    """Smallest per-member edge count making the unit-weight condition hold."""
    if k < 1:
        return 0
    return math.ceil(math.log(2 * k) / (delta * p))


def random_member(n: int, edge_count: int, gen) -> LabeledGraph:
    """Uniform labeled graph on [n] with exactly edge_count edges.

    Draws the smaller of its edge set and its complement's, one uniform pair
    id per gen.random() call, rejecting repeats."""
    pairs = n * (n - 1) // 2
    if edge_count < 0:
        raise ValueError(f"edge_count must be >= 0, got {edge_count}")
    if edge_count > pairs:
        raise ValueError(f"edge_count {edge_count} exceeds {pairs} pairs")
    size = min(edge_count, pairs - edge_count)
    chosen: set[int] = set()
    while len(chosen) < size:
        chosen.add(int(gen.random() * pairs))
    g = LabeledGraph.from_ids(n, chosen)
    return g if size == edge_count else g.complement()


def random_family(n: int, k: int, edge_count: int, seed: Seed,
                  weight: float = 1.0) -> WeightedFamily:
    """k seeded random graphs with a prescribed edge count and one weight each."""
    if k < 0:
        raise ValueError(f"family size must be >= 0, got {k}")
    members = tuple(random_member(n, edge_count, seed.stream("family", i))
                    for i in range(k))
    return WeightedFamily(members, (weight,) * k)

