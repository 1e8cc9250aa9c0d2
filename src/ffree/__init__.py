"""Thresholds of F-free graph down-sets.

Library + CLI for graph densities m and m2, the random-alteration
construction of F-free graphs hitting adversarial families, Monte Carlo
threshold location, and exact tiny-n expectation thresholds with the chain
p_c <= q_f <= q.

The package needs only the standard library.  fractions, hashlib and random
are imported inside the functions that use them, so importing the package
loads none of them, and the result records are NamedTuples, not dataclasses
(the dataclasses module imports inspect).

The records are also the command line's output: ffree.cli writes each
`ffree/1` JSON document from a record's _asdict(), under its field names.
"""

from .graphs import LabeledGraph, PatternGraph, PRESETS, pair_index, parse_pattern
from .density import DensityReport, density_gap_check, m2_density, m_density, minimal_m2_subgraph
from .subiso import contains_copy, enumerate_copies
from .sampling import EdgeThresholdTable, Seed, chernoff_tail_bound, coupled_realize, sample_gnp
from .alteration import (
    EPSILON,
    LemmaConstants,
    PackingResult,
    TrialRecord,
    WeightedFamily,
    alteration_graph,
    greedy_maximal_packing,
    lemma2_trial,
    lemma_constants,
    refute_certificate,
)
from .thresholds import ScalingFit, ThresholdEstimate, estimate_mu, estimate_pc, scaling_fit
from .exact_tiny import (
    GapReport,
    gap_report,
    lp_min_cost,
    min_cover_cost,
    mu_exact,
    pc_exact,
    q_exact,
    qf_exact,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
