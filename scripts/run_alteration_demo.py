#!/usr/bin/env python3
"""Alteration construction demo: sample, pack, delete, report.

Draws G(n, p) at the admissible ceiling for a pattern, greedily packs
edge-disjoint copies of the minimal 2-density witness, deletes them, and
reports how many edges survive and that the result is pattern-free. With
--family-size it also replays trials against a generated adversary family
and prints the hit rate.
"""

import argparse
import sys
from dataclasses import dataclass

from ffree.alteration import (
    InapplicableFamilyError,
    alteration_graph,
    lemma2_trial,
    lemma_constants,
    random_family,
    require_family_condition,
)
from ffree.graphs import parse_pattern
from ffree.sampling import Seed
from ffree.subiso import contains_copy


@dataclass
class DemoConfig:
    pattern: str = "triangle"
    n: int = 50
    runs: int = 200
    family_size: int = 0
    family_edges: int = 600
    family_weight: float = 0.1
    seed: int = 2024


def parse_args() -> DemoConfig:
    d = DemoConfig()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pattern", default=d.pattern)
    ap.add_argument("--n", type=int, default=d.n)
    ap.add_argument("--runs", type=int, default=d.runs)
    ap.add_argument("--family-size", type=int, default=d.family_size)
    ap.add_argument("--family-edges", type=int, default=d.family_edges)
    ap.add_argument("--family-weight", type=float, default=d.family_weight)
    ap.add_argument("--seed", default=str(d.seed))
    a = ap.parse_args()
    return DemoConfig(a.pattern, a.n, a.runs, a.family_size, a.family_edges,
                      a.family_weight, Seed.parse(a.seed).master)


def main() -> int:
    cfg = parse_args()
    pat = parse_pattern(cfg.pattern)
    consts = lemma_constants(pat, cfg.n)
    p = consts.admissible_p_max
    seed = Seed(cfg.seed)
    print(f"pattern {cfg.pattern}, n={cfg.n}, p=admissible={p:.6g}, "
          f"delta={consts.delta:.6g}")

    kept = packed = total = 0
    for i in range(cfg.runs):
        r = alteration_graph(cfg.n, p, pat, seed, index=i)
        assert not contains_copy(r.altered, pat)
        total += r.source.edge_count
        kept += r.altered.edge_count
        packed += len(r.copies)
    print(f"{cfg.runs} runs: mean edges {total / cfg.runs:.2f}, "
          f"mean kept {kept / cfg.runs:.2f}, "
          f"mean packed copies {packed / cfg.runs:.3f}")

    if cfg.family_size > 0:
        fam = random_family(cfg.n, cfg.family_size, cfg.family_edges, seed,
                            weights=(cfg.family_weight,) * cfg.family_size)
        try:
            require_family_condition(fam, p, consts.delta, "adversary family")
        except InapplicableFamilyError as exc:
            print(f"failure: {exc}", file=sys.stderr)
            return 1
        hits = sum(lemma2_trial(cfg.n, p, pat, fam, seed, trial_index=i).hit_all
                   for i in range(cfg.runs))
        print(f"adversary family: hit_all in {hits}/{cfg.runs} trials")
    return 0


if __name__ == "__main__":
    sys.exit(main())
