"""Batch command line front end.

One subcommand per experiment; every run embeds its resolved configuration
and seed in the output, and identical config + seed gives byte-identical
output.  Exit codes: 0 success, 1 assertion failure (e.g. chain violation or
a failed refutation), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii

from . import alteration, density, exact_tiny, thresholds
from .graphs import parse_pattern
from .sampling import Seed, sample_gnp
from .subiso import contains_copy

SCHEMA = "ffree/1"


def _emit(args, text: str):
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


_scalar = json.JSONEncoder(allow_nan=False).encode   # ValueError on NaN or inf


def _json(o, indent: str = "") -> str:
    """json.dumps(o, indent=2, sort_keys=True) for str-keyed documents,
    without json's pure-Python encoder loop, refusing NaN and infinities."""
    inner = indent + "  "
    if isinstance(o, dict) and o:
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in sorted(o.items())]
    elif isinstance(o, (list, tuple)) and o:
        items = [repr(v) if type(v) is int else _json(v, inner) for v in o]
    else:
        return _scalar(o)
    start, end = "{}" if isinstance(o, dict) else "[]"
    return f"{start}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{end}"


def _emit_json(args, payload: dict):
    _emit(args, _json({"schema": SCHEMA, **payload}) + "\n")


def _emit_csv(args, header: list[str], rows: list[list]):
    lines = [",".join(header)]
    lines += [",".join(str(x) for x in row) for row in rows]
    _emit(args, "\n".join(lines) + "\n")


def cmd_density(args) -> int:
    report = density.density_gap_check(parse_pattern(args.pattern))
    _emit_json(args, {"command": "density", "pattern": args.pattern,
                      **report.to_dict()})
    return 0


def cmd_sample(args) -> int:
    g = sample_gnp(args.n, args.p, Seed.parse(args.seed))
    _emit_json(args, {
        "command": "sample", "n": args.n, "p": args.p, "seed": args.seed,
        "edge_count": g.edge_count,
        "edges": [[u, v] for u, v in g.edges()],
    })
    return 0


def cmd_alter(args) -> int:
    f = parse_pattern(args.pattern)
    result = alteration.alteration_graph(args.n, args.p, f, Seed.parse(args.seed))
    j = density.minimal_m2_subgraph(f)
    cap = alteration.lemma_constants(f, args.n).admissible_p_max
    _emit_json(args, {
        "command": "alter", "pattern": args.pattern, "n": args.n, "p": args.p,
        "seed": args.seed, "j": j.to_text(), "in_regime": args.p <= cap,
        "sampled_edges": result.source.edge_count,
        "packed_copies": len(result.copies),
        "altered_edges": result.altered.edge_count,
        "f_free": not contains_copy(result.altered, f),
        "altered": [[u, v] for u, v in result.altered.edges()],
    })
    return 0


def cmd_mu_sweep(args) -> int:
    f = parse_pattern(args.pattern)
    grid = [float(x) for x in args.p_grid.split(",")]
    curve = thresholds.mu_curve(args.n, grid, f, args.trials, Seed.parse(args.seed))
    rows = [[args.pattern, args.n, repr(p), repr(est.mu_hat),
             repr(est.ci_lo), repr(est.ci_hi), args.trials, args.seed]
            for p, est in zip(grid, curve)]
    header = ["pattern", "n", "p", "mu_hat", "ci_lo", "ci_hi", "trials", "seed"]
    if args.format == "json":
        _emit_json(args, {"command": "mu-sweep",
                          "rows": [dict(zip(header, r)) for r in rows]})
    else:
        _emit_csv(args, header, rows)
    return 0


def cmd_pc(args) -> int:
    est = thresholds.estimate_pc(args.n, parse_pattern(args.pattern), args.trials, args.tol,
                                 Seed.parse(args.seed))
    _emit_json(args, {"command": "pc", **est.to_dict()})
    return 0


def cmd_scaling(args) -> int:
    n_list = [int(x) for x in args.n_list.split(",")]
    fit = thresholds.scaling_fit(parse_pattern(args.pattern), n_list, args.trials, args.tol,
                                 Seed.parse(args.seed))
    _emit_json(args, {"command": "scaling", "seed": args.seed,
                      "trials": args.trials, "tolerance": args.tol,
                      **fit.to_dict()})
    return 0


def _generated_family(args, f, n, p, weight=None):
    """(family, edges per member, delta): --family-size seeded random graphs
    with --family-edges edges each, by default the fewest edges meeting the
    unit-weight family condition at p."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p={p} outside (0, 1)")
    delta = alteration.lemma_constants(f, n).delta
    edges = (args.family_edges if args.family_edges is not None
             else alteration.min_family_edges(args.family_size, p, delta))
    if edges > n * (n - 1) // 2:
        fix = "raise --p" if args.family_edges is None else "lower --family-edges"
        raise ValueError(
            f"family needs {edges} edges per member but only {n*(n-1)//2} pairs "
            f"exist at n={n}; {fix}"
        )
    weights = None if weight is None else (weight,) * args.family_size
    family = alteration.random_family(n, args.family_size, edges, Seed.parse(args.seed),
                                      weights=weights)
    return family, edges, delta


def cmd_lemma2(args) -> int:
    if args.trials < 0:
        raise ValueError(f"trials must be >= 0, got {args.trials}")
    f = parse_pattern(args.pattern)
    family, _, delta = _generated_family(args, f, args.n, args.p,
                                         args.family_weight)
    alteration.require_family_condition(family, args.p, delta, "generated family")
    records = [alteration.lemma2_trial(args.n, args.p, f, family, Seed.parse(args.seed),
                                       trial_index=i)
               for i in range(args.trials)]
    _emit_json(args, {
        "command": "lemma2", "pattern": args.pattern, "n": args.n, "p": args.p,
        "seed": args.seed, "trials": args.trials,
        "family_size": args.family_size,
        "family_edge_counts": [g.edge_count for g in family.members],
        "family_weights": list(family.weights),
        "delta": delta,
        "hit_all_count": sum(1 for r in records if r.hit_all),
        "records": [r.to_dict() for r in records],
    })
    return 0


def cmd_refute(args) -> int:
    f = parse_pattern(args.pattern)
    n, p = args.n, args.p
    # certificate members are complements of random graphs with enough edges
    comps, edges, _ = _generated_family(args, f, n, p)
    gfam = alteration.WeightedFamily.unit(tuple(g.complement()
                                                for g in comps.members))
    result = alteration.refute_certificate(gfam, f, n, p, args.budget, Seed.parse(args.seed))
    _emit_json(args, {
        "command": "refute", "pattern": args.pattern, "n": n, "p": p,
        "seed": args.seed, "members": args.family_size, "budget": args.budget,
        "complement_edges": edges,
        "success": result.success,
        "trials_used": len(result.trials),
        "escaping_edges": (None if result.graph is None
                           else [[u, v] for u, v in result.graph.edges()]),
    })
    return 0 if result.success else 1


def cmd_exact(args) -> int:
    # looked up at call time, so a wrapper bound into the module is used
    solve = getattr(exact_tiny, {"exact-q": "q_exact", "exact-qf": "qf_exact"}[args.command])
    val = solve(args.n, parse_pattern(args.pattern), args.tol)
    _emit_json(args, {"command": args.command, "pattern": args.pattern, "n": args.n,
                      "value": val.value, "degenerate": val.degenerate,
                      "tolerance": val.tolerance})
    return 0


def cmd_gap(args) -> int:
    report = exact_tiny.gap_report(args.n, parse_pattern(args.pattern), args.tol)
    _emit_json(args, {"command": "gap", **report.to_dict()})
    return 0 if report.chain_holds else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffree",
        description="Thresholds of F-free graph down-sets: densities, "
                    "alteration construction, Monte Carlo thresholds, and "
                    "exact tiny-n expectation thresholds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, pattern=True, seed=False):
        if pattern:
            sp.add_argument("--pattern", required=True,
                            help="preset name or edge grammar, e.g. '0-1 1-2 0-2'")
        if seed:
            sp.add_argument("--seed", default="0", help="decimal or 0x-hex master seed")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    sp = sub.add_parser("density", help="exact m, m2, witnesses, gap check")
    common(sp)
    sp.set_defaults(func=cmd_density)

    sp = sub.add_parser("sample", help="one seeded G(n,p) sample")
    common(sp, pattern=False, seed=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("alter", help="alteration construction G_{n,p}(J)")
    common(sp, seed=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.set_defaults(func=cmd_alter)

    sp = sub.add_parser("mu-sweep", help="estimate mu_p over a p grid")
    common(sp, seed=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p-grid", required=True, help="comma-separated p values")
    sp.add_argument("--trials", type=int, default=400)
    sp.add_argument("--format", choices=["json", "csv"], default="csv")
    sp.set_defaults(func=cmd_mu_sweep)

    sp = sub.add_parser("pc", help="bisection estimate of the threshold p_c")
    common(sp, seed=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--trials", type=int, default=400)
    sp.add_argument("--tol", type=float, default=0.05)
    sp.set_defaults(func=cmd_pc)

    sp = sub.add_parser("scaling", help="log-log scaling fit of p_c against n")
    common(sp, seed=True)
    sp.add_argument("--n-list", required=True, help="comma-separated increasing n")
    sp.add_argument("--trials", type=int, default=400)
    sp.add_argument("--tol", type=float, default=0.05)
    sp.set_defaults(func=cmd_scaling)

    for name, func in [("lemma2", cmd_lemma2), ("refute", cmd_refute)]:
        sp = sub.add_parser(name, help=f"{name} trials against a generated family")
        common(sp, seed=True)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--p", type=float, required=True)
        sp.add_argument("--family-size", type=int, default=3)
        sp.add_argument("--family-edges", type=int, default=None,
                        help="edges per member (default: smallest meeting the condition)")
        if name == "lemma2":
            sp.add_argument("--family-weight", type=float, default=None)
            sp.add_argument("--trials", type=int, default=10)
        else:
            sp.add_argument("--budget", type=int, default=50)
        sp.set_defaults(func=func)

    for name, func in [("exact-q", cmd_exact), ("exact-qf", cmd_exact),
                       ("gap", cmd_gap)]:
        sp = sub.add_parser(name, help=f"exact tiny-n {name}")
        common(sp)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--tol", type=float, default=exact_tiny.DEFAULT_P_TOL)
        sp.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, alteration.InapplicableFamilyError,
            exact_tiny.PivotCapError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
