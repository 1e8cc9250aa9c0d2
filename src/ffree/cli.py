"""Batch command line front end.

One subcommand per experiment; every run embeds its resolved configuration
and seed in the output, and identical config + seed gives byte-identical
output.  Exit codes: 0 success; 1 a checked property failed, with one `failure:`
line on stderr after any document; 2 a usage error, with one `error:` line.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
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


def _int_pairs(o) -> bool:
    """Whether the sequence o holds only 2-tuples of ints, as an edge list does."""
    return (set(map(type, o)) == {tuple} and set(map(len, o)) == {2}
            and set(map(type, chain.from_iterable(o))) == {int})


def _json(o, indent: str = "") -> str:
    """json.dumps(o, indent=2, sort_keys=True) for str-keyed documents,
    without json's pure-Python encoder loop, refusing NaN and infinities.
    A record (a NamedTuple) is written as its _asdict()."""
    inner = indent + "  "
    if isinstance(o, tuple) and hasattr(o, "_asdict"):
        return _json(o._asdict(), indent)
    if isinstance(o, dict) and o:
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in sorted(o.items())]
    elif isinstance(o, (list, tuple)) and o:
        if _int_pairs(o):   # an edge list: one format pass, no call per pair
            pair = f"[\n{inner}  %d,\n{inner}  %d\n{inner}]"
            items = [f",\n{inner}".join([pair] * len(o)) % tuple(chain.from_iterable(o))]
        else:
            items = [repr(v) if type(v) is int else _json(v, inner) for v in o]
    else:
        return _scalar(o)
    start, end = "{}" if isinstance(o, dict) else "[]"
    return f"{start}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{end}"


def _emit_json(args, payload: dict):
    _emit(args, _json({"schema": SCHEMA, **payload}) + "\n")


def _emit_csv(args, rows: list[dict]):
    lines = [",".join(rows[0])] + [",".join(map(str, row.values())) for row in rows]
    _emit(args, "\n".join(lines) + "\n")


def _ratio(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def cmd_density(args) -> int:
    r = density.density_gap_check(parse_pattern(args.pattern))
    # Fractions and patterns are not JSON: densities as "num/den", witnesses as edge
    # text; below 3 vertices m2 and witness_m2 stay None
    m2 = {} if r.m2 is None else {"m2": _ratio(r.m2), "witness_m2": r.witness_m2.to_text()}
    _emit_json(args, {"command": "density", "pattern": args.pattern, **r._asdict(),
                      "m": _ratio(r.m), "witness_m": r.witness_m.to_text(), **m2})
    return 0


def cmd_sample(args) -> int:
    g = sample_gnp(args.n, args.p, args.seed)
    _emit_json(args, {
        "command": "sample", "n": args.n, "p": args.p, "seed": args.seed.master,
        "edge_count": g.edge_count,
        "edges": g.edges(),
    })
    return 0


def cmd_alter(args) -> int:
    f = parse_pattern(args.pattern)
    result = alteration.alteration_graph(args.n, args.p, f, args.seed)
    _, cap, j = alteration.lemma_constants(f, args.n)
    _emit_json(args, {
        "command": "alter", "pattern": args.pattern, "n": args.n, "p": args.p,
        "seed": args.seed.master, "j": j.to_text(), "in_regime": args.p <= cap,
        "sampled_edges": result.source.edge_count,
        "packed_copies": len(result.copies),
        "altered_edges": result.altered.edge_count,
        "f_free": not contains_copy(result.altered, f),
        "altered": result.altered.edges(),
    })
    return 0


def cmd_mu_sweep(args) -> int:
    f = parse_pattern(args.pattern)
    grid = [float(x) for x in args.p_grid.split(",")]
    curve = thresholds.mu_curve(args.n, grid, f, args.trials, args.seed)
    # insertion order gives the CSV columns; str() prints a float as the JSON writer does
    rows = [{"pattern": args.pattern, "n": args.n, "p": p, **est._asdict(),
             "trials": args.trials, "seed": args.seed.master}
            for p, est in zip(grid, curve)]
    if args.format == "json":
        _emit_json(args, {"command": "mu-sweep", "rows": rows})
    else:
        _emit_csv(args, rows)
    return 0


def cmd_pc(args) -> int:
    est = thresholds.estimate_pc(args.n, parse_pattern(args.pattern), args.trials, args.tol,
                                 args.seed)
    _emit_json(args, {"command": "pc", **est._asdict()})
    return 0


def cmd_scaling(args) -> int:
    n_list = [int(x) for x in args.n_list.split(",")]
    fit = thresholds.scaling_fit(parse_pattern(args.pattern), n_list, args.trials, args.tol,
                                 args.seed)
    _emit_json(args, {"command": "scaling", "seed": args.seed.master, "trials": args.trials,
                      "tolerance": args.tol, **fit._asdict()})
    return 0


def _generated_family(args, f, weight=1.0):
    """(family, edges per member, delta): --family-size seeded random graphs
    of the given weight with --family-edges edges each, by default the fewest
    edges meeting the unit-weight family condition at p."""
    n, p = args.n, args.p
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
    family = alteration.random_family(n, args.family_size, edges, args.seed, weight)
    return family, edges, delta


def cmd_lemma2(args) -> int:
    if args.trials < 0:
        raise ValueError(f"trials must be >= 0, got {args.trials}")
    f = parse_pattern(args.pattern)
    family, _, delta = _generated_family(args, f, args.family_weight)
    alteration.require_family_condition(family, args.p, delta, "generated family")
    records = [alteration.lemma2_trial(args.n, args.p, f, family, args.seed, trial_index=i)
               for i in range(args.trials)]
    _emit_json(args, {
        "command": "lemma2", "pattern": args.pattern, "n": args.n, "p": args.p,
        "seed": args.seed.master, "trials": args.trials,
        "family_size": args.family_size,
        "family_edge_counts": [g.edge_count for g in family.members],
        "family_weights": list(family.weights),
        "delta": delta,
        "hit_all_count": sum(1 for r in records if r.hit_all),
        "records": [{k: v for k, v in r._asdict().items() if k != "altered"}
                    for r in records],
    })
    return 0


def cmd_refute(args) -> int:
    f = parse_pattern(args.pattern)
    n, p = args.n, args.p
    # the certificate's members are the complements of random graphs with enough edges
    complements, edges, _ = _generated_family(args, f)
    result = alteration.refute_certificate(complements, f, n, p, args.budget, args.seed)
    _emit_json(args, {
        "command": "refute", "pattern": args.pattern, "n": n, "p": p,
        "seed": args.seed.master, "members": args.family_size, "budget": args.budget,
        "complement_edges": edges,
        "success": result.success,
        "trials_used": len(result.trials),
        "escaping_edges": None if result.graph is None else result.graph.edges(),
    })
    if not result.success:   # main prints the failure line and exits 1
        raise AssertionError(f"refute: no escaping graph in {len(result.trials)} of "
                             f"{args.budget} trials")
    return 0


def cmd_exact(args) -> int:
    # looked up at call time, so a wrapper bound into the module is used
    solve = getattr(exact_tiny, {"exact-q": "q_exact", "exact-qf": "qf_exact"}[args.command])
    val = solve(args.n, parse_pattern(args.pattern), args.tol)
    _emit_json(args, {"command": args.command, "pattern": args.pattern, "n": args.n,
                      **val._asdict()})
    return 0


def cmd_gap(args) -> int:
    report = exact_tiny.gap_report(args.n, parse_pattern(args.pattern), args.tol)
    _emit_json(args, {"command": "gap", **report._asdict(),
                      "ratio_q_pc": report.q / report.pc if report.pc > 0 else None,
                      "ratio_qf_pc": report.qf / report.pc if report.pc > 0 else None})
    if not report.chain_holds:
        raise AssertionError(f"gap: p_c <= q_f <= q fails (pc={report.pc}, qf={report.qf}, "
                             f"q={report.q})")
    return 0


def _trials(default: int) -> tuple:
    return "--trials", dict(type=int, default=default)


def _tol(default: float) -> tuple:
    return "--tol", dict(type=float, default=default)


_PATTERN = "--pattern", dict(required=True, help="preset name or edge grammar, e.g. '0-1 1-2 0-2'")
_SEED = "--seed", dict(default="0", help="decimal or 0x-hex master seed")
_OUT = "--out", dict(default=None, help="output path (default stdout)")
_SEEDED = (_PATTERN, _SEED, _OUT)
_N, _P = ("--n", dict(type=int, required=True)), ("--p", dict(type=float, required=True))
_FAMILY = (*_SEEDED, _N, _P, ("--family-size", dict(type=int, default=3)),
           ("--family-edges", dict(type=int, default=None, help="edges per member "
                                   "(default: smallest meeting the condition)")))
_BISECT = (_trials(400), _tol(0.05))
_EXACT = (_PATTERN, _OUT, _N, _tol(exact_tiny.DEFAULT_P_TOL))

# subcommand -> (handler, help, arguments as (flag, add_argument keywords) in help order).
# Only cmd_* handlers go here: perfbench/tracer.py rebinds library functions by module
# attribute, and one held in this table would escape its span.
COMMANDS = {
    "density": (cmd_density, "exact m, m2, witnesses, gap check", (_PATTERN, _OUT)),
    "sample": (cmd_sample, "one seeded G(n,p) sample", (_SEED, _OUT, _N, _P)),
    "alter": (cmd_alter, "alteration construction G_{n,p}(J)", (*_SEEDED, _N, _P)),
    "mu-sweep": (cmd_mu_sweep, "estimate mu_p over a p grid", (
        *_SEEDED, _N, ("--p-grid", dict(required=True, help="comma-separated p values")),
        _trials(400), ("--format", dict(choices=["json", "csv"], default="csv")))),
    "pc": (cmd_pc, "bisection estimate of the threshold p_c", (*_SEEDED, _N, *_BISECT)),
    "scaling": (cmd_scaling, "log-log scaling fit of p_c against n", (*_SEEDED, ("--n-list", dict(
        required=True, help="comma-separated increasing n")), *_BISECT)),
    "lemma2": (cmd_lemma2, "lemma2 trials against a generated family",
               (*_FAMILY, ("--family-weight", dict(type=float, default=1.0)), _trials(10))),
    "refute": (cmd_refute, "refute trials against a generated family",
               (*_FAMILY, ("--budget", dict(type=int, default=50)))),
    "exact-q": (cmd_exact, "exact tiny-n exact-q", _EXACT),
    "exact-qf": (cmd_exact, "exact tiny-n exact-qf", _EXACT),
    "gap": (cmd_gap, "exact tiny-n gap", _EXACT),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ffree", description=(
        "Thresholds of F-free graph down-sets: densities, alteration construction, "
        "Monte Carlo thresholds, and exact tiny-n expectation thresholds."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, specs) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, kw in specs:
            sp.add_argument(flag, **kw)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if "seed" in args:   # parsed here, so a bad seed gets the one-line error
            args.seed = Seed.parse(args.seed)
        return COMMANDS[args.command][0](args)
    except (ValueError, OverflowError) as exc:   # OverflowError: an n too large to index
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
