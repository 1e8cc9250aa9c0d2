"""Per-layer tracing of one `ffree` CLI call, from outside the package.

Run as a task process:

    python3 perfbench/tracer.py SPANS_PATH TASK_ID <ffree subcommand and flags>

It wraps the public functions listed in SPANS with timing spans, rebinds each
wrapper in every `ffree.*` namespace that holds the original, calls
`ffree.cli.main` and writes the spans to SPANS_PATH when the call ends (also
when it ends on SIGTERM at the benchmark's time limit). The stdout document
is the CLI's own, so the benchmark can compare it with an untraced call.

`aggregate` turns the span files of one pass over a workload into the
per-layer metrics listed in METRICS.
"""

from __future__ import annotations

import functools
import importlib
import json
import signal
import sys
import time

# (module, attribute, span name, count taken from (args, kwargs, result))
SPANS = [
    ("ffree.sampling", "EdgeThresholdTable.generate", "sampling.generate", None),
    ("ffree.sampling", "coupled_realize", "sampling.coupled_realize", None),
    ("ffree.sampling", "Seed.stream", "sampling.stream", None),
    ("ffree.sampling", "sample_gnp", "sampling.sample_gnp", None),
    ("ffree.graphs", "LabeledGraph.adjacency_masks", "graphs.adjacency_masks", None),
    ("ffree.graphs", "LabeledGraph.edge_ids", "graphs.edge_ids", None),
    ("ffree.graphs", "LabeledGraph.edges", "graphs.edges", None),
    ("ffree.subiso", "contains_copy", "subiso.contains_copy",
     lambda a, k, r: int(r)),
    ("ffree.subiso", "enumerate_copies", "subiso.enumerate_copies",
     lambda a, k, r: len(r)),
    ("ffree.density", "m_density", "density.m_density", None),
    ("ffree.density", "m2_density", "density.m2_density", None),
    ("ffree.density", "minimal_m2_subgraph", "density.minimal_m2_subgraph", None),
    ("ffree.density", "density_gap_check", "density.density_gap_check", None),
    ("ffree.alteration", "greedy_maximal_packing",
     "alteration.greedy_maximal_packing", lambda a, k, r: len(r.copies)),
    ("ffree.alteration", "alteration_graph", "alteration.alteration_graph", None),
    ("ffree.alteration", "lemma2_trial", "alteration.lemma2_trial", None),
    # count = trials used, base = trial budget (5th positional argument)
    ("ffree.alteration", "refute_certificate", "alteration.refute_certificate",
     lambda a, k, r: (len(r.trials), a[4] if len(a) > 4 else k["trial_budget"])),
    # base = trials (3rd positional argument)
    ("ffree.thresholds", "estimate_pc", "thresholds.estimate_pc",
     lambda a, k, r: (0, a[2] if len(a) > 2 else k["trials"])),
    ("ffree.thresholds", "estimate_mu", "thresholds.estimate_mu", None),
    ("ffree.exact_tiny", "min_cover_cost", "exact_tiny.min_cover_cost", None),
    ("ffree.exact_tiny", "lp_min_cost", "exact_tiny.lp_min_cost", None),
    ("ffree.exact_tiny", "mu_exact", "exact_tiny.mu_exact", None),
    ("ffree.exact_tiny", "pc_exact", "exact_tiny.pc_exact", None),
    ("ffree.cli", "main", "cli.main", None),
]

LAYERS = ["sampling", "graphs", "subiso", "density", "alteration",
          "thresholds", "exact_tiny", "cli"]

# name -> unit; every name is reported on every workload (0 where idle)
METRICS: dict[str, str] = {}
for _name in ["sampling.generate", "sampling.coupled_realize", "sampling.stream",
              "sampling.sample_gnp", "graphs.adjacency_masks", "graphs.edge_ids",
              "graphs.edges", "subiso.contains_copy", "subiso.enumerate_copies",
              "density", "alteration.greedy_maximal_packing",
              "alteration.lemma2_trial", "thresholds.estimate_pc",
              "thresholds.estimate_mu", "exact_tiny.min_cover_cost",
              "exact_tiny.lp_min_cost", "exact_tiny.mu_exact", "cli.main"]:
    METRICS[f"{_name}.calls"] = "count"
    METRICS[f"{_name}.self_s"] = "s"
METRICS.update({
    "subiso.contains_copy.hit_ratio": "ratio",
    "subiso.enumerate_copies.copies": "count",
    "alteration.greedy_maximal_packing.accept_ratio": "ratio",
    "alteration.alteration_graph.calls": "count",
    "alteration.refute_certificate.self_s": "s",
    "alteration.refute_certificate.trials_ratio": "ratio",
    "thresholds.probes_per_estimate": "probes/trial",
    "exact_tiny.pc_exact.self_s": "s",
})
METRICS.update({f"{layer}.errors": "count" for layer in LAYERS})


class TimeLimit(BaseException):
    """Raised by SIGTERM; a BaseException so spans do not count it as an error."""


def _on_term(signum, frame):
    raise TimeLimit()


class Tracer:
    def __init__(self):
        self.spans: list = []   # [parent, name, start, end, count, base, error]
        self.stack: list[int] = []

    def wrap(self, fn, name, count):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [stack[-1] if stack else -1, name, 0.0, 0.0, 0, 0, 0]
            spans.append(span)
            stack.append(sid)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[6] = 1
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                c = count(args, kwargs, result)
                span[4], span[5] = c if isinstance(c, tuple) else (c, 0)
            return result

        return traced

    def install(self):
        """Wrap every SPANS entry and rebind it wherever `ffree` holds it."""
        importlib.import_module("ffree.cli")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "ffree" or name.startswith("ffree.")]
        for module_name, attr, name, count in SPANS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    setattr(cls, meth, staticmethod(self.wrap(raw.__func__, name, count)))
                else:
                    setattr(cls, meth, self.wrap(raw, name, count))
                continue
            orig = getattr(module, attr)
            wrapped = self.wrap(orig, name, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)


def run_traced(spans_path: str, task_id: str, argv: list[str]) -> int:
    signal.signal(signal.SIGTERM, _on_term)
    tracer = Tracer()
    rc = 124
    try:
        tracer.install()
        rc = importlib.import_module("ffree.cli").main(argv)
    except TimeLimit:
        pass
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"task": task_id, "spans": tracer.spans}, fh)
    return rc


def aggregate(span_files: list[str]) -> dict[str, float]:
    """Per-layer metrics summed over the task processes of one pass."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    count: dict[str, int] = {}
    base: dict[str, int] = {}
    errors = dict.fromkeys(LAYERS, 0)
    probes_in_pc = 0
    copies_in_packing = 0
    for path in span_files:
        with open(path) as fh:
            spans = json.load(fh)["spans"]
        child = [0.0] * len(spans)
        for parent, _name, start, end, *_ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (parent, name, start, end, c, b, err) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            count[name] = count.get(name, 0) + c
            base[name] = base.get(name, 0) + b
            errors[name.split(".")[0]] += err
            caller = spans[parent][1] if parent >= 0 else ""
            if name == "sampling.coupled_realize" and caller == "thresholds.estimate_pc":
                probes_in_pc += 1
            if name == "subiso.enumerate_copies" and caller == "alteration.greedy_maximal_packing":
                copies_in_packing += c

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for metric in METRICS:
        if metric.endswith(".calls") or metric.endswith(".self_s"):
            stem, kind = metric.rsplit(".", 1)
            if stem == "density":
                names = [n for n in calls if n.startswith("density.")]
            else:
                names = [stem]
            table = calls if kind == "calls" else self_s
            out[metric] = sum(table.get(n, 0) for n in names)
    out["subiso.contains_copy.hit_ratio"] = ratio(
        count.get("subiso.contains_copy", 0), calls.get("subiso.contains_copy", 0))
    out["subiso.enumerate_copies.copies"] = count.get("subiso.enumerate_copies", 0)
    out["alteration.greedy_maximal_packing.accept_ratio"] = ratio(
        count.get("alteration.greedy_maximal_packing", 0), copies_in_packing)
    out["alteration.refute_certificate.trials_ratio"] = ratio(
        count.get("alteration.refute_certificate", 0),
        base.get("alteration.refute_certificate", 0))
    out["thresholds.probes_per_estimate"] = ratio(
        probes_in_pc, base.get("thresholds.estimate_pc", 0))
    out.update({f"{layer}.errors": errors[layer] for layer in LAYERS})
    return out


if __name__ == "__main__":
    sys.exit(run_traced(sys.argv[1], sys.argv[2], sys.argv[3:]))
