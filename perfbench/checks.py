"""Output checks for the benchmark's `ffree` CLI tasks.

`check_task` returns None when a task's output is right and the reason when
it is not. `selftest` feeds every check a known-good and a known-bad case;
the benchmark runs it before measuring, and it also runs on its own:

    python3 perfbench/checks.py
"""

from __future__ import annotations

import json

SCHEMA = "ffree/1"
SLOPE_TOL = 0.15   # the repository's acceptance tolerance on scaling slopes


def _scaling(doc):
    if abs(doc["slope"] - doc["target_slope"]) > SLOPE_TOL:
        return f"slope {doc['slope']} is more than {SLOPE_TOL} from {doc['target_slope']}"


def _mu_sweep(doc):
    rows = doc["rows"]
    # one battery of per-index streams serves every p, so mu_hat cannot rise
    for a, b in zip(rows, rows[1:]):
        if float(b["p"]) <= float(a["p"]):
            return f"p grid not increasing at p={b['p']}"
        if float(b["mu_hat"]) > float(a["mu_hat"]):
            return f"mu_hat rises from {a['mu_hat']} at p={a['p']} to {b['mu_hat']} at p={b['p']}"


def _sample(doc):
    n, edges = doc["n"], doc["edges"]
    if doc["edge_count"] != len(edges):
        return f"edge_count {doc['edge_count']} but {len(edges)} edges listed"
    if any(not 0 <= u < v < n for u, v in edges) or len({tuple(e) for e in edges}) != len(edges):
        return "edge list has an invalid or repeated pair"


def _alter(doc):
    if doc["f_free"] is not True:
        return "altered graph still contains the pattern"


def _refute(doc):
    if doc["success"] is not True:
        return "no escaping graph found"


def _gap(doc):
    if doc["chain_holds"] is not True:
        return "chain p_c <= q_f <= q does not hold"


def _exact_qf(doc):
    if not 0.0 <= doc["value"] <= 1.0:
        return f"value {doc['value']} outside [0, 1]"


def _exit_code_only(doc):
    # lemma2 asserts the conditional-hit identity on every trial and exits 1
    # when it fails, so exit code 0 is the check
    return None


CHECKS = {
    "scaling": _scaling,
    "mu-sweep": _mu_sweep,
    "sample": _sample,
    "alter": _alter,
    "lemma2": _exit_code_only,
    "refute": _refute,
    "gap": _gap,
    "exact-qf": _exact_qf,
}


def check_task(command: str, returncode: int, stdout: bytes, timed_out: bool) -> str | None:
    """None if a finished `ffree <command>` call is right, else the reason."""
    if timed_out:
        return "hit the time limit"
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        return f"schema is not {SCHEMA}"
    try:
        return CHECKS[command](doc)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}"


def _doc(**fields) -> bytes:
    return json.dumps({"schema": SCHEMA, **fields}).encode()


def _mu_rows(*mus):
    return [{"p": repr(0.02 * (i + 1)), "mu_hat": repr(mu)} for i, mu in enumerate(mus)]


# (label, command, returncode, stdout, timed_out, passes)
SELFTEST_CASES = [
    ("scaling good", "scaling", 0, _doc(slope=-1.08, target_slope=-1.0), False, True),
    ("scaling slope off by 0.2", "scaling", 0, _doc(slope=-1.2, target_slope=-1.0), False, False),
    ("mu-sweep good", "mu-sweep", 0, _doc(rows=_mu_rows(1.0, 0.9, 0.9, 0.4)), False, True),
    ("mu-sweep rising row", "mu-sweep", 0, _doc(rows=_mu_rows(1.0, 0.8, 0.85)), False, False),
    ("sample good", "sample", 0, _doc(n=4, edge_count=2, edges=[[0, 1], [2, 3]]), False, True),
    ("sample wrong count", "sample", 0, _doc(n=4, edge_count=3, edges=[[0, 1], [2, 3]]), False, False),
    ("sample repeated pair", "sample", 0, _doc(n=4, edge_count=2, edges=[[0, 1], [0, 1]]), False, False),
    ("alter good", "alter", 0, _doc(f_free=True), False, True),
    ("alter not F-free", "alter", 0, _doc(f_free=False), False, False),
    ("lemma2 good", "lemma2", 0, _doc(records=[]), False, True),
    ("lemma2 identity violated", "lemma2", 1, b"", False, False),
    ("refute good", "refute", 0, _doc(success=True), False, True),
    ("refute no escape", "refute", 1, _doc(success=False), False, False),
    ("refute success false at exit 0", "refute", 0, _doc(success=False), False, False),
    ("gap good", "gap", 0, _doc(chain_holds=True), False, True),
    ("gap chain_holds false", "gap", 0, _doc(chain_holds=False), False, False),
    ("exact-qf good", "exact-qf", 0, _doc(value=0.58), False, True),
    ("exact-qf value above 1", "exact-qf", 0, _doc(value=1.5), False, False),
    ("exact-qf hit the time limit", "exact-qf", -15, b"", True, False),
    ("good document but time limit", "gap", 0, _doc(chain_holds=True), True, False),
    ("wrong schema", "gap", 0, json.dumps({"schema": "ffree/0", "chain_holds": True}).encode(), False, False),
    ("not JSON", "alter", 0, b"pattern,n\n", False, False),
    ("missing key", "scaling", 0, _doc(slope=-1.0), False, False),
]


def selftest() -> list[str]:
    """Labels of the self-test cases the checks get wrong (empty when all pass)."""
    wrong = []
    for label, command, rc, stdout, timed_out, passes in SELFTEST_CASES:
        if (check_task(command, rc, stdout, timed_out) is None) != passes:
            wrong.append(label)
    covered = {case[1] for case in SELFTEST_CASES if not case[5]}
    wrong += [f"no known-bad case for {c}" for c in CHECKS if c not in covered]
    return wrong


if __name__ == "__main__":
    failures = selftest()
    for label in failures:
        print(f"FAIL {label}")
    print(f"{len(SELFTEST_CASES) - len(failures)}/{len(SELFTEST_CASES)} self-test cases pass")
    raise SystemExit(1 if failures else 0)
