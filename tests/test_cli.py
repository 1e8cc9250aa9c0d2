import ast
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ffree
from ffree import sampling
from ffree.cli import COMMANDS, _json, build_parser, main
from ffree.sampling import EdgeThresholdTable

from test_acceptance import CLI_RUN_IDS, CLI_RUNS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_density_json(capsys):
    code, out = run(capsys, "density", "--pattern", "triangle")
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == "1/1"
    assert doc["m2"] == "2/1"


def test_density_bad_pattern_exits_2(capsys):
    assert main(["density", "--pattern", "0-0"]) == 2


def test_miscased_preset_exits_2(capsys):
    assert main(["density", "--pattern", "Triangle"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: malformed token 'Triangle' (at token position 0)\n"


@pytest.mark.parametrize("argv", [
    ["density"],
    ["alter", "--n", "10", "--p", "0.1"],
    ["gap", "--n", "4"],
    ["exact-q", "--n", "4"],
    ["exact-qf", "--n", "4"],
], ids=lambda argv: argv[0])
def test_vertexless_pattern_exits_2(capsys, argv):
    assert main([*argv, "--pattern", "n=0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: pattern must have at least one vertex\n"


def test_sample_deterministic(capsys):
    _, a = run(capsys, "sample", "--n", "20", "--p", "0.3", "--seed", "11")
    _, b = run(capsys, "sample", "--n", "20", "--p", "0.3", "--seed", "11")
    assert a == b
    _, c = run(capsys, "sample", "--n", "20", "--p", "0.3", "--seed", "12")
    assert c != a


def test_alter_reports_free_graph(capsys):
    code, out = run(capsys, "alter", "--pattern", "triangle",
                    "--n", "30", "--p", "0.004", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["in_regime"] is True


def test_mu_sweep_csv(capsys):
    code, out = run(capsys, "mu-sweep", "--pattern", "triangle", "--n", "6",
                    "--p-grid", "0.1,0.5,0.9", "--trials", "200",
                    "--seed", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # header + grid
    header = lines[0].split(",")
    assert "p" in header and "mu_hat" in header


def test_pc_json(capsys):
    code, out = run(capsys, "pc", "--pattern", "triangle", "--n", "3",
                    "--trials", "800", "--tol", "0.05", "--seed", "8")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["p_hat"] - 0.5 ** (1 / 3)) < 0.1


def test_pc_usage_errors_exit_2(capsys):
    assert main(["pc", "--pattern", "triangle", "--n", "5", "--trials", "0"]) == 2


def test_pc_of_a_small_battery_brackets_the_unit_interval(capsys):
    # mu_hat(1) = 0 and mu_hat(0) = 1 on any battery: 3 tables need no luck
    code, out = run(capsys, "pc", "--pattern", "K5", "--n", "5", "--trials", "3", "--seed", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["trace"][:2] == [[1.0, 0.0], [0.0, 1.0]]
    assert doc["p_hat"] == 0.953125


@pytest.mark.parametrize("argv", [
    ["pc", "--pattern", "triangle"],
    ["mu-sweep", "--pattern", "triangle", "--p-grid", "0.1"],
    ["sample", "--p", "1e-9"],
    ["alter", "--pattern", "triangle", "--p", "0.1"],
], ids=["pc", "mu-sweep", "sample", "alter"])
def test_astronomical_n_exits_2(capsys, argv):
    # Python refuses a list or bytearray of 10^30 items before allocating any,
    # and the memory guard refuses a sample's edges before the first draw
    assert main([*argv, "--n", str(10 ** 30)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_empty_sample_on_astronomical_n(capsys):
    # p = 0 draws no arrival and builds no bit buffer, so 10^30 vertices cost nothing
    code, out = run(capsys, "sample", "--n", str(10 ** 30), "--p", "0")
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["edge_count"], doc["edges"]) == (10 ** 30, 0, [])


def test_pc_tiny_tolerance_terminates(capsys):
    # the bisection stops once lo and hi are adjacent floats
    code, out = run(capsys, "pc", "--pattern", "triangle", "--n", "8",
                    "--trials", "20", "--tol", "1e-300", "--seed", "0")
    assert code == 0
    trace = json.loads(out)["trace"]
    lo = max(p for p, mu in trace if mu >= 0.5)
    hi = min(p for p, mu in trace if mu < 0.5)
    assert math.nextafter(lo, 1.0) == hi


def test_lemma2_exit_codes(capsys):
    ok = main(["lemma2", "--pattern", "triangle", "--n", "40", "--p", "0.2",
               "--family-size", "2", "--trials", "5", "--seed", "1"])
    assert ok == 0
    # family members too sparse for the weight condition
    bad = main(["lemma2", "--pattern", "triangle", "--n", "40", "--p", "0.2",
                "--family-size", "2", "--family-edges", "1",
                "--trials", "5", "--seed", "1"])
    assert bad == 1


def test_refute_success(capsys):
    code, out = run(capsys, "refute", "--pattern", "triangle", "--n", "40",
                    "--p", "0.2", "--family-size", "3", "--budget", "30",
                    "--seed", "21")
    assert code == 0
    doc = json.loads(out)
    assert doc["success"] is True


def test_refute_not_found_exits_1(capsys):
    # a budget of 0 tries no trial: the documented "refutation not found" exit
    code = main(["refute", "--pattern", "triangle", "--n", "40",
                 "--p", "0.2", "--family-size", "3", "--budget", "0"])
    captured = capsys.readouterr()
    assert code == 1
    doc = json.loads(captured.out)
    assert doc["success"] is False
    assert doc["trials_used"] == 0
    assert doc["escaping_edges"] is None
    assert captured.err == "failure: refute: no escaping graph in 0 of 0 trials\n"


_TOO_MANY = "family needs {} edges per member but only 45 pairs exist at n=10; {}"


@pytest.mark.parametrize("argv, message", [
    (["alter", "--pattern", "triangle", "--n", "50", "--p", "0"], "p=0.0 outside (0, 1)"),
    (["alter", "--pattern", "0-1,2-3", "--n", "10", "--p", "0.1"],
     "pattern needs a vertex of degree >= 2"),
    (["exact-qf", "--pattern", "triangle", "--n", "1"], "need n >= 2"),
    (["pc", "--pattern", "K5", "--n", "4"], "n=4 < pattern vertex count 5: mu is constant 1"),
    (["sample", "--n", "0", "--p", "0.5"], "n must be positive"),
    (["density", "--pattern", "0-1,n=3"], "n= token only allowed first (at token position 1)"),
    # a given --family-edges is named; the computed default asks for a larger p
    (["lemma2", "--pattern", "triangle", "--n", "10", "--p", "0.5", "--family-size", "1",
      "--family-edges", "50"], _TOO_MANY.format(50, "lower --family-edges")),
    (["refute", "--pattern", "triangle", "--n", "10", "--p", "0.5", "--family-size", "1",
      "--family-edges", "50"], _TOO_MANY.format(50, "lower --family-edges")),
    (["lemma2", "--pattern", "triangle", "--n", "10", "--p", "0.01", "--family-size", "1"],
     _TOO_MANY.format(832, "raise --p")),
], ids=["alter-p-zero", "alter-max-degree-1", "exact-qf-n1", "pc-n-below-pattern",
        "sample-n0", "density-late-n", "lemma2-family-edges", "refute-family-edges",
        "lemma2-default-edges"])
def test_usage_errors_exit_2(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


_TINY = ["--n", "40", "--p", "0.2", "--family-size", "2"]


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "12", "--p", "0.3"],
    ["alter", "--pattern", "triangle", "--n", "30", "--p", "0.01"],
    ["pc", "--pattern", "triangle", "--n", "12", "--trials", "30"],
    ["scaling", "--pattern", "triangle", "--n-list", "8,12,16", "--trials", "30"],
    ["lemma2", "--pattern", "triangle", *_TINY, "--trials", "2"],
    ["refute", "--pattern", "triangle", *_TINY, "--budget", "20"],
    ["mu-sweep", "--pattern", "triangle", "--n", "8", "--p-grid", "0.1,0.5", "--trials", "20",
     "--format", "json"],
], ids=lambda argv: argv[0])
def test_documents_write_the_parsed_seed(capsys, argv):
    # one JSON type per key: every document, record and row writes the master
    # seed as an int, whatever form --seed took, and mu-sweep rows hold numbers
    code, out = run(capsys, *argv, "--seed", "0x1f")
    assert code == 0
    doc = json.loads(out)
    seeds = re.findall(r'"seed": ([^,\n]*)', out)
    assert seeds and set(seeds) == {"31"}, seeds
    assert len(seeds) == ("seed" in doc) + len(doc.get("records", doc.get("rows", [])))
    for row in doc.get("rows", []):
        assert all(type(row[k]) is float for k in ("p", "mu_hat", "ci_lo", "ci_hi")), row


@pytest.mark.parametrize("seed, message", [
    ("x", "invalid literal for int() with base 0: 'x'"),
    ("-1", "master seed must be a 64-bit nonnegative integer"),
    ("0x10000000000000000", "master seed must be a 64-bit nonnegative integer"),
    ("1e3", "invalid literal for int() with base 0: '1e3'"),
])
@pytest.mark.parametrize("argv", [
    ["sample", "--n", "12", "--p", "0.3"],
    ["lemma2", "--pattern", "triangle", *_TINY, "--trials", "2"],
], ids=lambda argv: argv[0])
def test_bad_seed_exits_2(capsys, argv, seed, message):
    assert main([*argv, "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_exact_q_and_qf(capsys):
    code, out = run(capsys, "exact-q", "--pattern", "triangle", "--n", "3")
    assert code == 0
    assert abs(json.loads(out)["value"] - 5 / 6) < 1e-3
    code, out = run(capsys, "exact-qf", "--pattern", "triangle", "--n", "3")
    assert code == 0
    assert abs(json.loads(out)["value"] - 5 / 6) < 1e-3


def test_exact_q_scale_cap_exits_2(capsys):
    assert main(["exact-q", "--pattern", "triangle", "--n", "7"]) == 2


def test_gap_chain(capsys):
    code, out = run(capsys, "gap", "--pattern", "triangle", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["chain_holds"] is True


def test_gap_chain_failure_exits_1_with_one_failure_line(capsys, monkeypatch):
    broken = ffree.GapReport(4, "0-1 0-2 1-2", 0.5, 0.25, 0.75, False, False, False, 0.01)
    monkeypatch.setattr(ffree.exact_tiny, "gap_report", lambda n, f, tol: broken)
    code = main(["gap", "--pattern", "triangle", "--n", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["chain_holds"] is False
    assert captured.err == "failure: gap: p_c <= q_f <= q fails (pc=0.5, qf=0.25, q=0.75)\n"


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "density.json"
    code = main(["density", "--pattern", "K4", "--out", str(dest)])
    assert code == 0
    doc = json.loads(dest.read_text())
    assert doc["m2"] == "5/2"


def test_out_to_missing_directory_exits_2(tmp_path, capsys):
    dest = tmp_path / "missing" / "x.json"
    assert main(["sample", "--n", "5", "--p", "0.5", "--out", str(dest)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {dest}: No such file or directory\n"


_FAMILY = ["--pattern", "triangle", "--n", "40", "--p", "0.2"]


@pytest.mark.parametrize("argv, message", [
    (["lemma2", *_FAMILY, "--family-size", "2", "--family-weight", "nan",
      "--trials", "2"], "weights must be nonnegative"),
    (["lemma2", *_FAMILY, "--family-size", "-1", "--trials", "2"],
     "family size must be >= 0, got -1"),
    (["refute", *_FAMILY, "--family-size", "-1", "--budget", "2"],
     "family size must be >= 0, got -1"),
    (["refute", *_FAMILY, "--family-size", "3", "--budget", "-1"],
     "trial budget must be >= 0, got -1"),
    (["lemma2", *_FAMILY, "--family-size", "2", "--trials", "-1"],
     "trials must be >= 0, got -1"),
    (["lemma2", *_FAMILY, "--family-edges", "-5", "--family-size", "2", "--trials", "2"],
     "edge_count must be >= 0, got -5"),
    (["refute", *_FAMILY, "--family-edges", "-5", "--family-size", "2", "--budget", "2"],
     "edge_count must be >= 0, got -5"),
], ids=["lemma2-nan-weight", "lemma2-negative-size", "refute-negative-size",
        "refute-negative-budget", "lemma2-negative-trials", "lemma2-negative-edges",
        "refute-negative-edges"])
def test_bad_family_arguments_exit_2(argv, message):
    proc = _ffree_subprocess(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


# one unit of sh text that a `;` or newline does not cut: a quoted string, an escaped
# character, or a comment (a `#` opening a word, up to the newline); group 1 is a cut
_SH_PIECE = re.compile(r"""'[^']*'|"(?:\\.|[^"\\])*"|\\.|(?<![^\s;])#[^\n]*|([;\n])|.""", re.S)


def _sh_commands(block: str) -> list[list[str]]:
    """The words of each command in an sh block: `\\`-newline continuations
    join lines, and the block is cut at each `;` and newline outside quotes
    and comments."""
    block = block.replace("\\\n", " ")
    cuts = [m.start() for m in _SH_PIECE.finditer(block) if m.group(1)]
    segments = [block[i + 1:j] for i, j in zip([-1, *cuts], [*cuts, len(block)])]
    return [words for words in (shlex.split(s, comments=True) for s in segments) if words]


def test_sh_commands_cut_only_outside_quotes_and_comments():
    block = ('x=$(python -c "import ffree; print(1)")  # a comment; not cut\n'
             "ffree density --pattern 'a;b\nc'; ffree sample \\\n  --n \"3\"\n\n")
    assert _sh_commands(block) == [
        ["x=$(python", "-c", "import ffree; print(1))"],
        ["ffree", "density", "--pattern", "a;b\nc"],
        ["ffree", "sample", "--n", "3"],
    ]
    with pytest.raises(ValueError, match="No closing quotation"):
        _sh_commands("ffree density --pattern 'a;b\n")


def _readme_commands():
    """argv of every `ffree` call in the README's sh blocks; a loop variable
    stands for the first value it takes."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    for block in re.findall(r"```sh\n(.*?)```", readme.read_text(), re.S):
        first = dict(re.findall(r"for (\w+) in (\S+)", block))
        for words in _sh_commands(block):
            if "ffree" in words:
                yield [first.get(w[1:], w) if w.startswith("$") else w
                       for w in words[words.index("ffree") + 1:]]


def test_readme_commands_parse():
    commands = list(_readme_commands())
    assert {argv[0] for argv in commands} == set(COMMANDS)
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


@pytest.mark.parametrize("argv", [
    ["density", "--pattern", "triangle"],
    ["sample", "--n", "15", "--p", "0.4", "--seed", "2"],
    ["alter", "--pattern", "C4", "--n", "20", "--p", "0.01", "--seed", "2"],
    ["mu-sweep", "--pattern", "triangle", "--n", "5", "--p-grid", "0.2,0.6",
     "--trials", "100", "--seed", "2"],
    ["pc", "--pattern", "triangle", "--n", "4", "--trials", "200",
     "--tol", "0.05", "--seed", "2"],
    ["scaling", "--pattern", "triangle", "--n-list", "6,9,12",
     "--trials", "150", "--tol", "0.05", "--seed", "2"],
    ["lemma2", "--pattern", "triangle", "--n", "40", "--p", "0.2",
     "--family-size", "2", "--trials", "3", "--seed", "2"],
    ["refute", "--pattern", "triangle", "--n", "40", "--p", "0.2",
     "--family-size", "3", "--budget", "20", "--seed", "2"],
    ["exact-q", "--pattern", "triangle", "--n", "4"],
    ["exact-qf", "--pattern", "triangle", "--n", "4"],
    ["gap", "--pattern", "triangle", "--n", "4"],
])
def test_reruns_byte_identical(capsys, argv):
    code1, out1 = run(capsys, *argv)
    code2, out2 = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


# stdout SHA-256 pinned at the commit before copies were found once each: a
# change in the copy order would change the greedy packing and these bytes.
# Re-pinned when `seed` became the parsed int (the only change in the JSON),
# and when the tables became pure-Python arrival streams (only the draws changed)
@pytest.mark.parametrize("argv, digest", [
    (["lemma2", "--pattern", "K4", "--n", "60", "--p", "0.3", "--family-size", "4",
      "--trials", "3", "--seed", "5"],
     "f6071e8632d77732f3a8c7fa5b0700d52bcc43f032a0cb50be5136b3209c8733"),
    (["lemma2", "--pattern", "C4", "--n", "100", "--p", "0.08", "--family-size", "4",
      "--trials", "4", "--seed", "5"],
     "24c0a423551c196537735db22163cc73ed05e46f3d397787466c9078dfee27e6"),
    (["alter", "--pattern", "0-1 1-2 3-4", "--n", "200", "--p", "0.02", "--seed", "5"],
     "d4c4c003c3c02182e16dc73c9d9b80876c770e65f781cd5c4f8108a95757a8ab"),
], ids=["lemma2-K4", "lemma2-C4", "alter-P3+K2"])
def test_alteration_golden_digests(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# stdout SHA-256 of the hitting-time estimates: a change in the arrival order
# would move a hitting time and these bytes.  Re-pinned when the tables became
# pure-Python arrival streams (only the draws changed), when p_c's bisection
# moved to [0, 1] and mu-sweep to pc's battery (only the probes and that battery),
# and when the fit's sums moved to math.fsum (scaling-C4's slope and intercept
# now round as on every Python from 3.10 to 3.13)
@pytest.mark.parametrize("argv, digest", [
    (["scaling", "--pattern", "triangle", "--n-list", "16,32,64,128", "--trials", "40",
      "--tol", "0.05", "--seed", "5"],
     "289ed0eccf4d9a1f8b8bf11e6e5185dd2271cd5314727f9098c16216fad7572c"),
    (["scaling", "--pattern", "C4", "--n-list", "16,32,64,128", "--trials", "40",
      "--tol", "0.05", "--seed", "5"],
     "3dc72139ca73193c88e8babc217de5b6aa8ab066b5509d55967c5001cd13a29a"),
    (["pc", "--pattern", "K4", "--n", "60", "--trials", "40", "--tol", "0.05", "--seed", "5"],
     "fa87fe9a866e4fa172841bb1ec90a020e484ebbc4d3067b3aa7b114f9a61648a"),
    (["mu-sweep", "--pattern", "C4", "--n", "64", "--p-grid", "0.01,0.02,0.03,0.05",
      "--trials", "40", "--seed", "5"],
     "de6124a145378ff6f9d14be58f94c8e19e0d52cf9c695a87def90bb8c720ece2"),
], ids=["scaling-triangle", "scaling-C4", "pc-K4", "mu-sweep-C4"])
def test_monte_carlo_golden_digests(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# stdout SHA-256 pinned at the commit before the covering LP was solved on
# S_n-orbits: every q_f and q probe at n = 5 must decide as the labeled LP did;
# keys are (subcommand, pattern, --tol), None for the default tolerance
_EXACT_DIGESTS = {
    ("gap", "triangle", "0.01"):
        "de16e52ba71e9d6cb42fe26f864d5cd69590b4099a75cb29bf79dcef1c36ba90",
    ("exact-qf", "triangle", "0.01"):
        "6c5e4c3609bf1d2788fad9b073ff8012623a354764eac1e37ac51e424ca2fa4a",
    ("exact-q", "triangle", "0.01"):
        "b10a73806dcea9c3b6d33bd46860c8bd63c52e6f164d3071dc7846ae565ecfc4",
    ("gap", "K4", "0.01"):
        "78349a7875d076feada672e8b03ff7cd87466a77daaacc7beff8ab434c3f66f9",
    ("exact-qf", "K4", "0.01"):
        "033dd7b885d7d0a023dddd1f3e00dedabc08431b4eeb04b4142139d802c5aa37",
    ("exact-q", "K4", "0.01"):
        "858ec36e62ae5500c93ffba020e1fec2ffaa0583866eda5309cf4605b7f28f88",
    ("gap", "K5", "0.01"):
        "79f4d479c32f2636bd5536232c7fcd9fcadfbb5b31ca025c555b78fc7261abb8",
    ("exact-qf", "K5", "0.01"):
        "643d0331f476408a8ec65951ac614c5434c7f78aeb83dbb08c9e2868eac94fc0",
    ("exact-q", "K5", "0.01"):
        "d859412d5886e248b92e3a9164d405ef55d845a60e9a8d846d510b2bf801d0f4",
    ("gap", "C4", "0.01"):
        "b2acbc5e3edbedfaaf242a0ade6e7b313979ef46103bd193312fa568325d86a1",
    ("exact-qf", "C4", "0.01"):
        "0259b5081640f60a58c50967afa00ce99ba1f1890f33b6982ed5c00e7b6ba533",
    ("exact-q", "C4", "0.01"):
        "a6f98f2b4c20266fcd684b33e07dace481a2307765965faa5ea8f758f8fd2a5e",
    ("gap", "C5", "0.01"):
        "84068202ce6550698ce4ec4c31c82bca360022ac90efe23f3ddd95f182f3cefe",
    ("exact-qf", "C5", "0.01"):
        "ca589cc0052101a8ef6b232f26a415dc313b68db06b63ff194626fd255e2b58a",
    ("exact-q", "C5", "0.01"):
        "c13f5d21ff513efb310ae651dcfaa50b13ad022e7c072bba1298cf70e57addf6",
    ("gap", "P3", "0.01"):
        "dc741e3b129542f27ab45f123a5d8e40c3934ff5e895adc94ae30ce7ca6324c2",
    ("exact-qf", "P3", "0.01"):
        "21fbd60db64149f8e25e64ef019a5205f524804e2feeeec0b32302b3661884e0",
    ("exact-q", "P3", "0.01"):
        "e657f3d62af0fc498736845640f7bf45256441c15f80b2150280874dc183e213",
    ("gap", "P4", "0.01"):
        "ca36dc511a2a2830f10073eb45e782bd6438726e50bbdb97da09fc4ff84edd1e",
    ("exact-qf", "P4", "0.01"):
        "db0d6b713a18f4db8f9e05e3eadff1475f576cee5d331a220a726c7b57f0bd0c",
    ("exact-q", "P4", "0.01"):
        "950ee5850966c7d81852adf8095039da1e7802f296c64fafe9406c8a6061ff40",
    ("exact-qf", "petersen", "0.01"):
        "b094a712d1d82e532ec9654adfde5201557bd7f6f400f8eb6425c526ecda83bc",
    ("exact-q", "petersen", "0.01"):
        "c165713a6a6ee865c9356a0c025784b6da6c501de24fe0049fe4b0c89bf91af9",
    ("gap", "0-1 2-3", "0.01"):
        "db445fd478b0ba5d872e856fc37c6b68ff7ba120dac276aa464aefe4d4e9f565",
    ("exact-qf", "0-1 2-3", "0.01"):
        "6c520b930dcfc6b12160c612080f04f1eb8ebb8d7dc6e5e7f3f3683b69edbb8e",
    ("exact-q", "0-1 2-3", "0.01"):
        "87d8ff393a4860699e20cbd88a13179f577f4ef8b2a321dde5ac5fbb199a898b",
    ("exact-qf", "triangle", None):
        "17649ca6678a1e2b7dea0e1bfbf523cb2c648b8cadbc7e7eb459c3c10accc849",
    ("gap", "triangle", None):
        "ad7ca8789d9c62cab12c1577924d93bee9b7978e3bb6564d211a55d037df0848",
    ("exact-qf", "C4", None):
        "720d9b053d45fbfe6dbd5eb2d1fb083f18d8f7dd63bfc8d714cf3a14c525513e",
    ("gap", "C4", None):
        "67a6ed7f8aac2ec859a8b9110f7f9022d95b84c50d107c7f9a510f7a74f9a593",
    ("exact-qf", "P3", None):
        "56e1b0507f5e4737bfd3f5b1dfbbeb8af523168a18cd235133c46ed05eb0798e",
    ("gap", "P3", None):
        "960344cdc5a0cd4e05cf4f041a2be2b901d8adc7d46c2f9f8b3e72315157141c",
}


@pytest.mark.parametrize("command, pattern, tol", list(_EXACT_DIGESTS),
                         ids=lambda v: str(v).replace(" ", "+"))
def test_exact_golden_digests(capsys, command, pattern, tol):
    argv = [command, "--pattern", pattern, "--n", "5", *(("--tol", tol) if tol else ())]
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _EXACT_DIGESTS[command, pattern, tol]


# stdout SHA-256 pinned at the commit before the documents were written from
# the records' fields: a change in how a document is rendered (a key, a
# number's form, an edge list) would change these bytes; `n=2 0-1` has no m2.
# sample, refute and mu-sweep were re-pinned when `seed` became the parsed int
# and the mu-sweep rows' p, mu_hat, ci_lo and ci_hi became numbers, again
# when the tables became pure-Python arrival streams (only the draws changed),
# and mu-sweep once more when it came to read pc's battery
_DOCUMENT_DIGESTS = {
    **{("density", "--pattern", pattern): digest for pattern, digest in {
        "triangle": "9291a8e92af6e790bb638fb083b898bebe60474ee3f577de380f067c9966fd3f",
        "P3": "712a90bd5768e2b544fea399851e6f1aeff86d7fb7c305fed6de8adb8c55b7f0",
        "K4": "c9aba445863b8067193789244c56d909b38d1150b404c7fae57cac582ae7acd9",
        "C4": "77b436a202d41cdeaec7c6e0aa2604cdd7df8aae7bcf1fb8c9561f7915ce89f3",
        "P4": "1dde4a91e511ea94c48fa2c9f5bff4828f86387e279dd96e775e13287b27dc0b",
        "K5": "d946a245220a17c298808f787682a184bce1a69c388f2416c99fcea5c68d7023",
        "C5": "e1bec83723333c3ffb5aea11ccaccd1a8db7f42b60dde7d86a9f40eebed5eeca",
        "petersen": "c213cf3b7141efb2938816ac111c6bd1b975dfa40ba8e1c3e1f1759ee072ca36",
        "n=2 0-1": "3ea0291c0c41590ac7337b79f8bb432743e7fd8736178ee42deaddabf04d818b",
    }.items()},
    ("sample", "--n", "30", "--p", "0.2", "--seed", "9"):
        "58270676bde9e6c4fa6f75478aad7e787456d09da0e110bd76a78aaf44a62938",
    ("refute", "--pattern", "triangle", "--n", "40", "--p", "0.2", "--family-size", "3",
     "--budget", "30", "--seed", "9"):
        "093f5ed7295bc11c7d1ae2e3fa08863f34fabbc89cedabe22ba55eb7b8409529",
    ("refute", "--pattern", "triangle", "--n", "40", "--p", "0.2", "--family-size", "0",
     "--seed", "9"):
        "a959bd2a554c069abd135edb1bb62394429e5afeb7cbdf10e58a3ef97f83f7cf",
    ("mu-sweep", "--pattern", "triangle", "--n", "10", "--p-grid", "0.1,0.3,0.5",
     "--trials", "60", "--seed", "9", "--format", "json"):
        "f7d2952fd4f04808da15ff220d577ecd28f223fa393e153235c0d9994aa5851b",
}


@pytest.mark.parametrize("argv", list(_DOCUMENT_DIGESTS), ids=[
    *(f"density-{argv[2]}".replace(" ", "+") for argv in list(_DOCUMENT_DIGESTS)[:9]),
    "sample", "refute", "refute-no-members", "mu-sweep-json"])
def test_document_golden_digests(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _DOCUMENT_DIGESTS[argv]


def test_exact_golden_petersen_gap_exits_2(capsys):
    # Petersen does not fit on 5 vertices: mu_p = 1 at every p, so p_c is undefined
    assert main(["gap", "--pattern", "petersen", "--n", "5", "--tol", "0.01"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: mu_p never drops below 1/2: threshold undefined at this n\n"


def test_out_of_memory_exits_2(capsys, monkeypatch):
    # a MemoryError raised while a table is drawn ends the call with one line
    def generate(n, gen):
        raise MemoryError(f"no room for the arrivals of {n * (n - 1) // 2} pairs")

    monkeypatch.setattr(EdgeThresholdTable, "generate", staticmethod(generate))
    assert main(["pc", "--pattern", "triangle", "--n", "100000", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: no room for the arrivals of 4999950000 pairs\n"


def test_realization_too_large_for_memory_exits_2_at_once(capsys, monkeypatch, deadline):
    # G(100000, 1/2) has ~2.5e9 edges to draw, ~298 GiB of arrivals, and ~10 GiB
    # of bit text for edge_ids; G(100000, 1) draws none but lists as many.  At
    # n = 300000, p = 1e-5 the ~4.5e5 arrivals take ~58 MB, but the bit text
    # ~92 GiB.  Each is refused before the first draw, on a machine of any size
    deadline(5)
    monkeypatch.setattr(sampling, "_memory_bytes", lambda: 64 << 30)

    def draws(table):
        raise AssertionError("an arrival was drawn")

    monkeypatch.setattr(EdgeThresholdTable, "_draws", draws)
    for n, p, need in [("100000", "0.5", "308"), ("100000", "1", "606"),
                       ("300000", "1e-5", "92.3")]:
        assert main(["sample", "--n", n, "--p", p]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: out of memory: drawing the edges of a G({n}, p) "
                                f"sample needs ~{need} GiB, more than this machine's 64 GiB\n")


def _python_subprocess(*argv):
    # a fresh interpreter under a time limit, so a hang fails the test
    # instead of stalling the suite
    src = str(Path(ffree.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def _ffree_subprocess(*argv):
    return _python_subprocess("-m", "ffree.cli", *argv)


def test_exact_layer_and_density_run_without_numpy():
    # no subcommand loads numpy, and the records are NamedTuples, not
    # dataclasses (whose module imports inspect).  random and hashlib are
    # imported by Seed.stream and fractions by the densities, so `import
    # ffree.cli` and its parser load none of them; the exact layer loads
    # none either, and every seeded subcommand, last, may load all three
    seeded = {name for name, (_, _, specs) in COMMANDS.items()
              if any(flag == "--seed" for flag, _ in specs)}
    script = "\n".join([
        "import contextlib, io, json, sys",
        "before = set(sys.modules)",
        "import ffree.cli",
        "ffree.cli.build_parser()",
        "lazy = {'numpy', 'dataclasses', 'inspect', 'fractions', 'decimal', 'random',",
        "        'hashlib', '_hashlib'}",
        "assert not lazy & (sys.modules.keys() - before), lazy & (sys.modules.keys() - before)",
        "unused = lazy - {'random'} - before",
        "argvs, seeded = json.loads(sys.argv[1]), json.loads(sys.argv[2])",
        "for argv in argvs:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert ffree.cli.main(argv) == 0, argv",
        "    if argv[0] == 'density':",
        "        unused -= {'fractions', 'decimal'}",
        "    if argv[0] in seeded:",
        "        unused -= {'fractions', 'decimal', 'hashlib', '_hashlib'}",
        "    assert not unused & sys.modules.keys(), (argv, unused & sys.modules.keys())",
        "assert 'numpy' in unused",
    ])
    argvs = [["exact-qf", "--pattern", "C4", "--n", "5", "--tol", "0.01"],
             ["exact-qf", "--pattern", "n=3", "--n", "3"], ["--help"],
             ["gap", "--pattern", "triangle", "--n", "5", "--tol", "0.01"],
             ["gap", "--pattern", "C5", "--n", "5", "--tol", "0.01"],
             ["exact-q", "--pattern", "triangle", "--n", "5"],
             # probes of q here search below the root
             *([command, "--pattern", text, "--n", "5"]
               for command in ("exact-q", "gap") for text in ("C4", "P3", "n=4 0-1 1-2")),
             ["density", "--pattern", "C4"],
             ["sample", "--n", "30", "--p", "0.2"],
             ["alter", "--pattern", "triangle", "--n", "30", "--p", "0.05"],
             ["mu-sweep", "--pattern", "C4", "--n", "8", "--p-grid", "0.1,0.5", "--trials", "20"],
             ["pc", "--pattern", "triangle", "--n", "8", "--trials", "20"],
             ["scaling", "--pattern", "triangle", "--n-list", "4,6,8", "--trials", "20"],
             ["lemma2", "--pattern", "triangle", "--n", "30", "--p", "0.2", "--trials", "2"],
             ["refute", "--pattern", "triangle", "--n", "40", "--p", "0.2", "--budget", "30"]]
    assert {argv[0] for argv in argvs if argv[0] != "--help"} == set(COMMANDS)
    proc = _python_subprocess("-c", script, json.dumps(argvs), json.dumps(sorted(seeded)))
    assert proc.returncode == 0, proc.stderr


def test_no_module_imports_numpy():
    for path in sorted(Path(ffree.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [m for m in names if m.split(".")[0] == "numpy"], (path.name, node.lineno)


def test_exact_qf_c4_n5_terminates():
    proc = _ffree_subprocess("exact-qf", "--pattern", "C4", "--n", "5",
                             "--tol", "0.01")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == 0.66015625


def test_exact_q_c4_n5_terminates():
    proc = _ffree_subprocess("exact-q", "--pattern", "C4", "--n", "5",
                             "--tol", "0.01")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == 0.66015625


def test_gap_c4_n5_terminates():
    proc = _ffree_subprocess("gap", "--pattern", "C4", "--n", "5", "--tol", "0.01")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["chain_holds"] is True


def test_exact_q_c4_n5_default_tol_terminates():
    proc = _ffree_subprocess("exact-q", "--pattern", "C4", "--n", "5")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == 0.662872314453125


def test_gap_c4_n5_default_tol_terminates():
    proc = _ffree_subprocess("gap", "--pattern", "C4", "--n", "5")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["chain_holds"] is True


def test_exact_zero_tolerance_exits_2():
    proc = _ffree_subprocess("exact-q", "--pattern", "triangle", "--n", "4",
                             "--tol", "0")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: tolerance must be positive")


def test_exact_tiny_tolerance_terminates():
    # the bisection stops once lo and hi are adjacent floats
    proc = _ffree_subprocess("exact-qf", "--pattern", "triangle", "--n", "3",
                             "--tol", "1e-300")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == pytest.approx(5 / 6, abs=1e-15)


@pytest.mark.parametrize("argv", [
    ["exact-q", "--pattern", "triangle", "--n", "4", "--tol", "-1"],
    ["exact-qf", "--pattern", "triangle", "--n", "4", "--tol", "nan"],
    ["gap", "--pattern", "triangle", "--n", "4", "--tol", "nan"],
    ["pc", "--pattern", "triangle", "--n", "5", "--trials", "5", "--tol", "nan"],
], ids=["exact-q-negative", "exact-qf-nan", "gap-nan", "pc-nan"])
def test_bad_tolerance_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tolerance must be positive")


@pytest.mark.parametrize("command", ["lemma2", "refute"])
@pytest.mark.parametrize("p", ["0", "1"])
def test_family_p_outside_unit_interval_exits_2(capsys, command, p):
    argv = [command, "--pattern", "triangle", "--n", "40", "--p", p]
    argv += ["--trials", "2"] if command == "lemma2" else ["--budget", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: p={float(p)} outside (0, 1)")


_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False) | st.text())


def _records(kids):
    """A NamedTuple over drawn field names (rename=True makes any text a
    field name) holding drawn values."""
    return st.lists(st.text(), max_size=4).flatmap(
        lambda names: st.tuples(*[kids] * len(names)).map(
            lambda values: namedtuple("Record", names, rename=True)(*values)))


def _expanded(o):
    """o with every record replaced by its _asdict(), as the writer reads it."""
    if hasattr(o, "_asdict"):
        o = o._asdict()
    if isinstance(o, dict):
        return {k: _expanded(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_expanded(v) for v in o]
    return o


# edge lists, which the writer formats in one pass, and lists of pairs that
# only look like them (a bool is an int to %d, but not to JSON)
_PAIR_LISTS = st.lists(st.tuples(st.integers(), st.integers())
                       | st.tuples(st.integers() | st.booleans(), st.integers()))


@settings(max_examples=150, deadline=None)
@given(st.recursive(_SCALARS | _PAIR_LISTS, lambda kids: st.lists(kids) | st.tuples(kids, kids)
                    | st.dictionaries(st.text(), kids) | _records(kids), max_leaves=30))
def test_json_writer_matches_json_dumps(doc):
    assert _json(doc) == json.dumps(_expanded(doc), indent=2, sort_keys=True)


@pytest.mark.parametrize("argv", CLI_RUNS, ids=CLI_RUN_IDS)
def test_json_documents_equal_json_dumps(capsys, argv):
    # the writer prints what json.dumps(indent=2, sort_keys=True) prints
    main(argv + ["--format", "json"] if argv[0] == "mu-sweep" else argv)
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_writer_refuses_non_finite(value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        _json({"a": [1, {"b": value}]})


@pytest.mark.parametrize("command, extra", [
    ("exact-q", ["--n", "4"]), ("exact-qf", ["--n", "4"]), ("gap", ["--n", "4"]),
    ("pc", ["--n", "5", "--trials", "5"]),
    ("scaling", ["--n-list", "4,5,6", "--trials", "5"]),
])
@pytest.mark.parametrize("tol", ["inf", "-inf", "nan"])
def test_non_finite_tolerance_exits_2(capsys, command, extra, tol):
    assert main([command, "--pattern", "triangle", *extra, f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: tolerance must be positive and finite, got -?(inf|nan)\n",
                        captured.err)
