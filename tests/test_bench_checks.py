"""The benchmark's own output checks (perfbench/checks.py) on every task of
perfbench/run.py's WORKLOADS, run in-process, so a document change those
checks cannot read fails here and not first in a benchmark run, and each
task's stdout is pinned byte for byte.  Both files are read and executed as
they are, never changed."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from ffree.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_run():
    """perfbench/run.py as a module.  It puts perfbench/ on sys.path to import
    checks and tracer; the path and those two top-level names are restored,
    and the modules stay reachable as run.checks and run.tracer."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    # @dataclass looks its module up in sys.modules while the class is built
    sys.modules[spec.name] = run
    saved_path = list(sys.path)
    try:
        spec.loader.exec_module(run)
    finally:
        sys.path[:] = saved_path
        for name in ("checks", "tracer"):
            sys.modules.pop(name, None)
    return run


RUN = _load_run()
# SHA-256 of each task's stdout at benchmark seed 1, so that a speed-up measured
# on a workload is measured on the very bytes it printed before
STDOUT_SHA256 = {
    ("mc-scaling", 0): "b7416ee07af6d55235e77d7c0d2bb9854ba6dc8501543784fc632dc4a83e8bec",
    ("mc-scaling", 1): "426a5b79b3eda67104724db919027495b46d5f60deb01fe60a65a4662d862d8a",
    ("mc-scaling", 2): "b45307fa7427e7f21401ce5942e361afec2d60d297da9c650cc9f9d13a634b2f",
    ("alteration", 0): "9df89a622919bf408416ef358619cb93f23249d3167409677cc85c19a47c2226",
    ("alteration", 1): "d459f60203d799c70f050ebb0f56a047b247382b45f3bab501017e8e806552c9",
    ("alteration", 2): "5d254cf313d5b14d857278974e9ae94aa079988350db8f9ae0bdf329702a99fa",
    ("alteration", 3): "4fb0671657561a296fc29bfda9878dd197307225018e3d8c2c512bc1261f289d",
    ("alteration", 4): "866f6c874ac6dedadb70a3b5cf279fd0acb0a363d80830caade18539c8191b7d",
    ("exact-chain", 0): "de16e52ba71e9d6cb42fe26f864d5cd69590b4099a75cb29bf79dcef1c36ba90",
    ("exact-chain", 1): "84068202ce6550698ce4ec4c31c82bca360022ac90efe23f3ddd95f182f3cefe",
    ("exact-chain", 2): "21fbd60db64149f8e25e64ef019a5205f524804e2feeeec0b32302b3661884e0",
    ("exact-chain", 3): "db0d6b713a18f4db8f9e05e3eadff1475f576cee5d331a220a726c7b57f0bd0c",
    ("exact-chain", 4): "0259b5081640f60a58c50967afa00ce99ba1f1890f33b6982ed5c00e7b6ba533",
}
TASKS = [(name, i, task) for name, tasks in RUN.WORKLOADS.items()
         for i, task in enumerate(tasks)]


def test_checks_selftest_passes():
    assert RUN.checks.selftest() == []


@pytest.mark.parametrize("name, index, task", TASKS,
                         ids=[f"{name}-{i}-{task.argv[0]}" for name, i, task in TASKS])
def test_workload_task_passes_its_check(capsys, name, index, task):
    argv = list(task.argv)
    if task.seeded:
        argv += ["--seed", RUN.task_seed(1, name, index)]
    code = main(argv)
    out = capsys.readouterr().out.encode()
    assert RUN.checks.check_task(argv[0], code, out, False) is None
    assert hashlib.sha256(out).hexdigest() == STDOUT_SHA256[name, index]
