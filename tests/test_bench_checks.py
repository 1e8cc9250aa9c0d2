"""The benchmark's own output checks (perfbench/checks.py) on every task of
perfbench/run.py's WORKLOADS, run in-process, so a document change those
checks cannot read fails here and not first in a benchmark run.  Both files
are read and executed as they are, never changed."""

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
    out = capsys.readouterr().out
    assert RUN.checks.check_task(argv[0], code, out.encode(), False) is None
