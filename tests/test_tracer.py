"""perfbench/tracer.py names the `ffree` functions it wraps by string, so a
rename in the package would break `perfbench/run.py --trace 1` runs.  It
also looks each module up in `sys.modules` right after `import ffree.cli`,
so that import must load every module it names."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from test_cli import _python_subprocess

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, *_ in _spans()])
def test_span_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        # the tracer rebinds methods through the class __dict__
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        assert meth in vars(cls) and callable(getattr(cls, meth))
    else:
        assert callable(getattr(module, attr))


def test_cli_import_loads_every_span_module():
    modules = sorted({m for m, *_ in _spans()})
    proc = _python_subprocess("-c", "import sys, ffree.cli; "
                              "print(*(m for m in sys.argv[1:] if m not in sys.modules))",
                              *modules)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_tracer_runs_end_to_end(tmp_path):
    spans_path = tmp_path / "spans.json"
    proc = _python_subprocess(str(TRACER), str(spans_path), "exact-chain/0",
                              "exact-qf", "--pattern", "P3", "--n", "5", "--tol", "0.01")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "exact-qf"
    names = {name for _, name, *_ in json.loads(spans_path.read_text())["spans"]}
    assert {"cli.main", "exact_tiny.lp_min_cost"} <= names
