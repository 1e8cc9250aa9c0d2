"""perfbench/tracer.py names the `ffree` functions it wraps by string, so a
rename in the package would break `perfbench/run.py --trace 1` runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
