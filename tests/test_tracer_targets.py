"""The benchmark's tracer wraps engine functions and methods by name; every
name it looks up must exist, or a traced run breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, *_ in tracer.TARGETS]


@pytest.mark.parametrize("module, attr", _targets())
def test_tracer_target_exists(module, attr):
    mod = importlib.import_module(f"strandalg.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(mod, cls_name))
    else:
        assert callable(getattr(mod, attr, None))
