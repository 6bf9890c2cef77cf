"""The benchmark's per-layer tracer names functions of the package; each must exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, name) for module, names in spans.TRACED.items() for name in names]


@pytest.mark.parametrize("module, name", traced_names())
def test_traced_name_is_a_function_of_its_module(module, name):
    func = getattr(importlib.import_module(f"neqfridge.{module}"), name, None)
    assert inspect.isfunction(func), f"neqfridge.{module}.{name} is not a function"
    assert func.__module__ == f"neqfridge.{module}"
