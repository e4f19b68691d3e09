"""The benchmark's tracer wraps package functions by name; every name it
lists must still be a callable of its module, or a traced run crashes
at install time."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, fn) for module, fn, _ in
            tracing.SPANNED + tracing.COUNTED]


@pytest.mark.parametrize("module,fn", hooks())
def test_traced_function_exists(module, fn):
    target = getattr(importlib.import_module(f"qsalg.{module}"), fn, None)
    assert callable(target), f"qsalg.{module}.{fn}"
