"""The benchmark's tracer wraps program functions by module and name.

A rename that misses ``benchmark/spans.py`` would only print ``not found``
there and drop the spans, so each patch point is checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def _patch_points():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _, _ in spans.PATCH_POINTS]


@pytest.mark.parametrize("module, attr", _patch_points())
def test_every_patch_point_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
