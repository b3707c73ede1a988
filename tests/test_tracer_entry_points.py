"""Every entry point the benchmark tracer wraps must still exist.

``benchmark/tracer.py`` looks each name of ``ENTRY_POINTS`` up in its
``flagcodes.<layer>`` module when ``--trace 1`` installs it, so removing or
renaming one of them breaks traced runs; this test catches that first.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _entry_points() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("flagcodes_benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(layer, name) for layer, names in tracer.ENTRY_POINTS.items() for name in names]


@pytest.mark.parametrize("layer,name", _entry_points())
def test_entry_point_resolves(layer, name):
    module = importlib.import_module(f"flagcodes.{layer}")
    cls_name, _, attr = name.rpartition(".")
    if cls_name:
        # the tracer patches methods through the class dict
        assert attr in vars(getattr(module, cls_name)), name
    else:
        assert callable(getattr(module, name)), name
