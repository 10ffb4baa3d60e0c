"""The benchmark reaches into the library by name; every such name must resolve.

``perfbench/tracing.py`` wraps each function its ``SPANS`` and ``LEAVES`` name,
and ``perfbench/workloads.py`` calls each function ``LIB_MODULES`` names, both
with ``getattr`` on a ``paritydie`` module.  A name the library drops breaks
a traced benchmark run, so the names are checked here, where Tier-1 sees them.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def benchmark_names():
    tracing, workloads = load("tracing"), load("workloads")
    spans = [(module, name) for module, names in tracing.SPANS.items() for name in names]
    return [*spans, *tracing.LEAVES, *((module, fn) for fn, module in workloads.LIB_MODULES.items())]


@pytest.mark.parametrize("module,name", benchmark_names())
def test_benchmark_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"paritydie.{module}"), name))
