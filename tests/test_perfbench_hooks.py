"""The benchmark tracer wraps bandscan functions by name: every name must resolve.

`perfbench/tracer.py` finds the methods and helpers it wraps (EXTRA) and the
spans it annotates (NOTES) by module and attribute path, so a rename in
bandscan would otherwise show up only as a failed or silently empty traced
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(layer: str, path: str):
    owner = importlib.import_module(f"bandscan.{layer}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


tracer = _tracer()


@pytest.mark.parametrize("layer, path", tracer.EXTRA)
def test_wrapped_extra_resolves(layer, path):
    assert callable(_resolve(layer, path))


@pytest.mark.parametrize("key", sorted(tracer.NOTES))
def test_annotated_span_resolves(key):
    layer, path = key.split(":")
    assert callable(_resolve(layer, path))
