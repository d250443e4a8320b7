"""The benchmark tracer wraps bandscan functions by name: every name must resolve.

`perfbench/tracer.py` finds the methods and helpers it wraps (EXTRA) and the
spans it annotates (NOTES) by module and attribute path, and its per-layer
metrics select spans by their "layer:name" string, so a rename in bandscan
would otherwise show up only as a failed or silently empty traced benchmark
run.  NOTES read some arguments by position, so a reordered signature would
mislabel a traced run instead.
"""

import importlib
import importlib.util
import inspect
import re
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

#: Every "layer:name" literal in tracer.py: the spans its metrics select.
SELECTED = sorted(set(re.findall(r'"([a-z.]+:[A-Za-z_.]+)"', TRACER.read_text())))
#: Spans of functions that no longer exist, so `dirichlet.scan_s` and
#: `transmission.scan_s` read 0; the benchmark follow-up in ROADMAP.md
#: replaces them.
STALE = {"dirichlet:dispersion_scan", "transmission:dispersion_scan_transmission"}


@pytest.mark.parametrize("layer, path", tracer.EXTRA)
def test_wrapped_extra_resolves(layer, path):
    assert callable(_resolve(layer, path))


@pytest.mark.parametrize("key", sorted(tracer.NOTES))
def test_annotated_span_resolves(key):
    layer, path = key.split(":")
    assert callable(_resolve(layer, path))


@pytest.mark.parametrize("key, positions", [
    ("oracle.fd:_GridOperator.matmat", {1: "V"}),
    ("oracle.fd:_GridOperator.precmat", {1: "V"}),
    ("oracle.eig:hermitian_eigensolve", {0: "A"}),
    ("oracle.fd:fd_dirichlet_eigenvalues", {0: "k"}),
    ("oracle.pwe:pwe_transmission_eigenvalues", {0: "k", 2: "g_max"}),
    ("capacitance:capacitance_bem", {0: "mesh"}),
])
def test_annotated_arguments_keep_their_positions(key, positions):
    # the NOTES entry of each reads args[i]: the Bloch vector, g_max, the block
    assert key in tracer.NOTES
    layer, path = key.split(":")
    params = list(inspect.signature(_resolve(layer, path)).parameters.values())
    for i, name in positions.items():
        assert params[i].name == name
        assert params[i].kind in (params[i].POSITIONAL_ONLY, params[i].POSITIONAL_OR_KEYWORD)


@pytest.mark.parametrize("key", [key for key in SELECTED if key not in STALE])
def test_selected_span_is_traced(key):
    # the tracer names a span after the module that defines a public function,
    # or after its EXTRA entry
    layer, path = key.split(":")
    fn = _resolve(layer, path)
    assert callable(fn)
    assert (layer, path) in tracer.EXTRA or (
        fn.__module__ == f"bandscan.{layer}" and not path.startswith("_"))


def test_stale_spans_are_the_known_ones():
    assert STALE <= set(SELECTED)
    for key in STALE:
        layer, path = key.split(":")
        with pytest.raises(AttributeError):
            _resolve(layer, path)
