"""The benchmark tracer wraps bandscan functions by name: every name must resolve.

`perfbench/tracer.py` finds the methods and helpers it wraps (EXTRA) and the
spans it annotates (NOTES) by module and attribute path, so a rename in
bandscan would otherwise show up only as a failed or silently empty traced
benchmark run.  NOTES read some arguments by position, so a reordered
signature would mislabel a traced run instead.
"""

import importlib
import importlib.util
import inspect
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
