"""The benchmark's traced spans name functions the library still has.

``perfbench/tracing.py`` wraps each ``"<layer>.<function>"`` of ``SPANS`` on
``fracheat.<layer>``; a name that no longer resolves would only show up in a
benchmark run as missing metrics, so it is checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _spans() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("name", _spans())
def test_span_resolves_to_a_callable(name):
    layer, *path = name.split(".")
    owner = importlib.import_module(f"fracheat.{layer}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    # the owner's own attribute, as the tracer patches it there
    assert callable(vars(owner).get(path[-1])), f"{name} is not defined on {owner!r}"
