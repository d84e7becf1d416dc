"""The e2e benchmark's tracer must still find every callable it wraps.

``benchmarks/e2e/tracer.py`` (outside tier-1's ``testpaths``) swaps
``owner.__dict__[attr]`` for a timing wrapper for every entry of its
``LAYERS`` table, so a refactor that renames one of those methods — or
moves it to a base class — breaks ``--trace 1`` with nothing in tier-1
noticing.  This loads the tracer by path and checks the table.
"""

import importlib.util
import pathlib

TRACER = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks" / "e2e" / "tracer.py"
)


def test_every_traced_callable_is_defined_on_its_class():
    spec = importlib.util.spec_from_file_location("e2e_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{layer}:{owner.__name__}.{attr}"
        for layer, targets in tracer.LAYERS.items()
        for owner, attr, _ in targets
        if not callable(owner.__dict__.get(attr))
    ]
    assert not missing, missing
