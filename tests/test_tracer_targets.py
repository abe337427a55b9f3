"""The benchmark's tracer binds names in the package by attribute: each one must exist."""

import importlib.util
from pathlib import Path

import numpy as np

from genage import Dataset

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists_and_is_restored():
    tracer = load_tracer()
    bindings = [(owner, attr) for owner_attrs, _ in tracer.TARGETS.values() for owner, attr in owner_attrs]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in bindings if not hasattr(owner, attr)]
    assert not missing
    originals = [getattr(owner, attr) for owner, attr in bindings]
    recorder = tracer.Tracer()
    recorder.install()
    try:
        assert all(getattr(owner, attr) is not fn for (owner, attr), fn in zip(bindings, originals))
        # building a dataset validates it through the binding the tracer wraps
        Dataset(np.zeros((2, 1)), [1, -1], [1, 2])
    finally:
        recorder.remove()
    assert recorder.calls["core.validate_dataset"] == 1
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(bindings, originals))
