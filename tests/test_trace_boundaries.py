"""The span tracer in ``perfbench/tracing.py`` wraps each function that its
``BOUNDARIES`` table names, reading it from the owner's ``__dict__``; a name
that no longer resolves breaks every traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_boundaries_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for layer, names in tracing.BOUNDARIES.items():
        module = importlib.import_module(f"uwvio.{layer}")
        for qualname in names:
            *cls, attr = qualname.split(".")
            owner = getattr(module, cls[0]) if cls else module
            if not callable(owner.__dict__.get(attr)):
                missing.append(f"{layer}.{qualname}")
    assert tracing.BOUNDARIES and missing == []
