"""The benchmark's traced pass wraps lprime functions named in
``perfbench/spans.py``; a renamed function would silently drop its span."""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    entries = {**spans.SPANS, **spans.LEAVES}
    assert entries
    for name, (module, attr) in entries.items():
        assert module.startswith("lprime."), name
        assert callable(getattr(importlib.import_module(module), attr, None)), name
